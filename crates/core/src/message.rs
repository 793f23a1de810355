//! Wire messages of the gossip protocols, and their wire format.

use crate::aggregation::CapabilitySample;
use crate::config::GossipConfig;
use crate::packet_ids::PacketIds;
use heap_membership::partial::ViewEntry;
use heap_simnet::sim::WireSize;
use heap_streaming::packet::StreamPacket;
use serde::{Deserialize, Serialize};

/// A message exchanged by [`GossipNode`](crate::node::GossipNode)s.
///
/// The three dissemination phases of Algorithm 1 map to [`Propose`],
/// [`Request`] and [`Serve`]; [`Aggregation`] carries the capability samples
/// of HEAP's aggregation protocol (Algorithm 2).
///
/// The three phases carry packet ids only, in a [`PacketIds`] list: a
/// receiver rebuilds what it needs of a served packet from its own copy of
/// the run's stream schedule, and the payload bytes exist only in
/// `wire_bytes`. The whole message is at most 40 bytes, so an event that
/// carries it fits one 64-byte cache line, and a fan-out clone of it copies
/// the list or bumps a reference count but never allocates.
///
/// Each constructor sets `wire_bytes` from this module's wire format
/// (`HEADER_BYTES`, `ID_BYTES`, `CAPABILITY_SAMPLE_BYTES`). Their
/// `&GossipConfig` argument is not read; it is kept because `benchmark/`
/// compiles against it, until ROADMAP item 2(b) removes it.
///
/// [`Propose`]: GossipMessage::Propose
/// [`Request`]: GossipMessage::Request
/// [`Serve`]: GossipMessage::Serve
/// [`Aggregation`]: GossipMessage::Aggregation
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GossipMessage {
    /// Phase 1: the sender advertises packet ids it can serve.
    Propose {
        /// Advertised packet identifiers.
        ids: PacketIds,
        /// Wire size of the message, precomputed by the sender.
        wire_bytes: u32,
    },
    /// Phase 2: the receiver of a proposal pulls the ids it still misses.
    Request {
        /// Requested packet identifiers.
        ids: PacketIds,
        /// Wire size of the message.
        wire_bytes: u32,
    },
    /// Phase 3: the proposer pushes the actual payloads.
    Serve {
        /// The ids of the served packets; their payload bytes are accounted
        /// for in `wire_bytes`.
        ids: PacketIds,
        /// Wire size of the message, dominated by the payloads.
        wire_bytes: u32,
    },
    /// HEAP's aggregation protocol: the freshest capability samples known to
    /// the sender.
    Aggregation {
        /// Capability samples, freshest first.
        samples: Vec<CapabilitySample>,
        /// Wire size of the message.
        wire_bytes: u32,
    },
    /// Cyclon-style view exchange of the partial membership mode: the sender
    /// offers peer descriptors and (unless this is the reply leg) expects a
    /// sample of the receiver's view in return.
    Shuffle {
        /// Exchanged peer descriptors.
        entries: Vec<ViewEntry>,
        /// `true` for the response leg of a shuffle (no further reply).
        reply: bool,
        /// Wire size of the message.
        wire_bytes: u32,
    },
}

// The simulator's queue entry is this message plus 24 bytes of scheduling:
// one 64-byte line.
const _: () = assert!(std::mem::size_of::<GossipMessage>() <= 40);

/// Wire bytes of the UDP/IP headers plus protocol framing, on every message.
pub(crate) const HEADER_BYTES: usize = 28;
/// Wire bytes of one packet id (Propose, Request) or peer descriptor (Shuffle).
pub(crate) const ID_BYTES: usize = 8;
/// Wire bytes of one capability sample (Aggregation).
pub(crate) const CAPABILITY_SAMPLE_BYTES: usize = 10;

/// The wire size of a message of `n_ids` packet ids or peer descriptors.
fn control_message_bytes(n_ids: usize) -> u32 {
    wire(HEADER_BYTES + n_ids * ID_BYTES)
}

/// The wire size of a Serve of `payload_bytes` payload bytes.
pub(crate) fn serve_message_bytes(payload_bytes: usize) -> u32 {
    wire(HEADER_BYTES + payload_bytes)
}

/// The wire size of an Aggregation of `n_samples` capability samples.
fn aggregation_message_bytes(n_samples: usize) -> u32 {
    wire(HEADER_BYTES + n_samples * CAPABILITY_SAMPLE_BYTES)
}

/// A message size in the `u32` a message stores.
fn wire(bytes: usize) -> u32 {
    u32::try_from(bytes).expect("a gossip message is smaller than 4 GiB")
}

impl GossipMessage {
    /// Builds a [Propose] message for the given ids.
    ///
    /// [Propose]: GossipMessage::Propose
    pub fn propose(ids: impl Into<PacketIds>, _config: &GossipConfig) -> Self {
        let ids = ids.into();
        let wire_bytes = control_message_bytes(ids.len());
        GossipMessage::Propose { ids, wire_bytes }
    }

    /// Builds a [Request] message for the given ids.
    ///
    /// [Request]: GossipMessage::Request
    pub fn request(ids: impl Into<PacketIds>, _config: &GossipConfig) -> Self {
        let ids = ids.into();
        let wire_bytes = control_message_bytes(ids.len());
        GossipMessage::Request { ids, wire_bytes }
    }

    /// Builds a [Serve] message for the given packets: it carries their ids,
    /// and their payloads count towards its wire size.
    ///
    /// The node builds its Serves with [`serve_ids`](Self::serve_ids); this
    /// form is kept because `benchmark/` compiles against it, until ROADMAP
    /// item 2(b) removes it.
    ///
    /// [Serve]: GossipMessage::Serve
    pub fn serve(packets: Vec<StreamPacket>, _config: &GossipConfig) -> Self {
        let payload: usize = packets.iter().map(|p| p.payload_bytes).sum();
        GossipMessage::Serve {
            ids: packets.iter().map(|p| p.id).collect(),
            wire_bytes: serve_message_bytes(payload),
        }
    }

    /// Builds a [Serve] message for `ids`, packets of `packet_bytes` payload
    /// bytes each.
    ///
    /// [Serve]: GossipMessage::Serve
    pub fn serve_ids(ids: PacketIds, packet_bytes: usize, _config: &GossipConfig) -> Self {
        let wire_bytes = serve_message_bytes(ids.len() * packet_bytes);
        GossipMessage::Serve { ids, wire_bytes }
    }

    /// Builds an [Aggregation] message for the given samples.
    ///
    /// [Aggregation]: GossipMessage::Aggregation
    pub fn aggregation(samples: Vec<CapabilitySample>, _config: &GossipConfig) -> Self {
        let wire_bytes = aggregation_message_bytes(samples.len());
        GossipMessage::Aggregation {
            samples,
            wire_bytes,
        }
    }

    /// Builds a [Shuffle] message for the given view entries.
    ///
    /// [Shuffle]: GossipMessage::Shuffle
    pub fn shuffle(entries: Vec<ViewEntry>, reply: bool, _config: &GossipConfig) -> Self {
        // A descriptor (node id + age) is the size of a packet id on the wire.
        let wire_bytes = control_message_bytes(entries.len());
        GossipMessage::Shuffle {
            entries,
            reply,
            wire_bytes,
        }
    }

    /// A short human-readable tag for logging.
    pub fn kind(&self) -> &'static str {
        match self {
            GossipMessage::Propose { .. } => "propose",
            GossipMessage::Request { .. } => "request",
            GossipMessage::Serve { .. } => "serve",
            GossipMessage::Aggregation { .. } => "aggregation",
            GossipMessage::Shuffle { .. } => "shuffle",
        }
    }

    /// `true` if this message carries stream payload (only [Serve] does).
    ///
    /// [Serve]: GossipMessage::Serve
    pub fn carries_payload(&self) -> bool {
        matches!(self, GossipMessage::Serve { .. })
    }
}

impl WireSize for GossipMessage {
    fn wire_size(&self) -> usize {
        match self {
            GossipMessage::Propose { wire_bytes, .. }
            | GossipMessage::Request { wire_bytes, .. }
            | GossipMessage::Serve { wire_bytes, .. }
            | GossipMessage::Aggregation { wire_bytes, .. }
            | GossipMessage::Shuffle { wire_bytes, .. } => *wire_bytes as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AGGREGATION_FANOUT, AGGREGATION_FRESHEST, AGGREGATION_PERIOD};
    use heap_simnet::bandwidth::Bandwidth;
    use heap_simnet::node::NodeId;
    use heap_simnet::time::SimTime;
    use heap_streaming::packet::{PacketId, WindowId};

    fn cfg() -> GossipConfig {
        GossipConfig::paper()
    }

    fn sample_packet(id: u64) -> StreamPacket {
        StreamPacket {
            id: PacketId::new(id),
            window: WindowId::new(0),
            index_in_window: id as usize,
            is_parity: false,
            published_at: SimTime::ZERO,
            payload_bytes: 1316,
        }
    }

    #[test]
    fn propose_and_request_sizes_scale_with_ids() {
        let ids: Vec<PacketId> = (0..11).map(PacketId::new).collect();
        let p = GossipMessage::propose(ids.clone(), &cfg());
        assert_eq!(p.wire_size(), 28 + 11 * 8);
        assert_eq!(p.kind(), "propose");
        assert!(!p.carries_payload());
        let r = GossipMessage::request(ids, &cfg());
        assert_eq!(r.wire_size(), 28 + 11 * 8);
        assert_eq!(r.kind(), "request");
    }

    #[test]
    fn serve_size_is_dominated_by_payload() {
        let packets = vec![sample_packet(0), sample_packet(1), sample_packet(2)];
        let s = GossipMessage::serve(packets, &cfg());
        assert_eq!(s.wire_size(), 28 + 3 * 1316);
        assert_eq!(s.kind(), "serve");
        assert!(s.carries_payload());
        // The id form builds the same message.
        let ids: PacketIds = (0..3).map(PacketId::new).collect();
        assert_eq!(GossipMessage::serve_ids(ids, 1316, &cfg()), s);
    }

    #[test]
    fn aggregation_size_scales_with_samples() {
        let samples: Vec<CapabilitySample> = (0..10)
            .map(|i| CapabilitySample {
                node: NodeId::new(i),
                capability: Bandwidth::from_kbps(512),
                timestamp: SimTime::ZERO,
            })
            .collect();
        let a = GossipMessage::aggregation(samples, &cfg());
        assert_eq!(a.wire_size(), 28 + 100);
        assert_eq!(a.kind(), "aggregation");
        assert!(!a.carries_payload());
    }

    #[test]
    fn shuffle_size_scales_with_entries() {
        let entries: Vec<ViewEntry> = (1..=5)
            .map(|i| ViewEntry {
                peer: NodeId::new(i),
                age: i,
            })
            .collect();
        let s = GossipMessage::shuffle(entries, false, &cfg());
        assert_eq!(s.wire_size(), 28 + 5 * 8);
        assert_eq!(s.kind(), "shuffle");
        assert!(!s.carries_payload());
        let reply = GossipMessage::shuffle(vec![], true, &cfg());
        assert_eq!(reply.wire_size(), 28);
        assert!(matches!(reply, GossipMessage::Shuffle { reply: true, .. }));
    }

    #[test]
    fn aggregation_overhead_is_marginal() {
        // The paper reports ~1 KB/s of aggregation traffic; the constants
        // stay in that ballpark and far below the 600 kbps stream rate.
        let bytes_per_round =
            (HEADER_BYTES + AGGREGATION_FRESHEST * CAPABILITY_SAMPLE_BYTES) * AGGREGATION_FANOUT;
        let bps = bytes_per_round as f64 * 8.0 / AGGREGATION_PERIOD.as_secs_f64();
        assert!(bps < 20_000.0, "overhead {bps} bps");
        assert!(bps > 1_000.0);
    }

    #[test]
    fn empty_messages_still_have_header_size() {
        assert_eq!(GossipMessage::propose(vec![], &cfg()).wire_size(), 28);
        assert_eq!(GossipMessage::request(vec![], &cfg()).wire_size(), 28);
        assert_eq!(GossipMessage::serve(vec![], &cfg()).wire_size(), 28);
        assert_eq!(GossipMessage::aggregation(vec![], &cfg()).wire_size(), 28);
    }
}
