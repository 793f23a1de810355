//! The transport-agnostic three-phase dissemination state machine.
//!
//! [`DisseminationEngine`] implements the data structures and transitions of
//! Algorithm 1 (`eToPropose`, `eRequested`, `eDelivered`, infect-and-die) with
//! no knowledge of timers or the network; [`GossipNode`](crate::node::GossipNode)
//! drives it from the simulator callbacks. Keeping the state machine pure makes
//! it directly unit- and property-testable.

use crate::packet_ids::PacketIds;
use heap_simnet::time::SimTime;
use heap_streaming::health::{HealthConfig, ReceiverHealth};
use heap_streaming::packet::{PacketId, StreamPacket};
use heap_streaming::receiver::ReceiverLog;
use heap_streaming::source::StreamSchedule;

/// Counters describing what the engine has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Packet ids accepted for future proposal (excluding source publishes).
    pub ids_learned: u64,
    /// Packets delivered (first receptions).
    pub packets_delivered: u64,
    /// Duplicate payload receptions (should stay 0 under the three-phase
    /// protocol; counted to verify that invariant).
    pub duplicate_payloads: u64,
    /// Ids requested from proposers.
    pub ids_requested: u64,
    /// Ids served to requesters.
    pub ids_served: u64,
}

/// `eRequested`: one bit per stream packet, in `u64` words.
#[derive(Debug, Clone)]
struct RequestedSet {
    words: Box<[u64]>,
    len: usize,
}

impl RequestedSet {
    /// `len` packets, none requested.
    fn new(len: usize) -> Self {
        RequestedSet {
            words: vec![0; len.div_ceil(64)].into_boxed_slice(),
            len,
        }
    }

    /// Whether packet `idx` belongs to the stream.
    fn in_range(&self, idx: usize) -> bool {
        idx < self.len
    }

    /// Whether packet `idx` was requested; `idx` must be in the stream.
    fn get(&self, idx: usize) -> bool {
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Marks packet `idx` requested or not; `idx` must be in the stream.
    fn set(&mut self, idx: usize, requested: bool) {
        let bit = 1u64 << (idx % 64);
        let word = &mut self.words[idx / 64];
        if requested {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }
}

/// Per-node dissemination state (Algorithm 1).
///
/// Per stream packet it holds 4 bytes of receive log (see [`ReceiverLog`])
/// and one `eRequested` bit.
///
/// # Examples
///
/// ```
/// use heap_gossip::engine::DisseminationEngine;
/// use heap_streaming::{PacketId, StreamConfig, StreamSchedule};
/// use heap_simnet::time::SimTime;
///
/// let schedule = StreamSchedule::new(StreamConfig::small(1), SimTime::ZERO);
/// let mut engine = DisseminationEngine::new(schedule);
///
/// // A proposal for packet 0 arrives: we want it (not yet requested).
/// let wanted = engine.handle_propose([PacketId::new(0)]);
/// assert_eq!(wanted.to_vec(), [PacketId::new(0)]);
/// // Proposing it again elsewhere: already requested, nothing wanted.
/// assert!(engine.handle_propose([PacketId::new(0)]).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct DisseminationEngine {
    schedule: StreamSchedule,
    log: ReceiverLog,
    /// `eRequested`: ids we have already pulled (never pull twice).
    requested: RequestedSet,
    /// `eToPropose`: the sequence numbers of the ids to advertise in the
    /// next gossip round (cleared after every round — infect-and-die). The
    /// buffer is kept across rounds.
    to_propose: Vec<u32>,
    stats: EngineStats,
    /// Live stream-health tracker, fed on every first delivery (O(1),
    /// allocation-free — it never perturbs the hot path or determinism).
    health: ReceiverHealth,
}

impl DisseminationEngine {
    /// Creates the engine for a node participating in the given stream.
    pub fn new(schedule: StreamSchedule) -> Self {
        let total = schedule.total_packets() as usize;
        DisseminationEngine {
            log: ReceiverLog::for_schedule(&schedule),
            requested: RequestedSet::new(total),
            to_propose: Vec::new(),
            health: ReceiverHealth::new(HealthConfig::for_schedule(&schedule)),
            schedule,
            stats: EngineStats::default(),
        }
    }

    /// The stream schedule this engine follows.
    pub fn schedule(&self) -> &StreamSchedule {
        &self.schedule
    }

    /// The receive log (arrival time of every delivered packet).
    pub fn receiver_log(&self) -> &ReceiverLog {
        &self.log
    }

    /// Moves the receive log out, leaving an empty log (no packets, no
    /// allocation) behind: for collecting results once the run is over,
    /// after which the engine no longer knows which packets it delivered.
    pub fn take_receiver_log(&mut self) -> ReceiverLog {
        std::mem::replace(&mut self.log, ReceiverLog::new(0))
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The live stream-health tracker (drift slope, cadence variance, freeze
    /// detection, 0–100 score), updated on every first delivery.
    pub fn health(&self) -> &ReceiverHealth {
        &self.health
    }

    /// Whether the packet has been delivered to this node.
    pub fn is_delivered(&self, id: PacketId) -> bool {
        self.log.has(id)
    }

    /// Hints packet `seq`'s `eRequested` word and receive-log slot, the
    /// lines the next Propose, Request or Serve naming it reads first.
    #[inline]
    pub fn prefetch(&self, seq: u64) {
        let word = self
            .requested
            .words
            .as_ptr()
            .wrapping_add(seq as usize / 64);
        heap_simnet::prefetch(word);
        self.log.prefetch(seq);
    }

    /// Whether the packet has already been requested by this node.
    pub fn is_requested(&self, id: PacketId) -> bool {
        let idx = id.seq() as usize;
        !self.requested.in_range(idx) || self.requested.get(idx)
    }

    /// Number of ids currently queued for the next proposal round.
    pub fn pending_proposals(&self) -> usize {
        self.to_propose.len()
    }

    /// **Source only.** Publishes a locally produced packet: delivers it to
    /// the local log and returns the id to be gossiped immediately
    /// (Algorithm 1 line 5 gossips fresh ids right away rather than waiting
    /// for the next round).
    pub fn publish(&mut self, packet: &StreamPacket, now: SimTime) -> PacketId {
        if self.log.record(packet.id, now) {
            self.stats.packets_delivered += 1;
            self.health.on_packet(packet.published_at, now);
        }
        // Mark as requested so proposals from other nodes never pull it back.
        let idx = packet.id.seq() as usize;
        if self.requested.in_range(idx) {
            self.requested.set(idx, true);
        }
        packet.id
    }

    /// Drains the ids to advertise this round (infect-and-die: each id is
    /// returned exactly once over the lifetime of the node). The queue keeps
    /// its buffer for the next round.
    pub fn take_proposals(&mut self) -> PacketIds {
        let ids = PacketIds::from_seqs(&self.to_propose);
        self.to_propose.clear();
        ids
    }

    /// Phase 2 (receiver side): handles an incoming [Propose] and returns the
    /// ids to pull, in proposal order — those neither requested before nor
    /// already delivered, and that actually belong to the stream.
    ///
    /// [Propose]: crate::message::GossipMessage::Propose
    pub fn handle_propose(&mut self, proposed: impl IntoIterator<Item = PacketId>) -> PacketIds {
        let wanted: PacketIds = proposed
            .into_iter()
            .filter(|&id| {
                let idx = id.seq() as usize;
                // Not a packet of this stream, already requested or
                // already delivered: nothing to pull.
                if !self.requested.in_range(idx) || self.requested.get(idx) || self.log.has(id) {
                    return false;
                }
                self.requested.set(idx, true);
                true
            })
            .collect();
        self.stats.ids_requested += wanted.len() as u64;
        wanted
    }

    /// Phase 3 (proposer side): handles an incoming [Request] and returns the
    /// ids, in request order, of the requested packets this node actually
    /// has.
    ///
    /// [Request]: crate::message::GossipMessage::Request
    pub fn handle_request(&mut self, requested: impl IntoIterator<Item = PacketId>) -> PacketIds {
        let total = self.schedule.total_packets();
        let served: PacketIds = requested
            .into_iter()
            .filter(|&id| self.log.has(id) && id.seq() < total)
            .collect();
        self.stats.ids_served += served.len() as u64;
        served
    }

    /// Phase 3 (receiver side): handles an incoming [Serve]; delivers new
    /// packets, queues their ids for the next proposal round (read them with
    /// [`take_proposals`](Self::take_proposals)) and returns how many were
    /// new. Each delivery feeds the health tracker the packet's publication
    /// instant from this node's schedule, the same for every node of a run.
    ///
    /// [Serve]: crate::message::GossipMessage::Serve
    pub fn handle_serve(
        &mut self,
        served: impl IntoIterator<Item = PacketId>,
        now: SimTime,
    ) -> usize {
        let mut fresh = 0;
        for id in served {
            if self.log.record(id, now) {
                let published_at = self
                    .schedule
                    .publish_time(id)
                    .expect("the receive log holds exactly the stream's packets");
                self.stats.packets_delivered += 1;
                self.stats.ids_learned += 1;
                self.health.on_packet(published_at, now);
                // A delivered id is in the stream, so below 2³².
                self.to_propose.push(id.seq() as u32);
                fresh += 1;
            } else {
                self.stats.duplicate_payloads += 1;
            }
        }
        fresh
    }

    /// Of the given ids, those that are still missing (requested but not yet
    /// delivered), in their order — the set a retransmission should pull
    /// again.
    pub fn still_missing(&self, ids: impl IntoIterator<Item = PacketId>) -> PacketIds {
        ids.into_iter()
            .filter(|&id| !self.log.has(id) && self.requested.in_range(id.seq() as usize))
            .collect()
    }

    /// Resident heap bytes (beyond `size_of::<Self>()`): the receive log,
    /// the `eRequested` bits and the proposal queue's buffer.
    pub fn heap_bytes(&self) -> usize {
        self.log.heap_bytes()
            + self.requested.words.len() * 8
            + self.to_propose.capacity() * std::mem::size_of::<u32>()
    }

    /// Gives up on an earlier request: clears the `eRequested` mark of the
    /// given (still missing) ids so that a later [Propose] from *another*
    /// peer can pull them again. Used when the proposer a request was sent to
    /// has failed, or when all retransmissions towards it were exhausted.
    ///
    /// [Propose]: crate::message::GossipMessage::Propose
    pub fn unrequest(&mut self, ids: impl IntoIterator<Item = PacketId>) {
        for id in ids {
            let idx = id.seq() as usize;
            if self.requested.in_range(idx) && !self.log.has(id) {
                self.requested.set(idx, false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_streaming::source::StreamConfig;

    fn engine() -> DisseminationEngine {
        let schedule = StreamSchedule::new(StreamConfig::small(2), SimTime::ZERO);
        DisseminationEngine::new(schedule)
    }

    fn id(seq: u64) -> PacketId {
        PacketId::new(seq)
    }

    #[test]
    fn propose_request_serve_roundtrip() {
        let mut a = engine(); // proposer
        let mut b = engine(); // receiver
        let now = SimTime::from_secs(1);

        // a received packets 0 and 1 from somewhere.
        assert_eq!(a.handle_serve([id(0), id(1)], now), 2);
        assert_eq!(a.pending_proposals(), 2);
        assert!(a.is_delivered(PacketId::new(0)));

        // a proposes; b wants both.
        let proposal = a.take_proposals();
        assert_eq!(proposal.len(), 2);
        assert_eq!(a.pending_proposals(), 0, "infect-and-die drains the set");
        let wanted = b.handle_propose(&proposal);
        assert_eq!(wanted, proposal);
        assert_eq!(wanted.to_vec(), [id(0), id(1)]);
        assert!(b.is_requested(PacketId::new(0)));
        assert!(!b.is_delivered(PacketId::new(0)));

        // a serves; b delivers and queues for its own next round.
        let served = a.handle_request(&wanted);
        assert_eq!(served, wanted);
        assert_eq!(b.handle_serve(&served, now), 2);
        assert!(b.is_delivered(PacketId::new(1)));
        assert_eq!(b.receiver_log().received_count(), 2);
        assert_eq!(b.stats().packets_delivered, 2);
        assert_eq!(a.stats().ids_served, 2);
    }

    #[test]
    fn never_requests_twice_or_after_delivery() {
        let mut e = engine();
        assert_eq!(e.handle_propose([id(3)]).to_vec(), [id(3)]);
        // Second proposal for the same id: nothing wanted.
        assert!(e.handle_propose([id(3)]).is_empty());
        // Deliver it, then propose again: still nothing wanted.
        e.handle_serve([id(3)], SimTime::from_secs(2));
        assert!(e.handle_propose([id(3)]).is_empty());
    }

    #[test]
    fn duplicate_serves_are_counted_not_redelivered() {
        let mut e = engine();
        assert_eq!(e.handle_serve([id(5)], SimTime::from_secs(1)), 1);
        assert_eq!(e.handle_serve([id(5)], SimTime::from_secs(2)), 0);
        assert_eq!(e.stats().duplicate_payloads, 1);
        assert_eq!(e.receiver_log().arrival(id(5)), Some(SimTime::from_secs(1)));
        // The id is only queued for proposal once.
        assert_eq!(e.take_proposals().len(), 1);
    }

    #[test]
    fn handle_request_only_serves_what_it_has() {
        let mut e = engine();
        e.handle_serve([id(0)], SimTime::from_secs(1));
        let served = e.handle_request([id(0), id(7), id(9999)]);
        assert_eq!(served.to_vec(), [id(0)]);
    }

    #[test]
    fn proposals_outside_the_stream_are_ignored() {
        let mut e = engine();
        let wanted = e.handle_propose([id(1_000_000)]);
        assert!(wanted.is_empty());
        assert!(
            e.is_requested(PacketId::new(1_000_000)),
            "out of range treated as non-pullable"
        );
    }

    #[test]
    fn publish_delivers_locally_without_reproposing_later() {
        let mut e = engine();
        let p = e.schedule().packet(id(0)).unwrap();
        let id = e.publish(&p, SimTime::from_millis(5));
        assert_eq!(id, p.id);
        assert!(e.is_delivered(p.id));
        // The published id is gossiped immediately by the caller and must not
        // be queued again for the next round.
        assert_eq!(e.pending_proposals(), 0);
        // And proposals from others for that id are not pulled.
        assert!(e.handle_propose([p.id]).is_empty());
        // Publishing twice does not double-count deliveries.
        e.publish(&p, SimTime::from_millis(6));
        assert_eq!(e.stats().packets_delivered, 1);
    }

    #[test]
    fn still_missing_filters_delivered_ids() {
        let mut e = engine();
        let ids = [id(2), id(0), id(1)];
        e.handle_propose(ids);
        e.handle_serve([id(1)], SimTime::from_secs(1));
        assert_eq!(e.still_missing(ids).to_vec(), [id(2), id(0)]);
        // Out-of-stream ids are never reported missing.
        assert!(e.still_missing([id(1_000_000)]).is_empty());
    }

    #[test]
    fn health_tracks_first_deliveries_only() {
        let mut e = engine();
        let interval = e.schedule().config().packet_interval();
        let at = |seq| e.schedule().publish_time(id(seq)).unwrap() + interval;
        let (t0, t1) = (at(0), at(1));
        e.handle_serve([id(0)], t0);
        e.handle_serve([id(1)], t1);
        // A duplicate serve must not feed the tracker again.
        e.handle_serve([id(1)], t1 + interval * 2);
        assert_eq!(e.health().samples(), 2);
        assert_eq!(e.health().clock_anomalies(), 0);
        // Publishing counts as a (source-side) delivery too.
        let mut src = engine();
        let p = src.schedule().packet(id(0)).unwrap();
        src.publish(&p, p.published_at);
        assert_eq!(src.health().samples(), 1);
    }

    #[test]
    fn health_gets_the_publication_instant_a_descriptor_carries() {
        // A schedule that does not start at zero, served out of order and
        // with duplicates: the tracker must see exactly what feeding it each
        // packet's full descriptor would have shown it.
        let schedule = StreamSchedule::new(StreamConfig::small(3), SimTime::from_millis(250));
        let mut e = DisseminationEngine::new(schedule);
        let mut oracle = ReceiverHealth::new(HealthConfig::for_schedule(&schedule));
        let interval = schedule.config().packet_interval();
        let order = [0, 2, 1, 5, 4, 3, 3, 6, 9, 8, 7, 10, 35, 11, 12];
        let mut now = SimTime::ZERO;
        for (step, seq) in order.into_iter().enumerate() {
            let packet = schedule.packet(id(seq)).unwrap();
            // Arrivals never go back in time.
            now = now.max(packet.published_at + interval * (step as u64 % 4 + 1));
            if !e.is_delivered(packet.id) {
                oracle.on_packet(packet.published_at, now);
            }
            e.handle_serve([packet.id], now);
        }
        assert_eq!(e.health().samples(), 14);
        assert_eq!(e.health(), &oracle);
    }

    #[test]
    fn requested_bits_are_independent_across_word_boundaries() {
        // 12 small windows = 144 packets: three words, the last one partial.
        let schedule = StreamSchedule::new(StreamConfig::small(12), SimTime::ZERO);
        let mut e = DisseminationEngine::new(schedule);
        let edges: Vec<PacketId> = [0, 63, 64, 127, 128, 143].map(PacketId::new).to_vec();
        assert_eq!(e.handle_propose(edges.iter().copied()).to_vec(), edges);
        for seq in 0..144 {
            let id = PacketId::new(seq);
            assert_eq!(e.is_requested(id), edges.contains(&id), "packet {seq}");
        }
        e.unrequest([id(64)]);
        assert!(!e.is_requested(PacketId::new(64)));
        assert!(e.is_requested(PacketId::new(63)) && e.is_requested(PacketId::new(127)));
        // Past the end of the stream every id reads as requested.
        assert!(e.is_requested(PacketId::new(144)));
        assert!(e.handle_propose([id(144)]).is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let mut e = engine();
        e.handle_propose([id(0), id(1)]);
        e.handle_serve([id(0)], SimTime::from_secs(1));
        e.handle_request([id(0)]);
        let s = e.stats();
        assert_eq!(s.ids_requested, 2);
        assert_eq!(s.packets_delivered, 1);
        assert_eq!(s.ids_learned, 1);
        assert_eq!(s.ids_served, 1);
    }
}
