//! # heap-gossip
//!
//! The core library of the *Heterogeneous Gossip* (HEAP, Middleware 2009)
//! reproduction: a three-phase (propose / request / serve) gossip
//! dissemination protocol for collaborative live streaming, together with the
//! heterogeneity-aware fanout adaptation that is the paper's contribution.
//!
//! ## Protocol overview
//!
//! Every node runs the same loop (Algorithm 1 of the paper):
//!
//! 1. **Propose** — every `gossip_period` (200 ms), send the identifiers of
//!    the packets received since the last round to `fanout` peers chosen
//!    uniformly at random (*infect-and-die*: each id is proposed exactly once
//!    by each node).
//! 2. **Request** — a node receiving a proposal requests the ids it has not
//!    yet requested from the proposer.
//! 3. **Serve** — the proposer answers with the actual payloads.
//!
//! Because payloads only flow after an explicit request, a node never
//! receives the same packet twice, so the average upload rate of payload
//! traffic never exceeds the stream rate.
//!
//! **HEAP** (Algorithm 2) keeps this skeleton and changes one knob: each node
//! sets its fanout to `f · b_p / b̄`, where `b_p` is its own upload capability
//! and `b̄` is a continuously refreshed, gossip-based estimate of the average
//! capability ([`aggregation`]). Rich nodes therefore propose (and are in turn
//! requested) more, poor nodes less, while the *average* fanout — which is
//! what gossip reliability depends on — stays at `f = ln(n) + c`.
//!
//! ## Crate layout
//!
//! * [`config`] — protocol parameters (periods, fanout, message overheads),
//! * [`message`] — the wire messages and their sizes,
//! * [`packet_ids`] — the inline, order-preserving id list the three
//!   dissemination messages carry,
//! * [`fanout`] — fanout policies: fixed (standard gossip), HEAP adaptive,
//!   and an oracle variant used for ablations,
//! * [`aggregation`] — the capability-aggregation protocol,
//! * [`engine`] — the transport-agnostic three-phase dissemination state
//!   machine,
//! * [`retransmit`] — the retransmission tracker for UDP-style losses,
//! * [`node`] — [`node::GossipNode`], wiring everything to `heap-simnet`'s
//!   [`Protocol`](heap_simnet::sim::Protocol) trait plus the streaming
//!   source/receiver roles.
//!
//! ## Quickstart
//!
//! ```
//! use heap_gossip::prelude::*;
//! use heap_simnet::prelude::*;
//! use heap_streaming::{StreamConfig, StreamSchedule};
//!
//! // 20 nodes, node 0 is the source, everyone else receives.
//! let n = 20;
//! let schedule = StreamSchedule::new(StreamConfig::small(2), SimTime::ZERO);
//! let config = GossipConfig::default();
//! let mut sim = SimulatorBuilder::new(n, 1)
//!     .latency(LatencyModel::constant(SimDuration::from_millis(20)))
//!     .build(|id| {
//!         GossipNode::builder(id, n, schedule)
//!             .config(config.clone())
//!             .fanout(FanoutPolicy::fixed(5.0))
//!             .role(if id.index() == 0 { Role::Source } else { Role::Receiver })
//!             .build()
//!     });
//! sim.run_until(SimTime::from_secs(20));
//! // Every receiver got the whole (small) stream.
//! for (id, node) in sim.iter_nodes().skip(1) {
//!     assert_eq!(node.receiver_log().delivery_ratio(), 1.0, "node {id}");
//! }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod aggregation;
pub mod config;
pub mod engine;
pub mod fanout;
pub mod message;
pub mod node;
pub mod packet_ids;
pub mod retransmit;
mod serve_dedup;

pub use aggregation::{CapabilityAggregator, CapabilitySample};
pub use config::{ConfigError, GossipConfig, PartialMembershipConfig};
pub use engine::DisseminationEngine;
pub use fanout::FanoutPolicy;
pub use message::GossipMessage;
pub use node::{GossipNode, GossipNodeBuilder, ProtocolStats, Role};
pub use packet_ids::PacketIds;
pub use retransmit::RetransmitTracker;

/// Convenience re-exports for examples and downstream crates.
pub mod prelude {
    pub use crate::config::GossipConfig;
    pub use crate::fanout::FanoutPolicy;
    pub use crate::message::GossipMessage;
    pub use crate::node::{GossipNode, GossipNodeBuilder, Role};
}
