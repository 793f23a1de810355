//! # heap-simnet
//!
//! A deterministic discrete-event network simulator used as the substrate for
//! the reproduction of *Heterogeneous Gossip* (HEAP, Middleware 2009).
//!
//! The original paper evaluates HEAP on ~270 PlanetLab nodes whose upload
//! bandwidth is artificially capped at the application level. This crate
//! replaces that testbed with a simulated network that models the pieces the
//! protocol actually interacts with:
//!
//! * **virtual time** ([`SimTime`], [`SimDuration`]) with microsecond
//!   resolution,
//! * a **calendar-queue scheduler** with deterministic tie-breaking
//!   ([`event`]),
//! * **per-node upload-capacity queues** that serialise outgoing messages at
//!   the node's configured bandwidth, exactly like the application-level rate
//!   limiter described in the paper ([`bandwidth`]),
//! * configurable **link latency** and **message loss** models ([`latency`],
//!   [`loss`]),
//! * a protocol harness ([`sim::Simulator`], [`sim::Protocol`]) with timers,
//!   node crashes and per-node deterministic randomness,
//! * per-node **traffic statistics** ([`stats`]).
//!
//! Protocols are written against the [`sim::Protocol`] trait and the
//! [`sim::Context`] command surface, and are completely unaware of whether
//! they run above a simulated or a real transport.
//!
//! ## The engine and its reference
//!
//! One deterministic event engine runs every simulation; what varies between
//! runs is policy passed in as data ([`LossModel`], [`LatencyModel`],
//! [`FaultPlan`] and its [`RegionPolicy`] grouping, the crash instants given
//! to [`sim::Simulator::schedule_crash`]), never the mechanism:
//!
//! * **Calendar queue** ([`event::EventQueue`]) — events within the next
//!   ~0.5 s of virtual time live in [`event::NUM_BUCKETS`] buckets of
//!   [`event::BUCKET_WIDTH_MICROS`] µs each (append-only until the cursor
//!   reaches a bucket, which is when it is ordered, exactly once); later
//!   events wait in an outer wheel of [`event::NUM_OUTER_BUCKETS`] coarser
//!   buckets, and beyond that in an overflow min-heap. Both wheels keep
//!   their buckets as chains of [`event::PAGE_EVENTS`]-event pages from one
//!   shared pool, so the queue retains what its peak pending population
//!   needs. Pop order is ascending `(time, insertion seq)`.
//! * **One run loop** — the simulator drains a calendar bucket at a time,
//!   dispatches each event in its own callback context and applies commands
//!   eagerly: [`sim::Context::send`] runs the transmit path (upload queue,
//!   statistics, loss, latency, queue push) inline; per-node state lives in
//!   dense vectors apart from the protocol instances, so the context can
//!   borrow the whole substrate while the protocol instance is borrowed
//!   separately. Queued events are slim: a delivery's wire size is
//!   recomputed at the fire site and a timer's node and tag live in its
//!   timer slot, not in the queue.
//! * **Generation-stamped timer slots** — [`sim::TimerId`] packs a slot
//!   index and a generation; firing frees the slot, so cancellation — even of
//!   a timer that already fired — is an O(1) stamp comparison and the
//!   simulator's timer state is bounded by the number of *concurrently
//!   pending* timers ([`sim::Simulator::timer_slots`]).
//! * **One reference** — the same simulator over a plain
//!   [`event::BinaryHeapQueue`] popped one event at a time, with none of the
//!   calendar's bucket drains or intrusion merges, exists only as the oracle
//!   of the differential tests, which assert the engine bit-identical to
//!   it. It shares everything else with the engine, eager commands
//!   included. It is not a configuration: its one entry point is hidden
//!   from the documented builder API.
//!
//! ## Example
//!
//! ```
//! use heap_simnet::prelude::*;
//!
//! /// A protocol in which node 0 pings every other node once.
//! struct Ping { n: usize }
//!
//! #[derive(Clone, Debug)]
//! struct Hello;
//! impl WireSize for Hello {
//!     fn wire_size(&self) -> usize { 32 }
//! }
//!
//! impl Protocol for Ping {
//!     type Message = Hello;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Hello>) {
//!         if ctx.node_id().index() == 0 {
//!             for i in 1..self.n {
//!                 ctx.send(NodeId::new(i as u32), Hello);
//!             }
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Hello>, _from: NodeId, _msg: Hello) {}
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, Hello>, _timer: TimerId, _tag: u64) {}
//! }
//!
//! let mut sim = SimulatorBuilder::new(4, 42)
//!     .latency(LatencyModel::constant(SimDuration::from_millis(10)))
//!     .build(|_id| Ping { n: 4 });
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.stats().total_messages_delivered(), 3);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bandwidth;
pub mod event;
pub mod fault;
pub mod latency;
pub mod loss;
pub mod node;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;

pub use bandwidth::{Bandwidth, UploadQueue};
pub use event::{BinaryHeapQueue, EventQueue, ScheduledEvent};
pub use fault::{FaultPlan, RegionPolicy};
pub use latency::LatencyModel;
pub use loss::LossModel;
pub use node::NodeId;
pub use sim::{Context, Protocol, Simulator, SimulatorBuilder, TimerId, WireSize};
pub use stats::{MemoryFootprint, NetStats, NodeStats};
pub use time::{SimDuration, SimTime};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::bandwidth::Bandwidth;
    pub use crate::fault::FaultPlan;
    pub use crate::latency::LatencyModel;
    pub use crate::loss::LossModel;
    pub use crate::node::NodeId;
    pub use crate::sim::{Context, Protocol, Simulator, SimulatorBuilder, TimerId, WireSize};
    pub use crate::time::{SimDuration, SimTime};
}
