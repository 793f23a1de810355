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
//!   recomputed at the fire site, and a timer is its queue entry alone,
//!   holding its node and a 32-bit tag. Before each dispatch the loop hints the
//!   node state of the batch entries [`sim::LOOK_AHEAD`] and twice that far
//!   ahead ([`prefetch`], [`sim::Protocol::prefetch`]); a hint reads
//!   nothing, so it cannot change a result.
//! * **Timers that always fire** — a [`sim::TimerId`] is the sequence
//!   number of the timer's fire event and the simulator keeps no other timer
//!   state: there is no cancellation, and a protocol that supersedes a timer
//!   ignores fires of ids other than its latest.
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
#![deny(unsafe_code)]
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

/// Hints the processor to pull the cache line holding `p` into L1, ahead of
/// a load that will need it; a no-op off x86_64.
///
/// The engine's look-ahead ([`sim::LOOK_AHEAD`]) and
/// [`sim::Protocol::prefetch`] implementations call it. Any address may be
/// given, dangling or not: nothing is read, so no value can change.
#[inline(always)]
#[allow(unsafe_code)] // the crate's second `unsafe`, after `EventQueue::order_bucket`'s
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch reads nothing and cannot fault, whatever the
    // address; SSE, which provides it, is part of the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>())
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

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
