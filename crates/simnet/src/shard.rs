//! The sharded simulator: per-region event loops with deterministic
//! cross-shard delivery exchange.
//!
//! [`SimulatorBuilder::sharded`](crate::sim::SimulatorBuilder::sharded)
//! partitions the node population into *shards* (per a pluggable
//! [`ShardPolicy`]), each owning its own calendar queue, struct-of-arrays
//! node and statistics columns, upload queues and per-node RNG streams.
//! Shards advance in lockstep over *exchange windows* of `k` calendar
//! buckets ([`BUCKET_WIDTH_MICROS`] ≈ 1 ms of virtual time, `k =
//! floor(min_latency / bucket_width)`) and synchronise only at window
//! boundaries — conservative parallel discrete-event simulation with the
//! *minimum link latency* as the lookahead bound.
//!
//! ## Why the result is bit-identical to the flat core
//!
//! Within one window, events on different nodes are causally independent:
//! protocol callbacks touch only per-node state and per-node RNG streams,
//! and — under the determinism contract below — nothing a callback schedules
//! can fire before the window's cutoff. The only globally ordered resources
//! are the network RNG (loss and latency draws) and the event sequence
//! numbers that break `(time, seq)` ties. Shards therefore run their window
//! eagerly but record every `send`/`set_timer` into a fixed-capacity
//! per-shard **mailbox**, keyed by `(trigger time, trigger seq, command
//! index)` — the same `(offset, arrival)` total order the calendar buckets
//! sort by, extended to commands. At the window boundary the mailboxes are
//! merged, sorted by that key and resolved *serially*: loss and latency are
//! drawn from the shared network RNG and global sequence numbers are
//! assigned in exactly the order the flat core's inline transmit path would
//! have produced, then each resulting event is routed to its destination
//! shard's queue ([`EventQueue::push_at_seq`]). Every shard queue thus pops
//! the restriction of the flat core's global `(time, seq)` order, every RNG
//! stream is consumed identically, and the per-shard statistics columns sum
//! to the flat core's counters exactly — asserted by the cross-engine
//! fingerprint test and the shard differential proptests.
//!
//! ## The determinism contract (lookahead bound)
//!
//! Deferring command resolution to the window boundary is only equivalent
//! to the flat core if nothing scheduled *during* a window fires *within*
//! that window. The window cutoff is chosen so that holds structurally for
//! everything except pathological timer arms:
//!
//! * **link latency** — asserted at build time: the latency model's minimum
//!   delay must span at least one calendar bucket. The lookahead width is
//!   `k = floor(min_delay / bucket_width)` buckets: a message sent at time
//!   `t` cannot arrive before `t + k·W`, which is provably past the cutoff
//!   `(first_bucket_end + (k-1)·W)`.
//! * **pending timers** — the cutoff is additionally clamped to the end of
//!   the bucket holding the *earliest pending timer fire* across all shards
//!   (tracked per shard as the exchange routes fire events). A timer
//!   callback may arm follow-up timers with delays as short as one bucket;
//!   the clamp guarantees any such re-arm lands past the cutoff. With
//!   `k = 1` the clamp is vacuous (a pending event can never precede the
//!   first bucket) and is skipped, so single-bucket runs are byte-for-byte
//!   the pre-widening driver.
//! * **timer delays armed from message handlers** — checked at every
//!   exchange: a timer whose fire time lands at or before the window cutoff
//!   is counted as a violation (the flat core would have fired it inside
//!   the already-completed window region; arming with at least the minimum
//!   link latency is always safe), the run stops stepping at that exchange,
//!   and the breach is surfaced as a structured [`ContractViolation`] —
//!   naming the offending node, timer tag and the active lookahead —
//!   through
//!   [`Simulator::run_to_completion`](crate::sim::Simulator::run_to_completion)
//!   and
//!   [`Simulator::contract_violation`](crate::sim::Simulator::contract_violation).
//!
//! `on_start` callbacks are exempt: they run before any event exists, so
//! their commands (including sub-bucket random timer phases) are exchanged
//! before the first bucket is processed, in node order — exactly the flat
//! core's `start_all` order.
//!
//! ## Execution modes
//!
//! * **Sequential shard stepping** ([`Simulator::run_until`]) — shards step
//!   one after another within each bucket. No threads; the win is cache
//!   locality (each shard's queue and columns fit hotter cache levels than
//!   the whole population's).
//! * **Shard-per-core** ([`Simulator::run_until_threaded`]) — scoped threads
//!   run all shards' buckets concurrently, with barriers around the serial
//!   exchange. Bit-identical to the sequential path by construction (the
//!   exchange is the only cross-shard communication and it is serial).
//!
//! [`Simulator::run_until`]: crate::sim::Simulator::run_until
//! [`Simulator::run_until_threaded`]: crate::sim::Simulator::run_until_threaded
//! [`EventQueue::push_at_seq`]: crate::event::EventQueue::push_at_seq

use crate::bandwidth::{UploadCapacity, UploadQueue};
use crate::event::{EventQueue, BUCKET_WIDTH_MICROS};
use crate::fault::FaultPlan;
use crate::latency::LatencySampler;
use crate::loss::LossSampler;
use crate::node::NodeId;
use crate::rng::stream_rng;
use crate::sim::{
    extends_run, Context, Event, EventKind, Protocol, SimulatorBuilder, TimerId, TimerTable,
    WireSize,
};
use crate::stats::{MemoryFootprint, NetStats};
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::DerefMut;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// A breach of the sharded determinism contract observed during a run: one
/// or more commands scheduled events inside an already-completed exchange
/// window (typically a message handler arming a timer with a delay shorter
/// than the lookahead), which the flat core would have interleaved into the
/// region the shards had already processed.
///
/// A sharded run that breaches the contract stops stepping at the breaching
/// exchange and latches the violation
/// ([`Simulator::contract_violation`](crate::sim::Simulator::contract_violation));
/// [`Simulator::run_to_completion`](crate::sim::Simulator::run_to_completion)
/// surfaces it as this error instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContractViolation {
    /// Number of offending commands observed before the run stopped.
    pub violations: u64,
    /// The first offending command, for diagnosis. `None` only for
    /// violations latched by code predating the detail capture (never in
    /// practice: the exchange records the first offender it counts).
    pub first: Option<ViolationDetail>,
}

/// The first offending command of a [`ContractViolation`]: which node
/// scheduled what, for when, and against which window cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViolationDetail {
    /// The node whose command scheduled the offending event: the owner of
    /// the offending timer, or the sender of the offending delivery.
    pub node: NodeId,
    /// The offending timer's protocol tag; `None` for a link delivery
    /// (impossible once the build-time minimum-latency assert holds —
    /// every delivery provably lands past the cutoff).
    pub timer_tag: Option<u64>,
    /// When the offending event was scheduled to fire, in microseconds of
    /// virtual time.
    pub scheduled_micros: u64,
    /// The exchange-window cutoff the event landed at or before, in
    /// microseconds of virtual time.
    pub cutoff_micros: u64,
    /// The lookahead width the run was using, in calendar buckets of
    /// [`BUCKET_WIDTH_MICROS`] µs.
    pub lookahead_buckets: u64,
}

impl fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sharded determinism contract violated: {} command(s) scheduled events inside an \
             already-completed exchange window (a timer armed from a message handler must \
             outlive the lookahead window; arming with at least the minimum link latency is \
             always safe)",
            self.violations
        )?;
        if let Some(d) = self.first {
            write!(
                f,
                "; first offender: node {}'s {} scheduled for {} us, at or before the window \
                 cutoff {} us under a lookahead of {} bucket(s) of {BUCKET_WIDTH_MICROS} us",
                d.node.index(),
                match d.timer_tag {
                    Some(tag) => format!("timer (tag {tag})"),
                    None => "delivery".to_string(),
                },
                d.scheduled_micros,
                d.cutoff_micros,
                d.lookahead_buckets,
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for ContractViolation {}

/// How the node population is partitioned across shards.
///
/// The policy is *pluggable* (cf. the adaptive-middleware argument that the
/// partitioning decision should be swappable, not baked in): three built-in
/// strategies plus an arbitrary custom assignment function. Whatever the
/// policy, simulation results are bit-identical — the partition changes
/// which shard does the work, never the work itself.
#[derive(Clone)]
pub enum ShardPolicy {
    /// Node `i` lives on shard `i % shards`: spreads densely interacting
    /// neighbour ranges across shards (maximum balance, maximum cross-shard
    /// traffic).
    RoundRobin,
    /// Equal-size contiguous id ranges per shard (the default): keeps each
    /// shard's columns dense and its id range compact.
    Contiguous,
    /// Groups nodes of the same upload-capability class — the heterogeneity
    /// axis of the paper's bandwidth distributions — onto the same shard
    /// (stable sort by capacity, then contiguous equal-size split), so a
    /// shard's working set covers nodes with similar queueing behaviour.
    ByCapacityClass,
    /// A custom assignment: `f(n, shards, capacities)` returns the shard of
    /// every node (`len() == n`, entries `< shards`). Must be deterministic
    /// for reproducible runs.
    Custom(fn(usize, usize, &[UploadCapacity]) -> Vec<u32>),
}

impl fmt::Debug for ShardPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardPolicy::RoundRobin => f.write_str("RoundRobin"),
            ShardPolicy::Contiguous => f.write_str("Contiguous"),
            ShardPolicy::ByCapacityClass => f.write_str("ByCapacityClass"),
            ShardPolicy::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

impl ShardPolicy {
    /// Resolves the policy into one group id per node (`n` entries, each
    /// `< shards`).
    ///
    /// Public because the grouping is useful beyond sharding itself: the
    /// fault-injection layer derives *region* groups for
    /// [`FaultPlan`] partitions and correlated
    /// crashes from the same policies, independently of how many shards the
    /// simulation actually runs on (so a faulted run stays bit-identical
    /// across engine configurations).
    pub fn assign(&self, n: usize, shards: usize, capacities: &[UploadCapacity]) -> Vec<u32> {
        assert!(shards >= 1, "need at least one shard");
        match self {
            ShardPolicy::RoundRobin => (0..n).map(|i| (i % shards) as u32).collect(),
            ShardPolicy::Contiguous => contiguous_split(n, shards, (0..n as u32).collect()),
            ShardPolicy::ByCapacityClass => {
                let mut order: Vec<u32> = (0..n as u32).collect();
                // Stable: ids stay ascending within one capacity class.
                order.sort_by_key(|&i| capacity_key(capacities.get(i as usize)));
                contiguous_split(n, shards, order)
            }
            ShardPolicy::Custom(f) => {
                let assignment = f(n, shards, capacities);
                assert_eq!(
                    assignment.len(),
                    n,
                    "custom shard policy must assign every node"
                );
                assert!(
                    assignment.iter().all(|&s| (s as usize) < shards),
                    "custom shard policy assigned a shard out of range"
                );
                assignment
            }
        }
    }
}

/// Sort key of [`ShardPolicy::ByCapacityClass`]: capped upload rate in bps,
/// with unconstrained nodes sorting last as one class.
fn capacity_key(capacity: Option<&UploadCapacity>) -> u64 {
    match capacity {
        Some(UploadCapacity::Limited(b)) => b.as_bps(),
        _ => u64::MAX,
    }
}

/// Assigns the nodes listed in `order` to shards in equal-size contiguous
/// runs (the first `n % shards` shards take one extra node).
fn contiguous_split(n: usize, shards: usize, order: Vec<u32>) -> Vec<u32> {
    let base = n / shards;
    let rem = n % shards;
    let mut out = vec![0u32; n];
    let mut pos = 0usize;
    for s in 0..shards {
        let size = base + usize::from(s < rem);
        for _ in 0..size {
            out[order[pos] as usize] = s as u32;
            pos += 1;
        }
    }
    out
}

/// The resolved partition: node → shard, node → shard-local index, and the
/// member list (global ids, ascending) of every shard.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    /// Shard of every node, indexed by global id.
    pub(crate) shard_of: Vec<u32>,
    /// Shard-local index of every node, indexed by global id. Shared with
    /// every shard's state (read-only) so event dispatch can map the global
    /// ids carried by queue events without going through the plan.
    pub(crate) local_of: Arc<Vec<u32>>,
    /// Global ids per shard, in ascending id order (the local index space).
    pub(crate) members: Vec<Vec<u32>>,
}

impl ShardPlan {
    fn new(assignment: Vec<u32>, shards: usize) -> Self {
        let n = assignment.len();
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); shards];
        let mut local_of = vec![0u32; n];
        for (i, &s) in assignment.iter().enumerate() {
            let list = &mut members[s as usize];
            local_of[i] = list.len() as u32;
            list.push(i as u32);
        }
        ShardPlan {
            shard_of: assignment,
            local_of: Arc::new(local_of),
            members,
        }
    }
}

/// The exchange ordering key of one deferred command: the `(time, seq)` pair
/// of the *triggering* event — the same packed order the calendar buckets
/// sort by — extended by the command's position within its callback. Sorting
/// all shards' mailbox entries by this key reproduces the flat core's global
/// command order exactly (callbacks run in ascending `(time, seq)` event
/// order; commands within one callback run in issue order).
///
/// For `on_start` callbacks, which no event triggers, `trigger_seq` is the
/// node's global index — the flat core's `start_all` iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ExchangeKey {
    /// Virtual time of the triggering event, in microseconds.
    time_micros: u64,
    /// Global sequence number of the triggering event.
    trigger_seq: u64,
    /// Command position within the triggering callback.
    cmd: u32,
}

/// One deferred command awaiting the bucket-boundary exchange.
#[derive(Debug)]
enum OutEntry<M> {
    /// A `Context::send` whose upload-queue pass was already applied
    /// shard-side; the exchange draws loss and latency and schedules the
    /// delivery.
    Deliver {
        /// Exchange ordering key.
        key: ExchangeKey,
        /// When the message leaves the sender's upload queue.
        departure: SimTime,
        /// The sending node.
        from: NodeId,
        /// The destination node.
        to: NodeId,
        /// The message.
        msg: M,
    },
    /// A `Context::set_timer` whose slot was already armed shard-side; the
    /// exchange assigns the sequence number and schedules the fire event.
    Timer {
        /// Exchange ordering key.
        key: ExchangeKey,
        /// When the timer fires.
        fire: SimTime,
        /// The owning node (routes the event to its shard).
        node: NodeId,
        /// The armed timer's handle.
        timer: TimerId,
        /// The protocol tag the timer was armed with — carried so a
        /// contract violation can name the offending timer.
        tag: u64,
    },
}

impl<M> OutEntry<M> {
    fn key(&self) -> ExchangeKey {
        match self {
            OutEntry::Deliver { key, .. } | OutEntry::Timer { key, .. } => *key,
        }
    }
}

/// A shard's fixed-capacity outbox: commands deferred until the next
/// exchange. Preallocated once; exceeding the capacity is not an error (the
/// buffer grows and the high-water mark records it), but steady state never
/// allocates.
#[derive(Debug)]
pub(crate) struct Mailbox<M> {
    entries: Vec<OutEntry<M>>,
    high_water: usize,
}

impl<M> Mailbox<M> {
    fn with_capacity(capacity: usize) -> Self {
        Mailbox {
            entries: Vec::with_capacity(capacity),
            high_water: 0,
        }
    }

    fn push(&mut self, entry: OutEntry<M>) {
        self.entries.push(entry);
        self.high_water = self.high_water.max(self.entries.len());
    }
}

/// Events and statistics routed *to* one shard by an exchange, applied by
/// the shard itself (so the threaded mode's coordinator never needs mutable
/// access to another thread's shard).
#[derive(Debug)]
struct Inbox<M> {
    /// `(time, global seq, event)` triples, in ascending seq order — the
    /// push order [`EventQueue::push_at_seq`] requires.
    pushes: Vec<(SimTime, u64, EventKind<M>)>,
    /// Shard-local ids of senders whose message the network dropped.
    losses: Vec<u32>,
}

impl<M> Inbox<M> {
    fn with_capacity(capacity: usize) -> Self {
        Inbox {
            pushes: Vec::with_capacity(capacity),
            losses: Vec::new(),
        }
    }
}

/// Everything one shard owns except its protocol instances, in
/// struct-of-arrays form over the *shard-local* index space. The split from
/// the protocols mirrors the flat core's `Core`/protocol seam: a callback
/// borrows its protocol from `Shard::protocols` while the [`Context`] holds
/// this state.
pub(crate) struct ShardState<M> {
    /// The shard's calendar queue, holding exactly its members' events under
    /// globally assigned sequence numbers.
    pub(crate) queue: EventQueue<EventKind<M>>,
    /// The shard clock: the time of the event being processed.
    pub(crate) now: SimTime,
    /// The shard's timer slots (timers never cross shards).
    pub(crate) timers: TimerTable,
    /// Traffic counters over the local index space; merged under global ids
    /// at the end of a run.
    pub(crate) stats: NetStats,
    /// Per-member upload queues, locally indexed.
    pub(crate) uploads: Vec<UploadQueue>,
    /// Per-member deterministic RNG streams (`stream_rng(seed, 1 + global
    /// id)`, exactly the flat core's streams), locally indexed.
    pub(crate) rngs: Vec<SmallRng>,
    /// Per-member liveness, locally indexed.
    pub(crate) alive: Vec<bool>,
    /// Commands deferred to the next exchange.
    pub(crate) outbox: Mailbox<M>,
    /// Global id → shard-local index (shared, read-only).
    pub(crate) local_of: Arc<Vec<u32>>,
    /// The fault-injection schedule (read-only; each shard holds a clone so
    /// the threaded mode needs no sharing protocol). Only the diurnal cycle
    /// is consulted shard-side — at the enqueue instant, which both engines
    /// evaluate at the same trigger time.
    pub(crate) fault: FaultPlan,
    /// Fire times (µs) of timer events routed into this shard's queue, a
    /// min-heap. Feeds the window drivers' pending-timer clamp; entries are
    /// pruned lazily against the queue front (a fire time behind the front
    /// has been popped). Only maintained when the lookahead spans more than
    /// one bucket — with `k = 1` the clamp is provably vacuous.
    timer_fires: BinaryHeap<Reverse<u64>>,
    /// Whether [`ShardState::timer_fires`] is maintained (`lookahead > 1`).
    track_timer_fires: bool,
}

impl<M> ShardState<M> {
    /// Records this shard's substrate components into `f` under the same
    /// labels as the flat core, so per-shard contributions sum in place
    /// (see [`MemoryFootprint::record`]).
    fn record_footprint(&self, f: &mut MemoryFootprint) {
        use std::mem::size_of;
        f.record("net stats columns", self.stats.heap_bytes());
        let pending = (self.queue.len() * size_of::<Event<M>>()) as u64;
        f.record("pending events", pending);
        f.record("event queue slack", self.queue.retained_bytes() - pending);
        f.record(
            "upload queues",
            (self.uploads.capacity() * size_of::<UploadQueue>()) as u64,
        );
        f.record(
            "node rng streams",
            (self.rngs.capacity() * size_of::<SmallRng>()) as u64,
        );
        f.record("liveness flags", self.alive.capacity() as u64);
        f.record("timer slots", self.timers.heap_bytes());
    }

    /// The earliest pending timer-fire time in this shard's queue, in µs
    /// (`u64::MAX` when none is pending or tracking is off). Prunes fire
    /// times the queue has already popped past. The bound is exact up to
    /// cancelled timers, whose fire events still occupy the queue and so
    /// still bound the front conservatively.
    fn timer_floor(&mut self) -> u64 {
        if !self.track_timer_fires {
            return u64::MAX;
        }
        let Some(front) = self.queue.peek_time() else {
            self.timer_fires.clear();
            return u64::MAX;
        };
        let front_us = front.as_micros();
        while let Some(&Reverse(t)) = self.timer_fires.peek() {
            if t < front_us {
                self.timer_fires.pop();
            } else {
                return t;
            }
        }
        u64::MAX
    }
}

impl<M: WireSize> ShardState<M> {
    /// The shard-side half of the transmit path: the upload-queue pass and
    /// sender statistics run eagerly (they touch only this shard's columns);
    /// the loss/latency draws and the event push — which need the global
    /// network RNG and sequence stream — are deferred to the exchange under
    /// the command's [`ExchangeKey`].
    pub(crate) fn transmit_local(
        &mut self,
        from: NodeId,
        local: u32,
        to: NodeId,
        msg: M,
        trigger_seq: u64,
        cmd: u32,
    ) {
        let bytes = msg.wire_size();
        let now = self.now;
        let lid = NodeId::new(local);
        let upload = &mut self.uploads[local as usize];
        let departure = match self.fault.bandwidth_scale(now) {
            None => upload.enqueue_if_accepted(now, bytes),
            Some(scale) => upload.enqueue_if_accepted_scaled(now, bytes, scale),
        };
        let Some(departure) = departure else {
            // Finite send buffer: the message is dropped at the sender.
            self.stats.record_queue_drop(lid);
            return;
        };
        self.stats.record_send(lid, bytes);
        self.stats.total_queueing_delay += departure - now;
        self.outbox.push(OutEntry::Deliver {
            key: ExchangeKey {
                time_micros: now.as_micros(),
                trigger_seq,
                cmd,
            },
            departure,
            from,
            to,
            msg,
        });
    }

    /// The shard-side half of `set_timer`: the slot is armed immediately (so
    /// the returned [`TimerId`] is live and cancellable within the same
    /// callback), the fire event is deferred to the exchange.
    pub(crate) fn arm_timer_local(
        &mut self,
        node: NodeId,
        tag: u64,
        delay: SimDuration,
        trigger_seq: u64,
        cmd: u32,
    ) -> TimerId {
        let id = self.timers.arm(node, tag);
        self.outbox.push(OutEntry::Timer {
            key: ExchangeKey {
                time_micros: self.now.as_micros(),
                trigger_seq,
                cmd,
            },
            fire: self.now + delay,
            node,
            timer: id,
            tag,
        });
        id
    }
}

/// One shard: its protocol instances plus its [`ShardState`].
struct Shard<P: Protocol> {
    /// Protocol instances, indexed by shard-local index.
    protocols: Vec<P>,
    state: ShardState<P::Message>,
    /// Reusable batch buffer; capacity is recycled through the queue's
    /// bucket storage via `mem::swap`.
    batch: Vec<Event<P::Message>>,
}

impl<P: Protocol> Shard<P> {
    /// Processes every pending event with `time <= cutoff` (the current
    /// bucket, possibly truncated by a run deadline) in ascending
    /// `(time, seq)` order — the restriction of the flat core's global order
    /// to this shard. Returns the number of events processed.
    ///
    /// This drains whole calendar buckets ([`EventQueue::drain_bucket`]),
    /// exactly like the flat engine's loop but without its intrusion
    /// merging: shard callbacks defer every push to the exchange outbox, so
    /// the shard queue cannot change while a batch is outstanding
    /// (asserted). The cutoff lands on a calendar-bucket boundary except
    /// when truncated by a run deadline, in which case the straddling bucket
    /// falls back to single pops.
    fn run_bucket(&mut self, cutoff: SimTime) -> u64 {
        let mut processed = 0;
        let mut batch = std::mem::take(&mut self.batch);
        debug_assert!(batch.is_empty());
        while self.state.queue.drain_bucket(Some(cutoff), &mut batch) {
            while let Some(ev) = batch.pop() {
                self.state.now = ev.time;
                processed += 1;
                processed += self.dispatch(ev.seq, ev.payload, &mut batch);
            }
            debug_assert!(
                !self.state.queue.drain_intruded(),
                "shard callbacks defer pushes to the exchange"
            );
            self.state.queue.finish_drain();
        }
        self.batch = batch;
        // Single pops for the deadline-straddling remainder.
        while let Some(ev) = self.state.queue.pop_at_or_before(cutoff) {
            self.state.now = ev.time;
            processed += 1;
            processed += self.dispatch(ev.seq, ev.payload, &mut Vec::new());
        }
        processed
    }

    /// Dispatches one event; same-tick delivery runs extend from `batch`
    /// (empty on the single-pop path, where every delivery is its own run).
    /// Returns the number of *additional* events consumed.
    #[inline]
    fn dispatch(
        &mut self,
        seq: u64,
        payload: EventKind<P::Message>,
        batch: &mut Vec<Event<P::Message>>,
    ) -> u64 {
        match payload {
            EventKind::Deliver { from, to, msg } => self.deliver_run(seq, from, to, msg, batch),
            EventKind::Timer { timer } => {
                // Firing always frees the slot; a cancelled (or stale)
                // timer is simply not delivered.
                if let Some((node, tag)) = self.state.timers.fire(timer) {
                    let local = self.state.local_of[node.index()];
                    if self.state.alive[local as usize] {
                        let mut ctx = Context::shard(node, local, seq, &mut self.state);
                        self.protocols[local as usize].on_timer(&mut ctx, timer, tag);
                    }
                }
                0
            }
            EventKind::Crash { node } => {
                let local = self.state.local_of[node.index()] as usize;
                if self.state.alive[local] {
                    self.state.alive[local] = false;
                    self.protocols[local].on_crash(self.state.now);
                }
                0
            }
        }
    }

    /// The shard counterpart of the flat core's batched delivery run: drains
    /// every same-tick delivery to `to` pending *at the batch tail* into one
    /// callback context. Run grouping may therefore differ from the flat
    /// core — events of other shards' nodes no longer interleave, and the
    /// straddling single pops never group — but activation
    /// boundaries are invisible to protocols and the batched statistics sum
    /// identically, so the difference is unobservable; the per-command
    /// exchange keys are re-anchored on each extension's own event
    /// ([`Context::retrigger`]) so the global command order is preserved
    /// exactly. Returns the number of *additional* events consumed beyond
    /// the first.
    fn deliver_run(
        &mut self,
        trigger_seq: u64,
        from: NodeId,
        to: NodeId,
        msg: P::Message,
        batch: &mut Vec<Event<P::Message>>,
    ) -> u64 {
        let local = self.state.local_of[to.index()] as usize;
        let now = self.state.now;
        if !self.state.alive[local] {
            // Drain the dead-destination run without a context.
            let mut count = 1u64;
            while extends_run(batch.last(), now, to) {
                let _ = batch.pop();
                count += 1;
            }
            self.state
                .stats
                .record_to_dead_n(NodeId::new(local as u32), count);
            return count - 1;
        }
        let mut count = 1u64;
        let mut total_bytes = msg.wire_size() as u64;
        let protocol = &mut self.protocols[local];
        let mut ctx = Context::shard(to, local as u32, trigger_seq, &mut self.state);
        protocol.on_message(&mut ctx, from, msg);
        while extends_run(batch.last(), now, to) {
            let ev = batch.pop().expect("tail was checked");
            let EventKind::Deliver { from, msg, .. } = ev.payload else {
                unreachable!("run extension is a delivery");
            };
            ctx.retrigger(ev.seq);
            count += 1;
            total_bytes += msg.wire_size() as u64;
            protocol.on_message(&mut ctx, from, msg);
        }
        ctx.shard_state()
            .stats
            .record_deliveries(NodeId::new(local as u32), count, total_bytes);
        count - 1
    }

    /// Applies the events and loss records an exchange routed to this shard.
    /// The exchange is the only path by which timer-fire events enter a
    /// shard queue (`on_start` arms go through the cutoff-free start
    /// exchange; [`ShardedSim::schedule_crash`] pushes only crash events),
    /// so this is also where the pending-timer floor is fed.
    fn apply_inbox(&mut self, inbox: &mut Inbox<P::Message>) {
        for local in inbox.losses.drain(..) {
            self.state.stats.record_loss(NodeId::new(local));
        }
        for (time, seq, kind) in inbox.pushes.drain(..) {
            if self.state.track_timer_fires && matches!(kind, EventKind::Timer { .. }) {
                self.state.timer_fires.push(Reverse(time.as_micros()));
            }
            self.state.queue.push_at_seq(time, seq, kind);
        }
    }
}

/// The serial, globally ordered state of the sharded simulator: everything
/// the exchange touches between bucket rounds.
struct ExchangeState {
    /// The shared network RNG (loss and latency draws) — the same stream,
    /// consumed in the same order, as the flat core's `net_rng`.
    net_rng: SmallRng,
    loss: LossSampler,
    latency: LatencySampler,
    /// The fault-injection schedule; the exchange performs the partition
    /// check (a pure, draw-free predicate of the trigger time).
    fault: FaultPlan,
    /// The global sequence stream: the flat core's queue counter, assigned
    /// at exchange points instead of push sites.
    next_seq: u64,
    /// Determinism-contract violations (events scheduled inside the
    /// completed window) observed so far; checked at the end of every run
    /// call.
    violations: u64,
    /// The first offending command, latched for the [`ContractViolation`].
    first_violation: Option<ViolationDetail>,
    /// The lookahead width in calendar buckets, carried for violation
    /// reporting.
    lookahead_buckets: u64,
    /// Raw-word scratch for the bulk RNG path.
    raw_scratch: Vec<u64>,
    /// Pre-drawn latency samples for the current exchange.
    lat_batch: Vec<SimDuration>,
    /// Pre-drawn loss decisions for the current exchange.
    loss_batch: Vec<bool>,
}

/// Runs one exchange: merges the deferred commands, restores the flat
/// core's global command order by sorting on the [`ExchangeKey`]s, draws
/// loss/latency and assigns sequence numbers serially in that order, and
/// routes each resulting event to its destination shard's inbox.
///
/// A command scheduling an event at or before `cutoff` — inside the bucket
/// region the shards just completed — is a determinism-contract violation:
/// the flat core would have interleaved that event into the completed
/// region. It is counted (and still applied) rather than raised here, so
/// the threaded mode's barrier protocol cannot deadlock on an unwinding
/// coordinator; the drivers stop stepping at the breaching exchange and the
/// latched count becomes a [`ContractViolation`].
fn run_exchange<M, I>(
    exch: &mut ExchangeState,
    plan: &ShardPlan,
    merged: &mut Vec<OutEntry<M>>,
    inboxes: &mut [I],
    cutoff: Option<SimTime>,
) where
    I: DerefMut<Target = Inbox<M>>,
{
    merged.sort_unstable_by_key(|e| e.key());
    // Vectorized pre-draw: when the model combination keeps the RNG
    // stream order intact, all draws of this exchange are bulk-generated
    // through the lane-blocked samplers and the loop below just consumes
    // them. Exactly one sampler can draw per delivery without reordering:
    //
    // - lossless models draw nothing, so every surviving delivery's latency
    //   draw is next in stream order → batch all latency draws;
    // - constant latency draws nothing, so every non-blocked delivery's
    //   loss draw is next in stream order → batch all loss decisions
    //   (Gilbert–Elliott excluded: its per-sender state machine must see
    //   the decisions in order, and `is_lost_batch` refuses it);
    // - any other combination interleaves loss and latency draws per
    //   delivery → scalar fallback, draw for draw as before.
    //
    // Partition-blocked deliveries consume no randomness on either path, so
    // the batch covers exactly the non-blocked deliveries in merged order.
    let mut cursor = 0usize;
    let mut latency_batched = false;
    let mut loss_batched = false;
    if exch.loss.is_draw_free() || exch.latency.is_draw_free() {
        let n = merged
            .iter()
            .filter(|e| match e {
                OutEntry::Deliver { key, from, to, .. } => {
                    !exch
                        .fault
                        .blocks(SimTime::from_micros(key.time_micros), *from, *to)
                }
                OutEntry::Timer { .. } => false,
            })
            .count();
        if exch.loss.is_draw_free() {
            exch.latency.sample_batch(
                &mut exch.net_rng,
                n,
                &mut exch.raw_scratch,
                &mut exch.lat_batch,
            );
            latency_batched = true;
        } else {
            loss_batched = exch.loss.is_lost_batch(
                &mut exch.net_rng,
                n,
                &mut exch.raw_scratch,
                &mut exch.loss_batch,
            );
        }
    }
    for entry in merged.drain(..) {
        match entry {
            OutEntry::Deliver {
                key,
                departure,
                from,
                to,
                msg,
            } => {
                if exch
                    .fault
                    .blocks(SimTime::from_micros(key.time_micros), from, to)
                {
                    // Severed by an active partition epoch at the instant
                    // the flat core would have run this send: dropped like
                    // a loss, consuming no randomness and no sequence
                    // number.
                    inboxes[plan.shard_of[from.index()] as usize]
                        .losses
                        .push(plan.local_of[from.index()]);
                    continue;
                }
                let lost = if loss_batched {
                    let lost = exch.loss_batch[cursor];
                    cursor += 1;
                    lost
                } else {
                    exch.loss.is_lost(&mut exch.net_rng, from, to)
                };
                if lost {
                    // Lost messages consume no sequence number (the flat
                    // core never pushes them).
                    inboxes[plan.shard_of[from.index()] as usize]
                        .losses
                        .push(plan.local_of[from.index()]);
                    continue;
                }
                let latency = if latency_batched {
                    let latency = exch.lat_batch[cursor];
                    cursor += 1;
                    latency
                } else {
                    exch.latency.sample(&mut exch.net_rng)
                };
                let arrival = departure + latency;
                if cutoff.is_some_and(|c| arrival <= c) {
                    exch.violations += 1;
                    if exch.first_violation.is_none() {
                        exch.first_violation = Some(ViolationDetail {
                            node: from,
                            timer_tag: None,
                            scheduled_micros: arrival.as_micros(),
                            cutoff_micros: cutoff.expect("checked above").as_micros(),
                            lookahead_buckets: exch.lookahead_buckets,
                        });
                    }
                }
                let seq = exch.next_seq;
                exch.next_seq += 1;
                inboxes[plan.shard_of[to.index()] as usize].pushes.push((
                    arrival,
                    seq,
                    EventKind::Deliver { from, to, msg },
                ));
            }
            OutEntry::Timer {
                fire,
                node,
                timer,
                tag,
                ..
            } => {
                if cutoff.is_some_and(|c| fire <= c) {
                    exch.violations += 1;
                    if exch.first_violation.is_none() {
                        exch.first_violation = Some(ViolationDetail {
                            node,
                            timer_tag: Some(tag),
                            scheduled_micros: fire.as_micros(),
                            cutoff_micros: cutoff.expect("checked above").as_micros(),
                            lookahead_buckets: exch.lookahead_buckets,
                        });
                    }
                }
                let seq = exch.next_seq;
                exch.next_seq += 1;
                inboxes[plan.shard_of[node.index()] as usize].pushes.push((
                    fire,
                    seq,
                    EventKind::Timer { timer },
                ));
            }
        }
    }
}

/// The sharded simulation engine behind
/// [`Simulator`](crate::sim::Simulator); see the [module docs](self).
pub(crate) struct ShardedSim<P: Protocol> {
    shards: Vec<Shard<P>>,
    plan: ShardPlan,
    exchange: ExchangeState,
    /// Reusable merge buffer for the exchange sort.
    merged: Vec<OutEntry<P::Message>>,
    /// Reusable per-shard routing buffers.
    inboxes: Vec<Inbox<P::Message>>,
    /// Per-shard statistics merged under global ids; refreshed at the end of
    /// every run call.
    stats_cache: NetStats,
    now: SimTime,
    n: usize,
}

impl<P: Protocol> ShardedSim<P> {
    /// Builds the sharded simulator from the builder's configuration,
    /// constructing protocol instances in global id order (exactly the flat
    /// core's construction order) and running every `on_start` at time zero.
    pub(crate) fn build<F>(builder: SimulatorBuilder, mut make_node: F) -> Self
    where
        F: FnMut(NodeId) -> P,
    {
        let n = builder.n;
        let nshards = builder.shards;
        let latency = LatencySampler::new(&builder.latency);
        assert!(
            latency.min_delay().as_micros() >= BUCKET_WIDTH_MICROS,
            "sharded simulation requires the latency model's minimum delay (the conservative \
             lookahead bound) to span at least one calendar bucket ({BUCKET_WIDTH_MICROS} us); \
             the configured model can deliver after {:?}",
            latency.min_delay()
        );
        // The exchange cadence: windows of `k` calendar buckets, where the
        // minimum link latency guarantees nothing sent inside a window can
        // arrive inside it.
        let lookahead_buckets = (latency.min_delay().as_micros() / BUCKET_WIDTH_MICROS).max(1);
        let assignment = builder.shard_policy.assign(n, nshards, &builder.capacities);
        let plan = ShardPlan::new(assignment, nshards);

        // Protocol construction in global id order, then distribution.
        let mut protos: Vec<Option<P>> = (0..n)
            .map(|i| Some(make_node(NodeId::new(i as u32))))
            .collect();
        let mut shards: Vec<Shard<P>> = Vec::with_capacity(nshards);
        for members in &plan.members {
            let local_n = members.len();
            let mailbox_capacity = builder
                .mailbox_capacity
                .unwrap_or_else(|| (8 * local_n).max(1024));
            let protocols: Vec<P> = members
                .iter()
                .map(|&g| {
                    protos[g as usize]
                        .take()
                        .expect("each node joins one shard")
                })
                .collect();
            let uploads: Vec<UploadQueue> = members
                .iter()
                .map(|&g| {
                    let mut upload = UploadQueue::new(builder.capacities[g as usize]);
                    upload.set_max_backlog(builder.queue_limit);
                    upload
                })
                .collect();
            let rngs: Vec<SmallRng> = members
                .iter()
                .map(|&g| stream_rng(builder.seed, 1 + g as u64))
                .collect();
            shards.push(Shard {
                protocols,
                batch: Vec::new(),
                state: ShardState {
                    queue: EventQueue::new(),
                    now: SimTime::ZERO,
                    timers: TimerTable::default(),
                    stats: NetStats::new(local_n),
                    uploads,
                    rngs,
                    alive: vec![true; local_n],
                    outbox: Mailbox::with_capacity(mailbox_capacity),
                    local_of: Arc::clone(&plan.local_of),
                    fault: builder.fault.clone(),
                    timer_fires: BinaryHeap::new(),
                    track_timer_fires: lookahead_buckets > 1,
                },
            });
        }

        let inboxes = shards
            .iter()
            .map(|s| Inbox::with_capacity(s.state.outbox.entries.capacity()))
            .collect();
        let mut sim = ShardedSim {
            shards,
            plan,
            exchange: ExchangeState {
                net_rng: stream_rng(builder.seed, 0),
                loss: LossSampler::new(&builder.loss, n),
                latency,
                fault: builder.fault,
                next_seq: 0,
                violations: 0,
                first_violation: None,
                lookahead_buckets,
                raw_scratch: Vec::new(),
                lat_batch: Vec::new(),
                loss_batch: Vec::new(),
            },
            merged: Vec::new(),
            inboxes,
            stats_cache: NetStats::new(n),
            now: SimTime::ZERO,
            n,
        };
        sim.start_all();
        // Correlated crashes from the fault plan, scheduled at the same
        // logical instant as the flat engine's (right after the start round)
        // so both engines assign them identical global sequence numbers.
        for epoch in sim.exchange.fault.crashes().to_vec() {
            for node in epoch.nodes {
                sim.schedule_crash(node, epoch.at);
            }
        }
        sim
    }

    /// Runs every node's `on_start` in global id order — the flat core's
    /// `start_all` order — then exchanges the deferred commands under
    /// `(node index, command index)` keys (no cutoff: nothing has been
    /// processed, so even sub-bucket timer phases are in-contract here).
    fn start_all(&mut self) {
        for g in 0..self.n as u32 {
            let id = NodeId::new(g);
            let s = self.plan.shard_of[g as usize] as usize;
            let local = self.plan.local_of[g as usize];
            let shard = &mut self.shards[s];
            let mut ctx = Context::shard(id, local, g as u64, &mut shard.state);
            shard.protocols[local as usize].on_start(&mut ctx);
        }
        self.collect_and_exchange(None);
        self.refresh_stats();
    }

    /// The earliest pending event time across all shards.
    fn next_event_time(&self) -> Option<SimTime> {
        self.shards
            .iter()
            .filter_map(|s| s.state.queue.peek_time())
            .min()
    }

    /// Merges every shard's outbox, exchanges, and routes the results back
    /// into the shard queues (sequential mode).
    fn collect_and_exchange(&mut self, cutoff: Option<SimTime>) {
        let merged = &mut self.merged;
        for shard in &mut self.shards {
            merged.append(&mut shard.state.outbox.entries);
        }
        let mut inbox_refs: Vec<&mut Inbox<P::Message>> = self.inboxes.iter_mut().collect();
        run_exchange(
            &mut self.exchange,
            &self.plan,
            merged,
            &mut inbox_refs,
            cutoff,
        );
        for (shard, inbox) in self.shards.iter_mut().zip(self.inboxes.iter_mut()) {
            shard.apply_inbox(inbox);
        }
    }

    /// The exchange-window cutoff for a round whose earliest pending event
    /// is at `next_us`: the end of that event's bucket, extended by the
    /// remaining `k - 1` buckets of latency lookahead, clamped to the end
    /// of the bucket holding the earliest pending timer fire (timer
    /// callbacks may re-arm with delays as short as one bucket) and to the
    /// run deadline. With `k = 1` this is exactly the pre-widening
    /// single-bucket cutoff; the timer clamp is provably vacuous there
    /// (a pending fire time is never earlier than `next_us`) and skipped.
    fn window_cutoff(next_us: u64, k: u64, timer_floor: u64, deadline_us: u64) -> u64 {
        let mut cutoff = (next_us | (BUCKET_WIDTH_MICROS - 1))
            .saturating_add((k - 1).saturating_mul(BUCKET_WIDTH_MICROS));
        if k > 1 {
            cutoff = cutoff.min(timer_floor | (BUCKET_WIDTH_MICROS - 1));
        }
        cutoff.min(deadline_us)
    }

    /// The sequential window-stepping driver: find the next populated
    /// bucket, let every shard drain its slice of the lookahead window,
    /// exchange, repeat.
    fn run_sequential(&mut self, deadline: Option<SimTime>) -> u64 {
        let mut processed = 0;
        let k = self.exchange.lookahead_buckets;
        let deadline_us = deadline.map_or(u64::MAX, |d| d.as_micros());
        while let Some(next) = self.next_event_time() {
            if next.as_micros() > deadline_us {
                break;
            }
            let timer_floor = if k > 1 {
                self.shards
                    .iter_mut()
                    .map(|s| s.state.timer_floor())
                    .min()
                    .unwrap_or(u64::MAX)
            } else {
                u64::MAX
            };
            let cutoff = SimTime::from_micros(Self::window_cutoff(
                next.as_micros(),
                k,
                timer_floor,
                deadline_us,
            ));
            for shard in &mut self.shards {
                processed += shard.run_bucket(cutoff);
            }
            self.collect_and_exchange(Some(cutoff));
            if self.exchange.violations > 0 {
                // Determinism contract breached: results can no longer match
                // the flat core, so stop stepping and let the caller see the
                // latched violation instead of compounding the divergence.
                break;
            }
        }
        processed
    }

    /// The shard-per-core driver: scoped threads step all shards' buckets
    /// concurrently; thread 0 doubles as the exchange coordinator between
    /// two barriers. The barrier protocol (store next-event times → barrier
    /// → agree on the bucket → run it → publish outboxes → barrier →
    /// serial exchange → barrier → apply own inbox) makes every thread take
    /// identical control-flow decisions from identical data, so the result
    /// is bit-identical to the sequential driver.
    fn run_threaded(&mut self, deadline: Option<SimTime>) -> u64
    where
        P: Send,
        P::Message: Send,
    {
        if self.shards.len() <= 1 {
            return self.run_sequential(deadline);
        }
        let deadline_us = deadline.map_or(u64::MAX, |d| d.as_micros());
        let k = self.exchange.lookahead_buckets;
        let nshards = self.shards.len();
        let barrier = Barrier::new(nshards);
        let next_times: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(u64::MAX)).collect();
        // Published per-shard pending-timer floors: every thread reads all
        // of them after the same barrier, so all compute the identical
        // window cutoff.
        let timer_floors: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(u64::MAX)).collect();
        let outbox_slots: Vec<Mutex<Vec<OutEntry<P::Message>>>> =
            (0..nshards).map(|_| Mutex::new(Vec::new())).collect();
        let inbox_slots: Vec<Mutex<Inbox<P::Message>>> = std::mem::take(&mut self.inboxes)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let total = AtomicU64::new(0);
        // Set by the coordinator when an exchange observes a contract
        // violation; every thread reads it after the post-exchange barrier,
        // so all threads break identically and no barrier deadlocks.
        let violated = AtomicBool::new(false);
        let plan = &self.plan;
        let mut coordinator = Some((&mut self.exchange, &mut self.merged));
        std::thread::scope(|scope| {
            for (i, shard) in self.shards.iter_mut().enumerate() {
                let mut coord = coordinator.take();
                let barrier = &barrier;
                let next_times = &next_times[..];
                let timer_floors = &timer_floors[..];
                let outbox_slots = &outbox_slots[..];
                let inbox_slots = &inbox_slots[..];
                let total = &total;
                let violated = &violated;
                scope.spawn(move || {
                    let mut processed = 0u64;
                    loop {
                        let t = shard
                            .state
                            .queue
                            .peek_time()
                            .map_or(u64::MAX, |t| t.as_micros());
                        next_times[i].store(t, Ordering::SeqCst);
                        if k > 1 {
                            timer_floors[i].store(shard.state.timer_floor(), Ordering::SeqCst);
                        }
                        barrier.wait();
                        let t_min = next_times
                            .iter()
                            .map(|a| a.load(Ordering::SeqCst))
                            .min()
                            .expect("at least one shard");
                        if t_min == u64::MAX || t_min > deadline_us {
                            break;
                        }
                        let timer_floor = if k > 1 {
                            timer_floors
                                .iter()
                                .map(|a| a.load(Ordering::SeqCst))
                                .min()
                                .expect("at least one shard")
                        } else {
                            u64::MAX
                        };
                        let cutoff = SimTime::from_micros(ShardedSim::<P>::window_cutoff(
                            t_min,
                            k,
                            timer_floor,
                            deadline_us,
                        ));
                        processed += shard.run_bucket(cutoff);
                        *outbox_slots[i].lock().expect("outbox slot") =
                            std::mem::take(&mut shard.state.outbox.entries);
                        barrier.wait();
                        if let Some((exch, merged)) = coord.as_mut() {
                            for slot in outbox_slots {
                                merged.append(&mut slot.lock().expect("outbox slot"));
                            }
                            let mut guards: Vec<_> = inbox_slots
                                .iter()
                                .map(|m| m.lock().expect("inbox slot"))
                                .collect();
                            run_exchange(exch, plan, merged, &mut guards, Some(cutoff));
                            if exch.violations > 0 {
                                violated.store(true, Ordering::SeqCst);
                            }
                        }
                        barrier.wait();
                        // Reclaim the (empty, capacity-preserving) outbox
                        // buffer and apply whatever the exchange routed here.
                        shard.state.outbox.entries =
                            std::mem::take(&mut *outbox_slots[i].lock().expect("outbox slot"));
                        shard.apply_inbox(&mut inbox_slots[i].lock().expect("inbox slot"));
                        if violated.load(Ordering::SeqCst) {
                            // Contract breached: every thread sees the flag
                            // after the same barrier and stops stepping.
                            break;
                        }
                    }
                    total.fetch_add(processed, Ordering::SeqCst);
                });
            }
        });
        self.inboxes = inbox_slots
            .into_iter()
            .map(|m| m.into_inner().expect("inbox lock"))
            .collect();
        total.into_inner()
    }

    /// Post-run bookkeeping shared by both drivers: advance the clocks and
    /// refresh the merged statistics. Contract violations observed by the
    /// exchanges stay latched in [`ExchangeState::violations`]; the run has
    /// already stopped stepping at the breaching exchange, and the caller
    /// surfaces the breach via [`ShardedSim::contract_violation`] (or the
    /// `Err` of `run_to_completion`) instead of a panic.
    fn finish_run(&mut self, deadline: Option<SimTime>) {
        if let Some(last) = self.shards.iter().map(|s| s.state.now).max() {
            self.now = self.now.max(last);
        }
        if self.exchange.violations == 0 {
            if let Some(d) = deadline {
                // Advance the clocks to the deadline even if the queues
                // drained early, so that subsequent scheduling is relative to
                // the requested time (the flat core does the same).
                if self.now < d {
                    self.now = d;
                }
                for shard in &mut self.shards {
                    if shard.state.now < d {
                        shard.state.now = d;
                    }
                }
            }
        }
        self.refresh_stats();
    }

    /// Rebuilds the merged network-wide statistics from the per-shard
    /// columns (exact: counter addition is commutative), reusing the cache
    /// buffer.
    fn refresh_stats(&mut self) {
        self.stats_cache.reset();
        for (s, shard) in self.shards.iter().enumerate() {
            for (local, &global) in self.plan.members[s].iter().enumerate() {
                self.stats_cache.add_node_stats(
                    NodeId::new(global),
                    &shard.state.stats.node(NodeId::new(local as u32)),
                );
            }
            self.stats_cache.total_queueing_delay += shard.state.stats.total_queueing_delay;
        }
    }

    // --- public surface (dispatched from `Simulator`) ----------------------

    pub(crate) fn run_until(&mut self, deadline: SimTime) -> u64 {
        let processed = self.run_sequential(Some(deadline));
        self.finish_run(Some(deadline));
        processed
    }

    pub(crate) fn run_to_completion(&mut self) -> Result<u64, ContractViolation> {
        let processed = self.run_sequential(None);
        self.finish_run(None);
        match self.contract_violation() {
            Some(v) => Err(v),
            None => Ok(processed),
        }
    }

    pub(crate) fn run_until_threaded(&mut self, deadline: SimTime) -> u64
    where
        P: Send,
        P::Message: Send,
    {
        let processed = self.run_threaded(Some(deadline));
        self.finish_run(Some(deadline));
        processed
    }

    pub(crate) fn run_to_completion_threaded(&mut self) -> Result<u64, ContractViolation>
    where
        P: Send,
        P::Message: Send,
    {
        let processed = self.run_threaded(None);
        self.finish_run(None);
        match self.contract_violation() {
            Some(v) => Err(v),
            None => Ok(processed),
        }
    }

    pub(crate) fn contract_violation(&self) -> Option<ContractViolation> {
        (self.exchange.violations > 0).then_some(ContractViolation {
            violations: self.exchange.violations,
            first: self.exchange.first_violation,
        })
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn len(&self) -> usize {
        self.n
    }

    pub(crate) fn shards(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn lookahead_buckets(&self) -> u64 {
        self.exchange.lookahead_buckets
    }

    pub(crate) fn mailbox_high_water(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.outbox.high_water)
            .max()
            .unwrap_or(0)
    }

    fn locate(&self, id: NodeId) -> (usize, usize) {
        (
            self.plan.shard_of[id.index()] as usize,
            self.plan.local_of[id.index()] as usize,
        )
    }

    pub(crate) fn is_alive(&self, id: NodeId) -> bool {
        let (s, l) = self.locate(id);
        self.shards[s].state.alive[l]
    }

    pub(crate) fn node(&self, id: NodeId) -> &P {
        let (s, l) = self.locate(id);
        &self.shards[s].protocols[l]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut P {
        let (s, l) = self.locate(id);
        &mut self.shards[s].protocols[l]
    }

    pub(crate) fn upload_queue(&self, id: NodeId) -> &UploadQueue {
        let (s, l) = self.locate(id);
        &self.shards[s].state.uploads[l]
    }

    pub(crate) fn stats(&self) -> &NetStats {
        &self.stats_cache
    }

    /// Records every shard's substrate components plus the engine-level
    /// merge buffers into `f` (see `Simulator::memory_footprint`).
    pub(crate) fn record_footprint(&self, f: &mut MemoryFootprint) {
        for shard in &self.shards {
            f.record(
                "protocol state",
                (shard.protocols.capacity() * std::mem::size_of::<P>()) as u64,
            );
            shard.state.record_footprint(f);
        }
        f.record("merged stats cache", self.stats_cache.heap_bytes());
    }

    pub(crate) fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        assert!(at >= self.now, "cannot schedule a crash in the past");
        // Serial context (between runs): assign the next global sequence
        // number directly, exactly where the flat core's push would.
        let seq = self.exchange.next_seq;
        self.exchange.next_seq += 1;
        let s = self.plan.shard_of[node.index()] as usize;
        self.shards[s]
            .state
            .queue
            .push_at_seq(at, seq, EventKind::Crash { node });
    }

    pub(crate) fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.state.queue.len()).sum()
    }

    pub(crate) fn armed_timers(&self) -> usize {
        self.shards.iter().map(|s| s.state.timers.armed()).sum()
    }

    pub(crate) fn timer_slots(&self) -> usize {
        self.shards.iter().map(|s| s.state.timers.capacity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::Bandwidth;

    fn caps(pattern: &[u64]) -> Vec<UploadCapacity> {
        pattern
            .iter()
            .map(|&kbps| {
                if kbps == 0 {
                    UploadCapacity::Unlimited
                } else {
                    UploadCapacity::Limited(Bandwidth::from_kbps(kbps))
                }
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_over_shards() {
        let a = ShardPolicy::RoundRobin.assign(7, 3, &caps(&[0; 7]));
        assert_eq!(a, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn contiguous_splits_evenly_with_remainder_up_front() {
        let a = ShardPolicy::Contiguous.assign(7, 3, &caps(&[0; 7]));
        assert_eq!(a, vec![0, 0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn by_capacity_class_groups_equal_capacities() {
        // Two capacity classes interleaved over six nodes, two shards: the
        // slow class must land on shard 0, the fast class on shard 1.
        let a =
            ShardPolicy::ByCapacityClass.assign(6, 2, &caps(&[512, 3000, 512, 3000, 512, 3000]));
        assert_eq!(a, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn custom_policy_is_validated_and_applied() {
        let a =
            ShardPolicy::Custom(|n, shards, _| (0..n).map(|i| ((i / 2) % shards) as u32).collect())
                .assign(6, 2, &caps(&[0; 6]));
        assert_eq!(a, vec![0, 0, 1, 1, 0, 0]);
        assert_eq!(format!("{:?}", ShardPolicy::Contiguous), "Contiguous");
        assert_eq!(
            format!("{:?}", ShardPolicy::Custom(|_, _, _| Vec::new())),
            "Custom(..)"
        );
    }

    #[test]
    #[should_panic(expected = "must assign every node")]
    fn custom_policy_must_cover_every_node() {
        let _ = ShardPolicy::Custom(|_, _, _| vec![0]).assign(3, 2, &caps(&[0; 3]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn custom_policy_must_stay_in_range() {
        let _ = ShardPolicy::Custom(|n, _, _| vec![9; n]).assign(3, 2, &caps(&[0; 3]));
    }

    #[test]
    fn plan_builds_dense_local_index_spaces() {
        let plan = ShardPlan::new(vec![1, 0, 1, 0, 1], 2);
        assert_eq!(plan.members[0], vec![1, 3]);
        assert_eq!(plan.members[1], vec![0, 2, 4]);
        assert_eq!(plan.local_of.as_slice(), &[0, 0, 1, 1, 2]);
        assert_eq!(plan.shard_of, vec![1, 0, 1, 0, 1]);
    }
}
