//! Several partitions: the window exchange that keeps them in the global
//! order of one.
//!
//! [`SimulatorBuilder::sharded`](crate::sim::SimulatorBuilder::sharded)
//! splits the node population into *partitions* (per a pluggable
//! [`ShardPolicy`]), each owning its own calendar queue, struct-of-arrays
//! node and statistics columns, upload queues and per-node RNG streams. They
//! run the simulator's one event loop and transmit path (`Partition::run`,
//! `PartState::transmit` in [`crate::sim`]) with the `Outbox` *sink*: the
//! sender-side half of a send applies at once, the rest waits in the
//! partition's **outbox**. They advance over *exchange windows* of `k`
//! calendar buckets ([`BUCKET_WIDTH_MICROS`] ≈ 1 ms of virtual time, `k =
//! floor(min_latency / bucket_width)`), one partition after another on one
//! thread, and synchronise only at window boundaries — conservative parallel
//! discrete-event simulation with the *minimum link latency* as the
//! lookahead bound.
//!
//! ## Why the result is bit-identical to one partition
//!
//! Within one window, events on different nodes are causally independent:
//! protocol callbacks touch only per-node state and per-node RNG streams,
//! and — under the determinism contract below — nothing a callback schedules
//! can fire before the window's cutoff. The only globally ordered resources
//! are the network RNG (loss and latency draws) and the event sequence
//! numbers that break `(time, seq)` ties, and those are exactly what the
//! outbox defers, keyed by `(trigger time, trigger seq, command index)` —
//! the `(offset, arrival)` total order the calendar buckets sort by,
//! extended to commands. At the window boundary the outboxes are merged,
//! sorted by that key and resolved *serially*: loss and latency are drawn
//! and global sequence numbers assigned in exactly the order one partition's
//! inline transmit path would have produced, then each resulting event is
//! pushed into its destination partition's queue
//! ([`EventQueue::push_at_seq`]). Every queue thus pops the restriction of
//! the global `(time, seq)` order to its members, every RNG stream is
//! consumed identically, and the per-partition statistics columns sum to one
//! partition's counters exactly — asserted by the cross-engine fingerprint
//! test and the shard differential proptests.
//!
//! ## The determinism contract (lookahead bound)
//!
//! Deferring command resolution to the window boundary is only equivalent
//! to resolving it on the spot if nothing scheduled *during* a window fires
//! *within* that window. The window cutoff is chosen so that holds
//! structurally for everything except pathological timer arms:
//!
//! * **link latency** — asserted at build time: the latency model's minimum
//!   delay must span at least one calendar bucket. A message sent at time
//!   `t` cannot arrive before `t + k·W`, which is provably past the cutoff
//!   `(first_bucket_end + (k-1)·W)`.
//! * **pending timers** — the cutoff is additionally clamped to the end of
//!   the bucket holding the *earliest pending timer fire* across all
//!   partitions (tracked per partition as the exchange routes fire events).
//!   A timer callback may arm follow-up timers with delays as short as one
//!   bucket; the clamp guarantees any such re-arm lands past the cutoff.
//!   With `k = 1` the clamp is vacuous (a pending event can never precede
//!   the first bucket) and is skipped.
//! * **timer delays armed from message handlers** — checked at every
//!   exchange: a timer whose fire time lands at or before the window cutoff
//!   is counted as a violation (one partition would have fired it inside
//!   the already-completed region; arming with at least the minimum link
//!   latency is always safe), the run stops stepping at that exchange, and
//!   the breach is surfaced as a [`ContractViolation`] naming the offending
//!   node, timer tag and the active lookahead.
//!
//! `on_start` callbacks are exempt: they run before any event exists, so
//! their commands (including sub-bucket random timer phases) are exchanged
//! before the first bucket is processed, in node order.
//!
//! ## What partitioning costs
//!
//! Partitioning splits a population; it is not a speed knob: the outbox,
//! the sort and the exchange are work one partition does not do. On the
//! 30 000-node, one-window scale-campaign shape (seed 42, medians of
//! alternated rounds, 2-core host) one partition takes 7.04 s, one
//! partition routed through the outbox 8.10 s (1.15×), two partitions
//! 8.82 s (1.25×). A shard-per-core threaded driver existed until it was
//! measured on the same shape — ten alternated pairs, 12.3 s against 7.4 s,
//! 0.61× the speed, behind in all ten — and was deleted with its barriers
//! and inboxes (`docs/SCALE.md` has the runs).
//!
//! [`EventQueue::push_at_seq`]: crate::event::EventQueue::push_at_seq

use crate::bandwidth::UploadCapacity;
use crate::event::BUCKET_WIDTH_MICROS;
use crate::node::NodeId;
use crate::sim::{EventKind, Net, PartState, Partition, Protocol, SimulatorBuilder, Sink, TimerId};
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::fmt;

/// A breach of the determinism contract of several partitions observed
/// during a run: one or more commands scheduled events inside an
/// already-completed exchange window (typically a message handler arming a
/// timer with a delay shorter than the lookahead), which one partition would
/// have interleaved into the region already processed.
///
/// Such a run stops stepping at the breaching exchange and latches the
/// violation
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

/// How the node population is partitioned across shards: three built-in
/// strategies plus an arbitrary custom assignment function (policy stays
/// data, the mechanism stays one). Whatever the policy, simulation results
/// are bit-identical — the partition changes which shard does the work,
/// never the work itself.
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
    /// fault-injection layer derives *region* groups for `FaultPlan`
    /// partitions and correlated crashes from the same policies,
    /// independently of how many partitions the simulation runs on.
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

/// The resolved partition: node → partition, node → column in that
/// partition, and the member list (global ids, ascending) of every
/// partition.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    /// Partition of every node, indexed by global id.
    shard_of: Vec<u32>,
    /// Column of every node within its partition, indexed by global id.
    pub(crate) local_of: Vec<u32>,
    /// Global ids per partition, in ascending id order (the column order).
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
            local_of,
            members,
        }
    }
}

/// The exchange ordering key of one deferred command: the `(time, seq)` pair
/// of the *triggering* event — the same packed order the calendar buckets
/// sort by — extended by the command's position within its callback. Sorting
/// all partitions' outbox entries by this key reproduces one partition's
/// global command order exactly. For `on_start` callbacks, which no event
/// triggers, `trigger_seq` is the node's global index — the start order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ExchangeKey {
    /// Virtual time of the triggering event, in microseconds.
    time_micros: u64,
    /// Global sequence number of the triggering event.
    trigger_seq: u64,
    /// Command position within the triggering callback.
    cmd: u32,
}

impl ExchangeKey {
    pub(crate) fn new(now: SimTime, trigger_seq: u64, cmd: u32) -> Self {
        ExchangeKey {
            time_micros: now.as_micros(),
            trigger_seq,
            cmd,
        }
    }
}

/// One deferred command awaiting the window exchange.
#[derive(Debug)]
pub(crate) enum OutEntry<M> {
    /// A `Context::send` whose upload-queue pass was already applied
    /// partition-side; the exchange draws loss and latency and schedules the
    /// delivery.
    Deliver {
        key: ExchangeKey,
        /// When the message leaves the sender's upload queue.
        departure: SimTime,
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    /// A `Context::set_timer` whose slot was already armed partition-side;
    /// the exchange assigns the sequence number and schedules the fire
    /// event.
    Timer {
        key: ExchangeKey,
        fire: SimTime,
        /// The owning node (routes the event to its partition).
        node: NodeId,
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

impl<M> PartState<M> {
    /// The earliest pending timer-fire time in this partition's queue, in µs
    /// (`u64::MAX` when none is pending or tracking is off). Prunes fire
    /// times the queue has already popped past (a fire time behind the
    /// queue front has been popped). The bound is exact up to cancelled
    /// timers, whose fire events still occupy the queue and so still bound
    /// the front conservatively.
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

/// Everything that exists only when the simulator has several partitions:
/// the partition tables, the exchange's buffers and latched contract
/// breaches, and the statistics merged under global ids.
pub(crate) struct Exchange<M> {
    pub(crate) plan: ShardPlan,
    /// Reusable merge buffer for the exchange sort.
    merged: Vec<OutEntry<M>>,
    /// Per-partition statistics merged under global ids; refreshed at the
    /// end of every run call ([`Exchange::refresh_stats`]).
    pub(crate) stats: NetStats,
    /// Determinism-contract violations (events scheduled inside the
    /// completed window) observed so far.
    violations: u64,
    /// The first offending command, latched for the [`ContractViolation`].
    first_violation: Option<ViolationDetail>,
    /// The lookahead width in calendar buckets.
    pub(crate) lookahead_buckets: u64,
    /// Raw-word scratch for the bulk RNG path.
    raw_scratch: Vec<u64>,
    /// Pre-drawn latency samples for the current exchange.
    lat_batch: Vec<SimDuration>,
    /// Pre-drawn loss decisions for the current exchange.
    loss_batch: Vec<bool>,
}

impl<M> Exchange<M> {
    /// Resolves the builder's partitioning for a latency model whose
    /// minimum delay is `min_delay`.
    ///
    /// # Panics
    ///
    /// Panics if `min_delay` is shorter than one calendar bucket.
    pub(crate) fn new(builder: &SimulatorBuilder, min_delay: SimDuration) -> Self {
        assert!(
            min_delay.as_micros() >= BUCKET_WIDTH_MICROS,
            "sharded simulation requires the latency model's minimum delay (the conservative \
             lookahead bound) to span at least one calendar bucket ({BUCKET_WIDTH_MICROS} us); \
             the configured model can deliver after {min_delay:?}"
        );
        let assignment =
            builder
                .shard_policy
                .assign(builder.n, builder.shards, &builder.capacities);
        Exchange {
            plan: ShardPlan::new(assignment, builder.shards),
            merged: Vec::new(),
            stats: NetStats::new(builder.n),
            violations: 0,
            first_violation: None,
            // The exchange cadence: windows of `k` calendar buckets, where
            // the minimum link latency guarantees nothing sent inside a
            // window can arrive inside it.
            lookahead_buckets: min_delay.as_micros() / BUCKET_WIDTH_MICROS,
            raw_scratch: Vec::new(),
            lat_batch: Vec::new(),
            loss_batch: Vec::new(),
        }
    }

    /// The partition and column holding `id`.
    pub(crate) fn locate(&self, id: NodeId) -> (usize, usize) {
        (
            self.plan.shard_of[id.index()] as usize,
            self.plan.local_of[id.index()] as usize,
        )
    }

    pub(crate) fn violation(&self) -> Option<ContractViolation> {
        (self.violations > 0).then_some(ContractViolation {
            violations: self.violations,
            first: self.first_violation,
        })
    }

    /// Rebuilds the merged network-wide statistics from the per-partition
    /// columns (exact: counter addition is commutative), reusing the cache
    /// buffer.
    pub(crate) fn refresh_stats<P: Protocol<Message = M>>(&mut self, parts: &[Partition<P>]) {
        self.stats.reset();
        for (members, part) in self.plan.members.iter().zip(parts) {
            for (local, &global) in members.iter().enumerate() {
                self.stats.add_node_stats(
                    NodeId::new(global),
                    &part.state.stats.node(NodeId::new(local as u32)),
                );
            }
            self.stats.total_queueing_delay += part.state.stats.total_queueing_delay;
        }
    }

    /// Counts a command that scheduled an event at or before the cutoff,
    /// latching the first one's details.
    fn record_violation(
        &mut self,
        node: NodeId,
        timer_tag: Option<u64>,
        scheduled: SimTime,
        cutoff: SimTime,
    ) {
        self.violations += 1;
        self.first_violation.get_or_insert(ViolationDetail {
            node,
            timer_tag,
            scheduled_micros: scheduled.as_micros(),
            cutoff_micros: cutoff.as_micros(),
            lookahead_buckets: self.lookahead_buckets,
        });
    }

    /// Runs one exchange: merges the partitions' outboxes, restores one
    /// partition's global command order by sorting on the [`ExchangeKey`]s,
    /// draws loss/latency and assigns sequence numbers serially in that
    /// order, and pushes each resulting event into its destination
    /// partition's queue — the only path by which timer-fire events enter a
    /// queue here, so also where the pending-timer floor is fed.
    ///
    /// A command scheduling an event at or before `cutoff` — inside the
    /// bucket region the partitions just completed — breaches the
    /// determinism contract. It is counted (and still applied) rather than
    /// raised here; the window driver stops stepping at the breaching
    /// exchange and the latched count becomes a [`ContractViolation`].
    pub(crate) fn exchange<P: Protocol<Message = M>>(
        &mut self,
        parts: &mut [Partition<P>],
        net: &mut Net,
        cutoff: Option<SimTime>,
    ) {
        let mut merged = std::mem::take(&mut self.merged);
        for part in parts.iter_mut() {
            merged.append(&mut part.state.outbox);
        }
        merged.sort_unstable_by_key(|e| e.key());
        // Vectorized pre-draw: when the model combination keeps the RNG
        // stream order intact, all draws of this exchange are bulk-generated
        // through the lane-blocked samplers and the loop below just consumes
        // them. Exactly one sampler can draw per delivery without reordering:
        // lossless models draw nothing, so the latency draws are consecutive
        // in the stream and batch; constant latency draws nothing, so the
        // loss draws batch (Gilbert–Elliott excluded: its per-sender state
        // machine must see the decisions in order, and `is_lost_batch`
        // refuses it); any other combination interleaves the two per
        // delivery and falls back to scalar draws. Partition-blocked
        // deliveries consume no randomness on either path, so the batch
        // covers exactly the non-blocked deliveries in merged order.
        let mut cursor = 0usize;
        let mut latency_batched = false;
        let mut loss_batched = false;
        if net.loss.is_draw_free() || net.latency.is_draw_free() {
            let n = merged
                .iter()
                .filter(|e| match e {
                    OutEntry::Deliver { key, from, to, .. } => {
                        !net.fault
                            .blocks(SimTime::from_micros(key.time_micros), *from, *to)
                    }
                    OutEntry::Timer { .. } => false,
                })
                .count();
            if net.loss.is_draw_free() {
                net.latency.sample_batch(
                    &mut net.rng,
                    n,
                    &mut self.raw_scratch,
                    &mut self.lat_batch,
                );
                latency_batched = true;
            } else {
                loss_batched = net.loss.is_lost_batch(
                    &mut net.rng,
                    n,
                    &mut self.raw_scratch,
                    &mut self.loss_batch,
                );
            }
        }
        for entry in merged.drain(..) {
            let (time, node, kind) = match entry {
                OutEntry::Deliver {
                    key,
                    departure,
                    from,
                    to,
                    msg,
                } => {
                    // Severed by an active partition epoch at the instant
                    // of the send, or lost: recorded against the sender,
                    // consuming no sequence number (one partition never
                    // pushes such a message) and, when severed, no
                    // randomness.
                    let sent = SimTime::from_micros(key.time_micros);
                    let lost = net.fault.blocks(sent, from, to)
                        || if loss_batched {
                            cursor += 1;
                            self.loss_batch[cursor - 1]
                        } else {
                            net.loss.is_lost(&mut net.rng, from, to)
                        };
                    if lost {
                        let (p, local) = self.locate(from);
                        parts[p].state.stats.record_loss(NodeId::new(local as u32));
                        continue;
                    }
                    let latency = if latency_batched {
                        cursor += 1;
                        self.lat_batch[cursor - 1]
                    } else {
                        net.latency.sample(&mut net.rng)
                    };
                    let arrival = departure + latency;
                    if let Some(cutoff) = cutoff.filter(|c| arrival <= *c) {
                        self.record_violation(from, None, arrival, cutoff);
                    }
                    (arrival, to, EventKind::Deliver { from, to, msg })
                }
                OutEntry::Timer {
                    fire,
                    node,
                    timer,
                    tag,
                    ..
                } => {
                    if let Some(cutoff) = cutoff.filter(|c| fire <= *c) {
                        self.record_violation(node, Some(tag), fire, cutoff);
                    }
                    (fire, node, EventKind::Timer { timer })
                }
            };
            let state = &mut parts[self.locate(node).0].state;
            if state.track_timer_fires && matches!(kind, EventKind::Timer { .. }) {
                state.timer_fires.push(Reverse(time.as_micros()));
            }
            state.queue.push_at_seq(time, net.take_seq(), kind);
        }
        self.merged = merged;
    }

    /// The window driver: find the next populated bucket, let every
    /// partition run its slice of the lookahead window, exchange, repeat.
    /// Returns the number of events processed.
    pub(crate) fn run_windows<P: Protocol<Message = M>>(
        &mut self,
        parts: &mut [Partition<P>],
        net: &mut Net,
        deadline: Option<SimTime>,
    ) -> u64 {
        let mut processed = 0;
        let lookahead_us = (self.lookahead_buckets - 1).saturating_mul(BUCKET_WIDTH_MICROS);
        let bucket_end = |us: u64| us | (BUCKET_WIDTH_MICROS - 1);
        let deadline_us = deadline.map_or(u64::MAX, |d| d.as_micros());
        while let Some(next) = parts
            .iter()
            .filter_map(|part| part.state.queue.peek_time())
            .min()
        {
            if next.as_micros() > deadline_us {
                break;
            }
            // The window ends with the bucket of the earliest pending event,
            // extended by the remaining `k - 1` buckets of latency
            // lookahead, clamped to the end of the bucket holding the
            // earliest pending timer fire (timer callbacks may re-arm with
            // delays as short as one bucket; untracked, hence no clamp, when
            // `k = 1`) and to the run deadline.
            let timer_floor = parts
                .iter_mut()
                .map(|part| part.state.timer_floor())
                .min()
                .unwrap_or(u64::MAX);
            let cutoff = bucket_end(next.as_micros())
                .saturating_add(lookahead_us)
                .min(bucket_end(timer_floor))
                .min(deadline_us);
            let cutoff = SimTime::from_micros(cutoff);
            for part in parts.iter_mut() {
                let mut sink = Sink::Outbox {
                    trigger_seq: 0,
                    cmd: 0,
                    local_of: &self.plan.local_of,
                };
                processed += part.run(Some(cutoff), &mut sink);
            }
            self.exchange(parts, net, Some(cutoff));
            if self.violations > 0 {
                // Determinism contract breached: results can no longer match
                // one partition's, so stop stepping and let the caller see
                // the latched violation instead of compounding the
                // divergence.
                break;
            }
        }
        processed
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
