//! The discrete-event simulator: protocol trait, context command surface and
//! the event loop.
//!
//! A [`Protocol`] implementation describes the behaviour of one node. The
//! [`Simulator`] hosts one protocol instance per node, delivers messages with
//! per-node upload throttling, link latency and loss, fires timers and
//! injects crashes. Protocol callbacks receive a [`Context`] with which they
//! can send messages, arm and cancel timers and draw deterministic per-node
//! randomness.
//!
//! ## The engine and its reference
//!
//! One production engine runs every simulation, in two forms:
//!
//! * **Flat** (the default) — one event loop over the whole population.
//!   Per-node state lives in struct-of-arrays form (protocol instances,
//!   upload queues, RNGs and liveness in separate dense vectors, the traffic
//!   counters column-wise in [`NetStats`]); context commands apply *eagerly*
//!   — `Context::send` runs the transmit path inline — and the loop drains a
//!   whole calendar bucket at a time ([`EventQueue::drain_bucket`]), handing
//!   same-tick deliveries to one node to a single callback context (one
//!   liveness check, one context activation and one statistics update per
//!   run instead of per message). Loss and latency sampling go through state
//!   compiled at build time ([`LatencySampler`](crate::latency),
//!   [`LossSampler`]).
//! * **Sharded** ([`SimulatorBuilder::sharded`], [`crate::shard`]) — the
//!   same loop per partition of the population, with a deterministic
//!   exchange at window boundaries.
//!
//! Beside it sits one whole-engine *reference*, reachable only through the
//! hidden [`SimulatorBuilder::reference_core`]: a [`BinaryHeapQueue`], one
//! popped event per callback activation, commands deferred to a buffer
//! allocated per callback and replayed after it returns, loss and latency
//! drawn through the models' own per-call paths ([`LatencyModel::sample`],
//! [`LossState::is_lost`]). It shares the transmit path, the timer table and
//! the statistics with the engine and nothing else, which is what makes it
//! an oracle: callback order, RNG consumption and results of every engine
//! form are asserted bit-identical to it (`tests/scheduler_core.rs` and the
//! differential suites beside it).

use crate::bandwidth::{UploadCapacity, UploadQueue};
use crate::event::{BinaryHeapQueue, EventQueue, ScheduledEvent};
use crate::fault::FaultPlan;
use crate::latency::{LatencyModel, LatencySampler};
use crate::loss::{LossModel, LossSampler, LossState};
use crate::node::NodeId;
use crate::rng::stream_rng;
use crate::shard::{ContractViolation, ShardPolicy};
use crate::stats::{MemoryFootprint, NetStats};
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;

/// Wire-size annotation for protocol messages.
///
/// The simulator needs to know how many bytes a message occupies on the wire
/// to model upload-bandwidth contention; protocols provide that through this
/// trait rather than through real serialisation, which keeps the hot loop
/// allocation-free.
pub trait WireSize {
    /// The number of bytes this message occupies on the wire, including any
    /// fixed per-message header overhead the protocol wants to account for.
    fn wire_size(&self) -> usize;
}

/// Identifier of a pending timer.
///
/// The id packs a *slot index* (low 32 bits) and a *generation stamp* (high
/// 32 bits): the simulator reuses timer slots once their event has fired, and
/// the generation lets it recognise stale handles — cancelling a timer that
/// already fired is an O(1) no-op and leaves no state behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(u64);

impl TimerId {
    /// The raw id value (slot in the low 32 bits, generation in the high 32).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    fn pack(slot: u32, generation: u32) -> Self {
        TimerId(((generation as u64) << 32) | slot as u64)
    }

    fn unpack(self) -> (u32, u32) {
        (self.0 as u32, (self.0 >> 32) as u32)
    }
}

/// Generation-stamped timer slots backing [`TimerId`].
///
/// Arming allocates a slot (reusing freed ones), cancelling disarms it in
/// O(1), and firing frees the slot and bumps its generation so stale handles
/// — in particular cancellations of timers that already fired — are
/// recognised and ignored without recording them anywhere. The table size is
/// bounded by the peak number of *concurrently pending* timers, not by the
/// number ever armed or cancelled (the previous `HashSet<u64>` of cancelled
/// ids leaked an entry for every cancel-after-fire).
///
/// The slot also stores the timer's owning node and user tag. Both are fixed
/// at arm time and needed exactly once, at the fire site — and the fire path
/// touches the slot anyway for the generation check — so keeping them here
/// shrinks the queued `Timer` event to a bare [`TimerId`]. Smaller queue
/// entries mean less memory traffic in the (cache-bound) event loop; the
/// `Timer` variant previously inflated *every* queue slot of a
/// small-message protocol, because an enum is as large as its widest
/// variant.
///
/// The sharded simulator keeps one table per shard (timers are armed and
/// fired on the owning node, which never changes shards), so [`TimerId`]
/// values are shard-relative there — an opaque-handle property protocols
/// already must not rely on.
#[derive(Debug, Default)]
pub(crate) struct TimerTable {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct TimerSlot {
    generation: u32,
    armed: bool,
    /// Raw id of the node that armed the timer.
    node: u32,
    /// The protocol-chosen tag passed back to `on_timer`.
    tag: u64,
}

impl TimerTable {
    /// Allocates an armed slot for `node` carrying `tag`, returning its
    /// handle.
    pub(crate) fn arm(&mut self, node: NodeId, tag: u64) -> TimerId {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("timer slots exhausted");
                self.slots.push(TimerSlot {
                    generation: 0,
                    armed: false,
                    node: 0,
                    tag: 0,
                });
                slot
            }
        };
        let entry = &mut self.slots[slot as usize];
        debug_assert!(!entry.armed, "free slot cannot be armed");
        entry.armed = true;
        entry.node = node.as_u32();
        entry.tag = tag;
        TimerId::pack(slot, entry.generation)
    }

    /// Disarms `id` if it is still pending; stale handles are ignored.
    pub(crate) fn cancel(&mut self, id: TimerId) {
        let (slot, generation) = id.unpack();
        if let Some(entry) = self.slots.get_mut(slot as usize) {
            if entry.generation == generation {
                entry.armed = false;
            }
        }
    }

    /// Consumes the firing of `id`'s queue event: frees the slot and, if the
    /// timer was still armed (i.e. the callback should run), returns the
    /// owning node and tag.
    pub(crate) fn fire(&mut self, id: TimerId) -> Option<(NodeId, u64)> {
        let (slot, generation) = id.unpack();
        let entry = &mut self.slots[slot as usize];
        if entry.generation != generation {
            // Stale event for an already-freed slot; cannot happen with the
            // simulator's own scheduling (each slot has exactly one in-flight
            // event) but keeps the table safe against double fires.
            return None;
        }
        let was_armed = entry.armed;
        entry.armed = false;
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(slot);
        if was_armed {
            Some((NodeId::new(entry.node), entry.tag))
        } else {
            None
        }
    }

    /// Number of timers currently armed.
    pub(crate) fn armed(&self) -> usize {
        self.slots.iter().filter(|s| s.armed).count()
    }

    /// Number of slots ever allocated.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Resident heap held by the slot and free-list vectors, in bytes.
    pub(crate) fn heap_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<TimerSlot>()
            + self.free.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// Behaviour of a single simulated node.
///
/// All callbacks receive a [`Context`] scoped to this node. A node that has
/// crashed receives no further callbacks.
///
/// Implementations must not assume a fresh context activation per message:
/// the simulator may invoke [`Protocol::on_message`] several times within one
/// context when multiple messages arrive at the same node at the same virtual
/// instant (the batched delivery path). Each invocation still observes the
/// exact state it would have observed under one-activation-per-message
/// dispatch — the two schedules are bit-identical, which the differential
/// tests in `tests/scheduler_core.rs` pin.
pub trait Protocol {
    /// The message type exchanged between nodes running this protocol.
    type Message: Clone + WireSize;

    /// Invoked once at simulation start (time zero), before any message.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>);

    /// Invoked when a message from `from` is delivered to this node.
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Message>,
        from: NodeId,
        msg: Self::Message,
    );

    /// Invoked when a timer armed with [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Message>, timer: TimerId, tag: u64);

    /// Invoked when the simulator crashes this node. The node will receive no
    /// further callbacks; the default implementation does nothing.
    fn on_crash(&mut self, _now: SimTime) {}
}

/// Commands a protocol can issue during a callback (reference core only; the
/// engine applies the equivalent actions eagerly inside [`Context`]).
#[derive(Debug)]
enum Command<M> {
    Send { to: NodeId, msg: M },
    SetTimer { id: TimerId, delay: SimDuration },
    CancelTimer { id: TimerId },
}

/// What an event in the simulator queue does when it fires.
///
/// Kept deliberately small — queue entries are the dominant memory traffic
/// of the event loop. A delivery's wire size is recomputed from the message
/// at the fire site ([`WireSize`] is a pure function of the message), and a
/// timer's owning node and tag live in its [`TimerTable`] slot, so neither
/// rides along in the queue. An enum is as wide as its widest variant, so
/// slimming `Timer` shrinks *every* queue slot of a small-message protocol.
#[derive(Debug, Clone)]
pub(crate) enum EventKind<M> {
    Deliver {
        /// The sending node.
        from: NodeId,
        /// The destination node.
        to: NodeId,
        /// The message being delivered.
        msg: M,
    },
    Timer {
        /// Handle of the firing timer (owner and tag live in its slot).
        timer: TimerId,
    },
    Crash {
        /// The crashing node.
        node: NodeId,
    },
}

/// A queue entry of the simulator.
pub(crate) type Event<M> = ScheduledEvent<EventKind<M>>;

/// The scheduler backing the single-core simulator: the calendar queue of
/// the engine, or the [`BinaryHeapQueue`] of the reference core
/// ([`SimulatorBuilder::reference_core`]). Which arm is live is also what
/// tells the two cores apart ([`Core::is_reference`]).
#[derive(Debug)]
enum SimQueue<M> {
    Calendar(EventQueue<EventKind<M>>),
    Reference(BinaryHeapQueue<EventKind<M>>),
}

impl<M> SimQueue<M> {
    #[inline]
    fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        match self {
            SimQueue::Calendar(q) => q.push(time, kind),
            SimQueue::Reference(q) => q.push(time, kind),
        };
    }

    fn len(&self) -> usize {
        match self {
            SimQueue::Calendar(q) => q.len(),
            SimQueue::Reference(q) => q.len(),
        }
    }

    /// Bytes held by the pending events themselves (entry count × entry
    /// size). Bucket capacity beyond the entries is not a constant — it
    /// follows the peak event population — and is reported by
    /// [`SimQueue::slack_bytes`]; only the wheels' fixed slot arrays go
    /// uncounted.
    fn event_bytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<Event<M>>()) as u64
    }

    /// Event storage the calendar queue retains beyond the pending events
    /// ([`EventQueue::retained_bytes`] minus [`SimQueue::event_bytes`]).
    /// The reference heap is not instrumented.
    fn slack_bytes(&self) -> u64 {
        match self {
            SimQueue::Calendar(q) => q.retained_bytes() - self.event_bytes(),
            SimQueue::Reference(_) => 0,
        }
    }

    #[inline]
    fn peek(&self) -> Option<&Event<M>> {
        match self {
            SimQueue::Calendar(q) => q.peek(),
            SimQueue::Reference(q) => q.peek(),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Event<M>> {
        match self {
            SimQueue::Calendar(q) => q.pop(),
            SimQueue::Reference(q) => q.pop(),
        }
    }

    /// Pops the earliest event, provided it fires at or before `deadline`
    /// when one is set.
    #[inline]
    fn pop_by(&mut self, deadline: Option<SimTime>) -> Option<Event<M>> {
        match (self, deadline) {
            (SimQueue::Calendar(q), Some(d)) => q.pop_at_or_before(d),
            (SimQueue::Reference(q), Some(d)) => q.pop_at_or_before(d),
            (queue, None) => queue.pop(),
        }
    }

    /// [`EventQueue::drain_bucket`]. The reference heap has no buckets and
    /// never surrenders a batch.
    #[inline]
    fn drain_bucket(&mut self, deadline: Option<SimTime>, out: &mut Vec<Event<M>>) -> bool {
        match self {
            SimQueue::Calendar(q) => q.drain_bucket(deadline, out),
            SimQueue::Reference(_) => false,
        }
    }

    #[inline]
    fn drain_intruded(&self) -> bool {
        match self {
            SimQueue::Calendar(q) => q.drain_intruded(),
            SimQueue::Reference(_) => false,
        }
    }

    #[inline]
    fn finish_drain(&mut self) {
        if let SimQueue::Calendar(q) = self {
            q.finish_drain();
        }
    }
}

/// Everything the simulator owns *except* the protocol instances, in
/// struct-of-arrays form: the network (queue, models, network RNG), the
/// per-node substrate state (upload queues, RNG streams, liveness) and the
/// traffic statistics.
///
/// Splitting this from the protocols is what lets [`Context`] dispatch
/// eagerly: during a callback the protocol is borrowed from
/// `Simulator::protocols` while the context holds the whole core, so
/// `Context::send` can run the transmit path (upload queue, stats, loss and
/// latency draws, event push) inline instead of deferring it to a command
/// buffer replayed after the callback returns.
struct Core<M> {
    queue: SimQueue<M>,
    /// The link models as configured, sampled per call (reference core).
    latency: LatencyModel,
    /// [`Core::latency`] compiled into its per-draw fast path (engine).
    latency_fast: LatencySampler,
    loss: LossModel,
    loss_state: LossState,
    /// [`Core::loss`] compiled into its per-draw fast path (engine).
    loss_fast: LossSampler,
    /// The fault-injection schedule (inert by default).
    fault: FaultPlan,
    net_rng: SmallRng,
    now: SimTime,
    timers: TimerTable,
    stats: NetStats,
    /// Per-node upload rate limiters, indexed by [`NodeId::index`].
    uploads: Vec<UploadQueue>,
    /// Per-node deterministic RNG streams, indexed by [`NodeId::index`].
    rngs: Vec<SmallRng>,
    /// Per-node liveness, indexed by [`NodeId::index`].
    alive: Vec<bool>,
}

impl<M: WireSize> Core<M> {
    /// Whether this is the reference core
    /// ([`SimulatorBuilder::reference_core`]) rather than the engine.
    #[inline]
    fn is_reference(&self) -> bool {
        matches!(self.queue, SimQueue::Reference(_))
    }

    /// Records this core's substrate components into `f` (see
    /// [`MemoryFootprint`]). Everything here scales with n or with the
    /// in-flight event population.
    fn record_footprint(&self, f: &mut MemoryFootprint) {
        f.record("net stats columns", self.stats.heap_bytes());
        f.record("pending events", self.queue.event_bytes());
        f.record("event queue slack", self.queue.slack_bytes());
        f.record(
            "upload queues",
            (self.uploads.capacity() * std::mem::size_of::<UploadQueue>()) as u64,
        );
        f.record(
            "node rng streams",
            (self.rngs.capacity() * std::mem::size_of::<SmallRng>()) as u64,
        );
        f.record("liveness flags", self.alive.capacity() as u64);
        f.record("timer slots", self.timers.heap_bytes());
    }

    /// Sends `msg` through `from`'s upload queue, drawing loss and latency,
    /// and schedules the delivery event. The one transmit path of the engine
    /// and the reference core; only how loss and latency are drawn differs
    /// (same draws, same values: compiled samplers against the models' own
    /// per-call paths).
    fn transmit(&mut self, from: NodeId, to: NodeId, msg: M) {
        let bytes = msg.wire_size();
        let now = self.now;
        let upload = &mut self.uploads[from.index()];
        let departure = match self.fault.bandwidth_scale(now) {
            None => upload.enqueue_if_accepted(now, bytes),
            Some(scale) => upload.enqueue_if_accepted_scaled(now, bytes, scale),
        };
        let Some(departure) = departure else {
            // Finite send buffer: the message is dropped at the sender.
            self.stats.record_queue_drop(from);
            return;
        };
        self.stats.record_send(from, bytes);
        self.stats.total_queueing_delay += departure - now;
        if self.fault.blocks(now, from, to) {
            // Severed by an active partition epoch: dropped exactly like a
            // network loss, consuming no randomness (the sharded exchange
            // performs the identical check at the identical instant).
            self.stats.record_loss(from);
            return;
        }
        let reference = self.is_reference();
        let lost = if reference {
            self.loss_state
                .is_lost(&self.loss, &mut self.net_rng, from, to)
        } else {
            self.loss_fast.is_lost(&mut self.net_rng, from, to)
        };
        if lost {
            self.stats.record_loss(from);
            return;
        }
        let latency = if reference {
            self.latency.sample(&mut self.net_rng, from, to)
        } else {
            self.latency_fast.sample(&mut self.net_rng)
        };
        self.queue
            .push(departure + latency, EventKind::Deliver { from, to, msg });
    }

    /// Replays a deferred command buffer in issue order (reference core).
    fn apply_commands(&mut self, from: NodeId, commands: Vec<Command<M>>) {
        for cmd in commands {
            match cmd {
                Command::Send { to, msg } => self.transmit(from, to, msg),
                Command::SetTimer { id, delay } => {
                    self.queue
                        .push(self.now + delay, EventKind::Timer { timer: id });
                }
                Command::CancelTimer { id } => self.timers.cancel(id),
            }
        }
    }
}

/// Command surface handed to protocol callbacks.
///
/// Commands take effect immediately: `send` runs the sender-side transmit
/// path inline (on the flat engine all of it, on a shard everything up to
/// the globally ordered loss and latency draws, which wait for the next
/// exchange), `set_timer` arms the slot and schedules the fire event. The
/// reference core instead records commands into a buffer it replays after
/// the callback returns. The schedules are indistinguishable to protocols:
/// commands act in issue order either way, protocols cannot observe network
/// state mid-callback, and per-node and network RNG streams are independent,
/// so every draw lands identically (asserted by the differential tests).
pub struct Context<'a, M> {
    node: NodeId,
    inner: CtxInner<'a, M>,
}

/// The dispatch target behind a [`Context`]: the single-core simulator (the
/// flat engine's eager dispatch, or the reference core's command buffer) or
/// one shard of the sharded engine (eager per-shard state plus a deferred
/// exchange outbox).
enum CtxInner<'a, M> {
    /// A single-core simulator callback.
    Single {
        core: &'a mut Core<M>,
        /// `Some` in the reference core, `None` in the flat engine.
        commands: Option<&'a mut Vec<Command<M>>>,
    },
    /// A sharded-simulator callback: per-node and per-shard state is touched
    /// eagerly (upload queue, sender-side statistics, timer table), while
    /// everything that needs global coordination — loss and latency draws
    /// from the shared network RNG, global sequence numbers — is recorded in
    /// the shard's outbox keyed by `(trigger event, command index)` and
    /// resolved at the next bucket-boundary exchange in exactly the order
    /// the flat core would have resolved it.
    Shard {
        state: &'a mut crate::shard::ShardState<M>,
        /// Shard-local index of the node executing the callback.
        local: u32,
        /// Global sequence number of the event that triggered the callback
        /// (the node's global index for `on_start`, which runs before any
        /// event exists).
        trigger_seq: u64,
        /// Position of the next command within this callback, breaking
        /// exchange-ordering ties among commands of one callback.
        cmd_idx: u32,
    },
}

impl<'a, M: WireSize> Context<'a, M> {
    /// A flat-engine or reference-core context (the single-core simulator).
    fn single(
        node: NodeId,
        core: &'a mut Core<M>,
        commands: Option<&'a mut Vec<Command<M>>>,
    ) -> Self {
        Context {
            node,
            inner: CtxInner::Single { core, commands },
        }
    }

    /// A shard context for `node` (shard-local index `local`), triggered by
    /// the event with global sequence number `trigger_seq`.
    pub(crate) fn shard(
        node: NodeId,
        local: u32,
        trigger_seq: u64,
        state: &'a mut crate::shard::ShardState<M>,
    ) -> Self {
        Context {
            node,
            inner: CtxInner::Shard {
                state,
                local,
                trigger_seq,
                cmd_idx: 0,
            },
        }
    }

    /// Re-keys a shard context to a new triggering event (the batched
    /// delivery path reuses one context across a same-tick run) and resets
    /// the command index.
    pub(crate) fn retrigger(&mut self, seq: u64) {
        match &mut self.inner {
            CtxInner::Shard {
                trigger_seq,
                cmd_idx,
                ..
            } => {
                *trigger_seq = seq;
                *cmd_idx = 0;
            }
            CtxInner::Single { .. } => unreachable!("retrigger is a shard-context operation"),
        }
    }

    /// The shard state this context acts on (shard contexts only).
    pub(crate) fn shard_state(&mut self) -> &mut crate::shard::ShardState<M> {
        match &mut self.inner {
            CtxInner::Shard { state, .. } => state,
            CtxInner::Single { .. } => unreachable!("shard_state on a single-core context"),
        }
    }

    /// The single-core state this context acts on (single contexts only).
    fn single_core(&mut self) -> &mut Core<M> {
        match &mut self.inner {
            CtxInner::Single { core, .. } => core,
            CtxInner::Shard { .. } => unreachable!("single_core on a shard context"),
        }
    }

    /// The id of the node executing the callback.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        match &self.inner {
            CtxInner::Single { core, .. } => core.now,
            CtxInner::Shard { state, .. } => state.now,
        }
    }

    /// The node's deterministic random-number generator.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        match &mut self.inner {
            CtxInner::Single { core, .. } => &mut core.rngs[self.node.index()],
            CtxInner::Shard { state, local, .. } => &mut state.rngs[*local as usize],
        }
    }

    /// Sends `msg` to `to`. The message passes through this node's upload
    /// queue, may be lost, and otherwise arrives after the sampled latency.
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        match &mut self.inner {
            CtxInner::Single {
                core,
                commands: None,
            } => core.transmit(self.node, to, msg),
            CtxInner::Single {
                commands: Some(buffer),
                ..
            } => buffer.push(Command::Send { to, msg }),
            CtxInner::Shard {
                state,
                local,
                trigger_seq,
                cmd_idx,
            } => {
                state.transmit_local(self.node, *local, to, msg, *trigger_seq, *cmd_idx);
                *cmd_idx += 1;
            }
        }
    }

    /// Arms a timer that fires `delay` from now, carrying an arbitrary `tag`
    /// the protocol can use to distinguish timer purposes.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        match &mut self.inner {
            CtxInner::Single { core, commands } => {
                let id = core.timers.arm(self.node, tag);
                match commands {
                    None => core
                        .queue
                        .push(core.now + delay, EventKind::Timer { timer: id }),
                    Some(buffer) => buffer.push(Command::SetTimer { id, delay }),
                }
                id
            }
            CtxInner::Shard {
                state,
                trigger_seq,
                cmd_idx,
                ..
            } => {
                let id = state.arm_timer_local(self.node, tag, delay, *trigger_seq, *cmd_idx);
                *cmd_idx += 1;
                id
            }
        }
    }

    /// Cancels a previously armed timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        match &mut self.inner {
            CtxInner::Single {
                core,
                commands: None,
            } => core.timers.cancel(id),
            CtxInner::Single {
                commands: Some(buffer),
                ..
            } => buffer.push(Command::CancelTimer { id }),
            CtxInner::Shard { state, .. } => state.timers.cancel(id),
        }
    }
}

/// Configures and constructs a [`Simulator`].
///
/// # Examples
///
/// See the [crate-level documentation](crate).
#[derive(Debug, Clone)]
pub struct SimulatorBuilder {
    pub(crate) n: usize,
    pub(crate) seed: u64,
    pub(crate) latency: LatencyModel,
    pub(crate) loss: LossModel,
    pub(crate) fault: FaultPlan,
    pub(crate) capacities: Vec<UploadCapacity>,
    pub(crate) queue_limit: Option<SimDuration>,
    /// Whether to build the reference core instead of the engine
    /// ([`SimulatorBuilder::reference_core`]).
    reference: bool,
    /// Number of shards (`0` = the unsharded single-core simulator).
    pub(crate) shards: usize,
    /// How the node population is partitioned when sharded.
    pub(crate) shard_policy: ShardPolicy,
    /// Outbox/inbox preallocation per shard (`None` = a size-derived
    /// default).
    pub(crate) mailbox_capacity: Option<usize>,
}

impl SimulatorBuilder {
    /// Starts building a simulation of `n` nodes with the given random seed.
    pub fn new(n: usize, seed: u64) -> Self {
        SimulatorBuilder {
            n,
            seed,
            latency: LatencyModel::default(),
            loss: LossModel::default(),
            fault: FaultPlan::default(),
            capacities: vec![UploadCapacity::Unlimited; n],
            queue_limit: None,
            reference: false,
            shards: 0,
            shard_policy: ShardPolicy::Contiguous,
            mailbox_capacity: None,
        }
    }

    /// Splits the simulation into `shards` per-region event loops that
    /// exchange cross-shard deliveries at calendar-bucket boundaries.
    ///
    /// Each shard owns a partition of the node population (see
    /// [`SimulatorBuilder::shard_policy`]) with its own calendar queue,
    /// struct-of-arrays node/statistics columns and per-node RNG streams.
    /// Results are *bit-identical* to the default flat core for any shard
    /// count — same callback order per node, same RNG draws, same statistics
    /// — provided the determinism contract holds: every scheduling delay
    /// (link latency and timer delay) must span at least one calendar bucket
    /// ([`BUCKET_WIDTH_MICROS`](crate::event::BUCKET_WIDTH_MICROS)), which
    /// bounds the conservative lookahead. The latency bound is asserted at
    /// build time; timer-delay violations are detected at the next exchange,
    /// stop the run and surface as a structured [`ContractViolation`]
    /// ([`Simulator::run_to_completion`],
    /// [`Simulator::contract_violation`]).
    ///
    /// Shards step sequentially by default ([`Simulator::run_until`]) — the
    /// cache-locality configuration for single-core hosts — or one shard per
    /// core on scoped threads via [`Simulator::run_until_threaded`].
    ///
    /// # Panics
    ///
    /// `build` panics if `shards` is zero or if the latency model's minimum
    /// delay is shorter than one calendar bucket.
    pub fn sharded(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "sharded() needs at least one shard");
        self.shards = shards;
        self
    }

    /// Sets the node-partitioning policy used by [`SimulatorBuilder::sharded`]
    /// (default: [`ShardPolicy::Contiguous`]).
    pub fn shard_policy(mut self, policy: ShardPolicy) -> Self {
        self.shard_policy = policy;
        self
    }

    /// Overrides the fixed mailbox capacity preallocated per shard for the
    /// bucket-boundary exchange (outbox and inbox entries). The default is
    /// derived from the shard size; exceeding the capacity is not an error —
    /// the mailbox grows and the overflow is counted
    /// ([`Simulator::mailbox_high_water`]).
    pub fn shard_mailbox_capacity(mut self, capacity: usize) -> Self {
        self.mailbox_capacity = Some(capacity);
        self
    }

    /// Builds the whole-engine *reference* instead of the engine: a
    /// [`BinaryHeapQueue`], one popped event per callback activation,
    /// commands deferred to a buffer allocated per callback, loss and
    /// latency drawn through [`LossState::is_lost`] and
    /// [`LatencyModel::sample`]. Results are bit-identical to the engine in
    /// every form — the pop order is the same `(time, seq)` order and every
    /// random draw yields the same value — which is the point: it is the
    /// oracle of the differential tests, not a simulator configuration, and
    /// it cannot be sharded.
    #[doc(hidden)]
    pub fn reference_core(mut self) -> Self {
        self.reference = true;
        self
    }

    /// Bounds every node's upload-queue backlog: messages arriving while the
    /// queue already holds more than `limit` of transmission work are dropped
    /// (finite application/socket send buffer). Unlimited-capacity nodes are
    /// unaffected. Default: unbounded.
    pub fn upload_queue_limit(mut self, limit: SimDuration) -> Self {
        self.queue_limit = Some(limit);
        self
    }

    /// Sets the link-latency model (default: PlanetLab-like).
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the message-loss model (default: lossless).
    pub fn loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Installs a fault-injection schedule (default: inert). See
    /// [`FaultPlan`] for the fault classes applied inside the event loop:
    /// partition/heal epochs between node groups, correlated crashes and
    /// diurnal upload-capacity cycling. Identically interpreted by the
    /// single-core and sharded engines, so faulted runs stay bit-identical
    /// across every engine configuration.
    ///
    /// # Panics
    ///
    /// `build` panics if the plan has partition epochs but its group
    /// assignment does not cover every node.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Sets every node's upload capacity to the same value.
    pub fn uniform_capacity(mut self, capacity: UploadCapacity) -> Self {
        self.capacities = vec![capacity; self.n];
        self
    }

    /// Sets per-node upload capacities.
    ///
    /// # Panics
    ///
    /// Panics if `capacities.len()` differs from the number of nodes.
    pub fn capacities(mut self, capacities: Vec<UploadCapacity>) -> Self {
        assert_eq!(
            capacities.len(),
            self.n,
            "expected one capacity per node ({} nodes)",
            self.n
        );
        self.capacities = capacities;
        self
    }

    /// Builds the simulator, constructing one protocol instance per node via
    /// `make_node`, and schedules every node's `on_start` at time zero.
    pub fn build<P, F>(self, make_node: F) -> Simulator<P>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P,
    {
        if self.fault.has_partitions() {
            assert_eq!(
                self.fault.groups().len(),
                self.n,
                "a fault plan with partition epochs needs one group per node"
            );
        }
        if self.shards > 0 {
            assert!(!self.reference, "the reference core cannot be sharded");
            return Simulator {
                inner: SimInner::Sharded(crate::shard::ShardedSim::build(self, make_node)),
            };
        }
        Simulator {
            inner: SimInner::Single(self.build_single(make_node)),
        }
    }

    /// Builds the single-core simulator: the flat engine or the reference
    /// core.
    fn build_single<P, F>(self, mut make_node: F) -> SingleSim<P>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P,
    {
        let protocols: Vec<P> = (0..self.n)
            .map(|i| make_node(NodeId::new(i as u32)))
            .collect();
        let uploads: Vec<UploadQueue> = self
            .capacities
            .iter()
            .map(|&capacity| {
                let mut upload = UploadQueue::new(capacity);
                upload.set_max_backlog(self.queue_limit);
                upload
            })
            .collect();
        let rngs: Vec<SmallRng> = (0..self.n)
            .map(|i| stream_rng(self.seed, 1 + i as u64))
            .collect();
        let queue = if self.reference {
            SimQueue::Reference(BinaryHeapQueue::new())
        } else {
            SimQueue::Calendar(EventQueue::new())
        };
        let latency_fast = LatencySampler::new(&self.latency);
        let loss_fast = LossSampler::new(&self.loss, self.n);
        let mut sim = SingleSim {
            protocols,
            batch: Vec::new(),
            core: Core {
                queue,
                latency: self.latency,
                latency_fast,
                loss: self.loss,
                loss_state: LossState::new(self.n),
                loss_fast,
                fault: self.fault,
                net_rng: stream_rng(self.seed, 0),
                now: SimTime::ZERO,
                timers: TimerTable::default(),
                stats: NetStats::new(self.n),
                uploads,
                rngs,
                alive: vec![true; self.n],
            },
        };
        sim.start_all();
        // Correlated crashes from the fault plan are scheduled right after
        // the start round — the same logical instant the sharded engine
        // schedules them, so both engines assign them identical positions in
        // the global event order.
        for epoch in sim.core.fault.crashes().to_vec() {
            for node in epoch.nodes {
                sim.core.queue.push(epoch.at, EventKind::Crash { node });
            }
        }
        sim
    }
}

/// The discrete-event simulator hosting one [`Protocol`] instance per node.
///
/// A dispatch front over the two forms of the engine: the *flat* form, one
/// event loop over the whole population (the default), and the *sharded*
/// form ([`SimulatorBuilder::sharded`]), which partitions the node
/// population into per-region event loops that exchange cross-shard
/// deliveries at window boundaries. Both produce bit-identical simulations
/// for a given seed (asserted by the differential tests); the public API is
/// form-agnostic.
pub struct Simulator<P: Protocol> {
    inner: SimInner<P>,
}

/// The engine behind a [`Simulator`].
// One instance per simulation, held by value in `Simulator` — the variant
// size gap costs a few hundred bytes once, while boxing would put an extra
// indirection on every event-loop dispatch.
#[allow(clippy::large_enum_variant)]
enum SimInner<P: Protocol> {
    /// One event loop over the whole population (the flat engine, or the
    /// reference core).
    Single(SingleSim<P>),
    /// Per-region event loops with bucket-boundary exchange.
    Sharded(crate::shard::ShardedSim<P>),
}

/// The single-core engine: one event loop over the whole node population.
struct SingleSim<P: Protocol> {
    /// Protocol instances, indexed by [`NodeId::index`]. Kept apart from
    /// [`Core`] so a callback can borrow its protocol and the core
    /// simultaneously (the eager-dispatch seam).
    protocols: Vec<P>,
    core: Core<P::Message>,
    /// Reusable batch buffer for [`EventQueue::drain_bucket`]; its capacity
    /// is recycled through the queue's bucket storage via `mem::swap`.
    batch: Vec<Event<P::Message>>,
}

impl<P: Protocol> Simulator<P> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        match &self.inner {
            SimInner::Single(s) => s.core.now,
            SimInner::Sharded(s) => s.now(),
        }
    }

    /// The number of nodes (alive or crashed).
    pub fn len(&self) -> usize {
        match &self.inner {
            SimInner::Single(s) => s.protocols.len(),
            SimInner::Sharded(s) => s.len(),
        }
    }

    /// Returns `true` if the simulation hosts no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of shards the simulation runs on (1 when unsharded).
    pub fn shards(&self) -> usize {
        match &self.inner {
            SimInner::Single(_) => 1,
            SimInner::Sharded(s) => s.shards(),
        }
    }

    /// The exchange-window width of a sharded run, in calendar buckets:
    /// `floor(min_latency / bucket_width)`, at least 1. Returns 1 for the
    /// single-core engine, which has no exchange to bound.
    pub fn lookahead_buckets(&self) -> u64 {
        match &self.inner {
            SimInner::Single(_) => 1,
            SimInner::Sharded(s) => s.lookahead_buckets(),
        }
    }

    /// The peak number of entries any shard mailbox held at one exchange
    /// (0 when unsharded). Diagnostic for sizing
    /// [`SimulatorBuilder::shard_mailbox_capacity`].
    pub fn mailbox_high_water(&self) -> usize {
        match &self.inner {
            SimInner::Single(_) => 0,
            SimInner::Sharded(s) => s.mailbox_high_water(),
        }
    }

    /// Whether `id` is still alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        match &self.inner {
            SimInner::Single(s) => s.core.alive[id.index()],
            SimInner::Sharded(s) => s.is_alive(id),
        }
    }

    /// Read access to the protocol state of `id`.
    pub fn node(&self, id: NodeId) -> &P {
        match &self.inner {
            SimInner::Single(s) => &s.protocols[id.index()],
            SimInner::Sharded(s) => s.node(id),
        }
    }

    /// Mutable access to the protocol state of `id` (for experiment oracles;
    /// protocol logic itself should only act through callbacks).
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        match &mut self.inner {
            SimInner::Single(s) => &mut s.protocols[id.index()],
            SimInner::Sharded(s) => s.node_mut(id),
        }
    }

    /// Iterates over all protocol instances with their ids, in id order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        (0..self.len() as u32).map(move |i| {
            let id = NodeId::new(i);
            (id, self.node(id))
        })
    }

    /// The upload queue (and thus traffic counters) of `id`.
    pub fn upload_queue(&self, id: NodeId) -> &UploadQueue {
        match &self.inner {
            SimInner::Single(s) => &s.core.uploads[id.index()],
            SimInner::Sharded(s) => s.upload_queue(id),
        }
    }

    /// An itemised, capacity-based estimate of the simulator's resident
    /// heap — the `bytes_per_node` accounting hook of the scale campaign
    /// (`docs/SCALE.md`). Covers the substrate (statistics columns, pending
    /// events and the queue capacity retained beyond them, upload queues,
    /// RNG streams, liveness, timer slots) plus the
    /// protocol instances at `size_of::<P>()` each; heap owned *inside*
    /// protocol state is invisible here and is enforced separately by the
    /// counting-allocator regression guard. The sharded engine sums its
    /// shards under the same component labels.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let mut f = MemoryFootprint::new(self.len());
        match &self.inner {
            SimInner::Single(s) => {
                f.record(
                    "protocol state",
                    (s.protocols.capacity() * std::mem::size_of::<P>()) as u64,
                );
                s.core.record_footprint(&mut f);
            }
            SimInner::Sharded(s) => s.record_footprint(&mut f),
        }
        f
    }

    /// Network-wide traffic statistics.
    ///
    /// In the sharded engine this is the merged view of the per-shard
    /// statistics columns, refreshed at the end of every run call.
    pub fn stats(&self) -> &NetStats {
        match &self.inner {
            SimInner::Single(s) => &s.core.stats,
            SimInner::Sharded(s) => s.stats(),
        }
    }

    /// Schedules a crash of `node` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        match &mut self.inner {
            SimInner::Single(s) => {
                assert!(at >= s.core.now, "cannot schedule a crash in the past");
                s.core.queue.push(at, EventKind::Crash { node });
            }
            SimInner::Sharded(s) => s.schedule_crash(node, at),
        }
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        match &self.inner {
            SimInner::Single(s) => s.core.queue.len(),
            SimInner::Sharded(s) => s.pending_events(),
        }
    }

    /// Number of timers currently armed (set and neither fired nor
    /// cancelled).
    pub fn armed_timers(&self) -> usize {
        match &self.inner {
            SimInner::Single(s) => s.core.timers.armed(),
            SimInner::Sharded(s) => s.armed_timers(),
        }
    }

    /// Number of timer slots ever allocated. Bounded by the peak number of
    /// *concurrently pending* timers: firing frees a slot for reuse and
    /// cancelling an already-fired timer leaves no state behind (regression
    /// guard for the pre-PR-3 cancelled-id-set leak).
    pub fn timer_slots(&self) -> usize {
        match &self.inner {
            SimInner::Single(s) => s.core.timers.capacity(),
            SimInner::Sharded(s) => s.timer_slots(),
        }
    }

    /// Runs until the event queue is exhausted or `deadline` is reached,
    /// whichever comes first. Returns the number of events processed.
    ///
    /// On a sharded simulator this steps the shards *sequentially*, bucket
    /// by bucket — the cache-locality configuration for single-core hosts
    /// (each shard's working set fits hotter cache levels); see
    /// [`Simulator::run_until_threaded`] for the shard-per-core mode.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        match &mut self.inner {
            SimInner::Single(s) => s.run_until(deadline),
            SimInner::Sharded(s) => s.run_until(deadline),
        }
    }

    /// Runs until the event queue is completely exhausted. Returns the number
    /// of events processed, or — on a sharded simulator whose run broke the
    /// determinism contract (a timer delay shorter than one calendar bucket)
    /// — a [`ContractViolation`] describing the breach. The single-core
    /// engine has no such contract and always succeeds. Use with care:
    /// protocols with periodic timers never drain their queue — prefer
    /// [`Simulator::run_until`].
    pub fn run_to_completion(&mut self) -> Result<u64, ContractViolation> {
        match &mut self.inner {
            SimInner::Single(s) => Ok(s.run_to_completion()),
            SimInner::Sharded(s) => s.run_to_completion(),
        }
    }

    /// The determinism-contract breach observed so far, if any. Always `None`
    /// on the single-core engine. A sharded run that breached the contract
    /// stops early ([`Simulator::run_until`] returns without reaching its
    /// deadline) and latches the violation here;
    /// [`Simulator::run_to_completion`] additionally surfaces it as an `Err`.
    pub fn contract_violation(&self) -> Option<ContractViolation> {
        match &self.inner {
            SimInner::Single(_) => None,
            SimInner::Sharded(s) => s.contract_violation(),
        }
    }
}

impl<P: Protocol> Simulator<P>
where
    P: Send,
    P::Message: Send,
{
    /// [`Simulator::run_until`], stepping shards on scoped threads — one
    /// shard per core, synchronised at every calendar-bucket boundary by the
    /// serial exchange. Results are bit-identical to the sequential path
    /// (and therefore to the unsharded flat core); only wall-clock time
    /// differs. On an unsharded (or single-shard) simulator this is exactly
    /// [`Simulator::run_until`].
    pub fn run_until_threaded(&mut self, deadline: SimTime) -> u64 {
        match &mut self.inner {
            SimInner::Single(s) => s.run_until(deadline),
            SimInner::Sharded(s) => s.run_until_threaded(deadline),
        }
    }

    /// [`Simulator::run_to_completion`] on scoped threads; see
    /// [`Simulator::run_until_threaded`].
    pub fn run_to_completion_threaded(&mut self) -> Result<u64, ContractViolation> {
        match &mut self.inner {
            SimInner::Single(s) => Ok(s.run_to_completion()),
            SimInner::Sharded(s) => s.run_to_completion_threaded(),
        }
    }
}

impl<P: Protocol> SingleSim<P> {
    fn start_all(&mut self) {
        for i in 0..self.protocols.len() {
            let id = NodeId::new(i as u32);
            self.with_context(id, |proto, ctx| proto.on_start(ctx));
        }
    }

    /// Runs until the event queue is exhausted or `deadline` is reached,
    /// whichever comes first. Returns the number of events processed.
    fn run_until(&mut self, deadline: SimTime) -> u64 {
        let processed = self.run(Some(deadline));
        // Advance the clock to the deadline even if the queue drained early,
        // so that subsequent scheduling is relative to the requested time.
        if self.core.now < deadline {
            self.core.now = deadline;
        }
        processed
    }

    /// Runs until the event queue is completely exhausted.
    fn run_to_completion(&mut self) -> u64 {
        self.run(None)
    }

    fn run(&mut self, deadline: Option<SimTime>) -> u64 {
        if self.core.is_reference() {
            self.run_reference(deadline)
        } else {
            self.run_batched(deadline)
        }
    }

    /// The flat event loop: drains a whole calendar bucket at a time
    /// ([`EventQueue::drain_bucket`]) and dispatches the sorted batch from
    /// its tail (earliest first), amortising the per-event pop machinery —
    /// cursor walking, overflow reveal, run-extension peeks — over the
    /// bucket. The callback order is exactly that of popping one event at a
    /// time:
    ///
    /// - Buckets whose latest event fires after the deadline, past-guard
    ///   events and empty-wheel states make `drain_bucket` stand down; the
    ///   loop falls back to one single pop and retries (at most one
    ///   straddling bucket per call).
    /// - Callbacks fired from the batch can push events at or before the
    ///   batch's latest firing time ("intrusions": same-tick timers,
    ///   zero-bucket delays). The queue latches a flag and the loop merges
    ///   the queue front against the next batch entry by global `(time,
    ///   seq)` order before each top-level dispatch. New pushes always
    ///   receive sequence numbers above every batch entry, so an intruder
    ///   can never order *between* same-time batch entries — consuming a
    ///   same-tick delivery run from the batch alone stays exact.
    fn run_batched(&mut self, deadline: Option<SimTime>) -> u64 {
        let mut processed = 0;
        let mut batch = std::mem::take(&mut self.batch);
        debug_assert!(batch.is_empty());
        loop {
            if !self.core.queue.drain_bucket(deadline, &mut batch) {
                // Straddling bucket, past-guard events or an empty queue:
                // dispatch a single event the classic way and retry.
                let Some(ev) = self.core.queue.pop_by(deadline) else {
                    break;
                };
                processed += self.dispatch_popped(ev);
                continue;
            }
            while let Some(next) = batch.last().map(|ev| (ev.time, ev.seq)) {
                if self.core.queue.drain_intruded() {
                    // Merge intruders that fire before the next batch entry.
                    // They are all later pushes (seq above the whole batch),
                    // so a matching front is strictly earlier in time and
                    // its same-tick run never overlaps batch entries.
                    loop {
                        let front_first = matches!(
                            self.core.queue.peek(),
                            Some(front) if (front.time, front.seq) < next
                        );
                        if !front_first {
                            break;
                        }
                        let ev = self.core.queue.pop().expect("front was peeked");
                        processed += self.dispatch_popped(ev);
                    }
                }
                let ev = batch.pop().expect("last() was Some");
                self.core.now = ev.time;
                processed += 1;
                match ev.payload {
                    EventKind::Deliver { from, to, msg } => {
                        processed += self.deliver_run_batched(from, to, msg, &mut batch);
                    }
                    EventKind::Timer { timer } => self.fire_timer(timer),
                    EventKind::Crash { node } => self.crash(node),
                }
            }
            self.core.queue.finish_drain();
        }
        self.batch = batch;
        processed
    }

    /// Dispatches one event popped off the queue itself (the straddle and
    /// intrusion paths of [`SingleSim::run_batched`]). Returns the number of
    /// events consumed: the event plus its same-tick delivery run.
    #[inline]
    fn dispatch_popped(&mut self, ev: Event<P::Message>) -> u64 {
        self.core.now = ev.time;
        match ev.payload {
            EventKind::Deliver { from, to, msg } => 1 + self.deliver_run(from, to, msg),
            EventKind::Timer { timer } => {
                self.fire_timer(timer);
                1
            }
            EventKind::Crash { node } => {
                self.crash(node);
                1
            }
        }
    }

    /// Fires `timer`'s queue event on the engine. Firing always frees the
    /// slot; a cancelled (or stale) timer, or one whose owner has crashed,
    /// is simply not delivered.
    #[inline]
    fn fire_timer(&mut self, timer: TimerId) {
        if let Some((node, tag)) = self.core.timers.fire(timer) {
            if self.core.alive[node.index()] {
                let mut ctx = Context::single(node, &mut self.core, None);
                self.protocols[node.index()].on_timer(&mut ctx, timer, tag);
            }
        }
    }

    #[inline]
    fn crash(&mut self, node: NodeId) {
        let idx = node.index();
        if self.core.alive[idx] {
            self.core.alive[idx] = false;
            self.protocols[idx].on_crash(self.core.now);
        }
    }

    /// Delivers `msg` to `to` and drains every further delivery to `to`
    /// scheduled for the same instant into the same callback context: one
    /// liveness check, one context activation and one batched statistics
    /// update for the whole run. Any interleaved timer, crash or
    /// other-destination event at the same tick ends the run, so the
    /// callback order is exactly the sequential dispatch order. Returns the
    /// number of *additional* events consumed beyond the first.
    fn deliver_run(&mut self, from: NodeId, to: NodeId, msg: P::Message) -> u64 {
        let idx = to.index();
        let now = self.core.now;
        if !self.core.alive[idx] {
            // Drain the dead-destination run without a context.
            let mut count = 1u64;
            while extends_run(self.core.queue.peek(), now, to) {
                let _ = self.core.queue.pop();
                count += 1;
            }
            self.core.stats.record_to_dead_n(to, count);
            return count - 1;
        }
        let mut count = 1u64;
        let mut total_bytes = msg.wire_size() as u64;
        let protocol = &mut self.protocols[idx];
        let mut ctx = Context::single(to, &mut self.core, None);
        protocol.on_message(&mut ctx, from, msg);
        while extends_run(ctx.single_core().queue.peek(), now, to) {
            let ev = ctx.single_core().queue.pop().expect("peeked event exists");
            let EventKind::Deliver { from, msg, .. } = ev.payload else {
                unreachable!("run extension is a delivery");
            };
            count += 1;
            total_bytes += msg.wire_size() as u64;
            protocol.on_message(&mut ctx, from, msg);
        }
        ctx.single_core()
            .stats
            .record_deliveries(to, count, total_bytes);
        count - 1
    }

    /// [`SingleSim::deliver_run`] over a drained batch: the same-tick run to
    /// `to` extends from the batch tail instead of queue peeks — no pop
    /// machinery at all. An intruder pushed mid-run always carries a
    /// sequence number above the whole batch, so it orders after every
    /// same-time batch entry and the batch tail alone decides run extension
    /// exactly as the global queue front would. (Sequential dispatch would
    /// splice such an intruder into the *same* run; the batched loop
    /// dispatches it as a follow-up run at the same tick — identical
    /// callback order and statistics sums, the only observables.)
    fn deliver_run_batched(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: P::Message,
        batch: &mut Vec<Event<P::Message>>,
    ) -> u64 {
        let idx = to.index();
        let now = self.core.now;
        if !self.core.alive[idx] {
            // Drain the dead-destination run without a context.
            let mut count = 1u64;
            while extends_run(batch.last(), now, to) {
                let _ = batch.pop();
                count += 1;
            }
            self.core.stats.record_to_dead_n(to, count);
            return count - 1;
        }
        let mut count = 1u64;
        let mut total_bytes = msg.wire_size() as u64;
        let protocol = &mut self.protocols[idx];
        let mut ctx = Context::single(to, &mut self.core, None);
        protocol.on_message(&mut ctx, from, msg);
        while extends_run(batch.last(), now, to) {
            let ev = batch.pop().expect("tail was checked");
            let EventKind::Deliver { from, msg, .. } = ev.payload else {
                unreachable!("run extension is a delivery");
            };
            count += 1;
            total_bytes += msg.wire_size() as u64;
            protocol.on_message(&mut ctx, from, msg);
        }
        ctx.single_core()
            .stats
            .record_deliveries(to, count, total_bytes);
        count - 1
    }

    /// The reference event loop: pop one event, run its callback, replay the
    /// commands it issued; no batching of any kind.
    fn run_reference(&mut self, deadline: Option<SimTime>) -> u64 {
        let mut processed = 0;
        while let Some(ev) = self.core.queue.pop_by(deadline) {
            self.core.now = ev.time;
            processed += 1;
            match ev.payload {
                EventKind::Deliver { from, to, msg } => {
                    if self.core.alive[to.index()] {
                        self.core.stats.record_delivery(to, msg.wire_size());
                        self.with_context(to, |proto, ctx| proto.on_message(ctx, from, msg));
                    } else {
                        self.core.stats.record_to_dead(to);
                    }
                }
                EventKind::Timer { timer } => {
                    if let Some((node, tag)) = self.core.timers.fire(timer) {
                        self.with_context(node, |proto, ctx| proto.on_timer(ctx, timer, tag));
                    }
                }
                EventKind::Crash { node } => self.crash(node),
            }
        }
        processed
    }

    /// Runs a protocol callback for `id`, if it is alive, in the context of
    /// its core: eager dispatch on the engine; on the reference core a
    /// command buffer allocated for this callback alone and replayed once it
    /// returns (callbacks never nest: replaying only schedules events).
    fn with_context<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut P, &mut Context<'_, P::Message>),
    {
        let idx = id.index();
        if !self.core.alive[idx] {
            return;
        }
        if !self.core.is_reference() {
            let mut ctx = Context::single(id, &mut self.core, None);
            f(&mut self.protocols[idx], &mut ctx);
            return;
        }
        let mut commands = Vec::new();
        let mut ctx = Context::single(id, &mut self.core, Some(&mut commands));
        f(&mut self.protocols[idx], &mut ctx);
        self.core.apply_commands(id, commands);
    }
}

/// Whether `next` — the queue front, or the tail of a drained batch —
/// extends a same-tick delivery run to `to`.
#[inline]
pub(crate) fn extends_run<M>(next: Option<&Event<M>>, now: SimTime, to: NodeId) -> bool {
    match next {
        Some(ev) if ev.time == now => {
            matches!(&ev.payload, EventKind::Deliver { to: t, .. } if *t == to)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::Bandwidth;

    /// A tiny test protocol: node 0 floods a message to everyone at start;
    /// every receiver counts messages and echoes back once.
    struct Echo {
        received: u32,
        echoed: bool,
        n: usize,
        timer_fired: Vec<u64>,
    }

    impl Echo {
        fn new(n: usize) -> Self {
            Echo {
                received: 0,
                echoed: false,
                n,
                timer_fired: Vec::new(),
            }
        }
    }

    #[derive(Clone, Debug)]
    struct Msg(u32);
    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            100
        }
    }

    impl Protocol for Echo {
        type Message = Msg;
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.node_id().index() == 0 {
                for i in 1..self.n {
                    ctx.send(NodeId::new(i as u32), Msg(1));
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            self.received += 1;
            if !self.echoed && msg.0 == 1 {
                self.echoed = true;
                ctx.send(from, Msg(2));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _timer: TimerId, tag: u64) {
            self.timer_fired.push(tag);
        }
    }

    fn build(n: usize) -> Simulator<Echo> {
        SimulatorBuilder::new(n, 1)
            .latency(LatencyModel::constant(SimDuration::from_millis(10)))
            .build(|_| Echo::new(n))
    }

    #[test]
    fn memory_footprint_covers_both_engines() {
        let flat = build(32);
        let f = flat.memory_footprint();
        assert_eq!(f.n_nodes(), 32);
        // Every per-node substrate column must be accounted.
        for label in [
            "protocol state",
            "net stats columns",
            "upload queues",
            "node rng streams",
            "liveness flags",
        ] {
            let bytes = f
                .components()
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, b)| *b)
                .unwrap_or_else(|| panic!("missing component {label:?}"));
            assert!(bytes >= 32, "{label}: {bytes} bytes for 32 nodes");
        }
        assert!(f.bytes_per_node() > 0.0);

        let sharded = SimulatorBuilder::new(32, 1)
            .latency(LatencyModel::constant(SimDuration::from_millis(10)))
            .sharded(4)
            .build(|_| Echo::new(32));
        let g = sharded.memory_footprint();
        assert_eq!(g.n_nodes(), 32);
        // The sharded engine sums shards under the flat labels and adds its
        // merged statistics cache.
        assert!(g
            .components()
            .iter()
            .any(|(l, _)| *l == "merged stats cache"));
        assert!(g
            .components()
            .iter()
            .find(|(l, _)| *l == "net stats columns")
            .is_some_and(|(_, b)| *b >= 32 * 56));

        // Drained buckets keep their capacity: once events have flowed,
        // both engines report it next to the pending entries.
        for mut sim in [flat, sharded] {
            sim.run_until(SimTime::from_secs(1));
            let f = sim.memory_footprint();
            let slack = f
                .components()
                .iter()
                .find(|(l, _)| *l == "event queue slack");
            assert!(slack.is_some_and(|(_, b)| *b > 0), "{slack:?}");
        }
    }

    #[test]
    fn flood_and_echo_are_delivered() {
        let mut sim = build(5);
        sim.run_until(SimTime::from_secs(1));
        // Node 0 receives 4 echoes, nodes 1..4 receive 1 each.
        assert_eq!(sim.node(NodeId::new(0)).received, 4);
        for i in 1..5 {
            assert_eq!(sim.node(NodeId::new(i)).received, 1);
        }
        assert_eq!(sim.stats().total_messages_sent(), 8);
        assert_eq!(sim.stats().total_messages_delivered(), 8);
        assert_eq!(sim.stats().total_messages_lost(), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = SimulatorBuilder::new(10, 99)
                .latency(LatencyModel::planetlab_like())
                .loss(LossModel::bernoulli(0.05))
                .build(|_| Echo::new(10));
            sim.run_until(SimTime::from_secs(2));
            (
                sim.stats().total_messages_delivered(),
                sim.stats().total_messages_lost(),
                sim.now(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn upload_capacity_delays_departure() {
        // Node 0 sends 4 x 100 bytes over an 800 bps link: each message takes
        // one second to serialise, so the last arrives after 4s + latency.
        let mut sim = SimulatorBuilder::new(2, 3)
            .latency(LatencyModel::constant(SimDuration::from_millis(0)))
            .capacities(vec![
                UploadCapacity::Limited(Bandwidth::from_bps(800)),
                UploadCapacity::Unlimited,
            ])
            .build(|_| Echo::new(2));
        // on_start sends only one message (node 0 -> node 1); send three more.
        // We emulate this by scheduling timers through the protocol is overkill;
        // instead just run and check the single message timing.
        sim.run_until(SimTime::from_secs(10));
        // 100 bytes at 800bps = 1s serialisation; echo from node 1 is instant.
        assert_eq!(sim.node(NodeId::new(1)).received, 1);
        assert!(sim.upload_queue(NodeId::new(0)).busy_time() == SimDuration::from_secs(1));
    }

    #[test]
    fn crashed_nodes_receive_nothing() {
        let mut sim = build(3);
        sim.schedule_crash(NodeId::new(2), SimTime::from_millis(1));
        sim.run_until(SimTime::from_secs(1));
        // Node 2 crashed before the 10ms flood arrived.
        assert_eq!(sim.node(NodeId::new(2)).received, 0);
        assert!(!sim.is_alive(NodeId::new(2)));
        assert_eq!(sim.stats().node(NodeId::new(2)).messages_to_dead, 1);
        // The other receiver still got its message.
        assert_eq!(sim.node(NodeId::new(1)).received, 1);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerProto {
            fired: Vec<u64>,
        }
        #[derive(Clone, Debug)]
        struct Never;
        impl WireSize for Never {
            fn wire_size(&self) -> usize {
                0
            }
        }
        impl Protocol for TimerProto {
            type Message = Never;
            fn on_start(&mut self, ctx: &mut Context<'_, Never>) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                let t2 = ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.cancel_timer(t2);
            }
            fn on_message(&mut self, _: &mut Context<'_, Never>, _: NodeId, _: Never) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Never>, _timer: TimerId, tag: u64) {
                self.fired.push(tag);
                if tag == 1 {
                    // Re-arm from within a timer callback.
                    ctx.set_timer(SimDuration::from_millis(5), 4);
                }
            }
        }
        let mut sim = SimulatorBuilder::new(1, 0).build(|_| TimerProto { fired: vec![] });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node(NodeId::new(0)).fired, vec![1, 4, 3]);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = build(2);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.len(), 2);
        assert!(!sim.is_empty());
    }

    #[test]
    fn lossy_network_records_losses() {
        let mut sim = SimulatorBuilder::new(50, 7)
            .latency(LatencyModel::constant(SimDuration::from_millis(1)))
            .loss(LossModel::bernoulli(1.0))
            .build(|_| Echo::new(50));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().total_messages_delivered(), 0);
        assert_eq!(sim.stats().total_messages_lost(), 49);
    }

    #[test]
    fn run_to_completion_drains_queue() {
        let mut sim = build(4);
        let processed = sim.run_to_completion().expect("single core cannot breach");
        assert!(processed > 0);
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.contract_violation(), None);
    }

    #[test]
    fn partition_epoch_drops_cross_group_messages_as_losses() {
        // Two groups {0} and {1..4}; the partition covers the whole run, so
        // node 0's flood is dropped at the sender and counted as losses.
        let plan = FaultPlan::new()
            .with_groups(vec![0, 1, 1, 1, 1])
            .partition(SimTime::ZERO, SimTime::from_secs(10));
        let mut sim = SimulatorBuilder::new(5, 1)
            .latency(LatencyModel::constant(SimDuration::from_millis(10)))
            .fault_plan(plan)
            .build(|_| Echo::new(5));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().total_messages_delivered(), 0);
        assert_eq!(sim.stats().total_messages_lost(), 4);
        // Sends still happen (and are charged) — the drop is in the network.
        assert_eq!(sim.stats().total_messages_sent(), 4);
    }

    #[test]
    fn healed_partition_lets_messages_through_again() {
        // Partition already healed before the flood is sent at t=0... the
        // flood goes out at time zero, so use a window that ends before any
        // send happens only for the second run. First: active window blocks.
        let blocked = {
            let plan = FaultPlan::new()
                .with_groups(vec![0, 1])
                .partition(SimTime::ZERO, SimTime::from_millis(1));
            let mut sim = build_with_plan(plan);
            sim.run_until(SimTime::from_secs(1));
            sim.stats().total_messages_delivered()
        };
        let healed = {
            let plan = FaultPlan::new()
                .with_groups(vec![0, 1])
                .partition(SimTime::from_secs(5), SimTime::from_secs(6));
            let mut sim = build_with_plan(plan);
            sim.run_until(SimTime::from_secs(1));
            sim.stats().total_messages_delivered()
        };
        assert_eq!(blocked, 0);
        // Flood + echo both delivered once no epoch is active at send time.
        assert_eq!(healed, 2);
    }

    fn build_with_plan(plan: FaultPlan) -> Simulator<Echo> {
        SimulatorBuilder::new(2, 1)
            .latency(LatencyModel::constant(SimDuration::from_millis(10)))
            .fault_plan(plan)
            .build(|_| Echo::new(2))
    }

    #[test]
    fn fault_plan_crashes_kill_their_nodes() {
        let plan = FaultPlan::new().regional_crash(
            SimTime::from_millis(1),
            vec![NodeId::new(1), NodeId::new(2)],
        );
        let mut sim = SimulatorBuilder::new(4, 1)
            .latency(LatencyModel::constant(SimDuration::from_millis(10)))
            .fault_plan(plan)
            .build(|_| Echo::new(4));
        sim.run_until(SimTime::from_secs(1));
        assert!(!sim.is_alive(NodeId::new(1)));
        assert!(!sim.is_alive(NodeId::new(2)));
        assert!(sim.is_alive(NodeId::new(3)));
        assert_eq!(sim.node(NodeId::new(3)).received, 1);
        assert_eq!(sim.node(NodeId::new(1)).received, 0);
    }

    #[test]
    fn diurnal_cycling_slows_the_uplink_in_the_low_phase() {
        // 800 bps cap halved in the second phase of a 2 s cycle. The flood
        // leaves node 0 at t=0 (phase 0, factor 1.0): 100 B serialise in 1 s.
        let run = |factors: Vec<f64>| {
            let plan = FaultPlan::new().diurnal(SimDuration::from_secs(2), factors);
            let mut sim = SimulatorBuilder::new(2, 3)
                .latency(LatencyModel::constant(SimDuration::from_millis(0)))
                .capacities(vec![
                    UploadCapacity::Limited(Bandwidth::from_bps(800)),
                    UploadCapacity::Unlimited,
                ])
                .fault_plan(plan)
                .build(|_| Echo::new(2));
            sim.run_until(SimTime::from_secs(10));
            sim.upload_queue(NodeId::new(0)).busy_time()
        };
        assert_eq!(run(vec![1.0, 1.0]), SimDuration::from_secs(1));
        // Halved capacity in phase 0 doubles the serialisation time.
        assert_eq!(run(vec![0.5, 1.0]), SimDuration::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "one group per node")]
    fn partition_plan_without_full_group_cover_is_rejected() {
        let plan = FaultPlan::new()
            .with_groups(vec![0, 1])
            .partition(SimTime::ZERO, SimTime::from_secs(1));
        let _ = SimulatorBuilder::new(5, 1)
            .fault_plan(plan)
            .build(|_| Echo::new(5));
    }

    /// Same-tick deliveries to one node are batched into one context
    /// activation; the observable outcome (callback count and order, stats)
    /// must match the one-event-per-activation reference core exactly. Constant
    /// zero latency plus an instant echo makes every delivery share tick 0,
    /// so this run exercises batches interleaved with eager pushes into the
    /// current tick.
    #[test]
    fn batched_same_tick_deliveries_match_deferred_core() {
        let run = |reference: bool| {
            let mut builder = SimulatorBuilder::new(6, 11)
                .latency(LatencyModel::constant(SimDuration::from_millis(0)));
            if reference {
                builder = builder.reference_core();
            }
            let mut sim = builder.build(|_| Echo::new(6));
            sim.run_until(SimTime::from_secs(1));
            let received: Vec<u32> = (0..6).map(|i| sim.node(NodeId::new(i)).received).collect();
            (received, format!("{:?}", sim.stats()))
        };
        assert_eq!(run(false), run(true));
    }

    /// A crash event firing at the same instant as (and, by insertion order,
    /// ahead of) a same-tick delivery run to the crashed node: the batch path
    /// must drain the whole run as dead-destination messages, exactly like
    /// the one-event-per-dispatch reference core.
    #[test]
    fn same_tick_crash_turns_the_delivery_run_dead() {
        let run = |reference: bool| {
            let mut builder = SimulatorBuilder::new(4, 2)
                .latency(LatencyModel::constant(SimDuration::from_millis(5)));
            if reference {
                builder = builder.reference_core();
            }
            let mut sim = builder.build(|_| Echo::new(4));
            // The flood arrives at nodes 1..3 at 5 ms; their echoes all
            // arrive at node 0 at exactly 10 ms. The crash event below is
            // pushed *now* (lower sequence number), so at 10 ms it fires
            // before the three echoes — which then form a same-tick
            // delivery run to a dead node.
            sim.schedule_crash(NodeId::new(0), SimTime::from_millis(10));
            sim.run_until(SimTime::from_secs(1));
            (
                sim.node(NodeId::new(0)).received,
                sim.stats().node(NodeId::new(0)).messages_to_dead,
                format!("{:?}", sim.stats()),
            )
        };
        let flat = run(false);
        assert_eq!(flat, run(true));
        assert_eq!(flat.0, 0, "crashed node must not receive");
        assert_eq!(flat.1, 3, "all three echoes hit the dead node");
    }
}
