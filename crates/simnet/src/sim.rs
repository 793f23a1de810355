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
//! One engine runs every simulation. The simulator owns its protocol
//! instances and one *substrate*: the node state in dense vectors indexed by
//! node id (upload queues, RNGs, liveness, one [`NetStats`] row each), the
//! calendar queue, the clock, the timer table and the network state (network
//! RNG, the loss model and its [`LossState`], the latency model, the fault
//! plan). Its loop drains a whole calendar bucket at a time
//! ([`EventQueue::drain_bucket`]) and dispatches each event in its own
//! callback context. Context commands apply *eagerly* — `Context::send`
//! runs the one transmit path inline: the upload-queue pass and the sender's
//! statistics, then loss, latency and the queue push.
//!
//! Beside the engine sits one whole-engine *reference*, reachable only
//! through the hidden [`SimulatorBuilder::reference_core`]: the same
//! simulator pushing onto a [`BinaryHeapQueue`] and popping one event at a
//! time. Queue and loop are all it has of its own, which is what makes it
//! an oracle for them (`tests/scheduler_core.rs` and the differential suites
//! beside it). Commands need none: a [`Context`] exposes no network state
//! and callbacks never nest, so applying them eagerly or after the callback
//! returns pushes the same events in the same order.

use crate::bandwidth::{UploadCapacity, UploadQueue};
use crate::event::{BinaryHeapQueue, EventQueue, ScheduledEvent};
use crate::fault::FaultPlan;
use crate::latency::LatencyModel;
use crate::loss::{LossModel, LossState};
use crate::node::NodeId;
use crate::rng::stream_rng;
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
/// recognised and ignored without recording them anywhere: the table is
/// bounded by the peak number of *concurrently pending* timers. The slot
/// also stores the timer's owning node and user tag, needed exactly once, at
/// the fire site, which touches the slot anyway — so the queued `Timer`
/// event is a bare [`TimerId`] (see [`EventKind`]).
#[derive(Debug, Default)]
struct TimerTable {
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
    fn arm(&mut self, node: NodeId, tag: u64) -> TimerId {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                // Invariant: slots are reused, and no run holds 2³² live timers.
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
    fn cancel(&mut self, id: TimerId) {
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
    fn fire(&mut self, id: TimerId) -> Option<(NodeId, u64)> {
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
    fn armed(&self) -> usize {
        self.slots.iter().filter(|s| s.armed).count()
    }

    /// Number of slots ever allocated.
    fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Resident heap held by the slot and free-list vectors, in bytes.
    fn heap_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<TimerSlot>()
            + self.free.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// Behaviour of a single simulated node.
///
/// All callbacks receive a [`Context`] scoped to this node. A node that has
/// crashed receives no further callbacks.
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

    /// Resident heap bytes the node owns beyond `size_of::<Self>()`, for
    /// [`Simulator::memory_footprint`]. The default reports none.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// What an event in the simulator queue does when it fires.
///
/// Kept deliberately small — queue entries are the dominant memory traffic
/// of the event loop, and an enum is as wide as its widest variant. A
/// delivery's wire size is recomputed from the message at the fire site
/// ([`WireSize`] is a pure function of the message), and a timer's owning
/// node and tag live in its [`TimerTable`] slot.
#[derive(Debug, Clone)]
enum EventKind<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { timer: TimerId },
    Crash { node: NodeId },
}

/// A queue entry of the simulator.
type Event<M> = ScheduledEvent<EventKind<M>>;

/// Everything the simulator owns *except* its protocol instances: the
/// queues and clock, the per-node state in dense vectors indexed by node id,
/// and the network state every send consumes.
///
/// Splitting this from the protocols is what lets [`Context`] act eagerly:
/// during a callback the protocol is borrowed from `Simulator::protocols`
/// while the context holds the whole substrate, so `Context::send` can run
/// the transmit path inline.
struct Substrate<M> {
    /// The engine's calendar queue (empty on the reference core).
    queue: EventQueue<EventKind<M>>,
    /// The reference core's queue ([`SimulatorBuilder::reference_core`]);
    /// `None` on the engine.
    reference: Option<BinaryHeapQueue<EventKind<M>>>,
    /// The clock: the time of the event being processed.
    now: SimTime,
    timers: TimerTable,
    /// Traffic counters, by node.
    stats: NetStats,
    uploads: Vec<UploadQueue>,
    /// Per-node RNG streams (`stream_rng(seed, 1 + node id)`).
    rngs: Vec<SmallRng>,
    alive: Vec<bool>,
    /// The network RNG: every loss and latency draw.
    net_rng: SmallRng,
    /// The loss model and its per-sender channel state.
    loss: LossModel,
    loss_state: LossState,
    latency: LatencyModel,
    /// The fault-injection schedule (inert by default).
    fault: FaultPlan,
}

impl<M> Substrate<M> {
    /// Schedules `event` at `at` on whichever queue this core runs.
    #[inline]
    fn push(&mut self, at: SimTime, event: EventKind<M>) {
        match &mut self.reference {
            None => self.queue.push(at, event),
            Some(heap) => heap.push(at, event),
        };
    }

    /// Records the substrate components into `f`, the event queue's
    /// capacity beyond its pending entries as slack together with `batch`,
    /// the run loop's batch buffer (see [`EventQueue::retained_bytes`]).
    fn record_footprint(&self, f: &mut MemoryFootprint, batch: &Vec<Event<M>>) {
        use std::mem::size_of;
        let entry = size_of::<Event<M>>() as u64;
        f.record("net stats columns", self.stats.heap_bytes());
        let calendar = self.queue.len() as u64 * entry;
        let heap = self.reference.as_ref().map_or(0, |heap| heap.len()) as u64 * entry;
        f.record("pending events", calendar + heap);
        f.record(
            "event queue slack",
            self.queue.retained_bytes() + batch.capacity() as u64 * entry - calendar,
        );
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
}

impl<M: WireSize> Substrate<M> {
    /// The one transmit path: `msg` passes through the upload queue of
    /// `from` and is charged to the sender's statistics, then loss and
    /// latency are drawn and the delivery is scheduled.
    fn transmit(&mut self, from: NodeId, to: NodeId, msg: M) {
        let bytes = msg.wire_size();
        let now = self.now;
        let scale = self.fault.bandwidth_scale(now);
        let Some(departure) = self.uploads[from.index()].enqueue_if_accepted(now, bytes, scale)
        else {
            // Finite send buffer: the message is dropped at the sender.
            self.stats.record_queue_drop(from);
            return;
        };
        self.stats.record_send(from, bytes);
        self.stats.total_queueing_delay += departure - now;
        // A send severed by an active partition epoch is dropped exactly
        // like a network loss, consuming no randomness.
        if self.fault.blocks(now, from, to)
            || self
                .loss_state
                .is_lost(&self.loss, &mut self.net_rng, from, to)
        {
            self.stats.record_loss(from);
            return;
        }
        let latency = self.latency.sample(&mut self.net_rng, from, to);
        self.push(departure + latency, EventKind::Deliver { from, to, msg });
    }
}

/// Command surface handed to protocol callbacks.
///
/// Commands take effect immediately, on the engine and on the reference core
/// alike: `send` runs the transmit path inline, `set_timer` arms the slot
/// and schedules the fire event, `cancel_timer` disarms the slot.
pub struct Context<'a, M> {
    node: NodeId,
    sub: &'a mut Substrate<M>,
}

impl<M: WireSize> Context<'_, M> {
    /// The id of the node executing the callback.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.sub.now
    }

    /// The node's deterministic random-number generator.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.sub.rngs[self.node.index()]
    }

    /// Sends `msg` to `to`. The message passes through this node's upload
    /// queue, may be lost, and otherwise arrives after the sampled latency.
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.sub.transmit(self.node, to, msg)
    }

    /// Arms a timer that fires `delay` from now, carrying an arbitrary `tag`
    /// the protocol can use to distinguish timer purposes.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let timer = self.sub.timers.arm(self.node, tag);
        self.sub
            .push(self.sub.now + delay, EventKind::Timer { timer });
        timer
    }

    /// Cancels a previously armed timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.sub.timers.cancel(id)
    }
}

/// Configures and constructs a [`Simulator`].
///
/// # Examples
///
/// See the [crate-level documentation](crate).
#[derive(Debug, Clone)]
pub struct SimulatorBuilder {
    n: usize,
    seed: u64,
    latency: LatencyModel,
    loss: LossModel,
    fault: FaultPlan,
    capacities: Vec<UploadCapacity>,
    queue_limit: Option<SimDuration>,
    /// Whether to build the reference core instead of the engine
    /// ([`SimulatorBuilder::reference_core`]).
    reference: bool,
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
        }
    }

    /// Builds the whole-engine *reference* of the [module docs](self)
    /// instead of the engine. Results are bit-identical — the pop order is
    /// the same `(time, seq)` order and every random draw yields the same
    /// value — which is the point: it is the oracle of the differential
    /// tests, not a simulator configuration.
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

    /// Installs a fault-injection schedule (default: inert; see
    /// [`FaultPlan`] for the fault classes).
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
        // Precondition: node `i` reads its capacity at index `i`.
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
    /// `make_node` in id order, and runs every node's `on_start` at time
    /// zero.
    pub fn build<P, F>(self, make_node: F) -> Simulator<P>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P,
    {
        if self.fault.has_partitions() {
            // Precondition: a partition looks up both ends' groups by index.
            assert_eq!(
                self.fault.groups().len(),
                self.n,
                "a fault plan with partition epochs needs one group per node"
            );
        }
        let n = self.n as u32;
        let protocols: Vec<P> = (0..n).map(NodeId::new).map(make_node).collect();
        let uploads = self
            .capacities
            .iter()
            .map(|&capacity| {
                let mut upload = UploadQueue::new(capacity);
                upload.set_max_backlog(self.queue_limit);
                upload
            })
            .collect();
        let rngs = (0..n)
            .map(|g| stream_rng(self.seed, 1 + g as u64))
            .collect();
        let mut sim = Simulator {
            sub: Substrate {
                queue: EventQueue::new(),
                reference: self.reference.then(BinaryHeapQueue::new),
                now: SimTime::ZERO,
                timers: TimerTable::default(),
                stats: NetStats::new(self.n),
                uploads,
                rngs,
                alive: vec![true; self.n],
                net_rng: stream_rng(self.seed, 0),
                loss_state: LossState::new(&self.loss, self.n),
                loss: self.loss,
                latency: self.latency,
                fault: self.fault,
            },
            protocols,
            batch: Vec::new(),
        };
        sim.start_all();
        sim
    }
}

/// The discrete-event simulator hosting one [`Protocol`] instance per node.
///
/// It owns the protocol instances, the substrate they run on (node state,
/// queues, network state; see the [module docs](self)) and the run loop's
/// batch buffer.
pub struct Simulator<P: Protocol> {
    /// Protocol instances, by node id.
    protocols: Vec<P>,
    sub: Substrate<P::Message>,
    /// Reusable batch buffer for [`EventQueue::drain_bucket`]; it trades
    /// places with the queue's current-bucket buffer on every drain.
    batch: Vec<Event<P::Message>>,
}

impl<P: Protocol> Simulator<P> {
    /// Runs every node's `on_start` in id order.
    fn start_all(&mut self) {
        for (g, protocol) in self.protocols.iter_mut().enumerate() {
            let mut ctx = Context {
                node: NodeId::new(g as u32),
                sub: &mut self.sub,
            };
            protocol.on_start(&mut ctx);
        }
    }

    /// The engine's event loop: processes every pending event that fires at
    /// or before `deadline` (all of them without one) in ascending `(time,
    /// seq)` order and returns their number. It drains a whole calendar
    /// bucket at a time ([`EventQueue::drain_bucket`]) and dispatches the
    /// sorted batch from its tail (earliest first), amortising the per-event
    /// pop machinery over the bucket. The callback order is exactly that of
    /// popping one event at a time:
    ///
    /// - Buckets whose latest event fires after the deadline, past-guard
    ///   events and empty-wheel states make `drain_bucket` stand down; the
    ///   loop falls back to one single pop and retries (at most one
    ///   straddling bucket per call).
    /// - Callbacks fired from the batch can push events at or before the
    ///   batch's latest firing time ("intrusions": same-tick timers,
    ///   zero-bucket delays). The queue latches a flag and the loop merges
    ///   the queue front against the next batch entry by global `(time,
    ///   seq)` order before each top-level dispatch.
    ///
    /// Force-inlined, like the dispatch under it: an out-of-line copy
    /// measured +25 % on the `flood-10k` benchmark.
    #[inline(always)]
    fn run_engine(&mut self, deadline: Option<SimTime>) -> u64 {
        let mut processed = 0;
        let mut batch = std::mem::take(&mut self.batch);
        debug_assert!(batch.is_empty());
        loop {
            if !self.sub.queue.drain_bucket(deadline, &mut batch) {
                // Straddling bucket, past-guard events or an empty queue:
                // dispatch a single event the classic way and retry.
                let popped = match deadline {
                    Some(deadline) => self.sub.queue.pop_at_or_before(deadline),
                    None => self.sub.queue.pop(),
                };
                let Some(ev) = popped else {
                    break;
                };
                self.dispatch_popped(ev);
                processed += 1;
                continue;
            }
            while let Some(next) = batch.last().map(|ev| (ev.time, ev.seq)) {
                if self.sub.queue.drain_intruded() {
                    // Merge intruders that fire before the next batch entry.
                    // They are all later pushes (seq above the whole batch),
                    // so a matching front is strictly earlier in time.
                    while matches!(
                        self.sub.queue.peek(),
                        Some(front) if (front.time, front.seq) < next
                    ) {
                        let ev = self.sub.queue.pop().expect("front was peeked");
                        self.dispatch_popped(ev);
                        processed += 1;
                    }
                }
                let ev = batch.pop().expect("last() was Some");
                self.dispatch(ev);
                processed += 1;
            }
            self.sub.queue.finish_drain();
        }
        self.batch = batch;
        processed
    }

    /// The reference core's event loop: pops one event at a time off the
    /// binary heap; no bucket drains, no batch, no intrusion merges.
    fn run_reference(&mut self, deadline: Option<SimTime>) -> u64 {
        let mut processed = 0;
        loop {
            let heap = self.sub.reference.as_mut().expect("reference core");
            let popped = match deadline {
                Some(deadline) => heap.pop_at_or_before(deadline),
                None => heap.pop(),
            };
            let Some(ev) = popped else {
                break;
            };
            self.dispatch_popped(ev);
            processed += 1;
        }
        processed
    }

    /// [`Simulator::dispatch`] for an event popped off a queue itself (the
    /// straddle and intrusion paths of [`Simulator::run_engine`], and the
    /// reference loop). Out of line so the engine loop carries one inlined
    /// copy of the dispatch, the batch's.
    #[inline(never)]
    fn dispatch_popped(&mut self, ev: Event<P::Message>) {
        self.dispatch(ev)
    }

    /// Dispatches one event, in its own callback context.
    #[inline(always)]
    fn dispatch(&mut self, ev: Event<P::Message>) {
        self.sub.now = ev.time;
        match ev.payload {
            EventKind::Deliver { from, to, msg } => {
                if self.sub.alive[to.index()] {
                    self.sub.stats.record_delivery(to, msg.wire_size());
                    let mut ctx = Context {
                        node: to,
                        sub: &mut self.sub,
                    };
                    self.protocols[to.index()].on_message(&mut ctx, from, msg);
                } else {
                    self.sub.stats.record_to_dead(to);
                }
            }
            EventKind::Timer { timer } => {
                // Firing always frees the slot; a cancelled (or stale)
                // timer, or one whose owner has crashed, is simply not
                // delivered.
                if let Some((node, tag)) = self.sub.timers.fire(timer) {
                    if self.sub.alive[node.index()] {
                        let mut ctx = Context {
                            node,
                            sub: &mut self.sub,
                        };
                        self.protocols[node.index()].on_timer(&mut ctx, timer, tag);
                    }
                }
            }
            EventKind::Crash { node } => {
                let idx = node.index();
                if self.sub.alive[idx] {
                    self.sub.alive[idx] = false;
                    self.protocols[idx].on_crash(self.sub.now);
                }
            }
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.sub.now
    }

    /// The number of nodes (alive or crashed).
    pub fn len(&self) -> usize {
        self.protocols.len()
    }

    /// Returns `true` if the simulation hosts no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` is still alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.sub.alive[id.index()]
    }

    /// Read access to the protocol state of `id`.
    pub fn node(&self, id: NodeId) -> &P {
        &self.protocols[id.index()]
    }

    /// Mutable access to the protocol state of `id` (for experiment oracles;
    /// protocol logic itself should only act through callbacks).
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.protocols[id.index()]
    }

    /// Iterates over all protocol instances with their ids, in id order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.protocols
            .iter()
            .enumerate()
            .map(|(i, node)| (NodeId::new(i as u32), node))
    }

    /// The upload queue (and thus traffic counters) of `id`.
    pub fn upload_queue(&self, id: NodeId) -> &UploadQueue {
        &self.sub.uploads[id.index()]
    }

    /// An itemised, capacity-based estimate of the simulator's resident
    /// heap — the `bytes_per_node` accounting hook of the scale campaign
    /// (`docs/SCALE.md`). Covers the protocol instances at `size_of::<P>()`
    /// each, the heap they own as their [`Protocol::heap_bytes`] report it,
    /// and the substrate (statistics columns, pending events and the queue
    /// capacity retained beyond them, upload queues, RNG streams, liveness,
    /// timer slots). Message payloads held by pending events beyond the
    /// event itself are not walked.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let mut f = MemoryFootprint::new(self.len());
        f.record(
            "protocol state",
            (self.protocols.capacity() * std::mem::size_of::<P>()) as u64,
        );
        let heap: usize = self.protocols.iter().map(P::heap_bytes).sum();
        f.record("protocol heap", heap as u64);
        self.sub.record_footprint(&mut f, &self.batch);
        f
    }

    /// Network-wide traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.sub.stats
    }

    /// Schedules a crash of `node` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not one of the simulation's nodes
    /// (`node.index() >= len()`) or if `at` is in the past.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        // Preconditions: no crash of a node the run lacks, or in its past.
        assert!(
            node.index() < self.len(),
            "cannot schedule a crash of node {}: the simulation has {} nodes",
            node.index(),
            self.len()
        );
        assert!(at >= self.now(), "cannot schedule a crash in the past");
        self.sub.push(at, EventKind::Crash { node });
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        match &self.sub.reference {
            None => self.sub.queue.len(),
            Some(heap) => heap.len(),
        }
    }

    /// Number of timers currently armed (set and neither fired nor
    /// cancelled).
    pub fn armed_timers(&self) -> usize {
        self.sub.timers.armed()
    }

    /// Number of timer slots ever allocated. Bounded by the peak number of
    /// *concurrently pending* timers: firing frees a slot for reuse and
    /// cancelling an already-fired timer leaves no state behind.
    pub fn timer_slots(&self) -> usize {
        self.sub.timers.capacity()
    }

    /// Runs until the event queue is exhausted or `deadline` is reached,
    /// whichever comes first. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.run(Some(deadline))
    }

    /// Runs until the event queue is completely exhausted and returns the
    /// number of events processed. Use with care: protocols with periodic
    /// timers never drain their queue — prefer [`Simulator::run_until`].
    ///
    /// Infallible; the `Result` stays for the repo benchmark until ROADMAP item 2(b) removes it.
    pub fn run_to_completion(&mut self) -> Result<u64, std::convert::Infallible> {
        Ok(self.run(None))
    }

    /// Processes every event up to `deadline` on the engine or the
    /// reference, then advances the clock to the deadline — even if the
    /// queue drained early, so that subsequent scheduling is relative to the
    /// requested time.
    fn run(&mut self, deadline: Option<SimTime>) -> u64 {
        let processed = match self.sub.reference {
            None => self.run_engine(deadline),
            Some(_) => self.run_reference(deadline),
        };
        if let Some(deadline) = deadline {
            self.sub.now = self.sub.now.max(deadline);
        }
        processed
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
        fn heap_bytes(&self) -> usize {
            self.timer_fired.capacity() * std::mem::size_of::<u64>()
        }
    }

    fn build(n: usize) -> Simulator<Echo> {
        SimulatorBuilder::new(n, 1)
            .latency(LatencyModel::constant(SimDuration::from_millis(10)))
            .build(|_| Echo::new(n))
    }

    #[test]
    fn memory_footprint_covers_every_substrate_column() {
        let mut sim = build(32);
        let f = sim.memory_footprint();
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

        // What each node reports owning is summed into one component.
        let protocol_heap = |sim: &Simulator<Echo>| {
            let f = sim.memory_footprint();
            let row = f.components().iter().find(|(l, _)| *l == "protocol heap");
            row.map(|&(_, bytes)| bytes)
        };
        assert_eq!(protocol_heap(&sim), Some(0));
        sim.node_mut(NodeId::new(3)).timer_fired.reserve_exact(5);
        sim.node_mut(NodeId::new(9)).timer_fired.reserve_exact(2);
        assert_eq!(protocol_heap(&sim), Some(7 * 8));

        // Once events have flowed, the page pool, the current-bucket buffer
        // and the run loop's batch buffer hold capacity beyond the pending
        // entries, reported next to them: here the 31 echoes have all been
        // delivered, so the queue is empty and every byte it keeps is slack.
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.pending_events(), 0);
        let f = sim.memory_footprint();
        let component = |label: &str| {
            f.components()
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, b)| *b)
        };
        assert_eq!(component("pending events"), Some(0));
        let entry = std::mem::size_of::<Event<Msg>>() as u64;
        let queue = &sim.sub.queue;
        let batch = sim.batch.capacity() as u64 * entry;
        assert!(batch > 0, "the batch buffer took a drained bucket");
        assert_eq!(
            component("event queue slack"),
            Some(queue.retained_bytes() + batch)
        );
    }

    #[test]
    #[should_panic(expected = "cannot schedule a crash of node 3: the simulation has 3 nodes")]
    fn scheduling_a_crash_of_an_unknown_node_is_rejected_at_the_call() {
        build(3).schedule_crash(NodeId::new(3), SimTime::from_millis(1));
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
        let Ok(processed) = sim.run_to_completion();
        assert!(processed > 0);
        assert_eq!(sim.pending_events(), 0);
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

    /// Constant zero latency plus an instant echo makes every delivery share
    /// instant 0, so drained batches interleave with eager pushes into the
    /// current instant; the outcome (callback counts, stats) must match the
    /// reference core exactly.
    #[test]
    fn zero_latency_same_instant_deliveries_match_the_reference() {
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
    /// ahead of) three deliveries to the crashed node: each must count as a
    /// dead-destination message, exactly like the reference core.
    #[test]
    fn same_instant_crash_matches_the_reference() {
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
            // before the three echoes, which all reach a dead node.
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
