//! Per-node and network-wide traffic statistics.
//!
//! Since PR 4 the network-wide accumulator ([`NetStats`]) stores its counters
//! in a *struct-of-arrays* layout: one dense `Vec<u64>` per counter, indexed
//! directly by [`NodeId::index`]. The per-event recording methods are plain
//! indexed adds — no capacity check, no lazy growth — because the simulator
//! sizes the arrays once, at construction, for the (fixed and dense) node
//! population. The previous Vec-of-structs layout is retained as
//! [`ReferenceNetStats`], the differential oracle that the regression tests
//! drive with randomized operation streams to pin the two layouts to
//! identical semantics.

use crate::node::NodeId;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Message counters for a single node.
///
/// [`NetStats`] stores these fields column-wise; this struct is the row view
/// assembled on demand by [`NetStats::node`] and [`NetStats::iter`] (it is
/// also the storage type of the retained [`ReferenceNetStats`] oracle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Messages this node handed to its upload queue.
    pub messages_sent: u64,
    /// Bytes this node handed to its upload queue.
    pub bytes_sent: u64,
    /// Messages delivered to this node.
    pub messages_delivered: u64,
    /// Bytes delivered to this node.
    pub bytes_delivered: u64,
    /// Messages sent by this node that the network dropped.
    pub messages_lost: u64,
    /// Messages addressed to this node that were discarded because the node
    /// had crashed.
    pub messages_to_dead: u64,
    /// Messages this node tried to send but dropped because its upload queue
    /// backlog exceeded the configured limit.
    pub messages_dropped_queue: u64,
}

/// Traffic statistics for the whole simulation, in a struct-of-arrays layout.
///
/// Every recording method indexes dense per-counter arrays sized at
/// construction; recording for a node id outside `0..n` panics (the simulator
/// only ever uses dense ids, and the panic is a bounds check the layout needs
/// anyway). The `Debug` rendering deliberately matches the pre-PR-4
/// Vec-of-structs layout field for field, because determinism fingerprints
/// (`crates/simnet/tests/scheduler_core.rs`) hash it.
///
/// The `Serialize`/`Deserialize` derives are inert markers under the
/// in-tree serde shim (nothing in the workspace serializes `NetStats`).
/// If the real serde crates are ever swapped in, note that the derived
/// wire shape follows this storage layout — seven parallel arrays — not
/// the pre-PR-4 `per_node` row form; mirror the custom `Debug` impl with a
/// custom `Serialize` at that point if row-shaped output is needed.
///
/// # Examples
///
/// ```
/// use heap_simnet::stats::NetStats;
/// use heap_simnet::node::NodeId;
/// let mut stats = NetStats::new(2);
/// stats.record_send(NodeId::new(0), 100);
/// stats.record_delivery(NodeId::new(1), 100);
/// assert_eq!(stats.total_messages_sent(), 1);
/// assert_eq!(stats.total_messages_delivered(), 1);
/// assert_eq!(stats.node(NodeId::new(1)).bytes_delivered, 100);
/// ```
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct NetStats {
    messages_sent: Vec<u64>,
    bytes_sent: Vec<u64>,
    messages_delivered: Vec<u64>,
    bytes_delivered: Vec<u64>,
    messages_lost: Vec<u64>,
    messages_to_dead: Vec<u64>,
    messages_dropped_queue: Vec<u64>,
    /// Sum of queueing delays experienced by all departed messages.
    pub total_queueing_delay: SimDuration,
}

impl NetStats {
    /// Creates statistics for `n` nodes.
    pub fn new(n: usize) -> Self {
        NetStats {
            messages_sent: vec![0; n],
            bytes_sent: vec![0; n],
            messages_delivered: vec![0; n],
            bytes_delivered: vec![0; n],
            messages_lost: vec![0; n],
            messages_to_dead: vec![0; n],
            messages_dropped_queue: vec![0; n],
            total_queueing_delay: SimDuration::ZERO,
        }
    }

    /// The number of nodes the statistics cover.
    pub fn len(&self) -> usize {
        self.messages_sent.len()
    }

    /// Returns `true` if the statistics cover no nodes.
    pub fn is_empty(&self) -> bool {
        self.messages_sent.is_empty()
    }

    /// Records a message of `bytes` bytes handed to `from`'s upload queue.
    #[inline]
    pub fn record_send(&mut self, from: NodeId, bytes: usize) {
        let i = from.index();
        self.messages_sent[i] += 1;
        self.bytes_sent[i] += bytes as u64;
    }

    /// Records a message of `bytes` bytes delivered to `to`.
    #[inline]
    pub fn record_delivery(&mut self, to: NodeId, bytes: usize) {
        let i = to.index();
        self.messages_delivered[i] += 1;
        self.bytes_delivered[i] += bytes as u64;
    }

    /// Records `count` messages totalling `bytes` bytes delivered to `to` —
    /// the batched form the simulator uses when it drains a same-tick
    /// delivery run in one callback context.
    #[inline]
    pub fn record_deliveries(&mut self, to: NodeId, count: u64, bytes: u64) {
        let i = to.index();
        self.messages_delivered[i] += count;
        self.bytes_delivered[i] += bytes;
    }

    /// Records a message from `from` dropped by the network.
    #[inline]
    pub fn record_loss(&mut self, from: NodeId) {
        self.messages_lost[from.index()] += 1;
    }

    /// Records a message addressed to the crashed node `to`.
    #[inline]
    pub fn record_to_dead(&mut self, to: NodeId) {
        self.messages_to_dead[to.index()] += 1;
    }

    /// Records `count` messages addressed to the crashed node `to` (batched
    /// counterpart of [`NetStats::record_to_dead`]).
    #[inline]
    pub fn record_to_dead_n(&mut self, to: NodeId, count: u64) {
        self.messages_to_dead[to.index()] += count;
    }

    /// Records a message dropped at `from` because its upload queue was full.
    #[inline]
    pub fn record_queue_drop(&mut self, from: NodeId) {
        self.messages_dropped_queue[from.index()] += 1;
    }

    /// Total messages dropped because of full upload queues.
    pub fn total_queue_drops(&self) -> u64 {
        self.messages_dropped_queue.iter().sum()
    }

    /// Counters of a single node, assembled from the per-counter columns.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> NodeStats {
        let i = id.index();
        NodeStats {
            messages_sent: self.messages_sent[i],
            bytes_sent: self.bytes_sent[i],
            messages_delivered: self.messages_delivered[i],
            bytes_delivered: self.bytes_delivered[i],
            messages_lost: self.messages_lost[i],
            messages_to_dead: self.messages_to_dead[i],
            messages_dropped_queue: self.messages_dropped_queue[i],
        }
    }

    /// Iterates over `(NodeId, NodeStats)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeStats)> + '_ {
        (0..self.len()).map(|i| {
            let id = NodeId::new(i as u32);
            (id, self.node(id))
        })
    }

    /// Total messages handed to upload queues.
    pub fn total_messages_sent(&self) -> u64 {
        self.messages_sent.iter().sum()
    }

    /// Total messages delivered.
    pub fn total_messages_delivered(&self) -> u64 {
        self.messages_delivered.iter().sum()
    }

    /// Total messages dropped by the network.
    pub fn total_messages_lost(&self) -> u64 {
        self.messages_lost.iter().sum()
    }

    /// Total bytes handed to upload queues.
    pub fn total_bytes_sent(&self) -> u64 {
        self.bytes_sent.iter().sum()
    }

    /// Observed network-wide loss rate (lost / sent), or 0 if nothing was sent.
    pub fn loss_rate(&self) -> f64 {
        let sent = self.total_messages_sent();
        if sent == 0 {
            0.0
        } else {
            self.total_messages_lost() as f64 / sent as f64
        }
    }

    /// Mean upload queueing delay per departed message (delivered plus lost —
    /// both left a queue), or `None` if nothing departed. The observability
    /// export reports this next to the raw
    /// [`total_queueing_delay`](NetStats::total_queueing_delay) sum.
    pub fn mean_queueing_delay(&self) -> Option<SimDuration> {
        let departed = self.total_messages_delivered() + self.total_messages_lost();
        self.total_queueing_delay
            .as_micros()
            .checked_div(departed)
            .map(SimDuration::from_micros)
    }

    /// Resident heap held by the counter columns, in bytes (seven dense
    /// `u64` columns — 56 bytes per node). Feeds the [`MemoryFootprint`]
    /// accounting of the scale campaign.
    pub fn heap_bytes(&self) -> u64 {
        let columns = [
            &self.messages_sent,
            &self.bytes_sent,
            &self.messages_delivered,
            &self.bytes_delivered,
            &self.messages_lost,
            &self.messages_to_dead,
            &self.messages_dropped_queue,
        ];
        columns
            .iter()
            .map(|c| (c.capacity() * std::mem::size_of::<u64>()) as u64)
            .sum()
    }
}

/// An itemised estimate of a simulator's resident heap — the
/// `bytes_per_node` accounting hook of the scale campaign (`docs/SCALE.md`).
///
/// Built by `Simulator::memory_footprint`, which records one `(label,
/// bytes)` entry per substrate component (statistics columns, pending
/// events, upload queues, RNG streams, timer slots, protocol state);
/// [`bytes_per_node`](MemoryFootprint::bytes_per_node) divides the total by
/// the node population so runs at different scales compare directly.
///
/// The numbers are capacity-based estimates (`Vec` capacities × element
/// sizes), not allocator measurements: they explain *where* the substrate's
/// bytes live and how they scale with n. The allocator's ground-truth peak
/// is enforced separately by the counting-allocator regression guard
/// (`crates/workloads/tests/memory_guard.rs`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    n_nodes: usize,
    components: Vec<(&'static str, u64)>,
}

impl MemoryFootprint {
    /// Creates an empty footprint for a population of `n_nodes`.
    pub fn new(n_nodes: usize) -> Self {
        MemoryFootprint {
            n_nodes,
            components: Vec::new(),
        }
    }

    /// Adds `bytes` under `label`, accumulating into an existing entry with
    /// the same label (the reference core adds its heap's pending events to
    /// the engine queue's).
    pub fn record(&mut self, label: &'static str, bytes: u64) {
        match self.components.iter_mut().find(|(l, _)| *l == label) {
            Some((_, total)) => *total += bytes,
            None => self.components.push((label, bytes)),
        }
    }

    /// The recorded `(label, bytes)` entries, in first-recorded order.
    pub fn components(&self) -> &[(&'static str, u64)] {
        &self.components
    }

    /// The node population the footprint covers.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Sum of all recorded component bytes.
    pub fn total_bytes(&self) -> u64 {
        self.components.iter().map(|(_, b)| b).sum()
    }

    /// Total bytes divided by the node population (0 for an empty
    /// population).
    pub fn bytes_per_node(&self) -> f64 {
        if self.n_nodes == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.n_nodes as f64
        }
    }
}

/// Renders exactly like the pre-PR-4 Vec-of-structs derive
/// (`NetStats { per_node: [NodeStats { .. }, ..], total_queueing_delay: .. }`),
/// so the determinism fingerprints that hash this rendering survive the
/// layout change — which is precisely the bit-identity the tests pin.
impl fmt::Debug for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct PerNode<'a>(&'a NetStats);
        impl fmt::Debug for PerNode<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list()
                    .entries(self.0.iter().map(|(_, s)| s))
                    .finish()
            }
        }
        f.debug_struct("NetStats")
            .field("per_node", &PerNode(self))
            .field("total_queueing_delay", &self.total_queueing_delay)
            .finish()
    }
}

/// The pre-PR-4 Vec-of-structs (array-of-structs) statistics accumulator,
/// retained as the differential oracle for [`NetStats`].
///
/// It exposes the same recording and totals API and grows lazily on
/// out-of-range ids exactly as the old implementation did; the regression
/// tests (`crates/simnet/tests/stats_differential.rs`) replay randomized
/// operation streams into both accumulators and require every counter to
/// agree, which pins the struct-of-arrays layout to the original semantics.
#[derive(Debug, Clone, Default)]
pub struct ReferenceNetStats {
    per_node: Vec<NodeStats>,
    /// Sum of queueing delays experienced by all departed messages.
    pub total_queueing_delay: SimDuration,
}

impl ReferenceNetStats {
    /// Creates statistics for `n` nodes.
    pub fn new(n: usize) -> Self {
        ReferenceNetStats {
            per_node: vec![NodeStats::default(); n],
            total_queueing_delay: SimDuration::ZERO,
        }
    }

    fn ensure(&mut self, id: NodeId) -> &mut NodeStats {
        if id.index() >= self.per_node.len() {
            self.per_node.resize(id.index() + 1, NodeStats::default());
        }
        &mut self.per_node[id.index()]
    }

    /// Records a message of `bytes` bytes handed to `from`'s upload queue.
    pub fn record_send(&mut self, from: NodeId, bytes: usize) {
        let s = self.ensure(from);
        s.messages_sent += 1;
        s.bytes_sent += bytes as u64;
    }

    /// Records a message of `bytes` bytes delivered to `to`.
    pub fn record_delivery(&mut self, to: NodeId, bytes: usize) {
        let s = self.ensure(to);
        s.messages_delivered += 1;
        s.bytes_delivered += bytes as u64;
    }

    /// Records a message from `from` dropped by the network.
    pub fn record_loss(&mut self, from: NodeId) {
        self.ensure(from).messages_lost += 1;
    }

    /// Records a message addressed to the crashed node `to`.
    pub fn record_to_dead(&mut self, to: NodeId) {
        self.ensure(to).messages_to_dead += 1;
    }

    /// Records a message dropped at `from` because its upload queue was full.
    pub fn record_queue_drop(&mut self, from: NodeId) {
        self.ensure(from).messages_dropped_queue += 1;
    }

    /// Counters of a single node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> NodeStats {
        self.per_node[id.index()]
    }

    /// Iterates over `(NodeId, NodeStats)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeStats)> + '_ {
        self.per_node
            .iter()
            .enumerate()
            .map(|(i, s)| (NodeId::new(i as u32), *s))
    }

    /// Total messages handed to upload queues.
    pub fn total_messages_sent(&self) -> u64 {
        self.per_node.iter().map(|s| s.messages_sent).sum()
    }

    /// Total messages delivered.
    pub fn total_messages_delivered(&self) -> u64 {
        self.per_node.iter().map(|s| s.messages_delivered).sum()
    }

    /// Total messages dropped by the network.
    pub fn total_messages_lost(&self) -> u64 {
        self.per_node.iter().map(|s| s.messages_lost).sum()
    }

    /// Total bytes handed to upload queues.
    pub fn total_bytes_sent(&self) -> u64 {
        self.per_node.iter().map(|s| s.bytes_sent).sum()
    }

    /// Total messages dropped because of full upload queues.
    pub fn total_queue_drops(&self) -> u64 {
        self.per_node.iter().map(|s| s.messages_dropped_queue).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats::new(3);
        s.record_send(NodeId::new(0), 10);
        s.record_send(NodeId::new(0), 20);
        s.record_delivery(NodeId::new(1), 10);
        s.record_loss(NodeId::new(0));
        s.record_to_dead(NodeId::new(2));
        assert_eq!(s.node(NodeId::new(0)).messages_sent, 2);
        assert_eq!(s.node(NodeId::new(0)).bytes_sent, 30);
        assert_eq!(s.node(NodeId::new(0)).messages_lost, 1);
        assert_eq!(s.node(NodeId::new(1)).messages_delivered, 1);
        assert_eq!(s.node(NodeId::new(2)).messages_to_dead, 1);
        assert_eq!(s.total_messages_sent(), 2);
        assert_eq!(s.total_messages_delivered(), 1);
        assert_eq!(s.total_messages_lost(), 1);
        assert_eq!(s.total_bytes_sent(), 30);
        assert!((s.loss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn loss_rate_with_no_traffic_is_zero() {
        let s = NetStats::new(1);
        assert_eq!(s.loss_rate(), 0.0);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn mean_queueing_delay_averages_over_departures() {
        let mut s = NetStats::new(2);
        assert_eq!(s.mean_queueing_delay(), None, "no departures yet");
        s.record_delivery(NodeId::new(1), 10);
        s.record_delivery(NodeId::new(1), 10);
        s.record_loss(NodeId::new(0));
        s.total_queueing_delay += SimDuration::from_micros(300);
        assert_eq!(
            s.mean_queueing_delay(),
            Some(SimDuration::from_micros(100)),
            "delivered and lost messages both departed a queue"
        );
    }

    #[test]
    fn batched_records_match_singles() {
        let mut batched = NetStats::new(4);
        let mut single = NetStats::new(4);
        batched.record_deliveries(NodeId::new(2), 3, 300);
        batched.record_to_dead_n(NodeId::new(1), 2);
        for _ in 0..3 {
            single.record_delivery(NodeId::new(2), 100);
        }
        for _ in 0..2 {
            single.record_to_dead(NodeId::new(1));
        }
        assert_eq!(batched.node(NodeId::new(2)), single.node(NodeId::new(2)));
        assert_eq!(batched.node(NodeId::new(1)), single.node(NodeId::new(1)));
    }

    #[test]
    #[should_panic]
    fn recording_out_of_range_panics() {
        let mut s = NetStats::new(1);
        s.record_send(NodeId::new(9), 1);
    }

    #[test]
    fn debug_matches_reference_layout_rendering() {
        // The SoA accumulator must render exactly like the retained
        // Vec-of-structs derive: determinism fingerprints hash this string.
        let mut soa = NetStats::new(2);
        let mut aos = ReferenceNetStats::new(2);
        for s in [&mut soa as &mut dyn StatsOps, &mut aos as &mut dyn StatsOps] {
            s.send(NodeId::new(0), 10);
            s.delivery(NodeId::new(1), 10);
            s.loss(NodeId::new(0));
        }
        soa.total_queueing_delay += SimDuration::from_micros(17);
        aos.total_queueing_delay += SimDuration::from_micros(17);
        // The reference derive renders its own type name; everything after it
        // must match byte for byte.
        let expected = format!("{aos:?}").replace("ReferenceNetStats", "NetStats");
        assert_eq!(format!("{soa:?}"), expected);
        assert!(format!("{soa:?}").starts_with("NetStats { per_node: [NodeStats {"));
    }

    /// Object-safe adapter so tests can drive both accumulators uniformly.
    trait StatsOps {
        fn send(&mut self, from: NodeId, bytes: usize);
        fn delivery(&mut self, to: NodeId, bytes: usize);
        fn loss(&mut self, from: NodeId);
    }

    impl StatsOps for NetStats {
        fn send(&mut self, from: NodeId, bytes: usize) {
            self.record_send(from, bytes);
        }
        fn delivery(&mut self, to: NodeId, bytes: usize) {
            self.record_delivery(to, bytes);
        }
        fn loss(&mut self, from: NodeId) {
            self.record_loss(from);
        }
    }

    impl StatsOps for ReferenceNetStats {
        fn send(&mut self, from: NodeId, bytes: usize) {
            self.record_send(from, bytes);
        }
        fn delivery(&mut self, to: NodeId, bytes: usize) {
            self.record_delivery(to, bytes);
        }
        fn loss(&mut self, from: NodeId) {
            self.record_loss(from);
        }
    }

    #[test]
    fn footprint_accumulates_and_normalises() {
        let mut f = MemoryFootprint::new(100);
        f.record("stats", 5_600);
        f.record("events", 1_000);
        f.record("stats", 400);
        assert_eq!(f.n_nodes(), 100);
        assert_eq!(f.total_bytes(), 7_000);
        assert!((f.bytes_per_node() - 70.0).abs() < 1e-12);
        assert_eq!(f.components(), &[("stats", 6_000), ("events", 1_000)]);
        assert_eq!(MemoryFootprint::new(0).bytes_per_node(), 0.0);
    }

    #[test]
    fn stats_heap_bytes_counts_the_columns() {
        let s = NetStats::new(10);
        // Seven dense u64 columns, capacity == length right after new().
        assert_eq!(s.heap_bytes(), 7 * 10 * 8);
    }

    #[test]
    fn reference_accumulator_grows_on_demand() {
        let mut s = ReferenceNetStats::new(1);
        s.record_send(NodeId::new(9), 1);
        assert_eq!(s.node(NodeId::new(9)).messages_sent, 1);
        assert_eq!(s.iter().count(), 10);
    }
}
