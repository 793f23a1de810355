//! Per-node and network-wide traffic statistics.
//!
//! [`NetStats`] keeps one [`NodeStats`] row per node in a dense vector
//! indexed by [`NodeId::index`]. The simulator sizes it once, at
//! construction, for its fixed and dense node population, so every
//! per-event recording method is a plain indexed add.

use crate::node::NodeId;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Message counters for a single node.
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

/// Traffic statistics for the whole simulation: one [`NodeStats`] row per
/// node.
///
/// Recording for a node id outside `0..n` panics (the simulator only ever
/// uses dense ids). Determinism fingerprints
/// (`crates/simnet/tests/scheduler_core.rs`) hash the derived `Debug`
/// rendering.
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
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetStats {
    per_node: Vec<NodeStats>,
    /// Sum of queueing delays experienced by all departed messages.
    pub total_queueing_delay: SimDuration,
}

impl NetStats {
    /// Creates statistics for `n` nodes.
    pub fn new(n: usize) -> Self {
        NetStats {
            per_node: vec![NodeStats::default(); n],
            total_queueing_delay: SimDuration::ZERO,
        }
    }

    /// The number of nodes the statistics cover.
    pub fn len(&self) -> usize {
        self.per_node.len()
    }

    /// Returns `true` if the statistics cover no nodes.
    pub fn is_empty(&self) -> bool {
        self.per_node.is_empty()
    }

    /// The row of `id`, by reference (the engine's look-ahead hints it).
    #[inline]
    pub(crate) fn row(&self, id: NodeId) -> &NodeStats {
        &self.per_node[id.index()]
    }

    /// Records a message of `bytes` bytes handed to `from`'s upload queue.
    #[inline]
    pub fn record_send(&mut self, from: NodeId, bytes: usize) {
        let s = &mut self.per_node[from.index()];
        s.messages_sent += 1;
        s.bytes_sent += bytes as u64;
    }

    /// Records a message of `bytes` bytes delivered to `to`.
    #[inline]
    pub fn record_delivery(&mut self, to: NodeId, bytes: usize) {
        let s = &mut self.per_node[to.index()];
        s.messages_delivered += 1;
        s.bytes_delivered += bytes as u64;
    }

    /// Records a message from `from` dropped by the network.
    #[inline]
    pub fn record_loss(&mut self, from: NodeId) {
        self.per_node[from.index()].messages_lost += 1;
    }

    /// Records a message addressed to the crashed node `to`.
    #[inline]
    pub fn record_to_dead(&mut self, to: NodeId) {
        self.per_node[to.index()].messages_to_dead += 1;
    }

    /// Records a message dropped at `from` because its upload queue was full.
    #[inline]
    pub fn record_queue_drop(&mut self, from: NodeId) {
        self.per_node[from.index()].messages_dropped_queue += 1;
    }

    /// Total messages dropped because of full upload queues.
    pub fn total_queue_drops(&self) -> u64 {
        self.per_node.iter().map(|s| s.messages_dropped_queue).sum()
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

    /// Observed network-wide loss rate (lost / sent), or 0 if nothing was sent.
    pub fn loss_rate(&self) -> f64 {
        let sent = self.total_messages_sent();
        if sent == 0 {
            0.0
        } else {
            self.total_messages_lost() as f64 / sent as f64
        }
    }

    /// Resident heap held by the per-node rows, in bytes (seven `u64`
    /// counters — 56 bytes per node). Feeds the [`MemoryFootprint`]
    /// accounting of the scale campaign.
    pub fn heap_bytes(&self) -> u64 {
        (self.per_node.capacity() * std::mem::size_of::<NodeStats>()) as u64
    }
}

/// An itemised estimate of a simulator's resident heap — the
/// `bytes_per_node` accounting hook of the scale campaign (`docs/SCALE.md`).
///
/// Built by `Simulator::memory_footprint`, which records one `(label,
/// bytes)` entry per component (protocol state, the heap the protocols
/// report owning, traffic statistics, pending events, upload queues, RNG
/// streams, liveness);
/// [`bytes_per_node`](MemoryFootprint::bytes_per_node) divides the total by
/// the node population so runs at different scales compare directly.
///
/// The numbers are capacity-based estimates (`Vec` capacities × element
/// sizes), not allocator measurements: they explain *where* the bytes live
/// and how they scale with n. The allocator's ground-truth peak
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
    #[should_panic]
    fn recording_out_of_range_panics() {
        let mut s = NetStats::new(1);
        s.record_send(NodeId::new(9), 1);
    }

    #[test]
    fn debug_renders_one_row_per_node() {
        // Determinism fingerprints hash this string.
        let mut s = NetStats::new(2);
        s.record_send(NodeId::new(0), 10);
        s.total_queueing_delay += SimDuration::from_micros(17);
        assert_eq!(
            format!("{s:?}"),
            format!(
                "NetStats {{ per_node: [{:?}, {:?}], total_queueing_delay: {:?} }}",
                s.node(NodeId::new(0)),
                NodeStats::default(),
                SimDuration::from_micros(17)
            )
        );
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
    fn stats_heap_bytes_counts_the_rows() {
        let s = NetStats::new(10);
        // Seven u64 counters per row, capacity == length right after new().
        assert_eq!(s.heap_bytes(), 7 * 10 * 8);
    }
}
