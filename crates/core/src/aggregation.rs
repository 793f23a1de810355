//! HEAP's capability-aggregation protocol (Algorithm 2, lines 11–16).
//!
//! Every node periodically gossips the freshest capability samples it knows
//! (its own plus what it heard from others). Merging the received samples
//! gives every node a continuously refreshed estimate of the *average* upload
//! capability of the system, which is the denominator of HEAP's fanout rule
//! `f_p = f · b_p / b̄`.

use heap_simnet::bandwidth::Bandwidth;
use heap_simnet::node::NodeId;
use heap_simnet::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::num::NonZeroU64;

/// One capability sample: a node, its advertised upload capability, and when
/// the sample was taken at its origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapabilitySample {
    /// The node the sample describes.
    pub node: NodeId,
    /// The advertised upload capability.
    pub capability: Bandwidth,
    /// When the sample was produced by `node` itself.
    pub timestamp: SimTime,
}

/// Per-node state of the aggregation protocol.
///
/// The owner's sample lives in its own field. The freshest known sample of
/// every *other* node sits in a dense table indexed by [`NodeId::index`],
/// which only [`merge`](Self::merge) grows, to exactly the highest id heard
/// so far. An aggregator that never merged (every node at build, every
/// standard-gossip node for good) therefore owns no heap memory at all; one
/// that did pays 16 B per id up to the highest it heard (a slot holds the
/// capability and the timestamp; its index names the node), and a lookup is
/// one bounds check and one load. Ids arrive in random order, so the table is
/// regrown O(log highest id) times in expectation.
///
/// Two derived values are kept in step with the samples by the private
/// `upsert` and by [`forget`](Self::forget), the only two places that write
/// them:
///
/// 1. `sum_bps` is the exact `u64` sum of every held capability, the
///    owner's included, so [`estimated_average`](Self::estimated_average) is
///    one division.
/// 2. While `cached_n` is `Some(n)`, `freshest` is the first `n` held
///    samples in `(timestamp desc, node asc)` order: the payload of the
///    next aggregation round.
///
/// A held sample is normally replaced only by a fresher one, which can
/// only raise its rank, so the new top `n` is a subset of the old top `n`
/// plus the written sample. One comparison against the cached tail rejects a
/// sample that does not make it; one that does costs O(`n`). Three
/// operations can lower a rank or remove a cached entry and therefore only
/// mark the cache stale (`cached_n = None`): `forget` of a known node that
/// the cache may hold (any, unless the cache is full and its tail outranks
/// the forgotten sample), a write of the own sample with an earlier `now`
/// (`set_own_capability`, `freshest_samples`), and `freshest_samples` with a
/// different `n`. The next `freshest_samples` then rebuilds the cache with a
/// full sort.
///
/// No table order reaches behaviour: the table is read by index, and the
/// one full pass over it (`scan_freshest`) sorts what it collects by
/// `(timestamp desc, node asc)`, a total order over distinct nodes.
///
/// Costs per call, with `n` the payload size: `estimated_average` O(1);
/// `merge` first reads the slot of every received sample, so that their
/// cache misses overlap instead of each waiting on the last sample's work,
/// then applies the samples in order, one load (now a hit) per sample plus
/// O(`n`) per accepted one; `freshest_samples` O(`n`), or a scan and sort
/// of the table after an invalidation; `forget` O(1). A node that never
/// calls `freshest_samples` (standard gossip) never builds the cache and
/// allocates nothing for it.
///
/// # Examples
///
/// ```
/// use heap_gossip::aggregation::CapabilityAggregator;
/// use heap_simnet::bandwidth::Bandwidth;
/// use heap_simnet::node::NodeId;
/// use heap_simnet::time::SimTime;
///
/// let mut agg = CapabilityAggregator::new(NodeId::new(1), Bandwidth::from_kbps(512));
/// // Before hearing from anyone the estimate is the node's own capability.
/// assert_eq!(agg.estimated_average(), Bandwidth::from_kbps(512));
/// assert!((agg.relative_capability() - 1.0).abs() < 1e-9);
///
/// // Learn that another node has 3 Mbps.
/// let samples = agg.freshest_samples(10, SimTime::ZERO);
/// let mut other = CapabilityAggregator::new(NodeId::new(2), Bandwidth::from_mbps(3));
/// other.merge(&samples);
/// assert_eq!(other.estimated_average().as_kbps(), (3000.0 + 512.0) / 2.0);
/// assert!(other.relative_capability() > 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct CapabilityAggregator {
    /// Our own sample: who we are, what we advertise, and when it was last
    /// refreshed.
    own: CapabilitySample,
    /// Freshest known sample of every other node, at `NodeId::index()`.
    samples: Vec<Option<Slot>>,
    /// Number of occupied slots in `samples`.
    known: usize,
    /// Sum of the capabilities in `own` and `samples`, in bps.
    sum_bps: u64,
    /// The `cached_n` freshest samples in payload order; meaningful only
    /// while `cached_n` is `Some`.
    freshest: Vec<CapabilitySample>,
    /// The payload size `freshest` is maintained for; `None` while stale.
    cached_n: Option<usize>,
}

/// A held sample of another node without its id, which is the slot's index:
/// 16 bytes, and `Option<Slot>` as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    bps: u64,
    /// The timestamp in microseconds plus one, never zero (saturating at
    /// the last representable microsecond, which no run reaches).
    stamp: NonZeroU64,
}

const _: () = assert!(std::mem::size_of::<Option<Slot>>() == 16);

impl Slot {
    fn new(sample: &CapabilitySample) -> Self {
        Slot {
            bps: sample.capability.as_bps(),
            stamp: NonZeroU64::MIN.saturating_add(sample.timestamp.as_micros()),
        }
    }

    fn timestamp(self) -> SimTime {
        SimTime::from_micros(self.stamp.get() - 1)
    }

    fn sample(self, node: NodeId) -> CapabilitySample {
        CapabilitySample {
            node,
            capability: Bandwidth::from_bps(self.bps),
            timestamp: self.timestamp(),
        }
    }
}

/// Payload order: freshest first, ties by ascending node id.
fn payload_order(a: &CapabilitySample, b: &CapabilitySample) -> Ordering {
    b.timestamp.cmp(&a.timestamp).then(a.node.cmp(&b.node))
}

impl CapabilityAggregator {
    /// Creates the aggregation state of `own` with its advertised capability.
    pub fn new(own: NodeId, own_capability: Bandwidth) -> Self {
        CapabilityAggregator {
            own: CapabilitySample {
                node: own,
                capability: own_capability,
                timestamp: SimTime::ZERO,
            },
            samples: Vec::new(),
            known: 0,
            sum_bps: own_capability.as_bps(),
            freshest: Vec::new(),
            cached_n: None,
        }
    }

    /// The node owning this aggregator.
    pub fn owner(&self) -> NodeId {
        self.own.node
    }

    /// The node's own advertised capability.
    pub fn own_capability(&self) -> Bandwidth {
        self.own.capability
    }

    /// The single point that adds or replaces a held sample; keeps `sum_bps`
    /// and the freshest cache in step. Our own sample is always overwritten
    /// (only the owner writes it); anyone else's only by a strictly fresher
    /// one. Returns whether `sample` was stored.
    fn upsert(&mut self, sample: CapabilitySample) -> bool {
        let old = if sample.node == self.own.node {
            Some(std::mem::replace(&mut self.own, sample))
        } else {
            let at = sample.node.index();
            if at >= self.samples.len() {
                // Exactly as far as the highest id heard, not amortised: the
                // table stands for the whole run and regrowth is rare.
                self.samples.reserve_exact(at + 1 - self.samples.len());
                self.samples.resize(at + 1, None);
            }
            let slot = &mut self.samples[at];
            if slot.is_some_and(|held| sample.timestamp <= held.timestamp()) {
                return false;
            }
            let old = slot.replace(Slot::new(&sample));
            self.known += usize::from(old.is_none());
            old.map(|held| held.sample(sample.node))
        };
        self.sum_bps += sample.capability.as_bps();
        if let Some(old) = old {
            self.sum_bps -= old.capability.as_bps();
            if sample.timestamp < old.timestamp {
                // The rank fell: an uncached sample may now outrank it.
                self.cached_n = None;
            }
        }
        if let Some(n) = self.cached_n {
            self.promote(sample, n);
        }
        true
    }

    /// Places a just-stored sample, whose rank did not fall, in the valid
    /// cache of the `n` freshest.
    fn promote(&mut self, sample: CapabilitySample, n: usize) {
        // A full cache whose tail outranks the sample keeps it out. (Were the
        // node cached, its new rank would be at least the tail's.)
        if self.below_full_cache(&sample, n) {
            return;
        }
        if let Some(at) = self.freshest.iter().position(|s| s.node == sample.node) {
            self.freshest.remove(at);
        } else if self.freshest.len() == n {
            self.freshest.pop();
        }
        let at = self
            .freshest
            .partition_point(|s| payload_order(s, &sample) == Ordering::Less);
        self.freshest.insert(at, sample);
    }

    /// Whether the valid cache of the `n` freshest is full and its tail
    /// outranks `sample`: the sample is not cached and does not make it.
    fn below_full_cache(&self, sample: &CapabilitySample, n: usize) -> bool {
        self.freshest.len() == n
            && self
                .freshest
                .last()
                .is_none_or(|tail| payload_order(tail, sample) == Ordering::Less)
    }

    /// Every held sample, our own first. Callers must not let the order reach
    /// behaviour.
    fn held(&self) -> impl Iterator<Item = CapabilitySample> + '_ {
        let others =
            self.samples.iter().enumerate().filter_map(|(index, slot)| {
                slot.map(|slot| slot.sample(NodeId::new(index as u32)))
            });
        std::iter::once(self.own).chain(others)
    }

    /// The `n` freshest samples by full scan: what the cache must equal, and
    /// how it is rebuilt after an invalidation.
    fn scan_freshest(&self, n: usize) -> Vec<CapabilitySample> {
        let mut all: Vec<CapabilitySample> = self.held().collect();
        all.sort_by(payload_order);
        all.truncate(n);
        all
    }

    /// Updates the node's own capability (e.g. when the user changes the
    /// budget given to the application, or a bandwidth probe refines it).
    pub fn set_own_capability(&mut self, capability: Bandwidth, now: SimTime) {
        self.upsert(CapabilitySample {
            capability,
            timestamp: now,
            ..self.own
        });
    }

    /// Number of distinct nodes we hold a sample for (including ourselves).
    pub fn known_nodes(&self) -> usize {
        self.known + 1
    }

    /// Resident heap bytes held by this aggregator (beyond
    /// `size_of::<Self>()`): the sample table and the payload cache. Zero
    /// until the first [`merge`](Self::merge) or
    /// [`freshest_samples`](Self::freshest_samples).
    pub fn heap_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<Option<Slot>>()
            + self.freshest.capacity() * std::mem::size_of::<CapabilitySample>()
    }

    /// Merges samples received in an [Aggregation] message, keeping the
    /// freshest sample per node. Returns the number of samples that changed
    /// our state.
    ///
    /// [Aggregation]: crate::message::GossipMessage::Aggregation
    pub fn merge(&mut self, received: &[CapabilitySample]) -> usize {
        // Read pass: touch every addressed slot before writing any. The
        // loads are independent, so their cache misses overlap; the write
        // pass below then finds its slots in cache. Nothing read here is
        // kept, so a node that repeats within the payload is still applied
        // in order.
        let stamps = received.iter().fold(0, |acc, sample| {
            let held = self.samples.get(sample.node.index()).copied().flatten();
            acc ^ held.map_or(0, |held| held.stamp.get())
        });
        std::hint::black_box(stamps);
        let mut updated = 0;
        for sample in received {
            // Never let someone else overwrite our own advertised capability.
            if sample.node != self.own.node && self.upsert(*sample) {
                updated += 1;
            }
        }
        updated
    }

    /// Drops the sample of a node known to have failed so the average is not
    /// skewed by departed peers.
    ///
    /// There are no tombstones: the node is excluded from the next payload
    /// and from the average, but any later [`merge`](Self::merge) carrying a
    /// sample of it, however old, re-admits it. Peers that have not noticed
    /// the failure keep gossiping the sample, so it can return until they
    /// forget it too.
    pub fn forget(&mut self, node: NodeId) {
        if node == self.own.node {
            return;
        }
        // An id beyond the table end was never heard of.
        if let Some(old) = self.samples.get_mut(node.index()).and_then(Option::take) {
            self.known -= 1;
            self.sum_bps -= old.bps;
            // A full cache whose tail outranks the sample never held it, and
            // the same samples stay the freshest.
            if self
                .cached_n
                .is_none_or(|n| !self.below_full_cache(&old.sample(node), n))
            {
                self.cached_n = None;
            }
        }
    }

    /// Returns the `n` freshest samples (refreshing our own to `now` first),
    /// the payload of an outgoing [Aggregation] message.
    ///
    /// [Aggregation]: crate::message::GossipMessage::Aggregation
    pub fn freshest_samples(&mut self, n: usize, now: SimTime) -> Vec<CapabilitySample> {
        if self.cached_n != Some(n) {
            self.cached_n = None;
        }
        self.upsert(CapabilitySample {
            timestamp: now,
            ..self.own
        });
        if self.cached_n.is_none() {
            // Copied, not moved: the scan's buffer has room for every known
            // node.
            self.freshest.clone_from(&self.scan_freshest(n));
            self.cached_n = Some(n);
        }
        debug_assert_eq!(self.freshest, self.scan_freshest(n));
        self.freshest.clone()
    }

    /// The current estimate of the system-wide average upload capability
    /// (mean of all known samples; at least our own).
    pub fn estimated_average(&self) -> Bandwidth {
        debug_assert_eq!(
            self.sum_bps,
            self.held().map(|s| s.capability.as_bps()).sum::<u64>()
        );
        debug_assert_eq!(self.known, self.samples.iter().flatten().count());
        Bandwidth::from_bps(self.sum_bps / self.known_nodes() as u64)
    }

    /// `b_p / b̄`: the node's capability relative to the estimated average —
    /// the multiplier HEAP applies to the reference fanout.
    pub fn relative_capability(&self) -> f64 {
        let avg = self.estimated_average();
        if avg.as_bps() == 0 {
            1.0
        } else {
            self.own.capability.ratio(avg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(node: u32, kbps: u64, secs: u64) -> CapabilitySample {
        CapabilitySample {
            node: NodeId::new(node),
            capability: Bandwidth::from_kbps(kbps),
            timestamp: SimTime::from_secs(secs),
        }
    }

    #[test]
    fn initial_estimate_is_own_capability() {
        let agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(768));
        assert_eq!(agg.estimated_average(), Bandwidth::from_kbps(768));
        assert_eq!(agg.known_nodes(), 1);
        assert_eq!(agg.owner(), NodeId::new(0));
        assert_eq!(agg.own_capability(), Bandwidth::from_kbps(768));
        assert!((agg.relative_capability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_keeps_freshest_sample_per_node() {
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(512));
        assert_eq!(agg.merge(&[sample(1, 1000, 5)]), 1);
        // A staler sample for the same node is ignored.
        assert_eq!(agg.merge(&[sample(1, 2000, 3)]), 0);
        // A fresher one replaces it.
        assert_eq!(agg.merge(&[sample(1, 3000, 8)]), 1);
        let avg = agg.estimated_average();
        assert_eq!(avg, Bandwidth::from_kbps((512 + 3000) / 2));
    }

    #[test]
    fn merge_applies_a_payload_in_order_when_a_node_repeats() {
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(500));
        // 8 s is fresher than nothing, 3 s is staler than 8 s, 9 s wins.
        let first = [sample(5, 1000, 8), sample(5, 2000, 3), sample(5, 3000, 9)];
        assert_eq!(agg.merge(&first), 2);
        // Neither is fresher than the 9 s sample now held.
        assert_eq!(agg.merge(&[sample(5, 4000, 9), sample(5, 5000, 8)]), 0);
        let payload = agg.freshest_samples(10, SimTime::from_secs(20));
        assert_eq!(payload[1], sample(5, 3000, 9));
        assert_eq!(agg.known_nodes(), 2);
        assert_eq!(agg.estimated_average(), Bandwidth::from_kbps(1750));
    }

    #[test]
    fn forgetting_a_node_below_a_full_cache_keeps_the_cache() {
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(512));
        for i in 1..8 {
            agg.merge(&[sample(i, 700, u64::from(i))]);
        }
        let now = SimTime::from_secs(100);
        let before = agg.freshest_samples(3, now);
        // Node 1 holds the stalest sample, far below the cached tail.
        agg.forget(NodeId::new(1));
        assert_eq!(agg.cached_n, Some(3));
        assert_eq!(agg.freshest_samples(3, now), before);
        // Forgetting a cached node still invalidates.
        agg.forget(before[1].node);
        assert_eq!(agg.cached_n, None);
        assert_eq!(
            agg.freshest_samples(3, now)[1..],
            [before[2], sample(5, 700, 5)]
        );
    }

    #[test]
    fn merge_never_overwrites_own_sample() {
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(512));
        assert_eq!(agg.merge(&[sample(0, 99_999, 100)]), 0);
        assert_eq!(agg.estimated_average(), Bandwidth::from_kbps(512));
    }

    #[test]
    fn freshest_samples_sorted_and_truncated() {
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(512));
        for i in 1..20 {
            agg.merge(&[sample(i, 700, i as u64)]);
        }
        let freshest = agg.freshest_samples(10, SimTime::from_secs(100));
        assert_eq!(freshest.len(), 10);
        // Our own refreshed sample is the freshest of all.
        assert_eq!(freshest[0].node, NodeId::new(0));
        assert_eq!(freshest[0].timestamp, SimTime::from_secs(100));
        // The rest are in decreasing timestamp order.
        assert!(freshest
            .windows(2)
            .all(|w| w[0].timestamp >= w[1].timestamp));
    }

    #[test]
    fn a_zero_sample_at_time_zero_is_held_averaged_and_ranked() {
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(900));
        let zero = CapabilitySample {
            node: NodeId::new(4),
            capability: Bandwidth::from_bps(0),
            timestamp: SimTime::ZERO,
        };
        assert_eq!(agg.merge(&[zero, sample(2, 300, 1)]), 2);
        assert_eq!(agg.known_nodes(), 3);
        assert_eq!(agg.estimated_average(), Bandwidth::from_kbps(400));
        // Stalest of all, so last in the payload, read back unchanged.
        let payload = agg.freshest_samples(10, SimTime::from_secs(2));
        assert_eq!(payload.len(), 3);
        assert_eq!(payload[2], zero);
        // A sample no fresher than the held one does not replace it.
        assert_eq!(
            agg.merge(&[CapabilitySample {
                capability: Bandwidth::from_kbps(5),
                ..zero
            }]),
            0
        );
        agg.forget(zero.node);
        assert_eq!(agg.estimated_average(), Bandwidth::from_kbps(600));
    }

    #[test]
    fn forget_removes_dead_nodes_but_not_self() {
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(512));
        agg.merge(&[sample(1, 3000, 1)]);
        assert_eq!(agg.known_nodes(), 2);
        agg.forget(NodeId::new(1));
        assert_eq!(agg.known_nodes(), 1);
        agg.forget(NodeId::new(0));
        assert_eq!(agg.known_nodes(), 1, "own sample is never forgotten");
    }

    #[test]
    fn set_own_capability_updates_estimate() {
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(512));
        agg.set_own_capability(Bandwidth::from_mbps(2), SimTime::from_secs(4));
        assert_eq!(agg.own_capability(), Bandwidth::from_mbps(2));
        assert_eq!(agg.estimated_average(), Bandwidth::from_mbps(2));
        let freshest = agg.freshest_samples(5, SimTime::from_secs(5));
        assert_eq!(freshest[0].capability, Bandwidth::from_mbps(2));
    }

    #[test]
    fn relative_capability_converges_to_true_ratio() {
        // A rich node in a poor system: 3 Mbps among many 512 kbps nodes.
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_mbps(3));
        for i in 1..=9 {
            agg.merge(&[sample(i, 512, 1)]);
        }
        // True average = (3000 + 9*512)/10 = 760.8 kbps; ratio ≈ 3.94.
        let ratio = agg.relative_capability();
        assert!((ratio - 3000.0 / 760.8).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn gossip_exchange_converges_all_nodes_to_global_average() {
        // Simulate a few rounds of all-to-all sample exchange and verify every
        // node's estimate converges to the true average.
        let caps = [512u64, 512, 768, 768, 768, 2000, 2000, 3000];
        let true_avg: u64 = caps.iter().sum::<u64>() / caps.len() as u64;
        let mut aggs: Vec<CapabilityAggregator> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                CapabilityAggregator::new(NodeId::new(i as u32), Bandwidth::from_kbps(c))
            })
            .collect();
        for round in 0..10 {
            let now = SimTime::from_secs(round + 1);
            // Ring exchange: i sends to (i+1) % n.
            let outgoing: Vec<Vec<CapabilitySample>> = aggs
                .iter_mut()
                .map(|a| a.freshest_samples(10, now))
                .collect();
            let n = aggs.len();
            for (i, samples) in outgoing.into_iter().enumerate() {
                aggs[(i + 1) % n].merge(&samples);
            }
        }
        for agg in &aggs {
            let est = agg.estimated_average().as_kbps();
            assert!(
                (est - true_avg as f64).abs() / (true_avg as f64) < 0.25,
                "estimate {est} too far from {true_avg}"
            );
        }
    }
}
