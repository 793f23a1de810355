//! Declarative, seed-deterministic fault injection.
//!
//! A [`FaultPlan`] is a time-ordered schedule of *fault epochs* the simulator
//! applies inside its ordinary event loop — no out-of-band mutation, no extra
//! randomness. Two fault classes live at this layer because they touch the
//! network substrate itself:
//!
//! * **partition / heal** ([`FaultPlan::partition`]) — during a
//!   [`PartitionEpoch`] every message between nodes of *different* groups is
//!   dropped at the sender (counted as a loss, exactly like a network drop);
//!   traffic within a group is untouched. Groups typically come from a
//!   [`RegionPolicy`] assignment ([`RegionPolicy::assign`]): how nodes group
//!   into fault regions is data, not a property of the engine.
//! * **diurnal bandwidth cycling** ([`FaultPlan::diurnal`]) — every node's
//!   upload cap is scaled by a piecewise-constant factor cycling over a
//!   period (a day compressed to stream time), evaluated at the instant a
//!   message is enqueued.
//!
//! Bursty (Gilbert–Elliott) loss is configured through the ordinary
//! [`LossModel`](crate::loss::LossModel). A crash — a lone node or a whole
//! region at once — is one mechanism,
//! [`Simulator::schedule_crash`](crate::sim::Simulator::schedule_crash);
//! which nodes fail together is data (a [`RegionPolicy`] assignment, a churn
//! plan) chosen above this layer. Flash-crowd join bursts live in the
//! membership layer (`ChurnPlan::flash_crowd`) because joining is a
//! protocol-level act. `docs/FAULTS.md` has the full taxonomy.
//!
//! ## Determinism
//!
//! Every check is a pure function of virtual time and the static plan:
//! partition drops consume **no** RNG draw and no sequence number (exactly
//! like a message that is never pushed), and diurnal scaling changes only
//! the departure time computed at the enqueue site. A fault schedule
//! therefore means the same on the engine and on its reference core;
//! `tests/prop_fault_differential.rs` pins this.

use crate::bandwidth::UploadCapacity;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the node population groups into fault regions (the
/// [`FaultPlan::with_groups`] assignment behind partitions, and the choice
/// of which nodes a regional crash takes down).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionPolicy {
    /// Node `i` lives in region `i % regions`: neighbouring ids land in
    /// different regions.
    RoundRobin,
    /// Equal-size contiguous id ranges, the first `n % regions` regions one
    /// node larger.
    Contiguous,
    /// Nodes of the same upload-capability class — the heterogeneity axis of
    /// the paper's bandwidth distributions — share a region (stable sort by
    /// capacity, then a contiguous equal-size split).
    ByCapacityClass,
}

impl RegionPolicy {
    /// One region id per node (`n` entries, each `< regions`).
    ///
    /// # Panics
    ///
    /// Panics if `regions` is zero.
    pub fn assign(&self, n: usize, regions: usize, capacities: &[UploadCapacity]) -> Vec<u32> {
        // Precondition for direct callers; scenarios are validated before set-up.
        assert!(regions >= 1, "need at least one region");
        match self {
            RegionPolicy::RoundRobin => (0..n).map(|i| (i % regions) as u32).collect(),
            RegionPolicy::Contiguous => contiguous_split(n, regions, (0..n as u32).collect()),
            RegionPolicy::ByCapacityClass => {
                let mut order: Vec<u32> = (0..n as u32).collect();
                // Stable: ids stay ascending within one capacity class.
                order.sort_by_key(|&i| capacity_key(capacities.get(i as usize)));
                contiguous_split(n, regions, order)
            }
        }
    }
}

/// Sort key of [`RegionPolicy::ByCapacityClass`]: capped upload rate in bps,
/// with unconstrained nodes sorting last as one class.
fn capacity_key(capacity: Option<&UploadCapacity>) -> u64 {
    match capacity {
        Some(UploadCapacity::Limited(b)) => b.as_bps(),
        _ => u64::MAX,
    }
}

/// Assigns the nodes listed in `order` to regions in equal-size contiguous
/// runs (the first `n % regions` regions take one extra node).
fn contiguous_split(n: usize, regions: usize, order: Vec<u32>) -> Vec<u32> {
    let base = n / regions;
    let rem = n % regions;
    let mut out = vec![0u32; n];
    let mut pos = 0usize;
    for r in 0..regions {
        let size = base + usize::from(r < rem);
        for _ in 0..size {
            out[order[pos] as usize] = r as u32;
            pos += 1;
        }
    }
    out
}

/// One network-partition window: from `start` (inclusive) until `end`
/// (exclusive, the heal instant), messages between different node groups are
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionEpoch {
    /// When the partition starts.
    pub start: SimTime,
    /// When the partition heals (exclusive).
    pub end: SimTime,
}

impl PartitionEpoch {
    /// Whether the partition is active at `at`.
    #[inline]
    pub fn contains(&self, at: SimTime) -> bool {
        self.start <= at && at < self.end
    }
}

/// A piecewise-constant upload-capacity scaling cycle: the cycle of `period`
/// is split into `factors.len()` equal phases and every node's upload cap is
/// multiplied by the phase's factor (1.0 = nominal capacity).
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalCycle {
    period: SimDuration,
    factors: Vec<f64>,
}

impl DiurnalCycle {
    /// Builds a cycle of `period` with one equal-length phase per factor.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero, `factors` is empty, or any factor is not
    /// a positive finite number.
    pub fn new(period: SimDuration, factors: Vec<f64>) -> Self {
        // Preconditions for direct callers; scenarios are validated before set-up.
        assert!(!period.is_zero(), "diurnal period must be positive");
        assert!(
            !factors.is_empty(),
            "diurnal cycle needs at least one phase"
        );
        assert!(
            factors.iter().all(|f| f.is_finite() && *f > 0.0),
            "diurnal factors must be positive and finite, got {factors:?}"
        );
        DiurnalCycle { period, factors }
    }

    /// The capacity factor in effect at `at`. Pure integer phase arithmetic,
    /// so the engine and its reference compute the identical factor for the
    /// identical enqueue instant.
    #[inline]
    pub fn scale_at(&self, at: SimTime) -> f64 {
        let period = self.period.as_micros();
        let pos = at.as_micros() % period;
        let idx = ((pos as u128 * self.factors.len() as u128) / period as u128) as usize;
        self.factors[idx]
    }
}

/// A declarative, time-ordered schedule of fault epochs applied by the
/// simulator core (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use heap_simnet::fault::FaultPlan;
/// use heap_simnet::time::{SimDuration, SimTime};
///
/// // Two regions; region 1 is cut off between t=30s and t=60s, and all
/// // upload caps halve in the second half of every 120s "day".
/// let plan = FaultPlan::new()
///     .with_groups(vec![0, 0, 1, 1])
///     .partition(SimTime::from_secs(30), SimTime::from_secs(60))
///     .diurnal(SimDuration::from_secs(120), vec![1.0, 0.5]);
/// assert!(!plan.is_inert());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Region group of every node, indexed by [`NodeId::index`]. Empty means
    /// "one group" (partitions never drop anything).
    group_of: Arc<Vec<u32>>,
    partitions: Vec<PartitionEpoch>,
    diurnal: Option<DiurnalCycle>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the region group of every node (one entry per node). Partition
    /// epochs drop messages between *different* groups.
    pub fn with_groups(mut self, groups: Vec<u32>) -> Self {
        self.group_of = Arc::new(groups);
        self
    }

    /// Adds a partition epoch: cross-group traffic is dropped from `start`
    /// until the heal instant `end`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn partition(mut self, start: SimTime, end: SimTime) -> Self {
        // Precondition for direct callers; scenarios are validated before set-up.
        assert!(start < end, "partition window must be non-empty");
        self.partitions.push(PartitionEpoch { start, end });
        self.partitions.sort_by_key(|e| e.start);
        self
    }

    /// Sets the diurnal upload-capacity cycle (see [`DiurnalCycle::new`]).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate cycle ([`DiurnalCycle::new`]).
    pub fn diurnal(mut self, period: SimDuration, factors: Vec<f64>) -> Self {
        self.diurnal = Some(DiurnalCycle::new(period, factors));
        self
    }

    /// Returns `true` if the plan injects nothing at all.
    pub fn is_inert(&self) -> bool {
        self.partitions.is_empty() && self.diurnal.is_none()
    }

    /// The partition epochs, ordered by start time.
    pub fn partitions(&self) -> &[PartitionEpoch] {
        &self.partitions
    }

    /// The region group assignment (empty = one group).
    pub fn groups(&self) -> &[u32] {
        &self.group_of
    }

    /// Whether the plan contains any partition epoch (used by the builder to
    /// validate that the group assignment covers the population).
    pub(crate) fn has_partitions(&self) -> bool {
        !self.partitions.is_empty()
    }

    /// Whether a message sent at `at` from `from` to `to` is severed by an
    /// active partition. Pure — consumes no randomness.
    #[inline]
    pub(crate) fn blocks(&self, at: SimTime, from: NodeId, to: NodeId) -> bool {
        if self.partitions.is_empty() {
            return false;
        }
        let ga = self.group_of.get(from.index()).copied().unwrap_or(0);
        let gb = self.group_of.get(to.index()).copied().unwrap_or(0);
        if ga == gb {
            return false;
        }
        self.partitions.iter().any(|e| e.contains(at))
    }

    /// The upload-capacity factor in effect at `at`, if a diurnal cycle is
    /// configured.
    #[inline]
    pub(crate) fn bandwidth_scale(&self, at: SimTime) -> Option<f64> {
        self.diurnal.as_ref().map(|d| d.scale_at(at))
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
    fn round_robin_cycles_over_regions() {
        let a = RegionPolicy::RoundRobin.assign(7, 3, &caps(&[0; 7]));
        assert_eq!(a, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn contiguous_splits_evenly_with_remainder_up_front() {
        let a = RegionPolicy::Contiguous.assign(7, 3, &caps(&[0; 7]));
        assert_eq!(a, vec![0, 0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn by_capacity_class_groups_equal_capacities() {
        // Two capacity classes interleaved over six nodes, two regions: the
        // slow class must land in region 0, the fast class in region 1.
        let a =
            RegionPolicy::ByCapacityClass.assign(6, 2, &caps(&[512, 3000, 512, 3000, 512, 3000]));
        assert_eq!(a, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn empty_plan_is_inert_and_blocks_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_inert());
        assert!(!plan.blocks(SimTime::from_secs(5), NodeId::new(0), NodeId::new(1)));
        assert_eq!(plan.bandwidth_scale(SimTime::from_secs(5)), None);
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn partition_drops_cross_group_traffic_only_while_active() {
        let plan = FaultPlan::new()
            .with_groups(vec![0, 0, 1])
            .partition(SimTime::from_secs(10), SimTime::from_secs(20));
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        // Before the epoch: nothing blocked.
        assert!(!plan.blocks(SimTime::from_secs(9), a, c));
        // During: cross-group blocked both ways, intra-group untouched.
        let t = SimTime::from_secs(15);
        assert!(plan.blocks(t, a, c));
        assert!(plan.blocks(t, c, a));
        assert!(!plan.blocks(t, a, b));
        // Epoch boundaries: start inclusive, heal exclusive.
        assert!(plan.blocks(SimTime::from_secs(10), a, c));
        assert!(!plan.blocks(SimTime::from_secs(20), a, c));
    }

    #[test]
    fn multiple_epochs_merge_by_time() {
        let plan = FaultPlan::new()
            .with_groups(vec![0, 1])
            .partition(SimTime::from_secs(30), SimTime::from_secs(40))
            .partition(SimTime::from_secs(10), SimTime::from_secs(20));
        assert_eq!(plan.partitions()[0].start, SimTime::from_secs(10));
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert!(plan.blocks(SimTime::from_secs(15), a, b));
        assert!(!plan.blocks(SimTime::from_secs(25), a, b));
        assert!(plan.blocks(SimTime::from_secs(35), a, b));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_partition_window_is_rejected() {
        let _ = FaultPlan::new().partition(SimTime::from_secs(5), SimTime::from_secs(5));
    }

    #[test]
    fn diurnal_cycle_selects_the_right_phase() {
        let cycle = DiurnalCycle::new(SimDuration::from_secs(100), vec![1.0, 0.5, 0.25, 0.5]);
        assert_eq!(cycle.scale_at(SimTime::ZERO), 1.0);
        assert_eq!(cycle.scale_at(SimTime::from_secs(24)), 1.0);
        assert_eq!(cycle.scale_at(SimTime::from_secs(25)), 0.5);
        assert_eq!(cycle.scale_at(SimTime::from_secs(60)), 0.25);
        assert_eq!(cycle.scale_at(SimTime::from_secs(99)), 0.5);
        // Wraps around the period.
        assert_eq!(cycle.scale_at(SimTime::from_secs(124)), 1.0);
        let plan = FaultPlan::new().diurnal(SimDuration::from_secs(100), vec![1.0, 0.5]);
        assert_eq!(plan.bandwidth_scale(SimTime::from_secs(75)), Some(0.5));
        assert!(!plan.is_inert());
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn diurnal_rejects_non_positive_factors() {
        let _ = DiurnalCycle::new(SimDuration::from_secs(1), vec![1.0, 0.0]);
    }
}
