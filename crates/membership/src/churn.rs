//! Scripted churn (failure) schedules.
//!
//! §3.6 of the paper evaluates resilience under *catastrophic failures*:
//! 20 % (resp. 50 %) of the nodes crash simultaneously 60 s into the stream,
//! chosen uniformly at random (so the capability-supply ratio is preserved),
//! and surviving nodes learn about each failure ~10 s later on average.

use heap_simnet::event::BUCKET_WIDTH_MICROS;
use heap_simnet::node::NodeId;
use heap_simnet::time::{SimDuration, SimTime};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Moves a join instant off an exact calendar-bucket boundary.
///
/// A standby joiner fires its `TAG_JOIN` timer at its scheduled instant and
/// only then draws its periodic-timer phases, flooring them to one calendar
/// bucket. A join that lands *exactly* on a bucket boundary is nudged one
/// microsecond into the bucket, which costs nothing at simulation
/// resolution. The engine needs neither the floor nor the nudge; both stay
/// because they are part of the pinned continuous-churn and flash-crowd
/// fingerprints, and dropping them means deliberately re-pinning those.
fn nudge_off_bucket_boundary(at: SimTime) -> SimTime {
    if at.as_micros().is_multiple_of(BUCKET_WIDTH_MICROS) {
        at + SimDuration::from_micros(1)
    } else {
        at
    }
}

/// A single scheduled crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// When the node crashes.
    pub at: SimTime,
    /// The crashing node.
    pub node: NodeId,
}

/// A single scheduled join of a standby node (continuous churn).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinEvent {
    /// When the standby node joins the system.
    pub at: SimTime,
    /// The joining node.
    pub node: NodeId,
}

/// A continuous-churn plan: a pool of standby nodes, the Poisson arrival
/// process that activates them, and the Poisson departure process that
/// crashes active nodes — the fig. 10 extension from one catastrophic event
/// to an ongoing join/leave arrival process.
///
/// Generation walks virtual time over the churn window with two competing
/// exponential clocks (rates `joins_per_min` and `leaves_per_min`),
/// activating a uniformly drawn standby node on each join arrival and
/// crashing a uniformly drawn *active, not yet crashed* node on each leave
/// arrival. Nodes that joined during the window can leave later; nodes still
/// standby at the window's end simply never participate.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ContinuousChurn {
    /// Nodes that start on standby (offline until their join event, if any).
    pub standby: Vec<NodeId>,
    /// The scheduled joins, ordered by time.
    pub joins: Vec<JoinEvent>,
    /// The leave (crash) events and the failure-detection model.
    pub schedule: ChurnSchedule,
}

impl ContinuousChurn {
    /// The join instant of `node`, if it is a standby node that joins.
    pub fn join_time(&self, node: NodeId) -> Option<SimTime> {
        self.joins.iter().find(|j| j.node == node).map(|j| j.at)
    }
}

/// An ordered list of crash events plus the failure-detection delay model.
///
/// # Examples
///
/// ```
/// use heap_membership::churn::ChurnSchedule;
/// use heap_simnet::time::{SimDuration, SimTime};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// // 20% of 270 nodes crash at t=60s; node 0 (the source) never crashes.
/// let schedule = ChurnSchedule::catastrophic(
///     270,
///     0.2,
///     SimTime::from_secs(60),
///     &[0],
///     &mut rng,
/// );
/// assert_eq!(schedule.events().len(), 54);
/// assert!(schedule.events().iter().all(|e| e.node.index() != 0));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
    /// Mean delay before a surviving node notices a crash.
    detection_mean: SimDuration,
}

impl ChurnSchedule {
    /// An empty schedule (no churn).
    pub fn none() -> Self {
        ChurnSchedule {
            events: Vec::new(),
            detection_mean: SimDuration::from_secs(10),
        }
    }

    /// Builds a schedule from explicit events.
    pub fn from_events(mut events: Vec<ChurnEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        ChurnSchedule {
            events,
            detection_mean: SimDuration::from_secs(10),
        }
    }

    /// Builds the paper's catastrophic-failure scenario: `fraction` of the
    /// `n` nodes crash simultaneously at `at`, selected uniformly at random
    /// while never selecting any node listed in `exclude` (the stream source
    /// must survive, as in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1)`.
    pub fn catastrophic<R: Rng + ?Sized>(
        n: usize,
        fraction: f64,
        at: SimTime,
        exclude: &[u32],
        rng: &mut R,
    ) -> Self {
        // Precondition for direct callers; scenarios are validated before set-up.
        assert!(
            (0.0..1.0).contains(&fraction),
            "failure fraction must be in [0,1), got {fraction}"
        );
        let mut candidates: Vec<NodeId> = (0..n as u32)
            .filter(|i| !exclude.contains(i))
            .map(NodeId::new)
            .collect();
        candidates.shuffle(rng);
        let count = (n as f64 * fraction).round() as usize;
        let count = count.min(candidates.len());
        let events = candidates
            .into_iter()
            .take(count)
            .map(|node| ChurnEvent { at, node })
            .collect();
        ChurnSchedule {
            events,
            detection_mean: SimDuration::from_secs(10),
        }
    }

    /// Builds a continuous Poisson join/leave plan over `window`.
    ///
    /// `standby_fraction` of the `n` nodes (never those in `exclude`) start
    /// offline and form the join pool; joins arrive at `joins_per_min` and
    /// leaves at `leaves_per_min` (exponential inter-arrival times), both
    /// clipped to the window. A leave crashes a uniformly drawn node that is
    /// online (initially active, or joined earlier) and not yet crashed.
    ///
    /// # Panics
    ///
    /// Panics if `standby_fraction` is not within `[0, 1)`, a rate is
    /// negative, or the window is empty.
    pub fn continuous<R: Rng + ?Sized>(
        n: usize,
        standby_fraction: f64,
        joins_per_min: f64,
        leaves_per_min: f64,
        window: (SimTime, SimTime),
        exclude: &[u32],
        rng: &mut R,
    ) -> ContinuousChurn {
        // Preconditions for direct callers; scenarios are validated before set-up.
        assert!(
            (0.0..1.0).contains(&standby_fraction),
            "standby fraction must be in [0,1), got {standby_fraction}"
        );
        assert!(
            joins_per_min >= 0.0 && leaves_per_min >= 0.0,
            "churn rates must be non-negative"
        );
        let (start, end) = window;
        assert!(start < end, "churn window must be non-empty");

        let mut candidates: Vec<NodeId> = (0..n as u32)
            .filter(|i| !exclude.contains(i))
            .map(NodeId::new)
            .collect();
        candidates.shuffle(rng);
        let standby_count = ((n as f64) * standby_fraction).round() as usize;
        let standby_count = standby_count.min(candidates.len());
        let mut standby: Vec<NodeId> = candidates.drain(..standby_count).collect();
        let mut active: Vec<NodeId> = candidates;

        // Two competing exponential clocks, advanced lazily.
        let exp = |rng: &mut R, per_min: f64| -> Option<SimDuration> {
            if per_min <= 0.0 {
                return None;
            }
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            Some(SimDuration::from_secs_f64(-u.ln() * 60.0 / per_min))
        };
        let mut joins = Vec::new();
        let mut leaves = Vec::new();
        let mut next_join = exp(rng, joins_per_min).map(|d| start + d);
        let mut next_leave = exp(rng, leaves_per_min).map(|d| start + d);
        loop {
            let (at, is_join) = match (next_join, next_leave) {
                (Some(j), Some(l)) if j <= l => (j, true),
                (Some(_) | None, Some(l)) => (l, false),
                (Some(j), None) => (j, true),
                (None, None) => break,
            };
            if at >= end {
                break;
            }
            if is_join {
                if !standby.is_empty() {
                    let idx = rng.gen_range(0..standby.len());
                    let node = standby.swap_remove(idx);
                    joins.push(JoinEvent {
                        at: nudge_off_bucket_boundary(at),
                        node,
                    });
                    active.push(node);
                }
                next_join = exp(rng, joins_per_min).map(|d| at + d);
            } else {
                if !active.is_empty() {
                    let idx = rng.gen_range(0..active.len());
                    let node = active.swap_remove(idx);
                    leaves.push(ChurnEvent { at, node });
                }
                next_leave = exp(rng, leaves_per_min).map(|d| at + d);
            }
        }
        joins.sort_by_key(|j| (j.at, j.node));
        let mut all_standby: Vec<NodeId> = standby;
        all_standby.extend(joins.iter().map(|j| j.node));
        all_standby.sort();
        ContinuousChurn {
            standby: all_standby,
            joins,
            schedule: ChurnSchedule::from_events(leaves),
        }
    }

    /// Builds a *flash crowd*: `fraction` of the `n` nodes (never those in
    /// `exclude`) start on standby and all join in one burst, each at a
    /// uniformly drawn instant within `[at, at + spread]` — the adversarial
    /// counterpart of [`ChurnSchedule::continuous`]'s gentle Poisson arrivals,
    /// modelling an audience stampeding into a stream at a popular moment.
    /// Nobody leaves; join instants are nudged off exact calendar-bucket
    /// boundaries like every other join.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1)`.
    pub fn flash_crowd<R: Rng + ?Sized>(
        n: usize,
        fraction: f64,
        at: SimTime,
        spread: SimDuration,
        exclude: &[u32],
        rng: &mut R,
    ) -> ContinuousChurn {
        // Precondition for direct callers; scenarios are validated before set-up.
        assert!(
            (0.0..1.0).contains(&fraction),
            "flash-crowd fraction must be in [0,1), got {fraction}"
        );
        let mut candidates: Vec<NodeId> = (0..n as u32)
            .filter(|i| !exclude.contains(i))
            .map(NodeId::new)
            .collect();
        candidates.shuffle(rng);
        let count = ((n as f64) * fraction).round() as usize;
        let count = count.min(candidates.len());
        let mut joins: Vec<JoinEvent> = candidates
            .into_iter()
            .take(count)
            .map(|node| {
                let offset = SimDuration::from_micros(rng.gen_range(0..=spread.as_micros()));
                JoinEvent {
                    at: nudge_off_bucket_boundary(at + offset),
                    node,
                }
            })
            .collect();
        joins.sort_by_key(|j| (j.at, j.node));
        let mut standby: Vec<NodeId> = joins.iter().map(|j| j.node).collect();
        standby.sort();
        ContinuousChurn {
            standby,
            joins,
            schedule: ChurnSchedule::none(),
        }
    }

    /// Sets the mean failure-detection delay (default 10 s, as in §3.6).
    pub fn with_detection_mean(mut self, mean: SimDuration) -> Self {
        self.detection_mean = mean;
        self
    }

    /// The scheduled crash events, ordered by time.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Mean failure-detection delay.
    pub fn detection_mean(&self) -> SimDuration {
        self.detection_mean
    }

    /// Returns `true` if the schedule contains no crashes.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The set of nodes that crash at some point.
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.events.iter().map(|e| e.node).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Samples the instant at which a surviving node notices the crash of a
    /// node that failed at `crash_time`. Delays are uniform in
    /// `[0.5, 1.5] * detection_mean`, giving the requested mean.
    pub fn sample_detection_time<R: Rng + ?Sized>(
        &self,
        crash_time: SimTime,
        rng: &mut R,
    ) -> SimTime {
        let mean = self.detection_mean.as_secs_f64();
        if mean <= 0.0 {
            return crash_time;
        }
        let delay = rng.gen_range(0.5 * mean..=1.5 * mean);
        crash_time + SimDuration::from_secs_f64(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(17)
    }

    #[test]
    fn none_is_empty() {
        let s = ChurnSchedule::none();
        assert!(s.is_empty());
        assert!(s.events().is_empty());
        assert!(s.crashed_nodes().is_empty());
    }

    #[test]
    fn catastrophic_picks_requested_fraction_excluding_source() {
        let s = ChurnSchedule::catastrophic(100, 0.5, SimTime::from_secs(60), &[0], &mut rng());
        assert_eq!(s.events().len(), 50);
        assert!(s.events().iter().all(|e| e.node.index() != 0));
        assert!(s.events().iter().all(|e| e.at == SimTime::from_secs(60)));
        let crashed = s.crashed_nodes();
        assert_eq!(crashed.len(), 50, "crashed nodes must be distinct");
    }

    #[test]
    fn catastrophic_zero_fraction_is_empty() {
        let s = ChurnSchedule::catastrophic(100, 0.0, SimTime::from_secs(60), &[], &mut rng());
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "failure fraction")]
    fn catastrophic_rejects_fraction_of_one_or_more() {
        let _ = ChurnSchedule::catastrophic(10, 1.0, SimTime::ZERO, &[], &mut rng());
    }

    #[test]
    fn from_events_sorts_by_time() {
        let s = ChurnSchedule::from_events(vec![
            ChurnEvent {
                at: SimTime::from_secs(20),
                node: NodeId::new(2),
            },
            ChurnEvent {
                at: SimTime::from_secs(10),
                node: NodeId::new(1),
            },
        ]);
        assert_eq!(s.events()[0].node, NodeId::new(1));
        assert_eq!(s.events()[1].node, NodeId::new(2));
    }

    #[test]
    fn detection_time_is_after_crash_and_around_mean() {
        let s = ChurnSchedule::none().with_detection_mean(SimDuration::from_secs(10));
        let crash = SimTime::from_secs(60);
        let mut r = rng();
        let mut total = 0.0;
        let n = 10_000;
        for _ in 0..n {
            let t = s.sample_detection_time(crash, &mut r);
            assert!(t >= crash + SimDuration::from_secs(5));
            assert!(t <= crash + SimDuration::from_secs(15));
            total += (t - crash).as_secs_f64();
        }
        let mean = total / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean detection delay {mean}");
    }

    #[test]
    fn continuous_churn_respects_pools_window_and_exclusions() {
        let window = (SimTime::from_secs(10), SimTime::from_secs(190));
        let plan = ChurnSchedule::continuous(200, 0.2, 6.0, 4.0, window, &[0], &mut rng());
        // ~40 nodes start on standby; every join activates one of them.
        assert_eq!(plan.standby.len(), 40);
        assert!(plan.standby.iter().all(|n| n.index() != 0));
        assert!(
            !plan.joins.is_empty(),
            "3 minutes at 6 joins/min must join someone"
        );
        for j in &plan.joins {
            assert!(j.at >= window.0 && j.at < window.1);
            assert!(
                plan.standby.contains(&j.node),
                "joins come from the standby pool"
            );
            assert_eq!(plan.join_time(j.node), Some(j.at));
        }
        // Joins are unique nodes.
        let mut joined: Vec<NodeId> = plan.joins.iter().map(|j| j.node).collect();
        joined.sort();
        joined.dedup();
        assert_eq!(joined.len(), plan.joins.len());
        // Leaves hit online, non-excluded, not-yet-crashed nodes only.
        assert!(
            !plan.schedule.is_empty(),
            "3 minutes at 4 leaves/min must crash someone"
        );
        let crashed = plan.schedule.crashed_nodes();
        assert_eq!(
            crashed.len(),
            plan.schedule.events().len(),
            "a node leaves at most once"
        );
        for e in plan.schedule.events() {
            assert!(e.at >= window.0 && e.at < window.1);
            assert!(e.node.index() != 0);
            // A standby node can only leave after its join.
            if let Some(join) = plan.join_time(e.node) {
                assert!(e.at > join, "{} left before joining", e.node);
            }
        }
        // Expected event counts are in the right ballpark (Poisson means:
        // 18 joins capped by the pool, 12 leaves over 3 minutes).
        assert!(plan.joins.len() >= 6 && plan.joins.len() <= 40);
        assert!(plan.schedule.events().len() >= 4);
    }

    #[test]
    fn continuous_churn_with_zero_rates_is_quiet() {
        let window = (SimTime::ZERO, SimTime::from_secs(60));
        let plan = ChurnSchedule::continuous(50, 0.1, 0.0, 0.0, window, &[], &mut rng());
        assert_eq!(plan.standby.len(), 5);
        assert!(plan.joins.is_empty());
        assert!(plan.schedule.is_empty());
    }

    #[test]
    #[should_panic(expected = "standby fraction")]
    fn continuous_churn_rejects_full_standby() {
        let _ = ChurnSchedule::continuous(
            10,
            1.0,
            1.0,
            1.0,
            (SimTime::ZERO, SimTime::from_secs(1)),
            &[],
            &mut rng(),
        );
    }

    #[test]
    fn joins_are_nudged_off_exact_bucket_boundaries() {
        // The helper itself: boundary instants move one microsecond in,
        // interior instants are untouched.
        let boundary = SimTime::from_micros(7 * BUCKET_WIDTH_MICROS);
        assert_eq!(
            nudge_off_bucket_boundary(boundary),
            boundary + SimDuration::from_micros(1)
        );
        assert_eq!(
            nudge_off_bucket_boundary(SimTime::ZERO),
            SimTime::from_micros(1)
        );
        let interior = SimTime::from_micros(7 * BUCKET_WIDTH_MICROS + 500);
        assert_eq!(nudge_off_bucket_boundary(interior), interior);
        // And the generators honour it: no produced join sits on a boundary.
        let window = (SimTime::from_secs(10), SimTime::from_secs(190));
        let plan = ChurnSchedule::continuous(200, 0.3, 60.0, 10.0, window, &[0], &mut rng());
        let crowd = ChurnSchedule::flash_crowd(
            200,
            0.3,
            // A burst start aligned to a bucket boundary with zero spread
            // would put every join exactly on the boundary without the nudge.
            SimTime::from_micros(64 * BUCKET_WIDTH_MICROS),
            SimDuration::ZERO,
            &[0],
            &mut rng(),
        );
        for j in plan.joins.iter().chain(&crowd.joins) {
            assert_ne!(
                j.at.as_micros() % BUCKET_WIDTH_MICROS,
                0,
                "join of {} lands exactly on a bucket boundary",
                j.node
            );
        }
    }

    #[test]
    fn flash_crowd_joins_everyone_in_the_burst_window() {
        let at = SimTime::from_secs(60);
        let spread = SimDuration::from_secs(5);
        let crowd = ChurnSchedule::flash_crowd(100, 0.4, at, spread, &[0], &mut rng());
        assert_eq!(crowd.standby.len(), 40);
        assert_eq!(crowd.joins.len(), 40, "every standby node joins");
        assert!(crowd.schedule.is_empty(), "a flash crowd never leaves");
        assert!(crowd.standby.iter().all(|n| n.index() != 0));
        for j in &crowd.joins {
            assert!(j.at >= at && j.at <= at + spread + SimDuration::from_micros(1));
            assert_eq!(crowd.join_time(j.node), Some(j.at));
        }
        // Joins are sorted and unique.
        let mut nodes: Vec<NodeId> = crowd.joins.iter().map(|j| j.node).collect();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 40);
        assert!(crowd.joins.windows(2).all(|w| w[0].at <= w[1].at));
        // Determinism: same seed, same plan.
        let again = ChurnSchedule::flash_crowd(100, 0.4, at, spread, &[0], &mut rng());
        assert_eq!(crowd.joins, again.joins);
    }

    #[test]
    #[should_panic(expected = "flash-crowd fraction")]
    fn flash_crowd_rejects_full_fraction() {
        let _ =
            ChurnSchedule::flash_crowd(10, 1.0, SimTime::ZERO, SimDuration::ZERO, &[], &mut rng());
    }

    #[test]
    fn zero_detection_mean_detects_immediately() {
        let s = ChurnSchedule::none().with_detection_mean(SimDuration::ZERO);
        assert_eq!(
            s.sample_detection_time(SimTime::from_secs(3), &mut rng()),
            SimTime::from_secs(3)
        );
    }
}
