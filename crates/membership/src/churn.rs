//! Scripted churn plans.
//!
//! §3.6 of the paper evaluates resilience under *catastrophic failures*:
//! 20 % (resp. 50 %) of the nodes crash simultaneously 60 s into the stream,
//! chosen uniformly at random (so the capability-supply ratio is preserved),
//! and surviving nodes learn about each failure ~10 s later on average.
//!
//! A [`ChurnPlan`] is plain data — who starts on standby, who joins when,
//! who crashes when — and [`detection_time`] draws when survivors notice a
//! crash. Carrying a plan out (scheduling the crashes, holding standby
//! nodes back) is the runner's job. Node 0, the stream source, never
//! churns: every constructor draws its nodes from `1..n`, because the
//! stream must survive for resilience to be observable at all.

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

/// Shuffles the churn candidates — every node but the source, `1..n` — and
/// returns them with how many of them `fraction` of the `n` nodes is.
///
/// # Panics
///
/// Panics, naming the fraction `what`, if `fraction` is not within `[0, 1)`
/// (a precondition for direct callers; scenarios are validated before
/// set-up).
fn shuffled_candidates<R: Rng + ?Sized>(
    n: usize,
    fraction: f64,
    what: &str,
    rng: &mut R,
) -> (Vec<NodeId>, usize) {
    assert!(
        (0.0..1.0).contains(&fraction),
        "{what} must be in [0,1), got {fraction}"
    );
    let mut candidates: Vec<NodeId> = (1..n as u32).map(NodeId::new).collect();
    candidates.shuffle(rng);
    let count = ((n as f64) * fraction).round() as usize;
    let count = count.min(candidates.len());
    (candidates, count)
}

/// One scheduled churn event: `node` joins (or crashes) at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// When the event happens.
    pub at: SimTime,
    /// The joining or crashing node.
    pub node: NodeId,
}

/// A churn plan: the nodes held back on standby, the instants they join,
/// and the instants nodes crash.
///
/// # Examples
///
/// ```
/// use heap_membership::churn::ChurnPlan;
/// use heap_simnet::time::SimTime;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// // 20% of 270 nodes crash at t=60s; node 0 (the source) never crashes.
/// let plan = ChurnPlan::catastrophic(270, 0.2, SimTime::from_secs(60), &mut rng);
/// assert_eq!(plan.crashes.len(), 54);
/// assert!(plan.crashes.iter().all(|e| e.node.index() != 0));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChurnPlan {
    /// Nodes that start on standby (offline until their join, if any),
    /// sorted.
    pub standby: Vec<NodeId>,
    /// The scheduled joins of standby nodes, ordered by time.
    pub joins: Vec<ChurnEvent>,
    /// The scheduled crashes, ordered by time.
    pub crashes: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// The paper's catastrophic failure: `fraction` of the `n` nodes crash
    /// simultaneously at `at`, selected uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1)`.
    pub fn catastrophic<R: Rng + ?Sized>(
        n: usize,
        fraction: f64,
        at: SimTime,
        rng: &mut R,
    ) -> Self {
        let (candidates, count) = shuffled_candidates(n, fraction, "failure fraction", rng);
        let crashes = candidates
            .into_iter()
            .take(count)
            .map(|node| ChurnEvent { at, node })
            .collect();
        ChurnPlan {
            crashes,
            ..ChurnPlan::default()
        }
    }

    /// Continuous Poisson churn over `window` — the fig. 10 extension from
    /// one catastrophic event to an ongoing join/leave arrival process.
    ///
    /// `standby_fraction` of the `n` nodes start offline and form the join
    /// pool. Generation walks virtual time over the window with two
    /// competing exponential clocks (rates `joins_per_min` and
    /// `leaves_per_min`): a join activates a uniformly drawn standby node, a
    /// leave crashes a uniformly drawn node that is online (initially
    /// active, or joined earlier) and not yet crashed. Nodes still standby at
    /// the window's end never participate.
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
        rng: &mut R,
    ) -> Self {
        // Preconditions for direct callers; scenarios are validated before set-up.
        assert!(
            joins_per_min >= 0.0 && leaves_per_min >= 0.0,
            "churn rates must be non-negative"
        );
        let (start, end) = window;
        assert!(start < end, "churn window must be non-empty");
        let (mut active, standby_count) =
            shuffled_candidates(n, standby_fraction, "standby fraction", rng);
        let mut standby: Vec<NodeId> = active.drain(..standby_count).collect();

        // Two competing exponential clocks, advanced lazily.
        let exp = |rng: &mut R, per_min: f64| -> Option<SimDuration> {
            if per_min <= 0.0 {
                return None;
            }
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            Some(SimDuration::from_secs_f64(-u.ln() * 60.0 / per_min))
        };
        let mut joins = Vec::new();
        let mut crashes = Vec::new();
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
                    joins.push(ChurnEvent {
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
                    crashes.push(ChurnEvent { at, node });
                }
                next_leave = exp(rng, leaves_per_min).map(|d| at + d);
            }
        }
        joins.sort_by_key(|j| (j.at, j.node));
        standby.extend(joins.iter().map(|j| j.node));
        standby.sort();
        ChurnPlan {
            standby,
            joins,
            crashes,
        }
    }

    /// A *flash crowd*: `fraction` of the `n` nodes start on standby and all
    /// join in one burst, each at a uniformly drawn instant within
    /// `[at, at + spread]` — the adversarial counterpart of
    /// [`ChurnPlan::continuous`]'s gentle Poisson arrivals, modelling an
    /// audience stampeding into a stream at a popular moment. Nobody
    /// leaves; join instants are nudged off exact calendar-bucket
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
        rng: &mut R,
    ) -> Self {
        let (candidates, count) = shuffled_candidates(n, fraction, "flash-crowd fraction", rng);
        let mut joins: Vec<ChurnEvent> = candidates
            .into_iter()
            .take(count)
            .map(|node| {
                let offset = SimDuration::from_micros(rng.gen_range(0..=spread.as_micros()));
                ChurnEvent {
                    at: nudge_off_bucket_boundary(at + offset),
                    node,
                }
            })
            .collect();
        joins.sort_by_key(|j| (j.at, j.node));
        let mut standby: Vec<NodeId> = joins.iter().map(|j| j.node).collect();
        standby.sort();
        ChurnPlan {
            standby,
            joins,
            crashes: Vec::new(),
        }
    }
}

/// Draws the instant at which surviving nodes notice a crash at `crash`:
/// the delay is uniform in `[0.5, 1.5] × mean`, so it averages `mean`
/// (§3.6 uses 10 s). A zero mean notices at once and draws nothing.
pub fn detection_time<R: Rng + ?Sized>(crash: SimTime, mean: SimDuration, rng: &mut R) -> SimTime {
    let mean = mean.as_secs_f64();
    if mean <= 0.0 {
        return crash;
    }
    let delay = rng.gen_range(0.5 * mean..=1.5 * mean);
    crash + SimDuration::from_secs_f64(delay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(17)
    }

    fn distinct(events: &[ChurnEvent]) -> usize {
        let mut nodes: Vec<NodeId> = events.iter().map(|e| e.node).collect();
        nodes.sort();
        nodes.dedup();
        nodes.len()
    }

    fn join_time(plan: &ChurnPlan, node: NodeId) -> Option<SimTime> {
        plan.joins.iter().find(|j| j.node == node).map(|j| j.at)
    }

    #[test]
    fn catastrophic_picks_requested_fraction_excluding_source() {
        let plan = ChurnPlan::catastrophic(100, 0.5, SimTime::from_secs(60), &mut rng());
        assert_eq!(plan.crashes.len(), 50);
        assert!(plan.crashes.iter().all(|e| e.node.index() != 0));
        assert!(plan.crashes.iter().all(|e| e.at == SimTime::from_secs(60)));
        assert_eq!(
            distinct(&plan.crashes),
            50,
            "crashed nodes must be distinct"
        );
        assert!(plan.standby.is_empty() && plan.joins.is_empty());
    }

    #[test]
    fn catastrophic_zero_fraction_is_empty() {
        let plan = ChurnPlan::catastrophic(100, 0.0, SimTime::from_secs(60), &mut rng());
        assert!(plan.crashes.is_empty());
    }

    #[test]
    #[should_panic(expected = "failure fraction")]
    fn catastrophic_rejects_fraction_of_one_or_more() {
        let _ = ChurnPlan::catastrophic(10, 1.0, SimTime::ZERO, &mut rng());
    }

    #[test]
    fn detection_time_is_after_crash_and_around_mean() {
        let mean = SimDuration::from_secs(10);
        let crash = SimTime::from_secs(60);
        let mut r = rng();
        let mut total = 0.0;
        let n = 10_000;
        for _ in 0..n {
            let t = detection_time(crash, mean, &mut r);
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
        let plan = ChurnPlan::continuous(200, 0.2, 6.0, 4.0, window, &mut rng());
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
        }
        assert_eq!(distinct(&plan.joins), plan.joins.len(), "a node joins once");
        // Leaves hit online, non-source, not-yet-crashed nodes only.
        assert!(
            !plan.crashes.is_empty(),
            "3 minutes at 4 leaves/min must crash someone"
        );
        assert_eq!(
            distinct(&plan.crashes),
            plan.crashes.len(),
            "a node leaves at most once"
        );
        assert!(plan.crashes.windows(2).all(|w| w[0].at <= w[1].at));
        for e in &plan.crashes {
            assert!(e.at >= window.0 && e.at < window.1);
            assert!(e.node.index() != 0);
            // A standby node can only leave after its join.
            if let Some(join) = join_time(&plan, e.node) {
                assert!(e.at > join, "{} left before joining", e.node);
            }
        }
        // Expected event counts are in the right ballpark (Poisson means:
        // 18 joins capped by the pool, 12 leaves over 3 minutes).
        assert!(plan.joins.len() >= 6 && plan.joins.len() <= 40);
        assert!(plan.crashes.len() >= 4);
    }

    #[test]
    fn continuous_churn_with_zero_rates_is_quiet() {
        let window = (SimTime::ZERO, SimTime::from_secs(60));
        let plan = ChurnPlan::continuous(50, 0.1, 0.0, 0.0, window, &mut rng());
        assert_eq!(plan.standby.len(), 5);
        assert!(plan.joins.is_empty());
        assert!(plan.crashes.is_empty());
    }

    #[test]
    #[should_panic(expected = "standby fraction")]
    fn continuous_churn_rejects_full_standby() {
        let window = (SimTime::ZERO, SimTime::from_secs(1));
        let _ = ChurnPlan::continuous(10, 1.0, 1.0, 1.0, window, &mut rng());
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
        let plan = ChurnPlan::continuous(200, 0.3, 60.0, 10.0, window, &mut rng());
        let crowd = ChurnPlan::flash_crowd(
            200,
            0.3,
            // A burst start aligned to a bucket boundary with zero spread
            // would put every join exactly on the boundary without the nudge.
            SimTime::from_micros(64 * BUCKET_WIDTH_MICROS),
            SimDuration::ZERO,
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
        let crowd = ChurnPlan::flash_crowd(100, 0.4, at, spread, &mut rng());
        assert_eq!(crowd.standby.len(), 40);
        assert_eq!(crowd.joins.len(), 40, "every standby node joins");
        assert!(crowd.crashes.is_empty(), "a flash crowd never leaves");
        assert!(crowd.standby.iter().all(|n| n.index() != 0));
        for j in &crowd.joins {
            assert!(j.at >= at && j.at <= at + spread + SimDuration::from_micros(1));
            assert!(crowd.standby.contains(&j.node));
        }
        // Joins are sorted and unique.
        assert_eq!(distinct(&crowd.joins), 40);
        assert!(crowd.joins.windows(2).all(|w| w[0].at <= w[1].at));
        // Determinism: same seed, same plan.
        let again = ChurnPlan::flash_crowd(100, 0.4, at, spread, &mut rng());
        assert_eq!(crowd.joins, again.joins);
    }

    #[test]
    #[should_panic(expected = "flash-crowd fraction")]
    fn flash_crowd_rejects_full_fraction() {
        let _ = ChurnPlan::flash_crowd(10, 1.0, SimTime::ZERO, SimDuration::ZERO, &mut rng());
    }

    #[test]
    fn zero_detection_mean_detects_immediately() {
        let crash = SimTime::from_secs(3);
        assert_eq!(detection_time(crash, SimDuration::ZERO, &mut rng()), crash);
    }
}
