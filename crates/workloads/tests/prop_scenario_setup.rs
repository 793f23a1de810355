//! The input boundary holds for any scenario: [`ScenarioRun::setup`] either
//! returns a [`ConfigError`](heap_workloads::ConfigError) or a run that goes
//! to its end, and never panics on the way.
//!
//! Scenarios are drawn at random with every field the boundary checks set
//! wild: fractions and instants from ranges that reach below zero and above
//! one, NaN and infinity now and then, zero bandwidths, and fault specs
//! assembled through their public fields, bypassing the builders.

use heap_simnet::bandwidth::Bandwidth;
use heap_simnet::fault::RegionPolicy;
use heap_simnet::time::SimDuration;
use heap_workloads::scenario::{
    DiurnalSpec, FaultSpec, FreeRiderSpec, PartitionWindow, RegionalCrash,
};
use heap_workloads::{
    BandwidthDistribution, ChurnSpec, ProtocolChoice, ResultDetail, Scale, Scenario, ScenarioRun,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The draws of one case. Half of the cases stay in range, so that set-up
/// accepts them and runs them; the other half go out of range one draw in
/// `odds`.
struct Draw {
    rng: SmallRng,
    odds: u32,
}

impl Draw {
    /// Whether this draw goes out of range.
    fn strays(&mut self) -> bool {
        self.odds > 0 && self.rng.gen_range(0..self.odds) == 0
    }

    /// A number from `lo..hi`, or a stray: NaN, ±infinity or a value up to
    /// one out of the range.
    fn wild(&mut self, lo: f64, hi: f64) -> f64 {
        if !self.strays() {
            return self.rng.gen_range(lo..hi);
        }
        match self.rng.gen_range(0u32..4) {
            0 => f64::NAN,
            1 => [f64::INFINITY, f64::NEG_INFINITY][self.rng.gen_range(0..2)],
            2 => lo - self.rng.gen_range(0.0..1.0),
            _ => hi + self.rng.gen_range(0.0..1.0),
        }
    }

    fn fraction(&mut self) -> f64 {
        self.wild(0.0, 0.9)
    }

    /// Seconds from the stream start.
    fn secs(&mut self) -> f64 {
        self.wild(0.0, 12.0)
    }

    /// Whole seconds, or a stray far past any clock.
    fn whole_secs(&mut self) -> u64 {
        match self.strays() {
            true => u64::MAX,
            false => self.rng.gen_range(0..12),
        }
    }

    /// A count from `0..n`, or a stray up to two past it.
    fn below(&mut self, n: u32) -> u32 {
        let extra = if self.strays() { 2 } else { 0 };
        self.rng.gen_range(0..n + extra)
    }

    fn bandwidth(&mut self) -> Bandwidth {
        match self.strays() {
            true => Bandwidth::from_bps(0),
            false => Bandwidth::from_kbps(self.rng.gen_range(1..3_000)),
        }
    }

    fn churn(&mut self) -> ChurnSpec {
        match self.rng.gen_range(0u32..4) {
            0 => ChurnSpec::None,
            1 => ChurnSpec::Catastrophic {
                fraction: self.fraction(),
                at_secs: self.whole_secs(),
                detection_secs: self.whole_secs(),
            },
            2 => ChurnSpec::Continuous {
                standby_fraction: self.fraction(),
                joins_per_min: self.wild(0.0, 60.0),
                leaves_per_min: self.wild(0.0, 60.0),
                detection_secs: self.whole_secs(),
            },
            _ => ChurnSpec::FlashCrowd {
                fraction: self.fraction(),
                at_secs: self.whole_secs(),
                spread_secs: self.whole_secs(),
            },
        }
    }

    /// A fault spec built through its fields, not the builders.
    fn fault(&mut self) -> FaultSpec {
        let policies = [
            RegionPolicy::Contiguous,
            RegionPolicy::RoundRobin,
            RegionPolicy::ByCapacityClass,
        ];
        let regions = match self.strays() {
            true => 0,
            false => self.rng.gen_range(1..4),
        };
        FaultSpec {
            regions: regions as usize,
            region_policy: policies[self.rng.gen_range(0..policies.len())],
            partitions: (0..self.rng.gen_range(0..3))
                .map(|_| {
                    let start_secs = self.secs();
                    let end_secs = start_secs + self.wild(0.001, 6.0);
                    PartitionWindow {
                        start_secs,
                        end_secs,
                    }
                })
                .collect(),
            regional_crashes: (0..self.rng.gen_range(0..3))
                .map(|_| RegionalCrash {
                    region: self.below(regions.max(1)),
                    at_secs: self.secs(),
                    detection_secs: self.whole_secs(),
                })
                .collect(),
            diurnal: self.rng.gen_bool(0.5).then(|| DiurnalSpec {
                period_secs: self.wild(0.001, 10.0),
                factors: (0..1 + self.below(2))
                    .map(|_| self.wild(0.1, 2.0))
                    .collect(),
            }),
        }
    }
}

/// A scenario of `n` nodes and `windows` windows with every other checked
/// field drawn from `seed`.
fn scenario(n: usize, windows: u64, seed: u64) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(seed);
    let odds = [0, 8][rng.gen_range(0..2)];
    let mut d = Draw { rng, odds };
    let distribution = match d.rng.gen_bool(0.5) {
        true => BandwidthDistribution::ref_691(),
        false => BandwidthDistribution::unconstrained(),
    };
    let protocol = ProtocolChoice::Heap {
        fanout: d.wild(1.0, 30.0),
    };
    let scale = Scale::test()
        .with_nodes(n)
        .with_windows(windows)
        .with_seed(seed);
    let mut scenario = Scenario::new("wild", scale, distribution, protocol)
        .with_stragglers(d.fraction())
        .with_churn(d.churn())
        .with_detail(ResultDetail::Compact);
    if d.rng.gen_bool(0.3) {
        let bucket = match d.strays() {
            true => SimDuration::ZERO,
            false => SimDuration::from_millis(d.rng.gen_range(100..5_000)),
        };
        scenario = scenario.with_health_series(bucket);
    }
    if d.rng.gen_bool(0.4) {
        scenario = scenario.with_free_riders(FreeRiderSpec {
            fraction: d.fraction(),
            advertised: d.bandwidth(),
            actual: d.bandwidth(),
            serve_fraction: d.fraction(),
        });
    }
    if d.rng.gen_bool(0.6) {
        scenario = scenario.with_fault(d.fault());
    }
    scenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Set-up returns `Ok` or `Err`, never panics, and a run it accepts
    /// goes to its end.
    #[test]
    fn setup_never_panics_and_an_accepted_run_finishes(
        n in 0usize..40,
        windows in 0u64..3,
        seed in any::<u64>(),
    ) {
        let scenario = scenario(n, windows, seed);
        if let Ok(run) = ScenarioRun::setup(&scenario) {
            prop_assert_eq!(run.collect().nodes.len(), n - 1);
        }
    }
}
