//! Adversarial robustness suite — not a paper figure, but the paper's
//! robustness claims (§3.6) stress-tested far beyond the crash scenarios it
//! reports.
//!
//! Each fault class runs ref-691 under standard gossip and under HEAP with
//! health sampling enabled, and reports (a) per-fault-class health scores and
//! delivery ratios, and (b) the mean health score over stream time for every
//! run — the curve that must visibly dip during a fault epoch and climb back
//! after it heals. Faults are injected through the seed-deterministic
//! [`FaultSpec`]/[`FaultPlan`](heap_simnet::FaultPlan) pipeline, so every run
//! here is a pure function of its seed.

use super::common::Figure;
use crate::bandwidth_dist::BandwidthDistribution;
use crate::runner::{run_scenarios_parallel, ExperimentResult};
use crate::scale::Scale;
use crate::scenario::{ChurnSpec, FaultSpec, FreeRiderSpec, ProtocolChoice, Scenario};
use heap_analytics::{Series, TextTable};
use heap_simnet::loss::LossModel;
use heap_simnet::time::SimDuration;
use heap_streaming::source::StreamConfig;

/// The fault classes the suite exercises, one scenario pair each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Two regions mutually unreachable for a quarter of the stream, then
    /// healed ([`FaultSpec::partition`]).
    Partition,
    /// A quarter of the receivers dies at one instant
    /// ([`FaultSpec::regional_crash`]).
    RegionalCrash,
    /// Gilbert–Elliott bursty loss on every link
    /// ([`LossModel::bursty_default`]).
    BurstyLoss,
    /// Upload capacity cycling between full and reduced
    /// ([`FaultSpec::diurnal`]).
    Diurnal,
    /// A join stampede mid-stream ([`ChurnSpec::FlashCrowd`]).
    FlashCrowd,
    /// Free-riders advertising inflated capability while under-serving
    /// ([`FreeRiderSpec`]).
    FreeRiders,
}

impl FaultClass {
    /// Every fault class, in presentation order.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::Partition,
        FaultClass::RegionalCrash,
        FaultClass::BurstyLoss,
        FaultClass::Diurnal,
        FaultClass::FlashCrowd,
        FaultClass::FreeRiders,
    ];

    /// A short label for table rows and series names.
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::Partition => "partition",
            FaultClass::RegionalCrash => "regional crash",
            FaultClass::BurstyLoss => "bursty loss",
            FaultClass::Diurnal => "diurnal bandwidth",
            FaultClass::FlashCrowd => "flash crowd",
            FaultClass::FreeRiders => "free-riders",
        }
    }

    /// Applies the fault to a scenario. Epochs scale with the stream length
    /// (`stream_secs`) so the same class definition works at test and paper
    /// scale.
    fn apply(&self, scenario: Scenario, stream_secs: f64) -> Scenario {
        match self {
            FaultClass::Partition => scenario
                .with_fault(FaultSpec::regions(2).partition(0.25 * stream_secs, 0.5 * stream_secs)),
            FaultClass::RegionalCrash => {
                scenario.with_fault(FaultSpec::regions(4).regional_crash(3, 0.4 * stream_secs, 5))
            }
            FaultClass::BurstyLoss => scenario.with_loss(LossModel::bursty_default()),
            FaultClass::Diurnal => scenario
                .with_fault(FaultSpec::regions(1).diurnal(0.5 * stream_secs, vec![1.0, 0.55])),
            FaultClass::FlashCrowd => scenario.with_churn(ChurnSpec::FlashCrowd {
                fraction: 0.2,
                at_secs: (0.3 * stream_secs) as u64,
                spread_secs: ((0.1 * stream_secs) as u64).max(1),
            }),
            FaultClass::FreeRiders => scenario.with_free_riders(FreeRiderSpec::default_adversary()),
        }
    }
}

/// The health-sampling bucket width for a given stream length: fine enough
/// to resolve fault epochs at test scale, bounded below at one second.
fn health_bucket(stream_secs: f64) -> SimDuration {
    SimDuration::from_secs_f64((stream_secs / 8.0).max(1.0))
}

/// The protocols compared in every fault class.
fn protocols() -> [ProtocolChoice; 2] {
    [
        ProtocolChoice::Standard { fanout: 7.0 },
        ProtocolChoice::Heap { fanout: 7.0 },
    ]
}

/// The full scenario list: for each fault class, standard gossip then HEAP,
/// all on ref-691 with health sampling enabled.
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    let stream_secs = StreamConfig::paper(scale.n_windows)
        .stream_duration()
        .as_secs_f64();
    let dist = BandwidthDistribution::ref_691();
    let mut out = Vec::with_capacity(FaultClass::ALL.len() * 2);
    for class in FaultClass::ALL {
        for protocol in protocols() {
            let scenario = Scenario::new(
                format!("adversarial/{}/{}", class.label(), protocol.label()),
                scale,
                dist.clone(),
                protocol,
            )
            .with_health_series(health_bucket(stream_secs));
            out.push(class.apply(scenario, stream_secs));
        }
    }
    out
}

/// Mean health score over surviving receivers.
fn mean_score(result: &ExperimentResult) -> f64 {
    let scores: Vec<f64> = result.survivors().map(|n| n.health.score).collect();
    scores.iter().sum::<f64>() / scores.len().max(1) as f64
}

/// Mean delivery ratio over surviving receivers.
fn mean_delivery(result: &ExperimentResult) -> f64 {
    let ratios: Vec<f64> = result
        .survivors()
        .map(|n| n.metrics.delivery_ratio())
        .collect();
    ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
}

/// Mean of the health-over-time series restricted to `x ∈ [from, to)`
/// seconds since the stream start; `None` if no bucket falls in the window.
pub fn epoch_mean(result: &ExperimentResult, from: f64, to: f64) -> Option<f64> {
    let series = result.health_series.as_ref()?.mean_series();
    let window: Vec<f64> = series
        .points
        .iter()
        .filter(|(x, _)| *x >= from && *x < to)
        .map(|(_, y)| *y)
        .collect();
    if window.is_empty() {
        None
    } else {
        Some(window.iter().sum::<f64>() / window.len() as f64)
    }
}

/// Runs the adversarial suite at the given scale.
pub fn run(scale: Scale) -> Figure {
    let scenarios = scenarios(scale);
    let results = run_scenarios_parallel(&scenarios);

    let mut fig = Figure::new(
        "Adversarial robustness",
        "Health and delivery under six fault classes, standard gossip vs HEAP (ref-691)",
    );

    let mut table = TextTable::new("adversarial robustness by fault class (ref-691)");
    table.header(vec![
        "fault class",
        "standard score",
        "HEAP score",
        "standard delivery",
        "HEAP delivery",
    ]);
    for (i, class) in FaultClass::ALL.iter().enumerate() {
        let (standard, heap) = (&results[2 * i], &results[2 * i + 1]);
        table.row(vec![
            class.label().to_string(),
            format!("{:.1}", mean_score(standard)),
            format!("{:.1}", mean_score(heap)),
            format!("{:.1}%", 100.0 * mean_delivery(standard)),
            format!("{:.1}%", 100.0 * mean_delivery(heap)),
        ]);
    }
    fig.tables.push(table);

    for (scenario, result) in scenarios.iter().zip(&results) {
        let series = result
            .health_series
            .as_ref()
            .expect("health sampling enabled above");
        let mut over_time = series.mean_series();
        over_time.name = format!(
            "health over time - {}",
            scenario
                .name
                .strip_prefix("adversarial/")
                .unwrap_or(&scenario.name)
        );
        fig.series.push(over_time);
    }
    fig
}

/// A score-distribution helper reused by figure consumers: the named
/// health-over-time series of one run.
pub fn health_series_named<'a>(fig: &'a Figure, suffix: &str) -> Option<&'a Series> {
    fig.series
        .iter()
        .find(|s| s.name.ends_with(suffix) && s.name.starts_with("health over time"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scenario;

    #[test]
    fn adversarial_figure_covers_every_fault_class() {
        let fig = run(Scale::test());
        assert_eq!(fig.tables.len(), 1);
        assert_eq!(
            fig.tables[0].n_rows(),
            FaultClass::ALL.len(),
            "one row per fault class"
        );
        // One health-over-time series per (fault class, protocol) pair.
        assert_eq!(fig.series.len(), FaultClass::ALL.len() * 2);
        for series in &fig.series {
            assert!(!series.is_empty(), "{} is empty", series.name);
            for (_, y) in &series.points {
                assert!((0.0..=100.0).contains(y), "{}: score {y}", series.name);
            }
        }
        assert!(health_series_named(&fig, "partition/HEAP f=7").is_some());
    }

    #[test]
    fn partition_depresses_health_then_heals() {
        // One HEAP run with the partition fault: the mean health curve must
        // dip while the regions are separated and recover after the heal.
        let scale = Scale::test();
        let stream_secs = StreamConfig::paper(scale.n_windows)
            .stream_duration()
            .as_secs_f64();
        let all = scenarios(scale);
        let heap_partition = all
            .iter()
            .find(|s| s.name == "adversarial/partition/HEAP f=7")
            .expect("partition scenario exists");
        let faulted = run_scenario(heap_partition);
        let mut clean = heap_partition.clone();
        clean.name = "adversarial/no-fault/HEAP f=7".to_string();
        clean.fault = None;
        let baseline = run_scenario(&clean);
        let (start, end) = (0.25 * stream_secs, 0.5 * stream_secs);
        let during = epoch_mean(&faulted, start, end).expect("buckets inside the fault epoch");
        let clean_during = epoch_mean(&baseline, start, end).expect("baseline buckets");
        assert!(
            during < clean_during - 5.0,
            "partition must visibly depress health: faulted {during:.1} vs clean {clean_during:.1}"
        );
        // After the heal (and a recovery margin), health climbs back towards
        // the clean run.
        let after = epoch_mean(&faulted, 0.75 * stream_secs, stream_secs + 30.0)
            .expect("post-heal buckets");
        assert!(
            after > during + 5.0,
            "health must recover after the heal: during {during:.1}, after {after:.1}"
        );
    }

    #[test]
    fn heap_outperforms_standard_under_most_fault_classes() {
        let scenarios = scenarios(Scale::test());
        let results = run_scenarios_parallel(&scenarios);
        let mut heap_wins = 0;
        for (i, class) in FaultClass::ALL.iter().enumerate() {
            let (standard, heap) = (&results[2 * i], &results[2 * i + 1]);
            let (std_score, heap_score) = (mean_score(standard), mean_score(heap));
            if heap_score >= std_score {
                heap_wins += 1;
            }
            // Whatever the ordering, no fault class may collapse HEAP
            // entirely at this scale.
            assert!(
                mean_delivery(heap) > 0.5,
                "{}: HEAP delivery collapsed",
                class.label()
            );
        }
        assert!(
            heap_wins >= 3,
            "HEAP must match or beat standard gossip's health score under at \
             least three fault classes, won {heap_wins}"
        );
    }
}
