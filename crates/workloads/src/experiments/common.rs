//! Shared plumbing for the per-figure experiment modules.

use crate::bandwidth_dist::BandwidthDistribution;
use crate::runner::{ExperimentResult, NodeResult};
use crate::scale::Scale;
use crate::scenario::{ProtocolChoice, Scenario};
use heap_analytics::{EmpiricalCdf, Series, TextTable};
use heap_simnet::time::SimDuration;
use std::fmt;

/// The output of one reproduced figure or table: a set of named series
/// (curves) and/or text tables, plus an identifier matching the paper.
#[derive(Debug, Clone, Default)]
pub struct Figure {
    /// Paper identifier ("Figure 3", "Table 2", ...).
    pub id: String,
    /// Short description of what is plotted.
    pub title: String,
    /// The curves of the figure (may be empty for pure tables).
    pub series: Vec<Series>,
    /// The tables of the figure (may be empty for pure plots).
    pub tables: Vec<TextTable>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            series: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Finds a series by (exact) name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "==== {} — {} ====", self.id, self.title)?;
        for table in &self.tables {
            writeln!(f, "{table}")?;
        }
        for series in &self.series {
            writeln!(f, "{series}")?;
        }
        Ok(())
    }
}

/// The lag thresholds (seconds) at which CDFs over nodes are sampled,
/// matching the 0–60 s x-axis of the paper's lag figures.
pub fn lag_thresholds() -> Vec<f64> {
    let mut v = Vec::new();
    let mut x = 0.0;
    while x <= 60.0 + 1e-9 {
        v.push(x);
        x += 0.5;
    }
    v
}

/// What per-node lag a lag-CDF is built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LagKind {
    /// Smallest lag at which the node has received ≥ 99 % of the stream
    /// packets (Figs. 1–3).
    Delivery99,
    /// Smallest lag at which the node's stream is completely jitter-free
    /// (Fig. 9 "no jitter").
    JitterFree,
    /// Smallest lag at which at most 1 % of windows are jittered
    /// (Fig. 9 "max 1 % jitter").
    MaxOnePercentJitter,
}

/// Extracts the per-node lag (in seconds) behind a lag CDF; `None` means the
/// node never reaches the condition.
pub fn node_lag(node: &NodeResult, kind: LagKind) -> Option<f64> {
    let lag = match kind {
        LagKind::Delivery99 => node.metrics.lag_for_full_delivery(0.99),
        LagKind::JitterFree => node.metrics.lag_for_jitter_free(0.0),
        LagKind::MaxOnePercentJitter => node.metrics.lag_for_jitter_free(0.01),
    };
    lag.map(|d| d.as_secs_f64())
}

/// Builds the "percentage of nodes (cumulative distribution) vs stream lag"
/// series the paper uses in Figs. 1, 2, 3 and 9, over the surviving receivers
/// of a run.
pub fn lag_cdf_series(result: &ExperimentResult, kind: LagKind, name: impl Into<String>) -> Series {
    let lags: Vec<Option<f64>> = result.survivors().map(|n| node_lag(n, kind)).collect();
    let cdf = EmpiricalCdf::with_missing(lags);
    let points = lag_thresholds()
        .into_iter()
        .map(|x| (x, 100.0 * cdf.fraction_at_or_below(x)))
        .collect();
    Series::new(name).with_points(points)
}

/// Builds the "percentage of nodes vs experienced jitter" series of Fig. 7:
/// for each jitter threshold x (in percent), the percentage of surviving
/// nodes whose jitter at the given lag is ≤ x. `lag = None` means offline
/// viewing (packets may arrive arbitrarily late).
pub fn jitter_cdf_series(
    result: &ExperimentResult,
    lag: Option<SimDuration>,
    name: impl Into<String>,
) -> Series {
    let jitters: Vec<f64> = result
        .survivors()
        .map(|n| match lag {
            Some(lag) => 100.0 * n.metrics.jitter_fraction(lag),
            None => 100.0 * (1.0 - n.metrics.offline_jitter_free_fraction()),
        })
        .collect();
    let cdf = EmpiricalCdf::new(jitters);
    let mut points = Vec::new();
    let mut x = 0.0;
    while x <= 100.0 + 1e-9 {
        points.push((x, 100.0 * cdf.fraction_at_or_below(x)));
        x += 1.0;
    }
    Series::new(name).with_points(points)
}

/// Mean of a per-node value over the surviving receivers of one class.
pub fn class_mean<F: Fn(&NodeResult) -> Option<f64>>(
    result: &ExperimentResult,
    class: &str,
    f: F,
) -> Option<f64> {
    let values: Vec<f64> = result.class_survivors(class).filter_map(f).collect();
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Formats an optional percentage for table cells.
pub fn pct(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{:.1}%", 100.0 * v),
        None => "n/a".to_string(),
    }
}

/// Formats an optional quantity in seconds for table cells.
pub fn secs(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.1}s"),
        None => "never".to_string(),
    }
}

/// The six baseline runs most figures and tables share: each of the three
/// Table-1 distributions under standard gossip (fanout 7) and under HEAP
/// (average fanout 7).
#[derive(Debug, Clone)]
pub struct StandardRuns {
    /// The scale the runs were executed at.
    pub scale: Scale,
    runs: Vec<(String, ExperimentResult)>,
}

/// The three Table-1 distributions.
pub fn table1_distributions() -> Vec<BandwidthDistribution> {
    vec![
        BandwidthDistribution::ref_691(),
        BandwidthDistribution::ref_724(),
        BandwidthDistribution::ms_691(),
    ]
}

impl StandardRuns {
    /// The `(key, scenario)` pairs of the six baseline runs, in the fixed
    /// order both compute paths preserve.
    fn scenarios(scale: Scale) -> Vec<(String, Scenario)> {
        let mut specs = Vec::new();
        for dist in table1_distributions() {
            for protocol in [
                ProtocolChoice::Standard { fanout: 7.0 },
                ProtocolChoice::Heap { fanout: 7.0 },
            ] {
                let key = Self::key(dist.name(), &protocol);
                let scenario = Scenario::new(key.clone(), scale, dist.clone(), protocol);
                specs.push((key, scenario));
            }
        }
        specs
    }

    /// Executes (or re-executes) the six baseline runs at the given scale,
    /// one scoped thread per scenario
    /// ([`run_scenarios_parallel`](crate::runner::run_scenarios_parallel)).
    ///
    /// Each scenario derives every random draw from its own `Scale` seed
    /// ([`run_scenario`](crate::runner::run_scenario) is a pure function of
    /// the scenario), so the threads only change wall-clock time, never a
    /// single byte of output.
    pub fn compute(scale: Scale) -> Self {
        let specs = Self::scenarios(scale);
        let scenarios: Vec<Scenario> = specs.iter().map(|(_, s)| s.clone()).collect();
        let results = crate::runner::run_scenarios_parallel(&scenarios);
        let runs = specs
            .into_iter()
            .zip(results)
            .map(|((key, _), result)| (key, result))
            .collect();
        StandardRuns { scale, runs }
    }

    fn key(dist: &str, protocol: &ProtocolChoice) -> String {
        let proto = match protocol {
            ProtocolChoice::Standard { .. } => "standard",
            ProtocolChoice::Heap { .. } => "heap",
            ProtocolChoice::HeapOracle { .. } => "heap-oracle",
        };
        format!("{dist}/{proto}")
    }

    /// The standard-gossip run for a distribution ("ref-691", "ref-724",
    /// "ms-691").
    ///
    /// # Panics
    ///
    /// Panics if the distribution name is unknown.
    pub fn standard(&self, dist: &str) -> &ExperimentResult {
        self.get(&format!("{dist}/standard"))
    }

    /// The HEAP run for a distribution.
    ///
    /// # Panics
    ///
    /// Panics if the distribution name is unknown.
    pub fn heap(&self, dist: &str) -> &ExperimentResult {
        self.get(&format!("{dist}/heap"))
    }

    fn get(&self, key: &str) -> &ExperimentResult {
        self.runs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, r)| r)
            .unwrap_or_else(|| panic!("no baseline run named {key}"))
    }

    /// Iterates over `(key, result)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ExperimentResult)> {
        self.runs.iter().map(|(k, r)| (k.as_str(), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_construction_and_lookup() {
        let mut fig = Figure::new("Figure 1", "demo");
        fig.series
            .push(Series::new("a").with_points(vec![(0.0, 1.0)]));
        let mut t = TextTable::new("t");
        t.row(vec!["x".into()]);
        fig.tables.push(t);
        assert!(fig.series_named("a").is_some());
        assert!(fig.series_named("b").is_none());
        let rendered = fig.to_string();
        assert!(rendered.contains("Figure 1"));
        assert!(rendered.contains("# a"));
    }

    #[test]
    fn lag_thresholds_cover_the_paper_axis() {
        let t = lag_thresholds();
        assert_eq!(t.first(), Some(&0.0));
        assert_eq!(t.last(), Some(&60.0));
        assert_eq!(t.len(), 121);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(Some(0.934)), "93.4%");
        assert_eq!(pct(None), "n/a");
        assert_eq!(secs(Some(12.34)), "12.3s");
        assert_eq!(secs(None), "never");
    }

    #[test]
    fn standard_runs_expose_all_six_runs() {
        let scale = Scale::test().with_nodes(16).with_windows(1);
        let runs = StandardRuns::compute(scale);
        assert_eq!(runs.scale, scale);
        for dist in ["ref-691", "ref-724", "ms-691"] {
            assert_eq!(
                runs.standard(dist).scenario_name,
                format!("{dist}/standard")
            );
            assert_eq!(runs.heap(dist).scenario_name, format!("{dist}/heap"));
        }
    }

    #[test]
    fn table1_distribution_list() {
        let dists = table1_distributions();
        assert_eq!(dists.len(), 3);
        assert_eq!(dists[0].name(), "ref-691");
        assert_eq!(dists[2].name(), "ms-691");
    }
}
