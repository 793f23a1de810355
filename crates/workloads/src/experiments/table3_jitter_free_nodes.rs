//! Table 3 — percentage of nodes receiving a completely jitter-free stream,
//! per capability class.
//!
//! Evaluated at a 10 s stream lag for ref-691 and ref-724 and at 20 s for the
//! skewed ms-691 (as in the paper). Under standard gossip on ms-691 *no*
//! class manages a jitter-free stream; HEAP brings every class to a large
//! majority of jitter-free nodes.

use super::common::{table1_distributions, Figure, StandardRuns};
use crate::runner::ExperimentResult;
use heap_analytics::TextTable;
use heap_simnet::time::SimDuration;

/// The viewing lag used for a distribution (10 s, except 20 s for ms-691).
pub fn view_lag(dist_name: &str) -> SimDuration {
    if dist_name == "ms-691" {
        SimDuration::from_secs(20)
    } else {
        SimDuration::from_secs(10)
    }
}

/// Percentage of surviving nodes of a class whose stream is completely
/// jitter-free at the given lag.
pub fn jitter_free_node_percentage(
    result: &ExperimentResult,
    class: &str,
    lag: SimDuration,
) -> f64 {
    let nodes: Vec<_> = result.class_survivors(class).collect();
    if nodes.is_empty() {
        return 0.0;
    }
    let ok = nodes
        .iter()
        .filter(|n| n.metrics.jitter_free_fraction(lag) >= 1.0)
        .count();
    100.0 * ok as f64 / nodes.len() as f64
}

/// Builds Table 3 from the shared baseline runs.
pub fn run(runs: &StandardRuns) -> Figure {
    let mut fig = Figure::new(
        "Table 3",
        "Percentage of nodes receiving a jitter-free stream by capability class",
    );
    let mut table = TextTable::new("Table 3 — nodes with a fully jitter-free stream");
    table.header(vec![
        "distribution (lag)",
        "class",
        "standard gossip",
        "HEAP",
    ]);
    for dist in table1_distributions() {
        let lag = view_lag(dist.name());
        let standard = runs.standard(dist.name());
        let heap = runs.heap(dist.name());
        for class in standard.classes() {
            table.row(vec![
                format!("{} ({}s)", dist.name(), lag.as_secs_f64() as u64),
                class.to_string(),
                format!("{:.1}%", jitter_free_node_percentage(standard, class, lag)),
                format!("{:.1}%", jitter_free_node_percentage(heap, class, lag)),
            ]);
        }
    }
    fig.tables.push(table);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn heap_serves_at_least_as_many_jitter_free_nodes() {
        let runs = StandardRuns::compute(Scale::test());
        let fig = run(&runs);
        assert_eq!(fig.tables[0].n_rows(), 9);

        // Aggregate over all classes of the skewed distribution: the share of
        // fully jitter-free nodes under HEAP is at least standard gossip's.
        let lag = view_lag("ms-691");
        let total = |r: &ExperimentResult| {
            let nodes: Vec<_> = r.survivors().collect();
            let ok = nodes
                .iter()
                .filter(|n| n.metrics.jitter_free_fraction(lag) >= 1.0)
                .count();
            100.0 * ok as f64 / nodes.len() as f64
        };
        let heap_pct = total(runs.heap("ms-691"));
        let std_pct = total(runs.standard("ms-691"));
        assert!(
            heap_pct >= std_pct,
            "HEAP {heap_pct:.1}% vs standard {std_pct:.1}% jitter-free nodes"
        );
    }
}
