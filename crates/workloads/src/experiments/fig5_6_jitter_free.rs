//! Figures 5, 6a and 6b — percentage of jitter-free windows per class.
//!
//! With a 10 s stream lag, standard gossip leaves poor nodes with a largely
//! jittered stream while HEAP brings every class above ~90 % of jitter-free
//! windows; the gap is widest on the skewed ms-691 distribution (Fig. 6a)
//! and still clear on ref-724 (Fig. 6b), where the extra global capacity
//! benefits everyone.

use super::common::{class_mean, pct, Figure, StandardRuns};
use crate::runner::ExperimentResult;
use heap_analytics::TextTable;
use heap_simnet::time::SimDuration;

/// The viewing lag used by these figures.
pub const VIEW_LAG: SimDuration = SimDuration::from_secs(10);

/// Mean percentage of jitter-free windows per class for one run.
pub fn jitter_free_by_class(
    result: &ExperimentResult,
    lag: SimDuration,
) -> Vec<(&'static str, Option<f64>)> {
    result
        .classes()
        .into_iter()
        .map(|class| {
            (
                class,
                class_mean(result, class, |n| Some(n.metrics.jitter_free_fraction(lag))),
            )
        })
        .collect()
}

/// Builds Figures 5 (ref-691), 6a (ms-691) and 6b (ref-724) from the shared
/// baseline runs.
pub fn run(runs: &StandardRuns) -> Figure {
    let mut fig = Figure::new(
        "Figures 5 / 6a / 6b",
        "Average percentage of jitter-free windows by capability class (10 s stream lag)",
    );
    for (paper_id, dist) in [
        ("Figure 5", "ref-691"),
        ("Figure 6a", "ms-691"),
        ("Figure 6b", "ref-724"),
    ] {
        let standard = runs.standard(dist);
        let heap = runs.heap(dist);
        let mut table = TextTable::new(format!("{paper_id} — jitter-free windows ({dist})"));
        table.header(vec!["class", "standard gossip", "HEAP"]);
        for class in standard.classes() {
            let std_v = class_mean(standard, class, |n| {
                Some(n.metrics.jitter_free_fraction(VIEW_LAG))
            });
            let heap_v = class_mean(heap, class, |n| {
                Some(n.metrics.jitter_free_fraction(VIEW_LAG))
            });
            table.row(vec![class.to_string(), pct(std_v), pct(heap_v)]);
        }
        fig.tables.push(table);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn heap_improves_poor_class_jitter_on_skewed_distribution() {
        let runs = StandardRuns::compute(Scale::test());
        let fig = run(&runs);
        assert_eq!(fig.tables.len(), 3);

        let std_by_class = jitter_free_by_class(runs.standard("ms-691"), VIEW_LAG);
        let heap_by_class = jitter_free_by_class(runs.heap("ms-691"), VIEW_LAG);
        let poor = |v: &Vec<(&'static str, Option<f64>)>| {
            v.iter()
                .find(|(c, _)| *c == "512kbps")
                .and_then(|(_, x)| *x)
                .unwrap_or(0.0)
        };
        let poor_std = poor(&std_by_class);
        let poor_heap = poor(&heap_by_class);
        assert!(
            poor_heap >= poor_std,
            "HEAP poor-class jitter-free {poor_heap:.2} should be at least standard's {poor_std:.2}"
        );
        // System-wide, HEAP must deliver at least as many jitter-free windows.
        let overall = |r: &ExperimentResult| {
            let vals: Vec<f64> = r
                .survivors()
                .map(|n| n.metrics.jitter_free_fraction(VIEW_LAG))
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(overall(runs.heap("ms-691")) >= overall(runs.standard("ms-691")));
    }
}
