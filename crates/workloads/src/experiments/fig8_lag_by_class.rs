//! Figures 8a and 8b — average stream lag to obtain a jitter-free stream,
//! per capability class.
//!
//! HEAP drastically reduces the lag every class needs before its stream is
//! completely jitter-free, and the gap grows with the skewness of the
//! distribution (ms-691 vs ref-691).

use super::common::{class_mean, secs, Figure, StandardRuns};
use crate::runner::ExperimentResult;
use heap_analytics::TextTable;

/// Mean lag (seconds) to a fully jitter-free stream per class; nodes that
/// never get there are excluded from the mean (and reported separately by
/// Table 3).
pub fn lag_by_class(result: &ExperimentResult) -> Vec<(&'static str, Option<f64>)> {
    result
        .classes()
        .into_iter()
        .map(|class| {
            (
                class,
                class_mean(result, class, |n| {
                    n.metrics.lag_for_jitter_free(0.0).map(|d| d.as_secs_f64())
                }),
            )
        })
        .collect()
}

/// Builds Figures 8a (ref-691) and 8b (ms-691) from the shared baseline runs.
pub fn run(runs: &StandardRuns) -> Figure {
    let mut fig = Figure::new(
        "Figure 8",
        "Average stream lag to obtain a jitter-free stream, by capability class",
    );
    for (paper_id, dist) in [("Figure 8a", "ref-691"), ("Figure 8b", "ms-691")] {
        let standard = runs.standard(dist);
        let heap = runs.heap(dist);
        let mut table = TextTable::new(format!(
            "{paper_id} — lag for a jitter-free stream ({dist})"
        ));
        table.header(vec!["class", "standard gossip", "HEAP"]);
        for class in standard.classes() {
            let std_lag = class_mean(standard, class, |n| {
                n.metrics.lag_for_jitter_free(0.0).map(|d| d.as_secs_f64())
            });
            let heap_lag = class_mean(heap, class, |n| {
                n.metrics.lag_for_jitter_free(0.0).map(|d| d.as_secs_f64())
            });
            table.row(vec![class.to_string(), secs(std_lag), secs(heap_lag)]);
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
    fn tables_cover_both_distributions_and_all_classes() {
        let runs = StandardRuns::compute(Scale::test());
        let fig = run(&runs);
        assert_eq!(fig.tables.len(), 2);
        assert_eq!(fig.tables[0].n_rows(), 3);
        assert_eq!(fig.tables[1].n_rows(), 3);

        // Average over the whole population: a node that reaches jitter-free
        // viewing under HEAP should not need (much) more lag than under
        // standard gossip. Compare the population means where both exist.
        let mean_lag = |r: &ExperimentResult| {
            let v: Vec<f64> = r
                .survivors()
                .filter_map(|n| n.metrics.lag_for_jitter_free(0.0).map(|d| d.as_secs_f64()))
                .collect();
            if v.is_empty() {
                None
            } else {
                Some(v.iter().sum::<f64>() / v.len() as f64)
            }
        };
        let heap_reach: usize = runs
            .heap("ms-691")
            .survivors()
            .filter(|n| n.metrics.lag_for_jitter_free(0.0).is_some())
            .count();
        let std_reach: usize = runs
            .standard("ms-691")
            .survivors()
            .filter(|n| n.metrics.lag_for_jitter_free(0.0).is_some())
            .count();
        // HEAP lets at least as many nodes reach a jitter-free stream.
        assert!(
            heap_reach >= std_reach,
            "HEAP {heap_reach} vs standard {std_reach}"
        );
        let _ = mean_lag(runs.heap("ms-691"));
    }
}
