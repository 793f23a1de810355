//! Table 2 — average delivery ratio inside windows that cannot be fully
//! decoded.
//!
//! Because the FEC is systematic, a jittered window is not lost outright:
//! whatever source packets arrived in time are still viewable. The table
//! reports the average fraction of source packets received inside jittered
//! windows, per capability class, for standard gossip and HEAP (evaluated at
//! a 10 s stream lag). Note the caveat from the paper: HEAP has far fewer
//! jittered windows, so its averages are computed over a much smaller (and
//! more adverse) set.

use super::common::{class_mean, pct, table1_distributions, Figure, StandardRuns};
use crate::runner::ExperimentResult;
use heap_analytics::TextTable;
use heap_simnet::time::SimDuration;

/// The viewing lag used by the table.
pub const VIEW_LAG: SimDuration = SimDuration::from_secs(10);

/// Mean delivery ratio inside jittered windows, per class.
pub fn jittered_delivery_by_class(result: &ExperimentResult) -> Vec<(&'static str, Option<f64>)> {
    result
        .classes()
        .into_iter()
        .map(|class| {
            (
                class,
                class_mean(result, class, |n| {
                    n.metrics.jittered_window_delivery_ratio(VIEW_LAG)
                }),
            )
        })
        .collect()
}

/// Builds Table 2 from the shared baseline runs.
pub fn run(runs: &StandardRuns) -> Figure {
    let mut fig = Figure::new(
        "Table 2",
        "Average delivery ratio in windows that cannot be fully decoded (10 s lag)",
    );
    let mut table = TextTable::new("Table 2 — delivery inside jittered windows");
    table.header(vec!["distribution", "class", "standard gossip", "HEAP"]);
    for dist in table1_distributions() {
        let standard = runs.standard(dist.name());
        let heap = runs.heap(dist.name());
        for class in standard.classes() {
            let std_v = class_mean(standard, class, |n| {
                n.metrics.jittered_window_delivery_ratio(VIEW_LAG)
            });
            let heap_v = class_mean(heap, class, |n| {
                n.metrics.jittered_window_delivery_ratio(VIEW_LAG)
            });
            table.row(vec![
                dist.name().to_string(),
                class.to_string(),
                pct(std_v),
                pct(heap_v),
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
    fn table_has_one_row_per_distribution_and_class() {
        let runs = StandardRuns::compute(Scale::test());
        let fig = run(&runs);
        assert_eq!(fig.tables.len(), 1);
        // 3 distributions × 3 classes.
        assert_eq!(fig.tables[0].n_rows(), 9);
        // Ratios, when present, are valid percentages between 0 and 100.
        let by_class = jittered_delivery_by_class(runs.standard("ms-691"));
        for (_, v) in by_class {
            if let Some(v) = v {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
