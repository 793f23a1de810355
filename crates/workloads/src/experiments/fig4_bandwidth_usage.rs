//! Figure 4 — bandwidth consumption per capability class.
//!
//! The paper's key "contribution matches capability" result: under standard
//! gossip poor nodes saturate their uplink while rich nodes sit idle (most
//! visibly in the skewed ms-691 distribution where 3 Mbps nodes use only
//! ~40 % of their capability); under HEAP every class consumes a comparable
//! fraction of its capability.

use super::common::{class_mean, pct, Figure, StandardRuns};
use heap_analytics::TextTable;

/// Builds the Figure 4 tables (4a: ref-691, 4b: ms-691) from the shared
/// baseline runs.
pub fn run(runs: &StandardRuns) -> Figure {
    let mut fig = Figure::new(
        "Figure 4",
        "Average upload-bandwidth usage by capability class (fraction of the cap)",
    );
    for dist in ["ref-691", "ms-691"] {
        let standard = runs.standard(dist);
        let heap = runs.heap(dist);
        let mut table = TextTable::new(format!("Figure 4 — bandwidth usage ({dist})"));
        table.header(vec!["class", "standard gossip", "HEAP"]);
        for class in standard.classes() {
            let std_usage = class_mean(standard, class, |n| n.upload_utilization);
            let heap_usage = class_mean(heap, class, |n| n.upload_utilization);
            table.row(vec![class.to_string(), pct(std_usage), pct(heap_usage)]);
        }
        fig.tables.push(table);
    }
    fig
}

/// Numeric view used by tests and the ablation benches: mean utilization per
/// class for one run.
pub fn usage_by_class(
    result: &crate::runner::ExperimentResult,
) -> Vec<(&'static str, Option<f64>)> {
    result
        .classes()
        .into_iter()
        .map(|class| (class, class_mean(result, class, |n| n.upload_utilization)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn heap_balances_utilization_across_classes() {
        let runs = StandardRuns::compute(Scale::test());
        let fig = run(&runs);
        assert_eq!(fig.tables.len(), 2);
        assert!(fig.tables[0].title().contains("ref-691"));
        assert!(fig.tables[1].title().contains("ms-691"));
        assert_eq!(fig.tables[1].n_rows(), 3);

        // On the skewed distribution, HEAP must make the rich (3 Mbps) class
        // contribute a larger share of its capability than standard gossip
        // does — that is the whole point of the fanout adaptation.
        let std_usage = usage_by_class(runs.standard("ms-691"));
        let heap_usage = usage_by_class(runs.heap("ms-691"));
        let rich_std = std_usage
            .iter()
            .find(|(c, _)| *c == "3Mbps")
            .and_then(|(_, u)| *u)
            .expect("rich class present");
        let rich_heap = heap_usage
            .iter()
            .find(|(c, _)| *c == "3Mbps")
            .and_then(|(_, u)| *u)
            .expect("rich class present");
        assert!(
            rich_heap > rich_std,
            "HEAP rich-class usage {rich_heap:.2} should exceed standard's {rich_std:.2}"
        );
        // And the poor class must not be *more* loaded under HEAP.
        let poor_std = std_usage
            .iter()
            .find(|(c, _)| *c == "512kbps")
            .and_then(|(_, u)| *u)
            .unwrap();
        let poor_heap = heap_usage
            .iter()
            .find(|(c, _)| *c == "512kbps")
            .and_then(|(_, u)| *u)
            .unwrap();
        assert!(
            poor_heap <= poor_std + 0.10,
            "HEAP poor-class usage {poor_heap:.2} should not exceed standard's {poor_std:.2} by much"
        );
    }
}
