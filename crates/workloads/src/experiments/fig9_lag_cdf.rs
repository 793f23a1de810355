//! Figures 9a and 9b — cumulative distribution of stream-lag values.
//!
//! For each node, the smallest stream lag at which its stream is completely
//! jitter-free (or has at most 1 % of jittered windows); the CDF over nodes
//! is plotted for standard gossip and HEAP on ref-691 (9a) and ms-691 (9b).

use super::common::{lag_cdf_series, Figure, LagKind, StandardRuns};

/// Builds Figures 9a and 9b from the shared baseline runs.
pub fn run(runs: &StandardRuns) -> Figure {
    let mut fig = Figure::new(
        "Figure 9",
        "Cumulative distribution of nodes as a function of stream lag (no jitter / max 1% jitter)",
    );
    for dist in ["ref-691", "ms-691"] {
        let standard = runs.standard(dist);
        let heap = runs.heap(dist);
        fig.series.push(lag_cdf_series(
            standard,
            LagKind::JitterFree,
            format!("{dist}: standard gossip - no jitter"),
        ));
        fig.series.push(lag_cdf_series(
            standard,
            LagKind::MaxOnePercentJitter,
            format!("{dist}: standard gossip - max 1% jitter"),
        ));
        fig.series.push(lag_cdf_series(
            heap,
            LagKind::JitterFree,
            format!("{dist}: HEAP - no jitter"),
        ));
        fig.series.push(lag_cdf_series(
            heap,
            LagKind::MaxOnePercentJitter,
            format!("{dist}: HEAP - max 1% jitter"),
        ));
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn heap_reaches_more_nodes_at_any_lag() {
        let runs = StandardRuns::compute(Scale::test());
        let fig = run(&runs);
        assert_eq!(fig.series.len(), 8);

        // Relaxing the jitter requirement can only move the CDF up.
        for dist in ["ref-691", "ms-691"] {
            for proto in ["standard gossip", "HEAP"] {
                let strict = fig
                    .series_named(&format!("{dist}: {proto} - no jitter"))
                    .unwrap();
                let relaxed = fig
                    .series_named(&format!("{dist}: {proto} - max 1% jitter"))
                    .unwrap();
                for x in [10.0, 30.0, 60.0] {
                    assert!(relaxed.y_at(x).unwrap() + 1e-9 >= strict.y_at(x).unwrap());
                }
            }
        }
        // On the skewed distribution HEAP's no-jitter curve dominates standard
        // gossip's at the right edge of the plot.
        let heap = fig.series_named("ms-691: HEAP - no jitter").unwrap();
        let std = fig
            .series_named("ms-691: standard gossip - no jitter")
            .unwrap();
        assert!(heap.y_at(60.0).unwrap() >= std.y_at(60.0).unwrap());
    }
}
