//! Figure 3 — HEAP on the skewed distribution.
//!
//! With the same constrained ms-691 ("dist1") distribution that cripples
//! standard gossip in Figure 2, HEAP with an *average* fanout of 7 restores a
//! usable stream: the CDF of the lag needed for 99 % delivery rises to most
//! of the nodes within tens of seconds.

use super::common::{lag_cdf_series, Figure, LagKind, StandardRuns};

/// Builds Figure 3 from the shared baseline runs.
pub fn run(runs: &StandardRuns) -> Figure {
    let mut fig = Figure::new(
        "Figure 3",
        "CDF of stream lag for 99% delivery, HEAP (avg fanout 7), ms-691 (dist1)",
    );
    fig.series.push(lag_cdf_series(
        runs.heap("ms-691"),
        LagKind::Delivery99,
        "99% delivery",
    ));
    // The paper's companion curve (standard gossip, same distribution) for a
    // direct visual comparison.
    fig.series.push(lag_cdf_series(
        runs.standard("ms-691"),
        LagKind::Delivery99,
        "standard gossip f=7 (for comparison)",
    ));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn heap_dominates_standard_gossip_on_the_skewed_distribution() {
        let runs = StandardRuns::compute(Scale::test());
        let fig = run(&runs);
        let heap = fig.series_named("99% delivery").unwrap();
        let standard = fig
            .series_named("standard gossip f=7 (for comparison)")
            .unwrap();
        // At the right edge of the plot HEAP serves at least as many nodes,
        // and at moderate lags it should be clearly ahead.
        assert!(heap.y_at(60.0).unwrap() >= standard.y_at(60.0).unwrap());
        let heap_area: f64 = heap.points.iter().map(|(_, y)| y).sum();
        let std_area: f64 = standard.points.iter().map(|(_, y)| y).sum();
        assert!(
            heap_area >= std_area,
            "HEAP lag CDF (area {heap_area:.0}) should dominate standard gossip (area {std_area:.0})"
        );
    }
}
