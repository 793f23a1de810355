//! Figure 7 — cumulative distribution of experienced jitter (ref-691).
//!
//! Four curves: standard gossip and HEAP, each viewed with a 10 s stream lag
//! and "offline" (no deadline at all). Offline viewing shows that standard
//! gossip does eventually deliver most windows; with a real-time 10 s lag it
//! falls apart, while HEAP stays close to its offline curve.

use super::common::{jitter_cdf_series, Figure, StandardRuns};
use heap_simnet::time::SimDuration;

/// The real-time viewing lag of the figure.
pub const VIEW_LAG: SimDuration = SimDuration::from_secs(10);

/// Builds Figure 7 from the shared baseline runs.
pub fn run(runs: &StandardRuns) -> Figure {
    let mut fig = Figure::new(
        "Figure 7",
        "Cumulative distribution of nodes as a function of experienced jitter (ref-691)",
    );
    let standard = runs.standard("ref-691");
    let heap = runs.heap("ref-691");
    fig.series.push(jitter_cdf_series(
        standard,
        Some(VIEW_LAG),
        "standard gossip - 10s stream lag",
    ));
    fig.series.push(jitter_cdf_series(
        standard,
        None,
        "standard gossip - offline viewing",
    ));
    fig.series.push(jitter_cdf_series(
        heap,
        Some(VIEW_LAG),
        "HEAP - 10s stream lag",
    ));
    fig.series
        .push(jitter_cdf_series(heap, None, "HEAP - offline viewing"));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn heap_at_10s_tracks_offline_much_closer_than_standard() {
        let runs = StandardRuns::compute(Scale::test());
        let fig = run(&runs);
        assert_eq!(fig.series.len(), 4);
        let value = |name: &str, x: f64| fig.series_named(name).unwrap().y_at(x).unwrap();

        // Offline viewing dominates (or equals) real-time viewing for both
        // protocols: allowing unlimited lag can only reduce jitter.
        for proto in ["standard gossip", "HEAP"] {
            let offline = value(&format!("{proto} - offline viewing"), 10.0);
            let realtime = value(&format!("{proto} - 10s stream lag"), 10.0);
            assert!(
                offline + 1e-9 >= realtime,
                "{proto}: offline {offline} < realtime {realtime}"
            );
        }
        // HEAP with a 10 s lag keeps at least as many nodes under 10% jitter
        // as standard gossip does.
        let heap_low_jitter = value("HEAP - 10s stream lag", 10.0);
        let std_low_jitter = value("standard gossip - 10s stream lag", 10.0);
        assert!(
            heap_low_jitter >= std_low_jitter,
            "HEAP {heap_low_jitter}% vs standard {std_low_jitter}% of nodes with <=10% jitter"
        );
    }
}
