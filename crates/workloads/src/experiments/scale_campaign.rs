//! The scale campaign's dissemination figure (`repro scale`).
//!
//! A fig1-style run — standard gossip, fanout 7, unconstrained bandwidth —
//! at populations far past the paper's ~10⁴-node testbed, in
//! [`ResultDetail::Compact`] so per-node result state stays `O(n_windows)`.
//! The figure reports the 99 %-delivery lag CDF exactly like Fig. 1, the
//! run-level packet-lag distribution (the streaming per-bucket aggregate
//! that replaces whole-run per-packet vectors at this scale) and a summary
//! table with delivery ratio, per-node result memory and the process's peak
//! resident set. `docs/SCALE.md` documents the memory budget and how to
//! drive the campaign.

use super::common::{lag_cdf_series, Figure, LagKind};
use crate::bandwidth_dist::BandwidthDistribution;
use crate::runner::run_scenario;
use crate::scale::Scale;
use crate::scenario::{ProtocolChoice, ResultDetail, Scenario};
use heap_analytics::TextTable;
use heap_streaming::NodeMetrics;

/// Node count of the CI smoke configuration (`repro scale --smoke`).
pub const SMOKE_NODES: usize = 100_000;

/// Windows streamed in the smoke configuration: one window keeps the
/// 10⁵-node smoke run in CI territory while still exercising the whole
/// source → gossip → decode → compact-metrics pipeline.
pub const SMOKE_WINDOWS: u64 = 1;

/// Bound on the smoke run's peak resident set (`VmHWM`) per node, in bytes:
/// the measurement plus 10 %, as the allocator guards set theirs. `repro
/// scale --smoke` exits non-zero above it ([`check_smoke_peak_rss`]).
/// Measured 2026-10-18 on the 2-core, 15.7 GiB host, seed 42: 4 162
/// B/node (396 MiB), with serve-dedup pairs in one `u32` key and proposal
/// queues of `u32` sequence numbers, against 5 049 B/node (481 MiB) on the
/// commit before, back to back; 5 122 B/node (488 MiB) measured 2026-10-17
/// with answered requests dropped from the retransmit queue before it grows
/// and serve-dedup pairs packed into one `u64`; 9 214 B/node (878 MiB)
/// before, with set-up's temporary vectors freed before the run (9 247
/// B/node while they lived to the end of it).
pub const SMOKE_PEAK_RSS_BYTES_PER_NODE: u64 = 4_578;

/// The campaign scenario at `n` nodes over `windows` stream windows:
/// fig1's protocol configuration in compact result detail.
pub fn scenario(n: usize, windows: u64, seed: u64) -> Scenario {
    Scenario::new(
        "scale/dissemination/standard-f7",
        Scale::test()
            .with_nodes(n)
            .with_windows(windows)
            .with_seed(seed),
        BandwidthDistribution::unconstrained(),
        ProtocolChoice::Standard { fanout: 7.0 },
    )
    .with_detail(ResultDetail::Compact)
}

/// The process's peak resident set in kB (`VmHWM` of `/proc/self/status`),
/// on platforms that have the file.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    value.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Checks the process's peak resident set after a smoke-shape run of `n`
/// nodes against [`SMOKE_PEAK_RSS_BYTES_PER_NODE`]; the error names the
/// bound. Passes where `/proc/self/status` does not exist.
pub fn check_smoke_peak_rss(n: usize) -> Result<(), String> {
    match peak_rss_kb().map(|kb| kb * 1024 / n as u64) {
        Some(per_node) if per_node > SMOKE_PEAK_RSS_BYTES_PER_NODE => Err(format!(
            "peak RSS {per_node} B/node exceeds SMOKE_PEAK_RSS_BYTES_PER_NODE \
             ({SMOKE_PEAK_RSS_BYTES_PER_NODE} B/node)"
        )),
        _ => Ok(()),
    }
}

/// Runs the campaign figure at `n` nodes / `windows` windows.
pub fn run(n: usize, windows: u64, seed: u64) -> Figure {
    let result = run_scenario(&scenario(n, windows, seed));
    let mut fig = Figure::new(
        "Scale campaign",
        format!("fig1-style dissemination at {n} nodes ({windows} windows, compact result detail)"),
    );
    fig.series
        .push(lag_cdf_series(&result, LagKind::Delivery99, "99% delivery"));
    let lag_series = result
        .packet_lag_series
        .as_ref()
        .expect("compact runs produce the run-level lag series");
    // Render the distribution's bucket populations: x = lag bucket start
    // (seconds), y = fraction of all received packets in the bucket.
    let total: u64 = lag_series.buckets().map(|(_, b)| b.count).sum();
    let mut dist = heap_analytics::Series::new("packet lag share per 0.5s bucket");
    for (start, stats) in lag_series.buckets() {
        if stats.count > 0 {
            dist.push(start, stats.count as f64 / total.max(1) as f64);
        }
    }
    fig.series.push(dist);

    let delivered = result
        .nodes
        .iter()
        .filter(|node| node.metrics.delivery_ratio() >= 0.99)
        .count();
    let result_bytes: u64 = result
        .nodes
        .iter()
        .map(|node| match &node.metrics {
            NodeMetrics::Compact(m) => m.heap_bytes() as u64,
            NodeMetrics::Full(_) => unreachable!("campaign runs are compact"),
        })
        .sum();
    let mut header = vec![
        "nodes",
        "receivers >= 99% delivery",
        "packets recorded",
        "metrics bytes/node",
    ];
    let mut row = vec![
        n.to_string(),
        format!(
            "{delivered} ({:.1}%)",
            100.0 * delivered as f64 / result.nodes.len() as f64
        ),
        total.to_string(),
        format!("{:.0}", result_bytes as f64 / result.nodes.len() as f64),
    ];
    // The whole process's high-water mark, so a campaign run reports its
    // own memory against the scale targets without an external wrapper.
    if let Some(kb) = peak_rss_kb() {
        header.push("peak RSS");
        let per_node = kb as f64 * 1024.0 / n as f64;
        row.push(format!("{} MiB ({per_node:.0} B/node)", kb / 1024));
    }
    let mut table = TextTable::new("scale summary");
    table.header(header);
    table.row(row);
    fig.tables.push(table);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_figure_reports_delivery_and_memory() {
        // A miniature campaign run: the same code path as `repro scale`,
        // scaled down so the test stays fast.
        let fig = run(300, 2, 7);
        let cdf = fig.series_named("99% delivery").expect("cdf present");
        assert!(
            cdf.y_max().unwrap() > 95.0,
            "unconstrained standard gossip must reach nearly everyone"
        );
        let dist = fig
            .series_named("packet lag share per 0.5s bucket")
            .expect("lag distribution present");
        let share: f64 = dist.points.iter().map(|&(_, y)| y).sum();
        assert!((share - 1.0).abs() < 1e-9, "shares sum to {share}");
        assert_eq!(fig.tables.len(), 1);
    }

    #[test]
    fn smoke_guard_names_its_bound() {
        // Charged to one node, the test process's resident set is far above
        // any per-node bound.
        if peak_rss_kb().is_some() {
            let err = check_smoke_peak_rss(1).unwrap_err();
            assert!(
                err.contains("SMOKE_PEAK_RSS_BYTES_PER_NODE (4578 B/node)"),
                "{err}"
            );
        }
        assert_eq!(check_smoke_peak_rss(usize::MAX), Ok(()));
    }
}
