//! `repro` — regenerates every figure and table of the HEAP paper.
//!
//! ```text
//! Usage: repro [--scale test|default|paper] [--seed N] [--smoke]
//!              [--nodes N] [--windows N]
//!              [--metrics-out PATH] [EXPERIMENT ...]
//!
//! EXPERIMENT is one or more of:
//!   table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 table2 table3
//!   partialview health adversarial
//! or `all` (the default). `--smoke` shrinks whatever scale is selected to a
//! fast CI smoke configuration (24 nodes, 2 windows).
//!
//! `scale` (never part of `all`) runs the scale campaign's fig1-style
//! dissemination figure at a large population in compact result detail —
//! see `docs/SCALE.md`. It defaults to 100 000 nodes / 2 windows;
//! `--nodes`/`--windows` override, and `--smoke` selects the CI smoke shape
//! (100 000 nodes, 1 window). Without `scale`, `--nodes`/`--windows` are a
//! usage error. A run of `scale` alone heads its output with the campaign's
//! population and windows.
//! ```
//!
//! Output is plain text: one block per figure with its tables and/or
//! gnuplot-friendly series. The README section "Reproducing the paper" maps
//! each experiment to the paper artefact and claim it reproduces.
//!
//! `--metrics-out PATH` additionally writes a Prometheus-style text
//! exposition of the six baseline runs (see `docs/METRICS.md`) to `PATH`,
//! prefixed with one `# generated-at <unix seconds>` comment line so
//! byte-comparisons can strip the only non-deterministic part.

use heap_bench::parse_scale;
use heap_workloads::experiments::{
    adversarial, fig10_churn, fig1_unconstrained, fig2_fanout_sweep, fig3_heap_dist1,
    fig4_bandwidth_usage, fig5_6_jitter_free, fig7_jitter_cdf, fig8_lag_by_class, fig9_lag_cdf,
    partial_view, scale_campaign, stream_health, table1_distributions, table2_jittered_delivery,
    table3_jitter_free_nodes, Figure, StandardRuns,
};
use heap_workloads::Scale;
use std::collections::BTreeSet;
use std::time::Instant;

const ALL_EXPERIMENTS: &[&str] = &[
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table2",
    "table3",
    "partialview",
    "health",
    "adversarial",
];

/// Default population of `repro scale` without `--nodes`: the largest size
/// whose full-detail campaign run stays comfortable on the reference host
/// (see `docs/SCALE.md` for timings and the memory budget).
const SCALE_DEFAULT_NODES: usize = 100_000;

/// Default stream length of `repro scale` without `--windows`.
const SCALE_DEFAULT_WINDOWS: u64 = 2;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale test|default|paper] [--seed N] [--smoke] \
         [--nodes N] [--windows N] [--metrics-out PATH] [EXPERIMENT ...]\n\
         experiments: {} or 'all'\n\
         'scale' (the scale-campaign figure, never part of 'all') honours \
         --nodes/--windows and uses the CI smoke shape under --smoke",
        ALL_EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

/// Reports a command-line error on stderr and exits with status 2.
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    eprintln!("run 'repro --help' for usage");
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::default_scale();
    let mut wanted: BTreeSet<String> = BTreeSet::new();
    let mut metrics_out: Option<String> = None;
    let mut smoke = false;
    let mut scale_nodes: Option<usize> = None;
    let mut scale_windows: Option<u64> = None;
    let mut run_scale_campaign = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| fail("--nodes requires a value"));
                scale_nodes = Some(value.parse().unwrap_or_else(|_| {
                    fail(format!(
                        "invalid --nodes '{value}': expected an unsigned integer"
                    ))
                }));
                continue;
            }
            "--windows" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| fail("--windows requires a value"));
                scale_windows = Some(value.parse().unwrap_or_else(|_| {
                    fail(format!(
                        "invalid --windows '{value}': expected an unsigned integer"
                    ))
                }));
                continue;
            }
            "scale" => {
                run_scale_campaign = true;
                continue;
            }
            _ => {}
        }
        match arg.as_str() {
            "--scale" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| fail("--scale requires a value (test|default|paper)"));
                let parsed = parse_scale(&value).unwrap_or_else(|| {
                    fail(format!(
                        "invalid --scale '{value}': expected test, default or paper"
                    ))
                });
                scale = parsed.with_seed(scale.seed);
            }
            "--seed" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| fail("--seed requires a value"));
                let seed: u64 = value.parse().unwrap_or_else(|_| {
                    fail(format!(
                        "invalid --seed '{value}': expected an unsigned integer"
                    ))
                });
                scale = scale.with_seed(seed);
            }
            "--metrics-out" => {
                metrics_out = Some(
                    args.next()
                        .unwrap_or_else(|| fail("--metrics-out requires a path")),
                );
            }
            "--smoke" => smoke = true,
            "--help" | "-h" => usage(),
            "all" => {
                wanted.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string()));
            }
            other => {
                if ALL_EXPERIMENTS.contains(&other) {
                    wanted.insert(other.to_string());
                } else {
                    fail(format!(
                        "unknown experiment '{other}' (expected one of: {} or 'all')",
                        ALL_EXPERIMENTS.join(" ")
                    ));
                }
            }
        }
    }
    if smoke {
        // A fast CI configuration: whatever scale was selected, shrink the
        // population and the stream while keeping the chosen seed.
        scale = scale.with_nodes(24).with_windows(2);
    }
    if !run_scale_campaign && (scale_nodes.is_some() || scale_windows.is_some()) {
        fail("--nodes and --windows apply only to the 'scale' experiment");
    }
    // The campaign sizes itself independently of `--scale`: `--smoke`
    // selects the CI smoke shape, `--nodes`/`--windows` override either
    // default. Only the seed is shared with the other experiments.
    let campaign_nodes = scale_nodes.unwrap_or(if smoke {
        scale_campaign::SMOKE_NODES
    } else {
        SCALE_DEFAULT_NODES
    });
    let campaign_windows = scale_windows.unwrap_or(if smoke {
        scale_campaign::SMOKE_WINDOWS
    } else {
        SCALE_DEFAULT_WINDOWS
    });
    if wanted.is_empty() && !run_scale_campaign {
        wanted.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string()));
    }

    // A scale-only run reports the population it actually simulates.
    let (header_nodes, header_windows) = if wanted.is_empty() {
        (campaign_nodes, campaign_windows)
    } else {
        (scale.n_nodes, scale.n_windows)
    };
    println!(
        "# HEAP reproduction — {header_nodes} nodes, {header_windows} windows, seed {}",
        scale.seed
    );

    // The six baseline runs are shared by most figures (and by the metrics
    // export); compute them lazily.
    let needs_baseline = metrics_out.is_some()
        || [
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table2", "table3",
        ]
        .iter()
        .any(|e| wanted.contains(*e));
    let baseline = if needs_baseline {
        let start = Instant::now();
        eprintln!("computing the six baseline runs (3 distributions x 2 protocols)...");
        let runs = StandardRuns::compute(scale);
        eprintln!(
            "baseline runs done in {:.1}s",
            start.elapsed().as_secs_f64()
        );
        Some(runs)
    } else {
        None
    };

    let emit = |name: &str, fig: Figure| {
        println!("\n{fig}");
        eprintln!("[{name}] done");
    };

    for name in &wanted {
        let start = Instant::now();
        match name.as_str() {
            "table1" => emit("table1", table1_distributions::run()),
            "fig1" => emit("fig1", fig1_unconstrained::run(scale)),
            "fig2" => emit("fig2", fig2_fanout_sweep::run(scale)),
            "fig3" => emit(
                "fig3",
                fig3_heap_dist1::run(baseline.as_ref().expect("baseline")),
            ),
            "fig4" => emit(
                "fig4",
                fig4_bandwidth_usage::run(baseline.as_ref().expect("baseline")),
            ),
            // Figures 5 and 6 come from the same experiment module.
            "fig5" | "fig6" => {
                if name == "fig5" || !wanted.contains("fig5") {
                    emit(
                        "fig5/6",
                        fig5_6_jitter_free::run(baseline.as_ref().expect("baseline")),
                    );
                }
            }
            "fig7" => emit(
                "fig7",
                fig7_jitter_cdf::run(baseline.as_ref().expect("baseline")),
            ),
            "fig8" => emit(
                "fig8",
                fig8_lag_by_class::run(baseline.as_ref().expect("baseline")),
            ),
            "fig9" => emit(
                "fig9",
                fig9_lag_cdf::run(baseline.as_ref().expect("baseline")),
            ),
            "fig10" => emit("fig10", fig10_churn::run(scale)),
            "health" => emit("health", stream_health::run(scale)),
            "adversarial" => emit("adversarial", adversarial::run(scale)),
            "partialview" => {
                emit("partialview", partial_view::run(scale));
                emit("partialview-churn", partial_view::run_continuous(scale));
            }
            "table2" => emit(
                "table2",
                table2_jittered_delivery::run(baseline.as_ref().expect("baseline")),
            ),
            "table3" => emit(
                "table3",
                table3_jitter_free_nodes::run(baseline.as_ref().expect("baseline")),
            ),
            _ => unreachable!("validated above"),
        }
        eprintln!("[{name}] took {:.1}s", start.elapsed().as_secs_f64());
    }

    if run_scale_campaign {
        let start = Instant::now();
        emit(
            "scale",
            scale_campaign::run(campaign_nodes, campaign_windows, scale.seed),
        );
        eprintln!("[scale] took {:.1}s", start.elapsed().as_secs_f64());
    }

    if let Some(path) = metrics_out {
        let generated_at = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let text = format!(
            "# generated-at {generated_at}\n{}",
            stream_health::baseline_exposition(baseline.as_ref().expect("baseline"))
        );
        std::fs::write(&path, text).unwrap_or_else(|e| {
            eprintln!("cannot write metrics to {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[metrics] exposition written to {path}");
    }
}
