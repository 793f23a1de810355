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
//! usage error, as is a shape `Scenario::validate` refuses. A run of `scale`
//! alone heads its output with the campaign's population and windows.
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

/// How an experiment gets its runs.
#[derive(Clone, Copy)]
enum Runner {
    /// Simulates its own scenarios at the selected scale (`partialview`
    /// emits two figures).
    Scale(fn(Scale) -> Vec<Figure>),
    /// Reads the six baseline runs (3 distributions × 2 protocols), computed
    /// once for every experiment that needs them.
    Baseline(fn(&StandardRuns) -> Figure),
}

/// Every experiment, by the name the command line uses. Figures 5 and 6 come
/// from one experiment, which a run that wants both emits once.
const EXPERIMENTS: &[(&str, Runner)] = &[
    (
        "table1",
        Runner::Scale(|_| vec![table1_distributions::run()]),
    ),
    ("fig1", Runner::Scale(|s| vec![fig1_unconstrained::run(s)])),
    ("fig2", Runner::Scale(|s| vec![fig2_fanout_sweep::run(s)])),
    ("fig3", Runner::Baseline(fig3_heap_dist1::run)),
    ("fig4", Runner::Baseline(fig4_bandwidth_usage::run)),
    ("fig5", Runner::Baseline(fig5_6_jitter_free::run)),
    ("fig6", Runner::Baseline(fig5_6_jitter_free::run)),
    ("fig7", Runner::Baseline(fig7_jitter_cdf::run)),
    ("fig8", Runner::Baseline(fig8_lag_by_class::run)),
    ("fig9", Runner::Baseline(fig9_lag_cdf::run)),
    ("fig10", Runner::Scale(|s| vec![fig10_churn::run(s)])),
    ("table2", Runner::Baseline(table2_jittered_delivery::run)),
    ("table3", Runner::Baseline(table3_jitter_free_nodes::run)),
    (
        "partialview",
        Runner::Scale(|s| vec![partial_view::run(s), partial_view::run_continuous(s)]),
    ),
    ("health", Runner::Scale(|s| vec![stream_health::run(s)])),
    ("adversarial", Runner::Scale(|s| vec![adversarial::run(s)])),
];

/// The experiment a command-line name selects.
fn experiment(name: &str) -> Option<(&'static str, Runner)> {
    EXPERIMENTS
        .iter()
        .copied()
        .find(|&(known, _)| known == name)
}

/// The experiment names, space-separated, for usage and error messages.
fn experiment_names() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    names.join(" ")
}

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
        experiment_names()
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
    let mut wanted: BTreeSet<&str> = BTreeSet::new();
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
            "all" => wanted.extend(EXPERIMENTS.iter().map(|&(name, _)| name)),
            other => match experiment(other) {
                Some((name, _)) => {
                    wanted.insert(name);
                }
                None => fail(format!(
                    "unknown experiment '{other}' (expected one of: {} or 'all')",
                    experiment_names()
                )),
            },
        }
    }
    if smoke {
        // A fast CI configuration: whatever scale was selected, shrink the
        // population and the stream while keeping the chosen seed.
        scale = scale.with_nodes(24).with_windows(2);
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
    // Both shapes pass the scenario check before anything runs.
    for (n, windows) in [
        (campaign_nodes, campaign_windows),
        (scale.n_nodes, scale.n_windows),
    ] {
        let shape = scale_campaign::scenario(n, windows, scale.seed);
        shape.validate().unwrap_or_else(|e| fail(e));
    }
    if !run_scale_campaign && (scale_nodes.is_some() || scale_windows.is_some()) {
        fail("--nodes and --windows apply only to the 'scale' experiment");
    }
    if wanted.is_empty() && !run_scale_campaign {
        wanted.extend(EXPERIMENTS.iter().map(|&(name, _)| name));
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
        || wanted
            .iter()
            .any(|&name| matches!(experiment(name), Some((_, Runner::Baseline(_)))));
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

    for &name in &wanted {
        if name == "fig6" && wanted.contains("fig5") {
            continue;
        }
        let start = Instant::now();
        match experiment(name).expect("validated above").1 {
            Runner::Scale(run) => {
                for fig in run(scale) {
                    emit(name, fig);
                }
            }
            Runner::Baseline(run) => emit(name, run(baseline.as_ref().expect("baseline"))),
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
        let smoke_shape = campaign_nodes == scale_campaign::SMOKE_NODES
            && campaign_windows == scale_campaign::SMOKE_WINDOWS;
        if smoke && smoke_shape {
            if let Err(e) = scale_campaign::check_smoke_peak_rss(campaign_nodes) {
                eprintln!("error: smoke memory guard: {e}");
                std::process::exit(1);
            }
        }
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
