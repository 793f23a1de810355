//! The repo benchmark: five real-protocol and engine workloads, four
//! end-to-end rows and an outside-in layer ledger. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [--seed N] [--smoke] [--aa]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1        # the driver's form
//! ```

mod alloc;
mod driver;
mod flood;
mod hostmeta;
mod layers;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{
    EndToEndSamples, LayerValues, Operations, END_TO_END, MIN_TIMED_REPS, SETUP_ABS_TOLERANCE_S,
};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{check_floor, run_rep, shape, Modelled, Shape, Signature, Spec, SPECS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: heap-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--aa]";

/// The seed used when none is given. Seed 7 is held out: no size, rep count
/// or bound in this benchmark was chosen by looking at it.
const DEFAULT_SEED: u64 = 42;

struct Options {
    workload: Option<&'static Spec>,
    seed: u64,
    /// Least measured seconds per workload; without it the full-set rep
    /// counts apply.
    seconds: Option<f64>,
    /// `Some(false)`: end-to-end rows only; `Some(true)`: per-layer rows
    /// only; `None`: both.
    trace: Option<bool>,
    smoke: bool,
    aa: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        aa: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload = Some(
                    SPECS
                        .iter()
                        .find(|s| s.name == name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {seconds}"));
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--smoke" => options.smoke = true,
            "--aa" => options.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

/// The untraced measurement of one workload, rep by rep.
struct Session {
    spec: &'static Spec,
    shape: Shape,
    samples: EndToEndSamples,
    ops: Operations,
    /// The first rep's simulated statistics; every later rep must match.
    first: Option<Signature>,
    modelled: Option<Modelled>,
    timed_s: f64,
}

impl Session {
    fn new(spec: &'static Spec, options: &Options) -> Self {
        Session {
            spec,
            shape: shape(spec.name, options.seed, options.smoke),
            samples: EndToEndSamples::default(),
            ops: Operations::default(),
            first: None,
            modelled: None,
            timed_s: 0.0,
        }
    }

    /// One timed end-to-end operation with its output checks. The rep's
    /// result is dropped before this returns, so the next rep starts from
    /// the same live heap.
    fn timed_rep(&mut self, heap_pair: Option<&Modelled>) {
        let rep = run_rep(&self.shape);
        self.timed_s += rep.wall_s;
        let n = self.shape.n_nodes() as f64;
        let what = format!("rep {}", self.ops.attempted);
        let mut problems = Vec::new();
        match &rep.outcome {
            Err(panic) => problems.push(format!("panicked or broke the engine contract: {panic}")),
            Ok(outcome) => {
                self.samples.wall_s.push(rep.wall_s);
                self.samples
                    .node_s_per_s
                    .push(outcome.node_seconds / rep.wall_s);
                self.samples
                    .peak_bytes_per_node
                    .push(rep.peak_bytes as f64 / n);
                if let Err(floor) = check_floor(self.spec.floor, &self.shape, outcome, heap_pair) {
                    problems.push(floor);
                }
                match &self.first {
                    None => {
                        self.first = Some(outcome.signature.clone());
                        self.modelled = outcome.modelled;
                    }
                    Some(first) if !first.agrees_with(&outcome.signature) => {
                        problems.push("simulated statistics differ from the first rep".into())
                    }
                    Some(_) => {}
                }
            }
        }
        self.ops.record(&what, problems);
    }

    /// Sets up several times and keeps each time: from the workload to a
    /// built simulator, before the first event.
    fn setup_reps(&mut self) {
        let started = Instant::now();
        while self.samples.setup_s.len() < 5
            || (self.samples.setup_s.len() < 25 && started.elapsed().as_secs_f64() < 1.0)
        {
            let setup_s = match &self.shape {
                Shape::Gossip(scenario) => driver::setup(scenario, |b| b.build()).setup_s(),
                Shape::Flood { n, seed } => {
                    let t = Instant::now();
                    drop(std::hint::black_box(flood::build(*n, *seed)));
                    t.elapsed().as_secs_f64()
                }
            };
            self.samples.setup_s.push(setup_s);
        }
    }

    fn enough(&self, min_reps: usize, seconds: Option<f64>) -> bool {
        self.ops.attempted as usize >= min_reps && seconds.is_none_or(|s| self.timed_s >= s)
    }
}

/// Everything one invocation measured for one workload.
struct WorkloadReport {
    spec: &'static Spec,
    end_to_end: Option<(EndToEndSamples, Operations)>,
    /// The first untraced rep's modelled outcome (gossip workloads).
    modelled: Option<Modelled>,
    layers: Option<(LayerValues, Operations)>,
}

/// Runs the selected workloads: untraced reps interleaved round-robin, then
/// one traced pass each.
fn run_set(options: &Options) -> Vec<WorkloadReport> {
    let specs: Vec<&'static Spec> = match options.workload {
        Some(spec) => vec![spec],
        None => SPECS.iter().collect(),
    };
    let mut reports: Vec<WorkloadReport> = specs
        .iter()
        .map(|&spec| WorkloadReport {
            spec,
            end_to_end: None,
            modelled: None,
            layers: None,
        })
        .collect();

    if options.trace != Some(true) {
        let mut sessions: Vec<Session> = specs.iter().map(|&s| Session::new(s, options)).collect();
        if options.seconds.is_none() {
            // A full set discards one warm-up rep per workload; a run against
            // the clock keeps its seconds for timed reps.
            for session in &sessions {
                drop(run_rep(&session.shape));
            }
        }
        // `paper-std`'s floor compares against `paper-heap` at the same seed
        // and size, so that part applies when both run: `paper-heap` goes
        // first in the round-robin.
        let mut heap_pair: Option<Modelled> = None;
        loop {
            let mut progressed = false;
            for session in &mut sessions {
                let min_reps = match options.seconds {
                    Some(_) => MIN_TIMED_REPS,
                    None => session.spec.full_set_reps,
                };
                if !session.enough(min_reps, options.seconds) {
                    session.timed_rep(heap_pair.as_ref());
                    if session.spec.name == "paper-heap" {
                        heap_pair = session.modelled;
                    }
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for (mut session, report) in sessions.into_iter().zip(&mut reports) {
            session.setup_reps();
            report.modelled = session.modelled;
            report.end_to_end = Some((session.samples, session.ops));
        }
    }

    if options.trace != Some(false) {
        for report in &mut reports {
            let shape = shape(report.spec.name, options.seed, options.smoke);
            report.layers = Some(layers::traced_pass(report.spec, &shape, options.seed));
        }
    }
    reports
}

fn print_reports(reports: &[WorkloadReport]) {
    for report in reports {
        if let Some((samples, ops)) = &report.end_to_end {
            report::print_end_to_end(report.spec, samples, ops);
            if let Some(m) = &report.modelled {
                println!(
                    "  modelled: delivery {} %, jitter-free at 10 s lag {} %, receivers at 99 % delivery {} %, median lag to 99 % {} s",
                    m.delivery_pct, m.jitter_free_pct_lag10, m.receivers_at_99_pct, m.lag99_p50_s
                );
            }
        }
    }
    for report in reports {
        if let Some((layers, ops)) = &report.layers {
            report::print_layers(report.spec, layers, ops);
        }
    }
}

fn failed_operations(reports: &[WorkloadReport]) -> u64 {
    reports
        .iter()
        .map(|r| {
            r.end_to_end.as_ref().map_or(0, |(_, ops)| ops.failed)
                + r.layers.as_ref().map_or(0, |(_, ops)| ops.failed)
        })
        .sum()
}

/// The contract's last line for a single-workload, single-mode run.
fn contract_line(report: &WorkloadReport) -> String {
    match (&report.end_to_end, &report.layers) {
        (Some((samples, ops)), None) => {
            let metrics: Vec<(&str, &str, f64)> = END_TO_END
                .iter()
                .zip(samples.summaries())
                .map(|(m, s)| (m.name, m.unit, s.median))
                .collect();
            report::result_line(ops, &metrics)
        }
        (None, Some((layers, ops))) => {
            let metrics: Vec<(&str, &str, f64)> =
                layers.iter().map(|(m, v)| (m.name, m.unit, v)).collect();
            report::result_line(ops, &metrics)
        }
        _ => unreachable!("a contract run measures exactly one mode"),
    }
}

/// Compares two complete sets of one build and seed. Returns the number of
/// rows that disagree: an end-to-end median worse by more than its bound in
/// either direction, or a modelled/count row that is not identical.
fn compare_sets(a: &[WorkloadReport], b: &[WorkloadReport]) -> u64 {
    let mut disagreements = 0;
    println!("A/A spread (second set against first, same build and seed)");
    for (ra, rb) in a.iter().zip(b) {
        let (Some((ea, _)), Some((eb, _))) = (&ra.end_to_end, &rb.end_to_end) else {
            continue;
        };
        for ((metric, sa), sb) in END_TO_END.iter().zip(ea.summaries()).zip(eb.summaries()) {
            let spread = (sb.median - sa.median).abs() / sa.median;
            let tolerated =
                metric.name == "setup_s" && (sb.median - sa.median).abs() <= SETUP_ABS_TOLERANCE_S;
            let ok = spread <= metric.bound || tolerated;
            disagreements += u64::from(!ok);
            println!(
                "  {:<10} {:<22} {:>14.6} vs {:<14.6} spread {:>6.2} % bound {:>4.1} % {}",
                ra.spec.name,
                metric.name,
                sa.median,
                sb.median,
                100.0 * spread,
                100.0 * metric.bound,
                if ok { "ok" } else { "DISAGREES" }
            );
        }
        let (Some((la, _)), Some((lb, _))) = (&ra.layers, &rb.layers) else {
            continue;
        };
        for ((metric, va), (_, vb)) in la.iter().zip(lb.iter()) {
            if metric.exact && va != vb {
                disagreements += 1;
                println!(
                    "  {:<10} {:<40} {va} vs {vb} DIFFERS (modelled or counted: must be identical)",
                    ra.spec.name, metric.name
                );
            }
        }
    }
    disagreements
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("# heap-benchmark: numbers compare within one host and one session only, never across files or machines");
    println!(
        "# {} size={}",
        hostmeta::line(options.seed),
        if options.smoke { "smoke" } else { "full" }
    );
    println!(
        "# closed loop, one client, one thread, flat engine; reps: {}",
        match options.seconds {
            Some(s) => format!(
                "at least {MIN_TIMED_REPS} timed and {s} s measured per workload, no warm-up rep"
            ),
            None =>
                SPECS
                    .iter()
                    .map(|s| format!("{} {}", s.name, s.full_set_reps))
                    .collect::<Vec<_>>()
                    .join(", ")
                    + " timed after one discarded warm-up each",
        }
    );

    let reports = run_set(&options);
    print_reports(&reports);
    let mut failed = failed_operations(&reports);
    if options.aa {
        let again = run_set(&options);
        print_reports(&again);
        failed += failed_operations(&again) + compare_sets(&reports, &again);
    }
    if let (Some(_), Some(_), [report]) = (options.workload, options.trace, reports.as_slice()) {
        println!("{}", contract_line(report));
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed} failed operations or disagreeing rows");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(args: &[&str]) -> Result<Options, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_form() {
        let o = options(&[
            "--workload",
            "mid-heap",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload.unwrap().name, "mid-heap");
        assert_eq!((o.seed, o.seconds, o.trace), (9, Some(10.0), Some(true)));
        let o = options(&[]).unwrap();
        assert!(o.workload.is_none() && o.trace.is_none() && o.seconds.is_none());
        assert_eq!(o.seed, DEFAULT_SEED);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(options(bad).is_err(), "{bad:?}");
        }
    }

    /// The whole command at smoke size: every workload, both modes, every
    /// output check, on the same code paths as the full-size run.
    #[test]
    fn smoke_set_runs_clean_and_repeats_exactly() {
        let o = options(&["--smoke", "--seed", "3"]).unwrap();
        let a = run_set(&o);
        assert_eq!(a.len(), SPECS.len());
        for report in &a {
            let (samples, ops) = report.end_to_end.as_ref().unwrap();
            assert_eq!(ops.failed, 0, "{}: {:?}", report.spec.name, ops.failures);
            assert_eq!(ops.attempted as usize, report.spec.full_set_reps);
            assert!(samples.setup_s.len() >= 5);
            assert!(samples.summaries().iter().all(|s| s.median > 0.0));
            let (layers, ops) = report.layers.as_ref().unwrap();
            assert_eq!(ops.failed, 0, "{}: {:?}", report.spec.name, ops.failures);
            assert!(layers.get("simnet.events") > 0.0);
            let gossip = report.spec.name != "flood-10k";
            assert_eq!(layers.get("gossip.callback_s") > 0.0, gossip);
            assert_eq!(layers.get("fec.windows_decoded") > 0.0, gossip);
        }
        // Modelled and counted rows repeat exactly on the same seed.
        let b = run_set(&options(&["--smoke", "--seed", "3", "--trace", "1"]).unwrap());
        for (ra, rb) in a.iter().zip(&b) {
            let (la, lb) = (
                &ra.layers.as_ref().unwrap().0,
                &rb.layers.as_ref().unwrap().0,
            );
            for ((metric, va), (_, vb)) in la.iter().zip(lb.iter()) {
                if metric.exact {
                    assert_eq!(va, vb, "{} {}", ra.spec.name, metric.name);
                }
            }
        }
    }

    #[test]
    fn contract_line_carries_every_metric_of_its_mode() {
        let o = options(&[
            "--smoke",
            "--workload",
            "flood-10k",
            "--seconds",
            "0.2",
            "--trace",
            "0",
        ])
        .unwrap();
        let reports = run_set(&o);
        let line = contract_line(&reports[0]);
        for metric in &END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", metric.name)),
                "{line}"
            );
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        let o = options(&[
            "--smoke",
            "--workload",
            "paper-std",
            "--seconds",
            "0.2",
            "--trace",
            "1",
        ])
        .unwrap();
        let reports = run_set(&o);
        let line = contract_line(&reports[0]);
        for metric in &report::PER_LAYER {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", metric.name)),
                "{line}"
            );
        }
    }
}
