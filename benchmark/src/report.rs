//! The metric registry (the single source `BENCHMARK.json` is checked
//! against), the rows a run produces, and how they are printed.

use crate::stats::Summary;
use crate::workloads::Spec;
use std::fmt::Write as _;

/// Fewest timed reps a reported median is taken over.
pub const MIN_TIMED_REPS: usize = 3;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse. Each
    /// is at least three times the widest spread (interquartile range over
    /// median) seen over ten runs on ten seeds on the bench host, because the
    /// driver refuses a benchmark whose own spread exceeds its bound.
    pub bound: f64,
}

/// `setup_s` additionally tolerates this absolute difference in `--aa`.
pub const SETUP_ABS_TOLERANCE_S: f64 = 0.005;

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "node_s_per_s",
        unit: "node.s/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_bytes_per_node",
        unit: "B",
        better: "lower",
        bound: 0.10,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Modelled or counted: identical between two runs of one build and seed.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str, exact: bool) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact,
    }
}

pub const PER_LAYER: [Layer; 66] = [
    layer("simnet.events", "count", "lower", true),
    layer("simnet.run_s", "s", "lower", false),
    layer("simnet.ns_per_event", "ns", "lower", false),
    layer("simnet.build_s", "s", "lower", false),
    layer("simnet.loop_self_s", "s", "lower", false),
    layer("simnet.loop_share", "%", "lower", false),
    layer("simnet.slice_ms_p50", "ms", "lower", false),
    layer("simnet.slice_ms_hi", "ms", "lower", false),
    layer("simnet.pending_events_peak", "count", "lower", true),
    layer("simnet.timer_slots_peak", "count", "lower", true),
    layer("simnet.footprint_bytes_per_node", "B", "lower", true),
    layer("simnet.msgs_sent", "count", "lower", true),
    layer("simnet.msgs_delivered", "count", "higher", true),
    layer("simnet.msgs_lost", "count", "lower", true),
    layer("simnet.queue_drops", "count", "lower", true),
    layer("gossip.callback_s", "s", "lower", false),
    layer("gossip.callback_share", "%", "lower", false),
    layer("gossip.on_propose_ns", "ns", "lower", false),
    layer("gossip.on_propose_n", "count", "lower", true),
    layer("gossip.on_request_ns", "ns", "lower", false),
    layer("gossip.on_request_n", "count", "lower", true),
    layer("gossip.on_serve_ns", "ns", "lower", false),
    layer("gossip.on_serve_n", "count", "lower", true),
    layer("gossip.on_aggregation_ns", "ns", "lower", false),
    layer("gossip.on_aggregation_n", "count", "lower", true),
    layer("gossip.timer_gossip_ns", "ns", "lower", false),
    layer("gossip.timer_gossip_n", "count", "lower", true),
    layer("gossip.timer_aggregation_ns", "ns", "lower", false),
    layer("gossip.timer_aggregation_n", "count", "lower", true),
    layer("gossip.timer_source_ns", "ns", "lower", false),
    layer("gossip.timer_source_n", "count", "lower", true),
    layer("gossip.timer_retransmit_ns", "ns", "lower", false),
    layer("gossip.timer_retransmit_n", "count", "lower", true),
    layer("gossip.aggregator_freshest_ns", "ns", "lower", false),
    layer("gossip.aggregator_average_ns", "ns", "lower", false),
    layer("gossip.aggregator_known_nodes", "count", "higher", true),
    layer("gossip.node_build_ns", "ns", "lower", false),
    layer("gossip.requests_per_propose", "ratio", "lower", true),
    layer("gossip.retransmit_ratio", "ratio", "lower", true),
    layer("gossip.duplicate_payloads", "count", "lower", true),
    layer("gossip.mean_fanout", "count", "lower", true),
    layer("membership.select_ns", "ns", "lower", false),
    layer("membership.view_bytes_per_node", "B", "lower", true),
    layer("streaming.receipts", "count", "higher", true),
    layer("streaming.metrics_compute_us", "us", "lower", false),
    layer("streaming.compact_from_full_us", "us", "lower", false),
    layer("streaming.health_report_ns", "ns", "lower", false),
    layer("streaming.health_on_packet_ns", "ns", "lower", false),
    layer("streaming.result_bytes_per_node", "B", "lower", false),
    layer("fec.encode_mib_s", "MiB/s", "higher", false),
    layer("fec.decode_mib_s", "MiB/s", "higher", false),
    layer("fec.windows_decoded", "count", "higher", true),
    layer("fec.windows_recovered", "count", "higher", true),
    layer("analytics.lag_cdf_us", "us", "lower", false),
    layer("analytics.bucket_record_ns", "ns", "lower", false),
    layer("analytics.exposition_render_us", "us", "lower", false),
    layer("workloads.collect_s", "s", "lower", false),
    layer("workloads.runner_overhead_s", "s", "lower", false),
    layer(
        "workloads.live_bytes_per_node_after_build",
        "B",
        "lower",
        false,
    ),
    layer(
        "workloads.live_bytes_per_node_end_of_run",
        "B",
        "lower",
        false,
    ),
    layer("workloads.result_bytes_per_node", "B", "lower", false),
    layer("workloads.allocs_per_event", "1/event", "lower", false),
    layer("workloads.delivery_pct", "%", "higher", true),
    layer("workloads.jitter_free_pct_lag10", "%", "higher", true),
    layer("workloads.lag99_p50_s", "s", "lower", true),
    layer("trace.overhead_pct", "%", "lower", false),
];

/// The per-layer values of one workload's traced pass, by metric name.
/// Metrics a workload does not exercise stay 0 (the flood has no gossip,
/// streaming or FEC layer).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerValues {
    values: Vec<f64>,
    /// Free-text remarks printed beside a row (the percentile behind
    /// `simnet.slice_ms_hi`, for one).
    notes: Vec<(&'static str, String)>,
}

impl Default for LayerValues {
    fn default() -> Self {
        LayerValues {
            values: vec![0.0; PER_LAYER.len()],
            notes: Vec::new(),
        }
    }
}

impl LayerValues {
    /// Sets a metric; the name must be in [`PER_LAYER`] and the value finite.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let index = PER_LAYER
            .iter()
            .position(|l| l.name == name)
            .unwrap_or_else(|| panic!("{name} is not a registered per-layer metric"));
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.values[index] = value;
    }

    pub fn note(&mut self, name: &'static str, text: String) {
        self.notes.push((name, text));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        let index = PER_LAYER
            .iter()
            .position(|l| l.name == name)
            .expect("registered metric");
        self.values[index]
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static Layer, f64)> + '_ {
        PER_LAYER.iter().zip(self.values.iter().copied())
    }

    fn note_for(&self, name: &str) -> &str {
        self.notes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, text)| text.as_str())
    }
}

/// The end-to-end rows of one workload: per-rep samples of each metric.
#[derive(Debug, Clone, Default)]
pub struct EndToEndSamples {
    pub wall_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub node_s_per_s: Vec<f64>,
    pub peak_bytes_per_node: Vec<f64>,
}

impl EndToEndSamples {
    /// Summaries in [`END_TO_END`] order.
    pub fn summaries(&self) -> [Summary; 4] {
        [
            Summary::of(&self.wall_s),
            Summary::of(&self.setup_s),
            Summary::of(&self.node_s_per_s),
            Summary::of(&self.peak_bytes_per_node),
        ]
    }
}

/// Operations attempted and failed, with what failed.
#[derive(Debug, Clone, Default)]
pub struct Operations {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Operations {
    /// Counts one operation; any `problems` make it a failed one.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for problem in problems {
                self.failures.push(format!("{what}: {problem}"));
            }
        }
    }
}

pub fn print_end_to_end(spec: &Spec, samples: &EndToEndSamples, ops: &Operations) {
    println!(
        "end-to-end {}: attempted={} failed={}\n  why: {}",
        spec.name, ops.attempted, ops.failed, spec.why
    );
    for (metric, s) in END_TO_END.iter().zip(samples.summaries()) {
        println!(
            "  {:<22} {:>9} median {:<14.6} min {:<14.6} max {:<14.6} n={:<3} {} is better, bound {} %",
            metric.name,
            metric.unit,
            s.median,
            s.min,
            s.max,
            s.n,
            metric.better,
            100.0 * metric.bound
        );
    }
    print_failures(ops);
}

pub fn print_layers(spec: &Spec, layers: &LayerValues, ops: &Operations) {
    println!(
        "per-layer {}: attempted={} failed={}",
        spec.name, ops.attempted, ops.failed
    );
    for (metric, value) in layers.iter() {
        println!(
            "  {:<44} {:>9} {:<16.6} n=1 {:<6} {}",
            metric.name,
            metric.unit,
            value,
            metric.better,
            layers.note_for(metric.name)
        );
    }
    print_failures(ops);
}

fn print_failures(ops: &Operations) {
    for failure in &ops.failures {
        println!("  FAILED {failure}");
    }
}

/// The contract's result line: one JSON object, every value with all its
/// digits.
pub fn result_line(ops: &Operations, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.failed == 0,
        ops.attempted,
        ops.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    /// How long one driver run measures at least (`run_seconds` of the contract).
    /// Every workload also runs at least [`MIN_TIMED_REPS`] timed reps, so the two
    /// long workloads measure for longer than this.
    pub const RUN_SECONDS: u64 = 10;

    /// The text of `BENCHMARK.json`, generated from the registries so the file
    /// cannot drift from what the binary prints (a unit test compares them).
    pub fn contract_json() -> String {
        let mut out = String::from("{\n");
        out.push_str(
            "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
        );
        out.push_str("  \"paths\": [\"benchmark\"],\n");
        let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
        out.push_str("  \"workloads\": [\n");
        for (i, spec) in SPECS.iter().enumerate() {
            let sep = if i + 1 == SPECS.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
                spec.name, spec.why
            );
        }
        out.push_str("  ],\n  \"end_to_end\": [\n");
        for (i, m) in END_TO_END.iter().enumerate() {
            let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
                m.name, m.unit, m.better, m.bound
            );
        }
        out.push_str("  ],\n  \"per_layer\": [\n");
        for (i, m) in PER_LAYER.iter().enumerate() {
            let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
                m.name, m.unit, m.better
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_meets_the_contract_limits() {
        let mut names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for (i, name) in names.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(!names[..i].contains(name), "{name} is used twice");
        }
        for m in &END_TO_END {
            assert!(
                valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
            assert!(["lower", "higher"].contains(&m.better));
        }
        for m in &PER_LAYER {
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(contract_json().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_the_generated_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            contract_json(),
            "BENCHMARK.json differs from the registry; it must read:\n{}",
            contract_json()
        );
    }

    #[test]
    fn result_line_has_the_contract_keys_and_every_digit() {
        let mut ops = Operations::default();
        ops.record("rep 0", Vec::new());
        ops.record("rep 1", vec!["floor".into()]);
        let line = result_line(
            &ops,
            &[("wall_s", "s", 1.234567890123), ("setup_s", "s", 0.5)],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\
             \"wall_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(ops.failures, vec!["rep 1: floor".to_string()]);
    }

    #[test]
    fn layer_values_default_to_zero_and_reject_unknown_names() {
        let mut v = LayerValues::default();
        v.set("simnet.events", 12.0);
        assert_eq!(v.get("simnet.events"), 12.0);
        assert_eq!(v.get("fec.windows_decoded"), 0.0);
        assert_eq!(v.iter().count(), PER_LAYER.len());
        assert!(std::panic::catch_unwind(move || v.set("simnet.nope", 1.0)).is_err());
    }
}
