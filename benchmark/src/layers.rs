//! The per-layer pass of one workload: the end-to-end operation once as the
//! reference, the phased driver once untraced and once traced, probes on the
//! state the traced run reached, the output checks between them, and the
//! per-layer rows derived from all of it.

use crate::alloc;
use crate::driver::{self, Collected, RunPhase};
use crate::flood;
use crate::hostmeta;
use crate::probes::{self, NodeProbes, ResultProbes};
use crate::report::{LayerValues, Operations};
use crate::stats::{high_percentile, median};
use crate::trace::{take_callbacks, AsGossip, Kind, KindTable, Traced, Tracer};
use crate::workloads::{check_floor, panic_message, run_rep, Shape, Signature, Spec};
use heap_gossip::node::GossipNodeBuilder;
use heap_gossip::GossipMessage;
use heap_simnet::prelude::*;
use heap_workloads::Scenario;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Where trace files go: `out/` beside this package's manifest, whatever the
/// working directory.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// One phased-driver pass.
struct Pass {
    assign_s: f64,
    build_s: f64,
    /// Summed `GossipNodeBuilder::build` time (traced pass only).
    node_build_ns: u64,
    run: RunPhase,
    collected: Option<Collected>,
    live_after_build: u64,
    live_end_of_run: u64,
    signature: Signature,
    tracer: Option<Tracer>,
    probes: Option<NodeProbes>,
}

impl Pass {
    fn phases_s(&self) -> f64 {
        self.assign_s
            + self.build_s
            + self.run.run_s
            + self.collected.as_ref().map_or(0.0, |c| c.collect_s)
    }
}

fn gossip_pass<P, F>(scenario: &Scenario, tracing: Option<u64>, mut make_node: F) -> Pass
where
    P: Protocol<Message = GossipMessage> + AsGossip,
    F: FnMut(GossipNodeBuilder) -> P,
{
    let heap = alloc::Window::open();
    let mut tracer = tracing.map(Tracer::new);
    let root = tracer.as_mut().map(|t| t.open("rep", None, None));
    let _ = take_callbacks();

    let span = tracer
        .as_mut()
        .map(|t| t.open("workloads.setup", None, root));
    let mut node_build_ns = 0u64;
    let mut built = driver::setup(scenario, |b| {
        if tracing.is_some() {
            let t = Instant::now();
            let node = make_node(b);
            node_build_ns += t.elapsed().as_nanos() as u64;
            node
        } else {
            make_node(b)
        }
    });
    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
        t.close(span);
        t.aggregate("workloads.assign", span, (built.assign_s * 1e9) as u64, 1);
        let build = t.aggregate("simnet.build", span, (built.build_s * 1e9) as u64, 1);
        t.aggregate(
            "gossip.node_build",
            build,
            node_build_ns,
            scenario.scale.n_nodes as u64,
        );
        let start = take_callbacks()[Kind::Start as usize];
        t.aggregate(Kind::Start.name(), build, start.ns, start.n);
    }
    let live_after_build = heap.live_bytes();

    let end = driver::end_of(scenario, &built.schedule);
    let span = tracer.as_mut().map(|t| t.open("simnet.run", None, root));
    let run = driver::run_slices(&mut built.sim, Some(end), tracer.as_mut().zip(span));
    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
        t.close(span);
    }
    let live_end_of_run = heap.live_bytes();

    let span = tracer
        .as_mut()
        .map(|t| t.open("workloads.collect", None, root));
    let collected = driver::collect(&built.sim, scenario, &built.schedule);
    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
        t.close(span);
        let receivers = collected.metrics.len() as u64;
        t.aggregate(
            "streaming.metrics_compute",
            span,
            collected.metrics_compute_ns,
            receivers,
        );
        t.aggregate(
            "streaming.compact_from_full",
            span,
            collected.compact_ns,
            receivers,
        );
        t.aggregate(
            "streaming.health_report",
            span,
            collected.health_report_ns,
            receivers,
        );
    }
    let signature = Signature {
        net: driver::net_totals(&built.sim),
        delivery: collected.delivery_ratios(),
        events: Some(run.events),
    };

    let mut probes = None;
    if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
        let span = t.open("probes", None, Some(root));
        probes = Some(probes::probe_nodes(
            &built.sim,
            &built.schedule,
            scenario.scale.seed,
        ));
        t.close(span);
        t.close(root);
    }
    Pass {
        assign_s: built.assign_s,
        build_s: built.build_s,
        node_build_ns,
        run,
        collected: Some(collected),
        live_after_build,
        live_end_of_run,
        signature,
        tracer,
        probes,
    }
}

fn flood_pass(n: usize, seed: u64, tracing: Option<u64>) -> Pass {
    let heap = alloc::Window::open();
    let mut tracer = tracing.map(Tracer::new);
    let root = tracer.as_mut().map(|t| t.open("rep", None, None));
    let span = tracer.as_mut().map(|t| t.open("simnet.build", None, root));
    let started = Instant::now();
    let mut sim = flood::build(n, seed);
    let build_s = started.elapsed().as_secs_f64();
    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
        t.close(span);
    }
    let live_after_build = heap.live_bytes();
    let span = tracer.as_mut().map(|t| t.open("simnet.run", None, root));
    let run = driver::run_slices(&mut sim, None, tracer.as_mut().zip(span));
    if let (Some(t), Some(span), Some(root)) = (tracer.as_mut(), span, root) {
        t.close(span);
        t.close(root);
    }
    Pass {
        assign_s: 0.0,
        build_s,
        node_build_ns: 0,
        live_after_build,
        live_end_of_run: heap.live_bytes(),
        signature: Signature {
            net: driver::net_totals(&sim),
            delivery: Vec::new(),
            events: Some(run.events),
        },
        run,
        collected: None,
        tracer,
        probes: None,
    }
}

fn pass(shape: &Shape, tracing: Option<u64>) -> Result<Pass, String> {
    catch_unwind(AssertUnwindSafe(|| match (shape, tracing) {
        (Shape::Gossip(scenario), None) => gossip_pass(scenario, None, |b| b.build()),
        (Shape::Gossip(scenario), Some(_)) => gossip_pass(scenario, tracing, |b| Traced(b.build())),
        (Shape::Flood { n, seed }, _) => flood_pass(*n, *seed, tracing),
    }))
    .map_err(panic_message)
}

/// Share of the traced run's wall that slice self times and callback
/// aggregates account for; the trace is only trusted within 2 % of 1.
fn accounted_share(tracer: &Tracer, callbacks: &KindTable, run_s: f64) -> f64 {
    let slice_self = tracer.self_ns_by_name("simnet.slice");
    let callback: u64 = callbacks.iter().map(|k| k.ns).sum();
    (slice_self + callback) as f64 / 1e9 / run_s
}

/// Runs the per-layer pass of one workload and derives its rows. Three
/// operations are attempted: the reference end-to-end operation, the
/// untraced driver pass and the traced driver pass.
pub fn traced_pass(spec: &'static Spec, shape: &Shape, seed: u64) -> (LayerValues, Operations) {
    let mut ops = Operations::default();
    let mut values = LayerValues::default();
    let n = shape.n_nodes() as f64;

    // --- The reference operation; its result is dropped before the driver
    // passes run, so they start from the heap an untraced rep starts from.
    let reference = run_rep(shape);
    let mut result_probes = ResultProbes::default();
    let reference_signature = match &reference.outcome {
        Err(panic) => {
            ops.record(
                "reference",
                vec![format!("panicked or broke the engine contract: {panic}")],
            );
            None
        }
        Ok(outcome) => {
            let floor = check_floor(spec.floor, shape, outcome, None);
            ops.record("reference", floor.err().into_iter().collect());
            if let Some(result) = &outcome.result {
                result_probes = probes::probe_result(spec.name, result);
            }
            if let Some(m) = &outcome.modelled {
                values.set("workloads.delivery_pct", m.delivery_pct);
                values.set("workloads.jitter_free_pct_lag10", m.jitter_free_pct_lag10);
                values.set("workloads.lag99_p50_s", m.lag99_p50_s);
            }
            Some(outcome.signature.clone())
        }
    };
    let (reference_wall_s, reference_result_bytes) = (reference.wall_s, reference.result_bytes);
    drop(reference);
    values.set(
        "workloads.result_bytes_per_node",
        reference_result_bytes as f64 / n,
    );
    values.set("analytics.lag_cdf_us", result_probes.lag_cdf_us);
    values.set(
        "analytics.exposition_render_us",
        result_probes.exposition_render_us,
    );

    // --- The untraced driver pass.
    let untraced = match pass(shape, None) {
        Err(panic) => {
            ops.record("driver untraced", vec![format!("panicked: {panic}")]);
            None
        }
        Ok(pass) => {
            let mut problems = Vec::new();
            if reference_signature
                .as_ref()
                .is_some_and(|r| !r.agrees_with(&pass.signature))
            {
                problems.push(
                    "NetTotals or delivery ratios differ from the end-to-end operation's".into(),
                );
            }
            ops.record("driver untraced", problems);
            untraced_rows(&mut values, &pass, n, reference_wall_s);
            Some(pass)
        }
    };

    // --- The traced driver pass, its probes and its trace file.
    match pass(shape, Some(seed)) {
        Err(panic) => ops.record("driver traced", vec![format!("panicked: {panic}")]),
        Ok(pass) => {
            let mut problems = Vec::new();
            let tracer = pass.tracer.as_ref().expect("traced pass keeps its spans");
            if untraced
                .as_ref()
                .is_some_and(|u| u.signature != pass.signature)
            {
                problems.push(
                    "events, NetTotals or delivery ratios differ from the untraced pass".into(),
                );
            }
            let accounted = accounted_share(tracer, &pass.run.callbacks, pass.run.run_s);
            if (accounted - 1.0).abs() > 0.02 {
                problems.push(format!(
                    "slice self times and callback aggregates cover {:.1} % of the traced run",
                    100.0 * accounted
                ));
            }
            if let Some(p) = &pass.probes {
                if p.fec.windows_corrupt > 0 {
                    problems.push(format!(
                        "{} decoded FEC windows differ from what was encoded",
                        p.fec.windows_corrupt
                    ));
                }
            }
            traced_rows(&mut values, &pass, n);
            if let Some(u) = &untraced {
                values.set(
                    "trace.overhead_pct",
                    100.0 * (pass.run.run_s - u.run.run_s) / u.run.run_s,
                );
            }
            let path = format!("{TRACE_DIR}/trace-{}.json", spec.name);
            let header = format!(
                "\"workload\": \"{}\", \"seed\": {seed}, \"nodes\": {n}, \"run_s\": {}, \"accounted_share\": {accounted}, \"host\": \"{}\"",
                spec.name,
                pass.run.run_s,
                hostmeta::line(seed).replace('"', "'")
            );
            let written = std::fs::create_dir_all(TRACE_DIR)
                .and_then(|()| std::fs::write(&path, tracer.to_json(&header)));
            if let Err(e) = written {
                problems.push(format!("cannot write {path}: {e}"));
            }
            ops.record("driver traced", problems);
        }
    }
    (values, ops)
}

fn untraced_rows(values: &mut LayerValues, pass: &Pass, n: f64, reference_wall_s: f64) {
    let run = &pass.run;
    let events = run.events as f64;
    values.set("simnet.events", events);
    values.set("simnet.run_s", run.run_s);
    values.set("simnet.ns_per_event", run.run_s * 1e9 / events);
    values.set("simnet.build_s", pass.build_s);
    values.set("simnet.slice_ms_p50", median(&run.slice_ms));
    let hi = high_percentile(&run.slice_ms);
    values.set("simnet.slice_ms_hi", hi.value);
    values.note(
        "simnet.slice_ms_hi",
        format!(
            "p{:.1} of {} slices, {} beyond",
            hi.percentile,
            run.slice_ms.len(),
            hi.beyond
        ),
    );
    values.set("simnet.pending_events_peak", run.pending_events_peak as f64);
    values.set("simnet.timer_slots_peak", run.timer_slots_peak as f64);
    values.set(
        "simnet.footprint_bytes_per_node",
        run.footprint_bytes_per_node,
    );
    let net = &pass.signature.net;
    values.set("simnet.msgs_sent", net.messages_sent as f64);
    values.set("simnet.msgs_delivered", net.messages_delivered as f64);
    values.set("simnet.msgs_lost", net.messages_lost as f64);
    values.set("simnet.queue_drops", net.queue_drops as f64);
    values.set(
        "workloads.runner_overhead_s",
        reference_wall_s - pass.phases_s(),
    );
    values.set(
        "workloads.live_bytes_per_node_after_build",
        pass.live_after_build as f64 / n,
    );
    values.set(
        "workloads.live_bytes_per_node_end_of_run",
        pass.live_end_of_run as f64 / n,
    );
    values.set("workloads.allocs_per_event", run.allocs as f64 / events);

    let Some(c) = &pass.collected else { return };
    let receivers = c.metrics.len() as f64;
    let sum = |f: &dyn Fn(&heap_gossip::ProtocolStats) -> u64| {
        c.protocol.iter().map(f).sum::<u64>() as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    values.set(
        "gossip.requests_per_propose",
        ratio(sum(&|s| s.requests_sent), sum(&|s| s.proposals_received)),
    );
    values.set(
        "gossip.retransmit_ratio",
        ratio(sum(&|s| s.retransmit_requests), sum(&|s| s.requests_sent)),
    );
    values.set("gossip.duplicate_payloads", c.duplicate_payloads as f64);
    values.set(
        "gossip.mean_fanout",
        ratio(sum(&|s| s.fanout_sum), sum(&|s| s.gossip_emissions)),
    );
    values.set("streaming.receipts", c.receipts as f64);
    values.set(
        "streaming.metrics_compute_us",
        c.metrics_compute_ns as f64 / 1e3 / receivers,
    );
    values.set(
        "streaming.compact_from_full_us",
        c.compact_ns as f64 / 1e3 / receivers,
    );
    values.set(
        "streaming.health_report_ns",
        c.health_report_ns as f64 / receivers,
    );
    values.set("streaming.result_bytes_per_node", c.result_bytes as f64 / n);
    values.set("workloads.collect_s", c.collect_s);
}

fn traced_rows(values: &mut LayerValues, pass: &Pass, n: f64) {
    let tracer = pass.tracer.as_ref().expect("traced pass keeps its spans");
    let loop_self_s = tracer.self_ns_by_name("simnet.slice") as f64 / 1e9;
    values.set("simnet.loop_self_s", loop_self_s);
    values.set("simnet.loop_share", 100.0 * loop_self_s / pass.run.run_s);
    let callback_s = pass.run.callbacks.iter().map(|k| k.ns).sum::<u64>() as f64 / 1e9;
    values.set("gossip.callback_s", callback_s);
    values.set("gossip.callback_share", 100.0 * callback_s / pass.run.run_s);
    for (kind, ns_name, n_name) in [
        (
            Kind::OnPropose,
            "gossip.on_propose_ns",
            "gossip.on_propose_n",
        ),
        (
            Kind::OnRequest,
            "gossip.on_request_ns",
            "gossip.on_request_n",
        ),
        (Kind::OnServe, "gossip.on_serve_ns", "gossip.on_serve_n"),
        (
            Kind::OnAggregation,
            "gossip.on_aggregation_ns",
            "gossip.on_aggregation_n",
        ),
        (
            Kind::TimerGossip,
            "gossip.timer_gossip_ns",
            "gossip.timer_gossip_n",
        ),
        (
            Kind::TimerAggregation,
            "gossip.timer_aggregation_ns",
            "gossip.timer_aggregation_n",
        ),
        (
            Kind::TimerSource,
            "gossip.timer_source_ns",
            "gossip.timer_source_n",
        ),
        (
            Kind::TimerRetransmit,
            "gossip.timer_retransmit_ns",
            "gossip.timer_retransmit_n",
        ),
    ] {
        let total = pass.run.callbacks[kind as usize];
        values.set(
            ns_name,
            if total.n > 0 {
                total.ns as f64 / total.n as f64
            } else {
                0.0
            },
        );
        values.set(n_name, total.n as f64);
        values.note(
            ns_name,
            format!(
                "{:.1} % of the traced run",
                total.ns as f64 / 1e7 / pass.run.run_s
            ),
        );
    }
    values.set("gossip.node_build_ns", pass.node_build_ns as f64 / n);
    let Some(p) = &pass.probes else { return };
    values.set("gossip.aggregator_freshest_ns", p.aggregator_freshest_ns);
    values.set("gossip.aggregator_average_ns", p.aggregator_average_ns);
    values.set("gossip.aggregator_known_nodes", p.aggregator_known_nodes);
    values.set("membership.select_ns", p.select_ns);
    values.set("membership.view_bytes_per_node", p.view_bytes_per_node);
    values.set("streaming.health_on_packet_ns", p.health_on_packet_ns);
    values.set("analytics.bucket_record_ns", p.bucket_record_ns);
    values.set("fec.encode_mib_s", p.fec.encode_mib_s);
    values.set("fec.decode_mib_s", p.fec.decode_mib_s);
    values.set("fec.windows_decoded", p.fec.windows_decoded as f64);
    values.set("fec.windows_recovered", p.fec.windows_recovered as f64);
}
