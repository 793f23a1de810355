//! The phased driver: rebuilds a workload through public API so each phase
//! (set-up, run in one-simulated-second slices, collection) can be timed
//! from outside.
//!
//! It mirrors `heap_workloads::run_scenario` for churn-free, fault-free,
//! full-membership scenarios on the flat engine — the same set-up RNG stream
//! and draw order, the same builder calls, the same collection work — and the
//! benchmark fails the operation when its `NetTotals` or per-node delivery
//! ratios differ from `run_scenario`'s.

use crate::alloc;
use crate::trace::{take_callbacks, AsGossip, Kind, KindTable, SpanId, Tracer};
use heap_analytics::BucketSeries;
use heap_gossip::node::{GossipNodeBuilder, ProtocolStats};
use heap_gossip::{FanoutPolicy, GossipMessage, GossipNode, Role};
use heap_simnet::bandwidth::UploadCapacity;
use heap_simnet::prelude::*;
use heap_simnet::rng::stream_rng;
use heap_streaming::{
    CompactNodeMetrics, NodeMetrics, NodeStreamMetrics, StreamConfig, StreamSchedule,
};
use heap_workloads::runner::WARMUP;
use heap_workloads::{
    ChurnSpec, MembershipChoice, NetTotals, ResultDetail, Scenario, ShardingChoice,
};
use rand::Rng;
use std::time::Instant;

/// Simulated length of one run slice.
const SLICE: SimDuration = SimDuration::from_secs(1);

/// A built simulator and what its set-up cost.
pub struct Built<P: Protocol> {
    pub sim: Simulator<P>,
    pub schedule: StreamSchedule,
    /// Capacity assignment and stragglers.
    pub assign_s: f64,
    /// `SimulatorBuilder::build`, node construction and `on_start` included.
    pub build_s: f64,
}

impl<P: Protocol> Built<P> {
    pub fn setup_s(&self) -> f64 {
        self.assign_s + self.build_s
    }
}

/// From the scenario to a built simulator, before the first event.
/// `make_node` receives each node's configured builder and finishes it, so a
/// caller can time construction or wrap the node.
pub fn setup<P, F>(scenario: &Scenario, mut make_node: F) -> Built<P>
where
    P: Protocol<Message = GossipMessage>,
    F: FnMut(GossipNodeBuilder) -> P,
{
    assert!(
        scenario.churn == ChurnSpec::None
            && scenario.fault.is_none()
            && scenario.free_riders.is_none()
            && scenario.health_series.is_none()
            && scenario.membership == MembershipChoice::Full
            && scenario.sharding == ShardingChoice::Single,
        "the phased driver mirrors run_scenario only for churn-free, fault-free, \
         full-membership scenarios on the flat engine"
    );
    let started = Instant::now();
    let n = scenario.scale.n_nodes;
    let mut setup_rng = stream_rng(scenario.scale.seed, 0xC0FF_EE00);
    let receiver_caps = scenario.distribution.assign(n - 1, &mut setup_rng);
    let mut advertised: Vec<Option<Bandwidth>> = Vec::with_capacity(n);
    advertised.push(Some(scenario.source_capability));
    advertised.extend(receiver_caps);
    let mut actual = advertised.clone();
    if scenario.straggler_fraction > 0.0 {
        for cap in actual.iter_mut().skip(1).flatten() {
            if setup_rng.gen_bool(scenario.straggler_fraction) {
                *cap = Bandwidth::from_bps((cap.as_bps() / 2).max(1));
            }
        }
    }
    let capacities: Vec<UploadCapacity> = actual
        .iter()
        .map(|c| c.map_or(UploadCapacity::Unlimited, UploadCapacity::Limited))
        .collect();
    let assign_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let schedule = StreamSchedule::new(
        StreamConfig::paper(scenario.scale.n_windows),
        SimTime::ZERO + WARMUP,
    );
    let policy = scenario.protocol.policy(scenario.distribution.average());
    let mut builder = SimulatorBuilder::new(n, scenario.scale.seed)
        .latency(scenario.latency.clone())
        .loss(scenario.loss.clone())
        .capacities(capacities);
    if let Some(limit) = scenario.upload_queue_limit {
        builder = builder.upload_queue_limit(limit);
    }
    let sim = builder.build(|id| {
        let capability = advertised[id.index()].unwrap_or_else(|| Bandwidth::from_mbps(100));
        let (role, node_policy) = if id.index() == 0 {
            (Role::Source, FanoutPolicy::fixed(scenario.gossip.fanout))
        } else {
            (Role::Receiver, policy)
        };
        make_node(
            GossipNode::builder(id, n, schedule)
                .config(scenario.gossip.clone())
                .fanout(node_policy)
                .capability(capability)
                .role(role),
        )
    });
    Built {
        sim,
        schedule,
        assign_s,
        build_s: started.elapsed().as_secs_f64(),
    }
}

/// When the run of a gossip scenario ends (as `run_scenario` computes it).
pub fn end_of(scenario: &Scenario, schedule: &StreamSchedule) -> SimTime {
    schedule.start() + scenario.run_duration()
}

/// What the run loop did, measured slice by slice.
#[derive(Debug, Clone)]
pub struct RunPhase {
    pub events: u64,
    /// Host seconds from the first slice's start to the last slice's end.
    pub run_s: f64,
    /// Host milliseconds of each slice.
    pub slice_ms: Vec<f64>,
    pub pending_events_peak: usize,
    pub timer_slots_peak: usize,
    /// `memory_footprint()` per node after the slice that left the most
    /// events pending.
    pub footprint_bytes_per_node: f64,
    pub allocs: u64,
    /// Callback totals per kind over the whole run (all zero when untraced).
    pub callbacks: KindTable,
}

/// Runs `sim` in one-simulated-second slices: up to `end`, or with no `end`
/// until no event is pending. With a tracer, each slice is a span under
/// `parent` and the callbacks timed during it become its aggregate children.
pub fn run_slices<P: Protocol>(
    sim: &mut Simulator<P>,
    end: Option<SimTime>,
    mut tracer: Option<(&mut Tracer, SpanId)>,
) -> RunPhase {
    let mut phase = RunPhase {
        events: 0,
        run_s: 0.0,
        slice_ms: Vec::new(),
        pending_events_peak: 0,
        timer_slots_peak: 0,
        footprint_bytes_per_node: 0.0,
        allocs: 0,
        callbacks: KindTable::default(),
    };
    let allocs_before = alloc::alloc_count();
    let _ = take_callbacks();
    let started = Instant::now();
    let mut index = 0u32;
    loop {
        let target = match end {
            Some(end) if sim.now() >= end => break,
            Some(end) => (sim.now() + SLICE).min(end),
            None if sim.pending_events() == 0 => break,
            None => sim.now() + SLICE,
        };
        let span = tracer
            .as_mut()
            .map(|(t, parent)| t.open("simnet.slice", Some(index), Some(*parent)));
        let slice_started = Instant::now();
        phase.events += sim.run_until(target);
        phase
            .slice_ms
            .push(slice_started.elapsed().as_secs_f64() * 1e3);
        if let (Some((t, _)), Some(span)) = (tracer.as_mut(), span) {
            t.close(span);
            let table = take_callbacks();
            for kind in Kind::ALL {
                let total = table[kind as usize];
                if total.n > 0 {
                    t.aggregate(kind.name(), span, total.ns, total.n);
                    phase.callbacks[kind as usize].ns += total.ns;
                    phase.callbacks[kind as usize].n += total.n;
                }
            }
        }
        let pending = sim.pending_events();
        if pending > phase.pending_events_peak || index == 0 {
            phase.pending_events_peak = pending;
            phase.footprint_bytes_per_node = sim.memory_footprint().bytes_per_node();
        }
        phase.timer_slots_peak = phase.timer_slots_peak.max(sim.timer_slots());
        index += 1;
    }
    phase.run_s = started.elapsed().as_secs_f64();
    phase.allocs = alloc::alloc_count() - allocs_before;
    phase
}

/// Per-receiver results and what producing them cost.
pub struct Collected {
    pub metrics: Vec<NodeMetrics>,
    pub protocol: Vec<ProtocolStats>,
    pub duplicate_payloads: u64,
    pub receipts: u64,
    pub collect_s: f64,
    pub metrics_compute_ns: u64,
    pub compact_ns: u64,
    pub health_report_ns: u64,
    /// Live bytes the per-receiver metrics hold.
    pub result_bytes: u64,
}

impl Collected {
    pub fn delivery_ratios(&self) -> Vec<f64> {
        self.metrics
            .iter()
            .map(NodeMetrics::delivery_ratio)
            .collect()
    }
}

/// The collection work of `run_scenario` for every receiver: stream metrics
/// from the receive log (folded to compact form and into the run-level lag
/// histogram in compact detail), the health report, upload usage and the
/// protocol counters.
pub fn collect<P: Protocol + AsGossip>(
    sim: &Simulator<P>,
    scenario: &Scenario,
    schedule: &StreamSchedule,
) -> Collected {
    let started = Instant::now();
    let n = sim.len();
    let end = end_of(scenario, schedule);
    let span = schedule.config().stream_duration();
    let live_before = alloc::live_bytes();
    let mut out = Collected {
        metrics: Vec::with_capacity(n - 1),
        protocol: Vec::with_capacity(n - 1),
        duplicate_payloads: 0,
        receipts: 0,
        collect_s: 0.0,
        metrics_compute_ns: 0,
        compact_ns: 0,
        health_report_ns: 0,
        result_bytes: 0,
    };
    let mut lag_series = BucketSeries::new("packet lag distribution", 0.5);
    for i in 1..n {
        let id = NodeId::new(i as u32);
        let node = sim.node(id).gossip();
        let t = Instant::now();
        let full = NodeStreamMetrics::compute(schedule, node.receiver_log());
        out.metrics_compute_ns += t.elapsed().as_nanos() as u64;
        out.metrics.push(match scenario.detail {
            ResultDetail::Full => NodeMetrics::Full(full),
            ResultDetail::Compact => {
                let t = Instant::now();
                for lag in full.received_packet_lags() {
                    let secs = lag.as_secs_f64();
                    lag_series.record(secs, secs);
                }
                let compact = CompactNodeMetrics::from_full(&full);
                out.compact_ns += t.elapsed().as_nanos() as u64;
                NodeMetrics::Compact(compact)
            }
        });
        let t = Instant::now();
        std::hint::black_box(node.health().report(end));
        out.health_report_ns += t.elapsed().as_nanos() as u64;
        let queue = sim.upload_queue(id);
        std::hint::black_box((queue.busy_time(), queue.achieved_rate_bps(span)));
        out.protocol.push(node.stats());
        out.duplicate_payloads += node.engine().stats().duplicate_payloads;
        out.receipts += node.receiver_log().received_count();
    }
    std::hint::black_box(&lag_series);
    out.result_bytes = alloc::live_bytes().saturating_sub(live_before);
    out.collect_s = started.elapsed().as_secs_f64();
    out
}

/// The network totals `run_scenario` reports, read the way it reads them.
pub fn net_totals<P: Protocol>(sim: &Simulator<P>) -> NetTotals {
    let stats = sim.stats();
    NetTotals {
        messages_sent: stats.total_messages_sent(),
        messages_delivered: stats.total_messages_delivered(),
        messages_lost: stats.total_messages_lost(),
        queue_drops: stats.total_queue_drops(),
        total_queueing_delay: stats.total_queueing_delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Traced;
    use heap_workloads::{run_scenario, BandwidthDistribution, ProtocolChoice, Scale};

    fn small(protocol: ProtocolChoice, detail: ResultDetail) -> Scenario {
        Scenario::new(
            "driver-test",
            Scale::test().with_nodes(30).with_windows(2).with_seed(5),
            BandwidthDistribution::ref_691(),
            protocol,
        )
        .with_detail(detail)
    }

    #[test]
    fn driver_reproduces_run_scenario_traced_or_not() {
        for (protocol, detail) in [
            (ProtocolChoice::Heap { fanout: 7.0 }, ResultDetail::Full),
            (
                ProtocolChoice::Standard { fanout: 7.0 },
                ResultDetail::Compact,
            ),
        ] {
            let scenario = small(protocol, detail);
            let reference = run_scenario(&scenario);
            let expected: Vec<f64> = reference
                .nodes
                .iter()
                .map(|n| n.metrics.delivery_ratio())
                .collect();

            let mut plain = setup(&scenario, |b| b.build());
            let end = end_of(&scenario, &plain.schedule);
            let run = run_slices(&mut plain.sim, Some(end), None);
            let collected = collect(&plain.sim, &scenario, &plain.schedule);
            assert_eq!(net_totals(&plain.sim), reference.net);
            assert_eq!(collected.delivery_ratios(), expected);
            assert_eq!(
                run.slice_ms.len() as u64,
                end.as_micros().div_ceil(1_000_000)
            );

            let mut tracer = Tracer::new(1);
            let root = tracer.open("simnet.run", None, None);
            let mut traced = setup(&scenario, |b| Traced(b.build()));
            let _ = take_callbacks();
            let traced_run = run_slices(&mut traced.sim, Some(end), Some((&mut tracer, root)));
            tracer.close(root);
            assert_eq!(traced_run.events, run.events);
            assert_eq!(net_totals(&traced.sim), reference.net);
            assert!(tracer
                .spans()
                .iter()
                .any(|s| s.name == Kind::TimerGossip.name() && s.aggregate && s.count > 0));
        }
    }
}
