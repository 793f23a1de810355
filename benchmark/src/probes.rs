//! Probes: layer primitives timed from outside, on the state a run reached
//! (clones of sampled nodes' aggregators and views, sampled receivers' logs).

use crate::trace::AsGossip;
use heap_analytics::BucketSeries;
use heap_fec::{WindowEncoder, WindowParams};
use heap_membership::UniformSampler;
use heap_simnet::prelude::*;
use heap_simnet::rng::stream_rng;
use heap_streaming::{
    HealthConfig, PacketId, ReceiverHealth, ReceiverLog, StreamReassembler, StreamSchedule,
};
use heap_workloads::experiments::common::{lag_cdf_series, LagKind};
use heap_workloads::{health_export, ExperimentResult};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Receivers sampled per run (evenly spaced over the id range).
const SAMPLED: usize = 16;

/// Probe results on a finished gossip run's node state.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeProbes {
    pub aggregator_freshest_ns: f64,
    pub aggregator_average_ns: f64,
    pub aggregator_known_nodes: f64,
    pub select_ns: f64,
    pub view_bytes_per_node: f64,
    pub health_on_packet_ns: f64,
    pub bucket_record_ns: f64,
    pub fec: FecProbe,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct FecProbe {
    pub encode_mib_s: f64,
    /// Source bytes of decoded windows per second of replay (payload copies
    /// and reassembly bookkeeping included).
    pub decode_mib_s: f64,
    pub windows_decoded: u64,
    /// Decoded windows that needed at least one parity packet.
    pub windows_recovered: u64,
    /// Decoded windows whose source packets differ from what was encoded.
    pub windows_corrupt: u64,
}

/// Mean nanoseconds of `f` over `iters` calls.
fn mean_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn sampled_ids(n: usize) -> Vec<NodeId> {
    let receivers = n - 1;
    let count = SAMPLED.min(receivers);
    (0..count)
        .map(|k| NodeId::new((1 + k * receivers / count) as u32))
        .collect()
}

/// A log's receipts in arrival order (ties by packet id).
fn arrivals(log: &ReceiverLog) -> Vec<(PacketId, SimTime)> {
    let mut received: Vec<_> = log.iter_received().collect();
    received.sort_by_key(|&(id, at)| (at, id.seq()));
    received
}

pub fn probe_nodes<P: Protocol + AsGossip>(
    sim: &Simulator<P>,
    schedule: &StreamSchedule,
    seed: u64,
) -> NodeProbes {
    let ids = sampled_ids(sim.len());
    let k = ids.len() as f64;
    let now = sim.now();
    let mut rng = stream_rng(seed, 0xBE7C_4000);
    let mut out = NodeProbes::default();
    for &id in &ids {
        let node = sim.node(id).gossip();
        let mut aggregator = node.aggregator().clone();
        out.aggregator_known_nodes += aggregator.known_nodes() as f64 / k;
        out.aggregator_freshest_ns += mean_ns(20, || {
            black_box(aggregator.freshest_samples(10, now));
        }) / k;
        out.aggregator_average_ns += mean_ns(200, || {
            black_box(aggregator.estimated_average());
        }) / k;
        let view = node.view().clone();
        out.view_bytes_per_node += view.heap_bytes() as f64 / k;
        out.select_ns += mean_ns(1000, || {
            black_box(UniformSampler::select(&view, 7, &mut rng));
        }) / k;
    }

    // One sampled log replayed through a fresh health tracker and a lag
    // histogram, per receipt.
    let log = sim.node(ids[ids.len() / 2]).gossip().receiver_log();
    let received = arrivals(log);
    if !received.is_empty() {
        let per = received.len() as f64;
        let mut health = ReceiverHealth::new(HealthConfig::for_schedule(schedule));
        let started = Instant::now();
        for &(id, at) in &received {
            let published = schedule
                .publish_time(id)
                .expect("logged packet is scheduled");
            health.on_packet(published, at);
        }
        black_box(health.samples());
        out.health_on_packet_ns = started.elapsed().as_nanos() as f64 / per;
        let mut series = BucketSeries::new("probe", 0.5);
        let started = Instant::now();
        for &(id, at) in &received {
            let published = schedule
                .publish_time(id)
                .expect("logged packet is scheduled");
            let lag = at.saturating_since(published).as_secs_f64();
            series.record(lag, lag);
        }
        black_box(series.len());
        out.bucket_record_ns = started.elapsed().as_nanos() as f64 / per;
    }

    let logs: Vec<&ReceiverLog> = ids
        .iter()
        .map(|&id| sim.node(id).gossip().receiver_log())
        .collect();
    out.fec = probe_fec(schedule, &logs, &mut rng);
    out
}

/// Encodes every window of the stream once, then replays each log's receipts
/// in arrival order through a `StreamReassembler` fed the encoded payloads,
/// checking every decoded window against what was encoded.
fn probe_fec(schedule: &StreamSchedule, logs: &[&ReceiverLog], rng: &mut impl Rng) -> FecProbe {
    let params: WindowParams = schedule.config().window;
    let encoder = WindowEncoder::new(params).expect("the schedule's geometry is valid");
    let window_bytes = (params.data_packets * params.packet_bytes) as f64;
    let mut out = FecProbe::default();

    let data: Vec<Vec<Vec<u8>>> = (0..schedule.total_windows())
        .map(|_| {
            (0..params.data_packets)
                .map(|_| (0..params.packet_bytes).map(|_| rng.gen()).collect())
                .collect()
        })
        .collect();
    let started = Instant::now();
    let windows: Vec<Vec<Vec<u8>>> = data
        .iter()
        .map(|d| encoder.encode(d).expect("geometry matches"))
        .collect();
    let mib = |bytes: f64, secs: f64| bytes / (1024.0 * 1024.0) / secs;
    out.encode_mib_s = mib(
        window_bytes * windows.len() as f64,
        started.elapsed().as_secs_f64(),
    );

    let mut replay_s = 0.0;
    for log in logs {
        let received = arrivals(log);
        let mut source_seen = vec![0usize; windows.len()];
        let mut reassembler = StreamReassembler::new(*schedule);
        let started = Instant::now();
        for (id, _) in received {
            let packet = schedule.packet(id).expect("logged packet is scheduled");
            let w = packet.window.index() as usize;
            source_seen[w] += usize::from(packet.is_source());
            let payload = windows[w][packet.index_in_window].clone();
            if let Some(decoded) = reassembler.accept(id, payload) {
                out.windows_decoded += 1;
                out.windows_recovered += u64::from(source_seen[w] < params.data_packets);
                let intact = decoded
                    .data_packets()
                    .zip(&windows[w])
                    .all(|(got, sent)| got == sent.as_slice());
                out.windows_corrupt += u64::from(!intact);
                reassembler.recycle(decoded);
            }
        }
        replay_s += started.elapsed().as_secs_f64();
    }
    if out.windows_decoded > 0 {
        out.decode_mib_s = mib(window_bytes * out.windows_decoded as f64, replay_s);
    }
    out
}

/// Probe results on a finished run's `ExperimentResult` (the figure surface).
#[derive(Debug, Clone, Copy, Default)]
pub struct ResultProbes {
    pub lag_cdf_us: f64,
    pub exposition_render_us: f64,
}

pub fn probe_result(name: &str, result: &ExperimentResult) -> ResultProbes {
    let started = Instant::now();
    black_box(lag_cdf_series(result, LagKind::Delivery99, "99% delivery"));
    let lag_cdf_us = started.elapsed().as_secs_f64() * 1e6;
    let started = Instant::now();
    black_box(health_export::exposition(&[(name, result)]).render());
    ResultProbes {
        lag_cdf_us,
        exposition_render_us: started.elapsed().as_secs_f64() * 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_ids_are_distinct_receivers() {
        for n in [2, 5, 17, 271, 30_000] {
            let ids = sampled_ids(n);
            assert_eq!(ids.len(), SAMPLED.min(n - 1));
            assert!(ids.iter().all(|id| id.index() >= 1 && id.index() < n));
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "n={n}");
        }
    }
}
