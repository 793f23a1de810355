//! Regression tests pinning the struct-of-arrays [`NetStats`] layout to the
//! retained Vec-of-structs reference accumulator, and the batched delivery
//! path to the per-event reference core, on randomized 271-node workloads.

use heap_simnet::prelude::*;
use heap_simnet::stats::{NetStats, ReferenceNetStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Paper-scale node count used by the randomized runs.
const N: usize = 271;

/// Replays one randomized operation stream — shaped like a dissemination
/// run: mostly sends and deliveries, occasional losses, queue drops and
/// dead-node discards — into both accumulators and checks every counter.
#[test]
fn soa_stats_match_reference_accumulator_on_randomized_stream() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_57A7);
    let mut soa = NetStats::new(N);
    let mut reference = ReferenceNetStats::new(N);
    for _ in 0..200_000 {
        let node = NodeId::new(rng.gen_range(0..N as u32));
        match rng.gen_range(0u32..100) {
            0..=44 => {
                let bytes = rng.gen_range(40usize..1500);
                soa.record_send(node, bytes);
                reference.record_send(node, bytes);
            }
            45..=89 => {
                let bytes = rng.gen_range(40usize..1500);
                soa.record_delivery(node, bytes);
                reference.record_delivery(node, bytes);
            }
            90..=93 => {
                soa.record_loss(node);
                reference.record_loss(node);
            }
            94..=96 => {
                soa.record_to_dead(node);
                reference.record_to_dead(node);
            }
            _ => {
                soa.record_queue_drop(node);
                reference.record_queue_drop(node);
            }
        }
        if rng.gen_range(0u32..100) == 0 {
            let delay = SimDuration::from_micros(rng.gen_range(0..50_000u64));
            soa.total_queueing_delay += delay;
            reference.total_queueing_delay += delay;
        }
    }
    for (id, expected) in reference.iter() {
        assert_eq!(soa.node(id), expected, "node {id} diverged");
    }
    assert_eq!(soa.total_messages_sent(), reference.total_messages_sent());
    assert_eq!(
        soa.total_messages_delivered(),
        reference.total_messages_delivered()
    );
    assert_eq!(soa.total_messages_lost(), reference.total_messages_lost());
    assert_eq!(soa.total_bytes_sent(), reference.total_bytes_sent());
    assert_eq!(soa.total_queue_drops(), reference.total_queue_drops());
    assert_eq!(soa.total_queueing_delay, reference.total_queueing_delay);
    assert_eq!(soa.iter().count(), reference.iter().count());
}

/// The batched form of the recording API must be indistinguishable from the
/// per-event form the reference accumulator defines.
#[test]
fn batched_deliveries_match_reference_singles() {
    let mut rng = SmallRng::seed_from_u64(7);
    let ops: Vec<(NodeId, u64, u64, bool)> = (0..20_000)
        .map(|_| {
            (
                NodeId::new(rng.gen_range(0..N as u32)),
                rng.gen_range(1u64..6),
                rng.gen_range(40u64..1500),
                rng.gen_range(0u32..2) == 0,
            )
        })
        .collect();
    let mut soa = NetStats::new(N);
    let mut reference = ReferenceNetStats::new(N);
    for &(node, count, bytes, deliver) in &ops {
        if deliver {
            // One batched record on the SoA side...
            soa.record_deliveries(node, count, count * bytes);
            // ...vs `count` singles on the reference side.
            for _ in 0..count {
                reference.record_delivery(node, bytes as usize);
            }
        } else {
            soa.record_to_dead_n(node, count);
            for _ in 0..count {
                reference.record_to_dead(node);
            }
        }
    }
    for (id, expected) in reference.iter() {
        assert_eq!(soa.node(id), expected, "node {id} diverged");
    }
}

/// A full randomized 271-node simulation: the flat core's batched dispatch
/// and SoA stats must produce byte-identical `NetStats` (Debug rendering
/// included — it is what determinism fingerprints hash) to the reference
/// core, which records through the per-event paths.
#[test]
fn randomized_sim_stats_identical_across_cores() {
    struct Walk {
        n: u32,
        ttl: u32,
    }
    #[derive(Clone, Debug)]
    struct Hop(u32);
    impl WireSize for Hop {
        fn wire_size(&self) -> usize {
            200
        }
    }
    impl Protocol for Walk {
        type Message = Hop;
        fn on_start(&mut self, ctx: &mut Context<'_, Hop>) {
            if ctx.node_id().index() == 0 {
                for i in 1..self.n {
                    ctx.send(NodeId::new(i), Hop(self.ttl));
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Hop>, _from: NodeId, msg: Hop) {
            if msg.0 > 0 {
                let n = self.n;
                let target = NodeId::new(ctx.rng().gen_range(0..n));
                ctx.send(target, Hop(msg.0 - 1));
            }
        }
        fn on_timer(&mut self, _: &mut Context<'_, Hop>, _: TimerId, _: u64) {}
    }
    let run = |reference: bool| {
        let mut builder = SimulatorBuilder::new(N, 0xBEEF)
            .latency(LatencyModel::planetlab_like())
            .loss(LossModel::bernoulli(0.03))
            .uniform_capacity(heap_simnet::bandwidth::Bandwidth::from_kbps(512).into());
        if reference {
            builder = builder.reference_core();
        }
        let mut sim = builder.build(|_| Walk {
            n: N as u32,
            ttl: 25,
        });
        sim.schedule_crash(NodeId::new(13), SimTime::from_millis(700));
        sim.run_until(SimTime::from_secs(5));
        format!("{:?}", sim.stats())
    };
    assert_eq!(run(false), run(true), "flat vs reference stats diverged");
}
