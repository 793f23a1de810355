//! Differential property test of the fault-injection engine.
//!
//! Generates random [`FaultPlan`]s — random region assignments, partition
//! windows and diurnal bandwidth cycles — beside correlated crashes of
//! random region subsets (scheduled through `Simulator::schedule_crash`), plus
//! random Gilbert–Elliott bursty loss, drives a relay workload under each
//! plan through the engine and the whole-engine reference core, and requires
//! *bit identity* on every observable: per-node callback histories, the
//! complete [`NetStats`](heap_simnet::NetStats) rendering, the
//! processed-event count and the final clock.
//!
//! This is the determinism guarantee of `docs/FAULTS.md`: a fault schedule
//! is part of the simulation's definition, not of its execution, so it must
//! mean exactly the same thing on the engine and on its oracle.

use heap_simnet::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A relaying protocol that records everything it observes into a rolling
/// hash.
struct Relay {
    n: u32,
    history: u64,
    rounds: u32,
}

#[derive(Clone, Debug)]
struct Hop(u32);

impl WireSize for Hop {
    fn wire_size(&self) -> usize {
        96
    }
}

impl Relay {
    fn observe(&mut self, a: u64, b: u64, c: u64) {
        let mut h = DefaultHasher::new();
        (self.history, a, b, c).hash(&mut h);
        self.history = h.finish();
    }
}

impl Protocol for Relay {
    type Message = Hop;

    fn on_start(&mut self, ctx: &mut Context<'_, Hop>) {
        for _ in 0..2 {
            let to = NodeId::new(ctx.rng().gen_range(0..self.n));
            let ttl = ctx.rng().gen_range(2..10);
            ctx.send(to, Hop(ttl));
        }
        let phase = SimDuration::from_micros(ctx.rng().gen_range(0..200_000u64));
        ctx.set_timer(phase, 1);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Hop>, from: NodeId, msg: Hop) {
        self.observe(ctx.now().as_micros(), from.as_u32() as u64, msg.0 as u64);
        if msg.0 > 0 {
            let to = NodeId::new(ctx.rng().gen_range(0..self.n));
            ctx.send(to, Hop(msg.0 - 1));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Hop>, _timer: TimerId, tag: u64) {
        self.observe(ctx.now().as_micros(), u64::MAX, tag);
        if self.rounds > 0 {
            self.rounds -= 1;
            let to = NodeId::new(ctx.rng().gen_range(0..self.n));
            let ttl = ctx.rng().gen_range(0..6);
            ctx.send(to, Hop(ttl));
            let delay = SimDuration::from_micros(ctx.rng().gen_range(1_024..400_000u64));
            ctx.set_timer(delay, 1);
        }
    }

    fn on_crash(&mut self, now: SimTime) {
        self.observe(now.as_micros(), u64::MAX - 1, u64::MAX - 1);
    }
}

/// Derives a random-but-seed-determined fault plan for an `n`-node run over
/// `[0, horizon)`, plus the `(instant, victim)` regional crashes to schedule
/// beside it.
/// Exercised features vary with the seed: group shapes, 0–3 partition
/// windows, 0–2 crashes of random subsets of a region, optional diurnal
/// cycling.
fn random_plan(
    cfg: &mut rand::rngs::SmallRng,
    n: u32,
    horizon: SimTime,
) -> (FaultPlan, Vec<(SimTime, NodeId)>) {
    let regions = cfg.gen_range(2..=4u32);
    let groups: Vec<u32> = (0..n).map(|_| cfg.gen_range(0..regions)).collect();
    let mut plan = FaultPlan::new().with_groups(groups.clone());
    for _ in 0..cfg.gen_range(0..=3u32) {
        let start = cfg.gen_range(0..horizon.as_micros() - 1);
        let end = cfg.gen_range(start + 1..=horizon.as_micros());
        plan = plan.partition(SimTime::from_micros(start), SimTime::from_micros(end));
    }
    let mut crashes = Vec::new();
    for _ in 0..cfg.gen_range(0..=2u32) {
        let region = cfg.gen_range(0..regions);
        let at = SimTime::from_micros(cfg.gen_range(1_000..horizon.as_micros()));
        crashes.extend(
            (0..n)
                .filter(|&i| groups[i as usize] == region && cfg.gen_bool(0.5))
                .map(|i| (at, NodeId::new(i))),
        );
    }
    if cfg.gen_bool(0.5) {
        let phases = cfg.gen_range(2..=4usize);
        let factors: Vec<f64> = (0..phases).map(|_| cfg.gen_range(0.2..1.5)).collect();
        let period = SimDuration::from_micros(cfg.gen_range(500_000..3_000_000u64));
        plan = plan.diurnal(period, factors);
    }
    (plan, crashes)
}

/// One observable outcome of a run, compared across configurations.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    processed: u64,
    histories: u64,
    stats: String,
    now_micros: u64,
}

/// Builds and runs the seed's workload under its fault plan on the engine,
/// or with `reference` on the reference core. `floor_us` sets the latency
/// model's minimum delay.
fn run(seed: u64, n: u32, floor_us: u64, reference: bool) -> Outcome {
    let horizon = SimTime::from_secs(8);
    let mut cfg = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xFA17);
    let (plan, crashes) = random_plan(&mut cfg, n, horizon);
    // Bursty (Gilbert–Elliott) loss is part of the fault taxonomy; mix it
    // with the plain models so both samplers cross the differential.
    let loss = match cfg.gen_range(0..3u32) {
        0 => LossModel::bursty_default(),
        1 => LossModel::bernoulli(cfg.gen_range(0.0..0.08)),
        _ => LossModel::none(),
    };
    let capacities: Vec<_> = (0..n)
        .map(|_| {
            if cfg.gen_bool(0.4) {
                heap_simnet::bandwidth::UploadCapacity::Limited(Bandwidth::from_kbps(
                    cfg.gen_range(64..2_048u64),
                ))
            } else {
                heap_simnet::bandwidth::UploadCapacity::Unlimited
            }
        })
        .collect();
    let mut builder = SimulatorBuilder::new(n as usize, seed)
        .latency(LatencyModel::uniform(
            SimDuration::from_micros(floor_us),
            SimDuration::from_micros(floor_us.max(30_000) * 2),
        ))
        .loss(loss)
        .capacities(capacities)
        .upload_queue_limit(SimDuration::from_secs(2))
        .fault_plan(plan);
    if reference {
        builder = builder.reference_core();
    }
    let mut sim = builder.build(|_| Relay {
        n,
        history: 0,
        rounds: 6,
    });
    for (at, node) in crashes {
        sim.schedule_crash(node, at);
    }
    let processed = sim.run_until(horizon + SimDuration::from_secs(4));

    let mut h = DefaultHasher::new();
    for (id, node) in sim.iter_nodes() {
        (id.as_u32(), node.history).hash(&mut h);
    }
    Outcome {
        processed,
        histories: h.finish(),
        stats: format!("{:?}", sim.stats()),
        now_micros: sim.now().as_micros(),
    }
}

/// The engine against the reference core under one fault plan.
fn differential(seed: u64, n: u32, floor_us: u64) {
    let engine = run(seed, n, floor_us, false);
    assert!(engine.processed > 0, "workload must process events");
    // Fault schedules (partitions, regional crashes, diurnal cycling) and
    // Gilbert–Elliott loss must mean the same on the reference core.
    assert_eq!(
        engine,
        run(seed, n, floor_us, true),
        "faulted engine diverged from the reference core: seed {seed}, floor {floor_us} us"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any random fault plan yields bit-identical results on the engine and
    /// the reference, at latency floors from zero up to 31 buckets.
    #[test]
    fn fault_plans_are_bit_identical_across_engines(
        seed in 0u64..1_000_000,
        floor in 0u64..32_768,
    ) {
        differential(seed, 32, floor);
    }
}

/// A deeper single case than the proptest budget affords: more nodes, a
/// pinned seed whose plan exercises partitions, crashes and diurnal cycling
/// together.
#[test]
fn fault_plans_match_on_a_larger_population() {
    differential(0xFEED, 96, 2_000);
}
