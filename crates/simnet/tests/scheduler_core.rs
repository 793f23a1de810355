//! Integration tests of the scheduling core: engine-vs-reference
//! equivalence and a pinned 1000-node determinism fingerprint.
//!
//! Timers have no state of their own beyond their queue entry and cannot be
//! cancelled, so there are no timer-slot bounds or stale cancellations left
//! to test here.

use heap_simnet::prelude::*;
use rand::Rng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

// ---------------------------------------------------------------------------
// Protocols
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Msg(u32);
impl WireSize for Msg {
    fn wire_size(&self) -> usize {
        64
    }
}

/// Random-walk flood: node 0 seeds one message per peer; every delivery
/// forwards to a uniformly drawn node until the TTL runs out. Each node also
/// runs a periodic timer that injects a fresh short-lived message, so the
/// workload mixes `Deliver` and `Timer` events like a real protocol does.
struct Flood {
    n: usize,
    ttl: u32,
    rounds: u32,
    received: u64,
}

impl Protocol for Flood {
    type Message = Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        if ctx.node_id().index() == 0 {
            for i in 1..self.n {
                ctx.send(NodeId::new(i as u32), Msg(self.ttl));
            }
        }
        let phase = SimDuration::from_micros(ctx.rng().gen_range(0..100_000u64));
        ctx.set_timer(phase, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        self.received += 1;
        if msg.0 > 0 {
            let target = NodeId::new(ctx.rng().gen_range(0..self.n as u32));
            ctx.send(target, Msg(msg.0 - 1));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: TimerId, _tag: u64) {
        if self.rounds > 0 {
            self.rounds -= 1;
            let target = NodeId::new(ctx.rng().gen_range(0..self.n as u32));
            ctx.send(target, Msg(2));
            ctx.set_timer(SimDuration::from_millis(100), 0);
        }
    }
}

/// What to build: the engine or the whole-engine reference core.
#[derive(Debug, Clone, Copy)]
enum Core {
    Flat,
    Reference,
}

fn flood_sim(n: usize, seed: u64, ttl: u32, rounds: u32, core: Core) -> Simulator<Flood> {
    let mut builder = SimulatorBuilder::new(n, seed)
        .latency(LatencyModel::uniform(
            SimDuration::from_millis(2),
            SimDuration::from_millis(80),
        ))
        .loss(LossModel::bernoulli(0.02));
    if let Core::Reference = core {
        builder = builder.reference_core();
    }
    builder.build(|_| Flood {
        n,
        ttl,
        rounds,
        received: 0,
    })
}

fn run_fingerprint(sim: &mut Simulator<Flood>) -> (u64, u64) {
    let Ok(processed) = sim.run_to_completion();
    let mut hasher = DefaultHasher::new();
    format!("{:?}", sim.stats()).hash(&mut hasher);
    sim.now().as_micros().hash(&mut hasher);
    for (_, node) in sim.iter_nodes() {
        node.received.hash(&mut hasher);
    }
    (processed, hasher.finish())
}

// ---------------------------------------------------------------------------
// Engine-vs-reference equivalence
// ---------------------------------------------------------------------------

/// The engine and the whole-engine reference (BinaryHeap, single pops)
/// must produce
/// bit-identical simulations: same event count, same stats, same per-node
/// state, same final clock — with crashes mixed in, including one scheduled
/// between two runs whose first deadline cuts a calendar bucket in half.
#[test]
fn all_scheduling_cores_are_bit_identical() {
    let run = |core: Core| {
        let mut sim = flood_sim(150, 3, 40, 20, core);
        sim.schedule_crash(NodeId::new(7), SimTime::from_millis(300));
        sim.schedule_crash(NodeId::new(31), SimTime::from_secs(1));
        let processed = sim.run_until(SimTime::from_micros(777_777));
        sim.schedule_crash(NodeId::new(9), SimTime::from_secs(2));
        let (drained, fingerprint) = run_fingerprint(&mut sim);
        (processed + drained, fingerprint, sim.now())
    };
    assert_eq!(run(Core::Flat), run(Core::Reference));
}

/// A randomized 271-node simulation with latency spread, loss, a finite
/// uplink and a mid-run crash: the engine must produce a byte-identical
/// `NetStats` rendering (what determinism fingerprints hash) to the
/// reference core.
#[test]
fn randomized_sim_stats_identical_across_cores() {
    const N: usize = 271;
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
            .uniform_capacity(Bandwidth::from_kbps(512).into());
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
    assert_eq!(run(false), run(true), "engine vs reference stats diverged");
}

// ---------------------------------------------------------------------------
// 1000-node determinism fingerprint
// ---------------------------------------------------------------------------

/// Pins the exact event count and a state fingerprint of a 1000-node run.
/// Any change to the scheduler that perturbs event order, RNG draw order or
/// delivery semantics changes these constants; future PRs must keep them.
#[test]
fn thousand_node_run_matches_pinned_fingerprint() {
    let mut sim = flood_sim(1000, 42, 60, 5, Core::Flat);
    let (processed, fingerprint) = run_fingerprint(&mut sim);
    assert_eq!(processed, 55_722);
    assert_eq!(fingerprint, 8_177_022_352_140_872_795);
}

/// The same constants must hold on the reference core, which pops one event
/// at a time: bucket drains are an execution strategy, not a semantics
/// change.
#[test]
fn thousand_node_fingerprint_is_dispatch_mode_independent() {
    let mut sim = flood_sim(1000, 42, 60, 5, Core::Reference);
    let (processed, fingerprint) = run_fingerprint(&mut sim);
    assert_eq!(processed, 55_722);
    assert_eq!(fingerprint, 8_177_022_352_140_872_795);
}
