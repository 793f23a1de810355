//! Differential property test of the engine against its reference core.
//!
//! Drives randomly generated protocol workloads — random message walks,
//! random timer churn in which a re-armed timer supersedes the pending one,
//! random upload-capacity caps with finite send buffers, random loss rates
//! and mid-run crashes — through the engine and through the hidden
//! whole-engine reference (`SimulatorBuilder::reference_core`), and requires
//! *bit identity* on every observable:
//!
//! * the per-node callback history (a rolling hash over every delivery,
//!   timer firing and crash a node observes, including `now` at each),
//!   which pins the *event order* each node sees;
//! * the complete [`NetStats`] rendering (per-node counters and the global
//!   queueing-delay sum);
//! * the processed-event count, the final clock and the pending-event and
//!   armed-timer counts.
//!
//! A *latency floor* axis varies the minimum link latency from zero up to
//! tens of calendar buckets, and timers are armed from every callback with
//! delays down to zero, so same-tick and same-bucket pushes — the batch
//! loop's intrusion path — cross the differential on every case.

use heap_simnet::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A protocol that behaves pseudo-randomly (driven by its per-node RNG
/// stream) and records everything it observes into a rolling hash.
struct Chaos {
    n: u32,
    history: u64,
    /// Remaining timer re-arms.
    rounds: u32,
    /// The latest tag-2/3 timer: it supersedes the earlier ones, whose fires
    /// are ignored.
    pending: Option<TimerId>,
}

#[derive(Clone, Debug)]
struct Token(u32, u16);

impl WireSize for Token {
    fn wire_size(&self) -> usize {
        32 + self.1 as usize % 96
    }
}

impl Chaos {
    fn observe(&mut self, a: u64, b: u64, c: u64) {
        let mut h = DefaultHasher::new();
        (self.history, a, b, c).hash(&mut h);
        self.history = h.finish();
    }
}

impl Protocol for Chaos {
    type Message = Token;

    fn on_start(&mut self, ctx: &mut Context<'_, Token>) {
        let fanout = ctx.rng().gen_range(0..4u32);
        for _ in 0..fanout {
            let to = NodeId::new(ctx.rng().gen_range(0..self.n));
            let ttl = ctx.rng().gen_range(0..12u32);
            ctx.send(to, Token(ttl, ctx.node_id().as_u32() as u16));
        }
        let phase = SimDuration::from_micros(ctx.rng().gen_range(0..400_000u64));
        ctx.set_timer(phase, 1);
        // A far timer exercises the overflow-heap path.
        let far = SimDuration::from_millis(ctx.rng().gen_range(2_000..9_000u64));
        self.pending = Some(ctx.set_timer(far, 2));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Token>, from: NodeId, msg: Token) {
        self.observe(ctx.now().as_micros(), from.as_u32() as u64, msg.0 as u64);
        if msg.0 > 0 {
            let to = NodeId::new(ctx.rng().gen_range(0..self.n));
            ctx.send(to, Token(msg.0 - 1, msg.1.wrapping_add(1)));
        }
        if ctx.rng().gen_range(0..8u32) == 0 {
            // Supersede whatever is pending and re-arm, possibly inside the
            // current calendar bucket.
            let delay = SimDuration::from_micros(ctx.rng().gen_range(0..600_000u64));
            self.pending = Some(ctx.set_timer(delay, 3));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Token>, timer: TimerId, tag: u64) {
        if tag != 1 && self.pending != Some(timer) {
            return;
        }
        self.observe(ctx.now().as_micros(), u64::MAX, tag);
        if self.rounds > 0 {
            self.rounds -= 1;
            let to = NodeId::new(ctx.rng().gen_range(0..self.n));
            let ttl = ctx.rng().gen_range(0..6u32);
            ctx.send(to, Token(ttl, tag as u16));
            let delay = SimDuration::from_micros(ctx.rng().gen_range(0..300_000u64));
            ctx.set_timer(delay, 1);
        }
    }

    fn on_crash(&mut self, now: SimTime) {
        self.observe(now.as_micros(), u64::MAX - 1, u64::MAX - 1);
    }
}

/// One observable outcome of a run, compared across configurations.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    processed: u64,
    histories: u64,
    stats: String,
    now_micros: u64,
    pending: usize,
    armed: usize,
}

/// Builds and runs the seed's workload on the engine, or with `reference`
/// on the reference core. `floor_us` is the latency model's minimum delay.
fn run(seed: u64, n: u32, floor_us: u64, reference: bool) -> Outcome {
    let mut cfg = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xD1FF);
    // Latency: minimum = the requested floor.
    let latency = if cfg.gen_bool(0.5) {
        LatencyModel::uniform(
            SimDuration::from_micros(floor_us),
            SimDuration::from_micros(floor_us + cfg.gen_range(4_000..120_000u64)),
        )
    } else {
        LatencyModel::base_plus_exp(
            SimDuration::from_micros(floor_us),
            SimDuration::from_millis(cfg.gen_range(1..40u64)),
        )
    };
    let loss = if cfg.gen_bool(0.5) {
        LossModel::bernoulli(cfg.gen_range(0.0..0.08))
    } else {
        LossModel::none()
    };
    let capacities: Vec<_> = (0..n)
        .map(|_| {
            if cfg.gen_bool(0.3) {
                heap_simnet::bandwidth::UploadCapacity::Limited(Bandwidth::from_kbps(
                    cfg.gen_range(64..2_048u64),
                ))
            } else {
                heap_simnet::bandwidth::UploadCapacity::Unlimited
            }
        })
        .collect();
    let mut builder = SimulatorBuilder::new(n as usize, seed)
        .latency(latency)
        .loss(loss)
        .capacities(capacities)
        .upload_queue_limit(SimDuration::from_secs(2));
    if reference {
        builder = builder.reference_core();
    }
    let mut sim = builder.build(|_| Chaos {
        n,
        history: 0,
        rounds: 8,
        pending: None,
    });
    // A couple of pre-run crashes plus one scheduled mid-run.
    let c1 = NodeId::new(cfg.gen_range(0..n));
    sim.schedule_crash(c1, SimTime::from_micros(cfg.gen_range(1_000..500_000u64)));
    // Deadline at an odd microsecond: cuts a calendar bucket in half.
    let mut processed = sim.run_until(SimTime::from_micros(399_999));
    let c2 = NodeId::new(cfg.gen_range(0..n));
    sim.schedule_crash(c2, SimTime::from_micros(cfg.gen_range(400_000..900_000u64)));
    processed += sim.run_until(SimTime::from_secs(12));

    let mut h = DefaultHasher::new();
    for (id, node) in sim.iter_nodes() {
        (id.as_u32(), node.history).hash(&mut h);
    }
    Outcome {
        processed,
        histories: h.finish(),
        stats: format!("{:?}", sim.stats()),
        now_micros: sim.now().as_micros(),
        pending: sim.pending_events(),
        armed: sim.armed_timers(),
    }
}

/// The engine against the reference core on the seed's workload.
fn differential(seed: u64, n: u32, floor_us: u64) {
    let engine = run(seed, n, floor_us, false);
    assert!(engine.processed > 0, "workload must process events");
    assert_eq!(
        engine,
        run(seed, n, floor_us, true),
        "engine diverged from the reference core: seed {seed}, floor {floor_us} us"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random workloads on the engine and the reference: identical event
    /// order, statistics and fingerprints. The floor axis spans latencies
    /// from zero up to 31 buckets.
    #[test]
    fn engine_matches_the_reference_core(
        seed in 0u64..1_000_000,
        floor in 0u64..32_768,
    ) {
        differential(seed, 48, floor);
    }
}

/// A deeper single case than the proptest budget affords.
#[test]
fn engine_matches_the_reference_core_on_a_larger_population() {
    differential(0xBEEF, 160, 2_000);
}

/// The larger population with no latency floor at all: zero-latency
/// deliveries and zero-delay timers land in the bucket being drained.
#[test]
fn engine_matches_the_reference_core_at_zero_latency() {
    differential(0xBEEF, 160, 0);
}
