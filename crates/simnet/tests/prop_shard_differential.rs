//! Differential property test of the sharded simulator.
//!
//! Drives randomly generated protocol workloads — random message walks,
//! random timer arm/cancel churn, random upload-capacity caps with finite
//! send buffers, random loss rates and mid-run crashes — through the engine
//! on one partition and through 2- and 4-partition configurations of every
//! partition policy, and requires *bit identity* on every observable:
//!
//! * the per-node callback history (a rolling hash over every delivery,
//!   timer firing and crash a node observes, including `now` at each),
//!   which pins the *event order* each node sees;
//! * the complete [`NetStats`] rendering (per-node counters and the global
//!   queueing-delay sum);
//! * the processed-event count, the final clock and the per-node RNG
//!   positions (hashed into the history via post-run draws).
//!
//! The workloads respect the sharded determinism contract: every latency
//! model's minimum delay spans at least one calendar bucket and every timer
//! armed from a message handler spans at least the minimum latency (the
//! random initial timer phases are armed in `on_start`, which the contract
//! exempts; timer handlers re-arm with delays as short as one bucket, which
//! the pending-timer clamp must absorb).
//!
//! A *latency floor* axis varies the minimum latency — and with it the
//! exchange lookahead `k = floor(min_latency / bucket_width)` — from one
//! bucket up to tens of buckets, so the k-bucket exchange cadence is pinned
//! bit-identical to one partition for k ≥ 2, including timer re-arms that
//! straddle exchange-window boundaries.

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
    /// A cancellable timer handle, to exercise cancel and stale-cancel
    /// paths across shards.
    pending: Option<TimerId>,
    /// Floor (µs) for timers armed from `on_message`: the latency model's
    /// minimum delay, which the contract guarantees outlives any exchange
    /// window. Timer-handler re-arms are exempt (the pending-timer clamp
    /// covers them) and keep arming down to one bucket.
    min_arm: u64,
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
        // Random phase below one bucket is allowed here: on_start runs
        // before the first bucket is processed.
        let phase = SimDuration::from_micros(ctx.rng().gen_range(0..400_000u64));
        ctx.set_timer(phase, 1);
        // A far timer exercises the overflow-heap path per shard.
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
            // Cancel whatever is pending (possibly a stale handle) and
            // re-arm with a contract-respecting delay.
            if let Some(id) = self.pending.take() {
                ctx.cancel_timer(id);
            }
            let delay = SimDuration::from_micros(ctx.rng().gen_range(self.min_arm..600_000u64));
            self.pending = Some(ctx.set_timer(delay, 3));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Token>, _timer: TimerId, tag: u64) {
        self.observe(ctx.now().as_micros(), u64::MAX, tag);
        if self.rounds > 0 {
            self.rounds -= 1;
            let to = NodeId::new(ctx.rng().gen_range(0..self.n));
            let ttl = ctx.rng().gen_range(0..6u32);
            ctx.send(to, Token(ttl, tag as u16));
            let delay = SimDuration::from_micros(ctx.rng().gen_range(1_024..300_000u64));
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

/// Builds and runs one configuration. `shards == 0` means the flat engine,
/// or with `reference` the reference core (unsharded by construction), so
/// the batch path is differentially pinned against one-event-at-a-time
/// dispatch. `floor_us` is the latency model's minimum delay — the lookahead bound,
/// so `floor_us / 1024` is the exchange-window width in buckets.
fn run(
    seed: u64,
    n: u32,
    floor_us: u64,
    shards: usize,
    policy: Option<ShardPolicy>,
    reference: bool,
) -> Outcome {
    let mut cfg = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xD1FF);
    // Latency: minimum = the requested floor (>= one bucket of 1.024 ms, as
    // the contract requires), which fixes the exchange lookahead.
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
        assert_eq!(shards, 0, "the reference core is unsharded");
        builder = builder.reference_core();
    }
    if shards > 0 {
        builder = builder.sharded(shards);
        if let Some(policy) = policy {
            builder = builder.shard_policy(policy);
        }
    }
    let mut sim = builder.build(|_| Chaos {
        n,
        history: 0,
        rounds: 8,
        pending: None,
        min_arm: floor_us,
    });
    if shards > 0 {
        assert_eq!(
            sim.lookahead_buckets(),
            (floor_us / 1_024).max(1),
            "the exchange cadence must track the latency floor"
        );
    }
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

/// One partition vs reference vs {2, 4} partitions x every policy, at the
/// given latency floor (`floor_us / 1024` buckets of exchange lookahead).
fn differential(seed: u64, n: u32, floor_us: u64) {
    let flat = run(seed, n, floor_us, 0, None, false);
    assert!(flat.processed > 0, "workload must process events");
    // The engine's batch pipeline must be bit-identical to the reference
    // core's pop-one-dispatch-one loop over a binary heap.
    let reference = run(seed, n, floor_us, 0, None, true);
    assert_eq!(
        flat, reference,
        "flat engine diverged from the reference core: seed {seed}"
    );
    for shards in [2usize, 4] {
        for policy in [
            ShardPolicy::RoundRobin,
            ShardPolicy::Contiguous,
            ShardPolicy::ByCapacityClass,
        ] {
            let sharded = run(seed, n, floor_us, shards, Some(policy.clone()), false);
            assert_eq!(
                flat, sharded,
                "sharded run diverged: seed {seed}, {shards} shards, {policy:?}, floor \
                 {floor_us} us"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random workloads through 1/2/4-partition configurations: identical event
    /// order, statistics and fingerprints in every configuration. The floor
    /// axis spans lookaheads of 1 (the pre-widening cadence) up to 31
    /// buckets.
    #[test]
    fn sharded_simulations_match_the_flat_core(
        seed in 0u64..1_000_000,
        floor in 1_024u64..32_768,
    ) {
        differential(seed, 48, floor);
    }
}

/// A deeper single case than the proptest budget affords, at the
/// single-bucket cadence.
#[test]
fn sharded_simulations_match_the_flat_core_on_a_larger_population() {
    differential(0xBEEF, 160, 2_000);
}

/// The larger population again at a wide (23-bucket) lookahead, so the
/// multi-bucket windows see dense cross-window timer re-arm traffic.
#[test]
fn sharded_simulations_match_the_flat_core_at_wide_lookahead() {
    differential(0xBEEF, 160, 24_000);
}

/// The custom policy plugs into the same differential harness (at an
/// 8-bucket lookahead).
#[test]
fn custom_policy_matches_the_flat_core() {
    let flat = run(7, 48, 8_192, 0, None, false);
    let custom = run(
        7,
        48,
        8_192,
        3,
        Some(ShardPolicy::Custom(|n, shards, _| {
            // A deliberately unbalanced deterministic assignment.
            (0..n).map(|i| ((i * i) % shards) as u32).collect()
        })),
        false,
    );
    assert_eq!(flat, custom);
}

/// Sub-bucket latency is rejected at build time: the lookahead bound would
/// not cover one calendar bucket.
#[test]
#[should_panic(expected = "lookahead")]
fn sub_bucket_latency_is_rejected_when_sharded() {
    let _ = SimulatorBuilder::new(4, 1)
        .latency(LatencyModel::constant(SimDuration::from_micros(100)))
        .sharded(2)
        .build(|_| Chaos {
            n: 4,
            history: 0,
            rounds: 0,
            pending: None,
            min_arm: 1_024,
        });
}

/// A sub-bucket *timer* delay armed during a bucket violates the
/// determinism contract. The run must stop gracefully — no panic — with the
/// breach latched and surfaced as a structured [`ContractViolation`]:
/// `run_until` returns early with the violation queryable, and
/// `run_to_completion` reports it as an `Err` (even though the offending
/// protocol re-arms its timer forever and would otherwise never drain).
#[test]
fn sub_bucket_timer_delay_is_detected_when_sharded() {
    struct TightTimer;
    #[derive(Clone, Debug)]
    struct Never;
    impl WireSize for Never {
        fn wire_size(&self) -> usize {
            0
        }
    }
    impl Protocol for TightTimer {
        type Message = Never;
        fn on_start(&mut self, ctx: &mut Context<'_, Never>) {
            ctx.set_timer(SimDuration::from_millis(5), 0);
        }
        fn on_message(&mut self, _: &mut Context<'_, Never>, _: NodeId, _: Never) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Never>, _: TimerId, _: u64) {
            // 100 us < one bucket: would fire inside the completed region.
            ctx.set_timer(SimDuration::from_micros(100), 1);
        }
    }
    let build = || {
        SimulatorBuilder::new(2, 1)
            .latency(LatencyModel::constant(SimDuration::from_millis(10)))
            .sharded(2)
            .build(|_| TightTimer)
    };
    // `run_until` stops at the breaching exchange and latches the breach.
    let mut sim = build();
    sim.run_until(SimTime::from_secs(1));
    let violation = sim
        .contract_violation()
        .expect("sub-bucket timer delay must latch a violation");
    assert!(violation.violations > 0);
    assert!(
        sim.now() < SimTime::from_secs(1),
        "the run must stop at the breach, not reach the deadline"
    );
    assert!(violation.to_string().contains("determinism contract"));
    // The violation names the offender: the timer's owner, its tag, and
    // the lookahead in force (10 ms constant latency = 9 buckets).
    let first = violation.first.expect("first offender must be latched");
    assert_eq!(first.timer_tag, Some(1));
    assert_eq!(first.lookahead_buckets, 9);
    assert!(first.scheduled_micros <= first.cutoff_micros);
    let text = violation.to_string();
    assert!(text.contains("timer (tag 1)"));
    assert!(text.contains("lookahead of 9 bucket(s)"));
    // `run_to_completion` surfaces the same breach as an error — and
    // terminates even though the protocol re-arms its timer forever.
    let mut sim = build();
    let err = sim
        .run_to_completion()
        .expect_err("sub-bucket timer delay must fail the run");
    assert!(err.violations > 0);
    assert_eq!(sim.contract_violation(), Some(err));
    // One partition has no such contract: the identical protocol runs clean
    // there.
    let mut sim = SimulatorBuilder::new(2, 1)
        .latency(LatencyModel::constant(SimDuration::from_millis(10)))
        .build(|_| TightTimer);
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.contract_violation(), None);
}
