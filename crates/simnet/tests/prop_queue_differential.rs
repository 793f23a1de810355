//! Differential property test of the calendar-queue scheduler.
//!
//! Drives [`EventQueue`] against [`BinaryHeapQueue`] (the ordering oracle)
//! with the same randomly generated operation sequences and asserts they
//! agree on every observable: pop order (time, sequence number *and* payload), `peek_time`,
//! `peek`, deadline-bounded pops ([`EventQueue::pop_at_or_before`]) and
//! `len` after every step.
//!
//! The time distribution is deliberately adversarial for the calendar
//! layout: dense ties on one instant, sub-bucket jitter, spreads across
//! several epochs, and far-future outliers that must take the overflow-heap
//! path and come back through an epoch rollover. Because pops interleave
//! with pushes, "push earlier than the current cursor bucket" (the
//! cursor-rewind and past-heap paths) occurs naturally as well.
//!
//! That mix keeps the cursor inside the first hour of virtual time and
//! mostly inside the first few outer buckets. The *long-horizon* mix
//! ([`Horizon::Long`]) draws delays relative to the latest popped instant
//! instead, so the cursor travels several turns of the outer wheel: bursts
//! leave 1–8 outer buckets non-empty at once, deeper timers and overflow
//! events land beyond them, and periodic full drains empty the queue so the
//! next push re-anchors it. Every bucket's pages go back to one shared free
//! list as they empty; this is the mix under which a page is reused by many
//! different buckets of both wheels, across the rings' wrap.
//!
//! After every step both runners also hold the queue's retained bytes to
//! the page pool's bound ([`Retention`]): a page that leaks — taken and
//! never returned — grows the pool with elapsed time, not pending events,
//! and breaks it.
//!
//! Every run prints its mix and seed when an assertion fails.

use heap_simnet::event::{
    BinaryHeapQueue, EventQueue, ScheduledEvent, BUCKET_WIDTH_MICROS, NUM_BUCKETS,
    NUM_OUTER_BUCKETS, PAGE_EVENTS,
};
use heap_simnet::time::SimTime;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Draws a scheduling instant from the adversarial mix described in the
/// module docs.
fn arbitrary_micros(rng: &mut SmallRng) -> u64 {
    match rng.gen_range(0u32..10) {
        // Dense ties: a single instant, repeatedly.
        0 | 1 => 777_777,
        // Sub-bucket jitter around one bucket.
        2 | 3 => 500_000 + rng.gen_range(0u64..1_024),
        // Within a couple of epochs (the wheel horizon is ~0.5 s).
        4..=7 => rng.gen_range(0u64..1_500_000),
        // Far future: hours away, overflow-heap territory.
        8 => rng.gen_range(0u64..4_000_000_000),
        // Very far future, near-degenerate spread.
        _ => 3_600_000_000 + rng.gen_range(0u64..3),
    }
}

/// Virtual time one outer-wheel bucket spans.
const OUTER_WIDTH_MICROS: u64 = NUM_BUCKETS as u64 * BUCKET_WIDTH_MICROS;

/// Draws a scheduling instant relative to `clock`, the latest popped
/// instant: the long-horizon mix described in the module docs.
fn long_horizon_micros(rng: &mut SmallRng, clock: u64) -> u64 {
    let within_bucket = rng.gen_range(0u64..OUTER_WIDTH_MICROS);
    let buckets_ahead = match rng.gen_range(0u32..20) {
        // The past guard (or a re-anchor, when the queue is empty).
        0 => return clock.saturating_sub(rng.gen_range(0u64..3 * OUTER_WIDTH_MICROS)),
        // A tie with the clock, or a sub-bucket step from it.
        1 | 2 => return clock + rng.gen_range(0u64..2),
        // The current window or the next outer bucket.
        3..=5 => 0,
        // The burst: the next eight outer buckets.
        6..=15 => rng.gen_range(1u64..=8),
        // Deep in the outer wheel, up to its last reachable bucket.
        16 | 17 => rng.gen_range(9u64..NUM_OUTER_BUCKETS as u64),
        // Beyond the wheel: the overflow heap, revealed turns later.
        _ => rng.gen_range(NUM_OUTER_BUCKETS as u64..3 * NUM_OUTER_BUCKETS as u64),
    };
    clock + buckets_ahead * OUTER_WIDTH_MICROS + within_bucket
}

/// Which time distribution a run draws from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Horizon {
    /// [`arbitrary_micros`]: absolute instants, adversarial for the layout.
    Adversarial,
    /// [`long_horizon_micros`]: delays from the latest popped instant, plus
    /// a full drain every [`DRAIN_EVERY`] operations on average.
    Long,
}

/// Mean operations between two full drains of a [`Horizon::Long`] run.
const DRAIN_EVERY: u32 = 48;

impl Horizon {
    fn micros(self, rng: &mut SmallRng, clock: u64) -> u64 {
        match self {
            Horizon::Adversarial => arbitrary_micros(rng),
            Horizon::Long => long_horizon_micros(rng, clock),
        }
    }
}

/// The inputs of the retention bound, tracked from the events the test
/// pushed and popped. The bound is 1.25 × (the peak pending events plus one
/// page for each bucket that can hold a partly filled tail page, plus the
/// page a cascade lends out), plus the current-bucket buffer, plus the two
/// heaps' first allocation of 4 entries each. Events that share a 1 024 µs
/// bucket number share any inner or outer bucket they sit in, so the peak
/// number of distinct bucket numbers among pending events bounds the
/// non-empty buckets; the current-bucket buffer holds one bucket and grows
/// by doubling, so its capacity stays within twice the largest bucket (and
/// `Vec`'s minimum of 4). The 0.25 covers the page table and the heaps'
/// growth.
#[derive(Default)]
struct Retention {
    /// Pending events by bucket number.
    buckets: BTreeMap<u64, usize>,
    pending: usize,
    peak_pending: usize,
    peak_buckets: usize,
    largest_bucket: usize,
}

impl Retention {
    fn pushed(&mut self, micros: u64) {
        let n = self
            .buckets
            .entry(micros / BUCKET_WIDTH_MICROS)
            .or_default();
        *n += 1;
        self.largest_bucket = self.largest_bucket.max(*n);
        self.pending += 1;
        self.peak_pending = self.peak_pending.max(self.pending);
        self.peak_buckets = self.peak_buckets.max(self.buckets.len());
    }

    fn popped(&mut self, event: &ScheduledEvent<u64>) {
        let bucket = event.time.as_micros() / BUCKET_WIDTH_MICROS;
        let n = self
            .buckets
            .get_mut(&bucket)
            .expect("popped a pushed event");
        *n -= 1;
        if *n == 0 {
            self.buckets.remove(&bucket);
        }
        self.pending -= 1;
    }

    fn check(&self, queue: &EventQueue<u64>, step: usize) {
        let entry = std::mem::size_of::<ScheduledEvent<u64>>();
        let chained = self.peak_pending + (self.peak_buckets + 1) * PAGE_EVENTS;
        let bound = chained * entry * 5 / 4 + (2 * self.largest_bucket).max(4) * entry + 8 * entry;
        let retained = queue.retained_bytes() as usize;
        assert!(
            retained <= bound,
            "retained {retained} B > bound {bound} B at step {step} (peak pending {}, \
             peak buckets {}, largest bucket {})",
            self.peak_pending,
            self.peak_buckets,
            self.largest_bucket
        );
    }
}

/// Pops both queues empty, asserting they agree event for event, and
/// advances `clock` to the latest instant popped.
fn drain_all(
    calendar: &mut EventQueue<u64>,
    reference: &mut BinaryHeapQueue<u64>,
    clock: &mut u64,
    retention: &mut Retention,
) {
    loop {
        match (calendar.pop(), reference.pop()) {
            (Some(x), Some(y)) => {
                assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
                retention.popped(&x);
                *clock = (*clock).max(y.time.as_micros());
            }
            (None, None) => return,
            other => panic!("queues diverged while draining: {other:?}"),
        }
    }
}

/// One differential run: `ops` random operations derived from `seed`.
/// Returns the latest instant popped.
fn drive(horizon: Horizon, seed: u64, ops: usize) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    // The latest instant popped so far.
    let mut clock = 0u64;
    let mut calendar: EventQueue<u64> = EventQueue::new();
    let mut reference: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    let mut retention = Retention::default();
    let mut payload = 0u64;
    for step in 0..ops {
        // Pop with ~40% probability so the queues repeatedly drain and the
        // calendars exercise epoch rollovers and cursor rewinds; half of
        // those pops are deadline-bounded.
        let r = rng.gen_range(0u32..10);
        if horizon == Horizon::Long && rng.gen_range(0..DRAIN_EVERY) == 0 {
            // Empty the queues: the next push re-anchors the calendar.
            drain_all(&mut calendar, &mut reference, &mut clock, &mut retention);
        } else if r < 2 {
            let a = calendar.pop();
            let b = reference.pop();
            match (&a, &b) {
                (Some(x), Some(y)) => {
                    assert_eq!(
                        (x.time, x.seq, x.payload),
                        (y.time, y.seq, y.payload),
                        "calendar diverged at step {step}"
                    );
                    retention.popped(x);
                    clock = clock.max(y.time.as_micros());
                }
                (None, None) => {}
                other => panic!("one queue empty, the other not, at step {step}: {other:?}"),
            }
        } else if r < 4 {
            // Deadline-bounded pop: sometimes before the front, sometimes
            // at it, sometimes far beyond it.
            let deadline =
                SimTime::from_micros(match (rng.gen_range(0u32..3), reference.peek_time()) {
                    (0, Some(t)) => t.as_micros(),
                    (1, Some(t)) => t.as_micros().saturating_sub(1),
                    _ => horizon.micros(&mut rng, clock),
                });
            // Reference semantics: pop iff the front fires by the deadline.
            let expected = if reference.peek_time().is_some_and(|t| t <= deadline) {
                reference.pop()
            } else {
                None
            };
            let got = calendar.pop_at_or_before(deadline);
            match (&got, &expected) {
                (Some(x), Some(y)) => {
                    assert_eq!(
                        (x.time, x.seq, x.payload),
                        (y.time, y.seq, y.payload),
                        "bounded pop diverged at step {step}"
                    );
                    retention.popped(x);
                    clock = clock.max(y.time.as_micros());
                }
                (None, None) => {}
                other => panic!("bounded pops disagree at step {step}: {other:?}"),
            }
        } else {
            let micros = horizon.micros(&mut rng, clock);
            calendar.push(SimTime::from_micros(micros), payload);
            reference.push(SimTime::from_micros(micros), payload);
            retention.pushed(micros);
            payload += 1;
        }
        assert_eq!(
            calendar.len(),
            reference.len(),
            "len diverged at step {step}"
        );
        assert_eq!(
            calendar.peek_time(),
            reference.peek_time(),
            "peek diverged at step {step}"
        );
        // peek() must surface the exact event pop would yield next.
        match (calendar.peek(), reference.peek()) {
            (Some(x), Some(y)) => {
                assert_eq!(
                    (x.time, x.seq, x.payload),
                    (y.time, y.seq, y.payload),
                    "peek event diverged at step {step}"
                );
            }
            (None, None) => {}
            other => panic!("peek disagrees at step {step}: {other:?}"),
        }
        assert_eq!(calendar.is_empty(), reference.is_empty());
        retention.check(&calendar, step);
    }
    // Drain completely: the tail order must match too.
    drain_all(&mut calendar, &mut reference, &mut clock, &mut retention);
    retention.check(&calendar, ops);
    clock
}

/// One batched-drain differential run: the batch pipeline against the
/// reference heap's single pops on the same random workload. Returns the
/// latest instant popped.
///
/// Mirrors the simulator's engine loop exactly: drain whole buckets
/// ([`EventQueue::drain_bucket`]), fall back to single pops where the queue
/// stands down (deadline straddlers, past-guard events), consume batches
/// from the tail, and merge intruding pushes against the next batch entry by
/// global `(time, seq)` order. Mid-batch pushes — the "callback" pushes of a
/// real run — are biased toward the drain guard so the intrusion machinery
/// fires constantly.
fn drive_batched(horizon: Horizon, seed: u64, ops: usize) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut batched: EventQueue<u64> = EventQueue::new();
    let mut single: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    let mut batch = Vec::new();
    let mut retention = Retention::default();
    let mut payload = 0u64;
    // The latest instant popped so far.
    let mut clock = 0u64;
    for step in 0..ops {
        if rng.gen_range(0u32..10) < 6 {
            let micros = horizon.micros(&mut rng, clock);
            batched.push(SimTime::from_micros(micros), payload);
            single.push(SimTime::from_micros(micros), payload);
            retention.pushed(micros);
            payload += 1;
            retention.check(&batched, step);
            continue;
        }
        // Consume a whole deadline region through the batch pipeline.
        // (An unbounded region empties the queue, so the long-horizon mix
        // needs no separate drain step here.)
        let deadline = match rng.gen_range(0u32..3) {
            0 => None,
            _ => Some(SimTime::from_micros(horizon.micros(&mut rng, clock))),
        };
        loop {
            if batched.drain_bucket(deadline, &mut batch) {
                while let Some(next) = batch.last().map(|ev| (ev.time, ev.seq)) {
                    if batched.drain_intruded() {
                        let front_first =
                            matches!(batched.peek(), Some(f) if (f.time, f.seq) < next);
                        if front_first {
                            let got = batched.pop().expect("front was peeked");
                            let want = single.pop().expect("oracle has the intruder");
                            assert_eq!(
                                (got.time, got.seq, got.payload),
                                (want.time, want.seq, want.payload),
                                "merged intruder diverged at step {step}"
                            );
                            retention.popped(&got);
                            continue;
                        }
                    }
                    let got = batch.pop().expect("last() was Some");
                    let want = single.pop().expect("oracle keeps pace with the batch");
                    assert_eq!(
                        (got.time, got.seq, got.payload),
                        (want.time, want.seq, want.payload),
                        "batch entry diverged at step {step}"
                    );
                    retention.popped(&got);
                    clock = clock.max(got.time.as_micros());
                    // Mid-batch "callback" pushes, biased to land at or just
                    // after the consumed event — i.e. at or before the drain
                    // guard — so the intrusion path fires constantly.
                    if rng.gen_range(0u32..4) == 0 {
                        let micros = match rng.gen_range(0u32..3) {
                            0 => got.time.as_micros() + rng.gen_range(0u64..3),
                            1 => got.time.as_micros() + rng.gen_range(0u64..2_048),
                            _ => horizon.micros(&mut rng, clock).max(got.time.as_micros()),
                        };
                        batched.push(SimTime::from_micros(micros), payload);
                        single.push(SimTime::from_micros(micros), payload);
                        retention.pushed(micros);
                        payload += 1;
                    }
                }
                batched.finish_drain();
                continue;
            }
            // Straddling bucket, past-guard events or an exhausted region:
            // one single-pop step, exactly like the run loop's fallback.
            let got = match deadline {
                Some(d) => batched.pop_at_or_before(d),
                None => batched.pop(),
            };
            let want = match deadline {
                Some(d) => single.pop_at_or_before(d),
                None => single.pop(),
            };
            match (&got, &want) {
                (Some(x), Some(y)) => {
                    assert_eq!(
                        (x.time, x.seq, x.payload),
                        (y.time, y.seq, y.payload),
                        "fallback pop diverged at step {step}"
                    );
                    retention.popped(x);
                    clock = clock.max(y.time.as_micros());
                }
                (None, None) => break,
                other => panic!("region exhaustion diverged at step {step}: {other:?}"),
            }
        }
        assert_eq!(batched.len(), single.len(), "len diverged at step {step}");
        assert_eq!(
            batched.peek_time(),
            single.peek_time(),
            "peek diverged at step {step}"
        );
        retention.check(&batched, step);
    }
    // Drain the remainder through plain pops: the batch path must leave the
    // queue in a state indistinguishable from the oracle's.
    loop {
        match (batched.pop(), single.pop()) {
            (Some(x), Some(y)) => {
                assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
                retention.popped(&x);
                clock = clock.max(y.time.as_micros());
            }
            (None, None) => {
                retention.check(&batched, ops);
                return clock;
            }
            other => panic!("queues diverged while draining: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The calendar queue pops the exact sequence the reference heap pops,
    /// under plain and deadline-bounded pops.
    #[test]
    fn calendar_queues_match_binary_heap_reference(seed in 0u64..1_000_000) {
        drive(Horizon::Adversarial, seed, 3_000);
    }

    /// The bucket-at-a-time drain path yields the exact single-pop sequence
    /// on random workloads, including mid-batch intrusions and deadline
    /// straddlers.
    #[test]
    fn batched_drain_matches_single_pop_oracle(seed in 0u64..1_000_000) {
        drive_batched(Horizon::Adversarial, seed, 3_000);
    }

    /// The same two properties while the cursor travels turns of the outer
    /// wheel and pooled pages pass from bucket to bucket.
    #[test]
    fn queues_match_reference_over_a_long_horizon(seed in 0u64..1_000_000) {
        drive(Horizon::Long, seed, 3_000);
        drive_batched(Horizon::Long, seed, 3_000);
    }
}

/// A long single run for deeper epoch churn than the proptest cases afford.
#[test]
fn calendar_queue_matches_reference_on_a_long_run() {
    drive(Horizon::Adversarial, 0xC0FF_EE42, 60_000);
}

/// A long batched-drain run for deeper epoch churn and guard traffic.
#[test]
fn batched_drain_matches_single_pop_on_a_long_run() {
    drive_batched(Horizon::Adversarial, 0xBA7C_4ED0, 60_000);
}

/// Long-horizon runs must actually take the cursor across the outer ring's
/// wrap, more than twice.
#[test]
fn long_horizon_runs_cross_the_outer_ring_wrap() {
    let two_turns = 2 * NUM_OUTER_BUCKETS as u64 * OUTER_WIDTH_MICROS;
    assert!(drive(Horizon::Long, 0x0074_0A11, 60_000) > two_turns);
    assert!(drive_batched(Horizon::Long, 0x0BA7_0A11, 60_000) > two_turns);
}
