//! Differential property test of [`RetransmitTracker`] and its one timer.
//!
//! Drives the tracker the way `GossipNode` does — push a request and arm the
//! timer when `push` says so; when the timer fires, pop every due request,
//! re-examine it, re-queue the retried ones and arm wherever `rearm` says —
//! against a model of the protocol it replaced: one timer per request, each
//! firing at its own deadline. Random operation sequences interleave new
//! requests, answers (packets arriving), failed proposers (`forget_proposer`
//! plus a dead view entry) and the passage of time. Retries run down to 0,
//! where a request is given up.
//!
//! Both sides must re-send and give up the same requests at the same
//! instants, in the same order. The tracker side must never have two timers
//! armed, and it may fire only for a request that is due, one that was
//! answered, or a front that `forget_proposer` removed: never more often
//! than the model's timers plus the `forget_proposer` calls.
//!
//! Every push hands the tracker the answered predicate, so a push that
//! finds the queue full drops the answered requests first, wherever they
//! stand. Each run must grow the queue past its first allocation and keep
//! its bytes within 48 B × (2 × the most requests unanswered at once + 4);
//! most runs must drop an answered request from behind an unanswered one.

use heap_gossip::retransmit::{PendingRequest, RetransmitTracker};
use heap_simnet::node::NodeId;
use heap_simnet::time::{SimDuration, SimTime};
use heap_streaming::PacketId;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const PERIOD: SimDuration = SimDuration::from_millis(2_000);
const PROPOSERS: u32 = 5;

/// What happened to a request that fell due unanswered.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Resent {
        at: SimTime,
        to: NodeId,
        missing: Vec<PacketId>,
    },
    GaveUp {
        at: SimTime,
        to: NodeId,
        missing: Vec<PacketId>,
    },
}

/// The node-side state both sides share: delivered packets and dead peers.
#[derive(Default)]
struct World {
    delivered: HashSet<PacketId>,
    dead: HashSet<NodeId>,
}

impl World {
    fn missing(&self, ids: &[PacketId]) -> Vec<PacketId> {
        ids.iter()
            .copied()
            .filter(|id| !self.delivered.contains(id))
            .collect()
    }

    /// Re-examines a request due at `at`: `Some(retries)` to re-queue it.
    fn examine(
        &self,
        at: SimTime,
        to: NodeId,
        ids: &[PacketId],
        retries_left: u32,
        log: &mut Vec<Outcome>,
    ) -> Option<(Vec<PacketId>, u32)> {
        let missing = self.missing(ids);
        if missing.is_empty() {
            return None;
        }
        if retries_left == 0 || self.dead.contains(&to) {
            log.push(Outcome::GaveUp { at, to, missing });
            return None;
        }
        log.push(Outcome::Resent {
            at,
            to,
            missing: missing.clone(),
        });
        Some((missing, retries_left - 1))
    }
}

/// The answered predicate a push hands the tracker. It counts in
/// `mid_queue` the answered requests it finds behind an unanswered one,
/// which only a push's drop pass (not `rearm`, which stops at the first
/// unanswered request) ever visits.
fn answered<'a>(
    world: &'a World,
    mid_queue: &'a mut u64,
) -> impl FnMut(&PendingRequest) -> bool + 'a {
    let mut behind_unanswered = false;
    move |p| {
        let answered = world.missing(&p.ids.to_vec()).is_empty();
        if answered && behind_unanswered {
            *mid_queue += 1;
        }
        behind_unanswered |= !answered;
        answered
    }
}

/// One timer per request: `(due, arm order, proposer, ids, retries)`.
#[derive(Default)]
struct Model {
    timers: Vec<(SimTime, u64, NodeId, Vec<PacketId>, u32)>,
    armed: u64,
    fired: u64,
    log: Vec<Outcome>,
}

impl Model {
    fn arm(&mut self, due: SimTime, to: NodeId, ids: Vec<PacketId>, retries: u32) {
        self.timers.push((due, self.armed, to, ids, retries));
        self.armed += 1;
    }

    /// Requests waiting with packets still missing. Firing never raises
    /// it, and the tracker never holds more of them, even while it drains.
    fn unanswered(&self, world: &World) -> usize {
        let missing = |t: &&(_, _, _, Vec<PacketId>, _)| !world.missing(&t.3).is_empty();
        self.timers.iter().filter(missing).count()
    }

    /// Fires, in (deadline, arm order), every timer due by `until`.
    fn advance(&mut self, until: SimTime, world: &World) {
        loop {
            let next = self
                .timers
                .iter()
                .enumerate()
                .filter(|(_, t)| t.0 <= until)
                .min_by_key(|(_, t)| (t.0, t.1))
                .map(|(i, _)| i);
            let Some(i) = next else { return };
            let (at, _, to, ids, retries) = self.timers.swap_remove(i);
            self.fired += 1;
            if let Some((missing, left)) = world.examine(at, to, &ids, retries, &mut self.log) {
                self.arm(at + PERIOD, to, missing, left);
            }
        }
    }
}

/// The tracker with the node's single timer.
#[derive(Default)]
struct Single {
    tracker: RetransmitTracker,
    timer: Option<SimTime>,
    fired: u64,
    log: Vec<Outcome>,
    /// Answered requests a push dropped from behind an unanswered one.
    mid_queue_drops: u64,
}

impl Single {
    fn arm(&mut self, due: Option<SimTime>, at: &str) {
        if let Some(due) = due {
            assert!(
                self.timer.is_none(),
                "a second retransmission timer armed, {at}"
            );
            self.timer = Some(due);
        }
    }

    /// Fires the timer as often as it falls due by `until`.
    fn advance(&mut self, until: SimTime, world: &World, at: &str) {
        while let Some(now) = self.timer.filter(|&due| due <= until) {
            self.timer = None;
            self.fired += 1;
            while let Some(p) = self.tracker.pop_due(now) {
                if let Some((missing, left)) = world.examine(
                    now,
                    p.proposer,
                    &p.ids.to_vec(),
                    p.retries_left,
                    &mut self.log,
                ) {
                    let answered = answered(world, &mut self.mid_queue_drops);
                    let due = now + PERIOD;
                    let rearm = self.tracker.push(p.proposer, missing, left, due, answered);
                    assert_eq!(rearm, None, "re-queueing armed a timer, {at}");
                }
            }
            let next = self
                .tracker
                .rearm(|p| world.missing(&p.ids.to_vec()).is_empty());
            self.arm(next, at);
        }
    }
}

/// One differential run: `ops` random operations derived from `seed`.
/// Returns how many answered requests a push dropped from behind an
/// unanswered one.
fn drive(seed: u64, ops: usize) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut world = World::default();
    let mut model = Model::default();
    let mut single = Single::default();
    let mut forgets = 0;
    let mut now = SimTime::ZERO;
    let mut next_packet = 0u64;
    let (mut most_unanswered, mut most_bytes) = (0, 0);
    // Requested but not delivered, to answer later.
    let mut in_flight: Vec<PacketId> = Vec::new();
    let mut latest: Vec<PacketId> = Vec::new();
    for step in 0..ops {
        let at = format!("seed {seed}, step {step}, {now}");
        match rng.gen_range(0u32..20) {
            // A proposal pulls fresh ids from a (possibly dead) proposer.
            0..=6 => {
                let to = NodeId::new(rng.gen_range(0..PROPOSERS));
                let ids: Vec<PacketId> = (0..rng.gen_range(1..4))
                    .map(|_| {
                        next_packet += 1;
                        PacketId::new(next_packet)
                    })
                    .collect();
                in_flight.extend(&ids);
                latest.clone_from(&ids);
                let retries = rng.gen_range(0..4);
                let due = now + PERIOD;
                model.arm(due, to, ids.clone(), retries);
                let answered = answered(&world, &mut single.mid_queue_drops);
                let arm = single.tracker.push(to, ids, retries, due, answered);
                single.arm(arm, &at);
            }
            // A serve answers some requested id or, half the time, every id
            // of the latest request, which is then answered behind older
            // unanswered ones.
            7..=11 if !in_flight.is_empty() => {
                if rng.gen_bool(0.5) {
                    world.delivered.extend(latest.drain(..));
                } else {
                    let id = in_flight.swap_remove(rng.gen_range(0..in_flight.len()));
                    world.delivered.insert(id);
                }
            }
            // The failure detector reports a proposer: its requests go. A
            // later proposal may still come from it and is given up on.
            12 => {
                let to = NodeId::new(rng.gen_range(0..PROPOSERS));
                world.dead.insert(to);
                forgets += 1;
                single.tracker.forget_proposer(to);
                model.timers.retain(|t| t.2 != to);
            }
            // It re-joins.
            13 => {
                let to = NodeId::new(rng.gen_range(0..PROPOSERS));
                world.dead.remove(&to);
            }
            // Time passes: sometimes a little, sometimes past many deadlines.
            _ => {
                let micros = match rng.gen_range(0u32..4) {
                    0 => 0,
                    1 => rng.gen_range(1..1_000),
                    2 => rng.gen_range(1..PERIOD.as_micros()),
                    _ => rng.gen_range(1..4 * PERIOD.as_micros()),
                };
                now += SimDuration::from_micros(micros);
                most_unanswered = most_unanswered.max(model.unanswered(&world));
                model.advance(now, &world);
                single.advance(now, &world, &at);
                assert_eq!(single.log, model.log, "outcomes differ, {at}");
            }
        }
        most_unanswered = most_unanswered.max(model.unanswered(&world));
        let bytes = single.tracker.heap_bytes();
        assert!(
            bytes <= 48 * (2 * most_unanswered + 4),
            "{bytes} B queued for at most {most_unanswered} unanswered, {at}"
        );
        most_bytes = most_bytes.max(bytes);
    }
    // Run every deadline out: both sides end empty, with equal outcomes.
    let end = SimTime::from_micros(u64::MAX / 2);
    model.advance(end, &world);
    single.advance(end, &world, "at the end");
    assert_eq!(
        single.log, model.log,
        "outcomes differ at the end, seed {seed}"
    );
    assert!(model.timers.is_empty());
    assert_eq!(single.tracker.outstanding(), 0, "seed {seed}");
    let bytes = single.tracker.heap_bytes();
    assert!(
        bytes <= 48 * (2 * most_unanswered + 4),
        "seed {seed}: {bytes} B at the end"
    );
    assert_eq!(single.timer, None, "seed {seed}: timer left armed");
    assert!(
        single.fired <= model.fired + forgets,
        "seed {seed}: {} firings for {} timers and {forgets} forgets",
        single.fired,
        model.fired
    );
    assert!(
        single
            .log
            .iter()
            .any(|o| matches!(o, Outcome::GaveUp { .. })),
        "seed {seed}: no request ran out of retries"
    );
    assert!(most_bytes > 4 * 48, "seed {seed}: the queue never grew");
    single.mid_queue_drops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The deadline FIFO with one timer and the timer-per-request model
    /// re-send and give up the same requests at the same instants.
    #[test]
    fn one_timer_matches_a_timer_per_request(seed in 0u64..1_000_000) {
        drive(seed, 600);
    }
}

/// The drop pass is exercised where it matters: in most runs a full queue
/// finds an answered request behind an unanswered one (which `rearm`, that
/// stops at the first unanswered request, never drops).
#[test]
fn full_queues_drop_answered_requests_from_mid_queue() {
    let crossed = (0..64).filter(|&seed| drive(seed, 600) > 0).count();
    assert!(crossed >= 48, "only {crossed} of 64 runs");
}
