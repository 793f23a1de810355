//! Differential property test of [`RetransmitTracker`].
//!
//! The tracker is a FIFO slab indexed by tag. This drives it and the layout
//! it replaced (a hash map keyed by a running tag counter) with the same
//! random operation sequences and asserts equal returned tags, equal `take`
//! and `forget_proposer` results and equal `outstanding` after every step.
//!
//! Takes hit the oldest pending tag most often, as timers do, but also a
//! random pending tag, a tag taken before, a tag not handed out yet and a tag
//! below the base; few proposers, so `forget_proposer` blanks many slots at
//! once, the front ones included.

use heap_gossip::retransmit::{PendingRequest, RetransmitTracker, RETRANSMIT_TAG_BASE};
use heap_simnet::node::NodeId;
use heap_streaming::PacketId;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The tracker as a hash map keyed by tag.
struct Model {
    pending: HashMap<u64, PendingRequest>,
    next_tag: u64,
}

impl Model {
    fn register(&mut self, proposer: NodeId, ids: Vec<PacketId>, retries: u32) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        let request = PendingRequest {
            proposer,
            ids,
            retries_left: retries,
        };
        self.pending.insert(tag, request);
        tag
    }

    fn forget_proposer(&mut self, proposer: NodeId) -> usize {
        let before = self.pending.len();
        self.pending.retain(|_, p| p.proposer != proposer);
        before - self.pending.len()
    }
}

/// Prints the seed of a failing run, whichever assertion stopped it.
struct ReportSeed(u64);

impl Drop for ReportSeed {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: drive({}, ..)", self.0);
        }
    }
}

/// One differential run: `ops` random operations derived from `seed`.
fn drive(seed: u64, ops: usize) {
    let _report = ReportSeed(seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tracker = RetransmitTracker::new();
    let mut model = Model {
        pending: HashMap::new(),
        next_tag: RETRANSMIT_TAG_BASE,
    };
    // Every tag taken so far, to take again.
    let mut taken: Vec<u64> = Vec::new();
    for step in 0..ops {
        let at = format!("step {step}");
        let tag = match rng.gen_range(0u32..20) {
            0..=8 => {
                let proposer = NodeId::new(rng.gen_range(0..5));
                let ids: Vec<PacketId> = (0..rng.gen_range(0..4))
                    .map(|_| PacketId::new(rng.gen_range(0..1_000)))
                    .collect();
                let retries = rng.gen_range(0..4);
                assert_eq!(
                    tracker.register(proposer, ids.clone(), retries),
                    model.register(proposer, ids, retries),
                    "registered tag, {at}"
                );
                None
            }
            // In order: the oldest pending tag.
            9..=12 => model.pending.keys().min().copied(),
            // Out of order: the k-th oldest.
            13 | 14 => {
                let mut pending: Vec<u64> = model.pending.keys().copied().collect();
                pending.sort_unstable();
                (!pending.is_empty()).then(|| pending[rng.gen_range(0..pending.len())])
            }
            15 => (!taken.is_empty()).then(|| taken[rng.gen_range(0..taken.len())]),
            16 => Some(model.next_tag + rng.gen_range(0..3)),
            17 => Some(rng.gen_range(0..RETRANSMIT_TAG_BASE)),
            _ => {
                let proposer = NodeId::new(rng.gen_range(0..5));
                assert_eq!(
                    tracker.forget_proposer(proposer),
                    model.forget_proposer(proposer),
                    "forgotten requests of {proposer}, {at}"
                );
                None
            }
        };
        if let Some(tag) = tag {
            assert_eq!(
                tracker.take(tag),
                model.pending.remove(&tag),
                "take({tag}), {at}"
            );
            taken.push(tag);
        }
        assert_eq!(
            tracker.outstanding(),
            model.pending.len(),
            "outstanding, {at}"
        );
    }
    // Whatever is left comes out intact, in any order.
    let mut left: Vec<u64> = model.pending.keys().copied().collect();
    left.sort_unstable_by_key(|&tag| std::cmp::Reverse(tag));
    for tag in left {
        assert_eq!(
            tracker.take(tag),
            model.pending.remove(&tag),
            "final take({tag})"
        );
    }
    assert_eq!(tracker.outstanding(), 0);
    assert_eq!(
        tracker.register(NodeId::new(0), Vec::new(), 0),
        model.next_tag,
        "tags stay consecutive after the slab emptied"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slab and the hash-map model agree after every step.
    #[test]
    fn tracker_matches_hash_map_model(seed in 0u64..1_000_000) {
        drive(seed, 800);
    }
}
