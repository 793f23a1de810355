//! Uniform random peer selection (`selectNodes(f)` in Algorithm 1).

use crate::view::MembershipView;
use heap_simnet::node::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Uniform random selection of gossip targets from a [`MembershipView`].
///
/// The robustness results HEAP builds on (average fanout ≥ ln(n) keeps the
/// dissemination graph connected w.h.p.) assume targets are drawn uniformly
/// at random among live peers, independently at every gossip round; this type
/// is the single place where that selection happens so both protocols share
/// the exact same sampling behaviour.
///
/// # Examples
///
/// ```
/// use heap_membership::{MembershipView, UniformSampler};
/// use heap_simnet::node::NodeId;
/// use rand::SeedableRng;
///
/// let view = MembershipView::full(10, NodeId::new(0));
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let targets = UniformSampler::select(&view, 3, &mut rng);
/// assert_eq!(targets.len(), 3);
/// assert!(!targets.contains(&NodeId::new(0)));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformSampler;

/// How many peers [`Targets`] holds without a heap allocation. HEAP's
/// richest nodes draw a fanout of about 30 at the paper's average of 7.
pub const INLINE_TARGETS: usize = 64;

/// The peers drawn by [`UniformSampler::select_into`], in draw order: up to
/// [`INLINE_TARGETS`] inline, more in a vector.
#[derive(Debug, Clone)]
pub struct Targets {
    /// Number of inline peers; unused once `spill` holds the peers.
    len: usize,
    inline: [NodeId; INLINE_TARGETS],
    /// The peers of a draw larger than the inline capacity.
    spill: Vec<NodeId>,
}

impl Targets {
    /// No peers.
    pub fn new() -> Self {
        Targets {
            len: 0,
            inline: [NodeId::new(0); INLINE_TARGETS],
            spill: Vec::new(),
        }
    }

    /// Resets to `count` placeholder peers for a draw to overwrite.
    fn slots(&mut self, count: usize) -> &mut [NodeId] {
        self.spill.clear();
        if count <= INLINE_TARGETS {
            self.len = count;
            &mut self.inline[..count]
        } else {
            self.len = 0;
            self.spill.resize(count, NodeId::new(0));
            &mut self.spill
        }
    }
}

impl Default for Targets {
    fn default() -> Self {
        Self::new()
    }
}

impl From<Vec<NodeId>> for Targets {
    fn from(peers: Vec<NodeId>) -> Self {
        Targets {
            spill: peers,
            ..Targets::new()
        }
    }
}

impl std::ops::Deref for Targets {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl UniformSampler {
    /// Selects up to `fanout` distinct live peers uniformly at random,
    /// never including the view's owner.
    ///
    /// If fewer than `fanout` live peers exist, all of them are returned.
    /// Collects what [`select_into`](Self::select_into) draws.
    pub fn select<R: Rng + ?Sized>(
        view: &MembershipView,
        fanout: usize,
        rng: &mut R,
    ) -> Vec<NodeId> {
        let mut targets = Targets::new();
        Self::select_into(view, fanout, rng, &mut targets);
        targets.to_vec()
    }

    /// [`select`](Self::select) into `out`, replacing its contents, without
    /// touching the heap while at most [`INLINE_TARGETS`] peers are drawn.
    pub fn select_into<R: Rng + ?Sized>(
        view: &MembershipView,
        fanout: usize,
        rng: &mut R,
        out: &mut Targets,
    ) {
        let len = view.live_peer_count();
        if fanout >= len {
            let peers = out.slots(len);
            for (rank, slot) in peers.iter_mut().enumerate() {
                *slot = view.live_peer_at(rank);
            }
            peers.shuffle(rng);
            return;
        }
        // Partial Fisher-Yates: choose `fanout` distinct elements. The peer
        // array is virtual — position `p` reads `view.live_peer_at(p)` until
        // a swap displaces it, and only displaced positions are recorded —
        // so a draw costs O(fanout² + fanout·dead) instead of materialising
        // all n peers. The `gen_range` sequence is exactly the one the
        // materialised loop would issue, keeping seeded runs bit-identical.
        let picked = out.slots(fanout);
        let mut on_stack = [(0u32, NodeId::new(0)); INLINE_TARGETS];
        let mut on_heap = Vec::new();
        let displaced = if fanout <= INLINE_TARGETS {
            &mut on_stack[..fanout]
        } else {
            on_heap.resize(fanout, (0, NodeId::new(0)));
            &mut on_heap[..]
        };
        let read = |displaced: &[(u32, NodeId)], p: usize| {
            displaced
                .iter()
                .rev()
                .find(|&&(q, _)| q as usize == p)
                .map_or_else(|| view.live_peer_at(p), |&(_, id)| id)
        };
        for i in 0..fanout {
            let j = rng.gen_range(i..len);
            picked[i] = read(&displaced[..i], j);
            // `peers.swap(i, j)` would move slot i's value into slot j;
            // slot i itself is never read again (future draws are > i).
            displaced[i] = (j as u32, read(&displaced[..i], i));
        }
    }

    /// Selects up to `fanout` distinct peers from an explicit candidate list,
    /// excluding `exclude`. Used when the candidate set is not a full view
    /// (e.g. partial views).
    pub fn select_from<R: Rng + ?Sized>(
        candidates: &[NodeId],
        exclude: NodeId,
        fanout: usize,
        rng: &mut R,
    ) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|&p| p != exclude)
            .collect();
        peers.dedup();
        if fanout >= peers.len() {
            peers.shuffle(rng);
            return peers;
        }
        let len = peers.len();
        for i in 0..fanout {
            let j = rng.gen_range(i..len);
            peers.swap(i, j);
        }
        peers.truncate(fanout);
        peers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::{HashMap, HashSet};

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn selects_exactly_fanout_distinct_targets() {
        let view = MembershipView::full(50, NodeId::new(0));
        let mut r = rng();
        for _ in 0..100 {
            let sel = UniformSampler::select(&view, 7, &mut r);
            assert_eq!(sel.len(), 7);
            let set: HashSet<_> = sel.iter().collect();
            assert_eq!(set.len(), 7, "targets must be distinct");
            assert!(!sel.contains(&NodeId::new(0)), "never select self");
        }
    }

    #[test]
    fn returns_all_peers_when_fanout_exceeds_population() {
        let view = MembershipView::full(4, NodeId::new(1));
        let sel = UniformSampler::select(&view, 10, &mut rng());
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn never_selects_dead_peers() {
        let mut view = MembershipView::full(20, NodeId::new(0));
        for i in 10..20 {
            view.mark_dead(NodeId::new(i));
        }
        let mut r = rng();
        for _ in 0..200 {
            for id in UniformSampler::select(&view, 5, &mut r) {
                assert!(id.index() < 10, "selected dead peer {id}");
            }
        }
    }

    #[test]
    fn selection_is_approximately_uniform() {
        // Chi-square style sanity check: every peer should be chosen a
        // comparable number of times.
        let view = MembershipView::full(21, NodeId::new(0));
        let mut r = rng();
        let mut counts: HashMap<NodeId, u32> = HashMap::new();
        let rounds = 20_000;
        for _ in 0..rounds {
            for id in UniformSampler::select(&view, 4, &mut r) {
                *counts.entry(id).or_default() += 1;
            }
        }
        let expected = (rounds * 4) as f64 / 20.0;
        for (&id, &c) in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(
                dev < 0.10,
                "peer {id} chosen {c} times, expected ~{expected}"
            );
        }
        assert_eq!(counts.len(), 20);
    }

    /// The original selection: materialise `live_peers()` and partially
    /// Fisher-Yates-shuffle it.
    fn reference<R: Rng>(view: &MembershipView, fanout: usize, rng: &mut R) -> Vec<NodeId> {
        let mut peers = view.live_peers();
        if fanout >= peers.len() {
            peers.shuffle(rng);
            return peers;
        }
        let len = peers.len();
        for i in 0..fanout {
            let j = rng.gen_range(i..len);
            peers.swap(i, j);
        }
        peers.truncate(fanout);
        peers
    }

    /// The lazy virtual-array selection must issue the same RNG draws and
    /// return the same targets as the materialised reference.
    #[test]
    fn lazy_selection_matches_materialised_reference() {
        for seed in 0..20u64 {
            let mut view = MembershipView::full(37, NodeId::new(4));
            let mut kill = SmallRng::seed_from_u64(seed);
            for i in 0..37 {
                if kill.gen_bool(0.2) {
                    view.mark_dead(NodeId::new(i));
                }
            }
            for fanout in [1usize, 3, 7, 20, 50] {
                let mut a = SmallRng::seed_from_u64(seed ^ 0xABCD);
                let mut b = a.clone();
                let lazy = UniformSampler::select(&view, fanout, &mut a);
                let reference = reference(&view, fanout, &mut b);
                assert_eq!(lazy, reference, "seed {seed}, fanout {fanout}");
                // Both must leave the RNG in the same state.
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "rng diverged");
            }
        }
    }

    #[test]
    fn select_into_reuses_its_buffer_past_the_inline_capacity() {
        let view = MembershipView::full(200, NodeId::new(9));
        let mut targets = Targets::new();
        for fanout in [3, INLINE_TARGETS, INLINE_TARGETS + 1, 150, 199, 250, 0, 5] {
            let mut a = rng();
            let mut b = rng();
            UniformSampler::select_into(&view, fanout, &mut a, &mut targets);
            assert_eq!(targets.len(), fanout.min(199), "fanout {fanout}");
            assert_eq!(
                targets.to_vec(),
                reference(&view, fanout, &mut b),
                "fanout {fanout}"
            );
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "rng diverged");
        }
    }

    #[test]
    fn select_from_excludes_and_dedups() {
        let candidates = vec![
            NodeId::new(1),
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(3),
        ];
        let sel = UniformSampler::select_from(&candidates, NodeId::new(2), 10, &mut rng());
        assert!(!sel.contains(&NodeId::new(2)));
        assert!(sel.len() <= 3);
        let sel2 = UniformSampler::select_from(&candidates, NodeId::new(9), 2, &mut rng());
        assert_eq!(sel2.len(), 2);
    }
}
