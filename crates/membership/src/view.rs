//! Full membership view.

use heap_simnet::node::NodeId;
use heap_simnet::time::SimTime;
use serde::{Deserialize, Serialize};

/// One node this peer believes dead, and when it noticed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct DeadEntry {
    id: u32,
    noticed: SimTime,
}

/// A full membership view: the set of nodes a peer believes to be alive.
///
/// The paper's deployment assumes every node knows the full node list (system
/// size is an input to the fanout rule `f = ln(n) + c`), and learns about
/// failures with a configurable delay (≈10 s in §3.6). The view therefore
/// distinguishes between nodes that *are* dead and nodes that this peer
/// *knows* to be dead.
///
/// # Representation
///
/// Every node holds one of these, so its footprint multiplies by *n²* across
/// a run. The view is therefore stored sparsely: the dense "all alive" bulk
/// is implicit in `n`, and only the (typically few) nodes believed dead are
/// recorded, sorted by id. A fresh view of a million nodes costs a few dozen
/// bytes instead of ~17 MB, and membership queries stay cheap: liveness is a
/// binary search over the dead list, and ordered access to live peers is a
/// merge against it ([`MembershipView::live_peer_at`]).
///
/// # Examples
///
/// ```
/// use heap_membership::view::MembershipView;
/// use heap_simnet::node::NodeId;
///
/// let mut view = MembershipView::full(5, NodeId::new(0));
/// assert_eq!(view.live_peers().len(), 4); // everyone but self
/// view.mark_dead(NodeId::new(3));
/// assert_eq!(view.live_peers().len(), 3);
/// assert!(!view.is_live(NodeId::new(3)));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MembershipView {
    owner: NodeId,
    /// Total number of nodes in the system; ids `0..n` exist.
    n: u32,
    /// Nodes this peer believes dead, sorted by id. Everyone else is alive.
    dead: Vec<DeadEntry>,
}

impl MembershipView {
    /// Creates a view owned by `owner` containing all `n` nodes, all believed
    /// alive.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is not within `0..n`.
    pub fn full(n: usize, owner: NodeId) -> Self {
        // Precondition: the owner is excluded from its own peer set by index.
        assert!(owner.index() < n, "owner must be one of the n nodes");
        MembershipView {
            owner,
            n: n as u32,
            dead: Vec::new(),
        }
    }

    /// The node owning this view.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Total number of nodes in the system (alive or not).
    pub fn system_size(&self) -> usize {
        self.n as usize
    }

    /// Index of `id` in the sorted dead list, if this peer believes it dead.
    fn dead_slot(&self, id: NodeId) -> Result<usize, usize> {
        self.dead
            .binary_search_by_key(&(id.index() as u32), |e| e.id)
    }

    /// Whether this peer believes `id` to be alive.
    pub fn is_live(&self, id: NodeId) -> bool {
        id.index() < self.n as usize && self.dead_slot(id).is_err()
    }

    /// Marks `id` as dead in this peer's view. Returns `true` if the belief
    /// changed.
    pub fn mark_dead(&mut self, id: NodeId) -> bool {
        self.mark_dead_at(id, SimTime::ZERO)
    }

    /// Marks `id` as dead, recording when this peer noticed.
    pub fn mark_dead_at(&mut self, id: NodeId, noticed: SimTime) -> bool {
        if id.index() >= self.n as usize {
            return false;
        }
        match self.dead_slot(id) {
            Ok(_) => false,
            Err(slot) => {
                self.dead.insert(
                    slot,
                    DeadEntry {
                        id: id.index() as u32,
                        noticed,
                    },
                );
                true
            }
        }
    }

    /// Marks `id` as alive again (a re-join).
    pub fn mark_alive(&mut self, id: NodeId) {
        if let Ok(slot) = self.dead_slot(id) {
            self.dead.remove(slot);
        }
    }

    /// When this peer noticed `id`'s death, if it did.
    pub fn death_noticed_at(&self, id: NodeId) -> Option<SimTime> {
        self.dead_slot(id).ok().map(|slot| self.dead[slot].noticed)
    }

    /// Nodes this peer believes alive, excluding itself. This is the
    /// candidate set for `selectNodes(f)`.
    ///
    /// Allocates a vector proportional to the system size; at large scales
    /// prefer the lazy pair [`live_peer_count`](Self::live_peer_count) /
    /// [`live_peer_at`](Self::live_peer_at), which answer the same queries
    /// without materialising the set.
    pub fn live_peers(&self) -> Vec<NodeId> {
        let mut peers = Vec::with_capacity(self.live_peer_count());
        let mut dead = self.dead.iter().peekable();
        for id in 0..self.n {
            if dead.peek().is_some_and(|e| e.id == id) {
                dead.next();
                continue;
            }
            if id == self.owner.index() as u32 {
                continue;
            }
            peers.push(NodeId::new(id));
        }
        peers
    }

    /// Number of nodes believed alive (including the owner).
    pub fn live_count(&self) -> usize {
        self.n as usize - self.dead.len()
    }

    /// Number of live peers: nodes believed alive, excluding the owner.
    /// Equals `live_peers().len()` without building the vector.
    pub fn live_peer_count(&self) -> usize {
        self.live_count() - usize::from(self.is_live(self.owner))
    }

    /// The `rank`-th live peer in ascending id order — `live_peers()[rank]`
    /// without materialising the set. Costs one merge over the (short) dead
    /// list instead of an O(n) allocation.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= live_peer_count()`.
    pub fn live_peer_at(&self, rank: usize) -> NodeId {
        // Precondition: past the last live peer there is no answer to give.
        assert!(
            rank < self.live_peer_count(),
            "rank {rank} out of range for {} live peers",
            self.live_peer_count()
        );
        // Rank-select over the implicit ascending id space: every exception
        // (a dead node, or the owner) at or below the candidate shifts it up
        // by one. Exceptions are visited in ascending order, merging the
        // owner into the sorted dead list and deduplicating a dead owner.
        let owner = self.owner.index() as u32;
        let mut candidate = rank as u32;
        let mut owner_pending = true;
        for e in &self.dead {
            if owner_pending && owner < e.id {
                if owner <= candidate {
                    candidate += 1;
                    owner_pending = false;
                } else {
                    return NodeId::new(candidate);
                }
            }
            if e.id == owner {
                owner_pending = false;
            }
            if e.id <= candidate {
                candidate += 1;
            } else {
                return NodeId::new(candidate);
            }
        }
        if owner_pending && owner <= candidate {
            candidate += 1;
        }
        NodeId::new(candidate)
    }

    /// Resident heap bytes held by this view (beyond `size_of::<Self>()`):
    /// the dead-list allocation. Feeds the per-node memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.dead.capacity() * std::mem::size_of::<DeadEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_view_excludes_self_from_peers() {
        let view = MembershipView::full(4, NodeId::new(2));
        let peers = view.live_peers();
        assert_eq!(peers.len(), 3);
        assert!(!peers.contains(&NodeId::new(2)));
        assert_eq!(view.owner(), NodeId::new(2));
        assert_eq!(view.system_size(), 4);
        assert_eq!(view.live_count(), 4);
    }

    #[test]
    #[should_panic(expected = "owner must be one of the n nodes")]
    fn owner_out_of_range_panics() {
        let _ = MembershipView::full(3, NodeId::new(3));
    }

    #[test]
    fn mark_dead_and_alive_roundtrip() {
        let mut view = MembershipView::full(3, NodeId::new(0));
        assert!(view.mark_dead_at(NodeId::new(1), SimTime::from_secs(70)));
        assert!(!view.mark_dead(NodeId::new(1)), "second mark is a no-op");
        assert!(!view.is_live(NodeId::new(1)));
        assert_eq!(
            view.death_noticed_at(NodeId::new(1)),
            Some(SimTime::from_secs(70))
        );
        assert_eq!(view.live_count(), 2);
        view.mark_alive(NodeId::new(1));
        assert!(view.is_live(NodeId::new(1)));
        assert_eq!(view.death_noticed_at(NodeId::new(1)), None);
    }

    #[test]
    fn out_of_range_queries_are_safe() {
        let mut view = MembershipView::full(2, NodeId::new(0));
        assert!(!view.is_live(NodeId::new(10)));
        assert!(!view.mark_dead(NodeId::new(10)));
        assert_eq!(view.death_noticed_at(NodeId::new(10)), None);
        view.mark_alive(NodeId::new(10)); // no-op, no panic
    }

    /// The lazy accessors agree with the materialised peer list under every
    /// combination of dead peers and owner liveness, including a dead owner.
    #[test]
    fn lazy_rank_select_matches_live_peers() {
        for owner in [0u32, 3, 7] {
            let mut view = MembershipView::full(8, NodeId::new(owner));
            for round in 0..4 {
                let peers = view.live_peers();
                assert_eq!(view.live_peer_count(), peers.len());
                for (rank, &peer) in peers.iter().enumerate() {
                    assert_eq!(
                        view.live_peer_at(rank),
                        peer,
                        "owner {owner}, round {round}, rank {rank}"
                    );
                }
                // Kill a different id each round; round 2 kills the owner.
                let victim = if round == 2 {
                    NodeId::new(owner)
                } else {
                    NodeId::new((owner + 5 + round) % 8)
                };
                view.mark_dead_at(victim, SimTime::from_secs(u64::from(round)));
            }
        }
    }

    #[test]
    fn sparse_view_is_small_at_scale() {
        let view = MembershipView::full(1_000_000, NodeId::new(17));
        assert_eq!(view.heap_bytes(), 0, "a fresh view holds no heap memory");
        assert_eq!(view.live_peer_count(), 999_999);
        assert_eq!(view.live_peer_at(0), NodeId::new(0));
        assert_eq!(view.live_peer_at(17), NodeId::new(18));
        assert_eq!(view.live_peer_at(999_998), NodeId::new(999_999));
    }
}
