//! Retransmission bookkeeping (Algorithm 2, "Retransmission" block).
//!
//! The protocols run over an unreliable, UDP-like transport, so a [Request]
//! or its [Serve] answer may be lost. After requesting packets from a
//! proposer, a node arms a retransmission timer; if some of the requested
//! packets are still missing when it fires, the request is re-issued (up to a
//! configurable number of times).
//!
//! [Request]: crate::message::GossipMessage::Request
//! [Serve]: crate::message::GossipMessage::Serve

use heap_simnet::node::NodeId;
use heap_streaming::packet::PacketId;
use std::collections::VecDeque;

/// A pending request whose answer has not been fully received yet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRequest {
    /// The peer the packets were requested from.
    pub proposer: NodeId,
    /// The packet ids that were requested.
    pub ids: Vec<PacketId>,
    /// How many more times the request may be re-issued.
    pub retries_left: u32,
}

/// Tracks outstanding requests keyed by the timer tag armed for them.
///
/// Tags are handed out consecutively from [`RETRANSMIT_TAG_BASE`] and their
/// timers all run for the same period, so requests leave in roughly the
/// order they came. The tracker is therefore a FIFO slab: slot `i` of a
/// deque holds the request registered under tag `front_tag + i`, a taken
/// slot is blanked, and blank slots are popped off the front. `register`
/// is a push, [`take`](Self::take) an index, and the deque spans only the
/// tags between the oldest request still pending and the newest.
///
/// No slot order reaches behaviour: slots are read by tag, and
/// [`forget_proposer`](Self::forget_proposer), the one pass over them,
/// blanks each matching slot independently of the others.
///
/// # Examples
///
/// ```
/// use heap_gossip::retransmit::RetransmitTracker;
/// use heap_simnet::node::NodeId;
/// use heap_streaming::PacketId;
///
/// let mut tracker = RetransmitTracker::new();
/// let tag = tracker.register(NodeId::new(3), vec![PacketId::new(0)], 2);
/// let pending = tracker.take(tag).unwrap();
/// assert_eq!(pending.proposer, NodeId::new(3));
/// assert_eq!(pending.retries_left, 2);
/// assert!(tracker.take(tag).is_none(), "taking twice yields nothing");
/// ```
#[derive(Debug, Clone)]
pub struct RetransmitTracker {
    /// Slot `i` belongs to tag `front_tag + i`. The front slot, if there is
    /// one, is occupied.
    pending: VecDeque<Option<PendingRequest>>,
    /// The tag of the front slot; the next tag to hand out when `pending`
    /// is empty.
    front_tag: u64,
    /// Number of occupied slots.
    live: usize,
}

/// Timer tags below this value are reserved for the node's periodic timers;
/// retransmission tags start here.
pub const RETRANSMIT_TAG_BASE: u64 = 1_000;

impl Default for RetransmitTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl RetransmitTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        RetransmitTracker {
            pending: VecDeque::new(),
            front_tag: RETRANSMIT_TAG_BASE,
            live: 0,
        }
    }

    /// Registers a pending request and returns the timer tag to arm for it.
    pub fn register(&mut self, proposer: NodeId, ids: Vec<PacketId>, retries: u32) -> u64 {
        let tag = self.front_tag + self.pending.len() as u64;
        self.pending.push_back(Some(PendingRequest {
            proposer,
            ids,
            retries_left: retries,
        }));
        self.live += 1;
        tag
    }

    /// Removes and returns the pending request associated with `tag`, if any.
    /// Called when the retransmission timer fires (or, as an optimisation,
    /// when the request has been fully answered).
    pub fn take(&mut self, tag: u64) -> Option<PendingRequest> {
        let at = usize::try_from(tag.checked_sub(self.front_tag)?).ok()?;
        let taken = self.pending.get_mut(at)?.take()?;
        self.live -= 1;
        self.pop_blank_front();
        Some(taken)
    }

    /// Restores the invariant that the front slot is occupied.
    fn pop_blank_front(&mut self) {
        while let Some(None) = self.pending.front() {
            self.pending.pop_front();
            self.front_tag += 1;
        }
    }

    /// Returns `true` if `tag` identifies a retransmission timer (as opposed
    /// to one of the node's periodic timers).
    pub fn is_retransmit_tag(tag: u64) -> bool {
        tag >= RETRANSMIT_TAG_BASE
    }

    /// Number of requests currently awaiting their answer.
    pub fn outstanding(&self) -> usize {
        self.live
    }

    /// Drops every pending request aimed at `proposer` (used when the peer is
    /// detected as failed: re-requesting from it is pointless).
    pub fn forget_proposer(&mut self, proposer: NodeId) -> usize {
        let before = self.live;
        for slot in &mut self.pending {
            if slot.as_ref().is_some_and(|p| p.proposer == proposer) {
                *slot = None;
                self.live -= 1;
            }
        }
        self.pop_blank_front();
        before - self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<PacketId> {
        v.iter().map(|&i| PacketId::new(i)).collect()
    }

    #[test]
    fn register_take_roundtrip() {
        let mut t = RetransmitTracker::new();
        let tag1 = t.register(NodeId::new(1), ids(&[1, 2]), 3);
        let tag2 = t.register(NodeId::new(2), ids(&[3]), 1);
        assert_ne!(tag1, tag2);
        assert!(RetransmitTracker::is_retransmit_tag(tag1));
        assert!(!RetransmitTracker::is_retransmit_tag(5));
        assert_eq!(t.outstanding(), 2);

        let p1 = t.take(tag1).unwrap();
        assert_eq!(p1.proposer, NodeId::new(1));
        assert_eq!(p1.ids, ids(&[1, 2]));
        assert_eq!(p1.retries_left, 3);
        assert_eq!(t.outstanding(), 1);
        assert!(t.take(tag1).is_none());
        assert!(t.take(999_999).is_none());
    }

    #[test]
    fn forget_proposer_drops_its_requests() {
        let mut t = RetransmitTracker::new();
        t.register(NodeId::new(1), ids(&[1]), 1);
        t.register(NodeId::new(1), ids(&[2]), 1);
        let keep = t.register(NodeId::new(2), ids(&[3]), 1);
        assert_eq!(t.forget_proposer(NodeId::new(1)), 2);
        assert_eq!(t.outstanding(), 1);
        assert!(t.take(keep).is_some());
    }

    #[test]
    fn default_is_empty() {
        let mut t = RetransmitTracker::default();
        assert_eq!(t.outstanding(), 0);
        // Not tag 0, which is the gossip timer's.
        let first = t.register(NodeId::new(1), ids(&[1]), 1);
        assert!(RetransmitTracker::is_retransmit_tag(first));
        assert_eq!(
            first,
            RetransmitTracker::new().register(NodeId::new(1), ids(&[1]), 1)
        );
    }

    #[test]
    fn blank_slots_leave_with_the_head() {
        let mut t = RetransmitTracker::new();
        let tags: Vec<u64> = (0..8)
            .map(|i| t.register(NodeId::new(i), ids(&[i as u64]), 1))
            .collect();
        // Middle entries blank their slots but cannot shorten the deque.
        for &tag in &tags[1..6] {
            assert!(t.take(tag).is_some());
        }
        assert_eq!((t.outstanding(), t.pending.len()), (3, 8));
        // Taking the head pops it and every blank behind it.
        assert!(t.take(tags[0]).is_some());
        assert_eq!((t.outstanding(), t.pending.len()), (2, 2));
        assert_eq!(t.front_tag, tags[6]);
        // A popped tag is below the front now and stays unknown.
        assert!(t.take(tags[3]).is_none());
        // `forget_proposer` pops what it blanks at the front too.
        assert_eq!(t.forget_proposer(NodeId::new(6)), 1);
        assert_eq!((t.outstanding(), t.pending.len()), (1, 1));
        assert!(t.take(tags[7]).is_some());
        assert!(t.pending.is_empty());
        assert_eq!(t.register(NodeId::new(0), ids(&[9]), 1), tags[7] + 1);
    }

    #[test]
    fn the_deque_spans_only_the_requests_in_flight() {
        // A node's steady state: every request is taken `IN_FLIGHT`
        // registrations later, now and then out of order.
        const IN_FLIGHT: u64 = 50;
        let mut t = RetransmitTracker::new();
        for i in 0..100_000u64 {
            let tag = t.register(NodeId::new((i % 7) as u32), ids(&[i]), 1);
            if i >= IN_FLIGHT {
                let due = tag - IN_FLIGHT;
                // Every third pair fires in swapped order.
                let swapped = match (due - RETRANSMIT_TAG_BASE) % 6 {
                    0 => due + 1,
                    1 => due - 1,
                    _ => due,
                };
                assert!(t.take(swapped).is_some(), "tag {swapped}");
            }
            assert!(t.pending.len() as u64 <= IN_FLIGHT + 2, "step {i}");
        }
        assert_eq!(t.outstanding() as u64, IN_FLIGHT);
        assert!(t.pending.capacity() <= 128, "{}", t.pending.capacity());
    }

    #[test]
    fn tags_are_unique_across_many_registrations() {
        let mut t = RetransmitTracker::new();
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            let tag = t.register(NodeId::new((i % 7) as u32), ids(&[i]), 1);
            assert!(seen.insert(tag));
        }
        assert_eq!(t.outstanding(), 1000);
    }
}
