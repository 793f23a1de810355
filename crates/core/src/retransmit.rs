//! Retransmission bookkeeping (Algorithm 2, "Retransmission" block).
//!
//! The protocols run over an unreliable, UDP-like transport, so a [Request]
//! or its [Serve] answer may be lost. A node that requests packets from a
//! proposer gives the answer `retransmit_period` to arrive; if some of the
//! requested packets are still missing by then, the request is re-issued (up
//! to a configurable number of times).
//!
//! Every request of a node waits the same period, so the pending requests
//! fall due in the order they were made. The tracker is therefore a FIFO of
//! deadlines, and the node keeps one timer, tagged [`RETRANSMIT_TAG_BASE`],
//! armed at the front's deadline rather than one timer per request. The
//! tracker decides when that timer is armed:
//! - [`push`] returns the instant to arm it at when it is not armed yet;
//! - when it fires, the node pops every request due by then ([`pop_due`]);
//!   requests it re-queues meanwhile arm nothing;
//! - [`rearm`] then drops the answered requests now at the front and returns
//!   the deadline of the first one still waiting, if any.
//!
//! A request answered before its deadline therefore costs an event only if
//! it is still at the front when the timer fires.
//!
//! [Request]: crate::message::GossipMessage::Request
//! [Serve]: crate::message::GossipMessage::Serve
//! [`push`]: RetransmitTracker::push
//! [`pop_due`]: RetransmitTracker::pop_due
//! [`rearm`]: RetransmitTracker::rearm

use crate::packet_ids::PacketIds;
use heap_simnet::node::NodeId;
use heap_simnet::time::SimTime;
use std::collections::VecDeque;

/// A pending request whose answer has not been fully received yet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRequest {
    /// The peer the packets were requested from.
    pub proposer: NodeId,
    /// The packet ids that were requested.
    pub ids: PacketIds,
    /// How many more times the request may be re-issued.
    pub retries_left: u32,
    /// When the request is re-examined if its answer has not arrived.
    pub due: SimTime,
}

/// Outstanding requests in deadline order.
///
/// # Examples
///
/// ```
/// use heap_gossip::retransmit::RetransmitTracker;
/// use heap_simnet::node::NodeId;
/// use heap_simnet::time::SimTime;
/// use heap_streaming::PacketId;
///
/// let mut tracker = RetransmitTracker::new();
/// let (t2, t3) = (SimTime::from_secs(2), SimTime::from_secs(3));
/// // The first request arms the timer; the second waits behind it.
/// assert_eq!(tracker.push(NodeId::new(3), vec![PacketId::new(0)], 2, t2), Some(t2));
/// assert_eq!(tracker.push(NodeId::new(4), vec![PacketId::new(1)], 2, t3), None);
/// // The timer fires at 2 s: one request is due.
/// let pending = tracker.pop_due(t2).unwrap();
/// assert_eq!((pending.proposer, pending.retries_left), (NodeId::new(3), 2));
/// assert!(tracker.pop_due(t2).is_none(), "the other is due at 3 s");
/// // Re-arm for it, unless its answer has arrived meanwhile.
/// assert_eq!(tracker.rearm(|_| false), Some(t3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RetransmitTracker {
    /// Pending requests; `due` is non-decreasing from front to back.
    pending: VecDeque<PendingRequest>,
    /// Whether the node's retransmission timer is armed (or firing). While
    /// `pending` is not empty it is, at or before the front's deadline.
    armed: bool,
}

/// Timer tag of a node's one retransmission timer. Tags below it are the
/// node's periodic timers.
pub const RETRANSMIT_TAG_BASE: u64 = 1_000;

impl RetransmitTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a request to re-examine at `due` and returns `due` if the
    /// retransmission timer must be armed for it, `None` if the timer is
    /// armed already (or firing).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `due` precedes the deadline of the request
    /// queued before it: deadlines must arrive in order.
    pub fn push(
        &mut self,
        proposer: NodeId,
        ids: impl Into<PacketIds>,
        retries: u32,
        due: SimTime,
    ) -> Option<SimTime> {
        debug_assert!(
            self.pending.back().is_none_or(|last| last.due <= due),
            "retransmit deadlines out of order"
        );
        self.pending.push_back(PendingRequest {
            proposer,
            ids: ids.into(),
            retries_left: retries,
            due,
        });
        (!std::mem::replace(&mut self.armed, true)).then_some(due)
    }

    /// Queues a request due with the last one queued (at time zero when the
    /// tracker is empty) and returns the retransmission timer's tag.
    ///
    /// Kept only because `benchmark/` compiles against it; the node queues
    /// through [`push`](Self::push). Removed with ROADMAP item 2(b).
    pub fn register(&mut self, proposer: NodeId, ids: impl Into<PacketIds>, retries: u32) -> u64 {
        let due = self.pending.back().map_or(SimTime::ZERO, |last| last.due);
        let _ = self.push(proposer, ids, retries, due);
        RETRANSMIT_TAG_BASE
    }

    /// Removes and returns the front request if it is due by `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<PendingRequest> {
        if self.pending.front()?.due > now {
            return None;
        }
        self.pending.pop_front()
    }

    /// Ends a firing of the retransmission timer: drops the front requests
    /// for which `answered` holds and returns the deadline of the first one
    /// left, the instant to arm the timer at; `None` leaves it unarmed.
    pub fn rearm(&mut self, mut answered: impl FnMut(&PendingRequest) -> bool) -> Option<SimTime> {
        while let Some(front) = self.pending.front() {
            if !answered(front) {
                self.armed = true;
                return Some(front.due);
            }
            self.pending.pop_front();
        }
        self.armed = false;
        None
    }

    /// Returns `true` if `tag` is the retransmission timer's (as opposed to
    /// one of the node's periodic timers).
    pub fn is_retransmit_tag(tag: u64) -> bool {
        tag == RETRANSMIT_TAG_BASE
    }

    /// Number of requests currently awaiting their answer.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Drops every pending request aimed at `proposer` (used when the peer is
    /// detected as failed: re-requesting from it is pointless).
    pub fn forget_proposer(&mut self, proposer: NodeId) -> usize {
        let before = self.pending.len();
        self.pending.retain(|p| p.proposer != proposer);
        before - self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_streaming::packet::PacketId;

    fn ids(v: &[u64]) -> PacketIds {
        v.iter().map(|&i| PacketId::new(i)).collect()
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn requests_fall_due_in_order() {
        let mut t = RetransmitTracker::new();
        let _ = t.push(NodeId::new(1), ids(&[1, 2]), 3, at(10));
        let _ = t.push(NodeId::new(2), ids(&[3]), 1, at(10));
        let _ = t.push(NodeId::new(3), ids(&[4]), 0, at(20));
        assert_eq!(t.outstanding(), 3);
        assert!(t.pop_due(at(9)).is_none());

        let p1 = t.pop_due(at(15)).unwrap();
        assert_eq!(
            (p1.proposer, p1.ids, p1.retries_left, p1.due),
            (NodeId::new(1), ids(&[1, 2]), 3, at(10))
        );
        assert_eq!(t.pop_due(at(15)).unwrap().proposer, NodeId::new(2));
        assert!(t.pop_due(at(15)).is_none(), "the third is due at 20");
        assert_eq!(t.outstanding(), 1);
    }

    #[test]
    fn rearm_skips_answered_front_requests_only() {
        let mut t = RetransmitTracker::new();
        for (i, due) in [10, 20, 30, 40].into_iter().enumerate() {
            let _ = t.push(NodeId::new(i as u32), ids(&[i as u64]), 1, at(due));
        }
        // Requests 0 and 2 are answered: only 0 is at the front.
        let answered = |p: &PendingRequest| p.ids.iter().all(|id| id.seq().is_multiple_of(2));
        assert_eq!(t.rearm(answered), Some(at(20)));
        assert_eq!(t.outstanding(), 3);
        t.pop_due(at(20)).unwrap();
        assert_eq!(t.rearm(answered), Some(at(40)));
        assert_eq!(t.outstanding(), 1);
        assert_eq!(t.rearm(|_| true), None);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn one_timer_is_armed_at_a_time() {
        let mut t = RetransmitTracker::new();
        assert_eq!(t.push(NodeId::new(1), ids(&[1]), 1, at(10)), Some(at(10)));
        assert_eq!(t.push(NodeId::new(1), ids(&[2]), 1, at(11)), None);
        // Firing at 10 ms: requests re-queued while draining arm nothing.
        let first = t.pop_due(at(10)).unwrap();
        assert_eq!(t.push(first.proposer, first.ids, 0, at(20)), None);
        assert_eq!(t.rearm(|_| false), Some(at(11)));
        // Once a firing leaves nothing pending, the next request arms again.
        t.pop_due(at(11)).unwrap();
        t.pop_due(at(20)).unwrap();
        assert_eq!(t.rearm(|_| false), None);
        assert_eq!(t.push(NodeId::new(2), ids(&[3]), 1, at(30)), Some(at(30)));
        // Forgetting every request leaves the timer armed; its firing finds
        // nothing and leaves it unarmed.
        assert_eq!(t.forget_proposer(NodeId::new(2)), 1);
        assert_eq!(t.push(NodeId::new(3), ids(&[4]), 1, at(31)), None);
        assert_eq!(t.forget_proposer(NodeId::new(3)), 1);
        assert!(t.pop_due(at(30)).is_none());
        assert_eq!(t.rearm(|_| false), None);
    }

    #[test]
    fn forget_proposer_drops_its_requests() {
        let mut t = RetransmitTracker::new();
        let _ = t.push(NodeId::new(1), ids(&[1]), 1, at(1));
        let _ = t.push(NodeId::new(2), ids(&[3]), 1, at(2));
        let _ = t.push(NodeId::new(1), ids(&[2]), 1, at(3));
        assert_eq!(t.forget_proposer(NodeId::new(1)), 2);
        assert_eq!(t.outstanding(), 1);
        assert_eq!(t.pop_due(at(5)).unwrap().proposer, NodeId::new(2));
    }

    #[test]
    fn one_tag_for_every_request() {
        let mut t = RetransmitTracker::default();
        assert_eq!(t.outstanding(), 0);
        let first = t.register(NodeId::new(1), ids(&[1]), 1);
        let second = t.register(NodeId::new(2), ids(&[2]), 1);
        assert_eq!((first, second), (RETRANSMIT_TAG_BASE, RETRANSMIT_TAG_BASE));
        assert!(RetransmitTracker::is_retransmit_tag(first));
        // Not tag 0, which is the gossip timer's.
        assert!(!RetransmitTracker::is_retransmit_tag(0));
        assert_eq!(t.outstanding(), 2);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    #[cfg(debug_assertions)]
    fn deadlines_must_not_go_backwards() {
        let mut t = RetransmitTracker::new();
        let _ = t.push(NodeId::new(1), ids(&[1]), 1, at(10));
        let _ = t.push(NodeId::new(1), ids(&[2]), 1, at(9));
    }
}
