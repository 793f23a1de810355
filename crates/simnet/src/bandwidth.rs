//! Upload-capacity modelling.
//!
//! The HEAP paper caps every PlanetLab node's *upload* bandwidth at the
//! application level: packets that would exceed the cap are queued and sent
//! as soon as capacity becomes available. [`UploadQueue`] reproduces exactly
//! that mechanism: each outgoing message occupies the uplink for
//! `bytes * 8 / capacity` seconds and messages are serialised FIFO, so a
//! congested node accumulates queueing delay — the effect that cripples
//! standard gossip in heterogeneous settings.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An upload (or download) capacity in bits per second.
///
/// # Examples
///
/// ```
/// use heap_simnet::bandwidth::Bandwidth;
/// let b = Bandwidth::from_kbps(512);
/// assert_eq!(b.as_bps(), 512_000);
/// assert_eq!(Bandwidth::from_mbps(2), Bandwidth::from_kbps(2_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Creates a bandwidth from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// Creates a bandwidth from kilobits per second (1 kbps = 1000 bps, as in
    /// the paper's "512 kbps" class definitions).
    pub const fn from_kbps(kbps: u64) -> Self {
        Bandwidth(kbps * 1_000)
    }

    /// Creates a bandwidth from megabits per second.
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }

    /// The capacity in bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// The capacity in kilobits per second (fractional).
    pub fn as_kbps(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The time needed to push `bytes` bytes through this capacity.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is zero.
    pub fn transmission_time(self, bytes: usize) -> SimDuration {
        // Precondition: no finite time sends a byte at 0 bps (scenarios reject it).
        assert!(self.0 > 0, "cannot transmit over a zero-capacity link");
        let bits = bytes as u64 * 8;
        // micros = bits / bps * 1e6, computed in u128 to avoid overflow.
        let micros = (bits as u128 * 1_000_000u128).div_ceil(self.0 as u128);
        SimDuration::from_micros(micros as u64)
    }

    /// Ratio of this bandwidth to `other`, as used by HEAP's fanout rule
    /// `f_p = f * b_p / b_avg`.
    pub fn ratio(self, other: Bandwidth) -> f64 {
        self.0 as f64 / other.0 as f64
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{}Mbps", self.0 / 1_000_000)
        } else if self.0 >= 1_000 {
            write!(f, "{}kbps", self.0 / 1_000)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

/// Upload capacity of a node: either unlimited (the unconstrained PlanetLab
/// baseline of Fig. 1) or capped at a given bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum UploadCapacity {
    /// No application-level cap.
    #[default]
    Unlimited,
    /// Capped at the given rate.
    Limited(Bandwidth),
}

impl UploadCapacity {
    /// The capped rate, if any.
    pub fn bandwidth(self) -> Option<Bandwidth> {
        match self {
            UploadCapacity::Unlimited => None,
            UploadCapacity::Limited(b) => Some(b),
        }
    }
}

impl From<Bandwidth> for UploadCapacity {
    fn from(b: Bandwidth) -> Self {
        UploadCapacity::Limited(b)
    }
}

impl fmt::Display for UploadCapacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UploadCapacity::Unlimited => write!(f, "unlimited"),
            UploadCapacity::Limited(b) => write!(f, "{b}"),
        }
    }
}

/// The application-level upload rate limiter of a single node.
///
/// Messages are serialised strictly FIFO at the node's capacity. For every
/// enqueued message the queue reports its *departure time* (the instant the
/// last byte leaves the node); the network then adds propagation latency on
/// top. The queue also keeps the counters needed to reproduce the paper's
/// "bandwidth usage by class" figures (Fig. 4).
///
/// # Examples
///
/// ```
/// use heap_simnet::bandwidth::{Bandwidth, UploadQueue};
/// use heap_simnet::time::SimTime;
///
/// // 1000 bytes at 8 kbps takes exactly one second.
/// let mut q = UploadQueue::limited(Bandwidth::from_kbps(8));
/// let dep1 = q.enqueue(SimTime::ZERO, 1000);
/// let dep2 = q.enqueue(SimTime::ZERO, 1000);
/// assert_eq!(dep1, SimTime::from_secs(1));
/// assert_eq!(dep2, SimTime::from_secs(2)); // queued behind the first
/// ```
#[derive(Debug, Clone)]
pub struct UploadQueue {
    capacity: UploadCapacity,
    /// Instant at which the uplink becomes idle again.
    busy_until: SimTime,
    /// Total bytes handed to the queue.
    bytes_enqueued: u64,
    /// Accumulated time the uplink spent transmitting.
    busy_time: SimDuration,
    /// Maximum tolerated backlog: a message arriving while the queue already
    /// holds more than this much transmission work is dropped (a finite
    /// socket/application send buffer). `None` = unbounded queue.
    max_backlog: Option<SimDuration>,
}

impl UploadQueue {
    /// Creates a queue with the given capacity and an unbounded backlog.
    pub fn new(capacity: UploadCapacity) -> Self {
        UploadQueue {
            capacity,
            busy_until: SimTime::ZERO,
            bytes_enqueued: 0,
            busy_time: SimDuration::ZERO,
            max_backlog: None,
        }
    }

    /// Limits the backlog the queue will accept. Messages arriving while the
    /// pending transmission work exceeds `limit` are rejected by
    /// [`UploadQueue::enqueue_if_accepted`] (the simulator counts them as
    /// queue drops), which is how a real, finite application send buffer
    /// behaves.
    pub fn set_max_backlog(&mut self, limit: Option<SimDuration>) {
        self.max_backlog = limit;
    }

    /// The configured backlog limit, if any.
    pub fn max_backlog(&self) -> Option<SimDuration> {
        self.max_backlog
    }

    /// Creates a queue capped at `bandwidth`.
    pub fn limited(bandwidth: Bandwidth) -> Self {
        UploadQueue::new(UploadCapacity::Limited(bandwidth))
    }

    /// Creates an uncapped queue (messages depart immediately).
    pub fn unlimited() -> Self {
        UploadQueue::new(UploadCapacity::Unlimited)
    }

    /// The configured capacity.
    pub fn capacity(&self) -> UploadCapacity {
        self.capacity
    }

    /// The fused backlog check + [`UploadQueue::enqueue`] the simulator's
    /// transmit path runs per message: returns `None` (recording nothing)
    /// when the backlog limit rejects the message, and the departure instant
    /// otherwise. A `scale` multiplies the capacity for this one message —
    /// the hook of the simulator's diurnal bandwidth cycling
    /// ([`crate::fault::FaultPlan::diurnal`]): the backlog check and all
    /// counters behave as without it, only the effective transmission rate
    /// changes (clamped to at least 1 bps so a tiny factor never divides by
    /// zero). Unlimited queues ignore it.
    #[inline]
    pub fn enqueue_if_accepted(
        &mut self,
        now: SimTime,
        bytes: usize,
        scale: Option<f64>,
    ) -> Option<SimTime> {
        if let (UploadCapacity::Limited(_), Some(limit)) = (self.capacity, self.max_backlog) {
            if self.queueing_delay(now) > limit {
                return None;
            }
        }
        let capacity = match (self.capacity, scale) {
            (UploadCapacity::Limited(bw), Some(scale)) => UploadCapacity::Limited(
                Bandwidth::from_bps(((bw.as_bps() as f64) * scale).max(1.0) as u64),
            ),
            (capacity, _) => capacity,
        };
        Some(self.enqueue_at(now, bytes, capacity))
    }

    /// Enqueues a message of `bytes` bytes at `now` and returns the instant
    /// its last byte leaves the node.
    #[inline]
    pub fn enqueue(&mut self, now: SimTime, bytes: usize) -> SimTime {
        let capacity = self.capacity;
        self.enqueue_at(now, bytes, capacity)
    }

    /// The enqueue body with the effective capacity as a parameter, shared by
    /// the nominal and diurnal-scaled enqueues.
    #[inline]
    fn enqueue_at(&mut self, now: SimTime, bytes: usize, capacity: UploadCapacity) -> SimTime {
        self.bytes_enqueued += bytes as u64;
        match capacity {
            UploadCapacity::Unlimited => {
                // No serialisation delay and no queueing.
                now
            }
            UploadCapacity::Limited(bw) => {
                let tx = bw.transmission_time(bytes);
                let start = self.busy_until.max(now);
                let departure = start + tx;
                self.busy_until = departure;
                self.busy_time += tx;
                departure
            }
        }
    }

    /// The backlog that a message enqueued at `now` would experience before
    /// its first byte is transmitted.
    pub fn queueing_delay(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Total bytes handed to the queue so far.
    pub fn bytes_enqueued(&self) -> u64 {
        self.bytes_enqueued
    }

    /// Accumulated transmission (busy) time of the uplink.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// The achieved upload rate over an observation window of `elapsed`,
    /// in bits per second. This is what Fig. 4 reports relative to the cap.
    pub fn achieved_rate_bps(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.bytes_enqueued as f64 * 8.0 / elapsed.as_secs_f64()
        }
    }

    /// Fraction of the configured capacity actually used over `elapsed`.
    /// Returns `None` for unlimited queues.
    pub fn utilization(&self, elapsed: SimDuration) -> Option<f64> {
        match self.capacity {
            UploadCapacity::Unlimited => None,
            UploadCapacity::Limited(bw) => {
                Some(self.achieved_rate_bps(elapsed) / bw.as_bps() as f64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversions() {
        assert_eq!(Bandwidth::from_kbps(600).as_bps(), 600_000);
        assert_eq!(Bandwidth::from_mbps(3).as_kbps(), 3_000.0);
        assert_eq!(Bandwidth::from_bps(256_000).to_string(), "256kbps");
        assert_eq!(Bandwidth::from_mbps(2).to_string(), "2Mbps");
        assert_eq!(Bandwidth::from_bps(999).to_string(), "999bps");
    }

    #[test]
    fn transmission_time_exact() {
        // 1316 bytes at 512 kbps = 10528 bits / 512000 bps = 20.5625 ms
        let t = Bandwidth::from_kbps(512).transmission_time(1316);
        assert_eq!(t.as_micros(), 20_563); // ceil of 20562.5
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_bandwidth_panics() {
        let _ = Bandwidth::from_bps(0).transmission_time(1);
    }

    #[test]
    fn ratio_matches_heap_rule() {
        let rich = Bandwidth::from_mbps(3);
        let avg = Bandwidth::from_kbps(691);
        assert!((rich.ratio(avg) - 4.34).abs() < 0.01);
    }

    #[test]
    fn unlimited_queue_departs_immediately() {
        let mut q = UploadQueue::unlimited();
        let now = SimTime::from_secs(5);
        assert_eq!(q.enqueue(now, 1_000_000), now);
        assert_eq!(q.queueing_delay(now), SimDuration::ZERO);
        assert_eq!(q.utilization(SimDuration::from_secs(1)), None);
        assert_eq!(q.bytes_enqueued(), 1_000_000);
    }

    #[test]
    fn limited_queue_serialises_fifo() {
        let mut q = UploadQueue::limited(Bandwidth::from_kbps(8)); // 1 KB/s
        let d1 = q.enqueue(SimTime::ZERO, 500);
        let d2 = q.enqueue(SimTime::ZERO, 500);
        let d3 = q.enqueue(SimTime::from_millis(1500), 1000);
        assert_eq!(d1, SimTime::from_millis(500));
        assert_eq!(d2, SimTime::from_millis(1000));
        // Third message arrives after the queue drained: starts at 1.5s.
        assert_eq!(d3, SimTime::from_millis(2500));
        assert_eq!(q.bytes_enqueued(), 2000);
        assert_eq!(q.busy_time(), SimDuration::from_millis(2000));
    }

    #[test]
    fn queueing_delay_reflects_backlog() {
        let mut q = UploadQueue::limited(Bandwidth::from_kbps(8));
        q.enqueue(SimTime::ZERO, 2000); // 2 seconds of work
        assert_eq!(q.queueing_delay(SimTime::ZERO), SimDuration::from_secs(2));
        assert_eq!(
            q.queueing_delay(SimTime::from_millis(1500)),
            SimDuration::from_millis(500)
        );
        assert_eq!(q.queueing_delay(SimTime::from_secs(3)), SimDuration::ZERO);
    }

    #[test]
    fn utilization_and_rates() {
        let mut q = UploadQueue::limited(Bandwidth::from_kbps(100));
        // Push 2500 bytes = 20_000 bits over a 2 second window -> 10 kbps.
        q.enqueue(SimTime::ZERO, 2500);
        let elapsed = SimDuration::from_secs(2);
        assert!((q.achieved_rate_bps(elapsed) - 10_000.0).abs() < 1e-9);
        assert!((q.utilization(elapsed).unwrap() - 0.1).abs() < 1e-9);
        assert_eq!(q.achieved_rate_bps(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn scaled_enqueue_changes_only_the_effective_rate() {
        // 8 kbps nominal; a 0.5 factor behaves exactly like a 4 kbps link
        // for this one message, then the nominal rate applies again.
        let mut q = UploadQueue::limited(Bandwidth::from_kbps(8));
        let d1 = q
            .enqueue_if_accepted(SimTime::ZERO, 500, Some(0.5))
            .unwrap();
        assert_eq!(d1, SimTime::from_millis(1000)); // 500 B at 4 kbps
        let d2 = q.enqueue_if_accepted(SimTime::ZERO, 500, None).unwrap();
        assert_eq!(d2, SimTime::from_millis(1500)); // queued, then 8 kbps
        assert_eq!(q.bytes_enqueued(), 1000);
        // A scale of 1.0 is the identity.
        let mut nominal = UploadQueue::limited(Bandwidth::from_kbps(8));
        assert_eq!(
            nominal.enqueue_if_accepted(SimTime::ZERO, 500, Some(1.0)),
            Some(SimTime::from_millis(500))
        );
        // Unlimited queues ignore scaling entirely.
        let mut unlimited = UploadQueue::unlimited();
        assert_eq!(
            unlimited.enqueue_if_accepted(SimTime::from_secs(2), 1000, Some(0.01)),
            Some(SimTime::from_secs(2))
        );
        // The backlog limit applies to the scaled capacity path too.
        let mut bounded = UploadQueue::limited(Bandwidth::from_kbps(8));
        bounded.set_max_backlog(Some(SimDuration::from_millis(500)));
        bounded.enqueue(SimTime::ZERO, 1000); // 1 s of work pending
        assert_eq!(
            bounded.enqueue_if_accepted(SimTime::ZERO, 100, Some(0.5)),
            None
        );
    }

    #[test]
    fn upload_capacity_display_and_from() {
        let c: UploadCapacity = Bandwidth::from_kbps(768).into();
        assert_eq!(c.to_string(), "768kbps");
        assert_eq!(c.bandwidth(), Some(Bandwidth::from_kbps(768)));
        assert_eq!(UploadCapacity::Unlimited.to_string(), "unlimited");
        assert_eq!(UploadCapacity::default().bandwidth(), None);
    }
}
