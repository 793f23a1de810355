//! Per-node stream-quality metrics.
//!
//! All metrics are derived offline from a node's [`ReceiverLog`] and the
//! source's [`StreamSchedule`], mirroring how the paper's PlanetLab logs were
//! post-processed. Per-window metrics are anchored at the instant the last
//! packet of the window is published by the source (the earliest time the
//! window is even complete at the source); per-packet metrics are anchored at
//! each packet's own publication time.
//!
//! [`NodeStreamMetrics`] (full detail) keeps the log's 4-byte arrival column
//! and one decode lag per window, and derives every per-packet and
//! per-window-source lag inside the query that needs it.
//! [`CompactNodeMetrics`] keeps the decode lags and a few aggregates read
//! from that column once.

use crate::packet::{PacketId, WindowId};
use crate::receiver::{Arrivals, ReceiverLog};
use crate::source::StreamSchedule;
use heap_simnet::time::{SimDuration, SimTime};

/// When packet `seq` of the stream is published.
fn publish_time(schedule: &StreamSchedule, seq: u64) -> SimTime {
    schedule
        .publish_time(PacketId::new(seq))
        .expect("sequence bounded by total_packets")
}

/// The smallest lag at which at most `max_jitter` of the windows are
/// jittered, given every window's decode lag: shared by both metric forms.
fn lag_for_jitter_free(
    max_jitter: f64,
    decode_lags: &[Option<SimDuration>],
) -> Option<SimDuration> {
    let total = decode_lags.len();
    // `as usize` saturates: NaN and negative values allow 0 windows, +inf
    // allows them all.
    let allowed = (max_jitter * total as f64).floor() as usize;
    let needed = total.saturating_sub(allowed);
    if needed == 0 {
        return Some(SimDuration::ZERO);
    }
    let mut finite: Vec<SimDuration> = decode_lags.iter().flatten().copied().collect();
    if finite.len() < needed {
        return None;
    }
    Some(*finite.select_nth_unstable(needed - 1).1)
}

/// Stream-quality metrics of a single node.
///
/// Holds the schedule, the log's arrival column sized to
/// `schedule.total_packets()` (4 bytes per packet, the encoding of
/// [`ReceiverLog`]; [`NodeStreamMetrics::from_log`] takes it over,
/// [`NodeStreamMetrics::compute`] copies it), the decode lag of every window
/// (16 bytes per window) and the clock-anomaly count. Per-packet lags
/// (arrival minus the packet's publication, clamped at zero) and per-window
/// source lags (arrival minus the window's publication completion, clamped
/// at zero) are derived from the column by the queries that read them.
///
/// # Examples
///
/// ```
/// use heap_streaming::{NodeStreamMetrics, ReceiverLog, StreamConfig, StreamSchedule, PacketId};
/// use heap_simnet::time::{SimDuration, SimTime};
///
/// let schedule = StreamSchedule::new(StreamConfig::small(2), SimTime::ZERO);
/// let mut log = ReceiverLog::for_schedule(&schedule);
/// // Deliver every packet 100 ms after publication.
/// for p in schedule.iter() {
///     log.record(p.id, p.published_at + SimDuration::from_millis(100));
/// }
/// let m = NodeStreamMetrics::compute(&schedule, &log);
/// assert_eq!(m.jitter_free_fraction(SimDuration::from_secs(1)), 1.0);
/// assert!(m.lag_for_full_delivery(0.99).unwrap() <= SimDuration::from_millis(100));
/// ```
#[derive(Debug, Clone)]
pub struct NodeStreamMetrics {
    schedule: StreamSchedule,
    /// The log's arrivals of packets `0..schedule.total_packets()`: a log
    /// shorter than the schedule reads as not received past its end, a
    /// longer one is cut at the end of the stream.
    arrivals: Arrivals,
    /// Decode lag of every window: time from the window's publication
    /// completion until its `decode_threshold`-th packet arrived
    /// (`None` = never became decodable).
    window_decode_lags: Vec<Option<SimDuration>>,
    /// Packets whose recorded arrival *preceded* their own publication — a
    /// determinism/ordering bug upstream if it ever happens. The per-packet
    /// lag is clamped to zero in that case, but the clamp is counted here
    /// (and asserted zero in the simulator-driven tests) instead of silently
    /// masking bad data. Window-relative lags (measured from the window's
    /// publication *completion*) legitimately clamp: packets relayed before
    /// the window completes count as lag 0 by design, and are not counted.
    clock_anomalies: u64,
}

impl NodeStreamMetrics {
    /// Computes the metrics of one node from its receive log, copying the
    /// log's arrival column.
    pub fn compute(schedule: &StreamSchedule, log: &ReceiverLog) -> Self {
        let arrivals = log.arrivals().resized(schedule.total_packets() as usize);
        Self::from_arrivals(schedule, arrivals)
    }

    /// [`NodeStreamMetrics::compute`] that consumes the log: its arrival
    /// column becomes the metrics' own when it holds exactly
    /// `schedule.total_packets()` packets (the log of a node built for the
    /// schedule), and is resized as `compute` resizes it otherwise. Every
    /// query answers as on `compute`'s result.
    pub fn from_log(schedule: &StreamSchedule, log: ReceiverLog) -> Self {
        let arrivals = log
            .into_arrivals()
            .into_resized(schedule.total_packets() as usize);
        Self::from_arrivals(schedule, arrivals)
    }

    /// The metrics over `arrivals`, which hold exactly the schedule's
    /// packets.
    fn from_arrivals(schedule: &StreamSchedule, arrivals: Arrivals) -> Self {
        let params = schedule.config().window;
        let per_window = params.total_packets() as u64;
        let threshold = params.decode_threshold();
        debug_assert_eq!(arrivals.len() as u64, schedule.total_packets());

        // A window's decode lag is the `threshold`-th smallest of its
        // arrivals' lags after the window's publication completion. The lag
        // (clamped at zero: packets relayed before the window is complete
        // count as lag 0) grows with the arrival, so it is the lag of the
        // `threshold`-th earliest arrival.
        let mut window: Vec<SimTime> = Vec::with_capacity(per_window as usize);
        let window_decode_lags = (0..schedule.total_windows())
            .map(|w| {
                let publish = schedule
                    .window_publish_time(WindowId::new(w))
                    .expect("window index bounded by total_windows");
                window.clear();
                window.extend(
                    arrivals
                        .received_in(w * per_window..(w + 1) * per_window)
                        .map(|(_, at)| at),
                );
                (window.len() >= threshold).then(|| {
                    window
                        .select_nth_unstable(threshold - 1)
                        .1
                        .saturating_since(publish)
                })
            })
            .collect();

        let clock_anomalies = arrivals
            .received()
            .filter(|&(seq, at)| at < publish_time(schedule, seq))
            .count() as u64;

        NodeStreamMetrics {
            schedule: *schedule,
            arrivals,
            window_decode_lags,
            clock_anomalies,
        }
    }

    /// The source packets of `window` that arrived within `lag` of the
    /// window's publication completion, or `None` past the last window.
    fn source_arrived_within(&self, window: WindowId, lag: SimDuration) -> Option<usize> {
        let publish = self.schedule.window_publish_time(window)?;
        let params = self.schedule.config().window;
        let first = window.index() * params.total_packets() as u64;
        let got = self
            .arrivals
            .received_in(first..first + params.data_packets as u64)
            .filter(|&(_, at)| at.saturating_since(publish) <= lag)
            .count();
        Some(got)
    }

    /// Resident heap bytes: 4 per stream packet for the arrival column (plus
    /// its spill list, empty unless an arrival is 71.6 simulated minutes or
    /// later) and 16 per window for the decode lags.
    pub fn heap_bytes(&self) -> usize {
        self.arrivals.heap_bytes()
            + self.window_decode_lags.capacity() * std::mem::size_of::<Option<SimDuration>>()
    }

    /// Packets whose recorded arrival preceded their own publication (their
    /// per-packet lag was clamped to zero). Always 0 in a consistent
    /// simulation; exposed so tests and the health layer can assert it.
    pub fn clock_anomalies(&self) -> u64 {
        self.clock_anomalies
    }

    /// Number of windows in the stream.
    pub fn n_windows(&self) -> usize {
        self.window_decode_lags.len()
    }

    /// The decode lag of a window: how long after the window was fully
    /// published this node had enough packets to decode it.
    pub fn window_decode_lag(&self, window: WindowId) -> Option<SimDuration> {
        self.window_decode_lags
            .get(window.index() as usize)
            .copied()
            .flatten()
    }

    /// Whether `window` is decodable (jitter-free) when viewed with the given
    /// stream lag.
    pub fn window_jitter_free(&self, window: WindowId, lag: SimDuration) -> bool {
        matches!(self.window_decode_lag(window), Some(l) if l <= lag)
    }

    /// Fraction of windows that are jitter-free at the given stream lag.
    pub fn jitter_free_fraction(&self, lag: SimDuration) -> f64 {
        if self.window_decode_lags.is_empty() {
            return 0.0;
        }
        let ok = self
            .window_decode_lags
            .iter()
            .filter(|l| matches!(l, Some(l) if *l <= lag))
            .count();
        ok as f64 / self.window_decode_lags.len() as f64
    }

    /// Fraction of windows that are jittered (not decodable) at the given
    /// stream lag — the x-axis of Fig. 7.
    pub fn jitter_fraction(&self, lag: SimDuration) -> f64 {
        1.0 - self.jitter_free_fraction(lag)
    }

    /// Fraction of windows that eventually become decodable regardless of lag
    /// ("offline viewing" in Fig. 7).
    pub fn offline_jitter_free_fraction(&self) -> f64 {
        if self.window_decode_lags.is_empty() {
            return 0.0;
        }
        let ok = self
            .window_decode_lags
            .iter()
            .filter(|l| l.is_some())
            .count();
        ok as f64 / self.window_decode_lags.len() as f64
    }

    /// The smallest stream lag at which at most `max_jitter` (a fraction in
    /// `[0, 1]`) of the windows are jittered, or `None` if even offline
    /// viewing cannot achieve it.
    ///
    /// `max_jitter = 0.0` asks for a completely jitter-free stream (Fig. 8 and
    /// 9's "no jitter" curves); `0.01` reproduces the "max 1 % jitter" curves.
    /// NaN and negative values behave as `0.0`; values of `1.0` or more allow
    /// every window to be jittered and return `Some(SimDuration::ZERO)`.
    pub fn lag_for_jitter_free(&self, max_jitter: f64) -> Option<SimDuration> {
        lag_for_jitter_free(max_jitter, &self.window_decode_lags)
    }

    /// The smallest stream lag at which at least `ratio` of all stream
    /// packets have arrived (Fig. 1–3 plot the CDF over nodes of this value
    /// for `ratio = 0.99`), or `None` if the node never received that much.
    pub fn lag_for_full_delivery(&self, ratio: f64) -> Option<SimDuration> {
        let total = self.arrivals.len();
        if total == 0 {
            return Some(SimDuration::ZERO);
        }
        let needed = (ratio * total as f64).ceil() as usize;
        if needed == 0 {
            return Some(SimDuration::ZERO);
        }
        let mut finite: Vec<SimDuration> = self.received_packet_lags().collect();
        if finite.len() < needed {
            return None;
        }
        Some(*finite.select_nth_unstable(needed - 1).1)
    }

    /// Overall fraction of stream packets this node eventually received.
    pub fn delivery_ratio(&self) -> f64 {
        if self.arrivals.len() == 0 {
            return 0.0;
        }
        self.arrivals.received_count() as f64 / self.arrivals.len() as f64
    }

    /// Delivery ratio of *source* packets inside a window at the given lag:
    /// how much of the window is still viewable verbatim even if it cannot be
    /// FEC-decoded (systematic coding, Table 2).
    pub fn window_source_delivery_ratio(&self, window: WindowId, lag: SimDuration) -> f64 {
        match self.source_arrived_within(window, lag) {
            None => 0.0,
            Some(got) => got as f64 / self.schedule.config().window.data_packets as f64,
        }
    }

    /// Mean source-packet delivery ratio over the windows that are *jittered*
    /// at the given lag (Table 2). Returns `None` when no window is jittered.
    pub fn jittered_window_delivery_ratio(&self, lag: SimDuration) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for w in 0..self.window_decode_lags.len() {
            let window = WindowId::new(w as u64);
            if !self.window_jitter_free(window, lag) {
                sum += self.window_source_delivery_ratio(window, lag);
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    }

    /// Per-window decodability at the given lag, indexed by window — the raw
    /// series behind Fig. 10.
    pub fn windows_decodable_at(&self, lag: SimDuration) -> Vec<bool> {
        (0..self.window_decode_lags.len())
            .map(|w| self.window_jitter_free(WindowId::new(w as u64), lag))
            .collect()
    }

    /// The number of packets required to decode a window.
    pub fn decode_threshold(&self) -> usize {
        self.schedule.config().window.decode_threshold()
    }

    /// Mean arrival lag of received packets (diagnostic; not a paper metric).
    pub fn mean_packet_lag(&self) -> Option<SimDuration> {
        let (count, total_micros) = self
            .received_packet_lags()
            .fold((0u64, 0u64), |(n, sum), lag| (n + 1, sum + lag.as_micros()));
        (count > 0).then(|| SimDuration::from_micros(total_micros / count))
    }

    /// Arrival lags of the packets that were received, in sequence order:
    /// each arrival minus the packet's own publication, clamped at zero.
    /// Lets a collector fold the per-packet distribution into a streaming
    /// aggregate before dropping the full metrics.
    pub fn received_packet_lags(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.arrivals
            .received()
            .map(|(seq, at)| at.saturating_since(publish_time(&self.schedule, seq)))
    }
}

/// The delivery ratio retained by [`CompactNodeMetrics`] for
/// [`lag_for_full_delivery`](CompactNodeMetrics::lag_for_full_delivery):
/// the 99 % threshold of the paper's Figs. 1–3.
pub const COMPACT_DELIVERY_RATIO: f64 = 0.99;

/// The viewing lag at which [`CompactNodeMetrics`] retains per-window
/// source-packet delivery (the 10 s stream lag of Table 2).
pub const COMPACT_VIEW_LAG: SimDuration = SimDuration::from_secs(10);

/// Slimmed per-node metrics for large-scale campaigns.
///
/// [`NodeStreamMetrics`] keeps a whole-run arrival column per node (4 bytes
/// per stream packet), which multiplies to gigabytes once a run holds
/// 10⁵–10⁶ receivers of a long stream. This type is computed from the full
/// metrics while the node is being collected and then replaces them: it
/// keeps only the per-window decode lags (one entry per window, the basis of
/// every jitter query) plus per-window source counts and a handful of scalar
/// aggregates read from the column once, so its footprint is `O(n_windows)`
/// instead of `O(total_packets)`.
///
/// Every query it answers is **bit-identical** to the full metrics. Queries
/// whose exact answer requires the dropped column are only retained at the
/// arguments the reproduced figures actually use — delivery lag at the
/// [`COMPACT_DELIVERY_RATIO`] and source delivery at the
/// [`COMPACT_VIEW_LAG`] — and panic for any other argument rather than
/// silently approximating.
#[derive(Debug, Clone)]
pub struct CompactNodeMetrics {
    /// Decode lag of every window (`None` = never decodable) — kept verbatim
    /// from the full metrics; every window/jitter query derives from it.
    window_decode_lags: Vec<Option<SimDuration>>,
    /// Per window, how many *source* packets arrived within
    /// [`COMPACT_VIEW_LAG`] of the window's publication completion.
    source_within_view_lag: Vec<u32>,
    packets_total: u64,
    packets_received: u64,
    /// `lag_for_full_delivery(COMPACT_DELIVERY_RATIO)` of the full metrics.
    lag_full_delivery: Option<SimDuration>,
    mean_packet_lag: Option<SimDuration>,
    clock_anomalies: u64,
    data_packets_per_window: usize,
    decode_threshold: usize,
}

impl CompactNodeMetrics {
    /// Collapses full metrics into the compact form. The full metrics can be
    /// dropped afterwards; every retained query answers identically.
    pub fn from_full(full: &NodeStreamMetrics) -> Self {
        CompactNodeMetrics {
            window_decode_lags: full.window_decode_lags.clone(),
            source_within_view_lag: (0..full.schedule.total_windows())
                .map(|w| {
                    full.source_arrived_within(WindowId::new(w), COMPACT_VIEW_LAG)
                        .expect("window index bounded by total_windows") as u32
                })
                .collect(),
            packets_total: full.arrivals.len() as u64,
            packets_received: full.arrivals.received_count() as u64,
            lag_full_delivery: full.lag_for_full_delivery(COMPACT_DELIVERY_RATIO),
            mean_packet_lag: full.mean_packet_lag(),
            clock_anomalies: full.clock_anomalies,
            data_packets_per_window: full.schedule.config().window.data_packets,
            decode_threshold: full.decode_threshold(),
        }
    }

    /// See [`NodeStreamMetrics::clock_anomalies`].
    pub fn clock_anomalies(&self) -> u64 {
        self.clock_anomalies
    }

    /// See [`NodeStreamMetrics::n_windows`].
    pub fn n_windows(&self) -> usize {
        self.window_decode_lags.len()
    }

    /// See [`NodeStreamMetrics::window_decode_lag`].
    pub fn window_decode_lag(&self, window: WindowId) -> Option<SimDuration> {
        self.window_decode_lags
            .get(window.index() as usize)
            .copied()
            .flatten()
    }

    /// See [`NodeStreamMetrics::window_jitter_free`].
    pub fn window_jitter_free(&self, window: WindowId, lag: SimDuration) -> bool {
        matches!(self.window_decode_lag(window), Some(l) if l <= lag)
    }

    /// See [`NodeStreamMetrics::jitter_free_fraction`].
    pub fn jitter_free_fraction(&self, lag: SimDuration) -> f64 {
        if self.window_decode_lags.is_empty() {
            return 0.0;
        }
        let ok = self
            .window_decode_lags
            .iter()
            .filter(|l| matches!(l, Some(l) if *l <= lag))
            .count();
        ok as f64 / self.window_decode_lags.len() as f64
    }

    /// See [`NodeStreamMetrics::jitter_fraction`].
    pub fn jitter_fraction(&self, lag: SimDuration) -> f64 {
        1.0 - self.jitter_free_fraction(lag)
    }

    /// See [`NodeStreamMetrics::offline_jitter_free_fraction`].
    pub fn offline_jitter_free_fraction(&self) -> f64 {
        if self.window_decode_lags.is_empty() {
            return 0.0;
        }
        let ok = self
            .window_decode_lags
            .iter()
            .filter(|l| l.is_some())
            .count();
        ok as f64 / self.window_decode_lags.len() as f64
    }

    /// See [`NodeStreamMetrics::lag_for_jitter_free`].
    pub fn lag_for_jitter_free(&self, max_jitter: f64) -> Option<SimDuration> {
        lag_for_jitter_free(max_jitter, &self.window_decode_lags)
    }

    /// See [`NodeStreamMetrics::lag_for_full_delivery`]. Only the
    /// [`COMPACT_DELIVERY_RATIO`] is retained.
    ///
    /// # Panics
    ///
    /// Panics for any other ratio: the per-packet lag vector needed to
    /// answer it exactly was dropped.
    pub fn lag_for_full_delivery(&self, ratio: f64) -> Option<SimDuration> {
        assert!(
            (ratio - COMPACT_DELIVERY_RATIO).abs() < 1e-12,
            "compact metrics retain delivery lag only at ratio \
             {COMPACT_DELIVERY_RATIO}; rerun with full result detail for ratio {ratio}"
        );
        if self.packets_total == 0 {
            return Some(SimDuration::ZERO);
        }
        self.lag_full_delivery
    }

    /// See [`NodeStreamMetrics::delivery_ratio`].
    pub fn delivery_ratio(&self) -> f64 {
        if self.packets_total == 0 {
            return 0.0;
        }
        self.packets_received as f64 / self.packets_total as f64
    }

    /// See [`NodeStreamMetrics::window_source_delivery_ratio`]. Only the
    /// [`COMPACT_VIEW_LAG`] is retained.
    ///
    /// # Panics
    ///
    /// Panics for any other lag.
    pub fn window_source_delivery_ratio(&self, window: WindowId, lag: SimDuration) -> f64 {
        assert_eq!(
            lag, COMPACT_VIEW_LAG,
            "compact metrics retain source delivery only at the \
             {COMPACT_VIEW_LAG} viewing lag; rerun with full result detail"
        );
        match self.source_within_view_lag.get(window.index() as usize) {
            None => 0.0,
            Some(&got) => got as f64 / self.data_packets_per_window as f64,
        }
    }

    /// See [`NodeStreamMetrics::jittered_window_delivery_ratio`]. Only the
    /// [`COMPACT_VIEW_LAG`] is retained.
    ///
    /// # Panics
    ///
    /// Panics for any other lag.
    pub fn jittered_window_delivery_ratio(&self, lag: SimDuration) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for w in 0..self.window_decode_lags.len() {
            let window = WindowId::new(w as u64);
            if !self.window_jitter_free(window, lag) {
                sum += self.window_source_delivery_ratio(window, lag);
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    }

    /// See [`NodeStreamMetrics::windows_decodable_at`].
    pub fn windows_decodable_at(&self, lag: SimDuration) -> Vec<bool> {
        (0..self.window_decode_lags.len())
            .map(|w| self.window_jitter_free(WindowId::new(w as u64), lag))
            .collect()
    }

    /// See [`NodeStreamMetrics::decode_threshold`].
    pub fn decode_threshold(&self) -> usize {
        self.decode_threshold
    }

    /// See [`NodeStreamMetrics::mean_packet_lag`].
    pub fn mean_packet_lag(&self) -> Option<SimDuration> {
        self.mean_packet_lag
    }

    /// Resident heap bytes of this compact record — `O(n_windows)`, the
    /// quantity the scale campaign's memory budget tracks per node.
    pub fn heap_bytes(&self) -> usize {
        self.window_decode_lags.capacity() * std::mem::size_of::<Option<SimDuration>>()
            + self.source_within_view_lag.capacity() * std::mem::size_of::<u32>()
    }
}

/// Per-node metrics at either result detail: the full form keeps every
/// per-packet and per-window-source lag; the compact form keeps `O(n_windows)`
/// aggregates (see [`CompactNodeMetrics`] for the retained query surface).
///
/// Every shared query is exposed as an inherent method so downstream figure
/// code is written once against this enum; the `Debug` rendering of the
/// `Full` variant is transparent (it prints exactly like the wrapped
/// [`NodeStreamMetrics`]), which keeps fingerprints of full-detail results
/// stable across the introduction of this enum.
#[derive(Clone)]
pub enum NodeMetrics {
    /// Full whole-run vectors; every query at every argument.
    Full(NodeStreamMetrics),
    /// `O(n_windows)` aggregates; figure-surface queries only.
    Compact(CompactNodeMetrics),
}

impl std::fmt::Debug for NodeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Transparent: full-detail fingerprints must not see the enum.
            NodeMetrics::Full(m) => m.fmt(f),
            NodeMetrics::Compact(m) => m.fmt(f),
        }
    }
}

macro_rules! delegate {
    ($($(#[$doc:meta])* $name:ident ( $($arg:ident : $ty:ty),* ) -> $ret:ty;)*) => {
        $(
            $(#[$doc])*
            pub fn $name(&self, $($arg: $ty),*) -> $ret {
                match self {
                    NodeMetrics::Full(m) => m.$name($($arg),*),
                    NodeMetrics::Compact(m) => m.$name($($arg),*),
                }
            }
        )*
    };
}

impl NodeMetrics {
    delegate! {
        /// See [`NodeStreamMetrics::clock_anomalies`].
        clock_anomalies() -> u64;
        /// See [`NodeStreamMetrics::n_windows`].
        n_windows() -> usize;
        /// See [`NodeStreamMetrics::window_decode_lag`].
        window_decode_lag(window: WindowId) -> Option<SimDuration>;
        /// See [`NodeStreamMetrics::window_jitter_free`].
        window_jitter_free(window: WindowId, lag: SimDuration) -> bool;
        /// See [`NodeStreamMetrics::jitter_free_fraction`].
        jitter_free_fraction(lag: SimDuration) -> f64;
        /// See [`NodeStreamMetrics::jitter_fraction`].
        jitter_fraction(lag: SimDuration) -> f64;
        /// See [`NodeStreamMetrics::offline_jitter_free_fraction`].
        offline_jitter_free_fraction() -> f64;
        /// See [`NodeStreamMetrics::lag_for_jitter_free`].
        lag_for_jitter_free(max_jitter: f64) -> Option<SimDuration>;
        /// See [`NodeStreamMetrics::lag_for_full_delivery`] (compact: only
        /// at [`COMPACT_DELIVERY_RATIO`]).
        lag_for_full_delivery(ratio: f64) -> Option<SimDuration>;
        /// See [`NodeStreamMetrics::delivery_ratio`].
        delivery_ratio() -> f64;
        /// See [`NodeStreamMetrics::window_source_delivery_ratio`] (compact:
        /// only at [`COMPACT_VIEW_LAG`]).
        window_source_delivery_ratio(window: WindowId, lag: SimDuration) -> f64;
        /// See [`NodeStreamMetrics::jittered_window_delivery_ratio`]
        /// (compact: only at [`COMPACT_VIEW_LAG`]).
        jittered_window_delivery_ratio(lag: SimDuration) -> Option<f64>;
        /// See [`NodeStreamMetrics::windows_decodable_at`].
        windows_decodable_at(lag: SimDuration) -> Vec<bool>;
        /// See [`NodeStreamMetrics::decode_threshold`].
        decode_threshold() -> usize;
        /// See [`NodeStreamMetrics::mean_packet_lag`].
        mean_packet_lag() -> Option<SimDuration>;
    }

    /// The wrapped full metrics, if this is the full form.
    pub fn as_full(&self) -> Option<&NodeStreamMetrics> {
        match self {
            NodeMetrics::Full(m) => Some(m),
            NodeMetrics::Compact(_) => None,
        }
    }
}

/// Helper used by tests and experiments: the instant a node could decode
/// `window` (publication completion plus decode lag), if ever.
pub fn window_decode_time(
    schedule: &StreamSchedule,
    metrics: &NodeStreamMetrics,
    window: WindowId,
) -> Option<SimTime> {
    let publish = schedule.window_publish_time(window)?;
    metrics.window_decode_lag(window).map(|lag| publish + lag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::StreamConfig;

    fn schedule(windows: u64) -> StreamSchedule {
        StreamSchedule::new(StreamConfig::small(windows), SimTime::ZERO)
    }

    /// Delivers packets of the given windows with a fixed lag after the
    /// *window* publication time; other windows get nothing.
    fn log_with_window_lags(
        schedule: &StreamSchedule,
        lags: &[Option<SimDuration>],
    ) -> ReceiverLog {
        let mut log = ReceiverLog::for_schedule(schedule);
        for p in schedule.iter() {
            let w = p.window.index() as usize;
            if let Some(Some(lag)) = lags.get(w) {
                let publish = schedule.window_publish_time(p.window).unwrap();
                log.record(p.id, publish + *lag);
            }
        }
        log
    }

    #[test]
    fn perfect_delivery_gives_perfect_metrics() {
        let s = schedule(3);
        let mut log = ReceiverLog::for_schedule(&s);
        for p in s.iter() {
            log.record(p.id, p.published_at + SimDuration::from_millis(50));
        }
        let m = NodeStreamMetrics::compute(&s, &log);
        assert_eq!(m.n_windows(), 3);
        assert_eq!(m.delivery_ratio(), 1.0);
        assert_eq!(m.jitter_free_fraction(SimDuration::from_millis(60)), 1.0);
        assert_eq!(m.offline_jitter_free_fraction(), 1.0);
        assert_eq!(m.jitter_fraction(SimDuration::from_secs(1)), 0.0);
        // Packets arrive 50ms after their own publication, so 99% delivery
        // needs at most 50ms of lag.
        assert!(m.lag_for_full_delivery(0.99).unwrap() <= SimDuration::from_millis(50));
        assert!(m.mean_packet_lag().unwrap() <= SimDuration::from_millis(50));
        // Decode lag is measured from window completion. Most of the window's
        // packets were published (and thus delivered) before the window was
        // complete, so the decode lag is below the 50ms per-packet lag but the
        // window still needs the 10th packet, which arrives shortly after
        // completion.
        let decode_lag = m.window_decode_lag(WindowId::new(0)).unwrap();
        assert!(decode_lag > SimDuration::ZERO && decode_lag <= SimDuration::from_millis(50));
        assert_eq!(
            window_decode_time(&s, &m, WindowId::new(0)),
            Some(s.window_publish_time(WindowId::new(0)).unwrap() + decode_lag)
        );
    }

    #[test]
    fn missing_windows_are_jittered_forever() {
        let s = schedule(4);
        let lags = vec![
            Some(SimDuration::from_secs(1)),
            None,
            Some(SimDuration::from_secs(3)),
            Some(SimDuration::from_secs(1)),
        ];
        let log = log_with_window_lags(&s, &lags);
        let m = NodeStreamMetrics::compute(&s, &log);

        assert_eq!(m.window_decode_lag(WindowId::new(1)), None);
        assert!(!m.window_jitter_free(WindowId::new(1), SimDuration::from_secs(100)));
        assert_eq!(m.offline_jitter_free_fraction(), 0.75);
        assert_eq!(m.jitter_free_fraction(SimDuration::from_secs(1)), 0.5);
        assert_eq!(m.jitter_free_fraction(SimDuration::from_secs(3)), 0.75);

        // A fully jitter-free stream is impossible (window 1 never arrives).
        assert_eq!(m.lag_for_jitter_free(0.0), None);
        // Allowing 25% jitter, a 3s lag suffices.
        assert_eq!(m.lag_for_jitter_free(0.25), Some(SimDuration::from_secs(3)));
        // Allowing 50% jitter, 1s suffices.
        assert_eq!(m.lag_for_jitter_free(0.5), Some(SimDuration::from_secs(1)));
        // 99% delivery is impossible with a whole window missing (25% of packets).
        assert_eq!(m.lag_for_full_delivery(0.99), None);
        // 75% delivery is achievable.
        assert!(m.lag_for_full_delivery(0.75).is_some());
    }

    #[test]
    fn decode_lag_is_kth_smallest_arrival() {
        let s = schedule(1);
        let params = s.config().window;
        let publish = s.window_publish_time(WindowId::new(0)).unwrap();
        let mut log = ReceiverLog::for_schedule(&s);
        // Deliver exactly `decode_threshold` packets with staggered lags
        // 100ms, 200ms, ...; drop the rest.
        for (i, p) in s.iter().enumerate() {
            if i < params.decode_threshold() {
                log.record(
                    p.id,
                    publish + SimDuration::from_millis(100 * (i as u64 + 1)),
                );
            }
        }
        let m = NodeStreamMetrics::compute(&s, &log);
        assert_eq!(
            m.window_decode_lag(WindowId::new(0)),
            Some(SimDuration::from_millis(
                100 * params.decode_threshold() as u64
            ))
        );
        assert_eq!(m.decode_threshold(), params.decode_threshold());
        // Dropping one more packet makes the window undecodable.
        let mut log2 = ReceiverLog::for_schedule(&s);
        for (i, p) in s.iter().enumerate() {
            if i + 1 < params.decode_threshold() {
                log2.record(p.id, publish);
            }
        }
        let m2 = NodeStreamMetrics::compute(&s, &log2);
        assert_eq!(m2.window_decode_lag(WindowId::new(0)), None);
    }

    #[test]
    fn jittered_window_delivery_ratio_counts_source_packets_only() {
        let s = schedule(1);
        let params = s.config().window;
        let publish = s.window_publish_time(WindowId::new(0)).unwrap();
        let mut log = ReceiverLog::for_schedule(&s);
        // Deliver half the source packets (and no parity): undecodable window
        // with a 50% source delivery ratio.
        for (i, p) in s.iter().enumerate() {
            if !p.is_parity && i < params.data_packets / 2 {
                log.record(p.id, publish + SimDuration::from_millis(10));
            }
        }
        let m = NodeStreamMetrics::compute(&s, &log);
        let lag = SimDuration::from_secs(10);
        assert!(!m.window_jitter_free(WindowId::new(0), lag));
        let ratio = m.jittered_window_delivery_ratio(lag).unwrap();
        assert!((ratio - 0.5).abs() < 1e-9);
        assert!((m.window_source_delivery_ratio(WindowId::new(0), lag) - 0.5).abs() < 1e-9);
        // Out-of-range window has zero ratio.
        assert_eq!(m.window_source_delivery_ratio(WindowId::new(9), lag), 0.0);
    }

    #[test]
    fn no_jittered_windows_yields_none_ratio() {
        let s = schedule(2);
        let lags = vec![Some(SimDuration::ZERO), Some(SimDuration::ZERO)];
        let log = log_with_window_lags(&s, &lags);
        let m = NodeStreamMetrics::compute(&s, &log);
        assert_eq!(
            m.jittered_window_delivery_ratio(SimDuration::from_secs(1)),
            None
        );
    }

    #[test]
    fn windows_decodable_series_matches_lags() {
        let s = schedule(3);
        let lags = vec![
            Some(SimDuration::from_secs(1)),
            Some(SimDuration::from_secs(5)),
            None,
        ];
        let log = log_with_window_lags(&s, &lags);
        let m = NodeStreamMetrics::compute(&s, &log);
        assert_eq!(
            m.windows_decodable_at(SimDuration::from_secs(2)),
            vec![true, false, false]
        );
        assert_eq!(
            m.windows_decodable_at(SimDuration::from_secs(6)),
            vec![true, true, false]
        );
    }

    #[test]
    fn arrival_before_own_publication_is_counted_not_masked() {
        let s = schedule(1);
        let mut log = ReceiverLog::for_schedule(&s);
        for (i, p) in s.iter().enumerate() {
            if i == 3 {
                // Impossible arrival: 1 ms before the packet even exists.
                log.record(p.id, p.published_at - SimDuration::from_millis(1));
            } else {
                log.record(p.id, p.published_at + SimDuration::from_millis(20));
            }
        }
        let m = NodeStreamMetrics::compute(&s, &log);
        assert_eq!(m.clock_anomalies(), 1);
        // The anomalous lag is still clamped to zero (not negative/panicking).
        assert_eq!(m.delivery_ratio(), 1.0);
        // A clean log reports zero anomalies.
        let mut clean = ReceiverLog::for_schedule(&s);
        for p in s.iter() {
            clean.record(p.id, p.published_at);
        }
        assert_eq!(NodeStreamMetrics::compute(&s, &clean).clock_anomalies(), 0);
    }

    #[test]
    fn compact_metrics_answer_the_figure_surface_identically() {
        let s = schedule(4);
        let lags = vec![
            Some(SimDuration::from_secs(1)),
            None,
            Some(SimDuration::from_secs(30)),
            Some(SimDuration::from_secs(2)),
        ];
        let log = log_with_window_lags(&s, &lags);
        let full = NodeStreamMetrics::compute(&s, &log);
        let compact = CompactNodeMetrics::from_full(&full);

        assert_eq!(compact.n_windows(), full.n_windows());
        assert_eq!(compact.clock_anomalies(), full.clock_anomalies());
        assert_eq!(compact.delivery_ratio(), full.delivery_ratio());
        assert_eq!(compact.decode_threshold(), full.decode_threshold());
        assert_eq!(compact.mean_packet_lag(), full.mean_packet_lag());
        assert_eq!(
            compact.lag_for_full_delivery(COMPACT_DELIVERY_RATIO),
            full.lag_for_full_delivery(COMPACT_DELIVERY_RATIO)
        );
        for lag_secs in [0u64, 1, 2, 5, 10, 30, 100] {
            let lag = SimDuration::from_secs(lag_secs);
            assert_eq!(
                compact.jitter_free_fraction(lag),
                full.jitter_free_fraction(lag),
                "lag {lag_secs}s"
            );
            assert_eq!(compact.jitter_fraction(lag), full.jitter_fraction(lag));
            assert_eq!(
                compact.windows_decodable_at(lag),
                full.windows_decodable_at(lag)
            );
        }
        for w in 0..5u64 {
            let window = WindowId::new(w);
            assert_eq!(
                compact.window_decode_lag(window),
                full.window_decode_lag(window)
            );
            assert_eq!(
                compact.window_source_delivery_ratio(window, COMPACT_VIEW_LAG),
                full.window_source_delivery_ratio(window, COMPACT_VIEW_LAG)
            );
        }
        assert_eq!(
            compact.offline_jitter_free_fraction(),
            full.offline_jitter_free_fraction()
        );
        for max_jitter in [0.0, 0.01, 0.25, 0.5, 1.0] {
            assert_eq!(
                compact.lag_for_jitter_free(max_jitter),
                full.lag_for_jitter_free(max_jitter),
                "max jitter {max_jitter}"
            );
        }
        assert_eq!(
            compact.jittered_window_delivery_ratio(COMPACT_VIEW_LAG),
            full.jittered_window_delivery_ratio(COMPACT_VIEW_LAG)
        );
        // The compact record's resident footprint is O(n_windows), far below
        // the per-packet vectors it replaces.
        assert!(compact.heap_bytes() <= 4 * (16 + 4) + 64);

        // The enum delegates and the Full variant's Debug is transparent.
        let as_enum = NodeMetrics::Full(full.clone());
        assert_eq!(format!("{as_enum:?}"), format!("{full:?}"));
        assert_eq!(as_enum.delivery_ratio(), full.delivery_ratio());
        assert!(as_enum.as_full().is_some());
        assert!(NodeMetrics::Compact(compact).as_full().is_none());
    }

    #[test]
    fn jitter_allowances_of_one_or_more_need_no_lag() {
        let s = schedule(4);
        let lags = vec![
            Some(SimDuration::from_secs(1)),
            None,
            Some(SimDuration::from_secs(30)),
            Some(SimDuration::from_secs(2)),
        ];
        let full = NodeStreamMetrics::compute(&s, &log_with_window_lags(&s, &lags));
        let compact = CompactNodeMetrics::from_full(&full);
        // Allowing every window (or more than every window) to be jittered
        // needs no lag at all.
        for max_jitter in [1.0, 1.5, f64::INFINITY] {
            assert_eq!(
                full.lag_for_jitter_free(max_jitter),
                Some(SimDuration::ZERO),
                "max jitter {max_jitter}"
            );
            assert_eq!(
                compact.lag_for_jitter_free(max_jitter),
                full.lag_for_jitter_free(max_jitter)
            );
        }
        // NaN and negative allowances behave as 0: window 1 never decodes.
        for max_jitter in [f64::NAN, -0.5, f64::NEG_INFINITY, 0.0] {
            assert_eq!(full.lag_for_jitter_free(max_jitter), None, "{max_jitter}");
            assert_eq!(
                compact.lag_for_jitter_free(max_jitter),
                None,
                "{max_jitter}"
            );
        }
    }

    #[test]
    fn full_metrics_own_four_bytes_per_packet_and_sixteen_per_window() {
        let s = StreamSchedule::new(StreamConfig::paper(90), SimTime::from_secs(2));
        let mut log = ReceiverLog::for_schedule(&s);
        for p in s.iter().step_by(3) {
            log.record(p.id, p.published_at + SimDuration::from_millis(700));
        }
        let m = NodeStreamMetrics::compute(&s, &log);
        assert_eq!(m.heap_bytes(), 4 * 9_900 + 16 * 90);
        // A log longer than the schedule is cut to it.
        let long = ReceiverLog::new(20_000);
        assert_eq!(
            NodeStreamMetrics::compute(&s, &long).heap_bytes(),
            4 * 9_900 + 16 * 90
        );
    }

    #[test]
    #[should_panic(expected = "compact metrics retain delivery lag only at ratio")]
    fn compact_metrics_refuse_unretained_delivery_ratio() {
        let s = schedule(1);
        let log = ReceiverLog::for_schedule(&s);
        let compact = CompactNodeMetrics::from_full(&NodeStreamMetrics::compute(&s, &log));
        let _ = compact.lag_for_full_delivery(0.5);
    }

    #[test]
    #[should_panic(expected = "compact metrics retain source delivery only at the")]
    fn compact_metrics_refuse_unretained_view_lag() {
        let s = schedule(1);
        let log = ReceiverLog::for_schedule(&s);
        let compact = CompactNodeMetrics::from_full(&NodeStreamMetrics::compute(&s, &log));
        let _ = compact.window_source_delivery_ratio(WindowId::new(0), SimDuration::from_secs(3));
    }

    #[test]
    fn an_empty_log_receives_nothing() {
        let s = schedule(1);
        let m = NodeStreamMetrics::compute(&s, &ReceiverLog::for_schedule(&s));
        assert_eq!(m.delivery_ratio(), 0.0);
        assert_eq!(m.mean_packet_lag(), None);
        assert_eq!(m.lag_for_jitter_free(1.0), Some(SimDuration::ZERO));
    }
}
