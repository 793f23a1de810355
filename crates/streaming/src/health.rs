//! Incremental per-receiver stream-health tracking.
//!
//! [`NodeStreamMetrics`](crate::metrics::NodeStreamMetrics) judges a run
//! *post-hoc* from whole-run arrival vectors. This module is the live
//! counterpart: [`ReceiverHealth`] observes each first packet delivery as it
//! happens and maintains, in O(1) time and **zero heap allocation per
//! sample**,
//!
//! * the **lead/drift slope** — an incremental least-squares fit of arrival
//!   lag against publication time, so a receiver that falls progressively
//!   further behind the source shows a positive slope long before it misses
//!   a window,
//! * the **cadence variance** — Welford-accumulated variance of the
//!   inter-arrival gaps, separating smooth streams from bursty ones,
//! * **freeze detection** — no useful delivery for more than
//!   [`HealthConfig::freeze_intervals`] packet intervals, with an episode
//!   counter and a frozen-time accumulator,
//! * a **clock-anomaly counter** — packets whose recorded arrival precedes
//!   their own publication, which a deterministic simulation must never
//!   produce (the offline metrics silently clamp these to zero lag; here
//!   they are counted so tests can assert the count stays zero),
//! * a weighted **0–100 health score** combining drift, cadence, freeze and
//!   delivery-continuity terms.
//!
//! All state is a fixed set of scalars, so a tracker can be embedded in
//! every node of a million-node simulation without touching the allocator on
//! the delivery hot path (asserted by a counting-allocator test).

use crate::source::StreamSchedule;
use heap_simnet::time::{SimDuration, SimTime};

/// Weight of the drift-slope term of the health score.
const DRIFT_WEIGHT: f64 = 0.3;
/// Weight of the cadence-variance term.
const CADENCE_WEIGHT: f64 = 0.2;
/// Weight of the freeze term (fraction of elapsed time spent frozen).
const FREEZE_WEIGHT: f64 = 0.3;
/// Weight of the delivery-continuity term (delivered / expected so far).
const CONTINUITY_WEIGHT: f64 = 0.2;
/// The weights' sum, which normalises the score.
const WEIGHT_SUM: f64 = DRIFT_WEIGHT + CADENCE_WEIGHT + FREEZE_WEIGHT + CONTINUITY_WEIGHT;
/// Drift slope (seconds of lag per second of stream) at which the drift
/// component of the score reaches zero.
const DRIFT_FULL_PENALTY: f64 = 0.5;
/// Cadence standard deviation, in multiples of the packet interval, at
/// which the cadence component of the score reaches zero.
const CADENCE_FULL_PENALTY: f64 = 10.0;

/// Static parameters of a [`ReceiverHealth`] tracker, derived from the
/// stream schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// When the stream starts (the reference point for the first gap and
    /// for elapsed time).
    pub stream_start: SimTime,
    /// Interval between consecutive packet publications.
    pub packet_interval: SimDuration,
    /// Total number of packets the stream will publish (bounds the
    /// delivery-continuity expectation and the freeze horizon).
    pub total_packets: u64,
    /// A receiver is *frozen* after `freeze_intervals × packet_interval`
    /// without a first delivery (the `k` of the freeze detector).
    pub freeze_intervals: u64,
}

impl HealthConfig {
    /// The default parameterisation for a stream schedule: freezes after 64
    /// packet intervals (~1.1 s at the paper's 17.55 ms packet interval).
    pub fn for_schedule(schedule: &StreamSchedule) -> Self {
        HealthConfig {
            stream_start: schedule.start(),
            packet_interval: schedule.config().packet_interval(),
            total_packets: schedule.total_packets(),
            freeze_intervals: 64,
        }
    }

    /// Overrides the freeze threshold multiplier `k`.
    pub fn with_freeze_intervals(mut self, k: u64) -> Self {
        self.freeze_intervals = k;
        self
    }

    /// The gap beyond which a receiver counts as frozen.
    pub fn freeze_threshold(&self) -> SimDuration {
        self.packet_interval * self.freeze_intervals
    }

    /// When the last packet of the stream is published. Freeze detection is
    /// evaluated against `min(now, stream_end)` so a finished stream does
    /// not read as an endless freeze.
    pub fn stream_end(&self) -> SimTime {
        self.stream_start + self.packet_interval * self.total_packets
    }
}

/// A point-in-time snapshot of a receiver's health. Plain `Copy` data —
/// building one performs no allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthReport {
    /// First deliveries observed so far.
    pub samples: u64,
    /// Packets whose arrival preceded their own publication (must stay 0 in
    /// a consistent simulation).
    pub clock_anomalies: u64,
    /// Least-squares slope of arrival lag over publication time, in seconds
    /// of lag per second of stream; `None` with fewer than two samples.
    /// Positive = the receiver is drifting behind the source.
    pub drift_slope: Option<f64>,
    /// Standard deviation of the inter-arrival gaps, in seconds; `None`
    /// with fewer than two samples.
    pub cadence_std_secs: Option<f64>,
    /// Freeze episodes, including one currently in progress.
    pub freezes: u64,
    /// Whether the receiver is frozen right now.
    pub frozen: bool,
    /// Fraction of the elapsed stream time spent frozen, in `[0, 1]`.
    pub frozen_fraction: f64,
    /// Delivered packets over packets published so far, capped at 1.
    pub continuity: f64,
    /// The weighted health score, in `[0, 100]`.
    pub score: f64,
}

/// Incremental per-receiver health tracker. Feed it every *first* packet
/// delivery via [`ReceiverHealth::on_packet`] (in arrival order, as a
/// simulation naturally produces them); query it at any instant with
/// [`ReceiverHealth::score`] or [`ReceiverHealth::report`].
///
/// # Examples
///
/// ```
/// use heap_streaming::health::{HealthConfig, ReceiverHealth};
/// use heap_streaming::{StreamConfig, StreamSchedule};
/// use heap_simnet::time::{SimDuration, SimTime};
///
/// let schedule = StreamSchedule::new(StreamConfig::small(2), SimTime::ZERO);
/// let mut health = ReceiverHealth::new(HealthConfig::for_schedule(&schedule));
/// for p in schedule.iter() {
///     health.on_packet(p.published_at, p.published_at + SimDuration::from_millis(40));
/// }
/// let report = health.report(schedule.start() + SimDuration::from_secs(2));
/// assert_eq!(report.clock_anomalies, 0);
/// assert_eq!(report.freezes, 0);
/// assert!(report.score > 95.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverHealth {
    config: HealthConfig,
    samples: u64,
    clock_anomalies: u64,
    /// Publication time of the first observed sample — the x-axis origin of
    /// the least-squares fit (keeps the accumulated sums small).
    first_publish: Option<SimTime>,
    last_arrival: Option<SimTime>,
    /// Least-squares accumulators over (x = publish − first_publish in
    /// seconds, y = arrival lag in seconds).
    sx: f64,
    sy: f64,
    sxx: f64,
    sxy: f64,
    /// Welford accumulators over inter-arrival gaps, in seconds.
    gap_count: u64,
    gap_mean: f64,
    gap_m2: f64,
    /// Completed freeze episodes and the frozen time they accumulated.
    freeze_episodes: u64,
    frozen_micros: u64,
}

impl ReceiverHealth {
    /// Creates a tracker with the given configuration.
    pub fn new(config: HealthConfig) -> Self {
        ReceiverHealth {
            config,
            samples: 0,
            clock_anomalies: 0,
            first_publish: None,
            last_arrival: None,
            sx: 0.0,
            sy: 0.0,
            sxx: 0.0,
            sxy: 0.0,
            gap_count: 0,
            gap_mean: 0.0,
            gap_m2: 0.0,
            freeze_episodes: 0,
            frozen_micros: 0,
        }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Observes the first delivery of a packet published at `published_at`
    /// and arriving at `arrival`. O(1), allocation-free.
    ///
    /// Calls must come in non-decreasing `arrival` order (the order a
    /// simulation delivers them); an arrival before its own publication is
    /// counted as a clock anomaly and clamped to zero lag.
    pub fn on_packet(&mut self, published_at: SimTime, arrival: SimTime) {
        debug_assert!(
            self.last_arrival.is_none_or(|t| arrival >= t),
            "samples must be fed in arrival order"
        );
        if arrival < published_at {
            self.clock_anomalies += 1;
        }
        let lag = arrival.saturating_since(published_at).as_secs_f64();

        // Drift regression sample.
        let origin = *self.first_publish.get_or_insert(published_at);
        let x = if published_at >= origin {
            published_at.saturating_since(origin).as_secs_f64()
        } else {
            -origin.saturating_since(published_at).as_secs_f64()
        };
        self.sx += x;
        self.sy += lag;
        self.sxx += x * x;
        self.sxy += x * lag;

        // Cadence + freeze from the gap since the previous useful delivery
        // (the stream start for the very first one).
        let since = self.last_arrival.unwrap_or(self.config.stream_start);
        let gap = arrival.saturating_since(since);
        if self.last_arrival.is_some() {
            self.gap_count += 1;
            let g = gap.as_secs_f64();
            let delta = g - self.gap_mean;
            self.gap_mean += delta / self.gap_count as f64;
            self.gap_m2 += delta * (g - self.gap_mean);
        }
        let threshold = self.config.freeze_threshold();
        if gap > threshold {
            self.freeze_episodes += 1;
            self.frozen_micros += (gap - threshold).as_micros();
        }

        self.last_arrival = Some(arrival);
        self.samples += 1;
    }

    /// First deliveries observed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Packets that arrived before their own publication.
    pub fn clock_anomalies(&self) -> u64 {
        self.clock_anomalies
    }

    /// Completed freeze episodes (gaps longer than the freeze threshold that
    /// have since ended with a delivery).
    pub fn completed_freezes(&self) -> u64 {
        self.freeze_episodes
    }

    /// The least-squares drift slope in seconds of lag per second of stream,
    /// or `None` with fewer than two samples (or a degenerate x spread).
    pub fn drift_slope(&self) -> Option<f64> {
        if self.samples < 2 {
            return None;
        }
        let n = self.samples as f64;
        let det = n * self.sxx - self.sx * self.sx;
        if det <= 0.0 {
            return None;
        }
        Some((n * self.sxy - self.sx * self.sy) / det)
    }

    /// Population variance of the inter-arrival gaps, in seconds², or `None`
    /// with fewer than two samples.
    pub fn cadence_variance(&self) -> Option<f64> {
        if self.gap_count == 0 {
            return None;
        }
        Some(self.gap_m2 / self.gap_count as f64)
    }

    /// Standard deviation of the inter-arrival gaps, in seconds.
    pub fn cadence_std(&self) -> Option<f64> {
        self.cadence_variance().map(f64::sqrt)
    }

    /// The instant freeze detection measures gaps against: `now`, clamped
    /// to the end of the stream so a finished stream does not read as an
    /// endless freeze.
    fn effective_now(&self, now: SimTime) -> SimTime {
        now.min(self.config.stream_end())
    }

    /// Whether the receiver is frozen at `now`: no useful delivery for more
    /// than the freeze threshold (measured from the stream start if nothing
    /// was ever delivered).
    pub fn is_frozen(&self, now: SimTime) -> bool {
        let since = self.last_arrival.unwrap_or(self.config.stream_start);
        self.effective_now(now).saturating_since(since) > self.config.freeze_threshold()
    }

    /// Total frozen time up to `now`, including an ongoing freeze.
    pub fn frozen_time(&self, now: SimTime) -> SimDuration {
        let mut total = SimDuration::from_micros(self.frozen_micros);
        let since = self.last_arrival.unwrap_or(self.config.stream_start);
        let open_gap = self.effective_now(now).saturating_since(since);
        if open_gap > self.config.freeze_threshold() {
            total += open_gap - self.config.freeze_threshold();
        }
        total
    }

    /// Packets the source has published by `now` (at least 1 once the
    /// stream has started), capped at the stream length.
    fn expected_by(&self, now: SimTime) -> u64 {
        if now < self.config.stream_start || self.config.total_packets == 0 {
            return 0;
        }
        let elapsed = now.saturating_since(self.config.stream_start);
        let interval = self.config.packet_interval.as_micros().max(1);
        (elapsed.as_micros() / interval + 1).min(self.config.total_packets)
    }

    /// Delivered packets over packets published by `now`, capped at 1.
    pub fn continuity(&self, now: SimTime) -> f64 {
        let expected = self.expected_by(now);
        if expected == 0 {
            return 0.0;
        }
        (self.samples as f64 / expected as f64).min(1.0)
    }

    /// The weighted 0–100 health score at `now`.
    ///
    /// Each component maps to `[0, 1]` — drift and cadence fall linearly to
    /// zero at their full-penalty points (a drift of 0.5 s/s, a standard
    /// deviation of 10 packet intervals), the freeze component is one minus
    /// the frozen fraction of elapsed time, and continuity is the
    /// delivered/published ratio — then the weighted average is scaled to
    /// `[0, 100]`. While drift or cadence cannot be estimated yet (fewer
    /// than two samples) they fall back to the continuity component, so a
    /// receiver that has delivered nothing scores near zero rather than
    /// getting an unknown-equals-healthy pass.
    pub fn score(&self, now: SimTime) -> f64 {
        let s_continuity = self.continuity(now);
        let s_drift = match self.drift_slope() {
            Some(slope) => 1.0 - (slope.abs() / DRIFT_FULL_PENALTY).min(1.0),
            None => s_continuity,
        };
        let s_cadence = match self.cadence_std() {
            Some(std) => {
                let full = CADENCE_FULL_PENALTY * self.config.packet_interval.as_secs_f64();
                if full > 0.0 {
                    1.0 - (std / full).min(1.0)
                } else {
                    1.0
                }
            }
            None => s_continuity,
        };
        let elapsed = self
            .effective_now(now)
            .saturating_since(self.config.stream_start)
            .as_secs_f64();
        let s_freeze = if elapsed > 0.0 {
            1.0 - (self.frozen_time(now).as_secs_f64() / elapsed).min(1.0)
        } else {
            1.0
        };

        100.0
            * (DRIFT_WEIGHT * s_drift
                + CADENCE_WEIGHT * s_cadence
                + FREEZE_WEIGHT * s_freeze
                + CONTINUITY_WEIGHT * s_continuity)
            / WEIGHT_SUM
    }

    /// A full snapshot at `now`. O(1), allocation-free (`HealthReport` is
    /// plain `Copy` data).
    pub fn report(&self, now: SimTime) -> HealthReport {
        let elapsed = self
            .effective_now(now)
            .saturating_since(self.config.stream_start)
            .as_secs_f64();
        let frozen_fraction = if elapsed > 0.0 {
            (self.frozen_time(now).as_secs_f64() / elapsed).min(1.0)
        } else {
            0.0
        };
        HealthReport {
            samples: self.samples,
            clock_anomalies: self.clock_anomalies,
            drift_slope: self.drift_slope(),
            cadence_std_secs: self.cadence_std(),
            freezes: self.freeze_episodes + u64::from(self.is_frozen(now)),
            frozen: self.is_frozen(now),
            frozen_fraction,
            continuity: self.continuity(now),
            score: self.score(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::StreamConfig;

    fn schedule() -> StreamSchedule {
        StreamSchedule::new(StreamConfig::small(4), SimTime::from_secs(5))
    }

    fn tracker() -> ReceiverHealth {
        ReceiverHealth::new(HealthConfig::for_schedule(&schedule()))
    }

    #[test]
    fn config_derives_from_schedule() {
        let s = schedule();
        let c = HealthConfig::for_schedule(&s);
        assert_eq!(c.stream_start, s.start());
        assert_eq!(c.packet_interval, s.config().packet_interval());
        assert_eq!(c.total_packets, 48);
        assert_eq!(c.freeze_threshold(), c.packet_interval * 64);
        assert_eq!(c.stream_end(), s.start() + c.packet_interval * 48);
        assert_eq!(c.with_freeze_intervals(10).freeze_intervals, 10);
    }

    #[test]
    fn empty_tracker_reports_zero_continuity() {
        // k = 16 keeps the freeze threshold (~281 ms) well inside the short
        // test stream (~842 ms), so total silence registers as a freeze.
        let h =
            ReceiverHealth::new(HealthConfig::for_schedule(&schedule()).with_freeze_intervals(16));
        let end = h.config().stream_end();
        assert_eq!(h.samples(), 0);
        assert_eq!(h.drift_slope(), None);
        assert_eq!(h.cadence_std(), None);
        assert_eq!(h.continuity(end), 0.0);
        assert!(h.is_frozen(end), "a silent receiver is frozen");
        let r = h.report(end);
        assert_eq!(r.freezes, 1, "the ongoing freeze is reported");
        assert!(r.score < 50.0);
        // Before the stream starts, nothing is expected and nothing frozen.
        assert!(!h.is_frozen(SimTime::ZERO));
        assert_eq!(h.report(SimTime::ZERO).frozen_fraction, 0.0);
    }

    #[test]
    fn steady_delivery_scores_high_with_no_drift() {
        let s = schedule();
        let mut h = tracker();
        for p in s.iter() {
            h.on_packet(
                p.published_at,
                p.published_at + SimDuration::from_millis(80),
            );
        }
        let end = h.config().stream_end();
        let slope = h.drift_slope().unwrap();
        assert!(
            slope.abs() < 1e-9,
            "constant lag has zero slope, got {slope}"
        );
        // Perfectly periodic arrivals: zero cadence variance.
        assert!(h.cadence_variance().unwrap() < 1e-12);
        assert_eq!(h.completed_freezes(), 0);
        assert!(!h.is_frozen(end));
        assert_eq!(h.clock_anomalies(), 0);
        let r = h.report(end);
        assert_eq!(r.samples, 48);
        assert!((r.continuity - 1.0).abs() < 1e-12);
        assert!(r.score > 99.0, "healthy stream score {}", r.score);
    }

    #[test]
    fn growing_lag_produces_positive_drift_slope() {
        let s = schedule();
        let mut h = tracker();
        // Lag grows by 100 ms per second of stream: slope 0.1 s/s.
        for p in s.iter() {
            let x = p.published_at.saturating_since(s.start()).as_secs_f64();
            let lag = SimDuration::from_micros((x * 0.1 * 1e6) as u64);
            h.on_packet(p.published_at, p.published_at + lag);
        }
        let slope = h.drift_slope().unwrap();
        assert!((slope - 0.1).abs() < 1e-3, "slope {slope}");
        // The drifting receiver scores below the steady one.
        let end = h.config().stream_end();
        assert!(h.score(end) < 99.0);
    }

    #[test]
    fn clock_anomalies_are_counted_and_clamped() {
        let s = schedule();
        let mut h = tracker();
        let p = s.packet(crate::PacketId::new(5)).unwrap();
        h.on_packet(p.published_at, p.published_at - SimDuration::from_millis(1));
        assert_eq!(h.clock_anomalies(), 1);
        assert_eq!(h.samples(), 1);
        // The lag was clamped to zero, not negative.
        assert_eq!(h.sy, 0.0);
    }

    #[test]
    fn score_is_bounded() {
        let s = schedule();
        let mut h = tracker();
        // Pathological: one early packet, then silence.
        let p = s.packet(crate::PacketId::new(0)).unwrap();
        h.on_packet(p.published_at, p.published_at);
        for t in [
            s.start(),
            s.start() + SimDuration::from_secs(1),
            h.config().stream_end(),
            h.config().stream_end() + SimDuration::from_secs(1000),
        ] {
            let score = h.score(t);
            assert!((0.0..=100.0).contains(&score), "score {score} at {t:?}");
        }
    }
}
