//! Differential property tests of the 4-byte arrival layouts.
//!
//! (a) [`ReceiverLog`] (a `u32` µs column with a spill list for arrivals at
//! or beyond `u32::MAX − 1` µs) against the layout it replaced, one
//! `Option<SimTime>` per packet: random `record` sequences with duplicates,
//! out-of-range ids and arrivals either side of the column's range, every
//! accessor compared after every step.
//!
//! (b) [`NodeStreamMetrics`] (arrival column + decode lags, lags derived in
//! the queries) against a copy of the three-vector `compute` it replaced,
//! over random logs — arrivals before publication, logs shorter and longer
//! than the schedule, empty logs — with every query compared at random
//! arguments, and [`CompactNodeMetrics::from_full`] compared through its
//! retained queries.
//!
//! (c) [`NodeStreamMetrics::from_log`], which takes the log's column over,
//! against [`NodeStreamMetrics::compute`], which copies it, on the same
//! random logs: whole state and every query identical.

use heap_simnet::time::{SimDuration, SimTime};
use heap_streaming::metrics::{CompactNodeMetrics, COMPACT_DELIVERY_RATIO, COMPACT_VIEW_LAG};
use heap_streaming::{
    NodeStreamMetrics, PacketId, ReceiverLog, StreamConfig, StreamSchedule, WindowId,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const COLUMN_EDGE: u64 = u32::MAX as u64;

/// The receive log as it was: one optional arrival per packet.
struct LogModel {
    arrivals: Vec<Option<SimTime>>,
    received: u64,
}

impl LogModel {
    fn record(&mut self, id: PacketId, at: SimTime) -> bool {
        match self.arrivals.get_mut(id.seq() as usize) {
            Some(slot @ None) => {
                *slot = Some(at);
                self.received += 1;
                true
            }
            _ => false,
        }
    }

    fn arrival(&self, id: PacketId) -> Option<SimTime> {
        self.arrivals.get(id.seq() as usize).copied().flatten()
    }
}

/// An arrival instant, often right at the column's edge.
fn any_arrival(rng: &mut SmallRng) -> SimTime {
    match rng.gen_range(0u32..12) {
        0 => SimTime::from_micros(COLUMN_EDGE - 2),
        1 => SimTime::from_micros(COLUMN_EDGE - 1),
        2 => SimTime::from_micros(COLUMN_EDGE),
        3 => SimTime::MAX,
        4 => SimTime::from_micros(rng.gen_range(COLUMN_EDGE - 8..COLUMN_EDGE + 8)),
        5 => SimTime::ZERO,
        _ => SimTime::from_micros(rng.gen_range(0..400_000_000)),
    }
}

/// Every accessor of the log equals the model's.
fn assert_log_matches(log: &ReceiverLog, model: &LogModel, at: &str) {
    let total = model.arrivals.len() as u64;
    assert_eq!(log.total_packets(), total, "total_packets, {at}");
    assert_eq!(log.received_count(), model.received, "received_count, {at}");
    let ratio = if total == 0 {
        0.0
    } else {
        model.received as f64 / total as f64
    };
    assert_eq!(log.delivery_ratio(), ratio, "delivery_ratio, {at}");
    for seq in (0..total + 3).chain([u64::MAX]) {
        let id = PacketId::new(seq);
        assert_eq!(log.arrival(id), model.arrival(id), "arrival({seq}), {at}");
        assert_eq!(log.has(id), model.arrival(id).is_some(), "has({seq}), {at}");
    }
    let received: Vec<(PacketId, SimTime)> = log.iter_received().collect();
    let expected: Vec<(PacketId, SimTime)> = model
        .arrivals
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (PacketId::new(i as u64), t)))
        .collect();
    assert_eq!(received, expected, "iter_received, {at}");
    // 12 packets per small window; windows past the end read as missing.
    let schedule = StreamSchedule::new(StreamConfig::small(total.div_ceil(12)), SimTime::ZERO);
    for w in 0..total.div_ceil(12) + 2 {
        let window = WindowId::new(w);
        let expected: Vec<Option<SimTime>> = (w * 12..w * 12 + 12)
            .map(|seq| model.arrival(PacketId::new(seq)))
            .collect();
        assert_eq!(
            log.window_arrivals(&schedule, window),
            expected,
            "window_arrivals({w}), {at}"
        );
    }
    let spilled = model
        .arrivals
        .iter()
        .flatten()
        .any(|t| t.as_micros() >= COLUMN_EDGE - 1);
    if spilled {
        assert!(log.heap_bytes() > 4 * total as usize, "heap_bytes, {at}");
    } else {
        assert_eq!(log.heap_bytes(), 4 * total as usize, "heap_bytes, {at}");
    }
}

/// One differential run of the log: `steps` random records from `seed`.
fn drive_log(seed: u64, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let total = match rng.gen_range(0u32..8) {
        0 => 0,
        1 => rng.gen_range(1..4),
        _ => rng.gen_range(1..200),
    };
    let mut log = ReceiverLog::new(total);
    let mut model = LogModel {
        arrivals: vec![None; total as usize],
        received: 0,
    };
    for step in 0..steps {
        let seq = match rng.gen_range(0u32..16) {
            0 => total + rng.gen_range(0..4),
            1 => u64::MAX - rng.gen_range(0..2),
            _ => rng.gen_range(0..total.max(1)),
        };
        let id = PacketId::new(seq);
        let at = any_arrival(&mut rng);
        let desc = format!("step {step}, record({seq}, {}µs)", at.as_micros());
        assert_eq!(log.record(id, at), model.record(id, at), "{desc}");
        assert_log_matches(&log, &model, &desc);
    }
    let copy = log.clone();
    assert_log_matches(&copy, &model, "clone");
}

/// The full metrics as they were: per-window decode lags, per-window source
/// lags and per-packet lags, each a whole-run vector. The one deliberate
/// difference from the old code is the saturating `needed` in
/// `lag_for_jitter_free` (the old subtraction overflowed for a
/// `max_jitter` above 1).
struct Oracle {
    window_decode_lags: Vec<Option<SimDuration>>,
    window_source_lags: Vec<Vec<SimDuration>>,
    packet_lags: Vec<Option<SimDuration>>,
    clock_anomalies: u64,
    data_packets_per_window: usize,
    decode_threshold: usize,
}

impl Oracle {
    fn compute(schedule: &StreamSchedule, log: &ReceiverLog) -> Self {
        let params = schedule.config().window;
        let n_windows = schedule.total_windows();
        let mut window_decode_lags = Vec::with_capacity(n_windows as usize);
        let mut window_source_lags = Vec::with_capacity(n_windows as usize);
        for w in 0..n_windows {
            let window = WindowId::new(w);
            let publish = schedule.window_publish_time(window).unwrap();
            let arrivals = log.window_arrivals(schedule, window);
            let mut lags: Vec<SimDuration> = arrivals
                .iter()
                .flatten()
                .map(|&t| t.saturating_since(publish))
                .collect();
            lags.sort_unstable();
            let decode_lag = if lags.len() >= params.decode_threshold() {
                Some(lags[params.decode_threshold() - 1])
            } else {
                None
            };
            window_decode_lags.push(decode_lag);
            let source_lags: Vec<SimDuration> = arrivals
                .iter()
                .take(params.data_packets)
                .flatten()
                .map(|&t| t.saturating_since(publish))
                .collect();
            window_source_lags.push(source_lags);
        }
        let mut clock_anomalies = 0u64;
        let packet_lags: Vec<Option<SimDuration>> = (0..schedule.total_packets())
            .map(|seq| {
                let id = PacketId::new(seq);
                let publish = schedule.publish_time(id).unwrap();
                log.arrival(id).map(|t| {
                    if t < publish {
                        clock_anomalies += 1;
                    }
                    t.saturating_since(publish)
                })
            })
            .collect();
        Oracle {
            window_decode_lags,
            window_source_lags,
            packet_lags,
            clock_anomalies,
            data_packets_per_window: params.data_packets,
            decode_threshold: params.decode_threshold(),
        }
    }

    fn window_decode_lag(&self, window: WindowId) -> Option<SimDuration> {
        self.window_decode_lags
            .get(window.index() as usize)
            .copied()
            .flatten()
    }

    fn window_jitter_free(&self, window: WindowId, lag: SimDuration) -> bool {
        matches!(self.window_decode_lag(window), Some(l) if l <= lag)
    }

    fn jitter_free_fraction(&self, lag: SimDuration) -> f64 {
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

    fn offline_jitter_free_fraction(&self) -> f64 {
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

    fn lag_for_jitter_free(&self, max_jitter: f64) -> Option<SimDuration> {
        let total = self.window_decode_lags.len();
        if total == 0 {
            return Some(SimDuration::ZERO);
        }
        let allowed = (max_jitter * total as f64).floor() as usize;
        let mut finite: Vec<SimDuration> =
            self.window_decode_lags.iter().flatten().copied().collect();
        finite.sort_unstable();
        let needed = total.saturating_sub(allowed);
        if needed == 0 {
            return Some(SimDuration::ZERO);
        }
        if finite.len() < needed {
            return None;
        }
        Some(finite[needed - 1])
    }

    fn lag_for_full_delivery(&self, ratio: f64) -> Option<SimDuration> {
        let total = self.packet_lags.len();
        if total == 0 {
            return Some(SimDuration::ZERO);
        }
        let needed = (ratio * total as f64).ceil() as usize;
        if needed == 0 {
            return Some(SimDuration::ZERO);
        }
        let mut finite: Vec<SimDuration> = self.packet_lags.iter().flatten().copied().collect();
        if finite.len() < needed {
            return None;
        }
        finite.sort_unstable();
        Some(finite[needed - 1])
    }

    fn delivery_ratio(&self) -> f64 {
        if self.packet_lags.is_empty() {
            return 0.0;
        }
        self.packet_lags.iter().filter(|l| l.is_some()).count() as f64
            / self.packet_lags.len() as f64
    }

    fn window_source_delivery_ratio(&self, window: WindowId, lag: SimDuration) -> f64 {
        match self.window_source_lags.get(window.index() as usize) {
            None => 0.0,
            Some(lags) => {
                let got = lags.iter().filter(|&&l| l <= lag).count();
                got as f64 / self.data_packets_per_window as f64
            }
        }
    }

    fn jittered_window_delivery_ratio(&self, lag: SimDuration) -> Option<f64> {
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

    fn windows_decodable_at(&self, lag: SimDuration) -> Vec<bool> {
        (0..self.window_decode_lags.len())
            .map(|w| self.window_jitter_free(WindowId::new(w as u64), lag))
            .collect()
    }

    fn mean_packet_lag(&self) -> Option<SimDuration> {
        let finite: Vec<SimDuration> = self.packet_lags.iter().flatten().copied().collect();
        if finite.is_empty() {
            return None;
        }
        let total_micros: u64 = finite.iter().map(|d| d.as_micros()).sum();
        Some(SimDuration::from_micros(total_micros / finite.len() as u64))
    }
}

/// A random schedule and a random log for it: some packets missing, some
/// before their own publication, some long after; the log may be empty,
/// shorter or longer than the schedule.
fn random_case(rng: &mut SmallRng) -> (StreamSchedule, ReceiverLog) {
    let n_windows = rng.gen_range(0..6);
    let config = if rng.gen_bool(0.3) {
        StreamConfig::paper(n_windows.min(2))
    } else {
        StreamConfig::small(n_windows)
    };
    let start = SimTime::from_micros(rng.gen_range(0..5_000_000));
    let schedule = StreamSchedule::new(config, start);
    let total = schedule.total_packets();
    let log_len = match rng.gen_range(0u32..8) {
        0 => 0,
        1 => rng.gen_range(0..total.max(1)),
        2 => total + rng.gen_range(1..30),
        _ => total,
    };
    let mut log = ReceiverLog::new(log_len);
    let keep = rng.gen_range(0.0..1.0);
    for seq in 0..log_len {
        if !rng.gen_bool(keep) {
            continue;
        }
        // Past the schedule's end packets have no publication of their own.
        let publish = schedule
            .publish_time(PacketId::new(seq))
            .unwrap_or(start + SimDuration::from_secs(60));
        let at = match rng.gen_range(0u32..20) {
            0 => SimTime::from_micros(
                publish
                    .as_micros()
                    .saturating_sub(rng.gen_range(1..3_000_000)),
            ),
            1 => SimTime::from_micros(COLUMN_EDGE - rng.gen_range(0..3)),
            2 => publish,
            _ => publish + SimDuration::from_micros(rng.gen_range(0..30_000_000)),
        };
        log.record(PacketId::new(seq), at);
    }
    (schedule, log)
}

/// A lag to query at: 0, inside the run, past its end, or the view lag.
fn any_lag(rng: &mut SmallRng) -> SimDuration {
    match rng.gen_range(0u32..6) {
        0 => SimDuration::ZERO,
        1 => COMPACT_VIEW_LAG,
        2 => SimDuration::from_micros(rng.gen_range(0..10_000_000_000)),
        3 => SimDuration::from_micros(u64::MAX),
        _ => SimDuration::from_micros(rng.gen_range(0..40_000_000)),
    }
}

/// One differential run of the metrics over `rounds` random query rounds.
fn drive_metrics(seed: u64, rounds: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (schedule, log) = random_case(&mut rng);
    let full = NodeStreamMetrics::compute(&schedule, &log);
    let oracle = Oracle::compute(&schedule, &log);
    let compact = CompactNodeMetrics::from_full(&full);
    let n = oracle.window_decode_lags.len() as u64;

    assert_eq!(full.n_windows(), oracle.window_decode_lags.len());
    assert_eq!(full.clock_anomalies(), oracle.clock_anomalies);
    assert_eq!(full.decode_threshold(), oracle.decode_threshold);
    assert_eq!(full.delivery_ratio(), oracle.delivery_ratio());
    assert_eq!(full.mean_packet_lag(), oracle.mean_packet_lag());
    assert_eq!(
        full.offline_jitter_free_fraction(),
        oracle.offline_jitter_free_fraction()
    );
    let lags: Vec<SimDuration> = full.received_packet_lags().collect();
    let expected: Vec<SimDuration> = oracle.packet_lags.iter().flatten().copied().collect();
    assert_eq!(lags, expected, "received_packet_lags");
    for w in 0..n + 2 {
        let window = WindowId::new(w);
        assert_eq!(
            full.window_decode_lag(window),
            oracle.window_decode_lag(window),
            "window_decode_lag({w})"
        );
    }

    // The compact form, through every query it retains.
    assert_eq!(compact.n_windows(), full.n_windows());
    assert_eq!(compact.clock_anomalies(), oracle.clock_anomalies);
    assert_eq!(compact.decode_threshold(), oracle.decode_threshold);
    assert_eq!(compact.delivery_ratio(), oracle.delivery_ratio());
    assert_eq!(compact.mean_packet_lag(), oracle.mean_packet_lag());
    assert_eq!(
        compact.offline_jitter_free_fraction(),
        oracle.offline_jitter_free_fraction()
    );
    assert_eq!(
        compact.lag_for_full_delivery(COMPACT_DELIVERY_RATIO),
        oracle.lag_for_full_delivery(COMPACT_DELIVERY_RATIO)
    );
    assert_eq!(
        compact.jittered_window_delivery_ratio(COMPACT_VIEW_LAG),
        oracle.jittered_window_delivery_ratio(COMPACT_VIEW_LAG)
    );
    for w in 0..n + 2 {
        let window = WindowId::new(w);
        assert_eq!(
            compact.window_decode_lag(window),
            oracle.window_decode_lag(window)
        );
        assert_eq!(
            compact.window_source_delivery_ratio(window, COMPACT_VIEW_LAG),
            oracle.window_source_delivery_ratio(window, COMPACT_VIEW_LAG),
            "compact window_source_delivery_ratio({w})"
        );
    }

    let ratios = [0.0, 0.5, COMPACT_DELIVERY_RATIO, 1.0, 1.5, f64::INFINITY];
    let jitters = [0.0, 0.01, 0.25, 1.0, 1.5, f64::INFINITY, f64::NAN, -0.5];
    for round in 0..rounds {
        let lag = any_lag(&mut rng);
        let at = format!("round {round}, lag {}µs", lag.as_micros());
        let w = WindowId::new(rng.gen_range(0..n + 2));
        assert_eq!(
            full.window_jitter_free(w, lag),
            oracle.window_jitter_free(w, lag),
            "{at}"
        );
        assert_eq!(
            full.window_source_delivery_ratio(w, lag),
            oracle.window_source_delivery_ratio(w, lag),
            "window_source_delivery_ratio({}), {at}",
            w.index()
        );
        assert_eq!(
            full.jitter_free_fraction(lag),
            oracle.jitter_free_fraction(lag),
            "{at}"
        );
        assert_eq!(
            full.jitter_fraction(lag),
            1.0 - oracle.jitter_free_fraction(lag),
            "{at}"
        );
        assert_eq!(
            full.jittered_window_delivery_ratio(lag),
            oracle.jittered_window_delivery_ratio(lag),
            "{at}"
        );
        assert_eq!(
            full.windows_decodable_at(lag),
            oracle.windows_decodable_at(lag),
            "{at}"
        );
        assert_eq!(
            compact.jitter_free_fraction(lag),
            oracle.jitter_free_fraction(lag),
            "{at}"
        );
        assert_eq!(
            compact.windows_decodable_at(lag),
            oracle.windows_decodable_at(lag),
            "{at}"
        );
        assert_eq!(
            compact.window_jitter_free(w, lag),
            oracle.window_jitter_free(w, lag),
            "{at}"
        );

        let ratio = if rng.gen_bool(0.5) {
            ratios[rng.gen_range(0..ratios.len())]
        } else {
            rng.gen_range(0.0..1.0)
        };
        assert_eq!(
            full.lag_for_full_delivery(ratio),
            oracle.lag_for_full_delivery(ratio),
            "lag_for_full_delivery({ratio}), {at}"
        );
        let max_jitter = if rng.gen_bool(0.5) {
            jitters[rng.gen_range(0..jitters.len())]
        } else {
            rng.gen_range(0.0..1.2)
        };
        assert_eq!(
            full.lag_for_jitter_free(max_jitter),
            oracle.lag_for_jitter_free(max_jitter),
            "lag_for_jitter_free({max_jitter}), {at}"
        );
        assert_eq!(
            compact.lag_for_jitter_free(max_jitter),
            oracle.lag_for_jitter_free(max_jitter),
            "compact lag_for_jitter_free({max_jitter}), {at}"
        );
    }
}

/// One differential run of the metrics that take the log over against the
/// ones that copy it, over `rounds` random query rounds.
fn drive_from_log(seed: u64, rounds: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (schedule, log) = random_case(&mut rng);
    let copied = NodeStreamMetrics::compute(&schedule, &log);
    let moved = NodeStreamMetrics::from_log(&schedule, log);
    // The whole state: schedule, arrival column and spill list, decode lags
    // and the anomaly count.
    assert_eq!(format!("{moved:?}"), format!("{copied:?}"));
    assert_eq!(moved.heap_bytes(), copied.heap_bytes());
    assert_eq!(moved.n_windows(), copied.n_windows());
    assert_eq!(moved.clock_anomalies(), copied.clock_anomalies());
    assert_eq!(moved.decode_threshold(), copied.decode_threshold());
    assert_eq!(moved.delivery_ratio(), copied.delivery_ratio());
    assert_eq!(moved.mean_packet_lag(), copied.mean_packet_lag());
    assert_eq!(
        moved.offline_jitter_free_fraction(),
        copied.offline_jitter_free_fraction()
    );
    assert!(moved
        .received_packet_lags()
        .eq(copied.received_packet_lags()));
    let n = moved.n_windows() as u64;
    for w in 0..n + 2 {
        let window = WindowId::new(w);
        assert_eq!(
            moved.window_decode_lag(window),
            copied.window_decode_lag(window),
            "window_decode_lag({w})"
        );
    }
    for round in 0..rounds {
        let lag = any_lag(&mut rng);
        let at = format!("round {round}, lag {}µs", lag.as_micros());
        let w = WindowId::new(rng.gen_range(0..n + 2));
        assert_eq!(
            moved.window_jitter_free(w, lag),
            copied.window_jitter_free(w, lag),
            "{at}"
        );
        assert_eq!(
            moved.window_source_delivery_ratio(w, lag),
            copied.window_source_delivery_ratio(w, lag),
            "{at}"
        );
        assert_eq!(
            moved.jitter_free_fraction(lag),
            copied.jitter_free_fraction(lag),
            "{at}"
        );
        assert_eq!(
            moved.jitter_fraction(lag),
            copied.jitter_fraction(lag),
            "{at}"
        );
        assert_eq!(
            moved.jittered_window_delivery_ratio(lag),
            copied.jittered_window_delivery_ratio(lag),
            "{at}"
        );
        assert_eq!(
            moved.windows_decodable_at(lag),
            copied.windows_decodable_at(lag),
            "{at}"
        );
        let ratio = rng.gen_range(0.0..1.2);
        assert_eq!(
            moved.lag_for_full_delivery(ratio),
            copied.lag_for_full_delivery(ratio),
            "lag_for_full_delivery({ratio}), {at}"
        );
        let max_jitter = rng.gen_range(-0.1..1.2);
        assert_eq!(
            moved.lag_for_jitter_free(max_jitter),
            copied.lag_for_jitter_free(max_jitter),
            "lag_for_jitter_free({max_jitter}), {at}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The column log and the `Option<SimTime>` model agree after every step.
    #[test]
    fn receiver_log_matches_the_option_model(seed in 0u64..1_000_000) {
        drive_log(seed, 300);
    }

    /// Column-derived metrics answer every query as the three-vector
    /// metrics did, and the compact form built from them agrees too.
    #[test]
    fn metrics_match_the_three_vector_oracle(seed in 0u64..1_000_000) {
        drive_metrics(seed, 40);
    }

    /// Metrics that take the log's column over answer exactly as metrics
    /// that copy it, whatever the log's length and spill list.
    #[test]
    fn metrics_from_a_moved_log_match_a_copied_one(seed in 0u64..1_000_000) {
        drive_from_log(seed, 40);
    }
}
