//! Per-node receive side: the receive log and the payload reassembly
//! pipeline.
//!
//! Every node records the arrival time of every stream packet it delivers;
//! all stream-quality metrics (lag CDFs, jitter percentages, delivery ratios)
//! are later derived offline from these logs, which is exactly how the
//! paper's PlanetLab experiments were analysed. The log is one 4-byte
//! arrival per stream packet (see [`ReceiverLog`] for the encoding); the
//! full-detail [`NodeStreamMetrics`](crate::metrics::NodeStreamMetrics)
//! takes the column over from the log
//! ([`NodeStreamMetrics::from_log`](crate::metrics::NodeStreamMetrics::from_log))
//! instead of keeping per-packet lag vectors.
//!
//! The [`StreamReassembler`] complements the log with the *payload* path: it
//! feeds arriving packets into one FEC [`WindowDecoder`] per window. The
//! decoders are clones of one empty decoder, so the Reed–Solomon codec is
//! built once per stream.

use crate::packet::{PacketId, WindowId};
use crate::source::StreamSchedule;
use heap_fec::WindowDecoder;
use heap_simnet::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Column value of a packet that has not arrived.
const NOT_RECEIVED: u32 = u32::MAX;
/// Column value of a packet whose arrival is in the spill list. Every
/// arrival at or beyond this many µs is spilled; smaller ones are stored as
/// they are.
const SPILLED: u32 = u32::MAX - 1;

/// One arrival per packet sequence number, 4 bytes each: the arrival in µs
/// since [`SimTime::ZERO`], [`NOT_RECEIVED`], or [`SPILLED`] for arrivals
/// 71.6 simulated minutes or later, whose exact time sits in `spill`
/// (sorted by sequence number). The receive log and the full-detail metrics
/// both store their arrivals in this form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Arrivals {
    column: Box<[u32]>,
    spill: Vec<(u64, SimTime)>,
}

impl Arrivals {
    /// `len` packets, none received.
    fn new(len: usize) -> Self {
        Arrivals {
            column: vec![NOT_RECEIVED; len].into_boxed_slice(),
            spill: Vec::new(),
        }
    }

    /// Number of packets the column holds.
    pub(crate) fn len(&self) -> usize {
        self.column.len()
    }

    /// Whether packet `seq` arrived (`false` out of range).
    fn has(&self, seq: u64) -> bool {
        self.column
            .get(seq as usize)
            .is_some_and(|&raw| raw != NOT_RECEIVED)
    }

    /// The arrival of packet `seq`, if it is in range and arrived.
    fn get(&self, seq: u64) -> Option<SimTime> {
        let &raw = self.column.get(seq as usize)?;
        self.decode(seq, raw)
    }

    /// Stores the first arrival of `seq`; `false` for an out-of-range or
    /// already-stored packet.
    fn set(&mut self, seq: u64, at: SimTime) -> bool {
        let Some(slot) = self.column.get_mut(seq as usize) else {
            return false;
        };
        if *slot != NOT_RECEIVED {
            return false;
        }
        if at.as_micros() < u64::from(SPILLED) {
            *slot = at.as_micros() as u32;
        } else {
            *slot = SPILLED;
            let index = self.spill.partition_point(|&(s, _)| s < seq);
            self.spill.insert(index, (seq, at));
        }
        true
    }

    /// The arrival a column value of packet `seq` stands for.
    fn decode(&self, seq: u64, raw: u32) -> Option<SimTime> {
        match raw {
            NOT_RECEIVED => None,
            SPILLED => {
                let index = self
                    .spill
                    .binary_search_by_key(&seq, |&(s, _)| s)
                    .expect("every spilled slot has a spill entry");
                Some(self.spill[index].1)
            }
            micros => Some(SimTime::from_micros(u64::from(micros))),
        }
    }

    /// `(seq, arrival)` of every received packet in `range`, in sequence
    /// order. The range must lie inside the column.
    pub(crate) fn received_in(
        &self,
        range: std::ops::Range<u64>,
    ) -> impl Iterator<Item = (u64, SimTime)> + '_ {
        let first = range.start;
        self.column[range.start as usize..range.end as usize]
            .iter()
            .zip(first..)
            .filter_map(|(&raw, seq)| self.decode(seq, raw).map(|at| (seq, at)))
    }

    /// `(seq, arrival)` of every received packet, in sequence order.
    pub(crate) fn received(&self) -> impl Iterator<Item = (u64, SimTime)> + '_ {
        self.received_in(0..self.column.len() as u64)
    }

    /// Number of received packets.
    pub(crate) fn received_count(&self) -> usize {
        self.column
            .iter()
            .filter(|&&raw| raw != NOT_RECEIVED)
            .count()
    }

    /// A copy holding exactly `len` packets: the first `len` of these, and
    /// nothing received beyond the end of this column.
    pub(crate) fn resized(&self, len: usize) -> Self {
        let mut column = Vec::with_capacity(len);
        column.extend_from_slice(&self.column[..len.min(self.column.len())]);
        column.resize(len, NOT_RECEIVED);
        let mut spill: Vec<(u64, SimTime)> = self
            .spill
            .iter()
            .filter(|&&(seq, _)| seq < len as u64)
            .copied()
            .collect();
        spill.shrink_to_fit();
        Arrivals {
            column: column.into_boxed_slice(),
            spill,
        }
    }

    /// [`Arrivals::resized`] by value: a column of length `len` is kept as
    /// it is, with its spill list trimmed to fit exactly as a copy's would be.
    pub(crate) fn into_resized(mut self, len: usize) -> Self {
        if self.column.len() != len {
            return self.resized(len);
        }
        self.spill.shrink_to_fit();
        self
    }

    /// Heap bytes owned: the column plus the spill list.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.column.len() * std::mem::size_of::<u32>()
            + self.spill.capacity() * std::mem::size_of::<(u64, SimTime)>()
    }
}

/// The receive log of a single node: which packets arrived, and when.
///
/// Stored as one 4-byte entry per stream packet: the arrival in µs since
/// [`SimTime::ZERO`], with `u32::MAX` meaning "not received". Arrivals at or
/// beyond `u32::MAX − 1` µs (71.6 simulated minutes; the longest run here
/// lasts about 4 minutes) are kept exactly in a small spill list sorted by
/// sequence number, so every accessor is exact for any [`SimTime`]. A
/// paper-length log (90 windows, 9 900 packets) owns 39.6 KB.
///
/// # Examples
///
/// ```
/// use heap_streaming::{ReceiverLog, PacketId};
/// use heap_simnet::time::SimTime;
///
/// let mut log = ReceiverLog::new(100);
/// assert!(log.record(PacketId::new(3), SimTime::from_secs(1)));
/// assert!(!log.record(PacketId::new(3), SimTime::from_secs(2)), "duplicates ignored");
/// assert_eq!(log.received_count(), 1);
/// assert_eq!(log.arrival(PacketId::new(3)), Some(SimTime::from_secs(1)));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReceiverLog {
    arrivals: Arrivals,
    received: u64,
}

impl ReceiverLog {
    /// Creates an empty log able to hold `total_packets` packets.
    pub fn new(total_packets: u64) -> Self {
        ReceiverLog {
            arrivals: Arrivals::new(total_packets as usize),
            received: 0,
        }
    }

    /// Creates a log sized for the given schedule.
    pub fn for_schedule(schedule: &StreamSchedule) -> Self {
        ReceiverLog::new(schedule.total_packets())
    }

    /// Records the first arrival of `id` at `at`. Returns `true` if the
    /// packet was new, `false` for duplicates or out-of-range ids.
    pub fn record(&mut self, id: PacketId, at: SimTime) -> bool {
        let fresh = self.arrivals.set(id.seq(), at);
        self.received += u64::from(fresh);
        fresh
    }

    /// The arrival time of `id`, if it was received.
    pub fn arrival(&self, id: PacketId) -> Option<SimTime> {
        self.arrivals.get(id.seq())
    }

    /// Whether `id` has been received.
    pub fn has(&self, id: PacketId) -> bool {
        self.arrivals.has(id.seq())
    }

    /// Number of distinct packets received.
    pub fn received_count(&self) -> u64 {
        self.received
    }

    /// Capacity of the log (total packets in the stream).
    pub fn total_packets(&self) -> u64 {
        self.arrivals.len() as u64
    }

    /// Fraction of the stream received, in `[0, 1]`.
    pub fn delivery_ratio(&self) -> f64 {
        if self.arrivals.len() == 0 {
            0.0
        } else {
            self.received as f64 / self.arrivals.len() as f64
        }
    }

    /// Arrival times of the packets belonging to `window` under `schedule`,
    /// one entry per packet of the window (`None` = never received).
    pub fn window_arrivals(
        &self,
        schedule: &StreamSchedule,
        window: WindowId,
    ) -> Vec<Option<SimTime>> {
        let per_window = schedule.config().window.total_packets() as u64;
        let first = window.index() * per_window;
        (first..first + per_window)
            .map(|seq| self.arrivals.get(seq))
            .collect()
    }

    /// Iterates over `(PacketId, SimTime)` for every received packet, in
    /// sequence order.
    pub fn iter_received(&self) -> impl Iterator<Item = (PacketId, SimTime)> + '_ {
        self.arrivals
            .received()
            .map(|(seq, at)| (PacketId::new(seq), at))
    }

    /// Heap bytes owned: 4 per stream packet, plus the spill list (empty
    /// unless some arrival is 71.6 simulated minutes or later).
    pub fn heap_bytes(&self) -> usize {
        self.arrivals.heap_bytes()
    }

    /// The arrival column, for the metrics computed from this log.
    pub(crate) fn arrivals(&self) -> &Arrivals {
        &self.arrivals
    }

    /// The arrival column, for the metrics that take it over.
    pub(crate) fn into_arrivals(self) -> Arrivals {
        self.arrivals
    }
}

/// A fully decoded FEC window handed out by [`StreamReassembler::accept`].
#[derive(Debug)]
pub struct DecodedWindow {
    window: WindowId,
    packets: Vec<Vec<u8>>,
}

impl DecodedWindow {
    /// Which window was decoded.
    pub fn id(&self) -> WindowId {
        self.window
    }

    /// The decoded source payloads, in order.
    pub fn data_packets(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.packets.iter().map(Vec::as_slice)
    }
}

/// Reassembles the stream payload from packets as they arrive.
///
/// One [`WindowDecoder`] is kept per in-flight window, each a clone of one
/// empty decoder built with the reassembler, so the Reed–Solomon codec is
/// built once per stream. A window is decoded eagerly as soon as enough
/// packets are present.
///
/// # Examples
///
/// ```
/// use heap_streaming::receiver::StreamReassembler;
/// use heap_streaming::source::{StreamConfig, StreamSchedule};
/// use heap_streaming::PacketId;
/// use heap_simnet::time::SimTime;
///
/// let schedule = StreamSchedule::new(StreamConfig::small(1), SimTime::ZERO);
/// let mut reassembler = StreamReassembler::new(schedule);
/// // Feed the first 10 packets (the decode threshold of the small config).
/// let mut decoded = None;
/// for seq in 0..10u64 {
///     decoded = reassembler.accept(PacketId::new(seq), vec![seq as u8; 1316]);
/// }
/// let window = decoded.expect("threshold reached");
/// assert_eq!(window.data_packets().count(), 10);
/// ```
#[derive(Debug)]
pub struct StreamReassembler {
    schedule: StreamSchedule,
    /// An empty decoder for the stream's geometry; each window opens a clone.
    empty: WindowDecoder,
    /// In-flight decoders keyed by window index; windows complete roughly in
    /// publication order and stragglers are auto-abandoned once they fall
    /// [`StreamReassembler::MAX_WINDOW_LAG`] behind, so this stays small.
    pending: BTreeMap<u64, WindowDecoder>,
    /// Decoded windows at or above `horizon` (late duplicates are dropped).
    /// Entries below the horizon are pruned, and the horizon trails the
    /// newest window by at most [`StreamReassembler::MAX_WINDOW_LAG`], so the
    /// set stays bounded on unbounded streams.
    completed: BTreeSet<u64>,
    /// Windows below this index are finished — decoded or abandoned — and
    /// every late packet for them is dropped.
    horizon: u64,
    /// The highest window index seen so far.
    newest: u64,
    /// Running count of decoded windows.
    decoded: u64,
    /// Windows given up on (explicitly via
    /// [`StreamReassembler::abandon_before`], or automatically once they fell
    /// [`StreamReassembler::MAX_WINDOW_LAG`] behind the stream).
    abandoned: u64,
}

impl StreamReassembler {
    /// How many windows a straggler may trail the newest seen window before
    /// it is abandoned automatically. In a live stream a window this far
    /// behind (≈ 2 minutes at the paper's ~1.93 s/window) is long past any
    /// playout deadline; the bound keeps `pending` and `completed` finite
    /// even if the caller never invokes [`StreamReassembler::abandon_before`].
    pub const MAX_WINDOW_LAG: u64 = 64;

    /// Creates a reassembler for the given stream schedule.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's window geometry is not a Reed–Solomon
    /// geometry (see [`WindowDecoder::new`]).
    pub fn new(schedule: StreamSchedule) -> Self {
        StreamReassembler {
            empty: WindowDecoder::new(schedule.config().window),
            schedule,
            pending: BTreeMap::new(),
            completed: BTreeSet::new(),
            horizon: 0,
            newest: 0,
            decoded: 0,
            abandoned: 0,
        }
    }

    /// Number of windows currently buffering packets.
    pub fn pending_windows(&self) -> usize {
        self.pending.len()
    }

    /// Number of windows decoded so far.
    pub fn decoded_windows(&self) -> u64 {
        self.decoded
    }

    /// Number of windows dropped undecoded, whether explicitly via
    /// [`StreamReassembler::abandon_before`] or automatically after falling
    /// [`StreamReassembler::MAX_WINDOW_LAG`] windows behind.
    pub fn abandoned_windows(&self) -> u64 {
        self.abandoned
    }

    /// Whether `index` is already finished (decoded, or abandoned past the
    /// horizon).
    fn is_finished(&self, index: u64) -> bool {
        index < self.horizon || self.completed.contains(&index)
    }

    /// Advances the horizon over contiguously completed windows and prunes
    /// the set entries the new horizon makes redundant.
    fn advance_horizon(&mut self) {
        while self.completed.remove(&self.horizon) {
            self.horizon += 1;
        }
    }

    /// Offers an arriving packet payload.
    ///
    /// Packets past the end of the stream, payloads of the wrong size,
    /// duplicates and packets of windows already decoded or abandoned are
    /// ignored; pending windows more than
    /// [`StreamReassembler::MAX_WINDOW_LAG`] behind the newest seen window
    /// are abandoned automatically. Returns the decoded window when this
    /// packet pushes its window over the decode threshold.
    pub fn accept(&mut self, id: PacketId, payload: Vec<u8>) -> Option<DecodedWindow> {
        if payload.len() != self.schedule.config().window.packet_bytes {
            // A malformed/truncated payload must never reach the decoder:
            // mixed shard lengths would poison the window.
            return None;
        }
        let descriptor = self.schedule.packet(id)?;
        let index = descriptor.window.index();
        self.newest = self.newest.max(index);
        // Stragglers far behind the live edge can never meet a playout
        // deadline; abandoning them bounds memory without caller help.
        let cutoff = self.newest.saturating_sub(Self::MAX_WINDOW_LAG);
        if cutoff > self.horizon {
            self.abandon_before(WindowId::new(cutoff));
        }
        if self.is_finished(index) {
            return None;
        }
        let decoder = self
            .pending
            .entry(index)
            .or_insert_with(|| self.empty.clone());
        // A duplicate is ignored; it cannot complete a window that is still
        // pending.
        decoder.insert(descriptor.index_in_window, payload);
        if !decoder.is_decodable() {
            return None;
        }
        let mut decoder = self
            .pending
            .remove(&index)
            .expect("decoder was just inserted");
        let packets = decoder
            .decode()
            .expect("threshold of equal-length shards reached, decode cannot fail");
        self.completed.insert(index);
        self.advance_horizon();
        self.decoded += 1;
        Some(DecodedWindow {
            window: descriptor.window,
            packets,
        })
    }

    /// Drops a decoded window. Dropping it directly does the same; the repo
    /// benchmark's FEC probe still calls this (ROADMAP item 2(b)).
    pub fn recycle(&mut self, window: DecodedWindow) {
        drop(window);
    }

    /// Drops every pending window before `window` (its playout deadline has
    /// passed); late packets for the dropped range are ignored from now on.
    /// Returns how many pending windows were dropped.
    pub fn abandon_before(&mut self, window: WindowId) -> usize {
        let kept = self.pending.split_off(&window.index());
        let stale = std::mem::replace(&mut self.pending, kept).len();
        self.abandoned += stale as u64;
        if window.index() > self.horizon {
            self.horizon = window.index();
            // Entries the horizon jumped over are now redundant…
            self.completed = self.completed.split_off(&self.horizon);
            // …and it may now touch the out-of-order completed frontier.
            self.advance_horizon();
        }
        stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::StreamConfig;
    use heap_simnet::time::SimDuration;

    #[test]
    fn record_and_query() {
        let mut log = ReceiverLog::new(10);
        assert_eq!(log.total_packets(), 10);
        assert!(log.record(PacketId::new(0), SimTime::from_secs(1)));
        assert!(log.record(PacketId::new(9), SimTime::from_secs(2)));
        assert!(
            !log.record(PacketId::new(10), SimTime::from_secs(3)),
            "out of range"
        );
        assert!(
            !log.record(PacketId::new(0), SimTime::from_secs(4)),
            "duplicate"
        );
        assert_eq!(log.received_count(), 2);
        assert!(log.has(PacketId::new(9)));
        assert!(!log.has(PacketId::new(5)));
        assert_eq!(log.arrival(PacketId::new(0)), Some(SimTime::from_secs(1)));
        assert!((log.delivery_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(log.iter_received().count(), 2);
    }

    #[test]
    fn empty_log_has_zero_ratio() {
        let log = ReceiverLog::new(0);
        assert_eq!(log.delivery_ratio(), 0.0);
        assert_eq!(log.received_count(), 0);
    }

    #[test]
    fn arrivals_past_the_column_range_spill_exactly() {
        let edge = u64::from(u32::MAX);
        let times = [
            (4, SimTime::MAX),
            (1, SimTime::from_micros(edge - 2)),
            (2, SimTime::from_micros(edge - 1)),
            (0, SimTime::from_micros(edge)),
            (3, SimTime::ZERO),
        ];
        let mut log = ReceiverLog::new(6);
        for (seq, at) in times {
            assert!(log.record(PacketId::new(seq), at));
        }
        assert!(!log.record(PacketId::new(2), SimTime::ZERO), "duplicate");
        // u32::MAX - 2 µs is the last arrival the column holds itself.
        assert_eq!(log.arrivals.spill.len(), 3);
        for (seq, at) in times {
            assert_eq!(log.arrival(PacketId::new(seq)), Some(at), "packet {seq}");
            assert!(log.has(PacketId::new(seq)));
        }
        assert!(!log.has(PacketId::new(5)));
        let mut expected = times.to_vec();
        expected.sort_unstable_by_key(|&(seq, _)| seq);
        let received: Vec<(u64, SimTime)> =
            log.iter_received().map(|(id, at)| (id.seq(), at)).collect();
        assert_eq!(received, expected, "sequence order, spilled ones included");
        assert_eq!(log.received_count(), 5);
        assert_eq!(log.heap_bytes(), 6 * 4 + log.arrivals.spill.capacity() * 16);
    }

    #[test]
    fn a_paper_log_owns_four_bytes_per_packet() {
        let schedule = StreamSchedule::new(StreamConfig::paper(90), SimTime::from_secs(3));
        let mut log = ReceiverLog::for_schedule(&schedule);
        assert_eq!(log.heap_bytes(), 4 * 9_900);
        for p in schedule.iter() {
            log.record(p.id, p.published_at + SimDuration::from_secs(1));
        }
        assert_eq!(log.heap_bytes(), 4 * 9_900, "no spill inside 71 minutes");
    }

    #[test]
    fn a_column_of_the_schedule_length_moves_without_a_copy() {
        let mut log = ReceiverLog::new(10);
        log.record(PacketId::new(3), SimTime::from_secs(1));
        log.record(PacketId::new(4), SimTime::MAX);
        let column = log.arrivals.column.as_ptr();
        let kept = log.into_arrivals().into_resized(10);
        assert_eq!(kept.column.as_ptr(), column, "same allocation");
        assert_eq!(kept.get(3), Some(SimTime::from_secs(1)));
        assert_eq!(kept.get(4), Some(SimTime::MAX));
        // Any other length is a resized copy, as `resized` makes it.
        let cut = kept.into_resized(4);
        assert_eq!((cut.len(), cut.spill.len()), (4, 0));
        assert_eq!(cut.get(3), Some(SimTime::from_secs(1)));
    }

    use heap_fec::WindowEncoder;

    /// Deterministic pseudo-random payload bytes (no RNG dependency needed).
    fn window_payloads(config: &StreamConfig, window: u64) -> Vec<Vec<u8>> {
        let params = config.window;
        let data: Vec<Vec<u8>> = (0..params.data_packets)
            .map(|p| {
                (0..params.packet_bytes)
                    .map(|i| (window as usize * 131 + p * 31 + i * 7 + 13) as u8)
                    .collect()
            })
            .collect();
        WindowEncoder::new(params)
            .expect("valid geometry")
            .encode(&data)
            .expect("encode")
    }

    #[test]
    fn reassembler_decodes_lossy_windows() {
        let config = StreamConfig::small(3);
        let schedule = StreamSchedule::new(config, SimTime::ZERO);
        let mut reassembler = StreamReassembler::new(schedule);
        let per_window = config.window.total_packets() as u64;

        let mut decoded_count = 0;
        for w in 0..3u64 {
            let packets = window_payloads(&config, w);
            let mut decoded = None;
            for (idx, payload) in packets.iter().enumerate() {
                // Two source packets of every window are lost.
                if idx == 1 || idx == 4 {
                    continue;
                }
                let seq = w * per_window + idx as u64;
                let got = reassembler.accept(PacketId::new(seq), payload.clone());
                if let Some(win) = got {
                    assert!(decoded.is_none(), "window decoded once");
                    decoded = Some(win);
                }
            }
            let win = decoded.expect("enough packets arrived");
            assert_eq!(win.id().index(), w);
            let recovered: Vec<Vec<u8>> = win.data_packets().map(|p| p.to_vec()).collect();
            assert_eq!(
                recovered,
                packets[..config.window.data_packets].to_vec(),
                "window {w}"
            );
            reassembler.recycle(win);
            decoded_count += 1;
        }
        assert_eq!(decoded_count, 3);
        assert_eq!(reassembler.decoded_windows(), 3);
        assert_eq!(reassembler.pending_windows(), 0);
    }

    #[test]
    fn reassembler_ignores_duplicates_late_and_out_of_range_packets() {
        let config = StreamConfig::small(2);
        let schedule = StreamSchedule::new(config, SimTime::ZERO);
        let mut reassembler = StreamReassembler::new(schedule);
        let packets = window_payloads(&config, 0);

        // Past-the-end ids are ignored outright.
        assert!(reassembler
            .accept(PacketId::new(10_000), vec![0; 1316])
            .is_none());

        // Exactly the decode threshold completes the window...
        let threshold = config.window.decode_threshold();
        let mut decoded = None;
        for idx in 0..threshold {
            // A duplicate never double-counts.
            if idx == 2 {
                assert!(reassembler
                    .accept(PacketId::new(2), packets[2].clone())
                    .is_none());
            }
            decoded = reassembler.accept(PacketId::new(idx as u64), packets[idx].clone());
        }
        let win = decoded.expect("window 0 decoded");
        assert_eq!(win.id().index(), 0);
        reassembler.recycle(win);

        // ...and every further packet of the decoded window is dropped.
        assert!(reassembler
            .accept(PacketId::new(threshold as u64), packets[threshold].clone())
            .is_none());
        assert_eq!(reassembler.decoded_windows(), 1);
    }

    #[test]
    fn reassembler_rejects_wrong_length_payloads() {
        let config = StreamConfig::small(1);
        let schedule = StreamSchedule::new(config, SimTime::ZERO);
        let mut reassembler = StreamReassembler::new(schedule);
        let packets = window_payloads(&config, 0);
        let threshold = config.window.decode_threshold();

        // A truncated and an oversized payload are both dropped on arrival…
        assert!(reassembler
            .accept(PacketId::new(0), vec![1, 2, 3])
            .is_none());
        assert!(reassembler
            .accept(PacketId::new(1), vec![0; config.window.packet_bytes + 1])
            .is_none());
        assert_eq!(reassembler.pending_windows(), 0);

        // …so the window still decodes cleanly from well-formed packets.
        let mut decoded = None;
        for (idx, packet) in packets.iter().enumerate().take(threshold) {
            decoded = reassembler.accept(PacketId::new(idx as u64), packet.clone());
        }
        let win = decoded.expect("well-formed packets decode");
        let recovered: Vec<Vec<u8>> = win.data_packets().map(|p| p.to_vec()).collect();
        assert_eq!(recovered, packets[..config.window.data_packets].to_vec());
        reassembler.recycle(win);
    }

    #[test]
    fn late_packets_do_not_resurrect_abandoned_windows() {
        let config = StreamConfig::small(3);
        let schedule = StreamSchedule::new(config, SimTime::ZERO);
        let mut reassembler = StreamReassembler::new(schedule);
        let packets = window_payloads(&config, 0);

        // A couple of packets of window 0, then its deadline passes.
        for (idx, packet) in packets.iter().enumerate().take(2) {
            reassembler.accept(PacketId::new(idx as u64), packet.clone());
        }
        assert_eq!(reassembler.abandon_before(WindowId::new(1)), 1);
        assert_eq!(reassembler.abandoned_windows(), 1);

        // Every late window-0 packet — even a full decodable set — is dropped.
        for (idx, p) in packets.iter().enumerate() {
            assert!(reassembler
                .accept(PacketId::new(idx as u64), p.clone())
                .is_none());
        }
        assert_eq!(reassembler.pending_windows(), 0, "no resurrected decoder");
        assert_eq!(reassembler.decoded_windows(), 0);
        assert_eq!(reassembler.abandoned_windows(), 1, "not double-counted");
    }

    #[test]
    fn completed_set_stays_bounded_as_the_horizon_advances() {
        let config = StreamConfig::small(3);
        let schedule = StreamSchedule::new(config, SimTime::ZERO);
        let mut reassembler = StreamReassembler::new(schedule);
        let per_window = config.window.total_packets() as u64;
        let threshold = config.window.decode_threshold();

        // Decode the windows out of order: 1, 2, then 0.
        for w in [1u64, 2, 0] {
            let packets = window_payloads(&config, w);
            let mut decoded = None;
            for (idx, packet) in packets.iter().enumerate().take(threshold) {
                let seq = w * per_window + idx as u64;
                decoded = reassembler.accept(PacketId::new(seq), packet.clone());
            }
            let win = decoded.expect("window decodes");
            assert_eq!(win.id().index(), w);
            reassembler.recycle(win);
        }
        assert_eq!(reassembler.decoded_windows(), 3);
        // Window 0 closed the gap: the whole frontier collapsed into the
        // horizon and the completed set is empty again.
        assert_eq!(reassembler.completed.len(), 0);
        assert_eq!(reassembler.horizon, 3);
        // Late duplicates for pruned windows are still rejected.
        let packets = window_payloads(&config, 1);
        assert!(reassembler
            .accept(PacketId::new(per_window), packets[0].clone())
            .is_none());
    }

    #[test]
    fn stragglers_are_auto_abandoned_beyond_the_window_lag_bound() {
        let n_windows = StreamReassembler::MAX_WINDOW_LAG + 10;
        let config = StreamConfig::small(n_windows);
        let schedule = StreamSchedule::new(config, SimTime::ZERO);
        let mut reassembler = StreamReassembler::new(schedule);
        let per_window = config.window.total_packets() as u64;

        // Window 0 receives too few packets to ever decode, and the caller
        // never calls abandon_before.
        let w0 = window_payloads(&config, 0);
        for (idx, packet) in w0.iter().enumerate().take(2) {
            reassembler.accept(PacketId::new(idx as u64), packet.clone());
        }
        assert_eq!(reassembler.pending_windows(), 1);

        // The stream advances far past it: one packet per later window.
        let far = StreamReassembler::MAX_WINDOW_LAG + 5;
        for w in 1..=far {
            let packets = window_payloads(&config, w);
            reassembler.accept(PacketId::new(w * per_window), packets[0].clone());
        }
        // Window 0 (and every other window beyond the lag bound) was dropped
        // without any abandon_before call.
        assert!(reassembler.abandoned_windows() >= 1, "straggler abandoned");
        assert!(
            reassembler.pending_windows() as u64 <= StreamReassembler::MAX_WINDOW_LAG + 1,
            "pending stays bounded"
        );
        // Late packets for the dropped straggler stay dropped.
        for (idx, p) in w0.iter().enumerate() {
            assert!(reassembler
                .accept(PacketId::new(idx as u64), p.clone())
                .is_none());
        }
        assert_eq!(reassembler.decoded_windows(), 0);
    }

    #[test]
    fn reassembler_abandons_stale_windows() {
        let config = StreamConfig::small(3);
        let schedule = StreamSchedule::new(config, SimTime::ZERO);
        let mut reassembler = StreamReassembler::new(schedule);
        let per_window = config.window.total_packets() as u64;

        // A few packets of windows 0 and 1, not enough to decode either.
        for w in 0..2u64 {
            let packets = window_payloads(&config, w);
            for (idx, packet) in packets.iter().enumerate().take(3) {
                let seq = w * per_window + idx as u64;
                assert!(reassembler
                    .accept(PacketId::new(seq), packet.clone())
                    .is_none());
            }
        }
        assert_eq!(reassembler.pending_windows(), 2);
        // Playout reached window 2: both stale windows are dropped.
        assert_eq!(reassembler.abandon_before(WindowId::new(2)), 2);
        assert_eq!(reassembler.pending_windows(), 0);
        assert_eq!(reassembler.abandoned_windows(), 2);
    }

    #[test]
    fn window_arrivals_follow_schedule() {
        let schedule = StreamSchedule::new(StreamConfig::small(2), SimTime::ZERO);
        let mut log = ReceiverLog::for_schedule(&schedule);
        assert_eq!(log.total_packets(), 24);
        // Receive every packet of window 1, none of window 0.
        for seq in 12..24 {
            log.record(PacketId::new(seq), SimTime::from_secs(seq));
        }
        let w0 = log.window_arrivals(&schedule, WindowId::new(0));
        assert_eq!(w0.len(), 12);
        assert!(w0.iter().all(|a| a.is_none()));
        let w1 = log.window_arrivals(&schedule, WindowId::new(1));
        assert!(w1.iter().all(|a| a.is_some()));
        // Out-of-range windows yield all-None entries rather than panicking.
        let w5 = log.window_arrivals(&schedule, WindowId::new(5));
        assert!(w5.iter().all(|a| a.is_none()));
    }
}
