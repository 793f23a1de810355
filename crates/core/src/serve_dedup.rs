//! Serve-side duplicate suppression: a node does not re-serve a packet it
//! served the same requester less than [`SERVE_DEDUP_WINDOW`] ago. A
//! requester cannot tell a lost serve from one still queued, so without this
//! a retransmitted request duplicates payload exactly under congestion.

use heap_simnet::node::NodeId;
use heap_simnet::time::{SimDuration, SimTime};
use heap_streaming::packet::PacketId;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-and-fold hasher for `(requester, packet)` keys.
///
/// The sets hold a hundred or two keys and every requested id costs up to
/// three lookups, so the hash function itself is the cost; this one is a
/// shift and one widening multiply. The keys are the simulator's own
/// node ids and sequence numbers, never input from outside the program, so
/// they need no protection against crafted collisions.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    /// A key goes in the high half, so that the product's middle bits,
    /// which depend on every key bit, become the hash's low bits.
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word) << 32);
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.rotate_left(32) ^ word;
    }

    /// Both halves of the 128-bit product, so that the low bits (the bucket)
    /// and the top seven (the control byte) each depend on every key bit.
    fn finish(&self) -> u64 {
        let product = u128::from(self.0) * 0x9E37_79B9_7F4A_7C15;
        product as u64 ^ (product >> 64) as u64
    }
}

type KeySet = HashSet<u32, BuildHasherDefault<KeyHasher>>;

/// The length of one dedup generation. A served `(requester, packet)` pair
/// suppresses a re-serve for one to two generations, 1.5–3 s (see
/// [`ServeDedup`]), which can outlast the paper's 2 s retransmission period,
/// so a request retransmitted after a real loss may be refused once. ROADMAP
/// item 16 tracks the contract this window should keep.
pub(crate) const SERVE_DEDUP_WINDOW: SimDuration = SimDuration::from_millis(1_500);

/// The `(requester, packet)` pairs a node served during the current and the
/// previous dedup generation, so a retransmitted request does not duplicate
/// payload that is merely queued.
///
/// A generation ends at the first lookup at least one window after it began;
/// a pair is therefore remembered for between one and two windows, and the
/// sets are bounded to two windows of serves. The sets are only probed and
/// inserted into, never iterated, so their order cannot reach behaviour.
///
/// A pair is one `u32` key, `requester × stream_packets + seq`: distinct for
/// every requester below `n` and every packet of the stream as long as
/// `n × stream_packets ≤ 2³²`, the bound [`ConfigError::pair_space`] checks
/// before a run is built. A table bucket is then 5 bytes.
///
/// [`ConfigError::pair_space`]: crate::config::ConfigError::pair_space
#[derive(Debug, Clone)]
pub(crate) struct ServeDedup {
    recent: KeySet,
    prev: KeySet,
    generation_start: SimTime,
    stream_packets: u64,
}

impl ServeDedup {
    /// Dedup for a node whose stream has `stream_packets` packets.
    pub(crate) fn new(stream_packets: u64) -> Self {
        ServeDedup {
            recent: KeySet::default(),
            prev: KeySet::default(),
            generation_start: SimTime::ZERO,
            stream_packets,
        }
    }

    /// The key of a served pair; `id` must be a packet of the stream.
    fn key(&self, requester: NodeId, id: PacketId) -> u32 {
        debug_assert!(
            id.seq() < self.stream_packets,
            "{id:?} is not in the stream"
        );
        let key = u64::from(requester.as_u32()) * self.stream_packets + id.seq();
        debug_assert!(
            key <= u64::from(u32::MAX),
            "{requester:?} × {id:?} past 2^32"
        );
        key as u32
    }

    /// Whether `id` was served to `requester` within the dedup window.
    pub(crate) fn recently_served(
        &mut self,
        requester: NodeId,
        id: PacketId,
        now: SimTime,
    ) -> bool {
        // Rotate generations so membership is bounded to ~2 windows of serves.
        // The sets trade places and keep their tables, so a steady serve rate
        // stops allocating after the first rotations. The emptied table is
        // trimmed to what the generation just ended needed, so a burst of
        // serves does not pin its table for the rest of the run. (Reserving
        // that much up front instead would save a few growth steps per node
        // but hold two full tables from the start of every generation.)
        if now.saturating_since(self.generation_start) >= SERVE_DEDUP_WINDOW {
            std::mem::swap(&mut self.prev, &mut self.recent);
            self.recent.clear();
            self.recent.shrink_to(self.prev.len());
            self.generation_start = now;
        }
        // An id outside the stream was never served, and its key would be
        // another requester's.
        if id.seq() >= self.stream_packets {
            return false;
        }
        let key = self.key(requester, id);
        self.recent.contains(&key) || self.prev.contains(&key)
    }

    /// Records that `id`, a packet of the stream, was served to `requester`.
    pub(crate) fn mark_served(&mut self, requester: NodeId, id: PacketId) {
        self.recent.insert(self.key(requester, id));
    }

    /// Resident heap bytes of both tables, worked out from the standard
    /// table's layout since it reports no byte count: each bucket's key and
    /// control byte, and one trailing group of 16 control bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        [&self.recent, &self.prev]
            .into_iter()
            .map(|set| match set.capacity() {
                0 => 0,
                capacity => table_buckets(capacity) * 5 + 16,
            })
            .sum()
    }
}

/// The bucket count behind a table's `capacity()`: a table of up to eight
/// buckets holds one key fewer than it has buckets, a larger one 7/8 of them.
fn table_buckets(capacity: usize) -> usize {
    if capacity < 8 {
        capacity + 1
    } else {
        capacity / 7 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::hash::BuildHasher;

    /// Packets in the stream of the unit tests' nodes.
    const STREAM: u64 = 1_000;

    fn ms(millis: u64) -> SimTime {
        SimTime::from_millis(millis)
    }

    #[test]
    fn a_serve_is_suppressed_until_the_second_rotation() {
        let (peer, id) = (NodeId::new(3), PacketId::new(40));
        let mut dedup = ServeDedup::new(STREAM);
        // Generation 0 began at time zero; the lookup at 1 s stays in it.
        assert!(!dedup.recently_served(peer, id, ms(1_000)));
        dedup.mark_served(peer, id);
        assert!(dedup.recently_served(peer, id, ms(1_000)));
        assert!(dedup.recently_served(peer, id, ms(1_499)));
        // Only the pair itself is suppressed.
        assert!(!dedup.recently_served(NodeId::new(4), id, ms(1_499)));
        assert!(!dedup.recently_served(peer, PacketId::new(41), ms(1_499)));
        // First rotation: the pair moves to the previous generation.
        assert!(dedup.recently_served(peer, id, ms(1_600)));
        assert!(dedup.recently_served(peer, id, ms(3_099)));
        // Second rotation, one window after the first: forgotten.
        assert!(!dedup.recently_served(peer, id, ms(3_100)));
        assert!(!dedup.recently_served(peer, id, ms(3_101)));
    }

    #[test]
    fn rotation_happens_on_the_first_lookup_a_window_past_the_generation_start() {
        let peer = NodeId::new(1);
        let mut dedup = ServeDedup::new(STREAM);
        // One tick short of the window: no rotation.
        assert!(!dedup.recently_served(peer, PacketId::new(0), ms(1_499)));
        assert_eq!(dedup.generation_start, SimTime::ZERO);
        dedup.mark_served(peer, PacketId::new(0));
        // No lookup for a long while: the generation start is the instant
        // of the lookup that rotates, not a multiple of the window.
        assert!(dedup.recently_served(peer, PacketId::new(0), ms(5_000)));
        assert_eq!(dedup.generation_start, ms(5_000));
        assert_eq!((dedup.recent.len(), dedup.prev.len()), (0, 1));
        // Marking does not rotate, whatever the time since.
        dedup.mark_served(peer, PacketId::new(1));
        assert_eq!((dedup.recent.len(), dedup.prev.len()), (1, 1));
        // Exactly one window later the next lookup rotates again and drops
        // the older generation.
        assert!(!dedup.recently_served(peer, PacketId::new(0), ms(6_500)));
        assert!(dedup.recently_served(peer, PacketId::new(1), ms(6_500)));
        assert_eq!(dedup.generation_start, ms(6_500));
        assert_eq!((dedup.recent.len(), dedup.prev.len()), (0, 1));
    }

    #[test]
    fn rotation_keeps_both_tables() {
        let peer = NodeId::new(2);
        let mut dedup = ServeDedup::new(STREAM);
        for seq in 0..100 {
            dedup.mark_served(peer, PacketId::new(seq));
        }
        let grown = dedup.recent.capacity();
        // The full set becomes the previous generation; the next one starts
        // in the other table.
        assert!(!dedup.recently_served(peer, PacketId::new(500), ms(1_500)));
        assert_eq!(dedup.prev.capacity(), grown);
        for seq in 100..200 {
            dedup.mark_served(peer, PacketId::new(seq));
        }
        // The second rotation hands the first table back, emptied; the
        // generation just ended was as large, so it keeps its size.
        assert!(!dedup.recently_served(peer, PacketId::new(0), ms(3_000)));
        assert!(dedup.recent.is_empty());
        assert_eq!(dedup.recent.capacity(), grown);
        assert!(dedup.recently_served(peer, PacketId::new(150), ms(3_000)));
        // After a quiet generation the burst's table is trimmed.
        dedup.mark_served(peer, PacketId::new(300));
        assert!(!dedup.recently_served(peer, PacketId::new(0), ms(4_500)));
        assert!(!dedup.recently_served(peer, PacketId::new(0), ms(6_000)));
        assert!(dedup.recent.capacity() < grown);
    }

    /// The dedup as the tuples it stands for: `(requester, seq)` pairs in
    /// the same two-generation rotation, with no key to alias.
    struct TupleModel {
        recent: HashSet<(NodeId, u64)>,
        prev: HashSet<(NodeId, u64)>,
        generation_start: SimTime,
    }

    impl TupleModel {
        fn recently_served(&mut self, requester: NodeId, id: PacketId, now: SimTime) -> bool {
            if now.saturating_since(self.generation_start) >= SERVE_DEDUP_WINDOW {
                self.prev = std::mem::take(&mut self.recent);
                self.generation_start = now;
            }
            let pair = (requester, id.seq());
            self.recent.contains(&pair) || self.prev.contains(&pair)
        }
    }

    /// A number below `len`, one of the first or last three half the time.
    fn edge(rng: &mut SmallRng, len: u64) -> u64 {
        match rng.gen_range(0..4) {
            0 => rng.gen_range(0..len.min(3)),
            1 => len - 1 - rng.gen_range(0..len.min(3)),
            _ => rng.gen_range(0..len),
        }
    }

    /// Drives a node of an `n`-node run streaming `packets` packets and the
    /// tuple model through the same random serves and lookups. Requesters
    /// and sequence numbers crowd the edges of their ranges (`n − 1` with
    /// packet `packets − 1` included), and every other lookup is a served
    /// pair's alias: the requester before it, at a sequence number one
    /// stream past it, an id outside the stream whose key would collide.
    fn drive(n: u32, packets: u64, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut dedup = ServeDedup::new(packets);
        let mut model = TupleModel {
            recent: HashSet::new(),
            prev: HashSet::new(),
            generation_start: SimTime::ZERO,
        };
        let mut served = Vec::new();
        let mut now = SimTime::ZERO;
        for step in 0..400 {
            now += SimDuration::from_millis(rng.gen_range(0..400));
            let requester = NodeId::new(edge(&mut rng, u64::from(n)) as u32);
            let id = PacketId::new(edge(&mut rng, packets));
            if rng.gen_bool(0.5) {
                dedup.mark_served(requester, id);
                model.recent.insert((requester, id.seq()));
                served.push((requester, id));
                continue;
            }
            let (requester, id) = match served.last() {
                Some(&(peer, id)) if peer.as_u32() > 0 && rng.gen_bool(0.5) => (
                    NodeId::new(peer.as_u32() - 1),
                    PacketId::new(id.seq() + packets),
                ),
                Some(&pair) if rng.gen_bool(0.5) => pair,
                _ => (requester, id),
            };
            assert_eq!(
                dedup.recently_served(requester, id, now),
                model.recently_served(requester, id, now),
                "step {step}: {requester:?} {id:?} at {now:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// At n × packets = 2³² (and well inside it), the 32-bit key keeps
        /// every pair apart: the dedup answers as the tuples do.
        #[test]
        fn the_32_bit_key_answers_as_the_tuples_do(seed in 0u64..1_000_000) {
            let shapes = [(2, 1 << 31), (1 << 16, 1 << 16), (1 << 31, 2), (3, 5), (271, 9_900)];
            for (n, packets) in shapes {
                drive(n, packets, seed);
            }
        }
    }

    #[test]
    fn the_last_pair_takes_the_last_key() {
        // n × packets = 2³²: requester n − 1 with packet packets − 1 is
        // u32::MAX, and its neighbours stay apart.
        let (n, packets) = (1u32 << 16, 1u64 << 16);
        let dedup = ServeDedup::new(packets);
        let last = (NodeId::new(n - 1), PacketId::new(packets - 1));
        assert_eq!(dedup.key(last.0, last.1), u32::MAX);
        assert_eq!(
            dedup.key(NodeId::new(n - 1), PacketId::new(0)),
            u32::MAX - 0xffff
        );
        assert_eq!(dedup.key(NodeId::new(n - 2), last.1), u32::MAX - 0x1_0000);
        let mut dedup = dedup;
        dedup.mark_served(last.0, last.1);
        assert!(dedup.recently_served(last.0, last.1, ms(1)));
        assert!(!dedup.recently_served(NodeId::new(0), PacketId::new(0), ms(1)));
        // Past the stream: never served, whatever its key would be.
        assert!(!dedup.recently_served(NodeId::new(n - 2), PacketId::new(2 * packets - 1), ms(1)));
        assert!(!dedup.recently_served(last.0, PacketId::new(u64::MAX), ms(1)));
    }

    #[test]
    fn heap_bytes_counts_both_tables() {
        let mut dedup = ServeDedup::new(STREAM);
        assert_eq!(dedup.heap_bytes(), 0);
        dedup.mark_served(NodeId::new(1), PacketId::new(1));
        // Four buckets of a 4-byte key and a control byte, plus a group of
        // trailing control bytes.
        assert_eq!(dedup.heap_bytes(), 4 * 5 + 16);
        for seq in 2..=100 {
            dedup.mark_served(NodeId::new(1), PacketId::new(seq));
        }
        assert_eq!(dedup.heap_bytes(), 128 * 5 + 16);
        // A rotation moves the table to the previous generation; the next
        // one starts in the other table, not allocated yet.
        assert!(!dedup.recently_served(NodeId::new(1), PacketId::new(0), ms(1_500)));
        assert_eq!(dedup.heap_bytes(), 128 * 5 + 16);
        dedup.mark_served(NodeId::new(1), PacketId::new(1));
        assert_eq!(dedup.heap_bytes(), 128 * 5 + 16 + 4 * 5 + 16);
    }

    /// Keys per bucket over the paper-scale grid, bucketed by `bucket_of`.
    fn fullest_bucket(buckets: usize, bucket_of: impl Fn(u64) -> usize) -> (usize, f64) {
        const REQUESTERS: u32 = 271;
        const SEQS: u64 = 512;
        let build = BuildHasherDefault::<KeyHasher>::default();
        // The paper's 90 windows of 110 packets.
        let dedup = ServeDedup::new(9_900);
        let mut load = vec![0usize; buckets];
        for requester in 0..REQUESTERS {
            // A window's worth of consecutive packets, deep into the stream.
            for seq in 5_000..5_000 + SEQS {
                let key = dedup.key(NodeId::new(requester), PacketId::new(seq));
                load[bucket_of(build.hash_one(key))] += 1;
            }
        }
        let mean = f64::from(REQUESTERS) * SEQS as f64 / buckets as f64;
        (*load.iter().max().expect("some bucket"), mean)
    }

    #[test]
    fn the_hasher_spreads_a_paper_scale_key_grid() {
        // The table sizes the sets really have, and hashbrown's control
        // byte: within a quarter of the mean.
        let (low8, mean) = fullest_bucket(1 << 8, |h| (h & 0xff) as usize);
        assert!(low8 as f64 <= 1.25 * mean, "low 8 bits: {low8} vs {mean}");
        let (top7, mean) = fullest_bucket(1 << 7, |h| (h >> 57) as usize);
        assert!(top7 as f64 <= 1.25 * mean, "top 7 bits: {top7} vs {mean}");
        // At 2.1 keys per bucket a uniformly random function's fullest
        // bucket holds 10 or 11.
        let (low16, mean) = fullest_bucket(1 << 16, |h| (h & 0xffff) as usize);
        assert!(low16 as f64 <= 6.0 * mean, "low 16 bits: {low16} vs {mean}");
    }

    #[test]
    fn the_byte_fallback_still_separates_keys() {
        let hash = |bytes: &[u8]| {
            let mut hasher = KeyHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(hash(&[1, 2]), hash(&[2, 1]));
        assert_ne!(hash(&[1]), hash(&[1, 0]));
    }
}
