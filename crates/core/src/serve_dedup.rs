//! Serve-side duplicate suppression: a node does not re-serve a packet it
//! served the same requester less than [`SERVE_DEDUP_WINDOW`] ago. A
//! requester cannot tell a lost serve from one still queued, so without this
//! a retransmitted request duplicates payload exactly under congestion.

use heap_simnet::node::NodeId;
use heap_simnet::time::{SimDuration, SimTime};
use heap_streaming::packet::PacketId;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-and-fold hasher for packed `(requester, packet seq)` keys.
///
/// The sets hold a hundred or two keys and every requested id costs up to
/// three lookups, so the hash function itself is the cost; this one is a
/// rotate, an xor and one widening multiply. The keys are the simulator's own
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

    /// A `(u32, u64)` tuple, written as its two fields, hashes exactly as
    /// its [`pack`]ed key does.
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
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

type KeySet = HashSet<u64, BuildHasherDefault<KeyHasher>>;

/// A served pair as one key: the requester in the high half, the packet's
/// sequence number in the low one. `Scenario::validate` keeps streams below
/// 2³² packets, so the halves never overlap; a slot is 8 bytes instead of
/// the tuple's 16.
fn pack(requester: NodeId, id: PacketId) -> u64 {
    debug_assert!(id.seq() < 1 << 32, "packet {} past 2^32", id.seq());
    u64::from(requester.as_u32()) << 32 | id.seq()
}

/// How long a served `(requester, packet)` pair suppresses a re-serve: less
/// than the paper's 2 s retransmission period, so a request retransmitted
/// after a real loss is served again.
pub(crate) const SERVE_DEDUP_WINDOW: SimDuration = SimDuration::from_millis(1_500);

/// The `(requester, packet)` pairs a node served during the current and the
/// previous dedup generation, so a retransmitted request does not duplicate
/// payload that is merely queued.
///
/// A generation ends at the first lookup at least one window after it began;
/// a pair is therefore remembered for between one and two windows, and the
/// sets are bounded to two windows of serves. The sets are only probed and
/// inserted into, never iterated, so their order cannot reach behaviour.
#[derive(Debug, Clone)]
pub(crate) struct ServeDedup {
    recent: KeySet,
    prev: KeySet,
    generation_start: SimTime,
}

impl ServeDedup {
    pub(crate) fn new() -> Self {
        ServeDedup {
            recent: KeySet::default(),
            prev: KeySet::default(),
            generation_start: SimTime::ZERO,
        }
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
        let key = pack(requester, id);
        self.recent.contains(&key) || self.prev.contains(&key)
    }

    /// Records that `id` was served to `requester`.
    pub(crate) fn mark_served(&mut self, requester: NodeId, id: PacketId) {
        self.recent.insert(pack(requester, id));
    }

    /// Resident heap bytes of both tables, worked out from the standard
    /// table's layout since it reports no byte count: each bucket's key and
    /// control byte, and one trailing group of 16 control bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        [&self.recent, &self.prev]
            .into_iter()
            .map(|set| match set.capacity() {
                0 => 0,
                capacity => table_buckets(capacity) * 9 + 16,
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
    use std::hash::BuildHasher;

    fn ms(millis: u64) -> SimTime {
        SimTime::from_millis(millis)
    }

    #[test]
    fn a_serve_is_suppressed_until_the_second_rotation() {
        let (peer, id) = (NodeId::new(3), PacketId::new(40));
        let mut dedup = ServeDedup::new();
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
        let mut dedup = ServeDedup::new();
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
        let mut dedup = ServeDedup::new();
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

    #[test]
    fn the_packed_key_keeps_pairs_apart_and_hashes_as_the_tuple_did() {
        let build = BuildHasherDefault::<KeyHasher>::default();
        let last = PacketId::new(u64::from(u32::MAX));
        let pairs = [
            (NodeId::new(0), PacketId::new(0)),
            (NodeId::new(0), last),
            (NodeId::new(1), PacketId::new(0)),
            (NodeId::new(1), last),
            (NodeId::new(u32::MAX), last),
        ];
        for (i, &(requester, id)) in pairs.iter().enumerate() {
            let key = pack(requester, id);
            let tuple = (requester.as_u32(), id.seq());
            assert_eq!(
                (key >> 32, key & 0xffff_ffff),
                (u64::from(tuple.0), tuple.1)
            );
            assert_eq!(build.hash_one(key), build.hash_one(tuple), "{tuple:?}");
            for &(other, other_id) in &pairs[i + 1..] {
                assert_ne!(key, pack(other, other_id), "{tuple:?}");
            }
        }
        // At the last sequence number, a serve to one requester does not
        // suppress the next requester's first packet.
        let mut dedup = ServeDedup::new();
        dedup.mark_served(NodeId::new(0), last);
        assert!(dedup.recently_served(NodeId::new(0), last, ms(1)));
        assert!(!dedup.recently_served(NodeId::new(1), PacketId::new(0), ms(1)));
        assert!(!dedup.recently_served(NodeId::new(1), last, ms(1)));
    }

    #[test]
    fn heap_bytes_counts_both_tables() {
        let mut dedup = ServeDedup::new();
        assert_eq!(dedup.heap_bytes(), 0);
        dedup.mark_served(NodeId::new(1), PacketId::new(1));
        // Four buckets of an 8-byte key and a control byte, plus a group
        // of trailing control bytes.
        assert_eq!(dedup.heap_bytes(), 4 * 9 + 16);
        for seq in 2..=100 {
            dedup.mark_served(NodeId::new(1), PacketId::new(seq));
        }
        assert_eq!(dedup.heap_bytes(), 128 * 9 + 16);
        // A rotation moves the table to the previous generation; the next
        // one starts in the other table, not allocated yet.
        assert!(!dedup.recently_served(NodeId::new(1), PacketId::new(0), ms(1_500)));
        assert_eq!(dedup.heap_bytes(), 128 * 9 + 16);
        dedup.mark_served(NodeId::new(1), PacketId::new(1));
        assert_eq!(dedup.heap_bytes(), 128 * 9 + 16 + 4 * 9 + 16);
    }

    /// Keys per bucket over the paper-scale grid, bucketed by `bucket_of`.
    fn fullest_bucket(buckets: usize, bucket_of: impl Fn(u64) -> usize) -> (usize, f64) {
        const REQUESTERS: u32 = 271;
        const SEQS: u64 = 512;
        let build = BuildHasherDefault::<KeyHasher>::default();
        let mut load = vec![0usize; buckets];
        for requester in 0..REQUESTERS {
            // A window's worth of consecutive packets, deep into the stream.
            for seq in 20_000..20_000 + SEQS {
                let key = pack(NodeId::new(requester), PacketId::new(seq));
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
