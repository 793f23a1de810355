//! Systematic Reed–Solomon erasure coding.
//!
//! The encoder is built from a `(k+m) × k` Vandermonde matrix normalised so
//! that its top `k × k` block is the identity: the first `k` output shards
//! are the data shards verbatim (systematic), the remaining `m` are parity.
//! Any `k` of the `k+m` shards suffice to reconstruct all data shards.

use crate::gf256;
use crate::matrix::Matrix;
use std::collections::HashMap;
use std::fmt;

/// Errors returned by [`ReedSolomon`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Fewer shards than data shards are present; reconstruction is impossible.
    NotEnoughShards {
        /// Shards present.
        present: usize,
        /// Shards required (the number of data shards).
        required: usize,
    },
    /// The number of shards handed to an operation does not match the codec.
    WrongShardCount {
        /// Shards provided.
        provided: usize,
        /// Shards expected.
        expected: usize,
    },
    /// Shards have inconsistent lengths.
    ShardLengthMismatch,
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::NotEnoughShards { present, required } => write!(
                f,
                "not enough shards to reconstruct: {present} present, {required} required"
            ),
            RsError::WrongShardCount { provided, expected } => write!(
                f,
                "wrong number of shards: {provided} provided, {expected} expected"
            ),
            RsError::ShardLengthMismatch => write!(f, "shards have inconsistent lengths"),
        }
    }
}

impl std::error::Error for RsError {}

/// Reusable scratch state for repeated Reed–Solomon reconstructions.
///
/// Decoding a window from scratch pays three hidden costs per call: building
/// a fresh codec (a `(k+m)×k` Vandermonde construction plus a `k×k`
/// Gauss–Jordan inversion — cubic in `k`), inverting the decode submatrix for
/// the observed erasure pattern, and allocating an output buffer per missing
/// shard. A `DecodeWorkspace` amortises all three across calls:
///
/// * the codec is cached per geometry,
/// * inverted decode matrices are cached keyed by the set of rows used
///   (bounded by [`DecodeWorkspace::MAX_CACHED_INVERSES`]; typical loss
///   patterns in a stream repeat heavily),
/// * shard buffers recovered from decoded windows are pooled and reused.
///
/// A workspace is cheap to create but only pays off when reused; keep one
/// per receiving pipeline (it is not `Sync` — use one per thread).
///
/// # Examples
///
/// ```
/// use heap_fec::{DecodeWorkspace, ReedSolomon};
///
/// let rs = ReedSolomon::new(4, 2).unwrap();
/// let data: Vec<Vec<u8>> = vec![vec![1, 2], vec![3, 4], vec![5, 6], vec![7, 8]];
/// let parity = rs.encode(&data).unwrap();
/// let mut ws = DecodeWorkspace::new();
/// for _ in 0..10 {
///     let mut shards: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
///     shards.extend(parity.iter().cloned().map(Some));
///     shards[0] = None;
///     shards[5] = None;
///     rs.reconstruct_with(&mut shards, &mut ws).unwrap();
///     assert_eq!(shards[0].as_deref(), Some(&[1u8, 2][..]));
/// }
/// assert_eq!(ws.cached_inverses(), 1); // same erasure pattern every time
/// ```
#[derive(Debug, Default)]
pub struct DecodeWorkspace {
    /// Geometry `(data_shards, parity_shards)` the caches are valid for.
    geometry: Option<(usize, usize)>,
    /// Codec cached for [`DecodeWorkspace::reconstruct`].
    codec: Option<ReedSolomon>,
    /// Inverted decode matrices keyed by the encode-matrix rows used.
    inverses: HashMap<Vec<usize>, Matrix>,
    /// Recycled shard buffers, handed out by [`DecodeWorkspace::take_buffer`].
    buffers: Vec<Vec<u8>>,
}

impl DecodeWorkspace {
    /// Upper bound on cached inverted matrices; the cache is cleared when a
    /// new pattern would exceed it (each paper-geometry inverse is ~10 KiB).
    pub const MAX_CACHED_INVERSES: usize = 512;

    /// Upper bound on pooled shard buffers.
    const MAX_POOLED_BUFFERS: usize = 512;

    /// Creates an empty workspace.
    pub fn new() -> Self {
        DecodeWorkspace::default()
    }

    /// Number of inverted decode matrices currently cached.
    pub fn cached_inverses(&self) -> usize {
        self.inverses.len()
    }

    /// Number of shard buffers currently pooled.
    pub fn pooled_buffers(&self) -> usize {
        self.buffers.len()
    }

    /// Reconstructs `shards` for the given geometry using a codec cached in
    /// the workspace (built on first use, reused afterwards).
    ///
    /// # Errors
    ///
    /// Same as [`ReedSolomon::reconstruct`].
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (zero shard counts or more than 256
    /// total shards).
    pub fn reconstruct(
        &mut self,
        data_shards: usize,
        parity_shards: usize,
        shards: &mut [Option<Vec<u8>>],
    ) -> Result<(), RsError> {
        self.bind_geometry(data_shards, parity_shards);
        let codec = match self.codec.take() {
            Some(codec) => codec,
            None => ReedSolomon::new(data_shards, parity_shards)
                .expect("workspace geometry must be a valid Reed-Solomon geometry"),
        };
        // The codec is moved out while reconstructing so the workspace can be
        // borrowed mutably for buffers and the inverse cache, then put back.
        let result = codec.reconstruct_with(shards, self);
        self.codec = Some(codec);
        result
    }

    /// Returns a shard buffer to the pool so a later reconstruction can reuse
    /// it instead of allocating.
    pub fn recycle(&mut self, buffer: Vec<u8>) {
        if self.buffers.len() < Self::MAX_POOLED_BUFFERS {
            self.buffers.push(buffer);
        }
    }

    /// Drops caches that are only valid for one geometry when the geometry
    /// changes (the buffer pool survives — buffers are length-agnostic).
    fn bind_geometry(&mut self, data_shards: usize, parity_shards: usize) {
        if self.geometry != Some((data_shards, parity_shards)) {
            self.geometry = Some((data_shards, parity_shards));
            self.codec = None;
            self.inverses.clear();
        }
    }

    /// A zeroed buffer of the given length, pooled if possible.
    fn take_buffer(&mut self, len: usize) -> Vec<u8> {
        let mut buffer = self.buffers.pop().unwrap_or_default();
        buffer.clear();
        buffer.resize(len, 0);
        buffer
    }

    /// The cached inverse of the `use_rows` submatrix of `encode`, computing
    /// and caching it on first sight of this row set. A cache hit performs no
    /// allocation: the lookup borrows `use_rows`, and the key is only cloned
    /// on a miss.
    fn inverse_for(&mut self, encode: &Matrix, use_rows: &[usize]) -> &Matrix {
        if !self.inverses.contains_key(use_rows) {
            if self.inverses.len() >= Self::MAX_CACHED_INVERSES {
                self.inverses.clear();
            }
            let inverse = encode
                .select_rows(use_rows)
                .invert()
                .expect("any k rows of the systematic Vandermonde matrix are independent");
            self.inverses.insert(use_rows.to_vec(), inverse);
        }
        &self.inverses[use_rows]
    }
}

/// A systematic Reed–Solomon erasure codec over GF(2⁸).
///
/// # Examples
///
/// ```
/// use heap_fec::ReedSolomon;
///
/// let rs = ReedSolomon::new(4, 2).unwrap();
/// let data: Vec<Vec<u8>> = vec![vec![1, 2], vec![3, 4], vec![5, 6], vec![7, 8]];
/// let parity = rs.encode(&data).unwrap();
/// assert_eq!(parity.len(), 2);
///
/// // Lose two data shards, reconstruct from the rest.
/// let mut shards: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
/// shards.extend(parity.into_iter().map(Some));
/// shards[0] = None;
/// shards[3] = None;
/// rs.reconstruct(&mut shards).unwrap();
/// assert_eq!(shards[0].as_deref(), Some(&[1u8, 2][..]));
/// assert_eq!(shards[3].as_deref(), Some(&[7u8, 8][..]));
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    data_shards: usize,
    parity_shards: usize,
    /// The `(k+m) × k` systematic encoding matrix.
    encode_matrix: Matrix,
}

impl ReedSolomon {
    /// Creates a codec with `data_shards` data shards and `parity_shards`
    /// parity shards.
    ///
    /// Returns `None` if either count is zero or the total exceeds 256
    /// (the field size limits the number of distinct evaluation points).
    pub fn new(data_shards: usize, parity_shards: usize) -> Option<Self> {
        if data_shards == 0 || parity_shards == 0 || data_shards + parity_shards > 256 {
            return None;
        }
        let total = data_shards + parity_shards;
        let vandermonde = Matrix::vandermonde(total, data_shards);
        let top = vandermonde.select_rows(&(0..data_shards).collect::<Vec<_>>());
        let top_inv = top
            .invert()
            .expect("top k x k Vandermonde block is always invertible");
        let encode_matrix = vandermonde.multiply(&top_inv);
        Some(ReedSolomon {
            data_shards,
            parity_shards,
            encode_matrix,
        })
    }

    /// Number of data shards (`k`).
    pub fn data_shards(&self) -> usize {
        self.data_shards
    }

    /// Number of parity shards (`m`).
    pub fn parity_shards(&self) -> usize {
        self.parity_shards
    }

    /// Total number of shards (`k + m`).
    pub fn total_shards(&self) -> usize {
        self.data_shards + self.parity_shards
    }

    /// Encodes `data` (exactly `k` equal-length shards) and returns the `m`
    /// parity shards.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::WrongShardCount`] or [`RsError::ShardLengthMismatch`]
    /// if the input does not match the codec geometry.
    pub fn encode<S: AsRef<[u8]>>(&self, data: &[S]) -> Result<Vec<Vec<u8>>, RsError> {
        if data.len() != self.data_shards {
            return Err(RsError::WrongShardCount {
                provided: data.len(),
                expected: self.data_shards,
            });
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|s| s.as_ref().len() != len) {
            return Err(RsError::ShardLengthMismatch);
        }
        let mut parity = vec![vec![0u8; len]; self.parity_shards];
        for (p, out) in parity.iter_mut().enumerate() {
            let row = self.encode_matrix.row(self.data_shards + p);
            for (d, shard) in data.iter().enumerate() {
                gf256::mul_add_slice(out, shard.as_ref(), row[d]);
            }
        }
        Ok(parity)
    }

    /// Reconstructs all missing shards in place.
    ///
    /// `shards` must contain exactly `k + m` entries where `None` marks a
    /// missing shard. On success every entry is `Some`.
    ///
    /// # Errors
    ///
    /// * [`RsError::WrongShardCount`] if the slice length is not `k + m`.
    /// * [`RsError::NotEnoughShards`] if fewer than `k` shards are present.
    /// * [`RsError::ShardLengthMismatch`] if present shards disagree on length.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        self.reconstruct_with(shards, &mut DecodeWorkspace::new())
    }

    /// Reconstructs all missing shards in place, reusing the cached inverses
    /// and pooled buffers of `workspace` (see [`DecodeWorkspace`]).
    ///
    /// Behaves exactly like [`ReedSolomon::reconstruct`]; with a warm
    /// workspace the erasure-pattern matrix inversion and the per-shard
    /// allocations disappear from the hot path.
    ///
    /// # Errors
    ///
    /// Same as [`ReedSolomon::reconstruct`].
    pub fn reconstruct_with(
        &self,
        shards: &mut [Option<Vec<u8>>],
        workspace: &mut DecodeWorkspace,
    ) -> Result<(), RsError> {
        if shards.len() != self.total_shards() {
            return Err(RsError::WrongShardCount {
                provided: shards.len(),
                expected: self.total_shards(),
            });
        }
        let present: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| i)
            .collect();
        if present.len() < self.data_shards {
            return Err(RsError::NotEnoughShards {
                present: present.len(),
                required: self.data_shards,
            });
        }
        let len = shards[present[0]].as_ref().expect("present shard").len();
        if present
            .iter()
            .any(|&i| shards[i].as_ref().expect("present shard").len() != len)
        {
            return Err(RsError::ShardLengthMismatch);
        }
        // Nothing to do if all data shards are already present and parity is
        // not requested to be rebuilt.
        if shards.iter().all(|s| s.is_some()) {
            return Ok(());
        }
        workspace.bind_geometry(self.data_shards, self.parity_shards);

        // Pick the first k present shards and invert the corresponding rows of
        // the encoding matrix: decode_matrix * present_shards = data_shards.
        // The inverse is looked up in (or inserted into) the workspace cache.
        let use_rows: Vec<usize> = present.iter().copied().take(self.data_shards).collect();
        let missing_data: Vec<usize> = (0..self.data_shards)
            .filter(|&d| shards[d].is_none())
            .collect();

        // Grab output buffers before borrowing the cached inverse so the two
        // workspace borrows do not overlap.
        let mut outputs: Vec<Vec<u8>> = missing_data
            .iter()
            .map(|_| workspace.take_buffer(len))
            .collect();
        let decode = workspace.inverse_for(&self.encode_matrix, &use_rows);

        // Recover missing data shards.
        for (out, &d) in outputs.iter_mut().zip(&missing_data) {
            for (j, &src_row) in use_rows.iter().enumerate() {
                let shard = shards[src_row].as_ref().expect("present shard");
                gf256::mul_add_slice(out, shard, decode.get(d, j));
            }
        }
        for (out, &d) in outputs.into_iter().zip(&missing_data) {
            shards[d] = Some(out);
        }

        // Rebuild any missing parity shards from the (now complete) data.
        for p in 0..self.parity_shards {
            let idx = self.data_shards + p;
            if shards[idx].is_some() {
                continue;
            }
            let row = self.encode_matrix.row(idx);
            let mut out = workspace.take_buffer(len);
            for d in 0..self.data_shards {
                let shard = shards[d].as_deref().expect("data shard recovered");
                gf256::mul_add_slice(&mut out, shard, row[d]);
            }
            shards[idx] = Some(out);
        }
        Ok(())
    }

    /// Checks that the parity shards are consistent with the data shards.
    ///
    /// # Errors
    ///
    /// Returns the same geometry errors as [`ReedSolomon::encode`].
    pub fn verify<S: AsRef<[u8]>>(&self, shards: &[S]) -> Result<bool, RsError> {
        if shards.len() != self.total_shards() {
            return Err(RsError::WrongShardCount {
                provided: shards.len(),
                expected: self.total_shards(),
            });
        }
        let data = &shards[..self.data_shards];
        let expected = self.encode(data)?;
        Ok(expected
            .iter()
            .zip(&shards[self.data_shards..])
            .all(|(e, s)| e.as_slice() == s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn make_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn geometry_validation() {
        assert!(ReedSolomon::new(0, 1).is_none());
        assert!(ReedSolomon::new(1, 0).is_none());
        assert!(ReedSolomon::new(200, 57).is_none());
        let rs = ReedSolomon::new(101, 9).unwrap();
        assert_eq!(rs.data_shards(), 101);
        assert_eq!(rs.parity_shards(), 9);
        assert_eq!(rs.total_shards(), 110);
    }

    #[test]
    fn encode_rejects_bad_input() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        assert_eq!(
            rs.encode(&[vec![1u8, 2]]).unwrap_err(),
            RsError::WrongShardCount {
                provided: 1,
                expected: 3
            }
        );
        assert_eq!(
            rs.encode(&[vec![1u8, 2], vec![3], vec![4, 5]]).unwrap_err(),
            RsError::ShardLengthMismatch
        );
    }

    #[test]
    fn verify_detects_corruption() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = make_data(4, 64, 1);
        let parity = rs.encode(&data).unwrap();
        let mut all: Vec<Vec<u8>> = data.clone();
        all.extend(parity);
        assert!(rs.verify(&all).unwrap());
        all[5][0] ^= 0xFF;
        assert!(!rs.verify(&all).unwrap());
        assert!(rs.verify(&all[..5]).is_err());
    }

    #[test]
    fn reconstruct_with_no_losses_is_noop() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = make_data(3, 16, 2);
        let parity = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .chain(parity.iter().cloned())
            .map(Some)
            .collect();
        let before = shards.clone();
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(shards, before);
    }

    #[test]
    fn reconstruct_errors() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let mut too_few = vec![None, None, None, None];
        assert!(matches!(
            rs.reconstruct(&mut too_few).unwrap_err(),
            RsError::WrongShardCount { .. }
        ));
        let mut missing = vec![Some(vec![1u8]), None, None, None, None];
        assert!(matches!(
            rs.reconstruct(&mut missing).unwrap_err(),
            RsError::NotEnoughShards {
                present: 1,
                required: 3
            }
        ));
        let mut mismatched = vec![
            Some(vec![1u8, 2]),
            Some(vec![1u8]),
            Some(vec![1u8, 2]),
            None,
            None,
        ];
        assert_eq!(
            rs.reconstruct(&mut mismatched).unwrap_err(),
            RsError::ShardLengthMismatch
        );
    }

    #[test]
    fn recovers_up_to_m_losses_in_paper_geometry() {
        // The paper's window: 101 data + 9 parity, 1316-byte packets
        // (shortened here to keep the test fast but same shard counts).
        let rs = ReedSolomon::new(101, 9).unwrap();
        let data = make_data(101, 32, 3);
        let parity = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .chain(parity.iter().cloned())
            .map(Some)
            .collect();
        // Drop 9 shards: 5 data + 4 parity.
        for &i in &[0, 13, 50, 87, 100, 101, 104, 107, 109] {
            shards[i] = None;
        }
        rs.reconstruct(&mut shards).unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_ref().unwrap(), d, "data shard {i}");
        }
        // One more loss than parity shards must fail.
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .chain(parity.iter().cloned())
            .map(Some)
            .collect();
        for i in 0..10 {
            shards[i * 10] = None;
        }
        assert!(matches!(
            rs.reconstruct(&mut shards).unwrap_err(),
            RsError::NotEnoughShards { .. }
        ));
    }

    #[test]
    fn field_limit_geometry_recovers_m_losses() {
        // k + m = 256 uses every element of GF(256) as an evaluation point.
        let rs = ReedSolomon::new(200, 56).expect("k + m = 256 fits the field");
        let data = make_data(200, 8, 5);
        let parity = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .chain(parity.iter().cloned())
            .map(Some)
            .collect();
        // Drop 56 shards: 50 data + 6 parity.
        for i in (0..200).step_by(4).chain(250..256) {
            shards[i] = None;
        }
        rs.reconstruct(&mut shards).unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_ref().unwrap(), d, "data shard {i}");
        }
        for (j, p) in parity.iter().enumerate() {
            assert_eq!(shards[200 + j].as_ref().unwrap(), p, "parity shard {j}");
        }
    }

    #[test]
    fn workspace_reconstruction_matches_plain_reconstruction() {
        let rs = ReedSolomon::new(8, 4).unwrap();
        let data = make_data(8, 48, 11);
        let parity = rs.encode(&data).unwrap();
        let mut ws = DecodeWorkspace::new();
        for round in 0..6u64 {
            let mut with_ws: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .chain(parity.iter().cloned())
                .map(Some)
                .collect();
            let mut plain = with_ws.clone();
            // A loss pattern that varies per round.
            for k in 0..4usize {
                let idx = ((round as usize) * 3 + k * 2) % 12;
                with_ws[idx] = None;
                plain[idx] = None;
            }
            rs.reconstruct_with(&mut with_ws, &mut ws).unwrap();
            rs.reconstruct(&mut plain).unwrap();
            assert_eq!(with_ws, plain, "round {round}");
        }
        assert!(ws.cached_inverses() >= 1);
    }

    #[test]
    fn workspace_caches_one_inverse_per_erasure_pattern() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data = make_data(5, 16, 21);
        let parity = rs.encode(&data).unwrap();
        let mut ws = DecodeWorkspace::new();
        let run = |ws: &mut DecodeWorkspace, missing: &[usize]| {
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .chain(parity.iter().cloned())
                .map(Some)
                .collect();
            for &m in missing {
                shards[m] = None;
            }
            rs.reconstruct_with(&mut shards, ws).unwrap();
            for (i, d) in data.iter().enumerate() {
                assert_eq!(shards[i].as_ref().unwrap(), d);
            }
        };
        run(&mut ws, &[0, 1]);
        run(&mut ws, &[0, 1]);
        run(&mut ws, &[0, 1]);
        assert_eq!(
            ws.cached_inverses(),
            1,
            "repeated pattern shares an inverse"
        );
        run(&mut ws, &[2, 6]);
        assert_eq!(ws.cached_inverses(), 2);
    }

    #[test]
    fn workspace_survives_geometry_changes() {
        let mut ws = DecodeWorkspace::new();
        for (k, m) in [(4usize, 2usize), (6, 3), (4, 2)] {
            let rs = ReedSolomon::new(k, m).unwrap();
            let data = make_data(k, 24, (k * 31 + m) as u64);
            let parity = rs.encode(&data).unwrap();
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .chain(parity.iter().cloned())
                .map(Some)
                .collect();
            shards[0] = None;
            shards[k] = None;
            rs.reconstruct_with(&mut shards, &mut ws).unwrap();
            for (i, d) in data.iter().enumerate() {
                assert_eq!(shards[i].as_ref().unwrap(), d, "k={k} m={m}");
            }
            // The cache never mixes inverses across geometries.
            assert_eq!(ws.cached_inverses(), 1);
        }
    }

    #[test]
    fn workspace_recycles_buffers() {
        let mut ws = DecodeWorkspace::new();
        ws.recycle(vec![1, 2, 3]);
        ws.recycle(Vec::new());
        assert_eq!(ws.pooled_buffers(), 2);
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = make_data(3, 8, 5);
        let parity = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .chain(parity.iter().cloned())
            .map(Some)
            .collect();
        shards[1] = None;
        shards[4] = None;
        rs.reconstruct_with(&mut shards, &mut ws).unwrap();
        assert_eq!(shards[1].as_ref().unwrap(), &data[1]);
        assert_eq!(ws.pooled_buffers(), 0, "pooled buffers were consumed");
        assert!(rs
            .verify(&shards.into_iter().map(|s| s.unwrap()).collect::<Vec<_>>())
            .unwrap());
    }

    #[test]
    fn workspace_reconstruct_builds_and_caches_the_codec() {
        let mut ws = DecodeWorkspace::new();
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = make_data(4, 12, 9);
        let parity = rs.encode(&data).unwrap();
        for _ in 0..3 {
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .chain(parity.iter().cloned())
                .map(Some)
                .collect();
            shards[2] = None;
            ws.reconstruct(4, 2, &mut shards).unwrap();
            assert_eq!(shards[2].as_ref().unwrap(), &data[2]);
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = RsError::NotEnoughShards {
            present: 3,
            required: 5,
        };
        assert!(e.to_string().contains("3 present"));
        let e = RsError::WrongShardCount {
            provided: 1,
            expected: 2,
        };
        assert!(e.to_string().contains("1 provided"));
        assert!(RsError::ShardLengthMismatch.to_string().contains("length"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Round-trip: encode, erase any ≤ m shards, reconstruct, compare.
        #[test]
        fn encode_erase_reconstruct_roundtrip(
            k in 1usize..12,
            m in 1usize..6,
            len in 1usize..40,
            seed in 0u64..10_000,
        ) {
            let rs = ReedSolomon::new(k, m).unwrap();
            let data = make_data(k, len, seed);
            let parity = rs.encode(&data).unwrap();
            let mut shards: Vec<Option<Vec<u8>>> =
                data.iter().cloned().chain(parity.iter().cloned()).map(Some).collect();

            // Erase a random subset of at most m shards.
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
            let mut idx: Vec<usize> = (0..k + m).collect();
            idx.shuffle(&mut rng);
            let erasures = rng.gen_range(0..=m);
            for &i in idx.iter().take(erasures) {
                shards[i] = None;
            }

            rs.reconstruct(&mut shards).unwrap();
            for (i, d) in data.iter().enumerate() {
                prop_assert_eq!(shards[i].as_ref().unwrap(), d);
            }
            // Parity shards are also rebuilt consistently.
            let all: Vec<Vec<u8>> = shards.into_iter().map(|s| s.unwrap()).collect();
            prop_assert!(rs.verify(&all).unwrap());
        }

        /// Parity is deterministic: encoding the same data twice gives the
        /// same parity shards.
        #[test]
        fn encoding_is_deterministic(seed in 0u64..10_000) {
            let rs = ReedSolomon::new(7, 3).unwrap();
            let data = make_data(7, 24, seed);
            prop_assert_eq!(rs.encode(&data).unwrap(), rs.encode(&data).unwrap());
        }
    }
}
