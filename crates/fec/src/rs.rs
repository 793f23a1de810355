//! Systematic Reed–Solomon erasure coding.
//!
//! The encoder is built from a `(k+m) × k` Vandermonde matrix normalised so
//! that its top `k × k` block is the identity: the first `k` output shards
//! are the data shards verbatim (systematic), the remaining `m` are parity.
//! Any `k` of the `k+m` shards suffice to reconstruct all data shards.

use crate::gf256;
use crate::matrix::Matrix;
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

        // Recover missing data shards: pick the first k present shards and
        // invert the corresponding rows of the encoding matrix, so that
        // decode_matrix * present_shards = data_shards.
        if shards[..self.data_shards].iter().any(Option::is_none) {
            let use_rows: Vec<usize> = present.into_iter().take(self.data_shards).collect();
            let decode = self
                .encode_matrix
                .select_rows(&use_rows)
                .invert()
                .expect("any k rows of the systematic Vandermonde matrix are independent");
            for d in 0..self.data_shards {
                if shards[d].is_some() {
                    continue;
                }
                let mut out = vec![0u8; len];
                for (j, &src_row) in use_rows.iter().enumerate() {
                    let shard = shards[src_row].as_deref().expect("present shard");
                    gf256::mul_add_slice(&mut out, shard, decode.get(d, j));
                }
                shards[d] = Some(out);
            }
        }

        // Rebuild any missing parity shards from the (now complete) data.
        for idx in self.data_shards..self.total_shards() {
            if shards[idx].is_some() {
                continue;
            }
            let row = self.encode_matrix.row(idx);
            let mut out = vec![0u8; len];
            for (shard, &coeff) in shards[..self.data_shards].iter().zip(row) {
                let shard = shard.as_deref().expect("data shard recovered");
                gf256::mul_add_slice(&mut out, shard, coeff);
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
    fn reconstruct_is_noop_when_nothing_is_lost() {
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
