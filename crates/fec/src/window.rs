//! The FEC window codec used by the streaming application.
//!
//! A window groups [`WindowParams::data_packets`] consecutive source packets
//! and adds [`WindowParams::parity_packets`] parity packets computed with the
//! systematic Reed–Solomon code. The paper uses 101 source + 9 parity packets
//! of 1316 bytes each; a window is viewable ("jitter-free") iff at least 101
//! of its 110 packets arrive in time.

use crate::rs::{ReedSolomon, RsError};
use serde::{Deserialize, Serialize};

/// Geometry of an FEC window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowParams {
    /// Number of source (data) packets per window.
    pub data_packets: usize,
    /// Number of parity packets per window.
    pub parity_packets: usize,
    /// Size of each packet payload in bytes.
    pub packet_bytes: usize,
}

impl WindowParams {
    /// The geometry used throughout the paper: 101 source packets, 9 parity
    /// packets, 1316-byte payloads.
    pub const PAPER: WindowParams = WindowParams {
        data_packets: 101,
        parity_packets: 9,
        packet_bytes: 1316,
    };

    /// Total number of packets per window.
    pub const fn total_packets(&self) -> usize {
        self.data_packets + self.parity_packets
    }

    /// Minimum number of packets needed to decode the window.
    pub const fn decode_threshold(&self) -> usize {
        self.data_packets
    }

    /// Validates the geometry for use with the GF(2⁸) Reed–Solomon code.
    pub fn is_valid(&self) -> bool {
        self.data_packets > 0
            && self.parity_packets > 0
            && self.total_packets() <= 256
            && self.packet_bytes > 0
    }
}

impl Default for WindowParams {
    fn default() -> Self {
        WindowParams::PAPER
    }
}

/// Encodes a window of source packets into source + parity packets.
///
/// # Examples
///
/// ```
/// use heap_fec::{WindowEncoder, WindowParams};
///
/// let params = WindowParams { data_packets: 4, parity_packets: 2, packet_bytes: 8 };
/// let encoder = WindowEncoder::new(params).unwrap();
/// let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 8]).collect();
/// let packets = encoder.encode(&data).unwrap();
/// assert_eq!(packets.len(), 6);
/// assert_eq!(&packets[0], &data[0]); // systematic: data packets first, verbatim
/// ```
#[derive(Debug, Clone)]
pub struct WindowEncoder {
    params: WindowParams,
    rs: ReedSolomon,
}

impl WindowEncoder {
    /// Creates an encoder for the given geometry, or `None` if the geometry
    /// is invalid.
    pub fn new(params: WindowParams) -> Option<Self> {
        if !params.is_valid() {
            return None;
        }
        let rs = ReedSolomon::new(params.data_packets, params.parity_packets)?;
        Some(WindowEncoder { params, rs })
    }

    /// The window geometry.
    pub fn params(&self) -> WindowParams {
        self.params
    }

    /// Encodes exactly `data_packets` source payloads into the full window of
    /// `total_packets` payloads (source packets first, verbatim, followed by
    /// parity packets).
    ///
    /// # Errors
    ///
    /// Returns an error if the shard count or shard lengths do not match the
    /// geometry.
    pub fn encode<S: AsRef<[u8]>>(&self, data: &[S]) -> Result<Vec<Vec<u8>>, RsError> {
        if data
            .iter()
            .any(|d| d.as_ref().len() != self.params.packet_bytes)
        {
            return Err(RsError::ShardLengthMismatch);
        }
        let parity = self.rs.encode(data)?;
        let mut out: Vec<Vec<u8>> = data.iter().map(|d| d.as_ref().to_vec()).collect();
        out.extend(parity);
        Ok(out)
    }
}

/// Collects the packets of one window as they arrive and decodes the window
/// once enough packets are present.
///
/// # Examples
///
/// ```
/// use heap_fec::{WindowDecoder, WindowEncoder, WindowParams};
///
/// let params = WindowParams { data_packets: 3, parity_packets: 2, packet_bytes: 4 };
/// let encoder = WindowEncoder::new(params).unwrap();
/// let data: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8; 4]).collect();
/// let packets = encoder.encode(&data).unwrap();
///
/// let mut decoder = WindowDecoder::new(params);
/// decoder.insert(1, packets[1].clone());
/// decoder.insert(3, packets[3].clone()); // a parity packet
/// assert!(!decoder.is_decodable());
/// decoder.insert(4, packets[4].clone());
/// assert!(decoder.is_decodable());
/// let recovered = decoder.decode().unwrap();
/// assert_eq!(recovered, data);
/// ```
#[derive(Debug, Clone)]
pub struct WindowDecoder {
    params: WindowParams,
    rs: ReedSolomon,
    shards: Vec<Option<Vec<u8>>>,
    received: usize,
}

impl WindowDecoder {
    /// Creates an empty decoder for the given geometry and builds its codec.
    /// Building the codec inverts a `k × k` matrix, so a receiver decoding
    /// many windows builds one empty decoder and clones it per window.
    ///
    /// # Panics
    ///
    /// Panics if the packet counts are not a Reed–Solomon geometry: a zero
    /// count, or more than 256 packets per window.
    pub fn new(params: WindowParams) -> Self {
        let rs = ReedSolomon::new(params.data_packets, params.parity_packets)
            .expect("window packet counts must be a valid Reed-Solomon geometry");
        WindowDecoder {
            shards: vec![None; params.total_packets()],
            params,
            rs,
            received: 0,
        }
    }

    /// The window geometry.
    pub fn params(&self) -> WindowParams {
        self.params
    }

    /// Inserts packet `index` (0-based within the window). Returns `true` if
    /// the packet was new. Out-of-range indices and duplicates are ignored.
    pub fn insert(&mut self, index: usize, payload: Vec<u8>) -> bool {
        if index >= self.shards.len() || self.shards[index].is_some() {
            return false;
        }
        self.shards[index] = Some(payload);
        self.received += 1;
        true
    }

    /// Number of distinct packets received so far.
    pub fn received(&self) -> usize {
        self.received
    }

    /// Number of distinct *source* packets received so far (relevant for the
    /// delivery ratio inside jittered windows, Table 2).
    pub fn received_data(&self) -> usize {
        self.shards[..self.params.data_packets]
            .iter()
            .filter(|s| s.is_some())
            .count()
    }

    /// Indices of the packets still missing.
    pub fn missing(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether enough packets are present to decode the full window.
    pub fn is_decodable(&self) -> bool {
        self.received >= self.params.decode_threshold()
    }

    /// Decodes the window in place (every missing source and parity packet
    /// is reconstructed) and returns the source packets as owned vectors.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::NotEnoughShards`] when fewer than `data_packets`
    /// packets have been inserted.
    pub fn decode(&mut self) -> Result<Vec<Vec<u8>>, RsError> {
        self.rs.reconstruct(&mut self.shards)?;
        self.received = self.shards.len();
        Ok(self.shards[..self.params.data_packets]
            .iter()
            .map(|s| s.clone().expect("reconstructed"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn small_params() -> WindowParams {
        WindowParams {
            data_packets: 10,
            parity_packets: 4,
            packet_bytes: 16,
        }
    }

    fn make_window(params: WindowParams, seed: u64) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let data: Vec<Vec<u8>> = (0..params.data_packets)
            .map(|_| (0..params.packet_bytes).map(|_| rng.gen()).collect())
            .collect();
        let packets = WindowEncoder::new(params).unwrap().encode(&data).unwrap();
        (data, packets)
    }

    #[test]
    fn paper_params_are_valid() {
        let p = WindowParams::PAPER;
        assert!(p.is_valid());
        assert_eq!(p.total_packets(), 110);
        assert_eq!(p.decode_threshold(), 101);
        assert_eq!(WindowParams::default(), p);
    }

    #[test]
    fn invalid_geometries_rejected() {
        assert!(WindowEncoder::new(WindowParams {
            data_packets: 0,
            parity_packets: 1,
            packet_bytes: 10
        })
        .is_none());
        assert!(WindowEncoder::new(WindowParams {
            data_packets: 250,
            parity_packets: 10,
            packet_bytes: 10
        })
        .is_none());
        assert!(WindowEncoder::new(WindowParams {
            data_packets: 10,
            parity_packets: 2,
            packet_bytes: 0
        })
        .is_none());
    }

    #[test]
    fn encode_checks_packet_size() {
        let enc = WindowEncoder::new(small_params()).unwrap();
        let bad: Vec<Vec<u8>> = (0..10).map(|_| vec![0u8; 7]).collect();
        assert_eq!(enc.encode(&bad).unwrap_err(), RsError::ShardLengthMismatch);
        assert_eq!(enc.params(), small_params());
    }

    #[test]
    fn systematic_prefix_is_verbatim() {
        let params = small_params();
        let (data, packets) = make_window(params, 1);
        assert_eq!(&packets[..params.data_packets], data.as_slice());
    }

    #[test]
    fn decoder_tracks_counts_and_missing() {
        let params = small_params();
        let (_, packets) = make_window(params, 2);
        let mut dec = WindowDecoder::new(params);
        assert_eq!(dec.params(), params);
        assert!(dec.insert(0, packets[0].clone()));
        assert!(!dec.insert(0, packets[0].clone()), "duplicate ignored");
        assert!(!dec.insert(99, vec![]), "out of range ignored");
        assert!(dec.insert(12, packets[12].clone()));
        assert_eq!(dec.received(), 2);
        assert_eq!(dec.received_data(), 1);
        assert_eq!(dec.missing().len(), params.total_packets() - 2);
        assert!(!dec.is_decodable());
        assert!(matches!(dec.decode(), Err(RsError::NotEnoughShards { .. })));
    }

    #[test]
    fn decode_from_exactly_threshold_packets() {
        let params = small_params();
        let (data, packets) = make_window(params, 3);
        let mut dec = WindowDecoder::new(params);
        // Insert the last `data_packets` packets (mostly parity-heavy subset).
        let skip = params.total_packets() - params.decode_threshold();
        for (i, packet) in packets.iter().enumerate().skip(skip) {
            dec.insert(i, packet.clone());
        }
        assert!(dec.is_decodable());
        assert_eq!(dec.decode().unwrap(), data);
        // Every packet, parity included, is reconstructed in place.
        assert_eq!(dec.received(), params.total_packets());
        assert!(dec.missing().is_empty());
    }

    #[test]
    fn decode_paper_geometry_with_losses() {
        let params = WindowParams {
            packet_bytes: 8, // keep the test fast; shard counts match the paper
            ..WindowParams::PAPER
        };
        let (data, packets) = make_window(params, 4);
        let mut dec = WindowDecoder::new(params);
        for (i, p) in packets.iter().enumerate() {
            if i % 13 == 0 && i / 13 < 9 {
                continue; // drop 9 packets
            }
            dec.insert(i, p.clone());
        }
        assert_eq!(dec.received(), 110 - 9);
        assert_eq!(dec.decode().unwrap(), data);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever subset of >= k packets survives, decoding recovers the data.
        #[test]
        fn any_sufficient_subset_decodes(seed in 0u64..5_000, losses in 0usize..=4) {
            let params = small_params();
            let (data, packets) = make_window(params, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
            let mut idx: Vec<usize> = (0..params.total_packets()).collect();
            idx.shuffle(&mut rng);
            let keep: std::collections::HashSet<usize> =
                idx.into_iter().skip(losses).collect();
            let mut dec = WindowDecoder::new(params);
            for (i, p) in packets.iter().enumerate() {
                if keep.contains(&i) {
                    dec.insert(i, p.clone());
                }
            }
            prop_assert!(dec.is_decodable());
            prop_assert_eq!(dec.decode().unwrap(), data);
        }
    }
}
