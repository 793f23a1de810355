//! FEC window coding: encode a paper-geometry window, lose packets, decode.
//!
//! ```text
//! cargo run --release --example fec_window
//! ```
//!
//! Demonstrates the systematic Reed–Solomon window codec on its own: a window
//! of 101 source packets plus 9 parity packets survives the loss of any 9
//! packets, and when more are lost the surviving source packets are still
//! usable verbatim (which is what Table 2 of the paper measures).

use heap::fec::{WindowDecoder, WindowEncoder, WindowParams};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn main() {
    let params = WindowParams::PAPER;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
    // The codec is built once; every window's decoder is a clone.
    let empty = WindowDecoder::new(params);

    // 101 source packets of 1316 random bytes.
    let data: Vec<Vec<u8>> = (0..params.data_packets)
        .map(|_| (0..params.packet_bytes).map(|_| rng.gen()).collect())
        .collect();
    let encoder = WindowEncoder::new(params).expect("paper geometry is valid");
    let packets = encoder.encode(&data).expect("encode");
    println!(
        "encoded one window: {} source + {} parity packets of {} bytes",
        params.data_packets, params.parity_packets, params.packet_bytes
    );

    for losses in [0usize, 5, 9, 10, 20] {
        let mut order: Vec<usize> = (0..params.total_packets()).collect();
        order.shuffle(&mut rng);
        let dropped: Vec<usize> = order.into_iter().take(losses).collect();

        let mut decoder = empty.clone();
        for (i, p) in packets.iter().enumerate() {
            if !dropped.contains(&i) {
                decoder.insert(i, p.clone());
            }
        }
        match decoder.decode() {
            Ok(recovered) => {
                assert!(recovered == data, "decoded data must match the original");
                println!(
                    "{losses:>2} packets lost -> window decoded, all {} source packets recovered",
                    params.data_packets
                );
            }
            Err(e) => {
                println!(
                    "{losses:>2} packets lost -> window jittered ({e}); {} of {} source packets still viewable",
                    decoder.received_data(),
                    params.data_packets
                );
            }
        }
    }
}
