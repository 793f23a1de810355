//! Cross-crate integration: the FEC codec and the streaming metrics agree.
//!
//! The simulation's notion of "window decodable" (at least 101 of 110 packets
//! arrived) is only meaningful because the real Reed–Solomon codec can indeed
//! decode from any such subset. This test closes the loop: it drives a
//! lossy delivery pattern, checks `NodeStreamMetrics` classification, and
//! actually decodes the windows it claims are decodable — once window by
//! window with a `WindowDecoder`, and once by replaying the receive log
//! through a `StreamReassembler`.

use heap::fec::{WindowDecoder, WindowEncoder, WindowParams};
use heap::simnet::time::{SimDuration, SimTime};
use heap::streaming::metrics::{window_decode_time, NodeStreamMetrics};
use heap::streaming::{
    PacketId, ReceiverLog, StreamConfig, StreamReassembler, StreamSchedule, WindowId,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn metrics_decodability_matches_actual_fec_decoding() {
    // Use the paper's shard counts with a smaller payload so the test stays fast.
    let params = WindowParams {
        packet_bytes: 64,
        ..WindowParams::PAPER
    };
    let config = StreamConfig {
        window: params,
        effective_rate: heap::simnet::bandwidth::Bandwidth::from_kbps(600),
        n_windows: 3,
    };
    let schedule = StreamSchedule::new(config, SimTime::ZERO);
    let encoder = WindowEncoder::new(params).expect("valid geometry");
    let mut rng = SmallRng::seed_from_u64(99);

    // Per-window loss rates chosen so window 0 is cleanly decodable, window 1
    // is borderline and window 2 is clearly not.
    let loss_rates = [0.02, 0.08, 0.30];

    let mut log = ReceiverLog::for_schedule(&schedule);
    let mut payloads: Vec<Vec<Vec<u8>>> = Vec::new(); // [window][packet] -> bytes
    let mut received: Vec<Vec<bool>> = vec![vec![false; params.total_packets()]; 3];

    for w in 0..3u64 {
        let data: Vec<Vec<u8>> = (0..params.data_packets)
            .map(|_| (0..params.packet_bytes).map(|_| rng.gen()).collect())
            .collect();
        let packets = encoder.encode(&data).expect("encode");
        for (idx, _) in packets.iter().enumerate() {
            let seq = w * params.total_packets() as u64 + idx as u64;
            if rng.gen_bool(1.0 - loss_rates[w as usize]) {
                let publish = schedule.publish_time(PacketId::new(seq)).unwrap();
                log.record(PacketId::new(seq), publish + SimDuration::from_millis(250));
                received[w as usize][idx] = true;
            }
        }
        payloads.push(packets);
    }

    let metrics = NodeStreamMetrics::compute(&schedule, &log);
    let lag = SimDuration::from_secs(5);
    // The codec is built once; each window's decoder is a clone.
    let empty = WindowDecoder::new(params);

    for w in 0..3u64 {
        let window = WindowId::new(w);
        let claimed_decodable = metrics.window_jitter_free(window, lag);

        // Reconstruct with the actual codec from exactly the packets that the
        // receive log says arrived.
        let mut decoder = empty.clone();
        for (idx, got) in received[w as usize].iter().enumerate() {
            if *got {
                decoder.insert(idx, payloads[w as usize][idx].clone());
            }
        }
        assert_eq!(
            decoder.is_decodable(),
            claimed_decodable,
            "window {w}: metrics and codec disagree on decodability"
        );
        if claimed_decodable {
            let decoded = decoder
                .decode()
                .expect("codec must decode what metrics claim");
            // Systematic code: decoded source packets equal the originals.
            assert_eq!(decoded, payloads[w as usize][..params.data_packets]);
        }
    }

    // The heavily-lossy window is the one that is not decodable.
    assert!(!metrics.window_jitter_free(WindowId::new(2), lag));
    // But its surviving source packets still count towards partial delivery.
    assert!(metrics.window_source_delivery_ratio(WindowId::new(2), lag) > 0.4);

    // Replay the same log in arrival order through the stream's reassembler:
    // it hands back exactly the windows the metrics call decodable, on the
    // arrival the metrics date the decode to, each with its original source
    // payloads.
    let mut arrivals: Vec<(PacketId, SimTime)> = log.iter_received().collect();
    arrivals.sort_by_key(|&(id, at)| (at, id.seq()));
    let mut reassembler = StreamReassembler::new(schedule);
    let mut decoded_windows = Vec::new();
    for (id, at) in arrivals {
        let packet = schedule.packet(id).expect("logged packet is scheduled");
        let payload = payloads[packet.window.index() as usize][packet.index_in_window].clone();
        if let Some(window) = reassembler.accept(id, payload) {
            let w = window.id().index() as usize;
            assert!(
                window
                    .data_packets()
                    .eq(payloads[w][..params.data_packets].iter().map(Vec::as_slice)),
                "window {w}: reassembled payloads differ from the originals"
            );
            decoded_windows.push((window.id(), at));
        }
    }
    let claimed: Vec<(WindowId, SimTime)> = (0..3)
        .map(WindowId::new)
        .filter(|&window| metrics.window_jitter_free(window, lag))
        .map(|window| {
            let at = window_decode_time(&schedule, &metrics, window).expect("decodable");
            (window, at)
        })
        .collect();
    assert!(
        !claimed.is_empty(),
        "the loss rates leave a decodable window"
    );
    assert_eq!(decoded_windows, claimed);
    assert_eq!(reassembler.decoded_windows(), claimed.len() as u64);
}
