//! Peak-memory regression guard for the full-detail result path.
//!
//! Runs a `Scale::test()`-sized ref-691 HEAP scenario in full result detail
//! (the detail of every paper figure) under a byte-counting
//! `#[global_allocator]` (copied from `memory_guard.rs`) and asserts the peak
//! heap watermark per node. Per-packet receive state is 4 bytes in the
//! receive log, which each node's `NodeStreamMetrics` takes over at
//! collection, and one `eRequested` bit; a 16-byte `Option<SimTime>` log, a
//! copied log or per-packet lag vectors coming back fail here. The 10⁴-node compact guard cannot see
//! that: its one-window stream moves it by about 1.4 KB/node.
//!
//! The counting allocator wraps the system allocator; this file holds
//! exactly one test so no concurrent test can perturb the watermark. The run
//! takes seconds, so it runs in debug builds too.

use heap_workloads::{run_scenario, BandwidthDistribution, ProtocolChoice, Scale, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tracks live heap bytes and the high-water mark.
struct PeakAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size() as u64);
        }
        ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            on_alloc(new_size as u64);
        }
        new_ptr
    }
}

#[global_allocator]
static COUNTER: PeakAlloc = PeakAlloc;

/// The full-detail peak bound, in bytes per node, for the guard scenario
/// (40 nodes, 4 windows of 110 packets, seed 7). Measured 2026-10-17:
/// 24 743 B/node in release and in debug with inline, shared id lists in the
/// gossip messages and the aggregator's 16-byte sample slots, against 26 205
/// (release) and 26 221 (debug) on the commit before, which had a `Vec` in
/// every message and 32-byte slots, and already had the event queue's
/// buckets in pooled 16-event pages and each receive log moved into its
/// node's metrics; 36 621 B/node before that (growable
/// per-bucket queue buffers, and every log copied into the metrics while the
/// simulation still held it), 46 218 B/node before that (a timer per
/// request, each waiting in the event queue until its deadline) and 57 435
/// B/node before that (a 16-byte receive-log entry, a 1-byte `eRequested`
/// flag and 16-byte per-packet lags plus per-window source-lag vectors in
/// the result). The bound is the debug measurement plus 10 %: a 16-byte log
/// alone adds 5 280 B/node and trips it. The figure is an allocator count
/// and repeats exactly on one seed.
const PEAK_BYTES_PER_NODE_BOUND: u64 = 27_217;

#[test]
fn full_detail_peak_stays_under_documented_bound() {
    let scale = Scale::test();
    let scenario = Scenario::new(
        "full-detail-memory",
        scale,
        BandwidthDistribution::ref_691(),
        ProtocolChoice::Heap { fanout: 7.0 },
    );

    // Baseline: whatever the harness already holds stays out of the margin;
    // the watermark below measures the run's own growth on top of it.
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);

    let result = run_scenario(&scenario);

    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);
    let per_node = peak / scale.n_nodes as u64;

    // The run must have actually streamed, in full detail (a broken run
    // would pass any memory bound).
    assert_eq!(result.nodes.len(), scale.n_nodes - 1);
    assert!(result.packet_lag_series.is_none(), "full detail");
    assert!(result.nodes.iter().all(|n| n.metrics.as_full().is_some()));
    let mean_delivery = result
        .nodes
        .iter()
        .map(|n| n.metrics.delivery_ratio())
        .sum::<f64>()
        / result.nodes.len() as f64;
    assert!(mean_delivery > 0.9, "mean delivery {mean_delivery}");

    eprintln!("full-detail memory guard: peak heap {peak} bytes = {per_node} bytes/node");
    assert!(
        per_node <= PEAK_BYTES_PER_NODE_BOUND,
        "peak heap {peak} bytes = {per_node} bytes/node exceeds the full-detail bound of \
         {PEAK_BYTES_PER_NODE_BOUND} bytes/node; did a 16-byte receive-log entry, a \
         copied receive log, a per-packet lag vector or a timer per request come back \
         into the node or its result?"
    );
}
