//! Peak-memory regression guard for the scale campaign.
//!
//! Runs a 10⁴-node compact-mode scenario under a byte-counting
//! `#[global_allocator]` (pattern from `crates/streaming/tests/health_alloc.rs`)
//! and asserts the peak heap watermark stays under the documented
//! bytes-per-node bound (`docs/SCALE.md`). A whole-run per-node vector
//! sneaking back into `ExperimentResult`/`NodeResult` — the regression class
//! that capped the reproduction near 10⁴ nodes — fails this test the same
//! way a fingerprint regression fails the determinism suite.
//!
//! The same run, walked every 100 ms of simulated time, must have
//! `Simulator::memory_footprint()` report at least 85 % of that peak: the
//! component table of `docs/SCALE.md` then accounts for the bound.
//!
//! The counting allocator wraps the system allocator; this file holds
//! exactly one test so no concurrent test can perturb the watermark.

use heap_simnet::time::{SimDuration, SimTime};
use heap_workloads::experiments::scale_campaign;
use heap_workloads::ScenarioRun;
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

/// The documented compact-mode peak bound, in bytes per node, for the
/// 10⁴-node guard scenario (the campaign shape: unconstrained bandwidth,
/// standard gossip at fanout 7, one stream window). See `docs/SCALE.md` for
/// the component budget. Measured 2026-10-18: 3 793 B/node with each
/// serve-dedup pair in one `u32` key, proposal queues of `u32` sequence
/// numbers and the partial-membership state boxed, against 4 581 B/node on
/// the commit before, which had answered requests dropped from the
/// retransmit queue before it grows and each serve-dedup pair packed into
/// one `u64`, against 8 542 B/node on the commit before that, whose queue
/// held every request for its full 2 s deadline and whose dedup sets had
/// 16-byte `(u32, u64)` keys; 8 606 B/node with
/// inline, shared id lists in the gossip messages (no `Vec` per message or
/// per fan-out clone), against 9 156 B/node on the commit before, which had the
/// event queue's buckets in pooled 16-event pages and each receive log moved
/// into its node's metrics (run-time protocol and packet state dominates —
/// the compact result path itself is O(n_windows) per node); 13 622 B/node
/// before that, whose queue kept growable per-bucket buffers and a pool of
/// drained outer-wheel buffers, and 19 507 B/node before that, when every
/// request kept its own timer waiting in the
/// event queue until its deadline. The bound is the measurement plus 10 %,
/// so it trips on either regression class, on an event queue that retains
/// capacity for time elapsed (32 800 B/node when it last happened) and on a
/// per-node vector in the result path; the figure is an allocator count and
/// repeats exactly on one seed.
const PEAK_BYTES_PER_NODE_BOUND: u64 = 4_172;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "10^4-node run; exercised in the release-mode CI job"
)]
fn compact_mode_peak_stays_under_documented_bound() {
    const N: usize = 10_000;
    let scenario = scale_campaign::scenario(N, 1, 7);

    // Baseline: whatever the harness already holds stays out of the margin;
    // the watermark below measures the run's own growth on top of it.
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);

    // The run in 100 ms slices, walking the simulator's footprint after
    // each: the most it reports is set against the allocator's peak below.
    let mut run = ScenarioRun::setup(&scenario).expect("the guard shape is valid");
    let mut walked = 0;
    let mut now = SimTime::ZERO;
    while now < run.end() {
        now = (now + SimDuration::from_millis(100)).min(run.end());
        run.run_until(now);
        walked = walked.max(run.sim().memory_footprint().total_bytes());
    }
    let result = run.collect();

    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);
    let per_node = peak / N as u64;

    // The run must have actually streamed (a broken run would pass any
    // memory bound).
    assert_eq!(result.nodes.len(), N - 1, "one result row per receiver");
    let delivered = result
        .nodes
        .iter()
        .filter(|n| n.metrics.delivery_ratio() > 0.9)
        .count();
    assert!(
        delivered > (N - 1) / 2,
        "only {delivered} receivers got >90% of the stream"
    );
    assert!(result.packet_lag_series.is_some());

    eprintln!(
        "memory guard: peak heap {peak} bytes = {per_node} bytes/node; \
         walked footprint at most {walked} bytes"
    );
    assert!(
        per_node <= PEAK_BYTES_PER_NODE_BOUND,
        "peak heap {peak} bytes = {per_node} bytes/node exceeds the documented \
         compact-mode bound of {PEAK_BYTES_PER_NODE_BOUND} bytes/node (docs/SCALE.md); \
         did a whole-run per-node vector sneak back into the result path, does the \
         event queue retain capacity for time elapsed instead of events pending, or \
         does every request arm its own retransmission timer again?"
    );
    // The walk must account for what the run holds at its peak, or the
    // component table in docs/SCALE.md no longer explains the bound.
    assert!(
        walked * 100 >= peak * 85,
        "memory_footprint() walked at most {walked} bytes, under 85 % of the \
         allocator's peak of {peak}: some per-node table is not reported by \
         Protocol::heap_bytes or the substrate's components"
    );
}
