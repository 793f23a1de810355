//! Counting `#[global_allocator]`: live bytes, peak live bytes and the number
//! of allocations, per thread.
//!
//! The counters are thread-local `Cell`s rather than atomics: the benchmark
//! is single-threaded by construction (a flat engine, one client), a `Cell`
//! add costs ~1 ns where a locked atomic costs ~10 ns on a path that runs
//! 10⁷ times per rep, and per-thread accounting keeps the unit tests exact
//! under `cargo test`'s parallel test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator installed by `main.rs`.
pub struct Counting;

struct Counters {
    // `isize`: a block freed on another thread than it was allocated on
    // (never in the benchmark itself) must not wrap the counter.
    live: Cell<isize>,
    peak: Cell<isize>,
    allocs: Cell<u64>,
}

thread_local! {
    static COUNTERS: Counters = const {
        Counters {
            live: Cell::new(0),
            peak: Cell::new(0),
            allocs: Cell::new(0),
        }
    };
}

/// One allocator call that left `bytes` more live.
#[inline]
fn grow(bytes: usize) {
    COUNTERS.with(|c| {
        c.allocs.set(c.allocs.get() + 1);
        let live = c.live.get() + bytes as isize;
        c.live.set(live);
        if live > c.peak.get() {
            c.peak.set(live);
        }
    });
}

#[inline]
fn shrink(bytes: usize) {
    COUNTERS.with(|c| c.live.set(c.live.get() - bytes as isize));
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the bookkeeping touches only const-initialised, destructor-free
// thread-locals, which never allocate and are never torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            // A realloc is one allocator call; the peak sees the new size
            // only (the system allocator may or may not hold both blocks for
            // the copy, which is below what this counter can know).
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                grow(0);
                shrink(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

/// Bytes currently allocated by this thread.
pub fn live_bytes() -> u64 {
    COUNTERS.with(|c| c.live.get()).max(0) as u64
}

/// Allocator calls (alloc, alloc_zeroed, realloc) made by this thread.
pub fn alloc_count() -> u64 {
    COUNTERS.with(|c| c.allocs.get())
}

/// A measurement window: peak live bytes above the level at [`Window::open`].
pub struct Window {
    base: isize,
}

impl Window {
    /// Starts a window at the current live level and resets the peak to it.
    pub fn open() -> Self {
        COUNTERS.with(|c| {
            let base = c.live.get();
            c.peak.set(base);
            Window { base }
        })
    }

    /// Highest live level reached since `open`, above the opening level.
    pub fn peak_bytes(&self) -> u64 {
        (COUNTERS.with(|c| c.peak.get()) - self.base).max(0) as u64
    }

    /// Current live level above the opening level.
    pub fn live_bytes(&self) -> u64 {
        (COUNTERS.with(|c| c.live.get()) - self.base).max(0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_survives_a_free_and_live_does_not() {
        let w = Window::open();
        let big = vec![0u8; 1 << 20];
        std::hint::black_box(&big);
        assert!(w.live_bytes() >= 1 << 20);
        drop(big);
        let small = vec![0u8; 1 << 10];
        std::hint::black_box(&small);
        assert!(
            w.peak_bytes() >= 1 << 20,
            "the peak remembers the big block"
        );
        assert!(w.peak_bytes() < (1 << 20) + (1 << 16));
        assert!(w.live_bytes() >= 1 << 10 && w.live_bytes() < 1 << 16);
    }

    #[test]
    fn realloc_counts_the_delta_not_the_sum() {
        let w = Window::open();
        let calls = alloc_count();
        let mut v: Vec<u8> = Vec::with_capacity(1 << 16);
        v.resize(1 << 16, 1);
        v.reserve_exact(3 << 16); // realloc 64 KiB -> 256 KiB
        std::hint::black_box(&v);
        assert_eq!(v.capacity(), 1 << 18);
        assert_eq!(w.live_bytes(), 1 << 18, "old block is not double-counted");
        assert_eq!(w.peak_bytes(), 1 << 18);
        assert_eq!(alloc_count() - calls, 2, "one alloc, one realloc");
        v.truncate(1 << 12);
        v.shrink_to_fit();
        assert_eq!(w.live_bytes(), 1 << 12, "shrinking realloc releases");
        assert_eq!(w.peak_bytes(), 1 << 18);
    }

    #[test]
    fn a_new_window_forgets_the_old_peak() {
        let first = Window::open();
        drop(std::hint::black_box(vec![0u8; 1 << 20]));
        assert!(first.peak_bytes() >= 1 << 20);
        let second = Window::open();
        assert_eq!(second.peak_bytes(), 0);
    }
}
