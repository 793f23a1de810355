//! The discrete-event queue: a hierarchical calendar queue.
//!
//! [`EventQueue`] orders events by their firing time and breaks ties by
//! insertion order, which makes simulations fully deterministic for a given
//! seed. It is a hierarchical *calendar queue* — two timer wheels and a
//! far-future overflow heap — which turns the hot `push`/`pop` pair from a
//! [`BinaryHeap`]'s `O(log n)` pointer-chasing sifts into amortised `O(1)`
//! appends and pops on contiguous buckets:
//!
//! * **Near horizon** — a ring of [`NUM_BUCKETS`] inner buckets, each
//!   covering [`BUCKET_WIDTH_MICROS`] of virtual time. The ring holds the
//!   events of the *current window*: the span of the outer-wheel bucket the
//!   cursor is in (so `[cursor, end of the cursor's outer bucket)`, up to
//!   ≈ 0.5 s). Events within the window are appended to their bucket
//!   unsorted; a bucket is ordered exactly once, when the cursor reaches it
//!   (a counting sort over µs offsets for dense buckets, packed 4-byte sort
//!   keys for sparse ones), into the one contiguous *current-bucket* buffer,
//!   which then drains from its tail.
//! * **Mid horizon** — a ring of [`NUM_OUTER_BUCKETS`] outer buckets, each
//!   covering one full inner-window span, reaching ≈ 268 s out. Events
//!   beyond the current window are appended to their outer bucket, unsorted
//!   and in O(1). When the cursor crosses into the next outer bucket, that
//!   bucket *cascades*: its events are distributed to their inner buckets
//!   in one linear pass of appends. Cascading happens before any push can
//!   reach the new window's inner buckets directly, so appends stay in
//!   arrival order — the stability invariant the bucket sorts rely on.
//!   Multi-second protocol timers (retransmissions, failure detection) live
//!   here for the price of one extra append, never in a heap.
//! * **Far overflow** — events beyond the outer wheel's reach live in a
//!   min-heap. Each time the cursor enters a new outer bucket, heap events
//!   within the extended reach migrate to the outer wheel; when both wheels
//!   drain entirely, the cursor jumps straight to the earliest overflow
//!   event. Only events scheduled minutes out ever touch the heap.
//! * **Past guard** — a second min-heap accepts events pushed *before* the
//!   current bucket. The simulator never schedules before its clock, but
//!   the cursor can run ahead of the clock, and then it does reach the
//!   guard: the first start-up push anchors the cursor, so an earlier
//!   start-up timer goes here, and a push into an empty ring re-points the
//!   cursor forward, so a later push that falls in between goes here too.
//!   A count on seed 42 found about 11 k of the 30 000-node `wide-std`
//!   benchmark workload's 30 k start-up timers here, and about 44 k pushes
//!   (0.6 % of its events) in a `paper-std` run. Its events are popped one
//!   at a time, outside bucket drains, in exact `(time, seq)` order.
//!
//! Determinism: every event carries a monotonically increasing sequence
//! number, buckets are sorted by `(time, seq)`, and both heaps order by
//! `(time, seq)`, so the pop order is *exactly* the pop order of the
//! reference [`BinaryHeapQueue`] — a property checked by differential
//! property tests (`crates/simnet/tests/prop_queue_differential.rs`).
//!
//! Memory behaviour: the pending events of both wheels live in *pages* of
//! [`PAGE_EVENTS`] events drawn from one shared pool. A bucket is a chain of
//! pages, full but for its tail page; a push appends to the tail page and
//! takes a pooled page when it is full, and a page goes back to the pool as
//! soon as a cascade or the ordering of a bucket has emptied it. The pool
//! only grows when it is empty, so it holds the peak number of pages in use
//! at once: at most the peak pending events plus one partly filled page per
//! non-empty bucket. Besides the pool the queue keeps the current-bucket
//! buffer (whose capacity a batch consumer's buffer trades with on every
//! [`EventQueue::drain_bucket`]) and the two heaps. After a warm-up period the
//! steady-state event loop performs no allocation per event, and the
//! capacity the queue retains follows the peak *pending* population, not the
//! virtual time the cursor has travelled.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Number of ring buckets (the sliding near-horizon window).
pub const NUM_BUCKETS: usize = 512;

/// log2 of the bucket width in microseconds.
const BUCKET_WIDTH_BITS: u32 = 10;

/// Width of one bucket in microseconds (1.024 ms), making the inner window
/// `NUM_BUCKETS × BUCKET_WIDTH_MICROS` ≈ 0.5 s deep. Link latencies in the
/// simulated network are tens to hundreds of milliseconds, so in-flight
/// messages spread over tens to hundreds of buckets and mostly stay inside
/// the window; multi-second protocol timers (retransmissions, failure
/// detection) take the outer-wheel path.
pub const BUCKET_WIDTH_MICROS: u64 = 1 << BUCKET_WIDTH_BITS;

/// Number of outer-wheel buckets. Each spans one full inner window, so the
/// outer wheel reaches `NUM_OUTER_BUCKETS × NUM_BUCKETS ×
/// BUCKET_WIDTH_MICROS` ≈ 268 s of virtual time beyond the cursor.
pub const NUM_OUTER_BUCKETS: usize = 512;

/// Events per pooled page of bucket storage (see the module docs). A
/// non-empty bucket wastes at most one page less one event, so smaller pages
/// retain less beyond the pending events; larger ones take the pool fewer
/// times per event.
pub const PAGE_EVENTS: usize = 16;

/// log2 of an outer bucket's width in microseconds (= one inner window).
const OUTER_WIDTH_BITS: u32 = BUCKET_WIDTH_BITS + NUM_BUCKETS.trailing_zeros();
const _: () = assert!(NUM_BUCKETS.is_power_of_two());
const _: () = assert!(NUM_OUTER_BUCKETS.is_power_of_two());
const _: () = assert!(PAGE_EVENTS.is_power_of_two());

/// An event scheduled for a point of virtual time.
///
/// `E` is the simulator-specific payload describing what should happen.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic insertion sequence number, used to break ties.
    pub seq: u64,
    /// The event payload.
    pub payload: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the *earliest* (time, seq) compares greatest, so a
        // max-heap pops it first and an ascending sort puts it last (buckets
        // drain from their tail).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Page index meaning "no page" (end of a chain, empty free list).
const NO_PAGE: u32 = u32::MAX;

/// A bucket: the chain of pool pages holding its events in arrival order.
/// Every page but the tail is full, so `len` alone says whether the tail
/// has room.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NO_PAGE,
        tail: NO_PAGE,
        len: 0,
    };
}

/// One page of bucket storage: a `Vec` allocated once with capacity
/// [`PAGE_EVENTS`] that never grows, plus the link to the next page of its
/// chain (or of the free list).
#[derive(Debug)]
struct Page<E> {
    events: Vec<ScheduledEvent<E>>,
    next: u32,
}

/// Every page the queue ever allocated, each either in one bucket's chain or
/// on the free list, which is reused most recently freed first.
#[derive(Debug)]
struct PagePool<E> {
    pages: Vec<Page<E>>,
    free: u32,
}

impl<E> PagePool<E> {
    /// A page off the free list, or a new one when the list is empty.
    #[inline]
    fn take(&mut self) -> u32 {
        if self.free == NO_PAGE {
            let page = u32::try_from(self.pages.len())
                .ok()
                .filter(|&p| p != NO_PAGE)
                .expect("fewer than 2^32 - 1 pages");
            self.pages.push(Page {
                events: Vec::with_capacity(PAGE_EVENTS),
                next: NO_PAGE,
            });
            return page;
        }
        let page = self.free;
        let slot = &mut self.pages[page as usize];
        self.free = slot.next;
        slot.next = NO_PAGE;
        page
    }

    /// Returns an emptied page to the free list.
    #[inline]
    fn release(&mut self, page: u32) {
        let slot = &mut self.pages[page as usize];
        debug_assert!(slot.events.is_empty() && slot.events.capacity() >= PAGE_EVENTS);
        slot.next = self.free;
        self.free = page;
    }

    /// Appends `event` to `chain`, taking a page when its tail is full.
    #[inline]
    fn append(&mut self, chain: &mut Chain, event: ScheduledEvent<E>) {
        if (chain.len as usize).is_multiple_of(PAGE_EVENTS) {
            let page = self.take();
            if chain.len == 0 {
                chain.head = page;
            } else {
                self.pages[chain.tail as usize].next = page;
            }
            chain.tail = page;
        }
        chain.len += 1;
        let tail = &mut self.pages[chain.tail as usize].events;
        debug_assert!(tail.len() < PAGE_EVENTS, "a page never grows");
        tail.push(event);
    }

    /// The events of `chain`, in arrival order.
    fn iter<'a>(&'a self, chain: &Chain) -> impl Iterator<Item = &'a ScheduledEvent<E>> + 'a {
        let first = (chain.head != NO_PAGE).then_some(chain.head);
        std::iter::successors(first, move |&page| {
            let next = self.pages[page as usize].next;
            (next != NO_PAGE).then_some(next)
        })
        .flat_map(move |page| self.pages[page as usize].events.iter())
    }

    /// Moves the events of `chain` out in arrival order, each into the slot
    /// of `out` that `dest` names for it (called with the arrival index),
    /// freeing every page as it empties; returns how many moved. `dest` must
    /// name each of the slots `0..chain.len` exactly once.
    #[inline]
    fn scatter(
        &mut self,
        chain: Chain,
        out: &mut [std::mem::MaybeUninit<ScheduledEvent<E>>],
        mut dest: impl FnMut(usize, &ScheduledEvent<E>) -> usize,
    ) -> usize {
        let mut idx = 0;
        let mut page = chain.head;
        while page != NO_PAGE {
            let slot = &mut self.pages[page as usize];
            for event in slot.events.drain(..) {
                out[dest(idx, &event)].write(event);
                idx += 1;
            }
            let next = slot.next;
            self.release(page);
            page = next;
        }
        idx
    }

    /// Bytes the pool owns: every page's events plus the page table.
    fn heap_bytes(&self) -> usize {
        self.pages.len() * PAGE_EVENTS * std::mem::size_of::<ScheduledEvent<E>>()
            + self.pages.capacity() * std::mem::size_of::<Page<E>>()
    }
}

/// A priority queue of [`ScheduledEvent`]s ordered by time then insertion:
/// the calendar-queue scheduler described in the [module docs](self).
///
/// # Examples
///
/// ```
/// use heap_simnet::event::EventQueue;
/// use heap_simnet::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(20), "late");
/// q.push(SimTime::from_millis(10), "early");
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The inner ring. Absolute bucket number `b` (`time_µs >>
    /// BUCKET_WIDTH_BITS`) maps to slot `b % NUM_BUCKETS`; the ring holds
    /// exactly the events with `b ∈ [cursor_bucket, window_end)`, where
    /// `window_end` is the first bucket of the next *outer* bucket — the
    /// window never spans an outer-bucket boundary, so a cascading outer
    /// bucket always lands on inner buckets no push has reached yet. The
    /// cursor's own bucket is in [`current`](Self::current), so its chain is
    /// empty. A boxed fixed-size array so that masked slot indexing needs no
    /// bounds check.
    buckets: Box<[Chain; NUM_BUCKETS]>,
    /// The current bucket, ordered: descending `(time, seq)`, earliest event
    /// last. Invariant: it is non-empty whenever the ring is.
    current: Vec<ScheduledEvent<E>>,
    /// Absolute bucket number of the current bucket. Invariant: every ring
    /// event is in `[cursor_bucket, window_end)`.
    cursor_bucket: u64,
    /// Number of events currently in the inner ring, `current` included.
    wheel_len: usize,
    /// The outer wheel. Absolute outer-bucket number `o` (`time_µs >>
    /// OUTER_WIDTH_BITS`) maps to slot `o % NUM_OUTER_BUCKETS`; it holds the
    /// events with `o ∈ (cursor's outer bucket, cursor's outer bucket +
    /// NUM_OUTER_BUCKETS)`, unsorted, in arrival order (the cursor's own
    /// outer bucket has already cascaded into the inner ring).
    outer: Box<[Chain; NUM_OUTER_BUCKETS]>,
    /// Number of events currently in the outer wheel.
    outer_len: usize,
    /// The pages behind both wheels' chains.
    pool: PagePool<E>,
    /// Events pushed before the current bucket (see module docs).
    past: BinaryHeap<ScheduledEvent<E>>,
    /// Events at or beyond the outer wheel's reach.
    overflow: BinaryHeap<ScheduledEvent<E>>,
    /// Per-µs-offset rank counters for [`order_bucket`](Self::order_bucket)'s
    /// dense path (counting sort), zeroed at the start of each use (a 4 KiB
    /// memset, amortised over the bucket by [`DENSE_BUCKET_MIN`]).
    offset_counts: Box<[u32; BUCKET_WIDTH_MICROS as usize]>,
    next_seq: u64,
    /// While a batch produced by [`EventQueue::drain_bucket`] is outstanding:
    /// the firing time of the batch's *latest* event. Pushes at or before
    /// this time would have popped interleaved with the batch under
    /// single-pop dispatch, so they latch [`EventQueue::drain_intruded`] and
    /// the batch consumer falls back to merging against the queue front.
    /// `None` when no batch is outstanding.
    drain_guard: Option<SimTime>,
    /// Whether a push intruded into the outstanding batch (see
    /// [`EventQueue::drain_guard`]).
    intruded: bool,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Absolute bucket number of a time in microseconds.
#[inline]
fn bucket_of(micros: u64) -> u64 {
    micros >> BUCKET_WIDTH_BITS
}

/// Ring slot of an absolute bucket number.
#[inline]
fn slot_of(bucket: u64) -> usize {
    (bucket & (NUM_BUCKETS as u64 - 1)) as usize
}

/// Absolute outer-bucket number of a time in microseconds.
#[inline]
fn outer_bucket_of(micros: u64) -> u64 {
    micros >> OUTER_WIDTH_BITS
}

/// Absolute outer-bucket number containing an absolute inner bucket.
#[inline]
fn outer_of(bucket: u64) -> u64 {
    bucket >> (OUTER_WIDTH_BITS - BUCKET_WIDTH_BITS)
}

/// Outer-ring slot of an absolute outer-bucket number.
#[inline]
fn outer_slot_of(outer_bucket: u64) -> usize {
    (outer_bucket & (NUM_OUTER_BUCKETS as u64 - 1)) as usize
}

/// First inner bucket of an absolute outer bucket.
#[inline]
fn window_start_of(outer_bucket: u64) -> u64 {
    outer_bucket << (OUTER_WIDTH_BITS - BUCKET_WIDTH_BITS)
}

/// Within-bucket µs offset of an event.
#[inline]
fn offset_of<E>(event: &ScheduledEvent<E>) -> usize {
    (event.time.as_micros() & (BUCKET_WIDTH_MICROS - 1)) as usize
}

/// Bits of a packed sort key holding the arrival index; the within-bucket
/// µs offset occupies the bits above, so `BUCKET_WIDTH_BITS` may not exceed
/// `32 - KEY_IDX_BITS`.
const KEY_IDX_BITS: u32 = 22;
const _: () = assert!(BUCKET_WIDTH_BITS <= 32 - KEY_IDX_BITS);

/// Bucket size at which [`EventQueue`]'s `order_bucket` switches from the
/// packed-key comparison sort to the offset counting sort. The counting
/// sort's fixed cost is the [`BUCKET_WIDTH_MICROS`]-entry prefix sum
/// (~1 µs-of-work per bucket); the comparison sort overtakes it below a few
/// dozen events. The sparse path's keys and ranks live on the stack, sized
/// by this bound, and it must stay below `2^KEY_IDX_BITS` so no key
/// truncates.
const DENSE_BUCKET_MIN: usize = 64;
const _: () = assert!(DENSE_BUCKET_MIN < (1 << KEY_IDX_BITS));
const _: () = assert!(DENSE_BUCKET_MIN <= u8::MAX as usize + 1);

/// The packed sort key of an event at arrival position `idx` (see
/// [`EventQueue::order_bucket`]).
#[inline]
fn key_of(micros: u64, idx: usize) -> u32 {
    let off = (micros & (BUCKET_WIDTH_MICROS - 1)) as u32;
    (off << KEY_IDX_BITS) | (idx as u32 & ((1 << KEY_IDX_BITS) - 1))
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: Box::new([Chain::EMPTY; NUM_BUCKETS]),
            current: Vec::new(),
            cursor_bucket: 0,
            wheel_len: 0,
            outer: Box::new([Chain::EMPTY; NUM_OUTER_BUCKETS]),
            outer_len: 0,
            pool: PagePool {
                pages: Vec::new(),
                free: NO_PAGE,
            },
            past: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            offset_counts: vec![0u32; BUCKET_WIDTH_MICROS as usize]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("built with BUCKET_WIDTH_MICROS entries")),
            next_seq: 0,
            drain_guard: None,
            intruded: false,
        }
    }

    /// Moves the chain of `buckets[slot]` into the (empty) current-bucket
    /// buffer in drain order — descending `(time, seq)`, so the earliest
    /// event sits at the tail — and returns its pages to the pool.
    ///
    /// Within a bucket an event's time is fully determined by its µs offset
    /// and a chain holds its events in ascending `seq` order, so `(offset,
    /// arrival index)` carries the complete `(time, seq)` order. Both paths
    /// first work out every event's output position, then move each event
    /// exactly once, in one sequential pass over the pages:
    ///
    /// * **Sparse buckets** (fewer events than [`DENSE_BUCKET_MIN`]): packed
    ///   `(offset << KEY_IDX_BITS) | arrival` keys are built in one
    ///   sequential scan — which doubles as a prefetch pass over event data
    ///   that went cold since it was pushed — and sorted (4-byte elements
    ///   instead of whole events); the sorted keys give each arrival its
    ///   position.
    /// * **Dense buckets**: a counting sort over the
    ///   [`BUCKET_WIDTH_MICROS`] possible offsets. One scan builds the
    ///   per-offset histogram, an exclusive prefix sum turns it into ranks,
    ///   and the move places each event directly — O(k) ordering work per
    ///   bucket instead of the comparison sort's O(k log k), which flattens
    ///   the per-event queue cost against bucket density (`BENCH_6.json`
    ///   quantifies it). Scanning arrival order and incrementing each
    ///   offset's rank keeps equal-offset events in ascending `seq`, exactly
    ///   as the packed keys do.
    #[allow(unsafe_code)] // the `set_len` below; `crate::prefetch` is the crate's other `unsafe`
    fn order_bucket(&mut self, slot: usize) {
        let chain = std::mem::replace(&mut self.buckets[slot], Chain::EMPTY);
        let k = chain.len as usize;
        debug_assert!(self.current.is_empty(), "the previous bucket drained");
        self.current.reserve(k);
        let out = &mut self.current.spare_capacity_mut()[..k];
        let moved = if k >= DENSE_BUCKET_MIN {
            let counts = &mut self.offset_counts;
            // The prefix sum below dirties every entry (unused offsets hold
            // the running accumulator), so the whole array is re-zeroed per
            // use.
            counts.fill(0);
            for event in self.pool.iter(&chain) {
                counts[offset_of(event)] += 1;
            }
            // Exclusive prefix sum: counts[o] becomes the ascending rank of
            // the first event at offset o.
            let mut acc = 0u32;
            for c in counts.iter_mut() {
                let n = *c;
                *c = acc;
                acc += n;
            }
            // Ascending rank stored back-to-front = descending (time, seq).
            self.pool.scatter(chain, out, |_, event| {
                let offset = offset_of(event);
                let rank = counts[offset] as usize;
                counts[offset] += 1;
                k - 1 - rank
            })
        } else {
            let mut keys = [0u32; DENSE_BUCKET_MIN];
            for (idx, event) in self.pool.iter(&chain).enumerate() {
                keys[idx] = key_of(event.time.as_micros(), idx);
            }
            let keys = &mut keys[..k];
            keys.sort_unstable();
            // Reverse key order = descending (offset, arrival) = descending
            // (time, seq): the storage order with the earliest event last.
            let mut position = [0u8; DENSE_BUCKET_MIN];
            for (pos, key) in keys.iter().rev().enumerate() {
                position[(key & ((1 << KEY_IDX_BITS) - 1)) as usize] = pos as u8;
            }
            self.pool
                .scatter(chain, out, |idx, _| usize::from(position[idx]))
        };
        assert_eq!(moved, k, "a chain holds exactly its length");
        // SAFETY: `scatter` wrote `k` events into the first `k` spare slots,
        // each to the slot its position names, and the positions (sorted key
        // ranks, or counting-sort ranks) are a permutation of `0..k`: every
        // slot below `k` holds an initialised event.
        unsafe { self.current.set_len(k) };
    }

    /// First inner bucket beyond the current window: pushes at or past it
    /// take the outer wheel (or the overflow heap).
    #[inline]
    fn window_end(&self) -> u64 {
        window_start_of(outer_of(self.cursor_bucket) + 1)
    }

    /// Moves the cursor to the next non-empty inner bucket — within the
    /// current window by the ring invariant, so no cascade or overflow
    /// reveal can be due — and orders it. Requires a non-empty ring whose
    /// current bucket has drained.
    #[inline]
    fn advance_cursor(&mut self) {
        let window_end = self.window_end();
        loop {
            self.cursor_bucket += 1;
            debug_assert!(self.cursor_bucket < window_end, "ring event escaped window");
            if self.buckets[slot_of(self.cursor_bucket)].len > 0 {
                break;
            }
        }
        self.order_bucket(slot_of(self.cursor_bucket));
    }

    /// Migrates every overflow event within the outer wheel's reach into its
    /// outer bucket. Called whenever the cursor enters a new outer bucket
    /// (never from the per-event hot path). The heap pops in ascending
    /// `(time, seq)` order and a newly reachable outer bucket cannot have
    /// received direct pushes yet, so same-microsecond migrants land in
    /// ascending-seq arrival order — the stability invariant the bucket
    /// sorts rely on.
    fn reveal_overflow(&mut self) {
        // `outer_bucket_of` of any time is ≤ 2^45, so this cannot wrap.
        let reach_end = outer_of(self.cursor_bucket) + NUM_OUTER_BUCKETS as u64;
        while let Some(head) = self.overflow.peek() {
            let outer_bucket = outer_bucket_of(head.time.as_micros());
            if outer_bucket >= reach_end {
                break;
            }
            let event = self.overflow.pop().expect("peeked event exists");
            self.push_outer(outer_bucket, event);
        }
    }

    /// Appends `event` to its outer bucket.
    #[inline]
    fn push_outer(&mut self, outer_bucket: u64, event: ScheduledEvent<E>) {
        self.pool
            .append(&mut self.outer[outer_slot_of(outer_bucket)], event);
        self.outer_len += 1;
    }

    /// Cascades the cursor's outer bucket into the inner ring: one linear
    /// pass distributing its events to their inner buckets, in arrival
    /// order, each outer page returning to the pool as it empties. Called
    /// exactly once per outer bucket, when the cursor enters it — before any
    /// push can target the new window's inner buckets directly (they were
    /// beyond `window_end` until now), so per-bucket arrival order stays
    /// ascending in `seq` for same-time events.
    fn cascade_window(&mut self) {
        let outer_slot = outer_slot_of(outer_of(self.cursor_bucket));
        let chain = std::mem::replace(&mut self.outer[outer_slot], Chain::EMPTY);
        self.outer_len -= chain.len as usize;
        self.wheel_len += chain.len as usize;
        let mut page = chain.head;
        while page != NO_PAGE {
            // Lend the page's buffer out while its events take other pages;
            // it returns (empty, capacity intact) before the page is freed.
            let mut events = std::mem::take(&mut self.pool.pages[page as usize].events);
            for event in events.drain(..) {
                let bucket = bucket_of(event.time.as_micros());
                debug_assert!(bucket >= self.cursor_bucket, "cascade into the past");
                self.pool.append(&mut self.buckets[slot_of(bucket)], event);
            }
            let slot = &mut self.pool.pages[page as usize];
            slot.events = events;
            let next = slot.next;
            self.pool.release(page);
            page = next;
        }
    }

    /// The earliest event beyond the (empty) inner ring, if any: the
    /// `(time, seq)`-minimum of the first non-empty outer bucket, or the
    /// overflow head once the outer wheel is empty too. Outer buckets are
    /// unsorted, so this scans one bucket — acceptable off the hot path
    /// (the wheel only empties when every near event has drained).
    fn beyond_wheel(&self) -> Option<&ScheduledEvent<E>> {
        debug_assert_eq!(self.wheel_len, 0);
        if self.outer_len > 0 {
            let base = outer_of(self.cursor_bucket);
            for d in 1..NUM_OUTER_BUCKETS as u64 {
                let chain = &self.outer[outer_slot_of(base + d)];
                if chain.len > 0 {
                    // Reversed `Ord`: the maximum is the earliest
                    // `(time, seq)`, i.e. exactly what `pop` yields next.
                    return self.pool.iter(chain).max();
                }
            }
            unreachable!("outer_len > 0 but no outer bucket within reach");
        }
        self.overflow.peek()
    }

    /// Moves the cursor forward to the next pending event once the inner
    /// ring is empty, cascading outer buckets (and revealing overflow) along
    /// the way, and orders the new current bucket. Returns `false` when
    /// nothing is pending beyond the ring.
    fn refill_wheel(&mut self) -> bool {
        debug_assert_eq!(self.wheel_len, 0);
        if self.outer_len > 0 {
            // Step to the next non-empty outer bucket. Overflow events are
            // all beyond the pre-step reach, so none can undercut it.
            let base = outer_of(self.cursor_bucket);
            for d in 1..NUM_OUTER_BUCKETS as u64 {
                if self.outer[outer_slot_of(base + d)].len > 0 {
                    self.cursor_bucket = window_start_of(base + d);
                    break;
                }
            }
            debug_assert_ne!(outer_of(self.cursor_bucket), base, "outer_len lied");
        } else if let Some(head) = self.overflow.peek() {
            // Jump straight to the earliest overflow event; nothing pending
            // fires before it, so its bucket anchors the new window.
            self.cursor_bucket = bucket_of(head.time.as_micros());
        } else {
            return false;
        }
        self.reveal_overflow();
        self.cascade_window();
        // The target outer bucket was non-empty, so the window holds at
        // least one event at or after the cursor.
        let window_end = self.window_end();
        while self.buckets[slot_of(self.cursor_bucket)].len == 0 {
            self.cursor_bucket += 1;
            debug_assert!(self.cursor_bucket < window_end, "window held no event");
        }
        self.order_bucket(slot_of(self.cursor_bucket));
        true
    }

    /// Schedules `payload` to fire at `time`. Returns the sequence number
    /// assigned to the event.
    pub fn push(&mut self, time: SimTime, payload: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = ScheduledEvent { time, seq, payload };
        if let Some(guard) = self.drain_guard {
            if event.time <= guard {
                self.intruded = true;
            }
        }
        let micros = event.time.as_micros();
        let bucket = bucket_of(micros);
        if bucket < self.cursor_bucket {
            if self.is_empty() {
                // Nothing pending constrains the window: re-anchor on the
                // event instead of treating it as out-of-order.
                self.cursor_bucket = bucket;
                self.current.push(event);
                self.wheel_len = 1;
            } else {
                // Before the current bucket, which the cursor's anchoring
                // or re-pointing can leave ahead of the clock (see the
                // module docs' past guard): hold it in the past heap.
                self.past.push(event);
            }
        } else if bucket < self.window_end() {
            if self.wheel_len == 0 {
                // Empty ring: re-point the cursor at this event (a singleton
                // bucket is trivially sorted). The window — and with it the
                // outer wheel's reach — is unchanged, so nothing cascades.
                self.current.push(event);
                self.wheel_len = 1;
                self.cursor_bucket = bucket;
            } else if bucket == self.cursor_bucket {
                // The current bucket is kept sorted; insert in place.
                // `(time, seq)` is unique, so binary_search always errs.
                let pos = self.current.binary_search(&event).unwrap_err();
                self.current.insert(pos, event);
                self.wheel_len += 1;
            } else {
                self.pool.append(&mut self.buckets[slot_of(bucket)], event);
                self.wheel_len += 1;
            }
        } else {
            let outer_bucket = outer_bucket_of(micros);
            if outer_bucket - outer_of(self.cursor_bucket) < NUM_OUTER_BUCKETS as u64 {
                self.push_outer(outer_bucket, event);
            } else {
                self.overflow.push(event);
            }
        }
        seq
    }

    /// Removes and returns the earliest scheduled event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        // Past events are strictly earlier than every wheel/overflow event.
        // The emptiness guard keeps the (out-of-line, sift-down-capable)
        // heap pop off the hot path: the past heap is almost always empty.
        if !self.past.is_empty() {
            return self.past.pop();
        }
        if self.wheel_len == 0 && !self.refill_wheel() {
            return None;
        }
        Some(self.pop_from_wheel())
    }

    /// Pops the tail of the (non-empty, sorted) current bucket and advances
    /// the cursor if that drained it. The shared wheel arm of
    /// [`EventQueue::pop`] and [`EventQueue::pop_at_or_before`].
    #[inline]
    fn pop_from_wheel(&mut self) -> ScheduledEvent<E> {
        let event = self.current.pop().expect("current bucket is non-empty");
        self.wheel_len -= 1;
        if self.current.is_empty() && self.wheel_len > 0 {
            self.advance_cursor();
        }
        event
    }

    /// The firing time of the earliest scheduled event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|e| e.time)
    }

    /// The earliest scheduled event, if any, without removing it.
    ///
    /// The returned event is exactly the one the next [`EventQueue::pop`]
    /// would yield (when the ring is empty, `beyond_wheel`
    /// resolves the earliest `(time, seq)` pending in the outer wheel or the
    /// overflow heap, which is also what the window refill in `pop` surfaces
    /// first). The simulator's run loop uses this to merge intruding pushes
    /// against a drained batch.
    pub fn peek(&self) -> Option<&ScheduledEvent<E>> {
        if let Some(event) = self.past.peek() {
            return Some(event);
        }
        if self.wheel_len > 0 {
            return self.current.last();
        }
        self.beyond_wheel()
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `deadline`; leaves the queue untouched otherwise.
    ///
    /// This is the fused `peek_time` + `pop` the event loop runs per event:
    /// one descent decides *and* pops, instead of resolving the queue front
    /// twice.
    #[inline]
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
        if !self.past.is_empty() {
            if self.past.peek().is_some_and(|e| e.time <= deadline) {
                return self.past.pop();
            }
            return None;
        }
        if self.wheel_len > 0 {
            let tail = self.current.last().expect("current bucket is non-empty");
            if tail.time > deadline {
                return None;
            }
            return Some(self.pop_from_wheel());
        }
        match self.beyond_wheel() {
            Some(e) if e.time <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Moves the entire current bucket — the earliest pending events — into
    /// `out` in *descending* `(time, seq)` order (earliest last, so callers
    /// consume via `out.pop()`) and advances the cursor past it. The batch is
    /// exactly the run of events a sequence of [`EventQueue::pop`] calls
    /// would yield, in the same order; the caller dispatches them without
    /// touching the queue per event. Returns `true` if a batch was produced.
    ///
    /// Returns `false` — draining nothing — when the queue is empty, when
    /// the past-guard heap is non-empty (out-of-order pushes must pop
    /// first), or when `deadline` is set and the bucket's latest event fires
    /// after it (a straddling bucket must not surrender events beyond the
    /// deadline). The caller falls back to single pops for those cases.
    ///
    /// While the batch is outstanding the queue arms a *drain guard*: any
    /// push at or before the batch's latest firing time would have popped
    /// interleaved with the batch under single-pop dispatch (it lands in the
    /// past heap, or re-anchors the ring when the queue drained empty), so
    /// it latches [`EventQueue::drain_intruded`]. On intrusion the caller
    /// merges the rest of the batch against [`EventQueue::peek`] /
    /// [`EventQueue::pop`] by `(time, seq)`, restoring the exact sequential
    /// order; pushes *later* than the guard are genuinely later than every
    /// batch event and need no merging. Call [`EventQueue::finish_drain`]
    /// once the batch is consumed.
    ///
    /// # Panics
    ///
    /// Panics if `out` is non-empty (debug builds).
    pub fn drain_bucket(
        &mut self,
        deadline: Option<SimTime>,
        out: &mut Vec<ScheduledEvent<E>>,
    ) -> bool {
        debug_assert!(out.is_empty(), "drain_bucket needs an empty batch buffer");
        if !self.past.is_empty() {
            return false;
        }
        if self.wheel_len == 0 && !self.refill_wheel() {
            return false;
        }
        // The current bucket is sorted descending: its head fires last.
        let latest = self
            .current
            .first()
            .expect("current bucket is non-empty")
            .time;
        if let Some(d) = deadline {
            if latest > d {
                return false;
            }
        }
        // Hand the whole sorted bucket over and take the (empty) batch
        // buffer as the next current bucket — no per-event copies in either
        // direction.
        std::mem::swap(&mut self.current, out);
        self.wheel_len -= out.len();
        if self.wheel_len > 0 {
            self.advance_cursor();
        }
        // With the wheel drained empty the cursor stays put; a later push at
        // or before `latest` re-anchors the ring (or lands in the past heap
        // once something re-anchored it) and is caught by the guard either
        // way.
        self.drain_guard = Some(latest);
        self.intruded = false;
        true
    }

    /// Whether a push intruded into the batch produced by the last
    /// [`EventQueue::drain_bucket`] (see there). Cleared by
    /// [`EventQueue::finish_drain`] and by the next drain.
    #[inline]
    pub fn drain_intruded(&self) -> bool {
        self.intruded
    }

    /// Disarms the drain guard once the caller has consumed a
    /// [`EventQueue::drain_bucket`] batch, so later pushes stop being
    /// tracked as intrusions.
    #[inline]
    pub fn finish_drain(&mut self) {
        self.drain_guard = None;
        self.intruded = false;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.past.len() + self.wheel_len + self.outer_len + self.overflow.len()
    }

    /// Heap bytes the queue holds for events, pending or not: the page pool
    /// (pages and page table), the current-bucket buffer and both heaps.
    /// Subtracting `len() × size_of::<ScheduledEvent<E>>()` leaves the
    /// slack; only the wheels' fixed slot arrays and the counting-sort
    /// table go uncounted.
    pub fn retained_bytes(&self) -> u64 {
        let entries = self.current.capacity() + self.past.capacity() + self.overflow.capacity();
        (self.pool.heap_bytes() + entries * std::mem::size_of::<ScheduledEvent<E>>()) as u64
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The [`BinaryHeap`]-backed event queue: the ordering oracle of
/// [`EventQueue`] in the queue differential tests, and the queue of the
/// simulator's whole-engine reference core.
///
/// Pop order is identical to [`EventQueue`]: ascending `(time, seq)`.
#[derive(Debug)]
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time`. Returns the sequence number
    /// assigned to the event.
    pub fn push(&mut self, time: SimTime, payload: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, payload });
        seq
    }

    /// Removes and returns the earliest scheduled event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
    }

    /// The firing time of the earliest scheduled event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// The earliest scheduled event, if any, without removing it.
    pub fn peek(&self) -> Option<&ScheduledEvent<E>> {
        self.heap.peek()
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `deadline`; leaves the queue untouched otherwise.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), 5);
        q.push(SimTime::from_millis(1), 1);
        q.push(SimTime::from_millis(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(2), ());
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        let mut t = SimTime::ZERO;
        let mut popped = Vec::new();
        for round in 0..50u64 {
            q.push(SimTime::from_micros(1_000 * (100 - round)), round);
            q.push(SimTime::from_micros(1_000 * round), round + 1000);
            if round % 3 == 0 {
                if let Some(e) = q.pop() {
                    assert!(e.time >= t, "time went backwards");
                    t = e.time;
                    popped.push(e.time);
                }
            }
        }
        while let Some(e) = q.pop() {
            assert!(e.time >= t);
            t = e.time;
            popped.push(e.time);
        }
        assert_eq!(popped.len(), 100);
        let _ = t + SimDuration::ZERO;
    }

    #[test]
    fn far_future_events_cross_epochs() {
        // Events many epochs apart exercise the overflow heap, the epoch
        // re-anchoring and the empty-epoch skip.
        let mut q = EventQueue::new();
        let times: Vec<u64> = vec![0, 1, 500_000, 600_000, 3_600_000_000, 3_600_000_001];
        for (i, &t) in times.iter().enumerate().rev() {
            q.push(SimTime::from_micros(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn push_before_cursor_still_pops_in_order() {
        // Advance the cursor within an epoch, then push an earlier event of
        // the same epoch: the cursor must move back, not mis-order.
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), "a");
        q.push(SimTime::from_millis(100), "c");
        assert_eq!(q.pop().unwrap().payload, "a");
        q.push(SimTime::from_millis(50), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(50)));
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.pop().unwrap().payload, "c");
        assert!(q.pop().is_none());

        // Re-anchor on a far event, then push before the whole epoch: the
        // past heap must catch it and pop it first.
        q.push(SimTime::from_secs(10), "later");
        q.push(SimTime::from_millis(1), "earlier");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["earlier", "later"]);
    }

    #[test]
    fn matches_reference_queue_on_a_mixed_workload() {
        // Deterministic pseudo-random mixed workload driving both queues.
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..5_000u64 {
            let t = SimTime::from_micros(next() % 2_000_000);
            cal.push(t, i);
            heap.push(t, i);
            if next() % 3 == 0 {
                let a = cal.pop();
                let b = heap.pop();
                match (a, b) {
                    (Some(x), Some(y)) => {
                        assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
                    }
                    (None, None) => {}
                    other => panic!("queues diverged: {other:?}"),
                }
            }
            assert_eq!(cal.len(), heap.len());
            assert_eq!(cal.peek_time(), heap.peek_time());
        }
        loop {
            match (cal.pop(), heap.pop()) {
                (Some(x), Some(y)) => {
                    assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
                }
                (None, None) => break,
                other => panic!("queues diverged: {other:?}"),
            }
        }
    }

    /// Consumes `q` entirely through the batch path (single pops where the
    /// queue refuses to drain) and returns the `(time, seq)` order observed.
    /// No pushes happen during consumption, so no merging is ever needed —
    /// the sequence must equal plain `pop` order exactly.
    fn drain_all_batched(q: &mut EventQueue<u64>) -> Vec<(SimTime, u64)> {
        let mut order = Vec::new();
        let mut batch = Vec::new();
        loop {
            if q.drain_bucket(None, &mut batch) {
                while let Some(ev) = batch.pop() {
                    assert!(!q.drain_intruded(), "no pushes happened mid-batch");
                    order.push((ev.time, ev.seq));
                }
                q.finish_drain();
            } else {
                match q.pop() {
                    Some(ev) => order.push((ev.time, ev.seq)),
                    None => break,
                }
            }
        }
        order
    }

    #[test]
    fn drain_bucket_matches_single_pop_across_ring_wrap() {
        // Regression for the batch path: bucket boundaries interacting with
        // far-overflow migration must not reorder events against single-pop
        // dispatch, in particular where the cursor crosses the 512-bucket
        // ring wrap (absolute bucket 511 → 512 maps slot 511 → slot 0).
        let build = || {
            let mut q = EventQueue::new();
            let wrap = NUM_BUCKETS as u64 * BUCKET_WIDTH_MICROS; // bucket 512
            let mut payload = 0u64;
            // Dense same-time ties straddling the wrap boundary buckets.
            for &base in &[
                wrap - 2 * BUCKET_WIDTH_MICROS, // bucket 510
                wrap - BUCKET_WIDTH_MICROS,     // bucket 511 (slot 511)
                wrap,                           // bucket 512 (slot 0)
                wrap + BUCKET_WIDTH_MICROS,     // bucket 513 (slot 1)
            ] {
                for off in [0u64, 1, 1, 513, BUCKET_WIDTH_MICROS - 1] {
                    q.push(SimTime::from_micros(base + off), payload);
                    payload += 1;
                }
            }
            // Far-overflow events that migrate in while the cursor advances
            // across the wrap (one window ahead of the wrap buckets).
            for i in 0..8u64 {
                q.push(
                    SimTime::from_micros(wrap + (NUM_BUCKETS as u64 - 2 + i) * BUCKET_WIDTH_MICROS),
                    payload,
                );
                payload += 1;
            }
            q
        };
        let mut batched = build();
        let mut reference = build();
        let batch_order = drain_all_batched(&mut batched);
        let mut pop_order = Vec::new();
        while let Some(ev) = reference.pop() {
            pop_order.push((ev.time, ev.seq));
        }
        assert_eq!(batch_order, pop_order);
        assert!(batched.is_empty());
    }

    #[test]
    fn drain_bucket_refuses_past_guard_and_straddling_deadlines() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), 0u64);
        q.push(SimTime::from_secs(10), 1);
        // Advance the cursor, then push before it: the event lands in the
        // past heap and the queue must refuse to drain until it popped.
        assert_eq!(q.pop().unwrap().seq, 0);
        q.push(SimTime::from_millis(1), 2);
        let mut batch = Vec::new();
        assert!(!q.drain_bucket(None, &mut batch));
        assert_eq!(q.pop().unwrap().seq, 2);
        // A deadline inside the current bucket: the bucket's latest event
        // fires after it, so the batch path stands down and single pops take
        // the prefix.
        let base = SimTime::from_secs(10);
        q.push(base + SimDuration::from_micros(3), 3);
        assert!(!q.drain_bucket(Some(base + SimDuration::from_micros(1)), &mut batch));
        assert_eq!(
            q.pop_at_or_before(base + SimDuration::from_micros(1))
                .unwrap()
                .seq,
            1
        );
        // With the straddler gone the whole bucket fits the deadline.
        assert!(q.drain_bucket(Some(base + SimDuration::from_micros(3)), &mut batch));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.pop().unwrap().seq, 3);
        q.finish_drain();
        assert!(q.is_empty());
    }

    #[test]
    fn drain_guard_latches_intrusions() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.push(t, 0u64);
        q.push(t + SimDuration::from_micros(5), 1);
        q.push(SimTime::from_secs(5), 2);
        let mut batch = Vec::new();
        assert!(q.drain_bucket(None, &mut batch));
        assert_eq!(batch.len(), 2);
        // A push later than the batch's latest time is no intrusion...
        q.push(SimTime::from_millis(900), 3);
        assert!(!q.drain_intruded());
        // ...but one at or before it is (same-tick timer, zero-delay send).
        q.push(t + SimDuration::from_micros(2), 4);
        assert!(q.drain_intruded());
        // The intruder pops in exact (time, seq) order against the batch.
        let front = q.peek().expect("intruder is pending");
        assert_eq!(
            (front.time, front.seq),
            (t + SimDuration::from_micros(2), 4)
        );
        q.finish_drain();
        assert!(!q.drain_intruded());

        // Re-anchor intrusion: draining the queue empty and then pushing at
        // or before the batch's latest time must also latch the flag (the
        // push re-anchors the ring rather than landing in the past heap).
        let mut q = EventQueue::new();
        q.push(t, 0u64);
        let mut batch = Vec::new();
        assert!(q.drain_bucket(None, &mut batch));
        q.push(t, 1);
        assert!(q.drain_intruded());
        assert_eq!(q.peek().map(|e| e.seq), Some(1));
    }

    /// Pages in the chains of both wheels, and the number of non-empty
    /// chains.
    fn chained_pages<E>(q: &EventQueue<E>) -> (usize, usize) {
        let chains = q.buckets.iter().chain(q.outer.iter());
        chains.fold((0, 0), |(pages, buckets), c| {
            let n = (c.len as usize).div_ceil(PAGE_EVENTS);
            (pages + n, buckets + usize::from(n > 0))
        })
    }

    /// Pages on the free list, each checked empty with its full capacity.
    fn free_pages<E>(q: &EventQueue<E>) -> usize {
        let mut count = 0;
        let mut page = q.pool.free;
        while page != NO_PAGE {
            let slot = &q.pool.pages[page as usize];
            assert!(slot.events.is_empty());
            assert_eq!(slot.events.capacity(), PAGE_EVENTS);
            count += 1;
            page = slot.next;
        }
        count
    }

    #[test]
    fn retained_capacity_follows_pending_events_not_elapsed_time() {
        // A constant population in which every event, once popped, is
        // re-armed 600 ms ahead: always beyond the (≤ 524 ms) window, so
        // always through the outer wheel.
        const POPULATION: u64 = 10_000;
        const DELAY: SimDuration = SimDuration::from_millis(600);
        let entry = std::mem::size_of::<ScheduledEvent<u64>>() as u64;
        let page = PAGE_EVENTS as u64 * entry;
        let mut q = EventQueue::new();
        for i in 0..POPULATION {
            q.push(SimTime::from_micros(i * 60), i);
        }
        let outer_width = NUM_BUCKETS as u64 * BUCKET_WIDTH_MICROS;
        let horizon = SimTime::from_micros(420 * outer_width);
        let mut peak_buckets = 0;
        for step in 0u64.. {
            let event = q.pop().expect("the population is constant");
            if event.time >= horizon {
                break;
            }
            q.push(event.time + DELAY, event.payload);
            assert_eq!(q.len() as u64, POPULATION);
            if step % 499 == 0 {
                // Every page is in exactly one chain or on the free list: a
                // page that leaks is in neither.
                let (pages, buckets) = chained_pages(&q);
                assert_eq!(pages + free_pages(&q), q.pool.pages.len(), "step {step}");
                peak_buckets = peak_buckets.max(buckets);
            }
        }
        // All 512 inner buckets and at most two outer ones are non-empty at
        // once, and a bucket wastes less than one page. The pool grows only
        // when it is empty, so it holds the peak of pages in use. Per-slot
        // buffers parked in cascaded outer slots retained 690× the pending
        // bytes over this horizon, pooled growable buffers 4.9×.
        assert!(peak_buckets <= NUM_BUCKETS + 2, "{peak_buckets} buckets");
        let retained = q.retained_bytes();
        let contiguous = q.current.capacity() as u64 * entry;
        let bound = POPULATION * entry * 5 / 4 + (NUM_BUCKETS as u64 + 2) * page + contiguous;
        assert!(
            retained <= bound,
            "retained {retained} B for {POPULATION} pending events of {entry} B (bound {bound})"
        );
    }

    #[test]
    fn reference_queue_basics() {
        let mut q = BinaryHeapQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(2), "b");
        q.push(SimTime::from_millis(1), "a");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(q.pop().is_none());
    }
}
