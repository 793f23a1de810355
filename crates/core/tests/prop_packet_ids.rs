//! Differential tests of [`PacketIds`] against a `Vec<PacketId>` oracle.
//!
//! Every list is built the three ways the protocol builds one (collected
//! from an iterator, copied from a slice, converted from a vector) and must
//! read back as the oracle: same ids in the same order, same length, equal
//! exactly when the oracles are equal, inline exactly when the documented
//! rule says so, and unchanged through the `Vec<PacketId>` form serde
//! (de)serialises it as. A clone must never allocate, shared or inline: the
//! fan-out of one Propose to every gossip target relies on it.

use heap_gossip::PacketIds;
use heap_streaming::PacketId;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations of the current thread only, so that tests running
/// side by side cannot perturb each other's counts.
struct ThreadCountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: ThreadCountingAlloc = ThreadCountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn ids(seqs: &[u64]) -> Vec<PacketId> {
    seqs.iter().copied().map(PacketId::new).collect()
}

/// The documented inline rule, computed on the oracle.
fn fits_inline(oracle: &[PacketId]) -> bool {
    let (Some(min), Some(max)) = (oracle.iter().min(), oracle.iter().max()) else {
        return true;
    };
    oracle.len() <= heap_gossip::packet_ids::INLINE_IDS
        && max.seq() < 1 << 32
        && max.seq() - min.seq() < 1 << 16
}

/// Checks every constructor of `oracle`'s list against it.
fn check(oracle: &[PacketId]) -> PacketIds {
    let collected: PacketIds = oracle.iter().copied().collect();
    let copied = PacketIds::from(oracle);
    let converted = PacketIds::from(oracle.to_vec());
    for list in [&collected, &copied, &converted] {
        assert_eq!(list.to_vec(), oracle, "iteration order");
        assert_eq!(list.len(), oracle.len());
        assert_eq!(list.is_empty(), oracle.is_empty());
        assert_eq!(list.iter().size_hint(), (oracle.len(), Some(oracle.len())));
        assert_eq!(list.is_inline(), fits_inline(oracle), "{oracle:?}");
        assert_eq!(format!("{list:?}"), format!("{oracle:?}"));
        assert_eq!(list, &collected);
    }

    let before = allocations();
    let clone = collected.clone();
    assert_eq!(allocations(), before, "a clone allocated");
    assert_eq!(clone, collected);

    // Serde maps the list to and from its `Vec<PacketId>` form.
    let wire: Vec<PacketId> = clone.into();
    assert_eq!(wire, oracle);
    let back = PacketIds::from(wire);
    assert_eq!(back, collected);
    assert_eq!(back.is_inline(), collected.is_inline());
    collected
}

#[test]
fn the_boundaries_of_the_inline_form() {
    let cases: [(Vec<PacketId>, bool); 12] = [
        (vec![], true),
        (ids(&(100..113).collect::<Vec<_>>()), true),
        (ids(&(100..114).collect::<Vec<_>>()), false),
        // A span of 2¹⁶ - 1 fits, 2¹⁶ does not, whichever end comes first.
        (ids(&[70_000, 70_000 + 65_535]), true),
        (ids(&[70_000 + 65_535, 70_000]), true),
        (ids(&[70_000, 70_000 + 65_536]), false),
        (ids(&[70_000 + 65_536, 70_000]), false),
        (ids(&[u64::from(u32::MAX), u64::from(u32::MAX) - 3]), true),
        (ids(&[1 << 32]), false),
        (ids(&[5, 1 << 40, 6]), false),
        (ids(&[90, 80, 70, 60, 50, 40, 30, 20, 10, 0]), true),
        (ids(&[7, 7, 3, 7, 3, 3, 7]), true),
    ];
    for (oracle, inline) in cases {
        assert_eq!(check(&oracle).is_inline(), inline, "{oracle:?}");
    }
}

#[test]
fn equal_lists_are_equal_across_forms() {
    let short = ids(&[4, 2, 9]);
    let inline = PacketIds::from(short.as_slice());
    // The same three ids after a spill (a long list filtered back down)
    // compare equal to the inline list, as their oracles do.
    let long: PacketIds = ids(&[4, 1 << 33, 2, 9]).into_iter().collect();
    assert!(!long.is_inline());
    let filtered: PacketIds = long.iter().filter(|id| id.seq() < 1 << 32).collect();
    assert!(filtered.is_inline());
    assert_eq!(filtered, inline);
    assert_ne!(long, inline);
    assert_ne!(PacketIds::from(ids(&[2, 4, 9])), inline, "order matters");
    assert_ne!(
        PacketIds::from(ids(&[4, 2, 9, 9])),
        inline,
        "duplicates count"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn packet_ids_behave_as_their_vector(
        shape in 0u8..6,
        len in 0usize..=30,
        base in 0u64..(1 << 34),
        raw in proptest::collection::vec(0u64..70_000, 30),
        other in proptest::collection::vec(0u64..20, 0..=16),
    ) {
        let seqs: Vec<u64> = match shape {
            // Short spans from an arbitrary base: inline up to 13 ids below
            // 2³², spilled past either bound.
            0 => raw[..len].iter().map(|&r| base + r % 1_000).collect(),
            // Spans either side of 2¹⁶.
            1 => raw[..len].iter().map(|&r| (base % (1 << 32)) + r).collect(),
            // Descending.
            2 => (0..len as u64).rev().map(|i| base + 3 * i).collect(),
            // Heavy duplicates.
            3 => raw[..len].iter().map(|&r| base + r % 4).collect(),
            // Straddling 2³².
            4 => raw[..len].iter().map(|&r| (1 << 32) - 500 + r % 1_000).collect(),
            // Small ids, as a short stream numbers them.
            _ => raw[..len].iter().map(|&r| r % 200).collect(),
        };
        let oracle = ids(&seqs);
        let list = check(&oracle);

        let other_oracle = ids(&other);
        let other_list = check(&other_oracle);
        prop_assert_eq!(list == other_list, oracle == other_oracle);

        // Filtering, as a receiver does with a proposal, keeps the order.
        let kept: PacketIds = list.iter().filter(|id| id.seq() % 3 != 0).collect();
        let kept_oracle: Vec<PacketId> =
            oracle.iter().copied().filter(|id| id.seq() % 3 != 0).collect();
        prop_assert_eq!(kept.to_vec(), kept_oracle.clone());
        prop_assert_eq!(kept.is_inline(), fits_inline(&kept_oracle));
    }
}
