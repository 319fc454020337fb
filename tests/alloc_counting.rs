//! Allocation regression test for the sparse merge kernels.
//!
//! Installs the `tin-memstats` counting allocator for this test binary and
//! asserts that the proportional-sparse hot path performs **zero heap
//! allocations** once the provenance lists have reached their steady-state
//! shape. A merge allocates only when it adds origins to the destination:
//! the list then grows (by doubling up to 64 slots, by an eighth of its
//! length beyond), or a large remainder rebuilds it into fresh buffers. In
//! the steady state every list holds the full origin set, so no merge adds
//! an origin, and a full relay swaps buffers of at most 64 slots, which the
//! emptied source keeps.
//!
//! The measurement counts only the test thread's allocations
//! (`tin_memstats::thread_allocations`), so libtest's main thread and any
//! other test running alongside cannot pollute the delta.

use tin::prelude::*;
use tin_memstats::CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

#[test]
fn steady_state_sparse_hot_path_does_not_allocate() {
    let num_vertices = 16usize;
    let mut tracker = ProportionalSparseTracker::new(num_vertices);

    // Seed phase: every vertex generates quantity that reaches every other
    // vertex, so all provenance lists converge on the full origin set and
    // every list/buffer grows to its final capacity.
    let mut time = 0.0;
    let mut interactions = Vec::new();
    for round in 0..50u32 {
        for v in 0..num_vertices as u32 {
            let dst = (v + 1 + round % (num_vertices as u32 - 1)) % num_vertices as u32;
            if dst == v {
                continue;
            }
            time += 1.0;
            // Alternate newborn-heavy and split-heavy transfers so both the
            // full-relay and the proportional-split kernels are exercised.
            let qty = if round % 3 == 0 { 100.0 } else { 1.5 };
            interactions.push(Interaction::new(v, dst, time, qty));
        }
    }
    for r in &interactions {
        tracker.process(r);
    }

    // Steady state reached: replaying the same interaction pattern (shifted
    // in time) must not allocate at all — merges run in place, full relays
    // reuse the swapped buffers, and no list gains a new origin.
    let replay: Vec<Interaction> = interactions
        .iter()
        .map(|r| Interaction::new(r.src, r.dst, r.time.value() + time, r.qty))
        .collect();
    assert!(
        tin_memstats::allocator_installed(),
        "counting allocator must be active for this test to mean anything"
    );
    let before = tin_memstats::thread_allocations();
    for r in &replay {
        tracker.process(r);
    }
    let allocations = tin_memstats::thread_allocations() - before;
    assert_eq!(
        allocations,
        0,
        "steady-state processing of {} interactions performed {} heap allocations",
        replay.len(),
        allocations
    );

    // The tracker still answers correctly after the replay.
    assert!(tracker.check_all_invariants());
    assert!(tracker.total_buffered() > 0.0);
}
