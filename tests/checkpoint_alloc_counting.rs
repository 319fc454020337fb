//! Allocation bound of a durable save.
//!
//! `CheckpointStore::save` streams the file straight from the borrowed
//! capture, so beyond the capture it allocates one write buffer and the two
//! small sections (policy and cursor), however large the state is. This
//! binary installs the `tin-memstats` counting allocator and counts the
//! bytes the test thread's allocations ask for during a save
//! (`tin_memstats::thread_allocated_bytes`), so other threads of the test
//! harness cannot move the figure.

use tin::prelude::*;
use tin_core::checkpoint::{CheckpointStore, WRITE_BUFFER_BYTES};
use tin_core::engine::ProvenanceEngine;
use tin_memstats::CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

/// What a save may allocate besides its write buffer: the policy and cursor
/// sections, the file paths, and the directory listing of the retention
/// pass.
const SMALL_BYTES: usize = 4 * 1024;

/// Save a capture of a `prop_dense` engine over `n` vertices, whose state
/// is about `8 n²` bytes (one dense row per vertex). Returns the bytes the
/// save allocated and the size of the file it wrote, after checking that
/// the file is what `Checkpoint::encode` writes.
fn save_allocations(n: u32) -> (usize, usize) {
    let config = PolicyConfig::Plain(SelectionPolicy::ProportionalDense);
    let mut engine = ProvenanceEngine::new(&config, n as usize).unwrap();
    for v in 0..n {
        let r = Interaction::new(v, (v + 1) % n, f64::from(v), 1.0);
        engine.process(&r).unwrap();
    }
    let checkpoint = engine.checkpoint().unwrap();
    let dir = std::env::temp_dir().join(format!("tin_checkpoint_alloc_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = CheckpointStore::open(&dir).unwrap();

    let before = tin_memstats::thread_allocated_bytes();
    let path = store.save(&checkpoint).unwrap();
    let allocated = tin_memstats::thread_allocated_bytes() - before;

    let file = std::fs::read(&path).unwrap();
    assert!(file == checkpoint.encode().unwrap(), "{n} vertices");
    std::fs::remove_dir_all(&dir).unwrap();
    (allocated, file.len())
}

#[test]
fn a_save_allocates_one_write_buffer_whatever_the_state_size() {
    let bound = WRITE_BUFFER_BYTES + SMALL_BYTES;
    let (small, small_file) = save_allocations(400);
    let (large, large_file) = save_allocations(1_300);
    assert!(
        tin_memstats::allocator_installed(),
        "counting allocator must be active for this test to mean anything"
    );
    // A save that copied the state once would exceed the bound already on
    // the smaller state.
    assert!(small_file > bound, "{small_file}-byte file");
    assert!(
        large_file >= 10 * small_file,
        "{large_file} vs {small_file}"
    );
    assert!(
        small <= bound,
        "saving a {small_file}-byte file allocated {small} bytes"
    );
    assert!(
        large <= bound,
        "saving a {large_file}-byte file allocated {large} bytes"
    );
}
