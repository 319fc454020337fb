//! Allocation bound of a durable save.
//!
//! `CheckpointStore::save` streams the file straight from the borrowed
//! capture, so beyond the capture it allocates one write buffer and the two
//! small sections (policy and cursor), however large the state is. The
//! sequential engine's periodic save takes no capture at all: it streams
//! from the live tracker, so it allocates the write buffer, one buffer for
//! the largest vertex payload and the small sections. This binary installs
//! the `tin-memstats` counting allocator and counts the bytes the test
//! thread's allocations ask for during a save
//! (`tin_memstats::thread_allocated_bytes`), so other threads of the test
//! harness cannot move the figure.

use tin::prelude::*;
use tin_core::checkpoint::{CheckpointStore, WRITE_BUFFER_BYTES};
use tin_core::engine::ProvenanceEngine;
use tin_memstats::CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

/// What a save may allocate besides its write buffer (and, saving a live
/// tracker, its payload buffer): the policy and cursor sections, the file
/// paths, and the directory listing of the retention pass.
const SMALL_BYTES: usize = 4 * 1024;

/// One interaction per vertex, `v → v + 1`, so every dense row of a
/// `prop_dense` engine holds provenance.
fn process_ring(engine: &mut ProvenanceEngine, n: u32) {
    for v in 0..n {
        let r = Interaction::new(v, (v + 1) % n, f64::from(v), 1.0);
        engine.process(&r).unwrap();
    }
}

fn scratch_dir(name: &str, n: u32) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tin_checkpoint_alloc_{name}_{}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Save a capture of a `prop_dense` engine over `n` vertices, whose state
/// is about `8 n²` bytes (one dense row per vertex). Returns the bytes the
/// save allocated and the size of the file it wrote, after checking that
/// the file is what `Checkpoint::encode` writes.
fn save_allocations(n: u32) -> (usize, usize) {
    let config = PolicyConfig::Plain(SelectionPolicy::ProportionalDense);
    let mut engine = ProvenanceEngine::new(&config, n as usize).unwrap();
    process_ring(&mut engine, n);
    let checkpoint = engine.checkpoint().unwrap();
    let dir = scratch_dir("capture", n);
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

/// Run a `prop_dense` engine over `n` vertices that saves every `n + 1`
/// interactions, and count the bytes allocated by the `process` call of
/// interaction `n + 1`, which triggers the save. Returns them, the largest
/// vertex payload and the size of the file, after checking that the file
/// is what a capture at the same position encodes.
fn periodic_save_allocations(n: u32) -> (usize, usize, usize) {
    let dir = scratch_dir("periodic", n);
    let store = CheckpointStore::open(&dir).unwrap();
    let config = PolicyConfig::Plain(SelectionPolicy::ProportionalDense);
    let mut engine = ProvenanceEngine::new(&config, n as usize)
        .unwrap()
        .with_durable_checkpoints(store, n as usize + 1)
        .unwrap();
    process_ring(&mut engine, n);
    let saving = Interaction::new(0u32, 1u32, f64::from(n), 1.0);

    let before = tin_memstats::thread_allocated_bytes();
    engine.process(&saving).unwrap();
    let allocated = tin_memstats::thread_allocated_bytes() - before;

    assert_eq!(engine.report().checkpoints_taken, 1, "{n} vertices");
    let checkpoint = engine.checkpoint().unwrap();
    let largest_payload = checkpoint.states.iter().map(|(_, p)| p.len()).max();
    let path = CheckpointStore::open(&dir).unwrap().latest().unwrap();
    let file = std::fs::read(path.expect("the save left a file")).unwrap();
    assert!(file == checkpoint.encode().unwrap(), "{n} vertices");
    std::fs::remove_dir_all(&dir).unwrap();
    (allocated, largest_payload.unwrap(), file.len())
}

#[test]
fn a_periodic_save_allocates_a_write_buffer_and_one_payload_whatever_the_state_size() {
    let (small, small_payload, small_file) = periodic_save_allocations(400);
    let (large, large_payload, large_file) = periodic_save_allocations(1_300);
    assert!(
        tin_memstats::allocator_installed(),
        "counting allocator must be active for this test to mean anything"
    );
    // A save that captured the state first would exceed the bound already
    // on the smaller state.
    let small_bound = WRITE_BUFFER_BYTES + small_payload + SMALL_BYTES;
    let large_bound = WRITE_BUFFER_BYTES + large_payload + SMALL_BYTES;
    assert!(small_file > small_bound, "{small_file}-byte file");
    assert!(
        large_file >= 10 * small_file,
        "{large_file} vs {small_file}"
    );
    assert!(
        small <= small_bound,
        "saving a {small_file}-byte file allocated {small} bytes"
    );
    assert!(
        large <= large_bound,
        "saving a {large_file}-byte file allocated {large} bytes"
    );
}
