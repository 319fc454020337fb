//! Peak memory of self-healing.
//!
//! A self-healing sharded engine holds one encoded copy of its state, the
//! recovery snapshot, and a refresh adds the new payloads of the vertices
//! dirtied since the previous one. So on top of a plain run it may need at
//! most twice the state's payload bytes, whether or not durable saves
//! stream from the snapshot too. This binary installs the `tin-memstats`
//! counting allocator and holds this one test only: a `MemoryScope` peak
//! is process-wide, so any other test in the binary could move it.

use tin::prelude::*;
use tin_core::checkpoint::{CheckpointStore, WRITE_BUFFER_BYTES};
use tin_memstats::{CountingAllocator, MemoryScope};
use tin_shard::{RecoveryPolicy, ShardedEngine};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

const VERTICES: u32 = 1_000;
const INTERACTIONS: u32 = 8_000;
const SNAPSHOT_EVERY: usize = 512;
const SAVE_EVERY: usize = 1_000;

/// What a healing run may allocate besides the snapshot and one refresh's
/// new payloads: a save's write buffer, the replay buffer, the dirty flags
/// and the capture messages.
const SLACK_BYTES: usize = WRITE_BUFFER_BYTES + 256 * 1024;

/// A seeded stream whose endpoints are drawn as `⌊n·u³⌋` for uniform `u`,
/// so a few hub vertices take part in most interactions and their lists
/// are dirty at every refresh, as on the heavy-tailed benchmark traces.
fn hub_skewed_stream() -> Vec<Interaction> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pick = || (f64::from(VERTICES) * next().powi(3)) as u32;
    (0..INTERACTIONS)
        .map(|i| {
            let src = pick();
            let mut dst = pick();
            if dst == src {
                dst = (src + 1) % VERTICES;
            }
            Interaction::new(src, dst, f64::from(i), 1.0 + f64::from(i % 7))
        })
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Run {
    Plain,
    Healing,
    HealingDurable,
}

/// The allocation peak of one 2-shard `prop_sparse` run over `stream`,
/// and the payload bytes of its final state.
fn peak_of(run: Run, stream: &[Interaction]) -> (usize, usize) {
    let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
    let dir = std::env::temp_dir().join(format!("tin_healing_memory_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scope = MemoryScope::start();
    let mut engine = ShardedEngine::new(&config, VERTICES as usize, 2).unwrap();
    if !matches!(run, Run::Plain) {
        engine = engine
            .with_self_healing(RecoveryPolicy {
                snapshot_every: SNAPSHOT_EVERY,
                ..RecoveryPolicy::default()
            })
            .unwrap();
    }
    if matches!(run, Run::HealingDurable) {
        let store = CheckpointStore::open(&dir).unwrap();
        engine = engine.with_durable_checkpoints(store, SAVE_EVERY).unwrap();
    }
    engine.process_all(stream).unwrap();
    let report = engine.report().unwrap();
    let peak = scope.finish().peak_delta_bytes;

    let saves = match run {
        Run::HealingDurable => INTERACTIONS as usize / SAVE_EVERY,
        Run::Plain | Run::Healing => 0,
    };
    assert_eq!(report.checkpoints_taken, saves, "{run:?}");
    let payload_bytes = engine
        .checkpoint()
        .unwrap()
        .states
        .iter()
        .map(|(_, p)| p.len())
        .sum();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    (peak, payload_bytes)
}

#[test]
fn self_healing_holds_at_most_twice_the_state_over_a_plain_run() {
    let stream = hub_skewed_stream();
    let (plain, payload_bytes) = peak_of(Run::Plain, &stream);
    assert!(
        tin_memstats::allocator_installed(),
        "counting allocator must be active for this test to mean anything"
    );
    // The slack must be small next to the state, or the bound could not
    // catch a second copy of it.
    assert!(payload_bytes > 4 * SLACK_BYTES, "{payload_bytes} bytes");
    for run in [Run::Healing, Run::HealingDurable] {
        let (peak, final_payload_bytes) = peak_of(run, &stream);
        assert_eq!(final_payload_bytes, payload_bytes, "{run:?}");
        let over = peak.saturating_sub(plain);
        assert!(
            over <= 2 * payload_bytes + SLACK_BYTES,
            "{run:?} peaked {over} bytes ({:.2}x the final state's {payload_bytes} \
             payload bytes) over a plain run's {plain}",
            over as f64 / payload_bytes as f64
        );
    }
}
