//! Durable checkpoints and crash recovery — the robustness tentpole.
//!
//! Two layers of guarantees are exercised here:
//!
//! 1. **Crash → resume is bit-identical** for every factory policy, on both
//!    engines, across mismatched shard counts: a run interrupted at an
//!    arbitrary interaction K and resumed from its checkpoint produces the
//!    same `f64`s (compared with `==`, never approximately) as a run that
//!    never stopped. A checkpoint captured by a sharded engine restores into
//!    a sequential engine and vice versa, because the on-disk format is
//!    shard-count independent.
//! 2. **Corruption is detected, never installed**: a truncated or bit-flipped
//!    checkpoint file fails its section CRC and surfaces
//!    [`TinError::CorruptCheckpoint`]; recovery falls back to the previous
//!    retained checkpoint instead of hanging or loading partial state.

use proptest::prelude::*;
use tin::prelude::*;
use tin_core::checkpoint::{Checkpoint, CheckpointStore, RetentionPolicy, SCHEMA_VERSION};
use tin_core::engine::ProvenanceEngine;
use tin_shard::ShardedEngine;

const MAX_VERTICES: u32 = 10;

/// Strategy: a stream of valid interactions over a small vertex set with
/// non-decreasing timestamps (mirrors `sharded_equivalence.rs`).
fn interaction_stream(len: usize) -> impl Strategy<Value = Vec<Interaction>> {
    prop::collection::vec(
        (
            0..MAX_VERTICES,
            0..MAX_VERTICES - 1,
            0.01f64..100.0f64,
            0.0f64..5.0f64,
        ),
        1..len,
    )
    .prop_map(|raw| {
        let mut time = 0.0;
        raw.into_iter()
            .map(|(src, dst_raw, qty, gap)| {
                let dst = if dst_raw >= src { dst_raw + 1 } else { dst_raw };
                time += gap;
                Interaction::new(src, dst, time, qty)
            })
            .collect()
    })
}

/// Every policy configuration the factory can build.
fn all_configs(num_vertices: usize) -> Vec<PolicyConfig> {
    let mut configs: Vec<PolicyConfig> = SelectionPolicy::all()
        .into_iter()
        .map(PolicyConfig::Plain)
        .collect();
    configs.push(PolicyConfig::Selective {
        tracked: vec![VertexId::new(0), VertexId::new(3)],
    });
    configs.push(PolicyConfig::Grouped {
        num_groups: 3,
        group_of: (0..num_vertices).map(|v| (v % 3) as u32).collect(),
    });
    configs.push(PolicyConfig::Windowed { window: 5 });
    configs.push(PolicyConfig::TimeWindowed { duration: 7.5 });
    configs.push(PolicyConfig::adaptive());
    configs.push(PolicyConfig::budget(3));
    configs.push(PolicyConfig::PathTracking { lifo: false });
    configs.push(PolicyConfig::GenerationPaths { most_recent: true });
    configs
}

fn unique_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tin_recovery_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Assert a resumed engine's full observable state matches the reference
/// sequential engine bit for bit.
#[allow(clippy::needless_pass_by_value)]
fn assert_matches_reference(
    resumed_buffered: Vec<Quantity>,
    resumed_origins: Vec<OriginSet>,
    reference: &ProvenanceEngine,
    label: &str,
) {
    for (i, (buffered, origins)) in resumed_buffered
        .into_iter()
        .zip(resumed_origins)
        .enumerate()
    {
        let v = VertexId::new(i as u32);
        assert_eq!(buffered, reference.buffered(v), "buffered({v}) {label}");
        assert_eq!(origins, reference.origins(v), "origins({v}) {label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Crash at interaction K, resume, replay the tail: bit-identical to an
    /// uninterrupted run for every policy, with checkpoints captured by the
    /// sequential engine AND by a 2-shard engine, resumed into the
    /// sequential engine AND into 2- and 4-shard engines (mismatched shard
    /// counts included).
    #[test]
    fn crash_and_resume_is_bit_identical(
        stream in interaction_stream(36),
        k_frac in 0.0f64..1.0,
    ) {
        let n = MAX_VERTICES as usize;
        let k = ((stream.len() as f64) * k_frac) as usize;
        for config in all_configs(n) {
            // Uninterrupted reference run.
            let mut reference = ProvenanceEngine::new(&config, n).unwrap();
            reference.process_all(&stream).unwrap();
            let ref_report = reference.report();

            // Interrupted runs: one sequential, one 2-shard, both "crash"
            // right after capturing a checkpoint at interaction K.
            let mut seq = ProvenanceEngine::new(&config, n).unwrap();
            seq.process_all(&stream[..k]).unwrap();
            let seq_ckpt = seq.checkpoint().unwrap();
            drop(seq);

            let mut sharded = ShardedEngine::new(&config, n, 2).unwrap();
            sharded.process_all(&stream[..k]).unwrap();
            let sharded_ckpt = sharded.checkpoint().unwrap();
            drop(sharded);

            // The captured states are engine-independent: a 2-shard capture
            // equals a sequential capture, entry for entry.
            prop_assert_eq!(
                &seq_ckpt.states,
                &sharded_ckpt.states,
                "capture mismatch under {} at k={}",
                config.key(),
                k
            );
            prop_assert_eq!(seq_ckpt.cursor.processed, k);
            prop_assert_eq!(seq_ckpt.cursor.total_quantity, sharded_ckpt.cursor.total_quantity);
            prop_assert_eq!(seq_ckpt.cursor.newborn_quantity, sharded_ckpt.cursor.newborn_quantity);

            for (ckpt, from) in [(&seq_ckpt, "seq"), (&sharded_ckpt, "sharded2")] {
                // Round-trip through the on-disk byte format.
                let ckpt = Checkpoint::decode(&ckpt.encode().unwrap(), "").unwrap();

                // Resume sequentially.
                let mut resumed = ProvenanceEngine::resume_from(&ckpt).unwrap();
                resumed.process_all(&stream[k..]).unwrap();
                let report = resumed.report();
                prop_assert_eq!(report.total_quantity, ref_report.total_quantity);
                prop_assert_eq!(report.newborn_quantity, ref_report.newborn_quantity);
                let buffered: Vec<Quantity> =
                    (0..n).map(|v| resumed.buffered(VertexId::from(v))).collect();
                let origins: Vec<OriginSet> =
                    (0..n).map(|v| resumed.origins(VertexId::from(v))).collect();
                assert_matches_reference(
                    buffered,
                    origins,
                    &reference,
                    &format!("{from}->seq under {} k={k}", config.key()),
                );

                // Resume sharded, including a shard count different from the
                // one that captured the checkpoint.
                for shards in [2usize, 4] {
                    let mut resumed = ShardedEngine::resume_from(&ckpt, shards).unwrap();
                    resumed.process_all(&stream[k..]).unwrap();
                    let report = resumed.report().unwrap();
                    prop_assert_eq!(report.total_quantity, ref_report.total_quantity);
                    prop_assert_eq!(report.newborn_quantity, ref_report.newborn_quantity);
                    let buffered = resumed.buffered_all().unwrap();
                    let origins: Vec<OriginSet> = (0..n)
                        .map(|v| resumed.origins(VertexId::from(v)).unwrap())
                        .collect();
                    assert_matches_reference(
                        buffered,
                        origins,
                        &reference,
                        &format!("{from}->sharded{shards} under {} k={k}", config.key()),
                    );
                }
            }
        }
    }
}

/// Truncating a checkpoint file at every prefix length is detected by the
/// section checksums / length framing — never a panic, hang, or silent
/// partial load.
#[test]
fn truncated_files_are_rejected() {
    let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
    let mut engine = ProvenanceEngine::new(&config, 6).unwrap();
    engine
        .process_all(&[
            Interaction::new(0u32, 1u32, 1.0, 2.0),
            Interaction::new(1u32, 2u32, 2.0, 1.5),
        ])
        .unwrap();
    let bytes = engine.checkpoint().unwrap().encode().unwrap();
    for len in 0..bytes.len() {
        let result = Checkpoint::decode(&bytes[..len], "t.tin");
        assert!(
            matches!(result, Err(TinError::CorruptCheckpoint { .. })),
            "truncation to {len} bytes went undetected"
        );
    }
}

/// Flipping any single bit of a checkpoint file is caught by a section CRC
/// (or the header checks) as `CorruptCheckpoint` / version mismatch.
#[test]
fn bit_flips_are_rejected() {
    let config = PolicyConfig::GenerationPaths { most_recent: false };
    let mut engine = ProvenanceEngine::new(&config, 5).unwrap();
    engine
        .process_all(&[
            Interaction::new(0u32, 1u32, 1.0, 2.0),
            Interaction::new(1u32, 4u32, 2.0, 3.0),
        ])
        .unwrap();
    let clean = engine.checkpoint().unwrap().encode().unwrap();
    for byte in 0..clean.len() {
        for bit in 0..8 {
            let mut bytes = clean.clone();
            bytes[byte] ^= 1 << bit;
            let result = Checkpoint::decode(&bytes, "flip.tin");
            assert!(
                matches!(
                    result,
                    Err(TinError::CorruptCheckpoint { .. })
                        | Err(TinError::CheckpointVersionMismatch { .. })
                ),
                "flip of bit {bit} in byte {byte} went undetected"
            );
        }
    }
}

/// End-to-end fallback: with several retained checkpoints on disk and the
/// newest one corrupted, recovery loads the previous checkpoint, resumes,
/// and still converges to the uninterrupted result.
#[test]
fn recovery_falls_back_to_previous_retained_checkpoint() {
    let dir = unique_dir("fallback");
    let config = PolicyConfig::Plain(SelectionPolicy::Fifo);
    let n = 6usize;
    let stream: Vec<Interaction> = (0..12)
        .map(|i| {
            Interaction::new(
                (i % 5) as u32,
                ((i % 5) + 1) as u32,
                i as f64,
                1.0 + i as f64,
            )
        })
        .collect();

    let store = CheckpointStore::open(&dir).unwrap();
    let mut engine = ProvenanceEngine::new(&config, n)
        .unwrap()
        .with_durable_checkpoints(store, 4)
        .unwrap();
    // "Crash" after 11 interactions: checkpoints exist at 4 and 8.
    engine.process_all(&stream[..11]).unwrap();
    drop(engine);

    // Corrupt the newest checkpoint (position 8) on disk.
    let store = CheckpointStore::open(&dir).unwrap();
    let newest = store.latest().unwrap().unwrap();
    assert!(newest.to_string_lossy().contains("000000000008"));
    let mut bytes = std::fs::read(&newest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&newest, &bytes).unwrap();

    // Reading the corrupt file directly fails loudly...
    let err = Checkpoint::read(&newest).unwrap_err();
    assert!(
        matches!(&err, TinError::CorruptCheckpoint { path, section, .. }
        if path.contains("000000000008") && section == "states")
    );

    // ...and recovery falls back to the checkpoint at position 4.
    let (path, checkpoint) = store.load_latest_valid().unwrap().unwrap();
    assert!(path.to_string_lossy().contains("000000000004"));
    assert_eq!(checkpoint.cursor.processed, 4);

    // Resuming from the fallback still reaches the uninterrupted result.
    let mut resumed = ProvenanceEngine::resume_from(&checkpoint).unwrap();
    resumed.process_all(&stream[4..]).unwrap();
    let mut reference = ProvenanceEngine::new(&config, n).unwrap();
    reference.process_all(&stream).unwrap();
    for v in 0..n {
        let v = VertexId::from(v);
        assert_eq!(resumed.buffered(v), reference.buffered(v));
        assert_eq!(resumed.origins(v), reference.origins(v));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint from a future schema version is refused with
/// `CheckpointVersionMismatch`, not misparsed.
#[test]
fn future_schema_versions_are_refused() {
    let config = PolicyConfig::Windowed { window: 3 };
    let mut engine = ProvenanceEngine::new(&config, 4).unwrap();
    engine
        .process(&Interaction::new(0u32, 1u32, 1.0, 2.0))
        .unwrap();
    let mut bytes = engine.checkpoint().unwrap().encode().unwrap();
    bytes[8] = SCHEMA_VERSION as u8 + 1;
    assert!(matches!(
        Checkpoint::decode(&bytes, ""),
        Err(TinError::CheckpointVersionMismatch {
            supported: SCHEMA_VERSION,
            ..
        })
    ));
}

/// Retention keeps the store bounded while a long run checkpoints
/// periodically — and the newest checkpoint always survives.
#[test]
fn retention_bounds_the_store_during_a_run() {
    let dir = unique_dir("retention");
    let store = CheckpointStore::open(&dir)
        .unwrap()
        .with_retention(RetentionPolicy {
            max_count: 3,
            max_age: None,
        });
    let config = PolicyConfig::Plain(SelectionPolicy::Lifo);
    let mut engine = ProvenanceEngine::new(&config, 4)
        .unwrap()
        .with_durable_checkpoints(store, 2)
        .unwrap();
    for i in 0..20 {
        engine
            .process(&Interaction::new((i % 3) as u32, 3u32, i as f64, 1.0))
            .unwrap();
    }
    assert_eq!(engine.report().checkpoints_taken, 10);
    let store = CheckpointStore::open(&dir).unwrap();
    let files = store.list().unwrap();
    assert_eq!(files.len(), 3, "retention keeps exactly max_count files");
    assert!(files[2].to_string_lossy().contains("000000000020"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The sharded engine's periodic durable checkpoints: counted in the report
/// (regression test for the hardcoded `checkpoints_taken: 0`) and usable for
/// recovery into a different shard count.
#[test]
fn sharded_periodic_checkpoints_are_counted_and_recoverable() {
    let dir = unique_dir("sharded_periodic");
    let config = PolicyConfig::Plain(SelectionPolicy::ProportionalDense);
    let n = 8usize;
    let stream: Vec<Interaction> = (0..14)
        .map(|i| Interaction::new((i % 7) as u32, ((i % 7) + 1) as u32, i as f64, 2.0))
        .collect();

    let store = CheckpointStore::open(&dir).unwrap();
    let mut engine = ShardedEngine::new(&config, n, 3)
        .unwrap()
        .with_durable_checkpoints(store, 5)
        .unwrap();
    engine.process_all(&stream[..13]).unwrap();
    let report = engine.report().unwrap();
    assert_eq!(report.checkpoints_taken, 2, "checkpoints at 5 and 10");
    drop(engine);

    let store = CheckpointStore::open(&dir).unwrap();
    let (_, checkpoint) = store.load_latest_valid().unwrap().unwrap();
    assert_eq!(checkpoint.cursor.processed, 10);
    // Recover across a different shard count and finish the stream.
    let mut resumed = ShardedEngine::resume_from(&checkpoint, 2).unwrap();
    resumed.process_all(&stream[10..]).unwrap();
    let mut reference = ProvenanceEngine::new(&config, n).unwrap();
    reference.process_all(&stream).unwrap();
    let buffered = resumed.buffered_all().unwrap();
    for (i, b) in buffered.into_iter().enumerate() {
        let v = VertexId::new(i as u32);
        assert_eq!(b, reference.buffered(v));
        assert_eq!(resumed.origins(v).unwrap(), reference.origins(v));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
