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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use tin::prelude::*;
use tin_core::checkpoint::{Checkpoint, CheckpointStore, RetentionPolicy, SCHEMA_VERSION};
use tin_core::engine::ProvenanceEngine;
use tin_shard::ShardedEngine;

mod common;
use common::all_configs;

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

            // The policy and states sections are engine-independent: a
            // 2-shard capture equals a sequential capture, entry for entry.
            // So do the cursor's position and flow counters; its
            // `peak_footprint_bytes` is each engine's own footprint sample,
            // so the peak is engine-specific and not compared.
            prop_assert_eq!(&seq_ckpt.policy, &sharded_ckpt.policy);
            prop_assert_eq!(seq_ckpt.num_vertices, sharded_ckpt.num_vertices);
            prop_assert_eq!(
                &seq_ckpt.states,
                &sharded_ckpt.states,
                "capture mismatch under {} at k={}",
                config.key(),
                k
            );
            prop_assert_eq!(seq_ckpt.cursor.processed, k);
            prop_assert_eq!(sharded_ckpt.cursor.processed, k);
            prop_assert_eq!(seq_ckpt.cursor.last_time, sharded_ckpt.cursor.last_time);
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

/// `prop_sparse`: 230 bytes.
const GOLDEN_PROP_SPARSE: &str = concat!(
    "54494e434b505400010000000a0000001f161f1e000603000000000000002900",
    "0000b53265cb0400000000000000010000000000001440000000000000324000",
    "0000000000224000000000000000008f0000006575c49f030000000000000000",
    "0000002900000000000000000200000000000000010000000200000034333333",
    "3333f33f9a9999999999e93f0000000000000040010000001100000000000000",
    "0000000000000000000000000000000000020000002900000000000000000200",
    "00000000000001000000020000003333333333331740333333333333f33f0000",
    "000000001c40",
);

/// `windowed_w3`: 300 bytes.
const GOLDEN_WINDOWED: &str = concat!(
    "54494e434b50540001000000110000002819323d030300000000000000030000",
    "000000000029000000b53265cb04000000000000000100000000000014400000",
    "00000000324000000000000022400000000000000000ce000000b4db98190300",
    "000000000000000000003e00000000000000000100000000000000ffffffff00",
    "000000000000400002000000000000000100000002000000343333333333f33f",
    "9a9999999999e93f0000000000000040010000001a0000000000000000000000",
    "00000000000000000000000000000000000000000000020000004a0000000000",
    "000000020000000000000001000000ffffffff00000000000010400000000000",
    "0008400002000000000000000100000002000000333333333333174033333333",
    "3333f33f0000000000001c40",
);

/// `timewindowed_d2.5`: 312 bytes.
const GOLDEN_TIME_WINDOWED: &str = concat!(
    "54494e434b5054000100000011000000ec7211e3040000000000000440030000",
    "000000000029000000b53265cb04000000000000000100000000000014400000",
    "00000000324000000000000022400000000000000000da0000003c9912f70300",
    "000000000000000000003e0000000000000000020000000000000002000000ff",
    "ffffff9a9999999999e93f343333333333f33f000100000000000000ffffffff",
    "00000000000000400000000000000040010000001a0000000000000000000000",
    "0000000000000000000000000000000000000000000002000000560000000000",
    "00000003000000000000000100000002000000ffffffff000000000000104033",
    "3333333333f33fccccccccccccfc3f00020000000000000001000000ffffffff",
    "000000000000104000000000000008400000000000001c40",
);

/// `budget_c2`: 266 bytes.
const GOLDEN_BUDGET: &str = concat!(
    "54494e434b5054000100000022000000c9c6d47c060200000000000000666666",
    "666666e63f000000000000000000030000000000000029000000b53265cb0400",
    "0000000000000100000000000014400000000000003240000000000000224000",
    "000000000000009b0000002eab7e1a0300000000000000000000002d00000000",
    "0000000002000000000000000100000002000000343333333333f33f9a999999",
    "9999e93f00000000000000400000000001000000150000000000000000000000",
    "0000000000000000000000000000000000020000002d00000000000000000200",
    "00000000000001000000020000003333333333331740333333333333f33f0000",
    "000000001c4000000000",
);

/// `prop_dense`: 251 bytes.
const GOLDEN_PROP_DENSE: &str = concat!(
    "54494e434b505400010000000a000000da2a9227000503000000000000002900",
    "0000b53265cb0400000000000000010000000000001440000000000000324000",
    "000000000022400000000000000000a400000082e7c220030000000000000000",
    "0000002800000000000000030000000000000000000000000000003433333333",
    "33f33f9a9999999999e93f000000000000004001000000280000000000000003",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000002000000280000000000000003000000000000000000000000",
    "0000003333333333331740333333333333f33f0000000000001c40",
);

/// `selective_k2` tracking vertices 0 and 2: 266 bytes.
const GOLDEN_SELECTIVE: &str = concat!(
    "54494e434b5054000100000019000000f2cbcbf7010200000000000000000000",
    "0002000000030000000000000029000000b53265cb0400000000000000010000",
    "000000001440000000000000324000000000000022400000000000000000a400",
    "00000429b6970300000000000000000000002800000000000000030000000000",
    "000000000000000000009a9999999999e93f343333333333f33f000000000000",
    "0040010000002800000000000000030000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000002000000280000000000",
    "000003000000000000000000000000000000333333333333f33f333333333333",
    "17400000000000001c40",
);

/// `grouped_m2` with groups {0, 1, 0}: 254 bytes.
const GOLDEN_GROUPED: &str = concat!(
    "54494e434b50540001000000250000002569e92d020200000000000000030000",
    "0000000000000000000100000000000000030000000000000029000000b53265",
    "cb04000000000000000100000000000014400000000000003240000000000000",
    "224000000000000000008c0000001f5b35440300000000000000000000002000",
    "00000000000002000000000000009a9999999999e93f343333333333f33f0000",
    "0000000000400100000020000000000000000200000000000000000000000000",
    "0000000000000000000000000000000000000200000020000000000000000200",
    "000000000000333333333333f33f33333333333317400000000000001c40",
);

/// Golden `Checkpoint::encode()` bytes for the proportional trackers: the
/// paper's running example on 3 vertices, captured by the sequential engine
/// after [`GOLDEN_PREFIX`] of its 6 interactions. They pin the on-disk
/// format: the representation tag `0` written before every provenance list,
/// and the dense rows (slot count, one `f64` per slot, then the total) of
/// the full, selective and grouped trackers.
fn golden_cases() -> [(PolicyConfig, &'static str); 7] {
    [
        (
            PolicyConfig::Plain(SelectionPolicy::ProportionalSparse),
            GOLDEN_PROP_SPARSE,
        ),
        (PolicyConfig::Windowed { window: 3 }, GOLDEN_WINDOWED),
        (
            PolicyConfig::TimeWindowed { duration: 2.5 },
            GOLDEN_TIME_WINDOWED,
        ),
        (PolicyConfig::budget(2), GOLDEN_BUDGET),
        (
            PolicyConfig::Plain(SelectionPolicy::ProportionalDense),
            GOLDEN_PROP_DENSE,
        ),
        (
            PolicyConfig::Selective {
                tracked: vec![VertexId::new(0), VertexId::new(2)],
            },
            GOLDEN_SELECTIVE,
        ),
        (
            PolicyConfig::Grouped {
                num_groups: 2,
                group_of: vec![0, 1, 0],
            },
            GOLDEN_GROUPED,
        ),
    ]
}

/// Interactions of the running example captured in the golden bytes.
const GOLDEN_PREFIX: usize = 4;

fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// The golden bytes are what today's encoder writes, and resuming from them
/// (sequentially and into 2 shards) finishes the stream bit-identically to
/// an uninterrupted run.
#[test]
fn golden_checkpoints_encode_and_resume_identically() {
    let stream = tin_core::interaction::paper_running_example();
    for (config, hex) in golden_cases() {
        let golden = from_hex(hex);
        let mut engine = ProvenanceEngine::new(&config, 3).unwrap();
        engine.process_all(&stream[..GOLDEN_PREFIX]).unwrap();
        let encoded = engine.checkpoint().unwrap().encode().unwrap();
        assert!(encoded == golden, "{} encodes new bytes", config.key());

        let mut reference = ProvenanceEngine::new(&config, 3).unwrap();
        reference.process_all(&stream).unwrap();
        let ckpt = Checkpoint::decode(&golden, "golden").unwrap();
        let mut resumed = ProvenanceEngine::resume_from(&ckpt).unwrap();
        resumed.process_all(&stream[GOLDEN_PREFIX..]).unwrap();
        assert_matches_reference(
            (0..3u32)
                .map(|v| resumed.buffered(VertexId::new(v)))
                .collect(),
            (0..3u32)
                .map(|v| resumed.origins(VertexId::new(v)))
                .collect(),
            &reference,
            &format!("golden->seq under {}", config.key()),
        );
        let mut sharded = ShardedEngine::resume_from(&ckpt, 2).unwrap();
        sharded.process_all(&stream[GOLDEN_PREFIX..]).unwrap();
        assert_matches_reference(
            sharded.buffered_all().unwrap(),
            (0..3u32)
                .map(|v| sharded.origins(VertexId::new(v)).unwrap())
                .collect(),
            &reference,
            &format!("golden->sharded2 under {}", config.key()),
        );
    }
}

/// A durable save streams the same bytes: for every golden configuration,
/// the file `CheckpointStore::save` writes equals `Checkpoint::encode()`,
/// which is the golden case, and the save reports the file's size.
#[test]
fn golden_checkpoints_save_the_encoded_bytes() {
    let stream = tin_core::interaction::paper_running_example();
    let dir = unique_dir("golden_save");
    let mut store = CheckpointStore::open(&dir).unwrap();
    for (config, hex) in golden_cases() {
        let mut engine = ProvenanceEngine::new(&config, 3).unwrap();
        engine.process_all(&stream[..GOLDEN_PREFIX]).unwrap();
        let ckpt = engine.checkpoint().unwrap();
        let saved = std::fs::read(store.save(&ckpt).unwrap()).unwrap();
        assert!(
            saved == ckpt.encode().unwrap(),
            "{} saves bytes encode() does not write",
            config.key()
        );
        assert!(saved == from_hex(hex), "{} saves new bytes", config.key());
        assert_eq!(
            store.last_save_stats().unwrap().encoded_bytes,
            saved.len(),
            "{}",
            config.key()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A stream of `len` valid interactions over [`MAX_VERTICES`] vertices,
/// non-decreasing in time, drawn from a SplitMix64 sequence seeded with
/// `seed`. Equal times recur, so time windows close on ties too.
fn seeded_stream(seed: u64, len: usize) -> Vec<Interaction> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let n = u64::from(MAX_VERTICES);
    let mut time = 0.0;
    (0..len)
        .map(|_| {
            let src = next() % n;
            let dst = (src + 1 + next() % (n - 1)) % n;
            time += (next() % 4) as f64 * 0.75;
            let qty = 0.01 + (next() % 10_000) as f64 / 100.0;
            Interaction::new(src as u32, dst as u32, time, qty)
        })
        .collect()
}

/// Run a sequential engine that saves every `every` interactions, with a
/// twin that captures at the same positions, over `stream`. Each file the
/// saving engine wrote must equal the twin's `checkpoint().encode()`, and
/// the saves must leave the state as a run that never saved has it. With
/// `fail_first_attempt`, the store's fault hook fails the first write
/// attempt, so that save's retry streams from the live tracker again.
fn assert_live_saves_match_captures(
    config: &PolicyConfig,
    stream: &[Interaction],
    every: usize,
    fail_first_attempt: bool,
) {
    let n = MAX_VERTICES as usize;
    let label = format!(
        "{} (fail first attempt: {fail_first_attempt})",
        config.key()
    );
    let dir = unique_dir(&format!("live_{}_{fail_first_attempt}", config.key()));
    let mut store = CheckpointStore::open(&dir)
        .unwrap()
        .with_retention(RetentionPolicy {
            max_count: usize::MAX,
            max_age: None,
        })
        .with_retry(2, Duration::from_millis(1));
    let attempts = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&attempts);
    store.set_fault_hook(Box::new(move || {
        if seen.fetch_add(1, Ordering::SeqCst) == 0 && fail_first_attempt {
            Err(std::io::Error::other("injected transient fault"))
        } else {
            Ok(())
        }
    }));
    let mut saving = ProvenanceEngine::new(config, n)
        .unwrap()
        .with_durable_checkpoints(store, every)
        .unwrap();
    let mut twin = ProvenanceEngine::new(config, n).unwrap();
    let mut captures = Vec::new();
    for r in stream {
        saving.process(r).unwrap();
        twin.process(r).unwrap();
        if twin.cursor().processed.is_multiple_of(every) {
            captures.push(twin.checkpoint().unwrap().encode().unwrap());
        }
    }
    assert!(!captures.is_empty(), "{label}: no save position");
    assert_eq!(saving.report().checkpoints_taken, captures.len(), "{label}");
    let retries = usize::from(fail_first_attempt);
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        captures.len() + retries,
        "{label}: write attempts"
    );

    let files = CheckpointStore::open(&dir).unwrap().list().unwrap();
    assert_eq!(files.len(), captures.len(), "{label}");
    for (path, capture) in files.iter().zip(&captures) {
        let saved = std::fs::read(path).unwrap();
        assert!(saved == *capture, "{label}: {} differs", path.display());
    }

    let mut reference = ProvenanceEngine::new(config, n).unwrap();
    reference.process_all(stream).unwrap();
    assert_matches_reference(
        (0..n).map(|v| saving.buffered(VertexId::from(v))).collect(),
        (0..n).map(|v| saving.origins(VertexId::from(v))).collect(),
        &reference,
        &label,
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The sequential engine's periodic saves stream from the live tracker and
/// write the bytes a capture at the same position encodes, under every
/// policy configuration, including when a save's first attempt fails and
/// its retry streams again.
#[test]
fn live_saves_write_the_captured_bytes_under_every_config() {
    let stream = seeded_stream(24, 150);
    let configs = all_configs(MAX_VERTICES as usize);
    assert_eq!(configs.len(), 14);
    for config in &configs {
        assert_live_saves_match_captures(config, &stream, 7, false);
    }
    let sparse = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
    assert_live_saves_match_captures(&sparse, &stream, 50, true);
}

/// A provenance vector stored under the retired dense representation tag
/// `1` (slot count, one `f64` per slot) is corrupt, not restored.
#[test]
fn retired_dense_vector_tag_is_corrupt() {
    let mut ckpt = Checkpoint::decode(&from_hex(GOLDEN_PROP_SPARSE), "").unwrap();
    let mut payload = vec![1u8];
    tin_core::codec::put_usize(&mut payload, 5);
    for slot in [2.0, 1.0, 0.0, 0.0, 0.0] {
        tin_core::codec::put_f64(&mut payload, slot);
    }
    tin_core::codec::put_f64(&mut payload, 3.0);
    ckpt.states[0].1 = payload;
    let ckpt = Checkpoint::decode(&ckpt.encode().unwrap(), "").unwrap();
    assert!(matches!(
        ProvenanceEngine::resume_from(&ckpt),
        Err(TinError::CorruptCheckpoint { .. })
    ));
    assert!(matches!(
        ShardedEngine::resume_from(&ckpt, 2),
        Err(TinError::CorruptCheckpoint { .. })
    ));
}

/// A dense row whose width is not the tracker's slot count is corrupt, not
/// restored: its section CRC is valid, but installing it would panic at the
/// next interaction.
#[test]
fn dense_rows_of_the_wrong_width_are_corrupt() {
    // The last three golden cases are the dense configurations.
    for (config, hex) in &golden_cases()[4..] {
        let mut ckpt = Checkpoint::decode(&from_hex(hex), "").unwrap();
        for (_, payload) in &mut ckpt.states {
            payload.clear();
            tin_core::codec::put_usize(payload, 1);
            tin_core::codec::put_f64(payload, 2.0);
            tin_core::codec::put_f64(payload, 2.0);
        }
        let ckpt = Checkpoint::decode(&ckpt.encode().unwrap(), "").unwrap();
        assert!(
            matches!(
                ProvenanceEngine::resume_from(&ckpt),
                Err(TinError::CorruptCheckpoint { .. })
            ),
            "{}",
            config.key()
        );
        assert!(
            matches!(
                ShardedEngine::resume_from(&ckpt, 2),
                Err(TinError::CorruptCheckpoint { .. })
            ),
            "{}",
            config.key()
        );
    }
}

/// A policy section carrying the retired adaptive-proportional tag `5`
/// (with the `f64` threshold it used to carry) is corrupt.
#[test]
fn retired_adaptive_policy_tag_is_corrupt() {
    use tin_core::codec::{crc32, put_f64, put_u32, put_usize};
    let golden = from_hex(GOLDEN_PROP_SPARSE);
    // Magic and schema version, then the policy section `len | crc32 | body`.
    let header = tin_core::checkpoint::MAGIC.len() + 4;
    let policy_len = u32::from_le_bytes(golden[header..header + 4].try_into().unwrap()) as usize;
    let mut body = vec![5u8];
    put_f64(&mut body, 0.5);
    put_usize(&mut body, 3);
    let mut bytes = golden[..header].to_vec();
    put_u32(&mut bytes, body.len() as u32);
    put_u32(&mut bytes, crc32(&body));
    bytes.extend_from_slice(&body);
    bytes.extend_from_slice(&golden[header + 8 + policy_len..]);
    assert!(matches!(
        Checkpoint::decode(&bytes, ""),
        Err(TinError::CorruptCheckpoint { section, .. }) if section == "policy"
    ));
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
