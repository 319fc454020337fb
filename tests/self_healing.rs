//! Supervised self-healing: a sharded engine with
//! [`tin_shard::RecoveryPolicy`] attached must survive injected worker
//! deaths (and hangs) and still produce results **bit-identical** to an
//! undisturbed run — the same `f64`s in the same places — because recovery
//! restores a quiesced snapshot and replays the suffix in strict stream
//! order through the same scheduling code.
//!
//! Alongside the kill-at-every-K × policy × shard-count equivalence
//! property (the PR's acceptance criterion), this file pins the edge cases:
//! two workers dying in the same wavefront (idempotent poisoning in both
//! fail-fast and healing modes), a worker dying *during* recovery
//! (respawn-within-respawn up to the budget), recovery with durable
//! checkpointing disabled (the in-memory snapshot path), durable files
//! written across a heal, a worker lost during a durable save, death after
//! the final wavefront but before the last sync barrier, hang detection,
//! joining or detaching the wounded generation's threads, and budget
//! exhaustion falling back to the poison path.

use std::time::Duration;

use proptest::prelude::*;
use tin::prelude::*;
use tin_core::engine::ProvenanceEngine;
use tin_shard::{RecoveryPolicy, ShardedEngine};

mod common;
use common::all_configs;

const MAX_VERTICES: u32 = 10;

/// A fast-respawning recovery policy for tests: 1 ms backoff and a small
/// snapshot interval so short streams still exercise snapshot cycling.
fn healing(max_worker_restarts: usize, snapshot_every: usize) -> RecoveryPolicy {
    RecoveryPolicy {
        max_worker_restarts,
        restart_backoff: Duration::from_millis(1),
        snapshot_every,
        hang_timeout: None,
    }
}

/// Strategy: a stream of up to `len` valid interactions over a small vertex
/// set with non-decreasing timestamps (self-loops avoided by construction).
fn interaction_stream(len: usize) -> impl Strategy<Value = Vec<Interaction>> {
    prop::collection::vec(
        (
            0..MAX_VERTICES,
            0..MAX_VERTICES - 1,
            0.01f64..100.0f64,
            0.0f64..5.0f64,
        ),
        2..len,
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

/// Assert the sharded engine's final state is bit-identical to the
/// sequential reference: flow totals, every `buffered(v)`, every
/// `origins(v)` — `==` on floats throughout.
fn assert_bit_identical(
    sharded: &mut ShardedEngine,
    sequential: &mut ProvenanceEngine,
    n: usize,
    context: &str,
) {
    let report = sharded.report().unwrap();
    let seq_report = sequential.report();
    assert_eq!(
        report.total_quantity, seq_report.total_quantity,
        "total_quantity mismatch: {context}"
    );
    assert_eq!(
        report.newborn_quantity, seq_report.newborn_quantity,
        "newborn_quantity mismatch: {context}"
    );
    assert_eq!(
        report.relayed_quantity, seq_report.relayed_quantity,
        "relayed_quantity mismatch: {context}"
    );
    assert_eq!(report.interactions, seq_report.interactions, "{context}");
    for v in 0..n {
        let v = VertexId::from(v);
        assert_eq!(
            sharded.buffered(v).unwrap(),
            sequential.buffered(v),
            "buffered({v}) mismatch: {context}"
        );
        assert_eq!(
            sharded.origins(v).unwrap(),
            sequential.origins(v),
            "origins({v}) mismatch: {context}"
        );
    }
}

/// Run `body` under a watchdog: a hang becomes a loud panic, not a stuck CI
/// job (recovery bugs love to deadlock).
fn with_watchdog(body: impl FnOnce() + Send + 'static) {
    let worker = std::thread::spawn(body);
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while !worker.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "self-healing test hung"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    worker.join().unwrap();
}

// ---------------------------------------------------------------------------
// Acceptance criterion: kill-at-K × policy × shard count, bit-identical
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every factory policy and shards ∈ {2, 4, 7}, killing a worker at
    /// a random stream position, and at one next to a snapshot refresh,
    /// recovers in-run and the final state is bit-identical to an
    /// undisturbed sequential run.
    #[test]
    fn kill_at_k_recovers_bit_identically(
        stream in interaction_stream(40),
        kill_frac in 0.0f64..1.0f64,
        boundary in 0usize..12,
    ) {
        let n = MAX_VERTICES as usize;
        // With `snapshot_every` 8 the snapshot refreshes before interaction
        // k·8. Kills at k·8 − 1, k·8 and k·8 + 1 land just before, on and
        // just after a refresh, so a death can hit the refresh itself and
        // recovery restores both seeded and patched snapshots.
        let near_refresh: Vec<usize> = (8..stream.len())
            .step_by(8)
            .flat_map(|b| [b - 1, b, b + 1])
            .filter(|&k| k < stream.len())
            .collect();
        let mut kills = vec![((stream.len() as f64) * kill_frac) as usize];
        if !near_refresh.is_empty() {
            kills.push(near_refresh[boundary % near_refresh.len()]);
        }
        for config in all_configs(n) {
            let mut sequential = ProvenanceEngine::new(&config, n).unwrap();
            sequential.process_all(&stream).unwrap();
            let seq_report = sequential.report();
            for (shards, &kill_at) in [2usize, 4, 7]
                .into_iter()
                .flat_map(|s| kills.iter().map(move |k| (s, k)))
            {
                let victim = kill_at % shards;
                let mut sharded = ShardedEngine::new(&config, n, shards)
                    .unwrap()
                    .with_self_healing(healing(4, 8))
                    .unwrap();
                for (i, r) in stream.iter().enumerate() {
                    if i == kill_at {
                        sharded.inject_worker_panic(victim).unwrap();
                    }
                    sharded.process(r).unwrap();
                }
                let report = sharded.report().unwrap();
                prop_assert_eq!(
                    report.total_quantity,
                    seq_report.total_quantity,
                    "total_quantity mismatch under {} with {} shards, kill at {}",
                    config.key(),
                    shards,
                    kill_at
                );
                prop_assert_eq!(
                    report.newborn_quantity,
                    seq_report.newborn_quantity,
                    "newborn_quantity mismatch under {} with {} shards, kill at {}",
                    config.key(),
                    shards,
                    kill_at
                );
                for v in 0..n {
                    let v = VertexId::from(v);
                    prop_assert_eq!(
                        sharded.buffered(v).unwrap(),
                        sequential.buffered(v),
                        "buffered({}) mismatch under {} with {} shards, kill at {}",
                        v,
                        config.key(),
                        shards,
                        kill_at
                    );
                    prop_assert_eq!(
                        sharded.origins(v).unwrap(),
                        sequential.origins(v),
                        "origins({}) mismatch under {} with {} shards, kill at {}",
                        v,
                        config.key(),
                        shards,
                        kill_at
                    );
                }
                prop_assert!(sharded.recovery_stats().recoveries >= 1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Idempotent, race-free poisoning (two deaths in the same wavefront)
// ---------------------------------------------------------------------------

/// Fail-fast mode: two near-simultaneous worker deaths must poison the
/// engine exactly once (the first root cause wins) and never deadlock.
#[test]
fn double_kill_same_wavefront_poisons_once_without_healing() {
    with_watchdog(|| {
        let n = MAX_VERTICES as usize;
        let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
        let mut engine = ShardedEngine::new(&config, n, 4).unwrap();
        let stream: Vec<Interaction> = (0..32u32)
            .map(|i| Interaction::new(i % 9, (i % 9) + 1, f64::from(i), 1.0))
            .collect();
        engine.process_all(&stream[..16]).unwrap();
        // Two victims killed back-to-back: both sentinels broadcast into
        // the same wavefront's barrier.
        engine.inject_worker_panic(0).unwrap();
        let _ = engine.inject_worker_panic(1);
        let first = match engine.report() {
            Err(e @ TinError::WorkerLost { .. }) => e,
            other => panic!("expected WorkerLost, got {other:?}"),
        };
        // Every subsequent operation keeps surfacing the *first* error —
        // the second sentinel neither re-poisons nor deadlocks anything.
        for _ in 0..4 {
            match engine.report() {
                Err(e) => assert_eq!(e, first, "poisoning must be idempotent"),
                Ok(_) => panic!("poisoned engine served a report"),
            }
        }
        drop(engine);
    });
}

/// Healing mode: both deaths land in the same wavefront; one recovery
/// absorbs them (the second sentinel's notification dies with the old
/// channel generation) and the results still match the reference.
#[test]
fn double_kill_same_wavefront_heals_once() {
    with_watchdog(|| {
        let n = MAX_VERTICES as usize;
        let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
        let stream: Vec<Interaction> = (0..48u32)
            .map(|i| Interaction::new(i % 9, (i % 9) + 1, f64::from(i), 1.0 + f64::from(i % 3)))
            .collect();
        let mut sequential = ProvenanceEngine::new(&config, n).unwrap();
        sequential.process_all(&stream).unwrap();

        let mut engine = ShardedEngine::new(&config, n, 4)
            .unwrap()
            .with_self_healing(healing(4, 8))
            .unwrap();
        engine.process_all(&stream[..24]).unwrap();
        engine.inject_worker_panic(0).unwrap();
        let _ = engine.inject_worker_panic(1);
        engine.process_all(&stream[24..]).unwrap();
        assert_bit_identical(&mut engine, &mut sequential, n, "double kill, healing");
        let stats = engine.recovery_stats();
        assert!(stats.recoveries >= 1);
        assert!(stats.last_rto_secs > 0.0);
    });
}

// ---------------------------------------------------------------------------
// Worker dies *during* recovery (respawn-within-respawn)
// ---------------------------------------------------------------------------

#[test]
fn death_during_recovery_consumes_budget_and_still_heals() {
    with_watchdog(|| {
        let n = MAX_VERTICES as usize;
        let config = PolicyConfig::Plain(SelectionPolicy::Fifo);
        let stream: Vec<Interaction> = (0..40u32)
            .map(|i| Interaction::new(i % 7, (i % 7) + 2, f64::from(i), 2.0))
            .collect();
        let mut sequential = ProvenanceEngine::new(&config, n).unwrap();
        sequential.process_all(&stream).unwrap();

        let shards = 3usize;
        let mut engine = ShardedEngine::new(&config, n, shards)
            .unwrap()
            .with_self_healing(healing(5, 16))
            .unwrap();
        engine.process_all(&stream[..20]).unwrap();
        // The next two respawned pools die immediately: recovery must chew
        // through the budget (attempts 1 and 2 fail, attempt 3 succeeds).
        engine.inject_panic_on_respawn(2);
        engine.inject_worker_panic(1).unwrap();
        engine.process_all(&stream[20..]).unwrap();
        assert_bit_identical(&mut engine, &mut sequential, n, "respawn-within-respawn");
        let stats = engine.recovery_stats();
        assert_eq!(stats.recoveries, 1, "one logical recovery");
        assert_eq!(
            stats.workers_respawned,
            3 * shards,
            "two failed attempts + one success, each a full pool"
        );
    });
}

#[test]
fn death_during_recovery_past_budget_falls_back_to_poison() {
    with_watchdog(|| {
        let n = MAX_VERTICES as usize;
        let config = PolicyConfig::Plain(SelectionPolicy::Fifo);
        let stream: Vec<Interaction> = (0..20u32)
            .map(|i| Interaction::new(i % 7, (i % 7) + 2, f64::from(i), 2.0))
            .collect();
        let mut engine = ShardedEngine::new(&config, n, 3)
            .unwrap()
            .with_self_healing(healing(1, 16))
            .unwrap();
        engine.process_all(&stream[..10]).unwrap();
        // Budget of 1, and the single respawned pool dies too.
        engine.inject_panic_on_respawn(1);
        engine.inject_worker_panic(0).unwrap();
        let mut saw_worker_lost = false;
        for r in &stream[10..] {
            if let Err(e) = engine.process(r) {
                assert!(matches!(e, TinError::WorkerLost { .. }), "{e:?}");
                saw_worker_lost = true;
                break;
            }
        }
        if !saw_worker_lost {
            assert!(matches!(engine.report(), Err(TinError::WorkerLost { .. })));
        }
        // Sticky: the exhausted budget leaves the engine poisoned for good.
        assert!(matches!(engine.report(), Err(TinError::WorkerLost { .. })));
        drop(engine);
    });
}

// ---------------------------------------------------------------------------
// Checkpointing disabled: the in-memory barrier-snapshot path
// ---------------------------------------------------------------------------

/// No durable store anywhere: recovery restores purely from the in-memory
/// snapshot, with `snapshot_every` small enough that several snapshot
/// refreshes happen mid-stream before the kill. The windowed policy
/// re-encodes every vertex at each refresh; `prop_sparse` patches only the
/// dirty ones, so its restore point is a patched snapshot.
#[test]
fn heals_from_in_memory_snapshot_without_durable_checkpoints() {
    with_watchdog(|| {
        let n = MAX_VERTICES as usize;
        let configs = [
            PolicyConfig::Windowed { window: 5 },
            PolicyConfig::Plain(SelectionPolicy::ProportionalSparse),
        ];
        for (config, snapshot_every) in configs
            .iter()
            .flat_map(|c| [4usize, 64].map(|every| (c.clone(), every)))
        {
            let stream: Vec<Interaction> = (0..60u32)
                .map(|i| {
                    Interaction::new(
                        i % 9,
                        (i % 9) + 1,
                        f64::from(i) * 0.5,
                        1.5 + f64::from(i % 4),
                    )
                })
                .collect();
            let mut sequential = ProvenanceEngine::new(&config, n).unwrap();
            sequential.process_all(&stream).unwrap();

            let mut engine = ShardedEngine::new(&config, n, 3)
                .unwrap()
                .with_self_healing(healing(3, snapshot_every))
                .unwrap();
            engine.process_all(&stream[..45]).unwrap();
            engine.inject_worker_panic(2).unwrap();
            engine.process_all(&stream[45..]).unwrap();
            assert_bit_identical(
                &mut engine,
                &mut sequential,
                n,
                &format!(
                    "in-memory snapshots, {} with snapshot_every={snapshot_every}",
                    config.key()
                ),
            );
            let stats = engine.recovery_stats();
            assert_eq!(stats.recoveries, 1);
            // The replay is bounded by the snapshot interval: never more
            // than snapshot_every interactions re-processed per recovery.
            assert!(
                stats.replayed_interactions <= snapshot_every,
                "replayed {} > snapshot_every {snapshot_every}",
                stats.replayed_interactions
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Death after the final wavefront, before the last sync barrier
// ---------------------------------------------------------------------------

#[test]
fn death_between_final_wavefront_and_last_barrier_heals_on_report() {
    with_watchdog(|| {
        let n = MAX_VERTICES as usize;
        let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
        let stream: Vec<Interaction> = (0..30u32)
            .map(|i| Interaction::new(i % 8, (i % 8) + 1, f64::from(i), 3.0))
            .collect();
        let mut sequential = ProvenanceEngine::new(&config, n).unwrap();
        sequential.process_all(&stream).unwrap();

        let mut engine = ShardedEngine::new(&config, n, 3)
            .unwrap()
            .with_self_healing(healing(3, 8))
            .unwrap();
        // Everything processed (wavefronts dispatched, maybe even drained)
        // but the closing barrier has not run yet: the kill lands between
        // the final wavefront and the report's quiesce.
        engine.process_all(&stream).unwrap();
        engine.inject_worker_panic(1).unwrap();
        assert_bit_identical(&mut engine, &mut sequential, n, "kill before last barrier");
        assert_eq!(engine.recovery_stats().recoveries, 1);
    });
}

// ---------------------------------------------------------------------------
// Durable checkpoints + self-healing combined
// ---------------------------------------------------------------------------

#[test]
fn heals_with_durable_checkpoints_enabled_and_keeps_saving() {
    use tin::core::checkpoint::{Checkpoint, CheckpointStore, StreamCursor};
    with_watchdog(|| {
        let dir =
            std::env::temp_dir().join(format!("tin_self_heal_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let n = MAX_VERTICES as usize;
        let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
        let stream: Vec<Interaction> = (0..50u32)
            .map(|i| Interaction::new(i % 9, (i % 9) + 1, f64::from(i), 2.0 + f64::from(i % 5)))
            .collect();
        let mut sequential = ProvenanceEngine::new(&config, n).unwrap();
        sequential.process_all(&stream).unwrap();

        let store = CheckpointStore::open(&dir).unwrap();
        let mut engine = ShardedEngine::new(&config, n, 3)
            .unwrap()
            .with_self_healing(healing(3, 1024))
            .unwrap()
            .with_durable_checkpoints(store, 10)
            .unwrap();
        engine.process_all(&stream[..25]).unwrap();
        engine.inject_worker_panic(0).unwrap();
        engine.process_all(&stream[25..]).unwrap();
        assert_bit_identical(&mut engine, &mut sequential, n, "durable + healing");
        assert_eq!(engine.recovery_stats().recoveries, 1);
        // Durable periodic saves adopt the snapshot, so the replay never
        // exceeds the *durable* interval here (1024 ≫ 10).
        assert!(engine.recovery_stats().replayed_interactions <= 10);
        let report = engine.report().unwrap();
        assert!(report.checkpoints_taken >= 4, "saves continued after heal");

        // Every retained file, written before or after the heal, holds what
        // a sequential engine captures at the same position. Only the
        // cursor's peak footprint may differ: each engine samples its own,
        // and a respawned pool restarts its samples.
        let files = CheckpointStore::open(&dir).unwrap().list().unwrap();
        assert_eq!(files.len(), 4, "the default retention keeps four files");
        let without_peak = |cursor: &StreamCursor| StreamCursor {
            peak_footprint_bytes: 0,
            ..cursor.clone()
        };
        let mut reference = ProvenanceEngine::new(&config, n).unwrap();
        let mut position = 0;
        for path in &files {
            let file = Checkpoint::read(path).unwrap();
            let at = file.cursor.processed;
            reference.process_all(&stream[position..at]).unwrap();
            position = at;
            let expected = reference.checkpoint().unwrap();
            let context = path.display();
            assert_eq!(file.policy, expected.policy, "{context}");
            assert_eq!(file.num_vertices, expected.num_vertices, "{context}");
            assert_eq!(
                without_peak(&file.cursor),
                without_peak(&expected.cursor),
                "{context}"
            );
            assert!(file.states == expected.states, "states: {context}");
        }
        assert_eq!(position, stream.len(), "the newest file is at the end");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A worker lost while a durable save refreshes the recovery snapshot is
/// replaced, and the save is still written at its position. The worker
/// hangs rather than dies, so the loss surfaces at the save's quiesce and
/// not before the interaction that makes the save due is applied.
#[test]
fn a_worker_lost_during_a_durable_save_does_not_skip_the_save() {
    use tin::core::checkpoint::CheckpointStore;
    with_watchdog(|| {
        let dir = std::env::temp_dir().join(format!("tin_self_heal_save_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let n = MAX_VERTICES as usize;
        let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
        let stream: Vec<Interaction> = (0..30u32)
            .map(|i| Interaction::new(i % 9, (i % 9) + 1, f64::from(i), 1.0))
            .collect();
        let policy = RecoveryPolicy {
            hang_timeout: Some(Duration::from_millis(100)),
            ..healing(3, 1024)
        };
        let store = CheckpointStore::open(&dir).unwrap();
        let mut engine = ShardedEngine::new(&config, n, 2)
            .unwrap()
            .with_self_healing(policy)
            .unwrap()
            .with_durable_checkpoints(store, 10)
            .unwrap();
        engine.process_all(&stream[..9]).unwrap();
        // The 10th interaction makes a save due; its refresh times out.
        engine.inject_worker_stall(0, 1500).unwrap();
        engine.process_all(&stream[9..]).unwrap();
        assert_eq!(engine.recovery_stats().recoveries, 1);
        let names: Vec<String> = CheckpointStore::open(&dir)
            .unwrap()
            .list()
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            [
                "ckpt-000000000010.tin",
                "ckpt-000000000020.tin",
                "ckpt-000000000030.tin"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}

// ---------------------------------------------------------------------------
// Hang detection
// ---------------------------------------------------------------------------

/// A worker that stalls past `hang_timeout` is treated as lost: the pool is
/// replaced and the run completes bit-identically. The stalled thread is
/// detached and exits on its own once the sleep ends.
#[test]
fn hung_worker_is_detected_and_replaced() {
    with_watchdog(|| {
        let n = MAX_VERTICES as usize;
        let config = PolicyConfig::Plain(SelectionPolicy::Fifo);
        let stream: Vec<Interaction> = (0..30u32)
            .map(|i| Interaction::new(i % 8, (i % 8) + 1, f64::from(i), 1.0))
            .collect();
        let mut sequential = ProvenanceEngine::new(&config, n).unwrap();
        sequential.process_all(&stream).unwrap();

        let policy = RecoveryPolicy {
            hang_timeout: Some(Duration::from_millis(100)),
            ..healing(3, 8)
        };
        let mut engine = ShardedEngine::new(&config, n, 3)
            .unwrap()
            .with_self_healing(policy)
            .unwrap();
        engine.process_all(&stream[..15]).unwrap();
        // 1.5 s stall ≫ 100 ms budget: the next barrier times out.
        engine.inject_worker_stall(1, 1500).unwrap();
        engine.process_all(&stream[15..]).unwrap();
        assert_bit_identical(&mut engine, &mut sequential, n, "hung worker");
        assert_eq!(engine.recovery_stats().recoveries, 1);
    });
}

/// A receipt-order stream over three shards, and its sequential reference.
fn lifo_reference(len: u32) -> (PolicyConfig, Vec<Interaction>, ProvenanceEngine) {
    let config = PolicyConfig::Plain(SelectionPolicy::Lifo);
    let stream: Vec<Interaction> = (0..len)
        .map(|i| Interaction::new(i % 8, (i % 8) + 1, f64::from(i), 1.0 + f64::from(i % 3)))
        .collect();
    let mut sequential = ProvenanceEngine::new(&config, MAX_VERTICES as usize).unwrap();
    sequential.process_all(&stream).unwrap();
    (config, stream, sequential)
}

/// A heal waits for the wounded generation to exit before it respawns, so
/// the old trackers are gone before the restore. After a kill every old
/// thread exits (the dead worker unwinds, its peers see the failure
/// broadcast), and none is detached.
#[test]
fn a_killed_pool_is_joined_before_the_respawn() {
    with_watchdog(|| {
        let n = MAX_VERTICES as usize;
        let (config, stream, mut sequential) = lifo_reference(40);
        let mut engine = ShardedEngine::new(&config, n, 3)
            .unwrap()
            .with_self_healing(healing(3, 8))
            .unwrap();
        engine.process_all(&stream[..20]).unwrap();
        engine.inject_worker_panic(1).unwrap();
        engine.process_all(&stream[20..]).unwrap();
        assert_bit_identical(&mut engine, &mut sequential, n, "killed pool");
        let stats = engine.recovery_stats();
        assert_eq!((stats.recoveries, stats.detached_workers), (1, 0));
    });
}

/// The wait for the wounded generation is bounded by `hang_timeout`: a
/// worker stalled for 1.5 s is still asleep after 100 ms and is detached,
/// while its idle peers exit on the `Shutdown` nudge and are joined.
#[test]
fn a_stalled_worker_is_detached_and_its_idle_peers_joined() {
    with_watchdog(|| {
        let n = MAX_VERTICES as usize;
        let (config, stream, mut sequential) = lifo_reference(40);
        let policy = RecoveryPolicy {
            hang_timeout: Some(Duration::from_millis(100)),
            ..healing(3, 8)
        };
        let mut engine = ShardedEngine::new(&config, n, 3)
            .unwrap()
            .with_self_healing(policy)
            .unwrap();
        engine.process_all(&stream[..20]).unwrap();
        // Quiesce first, so no peer holds a wavefront that waits on the
        // stalled worker; the next query then times out on it alone.
        engine.buffered_all().unwrap();
        engine.inject_worker_stall(1, 1500).unwrap();
        engine.buffered_all().unwrap();
        engine.process_all(&stream[20..]).unwrap();
        assert_bit_identical(&mut engine, &mut sequential, n, "stalled worker");
        let stats = engine.recovery_stats();
        assert_eq!((stats.recoveries, stats.detached_workers), (1, 1));
    });
}

// ---------------------------------------------------------------------------
// Recovery observability
// ---------------------------------------------------------------------------

#[test]
fn recovery_metrics_and_span_land_in_obs() {
    with_watchdog(|| {
        let n = MAX_VERTICES as usize;
        let shards = 3usize;
        let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
        let stream: Vec<Interaction> = (0..40u32)
            .map(|i| Interaction::new(i % 9, (i % 9) + 1, f64::from(i), 2.0))
            .collect();
        let mut engine = ShardedEngine::new(&config, n, shards)
            .unwrap()
            .with_observability(tin_obs::Obs::new())
            .unwrap()
            .with_self_healing(healing(3, 8))
            .unwrap();
        engine.process_all(&stream[..20]).unwrap();
        engine.inject_worker_panic(2).unwrap();
        engine.process_all(&stream[20..]).unwrap();
        let _ = engine.report().unwrap();
        let stats = engine.recovery_stats();
        let obs = engine.take_obs().unwrap().expect("sink attached");
        let snap = obs.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("counter {name} registered"))
                .value
        };
        assert_eq!(counter("recoveries_total"), 1);
        assert_eq!(counter("worker_respawns_total"), shards as u64);
        assert_eq!(
            counter("replayed_interactions_total"),
            stats.replayed_interactions as u64
        );
        let rto = snap
            .histograms
            .iter()
            .find(|h| h.name == "recovery_ns")
            .expect("recovery_ns histogram registered");
        assert_eq!(rto.count, 1);
        assert!(rto.sum > 0);
        assert!(obs.trace.events().iter().any(|e| e.name == "recovery"));
    });
}

// ---------------------------------------------------------------------------
// Budget semantics
// ---------------------------------------------------------------------------

/// `max_worker_restarts: 0` is exactly the pre-existing fail-fast behavior
/// even with a recovery policy attached.
#[test]
fn zero_restart_budget_is_fail_fast() {
    with_watchdog(|| {
        let n = MAX_VERTICES as usize;
        let config = PolicyConfig::Plain(SelectionPolicy::Fifo);
        let mut engine = ShardedEngine::new(&config, n, 3)
            .unwrap()
            .with_self_healing(healing(0, 8))
            .unwrap();
        engine
            .process(&Interaction::new(0u32, 1u32, 1.0, 2.0))
            .unwrap();
        engine.inject_worker_panic(0).unwrap();
        assert!(matches!(engine.report(), Err(TinError::WorkerLost { .. })));
        assert!(matches!(engine.report(), Err(TinError::WorkerLost { .. })));
        assert_eq!(engine.recovery_stats().recoveries, 0);
    });
}

/// The budget is engine-lifetime: repeated kills drain it, and the
/// (budget + 1)-th failure is terminal.
#[test]
fn repeated_kills_drain_the_lifetime_budget() {
    with_watchdog(|| {
        let n = MAX_VERTICES as usize;
        let config = PolicyConfig::Plain(SelectionPolicy::Fifo);
        let stream: Vec<Interaction> = (0..60u32)
            .map(|i| Interaction::new(i % 7, (i % 7) + 2, f64::from(i), 1.0))
            .collect();
        let mut engine = ShardedEngine::new(&config, n, 2)
            .unwrap()
            .with_self_healing(healing(2, 16))
            .unwrap();
        engine.process_all(&stream[..10]).unwrap();
        engine.inject_worker_panic(0).unwrap();
        engine.process_all(&stream[10..20]).unwrap();
        let _ = engine.report().unwrap(); // first heal certainly done
        engine.inject_worker_panic(1).unwrap();
        engine.process_all(&stream[20..30]).unwrap();
        let _ = engine.report().unwrap(); // second heal done
        assert_eq!(engine.recovery_stats().recoveries, 2);
        // Third kill: budget exhausted, terminal.
        engine.inject_worker_panic(0).unwrap();
        let mut failed = false;
        for r in &stream[30..] {
            if engine.process(r).is_err() {
                failed = true;
                break;
            }
        }
        assert!(
            failed || engine.report().is_err(),
            "third failure must be terminal"
        );
        assert!(matches!(engine.report(), Err(TinError::WorkerLost { .. })));
    });
}
