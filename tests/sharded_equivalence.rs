//! Property-based equivalence of the sharded and sequential engines.
//!
//! The tentpole guarantee of the `tin-shard` crate is that wavefront-parallel
//! execution is *bit-identical* to the sequential [`ProvenanceEngine`] — not
//! approximately equal, but the same `f64`s in the same places — because each
//! per-vertex state sees the same operations in the same order executed by
//! the same tracker code. These properties check that claim on random valid
//! streams for every factory-reachable policy configuration and shard counts
//! {1, 2, 4, 7} (1 = trivial degenerate case, 7 = more shards than busy
//! vertices on small streams, so hollow shards and heavy migration both get
//! exercised).

use proptest::prelude::*;
use tin::prelude::*;
use tin_core::engine::ProvenanceEngine;
use tin_shard::ShardedEngine;

mod common;
use common::all_configs;

const MAX_VERTICES: u32 = 10;

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

/// A skewed xorshift stream: low vertex ids are hubs, so lists, queues and
/// heaps keep growing and the footprint samples keep moving.
fn seeded_stream(n: u64, len: usize, mut state: u64) -> Vec<Interaction> {
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut time = 0.0;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let hub = next() % n;
        let src = next() % (hub + 1);
        let hub = next() % n;
        let dst = next() % (hub + 1);
        if src == dst {
            continue;
        }
        time += (next() % 3) as f64;
        let qty = 1.0 + (next() % 100) as f64 / 4.0;
        out.push(Interaction::new(src as u32, dst as u32, time, qty));
    }
    out
}

/// Peak footprints recorded from the build that recounted every vertex on
/// each sample: the running counters must reproduce every sample, so both
/// engines report exactly the recorded peaks (policy key, sequential,
/// 2 shards).
#[test]
fn peak_footprints_match_recorded_values() {
    const GOLDEN: [(&str, usize, usize); 14] = [
        ("noprov", 640, 1280),
        ("lrb", 268_480, 270_400),
        ("mrb", 223_360, 225_280),
        ("lifo", 47_916, 49_836),
        ("fifo", 46_620, 48_744),
        ("prop_dense", 13_120, 17_600),
        ("prop_sparse", 32_960, 35_200),
        ("selective_k2", 1_316, 1_984),
        ("grouped_m3", 1_440, 2_232),
        ("windowed_w5", 8_000, 12_160),
        ("timewindowed_d7.5", 8_144, 12_304),
        ("budget_c3", 6_168, 8_640),
        ("paths_fifo", 372_800, 374_844),
        ("paths_mrb", 506_456, 510_408),
    ];
    let n = 40;
    let stream = seeded_stream(n as u64, 3000, 0x5eed_1234_abcd_9876);
    let configs = all_configs(n);
    assert_eq!(configs.len(), GOLDEN.len());
    for (config, (key, sequential, sharded)) in configs.iter().zip(GOLDEN) {
        assert_eq!(config.key(), key);
        let mut engine = ProvenanceEngine::new(config, n)
            .unwrap()
            .with_footprint_sample_interval(64)
            .unwrap();
        engine.process_all(&stream).unwrap();
        assert_eq!(engine.report().peak_footprint_bytes, sequential, "{key}");
        let mut engine = ShardedEngine::new(config, n, 2)
            .unwrap()
            .with_footprint_sample_interval(64)
            .unwrap();
        engine.process_all(&stream).unwrap();
        let report = engine.report().unwrap();
        assert_eq!(report.peak_footprint_bytes, sharded, "{key}, 2 shards");
    }
}

/// Acceptance criterion: bit-identical output on fixed-seed generated
/// Bitcoin- and taxi-shaped streams (the two shapes `bench_baseline` leans
/// on) for all policies — not just on uniform random streams.
#[test]
fn sharded_matches_sequential_on_generated_datasets() {
    use tin_datasets::{DatasetKind, DatasetSpec, ScaleProfile};
    for kind in [DatasetKind::Bitcoin, DatasetKind::Taxis] {
        let spec = DatasetSpec::with_seed(kind, ScaleProfile::Tiny, 42);
        let n = spec.num_vertices();
        let stream = tin_datasets::generate(&spec);
        for config in all_configs(n) {
            let mut sequential = ProvenanceEngine::new(&config, n).unwrap();
            sequential.process_all(&stream).unwrap();
            let seq_report = sequential.report();
            for shards in [2usize, 4] {
                let mut sharded = ShardedEngine::new(&config, n, shards).unwrap();
                sharded.process_all(&stream).unwrap();
                let report = sharded.report().unwrap();
                assert_eq!(
                    report.total_quantity,
                    seq_report.total_quantity,
                    "total mismatch: {:?} {} shards={shards}",
                    kind,
                    config.key()
                );
                assert_eq!(
                    report.newborn_quantity,
                    seq_report.newborn_quantity,
                    "newborn mismatch: {:?} {} shards={shards}",
                    kind,
                    config.key()
                );
                for v in 0..n {
                    let v = VertexId::from(v);
                    assert_eq!(
                        sharded.buffered(v).unwrap(),
                        sequential.buffered(v),
                        "buffered({v}) mismatch: {:?} {} shards={shards}",
                        kind,
                        config.key()
                    );
                    assert_eq!(
                        sharded.origins(v).unwrap(),
                        sequential.origins(v),
                        "origins({v}) mismatch: {:?} {} shards={shards}",
                        kind,
                        config.key()
                    );
                }
            }
        }
    }
}

/// Observability is invisible to results, and the merged worker metrics
/// account for every interaction exactly once across all shards.
#[test]
fn sharded_observability_merges_worker_metrics_deterministically() {
    use tin_datasets::{DatasetKind, DatasetSpec, ScaleProfile};
    use tin_obs::Obs;
    let spec = DatasetSpec::with_seed(DatasetKind::Bitcoin, ScaleProfile::Tiny, 7);
    let n = spec.num_vertices();
    let stream = tin_datasets::generate(&spec);
    let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);

    let mut plain = ShardedEngine::new(&config, n, 3).unwrap();
    plain.process_all(&stream).unwrap();
    let plain_report = plain.report().unwrap();

    let mut instrumented = ShardedEngine::new(&config, n, 3)
        .unwrap()
        .with_observability(Obs::new())
        .unwrap()
        .with_footprint_sample_interval(64)
        .unwrap();
    instrumented.process_all(&stream).unwrap();
    let report = instrumented.report().unwrap();
    // Flow totals are bit-identical; `peak_footprint_bytes` is *not*
    // compared because the denser sampling interval legitimately observes
    // different peaks — sampling cadence is not part of the guarantee.
    assert_eq!(report.total_quantity, plain_report.total_quantity);
    assert_eq!(report.newborn_quantity, plain_report.newborn_quantity);

    let obs = instrumented.take_obs().unwrap().expect("sink was attached");
    assert!(instrumented.obs().is_none(), "take_obs detaches the sink");
    let snap = obs.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("counter {name} registered"))
            .value
    };
    // Every interaction is processed exactly once, either locally on the
    // owning shard or as an import on the destination owner.
    assert_eq!(
        counter("shard_local_interactions_total") + counter("shard_import_interactions_total"),
        stream.len() as u64
    );
    // Each import moves a state out and home again: two migrations per
    // cross-shard interaction.
    assert_eq!(
        counter("shard_state_migrations_total"),
        2 * counter("shard_import_interactions_total")
    );
    let wavefronts = counter("wavefronts_total");
    assert!(wavefronts > 0);
    let sizes = snap
        .histograms
        .iter()
        .find(|h| h.name == "wavefront_batch_interactions_total")
        .expect("wavefront size histogram registered");
    assert_eq!(sizes.count, wavefronts);
    assert_eq!(sizes.sum, stream.len() as u64);
    // The footprint gauge saw the shards' merged samples.
    let footprint = snap
        .gauges
        .iter()
        .find(|g| g.name == "footprint_bytes")
        .expect("footprint gauge registered");
    assert!(footprint.samples > 0 && footprint.last > 0);
    // Worker spans were re-based onto the shared timeline.
    assert!(obs.trace.events().iter().any(|e| e.name == "shard_batch"));
    assert!(obs
        .trace
        .events()
        .iter()
        .any(|e| e.name == "wavefront_dispatch" && e.tid == 0));
}

/// Both engines describe every metric they share the same way — one kind
/// and one unit per name — and count the same durable saves over the same
/// stream.
#[test]
fn engines_agree_on_metric_units_and_checkpoint_counts() {
    use std::collections::BTreeMap;
    use tin_datasets::{DatasetKind, DatasetSpec, ScaleProfile};
    use tin_obs::{MetricsSnapshot, Obs};
    let spec = DatasetSpec::with_seed(DatasetKind::Bitcoin, ScaleProfile::Tiny, 7);
    let n = spec.num_vertices();
    let stream = tin_datasets::generate(&spec);
    let config = PolicyConfig::Plain(SelectionPolicy::Fifo);
    let dir = std::env::temp_dir().join(format!("tin_metric_units_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = |name: &str| CheckpointStore::open(dir.join(name)).unwrap();

    let mut sequential = ProvenanceEngine::new(&config, n)
        .unwrap()
        .with_observability(Obs::new())
        .with_durable_checkpoints(store("sequential"), 100)
        .unwrap();
    sequential.process_all(&stream).unwrap();
    let mut sharded = ShardedEngine::new(&config, n, 2)
        .unwrap()
        .with_observability(Obs::new())
        .unwrap()
        .with_durable_checkpoints(store("sharded"), 100)
        .unwrap();
    sharded.process_all(&stream).unwrap();

    let saves = sequential.report().checkpoints_taken;
    assert_eq!(saves, stream.len() / 100);
    assert_eq!(sharded.report().unwrap().checkpoints_taken, saves);

    type Described = BTreeMap<&'static str, (&'static str, &'static str)>;
    let describe = |snap: MetricsSnapshot| {
        let mut kinds = Described::new();
        kinds.extend(snap.counters.iter().map(|c| (c.name, ("counter", c.unit))));
        kinds.extend(snap.gauges.iter().map(|g| (g.name, ("gauge", g.unit))));
        kinds.extend(
            snap.histograms
                .iter()
                .map(|h| (h.name, ("histogram", h.unit))),
        );
        kinds
    };
    let seq = describe(sequential.take_obs().unwrap().snapshot());
    let shard = describe(sharded.take_obs().unwrap().unwrap().snapshot());
    let shared: Vec<&str> = seq
        .keys()
        .copied()
        .filter(|name| shard.contains_key(name))
        .collect();
    // The footprint gauge, the spike counter and the five checkpoint metrics.
    assert_eq!(shared.len(), 7, "{shared:?}");
    for name in shared {
        assert_eq!(seq[name], shard[name], "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every policy and shard count, the sharded engine reproduces the
    /// sequential engine's `origins(v)`, `buffered(v)` and flow totals
    /// exactly (`==` on floats, not approximate comparison).
    #[test]
    fn sharded_engine_is_bit_identical(stream in interaction_stream(48)) {
        let n = MAX_VERTICES as usize;
        for config in all_configs(n) {
            let mut sequential = ProvenanceEngine::new(&config, n).unwrap();
            sequential.process_all(&stream).unwrap();
            let seq_report = sequential.report();
            for shards in [1usize, 2, 4, 7] {
                let mut sharded = ShardedEngine::new(&config, n, shards).unwrap();
                sharded.process_all(&stream).unwrap();
                let report = sharded.report().unwrap();
                prop_assert_eq!(
                    report.total_quantity,
                    seq_report.total_quantity,
                    "total_quantity mismatch under {} with {} shards",
                    config.key(),
                    shards
                );
                prop_assert_eq!(
                    report.newborn_quantity,
                    seq_report.newborn_quantity,
                    "newborn_quantity mismatch under {} with {} shards",
                    config.key(),
                    shards
                );
                prop_assert_eq!(
                    report.relayed_quantity,
                    seq_report.relayed_quantity,
                    "relayed_quantity mismatch under {} with {} shards",
                    config.key(),
                    shards
                );
                for v in 0..n {
                    let v = VertexId::from(v);
                    prop_assert_eq!(
                        sharded.buffered(v).unwrap(),
                        sequential.buffered(v),
                        "buffered({}) mismatch under {} with {} shards",
                        v,
                        config.key(),
                        shards
                    );
                    prop_assert_eq!(
                        sharded.origins(v).unwrap(),
                        sequential.origins(v),
                        "origins({}) mismatch under {} with {} shards",
                        v,
                        config.key(),
                        shards
                    );
                }
            }
        }
    }

    /// A metrics-and-trace-enabled sharded run is bit-identical to an
    /// uninstrumented sequential run — the observability layer observes,
    /// it never participates. Checked across policies and shard counts.
    #[test]
    fn instrumented_sharded_matches_uninstrumented_sequential(stream in interaction_stream(40)) {
        let n = MAX_VERTICES as usize;
        for config in all_configs(n) {
            let mut sequential = ProvenanceEngine::new(&config, n).unwrap();
            sequential.process_all(&stream).unwrap();
            let seq_report = sequential.report();
            for shards in [2usize, 5] {
                let mut sharded = ShardedEngine::new(&config, n, shards)
                    .unwrap()
                    .with_observability(tin_obs::Obs::new())
                    .unwrap()
                    .with_footprint_sample_interval(16)
                    .unwrap();
                sharded.process_all(&stream).unwrap();
                let report = sharded.report().unwrap();
                prop_assert_eq!(
                    report.total_quantity,
                    seq_report.total_quantity,
                    "instrumented total_quantity mismatch under {} with {} shards",
                    config.key(),
                    shards
                );
                prop_assert_eq!(
                    report.newborn_quantity,
                    seq_report.newborn_quantity,
                    "instrumented newborn_quantity mismatch under {} with {} shards",
                    config.key(),
                    shards
                );
                for v in 0..n {
                    let v = VertexId::from(v);
                    prop_assert_eq!(
                        sharded.buffered(v).unwrap(),
                        sequential.buffered(v),
                        "instrumented buffered({}) mismatch under {} with {} shards",
                        v,
                        config.key(),
                        shards
                    );
                    prop_assert_eq!(
                        sharded.origins(v).unwrap(),
                        sequential.origins(v),
                        "instrumented origins({}) mismatch under {} with {} shards",
                        v,
                        config.key(),
                        shards
                    );
                }
                let obs = sharded.take_obs().unwrap().expect("sink was attached");
                let processed: u64 = obs
                    .snapshot()
                    .counters
                    .iter()
                    .filter(|c| {
                        c.name == "shard_local_interactions_total"
                            || c.name == "shard_import_interactions_total"
                    })
                    .map(|c| c.value)
                    .sum();
                prop_assert_eq!(processed, stream.len() as u64);
            }
        }
    }

    /// Mid-stream queries (which quiesce the shard pipeline) never perturb
    /// later results: interleaving queries with processing still matches a
    /// sequential run.
    #[test]
    fn queries_do_not_perturb_sharded_state(stream in interaction_stream(40)) {
        let n = MAX_VERTICES as usize;
        let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
        let mut sequential = ProvenanceEngine::new(&config, n).unwrap();
        let mut sharded = ShardedEngine::new(&config, n, 3).unwrap();
        for (i, r) in stream.iter().enumerate() {
            sequential.process(r).unwrap();
            sharded.process(r).unwrap();
            if i % 11 == 0 {
                let v = VertexId::from(i % n);
                prop_assert_eq!(sharded.buffered(v).unwrap(), sequential.buffered(v));
                prop_assert_eq!(sharded.origins(v).unwrap(), sequential.origins(v));
            }
        }
        prop_assert_eq!(
            sharded.report().unwrap().newborn_quantity,
            sequential.report().newborn_quantity
        );
    }
}
