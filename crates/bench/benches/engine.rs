//! Benches for the operational layer: engine overhead over a raw tracker,
//! path tracking on top of the generation-time policies, and on-demand
//! (lazy / backtracing) query latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tin_bench::Workload;
use tin_core::engine::ProvenanceEngine;
use tin_core::ids::VertexId;
use tin_core::policy::{PolicyConfig, SelectionPolicy};
use tin_core::tracker::backtrace::BacktraceIndex;
use tin_core::tracker::lazy::LazyReplayProvenance;
use tin_core::tracker::path_generation::GenerationPathTracker;
use tin_core::tracker::{build_tracker, ProvenanceTracker};
use tin_datasets::{DatasetKind, ScaleProfile};

fn bench_engine_overhead(c: &mut Criterion) {
    let w = Workload::generate(DatasetKind::Taxis, ScaleProfile::Tiny);
    let config = PolicyConfig::Plain(SelectionPolicy::Fifo);
    let mut group = c.benchmark_group("engine_overhead");
    group.bench_function("raw_tracker", |b| {
        b.iter(|| {
            let mut tracker = build_tracker(&config, w.num_vertices).unwrap();
            tracker.process_all(&w.interactions);
            tracker.interactions_processed()
        })
    });
    group.bench_function("engine_validated", |b| {
        b.iter(|| {
            let mut engine = ProvenanceEngine::new(&config, w.num_vertices).unwrap();
            engine.process_all(&w.interactions).unwrap();
            engine.report().interactions
        })
    });
    group.finish();
}

fn bench_generation_path_tracking(c: &mut Criterion) {
    let w = Workload::generate(DatasetKind::Taxis, ScaleProfile::Tiny);
    let mut group = c.benchmark_group("generation_time_paths");
    group.bench_function("plain_lrb", |b| {
        b.iter(|| {
            let mut tracker = build_tracker(
                &PolicyConfig::Plain(SelectionPolicy::LeastRecentlyBorn),
                w.num_vertices,
            )
            .unwrap();
            tracker.process_all(&w.interactions);
            tracker.footprint().total()
        })
    });
    group.bench_function("lrb_with_paths", |b| {
        b.iter(|| {
            let mut tracker = GenerationPathTracker::least_recently_born(w.num_vertices);
            tracker.process_all(&w.interactions);
            tracker.footprint().total()
        })
    });
    group.finish();
}

fn bench_on_demand_queries(c: &mut Criterion) {
    let w = Workload::generate(DatasetKind::Taxis, ScaleProfile::Tiny);
    let n = w.num_vertices;
    let mut lazy = LazyReplayProvenance::proportional(n);
    let mut backtrace = BacktraceIndex::proportional(n);
    let mut eager =
        build_tracker(&PolicyConfig::Plain(SelectionPolicy::ProportionalSparse), n).unwrap();
    for r in &w.interactions {
        lazy.process(r);
        backtrace.process(r);
        eager.process(r);
    }
    let policy = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
    let query = VertexId::from(n / 2);

    let mut group = c.benchmark_group("on_demand_queries");
    group.bench_with_input(BenchmarkId::new("eager", "origins"), &query, |b, &v| {
        b.iter(|| eager.origins(v).len())
    });
    group.bench_with_input(
        BenchmarkId::new("lazy_replay", "origins"),
        &query,
        |b, &v| b.iter(|| lazy.origins_at(v, f64::INFINITY).unwrap().len()),
    );
    group.bench_with_input(
        BenchmarkId::new("backtrace_pruned", "origins"),
        &query,
        |b, &v| {
            b.iter(|| {
                backtrace
                    .origins_at_with(v, f64::INFINITY, &policy)
                    .unwrap()
                    .len()
            })
        },
    );
    group.finish();
}

/// Reduced sample configuration so the full suite (`cargo bench --workspace`)
/// completes in a few minutes; the relative ordering of the measured
/// alternatives is unaffected. Command-line flags (e.g. `--sample-size`)
/// still override these defaults.
fn quick_config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(3))
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_engine_overhead, bench_generation_path_tracking, bench_on_demand_queries
}
criterion_main!(benches);
