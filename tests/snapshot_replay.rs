//! Integration tests for the operational layer: the streaming engine,
//! provenance snapshots, and the lazy / backtracing on-demand trackers.
//! These all provide alternative routes to the same provenance answers, so
//! the tests check them against each other and against the eager trackers.

use tin::core::engine::{run_ensemble, ProvenanceEngine};
use tin::prelude::*;

fn workload() -> (usize, Vec<Interaction>) {
    let spec = DatasetSpec::with_seed(DatasetKind::Taxis, ScaleProfile::Tiny, 11);
    let stream = tin::datasets::generate(&spec);
    (spec.num_vertices(), stream)
}

/// The engine is a validated wrapper: it must produce exactly the same
/// provenance as driving the tracker directly.
#[test]
fn engine_matches_direct_tracker() {
    let (n, stream) = workload();
    for policy in [
        SelectionPolicy::Fifo,
        SelectionPolicy::LeastRecentlyBorn,
        SelectionPolicy::ProportionalSparse,
    ] {
        let config = PolicyConfig::Plain(policy);
        let mut direct = build_tracker(&config, n).unwrap();
        direct.process_all(&stream);

        let mut engine = ProvenanceEngine::new(&config, n).unwrap();
        engine.process_all(&stream).unwrap();

        for i in 0..n {
            let v = VertexId::from(i);
            assert!(
                engine.origins(v).approx_eq(&direct.origins(v)),
                "{policy}: engine diverged at {v}"
            );
        }
        let report = engine.report();
        assert_eq!(report.interactions, stream.len());
        assert!(report.total_quantity > 0.0);
        assert!(report.newborn_quantity <= report.total_quantity + 1e-9);
    }
}

/// Flow accounting is selection-policy independent: every policy relays and
/// generates exactly the same amounts on the same stream (Algorithm 1 decides
/// *how much* moves; the policy only decides *which units*).
#[test]
fn ensemble_reports_identical_flow_accounting() {
    let (n, stream) = workload();
    let configs: Vec<PolicyConfig> = SelectionPolicy::all()
        .into_iter()
        .map(PolicyConfig::Plain)
        .collect();
    let reports = run_ensemble(&configs, n, &stream).unwrap();
    assert_eq!(reports.len(), configs.len());
    let reference = &reports[0];
    for report in &reports {
        assert_eq!(report.interactions, stream.len());
        assert!((report.total_quantity - reference.total_quantity).abs() < 1e-6);
        assert!((report.newborn_quantity - reference.newborn_quantity).abs() < 1e-6);
    }
}

/// Lazy replay, backtracing replay and the eager tracker agree at arbitrary
/// query times, for multiple policies.
#[test]
fn lazy_and_backtrace_agree_with_eager_time_travel() {
    let (n, stream) = workload();
    let mut lazy = LazyReplayProvenance::proportional(n);
    let mut backtrace = BacktraceIndex::proportional(n);
    for r in &stream {
        lazy.process(r);
        backtrace.process(r);
    }

    // Pick a handful of query times across the stream.
    let times: Vec<f64> = [stream.len() / 4, stream.len() / 2, stream.len() - 1]
        .iter()
        .map(|&idx| stream[idx].time.value())
        .collect();
    let query_vertices: Vec<VertexId> =
        (0..n).step_by((n / 7).max(1)).map(VertexId::from).collect();

    for &t in &times {
        // Eager reference: replay the prefix directly.
        let mut eager =
            build_tracker(&PolicyConfig::Plain(SelectionPolicy::ProportionalSparse), n).unwrap();
        for r in &stream {
            if r.time.value() > t {
                break;
            }
            eager.process(r);
        }
        for &v in &query_vertices {
            let from_lazy = lazy.origins_at(v, t).unwrap();
            let (from_backtrace, stats) = backtrace
                .origins_at_with_stats(
                    v,
                    t,
                    &PolicyConfig::Plain(SelectionPolicy::ProportionalSparse),
                )
                .unwrap();
            assert!(
                from_lazy.approx_eq(&eager.origins(v)),
                "lazy diverged at {v}, t={t}"
            );
            assert!(
                from_backtrace.approx_eq(&eager.origins(v)),
                "backtrace diverged at {v}, t={t}"
            );
            assert!(stats.replayed_interactions <= stats.horizon_interactions);
        }
    }
}

/// The generation-time path tracker never changes the origin decomposition
/// relative to the plain generation-time tracker, across a full synthetic
/// workload, and its reported paths stay within the bounds of the stream.
#[test]
fn generation_path_tracking_is_consistent_at_scale() {
    let (n, stream) = workload();
    let mut with_paths = GenerationPathTracker::least_recently_born(n);
    let mut plain = GenerationTimeTracker::least_recently_born(n);
    with_paths.process_all(&stream);
    plain.process_all(&stream);
    for i in 0..n {
        let v = VertexId::from(i);
        assert!(
            with_paths.origins(v).approx_eq(&plain.origins(v)),
            "diverged at {v}"
        );
    }
    assert!(with_paths.average_path_length() >= 0.0);
    assert!(with_paths.average_path_length() < stream.len() as f64);
    let fp = with_paths.footprint();
    assert!(fp.paths_bytes > 0);
    assert!(fp.total() >= plain.footprint().total() / 2);
}

/// Snapshot diffs detect the accumulation the Figure 2 use case plots: the
/// vertex that the diff reports as fastest accumulator really did gain the
/// most buffered quantity between the two checkpoints.
#[test]
fn snapshot_diffs_identify_accumulators() {
    let (n, stream) = workload();
    let config = PolicyConfig::Plain(SelectionPolicy::Fifo);
    let mut tracker = build_tracker(&config, n).unwrap();
    let half = stream.len() / 2;
    tracker.process_all(&stream[..half]);
    let early = ProvenanceSnapshot::capture(tracker.as_ref(), stream[half - 1].time.value());
    tracker.process_all(&stream[half..]);
    let late = ProvenanceSnapshot::capture(tracker.as_ref(), stream.last().unwrap().time.value());

    let diff = late.diff_from(&early);
    assert_eq!(diff.interactions, stream.len() - half);
    if let Some((vertex, delta)) = diff.fastest_accumulator() {
        let expected = late.buffered(vertex) - early.buffered(vertex);
        assert!((delta - expected).abs() < 1e-9);
        // No other vertex gained more.
        for i in 0..n {
            let v = VertexId::from(i);
            assert!(late.buffered(v) - early.buffered(v) <= delta + 1e-9);
        }
    }
}
