//! Property-based tests over randomly generated interaction streams.
//!
//! These check the invariants the paper's correctness argument rests on, for
//! arbitrary (not just dataset-shaped) inputs:
//!
//! 1. buffer totals are policy-independent and non-negative;
//! 2. `Σ_{τ ∈ O(t,B_v)} τ.q = |B_v|` at every vertex for every policy
//!    (Definition 2);
//! 3. global conservation: everything buffered was generated somewhere;
//! 4. dense and sparse proportional tracking are interchangeable;
//! 5. the scope-limiting techniques never invent provenance;
//! 6. the O(1) footprint counters agree with a full per-vertex recount.

use proptest::prelude::*;
use tin::prelude::*;

mod common;
use common::all_configs;

const MAX_VERTICES: u32 = 12;

/// Strategy: a stream of up to `len` valid interactions over a small vertex
/// set with non-decreasing integer timestamps.
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
                // Avoid self-loops by shifting the destination past the source.
                let dst = if dst_raw >= src { dst_raw + 1 } else { dst_raw };
                time += gap;
                Interaction::new(src, dst, time, qty)
            })
            .collect()
    })
}

fn all_plain_trackers(n: usize) -> Vec<Box<dyn ProvenanceTracker>> {
    SelectionPolicy::all()
        .iter()
        .map(|p| build_tracker(&PolicyConfig::Plain(*p), n).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Buffer totals are the same under every policy, after every interaction.
    #[test]
    fn buffer_totals_are_policy_independent(stream in interaction_stream(60)) {
        let n = MAX_VERTICES as usize;
        let mut trackers = all_plain_trackers(n);
        for r in &stream {
            for t in trackers.iter_mut() {
                t.process(r);
            }
            for i in 0..n {
                let v = VertexId::from(i);
                let reference = trackers[0].buffered(v);
                prop_assert!(reference >= -1e-9);
                for t in &trackers {
                    prop_assert!(
                        (t.buffered(v) - reference).abs() < 1e-6,
                        "{} disagrees at {} ({} vs {})", t.name(), v, t.buffered(v), reference
                    );
                }
            }
        }
    }

    /// Definition 2 invariant: origins always sum to the buffered quantity.
    #[test]
    fn origin_sets_sum_to_buffer(stream in interaction_stream(60)) {
        let n = MAX_VERTICES as usize;
        let mut trackers = all_plain_trackers(n);
        for r in &stream {
            for t in trackers.iter_mut() {
                t.process(r);
            }
        }
        for t in &trackers {
            prop_assert!(t.check_all_invariants(), "{} violated Definition 2", t.name());
        }
    }

    /// Global conservation: total buffered equals total newborn quantity.
    #[test]
    fn global_conservation(stream in interaction_stream(80)) {
        let n = MAX_VERTICES as usize;
        let mut baseline = NoProvTracker::new(n);
        baseline.process_all(&stream);
        let generated: f64 = baseline.generated_per_vertex().iter().sum();
        for policy in SelectionPolicy::all() {
            let mut t = build_tracker(&PolicyConfig::Plain(policy), n).unwrap();
            t.process_all(&stream);
            prop_assert!((t.total_buffered() - generated).abs() < 1e-6 * generated.max(1.0));
        }
    }

    /// Dense and sparse proportional trackers are interchangeable: same
    /// buffered totals and origin sets at every vertex after every
    /// interaction, not just at the end of the stream.
    #[test]
    fn proportional_representations_agree(stream in interaction_stream(60)) {
        let n = MAX_VERTICES as usize;
        let mut dense = ProportionalDenseTracker::new(n);
        let mut sparse = ProportionalSparseTracker::new(n);
        for (step, r) in stream.iter().enumerate() {
            dense.process(r);
            sparse.process(r);
            for i in 0..n {
                let v = VertexId::from(i);
                prop_assert!(
                    (dense.buffered(v) - sparse.buffered(v)).abs() < 1e-6,
                    "buffered mismatch at {} after step {}: {} vs {}",
                    v, step, dense.buffered(v), sparse.buffered(v)
                );
                prop_assert!(
                    dense.origins(v).approx_eq(&sparse.origins(v)),
                    "origin mismatch at {} after step {}: {:?} vs {:?}",
                    v, step, dense.origins(v), sparse.origins(v)
                );
            }
        }
    }

    /// Selective tracking reports exact quantities for tracked origins and
    /// aggregates the rest; it never attributes more to a tracked origin than
    /// the exact tracker does.
    #[test]
    fn selective_tracking_never_invents_provenance(
        stream in interaction_stream(60),
        k in 1usize..6,
    ) {
        let n = MAX_VERTICES as usize;
        let tracked: Vec<VertexId> = (0..k as u32).map(VertexId::new).collect();
        let mut selective = ProportionalDenseTracker::selective(n, tracked.clone()).unwrap();
        let mut exact = ProportionalDenseTracker::new(n);
        selective.process_all(&stream);
        exact.process_all(&stream);
        for i in 0..n {
            let v = VertexId::from(i);
            let so = selective.origins(v);
            let eo = exact.origins(v);
            for &tv in &tracked {
                prop_assert!((so.quantity_from_vertex(tv) - eo.quantity_from_vertex(tv)).abs() < 1e-6);
            }
            prop_assert!((so.total() - eo.total()).abs() < 1e-6);
        }
    }

    /// Windowed (count- and time-based) and budget-based tracking: totals are
    /// exact, concrete attributions are a subset of the exact ones, and the
    /// invariant holds.
    #[test]
    fn scope_limiting_is_sound(
        stream in interaction_stream(60),
        window in 1usize..20,
        duration in 0.5f64..40.0,
        capacity in 1usize..8,
    ) {
        let n = MAX_VERTICES as usize;
        let mut exact = ProportionalSparseTracker::new(n);
        let mut windowed = WindowedTracker::new(n, window).unwrap();
        let mut time_windowed = WindowedTracker::time_based(n, duration).unwrap();
        let mut budget = BudgetTracker::new(n, capacity, 0.7).unwrap();
        exact.process_all(&stream);
        windowed.process_all(&stream);
        time_windowed.process_all(&stream);
        budget.process_all(&stream);
        for i in 0..n {
            let v = VertexId::from(i);
            let eo = exact.origins(v);
            for (label, t) in [
                ("windowed", &windowed as &dyn ProvenanceTracker),
                ("time_windowed", &time_windowed),
                ("budget", &budget),
            ] {
                prop_assert!((t.buffered(v) - exact.buffered(v)).abs() < 1e-6, "{label} total at {v}");
                prop_assert!(t.check_origin_invariant(v), "{label} invariant at {v}");
                for (o, q) in t.origins(v).iter() {
                    if let Some(vertex) = o.as_vertex() {
                        prop_assert!(
                            q <= eo.quantity_from_vertex(vertex) + 1e-6,
                            "{label} over-attributes {o} at {v}"
                        );
                    }
                }
            }
        }
    }

    /// Path tracking: per-element paths start at the element's origin and the
    /// provenance matches the plain receipt-order tracker.
    #[test]
    fn paths_start_at_origin_and_preserve_provenance(stream in interaction_stream(60)) {
        let n = MAX_VERTICES as usize;
        let mut with_paths = PathTracker::lifo(n);
        let mut plain = ReceiptOrderTracker::lifo(n);
        with_paths.process_all(&stream);
        plain.process_all(&stream);
        for i in 0..n {
            let v = VertexId::from(i);
            prop_assert!(with_paths.origins(v).approx_eq(&plain.origins(v)));
            for e in with_paths.elements(v) {
                prop_assert!(!e.path.is_empty());
                prop_assert_eq!(e.path[0], e.origin);
                // The current holder is never recorded inside the path's tail...
                // (the origin may equal the holder only transiently, never here
                // because self-loops are impossible).
                prop_assert!(*e.path.last().unwrap() != v);
            }
        }
    }

    /// Every factory tracker's O(1) `footprint()` equals the full per-vertex
    /// recount — `footprint()` asserts that itself in debug builds — after
    /// every interaction, after migration round trips between two replicas
    /// (as a cross-shard interaction makes them), after a checkpoint
    /// restore, and after epoch jumps that fire window resets.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the recount is a debug assertion")]
    fn footprint_counters_match_a_full_recount(stream in interaction_stream(60)) {
        let n = MAX_VERTICES as usize;
        for config in all_configs(n) {
            let mut home = build_tracker(&config, n).unwrap();
            let mut peer = build_tracker(&config, n).unwrap();
            let mut moved = 0.0f64;
            for (k, r) in stream.iter().enumerate() {
                if k % 2 == 0 {
                    home.process(r);
                } else {
                    // Both endpoints migrate to the peer, are processed
                    // there and migrate home again.
                    peer.sync_epoch(k, r.time.value());
                    for v in [r.src, r.dst] {
                        let state = home.take_vertex_state(v).unwrap();
                        home.footprint();
                        peer.put_vertex_state(v, state);
                        peer.footprint();
                    }
                    peer.process(r);
                    peer.footprint();
                    for v in [r.src, r.dst] {
                        let state = peer.take_vertex_state(v).unwrap();
                        peer.footprint();
                        home.put_vertex_state(v, state);
                        home.footprint();
                    }
                    home.sync_epoch(k + 1, r.time.value());
                }
                moved += r.qty;
                home.footprint();
            }
            let last_time = stream.last().map(|r| r.time.value());
            let cursor = StreamCursor {
                processed: stream.len(),
                last_time,
                total_quantity: moved,
                newborn_quantity: 0.0,
                peak_footprint_bytes: 0,
            };
            let checkpoint = Checkpoint::capture(&config, cursor, home.as_mut()).unwrap();
            home.footprint();
            let mut restored = build_tracker(&config, n).unwrap();
            restored.sync_epoch(stream.len(), last_time.unwrap_or(0.0));
            checkpoint.restore_into(restored.as_mut()).unwrap();
            let footprint = restored.footprint();
            prop_assert_eq!(footprint.paths_bytes > 0, home.footprint().paths_bytes > 0);
            // Jump several windows ahead: every list of a family resets.
            restored.sync_epoch(stream.len() + 23, last_time.unwrap_or(0.0) + 40.0);
            restored.footprint();
        }
    }

    /// The heap buffer preserves quantity under arbitrary push/take sequences.
    #[test]
    fn heap_buffer_conserves_quantity(
        ops in prop::collection::vec((0u32..5, 0.0f64..10.0, 1.0f64..50.0, prop::bool::ANY), 1..80)
    ) {
        use tin::core::buffer::heap_buffer::{HeapBuffer, HeapKind};
        use tin::core::buffer::Triple;
        let mut buf = HeapBuffer::new(HeapKind::LeastRecentlyBorn);
        let mut pushed = 0.0f64;
        let mut taken = 0.0f64;
        for (origin, qty, birth, is_take) in ops {
            if is_take {
                taken += buf.take(qty, |_| {});
            } else if qty > 0.0 {
                buf.push(Triple::new(origin, birth, qty));
                pushed += qty;
            }
        }
        prop_assert!((pushed - taken - buf.total()).abs() < 1e-6);
    }
}
