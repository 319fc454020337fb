//! Cross-policy and cross-crate integration tests on synthetic datasets:
//! conservation laws, equivalences between tracker variants, and the accuracy
//! guarantees of the scope-limiting techniques.

use tin::prelude::*;

fn dataset(kind: DatasetKind) -> (usize, Vec<Interaction>) {
    let spec = DatasetSpec::new(kind, ScaleProfile::Tiny);
    (spec.num_vertices(), tin::datasets::generate(&spec))
}

/// Every policy conserves quantity: total buffered across all vertices equals
/// the total newborn quantity measured by the baseline.
#[test]
fn conservation_across_policies_and_datasets() {
    for kind in [
        DatasetKind::Taxis,
        DatasetKind::Flights,
        DatasetKind::ProsperLoans,
    ] {
        let (n, rs) = dataset(kind);
        let mut baseline = NoProvTracker::new(n);
        baseline.process_all(&rs);
        let generated: f64 = baseline.generated_per_vertex().iter().sum();
        for policy in SelectionPolicy::all() {
            let mut t = build_tracker(&PolicyConfig::Plain(policy), n).unwrap();
            t.process_all(&rs);
            let buffered = t.total_buffered();
            assert!(
                (buffered - generated).abs() < 1e-6 * generated.max(1.0),
                "{kind}/{policy}: buffered {buffered} vs generated {generated}"
            );
        }
    }
}

/// Dense and sparse proportional tracking are two representations of the same
/// mathematical model and must produce identical origin sets on real-shaped
/// workloads.
#[test]
fn dense_and_sparse_proportional_agree() {
    let (n, rs) = dataset(DatasetKind::Taxis);
    let mut dense = ProportionalDenseTracker::new(n);
    let mut sparse = ProportionalSparseTracker::new(n);
    dense.process_all(&rs);
    sparse.process_all(&rs);
    for i in 0..n {
        let v = VertexId::from(i);
        assert!(
            dense.origins(v).approx_eq(&sparse.origins(v)),
            "origin mismatch at {v}"
        );
    }
}

/// Selective tracking with the full vertex set degenerates to exact
/// proportional tracking; with a strict subset the tracked origins still get
/// their exact quantities and the rest is aggregated.
#[test]
fn selective_tracking_is_consistent_with_exact() {
    let (n, rs) = dataset(DatasetKind::Taxis);
    let mut exact = ProportionalDenseTracker::new(n);
    exact.process_all(&rs);

    // Track the top-5 generators, as in Section 7.3.
    let mut baseline = NoProvTracker::new(n);
    baseline.process_all(&rs);
    let tracked = baseline.top_k_generators(5);
    let mut selective = ProportionalDenseTracker::selective(n, tracked.clone()).unwrap();
    selective.process_all(&rs);

    for i in 0..n {
        let v = VertexId::from(i);
        let exact_origins = exact.origins(v);
        let sel_origins = selective.origins(v);
        // Tracked origins match exactly.
        for &tv in &tracked {
            assert!(
                (exact_origins.quantity_from_vertex(tv) - sel_origins.quantity_from_vertex(tv))
                    .abs()
                    < 1e-6,
                "tracked origin {tv} mismatch at {v}"
            );
        }
        // The "other" bucket holds exactly the rest.
        let exact_rest: f64 = exact_origins
            .iter()
            .filter(|(o, _)| o.as_vertex().map(|x| !tracked.contains(&x)).unwrap_or(true))
            .map(|(_, q)| q)
            .sum();
        assert!(
            (sel_origins.quantity_from(Origin::Untracked) - exact_rest).abs() < 1e-6,
            "untracked bucket mismatch at {v}"
        );
    }
}

/// Grouped tracking aggregates exactly the per-vertex proportional provenance
/// of the group members.
#[test]
fn grouped_tracking_aggregates_exact_provenance() {
    let (n, rs) = dataset(DatasetKind::Taxis);
    let grouping = tin::analytics::grouping::round_robin(n, 4).unwrap();
    let mut grouped = build_tracker(&grouping.to_policy(), n).unwrap();
    let mut exact = ProportionalDenseTracker::new(n);
    grouped.process_all(&rs);
    exact.process_all(&rs);
    for i in 0..n {
        let v = VertexId::from(i);
        let g_origins = grouped.origins(v);
        let e_origins = exact.origins(v);
        for g in 0..4u32 {
            let expected: f64 = e_origins
                .iter()
                .filter(|(o, _)| {
                    o.as_vertex()
                        .map(|x| grouping.group_of(x) == g)
                        .unwrap_or(false)
                })
                .map(|(_, q)| q)
                .sum();
            let got = g_origins.quantity_from(Origin::Group(GroupId::new(g)));
            assert!(
                (expected - got).abs() < 1e-6,
                "group {g} at {v}: exact {expected} vs grouped {got}"
            );
        }
    }
}

/// The windowing technique never loses quantity: the α entry absorbs exactly
/// what was forgotten, and recently generated quantities keep exact
/// provenance.
#[test]
fn windowed_tracking_accuracy() {
    let (n, rs) = dataset(DatasetKind::Taxis);
    let window = rs.len() / 4;
    let mut windowed = WindowedTracker::new(n, window).unwrap();
    let mut exact = ProportionalSparseTracker::new(n);
    windowed.process_all(&rs);
    exact.process_all(&rs);
    let mut known_total = 0.0;
    let mut buffered_total = 0.0;
    for i in 0..n {
        let v = VertexId::from(i);
        assert!((windowed.buffered(v) - exact.buffered(v)).abs() < 1e-6);
        let wo = windowed.origins(v);
        assert!((wo.total() - windowed.buffered(v)).abs() < 1e-6);
        // Every concretely attributed quantity must not exceed the exact one.
        let eo = exact.origins(v);
        for (o, q) in wo.iter() {
            if let Some(vertex) = o.as_vertex() {
                assert!(
                    q <= eo.quantity_from_vertex(vertex) + 1e-6,
                    "windowed over-attributes {o} at {v}"
                );
            }
        }
        known_total += wo.total() - wo.quantity_from(Origin::Unknown);
        buffered_total += windowed.buffered(v);
    }
    // Some provenance is retained overall.
    assert!(known_total > 0.0);
    assert!(known_total <= buffered_total + 1e-6);
}

/// The budget technique: concrete attributions never exceed the exact ones,
/// and the α entry absorbs the difference. Larger budgets retain at least as
/// much concrete provenance as smaller ones (globally).
#[test]
fn budget_tracking_accuracy_improves_with_capacity() {
    let (n, rs) = dataset(DatasetKind::Taxis);
    let mut exact = ProportionalSparseTracker::new(n);
    exact.process_all(&rs);

    let mut known_by_capacity = Vec::new();
    for capacity in [2usize, 8, 64] {
        let mut budget = BudgetTracker::new(n, capacity, 0.7).unwrap();
        budget.process_all(&rs);
        let mut known = 0.0;
        for i in 0..n {
            let v = VertexId::from(i);
            assert!((budget.buffered(v) - exact.buffered(v)).abs() < 1e-6);
            let bo = budget.origins(v);
            let eo = exact.origins(v);
            for (o, q) in bo.iter() {
                if let Some(vertex) = o.as_vertex() {
                    assert!(
                        q <= eo.quantity_from_vertex(vertex) + 1e-6,
                        "budget over-attributes {o} at {v}"
                    );
                    known += q;
                }
            }
        }
        known_by_capacity.push(known);
    }
    assert!(
        known_by_capacity[0] <= known_by_capacity[1] + 1e-6
            && known_by_capacity[1] <= known_by_capacity[2] + 1e-6,
        "concrete provenance should not decrease with capacity: {known_by_capacity:?}"
    );
}

/// Path tracking adds routes without changing provenance, on a realistic
/// workload.
#[test]
fn path_tracking_is_provenance_preserving() {
    let (n, rs) = dataset(DatasetKind::Flights);
    let mut with_paths = PathTracker::lifo(n);
    let mut plain = ReceiptOrderTracker::lifo(n);
    with_paths.process_all(&rs);
    plain.process_all(&rs);
    for i in 0..n {
        let v = VertexId::from(i);
        assert!(with_paths.origins(v).approx_eq(&plain.origins(v)));
    }
    // Flights-style workloads produce long paths (Table 10's outlier row).
    let stats = tin::analytics::path_statistics(&with_paths);
    assert!(stats.avg_path_length > 1.0);
    assert!(stats.paths_bytes > 0);
}

/// CSV round trip through the datasets crate preserves every interaction and
/// therefore the provenance results.
#[test]
fn csv_roundtrip_preserves_provenance() {
    let (n, rs) = dataset(DatasetKind::Taxis);
    let path = std::env::temp_dir().join(format!("tin_roundtrip_{}.csv", std::process::id()));
    tin::datasets::io::write_csv_file(&path, &rs).unwrap();
    let loaded = tin::datasets::io::read_csv_file(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(rs.len(), loaded.len());

    let mut a = ReceiptOrderTracker::fifo(n);
    let mut b = ReceiptOrderTracker::fifo(n);
    a.process_all(&rs);
    b.process_all(&loaded);
    for i in 0..n {
        let v = VertexId::from(i);
        assert!(a.origins(v).approx_eq(&b.origins(v)));
    }
}
