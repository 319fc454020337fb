//! Budget-based proportional provenance (Section 5.3.2).
//!
//! Each vertex is allocated a maximum capacity `C` for its sparse provenance
//! list `p_v`. Whenever an update would leave more than `C` entries, the list
//! is *shrunk*: only a fraction `f` of the budget (`⌊f·C⌋` entries) survives,
//! chosen by a configurable criterion, and the removed entries' total quantity
//! is attributed to the artificial vertex α. Space becomes `O(|V|·C)` at the
//! cost of some provenance information loss, which the paper quantifies with
//! the shrink statistics of Table 9.

use std::collections::BTreeSet;

use crate::error::{Result, TinError};
use crate::ids::{Origin, VertexId};
use crate::interaction::Interaction;
use crate::memory::{total_footprint, FootprintBreakdown, MemoryFootprint, SpikeMonitor};
use crate::origins::OriginSet;
use crate::policy::ShrinkCriterion;
use crate::quantity::{qty_is_zero, Quantity};
use crate::sparse_vec::{MergeScratch, SparseProvenance};
use crate::tracker::{
    move_totals, relay_sparse, replace_counted, split_src_dst, MigratableTracker, ProvenanceTracker,
};

/// Per-vertex state moved by the shard protocol: the provenance list, the
/// scalar total, and the vertex's shrink counter.
pub struct TakenState {
    vec: SparseProvenance,
    total: Quantity,
    shrinks: u32,
}

/// Aggregate shrink statistics, mirroring Table 9 of the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShrinkStats {
    /// Average number of shrinks per vertex with a non-empty buffer
    /// ("avg. shrinks" column).
    pub avg_shrinks_per_nonempty_vertex: f64,
    /// Percentage (0–100) of vertices with a non-empty buffer whose list was
    /// shrunk at least once ("% vertices" column).
    pub pct_vertices_shrunk: f64,
    /// Total number of shrink operations performed.
    pub total_shrinks: u64,
    /// Number of vertices with a non-empty buffer.
    pub nonempty_vertices: usize,
}

/// Proportional provenance with a per-vertex budget of `C` list entries.
#[derive(Clone, Debug)]
pub struct BudgetTracker {
    capacity: usize,
    keep: usize,
    criterion: ShrinkCriterion,
    important: BTreeSet<Origin>,
    vectors: Vec<SparseProvenance>,
    totals: Vec<Quantity>,
    shrinks: Vec<u32>,
    scratch: MergeScratch,
    /// Running sum of the lists' footprints (see
    /// [`ProvenanceTracker::footprint`]); the spike monitor reads it too.
    entries_bytes: usize,
    processed: usize,
    monitor: Option<SpikeMonitor>,
}

impl BudgetTracker {
    /// Create a tracker with budget `capacity` and keep fraction
    /// `keep_fraction` (the paper suggests 0.6–0.8) under the default
    /// keep-largest criterion.
    pub fn new(num_vertices: usize, capacity: usize, keep_fraction: f64) -> Result<Self> {
        Self::with_criterion(
            num_vertices,
            capacity,
            keep_fraction,
            ShrinkCriterion::KeepLargest,
            Vec::new(),
        )
    }

    /// Create a tracker with an explicit shrink criterion. `important` lists
    /// the origin vertices that survive shrinking under
    /// [`ShrinkCriterion::KeepImportant`].
    pub fn with_criterion(
        num_vertices: usize,
        capacity: usize,
        keep_fraction: f64,
        criterion: ShrinkCriterion,
        important: Vec<VertexId>,
    ) -> Result<Self> {
        if capacity == 0 {
            return Err(TinError::InvalidConfig(
                "provenance budget C must be at least 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&keep_fraction) || keep_fraction <= 0.0 {
            return Err(TinError::InvalidConfig(format!(
                "keep fraction f must be in (0, 1], got {keep_fraction}"
            )));
        }
        let keep = ((capacity as f64 * keep_fraction).floor() as usize).max(1);
        Ok(BudgetTracker {
            capacity,
            keep,
            criterion,
            important: important.into_iter().map(Origin::Vertex).collect(),
            vectors: (0..num_vertices).map(|_| SparseProvenance::new()).collect(),
            totals: vec![0.0; num_vertices],
            shrinks: vec![0; num_vertices],
            scratch: MergeScratch::new(),
            entries_bytes: 0,
            processed: 0,
            monitor: None,
        })
    }

    /// The budget C.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of entries kept after a shrink (`⌊f·C⌋`).
    pub fn keep_count(&self) -> usize {
        self.keep
    }

    /// Per-vertex shrink counters.
    pub fn shrinks_per_vertex(&self) -> &[u32] {
        &self.shrinks
    }

    /// Aggregate shrink statistics over vertices with non-empty buffers
    /// (Table 9).
    pub fn shrink_stats(&self) -> ShrinkStats {
        let mut nonempty = 0usize;
        let mut shrunk_at_least_once = 0usize;
        let mut shrinks_on_nonempty = 0u64;
        for (i, total) in self.totals.iter().enumerate() {
            if !qty_is_zero(*total) {
                nonempty += 1;
                shrinks_on_nonempty += u64::from(self.shrinks[i]);
                if self.shrinks[i] > 0 {
                    shrunk_at_least_once += 1;
                }
            }
        }
        let total_shrinks: u64 = self.shrinks.iter().map(|&x| u64::from(x)).sum();
        ShrinkStats {
            avg_shrinks_per_nonempty_vertex: if nonempty == 0 {
                0.0
            } else {
                shrinks_on_nonempty as f64 / nonempty as f64
            },
            pct_vertices_shrunk: if nonempty == 0 {
                0.0
            } else {
                100.0 * shrunk_at_least_once as f64 / nonempty as f64
            },
            total_shrinks,
            nonempty_vertices: nonempty,
        }
    }

    /// Direct read access to the provenance list of `v`.
    pub fn vector(&self, v: VertexId) -> &SparseProvenance {
        &self.vectors[v.index()]
    }

    /// Shrink the list of vertex `vertex_index` if it exceeds the budget.
    fn enforce_budget(&mut self, vertex_index: usize) {
        let vec = &mut self.vectors[vertex_index];
        if vec.len() <= self.capacity {
            return;
        }
        match self.criterion {
            ShrinkCriterion::KeepLargest => {
                vec.shrink_keep_largest_with(self.keep, &mut self.scratch);
            }
            ShrinkCriterion::KeepImportant => {
                // Keep important origins first (largest-quantity first within
                // the class), then fill up with the largest remaining entries.
                // Cold path: shrinks are rare relative to interactions, so
                // the allocating collect/rebuild is fine here.
                let mut entries: Vec<(Origin, Quantity)> = vec.iter().collect();
                entries.sort_by(|a, b| {
                    let a_imp = self.important.contains(&a.0) || a.0 == Origin::Unknown;
                    let b_imp = self.important.contains(&b.0) || b.0 == Origin::Unknown;
                    b_imp
                        .cmp(&a_imp)
                        .then(b.1.total_cmp(&a.1))
                        .then(a.0.cmp(&b.0))
                });
                let (kept, removed) = entries.split_at(self.keep.min(entries.len()));
                let removed_total: Quantity = removed.iter().map(|(_, q)| *q).sum();
                let mut rebuilt: SparseProvenance = kept.iter().copied().collect();
                if !qty_is_zero(removed_total) {
                    rebuilt.add(Origin::Unknown, removed_total);
                }
                *vec = rebuilt;
            }
        }
        self.shrinks[vertex_index] += 1;
    }
}

impl ProvenanceTracker for BudgetTracker {
    fn name(&self) -> &'static str {
        "Budget-based proportional"
    }

    fn num_vertices(&self) -> usize {
        self.totals.len()
    }

    fn process(&mut self, r: &Interaction) {
        let s = r.src.index();
        let d = r.dst.index();
        debug_assert_ne!(s, d, "self-loops are rejected at stream validation");
        let before = self.vectors[s].footprint_bytes() + self.vectors[d].footprint_bytes();

        let (src_vec, dst_vec) = split_src_dst(&mut self.vectors, s, d);
        let src_left = relay_sparse(src_vec, dst_vec, r, self.totals[s]);
        move_totals(&mut self.totals, r, src_left);
        // Only the destination list can have grown beyond the budget.
        self.enforce_budget(d);
        self.entries_bytes = self.entries_bytes - before
            + self.vectors[s].footprint_bytes()
            + self.vectors[d].footprint_bytes();
        self.processed += 1;
    }

    fn buffered(&self, v: VertexId) -> Quantity {
        self.totals[v.index()]
    }

    fn origins(&self, v: VertexId) -> OriginSet {
        self.vectors[v.index()].to_origin_set()
    }

    fn footprint(&self) -> FootprintBreakdown {
        debug_assert_eq!(self.entries_bytes, total_footprint(&self.vectors));
        FootprintBreakdown {
            entries_bytes: self.entries_bytes,
            paths_bytes: 0,
            index_bytes: crate::memory::vec_bytes(&self.totals)
                + crate::memory::vec_bytes(&self.shrinks)
                + std::mem::size_of::<SparseProvenance>() * self.vectors.capacity()
                + self.scratch.footprint_bytes(),
        }
    }

    fn interactions_processed(&self) -> usize {
        self.processed
    }

    crate::impl_migration_hooks!();
    crate::impl_spike_monitor_hooks!();
}

impl MigratableTracker for BudgetTracker {
    type Taken = TakenState;

    fn extract(&mut self, v: VertexId) -> TakenState {
        let i = v.index();
        let hollow = SparseProvenance::new();
        TakenState {
            vec: replace_counted(&mut self.entries_bytes, &mut self.vectors[i], hollow),
            total: std::mem::take(&mut self.totals[i]),
            shrinks: std::mem::take(&mut self.shrinks[i]),
        }
    }

    fn install(&mut self, v: VertexId, taken: TakenState) {
        let i = v.index();
        replace_counted(&mut self.entries_bytes, &mut self.vectors[i], taken.vec);
        self.totals[i] = taken.total;
        self.shrinks[i] = taken.shrinks;
    }

    fn encode_taken(taken: &TakenState, out: &mut Vec<u8>) {
        taken.vec.encode_tagged_into(out);
        crate::codec::put_f64(out, taken.total);
        crate::codec::put_u32(out, taken.shrinks);
    }

    fn decode_taken(&self, r: &mut crate::codec::ByteReader<'_>) -> Result<TakenState> {
        Ok(TakenState {
            vec: SparseProvenance::decode_tagged_from(r)?,
            total: r.f64()?,
            shrinks: r.u32()?,
        })
    }

    fn counted_bytes(&self) -> usize {
        self.entries_bytes
    }

    fn monitor_store(&mut self) -> Option<&mut Option<SpikeMonitor>> {
        Some(&mut self.monitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::paper_running_example;
    use crate::quantity::qty_approx_eq;
    use crate::tracker::proportional_sparse::ProportionalSparseTracker;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(BudgetTracker::new(3, 0, 0.7).is_err());
        assert!(BudgetTracker::new(3, 10, 0.0).is_err());
        assert!(BudgetTracker::new(3, 10, 1.5).is_err());
    }

    #[test]
    fn keep_count_is_floor_of_fraction() {
        let t = BudgetTracker::new(3, 10, 0.65).unwrap();
        assert_eq!(t.capacity(), 10);
        assert_eq!(t.keep_count(), 6);
        // Tiny budgets keep at least one entry.
        assert_eq!(BudgetTracker::new(3, 1, 0.5).unwrap().keep_count(), 1);
    }

    #[test]
    fn large_budget_matches_exact_proportional() {
        let mut budget = BudgetTracker::new(3, 100, 0.7).unwrap();
        let mut exact = ProportionalSparseTracker::new(3);
        for r in paper_running_example() {
            budget.process(&r);
            exact.process(&r);
        }
        assert_eq!(budget.shrink_stats().total_shrinks, 0);
        for i in 0..3u32 {
            assert!(qty_approx_eq(budget.buffered(v(i)), exact.buffered(v(i))));
            assert!(budget.origins(v(i)).approx_eq(&exact.origins(v(i))));
        }
    }

    #[test]
    fn totals_unaffected_by_shrinking() {
        use crate::tracker::no_prov::NoProvTracker;
        let mut budget = BudgetTracker::new(3, 1, 1.0).unwrap();
        let mut baseline = NoProvTracker::new(3);
        for r in paper_running_example() {
            budget.process(&r);
            baseline.process(&r);
            for i in 0..3u32 {
                assert!(qty_approx_eq(
                    budget.buffered(v(i)),
                    baseline.buffered(v(i))
                ));
            }
            assert!(budget.check_all_invariants());
        }
    }

    #[test]
    fn shrinking_caps_list_length() {
        // Feed one hub from many distinct generators; the hub's list must
        // never exceed C (+1 for the α entry right after a shrink fold).
        let c = 5;
        let mut t = BudgetTracker::new(50, c, 0.6).unwrap();
        for i in 1..50u32 {
            t.process(&Interaction::new(i, 0u32, i as f64, 1.0));
            assert!(
                t.vector(v(0)).len() <= c + 1,
                "list length {} exceeded budget {}",
                t.vector(v(0)).len(),
                c
            );
        }
        let stats = t.shrink_stats();
        assert!(stats.total_shrinks > 0);
        assert!(stats.pct_vertices_shrunk > 0.0);
        // Shrunk provenance shows up as α.
        assert!(t.origins(v(0)).quantity_from(Origin::Unknown) > 0.0);
        assert!(t.check_all_invariants());
    }

    #[test]
    fn keep_largest_retains_dominant_origins() {
        let mut t = BudgetTracker::new(10, 3, 0.67).unwrap();
        // Origin 1 contributes a large quantity, origins 2..=6 small ones.
        t.process(&Interaction::new(1u32, 0u32, 1.0, 100.0));
        for i in 2..=6u32 {
            t.process(&Interaction::new(i, 0u32, i as f64, 1.0));
        }
        let o = t.origins(v(0));
        assert!(o.quantity_from_vertex(v(1)) >= 100.0 - 1e-6);
        assert!(o.quantity_from(Origin::Unknown) > 0.0);
    }

    #[test]
    fn keep_important_retains_designated_origins() {
        let mut t =
            BudgetTracker::with_criterion(10, 3, 0.67, ShrinkCriterion::KeepImportant, vec![v(5)])
                .unwrap();
        // v5 contributes a *small* quantity early; larger quantities follow.
        t.process(&Interaction::new(5u32, 0u32, 1.0, 0.5));
        for i in 1..5u32 {
            t.process(&Interaction::new(i, 0u32, 1.0 + i as f64, 10.0 * i as f64));
        }
        let o = t.origins(v(0));
        // The important origin survives shrinking despite its small quantity.
        assert!(qty_approx_eq(o.quantity_from_vertex(v(5)), 0.5));
        assert!(t.shrink_stats().total_shrinks > 0);
    }

    #[test]
    fn shrink_stats_shape() {
        let mut t = BudgetTracker::new(4, 1, 1.0).unwrap();
        t.process_all(&paper_running_example());
        let stats = t.shrink_stats();
        assert!(stats.nonempty_vertices > 0);
        assert!(stats.pct_vertices_shrunk >= 0.0 && stats.pct_vertices_shrunk <= 100.0);
        assert!(stats.avg_shrinks_per_nonempty_vertex >= 0.0);
        // Empty tracker -> zeroed stats.
        let empty = BudgetTracker::new(4, 1, 1.0).unwrap();
        assert_eq!(empty.shrink_stats(), ShrinkStats::default());
    }

    #[test]
    fn larger_budget_means_fewer_shrinks() {
        let rs: Vec<Interaction> = (1..40u32)
            .map(|i| Interaction::new(i, 0u32, i as f64, 1.0))
            .collect();
        let mut tight = BudgetTracker::new(40, 4, 0.7).unwrap();
        let mut loose = BudgetTracker::new(40, 20, 0.7).unwrap();
        tight.process_all(&rs);
        loose.process_all(&rs);
        assert!(tight.shrink_stats().total_shrinks > loose.shrink_stats().total_shrinks);
    }

    #[test]
    fn footprint_bounded_by_budget() {
        let rs: Vec<Interaction> = (1..100u32)
            .map(|i| Interaction::new(i, 0u32, i as f64, 1.0))
            .collect();
        let mut tight = BudgetTracker::new(100, 4, 0.7).unwrap();
        let mut exact = ProportionalSparseTracker::new(100);
        tight.process_all(&rs);
        exact.process_all(&rs);
        assert!(tight.footprint().entries_bytes < exact.footprint().entries_bytes);
    }

    #[test]
    fn name() {
        assert_eq!(
            BudgetTracker::new(1, 1, 1.0).unwrap().name(),
            "Budget-based proportional"
        );
    }
}
