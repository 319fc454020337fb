//! Proportional selection with sparse (ordered-list) provenance vectors
//! (Section 4.3, "Sparse vector representations").
//!
//! Semantically identical to [`super::proportional_dense`], but each vector
//! `p_v` is stored as an ordered list of `(origin, quantity)` pairs with only
//! the non-zero components. Space drops from `O(|V|²)` to `O(|V|·ℓ)` where ℓ
//! is the average list length, and each interaction costs `O(ℓ)` list-merge
//! work — which, as Figure 6 of the paper shows, still grows superlinearly
//! over long streams because the lists keep getting longer.
//!
//! The tracker stores [`SparseProvenance`] lists directly: merges happen in
//! place on the destination lists (allocating only when they add origins)
//! and full relays into empty vertices are O(1) buffer swaps.

use crate::ids::VertexId;
use crate::interaction::Interaction;
use crate::memory::{total_footprint, FootprintBreakdown, MemoryFootprint, SpikeMonitor};
use crate::origins::OriginSet;
use crate::quantity::Quantity;
use crate::sparse_vec::SparseProvenance;
use crate::tracker::{
    move_totals, relay_sparse, replace_counted, split_src_dst, MigratableTracker, ProvenanceTracker,
};

/// Per-vertex state moved by the shard protocol: the provenance list (its
/// packed SoA buffers move wholesale) plus the scalar total.
pub struct TakenState {
    vec: SparseProvenance,
    total: Quantity,
}

/// Proportional provenance with sparse list representations.
#[derive(Clone, Debug)]
pub struct ProportionalSparseTracker {
    vectors: Vec<SparseProvenance>,
    totals: Vec<Quantity>,
    /// Running sum of the lists' footprints (see
    /// [`ProvenanceTracker::footprint`]); the spike monitor reads it too.
    entries_bytes: usize,
    processed: usize,
    monitor: Option<SpikeMonitor>,
}

impl ProportionalSparseTracker {
    /// Create a tracker for `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        ProportionalSparseTracker {
            vectors: (0..num_vertices).map(|_| SparseProvenance::new()).collect(),
            totals: vec![0.0; num_vertices],
            entries_bytes: 0,
            processed: 0,
            monitor: None,
        }
    }

    /// Direct read access to the provenance vector of `v`.
    pub fn vector(&self, v: VertexId) -> &SparseProvenance {
        &self.vectors[v.index()]
    }

    /// Average provenance-list length ℓ over vertices with non-empty lists.
    pub fn average_list_length(&self) -> f64 {
        let mut count = 0usize;
        let mut sum = 0usize;
        for p in &self.vectors {
            let l = p.len();
            if l > 0 {
                count += 1;
                sum += l;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Total number of provenance entries across all lists.
    pub fn total_entries(&self) -> usize {
        self.vectors.iter().map(|p| p.len()).sum()
    }
}

impl ProvenanceTracker for ProportionalSparseTracker {
    fn name(&self) -> &'static str {
        "Proportional (sparse)"
    }

    fn num_vertices(&self) -> usize {
        self.vectors.len()
    }

    fn process(&mut self, r: &Interaction) {
        let s = r.src.index();
        let d = r.dst.index();
        let (src_vec, dst_vec) = split_src_dst(&mut self.vectors, s, d);
        let before = src_vec.footprint_bytes() + dst_vec.footprint_bytes();
        let src_left = relay_sparse(src_vec, dst_vec, r, self.totals[s]);
        self.entries_bytes =
            self.entries_bytes - before + src_vec.footprint_bytes() + dst_vec.footprint_bytes();
        move_totals(&mut self.totals, r, src_left);
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
                + std::mem::size_of::<SparseProvenance>() * self.vectors.capacity(),
        }
    }

    fn interactions_processed(&self) -> usize {
        self.processed
    }

    crate::impl_migration_hooks!();
    crate::impl_spike_monitor_hooks!();
}

impl MigratableTracker for ProportionalSparseTracker {
    type Taken = TakenState;

    fn extract(&mut self, v: VertexId) -> TakenState {
        let i = v.index();
        let hollow = SparseProvenance::new();
        TakenState {
            vec: replace_counted(&mut self.entries_bytes, &mut self.vectors[i], hollow),
            total: std::mem::take(&mut self.totals[i]),
        }
    }

    fn install(&mut self, v: VertexId, taken: TakenState) {
        let i = v.index();
        replace_counted(&mut self.entries_bytes, &mut self.vectors[i], taken.vec);
        self.totals[i] = taken.total;
    }

    fn counted_bytes(&self) -> usize {
        self.entries_bytes
    }

    fn encode_taken(taken: &TakenState, out: &mut Vec<u8>) {
        taken.vec.encode_tagged_into(out);
        crate::codec::put_f64(out, taken.total);
    }

    fn decode_taken(&self, r: &mut crate::codec::ByteReader<'_>) -> crate::Result<TakenState> {
        Ok(TakenState {
            vec: SparseProvenance::decode_tagged_from(r)?,
            total: r.f64()?,
        })
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
    use crate::tracker::proportional_dense::ProportionalDenseTracker;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    /// The sparse tracker must produce exactly the same provenance as the
    /// dense tracker on the running example (they implement the same policy).
    #[test]
    fn matches_dense_on_running_example() {
        let mut sparse = ProportionalSparseTracker::new(3);
        let mut dense = ProportionalDenseTracker::new(3);
        for r in paper_running_example() {
            sparse.process(&r);
            dense.process(&r);
            for i in 0..3u32 {
                assert!(qty_approx_eq(sparse.buffered(v(i)), dense.buffered(v(i))));
                assert!(
                    sparse.origins(v(i)).approx_eq(&dense.origins(v(i))),
                    "origin mismatch at v{i} after {r:?}: {:?} vs {:?}",
                    sparse.origins(v(i)),
                    dense.origins(v(i))
                );
            }
        }
    }

    /// Final vector values of Table 5, read through the sparse representation.
    #[test]
    fn table5_final_state() {
        let mut t = ProportionalSparseTracker::new(3);
        t.process_all(&paper_running_example());
        let o0 = t.origins(v(0));
        assert!((o0.quantity_from_vertex(v(1)) - 2.03).abs() < 0.01);
        assert!((o0.quantity_from_vertex(v(2)) - 0.97).abs() < 0.01);
        let o2 = t.origins(v(2));
        assert!((o2.quantity_from_vertex(v(1)) - 3.31).abs() < 0.01);
        assert!((o2.quantity_from_vertex(v(2)) - 0.69).abs() < 0.01);
        assert!(t.check_all_invariants());
    }

    /// Sparse representation example from Section 4.3: after the first
    /// interaction, p_v2 is stored as the single pair (v1, 3).
    #[test]
    fn sparse_representation_is_compact() {
        let rs = paper_running_example();
        let mut t = ProportionalSparseTracker::new(3);
        t.process(&rs[0]);
        assert_eq!(t.vector(v(2)).len(), 1);
        assert!(qty_approx_eq(t.vector(v(2)).get_vertex(v(1)), 3.0));
        // Dense representation would store 3 slots; sparse stores 1 entry.
        assert_eq!(t.total_entries(), 1);
    }

    #[test]
    fn list_lengths_grow_with_mixing() {
        let mut t = ProportionalSparseTracker::new(4);
        // Three distinct generators feed vertex 3, so its list has 3 entries.
        t.process(&Interaction::new(0u32, 3u32, 1.0, 1.0));
        t.process(&Interaction::new(1u32, 3u32, 2.0, 1.0));
        t.process(&Interaction::new(2u32, 3u32, 3.0, 1.0));
        assert_eq!(t.vector(v(3)).len(), 3);
        assert!(qty_approx_eq(t.average_list_length(), 3.0));
        // A partial transfer to vertex 0 propagates all three origins.
        t.process(&Interaction::new(3u32, 0u32, 4.0, 1.5));
        assert_eq!(t.vector(v(0)).len(), 3);
        assert_eq!(t.vector(v(3)).len(), 3);
        assert!(t.check_all_invariants());
    }

    #[test]
    fn average_list_length_empty_tracker() {
        let t = ProportionalSparseTracker::new(5);
        assert_eq!(t.average_list_length(), 0.0);
        assert_eq!(t.total_entries(), 0);
    }

    #[test]
    fn totals_match_noprov() {
        use crate::tracker::no_prov::NoProvTracker;
        let mut a = ProportionalSparseTracker::new(3);
        let mut b = NoProvTracker::new(3);
        for r in paper_running_example() {
            a.process(&r);
            b.process(&r);
        }
        for i in 0..3u32 {
            assert!(qty_approx_eq(a.buffered(v(i)), b.buffered(v(i))));
        }
    }

    #[test]
    fn footprint_tracks_entries() {
        let mut t = ProportionalSparseTracker::new(3);
        let before = t.footprint().entries_bytes;
        t.process_all(&paper_running_example());
        assert!(t.footprint().entries_bytes > before);
        assert_eq!(t.footprint().paths_bytes, 0);
    }

    #[test]
    fn name() {
        assert_eq!(
            ProportionalSparseTracker::new(1).name(),
            "Proportional (sparse)"
        );
    }
}
