//! Selective proportional provenance tracking (Section 5.1).
//!
//! Instead of tracking provenance from every vertex, only a designated subset
//! of `k` vertices of interest is tracked. Every vertex keeps a `(k+1)`-length
//! vector: the first `k` slots correspond to the tracked vertices and the
//! last slot accumulates quantity generated by *any other* vertex. Space
//! drops to `O(k·|V|)` and each interaction costs `O(k)`.

use std::collections::HashMap;

use crate::dense_vec::DenseProvenance;
use crate::error::{Result, TinError};
use crate::ids::{Origin, VertexId};
use crate::interaction::Interaction;
use crate::memory::{total_footprint, FootprintBreakdown};
use crate::origins::OriginSet;
use crate::quantity::{qty_clamp_non_negative, qty_ge, Quantity};
use crate::tracker::{replace_counted, split_src_dst, MigratableTracker, ProvenanceTracker};

/// Per-vertex state moved by the shard protocol: the `(k+1)`-slot vector
/// plus the scalar total.
pub struct TakenState {
    row: DenseProvenance,
    total: Quantity,
}

/// Proportional provenance restricted to `k` tracked vertices plus an
/// "everything else" slot.
#[derive(Clone, Debug)]
pub struct SelectiveTracker {
    /// The tracked vertices, in slot order.
    tracked: Vec<VertexId>,
    /// Vertex → slot index for tracked vertices.
    slot_of: HashMap<VertexId, usize>,
    /// Per-vertex provenance vectors of length k+1.
    vectors: Vec<DenseProvenance>,
    totals: Vec<Quantity>,
    /// Running sum of the rows' footprints (see
    /// [`ProvenanceTracker::footprint`]). Rows never change capacity in
    /// `process`, so only `extract`/`install` move it.
    entries_bytes: usize,
    processed: usize,
}

impl SelectiveTracker {
    /// Create a tracker over `num_vertices` vertices that tracks provenance
    /// only from `tracked` (the k vertices of interest).
    ///
    /// # Errors
    /// Returns an error if `tracked` is empty, contains duplicates, or
    /// references vertices outside `0..num_vertices`.
    pub fn new(num_vertices: usize, tracked: Vec<VertexId>) -> Result<Self> {
        if tracked.is_empty() {
            return Err(TinError::InvalidConfig(
                "selective tracking needs at least one tracked vertex".into(),
            ));
        }
        let mut slot_of = HashMap::with_capacity(tracked.len());
        for (slot, &v) in tracked.iter().enumerate() {
            if v.index() >= num_vertices {
                return Err(TinError::UnknownVertex {
                    vertex: v,
                    num_vertices,
                });
            }
            if slot_of.insert(v, slot).is_some() {
                return Err(TinError::InvalidConfig(format!(
                    "vertex {v} appears twice in the tracked set"
                )));
            }
        }
        let dim = tracked.len() + 1;
        let vectors: Vec<DenseProvenance> = (0..num_vertices)
            .map(|_| DenseProvenance::zeros(dim))
            .collect();
        Ok(SelectiveTracker {
            tracked,
            slot_of,
            entries_bytes: total_footprint(&vectors),
            vectors,
            totals: vec![0.0; num_vertices],
            processed: 0,
        })
    }

    /// Number of tracked vertices k.
    pub fn k(&self) -> usize {
        self.tracked.len()
    }

    /// The tracked vertices in slot order.
    pub fn tracked(&self) -> &[VertexId] {
        &self.tracked
    }

    /// Slot index for a generated quantity's origin: its own slot if tracked,
    /// otherwise the last ("other") slot.
    fn origin_slot(&self, v: VertexId) -> usize {
        self.slot_of.get(&v).copied().unwrap_or(self.tracked.len())
    }
}

impl ProvenanceTracker for SelectiveTracker {
    fn name(&self) -> &'static str {
        "Selective proportional"
    }

    fn num_vertices(&self) -> usize {
        self.vectors.len()
    }

    fn process(&mut self, r: &Interaction) {
        let s = r.src.index();
        let d = r.dst.index();
        debug_assert_ne!(s, d, "self-loops are rejected at stream validation");
        let newborn_slot = self.origin_slot(r.src);

        let (src_vec, dst_vec) = split_src_dst(&mut self.vectors, s, d);

        let src_total = self.totals[s];
        if qty_ge(r.qty, src_total) {
            src_vec.drain_into(dst_vec);
            let newborn = qty_clamp_non_negative(r.qty - src_total);
            if newborn > 0.0 {
                dst_vec.add_at(newborn_slot, newborn);
            }
            self.totals[d] += r.qty;
            self.totals[s] = 0.0;
        } else {
            let factor = r.qty / src_total;
            src_vec.transfer_fraction(dst_vec, factor);
            self.totals[d] += r.qty;
            self.totals[s] = qty_clamp_non_negative(src_total - r.qty);
        }
        self.processed += 1;
    }

    fn buffered(&self, v: VertexId) -> Quantity {
        self.totals[v.index()]
    }

    fn origins(&self, v: VertexId) -> OriginSet {
        let vec = &self.vectors[v.index()];
        let k = self.tracked.len();
        OriginSet::from_pairs(vec.nonzero().map(|(slot, q)| {
            if slot < k {
                (Origin::Vertex(self.tracked[slot]), q)
            } else {
                (Origin::Untracked, q)
            }
        }))
    }

    fn footprint(&self) -> FootprintBreakdown {
        debug_assert_eq!(self.entries_bytes, total_footprint(&self.vectors));
        FootprintBreakdown {
            entries_bytes: self.entries_bytes,
            paths_bytes: 0,
            index_bytes: crate::memory::vec_bytes(&self.totals)
                + self.slot_of.capacity()
                    * (std::mem::size_of::<VertexId>() + std::mem::size_of::<usize>()),
        }
    }

    fn interactions_processed(&self) -> usize {
        self.processed
    }

    crate::impl_migration_hooks!();
}

impl MigratableTracker for SelectiveTracker {
    type Taken = TakenState;

    fn extract(&mut self, v: VertexId) -> TakenState {
        let i = v.index();
        let hollow = DenseProvenance::zeros(0);
        TakenState {
            row: replace_counted(&mut self.entries_bytes, &mut self.vectors[i], hollow),
            total: std::mem::take(&mut self.totals[i]),
        }
    }

    fn install(&mut self, v: VertexId, taken: TakenState) {
        let i = v.index();
        replace_counted(&mut self.entries_bytes, &mut self.vectors[i], taken.row);
        self.totals[i] = taken.total;
    }

    fn counted_bytes(&self) -> usize {
        self.entries_bytes
    }

    fn encode_taken(taken: &TakenState, out: &mut Vec<u8>) {
        taken.row.encode_into(out);
        crate::codec::put_f64(out, taken.total);
    }

    fn decode_taken(r: &mut crate::codec::ByteReader<'_>) -> crate::error::Result<TakenState> {
        Ok(TakenState {
            row: DenseProvenance::decode_from(r)?,
            total: r.f64()?,
        })
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

    #[test]
    fn rejects_bad_configs() {
        assert!(SelectiveTracker::new(3, vec![]).is_err());
        assert!(SelectiveTracker::new(3, vec![v(5)]).is_err());
        assert!(SelectiveTracker::new(3, vec![v(1), v(1)]).is_err());
    }

    #[test]
    fn tracking_all_vertices_matches_full_proportional() {
        // With k = |V| the selective tracker degenerates to Algorithm 3.
        let mut selective = SelectiveTracker::new(3, vec![v(0), v(1), v(2)]).unwrap();
        let mut full = ProportionalDenseTracker::new(3);
        for r in paper_running_example() {
            selective.process(&r);
            full.process(&r);
        }
        for i in 0..3u32 {
            assert!(qty_approx_eq(selective.buffered(v(i)), full.buffered(v(i))));
            assert!(
                selective.origins(v(i)).approx_eq(&full.origins(v(i))),
                "mismatch at v{i}"
            );
        }
    }

    #[test]
    fn untracked_generation_goes_to_other_slot() {
        // Track only v1; v2's generated quantity must land in "other".
        let mut t = SelectiveTracker::new(3, vec![v(1)]).unwrap();
        t.process_all(&paper_running_example());
        // From Table 5: p_v0 = [0, 2.03, 0.97] -> tracked v1 share 2.03,
        // untracked share 0.97.
        let o = t.origins(v(0));
        assert!((o.quantity_from_vertex(v(1)) - 2.03).abs() < 0.01);
        assert!((o.quantity_from(Origin::Untracked) - 0.97).abs() < 0.01);
        assert!(qty_approx_eq(o.total(), t.buffered(v(0))));
        assert!(t.check_all_invariants());
    }

    #[test]
    fn tracked_fraction_is_exact_under_partial_tracking() {
        let mut t = SelectiveTracker::new(3, vec![v(2)]).unwrap();
        t.process_all(&paper_running_example());
        // Table 5 final state: v2 contributes 0.97 to v0, 0.34 to v1, 0.69 to v2.
        assert!((t.origins(v(0)).quantity_from_vertex(v(2)) - 0.97).abs() < 0.01);
        assert!((t.origins(v(1)).quantity_from_vertex(v(2)) - 0.34).abs() < 0.01);
        assert!((t.origins(v(2)).quantity_from_vertex(v(2)) - 0.69).abs() < 0.01);
    }

    #[test]
    fn totals_match_noprov() {
        use crate::tracker::no_prov::NoProvTracker;
        let mut a = SelectiveTracker::new(3, vec![v(0)]).unwrap();
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
    fn footprint_scales_with_k_not_v() {
        let small_k = SelectiveTracker::new(100, vec![v(0), v(1)]).unwrap();
        let big_k = SelectiveTracker::new(100, (0..50u32).map(VertexId::new).collect()).unwrap();
        let s = small_k.footprint().entries_bytes;
        let b = big_k.footprint().entries_bytes;
        assert_eq!(s, 100 * 3 * 8);
        assert_eq!(b, 100 * 51 * 8);
    }

    #[test]
    fn accessors() {
        let t = SelectiveTracker::new(5, vec![v(3), v(1)]).unwrap();
        assert_eq!(t.k(), 2);
        assert_eq!(t.tracked(), &[v(3), v(1)]);
        assert_eq!(t.name(), "Selective proportional");
        assert_eq!(t.num_vertices(), 5);
    }
}
