//! Proportional selection with dense provenance vectors
//! (Section 4.3, Algorithm 3), over all vertices, a tracked subset
//! (Section 5.1) or vertex groups (Section 5.2).
//!
//! Every vertex `v` carries a dense row `p_v` with one slot per origin; slot
//! `i` holds the quantity in `B_v` that originates from origin `i`. An
//! interaction either relays the whole source row (plus a newborn one-hot
//! component) or moves a proportional fraction of every slot. The origin
//! space is what the three scopes change:
//!
//! * **all vertices** ([`ProportionalDenseTracker::new`]): `|V|` slots, so
//!   space is `O(|V|²)` and each interaction costs `O(|V|)`, which is why
//!   the paper can only run this variant on the small-vertex-count datasets
//!   (Flights, Taxis);
//! * **selective** ([`ProportionalDenseTracker::selective`]): the `k` tracked
//!   vertices plus one slot for quantity generated by *any other* vertex,
//!   `O(k·|V|)` space and `O(k)` per interaction;
//! * **grouped** ([`ProportionalDenseTracker::grouped`]): one slot per group
//!   of a vertex partition (by attribute, geography or a graph clustering),
//!   `O(m·|V|)` space and `O(m)` per interaction.

use std::collections::HashMap;

use crate::dense_vec::DenseProvenance;
use crate::error::{Result, TinError};
use crate::ids::{GroupId, Origin, VertexId};
use crate::interaction::Interaction;
use crate::memory::{total_footprint, vec_bytes, FootprintBreakdown};
use crate::origins::OriginSet;
use crate::quantity::{qty_clamp_non_negative, qty_ge, Quantity};
use crate::tracker::{
    move_totals, replace_counted, split_src_dst, MigratableTracker, ProvenanceTracker,
};

/// Per-vertex state moved by the shard protocol: the dense row (its `Vec`
/// allocation moves wholesale) plus the scalar total.
pub struct TakenState {
    row: DenseProvenance,
    total: Quantity,
}

/// The origin space of the rows: which origin each slot stands for.
#[derive(Clone, Debug)]
enum OriginSlots {
    /// Slot `i` is vertex `i`.
    Vertices,
    /// Slot `j < k` is `tracked[j]`; slot `k` is every other vertex.
    Tracked {
        tracked: Vec<VertexId>,
        slot_of: HashMap<VertexId, usize>,
    },
    /// Slot `g` is group `g`; `group_of[v]` is the group of vertex `v`.
    Groups { group_of: Vec<u32> },
}

impl OriginSlots {
    /// The slot that quantity generated at `v` is born into.
    fn newborn_slot(&self, v: VertexId) -> usize {
        match self {
            OriginSlots::Vertices => v.index(),
            OriginSlots::Tracked { tracked, slot_of } => {
                slot_of.get(&v).copied().unwrap_or(tracked.len())
            }
            OriginSlots::Groups { group_of } => group_of[v.index()] as usize,
        }
    }

    /// The origin a slot stands for.
    fn origin(&self, slot: usize) -> Origin {
        match self {
            OriginSlots::Vertices => Origin::Vertex(VertexId::from(slot)),
            OriginSlots::Tracked { tracked, .. } => tracked
                .get(slot)
                .map_or(Origin::Untracked, |&v| Origin::Vertex(v)),
            OriginSlots::Groups { .. } => Origin::Group(GroupId::new(slot as u32)),
        }
    }

    /// Bytes of the vertex → slot index.
    fn index_bytes(&self) -> usize {
        match self {
            OriginSlots::Vertices => 0,
            OriginSlots::Tracked { slot_of, .. } => {
                slot_of.capacity()
                    * (std::mem::size_of::<VertexId>() + std::mem::size_of::<usize>())
            }
            OriginSlots::Groups { group_of } => vec_bytes(group_of),
        }
    }
}

/// Algorithm 3: proportional provenance with dense rows over all vertices,
/// a tracked subset, or vertex groups.
#[derive(Clone, Debug)]
pub struct ProportionalDenseTracker {
    slots: OriginSlots,
    /// Slots per row: `|V|`, `k + 1` or `m`.
    dim: usize,
    rows: Vec<DenseProvenance>,
    /// Scalar buffered totals, kept separately so `|B_v|` is O(1) instead of
    /// an O(dim) row sum.
    totals: Vec<Quantity>,
    /// Running sum of the rows' footprints (see
    /// [`ProvenanceTracker::footprint`]). Rows never change capacity in
    /// `process`, so only `extract`/`install` move it.
    entries_bytes: usize,
    processed: usize,
}

impl ProportionalDenseTracker {
    fn with_slots(num_vertices: usize, slots: OriginSlots, dim: usize) -> Self {
        let rows: Vec<DenseProvenance> = (0..num_vertices)
            .map(|_| DenseProvenance::zeros(dim))
            .collect();
        ProportionalDenseTracker {
            slots,
            dim,
            entries_bytes: total_footprint(&rows),
            rows,
            totals: vec![0.0; num_vertices],
            processed: 0,
        }
    }

    /// Create a tracker over every vertex's provenance
    /// (allocates `num_vertices²` slots).
    pub fn new(num_vertices: usize) -> Self {
        Self::with_slots(num_vertices, OriginSlots::Vertices, num_vertices)
    }

    /// Create a tracker that keeps provenance only from `tracked` (the k
    /// vertices of interest, in slot order) and books every other origin
    /// as [`Origin::Untracked`].
    ///
    /// # Errors
    /// Returns an error if `tracked` is empty, contains duplicates, or
    /// references vertices outside `0..num_vertices`.
    pub fn selective(num_vertices: usize, tracked: Vec<VertexId>) -> Result<Self> {
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
        Ok(Self::with_slots(
            num_vertices,
            OriginSlots::Tracked { tracked, slot_of },
            dim,
        ))
    }

    /// Create a tracker over `num_vertices` vertices partitioned into
    /// `num_groups` groups according to `group_of` (one entry per vertex),
    /// whose origins are [`Origin::Group`]s.
    ///
    /// # Errors
    /// Returns an error if `num_groups` is zero, the mapping has the wrong
    /// length, or any group index is out of range.
    pub fn grouped(num_vertices: usize, num_groups: usize, group_of: Vec<u32>) -> Result<Self> {
        if num_groups == 0 {
            return Err(TinError::InvalidConfig(
                "grouped tracking needs at least one group".into(),
            ));
        }
        if group_of.len() != num_vertices {
            return Err(TinError::InvalidConfig(format!(
                "group mapping has {} entries but the TIN has {} vertices",
                group_of.len(),
                num_vertices
            )));
        }
        if let Some(bad) = group_of.iter().find(|&&g| g as usize >= num_groups) {
            return Err(TinError::InvalidConfig(format!(
                "group index {bad} is outside 0..{num_groups}"
            )));
        }
        Ok(Self::with_slots(
            num_vertices,
            OriginSlots::Groups { group_of },
            num_groups,
        ))
    }

    /// Direct read access to the provenance row of `v` (Table 5 tests).
    pub fn vector(&self, v: VertexId) -> &DenseProvenance {
        &self.rows[v.index()]
    }
}

impl ProvenanceTracker for ProportionalDenseTracker {
    fn name(&self) -> &'static str {
        match self.slots {
            OriginSlots::Vertices => "Proportional (dense)",
            OriginSlots::Tracked { .. } => "Selective proportional",
            OriginSlots::Groups { .. } => "Grouped proportional",
        }
    }

    fn num_vertices(&self) -> usize {
        self.rows.len()
    }

    fn process(&mut self, r: &Interaction) {
        let s = r.src.index();
        let d = r.dst.index();
        let (src_row, dst_row) = split_src_dst(&mut self.rows, s, d);

        let src_total = self.totals[s];
        let src_left = if qty_ge(r.qty, src_total) {
            // Case 1 (Algorithm 3, lines 5–7): the whole source buffer is
            // relayed, plus a newborn quantity r.q − |B_{r.s}| at r.s.
            src_row.drain_into(dst_row);
            let newborn = qty_clamp_non_negative(r.qty - src_total);
            if newborn > 0.0 {
                dst_row.add_at(self.slots.newborn_slot(r.src), newborn);
            }
            0.0
        } else {
            // Case 2 (lines 8–10): transfer the fraction r.q / |B_{r.s}| of
            // every component.
            src_row.transfer_fraction(dst_row, r.qty / src_total);
            qty_clamp_non_negative(src_total - r.qty)
        };
        move_totals(&mut self.totals, r, src_left);
        self.processed += 1;
    }

    fn buffered(&self, v: VertexId) -> Quantity {
        self.totals[v.index()]
    }

    fn origins(&self, v: VertexId) -> OriginSet {
        OriginSet::from_pairs(
            self.rows[v.index()]
                .nonzero()
                .map(|(slot, q)| (self.slots.origin(slot), q)),
        )
    }

    fn footprint(&self) -> FootprintBreakdown {
        debug_assert_eq!(self.entries_bytes, total_footprint(&self.rows));
        FootprintBreakdown {
            entries_bytes: self.entries_bytes,
            paths_bytes: 0,
            index_bytes: vec_bytes(&self.totals) + self.slots.index_bytes(),
        }
    }

    fn interactions_processed(&self) -> usize {
        self.processed
    }

    crate::impl_migration_hooks!();
}

impl MigratableTracker for ProportionalDenseTracker {
    type Taken = TakenState;

    fn extract(&mut self, v: VertexId) -> TakenState {
        let i = v.index();
        let hollow = DenseProvenance::zeros(0);
        TakenState {
            row: replace_counted(&mut self.entries_bytes, &mut self.rows[i], hollow),
            total: std::mem::take(&mut self.totals[i]),
        }
    }

    fn install(&mut self, v: VertexId, taken: TakenState) {
        let i = v.index();
        replace_counted(&mut self.entries_bytes, &mut self.rows[i], taken.row);
        self.totals[i] = taken.total;
    }

    fn counted_bytes(&self) -> usize {
        self.entries_bytes
    }

    fn encode_taken(taken: &TakenState, out: &mut Vec<u8>) {
        taken.row.encode_into(out);
        crate::codec::put_f64(out, taken.total);
    }

    /// A row whose width is not this tracker's slot count is corrupt: the
    /// relay indexes slots and adds rows component-wise, so installing it
    /// would panic at the next interaction.
    fn decode_taken(&self, r: &mut crate::codec::ByteReader<'_>) -> Result<TakenState> {
        let row = DenseProvenance::decode_from(r)?;
        if row.dim() != self.dim {
            return Err(r.corrupt(format!(
                "dense row has {} slots, the tracker has {}",
                row.dim(),
                self.dim
            )));
        }
        Ok(TakenState {
            row,
            total: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::paper_running_example;
    use crate::quantity::qty_approx_eq;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    fn g(i: u32) -> Origin {
        Origin::Group(GroupId::new(i))
    }

    fn assert_vector(t: &ProportionalDenseTracker, vertex: u32, expected: &[f64]) {
        let p = t.vector(v(vertex));
        assert_eq!(p.dim(), expected.len());
        for (i, &want) in expected.iter().enumerate() {
            assert!(
                (p.get(i) - want).abs() < 0.01,
                "p_v{vertex}[{i}] = {} want {}",
                p.get(i),
                want
            );
        }
    }

    /// One tracker of each origin space over the running example's 3
    /// vertices.
    fn every_scope() -> Vec<ProportionalDenseTracker> {
        vec![
            ProportionalDenseTracker::new(3),
            ProportionalDenseTracker::selective(3, vec![v(0)]).unwrap(),
            ProportionalDenseTracker::grouped(3, 2, vec![0, 1, 0]).unwrap(),
        ]
    }

    /// Reproduces Table 5 of the paper step by step (proportional selection).
    /// The expected values are the paper's, rounded to two decimals.
    #[test]
    fn table5_proportional_vectors() {
        let rs = paper_running_example();
        let mut t = ProportionalDenseTracker::new(3);

        t.process(&rs[0]);
        assert_vector(&t, 0, &[0.0, 0.0, 0.0]);
        assert_vector(&t, 1, &[0.0, 0.0, 0.0]);
        assert_vector(&t, 2, &[0.0, 3.0, 0.0]);

        t.process(&rs[1]);
        assert_vector(&t, 0, &[0.0, 3.0, 2.0]);
        assert_vector(&t, 2, &[0.0, 0.0, 0.0]);

        t.process(&rs[2]);
        assert_vector(&t, 0, &[0.0, 1.2, 0.8]);
        assert_vector(&t, 1, &[0.0, 1.8, 1.2]);

        t.process(&rs[3]);
        assert_vector(&t, 1, &[0.0, 0.0, 0.0]);
        assert_vector(&t, 2, &[0.0, 5.8, 1.2]);

        t.process(&rs[4]);
        assert_vector(&t, 1, &[0.0, 1.66, 0.34]);
        assert_vector(&t, 2, &[0.0, 4.14, 0.86]);

        t.process(&rs[5]);
        assert_vector(&t, 0, &[0.0, 2.03, 0.97]);
        assert_vector(&t, 1, &[0.0, 1.66, 0.34]);
        assert_vector(&t, 2, &[0.0, 3.31, 0.69]);

        assert!(t.check_all_invariants());
    }

    #[test]
    fn totals_match_noprov() {
        use crate::tracker::no_prov::NoProvTracker;
        for mut a in every_scope() {
            let mut b = NoProvTracker::new(3);
            for r in paper_running_example() {
                a.process(&r);
                b.process(&r);
                for i in 0..3 {
                    assert!(qty_approx_eq(a.buffered(v(i)), b.buffered(v(i))));
                }
            }
            assert!(a.check_all_invariants(), "{}", a.name());
        }
    }

    #[test]
    fn origins_from_vector() {
        let mut t = ProportionalDenseTracker::new(3);
        t.process_all(&paper_running_example());
        let o = t.origins(v(0));
        assert_eq!(o.len(), 2);
        assert!((o.quantity_from_vertex(v(1)) - 2.03).abs() < 0.01);
        assert!((o.quantity_from_vertex(v(2)) - 0.97).abs() < 0.01);
        assert!(qty_approx_eq(o.total(), t.buffered(v(0))));
    }

    #[test]
    fn full_relay_resets_source_vector() {
        let mut t = ProportionalDenseTracker::new(3);
        t.process(&Interaction::new(0u32, 1u32, 1.0, 4.0));
        t.process(&Interaction::new(1u32, 2u32, 2.0, 10.0));
        // v1's buffer (4 from v0) relays entirely plus 6 newborn at v1.
        assert!(t.vector(v(1)).is_zero());
        assert!(qty_approx_eq(t.buffered(v(1)), 0.0));
        let o = t.origins(v(2));
        assert!(qty_approx_eq(o.quantity_from_vertex(v(0)), 4.0));
        assert!(qty_approx_eq(o.quantity_from_vertex(v(1)), 6.0));
    }

    #[test]
    fn exact_quantity_relay_generates_nothing() {
        let mut t = ProportionalDenseTracker::new(3);
        t.process(&Interaction::new(0u32, 1u32, 1.0, 4.0));
        t.process(&Interaction::new(1u32, 2u32, 2.0, 4.0));
        let o = t.origins(v(2));
        assert_eq!(o.len(), 1);
        assert!(qty_approx_eq(o.quantity_from_vertex(v(0)), 4.0));
        assert!(qty_approx_eq(o.quantity_from_vertex(v(1)), 0.0));
    }

    #[test]
    fn global_conservation() {
        let mut t = ProportionalDenseTracker::new(3);
        let rs = paper_running_example();
        t.process_all(&rs);
        // Total buffered = total generated = 9 (from Table 2: 7 at v1, 2 at v2).
        assert!(qty_approx_eq(t.total_buffered(), 9.0));
    }

    #[test]
    fn footprint_scales_with_the_slot_count() {
        // Full tracking: 100x the vertices -> 10_000x the row slots.
        assert_eq!(
            ProportionalDenseTracker::new(10).footprint().entries_bytes,
            10 * 10 * 8
        );
        assert_eq!(
            ProportionalDenseTracker::new(100).footprint().entries_bytes,
            100 * 100 * 8
        );
        // Selective and grouped rows scale with k + 1 and m, not |V|.
        let tracked = |k: u32| (0..k).map(VertexId::new).collect();
        let selective = |k| ProportionalDenseTracker::selective(100, tracked(k)).unwrap();
        assert_eq!(selective(2).footprint().entries_bytes, 100 * 3 * 8);
        assert_eq!(selective(50).footprint().entries_bytes, 100 * 51 * 8);
        let grouped = |m: usize| {
            let group_of = (0..100).map(|i| (i % m) as u32).collect();
            ProportionalDenseTracker::grouped(100, m, group_of).unwrap()
        };
        assert_eq!(grouped(2).footprint().entries_bytes, 100 * 2 * 8);
        assert_eq!(grouped(50).footprint().entries_bytes, 100 * 50 * 8);
    }

    #[test]
    fn names_and_counts() {
        let names: Vec<_> = every_scope().iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            [
                "Proportional (dense)",
                "Selective proportional",
                "Grouped proportional"
            ]
        );
        let t = ProportionalDenseTracker::selective(5, vec![v(3), v(1)]).unwrap();
        assert_eq!(t.num_vertices(), 5);
        assert_eq!(t.interactions_processed(), 0);
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(ProportionalDenseTracker::selective(3, vec![]).is_err());
        assert!(ProportionalDenseTracker::selective(3, vec![v(5)]).is_err());
        assert!(ProportionalDenseTracker::selective(3, vec![v(1), v(1)]).is_err());
        assert!(ProportionalDenseTracker::grouped(3, 0, vec![]).is_err());
        assert!(ProportionalDenseTracker::grouped(3, 2, vec![0, 1]).is_err());
        assert!(ProportionalDenseTracker::grouped(3, 2, vec![0, 1, 2]).is_err());
    }

    #[test]
    fn tracking_all_vertices_matches_full_proportional() {
        // With k = |V| selective tracking degenerates to Algorithm 3.
        let mut selective = ProportionalDenseTracker::selective(3, vec![v(0), v(1), v(2)]).unwrap();
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
        let mut t = ProportionalDenseTracker::selective(3, vec![v(1)]).unwrap();
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
        let mut t = ProportionalDenseTracker::selective(3, vec![v(2)]).unwrap();
        t.process_all(&paper_running_example());
        // Table 5 final state: v2 contributes 0.97 to v0, 0.34 to v1, 0.69 to v2.
        assert!((t.origins(v(0)).quantity_from_vertex(v(2)) - 0.97).abs() < 0.01);
        assert!((t.origins(v(1)).quantity_from_vertex(v(2)) - 0.34).abs() < 0.01);
        assert!((t.origins(v(2)).quantity_from_vertex(v(2)) - 0.69).abs() < 0.01);
    }

    #[test]
    fn singleton_groups_match_full_proportional() {
        // With one group per vertex (m = |V|, identity mapping), grouped
        // tracking is exactly Algorithm 3 with group g_i ≡ vertex v_i.
        let mut grouped = ProportionalDenseTracker::grouped(3, 3, vec![0, 1, 2]).unwrap();
        let mut full = ProportionalDenseTracker::new(3);
        for r in paper_running_example() {
            grouped.process(&r);
            full.process(&r);
        }
        for i in 0..3u32 {
            assert!(qty_approx_eq(grouped.buffered(v(i)), full.buffered(v(i))));
            let go = grouped.origins(v(i));
            let fo = full.origins(v(i));
            for j in 0..3u32 {
                assert!(qty_approx_eq(
                    go.quantity_from(g(j)),
                    fo.quantity_from_vertex(v(j))
                ));
            }
        }
    }

    #[test]
    fn groups_aggregate_member_vertices() {
        // v1 and v2 share group 1; v0 is alone in group 0.
        let mut t = ProportionalDenseTracker::grouped(3, 2, vec![0, 1, 1]).unwrap();
        t.process_all(&paper_running_example());
        // Table 5 final p_v0 = [0, 2.03, 0.97]: group 1 receives 2.03 + 0.97.
        let o = t.origins(v(0));
        assert_eq!(o.len(), 1);
        assert!((o.quantity_from(g(1)) - 3.0).abs() < 0.01);
        assert!(qty_approx_eq(o.quantity_from(g(0)), 0.0));
        assert!(t.check_all_invariants());
    }
}
