//! Grouped proportional provenance tracking (Section 5.2).
//!
//! Vertices are partitioned into `m` groups (by attribute, geography, or a
//! graph-clustering algorithm) and provenance is tracked *per group*: each
//! vertex keeps an `m`-length vector whose `g`-th slot holds the buffered
//! quantity generated by any vertex of group `g`. Space is `O(m·|V|)` and
//! each interaction costs `O(m)`.

use crate::dense_vec::DenseProvenance;
use crate::error::{Result, TinError};
use crate::ids::{GroupId, Origin, VertexId};
use crate::interaction::Interaction;
use crate::memory::{total_footprint, FootprintBreakdown};
use crate::origins::OriginSet;
use crate::quantity::{qty_clamp_non_negative, qty_ge, Quantity};
use crate::tracker::{replace_counted, split_src_dst, MigratableTracker, ProvenanceTracker};

/// Per-vertex state moved by the shard protocol: the `m`-slot group vector
/// plus the scalar total.
pub struct TakenState {
    row: DenseProvenance,
    total: Quantity,
}

/// Proportional provenance aggregated over vertex groups.
#[derive(Clone, Debug)]
pub struct GroupedTracker {
    num_groups: usize,
    /// `group_of[v]` = group index of vertex `v`.
    group_of: Vec<u32>,
    vectors: Vec<DenseProvenance>,
    totals: Vec<Quantity>,
    /// Running sum of the rows' footprints (see
    /// [`ProvenanceTracker::footprint`]). Rows never change capacity in
    /// `process`, so only `extract`/`install` move it.
    entries_bytes: usize,
    processed: usize,
}

impl GroupedTracker {
    /// Create a tracker over `num_vertices` vertices partitioned into
    /// `num_groups` groups according to `group_of` (one entry per vertex).
    ///
    /// # Errors
    /// Returns an error if `num_groups` is zero, the mapping has the wrong
    /// length, or any group index is out of range.
    pub fn new(num_vertices: usize, num_groups: usize, group_of: Vec<u32>) -> Result<Self> {
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
        let vectors: Vec<DenseProvenance> = (0..num_vertices)
            .map(|_| DenseProvenance::zeros(num_groups))
            .collect();
        Ok(GroupedTracker {
            num_groups,
            group_of,
            entries_bytes: total_footprint(&vectors),
            vectors,
            totals: vec![0.0; num_vertices],
            processed: 0,
        })
    }

    /// Convenience constructor: round-robin assignment of vertices to groups
    /// (the allocation the paper uses for its Figure 5 experiments, where the
    /// grouping itself does not affect cost).
    pub fn round_robin(num_vertices: usize, num_groups: usize) -> Result<Self> {
        if num_groups == 0 {
            return Err(TinError::InvalidConfig(
                "grouped tracking needs at least one group".into(),
            ));
        }
        let group_of = (0..num_vertices).map(|v| (v % num_groups) as u32).collect();
        Self::new(num_vertices, num_groups, group_of)
    }

    /// Number of groups m.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// The group of a vertex.
    pub fn group_of(&self, v: VertexId) -> GroupId {
        GroupId::new(self.group_of[v.index()])
    }

    /// Provenance of `v` aggregated per group, as raw `(group, quantity)`
    /// pairs (slot order).
    pub fn group_shares(&self, v: VertexId) -> Vec<(GroupId, Quantity)> {
        self.vectors[v.index()]
            .nonzero()
            .map(|(g, q)| (GroupId::new(g as u32), q))
            .collect()
    }
}

impl ProvenanceTracker for GroupedTracker {
    fn name(&self) -> &'static str {
        "Grouped proportional"
    }

    fn num_vertices(&self) -> usize {
        self.vectors.len()
    }

    fn process(&mut self, r: &Interaction) {
        let s = r.src.index();
        let d = r.dst.index();
        debug_assert_ne!(s, d, "self-loops are rejected at stream validation");
        let newborn_slot = self.group_of[s] as usize;

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
        OriginSet::from_pairs(
            self.vectors[v.index()]
                .nonzero()
                .map(|(g, q)| (Origin::Group(GroupId::new(g as u32)), q)),
        )
    }

    fn footprint(&self) -> FootprintBreakdown {
        debug_assert_eq!(self.entries_bytes, total_footprint(&self.vectors));
        FootprintBreakdown {
            entries_bytes: self.entries_bytes,
            paths_bytes: 0,
            index_bytes: crate::memory::vec_bytes(&self.totals)
                + crate::memory::vec_bytes(&self.group_of),
        }
    }

    fn interactions_processed(&self) -> usize {
        self.processed
    }

    crate::impl_migration_hooks!();
}

impl MigratableTracker for GroupedTracker {
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
    fn g(i: u32) -> Origin {
        Origin::Group(GroupId::new(i))
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(GroupedTracker::new(3, 0, vec![]).is_err());
        assert!(GroupedTracker::new(3, 2, vec![0, 1]).is_err());
        assert!(GroupedTracker::new(3, 2, vec![0, 1, 2]).is_err());
        assert!(GroupedTracker::round_robin(3, 0).is_err());
    }

    #[test]
    fn singleton_groups_match_full_proportional() {
        // With one group per vertex (m = |V|, identity mapping), grouped
        // tracking is exactly Algorithm 3 with group g_i ≡ vertex v_i.
        let mut grouped = GroupedTracker::new(3, 3, vec![0, 1, 2]).unwrap();
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
    fn group_shares_aggregate_member_vertices() {
        // v1 and v2 share group 1; v0 is alone in group 0.
        let mut t = GroupedTracker::new(3, 2, vec![0, 1, 1]).unwrap();
        t.process_all(&paper_running_example());
        // Table 5 final p_v0 = [0, 2.03, 0.97]: group 1 receives 2.03 + 0.97.
        let o = t.origins(v(0));
        assert!((o.quantity_from(g(1)) - 3.0).abs() < 0.01);
        assert!(qty_approx_eq(o.quantity_from(g(0)), 0.0));
        assert!(t.check_all_invariants());
        let shares = t.group_shares(v(0));
        assert_eq!(shares.len(), 1);
        assert_eq!(shares[0].0, GroupId::new(1));
    }

    #[test]
    fn round_robin_assignment() {
        let t = GroupedTracker::round_robin(5, 2).unwrap();
        assert_eq!(t.group_of(v(0)), GroupId::new(0));
        assert_eq!(t.group_of(v(1)), GroupId::new(1));
        assert_eq!(t.group_of(v(4)), GroupId::new(0));
        assert_eq!(t.num_groups(), 2);
    }

    #[test]
    fn totals_match_noprov() {
        use crate::tracker::no_prov::NoProvTracker;
        let mut a = GroupedTracker::round_robin(3, 2).unwrap();
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
    fn footprint_scales_with_groups() {
        let few = GroupedTracker::round_robin(100, 2).unwrap();
        let many = GroupedTracker::round_robin(100, 50).unwrap();
        assert_eq!(few.footprint().entries_bytes, 100 * 2 * 8);
        assert_eq!(many.footprint().entries_bytes, 100 * 50 * 8);
    }

    #[test]
    fn name() {
        assert_eq!(
            GroupedTracker::round_robin(2, 1).unwrap().name(),
            "Grouped proportional"
        );
    }
}
