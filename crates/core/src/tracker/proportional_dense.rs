//! Proportional selection with dense provenance vectors
//! (Section 4.3, Algorithm 3).
//!
//! Every vertex `v` carries a `|V|`-length vector `p_v`; slot `i` holds the
//! quantity in `B_v` that originates from vertex `i`. An interaction either
//! relays the whole source vector (plus a newborn one-hot component) or moves
//! a proportional fraction of every slot. Space is `O(|V|²)` and each
//! interaction costs `O(|V|)`, which is why the paper can only run this
//! variant on the small-vertex-count datasets (Flights, Taxis).

use crate::dense_vec::DenseProvenance;
use crate::ids::VertexId;
use crate::interaction::Interaction;
use crate::memory::{total_footprint, FootprintBreakdown};
use crate::origins::OriginSet;
use crate::quantity::{qty_clamp_non_negative, qty_ge, Quantity};
use crate::tracker::{replace_counted, split_src_dst, MigratableTracker, ProvenanceTracker};

/// Per-vertex state moved by the shard protocol: the dense row (its `Vec`
/// allocation moves wholesale) plus the scalar total.
pub struct TakenState {
    row: DenseProvenance,
    total: Quantity,
}

/// Algorithm 3: proportional provenance with dense `|V|`-length vectors.
#[derive(Clone, Debug)]
pub struct ProportionalDenseTracker {
    vectors: Vec<DenseProvenance>,
    /// Scalar buffered totals, kept separately so `|B_v|` is O(1) instead of
    /// an O(|V|) vector sum.
    totals: Vec<Quantity>,
    /// Running sum of the rows' footprints (see
    /// [`ProvenanceTracker::footprint`]). Rows never change capacity in
    /// `process`, so only `extract`/`install` move it.
    entries_bytes: usize,
    processed: usize,
}

impl ProportionalDenseTracker {
    /// Create a tracker for `num_vertices` vertices
    /// (allocates `num_vertices²` slots).
    pub fn new(num_vertices: usize) -> Self {
        let vectors: Vec<DenseProvenance> = (0..num_vertices)
            .map(|_| DenseProvenance::zeros(num_vertices))
            .collect();
        ProportionalDenseTracker {
            entries_bytes: total_footprint(&vectors),
            vectors,
            totals: vec![0.0; num_vertices],
            processed: 0,
        }
    }

    /// Direct read access to the provenance vector of `v` (Table 5 tests).
    pub fn vector(&self, v: VertexId) -> &DenseProvenance {
        &self.vectors[v.index()]
    }
}

impl ProvenanceTracker for ProportionalDenseTracker {
    fn name(&self) -> &'static str {
        "Proportional (dense)"
    }

    fn num_vertices(&self) -> usize {
        self.vectors.len()
    }

    fn process(&mut self, r: &Interaction) {
        let s = r.src.index();
        let d = r.dst.index();
        debug_assert_ne!(s, d, "self-loops are rejected at stream validation");

        let (src_vec, dst_vec) = split_src_dst(&mut self.vectors, s, d);

        let src_total = self.totals[s];
        if qty_ge(r.qty, src_total) {
            // Case 1 (Algorithm 3, lines 5–7): the whole source buffer is
            // relayed, plus a newborn quantity r.q − |B_{r.s}| at r.s.
            src_vec.drain_into(dst_vec);
            let newborn = qty_clamp_non_negative(r.qty - src_total);
            if newborn > 0.0 {
                dst_vec.add_at(s, newborn);
            }
            self.totals[d] += r.qty;
            self.totals[s] = 0.0;
        } else {
            // Case 2 (lines 8–10): transfer the fraction r.q / |B_{r.s}| of
            // every component.
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
        OriginSet::from_vertex_pairs(
            self.vectors[v.index()]
                .nonzero()
                .map(|(i, q)| (VertexId::from(i), q)),
        )
    }

    fn footprint(&self) -> FootprintBreakdown {
        debug_assert_eq!(self.entries_bytes, total_footprint(&self.vectors));
        FootprintBreakdown {
            entries_bytes: self.entries_bytes,
            paths_bytes: 0,
            index_bytes: crate::memory::vec_bytes(&self.totals),
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

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
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
        let mut a = ProportionalDenseTracker::new(3);
        let mut b = NoProvTracker::new(3);
        for r in paper_running_example() {
            a.process(&r);
            b.process(&r);
            for i in 0..3 {
                assert!(qty_approx_eq(a.buffered(v(i)), b.buffered(v(i))));
            }
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
    fn footprint_is_quadratic_in_vertices() {
        let small = ProportionalDenseTracker::new(10);
        let big = ProportionalDenseTracker::new(100);
        let s = small.footprint().entries_bytes;
        let b = big.footprint().entries_bytes;
        // 100x the vertices -> 10_000x the vector slots.
        assert_eq!(s, 10 * 10 * 8);
        assert_eq!(b, 100 * 100 * 8);
    }

    #[test]
    fn name_and_counts() {
        let t = ProportionalDenseTracker::new(2);
        assert_eq!(t.name(), "Proportional (dense)");
        assert_eq!(t.num_vertices(), 2);
        assert_eq!(t.interactions_processed(), 0);
    }
}
