//! The provenance-free baseline: Algorithm 1 of the paper (`NoProv` in the
//! experimental section).
//!
//! Each vertex keeps only the scalar `|B_v|`. An interaction relays
//! `q = min(r.q, |B_{r.s}|)` from the source buffer and credits the full
//! `r.q` to the destination; the difference `r.q − q` is newborn quantity
//! generated at the source. Cost: O(1) per interaction, O(|V|) space.

use crate::ids::{Origin, VertexId};
use crate::interaction::Interaction;
use crate::memory::{vec_bytes, FootprintBreakdown};
use crate::origins::OriginSet;
use crate::quantity::{qty_clamp_non_negative, qty_is_zero, Quantity};
use crate::tracker::{MigratableTracker, ProvenanceTracker};

/// Per-vertex state moved by the shard protocol: the scalar buffer plus the
/// generated-so-far counter.
pub struct TakenState {
    buffered: Quantity,
    generated: Quantity,
}

/// Algorithm 1: quantity propagation without provenance tracking.
#[derive(Clone, Debug)]
pub struct NoProvTracker {
    buffers: Vec<Quantity>,
    /// Total quantity generated ("born") at each vertex so far. Not needed by
    /// Algorithm 1 itself, but cheap to maintain and used by the experiment
    /// harness to pick the top-k contributing vertices for selective
    /// provenance (Section 7.3).
    generated: Vec<Quantity>,
    processed: usize,
}

impl NoProvTracker {
    /// Create a tracker for a TIN with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        NoProvTracker {
            buffers: vec![0.0; num_vertices],
            generated: vec![0.0; num_vertices],
            processed: 0,
        }
    }

    /// Total quantity generated at each vertex so far (index = vertex id).
    pub fn generated_per_vertex(&self) -> &[Quantity] {
        &self.generated
    }

    /// The `k` vertices that generated the largest total quantity, in
    /// descending order (Section 7.3's selection of tracked vertices).
    pub fn top_k_generators(&self, k: usize) -> Vec<VertexId> {
        let mut order: Vec<u32> = (0..self.buffers.len() as u32).collect();
        order.sort_by(|&a, &b| {
            self.generated[b as usize]
                .total_cmp(&self.generated[a as usize])
                .then(a.cmp(&b))
        });
        order.truncate(k);
        order.into_iter().map(VertexId::new).collect()
    }
}

impl ProvenanceTracker for NoProvTracker {
    fn name(&self) -> &'static str {
        "No Provenance"
    }

    fn num_vertices(&self) -> usize {
        self.buffers.len()
    }

    fn process(&mut self, r: &Interaction) {
        let s = r.src.index();
        let d = r.dst.index();
        // q = min(r.q, |B_{r.s}|): the relayed quantity.
        let relayed = r.qty.min(self.buffers[s]);
        let newborn = r.qty - relayed;
        self.buffers[s] = qty_clamp_non_negative(self.buffers[s] - relayed);
        self.buffers[d] += r.qty;
        self.generated[s] += newborn;
        self.processed += 1;
    }

    fn buffered(&self, v: VertexId) -> Quantity {
        self.buffers[v.index()]
    }

    fn origins(&self, v: VertexId) -> OriginSet {
        // Algorithm 1 does not track provenance: the whole buffered quantity
        // has unknown origin.
        let total = self.buffers[v.index()];
        if qty_is_zero(total) {
            OriginSet::empty()
        } else {
            OriginSet::from_pairs([(Origin::Unknown, total)])
        }
    }

    fn footprint(&self) -> FootprintBreakdown {
        FootprintBreakdown {
            entries_bytes: vec_bytes(&self.buffers) + vec_bytes(&self.generated),
            paths_bytes: 0,
            index_bytes: 0,
        }
    }

    fn interactions_processed(&self) -> usize {
        self.processed
    }

    crate::impl_migration_hooks!();
}

impl MigratableTracker for NoProvTracker {
    type Taken = TakenState;

    fn extract(&mut self, v: VertexId) -> TakenState {
        let i = v.index();
        TakenState {
            buffered: std::mem::take(&mut self.buffers[i]),
            generated: std::mem::take(&mut self.generated[i]),
        }
    }

    fn install(&mut self, v: VertexId, taken: TakenState) {
        let i = v.index();
        self.buffers[i] = taken.buffered;
        self.generated[i] = taken.generated;
    }

    // The per-vertex state is two scalars in fixed-size spines: nothing
    // migrates out of the counted bytes.
    fn counted_bytes(&self) -> usize {
        self.footprint().entries_bytes
    }

    fn encode_taken(taken: &TakenState, out: &mut Vec<u8>) {
        crate::codec::put_f64(out, taken.buffered);
        crate::codec::put_f64(out, taken.generated);
    }

    fn decode_taken(&self, r: &mut crate::codec::ByteReader<'_>) -> crate::Result<TakenState> {
        Ok(TakenState {
            buffered: r.f64()?,
            generated: r.f64()?,
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

    /// Reproduces Table 2 of the paper: buffer totals after every interaction
    /// of the running example, including the newborn quantities.
    #[test]
    fn table2_buffer_changes() {
        let mut t = NoProvTracker::new(3);
        let rs = paper_running_example();
        let expected: [[f64; 3]; 6] = [
            [0.0, 0.0, 3.0],
            [5.0, 0.0, 0.0],
            [2.0, 3.0, 0.0],
            [2.0, 0.0, 7.0],
            [2.0, 2.0, 5.0],
            [3.0, 2.0, 4.0],
        ];
        for (r, exp) in rs.iter().zip(expected.iter()) {
            t.process(r);
            for (i, &want) in exp.iter().enumerate() {
                assert!(
                    qty_approx_eq(t.buffered(v(i as u32)), want),
                    "after {:?}: buffer v{} = {} want {}",
                    r,
                    i,
                    t.buffered(v(i as u32)),
                    want
                );
            }
        }
        assert_eq!(t.interactions_processed(), 6);
    }

    /// Table 2's parenthesised values: newborn quantities per vertex.
    /// v1 generates 3 (first interaction) + 4 (fourth) = 7; v2 generates 2.
    #[test]
    fn table2_newborn_quantities() {
        let mut t = NoProvTracker::new(3);
        t.process_all(&paper_running_example());
        let gen = t.generated_per_vertex();
        assert!(qty_approx_eq(gen[0], 0.0));
        assert!(qty_approx_eq(gen[1], 7.0));
        assert!(qty_approx_eq(gen[2], 2.0));
    }

    #[test]
    fn origins_are_unknown() {
        let mut t = NoProvTracker::new(3);
        t.process_all(&paper_running_example());
        let o = t.origins(v(0));
        assert_eq!(o.len(), 1);
        assert_eq!(o.shares()[0].origin, Origin::Unknown);
        assert!(qty_approx_eq(o.total(), 3.0));
        // Invariant holds even though provenance is "unknown".
        assert!(t.check_all_invariants());
        // Empty buffer -> empty origin set.
        let empty = NoProvTracker::new(2);
        assert!(empty.origins(v(0)).is_empty());
    }

    #[test]
    fn conservation_total_buffered_equals_total_generated() {
        let mut t = NoProvTracker::new(3);
        t.process_all(&paper_running_example());
        let generated: f64 = t.generated_per_vertex().iter().sum();
        assert!(qty_approx_eq(t.total_buffered(), generated));
    }

    #[test]
    fn top_k_generators_ranking() {
        let mut t = NoProvTracker::new(3);
        t.process_all(&paper_running_example());
        assert_eq!(t.top_k_generators(1), vec![v(1)]);
        assert_eq!(t.top_k_generators(2), vec![v(1), v(2)]);
        assert_eq!(t.top_k_generators(10).len(), 3);
    }

    #[test]
    fn source_with_sufficient_buffer_generates_nothing() {
        let mut t = NoProvTracker::new(2);
        t.process(&Interaction::new(0u32, 1u32, 1.0, 5.0));
        t.process(&Interaction::new(1u32, 0u32, 2.0, 3.0));
        assert!(qty_approx_eq(t.buffered(v(1)), 2.0));
        assert!(qty_approx_eq(t.buffered(v(0)), 3.0));
        // v1 relayed existing quantity only.
        assert!(qty_approx_eq(t.generated_per_vertex()[1], 0.0));
    }

    #[test]
    fn footprint_is_constant_per_vertex() {
        let t = NoProvTracker::new(1000);
        let fp = t.footprint();
        assert_eq!(fp.paths_bytes, 0);
        assert_eq!(fp.total(), 2 * 1000 * std::mem::size_of::<f64>());
    }

    #[test]
    fn name_and_vertex_count() {
        let t = NoProvTracker::new(4);
        assert_eq!(t.name(), "No Provenance");
        assert_eq!(t.num_vertices(), 4);
    }
}
