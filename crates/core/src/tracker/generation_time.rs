//! Generation-time selection policies (Section 4.1, Algorithm 2).
//!
//! Buffers hold `(origin, birth-time, quantity)` triples organised in a heap
//! keyed by birth time. The *least-recently-born* policy relays the oldest
//! quantities first (min-heap); the *most-recently-born* policy relays the
//! newest quantities first (max-heap). When the buffered quantity does not
//! cover the interaction, the residue is newborn at the source, stamped with
//! the interaction's timestamp.

use crate::buffer::heap_buffer::{HeapBuffer, HeapKind};
use crate::buffer::Triple;
use crate::ids::{Timestamp, VertexId};
use crate::interaction::Interaction;
use crate::memory::{total_footprint, FootprintBreakdown, MemoryFootprint};
use crate::origins::OriginSet;
use crate::quantity::{qty_is_zero, Quantity};
use crate::tracker::{replace_counted, split_src_dst, MigratableTracker, ProvenanceTracker};

/// Per-vertex state moved by the shard protocol: the whole generation-time
/// heap (its backing array — and therefore its exact tie-breaking layout —
/// moves wholesale).
pub struct TakenState {
    buf: HeapBuffer,
}

/// Algorithm 2: provenance tracking under generation-time selection.
#[derive(Clone, Debug)]
pub struct GenerationTimeTracker {
    kind: HeapKind,
    buffers: Vec<HeapBuffer>,
    /// Running sum of the buffers' footprints (see
    /// [`ProvenanceTracker::footprint`]).
    entries_bytes: usize,
    processed: usize,
}

impl GenerationTimeTracker {
    /// Least-recently-born selection: the oldest quantities are relayed first.
    pub fn least_recently_born(num_vertices: usize) -> Self {
        Self::with_kind(num_vertices, HeapKind::LeastRecentlyBorn)
    }

    /// Most-recently-born selection: the newest quantities are relayed first.
    pub fn most_recently_born(num_vertices: usize) -> Self {
        Self::with_kind(num_vertices, HeapKind::MostRecentlyBorn)
    }

    /// Build a tracker with an explicit heap kind.
    pub fn with_kind(num_vertices: usize, kind: HeapKind) -> Self {
        GenerationTimeTracker {
            kind,
            buffers: (0..num_vertices).map(|_| HeapBuffer::new(kind)).collect(),
            entries_bytes: 0,
            processed: 0,
        }
    }

    /// The selection kind of this tracker.
    pub fn kind(&self) -> HeapKind {
        self.kind
    }

    /// The raw triples currently buffered at `v`, in unspecified order.
    /// (Tests reproducing Table 3 compare these as multisets.)
    pub fn triples(&self, v: VertexId) -> Vec<Triple> {
        self.buffers[v.index()].iter().copied().collect()
    }

    /// Total number of triples stored across all buffers (the O(|R|) space
    /// term of the complexity analysis).
    pub fn total_triples(&self) -> usize {
        self.buffers.iter().map(|b| b.len()).sum()
    }

    /// Provenance grouped by `(origin, birth time)` at vertex `v`:
    /// `((origin, birth), quantity)` pairs summed over buffered triples.
    pub fn origins_with_birth(&self, v: VertexId) -> Vec<((VertexId, Timestamp), Quantity)> {
        let mut agg: std::collections::BTreeMap<(u32, u64), (VertexId, Timestamp, Quantity)> =
            std::collections::BTreeMap::new();
        for t in self.buffers[v.index()].iter() {
            let key = (t.origin.raw(), t.birth.0.to_bits());
            agg.entry(key)
                .and_modify(|(_, _, q)| *q += t.qty)
                .or_insert((t.origin, t.birth, t.qty));
        }
        agg.into_values().map(|(o, b, q)| ((o, b), q)).collect()
    }
}

impl ProvenanceTracker for GenerationTimeTracker {
    fn name(&self) -> &'static str {
        match self.kind {
            HeapKind::LeastRecentlyBorn => "Least Recently Born",
            HeapKind::MostRecentlyBorn => "Most Recently Born",
        }
    }

    fn num_vertices(&self) -> usize {
        self.buffers.len()
    }

    fn process(&mut self, r: &Interaction) {
        let s = r.src.index();
        let d = r.dst.index();
        debug_assert_ne!(s, d, "self-loops are rejected at stream validation");

        // Select up to r.q from the source buffer (Algorithm 2, lines 6–17).
        // The two buffers are distinct (no self-loops), so split the borrow.
        let (src_buf, dst_buf) = split_src_dst(&mut self.buffers, s, d);
        let before = src_buf.footprint_bytes() + dst_buf.footprint_bytes();
        let taken = src_buf.take(r.qty, |triple| dst_buf.push(triple));

        // Newborn residue (Algorithm 2, lines 18–21).
        let residue = r.qty - taken;
        if !qty_is_zero(residue) {
            dst_buf.push(Triple {
                origin: r.src,
                birth: r.time,
                qty: residue,
            });
        }
        self.entries_bytes =
            self.entries_bytes - before + src_buf.footprint_bytes() + dst_buf.footprint_bytes();
        self.processed += 1;
    }

    fn buffered(&self, v: VertexId) -> Quantity {
        self.buffers[v.index()].total()
    }

    fn origins(&self, v: VertexId) -> OriginSet {
        OriginSet::from_vertex_pairs(self.buffers[v.index()].iter().map(|t| (t.origin, t.qty)))
    }

    fn footprint(&self) -> FootprintBreakdown {
        debug_assert_eq!(self.entries_bytes, total_footprint(&self.buffers));
        FootprintBreakdown {
            entries_bytes: self.entries_bytes,
            paths_bytes: 0,
            index_bytes: std::mem::size_of::<HeapBuffer>() * self.buffers.capacity(),
        }
    }

    fn interactions_processed(&self) -> usize {
        self.processed
    }

    crate::impl_migration_hooks!();
}

impl MigratableTracker for GenerationTimeTracker {
    type Taken = TakenState;

    fn extract(&mut self, v: VertexId) -> TakenState {
        let hollow = HeapBuffer::new(self.kind);
        TakenState {
            buf: replace_counted(
                &mut self.entries_bytes,
                &mut self.buffers[v.index()],
                hollow,
            ),
        }
    }

    fn install(&mut self, v: VertexId, taken: TakenState) {
        replace_counted(
            &mut self.entries_bytes,
            &mut self.buffers[v.index()],
            taken.buf,
        );
    }

    fn counted_bytes(&self) -> usize {
        self.entries_bytes
    }

    fn encode_taken(taken: &TakenState, out: &mut Vec<u8>) {
        taken.buf.encode_into(out);
    }

    fn decode_taken(&self, r: &mut crate::codec::ByteReader<'_>) -> crate::Result<TakenState> {
        Ok(TakenState {
            buf: HeapBuffer::decode_from(r)?,
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

    /// Compare a buffer's triples against an expected multiset of
    /// (origin, birth, qty).
    fn assert_triples(t: &GenerationTimeTracker, vertex: u32, expected: &[(u32, f64, f64)]) {
        let mut got: Vec<(u32, f64, f64)> = t
            .triples(v(vertex))
            .iter()
            .map(|x| (x.origin.raw(), x.birth.0, x.qty))
            .collect();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut want = expected.to_vec();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(
            got.len(),
            want.len(),
            "triples at v{vertex}: {got:?} vs {want:?}"
        );
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(
                g.0, w.0,
                "origin mismatch at v{vertex}: {got:?} vs {want:?}"
            );
            assert!(qty_approx_eq(g.1, w.1), "birth mismatch at v{vertex}");
            assert!(qty_approx_eq(g.2, w.2), "qty mismatch at v{vertex}");
        }
    }

    /// Reproduces Table 3 of the paper step by step (oldest-first / LRB).
    #[test]
    fn table3_least_recently_born() {
        let rs = paper_running_example();
        let mut t = GenerationTimeTracker::least_recently_born(3);

        t.process(&rs[0]);
        assert_triples(&t, 0, &[]);
        assert_triples(&t, 1, &[]);
        assert_triples(&t, 2, &[(1, 1.0, 3.0)]);

        t.process(&rs[1]);
        assert_triples(&t, 0, &[(1, 1.0, 3.0), (2, 3.0, 2.0)]);
        assert_triples(&t, 2, &[]);

        t.process(&rs[2]);
        assert_triples(&t, 0, &[(2, 3.0, 2.0)]);
        assert_triples(&t, 1, &[(1, 1.0, 3.0)]);

        t.process(&rs[3]);
        assert_triples(&t, 0, &[(2, 3.0, 2.0)]);
        assert_triples(&t, 1, &[]);
        assert_triples(&t, 2, &[(1, 1.0, 3.0), (1, 5.0, 4.0)]);

        t.process(&rs[4]);
        assert_triples(&t, 0, &[(2, 3.0, 2.0)]);
        assert_triples(&t, 1, &[(1, 1.0, 2.0)]);
        assert_triples(&t, 2, &[(1, 1.0, 1.0), (1, 5.0, 4.0)]);

        t.process(&rs[5]);
        assert_triples(&t, 0, &[(1, 1.0, 1.0), (2, 3.0, 2.0)]);
        assert_triples(&t, 1, &[(1, 1.0, 2.0)]);
        assert_triples(&t, 2, &[(1, 5.0, 4.0)]);

        assert!(t.check_all_invariants());
    }

    /// Buffer totals must agree with the provenance-free baseline (Table 2),
    /// whatever the selection policy.
    #[test]
    fn totals_match_noprov_for_both_kinds() {
        use crate::tracker::no_prov::NoProvTracker;
        for kind in [HeapKind::LeastRecentlyBorn, HeapKind::MostRecentlyBorn] {
            let mut a = GenerationTimeTracker::with_kind(3, kind);
            let mut b = NoProvTracker::new(3);
            for r in paper_running_example() {
                a.process(&r);
                b.process(&r);
                for i in 0..3 {
                    assert!(
                        qty_approx_eq(a.buffered(v(i)), b.buffered(v(i))),
                        "kind {kind:?} diverged from NoProv at v{i}"
                    );
                }
            }
        }
    }

    /// MRB differs from LRB: the transfers always pick the *newest* birth
    /// times first. Tracing the running example by hand under MRB:
    /// after interaction 3 (v0→v1, q=3) the most recent triple (2,3,2) moves
    /// whole and (1,1,3) is split; after interaction 5 (v2→v1, q=2) the
    /// time-5 triple is split instead of the time-1 triple.
    #[test]
    fn mrb_selects_newest_quantity() {
        let rs = paper_running_example();
        let mut t = GenerationTimeTracker::most_recently_born(3);
        for r in &rs[..3] {
            t.process(r);
        }
        assert_triples(&t, 0, &[(1, 1.0, 2.0)]);
        assert_triples(&t, 1, &[(2, 3.0, 2.0), (1, 1.0, 1.0)]);

        for r in &rs[3..5] {
            t.process(r);
        }
        // v2's buffer before interaction 5 held (2,3,2), (1,1,1) and (1,5,4);
        // the transfer of 2 units must come from the time-5 triple under MRB.
        assert_triples(&t, 1, &[(1, 5.0, 2.0)]);
        assert_triples(&t, 2, &[(2, 3.0, 2.0), (1, 1.0, 1.0), (1, 5.0, 2.0)]);
    }

    #[test]
    fn origins_aggregate_across_births() {
        let rs = paper_running_example();
        let mut t = GenerationTimeTracker::least_recently_born(3);
        t.process_all(&rs[..4]);
        // v2 holds (1,1,3) and (1,5,4): both from origin v1.
        let o = t.origins(v(2));
        assert_eq!(o.len(), 1);
        assert!(qty_approx_eq(o.quantity_from_vertex(v(1)), 7.0));
        // origins_with_birth keeps the two birth times separate.
        let with_birth = t.origins_with_birth(v(2));
        assert_eq!(with_birth.len(), 2);
        let total: f64 = with_birth.iter().map(|(_, q)| q).sum();
        assert!(qty_approx_eq(total, 7.0));
    }

    #[test]
    fn newborn_residue_has_interaction_timestamp() {
        let mut t = GenerationTimeTracker::least_recently_born(2);
        t.process(&Interaction::new(0u32, 1u32, 42.0, 5.0));
        let triples = t.triples(v(1));
        assert_eq!(triples.len(), 1);
        assert_eq!(triples[0].origin, v(0));
        assert_eq!(triples[0].birth, Timestamp::new(42.0));
        assert_eq!(triples[0].qty, 5.0);
    }

    #[test]
    fn exact_transfer_does_not_generate() {
        let mut t = GenerationTimeTracker::least_recently_born(3);
        t.process(&Interaction::new(0u32, 1u32, 1.0, 4.0));
        t.process(&Interaction::new(1u32, 2u32, 2.0, 4.0));
        // All 4 units at v2 originate from v0 (relay, no newborn at v1).
        let o = t.origins(v(2));
        assert_eq!(o.len(), 1);
        assert!(qty_approx_eq(o.quantity_from_vertex(v(0)), 4.0));
    }

    #[test]
    fn triple_count_grows_at_most_one_per_interaction() {
        // Space complexity argument of Section 4.1: each interaction adds at
        // most one triple to the global population.
        let rs = paper_running_example();
        let mut t = GenerationTimeTracker::least_recently_born(3);
        let mut prev = 0usize;
        for (i, r) in rs.iter().enumerate() {
            t.process(r);
            let now = t.total_triples();
            assert!(
                now <= prev + 1,
                "interaction {i} grew triples from {prev} to {now}"
            );
            prev = now;
        }
    }

    #[test]
    fn footprint_reports_entry_bytes() {
        let mut t = GenerationTimeTracker::least_recently_born(3);
        t.process_all(&paper_running_example());
        let fp = t.footprint();
        assert!(fp.entries_bytes > 0);
        assert_eq!(fp.paths_bytes, 0);
        assert!(fp.total() >= fp.entries_bytes);
    }

    #[test]
    fn names() {
        assert_eq!(
            GenerationTimeTracker::least_recently_born(1).name(),
            "Least Recently Born"
        );
        assert_eq!(
            GenerationTimeTracker::most_recently_born(1).name(),
            "Most Recently Born"
        );
    }
}
