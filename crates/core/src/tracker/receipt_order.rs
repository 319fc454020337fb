//! Receipt-order selection policies: FIFO and LIFO (Section 4.2).
//!
//! Buffers hold `(origin, quantity)` pairs in the order they were received.
//! The algorithm is Algorithm 2 with the heap replaced by a queue (FIFO) or a
//! stack (LIFO), which drops the per-access `O(log)` factor and the need to
//! store birth times.

use crate::buffer::queue_buffer::{Discipline, QueueBuffer};
use crate::buffer::Pair;
use crate::ids::VertexId;
use crate::interaction::Interaction;
use crate::memory::{total_footprint, FootprintBreakdown, MemoryFootprint};
use crate::origins::OriginSet;
use crate::quantity::{qty_is_zero, Quantity};
use crate::tracker::{replace_counted, split_src_dst, MigratableTracker, ProvenanceTracker};

/// Per-vertex state moved by the shard protocol: the whole receipt-order
/// queue (pairs in receipt order, ring buffer moved wholesale).
pub struct TakenState {
    buf: QueueBuffer,
}

/// Provenance tracking under receipt-order selection (FIFO or LIFO buffers).
#[derive(Clone, Debug)]
pub struct ReceiptOrderTracker {
    discipline: Discipline,
    buffers: Vec<QueueBuffer>,
    /// Running sum of the buffers' footprints (see
    /// [`ProvenanceTracker::footprint`]).
    entries_bytes: usize,
    processed: usize,
}

impl ReceiptOrderTracker {
    /// FIFO selection: relay the least recently received quantities first
    /// (pipelines, traffic networks).
    pub fn fifo(num_vertices: usize) -> Self {
        Self::with_discipline(num_vertices, Discipline::Fifo)
    }

    /// LIFO selection: relay the most recently received quantities first
    /// (cash registers, wallets).
    pub fn lifo(num_vertices: usize) -> Self {
        Self::with_discipline(num_vertices, Discipline::Lifo)
    }

    /// Build a tracker with an explicit discipline.
    pub fn with_discipline(num_vertices: usize, discipline: Discipline) -> Self {
        ReceiptOrderTracker {
            discipline,
            buffers: (0..num_vertices)
                .map(|_| QueueBuffer::new(discipline))
                .collect(),
            entries_bytes: 0,
            processed: 0,
        }
    }

    /// The discipline of this tracker.
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// The `(origin, quantity)` pairs buffered at `v`, in receipt order
    /// (the display order of Table 4).
    pub fn pairs(&self, v: VertexId) -> Vec<(VertexId, Quantity)> {
        self.buffers[v.index()].as_pairs()
    }

    /// The queue buffered at `v`.
    pub fn buffer(&self, v: VertexId) -> &QueueBuffer {
        &self.buffers[v.index()]
    }

    /// Total number of pairs stored across all buffers.
    pub fn total_pairs(&self) -> usize {
        self.buffers.iter().map(|b| b.len()).sum()
    }
}

impl ProvenanceTracker for ReceiptOrderTracker {
    fn name(&self) -> &'static str {
        match self.discipline {
            Discipline::Fifo => "FIFO",
            Discipline::Lifo => "LIFO",
        }
    }

    fn num_vertices(&self) -> usize {
        self.buffers.len()
    }

    fn process(&mut self, r: &Interaction) {
        let s = r.src.index();
        let d = r.dst.index();
        debug_assert_ne!(s, d, "self-loops are rejected at stream validation");

        let (src_buf, dst_buf) = split_src_dst(&mut self.buffers, s, d);
        let before = src_buf.footprint_bytes() + dst_buf.footprint_bytes();
        // Transferred pairs are appended to the destination in selection
        // order (Section 4.2).
        let taken = src_buf.take(r.qty, |pair| dst_buf.push(pair));

        let residue = r.qty - taken;
        if !qty_is_zero(residue) {
            dst_buf.push(Pair {
                origin: r.src,
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
        OriginSet::from_vertex_pairs(self.buffers[v.index()].iter().map(|p| (p.origin, p.qty)))
    }

    fn footprint(&self) -> FootprintBreakdown {
        debug_assert_eq!(self.entries_bytes, total_footprint(&self.buffers));
        FootprintBreakdown {
            entries_bytes: self.entries_bytes,
            paths_bytes: 0,
            index_bytes: std::mem::size_of::<QueueBuffer>() * self.buffers.capacity(),
        }
    }

    fn interactions_processed(&self) -> usize {
        self.processed
    }

    crate::impl_migration_hooks!();
}

impl MigratableTracker for ReceiptOrderTracker {
    type Taken = TakenState;

    fn extract(&mut self, v: VertexId) -> TakenState {
        let hollow = QueueBuffer::new(self.discipline);
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
            buf: QueueBuffer::decode_from(r)?,
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

    /// Compare a buffer's pairs against an expected multiset of (origin, qty).
    fn assert_pairs(t: &ReceiptOrderTracker, vertex: u32, expected: &[(u32, f64)]) {
        let mut got: Vec<(u32, f64)> = t
            .pairs(v(vertex))
            .iter()
            .map(|(o, q)| (o.raw(), *q))
            .collect();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut want = expected.to_vec();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(
            got.len(),
            want.len(),
            "pairs at v{vertex}: got {got:?} want {want:?}"
        );
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(
                g.0, w.0,
                "origin mismatch at v{vertex}: {got:?} vs {want:?}"
            );
            assert!(qty_approx_eq(g.1, w.1), "qty mismatch at v{vertex}");
        }
    }

    /// Reproduces Table 4 of the paper step by step (LIFO policy).
    #[test]
    fn table4_lifo() {
        let rs = paper_running_example();
        let mut t = ReceiptOrderTracker::lifo(3);

        t.process(&rs[0]);
        assert_pairs(&t, 2, &[(1, 3.0)]);

        t.process(&rs[1]);
        assert_pairs(&t, 0, &[(1, 3.0), (2, 2.0)]);
        assert_pairs(&t, 2, &[]);

        t.process(&rs[2]);
        assert_pairs(&t, 0, &[(1, 2.0)]);
        assert_pairs(&t, 1, &[(1, 1.0), (2, 2.0)]);

        t.process(&rs[3]);
        assert_pairs(&t, 0, &[(1, 2.0)]);
        assert_pairs(&t, 1, &[]);
        assert_pairs(&t, 2, &[(1, 1.0), (2, 2.0), (1, 4.0)]);

        t.process(&rs[4]);
        assert_pairs(&t, 0, &[(1, 2.0)]);
        assert_pairs(&t, 1, &[(1, 2.0)]);
        assert_pairs(&t, 2, &[(1, 1.0), (2, 2.0), (1, 2.0)]);

        t.process(&rs[5]);
        assert_pairs(&t, 0, &[(1, 2.0), (1, 1.0)]);
        assert_pairs(&t, 1, &[(1, 2.0)]);
        assert_pairs(&t, 2, &[(1, 1.0), (2, 2.0), (1, 1.0)]);

        assert!(t.check_all_invariants());
    }

    /// FIFO differs from LIFO: at the third interaction of the running
    /// example (v0→v1, q=3), FIFO relays the pair received first, i.e. the
    /// 3 units originating from v1, and keeps the 2 units from v2.
    #[test]
    fn fifo_differs_from_lifo() {
        let rs = paper_running_example();
        let mut t = ReceiptOrderTracker::fifo(3);
        for r in &rs[..3] {
            t.process(r);
        }
        assert_pairs(&t, 0, &[(2, 2.0)]);
        assert_pairs(&t, 1, &[(1, 3.0)]);
    }

    /// Buffer totals always agree with the provenance-free baseline.
    #[test]
    fn totals_match_noprov_for_both_disciplines() {
        use crate::tracker::no_prov::NoProvTracker;
        for discipline in [Discipline::Fifo, Discipline::Lifo] {
            let mut a = ReceiptOrderTracker::with_discipline(3, discipline);
            let mut b = NoProvTracker::new(3);
            for r in paper_running_example() {
                a.process(&r);
                b.process(&r);
                for i in 0..3 {
                    assert!(
                        qty_approx_eq(a.buffered(v(i)), b.buffered(v(i))),
                        "{discipline:?} diverged from NoProv at v{i}"
                    );
                }
            }
        }
    }

    /// Under the running example, LIFO and LRB end with the same origin
    /// decomposition at v0 and v1 (they only differ in intermediate orders),
    /// which double-checks both implementations.
    #[test]
    fn lifo_final_origins_match_table_totals() {
        let mut t = ReceiptOrderTracker::lifo(3);
        t.process_all(&paper_running_example());
        let o0 = t.origins(v(0));
        assert!(qty_approx_eq(o0.quantity_from_vertex(v(1)), 3.0));
        let o1 = t.origins(v(1));
        assert!(qty_approx_eq(o1.quantity_from_vertex(v(1)), 2.0));
        let o2 = t.origins(v(2));
        assert!(qty_approx_eq(o2.quantity_from_vertex(v(1)), 2.0));
        assert!(qty_approx_eq(o2.quantity_from_vertex(v(2)), 2.0));
    }

    #[test]
    fn pair_count_grows_at_most_one_per_interaction() {
        let rs = paper_running_example();
        for discipline in [Discipline::Fifo, Discipline::Lifo] {
            let mut t = ReceiptOrderTracker::with_discipline(3, discipline);
            let mut prev = 0usize;
            for r in &rs {
                t.process(r);
                let now = t.total_pairs();
                assert!(now <= prev + 1);
                prev = now;
            }
        }
    }

    #[test]
    fn newborn_pair_when_buffer_insufficient() {
        let mut t = ReceiptOrderTracker::fifo(2);
        t.process(&Interaction::new(0u32, 1u32, 1.0, 2.5));
        assert_pairs(&t, 1, &[(0, 2.5)]);
        assert!(qty_approx_eq(t.buffered(v(0)), 0.0));
    }

    #[test]
    fn footprint_and_name() {
        let mut t = ReceiptOrderTracker::lifo(3);
        t.process_all(&paper_running_example());
        assert!(t.footprint().entries_bytes > 0);
        assert_eq!(t.footprint().paths_bytes, 0);
        assert_eq!(t.name(), "LIFO");
        assert_eq!(ReceiptOrderTracker::fifo(1).name(), "FIFO");
        assert_eq!(t.discipline(), Discipline::Lifo);
    }
}
