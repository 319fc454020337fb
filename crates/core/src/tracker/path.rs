//! Path tracking — *how*-provenance (Section 6).
//!
//! Besides the origin of every buffered quantity, this tracker records the
//! *route* each quantity element has followed through the network. Each
//! buffered element carries a transfer path: the sequence of vertices it has
//! visited, starting with its origin and extended with the transmitter vertex
//! every time the element is relayed. The underlying selection policy is a
//! receipt-order policy (the paper evaluates path tracking on top of LIFO in
//! Table 10; FIFO is supported too).
//!
//! Path tracking is *not* meaningful for proportional selection: fractions of
//! quantities from the same origin but different routes get mixed in the
//! provenance vectors and become indistinguishable (Section 6).

use std::collections::VecDeque;

use crate::buffer::queue_buffer::Discipline;
use crate::ids::VertexId;
use crate::interaction::Interaction;
use crate::memory::{vec_bytes, FootprintBreakdown};
use crate::origins::OriginSet;
use crate::quantity::{qty_gt, qty_is_zero, Quantity};
use crate::tracker::{split_src_dst, MigratableTracker, ProvenanceTracker};

/// Per-vertex state moved by the shard protocol: the whole path buffer
/// (elements, paths and receipt order move wholesale) and its paths bytes.
pub struct TakenState {
    buf: PathBuffer,
    paths_bytes: usize,
}

/// A buffered quantity element annotated with its transfer path.
#[derive(Clone, Debug, PartialEq)]
pub struct PathElement {
    /// The vertex that generated this quantity.
    pub origin: VertexId,
    /// The quantity.
    pub qty: Quantity,
    /// The route followed so far: `path[0]` is the origin, each further entry
    /// is a vertex that relayed the element. The element's current holder is
    /// not part of the path.
    pub path: Vec<VertexId>,
}

impl PathElement {
    /// Number of relays after the element first left its origin
    /// (`path.len() - 1`); 0 for an element that went straight from its
    /// origin to its current holder. This is the "path length" averaged in
    /// Table 10.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Per-vertex buffer of path-annotated elements.
#[derive(Clone, Debug, Default)]
struct PathBuffer {
    elements: VecDeque<PathElement>,
    total: Quantity,
}

impl PathBuffer {
    /// Append an element, adding its path bytes to the buffer's counter
    /// `paths_bytes`.
    fn push(&mut self, e: PathElement, paths_bytes: &mut usize) {
        if qty_is_zero(e.qty) {
            return;
        }
        self.total += e.qty;
        *paths_bytes += vec_bytes(&e.path);
        self.elements.push_back(e);
    }

    /// Select up to `amount` under `discipline`, passing each transferred
    /// element (whole or split) to `sink` in selection order. The path bytes
    /// of elements that leave whole come off the buffer's counter
    /// `paths_bytes`; a split fragment carries a fresh copy of the path.
    fn take(
        &mut self,
        discipline: Discipline,
        amount: Quantity,
        paths_bytes: &mut usize,
        mut sink: impl FnMut(PathElement),
    ) -> Quantity {
        let mut residue = amount;
        let mut taken = 0.0;
        while residue > 0.0 && !qty_is_zero(residue) && !self.elements.is_empty() {
            let top_qty = match discipline {
                Discipline::Fifo => self.elements.front().map(|e| e.qty),
                Discipline::Lifo => self.elements.back().map(|e| e.qty),
            }
            .unwrap_or(0.0);
            if qty_gt(top_qty, residue) {
                // Split: the moved fragment inherits the parent's path.
                let top = match discipline {
                    Discipline::Fifo => self.elements.front_mut(),
                    Discipline::Lifo => self.elements.back_mut(),
                }
                .expect("buffer non-empty: peeked above");
                top.qty -= residue;
                let fragment = PathElement {
                    origin: top.origin,
                    qty: residue,
                    path: top.path.clone(),
                };
                self.total -= residue;
                taken += residue;
                sink(fragment);
                residue = 0.0;
            } else {
                let e = match discipline {
                    Discipline::Fifo => self.elements.pop_front(),
                    Discipline::Lifo => self.elements.pop_back(),
                }
                .expect("buffer non-empty: peeked above");
                self.total -= e.qty;
                *paths_bytes -= vec_bytes(&e.path);
                residue -= e.qty;
                taken += e.qty;
                sink(e);
            }
        }
        if self.elements.is_empty() {
            self.total = 0.0;
        }
        taken
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        use crate::codec::{put_f64, put_u32, put_usize};
        put_f64(out, self.total);
        put_usize(out, self.elements.len());
        for e in &self.elements {
            put_u32(out, e.origin.raw());
            put_f64(out, e.qty);
            put_usize(out, e.path.len());
            for p in &e.path {
                put_u32(out, p.raw());
            }
        }
    }

    fn decode_from(r: &mut crate::codec::ByteReader<'_>) -> crate::error::Result<Self> {
        let total = r.f64()?;
        let len = r.usize()?;
        // Each element is ≥ 20 bytes (origin + qty + path length prefix).
        if r.remaining() < len.saturating_mul(20) {
            return Err(r.corrupt(format!("truncated: {len} path elements declared")));
        }
        let mut elements = VecDeque::with_capacity(len);
        for _ in 0..len {
            let origin = VertexId::new(r.u32()?);
            let qty = r.f64()?;
            let hops = r.usize()?;
            if r.remaining() < hops.saturating_mul(4) {
                return Err(r.corrupt(format!("truncated: path of {hops} hops declared")));
            }
            let mut path = Vec::with_capacity(hops);
            for _ in 0..hops {
                path.push(VertexId::new(r.u32()?));
            }
            elements.push_back(PathElement { origin, qty, path });
        }
        Ok(PathBuffer { elements, total })
    }

    fn entries_bytes(&self) -> usize {
        self.elements.capacity() * std::mem::size_of::<PathElement>()
    }

    /// Paths bytes recounted from the elements: the reference the running
    /// counters are checked against in debug builds.
    fn paths_bytes(&self) -> usize {
        self.elements.iter().map(|e| vec_bytes(&e.path)).sum()
    }
}

/// Receipt-order provenance tracking extended with per-element transfer paths.
#[derive(Clone, Debug)]
pub struct PathTracker {
    discipline: Discipline,
    buffers: Vec<PathBuffer>,
    /// Paths bytes of each buffer, kept beside the buffers so that no
    /// footprint update scans a buffer's elements. Like the running totals
    /// below, it is bookkeeping for the footprint figure, not provenance
    /// state, and is left out of it.
    buffer_paths_bytes: Vec<usize>,
    /// Running sums of the buffers' entries and paths bytes (see
    /// [`ProvenanceTracker::footprint`]).
    entries_bytes: usize,
    paths_bytes: usize,
    processed: usize,
}

impl PathTracker {
    /// Path tracking on top of the LIFO policy (the paper's Table 10 setup).
    pub fn lifo(num_vertices: usize) -> Self {
        Self::with_discipline(num_vertices, Discipline::Lifo)
    }

    /// Path tracking on top of the FIFO policy.
    pub fn fifo(num_vertices: usize) -> Self {
        Self::with_discipline(num_vertices, Discipline::Fifo)
    }

    /// Build a path tracker with an explicit discipline.
    pub fn with_discipline(num_vertices: usize, discipline: Discipline) -> Self {
        PathTracker {
            discipline,
            buffers: vec![PathBuffer::default(); num_vertices],
            buffer_paths_bytes: vec![0; num_vertices],
            entries_bytes: 0,
            paths_bytes: 0,
            processed: 0,
        }
    }

    /// The underlying receipt-order discipline.
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// The path-annotated elements buffered at `v`, in receipt order.
    pub fn elements(&self, v: VertexId) -> &VecDeque<PathElement> {
        &self.buffers[v.index()].elements
    }

    /// Average path length (number of relays) over all buffered elements —
    /// the "avg. path length" column of Table 10.
    pub fn average_path_length(&self) -> f64 {
        let mut count = 0usize;
        let mut hops = 0usize;
        for b in &self.buffers {
            for e in &b.elements {
                count += 1;
                hops += e.hops();
            }
        }
        if count == 0 {
            0.0
        } else {
            hops as f64 / count as f64
        }
    }

    /// Total number of buffered elements across all vertices.
    pub fn total_elements(&self) -> usize {
        self.buffers.iter().map(|b| b.elements.len()).sum()
    }
}

impl ProvenanceTracker for PathTracker {
    fn name(&self) -> &'static str {
        match self.discipline {
            Discipline::Fifo => "FIFO + paths",
            Discipline::Lifo => "LIFO + paths",
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
        let (src_paths, dst_paths) = split_src_dst(&mut self.buffer_paths_bytes, s, d);
        let entries_before = src_buf.entries_bytes() + dst_buf.entries_bytes();
        let paths_before = *src_paths + *dst_paths;

        let discipline = self.discipline;
        let transmitter = r.src;
        let taken = src_buf.take(discipline, r.qty, src_paths, |mut e| {
            // Relayed element: extend its path with the transmitter vertex
            // (Section 6: "its path is extended to include the transmitter").
            e.path.push(transmitter);
            dst_buf.push(e, dst_paths);
        });

        let residue = r.qty - taken;
        if !qty_is_zero(residue) {
            // Newborn element: its path starts (and for now ends) at its
            // origin, the source vertex of this interaction.
            dst_buf.push(
                PathElement {
                    origin: r.src,
                    qty: residue,
                    path: vec![r.src],
                },
                dst_paths,
            );
        }
        self.entries_bytes =
            self.entries_bytes - entries_before + src_buf.entries_bytes() + dst_buf.entries_bytes();
        self.paths_bytes = self.paths_bytes - paths_before + *src_paths + *dst_paths;
        self.processed += 1;
    }

    fn buffered(&self, v: VertexId) -> Quantity {
        self.buffers[v.index()].total
    }

    fn origins(&self, v: VertexId) -> OriginSet {
        OriginSet::from_vertex_pairs(
            self.buffers[v.index()]
                .elements
                .iter()
                .map(|e| (e.origin, e.qty)),
        )
    }

    fn footprint(&self) -> FootprintBreakdown {
        debug_assert_eq!(
            self.entries_bytes,
            self.buffers
                .iter()
                .map(|b| b.entries_bytes())
                .sum::<usize>()
        );
        debug_assert!(self
            .buffers
            .iter()
            .zip(&self.buffer_paths_bytes)
            .all(|(b, &bytes)| b.paths_bytes() == bytes));
        debug_assert_eq!(
            self.paths_bytes,
            self.buffer_paths_bytes.iter().sum::<usize>()
        );
        FootprintBreakdown {
            entries_bytes: self.entries_bytes,
            paths_bytes: self.paths_bytes,
            index_bytes: std::mem::size_of::<PathBuffer>() * self.buffers.capacity(),
        }
    }

    fn interactions_processed(&self) -> usize {
        self.processed
    }

    crate::impl_migration_hooks!();
}

impl MigratableTracker for PathTracker {
    type Taken = TakenState;

    fn extract(&mut self, v: VertexId) -> TakenState {
        let i = v.index();
        let buf = std::mem::take(&mut self.buffers[i]);
        let paths_bytes = std::mem::take(&mut self.buffer_paths_bytes[i]);
        self.entries_bytes -= buf.entries_bytes();
        self.paths_bytes -= paths_bytes;
        TakenState { buf, paths_bytes }
    }

    fn install(&mut self, v: VertexId, taken: TakenState) {
        let i = v.index();
        self.entries_bytes =
            self.entries_bytes - self.buffers[i].entries_bytes() + taken.buf.entries_bytes();
        self.paths_bytes = self.paths_bytes - self.buffer_paths_bytes[i] + taken.paths_bytes;
        self.buffers[i] = taken.buf;
        self.buffer_paths_bytes[i] = taken.paths_bytes;
    }

    fn counted_bytes(&self) -> usize {
        self.entries_bytes + self.paths_bytes
    }

    fn encode_taken(taken: &TakenState, out: &mut Vec<u8>) {
        taken.buf.encode_into(out);
    }

    fn decode_taken(&self, r: &mut crate::codec::ByteReader<'_>) -> crate::Result<TakenState> {
        let buf = PathBuffer::decode_from(r)?;
        Ok(TakenState {
            paths_bytes: buf.paths_bytes(),
            buf,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::paper_running_example;
    use crate::quantity::qty_approx_eq;
    use crate::tracker::receipt_order::ReceiptOrderTracker;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    /// The origin decomposition must be identical to the plain receipt-order
    /// tracker: paths add information but never change provenance.
    #[test]
    fn origins_match_plain_receipt_order() {
        for lifo in [true, false] {
            let mut with_paths = if lifo {
                PathTracker::lifo(3)
            } else {
                PathTracker::fifo(3)
            };
            let mut plain = if lifo {
                ReceiptOrderTracker::lifo(3)
            } else {
                ReceiptOrderTracker::fifo(3)
            };
            for r in paper_running_example() {
                with_paths.process(&r);
                plain.process(&r);
                for i in 0..3u32 {
                    assert!(qty_approx_eq(
                        with_paths.buffered(v(i)),
                        plain.buffered(v(i))
                    ));
                    assert!(
                        with_paths.origins(v(i)).approx_eq(&plain.origins(v(i))),
                        "lifo={lifo}, mismatch at v{i}"
                    );
                }
            }
        }
    }

    /// Trace the routes in the running example under LIFO.
    #[test]
    fn paths_record_routes() {
        let rs = paper_running_example();
        let mut t = PathTracker::lifo(3);
        t.process_all(&rs[..2]);
        // After interaction 2, v0 holds: 3 units born at v1 that travelled
        // v1 -> v2 -> v0 (path [v1, v2]) and 2 newborn units from v2
        // (path [v2]).
        let elements = t.elements(v(0));
        assert_eq!(elements.len(), 2);
        let relayed = elements.iter().find(|e| e.origin == v(1)).unwrap();
        assert_eq!(relayed.path, vec![v(1), v(2)]);
        assert_eq!(relayed.hops(), 1);
        let newborn = elements.iter().find(|e| e.origin == v(2)).unwrap();
        assert_eq!(newborn.path, vec![v(2)]);
        assert_eq!(newborn.hops(), 0);
    }

    #[test]
    fn split_fragments_inherit_and_extend_path() {
        let rs = paper_running_example();
        let mut t = PathTracker::lifo(3);
        t.process_all(&rs[..3]);
        // Interaction 3 (v0 -> v1, q=3) under LIFO: the 2 units from v2 move
        // whole, 1 unit is split off the element born at v1.
        let at_v1 = t.elements(v(1));
        assert_eq!(at_v1.len(), 2);
        let split = at_v1.iter().find(|e| e.origin == v(1)).unwrap();
        // Route: born at v1, relayed by v2, then relayed by v0.
        assert_eq!(split.path, vec![v(1), v(2), v(0)]);
        assert_eq!(split.hops(), 2);
        assert!(qty_approx_eq(split.qty, 1.0));
        // The remainder kept at v0 still has the original (shorter) path.
        let kept = t.elements(v(0)).iter().find(|e| e.origin == v(1)).unwrap();
        assert_eq!(kept.path, vec![v(1), v(2)]);
        assert!(qty_approx_eq(kept.qty, 2.0));
    }

    #[test]
    fn average_path_length_on_running_example() {
        let mut t = PathTracker::lifo(3);
        t.process_all(&paper_running_example());
        let avg = t.average_path_length();
        assert!(avg > 0.0, "some elements must have been relayed");
        assert!(avg < 5.0, "paths in a 3-vertex example are short");
        // An empty tracker reports zero.
        assert_eq!(PathTracker::lifo(2).average_path_length(), 0.0);
    }

    #[test]
    fn long_chain_grows_paths() {
        // A quantity relayed along a chain 0 -> 1 -> 2 -> ... -> 9 must carry
        // the full route.
        let n = 10u32;
        let mut t = PathTracker::fifo(n as usize);
        for i in 0..n - 1 {
            t.process(&Interaction::new(i, i + 1, i as f64 + 1.0, 5.0));
        }
        let last = t.elements(v(n - 1));
        assert_eq!(last.len(), 1);
        let e = &last[0];
        assert_eq!(e.origin, v(0));
        assert_eq!(e.hops(), (n - 2) as usize);
        let expected: Vec<VertexId> = (0..n - 1).map(v).collect();
        assert_eq!(e.path, expected);
        // Memory for paths must be non-trivial relative to entries.
        let fp = t.footprint();
        assert!(fp.paths_bytes > 0);
    }

    #[test]
    fn footprint_splits_entries_and_paths() {
        let mut t = PathTracker::lifo(3);
        t.process_all(&paper_running_example());
        let fp = t.footprint();
        assert!(fp.entries_bytes > 0);
        assert!(fp.paths_bytes > 0);
        assert_eq!(
            fp.total(),
            fp.entries_bytes + fp.paths_bytes + fp.index_bytes
        );
    }

    #[test]
    fn invariants_and_names() {
        let mut t = PathTracker::lifo(3);
        t.process_all(&paper_running_example());
        assert!(t.check_all_invariants());
        assert_eq!(t.name(), "LIFO + paths");
        assert_eq!(PathTracker::fifo(1).name(), "FIFO + paths");
        assert_eq!(t.discipline(), Discipline::Lifo);
        assert!(t.total_elements() > 0);
    }
}
