//! Path tracking (how-provenance) on top of the generation-time policies.
//!
//! Section 6 of the paper defines path tracking "for the selection models of
//! Sections 4.1 and 4.2": every buffered quantity element carries the route it
//! has travelled from its origin. [`crate::tracker::path::PathTracker`] covers
//! the receipt-order policies (Section 4.2); this module covers the
//! generation-time policies (Section 4.1): the buffered elements are
//! `(origin, birth time, quantity, path)` quadruples organised in a heap keyed
//! by birth time, exactly as in Algorithm 2, and every relay extends the
//! element's path with the transmitter vertex.
//!
//! The origin decomposition produced by this tracker is identical to the plain
//! [`crate::tracker::generation_time::GenerationTimeTracker`]; the paths are
//! additional information, at the extra memory cost analysed in Section 6.

use std::collections::BinaryHeap;

use crate::buffer::heap_buffer::HeapKind;
use crate::ids::{Timestamp, VertexId};
use crate::interaction::Interaction;
use crate::memory::{vec_bytes, FootprintBreakdown};
use crate::origins::OriginSet;
use crate::quantity::{qty_gt, qty_is_zero, Quantity};
use crate::tracker::{split_src_dst, MigratableTracker, ProvenanceTracker};

/// Per-vertex state moved by the shard protocol: the whole path heap (its
/// backing array, per-vertex sequence counter and tie-breaking layout move
/// wholesale).
pub struct TakenState {
    buf: PathHeapBuffer,
    paths_bytes: usize,
}

/// A buffered quantity element annotated with its birth time and its transfer
/// path.
#[derive(Clone, Debug, PartialEq)]
pub struct PathTriple {
    /// The vertex that generated this quantity.
    pub origin: VertexId,
    /// When the quantity was generated.
    pub birth: Timestamp,
    /// The quantity.
    pub qty: Quantity,
    /// The route followed so far: `path[0]` is the origin, each further entry
    /// is a vertex that relayed the element. The current holder is not part of
    /// the path.
    pub path: Vec<VertexId>,
}

impl PathTriple {
    /// Number of relays since the element left its origin (`path.len() - 1`).
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Internal heap entry: priority key (birth time, sign-adjusted for the heap
/// kind) plus an insertion sequence number for deterministic tie-breaking.
#[derive(Clone, Debug)]
struct Entry {
    key: f64,
    seq: u64,
    triple: PathTriple,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Larger key wins; among equal keys, the earlier insertion wins.
        self.key
            .total_cmp(&other.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Per-vertex heap of path-annotated triples.
#[derive(Clone, Debug)]
struct PathHeapBuffer {
    heap: BinaryHeap<Entry>,
    total: Quantity,
    next_seq: u64,
}

impl PathHeapBuffer {
    fn new() -> Self {
        PathHeapBuffer {
            heap: BinaryHeap::new(),
            total: 0.0,
            next_seq: 0,
        }
    }

    fn key_for(kind: HeapKind, birth: Timestamp) -> f64 {
        match kind {
            HeapKind::LeastRecentlyBorn => -birth.0,
            HeapKind::MostRecentlyBorn => birth.0,
        }
    }

    /// Push a triple, adding its path bytes to the buffer's counter
    /// `paths_bytes`.
    fn push(&mut self, kind: HeapKind, triple: PathTriple, paths_bytes: &mut usize) {
        if qty_is_zero(triple.qty) {
            return;
        }
        let key = Self::key_for(kind, triple.birth);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.total += triple.qty;
        *paths_bytes += vec_bytes(&triple.path);
        self.heap.push(Entry { key, seq, triple });
    }

    /// Select up to `amount` according to the heap order, passing every
    /// transferred element (whole or split fragment) to `sink`. The path
    /// bytes of triples that leave whole come off the buffer's counter
    /// `paths_bytes`; a split fragment carries a fresh copy of the path.
    fn take(
        &mut self,
        kind: HeapKind,
        amount: Quantity,
        paths_bytes: &mut usize,
        mut sink: impl FnMut(PathTriple),
    ) -> Quantity {
        let mut residue = amount;
        let mut taken = 0.0;
        while residue > 0.0 && !qty_is_zero(residue) && !self.heap.is_empty() {
            let top_qty = self.heap.peek().map(|e| e.triple.qty).unwrap_or(0.0);
            if qty_gt(top_qty, residue) {
                // Split: the moved fragment inherits the parent's origin,
                // birth time and path (Algorithm 2, line 9).
                let mut top = self
                    .heap
                    .peek_mut()
                    .expect("buffer non-empty: peeked above");
                top.triple.qty -= residue;
                let fragment = PathTriple {
                    origin: top.triple.origin,
                    birth: top.triple.birth,
                    qty: residue,
                    path: top.triple.path.clone(),
                };
                drop(top);
                self.total -= residue;
                taken += residue;
                sink(fragment);
                residue = 0.0;
            } else {
                let e = self.heap.pop().expect("buffer non-empty: peeked above");
                self.total -= e.triple.qty;
                *paths_bytes -= vec_bytes(&e.triple.path);
                residue -= e.triple.qty;
                taken += e.triple.qty;
                sink(e.triple);
            }
        }
        if self.heap.is_empty() {
            self.total = 0.0;
        }
        // The heap kind only matters at push time (key computation), but keep
        // the parameter so the call sites read naturally.
        let _ = kind;
        taken
    }

    /// Checkpoint encoding: entries in the heap's internal array order (see
    /// [`crate::buffer::heap_buffer::HeapBuffer::encode_into`] — rebuilding
    /// from an already-valid heap array preserves the layout, so restored
    /// tie-breaks and splits replay bit-identically).
    fn encode_into(&self, out: &mut Vec<u8>) {
        use crate::codec::{put_f64, put_u32, put_u64, put_usize};
        put_f64(out, self.total);
        put_u64(out, self.next_seq);
        put_usize(out, self.heap.len());
        for e in self.heap.iter() {
            put_f64(out, e.key);
            put_u64(out, e.seq);
            put_u32(out, e.triple.origin.raw());
            put_f64(out, e.triple.birth.0);
            put_f64(out, e.triple.qty);
            put_usize(out, e.triple.path.len());
            for p in &e.triple.path {
                put_u32(out, p.raw());
            }
        }
    }

    fn decode_from(r: &mut crate::codec::ByteReader<'_>) -> crate::error::Result<Self> {
        let total = r.f64()?;
        let next_seq = r.u64()?;
        let len = r.usize()?;
        // Each entry is ≥ 44 bytes (key, seq, origin, birth, qty, path len).
        if r.remaining() < len.saturating_mul(44) {
            return Err(r.corrupt(format!("truncated: {len} path-heap entries declared")));
        }
        let mut entries = Vec::with_capacity(len);
        for _ in 0..len {
            let key = r.f64()?;
            let seq = r.u64()?;
            let origin = VertexId::new(r.u32()?);
            let birth = Timestamp(r.f64()?);
            let qty = r.f64()?;
            let hops = r.usize()?;
            if r.remaining() < hops.saturating_mul(4) {
                return Err(r.corrupt(format!("truncated: path of {hops} hops declared")));
            }
            let mut path = Vec::with_capacity(hops);
            for _ in 0..hops {
                path.push(VertexId::new(r.u32()?));
            }
            entries.push(Entry {
                key,
                seq,
                triple: PathTriple {
                    origin,
                    birth,
                    qty,
                    path,
                },
            });
        }
        Ok(PathHeapBuffer {
            heap: BinaryHeap::from(entries),
            total,
            next_seq,
        })
    }

    fn entries_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<Entry>()
    }

    /// Paths bytes recounted from the heap: the reference the running
    /// counters are checked against in debug builds.
    fn paths_bytes(&self) -> usize {
        self.heap.iter().map(|e| vec_bytes(&e.triple.path)).sum()
    }
}

/// Generation-time provenance tracking (Section 4.1) extended with transfer
/// paths (Section 6).
#[derive(Clone, Debug)]
pub struct GenerationPathTracker {
    kind: HeapKind,
    buffers: Vec<PathHeapBuffer>,
    /// Paths bytes of each buffer, kept beside the buffers so that no
    /// footprint update scans a heap. Like the running totals below, it is
    /// bookkeeping for the footprint figure, not provenance state, and is
    /// left out of it.
    buffer_paths_bytes: Vec<usize>,
    /// Running sums of the buffers' entries and paths bytes (see
    /// [`ProvenanceTracker::footprint`]).
    entries_bytes: usize,
    paths_bytes: usize,
    processed: usize,
}

impl GenerationPathTracker {
    /// Path tracking on top of the least-recently-born policy.
    pub fn least_recently_born(num_vertices: usize) -> Self {
        Self::with_kind(num_vertices, HeapKind::LeastRecentlyBorn)
    }

    /// Path tracking on top of the most-recently-born policy.
    pub fn most_recently_born(num_vertices: usize) -> Self {
        Self::with_kind(num_vertices, HeapKind::MostRecentlyBorn)
    }

    /// Build a tracker with an explicit heap kind.
    pub fn with_kind(num_vertices: usize, kind: HeapKind) -> Self {
        GenerationPathTracker {
            kind,
            buffers: (0..num_vertices).map(|_| PathHeapBuffer::new()).collect(),
            buffer_paths_bytes: vec![0; num_vertices],
            entries_bytes: 0,
            paths_bytes: 0,
            processed: 0,
        }
    }

    /// The underlying generation-time policy.
    pub fn kind(&self) -> HeapKind {
        self.kind
    }

    /// The path-annotated triples buffered at `v`, in unspecified (heap)
    /// order. Use [`GenerationPathTracker::sorted_elements`] for a
    /// deterministic view.
    pub fn elements(&self, v: VertexId) -> Vec<&PathTriple> {
        self.buffers[v.index()]
            .heap
            .iter()
            .map(|e| &e.triple)
            .collect()
    }

    /// The path-annotated triples buffered at `v`, sorted by birth time then
    /// origin (deterministic, for reporting and tests).
    pub fn sorted_elements(&self, v: VertexId) -> Vec<PathTriple> {
        let mut out: Vec<PathTriple> = self.buffers[v.index()]
            .heap
            .iter()
            .map(|e| e.triple.clone())
            .collect();
        out.sort_by(|a, b| {
            a.birth
                .cmp(&b.birth)
                .then_with(|| a.origin.cmp(&b.origin))
                .then_with(|| a.qty.total_cmp(&b.qty))
        });
        out
    }

    /// Average path length (number of relays) over all buffered elements.
    pub fn average_path_length(&self) -> f64 {
        let mut count = 0usize;
        let mut hops = 0usize;
        for b in &self.buffers {
            for e in &b.heap {
                count += 1;
                hops += e.triple.hops();
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
        self.buffers.iter().map(|b| b.heap.len()).sum()
    }
}

impl ProvenanceTracker for GenerationPathTracker {
    fn name(&self) -> &'static str {
        match self.kind {
            HeapKind::LeastRecentlyBorn => "Least Recently Born + paths",
            HeapKind::MostRecentlyBorn => "Most Recently Born + paths",
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

        let kind = self.kind;
        let transmitter = r.src;
        let taken = src_buf.take(kind, r.qty, src_paths, |mut triple| {
            // Relayed element: extend its path with the transmitter vertex.
            triple.path.push(transmitter);
            dst_buf.push(kind, triple, dst_paths);
        });

        let residue = r.qty - taken;
        if !qty_is_zero(residue) {
            // Newborn element (Algorithm 2, line 19): origin and birth time
            // are the source vertex and the interaction time; the path starts
            // at the origin.
            dst_buf.push(
                kind,
                PathTriple {
                    origin: r.src,
                    birth: r.time,
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
                .heap
                .iter()
                .map(|e| (e.triple.origin, e.triple.qty)),
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
            index_bytes: std::mem::size_of::<PathHeapBuffer>() * self.buffers.capacity(),
        }
    }

    fn interactions_processed(&self) -> usize {
        self.processed
    }

    crate::impl_migration_hooks!();
}

impl MigratableTracker for GenerationPathTracker {
    type Taken = TakenState;

    fn extract(&mut self, v: VertexId) -> TakenState {
        let i = v.index();
        let buf = std::mem::replace(&mut self.buffers[i], PathHeapBuffer::new());
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
        let buf = PathHeapBuffer::decode_from(r)?;
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
    use crate::tracker::generation_time::GenerationTimeTracker;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    /// Paths are extra information: the origin decomposition must match the
    /// plain generation-time tracker at every step.
    #[test]
    fn origins_match_plain_generation_time() {
        for most_recent in [false, true] {
            let mut with_paths = if most_recent {
                GenerationPathTracker::most_recently_born(3)
            } else {
                GenerationPathTracker::least_recently_born(3)
            };
            let mut plain = if most_recent {
                GenerationTimeTracker::most_recently_born(3)
            } else {
                GenerationTimeTracker::least_recently_born(3)
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
                        "most_recent={most_recent}, mismatch at v{i}"
                    );
                }
            }
        }
    }

    /// Table 3's oldest-first buffers, with the routes attached: after the
    /// second interaction, v0 holds 3 units born at v1 (route v1 → v2) and 2
    /// newborn units from v2.
    #[test]
    fn paths_record_routes_under_lrb() {
        let rs = paper_running_example();
        let mut t = GenerationPathTracker::least_recently_born(3);
        t.process_all(&rs[..2]);
        let elements = t.sorted_elements(v(0));
        assert_eq!(elements.len(), 2);
        let relayed = elements.iter().find(|e| e.origin == v(1)).unwrap();
        assert_eq!(relayed.path, vec![v(1), v(2)]);
        assert_eq!(relayed.birth, Timestamp::new(1.0));
        assert_eq!(relayed.hops(), 1);
        let newborn = elements.iter().find(|e| e.origin == v(2)).unwrap();
        assert_eq!(newborn.path, vec![v(2)]);
        assert_eq!(newborn.birth, Timestamp::new(3.0));
        assert_eq!(newborn.hops(), 0);
    }

    /// Splitting the oldest triple keeps the remainder (and its path) at the
    /// source and ships a fragment with an extended path.
    #[test]
    fn split_fragments_inherit_and_extend_path() {
        let rs = paper_running_example();
        let mut t = GenerationPathTracker::least_recently_born(3);
        // After the 4th interaction (v1→v2, q=7), Table 3 row 4: B_v2 holds
        // {(1,1,3),(1,5,4)}. The (1,1,3) element was relayed v1→v0? No: it
        // went v1 → v2 → v0 → v1 → v2, i.e. three relays after birth.
        t.process_all(&rs[..4]);
        let at_v2 = t.sorted_elements(v(2));
        assert_eq!(at_v2.len(), 2);
        let travelled = at_v2
            .iter()
            .find(|e| e.birth == Timestamp::new(1.0))
            .unwrap();
        assert_eq!(travelled.origin, v(1));
        assert!(qty_approx_eq(travelled.qty, 3.0));
        assert_eq!(travelled.path, vec![v(1), v(2), v(0), v(1)]);
        assert_eq!(travelled.hops(), 3);
        let newborn = at_v2
            .iter()
            .find(|e| e.birth == Timestamp::new(5.0))
            .unwrap();
        assert_eq!(newborn.origin, v(1));
        assert!(qty_approx_eq(newborn.qty, 4.0));
        assert_eq!(newborn.path, vec![v(1)]);
        // Interaction 5 (v2→v1, q=2) under LRB splits the oldest triple
        // (birth 1): 2 units travel on, 1 unit stays with the original path.
        t.process(&rs[4]);
        let kept = t.sorted_elements(v(2));
        let kept_old = kept
            .iter()
            .find(|e| e.birth == Timestamp::new(1.0))
            .unwrap();
        assert!(qty_approx_eq(kept_old.qty, 1.0));
        assert_eq!(kept_old.path, vec![v(1), v(2), v(0), v(1)]);
        let moved = t.sorted_elements(v(1));
        assert_eq!(moved.len(), 1);
        assert!(qty_approx_eq(moved[0].qty, 2.0));
        assert_eq!(moved[0].path, vec![v(1), v(2), v(0), v(1), v(2)]);
    }

    #[test]
    fn mrb_prefers_newest_for_transfer() {
        // Two generations buffered at vertex 0, then a partial transfer.
        let mut t = GenerationPathTracker::most_recently_born(3);
        t.process(&Interaction::new(1u32, 0u32, 1.0, 5.0)); // newborn at v1, t=1
        t.process(&Interaction::new(2u32, 0u32, 2.0, 5.0)); // newborn at v2, t=2
        t.process(&Interaction::new(0u32, 1u32, 3.0, 4.0)); // transfer 4 of 10
                                                            // MRB ships the t=2 units first.
        let at_v1 = t.sorted_elements(v(1));
        assert_eq!(at_v1.len(), 1);
        assert_eq!(at_v1[0].origin, v(2));
        assert!(qty_approx_eq(at_v1[0].qty, 4.0));
        assert_eq!(at_v1[0].path, vec![v(2), v(0)]);
        // 1 unit of the t=2 generation and all 5 of the t=1 generation remain.
        let at_v0 = t.sorted_elements(v(0));
        assert_eq!(at_v0.len(), 2);
        assert!(qty_approx_eq(t.buffered(v(0)), 6.0));
    }

    #[test]
    fn long_chain_grows_paths_and_footprint() {
        let n = 12u32;
        let mut t = GenerationPathTracker::least_recently_born(n as usize);
        for i in 0..n - 1 {
            t.process(&Interaction::new(i, i + 1, i as f64 + 1.0, 2.0));
        }
        let last = t.sorted_elements(v(n - 1));
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].origin, v(0));
        assert_eq!(last[0].hops(), (n - 2) as usize);
        let fp = t.footprint();
        assert!(fp.entries_bytes > 0);
        assert!(fp.paths_bytes > 0);
        assert_eq!(
            fp.total(),
            fp.entries_bytes + fp.paths_bytes + fp.index_bytes
        );
        assert!(t.average_path_length() > 1.0);
    }

    #[test]
    fn invariants_names_and_accessors() {
        let mut t = GenerationPathTracker::least_recently_born(3);
        t.process_all(&paper_running_example());
        assert!(t.check_all_invariants());
        assert_eq!(t.name(), "Least Recently Born + paths");
        assert_eq!(
            GenerationPathTracker::most_recently_born(1).name(),
            "Most Recently Born + paths"
        );
        assert_eq!(t.kind(), HeapKind::LeastRecentlyBorn);
        assert_eq!(t.interactions_processed(), 6);
        assert!(t.total_elements() > 0);
        assert!(!t.elements(v(2)).is_empty());
        assert_eq!(
            GenerationPathTracker::least_recently_born(2).average_path_length(),
            0.0
        );
    }

    #[test]
    fn zero_quantity_elements_are_dropped() {
        let mut buf = PathHeapBuffer::new();
        let mut paths_bytes = 0;
        buf.push(
            HeapKind::LeastRecentlyBorn,
            PathTriple {
                origin: v(0),
                birth: Timestamp::new(1.0),
                qty: 0.0,
                path: vec![v(0)],
            },
            &mut paths_bytes,
        );
        assert!(buf.heap.is_empty());
        assert_eq!(buf.total, 0.0);
        assert_eq!(paths_bytes, 0);
    }
}
