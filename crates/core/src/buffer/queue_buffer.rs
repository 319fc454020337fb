//! Queue/stack buffers for the receipt-order selection policies
//! (Section 4.2).
//!
//! Each buffer holds provenance pairs `(o, q)` in the order they were
//! received. The **FIFO** policy selects the *least recently added* pairs
//! first (a queue, natural for pipelines and traffic networks); the **LIFO**
//! policy selects the *most recently added* pairs first (a stack, natural for
//! cash registers and wallets). Transferred pairs are appended to the
//! destination buffer in selection order.
//!
//! ## Allocation and capacity
//!
//! A buffer is one `VecDeque` ring of 12-byte slots: the 4-byte origin and
//! the 8-byte quantity, packed with no padding, where a [`Pair`] takes 16
//! bytes. The slot type stays private because Rust forbids references to
//! its unaligned quantity, so [`QueueBuffer::iter`] and
//! [`QueueBuffer::peek`] hand out [`Pair`] values.
//!
//! The ring also keeps its spare slots bounded. On heavy-tailed streams the
//! hubs' queues hold most of the pairs, and they drain as well as fill:
//!
//! * a queue grows by doubling up to 64 slots, and by an eighth of its
//!   length beyond, the rule the sparse provenance lists follow too;
//! * after a transfer, a queue of ℓ pairs that holds more than
//!   `max(64, 2ℓ)` slots shrinks to `ℓ + ℓ/8`, so an emptied queue frees
//!   any buffer of more than 64 slots. The factor 2 keeps a queue that
//!   drains a little at a time from shrinking after every transfer.
//!
//! So a queue of ℓ pairs holds at most `max(64, 2ℓ)` slots;
//! `tests/queue_capacity.rs` checks the bound.

use std::collections::VecDeque;

use crate::buffer::Pair;
use crate::ids::VertexId;
use crate::memory::{deque_bytes, grown_capacity, MemoryFootprint, SMALL_BUFFER};
use crate::quantity::{qty_gt, qty_is_zero, Quantity};

/// Which end of the buffer is selected for transfers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// First-in-first-out: select the least recently added pair.
    Fifo,
    /// Last-in-first-out: select the most recently added pair.
    Lifo,
}

/// One stored pair in 12 bytes (see the module docs).
#[derive(Clone, Copy, Debug)]
#[repr(C, packed(4))]
struct Slot {
    origin: u32,
    qty: Quantity,
}

impl From<Pair> for Slot {
    #[inline]
    fn from(p: Pair) -> Self {
        Slot {
            origin: p.origin.raw(),
            qty: p.qty,
        }
    }
}

impl From<Slot> for Pair {
    #[inline]
    fn from(s: Slot) -> Self {
        Pair {
            origin: VertexId::new(s.origin),
            qty: s.qty,
        }
    }
}

/// A vertex buffer organised as a FIFO queue or LIFO stack of pairs.
#[derive(Clone, Debug)]
pub struct QueueBuffer {
    discipline: Discipline,
    deque: VecDeque<Slot>,
    total: Quantity,
    coalesce: bool,
}

impl QueueBuffer {
    /// Create an empty buffer with the given discipline.
    ///
    /// Pairs are stored exactly as received (no merging), which reproduces
    /// the buffer contents of Table 4 in the paper verbatim.
    pub fn new(discipline: Discipline) -> Self {
        QueueBuffer {
            discipline,
            deque: VecDeque::new(),
            total: 0.0,
            coalesce: false,
        }
    }

    /// Create a buffer that merges adjacent pairs with the same origin.
    ///
    /// Coalescing does not change which origins contribute to any transfer
    /// (a run of same-origin pairs is selected contiguously under both FIFO
    /// and LIFO), but it reduces the number of stored entries. It is exposed
    /// as an ablation knob for the memory experiments (Table 8).
    pub fn new_coalescing(discipline: Discipline) -> Self {
        QueueBuffer {
            discipline,
            deque: VecDeque::new(),
            total: 0.0,
            coalesce: true,
        }
    }

    /// The buffer discipline.
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// Total buffered quantity `|B_v|`.
    #[inline]
    pub fn total(&self) -> Quantity {
        self.total
    }

    /// Number of pairs currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.deque.len()
    }

    /// True if no pairs are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.deque.is_empty()
    }

    /// Append a received pair (always at the back — this is the "order of
    /// receipt").
    pub fn push(&mut self, pair: Pair) {
        if qty_is_zero(pair.qty) {
            return;
        }
        self.total += pair.qty;
        if self.coalesce {
            if let Some(last) = self.deque.back_mut() {
                if last.origin == pair.origin.raw() {
                    last.qty += pair.qty;
                    return;
                }
            }
        }
        let len = self.deque.len();
        if len == self.deque.capacity() {
            self.deque.reserve_exact(grown_capacity(len, len, 1) - len);
        }
        self.deque.push_back(pair.into());
    }

    /// The slot that the discipline would select next.
    fn selected_mut(&mut self) -> Option<&mut Slot> {
        match self.discipline {
            Discipline::Fifo => self.deque.front_mut(),
            Discipline::Lifo => self.deque.back_mut(),
        }
    }

    /// Peek at the pair that the discipline would select next.
    pub fn peek(&self) -> Option<Pair> {
        match self.discipline {
            Discipline::Fifo => self.deque.front(),
            Discipline::Lifo => self.deque.back(),
        }
        .map(|&s| s.into())
    }

    /// Select up to `amount` quantity, invoking `sink` for each transferred
    /// pair (whole or split fragment) in selection order.
    ///
    /// Returns the quantity actually taken, which is `min(amount, total)`.
    pub fn take(&mut self, amount: Quantity, mut sink: impl FnMut(Pair)) -> Quantity {
        let mut residue = amount;
        let mut taken = 0.0;
        while residue > 0.0 && !qty_is_zero(residue) {
            let Some(top) = self.selected_mut() else {
                break;
            };
            if qty_gt(top.qty, residue) {
                // Split the selected pair.
                top.qty -= residue;
                let origin = VertexId::new(top.origin);
                self.total -= residue;
                taken += residue;
                sink(Pair {
                    origin,
                    qty: residue,
                });
                residue = 0.0;
            } else {
                let pair = Pair::from(*top);
                match self.discipline {
                    Discipline::Fifo => self.deque.pop_front(),
                    Discipline::Lifo => self.deque.pop_back(),
                };
                self.total -= pair.qty;
                residue -= pair.qty;
                taken += pair.qty;
                sink(pair);
            }
        }
        let len = self.deque.len();
        if len == 0 {
            self.total = 0.0;
        }
        if self.deque.capacity() > SMALL_BUFFER.max(2 * len) {
            self.deque.shrink_to(len + len / 8);
        }
        taken
    }

    /// Iterate over the stored pairs, from least recently to most recently
    /// added (the display order of Table 4).
    pub fn iter(&self) -> impl Iterator<Item = Pair> + '_ {
        self.deque.iter().map(|&s| s.into())
    }

    /// The stored pairs as a vector, least recently added first.
    pub fn as_pairs(&self) -> Vec<(VertexId, Quantity)> {
        self.iter().map(|p| (p.origin, p.qty)).collect()
    }

    /// Append the checkpoint encoding (pairs in receipt order).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use crate::codec::{put_bool, put_f64, put_u32, put_u8, put_usize};
        put_u8(
            out,
            match self.discipline {
                Discipline::Fifo => 0,
                Discipline::Lifo => 1,
            },
        );
        put_bool(out, self.coalesce);
        put_f64(out, self.total);
        put_usize(out, self.deque.len());
        for &Slot { origin, qty } in &self.deque {
            put_u32(out, origin);
            put_f64(out, qty);
        }
    }

    /// Decode a buffer written by [`Self::encode_into`].
    pub fn decode_from(r: &mut crate::codec::ByteReader<'_>) -> crate::error::Result<Self> {
        let discipline = match r.u8()? {
            0 => Discipline::Fifo,
            1 => Discipline::Lifo,
            other => return Err(r.corrupt(format!("unknown queue discipline {other}"))),
        };
        let coalesce = r.bool()?;
        let total = r.f64()?;
        let len = r.usize()?;
        const PAIR_BYTES: usize = 12;
        if r.remaining() < len.saturating_mul(PAIR_BYTES) {
            return Err(r.corrupt(format!("truncated: {len} queue pairs declared")));
        }
        let mut deque = VecDeque::with_capacity(len);
        for _ in 0..len {
            let origin = r.u32()?;
            let qty = r.f64()?;
            deque.push_back(Slot { origin, qty });
        }
        Ok(QueueBuffer {
            discipline,
            deque,
            total,
            coalesce,
        })
    }
}

impl MemoryFootprint for QueueBuffer {
    fn footprint_bytes(&self) -> usize {
        deque_bytes(&self.deque)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantity::qty_approx_eq;

    fn p(origin: u32, qty: f64) -> Pair {
        Pair::new(origin, qty)
    }

    #[test]
    fn empty_buffer() {
        let b = QueueBuffer::new(Discipline::Fifo);
        assert!(b.is_empty());
        assert_eq!(b.total(), 0.0);
        assert!(b.peek().is_none());
        assert_eq!(b.discipline(), Discipline::Fifo);
    }

    #[test]
    fn push_and_total() {
        let mut b = QueueBuffer::new(Discipline::Fifo);
        b.push(p(1, 3.0));
        b.push(p(2, 2.0));
        assert_eq!(b.total(), 5.0);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn default_buffer_keeps_pairs_separate() {
        let mut b = QueueBuffer::new(Discipline::Lifo);
        b.push(p(1, 3.0));
        b.push(p(1, 2.0));
        assert_eq!(b.len(), 2);
        assert_eq!(
            b.as_pairs(),
            vec![(VertexId::new(1), 3.0), (VertexId::new(1), 2.0)]
        );
    }

    #[test]
    fn coalescing_buffer_merges_adjacent_same_origin() {
        let mut b = QueueBuffer::new_coalescing(Discipline::Lifo);
        b.push(p(1, 3.0));
        b.push(p(1, 2.0));
        b.push(p(2, 1.0));
        b.push(p(1, 4.0));
        assert_eq!(b.len(), 3);
        assert_eq!(b.total(), 10.0);
        assert_eq!(
            b.as_pairs(),
            vec![
                (VertexId::new(1), 5.0),
                (VertexId::new(2), 1.0),
                (VertexId::new(1), 4.0)
            ]
        );
    }

    #[test]
    fn push_ignores_zero() {
        let mut b = QueueBuffer::new(Discipline::Fifo);
        b.push(p(1, 0.0));
        assert!(b.is_empty());
    }

    #[test]
    fn fifo_selects_front() {
        let mut b = QueueBuffer::new(Discipline::Fifo);
        b.push(p(1, 1.0));
        b.push(p(2, 1.0));
        assert_eq!(b.peek().unwrap().origin, VertexId::new(1));
        let mut moved = Vec::new();
        b.take(2.0, |x| moved.push(x.origin.raw()));
        assert_eq!(moved, vec![1, 2]);
    }

    #[test]
    fn lifo_selects_back() {
        let mut b = QueueBuffer::new(Discipline::Lifo);
        b.push(p(1, 1.0));
        b.push(p(2, 1.0));
        assert_eq!(b.peek().unwrap().origin, VertexId::new(2));
        let mut moved = Vec::new();
        b.take(2.0, |x| moved.push(x.origin.raw()));
        assert_eq!(moved, vec![2, 1]);
    }

    #[test]
    fn take_splits_fifo() {
        let mut b = QueueBuffer::new(Discipline::Fifo);
        b.push(p(1, 4.0));
        b.push(p(2, 3.0));
        let mut moved = Vec::new();
        let taken = b.take(5.0, |x| moved.push(x));
        assert_eq!(taken, 5.0);
        assert_eq!(moved.len(), 2);
        assert_eq!(moved[0].qty, 4.0);
        assert_eq!(moved[1].qty, 1.0);
        assert_eq!(moved[1].origin, VertexId::new(2));
        assert!(qty_approx_eq(b.total(), 2.0));
        assert_eq!(b.peek().unwrap().origin, VertexId::new(2));
    }

    #[test]
    fn take_splits_lifo_keeps_remainder_on_top() {
        let mut b = QueueBuffer::new(Discipline::Lifo);
        b.push(p(1, 1.0));
        b.push(p(2, 4.0));
        let mut moved = Vec::new();
        b.take(2.0, |x| moved.push(x));
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0], p(2, 2.0));
        // Remainder of the split pair is still the LIFO top.
        assert_eq!(b.peek().unwrap().origin, VertexId::new(2));
        assert!(qty_approx_eq(b.peek().unwrap().qty, 2.0));
    }

    #[test]
    fn take_more_than_available() {
        let mut b = QueueBuffer::new(Discipline::Fifo);
        b.push(p(1, 1.5));
        let taken = b.take(10.0, |_| {});
        assert_eq!(taken, 1.5);
        assert!(b.is_empty());
        assert_eq!(b.total(), 0.0);
    }

    #[test]
    fn take_exact_boundary_is_whole_transfer() {
        let mut b = QueueBuffer::new(Discipline::Lifo);
        b.push(p(1, 2.0));
        let mut moved = Vec::new();
        b.take(2.0, |x| moved.push(x));
        assert_eq!(moved.len(), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn take_zero_is_noop() {
        let mut b = QueueBuffer::new(Discipline::Fifo);
        b.push(p(1, 2.0));
        let mut calls = 0;
        assert_eq!(b.take(0.0, |_| calls += 1), 0.0);
        assert_eq!(calls, 0);
        assert_eq!(b.total(), 2.0);
    }

    #[test]
    fn conservation_under_random_takes() {
        let mut b = QueueBuffer::new(Discipline::Lifo);
        for i in 0..20 {
            b.push(p(i % 5, 0.7));
        }
        let before = b.total();
        let mut out = 0.0;
        for step in 1..10 {
            out += b.take(0.3 * step as f64, |_| {});
        }
        assert!(qty_approx_eq(before, out + b.total()));
    }

    #[test]
    fn footprint_grows_with_contents() {
        let mut b = QueueBuffer::new(Discipline::Fifo);
        let empty = b.footprint_bytes();
        for i in 0..100 {
            b.push(p(i, 1.0)); // distinct origins: no coalescing
        }
        assert!(b.footprint_bytes() > empty);
        assert!(b.footprint_bytes() >= 100 * std::mem::size_of::<Slot>());
    }

    #[test]
    fn slots_take_12_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 12);
        let mut b = QueueBuffer::new(Discipline::Fifo);
        b.push(p(7, 1.5));
        assert_eq!(b.footprint_bytes(), 4 * 12);
    }

    /// Growth doubles to 64 slots and adds an eighth beyond; a transfer
    /// that leaves more than `max(64, 2ℓ)` slots for ℓ pairs shrinks the
    /// ring to `ℓ + ℓ/8`, and an emptied queue frees a large ring.
    #[test]
    fn capacity_stays_within_the_bound() {
        for discipline in [Discipline::Fifo, Discipline::Lifo] {
            let mut b = QueueBuffer::new(discipline);
            let slots = |b: &QueueBuffer| b.footprint_bytes() / 12;
            for i in 0..1000 {
                b.push(p(i, 1.0));
                let len = b.len();
                assert!(slots(&b) <= SMALL_BUFFER.max(len + len / 8), "{len}");
            }
            // Draining a little keeps the ring; draining past half shrinks it.
            let before = slots(&b);
            b.take(100.0, |_| {});
            assert_eq!(slots(&b), before);
            b.take(500.0, |_| {});
            assert_eq!((b.len(), slots(&b)), (400, 450));
            assert!(qty_approx_eq(b.total(), 400.0));
            b.take(b.total(), |_| {});
            assert!(b.is_empty());
            assert_eq!(slots(&b), 0);
            // A small emptied ring is kept for reuse.
            for i in 0..40 {
                b.push(p(i, 1.0));
            }
            b.take(40.0, |_| {});
            assert_eq!(slots(&b), 64);
        }
    }

    #[test]
    fn codec_round_trips_contents_and_flags() {
        for make in [QueueBuffer::new, QueueBuffer::new_coalescing] {
            for disc in [Discipline::Fifo, Discipline::Lifo] {
                let mut b = make(disc);
                for i in 0..12 {
                    b.push(p(i % 4, 0.3 + f64::from(i)));
                }
                b.take(2.7, |_| {});
                let mut buf = Vec::new();
                b.encode_into(&mut buf);
                let mut r = crate::codec::ByteReader::new(&buf, "states");
                let restored = QueueBuffer::decode_from(&mut r).unwrap();
                r.expect_end().unwrap();
                assert_eq!(restored.discipline(), b.discipline());
                assert_eq!(restored.coalesce, b.coalesce);
                assert_eq!(restored.total().to_bits(), b.total().to_bits());
                assert_eq!(restored.as_pairs(), b.as_pairs());
            }
        }
    }

    #[test]
    fn iter_in_receipt_order() {
        let mut b = QueueBuffer::new(Discipline::Lifo);
        b.push(p(3, 1.0));
        b.push(p(1, 2.0));
        let origins: Vec<u32> = b.iter().map(|x| x.origin.raw()).collect();
        assert_eq!(origins, vec![3, 1]);
    }
}
