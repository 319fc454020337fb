//! Sparse provenance vectors: ordered `(origin, quantity)` lists
//! (Section 4.3, "Sparse vector representations").
//!
//! In sparse graphs each vertex receives quantities from a small subset of
//! origins, so instead of a `|V|`-length dense vector the paper stores an
//! ordered list of `(u, q)` pairs with `q > 0`. Vector-wise operations become
//! ordered-list merges. The windowing and budget techniques of Section 5.3
//! operate on this representation, so the entry key is an [`Origin`] (which
//! can also be the artificial vertex α or the "untracked" bucket).
//!
//! ## Layout: packed keys, split arrays
//!
//! Internally the list is stored structure-of-arrays: a `Vec<u32>` of packed
//! origin keys and a parallel `Vec<f64>` of quantities. The key encoding is
//! order-preserving (vertices, then groups, then the untracked bucket, then
//! α — exactly the [`Origin`] `Ord`), so ordered-list merges compare plain
//! `u32`s, and the compare-dominated merge phases stream a 4-byte key array
//! (16 keys per cache line) instead of 16-byte `(Origin, f64)` tuples. The
//! encoding caps concrete vertex ids at `2³² − 2¹⁶` and group ids at
//! `2¹⁶ − 2` — far beyond the paper's largest dataset (12M vertices).
//!
//! ## Allocation and capacity
//!
//! List merges are the hottest operation in the whole system: proportional
//! tracking performs one merge per interaction, and on Bitcoin-shaped
//! streams the lists grow to thousands of entries (Figure 6). A merge that
//! adds no origin to the destination therefore allocates nothing:
//!
//! * [`SparseProvenance::merge_add`] / [`merge_add_scaled`] merge *in
//!   place* on the destination: source origins that already exist are a
//!   pure `+=` on the matched prefix and small tails are inserted
//!   directly. Only a large unmatched remainder rebuilds the list, into
//!   fresh buffers sized for the result that replace the destination's;
//! * tiny sources (≤ 4 entries, e.g. newborn singletons) skip the merge
//!   entirely and binary-search-insert instead;
//! * [`SparseProvenance::take_all_from`] (the full-relay case of
//!   Algorithm 3) is an O(1) pointer swap when the destination is empty;
//! * [`SparseProvenance::transfer_from`] performs the proportional split
//!   (destination gains `f·src`, source keeps `(1−f)·src`) with the source
//!   rewritten in place during the same merge passes;
//! * [`SparseProvenance::shrink_keep_largest_with`] selects the surviving
//!   entries with `select_nth_unstable_by` and a boolean [`MergeScratch`]
//!   mask — O(ℓ) instead of the former full sort + `BTreeSet` build.
//!
//! The allocation-free steady state is locked in by the counting-allocator
//! regression test in `tests/alloc_counting.rs`.
//!
//! The lists also stay tight: every list a relay touches holds at most
//! `max(64, ℓ + ℓ/8)` slots for its ℓ entries, where `Vec` doubling alone
//! would leave up to half of a long list's slots spare (and on heavy-tailed
//! streams the hubs' long lists hold most of the bytes):
//!
//! * a list grows by doubling up to 64 slots, and by an eighth of its
//!   length beyond (the rule `crate::memory` shares with the receipt-order
//!   queues);
//! * a rebuilt list, a source that lost entries below the epsilon and a
//!   source emptied by a full relay are trimmed to their length when over
//!   the bound, so an emptied source frees buffers of more than 64 slots.
//!
//! `tests/list_capacity.rs` checks the bound.
//!
//! ## Mass conservation
//!
//! Scaling an entry below the library epsilon used to *drop* it, leaking
//! quantity out of the Definition 2 invariant. All kernels now fold the
//! dropped mass into the artificial-vertex entry `(α, ·)` instead, so
//! `total()` is preserved exactly under arbitrary merge/scale cycles (the
//! α entry is also where windowing and budget shrinking park forgotten
//! provenance, Section 5.3).
//!
//! [`merge_add_scaled`]: SparseProvenance::merge_add_scaled

use serde::{Deserialize, Serialize};

use crate::ids::{GroupId, Origin, VertexId};
use crate::memory::{grown_capacity, vec_bytes, MemoryFootprint, SMALL_BUFFER};
use crate::origins::OriginSet;
use crate::quantity::{qty_is_zero, qty_sum, Quantity};

/// Reusable scratch space for the shrink kernel (selection order and keep
/// mask). One instance per tracker is enough; the buffers warm up to the
/// largest list ever shrunk and are then reused allocation-free.
#[derive(Clone, Debug, Default)]
pub struct MergeScratch {
    /// Index permutation used by the shrink selection.
    order: Vec<usize>,
    /// Boolean keep-mask used by the shrink compaction.
    mask: Vec<bool>,
}

impl MergeScratch {
    /// Create an empty scratch (no capacity reserved yet).
    pub fn new() -> Self {
        MergeScratch::default()
    }

    /// Heap bytes currently reserved by the scratch buffers.
    pub fn footprint_bytes(&self) -> usize {
        vec_bytes(&self.order) + vec_bytes(&self.mask)
    }
}

/// Packed, order-preserving encoding of an [`Origin`] (see the module docs).
type Key = u32;

/// First key of the group range; vertex ids must stay below this.
const GROUP_BASE: Key = 0xFFFF_0000;
/// Key of [`Origin::Untracked`].
const UNTRACKED_KEY: Key = 0xFFFF_FFFE;
/// Key of [`Origin::Unknown`] (α) — the greatest key, so α always sits at
/// the end of the list and O(1) fold/append operations can target it.
const UNKNOWN_KEY: Key = 0xFFFF_FFFF;

/// Checkpoint tag written before every list by
/// [`SparseProvenance::encode_tagged_into`].
const SPARSE_REPR_TAG: u8 = 0;

#[inline]
fn encode(origin: Origin) -> Key {
    match origin {
        Origin::Vertex(v) => {
            assert!(
                v.0 < GROUP_BASE,
                "vertex id {} exceeds the packed-key limit {}",
                v.0,
                GROUP_BASE - 1
            );
            v.0
        }
        Origin::Group(g) => {
            assert!(
                g.0 < UNTRACKED_KEY - GROUP_BASE,
                "group id {} exceeds the packed-key limit {}",
                g.0,
                UNTRACKED_KEY - GROUP_BASE - 1
            );
            GROUP_BASE + g.0
        }
        Origin::Untracked => UNTRACKED_KEY,
        Origin::Unknown => UNKNOWN_KEY,
    }
}

#[inline]
fn decode(key: Key) -> Origin {
    if key < GROUP_BASE {
        Origin::Vertex(VertexId(key))
    } else if key == UNKNOWN_KEY {
        Origin::Unknown
    } else if key == UNTRACKED_KEY {
        Origin::Untracked
    } else {
        Origin::Group(GroupId(key - GROUP_BASE))
    }
}

/// A sparse provenance vector: entries sorted by origin, all quantities > 0.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SparseProvenance {
    /// Packed origin keys, strictly increasing.
    keys: Vec<Key>,
    /// Quantities, parallel to `keys`.
    vals: Vec<Quantity>,
}

/// Source lists at most this long merge via per-entry binary-search adds
/// instead of a full two-list merge, provided the destination is
/// substantially longer (see [`small_source_case`]) — O(ℓ_src · log ℓ_dst)
/// beats scanning a long destination for the newborn/singleton sources that
/// dominate many streams.
const SMALL_MERGE: usize = 4;

/// True when a merge should take the per-entry binary-search route: a tiny
/// source against a much larger destination. For comparably-sized small
/// lists the staged linear merge is faster than binary searching.
#[inline]
fn small_source_case(dst_len: usize, src_len: usize) -> bool {
    src_len <= SMALL_MERGE && dst_len >= 8 * src_len
}

/// Remainders at most this long are merged by per-entry insertion (the
/// `memmove` of a ≤ 64-entry tail is cheaper than a rebuild).
const SMALL_TAIL: usize = 64;

/// Make room for `extra` more entries in both buffers, under the growth
/// rule the receipt-order queues share ([`grown_capacity`]): doubling up to
/// [`SMALL_BUFFER`] slots, and beyond that by an eighth of the list's
/// length, or by `extra` when that is more.
#[inline]
fn reserve(keys: &mut Vec<Key>, vals: &mut Vec<Quantity>, extra: usize) {
    let len = keys.len();
    if keys.capacity() - len >= extra {
        return;
    }
    let target = grown_capacity(len, keys.capacity(), extra);
    keys.reserve_exact(target - len);
    vals.reserve_exact(target - len);
}

/// Insert one entry at `i`, growing the buffers as [`reserve`] does.
#[inline]
fn insert(keys: &mut Vec<Key>, vals: &mut Vec<Quantity>, i: usize, key: Key, q: Quantity) {
    reserve(keys, vals, 1);
    keys.insert(i, key);
    vals.insert(i, q);
}

/// Shrink both buffers to the list's length when they hold more than
/// `max(SMALL_BUFFER, len + len/8)` slots, so an empty list's buffers of
/// more than [`SMALL_BUFFER`] slots are freed.
#[inline]
fn trim(keys: &mut Vec<Key>, vals: &mut Vec<Quantity>) {
    let len = keys.len();
    if keys.capacity() > SMALL_BUFFER.max(len + len / 8) {
        keys.shrink_to_fit();
        vals.shrink_to_fit();
    }
}

/// Core of the merge kernels: `dst ⊕= factor·src`, returning the scaled
/// mass that fell below the epsilon (for the caller to fold into α).
///
/// The loop is staged to match what real streams look like (on the
/// Bitcoin-shaped benchmark workload ~82% of source origins already exist in
/// the destination):
///
/// 1. **Matched prefix, in place.** While source origins are present in the
///    destination, the merge is a pure `+=` on the existing entries — no
///    list rebuild, no writes outside the matched slots, and only the 4-byte
///    key arrays are streamed for the compares. A source that is a subset of
///    the destination never leaves this phase.
/// 2. **Small remainder, insertion.** A tail of ≤ [`SMALL_TAIL`] combined
///    entries is inserted entry-by-entry (`Vec::insert` memmoves a tiny
///    tail).
/// 3. **Large remainder, rebuild.** The prefix and the merged rest of both
///    lists are written into fresh buffers sized for the result, which are
///    [`trim`]med and replace the destination's.
fn merge_scaled_core(
    dst_keys: &mut Vec<Key>,
    dst_vals: &mut Vec<Quantity>,
    src_keys: &[Key],
    src_vals: &[Quantity],
    factor: f64,
) -> Quantity {
    let k = src_keys.len();
    let mut i = 0;
    let mut j = 0;
    // Phase 1: matched prefix, in place.
    while i < dst_keys.len() && j < k {
        let dk = dst_keys[i];
        let sk = src_keys[j];
        if dk < sk {
            i += 1;
        } else if dk == sk {
            dst_vals[i] += factor * src_vals[j];
            i += 1;
            j += 1;
        } else {
            break;
        }
    }
    if j == k {
        return 0.0;
    }
    let mut dropped = 0.0;
    // Phase 2: small remainder, per-entry insertion.
    if (dst_keys.len() - i) + (k - j) <= SMALL_TAIL {
        while j < k {
            let sk = src_keys[j];
            while i < dst_keys.len() && dst_keys[i] < sk {
                i += 1;
            }
            if i < dst_keys.len() && dst_keys[i] == sk {
                dst_vals[i] += factor * src_vals[j];
            } else {
                let q = factor * src_vals[j];
                if qty_is_zero(q) {
                    dropped += q;
                } else {
                    insert(dst_keys, dst_vals, i, sk, q);
                }
            }
            j += 1;
        }
        return dropped;
    }
    // Phase 3: large remainder, rebuilt into fresh buffers.
    let upper = dst_keys.len() + (k - j);
    let mut keys = Vec::with_capacity(upper);
    let mut vals = Vec::with_capacity(upper);
    keys.extend_from_slice(&dst_keys[..i]);
    vals.extend_from_slice(&dst_vals[..i]);
    while i < dst_keys.len() && j < k {
        let dk = dst_keys[i];
        let sk = src_keys[j];
        if dk < sk {
            keys.push(dk);
            vals.push(dst_vals[i]);
            i += 1;
        } else if dk == sk {
            keys.push(dk);
            vals.push(dst_vals[i] + factor * src_vals[j]);
            i += 1;
            j += 1;
        } else {
            let q = factor * src_vals[j];
            if qty_is_zero(q) {
                dropped += q;
            } else {
                keys.push(sk);
                vals.push(q);
            }
            j += 1;
        }
    }
    keys.extend_from_slice(&dst_keys[i..]);
    vals.extend_from_slice(&dst_vals[i..]);
    while j < k {
        let q = factor * src_vals[j];
        if qty_is_zero(q) {
            dropped += q;
        } else {
            keys.push(src_keys[j]);
            vals.push(q);
        }
        j += 1;
    }
    trim(&mut keys, &mut vals);
    *dst_keys = keys;
    *dst_vals = vals;
    dropped
}

/// Fused proportional split `dst ⊕= factor·src; src = (1−factor)·src`:
/// the same staged merge as [`merge_scaled_core`], but the source is
/// rewritten in place during the merge passes instead of being re-scanned
/// by a separate `scale` pass. Returns `(dst_dropped, src_dropped)` epsilon
/// losses for the caller to fold into the respective α entries.
fn transfer_core(
    dst_keys: &mut Vec<Key>,
    dst_vals: &mut Vec<Quantity>,
    src_keys: &mut Vec<Key>,
    src_vals: &mut Vec<Quantity>,
    factor: f64,
) -> (Quantity, Quantity) {
    let keep = 1.0 - factor;
    let k = src_keys.len();
    let mut i = 0;
    let mut j = 0;
    let mut w = 0;
    let mut dst_dropped = 0.0;
    let mut src_dropped = 0.0;
    // Phase 1: matched prefix, in place on both lists.
    while i < dst_keys.len() && j < k {
        let dk = dst_keys[i];
        let sk = src_keys[j];
        if dk < sk {
            i += 1;
        } else if dk == sk {
            let bq = src_vals[j];
            dst_vals[i] += factor * bq;
            let sq = keep * bq;
            if qty_is_zero(sq) {
                src_dropped += sq;
            } else {
                src_keys[w] = sk;
                src_vals[w] = sq;
                w += 1;
            }
            i += 1;
            j += 1;
        } else {
            break;
        }
    }
    if j == k {
        src_keys.truncate(w);
        src_vals.truncate(w);
        return (dst_dropped, src_dropped);
    }
    // Phase 2: small remainder, per-entry insertion.
    if (dst_keys.len() - i) + (k - j) <= SMALL_TAIL {
        while j < k {
            let sk = src_keys[j];
            let bq = src_vals[j];
            while i < dst_keys.len() && dst_keys[i] < sk {
                i += 1;
            }
            let dq = factor * bq;
            if i < dst_keys.len() && dst_keys[i] == sk {
                dst_vals[i] += dq;
                i += 1;
            } else if qty_is_zero(dq) {
                dst_dropped += dq;
            } else {
                insert(dst_keys, dst_vals, i, sk, dq);
                i += 1;
            }
            let sq = keep * bq;
            if qty_is_zero(sq) {
                src_dropped += sq;
            } else {
                src_keys[w] = sk;
                src_vals[w] = sq;
                w += 1;
            }
            j += 1;
        }
        src_keys.truncate(w);
        src_vals.truncate(w);
        return (dst_dropped, src_dropped);
    }
    // Phase 3: large remainder, rebuilt into fresh buffers.
    let upper = dst_keys.len() + (k - j);
    let mut keys = Vec::with_capacity(upper);
    let mut vals = Vec::with_capacity(upper);
    keys.extend_from_slice(&dst_keys[..i]);
    vals.extend_from_slice(&dst_vals[..i]);
    while i < dst_keys.len() && j < k {
        let dk = dst_keys[i];
        let sk = src_keys[j];
        if dk < sk {
            keys.push(dk);
            vals.push(dst_vals[i]);
            i += 1;
        } else if dk == sk {
            let bq = src_vals[j];
            keys.push(dk);
            vals.push(dst_vals[i] + factor * bq);
            let sq = keep * bq;
            if qty_is_zero(sq) {
                src_dropped += sq;
            } else {
                src_keys[w] = sk;
                src_vals[w] = sq;
                w += 1;
            }
            i += 1;
            j += 1;
        } else {
            let bq = src_vals[j];
            let dq = factor * bq;
            if qty_is_zero(dq) {
                dst_dropped += dq;
            } else {
                keys.push(sk);
                vals.push(dq);
            }
            let sq = keep * bq;
            if qty_is_zero(sq) {
                src_dropped += sq;
            } else {
                src_keys[w] = sk;
                src_vals[w] = sq;
                w += 1;
            }
            j += 1;
        }
    }
    keys.extend_from_slice(&dst_keys[i..]);
    vals.extend_from_slice(&dst_vals[i..]);
    while j < k {
        let sk = src_keys[j];
        let bq = src_vals[j];
        let dq = factor * bq;
        if qty_is_zero(dq) {
            dst_dropped += dq;
        } else {
            keys.push(sk);
            vals.push(dq);
        }
        let sq = keep * bq;
        if qty_is_zero(sq) {
            src_dropped += sq;
        } else {
            src_keys[w] = sk;
            src_vals[w] = sq;
            w += 1;
        }
        j += 1;
    }
    trim(&mut keys, &mut vals);
    *dst_keys = keys;
    *dst_vals = vals;
    src_keys.truncate(w);
    src_vals.truncate(w);
    (dst_dropped, src_dropped)
}

impl SparseProvenance {
    /// Create an empty sparse vector.
    pub fn new() -> Self {
        SparseProvenance {
            keys: Vec::new(), // tin-lint: allow(hot-path-alloc): empty Vec::new never allocates
            vals: Vec::new(),
        }
    }

    /// Create a vector holding a single entry, if the quantity is non-zero.
    pub fn singleton(origin: Origin, qty: Quantity) -> Self {
        let mut v = Self::new();
        v.add(origin, qty);
        v
    }

    /// Number of stored entries (the list length ℓ of the paper's complexity
    /// analysis).
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the vector holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total represented quantity.
    pub fn total(&self) -> Quantity {
        qty_sum(self.vals.iter().copied())
    }

    /// Quantity attributed to `origin` (0 if absent).
    pub fn get(&self, origin: Origin) -> Quantity {
        match self.keys.binary_search(&encode(origin)) {
            Ok(i) => self.vals[i],
            Err(_) => 0.0,
        }
    }

    /// Quantity attributed to a concrete origin vertex.
    pub fn get_vertex(&self, v: VertexId) -> Quantity {
        self.get(Origin::Vertex(v))
    }

    /// Add `qty` to the entry for `origin`, inserting it if missing.
    pub fn add(&mut self, origin: Origin, qty: Quantity) {
        if qty_is_zero(qty) {
            return;
        }
        let key = encode(origin);
        match self.keys.binary_search(&key) {
            Ok(i) => self.vals[i] += qty,
            Err(i) => insert(&mut self.keys, &mut self.vals, i, key, qty),
        }
    }

    /// Add `qty` to the entry for a concrete vertex origin.
    pub fn add_vertex(&mut self, v: VertexId, qty: Quantity) {
        self.add(Origin::Vertex(v), qty);
    }

    /// Batched [`add`](Self::add): insert many `(origin, quantity)` pairs in
    /// one pass. The pairs may arrive in any order and may repeat origins;
    /// cost is O((ℓ + k)·log(ℓ + k)) worst case and O(k) when the batch is
    /// already sorted and strictly after the existing entries (the bulk-load
    /// case).
    pub fn add_many<I>(&mut self, pairs: I)
    where
        I: IntoIterator<Item = (Origin, Quantity)>,
    {
        let old_len = self.keys.len();
        for (o, q) in pairs {
            if !qty_is_zero(q) {
                self.keys.push(encode(o));
                self.vals.push(q);
            }
        }
        if self.keys.len() == old_len {
            return;
        }
        // Fast path: the appended tail keeps the whole list strictly sorted.
        let mut sorted = true;
        for i in old_len.max(1)..self.keys.len() {
            if self.keys[i - 1] >= self.keys[i] {
                sorted = false;
                break;
            }
        }
        if sorted {
            return;
        }
        // Cold path: joint sort + coalesce.
        let mut pairs: Vec<(Key, Quantity)> = self
            .keys
            .iter()
            .copied()
            .zip(self.vals.iter().copied())
            .collect(); // tin-lint: allow(hot-path-alloc): unsorted-input repair path, hit once per out-of-order load, never in the steady state
        pairs.sort_unstable_by_key(|&(k, _)| k);
        self.keys.clear();
        self.vals.clear();
        for (k, q) in pairs {
            if self.keys.last() == Some(&k) {
                *self.vals.last_mut().expect("parallel arrays") += q;
            } else {
                self.keys.push(k);
                self.vals.push(q);
            }
        }
    }

    /// Fold a quantity that was dropped by an epsilon cut-off into the
    /// artificial-vertex entry `(α, ·)`, preserving `total()`. α has the
    /// greatest key, so it lives at the end of the list and the fold is
    /// O(1).
    #[inline]
    pub(crate) fn fold_into_unknown(&mut self, dropped: Quantity) {
        if dropped <= 0.0 {
            return;
        }
        if self.keys.last() == Some(&UNKNOWN_KEY) {
            *self.vals.last_mut().expect("parallel arrays") += dropped;
        } else {
            reserve(&mut self.keys, &mut self.vals, 1);
            self.keys.push(UNKNOWN_KEY);
            self.vals.push(dropped);
        }
    }

    /// `self ⊕ other`: merge-add another sparse vector. Allocation-free
    /// unless it adds an origin to the destination.
    pub fn merge_add(&mut self, other: &SparseProvenance) {
        if other.keys.is_empty() {
            return;
        }
        // Fast paths: empty destination, strictly-appending merge, or a
        // tiny source against a long destination.
        if self.keys.is_empty() || other.keys[0] > self.keys[self.keys.len() - 1] {
            reserve(&mut self.keys, &mut self.vals, other.keys.len());
            self.keys.extend_from_slice(&other.keys);
            self.vals.extend_from_slice(&other.vals);
            return;
        }
        if small_source_case(self.keys.len(), other.keys.len()) {
            for (&k, &q) in other.keys.iter().zip(&other.vals) {
                match self.keys.binary_search(&k) {
                    Ok(i) => self.vals[i] += q,
                    Err(i) => insert(&mut self.keys, &mut self.vals, i, k, q),
                }
            }
            return;
        }
        // General case: staged in-place merge.
        let dropped = merge_scaled_core(
            &mut self.keys,
            &mut self.vals,
            &other.keys,
            &other.vals,
            1.0,
        );
        self.fold_into_unknown(dropped);
    }

    /// `self ⊕ factor·other`: merge-add a scaled sparse vector (proportional
    /// transfer into the destination, Algorithm 3 line 9 on lists).
    ///
    /// Scaled contributions that fall below the library epsilon are folded
    /// into the destination's `(α, ·)` entry instead of being dropped, so the
    /// destination gains exactly `factor · other.total()`. Allocation-free
    /// unless it adds an origin to the destination.
    pub fn merge_add_scaled(&mut self, other: &SparseProvenance, factor: f64) {
        // Guard on *exactly* non-positive factors only: an epsilon test on
        // the dimensionless factor would silently skip a transfer of up to
        // ε·total() mass (huge for large totals). Tiny factors flow through
        // the kernel, where per-entry drops fold into α and conserve mass.
        if other.keys.is_empty() || factor <= 0.0 {
            return;
        }
        let mut dropped = 0.0;
        if self.keys.is_empty() || other.keys[0] > self.keys[self.keys.len() - 1] {
            reserve(&mut self.keys, &mut self.vals, other.keys.len());
            for (&k, &bq) in other.keys.iter().zip(&other.vals) {
                let q = factor * bq;
                if qty_is_zero(q) {
                    dropped += q;
                } else {
                    self.keys.push(k);
                    self.vals.push(q);
                }
            }
            self.fold_into_unknown(dropped);
            return;
        }
        if small_source_case(self.keys.len(), other.keys.len()) {
            for (&k, &bq) in other.keys.iter().zip(&other.vals) {
                let q = factor * bq;
                if qty_is_zero(q) {
                    dropped += q;
                } else {
                    match self.keys.binary_search(&k) {
                        Ok(i) => self.vals[i] += q,
                        Err(i) => insert(&mut self.keys, &mut self.vals, i, k, q),
                    }
                }
            }
            self.fold_into_unknown(dropped);
            return;
        }
        dropped += merge_scaled_core(
            &mut self.keys,
            &mut self.vals,
            &other.keys,
            &other.vals,
            factor,
        );
        self.fold_into_unknown(dropped);
    }

    /// Full relay (Algorithm 3 lines 5–7 on lists): `self ⊕= src; src = 0`.
    ///
    /// When the destination is empty this is an O(1) buffer swap — the
    /// dominant case on chain-shaped streams where quantities hop from vertex
    /// to vertex. Otherwise it is one staged merge. Either way the emptied
    /// source keeps buffers of at most 64 slots for reuse and frees larger
    /// ones: a hub that relays everything would otherwise hold its largest
    /// list's buffers while empty.
    pub fn take_all_from(&mut self, src: &mut SparseProvenance) {
        if src.keys.is_empty() {
            return;
        }
        if self.keys.is_empty() {
            std::mem::swap(&mut self.keys, &mut src.keys);
            std::mem::swap(&mut self.vals, &mut src.vals);
        } else {
            self.merge_add(src);
            src.keys.clear();
            src.vals.clear();
        }
        trim(&mut src.keys, &mut src.vals);
    }

    /// Proportional split (Algorithm 3 lines 8–10 on lists): the destination
    /// gains `factor · src` and the source keeps the complementary
    /// `(1 − factor) · src`, with all epsilon-dropped mass folded into the
    /// respective α entries so the pair conserves quantity exactly.
    pub fn transfer_from(&mut self, src: &mut SparseProvenance, factor: f64) {
        debug_assert!(
            (0.0..=1.0 + 1e-12).contains(&factor),
            "transfer fraction must be in [0,1], got {factor}"
        );
        if src.keys.is_empty() || factor <= 0.0 {
            return;
        }
        if small_source_case(self.keys.len(), src.keys.len()) {
            self.merge_add_scaled(src, factor);
            src.scale(1.0 - factor);
            return;
        }
        let (dst_dropped, src_dropped) = transfer_core(
            &mut self.keys,
            &mut self.vals,
            &mut src.keys,
            &mut src.vals,
            factor,
        );
        self.fold_into_unknown(dst_dropped);
        src.fold_into_unknown(src_dropped);
        trim(&mut src.keys, &mut src.vals);
    }

    /// Multiply every entry by `factor` (Algorithm 3 line 10 on lists: the
    /// source keeps `1 - r.q/|B|` of each component). Entries that fall below
    /// the library epsilon are removed from the list and their mass is folded
    /// into the `(α, ·)` entry, so `total()` scales by exactly `factor`.
    ///
    /// `scale(0.0)` is an explicit reset and clears the vector entirely.
    pub fn scale(&mut self, factor: f64) {
        // `scale(0.0)` (exactly) is the documented explicit reset. Any other
        // factor — however tiny — runs the folding loop below, so the scaled
        // mass lands in α instead of vanishing (an epsilon test here would
        // leak up to ε·total()·len() of mass on large-quantity streams).
        if factor == 0.0 {
            self.keys.clear();
            self.vals.clear();
            return;
        }
        let mut dropped = 0.0;
        let mut w = 0;
        for i in 0..self.keys.len() {
            let nq = self.vals[i] * factor;
            if qty_is_zero(nq) {
                dropped += nq;
            } else {
                self.keys[w] = self.keys[i];
                self.vals[w] = nq;
                w += 1;
            }
        }
        self.keys.truncate(w);
        self.vals.truncate(w);
        self.fold_into_unknown(dropped);
        trim(&mut self.keys, &mut self.vals);
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.vals.clear();
    }

    /// Replace the whole vector by a single `(α, total)` entry — the reset
    /// operation of the windowing approach (Section 5.3.1).
    pub fn reset_to_unknown(&mut self, total: Quantity) {
        self.keys.clear();
        self.vals.clear();
        if !qty_is_zero(total) {
            self.keys.push(UNKNOWN_KEY);
            self.vals.push(total);
        }
    }

    /// Keep the `keep` entries with the largest quantities; every removed
    /// entry's quantity is folded into the artificial-vertex entry `(α, Q)`.
    /// Returns the folded quantity `Q`.
    ///
    /// Allocating convenience wrapper around
    /// [`shrink_keep_largest_with`](Self::shrink_keep_largest_with).
    pub fn shrink_keep_largest(&mut self, keep: usize) -> Quantity {
        self.shrink_keep_largest_with(keep, &mut MergeScratch::new())
    }

    /// Keep the `keep` largest entries using caller-owned scratch space.
    ///
    /// This is the shrink operation of budget-based provenance
    /// (Section 5.3.2) under the "keep the entries with the largest
    /// quantities" criterion. The survivors are chosen with
    /// `select_nth_unstable_by` and compacted through a boolean scratch
    /// mask: O(ℓ) instead of the former O(ℓ log ℓ) sort + `BTreeSet`.
    /// α is never evicted (evicting it and re-adding it would be a no-op
    /// churn).
    pub fn shrink_keep_largest_with(
        &mut self,
        keep: usize,
        scratch: &mut MergeScratch,
    ) -> Quantity {
        let n = self.keys.len();
        if n <= keep {
            return 0.0;
        }
        if keep == 0 {
            let removed = self.total();
            self.keys.clear();
            self.vals.clear();
            self.fold_into_unknown(removed);
            return removed;
        }
        let keys = &self.keys;
        let vals = &self.vals;
        let order = &mut scratch.order;
        order.clear();
        order.extend(0..n);
        // "Better" entries first: α, then larger quantities, ties by origin.
        let better = |&a: &usize, &b: &usize| {
            (keys[b] == UNKNOWN_KEY)
                .cmp(&(keys[a] == UNKNOWN_KEY))
                .then(vals[b].total_cmp(&vals[a]))
                .then(keys[a].cmp(&keys[b]))
        };
        order.select_nth_unstable_by(keep - 1, better);
        let mask = &mut scratch.mask;
        mask.clear();
        mask.resize(n, false);
        for &i in &order[..keep] {
            mask[i] = true;
        }
        let mut removed = 0.0;
        let mut w = 0;
        for (i, &keep_entry) in mask.iter().enumerate().take(n) {
            if keep_entry {
                self.keys[w] = self.keys[i];
                self.vals[w] = self.vals[i];
                w += 1;
            } else {
                removed += self.vals[i];
            }
        }
        self.keys.truncate(w);
        self.vals.truncate(w);
        self.fold_into_unknown(removed);
        removed
    }

    /// Iterate over `(origin, quantity)` entries in origin order.
    pub fn iter(&self) -> impl Iterator<Item = (Origin, Quantity)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .map(|(&k, &q)| (decode(k), q))
    }

    /// Convert to an [`OriginSet`] query answer.
    pub fn to_origin_set(&self) -> OriginSet {
        OriginSet::from_pairs(self.iter())
    }

    /// Internal consistency check: entries sorted by origin, all positive.
    /// Used by debug assertions and property tests.
    pub fn is_consistent(&self) -> bool {
        self.keys.len() == self.vals.len()
            && self.keys.windows(2).all(|w| w[0] < w[1])
            && self.vals.iter().all(|&q| q > 0.0 || qty_is_zero(q))
    }

    /// Append the checkpoint encoding (packed keys + quantity bit patterns):
    /// one resize, then fixed-width chunk copies, so a buffer reused across
    /// captures is filled without per-element growth checks.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let n = self.keys.len();
        // Room for the length, the entries and the one `f64` total the
        // proportional trackers append, so that trailer cannot double an
        // exactly sized buffer.
        out.reserve(8 + n * 12 + 8);
        crate::codec::put_usize(out, n);
        let start = out.len();
        out.resize(start + n * 12, 0);
        let (keys, vals) = out[start..].split_at_mut(n * 4);
        for (dst, k) in keys.chunks_exact_mut(4).zip(&self.keys) {
            dst.copy_from_slice(&k.to_le_bytes());
        }
        for (dst, q) in vals.chunks_exact_mut(8).zip(&self.vals) {
            dst.copy_from_slice(&q.to_bits().to_le_bytes());
        }
    }

    /// Decode a vector written by [`Self::encode_into`].
    pub fn decode_from(r: &mut crate::codec::ByteReader<'_>) -> crate::error::Result<Self> {
        let len = r.usize()?;
        if r.remaining() < len.saturating_mul(12) {
            // tin-lint: allow(hot-path-alloc): corrupt-checkpoint error path, not the streaming kernel
            return Err(r.corrupt(format!("truncated: {len} sparse entries declared")));
        }
        // tin-lint: allow(hot-path-alloc): checkpoint restore path, not the streaming kernel
        let mut keys = Vec::with_capacity(len);
        for _ in 0..len {
            keys.push(r.u32()?);
        }
        // tin-lint: allow(hot-path-alloc): checkpoint restore path, not the streaming kernel
        let mut vals = Vec::with_capacity(len);
        for _ in 0..len {
            vals.push(r.f64()?);
        }
        let v = SparseProvenance { keys, vals };
        if !v.keys.windows(2).all(|w| w[0] < w[1]) {
            return Err(r.corrupt("sparse keys not strictly increasing"));
        }
        Ok(v)
    }

    /// Append the per-vertex checkpoint encoding of the list-based
    /// proportional trackers (sparse, windowed by interactions or time,
    /// budget): a representation tag `0`, then [`Self::encode_into`]. The
    /// tag keeps the on-disk format of the retired runtime-adaptive vectors,
    /// whose dense form was tag `1`.
    pub fn encode_tagged_into(&self, out: &mut Vec<u8>) {
        crate::codec::put_u8(out, SPARSE_REPR_TAG);
        self.encode_into(out);
    }

    /// Decode a vector written by [`Self::encode_tagged_into`]. Any other
    /// tag, the retired dense tag `1` included, is a corrupt checkpoint.
    pub fn decode_tagged_from(r: &mut crate::codec::ByteReader<'_>) -> crate::error::Result<Self> {
        match r.u8()? {
            SPARSE_REPR_TAG => Self::decode_from(r),
            // tin-lint: allow(hot-path-alloc): corrupt-checkpoint error path, not the streaming kernel
            other => Err(r.corrupt(format!("unknown provenance repr tag {other}"))),
        }
    }
}

impl MemoryFootprint for SparseProvenance {
    fn footprint_bytes(&self) -> usize {
        vec_bytes(&self.keys) + vec_bytes(&self.vals)
    }
}

impl FromIterator<(Origin, Quantity)> for SparseProvenance {
    fn from_iter<T: IntoIterator<Item = (Origin, Quantity)>>(iter: T) -> Self {
        let mut v = SparseProvenance::new();
        v.add_many(iter);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantity::qty_approx_eq;

    fn ov(i: u32) -> Origin {
        Origin::Vertex(VertexId::new(i))
    }

    #[test]
    fn empty_vector() {
        let v = SparseProvenance::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.total(), 0.0);
        assert_eq!(v.get(ov(0)), 0.0);
        assert!(v.is_consistent());
    }

    #[test]
    fn singleton_and_get() {
        let v = SparseProvenance::singleton(ov(3), 2.5);
        assert_eq!(v.len(), 1);
        assert_eq!(v.get(ov(3)), 2.5);
        assert_eq!(v.get_vertex(VertexId::new(3)), 2.5);
        // Zero-quantity singleton is empty.
        assert!(SparseProvenance::singleton(ov(3), 0.0).is_empty());
    }

    #[test]
    fn add_keeps_sorted_order() {
        let mut v = SparseProvenance::new();
        v.add(ov(5), 1.0);
        v.add(ov(1), 2.0);
        v.add(ov(3), 3.0);
        v.add(ov(1), 0.5);
        assert_eq!(v.len(), 3);
        assert!(v.is_consistent());
        assert_eq!(v.get(ov(1)), 2.5);
        let origins: Vec<Origin> = v.iter().map(|(o, _)| o).collect();
        assert_eq!(origins, vec![ov(1), ov(3), ov(5)]);
    }

    #[test]
    fn add_vertex_shorthand() {
        let mut v = SparseProvenance::new();
        v.add_vertex(VertexId::new(2), 4.0);
        assert_eq!(v.get_vertex(VertexId::new(2)), 4.0);
    }

    #[test]
    fn add_many_matches_repeated_add() {
        let batch = vec![
            (ov(9), 1.0),
            (ov(2), 2.0),
            (ov(9), 0.5),
            (ov(4), 0.0), // dropped
            (ov(1), 3.0),
        ];
        let mut bulk: SparseProvenance = SparseProvenance::singleton(ov(2), 1.0);
        bulk.add_many(batch.iter().copied());
        let mut serial = SparseProvenance::singleton(ov(2), 1.0);
        for (o, q) in batch {
            serial.add(o, q);
        }
        assert_eq!(bulk, serial);
        assert!(bulk.is_consistent());
    }

    #[test]
    fn add_many_bulk_load_fast_path() {
        let mut v = SparseProvenance::singleton(ov(1), 1.0);
        v.add_many((2..100u32).map(|i| (ov(i), i as f64)));
        assert_eq!(v.len(), 99);
        assert!(v.is_consistent());
        assert_eq!(v.get(ov(50)), 50.0);
    }

    #[test]
    fn merge_add_unions_origins() {
        let a: SparseProvenance = vec![(ov(1), 1.0), (ov(3), 3.0)].into_iter().collect();
        let b: SparseProvenance = vec![(ov(2), 2.0), (ov(3), 1.0)].into_iter().collect();
        let mut m = a.clone();
        m.merge_add(&b);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(ov(1)), 1.0);
        assert_eq!(m.get(ov(2)), 2.0);
        assert_eq!(m.get(ov(3)), 4.0);
        assert!(m.is_consistent());
        assert!(qty_approx_eq(m.total(), a.total() + b.total()));
    }

    #[test]
    fn merge_add_scaled_applies_factor() {
        let mut a = SparseProvenance::singleton(ov(1), 1.0);
        let b: SparseProvenance = vec![(ov(1), 2.0), (ov(2), 4.0)].into_iter().collect();
        a.merge_add_scaled(&b, 0.5);
        assert!(qty_approx_eq(a.get(ov(1)), 2.0));
        assert!(qty_approx_eq(a.get(ov(2)), 2.0));
    }

    #[test]
    fn merge_with_empty_or_zero_factor_is_noop() {
        let mut a = SparseProvenance::singleton(ov(1), 1.0);
        a.merge_add(&SparseProvenance::new());
        assert_eq!(a.len(), 1);
        let b = SparseProvenance::singleton(ov(2), 5.0);
        a.merge_add_scaled(&b, 0.0);
        assert_eq!(a.len(), 1);
    }

    /// The in-place backward merge must match a straightforward
    /// reference merge built from per-entry adds.
    #[test]
    fn in_place_merge_matches_reference() {
        let a: SparseProvenance = (0..40u32)
            .step_by(2)
            .map(|i| (ov(i), i as f64 + 1.0))
            .collect();
        let b: SparseProvenance = (0..40u32).step_by(3).map(|i| (ov(i), 2.0)).collect();
        for factor in [1.0, 0.37] {
            let mut fast = a.clone();
            fast.merge_add_scaled(&b, factor);
            let mut reference = a.clone();
            for (o, q) in b.iter() {
                reference.add(o, factor * q);
            }
            assert_eq!(fast, reference, "factor {factor}");
            assert!(fast.is_consistent());
        }
        let mut plain = a.clone();
        plain.merge_add(&b);
        let mut reference = a.clone();
        for (o, q) in b.iter() {
            reference.add(o, q);
        }
        assert_eq!(plain, reference);
    }

    #[test]
    fn take_all_from_swaps_into_empty_destination() {
        let mut src: SparseProvenance = vec![(ov(1), 1.0), (ov(2), 2.0)].into_iter().collect();
        let mut dst = SparseProvenance::new();
        dst.take_all_from(&mut src);
        assert!(src.is_empty());
        assert_eq!(dst.len(), 2);
        assert!(qty_approx_eq(dst.total(), 3.0));
        // Non-empty destination: a real merge, source is cleared.
        let mut src2: SparseProvenance = vec![(ov(2), 1.0), (ov(5), 4.0)].into_iter().collect();
        dst.take_all_from(&mut src2);
        assert!(src2.is_empty());
        assert!(qty_approx_eq(dst.total(), 8.0));
        assert!(qty_approx_eq(dst.get(ov(2)), 3.0));
        assert!(dst.is_consistent());
    }

    #[test]
    fn transfer_from_conserves_mass() {
        let mut src: SparseProvenance = (0..50u32).map(|i| (ov(i), (i + 1) as f64)).collect();
        let mut dst: SparseProvenance = vec![(ov(3), 1.0)].into_iter().collect();
        let before = src.total() + dst.total();
        dst.transfer_from(&mut src, 0.37);
        assert!(qty_approx_eq(src.total() + dst.total(), before));
        assert!(src.is_consistent() && dst.is_consistent());
    }

    #[test]
    fn scale_and_clear() {
        let mut v: SparseProvenance = vec![(ov(1), 2.0), (ov(2), 4.0)].into_iter().collect();
        v.scale(0.25);
        assert!(qty_approx_eq(v.get(ov(1)), 0.5));
        assert!(qty_approx_eq(v.get(ov(2)), 1.0));
        v.scale(0.0);
        assert!(v.is_empty());
        let mut v = SparseProvenance::singleton(ov(1), 1.0);
        v.clear();
        assert!(v.is_empty());
    }

    #[test]
    fn scale_folds_vanishing_entries_into_alpha() {
        let mut v: SparseProvenance = vec![(ov(1), 1e-5), (ov(2), 10.0)].into_iter().collect();
        let before = v.total();
        v.scale(1e-3);
        // The v1 entry fell below the epsilon and left the list, but its mass
        // moved to α instead of vanishing.
        assert_eq!(v.get(ov(1)), 0.0);
        assert!(v.get(Origin::Unknown) > 0.0);
        assert!((v.total() - before * 1e-3).abs() < 1e-12);
        assert!(v.is_consistent());
    }

    /// Regression test for the PR 2 conservation fix: repeated scale/merge
    /// cycles must preserve the total up to the accumulated float epsilon,
    /// even though individual entries keep dropping below the cut-off.
    #[test]
    fn conservation_under_repeated_scale_merge_cycles() {
        let mut a: SparseProvenance = (0..64u32).map(|i| (ov(i), 1e-4 * (i + 1) as f64)).collect();
        let mut b = SparseProvenance::new();
        let grand_total = a.total();
        for round in 0..200 {
            let factor = 0.01 + 0.9 * ((round % 7) as f64 / 7.0);
            b.transfer_from(&mut a, factor);
            std::mem::swap(&mut a, &mut b);
            assert!(
                (a.total() + b.total() - grand_total).abs() < 1e-9,
                "conservation broke at round {round}: {} vs {}",
                a.total() + b.total(),
                grand_total
            );
        }
        assert!(a.is_consistent() && b.is_consistent());
    }

    #[test]
    fn reset_to_unknown() {
        let mut v: SparseProvenance = vec![(ov(1), 2.0), (ov(2), 3.0)].into_iter().collect();
        v.reset_to_unknown(5.0);
        assert_eq!(v.len(), 1);
        assert_eq!(v.get(Origin::Unknown), 5.0);
        v.reset_to_unknown(0.0);
        assert!(v.is_empty());
    }

    #[test]
    fn shrink_keep_largest_folds_into_alpha() {
        // Paper's Section 5.3.2 example: p_v = {(v,1),(u,3),(w,3),(x,2),(y,4),(z,1)},
        // keep 3 entries with the largest quantities → {(u,3),(w,3),(y,4),(α,4)}.
        let mut v: SparseProvenance = vec![
            (ov(10), 1.0), // "v"
            (ov(11), 3.0), // "u"
            (ov(12), 3.0), // "w"
            (ov(13), 2.0), // "x"
            (ov(14), 4.0), // "y"
            (ov(15), 1.0), // "z"
        ]
        .into_iter()
        .collect();
        let removed = v.shrink_keep_largest(3);
        assert!(qty_approx_eq(removed, 4.0));
        assert_eq!(v.len(), 4); // 3 kept + α
        assert_eq!(v.get(ov(11)), 3.0);
        assert_eq!(v.get(ov(12)), 3.0);
        assert_eq!(v.get(ov(14)), 4.0);
        assert!(qty_approx_eq(v.get(Origin::Unknown), 4.0));
        assert!(qty_approx_eq(v.total(), 14.0));
    }

    #[test]
    fn shrink_noop_when_under_budget() {
        let mut v: SparseProvenance = vec![(ov(1), 1.0), (ov(2), 2.0)].into_iter().collect();
        assert_eq!(v.shrink_keep_largest(5), 0.0);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn shrink_to_zero_keeps_only_alpha() {
        let mut v: SparseProvenance = vec![(ov(1), 1.0), (ov(2), 2.0)].into_iter().collect();
        let removed = v.shrink_keep_largest(0);
        assert!(qty_approx_eq(removed, 3.0));
        assert_eq!(v.len(), 1);
        assert!(qty_approx_eq(v.get(Origin::Unknown), 3.0));
    }

    #[test]
    fn shrink_never_evicts_alpha() {
        let mut v: SparseProvenance = vec![
            (Origin::Unknown, 0.5),
            (ov(1), 10.0),
            (ov(2), 9.0),
            (ov(3), 8.0),
        ]
        .into_iter()
        .collect();
        let removed = v.shrink_keep_largest(2);
        // α is kept despite having the smallest quantity (it occupies one of
        // the two kept slots); the largest vertex keeps the other slot; the
        // remaining vertices fold into α.
        assert!(qty_approx_eq(removed, 17.0));
        assert!(qty_approx_eq(v.get(Origin::Unknown), 17.5));
        assert_eq!(v.get(ov(1)), 10.0);
        assert_eq!(v.get(ov(2)), 0.0);
        assert_eq!(v.get(ov(3)), 0.0);
        assert_eq!(v.len(), 2);
    }

    /// The select-based shrink must pick exactly the same survivor set as a
    /// full sort would, for many sizes and tie patterns.
    #[test]
    fn shrink_matches_sort_based_reference() {
        let mut scratch = MergeScratch::new();
        for n in [1usize, 2, 5, 17, 64, 257] {
            for keep in [1usize, 2, 3, n / 2 + 1, n] {
                let build = || -> SparseProvenance {
                    (0..n as u32)
                        .map(|i| (ov(i), ((i * 7919) % 23 + 1) as f64))
                        .collect()
                };
                let mut fast = build();
                fast.shrink_keep_largest_with(keep, &mut scratch);
                // Reference: sort all entries by the same criterion and keep
                // the first `keep`.
                let reference = build();
                let mut sorted: Vec<(Origin, Quantity)> = reference.iter().collect();
                sorted.sort_by(|a, b| {
                    (b.0 == Origin::Unknown)
                        .cmp(&(a.0 == Origin::Unknown))
                        .then(b.1.total_cmp(&a.1))
                        .then(a.0.cmp(&b.0))
                });
                let mut expect: SparseProvenance = sorted.into_iter().take(keep).collect();
                let removed: f64 = reference.total() - expect.total();
                if !qty_is_zero(removed) {
                    expect.add(Origin::Unknown, removed);
                }
                assert_eq!(fast, expect, "n={n} keep={keep}");
                assert!(fast.is_consistent());
            }
        }
    }

    #[test]
    fn to_origin_set_roundtrip() {
        let v: SparseProvenance = vec![(ov(1), 1.0), (Origin::Unknown, 2.0)]
            .into_iter()
            .collect();
        let set = v.to_origin_set();
        assert_eq!(set.total(), 3.0);
        assert_eq!(set.quantity_from(Origin::Unknown), 2.0);
    }

    #[test]
    fn conservation_under_proportional_split() {
        let mut src: SparseProvenance = (0..50u32).map(|i| (ov(i), (i + 1) as f64)).collect();
        let mut dst = SparseProvenance::new();
        let before = src.total();
        let factor = 0.37;
        dst.merge_add_scaled(&src, factor);
        src.scale(1.0 - factor);
        assert!(qty_approx_eq(src.total() + dst.total(), before));
        assert!(src.is_consistent() && dst.is_consistent());
    }

    /// Every relay operation leaves at most `max(64, len + len/8)` slots:
    /// growth, rebuilds, sources that lose entries below the epsilon, and
    /// emptied sources, which free buffers of more than 64 slots.
    #[test]
    fn relays_keep_lists_within_the_capacity_bound() {
        let within = |v: &SparseProvenance| {
            let len = v.len();
            v.keys.capacity() == v.vals.capacity()
                && v.keys.capacity() <= SMALL_BUFFER.max(len + len / 8)
        };
        let mut grown = SparseProvenance::new();
        for i in 0..1000u32 {
            grown.add(ov(i * 7 % 1000), 1.0);
            assert!(within(&grown), "{} entries", grown.len());
        }
        // Half the source's entries fall below the epsilon on either side
        // of the split: the destination is rebuilt, the source shrinks.
        let mut src: SparseProvenance = (0..200u32)
            .map(|i| (ov(i), if i % 2 == 0 { 1.5e-6 } else { 1.0 }))
            .collect();
        let mut dst = SparseProvenance::singleton(ov(1000), 1.0);
        dst.transfer_from(&mut src, 0.5);
        assert_eq!((dst.len(), src.len()), (102, 101));
        assert!(within(&dst) && within(&src));
        // A full relay frees an emptied source's large buffers only.
        dst.take_all_from(&mut src);
        assert!(src.is_empty() && src.keys.capacity() == 0);
        let mut small = SparseProvenance::singleton(ov(3), 1.0);
        dst.take_all_from(&mut small);
        assert!(small.is_empty() && small.keys.capacity() > 0);
        assert!(within(&dst));
    }

    #[test]
    fn footprint_grows_with_entries() {
        let small = SparseProvenance::singleton(ov(1), 1.0);
        let big: SparseProvenance = (0..1000u32).map(|i| (ov(i), 1.0)).collect();
        assert!(big.footprint_bytes() > small.footprint_bytes());
        assert!(MergeScratch::new().footprint_bytes() == 0);
    }

    /// The packed key encoding must preserve the `Origin` ordering exactly
    /// and round-trip every representable origin.
    #[test]
    fn packed_keys_preserve_origin_order() {
        use crate::ids::GroupId;
        let origins = [
            Origin::Vertex(VertexId::new(0)),
            Origin::Vertex(VertexId::new(1)),
            Origin::Vertex(VertexId::new(0xFFFE_FFFF)),
            Origin::Group(GroupId::new(0)),
            Origin::Group(GroupId::new(0xFFFD)),
            Origin::Untracked,
            Origin::Unknown,
        ];
        for pair in origins.windows(2) {
            assert!(pair[0] < pair[1], "{:?} vs {:?}", pair[0], pair[1]);
            assert!(
                super::encode(pair[0]) < super::encode(pair[1]),
                "key order broke between {:?} and {:?}",
                pair[0],
                pair[1]
            );
        }
        for o in origins {
            assert_eq!(super::decode(super::encode(o)), o);
        }
    }

    /// The chunked encoder writes exactly the field-by-field codec layout
    /// (length, then every key, then every value bit pattern), appends
    /// after existing bytes, and round-trips through the decoder.
    #[test]
    fn encode_matches_field_by_field_layout_and_round_trips() {
        use crate::codec::{put_f64, put_u32, put_usize, ByteReader};
        let v: SparseProvenance = (0..37u32)
            .map(|i| (ov(i * 3), 0.25 + f64::from(i)))
            .chain([(Origin::Unknown, 1e-3)])
            .collect();
        let mut expected = vec![0xAB];
        put_usize(&mut expected, v.len());
        v.keys.iter().for_each(|&k| put_u32(&mut expected, k));
        v.vals.iter().for_each(|&q| put_f64(&mut expected, q));
        let mut out = vec![0xAB];
        v.encode_into(&mut out);
        assert_eq!(out, expected);
        let mut r = ByteReader::new(&out[1..], "states");
        let back = SparseProvenance::decode_from(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.keys, v.keys);
        assert!(back
            .vals
            .iter()
            .zip(&v.vals)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    #[should_panic(expected = "packed-key limit")]
    fn oversized_vertex_id_is_rejected() {
        SparseProvenance::singleton(ov(0xFFFF_0000), 1.0);
    }

    /// Regression (PR 2 review): epsilon guards must act on *mass*, never on
    /// the dimensionless factor — a near-1 factor used to clear the source
    /// (losing the kept share) and a near-0 factor used to skip the transfer
    /// entirely (losing the moved share), both unbounded for large totals.
    #[test]
    fn extreme_factors_conserve_large_totals() {
        // Near-full transfer: source must keep (1 - factor) · total as α.
        let mut src = SparseProvenance::singleton(ov(1), 2.0e8);
        let mut dst = SparseProvenance::new();
        let factor = 1.0 - 2.5e-7; // 1 - factor is below the absolute epsilon
        dst.transfer_from(&mut src, factor);
        assert!(
            (src.total() - 50.0).abs() < 1e-4,
            "src kept {}",
            src.total()
        );
        assert!((dst.total() - (2.0e8 - 50.0)).abs() < 1e-4);

        // Near-zero transfer: destination must still gain factor · total.
        let mut src = SparseProvenance::singleton(ov(1), 1.0e9);
        let mut dst = SparseProvenance::new();
        let factor = 5.0e-7; // below the absolute epsilon
        dst.transfer_from(&mut src, factor);
        assert!(
            (dst.total() - 500.0).abs() < 1e-4,
            "dst got {}",
            dst.total()
        );
        assert!((src.total() - (1.0e9 - 500.0)).abs() < 1e-3);

        // Tiny-but-positive scale folds, it does not clear.
        let mut v = SparseProvenance::singleton(ov(1), 1.0e9);
        v.scale(5.0e-7);
        assert!((v.total() - 500.0).abs() < 1e-4);
        // Exactly zero is still the documented reset.
        v.scale(0.0);
        assert!(v.is_empty());
    }
}
