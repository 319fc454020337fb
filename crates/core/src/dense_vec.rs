//! Dense provenance vectors `p_v` (Section 4.3, Algorithm 3).
//!
//! A [`DenseProvenance`] holds one slot per possible origin: the `i`-th value
//! is the quantity fragment in `B_v` which originates from origin `i`. For
//! full proportional tracking the origin space is the vertex set `V`; for
//! selective tracking it is the `k` tracked vertices plus one "other" slot;
//! for grouped tracking it is the set of groups.

use serde::{Deserialize, Serialize};

use crate::memory::{vec_bytes, MemoryFootprint};
use crate::quantity::{qty_is_zero, Quantity};
use crate::simd;

/// A dense provenance vector over a fixed origin space of size `dim`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DenseProvenance {
    values: Vec<Quantity>,
}

impl DenseProvenance {
    /// Create a zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        DenseProvenance {
            // tin-lint: allow(hot-path-alloc): constructor; vectors are allocated once per vertex at setup
            values: vec![0.0; dim],
        }
    }

    /// Vector dimension (size of the origin space).
    #[inline]
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Read slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Quantity {
        self.values[i]
    }

    /// Add `q` to slot `i` (the `e_{v,x}` one-hot addition of Algorithm 3).
    #[inline]
    pub fn add_at(&mut self, i: usize, q: Quantity) {
        self.values[i] += q;
    }

    /// Total quantity represented by the vector (equals `|B_v|`).
    pub fn total(&self) -> Quantity {
        simd::sum(&self.values)
    }

    /// True if every slot is (approximately) zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&x| qty_is_zero(x))
    }

    /// `self ⊕ other` (component-wise addition, Algorithm 3 line 6).
    pub fn add_assign(&mut self, other: &DenseProvenance) {
        simd::add_assign(&mut self.values, &other.values);
    }

    /// `self ⊕ factor·other` (Algorithm 3 line 9).
    pub fn add_scaled(&mut self, other: &DenseProvenance, factor: f64) {
        simd::add_scaled(&mut self.values, &other.values, factor);
    }

    /// Keep only a `factor` fraction of every slot (Algorithm 3 line 10,
    /// written as multiplication by `1 - r.q/|B_{r.s}|`).
    pub fn scale(&mut self, factor: f64) {
        simd::scale(&mut self.values, factor);
    }

    /// Reset to all zeros.
    pub fn clear(&mut self) {
        simd::clear(&mut self.values);
    }

    /// Iterate over `(slot, quantity)` pairs with non-zero quantity.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, Quantity)> + '_ {
        self.values
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, q)| !qty_is_zero(*q))
    }

    /// Raw slice access (used by the kernels' ablation bench).
    pub fn as_slice(&self) -> &[Quantity] {
        &self.values
    }

    /// Move the whole contents of `self` into `dst`, leaving `self` zero.
    /// This is the `p_{r.d} = p_{r.d} ⊕ p_{r.s}; p_{r.s} = 0` step of
    /// Algorithm 3 (full relay case).
    pub fn drain_into(&mut self, dst: &mut DenseProvenance) {
        dst.add_assign(self);
        self.clear();
    }

    /// Transfer the fraction `factor` of `self` into `dst` (proportional
    /// split, Algorithm 3 lines 9–10).
    pub fn transfer_fraction(&mut self, dst: &mut DenseProvenance, factor: f64) {
        debug_assert!(
            (0.0..=1.0 + 1e-12).contains(&factor),
            "transfer fraction must be in [0,1], got {factor}"
        );
        dst.add_scaled(self, factor);
        self.scale(1.0 - factor);
    }

    /// Append the checkpoint encoding (dimension + every slot's bit pattern).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use crate::codec::{put_f64, put_usize};
        // Room for the dimension, the slots and the one `f64` total the
        // dense trackers append, so a fresh buffer is sized once, exactly.
        out.reserve(8 + self.values.len() * 8 + 8);
        put_usize(out, self.values.len());
        for &v in &self.values {
            put_f64(out, v);
        }
    }

    /// Decode a vector written by [`Self::encode_into`].
    pub fn decode_from(r: &mut crate::codec::ByteReader<'_>) -> crate::error::Result<Self> {
        let len = r.usize()?;
        if r.remaining() < len.saturating_mul(8) {
            // tin-lint: allow(hot-path-alloc): corrupt-checkpoint error path, not the streaming kernel
            return Err(r.corrupt(format!("truncated: {len} dense slots declared")));
        }
        // tin-lint: allow(hot-path-alloc): checkpoint restore path, not the streaming kernel
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(r.f64()?);
        }
        Ok(DenseProvenance { values })
    }
}

impl MemoryFootprint for DenseProvenance {
    fn footprint_bytes(&self) -> usize {
        vec_bytes(&self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantity::qty_approx_eq;

    #[test]
    fn zeros_and_dim() {
        let v = DenseProvenance::zeros(5);
        assert_eq!(v.dim(), 5);
        assert!(v.is_zero());
        assert_eq!(v.total(), 0.0);
    }

    #[test]
    fn add_at_and_get() {
        let mut v = DenseProvenance::zeros(3);
        v.add_at(1, 3.0);
        v.add_at(1, 2.0);
        assert_eq!(v.get(1), 5.0);
        assert_eq!(v.get(0), 0.0);
        assert_eq!(v.total(), 5.0);
        assert!(!v.is_zero());
    }

    #[test]
    fn add_assign_componentwise() {
        let mut a = DenseProvenance::zeros(3);
        a.add_at(0, 1.0);
        let mut b = DenseProvenance::zeros(3);
        b.add_at(0, 2.0);
        b.add_at(2, 4.0);
        a.add_assign(&b);
        assert_eq!(a.get(0), 3.0);
        assert_eq!(a.get(2), 4.0);
    }

    #[test]
    fn drain_into_moves_everything() {
        let mut a = DenseProvenance::zeros(3);
        a.add_at(1, 3.0);
        let mut b = DenseProvenance::zeros(3);
        b.add_at(2, 1.0);
        a.drain_into(&mut b);
        assert!(a.is_zero());
        assert_eq!(b.get(1), 3.0);
        assert_eq!(b.get(2), 1.0);
        assert!(qty_approx_eq(b.total(), 4.0));
    }

    #[test]
    fn transfer_fraction_splits_proportionally() {
        // Reproduces the third interaction of Table 5: p_v0 = [0, 3, 2],
        // transfer 3 of 5 to p_v1.
        let mut p_v0 = DenseProvenance::zeros(3);
        p_v0.add_at(1, 3.0);
        p_v0.add_at(2, 2.0);
        let mut p_v1 = DenseProvenance::zeros(3);
        p_v0.transfer_fraction(&mut p_v1, 3.0 / 5.0);
        assert!(qty_approx_eq(p_v1.get(1), 1.8));
        assert!(qty_approx_eq(p_v1.get(2), 1.2));
        assert!(qty_approx_eq(p_v0.get(1), 1.2));
        assert!(qty_approx_eq(p_v0.get(2), 0.8));
        // Conservation.
        assert!(qty_approx_eq(p_v0.total() + p_v1.total(), 5.0));
    }

    #[test]
    fn transfer_full_fraction_equals_drain() {
        let mut a = DenseProvenance::zeros(4);
        a.add_at(3, 7.0);
        let mut b = DenseProvenance::zeros(4);
        a.transfer_fraction(&mut b, 1.0);
        assert!(a.is_zero());
        assert!(qty_approx_eq(b.get(3), 7.0));
    }

    #[test]
    fn nonzero_iterator_skips_zero_slots() {
        let mut v = DenseProvenance::zeros(4);
        v.add_at(0, 1.0);
        v.add_at(3, 2.0);
        let nz: Vec<(usize, f64)> = v.nonzero().collect();
        assert_eq!(nz, vec![(0, 1.0), (3, 2.0)]);
    }

    #[test]
    fn clear_resets() {
        let mut v = DenseProvenance::zeros(2);
        v.add_at(0, 5.0);
        v.clear();
        assert!(v.is_zero());
    }

    #[test]
    fn footprint_scales_with_dimension() {
        let small = DenseProvenance::zeros(10);
        let big = DenseProvenance::zeros(1000);
        assert!(big.footprint_bytes() > small.footprint_bytes());
        assert_eq!(big.footprint_bytes(), 1000 * std::mem::size_of::<f64>());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "transfer fraction")]
    fn transfer_fraction_rejects_out_of_range_in_debug() {
        let mut a = DenseProvenance::zeros(2);
        let mut b = DenseProvenance::zeros(2);
        a.transfer_fraction(&mut b, 1.5);
    }
}
