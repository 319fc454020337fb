//! Vectorised kernels for dense provenance-vector arithmetic.
//!
//! The paper's implementation "exploits SIMD instructions to reduce the cost
//! of vector-wise operations" (Section 4.3) and observes in Figure 5(a) that
//! runtime is roughly constant for small vector lengths because of SIMD data
//! parallelism. We obtain the same effect portably: the kernels below process
//! fixed-size chunks with simple, dependency-free loops that LLVM reliably
//! auto-vectorises in release builds. (Explicit `std::simd` is still unstable
//! and platform intrinsics would violate the no-extra-dependency rule.)
//!
//! ## Who runs on these kernels
//!
//! * [`crate::dense_vec::DenseProvenance`] — the paper's fixed dense
//!   vectors (full proportional, selective, grouped tracking), the only
//!   provenance representation that routes its arithmetic through this
//!   module;
//! * the ablation bench, which compares these chunked kernels against the
//!   scalar [`mod@reference`] implementations.
//!
//! Sparse lists merge through their own ordered-list kernels in
//! [`crate::sparse_vec`].

/// Chunk width used by the kernels. Eight `f64`s = one AVX-512 register or two
/// AVX2 registers; the exact value only matters for the ablation bench.
pub const CHUNK: usize = 8;

/// `dst[i] += src[i]` — the ⊕ operation of Algorithm 3 (line 6).
pub fn add_assign(dst: &mut [f64], src: &[f64]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "provenance vectors must have equal length"
    );
    let mut dst_chunks = dst.chunks_exact_mut(CHUNK);
    let mut src_chunks = src.chunks_exact(CHUNK);
    for (d, s) in dst_chunks.by_ref().zip(src_chunks.by_ref()) {
        for i in 0..CHUNK {
            d[i] += s[i];
        }
    }
    for (d, s) in dst_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        *d += *s;
    }
}

/// `dst[i] += factor * src[i]` — the proportional transfer of Algorithm 3
/// (line 9): the destination receives the fraction `factor = r.q / |B_{r.s}|`
/// of every component of the source vector.
pub fn add_scaled(dst: &mut [f64], src: &[f64], factor: f64) {
    assert_eq!(
        dst.len(),
        src.len(),
        "provenance vectors must have equal length"
    );
    let mut dst_chunks = dst.chunks_exact_mut(CHUNK);
    let mut src_chunks = src.chunks_exact(CHUNK);
    for (d, s) in dst_chunks.by_ref().zip(src_chunks.by_ref()) {
        for i in 0..CHUNK {
            d[i] += factor * s[i];
        }
    }
    for (d, s) in dst_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        *d += factor * *s;
    }
}

/// `v[i] *= factor` — the ⊖ operation of Algorithm 3 (line 10) expressed as
/// keeping the complementary fraction `1 - r.q/|B_{r.s}|` at the source.
pub fn scale(v: &mut [f64], factor: f64) {
    let mut chunks = v.chunks_exact_mut(CHUNK);
    for c in chunks.by_ref() {
        for x in c.iter_mut() {
            *x *= factor;
        }
    }
    for x in chunks.into_remainder() {
        *x *= factor;
    }
}

/// Set every component to zero (resetting `p_{r.s}` after a full relay,
/// Algorithm 3 line 6).
pub fn clear(v: &mut [f64]) {
    for x in v.iter_mut() {
        *x = 0.0;
    }
}

/// Sum of all components (equals `|B_v|` for a consistent provenance vector).
pub fn sum(v: &[f64]) -> f64 {
    // Chunked accumulation into independent lanes, then a horizontal add:
    // faster and more accurate than a single serial accumulator.
    let mut lanes = [0.0f64; CHUNK];
    let mut chunks = v.chunks_exact(CHUNK);
    for c in chunks.by_ref() {
        for i in 0..CHUNK {
            lanes[i] += c[i];
        }
    }
    let mut total: f64 = lanes.iter().sum();
    for x in chunks.remainder() {
        total += *x;
    }
    total
}

/// Reference (non-chunked) implementations used by the ablation bench and the
/// property tests to validate the chunked kernels.
pub mod reference {
    /// Scalar `dst += src`.
    pub fn add_assign(dst: &mut [f64], src: &[f64]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += *s;
        }
    }

    /// Scalar `dst += factor * src`.
    pub fn add_scaled(dst: &mut [f64], src: &[f64], factor: f64) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += factor * *s;
        }
    }

    /// Scalar `v *= factor`.
    pub fn scale(v: &mut [f64], factor: f64) {
        for x in v.iter_mut() {
            *x *= factor;
        }
    }

    /// Scalar sum.
    pub fn sum(v: &[f64]) -> f64 {
        v.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantity::qty_approx_eq;

    #[test]
    fn add_assign_matches_reference() {
        for len in [0, 1, 7, 8, 9, 31, 64, 100] {
            let mut a: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let b: Vec<f64> = (0..len).map(|i| (i * 3) as f64 + 0.5).collect();
            let mut a_ref = a.clone();
            add_assign(&mut a, &b);
            reference::add_assign(&mut a_ref, &b);
            assert_eq!(a, a_ref, "len={len}");
        }
    }

    #[test]
    fn add_scaled_matches_reference() {
        for len in [0, 1, 5, 8, 13, 40] {
            let mut a: Vec<f64> = (0..len).map(|i| i as f64 * 0.25).collect();
            let b: Vec<f64> = (0..len).map(|i| (len - i) as f64).collect();
            let mut a_ref = a.clone();
            add_scaled(&mut a, &b, 0.3);
            reference::add_scaled(&mut a_ref, &b, 0.3);
            for (x, y) in a.iter().zip(&a_ref) {
                assert!(qty_approx_eq(*x, *y));
            }
        }
    }

    #[test]
    fn scale_matches_reference() {
        for len in [0, 3, 8, 17] {
            let mut a: Vec<f64> = (0..len).map(|i| i as f64 + 1.0).collect();
            let mut a_ref = a.clone();
            scale(&mut a, 0.6);
            reference::scale(&mut a_ref, 0.6);
            assert_eq!(a, a_ref);
        }
    }

    #[test]
    fn sum_matches_reference() {
        for len in [0, 1, 8, 9, 100] {
            let a: Vec<f64> = (0..len).map(|i| (i % 7) as f64 * 0.1).collect();
            assert!(qty_approx_eq(sum(&a), reference::sum(&a)));
        }
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut a = vec![1.0, 2.0, 3.0];
        clear(&mut a);
        assert_eq!(a, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn add_assign_length_mismatch_panics() {
        let mut a = vec![1.0; 3];
        add_assign(&mut a, &[1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn add_scaled_length_mismatch_panics() {
        let mut a = vec![1.0; 3];
        add_scaled(&mut a, &[1.0; 2], 0.5);
    }
}
