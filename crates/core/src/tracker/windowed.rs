//! Windowed proportional provenance (Section 5.3.1).
//!
//! Full proportional provenance over an unbounded history is infeasible for
//! large graphs, so this tracker limits the scope to a sliding window of `W`
//! interactions. Each vertex keeps *two* sparse provenance vectors, `p_odd`
//! and `p_even`. Both are updated at every interaction; whenever the number of
//! processed interactions reaches an odd multiple of `W` every `p_odd` is
//! reset to the single entry `(α, |B_v|)` ("unknown provenance"), and at even
//! multiples every `p_even` is reset. Queries read whichever vector was least
//! recently reset, which guarantees provenance for quantities born between
//! `W` and `2W` interactions ago.

use crate::error::{Result, TinError};
use crate::ids::VertexId;
use crate::interaction::Interaction;
use crate::memory::{total_footprint, FootprintBreakdown, MemoryFootprint, SpikeMonitor};
use crate::origins::OriginSet;
use crate::quantity::{qty_clamp_non_negative, qty_ge, Quantity};
use crate::sparse_vec::SparseProvenance;
use crate::tracker::{replace_counted, split_src_dst, MigratableTracker, ProvenanceTracker};

/// Per-vertex state moved by the shard protocol: both vector families plus
/// the scalar total.
pub struct TakenState {
    odd: SparseProvenance,
    even: SparseProvenance,
    total: Quantity,
}

/// Which of the two per-vertex vectors a query should read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ActiveVector {
    Odd,
    Even,
}

/// Proportional provenance limited to a window of the last `W`–`2W`
/// interactions.
#[derive(Clone, Debug)]
pub struct WindowedTracker {
    window: usize,
    odd: Vec<SparseProvenance>,
    even: Vec<SparseProvenance>,
    totals: Vec<Quantity>,
    /// Running sum of both families' list footprints (see
    /// [`ProvenanceTracker::footprint`]); the spike monitor reads it too.
    entries_bytes: usize,
    processed: usize,
    /// How many window resets have happened so far.
    resets: usize,
    monitor: Option<SpikeMonitor>,
}

impl WindowedTracker {
    /// Create a tracker with window length `window` (in interactions).
    ///
    /// # Errors
    /// Returns an error if `window` is zero.
    pub fn new(num_vertices: usize, window: usize) -> Result<Self> {
        if window == 0 {
            return Err(TinError::InvalidConfig(
                "window length must be at least 1 interaction".into(),
            ));
        }
        Ok(WindowedTracker {
            window,
            odd: (0..num_vertices).map(|_| SparseProvenance::new()).collect(),
            even: (0..num_vertices).map(|_| SparseProvenance::new()).collect(),
            totals: vec![0.0; num_vertices],
            entries_bytes: 0,
            processed: 0,
            resets: 0,
            monitor: None,
        })
    }

    /// Fire one window reset: clear whichever vector family's turn it is to
    /// the single entry `(α, |B_v|)` at every vertex (Figure 4).
    fn fire_reset(&mut self) {
        self.resets += 1;
        let targets = if self.resets % 2 == 1 {
            &mut self.odd
        } else {
            &mut self.even
        };
        reset_family(targets, &self.totals, &mut self.entries_bytes);
    }

    /// The window length W.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of resets performed so far.
    pub fn resets(&self) -> usize {
        self.resets
    }

    /// Which vector currently answers queries: the one that was *least*
    /// recently reset.
    fn active(&self) -> ActiveVector {
        // resets = number of resets so far; reset #1 clears the odd vectors,
        // #2 the even vectors, #3 the odd vectors, ... After an odd number of
        // resets the odd vectors were cleared most recently → read even.
        if self.resets % 2 == 1 {
            ActiveVector::Even
        } else {
            ActiveVector::Odd
        }
    }

    /// Guaranteed provenance horizon: quantities born within this many
    /// interactions before "now" have exact provenance (between W and 2W).
    pub fn guaranteed_horizon(&self) -> usize {
        let since_reset = self.processed % self.window;
        self.window + since_reset
    }

    fn apply(vectors: &mut [SparseProvenance], totals: &[Quantity], r: &Interaction) {
        let s = r.src.index();
        let d = r.dst.index();
        let (src_vec, dst_vec) = split_src_dst(vectors, s, d);
        let src_total = totals[s];
        if qty_ge(r.qty, src_total) {
            dst_vec.take_all_from(src_vec);
            let newborn = qty_clamp_non_negative(r.qty - src_total);
            if newborn > 0.0 {
                dst_vec.add_vertex(r.src, newborn);
            }
        } else {
            let factor = r.qty / src_total;
            dst_vec.transfer_from(src_vec, factor);
        }
    }
}

impl ProvenanceTracker for WindowedTracker {
    fn name(&self) -> &'static str {
        "Windowed proportional"
    }

    fn num_vertices(&self) -> usize {
        self.totals.len()
    }

    fn process(&mut self, r: &Interaction) {
        let s = r.src.index();
        let d = r.dst.index();
        debug_assert_ne!(s, d, "self-loops are rejected at stream validation");
        let before = endpoint_bytes(&self.odd, &self.even, s, d);

        // Both vector families are updated at every interaction.
        Self::apply(&mut self.odd, &self.totals, r);
        Self::apply(&mut self.even, &self.totals, r);

        // Update the scalar totals once.
        let src_total = self.totals[s];
        if qty_ge(r.qty, src_total) {
            self.totals[s] = 0.0;
        } else {
            self.totals[s] = qty_clamp_non_negative(src_total - r.qty);
        }
        self.totals[d] += r.qty;
        self.processed += 1;
        self.entries_bytes =
            self.entries_bytes - before + endpoint_bytes(&self.odd, &self.even, s, d);

        // Reset at multiples of W (Figure 4).
        if self.processed.is_multiple_of(self.window) {
            self.fire_reset();
        }
    }

    fn buffered(&self, v: VertexId) -> Quantity {
        self.totals[v.index()]
    }

    fn origins(&self, v: VertexId) -> OriginSet {
        let vec = match self.active() {
            ActiveVector::Odd => &self.odd[v.index()],
            ActiveVector::Even => &self.even[v.index()],
        };
        vec.to_origin_set()
    }

    fn footprint(&self) -> FootprintBreakdown {
        debug_assert_eq!(
            self.entries_bytes,
            total_footprint(self.odd.iter().chain(&self.even))
        );
        FootprintBreakdown {
            entries_bytes: self.entries_bytes,
            paths_bytes: 0,
            index_bytes: crate::memory::vec_bytes(&self.totals)
                + std::mem::size_of::<SparseProvenance>()
                    * (self.odd.capacity() + self.even.capacity()),
        }
    }

    fn interactions_processed(&self) -> usize {
        self.processed
    }

    crate::impl_migration_hooks!();

    fn sync_epoch(&mut self, processed: usize, _now: f64) {
        // A shard replica may have processed only a subset of the stream; the
        // reset schedule is keyed to the *global* interaction count, so jump
        // the clock forward and fire every window boundary crossed on the
        // way. Resets already fired locally (a replica whose own counter hit
        // the boundary) are not fired twice: `resets == processed / window`
        // is an invariant on both paths.
        if processed <= self.processed {
            return;
        }
        let due = processed / self.window;
        while self.resets < due {
            self.fire_reset();
        }
        self.processed = processed;
    }

    crate::impl_spike_monitor_hooks!();
}

impl MigratableTracker for WindowedTracker {
    type Taken = TakenState;

    fn extract(&mut self, v: VertexId) -> TakenState {
        let i = v.index();
        let bytes = &mut self.entries_bytes;
        TakenState {
            odd: replace_counted(bytes, &mut self.odd[i], SparseProvenance::new()),
            even: replace_counted(bytes, &mut self.even[i], SparseProvenance::new()),
            total: std::mem::take(&mut self.totals[i]),
        }
    }

    fn install(&mut self, v: VertexId, taken: TakenState) {
        let i = v.index();
        replace_counted(&mut self.entries_bytes, &mut self.odd[i], taken.odd);
        replace_counted(&mut self.entries_bytes, &mut self.even[i], taken.even);
        self.totals[i] = taken.total;
    }

    fn counted_bytes(&self) -> usize {
        self.entries_bytes
    }

    fn encode_taken(taken: &TakenState, out: &mut Vec<u8>) {
        taken.odd.encode_tagged_into(out);
        taken.even.encode_tagged_into(out);
        crate::codec::put_f64(out, taken.total);
    }

    fn decode_taken(r: &mut crate::codec::ByteReader<'_>) -> crate::error::Result<TakenState> {
        Ok(TakenState {
            odd: SparseProvenance::decode_tagged_from(r)?,
            even: SparseProvenance::decode_tagged_from(r)?,
            total: r.f64()?,
        })
    }

    fn monitor_store(&mut self) -> Option<&mut Option<SpikeMonitor>> {
        Some(&mut self.monitor)
    }
}

/// Reset every list of one family to the single entry `(α, |B_v|)`, moving
/// the running byte counter by the change in the family's footprint. Shared
/// with the time-windowed tracker.
pub(super) fn reset_family(
    family: &mut [SparseProvenance],
    totals: &[Quantity],
    entries_bytes: &mut usize,
) {
    for (vec, &total) in family.iter_mut().zip(totals) {
        *entries_bytes -= vec.footprint_bytes();
        vec.reset_to_unknown(total);
        *entries_bytes += vec.footprint_bytes();
    }
}

/// Footprint of both families' lists at the two endpoints of an
/// interaction — the only lists it can resize. Shared with the time-windowed
/// tracker.
pub(super) fn endpoint_bytes(
    odd: &[SparseProvenance],
    even: &[SparseProvenance],
    s: usize,
    d: usize,
) -> usize {
    odd[s].footprint_bytes()
        + odd[d].footprint_bytes()
        + even[s].footprint_bytes()
        + even[d].footprint_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Origin;
    use crate::interaction::paper_running_example;
    use crate::quantity::qty_approx_eq;
    use crate::tracker::proportional_sparse::ProportionalSparseTracker;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn rejects_zero_window() {
        assert!(WindowedTracker::new(3, 0).is_err());
    }

    #[test]
    fn huge_window_matches_unwindowed_proportional() {
        // If W exceeds the stream length no reset ever fires, so the result
        // is exactly proportional sparse tracking.
        let mut windowed = WindowedTracker::new(3, 1000).unwrap();
        let mut exact = ProportionalSparseTracker::new(3);
        for r in paper_running_example() {
            windowed.process(&r);
            exact.process(&r);
        }
        assert_eq!(windowed.resets(), 0);
        for i in 0..3u32 {
            assert!(qty_approx_eq(windowed.buffered(v(i)), exact.buffered(v(i))));
            assert!(windowed.origins(v(i)).approx_eq(&exact.origins(v(i))));
        }
    }

    #[test]
    fn totals_are_never_affected_by_resets() {
        use crate::tracker::no_prov::NoProvTracker;
        let mut windowed = WindowedTracker::new(3, 2).unwrap();
        let mut baseline = NoProvTracker::new(3);
        for r in paper_running_example() {
            windowed.process(&r);
            baseline.process(&r);
            for i in 0..3u32 {
                assert!(qty_approx_eq(
                    windowed.buffered(v(i)),
                    baseline.buffered(v(i))
                ));
            }
        }
    }

    #[test]
    fn resets_fire_every_window() {
        let mut t = WindowedTracker::new(3, 2).unwrap();
        t.process_all(&paper_running_example());
        // 6 interactions, W = 2 -> resets after #2, #4, #6.
        assert_eq!(t.resets(), 3);
        assert_eq!(t.window(), 2);
    }

    #[test]
    fn origin_invariant_holds_with_alpha_entries() {
        let mut t = WindowedTracker::new(3, 2).unwrap();
        for r in paper_running_example() {
            t.process(&r);
            assert!(t.check_all_invariants());
        }
        // After resets, some provenance must have been forgotten (attributed
        // to α) at at least one vertex.
        let total_unknown: f64 = (0..3u32)
            .map(|i| t.origins(v(i)).quantity_from(Origin::Unknown))
            .sum();
        assert!(total_unknown > 0.0);
    }

    #[test]
    fn recent_quantities_keep_exact_provenance() {
        // W = 3: after 6 interactions the active vector was reset at
        // interaction 3, so quantities born after interaction 3 must still
        // have concrete origins.
        let mut t = WindowedTracker::new(3, 3).unwrap();
        t.process_all(&paper_running_example());
        // Interaction 4 (v1→v2, q=7) generates 4 newborn units at v1 which
        // remain (partially) at v2: their origin must still be known.
        let o2 = t.origins(v(2));
        assert!(o2.quantity_from_vertex(v(1)) > 0.0);
    }

    #[test]
    fn guaranteed_horizon_bounds() {
        let mut t = WindowedTracker::new(3, 4).unwrap();
        assert_eq!(t.guaranteed_horizon(), 4);
        for r in paper_running_example() {
            t.process(&r);
            let h = t.guaranteed_horizon();
            assert!((4..8).contains(&h), "horizon {h} outside [W, 2W)");
        }
    }

    #[test]
    fn memory_is_bounded_by_resets() {
        // With a small window, provenance lists cannot keep growing: after a
        // reset the cleared family is a single α entry per vertex.
        let mut small = WindowedTracker::new(3, 1).unwrap();
        let mut large = WindowedTracker::new(3, 1000).unwrap();
        for r in paper_running_example() {
            small.process(&r);
            large.process(&r);
        }
        assert!(small.footprint().entries_bytes <= large.footprint().entries_bytes);
    }

    #[test]
    fn name() {
        assert_eq!(
            WindowedTracker::new(1, 1).unwrap().name(),
            "Windowed proportional"
        );
    }
}
