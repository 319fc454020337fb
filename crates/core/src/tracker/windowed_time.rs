//! Time-based windowed proportional provenance.
//!
//! Section 5.3.1 motivates the windowing approach as limiting "how far in the
//! past we are interested in tracking provenance", but the paper's mechanism
//! counts *interactions*. In many TINs the natural unit of "the past" is
//! time, not interaction count — a day of taxi trips, a settlement period in
//! a financial network, a monitoring interval in a traffic network — and
//! interaction rates vary wildly over a day, so a count-based window maps to
//! a wobbling time horizon. This tracker implements the same odd/even
//! double-vector scheme, but resets fire when the *timestamp* of the current
//! interaction crosses a multiple of the window duration `D`.
//!
//! The guarantee becomes temporal: at any moment, the active vector was last
//! reset between `D` and `2·D` time units ago, so the provenance of any
//! quantity born within the last `D` time units is exact; older quantities
//! may be attributed to the artificial vertex α.

use crate::error::{Result, TinError};
use crate::ids::VertexId;
use crate::interaction::Interaction;
use crate::memory::{total_footprint, FootprintBreakdown, SpikeMonitor};
use crate::origins::OriginSet;
use crate::quantity::{qty_clamp_non_negative, qty_ge, Quantity};
use crate::sparse_vec::SparseProvenance;
use crate::tracker::windowed::{endpoint_bytes, reset_family};
use crate::tracker::{replace_counted, split_src_dst, MigratableTracker, ProvenanceTracker};

/// Per-vertex state moved by the shard protocol: both vector families plus
/// the scalar total.
pub struct TakenState {
    odd: SparseProvenance,
    even: SparseProvenance,
    total: Quantity,
}

/// Proportional provenance limited to a sliding window of `D`–`2·D` time
/// units (compare [`super::windowed::WindowedTracker`], which counts
/// interactions instead).
#[derive(Clone, Debug)]
pub struct TimeWindowedTracker {
    duration: f64,
    odd: Vec<SparseProvenance>,
    even: Vec<SparseProvenance>,
    totals: Vec<Quantity>,
    /// Running sum of both families' list footprints (see
    /// [`ProvenanceTracker::footprint`]); the spike monitor reads it too.
    entries_bytes: usize,
    processed: usize,
    resets: usize,
    /// Index of the last window boundary crossed: `floor(t / duration)`.
    epoch: u64,
    monitor: Option<SpikeMonitor>,
}

impl TimeWindowedTracker {
    /// Create a tracker with window duration `duration` (in the same time
    /// unit as the interaction timestamps).
    ///
    /// # Errors
    /// Returns an error if `duration` is not strictly positive and finite.
    pub fn new(num_vertices: usize, duration: f64) -> Result<Self> {
        if !(duration.is_finite() && duration > 0.0) {
            return Err(TinError::InvalidConfig(format!(
                "time window duration must be positive and finite, got {duration}"
            )));
        }
        Ok(TimeWindowedTracker {
            duration,
            odd: (0..num_vertices).map(|_| SparseProvenance::new()).collect(),
            even: (0..num_vertices).map(|_| SparseProvenance::new()).collect(),
            totals: vec![0.0; num_vertices],
            entries_bytes: 0,
            processed: 0,
            resets: 0,
            epoch: 0,
            monitor: None,
        })
    }

    /// The window duration D.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Number of resets performed so far.
    pub fn resets(&self) -> usize {
        self.resets
    }

    /// Provenance generated after this time is guaranteed to be exact (the
    /// start of the window that the active vector covers).
    pub fn guaranteed_since(&self) -> f64 {
        // The active vector was last reset at the start of the previous epoch
        // (or at time 0 when no reset has fired yet).
        self.epoch.saturating_sub(1) as f64 * self.duration
    }

    /// Fire every window boundary crossed up to timestamp `now` (the reset
    /// loop of `process`, shared with the shard-replica epoch sync).
    fn fire_resets_until(&mut self, now: f64) {
        let epoch_now = (now / self.duration).floor() as u64;
        while self.epoch < epoch_now {
            self.epoch += 1;
            self.resets += 1;
            let targets = if self.resets % 2 == 1 {
                &mut self.odd
            } else {
                &mut self.even
            };
            reset_family(targets, &self.totals, &mut self.entries_bytes);
        }
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

impl ProvenanceTracker for TimeWindowedTracker {
    fn name(&self) -> &'static str {
        "Time-windowed proportional"
    }

    fn num_vertices(&self) -> usize {
        self.totals.len()
    }

    fn process(&mut self, r: &Interaction) {
        let s = r.src.index();
        let d = r.dst.index();
        debug_assert_ne!(s, d, "self-loops are rejected at stream validation");

        // Fire any window boundaries passed since the previous interaction
        // *before* applying it, so the new quantities belong to the new epoch
        // (and before measuring the endpoints' bytes, so the reset's own
        // counter update is not double-counted).
        self.fire_resets_until(r.time.value());
        let before = endpoint_bytes(&self.odd, &self.even, s, d);

        Self::apply(&mut self.odd, &self.totals, r);
        Self::apply(&mut self.even, &self.totals, r);

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
    }

    fn buffered(&self, v: VertexId) -> Quantity {
        self.totals[v.index()]
    }

    fn origins(&self, v: VertexId) -> OriginSet {
        // Read whichever family was least recently reset (same parity rule as
        // the interaction-count window).
        let vec = if self.resets % 2 == 1 {
            &self.even[v.index()]
        } else {
            &self.odd[v.index()]
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

    fn sync_epoch(&mut self, _processed: usize, now: f64) {
        // The reset schedule is keyed to the stream timestamps; a replica
        // that saw no interaction of the new epoch yet fires the pending
        // boundary resets here. Replicas that already crossed the boundary
        // inside `process` are untouched (`epoch` is monotone).
        self.fire_resets_until(now);
    }

    crate::impl_spike_monitor_hooks!();
}

impl MigratableTracker for TimeWindowedTracker {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Origin;
    use crate::interaction::paper_running_example;
    use crate::quantity::qty_approx_eq;
    use crate::tracker::no_prov::NoProvTracker;
    use crate::tracker::proportional_sparse::ProportionalSparseTracker;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn rejects_non_positive_or_non_finite_durations() {
        for duration in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(TimeWindowedTracker::new(3, duration).is_err(), "{duration}");
        }
    }

    #[test]
    fn huge_duration_matches_unwindowed_proportional() {
        let mut windowed = TimeWindowedTracker::new(3, 1e9).unwrap();
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
    fn totals_match_the_baseline_regardless_of_resets() {
        let mut windowed = TimeWindowedTracker::new(3, 2.0).unwrap();
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
            assert!(windowed.check_all_invariants());
        }
    }

    #[test]
    fn resets_follow_the_timestamps_not_the_interaction_count() {
        // Running-example timestamps are 1,3,4,5,7,8. With D = 3 the epochs
        // are 0,1,1,1,2,2, so exactly two boundary crossings fire.
        let mut t = TimeWindowedTracker::new(3, 3.0).unwrap();
        t.process_all(&paper_running_example());
        assert_eq!(t.resets(), 2);
        assert!((t.duration() - 3.0).abs() < 1e-12);
        // A burst of interactions at the same timestamp never triggers extra
        // resets, unlike the count-based window.
        let mut burst = TimeWindowedTracker::new(3, 3.0).unwrap();
        for i in 0..10 {
            burst.process(&Interaction::new(0u32, 1 + (i % 2) as u32, 1.0, 1.0));
        }
        assert_eq!(burst.resets(), 0);
    }

    #[test]
    fn old_provenance_is_forgotten_recent_provenance_is_exact() {
        // D = 3: the active (odd) vector was reset at t = 3, so quantities
        // born at t = 1 lose their origin while anything born later keeps it.
        let mut t = TimeWindowedTracker::new(3, 3.0).unwrap();
        t.process_all(&paper_running_example());
        // Something was attributed to α after the resets...
        let unknown: f64 = (0..3u32)
            .map(|i| t.origins(v(i)).quantity_from(Origin::Unknown))
            .sum();
        assert!(unknown > 0.0);
        // ...but the 4 units born at v1 at t = 5 (within the guaranteed
        // horizon of the active vector) keep their concrete origin.
        assert!(t.origins(v(2)).quantity_from_vertex(v(1)) > 0.0);
        assert!(t.check_all_invariants());
    }

    #[test]
    fn guaranteed_since_tracks_the_window_start() {
        let mut t = TimeWindowedTracker::new(3, 2.0).unwrap();
        assert_eq!(t.guaranteed_since(), 0.0);
        for r in paper_running_example() {
            t.process(&r);
            // The guarantee never lags the current time by more than 2·D.
            assert!(r.time.value() - t.guaranteed_since() <= 2.0 * t.duration() + 1e-12);
        }
    }

    #[test]
    fn memory_is_bounded_by_frequent_resets() {
        let mut small = TimeWindowedTracker::new(3, 1.0).unwrap();
        let mut large = TimeWindowedTracker::new(3, 1e6).unwrap();
        for r in paper_running_example() {
            small.process(&r);
            large.process(&r);
        }
        assert!(small.footprint().entries_bytes <= large.footprint().entries_bytes);
        assert_eq!(small.name(), "Time-windowed proportional");
    }
}
