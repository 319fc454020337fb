//! Windowed proportional provenance (Section 5.3.1), over a window of
//! interactions or of time.
//!
//! Full proportional provenance over an unbounded history is infeasible for
//! large graphs, so this tracker limits the scope to a sliding window. Each
//! vertex keeps *two* sparse provenance vectors, `p_odd` and `p_even`. Both
//! are updated at every interaction. Window boundaries are numbered from 1:
//! at every odd boundary each `p_odd` is reset to the single entry
//! `(α, |B_v|)` ("unknown provenance"), and at every even boundary each
//! `p_even` is. Queries read whichever vector was least recently reset.
//!
//! The two clocks differ only in where the boundaries lie:
//!
//! * **interactions** ([`WindowedTracker::new`], the paper's mechanism): a
//!   boundary follows every `W`-th interaction, which guarantees provenance
//!   for quantities born between `W` and `2W` interactions ago;
//! * **time** ([`WindowedTracker::time_based`]): a boundary lies at every
//!   multiple of the duration `D` on the timestamp axis, and fires before
//!   the first interaction past it. In many TINs the natural unit of "the
//!   past" is time — a day of taxi trips, a settlement period in a
//!   financial network — and interaction rates vary wildly over a day, so a
//!   count-based window maps to a wobbling time horizon. The active vector
//!   was last reset between `D` and `2·D` time units ago, so the provenance
//!   of any quantity born within the last `D` time units is exact.

use crate::error::{Result, TinError};
use crate::ids::VertexId;
use crate::interaction::Interaction;
use crate::memory::{total_footprint, FootprintBreakdown, MemoryFootprint, SpikeMonitor};
use crate::origins::OriginSet;
use crate::quantity::Quantity;
use crate::sparse_vec::SparseProvenance;
use crate::tracker::{
    move_totals, relay_sparse, replace_counted, split_src_dst, MigratableTracker, ProvenanceTracker,
};

/// Per-vertex state moved by the shard protocol: both vector families plus
/// the scalar total.
pub struct TakenState {
    odd: SparseProvenance,
    even: SparseProvenance,
    total: Quantity,
}

/// Where the window boundaries lie.
#[derive(Clone, Copy, Debug)]
enum WindowClock {
    /// After every `W`-th interaction.
    Interactions(usize),
    /// At every multiple of a duration `D` of the timestamp axis.
    Time(f64),
}

/// Proportional provenance limited to a window of the last `W`–`2W`
/// interactions or `D`–`2·D` time units.
#[derive(Clone, Debug)]
pub struct WindowedTracker {
    clock: WindowClock,
    odd: Vec<SparseProvenance>,
    even: Vec<SparseProvenance>,
    totals: Vec<Quantity>,
    /// Running sum of both families' list footprints (see
    /// [`ProvenanceTracker::footprint`]); the spike monitor reads it too.
    entries_bytes: usize,
    processed: usize,
    /// How many window boundaries have been crossed so far.
    resets: usize,
    monitor: Option<SpikeMonitor>,
}

/// Time boundaries crossed by timestamp `now`: `floor(now / duration)`.
fn time_boundaries(now: f64, duration: f64) -> usize {
    (now / duration).floor() as usize
}

impl WindowedTracker {
    fn with_clock(num_vertices: usize, clock: WindowClock) -> Self {
        WindowedTracker {
            clock,
            odd: (0..num_vertices).map(|_| SparseProvenance::new()).collect(),
            even: (0..num_vertices).map(|_| SparseProvenance::new()).collect(),
            totals: vec![0.0; num_vertices],
            entries_bytes: 0,
            processed: 0,
            resets: 0,
            monitor: None,
        }
    }

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
        Ok(Self::with_clock(
            num_vertices,
            WindowClock::Interactions(window),
        ))
    }

    /// Create a tracker with window duration `duration` (in the same time
    /// unit as the interaction timestamps).
    ///
    /// # Errors
    /// Returns an error if `duration` is not strictly positive and finite.
    pub fn time_based(num_vertices: usize, duration: f64) -> Result<Self> {
        if !(duration.is_finite() && duration > 0.0) {
            return Err(TinError::InvalidConfig(format!(
                "time window duration must be positive and finite, got {duration}"
            )));
        }
        Ok(Self::with_clock(num_vertices, WindowClock::Time(duration)))
    }

    /// Number of resets performed so far.
    pub fn resets(&self) -> usize {
        self.resets
    }

    /// Guaranteed provenance horizon of an interaction window: quantities
    /// born within this many interactions before "now" have exact
    /// provenance (between W and 2W). `None` for a time window.
    pub fn guaranteed_horizon(&self) -> Option<usize> {
        match self.clock {
            WindowClock::Interactions(window) => Some(window + self.processed % window),
            WindowClock::Time(_) => None,
        }
    }

    /// Provenance generated after this time is guaranteed to be exact (the
    /// start of the window that the active vector covers). `None` for an
    /// interaction window.
    pub fn guaranteed_since(&self) -> Option<f64> {
        match self.clock {
            WindowClock::Interactions(_) => None,
            // The active vector was last reset at the start of the previous
            // window (or at time 0 when no reset has fired yet).
            WindowClock::Time(duration) => Some(self.resets.saturating_sub(1) as f64 * duration),
        }
    }

    /// Fire reset number `n` (from 1): clear the odd family for odd `n` and
    /// the even family for even `n` to the single entry `(α, |B_v|)` at
    /// every vertex (Figure 4).
    fn fire_reset(&mut self, n: usize) {
        let family = if n % 2 == 1 {
            &mut self.odd
        } else {
            &mut self.even
        };
        for (list, &total) in family.iter_mut().zip(&self.totals) {
            self.entries_bytes -= list.footprint_bytes();
            list.reset_to_unknown(total);
            self.entries_bytes += list.footprint_bytes();
        }
    }

    /// Cross every window boundary up to number `due`. No interaction runs
    /// between the resets of one call, and a reset leaves its family's lists
    /// and capacities the same however often it repeats, so when more than
    /// two boundaries are due only the last two fire, one per family.
    /// `resets` still counts every boundary.
    fn reset_until(&mut self, due: usize) {
        for n in self.resets.max(due.saturating_sub(2)) + 1..=due {
            self.fire_reset(n);
        }
        self.resets = self.resets.max(due);
    }
}

impl ProvenanceTracker for WindowedTracker {
    fn name(&self) -> &'static str {
        match self.clock {
            WindowClock::Interactions(_) => "Windowed proportional",
            WindowClock::Time(_) => "Time-windowed proportional",
        }
    }

    fn num_vertices(&self) -> usize {
        self.totals.len()
    }

    fn process(&mut self, r: &Interaction) {
        let s = r.src.index();
        let d = r.dst.index();
        debug_assert_ne!(s, d, "self-loops are rejected at stream validation");

        // A time window crosses every boundary passed since the previous
        // interaction *before* applying it, so the new quantities belong to
        // the new window (and before measuring the endpoints' bytes, so the
        // reset's own counter update is not double-counted).
        if let WindowClock::Time(duration) = self.clock {
            self.reset_until(time_boundaries(r.time.value(), duration));
        }
        let before = endpoint_bytes(&self.odd, &self.even, s, d);

        // Both vector families relay every interaction.
        let src_total = self.totals[s];
        let (src_vec, dst_vec) = split_src_dst(&mut self.odd, s, d);
        let src_left = relay_sparse(src_vec, dst_vec, r, src_total);
        let (src_vec, dst_vec) = split_src_dst(&mut self.even, s, d);
        relay_sparse(src_vec, dst_vec, r, src_total);
        move_totals(&mut self.totals, r, src_left);
        self.processed += 1;
        self.entries_bytes =
            self.entries_bytes - before + endpoint_bytes(&self.odd, &self.even, s, d);

        // An interaction window resets after the interaction that reaches a
        // multiple of W (Figure 4).
        if let WindowClock::Interactions(window) = self.clock {
            self.reset_until(self.processed / window);
        }
    }

    fn buffered(&self, v: VertexId) -> Quantity {
        self.totals[v.index()]
    }

    fn origins(&self, v: VertexId) -> OriginSet {
        // Reset #1 clears the odd vectors, #2 the even vectors, #3 the odd
        // vectors, ... After an odd number of resets the odd vectors were
        // cleared most recently, so read the even ones.
        let family = if self.resets % 2 == 1 {
            &self.even
        } else {
            &self.odd
        };
        family[v.index()].to_origin_set()
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

    fn sync_epoch(&mut self, processed: usize, now: f64) {
        // A shard replica may have processed only a subset of the stream, so
        // it jumps its clock to the global coordinates and crosses every
        // boundary on the way. Boundaries a replica already crossed itself
        // are not crossed twice: `resets` only grows.
        match self.clock {
            WindowClock::Interactions(window) => {
                if processed > self.processed {
                    self.reset_until(processed / window);
                    self.processed = processed;
                }
            }
            WindowClock::Time(duration) => self.reset_until(time_boundaries(now, duration)),
        }
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

    fn decode_taken(&self, r: &mut crate::codec::ByteReader<'_>) -> Result<TakenState> {
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

/// Footprint of both families' lists at the two endpoints of an
/// interaction — the only lists it can resize.
fn endpoint_bytes(
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
    use crate::tracker::no_prov::NoProvTracker;
    use crate::tracker::proportional_sparse::ProportionalSparseTracker;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    /// Reference `sync_epoch` for the skipping reset loop: one full reset
    /// per boundary crossed.
    fn sync_one_reset_per_boundary(t: &mut WindowedTracker, processed: usize, now: f64) {
        let due = match t.clock {
            WindowClock::Interactions(window) => {
                if processed <= t.processed {
                    return;
                }
                t.processed = processed;
                processed / window
            }
            WindowClock::Time(duration) => time_boundaries(now, duration),
        };
        while t.resets < due {
            t.resets += 1;
            t.fire_reset(t.resets);
        }
    }

    #[test]
    fn rejects_empty_windows() {
        assert!(WindowedTracker::new(3, 0).is_err());
        for duration in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                WindowedTracker::time_based(3, duration).is_err(),
                "{duration}"
            );
        }
    }

    #[test]
    fn huge_window_matches_unwindowed_proportional() {
        // If the window outlasts the stream no reset ever fires, so the
        // result is exactly proportional sparse tracking.
        for mut windowed in [
            WindowedTracker::new(3, 1000).unwrap(),
            WindowedTracker::time_based(3, 1e9).unwrap(),
        ] {
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
    }

    #[test]
    fn totals_are_never_affected_by_resets() {
        for mut windowed in [
            WindowedTracker::new(3, 2).unwrap(),
            WindowedTracker::time_based(3, 2.0).unwrap(),
        ] {
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
    }

    #[test]
    fn resets_fire_every_window() {
        let mut t = WindowedTracker::new(3, 2).unwrap();
        t.process_all(&paper_running_example());
        // 6 interactions, W = 2 -> resets after #2, #4, #6.
        assert_eq!(t.resets(), 3);
    }

    #[test]
    fn resets_follow_the_timestamps_not_the_interaction_count() {
        // Running-example timestamps are 1,3,4,5,7,8. With D = 3 the windows
        // are 0,1,1,1,2,2, so exactly two boundary crossings fire.
        let mut t = WindowedTracker::time_based(3, 3.0).unwrap();
        t.process_all(&paper_running_example());
        assert_eq!(t.resets(), 2);
        // A burst of interactions at the same timestamp never triggers extra
        // resets, unlike the count-based window.
        let mut burst = WindowedTracker::time_based(3, 3.0).unwrap();
        for i in 0..10 {
            burst.process(&Interaction::new(0u32, 1 + (i % 2) as u32, 1.0, 1.0));
        }
        assert_eq!(burst.resets(), 0);
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
    fn old_provenance_is_forgotten_recent_provenance_is_exact() {
        // D = 3: the active (odd) vector was reset at t = 3, so quantities
        // born at t = 1 lose their origin while anything born later keeps it.
        let mut t = WindowedTracker::time_based(3, 3.0).unwrap();
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
    fn guaranteed_horizon_bounds() {
        let mut t = WindowedTracker::new(3, 4).unwrap();
        assert_eq!(t.guaranteed_horizon(), Some(4));
        assert_eq!(t.guaranteed_since(), None);
        for r in paper_running_example() {
            t.process(&r);
            let h = t.guaranteed_horizon().unwrap();
            assert!((4..8).contains(&h), "horizon {h} outside [W, 2W)");
        }
    }

    #[test]
    fn guaranteed_since_tracks_the_window_start() {
        let mut t = WindowedTracker::time_based(3, 2.0).unwrap();
        assert_eq!(t.guaranteed_since(), Some(0.0));
        assert_eq!(t.guaranteed_horizon(), None);
        for r in paper_running_example() {
            t.process(&r);
            // The guarantee never lags the current time by more than 2·D.
            assert!(r.time.value() - t.guaranteed_since().unwrap() <= 4.0 + 1e-12);
        }
    }

    #[test]
    fn memory_is_bounded_by_resets() {
        // With a small window, provenance lists cannot keep growing: after a
        // reset the cleared family is a single α entry per vertex.
        for (mut small, mut large) in [
            (
                WindowedTracker::new(3, 1).unwrap(),
                WindowedTracker::new(3, 1000).unwrap(),
            ),
            (
                WindowedTracker::time_based(3, 1.0).unwrap(),
                WindowedTracker::time_based(3, 1e6).unwrap(),
            ),
        ] {
            for r in paper_running_example() {
                small.process(&r);
                large.process(&r);
            }
            assert!(small.footprint().entries_bytes <= large.footprint().entries_bytes);
        }
    }

    #[test]
    fn names() {
        assert_eq!(
            WindowedTracker::new(1, 1).unwrap().name(),
            "Windowed proportional"
        );
        assert_eq!(
            WindowedTracker::time_based(1, 1.0).unwrap().name(),
            "Time-windowed proportional"
        );
    }

    /// Timestamps that start at a Unix time cross tens of millions of
    /// window boundaries at once; the jump costs two family resets, not one
    /// per boundary.
    #[test]
    fn a_unix_time_jump_resets_each_family_once() {
        let n = 1000u32;
        let mut t = WindowedTracker::time_based(n as usize, 60.0).unwrap();
        let start = std::time::Instant::now();
        for i in 0..n - 1 {
            let time = 1.7e9 + f64::from(i) / 20.0;
            t.process(&Interaction::new(i, i + 1, time, 1.0 + f64::from(i % 3)));
        }
        t.sync_epoch(t.interactions_processed(), 3.4e9);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "the jump took {:?}",
            start.elapsed()
        );
        assert_eq!(t.resets(), time_boundaries(3.4e9, 60.0));
        for i in 0..n as usize {
            let alpha: Vec<(Origin, Quantity)> = if t.totals[i] == 0.0 {
                Vec::new()
            } else {
                vec![(Origin::Unknown, t.totals[i])]
            };
            assert_eq!(t.odd[i].iter().collect::<Vec<_>>(), alpha, "odd v{i}");
            assert_eq!(t.even[i].iter().collect::<Vec<_>>(), alpha, "even v{i}");
        }
        assert!(t.check_all_invariants());
    }

    /// Skipping all but the last two resets of a jump leaves the same lists,
    /// capacities and byte counter as firing one reset per boundary, on
    /// both clocks, for jumps of 0 to 50 windows.
    #[test]
    fn skipped_resets_match_one_reset_per_boundary() {
        const N: u64 = 7;
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        for clock in [WindowClock::Interactions(3), WindowClock::Time(2.5)] {
            let mut fast = WindowedTracker::with_clock(N as usize, clock);
            let mut reference = fast.clone();
            let mut now = 0.0;
            for step in 0..300 {
                // Jump 0–50 windows ahead on either clock...
                let windows = next(51);
                let processed = fast.processed + windows as usize * 3;
                now += windows as f64 * 2.5 + next(4) as f64 / 4.0;
                // ...either as a shard replica syncing to the global
                // coordinates, or (time windows) in the next interaction.
                if step % 2 == 0 {
                    fast.sync_epoch(processed, now);
                    sync_one_reset_per_boundary(&mut reference, processed, now);
                }
                let src = next(N);
                let dst = (src + 1 + next(N - 1)) % N;
                let r = Interaction::new(src as u32, dst as u32, now, 0.5 + next(40) as f64 / 4.0);
                let at = reference.processed;
                sync_one_reset_per_boundary(&mut reference, at, now);
                fast.process(&r);
                reference.process(&r);

                assert_eq!(fast.resets, reference.resets, "step {step}");
                assert_eq!(fast.processed, reference.processed);
                assert_eq!(fast.entries_bytes, reference.entries_bytes);
                assert_eq!(fast.footprint(), reference.footprint());
                assert_eq!(fast.totals, reference.totals);
                let lists = |t: &WindowedTracker| -> Vec<(SparseProvenance, usize)> {
                    t.odd
                        .iter()
                        .chain(&t.even)
                        .map(|l| (l.clone(), l.footprint_bytes()))
                        .collect()
                };
                assert_eq!(lists(&fast), lists(&reference), "step {step}");
            }
            assert!(fast.resets > 1000, "{clock:?} crossed {}", fast.resets);
        }
    }
}
