//! Provenance trackers: one streaming state machine per selection policy
//! and provenance representation.
//!
//! Every tracker consumes interactions in time order and can answer, at any
//! moment, the provenance question of Definition 2: *which origins make up
//! the quantity buffered at vertex v right now?*
//!
//! Proportional selection (Algorithm 3) has one relay per representation:
//! dense rows in [`proportional_dense`], whose origin space is every vertex,
//! a tracked subset or vertex groups, and sparse lists in `relay_sparse`,
//! shared by the sparse, windowed and budget trackers.
//!
//! | Tracker | Paper | Complexity (space / per-interaction time) |
//! |---------|-------|--------------------------------------------|
//! | [`no_prov::NoProvTracker`] | Alg. 1 | O(\|V\|) / O(1) |
//! | [`generation_time::GenerationTimeTracker`] | §4.1, Alg. 2 | O(\|R\|) / O((\|R\|/\|V\|)·log(\|R\|/\|V\|)) expected |
//! | [`receipt_order::ReceiptOrderTracker`] | §4.2 | O(\|R\|) / O(\|R\|/\|V\|) expected |
//! | [`proportional_dense::ProportionalDenseTracker::new`] | §4.3, Alg. 3 | O(\|V\|²) / O(\|V\|) |
//! | [`proportional_sparse::ProportionalSparseTracker`] | §4.3 | O(\|V\|·ℓ) / O(ℓ) |
//! | [`proportional_dense::ProportionalDenseTracker::selective`] | §5.1 | O(k·\|V\|) / O(k) |
//! | [`proportional_dense::ProportionalDenseTracker::grouped`] | §5.2 | O(m·\|V\|) / O(m) |
//! | [`windowed::WindowedTracker::new`] | §5.3.1 | bounded by window W |
//! | [`windowed::WindowedTracker::time_based`] | §5.3.1 (time-based variant) | bounded by window duration D |
//! | [`budget::BudgetTracker`] | §5.3.2 | O(C·\|V\|) / O(C) |
//! | [`path::PathTracker`] | §6 | O(\|R\|²/\|V\|) space |
//! | [`path_generation::GenerationPathTracker`] | §6 on top of §4.1 | O(\|R\|²/\|V\|) space |
//! | [`lazy::LazyReplayProvenance`] | §8 (future work: replay-lazy) | O(\|R\|) log / O(prefix) per query |
//! | [`backtrace::BacktraceIndex`] | §8 (future work: backtracing) | O(\|R\|) log / O(relevant prefix) per query |
//! | [`diffusion::DiffusionTracker`] | §8 (future work: diffusion instead of relay) | O(\|V\|·ℓ) / O(ℓ) |

pub mod backtrace;
pub mod budget;
pub mod diffusion;
pub mod generation_time;
pub mod lazy;
pub mod no_prov;
pub mod path;
pub mod path_generation;
pub mod proportional_dense;
pub mod proportional_sparse;
pub mod receipt_order;
pub mod windowed;

use crate::error::Result;
use crate::ids::VertexId;
use crate::interaction::Interaction;
use crate::memory::{FootprintBreakdown, MemoryFootprint, SpikeMonitor};
use crate::origins::OriginSet;
use crate::policy::{PolicyConfig, SelectionPolicy};
use crate::quantity::{qty_approx_eq, qty_clamp_non_negative, qty_ge, Quantity};
use crate::sparse_vec::SparseProvenance;
use crate::stream::InteractionSource;

/// The per-vertex provenance state of one vertex, moved out of a tracker for
/// sharded execution (the `tin-shard` crate).
///
/// Every tracker's state is a per-vertex structure — a provenance vector, a
/// receipt queue, a generation-time heap, a path buffer — plus read-only
/// configuration and scalar counters. A sharded engine migrates exactly this
/// per-vertex structure between shard-local tracker replicas: the native
/// buffers are *moved* (the sparse vectors keep their packed SoA key/value
/// layout from [`crate::sparse_vec`]), never re-serialised, so a re-imported
/// vertex behaves bit-identically to one that never left.
///
/// The payload is type-erased: each tracker knows its own state shape and
/// [`ShardVertexState::downcast`]s it back on import. Mixing states between
/// tracker types is a programming error and panics.
pub struct ShardVertexState {
    payload: Box<dyn std::any::Any + Send>,
    /// Logical footprint of the payload when it was taken (0 when unknown).
    footprint_bytes: usize,
}

impl ShardVertexState {
    /// Wrap a tracker-specific per-vertex state payload.
    pub fn new<T: std::any::Any + Send>(payload: T) -> Self {
        ShardVertexState {
            payload: Box::new(payload),
            footprint_bytes: 0,
        }
    }

    /// Wrap a payload and record its logical footprint, so the sharded
    /// engine's skew metrics can weigh migrations by bytes moved.
    pub fn with_footprint<T: std::any::Any + Send>(payload: T, footprint_bytes: usize) -> Self {
        ShardVertexState {
            payload: Box::new(payload),
            footprint_bytes,
        }
    }

    /// Logical footprint of the wrapped payload at take time (0 when the
    /// producing tracker did not report one).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.footprint_bytes
    }

    /// Recover the concrete payload.
    ///
    /// # Panics
    /// Panics if the state was produced by a different tracker type — shard
    /// protocol states must round-trip through trackers of one configuration.
    pub fn downcast<T: std::any::Any + Send>(self) -> T {
        *self
            .payload
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("vertex state belongs to a different tracker type"))
    }
}

impl std::fmt::Debug for ShardVertexState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ShardVertexState(..)")
    }
}

/// The per-tracker half of the shared state-migration and spike-monitor
/// plumbing.
///
/// Every factory tracker used to hand-roll its `take_vertex_state` /
/// `put_vertex_state` / spike-monitor trait methods — 13 near-identical
/// copies whose protocol details (type-erasure, downcast, the order of
/// monitor accounting relative to the state move) silently drifted apart.
/// Now a tracker implements only the genuinely varying part — *which* fields
/// migrate and how an empty slot is rebuilt — and wires the trait methods
/// through the one shared implementation with [`impl_migration_hooks!`] and
/// [`impl_spike_monitor_hooks!`]. The `tin-lint` pass (lint
/// `tracker_conformance`) enforces that every tracker uses this path.
///
/// [`impl_migration_hooks!`]: crate::impl_migration_hooks
/// [`impl_spike_monitor_hooks!`]: crate::impl_spike_monitor_hooks
pub trait MigratableTracker {
    /// The concrete per-vertex payload moved by the shard protocol.
    type Taken: std::any::Any + Send;

    /// Move vertex `v`'s provenance slots out, leaving hollow (empty)
    /// replacements behind. The hollow slot is never read or processed until
    /// [`Self::install`] puts a state back (guaranteed by the sharded
    /// engine's conflict-free batching).
    fn extract(&mut self, v: VertexId) -> Self::Taken;

    /// Re-install a payload previously produced by [`Self::extract`] on a
    /// tracker of the same configuration.
    fn install(&mut self, v: VertexId, taken: Self::Taken);

    /// The tracker's running entries-plus-paths byte counters, in O(1): the
    /// part of [`ProvenanceTracker::footprint`] that per-vertex state makes
    /// up. `extract` and `install` move the counters with the state, so the
    /// drop across an `extract` is the migrated payload's size, and a
    /// monitored tracker's spike monitor reads this value.
    fn counted_bytes(&self) -> usize;

    /// The tracker's spike-monitor slot, for trackers that support footprint
    /// spike notifications. `None` (the default) opts out of monitoring.
    fn monitor_store(&mut self) -> Option<&mut Option<SpikeMonitor>> {
        None
    }

    /// Append the checkpoint encoding of a migrated payload. Must be the
    /// exact inverse of [`Self::decode_taken`]: a decoded payload installed
    /// via [`Self::install`] behaves bit-identically to the original.
    fn encode_taken(taken: &Self::Taken, out: &mut Vec<u8>);

    /// Decode a payload written by [`Self::encode_taken`] for this tracker's
    /// configuration. A payload that decodes but does not fit the tracker's
    /// shape is a corrupt checkpoint, refused here rather than installed.
    fn decode_taken(&self, r: &mut crate::codec::ByteReader<'_>) -> Result<Self::Taken>;
}

/// Shared take-side of the shard migration protocol: extract the payload
/// and type-erase it, tagged with the bytes it took out of the tracker's
/// counters.
pub fn shared_take<T: MigratableTracker>(tracker: &mut T, v: VertexId) -> ShardVertexState {
    let before = tracker.counted_bytes();
    let taken = tracker.extract(v);
    ShardVertexState::with_footprint(taken, before - tracker.counted_bytes())
}

/// Shared put-side of the shard migration protocol: downcast the payload and
/// re-install it.
pub fn shared_put<T: MigratableTracker>(tracker: &mut T, v: VertexId, state: ShardVertexState) {
    tracker.install(v, state.downcast());
}

/// Replace a per-vertex slot and return the old one, moving a running byte
/// counter by the difference of the two slots' footprints — how `extract`
/// and `install` keep a tracker's counter exact.
pub(crate) fn replace_counted<T: MemoryFootprint>(bytes: &mut usize, slot: &mut T, new: T) -> T {
    *bytes = *bytes - slot.footprint_bytes() + new.footprint_bytes();
    std::mem::replace(slot, new)
}

/// Shared checkpoint-capture path: extract the payload, encode it, put it
/// straight back. The extract/install round-trip moves the buffers
/// wholesale, so the tracker's observable state is untouched.
pub fn shared_encode<T: MigratableTracker>(tracker: &mut T, v: VertexId, out: &mut Vec<u8>) {
    let taken = tracker.extract(v);
    T::encode_taken(&taken, out);
    tracker.install(v, taken);
}

/// Shared checkpoint-restore path: decode a payload and install it. The
/// target slot must be hollow (freshly built or previously extracted).
pub fn shared_restore<T: MigratableTracker>(
    tracker: &mut T,
    v: VertexId,
    r: &mut crate::codec::ByteReader<'_>,
) -> Result<()> {
    let taken = tracker.decode_taken(r)?;
    tracker.install(v, taken);
    Ok(())
}

/// Shared decode-without-install path: turn checkpoint bytes into the
/// type-erased [`ShardVertexState`] the shard protocol moves around. The
/// sharded engine's main thread uses a probe tracker of the right
/// configuration to decode states it then routes to the owning shard.
pub fn shared_decode_state<T: MigratableTracker>(
    tracker: &T,
    r: &mut crate::codec::ByteReader<'_>,
) -> Result<ShardVertexState> {
    Ok(ShardVertexState::new(tracker.decode_taken(r)?))
}

/// Shared implementation behind `ProvenanceTracker::arm_spike_monitor`.
pub fn shared_arm_spike_monitor<T: MigratableTracker>(tracker: &mut T, fraction: f64) -> bool {
    let bytes = tracker.counted_bytes();
    match tracker.monitor_store() {
        Some(slot) => {
            *slot = Some(SpikeMonitor::new(fraction, bytes));
            true
        }
        None => false,
    }
}

/// Shared implementation behind `ProvenanceTracker::take_footprint_spike`.
pub fn shared_take_footprint_spike<T: MigratableTracker>(tracker: &mut T) -> bool {
    let bytes = tracker.counted_bytes();
    tracker
        .monitor_store()
        .and_then(Option::as_mut)
        .is_some_and(|monitor| monitor.take_spike(bytes))
}

/// Shared implementation behind `ProvenanceTracker::note_footprint_sampled`.
pub fn shared_note_footprint_sampled<T: MigratableTracker>(tracker: &mut T) {
    let bytes = tracker.counted_bytes();
    if let Some(monitor) = tracker.monitor_store().and_then(Option::as_mut) {
        monitor.rebaseline(bytes);
    }
}

/// Wire `take_vertex_state` / `put_vertex_state` through the shared
/// [`MigratableTracker`] plumbing. Invoke inside an
/// `impl ProvenanceTracker for T` block of a type that implements
/// [`MigratableTracker`]; expands to the two trait methods.
#[macro_export]
macro_rules! impl_migration_hooks {
    () => {
        fn take_vertex_state(
            &mut self,
            v: $crate::ids::VertexId,
        ) -> Option<$crate::tracker::ShardVertexState> {
            Some($crate::tracker::shared_take(self, v))
        }

        fn put_vertex_state(
            &mut self,
            v: $crate::ids::VertexId,
            state: $crate::tracker::ShardVertexState,
        ) {
            $crate::tracker::shared_put(self, v, state);
        }

        fn encode_vertex_state(&mut self, v: $crate::ids::VertexId, out: &mut Vec<u8>) -> bool {
            $crate::tracker::shared_encode(self, v, out);
            true
        }

        fn restore_vertex_state(
            &mut self,
            v: $crate::ids::VertexId,
            r: &mut $crate::codec::ByteReader<'_>,
        ) -> $crate::error::Result<()> {
            $crate::tracker::shared_restore(self, v, r)
        }

        fn decode_vertex_state(
            &self,
            r: &mut $crate::codec::ByteReader<'_>,
        ) -> $crate::error::Result<$crate::tracker::ShardVertexState> {
            $crate::tracker::shared_decode_state(self, r)
        }
    };
}

/// Wire the three spike-monitor trait methods through the shared
/// [`MigratableTracker`] plumbing. Invoke inside an
/// `impl ProvenanceTracker for T` block of a type whose
/// [`MigratableTracker::monitor_store`] returns its monitor slot.
#[macro_export]
macro_rules! impl_spike_monitor_hooks {
    () => {
        fn arm_spike_monitor(&mut self, fraction: f64) -> bool {
            $crate::tracker::shared_arm_spike_monitor(self, fraction)
        }

        fn take_footprint_spike(&mut self) -> bool {
            $crate::tracker::shared_take_footprint_spike(self)
        }

        fn note_footprint_sampled(&mut self) {
            $crate::tracker::shared_note_footprint_sampled(self)
        }
    };
}

/// Split one mutable slice into simultaneous `(source, destination)` vector
/// borrows — the per-interaction borrow dance shared by every vector-based
/// tracker. `src` and `dst` must be distinct in-bounds indices.
#[inline]
pub(crate) fn split_src_dst<T>(items: &mut [T], src: usize, dst: usize) -> (&mut T, &mut T) {
    debug_assert_ne!(src, dst, "self-loops are rejected at stream validation");
    if src < dst {
        let (a, b) = items.split_at_mut(dst);
        (&mut a[src], &mut b[0])
    } else {
        let (a, b) = items.split_at_mut(src);
        (&mut b[0], &mut a[dst])
    }
}

/// Algorithm 3's relay step on sparse lists (Section 4.3): when
/// `r.q ≥ |B_{r.s}|` the whole source list moves to the destination, plus
/// the newborn quantity `r.q − |B_{r.s}|` at `r.s`; otherwise the fraction
/// `r.q / |B_{r.s}|` of every entry moves. `src_total` is `|B_{r.s}|` before
/// the interaction, and the result is `|B_{r.s}|` after it, for
/// [`move_totals`]. Always inlined: it is the per-interaction kernel of
/// `prop_sparse`, whose `process` must not pay a call for it.
#[inline(always)]
pub(crate) fn relay_sparse(
    src: &mut SparseProvenance,
    dst: &mut SparseProvenance,
    r: &Interaction,
    src_total: Quantity,
) -> Quantity {
    if qty_ge(r.qty, src_total) {
        dst.take_all_from(src);
        let newborn = qty_clamp_non_negative(r.qty - src_total);
        if newborn > 0.0 {
            dst.add_vertex(r.src, newborn);
        }
        0.0
    } else {
        dst.transfer_from(src, r.qty / src_total);
        qty_clamp_non_negative(src_total - r.qty)
    }
}

/// Algorithm 1's buffer update: `|B_{r.s}|` becomes `src_left`, the
/// quantity a relay left at the source, and `r.q` arrives at `r.d`.
#[inline]
pub(crate) fn move_totals(totals: &mut [Quantity], r: &Interaction, src_left: Quantity) {
    totals[r.src.index()] = src_left;
    totals[r.dst.index()] += r.qty;
}

/// The uniform streaming interface implemented by every provenance tracker.
pub trait ProvenanceTracker {
    /// A short human-readable name (used in reports and benchmark output).
    fn name(&self) -> &'static str;

    /// Number of vertices this tracker was configured for.
    fn num_vertices(&self) -> usize;

    /// Apply one interaction. Interactions must arrive in non-decreasing time
    /// order; endpoints must be valid vertex indices.
    fn process(&mut self, r: &Interaction);

    /// Total quantity currently buffered at `v` (`|B_v|`).
    fn buffered(&self, v: VertexId) -> Quantity;

    /// The provenance of the quantity buffered at `v`: the origin set
    /// `O(t, B_v)` of Definition 2.
    fn origins(&self, v: VertexId) -> OriginSet;

    /// Logical memory footprint of the provenance state, broken down into
    /// entries / paths / indexes (Table 8 and Table 10 reporting).
    ///
    /// O(1) for every [`build_tracker`] policy: entries and paths bytes are
    /// running counters that move only where a container's capacity moves
    /// (the two endpoints of `process`, `extract`/`install`, window resets),
    /// and index bytes are read off spine capacities. Debug builds check
    /// the counters against a full per-vertex recount on every call.
    fn footprint(&self) -> FootprintBreakdown;

    /// Number of interactions processed so far.
    fn interactions_processed(&self) -> usize;

    /// Apply a whole slice of interactions in order.
    fn process_all(&mut self, interactions: &[Interaction]) {
        for r in interactions {
            self.process(r);
        }
    }

    /// Drain an [`InteractionSource`], applying every interaction.
    fn process_source(&mut self, source: &mut dyn InteractionSource) -> Result<usize> {
        let mut n = 0;
        while let Some(r) = source.next_interaction()? {
            self.process(&r);
            n += 1;
        }
        Ok(n)
    }

    /// Total quantity buffered anywhere in the network.
    fn total_buffered(&self) -> Quantity {
        (0..self.num_vertices())
            .map(|i| self.buffered(VertexId::from(i)))
            .sum()
    }

    /// Check the Definition 2 invariant `Σ_{τ ∈ O(t,B_v)} τ.q = |B_v|` at a
    /// single vertex. Provided for tests and debugging.
    fn check_origin_invariant(&self, v: VertexId) -> bool {
        qty_approx_eq(self.origins(v).total(), self.buffered(v))
    }

    /// Check the origin invariant at every vertex.
    fn check_all_invariants(&self) -> bool {
        (0..self.num_vertices()).all(|i| self.check_origin_invariant(VertexId::from(i)))
    }

    // --- sharded execution support (see the `tin-shard` crate) ---

    /// Move vertex `v`'s provenance state out of the tracker, leaving a
    /// hollow (empty) slot behind. The state can later be re-installed —
    /// into this tracker or into another instance of the *same*
    /// configuration — with [`Self::put_vertex_state`].
    ///
    /// A hollow slot must not be read or processed until a state is put
    /// back; the sharded engine's conflict-free batching guarantees this.
    ///
    /// Returns `None` for trackers that do not support sharded execution
    /// (none of the [`build_tracker`] policies — they all do — but external
    /// tracker implementations get a safe default).
    fn take_vertex_state(&mut self, v: VertexId) -> Option<ShardVertexState> {
        let _ = v;
        None
    }

    /// Re-install a per-vertex state previously produced by
    /// [`Self::take_vertex_state`] on a tracker of the same configuration.
    ///
    /// # Panics
    /// The default implementation panics: trackers that support sharding
    /// override both methods together.
    fn put_vertex_state(&mut self, v: VertexId, state: ShardVertexState) {
        let _ = (v, state);
        panic!("this tracker does not support sharded execution");
    }

    /// Append the checkpoint encoding of vertex `v`'s provenance state to
    /// `out`. Returns `false` (writing nothing) for trackers that do not
    /// support durable checkpoints; every [`build_tracker`] policy does.
    ///
    /// Implemented internally as an extract → encode → re-install round
    /// trip over the migration payload, so the tracker's observable state
    /// is unchanged by the capture.
    fn encode_vertex_state(&mut self, v: VertexId, out: &mut Vec<u8>) -> bool {
        let _ = (v, out);
        false
    }

    /// Install vertex `v`'s state from checkpoint bytes written by
    /// [`Self::encode_vertex_state`] on a tracker of the same configuration.
    /// Call [`Self::sync_epoch`] to the checkpoint's stream position
    /// *before* restoring any vertex, so window resets fired by the sync
    /// cannot clobber restored state.
    fn restore_vertex_state(
        &mut self,
        v: VertexId,
        r: &mut crate::codec::ByteReader<'_>,
    ) -> Result<()> {
        let _ = v;
        Err(r.corrupt("this tracker does not support checkpoint restore"))
    }

    /// Decode checkpoint bytes into the type-erased per-vertex state of the
    /// shard migration protocol, without installing it. The sharded engine's
    /// main thread uses this (on a probe tracker of the run's configuration)
    /// to repartition a checkpoint across a possibly different shard count.
    fn decode_vertex_state(
        &self,
        r: &mut crate::codec::ByteReader<'_>,
    ) -> Result<ShardVertexState> {
        Err(r.corrupt("this tracker does not support checkpoint restore"))
    }

    /// Advance the tracker's global-epoch clock — the stream position
    /// (`processed` interactions so far) and the latest timestamp — without
    /// processing any interaction, firing any window resets crossed on the
    /// way (count-based and time-based windowed tracking key their resets to
    /// these global coordinates). Trackers without epoch semantics ignore
    /// this; the sharded engine calls it so every shard replica fires the
    /// same resets at the same logical stream positions as a sequential run.
    fn sync_epoch(&mut self, processed: usize, now: f64) {
        let _ = (processed, now);
    }

    // --- footprint spike notifications (engine peak accounting) ---

    /// Arm an internal footprint-spike monitor: after this call the tracker
    /// reports — via [`Self::take_footprint_spike`] — whenever its running
    /// entries-bytes counter drifted by more than `fraction` (relative)
    /// since the engine last sampled. Returns `true` if the tracker
    /// supports spike monitoring.
    fn arm_spike_monitor(&mut self, fraction: f64) -> bool {
        let _ = fraction;
        false
    }

    /// True if the entries-bytes counter spiked past the armed threshold
    /// since the last engine sample (a `true` reading re-baselines the
    /// monitor; `false` leaves it untouched). The engine samples the
    /// footprint whenever this fires, so
    /// [`crate::engine::EngineReport::peak_footprint_bytes`] no longer
    /// misses spikes between its periodic samples.
    fn take_footprint_spike(&mut self) -> bool {
        false
    }

    /// Notification that the engine just took a footprint sample for a
    /// reason other than a spike (the periodic schedule): monitored trackers
    /// re-baseline so drift is always measured against the last sample.
    fn note_footprint_sampled(&mut self) {}
}

impl MemoryFootprint for dyn ProvenanceTracker + '_ {
    fn footprint_bytes(&self) -> usize {
        self.footprint().total()
    }
}

/// Build a boxed tracker from a [`PolicyConfig`].
///
/// # Errors
/// Returns [`crate::TinError::InvalidConfig`] when the configuration is
/// internally inconsistent (e.g. zero groups, empty tracked set, zero
/// window/budget, or a group mapping of the wrong length).
pub fn build_tracker(
    config: &PolicyConfig,
    num_vertices: usize,
) -> Result<Box<dyn ProvenanceTracker>> {
    Ok(match config {
        PolicyConfig::Plain(policy) => match policy {
            SelectionPolicy::NoProvenance => Box::new(no_prov::NoProvTracker::new(num_vertices)),
            SelectionPolicy::LeastRecentlyBorn => Box::new(
                generation_time::GenerationTimeTracker::least_recently_born(num_vertices),
            ),
            SelectionPolicy::MostRecentlyBorn => Box::new(
                generation_time::GenerationTimeTracker::most_recently_born(num_vertices),
            ),
            SelectionPolicy::Fifo => {
                Box::new(receipt_order::ReceiptOrderTracker::fifo(num_vertices))
            }
            SelectionPolicy::Lifo => {
                Box::new(receipt_order::ReceiptOrderTracker::lifo(num_vertices))
            }
            SelectionPolicy::ProportionalDense => Box::new(
                proportional_dense::ProportionalDenseTracker::new(num_vertices),
            ),
            SelectionPolicy::ProportionalSparse => Box::new(
                proportional_sparse::ProportionalSparseTracker::new(num_vertices),
            ),
        },
        PolicyConfig::Selective { tracked } => Box::new(
            proportional_dense::ProportionalDenseTracker::selective(num_vertices, tracked.clone())?,
        ),
        PolicyConfig::Grouped {
            num_groups,
            group_of,
        } => Box::new(proportional_dense::ProportionalDenseTracker::grouped(
            num_vertices,
            *num_groups,
            group_of.clone(),
        )?),
        PolicyConfig::Windowed { window } => {
            Box::new(windowed::WindowedTracker::new(num_vertices, *window)?)
        }
        PolicyConfig::TimeWindowed { duration } => Box::new(windowed::WindowedTracker::time_based(
            num_vertices,
            *duration,
        )?),
        PolicyConfig::Budgeted {
            capacity,
            keep_fraction,
            criterion,
            important,
        } => Box::new(budget::BudgetTracker::with_criterion(
            num_vertices,
            *capacity,
            *keep_fraction,
            *criterion,
            important.clone(),
        )?),
        PolicyConfig::PathTracking { lifo } => Box::new(if *lifo {
            path::PathTracker::lifo(num_vertices)
        } else {
            path::PathTracker::fifo(num_vertices)
        }),
        PolicyConfig::GenerationPaths { most_recent } => Box::new(if *most_recent {
            path_generation::GenerationPathTracker::most_recently_born(num_vertices)
        } else {
            path_generation::GenerationPathTracker::least_recently_born(num_vertices)
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::paper_running_example;

    #[test]
    fn factory_builds_every_plain_policy() {
        for policy in SelectionPolicy::all() {
            let mut tracker = build_tracker(&PolicyConfig::Plain(policy), 3).unwrap();
            tracker.process_all(&paper_running_example());
            assert_eq!(tracker.interactions_processed(), 6);
            assert!(tracker.check_all_invariants(), "policy {policy}");
        }
    }

    #[test]
    fn factory_builds_scalable_variants() {
        let configs = vec![
            PolicyConfig::Selective {
                tracked: vec![VertexId::new(1)],
            },
            PolicyConfig::Grouped {
                num_groups: 2,
                group_of: vec![0, 1, 0],
            },
            PolicyConfig::Windowed { window: 2 },
            PolicyConfig::TimeWindowed { duration: 2.5 },
            PolicyConfig::budget(4),
            PolicyConfig::PathTracking { lifo: true },
            PolicyConfig::PathTracking { lifo: false },
            PolicyConfig::GenerationPaths { most_recent: true },
            PolicyConfig::GenerationPaths { most_recent: false },
        ];
        for config in configs {
            let mut tracker = build_tracker(&config, 3).unwrap();
            tracker.process_all(&paper_running_example());
            assert!(tracker.check_all_invariants(), "config {}", config.key());
            assert!(tracker.total_buffered() > 0.0);
        }
    }

    #[test]
    fn factory_rejects_bad_configs() {
        assert!(build_tracker(&PolicyConfig::Selective { tracked: vec![] }, 3).is_err());
        assert!(build_tracker(
            &PolicyConfig::Grouped {
                num_groups: 0,
                group_of: vec![]
            },
            3
        )
        .is_err());
        assert!(build_tracker(&PolicyConfig::Windowed { window: 0 }, 3).is_err());
        assert!(build_tracker(&PolicyConfig::TimeWindowed { duration: 0.0 }, 3).is_err());
        assert!(build_tracker(&PolicyConfig::budget(0), 3).is_err());
    }

    #[test]
    fn process_source_drains_stream() {
        let mut tracker = build_tracker(&PolicyConfig::Plain(SelectionPolicy::Fifo), 3).unwrap();
        let mut src = crate::stream::VecSource::new(paper_running_example());
        let n = tracker.process_source(&mut src).unwrap();
        assert_eq!(n, 6);
        assert_eq!(tracker.interactions_processed(), 6);
    }

    #[test]
    fn dyn_tracker_memory_footprint_trait_object() {
        let mut tracker = build_tracker(&PolicyConfig::Plain(SelectionPolicy::Lifo), 3).unwrap();
        tracker.process_all(&paper_running_example());
        let dyn_ref: &dyn ProvenanceTracker = tracker.as_ref();
        assert!(dyn_ref.footprint_bytes() > 0);
    }
}
