//! The streaming provenance engine.
//!
//! The trackers in [`crate::tracker`] are deliberately minimal: they assume a
//! validated, time-ordered stream and panic-free inputs. Real deployments
//! (Section 1: provenance is maintained "in real-time, as new interactions
//! take place in a streaming fashion") need the glue around them:
//!
//! * input validation (ordering, vertex bounds, quantity sanity) with proper
//!   errors instead of debug assertions,
//! * flow accounting (how much quantity was relayed vs. newly generated —
//!   the two cases of Algorithm 1),
//! * periodic durable [`Checkpoint`]s of the full provenance state, which a
//!   crashed or stopped run resumes from ([`ProvenanceEngine::resume_from`]),
//! * and footprint accounting (the peak logical footprint of the run).
//!
//! [`RunLedger`] keeps that bookkeeping — stream position, flow totals,
//! peak footprint, durable-save and telemetry cadence, and the run metrics —
//! once for both engines: [`ProvenanceEngine`] here and the sharded engine
//! of the `tin-shard` crate each embed one and add only their execution
//! strategy. [`run_ensemble`] runs several policies side by side over the
//! same stream — the shape of every experiment in Section 7.

use std::time::Instant;

use tin_obs::{CounterId, GaugeId, HistogramId, Obs, Registry, Telemetry};

use crate::checkpoint::{Checkpoint, CheckpointSource, CheckpointStore, Payloads, StreamCursor};
use crate::error::{Result, TinError};
use crate::ids::VertexId;
use crate::interaction::Interaction;
use crate::memory::FootprintBreakdown;
use crate::origins::OriginSet;
use crate::policy::PolicyConfig;
use crate::quantity::Quantity;
use crate::stream::InteractionSource;
use crate::tracker::{build_tracker, ProvenanceTracker};

/// Flow accounting and footprint figures for a finished (or in-progress)
/// engine run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineReport {
    /// Stable key of the policy configuration the engine ran.
    pub policy: String,
    /// Number of interactions processed.
    pub interactions: usize,
    /// Total quantity moved by all interactions (Σ r.q).
    pub total_quantity: Quantity,
    /// Quantity that was newly generated at source vertices
    /// (the `r.q − |B_{r.s}|` case of Algorithm 1).
    pub newborn_quantity: Quantity,
    /// Quantity that was relayed out of existing buffers.
    pub relayed_quantity: Quantity,
    /// Logical provenance footprint at the end of the run.
    pub footprint: FootprintBreakdown,
    /// Peak logical provenance footprint observed during the run: the
    /// maximum over the footprint samples, taken every
    /// `max(`[`ProvenanceEngine::FOOTPRINT_SAMPLE_INTERVAL`]`, |V|/64)`
    /// interactions (or every
    /// [`ProvenanceEngine::with_footprint_sample_interval`]), whenever the
    /// tracker's spike monitor fires, and at the report itself. The sharded
    /// engine samples each shard every 1024 locally processed interactions
    /// instead and reports the peak of the summed shard samples. A spike on
    /// an unmonitored tracker that falls between two samples is missed. At
    /// least as large as `footprint.total()`.
    pub peak_footprint_bytes: usize,
    /// Durable checkpoints this engine saved during the run: the periodic
    /// saves into the store attached with `with_durable_checkpoints`, on
    /// both engines. Captures that were not saved (`checkpoint()`, the
    /// sharded engine's recovery snapshots) do not count.
    pub checkpoints_taken: usize,
}

impl EngineReport {
    /// Fraction of the moved quantity that was newly generated rather than
    /// relayed (1.0 when every interaction was paid out of fresh units).
    pub fn newborn_fraction(&self) -> f64 {
        if self.total_quantity <= 0.0 {
            0.0
        } else {
            self.newborn_quantity / self.total_quantity
        }
    }
}

/// Handles of the run metrics a [`RunLedger`] records: the sampled
/// footprint and the durable-checkpoint figures. Both engines register them
/// through [`Self::register`], so each name, kind and unit is written once.
#[derive(Clone, Copy, Debug)]
pub struct RunMetrics {
    footprint_bytes: GaugeId,
    ckpt_capture_ns: HistogramId,
    ckpt_encode_ns: HistogramId,
    ckpt_write_ns: HistogramId,
    ckpt_retries: CounterId,
    ckpt_bytes: GaugeId,
}

impl RunMetrics {
    /// Register the run metrics into `metrics`. An engine calls this once
    /// per attached [`Obs`], at the point of its own registration order it
    /// wants the run metrics to take.
    pub fn register(metrics: &mut Registry) -> Self {
        RunMetrics {
            footprint_bytes: metrics.gauge("footprint_bytes", "bytes"),
            ckpt_capture_ns: metrics.histogram("checkpoint_capture_ns", "ns"),
            ckpt_encode_ns: metrics.histogram("checkpoint_encode_ns", "ns"),
            ckpt_write_ns: metrics.histogram("checkpoint_write_ns", "ns"),
            ckpt_retries: metrics.counter("checkpoint_retries_total", "attempts"),
            ckpt_bytes: metrics.gauge("checkpoint_bytes", "bytes"),
        }
    }
}

/// An observability unit attached to an engine: the caller's [`Obs`], the
/// engine's own preregistered metric handles `M`, and the [`RunMetrics`]
/// the ledger records. Every update is an index into pre-sized storage, so
/// an instrumented hot path stays allocation-free (enforced by the
/// `obs_alloc_counting` integration test).
pub struct RunObs<M> {
    /// The attached unit.
    pub obs: Obs,
    /// The engine's own metric handles, registered into `obs`.
    pub ids: M,
    /// The run metrics, registered into `obs` by [`RunMetrics::register`].
    pub run: RunMetrics,
}

/// Whole nanoseconds from fractional seconds (saturating).
fn secs_to_ns(secs: f64) -> u64 {
    (secs * 1e9).max(0.0).min(u64::MAX as f64) as u64
}

/// An attached live-telemetry stream: the JSONL sink, its
/// every-N-interactions cadence, and the stream position of its last record.
/// Emission happens off the per-interaction hot path, so the
/// zero-allocation steady-state contract holds between emission points.
struct TelemetryState {
    sink: Telemetry,
    every: usize,
    last_at: Option<u64>,
}

/// The run bookkeeping every engine shares, whatever its execution
/// strategy: the policy and vertex count, the stream cursor (position, last
/// timestamp, flow totals and peak footprint — exactly what a
/// [`Checkpoint`] carries), the durable-save and telemetry cadences, and
/// the attached observability unit with the run metrics. `M` is the
/// engine's own metric-handle type (see [`RunObs`]).
///
/// An engine validates each interaction with [`Self::validate`], books it
/// with [`Self::advance`] and [`Self::add_newborn`], feeds footprint samples
/// to [`Self::note_footprint`], and after each interaction calls
/// [`Self::save`] when [`Self::save_due`], then
/// [`Self::emit_interval_telemetry`]. A save streams the file from
/// [`Payloads`]: the sequential engine hands over its live tracker, so its
/// saves take no capture, while the sharded engine hands over the capture
/// that becomes its recovery snapshot. Short of an actual save or telemetry
/// record, these calls neither allocate nor read the clock.
pub struct RunLedger<M> {
    config: PolicyConfig,
    policy_key: String,
    num_vertices: usize,
    cursor: StreamCursor,
    durable: Option<(CheckpointStore, usize)>,
    saves: usize,
    telemetry: Option<Box<TelemetryState>>,
    /// Boxed so an uninstrumented engine pays one pointer and one branch.
    obs: Option<Box<RunObs<M>>>,
}

impl<M> RunLedger<M> {
    /// An empty ledger for a run of `config` over `num_vertices` vertices,
    /// at stream position zero.
    pub fn new(config: &PolicyConfig, num_vertices: usize) -> Self {
        RunLedger {
            config: config.clone(),
            policy_key: config.key(),
            num_vertices,
            cursor: StreamCursor::default(),
            durable: None,
            saves: 0,
            telemetry: None,
            obs: None,
        }
    }

    /// The policy configuration of the run.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// The stable key of the run's policy.
    pub fn policy_key(&self) -> &str {
        &self.policy_key
    }

    /// The number of vertices of the run.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The current stream position and flow counters.
    pub fn cursor(&self) -> &StreamCursor {
        &self.cursor
    }

    /// Continue from `cursor` (a restored checkpoint's, or the default to
    /// start over). The peak footprint keeps the larger of the two: a
    /// fresh engine takes the checkpoint's, while a sharded recovery that
    /// restores an older snapshot keeps its live peak.
    pub fn resume(&mut self, cursor: &StreamCursor) {
        let peak = self.cursor.peak_footprint_bytes;
        self.cursor = cursor.clone();
        self.cursor.peak_footprint_bytes = peak.max(cursor.peak_footprint_bytes);
    }

    /// Validate `r` as the next interaction of the stream (see
    /// [`validate_stream_step`]).
    ///
    /// # Errors
    /// As [`validate_stream_step`].
    pub fn validate(&self, r: &Interaction) -> Result<()> {
        validate_stream_step(
            r,
            self.cursor.processed,
            self.num_vertices,
            self.cursor.last_time,
        )
    }

    /// Book `r` as processed: its quantity joins the total and the stream
    /// position moves past it. Its newborn share is booked separately
    /// ([`Self::add_newborn`]), in stream order.
    pub fn advance(&mut self, r: &Interaction) {
        self.cursor.total_quantity += r.qty;
        self.cursor.last_time = Some(r.time.0);
        self.cursor.processed += 1;
    }

    /// Book the newborn quantity of the next interaction, in stream order
    /// (float addition is not associative, so the order is part of the
    /// bit-identity contract).
    pub fn add_newborn(&mut self, newborn: Quantity) {
        self.cursor.newborn_quantity += newborn;
    }

    /// Fold a footprint sample (total bytes) into the peak and the
    /// `footprint_bytes` gauge.
    pub fn note_footprint(&mut self, total: usize) {
        self.cursor.peak_footprint_bytes = self.cursor.peak_footprint_bytes.max(total);
        if let Some(o) = self.obs.as_deref_mut() {
            o.obs.metrics.set_gauge(o.run.footprint_bytes, total as u64);
        }
    }

    /// Save the run into `store` every `every` interactions (see
    /// [`Self::save_due`]).
    ///
    /// # Errors
    /// Returns [`TinError::InvalidConfig`] if `every` is zero.
    pub fn set_durable(&mut self, store: CheckpointStore, every: usize) -> Result<()> {
        if every == 0 {
            return Err(TinError::InvalidConfig(
                "durable checkpoint interval must be positive".into(),
            ));
        }
        self.durable = Some((store, every));
        Ok(())
    }

    /// Whether the engine should [`Self::save`] now: a store is attached and
    /// the stream position is a multiple of its interval.
    pub fn save_due(&self) -> bool {
        self.durable
            .as_ref()
            .is_some_and(|(_, every)| self.cursor.processed.is_multiple_of(*every))
    }

    /// Time one state capture that began at `start` under
    /// `checkpoint_capture_ns`, with a `checkpoint_capture` span.
    pub fn record_capture(&mut self, start: Instant) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.obs
                .metrics
                .observe_duration(o.run.ckpt_capture_ns, start.elapsed());
            o.obs.trace.record("checkpoint_capture", 0, start);
        }
    }

    /// Save the run at the current stream position into the attached
    /// store, streaming the states from `payloads`, and record the save's
    /// encode/write timings, retries and size, with a `checkpoint_save`
    /// span. The policy and cursor sections come from the ledger, so
    /// captured payloads must be the state at the current position. The
    /// store's save loop retries a failed write from the same payloads.
    ///
    /// # Errors
    /// Propagates [`CheckpointStore::save`] failures, and returns
    /// [`TinError::InvalidConfig`] when no store is attached or a live
    /// tracker cannot encode its vertex states.
    pub fn save(&mut self, payloads: Payloads<'_>) -> Result<()> {
        let Some((store, _)) = self.durable.as_mut() else {
            return Err(TinError::InvalidConfig(
                "no durable checkpoint store attached".into(),
            ));
        };
        let start = Instant::now();
        store.save_from(&mut CheckpointSource::new(
            &self.config,
            self.num_vertices,
            &self.cursor,
            payloads,
        ))?;
        self.saves += 1;
        if let (Some(o), Some(s)) = (self.obs.as_deref_mut(), store.last_save_stats()) {
            let metrics = &mut o.obs.metrics;
            metrics.observe(o.run.ckpt_encode_ns, secs_to_ns(s.encode_secs));
            metrics.observe(o.run.ckpt_write_ns, secs_to_ns(s.write_secs));
            metrics.add(o.run.ckpt_retries, s.retries as u64);
            metrics.set_gauge(o.run.ckpt_bytes, s.encoded_bytes as u64);
            o.obs.trace.record("checkpoint_save", 0, start);
        }
        Ok(())
    }

    /// Stream a telemetry record every `every` interactions.
    ///
    /// # Errors
    /// Returns [`TinError::InvalidConfig`] if `every` is zero.
    pub fn set_telemetry(&mut self, sink: Telemetry, every: usize) -> Result<()> {
        if every == 0 {
            return Err(TinError::InvalidConfig(
                "telemetry interval must be positive".into(),
            ));
        }
        self.telemetry = Some(Box::new(TelemetryState {
            sink,
            every,
            last_at: None,
        }));
        Ok(())
    }

    /// Whether a telemetry stream and an observability unit are attached.
    pub fn has_telemetry(&self) -> bool {
        self.telemetry.is_some() && self.obs.is_some()
    }

    /// Whether the stream moved since the last telemetry record (false
    /// without a telemetry stream).
    pub fn telemetry_behind(&self) -> bool {
        self.telemetry
            .as_deref()
            .is_some_and(|t| t.last_at != Some(self.cursor.processed as u64))
    }

    /// Emit one telemetry record of the current metrics at the current
    /// stream position, tagged with `source`. Returns `false` without side
    /// effects unless [`Self::has_telemetry`].
    ///
    /// # Errors
    /// Propagates sink write failures as [`TinError::Io`].
    pub fn emit_telemetry(&mut self, source: &str) -> Result<bool> {
        let (Some(t), Some(o)) = (self.telemetry.as_deref_mut(), self.obs.as_deref()) else {
            return Ok(false);
        };
        let at = self.cursor.processed as u64;
        t.sink.emit(at, source, &o.obs.snapshot())?;
        t.last_at = Some(at);
        Ok(true)
    }

    /// Emit an `interval` record if the stream position is a multiple of
    /// the telemetry cadence.
    ///
    /// # Errors
    /// Propagates sink write failures as [`TinError::Io`].
    pub fn emit_interval_telemetry(&mut self) -> Result<()> {
        if self
            .telemetry
            .as_deref()
            .is_some_and(|t| self.cursor.processed.is_multiple_of(t.every))
        {
            self.emit_telemetry("interval")?;
        }
        Ok(())
    }

    /// Attach an observability unit, replacing any previous one.
    pub fn attach_obs(&mut self, obs: RunObs<M>) {
        self.obs = Some(Box::new(obs));
    }

    /// The attached observability unit, if any.
    pub fn obs(&self) -> Option<&RunObs<M>> {
        self.obs.as_deref()
    }

    /// The attached observability unit, mutably.
    pub fn obs_mut(&mut self) -> Option<&mut RunObs<M>> {
        self.obs.as_deref_mut()
    }

    /// Detach the observability unit.
    pub fn take_obs(&mut self) -> Option<Obs> {
        self.obs.take().map(|o| o.obs)
    }

    /// The report for everything booked so far, given the current
    /// footprint. The peak is at least the current footprint.
    pub fn report(&self, footprint: FootprintBreakdown) -> EngineReport {
        let c = &self.cursor;
        EngineReport {
            policy: self.policy_key.clone(),
            interactions: c.processed,
            total_quantity: c.total_quantity,
            newborn_quantity: c.newborn_quantity,
            relayed_quantity: c.total_quantity - c.newborn_quantity,
            peak_footprint_bytes: c.peak_footprint_bytes.max(footprint.total()),
            footprint,
            checkpoints_taken: self.saves,
        }
    }
}

/// The sequential engine's own metric handles (the run metrics live in
/// its [`RunLedger`]).
struct EngineMetrics {
    /// Per-interaction `tracker.process` latency.
    latency_ns: HistogramId,
    /// Spike-monitor firings that forced an out-of-schedule sample.
    spikes: CounterId,
}

/// A validated, instrumented streaming front-end for one provenance tracker.
pub struct ProvenanceEngine {
    tracker: Box<dyn ProvenanceTracker>,
    ledger: RunLedger<EngineMetrics>,
    /// Explicit footprint-sampling interval; `None` uses the default
    /// schedule `max(FOOTPRINT_SAMPLE_INTERVAL, |V|/64)`.
    footprint_sample_interval: Option<usize>,
}

impl ProvenanceEngine {
    /// Minimum number of interactions between two peak-footprint samples;
    /// the default interval is `max(1024, |V|/64)`. A sample reads the
    /// tracker's O(1) [`ProvenanceTracker::footprint`], so the schedule
    /// sets the resolution of the peak, not its cost. It is kept as it is
    /// because the peak travels in every checkpoint cursor, and a new
    /// schedule would change checkpoint bytes. Trackers with a spike monitor
    /// (see [`ProvenanceTracker::arm_spike_monitor`]) additionally push a
    /// notification whenever their entries bytes drift by more than
    /// [`Self::SPIKE_FRACTION`] between samples, so short-lived spikes do
    /// not hide between the periodic samples.
    pub const FOOTPRINT_SAMPLE_INTERVAL: usize = 1024;

    /// Relative footprint drift at which a tracker-pushed spike notification
    /// triggers an out-of-schedule footprint sample.
    pub const SPIKE_FRACTION: f64 = 0.25;

    /// Build an engine for a policy configuration over `num_vertices`
    /// vertices.
    ///
    /// # Errors
    /// Propagates [`TinError::InvalidConfig`] from the tracker factory.
    pub fn new(config: &PolicyConfig, num_vertices: usize) -> Result<Self> {
        let mut tracker = build_tracker(config, num_vertices)?;
        tracker.arm_spike_monitor(Self::SPIKE_FRACTION);
        Ok(ProvenanceEngine {
            tracker,
            ledger: RunLedger::new(config, num_vertices),
            footprint_sample_interval: None,
        })
    }

    /// Sample the footprint every `every` interactions instead of the
    /// default `max(`[`Self::FOOTPRINT_SAMPLE_INTERVAL`]`, |V|/64)`
    /// schedule. Spike-monitor notifications still force out-of-schedule
    /// samples. A sample costs O(1), so a small interval costs little; it
    /// changes the reported peak (and the checkpoint cursors that carry it),
    /// never the provenance state.
    ///
    /// # Errors
    /// Returns [`TinError::InvalidConfig`] if `every` is zero.
    pub fn with_footprint_sample_interval(mut self, every: usize) -> Result<Self> {
        if every == 0 {
            return Err(TinError::InvalidConfig(
                "footprint sample interval must be positive".into(),
            ));
        }
        self.footprint_sample_interval = Some(every);
        Ok(self)
    }

    /// Attach an observability unit: per-interaction tracker latency (the
    /// only reason the engine reads the clock per interaction),
    /// footprint samples, spike firings and checkpoint phase timings land
    /// in its metrics, checkpoint spans on its flight recorder. All metric
    /// handles are preregistered here, so the instrumented hot path stays
    /// allocation-free; the engine's observable results are unaffected.
    /// Retrieve the unit with [`Self::take_obs`] when the run ends.
    #[must_use]
    pub fn with_observability(mut self, mut obs: Obs) -> Self {
        let ids = EngineMetrics {
            latency_ns: obs.metrics.histogram("tracker_latency_ns", "ns"),
            spikes: obs.metrics.counter("footprint_spikes_total", "spikes"),
        };
        let run = RunMetrics::register(&mut obs.metrics);
        self.ledger.attach_obs(RunObs { obs, ids, run });
        self
    }

    /// The attached observability unit, if any (live scraping via
    /// [`Obs::snapshot`]).
    pub fn obs(&self) -> Option<&Obs> {
        self.ledger.obs().map(|o| &o.obs)
    }

    /// Detach and return the observability unit for export.
    pub fn take_obs(&mut self) -> Option<Obs> {
        self.ledger.take_obs()
    }

    /// Stream a delta-encoded telemetry record (see
    /// [`tin_obs::Telemetry`]) every `every` interactions. Attaches a
    /// default observability unit if none is present — telemetry without
    /// metrics would stream empty records.
    ///
    /// # Errors
    /// Returns [`TinError::InvalidConfig`] if `every` is zero.
    pub fn with_telemetry(mut self, sink: Telemetry, every: usize) -> Result<Self> {
        self.ledger.set_telemetry(sink, every)?;
        if self.ledger.obs().is_none() {
            self = self.with_observability(Obs::new());
        }
        Ok(self)
    }

    /// Emit one telemetry record right now, tagged with `source` (the CLI
    /// uses `"final"` for the end-of-run record). Returns `false` without
    /// side effects when no telemetry stream is attached.
    ///
    /// # Errors
    /// Propagates sink write failures as [`TinError::Io`].
    pub fn emit_telemetry(&mut self, source: &str) -> Result<bool> {
        self.ledger.emit_telemetry(source)
    }

    /// Write a durable [`Checkpoint`] into `store` every `every`
    /// interactions: full lossless state a crashed run can resume from with
    /// [`Self::resume_from`]. Each save streams the file straight from the
    /// live tracker, encoding it vertex by vertex, and takes no capture:
    /// it needs one write buffer and the largest vertex payload on top of
    /// the live state.
    ///
    /// # Errors
    /// Returns [`TinError::InvalidConfig`] if `every` is zero.
    pub fn with_durable_checkpoints(
        mut self,
        store: CheckpointStore,
        every: usize,
    ) -> Result<Self> {
        self.ledger.set_durable(store, every)?;
        Ok(self)
    }

    /// Rebuild an engine from a durable [`Checkpoint`], bit-identical to the
    /// engine that captured it: tracker state, stream position, and flow
    /// counters all resume exactly. The caller then replays the interaction
    /// stream starting at interaction `checkpoint.cursor.processed`.
    ///
    /// # Errors
    /// Propagates factory errors for the embedded policy and
    /// [`TinError::CorruptCheckpoint`] for undecodable vertex payloads.
    pub fn resume_from(checkpoint: &Checkpoint) -> Result<Self> {
        let mut engine = ProvenanceEngine::new(&checkpoint.policy, checkpoint.num_vertices)?;
        checkpoint.restore_into(engine.tracker.as_mut())?;
        // Re-arm the spike monitor: `new` baselined it on an empty tracker,
        // and drift must be measured from the restored footprint.
        engine.tracker.arm_spike_monitor(Self::SPIKE_FRACTION);
        engine.ledger.resume(&checkpoint.cursor);
        Ok(engine)
    }

    /// The engine's current stream position and flow counters.
    pub fn cursor(&self) -> StreamCursor {
        self.ledger.cursor().clone()
    }

    /// Capture a durable [`Checkpoint`] of the current state without
    /// touching disk. The tracker's observable state is unchanged. An
    /// attached observability unit times the capture under
    /// `checkpoint_capture_ns`.
    ///
    /// # Errors
    /// Returns [`TinError::InvalidConfig`] for trackers without durable
    /// checkpoint support (none of the factory policies).
    pub fn checkpoint(&mut self) -> Result<Checkpoint> {
        let start = Instant::now();
        let checkpoint = Checkpoint::capture(
            self.ledger.config(),
            self.ledger.cursor().clone(),
            self.tracker.as_mut(),
        )?;
        self.ledger.record_capture(start);
        Ok(checkpoint)
    }

    /// The wrapped tracker.
    pub fn tracker(&self) -> &dyn ProvenanceTracker {
        self.tracker.as_ref()
    }

    /// The stable key of the policy this engine runs.
    pub fn policy_key(&self) -> &str {
        self.ledger.policy_key()
    }

    /// Current provenance of the quantity buffered at `v`.
    pub fn origins(&self, v: VertexId) -> OriginSet {
        self.tracker.origins(v)
    }

    /// Current buffered quantity `|B_v|`.
    pub fn buffered(&self, v: VertexId) -> Quantity {
        self.tracker.buffered(v)
    }

    /// Validate and process one interaction.
    ///
    /// # Errors
    /// * [`TinError::InvalidQuantity`] / [`TinError::InvalidTimestamp`] /
    ///   [`TinError::SelfLoop`] for malformed interactions,
    /// * [`TinError::UnknownVertex`] for endpoints outside the vertex set,
    /// * [`TinError::OutOfOrder`] if time goes backwards.
    pub fn process(&mut self, r: &Interaction) -> Result<()> {
        self.ledger.validate(r)?;

        // Flow accounting (Algorithm 1): anything the source buffer cannot
        // cover is newly generated at the source.
        self.ledger
            .add_newborn(newborn_quantity(self.tracker.buffered(r.src), r.qty));

        match self.ledger.obs_mut() {
            // Uninstrumented: no clock reads on the per-interaction path.
            None => self.tracker.process(r),
            Some(o) => {
                // The record is an array index plus integer adds; the sketch
                // offers are linear scans over a pre-sized table — both
                // allocation-free.
                let start = Instant::now();
                self.tracker.process(r);
                o.obs
                    .metrics
                    .observe_duration(o.ids.latency_ns, start.elapsed());
                o.obs.hot_vertices.offer(r.src.raw(), 1);
                o.obs.hot_vertices.offer(r.dst.raw(), 1);
            }
        }

        self.ledger.advance(r);
        let sample_every = self.footprint_sample_interval.unwrap_or_else(|| {
            Self::FOOTPRINT_SAMPLE_INTERVAL.max(self.ledger.num_vertices() / 64)
        });
        // Read the spike flag unconditionally: a short-circuited read on a
        // periodic-sample interaction would leave the monitor un-rebaselined
        // and trigger a redundant full sample one interaction later.
        let spiked = self.tracker.take_footprint_spike();
        if spiked || self.ledger.cursor().processed.is_multiple_of(sample_every) {
            self.ledger.note_footprint(self.tracker.footprint().total());
            if spiked {
                if let Some(o) = self.ledger.obs_mut() {
                    o.obs.metrics.inc(o.ids.spikes);
                }
            } else {
                // A spike read re-baselines on its own; periodic samples
                // re-baseline here so drift is measured from the last sample.
                self.tracker.note_footprint_sampled();
            }
        }
        if self.ledger.save_due() {
            self.ledger.save(Payloads::Live(self.tracker.as_mut()))?;
        }
        self.ledger.emit_interval_telemetry()
    }

    /// Process every interaction of a slice, stopping at the first error.
    pub fn process_all(&mut self, interactions: &[Interaction]) -> Result<()> {
        for r in interactions {
            self.process(r)?;
        }
        Ok(())
    }

    /// Drain an [`InteractionSource`], returning the final report.
    pub fn run(&mut self, source: &mut dyn InteractionSource) -> Result<EngineReport> {
        while let Some(r) = source.next_interaction()? {
            self.process(&r)?;
        }
        Ok(self.report())
    }

    /// The report for everything processed so far.
    pub fn report(&self) -> EngineReport {
        self.ledger.report(self.tracker.footprint())
    }
}

impl std::fmt::Debug for ProvenanceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvenanceEngine")
            .field("policy", &self.ledger.policy_key())
            .field("num_vertices", &self.ledger.num_vertices())
            .field("processed", &self.ledger.cursor().processed)
            .finish()
    }
}

/// Stream-step validation shared by every engine front-end (the sequential
/// [`ProvenanceEngine`] and the sharded engine of the `tin-shard` crate):
/// malformed interaction, unknown endpoint, or time going backwards. Keeping
/// one copy is what makes the two engines' "identical validation and error
/// surface" claim safe against future rule changes.
///
/// # Errors
/// * [`TinError::InvalidQuantity`] / [`TinError::InvalidTimestamp`] /
///   [`TinError::SelfLoop`] for malformed interactions,
/// * [`TinError::UnknownVertex`] for endpoints outside the vertex set,
/// * [`TinError::OutOfOrder`] if time goes backwards.
pub fn validate_stream_step(
    r: &Interaction,
    processed: usize,
    num_vertices: usize,
    last_time: Option<f64>,
) -> Result<()> {
    r.validate(Some(processed))?;
    for endpoint in [r.src, r.dst] {
        if endpoint.index() >= num_vertices {
            return Err(TinError::UnknownVertex {
                vertex: endpoint,
                num_vertices,
            });
        }
    }
    if let Some(prev) = last_time {
        if r.time.0 < prev {
            return Err(TinError::OutOfOrder {
                position: processed,
                previous: prev,
                current: r.time.0,
            });
        }
    }
    Ok(())
}

/// Algorithm 1's newborn split, shared by every engine front-end: the part
/// of a transfer that the source's buffered quantity cannot cover is newly
/// generated at the source.
#[inline]
pub fn newborn_quantity(buffered_at_src: Quantity, qty: Quantity) -> Quantity {
    (qty - buffered_at_src).max(0.0)
}

/// Run several policy configurations over the same interaction sequence and
/// return one report per configuration, in input order. This is the shape of
/// the paper's comparative experiments (Tables 7 and 8): same workload, one
/// column per policy.
pub fn run_ensemble(
    configs: &[PolicyConfig],
    num_vertices: usize,
    interactions: &[Interaction],
) -> Result<Vec<EngineReport>> {
    let mut reports = Vec::with_capacity(configs.len());
    for config in configs {
        let mut engine = ProvenanceEngine::new(config, num_vertices)?;
        engine.process_all(interactions)?;
        reports.push(engine.report());
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::paper_running_example;
    use crate::policy::SelectionPolicy;
    use crate::quantity::qty_approx_eq;
    use crate::stream::VecSource;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    fn fifo_config() -> PolicyConfig {
        PolicyConfig::Plain(SelectionPolicy::Fifo)
    }

    #[test]
    fn engine_runs_the_running_example() {
        let mut engine = ProvenanceEngine::new(&fifo_config(), 3).unwrap();
        let mut source = VecSource::new(paper_running_example());
        let report = engine.run(&mut source).unwrap();
        assert_eq!(report.interactions, 6);
        assert_eq!(report.policy, "fifo");
        // Σ r.q = 21; newborn = 3 (interaction 1) + 2 (interaction 2)
        // + 4 (interaction 4) = 9; relayed = 12 (Table 2's parenthesised values).
        assert!(qty_approx_eq(report.total_quantity, 21.0));
        assert!(qty_approx_eq(report.newborn_quantity, 9.0));
        assert!(qty_approx_eq(report.relayed_quantity, 12.0));
        assert!((report.newborn_fraction() - 9.0 / 21.0).abs() < 1e-9);
        assert!(report.footprint.total() > 0);
        // Peak footprint is sampled (and floored at the final footprint).
        assert!(report.peak_footprint_bytes >= report.footprint.total());
        // Buffered totals match Table 2's final row.
        assert!(qty_approx_eq(engine.buffered(v(0)), 3.0));
        assert!(qty_approx_eq(engine.buffered(v(1)), 2.0));
        assert!(qty_approx_eq(engine.buffered(v(2)), 4.0));
        assert_eq!(engine.origins(v(0)).total(), engine.buffered(v(0)));
        assert_eq!(engine.policy_key(), "fifo");
        assert_eq!(engine.tracker().name(), "FIFO");
        assert!(format!("{engine:?}").contains("fifo"));
    }

    #[test]
    fn engine_rejects_malformed_input() {
        let mut engine = ProvenanceEngine::new(&fifo_config(), 3).unwrap();
        // Self-loop.
        let err = engine
            .process(&Interaction::new(1u32, 1u32, 1.0, 2.0))
            .unwrap_err();
        assert!(matches!(err, TinError::SelfLoop { .. }));
        // Non-positive quantity.
        let err = engine
            .process(&Interaction::new(0u32, 1u32, 1.0, 0.0))
            .unwrap_err();
        assert!(matches!(err, TinError::InvalidQuantity { .. }));
        // Unknown vertex.
        let err = engine
            .process(&Interaction::new(0u32, 9u32, 1.0, 2.0))
            .unwrap_err();
        assert!(matches!(err, TinError::UnknownVertex { .. }));
        // Out of order.
        engine
            .process(&Interaction::new(0u32, 1u32, 5.0, 2.0))
            .unwrap();
        let err = engine
            .process(&Interaction::new(0u32, 1u32, 4.0, 2.0))
            .unwrap_err();
        assert!(matches!(err, TinError::OutOfOrder { .. }));
        // Equal timestamps are fine.
        engine
            .process(&Interaction::new(1u32, 2u32, 5.0, 1.0))
            .unwrap();
    }

    #[test]
    fn engine_propagates_factory_errors() {
        let bad = PolicyConfig::Selective { tracked: vec![] };
        assert!(ProvenanceEngine::new(&bad, 3).is_err());
    }

    #[test]
    fn ensemble_compares_policies_on_the_same_stream() {
        let configs = vec![
            PolicyConfig::Plain(SelectionPolicy::NoProvenance),
            PolicyConfig::Plain(SelectionPolicy::Fifo),
            PolicyConfig::Plain(SelectionPolicy::ProportionalDense),
        ];
        let reports = run_ensemble(&configs, 3, &paper_running_example()).unwrap();
        assert_eq!(reports.len(), 3);
        // Flow accounting is policy-independent: every policy moves the same
        // quantity and generates the same newborn quantity.
        for report in &reports {
            assert_eq!(report.interactions, 6);
            assert!(qty_approx_eq(report.total_quantity, 21.0));
            assert!(qty_approx_eq(report.newborn_quantity, 9.0));
        }
        assert_eq!(reports[0].policy, "noprov");
        assert_eq!(reports[2].policy, "prop_dense");
        // An invalid member aborts the whole ensemble.
        let bad = vec![PolicyConfig::Windowed { window: 0 }];
        assert!(run_ensemble(&bad, 3, &paper_running_example()).is_err());
    }

    /// Satellite (PR 5): trackers push footprint-spike notifications, so a
    /// spike that lives and dies *between* two periodic samples still shows
    /// up in `peak_footprint_bytes`. The stream below grows a large
    /// provenance list at a hub and then lets a keep-important budget shrink
    /// rebuild it with a tight capacity — the only periodic sample lands
    /// mid-growth, so without the spike callback the reported peak would
    /// miss the top of the ramp.
    #[test]
    fn spike_callback_catches_peaks_between_samples() {
        use crate::policy::ShrinkCriterion;
        let n = 2000usize;
        let capacity = 1500usize;
        let config = PolicyConfig::Budgeted {
            capacity,
            keep_fraction: 0.5,
            criterion: ShrinkCriterion::KeepImportant,
            important: vec![VertexId::new(1)],
        };
        let mut engine = ProvenanceEngine::new(&config, n).unwrap();
        // Phase 1: `capacity` distinct generators feed vertex 0 — its list
        // grows to the budget limit without shrinking.
        for i in 1..=capacity as u32 {
            engine
                .process(&Interaction::new(i, 0u32, i as f64, 1.0))
                .unwrap();
        }
        let at_peak = engine.tracker().footprint().total();
        // Phase 2: one more origin pushes the list over budget; the
        // keep-important shrink rebuilds it at half the entries with a
        // fresh, tight allocation.
        engine
            .process(&Interaction::new(1501u32, 0u32, 1501.0, 1.0))
            .unwrap();
        let report = engine.report();
        // The shrink genuinely released memory...
        assert!(
            report.footprint.total() < at_peak,
            "shrink should drop the footprint: {} vs {at_peak}",
            report.footprint.total()
        );
        // ...and the single periodic sample (at interaction 1024, two thirds
        // up the ramp) undercounts the true peak, which only the spike
        // samples reach.
        assert!(
            report.peak_footprint_bytes as f64 >= 0.95 * at_peak as f64,
            "peak {} missed the spike of {at_peak}",
            report.peak_footprint_bytes
        );
        assert!(report.peak_footprint_bytes > report.footprint.total());
    }

    #[test]
    fn durable_checkpoints_resume_bit_identically() {
        use crate::checkpoint::CheckpointStore;
        let dir = std::env::temp_dir().join(format!("tin_engine_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        let interactions = paper_running_example();

        // Interrupted run: durable checkpoint every 2 interactions, "crash"
        // after 4.
        let mut engine = ProvenanceEngine::new(&fifo_config(), 3)
            .unwrap()
            .with_durable_checkpoints(store, 2)
            .unwrap();
        engine.process_all(&interactions[..4]).unwrap();
        assert_eq!(engine.report().checkpoints_taken, 2);

        // Recover from disk and replay the tail.
        let store = CheckpointStore::open(&dir).unwrap();
        let (_, checkpoint) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(checkpoint.cursor.processed, 4);
        let mut resumed = ProvenanceEngine::resume_from(&checkpoint).unwrap();
        resumed
            .process_all(&interactions[checkpoint.cursor.processed..])
            .unwrap();

        // Uninterrupted reference run.
        let mut reference = ProvenanceEngine::new(&fifo_config(), 3).unwrap();
        reference.process_all(&interactions).unwrap();

        // Bit-identical: exact float equality, not approximate.
        let resumed_report = resumed.report();
        let reference_report = reference.report();
        assert_eq!(resumed_report.interactions, reference_report.interactions);
        assert_eq!(
            resumed_report.total_quantity,
            reference_report.total_quantity
        );
        assert_eq!(
            resumed_report.newborn_quantity,
            reference_report.newborn_quantity
        );
        for i in 0..3u32 {
            assert_eq!(resumed.buffered(v(i)), reference.buffered(v(i)));
            assert_eq!(resumed.origins(v(i)), reference.origins(v(i)));
        }

        // Zero interval is rejected.
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(ProvenanceEngine::new(&fifo_config(), 3)
            .unwrap()
            .with_durable_checkpoints(store, 0)
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// PR 8 tentpole + satellite: an attached [`Obs`] unit records
    /// per-interaction latency, footprint samples at the configured
    /// interval, and checkpoint phase timings — without changing any
    /// engine-observable result.
    #[test]
    fn observability_records_latency_footprint_and_checkpoints() {
        let interactions = paper_running_example();
        let dir = std::env::temp_dir().join(format!("tin_obs_engine_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt_store = CheckpointStore::open(&dir).unwrap();
        let mut engine = ProvenanceEngine::new(&fifo_config(), 3)
            .unwrap()
            .with_footprint_sample_interval(2)
            .unwrap()
            .with_durable_checkpoints(ckpt_store, 3)
            .unwrap()
            .with_observability(Obs::new());
        let mut plain = ProvenanceEngine::new(&fifo_config(), 3).unwrap();
        engine.process_all(&interactions).unwrap();
        plain.process_all(&interactions).unwrap();

        // Instrumentation must not perturb results: exact equality.
        for i in 0..3u32 {
            assert_eq!(engine.buffered(v(i)), plain.buffered(v(i)));
            assert_eq!(engine.origins(v(i)), plain.origins(v(i)));
        }
        assert_eq!(
            engine.report().total_quantity,
            plain.report().total_quantity
        );

        let snap = engine.obs().expect("obs attached").snapshot();
        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap_or_else(|| panic!("{name} registered"))
                .clone()
        };
        assert_eq!(hist("tracker_latency_ns").count, 6);
        assert!(hist("tracker_latency_ns").p50 <= hist("tracker_latency_ns").max);
        // Sample interval 2 over 6 interactions: at least 3 gauge samples.
        let footprint = snap.gauges.iter().find(|g| g.name == "footprint_bytes");
        assert!(footprint.unwrap().samples >= 3);
        assert!(footprint.unwrap().last > 0);
        // Durable checkpoints every 3 interactions: 2 saves, each timed.
        // They stream from the live tracker, so no capture is timed.
        assert_eq!(hist("checkpoint_capture_ns").count, 0);
        assert_eq!(hist("checkpoint_encode_ns").count, 2);
        assert_eq!(hist("checkpoint_write_ns").count, 2);
        // ...and spans on the flight recorder.
        let obs = engine.take_obs().expect("detachable");
        for (span, count) in [("checkpoint_capture", 0), ("checkpoint_save", 2)] {
            let spans = obs.trace.events().iter().filter(|e| e.name == span);
            assert_eq!(spans.count(), count, "{span}");
        }
        assert!(engine.obs().is_none());

        // Zero interval is rejected.
        assert!(ProvenanceEngine::new(&fifo_config(), 3)
            .unwrap()
            .with_footprint_sample_interval(0)
            .is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn telemetry_streams_interval_and_final_records() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let interactions = paper_running_example();
        let buf = SharedBuf::default();
        // No explicit with_observability: with_telemetry attaches a default.
        let mut engine = ProvenanceEngine::new(&fifo_config(), 3)
            .unwrap()
            .with_telemetry(Telemetry::new(Box::new(buf.clone())), 2)
            .unwrap();
        engine.process_all(&interactions).unwrap();
        assert!(engine.emit_telemetry("final").unwrap());

        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let records: Vec<tin_obs::json::Value> = text
            .lines()
            .map(|l| tin_obs::json::Value::parse(l).expect("valid JSONL"))
            .collect();
        // 6 interactions at cadence 2 → 3 interval records, plus the final.
        assert_eq!(records.len(), 4);
        use tin_obs::json::Value;
        assert_eq!(records[0].get("kind").and_then(Value::as_str), Some("full"));
        assert_eq!(
            records[0].get("source").and_then(Value::as_str),
            Some("interval")
        );
        assert_eq!(
            records[3].get("kind").and_then(Value::as_str),
            Some("delta")
        );
        assert_eq!(
            records[3].get("source").and_then(Value::as_str),
            Some("final")
        );
        assert_eq!(records[3].get("at").and_then(Value::as_u64), Some(6));
        // The hot-vertex sketch sees both endpoints of every interaction:
        // total touch weight across the sketch is 2 per interaction.
        let hot = records[3]
            .get("hot_vertices")
            .and_then(Value::as_arr)
            .unwrap();
        let touches: u64 = hot
            .iter()
            .map(|e| e.get("weight").and_then(Value::as_u64).unwrap())
            .sum();
        assert_eq!(touches, 12);

        // An engine without telemetry reports `false` and emits nothing.
        let mut plain = ProvenanceEngine::new(&fifo_config(), 3).unwrap();
        assert!(!plain.emit_telemetry("final").unwrap());

        // Zero cadence is rejected.
        assert!(ProvenanceEngine::new(&fifo_config(), 3)
            .unwrap()
            .with_telemetry(Telemetry::new(Box::new(std::io::sink())), 0)
            .is_err());
    }

    #[test]
    fn empty_run_reports_zero_newborn_fraction() {
        let engine = ProvenanceEngine::new(&fifo_config(), 3).unwrap();
        let report = engine.report();
        assert_eq!(report.interactions, 0);
        assert_eq!(report.newborn_fraction(), 0.0);
    }
}
