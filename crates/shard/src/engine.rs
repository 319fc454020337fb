//! The sharded parallel provenance engine.
//!
//! ## Execution model
//!
//! `N` worker shards each own a full tracker replica built from the same
//! [`PolicyConfig`]. Vertices are hash-partitioned: shard `h(v)` holds the
//! *authoritative* per-vertex state of `v`; every other replica's slot for
//! `v` is hollow. The main thread validates the stream, accounts flow
//! (Algorithm 1's newborn-vs-relayed split), and cuts it into conflict-free
//! wavefronts with the [`WavefrontScheduler`]; each wavefront fans out to
//! the shards over `std::sync::mpsc` channels:
//!
//! * an interaction whose endpoints share an owner is processed *locally*
//!   by that shard's tracker — the exact same `process` code path as the
//!   sequential engine;
//! * a cross-shard interaction is processed by the **destination owner**:
//!   the source owner first ships the source vertex's state as a packed
//!   provenance-delta message (the native per-vertex buffers move wholesale
//!   — sparse vectors keep the SoA key/value layout of
//!   `tin_core::sparse_vec`), the destination owner installs it, runs
//!   `process`, and ships the updated source state home. A shard therefore
//!   never touches another shard's vectors.
//!
//! Because interactions inside a wavefront touch pairwise-disjoint vertex
//! pairs, each per-vertex state sees exactly the same operation sequence, in
//! the same order, executed by the same tracker code as a sequential run —
//! so `origins`, `buffered` and the flow totals are **bit-identical** to
//! [`tin_core::engine::ProvenanceEngine`] for every policy (enforced by the
//! `sharded_equivalence` test suite). Global window epochs (count- and
//! time-based resets) are kept deterministic by cutting wavefronts at epoch
//! boundaries and syncing every shard's epoch clock
//! ([`tin_core::ProvenanceTracker::sync_epoch`]) before it touches state.
//!
//! ## What is *not* identical
//!
//! Memory accounting differs: every shard allocates its own `|V|`-slot spine
//! and the merged [`EngineReport::footprint`] sums the per-shard breakdowns,
//! so index bytes scale with the shard count (that memory is genuinely
//! allocated). `peak_footprint_bytes` is the maximum, over time, of the sum
//! of the *latest* per-shard footprint samples — a synchronized global
//! estimate, not the (inflated) sum of each shard's individual peak. Each
//! shard samples on a spike-or-interval schedule like the sequential
//! engine's, but counts its own locally processed interactions (every 1024
//! by default).
//!
//! ## Failure model
//!
//! The protocol is deadlock-free for well-behaved workers: every shard
//! sends its exports unconditionally before waiting on anything, and
//! returns depend only on exports, so all dispatched wavefronts drain
//! without main-thread intervention. A worker that dies mid-computation
//! (panic, or any early exit) **fails fast** instead of hanging its peers:
//!
//! * a `PanicSentinel` drop guard on every worker thread broadcasts
//!   `PeerFailed` to all peers and `WorkerFailed` to the main thread the
//!   moment the worker unwinds;
//! * a peer blocked mid-wavefront on the dead worker's state wakes up on
//!   the broadcast, abandons the wavefront and exits cleanly (its own
//!   peers were notified by the same broadcast, so nobody waits on *it*);
//! * the main thread turns the notification — or any closed channel — into
//!   [`TinError::WorkerLost`] and **poisons** the engine: the failing call
//!   and every subsequent operation return the error instead of blocking
//!   on a channel that will never be served.
//!
//! `process` drains completion messages without blocking, so a death
//! surfaces on the next call rather than at the final report. The
//! `failure_injection` integration tests kill a live worker mid-stream
//! (via [`ShardedEngine::inject_worker_panic`]) and assert the error
//! surfaces promptly on every public entry point.
//!
//! ## Supervised self-healing
//!
//! [`ShardedEngine::with_self_healing`] upgrades the poison path to
//! in-run recovery. While healing is enabled the coordinator keeps a
//! bounded **replay buffer** of the interactions processed since its most
//! recent **recovery snapshot** — an in-memory [`Checkpoint`] refreshed
//! whenever the buffer reaches [`RecoveryPolicy::snapshot_every`] and at
//! every durable periodic save (so the restore point never lags the
//! newest durable file). When a worker loss surfaces — a `WorkerFailed`
//! notification, a closed channel, or a blocking receive exceeding
//! [`RecoveryPolicy::hang_timeout`] — the coordinator:
//!
//! 1. **retires the wounded pool wholesale**: a best-effort `Shutdown`
//!    nudges survivors (a hung worker's peers never saw a sentinel
//!    broadcast), the coordinator joins the old threads that exit within
//!    [`RecoveryPolicy::hang_timeout`] (one second when that is unset), so
//!    their trackers are freed before the restore, and detaches the rest
//!    ([`RecoveryStats::detached_workers`]); then a brand-new generation of
//!    workers is spawned on fresh channels — so a straggler message from
//!    the old generation (say, the *second* `WorkerFailed` of a double
//!    kill) can never reach the new receiver;
//! 2. **restores** the recovery snapshot exactly like
//!    [`ShardedEngine::resume_from`] (epoch sync, `Restore` routing,
//!    counter seeding), and
//! 3. **replays** the buffered suffix through the normal scheduling path.
//!    The replayed wavefront cuts may differ from the original run's, but
//!    conflict-free wavefronts commute bit-for-bit and newborn folding
//!    stays in strict stream order, so the results — and the final stdout
//!    — are byte-identical to an undisturbed run (enforced by the
//!    `self_healing` proptests).
//!
//! ### Incremental snapshot refresh
//!
//! A refresh does not copy the whole state again. Interactions inside a
//! wavefront touch disjoint vertex pairs, and an interaction changes only
//! the state of its two endpoints (the disjoint-support fact the
//! [`crate::wavefront`] scheduler relies on). So every vertex that no
//! interaction touched since the last refresh still encodes to the bytes
//! the snapshot holds. The coordinator marks both endpoints of every
//! applied interaction, live or replayed, as **dirty**. A refresh then
//! runs in three steps:
//!
//! 1. it quiesces, then sends each shard the dirty vertices it owns;
//! 2. each shard encodes each of them into a new buffer, which the
//!    encoders size exactly;
//! 3. only once every shard has answered does the coordinator swap the new
//!    payloads into the held [`Checkpoint`], drop the payloads they
//!    replace, advance the cursor and clear the dirty set. A worker that
//!    dies mid-capture therefore leaves the previous snapshot, the dirty
//!    set and the replay buffer intact, and recovery starts from them.
//!
//! So the snapshot is one copy of the state, each payload in the buffer
//! its own encode allocated, and a refresh holds the live state, that copy
//! and the dirty vertices' new payloads. Each refresh allocates one buffer
//! per dirty vertex and frees the one it replaces.
//!
//! Windowed and time-windowed policies are the fallback: their epoch
//! resets rewrite every vertex, so each of their refreshes is a full
//! capture, which replaces the held snapshot once every shard has
//! answered. [`ShardedEngine::checkpoint`] is a full capture too.
//!
//! Respawns draw on a budget ([`RecoveryPolicy::max_worker_restarts`],
//! exponential backoff): a worker that dies *during* recovery consumes
//! another unit, and an exhausted budget falls back to the original
//! fail-fast poisoning. A worker still running when the heal stops waiting
//! for its generation is detached, not joined — such threads are leaked by
//! design (joining a hung thread would block recovery forever); their
//! channels die with the generation and any late sends fail harmlessly.
//!
//! ## Durable checkpoints
//!
//! [`ShardedEngine::checkpoint`] quiesces the engine — every shard finishes
//! every wavefront and advances its epoch clock to the same global stream
//! position — then collects each shard's owned per-vertex payloads
//! ([`tin_core::ProvenanceTracker::encode_vertex_state`]) into **one**
//! shard-count-independent [`Checkpoint`] file. Its policy and states
//! sections are byte-identical to what a sequential engine at the same
//! stream position captures, and so are the cursor's position and flow
//! counters. The cursor's `peak_footprint_bytes` is each engine's own
//! footprint sample, so that one field depends on the engine that wrote
//! the file. A pool respawned by recovery restarts its footprint samples
//! too, so after a heal that field can also differ from an undisturbed
//! run's files; every other byte is the same.
//!
//! Durable periodic saves ([`ShardedEngine::with_durable_checkpoints`])
//! take a full capture and stream the file from it. With self-healing on,
//! a save instead refreshes the recovery snapshot at its position, as
//! above (dirty vertices only, a full capture for windowed policies), so
//! the restore point never lags the newest file. It then streams the file
//! from the snapshot's payloads ([`Payloads::Captured`]).
//!
//! [`ShardedEngine::resume_from`] repartitions such a file across a possibly
//! *different* shard count: the main thread decodes every payload with a
//! probe tracker, syncs all shards to the checkpoint's epoch *first* (so
//! window resets fired by the sync cannot clobber restored state), then
//! routes each vertex state to its new owner.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tin_core::checkpoint::{Checkpoint, CheckpointStore, Payloads, StreamCursor};
use tin_core::codec::ByteReader;
use tin_core::engine::{newborn_quantity, EngineReport, RunLedger, RunMetrics, RunObs};
use tin_core::error::{Result, TinError};
use tin_core::ids::VertexId;
use tin_core::interaction::Interaction;
use tin_core::memory::FootprintBreakdown;
use tin_core::origins::OriginSet;
use tin_core::policy::PolicyConfig;
use tin_core::quantity::Quantity;
use tin_core::stream::InteractionSource;
use tin_core::tracker::{build_tracker, ProvenanceTracker, ShardVertexState};
use tin_obs::{
    CounterId, GaugeId, HistogramId, Obs, Recorder, Registry, SpaceSaving, SpanEvent, Telemetry,
};

use crate::wavefront::{EpochRule, WavefrontScheduler};

/// Deterministic vertex → shard assignment (Fibonacci hashing of the raw
/// id, so consecutive vertex ids spread across shards).
#[inline]
pub fn shard_of(v: VertexId, num_shards: usize) -> usize {
    ((u64::from(v.raw()).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) as usize % num_shards
}

/// Maximum number of wavefronts in flight before the main thread blocks on
/// completions (bounds queued messages and the newborn reassembly buffers).
const MAX_IN_FLIGHT: usize = 8;

/// How many locally processed interactions between two footprint samples on
/// a shard (mirrors the sequential engine's
/// `ProvenanceEngine::FOOTPRINT_SAMPLE_INTERVAL`).
const SHARD_SAMPLE_INTERVAL: usize = 1024;

/// Span capacity of each worker's private flight recorder. Workers ship and
/// clear their spans at every sync barrier, so this only bounds the spans
/// of one barrier-to-barrier window.
const WORKER_TRACE_CAPACITY: usize = 4096;

/// Default number of interactions between two in-memory recovery snapshots —
/// the bound on the coordinator-side replay buffer (see [`RecoveryPolicy`]).
const DEFAULT_SNAPSHOT_EVERY: usize = 4096;

/// How long a heal waits for the wounded generation's threads to exit when
/// [`RecoveryPolicy::hang_timeout`] is unset. A killed pool's survivors exit
/// as soon as they see the failure broadcast or the `Shutdown` nudge, so
/// this only bounds the wait for a thread that does not.
const RETIRE_WAIT: Duration = Duration::from_secs(1);

/// Configuration for supervised worker recovery
/// ([`ShardedEngine::with_self_healing`]). See the module docs for the
/// recovery sequence this parameterises.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Worker-pool respawns allowed over the engine's lifetime before a
    /// failure falls through to the fail-fast poison path. Zero makes
    /// every failure terminal (equivalent to not enabling self-healing).
    pub max_worker_restarts: usize,
    /// Base delay before the *second* and later respawn attempts, doubling
    /// per consecutive restart (exponential backoff; the first respawn is
    /// immediate).
    pub restart_backoff: Duration,
    /// Interactions between two in-memory recovery snapshots. This bounds
    /// both the replay buffer's memory and the worst-case replay cost of a
    /// recovery; smaller values trade steady-state snapshot overhead for a
    /// tighter recovery-time objective. It does not change the snapshot's
    /// own memory: one exact-size payload per vertex, plus the new payloads
    /// of the vertices dirtied since the last refresh while one runs.
    pub snapshot_every: usize,
    /// Declare a worker *hung* — and recover as if it had died — when a
    /// blocking coordinator receive exceeds this. `None` (the default)
    /// waits forever, which is the right call when worker compute per
    /// wavefront is unbounded. It also bounds how long a heal waits for
    /// the wounded generation's threads to exit (one second when `None`).
    pub hang_timeout: Option<Duration>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_worker_restarts: 3,
            restart_backoff: Duration::from_millis(10),
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            hang_timeout: None,
        }
    }
}

/// What supervised recovery has actually done on one engine — the CLI and
/// benches read the measured recovery-time objective from here.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Successful recoveries (pool respawn + restore + replay).
    pub recoveries: usize,
    /// Worker threads spawned by recovery: `num_shards` per respawn
    /// attempt, including attempts that themselves failed.
    pub workers_respawned: usize,
    /// Interactions re-processed from the replay buffer by successful
    /// recoveries.
    pub replayed_interactions: usize,
    /// Wall-clock seconds of the most recent successful recovery, from
    /// failure detection to the end of replay (the measured RTO).
    pub last_rto_secs: f64,
    /// Wall-clock seconds spent across *all* recovery attempts, successful
    /// or not.
    pub total_recovery_secs: f64,
    /// Threads of wounded generations that had not exited when their heal
    /// stopped waiting for them (a stalled worker, say), and were detached
    /// instead of joined.
    pub detached_workers: usize,
}

/// Metric handles for the per-shard metrics. Workers register exactly these
/// (and nothing else) into their private registries; the main thread
/// registers them *first* into the user's [`Obs`] so worker deltas fold in
/// by index via [`Registry::merge_prefix_from`] — the two sides share this
/// one registration function precisely so the layouts cannot drift.
struct WorkerMetricIds {
    /// Same-owner interactions processed locally.
    locals: CounterId,
    /// Cross-shard interactions processed after importing the source state.
    imports: CounterId,
    /// Per-vertex states shipped between shards (exports + returns).
    migrations: CounterId,
    /// Footprint spikes caught by the shard's spike monitor.
    spikes: CounterId,
    /// Wall time of one shard's share of one wavefront.
    batch_ns: HistogramId,
    /// Deferred messages queued behind the current wavefront.
    backlog_depth: GaugeId,
    /// Early-arrived peer states parked for later wavefronts.
    stash_depth: GaugeId,
}

fn register_worker_metrics(metrics: &mut Registry) -> WorkerMetricIds {
    WorkerMetricIds {
        locals: metrics.counter("shard_local_interactions_total", "interactions"),
        imports: metrics.counter("shard_import_interactions_total", "interactions"),
        migrations: metrics.counter("shard_state_migrations_total", "states"),
        spikes: metrics.counter("footprint_spikes_total", "spikes"),
        batch_ns: metrics.histogram("shard_batch_ns", "ns"),
        backlog_depth: metrics.gauge("shard_backlog_messages_total", "messages"),
        stash_depth: metrics.gauge("shard_stash_states_total", "states"),
    }
}

/// A worker's private observability state: metrics registered by
/// [`register_worker_metrics`], a flight recorder sharing the main sink's
/// epoch (so worker spans land on the same timeline), and the two skew
/// sketches ([`SpaceSaving`]) of the hottest vertices this shard touched
/// and migrated since the previous barrier.
struct WorkerObs {
    ids: WorkerMetricIds,
    metrics: Registry,
    trace: Recorder,
    /// Hottest vertices by touch count (each processed interaction offers
    /// its source and destination once).
    touch: SpaceSaving,
    /// Hottest vertices by migrated state bytes (exports shipped out plus
    /// borrowed states shipped home).
    migrated: SpaceSaving,
}

/// One shard's accumulated metrics, spans and skew sketches since its
/// previous sync barrier, attached to the [`FromShard::Synced`]
/// acknowledgement. The main thread folds deltas in shard-id order, so the
/// merged registry is deterministic regardless of acknowledgement arrival
/// order.
struct WorkerObsDelta {
    metrics: Registry,
    events: Vec<SpanEvent>,
    touch: SpaceSaving,
    migrated: SpaceSaving,
}

/// One wavefront's worth of work for one shard.
struct BatchCmd {
    /// Global stream index of the wavefront's first interaction.
    start: usize,
    /// Timestamp of the wavefront's first interaction (epoch sync).
    start_time: f64,
    /// Same-owner interactions, `(offset_in_batch, interaction)`.
    locals: Vec<(u32, Interaction)>,
    /// Vertices this shard owns whose state must be shipped to another
    /// shard for a cross-shard interaction, `(vertex, destination shard)`.
    exports: Vec<(VertexId, usize)>,
    /// Cross-shard interactions this shard processes once the source vertex
    /// state arrives, `(offset_in_batch, interaction)`.
    imports: Vec<(u32, Interaction)>,
    /// Number of lent-out vertex states that come home during this batch.
    returns_expected: usize,
}

/// A migrating per-vertex state.
struct StateMsg {
    vertex: VertexId,
    state: ShardVertexState,
    /// `false`: an export travelling to the borrowing shard; `true`: the
    /// state returning to its owner after the borrowed interaction.
    coming_home: bool,
}

enum ToShard {
    Batch(Box<BatchCmd>),
    State(StateMsg),
    /// Quiesce: advance the epoch clock to the global stream position and
    /// acknowledge.
    Sync {
        processed: usize,
        now: f64,
    },
    QueryOrigins(VertexId),
    QueryBuffered(VertexId),
    /// Buffered quantities of every vertex this shard owns, in one message.
    QueryBufferedAll,
    QueryFootprint,
    /// Checkpoint capture: encode the state of each listed vertex (all
    /// owned by this shard) into the empty buffer it travels with, and send
    /// the list back. The engine quiesces first, so every shard captures at
    /// the identical global stream position.
    CaptureStates(Vec<(u32, Vec<u8>)>),
    /// Recovery: install one decoded vertex state on its (new) owner. Sent
    /// strictly after the epoch [`ToShard::Sync`], so resets fired by the
    /// sync cannot clobber the restored state.
    Restore {
        vertex: VertexId,
        state: ShardVertexState,
    },
    /// Create the worker's private observability state, recording spans
    /// against `epoch` (the main sink's trace epoch, so all spans share one
    /// timeline). Sent once by [`ShardedEngine::with_observability`].
    EnableObs {
        epoch: Instant,
    },
    /// Change the worker's footprint sampling interval
    /// ([`ShardedEngine::with_footprint_sample_interval`]).
    SetSampleInterval(usize),
    /// Broadcast by a dying worker's [`PanicSentinel`]: shard `shard` is
    /// gone. A worker blocked mid-wavefront on the dead peer's state wakes
    /// up and exits instead of waiting forever.
    PeerFailed,
    /// Test hook ([`ShardedEngine::inject_worker_panic`]): panic on receipt,
    /// exercising the real unwind-and-broadcast failure path.
    InjectPanic,
    /// Test hook ([`ShardedEngine::inject_worker_stall`]): sleep for the
    /// given milliseconds on receipt, exercising hang detection
    /// ([`RecoveryPolicy::hang_timeout`]) without killing anything.
    InjectStall(u64),
    Shutdown,
}

enum FromShard {
    BatchDone {
        start: usize,
        shard: usize,
        /// `(offset_in_batch, newborn_quantity)` for every interaction this
        /// shard processed.
        newborn: Vec<(u32, f64)>,
        /// A fresh full-footprint sample (total bytes), attached when the
        /// shard's spike-or-interval schedule fired after this batch. The
        /// main thread folds it into the synchronized global peak.
        footprint: Option<usize>,
    },
    Origins(OriginSet),
    Buffered(Quantity),
    /// `(vertex raw id, buffered)` for every owned vertex.
    BufferedAll(Vec<(u32, Quantity)>),
    Footprint {
        shard: usize,
        breakdown: FootprintBreakdown,
    },
    /// The list of a [`ToShard::CaptureStates`], each buffer now holding its
    /// vertex's checkpoint payload.
    StatesCaptured(Vec<(u32, Vec<u8>)>),
    /// Sync acknowledgement, carrying the shard's observability delta when
    /// instrumentation is enabled.
    Synced {
        shard: usize,
        obs: Option<Box<WorkerObsDelta>>,
    },
    /// Sent by a dying worker's [`PanicSentinel`]: the engine must poison
    /// itself and surface [`TinError::WorkerLost`].
    WorkerFailed {
        shard: usize,
    },
}

/// Reassembly buffer for one in-flight wavefront.
struct PendingBatch {
    len: usize,
    involved_shards: usize,
    done_shards: usize,
    /// Newborn quantity per offset, filled by shard completions.
    newborn: Vec<f64>,
}

/// Drop guard armed for the whole lifetime of a worker thread: if the
/// worker unwinds (or exits early without disarming), every peer and the
/// main thread are notified so nobody blocks on the dead worker's channels.
struct PanicSentinel {
    shard_id: usize,
    peers: Vec<Sender<ToShard>>,
    main_tx: Sender<FromShard>,
    armed: bool,
}

impl PanicSentinel {
    fn new(shard_id: usize, peers: Vec<Sender<ToShard>>, main_tx: Sender<FromShard>) -> Self {
        PanicSentinel {
            shard_id,
            peers,
            main_tx,
            armed: true,
        }
    }

    /// Clean shutdown: the worker is exiting because it was told to (or the
    /// failure was already broadcast by someone else); no notification.
    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for PanicSentinel {
    fn drop(&mut self) {
        if !self.armed && !std::thread::panicking() {
            return;
        }
        for (peer, tx) in self.peers.iter().enumerate() {
            if peer != self.shard_id {
                // A send can only fail if the peer is already gone — fine.
                let _ = tx.send(ToShard::PeerFailed);
            }
        }
        let _ = self.main_tx.send(FromShard::WorkerFailed {
            shard: self.shard_id,
        });
    }
}

/// Why a worker abandoned a wavefront mid-flight.
enum BatchAbort {
    /// A peer shard died (its sentinel broadcast reached us, or a send to
    /// it failed) — the wavefront can never complete.
    PeerLost,
    /// The channel from the main thread closed mid-wavefront.
    MainLost,
}

/// The coordinator's own metric handles, registered into the user's [`Obs`]
/// after the shared worker-metric prefix (the
/// [`Registry::merge_prefix_from`] layout contract); the run metrics
/// (footprint and checkpoints) live in the engine's [`RunLedger`].
struct ShardMetrics {
    /// Worker-prefix handles: valid into every worker delta registry too
    /// (the layouts are identical by construction), which is how
    /// [`ShardedEngine::collect_sync_acks`] reads each shard's busy time
    /// without a snapshot.
    worker: WorkerMetricIds,
    wavefront_size: HistogramId,
    wavefronts: CounterId,
    inflight: GaugeId,
    barrier_ns: HistogramId,
    /// Per-barrier-window spread (max − min) of the shards' busy time.
    busy_spread: GaugeId,
    /// Per-barrier-window max/mean shard busy time, in permille (1000 =
    /// perfectly balanced).
    imbalance: GaugeId,
    respawns: CounterId,
    recoveries: CounterId,
    replayed: CounterId,
    recovery_ns: HistogramId,
    /// Vertex payloads re-encoded by recovery-snapshot refreshes.
    snapshot_vertices: CounterId,
    /// Payload bytes those re-encodes produced.
    snapshot_bytes: CounterId,
    /// Payload bytes the recovery snapshot holds after each refresh.
    held_bytes: GaugeId,
}

impl ShardMetrics {
    fn attach(mut obs: Obs) -> RunObs<Self> {
        // Worker prefix first: shard deltas merge into the registry by
        // index, so the prefix layouts must be identical.
        let worker = register_worker_metrics(&mut obs.metrics);
        let m = &mut obs.metrics;
        let wavefront_size = m.histogram("wavefront_batch_interactions_total", "interactions");
        let wavefronts = m.counter("wavefronts_total", "wavefronts");
        let inflight = m.gauge("wavefronts_in_flight_total", "wavefronts");
        let barrier_ns = m.histogram("sync_barrier_ns", "ns");
        let run = RunMetrics::register(m);
        let ids = ShardMetrics {
            worker,
            wavefront_size,
            wavefronts,
            inflight,
            barrier_ns,
            busy_spread: m.gauge("barrier_busy_spread_ns", "ns"),
            imbalance: m.gauge("batch_imbalance_ratio", "permille"),
            respawns: m.counter("worker_respawns_total", "workers"),
            recoveries: m.counter("recoveries_total", "recoveries"),
            replayed: m.counter("replayed_interactions_total", "interactions"),
            recovery_ns: m.histogram("recovery_ns", "ns"),
            snapshot_vertices: m.counter("recovery_snapshot_vertices_total", "vertices"),
            snapshot_bytes: m.counter("recovery_snapshot_encoded_bytes", "bytes"),
            held_bytes: m.gauge("recovery_snapshot_bytes", "bytes"),
        };
        RunObs { obs, ids, run }
    }
}

/// The in-memory restore point of supervised recovery, with what an
/// incremental refresh needs (see "Incremental snapshot refresh" in the
/// module docs).
struct RecoverySnapshot {
    /// A full capture at the stream position the replay buffer starts from.
    /// Each payload is the buffer its vertex's own encode allocated.
    checkpoint: Checkpoint,
    /// `dirty[v]`: an interaction applied since `checkpoint` was taken
    /// touched `v`, so its payload may be stale. No other payload can be.
    dirty: Vec<bool>,
}

impl RecoverySnapshot {
    fn new(checkpoint: Checkpoint) -> Self {
        RecoverySnapshot {
            dirty: vec![false; checkpoint.num_vertices],
            checkpoint,
        }
    }

    /// The payload bytes the snapshot holds.
    fn payload_bytes(&self) -> usize {
        self.checkpoint.states.iter().map(|(_, p)| p.len()).sum()
    }

    /// The vertices whose payloads may be stale.
    fn dirty_vertices(&self) -> impl Iterator<Item = u32> + '_ {
        (0u32..)
            .zip(&self.dirty)
            .filter_map(|(v, &dirty)| dirty.then_some(v))
    }

    /// Swap freshly encoded payloads in, dropping the ones they replace,
    /// and move the cursor to the capture's position. Returns the number
    /// of payload bytes swapped in.
    fn patch(&mut self, encoded: Vec<(u32, Vec<u8>)>, cursor: StreamCursor) -> usize {
        let mut swapped_in = 0;
        for (v, payload) in encoded {
            swapped_in += payload.len();
            let held = &mut self.checkpoint.states[v as usize];
            debug_assert_eq!(held.0, v, "checkpoint states are indexed by vertex");
            held.1 = payload;
        }
        self.checkpoint.cursor = cursor;
        self.dirty.fill(false);
        swapped_in
    }
}

/// Route capture requests for `vertices` to the owning shards, each with
/// an empty buffer for its payload.
fn route_captures(
    num_shards: usize,
    vertices: impl Iterator<Item = u32>,
) -> Vec<Vec<(u32, Vec<u8>)>> {
    let mut per_shard = vec![Vec::new(); num_shards];
    for v in vertices {
        per_shard[shard_of(VertexId::new(v), num_shards)].push((v, Vec::new()));
    }
    per_shard
}

/// A parallel drop-in for [`tin_core::engine::ProvenanceEngine`]: same validation, flow
/// accounting and report surface, bit-identical provenance, `N`-way shard
/// parallelism (see the module docs).
pub struct ShardedEngine {
    /// Policy, vertex count, stream cursor (position, flow totals, the
    /// synchronized global footprint peak), durable-save and telemetry
    /// cadences, and the observability unit. The peak is the maximum, over
    /// time, of `latest_footprint.iter().sum()`.
    ledger: RunLedger<ShardMetrics>,
    num_shards: usize,
    scheduler: WavefrontScheduler,
    to_shards: Vec<Sender<ToShard>>,
    from_shards: Receiver<FromShard>,
    handles: Vec<JoinHandle<()>>,
    /// Interactions of the currently open (undispatched) wavefront.
    open_batch: Vec<Interaction>,
    /// Global index of the first interaction of the open wavefront.
    open_start: usize,
    /// In-flight wavefronts keyed by start index.
    in_flight: BTreeMap<usize, PendingBatch>,
    /// Start index of the next wavefront to fold into the flow totals.
    next_fold: usize,
    /// Stream position the shards were last quiesced at: a repeated quiesce
    /// with no interactions in between is a no-op, so query loops (e.g. the
    /// CLI printing every vertex) pay the synchronisation round once.
    synced_through: usize,
    /// The most recent full-footprint sample (total bytes) of each shard.
    latest_footprint: Vec<usize>,
    /// Set on the first worker failure; every subsequent operation returns
    /// this error instead of touching the (dead) channels.
    poisoned: Option<TinError>,
    /// Supervised-recovery configuration ([`Self::with_self_healing`]).
    /// `None` (the default): worker death poisons the engine (fail fast).
    recovery: Option<RecoveryPolicy>,
    /// The in-memory restore point recovery rebuilds from — refreshed when
    /// the replay buffer reaches [`RecoveryPolicy::snapshot_every`] and at
    /// every durable periodic save. `None` iff `recovery` is `None`.
    recovery_snapshot: Option<RecoverySnapshot>,
    /// Interactions processed since `recovery_snapshot` — deterministically
    /// replayed after a restore. Empty when `recovery` is `None`.
    replay_buffer: VecDeque<Interaction>,
    /// What recovery has done so far ([`Self::recovery_stats`]).
    recovery_stats: RecoveryStats,
    /// Pool respawns consumed from [`RecoveryPolicy::max_worker_restarts`].
    restarts_used: usize,
    /// Footprint sample interval to re-arm on a respawned pool
    /// ([`Self::with_footprint_sample_interval`]).
    sample_interval: Option<usize>,
    /// Test hook ([`Self::inject_panic_on_respawn`]): how many upcoming
    /// respawned pools immediately receive an injected panic.
    respawn_panics: usize,
}

impl ShardedEngine {
    /// Build a sharded engine for `config` over `num_vertices` vertices with
    /// `num_shards` worker shards (values are clamped to at least 1).
    ///
    /// # Errors
    /// Propagates [`TinError::InvalidConfig`] from the tracker factory (the
    /// configuration is validated once up front; worker replicas cannot
    /// fail afterwards).
    pub fn new(config: &PolicyConfig, num_vertices: usize, num_shards: usize) -> Result<Self> {
        // Validate the configuration on the caller's thread so errors
        // surface synchronously.
        let probe = build_tracker(config, num_vertices)?;
        drop(probe);
        let num_shards = num_shards.max(1);

        let (to_shards, from_shards, handles) = spawn_pool(config, num_vertices, num_shards);

        Ok(ShardedEngine {
            ledger: RunLedger::new(config, num_vertices),
            num_shards,
            scheduler: WavefrontScheduler::new(num_vertices, EpochRule::for_policy(config)),
            to_shards,
            from_shards,
            handles,
            open_batch: Vec::new(),
            open_start: 0,
            in_flight: BTreeMap::new(),
            next_fold: 0,
            synced_through: 0,
            latest_footprint: vec![0; num_shards],
            poisoned: None,
            recovery: None,
            recovery_snapshot: None,
            replay_buffer: VecDeque::new(),
            recovery_stats: RecoveryStats::default(),
            restarts_used: 0,
            sample_interval: None,
            respawn_panics: 0,
        })
    }

    /// Write a durable [`Checkpoint`] into `store` every `every`
    /// interactions. Each save quiesces the engine (all shards reach the
    /// same stream position), so pick an interval coarse enough for the
    /// workload — the CLI default is 1000. Without self-healing a save
    /// takes a full capture and streams the file from it; with
    /// self-healing it refreshes the recovery snapshot at its position and
    /// streams the file from the snapshot instead, so it holds no second
    /// copy of the state (see "Durable checkpoints" in the module docs).
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

    /// Attach an observability sink: metrics and spans from the main thread
    /// and every shard worker land in `obs`. Workers accumulate into
    /// private registries and ship deltas at each sync barrier, where they
    /// are merged in shard-id order — instrumentation therefore adds no
    /// cross-thread synchronisation and leaves results bit-identical.
    /// Worker spans share the sink's trace epoch, so the exported trace
    /// shows one timeline (tid 0 = main thread, tid `shard + 1` = workers).
    ///
    /// # Errors
    /// [`TinError::WorkerLost`] if a shard worker died.
    pub fn with_observability(mut self, obs: Obs) -> Result<Self> {
        let attached = ShardMetrics::attach(obs);
        let epoch = attached.obs.trace.epoch();
        for shard in 0..self.num_shards {
            self.send_to(shard, ToShard::EnableObs { epoch })?;
        }
        self.ledger.attach_obs(attached);
        Ok(self)
    }

    /// Take a full footprint sample every `every` locally processed
    /// interactions on each shard (default: every
    /// 1024, mirroring the sequential engine). Spike-triggered samples are
    /// unaffected.
    ///
    /// # Errors
    /// [`TinError::InvalidConfig`] if `every` is zero;
    /// [`TinError::WorkerLost`] if a shard worker died.
    pub fn with_footprint_sample_interval(mut self, every: usize) -> Result<Self> {
        if every == 0 {
            return Err(TinError::InvalidConfig(
                "footprint sample interval must be positive".into(),
            ));
        }
        for shard in 0..self.num_shards {
            self.send_to(shard, ToShard::SetSampleInterval(every))?;
        }
        // Remembered so a pool respawned by supervised recovery is re-armed
        // with the same interval.
        self.sample_interval = Some(every);
        Ok(self)
    }

    /// Enable supervised self-healing: worker losses (panics, closed
    /// channels, and — when [`RecoveryPolicy::hang_timeout`] is set — hung
    /// workers) are recovered in-run by respawning the pool, restoring the
    /// most recent snapshot and replaying the buffered suffix, instead of
    /// poisoning the engine. See the module docs for the full sequence and
    /// the bit-identity argument.
    ///
    /// Seeds the restore point with an immediate snapshot, so an engine
    /// resumed mid-stream ([`Self::resume_from`]) never falls back to
    /// position zero. The engine then holds one encoded copy of its state
    /// besides the live one, one exact-size payload per vertex; each
    /// refresh replaces the payloads of the vertices dirtied since the
    /// last one.
    ///
    /// # Errors
    /// [`TinError::InvalidConfig`] if `policy.snapshot_every` is zero;
    /// [`TinError::WorkerLost`] if a shard worker died before enabling.
    pub fn with_self_healing(mut self, policy: RecoveryPolicy) -> Result<Self> {
        if policy.snapshot_every == 0 {
            return Err(TinError::InvalidConfig(
                "recovery snapshot interval must be positive".into(),
            ));
        }
        self.recovery = Some(policy);
        self.refresh_snapshot()?;
        Ok(self)
    }

    /// What supervised recovery has done so far — in particular the
    /// measured recovery-time objective of the latest heal
    /// ([`RecoveryStats::last_rto_secs`]).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery_stats
    }

    /// Test hook: make worker `shard` sleep `millis` on its next message,
    /// exercising hang detection ([`RecoveryPolicy::hang_timeout`]) without
    /// killing anything. The stalled worker's generation is abandoned by
    /// the recovery; when the sleep ends the worker drains its `Shutdown`
    /// nudge and exits.
    ///
    /// # Errors
    /// [`TinError::WorkerLost`] if the engine is already poisoned or the
    /// worker is already gone.
    pub fn inject_worker_stall(&mut self, shard: usize, millis: u64) -> Result<()> {
        self.check_poisoned()?;
        self.send_to(shard, ToShard::InjectStall(millis))
    }

    /// Test hook: each of the next `times` respawned pools immediately
    /// receives an injected panic, exercising the worker-dies-*during*-
    /// recovery path (each failed attempt consumes respawn budget).
    pub fn inject_panic_on_respawn(&mut self, times: usize) {
        self.respawn_panics = times;
    }

    /// The attached observability sink, if any. Worker metrics lag until
    /// the next sync barrier; use [`Self::take_obs`] for final numbers.
    pub fn obs(&self) -> Option<&Obs> {
        self.ledger.obs().map(|o| &o.obs)
    }

    /// Quiesce (folding every worker's outstanding metric and span deltas
    /// into the sink) and detach the observability sink.
    ///
    /// # Errors
    /// [`TinError::WorkerLost`] if a shard worker died.
    pub fn take_obs(&mut self) -> Result<Option<Obs>> {
        if self.ledger.obs().is_none() {
            return Ok(None);
        }
        self.with_heal(Self::quiesce)?;
        Ok(self.ledger.take_obs())
    }

    /// Detach the observability sink *without* quiescing — the crash
    /// forensics path. A quiesce needs live workers; after a worker loss
    /// this returns whatever the sink held at the last completed barrier
    /// (plus all coordinator-side metrics and spans), which is exactly the
    /// black box a post-mortem wants.
    pub fn take_obs_unsynced(&mut self) -> Option<Obs> {
        self.ledger.take_obs()
    }

    /// Stream a delta-encoded telemetry record (see [`tin_obs::Telemetry`])
    /// every `every` interactions and at every sync barrier. Attaches a
    /// default observability sink if none is present.
    ///
    /// # Errors
    /// [`TinError::InvalidConfig`] if `every` is zero;
    /// [`TinError::WorkerLost`] if a shard worker died while attaching the
    /// implicit observability sink.
    pub fn with_telemetry(mut self, sink: Telemetry, every: usize) -> Result<Self> {
        self.ledger.set_telemetry(sink, every)?;
        if self.ledger.obs().is_none() {
            self = self.with_observability(Obs::new())?;
        }
        Ok(self)
    }

    /// Emit one telemetry record right now, tagged with `source` (the CLI
    /// uses `"final"` for the end-of-run record). Quiesces all shards
    /// first, so the record carries every worker's metrics up to the
    /// current stream position — an explicitly requested record is worth a
    /// barrier. Returns `false` without side effects when no telemetry
    /// stream is attached.
    ///
    /// # Errors
    /// Propagates sink write failures as [`TinError::Io`], and
    /// [`TinError::WorkerLost`] if a shard worker died during the quiesce.
    pub fn emit_telemetry(&mut self, source: &str) -> Result<bool> {
        if !self.ledger.has_telemetry() {
            return Ok(false);
        }
        self.quiesce()?;
        self.ledger.emit_telemetry(source)
    }

    /// Quiesce all shards at the current stream position and capture one
    /// shard-count-independent [`Checkpoint`] of the full engine state.
    ///
    /// # Errors
    /// [`TinError::WorkerLost`] if a shard worker died (and, when
    /// self-healing is enabled, the respawn budget is exhausted).
    pub fn checkpoint(&mut self) -> Result<Checkpoint> {
        self.with_heal(Self::checkpoint_attempt)
    }

    /// One capture attempt ([`Self::checkpoint`] owns the heal-and-retry
    /// loop; recovery itself captures through here).
    fn checkpoint_attempt(&mut self) -> Result<Checkpoint> {
        self.quiesce()?;
        let start = Instant::now();
        let requests = route_captures(
            self.num_shards,
            (0..self.ledger.num_vertices()).map(|v| v as u32),
        );
        let mut states = self.capture_states(requests)?;
        // Each shard reports its owned subset; merge into global vertex
        // order so the file is independent of the shard count that wrote it.
        states.sort_unstable_by_key(|(v, _)| *v);
        debug_assert_eq!(states.len(), self.ledger.num_vertices());
        self.ledger.record_capture(start);
        Ok(Checkpoint {
            policy: self.ledger.config().clone(),
            num_vertices: self.ledger.num_vertices(),
            cursor: self.ledger.cursor().clone(),
            states,
        })
    }

    /// Refresh the recovery snapshot in place: re-encode only the dirty
    /// vertices and swap the results in once every shard has answered.
    /// Returns the vertices and payload bytes re-encoded.
    fn patch_snapshot_attempt(&mut self) -> Result<(usize, usize)> {
        self.quiesce()?;
        let start = Instant::now();
        let held = self
            .recovery_snapshot
            .as_ref()
            .expect("only a held snapshot is patched");
        let requests = route_captures(self.num_shards, held.dirty_vertices());
        let encoded = self.capture_states(requests)?;
        let vertices = encoded.len();
        let cursor = self.ledger.cursor().clone();
        let held = self
            .recovery_snapshot
            .as_mut()
            .expect("only a held snapshot is patched");
        let bytes = held.patch(encoded, cursor);
        self.replay_buffer.clear();
        self.ledger.record_capture(start);
        Ok((vertices, bytes))
    }

    /// Send each shard its capture requests (the engine must be quiesced)
    /// and collect every re-encoded payload, in no particular order.
    fn capture_states(
        &mut self,
        requests: Vec<Vec<(u32, Vec<u8>)>>,
    ) -> Result<Vec<(u32, Vec<u8>)>> {
        let mut captured = Vec::with_capacity(requests.iter().map(Vec::len).sum());
        let mut answers = 0;
        for (shard, entries) in requests.into_iter().enumerate() {
            if !entries.is_empty() {
                self.send_to(shard, ToShard::CaptureStates(entries))?;
                answers += 1;
            }
        }
        for _ in 0..answers {
            match self.recv()? {
                FromShard::StatesCaptured(entries) => captured.extend(entries),
                _ => unreachable!("quiesced shards answer queries in order"),
            }
        }
        Ok(captured)
    }

    /// Rebuild a sharded engine from a durable [`Checkpoint`], repartitioned
    /// across `num_shards` workers — the checkpoint may have been captured
    /// by a sequential engine or by a sharded engine with a *different*
    /// shard count. Provenance state, stream position and flow counters all
    /// resume bit-identically; the caller then replays the interaction
    /// stream starting at interaction `checkpoint.cursor.processed`.
    ///
    /// # Errors
    /// Propagates factory errors for the embedded policy,
    /// [`TinError::CorruptCheckpoint`] for undecodable vertex payloads, and
    /// [`TinError::WorkerLost`] if a worker dies during recovery.
    pub fn resume_from(checkpoint: &Checkpoint, num_shards: usize) -> Result<Self> {
        let mut engine = Self::new(&checkpoint.policy, checkpoint.num_vertices, num_shards)?;
        engine.install_states(checkpoint)?;
        Ok(engine)
    }

    /// Restore `checkpoint` into this engine's (idle) worker pool: epoch
    /// sync, per-vertex state routing, counter seeding. Shared by
    /// [`Self::resume_from`] (fresh engine) and supervised recovery (fresh
    /// *pool*). The workers must hold no in-flight work.
    fn install_states(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        // A probe tracker of the run's configuration decodes the type-erased
        // payloads the shard protocol moves around.
        let probe = build_tracker(&checkpoint.policy, checkpoint.num_vertices)?;
        let processed = checkpoint.cursor.processed;
        let now = checkpoint.cursor.last_time.unwrap_or(0.0);
        // Epoch sync strictly before any install (per-shard channels are
        // FIFO): window resets fired on the empty replicas are harmless, and
        // every epoch clock ends up at the checkpoint's position.
        self.sync_barrier(processed, now)?;
        for (v, bytes) in &checkpoint.states {
            let mut r = ByteReader::new(bytes, "states");
            let state = probe.decode_vertex_state(&mut r)?;
            r.expect_end()?;
            let vertex = VertexId::new(*v);
            let shard = shard_of(vertex, self.num_shards);
            self.send_to(shard, ToShard::Restore { vertex, state })?;
        }
        // Barrier: a second sync round-trip confirms every install was
        // consumed (or surfaces a worker death) before the engine is handed
        // back.
        self.sync_barrier(processed, now)?;
        // The ledger keeps the larger peak: during recovery the live peak
        // (≥ the snapshot's) must survive.
        self.ledger.resume(&checkpoint.cursor);
        self.open_start = processed;
        self.next_fold = processed;
        self.synced_through = processed;
        Ok(())
    }

    /// One sync round-trip to every shard: advance epoch clocks to
    /// (`processed`, `now`) and wait for all acknowledgements.
    fn sync_barrier(&mut self, processed: usize, now: f64) -> Result<()> {
        for shard in 0..self.num_shards {
            self.send_to(shard, ToShard::Sync { processed, now })?;
        }
        self.collect_sync_acks()
    }

    /// Receive one sync acknowledgement per shard and fold any attached
    /// observability deltas into the main sink — sorted by shard id first,
    /// so the merged registry does not depend on acknowledgement arrival
    /// order.
    fn collect_sync_acks(&mut self) -> Result<()> {
        let mut deltas: Vec<(usize, Box<WorkerObsDelta>)> = Vec::new();
        for _ in 0..self.num_shards {
            match self.recv()? {
                FromShard::Synced { shard, obs } => {
                    if let Some(delta) = obs {
                        deltas.push((shard, delta));
                    }
                }
                _ => unreachable!("only sync acknowledgements are outstanding"),
            }
        }
        if let Some(o) = self.ledger.obs_mut() {
            deltas.sort_by_key(|(shard, _)| *shard);
            // Skew: each delta covers exactly one barrier-to-barrier window,
            // so the per-shard `shard_batch_ns` sums are directly comparable
            // busy times. Computed before the deltas are folded in, and only
            // when every shard reported (a partial window would understate
            // the laggards).
            if deltas.len() == self.num_shards && self.num_shards > 1 {
                let batch_ns = o.ids.worker.batch_ns;
                let busy: Vec<u64> = deltas
                    .iter()
                    .map(|(_, d)| d.metrics.histogram_data(batch_ns).sum())
                    .collect();
                let max = busy.iter().copied().max().unwrap_or(0);
                if max > 0 {
                    let min = busy.iter().copied().min().unwrap_or(0);
                    o.obs.metrics.set_gauge(o.ids.busy_spread, max - min);
                    let mean = busy.iter().sum::<u64>() / busy.len() as u64;
                    if let Some(ratio) = max.saturating_mul(1000).checked_div(mean) {
                        o.obs.metrics.set_gauge(o.ids.imbalance, ratio);
                    }
                }
            }
            for (_, delta) in &deltas {
                o.obs.metrics.merge_prefix_from(&delta.metrics);
                o.obs.trace.extend_from(&delta.events);
                o.obs.hot_vertices.merge_from(&delta.touch);
                o.obs.hot_migrations.merge_from(&delta.migrated);
            }
        }
        // A barrier with instrumentation attached is a natural telemetry
        // emission point (the merged registry was just brought current) —
        // but only while the stream is advancing: the quiesce syncs issued
        // by post-run queries would otherwise re-emit the same position.
        if !deltas.is_empty() && self.ledger.telemetry_behind() {
            self.ledger.emit_telemetry("barrier")?;
        }
        Ok(())
    }

    /// The number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The stable key of the policy this engine runs.
    pub fn policy_key(&self) -> &str {
        self.ledger.policy_key()
    }

    /// Test hook: make worker `shard` panic on its next message, exercising
    /// the real failure path (unwind, sentinel broadcast, engine poisoning).
    /// Used by the `failure_injection` integration tests.
    ///
    /// # Errors
    /// [`TinError::WorkerLost`] if the engine is already poisoned or the
    /// worker is already gone.
    pub fn inject_worker_panic(&mut self, shard: usize) -> Result<()> {
        self.check_poisoned()?;
        self.send_to(shard, ToShard::InjectPanic)
    }

    /// Validate and enqueue one interaction (identical validation and error
    /// surface to [`tin_core::engine::ProvenanceEngine::process`]). The interaction executes
    /// asynchronously; queries and reports synchronise first.
    ///
    /// # Errors
    /// Same as [`tin_core::engine::ProvenanceEngine::process`]: invalid quantity/timestamp,
    /// self-loop, unknown vertex, or time going backwards — plus
    /// [`TinError::WorkerLost`] if a shard worker died.
    pub fn process(&mut self, r: &Interaction) -> Result<()> {
        self.ledger.validate(r)?;
        // The interaction enters the replay buffer *before* it is applied,
        // so a successful heal may already have re-applied it — the stream
        // position tells the two cases apart.
        let target = self.ledger.cursor().processed + 1;
        loop {
            match self.process_attempt(r) {
                Ok(()) => break,
                Err(e @ TinError::WorkerLost { .. }) if self.recovery.is_some() => {
                    self.heal_within_budget(e)?;
                    if self.ledger.cursor().processed >= target {
                        break;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        // Saved once the interaction is in: a heal during the save replays
        // up to this position again, and the save is retried there.
        if self.ledger.save_due() {
            self.with_heal(Self::save_attempt)?;
        }
        // Worker metrics in an interval record are as of the last barrier —
        // the coordinator does not force a quiesce just to emit.
        self.ledger.emit_interval_telemetry()
    }

    /// One attempt at processing `r` (validation already done by
    /// [`Self::process`], which owns the heal-and-retry loop).
    fn process_attempt(&mut self, r: &Interaction) -> Result<()> {
        self.check_poisoned()?;
        // Fail fast: fold completions already delivered — and notice worker
        // deaths — without blocking, so a death surfaces on the next call
        // rather than at the final report.
        self.drain_completions()?;
        if self.recovery.is_some() {
            self.refresh_snapshot_if_due()?;
            self.replay_buffer.push_back(*r);
        }
        self.apply_interaction(r)
    }

    /// One attempt at the durable save due at the current stream position
    /// ([`Self::process`] owns the heal-and-retry loop).
    fn save_attempt(&mut self) -> Result<()> {
        match self.recovery {
            // The restore point must never lag the newest durable file: an
            // older in-memory snapshot would need replay-buffer entries this
            // save makes safe to drop. So the save refreshes it and streams
            // the file from its payloads.
            Some(_) => {
                self.refresh_snapshot()?;
                let held = self
                    .recovery_snapshot
                    .as_ref()
                    .expect("a refresh leaves a snapshot");
                self.ledger
                    .save(Payloads::Captured(&held.checkpoint.states))
            }
            None => {
                let checkpoint = self.checkpoint_attempt()?;
                self.ledger.save(Payloads::Captured(&checkpoint.states))
            }
        }
    }

    /// Flow accounting + wavefront scheduling for one (validated)
    /// interaction — the write path shared by live processing and recovery
    /// replay (replay must not re-enter the replay-buffer and durable-save
    /// bookkeeping of [`Self::process`]).
    fn apply_interaction(&mut self, r: &Interaction) -> Result<()> {
        if let Some(held) = self.recovery_snapshot.as_mut() {
            held.dirty[r.src.index()] = true;
            held.dirty[r.dst.index()] = true;
        }
        let index = self.ledger.cursor().processed;
        if !self.scheduler.offer(r, index) {
            self.dispatch_open_batch()?;
            let joined = self.scheduler.offer(r, index);
            debug_assert!(joined, "a fresh wavefront always accepts");
        }
        if self.open_batch.is_empty() {
            self.open_start = index;
        }
        self.open_batch.push(*r);
        self.ledger.advance(r);
        Ok(())
    }

    /// Process every interaction of a slice, stopping at the first error.
    ///
    /// # Errors
    /// See [`Self::process`].
    pub fn process_all(&mut self, interactions: &[Interaction]) -> Result<()> {
        for r in interactions {
            self.process(r)?;
        }
        Ok(())
    }

    /// Drain an [`InteractionSource`], returning the final report.
    ///
    /// # Errors
    /// Propagates source errors and validation errors (see [`Self::process`]).
    pub fn run(&mut self, source: &mut dyn InteractionSource) -> Result<EngineReport> {
        while let Some(r) = source.next_interaction()? {
            self.process(&r)?;
        }
        self.report()
    }

    /// Current provenance of the quantity buffered at `v` (synchronises all
    /// in-flight work first; bit-identical to the sequential engine).
    ///
    /// # Errors
    /// [`TinError::WorkerLost`] if a shard worker died.
    pub fn origins(&mut self, v: VertexId) -> Result<OriginSet> {
        self.with_heal(|e| e.origins_attempt(v))
    }

    fn origins_attempt(&mut self, v: VertexId) -> Result<OriginSet> {
        self.quiesce()?;
        let shard = shard_of(v, self.num_shards);
        self.send_to(shard, ToShard::QueryOrigins(v))?;
        match self.recv()? {
            FromShard::Origins(set) => Ok(set),
            _ => unreachable!("quiesced shard answers queries in order"),
        }
    }

    /// Current buffered quantity `|B_v|` (synchronises first).
    ///
    /// # Errors
    /// [`TinError::WorkerLost`] if a shard worker died.
    pub fn buffered(&mut self, v: VertexId) -> Result<Quantity> {
        self.with_heal(|e| e.buffered_attempt(v))
    }

    fn buffered_attempt(&mut self, v: VertexId) -> Result<Quantity> {
        self.quiesce()?;
        let shard = shard_of(v, self.num_shards);
        self.send_to(shard, ToShard::QueryBuffered(v))?;
        match self.recv()? {
            FromShard::Buffered(q) => Ok(q),
            _ => unreachable!("quiesced shard answers queries in order"),
        }
    }

    /// Buffered quantities of *every* vertex, indexed by vertex id, in
    /// O(shards) messages — use this instead of `num_vertices` calls to
    /// [`Self::buffered`] when scanning the whole graph (each of those is a
    /// blocking channel round-trip).
    ///
    /// # Errors
    /// [`TinError::WorkerLost`] if a shard worker died.
    pub fn buffered_all(&mut self) -> Result<Vec<Quantity>> {
        self.with_heal(Self::buffered_all_attempt)
    }

    fn buffered_all_attempt(&mut self) -> Result<Vec<Quantity>> {
        self.quiesce()?;
        for shard in 0..self.num_shards {
            self.send_to(shard, ToShard::QueryBufferedAll)?;
        }
        let mut out = vec![0.0; self.ledger.num_vertices()];
        for _ in 0..self.num_shards {
            match self.recv()? {
                FromShard::BufferedAll(entries) => {
                    for (raw, q) in entries {
                        out[raw as usize] = q;
                    }
                }
                _ => unreachable!("quiesced shards answer queries in order"),
            }
        }
        Ok(out)
    }

    /// The report for everything processed so far (synchronises first).
    /// Flow totals are bit-identical to [`tin_core::engine::ProvenanceEngine::report`];
    /// footprint figures are summed across shards and the peak is the
    /// synchronized global peak (see the module docs).
    ///
    /// # Errors
    /// [`TinError::WorkerLost`] if a shard worker died.
    pub fn report(&mut self) -> Result<EngineReport> {
        self.with_heal(Self::report_attempt)
    }

    fn report_attempt(&mut self) -> Result<EngineReport> {
        self.quiesce()?;
        let mut footprint = FootprintBreakdown::default();
        for shard in 0..self.num_shards {
            self.send_to(shard, ToShard::QueryFootprint)?;
        }
        for _ in 0..self.num_shards {
            match self.recv()? {
                FromShard::Footprint { shard, breakdown } => {
                    footprint.entries_bytes += breakdown.entries_bytes;
                    footprint.paths_bytes += breakdown.paths_bytes;
                    footprint.index_bytes += breakdown.index_bytes;
                    self.latest_footprint[shard] = breakdown.total();
                }
                _ => unreachable!("quiesced shards answer queries in order"),
            }
        }
        // All shards are quiesced at the same stream position, so the sum of
        // these simultaneous samples IS the current global footprint; fold
        // it into the running peak.
        self.ledger
            .note_footprint(self.latest_footprint.iter().sum());
        Ok(self.ledger.report(footprint))
    }

    /// Dispatch the open wavefront (if any) and block until every shard has
    /// finished every wavefront and advanced its epoch clock to the current
    /// stream position.
    fn quiesce(&mut self) -> Result<()> {
        self.check_poisoned()?;
        let processed = self.ledger.cursor().processed;
        if self.synced_through == processed {
            debug_assert!(self.open_batch.is_empty() && self.in_flight.is_empty());
            return Ok(());
        }
        let start = Instant::now();
        if !self.open_batch.is_empty() {
            self.dispatch_open_batch()?;
        }
        while self.next_fold < processed {
            self.handle_completion()?;
        }
        let now = self.ledger.cursor().last_time.unwrap_or(0.0);
        for shard in 0..self.num_shards {
            self.send_to(shard, ToShard::Sync { processed, now })?;
        }
        self.collect_sync_acks()?;
        self.synced_through = processed;
        if let Some(o) = self.ledger.obs_mut() {
            o.obs
                .metrics
                .observe_duration(o.ids.barrier_ns, start.elapsed());
            o.obs.trace.record("quiesce", 0, start);
        }
        Ok(())
    }

    /// Partition the open wavefront across shards and send the commands.
    fn dispatch_open_batch(&mut self) -> Result<()> {
        let (start, len) = self.scheduler.begin_batch();
        debug_assert_eq!(start, self.open_start);
        debug_assert_eq!(len, self.open_batch.len());
        if len == 0 {
            return Ok(());
        }
        let start_time = self.open_batch[0].time.value();
        let dispatch_started = self.ledger.obs().is_some().then(Instant::now);
        if let Some(o) = self.ledger.obs_mut() {
            o.obs.metrics.observe(o.ids.wavefront_size, len as u64);
            o.obs.metrics.inc(o.ids.wavefronts);
        }

        let mut cmds: Vec<BatchCmd> = (0..self.num_shards)
            .map(|_| BatchCmd {
                start,
                start_time,
                locals: Vec::new(),
                exports: Vec::new(),
                imports: Vec::new(),
                returns_expected: 0,
            })
            .collect();
        for (off, r) in self.open_batch.drain(..).enumerate() {
            let off = off as u32;
            let src_shard = shard_of(r.src, self.num_shards);
            let dst_shard = shard_of(r.dst, self.num_shards);
            if src_shard == dst_shard {
                cmds[src_shard].locals.push((off, r));
            } else {
                cmds[src_shard].exports.push((r.src, dst_shard));
                cmds[src_shard].returns_expected += 1;
                cmds[dst_shard].imports.push((off, r));
            }
        }

        let mut involved = 0;
        for (shard, cmd) in cmds.into_iter().enumerate() {
            if cmd.locals.is_empty() && cmd.exports.is_empty() && cmd.imports.is_empty() {
                continue;
            }
            involved += 1;
            self.send_to(shard, ToShard::Batch(Box::new(cmd)))?;
        }
        self.in_flight.insert(
            start,
            PendingBatch {
                len,
                involved_shards: involved,
                done_shards: 0,
                newborn: vec![0.0; len],
            },
        );
        if let (Some(started), Some(o)) = (dispatch_started, self.ledger.obs_mut()) {
            o.obs.trace.record("wavefront_dispatch", 0, started);
            o.obs
                .metrics
                .set_gauge(o.ids.inflight, self.in_flight.len() as u64);
        }
        // Backpressure: bound the number of wavefronts in flight.
        while self.in_flight.len() > MAX_IN_FLIGHT {
            self.handle_completion()?;
        }
        Ok(())
    }

    /// Block for one shard completion and fold finished wavefronts — in
    /// stream order — into the flow totals.
    fn handle_completion(&mut self) -> Result<()> {
        match self.recv()? {
            FromShard::BatchDone {
                start,
                shard,
                newborn,
                footprint,
            } => self.fold_batch_done(start, shard, newborn, footprint),
            _ => unreachable!("only batch completions are outstanding here"),
        }
        Ok(())
    }

    /// Fold already-delivered completion messages without blocking.
    fn drain_completions(&mut self) -> Result<()> {
        loop {
            match self.from_shards.try_recv() {
                Ok(FromShard::BatchDone {
                    start,
                    shard,
                    newborn,
                    footprint,
                }) => self.fold_batch_done(start, shard, newborn, footprint),
                Ok(FromShard::WorkerFailed { shard }) => return Err(self.poison(Some(shard))),
                Ok(_) => unreachable!("only batch completions are outstanding here"),
                Err(TryRecvError::Empty) => return Ok(()),
                Err(TryRecvError::Disconnected) => return Err(self.poison(None)),
            }
        }
    }

    fn fold_batch_done(
        &mut self,
        start: usize,
        shard: usize,
        newborn: Vec<(u32, f64)>,
        footprint: Option<usize>,
    ) {
        if let Some(total) = footprint {
            // The shard took a fresh full-footprint sample after this batch:
            // fold the sum of every shard's latest sample into the global
            // peak. Samples from different shards are not perfectly
            // simultaneous, but each is the shard's true footprint at a
            // recent stream position — unlike summing per-shard *peaks*,
            // which combines maxima from unrelated moments and can only
            // overestimate.
            self.latest_footprint[shard] = total;
            self.ledger
                .note_footprint(self.latest_footprint.iter().sum());
        }
        let batch = self
            .in_flight
            .get_mut(&start)
            .expect("completion for an in-flight wavefront");
        for (off, q) in newborn {
            batch.newborn[off as usize] = q;
        }
        batch.done_shards += 1;
        // Fold completed wavefronts strictly in stream order so the newborn
        // accumulation order — and therefore the float result — matches the
        // sequential engine exactly.
        while let Some(entry) = self.in_flight.first_entry() {
            if entry.get().done_shards < entry.get().involved_shards {
                break;
            }
            let (start, batch) = entry.remove_entry();
            debug_assert_eq!(start, self.next_fold);
            for q in &batch.newborn {
                self.ledger.add_newborn(*q);
            }
            self.next_fold = start + batch.len;
        }
    }

    /// Run `op`, healing worker losses and retrying until it succeeds, it
    /// fails for a non-worker reason, or `heal_within_budget` exhausts the
    /// respawn budget (which re-poisons and surfaces the loss). Wraps every
    /// idempotent public operation; `process` has its own loop because a
    /// heal may already re-apply the in-flight interaction.
    fn with_heal<T>(&mut self, mut op: impl FnMut(&mut Self) -> Result<T>) -> Result<T> {
        loop {
            match op(self) {
                Err(e @ TinError::WorkerLost { .. }) if self.recovery.is_some() => {
                    self.heal_within_budget(e)?;
                }
                other => return other,
            }
        }
    }

    /// Supervised recovery after a worker loss: respawn the pool, restore
    /// the snapshot, replay the suffix — consuming one unit of
    /// [`RecoveryPolicy::max_worker_restarts`] per attempt, with
    /// exponential backoff between consecutive attempts. On success the
    /// engine continues as if nothing happened; once the budget is
    /// exhausted (or recovery fails for a non-worker reason) the engine is
    /// re-poisoned and `cause` surfaces — the pre-existing fail-fast path.
    fn heal_within_budget(&mut self, cause: TinError) -> Result<()> {
        let start = Instant::now();
        loop {
            let Some(policy) = self.recovery.clone() else {
                return Err(cause);
            };
            if self.restarts_used >= policy.max_worker_restarts {
                self.poisoned = Some(cause.clone());
                self.recovery_stats.total_recovery_secs += start.elapsed().as_secs_f64();
                return Err(cause);
            }
            if self.restarts_used > 0 {
                // Exponential backoff: base × 2^(consecutive restarts), the
                // first respawn is immediate.
                let exp = u32::try_from(self.restarts_used.min(16)).expect("≤ 16");
                std::thread::sleep(policy.restart_backoff.saturating_mul(1u32 << exp));
            }
            self.restarts_used += 1;
            self.recovery_stats.workers_respawned += self.num_shards;
            if let Some(o) = self.ledger.obs_mut() {
                o.obs.metrics.add(o.ids.respawns, self.num_shards as u64);
            }
            match self.heal_attempt() {
                Ok(replayed) => {
                    let elapsed = start.elapsed();
                    self.recovery_stats.recoveries += 1;
                    self.recovery_stats.replayed_interactions += replayed;
                    self.recovery_stats.last_rto_secs = elapsed.as_secs_f64();
                    self.recovery_stats.total_recovery_secs += elapsed.as_secs_f64();
                    if let Some(o) = self.ledger.obs_mut() {
                        o.obs.metrics.inc(o.ids.recoveries);
                        o.obs.metrics.add(o.ids.replayed, replayed as u64);
                        o.obs.metrics.observe_duration(o.ids.recovery_ns, elapsed);
                        o.obs.trace.record("recovery", 0, start);
                    }
                    return Ok(());
                }
                // A worker died (or hung) *during* recovery: loop, drawing
                // another unit of budget.
                Err(TinError::WorkerLost { .. }) => continue,
                Err(e) => {
                    self.poisoned = Some(e.clone());
                    self.recovery_stats.total_recovery_secs += start.elapsed().as_secs_f64();
                    return Err(e);
                }
            }
        }
    }

    /// One pool-replacement attempt: tear down the wounded generation,
    /// spawn a fresh one, restore the recovery snapshot and replay the
    /// buffered suffix. Returns the number of interactions replayed.
    fn heal_attempt(&mut self) -> Result<usize> {
        // Survivors of a panicked pool saw the sentinel broadcast and are
        // exiting; a *hung* pool never got one, so nudge every worker with
        // a best-effort Shutdown (a stalled worker drains it when it wakes).
        for tx in &self.to_shards {
            let _ = tx.send(ToShard::Shutdown);
        }
        // Let the wounded generation exit, and free its trackers, before
        // the new one restores the snapshot. The wait is bounded — joining
        // a genuinely hung thread would block recovery forever — so a
        // thread still running at the bound is detached.
        let bound = self
            .recovery
            .as_ref()
            .and_then(|p| p.hang_timeout)
            .unwrap_or(RETIRE_WAIT);
        self.recovery_stats.detached_workers +=
            retire_pool(std::mem::take(&mut self.handles), bound);
        // Replace the channels wholesale: the old generation's `main_tx`
        // now points at a dropped receiver, so its stragglers (including
        // the second `WorkerFailed` of a double kill) can never reach us.
        let (to_shards, from_shards, handles) = spawn_pool(
            self.ledger.config(),
            self.ledger.num_vertices(),
            self.num_shards,
        );
        self.to_shards = to_shards;
        self.from_shards = from_shards;
        self.handles = handles;
        // Coordinator state tied to the dead pool: in-flight wavefronts are
        // lost (their interactions sit in the replay buffer), the open
        // batch is re-cut by the replay, footprint samples restart.
        self.poisoned = None;
        self.scheduler = WavefrontScheduler::new(
            self.ledger.num_vertices(),
            EpochRule::for_policy(self.ledger.config()),
        );
        self.open_batch.clear();
        self.in_flight.clear();
        self.latest_footprint = vec![0; self.num_shards];
        // Re-arm per-worker configuration the wounded pool carried.
        if let Some(every) = self.sample_interval {
            for shard in 0..self.num_shards {
                self.send_to(shard, ToShard::SetSampleInterval(every))?;
            }
        }
        if let Some(epoch) = self.ledger.obs().map(|o| o.obs.trace.epoch()) {
            for shard in 0..self.num_shards {
                self.send_to(shard, ToShard::EnableObs { epoch })?;
            }
        }
        if self.respawn_panics > 0 {
            self.respawn_panics -= 1;
            self.send_to(0, ToShard::InjectPanic)?;
        }
        match self.recovery_snapshot.take() {
            // The dirty set stays: it already holds the endpoints of every
            // buffered interaction, which the replay below marks again.
            Some(held) => {
                let restored = self.install_states(&held.checkpoint);
                self.recovery_snapshot = Some(held);
                restored?;
            }
            None => {
                // No snapshot was ever adopted (`with_self_healing` seeds
                // one, so this is defensive): the replay buffer covers the
                // whole prefix — rewind the stream counters to zero and let
                // the replay rebuild everything on the fresh trackers.
                self.ledger.resume(&StreamCursor::default());
                self.open_start = 0;
                self.next_fold = 0;
                self.synced_through = 0;
            }
        }
        // Deterministic replay through the normal scheduling path, in
        // strict stream order. The wavefront cuts may differ from the
        // original run's, but conflict-free wavefronts commute bit-for-bit
        // and newborn folding stays in stream order, so results match an
        // undisturbed run exactly.
        let replay: Vec<Interaction> = self.replay_buffer.iter().copied().collect();
        for r in &replay {
            self.apply_interaction(r)?;
        }
        Ok(replay.len())
    }

    /// Refresh the in-memory recovery snapshot once the replay buffer hits
    /// its bound ([`RecoveryPolicy::snapshot_every`]) — the cost that keeps
    /// both replay length and buffer memory bounded.
    fn refresh_snapshot_if_due(&mut self) -> Result<()> {
        let Some(policy) = &self.recovery else {
            return Ok(());
        };
        if self.recovery_snapshot.is_some() && self.replay_buffer.len() < policy.snapshot_every {
            return Ok(());
        }
        self.refresh_snapshot()
    }

    /// Refresh the recovery snapshot at the current stream position, drop
    /// the replay prefix it covers, and record what the refresh re-encoded
    /// and what the snapshot now holds. The first snapshot and every
    /// windowed-policy refresh are full captures, which replace the held
    /// snapshot once complete; the rest patch.
    fn refresh_snapshot(&mut self) -> Result<()> {
        // Epoch resets of windowed policies rewrite every vertex, so only
        // the other policies can patch the dirty vertices alone.
        let patchable = EpochRule::for_policy(self.ledger.config()) == EpochRule::None;
        let (vertices, bytes) = if patchable && self.recovery_snapshot.is_some() {
            self.patch_snapshot_attempt()?
        } else {
            let snapshot = RecoverySnapshot::new(self.checkpoint_attempt()?);
            let bytes = snapshot.payload_bytes();
            self.replay_buffer.clear();
            self.recovery_snapshot = Some(snapshot);
            (self.ledger.num_vertices(), bytes)
        };
        if let Some(o) = self.ledger.obs_mut() {
            let held = self
                .recovery_snapshot
                .as_ref()
                .map_or(0, RecoverySnapshot::payload_bytes);
            o.obs.metrics.add(o.ids.snapshot_vertices, vertices as u64);
            o.obs.metrics.add(o.ids.snapshot_bytes, bytes as u64);
            o.obs.metrics.set_gauge(o.ids.held_bytes, held as u64);
        }
        Ok(())
    }

    /// The poisoned-engine check every public operation performs first.
    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Record the first worker failure and return the error for it. Later
    /// failures keep the first (root-cause) shard id.
    fn poison(&mut self, shard: Option<usize>) -> TinError {
        if self.poisoned.is_none() {
            self.poisoned = Some(TinError::WorkerLost { shard });
        }
        self.poisoned.clone().expect("just set")
    }

    fn send_to(&mut self, shard: usize, msg: ToShard) -> Result<()> {
        if self.to_shards[shard].send(msg).is_err() {
            // The worker's receiver is gone: it died. Its sentinel
            // notification may still be queued; poison now so the caller
            // fails fast either way.
            return Err(self.poison(Some(shard)));
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<FromShard> {
        let received: std::result::Result<FromShard, RecvTimeoutError> =
            match self.recovery.as_ref().and_then(|p| p.hang_timeout) {
                // Hang detection: a worker that exceeds the budget is
                // treated exactly like a dead one — recovery replaces the
                // whole pool, stalled thread included.
                Some(limit) => self.from_shards.recv_timeout(limit),
                None => self
                    .from_shards
                    .recv()
                    .map_err(|_| RecvTimeoutError::Disconnected),
            };
        match received {
            Ok(FromShard::WorkerFailed { shard }) => Err(self.poison(Some(shard))),
            Ok(msg) => Ok(msg),
            Err(_) => Err(self.poison(None)),
        }
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // The open (undispatched) wavefront is simply abandoned: no worker
        // ever waits on undispatched work, and already-dispatched batches
        // drain on their own because every involved shard received its
        // command at dispatch time. Workers see `Shutdown` after the batches
        // queued ahead of it (channels are FIFO per sender) or defer it to
        // their backlog if it arrives mid-wavefront. A dead worker's peers
        // were woken by its sentinel broadcast and exit on their own.
        for tx in &self.to_shards {
            // Ignore send failures: a worker that already exited (panic)
            // must not abort the drop.
            let _ = tx.send(ToShard::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("policy", &self.ledger.policy_key())
            .field("num_vertices", &self.ledger.num_vertices())
            .field("num_shards", &self.num_shards)
            .field("processed", &self.ledger.cursor().processed)
            .field("poisoned", &self.poisoned.is_some())
            .finish()
    }
}

/// Algorithm 1 flow accounting for one interaction, using the same shared
/// arithmetic as the sequential engine
/// ([`tin_core::engine::newborn_quantity`]).
fn process_one(tracker: &mut dyn ProvenanceTracker, r: &Interaction) -> f64 {
    let newborn = newborn_quantity(tracker.buffered(r.src), r.qty);
    tracker.process(r);
    newborn
}

/// Join the threads of a retired pool that exit within `bound`, and detach
/// the rest. Returns how many were detached.
fn retire_pool(mut handles: Vec<JoinHandle<()>>, bound: Duration) -> usize {
    let deadline = Instant::now() + bound;
    loop {
        let (finished, running): (Vec<_>, Vec<_>) =
            handles.into_iter().partition(JoinHandle::is_finished);
        for handle in finished {
            let _ = handle.join();
        }
        handles = running;
        if handles.is_empty() || Instant::now() >= deadline {
            return handles.len();
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Spawn one generation of `num_shards` worker threads wired to fresh
/// channels. Shared by construction and by supervised recovery, which
/// replaces a wounded pool wholesale — fresh channels guarantee no message
/// from an older generation can ever reach the new receiver.
fn spawn_pool(
    config: &PolicyConfig,
    num_vertices: usize,
    num_shards: usize,
) -> (
    Vec<Sender<ToShard>>,
    Receiver<FromShard>,
    Vec<JoinHandle<()>>,
) {
    let (to_main, from_shards) = channel::<FromShard>();
    let mut to_shards = Vec::with_capacity(num_shards);
    let mut receivers = Vec::with_capacity(num_shards);
    for _ in 0..num_shards {
        let (tx, rx) = channel::<ToShard>();
        to_shards.push(tx);
        receivers.push(rx);
    }
    let mut handles = Vec::with_capacity(num_shards);
    for (id, rx) in receivers.into_iter().enumerate() {
        let peers: Vec<Sender<ToShard>> = to_shards.clone();
        let main_tx = to_main.clone();
        let config = config.clone();
        let handle = std::thread::Builder::new()
            .name(format!("tin-shard-{id}"))
            .spawn(move || shard_worker(id, &config, num_vertices, &rx, &peers, &main_tx))
            .expect("spawning a shard worker thread");
        handles.push(handle);
    }
    (to_shards, from_shards, handles)
}

/// The shard worker: one tracker replica plus the batch protocol.
fn shard_worker(
    shard_id: usize,
    config: &PolicyConfig,
    num_vertices: usize,
    rx: &Receiver<ToShard>,
    peers: &[Sender<ToShard>],
    main_tx: &Sender<FromShard>,
) {
    // Armed before anything that can unwind: a panic anywhere below (the
    // tracker factory, `process`, a poisoned downcast, the injected test
    // panic) broadcasts the failure instead of silently stranding peers.
    let mut sentinel = PanicSentinel::new(shard_id, peers.to_vec(), main_tx.clone());
    let mut tracker =
        build_tracker(config, num_vertices).expect("configuration validated by ShardedEngine::new");
    // Arm the same footprint-spike monitor the sequential engine arms, so
    // shard-local peak accounting catches spikes between samples and — just
    // as importantly — the sequential-vs-sharded scaling benchmark compares
    // two equally instrumented trackers.
    tracker.arm_spike_monitor(tin_core::engine::ProvenanceEngine::SPIKE_FRACTION);
    // Exported states that arrived before the batch that consumes them
    // (peers may run several wavefronts ahead). Per-vertex FIFO keeps
    // multiple in-flight generations of the same vertex ordered.
    let mut stash: HashMap<u32, VecDeque<ShardVertexState>> = HashMap::new();
    // Non-`State` messages (pipelined later wavefronts, the shutdown) that
    // arrived while a batch was blocked waiting for peer states; replayed in
    // arrival order before reading the channel again.
    let mut backlog: VecDeque<ToShard> = VecDeque::new();
    let mut processed_local = 0usize;
    let mut sample_interval = SHARD_SAMPLE_INTERVAL;
    let mut next_sample = sample_interval;
    // Private observability state, created on `EnableObs`: the worker
    // accumulates locally (no cross-thread synchronisation on the batch
    // path) and ships a delta with every sync acknowledgement.
    let mut obs: Option<WorkerObs> = None;

    loop {
        let msg = match backlog.pop_front() {
            Some(m) => m,
            None => match rx.recv() {
                Ok(m) => m,
                Err(_) => {
                    // The main thread dropped the engine without a shutdown
                    // message (and no peer holds work for us): clean exit.
                    sentinel.disarm();
                    return;
                }
            },
        };
        match msg {
            ToShard::Shutdown => {
                sentinel.disarm();
                return;
            }
            ToShard::PeerFailed => {
                // A peer died. The engine is poisoned and every live worker
                // received the same broadcast, so nobody waits on us: exit
                // without re-broadcasting.
                sentinel.disarm();
                return;
            }
            ToShard::InjectPanic => {
                panic!("injected worker panic (tin-shard test hook)");
            }
            ToShard::InjectStall(millis) => {
                std::thread::sleep(Duration::from_millis(millis));
            }
            ToShard::Sync { processed, now } => {
                tracker.sync_epoch(processed, now);
                // Ship accumulated metrics and spans, then reset: counters
                // and histograms fold additively on the main side, so each
                // delta must cover exactly one barrier-to-barrier window.
                let delta = obs.as_mut().map(|o| {
                    let d = Box::new(WorkerObsDelta {
                        metrics: o.metrics.clone(),
                        events: o.trace.events().to_vec(),
                        touch: o.touch.clone(),
                        migrated: o.migrated.clone(),
                    });
                    o.metrics.reset_values();
                    o.trace.clear();
                    o.touch.reset();
                    o.migrated.reset();
                    d
                });
                let _ = main_tx.send(FromShard::Synced {
                    shard: shard_id,
                    obs: delta,
                });
            }
            ToShard::EnableObs { epoch } => {
                let mut metrics = Registry::new();
                let ids = register_worker_metrics(&mut metrics);
                obs = Some(WorkerObs {
                    ids,
                    metrics,
                    trace: Recorder::with_epoch(WORKER_TRACE_CAPACITY, epoch),
                    touch: SpaceSaving::new(tin_obs::DEFAULT_TOPK_CAPACITY),
                    migrated: SpaceSaving::new(tin_obs::DEFAULT_TOPK_CAPACITY),
                });
            }
            ToShard::SetSampleInterval(every) => {
                sample_interval = every;
                next_sample = processed_local + every;
            }
            ToShard::QueryOrigins(v) => {
                let _ = main_tx.send(FromShard::Origins(tracker.origins(v)));
            }
            ToShard::QueryBuffered(v) => {
                let _ = main_tx.send(FromShard::Buffered(tracker.buffered(v)));
            }
            ToShard::QueryBufferedAll => {
                let entries: Vec<(u32, f64)> = (0..num_vertices)
                    .map(VertexId::from)
                    .filter(|v| shard_of(*v, peers.len()) == shard_id)
                    .map(|v| (v.raw(), tracker.buffered(v)))
                    .collect();
                let _ = main_tx.send(FromShard::BufferedAll(entries));
            }
            ToShard::CaptureStates(mut entries) => {
                for (v, bytes) in &mut entries {
                    debug_assert_eq!(shard_of(VertexId::new(*v), peers.len()), shard_id);
                    let supported = tracker.encode_vertex_state(VertexId::new(*v), bytes);
                    assert!(supported, "factory trackers support durable checkpoints");
                }
                let _ = main_tx.send(FromShard::StatesCaptured(entries));
            }
            ToShard::Restore { vertex, state } => {
                tracker.put_vertex_state(vertex, state);
            }
            ToShard::QueryFootprint => {
                // A full sample: re-baseline the spike monitor like the
                // sequential engine does on its periodic samples.
                let breakdown = tracker.footprint();
                tracker.note_footprint_sampled();
                let _ = main_tx.send(FromShard::Footprint {
                    shard: shard_id,
                    breakdown,
                });
            }
            ToShard::State(sm) => {
                debug_assert!(!sm.coming_home, "returns only arrive mid-batch");
                stash
                    .entry(sm.vertex.raw())
                    .or_default()
                    .push_back(sm.state);
            }
            ToShard::Batch(cmd) => {
                let start = cmd.start;
                let (n_locals, n_imports, n_exports) =
                    (cmd.locals.len(), cmd.imports.len(), cmd.exports.len());
                let batch_started = obs.is_some().then(Instant::now);
                let newborn = match run_batch(
                    shard_id,
                    tracker.as_mut(),
                    *cmd,
                    rx,
                    peers,
                    &mut stash,
                    &mut backlog,
                    &mut processed_local,
                    obs.as_mut(),
                ) {
                    Ok(newborn) => newborn,
                    Err(BatchAbort::PeerLost) | Err(BatchAbort::MainLost) => {
                        // The wavefront can never complete. Whoever died
                        // already broadcast the failure (or the main thread
                        // is gone); exit without re-broadcasting.
                        sentinel.disarm();
                        return;
                    }
                };
                // Read the spike flag unconditionally so the monitor
                // re-baselines even on periodic-sample batches; attach the
                // full sample to the completion so the main thread folds it
                // into the synchronized global peak.
                let spiked = tracker.take_footprint_spike();
                let mut sample = None;
                if spiked || processed_local >= next_sample {
                    next_sample = processed_local + sample_interval;
                    sample = Some(tracker.footprint().total());
                    if !spiked {
                        tracker.note_footprint_sampled();
                    }
                }
                if let (Some(o), Some(started)) = (obs.as_mut(), batch_started) {
                    o.metrics.add(o.ids.locals, n_locals as u64);
                    o.metrics.add(o.ids.imports, n_imports as u64);
                    // Each export ships one state out; each import ships
                    // the borrowed state home after processing.
                    o.metrics
                        .add(o.ids.migrations, (n_exports + n_imports) as u64);
                    if spiked {
                        o.metrics.inc(o.ids.spikes);
                    }
                    o.metrics
                        .observe_duration(o.ids.batch_ns, started.elapsed());
                    o.metrics
                        .set_gauge(o.ids.backlog_depth, backlog.len() as u64);
                    o.metrics.set_gauge(
                        o.ids.stash_depth,
                        stash.values().map(VecDeque::len).sum::<usize>() as u64,
                    );
                    o.trace.record("shard_batch", shard_id as u32 + 1, started);
                }
                if main_tx
                    .send(FromShard::BatchDone {
                        start,
                        shard: shard_id,
                        newborn,
                        footprint: sample,
                    })
                    .is_err()
                {
                    sentinel.disarm();
                    return;
                }
            }
        }
    }
}

/// Execute one wavefront on one shard (see the module docs for the
/// deadlock-freedom argument: all exports are sent unconditionally before
/// any shard waits, and returns depend only on exports). Returns the
/// per-offset newborn quantities, or [`BatchAbort`] if a peer or the main
/// thread died mid-wavefront.
#[allow(clippy::too_many_arguments)]
fn run_batch(
    shard_id: usize,
    tracker: &mut dyn ProvenanceTracker,
    cmd: BatchCmd,
    rx: &Receiver<ToShard>,
    peers: &[Sender<ToShard>],
    stash: &mut HashMap<u32, VecDeque<ShardVertexState>>,
    backlog: &mut VecDeque<ToShard>,
    processed_local: &mut usize,
    mut obs: Option<&mut WorkerObs>,
) -> std::result::Result<Vec<(u32, f64)>, BatchAbort> {
    // 1. Epoch sync *before* any state is read, exported or processed.
    tracker.sync_epoch(cmd.start, cmd.start_time);

    // 2. Ship lent vertex states (peers may already be waiting on them).
    for (v, to) in &cmd.exports {
        let state = tracker
            .take_vertex_state(*v)
            .expect("factory trackers support sharded execution");
        if let Some(o) = obs.as_deref_mut() {
            o.migrated.offer(v.raw(), state.footprint_bytes() as u64);
        }
        if peers[*to]
            .send(ToShard::State(StateMsg {
                vertex: *v,
                state,
                coming_home: false,
            }))
            .is_err()
        {
            return Err(BatchAbort::PeerLost);
        }
    }

    let mut newborn = Vec::with_capacity(cmd.locals.len() + cmd.imports.len());

    // 3. Local interactions: plain sequential processing.
    for (off, r) in &cmd.locals {
        newborn.push((*off, process_one(tracker, r)));
        *processed_local += 1;
        if let Some(o) = obs.as_deref_mut() {
            o.touch.offer(r.src.raw(), 1);
            o.touch.offer(r.dst.raw(), 1);
        }
    }

    // 4. Cross-shard interactions: install the source state, process with
    // the native tracker code, ship the state home. States may arrive in
    // any order (and early, via the stash). A BTreeMap keyed by source
    // vertex keeps the stash-drain order deterministic (the outcome is
    // order-independent — wavefront interactions are pairwise disjoint —
    // but deterministic message order keeps replays reproducible).
    let mut pending: BTreeMap<u32, (u32, Interaction)> = cmd
        .imports
        .iter()
        .map(|&(off, r)| (r.src.raw(), (off, r)))
        .collect();
    let mut returns_outstanding = cmd.returns_expected;

    let consume = |tracker: &mut dyn ProvenanceTracker,
                   vertex: VertexId,
                   state: ShardVertexState,
                   pending: &mut BTreeMap<u32, (u32, Interaction)>,
                   newborn: &mut Vec<(u32, f64)>,
                   processed_local: &mut usize,
                   obs: &mut Option<&mut WorkerObs>|
     -> std::result::Result<(), BatchAbort> {
        let (off, r) = pending
            .remove(&vertex.raw())
            .expect("an imported state matches a pending interaction");
        tracker.put_vertex_state(vertex, state);
        newborn.push((off, process_one(tracker, &r)));
        *processed_local += 1;
        let state = tracker
            .take_vertex_state(vertex)
            .expect("factory trackers support sharded execution");
        if let Some(o) = obs.as_deref_mut() {
            o.touch.offer(r.src.raw(), 1);
            o.touch.offer(r.dst.raw(), 1);
            o.migrated
                .offer(vertex.raw(), state.footprint_bytes() as u64);
        }
        let owner = shard_of(vertex, peers.len());
        debug_assert_ne!(owner, shard_id, "imports come from other shards");
        if peers[owner]
            .send(ToShard::State(StateMsg {
                vertex,
                state,
                coming_home: true,
            }))
            .is_err()
        {
            return Err(BatchAbort::PeerLost);
        }
        Ok(())
    };

    // Drain whatever the stash already holds for this batch.
    let ready: Vec<u32> = pending
        .keys()
        .copied()
        .filter(|v| stash.get(v).is_some_and(|q| !q.is_empty()))
        .collect();
    for v in ready {
        let state = stash
            .get_mut(&v)
            .and_then(VecDeque::pop_front)
            .expect("checked non-empty above");
        consume(
            tracker,
            VertexId::new(v),
            state,
            &mut pending,
            &mut newborn,
            processed_local,
            &mut obs,
        )?;
    }

    while !pending.is_empty() || returns_outstanding > 0 {
        // Disconnect-aware: if the channel closes (the main thread and
        // every peer dropped their senders) the wavefront can never
        // complete — abort instead of unwrapping into a hang-then-panic.
        let msg = match rx.recv() {
            Ok(m) => m,
            Err(_) => return Err(BatchAbort::MainLost),
        };
        match msg {
            ToShard::State(sm) => {
                if sm.coming_home {
                    tracker.put_vertex_state(sm.vertex, sm.state);
                    returns_outstanding -= 1;
                } else if pending.contains_key(&sm.vertex.raw()) {
                    consume(
                        tracker,
                        sm.vertex,
                        sm.state,
                        &mut pending,
                        &mut newborn,
                        processed_local,
                        &mut obs,
                    )?;
                } else {
                    // An export for a later wavefront arriving early.
                    stash
                        .entry(sm.vertex.raw())
                        .or_default()
                        .push_back(sm.state);
                }
            }
            ToShard::PeerFailed => {
                // The state we are waiting on will never arrive.
                return Err(BatchAbort::PeerLost);
            }
            // The main thread pipelines later wavefronts (and, on drop, the
            // shutdown) into the same channel the peer states travel on;
            // replay them in order once this wavefront completes.
            other => backlog.push_back(other),
        }
    }

    Ok(newborn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{all_configs, synthetic_stream};

    /// After every refresh the held recovery snapshot equals, byte for
    /// byte, a full capture at the same stream position — for every
    /// factory policy and shard count, whether the refresh patched the
    /// dirty vertices in or (windowed policies) re-encoded everything.
    #[test]
    fn refreshed_snapshot_equals_a_full_capture() {
        let n = 14usize;
        let snapshot_every = 6;
        let stream = synthetic_stream(n as u32, 90);
        for config in all_configs(n) {
            for shards in [2usize, 4, 7] {
                let context = format!("{} with {shards} shards", config.key());
                let mut engine = ShardedEngine::new(&config, n, shards)
                    .unwrap()
                    .with_self_healing(RecoveryPolicy {
                        snapshot_every,
                        ..RecoveryPolicy::default()
                    })
                    .unwrap();
                let mut refreshes = 0;
                for r in &stream {
                    engine.process(r).unwrap();
                    // `process` leaves its own interaction in the buffer, so
                    // an empty buffer here means this call refreshed.
                    engine.refresh_snapshot_if_due().unwrap();
                    if !engine.replay_buffer.is_empty() {
                        continue;
                    }
                    refreshes += 1;
                    // Capture the reference with the snapshot detached, so
                    // the capture cannot touch what the next refresh
                    // patches.
                    let held = engine.recovery_snapshot.take().unwrap();
                    let full = engine.checkpoint_attempt().unwrap();
                    assert_eq!(held.checkpoint.cursor, full.cursor, "cursor: {context}");
                    assert!(
                        held.checkpoint.states == full.states,
                        "states differ after refresh {refreshes}: {context}"
                    );
                    assert!(!held.dirty.contains(&true), "{context}");
                    engine.recovery_snapshot = Some(held);
                }
                assert_eq!(refreshes, stream.len() / snapshot_every, "{context}");
            }
        }
    }

    /// A patch replaces only the payloads of the vertices touched since the
    /// last refresh, each with a buffer of exactly its own size, and leaves
    /// every other payload where it was.
    #[test]
    fn patch_replaces_only_dirty_payloads_with_exact_size_buffers() {
        let config = PolicyConfig::Plain(tin_core::policy::SelectionPolicy::ProportionalSparse);
        let mut engine = ShardedEngine::new(&config, 8, 2)
            .unwrap()
            .with_self_healing(RecoveryPolicy {
                snapshot_every: 2,
                ..RecoveryPolicy::default()
            })
            .unwrap()
            .with_observability(Obs::new())
            .unwrap();
        let r = |s: u32, d: u32, t: f64| Interaction::new(s, d, t, 1.0 + t);
        engine.process_all(&[r(0, 1, 1.0), r(1, 2, 2.0)]).unwrap();
        engine.refresh_snapshot_if_due().unwrap();
        let held = engine.recovery_snapshot.as_ref().unwrap();
        assert_eq!(held.checkpoint.cursor.processed, 2);
        let addresses: Vec<*const u8> = held
            .checkpoint
            .states
            .iter()
            .map(|(_, p)| p.as_ptr())
            .collect();

        // Dirties vertices 1, 3 and 4. The new payloads are encoded while
        // the old ones are still held, so a replaced payload cannot come
        // back at its old address.
        engine.process_all(&[r(1, 3, 3.0), r(4, 1, 4.0)]).unwrap();
        engine.refresh_snapshot_if_due().unwrap();
        let held = engine.recovery_snapshot.take().unwrap();
        assert_eq!(held.checkpoint.cursor.processed, 4);
        for (v, payload) in &held.checkpoint.states {
            let replaced = payload.as_ptr() != addresses[*v as usize];
            assert_eq!(replaced, [1, 3, 4].contains(v), "vertex {v}");
            assert_eq!(payload.capacity(), payload.len(), "vertex {v}");
        }
        let held_bytes = held.payload_bytes();
        let full = engine.checkpoint_attempt().unwrap();
        assert!(held.checkpoint.states == full.states);
        engine.recovery_snapshot = Some(held);

        let obs = engine.take_obs().unwrap().unwrap();
        let snap = obs.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap()
        };
        assert_eq!(counter("recovery_snapshot_vertices_total"), 3 + 3);
        assert!(counter("recovery_snapshot_encoded_bytes") > 0);
        let gauge = snap
            .gauges
            .iter()
            .find(|g| g.name == "recovery_snapshot_bytes")
            .unwrap();
        assert_eq!((gauge.last, gauge.samples), (held_bytes as u64, 2));
    }
}
