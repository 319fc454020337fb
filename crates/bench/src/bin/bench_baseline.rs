//! `bench_baseline`: machine-readable per-policy performance baseline.
//!
//! Runs every feasible policy configuration over fixed-seed synthetic
//! workloads (Bitcoin- and taxi-shaped, the two stream shapes the paper's
//! evaluation leans on) and writes `BENCH_PR10.json`: interactions/sec,
//! per-interaction latency quantiles (p50/p90/p99/max from the `tin-obs`
//! `tracker_latency_ns` histogram), peak provenance footprint and allocator
//! peak per policy, plus a sequential-vs-sharded scaling section for the
//! `tin-shard` wavefront engine, a durable-checkpoint cost section, a
//! `recovery_time` section that kills one worker mid-stream on a
//! self-healing sharded engine and reports the measured recovery-time
//! objective per snapshot interval, a `healing_overhead` section that
//! prices self-healing when no worker dies (2-shard wall time and allocator
//! peak with and without it), a `telemetry_overhead` section that
//! isolates what live JSONL telemetry streaming costs on top of plain
//! observability, and a `trace_load` section that writes each workload to
//! CSV and times reading it back, with decimal and with non-decimal vertex
//! names. The JSON schema is documented in the repository README
//! ("Benchmark baseline"); numbers from this emitter are the perf
//! trajectory that later PRs are measured against.
//!
//! ## Measurement methodology (median of K interleaved repetitions)
//!
//! Early revisions timed each policy's repetitions back to back and
//! reported the fastest, which left ±3× run-to-run swings on the
//! `grouped`/`selective`/`windowed` rows: a frequency ramp or a background
//! task during one policy's window skews all of its reps at once.
//! Repetitions are now **interleaved** — rep 0 of
//! every policy, then rep 1 of every policy, … — so slow phases of the
//! machine spread across all policies instead of landing on one, and each
//! row reports the **median** per-pass time with the min/max range
//! alongside.
//!
//! Scale is controlled by `TIN_SCALE` (use `TIN_SCALE=tiny` as CI smoke
//! mode), the seed by `TIN_SEED`, timing repetitions by `TIN_BENCH_REPS`
//! (default 5), and the output path by `--out PATH` (default
//! `BENCH_PR10.json`).

use std::time::Instant;

use tin_bench::{
    dense_proportional_feasible, scale_from_env, seed_from_env, sparse_proportional_feasible,
    Workload,
};
use tin_core::ids::VertexId;
use tin_core::policy::{PolicyConfig, SelectionPolicy};
use tin_core::tracker::build_tracker;
use tin_datasets::{DatasetKind, ScaleProfile};
use tin_shard::ShardedEngine;

/// Interactions between two footprint samples of the instrumented pass.
const SAMPLE_INTERVAL: usize = 16_384;

/// Minimum wall-clock time of one measurement batch: small workloads finish
/// in microseconds, far below timer noise, so each measurement loops whole
/// passes until this much time has elapsed and reports the mean per-pass
/// time of the batch.
const MIN_MEASURE_SECS: f64 = 0.05;

/// Shard counts measured by the scaling section (sequential is measured
/// separately as the baseline).
const SCALING_SHARDS: &[usize] = &[1, 2, 4, 8];

/// Median / min / max of a set of per-pass timings (seconds).
#[derive(Clone, Copy, Debug)]
struct TimingStats {
    median_secs: f64,
    min_secs: f64,
    max_secs: f64,
}

impl TimingStats {
    fn from_samples(samples: &mut [f64]) -> TimingStats {
        assert!(!samples.is_empty(), "at least one timing sample");
        samples.sort_by(f64::total_cmp);
        let median_secs = if samples.len() % 2 == 1 {
            samples[samples.len() / 2]
        } else {
            0.5 * (samples[samples.len() / 2 - 1] + samples[samples.len() / 2])
        };
        TimingStats {
            median_secs,
            min_secs: samples[0],
            max_secs: samples[samples.len() - 1],
        }
    }

    fn per_sec(&self, items: usize) -> (f64, f64, f64) {
        let rate = |secs: f64| {
            if secs > 0.0 {
                items as f64 / secs
            } else {
                0.0
            }
        };
        // Fastest pass = highest rate, so min/max swap roles.
        (
            rate(self.median_secs),
            rate(self.max_secs),
            rate(self.min_secs),
        )
    }
}

/// Per-interaction tracker latency quantiles from the instrumented
/// sequential-engine pass (the `tracker_latency_ns` histogram of `tin-obs`,
/// log-bucket resolution).
#[derive(Clone, Copy, Debug, Default)]
struct LatencyQuantiles {
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    max_ns: u64,
}

/// Everything the single (untimed) instrumented pass yields: footprint
/// peaks, allocator peak, and latency quantiles.
struct InstrumentedPass {
    peak_footprint_bytes: usize,
    final_footprint_bytes: usize,
    peak_alloc_bytes: usize,
    latency: LatencyQuantiles,
}

struct PolicyRow {
    key: String,
    timing: TimingStats,
    latency: LatencyQuantiles,
    peak_footprint_bytes: usize,
    final_footprint_bytes: usize,
    peak_alloc_bytes: usize,
    reps: usize,
}

/// The policy configurations measured on every workload, in output order.
fn configs_for(w: &Workload) -> Vec<PolicyConfig> {
    let n = w.num_vertices;
    let k = 64.min(n.max(2) - 1).max(1);
    let m = 64.min(n).max(1);
    let mut configs = vec![
        PolicyConfig::Plain(SelectionPolicy::NoProvenance),
        PolicyConfig::Plain(SelectionPolicy::LeastRecentlyBorn),
        PolicyConfig::Plain(SelectionPolicy::MostRecentlyBorn),
        PolicyConfig::Plain(SelectionPolicy::Fifo),
        PolicyConfig::Plain(SelectionPolicy::Lifo),
    ];
    if dense_proportional_feasible(n) {
        configs.push(PolicyConfig::Plain(SelectionPolicy::ProportionalDense));
    }
    if sparse_proportional_feasible(n, w.interactions.len()) {
        configs.push(PolicyConfig::Plain(SelectionPolicy::ProportionalSparse));
    }
    configs.push(PolicyConfig::Selective {
        tracked: (0..k as u32).map(VertexId::new).collect(),
    });
    configs.push(PolicyConfig::Grouped {
        num_groups: m,
        group_of: (0..n).map(|v| (v % m) as u32).collect(),
    });
    configs.push(PolicyConfig::Windowed { window: 4096 });
    configs.push(PolicyConfig::budget(64));
    configs
}

/// One timed measurement of `config` over `w` on the plain tracker: loops
/// whole passes until [`MIN_MEASURE_SECS`] elapsed, returns mean per-pass
/// seconds.
fn time_tracker_pass(config: &PolicyConfig, w: &Workload) -> f64 {
    let mut passes = 0u32;
    let start = Instant::now();
    loop {
        let mut tracker =
            build_tracker(config, w.num_vertices).expect("benchmark configs are valid");
        tracker.process_all(&w.interactions);
        passes += 1;
        if start.elapsed().as_secs_f64() >= MIN_MEASURE_SECS {
            break;
        }
    }
    start.elapsed().as_secs_f64() / f64::from(passes)
}

/// The single instrumented pass for one policy (not timed — histogram
/// observation adds a clock read per interaction, so this pass is kept
/// separate from the throughput measurements above). One observability-
/// attached sequential-engine run yields the periodic logical-footprint
/// peaks, the allocator peak, *and* the per-interaction latency quantiles
/// from the `tracker_latency_ns` histogram; earlier revisions burned a
/// second full pass on the quantiles alone.
fn instrument_policy(config: &PolicyConfig, w: &Workload) -> InstrumentedPass {
    let scope = tin_memstats::MemoryScope::start();
    let mut engine = tin_core::engine::ProvenanceEngine::new(config, w.num_vertices)
        .expect("benchmark configs are valid")
        .with_footprint_sample_interval(SAMPLE_INTERVAL)
        .expect("sample interval is positive")
        .with_observability(tin_obs::Obs::new());
    engine.process_all(&w.interactions).expect("valid stream");
    let report = engine.report();
    let obs = engine.take_obs().expect("observability was attached");
    let mem = scope.finish();
    let snap = obs.snapshot();
    let hist = snap
        .histograms
        .iter()
        .find(|h| h.name == "tracker_latency_ns")
        .expect("engine registers tracker_latency_ns");
    InstrumentedPass {
        peak_footprint_bytes: report.peak_footprint_bytes,
        final_footprint_bytes: report.footprint.total(),
        peak_alloc_bytes: mem.peak_delta_bytes,
        latency: LatencyQuantiles {
            p50_ns: hist.p50,
            p90_ns: hist.p90,
            p99_ns: hist.p99,
            max_ns: hist.max,
        },
    }
}

/// Measure every policy over one workload with K interleaved repetitions
/// (see the module docs), reporting median + min/max per policy.
fn run_policy_table(w: &Workload, reps: usize) -> Vec<PolicyRow> {
    let configs = configs_for(w);
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); configs.len()];
    for _ in 0..reps {
        for (i, config) in configs.iter().enumerate() {
            samples[i].push(time_tracker_pass(config, w));
        }
    }
    configs
        .iter()
        .zip(samples.iter_mut())
        .map(|(config, times)| {
            let pass = instrument_policy(config, w);
            PolicyRow {
                key: config.key(),
                timing: TimingStats::from_samples(times),
                latency: pass.latency,
                peak_footprint_bytes: pass.peak_footprint_bytes,
                final_footprint_bytes: pass.final_footprint_bytes,
                peak_alloc_bytes: pass.peak_alloc_bytes,
                reps,
            }
        })
        .collect()
}

/// One scaling-section measurement mode: the sequential engine or the
/// sharded engine at a given shard count.
#[derive(Clone, Copy)]
enum ScalingMode {
    Sequential,
    Sharded(usize),
}

/// One timed engine pass: `process_all` + `report` (so the sharded engine
/// pays for its quiesce like a real caller would). Engine construction and
/// teardown are *excluded* from the timed region — a `ShardedEngine` spawns
/// and joins N OS threads, and at small scales that lifecycle cost would
/// otherwise dominate the row and misreport the scaling of stream
/// processing itself.
fn time_engine_pass(config: &PolicyConfig, w: &Workload, mode: ScalingMode) -> f64 {
    let mut passes = 0u32;
    let mut timed = 0.0f64;
    loop {
        match mode {
            ScalingMode::Sequential => {
                let mut engine = tin_core::engine::ProvenanceEngine::new(config, w.num_vertices)
                    .expect("benchmark configs are valid");
                let start = Instant::now();
                engine.process_all(&w.interactions).expect("valid stream");
                std::hint::black_box(engine.report());
                timed += start.elapsed().as_secs_f64();
            }
            ScalingMode::Sharded(shards) => {
                let mut engine = ShardedEngine::new(config, w.num_vertices, shards)
                    .expect("benchmark configs are valid");
                let start = Instant::now();
                engine.process_all(&w.interactions).expect("valid stream");
                std::hint::black_box(engine.report().expect("workers healthy"));
                timed += start.elapsed().as_secs_f64();
            }
        }
        passes += 1;
        if timed >= MIN_MEASURE_SECS {
            break;
        }
    }
    timed / f64::from(passes)
}

struct ScalingRow {
    mode: &'static str,
    shards: usize,
    timing: TimingStats,
    speedup_vs_sequential: f64,
}

/// Sequential vs sharded scaling for one workload: K interleaved reps per
/// mode, median-of-K, speedup relative to the sequential engine.
fn run_scaling(config: &PolicyConfig, w: &Workload, reps: usize) -> Vec<ScalingRow> {
    let modes: Vec<ScalingMode> = std::iter::once(ScalingMode::Sequential)
        .chain(SCALING_SHARDS.iter().map(|&s| ScalingMode::Sharded(s)))
        .collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); modes.len()];
    for _ in 0..reps {
        for (i, mode) in modes.iter().enumerate() {
            samples[i].push(time_engine_pass(config, w, *mode));
        }
    }
    let stats: Vec<TimingStats> = samples
        .iter_mut()
        .map(|s| TimingStats::from_samples(s))
        .collect();
    let sequential_median = stats[0].median_secs;
    modes
        .iter()
        .zip(stats)
        .map(|(mode, timing)| {
            let (label, shards) = match mode {
                ScalingMode::Sequential => ("sequential", 0),
                ScalingMode::Sharded(s) => ("sharded", *s),
            };
            ScalingRow {
                mode: label,
                shards,
                timing,
                speedup_vs_sequential: if timing.median_secs > 0.0 {
                    sequential_median / timing.median_secs
                } else {
                    0.0
                },
            }
        })
        .collect()
}

struct CheckpointIntervalRow {
    /// Durable-checkpoint interval (0 = checkpointing disabled).
    checkpoint_every: usize,
    timing: TimingStats,
    overhead_percent: f64,
    checkpoints_per_pass: usize,
    peak_alloc_bytes: usize,
}

struct CheckpointSection {
    policy: String,
    capture_secs: f64,
    save_secs: f64,
    encoded_bytes: usize,
    rows: Vec<CheckpointIntervalRow>,
}

fn checkpoint_scratch_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tin_bench_ckpt_{}", std::process::id()))
}

/// One timed sequential-engine pass with durable checkpoints every `every`
/// interactions (0 disables them entirely — the baseline the overhead is
/// measured against). Engine and store construction are excluded from the
/// timed region, matching [`time_engine_pass`].
fn time_durable_pass(config: &PolicyConfig, w: &Workload, every: usize) -> f64 {
    let dir = checkpoint_scratch_dir();
    let mut passes = 0u32;
    let mut timed = 0.0f64;
    loop {
        let mut engine = tin_core::engine::ProvenanceEngine::new(config, w.num_vertices)
            .expect("benchmark configs are valid");
        if every > 0 {
            let store =
                tin_core::checkpoint::CheckpointStore::open(&dir).expect("scratch dir is writable");
            engine = engine
                .with_durable_checkpoints(store, every)
                .expect("interval is positive");
        }
        let start = Instant::now();
        engine.process_all(&w.interactions).expect("valid stream");
        std::hint::black_box(engine.report());
        timed += start.elapsed().as_secs_f64();
        passes += 1;
        if timed >= MIN_MEASURE_SECS {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    timed / f64::from(passes)
}

/// Allocator peak of one durable (or disabled) pass — pins down that the
/// zero-allocation steady state is untouched while checkpointing is off and
/// quantifies what the capture path allocates when it is on.
fn alloc_peak_durable(config: &PolicyConfig, w: &Workload, every: usize) -> usize {
    let dir = checkpoint_scratch_dir();
    let scope = tin_memstats::MemoryScope::start();
    let mut engine = tin_core::engine::ProvenanceEngine::new(config, w.num_vertices)
        .expect("benchmark configs are valid");
    if every > 0 {
        let store =
            tin_core::checkpoint::CheckpointStore::open(&dir).expect("scratch dir is writable");
        engine = engine
            .with_durable_checkpoints(store, every)
            .expect("interval is positive");
    }
    engine.process_all(&w.interactions).expect("valid stream");
    std::hint::black_box(engine.report());
    let mem = scope.finish();
    let _ = std::fs::remove_dir_all(&dir);
    mem.peak_delta_bytes
}

/// Checkpoint cost per interval for one workload: the cost of a single
/// end-state capture and atomic save, plus end-to-end overhead at several
/// checkpoint intervals against the disabled baseline.
fn run_checkpoint_section(config: &PolicyConfig, w: &Workload, reps: usize) -> CheckpointSection {
    let len = w.interactions.len();
    // 0 = disabled baseline; then roughly 4 and 16 checkpoints per pass.
    let intervals = [0usize, len.div_ceil(4).max(1), len.div_ceil(16).max(1)];

    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); intervals.len()];
    for _ in 0..reps {
        for (i, &every) in intervals.iter().enumerate() {
            samples[i].push(time_durable_pass(config, w, every));
        }
    }
    let stats: Vec<TimingStats> = samples
        .iter_mut()
        .map(|s| TimingStats::from_samples(s))
        .collect();
    let baseline_median = stats[0].median_secs;
    let rows = intervals
        .iter()
        .zip(stats)
        .map(|(&every, timing)| CheckpointIntervalRow {
            checkpoint_every: every,
            timing,
            overhead_percent: if baseline_median > 0.0 {
                (timing.median_secs / baseline_median - 1.0) * 100.0
            } else {
                0.0
            },
            checkpoints_per_pass: len.checked_div(every).unwrap_or(0),
            peak_alloc_bytes: alloc_peak_durable(config, w, every),
        })
        .collect();

    // Single end-state capture and atomic save, median of 5.
    let mut engine = tin_core::engine::ProvenanceEngine::new(config, w.num_vertices)
        .expect("benchmark configs are valid");
    engine.process_all(&w.interactions).expect("valid stream");
    let mut capture_samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let checkpoint = engine.checkpoint().expect("policy supports checkpoints");
            std::hint::black_box(&checkpoint);
            start.elapsed().as_secs_f64()
        })
        .collect();
    let capture_secs = TimingStats::from_samples(&mut capture_samples).median_secs;
    let checkpoint = engine.checkpoint().expect("policy supports checkpoints");
    let dir = checkpoint_scratch_dir();
    let mut store =
        tin_core::checkpoint::CheckpointStore::open(&dir).expect("scratch dir is writable");
    let start = Instant::now();
    store.save(&checkpoint).expect("scratch dir is writable");
    let save_secs = start.elapsed().as_secs_f64();
    let encoded_bytes = store
        .last_save_stats()
        .expect("a save records its stats")
        .encoded_bytes;
    let _ = std::fs::remove_dir_all(&dir);

    CheckpointSection {
        policy: config.key(),
        capture_secs,
        save_secs,
        encoded_bytes,
        rows,
    }
}

struct RecoveryRow {
    /// In-memory recovery-snapshot interval (interactions between
    /// snapshots): bounds the replay work a recovery has to redo.
    snapshot_every: usize,
    /// Measured recovery-time objective: wall-clock from failure detection
    /// to the end of replay, per [`tin_shard::RecoveryStats::last_rto_secs`].
    rto: TimingStats,
    /// Most interactions any rep's recovery had to replay (worst case over
    /// the K reps; bounded above by `snapshot_every`).
    replayed_interactions: usize,
    reps: usize,
}

struct RecoverySection {
    policy: String,
    shards: usize,
    rows: Vec<RecoveryRow>,
}

/// One self-healing pass: kill one worker mid-stream, let the supervised
/// engine respawn + restore + replay, and read back the measured RTO.
/// Returns `(last_rto_secs, replayed_interactions)`.
fn time_recovery_pass(
    config: &PolicyConfig,
    w: &Workload,
    shards: usize,
    snapshot_every: usize,
) -> (f64, usize) {
    let policy = tin_shard::RecoveryPolicy {
        snapshot_every,
        restart_backoff: std::time::Duration::from_millis(1),
        ..Default::default()
    };
    let mut engine = ShardedEngine::new(config, w.num_vertices, shards)
        .expect("benchmark configs are valid")
        .with_self_healing(policy)
        .expect("recovery policy is valid");
    let kill_at = w.interactions.len() / 2;
    for (i, r) in w.interactions.iter().enumerate() {
        if i == kill_at {
            engine
                .inject_worker_panic(i % shards)
                .expect("workers healthy before the kill");
        }
        engine.process(r).expect("self-healing absorbs the kill");
    }
    std::hint::black_box(engine.report().expect("workers healthy"));
    let stats = engine.recovery_stats();
    assert!(
        stats.recoveries >= 1,
        "the injected worker panic must trigger a recovery"
    );
    (stats.last_rto_secs, stats.replayed_interactions)
}

/// Measured recovery-time objective at two snapshot intervals: K
/// interleaved reps per interval, each killing one worker halfway through
/// the stream on a self-healing sharded engine. The RTO is the engine's own
/// failure-to-replay-complete clock, so it isolates recovery cost from the
/// surrounding pass.
fn run_recovery_section(config: &PolicyConfig, w: &Workload, reps: usize) -> RecoverySection {
    // Every pass kills one worker on purpose; keep the resulting panic
    // messages out of the report. Non-worker panics still print.
    let prev = std::sync::Arc::new(std::panic::take_hook());
    let fwd = prev.clone();
    std::panic::set_hook(Box::new(move |info| {
        let worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("tin-shard"));
        if !worker {
            fwd(info);
        }
    }));

    let len = w.interactions.len();
    let shards = 4usize;
    // Roughly 4 and 16 snapshots per pass — the same interval grid as the
    // durable-checkpoint section, so replay-bound effects line up.
    let intervals = [len.div_ceil(4).max(1), len.div_ceil(16).max(1)];

    let mut rto_samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); intervals.len()];
    let mut replayed: Vec<usize> = vec![0; intervals.len()];
    for _ in 0..reps {
        for (i, &every) in intervals.iter().enumerate() {
            let (rto, n) = time_recovery_pass(config, w, shards, every);
            rto_samples[i].push(rto);
            replayed[i] = replayed[i].max(n);
        }
    }
    let rows = intervals
        .iter()
        .zip(rto_samples.iter_mut())
        .zip(replayed)
        .map(
            |((&snapshot_every, samples), replayed_interactions)| RecoveryRow {
                snapshot_every,
                rto: TimingStats::from_samples(samples),
                replayed_interactions,
                reps,
            },
        )
        .collect();
    std::panic::set_hook(Box::new(move |info| prev(info)));
    RecoverySection {
        policy: config.key(),
        shards,
        rows,
    }
}

/// Shard count of the healing-overhead section: the 2-shard job of the
/// end-to-end benchmark.
const HEALING_SHARDS: usize = 2;

/// A 2-shard engine as `tin-cli run --shards 2` builds it: observability
/// attached, as crash reporting attaches it, and self-healing under the
/// CLI's default policy when `healing` is set (`--max-worker-restarts 0`
/// otherwise).
fn healing_engine(config: &PolicyConfig, w: &Workload, healing: bool) -> ShardedEngine {
    let engine = ShardedEngine::new(config, w.num_vertices, HEALING_SHARDS)
        .expect("benchmark configs are valid")
        .with_observability(tin_obs::Obs::new())
        .expect("workers healthy");
    if healing {
        engine
            .with_self_healing(tin_shard::RecoveryPolicy::default())
            .expect("the default recovery policy is valid")
    } else {
        engine
    }
}

/// One timed pass of [`healing_engine`]. Construction, which takes the
/// first recovery snapshot, is excluded, matching [`time_engine_pass`].
fn time_healing_pass(config: &PolicyConfig, w: &Workload, healing: bool) -> f64 {
    let mut passes = 0u32;
    let mut timed = 0.0f64;
    loop {
        let mut engine = healing_engine(config, w, healing);
        let start = Instant::now();
        engine.process_all(&w.interactions).expect("valid stream");
        std::hint::black_box(engine.report().expect("workers healthy"));
        timed += start.elapsed().as_secs_f64();
        passes += 1;
        if timed >= MIN_MEASURE_SECS {
            break;
        }
    }
    timed / f64::from(passes)
}

/// Allocator peak of one pass of [`healing_engine`], construction
/// included, and the most payload bytes its recovery snapshot held (the
/// `recovery_snapshot_bytes` gauge; 0 without healing).
fn alloc_peak_healing(config: &PolicyConfig, w: &Workload, healing: bool) -> (usize, usize) {
    let scope = tin_memstats::MemoryScope::start();
    let mut engine = healing_engine(config, w, healing);
    engine.process_all(&w.interactions).expect("valid stream");
    std::hint::black_box(engine.report().expect("workers healthy"));
    let peak = scope.finish().peak_delta_bytes;
    let obs = engine
        .take_obs()
        .expect("workers healthy")
        .expect("attached by healing_engine");
    let held = obs
        .snapshot()
        .gauges
        .iter()
        .find(|g| g.name == "recovery_snapshot_bytes")
        .map_or(0, |g| g.max);
    (peak, held as usize)
}

struct HealingOverhead {
    policy: String,
    plain: TimingStats,
    healing: TimingStats,
    plain_peak_alloc_bytes: usize,
    healing_peak_alloc_bytes: usize,
    held_snapshot_bytes: usize,
}

/// Steady-state cost of self-healing for one workload: K interleaved reps
/// of a plain 2-shard pass and a self-healing one (no worker dies), plus
/// one untimed allocator-peak pass of each.
fn run_healing_overhead(config: &PolicyConfig, w: &Workload, reps: usize) -> HealingOverhead {
    let mut samples: [Vec<f64>; 2] = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
    for _ in 0..reps {
        for (healing, s) in [false, true].into_iter().zip(samples.iter_mut()) {
            s.push(time_healing_pass(config, w, healing));
        }
    }
    let [plain, healing] = &mut samples;
    let (plain_peak_alloc_bytes, _) = alloc_peak_healing(config, w, false);
    let (healing_peak_alloc_bytes, held_snapshot_bytes) = alloc_peak_healing(config, w, true);
    HealingOverhead {
        policy: config.key(),
        plain: TimingStats::from_samples(plain),
        healing: TimingStats::from_samples(healing),
        plain_peak_alloc_bytes,
        healing_peak_alloc_bytes,
        held_snapshot_bytes,
    }
}

/// One telemetry-overhead measurement mode for the sequential engine.
#[derive(Clone, Copy)]
enum TelemetryMode {
    /// No observability at all — the uninstrumented baseline.
    Plain,
    /// Observability attached, no telemetry stream.
    Obs,
    /// Observability plus a live JSONL telemetry stream at the given
    /// interval, written into `std::io::sink()` so the measurement isolates
    /// snapshot + delta-encoding + serialisation cost from disk speed.
    ObsTelemetry(usize),
}

/// A telemetry sink that only counts: bytes written and records (newlines),
/// shared through atomics so the counters survive the engine taking
/// ownership of the sink.
struct CountingSink {
    bytes: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    records: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        use std::sync::atomic::Ordering::Relaxed;
        self.bytes.fetch_add(buf.len(), Relaxed);
        self.records
            .fetch_add(buf.iter().filter(|&&b| b == b'\n').count(), Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One timed sequential-engine pass in a telemetry-overhead mode. Engine
/// construction is excluded from the timed region, matching
/// [`time_engine_pass`]; the telemetry mode pays the end-of-stream `final`
/// record a real caller emits too (a no-op in the other modes).
fn time_telemetry_pass(config: &PolicyConfig, w: &Workload, mode: TelemetryMode) -> f64 {
    let mut passes = 0u32;
    let mut timed = 0.0f64;
    loop {
        let mut engine = tin_core::engine::ProvenanceEngine::new(config, w.num_vertices)
            .expect("benchmark configs are valid");
        match mode {
            TelemetryMode::Plain => {}
            TelemetryMode::Obs => engine = engine.with_observability(tin_obs::Obs::new()),
            TelemetryMode::ObsTelemetry(every) => {
                engine = engine
                    .with_observability(tin_obs::Obs::new())
                    .with_telemetry(tin_obs::Telemetry::new(Box::new(std::io::sink())), every)
                    .expect("interval is positive");
            }
        }
        let start = Instant::now();
        engine.process_all(&w.interactions).expect("valid stream");
        engine
            .emit_telemetry("final")
            .expect("sink writes cannot fail");
        std::hint::black_box(engine.report());
        timed += start.elapsed().as_secs_f64();
        passes += 1;
        if timed >= MIN_MEASURE_SECS {
            break;
        }
    }
    timed / f64::from(passes)
}

struct TelemetryOverheadRow {
    mode: &'static str,
    timing: TimingStats,
    overhead_vs_plain_percent: f64,
}

struct TelemetryOverheadSection {
    policy: String,
    telemetry_every: usize,
    records_per_pass: usize,
    bytes_per_pass: usize,
    /// The headline number: obs+telemetry vs obs-only, median-over-median —
    /// what the live stream itself costs on an already-instrumented engine.
    telemetry_overhead_percent: f64,
    rows: Vec<TelemetryOverheadRow>,
}

/// Telemetry streaming cost for one workload: K interleaved reps of the
/// three modes (uninstrumented / obs-only / obs + telemetry into a null
/// sink at `every = max(1024, len/16)`, the interval the CLI defaults
/// approximate at scale), plus one untimed counting pass for the record
/// and byte volume.
fn run_telemetry_overhead(
    config: &PolicyConfig,
    w: &Workload,
    reps: usize,
) -> TelemetryOverheadSection {
    let every = (w.interactions.len() / 16).max(1024);
    let modes = [
        ("plain", TelemetryMode::Plain),
        ("obs", TelemetryMode::Obs),
        ("obs_telemetry", TelemetryMode::ObsTelemetry(every)),
    ];
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); modes.len()];
    for _ in 0..reps {
        for (i, (_, mode)) in modes.iter().enumerate() {
            samples[i].push(time_telemetry_pass(config, w, *mode));
        }
    }
    let stats: Vec<TimingStats> = samples
        .iter_mut()
        .map(|s| TimingStats::from_samples(s))
        .collect();
    let plain_median = stats[0].median_secs;
    let obs_median = stats[1].median_secs;
    let telemetry_median = stats[2].median_secs;
    let overhead = |vs: f64, secs: f64| {
        if vs > 0.0 {
            (secs / vs - 1.0) * 100.0
        } else {
            0.0
        }
    };

    // Untimed counting pass: how much the stream actually emits.
    let bytes = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let records = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let sink = CountingSink {
        bytes: bytes.clone(),
        records: records.clone(),
    };
    let mut engine = tin_core::engine::ProvenanceEngine::new(config, w.num_vertices)
        .expect("benchmark configs are valid")
        .with_observability(tin_obs::Obs::new())
        .with_telemetry(tin_obs::Telemetry::new(Box::new(sink)), every)
        .expect("interval is positive");
    engine.process_all(&w.interactions).expect("valid stream");
    engine
        .emit_telemetry("final")
        .expect("sink writes cannot fail");

    TelemetryOverheadSection {
        policy: config.key(),
        telemetry_every: every,
        records_per_pass: records.load(std::sync::atomic::Ordering::Relaxed),
        bytes_per_pass: bytes.load(std::sync::atomic::Ordering::Relaxed),
        telemetry_overhead_percent: overhead(obs_median, telemetry_median),
        rows: modes
            .iter()
            .zip(stats)
            .map(|((label, _), timing)| TelemetryOverheadRow {
                mode: label,
                timing,
                overhead_vs_plain_percent: overhead(plain_median, timing.median_secs),
            })
            .collect(),
    }
}

/// How the vertices of a `trace_load` file are named.
#[derive(Clone, Copy)]
enum TraceNames {
    /// The ids `write_csv` writes, which the interner finds by indexing.
    Decimal,
    /// `v<id>`, which the interner finds through its hash map.
    NonDecimal,
}

impl TraceNames {
    fn key(self) -> &'static str {
        match self {
            TraceNames::Decimal => "decimal",
            TraceNames::NonDecimal => "non_decimal",
        }
    }
}

struct TraceLoadRow {
    names: TraceNames,
    bytes: usize,
    records: usize,
    vertices: usize,
    load: TimingStats,
    peak_alloc_bytes: usize,
    allocations: usize,
}

/// Write the workload as a `src,dst,time,qty` file, its vertices named as
/// `names` says.
fn write_trace(path: &std::path::Path, w: &Workload, names: TraceNames) {
    use std::io::Write;
    match names {
        TraceNames::Decimal => tin_datasets::io::write_csv_file(path, &w.interactions)
            .expect("the temp dir is writable"),
        TraceNames::NonDecimal => {
            let file = std::fs::File::create(path).expect("the temp dir is writable");
            let mut out = std::io::BufWriter::new(file);
            let mut write = || -> std::io::Result<()> {
                writeln!(out, "src,dst,time,qty")?;
                for r in &w.interactions {
                    let (src, dst) = (r.src.raw(), r.dst.raw());
                    writeln!(out, "v{src},v{dst},{},{}", r.time.0, r.qty)?;
                }
                out.flush()
            };
            write().expect("the temp dir is writable");
        }
    }
}

/// Seconds per `read_named_edge_list_file` of `path`: loads repeat until
/// [`MIN_MEASURE_SECS`] have elapsed, and the mean is returned.
fn time_trace_load(path: &std::path::Path) -> f64 {
    let mut passes = 0u32;
    let mut timed = 0.0f64;
    loop {
        let start = Instant::now();
        let named = tin_datasets::formats::read_named_edge_list_file(path)
            .expect("the trace was just written");
        timed += start.elapsed().as_secs_f64();
        std::hint::black_box(named);
        passes += 1;
        if timed >= MIN_MEASURE_SECS {
            break;
        }
    }
    timed / f64::from(passes)
}

/// Trace-load cost for one workload: its trace written by `write_csv` and
/// again with non-decimal names, each read back by
/// `read_named_edge_list_file` over K interleaved reps, plus one untimed
/// load per file under the counting allocator.
fn run_trace_load(w: &Workload, reps: usize) -> Vec<TraceLoadRow> {
    let dir = std::env::temp_dir().join(format!("tin_bench_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("the temp dir is writable");
    let files: Vec<(TraceNames, std::path::PathBuf)> =
        [TraceNames::Decimal, TraceNames::NonDecimal]
            .into_iter()
            .map(|names| {
                let path = dir.join(format!("{}.csv", names.key()));
                write_trace(&path, w, names);
                (names, path)
            })
            .collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); files.len()];
    for _ in 0..reps {
        for ((_, path), s) in files.iter().zip(samples.iter_mut()) {
            s.push(time_trace_load(path));
        }
    }
    let rows = files
        .iter()
        .zip(samples.iter_mut())
        .map(|((names, path), s)| {
            let (named, mem) = tin_memstats::measure(|| {
                tin_datasets::formats::read_named_edge_list_file(path)
                    .expect("the trace was just written")
            });
            TraceLoadRow {
                names: *names,
                bytes: std::fs::metadata(path).map_or(0, |m| m.len() as usize),
                records: named.interactions.len(),
                vertices: named.num_vertices(),
                load: TimingStats::from_samples(s),
                peak_alloc_bytes: mem.peak_delta_bytes,
                allocations: mem.allocations,
            }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let scale = scale_from_env();
    let seed = seed_from_env();
    let reps: usize = std::env::var("TIN_BENCH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
        .max(1);
    let mut out_path = "BENCH_PR10.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other:?} (supported: --out PATH)");
                std::process::exit(2);
            }
        }
    }

    let scale_key = match scale {
        ScaleProfile::Tiny => "tiny",
        ScaleProfile::Small => "small",
        ScaleProfile::Medium => "medium",
        ScaleProfile::Paper => "paper",
    };
    println!("bench_baseline: scale={scale_key}, seed={seed}, reps={reps} (interleaved, median)");

    let kinds = [DatasetKind::Bitcoin, DatasetKind::Taxis];
    let mut workload_blobs = Vec::new();
    let mut scaling_blobs = Vec::new();
    let mut checkpoint_blobs = Vec::new();
    let mut recovery_blobs = Vec::new();
    let mut healing_blobs = Vec::new();
    let mut telemetry_blobs = Vec::new();
    let mut trace_load_blobs = Vec::new();
    for kind in kinds {
        let w = Workload::generate(kind, scale);
        println!("\n  {}", w.describe());

        // Trace load: the workload written to CSV and read back.
        for row in run_trace_load(&w, reps) {
            let secs = row.load.median_secs;
            let rate = |items: f64| if secs > 0.0 { items / secs } else { 0.0 };
            let mb_per_sec = rate(row.bytes as f64 / 1e6);
            let records_per_sec = rate(row.records as f64);
            println!(
                "    trace load ({}): {} in {:.3} ms ({:.1} MB/s, {:.0} records/s), \
                 alloc peak {}, {} allocations",
                row.names.key(),
                tin_memstats::format_bytes(row.bytes),
                secs * 1e3,
                mb_per_sec,
                records_per_sec,
                tin_memstats::format_bytes(row.peak_alloc_bytes),
                row.allocations,
            );
            trace_load_blobs.push(format!(
                concat!(
                    "{{\"dataset\": \"{}\", \"names\": \"{}\", \"bytes\": {}, ",
                    "\"records\": {}, \"vertices\": {}, \"load_secs\": {}, ",
                    "\"load_secs_min\": {}, \"load_secs_max\": {}, \"mb_per_sec\": {}, ",
                    "\"records_per_sec\": {}, \"peak_alloc_bytes\": {}, ",
                    "\"allocations\": {}, \"reps\": {}}}"
                ),
                kind.key(),
                row.names.key(),
                row.bytes,
                row.records,
                row.vertices,
                fmt_f64(secs),
                fmt_f64(row.load.min_secs),
                fmt_f64(row.load.max_secs),
                fmt_f64(mb_per_sec),
                fmt_f64(records_per_sec),
                row.peak_alloc_bytes,
                row.allocations,
                reps,
            ));
        }

        // Per-policy table: K interleaved reps, median + min/max.
        let rows = run_policy_table(&w, reps);
        for row in &rows {
            let (median, lo, hi) = row.timing.per_sec(w.interactions.len());
            println!(
                "    {:<18} {:>12.0} it/s  [{:>12.0} .. {:>12.0}]  p99 {:>8} ns  peak {:>12}",
                row.key,
                median,
                lo,
                hi,
                row.latency.p99_ns,
                tin_memstats::format_bytes(row.peak_footprint_bytes),
            );
        }
        let policy_blobs: Vec<String> = rows
            .iter()
            .map(|r| {
                let (median, lo, hi) = r.timing.per_sec(w.interactions.len());
                format!(
                    concat!(
                        "{{\"policy\": \"{}\", \"runtime_secs\": {}, ",
                        "\"runtime_secs_min\": {}, \"runtime_secs_max\": {}, ",
                        "\"interactions_per_sec\": {}, ",
                        "\"interactions_per_sec_min\": {}, \"interactions_per_sec_max\": {}, ",
                        "\"latency_p50_ns\": {}, \"latency_p90_ns\": {}, ",
                        "\"latency_p99_ns\": {}, \"latency_max_ns\": {}, ",
                        "\"peak_footprint_bytes\": {}, ",
                        "\"final_footprint_bytes\": {}, \"peak_alloc_bytes\": {}, \"reps\": {}}}"
                    ),
                    json_escape(&r.key),
                    fmt_f64(r.timing.median_secs),
                    fmt_f64(r.timing.min_secs),
                    fmt_f64(r.timing.max_secs),
                    fmt_f64(median),
                    fmt_f64(lo),
                    fmt_f64(hi),
                    r.latency.p50_ns,
                    r.latency.p90_ns,
                    r.latency.p99_ns,
                    r.latency.max_ns,
                    r.peak_footprint_bytes,
                    r.final_footprint_bytes,
                    r.peak_alloc_bytes,
                    r.reps,
                )
            })
            .collect();
        workload_blobs.push(format!(
            concat!(
                "{{\"dataset\": \"{}\", \"num_vertices\": {}, \"num_interactions\": {},\n",
                "     \"policies\": [\n      {}\n     ]}}"
            ),
            kind.key(),
            w.num_vertices,
            w.interactions.len(),
            policy_blobs.join(",\n      "),
        ));

        // Sequential-vs-sharded scaling on the workload's hot-path policy.
        let scaling_config = if sparse_proportional_feasible(w.num_vertices, w.interactions.len()) {
            PolicyConfig::Plain(SelectionPolicy::ProportionalSparse)
        } else {
            PolicyConfig::Plain(SelectionPolicy::Fifo)
        };
        println!("    scaling ({}):", scaling_config.key());
        for row in run_scaling(&scaling_config, &w, reps) {
            let (median, _, _) = row.timing.per_sec(w.interactions.len());
            let label = match row.mode {
                "sequential" => "sequential".to_string(),
                _ => format!("sharded x{}", row.shards),
            };
            println!(
                "      {label:<14} {median:>12.0} it/s  speedup {:.2}x",
                row.speedup_vs_sequential
            );
            scaling_blobs.push(format!(
                concat!(
                    "{{\"dataset\": \"{}\", \"policy\": \"{}\", \"mode\": \"{}\", ",
                    "\"shards\": {}, \"runtime_secs\": {}, \"runtime_secs_min\": {}, ",
                    "\"runtime_secs_max\": {}, \"interactions_per_sec\": {}, ",
                    "\"speedup_vs_sequential\": {}, \"reps\": {}}}"
                ),
                kind.key(),
                json_escape(&scaling_config.key()),
                row.mode,
                row.shards,
                fmt_f64(row.timing.median_secs),
                fmt_f64(row.timing.min_secs),
                fmt_f64(row.timing.max_secs),
                fmt_f64(median),
                fmt_f64(row.speedup_vs_sequential),
                reps,
            ));
        }

        // Durable-checkpoint cost on the same hot-path policy: single
        // capture/save cost plus end-to-end overhead per interval.
        let ckpt = run_checkpoint_section(&scaling_config, &w, reps);
        // Save throughput, and each interval's allocator peak over the
        // disabled row's, which holds the live state alone.
        let save_mb_per_sec = if ckpt.save_secs > 0.0 {
            ckpt.encoded_bytes as f64 / 1e6 / ckpt.save_secs
        } else {
            0.0
        };
        let state_alloc_bytes = ckpt.rows[0].peak_alloc_bytes.max(1) as f64;
        println!(
            "    checkpoint ({}): capture {:.3} ms, save {:.3} ms ({:.1} MB/s), {} bytes",
            ckpt.policy,
            ckpt.capture_secs * 1e3,
            ckpt.save_secs * 1e3,
            save_mb_per_sec,
            ckpt.encoded_bytes,
        );
        let interval_blobs: Vec<String> = ckpt
            .rows
            .iter()
            .map(|row| {
                let label = if row.checkpoint_every == 0 {
                    "disabled".to_string()
                } else {
                    format!("every {}", row.checkpoint_every)
                };
                let peak_alloc_over_state = row.peak_alloc_bytes as f64 / state_alloc_bytes;
                println!(
                    "      {label:<14} {:>10.3} ms/pass  overhead {:+6.2}%  alloc peak {:>12} ({:.2}x state)",
                    row.timing.median_secs * 1e3,
                    row.overhead_percent,
                    tin_memstats::format_bytes(row.peak_alloc_bytes),
                    peak_alloc_over_state,
                );
                format!(
                    concat!(
                        "{{\"checkpoint_every\": {}, \"checkpoints_per_pass\": {}, ",
                        "\"runtime_secs\": {}, \"runtime_secs_min\": {}, ",
                        "\"runtime_secs_max\": {}, \"overhead_percent\": {}, ",
                        "\"peak_alloc_bytes\": {}, \"peak_alloc_over_state\": {}}}"
                    ),
                    row.checkpoint_every,
                    row.checkpoints_per_pass,
                    fmt_f64(row.timing.median_secs),
                    fmt_f64(row.timing.min_secs),
                    fmt_f64(row.timing.max_secs),
                    fmt_f64(row.overhead_percent),
                    row.peak_alloc_bytes,
                    fmt_f64(peak_alloc_over_state),
                )
            })
            .collect();
        checkpoint_blobs.push(format!(
            concat!(
                "{{\"dataset\": \"{}\", \"policy\": \"{}\", \"capture_secs\": {}, ",
                "\"save_secs\": {}, \"encoded_bytes\": {}, \"save_mb_per_sec\": {}, ",
                "\"reps\": {},\n",
                "     \"intervals\": [\n      {}\n     ]}}"
            ),
            kind.key(),
            json_escape(&ckpt.policy),
            fmt_f64(ckpt.capture_secs),
            fmt_f64(ckpt.save_secs),
            ckpt.encoded_bytes,
            fmt_f64(save_mb_per_sec),
            reps,
            interval_blobs.join(",\n      "),
        ));

        // Measured RTO of the self-healing sharded engine at two snapshot
        // intervals, same hot-path policy.
        let recovery = run_recovery_section(&scaling_config, &w, reps);
        println!(
            "    recovery ({}, {} shards):",
            recovery.policy, recovery.shards
        );
        let recovery_rows: Vec<String> = recovery
            .rows
            .iter()
            .map(|row| {
                println!(
                    "      snapshot every {:<8} rto {:>10.3} ms  replayed <= {}",
                    row.snapshot_every,
                    row.rto.median_secs * 1e3,
                    row.replayed_interactions,
                );
                format!(
                    concat!(
                        "{{\"snapshot_every\": {}, \"rto_secs\": {}, ",
                        "\"rto_secs_min\": {}, \"rto_secs_max\": {}, ",
                        "\"replayed_interactions\": {}, \"reps\": {}}}"
                    ),
                    row.snapshot_every,
                    fmt_f64(row.rto.median_secs),
                    fmt_f64(row.rto.min_secs),
                    fmt_f64(row.rto.max_secs),
                    row.replayed_interactions,
                    row.reps,
                )
            })
            .collect();
        recovery_blobs.push(format!(
            concat!(
                "{{\"dataset\": \"{}\", \"policy\": \"{}\", \"shards\": {},\n",
                "     \"intervals\": [\n      {}\n     ]}}"
            ),
            kind.key(),
            json_escape(&recovery.policy),
            recovery.shards,
            recovery_rows.join(",\n      "),
        ));

        // Steady-state cost of self-healing, no worker dying: the 2-shard
        // job with and without it, same hot-path policy.
        let heal = run_healing_overhead(&scaling_config, &w, reps);
        let ratio = |of: f64, over: f64| if over > 0.0 { of / over } else { 0.0 };
        let overhead_ratio = ratio(heal.healing.median_secs, heal.plain.median_secs);
        let peak_alloc_over_plain = ratio(
            heal.healing_peak_alloc_bytes as f64,
            heal.plain_peak_alloc_bytes as f64,
        );
        println!(
            "    healing overhead ({}, {HEALING_SHARDS} shards): {:.3} → {:.3} ms/pass ({:.2}x), \
             alloc peak {} → {} ({:.2}x), snapshot {}",
            heal.policy,
            heal.plain.median_secs * 1e3,
            heal.healing.median_secs * 1e3,
            overhead_ratio,
            tin_memstats::format_bytes(heal.plain_peak_alloc_bytes),
            tin_memstats::format_bytes(heal.healing_peak_alloc_bytes),
            peak_alloc_over_plain,
            tin_memstats::format_bytes(heal.held_snapshot_bytes),
        );
        healing_blobs.push(format!(
            concat!(
                "{{\"dataset\": \"{}\", \"policy\": \"{}\", \"shards\": {}, ",
                "\"snapshot_every\": {}, \"plain_runtime_secs\": {}, ",
                "\"healing_runtime_secs\": {}, \"overhead_ratio\": {}, ",
                "\"plain_peak_alloc_bytes\": {}, \"healing_peak_alloc_bytes\": {}, ",
                "\"held_snapshot_bytes\": {}, \"peak_alloc_over_plain\": {}, \"reps\": {}}}"
            ),
            kind.key(),
            json_escape(&heal.policy),
            HEALING_SHARDS,
            tin_shard::RecoveryPolicy::default().snapshot_every,
            fmt_f64(heal.plain.median_secs),
            fmt_f64(heal.healing.median_secs),
            fmt_f64(overhead_ratio),
            heal.plain_peak_alloc_bytes,
            heal.healing_peak_alloc_bytes,
            heal.held_snapshot_bytes,
            fmt_f64(peak_alloc_over_plain),
            reps,
        ));

        // Live-telemetry streaming cost on the same hot-path policy.
        let telemetry = run_telemetry_overhead(&scaling_config, &w, reps);
        println!(
            "    telemetry overhead ({}, every {}):",
            telemetry.policy, telemetry.telemetry_every
        );
        let mode_blobs: Vec<String> = telemetry
            .rows
            .iter()
            .map(|row| {
                println!(
                    "      {:<14} {:>10.3} ms/pass  vs plain {:+6.2}%",
                    row.mode,
                    row.timing.median_secs * 1e3,
                    row.overhead_vs_plain_percent,
                );
                format!(
                    concat!(
                        "{{\"mode\": \"{}\", \"runtime_secs\": {}, ",
                        "\"runtime_secs_min\": {}, \"runtime_secs_max\": {}, ",
                        "\"overhead_vs_plain_percent\": {}}}"
                    ),
                    row.mode,
                    fmt_f64(row.timing.median_secs),
                    fmt_f64(row.timing.min_secs),
                    fmt_f64(row.timing.max_secs),
                    fmt_f64(row.overhead_vs_plain_percent),
                )
            })
            .collect();
        println!(
            "      streaming cost vs obs: {:+.2}%  ({} records, {} per pass)",
            telemetry.telemetry_overhead_percent,
            telemetry.records_per_pass,
            tin_memstats::format_bytes(telemetry.bytes_per_pass),
        );
        telemetry_blobs.push(format!(
            concat!(
                "{{\"dataset\": \"{}\", \"policy\": \"{}\", \"telemetry_every\": {}, ",
                "\"records_per_pass\": {}, \"bytes_per_pass\": {}, ",
                "\"telemetry_overhead_percent\": {}, \"reps\": {},\n",
                "     \"modes\": [\n      {}\n     ]}}"
            ),
            kind.key(),
            json_escape(&telemetry.policy),
            telemetry.telemetry_every,
            telemetry.records_per_pass,
            telemetry.bytes_per_pass,
            fmt_f64(telemetry.telemetry_overhead_percent),
            reps,
            mode_blobs.join(",\n      "),
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema_version\": 6,\n",
            "  \"generated_by\": \"bench_baseline\",\n",
            "  \"scale\": \"{}\",\n",
            "  \"seed\": {},\n",
            "  \"sample_interval\": {},\n",
            "  \"methodology\": \"median of K interleaved repetitions; min/max alongside\",\n",
            "  \"workloads\": [\n    {}\n  ],\n",
            "  \"sharded_scaling\": [\n    {}\n  ],\n",
            "  \"checkpoint_cost\": [\n    {}\n  ],\n",
            "  \"recovery_time\": [\n    {}\n  ],\n",
            "  \"healing_overhead\": [\n    {}\n  ],\n",
            "  \"telemetry_overhead\": [\n    {}\n  ],\n",
            "  \"trace_load\": [\n    {}\n  ]\n",
            "}}\n"
        ),
        scale_key,
        seed,
        SAMPLE_INTERVAL,
        workload_blobs.join(",\n    "),
        scaling_blobs.join(",\n    "),
        checkpoint_blobs.join(",\n    "),
        recovery_blobs.join(",\n    "),
        healing_blobs.join(",\n    "),
        telemetry_blobs.join(",\n    "),
        trace_load_blobs.join(",\n    "),
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("\nwrote {out_path}");
}
