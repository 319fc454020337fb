//! The `tin-cli run` job driven through the public functions of each layer
//! crate, with a span around every call, so the benchmark can say which
//! layer a change moved. Options mirror the CLI's, and so do its defaults:
//! a run with `--shards` above 1 self-heals with a respawn budget of 3 and
//! carries an observability unit (the CLI attaches one for crash reports).
//!
//! ```text
//! perfbench-traced --trace T.csv --reference R.txt --policy prop_sparse \
//!     --shards 1 --top 10 --checkpoint-dir D --checkpoint-every 100000
//! ```
//!
//! `--checkpoint-every 0` disables durable checkpoints. Prints one JSON line
//! of per-layer metrics; `output_matches` says whether the rendered report
//! equals the reference byte for byte. The checkpoint peak-allocation figure
//! needs `tin_memstats::CountingAllocator` installed by the binary; without
//! it the figure reads 0.

use std::process::ExitCode;
use std::time::Instant;

use crate::{parse_policy, rank_rows, render_report, Args, JsonObject, Spans, Totals};
use tin_core::checkpoint::CheckpointStore;
use tin_core::engine::ProvenanceEngine;
use tin_core::ids::VertexId;
use tin_core::policy::PolicyConfig;
use tin_core::tracker::build_tracker;
use tin_datasets::formats::read_named_edge_list_file;
use tin_memstats::MemoryScope;
use tin_obs::metrics::MetricsSnapshot;
use tin_obs::Obs;
use tin_shard::{RecoveryPolicy, ShardedEngine};

/// The CLI's default respawn budget for sharded runs.
const MAX_WORKER_RESTARTS: usize = 3;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0.0, |c| c.value as f64)
}

/// `(count, sum)` of a histogram.
fn histogram(snap: &MetricsSnapshot, name: &str) -> (f64, f64) {
    snap.histograms
        .iter()
        .find(|h| h.name == name)
        .map_or((0.0, 0.0), |h| (h.count as f64, h.sum as f64))
}

fn run() -> Result<String, String> {
    let args = Args::from_env()?;
    let trace_path = args.get("trace")?;
    let expected = std::fs::read_to_string(args.get("reference")?).map_err(err)?;
    let policy = parse_policy(args.get("policy")?)?;
    let shards: usize = args.num("shards")?;
    let top: usize = args.num("top")?;
    let checkpoint_dir = args.get("checkpoint-dir")?;
    let checkpoint_every: usize = args.num("checkpoint-every")?;
    let config = PolicyConfig::Plain(policy);

    let mut spans = Spans::default();
    let mut metrics = JsonObject::default();
    let job_start = Instant::now();
    let named = spans
        .time("datasets.load_s", || read_named_edge_list_file(trace_path))
        .map_err(err)?;
    let n = named.num_vertices();

    let (totals, rows, peak_footprint, obs) = if shards <= 1 {
        let (mut engine, mut store) = spans
            .time("core.engine_build_s", || -> tin_core::error::Result<_> {
                let engine = ProvenanceEngine::new(&config, n)?;
                let store = (checkpoint_every > 0)
                    .then(|| CheckpointStore::open(checkpoint_dir))
                    .transpose()?;
                Ok((engine, store))
            })
            .map_err(err)?;
        let (mut encode_s, mut bytes, mut peak_alloc) = (0.0, 0.0, 0.0_f64);
        // Process in chunks that end where the CLI's engine would take a
        // durable checkpoint, and take it here under its own spans.
        let chunk = if checkpoint_every > 0 {
            checkpoint_every
        } else {
            named.interactions.len().max(1)
        };
        for part in named.interactions.chunks(chunk) {
            spans
                .time("core.stream_s", || {
                    part.iter().try_for_each(|r| engine.process(r))
                })
                .map_err(err)?;
            let Some(store) = store.as_mut() else {
                continue;
            };
            if part.len() < chunk {
                continue;
            }
            let scope = MemoryScope::start();
            let checkpoint = spans
                .time("core.checkpoint_capture_s", || engine.checkpoint())
                .map_err(err)?;
            // Freeing the capture counts as part of the save, as it does
            // inside the engine.
            spans
                .time("core.checkpoint_save_s", || {
                    let saved = store.save(&checkpoint);
                    drop(checkpoint);
                    saved
                })
                .map_err(err)?;
            peak_alloc = peak_alloc.max(scope.finish().peak_delta_bytes as f64);
            let stats = store.last_save_stats().ok_or("save recorded no stats")?;
            encode_s += stats.encode_secs;
            bytes += stats.encoded_bytes as f64;
        }
        let (totals, rows, report) = spans.time("core.query_s", || {
            let buffered = (0..n).map(|i| engine.buffered(VertexId::from(i))).collect();
            let rows: Vec<_> = rank_rows(buffered, top)
                .into_iter()
                .map(|(i, q)| (i, q, engine.origins(VertexId::from(i))))
                .collect();
            let report = engine.report();
            let totals = Totals {
                interactions: report.interactions,
                total_quantity: report.total_quantity,
                newborn_quantity: report.newborn_quantity,
            };
            (totals, rows, report)
        });
        let saves = store.as_ref().map_or(0, CheckpointStore::saves);
        metrics
            .num("core.checkpoints", saves as f64)
            .num("core.checkpoint_encode_s", encode_s)
            .num(
                "core.checkpoint_io_s",
                spans.secs("core.checkpoint_save_s") - encode_s,
            )
            .num("core.checkpoint_bytes", bytes)
            .num("core.checkpoint_peak_alloc_bytes", peak_alloc);
        spans.time("core.teardown_s", || drop((engine, store)));
        (totals, rows, report.peak_footprint_bytes, None)
    } else {
        let mut engine = spans
            .time("shard.build_s", || {
                ShardedEngine::new(&config, n, shards)?
                    .with_self_healing(RecoveryPolicy {
                        max_worker_restarts: MAX_WORKER_RESTARTS,
                        ..RecoveryPolicy::default()
                    })?
                    .with_observability(Obs::new())
            })
            .map_err(err)?;
        spans
            .time("shard.stream_s", || {
                named
                    .interactions
                    .iter()
                    .try_for_each(|r| engine.process(r))
            })
            .map_err(err)?;
        let (totals, rows, report, obs) = spans
            .time("shard.query_s", || -> tin_core::error::Result<_> {
                let ranked = rank_rows(engine.buffered_all()?, top);
                let mut rows = Vec::with_capacity(ranked.len());
                for (i, q) in ranked {
                    rows.push((i, q, engine.origins(VertexId::from(i))?));
                }
                let obs = engine.take_obs()?;
                let report = engine.report()?;
                let totals = Totals {
                    interactions: report.interactions,
                    total_quantity: report.total_quantity,
                    newborn_quantity: report.newborn_quantity,
                };
                Ok((totals, rows, report, obs))
            })
            .map_err(err)?;
        spans.time("shard.teardown_s", || drop(engine));
        (totals, rows, report.peak_footprint_bytes, obs)
    };
    let output = spans.time("cli.render_s", || {
        render_report(&named, policy, &totals, &rows)
    });
    let wall = job_start.elapsed().as_secs_f64();
    let attributed: f64 = spans.entries().iter().map(|(_, s)| s).sum();

    if let Some(obs) = obs {
        let snap = obs.snapshot();
        let (wavefronts, width_sum) = histogram(&snap, "wavefront_batch_interactions_total");
        let (_, busy_ns) = histogram(&snap, "shard_batch_ns");
        let (_, barrier_ns) = histogram(&snap, "sync_barrier_ns");
        // Without durable checkpoints every capture is a recovery snapshot.
        let (snapshots, snapshot_ns) = histogram(&snap, "checkpoint_capture_ns");
        let stream_s = spans.secs("shard.stream_s");
        let interactions = totals.interactions.max(1) as f64;
        metrics
            .num("shard.wavefronts", wavefronts)
            .num(
                "shard.wavefront_width_mean",
                width_sum / wavefronts.max(1.0),
            )
            .num(
                "shard.migrations",
                counter(&snap, "shard_state_migrations_total"),
            )
            .num(
                "shard.cross_shard_ratio",
                counter(&snap, "shard_import_interactions_total") / interactions,
            )
            .num("shard.worker_busy_s", busy_ns / 1e9)
            .num(
                "shard.worker_busy_ratio",
                busy_ns / 1e9 / (stream_s * shards as f64),
            )
            .num("shard.barrier_s", barrier_ns / 1e9)
            .num("shard.recovery_snapshots", snapshots)
            .num("shard.recovery_snapshot_s", snapshot_ns / 1e9);
    }

    // The bare kernel over the same stream, outside the job: the engine's
    // own cost is its stream time minus this.
    let mut tracker = build_tracker(&config, n).map_err(err)?;
    spans.time("core.kernel_s", || tracker.process_all(&named.interactions));

    for (name, secs) in spans.entries() {
        if *name != "core.checkpoint_save_s" {
            metrics.num(name, *secs);
        }
    }
    if shards <= 1 {
        metrics.num(
            "core.engine_overhead_s",
            spans.secs("core.stream_s") - spans.secs("core.kernel_s"),
        );
    }
    let trace_bytes = std::fs::metadata(trace_path).map_err(err)?.len();
    metrics
        .num("datasets.trace_bytes", trace_bytes as f64)
        .num("core.peak_footprint_bytes", peak_footprint as f64)
        .num("bench.traced_wall_s", wall)
        .num("bench.unattributed_s", wall - attributed)
        .flag("output_matches", output == expected);
    Ok(metrics.render())
}

/// Run the traced job described by the command line and print its metrics.
pub fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench-traced: {message}");
            ExitCode::FAILURE
        }
    }
}
