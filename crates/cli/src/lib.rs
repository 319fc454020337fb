//! Command-line front-end for TIN provenance tracking.
//!
//! The library crates answer provenance questions programmatically; this
//! crate packages the most common workflows behind a small CLI so a trace can
//! be analysed without writing any Rust:
//!
//! ```text
//! tin-cli stats    <trace>                               # Table 6-style statistics
//! tin-cli run      <trace> --policy fifo [--shards 4]    # full engine run (sequential or sharded)
//!                  [--checkpoint-dir D --checkpoint-every N] [--resume] [--crash-at K]
//! tin-cli track    <trace> --policy fifo [--top 10]      # per-vertex origin summary
//! tin-cli origins  <trace> --vertex NAME [--policy KEY] [--at TIME]
//! tin-cli snapshot <trace> --policy KEY --out FILE.tsv   # persist the final state
//! tin-cli alerts   <trace> --threshold Q                 # Figure 9-style alerts
//! tin-cli influence <trace> [--top 10]                   # diffusion-model influence ranking
//! tin-cli similar  <trace> [--threshold 0.9] [--top 10]  # provenance-similarity mining
//! tin-cli generate <dataset> --scale tiny --out FILE.csv # synthetic workload export
//! ```
//!
//! Traces are `src,dst,time,qty` text files (comma / whitespace separated,
//! `#` comments allowed); vertex names may be arbitrary strings — they are
//! interned to dense ids on load (see `tin_datasets::formats`).
//!
//! Argument parsing is hand-rolled (no external dependency) and lives in
//! [`parse_args`]; command execution lives in [`run`]; both are unit-tested
//! and the binary in `main.rs` is a thin wrapper around them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Write as _;

use tin_analytics::alerts::{AlertConfig, AlertEngine};
use tin_analytics::distribution::ProvenanceDistribution;
use tin_analytics::mining::{cluster_by_provenance, most_similar_pairs};
use tin_chaos::ChaosPlan;
use tin_core::checkpoint::{Checkpoint, CheckpointStore};
use tin_core::error::TinError;
use tin_core::memory::format_bytes;
use tin_core::policy::{PolicyConfig, SelectionPolicy};
use tin_core::snapshot::ProvenanceSnapshot;
use tin_core::tracker::diffusion::DiffusionTracker;
use tin_core::tracker::{build_tracker, lazy::LazyReplayProvenance, ProvenanceTracker};
use tin_datasets::formats::{read_named_edge_list_file, NamedTin};
use tin_datasets::{DatasetKind, DatasetSpec, ScaleProfile};

/// A parsed CLI invocation.
// One `Command` is parsed per process and dropped after dispatch; the size
// spread between the flag-heavy `Run` variant and the rest buys nothing
// from indirection here.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Print Table 6-style statistics of a trace.
    Stats {
        /// Path to the trace file.
        path: String,
    },
    /// Run the full provenance engine over the trace — sequentially or on
    /// the sharded wavefront engine — and print a deterministic report
    /// (identical output for every `--shards` value, by construction).
    Run {
        /// Path to the trace file.
        path: String,
        /// Selection policy to run.
        policy: SelectionPolicy,
        /// Number of worker shards (1 = sequential `ProvenanceEngine`).
        shards: usize,
        /// How many vertices to show (by buffered quantity).
        top: usize,
        /// Directory for durable checkpoints (`None` disables them).
        checkpoint_dir: Option<String>,
        /// Take a durable checkpoint every this many interactions.
        checkpoint_every: usize,
        /// Recover from the newest valid checkpoint in `--checkpoint-dir`
        /// and replay only the tail of the trace.
        resume: bool,
        /// Fault injection: exit with an error after this many interactions,
        /// leaving the durable checkpoints behind for a later `--resume`.
        crash_at: Option<usize>,
        /// Write a metrics snapshot (counters/gauges/histograms JSON) here
        /// after the run.
        metrics_out: Option<String>,
        /// Write a Chrome trace-event JSON (Perfetto-loadable) here after
        /// the run.
        trace_out: Option<String>,
        /// Print a progress line to stderr every this many interactions
        /// (stderr, so stdout stays byte-identical across shard counts).
        progress_every: Option<usize>,
        /// Override the engines' footprint sampling interval.
        footprint_sample_every: Option<usize>,
        /// Fault-injection plan (see `tin-chaos`): worker kills/stalls at
        /// given stream positions and transient checkpoint write faults.
        chaos_plan: Option<String>,
        /// Seed for resolving chaos-plan victims deterministically.
        chaos_seed: u64,
        /// Self-healing budget for sharded runs: how many times the worker
        /// pool may be respawned after a failure (0 = fail fast).
        max_worker_restarts: usize,
        /// Stream live telemetry records (delta-encoded JSONL) here while
        /// the run is in flight.
        telemetry_out: Option<String>,
        /// Emit a telemetry record every this many interactions (sharded
        /// runs additionally emit at every sync barrier).
        telemetry_every: usize,
        /// Where to dump the black-box crash report when a run dies.
        crash_report: CrashReportMode,
    },
    /// Run a selection policy over the trace and summarise the provenance of
    /// the busiest vertices.
    Track {
        /// Path to the trace file.
        path: String,
        /// Selection policy to run.
        policy: SelectionPolicy,
        /// How many vertices to show (by buffered quantity).
        top: usize,
    },
    /// Provenance of a single vertex, optionally at a past time (replayed
    /// lazily).
    Origins {
        /// Path to the trace file.
        path: String,
        /// Raw vertex name as it appears in the trace.
        vertex: String,
        /// Selection policy to use for the query.
        policy: SelectionPolicy,
        /// Optional time horizon (defaults to the end of the trace).
        at: Option<f64>,
    },
    /// Run a policy and write the final provenance snapshot as TSV.
    Snapshot {
        /// Path to the trace file.
        path: String,
        /// Selection policy to run.
        policy: SelectionPolicy,
        /// Output TSV path.
        out: String,
    },
    /// Raise Figure 9-style alerts while streaming the trace.
    Alerts {
        /// Path to the trace file.
        path: String,
        /// Buffered-quantity threshold above which a vertex is reported.
        threshold: f64,
    },
    /// Rank origins by influence under the diffusion (copy) propagation model
    /// (the Section 8 social-network extension).
    Influence {
        /// Path to the trace file.
        path: String,
        /// How many origins to show.
        top: usize,
    },
    /// Mine the provenance state for vertices with near-identical origin
    /// compositions (co-financed accounts, Section 8 future work).
    Similar {
        /// Path to the trace file.
        path: String,
        /// Selection policy whose provenance state is mined.
        policy: SelectionPolicy,
        /// Minimum cosine similarity for a pair to be reported.
        threshold: f64,
        /// How many pairs to show.
        top: usize,
    },
    /// Generate a synthetic dataset and write it as a trace file.
    Generate {
        /// Which dataset to emulate.
        kind: DatasetKind,
        /// Scale profile.
        scale: ScaleProfile,
        /// Output CSV path.
        out: String,
    },
    /// Render a summary (latency quantiles, the imbalance trajectory, the
    /// hottest vertices) from a telemetry JSONL stream written by
    /// `run --telemetry-out`.
    Report {
        /// Path to the telemetry JSONL file.
        path: String,
    },
    /// Print the usage text.
    Help,
}

/// Where `run` dumps its black-box crash report when a run dies with a
/// terminal error (worker lost, recovery budget exhausted, corrupt
/// checkpoint).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrashReportMode {
    /// Default: sharded runs write `<trace path>.crash` next to the input;
    /// sequential runs skip forensics (their failures are plain errors with
    /// no worker pool to post-mortem).
    Auto,
    /// Forensics disabled (`--crash-report-dir none`).
    Off,
    /// Write the report into this directory.
    Dir(String),
}

/// The usage text printed by `tin-cli help` and on argument errors.
pub const USAGE: &str = "\
tin-cli — provenance in temporal interaction networks

USAGE:
  tin-cli stats    <trace>
  tin-cli run      <trace> [--policy KEY] [--shards N] [--top N]
                   [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
                   [--crash-at K] [--metrics-out FILE.json] [--trace-out FILE.json]
                   [--progress-every N] [--footprint-sample-every N]
                   [--telemetry-out FILE.jsonl] [--telemetry-every N]
                   [--crash-report-dir DIR|none]
                   [--chaos-plan PLAN] [--chaos-seed S] [--max-worker-restarts N]
  tin-cli report   <telemetry.jsonl>
  tin-cli track    <trace> [--policy KEY] [--top N]
  tin-cli origins  <trace> --vertex NAME [--policy KEY] [--at TIME]
  tin-cli snapshot <trace> [--policy KEY] --out FILE.tsv
  tin-cli alerts   <trace> [--threshold Q]
  tin-cli influence <trace> [--top N]
  tin-cli similar  <trace> [--policy KEY] [--threshold SIM] [--top N]
  tin-cli generate <bitcoin|ctu|prosper|flights|taxis> [--scale tiny|small|medium|paper] --out FILE.csv
  tin-cli help

POLICY KEYS: noprov, lrb, mrb, fifo, lifo, prop_dense, prop_sparse
TRACE FORMAT: one `src dst time qty` record per line; names may be strings.
CHECKPOINTS: --checkpoint-dir persists recovery checkpoints while running;
  --resume restarts from the newest valid one; --crash-at K injects a crash
  after K interactions (non-zero exit) for recovery drills.
OBSERVABILITY: --metrics-out writes a metrics JSON snapshot after the run;
  --trace-out writes a Chrome trace-event JSON (open in ui.perfetto.dev);
  --progress-every N prints progress to stderr every N interactions.
TELEMETRY & FORENSICS: --telemetry-out streams delta-encoded JSONL records
  every --telemetry-every N interactions (default 1000) and at every sync
  barrier; `tin-cli report` renders them. When a sharded run dies it dumps
  a crash-report directory (report.json, metrics.json, trace.json) to
  --crash-report-dir (default: <trace>.crash; `none` disables it).
SELF-HEALING & CHAOS: sharded runs recover from worker deaths automatically
  (--max-worker-restarts N respawn budget, default 3; 0 = fail fast).
  --chaos-plan injects deterministic faults: kill-worker@K[:SHARD],
  stall-worker@K:MILLIS[:SHARD], ckpt-fault@NTH[xCOUNT], comma-separated;
  --chaos-seed S picks victims for events without an explicit shard.";

/// Parse a policy key (`fifo`, `prop_sparse`, …) into a [`SelectionPolicy`].
pub fn parse_policy(key: &str) -> Result<SelectionPolicy, String> {
    SelectionPolicy::all()
        .into_iter()
        .find(|p| p.key() == key)
        .ok_or_else(|| format!("unknown policy {key:?}; expected one of: noprov, lrb, mrb, fifo, lifo, prop_dense, prop_sparse"))
}

/// Parse a dataset key into a [`DatasetKind`].
pub fn parse_dataset(key: &str) -> Result<DatasetKind, String> {
    DatasetKind::all()
        .into_iter()
        .find(|k| k.key() == key)
        .ok_or_else(|| {
            format!("unknown dataset {key:?}; expected bitcoin, ctu, prosper, flights or taxis")
        })
}

/// Parse a scale key into a [`ScaleProfile`].
pub fn parse_scale(key: &str) -> Result<ScaleProfile, String> {
    match key {
        "tiny" => Ok(ScaleProfile::Tiny),
        "small" => Ok(ScaleProfile::Small),
        "medium" => Ok(ScaleProfile::Medium),
        "paper" => Ok(ScaleProfile::Paper),
        other => Err(format!(
            "unknown scale {other:?}; expected tiny, small, medium or paper"
        )),
    }
}

/// Extract the value following a `--flag` from an option map built by
/// [`parse_args`]. Returns `None` when the flag is absent.
fn take_flag(flags: &mut Vec<(String, String)>, name: &str) -> Option<String> {
    let pos = flags.iter().position(|(k, _)| k == name)?;
    Some(flags.remove(pos).1)
}

/// Parse command-line arguments (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some(command) = args.first() else {
        return Ok(Command::Help);
    };
    if command == "help" || command == "--help" || command == "-h" {
        return Ok(Command::Help);
    }

    // Split the remainder into positional arguments and `--flag value` pairs.
    // Flags in `VALUELESS` are booleans: present or absent, no value.
    const VALUELESS: &[&str] = &["resume"];
    let mut positional: Vec<String> = Vec::new();
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut rest = args[1..].iter().peekable();
    while let Some(arg) = rest.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if VALUELESS.contains(&name) {
                flags.push((name.to_string(), String::new()));
                continue;
            }
            let value = rest
                .next()
                .ok_or_else(|| format!("flag --{name} expects a value"))?;
            flags.push((name.to_string(), value.clone()));
        } else {
            positional.push(arg.clone());
        }
    }
    let first_positional = |positional: &[String], what: &str| -> Result<String, String> {
        positional
            .first()
            .cloned()
            .ok_or_else(|| format!("{command}: missing {what}"))
    };

    let parsed = match command.as_str() {
        "stats" => Command::Stats {
            path: first_positional(&positional, "trace path")?,
        },
        "run" => Command::Run {
            path: first_positional(&positional, "trace path")?,
            policy: parse_policy(
                &take_flag(&mut flags, "policy").unwrap_or_else(|| "prop_sparse".into()),
            )?,
            shards: take_flag(&mut flags, "shards")
                .map(|v| {
                    v.parse::<usize>()
                        .ok()
                        .filter(|s| *s >= 1)
                        .ok_or_else(|| format!("invalid --shards {v:?} (expected an integer >= 1)"))
                })
                .transpose()?
                .unwrap_or(1),
            top: take_flag(&mut flags, "top")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| format!("invalid --top {v:?}"))
                })
                .transpose()?
                .unwrap_or(10),
            checkpoint_dir: take_flag(&mut flags, "checkpoint-dir"),
            checkpoint_every: take_flag(&mut flags, "checkpoint-every")
                .map(|v| {
                    v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        format!("invalid --checkpoint-every {v:?} (expected an integer >= 1)")
                    })
                })
                .transpose()?
                .unwrap_or(1000),
            resume: take_flag(&mut flags, "resume").is_some(),
            crash_at: take_flag(&mut flags, "crash-at")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| format!("invalid --crash-at {v:?}"))
                })
                .transpose()?,
            metrics_out: take_flag(&mut flags, "metrics-out"),
            trace_out: take_flag(&mut flags, "trace-out"),
            progress_every: take_flag(&mut flags, "progress-every")
                .map(|v| {
                    v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        format!("invalid --progress-every {v:?} (expected an integer >= 1)")
                    })
                })
                .transpose()?,
            footprint_sample_every: take_flag(&mut flags, "footprint-sample-every")
                .map(|v| {
                    v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        format!("invalid --footprint-sample-every {v:?} (expected an integer >= 1)")
                    })
                })
                .transpose()?,
            chaos_plan: take_flag(&mut flags, "chaos-plan")
                .map(|v| {
                    // Validate the grammar at parse time so typos are usage
                    // errors before any trace is loaded.
                    ChaosPlan::parse(&v)
                        .map(|_| v.clone())
                        .map_err(|e| format!("invalid --chaos-plan {v:?}: {e}"))
                })
                .transpose()?,
            chaos_seed: take_flag(&mut flags, "chaos-seed")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| format!("invalid --chaos-seed {v:?}"))
                })
                .transpose()?
                .unwrap_or(0),
            max_worker_restarts: take_flag(&mut flags, "max-worker-restarts")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| format!("invalid --max-worker-restarts {v:?}"))
                })
                .transpose()?
                .unwrap_or(3),
            telemetry_out: take_flag(&mut flags, "telemetry-out"),
            telemetry_every: take_flag(&mut flags, "telemetry-every")
                .map(|v| {
                    v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        format!("invalid --telemetry-every {v:?} (expected an integer >= 1)")
                    })
                })
                .transpose()?
                .unwrap_or(1000),
            crash_report: match take_flag(&mut flags, "crash-report-dir") {
                None => CrashReportMode::Auto,
                Some(v) if v == "none" => CrashReportMode::Off,
                Some(dir) => CrashReportMode::Dir(dir),
            },
        },
        "report" => Command::Report {
            path: first_positional(&positional, "telemetry JSONL path")?,
        },
        "track" => Command::Track {
            path: first_positional(&positional, "trace path")?,
            policy: parse_policy(
                &take_flag(&mut flags, "policy").unwrap_or_else(|| "prop_sparse".into()),
            )?,
            top: take_flag(&mut flags, "top")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| format!("invalid --top {v:?}"))
                })
                .transpose()?
                .unwrap_or(10),
        },
        "origins" => Command::Origins {
            path: first_positional(&positional, "trace path")?,
            vertex: take_flag(&mut flags, "vertex").ok_or("origins: missing --vertex NAME")?,
            policy: parse_policy(
                &take_flag(&mut flags, "policy").unwrap_or_else(|| "prop_sparse".into()),
            )?,
            at: take_flag(&mut flags, "at")
                .map(|v| v.parse::<f64>().map_err(|_| format!("invalid --at {v:?}")))
                .transpose()?,
        },
        "snapshot" => Command::Snapshot {
            path: first_positional(&positional, "trace path")?,
            policy: parse_policy(
                &take_flag(&mut flags, "policy").unwrap_or_else(|| "prop_sparse".into()),
            )?,
            out: take_flag(&mut flags, "out").ok_or("snapshot: missing --out FILE.tsv")?,
        },
        "alerts" => Command::Alerts {
            path: first_positional(&positional, "trace path")?,
            threshold: take_flag(&mut flags, "threshold")
                .map(|v| {
                    v.parse::<f64>()
                        .map_err(|_| format!("invalid --threshold {v:?}"))
                })
                .transpose()?
                .unwrap_or(0.0),
        },
        "influence" => Command::Influence {
            path: first_positional(&positional, "trace path")?,
            top: take_flag(&mut flags, "top")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| format!("invalid --top {v:?}"))
                })
                .transpose()?
                .unwrap_or(10),
        },
        "similar" => Command::Similar {
            path: first_positional(&positional, "trace path")?,
            policy: parse_policy(
                &take_flag(&mut flags, "policy").unwrap_or_else(|| "prop_sparse".into()),
            )?,
            threshold: take_flag(&mut flags, "threshold")
                .map(|v| {
                    v.parse::<f64>()
                        .map_err(|_| format!("invalid --threshold {v:?}"))
                })
                .transpose()?
                .unwrap_or(0.9),
            top: take_flag(&mut flags, "top")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| format!("invalid --top {v:?}"))
                })
                .transpose()?
                .unwrap_or(10),
        },
        "generate" => Command::Generate {
            kind: parse_dataset(&first_positional(&positional, "dataset name")?)?,
            scale: parse_scale(&take_flag(&mut flags, "scale").unwrap_or_else(|| "tiny".into()))?,
            out: take_flag(&mut flags, "out").ok_or("generate: missing --out FILE.csv")?,
        },
        other => return Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    if let Some((name, _)) = flags.first() {
        return Err(format!("{command}: unknown flag --{name}"));
    }
    Ok(parsed)
}

/// Errors a CLI run can produce: either bad usage or a library error.
#[derive(Debug)]
pub enum CliError {
    /// Argument / usage error.
    Usage(String),
    /// Error raised by the underlying library (I/O, parse, config).
    Tin(TinError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Tin(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<TinError> for CliError {
    fn from(err: TinError) -> Self {
        CliError::Tin(err)
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

/// Start a `run`'s engine: fresh from `new`, or, with `--resume`, from the
/// newest checkpoint retained under `resume_dir` that decodes and that
/// `resume_from` accepts. A file the engine refuses as corrupt is skipped
/// like one that fails to decode (see [`CheckpointStore::resume_latest`]);
/// an empty directory starts fresh. A checkpoint taken under another
/// policy, over another vertex count, or ahead of the trace is a usage
/// error: it points to the wrong directory or trace, not to a damaged file.
/// Returns the engine and the number of interactions its state covers.
fn start_engine<E>(
    resume_dir: Option<&str>,
    config: &PolicyConfig,
    named: &NamedTin,
    resume_from: impl Fn(&Checkpoint) -> tin_core::error::Result<E>,
    new: impl FnOnce() -> tin_core::error::Result<E>,
) -> Result<(E, usize), CliError> {
    let Some(dir) = resume_dir else {
        return Ok((new()?, 0));
    };
    let found = CheckpointStore::open(dir)?.resume_latest(|checkpoint| {
        // The engine's refusal is an `Err` here, for the search to skip; a
        // mismatch is an accepted outcome that ends the search.
        Ok(match resume_mismatch(&checkpoint, config, named) {
            Some(message) => Err(CliError::Usage(message)),
            None => Ok((resume_from(&checkpoint)?, checkpoint.cursor.processed)),
        })
    })?;
    match found {
        Some((_, started)) => started,
        None => Ok((new()?, 0)),
    }
}

/// Why `checkpoint` cannot resume a run of `config` over `named`, if it
/// cannot.
fn resume_mismatch(
    checkpoint: &Checkpoint,
    config: &PolicyConfig,
    named: &NamedTin,
) -> Option<String> {
    if checkpoint.policy != *config {
        Some(format!(
            "run: checkpoint was taken under policy {:?} but --policy asks for {:?}",
            checkpoint.policy.key(),
            config.key()
        ))
    } else if checkpoint.num_vertices != named.num_vertices() {
        Some(format!(
            "run: checkpoint covers {} vertices but the trace has {}",
            checkpoint.num_vertices,
            named.num_vertices()
        ))
    } else if checkpoint.cursor.processed > named.interactions.len() {
        Some(format!(
            "run: checkpoint is ahead of the trace ({} > {} interactions)",
            checkpoint.cursor.processed,
            named.interactions.len()
        ))
    } else {
        None
    }
}

fn load(path: &str) -> Result<NamedTin, CliError> {
    Ok(read_named_edge_list_file(path)?)
}

fn run_policy(
    named: &NamedTin,
    policy: SelectionPolicy,
) -> Result<Box<dyn ProvenanceTracker>, CliError> {
    let mut tracker = build_tracker(&PolicyConfig::Plain(policy), named.num_vertices())?;
    tracker.process_all(&named.interactions);
    Ok(tracker)
}

fn describe_origin(named: &NamedTin, origin: tin_core::ids::Origin) -> String {
    match origin.as_vertex() {
        Some(v) => named.interner.name_of(v).unwrap_or("?").to_string(),
        None => origin.to_string(),
    }
}

/// Dump the black-box crash report for a dying sharded run. Best effort by
/// design: the caller keeps reporting the *original* failure, so a
/// forensics I/O problem only earns a stderr note.
#[allow(clippy::too_many_arguments)]
fn write_crash_report(
    dir: &std::path::Path,
    err: &CliError,
    obs: Option<tin_obs::Obs>,
    processed: u64,
    policy: &str,
    shards: usize,
    chaos_plan: Option<&str>,
    chaos_seed: Option<u64>,
    checkpoint_dir: Option<&str>,
) {
    let last_checkpoint = checkpoint_dir.and_then(|d| {
        let store = CheckpointStore::open(d).ok()?;
        let (path, _) = store.load_latest_valid().ok().flatten()?;
        let file = path.file_name()?.to_string_lossy().into_owned();
        let bytes = std::fs::metadata(&path).ok()?.len();
        Some(tin_obs::CheckpointMeta { file, bytes })
    });
    let report = tin_obs::CrashReport {
        failure_reason: err.to_string(),
        processed_interactions: processed,
        policy: policy.to_string(),
        shards: shards as u64,
        chaos_plan: chaos_plan.map(String::from),
        chaos_seed,
        last_checkpoint,
        metrics: obs.as_ref().map(tin_obs::Obs::snapshot),
        trace_json: obs.as_ref().map(|o| o.trace.to_chrome_trace()),
    };
    match report.write_to(dir) {
        Ok(_) => eprintln!("run: crash report written to {}", dir.display()),
        Err(io) => eprintln!(
            "run: failed to write crash report to {}: {io}",
            dir.display()
        ),
    }
}

/// Aggregate and render a telemetry JSONL stream (`run --telemetry-out`):
/// counter totals, latency quantiles per histogram, the load-imbalance
/// trajectory, and the hottest-vertex tables from the last record. Counters
/// and histogram count/sum are re-accumulated from the deltas; gauges,
/// quantiles and the sketches are levels, so the last record wins.
fn render_telemetry_report(path: &str) -> Result<String, CliError> {
    use std::collections::BTreeMap;
    use tin_obs::json::Value;

    fn num(v: Option<&Value>) -> u64 {
        v.and_then(Value::as_u64).unwrap_or(0)
    }

    let text = std::fs::read_to_string(path).map_err(TinError::from)?;
    let bad = |line: usize, what: &str| CliError::Usage(format!("report: {path}:{line}: {what}"));

    #[derive(Default)]
    struct Hist {
        unit: String,
        count: u64,
        sum: u64,
        max: u64,
        p50: u64,
        p90: u64,
        p99: u64,
    }
    let mut counters: BTreeMap<String, (String, u64)> = BTreeMap::new();
    let mut gauges: BTreeMap<String, (String, u64)> = BTreeMap::new();
    let mut hists: BTreeMap<String, Hist> = BTreeMap::new();
    let mut imbalance: Vec<(u64, u64, String, u64)> = Vec::new();
    let mut last: Option<Value> = None;
    let mut records = 0u64;
    // A crash mid-write leaves a final record without its newline; only
    // that line may fail to parse.
    let cut_line = (!text.ends_with('\n')).then(|| text.lines().count());
    let mut truncated = None;

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = match Value::parse(line) {
            Ok(v) => v,
            Err(_) if cut_line == Some(lineno) => {
                truncated = Some(lineno);
                continue;
            }
            Err(e) => return Err(bad(lineno, &e)),
        };
        let full = match v.get("kind").and_then(Value::as_str) {
            Some("full") => true,
            Some("delta") => false,
            other => return Err(bad(lineno, &format!("unknown record kind {other:?}"))),
        };
        if let Some(members) = v.get("counters").and_then(Value::as_obj) {
            for (name, m) in members {
                let entry = counters.entry(name.clone()).or_default();
                if full {
                    if let Some(unit) = m.get("unit").and_then(Value::as_str) {
                        entry.0 = unit.to_string();
                    }
                    entry.1 = num(m.get("value"));
                } else {
                    entry.1 += num(Some(m));
                }
            }
        }
        if let Some(members) = v.get("gauges").and_then(Value::as_obj) {
            for (name, m) in members {
                let entry = gauges.entry(name.clone()).or_default();
                if full {
                    if let Some(unit) = m.get("unit").and_then(Value::as_str) {
                        entry.0 = unit.to_string();
                    }
                    entry.1 = num(m.get("last"));
                } else {
                    entry.1 = num(Some(m));
                }
                if name == "batch_imbalance_ratio" {
                    imbalance.push((
                        num(v.get("at")),
                        num(v.get("seq")),
                        v.get("source")
                            .and_then(Value::as_str)
                            .unwrap_or("?")
                            .to_string(),
                        entry.1,
                    ));
                }
            }
        }
        if let Some(members) = v.get("histograms").and_then(Value::as_obj) {
            for (name, m) in members {
                let h = hists.entry(name.clone()).or_default();
                if full {
                    if let Some(unit) = m.get("unit").and_then(Value::as_str) {
                        h.unit = unit.to_string();
                    }
                    h.count = num(m.get("count"));
                    h.sum = num(m.get("sum"));
                } else {
                    h.count += num(m.get("count"));
                    h.sum += num(m.get("sum"));
                }
                h.max = num(m.get("max"));
                h.p50 = num(m.get("p50"));
                h.p90 = num(m.get("p90"));
                h.p99 = num(m.get("p99"));
            }
        }
        records += 1;
        last = Some(v);
    }
    let Some(last) = last else {
        return Err(CliError::Usage(format!(
            "report: {path} has no telemetry records"
        )));
    };

    let mut out = String::new();
    writeln!(out, "telemetry report: {path}").unwrap();
    writeln!(
        out,
        "records         : {records} (last: seq {} at {} interactions, source {})",
        num(last.get("seq")),
        num(last.get("at")),
        last.get("source").and_then(Value::as_str).unwrap_or("?")
    )
    .unwrap();
    if let Some(lineno) = truncated {
        writeln!(
            out,
            "truncated record: line {lineno} has no trailing newline and does not parse; ignored"
        )
        .unwrap();
    }
    if let Some(t) = last.get("trace").filter(|t| !matches!(t, Value::Null)) {
        writeln!(
            out,
            "flight recorder : {} recorded / {} capacity, {} dropped",
            num(t.get("recorded")),
            num(t.get("capacity")),
            num(t.get("dropped"))
        )
        .unwrap();
    }
    if !counters.is_empty() {
        writeln!(out, "counters:").unwrap();
        for (name, (unit, value)) in &counters {
            writeln!(out, "  {name:<36} {value:>14} {unit}").unwrap();
        }
    }
    if !gauges.is_empty() {
        writeln!(out, "gauges (last value):").unwrap();
        for (name, (unit, value)) in &gauges {
            writeln!(out, "  {name:<36} {value:>14} {unit}").unwrap();
        }
    }
    if !hists.is_empty() {
        writeln!(out, "histograms:").unwrap();
        writeln!(
            out,
            "  {:<28} {:>9} {:>14} {:>9} {:>9} {:>9} {:>9} unit",
            "name", "count", "sum", "p50", "p90", "p99", "max"
        )
        .unwrap();
        for (name, h) in &hists {
            writeln!(
                out,
                "  {:<28} {:>9} {:>14} {:>9} {:>9} {:>9} {:>9} {}",
                name, h.count, h.sum, h.p50, h.p90, h.p99, h.max, h.unit
            )
            .unwrap();
        }
    }
    if !imbalance.is_empty() {
        writeln!(
            out,
            "imbalance trajectory (batch_imbalance_ratio, permille of mean):"
        )
        .unwrap();
        for (at, seq, source, value) in &imbalance {
            writeln!(out, "  seq {seq:>4} at {at:>10} [{source}]: {value}").unwrap();
        }
    }
    for (key, title) in [
        ("hot_vertices", "hottest vertices by touch count"),
        ("hot_migrations", "hottest vertices by migrated bytes"),
    ] {
        if let Some(entries) = last.get(key).and_then(Value::as_arr) {
            if entries.is_empty() {
                continue;
            }
            writeln!(out, "{title}:").unwrap();
            for e in entries {
                writeln!(
                    out,
                    "  vertex {:<10} weight {:>12} (error <= {})",
                    num(e.get("key")),
                    num(e.get("weight")),
                    num(e.get("error"))
                )
                .unwrap();
            }
        }
    }
    Ok(out)
}

/// Execute a parsed command, returning the text to print on stdout.
pub fn run(command: &Command) -> Result<String, CliError> {
    let mut out = String::new();
    match command {
        Command::Help => out.push_str(USAGE),

        Command::Stats { path } => {
            let named = load(path)?;
            let tin = named.to_tin()?;
            let stats = tin.stats();
            writeln!(out, "trace          : {path}").unwrap();
            writeln!(out, "#vertices      : {}", stats.num_vertices).unwrap();
            writeln!(out, "#edges         : {}", stats.num_edges).unwrap();
            writeln!(out, "#interactions  : {}", stats.num_interactions).unwrap();
            writeln!(out, "avg quantity   : {:.4}", stats.avg_quantity).unwrap();
            writeln!(out, "total quantity : {:.4}", stats.total_quantity).unwrap();
            writeln!(
                out,
                "time span      : {} .. {}",
                stats.min_time, stats.max_time
            )
            .unwrap();
        }

        Command::Run {
            path,
            policy,
            shards,
            top,
            checkpoint_dir,
            checkpoint_every,
            resume,
            crash_at,
            metrics_out,
            trace_out,
            progress_every,
            footprint_sample_every,
            chaos_plan,
            chaos_seed,
            max_worker_restarts,
            telemetry_out,
            telemetry_every,
            crash_report,
        } => {
            let named = load(path)?;
            let n = named.num_vertices();
            let config = PolicyConfig::Plain(*policy);
            // Chaos: the plan's grammar was validated at parse time;
            // resolving it against the shard count can still fail (worker
            // events on a sequential run, explicit shard out of range).
            let chaos = chaos_plan
                .as_deref()
                .map(ChaosPlan::parse)
                .transpose()
                .map_err(|e| CliError::Usage(format!("run: {e}")))?;
            // Recovery: each engine below starts from the newest retained
            // checkpoint it accepts (see `start_engine`).
            let resume_dir = if *resume {
                Some(checkpoint_dir.as_deref().ok_or_else(|| {
                    CliError::Usage("run: --resume requires --checkpoint-dir DIR".into())
                })?)
            } else {
                None
            };
            // A resumed run replays only the tail; `--crash-at K` truncates
            // the stream at interaction K (counted from the trace start) and
            // exits with an error afterwards, like a process crash would.
            let tail = |skip: usize| {
                let end = crash_at.map_or(named.interactions.len(), |k| {
                    k.clamp(skip, named.interactions.len())
                });
                &named.interactions[skip..end]
            };
            let durable_store =
                |dir: &Option<String>| -> Result<Option<CheckpointStore>, CliError> {
                    Ok(match dir {
                        Some(dir) => {
                            let mut store = CheckpointStore::open(dir)?;
                            // ckpt-fault events fail write *attempts*; the
                            // store's bounded retry loop absorbs transient
                            // windows shorter than its attempt budget.
                            if let Some(plan) = &chaos {
                                plan.arm_checkpoint_store(&mut store);
                            }
                            Some(store)
                        }
                        None => None,
                    })
                };
            // Collect the provenance-determined results into plain data so
            // both engines print through one code path. Runtime and
            // footprint are deliberately absent: the output depends only on
            // the provenance state, which is bit-identical across shard
            // counts, so `run --shards 1` and `run --shards N` diff clean.
            // Rank first and fetch origin sets only for the surviving top-N
            // rows — in sharded mode every origins() is a channel
            // round-trip and the sets can be large. Both branches share
            // this row collection so the printed report cannot diverge
            // between `--shards 1` and `--shards N`.
            fn rank_rows(buffered: Vec<f64>, top: usize) -> Vec<(usize, f64)> {
                let mut ranked: Vec<(usize, f64)> = buffered
                    .into_iter()
                    .enumerate()
                    .filter(|(_, q)| *q > 0.0)
                    .collect();
                ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                ranked.truncate(top);
                ranked
            }
            // Observability: attach a sink only when the user asked for an
            // export, so the default run pays nothing beyond one branch.
            let want_obs = metrics_out.is_some() || trace_out.is_some();
            // Crash forensics: on by default for sharded runs (the report
            // directory is only written on a terminal failure, so a healthy
            // default run leaves nothing behind).
            let crash_dir: Option<std::path::PathBuf> = match crash_report {
                CrashReportMode::Off => None,
                CrashReportMode::Dir(dir) => Some(std::path::PathBuf::from(dir)),
                CrashReportMode::Auto => {
                    (*shards > 1).then(|| std::path::PathBuf::from(format!("{path}.crash")))
                }
            };
            let total_interactions = named.interactions.len();
            // Progress goes to stderr: stdout must stay byte-identical
            // across shard counts (the CI smoke step diffs it).
            let progress = |done: usize| {
                if let Some(every) = progress_every {
                    if done.is_multiple_of(*every) || done == total_interactions {
                        eprintln!("run: {done}/{total_interactions} interactions");
                    }
                }
            };
            let run_started = std::time::Instant::now();
            let (report, rows, obs) = if *shards <= 1 {
                if chaos.as_ref().is_some_and(ChaosPlan::has_worker_events) {
                    return Err(CliError::Usage(
                        "run: worker chaos events need --shards >= 2".into(),
                    ));
                }
                let (mut engine, skip) = start_engine(
                    resume_dir,
                    &config,
                    &named,
                    tin_core::engine::ProvenanceEngine::resume_from,
                    || tin_core::engine::ProvenanceEngine::new(&config, n),
                )?;
                let stream = tail(skip);
                if let Some(every) = footprint_sample_every {
                    engine = engine.with_footprint_sample_interval(*every)?;
                }
                if want_obs {
                    engine = engine.with_observability(tin_obs::Obs::new());
                }
                if let Some(tpath) = telemetry_out {
                    let sink = tin_obs::Telemetry::create(tpath).map_err(TinError::from)?;
                    engine = engine.with_telemetry(sink, *telemetry_every)?;
                }
                if let Some(store) = durable_store(checkpoint_dir)? {
                    engine = engine.with_durable_checkpoints(store, *checkpoint_every)?;
                }
                for (i, r) in stream.iter().enumerate() {
                    engine.process(r)?;
                    progress(skip + i + 1);
                }
                if let Some(k) = crash_at {
                    return Err(CliError::Usage(format!(
                        "run: injected crash at interaction {k} (durable checkpoints retained)"
                    )));
                }
                engine.emit_telemetry("final")?;
                let buffered = (0..n)
                    .map(|i| engine.buffered(tin_core::ids::VertexId::from(i)))
                    .collect();
                let rows: Vec<_> = rank_rows(buffered, *top)
                    .into_iter()
                    .map(|(i, q)| (i, q, engine.origins(tin_core::ids::VertexId::from(i))))
                    .collect();
                let obs = engine.take_obs();
                (engine.report(), rows, obs)
            } else {
                let mut driver = chaos
                    .as_ref()
                    .map(|plan| plan.driver(*shards, *chaos_seed))
                    .transpose()
                    .map_err(|e| CliError::Usage(format!("run: {e}")))?;
                let (mut engine, skip) = start_engine(
                    resume_dir,
                    &config,
                    &named,
                    |checkpoint| tin_shard::ShardedEngine::resume_from(checkpoint, *shards),
                    || tin_shard::ShardedEngine::new(&config, n, *shards),
                )?;
                let stream = tail(skip);
                // Sharded runs self-heal by default: worker deaths trigger
                // respawn + snapshot restore + deterministic replay, so the
                // report below is byte-identical to an undisturbed run.
                if *max_worker_restarts > 0 {
                    engine = engine.with_self_healing(tin_shard::RecoveryPolicy {
                        max_worker_restarts: *max_worker_restarts,
                        ..tin_shard::RecoveryPolicy::default()
                    })?;
                }
                if let Some(every) = footprint_sample_every {
                    engine = engine.with_footprint_sample_interval(*every)?;
                }
                // Forensics needs the flight recorder and the metrics to be
                // live when the run dies, so crash reporting implies
                // observability (it does not change stdout — pinned by the
                // instrumentation-equivalence tests).
                if want_obs || crash_dir.is_some() {
                    engine = engine.with_observability(tin_obs::Obs::new())?;
                }
                if let Some(tpath) = telemetry_out {
                    let sink = tin_obs::Telemetry::create(tpath).map_err(TinError::from)?;
                    engine = engine.with_telemetry(sink, *telemetry_every)?;
                }
                if let Some(store) = durable_store(checkpoint_dir)? {
                    engine = engine.with_durable_checkpoints(store, *checkpoint_every)?;
                }
                let mut processed = skip;
                let streamed = (|| -> Result<(), CliError> {
                    for (i, r) in stream.iter().enumerate() {
                        if let Some(driver) = driver.as_mut() {
                            driver.before_interaction(skip + i, &mut engine)?;
                        }
                        engine.process(r)?;
                        processed = skip + i + 1;
                        progress(processed);
                    }
                    // An injected crash ends the stream like a real one:
                    // no `final` record (the error is raised below).
                    if crash_at.is_none() {
                        engine.emit_telemetry("final")?;
                    }
                    Ok(())
                })();
                if let Err(err) = streamed {
                    // Best effort: the black box must never mask the
                    // failure it is documenting.
                    if let Some(dir) = &crash_dir {
                        write_crash_report(
                            dir,
                            &err,
                            engine.take_obs_unsynced(),
                            processed as u64,
                            policy.key(),
                            *shards,
                            chaos_plan.as_deref(),
                            chaos_plan.as_ref().map(|_| *chaos_seed),
                            checkpoint_dir.as_deref(),
                        );
                    }
                    return Err(err);
                }
                if let Some(k) = crash_at {
                    return Err(CliError::Usage(format!(
                        "run: injected crash at interaction {k} (durable checkpoints retained)"
                    )));
                }
                let buffered = engine.buffered_all()?;
                let ranked = rank_rows(buffered, *top);
                let mut rows = Vec::with_capacity(ranked.len());
                for (i, q) in ranked {
                    rows.push((i, q, engine.origins(tin_core::ids::VertexId::from(i))?));
                }
                let obs = engine.take_obs()?;
                (engine.report()?, rows, obs)
            };
            if let Some(mut obs) = obs {
                // One whole-run span on the coordinator track, so even a
                // sequential trace (no per-batch spans) has a timeline.
                obs.trace.record("run", 0, run_started);
                if let Some(path) = metrics_out {
                    std::fs::write(path, obs.snapshot().to_json()).map_err(TinError::from)?;
                }
                if let Some(path) = trace_out {
                    std::fs::write(path, obs.trace.to_chrome_trace()).map_err(TinError::from)?;
                }
            }
            writeln!(out, "policy          : {}", policy.label()).unwrap();
            writeln!(out, "interactions    : {}", report.interactions).unwrap();
            writeln!(out, "total quantity  : {:.4}", report.total_quantity).unwrap();
            writeln!(out, "newborn quantity: {:.4}", report.newborn_quantity).unwrap();
            writeln!(out, "relayed quantity: {:.4}", report.relayed_quantity).unwrap();
            writeln!(out, "top vertices by buffered quantity:").unwrap();
            for (i, buffered, origins) in &rows {
                let v = tin_core::ids::VertexId::from(*i);
                let name = named.interner.name_of(v).unwrap_or("?");
                let dist = ProvenanceDistribution::from_origins(origins);
                let top_origins: Vec<String> = dist
                    .shares
                    .iter()
                    .take(3)
                    .map(|(o, p)| format!("{} {:.0}%", describe_origin(&named, *o), p * 100.0))
                    .collect();
                writeln!(
                    out,
                    "  {name}: buffered {buffered:.4} from {} origins [{}]",
                    origins.len(),
                    top_origins.join(", ")
                )
                .unwrap();
            }
        }

        Command::Track { path, policy, top } => {
            let named = load(path)?;
            let tracker = run_policy(&named, *policy)?;
            writeln!(out, "policy: {}", policy.label()).unwrap();
            writeln!(
                out,
                "provenance state: {}",
                format_bytes(tracker.footprint().total())
            )
            .unwrap();
            // Rank vertices by buffered quantity.
            let mut ranked: Vec<(usize, f64)> = (0..named.num_vertices())
                .map(|i| (i, tracker.buffered(tin_core::ids::VertexId::from(i))))
                .filter(|(_, q)| *q > 0.0)
                .collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            ranked.truncate(*top);
            for (i, buffered) in ranked {
                let v = tin_core::ids::VertexId::from(i);
                let name = named.interner.name_of(v).unwrap_or("?");
                let origins = tracker.origins(v);
                let dist = ProvenanceDistribution::from_origins(&origins);
                let top_origins: Vec<String> = dist
                    .shares
                    .iter()
                    .take(3)
                    .map(|(o, p)| format!("{} {:.0}%", describe_origin(&named, *o), p * 100.0))
                    .collect();
                writeln!(
                    out,
                    "{name}: buffered {buffered:.4} from {} origins [{}]",
                    origins.len(),
                    top_origins.join(", ")
                )
                .unwrap();
            }
        }

        Command::Origins {
            path,
            vertex,
            policy,
            at,
        } => {
            let named = load(path)?;
            let v = named.interner.get(vertex).ok_or_else(|| {
                CliError::Usage(format!("vertex {vertex:?} does not appear in the trace"))
            })?;
            let origins = match at {
                None => run_policy(&named, *policy)?.origins(v),
                Some(t) => {
                    let mut lazy = LazyReplayProvenance::new(
                        named.num_vertices(),
                        PolicyConfig::Plain(*policy),
                    );
                    lazy.process_all(&named.interactions);
                    lazy.origins_at(v, *t)?
                }
            };
            let when = at.map(|t| format!(" at t={t}")).unwrap_or_default();
            writeln!(
                out,
                "provenance of {vertex}{when} under {} ({} origins, total {:.4}):",
                policy.label(),
                origins.len(),
                origins.total()
            )
            .unwrap();
            for (origin, qty) in origins.iter() {
                writeln!(
                    out,
                    "  {:>12.4}  from {}",
                    qty,
                    describe_origin(&named, origin)
                )
                .unwrap();
            }
        }

        Command::Snapshot {
            path,
            policy,
            out: out_path,
        } => {
            let named = load(path)?;
            let tracker = run_policy(&named, *policy)?;
            let time = named
                .interactions
                .last()
                .map(|r| r.time.value())
                .unwrap_or(0.0);
            let snapshot = ProvenanceSnapshot::capture(tracker.as_ref(), time);
            let file = std::fs::File::create(out_path).map_err(TinError::from)?;
            snapshot.write_tsv(file)?;
            writeln!(
                out,
                "wrote snapshot of {} vertices ({} non-empty) to {out_path}",
                snapshot.num_vertices(),
                snapshot.non_empty_vertices()
            )
            .unwrap();
        }

        Command::Alerts { path, threshold } => {
            let named = load(path)?;
            let tin = named.to_tin()?;
            let threshold = if *threshold > 0.0 {
                *threshold
            } else {
                // Default: 20× the average interaction quantity, like the
                // harness's Figure 9 configuration.
                tin.stats().avg_quantity * 20.0
            };
            let mut tracker = build_tracker(
                &PolicyConfig::Plain(SelectionPolicy::ProportionalSparse),
                named.num_vertices(),
            )?;
            let alerts = AlertEngine::run_stream(
                tracker.as_mut(),
                &named.interactions,
                AlertConfig {
                    quantity_threshold: threshold,
                    require_no_neighbor_origin: true,
                },
            );
            writeln!(
                out,
                "{} alerts over {} interactions (threshold {threshold:.4}):",
                alerts.len(),
                named.interactions.len()
            )
            .unwrap();
            for alert in &alerts {
                let name = named.interner.name_of(alert.vertex).unwrap_or("?");
                writeln!(
                    out,
                    "  t={:<10} {} accumulated {:.4} from {} vertices{}",
                    alert.time,
                    name,
                    alert.buffered,
                    alert.contributing_vertices,
                    if alert.is_few_sources() {
                        "  [few sources]"
                    } else {
                        ""
                    }
                )
                .unwrap();
            }
        }

        Command::Influence { path, top } => {
            let named = load(path)?;
            let mut tracker = DiffusionTracker::new(named.num_vertices());
            tracker.process_all(&named.interactions);
            writeln!(
                out,
                "influence ranking under diffusion (copy) propagation, {} interactions:",
                named.interactions.len()
            )
            .unwrap();
            for (origin, influence) in tracker.influence_ranking(*top) {
                let name = named.interner.name_of(origin).unwrap_or("?");
                writeln!(
                    out,
                    "  {name}: influence {influence:.4}, reach {} vertices, generated {:.4}",
                    tracker.reach_of(origin),
                    tracker.generated_per_vertex()[origin.index()]
                )
                .unwrap();
            }
        }

        Command::Similar {
            path,
            policy,
            threshold,
            top,
        } => {
            let named = load(path)?;
            let tracker = run_policy(&named, *policy)?;
            let pairs = most_similar_pairs(tracker.as_ref(), *threshold, *top);
            let clusters = cluster_by_provenance(tracker.as_ref(), *threshold);
            writeln!(
                out,
                "provenance-similarity mining under {} (cosine >= {threshold}):",
                policy.label()
            )
            .unwrap();
            writeln!(
                out,
                "{} clusters over {} occupied vertices ({} non-singleton)",
                clusters.len(),
                clusters.iter().map(|c| c.len()).sum::<usize>(),
                clusters.iter().filter(|c| c.len() > 1).count()
            )
            .unwrap();
            if pairs.is_empty() {
                writeln!(out, "no vertex pair reaches the similarity threshold").unwrap();
            }
            for pair in &pairs {
                writeln!(
                    out,
                    "  {} ~ {}  similarity {:.4}",
                    named.interner.name_of(pair.a).unwrap_or("?"),
                    named.interner.name_of(pair.b).unwrap_or("?"),
                    pair.similarity
                )
                .unwrap();
            }
        }

        Command::Generate {
            kind,
            scale,
            out: out_path,
        } => {
            let spec = DatasetSpec::new(*kind, *scale);
            let stream = tin_datasets::generate(&spec);
            tin_datasets::io::write_csv_file(out_path, &stream)?;
            writeln!(
                out,
                "wrote {} synthetic {} interactions over {} vertices to {out_path}",
                stream.len(),
                kind.label(),
                spec.num_vertices()
            )
            .unwrap();
        }

        Command::Report { path } => {
            out = render_telemetry_report(path)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tin_cli_{}_{name}", std::process::id()))
    }

    const TRACE: &str = "src,dst,time,qty\nexchange,alice,1,100\nalice,bob,2,60\nbob,carol,3,30\nmallory,carol,4,5\n";

    /// Write [`TRACE`] to a file of the calling test's own: tests run in
    /// parallel, and each deletes its trace when done.
    fn write_trace(test: &str) -> std::path::PathBuf {
        let path = temp_path(&format!("{test}_trace.csv"));
        std::fs::write(&path, TRACE).unwrap();
        path
    }

    #[test]
    fn parses_every_command() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(
            parse_args(&args(&["stats", "a.csv"])).unwrap(),
            Command::Stats {
                path: "a.csv".into()
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "run", "a.csv", "--policy", "fifo", "--shards", "4"
            ]))
            .unwrap(),
            Command::Run {
                path: "a.csv".into(),
                policy: SelectionPolicy::Fifo,
                shards: 4,
                top: 10,
                checkpoint_dir: None,
                checkpoint_every: 1000,
                resume: false,
                crash_at: None,
                metrics_out: None,
                trace_out: None,
                progress_every: None,
                footprint_sample_every: None,
                chaos_plan: None,
                chaos_seed: 0,
                max_worker_restarts: 3,
                telemetry_out: None,
                telemetry_every: 1000,
                crash_report: CrashReportMode::Auto
            }
        );
        assert_eq!(
            parse_args(&args(&["run", "a.csv"])).unwrap(),
            Command::Run {
                path: "a.csv".into(),
                policy: SelectionPolicy::ProportionalSparse,
                shards: 1,
                top: 10,
                checkpoint_dir: None,
                checkpoint_every: 1000,
                resume: false,
                crash_at: None,
                metrics_out: None,
                trace_out: None,
                progress_every: None,
                footprint_sample_every: None,
                chaos_plan: None,
                chaos_seed: 0,
                max_worker_restarts: 3,
                telemetry_out: None,
                telemetry_every: 1000,
                crash_report: CrashReportMode::Auto
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "run",
                "a.csv",
                "--checkpoint-dir",
                "ckpts",
                "--checkpoint-every",
                "50",
                "--resume",
                "--crash-at",
                "7"
            ]))
            .unwrap(),
            Command::Run {
                path: "a.csv".into(),
                policy: SelectionPolicy::ProportionalSparse,
                shards: 1,
                top: 10,
                checkpoint_dir: Some("ckpts".into()),
                checkpoint_every: 50,
                resume: true,
                crash_at: Some(7),
                metrics_out: None,
                trace_out: None,
                progress_every: None,
                footprint_sample_every: None,
                chaos_plan: None,
                chaos_seed: 0,
                max_worker_restarts: 3,
                telemetry_out: None,
                telemetry_every: 1000,
                crash_report: CrashReportMode::Auto
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "run",
                "a.csv",
                "--metrics-out",
                "m.json",
                "--trace-out",
                "t.json",
                "--progress-every",
                "500",
                "--footprint-sample-every",
                "256"
            ]))
            .unwrap(),
            Command::Run {
                path: "a.csv".into(),
                policy: SelectionPolicy::ProportionalSparse,
                shards: 1,
                top: 10,
                checkpoint_dir: None,
                checkpoint_every: 1000,
                resume: false,
                crash_at: None,
                metrics_out: Some("m.json".into()),
                trace_out: Some("t.json".into()),
                progress_every: Some(500),
                footprint_sample_every: Some(256),
                chaos_plan: None,
                chaos_seed: 0,
                max_worker_restarts: 3,
                telemetry_out: None,
                telemetry_every: 1000,
                crash_report: CrashReportMode::Auto
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "run",
                "a.csv",
                "--shards",
                "2",
                "--chaos-plan",
                "kill-worker@450,ckpt-fault@2x2",
                "--chaos-seed",
                "7",
                "--max-worker-restarts",
                "5"
            ]))
            .unwrap(),
            Command::Run {
                path: "a.csv".into(),
                policy: SelectionPolicy::ProportionalSparse,
                shards: 2,
                top: 10,
                checkpoint_dir: None,
                checkpoint_every: 1000,
                resume: false,
                crash_at: None,
                metrics_out: None,
                trace_out: None,
                progress_every: None,
                footprint_sample_every: None,
                chaos_plan: Some("kill-worker@450,ckpt-fault@2x2".into()),
                chaos_seed: 7,
                max_worker_restarts: 5,
                telemetry_out: None,
                telemetry_every: 1000,
                crash_report: CrashReportMode::Auto
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "run",
                "a.csv",
                "--telemetry-out",
                "t.jsonl",
                "--telemetry-every",
                "50",
                "--crash-report-dir",
                "box"
            ]))
            .unwrap(),
            Command::Run {
                path: "a.csv".into(),
                policy: SelectionPolicy::ProportionalSparse,
                shards: 1,
                top: 10,
                checkpoint_dir: None,
                checkpoint_every: 1000,
                resume: false,
                crash_at: None,
                metrics_out: None,
                trace_out: None,
                progress_every: None,
                footprint_sample_every: None,
                chaos_plan: None,
                chaos_seed: 0,
                max_worker_restarts: 3,
                telemetry_out: Some("t.jsonl".into()),
                telemetry_every: 50,
                crash_report: CrashReportMode::Dir("box".into())
            }
        );
        // `--crash-report-dir none` disables forensics explicitly.
        match parse_args(&args(&["run", "a.csv", "--crash-report-dir", "none"])).unwrap() {
            Command::Run { crash_report, .. } => assert_eq!(crash_report, CrashReportMode::Off),
            other => panic!("expected a run command, got {other:?}"),
        }
        assert_eq!(
            parse_args(&args(&["report", "t.jsonl"])).unwrap(),
            Command::Report {
                path: "t.jsonl".into()
            }
        );
        assert_eq!(
            parse_args(&args(&["track", "a.csv", "--policy", "fifo", "--top", "3"])).unwrap(),
            Command::Track {
                path: "a.csv".into(),
                policy: SelectionPolicy::Fifo,
                top: 3
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "origins", "a.csv", "--vertex", "alice", "--at", "5.5"
            ]))
            .unwrap(),
            Command::Origins {
                path: "a.csv".into(),
                vertex: "alice".into(),
                policy: SelectionPolicy::ProportionalSparse,
                at: Some(5.5)
            }
        );
        assert_eq!(
            parse_args(&args(&["snapshot", "a.csv", "--out", "s.tsv"])).unwrap(),
            Command::Snapshot {
                path: "a.csv".into(),
                policy: SelectionPolicy::ProportionalSparse,
                out: "s.tsv".into()
            }
        );
        assert_eq!(
            parse_args(&args(&["alerts", "a.csv", "--threshold", "50"])).unwrap(),
            Command::Alerts {
                path: "a.csv".into(),
                threshold: 50.0
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "generate", "taxis", "--scale", "tiny", "--out", "t.csv"
            ]))
            .unwrap(),
            Command::Generate {
                kind: DatasetKind::Taxis,
                scale: ScaleProfile::Tiny,
                out: "t.csv".into()
            }
        );
        assert_eq!(
            parse_args(&args(&["influence", "a.csv", "--top", "5"])).unwrap(),
            Command::Influence {
                path: "a.csv".into(),
                top: 5
            }
        );
        assert_eq!(
            parse_args(&args(&["similar", "a.csv", "--threshold", "0.8"])).unwrap(),
            Command::Similar {
                path: "a.csv".into(),
                policy: SelectionPolicy::ProportionalSparse,
                threshold: 0.8,
                top: 10
            }
        );
    }

    #[test]
    fn rejects_malformed_invocations() {
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        assert!(parse_args(&args(&["stats"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--shards", "0"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--shards", "many"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--checkpoint-every", "0"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--checkpoint-every", "x"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--crash-at", "soon"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--checkpoint-dir"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--progress-every", "0"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--progress-every", "x"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--footprint-sample-every", "0"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--metrics-out"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--trace-out"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--chaos-plan", "explode@now"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--chaos-plan", "kill-worker@"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--chaos-seed", "entropy"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--max-worker-restarts", "x"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--telemetry-out"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--telemetry-every", "0"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--telemetry-every", "x"])).is_err());
        assert!(parse_args(&args(&["run", "a.csv", "--crash-report-dir"])).is_err());
        assert!(parse_args(&args(&["report"])).is_err());
        assert!(parse_args(&args(&["influence", "a.csv", "--top", "lots"])).is_err());
        assert!(parse_args(&args(&["similar", "a.csv", "--threshold", "high"])).is_err());
        assert!(parse_args(&args(&["track", "a.csv", "--policy", "bogus"])).is_err());
        assert!(parse_args(&args(&["track", "a.csv", "--top", "many"])).is_err());
        assert!(parse_args(&args(&["track", "a.csv", "--policy"])).is_err());
        assert!(parse_args(&args(&["track", "a.csv", "--bogus", "1"])).is_err());
        assert!(parse_args(&args(&["origins", "a.csv"])).is_err());
        assert!(parse_args(&args(&["snapshot", "a.csv"])).is_err());
        assert!(parse_args(&args(&["generate", "nonsense", "--out", "x"])).is_err());
        assert!(parse_args(&args(&[
            "generate", "taxis", "--scale", "huge", "--out", "x"
        ]))
        .is_err());
    }

    #[test]
    fn key_parsers_cover_all_variants() {
        for policy in SelectionPolicy::all() {
            assert_eq!(parse_policy(policy.key()).unwrap(), policy);
        }
        for kind in DatasetKind::all() {
            assert_eq!(parse_dataset(kind.key()).unwrap(), kind);
        }
        for scale in ["tiny", "small", "medium", "paper"] {
            assert!(parse_scale(scale).is_ok());
        }
        assert!(parse_policy("x").is_err());
        assert!(parse_dataset("x").is_err());
        assert!(parse_scale("x").is_err());
    }

    #[test]
    fn stats_and_track_run_on_a_trace() {
        let path = write_trace("stats_and_track");
        let out = run(&Command::Stats {
            path: path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(out.contains("#vertices      : 5"));
        assert!(out.contains("#interactions  : 4"));

        let out = run(&Command::Track {
            path: path.to_string_lossy().into_owned(),
            policy: SelectionPolicy::Fifo,
            top: 10,
        })
        .unwrap();
        assert!(out.contains("policy: FIFO"));
        assert!(out.contains("carol"));
        std::fs::remove_file(path).ok();
    }

    /// The `run` command's whole point: the stdout report is byte-identical
    /// for every shard count (the CI smoke step diffs `--shards 1` against
    /// `--shards 2` on a generated dataset).
    #[test]
    fn run_output_is_identical_across_shard_counts() {
        let path = write_trace("shard_counts");
        let path_str = path.to_string_lossy().into_owned();
        let mut outputs = Vec::new();
        for shards in [1usize, 2, 3] {
            let out = run(&Command::Run {
                path: path_str.clone(),
                policy: SelectionPolicy::ProportionalSparse,
                shards,
                top: 10,
                checkpoint_dir: None,
                checkpoint_every: 1000,
                resume: false,
                crash_at: None,
                metrics_out: None,
                trace_out: None,
                progress_every: None,
                footprint_sample_every: None,
                chaos_plan: None,
                chaos_seed: 0,
                max_worker_restarts: 3,
                telemetry_out: None,
                telemetry_every: 1000,
                crash_report: CrashReportMode::Auto,
            })
            .unwrap();
            assert!(out.contains("interactions    : 4"));
            assert!(out.contains("carol"));
            outputs.push(out);
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
        std::fs::remove_file(path).ok();
    }

    /// `--metrics-out` / `--trace-out` write well-formed exports for both
    /// engines, and instrumentation leaves the stdout report untouched.
    #[test]
    fn run_exports_metrics_and_trace_files() {
        let path = write_trace("metrics_export");
        let path_str = path.to_string_lossy().into_owned();
        let cmd = |shards: usize, metrics: Option<String>, trace: Option<String>| Command::Run {
            path: path_str.clone(),
            policy: SelectionPolicy::ProportionalSparse,
            shards,
            top: 10,
            checkpoint_dir: None,
            checkpoint_every: 1000,
            resume: false,
            crash_at: None,
            progress_every: metrics.as_ref().map(|_| 2),
            footprint_sample_every: metrics.as_ref().map(|_| 1),
            metrics_out: metrics,
            trace_out: trace,
            chaos_plan: None,
            chaos_seed: 0,
            max_worker_restarts: 3,
            telemetry_out: None,
            telemetry_every: 1000,
            crash_report: CrashReportMode::Auto,
        };
        for shards in [1usize, 2] {
            let metrics_path = temp_path(&format!("metrics_{shards}.json"));
            let trace_path = temp_path(&format!("trace_{shards}.json"));
            let baseline = run(&cmd(shards, None, None)).unwrap();
            let instrumented = run(&cmd(
                shards,
                Some(metrics_path.to_string_lossy().into_owned()),
                Some(trace_path.to_string_lossy().into_owned()),
            ))
            .unwrap();
            assert_eq!(instrumented, baseline, "instrumentation changed stdout");
            let metrics = std::fs::read_to_string(&metrics_path).unwrap();
            assert!(metrics.contains("\"schema\": 2"));
            assert!(metrics.contains("\"counters\""));
            assert!(metrics.contains("\"histograms\""));
            if shards == 1 {
                assert!(metrics.contains("\"tracker_latency_ns\""));
            } else {
                assert!(metrics.contains("\"shard_local_interactions_total\""));
            }
            let trace = std::fs::read_to_string(&trace_path).unwrap();
            assert!(trace.contains("\"traceEvents\""));
            assert!(trace.contains("\"dropped_events\""));
            std::fs::remove_file(&metrics_path).ok();
            std::fs::remove_file(&trace_path).ok();
        }
        std::fs::remove_file(path).ok();
    }

    /// `--telemetry-out` streams JSONL while the run is live (first record
    /// `full`, then deltas, ending with a `final` record), the stdout
    /// report stays untouched, and `tin-cli report` renders the stream.
    #[test]
    fn run_streams_telemetry_and_report_renders_it() {
        let path = write_trace("telemetry");
        let path_str = path.to_string_lossy().into_owned();
        let cmd = |shards: usize, telemetry: Option<String>| Command::Run {
            path: path_str.clone(),
            policy: SelectionPolicy::ProportionalSparse,
            shards,
            top: 10,
            checkpoint_dir: None,
            checkpoint_every: 1000,
            resume: false,
            crash_at: None,
            metrics_out: None,
            trace_out: None,
            progress_every: None,
            footprint_sample_every: None,
            chaos_plan: None,
            chaos_seed: 0,
            max_worker_restarts: 3,
            telemetry_out: telemetry,
            telemetry_every: 2,
            crash_report: CrashReportMode::Off,
        };
        for shards in [1usize, 2] {
            let jsonl_path = temp_path(&format!("telemetry_{shards}.jsonl"));
            let baseline = run(&cmd(shards, None)).unwrap();
            let streamed = run(&cmd(
                shards,
                Some(jsonl_path.to_string_lossy().into_owned()),
            ))
            .unwrap();
            assert_eq!(streamed, baseline, "telemetry changed stdout");
            let text = std::fs::read_to_string(&jsonl_path).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert!(
                lines.len() >= 3,
                "expected interval + final records:\n{text}"
            );
            assert!(lines[0].contains("\"kind\": \"full\""));
            assert!(lines[1..].iter().all(|l| l.contains("\"kind\": \"delta\"")));
            let last = lines.last().unwrap();
            assert!(last.contains("\"source\": \"final\""));
            assert!(last.contains("\"at\": 4"));

            let rendered = run(&Command::Report {
                path: jsonl_path.to_string_lossy().into_owned(),
            })
            .unwrap();
            assert!(rendered.contains("records         : "));
            assert!(rendered.contains("histograms:"));
            if shards == 1 {
                assert!(rendered.contains("tracker_latency_ns"));
                assert!(rendered.contains("hottest vertices by touch count"));
            } else {
                assert!(rendered.contains("shard_local_interactions_total"));
            }
            std::fs::remove_file(&jsonl_path).ok();
        }
        // A missing stream surfaces as an I/O error, not a panic.
        assert!(matches!(
            run(&Command::Report {
                path: "/definitely/not/here.jsonl".into()
            }),
            Err(CliError::Tin(TinError::Io(_)))
        ));
        std::fs::remove_file(path).ok();
    }

    /// A stream cut mid-record, as a crash mid-write leaves it, still
    /// renders its complete records and says what it ignored; a malformed
    /// line that ends in a newline stays an error.
    #[test]
    fn report_ignores_a_truncated_final_record() {
        let path = write_trace("telemetry_cut");
        let jsonl_path = temp_path("telemetry_cut.jsonl");
        let jsonl = jsonl_path.to_string_lossy().into_owned();
        let command = parse_args(&args(&[
            "run",
            &path.to_string_lossy(),
            "--policy",
            "prop_sparse",
            "--telemetry-out",
            &jsonl,
            "--telemetry-every",
            "1",
        ]))
        .unwrap();
        run(&command).unwrap();
        let text = std::fs::read_to_string(&jsonl_path).unwrap();
        let report = |bytes: &str| {
            std::fs::write(&jsonl_path, bytes).unwrap();
            run(&Command::Report {
                path: jsonl.clone(),
            })
        };
        let lines = text.lines().count();
        let cut = text.len() - 37;
        let rendered = report(&text[..cut]).unwrap();
        let kept = format!("records         : {} (last: seq {}", lines - 1, lines - 2);
        let note = format!("truncated record: line {lines} has no trailing newline");
        for line in [&kept, &note, "tracker_latency_ns"] {
            assert!(rendered.contains(line), "{rendered}");
        }
        assert!(!report(&text).unwrap().contains("truncated record"));
        let malformed = format!("{}\n{}", &text[..cut], &text[cut..]);
        assert!(matches!(report(&malformed), Err(CliError::Usage(_))));
        std::fs::remove_file(&jsonl_path).ok();
        std::fs::remove_file(path).ok();
    }

    /// An injected `--crash-at` ends the telemetry stream the way a real
    /// crash would, without a `final` record, on both engines; a run that
    /// completes ends with one.
    #[test]
    fn injected_crash_ends_telemetry_without_a_final_record() {
        let path = write_trace("crash_telemetry");
        for shards in [1usize, 2] {
            for crash_at in [Some(3), None] {
                let jsonl_path = temp_path(&format!("crash_telemetry_{shards}.jsonl"));
                let result = run(&Command::Run {
                    path: path.to_string_lossy().into_owned(),
                    policy: SelectionPolicy::Fifo,
                    shards,
                    top: 10,
                    checkpoint_dir: None,
                    checkpoint_every: 1000,
                    resume: false,
                    crash_at,
                    metrics_out: None,
                    trace_out: None,
                    progress_every: None,
                    footprint_sample_every: None,
                    chaos_plan: None,
                    chaos_seed: 0,
                    max_worker_restarts: 3,
                    telemetry_out: Some(jsonl_path.to_string_lossy().into_owned()),
                    telemetry_every: 1,
                    crash_report: CrashReportMode::Off,
                });
                assert_eq!(result.is_err(), crash_at.is_some(), "shards {shards}");
                let text = std::fs::read_to_string(&jsonl_path).unwrap();
                let finals = text.matches("\"source\": \"final\"").count();
                let last = text.lines().last().unwrap();
                if crash_at.is_some() {
                    assert_eq!(finals, 0, "shards {shards}:\n{text}");
                    assert!(last.contains("\"at\": 3"), "shards {shards}:\n{text}");
                } else {
                    assert_eq!(finals, 1, "shards {shards}:\n{text}");
                    assert!(last.contains("\"source\": \"final\""), "{text}");
                }
                std::fs::remove_file(&jsonl_path).ok();
            }
        }
        std::fs::remove_file(path).ok();
    }

    /// A worker kill with the recovery budget disabled is terminal — and
    /// the dying sharded run leaves a parseable black-box crash report
    /// (report.json + final metrics + Perfetto-loadable trace) behind.
    #[test]
    fn fatal_worker_loss_leaves_a_crash_report() {
        use tin_obs::json::Value;
        let path = write_trace("crash_report");
        let path_str = path.to_string_lossy().into_owned();
        let report_dir = temp_path("crash_box");
        let ckpt_dir = temp_path("crash_box_ckpts");
        let _ = std::fs::remove_dir_all(&report_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let cmd = Command::Run {
            path: path_str.clone(),
            policy: SelectionPolicy::ProportionalSparse,
            shards: 2,
            top: 10,
            checkpoint_dir: Some(ckpt_dir.to_string_lossy().into_owned()),
            checkpoint_every: 1,
            resume: false,
            crash_at: None,
            metrics_out: None,
            trace_out: None,
            progress_every: None,
            footprint_sample_every: None,
            chaos_plan: Some("kill-worker@2".into()),
            chaos_seed: 0,
            max_worker_restarts: 0,
            telemetry_out: None,
            telemetry_every: 1000,
            crash_report: CrashReportMode::Dir(report_dir.to_string_lossy().into_owned()),
        };
        assert!(matches!(
            run(&cmd),
            Err(CliError::Tin(TinError::WorkerLost { .. }))
        ));
        let report = std::fs::read_to_string(report_dir.join("report.json")).unwrap();
        let v = Value::parse(&report).unwrap();
        assert!(v
            .get("failure_reason")
            .and_then(Value::as_str)
            .unwrap()
            .contains("worker"));
        assert!(
            v.get("processed_interactions")
                .and_then(Value::as_u64)
                .unwrap()
                >= 2
        );
        assert_eq!(
            v.get("chaos_plan").and_then(Value::as_str),
            Some("kill-worker@2")
        );
        assert_eq!(v.get("chaos_seed").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("shards").and_then(Value::as_u64), Some(2));
        assert_ne!(v.get("last_checkpoint"), Some(&Value::Null));
        let metrics = std::fs::read_to_string(report_dir.join("metrics.json")).unwrap();
        let m = Value::parse(&metrics).unwrap();
        assert_eq!(m.get("schema").and_then(Value::as_u64), Some(2));
        let trace = std::fs::read_to_string(report_dir.join("trace.json")).unwrap();
        let t = Value::parse(&trace).unwrap();
        assert!(t.get("traceEvents").and_then(Value::as_arr).is_some());
        std::fs::remove_dir_all(&report_dir).ok();
        std::fs::remove_dir_all(&ckpt_dir).ok();
        std::fs::remove_file(path).ok();
    }

    /// The CI crash-recovery smoke in miniature: run with durable
    /// checkpoints and an injected crash, then `--resume` and check the
    /// report is byte-identical to an uninterrupted run — sequential and
    /// sharded, including a resumed shard count that differs from the
    /// crashed run's.
    #[test]
    fn crash_then_resume_matches_uninterrupted_run() {
        let path = write_trace("crash_resume");
        let path_str = path.to_string_lossy().into_owned();
        let cmd = |policy: SelectionPolicy,
                   shards: usize,
                   dir: Option<&std::path::Path>,
                   resume: bool,
                   crash_at: Option<usize>| {
            Command::Run {
                path: path_str.clone(),
                policy,
                shards,
                top: 10,
                checkpoint_dir: dir.map(|d| d.to_string_lossy().into_owned()),
                checkpoint_every: 1,
                resume,
                crash_at,
                metrics_out: None,
                trace_out: None,
                progress_every: None,
                footprint_sample_every: None,
                chaos_plan: None,
                chaos_seed: 0,
                max_worker_restarts: 3,
                telemetry_out: None,
                telemetry_every: 1000,
                crash_report: CrashReportMode::Auto,
            }
        };
        let prop = SelectionPolicy::ProportionalSparse;
        let uninterrupted = run(&cmd(prop, 1, None, false, None)).unwrap();

        for (crash_shards, resume_shards) in [(1usize, 1usize), (1, 2), (2, 1), (2, 3)] {
            let dir = temp_path(&format!("ckpt_{crash_shards}_{resume_shards}"));
            let _ = std::fs::remove_dir_all(&dir);
            match run(&cmd(prop, crash_shards, Some(&dir), false, Some(3))) {
                Err(CliError::Usage(msg)) => assert!(msg.contains("injected crash"), "{msg}"),
                other => panic!("expected the injected crash to error, got {other:?}"),
            }
            let resumed = run(&cmd(prop, resume_shards, Some(&dir), true, None)).unwrap();
            assert_eq!(
                resumed, uninterrupted,
                "resume mismatch for shards {crash_shards} -> {resume_shards}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }

        // `--resume` with an empty checkpoint directory starts from scratch.
        let dir = temp_path("ckpt_empty");
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = run(&cmd(prop, 1, Some(&dir), true, None)).unwrap();
        assert_eq!(fresh, uninterrupted);
        std::fs::remove_dir_all(&dir).ok();

        // `--resume` without a checkpoint directory is a usage error.
        assert!(matches!(
            run(&cmd(prop, 1, None, true, None)),
            Err(CliError::Usage(_))
        ));

        // A checkpoint taken under another policy is refused on resume.
        let dir = temp_path("ckpt_policy_mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = run(&cmd(SelectionPolicy::Fifo, 1, Some(&dir), false, Some(3)));
        match run(&cmd(prop, 1, Some(&dir), true, None)) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("policy"), "{msg}"),
            other => panic!("expected a policy-mismatch error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(path).ok();
    }

    /// A newest checkpoint whose CRCs hold but whose dense rows have the
    /// wrong width is refused by the engine: `--resume` falls back to the
    /// previous one on either engine. With every file refused, the error
    /// names the newest file.
    #[test]
    fn resume_falls_back_past_a_checkpoint_the_engine_refuses() {
        let path = temp_path("refused_resume_trace.csv");
        let spec = DatasetSpec::new(DatasetKind::Taxis, ScaleProfile::Tiny);
        tin_datasets::io::write_csv_file(&path, &tin_datasets::generate(&spec)).unwrap();
        let dir = temp_path("refused_resume_ckpts");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = |shards: usize,
                   dir: Option<&std::path::Path>,
                   resume: bool,
                   crash_at: Option<usize>| Command::Run {
            path: path.to_string_lossy().into_owned(),
            policy: SelectionPolicy::ProportionalDense,
            shards,
            top: 10,
            checkpoint_dir: dir.map(|d| d.to_string_lossy().into_owned()),
            // Only the crashed run saves; resumed runs leave the files be.
            checkpoint_every: if resume { 1_000_000 } else { 100 },
            resume,
            crash_at,
            metrics_out: None,
            trace_out: None,
            progress_every: None,
            footprint_sample_every: None,
            chaos_plan: None,
            chaos_seed: 0,
            max_worker_restarts: 3,
            telemetry_out: None,
            telemetry_every: 1000,
            crash_report: CrashReportMode::Off,
        };
        let uninterrupted = run(&cmd(1, None, false, None)).unwrap();
        assert!(matches!(
            run(&cmd(1, Some(&dir), false, Some(450))),
            Err(CliError::Usage(_))
        ));
        let files = CheckpointStore::open(&dir).unwrap().list().unwrap();
        assert_eq!(files.len(), 4);
        // Rows of width 1 under intact CRCs, as in the integration test
        // `dense_rows_of_the_wrong_width_are_corrupt`.
        let narrow = |file: &std::path::Path| {
            let mut checkpoint = Checkpoint::read(file).unwrap();
            for (_, payload) in &mut checkpoint.states {
                payload.clear();
                tin_core::codec::put_usize(payload, 1);
                tin_core::codec::put_f64(payload, 2.0);
                tin_core::codec::put_f64(payload, 2.0);
            }
            checkpoint.write_atomic(file).unwrap();
        };
        let newest = files.last().unwrap();
        narrow(newest);
        for shards in [1, 2] {
            let resumed = run(&cmd(shards, Some(&dir), true, None)).unwrap();
            assert_eq!(resumed, uninterrupted, "--shards {shards}");
        }
        files.iter().for_each(|file| narrow(file));
        for shards in [1, 2] {
            match run(&cmd(shards, Some(&dir), true, None)) {
                Err(CliError::Tin(TinError::CorruptCheckpoint { path, .. })) => {
                    assert_eq!(path, newest.display().to_string(), "--shards {shards}")
                }
                other => panic!("expected the newest file's refusal, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(path).ok();
    }

    /// The CI chaos smoke in miniature: a sharded run with an injected
    /// worker kill self-heals and prints stdout byte-identical to both the
    /// undisturbed sharded run and the sequential reference.
    #[test]
    fn chaos_kill_output_matches_undisturbed_run() {
        let path = write_trace("chaos_kill");
        let path_str = path.to_string_lossy().into_owned();
        let cmd =
            |shards: usize, chaos_plan: Option<&str>, max_worker_restarts: usize| Command::Run {
                path: path_str.clone(),
                policy: SelectionPolicy::ProportionalSparse,
                shards,
                top: 10,
                checkpoint_dir: None,
                checkpoint_every: 1000,
                resume: false,
                crash_at: None,
                metrics_out: None,
                trace_out: None,
                progress_every: None,
                footprint_sample_every: None,
                chaos_plan: chaos_plan.map(String::from),
                chaos_seed: 0,
                max_worker_restarts,
                telemetry_out: None,
                telemetry_every: 1000,
                crash_report: CrashReportMode::Off,
            };
        let reference = run(&cmd(1, None, 3)).unwrap();
        for seed_plan in ["kill-worker@2", "kill-worker@1:1", "stall-worker@2:20:0"] {
            let chaotic = run(&cmd(2, Some(seed_plan), 3)).unwrap();
            assert_eq!(chaotic, reference, "plan {seed_plan} changed stdout");
        }
        // With healing disabled, the kill is fatal — the old fail-fast path.
        assert!(matches!(
            run(&cmd(2, Some("kill-worker@2"), 0)),
            Err(CliError::Tin(TinError::WorkerLost { .. }))
        ));
        // Worker events cannot target a sequential run.
        match run(&cmd(1, Some("kill-worker@2"), 3)) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("--shards"), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
        // An explicit victim shard beyond the pool is a usage error too.
        match run(&cmd(2, Some("kill-worker@2:9"), 3)) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("out of range"), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    /// `ckpt-fault` chaos exercises the checkpoint store's bounded retry:
    /// a transient window is absorbed and the run (and its checkpoints)
    /// complete; resuming from them still matches the reference.
    #[test]
    fn chaos_checkpoint_faults_are_absorbed_by_retry() {
        let path = write_trace("chaos_ckpt_faults");
        let path_str = path.to_string_lossy().into_owned();
        let dir = temp_path("chaos_ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = |chaos_plan: Option<&str>, dir: Option<&std::path::Path>| Command::Run {
            path: path_str.clone(),
            policy: SelectionPolicy::ProportionalSparse,
            shards: 2,
            top: 10,
            checkpoint_dir: dir.map(|d| d.to_string_lossy().into_owned()),
            checkpoint_every: 2,
            resume: false,
            crash_at: None,
            metrics_out: None,
            trace_out: None,
            progress_every: None,
            footprint_sample_every: None,
            chaos_plan: chaos_plan.map(String::from),
            chaos_seed: 0,
            max_worker_restarts: 3,
            telemetry_out: None,
            telemetry_every: 1000,
            crash_report: CrashReportMode::Auto,
        };
        let reference = run(&cmd(None, None)).unwrap();
        let faulted = run(&cmd(Some("ckpt-fault@1,kill-worker@3"), Some(&dir))).unwrap();
        assert_eq!(faulted, reference, "chaos changed stdout");
        // The faulted run still left valid durable checkpoints behind.
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load_latest_valid().unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn origins_query_now_and_in_the_past() {
        let path = write_trace("origins");
        let path_str = path.to_string_lossy().into_owned();
        let now = run(&Command::Origins {
            path: path_str.clone(),
            vertex: "carol".into(),
            policy: SelectionPolicy::ProportionalSparse,
            at: None,
        })
        .unwrap();
        assert!(now.contains("provenance of carol"));
        assert!(now.contains("exchange"));
        assert!(now.contains("mallory"));

        // Before mallory's transfer, carol's provenance has a single source.
        let past = run(&Command::Origins {
            path: path_str.clone(),
            vertex: "carol".into(),
            policy: SelectionPolicy::ProportionalSparse,
            at: Some(3.5),
        })
        .unwrap();
        assert!(past.contains("exchange"));
        assert!(!past.contains("mallory"));

        // Unknown vertex is a usage error.
        assert!(run(&Command::Origins {
            path: path_str,
            vertex: "nobody".into(),
            policy: SelectionPolicy::Fifo,
            at: None,
        })
        .is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn snapshot_alerts_and_generate_write_outputs() {
        let path = write_trace("snapshot_alerts");
        let path_str = path.to_string_lossy().into_owned();
        let snap_path = temp_path("snap.tsv");
        let out = run(&Command::Snapshot {
            path: path_str.clone(),
            policy: SelectionPolicy::Lifo,
            out: snap_path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(out.contains("wrote snapshot"));
        let snapshot =
            ProvenanceSnapshot::read_tsv(std::fs::File::open(&snap_path).unwrap()).unwrap();
        assert_eq!(snapshot.num_vertices(), 5);
        std::fs::remove_file(&snap_path).ok();

        let out = run(&Command::Alerts {
            path: path_str,
            threshold: 20.0,
        })
        .unwrap();
        assert!(out.contains("alerts over 4 interactions"));

        let gen_path = temp_path("generated.csv");
        let out = run(&Command::Generate {
            kind: DatasetKind::Taxis,
            scale: ScaleProfile::Tiny,
            out: gen_path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(out.contains("synthetic Taxis interactions"));
        let reloaded = tin_datasets::io::read_csv_file(&gen_path).unwrap();
        assert!(!reloaded.is_empty());
        std::fs::remove_file(&gen_path).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn influence_and_similar_run_on_a_trace() {
        let path = write_trace("influence");
        let path_str = path.to_string_lossy().into_owned();

        // In the trace everything ultimately traces back to "exchange", so it
        // must top the influence ranking and reach every downstream account.
        let out = run(&Command::Influence {
            path: path_str.clone(),
            top: 3,
        })
        .unwrap();
        assert!(out.contains("influence ranking"));
        let exchange_line = out
            .lines()
            .find(|l| l.trim_start().starts_with("exchange"))
            .expect("exchange appears in the ranking");
        assert!(exchange_line.contains("reach 3 vertices"));

        // Similarity mining runs and reports a clustering of the occupied
        // vertices; with a permissive threshold at least one pair shows up.
        let out = run(&Command::Similar {
            path: path_str,
            policy: SelectionPolicy::ProportionalSparse,
            threshold: 0.0,
            top: 10,
        })
        .unwrap();
        assert!(out.contains("provenance-similarity mining"));
        assert!(out.contains("clusters over"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_files_surface_io_errors() {
        let err = run(&Command::Stats {
            path: "/definitely/not/here.csv".into(),
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Tin(TinError::Io(_))));
        assert!(err.to_string().contains("I/O"));
        // Usage errors display their message.
        let err = CliError::from("bad flag".to_string());
        assert_eq!(err.to_string(), "bad flag");
        assert_eq!(run(&Command::Help).unwrap(), USAGE);
    }
}
