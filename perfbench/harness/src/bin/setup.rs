//! Benchmark set-up for one workload and seed: generate the trace, write it
//! as the CSV file `tin-cli run` reads, and compute the reference report a
//! correct run must print. The whole set-up is repeated `--repeat` times and
//! timed each time; every repetition must reproduce the same files.
//!
//! ```text
//! perfbench-setup --dataset prosper --scale medium --seed 42 \
//!     --interactions 200000 --policy prop_sparse --top 10 --dir WORKDIR --repeat 3
//! ```
//!
//! `--interactions K` keeps the first K interactions of the generated trace
//! (0 keeps all); a prefix of a time-ordered trace is a valid trace.
//!
//! Writes `WORKDIR/trace.csv` and `WORKDIR/reference.txt` and prints one
//! JSON line with the per-repetition set-up seconds and the trace size.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use tin_core::engine::newborn_quantity;
use tin_core::ids::VertexId;
use tin_core::policy::{PolicyConfig, SelectionPolicy};
use tin_core::tracker::build_tracker;
use tin_datasets::formats::{read_named_edge_list_file, NamedTin};
use tin_datasets::io::write_csv_file;
use tin_datasets::{generate, DatasetKind, DatasetSpec, ScaleProfile};
use tin_perfbench::{parse_policy, rank_rows, render_report, Args, JsonObject, Totals};

/// The report from a bare tracker plus the flow accounting the engines do
/// (Algorithm 1): an implementation independent of both engines.
fn reference_report(
    named: &NamedTin,
    policy: SelectionPolicy,
    top: usize,
) -> Result<String, String> {
    let n = named.num_vertices();
    let mut tracker = build_tracker(&PolicyConfig::Plain(policy), n).map_err(|e| e.to_string())?;
    let (mut total, mut newborn) = (0.0, 0.0);
    for r in &named.interactions {
        let generated = newborn_quantity(tracker.buffered(r.src), r.qty);
        total += r.qty;
        newborn += generated;
        tracker.process(r);
    }
    let buffered = (0..n)
        .map(|i| tracker.buffered(VertexId::from(i)))
        .collect();
    let rows: Vec<_> = rank_rows(buffered, top)
        .into_iter()
        .map(|(i, q)| (i, q, tracker.origins(VertexId::from(i))))
        .collect();
    let totals = Totals {
        interactions: named.interactions.len(),
        total_quantity: total,
        newborn_quantity: newborn,
    };
    Ok(render_report(named, policy, &totals, &rows))
}

fn run() -> Result<String, String> {
    let args = Args::from_env()?;
    let key = args.get("dataset")?;
    let kind = DatasetKind::all()
        .into_iter()
        .find(|k| k.key() == key)
        .ok_or_else(|| format!("unknown dataset {key:?}"))?;
    let scale = match args.get("scale")? {
        "tiny" => ScaleProfile::Tiny,
        "small" => ScaleProfile::Small,
        "medium" => ScaleProfile::Medium,
        "paper" => ScaleProfile::Paper,
        other => return Err(format!("unknown scale {other:?}")),
    };
    let spec = DatasetSpec::with_seed(kind, scale, args.num("seed")?);
    let keep: usize = args.num("interactions")?;
    let policy = parse_policy(args.get("policy")?)?;
    let top: usize = args.num("top")?;
    let repeat: usize = args.num("repeat")?;
    let dir = Path::new(args.get("dir")?);
    let trace_path = dir.join("trace.csv");

    let mut seconds = Vec::with_capacity(repeat);
    let mut first: Option<(String, usize)> = None;
    for _ in 0..repeat.max(1) {
        let start = Instant::now();
        let mut stream = generate(&spec);
        if keep > 0 {
            stream.truncate(keep);
        }
        write_csv_file(&trace_path, &stream).map_err(|e| e.to_string())?;
        let named = read_named_edge_list_file(&trace_path).map_err(|e| e.to_string())?;
        let report = reference_report(&named, policy, top)?;
        seconds.push(start.elapsed().as_secs_f64());
        match &first {
            None => first = Some((report, named.interactions.len())),
            Some((earlier, _)) if *earlier != report => {
                return Err("set-up is not deterministic: the reference report changed".into())
            }
            Some(_) => {}
        }
    }
    let (report, interactions) = first.expect("at least one repetition ran");
    std::fs::write(dir.join("reference.txt"), &report).map_err(|e| e.to_string())?;
    let trace_bytes = std::fs::metadata(&trace_path)
        .map_err(|e| e.to_string())?
        .len();
    Ok(JsonObject::default()
        .nums("setup_s", &seconds)
        .num("interactions", interactions as f64)
        .num("trace_bytes", trace_bytes as f64)
        .render())
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench-setup: {message}");
            ExitCode::FAILURE
        }
    }
}
