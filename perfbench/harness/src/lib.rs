//! Shared pieces of the `tin-cli run` benchmark harness.
//!
//! `perfbench-setup` generates a trace and the reference report a correct
//! `tin-cli run` must print for it; `perfbench-traced` and
//! `perfbench-traced-sharded` replay the same job through the public
//! functions of each layer crate with a span around every call
//! ([`traced`]). Both render the report through [`render_report`], a
//! byte-for-byte copy of the CLI's `run` output format, so the benchmark can
//! compare the CLI's stdout against an independently computed reference.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use tin_analytics::distribution::ProvenanceDistribution;
use tin_core::ids::{Origin, VertexId};
use tin_core::origins::OriginSet;
use tin_core::policy::SelectionPolicy;
use tin_datasets::formats::NamedTin;

pub mod traced;

/// `--name value` pairs from the command line (no positional arguments).
pub struct Args(BTreeMap<String, String>);

impl Args {
    /// Parse `std::env::args`, skipping the program name.
    pub fn from_env() -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut rest = std::env::args().skip(1);
        while let Some(flag) = rest.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = rest
                .next()
                .ok_or_else(|| format!("flag --{name} expects a value"))?;
            map.insert(name.to_string(), value);
        }
        Ok(Args(map))
    }

    /// The value of a required flag.
    pub fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    /// A required flag parsed as a number.
    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.get(name)?;
        raw.parse().map_err(|_| format!("invalid --{name} {raw:?}"))
    }
}

/// Look a policy up by its CLI key.
pub fn parse_policy(key: &str) -> Result<SelectionPolicy, String> {
    SelectionPolicy::all()
        .into_iter()
        .find(|p| p.key() == key)
        .ok_or_else(|| format!("unknown policy {key:?}"))
}

/// Vertices with a non-empty buffer, largest first (ties by id), cut to
/// `top` — the CLI's ranking rule.
pub fn rank_rows(buffered: Vec<f64>, top: usize) -> Vec<(usize, f64)> {
    let mut ranked: Vec<(usize, f64)> = buffered
        .into_iter()
        .enumerate()
        .filter(|(_, q)| *q > 0.0)
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(top);
    ranked
}

/// Flow totals printed at the head of the report.
pub struct Totals {
    /// Interactions processed.
    pub interactions: usize,
    /// Sum of all interaction quantities.
    pub total_quantity: f64,
    /// Quantity generated at sources that could not cover a transfer.
    pub newborn_quantity: f64,
}

fn describe_origin(named: &NamedTin, origin: Origin) -> String {
    match origin.as_vertex() {
        Some(v) => named.interner.name_of(v).unwrap_or("?").to_string(),
        None => origin.to_string(),
    }
}

/// Exactly the bytes `tin-cli run` writes to stdout for this result,
/// including the newline `println!` appends.
pub fn render_report(
    named: &NamedTin,
    policy: SelectionPolicy,
    totals: &Totals,
    rows: &[(usize, f64, OriginSet)],
) -> String {
    let mut out = String::new();
    let relayed = totals.total_quantity - totals.newborn_quantity;
    writeln!(out, "policy          : {}", policy.label()).unwrap();
    writeln!(out, "interactions    : {}", totals.interactions).unwrap();
    writeln!(out, "total quantity  : {:.4}", totals.total_quantity).unwrap();
    writeln!(out, "newborn quantity: {:.4}", totals.newborn_quantity).unwrap();
    writeln!(out, "relayed quantity: {relayed:.4}").unwrap();
    writeln!(out, "top vertices by buffered quantity:").unwrap();
    for (i, buffered, origins) in rows {
        let name = named.interner.name_of(VertexId::from(*i)).unwrap_or("?");
        let dist = ProvenanceDistribution::from_origins(origins);
        let top_origins: Vec<String> = dist
            .shares
            .iter()
            .take(3)
            .map(|(o, p)| format!("{} {:.0}%", describe_origin(named, *o), p * 100.0))
            .collect();
        writeln!(
            out,
            "  {name}: buffered {buffered:.4} from {} origins [{}]",
            origins.len(),
            top_origins.join(", ")
        )
        .unwrap();
    }
    out.push('\n');
    out
}

/// Named spans: total seconds per name, in first-use order.
#[derive(Default)]
pub struct Spans(Vec<(&'static str, f64)>);

impl Spans {
    /// Run `f` inside the span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        let secs = start.elapsed().as_secs_f64();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 += secs,
            None => self.0.push((name, secs)),
        }
        value
    }

    /// Total seconds recorded under `name` (0 if never entered).
    pub fn secs(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Every span as `(name, seconds)`.
    pub fn entries(&self) -> &[(&'static str, f64)] {
        &self.0
    }
}

/// A flat JSON object of numbers, number lists and booleans, built key by key.
#[derive(Default)]
pub struct JsonObject(Vec<(String, String)>);

impl JsonObject {
    /// Add a number (non-finite values become `null`).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let text = if value.is_finite() {
            format!("{value}")
        } else {
            "null".into()
        };
        self.0.push((key.into(), text));
        self
    }

    /// Add a boolean.
    pub fn flag(&mut self, key: &str, value: bool) -> &mut Self {
        self.0.push((key.into(), value.to_string()));
        self
    }

    /// Add a list of numbers.
    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
        self.0.push((key.into(), format!("[{}]", items.join(", "))));
        self
    }

    /// Render on one line.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
