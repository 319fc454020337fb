//! Streaming pipeline: validated ingestion, snapshots, time travel.
//!
//! This example shows the "operational" side of the library, beyond the raw
//! trackers:
//!
//! 1. a raw edge list with string vertex names is loaded and interned,
//! 2. a [`ProvenanceEngine`] ingests the stream with full validation and
//!    flow accounting,
//! 3. provenance snapshots taken at two stream positions are diffed and
//!    exported as TSV,
//! 4. past states are queried exactly with the lazy / backtracing trackers.
//!
//! Run with: `cargo run --example streaming_pipeline`

use tin::core::engine::run_ensemble;
use tin::core::policy::{PolicyConfig, SelectionPolicy};
use tin::datasets::formats::read_named_edge_list;
use tin::prelude::*;

/// A small hand-written trace of money moving between named accounts.
const RAW_TRACE: &str = "\
src,dst,time,qty
exchange,alice,1,100
exchange,bob,2,40
alice,carol,3,30
bob,carol,4,25
carol,dave,5,50
mallory,dave,6,10
dave,eve,7,45
";

fn main() {
    // 1. Load and intern the raw trace.
    let named = read_named_edge_list(RAW_TRACE.as_bytes()).expect("trace parses");
    let n = named.num_vertices();
    println!(
        "Loaded {} interactions over {} named vertices",
        named.interactions.len(),
        n
    );
    for (id, name) in named.interner.iter() {
        println!("  {id} = {name}");
    }
    println!();

    // 2. Stream it through an engine with proportional provenance, taking a
    //    provenance snapshot after the first 2 interactions and at the end.
    let mut engine =
        ProvenanceEngine::new(&PolicyConfig::Plain(SelectionPolicy::ProportionalSparse), n)
            .expect("valid config");
    let (head, tail) = named.interactions.split_at(2);
    engine.process_all(head).expect("stream is well formed");
    let first = ProvenanceSnapshot::capture(engine.tracker(), head[1].time.value());
    let mut source = VecSource::new(tail.to_vec());
    let report = engine.run(&mut source).expect("stream is well formed");
    let last = ProvenanceSnapshot::capture(
        engine.tracker(),
        tail.last().expect("non-empty tail").time.value(),
    );

    println!("Engine report for `{}`:", report.policy);
    println!("  interactions processed : {}", report.interactions);
    println!("  total quantity moved   : {:.1}", report.total_quantity);
    println!(
        "  newborn vs relayed     : {:.1} vs {:.1} ({:.0}% newborn)",
        report.newborn_quantity,
        report.relayed_quantity,
        report.newborn_fraction() * 100.0
    );
    println!(
        "  provenance state       : {}",
        tin::core::memory::format_bytes(report.footprint.total())
    );
    println!();

    // 3. Compare the two snapshots and export the final one.
    let diff = last.diff_from(&first);
    println!(
        "Between t={} and t={} ({} interactions):",
        first.time, last.time, diff.interactions
    );
    if let Some((vertex, delta)) = diff.fastest_accumulator() {
        let name = named.interner.name_of(vertex).unwrap_or("?");
        println!("  fastest accumulator: {name} (+{delta:.1} units)");
    }
    let mut tsv = Vec::new();
    last.write_tsv(&mut tsv).expect("snapshot serialises");
    println!("  final snapshot as TSV ({} bytes):", tsv.len());
    for line in String::from_utf8(tsv).unwrap().lines().take(6) {
        println!("    {line}");
    }
    println!();

    // 4. Exact time travel: what was the provenance of dave's balance just
    //    after interaction 6? The lazy tracker replays the prefix; the
    //    backtracing index prunes the replay to the relevant subgraph.
    let dave = named.interner.get("dave").expect("dave exists");
    let mut lazy = LazyReplayProvenance::proportional(n);
    let mut backtrace = BacktraceIndex::proportional(n);
    for r in &named.interactions {
        lazy.process(r);
        backtrace.process(r);
    }
    let at_t6 = lazy.origins_at(dave, 6.0).expect("valid query");
    let (pruned, stats) = backtrace
        .origins_at_with_stats(
            dave,
            6.0,
            &PolicyConfig::Plain(SelectionPolicy::ProportionalSparse),
        )
        .expect("valid query");
    assert!(
        at_t6.approx_eq(&pruned),
        "lazy and backtraced answers agree"
    );
    println!("Provenance of dave's balance at t=6 (exact, via replay):");
    for (origin, qty) in at_t6.iter() {
        let name = origin
            .as_vertex()
            .and_then(|v| named.interner.name_of(v))
            .unwrap_or("aggregated");
        println!("  {qty:.2} units from {name}");
    }
    println!(
        "  backtracing replayed {} of {} interactions ({} reachable vertices, {:.0}% pruned)",
        stats.replayed_interactions,
        stats.horizon_interactions,
        stats.reachable_vertices,
        stats.pruning_ratio() * 100.0
    );
    println!();

    // 5. The same stream under every plain policy, side by side.
    let configs: Vec<PolicyConfig> = SelectionPolicy::all()
        .into_iter()
        .map(PolicyConfig::Plain)
        .collect();
    let reports = run_ensemble(&configs, n, &named.interactions).expect("all policies run");
    println!("Policy comparison on the same stream:");
    for r in &reports {
        println!(
            "  {:<12} provenance state {:>10}",
            r.policy,
            tin::core::memory::format_bytes(r.footprint.total())
        );
    }
}
