//! Allocation regression test for the `tin-obs` zero-overhead claim.
//!
//! Installs the `tin-memstats` counting allocator for this test binary and
//! asserts that a fully instrumented [`ProvenanceEngine`] — latency
//! histogram observed on every interaction, footprint gauge sampled every
//! 64 interactions, spike counter armed — performs **zero heap allocations**
//! in steady state. Metric handles index into pre-sized vectors, so
//! `inc`/`observe`/`set_gauge` never touch the allocator; this test is the
//! executable form of that contract.
//!
//! The measurement counts only the test thread's allocations
//! (`tin_memstats::thread_allocations`), so libtest's main thread and any
//! other test running alongside cannot pollute the delta.

use tin::prelude::*;
use tin_memstats::CountingAllocator;
use tin_obs::Obs;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

#[test]
fn steady_state_with_metrics_enabled_does_not_allocate() {
    let num_vertices = 16usize;
    let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
    let mut engine = ProvenanceEngine::new(&config, num_vertices)
        .expect("valid config")
        .with_observability(Obs::new())
        .with_footprint_sample_interval(64)
        .expect("interval is positive");

    // Seed phase: every vertex generates quantity that reaches every other
    // vertex, so all provenance lists converge on the full origin set and
    // every list/buffer grows to its final capacity. Allocations here are
    // expected (registry construction, list growth).
    let mut time = 0.0;
    let mut interactions = Vec::new();
    for round in 0..50u32 {
        for v in 0..num_vertices as u32 {
            let dst = (v + 1 + round % (num_vertices as u32 - 1)) % num_vertices as u32;
            if dst == v {
                continue;
            }
            time += 1.0;
            let qty = if round % 3 == 0 { 100.0 } else { 1.5 };
            interactions.push(Interaction::new(v, dst, time, qty));
        }
    }
    engine.process_all(&interactions).expect("valid stream");

    // Steady state reached: replaying the same pattern (shifted in time)
    // with the metrics registry live must not allocate — every histogram
    // observation, gauge sample and counter bump lands in storage sized at
    // registration time.
    let replay: Vec<Interaction> = interactions
        .iter()
        .map(|r| Interaction::new(r.src, r.dst, r.time.value() + time, r.qty))
        .collect();
    assert!(
        tin_memstats::allocator_installed(),
        "counting allocator must be active for this test to mean anything"
    );
    let before = tin_memstats::thread_allocations();
    engine.process_all(&replay).expect("valid stream");
    let allocations = tin_memstats::thread_allocations() - before;
    assert_eq!(
        allocations,
        0,
        "steady-state processing of {} interactions with metrics enabled \
         performed {} heap allocations",
        replay.len(),
        allocations
    );

    // The instrumentation was genuinely live inside the zero-alloc window:
    // one latency observation per interaction and fresh footprint samples.
    let obs = engine.take_obs().expect("observability was attached");
    let snap = obs.snapshot();
    let latency = snap
        .histograms
        .iter()
        .find(|h| h.name == "tracker_latency_ns")
        .expect("engine registers tracker_latency_ns");
    assert_eq!(latency.count as usize, interactions.len() + replay.len());
    let footprint = snap
        .gauges
        .iter()
        .find(|g| g.name == "footprint_bytes")
        .expect("engine registers footprint_bytes");
    assert!(footprint.samples as usize >= (interactions.len() + replay.len()) / 64);
    assert!(footprint.last > 0);
}
