//! # tin-shard — sharded parallel provenance with deterministic wavefronts
//!
//! The paper maintains provenance "in real-time, as new interactions take
//! place in a streaming fashion"; the sequential
//! [`tin_core::engine::ProvenanceEngine`] caps that at one core. This crate
//! adds a vertex-hash-partitioned parallel execution engine that produces
//! **bit-identical** provenance:
//!
//! * [`wavefront::WavefrontScheduler`] cuts the time-ordered stream into
//!   maximal batches of interactions with pairwise-disjoint `{src, dst}`
//!   sets — such interactions touch disjoint per-vertex state and commute
//!   exactly under every selection policy;
//! * [`engine::ShardedEngine`] fans each wavefront out to `N` worker shards
//!   over `std::thread` + `std::sync::mpsc`, shipping cross-shard transfers
//!   as packed provenance-delta messages (the per-vertex buffers move
//!   wholesale, keeping the SoA key/value layout of
//!   `tin_core::sparse_vec`), and merges per-shard flow and footprint
//!   accounting into one [`tin_core::engine::EngineReport`]. Its run
//!   bookkeeping (stream cursor, flow totals, durable saves, telemetry, run
//!   metrics) is the [`tin_core::engine::RunLedger`] the sequential engine
//!   embeds too;
//! * [`engine::ShardedEngine::with_self_healing`] upgrades worker-death
//!   fail-fast to supervised in-run recovery (pool respawn + snapshot
//!   restore + bounded deterministic replay, budgeted by
//!   [`engine::RecoveryPolicy`]) with results bit-identical to an
//!   undisturbed run.
//!
//! ```
//! use tin_core::interaction::paper_running_example;
//! use tin_core::policy::{PolicyConfig, SelectionPolicy};
//! use tin_shard::ShardedEngine;
//!
//! let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
//! let mut engine = ShardedEngine::new(&config, 3, 2).unwrap();
//! engine.process_all(&paper_running_example()).unwrap();
//! let report = engine.report().unwrap();
//! assert_eq!(report.interactions, 6);
//! assert!((report.total_quantity - 21.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod wavefront;

pub use engine::{shard_of, RecoveryPolicy, RecoveryStats, ShardedEngine};
pub use wavefront::{EpochRule, WavefrontScheduler, DEFAULT_MAX_BATCH};

#[cfg(test)]
mod tests {
    use super::*;
    use tin_core::engine::ProvenanceEngine;
    use tin_core::ids::VertexId;
    use tin_core::interaction::{paper_running_example, Interaction};
    use tin_core::policy::{PolicyConfig, SelectionPolicy};

    pub(crate) fn all_configs(num_vertices: usize) -> Vec<PolicyConfig> {
        let mut configs: Vec<PolicyConfig> = SelectionPolicy::all()
            .into_iter()
            .map(PolicyConfig::Plain)
            .collect();
        configs.push(PolicyConfig::Selective {
            tracked: vec![VertexId::new(1)],
        });
        configs.push(PolicyConfig::Grouped {
            num_groups: 2,
            group_of: (0..num_vertices).map(|v| (v % 2) as u32).collect(),
        });
        configs.push(PolicyConfig::Windowed { window: 3 });
        configs.push(PolicyConfig::TimeWindowed { duration: 2.5 });
        configs.push(PolicyConfig::budget(4));
        configs.push(PolicyConfig::PathTracking { lifo: true });
        configs.push(PolicyConfig::GenerationPaths { most_recent: false });
        configs
    }

    /// A deterministic synthetic stream with enough vertices for real
    /// parallelism and plenty of conflicts, full relays and partial
    /// transfers.
    pub(crate) fn synthetic_stream(num_vertices: u32, len: usize) -> Vec<Interaction> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut out = Vec::with_capacity(len);
        let mut t = 0.0;
        while out.len() < len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let src = (x % u64::from(num_vertices)) as u32;
            let dst = ((x >> 24) % u64::from(num_vertices)) as u32;
            if src == dst {
                continue;
            }
            t += ((x >> 48) % 4) as f64 * 0.5;
            let qty = 0.25 + ((x >> 8) % 64) as f64;
            out.push(Interaction::new(src, dst, t, qty));
        }
        out
    }

    /// Every policy, every shard count: the sharded engine reproduces the
    /// sequential engine bit for bit on a conflict-heavy synthetic stream.
    #[test]
    fn sharded_matches_sequential_exactly() {
        let n = 23usize;
        let stream = synthetic_stream(n as u32, 400);
        for config in all_configs(n) {
            let mut sequential = ProvenanceEngine::new(&config, n).unwrap();
            sequential.process_all(&stream).unwrap();
            let seq_report = sequential.report();
            for shards in [1usize, 2, 4, 7] {
                let mut sharded = ShardedEngine::new(&config, n, shards).unwrap();
                sharded.process_all(&stream).unwrap();
                let report = sharded.report().unwrap();
                assert_eq!(
                    report.total_quantity,
                    seq_report.total_quantity,
                    "total mismatch: {} shards={shards}",
                    config.key()
                );
                assert_eq!(
                    report.newborn_quantity,
                    seq_report.newborn_quantity,
                    "newborn mismatch: {} shards={shards}",
                    config.key()
                );
                for v in 0..n {
                    let v = VertexId::from(v);
                    assert_eq!(
                        sharded.buffered(v).unwrap(),
                        sequential.buffered(v),
                        "buffered mismatch at {v}: {} shards={shards}",
                        config.key()
                    );
                    assert_eq!(
                        sharded.origins(v).unwrap(),
                        sequential.origins(v),
                        "origins mismatch at {v}: {} shards={shards}",
                        config.key()
                    );
                }
            }
        }
    }

    /// Mid-stream queries quiesce correctly and keep matching the
    /// sequential engine afterwards.
    #[test]
    fn interleaved_queries_stay_consistent() {
        let n = 16usize;
        let stream = synthetic_stream(n as u32, 120);
        let config = PolicyConfig::Plain(SelectionPolicy::Fifo);
        let mut sequential = ProvenanceEngine::new(&config, n).unwrap();
        let mut sharded = ShardedEngine::new(&config, n, 3).unwrap();
        for (i, r) in stream.iter().enumerate() {
            sequential.process(r).unwrap();
            sharded.process(r).unwrap();
            if i % 37 == 0 {
                let v = VertexId::new((i % n) as u32);
                assert_eq!(sharded.buffered(v).unwrap(), sequential.buffered(v));
                assert_eq!(sharded.origins(v).unwrap(), sequential.origins(v));
            }
        }
        let report = sharded.report().unwrap();
        assert_eq!(report.interactions, stream.len());
        assert_eq!(
            report.newborn_quantity,
            sequential.report().newborn_quantity
        );
    }

    /// The sharded engine rejects exactly what the sequential engine
    /// rejects, and keeps running afterwards.
    #[test]
    fn validation_matches_sequential() {
        let config = PolicyConfig::Plain(SelectionPolicy::Lifo);
        let mut engine = ShardedEngine::new(&config, 3, 2).unwrap();
        assert!(engine
            .process(&Interaction::new(1u32, 1u32, 1.0, 2.0))
            .is_err());
        assert!(engine
            .process(&Interaction::new(0u32, 1u32, 1.0, 0.0))
            .is_err());
        assert!(engine
            .process(&Interaction::new(0u32, 9u32, 1.0, 2.0))
            .is_err());
        engine
            .process(&Interaction::new(0u32, 1u32, 5.0, 2.0))
            .unwrap();
        assert!(engine
            .process(&Interaction::new(0u32, 1u32, 4.0, 2.0))
            .is_err());
        engine
            .process(&Interaction::new(1u32, 2u32, 5.0, 1.0))
            .unwrap();
        let report = engine.report().unwrap();
        assert_eq!(report.interactions, 2);
        // An invalid config fails synchronously.
        assert!(ShardedEngine::new(&PolicyConfig::Windowed { window: 0 }, 3, 2).is_err());
    }

    /// The running example end-state through the sharded engine (single
    /// shard, trivially; many shards, via the migration protocol).
    #[test]
    fn running_example_end_state() {
        for shards in [1usize, 2, 3] {
            let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
            let mut engine = ShardedEngine::new(&config, 3, shards).unwrap();
            engine.process_all(&paper_running_example()).unwrap();
            assert!((engine.buffered(VertexId::new(0)).unwrap() - 3.0).abs() < 1e-9);
            assert!((engine.buffered(VertexId::new(1)).unwrap() - 2.0).abs() < 1e-9);
            assert!((engine.buffered(VertexId::new(2)).unwrap() - 4.0).abs() < 1e-9);
            let report = engine.report().unwrap();
            assert!((report.newborn_quantity - 9.0).abs() < 1e-9);
            assert!((report.relayed_quantity - 12.0).abs() < 1e-9);
            assert!(report.footprint.total() > 0);
            assert!(report.peak_footprint_bytes >= report.footprint.total());
            assert_eq!(engine.num_shards(), shards);
            assert_eq!(engine.policy_key(), "prop_sparse");
            assert!(format!("{engine:?}").contains("prop_sparse"));
        }
    }

    /// `buffered_all` returns the same values as per-vertex `buffered`
    /// queries, in one message round per shard.
    #[test]
    fn buffered_all_matches_pointwise_queries() {
        let n = 17usize;
        let stream = synthetic_stream(n as u32, 90);
        let config = PolicyConfig::Plain(SelectionPolicy::Fifo);
        let mut engine = ShardedEngine::new(&config, n, 3).unwrap();
        engine.process_all(&stream).unwrap();
        let all = engine.buffered_all().unwrap();
        assert_eq!(all.len(), n);
        for (i, q) in all.iter().enumerate() {
            assert_eq!(
                *q,
                engine.buffered(VertexId::from(i)).unwrap(),
                "vertex {i}"
            );
        }
    }

    /// `shard_of` is total, deterministic and covers all shards on a dense
    /// id range.
    #[test]
    fn shard_assignment_spreads() {
        let shards = 4usize;
        let mut seen = vec![0usize; shards];
        for v in 0..256u32 {
            let s = shard_of(VertexId::new(v), shards);
            assert!(s < shards);
            assert_eq!(s, shard_of(VertexId::new(v), shards), "deterministic");
            seen[s] += 1;
        }
        assert!(seen.iter().all(|&c| c > 16), "no shard starves: {seen:?}");
    }
}
