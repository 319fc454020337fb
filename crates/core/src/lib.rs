//! # tin-core — quantity provenance in temporal interaction networks
//!
//! A from-scratch Rust implementation of *Provenance in Temporal Interaction
//! Networks* (Kosyfaki & Mamoulis, ICDE 2022). A temporal interaction network
//! (TIN) is a directed graph whose vertices exchange **quantities** (money,
//! bytes, passengers, …) through timestamped interactions. This crate
//! maintains, in a single streaming pass over the interactions, the
//! **provenance** of the quantity buffered at every vertex: which vertices
//! generated it, and (optionally) which route it travelled.
//!
//! ## Quick example
//!
//! ```
//! use tin_core::prelude::*;
//!
//! // The running example of the paper (Figure 3).
//! let interactions = tin_core::interaction::paper_running_example();
//!
//! // Track provenance under the proportional selection policy.
//! let mut tracker = ProportionalDenseTracker::new(3);
//! tracker.process_all(&interactions);
//!
//! // Which vertices contributed to the quantity buffered at v0?
//! let origins = tracker.origins(VertexId::new(0));
//! assert_eq!(origins.len(), 2);
//! assert!((origins.total() - 3.0).abs() < 1e-9);
//! ```
//!
//! ## Module map
//!
//! * [`ids`], [`quantity`], [`interaction`], [`graph`], [`stream`] — the TIN
//!   data model (Section 3 of the paper).
//! * [`buffer`] — heap and queue buffers of provenance triples/pairs.
//! * [`dense_vec`], [`sparse_vec`], [`simd`] — provenance vectors for
//!   proportional selection (fixed dense with SIMD kernels, and sparse
//!   lists with in-place merges and bounded spare capacity).
//! * [`tracker`] — one tracker per selection policy and representation
//!   (Sections 4–6): `NoProv`, least/most-recently-born, FIFO/LIFO,
//!   proportional with dense rows (over all vertices, a selective subset
//!   or groups) or sparse lists, windowed (by interactions or time),
//!   budget-based, and path tracking.
//! * [`origins`] — provenance query results `O(t, B_v)`.
//! * [`policy`] — declarative tracker configuration and the factory
//!   [`tracker::build_tracker`].
//! * [`memory`] — logical memory accounting used by the experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod checkpoint;
pub mod codec;
pub mod dense_vec;
pub mod engine;
pub mod error;
pub mod graph;
pub mod ids;
pub mod interaction;
pub mod memory;
pub mod origins;
pub mod policy;
pub mod quantity;
pub mod simd;
pub mod snapshot;
pub mod sparse_vec;
pub mod stream;
pub mod tracker;

pub use error::{Result, TinError};
pub use graph::{Tin, TinStats};
pub use ids::{GroupId, Origin, Timestamp, VertexId};
pub use interaction::Interaction;
pub use origins::{OriginSet, OriginShare};
pub use policy::{PolicyConfig, SelectionPolicy, ShrinkCriterion};
pub use quantity::Quantity;
pub use tracker::{build_tracker, ProvenanceTracker, ShardVertexState};

/// Convenient glob-import of the most frequently used types.
pub mod prelude {
    pub use crate::buffer::heap_buffer::HeapKind;
    pub use crate::buffer::queue_buffer::Discipline;
    pub use crate::checkpoint::{Checkpoint, CheckpointStore, RetentionPolicy, StreamCursor};
    pub use crate::engine::{EngineReport, ProvenanceEngine};
    pub use crate::graph::{Tin, TinStats};
    pub use crate::ids::{GroupId, Origin, Timestamp, VertexId};
    pub use crate::interaction::Interaction;
    pub use crate::memory::{FootprintBreakdown, MemoryFootprint};
    pub use crate::origins::{OriginSet, OriginShare};
    pub use crate::policy::{PolicyConfig, SelectionPolicy, ShrinkCriterion};
    pub use crate::quantity::Quantity;
    pub use crate::snapshot::ProvenanceSnapshot;
    pub use crate::stream::{InteractionSource, VecSource};
    pub use crate::tracker::backtrace::BacktraceIndex;
    pub use crate::tracker::budget::BudgetTracker;
    pub use crate::tracker::diffusion::DiffusionTracker;
    pub use crate::tracker::generation_time::GenerationTimeTracker;
    pub use crate::tracker::lazy::LazyReplayProvenance;
    pub use crate::tracker::no_prov::NoProvTracker;
    pub use crate::tracker::path::PathTracker;
    pub use crate::tracker::path_generation::GenerationPathTracker;
    pub use crate::tracker::proportional_dense::ProportionalDenseTracker;
    pub use crate::tracker::proportional_sparse::ProportionalSparseTracker;
    pub use crate::tracker::receipt_order::ReceiptOrderTracker;
    pub use crate::tracker::windowed::WindowedTracker;
    pub use crate::tracker::{build_tracker, ProvenanceTracker};
    pub use crate::{Result, TinError};
}
