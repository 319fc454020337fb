//! # tin-datasets — workloads for TIN provenance experiments
//!
//! The paper evaluates its provenance mechanisms on five real temporal
//! interaction networks (Bitcoin, CTU botnet traffic, Prosper Loans, US
//! Flights, NYC Taxis — Table 6). The raw traces are either huge or not
//! redistributable, so this crate provides:
//!
//! * **synthetic generators** ([`generator`]) that emulate each network's
//!   published shape (vertex/interaction counts, degree skew, quantity
//!   distribution) at configurable [`ScaleProfile`]s, and
//! * **CSV I/O** ([`io`]) so the real traces can be dropped in when available.
//!
//! ```
//! use tin_datasets::{DatasetKind, DatasetSpec, ScaleProfile};
//!
//! let spec = DatasetSpec::new(DatasetKind::Taxis, ScaleProfile::Tiny);
//! let tin = tin_datasets::generator::generate_tin(&spec);
//! assert_eq!(tin.num_interactions(), spec.num_interactions());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod formats;
pub mod generator;
pub mod io;
#[cfg(test)]
mod reference_loaders;
mod tokenizer;

pub use config::{DatasetKind, DatasetSpec, ScaleProfile};
pub use formats::{NamedTin, VertexInterner};
pub use generator::{generate, generate_tin};

#[cfg(test)]
mod tests {
    use super::*;
    use tin_core::prelude::*;

    /// End-to-end smoke test: every generated dataset can be processed by
    /// every plain provenance policy without violating the origin invariant.
    #[test]
    fn generated_datasets_run_through_all_policies() {
        for kind in DatasetKind::all() {
            let spec = DatasetSpec::new(kind, ScaleProfile::Tiny);
            let stream = generate(&spec);
            for policy in SelectionPolicy::all() {
                let mut tracker =
                    build_tracker(&PolicyConfig::Plain(policy), spec.num_vertices()).unwrap();
                tracker.process_all(&stream);
                assert_eq!(tracker.interactions_processed(), stream.len());
                assert!(
                    tracker.check_all_invariants(),
                    "{kind} under {policy} violated the origin invariant"
                );
            }
        }
    }
}
