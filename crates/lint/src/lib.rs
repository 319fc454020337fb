//! `tin-lint` — workspace-aware static analysis for the tin provenance
//! engine.
//!
//! Five invariants that ordinary `clippy` cannot see keep this codebase
//! honest, and this crate enforces them offline with a hand-rolled lexer
//! and token-level matchers (no `syn`, no dependencies):
//!
//! * **`determinism`** — no `HashMap`/`HashSet` iteration that accumulates
//!   floats or emits per-vertex output in `crates/core` and `crates/shard`;
//!   hash iteration order would break the bit-identical
//!   sequential-vs-sharded equivalence the engine guarantees.
//! * **`channel-protocol`** — every `recv()`-family call in `crates/shard`
//!   handles peer disconnect explicitly instead of `.unwrap()`ing; panicking
//!   on a dead channel defeats the fail-fast sentinel protocol.
//! * **`tracker-conformance`** — every `impl ProvenanceTracker` wires the
//!   take/put migration hooks and spike-monitor plumbing through the shared
//!   implementation (`impl_migration_hooks!`/`impl_spike_monitor_hooks!`),
//!   so the factory trackers cannot drift apart again.
//! * **`hot-path-alloc`** — no `Vec::new`/`vec!`/`format!`/`.collect()`/
//!   `Box::new` in the kernel modules (`sparse_vec`, `dense_vec`, `simd`),
//!   whose steady state is allocation-free.
//! * **`checkpoint-durability`** — no `write_all`/`fs::write` without an
//!   `sync_all`/`sync_data` in the same function inside the checkpoint
//!   module: a checkpoint visible under its final name must be on disk,
//!   not in the page cache.
//!
//! Exceptions are explicit and audited: a finding is suppressed only by a
//! justified allow-directive (see [`directives`]), and a malformed
//! directive is itself a finding.
//!
//! Run `cargo run -p tin-lint -- --workspace` (the CI gate) for human
//! diagnostics, `--json` for machine-readable output.

pub mod diagnostics;
pub mod directives;
pub mod lexer;
pub mod lints;
pub mod workspace;

pub use diagnostics::{to_json, Diagnostic};

/// Lint a single source text with the given lints, applying (and checking)
/// its allow-directives. This is the unit the workspace runner and the
/// fixture tests share.
pub fn lint_source(file: &str, src: &str, lint_names: &[&str]) -> Vec<Diagnostic> {
    let (directives, mut diags) = directives::parse(file, src);
    let tokens = lexer::lex(src);
    for lint in lint_names {
        for d in lints::run(lint, file, &tokens) {
            if !directives::suppressed(&directives, d.lint, d.line) {
                diags.push(d);
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_requires_matching_lint() {
        let src = "// tin-lint: allow(hot-path-alloc): wrong lint\nlet m = rx.recv().unwrap();\n";
        let diags = lint_source("f.rs", src, &["channel-protocol"]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint, "channel-protocol");
    }

    #[test]
    fn justified_directive_suppresses() {
        let src =
            "// tin-lint: allow(channel-protocol): startup handshake, peers provably alive\nlet m = rx.recv().unwrap();\n";
        assert!(lint_source("f.rs", src, &["channel-protocol"]).is_empty());
    }

    #[test]
    fn trailing_directive_suppresses_same_line() {
        let src = "let m = rx.recv().unwrap(); // tin-lint: allow(channel-protocol): test rig\n";
        assert!(lint_source("f.rs", src, &["channel-protocol"]).is_empty());
    }
}
