//! Workspace walking and per-lint applicability.
//!
//! `tin-lint --workspace` walks every `.rs` file under `crates/` and `src/`
//! (skipping build output, vendored stubs, and the lint fixtures, which are
//! deliberately-violating snippets). Each lint binds to the code whose
//! invariant it enforces:
//!
//! | lint                  | applies to                                     |
//! |-----------------------|------------------------------------------------|
//! | `determinism`         | `crates/core/src/`, `crates/shard/src/`        |
//! | `channel-protocol`    | `crates/shard/src/`                            |
//! | `tracker-conformance` | `crates/core/src/tracker/`                     |
//! | `hot-path-alloc`      | kernel modules under `crates/core/src/`        |
//! | `checkpoint-durability` | `crates/core/src/checkpoint.rs`              |
//! | `obs-conformance`     | `crates/core/src/`, `crates/shard/src/`        |
//! | `bounded-retry`       | `crates/shard/src/`, `crates/core/src/checkpoint.rs` |
//! | `metric-naming`       | `crates/core/src/`, `crates/shard/src/`, `crates/obs/src/` |

use crate::diagnostics::Diagnostic;
use std::path::{Path, PathBuf};

/// Kernel modules bound by the hot-path allocation lint.
pub const KERNEL_MODULES: &[&str] = &["sparse_vec.rs", "dense_vec.rs", "simd.rs"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "fixtures", "vendor", ".git"];

/// Lints applicable to the workspace-relative path `rel`.
pub fn applicable_lints(rel: &str) -> Vec<&'static str> {
    let rel = rel.replace('\\', "/");
    let mut lints = Vec::new();
    if rel.starts_with("crates/core/src/") || rel.starts_with("crates/shard/src/") {
        lints.push("determinism");
    }
    if rel.starts_with("crates/shard/src/") {
        lints.push("channel-protocol");
    }
    if rel.starts_with("crates/core/src/tracker/") {
        lints.push("tracker-conformance");
    }
    if rel.starts_with("crates/core/src/")
        && KERNEL_MODULES
            .iter()
            .any(|k| rel.ends_with(&format!("/{k}")))
    {
        lints.push("hot-path-alloc");
    }
    if rel == "crates/core/src/checkpoint.rs" {
        lints.push("checkpoint-durability");
    }
    if rel.starts_with("crates/core/src/") || rel.starts_with("crates/shard/src/") {
        lints.push("obs-conformance");
    }
    if rel.starts_with("crates/shard/src/") || rel == "crates/core/src/checkpoint.rs" {
        lints.push("bounded-retry");
    }
    if rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/shard/src/")
        || rel.starts_with("crates/obs/src/")
    {
        lints.push("metric-naming");
    }
    lints
}

/// Every `.rs` file under `<root>/crates` and `<root>/src`, sorted, as
/// workspace-relative paths.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(PathBuf::from))
        .collect();
    rel.sort();
    Ok(rel)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root`. Diagnostics come back sorted
/// by (file, line, lint) with allow-directives already applied.
pub fn run(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    for rel in workspace_files(root)? {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        // The lint crate's own docs and tests quote directive syntax as
        // examples; no lint binds to it, so skip it rather than teach the
        // directive scanner to distinguish mentions from uses.
        if rel_str.starts_with("crates/lint/") {
            continue;
        }
        let lints = applicable_lints(&rel_str);
        let src = std::fs::read_to_string(root.join(&rel))?;
        // Directive problems are reported even in files no lint binds to, so
        // a typoed or justification-free directive can never rot silently.
        diags.extend(crate::lint_source(&rel_str, &src, &lints));
    }
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    Ok(diags)
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn applicability_table() {
        assert_eq!(
            applicable_lints("crates/shard/src/engine.rs"),
            vec![
                "determinism",
                "channel-protocol",
                "obs-conformance",
                "bounded-retry",
                "metric-naming"
            ]
        );
        assert_eq!(
            applicable_lints("crates/core/src/tracker/proportional_dense.rs"),
            vec![
                "determinism",
                "tracker-conformance",
                "obs-conformance",
                "metric-naming"
            ]
        );
        assert_eq!(
            applicable_lints("crates/core/src/sparse_vec.rs"),
            vec![
                "determinism",
                "hot-path-alloc",
                "obs-conformance",
                "metric-naming"
            ]
        );
        assert_eq!(
            applicable_lints("crates/core/src/checkpoint.rs"),
            vec![
                "determinism",
                "checkpoint-durability",
                "obs-conformance",
                "bounded-retry",
                "metric-naming"
            ]
        );
        assert_eq!(
            applicable_lints("crates/obs/src/metrics.rs"),
            vec!["metric-naming"]
        );
        assert!(applicable_lints("crates/cli/src/lib.rs").is_empty());
        assert!(applicable_lints("crates/lint/src/lib.rs").is_empty());
    }

    /// A renamed or deleted kernel module would silently drop out of the
    /// hot-path-alloc lint, so every entry must name a real file.
    #[test]
    fn every_kernel_module_exists() {
        let core_src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src");
        for module in KERNEL_MODULES {
            assert!(
                core_src.join(module).is_file(),
                "KERNEL_MODULES names {module}, which is not under crates/core/src/"
            );
        }
    }
}
