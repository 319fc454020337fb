//! Provenance snapshots: exporting and diffing the provenance state.
//!
//! The trackers of [`crate::tracker`] answer "what is the provenance of the
//! quantity buffered at `v` *right now*?". Analysts additionally want to
//! export that answer and compare it across time (the per-arrival pie charts
//! of Figure 2 are exactly a sequence of snapshots of one vertex). This
//! module provides:
//!
//! * [`ProvenanceSnapshot`] — every vertex's origin set at one moment, with a
//!   plain-text TSV format (the export behind `tin-cli snapshot`);
//! * [`SnapshotDiff`] — the per-vertex / per-origin change between two
//!   snapshots.
//!
//! A snapshot is a lossy, human-facing export, not a way to capture engine
//! state: the lossless capture is [`crate::checkpoint::Checkpoint`], which
//! engines save periodically and resume from. A past state comes from a
//! checkpoint plus replay, or exactly, at any time, from
//! [`crate::tracker::lazy`] and [`crate::tracker::backtrace`].

use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use serde::{Deserialize, Serialize};

use crate::error::{Result, TinError};
use crate::ids::{GroupId, Origin, VertexId};
use crate::origins::OriginSet;
use crate::quantity::{qty_is_zero, Quantity};
use crate::tracker::ProvenanceTracker;

/// The origin set of every vertex at one moment in time: a lossy export of
/// the provenance state (see the module docs).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceSnapshot {
    /// Timestamp of the last interaction folded into this snapshot.
    pub time: f64,
    /// Number of interactions processed when the snapshot was taken.
    pub interactions_processed: usize,
    /// Per-vertex origin sets (indexed by vertex id).
    pub origins: Vec<OriginSet>,
}

impl ProvenanceSnapshot {
    /// Capture the current state of a tracker. `time` is the timestamp of the
    /// last processed interaction (callers typically thread it through from
    /// the stream; it is metadata only).
    pub fn capture(tracker: &dyn ProvenanceTracker, time: f64) -> Self {
        let origins = (0..tracker.num_vertices())
            .map(|i| tracker.origins(VertexId::from(i)))
            .collect();
        ProvenanceSnapshot {
            time,
            interactions_processed: tracker.interactions_processed(),
            origins,
        }
    }

    /// Number of vertices covered by the snapshot.
    pub fn num_vertices(&self) -> usize {
        self.origins.len()
    }

    /// The origin set of a vertex (empty if the id is out of range).
    pub fn origins(&self, v: VertexId) -> OriginSet {
        self.origins.get(v.index()).cloned().unwrap_or_default()
    }

    /// The buffered quantity `|B_v|` recorded for a vertex.
    pub fn buffered(&self, v: VertexId) -> Quantity {
        self.origins
            .get(v.index())
            .map(|o| o.total())
            .unwrap_or(0.0)
    }

    /// Total quantity buffered anywhere in the network at snapshot time.
    pub fn total_buffered(&self) -> Quantity {
        self.origins.iter().map(|o| o.total()).sum()
    }

    /// Vertices with a non-empty buffer.
    pub fn non_empty_vertices(&self) -> usize {
        self.origins.iter().filter(|o| !o.is_empty()).count()
    }

    /// Compute the change from `earlier` to `self`.
    pub fn diff_from(&self, earlier: &ProvenanceSnapshot) -> SnapshotDiff {
        let n = self.num_vertices().max(earlier.num_vertices());
        let mut per_vertex = Vec::with_capacity(n);
        for i in 0..n {
            let v = VertexId::from(i);
            let delta = self.buffered(v) - earlier.buffered(v);
            per_vertex.push(delta);
        }
        SnapshotDiff {
            interactions: self
                .interactions_processed
                .saturating_sub(earlier.interactions_processed),
            per_vertex_delta: per_vertex,
        }
    }

    /// Write the snapshot as tab-separated text: a header line followed by one
    /// `vertex \t origin \t quantity` line per share. Empty buffers produce no
    /// lines. The format round-trips through [`ProvenanceSnapshot::read_tsv`].
    pub fn write_tsv<W: Write>(&self, writer: W) -> Result<()> {
        let mut w = BufWriter::new(writer);
        writeln!(
            w,
            "# snapshot\ttime={}\tinteractions={}\tvertices={}",
            self.time,
            self.interactions_processed,
            self.num_vertices()
        )?;
        for (i, set) in self.origins.iter().enumerate() {
            for (origin, qty) in set.iter() {
                writeln!(w, "{}\t{}\t{}", i, format_origin_key(origin), qty)?;
            }
        }
        w.flush()?;
        Ok(())
    }

    /// Read a snapshot written by [`ProvenanceSnapshot::write_tsv`].
    pub fn read_tsv<R: Read>(reader: R) -> Result<Self> {
        let buf = BufReader::new(reader);
        let mut time = 0.0;
        let mut interactions_processed = 0;
        let mut num_vertices = 0usize;
        let mut pairs: Vec<(usize, Origin, Quantity)> = Vec::new();
        for (lineno, line) in buf.lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if trimmed.starts_with('#') {
                for field in trimmed.trim_start_matches('#').split('\t') {
                    if let Some(v) = field.trim().strip_prefix("time=") {
                        time = v.parse().map_err(|_| parse_err(lineno, "time"))?;
                    } else if let Some(v) = field.trim().strip_prefix("interactions=") {
                        interactions_processed =
                            v.parse().map_err(|_| parse_err(lineno, "interactions"))?;
                    } else if let Some(v) = field.trim().strip_prefix("vertices=") {
                        num_vertices = v.parse().map_err(|_| parse_err(lineno, "vertices"))?;
                    }
                }
                continue;
            }
            let fields: Vec<&str> = trimmed.split('\t').collect();
            if fields.len() != 3 {
                return Err(TinError::Parse {
                    line: lineno + 1,
                    message: format!("expected 3 tab-separated fields, found {}", fields.len()),
                });
            }
            let vertex: usize = fields[0].parse().map_err(|_| parse_err(lineno, "vertex"))?;
            let origin = parse_origin_key(fields[1]).ok_or_else(|| parse_err(lineno, "origin"))?;
            let qty: f64 = fields[2]
                .parse()
                .map_err(|_| parse_err(lineno, "quantity"))?;
            num_vertices = num_vertices.max(vertex + 1);
            pairs.push((vertex, origin, qty));
        }
        let mut per_vertex: Vec<Vec<(Origin, Quantity)>> = vec![Vec::new(); num_vertices];
        for (vertex, origin, qty) in pairs {
            per_vertex[vertex].push((origin, qty));
        }
        Ok(ProvenanceSnapshot {
            time,
            interactions_processed,
            origins: per_vertex.into_iter().map(OriginSet::from_pairs).collect(),
        })
    }

    /// Approximate equality: same number of vertices and matching origin sets
    /// within the library tolerance.
    pub fn approx_eq(&self, other: &ProvenanceSnapshot) -> bool {
        self.num_vertices() == other.num_vertices()
            && self
                .origins
                .iter()
                .zip(&other.origins)
                .all(|(a, b)| a.approx_eq(b))
    }
}

fn parse_err(lineno: usize, what: &str) -> TinError {
    TinError::Parse {
        line: lineno + 1,
        message: format!("invalid {what}"),
    }
}

/// Stable textual key for an origin, used by the TSV persistence format.
fn format_origin_key(origin: Origin) -> String {
    match origin {
        Origin::Vertex(v) => format!("v:{}", v.raw()),
        Origin::Group(g) => format!("g:{}", g.0),
        Origin::Untracked => "untracked".to_string(),
        Origin::Unknown => "unknown".to_string(),
    }
}

/// Parse an origin key produced by [`format_origin_key`].
fn parse_origin_key(key: &str) -> Option<Origin> {
    if let Some(raw) = key.strip_prefix("v:") {
        return raw
            .parse()
            .ok()
            .map(|r: u32| Origin::Vertex(VertexId::new(r)));
    }
    if let Some(raw) = key.strip_prefix("g:") {
        return raw
            .parse()
            .ok()
            .map(|r: u32| Origin::Group(GroupId::new(r)));
    }
    match key {
        "untracked" => Some(Origin::Untracked),
        "unknown" => Some(Origin::Unknown),
        _ => None,
    }
}

/// The change between two snapshots.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapshotDiff {
    /// Number of interactions processed between the two snapshots.
    pub interactions: usize,
    /// Per-vertex change of the buffered quantity (positive = accumulated).
    pub per_vertex_delta: Vec<Quantity>,
}

impl SnapshotDiff {
    /// Vertices whose buffered quantity increased by more than the tolerance.
    pub fn accumulating_vertices(&self) -> Vec<VertexId> {
        self.per_vertex_delta
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > 0.0 && !qty_is_zero(d))
            .map(|(i, _)| VertexId::from(i))
            .collect()
    }

    /// The vertex with the largest buffered-quantity increase, if any grew.
    pub fn fastest_accumulator(&self) -> Option<(VertexId, Quantity)> {
        self.per_vertex_delta
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > 0.0 && !qty_is_zero(d))
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &d)| (VertexId::from(i), d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::paper_running_example;
    use crate::quantity::qty_approx_eq;
    use crate::tracker::proportional_sparse::ProportionalSparseTracker;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    fn example_snapshot() -> ProvenanceSnapshot {
        let mut tracker = ProportionalSparseTracker::new(3);
        tracker.process_all(&paper_running_example());
        ProvenanceSnapshot::capture(&tracker, 8.0)
    }

    #[test]
    fn capture_reflects_tracker_state() {
        let snapshot = example_snapshot();
        assert_eq!(snapshot.num_vertices(), 3);
        assert_eq!(snapshot.interactions_processed, 6);
        assert_eq!(snapshot.time, 8.0);
        // Table 5, final row: buffered totals 3, 2, 4.
        assert!(qty_approx_eq(snapshot.buffered(v(0)), 3.0));
        assert!(qty_approx_eq(snapshot.buffered(v(1)), 2.0));
        assert!(qty_approx_eq(snapshot.buffered(v(2)), 4.0));
        assert!(qty_approx_eq(snapshot.total_buffered(), 9.0));
        assert_eq!(snapshot.non_empty_vertices(), 3);
        // Out-of-range vertex is empty.
        assert!(snapshot.origins(v(99)).is_empty());
        assert_eq!(snapshot.buffered(v(99)), 0.0);
    }

    #[test]
    fn tsv_roundtrip() {
        let snapshot = example_snapshot();
        let mut buf = Vec::new();
        snapshot.write_tsv(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("# snapshot"));
        let parsed = ProvenanceSnapshot::read_tsv(buf.as_slice()).unwrap();
        assert!(parsed.approx_eq(&snapshot));
        assert_eq!(parsed.time, 8.0);
        assert_eq!(parsed.interactions_processed, 6);
    }

    #[test]
    fn tsv_rejects_malformed_lines() {
        let err = ProvenanceSnapshot::read_tsv("0\tv:1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TinError::Parse { .. }));
        let err = ProvenanceSnapshot::read_tsv("0\tnonsense\t1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TinError::Parse { .. }));
        let err = ProvenanceSnapshot::read_tsv("x\tv:1\t1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TinError::Parse { .. }));
    }

    #[test]
    fn origin_key_roundtrip() {
        for origin in [
            Origin::Vertex(VertexId::new(7)),
            Origin::Group(GroupId::new(2)),
            Origin::Untracked,
            Origin::Unknown,
        ] {
            assert_eq!(parse_origin_key(&format_origin_key(origin)), Some(origin));
        }
        assert_eq!(parse_origin_key("v:notanumber"), None);
        assert_eq!(parse_origin_key("w:1"), None);
    }

    #[test]
    fn diff_between_snapshots() {
        let rs = paper_running_example();
        let mut tracker = ProportionalSparseTracker::new(3);
        tracker.process_all(&rs[..3]);
        let early = ProvenanceSnapshot::capture(&tracker, 4.0);
        tracker.process_all(&rs[3..]);
        let late = ProvenanceSnapshot::capture(&tracker, 8.0);
        let diff = late.diff_from(&early);
        assert_eq!(diff.interactions, 3);
        assert_eq!(diff.per_vertex_delta.len(), 3);
        // Between t=4 and t=8, v2 accumulates from 0 to 4 units.
        assert!(qty_approx_eq(diff.per_vertex_delta[2], 4.0));
        let accumulating = diff.accumulating_vertices();
        assert!(accumulating.contains(&v(0)));
        assert!(accumulating.contains(&v(2)));
        let (fastest, delta) = diff.fastest_accumulator().unwrap();
        assert_eq!(fastest, v(2));
        assert!(qty_approx_eq(delta, 4.0));
        // A no-op diff has no accumulators.
        let none = early.diff_from(&early);
        assert!(none.accumulating_vertices().is_empty());
        assert!(none.fastest_accumulator().is_none());
    }
}
