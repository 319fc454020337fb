//! Selection policies and tracker configuration.
//!
//! When an interaction transfers less than the buffered quantity at its
//! source (`|B_{r.s}| > r.q`), the *selection policy* decides which buffered
//! quantities are relayed (Section 4). The policy determines the provenance of
//! everything downstream, so each policy comes with its own tracking
//! mechanism; [`PolicyConfig`] is the declarative description that the
//! [`crate::tracker::build_tracker`] factory turns into a concrete tracker.

use serde::{Deserialize, Serialize};

use crate::ids::VertexId;

/// The selection policies defined in Section 4 of the paper, plus the
/// provenance-free baseline of Algorithm 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectionPolicy {
    /// Algorithm 1: propagate quantities without tracking provenance.
    NoProvenance,
    /// Section 4.1: transfer the least recently born quantities first.
    LeastRecentlyBorn,
    /// Section 4.1: transfer the most recently born quantities first.
    MostRecentlyBorn,
    /// Section 4.2: transfer in order of receipt (first in, first out).
    Fifo,
    /// Section 4.2: transfer in reverse order of receipt (last in, first out).
    Lifo,
    /// Section 4.3: transfer proportionally to each origin's contribution,
    /// dense `|V|`-length provenance vectors.
    ProportionalDense,
    /// Section 4.3: proportional transfer with sparse list representations.
    ProportionalSparse,
}

impl SelectionPolicy {
    /// Short, stable identifier used in benchmark output and CSV files.
    pub fn key(&self) -> &'static str {
        match self {
            SelectionPolicy::NoProvenance => "noprov",
            SelectionPolicy::LeastRecentlyBorn => "lrb",
            SelectionPolicy::MostRecentlyBorn => "mrb",
            SelectionPolicy::Fifo => "fifo",
            SelectionPolicy::Lifo => "lifo",
            SelectionPolicy::ProportionalDense => "prop_dense",
            SelectionPolicy::ProportionalSparse => "prop_sparse",
        }
    }

    /// Human-readable name, matching the column headers of Tables 7 and 8.
    pub fn label(&self) -> &'static str {
        match self {
            SelectionPolicy::NoProvenance => "No Provenance",
            SelectionPolicy::LeastRecentlyBorn => "Least Recently Born",
            SelectionPolicy::MostRecentlyBorn => "Most Recently Born",
            SelectionPolicy::Fifo => "FIFO",
            SelectionPolicy::Lifo => "LIFO",
            SelectionPolicy::ProportionalDense => "Proportional (dense)",
            SelectionPolicy::ProportionalSparse => "Proportional (sparse)",
        }
    }

    /// All policies, in the column order of Tables 7 and 8.
    pub fn all() -> [SelectionPolicy; 7] {
        [
            SelectionPolicy::NoProvenance,
            SelectionPolicy::LeastRecentlyBorn,
            SelectionPolicy::MostRecentlyBorn,
            SelectionPolicy::Lifo,
            SelectionPolicy::Fifo,
            SelectionPolicy::ProportionalDense,
            SelectionPolicy::ProportionalSparse,
        ]
    }
}

impl std::fmt::Display for SelectionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which entries a budget-constrained vertex keeps when its provenance list
/// exceeds the budget (Section 5.3.2: "the selection of entries to keep ...
/// can be done using different criteria").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ShrinkCriterion {
    /// Keep the entries with the largest quantities (the paper's running
    /// example and our default).
    #[default]
    KeepLargest,
    /// Keep the entries whose origins appear in a caller-supplied priority
    /// set ("set a priority/importance order to vertices").
    KeepImportant,
}

/// Full tracker configuration: a base policy plus the optional
/// scalability technique of Section 5 applied on top of proportional
/// selection.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PolicyConfig {
    /// One of the plain policies of Section 4 (and Algorithm 1).
    Plain(SelectionPolicy),
    /// Selective proportional provenance (Section 5.1): track only the given
    /// vertices; everything else is attributed to a single "other" slot.
    Selective {
        /// The k vertices of interest.
        tracked: Vec<VertexId>,
    },
    /// Grouped proportional provenance (Section 5.2): track provenance from
    /// groups of vertices. `group_of[v]` maps each vertex to its group index
    /// in `0..num_groups`.
    Grouped {
        /// Number of groups m.
        num_groups: usize,
        /// Mapping from vertex index to group index.
        group_of: Vec<u32>,
    },
    /// Windowed proportional provenance (Section 5.3.1) over sparse lists.
    Windowed {
        /// Window length W in number of interactions.
        window: usize,
    },
    /// Time-based windowed proportional provenance: like [`Self::Windowed`],
    /// but the window is a duration in the timestamp unit of the stream
    /// rather than an interaction count.
    TimeWindowed {
        /// Window duration D in time units.
        duration: f64,
    },
    /// Budget-based proportional provenance (Section 5.3.2) over sparse lists.
    Budgeted {
        /// Maximum number of provenance entries per vertex (budget C).
        capacity: usize,
        /// Fraction f of the budget kept after a shrink (0 < f ≤ 1).
        keep_fraction: f64,
        /// Criterion used to choose which entries survive a shrink.
        criterion: ShrinkCriterion,
        /// Origins considered important under [`ShrinkCriterion::KeepImportant`].
        important: Vec<VertexId>,
    },
    /// Path tracking (how-provenance, Section 6) on top of a receipt-order
    /// policy. `lifo = true` reproduces the paper's Table 10 configuration.
    PathTracking {
        /// Use LIFO (true) or FIFO (false) as the underlying policy.
        lifo: bool,
    },
    /// Path tracking (how-provenance, Section 6) on top of a generation-time
    /// policy (Section 4.1).
    GenerationPaths {
        /// Use most-recently-born (true) or least-recently-born (false) as the
        /// underlying policy.
        most_recent: bool,
    },
}

impl PolicyConfig {
    /// Short, stable identifier used in benchmark output.
    pub fn key(&self) -> String {
        match self {
            PolicyConfig::Plain(p) => p.key().to_string(),
            PolicyConfig::Selective { tracked } => format!("selective_k{}", tracked.len()),
            PolicyConfig::Grouped { num_groups, .. } => format!("grouped_m{num_groups}"),
            PolicyConfig::Windowed { window } => format!("windowed_w{window}"),
            PolicyConfig::TimeWindowed { duration } => format!("timewindowed_d{duration}"),
            PolicyConfig::Budgeted { capacity, .. } => format!("budget_c{capacity}"),
            PolicyConfig::PathTracking { lifo } => {
                format!("paths_{}", if *lifo { "lifo" } else { "fifo" })
            }
            PolicyConfig::GenerationPaths { most_recent } => {
                format!("paths_{}", if *most_recent { "mrb" } else { "lrb" })
            }
        }
    }

    /// Default budget configuration used by the paper's experiments
    /// (keep-largest, f = 0.7 — the paper suggests f between 0.6 and 0.8).
    pub fn budget(capacity: usize) -> Self {
        PolicyConfig::Budgeted {
            capacity,
            keep_fraction: 0.7,
            criterion: ShrinkCriterion::KeepLargest,
            important: Vec::new(),
        }
    }

    /// Append the binary encoding used by checkpoint headers (see
    /// [`crate::checkpoint`]). Exact inverse of [`Self::decode_from`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use crate::codec::{put_bool, put_f64, put_u32, put_u8, put_usize};
        match self {
            PolicyConfig::Plain(p) => {
                put_u8(out, 0);
                let tag = match p {
                    SelectionPolicy::NoProvenance => 0,
                    SelectionPolicy::LeastRecentlyBorn => 1,
                    SelectionPolicy::MostRecentlyBorn => 2,
                    SelectionPolicy::Fifo => 3,
                    SelectionPolicy::Lifo => 4,
                    SelectionPolicy::ProportionalDense => 5,
                    SelectionPolicy::ProportionalSparse => 6,
                };
                put_u8(out, tag);
            }
            PolicyConfig::Selective { tracked } => {
                put_u8(out, 1);
                put_usize(out, tracked.len());
                for v in tracked {
                    put_u32(out, v.raw());
                }
            }
            PolicyConfig::Grouped {
                num_groups,
                group_of,
            } => {
                put_u8(out, 2);
                put_usize(out, *num_groups);
                put_usize(out, group_of.len());
                for g in group_of {
                    put_u32(out, *g);
                }
            }
            PolicyConfig::Windowed { window } => {
                put_u8(out, 3);
                put_usize(out, *window);
            }
            PolicyConfig::TimeWindowed { duration } => {
                put_u8(out, 4);
                put_f64(out, *duration);
            }
            // Tag 5 is retired (a former adaptive-representation policy):
            // never reuse it, so old files holding it decode as corrupt.
            PolicyConfig::Budgeted {
                capacity,
                keep_fraction,
                criterion,
                important,
            } => {
                put_u8(out, 6);
                put_usize(out, *capacity);
                put_f64(out, *keep_fraction);
                put_u8(
                    out,
                    match criterion {
                        ShrinkCriterion::KeepLargest => 0,
                        ShrinkCriterion::KeepImportant => 1,
                    },
                );
                put_usize(out, important.len());
                for v in important {
                    put_u32(out, v.raw());
                }
            }
            PolicyConfig::PathTracking { lifo } => {
                put_u8(out, 7);
                put_bool(out, *lifo);
            }
            PolicyConfig::GenerationPaths { most_recent } => {
                put_u8(out, 8);
                put_bool(out, *most_recent);
            }
        }
    }

    /// Decode a configuration written by [`Self::encode_into`].
    pub fn decode_from(r: &mut crate::codec::ByteReader<'_>) -> crate::error::Result<Self> {
        let tag = r.u8()?;
        Ok(match tag {
            0 => {
                let p = match r.u8()? {
                    0 => SelectionPolicy::NoProvenance,
                    1 => SelectionPolicy::LeastRecentlyBorn,
                    2 => SelectionPolicy::MostRecentlyBorn,
                    3 => SelectionPolicy::Fifo,
                    4 => SelectionPolicy::Lifo,
                    5 => SelectionPolicy::ProportionalDense,
                    6 => SelectionPolicy::ProportionalSparse,
                    other => return Err(r.corrupt(format!("unknown selection policy {other}"))),
                };
                PolicyConfig::Plain(p)
            }
            1 => {
                let len = r.usize()?;
                let mut tracked = Vec::with_capacity(len.min(1 << 20));
                for _ in 0..len {
                    tracked.push(VertexId::new(r.u32()?));
                }
                PolicyConfig::Selective { tracked }
            }
            2 => {
                let num_groups = r.usize()?;
                let len = r.usize()?;
                let mut group_of = Vec::with_capacity(len.min(1 << 20));
                for _ in 0..len {
                    group_of.push(r.u32()?);
                }
                PolicyConfig::Grouped {
                    num_groups,
                    group_of,
                }
            }
            3 => PolicyConfig::Windowed { window: r.usize()? },
            4 => PolicyConfig::TimeWindowed { duration: r.f64()? },
            6 => {
                let capacity = r.usize()?;
                let keep_fraction = r.f64()?;
                let criterion = match r.u8()? {
                    0 => ShrinkCriterion::KeepLargest,
                    1 => ShrinkCriterion::KeepImportant,
                    other => return Err(r.corrupt(format!("unknown shrink criterion {other}"))),
                };
                let len = r.usize()?;
                let mut important = Vec::with_capacity(len.min(1 << 20));
                for _ in 0..len {
                    important.push(VertexId::new(r.u32()?));
                }
                PolicyConfig::Budgeted {
                    capacity,
                    keep_fraction,
                    criterion,
                    important,
                }
            }
            7 => PolicyConfig::PathTracking { lifo: r.bool()? },
            8 => PolicyConfig::GenerationPaths {
                most_recent: r.bool()?,
            },
            other => return Err(r.corrupt(format!("unknown policy config tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_keys_are_unique() {
        let keys: std::collections::HashSet<&str> =
            SelectionPolicy::all().iter().map(|p| p.key()).collect();
        assert_eq!(keys.len(), SelectionPolicy::all().len());
    }

    #[test]
    fn policy_labels_match_paper_headers() {
        assert_eq!(SelectionPolicy::NoProvenance.label(), "No Provenance");
        assert_eq!(
            SelectionPolicy::ProportionalDense.label(),
            "Proportional (dense)"
        );
        assert_eq!(SelectionPolicy::Lifo.to_string(), "LIFO");
    }

    #[test]
    fn config_keys() {
        assert_eq!(
            PolicyConfig::Plain(SelectionPolicy::Fifo).key(),
            "fifo".to_string()
        );
        assert_eq!(
            PolicyConfig::Selective {
                tracked: vec![VertexId::new(1), VertexId::new(2)]
            }
            .key(),
            "selective_k2"
        );
        assert_eq!(
            PolicyConfig::Grouped {
                num_groups: 10,
                group_of: vec![]
            }
            .key(),
            "grouped_m10"
        );
        assert_eq!(
            PolicyConfig::Windowed { window: 100 }.key(),
            "windowed_w100"
        );
        assert_eq!(
            PolicyConfig::TimeWindowed { duration: 3.5 }.key(),
            "timewindowed_d3.5"
        );
        assert_eq!(PolicyConfig::budget(50).key(), "budget_c50");
        assert_eq!(
            PolicyConfig::PathTracking { lifo: true }.key(),
            "paths_lifo"
        );
    }

    #[test]
    fn default_budget_parameters() {
        if let PolicyConfig::Budgeted {
            capacity,
            keep_fraction,
            criterion,
            important,
        } = PolicyConfig::budget(100)
        {
            assert_eq!(capacity, 100);
            assert!((0.6..=0.8).contains(&keep_fraction));
            assert_eq!(criterion, ShrinkCriterion::KeepLargest);
            assert!(important.is_empty());
        } else {
            panic!("budget() must build a Budgeted config");
        }
    }

    #[test]
    fn shrink_criterion_default() {
        assert_eq!(ShrinkCriterion::default(), ShrinkCriterion::KeepLargest);
    }

    #[test]
    fn binary_codec_round_trips_every_variant() {
        let configs = vec![
            PolicyConfig::Plain(SelectionPolicy::NoProvenance),
            PolicyConfig::Plain(SelectionPolicy::LeastRecentlyBorn),
            PolicyConfig::Plain(SelectionPolicy::MostRecentlyBorn),
            PolicyConfig::Plain(SelectionPolicy::Fifo),
            PolicyConfig::Plain(SelectionPolicy::Lifo),
            PolicyConfig::Plain(SelectionPolicy::ProportionalDense),
            PolicyConfig::Plain(SelectionPolicy::ProportionalSparse),
            PolicyConfig::Selective {
                tracked: vec![VertexId::new(0), VertexId::new(3)],
            },
            PolicyConfig::Grouped {
                num_groups: 3,
                group_of: vec![0, 1, 2, 0, 1],
            },
            PolicyConfig::Windowed { window: 5 },
            PolicyConfig::TimeWindowed { duration: 7.5 },
            PolicyConfig::budget(3),
            PolicyConfig::Budgeted {
                capacity: 8,
                keep_fraction: 0.6,
                criterion: ShrinkCriterion::KeepImportant,
                important: vec![VertexId::new(2)],
            },
            PolicyConfig::PathTracking { lifo: true },
            PolicyConfig::PathTracking { lifo: false },
            PolicyConfig::GenerationPaths { most_recent: true },
        ];
        for config in configs {
            let mut buf = Vec::new();
            config.encode_into(&mut buf);
            let mut r = crate::codec::ByteReader::new(&buf, "policy");
            let decoded = PolicyConfig::decode_from(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(decoded, config);
        }
    }

    /// Unknown tags are corrupt, the retired adaptive-policy tag 5
    /// included (followed here by the `f64` threshold it used to carry).
    #[test]
    fn codec_rejects_unknown_tag() {
        let mut retired = vec![5];
        crate::codec::put_f64(&mut retired, 0.5);
        for bytes in [vec![0xFF], retired] {
            let mut r = crate::codec::ByteReader::new(&bytes, "policy");
            assert!(matches!(
                PolicyConfig::decode_from(&mut r),
                Err(crate::TinError::CorruptCheckpoint { .. })
            ));
        }
    }
}
