//! Error types for the TIN provenance library.

use std::fmt;

use crate::ids::VertexId;

/// Errors raised while building or processing a temporal interaction network.
#[derive(Debug, Clone, PartialEq)]
pub enum TinError {
    /// An interaction carried a non-positive or non-finite quantity.
    InvalidQuantity {
        /// The offending quantity value.
        quantity: f64,
        /// Index of the interaction in the stream, if known.
        position: Option<usize>,
    },
    /// An interaction carried a negative or non-finite timestamp.
    InvalidTimestamp {
        /// The offending timestamp value.
        timestamp: f64,
        /// Index of the interaction in the stream, if known.
        position: Option<usize>,
    },
    /// An interaction referenced a vertex outside the declared vertex set.
    UnknownVertex {
        /// The unknown vertex.
        vertex: VertexId,
        /// Number of vertices the tracker was configured with.
        num_vertices: usize,
    },
    /// A self-loop interaction (`r.s == r.d`) was encountered and the
    /// configuration forbids them.
    SelfLoop {
        /// The vertex interacting with itself.
        vertex: VertexId,
        /// Index of the interaction in the stream, if known.
        position: Option<usize>,
    },
    /// The interaction stream was not sorted by time and strict ordering was
    /// requested.
    OutOfOrder {
        /// Index of the interaction that went back in time.
        position: usize,
        /// Timestamp of the previous interaction.
        previous: f64,
        /// Timestamp of the offending interaction.
        current: f64,
    },
    /// A parse error while reading interactions from a text format.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// Configuration error (e.g. zero groups, empty tracked set, zero budget).
    InvalidConfig(String),
    /// An I/O error, stringified to keep the error type `Clone + PartialEq`.
    Io(String),
    /// A shard worker thread of the parallel engine terminated (panicked or
    /// dropped its channels) before the computation finished. The engine is
    /// poisoned: every subsequent operation returns this error instead of
    /// hanging on a channel that will never be served.
    WorkerLost {
        /// The shard whose worker died first, when known.
        shard: Option<usize>,
    },
    /// A checkpoint file failed validation: a section checksum mismatched,
    /// the file was truncated, or a decoded value was malformed. Recovery
    /// never installs state from such a file; it falls back to the previous
    /// retained checkpoint instead.
    CorruptCheckpoint {
        /// Path of the offending checkpoint file (empty when the error was
        /// raised below the file layer, before the path is known).
        path: String,
        /// The file section that failed (`header`, `policy`, `cursor`,
        /// `states`, …).
        section: String,
        /// Human-readable description of the failure.
        reason: String,
    },
    /// A checkpoint file carries a schema version this build cannot decode.
    CheckpointVersionMismatch {
        /// The schema version found in the file header.
        found: u32,
        /// The schema version this build supports.
        supported: u32,
    },
    /// A checkpoint section is too long for the format's `u32` length
    /// field. Nothing is written; the engine state is untouched.
    CheckpointTooLarge {
        /// The section that overflowed (`policy`, `cursor` or `states`).
        section: String,
        /// The section body's length in bytes.
        bytes: u64,
    },
}

impl fmt::Display for TinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TinError::InvalidQuantity { quantity, position } => match position {
                Some(p) => write!(f, "interaction #{p}: invalid quantity {quantity}"),
                None => write!(f, "invalid quantity {quantity}"),
            },
            TinError::InvalidTimestamp {
                timestamp,
                position,
            } => match position {
                Some(p) => write!(f, "interaction #{p}: invalid timestamp {timestamp}"),
                None => write!(f, "invalid timestamp {timestamp}"),
            },
            TinError::UnknownVertex {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} is outside the declared vertex set of size {num_vertices}"
            ),
            TinError::SelfLoop { vertex, position } => match position {
                Some(p) => write!(f, "interaction #{p}: self-loop at {vertex}"),
                None => write!(f, "self-loop at {vertex}"),
            },
            TinError::OutOfOrder {
                position,
                previous,
                current,
            } => write!(
                f,
                "interaction #{position} is out of order: time {current} < previous {previous}"
            ),
            TinError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            TinError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            TinError::Io(msg) => write!(f, "I/O error: {msg}"),
            TinError::WorkerLost { shard } => match shard {
                Some(s) => write!(
                    f,
                    "shard worker {s} terminated before the computation finished; \
                     the sharded engine is poisoned"
                ),
                None => write!(
                    f,
                    "a shard worker terminated before the computation finished; \
                     the sharded engine is poisoned"
                ),
            },
            TinError::CorruptCheckpoint {
                path,
                section,
                reason,
            } => {
                if path.is_empty() {
                    write!(f, "corrupt checkpoint: section `{section}`: {reason}")
                } else {
                    write!(
                        f,
                        "corrupt checkpoint {path}: section `{section}`: {reason}"
                    )
                }
            }
            TinError::CheckpointVersionMismatch { found, supported } => write!(
                f,
                "checkpoint schema version {found} is not supported \
                 (this build reads version {supported})"
            ),
            TinError::CheckpointTooLarge { section, bytes } => write!(
                f,
                "checkpoint section `{section}` is {bytes} bytes, over the {} byte \
                 limit of the section length field",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for TinError {}

impl From<std::io::Error> for TinError {
    fn from(e: std::io::Error) -> Self {
        TinError::Io(e.to_string())
    }
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TinError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_invalid_quantity() {
        let e = TinError::InvalidQuantity {
            quantity: -3.0,
            position: Some(7),
        };
        assert_eq!(e.to_string(), "interaction #7: invalid quantity -3");
        let e = TinError::InvalidQuantity {
            quantity: 0.0,
            position: None,
        };
        assert_eq!(e.to_string(), "invalid quantity 0");
    }

    #[test]
    fn display_unknown_vertex() {
        let e = TinError::UnknownVertex {
            vertex: VertexId::new(10),
            num_vertices: 5,
        };
        assert!(e.to_string().contains("v10"));
        assert!(e.to_string().contains("size 5"));
    }

    #[test]
    fn display_out_of_order() {
        let e = TinError::OutOfOrder {
            position: 3,
            previous: 5.0,
            current: 4.0,
        };
        assert!(e.to_string().contains("#3"));
        assert!(e.to_string().contains("out of order"));
    }

    #[test]
    fn display_self_loop_and_parse_and_config() {
        let e = TinError::SelfLoop {
            vertex: VertexId::new(2),
            position: Some(1),
        };
        assert!(e.to_string().contains("self-loop"));
        let e = TinError::Parse {
            line: 12,
            message: "expected 4 fields".into(),
        };
        assert!(e.to_string().contains("line 12"));
        let e = TinError::InvalidConfig("k must be positive".into());
        assert!(e.to_string().contains("k must be positive"));
    }

    #[test]
    fn io_error_conversion() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing file");
        let e: TinError = io.into();
        assert!(matches!(e, TinError::Io(_)));
        assert!(e.to_string().contains("missing file"));
    }

    #[test]
    fn display_corrupt_checkpoint() {
        let e = TinError::CorruptCheckpoint {
            path: "ckpt/ckpt-000000000064.tin".into(),
            section: "states".into(),
            reason: "crc mismatch".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("ckpt-000000000064.tin"));
        assert!(msg.contains("`states`"));
        assert!(msg.contains("crc mismatch"));

        let e = TinError::CorruptCheckpoint {
            path: String::new(),
            section: "cursor".into(),
            reason: "truncated".into(),
        };
        assert_eq!(
            e.to_string(),
            "corrupt checkpoint: section `cursor`: truncated"
        );
    }

    #[test]
    fn display_checkpoint_version_mismatch() {
        let e = TinError::CheckpointVersionMismatch {
            found: 9,
            supported: 1,
        };
        let msg = e.to_string();
        assert!(msg.contains("version 9"));
        assert!(msg.contains("version 1"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        let e = TinError::InvalidConfig("x".into());
        takes_err(&e);
    }
}
