//! Durable on-disk checkpoints and crash recovery.
//!
//! A [`Checkpoint`] is the one way to capture engine state. It serialises
//! the **full** tracker state — every buffer, heap, queue and provenance
//! vector, bit for bit — through the same per-vertex migration payloads the
//! sharded engine moves between workers. A run resumed from a checkpoint is
//! therefore indistinguishable from one that never stopped: every float
//! compares equal with `==`, not merely approximately. Both engines save
//! checkpoints periodically through their [`crate::engine::RunLedger`], and
//! the sharded engine's in-memory recovery snapshot wraps one. The lossy
//! [`crate::snapshot::ProvenanceSnapshot`] (origin sets per vertex) is only a
//! human-facing TSV export.
//!
//! ## File format (schema version 1)
//!
//! ```text
//! [ magic "TINCKPT\0" : 8 bytes ][ schema version : u32 LE ]
//! [ policy  section: len u32 | crc32 u32 | body ]
//! [ cursor  section: len u32 | crc32 u32 | body ]
//! [ states  section: len u32 | crc32 u32 | body ]
//! ```
//!
//! * **policy** — the [`PolicyConfig`] binary encoding plus the vertex count,
//!   so recovery can rebuild a tracker of the identical configuration and
//!   refuse mismatched files.
//! * **cursor** — the [`StreamCursor`]: stream position, last timestamp and
//!   the flow-accounting counters needed to seed an [`crate::engine`] report.
//! * **states** — one length-prefixed payload per vertex, in strictly
//!   increasing vertex order. Payloads are produced by
//!   [`crate::tracker::ProvenanceTracker::encode_vertex_state`] and are
//!   **shard-count independent**: a checkpoint captured by a 4-shard run
//!   restores into a sequential engine or a 2-shard engine unchanged.
//!
//! Every section carries its own CRC32; any mismatch, truncation or malformed
//! value surfaces as [`TinError::CorruptCheckpoint`] naming the section, and
//! recovery falls back to the previous retained checkpoint instead of
//! installing partial state. A section body longer than its `u32` length
//! field can describe is refused with [`TinError::CheckpointTooLarge`]
//! before any byte is written.
//!
//! ## Durability protocol
//!
//! A save streams the file from a payload source ([`Payloads`]) and builds
//! no encoded copy of the states. The source is either a capture's owned
//! per-vertex payloads or the live tracker itself: the sequential engine's
//! periodic saves take no capture, but encode the tracker vertex by vertex
//! into one reused buffer on each pass. A first pass over the payloads
//! computes each section's length and CRC, refusing an oversized section
//! before the directory is touched. A second pass streams the bytes through
//! one [`WRITE_BUFFER_BYTES`] buffer into a sibling temporary file; it
//! counts the states bytes it emits, and if they differ from the first
//! pass's count the attempt fails. The file is fsynced and only then
//! renamed over the final name, followed by a directory fsync so the rename
//! itself is durable. A crash at any instant leaves either the previous
//! checkpoint or the new one, never a hybrid, and a failed attempt removes
//! its temporary file. [`CheckpointStore::save`] and the engines' periodic
//! saves share one save loop: bounded retry-with-exponential-backoff for
//! transient I/O failures, each attempt streaming from the source again,
//! then pruning old files by count and age. So a save allocates one write
//! buffer and the two small sections, whatever the size of the state: on
//! top of the capture when it saves one, and on top of the live state plus
//! its largest vertex payload when it saves a live tracker.
//! [`Checkpoint::encode`] writes the same bytes into one buffer of the
//! file's exact size.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use crate::codec::{self, ByteReader, Crc32};
use crate::error::{Result, TinError};
use crate::ids::VertexId;
use crate::policy::PolicyConfig;
use crate::quantity::Quantity;
use crate::tracker::ProvenanceTracker;

/// Leading magic bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"TINCKPT\0";

/// The on-disk schema version this build reads and writes.
pub const SCHEMA_VERSION: u32 = 1;

/// File-name extension of checkpoint files inside a [`CheckpointStore`].
pub const FILE_EXTENSION: &str = "tin";

/// Stream position and flow-accounting counters at the moment of capture.
///
/// Restoring a checkpoint seeds the engine's counters from this cursor so the
/// resumed run's [`crate::engine::EngineReport`] matches an uninterrupted one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamCursor {
    /// Interactions processed before the checkpoint was taken. Resume skips
    /// exactly this many interactions of the replayed stream.
    pub processed: usize,
    /// Timestamp of the last processed interaction (`None` iff `processed`
    /// is zero).
    pub last_time: Option<f64>,
    /// Total quantity moved so far (Σ r.q).
    pub total_quantity: Quantity,
    /// Quantity newly generated at source vertices so far.
    pub newborn_quantity: Quantity,
    /// Peak logical provenance footprint observed so far, in bytes.
    pub peak_footprint_bytes: usize,
}

impl StreamCursor {
    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_usize(out, self.processed);
        codec::put_bool(out, self.last_time.is_some());
        codec::put_f64(out, self.last_time.unwrap_or(0.0));
        codec::put_f64(out, self.total_quantity);
        codec::put_f64(out, self.newborn_quantity);
        codec::put_usize(out, self.peak_footprint_bytes);
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let processed = r.usize()?;
        let has_time = r.bool()?;
        let time = r.f64()?;
        Ok(StreamCursor {
            processed,
            last_time: has_time.then_some(time),
            total_quantity: r.f64()?,
            newborn_quantity: r.f64()?,
            peak_footprint_bytes: r.usize()?,
        })
    }
}

/// A full, lossless capture of one engine's provenance state.
#[derive(Debug)]
pub struct Checkpoint {
    /// The policy configuration the captured tracker was built from.
    pub policy: PolicyConfig,
    /// Number of vertices of the captured tracker.
    pub num_vertices: usize,
    /// Stream position and flow counters at capture time.
    pub cursor: StreamCursor,
    /// Per-vertex encoded migration payloads, strictly increasing by vertex
    /// id, one entry per vertex.
    pub states: Vec<(u32, Vec<u8>)>,
}

impl Checkpoint {
    /// Capture the full state of `tracker` without changing its observable
    /// behaviour (internally an extract → encode → re-install round trip per
    /// vertex, which moves buffers wholesale).
    ///
    /// # Errors
    /// Returns [`TinError::InvalidConfig`] if the tracker does not support
    /// durable checkpoints (every [`crate::tracker::build_tracker`] policy
    /// does).
    pub fn capture(
        policy: &PolicyConfig,
        cursor: StreamCursor,
        tracker: &mut dyn ProvenanceTracker,
    ) -> Result<Checkpoint> {
        let num_vertices = tracker.num_vertices();
        let mut states = Vec::with_capacity(num_vertices);
        for v in 0..num_vertices {
            let mut bytes = Vec::new();
            if !tracker.encode_vertex_state(VertexId::from(v), &mut bytes) {
                return Err(unsupported(tracker));
            }
            states.push((v as u32, bytes));
        }
        Ok(Checkpoint {
            policy: policy.clone(),
            num_vertices,
            cursor,
            states,
        })
    }

    /// Restore this checkpoint's state into a **freshly built** tracker of
    /// the same configuration. Syncs the tracker's epoch clock to the cursor
    /// *before* installing any vertex, so window resets fired by the sync
    /// cannot clobber restored state.
    ///
    /// # Errors
    /// Returns [`TinError::CorruptCheckpoint`] if a payload fails to decode
    /// or carries trailing bytes, and [`TinError::InvalidConfig`] on a vertex
    ///-count mismatch.
    pub fn restore_into(&self, tracker: &mut dyn ProvenanceTracker) -> Result<()> {
        if tracker.num_vertices() != self.num_vertices {
            return Err(TinError::InvalidConfig(format!(
                "checkpoint captured {} vertices but the tracker has {}",
                self.num_vertices,
                tracker.num_vertices()
            )));
        }
        tracker.sync_epoch(self.cursor.processed, self.cursor.last_time.unwrap_or(0.0));
        for (v, bytes) in &self.states {
            let mut r = ByteReader::new(bytes, "states");
            tracker.restore_vertex_state(VertexId::new(*v), &mut r)?;
            r.expect_end()?;
        }
        Ok(())
    }

    /// Serialise to the versioned, checksummed on-disk byte format: the
    /// bytes [`Self::write_atomic`] and [`CheckpointStore::save`] stream to
    /// disk, gathered into one buffer of the file's exact size.
    ///
    /// # Errors
    /// [`TinError::CheckpointTooLarge`] if a section body exceeds the
    /// format's `u32` length field (4 GiB).
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut source = self.source();
        let layout = source.layout()?;
        let mut out = Vec::with_capacity(layout.file_len);
        source.emit(&layout, &mut |bytes| {
            out.extend_from_slice(bytes);
            Ok(())
        })?;
        debug_assert_eq!(out.len(), layout.file_len);
        Ok(out)
    }

    /// This capture as the source of a save.
    fn source(&self) -> CheckpointSource<'_, '_> {
        CheckpointSource::new(
            &self.policy,
            self.num_vertices,
            &self.cursor,
            Payloads::Captured(&self.states),
        )
    }

    /// Decode a checkpoint from bytes. `path` labels errors; pass the file
    /// path when reading from disk, or `""` for in-memory buffers.
    ///
    /// # Errors
    /// * [`TinError::CorruptCheckpoint`] on bad magic, checksum mismatch,
    ///   truncation, trailing garbage, or any malformed value,
    /// * [`TinError::CheckpointVersionMismatch`] for foreign schema versions.
    pub fn decode(bytes: &[u8], path: &str) -> Result<Checkpoint> {
        Self::decode_inner(bytes).map_err(|e| patch_path(e, path))
    }

    fn decode_inner(bytes: &[u8]) -> Result<Checkpoint> {
        let corrupt_header = |reason: &str| TinError::CorruptCheckpoint {
            path: String::new(),
            section: "header".into(),
            reason: reason.into(),
        };
        if bytes.len() < MAGIC.len() + 4 {
            return Err(corrupt_header("file shorter than the header"));
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(corrupt_header("bad magic bytes"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SCHEMA_VERSION {
            return Err(TinError::CheckpointVersionMismatch {
                found: version,
                supported: SCHEMA_VERSION,
            });
        }

        let mut offset = MAGIC.len() + 4;
        let policy_body = read_section(bytes, &mut offset, "policy")?;
        let cursor_body = read_section(bytes, &mut offset, "cursor")?;
        let states_body = read_section(bytes, &mut offset, "states")?;
        if offset != bytes.len() {
            return Err(corrupt_header("trailing bytes after the last section"));
        }

        let mut r = ByteReader::new(policy_body, "policy");
        let policy = PolicyConfig::decode_from(&mut r)?;
        let num_vertices = r.usize()?;
        r.expect_end()?;

        let mut r = ByteReader::new(cursor_body, "cursor");
        let cursor = StreamCursor::decode_from(&mut r)?;
        r.expect_end()?;

        let mut r = ByteReader::new(states_body, "states");
        let count = r.usize()?;
        if count != num_vertices {
            return Err(r.corrupt(format!(
                "state count {count} does not match vertex count {num_vertices}"
            )));
        }
        // Each entry takes at least 12 bytes (a u32 id and a u64 length), so
        // a count the body cannot hold is corrupt; checking it first keeps a
        // crafted count from sizing the allocation below.
        if r.remaining() < count.saturating_mul(12) {
            return Err(r.corrupt(format!("truncated: {count} vertex states declared")));
        }
        let mut states = Vec::with_capacity(count);
        for i in 0..count {
            let v = r.u32()?;
            if v as usize != i {
                return Err(r.corrupt(format!("expected vertex {i}, found {v}")));
            }
            states.push((v, r.bytes()?.to_vec()));
        }
        r.expect_end()?;

        Ok(Checkpoint {
            policy,
            num_vertices,
            cursor,
            states,
        })
    }

    /// Write this checkpoint to `path` with the atomic durability protocol:
    /// the bytes stream from the capture into a temp sibling → fsync →
    /// rename → directory fsync. A crash at any point leaves either the old
    /// file or the complete new one.
    ///
    /// # Errors
    /// Propagates the underlying I/O failures as [`TinError::Io`], and
    /// [`TinError::CheckpointTooLarge`] (before touching the directory) if
    /// the checkpoint does not fit the format.
    pub fn write_atomic(&self, path: &Path) -> Result<()> {
        let mut source = self.source();
        let layout = source.layout()?;
        write_atomic_with(path, |sink| source.emit(&layout, sink))
    }

    /// Read and validate a checkpoint file.
    ///
    /// # Errors
    /// I/O failures surface as [`TinError::Io`]; validation failures as
    /// [`TinError::CorruptCheckpoint`] / [`TinError::CheckpointVersionMismatch`]
    /// carrying the file path.
    pub fn read(path: &Path) -> Result<Checkpoint> {
        let bytes = fs::read(path)?;
        Self::decode(&bytes, &path.display().to_string())
    }
}

/// Where a save reads a checkpoint's per-vertex payloads from.
pub enum Payloads<'a> {
    /// A capture's owned payloads, strictly increasing by vertex id.
    Captured(&'a [(u32, Vec<u8>)]),
    /// The live tracker. Each pass over the states encodes it vertex by
    /// vertex ([`ProvenanceTracker::encode_vertex_state`]) into one buffer
    /// that the save reuses, so the save holds no copy of the state.
    Live(&'a mut dyn ProvenanceTracker),
}

/// What a save streams into a checkpoint file: the fields of the policy and
/// cursor sections, and the per-vertex payloads of the states section.
pub(crate) struct CheckpointSource<'a, 'p> {
    policy: &'a PolicyConfig,
    num_vertices: usize,
    cursor: &'a StreamCursor,
    payloads: Payloads<'p>,
    /// The buffer a live tracker's payloads are encoded into, one vertex at
    /// a time, by both passes of every attempt.
    scratch: Vec<u8>,
}

impl<'a, 'p> CheckpointSource<'a, 'p> {
    /// The file of a run of `policy` over `num_vertices` vertices at
    /// `cursor`, whose states are `payloads`.
    pub(crate) fn new(
        policy: &'a PolicyConfig,
        num_vertices: usize,
        cursor: &'a StreamCursor,
        payloads: Payloads<'p>,
    ) -> Self {
        CheckpointSource {
            policy,
            num_vertices,
            cursor,
            payloads,
            scratch: Vec::new(),
        }
    }

    /// The length and CRC pass: one pass over the per-vertex payloads that
    /// sizes and checksums every section before a byte is written, so an
    /// oversized section is refused before any file is touched.
    fn layout(&mut self) -> Result<Layout> {
        let mut policy = Vec::new();
        self.policy.encode_into(&mut policy);
        codec::put_usize(&mut policy, self.num_vertices);
        let mut cursor = Vec::new();
        self.cursor.encode_into(&mut cursor);
        let mut states_crc = Crc32::new();
        let mut states_len = 0usize;
        self.emit_states(&mut |piece| {
            states_crc.update(piece);
            states_len += piece.len();
            Ok(())
        })?;
        let headers = [
            section_header("policy", policy.len(), codec::crc32(&policy))?,
            section_header("cursor", cursor.len(), codec::crc32(&cursor))?,
            section_header("states", states_len, states_crc.finish())?,
        ];
        let file_len =
            MAGIC.len() + 4 + 3 * SECTION_HEADER_LEN + policy.len() + cursor.len() + states_len;
        Ok(Layout {
            policy,
            cursor,
            headers,
            states_len,
            file_len,
        })
    }

    /// Hand the file's bytes to `sink` in order: magic, schema version, then
    /// each section's `len | crc32` header and body. The states body is
    /// streamed from the payloads piece by piece, never copied whole.
    ///
    /// # Errors
    /// Fails with [`TinError::Io`] if the states streamed here are not as
    /// long as the length pass counted, so the header would not match the
    /// body.
    fn emit(
        &mut self,
        layout: &Layout,
        sink: &mut dyn FnMut(&[u8]) -> io::Result<()>,
    ) -> Result<()> {
        let [policy, cursor, states] = &layout.headers;
        sink(&MAGIC)?;
        sink(&SCHEMA_VERSION.to_le_bytes())?;
        sink(policy)?;
        sink(&layout.policy)?;
        sink(cursor)?;
        sink(&layout.cursor)?;
        sink(states)?;
        let mut streamed = 0usize;
        self.emit_states(&mut |piece| {
            streamed += piece.len();
            sink(piece)
        })?;
        if streamed != layout.states_len {
            return Err(TinError::Io(format!(
                "streamed {streamed} bytes of states, but the length pass counted {}",
                layout.states_len
            )));
        }
        Ok(())
    }

    /// The states section body, piece by piece: the vertex count, then each
    /// vertex's id, payload length and payload.
    fn emit_states(&mut self, sink: &mut dyn FnMut(&[u8]) -> io::Result<()>) -> Result<()> {
        match &mut self.payloads {
            Payloads::Captured(states) => {
                sink(&(states.len() as u64).to_le_bytes())?;
                for (v, bytes) in states.iter() {
                    emit_payload(sink, *v, bytes)?;
                }
            }
            Payloads::Live(tracker) => {
                let num_vertices = tracker.num_vertices();
                sink(&(num_vertices as u64).to_le_bytes())?;
                for v in 0..num_vertices {
                    self.scratch.clear();
                    if !tracker.encode_vertex_state(VertexId::from(v), &mut self.scratch) {
                        return Err(unsupported(&**tracker));
                    }
                    emit_payload(sink, v as u32, &self.scratch)?;
                }
            }
        }
        Ok(())
    }
}

/// One states entry: the vertex id, the payload length and the payload.
fn emit_payload(
    sink: &mut dyn FnMut(&[u8]) -> io::Result<()>,
    v: u32,
    bytes: &[u8],
) -> io::Result<()> {
    sink(&v.to_le_bytes())?;
    sink(&(bytes.len() as u64).to_le_bytes())?;
    sink(bytes)
}

/// The error for a tracker that cannot encode its vertex states.
fn unsupported(tracker: &dyn ProvenanceTracker) -> TinError {
    TinError::InvalidConfig(format!(
        "tracker `{}` does not support durable checkpoints",
        tracker.name()
    ))
}

/// Capacity of the buffered writer a save streams through: the one chunk a
/// save allocates next to the small policy and cursor sections (and, saving
/// a live tracker, its payload buffer), whatever the size of the state.
pub const WRITE_BUFFER_BYTES: usize = 256 * 1024;

/// Bytes of a section's `len u32 | crc32 u32` header.
const SECTION_HEADER_LEN: usize = 8;

/// What the length and CRC pass learns about a checkpoint's file: the small
/// policy and cursor bodies, every section's header, and the lengths of the
/// states body and of the file.
struct Layout {
    policy: Vec<u8>,
    cursor: Vec<u8>,
    headers: [[u8; SECTION_HEADER_LEN]; 3],
    states_len: usize,
    file_len: usize,
}

/// Write a file to `path` with the atomic durability protocol: `emit` hands
/// the bytes to a sink that buffers them into a temp sibling, which is
/// flushed, fsynced and renamed over `path`; then the directory is fsynced.
/// A failed attempt removes its temp file (best effort), so it leaves
/// neither a partial temp file nor `path`, and the store's save loop can
/// retry by streaming again.
fn write_atomic_with(
    path: &Path,
    emit: impl FnOnce(&mut dyn FnMut(&[u8]) -> io::Result<()>) -> Result<()>,
) -> Result<()> {
    let tmp = tmp_sibling(path);
    if let Err(e) = write_and_rename(&tmp, path, emit) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// The file steps of [`write_atomic_with`]: stream into `tmp` (the only
/// sink a checkpoint's bytes reach a file through), fsync, rename to `path`.
fn write_and_rename(
    tmp: &Path,
    path: &Path,
    emit: impl FnOnce(&mut dyn FnMut(&[u8]) -> io::Result<()>) -> Result<()>,
) -> Result<()> {
    let mut file = BufWriter::with_capacity(WRITE_BUFFER_BYTES, fs::File::create(tmp)?);
    emit(&mut |bytes| file.write_all(bytes))?;
    let file = file.into_inner().map_err(io::IntoInnerError::into_error)?;
    file.sync_all()?;
    drop(file);
    fs::rename(tmp, path)?;
    Ok(())
}

/// A section's `len | crc32` header.
fn section_header(section: &str, len: usize, crc: u32) -> Result<[u8; SECTION_HEADER_LEN]> {
    let mut header = [0; SECTION_HEADER_LEN];
    header[..4].copy_from_slice(&section_len(section, len)?.to_le_bytes());
    header[4..].copy_from_slice(&crc.to_le_bytes());
    Ok(header)
}

/// The `u32` length field of a `len`-byte section body.
fn section_len(section: &str, len: usize) -> Result<u32> {
    u32::try_from(len).map_err(|_| TinError::CheckpointTooLarge {
        section: section.into(),
        bytes: len as u64,
    })
}

/// Read one `len | crc32 | body` section starting at `*offset`, verifying
/// the checksum, and advance the offset past it.
fn read_section<'a>(bytes: &'a [u8], offset: &mut usize, section: &str) -> Result<&'a [u8]> {
    let corrupt = |reason: String| TinError::CorruptCheckpoint {
        path: String::new(),
        section: section.into(),
        reason,
    };
    let rest = &bytes[*offset..];
    if rest.len() < 8 {
        return Err(corrupt("truncated section header".into()));
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
    let expected_crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
    let rest = &rest[8..];
    if rest.len() < len {
        return Err(corrupt(format!(
            "section claims {len} bytes but only {} remain",
            rest.len()
        )));
    }
    let body = &rest[..len];
    let actual_crc = codec::crc32(body);
    if actual_crc != expected_crc {
        return Err(corrupt(format!(
            "crc mismatch: stored {expected_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }
    *offset += 8 + len;
    Ok(body)
}

/// Fill in the file path on corrupt-checkpoint errors raised below the file
/// layer (they carry an empty path until the reader knows it).
fn patch_path(err: TinError, path: &str) -> TinError {
    match err {
        TinError::CorruptCheckpoint {
            path: p,
            section,
            reason,
        } if p.is_empty() => TinError::CorruptCheckpoint {
            path: path.to_string(),
            section,
            reason,
        },
        other => other,
    }
}

/// Sibling temp-file name used by the atomic write protocol (same directory,
/// so the final rename never crosses a filesystem boundary).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(ToOwned::to_owned).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// How many checkpoint files a [`CheckpointStore`] retains.
///
/// The newest checkpoint is always kept regardless of either bound, so a
/// valid recovery point survives arbitrarily aggressive retention settings.
#[derive(Clone, Debug, PartialEq)]
pub struct RetentionPolicy {
    /// Keep at most this many files (oldest pruned first); clamped to ≥ 1.
    pub max_count: usize,
    /// Additionally prune files whose modification time is older than this.
    pub max_age: Option<Duration>,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy {
            max_count: 4,
            max_age: None,
        }
    }
}

/// Timing and size figures for the most recent successful save of a
/// [`CheckpointStore`] ([`CheckpointStore::save`] or an engine's periodic
/// save) — the raw material for the engines' checkpoint metrics (encode
/// vs. fsync stalls vs. retry churn).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SaveStats {
    /// Seconds spent in the length and CRC pass over the payloads (for a
    /// live tracker, encoding it included), which sizes and checksums every
    /// section before a byte is written.
    pub encode_secs: f64,
    /// Seconds spent in the atomic write protocol (temp file, the write
    /// streamed from the payloads, fsync, rename, directory fsync), summed
    /// over every attempt.
    pub write_secs: f64,
    /// Failed attempts before the write succeeded (0 for a clean save).
    pub retries: usize,
    /// Size of the checkpoint file in bytes.
    pub encoded_bytes: usize,
}

/// A directory of retained checkpoint files with atomic saves, bounded
/// retry on transient I/O errors, retention pruning, and corrupt-file
/// fallback on load.
///
/// Files are named `ckpt-{processed:012}.tin`; the zero-padded stream
/// position makes lexicographic order equal stream order.
pub struct CheckpointStore {
    dir: PathBuf,
    retention: RetentionPolicy,
    retry_attempts: usize,
    retry_backoff: Duration,
    #[allow(clippy::type_complexity)]
    fault_hook: Option<Box<dyn FnMut() -> std::io::Result<()> + Send>>,
    saves: usize,
    last_save_stats: Option<SaveStats>,
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("retention", &self.retention)
            .field("saves", &self.saves)
            .finish()
    }
}

impl CheckpointStore {
    /// Open (creating if necessary) a checkpoint directory with default
    /// retention (keep 4) and retry (3 attempts, 10 ms base backoff).
    ///
    /// # Errors
    /// Propagates directory-creation failures as [`TinError::Io`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            retention: RetentionPolicy::default(),
            retry_attempts: 3,
            retry_backoff: Duration::from_millis(10),
            fault_hook: None,
            saves: 0,
            last_save_stats: None,
        })
    }

    /// Replace the retention policy.
    pub fn with_retention(mut self, retention: RetentionPolicy) -> Self {
        self.retention = retention;
        self
    }

    /// Configure the save retry loop: total `attempts` (clamped to ≥ 1) with
    /// exponential backoff starting at `backoff` and doubling per retry.
    pub fn with_retry(mut self, attempts: usize, backoff: Duration) -> Self {
        self.retry_attempts = attempts.max(1);
        self.retry_backoff = backoff;
        self
    }

    /// Install a fault-injection hook, called before every write attempt; an
    /// `Err` from the hook is treated as a transient I/O failure of that
    /// attempt. Used by the failure-injection test harness.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FnMut() -> std::io::Result<()> + Send>) {
        self.fault_hook = Some(hook);
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of checkpoints successfully saved through this store.
    pub fn saves(&self) -> usize {
        self.saves
    }

    /// Encode/write timings of the most recent successful save (`None`
    /// before the first). Engines poll this after a periodic checkpoint to
    /// feed their observability histograms.
    pub fn last_save_stats(&self) -> Option<SaveStats> {
        self.last_save_stats
    }

    /// The on-disk path a checkpoint at stream position `processed` gets.
    pub fn path_for(&self, processed: usize) -> PathBuf {
        self.dir
            .join(format!("ckpt-{processed:012}.{FILE_EXTENSION}"))
    }

    /// Save a checkpoint atomically, streaming it from the borrowed capture,
    /// and retry transient I/O failures with exponential backoff, each
    /// attempt streaming again; then prune old files per the retention
    /// policy. Returns the final file path.
    ///
    /// # Errors
    /// Returns [`TinError::CheckpointTooLarge`] (before touching the
    /// directory) if the checkpoint does not fit the format, and the last
    /// attempt's [`TinError::Io`] if every retry failed.
    pub fn save(&mut self, checkpoint: &Checkpoint) -> Result<PathBuf> {
        self.save_from(&mut checkpoint.source())
    }

    /// The save loop behind [`Self::save`] and the engines' periodic saves,
    /// over either payload source: the length and CRC pass (which refuses
    /// an oversized section before the directory is touched), then up to
    /// `retry_attempts` streamed writes with backoff between them, each
    /// preceded by the fault hook, then [`SaveStats`] and retention.
    ///
    /// # Errors
    /// As [`Self::save`], plus [`TinError::InvalidConfig`] for a live
    /// tracker that cannot encode its vertex states.
    pub(crate) fn save_from(&mut self, source: &mut CheckpointSource<'_, '_>) -> Result<PathBuf> {
        let path = self.path_for(source.cursor.processed);
        let encode_start = Instant::now();
        let layout = source.layout()?;
        let encode_secs = encode_start.elapsed().as_secs_f64();
        let mut delay = self.retry_backoff;
        let mut last_err = None;
        let mut write_secs = 0.0;
        for attempt in 0..self.retry_attempts {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2);
            }
            let write_start = Instant::now();
            let attempt_result = match self.fault_hook.as_mut() {
                Some(hook) => hook().map_err(TinError::from),
                None => Ok(()),
            }
            .and_then(|()| write_atomic_with(&path, |sink| source.emit(&layout, sink)));
            write_secs += write_start.elapsed().as_secs_f64();
            match attempt_result {
                Ok(()) => {
                    self.saves += 1;
                    self.last_save_stats = Some(SaveStats {
                        encode_secs,
                        write_secs,
                        retries: attempt,
                        encoded_bytes: layout.file_len,
                    });
                    self.enforce_retention()?;
                    return Ok(path);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one attempt ran"))
    }

    /// All retained checkpoint files, oldest first (stream-position order).
    ///
    /// # Errors
    /// Propagates directory-read failures as [`TinError::Io`].
    pub fn list(&self) -> Result<Vec<PathBuf>> {
        let mut files = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let is_checkpoint = path.extension().is_some_and(|e| e == FILE_EXTENSION)
                && path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-"));
            if is_checkpoint {
                files.push(path);
            }
        }
        files.sort();
        Ok(files)
    }

    /// The newest retained checkpoint file, if any.
    ///
    /// # Errors
    /// Propagates directory-read failures as [`TinError::Io`].
    pub fn latest(&self) -> Result<Option<PathBuf>> {
        Ok(self.list()?.into_iter().next_back())
    }

    /// Load the newest checkpoint that validates, skipping (but not
    /// deleting) corrupt or version-mismatched files — the fallback path of
    /// crash recovery.
    ///
    /// Returns `Ok(None)` for an empty store. If files exist but none
    /// validates, returns the *newest* file's error so the caller sees why
    /// recovery failed.
    ///
    /// # Errors
    /// See above; validation failures are [`TinError::CorruptCheckpoint`] /
    /// [`TinError::CheckpointVersionMismatch`] with the file path filled in.
    pub fn load_latest_valid(&self) -> Result<Option<(PathBuf, Checkpoint)>> {
        self.resume_latest(Ok)
    }

    /// Hand the retained checkpoints to `resume`, newest first, until one
    /// is accepted. A file that fails to decode is skipped, and so is one
    /// that `resume` refuses with [`TinError::CorruptCheckpoint`] or
    /// [`TinError::CheckpointVersionMismatch`]: its CRCs held, but its
    /// contents did not fit the engine (a dense row of the wrong width, say).
    /// Any other error from `resume` ends the search and is returned as is.
    ///
    /// Returns `Ok(None)` for an empty store. If no file is accepted,
    /// returns the *newest* file's error.
    ///
    /// # Errors
    /// See above; a refusal is returned with the refused file's path filled
    /// in.
    pub fn resume_latest<T>(
        &self,
        mut resume: impl FnMut(Checkpoint) -> Result<T>,
    ) -> Result<Option<(PathBuf, T)>> {
        let mut newest_err = None;
        for path in self.list()?.into_iter().rev() {
            let err = match Checkpoint::read(&path).map(&mut resume) {
                Err(e) => e,
                Ok(Ok(accepted)) => return Ok(Some((path, accepted))),
                Ok(Err(e @ TinError::CorruptCheckpoint { .. }))
                | Ok(Err(e @ TinError::CheckpointVersionMismatch { .. })) => {
                    patch_path(e, &path.display().to_string())
                }
                Ok(Err(e)) => return Err(e),
            };
            newest_err.get_or_insert(err);
        }
        newest_err.map_or(Ok(None), Err)
    }

    /// Apply the retention policy: prune beyond `max_count`, then prune
    /// files older than `max_age` (by modification time). The newest file is
    /// always kept.
    fn enforce_retention(&self) -> Result<()> {
        let files = self.list()?;
        if files.is_empty() {
            return Ok(());
        }
        let keep = self.retention.max_count.max(1);
        let excess = files.len().saturating_sub(keep);
        for path in &files[..excess] {
            fs::remove_file(path)?;
        }
        if let Some(max_age) = self.retention.max_age {
            let now = SystemTime::now();
            // Skip the last element: the newest checkpoint always survives.
            for path in &files[excess..files.len() - 1] {
                let modified = fs::metadata(path).and_then(|m| m.modified())?;
                let age = now.duration_since(modified).unwrap_or_default();
                if age > max_age {
                    fs::remove_file(path)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::paper_running_example;
    use crate::policy::SelectionPolicy;
    use crate::tracker::build_tracker;

    fn unique_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tin_ckpt_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Append one `len | crc32 | body` section.
    fn append_section(out: &mut Vec<u8>, section: &str, body: &[u8]) {
        out.extend_from_slice(&section_header(section, body.len(), codec::crc32(body)).unwrap());
        out.extend_from_slice(body);
    }

    fn sample_checkpoint() -> Checkpoint {
        let config = PolicyConfig::Plain(SelectionPolicy::Fifo);
        let mut tracker = build_tracker(&config, 3).unwrap();
        tracker.process_all(&paper_running_example());
        Checkpoint::capture(
            &config,
            StreamCursor {
                processed: 6,
                last_time: Some(8.0),
                total_quantity: 21.0,
                newborn_quantity: 9.0,
                peak_footprint_bytes: 1234,
            },
            tracker.as_mut(),
        )
        .unwrap()
    }

    #[test]
    fn capture_leaves_tracker_untouched() {
        let config = PolicyConfig::Plain(SelectionPolicy::ProportionalDense);
        let mut tracker = build_tracker(&config, 3).unwrap();
        tracker.process_all(&paper_running_example());
        let before: Vec<_> = (0..3)
            .map(|v| {
                let v = VertexId::new(v);
                (tracker.buffered(v), tracker.origins(v))
            })
            .collect();
        let _ = Checkpoint::capture(&config, StreamCursor::default(), tracker.as_mut()).unwrap();
        for (i, (buffered, origins)) in before.into_iter().enumerate() {
            let v = VertexId::new(i as u32);
            assert_eq!(tracker.buffered(v), buffered);
            assert_eq!(tracker.origins(v), origins);
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.encode().unwrap();
        let back = Checkpoint::decode(&bytes, "").unwrap();
        assert_eq!(back.policy, ckpt.policy);
        assert_eq!(back.num_vertices, 3);
        assert_eq!(back.cursor, ckpt.cursor);
        assert_eq!(back.states, ckpt.states);
    }

    #[test]
    fn restore_reproduces_state_bit_identically() {
        let config = PolicyConfig::Plain(SelectionPolicy::Fifo);
        let ckpt = sample_checkpoint();
        let mut fresh = build_tracker(&config, 3).unwrap();
        ckpt.restore_into(fresh.as_mut()).unwrap();
        let mut reference = build_tracker(&config, 3).unwrap();
        reference.process_all(&paper_running_example());
        for v in 0..3u32 {
            let v = VertexId::new(v);
            assert_eq!(fresh.buffered(v), reference.buffered(v));
            assert_eq!(fresh.origins(v).shares(), reference.origins(v).shares());
        }
    }

    #[test]
    fn restore_rejects_vertex_count_mismatch() {
        let config = PolicyConfig::Plain(SelectionPolicy::Fifo);
        let ckpt = sample_checkpoint();
        let mut wrong = build_tracker(&config, 5).unwrap();
        assert!(matches!(
            ckpt.restore_into(wrong.as_mut()),
            Err(TinError::InvalidConfig(_))
        ));
    }

    /// A file with valid CRCs whose policy and states sections declare a
    /// huge vertex count decodes to a corrupt-checkpoint error. Sizing an
    /// allocation by such a count aborts the process (2^40 entries) or
    /// panics on capacity overflow (2^60).
    #[test]
    fn decode_rejects_state_counts_the_body_cannot_hold() {
        for count in [1usize << 40, 1 << 60] {
            let mut bytes = MAGIC.to_vec();
            codec::put_u32(&mut bytes, SCHEMA_VERSION);
            let mut body = Vec::new();
            PolicyConfig::Plain(SelectionPolicy::Fifo).encode_into(&mut body);
            codec::put_usize(&mut body, count);
            append_section(&mut bytes, "policy", &body);
            body.clear();
            StreamCursor::default().encode_into(&mut body);
            append_section(&mut bytes, "cursor", &body);
            body.clear();
            codec::put_usize(&mut body, count);
            append_section(&mut bytes, "states", &body);
            let err = Checkpoint::decode(&bytes, "crafted.tin").unwrap_err();
            assert!(
                matches!(&err, TinError::CorruptCheckpoint { section, .. } if section == "states"),
                "{count}: {err}"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_magic_and_version() {
        let ckpt = sample_checkpoint();
        let mut bytes = ckpt.encode().unwrap();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Checkpoint::decode(&bytes, "x.tin"),
            Err(TinError::CorruptCheckpoint { section, path, .. })
                if section == "header" && path == "x.tin"
        ));

        let mut bytes = ckpt.encode().unwrap();
        bytes[8] = 99;
        assert!(matches!(
            Checkpoint::decode(&bytes, ""),
            Err(TinError::CheckpointVersionMismatch {
                found: 99,
                supported: SCHEMA_VERSION
            })
        ));
    }

    #[test]
    fn decode_detects_corruption_in_every_section() {
        let ckpt = sample_checkpoint();
        let clean = ckpt.encode().unwrap();
        // Flip one byte at a time across the whole file; every position must
        // either fail validation or (for the rare CRC-colliding positions,
        // which do not exist for single-bit flips) decode identically.
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            let result = Checkpoint::decode(&bytes, "");
            assert!(
                matches!(
                    result,
                    Err(TinError::CorruptCheckpoint { .. })
                        | Err(TinError::CheckpointVersionMismatch { .. })
                ),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn oversized_sections_are_a_typed_error() {
        assert_eq!(section_len("cursor", 41).unwrap(), 41);
        assert_eq!(section_len("states", u32::MAX as usize).unwrap(), u32::MAX);
        // One byte past the length field's range, without allocating 4 GiB.
        let too_long = u32::MAX as usize + 1;
        let err = section_len("states", too_long).unwrap_err();
        assert_eq!(
            err,
            TinError::CheckpointTooLarge {
                section: "states".into(),
                bytes: too_long as u64,
            }
        );
        assert!(err.to_string().contains("`states`"));
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = sample_checkpoint().encode().unwrap();
        for len in [0, 5, 12, 20, bytes.len() - 1] {
            assert!(
                matches!(
                    Checkpoint::decode(&bytes[..len], ""),
                    Err(TinError::CorruptCheckpoint { .. })
                ),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn atomic_write_and_read_round_trips() {
        let dir = unique_dir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-000000000006.tin");
        let ckpt = sample_checkpoint();
        ckpt.write_atomic(&path).unwrap();
        // No temp file left behind.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        assert_eq!(fs::read(&path).unwrap(), ckpt.encode().unwrap());
        let back = Checkpoint::read(&path).unwrap();
        assert_eq!(back.states, ckpt.states);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// An attempt whose stream fails partway, after more than a write
    /// buffer's worth of bytes reached the temp file, leaves neither the temp
    /// file nor the final name; the next attempt writes the whole file.
    #[test]
    fn failed_write_attempt_removes_its_temp_file() {
        let dir = unique_dir("partial");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-000000000006.tin");
        let ckpt = sample_checkpoint();
        let mut source = ckpt.source();
        let layout = source.layout().unwrap();
        let err = write_atomic_with(&path, |sink| {
            source.emit(&layout, sink)?;
            sink(&vec![0; WRITE_BUFFER_BYTES])?;
            Err(io::Error::other("device full").into())
        })
        .unwrap_err();
        assert!(matches!(err, TinError::Io(_)), "{err:?}");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);

        write_atomic_with(&path, |sink| source.emit(&layout, sink)).unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        assert_eq!(fs::read(&path).unwrap(), ckpt.encode().unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A write pass whose states are not as long as the length pass counted
    /// (the payloads changed between the passes) fails its attempt and
    /// leaves no file.
    #[test]
    fn states_that_change_length_between_passes_fail_the_attempt() {
        let dir = unique_dir("changed");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-000000000006.tin");
        let ckpt = sample_checkpoint();
        let layout = ckpt.source().layout().unwrap();
        let mut grown = sample_checkpoint();
        grown.states[1].1.push(0);
        let err = write_atomic_with(&path, |sink| grown.source().emit(&layout, sink)).unwrap_err();
        assert!(
            matches!(&err, TinError::Io(reason) if reason.contains("length pass")),
            "{err:?}"
        );
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_saves_lists_and_loads() {
        let dir = unique_dir("store");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut ckpt = sample_checkpoint();
        for processed in [2, 4, 6] {
            ckpt.cursor.processed = processed;
            store.save(&ckpt).unwrap();
        }
        assert_eq!(store.saves(), 3);
        let files = store.list().unwrap();
        assert_eq!(files.len(), 3);
        assert_eq!(store.latest().unwrap(), Some(files[2].clone()));
        let (path, loaded) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(path, files[2]);
        assert_eq!(loaded.cursor.processed, 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_count_retention_prunes_oldest() {
        let dir = unique_dir("retention");
        let mut store = CheckpointStore::open(&dir)
            .unwrap()
            .with_retention(RetentionPolicy {
                max_count: 2,
                max_age: None,
            });
        let mut ckpt = sample_checkpoint();
        for processed in [1, 2, 3, 4] {
            ckpt.cursor.processed = processed;
            store.save(&ckpt).unwrap();
        }
        let files = store.list().unwrap();
        assert_eq!(files.len(), 2);
        assert!(files[0].to_string_lossy().contains("000000000003"));
        assert!(files[1].to_string_lossy().contains("000000000004"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_age_retention_keeps_newest() {
        let dir = unique_dir("age");
        let mut store = CheckpointStore::open(&dir)
            .unwrap()
            .with_retention(RetentionPolicy {
                max_count: 10,
                max_age: Some(Duration::ZERO),
            });
        let mut ckpt = sample_checkpoint();
        for processed in [1, 2, 3] {
            ckpt.cursor.processed = processed;
            store.save(&ckpt).unwrap();
        }
        // Zero max-age prunes everything except the always-kept newest file.
        let files = store.list().unwrap();
        assert_eq!(files.len(), 1);
        assert!(files[0].to_string_lossy().contains("000000000003"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_retries_transient_faults() {
        let dir = unique_dir("retry");
        let mut store = CheckpointStore::open(&dir)
            .unwrap()
            .with_retry(3, Duration::from_millis(1));
        let failures = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(2));
        let hook_failures = failures.clone();
        store.set_fault_hook(Box::new(move || {
            if hook_failures
                .fetch_update(
                    std::sync::atomic::Ordering::SeqCst,
                    std::sync::atomic::Ordering::SeqCst,
                    |n| n.checked_sub(1),
                )
                .is_ok()
            {
                Err(std::io::Error::other("injected transient fault"))
            } else {
                Ok(())
            }
        }));
        // Two injected failures, three attempts: the save succeeds.
        let ckpt = sample_checkpoint();
        store.save(&ckpt).unwrap();
        assert_eq!(store.saves(), 1);
        // Exhausting every attempt surfaces the I/O error.
        failures.store(usize::MAX, std::sync::atomic::Ordering::SeqCst);
        assert!(matches!(store.save(&ckpt), Err(TinError::Io(_))));
        assert_eq!(store.saves(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_latest_valid_falls_back_past_corrupt_files() {
        let dir = unique_dir("fallback");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut ckpt = sample_checkpoint();
        ckpt.cursor.processed = 2;
        store.save(&ckpt).unwrap();
        ckpt.cursor.processed = 4;
        let newest = store.save(&ckpt).unwrap();
        // Corrupt the newest file: recovery falls back to processed=2.
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let (path, loaded) = store.load_latest_valid().unwrap().unwrap();
        assert!(path.to_string_lossy().contains("000000000002"));
        assert_eq!(loaded.cursor.processed, 2);
        // Corrupt every file: the newest file's error comes back.
        let oldest = store.path_for(2);
        let mut bytes = fs::read(&oldest).unwrap();
        bytes[20] ^= 0xFF;
        fs::write(&oldest, &bytes).unwrap();
        let err = store.load_latest_valid().unwrap_err();
        assert!(matches!(
            &err,
            TinError::CorruptCheckpoint { path, .. } if path.contains("000000000004")
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_latest_skips_refusals_and_stops_at_other_errors() {
        let dir = unique_dir("resume_latest");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut ckpt = sample_checkpoint();
        for processed in [2, 4] {
            ckpt.cursor.processed = processed;
            store.save(&ckpt).unwrap();
        }
        let refuse = |c: &Checkpoint| TinError::CorruptCheckpoint {
            path: String::new(),
            section: "states".into(),
            reason: format!("refused at {}", c.cursor.processed),
        };
        // The newest file is refused: the older one resumes.
        let (path, processed) = store
            .resume_latest(|c| match c.cursor.processed {
                4 => Err(refuse(&c)),
                p => Ok(p),
            })
            .unwrap()
            .unwrap();
        assert_eq!(processed, 2);
        assert_eq!(path, store.path_for(2));
        // Every file refused: the newest file's refusal, with its path.
        let err = store
            .resume_latest(|c| Err::<(), _>(refuse(&c)))
            .unwrap_err();
        let newest = store.path_for(4).display().to_string();
        assert!(matches!(
            &err,
            TinError::CorruptCheckpoint { path, reason, .. }
                if *path == newest && reason == "refused at 4"
        ));
        // Any other error ends the search at the newest file.
        let mut tried = Vec::new();
        let err = store
            .resume_latest(|c| {
                tried.push(c.cursor.processed);
                Err::<(), _>(TinError::InvalidConfig("wrong run".into()))
            })
            .unwrap_err();
        assert_eq!(err, TinError::InvalidConfig("wrong run".into()));
        assert_eq!(tried, vec![4]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_loads_none() {
        let dir = unique_dir("empty");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load_latest_valid().unwrap().is_none());
        assert!(store.latest().unwrap().is_none());
        assert_eq!(store.saves(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
