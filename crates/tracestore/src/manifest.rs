//! Multi-segment datasets: the manifest format and the per-monitor,
//! rotation-capable dataset writer.
//!
//! A single [`crate::writer::TraceWriter`] writes one monitor's entries into
//! one segment — a building block, not a dataset: the paper's deployment ran
//! several monitors for ten days. This module is what ties segments
//! together:
//!
//! * **per-monitor chains** — every monitor writes its own segment files
//!   through its own [`MonitorWriter`], so the read side can decode one
//!   chain per worker with no shared state;
//! * **segment rotation** — a monitor's segment is finished and a new one
//!   opened every [`DatasetConfig::rotate_after_entries`] entries, keeping
//!   individual files bounded over arbitrarily long horizons;
//! * **the manifest** — a small index file tying the segment files of one
//!   dataset together: monitor labels, and for every segment its file name,
//!   owning monitor, rotation sequence number and entry count. Readers open
//!   the manifest and get the same merged, time-ordered view a single
//!   segment provides (see [`crate::reader::ManifestReader`]).
//!
//! ```text
//! manifest := seal("IPMM", version, payload)
//! payload  := labels segment_count:varint segment*
//! labels   := label_count:varint (len:varint label)*
//! segment  := name_len:varint name monitor:varint sequence:varint
//!             entries:varint
//! ```
//!
//! `seal` is the envelope of `crate::segment` shared with the checkpoint:
//! magic, version byte, payload, CRC-32 of the payload.
//!
//! Inside a segment file, entries and connection records carry monitor
//! index 0 (the segment knows only its own monitor — see
//! [`crate::segment`]); the manifest maps each segment back to its global
//! monitor index, and the reader stamps it on every yielded record.
//!
//! Segment files referenced by a manifest are segments of the current
//! format version; the compatibility rule lives in one place, on the
//! version constant of [`crate::segment`].
//! The manifest itself carries its own version byte, independent of the
//! segment format.
//!
//! The manifest and checkpoint bytes this module parses come from disk, so
//! it denies indexing, `unwrap`, `expect` and `panic!`: a bad byte is a
//! [`SegmentError`], never a panic.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use crate::fault::{write_file_durable, RealStorage, RetryFile, RetryPolicy, Storage, StorageFile};
use crate::record::{ConnectionRecord, TraceEntry};
use crate::segment::{
    checked_count, decode_connections, decode_labels, encode_connections, encode_labels,
    encode_string, seal, unseal, Cursor, SegmentConfig, SegmentError, SegmentSummary,
};
use crate::writer::TraceWriter;
use ipfs_mon_obs as obs;
use ipfs_mon_types::varint;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every manifest file.
pub const MANIFEST_MAGIC: &[u8; 4] = b"IPMM";
/// Current manifest format version.
pub const MANIFEST_VERSION: u8 = 1;
/// File name of the manifest inside a dataset directory.
pub const MANIFEST_FILE_NAME: &str = "manifest.ipmm";
/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"IPMC";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u8 = 1;
/// File name of the durability checkpoint inside a dataset directory. Present
/// only while a collection is in flight (or after a crash); a clean
/// [`DatasetWriter::finish`] removes it once the manifest is durable.
pub const CHECKPOINT_FILE_NAME: &str = "manifest.ckpt";

/// One segment file of a multi-segment dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name of the segment, relative to the manifest's directory.
    pub file_name: String,
    /// Global index of the monitor whose entries the segment holds.
    pub monitor: usize,
    /// Rotation sequence of the segment within its monitor (0, 1, 2, …).
    pub sequence: u64,
    /// Number of trace entries stored in the segment.
    pub entries: u64,
}

impl SegmentMeta {
    /// The file name of segment `sequence` in `monitor`'s chain — what
    /// [`MonitorWriter`] creates, the live tail opens and crash recovery
    /// parses back with [`SegmentMeta::parse_file_name`].
    pub(crate) fn file_name_of(monitor: usize, sequence: u64) -> String {
        format!("seg-{monitor:03}-{sequence:05}.seg")
    }

    /// Inverse of [`SegmentMeta::file_name_of`]: `(monitor, sequence)`, or
    /// `None` for a file this crate did not name — including another
    /// spelling of the same numbers (`seg-0-0.seg`, a sign, extra padding).
    pub(crate) fn parse_file_name(name: &str) -> Option<(usize, u64)> {
        let rest = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
        let (monitor, sequence) = rest.split_once('-')?;
        let (monitor, sequence) = (monitor.parse().ok()?, sequence.parse().ok()?);
        (Self::file_name_of(monitor, sequence) == name).then_some((monitor, sequence))
    }

    /// `count:varint row*`, a row being `name_len:varint name monitor:varint
    /// sequence:varint entries:varint` — the manifest's segment list, which
    /// the checkpoint repeats per monitor for its sealed segments.
    fn encode_list(rows: &[Self], payload: &mut Vec<u8>) {
        varint::encode(rows.len() as u64, payload);
        for row in rows {
            encode_string(&row.file_name, payload);
            varint::encode(row.monitor as u64, payload);
            varint::encode(row.sequence, payload);
            varint::encode(row.entries, payload);
        }
    }

    /// Inverse of [`SegmentMeta::encode_list`].
    fn decode_list(cursor: &mut Cursor<'_>) -> Result<Vec<Self>, SegmentError> {
        // A row is at least four bytes.
        let count = checked_count(cursor, 4, "segment")?;
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            rows.push(Self {
                file_name: cursor.string()?,
                monitor: cursor.varint()? as usize,
                sequence: cursor.varint()?,
                entries: cursor.varint()?,
            });
        }
        Ok(rows)
    }
}

/// The index of a multi-segment dataset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Human-readable monitor labels; indices are the global monitor indices.
    pub monitor_labels: Vec<String>,
    /// All segments, ordered by `(monitor, sequence)`.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// Total trace entries across all segments.
    pub fn total_entries(&self) -> u64 {
        self.segments.iter().map(|s| s.entries).sum()
    }

    /// The segments of one monitor, in rotation order.
    pub fn segments_of(&self, monitor: usize) -> impl Iterator<Item = &SegmentMeta> {
        self.segments.iter().filter(move |s| s.monitor == monitor)
    }

    /// Encodes the manifest as bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_labels(&self.monitor_labels, &mut payload);
        SegmentMeta::encode_list(&self.segments, &mut payload);
        seal(MANIFEST_MAGIC, MANIFEST_VERSION, &payload)
    }

    /// Parses a manifest from bytes, verifying magic, version and CRC.
    pub fn decode(bytes: &[u8]) -> Result<Self, SegmentError> {
        let mut cursor = Cursor::new(unseal(MANIFEST_MAGIC, MANIFEST_VERSION, "manifest", bytes)?);
        let monitor_labels = decode_labels(&mut cursor)?;
        let segments = SegmentMeta::decode_list(&mut cursor)?;
        if let Some(stray) = segments.iter().find(|s| s.monitor >= monitor_labels.len()) {
            return Err(SegmentError::Corrupt(format!(
                "segment references monitor {} but the manifest has {} labels",
                stray.monitor,
                monitor_labels.len()
            )));
        }
        if !cursor.is_at_end() {
            return Err(SegmentError::Corrupt("trailing bytes in manifest".into()));
        }
        Ok(Manifest {
            monitor_labels,
            segments,
        })
    }

    /// Writes the manifest into `dir` under [`MANIFEST_FILE_NAME`] and
    /// returns the full path. Durable and atomic: the bytes go to a temp
    /// file that is fsynced and renamed over the manifest, then the
    /// directory entry is fsynced — a crash at any point leaves either the
    /// previous manifest or the new one, never a torn mix.
    pub fn write_to(&self, dir: impl AsRef<Path>) -> Result<PathBuf, SegmentError> {
        self.write_to_with(dir, &RealStorage)
    }

    /// [`Manifest::write_to`] through an explicit [`Storage`] (fault
    /// injection, tests).
    pub fn write_to_with(
        &self,
        dir: impl AsRef<Path>,
        storage: &dyn Storage,
    ) -> Result<PathBuf, SegmentError> {
        let path = dir.as_ref().join(MANIFEST_FILE_NAME);
        write_file_durable(storage, &path, &self.encode())?;
        Ok(path)
    }

    /// Loads a manifest from `path` — either the manifest file itself or a
    /// dataset directory containing one.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SegmentError> {
        let path = path.as_ref();
        let file = if path.is_dir() {
            path.join(MANIFEST_FILE_NAME)
        } else {
            path.to_path_buf()
        };
        Self::decode(&std::fs::read(file)?)
    }
}

// ---------------------------------------------------------------------------
// Durability checkpoints
// ---------------------------------------------------------------------------

/// Durable state of a monitor's *open* (not yet rotated) segment at
/// checkpoint time: how much of the file is fsynced and chunk-complete, and
/// the footer-bound connection records that otherwise exist only in memory.
///
/// `durable_bytes`/`durable_entries` bound what recovery must find: every
/// byte up to `durable_bytes` was written *and fsynced* before the
/// checkpoint itself became visible, so a crash can only cost entries
/// appended after the checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenSegmentState {
    /// File name of the open segment, relative to the dataset directory.
    pub file_name: String,
    /// Rotation sequence of the open segment.
    pub sequence: u64,
    /// Bytes of the segment file (header + complete chunk frames) that were
    /// fsynced before the checkpoint was published.
    pub durable_bytes: u64,
    /// Entries contained in those durable chunk frames.
    pub durable_entries: u64,
    /// Connection records destined for the segment footer (with local
    /// monitor index 0, as stored in per-monitor segments).
    pub connections: Vec<ConnectionRecord>,
}

/// Per-monitor slice of a [`Checkpoint`]: the sealed chain so far plus the
/// durable state of the open segment, if one exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorCheckpoint {
    /// Global monitor index.
    pub monitor: usize,
    /// Segments already sealed (rotated, fsynced) for this monitor.
    pub sealed: Vec<SegmentMeta>,
    /// The in-flight segment, if the monitor has one open.
    pub open: Option<OpenSegmentState>,
}

/// A durability checkpoint: the recovery anchor written periodically by
/// [`DatasetWriter::checkpoint`].
///
/// ```text
/// checkpoint := seal("IPMC", version, payload)
/// payload    := labels monitor_count:varint monitor*
/// monitor    := index:varint sealed_count:varint segment* open_flag:u8 [open]
/// open       := name_len:varint name sequence:varint durable_bytes:varint
///               durable_entries:varint conn_count:varint connection*
/// ```
///
/// `seal`, `labels` and `segment` are the manifest's (see the [module
/// docs](self)); connections use the segment-footer wire form. The file is
/// replaced through [`write_file_durable`] like the manifest, after the
/// open segment files themselves were fsynced — so everything a checkpoint
/// claims durable really is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monitor labels, indexed by global monitor index.
    pub monitor_labels: Vec<String>,
    /// One slice per monitor, in monitor order.
    pub monitors: Vec<MonitorCheckpoint>,
}

impl Checkpoint {
    /// Encodes the checkpoint as bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_labels(&self.monitor_labels, &mut payload);
        varint::encode(self.monitors.len() as u64, &mut payload);
        for monitor in &self.monitors {
            varint::encode(monitor.monitor as u64, &mut payload);
            SegmentMeta::encode_list(&monitor.sealed, &mut payload);
            match &monitor.open {
                None => payload.push(0),
                Some(open) => {
                    payload.push(1);
                    encode_string(&open.file_name, &mut payload);
                    varint::encode(open.sequence, &mut payload);
                    varint::encode(open.durable_bytes, &mut payload);
                    varint::encode(open.durable_entries, &mut payload);
                    encode_connections(&open.connections, &mut payload);
                }
            }
        }
        seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &payload)
    }

    /// Parses a checkpoint from bytes, verifying magic, version and CRC.
    pub fn decode(bytes: &[u8]) -> Result<Self, SegmentError> {
        let mut cursor = Cursor::new(unseal(
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            "checkpoint",
            bytes,
        )?);
        let monitor_labels = decode_labels(&mut cursor)?;
        // A monitor slice is at least an index, a sealed count and a marker.
        let monitor_count = checked_count(&mut cursor, 3, "checkpoint monitor")?;
        let mut monitors = Vec::with_capacity(monitor_count);
        for _ in 0..monitor_count {
            let monitor = cursor.varint()? as usize;
            if monitor >= monitor_labels.len() {
                return Err(SegmentError::Corrupt(format!(
                    "checkpoint references monitor {monitor} but has {} labels",
                    monitor_labels.len()
                )));
            }
            let sealed = SegmentMeta::decode_list(&mut cursor)?;
            let open = match cursor.byte()? {
                0 => None,
                1 => Some(OpenSegmentState {
                    file_name: cursor.string()?,
                    sequence: cursor.varint()?,
                    durable_bytes: cursor.varint()?,
                    durable_entries: cursor.varint()?,
                    connections: decode_connections(&mut cursor)?,
                }),
                other => {
                    return Err(SegmentError::Corrupt(format!(
                        "invalid checkpoint open-segment marker {other}"
                    )))
                }
            };
            monitors.push(MonitorCheckpoint {
                monitor,
                sealed,
                open,
            });
        }
        if !cursor.is_at_end() {
            return Err(SegmentError::Corrupt("trailing bytes in checkpoint".into()));
        }
        Ok(Checkpoint {
            monitor_labels,
            monitors,
        })
    }

    /// Writes the checkpoint into `dir` under [`CHECKPOINT_FILE_NAME`],
    /// durably and atomically, and returns the full path.
    pub fn write_to(
        &self,
        dir: impl AsRef<Path>,
        storage: &dyn Storage,
    ) -> Result<PathBuf, SegmentError> {
        let path = dir.as_ref().join(CHECKPOINT_FILE_NAME);
        write_file_durable(storage, &path, &self.encode())?;
        Ok(path)
    }

    /// Loads the checkpoint of a dataset directory, if one exists.
    /// `Ok(None)` means no checkpoint file; a present-but-corrupt checkpoint
    /// is an error (recovery treats it as absent).
    pub fn load(dir: impl AsRef<Path>) -> Result<Option<Self>, SegmentError> {
        let path = dir.as_ref().join(CHECKPOINT_FILE_NAME);
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(Self::decode(&bytes)?)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Removes the checkpoint of a dataset directory, if there is one — once
    /// a durable manifest supersedes it.
    pub(crate) fn remove_from(dir: &Path, storage: &dyn Storage) -> Result<(), SegmentError> {
        match storage.remove_file(&dir.join(CHECKPOINT_FILE_NAME)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }

    /// The last durable entry count per monitor: sealed entries plus the
    /// open segment's durable entries. Nothing at or below this may be lost
    /// by a crash.
    pub fn durable_entries(&self, monitor: usize) -> u64 {
        self.monitors
            .iter()
            .filter(|m| m.monitor == monitor)
            .map(|m| {
                m.sealed.iter().map(|s| s.entries).sum::<u64>()
                    + m.open.as_ref().map_or(0, |o| o.durable_entries)
            })
            .sum()
    }
}

/// Configuration of a multi-segment dataset writer.
#[derive(Debug, Clone, Copy)]
pub struct DatasetConfig {
    /// Per-segment encoding configuration.
    pub segment: SegmentConfig,
    /// A monitor's current segment is finished and a fresh one opened once it
    /// holds this many entries. `u64::MAX` disables rotation.
    pub rotate_after_entries: u64,
    /// A durability checkpoint ([`DatasetWriter::checkpoint`]) is sealed
    /// automatically after this many entries arrive across all monitors.
    /// `u64::MAX` (the default) disables automatic checkpointing; callers
    /// can still checkpoint explicitly.
    pub checkpoint_after_entries: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            segment: SegmentConfig::default(),
            rotate_after_entries: 1_000_000,
            checkpoint_after_entries: u64::MAX,
        }
    }
}

/// The sink type behind an open per-monitor segment: a buffered,
/// transient-retry-wrapped [`StorageFile`].
type SegmentSink = BufWriter<RetryFile>;

/// The writer for one monitor's segment chain. Owns its open file and all
/// rotation state; the chains of a dataset are tied back together by
/// [`DatasetWriter::finish`].
///
/// All file-system mutations go through the [`Storage`] the writer was
/// created with; transient I/O errors are absorbed by a bounded-backoff
/// [`RetryFile`] (`store.io_retries`). Rotation seals segments durably:
/// finish, fsync the file, fsync the directory entry — only then does the
/// segment count as sealed chain state.
pub struct MonitorWriter {
    dir: PathBuf,
    storage: Arc<dyn Storage>,
    monitor: usize,
    label: String,
    config: DatasetConfig,
    current: Option<TraceWriter<SegmentSink>>,
    current_entries: u64,
    sequence: u64,
    completed: Vec<SegmentMeta>,
    bytes_written: u64,
    total_entries: u64,
    /// Obs progress: `ingest.entries` (all monitors) and
    /// `ingest.entries.<label>`, batched so the per-append cost is a local
    /// add. Flushed by drop when the writer finishes.
    obs_entries: obs::BatchedCounter,
    obs_entries_label: obs::BatchedCounter,
}

impl MonitorWriter {
    fn new(
        dir: PathBuf,
        storage: Arc<dyn Storage>,
        monitor: usize,
        label: String,
        config: DatasetConfig,
    ) -> Self {
        let obs_entries = obs::BatchedCounter::new(obs::counter("ingest.entries"));
        let obs_entries_label =
            obs::BatchedCounter::new(obs::counter(&format!("ingest.entries.{label}")));
        Self {
            dir,
            storage,
            monitor,
            label,
            config,
            current: None,
            current_entries: 0,
            sequence: 0,
            completed: Vec::new(),
            bytes_written: 0,
            total_entries: 0,
            obs_entries,
            obs_entries_label,
        }
    }

    /// Reconstructs a writer mid-chain: `sealed` is the surviving segment
    /// chain of this monitor (from a recovered manifest) and appends resume
    /// at the sequence after the last sealed segment. Used by
    /// [`DatasetWriter::resume`].
    fn resume_from(
        dir: PathBuf,
        storage: Arc<dyn Storage>,
        monitor: usize,
        label: String,
        config: DatasetConfig,
        sealed: Vec<SegmentMeta>,
    ) -> Self {
        let mut writer = Self::new(dir, storage, monitor, label, config);
        writer.sequence = sealed.iter().map(|s| s.sequence + 1).max().unwrap_or(0);
        writer.total_entries = sealed.iter().map(|s| s.entries).sum();
        writer.completed = sealed;
        writer
    }

    /// The global monitor index this writer ingests for.
    pub fn monitor(&self) -> usize {
        self.monitor
    }

    /// Entries appended so far (all segments).
    pub fn total_entries(&self) -> u64 {
        self.total_entries
    }

    fn writer(&mut self) -> Result<&mut TraceWriter<SegmentSink>, SegmentError> {
        let writer = match self.current.take() {
            Some(writer) => writer,
            None => {
                let name = SegmentMeta::file_name_of(self.monitor, self.sequence);
                let file = self.storage.create(&self.dir.join(name))?;
                let file = RetryFile::new(file, RetryPolicy::default());
                let writer = TraceWriter::new(
                    BufWriter::new(file),
                    self.label.clone(),
                    self.config.segment,
                )?;
                self.current_entries = 0;
                writer
            }
        };
        Ok(self.current.insert(writer))
    }

    /// Appends one entry. The entry's `monitor` field must match this
    /// writer's monitor; the segment does not store it.
    pub fn append(&mut self, entry: &TraceEntry) -> Result<(), SegmentError> {
        assert!(
            entry.monitor == self.monitor,
            "entry for monitor {} appended to the writer of monitor {}",
            entry.monitor,
            self.monitor
        );
        // Rotate lazily, only when another entry actually arrives: connection
        // records trailing the last entry then land in the final segment
        // instead of opening an empty one.
        if self.current.is_some() && self.current_entries >= self.config.rotate_after_entries {
            self.rotate()?;
        }
        self.writer()?.append(entry)?;
        self.current_entries += 1;
        self.total_entries += 1;
        self.obs_entries.incr();
        self.obs_entries_label.incr();
        Ok(())
    }

    /// Stores a connection record in the current segment's footer.
    pub fn record_connection(&mut self, record: ConnectionRecord) -> Result<(), SegmentError> {
        self.writer()?.record_connection(record);
        Ok(())
    }

    /// Finishes the current segment and arranges for the next append to open
    /// a fresh one. The sealed segment is made durable — file fsync, then
    /// directory-entry fsync — *before* it enters the sealed chain, so chain
    /// state never references bytes a power loss could still take away.
    fn rotate(&mut self) -> Result<(), SegmentError> {
        let Some(writer) = self.current.take() else {
            return Ok(());
        };
        let file_name = SegmentMeta::file_name_of(self.monitor, self.sequence);
        let (summary, sink): (SegmentSummary, SegmentSink) = writer.finish_into()?;
        let mut file = sink
            .into_inner()
            .map_err(|e| SegmentError::Io(e.into_error()))?;
        file.sync_all()?;
        drop(file);
        self.storage.sync_dir(&self.dir)?;
        obs::counter!("ingest.segments_rotated").incr();
        self.bytes_written += summary.bytes_written;
        self.completed.push(SegmentMeta {
            file_name,
            monitor: self.monitor,
            sequence: self.sequence,
            entries: summary.total_entries,
        });
        self.sequence += 1;
        self.current_entries = 0;
        Ok(())
    }

    /// Makes the open segment durable and returns this monitor's slice of a
    /// dataset checkpoint: spill buffered entries as chunk frames, flush,
    /// fsync the file, and report exactly how many bytes/entries are now
    /// stable together with the footer-bound connection records.
    pub fn prepare_checkpoint(&mut self) -> Result<MonitorCheckpoint, SegmentError> {
        let file_name = SegmentMeta::file_name_of(self.monitor, self.sequence);
        let open = match self.current.as_mut() {
            None => None,
            Some(writer) => {
                writer.flush_buffered()?;
                writer.sink_mut().flush()?;
                writer.sink_mut().get_mut().sync_all()?;
                Some(OpenSegmentState {
                    file_name,
                    sequence: self.sequence,
                    durable_bytes: writer.bytes_written(),
                    durable_entries: writer.spilled_entries(),
                    connections: writer.connections().to_vec(),
                })
            }
        };
        Ok(MonitorCheckpoint {
            monitor: self.monitor,
            sealed: self.completed.clone(),
            open,
        })
    }

    /// Flushes and closes the segment chain, returning the metadata of every
    /// segment written. A monitor that never received data returns no
    /// segments.
    pub fn finish(mut self) -> Result<MonitorSummary, SegmentError> {
        self.rotate()?;
        Ok(MonitorSummary {
            segments: self.completed,
            bytes_written: self.bytes_written,
            total_entries: self.total_entries,
        })
    }
}

/// What one [`MonitorWriter`] produced.
#[derive(Debug, Clone)]
pub struct MonitorSummary {
    /// Metadata of the segments written, in rotation order.
    pub segments: Vec<SegmentMeta>,
    /// Total segment bytes written by this monitor.
    pub bytes_written: u64,
    /// Total entries written by this monitor.
    pub total_entries: u64,
}

/// Statistics of a finished multi-segment dataset.
#[derive(Debug, Clone)]
pub struct DatasetSummary {
    /// The manifest that was written.
    pub manifest: Manifest,
    /// Where the manifest file lives.
    pub manifest_path: PathBuf,
    /// Number of segment files.
    pub segment_count: usize,
    /// Total entries across all segments.
    pub total_entries: u64,
    /// Total segment bytes written (excluding the manifest).
    pub bytes_written: u64,
}

/// Writes a multi-segment dataset into a directory: one rotating segment
/// chain per monitor plus a closing manifest.
///
/// [`DatasetWriter::append`] / [`DatasetWriter::record_connection`] route
/// entries and connection records to their monitor's chain;
/// [`DatasetWriter::checkpoint`] seals a crash-recovery point, and
/// [`DatasetWriter::finish`] closes everything and writes the manifest.
///
/// The first I/O error ends the writer: the frame, footer or checkpoint it
/// was writing may be partly on disk and the entries it carried are no
/// longer buffered, so every later `append`, `record_connection`,
/// `checkpoint` and `finish` returns that error (`store.writer_failed`
/// counts the deaths). [`crate::recover::recover_dataset`] and
/// [`DatasetWriter::resume`] are the repair. A refused entry
/// ([`SegmentError::InvalidConfig`]) changes nothing on disk and leaves the
/// writer usable.
pub struct DatasetWriter {
    dir: PathBuf,
    storage: Arc<dyn Storage>,
    monitor_labels: Vec<String>,
    config: DatasetConfig,
    writers: Vec<MonitorWriter>,
    entries_since_checkpoint: u64,
    checkpoints_written: u64,
    /// Kind and text of the I/O error that ended the writer.
    failed: Option<(io::ErrorKind, String)>,
}

impl DatasetWriter {
    /// Creates the dataset directory (if needed) and one segment-chain writer
    /// per monitor.
    pub fn create(
        dir: impl AsRef<Path>,
        monitor_labels: Vec<String>,
        config: DatasetConfig,
    ) -> Result<Self, SegmentError> {
        Self::create_with(dir, monitor_labels, config, Arc::new(RealStorage))
    }

    /// [`DatasetWriter::create`] through an explicit [`Storage`] (fault
    /// injection, tests). Every file the dataset writes — segments,
    /// checkpoints, the manifest — goes through `storage`.
    pub fn create_with(
        dir: impl AsRef<Path>,
        monitor_labels: Vec<String>,
        config: DatasetConfig,
        storage: Arc<dyn Storage>,
    ) -> Result<Self, SegmentError> {
        config.segment.validate()?;
        if config.rotate_after_entries == 0 {
            return Err(SegmentError::InvalidConfig(
                "rotation threshold must be positive".into(),
            ));
        }
        if config.checkpoint_after_entries == 0 {
            return Err(SegmentError::InvalidConfig(
                "checkpoint threshold must be positive".into(),
            ));
        }
        let dir = dir.as_ref().to_path_buf();
        storage.create_dir_all(&dir)?;
        let writers = monitor_labels
            .iter()
            .enumerate()
            .map(|(m, label)| {
                MonitorWriter::new(dir.clone(), Arc::clone(&storage), m, label.clone(), config)
            })
            .collect();
        Ok(Self {
            dir,
            storage,
            monitor_labels,
            config,
            writers,
            entries_since_checkpoint: 0,
            checkpoints_written: 0,
            failed: None,
        })
    }

    /// Reopens a dataset mid-chain after [`crate::recover::recover_dataset`]:
    /// each monitor's writer resumes at the sequence after its last surviving
    /// segment, so a restarted collector continues without re-ingesting or
    /// overwriting recovered data. `manifest` is the recovered manifest.
    pub fn resume(
        dir: impl AsRef<Path>,
        manifest: &Manifest,
        config: DatasetConfig,
        storage: Arc<dyn Storage>,
    ) -> Result<Self, SegmentError> {
        let mut writer = Self::create_with(dir, manifest.monitor_labels.clone(), config, storage)?;
        for monitor_writer in &mut writer.writers {
            let sealed: Vec<SegmentMeta> = manifest
                .segments_of(monitor_writer.monitor)
                .cloned()
                .collect();
            *monitor_writer = MonitorWriter::resume_from(
                writer.dir.clone(),
                Arc::clone(&writer.storage),
                monitor_writer.monitor,
                monitor_writer.label.clone(),
                config,
                sealed,
            );
        }
        Ok(writer)
    }

    /// Number of monitors.
    pub fn monitor_count(&self) -> usize {
        self.monitor_labels.len()
    }

    /// Entries appended so far, across all monitors.
    pub fn total_entries(&self) -> u64 {
        self.writers.iter().map(MonitorWriter::total_entries).sum()
    }

    /// Appends one entry to its monitor's segment chain (routed by the
    /// entry's `monitor` field). Seals an automatic durability checkpoint
    /// every [`DatasetConfig::checkpoint_after_entries`] appends.
    pub fn append(&mut self, entry: &TraceEntry) -> Result<(), SegmentError> {
        assert!(
            entry.monitor < self.writers.len(),
            "entry for monitor {} but the dataset has {} monitors",
            entry.monitor,
            self.writers.len()
        );
        #[allow(clippy::indexing_slicing)] // `entry.monitor` is in range: asserted above
        let append = |this: &mut Self| this.writers[entry.monitor].append(entry);
        self.guarded(append)?;
        self.entries_since_checkpoint += 1;
        if self.entries_since_checkpoint >= self.config.checkpoint_after_entries {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Seals a durability checkpoint now: fsync every open segment, then
    /// durably write [`CHECKPOINT_FILE_NAME`] recording the sealed chains
    /// and the exact durable prefix of each open segment. After this
    /// returns, a crash loses at most the entries appended since.
    pub fn checkpoint(&mut self) -> Result<PathBuf, SegmentError> {
        self.guarded(Self::write_checkpoint)
    }

    fn write_checkpoint(&mut self) -> Result<PathBuf, SegmentError> {
        let _span = obs::histogram!("store.checkpoint_ns").timer();
        let monitors = self
            .writers
            .iter_mut()
            .map(MonitorWriter::prepare_checkpoint)
            .collect::<Result<Vec<_>, _>>()?;
        let checkpoint = Checkpoint {
            monitor_labels: self.monitor_labels.clone(),
            monitors,
        };
        let path = checkpoint.write_to(&self.dir, &*self.storage)?;
        self.entries_since_checkpoint = 0;
        self.checkpoints_written += 1;
        obs::counter!("store.checkpoints").incr();
        Ok(path)
    }

    /// Durability checkpoints sealed so far (automatic and explicit).
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// Stores a connection record in its monitor's current segment footer.
    pub fn record_connection(&mut self, record: ConnectionRecord) -> Result<(), SegmentError> {
        assert!(
            record.monitor < self.writers.len(),
            "connection for monitor {} but the dataset has {} monitors",
            record.monitor,
            self.writers.len()
        );
        #[allow(clippy::indexing_slicing)] // `record.monitor` is in range: asserted above
        let store = move |this: &mut Self| this.writers[record.monitor].record_connection(record);
        self.guarded(store)
    }

    /// Closes all segment chains, durably writes the manifest file, removes
    /// any in-flight checkpoint (the manifest supersedes it), and returns
    /// the dataset summary.
    pub fn finish(mut self) -> Result<DatasetSummary, SegmentError> {
        self.guarded(Self::close)
    }

    fn close(&mut self) -> Result<DatasetSummary, SegmentError> {
        let parts = std::mem::take(&mut self.writers)
            .into_iter()
            .map(MonitorWriter::finish)
            .collect::<Result<Vec<_>, _>>()?;
        let mut segments: Vec<SegmentMeta> =
            parts.iter().flat_map(|p| p.segments.clone()).collect();
        segments.sort_by_key(|s| (s.monitor, s.sequence));
        let manifest = Manifest {
            monitor_labels: std::mem::take(&mut self.monitor_labels),
            segments,
        };
        let manifest_path = manifest.write_to_with(&self.dir, &*self.storage)?;
        // The durable manifest is now the authoritative index; a leftover
        // checkpoint would only describe a stale mid-flight state.
        Checkpoint::remove_from(&self.dir, &*self.storage)?;
        Ok(DatasetSummary {
            segment_count: manifest.segments.len(),
            total_entries: manifest.total_entries(),
            bytes_written: parts.iter().map(|p| p.bytes_written).sum(),
            manifest,
            manifest_path,
        })
    }

    /// Runs `op` on a live writer and ends the writer on its first I/O
    /// error; once ended, returns that error again without running `op`.
    fn guarded<T>(
        &mut self,
        op: impl FnOnce(&mut Self) -> Result<T, SegmentError>,
    ) -> Result<T, SegmentError> {
        if let Some((kind, what)) = &self.failed {
            return Err(SegmentError::Io(io::Error::new(*kind, what.clone())));
        }
        let result = op(self);
        if let Err(SegmentError::Io(error)) = &result {
            self.failed = Some((error.kind(), error.to_string()));
            obs::counter!("store.writer_failed").incr();
        }
        result
    }
}

#[allow(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrips_through_bytes() {
        let manifest = Manifest {
            monitor_labels: vec!["us".into(), "de".into()],
            segments: vec![
                SegmentMeta {
                    file_name: "seg-000-00000.seg".into(),
                    monitor: 0,
                    sequence: 0,
                    entries: 1_000,
                },
                SegmentMeta {
                    file_name: "seg-001-00000.seg".into(),
                    monitor: 1,
                    sequence: 0,
                    entries: 250,
                },
            ],
        };
        let bytes = manifest.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), manifest);
        assert_eq!(manifest.total_entries(), 1_250);
        assert_eq!(manifest.segments_of(1).count(), 1);
    }

    #[test]
    fn manifest_rejects_damage() {
        let manifest = Manifest {
            monitor_labels: vec!["m".into()],
            segments: vec![],
        };
        let mut bytes = manifest.encode();
        assert!(matches!(
            Manifest::decode(&bytes[..3]),
            Err(SegmentError::Corrupt(_))
        ));
        bytes[0] = b'X';
        assert!(Manifest::decode(&bytes).is_err());

        let mut bytes = manifest.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // CRC damage
        assert!(matches!(
            Manifest::decode(&bytes),
            Err(SegmentError::ChecksumMismatch { .. })
        ));

        let mut bytes = manifest.encode();
        bytes[4] = 99; // unsupported version
        assert!(matches!(
            Manifest::decode(&bytes),
            Err(SegmentError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn manifest_rejects_out_of_range_monitor() {
        let manifest = Manifest {
            monitor_labels: vec!["only".into()],
            segments: vec![SegmentMeta {
                file_name: "s.seg".into(),
                monitor: 3,
                sequence: 0,
                entries: 1,
            }],
        };
        assert!(matches!(
            Manifest::decode(&manifest.encode()),
            Err(SegmentError::Corrupt(_))
        ));
    }

    /// XORs every payload byte of a sealed file with each of three masks,
    /// re-seals (so the CRC vouches for the mutation and the payload parser
    /// is what gets exercised) and decodes. Returns how many mutations
    /// decoded cleanly and how many were refused; a refusal must be
    /// [`SegmentError::Corrupt`], and nothing may panic.
    fn mutation_sweep<T>(
        magic: &[u8; 4],
        version: u8,
        what: &str,
        sealed: &[u8],
        decode: impl Fn(&[u8]) -> Result<T, SegmentError>,
    ) -> (usize, usize) {
        let payload = unseal(magic, version, what, sealed).unwrap();
        let (mut clean, mut refused) = (0, 0);
        for at in 0..payload.len() {
            for mask in [0x01, 0x40, 0xff] {
                let mut mutated = payload.to_vec();
                mutated[at] ^= mask;
                match decode(&seal(magic, version, &mutated)) {
                    Ok(_) => clean += 1,
                    Err(SegmentError::Corrupt(_)) => refused += 1,
                    Err(other) => panic!("{what} byte {at} ^ {mask:#04x}: untyped {other}"),
                }
            }
        }
        (clean, refused)
    }

    #[test]
    fn mutated_manifests_and_checkpoints_decode_or_fail_typed() {
        let sealed = |monitor: usize, sequence: u64, entries: u64| SegmentMeta {
            file_name: SegmentMeta::file_name_of(monitor, sequence),
            monitor,
            sequence,
            entries,
        };
        let manifest = Manifest {
            monitor_labels: vec!["us".into(), "de".into()],
            segments: vec![sealed(0, 0, 1_000), sealed(0, 1, 300), sealed(1, 0, 70_000)],
        };
        let bytes = manifest.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), manifest);
        let (clean, refused) = mutation_sweep(
            MANIFEST_MAGIC,
            MANIFEST_VERSION,
            "manifest",
            &bytes,
            Manifest::decode,
        );
        assert!(clean > 0 && refused > 0, "{clean} clean, {refused} refused");

        use ipfs_mon_simnet::time::SimTime;
        use ipfs_mon_types::{Country, Multiaddr, PeerId, Transport};
        let connection = |disconnected_at| ConnectionRecord {
            monitor: 0,
            peer: PeerId::derived(9, 1),
            address: Multiaddr::new(7, 4001, Transport::Quic, Country::Jp),
            connected_at: SimTime::from_millis(300),
            disconnected_at,
        };
        let checkpoint = Checkpoint {
            monitor_labels: manifest.monitor_labels.clone(),
            monitors: vec![
                MonitorCheckpoint {
                    monitor: 0,
                    sealed: vec![sealed(0, 0, 1_000)],
                    open: Some(OpenSegmentState {
                        file_name: SegmentMeta::file_name_of(0, 1),
                        sequence: 1,
                        durable_bytes: 40_000,
                        durable_entries: 300,
                        connections: vec![
                            connection(None),
                            connection(Some(SimTime::from_secs(9))),
                        ],
                    }),
                },
                MonitorCheckpoint {
                    monitor: 1,
                    sealed: Vec::new(),
                    open: None,
                },
            ],
        };
        let bytes = checkpoint.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), checkpoint);
        let (clean, refused) = mutation_sweep(
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            "checkpoint",
            &bytes,
            Checkpoint::decode,
        );
        assert!(clean > 0 && refused > 0, "{clean} clean, {refused} refused");
    }

    #[test]
    fn dataset_writer_rejects_bad_config() {
        let dir = std::env::temp_dir().join(format!("ipmm-cfg-{}", std::process::id()));
        let bad_rotation = DatasetConfig {
            rotate_after_entries: 0,
            ..DatasetConfig::default()
        };
        assert!(matches!(
            DatasetWriter::create(&dir, vec!["m".into()], bad_rotation),
            Err(SegmentError::InvalidConfig(_))
        ));
        let bad_chunks = DatasetConfig {
            segment: SegmentConfig { chunk_capacity: 0 },
            ..DatasetConfig::default()
        };
        assert!(matches!(
            DatasetWriter::create(&dir, vec!["m".into()], bad_chunks),
            Err(SegmentError::InvalidConfig(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
