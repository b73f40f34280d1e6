//! Columnar trace storage for the monitoring pipeline.
//!
//! The paper's real deployment logged hundreds of millions of Bitswap
//! wantlist entries over ten days. Keeping every [`record::TraceEntry`] in
//! memory (and persisting JSON) caps experiments far below that scale; this
//! crate provides the storage layer that removes the cap:
//!
//! * [`record`] — the trace data model (`TraceEntry`, `ConnectionRecord`,
//!   `MonitoringDataset`, `UnifiedTrace`), moved here from `ipfs-mon-core`
//!   (which re-exports it) so storage and methodology layers stay acyclic.
//!   JSON persistence remains available as a debug format.
//! * [`segment`] — an append-only, chunked, columnar segment format for one
//!   monitor's entries (the monitor index it stores is the constant 0 and is
//!   refused when it is anything else; a dataset's manifest says which
//!   monitor a segment belongs to): dictionary-interned peer/address/CID columns, delta+varint-encoded
//!   timestamps, bit-packed request types and flags, a per-chunk codec byte
//!   under a CRC32 per chunk, and a footer index describing every chunk for
//!   random and streaming access. Decoding goes through the borrowed
//!   [`segment::ChunkView`] (dictionary slices + column cursors); owned
//!   entries are materialized only at the stream boundary.
//! * [`codec`] — the codec byte ([`codec::Codec`]) naming a chunk's body
//!   layout. The writer's role picks it, no setting does: collection writes
//!   `Raw` (the column planes verbatim, cheapest to encode), compaction
//!   writes `Col` (column-aware bit-packed encoding with a vectorized batch
//!   decoder and per-chunk raw fallback — see [`col`]). A third byte, `Lz`
//!   (back-reference compression over the planes), is one legacy decode
//!   arm: readers still accept it, no writer produces it. Layouts mix
//!   freely within a dataset, so compaction is per-segment or even
//!   per-chunk.
//! * [`migrate`] — [`migrate::migrate_manifest`], the offline compaction of
//!   a finished manifest dataset to `Col`: segment-by-segment, chunk for
//!   chunk, verified entry-stream-identical, with an atomic per-segment swap
//!   so readers see a valid (possibly mixed-layout) dataset at every
//!   instant.
//! * [`writer`] — [`writer::TraceWriter`], the encoder of one segment: it
//!   spills fixed-size chunks of one monitor's entries to any `io::Write`
//!   sink as they arrive, so collection runs in constant memory.
//! * [`manifest`] — multi-segment datasets: one rotating segment chain per
//!   monitor ([`manifest::MonitorWriter`]) tied together by a CRC-framed
//!   [`manifest::Manifest`] index, written by [`manifest::DatasetWriter`].
//! * [`reader`] — [`reader::TraceReader`], a constant-memory streaming reader
//!   of one segment (one decoded chunk per active stream) over
//!   pluggable [`reader::ChunkSource`]s ([`reader::SliceSource`] for bytes
//!   already in memory, [`reader::FileSource`] with one positioned read per
//!   chunk), and [`reader::ManifestReader`], a dataset spanning many
//!   segments behind its manifest: per-monitor chain streams plus the k-way
//!   merged stream that yields all entries ordered by
//!   `(timestamp, monitor)` — exactly the order the preprocessing windows of
//!   `ipfs-mon-core` expect — with each monitor chain decoded ahead on its
//!   own bounded prefetch worker.
//! * [`source`] — the [`source::TraceSource`] trait: one streaming interface
//!   (labels + merged entries + connection records) over the in-memory
//!   dataset and the on-disk manifest dataset, so every analysis runs
//!   unchanged against either.
//! * [`sink`] — the parallel analysis engine: the [`sink::AnalysisSink`]
//!   trait (per-entry `consume`, associative `combine`, `finish`), the
//!   serial [`sink::run_sink`] driver over any source, and
//!   [`reader::ManifestReader::run_parallel`], which feeds each monitor
//!   chain's decode stream to a sink clone on its own worker thread and
//!   skips the k-way merge entirely.
//! * [`window`] — event-time windowing over any sink:
//!   [`window::WindowedSink`] slices a stream into tumbling or sliding
//!   windows behind a cross-monitor watermark and hands out sealed
//!   [`window::WindowResult`]s as the caller takes them, under either
//!   driver.
//! * [`sketch`] — a bounded-memory approximate analysis for unbounded
//!   horizons: [`sketch::SpaceSaving`] top-K with guaranteed error counts
//!   and an order-invariant merge, so its sink runs under `run_parallel`.
//! * [`tail`] — [`tail::DatasetTail`], an incremental reader that polls a
//!   *growing* dataset directory past per-chain byte cursors and decodes
//!   newly flushed chunk frames — the ingest side of the continuous
//!   monitoring service in `ipfs-mon-core`.
//!
//! A round-trip through a segment is lossless, and collected segments are a
//! fraction of the size of the equivalent JSON: the workspace's
//! `codec_robustness` test holds them under half of it.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod col;
pub mod crc;
pub mod fault;
pub mod manifest;
pub mod migrate;
pub mod reader;
pub mod record;
pub mod recover;
pub mod segment;
pub mod sink;
pub mod sketch;
pub mod source;
pub mod tail;
pub mod window;
pub mod writer;

pub use codec::Codec;
pub use fault::{
    is_transient, with_retry, write_file_durable, CrashMode, FaultPlan, FaultyStorage, RealStorage,
    RetryFile, RetryPolicy, Storage, StorageFile,
};
pub use manifest::{
    Checkpoint, DatasetConfig, DatasetSummary, DatasetWriter, Manifest, MonitorCheckpoint,
    MonitorSummary, MonitorWriter, OpenSegmentState, SegmentMeta, CHECKPOINT_FILE_NAME,
    MANIFEST_FILE_NAME,
};
pub use migrate::{migrate_manifest, migrate_manifest_with, MigrateReport, MIGRATE_TMP_SUFFIX};
pub use reader::{
    ChainedMonitorStream, ChunkSource, EntryStream, FileSource, ManifestMergedStream,
    ManifestReader, MergedRow, SliceSource, TraceReader,
};
pub use record::{ConnectionRecord, EntryFlags, MonitoringDataset, TraceEntry, UnifiedTrace};
pub use recover::{
    recover_dataset, recover_dataset_with, QuarantineReason, QuarantinedSegment, RecoveryReport,
    ResumeCursor, QUARANTINE_DIR_NAME,
};
pub use segment::{ChunkInfo, ChunkView, SegmentConfig, SegmentError, SegmentSummary};
pub use sink::{run_sink, AnalysisSink, ParallelProgress, Rows};
pub use sketch::{HeavyHitter, HeavyHitters, SpaceSaving, SpaceSavingSink, TopK};
pub use source::{RowTargets, SourceConnections, SourceEntries, TraceSource};
pub use tail::{DatasetTail, TailPoll};
pub use window::{
    LatePolicy, WindowBounds, WindowResult, WindowSpec, WindowedOutput, WindowedSink,
};
pub use writer::TraceWriter;
