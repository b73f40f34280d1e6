//! Offline compaction of a manifest dataset to the `Col` chunk layout.
//!
//! Collection writes `Raw` chunks, the cheapest to encode, so the live writer
//! keeps up with the monitors; a finished dataset is kept for months, so
//! [`migrate_manifest`] rewrites it in the smaller `Col` layout afterwards
//! (see [`crate::codec`] for who writes which byte). One segment at a time:
//!
//! 1. **Skip check** — a segment is left untouched (byte for byte) when
//!    compaction would not change it: every chunk already carries `Col`, or
//!    is a `Raw` chunk that `Col` cannot shrink — which a trial encode of
//!    that chunk decides, affordable on this offline path. Without the
//!    trial, such a chunk's raw fallback would be rewritten, to the same
//!    bytes, on every run.
//! 2. **Rewrite** — the segment's chunks, connection records and monitor
//!    label go through a columnar [`TraceWriter`] into
//!    `<segment>.migrate-tmp` next to the original, chunk by chunk: each
//!    source chunk becomes exactly one compacted chunk, so raw collection
//!    followed by compaction writes the bytes a columnar collection at the
//!    same chunk boundaries would have. Memory stays bounded by one chunk
//!    regardless of segment size.
//! 3. **Verify** — the temp segment is reopened and its label, connection
//!    records, and full entry stream are compared against the original.
//!    Any mismatch aborts the compaction with the original file intact.
//! 4. **Swap** — the temp file is fsynced and renamed over the original.
//!    The rename is atomic and the file name (hence the manifest) never
//!    changes, so a concurrent reader sees a valid — possibly mixed-layout —
//!    dataset at every instant. A crash mid-compaction leaves at most one
//!    stale `*.migrate-tmp` file, which the next run removes.
//!
//! Chunk codec bytes live *inside* the per-chunk CRC, so mixed-layout
//! datasets (including half-compacted ones) read transparently; compaction
//! is an optimization pass, never a correctness requirement. The source may
//! hold any layout a reader accepts, legacy `Lz` chunks included.

use crate::codec::Codec;
use crate::fault::{commit_replace, staging_path, RealStorage, Storage};
use crate::manifest::{Manifest, MANIFEST_FILE_NAME};
use crate::reader::{load_chunk, ChunkSource, FileSource, TraceReader};
use crate::record::TraceEntry;
use crate::segment::{
    encode_chunk, frame_codec_byte, ChunkInfo, ChunkScratch, SegmentConfig, SegmentError,
    FRAME_HEAD_LEN,
};
use crate::writer::TraceWriter;
use ipfs_mon_obs as obs;
use std::io::BufWriter;
use std::path::Path;

/// Suffix of the temporary file a segment is rewritten into before the
/// atomic swap. Stale files with this suffix (from a crashed compaction) are
/// removed on the next run and never referenced by any manifest.
pub const MIGRATE_TMP_SUFFIX: &str = ".migrate-tmp";

/// What [`migrate_manifest`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrateReport {
    /// Segments listed in the manifest.
    pub segments_total: usize,
    /// Segments rewritten in the `Col` layout; the rest were left as they
    /// were, because compaction would not change them.
    pub segments_rewritten: usize,
    /// Trace entries streamed through rewritten segments.
    pub entries: u64,
    /// Total size of all segment files before compaction, in bytes.
    pub bytes_before: u64,
    /// Total size of all segment files after compaction, in bytes.
    pub bytes_after: u64,
}

/// True when compaction would leave the open segment as it is: each chunk
/// carries `Col`, or `Raw` that a trial encode shows `Col` cannot shrink.
fn segment_is_compacted<S: ChunkSource>(reader: &TraceReader<S>) -> Result<bool, SegmentError> {
    for info in reader.chunks() {
        let head_len = (info.len as usize).min(FRAME_HEAD_LEN);
        let head = reader.source().read_at(info.offset, head_len)?;
        let byte = frame_codec_byte(&head)?;
        if byte == Codec::Col.byte() {
            continue;
        }
        if byte != Codec::Raw.byte() || !stays_raw(reader, info)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Whether compaction would keep the raw chunk `info` names raw.
fn stays_raw<S: ChunkSource>(
    reader: &TraceReader<S>,
    info: &ChunkInfo,
) -> Result<bool, SegmentError> {
    let view = load_chunk(reader.source(), info, ChunkScratch::default())?;
    let entries: Vec<TraceEntry> = view.entries().collect();
    let mut trial = Vec::new();
    encode_chunk(&entries, true, &mut trial);
    Ok(frame_codec_byte(&trial)? == Codec::Raw.byte())
}

/// Rewrites one segment file in the `Col` layout, chunk for chunk,
/// verifying the rewrite before the atomic swap. Returns the number of
/// entries streamed.
fn rewrite_segment(storage: &dyn Storage, path: &Path) -> Result<u64, SegmentError> {
    let reader = TraceReader::new(FileSource::open(path)?)?;

    let tmp_path = staging_path(path, MIGRATE_TMP_SUFFIX);
    let result = (|| {
        let file = storage.create(&tmp_path)?;
        // Room for the widest source chunk: the only chunk boundaries are
        // then the `flush_buffered` after each source chunk.
        let widest = reader.chunks().iter().map(|info| info.entries).max();
        let config = SegmentConfig {
            chunk_capacity: widest.unwrap_or(1).max(1) as usize,
        };
        let mut writer =
            TraceWriter::new(BufWriter::new(file), reader.label().to_string(), config)?.columnar();
        let mut scratch = ChunkScratch::default();
        for info in reader.chunks() {
            let view = load_chunk(reader.source(), info, scratch)?;
            for entry in view.entries() {
                writer.append(&entry)?;
            }
            writer.flush_buffered()?;
            scratch = view.into_scratch();
        }
        for record in reader.connections() {
            writer.record_connection(record.clone());
        }
        // Fsync the rewritten bytes through the same handle before the
        // rename below can promote them — a swap must never outrun the
        // data it swaps in.
        let (_, sink) = writer.finish_into()?;
        let mut file = sink
            .into_inner()
            .map_err(|error| SegmentError::Io(error.into_error()))?;
        file.sync_all()?;
        drop(file);

        verify_identical(&reader, &tmp_path)?;
        commit_replace(storage, &tmp_path, path)?;
        Ok(reader.total_entries())
    })();
    if result.is_err() {
        // Keep the original segment authoritative: the temp file is
        // best-effort garbage at this point.
        let _ = storage.remove_file(&tmp_path);
    }
    result
}

/// Compares the rewritten segment at `tmp_path` against the already-open
/// original, entry by entry. Any difference is a migration bug surfaced as
/// [`SegmentError::Corrupt`] *before* the original is replaced.
fn verify_identical<S: ChunkSource>(
    original: &TraceReader<S>,
    tmp_path: &Path,
) -> Result<(), SegmentError> {
    let mismatch = |what: &str| SegmentError::Corrupt(format!("migrate verification: {what}"));
    let rewritten = TraceReader::new(FileSource::open(tmp_path)?)?;
    if rewritten.label() != original.label() {
        return Err(mismatch("monitor labels differ"));
    }
    if rewritten.connections() != original.connections() {
        return Err(mismatch("connection records differ"));
    }
    if rewritten.total_entries() != original.total_entries() {
        return Err(mismatch("entry counts differ"));
    }
    let mut want = original.stream();
    let mut got = rewritten.stream();
    loop {
        match (want.next(), got.next()) {
            (None, None) => break,
            (Some(a), Some(b)) if a == b => {}
            _ => return Err(mismatch("entry streams differ")),
        }
    }
    if let Some(error) = want.take_error() {
        return Err(error);
    }
    if let Some(error) = got.take_error() {
        return Err(error);
    }
    Ok(())
}

/// Removes stale `*.migrate-tmp` files left by a crashed earlier run.
fn sweep_stale_tmp_files(dir: &Path, storage: &dyn Storage) -> Result<(), SegmentError> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry
            .file_name()
            .to_string_lossy()
            .ends_with(MIGRATE_TMP_SUFFIX)
        {
            storage.remove_file(&entry.path())?;
        }
    }
    Ok(())
}

/// Compacts every segment of the manifest dataset in `dir` to the `Col`
/// layout, segment by segment with an atomic per-segment swap (see the
/// [module docs](self) for the exact protocol). Segments compaction would
/// not change are skipped, so a second run rewrites nothing; each rewritten
/// segment is verified entry-stream-identical before it replaces the
/// original. Returns what was done.
///
/// The dataset stays readable throughout: file names never change, each
/// swap is a same-directory rename, and readers dispatch on per-chunk codec
/// bytes, so a crash at any point leaves a valid (possibly mixed-layout)
/// dataset plus at most one stale temp file that the next run removes.
pub fn migrate_manifest(dir: impl AsRef<Path>) -> Result<MigrateReport, SegmentError> {
    migrate_manifest_with(dir, &RealStorage)
}

/// [`migrate_manifest`] through an explicit [`Storage`], so the whole
/// per-segment swap protocol — temp write, fsync, rename, directory sync —
/// runs under fault injection in tests (a crash at any injected point must
/// leave the dataset readable, per the module docs).
pub fn migrate_manifest_with(
    dir: impl AsRef<Path>,
    storage: &dyn Storage,
) -> Result<MigrateReport, SegmentError> {
    let dir = dir.as_ref();
    let manifest = Manifest::load(dir.join(MANIFEST_FILE_NAME))?;
    sweep_stale_tmp_files(dir, storage)?;

    let mut report = MigrateReport {
        segments_total: manifest.segments.len(),
        ..MigrateReport::default()
    };
    for segment in &manifest.segments {
        let path = dir.join(&segment.file_name);
        report.bytes_before += std::fs::metadata(&path)?.len();
        let already_done = segment_is_compacted(&TraceReader::new(FileSource::open(&path)?)?)?;
        if !already_done {
            report.entries += rewrite_segment(storage, &path)?;
            report.segments_rewritten += 1;
            obs::counter!("migrate.segments_rewritten").incr();
        }
        report.bytes_after += std::fs::metadata(&path)?.len();
    }
    // Entry counts and file names are unchanged, but rewrite the manifest
    // anyway: it re-asserts the index matches what is on disk after the
    // pass (and refreshes its CRC framing in one place).
    manifest.write_to_with(dir, storage)?;
    obs::counter!("migrate.runs").incr();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{DatasetConfig, DatasetWriter};
    use crate::reader::ManifestReader;
    use crate::record::{ConnectionRecord, EntryFlags};
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_simnet::time::SimTime;
    use ipfs_mon_types::{Cid, Country, Multiaddr, Multicodec, PeerId, Transport};
    use std::path::PathBuf;

    fn entry(ms: u64, peer: u64, monitor: usize) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(ms),
            peer: PeerId::derived(3, peer % 17),
            address: Multiaddr::new((peer % 11) as u32, 4001, Transport::Tcp, Country::De),
            request_type: if peer.is_multiple_of(3) {
                RequestType::WantBlock
            } else {
                RequestType::WantHave
            },
            cid: Cid::new_v1(Multicodec::DagProtobuf, &(peer % 29).to_be_bytes()),
            monitor,
            flags: EntryFlags::default(),
        }
    }

    fn write_dataset(dir: &Path) -> u64 {
        let config = DatasetConfig {
            segment: SegmentConfig { chunk_capacity: 32 },
            rotate_after_entries: 100,
            ..DatasetConfig::default()
        };
        let mut writer = DatasetWriter::create(dir, vec!["us".into(), "de".into()], config)
            .expect("create dataset");
        for i in 0..300u64 {
            writer.append(&entry(i * 7, i, (i % 2) as usize)).unwrap();
        }
        writer
            .record_connection(ConnectionRecord {
                monitor: 0,
                peer: PeerId::derived(3, 1),
                address: Multiaddr::new(1, 4001, Transport::Tcp, Country::De),
                connected_at: SimTime::from_millis(0),
                disconnected_at: None,
            })
            .unwrap();
        writer.finish().unwrap().total_entries
    }

    fn merged_entries(dir: &Path) -> Vec<TraceEntry> {
        let reader = ManifestReader::open(dir).unwrap();
        let mut stream = reader.stream_merged();
        let entries: Vec<_> = stream.by_ref().collect();
        assert!(stream.take_error().is_none());
        entries
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("migrate-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A copy of `tests/fixtures/lz_v2`: a dataset written with the `Lz`
    /// codec before it was retired as a write target.
    fn copy_lz_fixture(dir: &Path) {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/lz_v2");
        for entry in std::fs::read_dir(fixture).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
    }

    #[test]
    fn migrates_lz_dataset_to_col_and_preserves_stream() {
        let dir = temp_dir("lz-to-col");
        copy_lz_fixture(&dir);
        let before = merged_entries(&dir);
        assert_eq!(before.len(), 120);

        let report = migrate_manifest(&dir).unwrap();
        assert_eq!(report.segments_rewritten, report.segments_total);
        assert_eq!(report.entries, 120);

        assert_eq!(merged_entries(&dir), before);
        // Second run is a no-op: everything already carries Col.
        let again = migrate_manifest(&dir).unwrap();
        assert_eq!(again.segments_rewritten, 0);
        assert_eq!(again.bytes_after, report.bytes_after);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A chunk `Col` cannot shrink keeps its raw framing; compaction must
    /// then count it as compacted instead of rewriting its segment, to the
    /// same bytes, on every run. One and two entries make a single such
    /// chunk, 4 097 a full chunk and one such tail chunk.
    #[test]
    fn a_second_compaction_rewrites_nothing() {
        for entries in [1u64, 2, 4_097] {
            let dir = temp_dir(&format!("idempotent-{entries}"));
            let mut writer =
                DatasetWriter::create(&dir, vec!["us".into()], DatasetConfig::default()).unwrap();
            for i in 0..entries {
                writer.append(&entry(i * 7, i, 0)).unwrap();
            }
            writer.finish().unwrap();
            let first = migrate_manifest(&dir).unwrap();
            let compacted = merged_entries(&dir);
            assert_eq!(compacted.len() as u64, entries);

            let second = migrate_manifest(&dir).unwrap();
            assert_eq!(
                (second.segments_rewritten, second.segments_total),
                (0, 1),
                "{entries} entries"
            );
            assert_eq!(second.bytes_after, first.bytes_after);
            assert_eq!(merged_entries(&dir), compacted);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn stale_tmp_files_are_swept_and_ignored() {
        let dir = temp_dir("stale-tmp");
        write_dataset(&dir);
        let stale = dir.join("seg-000-00000.seg.migrate-tmp");
        std::fs::write(&stale, b"half-written junk from a crashed run").unwrap();

        let report = migrate_manifest(&dir).unwrap();
        assert!(!stale.exists(), "stale temp file must be removed");
        assert_eq!(report.segments_rewritten, report.segments_total);
        assert!(merged_entries(&dir).len() as u64 == report.entries);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_rewrite_leaves_original_intact() {
        let dir = temp_dir("intact");
        write_dataset(&dir);
        let before = merged_entries(&dir);
        // Migrating a missing dataset directory errors cleanly.
        assert!(migrate_manifest(dir.join("nope")).is_err());
        assert_eq!(merged_entries(&dir), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_mid_migration_leaves_dataset_readable_at_every_op() {
        use crate::fault::{FaultPlan, FaultyStorage};

        let dir = temp_dir("crash-sweep");
        write_dataset(&dir);
        let before = merged_entries(&dir);

        // Learn the op budget of a clean migration, then crash at every op
        // along the way. After each crash the dataset must still stream the
        // exact same entries (some segments migrated, some not), and a
        // follow-up clean run must converge to a fully migrated dataset.
        let probe = FaultyStorage::new(FaultPlan::none());
        migrate_manifest_with(&dir, &probe).expect("clean migration");
        assert_eq!(merged_entries(&dir), before);
        let total_ops = probe.ops();
        assert!(total_ops > 0, "migration must route through Storage");

        for crash_at in 0..total_ops {
            let fresh = temp_dir(&format!("crash-sweep-{crash_at}"));
            write_dataset(&fresh);
            let faulty = FaultyStorage::new(FaultPlan::crash_at(crash_at));
            let result = migrate_manifest_with(&fresh, &faulty);
            assert!(
                result.is_err(),
                "crash at op {crash_at} must surface an error"
            );
            assert_eq!(
                merged_entries(&fresh),
                before,
                "dataset must stream identically after crash at op {crash_at}"
            );
            // The next (fault-free) run completes the migration.
            migrate_manifest(&fresh).expect("rerun after crash");
            assert_eq!(merged_entries(&fresh), before);
            std::fs::remove_dir_all(&fresh).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
