//! Crash recovery: scan a (possibly crashed) dataset directory back to a
//! consistent, readable state.
//!
//! [`recover_dataset`] is the restart path of a collector: after a crash the
//! directory may hold torn segment tails, an open segment without its
//! footer, a checkpoint newer than the manifest (or no manifest at all), and
//! stale temp files. Recovery rebuilds the longest *prefix-consistent* view:
//!
//! 1. **Sweep** stale `.tmp` files — leftovers of interrupted atomic
//!    replaces, including recovery's own.
//! 2. **Anchor** on the durable metadata: the checkpoint
//!    ([`Checkpoint`], written by [`DatasetWriter::checkpoint`]) and/or the
//!    manifest. Either may be missing; surviving segment footers fill in
//!    labels when both are.
//! 3. **Salvage** every `seg-*.seg` file. Its stopping rule over the
//!    crate's segment cursor (`cursor::SegmentCursor`, the one the live tail
//!    and the batch reader read frames with) is the first invalid frame: the
//!    walk reads the segment in 64 KiB pieces into one buffer, never the
//!    whole file. An intact segment — its footer starts where the valid
//!    frames end and indexes them row by row, the check the tail seals a
//!    segment by — is kept as-is; any other is truncated back to its longest
//!    valid chunk-frame prefix and sealed with the index the walk rebuilt
//!    (replaced through [`write_file_durable`], so recovery itself can crash
//!    and re-run); a segment with a bad header or no valid data is moved to
//!    `quarantine/` with a typed reason. A file whose name
//!    is not one [`SegmentMeta`] writes, or names a monitor past the
//!    checkpoint's or manifest's labels, is not this dataset's: it is left
//!    alone, and only a segment that salvages adds a label.
//! 4. **Re-chain** per monitor: segments must form a contiguous sequence
//!    run starting at 0, and only the *last* segment of a chain may be
//!    short of its recorded entry count. Anything after a gap, a truncated
//!    mid-chain segment, or a quarantined segment is itself quarantined
//!    ([`QuarantineReason::ChainBroken`]) — prefix consistency over maximal
//!    salvage.
//! 5. **Rebuild** the manifest durably from the surviving chains, drop the
//!    now-superseded checkpoint, and report [`ResumeCursor`]s telling a
//!    restarted collector where each chain continues.
//!
//! The checkpoint bounds the damage: everything a checkpoint recorded as
//! durable was fsynced *before* the checkpoint file became visible, so
//! [`RecoveryReport::entries_lost_after_checkpoint`] is zero for pure crash
//! faults (clean cuts, torn tails, `ENOSPC`) — only silent corruption of
//! already-synced bytes (bit flips) can take checkpointed entries away, and
//! then the loss is *reported*, never silently absorbed.
//!
//! Recovery is idempotent: running it on a recovered directory changes
//! nothing ([`RecoveryReport::clean`]), and a crash mid-recovery (every
//! mutation goes through the injectable [`Storage`]) leaves a directory the
//! next run repairs to the same final state.
//!
//! Recovery is the store's one answer to damage. A
//! [`ManifestReader`](crate::reader::ManifestReader) never reads past it:
//! every read path of a damaged dataset ends in the same first error, and
//! after recovery every path reads the same surviving entries.
//!
//! [`DatasetWriter::checkpoint`]: crate::manifest::DatasetWriter::checkpoint
//!
//! Every byte recovery parses comes from a possibly damaged disk, so the
//! module denies indexing, `unwrap`, `expect` and `panic!`: a bad byte is a
//! [`SegmentError`] or a quarantine, never a panic.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use crate::cursor::SegmentCursor;
use crate::fault::{write_file_durable, RealStorage, Storage, DURABLE_TMP_SUFFIX};
use crate::manifest::{Checkpoint, Manifest, SegmentMeta};
use crate::segment::{encode_footer, ChunkScratch, Footer, SegmentError, HEADER_LEN};
use ipfs_mon_obs as obs;
use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};

/// Directory (inside the dataset directory) receiving unrecoverable
/// segments.
pub const QUARANTINE_DIR_NAME: &str = "quarantine";

/// Why a segment was moved to `quarantine/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The file is too short for a segment header, or its magic/version
    /// don't match — it was never a readable segment of this format.
    BadHeader(String),
    /// The header is fine but not a single CRC-valid chunk frame follows,
    /// and the footer is unreadable: nothing salvageable.
    NoValidData,
    /// The segment itself may be fine, but it sits *after* a break in its
    /// monitor's chain (a missing sequence, or a truncated/quarantined
    /// predecessor), so including it would violate prefix consistency.
    ChainBroken {
        /// The earliest sequence number of the break it sits behind.
        broken_at_sequence: u64,
    },
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadHeader(detail) => write!(f, "bad segment header: {detail}"),
            Self::NoValidData => write!(f, "no CRC-valid chunk data"),
            Self::ChainBroken { broken_at_sequence } => {
                write!(f, "chain broken at sequence {broken_at_sequence}")
            }
        }
    }
}

/// One segment moved to `quarantine/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedSegment {
    /// File name of the segment (now under `quarantine/`).
    pub file_name: String,
    /// The monitor the file name claims.
    pub monitor: usize,
    /// The rotation sequence the file name claims.
    pub sequence: u64,
    /// Why it could not be kept.
    pub reason: QuarantineReason,
}

/// Where a restarted collector resumes one monitor's chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeCursor {
    /// Global monitor index.
    pub monitor: usize,
    /// Monitor label.
    pub label: String,
    /// Sequence number the next segment of this monitor must use
    /// (`DatasetWriter::resume` seeds its writers with exactly this).
    pub next_sequence: u64,
    /// Entries already durable in the recovered chain — the collector's
    /// replay source should skip this many entries for this monitor to
    /// continue without duplication.
    pub entries_durable: u64,
}

/// What [`recover_dataset`] did and found.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// True when the directory was already consistent: nothing truncated,
    /// quarantined or removed, and the existing manifest already described
    /// exactly the surviving segments.
    pub clean: bool,
    /// The rebuilt (or confirmed) manifest.
    pub manifest: Manifest,
    /// Where the manifest file lives.
    pub manifest_path: PathBuf,
    /// Segment files examined.
    pub segments_scanned: usize,
    /// Segments kept untouched (footer valid, every chunk CRC-valid).
    pub segments_intact: usize,
    /// Segments truncated to a valid chunk prefix and resealed.
    pub segments_truncated: usize,
    /// Header-only open segments removed (they held no durable data, and an
    /// empty tail segment would add nothing to the chain).
    pub segments_removed_empty: usize,
    /// Segments moved to `quarantine/`, with reasons.
    pub quarantined: Vec<QuarantinedSegment>,
    /// Total entries in the recovered manifest.
    pub entries_recovered: u64,
    /// Entries the checkpoint/manifest had recorded as durable that the
    /// recovered chains no longer reach. Zero for every pure crash fault;
    /// non-zero only when already-fsynced bytes were silently corrupted.
    pub entries_lost_after_checkpoint: u64,
    /// Bytes cut from truncated segment tails.
    pub bytes_truncated: u64,
    /// Stale temp files swept.
    pub tmp_files_swept: usize,
    /// Per-monitor resume positions.
    pub resume: Vec<ResumeCursor>,
}

/// How one segment file fared during salvage.
enum Salvage {
    Intact {
        entries: u64,
        label: String,
    },
    /// Cut back to its valid frames: `rebuilt` is the kept prefix and the
    /// footer that indexes it, staged for one durable replace.
    Truncated {
        entries: u64,
        bytes_truncated: u64,
        rebuilt: Vec<u8>,
    },
    /// Header-only (or shorter-than-header but magic-clean-prefix) open
    /// segment holding zero durable entries.
    Empty,
    Quarantine(QuarantineReason),
}

/// Decides how a segment file of `len` bytes salvages, reading it through
/// `frames`, which stands at its offset 0; its stopping rule is the first
/// frame that is not complete and valid. It writes nothing: the caller acts
/// on the verdict once the file is closed. `label` and `connections` feed
/// the rebuilt footer when the original footer is gone.
fn salvage_segment(
    frames: &mut SegmentCursor<&File>,
    len: u64,
    label: &str,
    connections: &[crate::record::ConnectionRecord],
) -> Result<Salvage, SegmentError> {
    match frames.header() {
        Ok(true) => {}
        // A torn create: nothing but (part of) the header ever landed.
        Ok(false) => return Ok(Salvage::Empty),
        Err(SegmentError::Io(error)) => return Err(SegmentError::Io(error)),
        Err(error) => {
            let reason = QuarantineReason::BadHeader(error.to_string());
            return Ok(Salvage::Quarantine(reason));
        }
    }
    let (mut chunks, mut high_water, mut max_lateness_ms) = (Vec::new(), 0u64, 0);
    frames.walk(&mut ChunkScratch::default(), |frame, view| {
        for &ts in view.timestamps_ms() {
            max_lateness_ms = high_water.saturating_sub(ts).max(max_lateness_ms);
            high_water = high_water.max(ts);
        }
        chunks.push(frame);
    })?;

    // Intact: the footer starts where the valid frames end and indexes
    // exactly them — keep the file untouched.
    match frames.check_sealed(&chunks) {
        Ok(footer) => {
            let (entries, label) = (footer.total_entries, footer.label);
            return Ok(Salvage::Intact { entries, label });
        }
        Err(SegmentError::Io(error)) => return Err(SegmentError::Io(error)),
        Err(_) => {}
    }
    if chunks.is_empty() {
        return Ok(if len == HEADER_LEN as u64 {
            // Exactly a header: an open segment that never spilled a chunk.
            Salvage::Empty
        } else {
            // Bytes follow the header but none of them form a valid chunk.
            Salvage::Quarantine(QuarantineReason::NoValidData)
        });
    }

    // Rebuild: valid chunk prefix + fresh footer, atomically swapped in.
    let entries: u64 = chunks.iter().map(|i| i.entries).sum();
    let footer = Footer {
        label: label.to_string(),
        max_lateness_ms,
        connections: connections.to_vec(),
        chunks,
        total_entries: entries,
    };
    let mut footer_bytes = Vec::new();
    encode_footer(&footer, &mut footer_bytes);
    // The kept prefix and its footer are staged in one buffer of exactly
    // their size, for one durable replace.
    let mut rebuilt = frames.prefix(footer_bytes.len())?;
    rebuilt.extend_from_slice(&footer_bytes);
    Ok(Salvage::Truncated {
        entries,
        bytes_truncated: len - frames.offset(),
        rebuilt,
    })
}

/// Recovers the dataset directory `dir` (see the [module docs](self)).
pub fn recover_dataset(dir: impl AsRef<Path>) -> Result<RecoveryReport, SegmentError> {
    recover_dataset_with(dir, &RealStorage)
}

/// [`recover_dataset`] through an explicit [`Storage`], so crash-during-
/// recovery is itself testable under fault injection.
pub fn recover_dataset_with(
    dir: impl AsRef<Path>,
    storage: &dyn Storage,
) -> Result<RecoveryReport, SegmentError> {
    let dir = dir.as_ref();
    let _span = obs::histogram!("recover.run_ns").timer();

    // --- 1. Sweep stale temp files -------------------------------------
    let mut tmp_files_swept = 0usize;
    let mut segment_files: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        if name.ends_with(DURABLE_TMP_SUFFIX) {
            storage.remove_file(&entry.path())?;
            tmp_files_swept += 1;
        } else if name.ends_with(".seg") {
            segment_files.push(name);
        }
    }
    segment_files.sort();

    // --- 2. Anchor on checkpoint / manifest ----------------------------
    // Present-but-corrupt metadata is treated as absent: the CRC already
    // told us not to trust it, and the segments speak for themselves.
    let checkpoint = Checkpoint::load(dir).ok().flatten();
    let prior_manifest = Manifest::load(dir).ok();

    let mut labels: Vec<String> = checkpoint
        .as_ref()
        .map(|c| c.monitor_labels.clone())
        .or_else(|| prior_manifest.as_ref().map(|m| m.monitor_labels.clone()))
        .unwrap_or_default();

    // --- 3. Salvage every segment file ---------------------------------
    let mut report = RecoveryReport {
        segments_scanned: segment_files.len(),
        tmp_files_swept,
        ..RecoveryReport::default()
    };

    let quarantine = |storage: &dyn Storage,
                      report: &mut RecoveryReport,
                      name: &str,
                      (monitor, sequence): (usize, u64),
                      reason: QuarantineReason|
     -> Result<(), SegmentError> {
        let quarantine_dir = dir.join(QUARANTINE_DIR_NAME);
        storage.create_dir_all(&quarantine_dir)?;
        storage.rename(&dir.join(name), &quarantine_dir.join(name))?;
        storage.sync_dir(&quarantine_dir)?;
        storage.sync_dir(dir)?;
        obs::counter!("recover.segments_quarantined").incr();
        report.quarantined.push(QuarantinedSegment {
            file_name: name.to_string(),
            monitor,
            sequence,
            reason,
        });
        Ok(())
    };

    // Surviving segments per monitor: sequence -> (file name, entries).
    let mut chains: BTreeMap<usize, BTreeMap<u64, (String, u64, bool)>> = BTreeMap::new();

    // A checkpoint or manifest fixes the dataset's monitors; without either,
    // the segments that salvage name them. The bound also keeps
    // `monitor + 1` below from overflowing.
    let monitor_bound = if checkpoint.is_some() || prior_manifest.is_some() {
        labels.len()
    } else {
        usize::MAX
    };
    for name in segment_files {
        let Some((monitor, sequence)) =
            SegmentMeta::parse_file_name(&name).filter(|&(monitor, _)| monitor < monitor_bound)
        else {
            // A .seg file we did not write, or not this dataset's; leave it
            // alone.
            continue;
        };
        let fallback = format!("monitor-{monitor}");
        let label = labels
            .get(monitor)
            .filter(|label| !label.is_empty())
            .unwrap_or(&fallback)
            .clone();
        // Footer-bound connections of the checkpoint's open segment (the
        // only segment whose connections exist nowhere else on disk).
        let open_state = checkpoint.as_ref().and_then(|c| {
            c.monitors
                .iter()
                .filter_map(|m| m.open.as_ref())
                .find(|o| o.file_name == name)
        });
        let connections = open_state.map(|o| o.connections.as_slice()).unwrap_or(&[]);

        let path = dir.join(&name);
        // The file is closed before any verdict is acted on: nothing replaces,
        // removes or moves a segment that is still open.
        let salvage = {
            let file = File::open(&path)?;
            let len = file.metadata()?.len();
            let frames = &mut SegmentCursor::new(&file, 0, Some(len), Vec::new());
            salvage_segment(frames, len, &label, connections)?
        };
        let (entries, truncated, label) = match salvage {
            Salvage::Intact {
                entries,
                label: stored,
            } => {
                report.segments_intact += 1;
                let label = if label == fallback { stored } else { label };
                (entries, false, label)
            }
            Salvage::Truncated {
                entries,
                bytes_truncated,
                rebuilt,
            } => {
                write_file_durable(storage, &path, &rebuilt)?;
                report.segments_truncated += 1;
                report.bytes_truncated += bytes_truncated;
                obs::counter!("recover.segments_truncated").incr();
                obs::counter!("recover.bytes_truncated").add(bytes_truncated);
                (entries, true, label)
            }
            Salvage::Empty => {
                storage.remove_file(&path)?;
                report.segments_removed_empty += 1;
                continue;
            }
            Salvage::Quarantine(reason) => {
                quarantine(storage, &mut report, &name, (monitor, sequence), reason)?;
                continue;
            }
        };
        // Only a segment that salvaged names a monitor.
        if let Some(slot) = labels.get_mut(monitor) {
            *slot = label;
        } else {
            labels.resize_with(monitor, String::new);
            labels.push(label);
        }
        chains
            .entry(monitor)
            .or_default()
            .insert(sequence, (name, entries, truncated));
    }

    // --- 4. Re-chain per monitor (prefix consistency) ------------------
    let mut manifest_segments: Vec<SegmentMeta> = Vec::new();
    let mut recovered_per_monitor: BTreeMap<usize, (u64, u64)> = BTreeMap::new(); // entries, next_seq
    for (monitor, chain) in &chains {
        let mut expected_sequence = 0u64;
        let mut broken_at: Option<u64> = None;
        let mut entries_total = 0u64;
        for (&sequence, (name, entries, truncated)) in chain {
            if sequence != expected_sequence {
                // Gap: everything from here on is unreachable prefix-wise.
                broken_at.get_or_insert(expected_sequence);
            }
            if let Some(broken_at_sequence) = broken_at {
                let reason = QuarantineReason::ChainBroken { broken_at_sequence };
                quarantine(storage, &mut report, name, (*monitor, sequence), reason)?;
                continue;
            }
            // A sealed segment recorded with more entries than it now holds
            // was damaged after its fsync; it stays (it is a valid prefix)
            // but nothing after it may.
            let recorded = recorded_entries(&checkpoint, &prior_manifest, *monitor, sequence);
            if *truncated || recorded.is_some_and(|r| *entries < r) {
                broken_at = Some(sequence + 1);
            }
            manifest_segments.push(SegmentMeta {
                file_name: name.clone(),
                monitor: *monitor,
                sequence,
                entries: *entries,
            });
            entries_total += *entries;
            expected_sequence = sequence + 1;
        }
        recovered_per_monitor.insert(*monitor, (entries_total, expected_sequence));
    }
    manifest_segments.sort_by_key(|s| (s.monitor, s.sequence));

    // --- 5. Loss accounting vs the durability promise ------------------
    for monitor in 0..labels.len() {
        let promised = checkpoint
            .as_ref()
            .map(|c| c.durable_entries(monitor))
            .unwrap_or(0)
            .max(
                prior_manifest
                    .as_ref()
                    .map(|m| m.segments_of(monitor).map(|s| s.entries).sum())
                    .unwrap_or(0),
            );
        let recovered = recovered_per_monitor
            .get(&monitor)
            .map(|(entries, _)| *entries)
            .unwrap_or(0);
        report.entries_lost_after_checkpoint += promised.saturating_sub(recovered);
    }

    // --- 6. Durable manifest rebuild + resume cursors ------------------
    let manifest = Manifest {
        monitor_labels: labels.clone(),
        segments: manifest_segments,
    };
    let manifest_unchanged = prior_manifest.as_ref() == Some(&manifest);
    report.manifest_path = manifest.write_to_with(dir, storage)?;
    Checkpoint::remove_from(dir, storage)?;

    report.entries_recovered = manifest.total_entries();
    report.resume = labels
        .iter()
        .enumerate()
        .map(|(monitor, label)| {
            let (entries_durable, next_sequence) = recovered_per_monitor
                .get(&monitor)
                .copied()
                .unwrap_or((0, 0));
            ResumeCursor {
                monitor,
                label: label.clone(),
                next_sequence,
                entries_durable,
            }
        })
        .collect();
    report.manifest = manifest;
    report.clean = manifest_unchanged
        && report.segments_truncated == 0
        && report.segments_removed_empty == 0
        && report.quarantined.is_empty();

    obs::counter!("recover.runs").incr();
    obs::counter!("recover.entries_recovered").add(report.entries_recovered);
    Ok(report)
}

/// The entry count the durable metadata recorded for a sealed segment, if
/// any — used to detect silent damage to already-fsynced segments.
fn recorded_entries(
    checkpoint: &Option<Checkpoint>,
    manifest: &Option<Manifest>,
    monitor: usize,
    sequence: u64,
) -> Option<u64> {
    let from_checkpoint = checkpoint.as_ref().and_then(|c| {
        c.monitors
            .iter()
            .filter(|m| m.monitor == monitor)
            .flat_map(|m| &m.sealed)
            .find(|s| s.sequence == sequence)
            .map(|s| s.entries)
    });
    let from_manifest = manifest.as_ref().and_then(|m| {
        m.segments_of(monitor)
            .find(|s| s.sequence == sequence)
            .map(|s| s.entries)
    });
    // The larger of the two, where both say one.
    from_checkpoint.max(from_manifest)
}

#[allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::READ_PIECE;
    use crate::manifest::{DatasetConfig, DatasetWriter};
    use crate::record::{EntryFlags, TraceEntry};
    use crate::segment::SegmentConfig;
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_simnet::time::SimTime;
    use ipfs_mon_types::{Cid, Country, Multiaddr, Multicodec, PeerId, Transport};

    /// Recovering a finished dataset walks each segment through one cursor
    /// buffer of at most the largest frame plus one read piece — not the
    /// file — whether frames are far smaller than a piece or span several;
    /// the footer it checks the walk against is read on its own. The twin of
    /// `tail::tests::restart_replay_holds_one_frame_plus_one_piece`.
    #[test]
    fn recovery_holds_one_frame_plus_one_piece() {
        for chunk in [64, 4096] {
            let dir = std::env::temp_dir()
                .join(format!("ts-recover-bounded-{chunk}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let config = DatasetConfig {
                segment: SegmentConfig {
                    chunk_capacity: chunk,
                },
                rotate_after_entries: u64::MAX,
                ..DatasetConfig::default()
            };
            let mut writer = DatasetWriter::create(&dir, vec!["solo".into()], config).unwrap();
            for i in 0..20_000u64 {
                writer
                    .append(&TraceEntry {
                        timestamp: SimTime::from_millis(i),
                        peer: PeerId::derived(4, i),
                        address: Multiaddr::new(1, 4001, Transport::Tcp, Country::Us),
                        request_type: RequestType::WantBlock,
                        cid: Cid::new_v1(Multicodec::Raw, &i.to_le_bytes()),
                        monitor: 0,
                        flags: EntryFlags::default(),
                    })
                    .unwrap();
            }
            writer.finish().unwrap();
            let path = dir.join(SegmentMeta::file_name_of(0, 0));
            let reader = crate::reader::TraceReader::open(&path).unwrap();
            let largest = reader.chunks().iter().map(|c| c.len).max().unwrap() as usize;

            let file = File::open(&path).unwrap();
            let len = file.metadata().unwrap().len();
            assert!(len as usize > 2 * (largest + READ_PIECE), "chunk {chunk}");
            let mut frames = SegmentCursor::new(&file, 0, Some(len), Vec::new());
            match salvage_segment(&mut frames, len, "solo", &[]).unwrap() {
                Salvage::Intact { entries, label } => {
                    assert_eq!((entries, label.as_str()), (20_000, "solo"), "chunk {chunk}");
                }
                _ => panic!("chunk {chunk}: a finished segment is intact"),
            }
            let capacity = frames.into_buffer().capacity();
            assert!(
                capacity <= largest + READ_PIECE,
                "chunk {chunk}: {capacity} B held, largest frame {largest} B"
            );

            let report = recover_dataset(&dir).unwrap();
            assert!(report.clean, "chunk {chunk}");
            assert_eq!(report.segments_intact, 1, "chunk {chunk}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
