//! Incremental tailing of a *growing* dataset directory: [`DatasetTail`]
//! polls each monitor's segment chain past a per-chain byte cursor,
//! validates every newly flushed chunk frame, and hands each chunk to a
//! callback — without ever opening the dataset through
//! [`ManifestReader`](crate::reader::ManifestReader), which validates
//! complete segments and therefore cannot read a chain that is still being
//! written.
//!
//! # How it works
//!
//! The tail keeps, per monitor, one segment cursor (`cursor::SegmentCursor`,
//! the one the batch reader and crash recovery walk frames with) over the
//! segment it is reading. Its stopping rule is the flushed end: each
//! [`poll_chunks`](DatasetTail::poll_chunks) reads on from the open file
//! whatever the writer has flushed since, in 64 KiB pieces, and reports every
//! frame the cursor validates as a [`ChunkView`]: CRC-checked, every column
//! parsed, rows in stored (arrival) order. A frame is reported as soon as its
//! last byte is in, and a partial one waits in the cursor's buffer for the
//! next piece or poll, so the buffer holds at most the largest frame (or the
//! footer) plus one piece — not the segment, even on a restart's replay of a
//! finished one. [`poll`](DatasetTail::poll) is the same walk with each row
//! materialised as a [`TraceEntry`].
//!
//! Where the walk ends is either a frame the writer is still flushing
//! (retry next poll) or the segment footer. The segment is sealed once
//! either a higher-numbered segment file exists (segment rotation durably
//! seals the old file *before* the new one is created) or the dataset
//! manifest lists it (the manifest is written at
//! [`finish`](crate::manifest::DatasetWriter::finish), and crash recovery
//! rebuilds it over re-sealed chains). A sealed segment's bytes are final,
//! so the tail reads on once it knows, and the cursor's sealed-segment check
//! — the one recovery keeps a segment untouched by — must then pass: the
//! footer starts where the last frame ends and indexes the frames the tail
//! read, row by row. Anything else — a damaged chunk, a damaged, missing or
//! mismatched footer — fails the poll with [`SegmentError::Corrupt`] instead
//! of skipping the rest of the segment.
//!
//! Because the tail reads only bytes the writer flushed to the file, the
//! entries it reports are exactly the entries that survive a crash at
//! that instant (after [`recover_dataset`](crate::recover::recover_dataset)
//! truncation) — which is what lets the monitoring service rebuild its
//! windows deterministically after a restart.
//!
//! Chunks are reported in per-monitor chain order — the same order
//! [`run_parallel`](crate::reader::ManifestReader::run_parallel) workers
//! see — so any [`AnalysisSink`](crate::sink::AnalysisSink) honouring the
//! combine contract (including the windowed sinks) consumes them
//! unchanged, row by row or, through
//! [`WindowedSink::consume_chunk_rows`](crate::window::WindowedSink::consume_chunk_rows),
//! chunk by chunk.
//!
//! Every byte the tail parses comes from disk, so the module denies
//! indexing, `unwrap`, `expect` and `panic!`: a bad byte is a
//! [`SegmentError`], never a panic.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use crate::cursor::SegmentCursor;
use crate::manifest::{Manifest, SegmentMeta, MANIFEST_FILE_NAME};
use crate::record::TraceEntry;
use crate::segment::{ChunkInfo, ChunkScratch, ChunkView, SegmentError};
use ipfs_mon_obs as obs;
use std::fs::File;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// Read cursor over one monitor's segment chain.
#[derive(Default)]
struct ChainTail {
    monitor: usize,
    /// Sequence of the segment currently being read.
    sequence: u64,
    /// Over the open segment `sequence`; `None` until the file exists, and
    /// again once the segment is sealed.
    frames: Option<SegmentCursor<File>>,
    /// The cursor's buffer while no segment is open, kept for the next one.
    buffer: Vec<u8>,
    /// Entries emitted from this chain so far.
    entries: u64,
    /// The frames read from the current segment: what its footer must index.
    walked: Vec<ChunkInfo>,
}

/// Outcome of one [`DatasetTail::poll_chunks`] (or [`DatasetTail::poll`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TailPoll {
    /// Entries newly decoded and reported this poll.
    pub entries: u64,
    /// Chunk frames newly decoded this poll.
    pub chunks: u64,
    /// Segments the tail advanced past (rotations observed).
    pub segments_advanced: u64,
}

/// Incremental reader over a dataset directory that is still being
/// written. See the [module docs](self).
pub struct DatasetTail {
    dir: PathBuf,
    chains: Vec<ChainTail>,
    scratch: ChunkScratch,
}

impl DatasetTail {
    /// Opens a tail over `dir` for `monitors` chains, starting every
    /// cursor at the beginning of segment 0. Nothing is read until the
    /// first poll; segment files do not need to exist yet.
    pub fn open(dir: impl AsRef<Path>, monitors: usize) -> Self {
        Self {
            dir: dir.as_ref().to_path_buf(),
            chains: (0..monitors)
                .map(|monitor| ChainTail {
                    monitor,
                    ..ChainTail::default()
                })
                .collect(),
            scratch: ChunkScratch::default(),
        }
    }

    /// Total entries emitted per monitor since the tail was opened.
    pub fn entries_read(&self) -> Vec<u64> {
        self.chains.iter().map(|chain| chain.entries).collect()
    }

    /// Reads every chain forward as far as complete, CRC-valid frames
    /// allow, reporting each validated chunk to `f` with the dataset-wide
    /// index of its monitor. Safe to call any number of times; each chunk
    /// is reported exactly once across polls, and a chain's chunks in chain
    /// order. On error, the chunks read before the damage have been
    /// reported.
    pub fn poll_chunks(
        &mut self,
        mut f: impl FnMut(usize, &ChunkView<'_>),
    ) -> Result<TailPoll, SegmentError> {
        let mut report = TailPoll::default();
        for chain in &mut self.chains {
            poll_chain(&self.dir, chain, &mut self.scratch, &mut report, &mut f)?;
        }
        obs::counter!("tail.polls").incr();
        obs::counter!("tail.entries").add(report.entries);
        obs::counter!("tail.chunks").add(report.chunks);
        Ok(report)
    }

    /// [`DatasetTail::poll_chunks`] with every row materialised as an
    /// entry (its global monitor index restored), in stored order.
    pub fn poll(&mut self, mut f: impl FnMut(TraceEntry)) -> Result<TailPoll, SegmentError> {
        self.poll_chunks(|monitor, view| {
            for j in 0..view.len() {
                let mut entry = view.entry(j);
                entry.monitor = monitor;
                f(entry);
            }
        })
    }
}

/// Whether the segment `chain` is reading has been sealed: rotation creates
/// the next segment file only after durably sealing the current one, and a
/// manifest only ever *lists* sealed segments — a manifest that merely
/// exists (e.g. rebuilt by recovery while a resumed writer grows new
/// segments) seals nothing by itself. The manifest is only ever replaced
/// whole, by rename, so a manifest that does not load is damage and fails
/// the poll.
fn current_is_sealed(dir: &Path, monitor: usize, sequence: u64) -> Result<bool, SegmentError> {
    let next = dir.join(SegmentMeta::file_name_of(monitor, sequence + 1));
    if next.exists() {
        return Ok(true);
    }
    match Manifest::load(dir.join(MANIFEST_FILE_NAME)) {
        Ok(manifest) => Ok(manifest
            .segments
            .iter()
            .any(|s| s.monitor == monitor && s.sequence == sequence)),
        Err(SegmentError::Io(e)) if e.kind() == ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// Reads `chain` forward through as many segments as are complete. The
/// segment being read stays open, and the bytes of a frame the writer is
/// still flushing wait in its cursor for the next poll. Segment files only
/// grow while a tail follows them — recovery, which truncates, runs before
/// the service opens its tail — so reading on from the open file sees what
/// a fresh read from the cursor's offset would.
fn poll_chain(
    dir: &Path,
    chain: &mut ChainTail,
    scratch: &mut ChunkScratch,
    report: &mut TailPoll,
    f: &mut impl FnMut(usize, &ChunkView<'_>),
) -> Result<(), SegmentError> {
    loop {
        let path = dir.join(SegmentMeta::file_name_of(chain.monitor, chain.sequence));
        let frames = match &mut chain.frames {
            Some(frames) => frames,
            None => match File::open(&path) {
                Ok(file) => {
                    let buffer = std::mem::take(&mut chain.buffer);
                    chain
                        .frames
                        .insert(SegmentCursor::new(file, 0, None, buffer))
                }
                // Not created yet — the writer has not reached this
                // sequence (or has not flushed the header). Retry later.
                Err(e) if e.kind() == ErrorKind::NotFound => return Ok(()),
                Err(e) => return Err(SegmentError::Io(e)),
            },
        };
        if !frames.header()? {
            return Ok(()); // still in flight
        }
        let (monitor, walked, entries) = (chain.monitor, &mut chain.walked, &mut chain.entries);
        let mut walk = |frames: &mut SegmentCursor<File>| {
            frames.walk(scratch, |frame, view| {
                f(monitor, view);
                report.entries += frame.entries;
                report.chunks += 1;
                *entries += frame.entries;
                walked.push(frame);
            })
        };
        walk(frames)?;
        if frames.buffered() == 0 || !current_is_sealed(dir, monitor, chain.sequence)? {
            // Fully drained (wait for more data) or mid-frame of an open
            // segment (the writer will complete it).
            return Ok(());
        }
        // Sealed since the read: the rest of the file is final now.
        walk(frames)?;
        frames.check_sealed(walked).map_err(|error| {
            SegmentError::Corrupt(format!(
                "{}: sealed segment damaged after {} chunks: {error}",
                path.display(),
                walked.len()
            ))
        })?;
        if let Some(frames) = chain.frames.take() {
            chain.buffer = frames.into_buffer();
        }
        chain.sequence += 1;
        chain.walked.clear();
        report.segments_advanced += 1;
        obs::counter!("tail.segments_advanced").incr();
    }
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

    fn entry(ms: u64, monitor: usize) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(ms),
            peer: PeerId::derived(2, ms),
            address: Multiaddr::new(1, 4001, Transport::Tcp, Country::Us),
            request_type: RequestType::WantBlock,
            cid: Cid::new_v1(Multicodec::Raw, &[monitor as u8, ms as u8]),
            monitor,
            flags: EntryFlags::default(),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ts-tail-{tag}-{}", std::process::id()))
    }

    fn config(chunk: usize, rotate: u64) -> DatasetConfig {
        DatasetConfig {
            segment: SegmentConfig {
                chunk_capacity: chunk,
            },
            rotate_after_entries: rotate,
            ..DatasetConfig::default()
        }
    }

    #[test]
    fn tail_follows_a_growing_dataset_exactly_once() {
        let dir = temp_dir("grow");
        std::fs::remove_dir_all(&dir).ok();
        let labels = vec!["a".to_string(), "b".to_string()];
        let mut writer = DatasetWriter::create(&dir, labels, config(4, 10)).unwrap();
        let mut tail = DatasetTail::open(&dir, 2);
        let mut seen: Vec<(usize, u64)> = Vec::new();
        let mut expected: Vec<(usize, u64)> = Vec::new();
        for i in 0..37u64 {
            for m in 0..2 {
                let e = entry(i * 3, m);
                expected.push((m, e.timestamp.as_millis()));
                writer.append(&e).unwrap();
            }
            if i % 5 == 0 {
                // Checkpoints flush buffered chunks to disk mid-stream.
                writer.checkpoint().unwrap();
                tail.poll(|e| seen.push((e.monitor, e.timestamp.as_millis())))
                    .unwrap();
            }
        }
        writer.finish().unwrap();
        tail.poll(|e| seen.push((e.monitor, e.timestamp.as_millis())))
            .unwrap();
        // Same multiset, per-monitor order preserved.
        assert_eq!(tail.entries_read(), vec![37, 37]);
        for m in 0..2 {
            let got: Vec<u64> = seen
                .iter()
                .filter(|(mm, _)| *mm == m)
                .map(|(_, t)| *t)
                .collect();
            let want: Vec<u64> = expected
                .iter()
                .filter(|(mm, _)| *mm == m)
                .map(|(_, t)| *t)
                .collect();
            assert_eq!(got, want, "monitor {m}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `poll_chunks` and `poll` over the same growing dataset report the
    /// same rows in the same order, and the same `TailPoll`, poll for poll.
    #[test]
    fn chunk_and_entry_polls_report_the_same_rows() {
        let dir = temp_dir("chunks-vs-entries");
        std::fs::remove_dir_all(&dir).ok();
        let labels = vec!["a".to_string(), "b".to_string()];
        let mut writer = DatasetWriter::create(&dir, labels, config(5, 17)).unwrap();
        let (mut by_chunks, mut by_entries) =
            (DatasetTail::open(&dir, 2), DatasetTail::open(&dir, 2));
        let mut polls = 0;
        let mut compare = |by_chunks: &mut DatasetTail, by_entries: &mut DatasetTail| {
            let (mut rows, mut chunks) = (Vec::new(), 0u64);
            let chunk_poll = by_chunks
                .poll_chunks(|monitor, view| {
                    chunks += 1;
                    rows.extend(view.entries().map(|mut entry| {
                        entry.monitor = monitor;
                        entry
                    }));
                })
                .unwrap();
            let mut entries = Vec::new();
            let entry_poll = by_entries.poll(|entry| entries.push(entry)).unwrap();
            assert_eq!(rows, entries);
            assert_eq!(chunk_poll, entry_poll);
            assert_eq!(chunk_poll.chunks, chunks);
            polls += 1;
        };
        for i in 0..120u64 {
            writer
                .append(&entry(i * 7 % 50 + i, (i % 3 % 2) as usize))
                .unwrap();
            if i % 11 == 0 {
                writer.checkpoint().unwrap();
                compare(&mut by_chunks, &mut by_entries);
            }
        }
        writer.finish().unwrap();
        compare(&mut by_chunks, &mut by_entries);
        assert_eq!(polls, 12);
        assert_eq!(by_chunks.entries_read(), by_entries.entries_read());
        assert_eq!(by_chunks.entries_read().iter().sum::<u64>(), 120);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_advances_across_rotations() {
        let dir = temp_dir("rotate");
        std::fs::remove_dir_all(&dir).ok();
        let mut writer =
            DatasetWriter::create(&dir, vec!["solo".to_string()], config(2, 5)).unwrap();
        for i in 0..23u64 {
            writer.append(&entry(i, 0)).unwrap();
        }
        writer.finish().unwrap();
        let mut tail = DatasetTail::open(&dir, 1);
        let mut count = 0u64;
        let report = tail.poll(|_| count += 1).unwrap();
        assert_eq!(count, 23);
        assert_eq!(report.entries, 23);
        // 23 entries at 5 per segment = 4 sealed rotations to skip past.
        assert!(report.segments_advanced >= 4);
        // A second poll reports nothing new.
        let again = tail.poll(|_| count += 1).unwrap();
        assert_eq!(again.entries, 0);
        assert_eq!(count, 23);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The manifest is replaced only whole, so one that does not load is
    /// damage: the poll fails instead of treating the last segment as
    /// open and never checking its footer.
    #[test]
    fn damaged_manifest_fails_the_poll() {
        let dir = temp_dir("bad-manifest");
        std::fs::remove_dir_all(&dir).ok();
        let mut writer =
            DatasetWriter::create(&dir, vec!["solo".to_string()], config(2, 5)).unwrap();
        for i in 0..23u64 {
            writer.append(&entry(i, 0)).unwrap();
        }
        writer.finish().unwrap();
        let path = dir.join(MANIFEST_FILE_NAME);
        let intact = std::fs::read(&path).unwrap();
        let mut damaged = intact.clone();
        damaged[intact.len() / 2] ^= 0x01;
        std::fs::write(&path, &damaged).unwrap();

        let mut tail = DatasetTail::open(&dir, 1);
        let mut count = 0u64;
        let error = tail.poll(|_| count += 1).unwrap_err();
        assert!(
            matches!(&error, SegmentError::ChecksumMismatch { location } if location == "manifest"),
            "{error:?}"
        );
        // Every chunk read before the damage was reported.
        assert_eq!(count, 23);

        // Repaired, the next poll seals the last segment and reports nothing new.
        std::fs::write(&path, &intact).unwrap();
        let report = tail.poll(|_| count += 1).unwrap();
        assert_eq!((report.entries, report.segments_advanced), (0, 1));
        assert_eq!(count, 23);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The restart replay reads a finished segment of many chunks from
    /// position 0 in one poll. The chain's buffer then holds at most the
    /// largest frame plus one read piece — not the segment — whether frames
    /// are far smaller than a piece or span several pieces.
    #[test]
    fn restart_replay_holds_one_frame_plus_one_piece() {
        for chunk in [64, 4096] {
            let dir = temp_dir(&format!("bounded-{chunk}"));
            std::fs::remove_dir_all(&dir).ok();
            let mut writer =
                DatasetWriter::create(&dir, vec!["solo".to_string()], config(chunk, u64::MAX))
                    .unwrap();
            for i in 0..20_000u64 {
                writer.append(&entry(i, 0)).unwrap();
            }
            writer.finish().unwrap();
            let path = dir.join(SegmentMeta::file_name_of(0, 0));
            let reader = crate::reader::TraceReader::open(&path).unwrap();
            let largest = reader.chunks().iter().map(|c| c.len).max().unwrap() as usize;
            let segment_len = std::fs::metadata(&path).unwrap().len() as usize;
            assert!(segment_len > 2 * (largest + READ_PIECE), "chunk {chunk}");

            let mut tail = DatasetTail::open(&dir, 1);
            let mut seen = 0u64;
            let report = tail.poll(|e| {
                assert_eq!(e.timestamp.as_millis(), seen);
                seen += 1;
            });
            assert_eq!(report.unwrap().segments_advanced, 1, "chunk {chunk}");
            assert_eq!(seen, 20_000, "chunk {chunk}");
            let capacity = tail.chains[0].buffer.capacity();
            assert!(
                capacity <= largest + READ_PIECE,
                "chunk {chunk}: {capacity} B held, largest frame {largest} B"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn tail_of_an_empty_directory_reports_nothing() {
        let dir = temp_dir("empty");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut tail = DatasetTail::open(&dir, 3);
        let report = tail.poll(|_| panic!("no entries expected")).unwrap();
        assert_eq!(report, TailPoll::default());
        std::fs::remove_dir_all(&dir).ok();
    }
}
