//! Crash-recovery properties of the tracestore durability subsystem.
//!
//! The contract under test (see `docs/ROBUSTNESS.md`): for *any* crash point
//! during collection — mid-chunk, mid-rotation, mid-checkpoint, torn or
//! clean — `recover_dataset` must turn the crashed directory back into a
//! readable dataset whose per-monitor streams are an exact prefix of the
//! fault-free run, with zero loss of anything a checkpoint promised durable,
//! and recovery itself must be idempotent and re-runnable after being
//! crashed mid-repair. Complemented by the byte-level torn-tail property
//! (any truncation of a segment file recovers the longest CRC-valid chunk
//! prefix and never panics), one damaged dataset recovered with an exact
//! report, and stray files named like segments that recovery must leave
//! alone.

use ipfs_monitoring::bitswap::RequestType;
use ipfs_monitoring::core::{MonitorService, ServiceConfig};
use ipfs_monitoring::simnet::time::SimTime;
use ipfs_monitoring::tracestore::{
    recover_dataset, recover_dataset_with, AnalysisSink, ConnectionRecord, DatasetConfig,
    DatasetTail, DatasetWriter, EntryFlags, FaultPlan, FaultyStorage, ManifestReader,
    QuarantineReason, SegmentConfig, SegmentError, TraceEntry, TraceReader,
};
use ipfs_monitoring::types::{Cid, Country, Multiaddr, Multicodec, PeerId, Transport};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

mod common;
use common::fresh_dir as temp_dir;

const MONITORS: usize = 2;
const ENTRIES: u64 = 240;

fn entry(i: u64, monitor: usize) -> TraceEntry {
    TraceEntry {
        // Strictly increasing per monitor, so a monitor's stream order is
        // its append order and prefix-consistency is directly comparable.
        timestamp: SimTime::from_millis(i * 10 + monitor as u64),
        peer: PeerId::derived(5, i % 13),
        address: Multiaddr::new((i % 7) as u32, 4001, Transport::Tcp, Country::Us),
        request_type: if i.is_multiple_of(3) {
            RequestType::WantBlock
        } else {
            RequestType::WantHave
        },
        cid: Cid::new_v1(Multicodec::Raw, &(i % 31).to_be_bytes()),
        monitor,
        flags: EntryFlags::default(),
    }
}

/// The fault-free reference: what each monitor would hold if nothing ever
/// crashed, in stream order.
fn reference_per_monitor() -> Vec<Vec<TraceEntry>> {
    let mut per_monitor = vec![Vec::new(); MONITORS];
    for i in 0..ENTRIES {
        let monitor = (i % MONITORS as u64) as usize;
        per_monitor[monitor].push(entry(i, monitor));
    }
    per_monitor
}

fn config() -> DatasetConfig {
    DatasetConfig {
        segment: SegmentConfig { chunk_capacity: 16 },
        rotate_after_entries: 50,
        checkpoint_after_entries: 60,
    }
}

fn connection(monitor: usize) -> ConnectionRecord {
    ConnectionRecord {
        monitor,
        peer: PeerId::derived(5, monitor as u64),
        address: Multiaddr::new(monitor as u32, 4001, Transport::Tcp, Country::Us),
        connected_at: SimTime::from_millis(0),
        disconnected_at: None,
    }
}

/// Drives a collection run against `storage` until the first error (the
/// injected crash) or clean completion. Returns whether `finish` ran clean.
fn drive_collection(dir: &Path, storage: &FaultyStorage) -> bool {
    let mut writer = match DatasetWriter::create_with(
        dir,
        vec!["us".into(), "de".into()],
        config(),
        Arc::new(storage.clone()),
    ) {
        Ok(writer) => writer,
        Err(_) => return false,
    };
    for monitor in 0..MONITORS {
        if writer.record_connection(connection(monitor)).is_err() {
            return false;
        }
    }
    for i in 0..ENTRIES {
        let monitor = (i % MONITORS as u64) as usize;
        if writer.append(&entry(i, monitor)).is_err() {
            return false;
        }
    }
    writer.finish().is_ok()
}

/// Streams every monitor of a recovered dataset and checks it is an exact
/// prefix of the fault-free reference. Returns total entries streamed.
fn assert_prefix_consistent(dir: &Path, reference: &[Vec<TraceEntry>], context: &str) -> u64 {
    let reader = ManifestReader::open(dir)
        .unwrap_or_else(|error| panic!("{context}: recovered dataset must open: {error}"));
    assert!(
        reader.monitor_count() <= reference.len(),
        "{context}: recovery cannot invent monitors"
    );
    let mut streamed = 0u64;
    for (monitor, want) in reference.iter().enumerate().take(reader.monitor_count()) {
        let mut stream = reader.stream_monitor_sorted(monitor);
        let recovered: Vec<TraceEntry> = stream.by_ref().collect();
        assert!(
            stream.take_error().is_none(),
            "{context}: recovered monitor {monitor} must stream clean"
        );
        assert!(
            recovered.len() <= want.len(),
            "{context}: monitor {monitor} recovered more than was written"
        );
        assert_eq!(
            recovered,
            want[..recovered.len()],
            "{context}: monitor {monitor} is not a prefix of the fault-free run"
        );
        streamed += recovered.len() as u64;
    }
    streamed
}

/// The tentpole property: a matrix of ≥50 crash points — clean and torn
/// crashes, ops spanning chunk spills, rotations, checkpoints and the final
/// manifest write — each recovered to a prefix-consistent dataset with zero
/// loss past the last checkpoint, and recovery idempotent.
#[test]
fn crash_matrix_recovers_prefix_consistent_datasets() {
    let reference = reference_per_monitor();
    let mut crash_points_tested = 0u64;
    let mut truncations_seen = 0u64;

    // Learn the op budget of a fault-free run, and pin the reference.
    let clean_dir = temp_dir("clean");
    let probe = FaultyStorage::new(FaultPlan::none());
    assert!(
        drive_collection(&clean_dir, &probe),
        "fault-free run must finish"
    );
    let total_ops = probe.ops();
    assert!(total_ops >= 20, "run must route its I/O through Storage");
    assert_eq!(
        assert_prefix_consistent(&clean_dir, &reference, "fault-free"),
        ENTRIES,
        "fault-free run must hold every entry"
    );
    std::fs::remove_dir_all(&clean_dir).unwrap();

    // Sample crash points across the whole run; alternate clean crashes
    // (the failing op never happens) with torn ones (the failing write
    // lands a bogus prefix that recovery must cut back).
    let stride = (total_ops / 54).max(1);
    for (k, crash_at) in (0..total_ops).step_by(stride as usize).enumerate() {
        let dir = temp_dir(&format!("crash-{crash_at}"));
        let plan = if k % 2 == 0 {
            FaultPlan::crash_at(crash_at)
        } else {
            FaultPlan::torn_at(crash_at, 0x5eed ^ crash_at)
        };
        let faulty = FaultyStorage::new(plan);
        let finished = drive_collection(&dir, &faulty);
        assert!(!finished, "crash at op {crash_at} must abort the run");

        let context = format!("crash at op {crash_at}");
        let report = recover_dataset(&dir)
            .unwrap_or_else(|error| panic!("{context}: recovery failed: {error}"));
        assert_eq!(
            report.entries_lost_after_checkpoint, 0,
            "{context}: checkpointed entries must survive any crash"
        );
        truncations_seen += report.segments_truncated as u64;

        let streamed = assert_prefix_consistent(&dir, &reference, &context);
        assert_eq!(
            streamed, report.entries_recovered,
            "{context}: report must count exactly what streams back"
        );
        let durable: u64 = report.resume.iter().map(|c| c.entries_durable).sum();
        assert_eq!(
            durable, report.entries_recovered,
            "{context}: resume cursors must agree with the recovered total"
        );

        // Idempotence: recovering a recovered dataset changes nothing.
        let again = recover_dataset(&dir)
            .unwrap_or_else(|error| panic!("{context}: second recovery failed: {error}"));
        assert!(again.clean, "{context}: second recovery must be a no-op");
        assert_eq!(again.entries_recovered, report.entries_recovered);

        crash_points_tested += 1;
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(
        crash_points_tested >= 50,
        "matrix must cover at least 50 crash points, got {crash_points_tested}"
    );
    assert!(
        truncations_seen > 0,
        "matrix must exercise torn-tail truncation at least once"
    );
}

/// Writes a single-segment, single-monitor dataset and returns the segment
/// path plus the chunk index boundaries (end offset, cumulative entries).
fn single_segment_dataset(dir: &Path, entries: u64) -> (PathBuf, Vec<(u64, u64)>) {
    let mut writer = DatasetWriter::create(
        dir,
        vec!["us".into()],
        DatasetConfig {
            segment: SegmentConfig { chunk_capacity: 16 },
            rotate_after_entries: u64::MAX,
            ..DatasetConfig::default()
        },
    )
    .unwrap();
    for i in 0..entries {
        writer.append(&entry(i, 0)).unwrap();
    }
    writer.finish().unwrap();
    let path = dir.join("seg-000-00000.seg");
    let bytes = std::fs::read(&path).unwrap();
    let reader = TraceReader::new(ipfs_monitoring::tracestore::SliceSource::new(&bytes)).unwrap();
    let mut cumulative = 0u64;
    let boundaries = reader
        .chunks()
        .iter()
        .map(|info| {
            cumulative += info.entries;
            (info.offset + info.len, cumulative)
        })
        .collect();
    (path, boundaries)
}

/// Entries recoverable from a segment truncated to `len` bytes: the longest
/// chunk prefix whose frames fit entirely inside the kept bytes.
fn expected_after_truncation(boundaries: &[(u64, u64)], len: u64) -> u64 {
    boundaries
        .iter()
        .take_while(|(end, _)| *end <= len)
        .last()
        .map(|(_, entries)| *entries)
        .unwrap_or(0)
}

/// Truncates the segment to `len`, recovers, and checks the dataset streams
/// exactly the longest CRC-valid chunk prefix. Never panics, any `len`.
fn check_truncation(len: u64, tag: &str) {
    let dir = temp_dir(&format!("torn-{tag}"));
    let (path, boundaries) = single_segment_dataset(&dir, 200);
    let full = std::fs::metadata(&path).unwrap().len();
    let len = len.min(full);
    let expected = expected_after_truncation(&boundaries, len);

    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..len as usize]).unwrap();

    let context = format!("truncated to {len}/{full}");
    let report =
        recover_dataset(&dir).unwrap_or_else(|error| panic!("{context}: recovery failed: {error}"));
    assert_eq!(
        report.entries_recovered, expected,
        "{context}: must recover exactly the valid chunk prefix"
    );

    let reference = {
        let mut per_monitor = vec![Vec::new()];
        for i in 0..200 {
            per_monitor[0].push(entry(i, 0));
        }
        per_monitor
    };
    let streamed = assert_prefix_consistent(&dir, &reference, &context);
    assert_eq!(streamed, expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    /// Any byte-length truncation of a segment: recovery returns the longest
    /// CRC-valid chunk prefix and never panics.
    #[test]
    fn torn_tail_truncation_recovers_longest_valid_prefix(fraction in 0.0f64..=1.0) {
        // `check_truncation` clamps to the real file length; 1 MiB is a safe
        // upper bound for a 200-entry segment, so `fraction` spans the file.
        let len = (fraction * (1 << 20) as f64) as u64;
        check_truncation(len, &format!("prop-{len}"));
    }
}

/// A one-monitor dataset of 100 entries whose segment is cut after its last
/// chunk and continued with a frame length near 2^64 plus 32 zero bytes: a
/// length that overflows `offset + frame length` instead of merely pointing
/// past the end of the file. Returns the directory, the segment path and
/// the length of the segment's valid prefix.
fn crafted_length_dataset(tag: &str) -> (PathBuf, PathBuf, u64) {
    let dir = temp_dir(tag);
    let (path, boundaries) = single_segment_dataset(&dir, 100);
    let valid_end = boundaries.last().unwrap().0;
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.truncate(valid_end as usize);
    ipfs_monitoring::types::varint::encode(u64::MAX - 64, &mut bytes);
    bytes.extend_from_slice(&[0u8; 32]);
    std::fs::write(&path, &bytes).unwrap();
    (dir, path, valid_end)
}

fn first_hundred() -> Vec<Vec<TraceEntry>> {
    vec![(0..100).map(|i| entry(i, 0)).collect()]
}

/// The walk over chunk frames ends at a crafted length without panicking, in
/// debug (`attempt to add with overflow`) or release (a slice whose end
/// wrapped below its start): recovery truncates to the valid prefix and
/// keeps every entry before it.
#[test]
fn crafted_frame_length_is_truncated_by_recovery() {
    let (dir, path, valid_end) = crafted_length_dataset("crafted-recover");
    let damaged_len = std::fs::metadata(&path).unwrap().len();
    let report = recover_dataset(&dir).expect("recovery must not fail on a crafted length");
    assert_eq!(report.segments_truncated, 1);
    assert_eq!(report.bytes_truncated, damaged_len - valid_end);
    assert_eq!(report.entries_recovered, 100);
    assert!(report.quarantined.is_empty());
    let streamed = assert_prefix_consistent(&dir, &first_hundred(), "crafted length");
    assert_eq!(streamed, 100);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The live tail walks the same frames: it reports exactly the entries
/// before the crafted length, then — the manifest lists the segment as
/// sealed, so the crafted bytes stand where its footer must be — fails the
/// poll as corrupt instead of panicking or moving past the segment, on
/// every poll after too.
#[test]
fn crafted_frame_length_ends_the_tail_poll() {
    let (dir, _, _) = crafted_length_dataset("crafted-tail");
    let mut tail = DatasetTail::open(&dir, 1);
    let mut seen = Vec::new();
    let err = tail
        .poll(|entry| seen.push(entry))
        .expect_err("a sealed segment without its footer is corrupt");
    assert!(matches!(err, SegmentError::Corrupt(_)), "{err}");
    assert_eq!(vec![seen], first_hundred());
    assert_eq!(tail.entries_read(), vec![100]);
    let again = tail.poll(|_| panic!("nothing new")).unwrap_err();
    assert!(matches!(again, SegmentError::Corrupt(_)), "{again}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// 80 entries of one monitor in chunks of 10, rotated at 50: the sealed
/// `seg-000-00000` holds five chunks and the footer, `seg-000-00001` the
/// rest. Returns the sealed segment's path and its chunk index.
fn rotated_dataset(dir: &Path, service: Option<&mut MonitorService>) -> (PathBuf, Vec<(u64, u64)>) {
    match service {
        Some(service) => {
            for i in 0..80 {
                service.ingest(&entry(i, 0)).unwrap();
            }
            service.checkpoint().unwrap();
        }
        None => {
            let mut writer =
                DatasetWriter::create(dir, vec!["us".into()], rotated_config()).unwrap();
            for i in 0..80 {
                writer.append(&entry(i, 0)).unwrap();
            }
            writer.checkpoint().unwrap();
        }
    }
    let path = dir.join("seg-000-00000.seg");
    assert!(dir.join("seg-000-00001.seg").exists(), "rotated at 50");
    let bytes = std::fs::read(&path).unwrap();
    let reader = TraceReader::new(ipfs_monitoring::tracestore::SliceSource::new(&bytes)).unwrap();
    let chunks = reader
        .chunks()
        .iter()
        .map(|info| (info.offset, info.len))
        .collect();
    (path, chunks)
}

fn rotated_config() -> DatasetConfig {
    DatasetConfig {
        segment: SegmentConfig { chunk_capacity: 10 },
        rotate_after_entries: 50,
        checkpoint_after_entries: u64::MAX,
    }
}

fn flip_byte(path: &Path, at: u64) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[at as usize] ^= 0x5a;
    std::fs::write(path, bytes).unwrap();
}

/// A damaged sealed segment fails the tail typed, after reporting the
/// chunks before the damage, instead of skipping the rest of the segment:
/// a flipped byte in its fourth chunk (30 entries before it) or in its
/// footer (all 50 before it), and its fourth chunk cut out whole (the walk
/// reaches the intact footer, which indexes one chunk and 10 entries more
/// than the 40 before it). Polling again fails the same way.
#[test]
fn damaged_sealed_segment_fails_the_tail_poll() {
    let sites: [(&str, Vec<u64>); 3] = [
        ("chunk", (0..30).collect()),
        ("footer", (0..50).collect()),
        ("cut", (0..30).chain(40..50).collect()),
    ];
    for (site, reported) in sites {
        let dir = temp_dir(&format!("sealed-damage-{site}"));
        let (path, chunks) = rotated_dataset(&dir, None);
        assert_eq!(chunks.len(), 5);
        let (fourth, len) = chunks[3];
        match site {
            "chunk" => flip_byte(&path, fourth + len / 2),
            "footer" => flip_byte(&path, chunks[4].0 + chunks[4].1 + 2),
            _ => {
                let mut bytes = std::fs::read(&path).unwrap();
                bytes.drain(fourth as usize..(fourth + len) as usize);
                std::fs::write(&path, bytes).unwrap();
            }
        }
        let mut tail = DatasetTail::open(&dir, 1);
        let mut seen = Vec::new();
        let err = tail.poll(|entry| seen.push(entry)).unwrap_err();
        assert!(matches!(err, SegmentError::Corrupt(_)), "{site}: {err}");
        let want: Vec<TraceEntry> = reported.into_iter().map(|i| entry(i, 0)).collect();
        assert_eq!(seen, want, "{site}");
        let again = tail.poll(|_| panic!("{site}: nothing new")).unwrap_err();
        assert!(matches!(again, SegmentError::Corrupt(_)), "{site}: {again}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The same damage under the service: its poll fails typed, and the windows
/// the rows before the damage sealed are durable first.
#[test]
fn damaged_sealed_segment_fails_the_service_poll() {
    use ipfs_monitoring::core::{read_window_log, window_file_name, WINDOW_DIR_NAME};
    use ipfs_monitoring::simnet::time::SimDuration;
    use ipfs_monitoring::tracestore::{LatePolicy, WindowSpec};

    let dir = temp_dir("sealed-damage-service");
    let config = ServiceConfig {
        dataset: rotated_config(),
        // Ten entries, 10 ms apart, per window.
        window: WindowSpec::tumbling(SimDuration::from_millis(100)),
        lateness: SimDuration::ZERO,
        policy: LatePolicy::Strict,
        top_k: 4,
    };
    let (mut service, _) = MonitorService::open(&dir, vec!["us".into()], config).unwrap();
    let (path, chunks) = rotated_dataset(&dir, Some(&mut service));
    flip_byte(&path, chunks[3].0 + chunks[3].1 / 2);

    let err = service.poll().unwrap_err();
    assert!(matches!(err, SegmentError::Corrupt(_)), "{err}");
    // Entries 0..30 passed windows 0 and 1; window 2 waits for entry 30.
    let logged = read_window_log(&dir).unwrap();
    assert_eq!(logged.len(), 2);
    for (i, line) in logged.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"index\":{i},")), "{line}");
    }
    let again = service.poll().unwrap_err();
    assert!(matches!(again, SegmentError::Corrupt(_)), "{again}");
    // The window files follow the log once the service is gone.
    drop(service);
    let window_dir = dir.join(WINDOW_DIR_NAME);
    let mut names: Vec<String> = std::fs::read_dir(&window_dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, vec![window_file_name(0), window_file_name(1)]);
    for (i, line) in logged.iter().enumerate() {
        let on_disk = std::fs::read_to_string(window_dir.join(&names[i])).unwrap();
        assert_eq!(&on_disk, line);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The service opens over such a directory: its recovery pass truncates, its
/// replay analyses every entry that survived.
#[test]
fn crafted_frame_length_does_not_stop_the_service_from_opening() {
    let (dir, _, _) = crafted_length_dataset("crafted-service");
    let (service, recovery) =
        MonitorService::open(&dir, vec!["us".into()], ServiceConfig::default())
            .expect("the service must open over a crafted length");
    assert_eq!(recovery.segments_truncated, 1);
    assert_eq!(recovery.entries_recovered, 100);
    let report = service.finish().unwrap();
    assert_eq!(report.entries_analyzed, vec![100]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A segment holds one monitor's entries, stored as monitor 0. A frame that
/// names another monitor under a valid CRC was not written for this
/// segment: the live tail, crash recovery and the batch reader must give one
/// answer about it — the segment ends before that frame — instead of the
/// tail delivering its rows, recovery counting them as recovered, and the
/// reader then refusing the dataset recovery just wrote.
#[test]
fn foreign_monitor_frame_ends_the_segment_for_tail_recovery_and_reader() {
    use ipfs_monitoring::tracestore::crc::crc32;
    use ipfs_monitoring::types::varint;

    // A torn open segment: no footer, no manifest, frames to the end.
    let dir = temp_dir("foreign-frame");
    let (path, boundaries) = single_segment_dataset(&dir, 100);
    std::fs::remove_file(dir.join(ipfs_monitoring::tracestore::MANIFEST_FILE_NAME)).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.truncate(boundaries.last().unwrap().0 as usize);
    // The third frame: length prefix, then a payload of codec byte, mode
    // byte, stored monitor index, columns; then the payload's CRC. Name
    // monitor 1 and re-fix the CRC, so that nothing but the index is wrong.
    let (frame_start, kept_entries) = boundaries[1];
    let (payload_len, prefix_len) = varint::decode(&bytes[frame_start as usize..]).unwrap();
    let payload =
        frame_start as usize + prefix_len..frame_start as usize + prefix_len + payload_len as usize;
    assert_eq!(
        bytes[payload.start..payload.start + 3],
        [ipfs_monitoring::tracestore::codec::CHUNK_CODEC, 0, 0]
    );
    bytes[payload.start + 2] = 1;
    let crc = crc32(&bytes[payload.clone()]);
    bytes[payload.end..payload.end + 4].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let kept: Vec<Vec<TraceEntry>> = vec![(0..kept_entries).map(|i| entry(i, 0)).collect()];
    assert_eq!(kept_entries, 32, "two chunks of 16");

    // The tail, on a copy recovery has not touched.
    let tailed = temp_dir("foreign-frame-tail");
    copy_dir(&dir, &tailed);
    let mut tail = DatasetTail::open(&tailed, 1);
    let mut seen = Vec::new();
    let poll = tail.poll(|entry| seen.push(entry)).unwrap();
    assert_eq!((poll.entries, poll.chunks), (kept_entries, 2));
    assert_eq!(vec![seen], kept);
    assert_eq!(tail.poll(|_| panic!("nothing new")).unwrap().entries, 0);
    std::fs::remove_dir_all(&tailed).unwrap();

    // Recovery keeps the same rows...
    let report = recover_dataset(&dir).unwrap();
    assert_eq!(report.entries_recovered, kept_entries);
    assert_eq!(report.segments_truncated, 1);
    assert_eq!(report.bytes_truncated, bytes.len() as u64 - frame_start);
    assert!(report.quarantined.is_empty());
    // ...and what it wrote opens and streams them.
    let streamed = assert_prefix_consistent(&dir, &kept, "foreign-monitor frame");
    assert_eq!(streamed, kept_entries);
    assert!(recover_dataset(&dir).unwrap().clean);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same for the footer: one that lists two monitors is refused when the
/// segment is opened — `Corrupt`, not a panic, not a reader that then
/// filters chunks by an index nothing checks.
#[test]
fn two_label_footer_is_corrupt() {
    use ipfs_monitoring::tracestore::crc::crc32;
    use ipfs_monitoring::tracestore::{SegmentError, SliceSource};
    use ipfs_monitoring::types::varint;

    let dir = temp_dir("two-label-footer");
    let (path, boundaries) = single_segment_dataset(&dir, 100);
    let sealed = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(TraceReader::new(SliceSource::new(&sealed)).is_ok());

    // footer := payload crc32(payload) payload_len:u64le magic, the payload
    // opening with the label list and one lateness bound per label.
    let footer_start = boundaries.last().unwrap().0 as usize;
    let payload = &sealed[footer_start..sealed.len() - 16];
    assert_eq!(payload[..4], [1, 2, b'u', b's']);
    let (lateness, lateness_len) = varint::decode(&payload[4..]).unwrap();
    let mut doctored = vec![2, 2, b'u', b's', 2, b'd', b'e'];
    varint::encode(lateness, &mut doctored);
    varint::encode(lateness, &mut doctored);
    doctored.extend_from_slice(&payload[4 + lateness_len..]);

    let mut bytes = sealed[..footer_start].to_vec();
    bytes.extend_from_slice(&doctored);
    bytes.extend_from_slice(&crc32(&doctored).to_le_bytes());
    bytes.extend_from_slice(&(doctored.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&sealed[sealed.len() - 4..]);
    match TraceReader::new(SliceSource::new(&bytes)) {
        Err(SegmentError::Corrupt(what)) => assert!(what.contains("2 monitor labels"), "{what}"),
        Ok(_) => panic!("a two-label footer must not open"),
        Err(other) => panic!("a two-label footer must be Corrupt: {other}"),
    }
}

/// Deterministic boundary sweep of the same property: exact chunk frame
/// boundaries and their off-by-one neighbours, plus the degenerate lengths.
#[test]
fn torn_tail_boundary_sweep() {
    let probe_dir = temp_dir("torn-probe");
    let (path, boundaries) = single_segment_dataset(&probe_dir, 200);
    let full = std::fs::metadata(&path).unwrap().len();
    std::fs::remove_dir_all(&probe_dir).unwrap();

    let mut lengths = vec![0, 1, 4, 5, 6, full.saturating_sub(1), full];
    for &(end, _) in &boundaries {
        lengths.extend([end.saturating_sub(1), end, end + 1]);
    }
    for (k, len) in lengths.into_iter().enumerate() {
        check_truncation(len, &format!("sweep-{k}"));
    }
}

/// A segment of the previous format version — v2, whose chunks may be in
/// layouts this build no longer decodes — is not a torn segment to cut back
/// to its first undecodable chunk: recovery moves it to `quarantine/` byte
/// for byte, as a bad header, and keeps nothing of it in the dataset.
#[test]
fn v2_segment_is_quarantined_byte_identical() {
    let dir = temp_dir("v2-segment");
    let (path, _) = single_segment_dataset(&dir, 100);
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[..4], b"IPMT");
    bytes[4] = 2;
    std::fs::write(&path, &bytes).unwrap();

    let report = recover_dataset(&dir).unwrap();
    assert_eq!(report.quarantined.len(), 1, "{report:?}");
    let quarantined = &report.quarantined[0];
    assert_eq!(
        (
            quarantined.file_name.as_str(),
            quarantined.monitor,
            quarantined.sequence
        ),
        ("seg-000-00000.seg", 0, 0)
    );
    match &quarantined.reason {
        QuarantineReason::BadHeader(detail) => assert!(detail.contains("version 2"), "{detail}"),
        other => panic!("a v2 segment is a bad header, not {other:?}"),
    }
    assert_eq!(report.entries_recovered, 0);
    assert_eq!(report.segments_truncated, 0);
    assert!(!path.exists());
    assert_eq!(
        std::fs::read(dir.join("quarantine/seg-000-00000.seg")).unwrap(),
        bytes
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[derive(Clone, Default)]
struct CountSink {
    entries: u64,
}

impl AnalysisSink for CountSink {
    type Output = u64;

    fn consume(&mut self, _entry: TraceEntry) {
        self.entries += 1;
    }

    fn combine(&mut self, other: Self) {
        self.entries += other.entries;
    }

    fn finish(self) -> u64 {
        self.entries
    }
}

/// The fault-free two-monitor dataset, finished: each monitor rotates every
/// 50 of its 120 entries, so segments 0..=2 per monitor.
fn finished_dataset(dir: &Path) {
    let mut writer = DatasetWriter::create(dir, vec!["us".into(), "de".into()], config()).unwrap();
    for i in 0..ENTRIES {
        let monitor = (i % MONITORS as u64) as usize;
        writer.append(&entry(i, monitor)).unwrap();
    }
    writer.finish().unwrap();
}

/// A damaged dataset — one segment deleted, one CRC-broken mid-stream, one
/// truncated — fails to open, and recovery is the one repair: an exact
/// report of what it quarantined and lost, then a dataset every read path
/// streams the surviving prefix of.
#[test]
fn damaged_dataset_recovers_with_exact_report() {
    let dir = temp_dir("damaged");
    finished_dataset(&dir);

    // Damage: delete monitor 0's middle segment, CRC-break a late chunk of
    // its last segment (footer stays valid, so only a decode finds it), and
    // truncate monitor 1's first segment to a header and five more bytes.
    std::fs::remove_file(dir.join("seg-000-00001.seg")).unwrap();

    let corrupted = dir.join("seg-000-00002.seg");
    let mut bytes = std::fs::read(&corrupted).unwrap();
    let reader = TraceReader::new(ipfs_monitoring::tracestore::SliceSource::new(&bytes)).unwrap();
    let chunks: Vec<_> = reader.chunks().to_vec();
    assert!(
        chunks.len() >= 2,
        "need a chunk to survive before the damage"
    );
    let flip_at = (chunks[1].offset + chunks[1].len / 2) as usize;
    drop(reader);
    bytes[flip_at] ^= 0x40;
    std::fs::write(&corrupted, &bytes).unwrap();

    let truncated = dir.join("seg-001-00000.seg");
    let head = std::fs::read(&truncated).unwrap();
    std::fs::write(&truncated, &head[..10]).unwrap();

    assert!(ManifestReader::open(&dir).is_err(), "damage fails the open");

    let report = recover_dataset(&dir).unwrap();
    let quarantined: Vec<_> = report
        .quarantined
        .iter()
        .map(|q| {
            (
                q.monitor,
                q.sequence,
                q.file_name.as_str(),
                q.reason.clone(),
            )
        })
        .collect();
    let broken_at = |broken_at_sequence| QuarantineReason::ChainBroken { broken_at_sequence };
    assert_eq!(
        quarantined,
        vec![
            (1, 0, "seg-001-00000.seg", QuarantineReason::NoValidData),
            (0, 2, "seg-000-00002.seg", broken_at(1)),
            (1, 1, "seg-001-00001.seg", broken_at(0)),
            (1, 2, "seg-001-00002.seg", broken_at(0)),
        ],
        "report must be exact"
    );
    assert_eq!(report.segments_truncated, 1, "the CRC-broken segment");
    assert_eq!(report.entries_lost_after_checkpoint, 190);
    assert_eq!(report.entries_recovered, 50);

    // Monitor 0 keeps its first segment; monitor 1 keeps nothing.
    let reference = reference_per_monitor();
    let reader = ManifestReader::open(&dir).unwrap();
    let mut stream = reader.stream_merged();
    let entries: Vec<TraceEntry> = stream.by_ref().collect();
    assert!(stream.take_error().is_none());
    drop(stream);
    assert_eq!(entries, reference[0][..50]);
    assert_eq!(reader.run_parallel(CountSink::default()).unwrap(), 50);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A stray file named like a segment that recovery did not write, next to
/// a finished dataset, is not this dataset's: recovery leaves it and every
/// real segment alone, and the labels stay the dataset's two. The names:
/// a monitor index at `usize::MAX` (so `index + 1` overflows — run in both
/// profiles, where overflow fails differently), one far past the labels,
/// and an unpadded spelling of `seg-000-00000.seg`.
fn check_stray_segment_name(name: &str, tag: &str) {
    let dir = temp_dir(tag);
    finished_dataset(&dir);
    let mut before: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|item| {
            let path = item.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect();
    before.sort();
    std::fs::write(dir.join(name), b"junk").unwrap();

    let report = recover_dataset(&dir).unwrap_or_else(|error| panic!("{name}: {error}"));
    assert_eq!(report.manifest.monitor_labels, ["us", "de"], "{name}");
    assert_eq!(report.resume.len(), MONITORS, "{name}");
    assert!(report.quarantined.is_empty(), "{name}");
    assert!(report.clean, "{name}");
    assert_eq!(std::fs::read(dir.join(name)).unwrap(), b"junk", "{name}");
    for (path, bytes) in &before {
        assert_eq!(&std::fs::read(path).unwrap(), bytes, "{name}: {path:?}");
    }
    let streamed = assert_prefix_consistent(&dir, &reference_per_monitor(), name);
    assert_eq!(streamed, ENTRIES, "{name}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stray_segment_name_at_usize_max_is_left_alone() {
    check_stray_segment_name("seg-18446744073709551615-00000.seg", "stray-max");
}

#[test]
fn stray_segment_name_past_the_labels_is_left_alone() {
    check_stray_segment_name("seg-999999-00000.seg", "stray-past-labels");
}

#[test]
fn stray_unpadded_segment_name_is_left_alone() {
    check_stray_segment_name("seg-0-0.seg", "stray-unpadded");
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for item in std::fs::read_dir(from).unwrap() {
        let item = item.unwrap();
        if item.file_type().unwrap().is_file() {
            std::fs::copy(item.path(), to.join(item.file_name())).unwrap();
        }
    }
}

/// Recovery itself can be killed at any injected op and re-run: the rerun
/// converges to the same dataset a single clean recovery produces.
#[test]
fn recovery_survives_crashes_during_recovery() {
    // One damaged dataset, reused as the template for every crash point.
    let template = temp_dir("rec-crash-template");
    finished_dataset(&template);
    // Damage: cut the last third off one segment (forces a rebuild) and
    // leave a stale tmp file (forces a sweep).
    let victim = template.join("seg-001-00001.seg");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() * 2 / 3]).unwrap();
    std::fs::write(template.join("seg-000-00000.seg.tmp"), b"stale").unwrap();

    // Reference: one clean recovery of the damaged template.
    let reference_dir = temp_dir("rec-crash-reference");
    copy_dir(&template, &reference_dir);
    let probe = FaultyStorage::new(FaultPlan::none());
    let reference_report = recover_dataset_with(&reference_dir, &probe).unwrap();
    assert!(reference_report.segments_truncated > 0);
    assert!(reference_report.tmp_files_swept > 0);
    let total_ops = probe.ops();
    assert!(total_ops > 0, "recovery must route through Storage");
    let reference = reference_per_monitor();
    let reference_total = assert_prefix_consistent(&reference_dir, &reference, "clean recovery");
    assert_eq!(reference_total, reference_report.entries_recovered);

    for crash_at in 0..total_ops {
        let dir = temp_dir(&format!("rec-crash-{crash_at}"));
        copy_dir(&template, &dir);
        let faulty = FaultyStorage::new(FaultPlan::crash_at(crash_at));
        // The crashed attempt may fail anywhere; whatever it left behind,
        // a clean rerun must converge to the reference outcome.
        let _ = recover_dataset_with(&dir, &faulty);
        let report = recover_dataset(&dir)
            .unwrap_or_else(|error| panic!("rerun after crash at op {crash_at}: {error}"));
        assert_eq!(
            report.entries_recovered, reference_report.entries_recovered,
            "crash at op {crash_at}: rerun must recover the same entries"
        );
        let total = assert_prefix_consistent(
            &dir,
            &reference,
            &format!("rerun after crash at op {crash_at}"),
        );
        assert_eq!(total, reference_total);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&template).unwrap();
    std::fs::remove_dir_all(&reference_dir).unwrap();
}

/// One monitor, chunks of 600, no rotation and no automatic checkpoint: the
/// ENOSPC script appends 3 000 entries, checkpoints after every 1 000, then
/// finishes.
fn enospc_config() -> DatasetConfig {
    DatasetConfig {
        segment: SegmentConfig {
            chunk_capacity: 600,
        },
        rotate_after_entries: u64::MAX,
        checkpoint_after_entries: u64::MAX,
    }
}

const SCRIPT_ENTRIES: u64 = 3_000;

/// What one run of the ENOSPC script was told.
struct ScriptRun {
    /// Appends that returned `Ok`.
    acknowledged: u64,
    /// Appends the last checkpoint that returned `Ok` covered.
    checkpointed: u64,
    /// Whether `finish` returned `Ok`.
    finished: bool,
}

/// Runs the ENOSPC script against `storage`, asserting that once a call
/// fails every later call fails with the same error.
fn run_enospc_script(dir: &Path, storage: &FaultyStorage) -> ScriptRun {
    let mut run = ScriptRun {
        acknowledged: 0,
        checkpointed: 0,
        finished: false,
    };
    let Ok(mut writer) = DatasetWriter::create_with(
        dir,
        vec!["us".into()],
        enospc_config(),
        Arc::new(storage.clone()),
    ) else {
        return run;
    };
    let mut first_error: Option<String> = None;
    let mut answered = |result: Result<(), SegmentError>, call: &str| match (result, &first_error) {
        (Ok(()), None) => true,
        (Ok(()), Some(error)) => panic!("{call} returned Ok after the writer failed with {error}"),
        (Err(error), None) => {
            first_error = Some(error.to_string());
            false
        }
        (Err(error), Some(first)) => {
            assert_eq!(
                &error.to_string(),
                first,
                "{call} must repeat the first error"
            );
            false
        }
    };
    for i in 0..SCRIPT_ENTRIES {
        if answered(writer.append(&entry(i, 0)), "append") {
            run.acknowledged += 1;
        }
        if (i + 1) % 1_000 == 0 && answered(writer.checkpoint().map(drop), "checkpoint") {
            run.checkpointed = run.acknowledged;
        }
    }
    run.finished = answered(writer.finish().map(drop), "finish");
    run
}

/// ENOSPC at every storage operation of the script, one at a time. A
/// failed write may leave part of a frame on disk and its entries are no
/// longer buffered, so the writer must not carry on as if the stream were
/// whole: each run either finishes with every append recoverable, or fails
/// for good at its first error — and then recovery still finds everything
/// the last successful checkpoint covered and nothing that was not
/// acknowledged.
#[test]
fn enospc_sweep_ends_the_writer_at_its_first_failed_write() {
    let reference = vec![(0..SCRIPT_ENTRIES).map(|i| entry(i, 0)).collect::<Vec<_>>()];
    let clean_dir = temp_dir("enospc-clean");
    let probe = FaultyStorage::new(FaultPlan::none());
    let clean = run_enospc_script(&clean_dir, &probe);
    assert!(clean.finished && clean.acknowledged == SCRIPT_ENTRIES);
    let total_ops = probe.ops();
    std::fs::remove_dir_all(&clean_dir).unwrap();

    let mut failed_runs = 0;
    for k in 0..total_ops {
        let dir = temp_dir(&format!("enospc-{k}"));
        let run = run_enospc_script(
            &dir,
            &FaultyStorage::new(FaultPlan {
                enospc_at_op: Some(k),
                ..FaultPlan::default()
            }),
        );
        let context = format!("ENOSPC at op {k}");
        let report = recover_dataset(&dir)
            .unwrap_or_else(|error| panic!("{context}: recovery failed: {error}"));
        let recovered = assert_prefix_consistent(&dir, &reference, &context);
        assert_eq!(recovered, report.entries_recovered, "{context}");
        if run.finished {
            assert_eq!(
                recovered, run.acknowledged,
                "{context}: finish vouched for it"
            );
        } else {
            failed_runs += 1;
            assert_eq!(report.entries_lost_after_checkpoint, 0, "{context}");
            assert!(
                (run.checkpointed..=run.acknowledged).contains(&recovered),
                "{context}: recovered {recovered}, checkpointed {}, acknowledged {}",
                run.checkpointed,
                run.acknowledged
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(failed_runs, total_ops, "every op's ENOSPC must surface");
}

/// The service whose writer hit ENOSPC: `ingest`, `checkpoint` and
/// `finish` return the error, while `poll` still serves the windows of the
/// entries that were durable before it.
#[test]
fn enospc_ends_the_service_writer_but_poll_serves_durable_windows() {
    use ipfs_monitoring::core::{read_window_log, window_file_name, WINDOW_DIR_NAME};
    use ipfs_monitoring::simnet::time::SimDuration;
    use ipfs_monitoring::tracestore::{LatePolicy, WindowSpec};

    let config = ServiceConfig {
        dataset: DatasetConfig {
            segment: SegmentConfig { chunk_capacity: 10 },
            rotate_after_entries: u64::MAX,
            checkpoint_after_entries: u64::MAX,
        },
        // Ten entries, 10 ms apart, per window.
        window: WindowSpec::tumbling(SimDuration::from_millis(100)),
        lateness: SimDuration::ZERO,
        policy: LatePolicy::Strict,
        top_k: 4,
    };
    // The first 50 entries are checkpointed; ENOSPC hits the next storage
    // operation, the write the second checkpoint flushes.
    let durable_after = |storage: &FaultyStorage, dir: &Path| {
        let (mut service, _) = MonitorService::open_with(
            dir,
            vec!["us".into()],
            config.clone(),
            Arc::new(storage.clone()),
        )
        .unwrap();
        for i in 0..50 {
            service.ingest(&entry(i, 0)).unwrap();
        }
        service.checkpoint().unwrap();
        service
    };
    let probe_dir = temp_dir("enospc-service-probe");
    let probe = FaultyStorage::new(FaultPlan::none());
    drop(durable_after(&probe, &probe_dir));
    let first_op_after = probe.ops();
    std::fs::remove_dir_all(&probe_dir).unwrap();

    let dir = temp_dir("enospc-service");
    let storage = FaultyStorage::new(FaultPlan {
        enospc_at_op: Some(first_op_after),
        ..FaultPlan::default()
    });
    let mut service = durable_after(&storage, &dir);
    for i in 50..80 {
        service.ingest(&entry(i, 0)).unwrap();
    }
    let error = service.checkpoint().unwrap_err().to_string();
    assert!(error.contains("os error 28"), "{error}");
    assert_eq!(
        service.ingest(&entry(80, 0)).unwrap_err().to_string(),
        error
    );
    assert_eq!(service.checkpoint().unwrap_err().to_string(), error);

    // Entries 0..50 are durable: windows 0..=3 seal, window 4 waits.
    let lines = service.poll().expect("poll serves what is durable");
    assert_eq!(lines.len(), 4);
    assert_eq!(read_window_log(&dir).unwrap(), lines);
    assert_eq!(service.finish().unwrap_err().to_string(), error);
    // The failed finish still waited for the window files.
    for (i, line) in lines.iter().enumerate() {
        let on_disk =
            std::fs::read_to_string(dir.join(WINDOW_DIR_NAME).join(window_file_name(i as u64)))
                .unwrap();
        assert_eq!(&on_disk, line);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
