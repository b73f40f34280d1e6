//! Codec robustness for the tracestore I/O path.
//!
//! Covers the read stack behind the per-chunk codec byte: typed errors for
//! every kind of codec-level damage (unknown codec byte, corrupted body,
//! CRC-vs-codec corruption, single-byte damage anywhere in a chunk body,
//! every truncation of a segment), the refusal of segments of the previous
//! format version, equality of the merged read and of the analyses with the
//! in-memory path, and byte-identity of what collection writes with the
//! recorded digests (which also hold collected segments under half the size
//! of the dataset's JSON).

mod common;

use common::{random_dataset, simulated_dataset, temp_dir, write_manifest, CountSink};
use ipfs_monitoring::core::{
    estimate_network_size, estimate_network_size_source, identify_data_wanters, run_attacks_source,
    track_node_wants, unify_and_flag, ActivityCountsSink, AttackTargets, EntryStatsSink,
    PopularitySink, PreprocessConfig,
};
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::tracestore::codec::CHUNK_CODEC;
use ipfs_monitoring::tracestore::{
    run_sink, DatasetConfig, Manifest, ManifestReader, MonitoringDataset, RowTargets,
    SegmentConfig, SegmentError, SliceSource, TraceEntry, TraceReader, TraceSource,
    MANIFEST_FILE_NAME,
};
use ipfs_monitoring::types::varint;
use proptest::prelude::*;
use std::path::Path;

/// The merged stream of the manifest dataset in `dir`, read without error.
fn merged_entries(dir: &Path) -> Vec<TraceEntry> {
    let reader = ManifestReader::open(dir).unwrap();
    let mut stream = reader.merged_entries();
    let entries: Vec<TraceEntry> = (&mut stream).collect();
    assert!(stream.take_error().is_none());
    entries
}

/// Collection's layout: `rotate` entries per segment, `chunk` per chunk.
fn layout(rotate: u64, chunk: usize) -> DatasetConfig {
    DatasetConfig {
        segment: SegmentConfig {
            chunk_capacity: chunk,
        },
        rotate_after_entries: rotate,
        ..DatasetConfig::default()
    }
}

/// The one segment of a one-monitor dataset of `entries` in chunks of
/// `chunk`, as collection writes it.
fn collected_segment(tag: &str, entries: &[TraceEntry], chunk: usize) -> Vec<u8> {
    let mut dataset = MonitoringDataset::new(vec!["m0".into()]);
    dataset.entries[0] = entries.to_vec();
    let dir = temp_dir(tag);
    write_manifest(&dataset, &dir, layout(u64::MAX, chunk));
    let bytes = std::fs::read(dir.join("seg-000-00000.seg")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// Payload byte range (codec byte first) of a segment's first chunk frame.
fn first_chunk_payload(bytes: &[u8]) -> (usize, usize) {
    let reader = TraceReader::new(SliceSource::new(bytes)).unwrap();
    let frame_start = reader.chunks()[0].offset as usize;
    // Skip the length varint; the payload's first byte is the codec byte,
    // then the body.
    let (payload_len, varint_len) = varint::decode(&bytes[frame_start..]).unwrap();
    let payload_start = frame_start + varint_len;
    (payload_start, payload_start + payload_len as usize)
}

/// Every single-byte flip of the first chunk's body (codec byte excluded),
/// each with the chunk CRC repaired so that only the body decoder stands
/// between the damage and the reader: `(body offset, damaged segment)`.
fn body_flips(bytes: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    let (payload_start, payload_end) = first_chunk_payload(bytes);
    (payload_start + 1..payload_end).map(move |pos| {
        let mut damaged = bytes.to_vec();
        damaged[pos] ^= 0xA5;
        let crc = ipfs_monitoring::tracestore::crc::crc32(&damaged[payload_start..payload_end]);
        damaged[payload_end..payload_end + 4].copy_from_slice(&crc.to_le_bytes());
        (pos, damaged)
    })
}

/// Exhaustive single-byte damage sweep over the first chunk body of a
/// one-monitor segment, through the full reader stack, with the chunk CRC
/// repaired after every flip so only the body decoder stands between the
/// damage and the stream. Every flip must either surface a *typed* error or
/// decode cleanly (flips inside dictionary bytes give different-but-valid
/// entries) — never a panic. Returns `(typed errors, clean decodes)`.
fn body_damage_sweep(bytes: &[u8]) -> (usize, usize) {
    let mut typed_errors = 0usize;
    let mut clean_decodes = 0usize;
    for (pos, damaged) in body_flips(bytes) {
        let reader = TraceReader::new(SliceSource::new(&damaged)).unwrap();
        let mut stream = reader.stream();
        let _ = (&mut stream).count();
        match stream.take_error() {
            Some(SegmentError::Corrupt(_)) | Some(SegmentError::UnknownCodec(_)) => {
                typed_errors += 1;
            }
            Some(other) => panic!("unexpected error type at body offset {pos}: {other:?}"),
            None => clean_decodes += 1,
        }
    }
    (typed_errors, clean_decodes)
}

/// [`body_damage_sweep`] through the readers that stop at the columns: the
/// same flips, applied to the one segment of a dataset on disk, must take the
/// chunk-level sink run — fed sorted timestamps on top of the chunks (the
/// sinks below need no more), or entries (with an entry counter beside
/// them) — and a filtered stream to the same typed error the entry-reading
/// run ends in, or to the same result — never a panic, never an answer the
/// entry path would not give. Returns `(typed errors, clean decodes)`.
fn column_reader_damage_sweep(
    dataset: &MonitoringDataset,
    config: DatasetConfig,
) -> (usize, usize) {
    let dir = temp_dir("column-sweep");
    write_manifest(dataset, &dir, config);
    let segment = dir.join("seg-000-00000.seg");
    let bytes = std::fs::read(&segment).unwrap();
    let sinks = || {
        (
            (PopularitySink::new(), ActivityCountsSink::new()),
            EntryStatsSink::new(),
        )
    };
    let first = &dataset.entries[0][0];
    let targets = RowTargets {
        cids: [first.cid.clone()].into(),
        peers: [first.peer].into(),
    };
    let typed = |error: &SegmentError| {
        matches!(
            error,
            SegmentError::Corrupt(_) | SegmentError::UnknownCodec(_)
        )
    };
    let mut typed_errors = 0usize;
    let mut clean_decodes = 0usize;
    for (pos, damaged) in body_flips(&bytes) {
        std::fs::write(&segment, &damaged).unwrap();
        let reader = ManifestReader::open(&dir).unwrap();

        let by_entry = run_sink(&reader, sinks());
        let by_chunk = reader.run_parallel(sinks());
        let with_rows = reader.run_parallel((sinks(), CountSink::default()));
        match (&by_chunk, with_rows) {
            (Ok(by_chunk), Ok((with_rows, _))) => assert_eq!(&with_rows, by_chunk),
            (Err(by_chunk), Err(with_rows)) => {
                assert_eq!(with_rows.to_string(), by_chunk.to_string())
            }
            disagreement => panic!("row kinds disagree at body offset {pos}: {disagreement:?}"),
        }
        let mut filtered = reader.merged_entries_matching(&targets);
        let matching: Vec<TraceEntry> = (&mut filtered).collect();
        match (by_entry, by_chunk, filtered.take_error()) {
            (Ok(by_entry), Ok(by_chunk), None) => {
                assert_eq!(by_chunk, by_entry, "body offset {pos}");
                let expected: Vec<TraceEntry> = reader
                    .merged_entries()
                    .filter(|entry| targets.matches(entry))
                    .collect();
                assert_eq!(matching, expected, "body offset {pos}");
                clean_decodes += 1;
            }
            (Err(by_entry), Err(by_chunk), Some(filtered)) => {
                assert!(typed(&by_entry), "body offset {pos}: {by_entry:?}");
                assert_eq!(by_chunk.to_string(), by_entry.to_string());
                assert_eq!(filtered.to_string(), by_entry.to_string());
                typed_errors += 1;
            }
            disagreement => panic!("paths disagree at body offset {pos}: {disagreement:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    (typed_errors, clean_decodes)
}

/// Every truncation of a segment must fail to open, or open and stream to a
/// typed error or a clean end — never a panic.
fn truncation_sweep(bytes: &[u8]) {
    for cut in 0..bytes.len() {
        let Ok(reader) = TraceReader::new(SliceSource::new(&bytes[..cut])) else {
            continue;
        };
        let mut stream = reader.stream();
        let _ = (&mut stream).count();
        let _ = stream.take_error();
    }
}

/// Damages a written segment at the codec layer in three distinct ways and
/// checks that each surfaces its own *typed* error — never a panic, and
/// never a silent wrong answer.
#[test]
fn codec_damage_surfaces_typed_errors() {
    let dataset = random_dataset(41, 1, 300, 400);
    let bytes = collected_segment("typed-damage", &dataset.entries[0], 64);
    let (payload_start, payload_end) = first_chunk_payload(&bytes);
    let crc_range = payload_end..payload_end + 4;
    assert_eq!(bytes[payload_start], CHUNK_CODEC);

    let reopen = |bytes: &[u8]| -> SegmentError {
        let reader = TraceReader::new(SliceSource::new(bytes)).unwrap();
        let mut stream = reader.stream();
        let _ = (&mut stream).count();
        stream.take_error().expect("damaged chunk must error")
    };
    let fix_crc = |bytes: &mut [u8]| {
        let crc = ipfs_monitoring::tracestore::crc::crc32(&bytes[payload_start..payload_end]);
        bytes[crc_range.clone()].copy_from_slice(&crc.to_le_bytes());
    };

    // (1) Unknown codec byte under a *valid* CRC: a reader from the future,
    // not damage — must be UnknownCodec.
    let mut unknown = bytes.clone();
    unknown[payload_start] = 9;
    fix_crc(&mut unknown);
    assert!(matches!(reopen(&unknown), SegmentError::UnknownCodec(9)));

    // (2) Corrupted body under a valid CRC (e.g. a buggy encoder
    // or truncated-then-padded payload): the body decoder must reject with
    // a typed Corrupt error.
    let mut damaged = bytes.clone();
    for byte in &mut damaged[payload_end - 6..payload_end] {
        *byte = 0xff;
    }
    fix_crc(&mut damaged);
    assert!(matches!(reopen(&damaged), SegmentError::Corrupt(_)));

    // (3) CRC-vs-codec corruption: flipping the codec byte *without* fixing
    // the CRC must fail the checksum before the codec is even consulted.
    let mut flipped = bytes.clone();
    flipped[payload_start] = 0;
    assert!(matches!(
        reopen(&flipped),
        SegmentError::ChecksumMismatch { .. }
    ));
}

proptest! {
    /// A writer-produced manifest yields the merged stream of the in-memory
    /// reference — the equality the experiment
    /// binaries assert per run, property-tested across shapes.
    #[test]
    fn all_codec_source_merge_modes_agree(
        seed in 0u64..1_000_000,
        per_monitor in 10usize..120,
        jitter in 0u64..1_200,
    ) {
        let dataset = random_dataset(seed, 2, per_monitor, jitter);
        let reference: Vec<TraceEntry> = dataset.merged_entries().collect();

        let dir = temp_dir(&format!("modes-{seed}-{per_monitor}"));
        write_manifest(&dataset, &dir, layout((per_monitor as u64 / 3).max(1), 16));
        prop_assert_eq!(&merged_entries(&dir), &reference);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Network-size estimation and the IDW/TNW attacks — the analyses the
/// experiment binaries run — must produce byte-identical reports from the
/// manifest and from the in-memory dataset.
#[test]
fn netsize_and_attacks_agree_across_all_modes() {
    let dataset = random_dataset(97, 2, 600, 600);
    let (trace, _) = unify_and_flag(&dataset, PreprocessConfig::default());
    let target_cid = dataset.entries[0][0].cid.clone();
    let target_peer = dataset.entries[0][0].peer;
    let window_start = SimTime::ZERO;
    let window_end = SimTime::from_millis(1 << 22);
    let interval = SimDuration::from_hours(2);

    let reference_report = estimate_network_size(&dataset, window_start, window_end, interval);
    let reference_idw = identify_data_wanters(&trace, &target_cid);
    let reference_tnw = track_node_wants(&trace, &target_peer);

    let dir = temp_dir("analyses");
    write_manifest(&dataset, &dir, layout(200, 32));
    let reader = ManifestReader::open(&dir).unwrap();

    let report = estimate_network_size_source(&reader, window_start, window_end, interval).unwrap();
    assert_eq!(
        format!("{report:?}"),
        format!("{reference_report:?}"),
        "netsize differs"
    );

    let suite = run_attacks_source(
        &reader,
        PreprocessConfig::default(),
        &AttackTargets {
            idw_cids: vec![target_cid.clone()],
            tnw_peers: vec![target_peer],
            tpi_probes: Vec::new(),
        },
        None,
    )
    .unwrap();
    assert_eq!(suite.idw[&target_cid], reference_idw, "IDW differs");
    assert_eq!(suite.tnw[&target_peer], reference_tnw, "TNW differs");
    std::fs::remove_dir_all(&dir).ok();
}

/// [`body_damage_sweep`] over a chunk body: truncated bit-pack runs,
/// out-of-range dictionary indexes and RLE overruns are all `Corrupt`; and
/// every truncation of the segment fails to open or streams to a typed
/// error or a clean end.
#[test]
fn col_body_damage_sweep_never_panics() {
    let dataset = random_dataset(43, 1, 400, 400);
    let bytes = collected_segment("col-sweep", &dataset.entries[0], 64);
    let (payload_start, _) = first_chunk_payload(&bytes);
    assert_eq!(bytes[payload_start], CHUNK_CODEC);
    let (typed_errors, clean_decodes) = body_damage_sweep(&bytes);
    // A healthy sweep hits both outcomes: structural bytes (widths, counts,
    // run lengths, indexes) produce typed errors; dictionary payload bytes
    // decode to different entries.
    assert!(typed_errors > 0, "no flip surfaced a typed error");
    assert!(
        clean_decodes > 0,
        "no flip landed in plain dictionary bytes"
    );
    truncation_sweep(&bytes);

    // The same chunk on disk, through the chunk-level run and a filtered
    // stream: the first chunk of the dataset's only segment is the chunk
    // swept above (a chunk depends on its own 64 entries only, so a shorter
    // tail behind it changes nothing), and the outcomes split the same way.
    let mut head = dataset;
    head.entries[0].truncate(80);
    assert_eq!(
        column_reader_damage_sweep(&head, layout(u64::MAX, 64)),
        (typed_errors, clean_decodes)
    );
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over every file of a dataset directory in name order — name,
/// length, bytes — so a single differing byte in any segment or in
/// `manifest.ipmm` changes the digest.
fn dir_digest(dir: &Path) -> u64 {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for name in names {
        let bytes = std::fs::read(dir.join(&name)).unwrap();
        hash = fnv1a(hash, name.as_bytes());
        hash = fnv1a(hash, &(bytes.len() as u64).to_le_bytes());
        hash = fnv1a(hash, &bytes);
    }
    hash
}

/// What collection writes, pinned: the digests below were recorded when
/// collection began to write the one chunk layout, and a change to any byte
/// of any file — a chunk body, a footer, the manifest — must re-record them
/// on purpose. Chunk capacity 7 exercises tiny chunks, 64 and 4 096 long
/// miniblock runs and dictionaries (rotation closes a segment every 6 000
/// entries, so 4 096 also yields partial chunks). The segments collection
/// writes must also stay under half the size of the dataset's JSON, the
/// storage format's acceptance bar; the JSON sizes are recorded constants,
/// measured with the JSON writer the workspace had until it was deleted.
#[test]
fn encoder_output_is_byte_identical_to_the_recorded_parent() {
    const CHUNKS: [usize; 3] = [7, 64, 4_096];
    // [dataset][chunk capacity]
    const RECORDED: [[u64; 3]; 2] = [
        [0xc217b25ecc03cfb6, 0x2e9c62a3bb8d1575, 0x007635e161e46225],
        [0xef1f2d764b5039c0, 0x8ab8bf6394152a14, 0xc3d3e7684b91a9ec],
    ];
    // [dataset]: bytes of the dataset serialized as JSON.
    const RECORDED_JSON_BYTES: [u64; 2] = [13_377_040, 6_763_773];
    let datasets = [
        ("random", random_dataset(2022, 3, 9_000, 900)),
        ("simulated", simulated_dataset(7, 150)),
    ];
    for (((name, dataset), recorded), json_bytes) in
        datasets.iter().zip(RECORDED).zip(RECORDED_JSON_BYTES)
    {
        for (k, chunk) in CHUNKS.into_iter().enumerate() {
            let dir = temp_dir(&format!("bridge-{name}-{chunk}"));
            write_manifest(dataset, &dir, layout(6_000, chunk));
            let context = format!("{name} dataset, chunk capacity {chunk}");
            assert_eq!(dir_digest(&dir), recorded[k], "{context}");
            let segment_bytes: u64 = Manifest::load(dir.join(MANIFEST_FILE_NAME))
                .unwrap()
                .segments
                .iter()
                .map(|meta| dir.join(&meta.file_name).metadata().unwrap().len())
                .sum();
            assert!(
                2 * segment_bytes < json_bytes,
                "{context}: segments ({segment_bytes} B) not under half the JSON ({json_bytes} B)"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A segment of the previous format version — v2, whose chunks may be in
/// layouts this build no longer decodes — is refused whole when it is
/// opened, alone or as part of a dataset, instead of read up to its first
/// chunk this build cannot decode.
#[test]
fn v2_segment_is_refused_at_open() {
    let dataset = random_dataset(61, 1, 100, 300);
    let dir = temp_dir("v2-segment");
    write_manifest(&dataset, &dir, layout(u64::MAX, 16));
    let path = dir.join("seg-000-00000.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[..4], b"IPMT");
    bytes[4] = 2;
    std::fs::write(&path, &bytes).unwrap();

    assert!(matches!(
        TraceReader::new(SliceSource::new(&bytes)),
        Err(SegmentError::UnsupportedVersion(2))
    ));
    assert!(matches!(
        ManifestReader::open(&dir),
        Err(SegmentError::UnsupportedVersion(2))
    ));
    std::fs::remove_dir_all(&dir).ok();
}
