//! Codec robustness for the tracestore I/O path.
//!
//! Covers the read stack behind the per-chunk codec byte: typed errors for
//! every kind of codec-level damage (unknown codec byte, corrupted
//! compressed body, CRC-vs-codec corruption, single-byte damage anywhere in
//! a `col` body), half-compacted manifests streaming identically to the
//! in-memory path, equality of the merged read as collection writes it
//! (`raw`) and as compaction leaves it (`col`), the offline
//! `migrate_manifest` compaction and its idempotence, the on-disk size win
//! of `col` (and of collected segments over JSON), byte-identity of both layouts with the commit that last wrote
//! them through the plug-in codec layer, and the decode-only `lz` layout
//! read from a fixture that commit wrote.

mod common;

use common::{random_dataset, simulated_dataset, temp_dir, write_manifest, CountSink};
use ipfs_monitoring::core::{
    estimate_network_size, estimate_network_size_source, identify_data_wanters, run_attacks_source,
    track_node_wants, unify_and_flag, unify_and_flag_source, ActivityCountsSink, AttackTargets,
    EntryStatsSink, PopularitySink, PreprocessConfig,
};
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::tracestore::{
    migrate_manifest, run_sink, Codec, DatasetConfig, Manifest, ManifestReader, MonitoringDataset,
    RowTargets, SegmentConfig, SegmentError, SliceSource, TraceEntry, TraceReader, TraceSource,
    MANIFEST_FILE_NAME, MIGRATE_TMP_SUFFIX,
};
use ipfs_monitoring::types::varint;
use proptest::prelude::*;
use std::path::Path;

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().metadata().unwrap().len())
        .sum()
}

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
/// `chunk`, compacted: `col` chunks, as `migrate_manifest` writes them.
fn compacted_segment(tag: &str, entries: &[TraceEntry], chunk: usize) -> Vec<u8> {
    let mut dataset = MonitoringDataset::new(vec!["m0".into()]);
    dataset.entries[0] = entries.to_vec();
    let dir = temp_dir(tag);
    write_manifest(&dataset, &dir, layout(u64::MAX, chunk));
    migrate_manifest(&dir).unwrap();
    let bytes = std::fs::read(dir.join("seg-000-00000.seg")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// Spills `dataset` into `dir` and compacts every other segment of each
/// chain (odd `monitor + sequence`) — what a compaction stopped part way,
/// or a dataset collected across a compaction, leaves behind. Returns the
/// number of compacted segments.
fn half_compacted_manifest(
    dataset: &MonitoringDataset,
    dir: &Path,
    config: DatasetConfig,
) -> usize {
    let twin = dir.with_extension("compacted");
    write_manifest(dataset, dir, config);
    write_manifest(dataset, &twin, config);
    migrate_manifest(&twin).unwrap();
    let manifest = Manifest::load(dir.join(MANIFEST_FILE_NAME)).unwrap();
    let mut compacted = 0;
    for meta in &manifest.segments {
        if (meta.monitor as u64 + meta.sequence) % 2 == 1 {
            std::fs::copy(twin.join(&meta.file_name), dir.join(&meta.file_name)).unwrap();
            compacted += 1;
        }
    }
    std::fs::remove_dir_all(&twin).ok();
    compacted
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
    migrate_manifest(&dir).unwrap();
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
    let bytes = compacted_segment("typed-damage", &dataset.entries[0], 64);
    let (payload_start, payload_end) = first_chunk_payload(&bytes);
    let crc_range = payload_end..payload_end + 4;
    assert_eq!(
        bytes[payload_start],
        Codec::Col.byte(),
        "first chunk is col"
    );

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

    // (2) Corrupted compressed body under a valid CRC (e.g. a buggy encoder
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
    flipped[payload_start] = Codec::Raw.byte();
    assert!(matches!(
        reopen(&flipped),
        SegmentError::ChecksumMismatch { .. }
    ));
}

proptest! {
    /// A half-compacted manifest — chains alternating collected (`raw`) and
    /// compacted (`col`) segments — must stream exactly the in-memory
    /// reference.
    #[test]
    fn mixed_codec_manifest_matches_in_memory(
        seed in 0u64..1_000_000,
        monitors in 1usize..3,
        per_monitor in 20usize..150,
        jitter in 0u64..1_500,
        rotate in 16u64..60,
        chunk in 4usize..32,
    ) {
        let dataset = random_dataset(seed, monitors, per_monitor, jitter);
        let dir = temp_dir(&format!("mixed-{seed}-{monitors}-{per_monitor}"));
        half_compacted_manifest(&dataset, &dir, layout(rotate, chunk));

        let (trace, stats) = unify_and_flag(&dataset, PreprocessConfig::default());
        let reader = ManifestReader::open(&dir).unwrap();
        let (streamed, streamed_stats) =
            unify_and_flag_source(&reader, PreprocessConfig::default()).unwrap();
        prop_assert_eq!(&streamed.entries, &trace.entries);
        prop_assert_eq!(streamed_stats, stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A writer-produced manifest, collected or compacted, yields the merged
    /// stream of the in-memory reference — the equality the experiment
    /// binaries assert per run, property-tested across shapes.
    #[test]
    fn all_codec_source_merge_modes_agree(
        seed in 0u64..1_000_000,
        per_monitor in 10usize..120,
        jitter in 0u64..1_200,
    ) {
        let dataset = random_dataset(seed, 2, per_monitor, jitter);
        let reference: Vec<TraceEntry> = dataset.merged_entries().collect();

        for compact in [false, true] {
            let dir = temp_dir(&format!("modes-{seed}-{per_monitor}-{compact}"));
            write_manifest(&dataset, &dir, layout((per_monitor as u64 / 3).max(1), 16));
            if compact {
                migrate_manifest(&dir).unwrap();
            }
            prop_assert_eq!(&merged_entries(&dir), &reference, "compacted: {}", compact);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Network-size estimation and the IDW/TNW attacks — the analyses the
/// experiment binaries run — must produce byte-identical reports whether
/// the manifest is read as collected or compacted.
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

    for compact in [false, true] {
        let dir = temp_dir(&format!("analyses-{compact}"));
        write_manifest(&dataset, &dir, layout(200, 32));
        if compact {
            migrate_manifest(&dir).unwrap();
        }
        let reader = ManifestReader::open(&dir).unwrap();
        let tag = format!("compacted: {compact}");

        let report =
            estimate_network_size_source(&reader, window_start, window_end, interval).unwrap();
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&reference_report).unwrap(),
            "netsize differs: {tag}"
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
        assert_eq!(suite.idw[&target_cid], reference_idw, "IDW differs: {tag}");
        assert_eq!(suite.tnw[&target_peer], reference_tnw, "TNW differs: {tag}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Compaction must make the dataset strictly smaller on disk, both for
/// dictionary-heavy traces (the realistic shape: few distinct peers/CIDs
/// per chunk, repetitive index columns) and for a simulated trace, and must
/// read back identically. Collection's own segment files must already be
/// under half the size of the dataset's JSON — the storage format's
/// acceptance bar.
#[test]
fn col_manifest_is_strictly_smaller_than_raw_on_disk() {
    let datasets = [
        ("random", random_dataset(11, 2, 4_000, 800)),
        ("simulated", simulated_dataset(7, 150)),
    ];
    for (name, dataset) in &datasets {
        let raw_dir = temp_dir(&format!("size-raw-{name}"));
        let col_dir = temp_dir(&format!("size-col-{name}"));
        for dir in [&raw_dir, &col_dir] {
            write_manifest(dataset, dir, layout(2_000, 1024));
        }
        migrate_manifest(&col_dir).unwrap();

        let json_bytes = dataset.to_json().unwrap().len() as u64;
        let segment_bytes: u64 = Manifest::load(raw_dir.join(MANIFEST_FILE_NAME))
            .unwrap()
            .segments
            .iter()
            .map(|meta| raw_dir.join(&meta.file_name).metadata().unwrap().len())
            .sum();
        assert!(
            2 * segment_bytes < json_bytes,
            "{name}: collected segments ({segment_bytes} B) not under half the JSON ({json_bytes} B)"
        );
        let raw_bytes = dir_bytes(&raw_dir);
        let col_bytes = dir_bytes(&col_dir);
        assert!(
            col_bytes < raw_bytes,
            "{name}: col manifest not smaller: {col_bytes} vs {raw_bytes} raw"
        );

        let reader = ManifestReader::open(&col_dir).unwrap();
        let (streamed, _) = unify_and_flag_source(&reader, PreprocessConfig::default()).unwrap();
        let (trace, _) = unify_and_flag(dataset, PreprocessConfig::default());
        assert_eq!(streamed.entries, trace.entries, "{name}");

        std::fs::remove_dir_all(&raw_dir).ok();
        std::fs::remove_dir_all(&col_dir).ok();
    }
}

/// [`body_damage_sweep`] over a `col` chunk body: truncated bit-pack runs,
/// out-of-range dictionary indexes and RLE overruns are all `Corrupt`.
#[test]
fn col_body_damage_sweep_never_panics() {
    let dataset = random_dataset(43, 1, 400, 400);
    let bytes = compacted_segment("col-sweep", &dataset.entries[0], 64);
    let (payload_start, _) = first_chunk_payload(&bytes);
    assert_eq!(
        bytes[payload_start],
        Codec::Col.byte(),
        "first chunk is col"
    );
    let (typed_errors, clean_decodes) = body_damage_sweep(&bytes);
    // A healthy sweep hits both outcomes: structural bytes (widths, counts,
    // run lengths, indexes) produce typed errors; dictionary payload bytes
    // decode to different entries.
    assert!(typed_errors > 0, "no flip surfaced a typed error");
    assert!(
        clean_decodes > 0,
        "no flip landed in plain dictionary bytes"
    );

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

/// Compaction round-trip: a half-compacted manifest is compacted whole —
/// the merged stream must be byte-identical before and after, compacted
/// segments are skipped, a stale temp file from a crashed previous run is
/// swept, and a second run is a no-op.
#[test]
fn migrate_rewrites_mixed_manifest_to_col() {
    let dataset = random_dataset(59, 2, 400, 600);
    let dir = temp_dir("migrate-mixed");
    let col_segments = half_compacted_manifest(&dataset, &dir, layout(120, 32));
    // A stale temp file from a simulated crashed migration must be swept and
    // must not confuse the rewrite.
    let stale = dir.join(format!("seg-000-00000.seg{MIGRATE_TMP_SUFFIX}"));
    std::fs::write(&stale, b"half-written garbage").unwrap();

    let reference = merged_entries(&dir);

    let report = migrate_manifest(&dir).unwrap();
    assert!(!stale.exists(), "stale temp file must be swept");
    assert_eq!(
        report.segments_rewritten,
        report.segments_total - col_segments,
        "col segments are kept"
    );

    assert_eq!(
        merged_entries(&dir),
        reference,
        "stream must survive migration intact"
    );

    // Second run: everything already col, nothing rewritten, size unchanged.
    let before = dir_bytes(&dir);
    let second = migrate_manifest(&dir).unwrap();
    assert_eq!(second.segments_rewritten, 0);
    assert_eq!(dir_bytes(&dir), before);

    std::fs::remove_dir_all(&dir).ok();
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

/// Bridge across the removal of the plug-in codec layer: the digests below
/// were recorded on commit `51f7942`, whose `Col` encoder serialised the raw
/// planes, re-parsed them and re-encoded the result, and whose writer was
/// told which layout to write. Collection must produce the same bytes in
/// every file as that commit's `raw` writer, and compacting what it wrote
/// the same bytes as that commit's `col` writer — compaction keeps every
/// chunk boundary — after which a second compaction rewrites nothing. Chunk
/// capacity 7 exercises the per-chunk raw fallback and the plain columnar
/// body, 64 and 4 096 the LZ-compressed columnar body (rotation closes a
/// segment every 6 000 entries, so 4 096 also yields partial chunks).
#[test]
fn encoder_output_is_byte_identical_to_the_recorded_parent() {
    const CHUNKS: [usize; 3] = [7, 64, 4_096];
    // [dataset][collected, compacted][chunk capacity]
    const RECORDED: [[[u64; 3]; 2]; 2] = [
        [
            [0xc331d6a067cf9b4b, 0x6d0bdf1f9412da24, 0x096ff84bf82733d4],
            [0x39fc6c02b5b5f052, 0x88a498c55c6acf2b, 0xe3f14caad59b8307],
        ],
        [
            [0xa81203845e0cbcaf, 0x85be4f92d2b94cd4, 0x4d405a58932f634e],
            [0x2200400dfabe4cff, 0x6b73b671fbaff658, 0x94b78391f3321c0a],
        ],
    ];
    let datasets = [
        ("random", random_dataset(2022, 3, 9_000, 900)),
        ("simulated", simulated_dataset(7, 150)),
    ];
    for ((name, dataset), [collected, compacted]) in datasets.iter().zip(RECORDED) {
        for (k, chunk) in CHUNKS.into_iter().enumerate() {
            let dir = temp_dir(&format!("bridge-{name}-{chunk}"));
            write_manifest(dataset, &dir, layout(6_000, chunk));
            let context = format!("{name} dataset, chunk capacity {chunk}");
            assert_eq!(dir_digest(&dir), collected[k], "collected: {context}");
            migrate_manifest(&dir).unwrap();
            assert_eq!(dir_digest(&dir), compacted[k], "compacted: {context}");
            let again = migrate_manifest(&dir).unwrap();
            assert_eq!(again.segments_rewritten, 0, "compacted twice: {context}");
            assert_eq!(dir_digest(&dir), compacted[k], "compacted twice: {context}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The dataset under `tests/fixtures/lz_v2`, regenerated: commit `51f7942`
/// wrote it with `Codec::Lz`, 16-entry chunks and rotation every 30 entries.
fn lz_fixture() -> (
    std::path::PathBuf,
    ipfs_monitoring::tracestore::MonitoringDataset,
) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lz_v2");
    (dir, random_dataset(314, 2, 60, 500))
}

/// No writer emits codec byte 1 any more, but datasets that carry it must
/// keep reading: entry-for-entry equal to the dataset they were written
/// from, robust to damage, and compactable to `col`. Fails if the byte-1
/// decode arm is removed.
#[test]
fn lz_fixture_reads_survives_damage_and_migrates() {
    let (fixture, dataset) = lz_fixture();
    let manifest = Manifest::load(fixture.join("manifest.ipmm")).unwrap();

    let reference: Vec<TraceEntry> = dataset.merged_entries().collect();
    assert_eq!(merged_entries(&fixture), reference);
    let reader = ManifestReader::open(&fixture).unwrap();
    assert_eq!(reader.connections().count(), dataset.connections.len());

    // The fixture really is `lz`, and the damage sweeps run over its bytes.
    for segment in &manifest.segments {
        let bytes = std::fs::read(fixture.join(&segment.file_name)).unwrap();
        let (payload_start, _) = first_chunk_payload(&bytes);
        assert_eq!(bytes[payload_start], Codec::Lz.byte(), "first chunk is lz");
        let (typed_errors, clean_decodes) = body_damage_sweep(&bytes);
        assert!(typed_errors > 0, "no flip surfaced a typed error");
        assert!(
            clean_decodes > 0,
            "no flip landed in plain dictionary bytes"
        );
        truncation_sweep(&bytes);
    }

    // A copy compacts to `col` with the merged stream intact.
    let dir = temp_dir("lz-fixture-migrate");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let report = migrate_manifest(&dir).unwrap();
    assert_eq!(report.segments_rewritten, manifest.segments.len());
    assert_eq!(merged_entries(&dir), reference);
    for segment in &manifest.segments {
        let bytes = std::fs::read(dir.join(&segment.file_name)).unwrap();
        let (payload_start, _) = first_chunk_payload(&bytes);
        assert_eq!(bytes[payload_start], Codec::Col.byte());
    }
    std::fs::remove_dir_all(&dir).ok();
}
