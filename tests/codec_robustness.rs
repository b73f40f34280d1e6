//! Codec and merge-mode robustness for the tracestore I/O path.
//!
//! Covers the three-layer read stack introduced with the pluggable codecs:
//! typed errors for every kind of codec-level damage (unknown codec byte,
//! corrupted compressed body, CRC-vs-codec corruption, single-byte damage
//! anywhere in a `col` body), mixed-codec manifests (per-segment codec
//! migration) streaming identically to the in-memory path, equality of every
//! `(codec, merge-mode)` combination — all three codecs × two merge modes —
//! the offline `migrate_manifest` rewrite, and the on-disk size wins of the
//! compressed codecs.

mod common;

use common::{random_dataset, temp_dir, write_manifest};
use ipfs_monitoring::core::{
    estimate_network_size, estimate_network_size_source, identify_data_wanters, run_attacks_source,
    track_node_wants, unify_and_flag, unify_and_flag_source, AttackTargets, PreprocessConfig,
};
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::tracestore::{
    Codec, DatasetConfig, Manifest, ManifestReader, ReadOptions, SegmentConfig, SegmentError,
    SegmentMeta, SliceSource, TraceEntry, TraceReader, TraceSource, TraceWriter,
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

/// Writes one single-monitor segment with the given codec and returns its
/// bytes (for hand-built mixed-codec manifests).
fn monitor_segment(label: &str, entries: &[TraceEntry], codec: Codec, chunk: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = TraceWriter::new(
        &mut bytes,
        vec![label.to_string()],
        SegmentConfig {
            chunk_capacity: chunk,
            codec,
        },
    )
    .unwrap();
    for entry in entries {
        let mut local = entry.clone();
        local.monitor = 0;
        writer.append_owned(local).unwrap();
    }
    writer.finish().unwrap();
    bytes
}

/// Damages a written segment at the codec layer in three distinct ways and
/// checks that each surfaces its own *typed* error — never a panic, and
/// never a silent wrong answer.
#[test]
fn codec_damage_surfaces_typed_errors() {
    let dataset = random_dataset(41, 1, 300, 400);
    let bytes = monitor_segment("m0", &dataset.entries[0], Codec::Lz, 64);
    let reader = TraceReader::new(SliceSource::new(&bytes)).unwrap();
    let chunk = reader.chunks()[0];
    // Locate the payload inside the first chunk frame: skip the length
    // varint; the payload's first byte is the codec byte, then the body.
    let frame_start = chunk.offset as usize;
    let (payload_len, varint_len) = varint::decode(&bytes[frame_start..]).unwrap();
    let payload_start = frame_start + varint_len;
    let payload_end = payload_start + payload_len as usize;
    let crc_range = payload_end..payload_end + 4;
    assert_eq!(bytes[payload_start], Codec::Lz.byte(), "first chunk is lz");

    let reopen = |bytes: &[u8]| -> SegmentError {
        let reader = TraceReader::new(SliceSource::new(bytes)).unwrap();
        let mut stream = reader.stream_monitor(0);
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
    // or truncated-then-padded payload): the LZ decoder must reject with a
    // typed Corrupt error.
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
    /// Per-segment codec migration: a hand-assembled manifest whose segment
    /// chains alternate raw and compressed segments must stream exactly the
    /// in-memory reference, through every source and merge mode.
    #[test]
    fn mixed_codec_manifest_matches_in_memory(
        seed in 0u64..1_000_000,
        monitors in 1usize..3,
        per_monitor in 20usize..150,
        jitter in 0u64..1_500,
        rotate in 16usize..60,
        chunk in 4usize..32,
    ) {
        let dataset = random_dataset(seed, monitors, per_monitor, jitter);
        let dir = temp_dir(&format!("mixed-{seed}-{monitors}-{per_monitor}"));
        std::fs::create_dir_all(&dir).unwrap();

        // Build each monitor's chain by hand, alternating the codec per
        // rotation sequence — the migration scenario where a deployment
        // switches codecs mid-trace.
        let mut metas = Vec::new();
        for (monitor, entries) in dataset.entries.iter().enumerate() {
            for (sequence, window) in entries.chunks(rotate).enumerate() {
                let codec = Codec::all()[(monitor + sequence) % 3];
                let file_name = format!("seg-{monitor:03}-{sequence:05}.seg");
                let bytes = monitor_segment(&format!("m{monitor}"), window, codec, chunk);
                std::fs::write(dir.join(&file_name), &bytes).unwrap();
                metas.push(SegmentMeta {
                    file_name,
                    monitor,
                    sequence: sequence as u64,
                    entries: window.len() as u64,
                });
            }
        }
        let manifest = Manifest {
            monitor_labels: dataset.monitor_labels.clone(),
            segments: metas,
        };
        manifest.write_to(&dir).unwrap();

        let (trace, stats) = unify_and_flag(&dataset, PreprocessConfig::default());
        for decode_ahead in [false, true] {
            let options = ReadOptions::default().decode_ahead(decode_ahead);
            let reader = ManifestReader::open_with(&dir, options).unwrap();
            let (streamed, streamed_stats) =
                unify_and_flag_source(&reader, PreprocessConfig::default()).unwrap();
            prop_assert_eq!(
                &streamed.entries, &trace.entries,
                "decode_ahead={}", decode_ahead
            );
            prop_assert_eq!(streamed_stats, stats);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every `(codec, decode_ahead)` combination over a writer-produced
    /// manifest yields the identical merged stream — the equality the
    /// experiment binaries assert per run, property-tested across shapes.
    #[test]
    fn all_codec_source_merge_modes_agree(
        seed in 0u64..1_000_000,
        per_monitor in 10usize..120,
        jitter in 0u64..1_200,
    ) {
        let dataset = random_dataset(seed, 2, per_monitor, jitter);
        let reference: Vec<TraceEntry> = dataset.merged_entries().collect();

        for codec in Codec::all() {
            let dir = temp_dir(&format!("modes-{seed}-{per_monitor}-{}", codec.name()));
            write_manifest(&dataset, &dir, DatasetConfig {
                segment: SegmentConfig { chunk_capacity: 16, codec },
                rotate_after_entries: (per_monitor as u64 / 3).max(1),
                ..DatasetConfig::default()
            });
            for decode_ahead in [false, true] {
                let options = ReadOptions::default().decode_ahead(decode_ahead);
                let reader = ManifestReader::open_with(&dir, options).unwrap();
                let mut stream = reader.merged_entries();
                let merged: Vec<TraceEntry> = (&mut stream).collect();
                prop_assert!(stream.take_error().is_none());
                prop_assert_eq!(
                    &merged, &reference,
                    "codec={} decode_ahead={}", codec.name(), decode_ahead
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Network-size estimation and the IDW/TNW attacks — the analyses the
/// experiment binaries run — must produce byte-identical reports whichever
/// codec and merge mode the manifest is read with.
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

    for codec in Codec::all() {
        let dir = temp_dir(&format!("analyses-{}", codec.name()));
        write_manifest(
            &dataset,
            &dir,
            DatasetConfig {
                segment: SegmentConfig {
                    chunk_capacity: 32,
                    codec,
                },
                rotate_after_entries: 200,
                ..DatasetConfig::default()
            },
        );
        for decode_ahead in [false, true] {
            let options = ReadOptions::default().decode_ahead(decode_ahead);
            let reader = ManifestReader::open_with(&dir, options).unwrap();
            let tag = format!("codec={} decode_ahead={decode_ahead}", codec.name());

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
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The compressed codec must make the dataset strictly smaller on disk for
/// dictionary-heavy traces (the realistic shape: few distinct peers/CIDs per
/// chunk, repetitive index columns).
#[test]
fn col_manifest_is_strictly_smaller_than_lz_on_disk() {
    let dataset = random_dataset(11, 2, 4_000, 800);
    let lz_dir = temp_dir("size2-lz");
    let col_dir = temp_dir("size2-col");
    for (dir, codec) in [(&lz_dir, Codec::Lz), (&col_dir, Codec::Col)] {
        write_manifest(
            &dataset,
            dir,
            DatasetConfig {
                segment: SegmentConfig {
                    chunk_capacity: 1024,
                    codec,
                },
                rotate_after_entries: 2_000,
                ..DatasetConfig::default()
            },
        );
    }
    let lz_bytes = dir_bytes(&lz_dir);
    let col_bytes = dir_bytes(&col_dir);
    assert!(
        col_bytes < lz_bytes,
        "col manifest not smaller: {col_bytes} vs {lz_bytes} lz"
    );

    // And it still reads back identically.
    let reader = ManifestReader::open(&col_dir).unwrap();
    let (streamed, _) = unify_and_flag_source(&reader, PreprocessConfig::default()).unwrap();
    let (trace, _) = unify_and_flag(&dataset, PreprocessConfig::default());
    assert_eq!(streamed.entries, trace.entries);

    std::fs::remove_dir_all(&lz_dir).ok();
    std::fs::remove_dir_all(&col_dir).ok();
}

/// Exhaustive single-byte damage sweep over a `col` chunk body, through the
/// full reader stack: every flip must either surface a *typed* error
/// (truncated bit-pack runs, out-of-range dictionary indexes, RLE overruns —
/// all `Corrupt` — or an unknown codec byte) or decode cleanly into
/// different-but-valid entries (flips inside dictionary bytes). Never a
/// panic, never a checksum-skipping shortcut.
#[test]
fn col_body_damage_sweep_never_panics() {
    let dataset = random_dataset(43, 1, 400, 400);
    let bytes = monitor_segment("m0", &dataset.entries[0], Codec::Col, 64);
    let reader = TraceReader::new(SliceSource::new(&bytes)).unwrap();
    let chunk = reader.chunks()[0];
    let frame_start = chunk.offset as usize;
    let (payload_len, varint_len) = varint::decode(&bytes[frame_start..]).unwrap();
    let payload_start = frame_start + varint_len;
    let payload_end = payload_start + payload_len as usize;
    let crc_range = payload_end..payload_end + 4;
    assert_eq!(
        bytes[payload_start],
        Codec::Col.byte(),
        "first chunk is col"
    );

    let mut typed_errors = 0usize;
    let mut clean_decodes = 0usize;
    for pos in payload_start + 1..payload_end {
        let mut damaged = bytes.clone();
        damaged[pos] ^= 0xA5;
        let crc = ipfs_monitoring::tracestore::crc::crc32(&damaged[payload_start..payload_end]);
        damaged[crc_range.clone()].copy_from_slice(&crc.to_le_bytes());

        let reader = TraceReader::new(SliceSource::new(&damaged)).unwrap();
        let mut stream = reader.stream_monitor(0);
        let _ = (&mut stream).count();
        match stream.take_error() {
            Some(SegmentError::Corrupt(_)) | Some(SegmentError::UnknownCodec(_)) => {
                typed_errors += 1;
            }
            Some(other) => panic!("unexpected error type at body offset {pos}: {other:?}"),
            None => clean_decodes += 1,
        }
    }
    // A healthy sweep hits both outcomes: structural bytes (widths, counts,
    // run lengths, indexes) produce typed errors; dictionary payload bytes
    // decode to different entries.
    assert!(typed_errors > 0, "no flip surfaced a typed error");
    assert!(
        clean_decodes > 0,
        "no flip landed in plain dictionary bytes"
    );
}

/// Migration round-trip: a hand-assembled manifest whose segments cycle all
/// three codecs is rewritten to all-`col` — the merged stream must be
/// byte-identical before and after, already-`col` segments are skipped, a
/// stale temp file from a crashed previous run is swept, and a second run is
/// a no-op.
#[test]
fn migrate_rewrites_mixed_manifest_to_col() {
    use ipfs_monitoring::tracestore::{migrate_manifest, MIGRATE_TMP_SUFFIX};

    let dataset = random_dataset(59, 2, 400, 600);
    let dir = temp_dir("migrate-mixed");
    std::fs::create_dir_all(&dir).unwrap();
    let mut metas = Vec::new();
    let mut col_segments = 0usize;
    for (monitor, entries) in dataset.entries.iter().enumerate() {
        for (sequence, window) in entries.chunks(120).enumerate() {
            let codec = Codec::all()[(monitor + sequence) % 3];
            if codec == Codec::Col {
                col_segments += 1;
            }
            let file_name = format!("seg-{monitor:03}-{sequence:05}.seg");
            let bytes = monitor_segment(&format!("m{monitor}"), window, codec, 32);
            std::fs::write(dir.join(&file_name), &bytes).unwrap();
            metas.push(SegmentMeta {
                file_name,
                monitor,
                sequence: sequence as u64,
                entries: window.len() as u64,
            });
        }
    }
    let manifest = Manifest {
        monitor_labels: dataset.monitor_labels.clone(),
        segments: metas,
    };
    manifest.write_to(&dir).unwrap();
    // A stale temp file from a simulated crashed migration must be swept and
    // must not confuse the rewrite.
    let stale = dir.join(format!("seg-000-00000.seg{MIGRATE_TMP_SUFFIX}"));
    std::fs::write(&stale, b"half-written garbage").unwrap();

    let reference: Vec<TraceEntry> = {
        let reader = ManifestReader::open(&dir).unwrap();
        let mut stream = reader.merged_entries();
        let entries: Vec<TraceEntry> = (&mut stream).collect();
        assert!(stream.take_error().is_none());
        entries
    };

    let report = migrate_manifest(&dir, Codec::Col).unwrap();
    assert!(!stale.exists(), "stale temp file must be swept");
    assert_eq!(report.segments_skipped, col_segments, "col segments skip");
    assert_eq!(
        report.segments_rewritten,
        report.segments_total - col_segments
    );

    let reader = ManifestReader::open(&dir).unwrap();
    let mut stream = reader.merged_entries();
    let migrated: Vec<TraceEntry> = (&mut stream).collect();
    assert!(stream.take_error().is_none());
    assert_eq!(migrated, reference, "stream must survive migration intact");

    // Second run: everything already col, nothing rewritten, size unchanged.
    let before = dir_bytes(&dir);
    let second = migrate_manifest(&dir, Codec::Col).unwrap();
    assert_eq!(second.segments_rewritten, 0);
    assert_eq!(second.segments_skipped, report.segments_total);
    assert_eq!(dir_bytes(&dir), before);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lz_manifest_is_strictly_smaller_on_disk() {
    let dataset = random_dataset(7, 2, 4_000, 800);
    let raw_dir = temp_dir("size-raw");
    let lz_dir = temp_dir("size-lz");
    for (dir, codec) in [(&raw_dir, Codec::Raw), (&lz_dir, Codec::Lz)] {
        write_manifest(
            &dataset,
            dir,
            DatasetConfig {
                segment: SegmentConfig {
                    chunk_capacity: 1024,
                    codec,
                },
                rotate_after_entries: 2_000,
                ..DatasetConfig::default()
            },
        );
    }
    let raw_bytes = dir_bytes(&raw_dir);
    let lz_bytes = dir_bytes(&lz_dir);
    assert!(
        lz_bytes < raw_bytes,
        "lz manifest not smaller: {lz_bytes} vs {raw_bytes} raw"
    );

    // And it still reads back identically.
    let reader = ManifestReader::open(&lz_dir).unwrap();
    let (streamed, _) = unify_and_flag_source(&reader, PreprocessConfig::default()).unwrap();
    let (trace, _) = unify_and_flag(&dataset, PreprocessConfig::default());
    assert_eq!(streamed.entries, trace.entries);

    std::fs::remove_dir_all(&raw_dir).ok();
    std::fs::remove_dir_all(&lz_dir).ok();
}
