//! Multi-segment manifest + `TraceSource` integration coverage.
//!
//! Property tests proving that datasets round-trip losslessly through
//! per-monitor rotated segment chains, that chunk corruption inside
//! any segment of a manifest is detected, and that the streaming analyses
//! (preprocessing, network-size estimation, the privacy attacks) produce
//! output identical to the in-memory path when driven from a manifest-backed
//! `TraceSource`.

mod common;

use common::{random_dataset, simulated_network, temp_dir, write_manifest, write_manifest_rotated};
use ipfs_monitoring::core::{
    estimate_network_size, estimate_network_size_source, identify_data_wanters, run_attacks_source,
    track_node_wants, unify_and_flag, unify_and_flag_source, AttackTargets, ManifestCollector,
    MonitorCollector, PreprocessConfig,
};
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::tracestore::{
    ConnectionRecord, DatasetConfig, ManifestReader, SegmentConfig, TraceEntry, TraceReader,
    TraceSource,
};
use ipfs_monitoring::workload::ScenarioConfig;
use proptest::prelude::*;

fn sorted_connections(mut records: Vec<ConnectionRecord>) -> Vec<ConnectionRecord> {
    records.sort_by_key(|r| (r.monitor, r.connected_at, r.peer, r.disconnected_at));
    records
}

proptest! {
    /// Rotation boundaries at arbitrary points, several monitors: the merged
    /// flagged stream over the manifest must be bit-identical to the
    /// in-memory path, and the connection records must survive unchanged.
    #[test]
    fn manifest_roundtrip_matches_in_memory(
        seed in 0u64..1_000_000,
        monitors in 1usize..4,
        per_monitor in 1usize..120,
        jitter in 0u64..2_500,
        rotate in 8u64..80,
        chunk in 1usize..48,
    ) {
        let dataset = random_dataset(seed, monitors, per_monitor, jitter);
        let dir = temp_dir(&format!("prop-{seed}-{monitors}-{per_monitor}"));
        write_manifest(&dataset, &dir, DatasetConfig {
            segment: SegmentConfig { chunk_capacity: chunk },
            rotate_after_entries: rotate,
            ..DatasetConfig::default()
        });

        let reader = ManifestReader::open(&dir).unwrap();
        prop_assert_eq!(reader.total_entries() as usize, dataset.total_entries());
        // Rotation actually happened when the data demanded it.
        for monitor in 0..monitors {
            let expected = dataset.entries[monitor].len().div_ceil(rotate as usize);
            prop_assert_eq!(reader.segment_count(monitor), expected);
        }

        let (trace, stats) = unify_and_flag(&dataset, PreprocessConfig::default());
        let (streamed, streamed_stats) =
            unify_and_flag_source(&reader, PreprocessConfig::default()).unwrap();
        prop_assert_eq!(&streamed.entries, &trace.entries);
        prop_assert_eq!(streamed_stats, stats);

        prop_assert_eq!(
            sorted_connections(reader.connection_records().collect()),
            sorted_connections(dataset.connections.clone())
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A corrupted chunk inside *one* segment of a multi-segment manifest must
/// surface as an error from the streaming pipeline, not as silently truncated
/// analysis input.
#[test]
fn corrupted_chunk_in_manifest_segment_is_detected() {
    let dataset = random_dataset(17, 2, 120, 500);
    let dir = temp_dir("corrupt");
    write_manifest(
        &dataset,
        &dir,
        DatasetConfig {
            segment: SegmentConfig { chunk_capacity: 16 },
            rotate_after_entries: 40,
            ..DatasetConfig::default()
        },
    );

    // Locate a chunk inside one of monitor 1's segment files and flip a
    // payload byte, leaving header and footer intact.
    let victim = dir.join("seg-001-00001.seg");
    let reader = TraceReader::open(&victim).unwrap();
    let chunk = reader.chunks()[0];
    drop(reader);
    let mut bytes = std::fs::read(&victim).unwrap();
    let offset = chunk.offset as usize + chunk.len as usize / 2;
    bytes[offset] ^= 0xff;
    std::fs::write(&victim, bytes).unwrap();

    // The manifest still opens (footers are intact) …
    let reader = ManifestReader::open(&dir).unwrap();
    // … but every streaming consumer reports the damage.
    assert!(unify_and_flag_source(&reader, PreprocessConfig::default()).is_err());
    assert!(estimate_network_size_source(
        &reader,
        SimTime::ZERO,
        SimTime::from_secs(10),
        SimDuration::from_secs(10),
    )
    .is_err());
    assert!(run_attacks_source(
        &reader,
        PreprocessConfig::default(),
        &AttackTargets::default(),
        None,
    )
    .is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end on a simulated scenario: collection through `ManifestCollector`
/// plus every ported analysis driven from the manifest must agree exactly
/// with the in-memory pipeline.
#[test]
fn scenario_analyses_from_manifest_match_in_memory() {
    let mut config = ScenarioConfig::small_test(4242);
    config.horizon = SimDuration::from_hours(2);

    let mut in_memory = MonitorCollector::us_de();
    simulated_network(&config).run(&mut in_memory);
    let dataset = in_memory.into_dataset();
    assert!(dataset.total_entries() > 0);

    let dir = temp_dir("scenario");
    let mut collector = ManifestCollector::us_de(
        &dir,
        DatasetConfig {
            segment: SegmentConfig {
                chunk_capacity: 128,
            },
            rotate_after_entries: (dataset.total_entries() as u64 / 5).max(1),
            ..DatasetConfig::default()
        },
    )
    .unwrap();
    let mut network = simulated_network(&config);
    network.run(&mut collector);
    let summary = collector.finish().unwrap();
    assert_eq!(summary.total_entries as usize, dataset.total_entries());
    assert!(summary.segment_count >= 2, "rotation produced a chain");

    let reader = ManifestReader::open(&summary.manifest_path).unwrap();

    // Preprocessing.
    let (trace, stats) = unify_and_flag(&dataset, PreprocessConfig::default());
    let (streamed, streamed_stats) =
        unify_and_flag_source(&reader, PreprocessConfig::default()).unwrap();
    assert_eq!(streamed.entries, trace.entries);
    assert_eq!(streamed_stats, stats);

    // Network-size estimation (Sec. V-C), field-for-field.
    let start = SimTime::ZERO;
    let end = SimTime::ZERO + config.horizon;
    let interval = SimDuration::from_mins(30);
    let batch = estimate_network_size(&dataset, start, end, interval);
    let stream = estimate_network_size_source(&reader, start, end, interval).unwrap();
    assert_eq!(format!("{stream:?}"), format!("{batch:?}"));

    // Privacy attacks (Sec. VI-A): IDW + TNW from the manifest in one pass.
    let target_cid = trace
        .primary_requests()
        .map(|e| e.cid.clone())
        .next()
        .expect("trace has requests");
    let target_peer = trace
        .primary_requests()
        .map(|e| e.peer)
        .next()
        .expect("trace has requests");
    let suite = run_attacks_source(
        &reader,
        PreprocessConfig::default(),
        &AttackTargets {
            idw_cids: vec![target_cid.clone()],
            tnw_peers: vec![target_peer],
            tpi_probes: vec![(0, target_cid.clone())],
        },
        Some(&network),
    )
    .unwrap();
    assert_eq!(
        suite.idw[&target_cid],
        identify_data_wanters(&trace, &target_cid)
    );
    assert_eq!(
        suite.tnw[&target_peer],
        track_node_wants(&trace, &target_peer)
    );
    assert_eq!(suite.tpi.len(), 1);

    std::fs::remove_dir_all(&dir).ok();
}

/// The chain merge must admit segments lazily: streaming a long rotated
/// chain keeps only the segments overlapping the merge frontier open, not
/// the whole chain.
#[test]
fn chain_merge_keeps_bounded_active_window() {
    // One monitor, mild jitter, many rotation boundaries.
    let dataset = random_dataset(31, 1, 2_000, 300);
    let dir = temp_dir("lazy");
    write_manifest(
        &dataset,
        &dir,
        DatasetConfig {
            segment: SegmentConfig { chunk_capacity: 32 },
            rotate_after_entries: 100,
            ..DatasetConfig::default()
        },
    );
    let reader = ManifestReader::open(&dir).unwrap();
    assert!(reader.segment_count(0) >= 20);

    let mut stream = reader.stream_monitor_sorted(0);
    let mut max_active = 0;
    let mut count = 0usize;
    while stream.next().is_some() {
        max_active = max_active.max(stream.active_segments());
        count += 1;
    }
    assert!(stream.take_error().is_none());
    assert_eq!(count, dataset.total_entries());
    // Jitter (≤300 ms) is far smaller than a segment's time span
    // (~100 entries × ~1 s), so only adjacent segments ever overlap.
    assert!(
        max_active <= 2,
        "merge held {max_active} segments open at once"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Manifest listing order must not matter — the reader restores rotation
/// order from the sequence numbers — and ambiguous (duplicate) sequences are
/// rejected instead of silently mis-merging ties.
#[test]
fn manifest_listing_order_is_normalized_and_duplicates_rejected() {
    use ipfs_monitoring::tracestore::Manifest;

    let dataset = random_dataset(7, 2, 150, 600);
    let dir = temp_dir("order");
    write_manifest(
        &dataset,
        &dir,
        DatasetConfig {
            segment: SegmentConfig { chunk_capacity: 32 },
            rotate_after_entries: 40,
            ..DatasetConfig::default()
        },
    );
    let reference: Vec<TraceEntry> = ManifestReader::open(&dir)
        .unwrap()
        .merged_entries()
        .collect();

    // Scramble the listing order; the merged stream must be unchanged.
    let mut manifest = Manifest::load(&dir).unwrap();
    assert!(manifest.segments.len() > 4);
    manifest.segments.reverse();
    manifest.write_to(&dir).unwrap();
    let scrambled: Vec<TraceEntry> = ManifestReader::open(&dir)
        .unwrap()
        .merged_entries()
        .collect();
    assert_eq!(scrambled, reference);

    // Duplicate sequence numbers are ambiguous and must be rejected.
    let mut manifest = Manifest::load(&dir).unwrap();
    let monitor = manifest.segments[0].monitor;
    let mut first_sequence = None;
    for segment in manifest
        .segments
        .iter_mut()
        .filter(|s| s.monitor == monitor)
    {
        match first_sequence {
            None => first_sequence = Some(segment.sequence),
            Some(first) => {
                segment.sequence = first;
                break;
            }
        }
    }
    manifest.write_to(&dir).unwrap();
    assert!(ManifestReader::open(&dir).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

/// The `TraceSource` implementations agree with each other: the same data
/// viewed as an in-memory dataset and as a manifest yields one identical
/// merged stream and the same connection records.
#[test]
fn all_trace_sources_yield_identical_merged_streams() {
    let dataset = random_dataset(55, 3, 250, 1_200);
    let dir = temp_dir("sources");
    write_manifest(
        &dataset,
        &dir,
        DatasetConfig {
            segment: SegmentConfig { chunk_capacity: 32 },
            rotate_after_entries: 70,
            ..DatasetConfig::default()
        },
    );
    let manifest_reader = ManifestReader::open(&dir).unwrap();

    let from_memory: Vec<TraceEntry> = dataset.merged_entries().collect();
    let from_manifest: Vec<TraceEntry> = manifest_reader.merged_entries().collect();
    assert_eq!(from_memory.len(), dataset.total_entries());
    assert_eq!(from_manifest, from_memory);

    assert_eq!(
        sorted_connections(manifest_reader.connection_records().collect()),
        sorted_connections(dataset.connections.clone())
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A merged stream abandoned part-way stops and joins its prefetch workers
/// on drop and leaves nothing behind in the reader: the next pass from the
/// same reader is complete and reference-equal.
#[test]
fn abandoned_merged_stream_leaves_the_reader_reusable() {
    // Several prefetch batches per monitor, so the workers are blocked on a
    // full channel (not finished) when the stream is dropped.
    let dataset = random_dataset(77, 3, 9_000, 800);
    let dir = temp_dir("abandon");
    write_manifest_rotated(&dataset, &dir, 2_000, 256);
    let reference: Vec<TraceEntry> = dataset.merged_entries().collect();
    let reader = ManifestReader::open(&dir).unwrap();
    assert!((0..3).all(|monitor| reader.segment_count(monitor) >= 4));

    for taken in [0, 1, 5_000] {
        let mut stream = reader.merged_entries();
        let head: Vec<TraceEntry> = stream.by_ref().take(taken).collect();
        assert_eq!(head, reference[..taken]);
        drop(stream);
    }

    let mut stream = reader.merged_entries();
    let full: Vec<TraceEntry> = stream.by_ref().collect();
    assert!(stream.take_error().is_none());
    assert_eq!(full, reference);
    std::fs::remove_dir_all(&dir).ok();
}
