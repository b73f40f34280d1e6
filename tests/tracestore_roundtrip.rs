//! Tracestore integration coverage.
//!
//! Property tests proving that one monitor's trace round-trips losslessly
//! through a columnar segment and a multi-monitor dataset through the
//! segment chains behind a manifest, that the streaming analyses over a
//! spilled dataset agree with their in-memory counterparts, and that damage
//! to a segment is detected rather than decoded.

mod common;

use common::{differential_case, random_dataset, run_flagged, simulated_network, DifferentialCase};
use ipfs_monitoring::core::{
    popularity_scores, unify_and_flag, unify_and_flag_source, ManifestCollector, MonitorCollector,
    PopularitySink, PreprocessConfig,
};
use ipfs_monitoring::simnet::time::SimDuration;
use ipfs_monitoring::tracestore::{
    ChunkSource, ConnectionRecord, DatasetConfig, DatasetWriter, FileSource, ManifestReader,
    MonitoringDataset, SegmentConfig, SegmentError, SliceSource, TraceEntry, TraceReader,
    TraceSource, TraceWriter, MANIFEST_FILE_NAME,
};
use ipfs_monitoring::workload::ScenarioConfig;
use proptest::prelude::*;

/// Writes the one monitor of `dataset` — entries in arrival order, then the
/// connection records — as one segment into `sink`.
fn write_segment(dataset: &MonitoringDataset, config: SegmentConfig, sink: impl std::io::Write) {
    assert_eq!(dataset.monitor_count(), 1, "a segment holds one monitor");
    let mut writer = TraceWriter::new(sink, dataset.monitor_labels[0].clone(), config).unwrap();
    for entry in &dataset.entries[0] {
        writer.append(entry).unwrap();
    }
    for connection in &dataset.connections {
        writer.record_connection(connection.clone());
    }
    let summary = writer.finish().unwrap();
    assert_eq!(summary.total_entries as usize, dataset.total_entries());
}

/// [`write_segment`] into memory.
fn segment_bytes(dataset: &MonitoringDataset, config: SegmentConfig) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_segment(dataset, config, &mut bytes);
    bytes
}

/// Everything a segment holds — label, entries in storage order, connection
/// records — or the first error met opening or streaming it.
fn read_segment(
    source: impl ChunkSource,
) -> Result<(String, Vec<TraceEntry>, Vec<ConnectionRecord>), SegmentError> {
    let reader = TraceReader::new(source)?;
    let mut stream = reader.stream();
    let entries: Vec<TraceEntry> = stream.by_ref().collect();
    match stream.take_error() {
        Some(error) => Err(error),
        None => Ok((
            reader.label().to_string(),
            entries,
            reader.connections().to_vec(),
        )),
    }
}

/// Spills the case's dataset under its layout and reads it back through the
/// manifest: labels, every monitor's stream (a stable sort of its arrivals
/// by timestamp, stored flags included), the merged stream and the
/// connection records (per monitor, in the order they were recorded) must
/// be the dataset's.
fn assert_dataset_roundtrips(case: &DifferentialCase, tag: &str) {
    let dataset = &case.dataset;
    let dir = common::temp_dir(tag);
    common::write_manifest(dataset, &dir, case.layout);
    let reader = ManifestReader::open(&dir).unwrap();
    assert_eq!(reader.monitor_labels(), dataset.monitor_labels);
    assert_eq!(reader.total_entries() as usize, dataset.total_entries());
    for (monitor, arrivals) in dataset.entries.iter().enumerate() {
        let mut expected = arrivals.clone();
        expected.sort_by_key(|entry| entry.timestamp);
        let mut stream = reader.stream_monitor_sorted(monitor);
        let streamed: Vec<TraceEntry> = stream.by_ref().collect();
        assert!(stream.take_error().is_none());
        assert_eq!(streamed, expected, "monitor {monitor}");
        let connections: Vec<ConnectionRecord> = reader
            .connections()
            .filter(|record| record.monitor == monitor)
            .collect();
        let expected: Vec<ConnectionRecord> = dataset
            .connections
            .iter()
            .filter(|record| record.monitor == monitor)
            .cloned()
            .collect();
        assert_eq!(connections, expected, "monitor {monitor}");
    }
    let mut merged = reader.stream_merged();
    let streamed: Vec<TraceEntry> = merged.by_ref().collect();
    assert!(merged.take_error().is_none());
    assert!(
        streamed == dataset.merged_entries().collect::<Vec<_>>(),
        "merged stream differs from the in-memory merge"
    );
    drop(merged);
    drop(reader);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #[test]
    fn segment_roundtrip_is_lossless(
        seed in 0u64..1_000_000,
        entries in 0usize..300,
        jitter in 0u64..1_500,
    ) {
        let dataset = random_dataset(seed, 1, entries, jitter);
        let config = SegmentConfig { chunk_capacity: 64 };
        let bytes = segment_bytes(&dataset, config);
        let (label, entries, connections) = read_segment(SliceSource::new(&bytes)).unwrap();
        prop_assert_eq!(&label, &dataset.monitor_labels[0]);
        prop_assert_eq!(&entries, &dataset.entries[0]);
        prop_assert_eq!(&connections, &dataset.connections);
    }

    #[test]
    fn chunk_capacity_does_not_change_contents(
        seed in 0u64..1_000_000,
        capacity in 1usize..200,
    ) {
        let mut case = differential_case(seed);
        case.layout.segment.chunk_capacity = capacity;
        assert_dataset_roundtrips(&case, &format!("roundtrip-capacity-{seed}-{capacity}"));
    }
}

#[test]
fn empty_dataset_roundtrips() {
    let labels = vec!["us".to_string(), "de".to_string()];
    let dir = common::temp_dir("roundtrip-empty");
    let summary = DatasetWriter::create(&dir, labels.clone(), DatasetConfig::default())
        .unwrap()
        .finish()
        .unwrap();
    assert_eq!(summary.segment_count, 0, "no entries, no segment files");
    let reader = ManifestReader::open(&dir).unwrap();
    assert_eq!(reader.monitor_labels(), labels);
    assert_eq!(reader.total_entries(), 0);
    assert_eq!(reader.stream_merged().count(), 0);
    assert_eq!(reader.connections().count(), 0);
    std::fs::remove_dir_all(&dir).ok();

    // One monitor that never logged anything, as a segment of its own.
    let dataset = MonitoringDataset::new(vec!["us".into()]);
    let bytes = segment_bytes(&dataset, SegmentConfig::default());
    let (label, entries, connections) = read_segment(SliceSource::new(&bytes)).unwrap();
    assert_eq!(label, "us");
    assert!(entries.is_empty() && connections.is_empty());
}

#[test]
fn file_backed_segment_roundtrips() {
    let dataset = random_dataset(42, 1, 600, 800);
    let path =
        std::env::temp_dir().join(format!("tracestore_roundtrip_{}.seg", std::process::id()));
    let config = SegmentConfig {
        chunk_capacity: 128,
    };
    write_segment(&dataset, config, std::fs::File::create(&path).unwrap());

    let (_, entries, connections) = read_segment(FileSource::open(&path).unwrap()).unwrap();
    assert_eq!(entries, dataset.entries[0]);
    assert_eq!(connections, dataset.connections);
    // The file holds the bytes the in-memory sink gets.
    assert_eq!(
        std::fs::read(&path).unwrap(),
        segment_bytes(&dataset, config)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_chunk_is_detected() {
    let dataset = random_dataset(7, 1, 240, 0);
    let mut bytes = segment_bytes(&dataset, SegmentConfig { chunk_capacity: 64 });

    let reader = TraceReader::new(SliceSource::new(&bytes)).unwrap();
    let chunk = reader.chunks()[0];
    drop(reader);
    // Flip one payload byte past the frame's length prefix.
    let victim = chunk.offset as usize + chunk.len as usize / 2;
    bytes[victim] ^= 0xff;

    match read_segment(SliceSource::new(&bytes)) {
        Err(SegmentError::ChecksumMismatch { .. }) | Err(SegmentError::Corrupt(_)) => {}
        other => panic!("corruption not detected: {other:?}"),
    }
}

#[test]
fn truncated_segment_is_rejected() {
    let dataset = random_dataset(8, 1, 50, 0);
    let bytes = segment_bytes(&dataset, SegmentConfig::default());
    assert!(TraceReader::new(SliceSource::new(&bytes[..bytes.len() - 9])).is_err());
}

/// End-to-end: the same simulated scenario collected by the in-memory
/// collector and by the spill-to-disk collector must yield identical
/// entries, identical preprocessing flags, and identical downstream analysis
/// — with real monitor delivery jitter, not synthetic data.
#[test]
fn scenario_spill_matches_in_memory_pipeline() {
    let mut config = ScenarioConfig::small_test(777);
    config.horizon = SimDuration::from_hours(2);

    let mut in_memory = MonitorCollector::us_de();
    simulated_network(&config).run(&mut in_memory);
    let dataset = in_memory.into_dataset();
    assert!(dataset.total_entries() > 0);

    let spill = |tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "tracestore_roundtrip_spill_{tag}_{}",
            std::process::id()
        ));
        let dataset_config = DatasetConfig {
            segment: SegmentConfig {
                chunk_capacity: 256,
            },
            rotate_after_entries: 1_000,
            ..DatasetConfig::default()
        };
        let mut spilling = ManifestCollector::us_de(&dir, dataset_config).unwrap();
        simulated_network(&config).run(&mut spilling);
        let summary = spilling.finish().unwrap();
        (dir, summary)
    };
    let (dir, summary) = spill("a");

    // Spilling is deterministic: an identical run yields identical bytes.
    let (dir_again, summary_again) = spill("b");
    assert_eq!(summary.manifest, summary_again.manifest);
    let file_names = summary
        .manifest
        .segments
        .iter()
        .map(|s| s.file_name.as_str());
    for name in file_names.chain([MANIFEST_FILE_NAME]) {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        assert_eq!(
            bytes,
            std::fs::read(dir_again.join(name)).unwrap(),
            "{name}"
        );
    }
    std::fs::remove_dir_all(&dir_again).ok();

    let reader = ManifestReader::open(&dir).unwrap();
    assert_eq!(reader.total_entries() as usize, dataset.total_entries());

    let (trace, stats) = unify_and_flag(&dataset, PreprocessConfig::default());
    let (streamed, streamed_stats) =
        unify_and_flag_source(&reader, PreprocessConfig::default()).unwrap();
    assert_eq!(streamed.entries, trace.entries);
    assert_eq!(streamed_stats, stats);

    // A representative analysis agrees between the two paths as well.
    assert_eq!(
        run_flagged(&reader, PopularitySink::new()),
        popularity_scores(&trace)
    );
    drop(reader);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every streaming analysis variant must agree with its in-memory
/// counterpart when fed the same data from disk.
#[test]
fn streaming_analysis_variants_match_in_memory() {
    use ipfs_monitoring::analysis::{summarize, summarize_stream, Ecdf};
    use ipfs_monitoring::core::{
        per_peer_request_counts, request_type_series, run_sink, ActivityCountsSink, RequestTypeSink,
    };

    let dataset = random_dataset(99, 2, 400, 1_000);
    let (trace, _) = unify_and_flag(&dataset, PreprocessConfig::default());
    let dir = common::temp_dir("roundtrip-variants");
    common::write_manifest_rotated(&dataset, &dir, 150, 64);
    let reader = ManifestReader::open(&dir).unwrap();

    // Per-peer request counts over the flagged stream.
    let in_memory = per_peer_request_counts(&trace);
    let streamed = run_flagged(&reader, ActivityCountsSink::new()).per_peer;
    assert!(!in_memory.is_empty());
    assert_eq!(streamed, in_memory);

    // Fig. 4 request-type series of every monitor from the raw stream.
    let bucket = SimDuration::from_secs(60);
    let streamed_series = run_sink(&reader, RequestTypeSink::new(bucket)).unwrap();
    for (monitor, series) in streamed_series.iter().enumerate() {
        assert_eq!(
            series.rows,
            request_type_series(&dataset, monitor, bucket).rows
        );
    }
    std::fs::remove_dir_all(&dir).ok();

    // Descriptive summary and ECDF over the per-peer counts as a sample.
    let samples: Vec<f64> = in_memory.iter().map(|(_, count)| *count as f64).collect();
    let batch = summarize(&samples).unwrap();
    let stream = summarize_stream(samples.iter().copied()).unwrap();
    assert_eq!(stream.count, batch.count);
    assert_eq!(stream.min, batch.min);
    assert_eq!(stream.max, batch.max);
    assert!((stream.mean - batch.mean).abs() < 1e-9);
    assert!((stream.std_dev - batch.std_dev).abs() < 1e-9);

    // Documented divergence: the streaming summary skips NaN samples.
    let with_nan = [1.0, f64::NAN, 3.0];
    let skipped = summarize_stream(with_nan.iter().copied()).unwrap();
    assert_eq!(skipped.count, 2);
    assert_eq!((skipped.min, skipped.max), (1.0, 3.0));

    /// An ECDF built by draining a sample stream (collected: quantiles need
    /// the sorted set, but the source need not be resident).
    fn ecdf_from_samples(samples: impl IntoIterator<Item = f64>) -> Ecdf {
        Ecdf::new(samples.into_iter().collect())
    }
    let ecdf_batch = Ecdf::new(samples.clone());
    let ecdf_stream = ecdf_from_samples(samples.iter().copied());
    assert_eq!(ecdf_stream.len(), ecdf_batch.len());
    for q in [0.1, 0.5, 0.9] {
        assert_eq!(ecdf_stream.quantile(q), ecdf_batch.quantile(q));
    }
}
