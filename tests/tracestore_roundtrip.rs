//! Tracestore integration coverage.
//!
//! Property tests proving that arbitrary datasets round-trip losslessly
//! through columnar segments, that the streaming analyses over a spilled
//! dataset agree with their in-memory counterparts, and that damage to a
//! segment is detected rather than decoded.

mod common;

use common::run_flagged;
use ipfs_monitoring::bitswap::RequestType;
use ipfs_monitoring::core::{
    popularity_scores, unify_and_flag, unify_and_flag_source, ManifestCollector, MonitorCollector,
    PopularitySink, PreprocessConfig,
};
use ipfs_monitoring::node::Network;
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::tracestore::{
    ConnectionRecord, DatasetConfig, EntryFlags, FileSource, ManifestReader, MonitoringDataset,
    SegmentConfig, SegmentError, SliceSource, TraceEntry, TraceReader, TraceWriter,
    MANIFEST_FILE_NAME,
};
use ipfs_monitoring::types::{Cid, Country, Multiaddr, Multicodec, PeerId, Transport};
use ipfs_monitoring::workload::{build_scenario, ScenarioConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a dataset with interleaved duplicates/re-broadcasts and bounded
/// per-monitor arrival disorder (`jitter_ms`), the delivery pattern a real
/// monitor produces and the hardest case for the k-way merged reader.
fn random_dataset(
    seed: u64,
    monitors: usize,
    per_monitor: usize,
    jitter_ms: u64,
) -> MonitoringDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let countries = [Country::Us, Country::De, Country::Nl, Country::Fr];
    let transports = [Transport::Tcp, Transport::Quic, Transport::WebSocket];
    let types = [
        RequestType::WantHave,
        RequestType::WantBlock,
        RequestType::Cancel,
    ];
    let mut dataset = MonitoringDataset::new((0..monitors).map(|m| format!("m{m}")).collect());
    for monitor in 0..monitors {
        let mut clock: u64 = 0;
        for _ in 0..per_monitor {
            clock += rng.gen_range(0u64..2_000);
            // Arrival order differs from timestamp order by up to the jitter.
            let timestamp = clock.saturating_sub(rng.gen_range(0u64..=jitter_ms.max(1)));
            dataset.entries[monitor].push(TraceEntry {
                timestamp: SimTime::from_millis(timestamp),
                peer: PeerId::derived(11, rng.gen_range(0u64..16)),
                address: Multiaddr::new(
                    rng.gen::<u32>(),
                    4001,
                    transports[rng.gen_range(0usize..transports.len())],
                    countries[rng.gen_range(0usize..countries.len())],
                ),
                request_type: types[rng.gen_range(0usize..types.len())],
                cid: Cid::new_v1(Multicodec::Raw, &[rng.gen_range(0u8..32)]),
                monitor,
                flags: EntryFlags::default(),
            });
        }
    }
    for _ in 0..rng.gen_range(0usize..8) {
        let connected_at = rng.gen_range(0u64..100_000);
        dataset.connections.push(ConnectionRecord {
            monitor: rng.gen_range(0usize..monitors),
            peer: PeerId::derived(11, rng.gen_range(0u64..16)),
            address: Multiaddr::new(rng.gen::<u32>(), 4001, Transport::Tcp, Country::Us),
            connected_at: SimTime::from_millis(connected_at),
            disconnected_at: rng
                .gen_bool(0.5)
                .then(|| SimTime::from_millis(connected_at + rng.gen_range(0u64..50_000))),
        });
    }
    dataset
}

proptest! {
    #[test]
    fn segment_roundtrip_is_lossless(
        seed in 0u64..1_000_000,
        monitors in 1usize..5,
        per_monitor in 0usize..300,
        jitter in 0u64..1_500,
    ) {
        let dataset = random_dataset(seed, monitors, per_monitor, jitter);
        let bytes = dataset
            .to_segment_bytes(SegmentConfig { chunk_capacity: 64 , ..SegmentConfig::default() })
            .unwrap();
        let back = MonitoringDataset::from_segment_bytes(&bytes).unwrap();
        prop_assert_eq!(&back.monitor_labels, &dataset.monitor_labels);
        prop_assert_eq!(&back.entries, &dataset.entries);
        prop_assert_eq!(&back.connections, &dataset.connections);
    }

    #[test]
    fn chunk_capacity_does_not_change_contents(
        seed in 0u64..1_000_000,
        capacity in 1usize..200,
    ) {
        let dataset = random_dataset(seed, 2, 150, 500);
        let bytes = dataset
            .to_segment_bytes(SegmentConfig { chunk_capacity: capacity , ..SegmentConfig::default() })
            .unwrap();
        let back = MonitoringDataset::from_segment_bytes(&bytes).unwrap();
        prop_assert_eq!(&back.entries, &dataset.entries);
    }
}

#[test]
fn empty_dataset_roundtrips() {
    let dataset = MonitoringDataset::new(vec!["us".into(), "de".into()]);
    let bytes = dataset.to_segment_bytes(SegmentConfig::default()).unwrap();
    let back = MonitoringDataset::from_segment_bytes(&bytes).unwrap();
    assert_eq!(back.monitor_labels, dataset.monitor_labels);
    assert!(back.entries.iter().all(Vec::is_empty));
    assert!(back.connections.is_empty());
}

#[test]
fn file_backed_segment_roundtrips() {
    let dataset = random_dataset(42, 3, 200, 800);
    let path =
        std::env::temp_dir().join(format!("tracestore_roundtrip_{}.seg", std::process::id()));

    let file = std::fs::File::create(&path).unwrap();
    let mut writer = TraceWriter::new(
        file,
        dataset.monitor_labels.clone(),
        SegmentConfig {
            chunk_capacity: 128,
            ..SegmentConfig::default()
        },
    )
    .unwrap();
    // Interleave monitors the way a shared collector would.
    let mut cursors: Vec<_> = dataset.entries.iter().map(|v| v.iter()).collect();
    let mut remaining = true;
    while remaining {
        remaining = false;
        for cursor in &mut cursors {
            if let Some(entry) = cursor.next() {
                writer.append(entry).unwrap();
                remaining = true;
            }
        }
    }
    for connection in &dataset.connections {
        writer.record_connection(connection.clone());
    }
    let summary = writer.finish().unwrap();
    assert_eq!(summary.total_entries as usize, dataset.total_entries());

    let reader = TraceReader::new(FileSource::open(&path).unwrap()).unwrap();
    let back = reader.to_dataset().unwrap();
    assert_eq!(back.entries, dataset.entries);
    assert_eq!(back.connections, dataset.connections);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_chunk_is_detected() {
    let dataset = random_dataset(7, 2, 120, 0);
    let mut bytes = dataset
        .to_segment_bytes(SegmentConfig {
            chunk_capacity: 64,
            ..SegmentConfig::default()
        })
        .unwrap();

    let reader = TraceReader::new(SliceSource::new(&bytes)).unwrap();
    let chunk = reader.chunks()[0];
    drop(reader);
    // Flip one payload byte past the frame's length prefix.
    let victim = chunk.offset as usize + chunk.len as usize / 2;
    bytes[victim] ^= 0xff;

    match MonitoringDataset::from_segment_bytes(&bytes) {
        Err(SegmentError::ChecksumMismatch { .. }) | Err(SegmentError::Corrupt(_)) => {}
        other => panic!("corruption not detected: {other:?}"),
    }
}

#[test]
fn truncated_segment_is_rejected() {
    let dataset = random_dataset(8, 1, 50, 0);
    let bytes = dataset.to_segment_bytes(SegmentConfig::default()).unwrap();
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
    Network::new(build_scenario(&config)).run(&mut in_memory);
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
                ..SegmentConfig::default()
            },
            rotate_after_entries: 1_000,
            ..DatasetConfig::default()
        };
        let mut spilling = ManifestCollector::us_de(&dir, dataset_config).unwrap();
        Network::new(build_scenario(&config)).run(&mut spilling);
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
        per_peer_request_counts, request_type_series, request_type_series_source,
        ActivityCountsSink,
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
    let streamed_series = request_type_series_source(&reader, bucket).unwrap();
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

    let ecdf_batch = Ecdf::new(samples.clone());
    let ecdf_stream = Ecdf::from_samples(samples.iter().copied());
    assert_eq!(ecdf_stream.len(), ecdf_batch.len());
    for q in [0.1, 0.5, 0.9] {
        assert_eq!(ecdf_stream.quantile(q), ecdf_batch.quantile(q));
    }
}
