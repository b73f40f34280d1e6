//! Quickstart: simulate a small IPFS-like network, attach two passive
//! monitors, collect Bitswap traces, preprocess them and print headline
//! statistics — then do it again at constant memory, spilling the trace to a
//! tracestore dataset on disk and streaming it back for analysis.
//!
//! Run with `cargo run --example quickstart`.

use ipfs_monitoring::core::{
    estimate_network_size, flag_source, popularity_scores, unify_and_flag, AnalysisSink,
    ManifestCollector, MonitorCollector, PopularitySink, PreprocessConfig,
};
use ipfs_monitoring::node::Network;
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::tracestore::{DatasetConfig, ManifestReader};
use ipfs_monitoring::workload::{build_scenario_lazy, ScenarioConfig};

fn main() {
    // 1. Describe the world: ~300 nodes, gateways, two monitors (us, de),
    //    a content catalog and six hours of user activity, drawn request by
    //    request while the simulation runs.
    let config = ScenarioConfig::small_test(2024);
    let (scenario, sources) = build_scenario_lazy(&config);
    println!(
        "scenario: {} nodes, {} content items",
        scenario.nodes.len(),
        scenario.content.len(),
    );

    // 2. Execute it with a trace collector attached to the monitors.
    let mut network = Network::with_sources(scenario, sources);
    let mut collector = MonitorCollector::us_de();
    let report = network.run(&mut collector);
    let dataset = collector.into_dataset();
    println!(
        "simulation processed {} events, {} requests at online nodes",
        report.events_processed,
        report.counters.get("requests_total")
    );
    println!(
        "monitors recorded {} raw Bitswap entries",
        dataset.total_entries()
    );

    // 3. Preprocess: unify both monitors' traces, flag duplicates and 30 s
    //    re-broadcasts (Sec. IV-B of the paper).
    let (trace, stats) = unify_and_flag(&dataset, PreprocessConfig::default());
    println!(
        "unified trace: {} entries, {} inter-monitor duplicates, {} re-broadcasts, {} primary",
        stats.total, stats.inter_monitor_duplicates, stats.rebroadcasts, stats.primary
    );

    // 4. Analyze: network size estimate and content popularity.
    let netsize = estimate_network_size(
        &dataset,
        SimTime::ZERO + SimDuration::from_hours(2),
        SimTime::ZERO + SimDuration::from_hours(5),
        SimDuration::from_hours(1),
    );
    if let Some(estimate) = netsize.capture_recapture {
        println!(
            "estimated network size (capture-recapture): {:.0}",
            estimate.mean
        );
    }
    let scores = popularity_scores(&trace);
    println!(
        "observed {} distinct CIDs; {:.1}% requested by a single peer",
        scores.cid_count(),
        scores.single_requester_fraction() * 100.0
    );

    // 5. The same pipeline at production scale: instead of accumulating the
    //    trace in memory, spill it to a tracestore dataset (one rotating
    //    chain of columnar segments per monitor plus a manifest) as it is
    //    collected. Memory stays bounded by one chunk per monitor no matter
    //    how long the deployment runs.
    let dataset_dir = std::env::temp_dir().join("quickstart_trace");
    let mut spilling = ManifestCollector::us_de(&dataset_dir, DatasetConfig::default())
        .expect("open dataset writer");
    let (scenario, sources) = build_scenario_lazy(&config);
    Network::with_sources(scenario, sources).run(&mut spilling);
    let summary = spilling.finish().expect("finish dataset");
    println!(
        "spilled {} entries to {} ({} bytes, {:.1} bytes/entry, {} segments)",
        summary.total_entries,
        dataset_dir.display(),
        summary.bytes_written,
        summary.bytes_written as f64 / summary.total_entries.max(1) as f64,
        summary.segment_count,
    );

    // 6. Re-open the dataset and re-run the analysis without ever holding the
    //    full trace: the reader k-way merges the per-monitor chunk streams in
    //    timestamp order, the preprocessor flags entries on the fly, and the
    //    popularity sink keeps only the per-CID aggregates.
    let reader = ManifestReader::open(&dataset_dir).expect("open dataset");
    let mut stream = flag_source(&reader, PreprocessConfig::default());
    let mut popularity = PopularitySink::new();
    (&mut stream).for_each(|entry| popularity.consume(entry));
    let streamed_scores = popularity.finish();
    let streamed_stats = stream.stats();
    // A segment-backed stream ends silently on a bad chunk — always check.
    if let Some(error) = stream.take_source_error() {
        panic!("segment read failed mid-stream: {error}");
    }
    println!(
        "streamed from dataset: {} entries, {} primary, {} distinct CIDs (window state: {} keys)",
        streamed_stats.total,
        streamed_stats.primary,
        streamed_scores.cid_count(),
        stream.tracked_keys(),
    );
    assert_eq!(
        streamed_stats, stats,
        "streaming must match the in-memory pipeline"
    );
    assert_eq!(streamed_scores, scores);
    drop(stream);
    drop(reader);
    std::fs::remove_dir_all(&dataset_dir).ok();
}
