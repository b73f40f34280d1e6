//! Stability of a trace across the segment store: preprocessing a dataset
//! read back from disk gives what preprocessing it in memory gives.

mod common;

use common::{simulated_network, temp_dir, write_manifest_rotated};
use ipfs_monitoring::core::{
    flag_source, unify_and_flag, MonitorCollector, MonitoringDataset, PreprocessConfig,
};
use ipfs_monitoring::simnet::time::SimDuration;
use ipfs_monitoring::tracestore::{ManifestReader, TraceEntry};
use ipfs_monitoring::workload::ScenarioConfig;

fn small_dataset(seed: u64) -> MonitoringDataset {
    let mut config = ScenarioConfig::small_test(seed);
    config.horizon = SimDuration::from_hours(2);
    let mut collector = MonitorCollector::us_de();
    simulated_network(&config).run(&mut collector);
    collector.into_dataset()
}

#[test]
fn preprocessing_is_idempotent_on_reloaded_data() {
    let dataset = small_dataset(602);
    assert!(dataset.total_entries() > 0);
    let dir = temp_dir("reloaded");
    write_manifest_rotated(&dataset, &dir, 500, 64);
    let reader = ManifestReader::open(&dir).unwrap();

    let (a, sa) = unify_and_flag(&dataset, PreprocessConfig::default());
    let mut stream = flag_source(&reader, PreprocessConfig::default());
    let b: Vec<TraceEntry> = (&mut stream).collect();
    assert!(stream.take_source_error().is_none());
    assert_eq!(a.entries, b);
    assert_eq!(sa, stream.stats());
    std::fs::remove_dir_all(&dir).ok();
}
