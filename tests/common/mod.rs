//! Shared scenario-building and dataset-spilling helpers for the
//! integration suites. Each test binary compiles this module separately
//! (`mod common;`), so not every binary uses every helper.
#![allow(dead_code)]

use ipfs_monitoring::bitswap::RequestType;
use ipfs_monitoring::core::{
    flag_source, AnalysisSink, AttackTargets, MonitorCollector, PreprocessConfig,
};
use ipfs_monitoring::node::Network;
use ipfs_monitoring::simnet::time::SimTime;
use ipfs_monitoring::tracestore::{
    ConnectionRecord, DatasetConfig, DatasetWriter, EntryFlags, MonitoringDataset, SegmentConfig,
    SegmentError, TraceEntry, TraceReader, TraceSource,
};
use ipfs_monitoring::types::{Cid, Country, Multiaddr, Multicodec, PeerId, Transport};
use ipfs_monitoring::workload::{build_scenario_lazy, ScenarioConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// A per-process temp path for the given tag. Tags must be unique within a
/// test binary (the harness runs tests of one binary concurrently in one
/// process); the PID keeps binaries from colliding with each other.
pub fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("it-{tag}-{}", std::process::id()))
}

/// [`temp_dir`] plus remove-and-recreate, for suites whose helpers require
/// the directory to exist (e.g. `recover_dataset` reads it immediately).
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Opens `bytes` as a segment file of its own: how the suites read a segment
/// they built or damaged in memory. The file is removed once it is open.
pub fn segment_reader(bytes: &[u8]) -> Result<TraceReader, SegmentError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "it-segment-{}-{}.seg",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    let reader = TraceReader::open(&path);
    std::fs::remove_file(&path).ok();
    reader
}

/// Random multi-monitor dataset with bounded per-monitor arrival disorder:
/// low-cardinality peers/CIDs (so dictionaries and index columns dominate —
/// the compressible case), mixed multicodecs/transports/countries (so the
/// share analyses have variety), and a handful of connection records.
pub fn random_dataset(
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
            let timestamp = clock.saturating_sub(rng.gen_range(0u64..=jitter_ms.max(1)));
            dataset.entries[monitor].push(TraceEntry {
                timestamp: SimTime::from_millis(timestamp),
                peer: PeerId::derived(29, rng.gen_range(0u64..16)),
                address: Multiaddr::new(
                    rng.gen_range(0u32..64),
                    4001,
                    transports[rng.gen_range(0usize..transports.len())],
                    countries[rng.gen_range(0usize..countries.len())],
                ),
                request_type: types[rng.gen_range(0usize..types.len())],
                cid: Cid::new_v1(
                    if rng.gen_bool(0.3) {
                        Multicodec::DagProtobuf
                    } else {
                        Multicodec::Raw
                    },
                    &[rng.gen_range(0u8..24)],
                ),
                monitor,
                flags: EntryFlags::default(),
            });
        }
    }
    for _ in 0..rng.gen_range(1usize..6) {
        let connected_at = rng.gen_range(0u64..100_000);
        dataset.connections.push(ConnectionRecord {
            monitor: rng.gen_range(0usize..monitors),
            peer: PeerId::derived(29, rng.gen_range(0u64..16)),
            address: Multiaddr::new(rng.gen::<u32>(), 4001, Transport::Tcp, Country::Us),
            connected_at: SimTime::from_millis(connected_at),
            disconnected_at: rng
                .gen_bool(0.5)
                .then(|| SimTime::from_millis(connected_at + rng.gen_range(0u64..50_000))),
        });
    }
    dataset
}

/// One case of the differential suites that hold the column-reading paths
/// (chunk-level sink runs, filtered streams) to the entry-reading ones: a
/// dataset, the dataset configuration to spill it with, and attack targets.
pub struct DifferentialCase {
    /// At least two monitors, arrival jitter, and stored flags on some rows
    /// (so the flag plane is read, not assumed clear).
    pub dataset: MonitoringDataset,
    /// Rotation into several segments per monitor, small chunks.
    pub layout: DatasetConfig,
    /// IDW: a requested CID and an absent one. TNW: a peer that requested
    /// that CID, another present peer, and an absent one.
    pub targets: AttackTargets,
}

/// The one generator of the differential suites: everything about the case
/// derives from `seed`.
pub fn differential_case(seed: u64) -> DifferentialCase {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c01a);
    let monitors = rng.gen_range(2usize..4);
    let per_monitor = rng.gen_range(40usize..360);
    let mut dataset = random_dataset(seed, monitors, per_monitor, rng.gen_range(0u64..1_500));
    for entry in dataset.entries.iter_mut().flatten() {
        entry.flags.inter_monitor_duplicate = rng.gen_bool(0.1);
        entry.flags.rebroadcast = rng.gen_bool(0.1);
    }
    let layout = DatasetConfig {
        rotate_after_entries: rng
            .gen_range(per_monitor as u64 / 5..per_monitor as u64 / 2)
            .max(1),
        segment: SegmentConfig {
            chunk_capacity: rng.gen_range(1usize..48),
        },
        ..DatasetConfig::default()
    };
    let wanted = dataset.entries[0]
        .iter()
        .find(|entry| entry.is_request())
        .expect("a dataset this size holds a request");
    let other = &dataset.entries[monitors - 1][per_monitor / 2];
    let targets = AttackTargets {
        idw_cids: vec![wanted.cid.clone(), Cid::new_v1(Multicodec::Raw, b"absent")],
        tnw_peers: vec![wanted.peer, other.peer, PeerId::derived(30, seed)],
        tpi_probes: Vec::new(),
    };
    DifferentialCase {
        dataset,
        layout,
        targets,
    }
}

impl DifferentialCase {
    /// Spills the case's dataset into `dir` under its layout.
    pub fn spill(&self, dir: &Path) {
        write_manifest(&self.dataset, dir, self.layout);
    }
}

/// Counts entries — a sink that implements `consume` alone, so a driver
/// that reads chunks must build every entry for it (and for any composition
/// it is a member of).
#[derive(Clone, Default)]
pub struct CountSink(pub u64);

impl AnalysisSink for CountSink {
    type Output = u64;
    fn consume(&mut self, _entry: TraceEntry) {
        self.0 += 1;
    }
    fn combine(&mut self, other: Self) {
        self.0 += other.0;
    }
    fn finish(self) -> u64 {
        self.0
    }
}

/// Spills a dataset (entries and connections) into a manifest directory
/// under the given configuration.
pub fn write_manifest(dataset: &MonitoringDataset, dir: &Path, config: DatasetConfig) {
    let mut writer = DatasetWriter::create(dir, dataset.monitor_labels.clone(), config).unwrap();
    for per_monitor in &dataset.entries {
        for entry in per_monitor {
            writer.append(entry).unwrap();
        }
    }
    for connection in &dataset.connections {
        writer.record_connection(connection.clone()).unwrap();
    }
    writer.finish().unwrap();
}

/// [`write_manifest`] with just the rotation cadence and chunk capacity
/// picked — the layout knobs the streaming/parallel suites sweep.
pub fn write_manifest_rotated(dataset: &MonitoringDataset, dir: &Path, rotate: u64, chunk: usize) {
    write_manifest(
        dataset,
        dir,
        DatasetConfig {
            rotate_after_entries: rotate,
            segment: SegmentConfig {
                chunk_capacity: chunk,
            },
            ..DatasetConfig::default()
        },
    );
}

/// The standard small scenario at an explicit population.
pub fn scenario_config(seed: u64, nodes: usize) -> ScenarioConfig {
    let mut config = ScenarioConfig::small_test(seed);
    config.population.nodes = nodes;
    config
}

/// The network of `config`, fed by the sources that draw its requests while
/// it runs.
pub fn simulated_network(config: &ScenarioConfig) -> Network {
    let (scenario, sources) = build_scenario_lazy(config);
    Network::with_sources(scenario, sources)
}

/// Runs the simulation pipeline end to end and returns the raw per-monitor
/// dataset — the realistic (simulator-shaped) counterpart of
/// [`random_dataset`].
pub fn simulated_dataset(seed: u64, nodes: usize) -> MonitoringDataset {
    let config = scenario_config(seed, nodes);
    let labels: Vec<String> = config.monitors.iter().map(|m| m.label.clone()).collect();
    let mut collector = MonitorCollector::new(labels);
    simulated_network(&config).run(&mut collector);
    collector.into_dataset()
}

/// Feeds the flagged merged stream of `source` through `sink`, failing on a
/// storage error — how an analysis consumes a trace it never materializes.
pub fn run_flagged<K: AnalysisSink>(source: &impl TraceSource, mut sink: K) -> K::Output {
    let mut stream = flag_source(source, PreprocessConfig::default());
    (&mut stream).for_each(|entry| sink.consume(entry));
    assert!(stream.take_source_error().is_none());
    sink.finish()
}
