//! Every program entry point the benchmark calls, and the one configuration
//! it calls them with.
//!
//! The rest of the benchmark names program items only through this module,
//! so a change to the program's API re-points the benchmark here and nowhere
//! else. The benchmark measures the default configuration only
//! (`Network::with_sources` = `ExecOptions::default()`, `DatasetConfig`'s
//! default codec and segment settings, `RealStorage`); variants are not
//! benchmarked.

// simulator: `workload` builds the scenario, `node` runs it on `simnet`.
pub use ipfs_mon_node::{BitswapObservation, MonitorSink, Network};
pub use ipfs_mon_node::{DynWorkloadSource, Scenario};
pub use ipfs_mon_simnet::time::{SimDuration, SimTime};
pub use ipfs_mon_simnet::Scheduler;
pub use ipfs_mon_workload::{build_scenario_lazy, ScenarioConfig};

// collection and the live service (`core` over `tracestore`).
pub use ipfs_mon_core::{
    window_file_name, ManifestCollector, MonitorCollector, MonitorService, ServiceConfig,
    ServiceReport, WINDOW_DIR_NAME,
};
pub use ipfs_mon_tracestore::fault::write_file_durable;
pub use ipfs_mon_tracestore::recover::{recover_dataset, RecoveryReport};
pub use ipfs_mon_tracestore::{
    DatasetConfig, DatasetTail, DatasetWriter, LatePolicy, RealStorage, SegmentError, Storage,
    StorageFile, WindowSpec,
};

// offline analysis (`core` sinks and passes over a `tracestore` reader).
pub use ipfs_mon_analysis::fit_power_law;
pub use ipfs_mon_bitswap::RequestType;
pub use ipfs_mon_core::{
    estimate_network_size_source, flag_source, run_attacks_source, windowed_request_types,
    ActivityCountsSink, AttackTargets, EntryFlags, EntryStatsSink, PopularitySink,
    PreprocessConfig, RequestTypeSink, TraceEntry, TraceSource,
};
pub use ipfs_mon_tracestore::{run_sink, AnalysisSink, ManifestReader, SpaceSavingSink};
pub use ipfs_mon_types::{Multiaddr, PeerId};

/// Entries between the benchmark's `checkpoint()` + `poll()` calls.
pub const CHECKPOINT_EVERY: u64 = 16_384;
/// Tumbling window of the live analysis. At 1 min the durable write of each
/// sealed window dominates `poll` (see the README), so the benchmark uses
/// 10 min.
pub const WINDOW: SimDuration = SimDuration::from_mins(10);
/// Event-time allowance for arrival disorder. A live `Network::run` delivers
/// each monitor's observations slightly out of timestamp order; with zero
/// lateness such entries arrive behind a sealed window.
pub const LATENESS: SimDuration = SimDuration::from_secs(60);
/// Bucket of the offline request-type series and the network-size snapshots.
pub const ANALYSIS_BUCKET: SimDuration = SimDuration::from_hours(1);

/// The service configuration of every workload that runs `MonitorService`.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        dataset: DatasetConfig {
            rotate_after_entries: 1_000_000,
            ..DatasetConfig::default()
        },
        window: WindowSpec::tumbling(WINDOW),
        lateness: LATENESS,
        policy: LatePolicy::Drop,
        top_k: 8,
    }
}

/// Seed of everything that fixes a scenario's *size*: the population with
/// its churn schedules, the catalog, and the request streams. Per-node
/// request rates are Pareto(1.6), so the total load of a 4 000-node week
/// moves by ±20 % from one draw to the next; runs of different `--seed`
/// would not be comparable. The run's seed drives everything downstream
/// instead — see [`build_scenario`].
pub const SHAPE_SEED: u64 = 77;

/// The paper's deployment: `analysis_week` with its two monitors (us + de),
/// `nodes` ordinary nodes, observed for `days` days.
pub fn scenario_config(nodes: usize, days: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::analysis_week(SHAPE_SEED, nodes);
    config.horizon = SimDuration::from_days(days);
    config
}

/// `build_scenario_lazy`, then the run's seed: peer identities and every
/// draw the network makes while it runs (monitor attachment, latencies,
/// resolution) derive from `seed`.
pub fn build_scenario(seed: u64, config: &ScenarioConfig) -> (Scenario, Vec<DynWorkloadSource>) {
    let (mut scenario, sources) = build_scenario_lazy(config);
    scenario.seed = seed;
    (scenario, sources)
}

/// The trace entry a collector stores for one observation.
pub fn entry_of(monitor: usize, observation: BitswapObservation) -> TraceEntry {
    TraceEntry {
        timestamp: observation.timestamp,
        peer: observation.peer,
        address: observation.address,
        request_type: observation.request_type,
        cid: observation.cid,
        monitor,
        flags: EntryFlags::default(),
    }
}
