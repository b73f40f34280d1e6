//! Passive Bitswap-request monitoring for decentralized data storage systems —
//! the core library of this workspace, implementing the methodology of
//! *"Monitoring Data Requests in Decentralized Data Storage Systems: A Case
//! Study of IPFS"* (ICDCS 2022).
//!
//! The pipeline mirrors the paper:
//!
//! 1. **Collection** ([`monitor`], [`trace`]) — passive monitoring nodes
//!    accept every connection and log each received Bitswap wantlist entry as
//!    a `(timestamp, node ID, address, request type, CID)` tuple, together
//!    with connection events.
//! 2. **Preprocessing** ([`preprocess`]) — traces from multiple monitors are
//!    unified; inter-monitor duplicates (5 s window) and periodic 30 s
//!    re-broadcasts (31 s window) are flagged.
//! 3. **Analysis** ([`netsize`], [`popularity`], [`activity`]) — network-size
//!    estimation and monitoring coverage (Sec. V-C), content-popularity
//!    distributions with the power-law test (Sec. V-E), request-type /
//!    multicodec / geography breakdowns (Fig. 4, Tables I and II), and
//!    origin-group rate series (Fig. 6). The merge-order-independent
//!    analyses are additionally ported to the parallel analysis engine as
//!    [`sinks`] (one worker per monitor chain, no k-way merge; see
//!    [`AnalysisSink`]); the in-memory functions over an already-flagged
//!    trace stay as the reference the sinks are tested against.
//! 4. **Privacy attacks** ([`attacks`]) — IDW, TNW, TPI and the gateway
//!    probing methodology of Sec. VI.
//! 5. **Continuous monitoring** ([`windowed`], [`service`]) — the same
//!    analyses over event-time windows ([`windowed`] adapts the
//!    accumulators to `WindowedSink`), and [`service::MonitorService`],
//!    the long-running loop tying crash recovery, resumed collection,
//!    incremental tailing, and windowed analysis into one restart-proof
//!    process with exactly-once window output.
//!
//! Data is fed in from the bundled network simulator (`ipfs-mon-node`, via
//! [`monitor::MonitorCollector`]), live or through a dataset written to disk.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod activity;
pub mod attacks;
pub mod countermeasures;
pub mod monitor;
pub mod netsize;
pub mod popularity;
pub mod preprocess;
pub mod service;
pub mod sinks;
pub mod trace;
pub mod window_log;
pub mod windowed;

pub use activity::{
    country_shares, multicodec_shares, origin_group_rates, per_peer_request_counts,
    request_type_series, OriginGroupRates, RequestTypeSeries,
};
pub use attacks::{
    gateway_nodes_by_operator, identify_data_wanters, run_attacks_source, test_past_interest,
    track_node_wants, AttackScan, AttackSuiteReport, AttackTargets, GatewayProbe,
    GatewayProbeResult, GatewayProber, NodeWantProfile, TpiOutcome, WanterObservation,
};
pub use countermeasures::{
    apply as apply_countermeasure, evaluate as evaluate_countermeasure, Countermeasure,
    CountermeasureEvaluation, MitigatedTrace,
};
pub use monitor::{ManifestCollector, MonitorCollector};
pub use netsize::{
    coverage, estimate_network_size, estimate_network_size_source, peer_id_positions,
    CoverageReport, NetworkSizeReport, PeerSetSnapshot, SnapshotBuilder,
};
pub use popularity::{popularity_report, popularity_scores, PopularityReport, PopularityScores};
pub use preprocess::{
    flag_entries, flag_source, unify_and_flag, unify_and_flag_source, FlaggedStream,
    PreprocessConfig, PreprocessStats, StreamingPreprocessor,
};
pub use service::{
    format_window_line, MonitorService, ServiceConfig, ServiceReport, ServiceWindowAccum,
    WindowSummary,
};
pub use sinks::{
    ActivityCounts, ActivityCountsSink, EntryStatsSink, MonitorEntryStats, PopularitySink,
    RequestTypeSink,
};
pub use trace::{
    ConnectionRecord, EntryFlags, MonitoringDataset, TraceEntry, TraceSource, UnifiedTrace,
};
pub use window_log::{read_window_log, window_file_name, WINDOW_DIR_NAME, WINDOW_LOG_NAME};
pub use windowed::{
    netsize_window_factory, popularity_window_factory, request_type_window_factory,
    windowed_netsize, windowed_popularity, windowed_request_types,
};
// The parallel-analysis engine primitives live in `ipfs-mon-tracestore`
// (below this crate in the dependency order, so that
// `ManifestReader::run_parallel` can name the trait); this crate re-exports
// them as the methodology-layer API next to the sinks implementing them.
pub use ipfs_mon_tracestore::{run_sink, AnalysisSink};
