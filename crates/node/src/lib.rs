//! Full IPFS node and network model for the monitoring suite.
//!
//! This crate assembles the substrates (DHT, Bitswap, block store, simulation
//! kernel) into an executable model of an IPFS-like network:
//!
//! * [`config`] — node roles and per-node configuration,
//! * [`version`] — client-version / protocol-upgrade modelling (Fig. 4),
//! * [`gateway`] — the public HTTP/IPFS gateway model (caches, operators),
//! * [`spec`] — declarative scenario descriptions,
//! * [`network`] — the simulator that executes a scenario and streams every
//!   monitor-visible Bitswap entry into a [`network::MonitorSink`].
//!
//! The passive monitoring methodology itself (trace collection, preprocessing,
//! estimators, attacks) lives in `ipfs-mon-core` and consumes the observation
//! stream produced here.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod config;
pub mod counters;
pub mod gateway;
pub mod network;
pub mod spec;
pub mod version;

pub use config::{NodeConfig, NodeRole};
pub use counters::SimCounter;
pub use gateway::{CacheOutcome, GatewayCache, GatewayCacheConfig, GatewayOperator};
pub use network::{
    BitswapObservation, DynWorkloadSource, MonitorSink, Network, NetworkDhtView, RecordingSink,
    RunReport,
};
pub use spec::{
    ContentSpec, GatewayRequestEvent, MonitorSpec, NodeSpec, RequestEvent, Scenario,
    ScenarioParams, WorkloadEvent,
};
pub use version::{AdoptionCurve, UpgradeSchedule};
