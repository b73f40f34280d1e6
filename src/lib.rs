//! # ipfs-monitoring
//!
//! Workspace facade for the reproduction of *"Monitoring Data Requests in
//! Decentralized Data Storage Systems: A Case Study of IPFS"* (ICDCS 2022).
//!
//! The facade re-exports every workspace crate under a short module name so
//! that examples and downstream users can depend on a single crate:
//!
//! * [`types`] — peer IDs, CIDs, multihashes, multicodecs, multiaddrs,
//! * [`obs`] — the runtime observability layer: lock-free counters, gauges
//!   and log2 histograms, stage-timing spans, and the JSONL heartbeat
//!   reporter (`docs/OBSERVABILITY.md`),
//! * [`simnet`] — deterministic discrete-event simulation kernel,
//! * [`kad`] — Kademlia k-buckets and the DHT crawler baseline,
//! * [`bitswap`] — Bitswap request types and protocol generations,
//! * [`blockstore`] — blocks, Merkle DAGs and the local LRU block cache,
//! * [`node`] — the full node/network model (scenarios, gateways, monitors'
//!   observation stream),
//! * [`workload`] — scenario/workload generation,
//! * [`analysis`] — statistics (ECDF, power-law tests, size estimators),
//! * [`tracestore`] — the trace data model plus append-only columnar segment
//!   storage: a sharded writer, per-monitor rotating segment chains under a
//!   manifest (thread-parallel ingestion), constant-memory streaming readers,
//!   and the `TraceSource` trait unifying in-memory and on-disk traces,
//! * [`core`] — the monitoring methodology itself: trace collection,
//!   preprocessing, analyses and privacy attacks.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use ipfs_mon_analysis as analysis;
pub use ipfs_mon_bitswap as bitswap;
pub use ipfs_mon_blockstore as blockstore;
pub use ipfs_mon_core as core;
pub use ipfs_mon_kad as kad;
pub use ipfs_mon_node as node;
pub use ipfs_mon_obs as obs;
pub use ipfs_mon_simnet as simnet;
pub use ipfs_mon_tracestore as tracestore;
pub use ipfs_mon_types as types;
pub use ipfs_mon_workload as workload;
