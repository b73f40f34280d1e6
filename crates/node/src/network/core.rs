//! The scenario-immutable half of a [`Network`](super::Network).
//!
//! Everything a run never mutates is gathered here: the [`Scenario`] itself,
//! the derived node and monitor identities, the DHT routing tables, the
//! precomputed latency table, and the base generator the per-node
//! observation RNG streams derive from. The state half of the handlers and
//! the observer both read it by shared reference.
//!
//! The only writer is the pre-run scenario editor `add_content` (probe
//! tooling appends content to a built network).

use crate::spec::Scenario;
use ipfs_mon_kad::RoutingTable;
use ipfs_mon_simnet::region::LatencyTable;
use ipfs_mon_simnet::rng::SimRng;
use ipfs_mon_types::{Cid, Multiaddr, PeerId};
use std::collections::HashMap;

/// Scenario-immutable state of a run.
#[derive(Debug)]
pub(super) struct ScenarioCore {
    /// The scenario this network was built from. Content may be appended
    /// before a run starts (probe tooling); nothing is mutated during one.
    pub(super) scenario: Scenario,
    /// Peer ID of each node, derived from the experiment seed.
    pub(super) node_peers: Vec<PeerId>,
    /// Transport address of each node.
    pub(super) node_addrs: Vec<Multiaddr>,
    /// Peer ID of each monitor.
    pub(super) monitor_ids: Vec<PeerId>,
    /// Transport address of each monitor.
    pub(super) monitor_addrs: Vec<Multiaddr>,
    /// Root CID → content index (for cache probes and attack tooling).
    pub(super) root_index: HashMap<Cid, usize>,
    /// Routing tables of DHT-server nodes (node index → table), built once.
    pub(super) routing_tables: HashMap<usize, RoutingTable>,
    /// Peer ID → node index.
    pub(super) peer_index: HashMap<PeerId, usize>,
    /// Flat country×country latency table precomputed from
    /// `scenario.params.latency` — the handler hot path indexes it instead of
    /// re-deriving the country-pair mean per sample.
    pub(super) latency: LatencyTable,
    /// Base generator of the per-node observation streams; node `i` draws
    /// from `obs_base.derive_indexed("node", i)`, created lazily on first
    /// use.
    pub(super) obs_base: SimRng,
}

impl ScenarioCore {
    /// Number of monitors.
    #[inline]
    pub(super) fn monitor_count(&self) -> usize {
        self.monitor_ids.len()
    }

    /// Root CID of content item `index`.
    #[inline]
    pub(super) fn content_root(&self, index: usize) -> &Cid {
        &self.scenario.content[index].dag.root
    }
}
