//! The scenario-immutable half of a [`Network`](super::Network).
//!
//! Everything a run never mutates is gathered here: the [`Scenario`] itself,
//! the derived node and monitor identities, the DHT routing tables (built on
//! the first crawl, since nothing else reads them), the precomputed latency
//! table, and the base generator the per-node observation RNG streams derive
//! from. The state half of the handlers and the observer both read it by
//! shared reference.
//!
//! The only writer is the pre-run scenario editor `add_content` (probe
//! tooling appends content to a built network).

use crate::spec::Scenario;
use ipfs_mon_kad::RoutingTable;
use ipfs_mon_simnet::region::LatencyTable;
use ipfs_mon_simnet::rng::SimRng;
use ipfs_mon_types::{Cid, Multiaddr, PeerId};
use rand::Rng;
use std::collections::HashMap;
use std::sync::OnceLock;

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
    /// Routing tables of DHT-server nodes (node index → table), built by
    /// the first [`ScenarioCore::routing_tables`] call.
    pub(super) routing_tables: OnceLock<HashMap<usize, RoutingTable>>,
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

    /// The routing tables of the DHT servers: each server knows a random
    /// set of other servers (clients are never inserted — the crawler
    /// bias), drawn from the scenario's `routing-tables` stream on the first
    /// call.
    pub(super) fn routing_tables(&self) -> &HashMap<usize, RoutingTable> {
        self.routing_tables.get_or_init(|| {
            let mut table_rng = SimRng::new(self.scenario.seed).derive("routing-tables");
            let server_indices: Vec<usize> = (0..self.scenario.nodes.len())
                .filter(|&i| self.scenario.nodes[i].config.dht_mode.is_server())
                .collect();
            let neighbour_target = 150.min(server_indices.len().saturating_sub(1));
            let mut routing_tables = HashMap::new();
            for &i in &server_indices {
                let mut table = RoutingTable::with_default_k(self.node_peers[i]);
                let mut inserted = 0;
                let mut attempts = 0;
                while inserted < neighbour_target && attempts < neighbour_target * 8 {
                    attempts += 1;
                    let j = server_indices[table_rng.gen_range(0..server_indices.len())];
                    if j != i && table.insert(self.node_peers[j], true) {
                        inserted += 1;
                    }
                }
                routing_tables.insert(i, table);
            }
            routing_tables
        })
    }
}
