//! Abstraction over "what a DHT query can see".
//!
//! The crawler does not own the network; it queries it. [`DhtView`] is the
//! minimal interface it needs: which peers exist, whether a peer answers DHT
//! queries (server mode, online, reachable), and what its routing table
//! contains. The full node simulation in `ipfs-mon-node` implements this
//! trait; tests use the in-memory [`StaticView`].

use crate::routing_table::RoutingTable;
use ipfs_mon_types::PeerId;
use std::collections::HashMap;

/// Read-only view of the DHT as seen by queries.
pub trait DhtView {
    /// Returns true if `peer` is a DHT server (as opposed to a client).
    fn is_server(&self, peer: &PeerId) -> bool;

    /// Returns true if `peer` currently answers queries: it is online and
    /// reachable from the Internet. Offline or NAT-ed peers may still appear
    /// in other peers' buckets (the crawler counts them but cannot query
    /// them), mirroring the bias discussed in Sec. V-C of the paper.
    fn is_responsive(&self, peer: &PeerId) -> bool;

    /// The peers stored in `peer`'s routing table, if `peer` is responsive.
    fn bucket_entries(&self, peer: &PeerId) -> Option<Vec<PeerId>>;
}

/// A fixed, in-memory DHT view for tests and self-contained experiments.
#[derive(Debug, Default, Clone)]
pub struct StaticView {
    tables: HashMap<PeerId, RoutingTable>,
    servers: HashMap<PeerId, bool>,
    responsive: HashMap<PeerId, bool>,
}

impl StaticView {
    /// Creates an empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a peer with its routing table.
    pub fn add_peer(&mut self, table: RoutingTable, is_server: bool, responsive: bool) {
        let id = table.local();
        self.tables.insert(id, table);
        self.servers.insert(id, is_server);
        self.responsive.insert(id, responsive);
    }

    /// Marks a peer (not) responsive, e.g. to simulate it going offline
    /// between being referenced in buckets and being crawled.
    pub fn set_responsive(&mut self, peer: &PeerId, responsive: bool) {
        self.responsive.insert(*peer, responsive);
    }
}

impl DhtView for StaticView {
    fn is_server(&self, peer: &PeerId) -> bool {
        self.servers.get(peer).copied().unwrap_or(false)
    }

    fn is_responsive(&self, peer: &PeerId) -> bool {
        self.responsive.get(peer).copied().unwrap_or(false)
    }

    fn bucket_entries(&self, peer: &PeerId) -> Option<Vec<PeerId>> {
        if !self.is_responsive(peer) || !self.is_server(peer) {
            return None;
        }
        self.tables.get(peer).map(|t| t.peers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> PeerId {
        PeerId::derived(3, n)
    }

    #[test]
    fn static_view_reports_registered_peers() {
        let mut view = StaticView::new();
        let mut table = RoutingTable::with_default_k(pid(0));
        table.insert(pid(1), true);
        table.insert(pid(2), true);
        view.add_peer(table, true, true);

        assert!(view.is_server(&pid(0)));
        assert!(view.is_responsive(&pid(0)));
        let entries = view.bucket_entries(&pid(0)).unwrap();
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn unresponsive_or_client_peers_do_not_answer() {
        let mut view = StaticView::new();
        view.add_peer(RoutingTable::with_default_k(pid(0)), true, false);
        view.add_peer(RoutingTable::with_default_k(pid(1)), false, true);
        assert!(view.bucket_entries(&pid(0)).is_none(), "offline server");
        assert!(view.bucket_entries(&pid(1)).is_none(), "client");
        assert!(view.bucket_entries(&pid(9)).is_none(), "unknown peer");
    }
}
