//! DHT crawler.
//!
//! The paper compares its monitoring-based network size estimates against the
//! crawler from the authors' earlier work ("Crawling the IPFS network" /
//! "Mapping the Interplanetary Filesystem"). The crawler walks the DHT by
//! repeatedly asking responsive DHT servers for the contents of their
//! k-buckets and transitively visiting every peer it learns about.
//!
//! Its visibility differs from the passive monitor's in two characteristic
//! ways that Sec. V-C discusses:
//!
//! * it **counts stale entries** — peers referenced in buckets that are in
//!   fact offline or unreachable are still "found" by the crawl, inflating the
//!   count; and
//! * it **cannot see DHT clients** — client-mode nodes are never inserted into
//!   k-buckets, so an arbitrarily large client population is invisible to it.
//!
//! The [`Crawler`] reproduces both biases, so the experiment harness can
//! regenerate the paper's monitor-vs-crawler comparison.

use crate::view::DhtView;
use ipfs_mon_types::PeerId;
use std::collections::{HashSet, VecDeque};

/// Result of one crawl of the DHT.
#[derive(Debug, Clone, Default)]
pub struct CrawlResult {
    /// Every peer ID that appeared in any queried routing table (plus the
    /// bootstrap peers). Includes stale/offline entries.
    pub discovered: HashSet<PeerId>,
    /// Peers that were successfully queried (responsive DHT servers).
    pub responded: HashSet<PeerId>,
    /// Peers that were contacted but did not respond (offline, NAT-ed, or
    /// client-mode peers that should never have been in a bucket).
    pub unresponsive: HashSet<PeerId>,
    /// Number of routing-table queries issued.
    pub queries: u64,
}

impl CrawlResult {
    /// The crawler's network size estimate: every discovered peer, whether or
    /// not it responded (this is how the paper's crawler counts).
    pub fn discovered_count(&self) -> usize {
        self.discovered.len()
    }

    /// Only the peers that actually answered.
    pub fn responsive_count(&self) -> usize {
        self.responded.len()
    }
}

/// Configuration of a crawl.
#[derive(Debug, Clone, Copy)]
pub struct CrawlerConfig {
    /// Upper bound on routing-table queries per crawl, to bound work on very
    /// large simulated networks.
    pub max_queries: u64,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        Self {
            max_queries: 1_000_000,
        }
    }
}

/// A breadth-first DHT crawler.
#[derive(Debug, Clone, Default)]
pub struct Crawler {
    config: CrawlerConfig,
}

impl Crawler {
    /// Creates a crawler with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a crawler with a custom configuration.
    pub fn with_config(config: CrawlerConfig) -> Self {
        Self { config }
    }

    /// Crawls the DHT reachable from `bootstrap` peers.
    pub fn crawl<V: DhtView>(&self, view: &V, bootstrap: &[PeerId]) -> CrawlResult {
        let mut result = CrawlResult::default();
        let mut queue: VecDeque<PeerId> = VecDeque::new();
        let mut enqueued: HashSet<PeerId> = HashSet::new();

        for &peer in bootstrap {
            if enqueued.insert(peer) {
                queue.push_back(peer);
                result.discovered.insert(peer);
            }
        }

        while let Some(peer) = queue.pop_front() {
            if result.queries >= self.config.max_queries {
                break;
            }
            result.queries += 1;
            match view.bucket_entries(&peer) {
                Some(entries) => {
                    result.responded.insert(peer);
                    for entry in entries {
                        result.discovered.insert(entry);
                        if enqueued.insert(entry) {
                            queue.push_back(entry);
                        }
                    }
                }
                None => {
                    result.unresponsive.insert(peer);
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing_table::RoutingTable;
    use crate::view::StaticView;

    fn pid(n: u64) -> PeerId {
        PeerId::derived(21, n)
    }

    /// A connected ring-ish network of `n` servers where server i knows
    /// servers i±1..=i±5, plus `clients` DHT clients that appear in nobody's
    /// buckets, plus `stale` IDs referenced in buckets but offline.
    fn build_network(n: u64, clients: u64, stale: u64) -> (StaticView, Vec<PeerId>) {
        let server_ids: Vec<PeerId> = (0..n).map(pid).collect();
        let stale_ids: Vec<PeerId> = (0..stale).map(|i| pid(1_000_000 + i)).collect();
        let mut view = StaticView::new();
        for (i, &id) in server_ids.iter().enumerate() {
            let mut table = RoutingTable::with_default_k(id);
            for d in 1..=5u64 {
                table.insert(server_ids[((i as u64 + d) % n) as usize], true);
                table.insert(server_ids[((i as u64 + n - d) % n) as usize], true);
            }
            // Sprinkle stale references into the first few servers' tables.
            if i < stale as usize {
                table.insert(stale_ids[i], true);
            }
            view.add_peer(table, true, true);
        }
        // Clients: responsive but client-mode, with empty tables; they never
        // appear in any server's buckets.
        for c in 0..clients {
            let id = pid(2_000_000 + c);
            view.add_peer(RoutingTable::with_default_k(id), false, true);
        }
        // Stale peers exist as unreachable servers.
        for &id in &stale_ids {
            view.add_peer(RoutingTable::with_default_k(id), true, false);
        }
        (view, server_ids)
    }

    #[test]
    fn crawl_discovers_all_connected_servers() {
        let (view, servers) = build_network(200, 0, 0);
        let result = Crawler::new().crawl(&view, &servers[..2]);
        assert_eq!(result.discovered_count(), 200);
        assert_eq!(result.responsive_count(), 200);
        assert!(result.queries >= 200);
    }

    #[test]
    fn crawl_counts_stale_entries_but_they_do_not_respond() {
        let (view, servers) = build_network(100, 0, 10);
        let result = Crawler::new().crawl(&view, &servers[..2]);
        assert_eq!(result.discovered_count(), 110, "stale entries are counted");
        assert_eq!(result.responsive_count(), 100);
        assert_eq!(result.unresponsive.len(), 10);
    }

    #[test]
    fn crawl_misses_dht_clients() {
        let (view, servers) = build_network(100, 50, 0);
        let result = Crawler::new().crawl(&view, &servers[..2]);
        // The 50 clients answer too, but the crawl can only ever see the 100
        // servers.
        let clients: Vec<PeerId> = (0..50).map(|c| pid(2_000_000 + c)).collect();
        assert!(clients
            .iter()
            .all(|id| view.is_responsive(id) && !view.is_server(id)));
        assert_eq!(result.discovered_count(), 100);
    }

    #[test]
    fn empty_bootstrap_yields_empty_crawl() {
        let (view, _) = build_network(10, 0, 0);
        let result = Crawler::new().crawl(&view, &[]);
        assert_eq!(result.discovered_count(), 0);
        assert_eq!(result.queries, 0);
    }

    #[test]
    fn max_queries_bounds_the_crawl() {
        let (view, servers) = build_network(500, 0, 0);
        let crawler = Crawler::with_config(CrawlerConfig { max_queries: 50 });
        let result = crawler.crawl(&view, &servers[..2]);
        assert!(result.queries <= 50);
        assert!(result.discovered_count() < 500);
    }

    #[test]
    fn unresponsive_bootstrap_is_still_discovered() {
        let (mut view, servers) = build_network(20, 0, 0);
        view.set_responsive(&servers[0], false);
        let result = Crawler::new().crawl(&view, &servers[..2]);
        assert!(result.discovered.contains(&servers[0]));
        assert!(result.unresponsive.contains(&servers[0]));
    }
}
