//! Public HTTP/IPFS gateway model.
//!
//! Gateways translate HTTP requests into IPFS retrievals. Two properties
//! matter to the paper:
//!
//! * gateways cache aggressively (Cloudflare reports a 97 % hit ratio), so
//!   only cache misses — and TTL-expired revalidations — become Bitswap
//!   requests visible to monitors (Sec. VI-B3);
//! * one well-known gateway operator may run *many* IPFS nodes behind a single
//!   DNS name (the paper found 13 for one operator, 93 gateway node IDs in
//!   total), which the gateway-probing attack enumerates.
//!
//! [`GatewayCache`] models the HTTP-side cache; [`GatewayOperator`] groups the
//! nodes of one operator, mirroring the public gateway list used in Sec. VI-B.

use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_types::Cid;
use std::collections::HashMap;

/// Outcome of an HTTP request hitting the gateway cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from cache; no Bitswap request is generated.
    Hit,
    /// Content cached but its TTL expired; the gateway revalidates, which
    /// triggers a Bitswap request even though the bytes may not be refetched.
    Revalidate,
    /// Not in cache; a full retrieval (and thus a Bitswap request) happens.
    Miss,
}

impl CacheOutcome {
    /// Returns true if this outcome causes Bitswap traffic observable by
    /// monitors.
    pub fn generates_bitswap(self) -> bool {
        !matches!(self, CacheOutcome::Hit)
    }
}

/// Configuration of the gateway's HTTP cache.
#[derive(Debug, Clone, Copy)]
pub struct GatewayCacheConfig {
    /// Time-to-live after which cached content must be revalidated.
    pub ttl: SimDuration,
    /// Maximum number of distinct CIDs kept in the cache.
    pub max_entries: usize,
}

impl Default for GatewayCacheConfig {
    fn default() -> Self {
        Self {
            ttl: SimDuration::from_hours(4),
            max_entries: 500_000,
        }
    }
}

/// The HTTP-side cache of one gateway node.
#[derive(Debug, Clone)]
pub struct GatewayCache {
    config: GatewayCacheConfig,
    /// CID → last time the content was fetched/validated.
    entries: HashMap<Cid, SimTime>,
    hits: u64,
    revalidations: u64,
    misses: u64,
}

impl GatewayCache {
    /// Creates a cache with the given configuration.
    pub fn new(config: GatewayCacheConfig) -> Self {
        Self {
            config,
            entries: HashMap::new(),
            hits: 0,
            revalidations: 0,
            misses: 0,
        }
    }

    /// Looks up `cid` for an HTTP request arriving at `now` and updates the
    /// cache state accordingly.
    pub fn request(&mut self, cid: &Cid, now: SimTime) -> CacheOutcome {
        match self.entries.get(cid) {
            Some(&fetched_at) if now.since(fetched_at) < self.config.ttl => {
                self.hits += 1;
                CacheOutcome::Hit
            }
            Some(_) => {
                self.revalidations += 1;
                self.entries.insert(cid.clone(), now);
                CacheOutcome::Revalidate
            }
            None => {
                self.misses += 1;
                self.insert(cid.clone(), now);
                CacheOutcome::Miss
            }
        }
    }

    fn insert(&mut self, cid: Cid, now: SimTime) {
        if self.entries.len() >= self.config.max_entries {
            // Evict the stalest entry (linear scan is fine at simulation scale).
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, &t)| t)
                .map(|(c, _)| c.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(cid, now);
    }

    /// Number of cached CIDs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fraction of requests served straight from cache.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.revalidations + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// `(hits, revalidations, misses)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.revalidations, self.misses)
    }
}

/// One public gateway operator as it appears on the public gateway list.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayOperator {
    /// DNS-style name of the gateway ("gateway.example.org").
    pub name: String,
    /// Indices (into the scenario's node list) of the IPFS nodes this
    /// operator runs behind the name.
    pub node_indices: Vec<usize>,
    /// Whether the HTTP side is functional. The paper found broken gateways
    /// whose IPFS side still emitted Bitswap messages.
    pub http_functional: bool,
    /// Relative share of overall gateway HTTP traffic this operator receives
    /// (the paper's "Cloudflare" receives the lion's share).
    pub traffic_share: f64,
}

impl GatewayOperator {
    /// Creates a functional operator.
    pub fn new(name: impl Into<String>, node_indices: Vec<usize>, traffic_share: f64) -> Self {
        Self {
            name: name.into(),
            node_indices,
            http_functional: true,
            traffic_share,
        }
    }

    /// Number of IPFS nodes behind the name.
    pub fn node_count(&self) -> usize {
        self.node_indices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipfs_mon_types::Multicodec;

    fn cid(n: u8) -> Cid {
        Cid::new_v1(Multicodec::Raw, &[n])
    }

    fn cache_with_ttl(secs: u64) -> GatewayCache {
        GatewayCache::new(GatewayCacheConfig {
            ttl: SimDuration::from_secs(secs),
            max_entries: 100,
        })
    }

    #[test]
    fn miss_then_hit_then_revalidate() {
        let mut cache = cache_with_ttl(100);
        assert_eq!(
            cache.request(&cid(1), SimTime::from_secs(0)),
            CacheOutcome::Miss
        );
        assert_eq!(
            cache.request(&cid(1), SimTime::from_secs(50)),
            CacheOutcome::Hit
        );
        assert_eq!(
            cache.request(&cid(1), SimTime::from_secs(150)),
            CacheOutcome::Revalidate
        );
        // Revalidation refreshes the TTL.
        assert_eq!(
            cache.request(&cid(1), SimTime::from_secs(200)),
            CacheOutcome::Hit
        );
        assert_eq!(cache.counters(), (2, 1, 1));
    }

    #[test]
    fn bitswap_visibility_per_outcome() {
        assert!(!CacheOutcome::Hit.generates_bitswap());
        assert!(CacheOutcome::Revalidate.generates_bitswap());
        assert!(CacheOutcome::Miss.generates_bitswap());
    }

    #[test]
    fn hit_ratio_converges_for_repeated_requests() {
        let mut cache = cache_with_ttl(1_000_000);
        for i in 0..100 {
            cache.request(&cid(1), SimTime::from_secs(i));
        }
        assert!(cache.hit_ratio() > 0.98);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut cache = GatewayCache::new(GatewayCacheConfig {
            ttl: SimDuration::from_hours(1),
            max_entries: 10,
        });
        for i in 0..50u8 {
            cache.request(&cid(i), SimTime::from_secs(i as u64));
        }
        assert!(cache.len() <= 10);
    }

    #[test]
    fn operator_groups_nodes() {
        let op = GatewayOperator::new("gw.example.org", vec![3, 5, 9], 0.6);
        assert_eq!(op.node_count(), 3);
        assert!(op.http_functional);
    }
}
