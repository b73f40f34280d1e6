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
use ipfs_mon_simnet::IndexMap;
use ipfs_mon_types::Cid;

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

/// The HTTP-side cache of one gateway node. Content is named by a `u32` key
/// the caller hands out, one per CID.
#[derive(Debug, Clone)]
pub struct GatewayCache {
    config: GatewayCacheConfig,
    /// Key → last time the content was fetched/validated.
    entries: IndexMap<SimTime>,
}

impl GatewayCache {
    /// Creates a cache with the given configuration.
    pub fn new(config: GatewayCacheConfig) -> Self {
        Self {
            config,
            entries: IndexMap::default(),
        }
    }

    /// Looks up `key` for an HTTP request arriving at `now` and updates the
    /// cache state accordingly. `cid_of` names the CID of a cached key, for
    /// eviction's tiebreak.
    pub fn request<'c>(
        &mut self,
        key: u32,
        now: SimTime,
        cid_of: impl Fn(u32) -> &'c Cid,
    ) -> CacheOutcome {
        match self.entries.get_mut(&key) {
            Some(fetched_at) if now.since(*fetched_at) < self.config.ttl => CacheOutcome::Hit,
            Some(fetched_at) => {
                *fetched_at = now;
                CacheOutcome::Revalidate
            }
            None => {
                self.insert(key, now, cid_of);
                CacheOutcome::Miss
            }
        }
    }

    fn insert<'c>(&mut self, key: u32, now: SimTime, cid_of: impl Fn(u32) -> &'c Cid) {
        if self.entries.len() >= self.config.max_entries {
            // Evict the stalest entry, ties broken by CID so the victim does
            // not depend on the map's iteration order (a linear scan is fine
            // at simulation scale).
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|&(&key, &fetched_at)| (fetched_at, cid_of(key)))
                .map(|(&key, _)| key)
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key, now);
    }

    /// Number of cached CIDs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

    /// Requests `key`, whose CID is `cid(key)`.
    fn request(cache: &mut GatewayCache, key: u8, secs: u64) -> CacheOutcome {
        let cids: Vec<Cid> = (0..=u8::MAX).map(cid).collect();
        cache.request(u32::from(key), SimTime::from_secs(secs), |k| {
            &cids[k as usize]
        })
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
        assert_eq!(request(&mut cache, 1, 0), CacheOutcome::Miss);
        assert_eq!(request(&mut cache, 1, 50), CacheOutcome::Hit);
        assert_eq!(request(&mut cache, 1, 150), CacheOutcome::Revalidate);
        // Revalidation refreshes the TTL.
        assert_eq!(request(&mut cache, 1, 200), CacheOutcome::Hit);
        assert_eq!(cache.len(), 1);
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
        let hits = (0..100)
            .filter(|&secs| request(&mut cache, 1, secs) == CacheOutcome::Hit)
            .count();
        assert_eq!(hits, 99);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut cache = GatewayCache::new(GatewayCacheConfig {
            ttl: SimDuration::from_hours(1),
            max_entries: 10,
        });
        for i in 0..50u8 {
            request(&mut cache, i, u64::from(i));
        }
        assert!(cache.len() <= 10);
    }

    #[test]
    fn eviction_ties_go_to_the_lower_cid() {
        // Two entries fetched at one instant, for every pair of keys in both
        // insertion orders: a third key evicts the lower CID, whatever order
        // the map iterates in.
        for first in 0..8 {
            for second in (0..8).filter(|&k| k != first) {
                let mut cache = GatewayCache::new(GatewayCacheConfig {
                    ttl: SimDuration::from_hours(1),
                    max_entries: 2,
                });
                request(&mut cache, first, 0);
                request(&mut cache, second, 0);
                assert_eq!(request(&mut cache, 100, 1), CacheOutcome::Miss);
                let (low, high) = if cid(first) < cid(second) {
                    (first, second)
                } else {
                    (second, first)
                };
                assert_eq!(request(&mut cache, high, 2), CacheOutcome::Hit);
                assert_eq!(request(&mut cache, low, 2), CacheOutcome::Miss);
            }
        }
    }

    #[test]
    fn operator_groups_nodes() {
        let op = GatewayOperator::new("gw.example.org", vec![3, 5, 9], 0.6);
        assert_eq!(op.node_count(), 3);
        assert!(op.http_functional);
    }
}
