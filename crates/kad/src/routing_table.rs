//! Kademlia routing table (k-buckets).
//!
//! Every DHT server keeps up to `k` peers per distance bucket. The routing
//! table matters to the monitoring study in two ways: the DHT crawler
//! enumerates the network by asking servers for the contents of their buckets,
//! and DHT clients are *absent* from other nodes' buckets, which is exactly
//! why crawling under-counts the network while passive monitoring does not.

use ipfs_mon_types::peer_id::{PeerId, PEER_ID_BITS};

/// Default replication parameter (bucket capacity) used by IPFS.
pub const DEFAULT_K: usize = 20;

/// An entry in a k-bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketEntry {
    /// The peer occupying the slot.
    pub peer: PeerId,
    /// Whether the peer advertised itself as a DHT server when it was added.
    /// Kubo only inserts server-mode peers, but stale entries may correspond
    /// to peers that have since gone offline.
    pub is_server: bool,
}

/// A Kademlia routing table for one local peer.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    local: PeerId,
    k: usize,
    buckets: Vec<Vec<BucketEntry>>,
}

impl RoutingTable {
    /// Creates an empty routing table for `local` with bucket capacity `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(local: PeerId, k: usize) -> Self {
        assert!(k > 0, "bucket capacity must be positive");
        Self {
            local,
            k,
            buckets: vec![Vec::new(); PEER_ID_BITS],
        }
    }

    /// Creates a routing table with the IPFS default `k = 20`.
    pub fn with_default_k(local: PeerId) -> Self {
        Self::new(local, DEFAULT_K)
    }

    /// The local peer this table belongs to.
    pub fn local(&self) -> PeerId {
        self.local
    }

    /// The bucket capacity.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of peers stored.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }

    /// Returns true if no peers are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns true if `peer` is present.
    pub fn contains(&self, peer: &PeerId) -> bool {
        self.local
            .bucket_index(peer)
            .map(|idx| self.buckets[idx].iter().any(|e| e.peer == *peer))
            .unwrap_or(false)
    }

    /// Attempts to insert a peer. Follows the standard Kademlia rule: if the
    /// bucket is full the new peer is dropped (no eviction ping in the
    /// simulation). The local peer itself is never inserted.
    ///
    /// Returns true if the peer was inserted (or refreshed).
    pub fn insert(&mut self, peer: PeerId, is_server: bool) -> bool {
        let Some(idx) = self.local.bucket_index(&peer) else {
            return false; // peer == local
        };
        let bucket = &mut self.buckets[idx];
        if let Some(existing) = bucket.iter_mut().find(|e| e.peer == peer) {
            existing.is_server = is_server;
            return true;
        }
        if bucket.len() >= self.k {
            return false;
        }
        bucket.push(BucketEntry { peer, is_server });
        true
    }

    /// Removes a peer, returning true if it was present.
    pub fn remove(&mut self, peer: &PeerId) -> bool {
        let Some(idx) = self.local.bucket_index(peer) else {
            return false;
        };
        let bucket = &mut self.buckets[idx];
        let before = bucket.len();
        bucket.retain(|e| e.peer != *peer);
        bucket.len() != before
    }

    /// All stored peers, bucket by bucket (no particular global order).
    pub fn entries(&self) -> impl Iterator<Item = &BucketEntry> {
        self.buckets.iter().flatten()
    }

    /// All stored peer IDs.
    pub fn peers(&self) -> Vec<PeerId> {
        self.entries().map(|e| e.peer).collect()
    }

    /// Number of peers in the bucket with the given index (0..256).
    pub fn bucket_len(&self, index: usize) -> usize {
        self.buckets.get(index).map(Vec::len).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pid(n: u64) -> PeerId {
        PeerId::derived(0xBEEF, n)
    }

    #[test]
    fn insert_and_contains() {
        let mut rt = RoutingTable::with_default_k(pid(0));
        assert!(rt.insert(pid(1), true));
        assert!(rt.contains(&pid(1)));
        assert!(!rt.contains(&pid(2)));
        assert_eq!(rt.len(), 1);
    }

    #[test]
    fn local_peer_is_never_inserted() {
        let mut rt = RoutingTable::with_default_k(pid(0));
        assert!(!rt.insert(pid(0), true));
        assert!(rt.is_empty());
    }

    #[test]
    fn reinsert_refreshes_server_flag() {
        let mut rt = RoutingTable::with_default_k(pid(0));
        rt.insert(pid(1), true);
        rt.insert(pid(1), false);
        assert_eq!(rt.len(), 1);
        assert!(!rt.entries().next().unwrap().is_server);
    }

    #[test]
    fn bucket_capacity_is_enforced() {
        // Craft peers that all land in the same bucket relative to `local`
        // (IDs sharing a long common prefix with each other but not with
        // local). Easiest: use k=2 and insert many random peers, then check
        // every bucket is within capacity.
        let mut rt = RoutingTable::new(pid(0), 2);
        for i in 1..500u64 {
            rt.insert(pid(i), true);
        }
        for idx in 0..PEER_ID_BITS {
            assert!(rt.bucket_len(idx) <= 2, "bucket {idx} over capacity");
        }
        assert!(rt.len() < 499, "some inserts must have been dropped");
    }

    #[test]
    fn remove_works() {
        let mut rt = RoutingTable::with_default_k(pid(0));
        rt.insert(pid(1), true);
        assert!(rt.remove(&pid(1)));
        assert!(!rt.remove(&pid(1)));
        assert!(rt.is_empty());
    }

    #[test]
    #[should_panic(expected = "bucket capacity must be positive")]
    fn zero_k_panics() {
        RoutingTable::new(pid(0), 0);
    }

    proptest! {
        #[test]
        fn len_matches_distinct_inserts(ids in proptest::collection::vec(1u64..5000, 0..300)) {
            let mut rt = RoutingTable::with_default_k(pid(0));
            let mut inserted = std::collections::HashSet::new();
            for &i in &ids {
                if rt.insert(pid(i), true) {
                    inserted.insert(i);
                }
            }
            prop_assert_eq!(rt.len(), inserted.len());
            for &i in &inserted {
                prop_assert!(rt.contains(&pid(i)));
            }
        }
    }
}
