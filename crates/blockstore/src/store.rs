//! The local block store: caching and garbage collection.
//!
//! IPFS nodes cache every block they download (up to a configurable limit,
//! 10 GB by default) and serve cached blocks to other peers. This cooperative
//! caching is both a cornerstone of IPFS' scalability and the enabler of the
//! paper's "Testing for Past Interests" (TPI) attack: whether a node answers a
//! request for a CID reveals whether it recently downloaded that CID.
//!
//! Blocks are evicted least-recently-used when the store exceeds its
//! capacity.

use crate::block::Block;
use ipfs_mon_simnet::time::SimTime;
use ipfs_mon_types::Cid;
use std::collections::HashMap;

/// Default cache capacity used by kubo (10 GB).
pub const DEFAULT_CAPACITY: u64 = 10 * 1024 * 1024 * 1024;

/// A node's local block store.
#[derive(Debug, Clone)]
pub struct Blockstore {
    /// Maximum total logical size of the stored blocks before eviction runs.
    capacity: u64,
    blocks: HashMap<Cid, Block>,
    /// Last access time per block, for LRU eviction.
    last_access: HashMap<Cid, SimTime>,
    total_size: u64,
}

impl Blockstore {
    /// Creates an empty store holding at most `capacity` bytes of blocks.
    pub fn with_capacity(capacity: u64) -> Self {
        Self {
            capacity,
            blocks: HashMap::new(),
            last_access: HashMap::new(),
            total_size: 0,
        }
    }

    /// Inserts a block (idempotent; a repeat put refreshes its LRU time) and
    /// evicts if the capacity is exceeded.
    pub fn put(&mut self, block: Block, now: SimTime) {
        let cid = block.cid().clone();
        if self.blocks.contains_key(&cid) {
            self.last_access.insert(cid, now);
            return;
        }
        self.total_size += block.logical_size();
        self.blocks.insert(cid.clone(), block);
        self.last_access.insert(cid, now);
        if self.total_size > self.capacity {
            self.evict_lru();
        }
    }

    /// Presence check.
    pub fn contains(&self, cid: &Cid) -> bool {
        self.blocks.contains_key(cid)
    }

    fn remove(&mut self, cid: &Cid) -> bool {
        if let Some(block) = self.blocks.remove(cid) {
            self.total_size -= block.logical_size();
            self.last_access.remove(cid);
            true
        } else {
            false
        }
    }

    /// Evicts least-recently-used blocks until the store fits within capacity
    /// again.
    fn evict_lru(&mut self) {
        // Oldest access first.
        let mut candidates: Vec<(SimTime, Cid)> = self
            .blocks
            .keys()
            .map(|cid| {
                (
                    self.last_access.get(cid).copied().unwrap_or(SimTime::ZERO),
                    cid.clone(),
                )
            })
            .collect();
        candidates.sort();
        for (_, cid) in candidates {
            if self.total_size <= self.capacity {
                break;
            }
            self.remove(&cid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipfs_mon_types::Multicodec;

    fn synthetic(n: u8, size: u64) -> Block {
        Block::synthetic(Multicodec::Raw, vec![n, n, n], size)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn put_then_contains() {
        let mut store = Blockstore::with_capacity(DEFAULT_CAPACITY);
        let block = Block::new(Multicodec::Raw, b"data".to_vec());
        assert!(!store.contains(block.cid()));
        store.put(block.clone(), t(0));
        assert!(store.contains(block.cid()));
        assert!(!store.contains(&Cid::new_v1(Multicodec::Raw, b"nope")));
        assert_eq!(store.blocks.len(), 1);
        assert_eq!(store.total_size, 4);
    }

    #[test]
    fn duplicate_put_does_not_double_count() {
        let mut store = Blockstore::with_capacity(DEFAULT_CAPACITY);
        let block = synthetic(1, 100);
        store.put(block.clone(), t(0));
        store.put(block, t(1));
        assert_eq!(store.blocks.len(), 1);
        assert_eq!(store.total_size, 100);
    }

    #[test]
    fn evicts_least_recently_used_block() {
        let mut store = Blockstore::with_capacity(250);
        let a = synthetic(1, 100);
        let b = synthetic(2, 100);
        let c = synthetic(3, 100);
        store.put(a.clone(), t(0));
        store.put(b.clone(), t(1));
        // Touch `a` so `b` becomes the LRU block.
        store.put(a.clone(), t(2));
        store.put(c.clone(), t(3));
        assert!(store.contains(a.cid()), "recently used survives");
        assert!(!store.contains(b.cid()), "LRU block evicted");
        assert!(store.contains(c.cid()));
        assert_eq!(store.total_size, 200);
    }

    #[test]
    fn remove_updates_size() {
        let mut store = Blockstore::with_capacity(DEFAULT_CAPACITY);
        let block = synthetic(1, 77);
        let cid = block.cid().clone();
        store.put(block, t(0));
        assert!(store.remove(&cid));
        assert!(!store.remove(&cid));
        assert_eq!(store.total_size, 0);
        assert!(store.blocks.is_empty());
        assert!(store.last_access.is_empty());
    }
}
