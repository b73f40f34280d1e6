//! The local block store: caching and garbage collection.
//!
//! IPFS nodes cache every block they download (up to a configurable limit,
//! 10 GB by default) and serve cached blocks to other peers. This cooperative
//! caching is both a cornerstone of IPFS' scalability and the enabler of the
//! paper's "Testing for Past Interests" (TPI) attack: whether a node answers a
//! request for a CID reveals whether it recently downloaded that CID.
//!
//! The store is an LRU index of the CIDs a node holds: each carries its
//! block's logical size and its last access time, and nothing reads a
//! payload back. Blocks are evicted least-recently-used (ties broken by CID)
//! when the store exceeds its capacity.

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
    /// Logical size and last access time of every held block.
    held: HashMap<Cid, (u64, SimTime)>,
    total_size: u64,
}

impl Blockstore {
    /// Creates an empty store holding at most `capacity` bytes of blocks.
    pub fn with_capacity(capacity: u64) -> Self {
        Self {
            capacity,
            held: HashMap::new(),
            total_size: 0,
        }
    }

    /// Inserts a block (idempotent; a repeat put refreshes its LRU time) and
    /// evicts if the capacity is exceeded.
    pub fn put(&mut self, block: &Block, now: SimTime) {
        if let Some((_, last_access)) = self.held.get_mut(block.cid()) {
            *last_access = now;
            return;
        }
        self.total_size += block.logical_size();
        self.held
            .insert(block.cid().clone(), (block.logical_size(), now));
        if self.total_size > self.capacity {
            self.evict_lru();
        }
    }

    /// Presence check.
    pub fn contains(&self, cid: &Cid) -> bool {
        self.held.contains_key(cid)
    }

    /// Evicts blocks in ascending `(last access, CID)` order until the store
    /// fits within capacity again.
    fn evict_lru(&mut self) {
        let mut candidates: Vec<(SimTime, Cid)> = self
            .held
            .iter()
            .map(|(cid, &(_, last_access))| (last_access, cid.clone()))
            .collect();
        candidates.sort();
        for (_, cid) in candidates {
            if self.total_size <= self.capacity {
                break;
            }
            let (size, _) = self.held.remove(&cid).expect("candidate is held");
            self.total_size -= size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipfs_mon_types::Multicodec;
    use proptest::prelude::*;

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
        store.put(&block, t(0));
        assert!(store.contains(block.cid()));
        assert!(!store.contains(&Cid::new_v1(Multicodec::Raw, b"nope")));
        assert_eq!(store.held.len(), 1);
        assert_eq!(store.total_size, 4);
    }

    #[test]
    fn duplicate_put_does_not_double_count() {
        let mut store = Blockstore::with_capacity(DEFAULT_CAPACITY);
        let block = synthetic(1, 100);
        store.put(&block, t(0));
        store.put(&block, t(1));
        assert_eq!(store.held.len(), 1);
        assert_eq!(store.total_size, 100);
    }

    #[test]
    fn evicts_least_recently_used_block() {
        let mut store = Blockstore::with_capacity(250);
        let a = synthetic(1, 100);
        let b = synthetic(2, 100);
        let c = synthetic(3, 100);
        store.put(&a, t(0));
        store.put(&b, t(1));
        // Touch `a` so `b` becomes the LRU block.
        store.put(&a, t(2));
        store.put(&c, t(3));
        assert!(store.contains(a.cid()), "recently used survives");
        assert!(!store.contains(b.cid()), "LRU block evicted");
        assert!(store.contains(c.cid()));
        assert_eq!(store.total_size, 200);
    }

    /// The brute-force model: every held block with its size and last
    /// access, evicting the least `(last access, CID)` one at a time.
    #[derive(Default)]
    struct LruList {
        held: Vec<(Cid, u64, SimTime)>,
    }

    impl LruList {
        fn put(&mut self, block: &Block, now: SimTime, capacity: u64) {
            if let Some(held) = self.held.iter_mut().find(|(cid, ..)| cid == block.cid()) {
                held.2 = now;
                return;
            }
            self.held
                .push((block.cid().clone(), block.logical_size(), now));
            while self.total_size() > capacity {
                let oldest = (0..self.held.len())
                    .min_by_key(|&i| (self.held[i].2, &self.held[i].0))
                    .expect("over capacity means something is held");
                self.held.remove(oldest);
            }
        }

        fn contains(&self, cid: &Cid) -> bool {
            self.held.iter().any(|(held, ..)| held == cid)
        }

        fn total_size(&self) -> u64 {
            self.held.iter().map(|&(_, size, _)| size).sum()
        }
    }

    proptest! {
        /// `put`, `contains`, the size accounting and the eviction order
        /// agree with the model over random operations on at most 8 CIDs.
        /// Time advances by 0 or 1 s per operation, so many blocks share a
        /// last access time and eviction falls to the CID tiebreak.
        #[test]
        fn store_matches_a_brute_force_lru_list(
            sizes in proptest::collection::vec(50u64..=150, 8..9),
            capacity_blocks in 2u64..=4,
            ops in proptest::collection::vec((any::<bool>(), 0usize..8, 0u64..=1), 1..64),
        ) {
            let blocks: Vec<Block> = (0u8..)
                .zip(&sizes)
                .map(|(n, &size)| synthetic(n, size))
                .collect();
            let capacity = capacity_blocks * 100;
            let mut store = Blockstore::with_capacity(capacity);
            let mut model = LruList::default();
            let mut now = 0;
            for (is_put, index, step) in ops {
                now += step;
                let block = &blocks[index];
                if is_put {
                    store.put(block, t(now));
                    model.put(block, t(now), capacity);
                } else {
                    prop_assert_eq!(store.contains(block.cid()), model.contains(block.cid()));
                }
                prop_assert_eq!(store.total_size, model.total_size());
                prop_assert!(store.total_size <= capacity);
                for block in &blocks {
                    prop_assert_eq!(store.contains(block.cid()), model.contains(block.cid()));
                }
            }
        }
    }
}
