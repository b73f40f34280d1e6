//! The local block store: caching and garbage collection.
//!
//! IPFS nodes cache every block they download (up to a configurable limit,
//! 10 GB by default) and serve cached blocks to other peers. This cooperative
//! caching is both a cornerstone of IPFS' scalability and the enabler of the
//! paper's "Testing for Past Interests" (TPI) attack: whether a node answers a
//! request for a CID reveals whether it recently downloaded that CID.
//!
//! The store is an LRU index of the blocks a node holds: each carries its
//! logical size and its last access time, and nothing reads a payload back.
//! A block is named by a `u32` key the caller hands out, one per CID, so a
//! lookup hashes an integer rather than a CID. Blocks are evicted
//! least-recently-used, ties broken by CID, when the store exceeds its
//! capacity.

use ipfs_mon_simnet::time::SimTime;
use ipfs_mon_simnet::IndexMap;
use ipfs_mon_types::Cid;

/// Default cache capacity used by kubo (10 GB).
pub const DEFAULT_CAPACITY: u64 = 10 * 1024 * 1024 * 1024;

/// A node's local block store.
#[derive(Debug, Clone)]
pub struct Blockstore {
    /// Maximum total logical size of the stored blocks before eviction runs.
    capacity: u64,
    /// Logical size and last access time of every held block, by key.
    held: IndexMap<(u64, SimTime)>,
    total_size: u64,
}

impl Blockstore {
    /// Creates an empty store holding at most `capacity` bytes of blocks.
    pub fn with_capacity(capacity: u64) -> Self {
        Self {
            capacity,
            held: IndexMap::default(),
            total_size: 0,
        }
    }

    /// Inserts the block `key` of logical size `size` (idempotent; a repeat
    /// put refreshes its LRU time) and evicts if the capacity is exceeded.
    /// `cid_of` names the CID of a held key, for eviction's tiebreak.
    pub fn put<'c>(&mut self, key: u32, size: u64, now: SimTime, cid_of: impl Fn(u32) -> &'c Cid) {
        if let Some((_, last_access)) = self.held.get_mut(&key) {
            *last_access = now;
            return;
        }
        self.total_size += size;
        self.held.insert(key, (size, now));
        if self.total_size > self.capacity {
            self.evict_lru(cid_of);
        }
    }

    /// Presence check.
    pub fn contains(&self, key: u32) -> bool {
        self.held.contains_key(&key)
    }

    /// Evicts blocks in ascending `(last access, CID)` order until the store
    /// fits within capacity again.
    fn evict_lru<'c>(&mut self, cid_of: impl Fn(u32) -> &'c Cid) {
        let mut candidates: Vec<(SimTime, &Cid, u32)> = self
            .held
            .iter()
            .map(|(&key, &(_, last_access))| (last_access, cid_of(key), key))
            .collect();
        candidates.sort_unstable();
        for (_, _, key) in candidates {
            if self.total_size <= self.capacity {
                break;
            }
            let (size, _) = self.held.remove(&key).expect("candidate is held");
            self.total_size -= size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use ipfs_mon_types::Multicodec;
    use proptest::prelude::*;

    fn synthetic(n: u8, size: u64) -> Block {
        Block::synthetic(Multicodec::Raw, vec![n, n, n], size)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Puts `blocks[key]`, keyed by its index in `blocks`.
    fn put(store: &mut Blockstore, blocks: &[Block], key: u32, now: SimTime) {
        let size = blocks[key as usize].logical_size();
        store.put(key, size, now, |k| blocks[k as usize].cid());
    }

    #[test]
    fn put_then_contains() {
        let mut store = Blockstore::with_capacity(DEFAULT_CAPACITY);
        let blocks = [Block::new(Multicodec::Raw, b"data".to_vec())];
        assert!(!store.contains(0));
        put(&mut store, &blocks, 0, t(0));
        assert!(store.contains(0));
        assert!(!store.contains(1));
        assert_eq!(store.held.len(), 1);
        assert_eq!(store.total_size, 4);
    }

    #[test]
    fn duplicate_put_does_not_double_count() {
        let mut store = Blockstore::with_capacity(DEFAULT_CAPACITY);
        let blocks = [synthetic(1, 100)];
        put(&mut store, &blocks, 0, t(0));
        put(&mut store, &blocks, 0, t(1));
        assert_eq!(store.held.len(), 1);
        assert_eq!(store.total_size, 100);
    }

    #[test]
    fn evicts_least_recently_used_block() {
        let mut store = Blockstore::with_capacity(250);
        let blocks = [synthetic(1, 100), synthetic(2, 100), synthetic(3, 100)];
        let (a, b, c) = (0, 1, 2);
        put(&mut store, &blocks, a, t(0));
        put(&mut store, &blocks, b, t(1));
        // Touch `a` so `b` becomes the LRU block.
        put(&mut store, &blocks, a, t(2));
        put(&mut store, &blocks, c, t(3));
        assert!(store.contains(a), "recently used survives");
        assert!(!store.contains(b), "LRU block evicted");
        assert!(store.contains(c));
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
        /// agree with the CID-keyed model over random operations on at most
        /// 8 blocks, keyed by their index. Time advances by 0 or 1 s per
        /// operation, so many blocks share a last access time and eviction
        /// falls to the CID tiebreak, whose order is not the keys' order.
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
                    put(&mut store, &blocks, index as u32, t(now));
                    model.put(block, t(now), capacity);
                } else {
                    prop_assert_eq!(store.contains(index as u32), model.contains(block.cid()));
                }
                prop_assert_eq!(store.total_size, model.total_size());
                prop_assert!(store.total_size <= capacity);
                for (key, block) in (0u32..).zip(&blocks) {
                    prop_assert_eq!(store.contains(key), model.contains(block.cid()));
                }
            }
        }
    }
}
