//! Runtime-mutable simulation state: per-node flags and caches, the
//! link/provider bit matrices, the flat pending-want slab, and the keys the
//! block stores and gateway caches name content by.
//!
//! Everything in this module changes while a run executes, in contrast to the
//! scenario-immutable [`ScenarioCore`](super::core::ScenarioCore). The
//! structures are deliberately flat — plain vectors indexed by node/content —
//! so the handler hot path never chases `HashMap` buckets:
//!
//! * [`BitMatrix`] — one bit per (row, column) pair in `stride` consecutive
//!   words per row; backs both the node↔monitor link matrix and the
//!   per-content monitor-provider masks,
//! * [`ProviderIndex`] — sorted flat provider lists per content item, a
//!   count of the online providers of each item kept up to date on churn,
//!   and a monitor bitmask, replacing the seed's `Vec<HashSet<ProviderRef>>`:
//!   resolving a want reads one count instead of scanning the providers,
//! * [`ContentKeys`] — each content item's key in the block stores and
//!   gateway caches: the index of the first item with its root CID, so a
//!   cache probe hashes an integer, not a CID,
//! * [`PendingSlab`] — all outstanding wants of all nodes in one entry pool
//!   threaded into intrusive per-node lists, replacing one
//!   `HashMap<usize, SimTime>` per node.

use crate::gateway::GatewayCache;
use ipfs_mon_blockstore::Blockstore;
use ipfs_mon_simnet::time::SimTime;
use ipfs_mon_types::Cid;
use std::collections::HashMap;

/// Internal per-node runtime state. Identity (peer ID, address, country) is
/// scenario-immutable and lives in the shared
/// [`ScenarioCore`](super::core::ScenarioCore); observation-side state (which
/// monitors the node is linked to) lives with the observation executor.
#[derive(Debug)]
pub(super) struct NodeState {
    pub(super) online: bool,
    pub(super) blockstore: Blockstore,
    pub(super) gateway_cache: Option<GatewayCache>,
}

/// A dense bit matrix: row `r`'s bits live in `stride` consecutive words.
/// Replaces the seed's per-node `Vec<bool>` (one heap allocation per node and
/// a byte per flag) with cache-friendly words-per-row in the common
/// ≤128-column case.
#[derive(Debug, Clone)]
pub(super) struct BitMatrix {
    words: Vec<u64>,
    stride: usize,
}

impl BitMatrix {
    pub(super) fn new(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64).max(1);
        Self {
            words: vec![0; rows * stride],
            stride,
        }
    }

    pub(super) fn stride(&self) -> usize {
        self.stride
    }

    #[inline]
    pub(super) fn test(&self, row: usize, col: usize) -> bool {
        self.words[row * self.stride + col / 64] & (1 << (col % 64)) != 0
    }

    #[inline]
    pub(super) fn set(&mut self, row: usize, col: usize) {
        self.words[row * self.stride + col / 64] |= 1 << (col % 64);
    }

    /// One 64-column word of a row.
    #[inline]
    pub(super) fn word(&self, row: usize, word: usize) -> u64 {
        self.words[row * self.stride + word]
    }

    pub(super) fn clear_row(&mut self, row: usize) {
        let base = row * self.stride;
        self.words[base..base + self.stride].fill(0);
    }

    /// Appends an all-zero row.
    pub(super) fn push_row(&mut self) {
        self.words.resize(self.words.len() + self.stride, 0);
    }

    /// The lowest set column of a row, if any.
    pub(super) fn first_set(&self, row: usize) -> Option<usize> {
        let base = row * self.stride;
        self.words[base..base + self.stride]
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)
    }
}

/// Iterates the set bit positions of one bit-matrix word.
pub(super) fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if word == 0 {
            None
        } else {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            Some(bit)
        }
    })
}

/// Who provides each content item: a sorted flat list of provider *nodes*,
/// how many of them are online, and a bitmask of monitor providers per
/// content index.
///
/// The seed kept a `HashSet<ProviderRef>` per content item; `resolve` then
/// paid a bucket walk per provider on every (re)broadcast of popular content.
/// Here the online providers are counted as nodes come and go (each node
/// keeps the list of items it provides), so `resolve` reads one number, and
/// the monitor-provider pick is a trailing-zeros scan — unlike `HashSet`
/// iteration order, "first monitor provider" is well defined (lowest monitor
/// index).
#[derive(Debug, Clone)]
pub(super) struct ProviderIndex {
    node_lists: Vec<Vec<u32>>,
    /// Online members of each content item's node list.
    online: Vec<u32>,
    /// The content items each node provides: `node_lists` transposed.
    provided: Vec<Vec<u32>>,
    monitor_masks: BitMatrix,
}

impl ProviderIndex {
    pub(super) fn new(nodes: usize, monitors: usize) -> Self {
        Self {
            node_lists: Vec::new(),
            online: Vec::new(),
            provided: vec![Vec::new(); nodes],
            monitor_masks: BitMatrix::new(0, monitors),
        }
    }

    /// Appends a content item with the given initial provider nodes, of
    /// which those `is_online` says are online count as online.
    pub(super) fn push_content(&mut self, initial: &[usize], is_online: impl Fn(usize) -> bool) {
        let content = self.node_lists.len() as u32;
        let mut list: Vec<u32> = initial.iter().map(|&i| i as u32).collect();
        list.sort_unstable();
        list.dedup();
        for &node in &list {
            self.provided[node as usize].push(content);
        }
        let online = list
            .iter()
            .filter(|&&node| is_online(node as usize))
            .count();
        self.online.push(online as u32);
        self.node_lists.push(list);
        self.monitor_masks.push_row();
    }

    /// Registers `node`, online or not, as a provider for `content`
    /// (idempotent).
    pub(super) fn insert_node(&mut self, content: usize, node: usize, online: bool) {
        let list = &mut self.node_lists[content];
        if let Err(pos) = list.binary_search(&(node as u32)) {
            list.insert(pos, node as u32);
            self.provided[node].push(content as u32);
            self.online[content] += u32::from(online);
        }
    }

    /// Counts `node` going online (`true`) or offline in every item it
    /// provides. Called once per transition.
    pub(super) fn set_online(&mut self, node: usize, online: bool) {
        for &content in &self.provided[node] {
            let count = &mut self.online[content as usize];
            if online {
                *count += 1;
            } else {
                *count -= 1;
            }
        }
    }

    /// Registers `monitor` as a provider for `content` (idempotent).
    pub(super) fn insert_monitor(&mut self, content: usize, monitor: usize) {
        self.monitor_masks.set(content, monitor);
    }

    /// The provider nodes of `content`, sorted by node index.
    #[cfg(test)]
    pub(super) fn node_providers(&self, content: usize) -> &[u32] {
        &self.node_lists[content]
    }

    /// How many online nodes other than `requester` (itself online)
    /// provide `content`.
    #[inline]
    pub(super) fn online_providers_besides(&self, content: usize, requester: usize) -> u32 {
        let own = self.node_lists[content]
            .binary_search(&(requester as u32))
            .is_ok();
        self.online[content] - u32::from(own)
    }

    /// The lowest-index monitor provider of `content`, if any.
    #[inline]
    pub(super) fn first_monitor(&self, content: usize) -> Option<usize> {
        self.monitor_masks.first_set(content)
    }
}

/// The key each content item has in the block stores and gateway caches:
/// the index of the first item with its root CID. Items that share a root
/// CID share one key, so they share one cache entry, as they did when the
/// caches were keyed by CID.
#[derive(Debug, Clone, Default)]
pub(super) struct ContentKeys {
    by_root: HashMap<Cid, u32>,
    of_content: Vec<u32>,
}

impl ContentKeys {
    /// Assigns the next content item, with root CID `root`, its key.
    pub(super) fn push(&mut self, root: &Cid) {
        let next = self.of_content.len() as u32;
        let key = *self.by_root.entry(root.clone()).or_insert(next);
        self.of_content.push(key);
    }

    /// The key of content item `content`.
    #[inline]
    pub(super) fn of_content(&self, content: usize) -> u32 {
        self.of_content[content]
    }

    /// The key of the content whose root CID is `root`, if any.
    pub(super) fn of_root(&self, root: &Cid) -> Option<u32> {
        self.by_root.get(root).copied()
    }
}

const NIL: u32 = u32::MAX;

/// All outstanding wants of all nodes in one slab: entries are pooled in a
/// single vector (with an intrusive free list) and threaded into one singly
/// linked list per node. Replaces a `HashMap<usize, SimTime>` per node — the
/// per-node list length is the node's *concurrent* want count, which is tiny,
/// so a linear walk beats hashing and the slab never allocates after warm-up.
#[derive(Debug, Clone)]
pub(super) struct PendingSlab {
    entries: Vec<SlabEntry>,
    heads: Vec<u32>,
    free: u32,
}

#[derive(Debug, Clone)]
struct SlabEntry {
    content: u32,
    started: SimTime,
    next: u32,
}

impl PendingSlab {
    pub(super) fn new(nodes: usize) -> Self {
        Self {
            entries: Vec::new(),
            heads: vec![NIL; nodes],
            free: NIL,
        }
    }

    /// When the outstanding want of `node` for `content` started, if any.
    pub(super) fn get(&self, node: usize, content: usize) -> Option<SimTime> {
        let mut cursor = self.heads[node];
        while cursor != NIL {
            let entry = &self.entries[cursor as usize];
            if entry.content == content as u32 {
                return Some(entry.started);
            }
            cursor = entry.next;
        }
        None
    }

    /// Records a new outstanding want. The caller checks for duplicates via
    /// [`Self::get`] first (the handler returns early on already-pending).
    pub(super) fn insert(&mut self, node: usize, content: usize, started: SimTime) {
        debug_assert!(self.get(node, content).is_none(), "want already pending");
        let entry = SlabEntry {
            content: content as u32,
            started,
            next: self.heads[node],
        };
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.entries[slot as usize].next;
            self.entries[slot as usize] = entry;
            slot
        } else {
            let slot = u32::try_from(self.entries.len()).expect("pending slab overflow");
            self.entries.push(entry);
            slot
        };
        self.heads[node] = slot;
    }

    /// Removes the outstanding want of `node` for `content`, returning when
    /// it started.
    pub(super) fn remove(&mut self, node: usize, content: usize) -> Option<SimTime> {
        let mut prev = NIL;
        let mut cursor = self.heads[node];
        while cursor != NIL {
            let entry = &self.entries[cursor as usize];
            if entry.content == content as u32 {
                let started = entry.started;
                let next = entry.next;
                if prev == NIL {
                    self.heads[node] = next;
                } else {
                    self.entries[prev as usize].next = next;
                }
                self.entries[cursor as usize].next = self.free;
                self.free = cursor;
                return Some(started);
            }
            prev = cursor;
            cursor = entry.next;
        }
        None
    }

    /// Drops every outstanding want of `node` (it went offline).
    pub(super) fn clear_node(&mut self, node: usize) {
        let mut cursor = self.heads[node];
        self.heads[node] = NIL;
        while cursor != NIL {
            let next = self.entries[cursor as usize].next;
            self.entries[cursor as usize].next = self.free;
            self.free = cursor;
            cursor = next;
        }
    }

    /// Grows the slab to cover `nodes` nodes (content can be added at
    /// runtime; nodes cannot shrink).
    pub(super) fn ensure_nodes(&mut self, nodes: usize) {
        if self.heads.len() < nodes {
            self.heads.resize(nodes, NIL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipfs_mon_types::Multicodec;
    use proptest::prelude::*;

    #[test]
    fn bit_matrix_set_test_clear() {
        let mut m = BitMatrix::new(3, 130);
        assert_eq!(m.stride(), 3);
        assert!(!m.test(1, 129));
        m.set(1, 129);
        m.set(1, 0);
        assert!(m.test(1, 129) && m.test(1, 0));
        assert!(!m.test(0, 0) && !m.test(2, 129));
        assert_eq!(m.first_set(1), Some(0));
        m.clear_row(1);
        assert!(!m.test(1, 129) && !m.test(1, 0));
        assert_eq!(m.first_set(1), None);
    }

    #[test]
    fn bit_matrix_rows_grow() {
        let mut m = BitMatrix::new(0, 2);
        m.push_row();
        m.push_row();
        m.set(1, 1);
        assert_eq!(m.first_set(0), None);
        assert_eq!(m.first_set(1), Some(1));
    }

    #[test]
    fn provider_index_sorts_and_dedupes() {
        let mut p = ProviderIndex::new(6, 8);
        p.push_content(&[5, 1, 5, 3], |_| false);
        assert_eq!(p.node_providers(0), &[1, 3, 5]);
        p.insert_node(0, 3, false);
        p.insert_node(0, 2, false);
        assert_eq!(p.node_providers(0), &[1, 2, 3, 5]);
        assert_eq!(p.provided[3], [0]);
        assert_eq!(p.first_monitor(0), None);
        p.insert_monitor(0, 6);
        p.insert_monitor(0, 2);
        assert_eq!(p.first_monitor(0), Some(2));
    }

    #[test]
    fn pending_slab_roundtrip() {
        let mut slab = PendingSlab::new(3);
        let t = SimTime::from_secs;
        slab.insert(0, 10, t(1));
        slab.insert(0, 11, t(2));
        slab.insert(2, 10, t(3));
        assert_eq!(slab.get(0, 10), Some(t(1)));
        assert_eq!(slab.get(0, 11), Some(t(2)));
        assert_eq!(slab.get(1, 10), None);
        assert_eq!(slab.get(2, 10), Some(t(3)));
        assert_eq!(slab.remove(0, 10), Some(t(1)));
        assert_eq!(slab.remove(0, 10), None);
        assert_eq!(slab.get(0, 11), Some(t(2)));
        slab.clear_node(0);
        assert_eq!(slab.get(0, 11), None);
        // Freed slots are recycled.
        slab.insert(1, 42, t(4));
        slab.insert(1, 43, t(5));
        assert_eq!(slab.entries.len(), 3);
        assert_eq!(slab.get(1, 42), Some(t(4)));
    }

    const NODES: usize = 8;

    /// One step of a provider-index run: a churn transition, a download
    /// that makes a node a provider, or a content item added with initial
    /// providers.
    #[derive(Debug, Clone)]
    enum ProviderOp {
        Online(usize),
        Offline(usize),
        Provide { content: usize, node: usize },
        AddContent(Vec<usize>),
    }

    /// Decodes a raw `(kind, node, content, providers)` draw into an op.
    fn provider_op((kind, node, content, providers): (u8, usize, usize, Vec<usize>)) -> ProviderOp {
        match kind {
            0 => ProviderOp::Online(node),
            1 => ProviderOp::Offline(node),
            2 => ProviderOp::Provide { content, node },
            _ => ProviderOp::AddContent(providers),
        }
    }

    /// A CID-keyed LRU store, the reference for the keyed one: every held
    /// root CID with its size and last access, evicting the least
    /// `(last access, CID)` one at a time.
    #[derive(Default)]
    struct CidLru {
        held: Vec<(Cid, u64, SimTime)>,
    }

    impl CidLru {
        fn put(&mut self, cid: &Cid, size: u64, now: SimTime, capacity: u64) {
            if let Some(held) = self.held.iter_mut().find(|(held, ..)| held == cid) {
                held.2 = now;
                return;
            }
            self.held.push((cid.clone(), size, now));
            while self.held.iter().map(|&(_, size, _)| size).sum::<u64>() > capacity {
                let oldest = (0..self.held.len())
                    .min_by_key(|&i| (self.held[i].2, &self.held[i].0))
                    .expect("over capacity means something is held");
                self.held.remove(oldest);
            }
        }

        fn contains(&self, cid: &Cid) -> bool {
            self.held.iter().any(|(held, ..)| held == cid)
        }
    }

    proptest! {
        /// After every step of random churn, provider registrations and
        /// content additions, the counted online providers of every item,
        /// as seen by every online requester, equal a scan of its provider
        /// list — the scan `resolve` made before providers were counted.
        #[test]
        fn online_provider_counts_match_a_scan(
            initial in proptest::collection::vec(proptest::collection::vec(0..NODES, 0..5), 1..4),
            raw_ops in proptest::collection::vec(
                (0u8..4, 0..NODES, 0usize..64, proptest::collection::vec(0..NODES, 0..5)),
                1..80,
            ),
        ) {
            let mut online = [false; NODES];
            let mut index = ProviderIndex::new(NODES, 2);
            for providers in &initial {
                index.push_content(providers, |_| false);
            }
            for op in raw_ops.into_iter().map(provider_op) {
                match op {
                    ProviderOp::Online(node) if !online[node] => {
                        online[node] = true;
                        index.set_online(node, true);
                    }
                    ProviderOp::Offline(node) if online[node] => {
                        online[node] = false;
                        index.set_online(node, false);
                    }
                    ProviderOp::Online(_) | ProviderOp::Offline(_) => {}
                    ProviderOp::Provide { content, node } => {
                        let content = content % index.node_lists.len();
                        index.insert_node(content, node, online[node]);
                    }
                    ProviderOp::AddContent(providers) => {
                        index.push_content(&providers, |node| online[node]);
                    }
                }
                for content in 0..index.node_lists.len() {
                    for requester in (0..NODES).filter(|&node| online[node]) {
                        let scanned = index
                            .node_providers(content)
                            .iter()
                            .filter(|&&p| p as usize != requester && online[p as usize])
                            .count() as u32;
                        prop_assert_eq!(
                            index.online_providers_besides(content, requester),
                            scanned
                        );
                    }
                }
            }
        }

        /// A block store keyed by [`ContentKeys`] answers like a CID-keyed
        /// LRU store, over content items of which the last two always share
        /// one root CID (others may too), both per content item and per
        /// root CID (how `node_has_block` asks). Time advances by 0 or 1 s
        /// per step, so eviction often falls to the CID tiebreak.
        #[test]
        fn keyed_store_answers_like_a_cid_keyed_lru(
            root_of in proptest::collection::vec(0usize..4, 6..7),
            sizes in proptest::collection::vec(50u64..=150, 4..5),
            capacity_blocks in 2u64..=4,
            ops in proptest::collection::vec((0usize..6, 0u64..=1), 1..64),
        ) {
            let mut root_of = root_of;
            root_of[5] = root_of[4];
            let roots: Vec<Cid> = (0u8..4).map(|n| Cid::new_v1(Multicodec::Raw, &[n])).collect();
            let content_roots: Vec<&Cid> = root_of.iter().map(|&r| &roots[r]).collect();
            let mut keys = ContentKeys::default();
            for root in &content_roots {
                keys.push(root);
            }
            prop_assert_eq!(keys.of_content(5), keys.of_content(4));
            let capacity = capacity_blocks * 100;
            let mut store = Blockstore::with_capacity(capacity);
            let mut model = CidLru::default();
            let mut now = SimTime::ZERO;
            for (content, step) in ops {
                now += ipfs_mon_simnet::time::SimDuration::from_secs(step);
                let size = sizes[root_of[content]];
                store.put(keys.of_content(content), size, now, |key| content_roots[key as usize]);
                model.put(content_roots[content], size, now, capacity);
                for (content, root) in content_roots.iter().enumerate() {
                    prop_assert_eq!(store.contains(keys.of_content(content)), model.contains(root));
                }
                for root in &roots {
                    let held = keys.of_root(root).is_some_and(|key| store.contains(key));
                    prop_assert_eq!(held, model.contains(root));
                }
            }
        }
    }
}
