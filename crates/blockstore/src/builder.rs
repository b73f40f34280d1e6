//! DAG builders: turn logical content items into block DAGs.
//!
//! Mirrors the UnixFS import pipeline: files are chunked into raw leaf blocks
//! (256 KiB by default) linked from DagProtobuf interior nodes (fan-out capped
//! at 174 links like kubo's default), directories are DagProtobuf nodes whose
//! links are the entries. Non-file content (DagCBOR metadata, Ethereum
//! transactions, git objects, …) is built as single typed blocks so the
//! multicodec mix of Table I can be reproduced.

use crate::block::Block;
use crate::dag::{DagLink, DagNode};
use ipfs_mon_types::{Cid, Multicodec};

/// Default UnixFS chunk size (256 KiB).
pub const DEFAULT_CHUNK_SIZE: u64 = 256 * 1024;

/// Default maximum number of links per interior node (kubo's DAG fan-out).
pub const DEFAULT_MAX_LINKS: usize = 174;

/// A fully built DAG: the root CID plus every block of the DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuiltDag {
    /// CID of the DAG root (what users request and monitors observe).
    pub root: Cid,
    /// Every block in the DAG, root included. The root is the last element.
    pub blocks: Vec<Block>,
    /// Total logical size represented by the DAG.
    pub total_size: u64,
}

impl BuiltDag {
    /// Number of blocks in the DAG.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The root block.
    pub fn root_block(&self) -> &Block {
        self.blocks
            .last()
            .expect("a built DAG always contains at least one block")
    }

    /// CIDs of all non-root blocks (the blocks requested *inside* a session,
    /// which passive monitors normally do not see).
    pub fn non_root_cids(&self) -> Vec<Cid> {
        self.blocks[..self.blocks.len() - 1]
            .iter()
            .map(|b| b.cid().clone())
            .collect()
    }
}

/// Builds a file DAG of `size` logical bytes.
///
/// Leaf payloads are small deterministic descriptors derived from `seed`, so
/// two files built with different seeds never share blocks while repeated
/// builds with the same seed are identical (content-addressing works as in
/// the real system).
pub fn build_file(seed: u64, size: u64, chunk_size: u64, max_links: usize) -> BuiltDag {
    assert!(chunk_size > 0, "chunk size must be positive");
    assert!(max_links > 1, "fan-out must be at least 2");
    let mut blocks = Vec::new();

    // 1. Leaves.
    let chunk_count = size.div_ceil(chunk_size).max(1);
    let mut level: Vec<DagLink> = Vec::with_capacity(chunk_count as usize);
    for index in 0..chunk_count {
        let this_size = if index == chunk_count - 1 && !size.is_multiple_of(chunk_size) && size > 0
        {
            size % chunk_size
        } else if size == 0 {
            0
        } else {
            chunk_size
        };
        let mut descriptor = Vec::with_capacity(24);
        descriptor.extend_from_slice(b"leaf");
        descriptor.extend_from_slice(&seed.to_be_bytes());
        descriptor.extend_from_slice(&index.to_be_bytes());
        descriptor.extend_from_slice(&this_size.to_be_bytes());
        let block = Block::synthetic(Multicodec::Raw, descriptor, this_size);
        level.push(DagLink {
            name: String::new(),
            cid: block.cid().clone(),
            size: this_size,
        });
        blocks.push(block);
    }

    // A single-chunk file is just the raw leaf — no interior node, exactly as
    // kubo imports small files.
    if level.len() == 1 {
        let root = level[0].cid.clone();
        return BuiltDag {
            root,
            total_size: size,
            blocks,
        };
    }

    // 2. Interior layers until a single root remains.
    while level.len() > 1 {
        let mut next_level = Vec::with_capacity(level.len().div_ceil(max_links));
        for group in level.chunks(max_links) {
            let node = DagNode {
                links: group.to_vec(),
                data: b"unixfs:file".to_vec(),
            };
            let subtree_size: u64 = group.iter().map(|l| l.size).sum();
            let block = node.to_block();
            next_level.push(DagLink {
                name: String::new(),
                cid: block.cid().clone(),
                size: subtree_size,
            });
            blocks.push(block);
        }
        level = next_level;
    }

    let root = level[0].cid.clone();
    BuiltDag {
        root,
        total_size: size,
        blocks,
    }
}

/// Builds a directory DAG whose entries are previously built DAGs.
pub fn build_directory(entries: &[(String, &BuiltDag)]) -> BuiltDag {
    let mut blocks: Vec<Block> = Vec::new();
    let mut links = Vec::with_capacity(entries.len());
    let mut total_size = 0;
    for (name, child) in entries {
        blocks.extend(child.blocks.iter().cloned());
        links.push(DagLink {
            name: name.clone(),
            cid: child.root.clone(),
            size: child.total_size,
        });
        total_size += child.total_size;
    }
    let node = DagNode {
        links,
        data: b"unixfs:dir".to_vec(),
    };
    let block = node.to_block();
    let root = block.cid().clone();
    blocks.push(block);
    BuiltDag {
        root,
        blocks,
        total_size,
    }
}

/// Builds a single typed block (DagCBOR metadata, Ethereum transaction, git
/// object, …) of the given logical size.
pub fn build_typed_item(codec: Multicodec, seed: u64, size: u64) -> BuiltDag {
    let mut descriptor = Vec::with_capacity(20);
    descriptor.extend_from_slice(b"item");
    descriptor.extend_from_slice(&codec.code().to_be_bytes());
    descriptor.extend_from_slice(&seed.to_be_bytes());
    let block = Block::synthetic(codec, descriptor, size);
    BuiltDag {
        root: block.cid().clone(),
        total_size: size,
        blocks: vec![block],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_file_is_single_raw_block() {
        let dag = build_file(1, 1000, DEFAULT_CHUNK_SIZE, DEFAULT_MAX_LINKS);
        assert_eq!(dag.block_count(), 1);
        assert_eq!(dag.root_block().codec(), Multicodec::Raw);
        assert_eq!(dag.total_size, 1000);
        assert_eq!(dag.root, dag.root_block().cid().clone());
    }

    #[test]
    fn multi_chunk_file_has_dagpb_root() {
        let size = 5 * DEFAULT_CHUNK_SIZE + 123;
        let dag = build_file(2, size, DEFAULT_CHUNK_SIZE, DEFAULT_MAX_LINKS);
        assert_eq!(dag.block_count(), 7, "6 leaves + 1 root");
        assert_eq!(dag.root_block().codec(), Multicodec::DagProtobuf);
        assert_eq!(dag.total_size, size);
        // The root node's links must add up to the file size.
        let root = crate::dag::DagNode::decode(dag.root_block().data()).unwrap();
        assert_eq!(root.links.iter().map(|l| l.size).sum::<u64>(), size);
    }

    #[test]
    fn deep_dag_respects_fanout() {
        // 10 chunks with fan-out 4 → two interior layers.
        let dag = build_file(3, 10 * 100, 100, 4);
        assert_eq!(dag.blocks.len(), 10 + 3 + 1);
        let root = crate::dag::DagNode::decode(dag.root_block().data()).unwrap();
        assert!(root.links.len() <= 4);
    }

    #[test]
    fn same_seed_same_root_different_seed_different_root() {
        let a = build_file(7, 1 << 20, DEFAULT_CHUNK_SIZE, DEFAULT_MAX_LINKS);
        let b = build_file(7, 1 << 20, DEFAULT_CHUNK_SIZE, DEFAULT_MAX_LINKS);
        let c = build_file(8, 1 << 20, DEFAULT_CHUNK_SIZE, DEFAULT_MAX_LINKS);
        assert_eq!(a.root, b.root);
        assert_ne!(a.root, c.root);
    }

    #[test]
    fn zero_size_file_still_has_a_root() {
        let dag = build_file(1, 0, DEFAULT_CHUNK_SIZE, DEFAULT_MAX_LINKS);
        assert_eq!(dag.block_count(), 1);
        assert_eq!(dag.total_size, 0);
    }

    #[test]
    fn directory_links_children() {
        let file_a = build_file(1, 500, DEFAULT_CHUNK_SIZE, DEFAULT_MAX_LINKS);
        let file_b = build_file(
            2,
            3 * DEFAULT_CHUNK_SIZE,
            DEFAULT_CHUNK_SIZE,
            DEFAULT_MAX_LINKS,
        );
        let dir = build_directory(&[("a.txt".into(), &file_a), ("b.bin".into(), &file_b)]);
        assert_eq!(dir.total_size, file_a.total_size + file_b.total_size);
        assert_eq!(dir.root_block().codec(), Multicodec::DagProtobuf);
        let node = crate::dag::DagNode::decode(dir.root_block().data()).unwrap();
        assert_eq!(node.links.len(), 2);
        assert_eq!(node.links[0].name, "a.txt");
        assert_eq!(node.links[1].cid, file_b.root);
        assert_eq!(
            dir.block_count(),
            file_a.block_count() + file_b.block_count() + 1
        );
    }

    #[test]
    fn typed_items_carry_their_codec() {
        for codec in [
            Multicodec::DagCbor,
            Multicodec::EthereumTx,
            Multicodec::GitRaw,
        ] {
            let dag = build_typed_item(codec, 42, 512);
            assert_eq!(dag.block_count(), 1);
            assert_eq!(dag.root_block().codec(), codec);
            assert_eq!(dag.root.codec(), codec);
        }
    }

    #[test]
    fn non_root_cids_excludes_root() {
        let dag = build_file(
            5,
            3 * DEFAULT_CHUNK_SIZE,
            DEFAULT_CHUNK_SIZE,
            DEFAULT_MAX_LINKS,
        );
        let non_root = dag.non_root_cids();
        assert_eq!(non_root.len(), dag.block_count() - 1);
        assert!(!non_root.contains(&dag.root));
    }

    proptest! {
        #[test]
        fn block_sizes_sum_to_total(seed: u64, size in 0u64..5_000_000) {
            let dag = build_file(seed, size, DEFAULT_CHUNK_SIZE, DEFAULT_MAX_LINKS);
            let leaf_sum: u64 = dag.blocks.iter()
                .filter(|b| b.codec() == Multicodec::Raw)
                .map(|b| b.logical_size())
                .sum();
            prop_assert_eq!(leaf_sum, size);
            // All blocks are self-certifying.
            for block in &dag.blocks {
                prop_assert!(block.cid().verifies(block.data()));
            }
        }

        #[test]
        fn all_cids_distinct_within_a_dag(seed: u64, chunks in 1u64..40) {
            let dag = build_file(seed, chunks * 100, 100, 5);
            let mut cids: Vec<_> = dag.blocks.iter().map(|b| b.cid().clone()).collect();
            let before = cids.len();
            cids.sort();
            cids.dedup();
            prop_assert_eq!(cids.len(), before);
        }
    }
}
