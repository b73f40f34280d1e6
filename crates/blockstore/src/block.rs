//! Blocks: the unit of content-addressed storage and transfer.
//!
//! A block is a byte payload addressed by its CID. To keep multi-thousand-node
//! simulations cheap, large file chunks are represented by *synthetic* blocks:
//! a small deterministic payload (derived from a seed) that carries a declared
//! **logical size**. The CID is still the real hash of the real payload — so
//! integrity checking, deduplication and addressing behave exactly as in IPFS
//! — but a simulated 10 GB cache does not need 10 GB of RAM. Cache and traffic
//! accounting use the logical size.

use ipfs_mon_types::{Cid, Multicodec};

/// A content-addressed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    cid: Cid,
    data: Vec<u8>,
    logical_size: u64,
}

impl Block {
    /// Creates a block from real data. The logical size equals the payload
    /// length.
    pub fn new(codec: Multicodec, data: Vec<u8>) -> Self {
        let cid = Cid::new_v1(codec, &data);
        let logical_size = data.len() as u64;
        Self {
            cid,
            data,
            logical_size,
        }
    }

    /// Creates a synthetic block: the payload is a small deterministic
    /// descriptor, but the block *represents* `logical_size` bytes of content
    /// for accounting purposes.
    pub fn synthetic(codec: Multicodec, descriptor: Vec<u8>, logical_size: u64) -> Self {
        let cid = Cid::new_v1(codec, &descriptor);
        Self {
            cid,
            data: descriptor,
            logical_size,
        }
    }

    /// Reconstructs a block from parts, verifying that the CID matches the
    /// data. Returns `None` on integrity failure.
    pub fn from_parts(cid: Cid, data: Vec<u8>, logical_size: u64) -> Option<Self> {
        if !cid.verifies(&data) {
            return None;
        }
        Some(Self {
            cid,
            data,
            logical_size,
        })
    }

    /// The block's CID.
    pub fn cid(&self) -> &Cid {
        &self.cid
    }

    /// The raw payload.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The size this block stands for in cache/traffic accounting.
    pub fn logical_size(&self) -> u64 {
        self.logical_size
    }

    /// The codec of the referenced content.
    pub fn codec(&self) -> Multicodec {
        self.cid.codec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_block_is_self_certifying() {
        let block = Block::new(Multicodec::Raw, b"hello".to_vec());
        assert!(block.cid().verifies(block.data()));
        assert_eq!(block.logical_size(), 5);
        assert_eq!(block.codec(), Multicodec::Raw);
    }

    #[test]
    fn synthetic_block_carries_logical_size() {
        let block = Block::synthetic(Multicodec::Raw, b"descriptor-1".to_vec(), 262_144);
        assert_eq!(block.logical_size(), 262_144);
        assert_eq!(block.data().len(), 12);
        assert!(block.cid().verifies(block.data()));
    }

    #[test]
    fn from_parts_validates_integrity() {
        let block = Block::new(Multicodec::Raw, b"x".to_vec());
        assert!(Block::from_parts(block.cid().clone(), b"x".to_vec(), 1).is_some());
        assert!(Block::from_parts(block.cid().clone(), b"y".to_vec(), 1).is_none());
    }

    #[test]
    fn same_data_same_cid() {
        let a = Block::new(Multicodec::Raw, b"dedup me".to_vec());
        let b = Block::new(Multicodec::Raw, b"dedup me".to_vec());
        assert_eq!(a.cid(), b.cid());
    }
}
