//! Merkle-DAG nodes.
//!
//! Files and directories in IPFS are encoded as a Merkle DAG: interior nodes
//! (DagProtobuf multicodec) carry named, sized links to child blocks; leaves
//! are raw chunks. The monitor only ever observes *root* CIDs of such DAGs
//! (Sec. IV-A), so the experiments need real DAGs with distinguishable roots
//! and leaves.
//!
//! The encoding used here is a compact deterministic binary format rather
//! than protobuf; what matters for the reproduction is that a node's CID is
//! the hash of its canonical encoding and that links carry `(name, cid,
//! size)` exactly as dag-pb links do.

use crate::block::Block;
use ipfs_mon_types::{varint, Cid, Multicodec, TypesError};

/// A link from a DAG node to a child block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagLink {
    /// Link name (file name within a directory, empty for file chunks).
    pub name: String,
    /// CID of the child block.
    pub cid: Cid,
    /// Cumulative logical size of the subtree behind the link.
    pub size: u64,
}

/// An interior Merkle-DAG node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DagNode {
    /// Outgoing links, in order.
    pub links: Vec<DagLink>,
    /// Opaque node data (UnixFS metadata stand-in).
    pub data: Vec<u8>,
}

impl DagNode {
    /// Creates a node with the given links and no extra data.
    pub fn with_links(links: Vec<DagLink>) -> Self {
        Self {
            links,
            data: Vec::new(),
        }
    }

    /// Canonical binary encoding (deterministic, so the CID is stable).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        varint::encode(self.links.len() as u64, &mut out);
        for link in &self.links {
            let name = link.name.as_bytes();
            varint::encode(name.len() as u64, &mut out);
            out.extend_from_slice(name);
            let cid = link.cid.to_bytes();
            varint::encode(cid.len() as u64, &mut out);
            out.extend_from_slice(&cid);
            varint::encode(link.size, &mut out);
        }
        varint::encode(self.data.len() as u64, &mut out);
        out.extend_from_slice(&self.data);
        out
    }

    /// Decodes a node from its canonical encoding.
    pub fn decode(input: &[u8]) -> Result<Self, TypesError> {
        let mut pos = 0usize;
        let read_varint = |pos: &mut usize| -> Result<u64, TypesError> {
            let (v, used) = varint::decode(&input[*pos..])?;
            *pos += used;
            Ok(v)
        };
        let link_count = read_varint(&mut pos)?;
        let mut links = Vec::with_capacity(link_count.min(4096) as usize);
        for _ in 0..link_count {
            let name_len = read_varint(&mut pos)? as usize;
            if input.len() < pos + name_len {
                return Err(TypesError::UnexpectedEof);
            }
            let name = String::from_utf8(input[pos..pos + name_len].to_vec())
                .map_err(|_| TypesError::InvalidCid("link name not UTF-8".into()))?;
            pos += name_len;
            let cid_len = read_varint(&mut pos)? as usize;
            if input.len() < pos + cid_len {
                return Err(TypesError::UnexpectedEof);
            }
            let cid = Cid::from_bytes(&input[pos..pos + cid_len])?;
            pos += cid_len;
            let size = read_varint(&mut pos)?;
            links.push(DagLink { name, cid, size });
        }
        let data_len = read_varint(&mut pos)? as usize;
        if input.len() < pos + data_len {
            return Err(TypesError::UnexpectedEof);
        }
        let data = input[pos..pos + data_len].to_vec();
        pos += data_len;
        if pos != input.len() {
            return Err(TypesError::InvalidCid(
                "trailing bytes after DAG node".into(),
            ));
        }
        Ok(Self { links, data })
    }

    /// Cumulative logical size: node encoding plus all linked subtrees.
    pub fn cumulative_size(&self) -> u64 {
        self.encode().len() as u64 + self.links.iter().map(|l| l.size).sum::<u64>()
    }

    /// Converts the node into a DagProtobuf block. The block's logical size is
    /// the encoding length (interior nodes are small); link sizes carry the
    /// subtree sizes.
    pub fn to_block(&self) -> Block {
        Block::new(Multicodec::DagProtobuf, self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leaf(n: u8) -> Cid {
        Cid::new_v1(Multicodec::Raw, &[n])
    }

    #[test]
    fn encode_decode_roundtrip() {
        let node = DagNode {
            links: vec![
                DagLink {
                    name: "chunk-0".into(),
                    cid: leaf(0),
                    size: 262_144,
                },
                DagLink {
                    name: "chunk-1".into(),
                    cid: leaf(1),
                    size: 100,
                },
            ],
            data: b"unixfs-file".to_vec(),
        };
        let decoded = DagNode::decode(&node.encode()).unwrap();
        assert_eq!(decoded, node);
    }

    #[test]
    fn empty_node_roundtrip() {
        let node = DagNode::default();
        assert_eq!(DagNode::decode(&node.encode()).unwrap(), node);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing() {
        let node = DagNode::with_links(vec![DagLink {
            name: "x".into(),
            cid: leaf(3),
            size: 7,
        }]);
        let bytes = node.encode();
        assert!(DagNode::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes;
        extended.push(0);
        assert!(DagNode::decode(&extended).is_err());
    }

    #[test]
    fn to_block_is_dagpb_and_self_certifying() {
        let node = DagNode::with_links(vec![DagLink {
            name: "a".into(),
            cid: leaf(1),
            size: 10,
        }]);
        let block = node.to_block();
        assert_eq!(block.codec(), Multicodec::DagProtobuf);
        assert!(block.cid().verifies(block.data()));
        assert_eq!(DagNode::decode(block.data()).unwrap(), node);
    }

    #[test]
    fn cumulative_size_adds_links_and_encoding() {
        let node = DagNode::with_links(vec![
            DagLink {
                name: "a".into(),
                cid: leaf(1),
                size: 100,
            },
            DagLink {
                name: "b".into(),
                cid: leaf(2),
                size: 50,
            },
        ]);
        assert_eq!(node.cumulative_size(), node.encode().len() as u64 + 150);
    }

    #[test]
    fn distinct_links_produce_distinct_cids() {
        let a = DagNode::with_links(vec![DagLink {
            name: "a".into(),
            cid: leaf(1),
            size: 1,
        }]);
        let b = DagNode::with_links(vec![DagLink {
            name: "a".into(),
            cid: leaf(2),
            size: 1,
        }]);
        assert_ne!(a.to_block().cid(), b.to_block().cid());
    }

    proptest! {
        #[test]
        fn roundtrip_random_nodes(
            links in proptest::collection::vec(("[a-z]{0,12}", 0u8..255, any::<u64>()), 0..20),
            data in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let node = DagNode {
                links: links.into_iter().map(|(name, n, size)| DagLink {
                    name,
                    cid: leaf(n),
                    size,
                }).collect(),
                data,
            };
            prop_assert_eq!(DagNode::decode(&node.encode()).unwrap(), node);
        }
    }
}
