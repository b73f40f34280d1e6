//! Multicodec content-type codes.
//!
//! The multicodec embedded in a CIDv1 describes how the referenced block is
//! encoded. Table I of the paper breaks observed requests down by multicodec
//! (DagProtobuf, Raw, DagCBOR, GitRaw, EthereumTx, …); this module defines the
//! codes needed to reproduce that analysis plus a catch-all for rarely seen
//! codecs.

use crate::error::TypesError;

/// Content encodings distinguishable from a CID, following the multicodec
/// table used by IPFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Multicodec {
    /// `dag-pb` (0x70): MerkleDAG protobuf nodes — files and directories.
    DagProtobuf,
    /// `raw` (0x55): raw binary leaves of file DAGs.
    Raw,
    /// `dag-cbor` (0x71): IPLD CBOR nodes.
    DagCbor,
    /// `dag-json` (0x0129): IPLD JSON nodes.
    DagJson,
    /// `git-raw` (0x78): raw git objects.
    GitRaw,
    /// `eth-tx` (0x93): Ethereum transactions.
    EthereumTx,
    /// `eth-block` (0x90): Ethereum block headers.
    EthereumBlock,
    /// `bitcoin-block` (0xb0).
    BitcoinBlock,
    /// `libp2p-key` (0x72): identity/public-key blocks (used by IPNS).
    Libp2pKey,
    /// Any other registered code the monitor does not break out separately.
    Other(u64),
}

impl Multicodec {
    /// The numeric multicodec code as registered in the multicodec table.
    pub fn code(self) -> u64 {
        match self {
            Multicodec::DagProtobuf => 0x70,
            Multicodec::Raw => 0x55,
            Multicodec::DagCbor => 0x71,
            Multicodec::DagJson => 0x0129,
            Multicodec::GitRaw => 0x78,
            Multicodec::EthereumTx => 0x93,
            Multicodec::EthereumBlock => 0x90,
            Multicodec::BitcoinBlock => 0xb0,
            Multicodec::Libp2pKey => 0x72,
            Multicodec::Other(code) => code,
        }
    }

    /// Looks up a codec from its numeric code. Unknown codes map to
    /// [`Multicodec::Other`] rather than an error so that traces containing
    /// exotic codecs can still be analyzed, mirroring the paper's "Others (8)"
    /// bucket in Table I.
    pub fn from_code(code: u64) -> Self {
        match code {
            0x70 => Multicodec::DagProtobuf,
            0x55 => Multicodec::Raw,
            0x71 => Multicodec::DagCbor,
            0x0129 => Multicodec::DagJson,
            0x78 => Multicodec::GitRaw,
            0x93 => Multicodec::EthereumTx,
            0x90 => Multicodec::EthereumBlock,
            0xb0 => Multicodec::BitcoinBlock,
            0x72 => Multicodec::Libp2pKey,
            other => Multicodec::Other(other),
        }
    }

    /// Strict lookup that rejects codes outside the known set. Used by wire
    /// decoding paths where an unknown codec indicates corruption.
    pub fn from_code_strict(code: u64) -> Result<Self, TypesError> {
        match Multicodec::from_code(code) {
            Multicodec::Other(c) => Err(TypesError::UnknownCodec(c)),
            known => Ok(known),
        }
    }

    /// The canonical multicodec name.
    pub fn name(self) -> &'static str {
        match self {
            Multicodec::DagProtobuf => "dag-pb",
            Multicodec::Raw => "raw",
            Multicodec::DagCbor => "dag-cbor",
            Multicodec::DagJson => "dag-json",
            Multicodec::GitRaw => "git-raw",
            Multicodec::EthereumTx => "eth-tx",
            Multicodec::EthereumBlock => "eth-block",
            Multicodec::BitcoinBlock => "bitcoin-block",
            Multicodec::Libp2pKey => "libp2p-key",
            Multicodec::Other(_) => "other",
        }
    }

    /// Human-readable label matching the terminology in the paper's Table I.
    pub fn paper_label(self) -> &'static str {
        match self {
            Multicodec::DagProtobuf => "DagProtobuf",
            Multicodec::Raw => "Raw",
            Multicodec::DagCbor => "DagCBOR",
            Multicodec::DagJson => "DagJSON",
            Multicodec::GitRaw => "GitRaw",
            Multicodec::EthereumTx => "EthereumTx",
            Multicodec::EthereumBlock => "EthereumBlock",
            Multicodec::BitcoinBlock => "BitcoinBlock",
            Multicodec::Libp2pKey => "Libp2pKey",
            Multicodec::Other(_) => "Others",
        }
    }

    /// All codecs the analysis breaks out individually (i.e. everything except
    /// [`Multicodec::Other`]).
    pub fn known() -> &'static [Multicodec] {
        &[
            Multicodec::DagProtobuf,
            Multicodec::Raw,
            Multicodec::DagCbor,
            Multicodec::DagJson,
            Multicodec::GitRaw,
            Multicodec::EthereumTx,
            Multicodec::EthereumBlock,
            Multicodec::BitcoinBlock,
            Multicodec::Libp2pKey,
        ]
    }
}

impl std::fmt::Display for Multicodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.paper_label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip_for_known_codecs() {
        for &codec in Multicodec::known() {
            assert_eq!(Multicodec::from_code(codec.code()), codec);
            assert_eq!(Multicodec::from_code_strict(codec.code()).unwrap(), codec);
        }
    }

    #[test]
    fn unknown_code_maps_to_other() {
        assert_eq!(Multicodec::from_code(0xdead), Multicodec::Other(0xdead));
        assert!(Multicodec::from_code_strict(0xdead).is_err());
    }

    #[test]
    fn codes_match_multicodec_table() {
        assert_eq!(Multicodec::DagProtobuf.code(), 0x70);
        assert_eq!(Multicodec::Raw.code(), 0x55);
        assert_eq!(Multicodec::DagCbor.code(), 0x71);
        assert_eq!(Multicodec::GitRaw.code(), 0x78);
        assert_eq!(Multicodec::EthereumTx.code(), 0x93);
    }

    #[test]
    fn paper_labels() {
        assert_eq!(Multicodec::DagProtobuf.paper_label(), "DagProtobuf");
        assert_eq!(Multicodec::Other(42).paper_label(), "Others");
        assert_eq!(Multicodec::Raw.to_string(), "Raw");
    }

    #[test]
    fn known_codecs_are_distinct() {
        let mut codes: Vec<u64> = Multicodec::known().iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Multicodec::known().len());
    }
}
