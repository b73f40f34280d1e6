//! Content identifiers (CIDs).
//!
//! A CID is the immutable, self-certifying address of a block of data:
//! `addr(d) = H(d)` plus metadata describing the hash function and the codec
//! of the referenced block. This module implements CIDv0 (base58btc-encoded
//! bare SHA-256 multihashes of dag-pb nodes) and CIDv1
//! (`<version><codec><multihash>`, rendered as lowercase base32).

use crate::encoding;
use crate::error::TypesError;
use crate::multicodec::Multicodec;
use crate::multihash::Multihash;
use crate::varint;

/// CID version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CidVersion {
    /// Legacy CIDv0: implicit dag-pb codec, implicit SHA-256, base58btc string.
    V0,
    /// CIDv1: explicit codec, multibase string form.
    V1,
}

/// A content identifier.
///
/// # Examples
///
/// ```
/// use ipfs_mon_types::cid::Cid;
/// use ipfs_mon_types::multicodec::Multicodec;
///
/// let cid = Cid::new_v1(Multicodec::Raw, b"hello world");
/// assert_eq!(cid.codec(), Multicodec::Raw);
/// assert!(cid.verifies(b"hello world"));
/// assert!(cid.to_string().starts_with('b')); // multibase base32 prefix
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cid {
    version: CidVersion,
    codec: Multicodec,
    hash: Multihash,
}

impl Cid {
    /// Creates a CIDv0 (dag-pb, SHA-256) for `data`.
    pub fn new_v0(data: &[u8]) -> Self {
        Self {
            version: CidVersion::V0,
            codec: Multicodec::DagProtobuf,
            hash: Multihash::sha2_256(data),
        }
    }

    /// Creates a CIDv1 with the given codec, hashing `data` with SHA-256.
    pub fn new_v1(codec: Multicodec, data: &[u8]) -> Self {
        Self {
            version: CidVersion::V1,
            codec,
            hash: Multihash::sha2_256(data),
        }
    }

    /// Builds a CID from already-computed parts.
    pub fn from_parts(
        version: CidVersion,
        codec: Multicodec,
        hash: Multihash,
    ) -> Result<Self, TypesError> {
        if version == CidVersion::V0 && codec != Multicodec::DagProtobuf {
            return Err(TypesError::InvalidCid(
                "CIDv0 must use the dag-pb codec".into(),
            ));
        }
        Ok(Self {
            version,
            codec,
            hash,
        })
    }

    /// The CID version.
    pub fn version(&self) -> CidVersion {
        self.version
    }

    /// The multicodec of the referenced block.
    pub fn codec(&self) -> Multicodec {
        self.codec
    }

    /// The multihash of the referenced block.
    pub fn hash(&self) -> &Multihash {
        &self.hash
    }

    /// Returns true if this CID is the address of `data`.
    pub fn verifies(&self, data: &[u8]) -> bool {
        self.hash.verifies(data)
    }

    /// Binary representation. CIDv0 is the bare multihash; CIDv1 is
    /// `<version varint><codec varint><multihash>`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write_bytes(&mut out);
        out
    }

    /// Appends the [`Cid::to_bytes`] form to `out`, allocating nothing of
    /// its own — how a trace chunk writes its CID dictionary.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        if self.version == CidVersion::V1 {
            varint::encode(1, out);
            varint::encode(self.codec.code(), out);
        }
        self.hash.write_bytes(out);
    }

    /// Length of the [`Cid::to_bytes`] form.
    pub fn encoded_len(&self) -> usize {
        let prefix = match self.version {
            CidVersion::V0 => 0,
            CidVersion::V1 => varint::encoded_len(1) + varint::encoded_len(self.codec.code()),
        };
        prefix + self.hash.encoded_len()
    }

    /// Parses a CID from its binary representation.
    pub fn from_bytes(input: &[u8]) -> Result<Self, TypesError> {
        // CIDv0: exactly a sha2-256 multihash (34 bytes, 0x12 0x20 prefix).
        if input.len() == 34 && input[0] == 0x12 && input[1] == 0x20 {
            let hash = Multihash::from_bytes(input)?;
            return Ok(Self {
                version: CidVersion::V0,
                codec: Multicodec::DagProtobuf,
                hash,
            });
        }
        let (version, used_v) = varint::decode(input)?;
        if version != 1 {
            return Err(TypesError::InvalidCid(format!(
                "unsupported CID version {version}"
            )));
        }
        let (codec_code, used_c) = varint::decode(&input[used_v..])?;
        let hash = Multihash::from_bytes(&input[used_v + used_c..])?;
        Ok(Self {
            version: CidVersion::V1,
            codec: Multicodec::from_code(codec_code),
            hash,
        })
    }

    /// Canonical string form: base58btc for CIDv0 ("Qm…"), multibase
    /// lowercase base32 with the `b` prefix for CIDv1 ("bafy…"-style).
    pub fn to_string_form(&self) -> String {
        match self.version {
            CidVersion::V0 => encoding::base58btc_encode(&self.to_bytes()),
            CidVersion::V1 => {
                let mut s = String::from("b");
                s.push_str(&encoding::base32_lower_encode(&self.to_bytes()));
                s
            }
        }
    }

    /// Parses either string form.
    pub fn parse(input: &str) -> Result<Self, TypesError> {
        if input.starts_with("Qm") && input.len() == 46 {
            let bytes = encoding::base58btc_decode(input)?;
            return Self::from_bytes(&bytes);
        }
        if let Some(rest) = input.strip_prefix('b') {
            let bytes = encoding::base32_lower_decode(rest)?;
            return Self::from_bytes(&bytes);
        }
        Err(TypesError::InvalidCid(format!(
            "unrecognized CID string {input:?}"
        )))
    }

    /// A stable 64-bit key for this CID, convenient for dense hash maps in
    /// analysis code. Derived from the first 8 digest bytes.
    pub fn short_key(&self) -> u64 {
        let d = self.hash.digest();
        let mut key = [0u8; 8];
        let n = d.len().min(8);
        key[..n].copy_from_slice(&d[..n]);
        u64::from_be_bytes(key)
    }
}

impl std::fmt::Display for Cid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_string_form())
    }
}

impl std::fmt::Debug for Cid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cid({})", self.to_string_form())
    }
}

impl std::str::FromStr for Cid {
    type Err = TypesError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Cid::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn v0_string_form_starts_with_qm() {
        let cid = Cid::new_v0(b"hello");
        let s = cid.to_string_form();
        assert!(s.starts_with("Qm"), "{s}");
        assert_eq!(s.len(), 46);
    }

    #[test]
    fn v1_string_form_starts_with_b() {
        let cid = Cid::new_v1(Multicodec::Raw, b"hello");
        assert!(cid.to_string_form().starts_with('b'));
    }

    #[test]
    fn v0_roundtrip_via_string() {
        let cid = Cid::new_v0(b"some directory node");
        let parsed: Cid = cid.to_string_form().parse().unwrap();
        assert_eq!(parsed, cid);
        assert_eq!(parsed.version(), CidVersion::V0);
        assert_eq!(parsed.codec(), Multicodec::DagProtobuf);
    }

    #[test]
    fn v1_roundtrip_via_string_and_bytes() {
        for codec in [Multicodec::Raw, Multicodec::DagCbor, Multicodec::EthereumTx] {
            let cid = Cid::new_v1(codec, b"payload");
            assert_eq!(Cid::parse(&cid.to_string_form()).unwrap(), cid);
            assert_eq!(Cid::from_bytes(&cid.to_bytes()).unwrap(), cid);
        }
    }

    #[test]
    fn verifies_content() {
        let cid = Cid::new_v1(Multicodec::Raw, b"data");
        assert!(cid.verifies(b"data"));
        assert!(!cid.verifies(b"tampered"));
    }

    #[test]
    fn v0_rejects_non_dagpb() {
        let mh = Multihash::sha2_256(b"x");
        assert!(Cid::from_parts(CidVersion::V0, Multicodec::Raw, mh).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Cid::parse("not a cid").is_err());
        assert!(Cid::parse("").is_err());
        assert!(Cid::parse("QmtooShort").is_err());
    }

    #[test]
    fn distinct_content_distinct_cids() {
        assert_ne!(Cid::new_v0(b"a"), Cid::new_v0(b"b"));
        assert_ne!(
            Cid::new_v1(Multicodec::Raw, b"a"),
            Cid::new_v1(Multicodec::DagCbor, b"a"),
            "same data, different codec must differ"
        );
    }

    /// `write_bytes` and `encoded_len` are `to_bytes` without the vector, and
    /// `to_bytes` is still the byte layout it always was: a CIDv0, a CIDv1,
    /// and a heap digest whose length needs a two-byte varint.
    #[test]
    fn write_bytes_and_encoded_len_match_to_bytes() {
        let digest = crate::sha256::sha256(b"x");
        let long = vec![0x5a; 200];
        let cases = [
            (Cid::new_v0(b"x"), [&[0x12, 0x20][..], &digest].concat()),
            (
                Cid::new_v1(Multicodec::Raw, b"x"),
                [&[0x01, 0x55, 0x12, 0x20][..], &digest].concat(),
            ),
            (
                Cid::from_parts(CidVersion::V1, Multicodec::Raw, Multihash::identity(&long))
                    .unwrap(),
                [&[0x01, 0x55, 0x00, 0xc8, 0x01][..], &long].concat(),
            ),
        ];
        for (cid, expected) in cases {
            assert_eq!(cid.to_bytes(), expected, "{cid:?}");
            assert_eq!(cid.encoded_len(), expected.len(), "{cid:?}");
            assert_eq!(cid.hash().encoded_len(), cid.hash().to_bytes().len());
            let mut out = vec![0xee];
            cid.write_bytes(&mut out);
            assert_eq!(out[0], 0xee, "write_bytes appends");
            assert_eq!(&out[1..], &expected[..], "{cid:?}");
            assert_eq!(Cid::from_bytes(&expected).unwrap(), cid);
        }
    }

    #[test]
    fn short_key_is_stable() {
        let cid = Cid::new_v1(Multicodec::Raw, b"data");
        assert_eq!(cid.short_key(), cid.clone().short_key());
    }

    proptest! {
        #[test]
        fn roundtrip_any_content(data in proptest::collection::vec(any::<u8>(), 0..256),
                                 codec_idx in 0usize..5) {
            let codecs = [Multicodec::DagProtobuf, Multicodec::Raw, Multicodec::DagCbor,
                          Multicodec::GitRaw, Multicodec::EthereumTx];
            let cid = Cid::new_v1(codecs[codec_idx], &data);
            prop_assert_eq!(Cid::parse(&cid.to_string_form()).unwrap(), cid.clone());
            prop_assert_eq!(Cid::from_bytes(&cid.to_bytes()).unwrap(), cid.clone());
            prop_assert!(cid.verifies(&data));

            let cid0 = Cid::new_v0(&data);
            prop_assert_eq!(Cid::parse(&cid0.to_string_form()).unwrap(), cid0);
        }
    }
}
