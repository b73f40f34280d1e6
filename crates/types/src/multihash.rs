//! Multihash: self-describing hash digests (`<code><length><digest>`).
//!
//! IPFS wraps every digest in a multihash so that the hash function is
//! explicit in the identifier. This crate supports SHA-256 (the IPFS default,
//! code `0x12`) and the identity hash (code `0x00`, used for tiny inline
//! blocks), which is all the monitoring pipeline needs.

use crate::error::TypesError;
use crate::sha256;
use crate::varint;

/// Multihash code for SHA2-256.
pub const SHA2_256_CODE: u64 = 0x12;
/// Multihash code for the identity "hash".
pub const IDENTITY_CODE: u64 = 0x00;

/// The hash function identified by a multihash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashAlgorithm {
    /// SHA2-256, the IPFS default.
    Sha2_256,
    /// Identity: the "digest" is the data itself (only for very small blocks).
    Identity,
}

impl HashAlgorithm {
    /// Multihash code of the algorithm.
    pub fn code(self) -> u64 {
        match self {
            HashAlgorithm::Sha2_256 => SHA2_256_CODE,
            HashAlgorithm::Identity => IDENTITY_CODE,
        }
    }

    /// Looks up an algorithm from its multihash code.
    pub fn from_code(code: u64) -> Result<Self, TypesError> {
        match code {
            SHA2_256_CODE => Ok(HashAlgorithm::Sha2_256),
            IDENTITY_CODE => Ok(HashAlgorithm::Identity),
            other => Err(TypesError::UnknownHashCode(other)),
        }
    }
}

/// Digests at most this long are stored inline in a [`Multihash`].
const INLINE_DIGEST_CAPACITY: usize = 32;

/// Digest storage with an inline fast path.
///
/// SHA-256 digests (32 bytes) — effectively every digest the monitoring
/// pipeline handles — and short identity digests live inline, so cloning a
/// `Multihash` (and therefore a `Cid`) is a flat copy with no heap
/// allocation. The trace readers materialize an owned `Cid` per decoded
/// entry from a per-chunk dictionary; inline storage is what makes that
/// materialization allocation-free. Longer identity digests fall back to a
/// heap vector.
#[derive(Clone)]
enum Digest {
    Inline {
        len: u8,
        bytes: [u8; INLINE_DIGEST_CAPACITY],
    },
    Heap(Vec<u8>),
}

impl Digest {
    fn new(digest: &[u8]) -> Self {
        if digest.len() <= INLINE_DIGEST_CAPACITY {
            let mut bytes = [0u8; INLINE_DIGEST_CAPACITY];
            bytes[..digest.len()].copy_from_slice(digest);
            Digest::Inline {
                len: digest.len() as u8,
                bytes,
            }
        } else {
            Digest::Heap(digest.to_vec())
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Digest::Inline { len, bytes } => &bytes[..*len as usize],
            Digest::Heap(vec) => vec,
        }
    }
}

// Equality, ordering and hashing follow the digest *bytes*, not the storage
// strategy, so inline and heap representations of the same digest coincide.
impl PartialEq for Digest {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Digest {}

impl PartialOrd for Digest {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Digest {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Digest {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// A self-describing hash digest.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Multihash {
    code: u64,
    digest: Digest,
}

impl Multihash {
    /// Hashes `data` with SHA2-256 and wraps the digest.
    pub fn sha2_256(data: &[u8]) -> Self {
        Self {
            code: SHA2_256_CODE,
            digest: Digest::new(&sha256::sha256(data)),
        }
    }

    /// Wraps `data` itself as an identity multihash.
    pub fn identity(data: &[u8]) -> Self {
        Self {
            code: IDENTITY_CODE,
            digest: Digest::new(data),
        }
    }

    /// Builds a multihash from raw parts, validating digest length for known
    /// fixed-size algorithms.
    pub fn from_parts(code: u64, digest: Vec<u8>) -> Result<Self, TypesError> {
        if code == SHA2_256_CODE && digest.len() != sha256::DIGEST_SIZE {
            return Err(TypesError::InvalidDigestLength {
                expected: sha256::DIGEST_SIZE,
                actual: digest.len(),
            });
        }
        // Reject codes we do not understand so that wire decoding surfaces
        // corruption early.
        HashAlgorithm::from_code(code)?;
        Ok(Self {
            code,
            digest: Digest::new(&digest),
        })
    }

    /// The multihash function code.
    pub fn code(&self) -> u64 {
        self.code
    }

    /// The hash algorithm, if known.
    pub fn algorithm(&self) -> HashAlgorithm {
        HashAlgorithm::from_code(self.code).expect("constructors only accept known codes")
    }

    /// The raw digest bytes.
    pub fn digest(&self) -> &[u8] {
        self.digest.as_slice()
    }

    /// Encodes to the canonical `<varint code><varint len><digest>` form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write_bytes(&mut out);
        out
    }

    /// Appends the [`Multihash::to_bytes`] form to `out`, allocating nothing
    /// of its own.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        let digest = self.digest.as_slice();
        varint::encode(self.code, out);
        varint::encode(digest.len() as u64, out);
        out.extend_from_slice(digest);
    }

    /// Length of the [`Multihash::to_bytes`] form.
    pub fn encoded_len(&self) -> usize {
        let digest = self.digest.as_slice().len();
        varint::encoded_len(self.code) + varint::encoded_len(digest as u64) + digest
    }

    /// Parses a multihash from the front of `input`, returning it together
    /// with the number of bytes consumed.
    pub fn from_bytes_prefix(input: &[u8]) -> Result<(Self, usize), TypesError> {
        let (code, used_code) = varint::decode(input)?;
        let (len, used_len) = varint::decode(&input[used_code..])?;
        let header = used_code + used_len;
        let len = usize::try_from(len).map_err(|_| TypesError::VarintOverflow)?;
        if input.len() < header + len {
            return Err(TypesError::UnexpectedEof);
        }
        let digest = input[header..header + len].to_vec();
        let mh = Multihash::from_parts(code, digest)?;
        Ok((mh, header + len))
    }

    /// Parses a multihash that must span the entire input.
    pub fn from_bytes(input: &[u8]) -> Result<Self, TypesError> {
        let (mh, used) = Self::from_bytes_prefix(input)?;
        if used != input.len() {
            return Err(TypesError::InvalidCid(
                "trailing bytes after multihash".into(),
            ));
        }
        Ok(mh)
    }

    /// Verifies that this multihash is the digest of `data`.
    pub fn verifies(&self, data: &[u8]) -> bool {
        match HashAlgorithm::from_code(self.code) {
            Ok(HashAlgorithm::Sha2_256) => sha256::sha256(data)[..] == *self.digest.as_slice(),
            Ok(HashAlgorithm::Identity) => data == self.digest.as_slice(),
            Err(_) => false,
        }
    }
}

impl std::fmt::Debug for Multihash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Multihash(code={:#x}, digest={})",
            self.code,
            sha256::to_hex(self.digest.as_slice())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sha256_multihash_has_expected_prefix() {
        let mh = Multihash::sha2_256(b"hello");
        let bytes = mh.to_bytes();
        // 0x12 (sha2-256), 0x20 (32 bytes), then the digest.
        assert_eq!(bytes[0], 0x12);
        assert_eq!(bytes[1], 0x20);
        assert_eq!(bytes.len(), 34);
        assert_eq!(&bytes[2..], &sha256::sha256(b"hello"));
    }

    #[test]
    fn verifies_correct_and_rejects_tampered_data() {
        let mh = Multihash::sha2_256(b"block data");
        assert!(mh.verifies(b"block data"));
        assert!(!mh.verifies(b"other data"));
    }

    #[test]
    fn identity_roundtrip() {
        let mh = Multihash::identity(b"tiny");
        assert!(mh.verifies(b"tiny"));
        let parsed = Multihash::from_bytes(&mh.to_bytes()).unwrap();
        assert_eq!(parsed, mh);
        assert_eq!(parsed.algorithm(), HashAlgorithm::Identity);
    }

    #[test]
    fn rejects_wrong_digest_length() {
        let err = Multihash::from_parts(SHA2_256_CODE, vec![0u8; 20]).unwrap_err();
        assert_eq!(
            err,
            TypesError::InvalidDigestLength {
                expected: 32,
                actual: 20
            }
        );
    }

    #[test]
    fn rejects_unknown_code() {
        assert!(matches!(
            Multihash::from_parts(0x16, vec![0u8; 32]),
            Err(TypesError::UnknownHashCode(0x16))
        ));
    }

    #[test]
    fn from_bytes_rejects_truncated_input() {
        let mh = Multihash::sha2_256(b"x");
        let bytes = mh.to_bytes();
        assert!(Multihash::from_bytes(&bytes[..10]).is_err());
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut bytes = Multihash::sha2_256(b"x").to_bytes();
        bytes.push(0xff);
        assert!(Multihash::from_bytes(&bytes).is_err());
    }

    #[test]
    fn prefix_parse_reports_consumed_length() {
        let mut bytes = Multihash::sha2_256(b"x").to_bytes();
        let expected_len = bytes.len();
        bytes.extend_from_slice(b"suffix");
        let (mh, used) = Multihash::from_bytes_prefix(&bytes).unwrap();
        assert_eq!(used, expected_len);
        assert!(mh.verifies(b"x"));
    }

    proptest! {
        #[test]
        fn roundtrip_sha256(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mh = Multihash::sha2_256(&data);
            let parsed = Multihash::from_bytes(&mh.to_bytes()).unwrap();
            prop_assert_eq!(&parsed, &mh);
            prop_assert!(parsed.verifies(&data));
        }

        #[test]
        fn distinct_data_distinct_digest(a in proptest::collection::vec(any::<u8>(), 0..64),
                                         b in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assume!(a != b);
            prop_assert_ne!(Multihash::sha2_256(&a), Multihash::sha2_256(&b));
        }
    }
}
