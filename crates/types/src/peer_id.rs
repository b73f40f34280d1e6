//! Peer identities.
//!
//! IPFS nodes are identified by the hash of their public key, `H(k_pub)`.
//! This module provides a [`PeerId`] (the 256-bit identifier living in the
//! Kademlia key space), a simulated [`Keypair`] that deterministically derives
//! a peer ID, and the XOR distance metric used by the DHT and by the
//! uniformity analysis of Fig. 3.

use crate::encoding;
use crate::error::TypesError;
use crate::sha256;
use rand::Rng;

/// Number of bytes in a peer ID.
pub const PEER_ID_LEN: usize = 32;
/// Number of bits in a peer ID, i.e. the height of the Kademlia key space.
pub const PEER_ID_BITS: usize = PEER_ID_LEN * 8;

/// A 256-bit node identifier in the Kademlia key space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId([u8; PEER_ID_LEN]);

impl PeerId {
    /// Wraps raw bytes as a peer ID.
    pub fn from_bytes(bytes: [u8; PEER_ID_LEN]) -> Self {
        Self(bytes)
    }

    /// Derives a peer ID from a public key, `H(k_pub)`.
    pub fn from_public_key(public_key: &[u8]) -> Self {
        Self(sha256::sha256(public_key))
    }

    /// Samples a uniformly random peer ID.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; PEER_ID_LEN];
        rng.fill(&mut bytes);
        Self(bytes)
    }

    /// Deterministically derives the `index`-th peer ID of a simulation seed.
    /// Distinct `(seed, index)` pairs give independent, uniformly distributed
    /// IDs (they are SHA-256 outputs), which is what the Fig. 3 uniformity
    /// analysis relies on.
    pub fn derived(seed: u64, index: u64) -> Self {
        let mut input = [0u8; 16];
        input[..8].copy_from_slice(&seed.to_be_bytes());
        input[8..].copy_from_slice(&index.to_be_bytes());
        Self(sha256::sha256(&input))
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; PEER_ID_LEN] {
        &self.0
    }

    /// XOR distance to another peer ID.
    pub fn distance(&self, other: &PeerId) -> Distance {
        let mut out = [0u8; PEER_ID_LEN];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *o = a ^ b;
        }
        Distance(out)
    }

    /// The Kademlia bucket index for `other` relative to `self`: the position
    /// of the most significant differing bit, in `0..PEER_ID_BITS`. Returns
    /// `None` when the IDs are equal.
    pub fn bucket_index(&self, other: &PeerId) -> Option<usize> {
        let d = self.distance(other);
        let lz = d.leading_zeros();
        if lz == PEER_ID_BITS {
            None
        } else {
            Some(PEER_ID_BITS - 1 - lz)
        }
    }

    /// Interprets the leading 8 bytes as a fraction of the key space in
    /// `[0, 1)`. Used for the quantile-quantile uniformity analysis (Fig. 3).
    pub fn as_unit_fraction(&self) -> f64 {
        let mut head = [0u8; 8];
        head.copy_from_slice(&self.0[..8]);
        u64::from_be_bytes(head) as f64 / (u64::MAX as f64 + 1.0)
    }

    /// Textual form: base58btc of the identifier bytes (analogous to the
    /// "Qm…"/"12D3Koo…" strings printed by IPFS tooling).
    pub fn to_base58(&self) -> String {
        encoding::base58btc_encode(&self.0)
    }

    /// Parses the textual form produced by [`PeerId::to_base58`].
    pub fn from_base58(s: &str) -> Result<Self, TypesError> {
        let bytes = encoding::base58btc_decode(s)?;
        let arr: [u8; PEER_ID_LEN] = bytes
            .try_into()
            .map_err(|_| TypesError::InvalidPeerId(format!("wrong length for {s:?}")))?;
        Ok(Self(arr))
    }
}

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_base58())
    }
}

impl std::fmt::Debug for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Short prefix keeps simulation logs readable.
        write!(
            f,
            "PeerId({}…)",
            &self.to_base58()[..8.min(self.to_base58().len())]
        )
    }
}

/// XOR distance between two peer IDs, ordered as a 256-bit big-endian integer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Distance([u8; PEER_ID_LEN]);

impl Distance {
    /// The all-zero distance (identical IDs).
    pub fn zero() -> Self {
        Self([0u8; PEER_ID_LEN])
    }

    /// Number of leading zero bits.
    pub fn leading_zeros(&self) -> usize {
        let mut count = 0;
        for byte in self.0 {
            if byte == 0 {
                count += 8;
            } else {
                count += byte.leading_zeros() as usize;
                break;
            }
        }
        count
    }

    /// Raw distance bytes (big-endian).
    pub fn as_bytes(&self) -> &[u8; PEER_ID_LEN] {
        &self.0
    }

    /// An `f64` approximation of the distance as a fraction of the maximum
    /// possible distance, in `[0, 1]`. Useful for plotting and heuristics.
    pub fn as_unit_fraction(&self) -> f64 {
        let mut head = [0u8; 8];
        head.copy_from_slice(&self.0[..8]);
        u64::from_be_bytes(head) as f64 / u64::MAX as f64
    }
}

impl std::fmt::Debug for Distance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Distance(lz={})", self.leading_zeros())
    }
}

/// A simulated keypair. Real IPFS peers hold Ed25519 or RSA keys; for the
/// simulation only the mapping `public key → peer ID` matters, so the key
/// material is random bytes and the peer ID is its SHA-256 hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Keypair {
    public: [u8; 32],
    secret: [u8; 32],
}

impl Keypair {
    /// Generates a fresh random keypair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut public = [0u8; 32];
        let mut secret = [0u8; 32];
        rng.fill(&mut public);
        rng.fill(&mut secret);
        Self { public, secret }
    }

    /// The public key bytes.
    pub fn public_key(&self) -> &[u8; 32] {
        &self.public
    }

    /// The peer ID derived from this keypair.
    pub fn peer_id(&self) -> PeerId {
        PeerId::from_public_key(&self.public)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distance_to_self_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let id = PeerId::random(&mut rng);
        assert_eq!(id.distance(&id), Distance::zero());
        assert_eq!(id.bucket_index(&id), None);
    }

    #[test]
    fn distance_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = PeerId::random(&mut rng);
        let b = PeerId::random(&mut rng);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn bucket_index_of_adjacent_ids() {
        let mut base = [0u8; PEER_ID_LEN];
        base[0] = 0b1000_0000;
        let a = PeerId::from_bytes([0u8; PEER_ID_LEN]);
        let b = PeerId::from_bytes(base);
        // They differ in the most significant bit → bucket 255.
        assert_eq!(a.bucket_index(&b), Some(PEER_ID_BITS - 1));

        let mut low = [0u8; PEER_ID_LEN];
        low[PEER_ID_LEN - 1] = 1;
        let c = PeerId::from_bytes(low);
        assert_eq!(a.bucket_index(&c), Some(0));
    }

    #[test]
    fn base58_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let id = PeerId::random(&mut rng);
        assert_eq!(PeerId::from_base58(&id.to_base58()).unwrap(), id);
    }

    #[test]
    fn from_base58_rejects_wrong_length() {
        assert!(PeerId::from_base58("2g").is_err());
    }

    #[test]
    fn keypair_peer_id_is_hash_of_public_key() {
        let mut rng = StdRng::seed_from_u64(4);
        let kp = Keypair::generate(&mut rng);
        assert_eq!(
            kp.peer_id(),
            PeerId::from_bytes(sha256::sha256(kp.public_key()))
        );
    }

    #[test]
    fn derived_ids_are_deterministic_and_distinct() {
        assert_eq!(PeerId::derived(7, 1), PeerId::derived(7, 1));
        assert_ne!(PeerId::derived(7, 1), PeerId::derived(7, 2));
        assert_ne!(PeerId::derived(7, 1), PeerId::derived(8, 1));
    }

    #[test]
    fn unit_fraction_in_range_and_monotone_in_prefix() {
        let lo = PeerId::from_bytes([0u8; PEER_ID_LEN]);
        let hi = PeerId::from_bytes([0xffu8; PEER_ID_LEN]);
        assert_eq!(lo.as_unit_fraction(), 0.0);
        // f64 rounding can land exactly on 1.0 for the all-ones ID; the
        // important property is that it sits at the top of the unit interval.
        assert!(hi.as_unit_fraction() <= 1.0 && hi.as_unit_fraction() > 0.999_999);
    }

    #[test]
    fn derived_ids_are_approximately_uniform() {
        // Coarse uniformity check: bucket 4096 derived IDs into 16 bins; each
        // bin should be within 35% of the expected count.
        let n = 4096;
        let mut bins = [0usize; 16];
        for i in 0..n {
            let f = PeerId::derived(42, i as u64).as_unit_fraction();
            bins[(f * 16.0) as usize] += 1;
        }
        let expected = n / 16;
        for (i, &count) in bins.iter().enumerate() {
            assert!(
                (count as f64) > expected as f64 * 0.65 && (count as f64) < expected as f64 * 1.35,
                "bin {i} count {count} far from expected {expected}"
            );
        }
    }

    proptest! {
        #[test]
        fn triangle_like_property(a_bytes: [u8; 32], b_bytes: [u8; 32], c_bytes: [u8; 32]) {
            // XOR metric: d(a,c) = d(a,b) XOR d(b,c); in particular
            // d(a,c) <= d(a,b) + d(b,c) holds for the integer interpretation.
            let a = PeerId::from_bytes(a_bytes);
            let b = PeerId::from_bytes(b_bytes);
            let c = PeerId::from_bytes(c_bytes);
            let dab = a.distance(&b).as_unit_fraction();
            let dbc = b.distance(&c).as_unit_fraction();
            let dac = a.distance(&c).as_unit_fraction();
            prop_assert!(dac <= dab + dbc + 1e-12);
        }

        #[test]
        fn distance_zero_iff_equal(a_bytes: [u8; 32], b_bytes: [u8; 32]) {
            let a = PeerId::from_bytes(a_bytes);
            let b = PeerId::from_bytes(b_bytes);
            prop_assert_eq!(a.distance(&b) == Distance::zero(), a_bytes == b_bytes);
        }

        #[test]
        fn peer_id_base58_roundtrip(bytes: [u8; 32]) {
            let id = PeerId::from_bytes(bytes);
            prop_assert_eq!(PeerId::from_base58(&id.to_base58()).unwrap(), id);
        }
    }
}
