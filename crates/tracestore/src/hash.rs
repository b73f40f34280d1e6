//! The workspace's keyed hasher for peer IDs, CIDs and addresses.
//!
//! Those keys come out of trace files and off the wire, so a map of them must
//! not hash with anything the author of a file could know. SipHash (the
//! standard library's default) is keyed but costs more per key than
//! everything else the chunk encoder and the flagging engine do with it.
//! [`WordHasher`] is one fold-multiply per 8-byte word — the construction
//! `foldhash` is built on — under two seeds that [`WordHashBuilder::random`]
//! draws from the standard library's per-process randomness: without the
//! seeds, keys cannot be chosen to collide.
//!
//! Every map that takes this hasher also compares whole keys on a hit, so a
//! hash only ever *places* a key.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// `a × b` as 128 bits, the two halves xor-ed together: every bit of either
/// factor reaches every bit of the result.
#[inline]
fn fold_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    product as u64 ^ (product >> 64) as u64
}

/// One fold-multiply per 8-byte word of what it is fed, keyed by the two
/// seeds of its [`WordHashBuilder`].
#[derive(Debug, Clone)]
pub struct WordHasher {
    state: u64,
    multiplier: u64,
}

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = fold_multiply(self.state ^ word, self.multiplier);
    }

    // What a derived `Hash` feeds besides byte strings: slice lengths and
    // enum discriminants.
    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn write_isize(&mut self, word: isize) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// The seeds of a family of [`WordHasher`]s. Draw them per table with
/// [`WordHashBuilder::random`] and never let them leave it.
#[derive(Debug, Clone)]
pub struct WordHashBuilder {
    initial: u64,
    multiplier: u64,
}

impl WordHashBuilder {
    /// Fresh seeds from the standard library's per-process randomness.
    pub fn random() -> Self {
        let random = RandomState::new();
        // An even multiplier would shift the low bits out of every product.
        Self::from_seeds(random.hash_one(0u8), random.hash_one(1u8) | 1)
    }

    /// Fixed seeds, for tests that need chosen hashes: under
    /// `from_seeds(0, 0)` every key hashes to 0. A map of outside input
    /// takes [`WordHashBuilder::random`].
    pub fn from_seeds(initial: u64, multiplier: u64) -> Self {
        Self {
            initial,
            multiplier,
        }
    }
}

impl BuildHasher for WordHashBuilder {
    type Hasher = WordHasher;

    #[inline]
    fn build_hasher(&self) -> WordHasher {
        WordHasher {
            state: self.initial,
            multiplier: self.multiplier,
        }
    }
}
