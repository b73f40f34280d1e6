//! Hash maps keyed by dense simulation indices.
//!
//! A block store or a gateway cache keys its entries by content index: a
//! small integer the simulator hands out itself, never bytes from outside.
//! Such a key needs no keyed hash, so [`IndexHasher`] is one multiply and one
//! rotate where the standard library would run SipHash over a whole CID.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map from a dense `u32` index to `V`.
pub type IndexMap<V> = HashMap<u32, V, BuildHasherDefault<IndexHasher>>;

/// Multiply-rotate hashing of integer keys: the multiply carries every key
/// bit into the high half of the word, the rotate brings part of that half
/// down to the bits a table uses to pick a bucket.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_map_round_trips_dense_keys() {
        let mut map: IndexMap<u32> = IndexMap::default();
        for key in 0..10_000u32 {
            map.insert(key, key * 3);
        }
        assert_eq!(map.len(), 10_000);
        assert!((0..10_000u32).all(|key| map[&key] == key * 3));
        assert!(!map.contains_key(&10_000));
    }
}
