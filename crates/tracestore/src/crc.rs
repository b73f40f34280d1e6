//! CRC-32 (IEEE 802.3 polynomial), used as the per-chunk and footer checksum
//! of the segment format.
//!
//! Every stored byte passes through here at least twice (once when its frame
//! is written, once on every read), so the checksum is table-driven:
//! slice-by-8 over a `const`-built 8 KiB table, eight input bytes per step.
//! The bit-at-a-time form it replaced ran at about 190 MB/s and was over half
//! of chunk decode; it survives as the test oracle.

/// Reflected polynomial of CRC-32/IEEE.
const POLY: u32 = 0xedb8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes, which is what lets eight
/// bytes be folded in with eight independent lookups.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut state = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            state = (state >> 1) ^ (POLY & (state & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = state;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let previous = tables[k - 1][byte];
            tables[k][byte] = (previous >> 8) ^ tables[0][(previous & 0xff) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_end(update(crc32_begin(), data))
}

/// Incremental form: feed successive slices, starting from
/// [`crc32_begin`]'s state, and close with [`crc32_end`].
pub fn update(mut state: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let low = state ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        state = TABLES[7][(low & 0xff) as usize]
            ^ TABLES[6][((low >> 8) & 0xff) as usize]
            ^ TABLES[5][((low >> 16) & 0xff) as usize]
            ^ TABLES[4][(low >> 24) as usize]
            ^ TABLES[3][usize::from(word[4])]
            ^ TABLES[2][usize::from(word[5])]
            ^ TABLES[1][usize::from(word[6])]
            ^ TABLES[0][usize::from(word[7])];
    }
    for &byte in words.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ u32::from(byte)) & 0xff) as usize];
    }
    state
}

/// Initial state for incremental CRC computation.
pub fn crc32_begin() -> u32 {
    0xffff_ffff
}

/// Finalizes an incremental CRC state.
pub fn crc32_end(state: u32) -> u32 {
    state ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The definition, one bit at a time: the oracle [`update`] must equal.
    fn bitwise_update(mut state: u32, data: &[u8]) -> u32 {
        for &byte in data {
            state ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (state & 1).wrapping_neg();
                state = (state >> 1) ^ (POLY & mask);
            }
        }
        state
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut bytes = vec![0u8; len];
        StdRng::seed_from_u64(seed).fill(bytes.as_mut_slice());
        bytes
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn matches_bitwise_oracle_at_every_short_length_and_alignment() {
        let buffer = random_bytes(64 + 8, 1);
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &buffer[offset..offset + len];
                for state in [crc32_begin(), 0, 0x1234_5678] {
                    assert_eq!(
                        update(state, data),
                        bitwise_update(state, data),
                        "offset {offset}, length {len}, state {state:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = random_bytes(257, 2);
        let whole = crc32(&data);
        assert_eq!(whole, crc32_end(bitwise_update(crc32_begin(), &data)));
        for split in 0..=data.len() {
            let (head, tail) = data.split_at(split);
            let state = update(update(crc32_begin(), head), tail);
            assert_eq!(crc32_end(state), whole, "split at {split}");
        }
    }

    proptest! {
        #[test]
        fn matches_bitwise_oracle_on_arbitrary_input(
            data in proptest::collection::vec(any::<u8>(), 0..64 * 1024 + 1),
            state: u32,
            split: usize,
        ) {
            let expected = bitwise_update(state, &data);
            prop_assert_eq!(update(state, &data), expected);
            let (head, tail) = data.split_at(split % (data.len() + 1));
            prop_assert_eq!(update(update(state, head), tail), expected);
        }
    }

    #[test]
    fn detects_corruption() {
        let mut data = b"some chunk payload".to_vec();
        let clean = crc32(&data);
        data[3] ^= 0x40;
        assert_ne!(crc32(&data), clean);
    }
}
