//! Unsigned LEB128 varints, the integer encoding used throughout the IPFS
//! stack (multihash prefixes, CIDv1 prefixes, Bitswap wire messages) and by
//! every column of a trace chunk.
//!
//! [`decode`] is the hot call of chunk parsing — four per stored row — and
//! nearly every value there is one or two bytes long, so those two lengths
//! are decoded inline and the byte-at-a-time loop with its overflow checks
//! stays out of line for the rest. It is a scalar fast path, not a second
//! decoder: the tests hold it to the general loop on every one- and two-byte
//! input (every three-byte input in the `#[ignore]`d release test CI runs).

use crate::error::TypesError;

/// Maximum number of bytes a `u64` varint can occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the unsigned-varint encoding of `value` to `out` and returns the
/// number of bytes written.
pub fn encode(mut value: u64, out: &mut Vec<u8>) -> usize {
    let mut written = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            written += 1;
            return written;
        }
        out.push(byte | 0x80);
        written += 1;
    }
}

/// Encodes `value` into a fresh vector.
pub fn encode_to_vec(value: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAX_VARINT_LEN);
    encode(value, &mut out);
    out
}

/// Decodes an unsigned varint from the front of `input`.
///
/// Returns the decoded value and the number of bytes consumed.
///
/// One- and two-byte encodings — every dictionary index, timestamp delta and
/// length prefix a trace chunk holds — are decoded inline at the call site;
/// anything else goes to the general decoder, whose verdict (value, length
/// or error) the two short arms reproduce exactly.
#[inline]
pub fn decode(input: &[u8]) -> Result<(u64, usize), TypesError> {
    match *input {
        [only, ..] if only < 0x80 => Ok((u64::from(only), 1)),
        // A zero second byte is the non-canonical `0x80 0x00` family: left
        // to the general decoder, which rejects it.
        [low, high, ..] if high < 0x80 && high != 0 => {
            Ok((u64::from(low & 0x7f) | u64::from(high) << 7, 2))
        }
        _ => decode_general(input),
    }
}

/// The general decoder: any length, every check. [`decode`] answers one- and
/// two-byte encodings itself and defers everything else here.
#[inline(never)]
fn decode_general(input: &[u8]) -> Result<(u64, usize), TypesError> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(TypesError::VarintOverflow);
        }
        let low = u64::from(byte & 0x7f);
        value = value
            .checked_add(
                low.checked_shl(shift)
                    .filter(|_| shift < 64 && (shift != 63 || low <= 1))
                    .ok_or(TypesError::VarintOverflow)?,
            )
            .ok_or(TypesError::VarintOverflow)?;
        if byte & 0x80 == 0 {
            // Reject non-canonical encodings with a trailing 0x00 continuation.
            if byte == 0 && i > 0 {
                return Err(TypesError::NonCanonicalVarint);
            }
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(TypesError::UnexpectedEof)
}

/// Number of bytes the varint encoding of `value` occupies.
pub fn encoded_len(value: u64) -> usize {
    if value == 0 {
        1
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_encodings() {
        assert_eq!(encode_to_vec(0), vec![0x00]);
        assert_eq!(encode_to_vec(1), vec![0x01]);
        assert_eq!(encode_to_vec(127), vec![0x7f]);
        assert_eq!(encode_to_vec(128), vec![0x80, 0x01]);
        assert_eq!(encode_to_vec(300), vec![0xac, 0x02]);
        assert_eq!(encode_to_vec(0x12), vec![0x12]);
        assert_eq!(encode_to_vec(0x70), vec![0x70]);
    }

    #[test]
    fn decode_consumes_exact_prefix() {
        let mut buf = encode_to_vec(300);
        buf.extend_from_slice(&[0xde, 0xad]);
        let (v, used) = decode(&buf).unwrap();
        assert_eq!(v, 300);
        assert_eq!(used, 2);
    }

    #[test]
    fn decode_empty_is_eof() {
        assert!(matches!(decode(&[]), Err(TypesError::UnexpectedEof)));
    }

    #[test]
    fn decode_unterminated_is_eof() {
        assert!(matches!(
            decode(&[0x80, 0x80]),
            Err(TypesError::UnexpectedEof)
        ));
    }

    #[test]
    fn lone_continuation_byte_is_eof() {
        assert!(matches!(decode(&[0x80]), Err(TypesError::UnexpectedEof)));
    }

    /// The fast path must be indistinguishable from the general decoder:
    /// same value and consumed length, or the same error.
    fn assert_same_as_general(input: &[u8]) {
        assert_eq!(decode(input), decode_general(input), "input {input:02x?}");
    }

    #[test]
    fn fast_path_equals_general_decoder_on_every_short_input() {
        assert_same_as_general(&[]);
        for first in 0..=u8::MAX {
            assert_same_as_general(&[first]);
            for second in 0..=u8::MAX {
                assert_same_as_general(&[first, second]);
            }
        }
    }

    #[test]
    #[ignore = "16.7 M inputs: run in release (`cargo test --release -p ipfs-mon-types varint -- --include-ignored`, as CI does)"]
    fn fast_path_equals_general_decoder_on_every_three_byte_input() {
        for word in 0..1u32 << 24 {
            assert_same_as_general(&word.to_le_bytes()[..3]);
        }
    }

    #[test]
    fn decode_overlong_is_overflow() {
        let buf = [0xffu8; 11];
        assert!(matches!(decode(&buf), Err(TypesError::VarintOverflow)));
    }

    #[test]
    fn decode_u64_max_roundtrip() {
        let buf = encode_to_vec(u64::MAX);
        assert_eq!(decode(&buf).unwrap(), (u64::MAX, buf.len()));
    }

    #[test]
    fn rejects_non_canonical_trailing_zero() {
        // 0x80 0x00 encodes 0 in two bytes; canonical form is a single 0x00.
        assert!(matches!(
            decode(&[0x80, 0x00]),
            Err(TypesError::NonCanonicalVarint)
        ));
    }

    #[test]
    fn encoded_len_matches_encoding() {
        for v in [0u64, 1, 127, 128, 300, 1 << 14, 1 << 21, u64::MAX] {
            assert_eq!(encoded_len(v), encode_to_vec(v).len(), "value {v}");
        }
    }

    proptest! {
        #[test]
        fn fast_path_equals_general_decoder(input in proptest::collection::vec(any::<u8>(), 0..14)) {
            prop_assert_eq!(decode(&input), decode_general(&input));
        }

        #[test]
        fn roundtrip(value: u64) {
            let buf = encode_to_vec(value);
            let (decoded, used) = decode(&buf).unwrap();
            prop_assert_eq!(decoded, value);
            prop_assert_eq!(used, buf.len());
            prop_assert_eq!(buf.len(), encoded_len(value));
        }

        #[test]
        fn roundtrip_with_suffix(value: u64, suffix in proptest::collection::vec(any::<u8>(), 0..16)) {
            let mut buf = encode_to_vec(value);
            let prefix_len = buf.len();
            buf.extend_from_slice(&suffix);
            let (decoded, used) = decode(&buf).unwrap();
            prop_assert_eq!(decoded, value);
            prop_assert_eq!(used, prefix_len);
        }
    }
}
