//! The per-chunk codec byte.
//!
//! A chunk frame carries a codec byte ahead of the encoded body (both
//! covered by the frame CRC):
//!
//! ```text
//! chunk   := payload_len:varint payload crc32(payload):u32le
//! payload := codec:u8 body
//! ```
//!
//! There is one chunk layout, the column-aware encoding of [`crate::col`]
//! (dictionary indexes bit-packed to the dictionary's actual width,
//! frame-of-reference + delta timestamps with per-miniblock bit widths,
//! run-length request-type/flag planes), and so one accepted codec byte,
//! [`CHUNK_CODEC`]. Collection writes it and every reader reads it; the
//! byte stays in the frame so that a reader from before or after a layout
//! change refuses what it cannot read instead of misparsing it.
//!
//! Decoding is strictly validated: any other codec byte surfaces
//! [`SegmentError::UnknownCodec`], and any structural damage to a body
//! surfaces [`SegmentError::Corrupt`] — never a panic. The CRC already makes
//! accidental damage vanishingly unlikely; the typed errors are the defense
//! against crafted input.

use crate::segment::SegmentError;

/// The codec byte of every chunk frame: the `Col` layout of [`crate::col`].
/// Bytes 0 (raw column planes) and 1 (LZ over them) belonged to layouts
/// this build no longer reads.
pub const CHUNK_CODEC: u8 = 2;

/// Accepts [`CHUNK_CODEC`] and refuses every other byte as
/// [`SegmentError::UnknownCodec`].
pub(crate) fn check(byte: u8) -> Result<(), SegmentError> {
    match byte {
        CHUNK_CODEC => Ok(()),
        other => Err(SegmentError::UnknownCodec(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_bytes_are_stable() {
        assert_eq!(CHUNK_CODEC, 2);
        assert!(check(2).is_ok());
        for byte in [0, 1, 3, 7, u8::MAX] {
            assert!(
                matches!(check(byte), Err(SegmentError::UnknownCodec(b)) if b == byte),
                "{byte}"
            );
        }
    }
}
