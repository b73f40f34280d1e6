//! The per-chunk codec byte and the LZ pass behind two of its layouts.
//!
//! A chunk frame carries a codec byte ahead of the encoded body (both
//! covered by the frame CRC):
//!
//! ```text
//! chunk   := payload_len:varint payload crc32(payload):u32le
//! payload := codec:u8 body
//! ```
//!
//! The codec byte is per *chunk*, so one segment — and a fortiori one
//! manifest — may freely mix layouts: readers dispatch on the byte and never
//! consult configuration. That is what makes compaction per-segment (or
//! even per-chunk) a non-event for the read path, and what lets compaction
//! fall back to raw framing for chunks that do not shrink.
//!
//! Who writes which byte is decided by the writer's role, not by a setting;
//! both written layouts come from `segment::encode_chunk`, the one place
//! that knows them:
//!
//! * [`Codec::Raw`] (byte 0), written by collection — the body is the column
//!   planes verbatim, the cheapest chunk to encode, so the live writer keeps
//!   up with the monitors.
//! * [`Codec::Col`] (byte 2), written by compaction
//!   ([`crate::migrate::migrate_manifest`]) — column-aware per-plane
//!   encoding: dictionary indexes bit-packed to the dictionary's actual
//!   width, frame-of-reference + delta timestamps with per-miniblock bit
//!   widths, run-length request-type/flag planes, and an LZ pass over the
//!   result when that is strictly smaller (see [`crate::col`]). Smaller on
//!   disk than the planes, for the months a dataset is kept.
//! * [`Codec::Lz`] (byte 1), written by nobody — the LZ pass applied to the
//!   raw planes. Datasets written before it was retired still read and
//!   still compact to `Col`.
//!
//! Decoding is strictly validated: an unknown codec byte surfaces
//! [`SegmentError::UnknownCodec`], and any structural damage to a compressed
//! body (truncation, out-of-range back-references, length mismatches)
//! surfaces [`SegmentError::Corrupt`] — never a panic. The CRC already makes
//! accidental damage vanishingly unlikely; the typed errors are the defense
//! against crafted input.

use crate::segment::SegmentError;
use ipfs_mon_types::varint;

/// Wire identifier of a chunk body layout.
///
/// The discriminant is the codec byte stored in every chunk frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Column planes stored verbatim.
    #[default]
    Raw = 0,
    /// LZ back-reference compression over the column planes. Decode-only:
    /// no writer emits it.
    Lz = 1,
    /// Column-aware per-plane encoding (bit-packed indexes,
    /// frame-of-reference timestamps, run-length 2-bit planes).
    Col = 2,
}

impl Codec {
    /// The codec byte written into the chunk frame.
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// Looks a codec up from its frame byte.
    pub fn from_byte(byte: u8) -> Result<Self, SegmentError> {
        match byte {
            0 => Ok(Codec::Raw),
            1 => Ok(Codec::Lz),
            2 => Ok(Codec::Col),
            other => Err(SegmentError::UnknownCodec(other)),
        }
    }
}

/// Minimum match length worth a back-reference (shorter matches cost more to
/// encode than the literals they replace).
const MIN_MATCH: usize = 4;
/// Maximum distance a back-reference may look behind.
const MAX_DISTANCE: usize = 1 << 16;
/// log2 of the match-finder hash table size.
const HASH_BITS: u32 = 14;
/// Hard ceiling on a decoded chunk body. Chunks are written at
/// [`crate::segment::SegmentConfig::chunk_capacity`] entries (default 4096,
/// tens of KiB of planes); 256 MiB is orders of magnitude above any sane
/// configuration while still bounding what a crafted `decoded_len` — which
/// match tokens could otherwise amplify essentially without limit — can
/// make the decoder allocate and emit. Bodies above the ceiling are not
/// representable in the compressed format; `encode_chunk` falls back to raw
/// framing for such chunks, so self-written segments always read back.
pub(crate) const MAX_DECODED_LEN: usize = 256 << 20;

fn hash4(bytes: &[u8]) -> usize {
    let word = u32::from_le_bytes(bytes[..4].try_into().expect("4-byte window"));
    (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Greedy LZ back-reference compression of `raw`, appended to `out`.
///
/// Format: `decoded_len:varint token*` where each token is either a literal
/// run — `(len << 1):varint` followed by `len` literal bytes — or a match —
/// `((len - MIN_MATCH) << 1 | 1):varint distance:varint` copying `len` bytes
/// from `distance` bytes back in the decoded output (matches may
/// self-overlap, RLE-style). The encoder uses a single-probe hash table over
/// 4-byte windows (LZ4-style greedy parsing): fast, and plenty for the
/// redundancy profile of packed index columns.
pub(crate) fn lz_compress(raw: &[u8], out: &mut Vec<u8>) {
    debug_assert!(
        raw.len() <= MAX_DECODED_LEN,
        "bodies above MAX_DECODED_LEN are unrepresentable (encode_chunk falls back to raw)"
    );
    varint::encode(raw.len() as u64, out);
    // u32 slots keep the table at 64 KiB (positions fit: the input is
    // capped at MAX_DECODED_LEN < u32::MAX).
    let mut table = vec![u32::MAX; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut literal_start = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        if to > from {
            varint::encode(((to - from) as u64) << 1, out);
            out.extend_from_slice(&raw[from..to]);
        }
    };

    while pos + MIN_MATCH <= raw.len() {
        let slot = hash4(&raw[pos..]);
        let candidate = table[slot] as usize;
        table[slot] = pos as u32;
        let is_match = candidate != u32::MAX as usize
            && pos - candidate <= MAX_DISTANCE
            && raw[candidate..candidate + MIN_MATCH] == raw[pos..pos + MIN_MATCH];
        if !is_match {
            pos += 1;
            continue;
        }
        // Extend the match as far as it goes.
        let mut len = MIN_MATCH;
        while pos + len < raw.len() && raw[candidate + len] == raw[pos + len] {
            len += 1;
        }
        flush_literals(out, literal_start, pos);
        varint::encode((((len - MIN_MATCH) as u64) << 1) | 1, out);
        varint::encode((pos - candidate) as u64, out);
        pos += len;
        literal_start = pos;
    }
    flush_literals(out, literal_start, raw.len());
}

/// Inverse of [`lz_compress`], into a caller-provided buffer (cleared first)
/// so streaming readers recycle one allocation across chunks.
pub(crate) fn lz_decompress(body: &[u8], out: &mut Vec<u8>) -> Result<(), SegmentError> {
    out.clear();
    let corrupt = |what: &str| SegmentError::Corrupt(format!("lz body: {what}"));
    let mut pos = 0usize;
    let take_varint = |pos: &mut usize| -> Result<u64, SegmentError> {
        let (value, used) =
            varint::decode(&body[*pos..]).map_err(|_| corrupt("truncated varint"))?;
        *pos += used;
        Ok(value)
    };

    let decoded_len = take_varint(&mut pos)? as usize;
    // Match tokens amplify: a few encoded bytes can emit an arbitrarily
    // long self-overlapping copy, so the declared length itself must be
    // capped — output and allocation are then bounded by the cap no
    // matter what the tokens claim.
    if decoded_len > MAX_DECODED_LEN {
        return Err(corrupt("declared length exceeds chunk ceiling"));
    }
    out.reserve(decoded_len.min(1 << 20));
    while pos < body.len() {
        let token = take_varint(&mut pos)?;
        if token & 1 == 0 {
            let len = (token >> 1) as usize;
            if len == 0 || body.len() - pos < len {
                return Err(corrupt("truncated literal run"));
            }
            out.extend_from_slice(&body[pos..pos + len]);
            pos += len;
        } else {
            let len = (token >> 1) as usize + MIN_MATCH;
            let distance = take_varint(&mut pos)? as usize;
            if distance == 0 || distance > out.len() {
                return Err(corrupt("back-reference before start of output"));
            }
            if out.len() + len > decoded_len {
                return Err(corrupt("match overruns declared length"));
            }
            // Matches may overlap their own output (distance < len), so
            // copy byte-wise from the already-decoded tail.
            let start = out.len() - distance;
            for i in 0..len {
                let byte = out[start + i];
                out.push(byte);
            }
        }
        if out.len() > decoded_len {
            return Err(corrupt("output exceeds declared length"));
        }
    }
    if out.len() != decoded_len {
        return Err(corrupt("output shorter than declared length"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compress(data: &[u8]) -> Vec<u8> {
        let mut encoded = Vec::new();
        lz_compress(data, &mut encoded);
        encoded
    }

    fn decompress(body: &[u8]) -> Result<Vec<u8>, SegmentError> {
        let mut out = Vec::new();
        lz_decompress(body, &mut out).map(|()| out)
    }

    fn roundtrip(data: &[u8]) {
        assert_eq!(decompress(&compress(data)).unwrap(), data);
    }

    #[test]
    fn lz_roundtrips_assorted_inputs() {
        roundtrip(b"");
        roundtrip(b"abc");
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        roundtrip(b"abcdabcdabcdabcdXabcdabcdabcdabcd");
        let mut mixed = Vec::new();
        for i in 0..4096u32 {
            mixed.extend_from_slice(&(i % 17).to_le_bytes());
        }
        roundtrip(&mixed);
        // Incompressible pseudo-random bytes.
        let noise: Vec<u8> = (0..2048u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        roundtrip(&noise);
    }

    #[test]
    fn lz_compresses_repetitive_input() {
        let data: Vec<u8> = std::iter::repeat_n(b"abcdefgh".as_slice(), 512)
            .flatten()
            .copied()
            .collect();
        let encoded = compress(&data);
        assert!(
            encoded.len() < data.len() / 10,
            "repetitive input barely compressed: {} -> {}",
            data.len(),
            encoded.len()
        );
    }

    #[test]
    fn lz_rejects_damage_with_typed_errors() {
        let data = b"abcdabcdabcdabcdabcdabcdabcdabcd";
        let encoded = compress(data);

        // Truncations at every prefix must error, never panic.
        for cut in 0..encoded.len() {
            match decompress(&encoded[..cut]) {
                Ok(out) => assert_ne!(out, data.as_slice()),
                Err(SegmentError::Corrupt(_)) => {}
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }

        // A back-reference pointing before the start of output.
        let mut bad = Vec::new();
        varint::encode(8, &mut bad); // decoded_len
        varint::encode(1, &mut bad); // match token, len = MIN_MATCH
        varint::encode(100, &mut bad); // distance into nowhere
        assert!(matches!(decompress(&bad), Err(SegmentError::Corrupt(_))));

        // A decompression bomb: tiny body, astronomically declared length.
        // Must be rejected up front, before any output is produced.
        let mut bomb = Vec::new();
        varint::encode(MAX_DECODED_LEN as u64 + 1, &mut bomb);
        varint::encode(1 << 1, &mut bomb); // literal run of one byte
        bomb.push(0xab);
        assert!(matches!(decompress(&bomb), Err(SegmentError::Corrupt(_))));
    }

    #[test]
    fn codec_bytes_are_stable() {
        assert_eq!(Codec::Raw.byte(), 0);
        assert_eq!(Codec::Lz.byte(), 1);
        assert_eq!(Codec::Col.byte(), 2);
        assert_eq!(Codec::from_byte(0).unwrap(), Codec::Raw);
        assert_eq!(Codec::from_byte(1).unwrap(), Codec::Lz);
        assert_eq!(Codec::from_byte(2).unwrap(), Codec::Col);
        assert!(matches!(
            Codec::from_byte(7),
            Err(SegmentError::UnknownCodec(7))
        ));
    }
}
