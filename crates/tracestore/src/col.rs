//! The chunk body layout (codec byte 2): column-aware per-plane encoding.
//!
//! Each column is stored in a representation matched to its actual value
//! distribution, and the decoder unpacks fixed-width bit runs in
//! branch-light batches straight into the reader's scratch columns instead
//! of parsing per-entry varints. `segment::encode_chunk` hands
//! `encode_columns` the interned columns of a chunk; `decode_columns` is
//! the read path's inverse, called by
//! [`ChunkView::parse`](crate::segment::ChunkView::parse).
//!
//! ```text
//! body        := mode:u8 payload
//! mode 0      := monitor:varint count:varint     -- monitor: always 0
//!                base:varint miniblock*          -- count-1 deltas, ≤64 each
//!                dict_column(peer, 32-byte entries)
//!                addr_column                     -- 8-byte entries
//!                dict_column(cid, length-prefixed entries)
//!                packed2(request types) packed2(flags)
//! miniblock   := min:zigzag-varint width:u8 bits(delta - min, width)
//! dict_column := len:varint dict_bytes bits(index, ceil(log2(len)))
//! addr_column := len:varint dict_bytes
//!                ( 1:u8                  -- indexes equal the peer column
//!                | 0:u8 bits(index, ceil(log2(len))) )
//! packed2     := 0:u8 rle_token*      -- run-length; runs sum to count
//!              | 1:u8 packed_bytes    -- two bits per entry, verbatim
//! rle_token   := (run << 2 | value):varint
//! ```
//!
//! `bits(v, w)` packs each value into `w` bits, least-significant bit first
//! within a little-endian bit stream, zero-padded to a byte boundary. The
//! dictionary index width is *derived* from the dictionary length (never
//! stored), so a single-value dictionary costs zero index bits. Timestamp
//! miniblocks store frame-of-reference offsets `delta - min(block)`, so a
//! monotone run with a constant step collapses to width 0. The 2-bit planes
//! pick run-length tokens when strictly smaller than the packed bytes (flag
//! planes are usually one run; request-type planes usually are not).
//!
//! Mode 0 is the only mode. Mode bytes 1 (the raw planes verbatim) and 2
//! (an LZ pass over the mode-0 payload) are retired and refused as unknown
//! modes, like any other. Decoding is strictly validated: truncated bit
//! runs, out-of-range dictionary indexes, and RLE runs past the entry count
//! all surface [`SegmentError::Corrupt`], never a panic.

use crate::segment::{
    read_local_monitor, unzigzag, write_local_monitor, zigzag, ChunkColumns, ChunkScratch, Cursor,
    SegmentError, MULTIADDR_LEN,
};
use ipfs_mon_types::varint;
use std::ops::Range;

/// Leading body byte of every chunk body.
const MODE_COLUMNAR: u8 = 0;
/// Deltas per timestamp miniblock (one frame-of-reference + width each).
const MINIBLOCK: usize = 64;
/// 2-bit plane sub-mode byte: run-length tokens.
const PLANE_RLE: u8 = 0;
/// 2-bit plane sub-mode byte: packed bytes verbatim.
const PLANE_PACKED: u8 = 1;
/// Address column sub-mode byte: the column carries its own packed indexes.
const ADDR_OWN_INDEXES: u8 = 0;
/// Address column sub-mode byte: the index column equals the peer index
/// column entry-for-entry (monitors observe one address per peer, so this
/// is the overwhelmingly common case) — zero index bits on the wire.
const ADDR_PEER_INDEXES: u8 = 1;

fn corrupt(what: &str) -> SegmentError {
    SegmentError::Corrupt(format!("col body: {what}"))
}

/// Bits needed to represent `max` (0 for 0).
fn bits_for(max: u64) -> u32 {
    64 - max.leading_zeros()
}

/// Packed byte length of `count` values at `width` bits each.
fn packed_len(count: usize, width: u32) -> Option<usize> {
    count
        .checked_mul(width as usize)
        .map(|bits| bits.div_ceil(8))
}

/// Packs each value into `width` bits, LSB-first, zero-padded to a byte.
fn pack_bits(values: &[u64], width: u32, out: &mut Vec<u8>) {
    if width == 0 {
        return;
    }
    let mut acc: u128 = 0;
    let mut bits: u32 = 0;
    for &value in values {
        debug_assert!(width == 64 || value < (1u64 << width));
        acc |= (value as u128) << bits;
        bits += width;
        while bits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        out.push(acc as u8);
    }
}

/// Unpacks `count` values of `width` bits from `bytes` (which must hold
/// exactly [`packed_len`] bytes), appending to `out`. The accumulator loop
/// is branch-light: one shift/mask per value, one byte load per 8 bits.
fn unpack_bits(bytes: &[u8], count: usize, width: u32, out: &mut Vec<u64>) {
    if width == 0 {
        out.extend(std::iter::repeat_n(0u64, count));
        return;
    }
    debug_assert_eq!(bytes.len(), packed_len(count, width).unwrap());
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut acc: u128 = 0;
    let mut bits: u32 = 0;
    let mut next = 0usize;
    out.reserve(count);
    for _ in 0..count {
        while bits < width {
            acc |= (bytes[next] as u128) << bits;
            next += 1;
            bits += 8;
        }
        out.push((acc as u64) & mask);
        acc >>= width;
        bits -= width;
    }
}

// ---------------------------------------------------------------------------
// Encoding: interned columns in, columnar body out
// ---------------------------------------------------------------------------

/// Packs a dictionary index column at the width its dictionary needs.
fn encode_indexes(indexes: &[u64], dict_len: usize, out: &mut Vec<u8>) {
    // `dict_len >= 1`: chunks are never empty, so every dictionary holds at
    // least the first entry's value and the width never underflows.
    pack_bits(indexes, bits_for((dict_len - 1) as u64), out);
}

/// Run-length tokens over a packed 2-bit plane.
fn rle_encode(plane: &[u8], count: usize, out: &mut Vec<u8>) {
    let get = |i: usize| (plane[i / 4] >> ((i % 4) * 2)) & 0b11;
    let mut i = 0;
    while i < count {
        let value = get(i);
        let mut run = 1;
        while i + run < count && get(i + run) == value {
            run += 1;
        }
        varint::encode(((run as u64) << 2) | value as u64, out);
        i += run;
    }
}

fn encode_2bit_plane(plane: &[u8], count: usize, out: &mut Vec<u8>) {
    let mut rle = Vec::new();
    rle_encode(plane, count, &mut rle);
    if rle.len() < plane.len() {
        out.push(PLANE_RLE);
        out.extend_from_slice(&rle);
    } else {
        out.push(PLANE_PACKED);
        out.extend_from_slice(plane);
    }
}

/// Appends the body of `columns` — the mode byte, then the mode-0 payload —
/// to `out`.
pub(crate) fn encode_columns(columns: &ChunkColumns<'_>, out: &mut Vec<u8>) {
    out.push(MODE_COLUMNAR);
    let count = columns.entries.len();
    write_local_monitor(out);
    varint::encode(count as u64, out);
    varint::encode(columns.base_ms(), out);
    let deltas: Vec<i64> = columns.timestamp_deltas().collect();
    let mut offsets = Vec::with_capacity(MINIBLOCK);
    for block in deltas.chunks(MINIBLOCK) {
        let min = block.iter().copied().min().expect("chunks are non-empty");
        varint::encode(zigzag(min), out);
        offsets.clear();
        // delta - min always fits u64: both are i64, and delta >= min.
        offsets.extend(block.iter().map(|&d| (d as i128 - min as i128) as u64));
        let width = bits_for(offsets.iter().copied().max().unwrap_or(0));
        out.push(width as u8);
        pack_bits(&offsets, width, out);
    }
    columns.write_peer_dict(out);
    encode_indexes(&columns.peer_indexes, columns.peer_dict.len(), out);
    // Address column: one observed address per peer makes the index column
    // a copy of the peer one almost always — a marker byte replaces it.
    columns.write_addr_dict(out);
    if columns.addr_indexes == columns.peer_indexes {
        out.push(ADDR_PEER_INDEXES);
    } else {
        out.push(ADDR_OWN_INDEXES);
        encode_indexes(&columns.addr_indexes, columns.addr_dict.len(), out);
    }
    columns.write_cid_dict(out);
    encode_indexes(&columns.cid_indexes, columns.cid_dict.len(), out);
    let mut plane = Vec::with_capacity(count.div_ceil(4));
    columns.write_type_plane(&mut plane);
    encode_2bit_plane(&plane, count, out);
    plane.clear();
    columns.write_flag_plane(&mut plane);
    encode_2bit_plane(&plane, count, out);
}

// ---------------------------------------------------------------------------
// Decoding: columnar body into scratch columns
// ---------------------------------------------------------------------------

/// Where the verbatim dictionary regions live inside a body (ranges are
/// relative to the body, mode byte included).
pub(crate) struct ColumnLayout {
    pub peer_dict: Range<usize>,
    pub addr_dict: Range<usize>,
    pub cid_dict: Range<usize>,
    pub cid_dict_len: usize,
}

fn read_packed_indexes(
    cursor: &mut Cursor<'_>,
    count: usize,
    dict_len: usize,
    indexes: &mut Vec<usize>,
    bits: &mut Vec<u64>,
) -> Result<(), SegmentError> {
    if dict_len == 0 {
        return Err(corrupt("indexed column with empty dictionary"));
    }
    let width = bits_for((dict_len - 1) as u64);
    if width == 0 {
        // Single-value dictionary: zero index bits on the wire.
        indexes.extend(std::iter::repeat_n(0usize, count));
        return Ok(());
    }
    let bytes =
        cursor.take(packed_len(count, width).ok_or_else(|| corrupt("index run too large"))?)?;
    bits.clear();
    unpack_bits(bytes, count, width, bits);
    let max = bits.iter().copied().max().unwrap_or(0);
    if max >= dict_len as u64 {
        return Err(SegmentError::Corrupt(format!(
            "col body: dictionary index {max} out of range (dictionary holds {dict_len})"
        )));
    }
    indexes.extend(bits.iter().map(|&v| v as usize));
    Ok(())
}

fn decode_dict_region(
    cursor: &mut Cursor<'_>,
    entry_len: usize,
) -> Result<(usize, Range<usize>), SegmentError> {
    let len = cursor.varint()? as usize;
    let start = cursor.position();
    cursor.take(
        len.checked_mul(entry_len)
            .ok_or_else(|| corrupt("dictionary too large"))?,
    )?;
    Ok((len, start..cursor.position()))
}

fn decode_cid_dict_region(cursor: &mut Cursor<'_>) -> Result<(usize, Range<usize>), SegmentError> {
    let len = cursor.varint()? as usize;
    if len as u64 > cursor.remaining() as u64 {
        return Err(corrupt("CID dictionary count exceeds remaining body"));
    }
    let start = cursor.position();
    for _ in 0..len {
        let entry_len = cursor.varint()? as usize;
        cursor.take(entry_len)?;
    }
    Ok((len, start..cursor.position()))
}

/// Decodes one 2-bit plane (either sub-mode) into packed bytes, validating
/// every entry code against `max_code` (2 for request types, 3 for flags).
fn decode_2bit_plane(
    cursor: &mut Cursor<'_>,
    count: usize,
    max_code: u8,
    out: &mut Vec<u8>,
) -> Result<(), SegmentError> {
    out.clear();
    out.reserve(count.div_ceil(4));
    match cursor.byte()? {
        PLANE_PACKED => {
            let bytes = cursor.take(count.div_ceil(4))?;
            if max_code < 3 {
                for i in 0..count {
                    if (bytes[i / 4] >> ((i % 4) * 2)) & 0b11 > max_code {
                        return Err(corrupt("invalid request type code"));
                    }
                }
            }
            out.extend_from_slice(bytes);
        }
        PLANE_RLE => {
            let mut current = 0u8;
            let mut filled = 0usize;
            let mut total = 0usize;
            while total < count {
                let token = cursor.varint()?;
                let run = (token >> 2) as usize;
                let value = (token & 0b11) as u8;
                if run == 0 {
                    return Err(corrupt("zero-length RLE run"));
                }
                if run > count - total {
                    return Err(corrupt("RLE run past entry count"));
                }
                if value > max_code {
                    return Err(corrupt("invalid request type code"));
                }
                total += run;
                let mut left = run;
                // Fill the partial byte, then whole bytes, then the tail.
                while left > 0 && filled != 0 {
                    current |= value << (filled * 2);
                    filled = (filled + 1) % 4;
                    if filled == 0 {
                        out.push(current);
                        current = 0;
                    }
                    left -= 1;
                }
                let whole = value * 0b0101_0101;
                while left >= 4 {
                    out.push(whole);
                    left -= 4;
                }
                while left > 0 {
                    current |= value << (filled * 2);
                    filled += 1;
                    left -= 1;
                }
            }
            if filled > 0 {
                out.push(current);
            }
        }
        _ => return Err(corrupt("unknown 2-bit plane sub-mode")),
    }
    Ok(())
}

/// Decodes a body (mode byte first) directly into the caller's scratch
/// columns — the production read path; `columns.bits` is the reusable
/// unpack workspace, and the dictionaries are left to the caller. Returns
/// where the verbatim dictionary regions live so the chunk view can borrow
/// them straight out of the frame.
pub(crate) fn decode_columns(
    body: &[u8],
    columns: &mut ChunkScratch,
) -> Result<ColumnLayout, SegmentError> {
    let ChunkScratch {
        timestamps,
        peer_indexes,
        addr_indexes,
        cid_indexes,
        type_plane,
        flag_plane,
        bits,
        ..
    } = columns;
    let mut cursor = Cursor::new(body);
    if cursor.byte()? != MODE_COLUMNAR {
        return Err(corrupt("unknown mode byte"));
    }
    read_local_monitor(&mut cursor)?;
    let count = cursor.varint()? as usize;
    if count == 0 {
        return Err(corrupt("empty columnar chunk"));
    }
    // Each 64-delta miniblock costs at least two body bytes, so a genuine
    // body holds at least count/32 more bytes — a crafted count fails here
    // instead of driving the column allocations below.
    if count.div_ceil(32) as u64 > cursor.remaining() as u64 {
        return Err(corrupt("entry count exceeds body size"));
    }

    timestamps.reserve(count.min(1 << 20));
    let base = cursor.varint()?;
    timestamps.push(base);
    let mut previous = base as i64;
    let mut remaining = count - 1;
    while remaining > 0 {
        let block = remaining.min(MINIBLOCK);
        let min = unzigzag(cursor.varint()?);
        let width = cursor.byte()? as u32;
        if width > 64 {
            return Err(corrupt("bit width over 64"));
        }
        let bytes =
            cursor.take(packed_len(block, width).expect("miniblock bit length fits usize"))?;
        bits.clear();
        unpack_bits(bytes, block, width, bits);
        for &offset in bits.iter() {
            let delta = i64::try_from(min as i128 + offset as i128)
                .map_err(|_| corrupt("timestamp delta overflow"))?;
            previous = previous
                .checked_add(delta)
                .ok_or_else(|| corrupt("timestamp delta overflow"))?;
            if previous < 0 {
                return Err(corrupt("negative timestamp"));
            }
            timestamps.push(previous as u64);
        }
        remaining -= block;
    }

    let (_, peer_dict) = decode_dict_region(&mut cursor, 32)?;
    read_packed_indexes(&mut cursor, count, peer_dict.len() / 32, peer_indexes, bits)?;
    let (addr_len, addr_dict) = decode_dict_region(&mut cursor, MULTIADDR_LEN)?;
    match cursor.byte()? {
        ADDR_PEER_INDEXES => {
            let max = peer_indexes.iter().copied().max().unwrap_or(0);
            if max >= addr_len {
                return Err(SegmentError::Corrupt(format!(
                    "col body: dictionary index {max} out of range (dictionary holds {addr_len})"
                )));
            }
            addr_indexes.extend_from_slice(peer_indexes);
        }
        ADDR_OWN_INDEXES => {
            read_packed_indexes(&mut cursor, count, addr_len, addr_indexes, bits)?;
        }
        _ => return Err(corrupt("unknown address column sub-mode")),
    }
    let (cid_dict_len, cid_dict) = decode_cid_dict_region(&mut cursor)?;
    read_packed_indexes(&mut cursor, count, cid_dict_len, cid_indexes, bits)?;
    decode_2bit_plane(&mut cursor, count, 2, type_plane)?;
    decode_2bit_plane(&mut cursor, count, 3, flag_plane)?;
    if !cursor.is_at_end() {
        return Err(corrupt("trailing bytes after columns"));
    }
    Ok(ColumnLayout {
        peer_dict,
        addr_dict,
        cid_dict,
        cid_dict_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CHUNK_CODEC;
    use crate::record::{EntryFlags, TraceEntry};
    use crate::segment::{encode_chunk, frame_payload, write_frame, ChunkView};
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_simnet::time::SimTime;
    use ipfs_mon_types::{Cid, Country, Multiaddr, Multicodec, PeerId, Transport};
    use std::borrow::Cow;

    fn entry(ms: u64, peer: u64, addr: u32, cid: u8, request_type: RequestType) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(ms),
            peer: PeerId::derived(5, peer),
            address: Multiaddr::new(addr, 4001, Transport::Tcp, Country::De),
            request_type,
            cid: Cid::new_v1(Multicodec::Raw, &[cid]),
            monitor: 0,
            flags: EntryFlags::default(),
        }
    }

    /// `count` entries cycling through `dicts` peers, addresses and CIDs
    /// (one address per peer, so the address column rides on the peer one)
    /// at a constant timestamp step.
    fn uniform_entries(count: usize, dicts: usize) -> Vec<TraceEntry> {
        let types = [
            RequestType::WantHave,
            RequestType::WantBlock,
            RequestType::Cancel,
        ];
        (0..count)
            .map(|i| {
                let slot = (i % dicts) as u64;
                entry(
                    1_000 + i as u64 * 37,
                    slot,
                    slot as u32,
                    slot as u8,
                    types[i % 3],
                )
            })
            .collect()
    }

    /// Frames `entries` as a chunk and returns the frame with its body (mode
    /// byte first).
    fn col_chunk(entries: &[TraceEntry]) -> (Vec<u8>, Vec<u8>) {
        let mut frame = Vec::new();
        encode_chunk(entries, &mut frame);
        let payload = frame_payload(&frame);
        assert_eq!(payload[0], CHUNK_CODEC);
        let body = payload[1..].to_vec();
        (frame, body)
    }

    /// Parses a chunk built around `body` (valid CRC, so only the body
    /// decides the outcome).
    fn parse_body(body: &[u8]) -> Result<Vec<TraceEntry>, SegmentError> {
        let mut payload = vec![CHUNK_CODEC];
        payload.extend_from_slice(body);
        let mut frame = Vec::new();
        write_frame(&payload, &mut frame);
        ChunkView::parse(Cow::Owned(frame)).map(|view| view.entries().collect())
    }

    fn roundtrip(entries: &[TraceEntry]) -> Vec<u8> {
        let (frame, body) = col_chunk(entries);
        let view = ChunkView::parse(Cow::Borrowed(&frame)).unwrap();
        let decoded: Vec<TraceEntry> = view.entries().collect();
        assert_eq!(decoded, entries, "col round-trip mismatch");
        body
    }

    #[test]
    fn columnar_roundtrips_typical_planes() {
        for count in [3usize, 63, 64, 65, 200, 1000] {
            for dicts in [1usize, 2, 7, 129] {
                if dicts > count {
                    continue;
                }
                let body = roundtrip(&uniform_entries(count, dicts));
                assert_eq!(body[0], MODE_COLUMNAR, "count={count} dicts={dicts}");
            }
        }
    }

    #[test]
    fn single_value_dictionary_costs_zero_index_bits() {
        let entries: Vec<TraceEntry> = (0..256u64)
            .map(|i| entry(1_000 + i * 37, 0, 0, 0, RequestType::WantHave))
            .collect();
        // 256 constant-step timestamps collapse to one width-0 miniblock per
        // 64 deltas and the three index columns to zero bytes; everything
        // left is the dictionaries plus a fixed few bytes of headers.
        let body = roundtrip(&entries);
        assert!(
            body.len() < 32 + MULTIADDR_LEN + 5 + 64,
            "single-value-dict chunk too large: {} bytes",
            body.len()
        );
    }

    #[test]
    fn adversarial_columns_roundtrip() {
        // Max-width indexes: dictionary sizes straddling power-of-two edges.
        for dicts in [2usize, 3, 4, 5, 8, 9, 16, 17, 255, 256, 257] {
            roundtrip(&uniform_entries(dicts.max(8), dicts));
        }
        // An address column that does not follow the peer column carries
        // its own packed indexes.
        let mut own_addresses = uniform_entries(200, 7);
        for (i, entry) in own_addresses.iter_mut().enumerate() {
            entry.address.ip = (i * 5 % 11) as u32;
        }
        roundtrip(&own_addresses);
        // Non-monotonic and duplicate timestamps, every flag bit set.
        let mut jumpy: Vec<TraceEntry> = [5_000u64, 5_000, 4_000, 9_999_999, 0, 0, 1]
            .into_iter()
            .map(|ms| entry(ms, 0, 0, 0, RequestType::Cancel))
            .collect();
        for entry in &mut jumpy {
            entry.flags = EntryFlags {
                inter_monitor_duplicate: true,
                rebroadcast: true,
            };
        }
        roundtrip(&jumpy);
        // All-one-flag plane: a single RLE run.
        let mut flagged: Vec<TraceEntry> = (0..500u64)
            .map(|i| entry(i, 0, 0, 0, RequestType::WantHave))
            .collect();
        for entry in &mut flagged {
            entry.flags.inter_monitor_duplicate = true;
        }
        roundtrip(&flagged);
    }

    #[test]
    fn truncated_bodies_error_never_panic() {
        let entries = uniform_entries(300, 7);
        let (_, body) = col_chunk(&entries);
        assert_eq!(parse_body(&body).unwrap(), entries);
        for cut in 0..body.len() {
            match parse_body(&body[..cut]) {
                Ok(decoded) => assert_ne!(decoded, entries),
                Err(SegmentError::Corrupt(_)) => {}
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }
    }

    #[test]
    fn retired_verbatim_mode_byte_is_corrupt() {
        // Mode byte 1 used to frame raw planes, mode byte 2 an LZ pass over
        // the mode-0 payload. Behind either, a valid payload must be
        // refused, not decoded.
        let (_, body) = col_chunk(&uniform_entries(8, 2));
        for mode in [1u8, 2] {
            let mut retired = body.clone();
            retired[0] = mode;
            match parse_body(&retired) {
                Err(SegmentError::Corrupt(what)) => assert!(what.contains("mode byte"), "{what}"),
                other => panic!("mode byte {mode} must be corrupt: {other:?}"),
            }
        }
        assert!(matches!(parse_body(&[]), Err(SegmentError::Corrupt(_))));
        assert!(matches!(parse_body(&[9]), Err(SegmentError::Corrupt(_))));
    }

    #[test]
    fn crafted_entry_counts_are_corrupt() {
        for (count, expected) in [
            (0u64, "empty columnar chunk"),
            (1 << 40, "exceeds body size"),
        ] {
            let mut body = vec![MODE_COLUMNAR];
            varint::encode(0, &mut body); // monitor
            varint::encode(count, &mut body);
            varint::encode(100, &mut body); // base
            match parse_body(&body) {
                Err(SegmentError::Corrupt(what)) => assert!(what.contains(expected), "{what}"),
                other => panic!("count {count}: unexpected outcome: {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_range_dictionary_index_is_corrupt() {
        // Hand-build a columnar body: 2 entries, peer dict of 3 (width 2)
        // whose packed index stream holds the value 3.
        let mut body = vec![MODE_COLUMNAR];
        varint::encode(0, &mut body); // monitor
        varint::encode(2, &mut body); // count
        varint::encode(100, &mut body); // base
        varint::encode(zigzag(1), &mut body); // miniblock min
        body.push(0); // width 0
        varint::encode(3, &mut body); // peer dict len 3 -> width 2
        body.extend_from_slice(&[0u8; 96]);
        body.push(0b0011); // indexes [3, 0] — 3 out of range
        match parse_body(&body) {
            Err(SegmentError::Corrupt(what)) => assert!(what.contains("out of range"), "{what}"),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn rle_run_past_entry_count_is_corrupt() {
        let entries = uniform_entries(8, 1);
        let (_, mut body) = col_chunk(&entries);
        assert_eq!(parse_body(&body).unwrap(), entries);
        // The flag plane is the tail: a single RLE token (run 8, value 0).
        // Inflate the run length.
        let last = body.len() - 1;
        assert_eq!(body[last], 8 << 2);
        body[last] = 9 << 2;
        match parse_body(&body) {
            Err(SegmentError::Corrupt(what)) => assert!(what.contains("RLE run"), "{what}"),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn body_naming_another_monitor_is_corrupt() {
        let entries = uniform_entries(8, 2);
        let (_, mut body) = col_chunk(&entries);
        assert_eq!(parse_body(&body).unwrap(), entries);
        // The stored monitor index opens the mode-0 payload.
        assert_eq!(body[1], 0);
        body[1] = 1;
        match parse_body(&body) {
            Err(SegmentError::Corrupt(what)) => assert!(what.contains("monitor 1"), "{what}"),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn bit_pack_roundtrips_all_widths() {
        for width in 0..=64u32 {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..130u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & mask)
                .collect();
            let mut packed = Vec::new();
            pack_bits(&values, width, &mut packed);
            assert_eq!(packed.len(), packed_len(values.len(), width).unwrap());
            let mut unpacked = Vec::new();
            unpack_bits(&packed, values.len(), width, &mut unpacked);
            assert_eq!(unpacked, values, "width {width}");
        }
    }
}
