//! The on-disk segment format.
//!
//! A segment is an append-only sequence of self-contained columnar chunks
//! followed by a footer index:
//!
//! ```text
//! segment := header chunk* footer
//! header  := "IPMT" version:u8
//! chunk   := payload_len:varint payload crc32(payload):u32le
//! payload := codec:u8 body
//! footer  := payload crc32(payload):u32le payload_len:u64le "TSFT"
//! ```
//!
//! A segment holds one monitor's entries — the monitors' traces meet only in
//! the dataset ([`crate::manifest`]), which maps each segment file to its
//! monitor. The monitor index the format stores (in every chunk body and
//! every footer index row) is therefore the constant 0: written by
//! `write_local_monitor`, and refused when it is anything else by
//! `read_local_monitor`, under [`ChunkView::parse`] and `decode_footer`
//! — it is never trusted, and never silently filtered on.
//!
//! Each chunk holds up to [`SegmentConfig::chunk_capacity`] entries in the
//! one body layout, [`crate::col`], named by the leading payload byte (see
//! [`crate::codec`]). `encode_chunk` is the one place that writes them: it
//! interns the chunk's three dictionaries (peers, addresses and CIDs, in
//! first-appearance order) and packs every other column to its actual
//! width. Timestamps are milliseconds up to `i64::MAX`, so that every step
//! between two of them is an `i64`; the writer refuses later ones.
//!
//! Decoding is split in two stages: [`ChunkView`] parses a frame into
//! borrowed dictionary slices and column cursors (validating everything),
//! and owned [`TraceEntry`]s are materialized from the view one at a time —
//! only at the stream boundary, so no intermediate `Vec<TraceEntry>` is
//! built and dictionary values are decoded once per chunk, not per entry.
//! Readers that only aggregate or filter stop at the first stage: the view's
//! column accessors hand out the dictionaries and index columns as parsed.
//!
//! The footer carries the monitor's label and lateness bound, all connection
//! records, the chunk index (offset, length, entry count, timestamp bounds),
//! and the total entry count. Readers locate it via the fixed-size trailer —
//! the trailing `payload_len` and magic — so segments stream in append-only
//! fashion and still open in O(footer).

use crate::codec::{self, CHUNK_CODEC};
use crate::crc::crc32;
use crate::hash::WordHashBuilder;
use crate::record::{ConnectionRecord, TraceEntry};
use ipfs_mon_bitswap::RequestType;
use ipfs_mon_obs as obs;
use ipfs_mon_simnet::time::SimTime;
use ipfs_mon_types::{varint, Cid, Country, Multiaddr, PeerId, Transport};
use std::borrow::Cow;
use std::ops::Range;

/// Magic bytes opening every segment.
pub const HEADER_MAGIC: &[u8; 4] = b"IPMT";
/// Magic bytes closing every segment (after the footer).
pub const FOOTER_MAGIC: &[u8; 4] = b"TSFT";
/// Current format version.
///
/// **The compatibility rule** (the single normative statement — the writer,
/// manifest and reader docs all defer here): writers only produce this
/// version, and a segment of any other version is *refused* at open with
/// [`SegmentError::UnsupportedVersion`] rather than misparsed. Version 2
/// added the per-chunk codec byte as the first payload byte, inside the
/// chunk CRC, and let one segment mix chunk layouts (`Raw`, `Lz` and `Col`).
/// Version 3 has one layout, `Col` without its LZ mode, and one accepted
/// codec byte, so a v2 segment — possibly holding chunks this build cannot
/// decode — is refused whole instead of read up to its first such chunk
/// (recovery moves it to quarantine untouched). Manifests are unversioned
/// against this change: a manifest only names segment files.
pub const FORMAT_VERSION: u8 = 3;
/// Size of the fixed trailer: footer CRC + footer length + magic.
pub const TRAILER_LEN: usize = 4 + 8 + 4;
/// Size of the header: magic + version byte. Chunk frames start here.
pub(crate) const HEADER_LEN: usize = HEADER_MAGIC.len() + 1;

/// Writes the segment header.
pub(crate) fn write_header(sink: &mut impl std::io::Write) -> std::io::Result<()> {
    sink.write_all(HEADER_MAGIC)?;
    sink.write_all(&[FORMAT_VERSION])
}

/// Checks the header at the start of `bytes` (the whole file, or just its
/// first [`HEADER_LEN`] bytes) — the one statement of what every opener
/// accepts: the reader, the live tail and crash recovery. `Ok(true)` is a
/// complete, valid header. `Ok(false)` is a strict prefix of one: a header
/// still being written, or the torn create a crash leaves behind — never
/// evidence of a foreign file. Bytes that are not the magic are
/// [`SegmentError::Corrupt`], another build's version is
/// [`SegmentError::UnsupportedVersion`].
pub(crate) fn check_header(bytes: &[u8]) -> Result<bool, SegmentError> {
    let magic = &bytes[..bytes.len().min(HEADER_MAGIC.len())];
    if !HEADER_MAGIC.starts_with(magic) {
        return Err(SegmentError::Corrupt("missing segment header magic".into()));
    }
    match bytes.get(HEADER_MAGIC.len()) {
        None => Ok(false),
        Some(&FORMAT_VERSION) => Ok(true),
        Some(&version) => Err(SegmentError::UnsupportedVersion(version)),
    }
}

/// Tuning knob of the segment writer. The chunk layout is not one: there is
/// only [`crate::col`].
#[derive(Debug, Clone, Copy)]
pub struct SegmentConfig {
    /// Maximum number of entries per chunk. Larger chunks compress better
    /// (dictionaries amortize); smaller chunks bound reader memory tighter.
    pub chunk_capacity: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        Self {
            chunk_capacity: 4096,
        }
    }
}

impl SegmentConfig {
    /// What every writer checks before it writes a byte.
    pub(crate) fn validate(&self) -> Result<(), SegmentError> {
        if self.chunk_capacity == 0 {
            return Err(SegmentError::InvalidConfig(
                "chunk capacity must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Statistics reported when a writer finishes a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentSummary {
    /// Total bytes of the finished segment, header to trailer.
    pub bytes_written: u64,
    /// Total trace entries across all chunks.
    pub total_entries: u64,
    /// Number of chunks written.
    pub chunks: usize,
    /// Number of connection records stored in the footer.
    pub connections: usize,
}

/// One chunk's entry in the footer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Byte offset of the chunk frame (its leading length varint).
    pub offset: u64,
    /// Total frame length in bytes (length prefix + payload + CRC).
    pub len: u64,
    /// Number of entries in the chunk.
    pub entries: u64,
    /// Timestamp of the first entry.
    pub first_timestamp: SimTime,
    /// Timestamp of the last entry.
    pub last_timestamp: SimTime,
}

/// Errors raised while encoding or decoding segments.
#[derive(Debug)]
pub enum SegmentError {
    /// Underlying I/O failed.
    Io(std::io::Error),
    /// The byte stream is not a segment or is structurally damaged.
    Corrupt(String),
    /// A chunk or footer checksum did not match.
    ChecksumMismatch {
        /// Where the mismatch was detected ("chunk N" or "footer").
        location: String,
    },
    /// The segment uses a format version this build does not understand.
    UnsupportedVersion(u8),
    /// A chunk names a payload codec this build does not implement (the
    /// frame CRC was valid, so this is a version skew, not damage).
    UnknownCodec(u8),
    /// A writer or dataset configuration, or a value appended to a writer,
    /// is unusable (library code reports this instead of aborting the
    /// process).
    InvalidConfig(String),
    /// A directory holds files in an on-disk layout this build no longer
    /// reads (refused whole rather than written over).
    UnsupportedLayout(String),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(err) => write!(f, "segment I/O error: {err}"),
            SegmentError::Corrupt(what) => write!(f, "corrupt segment: {what}"),
            SegmentError::ChecksumMismatch { location } => {
                write!(f, "checksum mismatch in {location}")
            }
            SegmentError::UnsupportedVersion(v) => {
                write!(f, "unsupported segment format version {v}")
            }
            SegmentError::UnknownCodec(byte) => {
                write!(f, "unknown chunk codec byte {byte}")
            }
            SegmentError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            SegmentError::UnsupportedLayout(what) => {
                write!(f, "unsupported on-disk layout: {what}")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<std::io::Error> for SegmentError {
    fn from(err: std::io::Error) -> Self {
        SegmentError::Io(err)
    }
}

// ---------------------------------------------------------------------------
// Primitive column codecs
// ---------------------------------------------------------------------------

/// Zigzag-encodes a signed delta so small magnitudes stay small as varints.
pub(crate) fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

fn transport_code(transport: Transport) -> u8 {
    match transport {
        Transport::Tcp => 0,
        Transport::Quic => 1,
        Transport::WebSocket => 2,
    }
}

fn transport_from_code(code: u8) -> Result<Transport, SegmentError> {
    Ok(match code {
        0 => Transport::Tcp,
        1 => Transport::Quic,
        2 => Transport::WebSocket,
        other => {
            return Err(SegmentError::Corrupt(format!(
                "invalid transport code {other}"
            )))
        }
    })
}

fn country_code(country: Country) -> u8 {
    Country::all()
        .iter()
        .position(|&c| c == country)
        .expect("Country::all covers every variant") as u8
}

fn country_from_code(code: u8) -> Result<Country, SegmentError> {
    Country::all()
        .get(code as usize)
        .copied()
        .ok_or_else(|| SegmentError::Corrupt(format!("invalid country code {code}")))
}

fn request_type_code(request_type: RequestType) -> u8 {
    match request_type {
        RequestType::WantHave => 0,
        RequestType::WantBlock => 1,
        RequestType::Cancel => 2,
    }
}

#[inline]
fn request_type_from_code(code: u8) -> Result<RequestType, SegmentError> {
    Ok(match code {
        0 => RequestType::WantHave,
        1 => RequestType::WantBlock,
        2 => RequestType::Cancel,
        other => {
            return Err(SegmentError::Corrupt(format!(
                "invalid request type code {other}"
            )))
        }
    })
}

fn encode_multiaddr(addr: &Multiaddr, out: &mut Vec<u8>) {
    out.extend_from_slice(&addr.ip.to_be_bytes());
    out.extend_from_slice(&addr.port.to_be_bytes());
    out.push(transport_code(addr.transport));
    out.push(country_code(addr.country));
}

pub(crate) const MULTIADDR_LEN: usize = 8;

fn decode_multiaddr(bytes: &[u8]) -> Result<Multiaddr, SegmentError> {
    if bytes.len() < MULTIADDR_LEN {
        return Err(SegmentError::Corrupt("truncated multiaddr".into()));
    }
    Ok(Multiaddr {
        ip: u32::from_be_bytes(bytes[0..4].try_into().unwrap()),
        port: u16::from_be_bytes(bytes[4..6].try_into().unwrap()),
        transport: transport_from_code(bytes[6])?,
        country: country_from_code(bytes[7])?,
    })
}

/// A forward-only cursor over a decoded byte slice.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    // Inlined with `varint::decode`'s short arms: the per-row call of every
    // index and delta column.
    #[inline]
    pub(crate) fn varint(&mut self) -> Result<u64, SegmentError> {
        let (value, used) = varint::decode(&self.bytes[self.pos..]).map_err(bad_varint)?;
        self.pos += used;
        Ok(value)
    }

    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], SegmentError> {
        if self.bytes.len() - self.pos < len {
            return Err(SegmentError::Corrupt("unexpected end of payload".into()));
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn byte(&mut self) -> Result<u8, SegmentError> {
        Ok(self.take(1)?[0])
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn string(&mut self) -> Result<String, SegmentError> {
        let len = self.varint()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map(str::to_string)
            .map_err(|_| SegmentError::Corrupt("string is not UTF-8".into()))
    }

    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    pub(crate) fn is_at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Writes what [`Cursor::string`] reads.
pub(crate) fn encode_string(value: &str, out: &mut Vec<u8>) {
    varint::encode(value.len() as u64, out);
    out.extend_from_slice(value.as_bytes());
}

/// Out of line, so the inlined [`Cursor::varint`] carries no formatting code.
#[cold]
fn bad_varint(error: ipfs_mon_types::TypesError) -> SegmentError {
    SegmentError::Corrupt(format!("bad varint: {error:?}"))
}

/// Validates an element count decoded from untrusted input against the bytes
/// actually remaining (each element costs at least `min_bytes` to encode), so
/// a crafted count fails as [`SegmentError::Corrupt`] instead of panicking or
/// aborting inside `Vec::with_capacity`.
pub(crate) fn checked_count(
    cursor: &mut Cursor<'_>,
    min_bytes: usize,
    what: &str,
) -> Result<usize, SegmentError> {
    let count = cursor.varint()?;
    let needed = count.checked_mul(min_bytes.max(1) as u64);
    if needed.is_none_or(|needed| needed > cursor.remaining() as u64) {
        return Err(SegmentError::Corrupt(format!(
            "{what} count {count} exceeds remaining payload"
        )));
    }
    Ok(count as usize)
}

/// Writes the monitor index of a chunk body or a footer index row: a segment
/// holds one monitor's entries, so the index is the constant 0.
pub(crate) fn write_local_monitor(out: &mut Vec<u8>) {
    varint::encode(0, out);
}

/// Reads what [`write_local_monitor`] wrote and refuses anything else: bytes
/// that name another monitor were not written for this segment, whatever
/// their CRC says.
pub(crate) fn read_local_monitor(cursor: &mut Cursor<'_>) -> Result<(), SegmentError> {
    match cursor.varint()? {
        0 => Ok(()),
        monitor => Err(SegmentError::Corrupt(format!(
            "stored index names monitor {monitor}, but a segment holds only its own monitor 0"
        ))),
    }
}

/// Packs values of two bits each, little-endian within bytes.
fn pack_2bit(values: impl ExactSizeIterator<Item = u8>, out: &mut Vec<u8>) {
    let mut current = 0u8;
    let mut filled = 0;
    for value in values {
        debug_assert!(value < 4);
        current |= (value & 0b11) << (filled * 2);
        filled += 1;
        if filled == 4 {
            out.push(current);
            current = 0;
            filled = 0;
        }
    }
    if filled > 0 {
        out.push(current);
    }
}

// ---------------------------------------------------------------------------
// Chunk encoding
// ---------------------------------------------------------------------------

/// One chunk's entries with their three dictionaries interned — the columns
/// the body of [`crate::col`] is written from. Dictionaries are in
/// first-appearance order so the index columns are decodable with nothing
/// but this chunk.
pub(crate) struct ChunkColumns<'a> {
    pub(crate) entries: &'a [TraceEntry],
    pub(crate) peer_dict: Vec<PeerId>,
    pub(crate) peer_indexes: Vec<u64>,
    pub(crate) addr_dict: Vec<Multiaddr>,
    pub(crate) addr_indexes: Vec<u64>,
    pub(crate) cid_dict: Vec<&'a Cid>,
    pub(crate) cid_indexes: Vec<u64>,
}

impl<'a> ChunkColumns<'a> {
    pub(crate) fn intern(entries: &'a [TraceEntry]) -> Self {
        // Peers, addresses and CIDs are outside input: keyed hashing, seeds
        // drawn per chunk.
        let hasher = WordHashBuilder::random();
        let mut peer_dict: Interner<PeerId> = Interner::new(hasher.clone());
        let mut peer_indexes = Vec::with_capacity(entries.len());
        let mut addr_dict: Interner<Multiaddr> = Interner::new(hasher.clone());
        let mut addr_indexes = Vec::with_capacity(entries.len());
        let mut cid_dict: Interner<&Cid> = Interner::new(hasher);
        let mut cid_indexes = Vec::with_capacity(entries.len());
        for entry in entries {
            peer_indexes.push(peer_dict.intern(&entry.peer));
            addr_indexes.push(addr_dict.intern(&entry.address));
            cid_indexes.push(cid_dict.intern(&&entry.cid));
        }
        Self {
            entries,
            peer_dict: peer_dict.into_values(),
            peer_indexes,
            addr_dict: addr_dict.into_values(),
            addr_indexes,
            cid_dict: cid_dict.into_values(),
            cid_indexes,
        }
    }

    /// Timestamp of the first entry, in milliseconds.
    pub(crate) fn base_ms(&self) -> u64 {
        self.entries[0].timestamp.as_millis()
    }

    /// Signed millisecond step from each entry to the next (`len - 1` of
    /// them; monitors log in arrival order, so steps may be negative).
    pub(crate) fn timestamp_deltas(&self) -> impl Iterator<Item = i64> + '_ {
        self.entries
            .windows(2)
            .map(|pair| pair[1].timestamp.as_millis() as i64 - pair[0].timestamp.as_millis() as i64)
    }

    /// `len:varint` + 32 bytes per peer.
    pub(crate) fn write_peer_dict(&self, out: &mut Vec<u8>) {
        varint::encode(self.peer_dict.len() as u64, out);
        for peer in &self.peer_dict {
            out.extend_from_slice(peer.as_bytes());
        }
    }

    /// `len:varint` + [`MULTIADDR_LEN`] bytes per address.
    pub(crate) fn write_addr_dict(&self, out: &mut Vec<u8>) {
        varint::encode(self.addr_dict.len() as u64, out);
        for addr in &self.addr_dict {
            encode_multiaddr(addr, out);
        }
    }

    /// `len:varint` + one length-prefixed binary CID per entry.
    pub(crate) fn write_cid_dict(&self, out: &mut Vec<u8>) {
        varint::encode(self.cid_dict.len() as u64, out);
        for cid in &self.cid_dict {
            varint::encode(cid.encoded_len() as u64, out);
            cid.write_bytes(out);
        }
    }

    /// The request-type plane, two bits per entry (see [`pack_2bit`]).
    pub(crate) fn write_type_plane(&self, out: &mut Vec<u8>) {
        pack_2bit(
            self.entries
                .iter()
                .map(|e| request_type_code(e.request_type)),
            out,
        );
    }

    /// The flag plane, two bits per entry.
    pub(crate) fn write_flag_plane(&self, out: &mut Vec<u8>) {
        pack_2bit(
            self.entries.iter().map(|e| {
                u8::from(e.flags.inter_monitor_duplicate) | (u8::from(e.flags.rebroadcast) << 1)
            }),
            out,
        );
    }
}

/// Encodes one monitor's buffered entries as a framed chunk, appending the
/// frame to `out` — the one place that writes a chunk: the codec byte, then
/// the body of [`crate::col`]. Timed as `store.chunk_encode_ns`: interning +
/// column encoding, not the caller's sink write. Returns the frame's
/// [`ChunkInfo`] (with `offset` left at 0 for the caller to fill in).
pub(crate) fn encode_chunk(entries: &[TraceEntry], out: &mut Vec<u8>) -> ChunkInfo {
    assert!(!entries.is_empty(), "chunks must hold at least one entry");
    let _span = obs::histogram!("store.chunk_encode_ns").timer();
    let columns = ChunkColumns::intern(entries);
    let mut payload = Vec::with_capacity(entries.len() * 8);
    payload.push(CHUNK_CODEC);
    crate::col::encode_columns(&columns, &mut payload);
    let frame_start = out.len();
    write_frame(&payload, out);
    ChunkInfo {
        offset: 0,
        len: (out.len() - frame_start) as u64,
        entries: entries.len() as u64,
        first_timestamp: entries[0].timestamp,
        last_timestamp: entries[entries.len() - 1].timestamp,
    }
}

/// Frames a chunk payload: length prefix, payload, CRC (the CRC covers the
/// codec byte).
pub(crate) fn write_frame(payload: &[u8], out: &mut Vec<u8>) {
    varint::encode(payload.len() as u64, out);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Walks the longest prefix of complete, valid chunk frames of `bytes` from
/// offset `start`, handing `each` the offset, length and validated view of
/// every frame, and returns the offset just past the last of them — what
/// crash recovery keeps of a damaged segment and what the live tail may
/// report of a growing one. The walk ends for good at the first frame that
/// is incomplete, fails [`ChunkView::parse_with`] or holds no row (no writer
/// emits one); what follows is a frame still being written, the footer, or
/// damage, which the caller tells apart. Lengths come from untrusted bytes,
/// so every sum is checked. `scratch` is recycled from frame to frame and
/// left for the next walk.
pub(crate) fn walk_frames(
    bytes: &[u8],
    start: usize,
    scratch: &mut ChunkScratch,
    mut each: impl FnMut(usize, usize, &ChunkView<'_>),
) -> usize {
    let mut pos = start;
    while let Some(rest) = bytes.get(pos..) {
        let Ok((payload_len, used)) = varint::decode(rest) else {
            break;
        };
        let Some(end) = usize::try_from(payload_len)
            .ok()
            .and_then(|payload_len| payload_len.checked_add(used + 4))
            .and_then(|frame_len| pos.checked_add(frame_len))
            .filter(|&end| end <= bytes.len())
        else {
            break;
        };
        let frame = Cow::Borrowed(&bytes[pos..end]);
        match ChunkView::parse_with(frame, std::mem::take(scratch)) {
            Ok(view) if !view.is_empty() => {
                each(pos, end - pos, &view);
                *scratch = view.into_scratch();
            }
            _ => break,
        }
        pos = end;
    }
    pos
}

/// Wraps `payload` in the envelope of the dataset's small files (manifest,
/// checkpoint): `magic version:u8 payload crc32(payload):u32le`.
pub(crate) fn seal(magic: &[u8; 4], version: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 9);
    out.extend_from_slice(magic);
    out.push(version);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Inverse of [`seal`]: the payload of a `what` file, once its magic, version
/// and CRC have checked out.
pub(crate) fn unseal<'a>(
    magic: &[u8; 4],
    version: u8,
    what: &str,
    bytes: &'a [u8],
) -> Result<&'a [u8], SegmentError> {
    if bytes.len() < 9 {
        return Err(SegmentError::Corrupt(format!("{what} too short")));
    }
    if &bytes[..4] != magic {
        return Err(SegmentError::Corrupt(format!("missing {what} magic")));
    }
    if bytes[4] != version {
        return Err(SegmentError::UnsupportedVersion(bytes[4]));
    }
    let (payload, stored_crc) = bytes[5..].split_at(bytes.len() - 9);
    if crc32(payload).to_le_bytes() != stored_crc {
        return Err(SegmentError::ChecksumMismatch {
            location: what.into(),
        });
    }
    Ok(payload)
}

/// A first-appearance-order dictionary with O(1) lookup. Values are stored
/// once, as the map keys (one clone per *distinct* value — not one for the
/// lookup map and one for the output vector); the first-appearance order is
/// recovered from the slot numbers when the dictionary is serialized.
struct Interner<T> {
    indexes: std::collections::HashMap<T, u64, WordHashBuilder>,
}

impl<T: Clone + Eq + std::hash::Hash> Interner<T> {
    fn new(hasher: WordHashBuilder) -> Self {
        Self {
            indexes: std::collections::HashMap::with_hasher(hasher),
        }
    }

    fn intern(&mut self, value: &T) -> u64 {
        if let Some(&index) = self.indexes.get(value) {
            return index;
        }
        let index = self.indexes.len() as u64;
        self.indexes.insert(value.clone(), index);
        index
    }

    /// The dictionary in first-appearance (slot) order.
    fn into_values(self) -> Vec<T> {
        let mut pairs: Vec<(u64, T)> = self
            .indexes
            .into_iter()
            .map(|(value, index)| (index, value))
            .collect();
        pairs.sort_unstable_by_key(|&(index, _)| index);
        pairs.into_iter().map(|(_, value)| value).collect()
    }
}

/// Recyclable decode allocations: every column a [`ChunkView`] materializes,
/// plus the bit-unpack workspace. Streaming readers pass the previous
/// chunk's scratch into [`ChunkView::parse_with`] (via
/// [`ChunkView::into_scratch`]), so a long chain decode reuses one set of
/// allocations instead of paying `Vec` churn per chunk.
#[derive(Default)]
pub(crate) struct ChunkScratch {
    pub(crate) timestamps: Vec<u64>,
    pub(crate) peer_indexes: Vec<usize>,
    pub(crate) addr_indexes: Vec<usize>,
    pub(crate) cid_indexes: Vec<usize>,
    pub(crate) addr_dict: Vec<Multiaddr>,
    pub(crate) cid_dict: Vec<Cid>,
    /// The packed 2-bit request-type and flag planes (run-length planes are
    /// expanded into packed form once per chunk).
    pub(crate) type_plane: Vec<u8>,
    pub(crate) flag_plane: Vec<u8>,
    pub(crate) bits: Vec<u64>,
}

impl ChunkScratch {
    fn clear(&mut self) {
        self.timestamps.clear();
        self.peer_indexes.clear();
        self.addr_indexes.clear();
        self.cid_indexes.clear();
        self.addr_dict.clear();
        self.cid_dict.clear();
        self.type_plane.clear();
        self.flag_plane.clear();
        self.bits.clear();
    }
}

/// A fully validated, lazily materialized view of one chunk.
///
/// Parsing decodes each dictionary *once* (peer bytes stay as a borrowed
/// slice of the frame; addresses and CIDs — which need validation anyway —
/// are decoded into per-chunk vectors) and keeps the per-entry columns as
/// indexes plus the packed 2-bit planes. Owned [`TraceEntry`]s are
/// materialized per entry via [`ChunkView::entry`], so a streaming reader
/// never builds an intermediate `Vec<TraceEntry>` and the only per-entry
/// cost is a flat copy (CID digests store inline — see
/// `ipfs_mon_types::multihash` — so even the CID clone is allocation-free).
/// The columns are also readable as they are ([`ChunkView::cid_dict`],
/// [`ChunkView::peer_indexes`], …) for consumers that count per dictionary
/// index or select rows without building entries.
pub struct ChunkView<'a> {
    /// The frame, borrowed straight from the source buffer when the source
    /// handed out a borrow (e.g. a `SliceSource`).
    frame: Cow<'a, [u8]>,
    /// Dictionary slice of the peer column: `peer_count × 32` bytes inside
    /// the frame.
    peer_dict: Range<usize>,
    /// The decoded columns, one row each (dictionaries aside).
    columns: ChunkScratch,
}

impl<'a> ChunkView<'a> {
    /// Parses and validates a framed chunk (starting at the length prefix).
    /// Checks the CRC and the codec byte, then decodes and validates every
    /// column — after this, materialization cannot fail.
    pub fn parse(frame: Cow<'a, [u8]>) -> Result<Self, SegmentError> {
        Self::parse_with(frame, ChunkScratch::default())
    }

    /// [`ChunkView::parse`] with recycled allocations: `scratch` (usually
    /// recovered from the previous chunk via [`ChunkView::into_scratch`])
    /// provides every column buffer the view fills, so chain decodes reuse
    /// one set of allocations. On error the scratch is dropped.
    pub(crate) fn parse_with(
        frame: Cow<'a, [u8]>,
        mut columns: ChunkScratch,
    ) -> Result<Self, SegmentError> {
        // Decode-stage span. It covers the checksum pass — the one step that
        // touches every payload byte — and so encloses the sub-spans below.
        let _span = obs::histogram!("store.chunk_decode_ns").timer();
        // Frame envelope: length prefix, payload (codec byte + body), CRC.
        let frame_bytes: &[u8] = frame.as_ref();
        let mut cursor = Cursor::new(frame_bytes);
        let payload_len = cursor.varint()? as usize;
        let body_start = cursor.position() + 1;
        let payload = cursor.take(payload_len)?;
        let stored_crc = u32::from_le_bytes(cursor.take(4)?.try_into().unwrap());
        let crc_span = obs::histogram!("store.chunk_crc_ns").timer();
        if crc32(payload) != stored_crc {
            return Err(SegmentError::ChecksumMismatch {
                location: "chunk".into(),
            });
        }
        drop(crc_span);
        if !cursor.is_at_end() {
            return Err(SegmentError::Corrupt("trailing bytes after chunk".into()));
        }
        let Some((&codec_byte, body)) = payload.split_first() else {
            return Err(SegmentError::Corrupt("empty chunk payload".into()));
        };
        codec::check(codec_byte)?;

        // The columns decode straight into the recycled buffers; layout
        // ranges are relative to the body.
        columns.clear();
        let columns_span = obs::histogram!("store.chunk_columns_ns").timer();
        let layout = crate::col::decode_columns(body, &mut columns)?;
        drop(columns_span);
        read_addr_dict(
            &mut Cursor::new(&body[layout.addr_dict.clone()]),
            layout.addr_dict.len() / MULTIADDR_LEN,
            &mut columns.addr_dict,
        )?;
        read_cid_dict(
            &mut Cursor::new(&body[layout.cid_dict.clone()]),
            layout.cid_dict_len,
            &mut columns.cid_dict,
        )?;

        obs::counter!("store.chunks_decoded").incr();
        obs::counter!("store.entries_decoded").add(columns.timestamps.len() as u64);

        Ok(Self {
            peer_dict: body_start + layout.peer_dict.start..body_start + layout.peer_dict.end,
            frame,
            columns,
        })
    }

    /// Number of entries in the chunk.
    pub fn len(&self) -> usize {
        self.columns.timestamps.len()
    }

    /// Whether the chunk holds no entries (never true for a parsed chunk).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // Column accessors. Everything below reads columns `parse_with` has
    // already CRC-checked and validated in full (every index is inside its
    // dictionary, every request-type code is defined), so none of them can
    // fail on a parsed view. The dictionaries are what the chunk *stores*:
    // a crafted chunk may carry dictionary entries no row references, so an
    // aggregate over "what the chunk's rows mention" must go through the
    // index columns, never over a raw dictionary.

    /// The timestamp column (milliseconds), one per row, in append order.
    #[inline]
    pub fn timestamps_ms(&self) -> &[u64] {
        &self.columns.timestamps
    }

    /// Number of entries in the chunk's peer dictionary.
    #[inline]
    pub fn peer_dict_len(&self) -> usize {
        self.peer_dict.len() / 32
    }

    /// The `index`-th entry of the chunk's peer dictionary.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.peer_dict_len()`.
    #[inline]
    pub fn peer(&self, index: usize) -> PeerId {
        PeerId::from_bytes(*self.peer_bytes(index))
    }

    /// The bytes of the `index`-th entry of the chunk's peer dictionary,
    /// where they lie.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.peer_dict_len()`.
    #[inline]
    pub fn peer_bytes(&self, index: usize) -> &[u8; 32] {
        let dict = &self.frame[self.peer_dict.clone()];
        dict[index * 32..][..32]
            .try_into()
            .expect("peer dictionary holds 32 bytes per entry")
    }

    /// Per row, the index of its peer in the peer dictionary.
    #[inline]
    pub fn peer_indexes(&self) -> &[usize] {
        &self.columns.peer_indexes
    }

    /// The chunk's CID dictionary.
    #[inline]
    pub fn cid_dict(&self) -> &[Cid] {
        &self.columns.cid_dict
    }

    /// Per row, the index of its CID in [`ChunkView::cid_dict`].
    #[inline]
    pub fn cid_indexes(&self) -> &[usize] {
        &self.columns.cid_indexes
    }

    /// The request type of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn request_type(&self, i: usize) -> RequestType {
        assert!(i < self.len(), "entry index {i} out of range");
        request_type_from_code(two_bits(&self.columns.type_plane, i))
            .expect("request types validated in parse")
    }

    /// The stored flags of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn flags(&self, i: usize) -> crate::record::EntryFlags {
        assert!(i < self.len(), "entry index {i} out of range");
        let flags = two_bits(&self.columns.flag_plane, i);
        crate::record::EntryFlags {
            inter_monitor_duplicate: flags & 0b01 != 0,
            rebroadcast: flags & 0b10 != 0,
        }
    }

    /// Materializes the `i`-th entry as an owned [`TraceEntry`]. A chunk does
    /// not know which monitor of the dataset it belongs to: `monitor` is 0,
    /// for the reader that knows the chain to overwrite.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn entry(&self, i: usize) -> TraceEntry {
        let columns = &self.columns;
        TraceEntry {
            timestamp: SimTime::from_millis(columns.timestamps[i]),
            peer: self.peer(columns.peer_indexes[i]),
            address: columns.addr_dict[columns.addr_indexes[i]],
            request_type: self.request_type(i),
            cid: columns.cid_dict[columns.cid_indexes[i]].clone(),
            monitor: 0,
            flags: self.flags(i),
        }
    }

    /// Every entry of the chunk in append order, each materialized at the
    /// moment it is yielded.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = TraceEntry> + '_ {
        (0..self.len()).map(|i| self.entry(i))
    }

    /// Recovers the view's recyclable allocations for the next
    /// [`ChunkView::parse_with`].
    pub(crate) fn into_scratch(self) -> ChunkScratch {
        self.columns
    }
}

/// Entry `i` of a packed 2-bit plane.
#[inline]
fn two_bits(plane: &[u8], i: usize) -> u8 {
    (plane[i / 4] >> ((i % 4) * 2)) & 0b11
}

/// The payload (codec byte first) of a chunk frame written by
/// [`write_frame`].
#[cfg(test)]
pub(crate) fn frame_payload(frame: &[u8]) -> &[u8] {
    let (payload_len, used) = varint::decode(frame).expect("length prefix");
    &frame[used..used + payload_len as usize]
}

/// Decodes a framed chunk (starting at the length prefix) into entries.
/// Test convenience — production streams go through [`ChunkView`] and
/// materialize at the stream boundary instead.
#[cfg(test)]
pub(crate) fn decode_chunk(frame: &[u8]) -> Result<Vec<TraceEntry>, SegmentError> {
    let view = ChunkView::parse(Cow::Borrowed(frame))?;
    Ok(view.entries().collect())
}

/// Decodes (and validates) `count` address dictionary entries.
fn read_addr_dict(
    cursor: &mut Cursor<'_>,
    count: usize,
    dict: &mut Vec<Multiaddr>,
) -> Result<(), SegmentError> {
    let _span = obs::histogram!("store.chunk_dict_ns").timer();
    dict.reserve(count);
    for _ in 0..count {
        dict.push(decode_multiaddr(cursor.take(MULTIADDR_LEN)?)?);
    }
    Ok(())
}

/// Decodes (and validates) `count` length-prefixed CID dictionary entries.
fn read_cid_dict(
    cursor: &mut Cursor<'_>,
    count: usize,
    dict: &mut Vec<Cid>,
) -> Result<(), SegmentError> {
    let _span = obs::histogram!("store.chunk_dict_ns").timer();
    dict.reserve(count);
    for _ in 0..count {
        let len = cursor.varint()? as usize;
        let cid = Cid::from_bytes(cursor.take(len)?)
            .map_err(|e| SegmentError::Corrupt(format!("bad CID in dictionary: {e:?}")))?;
        dict.push(cid);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Footer encoding
// ---------------------------------------------------------------------------

/// Everything a reader needs to navigate a segment.
#[derive(Debug, Clone, Default)]
pub(crate) struct Footer {
    /// Label of the monitor whose entries the segment holds.
    pub label: String,
    /// The maximum backward timestamp jump (milliseconds) observed in the
    /// entry stream. Monitors log in arrival order, but entries carry
    /// send-side timestamps, so bounded local disorder occurs; readers size
    /// their reorder buffers from this to deliver exactly time-sorted
    /// streams.
    pub max_lateness_ms: u64,
    pub connections: Vec<ConnectionRecord>,
    pub chunks: Vec<ChunkInfo>,
    pub total_entries: u64,
}

/// `count:varint (len:varint utf8)*` — a monitor label list as the footer,
/// the manifest and the checkpoint all store it.
pub(crate) fn encode_labels(labels: &[String], payload: &mut Vec<u8>) {
    varint::encode(labels.len() as u64, payload);
    for label in labels {
        encode_string(label, payload);
    }
}

/// Inverse of [`encode_labels`].
pub(crate) fn decode_labels(cursor: &mut Cursor<'_>) -> Result<Vec<String>, SegmentError> {
    let count = checked_count(cursor, 1, "monitor label")?;
    (0..count).map(|_| cursor.string()).collect()
}

/// `count:varint connection*` — a connection record list as the footer and
/// the checkpoint's open-segment state both store it.
pub(crate) fn encode_connections(connections: &[ConnectionRecord], payload: &mut Vec<u8>) {
    varint::encode(connections.len() as u64, payload);
    for connection in connections {
        varint::encode(connection.monitor as u64, payload);
        payload.extend_from_slice(connection.peer.as_bytes());
        encode_multiaddr(&connection.address, payload);
        varint::encode(connection.connected_at.as_millis(), payload);
        match connection.disconnected_at {
            Some(at) => {
                payload.push(1);
                varint::encode(at.as_millis(), payload);
            }
            None => payload.push(0),
        }
    }
}

/// Inverse of [`encode_connections`].
pub(crate) fn decode_connections(
    cursor: &mut Cursor<'_>,
) -> Result<Vec<ConnectionRecord>, SegmentError> {
    // Minimum encoded connection: monitor varint + 32-byte peer + multiaddr +
    // connect-time varint + disconnect marker.
    let count = checked_count(cursor, 35 + MULTIADDR_LEN, "connection")?;
    let mut connections = Vec::with_capacity(count);
    for _ in 0..count {
        let monitor = cursor.varint()? as usize;
        let peer_bytes: [u8; 32] = cursor.take(32)?.try_into().unwrap();
        let address = decode_multiaddr(cursor.take(MULTIADDR_LEN)?)?;
        let connected_at = SimTime::from_millis(cursor.varint()?);
        let disconnected_at = match cursor.byte()? {
            0 => None,
            1 => Some(SimTime::from_millis(cursor.varint()?)),
            other => {
                return Err(SegmentError::Corrupt(format!(
                    "invalid disconnect marker {other}"
                )))
            }
        };
        connections.push(ConnectionRecord {
            monitor,
            peer: PeerId::from_bytes(peer_bytes),
            address,
            connected_at,
            disconnected_at,
        });
    }
    Ok(connections)
}

pub(crate) fn encode_footer(footer: &Footer, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    // A list of one label, then one lateness bound per label.
    encode_labels(std::slice::from_ref(&footer.label), &mut payload);
    varint::encode(footer.max_lateness_ms, &mut payload);

    encode_connections(&footer.connections, &mut payload);

    varint::encode(footer.chunks.len() as u64, &mut payload);
    for chunk in &footer.chunks {
        varint::encode(chunk.offset, &mut payload);
        varint::encode(chunk.len, &mut payload);
        write_local_monitor(&mut payload);
        varint::encode(chunk.entries, &mut payload);
        varint::encode(chunk.first_timestamp.as_millis(), &mut payload);
        varint::encode(chunk.last_timestamp.as_millis(), &mut payload);
    }

    varint::encode(footer.total_entries, &mut payload);

    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(FOOTER_MAGIC);
}

/// Decodes `bytes` as exactly one footer as [`encode_footer`] writes it —
/// payload, CRC, length, magic, with nothing before or after it.
pub(crate) fn decode_footer_frame(bytes: &[u8]) -> Result<Footer, SegmentError> {
    let payload_len = bytes
        .len()
        .checked_sub(TRAILER_LEN)
        .ok_or_else(|| SegmentError::Corrupt("footer too short".into()))?;
    let (payload, trailer) = bytes.split_at(payload_len);
    if &trailer[12..] != FOOTER_MAGIC {
        return Err(SegmentError::Corrupt("missing footer magic".into()));
    }
    if trailer[4..12] != (payload_len as u64).to_le_bytes() {
        return Err(SegmentError::Corrupt("footer length out of range".into()));
    }
    if trailer[..4] != crc32(payload).to_le_bytes() {
        return Err(SegmentError::ChecksumMismatch {
            location: "footer".into(),
        });
    }
    decode_footer(payload)
}

pub(crate) fn decode_footer(payload: &[u8]) -> Result<Footer, SegmentError> {
    let mut cursor = Cursor::new(payload);

    let [label] = <[String; 1]>::try_from(decode_labels(&mut cursor)?).map_err(|labels| {
        SegmentError::Corrupt(format!(
            "footer holds {} monitor labels, but a segment holds one monitor's entries",
            labels.len()
        ))
    })?;
    let max_lateness_ms = cursor.varint()?;

    let connections = decode_connections(&mut cursor)?;

    // The index is what streams navigate by, so it must be self-consistent:
    // rows that do not add up to the total would make the reported entry
    // count disagree with what streams deliver.
    let chunk_count = checked_count(&mut cursor, 6, "chunk index")?;
    let mut chunks = Vec::with_capacity(chunk_count);
    let mut indexed_entries = 0u64;
    for _ in 0..chunk_count {
        let offset = cursor.varint()?;
        let len = cursor.varint()?;
        read_local_monitor(&mut cursor)?;
        let info = ChunkInfo {
            offset,
            len,
            entries: cursor.varint()?,
            first_timestamp: SimTime::from_millis(cursor.varint()?),
            last_timestamp: SimTime::from_millis(cursor.varint()?),
        };
        indexed_entries = indexed_entries
            .checked_add(info.entries)
            .ok_or_else(|| SegmentError::Corrupt("chunk index entry counts overflow".into()))?;
        chunks.push(info);
    }

    let total_entries = cursor.varint()?;
    if indexed_entries != total_entries {
        return Err(SegmentError::Corrupt(format!(
            "chunk index holds {indexed_entries} entries but the footer total is {total_entries}"
        )));
    }
    if !cursor.is_at_end() {
        return Err(SegmentError::Corrupt("trailing bytes in footer".into()));
    }
    Ok(Footer {
        label,
        max_lateness_ms,
        connections,
        chunks,
        total_entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EntryFlags;
    use ipfs_mon_types::Multicodec;

    fn entry(ms: u64, peer: u64, cid: u8) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(ms),
            peer: PeerId::derived(5, peer),
            address: Multiaddr::new(0x0a00_0001 + peer as u32, 4001, Transport::Tcp, Country::De),
            request_type: RequestType::WantHave,
            cid: Cid::new_v1(Multicodec::Raw, &[cid]),
            monitor: 0,
            flags: EntryFlags::default(),
        }
    }

    #[test]
    fn chunk_roundtrip_preserves_entries() {
        let entries: Vec<TraceEntry> = (0..100)
            .map(|i| entry(1_000 + i * 37, i % 7, (i % 5) as u8))
            .collect();
        let mut frame = Vec::new();
        let info = encode_chunk(&entries, &mut frame);
        assert_eq!(info.entries, 100);
        assert_eq!(info.first_timestamp, entries[0].timestamp);
        assert_eq!(info.last_timestamp, entries[99].timestamp);
        let decoded = decode_chunk(&frame).unwrap();
        assert_eq!(decoded, entries);
    }

    #[test]
    fn chunk_roundtrip_with_flags_and_backward_timestamps() {
        let mut entries = vec![entry(5_000, 1, 1), entry(4_000, 2, 2)];
        entries[0].flags.rebroadcast = true;
        entries[1].flags.inter_monitor_duplicate = true;
        entries[1].request_type = RequestType::Cancel;
        let mut frame = Vec::new();
        encode_chunk(&entries, &mut frame);
        assert_eq!(decode_chunk(&frame).unwrap(), entries);
    }

    /// A CID whose binary form is longer than 127 bytes (a two-byte length
    /// prefix in the dictionary) and a CIDv0 round-trip, and the chunk stores
    /// the long one as prefix + `to_bytes`.
    #[test]
    fn chunk_with_a_long_cid_roundtrips() {
        let long = Cid::from_parts(
            ipfs_mon_types::CidVersion::V1,
            Multicodec::Raw,
            ipfs_mon_types::Multihash::identity(&[0x5a; 200]),
        )
        .unwrap();
        let mut entries: Vec<TraceEntry> =
            (0..40).map(|i| entry(1_000 + i, i % 3, i as u8)).collect();
        for (i, slot) in entries.iter_mut().enumerate().step_by(3) {
            slot.cid = if i % 2 == 0 {
                long.clone()
            } else {
                Cid::new_v0(&[i as u8])
            };
        }
        let mut frame = Vec::new();
        encode_chunk(&entries, &mut frame);
        assert_eq!(decode_chunk(&frame).unwrap(), entries);
        let stored = [&[0xcd, 0x01][..], &long.to_bytes()].concat();
        assert!(frame.windows(stored.len()).any(|w| w == stored));
    }

    #[test]
    fn chunk_roundtrip_through_every_codec() {
        // The one layout, through both entry points; the recycled scratch
        // goes from a large chunk to a small one and back.
        let chunk = |len: u64| -> Vec<TraceEntry> {
            (0..len)
                .map(|i| entry(1_000 + i * 13, i % 5, (i % 7) as u8))
                .collect()
        };
        let mut scratch = ChunkScratch::default();
        for entries in [chunk(500), chunk(3), chunk(500)] {
            let mut frame = Vec::new();
            let info = encode_chunk(&entries, &mut frame);
            assert_eq!(info.entries, entries.len() as u64);
            assert_eq!(frame_payload(&frame)[0], CHUNK_CODEC);
            let view = ChunkView::parse(Cow::Borrowed(&frame)).unwrap();
            assert_eq!(view.len(), entries.len());
            let decoded: Vec<TraceEntry> = view.entries().collect();
            assert_eq!(decoded, entries);
            // Same result through the scratch-recycling entry point.
            let view = ChunkView::parse_with(Cow::Borrowed(&frame), scratch).unwrap();
            let recycled: Vec<TraceEntry> = view.entries().collect();
            assert_eq!(recycled, entries);
            scratch = view.into_scratch();
        }
    }

    #[test]
    fn chunk_detects_corruption() {
        let entries = vec![entry(1, 1, 1)];
        let mut frame = Vec::new();
        encode_chunk(&entries, &mut frame);
        let mid = frame.len() / 2;
        frame[mid] ^= 0xff;
        assert!(decode_chunk(&frame).is_err());
    }

    #[test]
    fn overflowing_timestamp_delta_is_corrupt_not_panic() {
        // Hand-craft a body whose second timestamp pushes the accumulator
        // past i64::MAX: base = i64::MAX, delta = +1. The CRC is valid, so
        // the failure must come from the checked accumulation, as Corrupt.
        let mut payload = vec![CHUNK_CODEC, 0]; // codec byte, mode 0
        varint::encode(0, &mut payload); // monitor
        varint::encode(2, &mut payload); // count
        varint::encode(i64::MAX as u64, &mut payload); // timestamp base
        varint::encode(zigzag(1), &mut payload); // miniblock min: +1
        payload.push(0); // width 0: every delta is the min
        let mut frame = Vec::new();
        write_frame(&payload, &mut frame);
        assert!(matches!(
            decode_chunk(&frame),
            Err(SegmentError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_codec_byte_is_a_typed_error() {
        let entries = vec![entry(1, 1, 1)];
        let mut frame = Vec::new();
        encode_chunk(&entries, &mut frame);
        // The codec byte is the first payload byte, right after the length
        // varint (one byte for small chunks). Rewrite it and fix the CRC so
        // the frame is undamaged — the reader must still refuse, with
        // UnknownCodec rather than a checksum error. That holds for the
        // bytes of the retired layouts (0 raw, 1 LZ) as for any other.
        let len_prefix = 1;
        let payload_end = frame.len() - 4;
        for byte in [0x7f, 0, 1] {
            frame[len_prefix] = byte;
            let crc = crc32(&frame[len_prefix..payload_end]);
            frame[payload_end..].copy_from_slice(&crc.to_le_bytes());
            assert!(
                matches!(decode_chunk(&frame), Err(SegmentError::UnknownCodec(b)) if b == byte),
                "{byte}"
            );
        }
    }

    #[test]
    fn dictionaries_deduplicate() {
        // 1000 entries over 3 peers/addresses/CIDs: the chunk must be far
        // smaller than count × full-record size (32B peer + 8B addr + ~36B
        // CID ≈ 76B/entry uncompressed).
        let entries: Vec<TraceEntry> = (0..1000)
            .map(|i| entry(i * 10, i % 3, (i % 3) as u8))
            .collect();
        let mut frame = Vec::new();
        encode_chunk(&entries, &mut frame);
        assert!(
            frame.len() < 1000 * 8,
            "chunk unexpectedly large: {} bytes",
            frame.len()
        );
    }

    #[test]
    fn check_header_tells_a_torn_create_from_a_foreign_file() {
        let mut header = Vec::new();
        write_header(&mut header).unwrap();
        assert_eq!(header.len(), HEADER_LEN);
        // Every strict prefix of a header is one still being written — the
        // rule recovery removes a torn create by, rather than quarantine it.
        for len in 0..HEADER_LEN {
            assert!(matches!(check_header(&header[..len]), Ok(false)), "{len}");
        }
        assert!(matches!(check_header(&header), Ok(true)));
        header.extend_from_slice(b"whatever follows is not the header's business");
        assert!(matches!(check_header(&header), Ok(true)));

        // Wrong magic, complete or not, is never "torn".
        for foreign in [&b"IPMX\x02"[..], b"IPX", b"\0"] {
            assert!(matches!(
                check_header(foreign),
                Err(SegmentError::Corrupt(_))
            ));
        }
        // Right magic, another build's version: v1 (no codec byte) and v2
        // (chunks in layouts this build no longer reads).
        for version in [1u8, 2, FORMAT_VERSION + 1] {
            assert!(matches!(
                check_header(&[b'I', b'P', b'M', b'T', version]),
                Err(SegmentError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    fn sample_footer() -> Footer {
        Footer {
            label: "us".into(),
            max_lateness_ms: 250,
            connections: vec![ConnectionRecord {
                monitor: 0,
                peer: PeerId::derived(1, 2),
                address: Multiaddr::new(1, 2, Transport::Quic, Country::Jp),
                connected_at: SimTime::from_secs(3),
                disconnected_at: Some(SimTime::from_secs(9)),
            }],
            chunks: vec![ChunkInfo {
                offset: 5,
                len: 100,
                entries: 42,
                first_timestamp: SimTime::from_millis(7),
                last_timestamp: SimTime::from_millis(900),
            }],
            total_entries: 42,
        }
    }

    #[test]
    fn footer_roundtrip() {
        let footer = sample_footer();
        let mut bytes = Vec::new();
        encode_footer(&footer, &mut bytes);
        assert_eq!(&bytes[bytes.len() - 4..], FOOTER_MAGIC);
        let payload_len =
            u64::from_le_bytes(bytes[bytes.len() - 12..bytes.len() - 4].try_into().unwrap())
                as usize;
        let payload = &bytes[..payload_len];
        let decoded = decode_footer(payload).unwrap();
        assert_eq!(decoded.label, footer.label);
        assert_eq!(decoded.max_lateness_ms, footer.max_lateness_ms);
        assert_eq!(decoded.connections, footer.connections);
        assert_eq!(decoded.chunks, footer.chunks);
        assert_eq!(decoded.total_entries, 42);
    }

    #[test]
    fn footer_not_of_exactly_one_monitor_is_corrupt() {
        // The footer grammar written out by hand, so that it can say what
        // `Footer` cannot: any number of labels (one lateness bound each),
        // any monitor index in the index row.
        let footer = sample_footer();
        let payload = |labels: &[&str], row_monitor: u64| {
            let labels: Vec<String> = labels.iter().map(|label| label.to_string()).collect();
            let mut payload = Vec::new();
            encode_labels(&labels, &mut payload);
            for _ in &labels {
                varint::encode(footer.max_lateness_ms, &mut payload);
            }
            encode_connections(&footer.connections, &mut payload);
            varint::encode(1, &mut payload);
            let row = &footer.chunks[0];
            varint::encode(row.offset, &mut payload);
            varint::encode(row.len, &mut payload);
            varint::encode(row_monitor, &mut payload);
            varint::encode(row.entries, &mut payload);
            varint::encode(row.first_timestamp.as_millis(), &mut payload);
            varint::encode(row.last_timestamp.as_millis(), &mut payload);
            varint::encode(footer.total_entries, &mut payload);
            payload
        };
        let mut written = Vec::new();
        encode_footer(&footer, &mut written);
        let well_formed = payload(&["us"], 0);
        assert_eq!(written[..well_formed.len()], well_formed[..]);
        assert!(decode_footer(&well_formed).is_ok());

        for (labels, row_monitor) in [
            (&[][..], 0),
            (&["us", "de"][..], 0),
            (&["us", "de"][..], 1),
            (&["us"][..], 1),
            (&["us"][..], u64::MAX),
        ] {
            match decode_footer(&payload(labels, row_monitor)) {
                Err(SegmentError::Corrupt(what)) => assert!(what.contains("monitor"), "{what}"),
                other => panic!("{labels:?}, row of monitor {row_monitor}: {other:?}"),
            }
        }
    }

    #[test]
    fn chunk_naming_another_monitor_is_corrupt() {
        let entries = vec![entry(1, 1, 1), entry(2, 2, 2)];
        let mut frame = Vec::new();
        encode_chunk(&entries, &mut frame);
        assert_eq!(decode_chunk(&frame).unwrap(), entries);
        // The stored monitor index opens the body's payload, right after the
        // codec and mode bytes. Rewrite it under a valid CRC: every byte
        // checks out, and the frame is still not this segment's.
        let payload_end = frame.len() - 4;
        let payload_start = payload_end - frame_payload(&frame).len();
        assert_eq!(frame[payload_start + 2], 0);
        frame[payload_start + 2] = 1;
        let crc = crc32(&frame[payload_start..payload_end]);
        frame[payload_end..].copy_from_slice(&crc.to_le_bytes());
        match decode_chunk(&frame) {
            Err(SegmentError::Corrupt(what)) => assert!(what.contains("monitor 1"), "{what}"),
            other => panic!("a foreign monitor's frame must be corrupt: {other:?}"),
        }
        // So the walk recovery and the live tail share ends before it.
        let mut segment = Vec::new();
        write_header(&mut segment).unwrap();
        encode_chunk(&entries, &mut segment);
        let valid_end = segment.len();
        segment.extend_from_slice(&frame);
        let mut walked = 0;
        let end = walk_frames(
            &segment,
            HEADER_LEN,
            &mut ChunkScratch::default(),
            |_, _, view| walked += view.len(),
        );
        assert_eq!((end, walked), (valid_end, 2));
    }

    #[test]
    fn zigzag_roundtrip() {
        for value in [
            0i64,
            1,
            -1,
            63,
            -64,
            1 << 40,
            -(1 << 40),
            i64::MAX,
            i64::MIN,
        ] {
            assert_eq!(unzigzag(zigzag(value)), value);
        }
    }

    #[test]
    fn two_bit_packing_roundtrip() {
        let values = [0u8, 1, 2, 3, 3, 2, 1, 0, 1];
        let mut packed = Vec::new();
        pack_2bit(values.iter().copied(), &mut packed);
        assert_eq!(packed.len(), 3);
        let unpacked: Vec<u8> = (0..values.len()).map(|i| two_bits(&packed, i)).collect();
        assert_eq!(unpacked, values);
    }
}
