//! [`SegmentCursor`] — the one way the store reads a segment's chunk frames.
//!
//! A cursor holds an open segment file, the offset of the next frame and one
//! buffer. It reads with positioned reads, so several cursors share one
//! `File`, in pieces of [`READ_PIECE`] bytes, and yields each
//! complete frame as a validated [`ChunkView`] with its [`ChunkInfo`]
//! (offset, length, entries, timestamp bounds). The buffer holds at most the
//! largest frame plus one piece. When the frames end, the cursor says why:
//! `Ok(None)` where the bytes run out at a frame boundary — the end its reader
//! set, or the flushed end of a segment still being written — and otherwise
//! the typed error of the frame that ended the walk, without moving past it.
//!
//! Each reader of segment bytes is a stopping rule over a cursor:
//!
//! * the live tail ([`crate::tail`]) stops at the flushed end and waits;
//! * the batch reader ([`crate::reader::TraceReader`]) reads every frame up to
//!   the footer, frame *i* held to index row *i*;
//! * crash recovery ([`crate::recover`]) stops at the first invalid frame and
//!   rebuilds the index from what it walked.
//!
//! [`SegmentCursor::check_sealed`] is the one test of a sealed segment: the
//! tail moves past a segment, and recovery keeps one untouched, only when its
//! footer starts where the frames end and indexes them row by row.
//!
//! Every byte a cursor parses comes from disk, so the module denies indexing,
//! `unwrap`, `expect` and `panic!`: a bad byte is a [`SegmentError`], never a
//! panic.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use crate::segment::{
    check_header, decode_footer_frame, footer_len, ChunkInfo, ChunkScratch, ChunkView, Footer,
    SegmentError, HEADER_LEN, TRAILER_LEN,
};
use ipfs_mon_simnet::time::SimTime;
use ipfs_mon_types::varint;
use std::borrow::{Borrow, Cow};
use std::fs::File;
use std::io;

/// Bytes a cursor asks of its file per read.
pub(crate) const READ_PIECE: usize = 64 * 1024;

/// A read position in one segment file, over a file it owns (`F = File`) or
/// shares (`F = &File`). See the [module docs](self).
pub(crate) struct SegmentCursor<F> {
    file: F,
    /// Segment offset of `buf[0]`.
    base: u64,
    buf: Vec<u8>,
    /// Bytes of `buf` the cursor has moved past.
    consumed: usize,
    /// Where reads stop in a segment that no longer grows: the footer's
    /// start (the batch reader) or the file's end (recovery). `None` for one
    /// still being written (the tail).
    limit: Option<u64>,
}

impl<F: Borrow<File>> SegmentCursor<F> {
    /// A cursor at `start`: 0 to check the header first, else the offset of
    /// a frame. `buf` is recycled from an earlier cursor.
    pub(crate) fn new(file: F, start: u64, limit: Option<u64>, mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self {
            file,
            base: start,
            buf,
            consumed: 0,
            limit,
        }
    }

    /// The offset of the next frame (0 until the header checks out).
    pub(crate) fn offset(&self) -> u64 {
        self.base + self.consumed as u64
    }

    /// Bytes read past [`SegmentCursor::offset`].
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len().saturating_sub(self.consumed)
    }

    /// The buffer, for the next cursor.
    pub(crate) fn into_buffer(self) -> Vec<u8> {
        self.buf
    }

    /// Reads on, a piece at a time, until `want` bytes lie past the offset;
    /// `false` if the file (or the limit) ends first. Consumed bytes go
    /// first, so the buffer holds at most the frame sought plus one piece.
    fn fill(&mut self, want: usize) -> io::Result<bool> {
        if self.buffered() < want {
            self.buf.drain(..self.consumed);
            self.base += std::mem::take(&mut self.consumed) as u64;
        }
        while self.buf.len() < want {
            let at = self.base + self.buf.len() as u64;
            let left = self.limit.unwrap_or(u64::MAX).saturating_sub(at);
            let piece = usize::try_from(left).map_or(READ_PIECE, |left| left.min(READ_PIECE));
            let held = self.buf.len();
            self.buf.reserve_exact(piece);
            self.buf.resize(held + piece, 0);
            let rest = self.buf.get_mut(held..).unwrap_or_default();
            let read = read_at(self.file.borrow(), rest, at);
            self.buf.truncate(held + *read.as_ref().unwrap_or(&0));
            if read? == 0 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Checks the header ([`check_header`]) when the cursor stands at offset
    /// 0, and moves past it. `Ok(false)` while the file holds only part of
    /// one: a header still being written, or the torn create a crash leaves.
    pub(crate) fn header(&mut self) -> Result<bool, SegmentError> {
        if self.offset() == 0 {
            self.fill(HEADER_LEN)?;
            if !check_header(self.buf.get(self.consumed..).unwrap_or_default())? {
                return Ok(false);
            }
            self.consumed = HEADER_LEN;
        }
        Ok(true)
    }

    /// The next frame, CRC-checked and every column validated
    /// ([`ChunkView::parse_with`], which recycles `scratch`), with its place
    /// in the segment; the view borrows the cursor's buffer. `Ok(None)` where
    /// the bytes end at a frame boundary, or — in a segment still being
    /// written — inside a frame. Any other frame that is not complete and
    /// valid (one no writer emits: empty, or past the limit) is its typed
    /// error, and the cursor stays in front of it.
    pub(crate) fn next_frame(
        &mut self,
        scratch: ChunkScratch,
    ) -> Result<Option<(ChunkInfo, ChunkView<'_>)>, SegmentError> {
        if !self.header()? {
            return Ok(None);
        }
        let at = self.offset();
        let whole_prefix = self.fill(10)?;
        if self.buffered() == 0 {
            return Ok(None);
        }
        // A length prefix still being written, or cut short, is a frame
        // longer than the bytes: past the limit, or one to wait for.
        let len = match varint::decode(self.buf.get(self.consumed..).unwrap_or_default()) {
            Ok((payload, used)) => payload.checked_add(used as u64 + 4),
            Err(_) => (!whole_prefix).then_some(u64::MAX),
        }
        .and_then(|len| usize::try_from(len).ok())
        .ok_or_else(|| corrupt(at, "has a bad length"))?;
        if self
            .limit
            .is_some_and(|end| end.saturating_sub(at) < len as u64)
        {
            return Err(corrupt(at, "runs past the end of the segment"));
        }
        if !self.fill(len)? {
            return Ok(None);
        }
        let start = self.consumed;
        let frame = self.buf.get(start..start + len).unwrap_or_default();
        let view = ChunkView::parse_with(Cow::Borrowed(frame), scratch)?;
        let times = view.timestamps_ms();
        let (Some(&first), Some(&last)) = (times.first(), times.last()) else {
            return Err(corrupt(at, "holds no entries"));
        };
        let info = ChunkInfo {
            offset: at,
            len: len as u64,
            entries: times.len() as u64,
            first_timestamp: SimTime::from_millis(first),
            last_timestamp: SimTime::from_millis(last),
        };
        self.consumed = start + len;
        Ok(Some((info, view)))
    }

    /// Hands every frame to `each` until one is not complete and valid — the
    /// stopping rule of the tail and of recovery. Only a failed read is an
    /// error: bad bytes end the walk where they start.
    pub(crate) fn walk(
        &mut self,
        scratch: &mut ChunkScratch,
        mut each: impl FnMut(ChunkInfo, &ChunkView<'_>),
    ) -> Result<(), SegmentError> {
        loop {
            match self.next_frame(std::mem::take(scratch)) {
                Ok(Some((frame, view))) => {
                    each(frame, &view);
                    *scratch = view.into_scratch();
                }
                Err(SegmentError::Io(error)) => return Err(SegmentError::Io(error)),
                Ok(None) | Err(_) => return Ok(()),
            }
        }
    }

    /// Checks that what follows the cursor is exactly the segment's footer,
    /// and that the footer indexes `walked` — the frames read before, in
    /// order — row by row ([`check_row`]); returns the footer. The one test
    /// by which the tail moves past a sealed segment and recovery keeps one
    /// untouched.
    pub(crate) fn check_sealed(&self, walked: &[ChunkInfo]) -> Result<Footer, SegmentError> {
        let (start, footer) = read_footer(self.file.borrow())?;
        if start != self.offset() {
            return Err(corrupt(self.offset(), "is not where the footer starts"));
        }
        let frames = walked.iter().map(Some).chain([None]);
        for (at, frame) in frames.enumerate() {
            check_row(&footer.chunks, at, frame)?;
        }
        Ok(footer)
    }

    /// The bytes before the cursor, in a buffer with room for `more`: the
    /// prefix recovery keeps of a damaged segment.
    pub(crate) fn prefix(&self, more: usize) -> Result<Vec<u8>, SegmentError> {
        let mut prefix = vec![0; self.offset() as usize];
        prefix.reserve_exact(more);
        read_exact_at(self.file.borrow(), &mut prefix, 0)?;
        Ok(prefix)
    }
}

fn corrupt(at: u64, what: &str) -> SegmentError {
    SegmentError::Corrupt(format!("the frame at offset {at} {what}"))
}

/// Checks that `frame`, the `at`-th a walk read (from 0), is what row `at` of
/// `index` says — the same offset, length and entry count — and, where the
/// frames ended (`None`), that no row is left.
pub(crate) fn check_row(
    index: &[ChunkInfo],
    at: usize,
    frame: Option<&ChunkInfo>,
) -> Result<(), SegmentError> {
    let key = |info: &ChunkInfo| (info.offset, info.len, info.entries);
    if index.get(at).map(key) == frame.map(key) {
        return Ok(());
    }
    let row = index.get(at);
    Err(SegmentError::Corrupt(format!(
        "chunk {at} is {frame:?}, but the footer's index row is {row:?}"
    )))
}

/// Opens a sealed segment: checks its header, then locates the footer from
/// the trailer ([`footer_len`]) and decodes it — three positioned reads.
/// Returns where the footer starts, which is where the last frame must end.
pub(crate) fn read_footer(file: &File) -> Result<(u64, Footer), SegmentError> {
    let len = file.metadata()?.len();
    if len < (HEADER_LEN + TRAILER_LEN) as u64 {
        return Err(SegmentError::Corrupt("segment too short".into()));
    }
    let (mut header, mut trailer) = ([0u8; HEADER_LEN], [0u8; TRAILER_LEN]);
    read_exact_at(file, &mut header, 0)?;
    check_header(&header)?;
    read_exact_at(file, &mut trailer, len - TRAILER_LEN as u64)?;
    let start = len
        .checked_sub(footer_len(&trailer)?)
        .filter(|&start| start >= HEADER_LEN as u64)
        .ok_or_else(|| SegmentError::Corrupt("footer length out of range".into()))?;
    let mut footer = vec![0u8; (len - start) as usize];
    read_exact_at(file, &mut footer, start)?;
    Ok((start, decode_footer_frame(&footer)?))
}

fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    let mut filled = 0;
    while let Some(rest) = buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match read_at(file, rest, offset + filled as u64)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            read => filled += read,
        }
    }
    Ok(())
}

/// One positioned read: it leaves the handle's own position alone, so
/// readers share one `File` from `&File`.
#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    use std::os::unix::fs::FileExt;
    loop {
        match file.read_at(buf, offset) {
            Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
            read => return read,
        }
    }
}

/// Fallback: clone the handle so `&File` suffices; the clone seeks
/// independently and is short-lived and exclusive here.
#[cfg(not(unix))]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = file.try_clone()?;
    file.seek(SeekFrom::Start(offset))?;
    file.read(buf)
}

#[allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;
    use crate::record::{EntryFlags, TraceEntry};
    use crate::segment::{encode_chunk, frame_payload, write_header};
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_types::{Cid, Country, Multiaddr, Multicodec, PeerId, Transport};
    use std::io::Write;

    fn entry(ms: u64) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(ms),
            peer: PeerId::derived(3, ms),
            address: Multiaddr::new(1, 4001, Transport::Tcp, Country::Us),
            request_type: RequestType::WantHave,
            cid: Cid::new_v1(Multicodec::Raw, &[ms as u8]),
            monitor: 0,
            flags: EntryFlags::default(),
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ts-cursor-{tag}-{}.seg", std::process::id()))
    }

    /// A frame naming another monitor under a valid CRC is refused by the
    /// chunk parser, so every walk ends in front of it, typed, whatever
    /// follows.
    #[test]
    fn a_foreign_monitor_frame_ends_the_walk() {
        let mut frame = Vec::new();
        encode_chunk(&[entry(1), entry(2)], &mut frame);
        let payload_end = frame.len() - 4;
        let payload_start = payload_end - frame_payload(&frame).len();
        frame[payload_start + 2] = 1;
        let crc = crc32(&frame[payload_start..payload_end]);
        frame[payload_end..].copy_from_slice(&crc.to_le_bytes());

        let mut segment = Vec::new();
        write_header(&mut segment).unwrap();
        encode_chunk(&[entry(1), entry(2)], &mut segment);
        let valid_end = segment.len() as u64;
        segment.extend_from_slice(&frame);
        let path = temp_path("foreign");
        std::fs::write(&path, &segment).unwrap();
        let file = File::open(&path).unwrap();
        for limit in [None, Some(segment.len() as u64)] {
            let mut frames = SegmentCursor::new(&file, 0, limit, Vec::new());
            let (info, view) = frames.next_frame(ChunkScratch::default()).unwrap().unwrap();
            assert_eq!((info.offset, info.len), (HEADER_LEN as u64, valid_end - 5));
            assert_eq!((info.entries, view.len()), (2, 2));
            for _ in 0..2 {
                match frames.next_frame(ChunkScratch::default()) {
                    Err(SegmentError::Corrupt(what)) => {
                        assert!(what.contains("monitor 1"), "{what}")
                    }
                    other => panic!("{limit:?}: {:?}", other.map(|frame| frame.map(|f| f.0))),
                }
                assert_eq!(frames.offset(), valid_end);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Without a limit, a frame still being written is no frame yet: the
    /// cursor waits in front of it, and yields it once its last byte is in.
    /// With the limit of a finished file, the same cut is damage.
    #[test]
    fn a_frame_being_written_waits_for_its_last_byte() {
        let mut frame = Vec::new();
        encode_chunk(&[entry(5), entry(6), entry(7)], &mut frame);
        let mut segment = Vec::new();
        write_header(&mut segment).unwrap();
        let path = temp_path("growing");
        let mut writer = File::create(&path).unwrap();
        writer.write_all(&segment[..3]).unwrap();
        let file = File::open(&path).unwrap();
        let mut frames = SegmentCursor::new(&file, 0, None, Vec::new());
        assert!(!frames.header().unwrap(), "a header still in flight");
        writer.write_all(&segment[3..]).unwrap();
        writer.write_all(&frame[..frame.len() - 1]).unwrap();
        assert!(frames
            .next_frame(ChunkScratch::default())
            .unwrap()
            .is_none());
        assert_eq!(frames.offset(), HEADER_LEN as u64);

        let cut = SegmentCursor::new(&file, 0, Some(file.metadata().unwrap().len()), Vec::new())
            .next_frame(ChunkScratch::default())
            .map(|frame| frame.map(|f| f.0));
        assert!(matches!(cut, Err(SegmentError::Corrupt(_))), "{cut:?}");

        writer.write_all(&frame[frame.len() - 1..]).unwrap();
        let (info, view) = frames.next_frame(ChunkScratch::default()).unwrap().unwrap();
        assert_eq!((info.entries, info.len), (3, frame.len() as u64));
        assert_eq!(
            view.entries().collect::<Vec<_>>(),
            vec![entry(5), entry(6), entry(7)]
        );
        assert!(frames
            .next_frame(ChunkScratch::default())
            .unwrap()
            .is_none());
        std::fs::remove_file(&path).ok();
    }
}
