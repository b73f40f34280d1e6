//! The service's window output on disk: the append-only window log, which
//! makes sealed windows durable, and the window files, a view of it.
//!
//! # The log
//!
//! `<dir>/windows.log` ([`WINDOW_LOG_NAME`]) holds every window the service
//! has made durable, in index order, frame `i` holding window `i`:
//!
//! ```text
//! len:varint  line  crc32(index:u64le ‖ line):u32le
//! ```
//!
//! — the segments' chunk-frame shape, with the window's JSON line
//! ([`format_window_line`](crate::service::format_window_line)) as payload
//! and the window index folded into the CRC, so a frame that is out of
//! place (appended twice, or after a gap) does not check out. The log is
//! its longest prefix of complete frames whose CRC matches and whose line
//! is UTF-8; whatever follows is a torn append or damage and is not part of
//! it. [`read_window_log`] is the one reader.
//!
//! [`WindowLog::open`] copies that prefix to a staged file and renames it
//! over the log — once per incarnation, which also cuts a torn tail — and
//! keeps the staged file's handle for every later append: the windows one
//! poll seals are one write and one fsync.
//!
//! # The view
//!
//! `windows/win-<index>.json` ([`window_file_name`]) holds window `index`'s
//! line, byte for byte. [`FileView`] writes these files on one helper
//! thread with plain `std::fs` — no staging, no fsync, outside the
//! `Storage` seam — after their frames are durable, so a file can lag the
//! log (a killed process does not wait for the helper) but never leads it;
//! `MonitorService::open` rewrites every logged window whose file is
//! missing or differs.
//!
//! Every byte the log decoder parses comes from disk, so the module denies
//! indexing, `unwrap`, `expect` and `panic!`.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use ipfs_mon_obs as obs;
use ipfs_mon_tracestore::crc::{crc32_begin, crc32_end, update};
use ipfs_mon_tracestore::fault::replace_durable;
use ipfs_mon_tracestore::{SegmentError, Storage, StorageFile};
use ipfs_mon_types::varint;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Name of the window log inside the dataset directory.
pub const WINDOW_LOG_NAME: &str = "windows.log";

/// Name of the window-file directory inside the dataset directory.
pub const WINDOW_DIR_NAME: &str = "windows";

/// File name of sealed window `index`.
pub fn window_file_name(index: u64) -> String {
    format!("win-{index:08}.json")
}

/// Windows queued for the view's helper thread at most; a full queue
/// blocks the caller rather than dropping a file.
const VIEW_QUEUE: usize = 256;

fn frame_crc(index: u64, line: &[u8]) -> u32 {
    crc32_end(update(update(crc32_begin(), &index.to_le_bytes()), line))
}

/// Appends the frame of window `index`, holding `line`, to `out`.
pub(crate) fn push_frame(index: u64, line: &[u8], out: &mut Vec<u8>) {
    varint::encode(line.len() as u64, out);
    out.extend_from_slice(line);
    out.extend_from_slice(&frame_crc(index, line).to_le_bytes());
}

/// The frame of window `index` at `pos`: its line and the offset past it,
/// or `None` if the bytes there are not a complete, valid frame of it.
fn frame_at(bytes: &[u8], pos: usize, index: u64) -> Option<(&str, usize)> {
    let (len, used) = varint::decode(bytes.get(pos..)?).ok()?;
    let start = pos.checked_add(used)?;
    let end = start.checked_add(usize::try_from(len).ok()?)?;
    let next = end.checked_add(4)?;
    let line = bytes.get(start..end)?;
    if *bytes.get(end..next)? != frame_crc(index, line).to_le_bytes() {
        return None;
    }
    Some((std::str::from_utf8(line).ok()?, next))
}

/// The lines of the longest valid frame prefix of `bytes`, and that
/// prefix's length in bytes.
pub(crate) fn decode(bytes: &[u8]) -> (Vec<String>, usize) {
    let mut lines = Vec::new();
    let mut pos = 0;
    while let Some((line, next)) = frame_at(bytes, pos, lines.len() as u64) {
        lines.push(line.to_owned());
        pos = next;
    }
    (lines, pos)
}

/// The lines of every window durable in `dir`'s window log, in index order:
/// the log's longest valid frame prefix. An absent log holds none.
///
/// This, not the window files, is what a process that dies mid-poll may
/// have made durable without returning it.
pub fn read_window_log(dir: impl AsRef<Path>) -> Result<Vec<String>, SegmentError> {
    match std::fs::read(dir.as_ref().join(WINDOW_LOG_NAME)) {
        Ok(bytes) => Ok(decode(&bytes).0),
        Err(error) if error.kind() == ErrorKind::NotFound => Ok(Vec::new()),
        Err(error) => Err(error.into()),
    }
}

/// The append side of the window log for one service incarnation.
pub(crate) struct WindowLog {
    storage: Arc<dyn Storage>,
    path: PathBuf,
    /// The handle appends go through; `None` after a failed append, until
    /// the next one re-stages the committed prefix.
    file: Option<Box<dyn StorageFile>>,
    /// Bytes of the log that are durable.
    len: usize,
    /// Windows the log holds.
    windows: u64,
}

impl WindowLog {
    /// Opens `dir`'s window log: the staged copy of its longest valid
    /// prefix replaces it and takes every later append. Returns the log and
    /// the lines it holds.
    ///
    /// A directory whose `windows/` holds anything while the log is absent
    /// was written before the log existed (or lost it); it is refused with
    /// [`SegmentError::UnsupportedLayout`] rather than written over.
    pub(crate) fn open(
        dir: &Path,
        storage: Arc<dyn Storage>,
    ) -> Result<(Self, Vec<String>), SegmentError> {
        let path = dir.join(WINDOW_LOG_NAME);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(error) if error.kind() == ErrorKind::NotFound => {
                let window_dir = dir.join(WINDOW_DIR_NAME);
                let view = std::fs::read_dir(&window_dir).map(|mut entries| entries.next());
                if let Ok(Some(_)) = view {
                    return Err(SegmentError::UnsupportedLayout(format!(
                        "{} holds window files but {} has no {WINDOW_LOG_NAME}",
                        window_dir.display(),
                        dir.display()
                    )));
                }
                Vec::new()
            }
            Err(error) => return Err(error.into()),
        };
        let (lines, len) = decode(&bytes);
        let file = replace_durable(
            storage.as_ref(),
            &path,
            bytes.get(..len).unwrap_or_default(),
        )?;
        let log = Self {
            storage,
            path,
            file: Some(file),
            len,
            windows: lines.len() as u64,
        };
        Ok((log, lines))
    }

    /// Windows the log holds.
    pub(crate) fn windows(&self) -> u64 {
        self.windows
    }

    /// Appends `lines` as the next windows' frames, in one write and one
    /// fsync. On error none of them is part of the log: the handle is
    /// dropped, and the next call first replaces the log with its durable
    /// prefix (cutting whatever the failed append left), then appends.
    pub(crate) fn append(&mut self, lines: &[String]) -> Result<(), SegmentError> {
        let mut frames = Vec::new();
        for (index, line) in (self.windows..).zip(lines) {
            push_frame(index, line.as_bytes(), &mut frames);
        }
        let file = match &mut self.file {
            Some(file) => file,
            None => {
                let bytes = std::fs::read(&self.path)?;
                let durable = bytes.get(..self.len).ok_or_else(|| {
                    SegmentError::Corrupt(format!(
                        "{} is shorter than its {} durable bytes",
                        self.path.display(),
                        self.len
                    ))
                })?;
                self.file
                    .insert(replace_durable(self.storage.as_ref(), &self.path, durable)?)
            }
        };
        if let Err(error) = file.write_all(&frames).and_then(|()| file.sync_all()) {
            self.file = None;
            return Err(error.into());
        }
        self.len += frames.len();
        self.windows += lines.len() as u64;
        Ok(())
    }
}

/// The first error of the view's helper, kept to be returned again. The
/// value is only ever replaced whole, so a poisoned lock still holds a
/// valid one and is read through.
type ViewError = Arc<Mutex<Option<(ErrorKind, String)>>>;

/// The window files, written by one helper thread from a bounded queue.
pub(crate) struct FileView {
    queue: Option<SyncSender<(u64, String)>>,
    helper: Option<JoinHandle<()>>,
    failed: ViewError,
    backlog: Arc<AtomicU64>,
}

impl FileView {
    /// Starts the helper writing into `window_dir`.
    pub(crate) fn start(window_dir: PathBuf) -> Result<Self, SegmentError> {
        let (queue, jobs) = sync_channel::<(u64, String)>(VIEW_QUEUE);
        let failed = ViewError::default();
        let backlog = Arc::new(AtomicU64::new(0));
        let helper = std::thread::Builder::new()
            .name("window-files".into())
            .spawn({
                let (failed, backlog) = (Arc::clone(&failed), Arc::clone(&backlog));
                move || {
                    for (index, line) in jobs {
                        let path = window_dir.join(window_file_name(index));
                        let written = std::fs::write(&path, line);
                        let left = backlog.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
                        obs::gauge!("service.window_view_backlog").set(left);
                        if let Err(error) = written {
                            let what = format!("writing {}: {error}", path.display());
                            *failed.lock().unwrap_or_else(PoisonError::into_inner) =
                                Some((error.kind(), what));
                            return;
                        }
                    }
                }
            })?;
        Ok(Self {
            queue: Some(queue),
            helper: Some(helper),
            failed,
            backlog,
        })
    }

    /// The helper's first error, once it has failed.
    pub(crate) fn check(&self) -> Result<(), SegmentError> {
        match &*self.failed.lock().unwrap_or_else(PoisonError::into_inner) {
            Some((kind, what)) => Err(SegmentError::Io(io::Error::new(*kind, what.clone()))),
            None => Ok(()),
        }
    }

    /// Queues window `index`'s file, blocking while the queue is full.
    pub(crate) fn write(&self, index: u64, line: String) -> Result<(), SegmentError> {
        let Some(queue) = &self.queue else {
            return Err(io::Error::other("window view already closed").into());
        };
        let queued = self.backlog.fetch_add(1, Ordering::Relaxed) + 1;
        obs::gauge!("service.window_view_backlog").set(queued);
        // The helper keeps its error before it drops the receiver, so a
        // failed send finds it.
        if queue.send((index, line)).is_err() {
            self.check()?;
            return Err(io::Error::other("window view helper stopped").into());
        }
        Ok(())
    }

    /// Waits until every queued file is written, then returns the helper's
    /// first error, if any.
    pub(crate) fn close(&mut self) -> Result<(), SegmentError> {
        self.queue = None;
        if let Some(helper) = self.helper.take() {
            if helper.join().is_err() {
                return Err(io::Error::other("window view helper panicked").into());
            }
        }
        self.check()
    }
}

impl Drop for FileView {
    fn drop(&mut self) {
        // The error, if any, was the caller's to take from `close`.
        let _ = self.close();
    }
}

#[allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]
#[cfg(test)]
mod tests {
    use super::*;

    fn lines(n: u64) -> Vec<String> {
        (0..n)
            .map(|i| format!("{{\"index\":{i},\"entries\":{}}}", i * 7))
            .collect()
    }

    fn encode(lines: &[String]) -> (Vec<u8>, Vec<usize>) {
        let (mut bytes, mut ends) = (Vec::new(), Vec::new());
        for (index, line) in (0..).zip(lines) {
            push_frame(index, line.as_bytes(), &mut bytes);
            ends.push(bytes.len());
        }
        (bytes, ends)
    }

    #[test]
    fn window_log_frames_round_trip() {
        let lines = lines(5);
        let (bytes, ends) = encode(&lines);
        assert_eq!(decode(&bytes), (lines.clone(), bytes.len()));
        assert_eq!(decode(&[]), (Vec::new(), 0));
        // Each frame is the segment frame shape: varint length, line, CRC.
        assert_eq!(ends[0], 1 + lines[0].len() + 4);
    }

    /// Cut anywhere, the log decodes to the frames that are whole.
    #[test]
    fn window_log_cut_at_every_length_keeps_the_whole_frames() {
        let lines = lines(4);
        let (bytes, ends) = encode(&lines);
        for cut in 0..bytes.len() {
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let (got, len) = decode(&bytes[..cut]);
            assert_eq!(got, lines[..whole], "cut at {cut}");
            assert_eq!(len, if whole == 0 { 0 } else { ends[whole - 1] });
        }
    }

    /// A frame is bound to its position: the same frame appended twice, or
    /// a frame moved up by one, ends the log.
    #[test]
    fn window_log_frame_out_of_place_ends_the_log() {
        let lines = lines(3);
        let (bytes, ends) = encode(&lines);
        let mut twice = bytes.clone();
        twice.extend_from_slice(&bytes[ends[1]..]);
        assert_eq!(decode(&twice), (lines, ends[2]));
        assert_eq!(decode(&bytes[ends[0]..]), (Vec::new(), 0));
    }

    /// Every byte of every frame flipped, with and without its CRC
    /// re-fixed, and lengths that overflow: the decoder never panics and
    /// keeps the frames before the damaged one — and the whole log only
    /// when the CRC was re-fixed and the line is still UTF-8.
    #[test]
    fn window_log_mutations_decode_typed_or_cleanly() {
        let lines = lines(3);
        let (bytes, ends) = encode(&lines);
        for (frame, &end) in ends.iter().enumerate() {
            let start = if frame == 0 { 0 } else { ends[frame - 1] };
            for at in start..end {
                for mask in [0x01u8, 0x80] {
                    let mut damaged = bytes.clone();
                    damaged[at] ^= mask;
                    let (got, _) = decode(&damaged);
                    assert_eq!(got, lines[..frame], "byte {at} ^ {mask:#x}");
                    // Re-fix the CRC of a flipped line byte.
                    let line_start = start + 1;
                    let line_end = end - 4;
                    if (line_start..line_end).contains(&at) {
                        let crc = frame_crc(frame as u64, &damaged[line_start..line_end]);
                        damaged[line_end..end].copy_from_slice(&crc.to_le_bytes());
                        let (got, _) = decode(&damaged);
                        let text = std::str::from_utf8(&damaged[line_start..line_end]);
                        let kept = if text.is_ok() { lines.len() } else { frame };
                        assert_eq!(got.len(), kept, "byte {at} ^ {mask:#x}, CRC re-fixed");
                        assert_eq!(got[..frame], lines[..frame]);
                    }
                }
            }
        }
        for len in [u64::MAX, u64::MAX / 2, usize::MAX as u64 - 2] {
            let mut crafted = Vec::new();
            varint::encode(len, &mut crafted);
            crafted.extend_from_slice(b"{}");
            assert_eq!(decode(&crafted), (Vec::new(), 0), "length {len}");
        }
    }
}
