//! A `Storage` that counts and times what passes through it. The traced
//! run hands one to `MonitorService::open_with`; the untraced run uses the
//! program's `RealStorage` directly.

use crate::surface::{RealStorage, Storage, StorageFile};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Totals since creation. Statistics only, hence relaxed atomics; they are
/// shared because files outlive the call that created them.
#[derive(Debug, Default)]
pub struct StorageCounts {
    pub fsyncs: AtomicU64,
    pub fsync_ns: AtomicU64,
    pub dir_syncs: AtomicU64,
    pub dir_sync_ns: AtomicU64,
    pub write_bytes: AtomicU64,
    pub write_ns: AtomicU64,
    pub creates: AtomicU64,
    pub renames: AtomicU64,
}

fn timed<T>(calls: &AtomicU64, ns: &AtomicU64, op: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = op();
    ns.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    calls.fetch_add(1, Relaxed);
    out
}

/// `RealStorage` with counters around every call.
#[derive(Debug, Default)]
pub struct CountingStorage {
    pub counts: Arc<StorageCounts>,
}

struct CountingFile {
    inner: Box<dyn StorageFile>,
    counts: Arc<StorageCounts>,
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        let written = self.inner.write(buf)?;
        let counts = &self.counts;
        counts
            .write_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        counts.write_bytes.fetch_add(written as u64, Relaxed);
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl StorageFile for CountingFile {
    fn sync_all(&mut self) -> io::Result<()> {
        timed(&self.counts.fsyncs, &self.counts.fsync_ns, || {
            self.inner.sync_all()
        })
    }
}

impl Storage for CountingStorage {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.counts.creates.fetch_add(1, Relaxed);
        Ok(Box::new(CountingFile {
            inner: RealStorage.create(path)?,
            counts: Arc::clone(&self.counts),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counts.renames.fetch_add(1, Relaxed);
        RealStorage.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealStorage.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealStorage.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        timed(&self.counts.dir_syncs, &self.counts.dir_sync_ns, || {
            RealStorage.sync_dir(path)
        })
    }
}
