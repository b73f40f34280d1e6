//! The injectable storage layer and deterministic fault injection.
//!
//! Durability claims are only as good as the tests that exercise the failure
//! paths, and real disks fail in ways unit tests never produce on their own:
//! processes die between a write and its fsync, writes tear mid-buffer on
//! power loss, sectors flip bits, volumes fill up, and transient `EIO`s come
//! and go. This module makes every file-system side effect of the write path
//! injectable:
//!
//! * [`Storage`] / [`StorageFile`] — the small trait pair wrapping file
//!   create/write/fsync/rename/remove/dir-sync. [`MonitorWriter`],
//!   [`DatasetWriter`], checkpointing and recovery route every
//!   mutation through it ([`crate::writer::TraceWriter`] writes through the
//!   storage-backed sink its owner hands it).
//! * [`RealStorage`] — the production implementation: plain `std::fs`.
//! * [`FaultyStorage`] — a deterministic, seeded fault injector layered over
//!   the real file system (faults manifest as real on-disk states, so the
//!   normal readers and [`crate::recover::recover_dataset`] see exactly what
//!   a crash would leave behind): crash-at-op-k with clean or torn final
//!   writes, silent bit flips, `ENOSPC`, and transient `EIO`.
//! * [`RetryPolicy`] / [`with_retry`] — bounded retry with exponential
//!   backoff for the *transient* error class only, surfaced as the
//!   `store.io_retries` obs counter. Persistent errors surface immediately.
//!
//! "Crash" semantics: once the configured operation index is reached, the
//! crashing operation fails and **every subsequent operation fails too** —
//! the process is considered dead. A test then drops its writers (losing all
//! buffered state, as a real crash would) and runs recovery against the
//! directory the faulty storage left behind.
//!
//! [`MonitorWriter`]: crate::manifest::MonitorWriter
//! [`DatasetWriter`]: crate::manifest::DatasetWriter

use ipfs_mon_obs as obs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// An open, writable file handle behind a [`Storage`] implementation.
///
/// `Write` supplies the data path; `sync_all` is the durability barrier
/// (fsync). Handles are `Send` so per-monitor writers can live on their own
/// ingestion threads.
pub trait StorageFile: Write + Send {
    /// Flushes all data (and metadata) of this file to stable storage.
    fn sync_all(&mut self) -> io::Result<()>;
}

impl StorageFile for std::fs::File {
    fn sync_all(&mut self) -> io::Result<()> {
        std::fs::File::sync_all(self)
    }
}

/// The injectable file-system mutation interface of the write path.
///
/// Every durable side effect of dataset writing — segment files, checkpoint
/// and manifest writes, atomic renames, quarantine moves, directory syncs —
/// goes through one of these methods, so a single [`FaultyStorage`] instance
/// can deterministically fail any step of any protocol built on top.
/// Read-side code (segment readers) is untouched: faults manifest as real
/// bytes on disk, which readers then see.
pub trait Storage: Send + Sync {
    /// Creates (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Atomically renames `from` to `to` (same file system).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates a directory and all missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Makes a directory's entries (creates, renames, removals) durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
}

/// The production [`Storage`]: plain `std::fs` operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealStorage;

impl Storage for RealStorage {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(std::fs::File::create(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    #[cfg(unix)]
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    #[cfg(not(unix))]
    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        // Directory handles are not fsync-able on this platform; renames are
        // already durable-enough via the file-level syncs.
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Transient-error retry
// ---------------------------------------------------------------------------

/// Bounded retry with exponential backoff for transient I/O errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of *re*-attempts after the first failure.
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_backoff << n` (n = 0, 1, …).
    pub base_backoff: std::time::Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_backoff: std::time::Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (every error surfaces immediately).
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            base_backoff: std::time::Duration::ZERO,
        }
    }
}

/// Whether an I/O error belongs to the transient class worth retrying.
///
/// Transient means the *same* operation may succeed if simply re-issued:
/// interrupted syscalls and the transient-`EIO` class [`FaultyStorage`]
/// injects. Persistent conditions (`ENOSPC`, permission errors, a crashed
/// storage) are not retried.
pub fn is_transient(error: &io::Error) -> bool {
    error.kind() == io::ErrorKind::Interrupted
}

/// Runs `op`, retrying transient failures per `policy` with exponential
/// backoff. Every retry increments the `store.io_retries` obs counter. If
/// the transient condition outlives the retry budget, the error is rewrapped
/// as non-transient so callers (notably `Write::write_all`, which retries
/// `Interrupted` unboundedly) cannot loop forever.
pub fn with_retry<T>(policy: RetryPolicy, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Err(error) if is_transient(&error) => {
                if attempt >= policy.max_retries {
                    return Err(io::Error::other(format!(
                        "transient I/O error persisted after {attempt} retries: {error}"
                    )));
                }
                obs::counter!("store.io_retries").incr();
                let backoff = policy.base_backoff * (1u32 << attempt.min(16));
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// A [`StorageFile`] wrapper applying [`with_retry`] to every write and
/// fsync — the transient-`EIO` absorber of the write path.
pub struct RetryFile {
    inner: Box<dyn StorageFile>,
    policy: RetryPolicy,
}

impl RetryFile {
    /// Wraps `inner` with the given retry policy.
    pub fn new(inner: Box<dyn StorageFile>, policy: RetryPolicy) -> Self {
        Self { inner, policy }
    }
}

impl Write for RetryFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let inner = &mut self.inner;
        with_retry(self.policy, || inner.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        with_retry(self.policy, || inner.flush())
    }
}

impl StorageFile for RetryFile {
    fn sync_all(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        with_retry(self.policy, || inner.sync_all())
    }
}

// ---------------------------------------------------------------------------
// Durable-write helper
// ---------------------------------------------------------------------------

/// Suffix of the temporary file used by [`write_file_durable`]. Stale files
/// with this suffix (from a crash between create and rename) are swept by
/// [`crate::recover::recover_dataset`].
pub const DURABLE_TMP_SUFFIX: &str = ".tmp";

/// `path` with [`DURABLE_TMP_SUFFIX`] appended to its file name: where a
/// replacement of `path` is staged, in the same directory so the rename is
/// atomic.
pub(crate) fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(DURABLE_TMP_SUFFIX);
    path.with_file_name(name)
}

/// Writes `bytes` to `path` durably and atomically (see [`replace_durable`]).
/// A crash at any point leaves either the old file intact or the new file
/// fully in place (plus at most one stale `.tmp`).
pub fn write_file_durable(storage: &dyn Storage, path: &Path, bytes: &[u8]) -> io::Result<()> {
    replace_durable(storage, path, bytes).map(drop)
}

/// Replaces `path` with `bytes` durably and atomically and returns the new
/// file's open handle, positioned after `bytes`, for appends: stages the
/// bytes as `<path>.tmp`, writes and fsyncs them, renames the staged file
/// over `path` and fsyncs the parent directory — five storage operations
/// (four when `bytes` is empty, which issues no write).
///
/// A crash at any point leaves `path` either as it was or holding exactly
/// `bytes`, plus at most one stray `.tmp`. Nothing is durable until this
/// returns `Ok`; what is appended through the handle afterwards is durable
/// once the handle's `sync_all` returns.
pub fn replace_durable(
    storage: &dyn Storage,
    path: &Path,
    bytes: &[u8],
) -> io::Result<Box<dyn StorageFile>> {
    let tmp = staging_path(path);
    let mut file = storage.create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    storage.rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        storage.sync_dir(parent)?;
    }
    Ok(file)
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// How the write at the crash point behaves before the storage dies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CrashMode {
    /// The crashing operation performs nothing: clean cut at an operation
    /// boundary (e.g. kill -9 between syscalls).
    #[default]
    Clean,
    /// If the crashing operation is a data write, a seeded-length *prefix*
    /// of the buffer reaches the file before the crash — the torn tail
    /// write of a power loss mid-I/O. Non-write operations crash cleanly.
    TornWrite,
}

/// The deterministic fault schedule of a [`FaultyStorage`]. Operation
/// indices count every [`Storage`]/[`StorageFile`] call (creates, writes,
/// fsyncs, renames, removals, dir syncs) in issue order, starting at 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Crash at this operation index: the operation fails (per
    /// [`CrashMode`]) and all later operations fail with
    /// [`crash_error`]-recognizable errors.
    pub crash_at_op: Option<u64>,
    /// Behavior of the crashing operation itself.
    pub crash_mode: CrashMode,
    /// Silently flip one seeded bit in the buffer of this write operation —
    /// the operation *succeeds*, modeling latent sector corruption. Ignored
    /// for non-write operations.
    pub flip_bit_at_op: Option<u64>,
    /// Fail this operation once with `ENOSPC` (volume full). Not a crash:
    /// later operations proceed normally, so callers observe a typed,
    /// persistent, non-transient error.
    pub enospc_at_op: Option<u64>,
    /// Every operation whose index is a positive multiple of this fails once
    /// with a transient `EIO` (`ErrorKind::Interrupted`). The retried
    /// operation consumes a fresh index and succeeds, so any value ≥ 2
    /// exercises the bounded-retry path without ever wedging it.
    pub transient_every: Option<u64>,
    /// Seed for torn-write lengths and bit-flip positions.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (useful for counting operations).
    pub fn none() -> Self {
        Self::default()
    }

    /// A clean crash at operation `op`.
    pub fn crash_at(op: u64) -> Self {
        Self {
            crash_at_op: Some(op),
            ..Self::default()
        }
    }

    /// A torn-write crash at operation `op` with the given seed.
    pub fn torn_at(op: u64, seed: u64) -> Self {
        Self {
            crash_at_op: Some(op),
            crash_mode: CrashMode::TornWrite,
            seed,
            ..Self::default()
        }
    }
}

/// Full-avalanche splitmix64 — the deterministic randomness behind torn
/// lengths and flipped bit positions.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const CRASH_MSG: &str = "injected storage crash";

/// The error every operation returns once a [`FaultyStorage`] has crashed.
pub fn crash_error() -> io::Error {
    io::Error::other(CRASH_MSG)
}

/// True when `error` is (or wraps) the injected-crash error.
pub fn is_crash_error(error: &io::Error) -> bool {
    error.to_string().contains(CRASH_MSG)
}

/// Linux `ENOSPC`, raised as a real OS error so `ErrorKind` mapping matches
/// what a full volume produces.
fn enospc_error() -> io::Error {
    io::Error::from_raw_os_error(28)
}

struct FaultState {
    plan: FaultPlan,
    ops: AtomicU64,
    crashed: AtomicBool,
    enospc_fired: AtomicBool,
}

/// What the injector decided for one operation.
enum Verdict {
    Proceed,
    Fail(io::Error),
    /// Write only `keep` bytes of the buffer, then crash.
    Torn(usize),
    /// Write the full buffer with bit `bit` flipped; report success.
    FlipBit(u64),
}

impl FaultState {
    /// Consumes one operation index and decides this operation's fate.
    /// `write_len` is `Some(buffer length)` for data writes.
    fn decide(&self, write_len: Option<usize>) -> Verdict {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        if self.crashed.load(Ordering::SeqCst) {
            return Verdict::Fail(crash_error());
        }
        if self.plan.crash_at_op == Some(op) {
            self.crashed.store(true, Ordering::SeqCst);
            if self.plan.crash_mode == CrashMode::TornWrite {
                if let Some(len) = write_len {
                    // Keep a strict prefix: 0..len bytes of the buffer land.
                    let keep = (mix(self.plan.seed ^ op) % (len as u64).max(1)) as usize;
                    return Verdict::Torn(keep);
                }
            }
            return Verdict::Fail(crash_error());
        }
        if self.plan.enospc_at_op == Some(op) && !self.enospc_fired.swap(true, Ordering::SeqCst) {
            return Verdict::Fail(enospc_error());
        }
        if let Some(every) = self.plan.transient_every {
            if every > 0 && op > 0 && op.is_multiple_of(every) {
                return Verdict::Fail(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected transient EIO",
                ));
            }
        }
        if self.plan.flip_bit_at_op == Some(op) {
            if let Some(len) = write_len {
                if len > 0 {
                    return Verdict::FlipBit(mix(self.plan.seed ^ op ^ 0x5bd1) % (len as u64 * 8));
                }
            }
        }
        Verdict::Proceed
    }
}

/// A deterministic fault-injecting [`Storage`] layered over the real file
/// system. See the [module docs](self) for semantics; construct one per
/// simulated process lifetime, drive the writer until it errors, drop the
/// writer, and recover from the directory left behind.
#[derive(Clone)]
pub struct FaultyStorage {
    state: Arc<FaultState>,
}

impl FaultyStorage {
    /// Creates a fault injector with the given schedule.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            state: Arc::new(FaultState {
                plan,
                ops: AtomicU64::new(0),
                crashed: AtomicBool::new(false),
                enospc_fired: AtomicBool::new(false),
            }),
        }
    }

    /// Operations issued so far. Run a workload fault-free
    /// ([`FaultPlan::none`]) to learn its operation count, then sweep
    /// `crash_at_op` over `0..ops()` to enumerate every crash point.
    pub fn ops(&self) -> u64 {
        self.state.ops.load(Ordering::SeqCst)
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }

    fn gate(&self) -> io::Result<()> {
        match self.state.decide(None) {
            Verdict::Proceed => Ok(()),
            Verdict::Fail(error) => Err(error),
            // Torn/FlipBit only apply to writes; decide() never returns them
            // for write_len = None.
            Verdict::Torn(_) | Verdict::FlipBit(_) => unreachable!("non-write verdict"),
        }
    }
}

impl Storage for FaultyStorage {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.gate()?;
        Ok(Box::new(FaultyFile {
            file: std::fs::File::create(path)?,
            state: Arc::clone(&self.state),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate()?;
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.gate()?;
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.gate()?;
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.gate()?;
        RealStorage.sync_dir(path)
    }
}

/// A file handle whose writes and fsyncs consult the shared fault schedule.
struct FaultyFile {
    file: std::fs::File,
    state: Arc<FaultState>,
}

impl Write for FaultyFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.state.decide(Some(buf.len())) {
            Verdict::Proceed => self.file.write(buf),
            Verdict::Fail(error) => Err(error),
            Verdict::Torn(keep) => {
                // Best effort, exactly like a dying kernel: part of the
                // buffer lands, then the error surfaces.
                let _ = self.file.write_all(&buf[..keep]);
                let _ = self.file.flush();
                Err(crash_error())
            }
            Verdict::FlipBit(bit) => {
                let mut corrupted = buf.to_vec();
                corrupted[(bit / 8) as usize] ^= 1 << (bit % 8);
                self.file.write_all(&corrupted)?;
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // Flush is a buffer hand-off, not a syscall with failure semantics
        // of its own here; faults attach to writes and syncs.
        self.file.flush()
    }
}

impl StorageFile for FaultyFile {
    fn sync_all(&mut self) -> io::Result<()> {
        match self.state.decide(None) {
            Verdict::Proceed => self.file.sync_all(),
            Verdict::Fail(error) => Err(error),
            Verdict::Torn(_) | Verdict::FlipBit(_) => unreachable!("non-write verdict"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fault-{name}-{}", std::process::id()))
    }

    #[test]
    fn real_storage_roundtrip_and_durable_write() {
        let path = temp_path("real");
        write_file_durable(&RealStorage, &path, b"hello").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        // Overwrite is atomic: the tmp never lingers.
        write_file_durable(&RealStorage, &path, b"world").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"world");
        assert!(!staging_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    /// A fresh, empty directory for one test.
    fn temp_dir(name: &str) -> PathBuf {
        let dir = temp_path(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_durable_replace_costs_five_ops_and_its_handle_appends() {
        let dir = temp_dir("replace-ops");
        let path = dir.join("log");
        let storage = FaultyStorage::new(FaultPlan::none());
        let mut file = replace_durable(&storage, &path, b"head").unwrap();
        assert_eq!(storage.ops(), 5);
        file.write_all(b"+tail").unwrap();
        file.sync_all().unwrap();
        assert_eq!(storage.ops(), 7);
        assert_eq!(std::fs::read(&path).unwrap(), b"head+tail");
        assert!(!staging_path(&path).exists());
        // An empty replacement issues no write.
        let storage = FaultyStorage::new(FaultPlan::none());
        drop(replace_durable(&storage, &path, b"").unwrap());
        assert_eq!(storage.ops(), 4);
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Kill a durable replace at every one of its operations, cleanly and
    /// with a torn write: the target holds its old bytes while the rename
    /// (op 3) has not run and exactly its new bytes once it has, and
    /// nothing but the `.tmp` stray is ever left beside it.
    #[test]
    fn write_file_durable_survives_a_crash_at_every_op() {
        let (old, new) = (b"old bytes".as_slice(), b"the new bytes".as_slice());
        for k in 0..5 {
            for (mode, plan) in [
                ("clean", FaultPlan::crash_at(k)),
                ("torn", FaultPlan::torn_at(k, k)),
            ] {
                let dir = temp_dir(&format!("replace-crash-{mode}-{k}"));
                let path = dir.join("target");
                std::fs::write(&path, old).unwrap();
                let storage = FaultyStorage::new(plan);
                let err = write_file_durable(&storage, &path, new).unwrap_err();
                assert!(is_crash_error(&err), "{mode} crash at op {k}: {err}");
                let want = if k <= 3 { old } else { new };
                assert_eq!(
                    std::fs::read(&path).unwrap(),
                    want,
                    "{mode} crash at op {k}"
                );
                for entry in std::fs::read_dir(&dir).unwrap() {
                    let name = entry.unwrap().file_name().into_string().unwrap();
                    assert!(
                        name == "target" || name.ends_with(DURABLE_TMP_SUFFIX),
                        "{mode} crash at op {k}: stray {name}"
                    );
                }
                std::fs::remove_dir_all(&dir).ok();
            }
        }
        // Past the last operation nothing crashes and no stray is left.
        let dir = temp_dir("replace-crash-none");
        let path = dir.join("target");
        write_file_durable(&FaultyStorage::new(FaultPlan::crash_at(5)), &path, new).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), new);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_at_op_kills_everything_after() {
        let storage = FaultyStorage::new(FaultPlan::crash_at(2));
        let path = temp_path("crash");
        let mut file = storage.create(&path).unwrap(); // op 0
        file.write_all(b"ok").unwrap(); // op 1
        let err = file.write_all(b"boom").unwrap_err(); // op 2: crash
        assert!(is_crash_error(&err));
        assert!(storage.crashed());
        // Every later operation fails too.
        assert!(file.sync_all().is_err());
        assert!(storage.create(&temp_path("crash2")).is_err());
        assert!(storage.rename(&path, &temp_path("crash3")).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"ok");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_write_keeps_a_strict_prefix() {
        for seed in 0..8 {
            let storage = FaultyStorage::new(FaultPlan::torn_at(1, seed));
            let path = temp_path(&format!("torn-{seed}"));
            let mut file = storage.create(&path).unwrap(); // op 0
            let err = file.write_all(&[0xAB; 100]).unwrap_err(); // op 1: torn
            assert!(is_crash_error(&err));
            let on_disk = std::fs::read(&path).unwrap();
            assert!(on_disk.len() < 100, "torn write must lose bytes");
            assert!(on_disk.iter().all(|&b| b == 0xAB));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn bit_flip_is_silent() {
        let storage = FaultyStorage::new(FaultPlan {
            flip_bit_at_op: Some(1),
            seed: 7,
            ..FaultPlan::default()
        });
        let path = temp_path("flip");
        let mut file = storage.create(&path).unwrap(); // op 0
        file.write_all(&[0u8; 64]).unwrap(); // op 1: flipped, but Ok
        file.sync_all().unwrap();
        drop(file);
        let on_disk = std::fs::read(&path).unwrap();
        let ones: u32 = on_disk.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit must have flipped");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn enospc_is_persistent_not_transient_and_not_fatal() {
        let storage = FaultyStorage::new(FaultPlan {
            enospc_at_op: Some(1),
            ..FaultPlan::default()
        });
        let path = temp_path("enospc");
        let mut file = storage.create(&path).unwrap(); // op 0
        let err = file.write(b"x").unwrap_err(); // op 1
        assert_eq!(err.raw_os_error(), Some(28));
        assert!(!is_transient(&err));
        // Not a crash: the next operation succeeds.
        file.write_all(b"y").unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_eio_is_absorbed_by_retry_file() {
        let storage = FaultyStorage::new(FaultPlan {
            transient_every: Some(2),
            ..FaultPlan::default()
        });
        let path = temp_path("transient");
        let inner = storage.create(&path).unwrap(); // op 0
        let mut file = RetryFile::new(
            inner,
            RetryPolicy {
                max_retries: 3,
                base_backoff: std::time::Duration::ZERO,
            },
        );
        // Ops 1..: every even op fails once; the retry consumes an odd index
        // and succeeds, so all writes land despite the fault schedule.
        for i in 0..10u8 {
            file.write_all(&[i]).unwrap();
        }
        file.sync_all().unwrap();
        drop(file);
        assert_eq!(std::fs::read(&path).unwrap(), (0..10u8).collect::<Vec<_>>());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_a_non_transient_error() {
        let mut calls = 0;
        let result: io::Result<()> = with_retry(
            RetryPolicy {
                max_retries: 2,
                base_backoff: std::time::Duration::ZERO,
            },
            || {
                calls += 1;
                Err(io::Error::new(io::ErrorKind::Interrupted, "always"))
            },
        );
        let err = result.unwrap_err();
        assert_eq!(calls, 3, "initial attempt + 2 retries");
        assert!(
            !is_transient(&err),
            "exhausted retries must not stay Interrupted (write_all would spin)"
        );
    }

    #[test]
    fn op_counting_supports_crash_sweeps() {
        let storage = FaultyStorage::new(FaultPlan::none());
        let path = temp_path("count");
        let mut file = storage.create(&path).unwrap();
        file.write_all(b"abc").unwrap();
        file.sync_all().unwrap();
        drop(file);
        storage.remove_file(&path).unwrap();
        assert_eq!(storage.ops(), 4);
        assert!(!storage.crashed());
    }
}
