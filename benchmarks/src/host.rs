//! What a result must record about where it was measured, and the scratch
//! directory every repetition writes into.

use serde::content::Content;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Refuse to start with less free space than this under the scratch root.
const MIN_FREE_BYTES: u64 = 2 << 30;

/// `nproc` as the program's own thread pools will see it.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Starts `VmHWM` over from the current resident set (Linux: writing `5` to
/// `/proc/self/clear_refs`), so that the peak reported at exit is the timed
/// section's and not set-up's. Returns whether the kernel took it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The commit of the enclosing git checkout, read from `.git` directly (the
/// benchmark also runs from exported trees, where there is none).
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(commit) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return commit.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// File-system type and free bytes of the file system holding `dir`, from
/// `df -PkT` (the standard library has no `statvfs`).
fn file_system(dir: &Path) -> Option<(String, u64)> {
    let output = Command::new("df").arg("-PkT").arg(dir).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let fields: Vec<&str> = text.lines().last()?.split_whitespace().collect();
    let free_kib: u64 = fields.get(4)?.parse().ok()?;
    Some((fields.get(1)?.to_string(), free_kib * 1024))
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// This process's scratch directory, unique per process, removed when
/// dropped — on success, on a failed check, and on unwinding.
pub struct Scratch {
    dir: PathBuf,
    pub fs_type: String,
    next: u32,
}

impl Scratch {
    /// Creates `<root>/<pid>-<run>`. Fails if the file system has less than
    /// 2 GiB free (when `df` can tell).
    pub fn create(root: &Path) -> Result<Self, String> {
        // Unique per process, and per run within one (the unit tests run
        // several at once).
        static RUNS: AtomicU32 = AtomicU32::new(0);
        let run = RUNS.fetch_add(1, Relaxed);
        let dir = root.join(format!("{}-{run}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut scratch = Self {
            dir,
            fs_type: "unknown".into(),
            next: 0,
        };
        if let Some((fs_type, free)) = file_system(&scratch.dir) {
            scratch.fs_type = fs_type;
            if free < MIN_FREE_BYTES {
                return Err(format!(
                    "only {} MiB free under {} (need {} MiB)",
                    free >> 20,
                    scratch.dir.display(),
                    MIN_FREE_BYTES >> 20
                ));
            }
        }
        Ok(scratch)
    }

    /// A path for a fresh sub-directory (not created).
    pub fn fresh(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        self.dir.join(format!("{tag}-{}", self.next))
    }

    /// Removes a sub-directory a repetition is done with.
    pub fn discard(&self, dir: &Path) {
        debug_assert!(dir.starts_with(&self.dir));
        std::fs::remove_dir_all(dir).ok();
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// The default scratch root: beside the running executable, so it always
/// lies inside whatever target directory cargo built into — a real file
/// system (fsync cost is part of what is measured) that is already ignored.
pub fn default_scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("bench-scratch")))
        .unwrap_or_else(|| PathBuf::from("target/bench-scratch"))
}

/// The environment fields of a result object.
pub fn describe(scratch: &Scratch) -> Vec<(&'static str, Content)> {
    vec![
        ("nproc", Content::U64(nproc())),
        ("rustc", Content::Str(env!("BENCH_RUSTC").into())),
        ("git_commit", Content::Str(git_commit())),
        ("scratch_fs", Content::Str(scratch.fs_type.clone())),
    ]
}
