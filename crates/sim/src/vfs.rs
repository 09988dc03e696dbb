//! A minimal virtual filesystem seam for the durability stack.
//!
//! The journal's crash-safety claims (PR 4) and the serve daemon's
//! restart recovery (PR 8) were only ever exercised against clean
//! process death. Real storage fails in richer ways: a write tears
//! mid-buffer, an fsync returns `EIO`, a rename never lands, the disk
//! fills. This module introduces the one seam needed to *prove* the
//! stack against those faults deterministically: every durable-path
//! filesystem operation goes through the [`Fs`] trait, with two
//! backends —
//!
//! * [`StdFs`] — thin passthrough to `std::fs`, the production backend.
//!   All call sites receive it via [`std_fs`], a process-wide cached
//!   handle, so the indirection is one vtable call on paths that were
//!   already doing millisecond-scale I/O; the warm simulation tick
//!   never touches this module.
//! * `FaultyFs` (behind the `fault-injection` feature) — wraps `StdFs`
//!   with a deterministic mutating-operation counter and a scripted
//!   fault table, so a test can say "the 7th durable operation of this
//!   run tears" and replay it exactly. The crash-matrix harness
//!   (`tests/crash_matrix.rs`) enumerates every such operation across
//!   all journal kinds and faults each one in turn.
//!
//! Fault model (see DESIGN.md § Failure model): torn writes persist a
//! seeded prefix of the buffer; `ENOSPC` rejects the write with no
//! effect; fsync failures leave content written but report `EIO`;
//! rename failures leave the temp file in place; a `Crash` applies the
//! operation's partial effect and then fails *every* subsequent
//! operation, modeling process death at that instant.

use std::fmt::Debug;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// The filesystem operations the durability stack performs.
///
/// Deliberately tiny: only what `Journal`, `TaskStore` and `fsck`
/// need. Implementations must be shareable across the campaign's
/// worker threads.
pub trait Fs: Send + Sync + Debug {
    /// Creates `path` and any missing parents, like
    /// [`std::fs::create_dir_all`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Creates (or truncates) `path` and writes `bytes` in full.
    /// Durability is *not* implied — pair with [`Fs::fsync`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure; an injected torn write
    /// may leave a prefix of `bytes` behind.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Flushes `path` (a file or, on Unix, a directory) to stable
    /// storage.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    fn fsync(&self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` over `to`, like [`std::fs::rename`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Reads the entire file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Lists the file names (not paths) inside the directory `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<String>>;

    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// True when `path` exists (any kind).
    fn exists(&self, path: &Path) -> bool;
}

/// A shared, dynamically dispatched filesystem handle.
pub type DynFs = Arc<dyn Fs>;

/// The production backend: a thin passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl Fs for StdFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = File::create(path)?;
        file.write_all(bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        // Opening read-only works for both files and (on Unix)
        // directories, which is exactly the pair the journal syncs.
        File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(path)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(names)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The process-wide [`StdFs`] handle. Cached so every default
/// `DurableOptions`/`ServeConfig` shares one allocation.
#[must_use]
pub fn std_fs() -> DynFs {
    static FS: OnceLock<DynFs> = OnceLock::new();
    FS.get_or_init(|| Arc::new(StdFs)).clone()
}

/// Reads `path` through `fs` as UTF-8.
///
/// # Errors
///
/// Propagates the read failure; non-UTF-8 content maps to
/// [`io::ErrorKind::InvalidData`].
pub fn read_to_string(fs: &dyn Fs, path: &Path) -> io::Result<String> {
    let bytes = fs.read(path)?;
    String::from_utf8(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file is not UTF-8"))
}

#[cfg(feature = "fault-injection")]
pub use faulty::{FaultKind, FaultyFs, ALL_FAULTS};

#[cfg(feature = "fault-injection")]
mod faulty {
    use super::{Fs, StdFs};
    use crate::telemetry;
    use p7_types::fnv64;
    use std::io;
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    /// The storage fault classes the crash matrix injects.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind {
        /// The write persists a seeded prefix of the buffer, then the
        /// operation fails and the process is treated as dead (every
        /// later operation fails) — a power cut mid-`write(2)`.
        TornWrite,
        /// The operation fails with `ENOSPC` and has no effect.
        Enospc,
        /// The fsync reports `EIO`; the file's content stays as
        /// written, but nothing was promised durable.
        FsyncFail,
        /// The rename reports `EIO`; the temp file stays in place.
        RenameFail,
        /// The operation's *partial* effect lands (a torn write, an
        /// fsync that loses the non-durable tail), then every
        /// subsequent operation fails — SIGKILL at this exact point.
        Crash,
    }

    /// Every [`FaultKind`], in the order the crash matrix sweeps them.
    pub const ALL_FAULTS: [FaultKind; 5] = [
        FaultKind::TornWrite,
        FaultKind::Enospc,
        FaultKind::FsyncFail,
        FaultKind::RenameFail,
        FaultKind::Crash,
    ];

    /// A deterministic fault-injecting wrapper around [`StdFs`].
    ///
    /// Mutating operations (`create_dir_all`, `write`, `fsync`,
    /// `rename`, `remove_file`) are numbered from 0 in call order; a
    /// scripted `(index, kind)` table decides which ones fail and how.
    /// With an empty script the wrapper is a pure counter — the crash
    /// matrix first runs fault-free to learn how many durable
    /// operations a campaign performs, then replays once per
    /// (operation, fault) pair.
    #[derive(Debug)]
    pub struct FaultyFs {
        inner: StdFs,
        seed: u64,
        ops: AtomicU64,
        script: Vec<(u64, FaultKind)>,
        crashed: AtomicBool,
        sticky_write_failures: AtomicBool,
    }

    impl FaultyFs {
        /// A wrapper injecting `script` faults, with `seed` driving
        /// torn-write prefix lengths.
        #[must_use]
        pub fn new(seed: u64, script: Vec<(u64, FaultKind)>) -> Arc<Self> {
            Arc::new(FaultyFs {
                inner: StdFs,
                seed,
                ops: AtomicU64::new(0),
                script,
                crashed: AtomicBool::new(false),
                sticky_write_failures: AtomicBool::new(false),
            })
        }

        /// Mutating operations observed so far.
        #[must_use]
        pub fn mutating_ops(&self) -> u64 {
            self.ops.load(Ordering::SeqCst)
        }

        /// True once a `TornWrite`/`Crash` fault fired: the simulated
        /// process is dead and every operation fails.
        #[must_use]
        pub fn has_crashed(&self) -> bool {
            self.crashed.load(Ordering::SeqCst)
        }

        /// Toggles persistent write failure: while set, every mutating
        /// operation fails with `ENOSPC` (reads still work). This is
        /// the degraded-serve scenario — a full disk that later frees.
        pub fn set_sticky_write_failures(&self, on: bool) {
            self.sticky_write_failures.store(on, Ordering::SeqCst);
        }

        /// The seeded torn prefix for operation `op` of a `len`-byte
        /// buffer: deterministic, strictly short of the full buffer.
        fn torn_len(&self, op: u64, len: usize) -> usize {
            if len == 0 {
                return 0;
            }
            let h = fnv64(&[self.seed.to_le_bytes(), op.to_le_bytes()].concat());
            (h as usize) % len
        }

        /// Accounts one mutating operation. Returns the fault
        /// scheduled for it, if any; errors when the simulated process
        /// is already dead or sticky write failure is on.
        fn mutating_op(&self) -> io::Result<Option<(u64, FaultKind)>> {
            if self.crashed.load(Ordering::SeqCst) {
                return Err(dead());
            }
            if self.sticky_write_failures.load(Ordering::SeqCst) {
                telemetry::io_faults_injected().inc();
                return Err(enospc());
            }
            let op = self.ops.fetch_add(1, Ordering::SeqCst);
            let fault = self
                .script
                .iter()
                .find(|(at, _)| *at == op)
                .map(|(_, kind)| (op, *kind));
            if fault.is_some() {
                telemetry::io_faults_injected().inc();
            }
            Ok(fault)
        }

        fn crash(&self) {
            self.crashed.store(true, Ordering::SeqCst);
        }
    }

    fn enospc() -> io::Error {
        // 28 is ENOSPC on Linux, the only platform the matrix runs on.
        io::Error::from_raw_os_error(28)
    }

    fn eio(what: &str) -> io::Error {
        io::Error::other(format!("injected fault: {what}"))
    }

    fn dead() -> io::Error {
        io::Error::other("injected fault: process crashed earlier in this run")
    }

    impl Fs for FaultyFs {
        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            match self.mutating_op()? {
                None => self.inner.create_dir_all(path),
                Some((_, FaultKind::Enospc)) => Err(enospc()),
                Some((_, FaultKind::Crash | FaultKind::TornWrite)) => {
                    self.crash();
                    Err(dead())
                }
                Some(_) => Err(eio("create_dir_all failed")),
            }
        }

        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            match self.mutating_op()? {
                None => self.inner.write(path, bytes),
                Some((_, FaultKind::Enospc)) => Err(enospc()),
                Some((op, FaultKind::TornWrite)) => {
                    let _ = self
                        .inner
                        .write(path, &bytes[..self.torn_len(op, bytes.len())]);
                    self.crash();
                    Err(eio("torn write"))
                }
                Some((op, FaultKind::Crash)) => {
                    let _ = self
                        .inner
                        .write(path, &bytes[..self.torn_len(op, bytes.len())]);
                    self.crash();
                    Err(dead())
                }
                Some(_) => Err(eio("write failed")),
            }
        }

        fn fsync(&self, path: &Path) -> io::Result<()> {
            match self.mutating_op()? {
                None => self.inner.fsync(path),
                Some((_, FaultKind::Enospc)) => Err(enospc()),
                Some((_, FaultKind::FsyncFail | FaultKind::RenameFail | FaultKind::TornWrite)) => {
                    Err(eio("fsync failed"))
                }
                Some((op, FaultKind::Crash)) => {
                    // Crash before the flush completed: the file's
                    // un-synced tail is lost. Model it by truncating a
                    // regular file to a seeded prefix.
                    if path.is_file() {
                        if let Ok(full) = self.inner.read(path) {
                            let keep = self.torn_len(op, full.len());
                            let _ = self.inner.write(path, &full[..keep]);
                        }
                    }
                    self.crash();
                    Err(dead())
                }
            }
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            match self.mutating_op()? {
                None => self.inner.rename(from, to),
                Some((_, FaultKind::Enospc)) => Err(enospc()),
                Some((_, FaultKind::Crash | FaultKind::TornWrite)) => {
                    self.crash();
                    Err(dead())
                }
                Some(_) => Err(eio("rename failed")),
            }
        }

        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            if self.crashed.load(Ordering::SeqCst) {
                return Err(dead());
            }
            self.inner.read(path)
        }

        fn read_dir(&self, path: &Path) -> io::Result<Vec<String>> {
            if self.crashed.load(Ordering::SeqCst) {
                return Err(dead());
            }
            self.inner.read_dir(path)
        }

        fn remove_file(&self, path: &Path) -> io::Result<()> {
            match self.mutating_op()? {
                None => self.inner.remove_file(path),
                Some((_, FaultKind::Enospc)) => Err(enospc()),
                Some((_, FaultKind::Crash | FaultKind::TornWrite)) => {
                    self.crash();
                    Err(dead())
                }
                Some(_) => Err(eio("remove failed")),
            }
        }

        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("p7-vfs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_fs_round_trips() {
        let dir = tmp("std");
        let fs_handle = std_fs();
        let path = dir.join("a.txt");
        fs_handle.write(&path, b"hello").unwrap();
        fs_handle.fsync(&path).unwrap();
        assert_eq!(fs_handle.read(&path).unwrap(), b"hello");
        assert!(fs_handle.exists(&path));
        fs_handle.rename(&path, &dir.join("b.txt")).unwrap();
        assert!(!fs_handle.exists(&path));
        let names = fs_handle.read_dir(&dir).unwrap();
        assert_eq!(names, vec!["b.txt".to_owned()]);
        fs_handle.remove_file(&dir.join("b.txt")).unwrap();
        assert!(fs_handle.read_dir(&dir).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn faulty_fs_counts_and_injects() {
        let dir = tmp("faulty");
        // Script: op 1 (the second write) tears.
        let faulty = FaultyFs::new(7, vec![(1, FaultKind::TornWrite)]);
        let a = dir.join("a");
        let b = dir.join("b");
        faulty.write(&a, b"aaaa").unwrap();
        assert_eq!(faulty.mutating_ops(), 1);
        let err = faulty.write(&b, b"bbbbbbbb").unwrap_err();
        assert!(err.to_string().contains("torn write"));
        assert!(faulty.has_crashed());
        // A torn prefix landed, strictly shorter than the buffer.
        assert!(fs::read(&b).map_or(true, |v| v.len() < 8));
        // Dead processes cannot do anything any more.
        assert!(faulty.write(&a, b"x").is_err());
        assert!(faulty.read(&a).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn sticky_write_failures_toggle() {
        let dir = tmp("sticky");
        let faulty = FaultyFs::new(1, Vec::new());
        let p = dir.join("p");
        faulty.write(&p, b"1").unwrap();
        faulty.set_sticky_write_failures(true);
        let err = faulty.write(&p, b"2").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "expected ENOSPC");
        assert_eq!(faulty.read(&p).unwrap(), b"1", "reads still work");
        faulty.set_sticky_write_failures(false);
        faulty.write(&p, b"3").unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
