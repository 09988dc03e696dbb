//! Durability layer for long-running campaigns: crash-consistent
//! journals, panic-isolated workers and cooperative cancellation.
//!
//! Real guardband characterization runs on machines that crash *by
//! design* — margin sweeps hang or reboot the target — so a campaign
//! that loses hours of completed grid points to one panic or a Ctrl-C is
//! unusable at production scale. This module gives the sweep,
//! resilience and fleet engines three ingredients:
//!
//! * [`Journal`] — a checksummed on-disk log of completed point results.
//!   Every checkpoint is one *segment* file written
//!   write-temp-then-rename and fsynced, so a crash at any instant
//!   leaves only whole, verifiable segments behind. A
//!   [`CampaignManifest`] written at creation pins the exact spec
//!   (canonical JSON + fingerprint + seed), and a resume refuses a
//!   journal whose manifest does not match.
//! * [`run_durable_indexed`] — the durable layer over the campaign
//!   executor ([`crate::exec`], which owns the workers and the
//!   `catch_unwind` retry/quarantine loop): recovered entries are checked
//!   and skipped, completed points are staged into journal checkpoints,
//!   and errors surface in a fixed order after the final flush.
//! * [`CancelToken`] — a clonable flag the CLI wires to SIGINT/SIGTERM;
//!   workers observe it between points, the journal is flushed and the
//!   run returns [`SimError::Interrupted`].
//!
//! Determinism: the journal stores each completed point's serialized
//! result, and the JSON float form is Rust's shortest round-trip, so a
//! resumed campaign reconstructs bit-identical values and produces
//! byte-identical reports to an uninterrupted run at any worker count.

use crate::error::SimError;
use crate::exec::{self, Schedule};
use crate::telemetry;
use crate::vfs::{self, DynFs, Fs};
use p7_obs::trace;
use p7_types::fnv64;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// On-disk journal format version; bumped on incompatible layout change.
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

/// File name of the manifest inside a journal directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Magic tag on the first line of every segment file.
const SEGMENT_MAGIC: &str = "p7-journal-segment";

/// A clonable cooperative cancellation flag.
///
/// The CLI installs SIGINT/SIGTERM handlers that call
/// [`CancelToken::cancel`]; durable runs observe the token between
/// points, flush their journal and return [`SimError::Interrupted`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Only stores an atomic flag, so it is safe
    /// to call from a signal handler.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once [`CancelToken::cancel`] has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Bounded-retry policy for panicking points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per point (>= 1) before it is quarantined.
    pub max_attempts: usize,
    /// Base backoff before retry `k`, slept as `backoff_ms << (k - 1)`.
    pub backoff_ms: u64,
}

impl RetryPolicy {
    /// The default campaign policy: three attempts, 10 ms base backoff.
    #[must_use]
    pub fn power7plus() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_ms: 10,
        }
    }

    /// A single attempt, no backoff — quarantine on the first panic.
    #[must_use]
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_ms: 0,
        }
    }

    /// The sleep before retry attempt `attempt` (1-based failed tries).
    #[must_use]
    pub fn backoff_before(&self, attempt: usize) -> Duration {
        let shift = u32::try_from(attempt.saturating_sub(1)).unwrap_or(u32::MAX);
        Duration::from_millis(self.backoff_ms.checked_shl(shift).unwrap_or(u64::MAX))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::power7plus()
    }
}

/// A grid point (or campaign cell) that kept panicking after bounded
/// retries and was quarantined instead of aborting the run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailedPoint {
    /// Grid/cell index in the spec's deterministic expansion order.
    pub index: usize,
    /// How many attempts were made before quarantining.
    pub attempts: usize,
    /// The panic payload of the final attempt.
    pub reason: String,
}

/// Renders the quarantine section (`quarantined <what> (N):` plus one
/// line per point), exactly as the CLI prints it after a report table.
/// Empty when nothing failed, so healthy runs keep their exact
/// historical stdout. Shared by `ags` and the `ags serve` daemon.
#[must_use]
pub fn render_failed(failed: &[FailedPoint], what: &str) -> String {
    use std::fmt::Write as _;
    if failed.is_empty() {
        return String::new();
    }
    let mut out = format!("quarantined {what} ({}):\n", failed.len());
    for f in failed {
        let _ = writeln!(
            out,
            "{:>5}  after {} attempt{}: {}",
            f.index,
            f.attempts,
            if f.attempts == 1 { "" } else { "s" },
            f.reason
        );
    }
    out
}

/// The identity of a campaign, written once at journal creation.
///
/// A resume compares the on-disk manifest against the manifest derived
/// from the spec being run; any mismatch (different spec JSON, seed or
/// campaign kind) refuses the journal, so stale results can never leak
/// into a different campaign's report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignManifest {
    /// Campaign family: `"sweep"` or `"resilience"`.
    pub kind: String,
    /// On-disk format version ([`JOURNAL_FORMAT_VERSION`]).
    pub format_version: u32,
    /// The spec's master seed, duplicated out of the JSON for cheap
    /// mismatch messages.
    pub seed: u64,
    /// FNV-1a fingerprint of `spec_json`.
    pub fingerprint: u64,
    /// The canonical JSON of the full spec, so `--resume` can rebuild
    /// the campaign without re-supplying flags.
    pub spec_json: String,
}

impl CampaignManifest {
    /// Builds the manifest of a campaign from its canonical spec JSON.
    #[must_use]
    pub fn new(kind: &str, seed: u64, spec_json: String) -> Self {
        CampaignManifest {
            kind: kind.to_owned(),
            format_version: JOURNAL_FORMAT_VERSION,
            seed,
            fingerprint: fnv64(spec_json.as_bytes()),
            spec_json,
        }
    }

    /// Checks that `on_disk` describes the same campaign as `self`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Journal`] naming the first mismatching field.
    pub fn ensure_matches(&self, on_disk: &CampaignManifest) -> Result<(), SimError> {
        let refuse = |reason: String| Err(SimError::Journal { reason });
        if on_disk.format_version != self.format_version {
            return refuse(format!(
                "journal format v{} does not match this binary's v{}",
                on_disk.format_version, self.format_version
            ));
        }
        if on_disk.kind != self.kind {
            return refuse(format!(
                "journal belongs to a `{}` campaign, not `{}`",
                on_disk.kind, self.kind
            ));
        }
        if on_disk.seed != self.seed {
            return refuse(format!(
                "journal seed {} does not match spec seed {}",
                on_disk.seed, self.seed
            ));
        }
        if on_disk.fingerprint != self.fingerprint || on_disk.spec_json != self.spec_json {
            return refuse(format!(
                "journal spec fingerprint {:016x} does not match this spec's {:016x}; \
                 resuming a different spec would corrupt the report",
                on_disk.fingerprint, self.fingerprint
            ));
        }
        Ok(())
    }
}

/// How a durable run uses its on-disk journal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum JournalMode {
    /// No journal: the run is all-or-nothing (the pre-durability
    /// behavior, and the allocation-free hot path).
    #[default]
    Off,
    /// Create a fresh journal at the directory; refuses a directory that
    /// already holds a manifest.
    Start(PathBuf),
    /// Resume from an existing journal after verifying its manifest,
    /// then keep appending to it.
    Resume(PathBuf),
}

/// Shared knobs of a durable run (journal, cancellation, retries).
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Where completed points are checkpointed, if anywhere.
    pub journal: JournalMode,
    /// Cooperative cancellation flag (wire to SIGINT/SIGTERM).
    pub cancel: CancelToken,
    /// Panic retry/quarantine policy.
    pub retry: RetryPolicy,
    /// Completed points per checkpoint segment; 0 means
    /// [`DEFAULT_CHECKPOINT_EVERY`].
    pub checkpoint_every: usize,
    /// The filesystem backend the journal writes through. Defaults to
    /// the real [`crate::vfs::StdFs`]; the crash matrix substitutes a
    /// fault-injecting one.
    pub fs: DynFs,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            journal: JournalMode::default(),
            cancel: CancelToken::default(),
            retry: RetryPolicy::default(),
            checkpoint_every: 0,
            fs: vfs::std_fs(),
        }
    }
}

/// Default number of completed points per journal segment.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 16;

impl DurableOptions {
    /// Options that journal into `dir` (fresh run).
    #[must_use]
    pub fn journaled(dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            journal: JournalMode::Start(dir.into()),
            ..DurableOptions::default()
        }
    }

    /// Options that resume from the journal at `dir`.
    #[must_use]
    pub fn resumed(dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            journal: JournalMode::Resume(dir.into()),
            ..DurableOptions::default()
        }
    }

    /// The effective checkpoint interval.
    #[must_use]
    pub fn checkpoint_interval(&self) -> usize {
        if self.checkpoint_every == 0 {
            DEFAULT_CHECKPOINT_EVERY
        } else {
            self.checkpoint_every
        }
    }
}

/// A crash-consistent, checksummed on-disk journal of `(index, result)`
/// entries.
///
/// Layout: a directory holding `manifest.json` plus numbered segment
/// files `seg-00000000.json`, each written atomically
/// (write-temp-then-rename, fsynced file and directory). A segment's
/// first line carries an FNV-1a checksum of its JSON payload, so a
/// half-written or bit-rotted segment is detected and skipped on load —
/// its points simply re-run.
#[derive(Debug)]
pub struct Journal<T> {
    dir: PathBuf,
    next_segment: u64,
    fs: DynFs,
    _entries: PhantomData<fn() -> T>,
}

impl<T: Serialize + Deserialize> Journal<T> {
    /// Creates a fresh journal directory and durably writes `manifest`,
    /// through the real filesystem.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Journal`] when the directory already holds a
    /// manifest (use [`Journal::resume`]) or on any I/O failure.
    pub fn create(dir: &Path, manifest: &CampaignManifest) -> Result<Self, SimError> {
        Journal::create_with(dir, manifest, vfs::std_fs())
    }

    /// [`Journal::create`] through an explicit filesystem backend.
    ///
    /// # Errors
    ///
    /// As [`Journal::create`].
    pub fn create_with(
        dir: &Path,
        manifest: &CampaignManifest,
        fs: DynFs,
    ) -> Result<Self, SimError> {
        if fs.exists(&dir.join(MANIFEST_FILE)) {
            return Err(SimError::Journal {
                reason: format!(
                    "`{}` already holds a journal; pass it to --resume instead",
                    dir.display()
                ),
            });
        }
        fs.create_dir_all(dir)
            .map_err(|e| io_error(dir, "create journal directory", &e))?;
        let text = serde::json::to_string(manifest);
        write_atomic(&*fs, &dir.join(MANIFEST_FILE), text.as_bytes())?;
        Ok(Journal {
            dir: dir.to_owned(),
            next_segment: 0,
            fs,
            _entries: PhantomData,
        })
    }

    /// Opens an existing journal through the real filesystem, verifies
    /// its manifest against `expected`, and loads every intact
    /// segment's entries.
    ///
    /// Corrupt or truncated segments (a crash mid-checkpoint) are
    /// skipped — their points re-run — and reported in
    /// [`ResumedJournal::skipped_segments`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Journal`] when the directory holds no
    /// readable manifest or the manifest mismatches `expected`.
    pub fn resume(dir: &Path, expected: &CampaignManifest) -> Result<ResumedJournal<T>, SimError> {
        Journal::resume_with(dir, expected, vfs::std_fs())
    }

    /// [`Journal::resume`] through an explicit filesystem backend.
    ///
    /// # Errors
    ///
    /// As [`Journal::resume`].
    pub fn resume_with(
        dir: &Path,
        expected: &CampaignManifest,
        fs: DynFs,
    ) -> Result<ResumedJournal<T>, SimError> {
        let on_disk = read_manifest_with(dir, &*fs)?;
        expected.ensure_matches(&on_disk)?;
        let mut names: Vec<String> = fs
            .read_dir(dir)
            .map_err(|e| io_error(dir, "list journal", &e))?
            .into_iter()
            .filter(|name| name.starts_with("seg-") && name.ends_with(".json"))
            .collect();
        names.sort_unstable();
        let mut entries = Vec::new();
        let mut skipped = 0usize;
        let mut max_segment = None::<u64>;
        for name in &names {
            if let Some(number) = segment_number(name) {
                max_segment = Some(max_segment.map_or(number, |m| m.max(number)));
            }
            match read_segment::<T>(&*fs, &dir.join(name)) {
                Ok(mut batch) => entries.append(&mut batch),
                Err(_) => skipped += 1,
            }
        }
        Ok(ResumedJournal {
            journal: Journal {
                dir: dir.to_owned(),
                next_segment: max_segment.map_or(0, |m| m + 1),
                fs,
                _entries: PhantomData,
            },
            entries,
            skipped_segments: skipped,
        })
    }

    /// Durably appends one segment holding `entries`. A no-op for an
    /// empty batch.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Journal`] on any I/O failure.
    pub fn append(&mut self, entries: &[(usize, T)]) -> Result<(), SimError> {
        if entries.is_empty() {
            return Ok(());
        }
        let body = serde::json::to_string(&entries);
        let content = format!(
            "{SEGMENT_MAGIC} v{JOURNAL_FORMAT_VERSION} crc={:016x} entries={}\n{body}",
            fnv64(body.as_bytes()),
            entries.len()
        );
        let name = format!("seg-{:08}.json", self.next_segment);
        let _span = trace::span("journal_segment", self.next_segment);
        let started = Instant::now();
        write_atomic(&*self.fs, &self.dir.join(name), content.as_bytes())?;
        telemetry::journal_segment_write().observe(started.elapsed().as_secs_f64());
        telemetry::journal_segments().inc();
        self.next_segment += 1;
        Ok(())
    }

    /// The journal directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl JournalMode {
    /// Opens the journal this mode describes through `fs`:
    /// [`JournalMode::Off`] yields none, [`JournalMode::Start`] creates a
    /// fresh journal stamped with the manifest, [`JournalMode::Resume`]
    /// verifies the on-disk manifest and recovers every intact segment.
    /// `manifest` only runs when a journal is on, so the in-memory path
    /// never serializes the spec.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Journal`] as [`Journal::create`] /
    /// [`Journal::resume`] do.
    pub fn open_with<T: Serialize + Deserialize>(
        &self,
        manifest: impl FnOnce() -> CampaignManifest,
        fs: DynFs,
    ) -> Result<OpenedJournal<T>, SimError> {
        let (journal, entries, skipped_segments) = match self {
            JournalMode::Off => (None, Vec::new(), 0),
            JournalMode::Start(dir) => (
                Some(Journal::create_with(dir, &manifest(), fs)?),
                Vec::new(),
                0,
            ),
            JournalMode::Resume(dir) => {
                let resumed = Journal::resume_with(dir, &manifest(), fs)?;
                (
                    Some(resumed.journal),
                    resumed.entries,
                    resumed.skipped_segments,
                )
            }
        };
        Ok(OpenedJournal {
            journal,
            entries,
            skipped_segments,
        })
    }
}

/// The journal handle and recovered state produced by
/// [`JournalMode::open_with`].
#[derive(Debug)]
pub struct OpenedJournal<T> {
    /// The journal to append checkpoints to, if journaling is on.
    pub journal: Option<Journal<T>>,
    /// Entries recovered on resume (empty for `Off`/`Start`).
    pub entries: Vec<(usize, T)>,
    /// Segments skipped as corrupt on resume.
    pub skipped_segments: usize,
}

/// A [`Journal`] reopened for resume, with its recovered entries.
#[derive(Debug)]
pub struct ResumedJournal<T> {
    /// The journal, positioned to append after the last intact segment.
    pub journal: Journal<T>,
    /// Every `(index, result)` recovered from intact segments.
    pub entries: Vec<(usize, T)>,
    /// Segments dropped for a checksum/parse failure (crash tails).
    pub skipped_segments: usize,
}

/// Reads and parses a journal directory's manifest.
///
/// # Errors
///
/// Returns [`SimError::Journal`] when the directory holds no readable,
/// well-formed manifest.
pub fn read_manifest(dir: &Path) -> Result<CampaignManifest, SimError> {
    read_manifest_with(dir, &*vfs::std_fs())
}

/// [`read_manifest`] through an explicit filesystem backend.
///
/// # Errors
///
/// As [`read_manifest`].
pub fn read_manifest_with(dir: &Path, fs: &dyn Fs) -> Result<CampaignManifest, SimError> {
    let path = dir.join(MANIFEST_FILE);
    let text = vfs::read_to_string(fs, &path).map_err(|e| io_error(&path, "read manifest", &e))?;
    serde::json::from_str(&text).map_err(|e| SimError::Journal {
        reason: format!("corrupt manifest `{}`: {e}", path.display()),
    })
}

/// The sequence number of a `seg-%08d.json` file name.
pub(crate) fn segment_number(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

fn read_segment<T: Deserialize>(fs: &dyn Fs, path: &Path) -> Result<Vec<(usize, T)>, SimError> {
    let text = vfs::read_to_string(fs, path).map_err(|e| io_error(path, "read segment", &e))?;
    let corrupt = |what: &str| SimError::Journal {
        reason: format!("corrupt segment `{}`: {what}", path.display()),
    };
    let (header, body) = text.split_once('\n').ok_or_else(|| corrupt("no header"))?;
    let mut fields = header.split(' ');
    if fields.next() != Some(SEGMENT_MAGIC) {
        return Err(corrupt("bad magic"));
    }
    let crc = fields
        .find_map(|f| f.strip_prefix("crc="))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| corrupt("no checksum"))?;
    if fnv64(body.as_bytes()) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    serde::json::from_str(body).map_err(|e| corrupt(&e.to_string()))
}

fn io_error(path: &Path, action: &str, e: &std::io::Error) -> SimError {
    SimError::Journal {
        reason: format!("cannot {action} `{}`: {e}", path.display()),
    }
}

/// Atomic durable write: temp file in the same directory, fsync, rename
/// over the final name, fsync the directory.
pub(crate) fn write_atomic(fs: &dyn Fs, path: &Path, bytes: &[u8]) -> Result<(), SimError> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs.write(&tmp, bytes)
        .map_err(|e| io_error(&tmp, "write", &e))?;
    fs.fsync(&tmp).map_err(|e| io_error(&tmp, "fsync", &e))?;
    fs.rename(&tmp, path)
        .map_err(|e| io_error(path, "rename into", &e))?;
    // Make the rename itself durable. Directories open read-only on
    // Unix; elsewhere this is best-effort.
    let _ = fs.fsync(dir);
    Ok(())
}

/// The merged output of one durable run.
#[derive(Debug)]
pub struct DurableOutcome<T> {
    /// Per-index results; `None` marks a quarantined point (its
    /// [`FailedPoint`] is in `failed`).
    pub results: Vec<Option<T>>,
    /// Quarantined points, ordered by index.
    pub failed: Vec<FailedPoint>,
}

/// Runs `f` over `0..n` on the campaign executor ([`crate::exec`]) under
/// the durability contract: the journal's recovered entries are checked
/// against the campaign (`check` sees each recovered index and value)
/// and not re-run, completed points are checkpointed every
/// [`DurableOptions::checkpoint_interval`] results, and `opts` supplies
/// the panic retry policy and the cancel token. `f` returns its result
/// plus a journal-worthiness flag; results flagged `false` (memoization
/// hits, free to reproduce) merge into the report but are never
/// checkpointed. `schedule` sets the workers, the claim unit and the
/// per-index span and counter.
///
/// Results are merged by index regardless of scheduling, so — given the
/// same spec — the outcome is identical at any worker count and across
/// any interrupt/resume split.
///
/// # Errors
///
/// Returns [`SimError::Journal`] when a recovered entry fails `check` or
/// lies outside `0..n` (on-disk corruption that slipped past the segment
/// checksums; nothing runs), else — after the final flush, so every
/// completed result is already durable — a [`SimError::Journal`] if
/// checkpointing failed, the lowest-indexed hard [`SimError`] raised by
/// `f`, or [`SimError::Interrupted`] when `opts.cancel` fired.
pub fn run_durable_indexed<S, T, I, F, C>(
    schedule: Schedule<'_>,
    n: usize,
    init: I,
    f: F,
    check: C,
    opened: OpenedJournal<T>,
    opts: &DurableOptions,
) -> Result<DurableOutcome<T>, SimError>
where
    T: Send + Clone + Serialize + Deserialize,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> Result<(T, bool), SimError> + Sync,
    C: Fn(usize, &T) -> bool,
{
    let OpenedJournal {
        mut journal,
        entries: completed,
        ..
    } = opened;
    if let Some((idx, _)) = completed
        .iter()
        .find(|(idx, value)| *idx >= n || !check(*idx, value))
    {
        return Err(SimError::Journal {
            reason: format!("recovered entry {idx} does not match the campaign's spec"),
        });
    }
    let done: HashSet<usize> = completed.iter().map(|(idx, _)| *idx).collect();
    let checkpoint_every = opts.checkpoint_interval();
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut failed: Vec<FailedPoint> = Vec::new();
    let mut first_error: Option<(usize, SimError)> = None;
    let mut pending: Vec<(usize, T)> = Vec::new();
    let mut journal_error: Option<SimError> = None;

    exec::run(
        &schedule.durable(opts),
        n,
        &|idx| done.contains(&idx),
        init,
        f,
        |idx, verdict| {
            match verdict {
                Ok(Ok((value, journal_worthy))) => {
                    if journal_worthy && journal.is_some() && journal_error.is_none() {
                        pending.push((idx, value.clone()));
                    }
                    results[idx] = Some(value);
                }
                Ok(Err(e)) => {
                    if first_error.as_ref().is_none_or(|(lowest, _)| idx < *lowest) {
                        first_error = Some((idx, e));
                    }
                }
                Err(point) => failed.push(point),
            }
            if pending.len() >= checkpoint_every {
                if let Some(j) = journal.as_mut() {
                    if let Err(e) = j.append(&pending) {
                        // Stop staging (and cancel workers): results keep
                        // merging, but the run reports the I/O failure.
                        journal_error = Some(e);
                        opts.cancel.cancel();
                    }
                }
                pending.clear();
            }
        },
    );

    // Final flush: whatever completed since the last full segment.
    if journal_error.is_none() {
        if let Some(j) = journal.as_mut() {
            journal_error = j.append(&pending).err();
        }
    }
    if let Some(e) = journal_error {
        return Err(e);
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    if opts.cancel.is_cancelled() {
        return Err(SimError::Interrupted {
            journal: journal.map(|j| j.dir().display().to_string()),
        });
    }

    // Recovered entries were never re-run; a duplicated one keeps its
    // first copy.
    for (idx, value) in completed {
        results[idx].get_or_insert(value);
    }
    failed.sort_unstable_by_key(|p| p.index);
    Ok(DurableOutcome { results, failed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("p7-journal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn manifest() -> CampaignManifest {
        CampaignManifest::new("sweep", 42, "{\"spec\":true}".to_owned())
    }

    /// The schedule the durable tests run under.
    fn schedule(jobs: usize, unit: usize) -> Schedule<'static> {
        Schedule::new(jobs, unit, "sweep_point", telemetry::sweep_points_claimed())
    }

    /// An [`OpenedJournal`] with no backing journal, as `JournalMode::Off`
    /// (or a resume whose journal handle the test does not need) yields.
    fn recovered<T>(entries: Vec<(usize, T)>) -> OpenedJournal<T> {
        OpenedJournal {
            journal: None,
            entries,
            skipped_segments: 0,
        }
    }

    /// An [`OpenedJournal`] appending to `journal`, as `JournalMode::Start`
    /// yields.
    fn journaling<T>(journal: Journal<T>) -> OpenedJournal<T> {
        OpenedJournal {
            journal: Some(journal),
            entries: Vec::new(),
            skipped_segments: 0,
        }
    }

    #[test]
    fn cancel_token_round_trip() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn retry_backoff_doubles() {
        let retry = RetryPolicy {
            max_attempts: 4,
            backoff_ms: 10,
        };
        assert_eq!(retry.backoff_before(1), Duration::from_millis(10));
        assert_eq!(retry.backoff_before(3), Duration::from_millis(40));
        assert_eq!(RetryPolicy::no_retry().backoff_before(1), Duration::ZERO);
    }

    #[test]
    fn manifest_matching_refuses_every_mismatch() {
        let m = manifest();
        assert!(m.ensure_matches(&m.clone()).is_ok());
        let mut other = m.clone();
        other.kind = "resilience".to_owned();
        assert!(matches!(
            m.ensure_matches(&other),
            Err(SimError::Journal { .. })
        ));
        let mut other = m.clone();
        other.seed = 7;
        assert!(m.ensure_matches(&other).is_err());
        let other = CampaignManifest::new("sweep", 42, "{\"spec\":false}".to_owned());
        assert!(m.ensure_matches(&other).is_err());
        let mut other = m.clone();
        other.format_version += 1;
        assert!(m.ensure_matches(&other).is_err());
    }

    #[test]
    fn journal_round_trips_segments() {
        let dir = tmp_dir("round-trip");
        let m = manifest();
        let mut journal: Journal<(usize, f64)> = Journal::create(&dir, &m).unwrap();
        journal.append(&[(0, (0, 1.5)), (2, (2, -0.25))]).unwrap();
        journal.append(&[]).unwrap(); // no-op, no file
        journal.append(&[(1, (1, 0.1))]).unwrap();

        // A second create on the same directory must refuse.
        assert!(matches!(
            Journal::<(usize, f64)>::create(&dir, &m),
            Err(SimError::Journal { .. })
        ));

        let resumed = Journal::<(usize, f64)>::resume(&dir, &m).unwrap();
        assert_eq!(resumed.skipped_segments, 0);
        assert_eq!(
            resumed.entries,
            vec![(0, (0, 1.5)), (2, (2, -0.25)), (1, (1, 0.1))]
        );
        // New segments continue after the recovered ones.
        assert_eq!(resumed.journal.next_segment, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segments_are_skipped_not_fatal() {
        let dir = tmp_dir("corrupt");
        let m = manifest();
        let mut journal: Journal<usize> = Journal::create(&dir, &m).unwrap();
        journal.append(&[(0, 10)]).unwrap();
        journal.append(&[(1, 11)]).unwrap();
        // Flip a byte in the second segment's payload.
        let seg = dir.join("seg-00000001.json");
        let mut text = fs::read_to_string(&seg).unwrap();
        text.push_str("garbage");
        fs::write(&seg, text).unwrap();
        // And drop a truncated crash-tail with no newline at all.
        fs::write(dir.join("seg-00000002.json"), "p7-journal-seg").unwrap();

        let resumed = Journal::<usize>::resume(&dir, &m).unwrap();
        assert_eq!(resumed.entries, vec![(0, 10)]);
        assert_eq!(resumed.skipped_segments, 2);
        // Appending never reuses a recovered (even corrupt) segment name.
        assert_eq!(resumed.journal.next_segment, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_wrong_manifest_and_missing_journal() {
        let dir = tmp_dir("mismatch");
        let m = manifest();
        let _journal: Journal<usize> = Journal::create(&dir, &m).unwrap();
        let other = CampaignManifest::new("sweep", 43, "{\"spec\":true}".to_owned());
        let err = Journal::<usize>::resume(&dir, &other).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
        assert!(Journal::<usize>::resume(&tmp_dir("absent"), &m).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_run_quarantines_and_resumes() {
        let opts = DurableOptions {
            retry: RetryPolicy::no_retry(),
            ..DurableOptions::default()
        };
        // Index 3 always panics; indices 0 and 5 were already completed.
        let completed = vec![(0usize, 100usize), (5, 105)];
        let ran = std::sync::Mutex::new(Vec::new());
        let out = run_durable_indexed(
            schedule(2, 2),
            8,
            || (),
            |(), idx| {
                ran.lock().unwrap().push(idx);
                assert!(idx != 3, "injected panic at index 3");
                Ok((idx + 100, true))
            },
            |_, _| true,
            recovered(completed),
            &opts,
        )
        .unwrap();
        assert_eq!(out.failed.len(), 1);
        assert_eq!(out.failed[0].index, 3);
        assert_eq!(out.failed[0].attempts, 1);
        assert!(out.failed[0].reason.contains("injected panic"));
        for idx in 0..8 {
            if idx == 3 {
                assert!(out.results[idx].is_none());
            } else {
                assert_eq!(out.results[idx], Some(idx + 100));
            }
        }
        let ran = ran.into_inner().unwrap();
        assert!(!ran.contains(&0) && !ran.contains(&5), "resumed re-ran");
    }

    #[test]
    fn durable_run_reports_lowest_indexed_hard_error() {
        let opts = DurableOptions::default();
        let err = run_durable_indexed::<_, usize, _, _, _>(
            schedule(3, 1),
            6,
            || (),
            |(), idx| {
                if idx % 2 == 1 {
                    Err(SimError::InvalidAssignment {
                        reason: format!("boom {idx}"),
                    })
                } else {
                    Ok((idx, true))
                }
            },
            |_, _| true,
            recovered(Vec::new()),
            &opts,
        )
        .unwrap_err();
        assert!(err.to_string().contains("boom 1"), "{err}");
    }

    #[test]
    fn cancelled_run_flushes_journal_and_reports_interrupted() {
        let dir = tmp_dir("cancelled");
        let m = manifest();
        let journal: Journal<usize> = Journal::create(&dir, &m).unwrap();
        let opts = DurableOptions {
            checkpoint_every: 1,
            ..DurableOptions::default()
        };
        let cancel = opts.cancel.clone();
        let err = run_durable_indexed(
            schedule(1, 1),
            10,
            || (),
            |(), idx| {
                if idx == 4 {
                    cancel.cancel();
                }
                Ok((idx * 2, true))
            },
            |_, _| true,
            journaling(journal),
            &opts,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Interrupted { journal: Some(_) }));
        let resumed = Journal::<usize>::resume(&dir, &m).unwrap();
        // Points 0..=4 completed (the cancelling point included) and
        // were flushed before the run returned.
        assert_eq!(
            resumed.entries,
            (0..5).map(|i| (i, i * 2)).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unworthy_results_merge_but_are_not_checkpointed() {
        let dir = tmp_dir("hits");
        let m = manifest();
        let journal: Journal<usize> = Journal::create(&dir, &m).unwrap();
        let opts = DurableOptions {
            checkpoint_every: 1,
            ..DurableOptions::default()
        };
        // Odd indices are "memoization hits": free to reproduce, so the
        // journal must skip them while the report still includes them.
        let out = run_durable_indexed(
            schedule(1, 1),
            6,
            || (),
            |(), idx| Ok((idx, idx % 2 == 0)),
            |_, _| true,
            journaling(journal),
            &opts,
        )
        .unwrap();
        assert_eq!(out.results.iter().flatten().count(), 6);
        let resumed = Journal::<usize>::resume(&dir, &m).unwrap();
        assert_eq!(resumed.entries, vec![(0, 0), (2, 2), (4, 4)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_retries_rebuild_worker_state() {
        // The first attempt poisons its scratch state then panics; the
        // retry must see freshly-initialized state.
        let opts = DurableOptions {
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_ms: 0,
            },
            ..DurableOptions::default()
        };
        let out = run_durable_indexed(
            schedule(1, 1),
            1,
            || true, // state: "clean"
            |clean, idx| {
                if *clean {
                    *clean = false;
                    panic!("first attempt fails");
                }
                // Retry: state was rebuilt, so `clean` is true again —
                // reaching here means the rebuild did NOT happen.
                Ok((idx, true))
            },
            |_, _| true,
            recovered(Vec::new()),
            &opts,
        )
        .unwrap();
        assert_eq!(out.failed.len(), 1, "retry saw stale state");
        assert_eq!(out.failed[0].attempts, 2);
    }
}
