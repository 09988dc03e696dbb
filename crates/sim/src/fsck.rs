//! Journal scrub and repair: the `ags fsck` engine.
//!
//! A journal directory can be damaged in exactly the ways the
//! fault-injection matrix exercises: a torn segment tail, a stray
//! `.tmp` file left by a crash between write and rename, a
//! bit-flipped payload behind a stale checksum, a duplicated segment
//! (an operator `cp` gone wrong), or a numbering gap from a deleted
//! file. Resume already *survives* all of these by skipping corrupt
//! segments, but silently: an operator cannot tell "clean journal"
//! from "journal quietly dropping results". This module makes the
//! damage visible and repairable:
//!
//! * [`scan`] classifies every file in the directory without needing
//!   the campaign's result type — segments are validated down to the
//!   shape every journal kind shares (`[[index, …], …]` with
//!   non-negative integer indices), so one scrubber serves sweep,
//!   resilience, fleet and serve journals alike.
//! * [`repair`] truncates to the last consistent prefix: every segment
//!   from the first gap, corruption or duplicate onward is removed,
//!   along with orphaned temp files. Dropped results simply re-run on
//!   resume; for the serve journal (an event log replayed in order) a
//!   prefix is likewise the only safe cut.
//!
//! The scrub is conservative: files it does not recognize are reported
//! but never deleted.

use crate::error::SimError;
use crate::journal::{read_manifest_with, segment_number, MANIFEST_FILE};
use crate::telemetry;
use crate::vfs::{self, Fs};
use p7_types::fnv64;
use serde::Value;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// What the scrub concluded about `manifest.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestStatus {
    /// Present and well-formed.
    Ok,
    /// Absent. Fine for an empty directory; fatal when segments exist,
    /// since nothing can ever resume them.
    Missing,
    /// Present but unreadable or unparseable.
    Corrupt(String),
}

/// What the scrub concluded about one segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentVerdict {
    /// Checksum and shape verify; carries this many entries.
    Intact(usize),
    /// Bad magic, checksum mismatch, or malformed payload.
    Corrupt(String),
    /// Verifies, but repeats entry indices already recorded by an
    /// earlier segment — a duplicated segment.
    DuplicateEntries(Vec<u64>),
}

/// One scanned segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedSegment {
    /// File name inside the journal directory.
    pub name: String,
    /// The segment number parsed from the name.
    pub number: u64,
    /// The verdict.
    pub verdict: SegmentVerdict,
}

/// The full result of scrubbing one journal directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// The directory scrubbed.
    pub dir: PathBuf,
    /// Manifest verdict.
    pub manifest: ManifestStatus,
    /// Every `seg-*.json` file, ordered by segment number.
    pub segments: Vec<ScannedSegment>,
    /// Orphaned `*.tmp` files (a crash between write and rename).
    pub temp_files: Vec<String>,
    /// Files the scrub does not recognize (reported, never removed).
    pub stray_files: Vec<String>,
    /// First segment number outside the consistent prefix; everything
    /// from here on is removed by [`repair`]. `None` when the segment
    /// chain is fully consistent.
    pub truncate_from: Option<u64>,
    /// Files removed, populated by [`repair`] (empty after [`scan`]).
    pub removed: Vec<String>,
}

impl FsckReport {
    /// True when the journal needs no repair: manifest consistent,
    /// every segment in the consistent prefix, no orphaned temps.
    /// Stray files are warnings, not damage.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        let manifest_ok = match self.manifest {
            ManifestStatus::Ok => true,
            ManifestStatus::Missing => self.segments.is_empty(),
            ManifestStatus::Corrupt(_) => false,
        };
        manifest_ok && self.truncate_from.is_none() && self.temp_files.is_empty()
    }

    /// Renders the report as the CLI prints it.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("fsck {}\n", self.dir.display());
        match &self.manifest {
            ManifestStatus::Ok => out.push_str("  manifest: ok\n"),
            ManifestStatus::Missing if self.segments.is_empty() => {
                out.push_str("  manifest: absent (empty directory, startable fresh)\n");
            }
            ManifestStatus::Missing => {
                out.push_str("  manifest: MISSING with segments present (unresumable)\n");
            }
            ManifestStatus::Corrupt(reason) => {
                let _ = writeln!(out, "  manifest: CORRUPT ({reason})");
            }
        }
        for seg in &self.segments {
            match &seg.verdict {
                SegmentVerdict::Intact(entries) => {
                    let _ = writeln!(out, "  {}: ok ({entries} entries)", seg.name);
                }
                SegmentVerdict::Corrupt(reason) => {
                    let _ = writeln!(out, "  {}: CORRUPT ({reason})", seg.name);
                }
                SegmentVerdict::DuplicateEntries(indices) => {
                    let _ = writeln!(
                        out,
                        "  {}: DUPLICATE (repeats {} earlier entr{})",
                        seg.name,
                        indices.len(),
                        if indices.len() == 1 { "y" } else { "ies" }
                    );
                }
            }
        }
        for name in &self.temp_files {
            let _ = writeln!(out, "  {name}: ORPHANED temp file");
        }
        for name in &self.stray_files {
            let _ = writeln!(out, "  {name}: unrecognized (left alone)");
        }
        if let Some(from) = self.truncate_from {
            let _ = writeln!(out, "  consistent prefix ends before segment {from}");
        }
        for name in &self.removed {
            let _ = writeln!(out, "  removed {name}");
        }
        let verdict = if self.is_clean() { "clean" } else { "DAMAGED" };
        let _ = writeln!(out, "  verdict: {verdict}");
        out
    }
}

/// Scrubs the journal directory at `dir` without modifying it.
///
/// # Errors
///
/// Returns [`SimError::Journal`] only when the directory itself cannot
/// be listed; damage inside it is reported, not raised.
pub fn scan(dir: &Path, fs: &dyn Fs) -> Result<FsckReport, SimError> {
    let names = fs.read_dir(dir).map_err(|e| SimError::Journal {
        reason: format!("cannot list `{}`: {e}", dir.display()),
    })?;
    let manifest = if fs.exists(&dir.join(MANIFEST_FILE)) {
        match read_manifest_with(dir, fs) {
            Ok(_) => ManifestStatus::Ok,
            Err(e) => ManifestStatus::Corrupt(e.to_string()),
        }
    } else {
        ManifestStatus::Missing
    };

    let mut segments: Vec<(u64, String)> = Vec::new();
    let mut temp_files = Vec::new();
    let mut stray_files = Vec::new();
    for name in names {
        if name == MANIFEST_FILE {
            continue;
        }
        if name.ends_with(".tmp") {
            temp_files.push(name);
        } else if let Some(number) = segment_number(&name) {
            segments.push((number, name));
        } else {
            stray_files.push(name);
        }
    }
    segments.sort_unstable();
    temp_files.sort_unstable();
    stray_files.sort_unstable();

    let mut seen_entries: HashSet<u64> = HashSet::new();
    let mut scanned = Vec::with_capacity(segments.len());
    for (number, name) in segments {
        telemetry::fsck_segments_scanned().inc();
        let verdict = match validate_segment(fs, &dir.join(&name)) {
            Err(reason) => SegmentVerdict::Corrupt(reason),
            Ok(indices) => {
                let duplicates: Vec<u64> = indices
                    .iter()
                    .copied()
                    .filter(|idx| seen_entries.contains(idx))
                    .collect();
                if duplicates.is_empty() {
                    seen_entries.extend(&indices);
                    SegmentVerdict::Intact(indices.len())
                } else {
                    SegmentVerdict::DuplicateEntries(duplicates)
                }
            }
        };
        scanned.push(ScannedSegment {
            name,
            number,
            verdict,
        });
    }

    // The consistent prefix: segments numbered 0, 1, 2, … each intact.
    // The first gap, corruption or duplicate ends it; with no manifest
    // nothing can resume, so every segment is outside the prefix.
    let mut truncate_from = None;
    if manifest == ManifestStatus::Missing && !scanned.is_empty() {
        truncate_from = Some(0);
    } else {
        for (expected, seg) in (0u64..).zip(&scanned) {
            if seg.number != expected || !matches!(seg.verdict, SegmentVerdict::Intact(_)) {
                truncate_from = Some(expected.min(seg.number));
                break;
            }
        }
    }

    Ok(FsckReport {
        dir: dir.to_owned(),
        manifest,
        segments: scanned,
        temp_files,
        stray_files,
        truncate_from,
        removed: Vec::new(),
    })
}

/// Scrubs `dir` and repairs it: removes every segment outside the
/// consistent prefix and every orphaned temp file. The returned report
/// describes the state *found* (so the damage stays visible) with
/// [`FsckReport::removed`] listing what was deleted.
///
/// # Errors
///
/// Returns [`SimError::Journal`] when the directory cannot be listed
/// or a removal fails.
pub fn repair(dir: &Path, fs: &dyn Fs) -> Result<FsckReport, SimError> {
    let mut report = scan(dir, fs)?;
    let mut doomed: Vec<String> = report.temp_files.clone();
    if let Some(from) = report.truncate_from {
        doomed.extend(
            report
                .segments
                .iter()
                .filter(|seg| seg.number >= from)
                .map(|seg| seg.name.clone()),
        );
    }
    for name in doomed {
        let path = dir.join(&name);
        fs.remove_file(&path).map_err(|e| SimError::Journal {
            reason: format!("cannot remove `{}`: {e}", path.display()),
        })?;
        telemetry::fsck_segments_repaired().inc();
        report.removed.push(name);
    }
    Ok(report)
}

/// Validates one segment down to the shape every journal kind shares,
/// returning the entry indices it carries.
fn validate_segment(fs: &dyn Fs, path: &Path) -> Result<Vec<u64>, String> {
    let text = vfs::read_to_string(fs, path).map_err(|e| format!("unreadable: {e}"))?;
    let (header, body) = text.split_once('\n').ok_or("no header line")?;
    let mut fields = header.split(' ');
    if fields.next() != Some("p7-journal-segment") {
        return Err("bad magic".to_owned());
    }
    let crc = fields
        .find_map(|f| f.strip_prefix("crc="))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or("no checksum")?;
    if fnv64(body.as_bytes()) != crc {
        return Err("checksum mismatch".to_owned());
    }
    let value = Value::parse_json(body).map_err(|e| format!("unparseable payload: {e}"))?;
    let Value::Seq(entries) = value else {
        return Err("payload is not an entry list".to_owned());
    };
    let mut indices = Vec::with_capacity(entries.len());
    for entry in &entries {
        let Value::Seq(pair) = entry else {
            return Err("entry is not an [index, result] pair".to_owned());
        };
        match pair.first() {
            Some(Value::Int(idx)) if *idx >= 0 => {
                indices.push(u64::try_from(*idx).map_err(|_| "entry index overflows")?);
            }
            _ => return Err("entry index is not a non-negative integer".to_owned()),
        }
    }
    Ok(indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{CampaignManifest, Journal};
    use std::fs as std_fs_mod;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("p7-fsck-{tag}-{}", std::process::id()));
        let _ = std_fs_mod::remove_dir_all(&dir);
        dir
    }

    fn journal_with_segments(dir: &Path, segments: usize) -> CampaignManifest {
        let manifest = CampaignManifest::new("sweep", 9, "{\"spec\":1}".to_owned());
        let mut journal: Journal<u64> = Journal::create(dir, &manifest).unwrap();
        for s in 0..segments {
            journal.append(&[(s, s as u64 * 10)]).unwrap();
        }
        manifest
    }

    #[test]
    fn clean_journal_scans_clean() {
        let dir = tmp_dir("clean");
        journal_with_segments(&dir, 3);
        let report = scan(&dir, &*vfs::std_fs()).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.truncate_from, None);
        assert_eq!(report.segments.len(), 3);
        let _ = std_fs_mod::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_resumable() {
        let dir = tmp_dir("torn");
        let manifest = journal_with_segments(&dir, 3);
        // Tear the last segment mid-payload.
        let last = dir.join("seg-00000002.json");
        let text = std_fs_mod::read_to_string(&last).unwrap();
        std_fs_mod::write(&last, &text[..text.len() / 2]).unwrap();
        // And leave a crashed temp file behind.
        std_fs_mod::write(dir.join("seg-00000003.json.tmp"), "partial").unwrap();

        let report = scan(&dir, &*vfs::std_fs()).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.truncate_from, Some(2));
        assert_eq!(report.temp_files, vec!["seg-00000003.json.tmp".to_owned()]);

        let repaired = repair(&dir, &*vfs::std_fs()).unwrap();
        assert_eq!(repaired.removed.len(), 2);
        let rescan = scan(&dir, &*vfs::std_fs()).unwrap();
        assert!(rescan.is_clean(), "{}", rescan.render());
        let resumed = Journal::<u64>::resume(&dir, &manifest).unwrap();
        assert_eq!(resumed.entries, vec![(0, 0), (1, 10)]);
        assert_eq!(resumed.skipped_segments, 0);
        let _ = std_fs_mod::remove_dir_all(&dir);
    }

    #[test]
    fn duplicated_segment_ends_the_prefix() {
        let dir = tmp_dir("dup");
        journal_with_segments(&dir, 2);
        // Copy segment 0 under the next number: same entries again.
        let bytes = std_fs_mod::read(dir.join("seg-00000000.json")).unwrap();
        std_fs_mod::write(dir.join("seg-00000002.json"), bytes).unwrap();
        let report = scan(&dir, &*vfs::std_fs()).unwrap();
        assert_eq!(report.truncate_from, Some(2));
        assert!(matches!(
            report.segments[2].verdict,
            SegmentVerdict::DuplicateEntries(_)
        ));
        let repaired = repair(&dir, &*vfs::std_fs()).unwrap();
        assert_eq!(repaired.removed, vec!["seg-00000002.json".to_owned()]);
        let _ = std_fs_mod::remove_dir_all(&dir);
    }

    #[test]
    fn numbering_gap_ends_the_prefix() {
        let dir = tmp_dir("gap");
        journal_with_segments(&dir, 3);
        std_fs_mod::remove_file(dir.join("seg-00000001.json")).unwrap();
        let report = scan(&dir, &*vfs::std_fs()).unwrap();
        assert_eq!(report.truncate_from, Some(1));
        let repaired = repair(&dir, &*vfs::std_fs()).unwrap();
        assert_eq!(repaired.removed, vec!["seg-00000002.json".to_owned()]);
        let _ = std_fs_mod::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_segments_without_manifest_are_removed() {
        let dir = tmp_dir("orphan");
        journal_with_segments(&dir, 2);
        std_fs_mod::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let report = scan(&dir, &*vfs::std_fs()).unwrap();
        assert_eq!(report.manifest, ManifestStatus::Missing);
        assert_eq!(report.truncate_from, Some(0));
        let repaired = repair(&dir, &*vfs::std_fs()).unwrap();
        assert_eq!(repaired.removed.len(), 2);
        // An empty directory is clean: a fresh campaign can start here.
        assert!(scan(&dir, &*vfs::std_fs()).unwrap().is_clean());
        let _ = std_fs_mod::remove_dir_all(&dir);
    }

    #[test]
    fn strays_are_reported_but_never_removed() {
        let dir = tmp_dir("stray");
        journal_with_segments(&dir, 1);
        std_fs_mod::write(dir.join("notes.txt"), "operator notes").unwrap();
        let report = repair(&dir, &*vfs::std_fs()).unwrap();
        assert_eq!(report.stray_files, vec!["notes.txt".to_owned()]);
        assert!(report.removed.is_empty());
        assert!(dir.join("notes.txt").exists());
        assert!(report.is_clean(), "strays alone do not fail the scrub");
        let _ = std_fs_mod::remove_dir_all(&dir);
    }
}
