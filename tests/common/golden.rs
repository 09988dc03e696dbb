//! Golden output digests, shared by the `ags` CLI test (`tests/golden.rs`)
//! and the figure-binary test (`crates/bench/tests/golden.rs`).
//!
//! A digest file holds one `name digest` line per output (FNV-1a 64 in
//! hex) and a `target` line naming the platform the digests were taken
//! on; `#` lines are comments. The model's draws go through the host
//! libm, so the digests belong to that platform. Debug and release builds
//! print the same bytes, so one file serves both.
//!
//! A mismatch prints each moved output's command and both digests, then
//! the whole corrected file. A deliberate output change pastes that file
//! over the committed one and names each moved output in CHANGES.md;
//! there is no switch that rewrites the digests.

pub use p7_types::fnv64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One output a command produced.
pub struct Output {
    /// The name its digest goes by in the digest file.
    pub name: String,
    /// The command that produced it, for the mismatch report.
    pub command: String,
    /// FNV-1a 64 of its bytes.
    pub digest: u64,
}

/// The platform the digests are taken on.
fn target() -> String {
    let env = if cfg!(target_env = "gnu") {
        "gnu"
    } else if cfg!(target_env = "musl") {
        "musl"
    } else {
        "other"
    };
    format!("{}-{}-{env}", std::env::consts::ARCH, std::env::consts::OS)
}

/// A fresh, empty working directory for one command.
pub fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ags-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `command` in `dir` and returns its stdout; the command must exit
/// successfully.
pub fn stdout_of(mut command: Command, dir: &Path) -> Vec<u8> {
    let out = command
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn {command:?}: {e}"));
    assert!(
        out.status.success(),
        "{command:?} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// The digest of a file a command wrote. A metrics export (`.prom`) loses
/// its `_seconds` lines, the wall-clock histograms no two runs share;
/// every other file is digested whole.
pub fn file_digest(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    if path.extension().is_some_and(|ext| ext == "prom") {
        let text = String::from_utf8(bytes).expect("metrics export is UTF-8");
        let mut kept = String::with_capacity(text.len());
        for line in text.lines().filter(|line| !line.contains("_seconds")) {
            kept.push_str(line);
            kept.push('\n');
        }
        fnv64(kept.as_bytes())
    } else {
        fnv64(&bytes)
    }
}

/// The digest file's `target` line and digests by name.
fn parse(golden: &str) -> (String, BTreeMap<&str, u64>) {
    let mut target = String::new();
    let mut digests = BTreeMap::new();
    for line in golden.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once(' ').expect("`name value` line");
        if key == "target" {
            target = value.to_string();
        } else {
            let digest = u64::from_str_radix(value, 16).expect("hex digest");
            digests.insert(key, digest);
        }
    }
    (target, digests)
}

/// Asserts that `outputs` match the digest file `golden`, committed at
/// `path`. On a mismatch, reports every moved, new and vanished output,
/// then prints the corrected file.
pub fn assert_matches(path: &str, golden: &str, outputs: &[Output]) {
    let (blessed_on, want) = parse(golden);
    let mut report = String::new();
    for out in outputs {
        match want.get(out.name.as_str()) {
            Some(&digest) if digest == out.digest => {}
            digest => writeln!(
                report,
                "{}: `{}` digests to {:016x}, golden {}",
                out.name,
                out.command,
                out.digest,
                digest.map_or("(none)".to_string(), |d| format!("{d:016x}")),
            )
            .unwrap(),
        }
    }
    for name in want.keys() {
        if !outputs.iter().any(|out| out.name == *name) {
            writeln!(report, "{name}: in the digest file but no longer produced").unwrap();
        }
    }
    if report.is_empty() {
        return;
    }
    let first = golden.lines().next().filter(|l| l.starts_with('#'));
    let mut corrected = first.map_or_else(String::new, |l| format!("{l}\n"));
    writeln!(corrected, "target {}", target()).unwrap();
    for out in outputs {
        writeln!(corrected, "{} {:016x}", out.name, out.digest).unwrap();
    }
    panic!(
        "output digests moved (blessed on {blessed_on}, running on {}):\n{report}\n\
         corrected {path}:\n{corrected}",
        target()
    );
}
