//! Measurements taken from outside the workloads: the host calibration
//! kernel, direct timings of the CPM-bank readout and the journal append,
//! process memory, and small shared helpers (digests, the seeded RNG,
//! Prometheus text, scratch directories).

use crate::stats;
use p7_sensors::CpmBank;
use p7_sim::{CampaignManifest, Journal};
use p7_types::{MegaHertz, Volts};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Iterations of the calibration kernel (about 10 ms on a 2020s core).
const CALIB_ITERS: u64 = 1 << 22;

/// Repetitions per probe; probes report the median.
const PROBE_REPS: usize = 5;

/// One pass of the fixed calibration kernel, in milliseconds. It uses no
/// repository code, so it only moves when the host does: comparing it
/// before and after a workload shows clock drift during the run.
#[must_use]
pub fn calib_once() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0f64;
    for _ in 0..black_box(CALIB_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        #[allow(clippy::cast_precision_loss)]
        let sample = (x >> 11) as f64;
        acc = acc.mul_add(0.999_999, sample * 1e-16);
    }
    black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

/// Median of [`PROBE_REPS`] calibration passes, in milliseconds.
#[must_use]
pub fn calib_ms() -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPS).map(|_| calib_once()).collect();
    stats::median(&samples).unwrap_or(f64::NAN)
}

/// Nanoseconds per `CpmBank::read_window` call (the finish-window CPM
/// readout of every tick), median of [`PROBE_REPS`] timed loops.
#[must_use]
pub fn read_window_ns(seed: u64) -> f64 {
    const CALLS: u32 = 100_000;
    let bank = CpmBank::with_seed(seed);
    let sample = [Volts::from_millivolts(82.0); 8];
    let sticky = [Volts::from_millivolts(64.0); 8];
    let freqs = [MegaHertz(4228.0); 8];
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..CALLS {
                black_box(bank.read_window(
                    black_box(&sample),
                    black_box(&sticky),
                    black_box(&freqs),
                ));
            }
            started.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS)
        })
        .collect();
    stats::median(&samples).unwrap_or(f64::NAN)
}

/// Milliseconds per durable `Journal::append` of one 16-entry segment
/// (about 1 KiB per entry, like a sweep point), written into `dir` —
/// the same filesystem the serve workload's queue journal lives on.
///
/// # Errors
///
/// Reports journal I/O failures.
pub fn journal_append_ms(dir: &Path, seed: u64) -> Result<Vec<f64>, String> {
    const APPENDS: usize = 100;
    let manifest = CampaignManifest::new("ledger-probe", seed, "{}".to_owned());
    let mut journal =
        Journal::<String>::create(dir, &manifest).map_err(|e| format!("journal probe: {e}"))?;
    let entries: Vec<(usize, String)> = (0..16).map(|i| (i, "x".repeat(1024))).collect();
    let mut samples = Vec::with_capacity(APPENDS);
    for _ in 0..APPENDS {
        let started = Instant::now();
        journal
            .append(&entries)
            .map_err(|e| format!("journal probe: {e}"))?;
        samples.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(samples)
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in megabytes (10^6 bytes).
///
/// # Errors
///
/// Reports an unreadable or unexpected `/proc` status file.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// FNV-1a 64 of `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 of `bytes`, as 16 hex digits.
#[must_use]
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

/// SplitMix64: the ledger's own seeded generator, so the inputs it
/// derives from `--seed` never change when the program's RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for the stream `stream` of seed `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ fnv64(stream.as_bytes()))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let top = (self.next_u64() >> 11) as f64;
        top / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        let i = (self.next_u64() % n as u64) as usize;
        i
    }
}

/// Prometheus text exposition parsed into `series → value`, where a
/// series is the metric name plus its label block as written
/// (`ags_serve_http_request_seconds_sum{route="/tasks"}`).
#[must_use]
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            Some((series.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// The change of `series` between two parsed scrapes (0 when absent).
#[must_use]
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, series: &str) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}

/// A fresh scratch directory for this process under `.ledger/tmp` in the
/// working directory — the benchmark writes nothing outside the checkout
/// it runs in. Removed by [`Scratch`]'s `Drop`.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `.ledger/tmp/<label>-<pid>`, emptying a stale one.
    ///
    /// # Errors
    ///
    /// Reports a directory that cannot be created.
    pub fn new(label: &str) -> Result<Scratch, String> {
        let dir = Path::new(".ledger")
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let dir = dir
            .canonicalize()
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_text_parses_series_and_deltas() {
        let before = parse_prometheus(
            "# HELP x y\n# TYPE x counter\nags_sim_ticks_total 5\n\
             ags_serve_http_request_seconds_sum{route=\"/tasks\"} 0.5\n",
        );
        let after = parse_prometheus("ags_sim_ticks_total 12\n");
        assert_eq!(delta(&before, &after, "ags_sim_ticks_total"), 7.0);
        assert_eq!(
            before.get("ags_serve_http_request_seconds_sum{route=\"/tasks\"}"),
            Some(&0.5)
        );
        assert_eq!(delta(&before, &after, "absent"), 0.0);
    }

    #[test]
    fn rng_streams_are_seeded_and_distinct() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, "a"), draw(1, "a"));
        assert_ne!(draw(1, "a"), draw(2, "a"));
        assert_ne!(draw(1, "a"), draw(1, "b"));
        let mut r = Rng::new(3, "u");
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}
