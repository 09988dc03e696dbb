//! `ledger compare A B`: a verdict per metric × workload between two
//! logs of runs (parent `A`, change `B`), by the rules the benchmark
//! fixes for claiming a gain or a regression.
//!
//! * **unchanged** — the medians differ by less than the metric's
//!   absolute floor (20 ms for `setup_s`, none for the others);
//! * **improved** — the change wins at least nine in ten pairs (ties
//!   count for neither side) and the medians differ by more than the
//!   parent's own quartile spread;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound (and the floor), and also by more than either
//!   side's quartile spread where that spread is the wider;
//! * **unresolved** — either side's quartile spread is wider than the
//!   bound (and the floor), unless every change run beats every parent
//!   run;
//! * **unchanged** — otherwise.
//!
//! Runs pair up in log order per workload, so interleave the two sides
//! when producing the logs.

use crate::record::{fmt_num, Record, Schema};
use crate::stats::{self, Summary};
use serde::Value;
use std::fmt::Write as _;
use std::path::Path;

/// Fewer pairs than this earn a warning: the nine-in-ten rule needs ten.
const MIN_PAIRS: usize = 10;

/// Calibration drift (percent, either sign) beyond which a pair's host
/// speed moved too much during a run to trust it.
const DRIFT_LIMIT_PCT: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Whether `x` reads better than `y`.
fn better(x: f64, y: f64, higher_is_better: bool) -> bool {
    if higher_is_better {
        x > y
    } else {
        x < y
    }
}

/// Pairs the change (`b`) wins; ties count for neither side.
fn wins(a: &[f64], b: &[f64], higher_is_better: bool) -> usize {
    a.iter()
        .zip(b)
        .filter(|(pa, pb)| better(**pb, **pa, higher_is_better))
        .count()
}

/// The absolute difference, in the metric's unit, below which two
/// medians count as the same. Set-up times under 20 ms are one process
/// spawn or one HTTP round trip, whose jitter says nothing about the code.
#[must_use]
pub fn floor(name: &str) -> f64 {
    if name == "setup_s" {
        0.020
    } else {
        0.0
    }
}

/// The verdict for paired parent runs `a` and change runs `b` (pair `i`
/// is `(a[i], b[i])`; extra runs on either side are ignored). `bound` is
/// relative to the parent's median; `floor` is the absolute difference
/// that always counts as unchanged.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64, floor: f64) -> Verdict {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let (Some(sa), Some(sb)) = (Summary::of(a), Summary::of(b)) else {
        return Verdict::Unresolved;
    };
    // How much better the change's median reads (negative: worse).
    let gain = if higher_is_better {
        sb.value - sa.value
    } else {
        sa.value - sb.value
    };
    if gain.abs() < floor {
        return Verdict::Unchanged;
    }
    if wins(a, b, higher_is_better) * 10 >= n * 9 && gain > 0.0 && gain > sa.q3 - sa.q1 {
        return Verdict::Improved;
    }
    let tolerance = (bound * sa.value.abs()).max(floor);
    let noise = (sa.q3 - sa.q1).max(sb.q3 - sb.q1);
    // A median worse by more than both the bound and the noise is a
    // regression however noisy the runs are.
    if -gain > tolerance.max(noise) {
        return Verdict::Regressed;
    }
    let all_better = b
        .iter()
        .all(|&x| a.iter().all(|&y| better(x, y, higher_is_better)));
    if noise > tolerance && !all_better {
        Verdict::Unresolved
    } else if -gain > tolerance {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Reads a ledger log: one JSON record per line.
///
/// # Errors
///
/// Reports an unreadable file or a malformed line.
pub fn read_log(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            Value::parse_json(line)
                .map_err(|e| e.to_string())
                .and_then(|v| Record::from_value(&v))
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// The comparison report for logs `a` (parent) and `b` (change).
#[must_use]
pub fn report(schema: &Schema, a: &[Record], b: &[Record]) -> String {
    let mut out = String::new();
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().chain(b) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let _ = writeln!(
        out,
        "{:<14} {:<24} {:>8} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "A median", "B median", "delta%", "A iqr%", "B iqr%", "wins"
    );
    let mut notes = Vec::new();
    for workload in workloads {
        let side = |log: &[Record]| -> Vec<Record> {
            log.iter()
                .filter(|r| r.workload == workload)
                .cloned()
                .collect()
        };
        let (ra, rb) = (side(a), side(b));
        let n = ra.len().min(rb.len());
        if n < MIN_PAIRS {
            notes.push(format!(
                "warning: {workload}: {n} pairs (A has {}, B has {}); the nine-in-ten rule needs {MIN_PAIRS}",
                ra.len(),
                rb.len()
            ));
        }
        let (ra, rb) = (&ra[..n], &rb[..n]);
        for (i, (pa, pb)) in ra.iter().zip(rb).enumerate() {
            for (side, r) in [("A", pa), ("B", pb)] {
                if let Some(m) = r.get("calib_drift_pct") {
                    if m.summary.value.abs() > DRIFT_LIMIT_PCT {
                        notes.push(format!(
                            "flag: {workload} pair {}: host calibration drifted {:+.1}% during run {side}",
                            i + 1,
                            m.summary.value
                        ));
                    }
                }
                if !r.correct() {
                    notes.push(format!(
                        "flag: {workload} pair {}: run {side} failed {} of {} operations",
                        i + 1,
                        r.failed,
                        r.attempted
                    ));
                }
            }
            if pa.seed == pb.seed && pa.digests != pb.digests {
                notes.push(format!(
                    "flag: {workload} pair {}: simulated results differ at seed {} ({:?} vs {:?})",
                    i + 1,
                    pa.seed,
                    pa.digests,
                    pb.digests
                ));
            }
        }
        for declared in schema.end_to_end.iter().chain(&schema.per_layer) {
            let values = |runs: &[Record]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&declared.name).map(|m| m.summary.value))
                    .collect()
            };
            let (va, vb) = (values(ra), values(rb));
            let (Some(ma), Some(mb)) = (stats::median(&va), stats::median(&vb)) else {
                continue;
            };
            let wins = wins(&va, &vb, declared.higher_is_better);
            let label = declared.bound.map_or("(no bound)", |bound| {
                let floor = floor(&declared.name);
                verdict(&va, &vb, declared.higher_is_better, bound, floor).label()
            });
            let delta = if ma == 0.0 {
                String::from("-")
            } else {
                format!("{:+.2}", (mb - ma) / ma.abs() * 100.0)
            };
            let iqr = |v: &[f64]| format!("{:.2}", stats::spread(v) * 100.0);
            let _ = writeln!(
                out,
                "{:<14} {:<24} {:>8} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  {label}",
                workload,
                declared.name,
                declared.unit,
                fmt_num(ma),
                fmt_num(mb),
                delta,
                iqr(&va),
                iqr(&vb),
                format!("{wins}/{}", va.len().min(vb.len())),
            );
        }
    }
    for note in notes {
        let _ = writeln!(out, "{note}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i)).collect()
    }

    #[test]
    fn a_consistent_large_win_is_improved() {
        let a = runs(100.0, 0.5);
        let b = runs(80.0, 0.5);
        assert_eq!(verdict(&a, &b, false, 0.1, 0.0), Verdict::Improved);
        assert_eq!(verdict(&b, &a, true, 0.1, 0.0), Verdict::Improved);
    }

    #[test]
    fn a_worse_median_beyond_the_bound_is_regressed() {
        let a = runs(100.0, 0.5);
        let b = runs(115.0, 0.5);
        assert_eq!(verdict(&a, &b, false, 0.1, 0.0), Verdict::Regressed);
        assert_eq!(verdict(&a, &b, false, 0.2, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(&b, &a, true, 0.1, 0.0), Verdict::Regressed);
    }

    #[test]
    fn noise_within_the_bound_is_unchanged() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let b = [
            100.3, 99.6, 100.8, 99.7, 100.0, 100.4, 99.9, 100.2, 99.8, 100.1,
        ];
        assert_eq!(verdict(&a, &b, false, 0.1, 0.0), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let b = [
            65.0, 135.0, 85.0, 125.0, 105.0, 75.0, 125.0, 95.0, 115.0, 100.0,
        ];
        assert_eq!(verdict(&a, &b, false, 0.1, 0.0), Verdict::Unresolved);
        // …unless every change run beats every parent run.
        let better: Vec<f64> = a.iter().map(|x| x + 200.0).collect();
        assert_ne!(verdict(&a, &better, true, 0.1, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn a_large_regression_shows_through_a_noisy_spread() {
        let a = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let doubled: Vec<f64> = a.iter().map(|x| x * 2.0).collect();
        assert_eq!(verdict(&a, &doubled, false, 0.1, 0.0), Verdict::Regressed);
        let halved: Vec<f64> = a.iter().map(|x| x / 2.0).collect();
        assert_eq!(verdict(&a, &halved, true, 0.1, 0.0), Verdict::Regressed);
    }

    #[test]
    fn differences_under_the_floor_are_unchanged() {
        // Sub-millisecond set-up times, bimodal and 50 % apart: noise.
        let a = [
            0.0006, 0.0009, 0.0006, 0.0006, 0.0008, 0.0006, 0.0009, 0.0006, 0.0006, 0.0007,
        ];
        let b: Vec<f64> = a.iter().map(|x| x * 1.5).collect();
        let setup = floor("setup_s");
        assert_eq!(verdict(&a, &b, false, 0.25, 0.0), Verdict::Unresolved);
        assert_eq!(verdict(&a, &b, false, 0.25, setup), Verdict::Unchanged);
        // 30 ms slower on 0.1 s: beyond both the floor and the bound.
        let slow_a = runs(0.100, 0.001);
        let slow_b = runs(0.130, 0.001);
        assert_eq!(
            verdict(&slow_a, &slow_b, false, 0.25, setup),
            Verdict::Regressed
        );
        assert_eq!(floor("throughput"), 0.0);
    }

    #[test]
    fn winning_too_few_pairs_is_not_a_gain() {
        // B's median is far better, but it wins only 8 of 10 pairs.
        let a = runs(100.0, 1.0);
        let mut b = runs(80.0, 1.0);
        b[0] = 200.0;
        b[1] = 200.0;
        assert_ne!(verdict(&a, &b, false, 0.25, 0.0), Verdict::Improved);
        assert_eq!(verdict(&[], &[], false, 0.1, 0.0), Verdict::Unresolved);
    }
}
