//! Order statistics for the ledger: medians, quartiles, the tail
//! percentile rule, and the quartile spread.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(data, n=4)`, so the spread the ledger reports
//! is the spread an outside checker computes from the same values.

/// A timing or count reported as a median with its quartiles and the
/// number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        let value = median_sorted(&sorted)?;
        let (q1, q3) = quartiles_sorted(&sorted);
        Some(Summary {
            value,
            q1,
            q3,
            n: sorted.len(),
        })
    }

    /// A single measured value (one sample, zero-width quartiles).
    #[must_use]
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The median of `samples` (`None` when empty).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    median_sorted(&sorted(samples))
}

/// First and third quartile by the exclusive method (as Python's
/// `statistics.quantiles(data, n=4)`); a single sample is its own
/// quartiles.
fn quartiles_sorted(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // `delta` may leave 0..=4 when `j` was clamped; Python then
        // extrapolates linearly, and so does this.
        let delta = i as f64 * m as f64 - j as f64 * 4.0;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The distance between the first and third quartile of `values` as a
/// share of their median — the run-to-run spread the bounds are checked
/// against.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    match Summary::of(values) {
        Some(s) if s.value != 0.0 => (s.q3 - s.q1) / s.value.abs(),
        _ => 0.0,
    }
}

/// The `p`-th percentile (0–100) of `samples`, interpolating linearly
/// between closest ranks.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let last = sorted.len().checked_sub(1)?;
    let h = last as f64 * p.clamp(0.0, 100.0) / 100.0;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// Candidate tail percentiles in per-mille, highest first.
const TAIL_PERMILLE: [u32; 5] = [999, 990, 950, 900, 500];

/// The highest reported percentile that still has at least ten samples
/// beyond it with `n` samples (50, 90, 95, 99 or 99.9); `None` below
/// twenty samples, where not even the median has ten beyond it.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERMILLE
        .iter()
        .find(|&&pm| n as u64 * u64::from(1000 - pm) >= 10 * 1000)
        .map(|&pm| f64::from(pm) / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert!(close(s.q1, 2.75) && close(s.value, 5.5) && close(s.q3, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert!(close(s.q1, 1.0) && close(s.q3, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // clamped index extrapolates.
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert!(close(s.q1, 0.75) && close(s.q3, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let s = Summary::of(&[50.0, 40.0, 30.0, 20.0, 10.0]).unwrap();
        assert!(close(s.q1, 15.0) && close(s.q3, 45.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread(&ten), (8.25 - 2.75) / 5.5));
        assert!(close(spread(&[4.0; 7]), 0.0));
        assert!(close(spread(&[]), 0.0));
    }

    #[test]
    fn single_samples_and_empty_inputs() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[7.5]).unwrap();
        assert_eq!(s, Summary::single(7.5));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[], 90.0), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!(close(percentile(&hundred, 90.0).unwrap(), 91.0));
        assert!(close(percentile(&[1.0, 2.0], 50.0).unwrap(), 1.5));
        assert!(close(percentile(&[5.0], 99.0).unwrap(), 5.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
