//! Per-window activity traces.
//!
//! Real benchmarks are not flat: activity wanders through phases and
//! carries short-term jitter, which is what feeds current swings into the
//! di/dt noise model and window-to-window variation into telemetry. The
//! trace is a seeded combination of a slow sinusoidal phase and white
//! jitter around the profile's mean activity.

use crate::profile::WorkloadProfile;
use p7_types::{seed_for, SplitMix64};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Windows [`phase_sine`] serves from its table: a trace's start offset
/// (below the 125-window period) plus a 90-window default run fit.
const PHASE_TABLE_WINDOWS: usize = 256;

/// The phase swing's sine at `window` of a `period`-window cycle,
/// `sin((window / period) · τ)`. The input is the integer window index,
/// not a random draw, so for the default period the first
/// [`PHASE_TABLE_WINDOWS`] values come from a table built once with this
/// same expression: bit for bit what a direct evaluation returns.
fn phase_sine(window: u64, period: f64) -> f64 {
    static TABLE: OnceLock<[f64; PHASE_TABLE_WINDOWS]> = OnceLock::new();
    let direct = |w: u64| ((w as f64 / period) * std::f64::consts::TAU).sin();
    if period.to_bits() == ActivityTrace::PHASE_PERIOD.to_bits()
        && window < PHASE_TABLE_WINDOWS as u64
    {
        TABLE.get_or_init(|| std::array::from_fn(|w| direct(w as u64)))[window as usize]
    } else {
        direct(window)
    }
}

/// A deterministic per-window activity generator for one thread.
///
/// # Examples
///
/// ```
/// use p7_workloads::{ActivityTrace, Catalog};
///
/// let c = Catalog::power7plus();
/// let mut trace = ActivityTrace::new(c.get("raytrace").unwrap(), 42);
/// let a = trace.next_window();
/// assert!((0.0..=1.0).contains(&a));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActivityTrace {
    base: f64,
    jitter: f64,
    phase_amplitude: f64,
    phase_period_windows: f64,
    window: u64,
    rng: SplitMix64,
}

impl ActivityTrace {
    /// Relative white jitter per window.
    const JITTER: f64 = 0.03;
    /// Relative amplitude of the slow phase swing.
    const PHASE_AMPLITUDE: f64 = 0.06;
    /// Period of the phase swing, in 32 ms windows (~4 s).
    const PHASE_PERIOD: f64 = 125.0;

    /// Creates a trace for one thread of `profile`, seeded by `seed` (vary
    /// the seed per thread so threads stagger rather than align).
    #[must_use]
    pub fn new(profile: &WorkloadProfile, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed_for(seed, profile.name()));
        // Random initial phase so threads with different seeds stagger.
        let window = (rng.next_f64() * Self::PHASE_PERIOD) as u64;
        ActivityTrace {
            base: profile.activity(),
            jitter: Self::JITTER * profile.variability(),
            phase_amplitude: Self::PHASE_AMPLITUDE * profile.variability(),
            phase_period_windows: Self::PHASE_PERIOD,
            window,
            rng,
        }
    }

    /// The profile-mean activity this trace wanders around.
    #[must_use]
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Produces the activity factor for the next 32 ms window, in `[0, 1]`.
    pub fn next_window(&mut self) -> f64 {
        let sine = phase_sine(self.window, self.phase_period_windows);
        self.window += 1;
        let swing = self.phase_amplitude * sine;
        let noise = self.jitter * self.rng.normal();
        (self.base * (1.0 + swing + noise)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    fn trace(name: &str, seed: u64) -> ActivityTrace {
        let c = Catalog::power7plus();
        ActivityTrace::new(c.get(name).unwrap(), seed)
    }

    #[test]
    fn stays_in_unit_range() {
        let mut t = trace("vips", 1);
        for _ in 0..10_000 {
            let a = t.next_window();
            assert!((0.0..=1.0).contains(&a));
        }
    }

    #[test]
    fn mean_tracks_profile_activity() {
        let mut t = trace("raytrace", 2);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| t.next_window()).sum::<f64>() / f64::from(n);
        assert!(
            (mean - t.base()).abs() < 0.01,
            "mean {mean} vs {}",
            t.base()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = trace("lu_cb", 7);
        let mut b = trace("lu_cb", 7);
        for _ in 0..100 {
            assert_eq!(a.next_window(), b.next_window());
        }
    }

    #[test]
    fn different_seeds_stagger() {
        let mut a = trace("raytrace", 1);
        let mut b = trace("raytrace", 2);
        let same = (0..100)
            .filter(|_| a.next_window() == b.next_window())
            .count();
        assert!(same < 5);
    }

    /// `next_window` with the phase sine evaluated directly.
    fn next_window_direct(t: &mut ActivityTrace) -> f64 {
        let phase = (t.window as f64 / t.phase_period_windows) * std::f64::consts::TAU;
        t.window += 1;
        let swing = t.phase_amplitude * phase.sin();
        let noise = t.jitter * t.rng.normal();
        (t.base * (1.0 + swing + noise)).clamp(0.0, 1.0)
    }

    #[test]
    fn phase_table_equals_the_direct_sine_bit_for_bit() {
        let period = ActivityTrace::PHASE_PERIOD;
        for w in 0..PHASE_TABLE_WINDOWS as u64 + 8 {
            let direct = ((w as f64 / period) * std::f64::consts::TAU).sin();
            assert_eq!(phase_sine(w, period).to_bits(), direct.to_bits(), "{w}");
        }
    }

    #[test]
    fn traces_past_the_table_and_at_other_periods_match_direct_evaluation() {
        let mut served = trace("bodytrack", 5);
        let mut direct = served.clone();
        for w in 0..3 * PHASE_TABLE_WINDOWS {
            let (a, b) = (served.next_window(), next_window_direct(&mut direct));
            assert_eq!(a.to_bits(), b.to_bits(), "window {w}");
        }
        // A trace read back with another period bypasses the table.
        let text = serde::json::to_string(&trace("radix", 9));
        let period = "\"phase_period_windows\":125.0";
        assert!(text.contains(period), "{text}");
        let skewed = text.replace(period, "\"phase_period_windows\":97.0");
        let mut served: ActivityTrace = serde::json::from_str(&skewed).unwrap();
        let mut direct = served.clone();
        for w in 0..PHASE_TABLE_WINDOWS {
            let (a, b) = (served.next_window(), next_window_direct(&mut direct));
            assert_eq!(a.to_bits(), b.to_bits(), "window {w}");
        }
    }

    #[test]
    fn high_variability_swings_more() {
        let spread = |name: &str| {
            let mut t = trace(name, 3);
            let vals: Vec<f64> = (0..2000).map(|_| t.next_window()).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64).sqrt() / mean
        };
        // bodytrack (variability 1.3) vs blackscholes (0.7).
        assert!(spread("bodytrack") > spread("blackscholes"));
    }
}
