//! Deterministic pseudo-randomness for the simulator.
//!
//! Every stochastic element (di/dt noise events, CPM process variation,
//! workload activity jitter, query arrivals) draws from a [`SplitMix64`]
//! stream. Streams are derived from a master seed plus a domain label via
//! [`seed_for`], so adding a new noise consumer never perturbs the stream
//! of an existing one — experiments stay reproducible as the code evolves.

use crate::hash::{fnv64, fnv64_continue};
use serde::{Deserialize, Serialize};

/// A small, fast, deterministic PRNG (Sebastiano Vigna's SplitMix64).
///
/// Not cryptographically secure; used only for simulation noise. Chosen over
/// an external generator so that sequences are stable across dependency
/// upgrades.
///
/// # Examples
///
/// ```
/// use p7_types::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let u = a.next_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform sample in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `lo > hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "uniform range inverted: [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a standard-normal sample (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        // Draw u1 away from zero to keep ln() finite.
        let u1 = (self.next_u64() >> 11).max(1) as f64 * (1.0 / (1u64 << 53) as f64);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns a normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Returns an exponential sample with the given rate (events per unit).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0, "exponential rate must be positive: {rate}");
        let u = self.next_f64();
        -(1.0 - u).ln() / rate
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Forks an independent child stream labelled by `label`.
    pub fn fork(&mut self, label: &str) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ fnv64(label.as_bytes()))
    }
}

/// Derives a deterministic seed from a master seed and a domain label.
///
/// # Examples
///
/// ```
/// use p7_types::seed_for;
///
/// assert_eq!(seed_for(7, "didt"), seed_for(7, "didt"));
/// assert_ne!(seed_for(7, "didt"), seed_for(7, "cpm"));
/// assert_ne!(seed_for(7, "didt"), seed_for(8, "didt"));
/// ```
#[must_use]
pub fn seed_for(master: u64, label: &str) -> u64 {
    // Mix the label hash into the master seed through one SplitMix64 step
    // so that nearby master seeds do not produce correlated streams.
    splitmix(master ^ fnv64(label.as_bytes()))
}

/// Derives a deterministic seed from a master seed, a domain label and an
/// element index, without allocating.
///
/// Byte-for-byte equivalent to `seed_for(master, &format!("{label}{index}"))`
/// — the index is hashed as its decimal digits — so call sites that used to
/// build the label with `format!` keep their exact streams (and therefore
/// their golden values) when switching to this allocation-free form.
///
/// # Examples
///
/// ```
/// use p7_types::{seed_for, seed_for_indexed};
///
/// assert_eq!(seed_for_indexed(7, "chip", 1), seed_for(7, "chip1"));
/// assert_ne!(seed_for_indexed(7, "chip", 0), seed_for_indexed(7, "chip", 1));
/// ```
#[must_use]
pub fn seed_for_indexed(master: u64, label: &str, index: usize) -> u64 {
    splitmix(master ^ fnv64_digits(fnv64(label.as_bytes()), index))
}

/// One SplitMix64 step from state `z`: `SplitMix64::new(z).next_u64()`.
/// The stateless mixer behind seed derivation, sweep point and fleet
/// server seeds, and cache shard selection.
///
/// # Examples
///
/// ```
/// use p7_types::{splitmix, SplitMix64};
///
/// assert_eq!(splitmix(42), SplitMix64::new(42).next_u64());
/// ```
#[must_use]
pub fn splitmix(z: u64) -> u64 {
    SplitMix64::new(z).next_u64()
}

/// Continues an FNV-1a hash over the decimal digits of `index`, exactly as
/// if the number had been formatted into the hashed string.
fn fnv64_digits(hash: u64, index: usize) -> u64 {
    // usize fits in 20 decimal digits; fill the buffer back to front.
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut rest = index;
    loop {
        i -= 1;
        digits[i] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    fnv64_continue(hash, &digits[i..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sequence() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            let v = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn normal_mean_and_spread() {
        let mut rng = SplitMix64::new(77);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SplitMix64::new(5);
        let rate = 4.0;
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SplitMix64::new(10);
        let mut c1 = parent.fork("alpha");
        let mut c2 = parent.fork("alpha");
        // Forks taken at different points differ even with the same label.
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn seed_for_is_label_sensitive() {
        assert_ne!(seed_for(0, "a"), seed_for(0, "b"));
        assert_eq!(seed_for(99, "pdn"), seed_for(99, "pdn"));
    }

    #[test]
    fn seed_for_indexed_matches_formatted_label() {
        // The allocation-free path must reproduce the exact streams the
        // old `format!("{label}{index}")` call sites produced.
        for master in [0u64, 7, 42, u64::MAX] {
            for index in [0usize, 1, 7, 9, 10, 39, 123, 9_999_999] {
                assert_eq!(
                    seed_for_indexed(master, "chip", index),
                    seed_for(master, &format!("chip{index}")),
                    "master {master}, index {index}"
                );
                assert_eq!(
                    seed_for_indexed(master, "trace", index),
                    seed_for(master, &format!("trace{index}")),
                );
            }
        }
    }

    #[test]
    fn seed_for_indexed_is_index_sensitive() {
        assert_ne!(
            seed_for_indexed(1, "chip", 0),
            seed_for_indexed(1, "chip", 1)
        );
        assert_ne!(
            seed_for_indexed(1, "chip", 0),
            seed_for_indexed(2, "chip", 0)
        );
        assert_ne!(
            seed_for_indexed(1, "chip", 0),
            seed_for_indexed(1, "trace", 0)
        );
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(0);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
