//! Stochastic di/dt (inductive) voltage-noise model.
//!
//! Sec. 4.3 of the paper distinguishes two di/dt regimes and measures how
//! each scales with the number of active cores:
//!
//! * **typical-case ripple** — regular current ripples from steady
//!   microarchitectural activity. With more active cores the ripples of
//!   independent cores *stagger* and partially cancel, so the chip-level
//!   typical noise **shrinks** (≈ `1/√n` smoothing).
//! * **worst-case droops** — rare, large droops caused by *aligned* current
//!   surges across cores (e.g. synchronized pipeline flushes or barrier
//!   wake-ups). Their magnitude **grows slightly** with core count because
//!   more cores give more opportunities for random alignment, but they occur
//!   infrequently.
//!
//! The model is statistical: per 32 ms observation window it produces the
//! mean ripple amplitude (what a sample-mode CPM sees) and the worst droop
//! in the window (what a sticky-mode CPM latches).

use crate::error::PdnError;
use p7_types::{LastEval, Seconds, SplitMix64, Volts, CORES_PER_SOCKET};
use serde::{Deserialize, Serialize};

/// Parameters of the di/dt noise model.
///
/// Defaults are calibrated so the decomposition of Fig. 9 comes out right:
/// at one active core the typical ripple is ~10–14 mV and the worst droop in
/// a window ~20–26 mV; at eight cores the typical ripple shrinks under 6 mV
/// while worst droops grow by ~30 %.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DidtConfig {
    /// Typical chip-level ripple amplitude with one fully active core.
    pub typical_base: Volts,
    /// Worst-case droop magnitude with one fully active core.
    pub worst_base: Volts,
    /// Relative growth of worst-case droops from 1 to 8 active cores.
    pub alignment_factor: f64,
    /// Exponent of the typical-ripple smoothing with core count
    /// (`typical ∝ n^-smoothing_exponent`).
    pub smoothing_exponent: f64,
    /// Mean rate of worst-case droop events, per second.
    pub droop_rate_hz: f64,
    /// Relative standard deviation of droop magnitudes.
    pub droop_jitter: f64,
}

impl DidtConfig {
    /// The calibrated POWER7+ parameter set.
    #[must_use]
    pub fn power7plus() -> Self {
        DidtConfig {
            typical_base: Volts::from_millivolts(12.0),
            worst_base: Volts::from_millivolts(22.0),
            alignment_factor: 0.32,
            smoothing_exponent: 0.5,
            droop_rate_hz: 60.0,
            droop_jitter: 0.10,
        }
    }

    /// Checks that every parameter is physically meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::NonPositiveParameter`] for non-finite or negative
    /// amplitudes, rates, or exponents.
    pub fn validate(&self) -> Result<(), PdnError> {
        let non_negative = [
            ("typical_base", self.typical_base.0),
            ("worst_base", self.worst_base.0),
            ("alignment_factor", self.alignment_factor),
            ("smoothing_exponent", self.smoothing_exponent),
            ("droop_rate_hz", self.droop_rate_hz),
            ("droop_jitter", self.droop_jitter),
        ];
        for (name, value) in non_negative {
            if !(value.is_finite() && value >= 0.0) {
                return Err(PdnError::NonPositiveParameter { name, value });
            }
        }
        Ok(())
    }

    /// A silent configuration: no di/dt noise at all (used by the
    /// `ablation_didt` experiment).
    #[must_use]
    pub fn disabled() -> Self {
        DidtConfig {
            typical_base: Volts::ZERO,
            worst_base: Volts::ZERO,
            alignment_factor: 0.0,
            smoothing_exponent: 0.5,
            droop_rate_hz: 0.0,
            droop_jitter: 0.0,
        }
    }
}

impl Default for DidtConfig {
    fn default() -> Self {
        DidtConfig::power7plus()
    }
}

/// The noise observed over one observation window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DidtSample {
    /// Mean ripple amplitude during the window (sample-mode CPM view).
    pub typical: Volts,
    /// Deepest droop during the window (sticky-mode CPM view), measured
    /// from the mean voltage. Always at least as large as `typical`.
    pub worst: Volts,
    /// Number of worst-case droop events that occurred in the window.
    pub droop_events: u32,
}

/// Stateful stochastic generator of di/dt noise.
///
/// # Examples
///
/// ```
/// use p7_pdn::{DidtConfig, DidtModel};
/// use p7_types::Seconds;
///
/// let mut model = DidtModel::new(DidtConfig::power7plus(), 42);
/// let one = model.sample_window(1, 1.0, Seconds::from_millis(32.0));
/// let eight = model.sample_window(8, 1.0, Seconds::from_millis(32.0));
/// // Typical ripple smooths out as cores stagger.
/// assert!(eight.typical < one.typical);
/// ```
#[derive(Debug, Clone)]
pub struct DidtModel {
    config: DidtConfig,
    rng: SplitMix64,
    /// `(n as f64).powf(-smoothing_exponent)` for `n` in `1..=8` active
    /// cores, at index `n − 1`: the exponent is fixed at construction.
    smoothing: [f64; CORES_PER_SOCKET],
    /// The Poisson limit `exp(−mean)`, keyed by the mean: a simulation's
    /// windows all have one length, so one mean.
    poisson_limit: LastEval,
}

impl DidtModel {
    /// Creates a model with its own deterministic noise stream.
    #[must_use]
    pub fn new(config: DidtConfig, seed: u64) -> Self {
        let smoothing = std::array::from_fn(|i| ((i + 1) as f64).powf(-config.smoothing_exponent));
        DidtModel {
            config,
            rng: SplitMix64::new(p7_types::seed_for(seed, "didt")),
            smoothing,
            poisson_limit: LastEval::default(),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &DidtConfig {
        &self.config
    }

    /// Expected typical-case ripple for `active` cores at a given workload
    /// current variability (deterministic mean, no sampling noise).
    #[must_use]
    pub fn typical_ripple(&self, active: usize, variability: f64) -> Volts {
        if active == 0 {
            return Volts::ZERO;
        }
        let smoothing = match self.smoothing.get(active - 1) {
            Some(&smoothing) => smoothing,
            None => (active as f64).powf(-self.config.smoothing_exponent),
        };
        self.config.typical_base * variability.max(0.0) * smoothing
    }

    /// Expected worst-case droop magnitude for `active` cores (the mean of
    /// the event-magnitude distribution).
    #[must_use]
    pub fn worst_droop_magnitude(&self, active: usize, variability: f64) -> Volts {
        if active == 0 {
            return Volts::ZERO;
        }
        let alignment = 1.0 + self.config.alignment_factor * (active as f64 - 1.0) / 7.0;
        self.config.worst_base * variability.max(0.0) * alignment
    }

    /// Draws the noise for one observation window.
    ///
    /// `variability` is the workload's relative current-swing intensity
    /// (1.0 = PARSEC-average). The sticky (worst) value is the deepest of:
    /// the sampled droop events in the window, or a ~2σ excursion of the
    /// typical ripple when no event fired.
    pub fn sample_window(
        &mut self,
        active: usize,
        variability: f64,
        window: Seconds,
    ) -> DidtSample {
        if active == 0 {
            return DidtSample {
                typical: Volts::ZERO,
                worst: Volts::ZERO,
                droop_events: 0,
            };
        }
        let typical_mean = self.typical_ripple(active, variability);
        // Small window-to-window wander of the ripple amplitude.
        let typical = Volts((typical_mean.0 * (1.0 + 0.05 * self.rng.normal())).max(0.0));

        // Poisson droop arrivals over the window.
        let expected_events = self.config.droop_rate_hz * window.0;
        let events = self.sample_poisson(expected_events);
        let magnitude_mean = self.worst_droop_magnitude(active, variability);
        let mut worst = typical * 1.4; // ~peak of the regular ripple
        for _ in 0..events {
            let m =
                magnitude_mean.0 * (1.0 + self.config.droop_jitter * self.rng.normal()).max(0.2);
            worst = worst.max(Volts(m));
        }
        DidtSample {
            typical,
            worst: worst.max(typical),
            droop_events: events,
        }
    }

    /// Draws a Poisson count via inversion (adequate for small means).
    fn sample_poisson(&mut self, mean: f64) -> u32 {
        if mean <= 0.0 {
            return 0;
        }
        let limit = self.poisson_limit.get_or_eval(mean, |mean| (-mean).exp());
        let mut product = self.rng.next_f64();
        let mut count = 0u32;
        while product > limit && count < 1000 {
            product *= self.rng.next_f64();
            count += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DidtModel {
        DidtModel::new(DidtConfig::power7plus(), 7)
    }

    #[test]
    fn config_validates() {
        DidtConfig::power7plus().validate().unwrap();
        DidtConfig::disabled().validate().unwrap();
        let bad = DidtConfig {
            droop_rate_hz: -1.0,
            ..DidtConfig::power7plus()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn typical_ripple_shrinks_with_core_count() {
        let m = model();
        let mut last = Volts(1.0);
        for n in 1..=8 {
            let t = m.typical_ripple(n, 1.0);
            assert!(t < last, "ripple should shrink: {n} cores -> {t}");
            last = t;
        }
    }

    #[test]
    fn worst_droop_grows_with_core_count() {
        let m = model();
        let one = m.worst_droop_magnitude(1, 1.0);
        let eight = m.worst_droop_magnitude(8, 1.0);
        assert!(eight > one);
        let growth = eight / one;
        assert!((1.2..1.5).contains(&growth), "growth {growth}");
    }

    #[test]
    fn zero_active_cores_is_silent() {
        let mut m = model();
        let s = m.sample_window(0, 1.0, Seconds::from_millis(32.0));
        assert_eq!(s.typical, Volts::ZERO);
        assert_eq!(s.worst, Volts::ZERO);
        assert_eq!(s.droop_events, 0);
    }

    #[test]
    fn variability_scales_noise_linearly() {
        let m = model();
        let lo = m.typical_ripple(4, 0.5);
        let hi = m.typical_ripple(4, 1.0);
        assert!((hi.0 / lo.0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn worst_is_never_below_typical() {
        let mut m = model();
        for n in 1..=8 {
            for _ in 0..200 {
                let s = m.sample_window(n, 1.0, Seconds::from_millis(32.0));
                assert!(s.worst >= s.typical);
            }
        }
    }

    #[test]
    fn sticky_exceeds_sample_on_average() {
        // Over many windows the sticky (worst) reading must be clearly
        // larger than the sample-mode ripple, as in the paper's Fig. 8.
        let mut m = model();
        let mut sum_typ = 0.0;
        let mut sum_worst = 0.0;
        for _ in 0..500 {
            let s = m.sample_window(4, 1.0, Seconds::from_millis(32.0));
            sum_typ += s.typical.0;
            sum_worst += s.worst.0;
        }
        assert!(sum_worst > 1.5 * sum_typ);
    }

    #[test]
    fn disabled_config_produces_zero_noise() {
        let mut m = DidtModel::new(DidtConfig::disabled(), 1);
        let s = m.sample_window(8, 1.0, Seconds::from_millis(32.0));
        assert_eq!(s.typical, Volts::ZERO);
        assert_eq!(s.worst, Volts::ZERO);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = DidtModel::new(DidtConfig::power7plus(), 99);
        let mut b = DidtModel::new(DidtConfig::power7plus(), 99);
        for _ in 0..50 {
            let sa = a.sample_window(6, 1.0, Seconds::from_millis(32.0));
            let sb = b.sample_window(6, 1.0, Seconds::from_millis(32.0));
            assert_eq!(sa, sb);
        }
    }

    /// `sample_window` as it was written before its constants were
    /// hoisted, drawing from `rng`: the reference the model must
    /// reproduce bit for bit.
    fn unhoisted_sample(
        config: &DidtConfig,
        rng: &mut SplitMix64,
        active: usize,
        variability: f64,
        window: Seconds,
    ) -> DidtSample {
        let smoothing = (active as f64).powf(-config.smoothing_exponent);
        let typical_mean = config.typical_base * variability * smoothing;
        let typical = Volts((typical_mean.0 * (1.0 + 0.05 * rng.normal())).max(0.0));
        let mean = config.droop_rate_hz * window.0;
        let limit = (-mean).exp();
        let mut product = rng.next_f64();
        let mut events = 0u32;
        while product > limit && events < 1000 {
            product *= rng.next_f64();
            events += 1;
        }
        let alignment = 1.0 + config.alignment_factor * (active as f64 - 1.0) / 7.0;
        let magnitude_mean = config.worst_base * variability * alignment;
        let mut worst = typical * 1.4;
        for _ in 0..events {
            let m = magnitude_mean.0 * (1.0 + config.droop_jitter * rng.normal()).max(0.2);
            worst = worst.max(Volts(m));
        }
        DidtSample {
            typical,
            worst: worst.max(typical),
            droop_events: events,
        }
    }

    #[test]
    fn hoisted_smoothing_equals_powf_for_every_core_count() {
        let m = model();
        for active in 1..=12usize {
            let smoothing = (active as f64).powf(-m.config.smoothing_exponent);
            let expected = m.config.typical_base * 0.9 * smoothing;
            assert_eq!(
                m.typical_ripple(active, 0.9).0.to_bits(),
                expected.0.to_bits(),
                "{active} cores"
            );
        }
    }

    #[test]
    fn sample_window_is_bit_identical_to_the_unhoisted_draws_at_any_window() {
        // The Poisson limit is memoized per mean, which the window
        // length sets; changing the window between draws must re-key it.
        let config = DidtConfig::power7plus();
        let mut m = DidtModel::new(config.clone(), 17);
        let mut rng = SplitMix64::new(p7_types::seed_for(17, "didt"));
        let windows = [0.032, 0.032, 0.1, 0.032, 0.001, 0.5, 0.5, 0.032];
        for (i, window) in windows.into_iter().enumerate() {
            for active in 1..=8 {
                let got = m.sample_window(active, 0.8, Seconds(window));
                let expected = unhoisted_sample(&config, &mut rng, active, 0.8, Seconds(window));
                assert_eq!(got, expected, "draw {i}, window {window}, {active} cores");
            }
        }
    }

    #[test]
    fn poisson_mean_is_respected() {
        let mut m = model();
        let windows = 3000;
        let mut events = 0u64;
        for _ in 0..windows {
            events += u64::from(
                m.sample_window(2, 1.0, Seconds::from_millis(32.0))
                    .droop_events,
            );
        }
        let mean = events as f64 / windows as f64;
        let expected = 60.0 * 0.032;
        assert!(
            (mean - expected).abs() < 0.1,
            "mean {mean}, expected {expected}"
        );
    }
}
