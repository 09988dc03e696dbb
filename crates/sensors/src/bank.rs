//! The chip-wide array of 40 CPMs with seeded process variation.

use crate::cpm::{frequency_scale, CpmReading, CriticalPathMonitor};
use p7_types::{
    seed_for, CoreId, CpmId, LastEval, MegaHertz, SplitMix64, Volts, CPMS_PER_CORE, CPMS_PER_SOCKET,
};
use serde::{Deserialize, Serialize};

/// All 40 CPMs of one chip.
///
/// Construction seeds per-core and per-CPM variation so that, as in the
/// paper's Fig. 6b, some cores' monitors track each other tightly while
/// others spread — "we attribute this behavior to process variation and CPM
/// calibration error".
///
/// # Examples
///
/// ```
/// use p7_sensors::CpmBank;
/// use p7_types::{CoreId, MegaHertz, Volts};
///
/// let bank = CpmBank::with_seed(42);
/// let margins = [Volts::from_millivolts(80.0); 8];
/// let freqs = [MegaHertz(4200.0); 8];
/// let worst = bank.core_min_readings(&margins, &freqs);
/// assert!(worst[0].value() <= 11);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpmBank {
    monitors: Vec<CriticalPathMonitor>,
}

impl CpmBank {
    /// Relative per-core spread of CPM sensitivity.
    const CORE_SENSITIVITY_SPREAD: f64 = 0.10;
    /// Relative per-CPM spread of sensitivity within a core.
    const CPM_SENSITIVITY_SPREAD: f64 = 0.06;
    /// Absolute per-CPM path-skew spread (mV).
    const SKEW_SPREAD_MV: f64 = 4.0;

    /// Builds a bank with process variation drawn from `seed`.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed_for(seed, "cpm-bank"));
        let mut monitors = Vec::with_capacity(40);
        for core in CoreId::all() {
            // Cores differ from each other more than CPMs within a core.
            let core_factor = 1.0 + Self::CORE_SENSITIVITY_SPREAD * rng.normal();
            for slot in 0..CPMS_PER_CORE as u8 {
                let id = CpmId::new(core, slot).expect("slot in range");
                let cpm_factor = 1.0 + Self::CPM_SENSITIVITY_SPREAD * rng.normal();
                let sensitivity =
                    CriticalPathMonitor::NOMINAL_SENSITIVITY_MV * core_factor * cpm_factor;
                let skew = Self::SKEW_SPREAD_MV * rng.normal();
                monitors.push(CriticalPathMonitor::with_variation(
                    id,
                    sensitivity.max(8.0),
                    skew,
                ));
            }
        }
        CpmBank { monitors }
    }

    /// Borrows one monitor.
    #[must_use]
    pub fn monitor(&self, id: CpmId) -> &CriticalPathMonitor {
        &self.monitors[id.flat_index()]
    }

    /// Mutably borrows one monitor (for calibration or fault injection).
    pub fn monitor_mut(&mut self, id: CpmId) -> &mut CriticalPathMonitor {
        &mut self.monitors[id.flat_index()]
    }

    /// Iterates over all 40 monitors in flat-index order.
    pub fn iter(&self) -> impl Iterator<Item = &CriticalPathMonitor> {
        self.monitors.iter()
    }

    /// Reads every monitor given each core's margin and frequency.
    ///
    /// Returns a fixed array (flat-index order) so the per-tick sampling
    /// path never touches the heap.
    #[must_use]
    pub fn read_all(
        &self,
        core_margins: &[Volts; 8],
        core_freqs: &[MegaHertz; 8],
    ) -> [CpmReading; CPMS_PER_SOCKET] {
        let mut out = [CpmReading::MAX; CPMS_PER_SOCKET];
        for (slot, m) in out.iter_mut().zip(&self.monitors) {
            let c = m.id().core().index();
            *slot = m.read(core_margins[c], core_freqs[c]);
        }
        out
    }

    /// One firmware window's complete readout in a single pass over the
    /// bank: sample-mode and sticky-mode readings for every monitor plus
    /// each core's worst sample reading.
    ///
    /// Equivalent to two [`CpmBank::read_all`] calls and one
    /// [`CpmBank::core_min_readings`] call (bit for bit), but the
    /// sensitivity's frequency factor is evaluated once per core, where
    /// the separate passes evaluate it three times per monitor — this is
    /// the tick hot path's entry point.
    #[must_use]
    pub fn read_window(
        &self,
        sample_margins: &[Volts; 8],
        sticky_margins: &[Volts; 8],
        core_freqs: &[MegaHertz; 8],
    ) -> WindowReadout {
        let mut out = WindowReadout {
            sample: [CpmReading::MAX; CPMS_PER_SOCKET],
            sticky: [CpmReading::MAX; CPMS_PER_SOCKET],
            core_min: [CpmReading::MAX; 8],
        };
        // Each core's frequency factor, keyed by the monitor's peak
        // frequency. Every monitor `with_seed` builds shares one peak, so
        // this is one evaluation per core; another peak gets its own.
        let mut scales = [LastEval::default(); 8];
        for (i, m) in self.monitors.iter().enumerate() {
            let c = m.id().core().index();
            let scale = scales[c].get_or_eval(m.peak_frequency().0, |peak| {
                frequency_scale(core_freqs[c], MegaHertz(peak))
            });
            let (sample, sticky) = m.read_pair(sample_margins[c], sticky_margins[c], scale);
            out.sample[i] = sample;
            out.sticky[i] = sticky;
            if sample < out.core_min[c] {
                out.core_min[c] = sample;
            }
        }
        out
    }

    /// The worst (lowest) reading in each core — the value the per-core
    /// DPLL compares against the calibration point every cycle (Sec. 2.2).
    #[must_use]
    pub fn core_min_readings(
        &self,
        core_margins: &[Volts; 8],
        core_freqs: &[MegaHertz; 8],
    ) -> [CpmReading; 8] {
        let mut out = [CpmReading::MAX; 8];
        for m in &self.monitors {
            let c = m.id().core().index();
            let r = m.read(core_margins[c], core_freqs[c]);
            if r < out[c] {
                out[c] = r;
            }
        }
        out
    }

    /// Clears any injected stuck-at faults, restoring healthy monitors.
    pub fn clear_stuck_faults(&mut self) {
        for m in &mut self.monitors {
            m.set_stuck_at(None);
        }
    }

    /// Calibrates every monitor so that margin `margin` reads `target` at
    /// frequency `f` (the firmware's calibration step).
    pub fn calibrate_all(&mut self, margin: Volts, f: MegaHertz, target: CpmReading) {
        for m in &mut self.monitors {
            m.calibrate(margin, f, target);
        }
    }

    /// Mean mV-per-tap sensitivity across the bank at frequency `f`.
    #[must_use]
    pub fn mean_sensitivity(&self, f: MegaHertz) -> Volts {
        let sum: Volts = self.monitors.iter().map(|m| m.sensitivity_at(f)).sum();
        sum / self.monitors.len() as f64
    }
}

/// One firmware window's complete CPM readout, produced by
/// [`CpmBank::read_window`]. Fixed arrays throughout: building one never
/// touches the heap.
#[derive(Debug, Clone)]
pub struct WindowReadout {
    /// Sample-mode readings (40, flat-indexed).
    pub sample: [CpmReading; CPMS_PER_SOCKET],
    /// Sticky-mode readings (40, flat-indexed).
    pub sticky: [CpmReading; CPMS_PER_SOCKET],
    /// The worst sample-mode reading of each core.
    pub core_min: [CpmReading; 8],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_has_forty_monitors() {
        let bank = CpmBank::with_seed(1);
        assert_eq!(bank.iter().count(), 40);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = CpmBank::with_seed(5);
        let b = CpmBank::with_seed(5);
        assert_eq!(a, b);
        let c = CpmBank::with_seed(6);
        assert_ne!(a, c);
    }

    #[test]
    fn variation_exists_but_is_bounded() {
        let bank = CpmBank::with_seed(7);
        let f = MegaHertz(4200.0);
        let sens: Vec<f64> = bank
            .iter()
            .map(|m| m.sensitivity_at(f).millivolts())
            .collect();
        let min = sens.iter().cloned().fold(f64::MAX, f64::min);
        let max = sens.iter().cloned().fold(f64::MIN, f64::max);
        assert!(min < max, "no variation present");
        assert!(min > 10.0, "min sensitivity degenerate: {min}");
        assert!(max < 35.0, "max sensitivity excessive: {max}");
        // The bank mean should stay near the nominal 21 mV/tap.
        let mean = bank.mean_sensitivity(f).millivolts();
        assert!((18.0..24.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn read_window_matches_the_three_separate_passes() {
        // The fused single-pass readout must be bit-identical to the
        // separate sample/sticky/core-min reads it replaces — including
        // through a stuck-at fault, which must show up in all three
        // views.
        let mut bank = CpmBank::with_seed(13);
        let stuck = CpmId::new(CoreId::new(3).unwrap(), 1).unwrap();
        bank.monitor_mut(stuck).set_stuck_at(CpmReading::new(0));
        let sample_margins: [Volts; 8] =
            std::array::from_fn(|i| Volts::from_millivolts(40.0 + 7.0 * i as f64));
        let sticky_margins: [Volts; 8] =
            std::array::from_fn(|i| sample_margins[i] - Volts::from_millivolts(15.0));
        let freqs: [MegaHertz; 8] = std::array::from_fn(|i| MegaHertz(3600.0 + 80.0 * i as f64));

        let fused = bank.read_window(&sample_margins, &sticky_margins, &freqs);
        assert_eq!(fused.sample, bank.read_all(&sample_margins, &freqs));
        assert_eq!(fused.sticky, bank.read_all(&sticky_margins, &freqs));
        assert_eq!(
            fused.core_min,
            bank.core_min_readings(&sample_margins, &freqs)
        );
    }

    #[test]
    fn read_window_keys_the_frequency_factor_by_each_monitors_peak() {
        // A bank read back from JSON can hold a monitor with another
        // peak frequency; the per-core factor must not be reused for it.
        let text = serde::json::to_string(&CpmBank::with_seed(21));
        let peak = "\"peak_frequency\":4200.0";
        assert!(text.contains(peak), "{text}");
        let skewed = text.replacen(peak, "\"peak_frequency\":3900.0", 1);
        let bank: CpmBank = serde::json::from_str(&skewed).unwrap();
        let margins: [Volts; 8] =
            std::array::from_fn(|i| Volts::from_millivolts(35.0 + 9.0 * i as f64));
        let freqs: [MegaHertz; 8] = std::array::from_fn(|i| MegaHertz(3650.0 + 70.0 * i as f64));
        let fused = bank.read_window(&margins, &margins, &freqs);
        assert_eq!(fused.sample, bank.read_all(&margins, &freqs));
        assert_ne!(
            fused.sample,
            CpmBank::with_seed(21).read_all(&margins, &freqs),
            "the skewed monitor reads differently"
        );
    }

    #[test]
    fn core_min_is_at_most_every_member() {
        let bank = CpmBank::with_seed(11);
        let margins = [Volts::from_millivolts(90.0); 8];
        let freqs = [MegaHertz(4200.0); 8];
        let mins = bank.core_min_readings(&margins, &freqs);
        for m in bank.iter() {
            let c = m.id().core().index();
            assert!(mins[c] <= m.read(margins[c], freqs[c]));
        }
    }

    #[test]
    fn calibration_brings_all_cores_to_target() {
        let mut bank = CpmBank::with_seed(3);
        let f = MegaHertz(4200.0);
        let margin = Volts::from_millivolts(75.0);
        let target = CpmReading::new(2).unwrap();
        bank.calibrate_all(margin, f, target);
        let mins = bank.core_min_readings(&[margin; 8], &[f; 8]);
        for r in mins {
            assert_eq!(r, target);
        }
    }

    #[test]
    fn read_all_matches_individual_reads() {
        let bank = CpmBank::with_seed(9);
        let margins = [Volts::from_millivolts(60.0); 8];
        let freqs = [MegaHertz(4000.0); 8];
        let all = bank.read_all(&margins, &freqs);
        for (i, m) in bank.iter().enumerate() {
            let c = m.id().core().index();
            assert_eq!(all[i], m.read(margins[c], freqs[c]));
        }
    }

    #[test]
    fn fault_injection_changes_core_min() {
        let mut bank = CpmBank::with_seed(13);
        let margin = Volts::from_millivolts(120.0);
        let f = MegaHertz(4200.0);
        bank.calibrate_all(margin, f, CpmReading::new(6).unwrap());
        let id = CpmId::new(CoreId::new(4).unwrap(), 0).unwrap();
        bank.monitor_mut(id).set_stuck_at(CpmReading::new(0));
        let mins = bank.core_min_readings(&[margin; 8], &[f; 8]);
        assert_eq!(mins[4], CpmReading::MIN);
        assert_eq!(mins[3], CpmReading::new(6).unwrap());
    }
}
