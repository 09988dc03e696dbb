//! The chip-wide array of 40 CPMs with seeded process variation.

use crate::cpm::{frequency_scale, CpmReading, CriticalPathMonitor};
use p7_types::{
    seed_for, CoreId, CpmId, MegaHertz, SplitMix64, Volts, CORES_PER_SOCKET, CPMS_PER_CORE,
    CPMS_PER_SOCKET,
};

/// All 40 CPMs of one chip.
///
/// Construction seeds per-core and per-CPM variation so that, as in the
/// paper's Fig. 6b, some cores' monitors track each other tightly while
/// others spread — "we attribute this behavior to process variation and CPM
/// calibration error".
///
/// The bank stores its monitors as planes, one `[f64; 40]` per parameter
/// in flat-index order (core-major), with one bank-wide peak frequency
/// and the stuck-at faults as a bit mask plus values. A readout divides
/// every monitor in one pass and rounds in a second, so both passes
/// compile to packed vector code; [`CpmBank::monitor`] reassembles a
/// [`CriticalPathMonitor`] whose [`CriticalPathMonitor::read`] agrees
/// with the bank's readout bit for bit.
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
#[derive(Debug, Clone, PartialEq)]
pub struct CpmBank {
    /// Each monitor's volts per tap at [`CriticalPathMonitor::PEAK_FREQUENCY`].
    peak_sensitivity: [f64; CPMS_PER_SOCKET],
    /// Each monitor's tap at exactly zero margin (moved by calibration).
    zero_margin_tap: [f64; CPMS_PER_SOCKET],
    /// Each monitor's critical-path bias, in volts.
    path_skew: [f64; CPMS_PER_SOCKET],
    /// Bit `i` set: monitor `i` is stuck at `stuck_at[i]`.
    stuck_mask: u64,
    /// Stuck values; [`CpmReading::MIN`] wherever the mask bit is clear.
    stuck_at: [CpmReading; CPMS_PER_SOCKET],
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
        let mut bank = CpmBank {
            peak_sensitivity: [0.0; CPMS_PER_SOCKET],
            zero_margin_tap: [0.0; CPMS_PER_SOCKET],
            path_skew: [0.0; CPMS_PER_SOCKET],
            stuck_mask: 0,
            stuck_at: [CpmReading::MIN; CPMS_PER_SOCKET],
        };
        for core in CoreId::all() {
            // Cores differ from each other more than CPMs within a core.
            let core_factor = 1.0 + Self::CORE_SENSITIVITY_SPREAD * rng.normal();
            for slot in 0..CPMS_PER_CORE as u8 {
                let id = CpmId::new(core, slot).expect("slot in range");
                let cpm_factor = 1.0 + Self::CPM_SENSITIVITY_SPREAD * rng.normal();
                let sensitivity =
                    CriticalPathMonitor::NOMINAL_SENSITIVITY_MV * core_factor * cpm_factor;
                let skew = Self::SKEW_SPREAD_MV * rng.normal();
                let monitor = CriticalPathMonitor::with_variation(id, sensitivity.max(8.0), skew);
                let i = id.flat_index();
                bank.peak_sensitivity[i] = monitor.peak_sensitivity().0;
                bank.path_skew[i] = monitor.path_skew().0;
            }
        }
        bank
    }

    /// One monitor, reassembled from the planes.
    #[must_use]
    pub fn monitor(&self, id: CpmId) -> CriticalPathMonitor {
        let i = id.flat_index();
        CriticalPathMonitor::from_parts(
            id,
            Volts(self.peak_sensitivity[i]),
            self.zero_margin_tap[i],
            Volts(self.path_skew[i]),
            (self.stuck_mask & (1 << i) != 0).then_some(self.stuck_at[i]),
        )
    }

    /// Forces one monitor to a fixed output (fault injection), or clears
    /// its fault with `None`.
    pub fn set_stuck_at(&mut self, id: CpmId, reading: Option<CpmReading>) {
        let i = id.flat_index();
        self.stuck_mask = (self.stuck_mask & !(1 << i)) | (u64::from(reading.is_some()) << i);
        self.stuck_at[i] = reading.unwrap_or(CpmReading::MIN);
    }

    /// Iterates over all 40 monitors in flat-index order.
    pub fn iter(&self) -> impl Iterator<Item = CriticalPathMonitor> + '_ {
        CpmId::all().map(|id| self.monitor(id))
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
        let [readings] = self.read_planes([core_margins], core_freqs);
        readings
    }

    /// One firmware window's complete readout: sample-mode and
    /// sticky-mode readings for every monitor plus each core's worst
    /// sample reading.
    ///
    /// Equivalent to two [`CpmBank::read_all`] calls and one
    /// [`CpmBank::core_min_readings`] call (bit for bit), but both margin
    /// sets go through one pass of the kernel, so each monitor's
    /// sensitivity is computed once — this is the tick hot path's entry
    /// point.
    #[must_use]
    pub fn read_window(
        &self,
        sample_margins: &[Volts; 8],
        sticky_margins: &[Volts; 8],
        core_freqs: &[MegaHertz; 8],
    ) -> WindowReadout {
        let [sample, sticky] = self.read_planes([sample_margins, sticky_margins], core_freqs);
        WindowReadout {
            core_min: core_minima(&sample),
            sample,
            sticky,
        }
    }

    /// The worst (lowest) reading in each core — the value the per-core
    /// DPLL compares against the calibration point every cycle (Sec. 2.2).
    #[must_use]
    pub fn core_min_readings(
        &self,
        core_margins: &[Volts; 8],
        core_freqs: &[MegaHertz; 8],
    ) -> [CpmReading; 8] {
        core_minima(&self.read_all(core_margins, core_freqs))
    }

    /// The readout kernel: every monitor's reading at its core's margin,
    /// for each of `K` margin sets at one set of clocks. The frequency
    /// factor is evaluated once per core; one pass divides, with
    /// [`CriticalPathMonitor::read`]'s expression, and a second rounds by
    /// [`CpmReading::saturating`], so both compile to packed vector code.
    /// Stuck monitors are then overridden, before any caller takes a
    /// per-core minimum.
    fn read_planes<const K: usize>(
        &self,
        core_margins: [&[Volts; 8]; K],
        core_freqs: &[MegaHertz; 8],
    ) -> [[CpmReading; CPMS_PER_SOCKET]; K] {
        // Per-core inputs spread to one lane per monitor.
        let mut scale = [0.0; CPMS_PER_SOCKET];
        let mut margin = [[0.0; CPMS_PER_SOCKET]; K];
        for c in 0..CORES_PER_SOCKET {
            let lanes = c * CPMS_PER_CORE..(c + 1) * CPMS_PER_CORE;
            scale[lanes.clone()].fill(frequency_scale(
                core_freqs[c],
                CriticalPathMonitor::PEAK_FREQUENCY,
            ));
            for (plane, margins) in margin.iter_mut().zip(&core_margins) {
                plane[lanes.clone()].fill(margins[c].0);
            }
        }
        let mut sensitivity = [0.0; CPMS_PER_SOCKET];
        for i in 0..CPMS_PER_SOCKET {
            sensitivity[i] = self.peak_sensitivity[i] * scale[i];
        }
        let mut taps = [[0.0; CPMS_PER_SOCKET]; K];
        for (plane, m) in taps.iter_mut().zip(&margin) {
            for i in 0..CPMS_PER_SOCKET {
                plane[i] = self.zero_margin_tap[i] + (m[i] - self.path_skew[i]) / sensitivity[i];
            }
        }
        let mut out = [[CpmReading::MAX; CPMS_PER_SOCKET]; K];
        for (reading, &t) in out.as_flattened_mut().iter_mut().zip(taps.as_flattened()) {
            *reading = CpmReading::saturating(t);
        }
        let mut stuck = self.stuck_mask;
        while stuck != 0 {
            let i = stuck.trailing_zeros() as usize;
            for plane in &mut out {
                plane[i] = self.stuck_at[i];
            }
            stuck &= stuck - 1;
        }
        out
    }

    /// Clears any injected stuck-at faults, restoring healthy monitors.
    pub fn clear_stuck_faults(&mut self) {
        self.stuck_mask = 0;
        self.stuck_at = [CpmReading::MIN; CPMS_PER_SOCKET];
    }

    /// Calibrates every monitor so that margin `margin` reads `target` at
    /// frequency `f` (the firmware's calibration step), exactly as
    /// [`CriticalPathMonitor::calibrate`] does for one monitor.
    pub fn calibrate_all(&mut self, margin: Volts, f: MegaHertz, target: CpmReading) {
        let scale = frequency_scale(f, CriticalPathMonitor::PEAK_FREQUENCY);
        for i in 0..CPMS_PER_SOCKET {
            let sensitivity = Volts(self.peak_sensitivity[i]) * scale;
            self.zero_margin_tap[i] =
                f64::from(target.value()) - (margin - Volts(self.path_skew[i])) / sensitivity;
        }
    }

    /// Mean mV-per-tap sensitivity across the bank at frequency `f`.
    #[must_use]
    pub fn mean_sensitivity(&self, f: MegaHertz) -> Volts {
        let scale = frequency_scale(f, CriticalPathMonitor::PEAK_FREQUENCY);
        let sum: Volts = self
            .peak_sensitivity
            .iter()
            .map(|&s| Volts(s) * scale)
            .sum();
        sum / CPMS_PER_SOCKET as f64
    }
}

/// Each core's lowest reading in a flat-indexed bank readout.
fn core_minima(readings: &[CpmReading; CPMS_PER_SOCKET]) -> [CpmReading; CORES_PER_SOCKET] {
    std::array::from_fn(|c| {
        readings[c * CPMS_PER_CORE..(c + 1) * CPMS_PER_CORE]
            .iter()
            .copied()
            .min()
            .expect("five monitors per core")
    })
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
    use proptest::prelude::*;

    /// One core's margin in [`planar_readout_matches_every_monitors_own_read`]:
    /// `(kind, slot, k, ulp, mv)`. Kinds 0–1 are `mv` millivolts; 2–4
    /// put monitor `slot` of the core at `k + ½` taps, nudged by
    /// `ulp − 1` ulps; 5, 6 and 7 are NaN, +∞ and −∞.
    type MarginSpec = (u8, usize, u8, u8, f64);

    fn margin(bank: &CpmBank, core: usize, f: MegaHertz, spec: MarginSpec) -> Volts {
        let (kind, slot, k, ulp, mv) = spec;
        Volts(match kind {
            0 | 1 => mv / 1000.0,
            2..=4 => {
                // tap = zero + (margin − skew) / s, solved for the margin.
                let i = core * CPMS_PER_CORE + slot;
                let s = bank.peak_sensitivity[i]
                    * frequency_scale(f, CriticalPathMonitor::PEAK_FREQUENCY);
                let m = bank.path_skew[i] + (f64::from(k) + 0.5 - bank.zero_margin_tap[i]) * s;
                match ulp {
                    0 => m.next_down(),
                    1 => m,
                    _ => m.next_up(),
                }
            }
            5 => f64::NAN,
            6 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        })
    }

    fn margin_spec() -> impl Strategy<Value = MarginSpec> {
        (0u8..8, 0..CPMS_PER_CORE, 0u8..11, 0u8..3, -20.0f64..140.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn planar_readout_matches_every_monitors_own_read(
            seed in 0u64..1_000,
            calibrate_mv in prop_oneof![Just(None), (20.0f64..150.0).prop_map(Some)],
            sample_specs in prop::array::uniform8(margin_spec()),
            sticky_specs in prop::array::uniform8(margin_spec()),
            // Both edges of the frequency factor's 0.3..=1.3 clamp
            // (1260 and 5460 MHz), exactly and on either side.
            mhz in prop::array::uniform8(prop_oneof![
                Just(1260.0),
                Just(5460.0),
                1000.0f64..1600.0,
                3400.0f64..4700.0,
                5200.0f64..5800.0,
            ]),
            stuck_mask in prop_oneof![
                Just(0u64),
                0u64..(1 << CPMS_PER_SOCKET),
                (0u64..(1 << CPMS_PER_SOCKET), 0u64..(1 << CPMS_PER_SOCKET))
                    .prop_map(|(a, b)| a & b),
            ],
            stuck_taps in prop::collection::vec(0u8..12, CPMS_PER_SOCKET..CPMS_PER_SOCKET + 1),
        ) {
            let mut bank = CpmBank::with_seed(seed);
            if let Some(mv) = calibrate_mv {
                bank.calibrate_all(
                    Volts::from_millivolts(mv),
                    MegaHertz(4200.0),
                    CpmReading::new(2).unwrap(),
                );
            }
            let ids: Vec<CpmId> = CpmId::all().collect();
            for (i, id) in ids.iter().enumerate() {
                if stuck_mask & (1 << i) != 0 {
                    bank.set_stuck_at(*id, CpmReading::new(stuck_taps[i]));
                }
            }
            let freqs = mhz.map(MegaHertz);
            let sample: [Volts; 8] =
                std::array::from_fn(|c| margin(&bank, c, freqs[c], sample_specs[c]));
            let sticky: [Volts; 8] =
                std::array::from_fn(|c| margin(&bank, c, freqs[c], sticky_specs[c]));

            let readout = bank.read_window(&sample, &sticky, &freqs);
            let mut core_min = [CpmReading::MAX; 8];
            for (i, id) in ids.iter().enumerate() {
                let c = id.core().index();
                let monitor = bank.monitor(*id);
                let own = monitor.read(sample[c], freqs[c]);
                prop_assert_eq!(readout.sample[i], own, "sample, monitor {}", i);
                prop_assert_eq!(
                    readout.sticky[i],
                    monitor.read(sticky[c], freqs[c]),
                    "sticky, monitor {}",
                    i
                );
                core_min[c] = core_min[c].min(own);
            }
            prop_assert_eq!(readout.core_min, core_min);
        }
    }

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
        bank.set_stuck_at(stuck, CpmReading::new(0));
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
        bank.set_stuck_at(id, CpmReading::new(0));
        let mins = bank.core_min_readings(&[margin; 8], &[f; 8]);
        assert_eq!(mins[4], CpmReading::MIN);
        assert_eq!(mins[3], CpmReading::new(6).unwrap());
    }
}
