//! A single critical path monitor.

use p7_types::{CpmId, MegaHertz, Volts};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of edge-detector positions in a POWER7+ CPM.
pub const CPM_TAPS: u8 = 12;

/// The output of one CPM read: an edge-detector tap index in `0..=11`.
///
/// Lower values mean less timing margin; during calibrated adaptive
/// guardbanding operation the readings hover around 2.
///
/// # Examples
///
/// ```
/// use p7_sensors::CpmReading;
///
/// let r = CpmReading::new(5).unwrap();
/// assert_eq!(r.value(), 5);
/// assert!(CpmReading::new(12).is_none());
/// assert!(CpmReading::new(0).unwrap() < r);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct CpmReading(u8);

impl CpmReading {
    /// The lowest possible reading (no margin left).
    pub const MIN: CpmReading = CpmReading(0);
    /// The highest possible reading (edge traversed the full detector).
    pub const MAX: CpmReading = CpmReading(CPM_TAPS - 1);

    /// Creates a reading, returning `None` when out of the 0..=11 range.
    #[must_use]
    pub fn new(value: u8) -> Option<Self> {
        (value < CPM_TAPS).then_some(CpmReading(value))
    }

    /// Creates a reading by clamping an arbitrary tap estimate, rounding
    /// half away from zero like [`f64::round`]: NaN and anything ≤ 0 read
    /// 0, anything ≥ 11 reads 11.
    #[must_use]
    pub fn saturating(value: f64) -> Self {
        // Clamp first, then round without libm: on [0, 11] the fraction
        // `clamped - whole` is exact (Sterbenz: for whole ≥ 1,
        // whole ≤ clamped < 2·whole), so testing it against one half
        // rounds exactly as `round` does. The clamp is
        // `value.max(0.0).min(11.0)` (NaN fails `> 0` and becomes 0)
        // written as comparisons, which a bank's rounding pass compiles
        // to packed `maxpd` and `cmpltpd`.
        let top = f64::from(CPM_TAPS - 1);
        let floored = if value > 0.0 { value } else { 0.0 };
        let clamped = if floored < top { floored } else { top };
        let whole = clamped as i32;
        let up = i32::from(clamped - f64::from(whole) >= 0.5);
        CpmReading((whole + up) as u8)
    }

    /// The raw tap index.
    #[must_use]
    pub fn value(self) -> u8 {
        self.0
    }
}

impl fmt::Display for CpmReading {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One critical path monitor.
///
/// The transfer function is linear in the available timing margin:
/// `tap = zero_margin_tap + (margin − path_skew) / sensitivity(f)`, clamped
/// to the 12-tap detector. Sensitivity (mV per tap) shrinks at lower
/// frequency because a longer cycle leaves more absolute slack per tap —
/// the spread of lines in the paper's Fig. 6b.
///
/// # Examples
///
/// ```
/// use p7_sensors::CriticalPathMonitor;
/// use p7_types::{CoreId, CpmId, MegaHertz, Volts};
///
/// let id = CpmId::new(CoreId::new(0).unwrap(), 0).unwrap();
/// let cpm = CriticalPathMonitor::nominal(id);
/// let low = cpm.read(Volts::from_millivolts(40.0), MegaHertz(4200.0));
/// let high = cpm.read(Volts::from_millivolts(120.0), MegaHertz(4200.0));
/// assert!(high > low);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathMonitor {
    id: CpmId,
    /// mV of margin per tap at the peak frequency.
    peak_sensitivity: Volts,
    /// Frequency at which `peak_sensitivity` applies.
    peak_frequency: MegaHertz,
    /// Tap the detector reads at exactly zero margin.
    zero_margin_tap: f64,
    /// Per-CPM critical-path bias from process variation.
    path_skew: Volts,
    /// Failure injection: a stuck detector always returns this value.
    stuck_at: Option<CpmReading>,
}

impl CriticalPathMonitor {
    /// The paper's average sensitivity: ~21 mV per tap at 4.2 GHz.
    pub const NOMINAL_SENSITIVITY_MV: f64 = 21.0;
    /// The clock at which a monitor's peak sensitivity applies.
    pub(crate) const PEAK_FREQUENCY: MegaHertz = MegaHertz(4200.0);

    /// Creates a monitor with nominal (variation-free) parameters.
    #[must_use]
    pub fn nominal(id: CpmId) -> Self {
        CriticalPathMonitor::with_variation(id, Self::NOMINAL_SENSITIVITY_MV, 0.0)
    }

    /// Creates a monitor with explicit process-variation parameters.
    ///
    /// `sensitivity_mv` is the mV-per-tap at peak frequency; `skew_mv`
    /// biases where the synthetic paths sit relative to the true critical
    /// path.
    #[must_use]
    pub fn with_variation(id: CpmId, sensitivity_mv: f64, skew_mv: f64) -> Self {
        CriticalPathMonitor {
            id,
            peak_sensitivity: Volts::from_millivolts(sensitivity_mv.max(1.0)),
            peak_frequency: Self::PEAK_FREQUENCY,
            zero_margin_tap: 0.0,
            path_skew: Volts::from_millivolts(skew_mv),
            stuck_at: None,
        }
    }

    /// Reassembles a monitor from a bank's planes, at the bank-wide
    /// [`CriticalPathMonitor::PEAK_FREQUENCY`].
    pub(crate) fn from_parts(
        id: CpmId,
        peak_sensitivity: Volts,
        zero_margin_tap: f64,
        path_skew: Volts,
        stuck_at: Option<CpmReading>,
    ) -> Self {
        CriticalPathMonitor {
            id,
            peak_sensitivity,
            peak_frequency: Self::PEAK_FREQUENCY,
            zero_margin_tap,
            path_skew,
            stuck_at,
        }
    }

    /// The mV-per-tap sensitivity at the peak frequency.
    pub(crate) fn peak_sensitivity(&self) -> Volts {
        self.peak_sensitivity
    }

    /// Per-CPM critical-path bias from process variation.
    pub(crate) fn path_skew(&self) -> Volts {
        self.path_skew
    }

    /// This monitor's identifier.
    #[must_use]
    pub fn id(&self) -> CpmId {
        self.id
    }

    /// The mV-per-tap sensitivity at clock frequency `f`.
    ///
    /// Calibrated to the paper's Fig. 6b: ~21 mV/tap at 4.2 GHz shrinking
    /// toward ~11 mV/tap at 3.6 GHz.
    #[must_use]
    pub fn sensitivity_at(&self, f: MegaHertz) -> Volts {
        self.peak_sensitivity * frequency_scale(f, self.peak_frequency)
    }

    /// Reads the detector for a given timing margin at frequency `f`.
    ///
    /// `margin` is the voltage slack above the minimum the circuit needs at
    /// `f`; the caller (the chip model) computes it from the on-chip
    /// voltage and the frequency–voltage curve.
    #[must_use]
    pub fn read(&self, margin: Volts, f: MegaHertz) -> CpmReading {
        if let Some(stuck) = self.stuck_at {
            return stuck;
        }
        let taps = self.zero_margin_tap + (margin - self.path_skew) / self.sensitivity_at(f);
        CpmReading::saturating(taps)
    }

    /// Shifts the zero-margin tap so that `margin` reads `target` at `f`
    /// (guardband calibration, Sec. 2.2).
    pub fn calibrate(&mut self, margin: Volts, f: MegaHertz, target: CpmReading) {
        self.zero_margin_tap =
            f64::from(target.value()) - (margin - self.path_skew) / self.sensitivity_at(f);
    }

    /// Forces the detector to a fixed output (failure injection), or clears
    /// the fault with `None`.
    pub fn set_stuck_at(&mut self, reading: Option<CpmReading>) {
        self.stuck_at = reading;
    }
}

/// The frequency factor of [`CriticalPathMonitor::sensitivity_at`]: the
/// clock over the peak frequency, clamped to `0.3..=1.3`, to the fourth.
pub(crate) fn frequency_scale(f: MegaHertz, peak: MegaHertz) -> f64 {
    (f.0 / peak.0).clamp(0.3, 1.3).powi(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p7_types::CoreId;

    fn cpm() -> CriticalPathMonitor {
        let id = CpmId::new(CoreId::new(0).unwrap(), 0).unwrap();
        CriticalPathMonitor::nominal(id)
    }

    #[test]
    fn reading_bounds() {
        assert!(CpmReading::new(11).is_some());
        assert!(CpmReading::new(12).is_none());
        assert_eq!(CpmReading::saturating(-3.0), CpmReading::MIN);
        assert_eq!(CpmReading::saturating(40.0), CpmReading::MAX);
        assert_eq!(CpmReading::saturating(f64::NAN), CpmReading::MIN);
        assert_eq!(CpmReading::saturating(4.4).value(), 4);
    }

    #[test]
    fn monotone_in_margin() {
        let c = cpm();
        let f = MegaHertz(4200.0);
        let mut last = CpmReading::MIN;
        for mv in (0..240).step_by(20) {
            let r = c.read(Volts::from_millivolts(f64::from(mv)), f);
            assert!(r >= last, "margin {mv} mV read {r}");
            last = r;
        }
    }

    #[test]
    fn one_tap_is_about_21mv_at_peak() {
        let c = cpm();
        let f = MegaHertz(4200.0);
        let r0 = c.read(Volts::from_millivolts(42.0), f);
        let r1 = c.read(Volts::from_millivolts(63.0), f);
        assert_eq!(i16::from(r1.value()) - i16::from(r0.value()), 1);
    }

    #[test]
    fn sensitivity_shrinks_at_lower_frequency() {
        let c = cpm();
        let hi = c.sensitivity_at(MegaHertz(4200.0));
        let lo = c.sensitivity_at(MegaHertz(3600.0));
        assert!(lo < hi);
        // Fig. 6b scale: ~11–13 mV at 3.6 GHz, ~21 mV at 4.2 GHz.
        assert!((hi.millivolts() - 21.0).abs() < 0.5, "hi {hi}");
        assert!((9.0..15.0).contains(&lo.millivolts()), "lo {lo}");
    }

    #[test]
    fn higher_frequency_reads_lower_at_fixed_voltage() {
        // Fig. 6a: at a fixed supply voltage, raising frequency shrinks
        // margin and therefore the CPM value. Margin itself is computed by
        // the chip model; here we emulate it with a simple linear curve.
        let c = cpm();
        let v = Volts(1.15);
        let margin = |f: MegaHertz| v - Volts(0.47 + f.0 / 5800.0); // v_circuit
        let slow = c.read(margin(MegaHertz(3600.0)), MegaHertz(3600.0));
        let fast = c.read(margin(MegaHertz(4200.0)), MegaHertz(4200.0));
        assert!(slow > fast);
    }

    #[test]
    fn calibration_hits_target() {
        let mut c = cpm();
        let f = MegaHertz(4200.0);
        let margin = Volts::from_millivolts(80.0);
        let target = CpmReading::new(2).unwrap();
        c.calibrate(margin, f, target);
        assert_eq!(c.read(margin, f), target);
        // One tap above the calibrated margin reads one higher.
        let above = margin + c.sensitivity_at(f);
        assert_eq!(c.read(above, f).value(), 3);
    }

    #[test]
    fn skew_shifts_readings() {
        let id = CpmId::new(CoreId::new(1).unwrap(), 2).unwrap();
        let skewed = CriticalPathMonitor::with_variation(id, 21.0, 25.0);
        let plain = CriticalPathMonitor::with_variation(id, 21.0, 0.0);
        let f = MegaHertz(4200.0);
        let m = Volts::from_millivolts(100.0);
        assert!(skewed.read(m, f) < plain.read(m, f));
    }

    #[test]
    fn stuck_fault_dominates() {
        let mut c = cpm();
        c.set_stuck_at(CpmReading::new(7));
        let f = MegaHertz(4200.0);
        assert_eq!(c.read(Volts::ZERO, f).value(), 7);
        assert_eq!(c.read(Volts(0.3), f).value(), 7);
        c.set_stuck_at(None);
        assert_ne!(c.read(Volts::ZERO, f).value(), 7);
    }

    #[test]
    fn sensitivity_is_the_peak_times_the_frequency_factor() {
        // The factor the bank evaluates once per core is exactly today's
        // expression, across the clamp on both sides.
        let id = CpmId::new(CoreId::new(2).unwrap(), 3).unwrap();
        let c = CriticalPathMonitor::with_variation(id, 19.3, 1.5);
        for fmhz in [
            0.0, 900.0, 1260.0, 3000.0, 3600.0, 4199.9, 4200.0, 5460.0, 9000.0,
        ] {
            let f = MegaHertz(fmhz);
            let ratio = (f.0 / c.peak_frequency.0).clamp(0.3, 1.3);
            let expected = c.peak_sensitivity * ratio.powi(4);
            assert_eq!(
                c.sensitivity_at(f).0.to_bits(),
                expected.0.to_bits(),
                "{fmhz}"
            );
        }
    }

    #[test]
    fn sensitivity_never_degenerates() {
        let id = CpmId::new(CoreId::new(0).unwrap(), 1).unwrap();
        let c = CriticalPathMonitor::with_variation(id, 0.0, 0.0);
        assert!(c.sensitivity_at(MegaHertz(4200.0)).0 > 0.0);
    }
}
