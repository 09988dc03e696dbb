//! Guardband calibration of the CPM bank.
//!
//! During bring-up, POWER7+ calibrates every CPM to output a target value
//! at the calibrated operating point (Sec. 2.2). At runtime, readings below
//! the target mean the margin has shrunk; above, it has grown. This module
//! wraps [`CpmBank::calibrate_all`](crate::bank::CpmBank::calibrate_all)
//! with verification and a report of residual calibration error.

use crate::bank::CpmBank;
use crate::cpm::CpmReading;
use crate::error::SensorError;
use p7_types::{MegaHertz, Volts};
use serde::{Deserialize, Serialize};

/// The CPM value POWER7+ calibration servoes to (readings "typically hover
/// around an output value of 2 when adaptive guardbanding is active").
pub const CALIBRATION_TARGET: u8 = 2;

/// Result of a calibration pass over the whole bank.
///
/// # Examples
///
/// ```
/// use p7_sensors::{calibration, CpmBank};
/// use p7_types::{MegaHertz, Volts};
///
/// let mut bank = CpmBank::with_seed(42);
/// let report = calibration::calibrate_bank(
///     &mut bank,
///     Volts::from_millivolts(75.0),
///     MegaHertz(4200.0),
/// ).unwrap();
/// assert_eq!(report.worst_error_taps, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// The margin the bank was calibrated at.
    pub margin: Volts,
    /// The frequency the bank was calibrated at.
    pub frequency: MegaHertz,
    /// The target tap value.
    pub target: u8,
    /// Largest post-calibration deviation from the target, in taps.
    pub worst_error_taps: u8,
    /// Number of monitors that failed to reach the target exactly.
    pub miscalibrated: usize,
}

/// Calibrates every monitor of `bank` to read [`CALIBRATION_TARGET`] at the
/// given margin and frequency, then verifies the result.
///
/// # Errors
///
/// Returns [`SensorError::CalibrationFailed`] when any monitor ends more
/// than one tap away from the target — the situation real hardware guards
/// against with its residual guardband (stuck detectors, for instance,
/// cannot be calibrated).
pub fn calibrate_bank(
    bank: &mut CpmBank,
    margin: Volts,
    frequency: MegaHertz,
) -> Result<CalibrationReport, SensorError> {
    let target = CpmReading::new(CALIBRATION_TARGET).expect("target in range");
    bank.calibrate_all(margin, frequency, target);

    let mut worst = 0u8;
    let mut miscalibrated = 0usize;
    for monitor in bank.iter() {
        let got = monitor.read(margin, frequency);
        let err = got.value().abs_diff(target.value());
        if err > 0 {
            miscalibrated += 1;
        }
        worst = worst.max(err);
    }
    let report = CalibrationReport {
        margin,
        frequency,
        target: CALIBRATION_TARGET,
        worst_error_taps: worst,
        miscalibrated,
    };
    if worst > 1 {
        return Err(SensorError::CalibrationFailed {
            worst_error_taps: worst,
            miscalibrated,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p7_types::{CoreId, CpmId};

    #[test]
    fn clean_bank_calibrates_exactly() {
        let mut bank = CpmBank::with_seed(21);
        let report =
            calibrate_bank(&mut bank, Volts::from_millivolts(80.0), MegaHertz(4200.0)).unwrap();
        assert_eq!(report.worst_error_taps, 0);
        assert_eq!(report.miscalibrated, 0);
        assert_eq!(report.target, 2);
    }

    #[test]
    fn stuck_monitor_fails_calibration() {
        let mut bank = CpmBank::with_seed(22);
        let id = CpmId::new(CoreId::new(2).unwrap(), 3).unwrap();
        bank.set_stuck_at(id, CpmReading::new(9));
        let err =
            calibrate_bank(&mut bank, Volts::from_millivolts(80.0), MegaHertz(4200.0)).unwrap_err();
        match err {
            SensorError::CalibrationFailed {
                worst_error_taps,
                miscalibrated,
            } => {
                assert!(worst_error_taps >= 7);
                assert_eq!(miscalibrated, 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn calibrated_bank_reads_low_when_margin_shrinks() {
        let mut bank = CpmBank::with_seed(23);
        let margin = Volts::from_millivolts(80.0);
        let f = MegaHertz(4200.0);
        calibrate_bank(&mut bank, margin, f).unwrap();
        let shrunk = Volts::from_millivolts(30.0);
        let mins = bank.core_min_readings(&[shrunk; 8], &[f; 8]);
        for r in mins {
            assert!(r.value() < 2, "reading {r} should be below target");
        }
    }
}
