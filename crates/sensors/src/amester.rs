//! AMESTER-style telemetry facade.
//!
//! The paper reads CPMs through IBM's Automated Measurement of Systems for
//! Temperature and Energy Reporting (AMESTER) tool, which samples through
//! the service processor at a minimum interval of 32 ms in two modes
//! (Sec. 4.1):
//!
//! * **sample mode** — an instantaneous reading of each CPM, characterizing
//!   normal operation,
//! * **sticky mode** — the worst-case (smallest) output of each CPM over
//!   the past window, capturing the deepest droop.
//!
//! [`Amester`] records per-window snapshots pushed by the simulator and
//! exposes history queries the figure harnesses consume.

use crate::cpm::CpmReading;
use crate::error::SensorError;
use p7_types::{CpmId, Seconds, CPMS_PER_SOCKET};
use serde::{Deserialize, Serialize};

/// The service-processor minimum sampling interval.
pub const MIN_SAMPLE_INTERVAL: Seconds = Seconds(0.032);

/// One 32 ms telemetry window: both readout modes for all 40 CPMs.
///
/// Readings are fixed-size arrays so recording a window never allocates
/// (beyond the recorder's own reserved backing storage).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpmWindow {
    /// Window start time since experiment begin.
    pub timestamp: Seconds,
    /// Sample-mode (instantaneous) reading per CPM, flat-indexed.
    pub sample: [CpmReading; CPMS_PER_SOCKET],
    /// Sticky-mode (worst in window) reading per CPM, flat-indexed.
    pub sticky: [CpmReading; CPMS_PER_SOCKET],
}

impl CpmWindow {
    /// Sample-mode reading of one monitor.
    #[must_use]
    pub fn sample_of(&self, id: CpmId) -> CpmReading {
        self.sample[id.flat_index()]
    }

    /// Sticky-mode reading of one monitor.
    #[must_use]
    pub fn sticky_of(&self, id: CpmId) -> CpmReading {
        self.sticky[id.flat_index()]
    }
}

/// Telemetry recorder with AMESTER's interface restrictions.
///
/// # Examples
///
/// ```
/// use p7_sensors::{Amester, CpmReading};
/// use p7_types::Seconds;
///
/// let mut amester = Amester::new();
/// amester.record(
///     Seconds(0.0),
///     [CpmReading::new(5).unwrap(); 40],
///     [CpmReading::new(3).unwrap(); 40],
/// ).unwrap();
/// assert_eq!(amester.windows().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Amester {
    windows: Vec<CpmWindow>,
}

impl Amester {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Amester::default()
    }

    /// Creates an empty recorder with room for `windows` windows.
    #[must_use]
    pub fn with_capacity(windows: usize) -> Self {
        Amester {
            windows: Vec::with_capacity(windows),
        }
    }

    /// Ensures room for `additional` more windows without reallocating.
    ///
    /// Simulation drivers call this once per run so the per-tick
    /// [`Amester::record`] path never grows the backing storage.
    pub fn reserve(&mut self, additional: usize) {
        self.windows.reserve(additional);
    }

    /// Records one window of telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::SamplingTooFast`] when the window starts less
    /// than 32 ms after the previous one (the service-processor limit), and
    /// [`SensorError::MalformedWindow`] when a sticky value exceeds its
    /// sample value (a worst-case reading can never be larger than the
    /// instantaneous one).
    pub fn record(
        &mut self,
        timestamp: Seconds,
        sample: [CpmReading; CPMS_PER_SOCKET],
        sticky: [CpmReading; CPMS_PER_SOCKET],
    ) -> Result<(), SensorError> {
        if sticky.iter().zip(&sample).any(|(st, sa)| st > sa) {
            return Err(SensorError::MalformedWindow {
                reason: "sticky reading above sample reading",
            });
        }
        if let Some(last) = self.windows.last() {
            if (timestamp - last.timestamp).0 < MIN_SAMPLE_INTERVAL.0 - 1e-9 {
                return Err(SensorError::SamplingTooFast {
                    interval_ms: (timestamp - last.timestamp).millis(),
                });
            }
        }
        self.windows.push(CpmWindow {
            timestamp,
            sample,
            sticky,
        });
        Ok(())
    }

    /// All recorded windows in time order.
    #[must_use]
    pub fn windows(&self) -> &[CpmWindow] {
        &self.windows
    }

    /// The most recent window, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&CpmWindow> {
        self.windows.last()
    }

    /// Mean sample-mode reading of one monitor across all windows.
    #[must_use]
    pub fn mean_sample(&self, id: CpmId) -> Option<f64> {
        if self.windows.is_empty() {
            return None;
        }
        let sum: u32 = self
            .windows
            .iter()
            .map(|w| u32::from(w.sample_of(id).value()))
            .sum();
        Some(f64::from(sum) / self.windows.len() as f64)
    }

    /// Worst sticky-mode reading of one monitor across all windows.
    #[must_use]
    pub fn worst_sticky(&self, id: CpmId) -> Option<CpmReading> {
        self.windows.iter().map(|w| w.sticky_of(id)).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p7_types::CoreId;

    fn readings(v: u8) -> [CpmReading; CPMS_PER_SOCKET] {
        [CpmReading::new(v).unwrap(); CPMS_PER_SOCKET]
    }

    #[test]
    fn records_and_queries() {
        let mut a = Amester::new();
        a.record(Seconds(0.0), readings(6), readings(4)).unwrap();
        a.record(Seconds(0.032), readings(8), readings(2)).unwrap();
        let id = CpmId::new(CoreId::new(0).unwrap(), 0).unwrap();
        assert_eq!(a.windows().len(), 2);
        assert_eq!(a.mean_sample(id), Some(7.0));
        assert_eq!(a.worst_sticky(id).unwrap().value(), 2);
        assert_eq!(a.latest().unwrap().sample_of(id).value(), 8);
    }

    #[test]
    fn rejects_fast_sampling() {
        let mut a = Amester::new();
        a.record(Seconds(0.0), readings(5), readings(5)).unwrap();
        let err = a
            .record(Seconds(0.010), readings(5), readings(5))
            .unwrap_err();
        assert!(matches!(err, SensorError::SamplingTooFast { .. }));
    }

    #[test]
    fn rejects_sticky_above_sample() {
        let mut a = Amester::new();
        let err = a
            .record(Seconds(0.0), readings(3), readings(5))
            .unwrap_err();
        assert!(matches!(err, SensorError::MalformedWindow { .. }));
    }

    #[test]
    fn empty_recorder_returns_none() {
        let a = Amester::new();
        let id = CpmId::new(CoreId::new(0).unwrap(), 0).unwrap();
        assert!(a.mean_sample(id).is_none());
        assert!(a.worst_sticky(id).is_none());
        assert!(a.latest().is_none());
    }

    #[test]
    fn reserve_does_not_change_contents() {
        let mut a = Amester::with_capacity(4);
        a.record(Seconds(0.0), readings(5), readings(5)).unwrap();
        a.reserve(100);
        assert_eq!(a.windows().len(), 1);
    }
}
