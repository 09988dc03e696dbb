//! First-order RC thermal model of the die.
//!
//! The paper measured die temperatures between 27 °C (lowest frequency) and
//! 38 °C (highest) and found the swing insignificant for CPM readings
//! (Sec. 4.1). We still model it because leakage — and therefore the
//! passive-drop feedback loop — depends weakly on temperature.

use p7_types::{Celsius, LastEval, Seconds, Watts};

/// A lumped thermal node: `dT/dt = (T_steady(P) − T) / τ`.
///
/// # Examples
///
/// ```
/// use p7_power::ThermalModel;
/// use p7_types::{Celsius, Seconds, Watts};
///
/// let mut t = ThermalModel::power7plus();
/// for _ in 0..10_000 {
///     t.step(Watts(120.0), Seconds::from_millis(32.0));
/// }
/// let settled = t.temperature();
/// assert!(settled > Celsius(30.0) && settled < Celsius(60.0));
/// ```
#[derive(Debug, Clone)]
pub struct ThermalModel {
    ambient: Celsius,
    /// Thermal resistance die→ambient, °C per watt.
    resistance: f64,
    /// Time constant of the die+heatsink, seconds.
    time_constant: Seconds,
    temperature: Celsius,
    /// The step's `1 − exp(−dt/τ)`, keyed by `dt`: a simulation steps by
    /// one fixed window, so this is one `exp` per model, not per window.
    alpha: LastEval,
}

impl ThermalModel {
    /// A model calibrated to the paper's observed 27–38 °C range for
    /// 60–140 W chips under server-class cooling.
    #[must_use]
    pub fn power7plus() -> Self {
        ThermalModel::new(Celsius(22.0), 0.115, Seconds(20.0))
    }

    /// Creates a thermal node at ambient temperature.
    #[must_use]
    pub fn new(ambient: Celsius, resistance: f64, time_constant: Seconds) -> Self {
        ThermalModel {
            ambient,
            resistance,
            time_constant,
            temperature: ambient,
            alpha: LastEval::default(),
        }
    }

    /// Current die temperature.
    #[must_use]
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// The temperature this power level would settle at.
    #[must_use]
    pub fn steady_state(&self, power: Watts) -> Celsius {
        Celsius(self.ambient.0 + self.resistance * power.0)
    }

    /// Advances the node by `dt` under dissipated power `power`.
    pub fn step(&mut self, power: Watts, dt: Seconds) {
        let target = self.steady_state(power);
        let tau = self.time_constant.0;
        let alpha = self.alpha.get_or_eval(dt.0, |dt| 1.0 - (-dt / tau).exp());
        self.temperature = Celsius(self.temperature.0 + alpha * (target.0 - self.temperature.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_ambient() {
        let t = ThermalModel::power7plus();
        assert_eq!(t.temperature(), Celsius(22.0));
    }

    #[test]
    fn converges_to_steady_state() {
        let mut t = ThermalModel::power7plus();
        let p = Watts(100.0);
        for _ in 0..100_000 {
            t.step(p, Seconds::from_millis(32.0));
        }
        let expect = t.steady_state(p);
        assert!((t.temperature() - expect).abs() < Celsius(0.01));
    }

    #[test]
    fn steady_state_range_matches_paper() {
        // 60–140 W should settle within roughly the paper's observed band.
        let t = ThermalModel::power7plus();
        let low = t.steady_state(Watts(60.0));
        let high = t.steady_state(Watts(140.0));
        assert!(low > Celsius(25.0) && low < Celsius(35.0), "low {low}");
        assert!(high > Celsius(33.0) && high < Celsius(45.0), "high {high}");
    }

    #[test]
    fn step_moves_toward_target_monotonically() {
        let mut t = ThermalModel::power7plus();
        let mut last = t.temperature();
        for _ in 0..50 {
            t.step(Watts(120.0), Seconds(1.0));
            assert!(t.temperature() >= last);
            last = t.temperature();
        }
    }

    #[test]
    fn step_is_bit_identical_to_the_unhoisted_formula_at_any_dt() {
        // The step factor is memoized per dt; every step must still equal
        // `1 − exp(−dt/τ)` evaluated afresh, including after dt changes.
        let mut model = ThermalModel::power7plus();
        let mut reference = model.temperature().0;
        for (i, dt) in [0.032, 0.032, 1.0, 0.032, 0.005, 0.005, 1.0, 0.032]
            .into_iter()
            .enumerate()
        {
            let power = Watts(60.0 + 10.0 * i as f64);
            model.step(power, Seconds(dt));
            let target = model.steady_state(power).0;
            let alpha = 1.0 - (-dt / 20.0f64).exp();
            reference += alpha * (target - reference);
            assert_eq!(
                model.temperature().0.to_bits(),
                reference.to_bits(),
                "dt {dt}"
            );
        }
    }

    #[test]
    fn cooling_works_too() {
        let mut t = ThermalModel::power7plus();
        for _ in 0..1000 {
            t.step(Watts(140.0), Seconds(1.0));
        }
        let hot = t.temperature();
        for _ in 0..1000 {
            t.step(Watts(0.0), Seconds(1.0));
        }
        assert!(t.temperature() < hot);
        assert!((t.temperature() - Celsius(22.0)).abs() < Celsius(0.5));
    }
}
