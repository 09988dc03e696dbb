//! On-chip IR-drop model over the 2×4 core floorplan.
//!
//! The paper's Fig. 7 shows three behaviours this model reproduces:
//!
//! 1. **Global** — every core's voltage sags as total chip current grows,
//!    whether or not that core is active (the shared Vdd plane),
//! 2. **Local** — a core's drop jumps by roughly 2 % of Vdd the moment the
//!    core itself starts drawing current,
//! 3. **Neighbour coupling** — activity on floorplan-adjacent cores raises a
//!    core's drop by a smaller amount, which makes the early-activated cores'
//!    curves rise first and then plateau.

use crate::config::PdnConfig;
use p7_types::{Amps, CoreId, Volts, ADJACENT_CORES, CORES_PER_SOCKET};
use serde::{Deserialize, Serialize};

/// Resistive model of one chip's on-die power grid.
///
/// # Examples
///
/// ```
/// use p7_pdn::{PdnConfig, PdnGrid};
/// use p7_types::{Amps, Volts};
///
/// let grid = PdnGrid::new(&PdnConfig::power7plus());
/// let mut currents = [Amps(0.0); 8];
/// currents[2] = Amps(10.0);
/// let v = grid.core_voltages(Volts(1.18), &currents, Amps(18.0));
/// // Core 2 is active: deepest drop. Core 7 is far away: shallowest.
/// assert!(v[2] < v[1]);
/// assert!(v[1] < v[7] + p7_types::Volts(1e-6));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PdnGrid {
    config: PdnConfig,
}

impl PdnGrid {
    /// Builds the grid from a PDN configuration.
    #[must_use]
    pub fn new(config: &PdnConfig) -> Self {
        PdnGrid {
            config: config.clone(),
        }
    }

    /// The configuration this grid was built from.
    #[must_use]
    pub fn config(&self) -> &PdnConfig {
        &self.config
    }

    /// Computes the voltage each core sees given the chip input voltage,
    /// per-core currents, and the uncore (caches, nest) current.
    ///
    /// The model is `V_i = V_in − R_g·I_chip − R_l·I_i − R_n·Σ_adj I_j`,
    /// the same heuristic-equation class the paper validated against
    /// hardware (Sec. 4.3).
    #[must_use]
    pub fn core_voltages(
        &self,
        chip_input: Volts,
        core_currents: &[Amps; CORES_PER_SOCKET],
        uncore: Amps,
    ) -> [Volts; CORES_PER_SOCKET] {
        let total: Amps = core_currents.iter().copied().sum::<Amps>() + uncore;
        let global_drop = self.config.ir_global * total;
        let mut out = [Volts::ZERO; CORES_PER_SOCKET];
        for core in CoreId::all() {
            let local_drop = self.config.ir_local * core_currents[core.index()];
            let neighbor_current: Amps = ADJACENT_CORES[core.index()]
                .iter()
                .map(|&other| core_currents[other])
                .sum();
            let neighbor_drop = self.config.ir_neighbor * neighbor_current;
            out[core.index()] = chip_input - global_drop - local_drop - neighbor_drop;
        }
        out
    }

    /// Total chip current for a per-core current map plus uncore.
    #[must_use]
    pub fn total_current(&self, core_currents: &[Amps; CORES_PER_SOCKET], uncore: Amps) -> Amps {
        core_currents.iter().copied().sum::<Amps>() + uncore
    }

    /// The chip-global component of the IR drop for a given total current.
    #[must_use]
    pub fn global_drop(&self, total: Amps) -> Volts {
        self.config.ir_global * total
    }

    /// The local component of one core's IR drop (own plus neighbour
    /// current), excluding the global term.
    #[must_use]
    pub fn local_drop(&self, core: CoreId, core_currents: &[Amps; CORES_PER_SOCKET]) -> Volts {
        let own = self.config.ir_local * core_currents[core.index()];
        let neighbor: Amps = ADJACENT_CORES[core.index()]
            .iter()
            .map(|&other| core_currents[other])
            .sum();
        own + self.config.ir_neighbor * neighbor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> PdnGrid {
        PdnGrid::new(&PdnConfig::power7plus())
    }

    fn currents(active: &[usize], per_core: f64) -> [Amps; 8] {
        let mut out = [Amps::ZERO; 8];
        for &i in active {
            out[i] = Amps(per_core);
        }
        out
    }

    #[test]
    fn idle_chip_sees_only_uncore_global_drop() {
        let g = grid();
        let v = g.core_voltages(Volts(1.2), &currents(&[], 0.0), Amps(20.0));
        let expect = Volts(1.2) - g.config().ir_global * Amps(20.0);
        for core_v in v {
            assert!((core_v - expect).abs() < Volts(1e-12));
        }
    }

    #[test]
    fn active_core_sees_deepest_drop() {
        let g = grid();
        let v = g.core_voltages(Volts(1.2), &currents(&[0], 12.0), Amps(20.0));
        for i in 1..8 {
            assert!(v[0] < v[i], "core 0 should be lowest, got {v:?}");
        }
    }

    #[test]
    fn neighbors_drop_more_than_distant_cores() {
        let g = grid();
        let v = g.core_voltages(Volts(1.2), &currents(&[0], 12.0), Amps(20.0));
        // Core 1 and core 4 are adjacent to core 0; core 7 is not.
        assert!(v[1] < v[7]);
        assert!(v[4] < v[7]);
        assert!((v[1] - v[4]).abs() < Volts(1e-12));
    }

    #[test]
    fn drop_is_global_even_for_idle_cores() {
        let g = grid();
        let quiet = g.core_voltages(Volts(1.2), &currents(&[0], 12.0), Amps(20.0));
        let busy = g.core_voltages(Volts(1.2), &currents(&[0, 1, 2, 3], 12.0), Amps(20.0));
        // Core 7 is idle in both cases but drops further when the upper row
        // is busy — the chip-wide behaviour of Fig. 7.
        assert!(busy[7] < quiet[7]);
    }

    #[test]
    fn own_activation_jumps_about_two_percent() {
        // Fig. 7: a core's drop increases ~2 % of Vdd when it activates.
        let g = grid();
        let before = g.core_voltages(Volts(1.2), &currents(&[0, 1, 2], 12.0), Amps(20.0));
        let after = g.core_voltages(Volts(1.2), &currents(&[0, 1, 2, 7], 12.0), Amps(20.0));
        let jump_pct = (before[7] - after[7]).0 / 1.2 * 100.0;
        assert!(
            (1.0..4.0).contains(&jump_pct),
            "activation jump was {jump_pct}% of Vdd"
        );
    }

    #[test]
    fn more_cores_monotonically_deepen_drop() {
        let g = grid();
        let mut last = Volts(2.0);
        for n in 1..=8 {
            let active: Vec<usize> = (0..n).collect();
            let v = g.core_voltages(Volts(1.2), &currents(&active, 11.0), Amps(20.0));
            assert!(v[0] < last);
            last = v[0];
        }
    }

    #[test]
    fn total_current_sums_cores_and_uncore() {
        let g = grid();
        let total = g.total_current(&currents(&[0, 1], 10.0), Amps(15.0));
        assert!((total.0 - 35.0).abs() < 1e-12);
    }

    #[test]
    fn local_plus_global_equals_full_model() {
        let g = grid();
        let cc = currents(&[0, 3, 5], 9.0);
        let uncore = Amps(22.0);
        let v = g.core_voltages(Volts(1.2), &cc, uncore);
        for core in CoreId::all() {
            let rebuilt =
                Volts(1.2) - g.global_drop(g.total_current(&cc, uncore)) - g.local_drop(core, &cc);
            assert!((v[core.index()] - rebuilt).abs() < Volts(1e-12));
        }
    }
}
