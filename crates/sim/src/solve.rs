//! Structure-of-arrays batch solver for the per-window electrical solve.
//!
//! The fixed point `power ↔ current ↔ voltage` used to be computed one
//! grid point at a time inside the per-socket chip model. This module
//! factors that loop into a [`SolveBatch`]: rail parameters (R·I terms),
//! effective capacitances, leakage sensitivities and the per-core voltage
//! iterates of up to `LANES` independent solves are laid out in
//! lane-contiguous arrays (`[[f64; LANES]; CORES_PER_SOCKET]`), so one
//! pass of the iteration advances every lane at once and the inner loops
//! are plain branch-light f64 arithmetic the compiler can autovectorize.
//!
//! Per-lane convergence masks let early-converging lanes stop
//! contributing work: a converged lane is skipped by every subsequent
//! stage, and the whole batch stops as soon as the mask empties.
//!
//! Numerical contract: a lane's trajectory is **bit-identical** to the
//! scalar solve it replaced (retained behind the `scalar-oracle` feature
//! as the differential-test oracle). Every floating-point operation keeps
//! the scalar path's association order; the only hoist is the leakage
//! temperature term, which is a pure function of per-window inputs and
//! therefore reproduces the same bits it had inside the loop.

use crate::telemetry;
use p7_pdn::{PdnGrid, Rail};
use p7_power::{ChipPowerModel, CorePowerState};
use p7_types::{Amps, Celsius, MegaHertz, Volts, Watts, ADJACENT_CORES, CORES_PER_SOCKET};

/// Convergence tolerance of the fixed-point voltage↔power solve: iteration
/// stops once no voltage moved by 0.05 mV, far below every physical effect
/// in the model.
pub const SOLVE_TOLERANCE: Volts = Volts(5.0e-5);

/// Safety cap on solve iterations. The loop contracts quickly (the drop is
/// a few percent of Vdd), so a cold start converges in a handful of rounds
/// and a warm start usually in one or two; the cap only guards pathological
/// configurations such as extreme loadlines.
pub const MAX_SOLVE_ITERATIONS: usize = 16;

/// Everything one lane's solve depends on, borrowed from the owning chip.
///
/// [`SolveBatch::load`] copies the electrically relevant scalars out of
/// these references into the batch's lane-contiguous arrays; the borrows
/// end when `load` returns.
#[derive(Debug, Clone, Copy)]
pub struct LaneSpec<'a> {
    /// The VRM rail feeding this lane's chip.
    pub rail: &'a Rail,
    /// The chip's power model (leakage and switching parameters).
    pub power: &'a ChipPowerModel,
    /// The on-die power grid (IR-drop resistances).
    pub grid: &'a PdnGrid,
    /// Die temperature for this window.
    pub temperature: Celsius,
    /// Per-core power state (running / idle-on / gated).
    pub states: &'a [CorePowerState; CORES_PER_SOCKET],
    /// Per-core effective switched capacitance (nF) of the workload.
    pub ceffs: &'a [f64; CORES_PER_SOCKET],
    /// Per-core activity factor for this window.
    pub activities: &'a [f64; CORES_PER_SOCKET],
    /// Per-core clock frequency during this window.
    pub freqs: &'a [MegaHertz; CORES_PER_SOCKET],
    /// Warm-start seed `(chip input, per-core voltages)` from the previous
    /// window's converged solve; `None` starts cold from the rail set
    /// point.
    pub warm_start: Option<(Volts, [Volts; CORES_PER_SOCKET])>,
}

/// The converged state of one lane after [`SolveBatch::solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneSolution {
    /// Chip input voltage (after the VRM loadline).
    pub chip_input: Volts,
    /// Voltage delivered to each core.
    pub core_voltages: [Volts; CORES_PER_SOCKET],
    /// Current drawn by each core.
    pub core_currents: [Amps; CORES_PER_SOCKET],
    /// Current drawn by the uncore.
    pub uncore_current: Amps,
    /// Total current drawn from the rail.
    pub total_current: Amps,
    /// Total silicon power at the converged voltages.
    pub total_power: Watts,
    /// Iterations this lane ran before converging (or hitting the cap).
    pub iterations: u32,
}

/// A structure-of-arrays batch of up to `LANES` independent fixed-point
/// solves, advanced together by [`SolveBatch::solve`].
///
/// Entirely stack-allocated: loading, solving and reading lanes performs
/// no heap allocation, which is what keeps the simulator's warm tick
/// allocation-free (`zero_alloc_tick.rs`).
///
/// Lanes are independent: the arithmetic of one lane never reads another
/// lane's state, so a batch of N lanes produces bit-identical results to
/// N separate single-lane batches (see the lane-masking tests below and
/// `tests/solver_equivalence.rs`).
#[derive(Debug, Clone)]
pub struct SolveBatch<const LANES: usize> {
    // Per-lane scalars.
    occupied: [bool; LANES],
    iterations: [u32; LANES],
    chip_input: [f64; LANES],
    set_point: [f64; LANES],
    loadline: [f64; LANES],
    leak_ref: [f64; LANES],
    leak_v_ref: [f64; LANES],
    leak_v_sens: [f64; LANES],
    /// Leakage temperature term, hoisted out of the iteration (a pure
    /// function of the window's die temperature).
    t_term: [f64; LANES],
    uncore_base: [f64; LANES],
    uncore_v_ref: [f64; LANES],
    ir_global: [f64; LANES],
    ir_local: [f64; LANES],
    ir_neighbor: [f64; LANES],
    uncore_current: [f64; LANES],
    total_current: [f64; LANES],
    total_power: [f64; LANES],
    // Per-(core, lane) planes, lane-contiguous.
    idle_ceff: [[f64; LANES]; CORES_PER_SOCKET],
    work_ceff: [[f64; LANES]; CORES_PER_SOCKET],
    work_act: [[f64; LANES]; CORES_PER_SOCKET],
    ghz: [[f64; LANES]; CORES_PER_SOCKET],
    leak_scale: [[f64; LANES]; CORES_PER_SOCKET],
    volt: [[f64; LANES]; CORES_PER_SOCKET],
    amp: [[f64; LANES]; CORES_PER_SOCKET],
}

impl<const LANES: usize> Default for SolveBatch<LANES> {
    fn default() -> Self {
        SolveBatch::new()
    }
}

impl<const LANES: usize> SolveBatch<LANES> {
    /// An empty batch; every lane is vacant until [`SolveBatch::load`].
    #[must_use]
    pub fn new() -> Self {
        SolveBatch {
            occupied: [false; LANES],
            iterations: [0; LANES],
            chip_input: [0.0; LANES],
            set_point: [0.0; LANES],
            loadline: [0.0; LANES],
            leak_ref: [0.0; LANES],
            leak_v_ref: [0.0; LANES],
            leak_v_sens: [0.0; LANES],
            t_term: [0.0; LANES],
            uncore_base: [0.0; LANES],
            uncore_v_ref: [1.0; LANES],
            ir_global: [0.0; LANES],
            ir_local: [0.0; LANES],
            ir_neighbor: [0.0; LANES],
            uncore_current: [0.0; LANES],
            total_current: [0.0; LANES],
            total_power: [0.0; LANES],
            idle_ceff: [[0.0; LANES]; CORES_PER_SOCKET],
            work_ceff: [[0.0; LANES]; CORES_PER_SOCKET],
            work_act: [[0.0; LANES]; CORES_PER_SOCKET],
            ghz: [[0.0; LANES]; CORES_PER_SOCKET],
            leak_scale: [[0.0; LANES]; CORES_PER_SOCKET],
            volt: [[1.0; LANES]; CORES_PER_SOCKET],
            amp: [[0.0; LANES]; CORES_PER_SOCKET],
        }
    }

    /// Number of loaded lanes.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupied.iter().filter(|&&o| o).count()
    }

    /// Vacates every lane so the batch can be refilled.
    pub fn clear(&mut self) {
        self.occupied = [false; LANES];
    }

    /// Loads one lane from a chip's window state.
    ///
    /// # Panics
    ///
    /// Panics when `lane >= LANES`.
    // Index loops, not iterator zips: every statement writes a different
    // subset of the parallel lane planes at the same [core][lane] slot.
    #[allow(clippy::needless_range_loop)]
    pub fn load(&mut self, lane: usize, spec: &LaneSpec<'_>) {
        assert!(lane < LANES, "lane {lane} out of {LANES}");
        let cfg = spec.power.config();
        let pdn = spec.grid.config();
        self.occupied[lane] = true;
        self.iterations[lane] = 0;
        self.set_point[lane] = spec.rail.set_point().0;
        self.loadline[lane] = spec.rail.loadline().0;
        self.leak_ref[lane] = cfg.core_leakage_ref.0;
        self.leak_v_ref[lane] = cfg.leakage_v_ref.0;
        self.leak_v_sens[lane] = cfg.leakage_v_sensitivity;
        // Bit-identical to recomputing it every iteration: the inputs do
        // not change within a window, and `exp` is deterministic.
        self.t_term[lane] =
            ((spec.temperature - cfg.leakage_t_ref).0 * cfg.leakage_t_sensitivity).exp();
        self.uncore_base[lane] = cfg.uncore_base.0;
        self.uncore_v_ref[lane] = cfg.uncore_v_ref.0;
        self.ir_global[lane] = pdn.ir_global.0;
        self.ir_local[lane] = pdn.ir_local.0;
        self.ir_neighbor[lane] = pdn.ir_neighbor.0;
        self.uncore_current[lane] = 0.0;
        self.total_current[lane] = 0.0;
        self.total_power[lane] = 0.0;
        let (chip_input, core_voltages) = match spec.warm_start {
            Some(seed) => seed,
            None => (
                spec.rail.set_point(),
                [spec.rail.set_point(); CORES_PER_SOCKET],
            ),
        };
        self.chip_input[lane] = chip_input.0;
        for core in 0..CORES_PER_SOCKET {
            let state = spec.states[core];
            // Encoding of `ChipPowerModel::core_power` as lane constants:
            // the clock grid switches whenever the core is powered on, the
            // workload term only when it is running, and gating scales the
            // leakage by the header-switch residual. Zero coefficients
            // reproduce the scalar model's absent terms bit-for-bit
            // (`x + 0.0 == x` for the non-negative powers involved).
            self.idle_ceff[core][lane] = if state.is_on() {
                cfg.idle_core_ceff_nf
            } else {
                0.0
            };
            self.work_ceff[core][lane] = if state.is_running() {
                spec.ceffs[core]
            } else {
                0.0
            };
            self.work_act[core][lane] = if state.is_running() {
                // clamp_activity followed by dynamic_power's `.max(0.0)`.
                spec.activities[core].clamp(0.0, 1.5).max(0.0)
            } else {
                0.0
            };
            self.ghz[core][lane] = spec.freqs[core].gigahertz();
            self.leak_scale[core][lane] = if state.is_on() {
                1.0
            } else {
                cfg.gated_residual
            };
            self.volt[core][lane] = core_voltages[core].0;
            self.amp[core][lane] = 0.0;
        }
    }

    /// Advances every loaded lane to its fixed point.
    ///
    /// Records the batch occupancy and, per iteration, how many lanes
    /// converged, in the `ags_solve_batch_occupancy` /
    /// `ags_solve_lanes_converged` telemetry families; each lane also
    /// emits the same per-socket `solve` span and
    /// `ags_solve_iterations` observation the scalar path produced.
    // Index loops, not iterator zips: the kernel reads and writes many
    // parallel lane planes at the same [core][lane] slot per statement.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&mut self) {
        if self.occupancy() == 0 {
            return;
        }
        #[allow(clippy::cast_precision_loss)]
        telemetry::solve_batch_occupancy().observe(self.occupancy() as f64);
        let mut spans: [Option<p7_obs::trace::Span>; LANES] = std::array::from_fn(|_| None);
        for lane in 0..LANES {
            if self.occupied[lane] {
                spans[lane] = Some(p7_obs::trace::span("solve", 0));
            }
        }

        // The convergence mask: a lane leaves it the moment its residual
        // drops below tolerance, and every stage below skips masked-out
        // lanes, so early-converging lanes stop contributing work.
        let mut active = self.occupied;
        for _ in 0..MAX_SOLVE_ITERATIONS {
            if !active.iter().any(|&a| a) {
                break;
            }
            // Stage A: per-core power and current, lane-contiguous so the
            // products vectorize across lanes.
            for lane in 0..LANES {
                if active[lane] {
                    self.total_power[lane] = 0.0;
                }
            }
            for core in 0..CORES_PER_SOCKET {
                for lane in 0..LANES {
                    if !active[lane] {
                        continue;
                    }
                    let v = self.volt[core][lane];
                    // dynamic_power(idle_ceff, v, f, 1.0)
                    //   + dynamic_power(work_ceff, v, f, act)
                    let idle_dyn = ((self.idle_ceff[core][lane] * v) * v) * self.ghz[core][lane];
                    let work_dyn = (((self.work_ceff[core][lane] * v) * v) * self.ghz[core][lane])
                        * self.work_act[core][lane];
                    // core_leakage = leak_ref · e^{(v−v_ref)·s_v} · t_term,
                    // scaled by 1.0 (on) or the gated residual.
                    let v_term = ((v - self.leak_v_ref[lane]) * self.leak_v_sens[lane]).exp();
                    let leak = ((self.leak_ref[lane] * v_term) * self.t_term[lane])
                        * self.leak_scale[core][lane];
                    let total = (idle_dyn + work_dyn) + leak;
                    self.amp[core][lane] = total / v.max(0.1);
                    self.total_power[lane] += total;
                }
            }
            // Stages B+C: rail and grid update plus the convergence test,
            // lane by lane (each lane's reduction over its own cores).
            let mut converged_this_iter = 0u32;
            for lane in 0..LANES {
                if !active[lane] {
                    continue;
                }
                let chip_input = self.chip_input[lane];
                // uncore_power(v) = base · (v / v_ref)², then its current.
                let r = chip_input / self.uncore_v_ref[lane];
                let uncore = self.uncore_base[lane] * (r * r);
                let uncore_current = uncore / chip_input.max(0.1);
                self.uncore_current[lane] = uncore_current;
                self.total_power[lane] += uncore;
                // total_current folds the cores from zero in index order,
                // exactly as `PdnGrid::total_current` does.
                let mut core_sum = 0.0;
                for core in 0..CORES_PER_SOCKET {
                    core_sum += self.amp[core][lane];
                }
                let total_current = core_sum + uncore_current;
                self.total_current[lane] = total_current;
                let next_input = self.set_point[lane] - self.loadline[lane] * total_current;
                let global_drop = self.ir_global[lane] * total_current;
                let mut residual = (next_input - chip_input).abs();
                for core in 0..CORES_PER_SOCKET {
                    let local_drop = self.ir_local[lane] * self.amp[core][lane];
                    let mut neighbor = 0.0;
                    for &adj in ADJACENT_CORES[core] {
                        neighbor += self.amp[adj][lane];
                    }
                    let neighbor_drop = self.ir_neighbor[lane] * neighbor;
                    let next_v = ((next_input - global_drop) - local_drop) - neighbor_drop;
                    residual = residual.max((next_v - self.volt[core][lane]).abs());
                    self.volt[core][lane] = next_v;
                }
                self.chip_input[lane] = next_input;
                self.iterations[lane] += 1;
                if residual < SOLVE_TOLERANCE.0 {
                    active[lane] = false;
                    converged_this_iter += 1;
                }
            }
            telemetry::solve_lanes_converged().observe(f64::from(converged_this_iter));
        }

        for lane in 0..LANES {
            if let Some(mut span) = spans[lane].take() {
                // The span's logical key is the converged iteration count —
                // a deterministic property of the solve, unlike wall-clock.
                span.set_key(u64::from(self.iterations[lane]));
                drop(span);
                telemetry::solve_iterations().observe(f64::from(self.iterations[lane]));
            }
        }
    }

    /// Reads one lane's converged state.
    ///
    /// # Panics
    ///
    /// Panics when the lane was never loaded.
    #[must_use]
    pub fn lane(&self, lane: usize) -> LaneSolution {
        assert!(self.occupied[lane], "lane {lane} is vacant");
        LaneSolution {
            chip_input: Volts(self.chip_input[lane]),
            core_voltages: std::array::from_fn(|core| Volts(self.volt[core][lane])),
            core_currents: std::array::from_fn(|core| Amps(self.amp[core][lane])),
            uncore_current: Amps(self.uncore_current[lane]),
            total_current: Amps(self.total_current[lane]),
            total_power: Watts(self.total_power[lane]),
            iterations: self.iterations[lane],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut batch = SolveBatch::<4>::new();
        assert_eq!(batch.occupancy(), 0);
        batch.solve();
        assert_eq!(batch.occupancy(), 0);
    }

    #[test]
    fn clear_vacates_lanes() {
        let mut batch = SolveBatch::<2>::new();
        assert_eq!(batch.occupancy(), 0);
        batch.clear();
        assert_eq!(batch.occupancy(), 0);
    }
}
