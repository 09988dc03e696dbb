//! Per-socket chip model: the electrical solve and the control step.

use crate::assignment::Assignment;
use crate::config::ServerConfig;
use crate::error::SimError;
use crate::solve::{LaneSolution, LaneSpec};
#[cfg(feature = "scalar-oracle")]
use crate::solve::{MAX_SOLVE_ITERATIONS, SOLVE_TOLERANCE};
use p7_control::{Dpll, GuardbandMode, VoltFreqCurve};
use p7_pdn::{DidtModel, DidtSample, DropBreakdown, PdnGrid, Rail};
use p7_power::{ChipPowerModel, CorePowerState, ThermalModel};
use p7_sensors::{calibration, CpmBank, CpmReading};
use p7_types::{
    seed_for_indexed, Amps, CoreId, MegaHertz, Seconds, SocketId, Volts, Watts, CORES_PER_SOCKET,
    CPMS_PER_SOCKET,
};
use p7_workloads::ActivityTrace;

/// Everything observed on one socket during one 32 ms window.
///
/// Entirely stack-allocated: the CPM readouts are fixed arrays, so building
/// a `SocketTick` never touches the heap.
#[derive(Debug, Clone)]
pub struct SocketTick {
    /// Vdd rail power as the server's VRM sensors report it: rail set
    /// point times load current, i.e. silicon consumption plus the
    /// resistive delivery loss across the loadline and grid. This is the
    /// paper's "chip power" observable.
    pub power: Watts,
    /// Power consumed by the silicon alone, at delivered voltages.
    pub consumed_power: Watts,
    /// Voltage each core saw.
    pub core_voltages: [Volts; CORES_PER_SOCKET],
    /// Clock frequency of each core at the end of the window.
    pub core_freqs: [MegaHertz; CORES_PER_SOCKET],
    /// Decomposed voltage drop per core.
    pub breakdown: [DropBreakdown; CORES_PER_SOCKET],
    /// Slowest clock among powered-on cores (the firmware's input).
    pub min_on_freq: Option<MegaHertz>,
    /// Worst instantaneous clock the window could have produced: the
    /// frequency the slowest core would dip to under the deepest droop
    /// plus the firmware's load-transient reserve. The undervolting
    /// firmware servoes this conservative value to the target so the chip
    /// never misses timing mid-window.
    pub sticky_min_freq: Option<MegaHertz>,
    /// Sample-mode CPM readings (40, flat-indexed).
    pub cpm_sample: [CpmReading; CPMS_PER_SOCKET],
    /// Sticky-mode CPM readings (40, flat-indexed).
    pub cpm_sticky: [CpmReading; CPMS_PER_SOCKET],
    /// Total current drawn from the rail.
    pub current: Amps,
    /// The rail set point during this window.
    pub set_point: Volts,
}

/// Converged state of the previous window's fixed-point solve, used to
/// warm-start the next one. Voltages move by at most a few millivolts
/// between 32 ms windows, so the previous solution is an excellent seed.
#[derive(Debug, Clone, Copy)]
struct SolveSeed {
    chip_input: Volts,
    core_voltages: [Volts; CORES_PER_SOCKET],
}

/// One POWER7+ chip in the simulation.
#[derive(Debug, Clone)]
pub struct ChipSim {
    power_model: ChipPowerModel,
    grid: PdnGrid,
    didt: DidtModel,
    bank: CpmBank,
    dplls: [Dpll; CORES_PER_SOCKET],
    thermal: ThermalModel,
    states: [CorePowerState; CORES_PER_SOCKET],
    traces: [Option<ActivityTrace>; CORES_PER_SOCKET],
    /// Per-core effective switched capacitance (nF), hoisted out of the
    /// tick loop — it depends only on the assignment.
    ceffs: [f64; CORES_PER_SOCKET],
    /// Mean di/dt variability across running threads (1.0 when idle),
    /// hoisted out of the tick loop for the same reason.
    variability_mean: f64,
    curve: VoltFreqCurve,
    residual_guardband: Volts,
    transient_reserve_ohms: f64,
    target: MegaHertz,
    solve_seed: Option<SolveSeed>,
}

/// The window state computed before the electrical solve: this tick's
/// random draws (workload activities and di/dt noise) and the (possibly
/// re-pinned) DPLL frequencies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TickPrelude {
    activities: [f64; CORES_PER_SOCKET],
    noise: DidtSample,
    freqs: [MegaHertz; CORES_PER_SOCKET],
}

impl ChipSim {
    /// Builds one socket's chip from the server config and the assignment.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when any substrate rejects its configuration.
    pub fn new(
        config: &ServerConfig,
        assignment: &Assignment,
        socket: SocketId,
    ) -> Result<Self, SimError> {
        let power_model = ChipPowerModel::new(config.power.clone())?;
        let grid = PdnGrid::new(&config.pdn);
        let chip_seed = seed_for_indexed(config.seed, "chip", socket.index());
        let didt = DidtModel::new(config.didt.clone(), chip_seed);
        let mut bank = CpmBank::with_seed(chip_seed);
        calibration::calibrate_bank(
            &mut bank,
            config.policy.residual_guardband,
            config.target_frequency,
        )?;

        let mut states = [CorePowerState::Gated; CORES_PER_SOCKET];
        let mut traces: [Option<ActivityTrace>; CORES_PER_SOCKET] = std::array::from_fn(|_| None);
        let mut ceffs = [0.0f64; CORES_PER_SOCKET];
        for core in CoreId::all() {
            states[core.index()] = assignment.core_state(socket, core);
            if let Some(thread) = assignment.thread_at(socket, core) {
                let thread_seed = seed_for_indexed(chip_seed, "trace", core.index());
                traces[core.index()] = Some(ActivityTrace::new(&thread.workload, thread_seed));
                ceffs[core.index()] = thread.workload.ceff_nf();
            }
        }

        let dpll = Dpll::new(config.target_frequency, config.dpll_min, config.dpll_max)?;
        let dplls = std::array::from_fn(|_| dpll.clone());

        Ok(ChipSim {
            power_model,
            grid,
            didt,
            bank,
            dplls,
            thermal: ThermalModel::new(config.ambient, 0.115, Seconds(20.0)),
            states,
            traces,
            ceffs,
            variability_mean: Self::assignment_variability(assignment, socket),
            curve: config.curve.clone(),
            residual_guardband: config.policy.residual_guardband,
            transient_reserve_ohms: config.policy.transient_reserve_ohms,
            target: config.target_frequency,
            solve_seed: None,
        })
    }

    /// Drops the warm-start seed so the next window's solve starts cold
    /// from the rail set point, exactly as a freshly built chip would.
    #[cfg(test)]
    fn clear_solve_state(&mut self) {
        self.solve_seed = None;
    }

    /// Number of powered-on cores.
    #[cfg(test)]
    fn on_core_count(&self) -> usize {
        self.states.iter().filter(|s| s.is_on()).count()
    }

    /// Number of running cores.
    #[must_use]
    pub fn running_core_count(&self) -> usize {
        self.states.iter().filter(|s| s.is_running()).count()
    }

    /// Mutable access to the CPM bank (fault injection, recalibration).
    pub fn bank_mut(&mut self) -> &mut CpmBank {
        &mut self.bank
    }

    /// Whether a core is powered on this window.
    #[must_use]
    pub fn core_is_on(&self, core: usize) -> bool {
        self.states[core].is_on()
    }

    /// Steps 1–2 of a window: draw this window's workload activity from
    /// the traces and its di/dt noise (step 4's input, drawn here so that
    /// a window's draws travel together), then settle the DPLL
    /// frequencies (pinned to the DVFS target in static mode).
    pub(crate) fn begin_window(&mut self, mode: GuardbandMode, window: Seconds) -> TickPrelude {
        // 1. Workload activity for this window.
        let mut activities = [0.0f64; CORES_PER_SOCKET];
        for (i, trace) in self.traces.iter_mut().enumerate() {
            if let Some(trace) = trace.as_mut() {
                activities[i] = trace.next_window();
            }
        }
        // The noise stream is the di/dt model's own, and its inputs are
        // fixed for the simulation, so drawing it before the solve
        // yields the values the finish half used to draw.
        let running = self.running_core_count();
        let noise = self
            .didt
            .sample_window(running, self.variability_mean, window);
        self.settle_clocks(mode, activities, noise)
    }

    /// [`ChipSim::begin_window`] for a chip whose draw streams are in the
    /// same state as `twin`'s were before `twin` drew `drawn`: it takes
    /// `twin`'s draws and stream states instead of drawing the same values
    /// again, then settles its own clocks.
    pub(crate) fn begin_window_as(
        &mut self,
        mode: GuardbandMode,
        twin: &ChipSim,
        drawn: &TickPrelude,
    ) -> TickPrelude {
        self.traces.clone_from(&twin.traces);
        self.didt.clone_from(&twin.didt);
        self.settle_clocks(mode, drawn.activities, drawn.noise)
    }

    /// Step 2 of a window, given its draws.
    fn settle_clocks(
        &mut self,
        mode: GuardbandMode,
        activities: [f64; CORES_PER_SOCKET],
        noise: DidtSample,
    ) -> TickPrelude {
        // 2. In static mode the clocks are pinned at the DVFS target.
        if mode == GuardbandMode::StaticGuardband {
            for d in &mut self.dplls {
                d.set_frequency(self.target);
            }
        }
        let freqs: [MegaHertz; CORES_PER_SOCKET] =
            std::array::from_fn(|i| self.dplls[i].frequency());
        TickPrelude {
            activities,
            noise,
            freqs,
        }
    }

    /// Step 3's inputs, packaged for one [`SolveBatch`] lane: the
    /// electrical substrates plus this window's activity and frequencies,
    /// warm-started from the previous window's converged solve.
    pub(crate) fn lane_spec<'a>(
        &'a self,
        rail: &'a Rail,
        prelude: &'a TickPrelude,
    ) -> LaneSpec<'a> {
        LaneSpec {
            rail,
            power: &self.power_model,
            grid: &self.grid,
            temperature: self.thermal.temperature(),
            states: &self.states,
            ceffs: &self.ceffs,
            activities: &prelude.activities,
            freqs: &prelude.freqs,
            warm_start: self
                .solve_seed
                .map(|seed| (seed.chip_input, seed.core_voltages)),
        }
    }

    /// The original array-of-structs fixed-point solve, retained verbatim
    /// as the differential-test oracle. The batched SoA kernel in
    /// [`crate::solve`] must reproduce this loop bit for bit. Crate-visible
    /// so the group ticker can keep oracle simulations on the scalar path
    /// while batching their neighbours.
    #[cfg(feature = "scalar-oracle")]
    pub(crate) fn solve_scalar(&self, rail: &Rail, prelude: &TickPrelude) -> LaneSolution {
        let activities = &prelude.activities;
        let freqs = &prelude.freqs;
        let temp = self.thermal.temperature();
        let (mut chip_input, mut core_voltages) = match self.solve_seed {
            Some(seed) => (seed.chip_input, seed.core_voltages),
            None => (rail.set_point(), [rail.set_point(); CORES_PER_SOCKET]),
        };
        let mut core_currents = [Amps::ZERO; CORES_PER_SOCKET];
        let mut uncore_current = Amps::ZERO;
        let mut total_power = Watts::ZERO;
        let mut solve_span = p7_obs::trace::span("solve", 0);
        let mut solve_iterations = 0u32;
        for _ in 0..MAX_SOLVE_ITERATIONS {
            solve_iterations += 1;
            total_power = Watts::ZERO;
            for i in 0..CORES_PER_SOCKET {
                let p = self.power_model.core_power(
                    self.states[i],
                    self.ceffs[i],
                    activities[i],
                    core_voltages[i],
                    freqs[i],
                    temp,
                );
                core_currents[i] = p.total() / core_voltages[i].max(Volts(0.1));
                total_power += p.total();
            }
            let uncore = self.power_model.uncore_power(chip_input);
            uncore_current = uncore / chip_input.max(Volts(0.1));
            total_power += uncore;
            let total_current = self.grid.total_current(&core_currents, uncore_current);
            let next_input = rail.output(total_current);
            let next_voltages = self
                .grid
                .core_voltages(next_input, &core_currents, uncore_current);
            let mut residual = (next_input - chip_input).0.abs();
            for i in 0..CORES_PER_SOCKET {
                residual = residual.max((next_voltages[i] - core_voltages[i]).0.abs());
            }
            chip_input = next_input;
            core_voltages = next_voltages;
            if residual < SOLVE_TOLERANCE.0 {
                break;
            }
        }
        // The span's logical key is the converged iteration count — a
        // deterministic property of the solve, unlike wall-clock time.
        solve_span.set_key(u64::from(solve_iterations));
        drop(solve_span);
        crate::telemetry::solve_iterations().observe(f64::from(solve_iterations));
        let total_current = self.grid.total_current(&core_currents, uncore_current);
        LaneSolution {
            chip_input,
            core_voltages,
            core_currents,
            uncore_current,
            total_current,
            total_power,
            iterations: solve_iterations,
        }
    }

    /// Steps 4–8 of a window, from a converged electrical solution: di/dt
    /// noise (drawn with the prelude, scaled here by any droop storm), CPM
    /// readings, adaptive control, drop decomposition and thermal
    /// integration. Stores the solution as the next window's
    /// warm-start seed.
    ///
    /// `droop_scale` multiplies the window's (typical, worst) droops after
    /// the noise is drawn, so the random sequence — and with it every
    /// fault-free statistic — is untouched; `None` leaves them as drawn.
    pub(crate) fn finish_window(
        &mut self,
        rail: &Rail,
        mode: GuardbandMode,
        window: Seconds,
        droop_scale: Option<(f64, f64)>,
        prelude: &TickPrelude,
        solution: &LaneSolution,
    ) -> SocketTick {
        let freqs = prelude.freqs;
        let core_voltages = solution.core_voltages;
        let core_currents = solution.core_currents;
        let total_power = solution.total_power;
        let total_current = solution.total_current;
        self.solve_seed = Some(SolveSeed {
            chip_input: solution.chip_input,
            core_voltages,
        });

        // 4. di/dt noise for this window, drawn with the prelude.
        let mut noise = prelude.noise;
        if let Some((typical_scale, worst_scale)) = droop_scale {
            noise.typical = Volts(noise.typical.0 * typical_scale);
            noise.worst = Volts((noise.worst.0 * worst_scale).max(noise.typical.0));
        }

        // 5. CPM readings at the pre-control frequencies.
        let sample_margins: [Volts; CORES_PER_SOCKET] = std::array::from_fn(|i| {
            core_voltages[i] - noise.typical - self.curve.v_circuit(freqs[i])
        });
        let sticky_margins: [Volts; CORES_PER_SOCKET] =
            std::array::from_fn(|i| sample_margins[i] - (noise.worst - noise.typical));
        // One fused pass over the bank: sample readings, sticky readings
        // and each core's worst monitor, with every CPM's sensitivity
        // evaluated once (bit-identical to three separate passes).
        let readout = self
            .bank
            .read_window(&sample_margins, &sticky_margins, &freqs);
        let cpm_sample = readout.sample;
        let cpm_sticky = readout.sticky;
        // The per-core control input is the worst CPM of the core. A core
        // whose worst monitor reads zero reports *no measurable margin* —
        // the hardware's fail-safe is to slow that core down and let the
        // firmware raise the rail, whatever the analytic margin says.
        let core_min_cpm = readout.core_min;
        let cpm_fail_safe = |i: usize| core_min_cpm[i] == CpmReading::MIN && self.states[i].is_on();

        // 6. Control: adaptive modes let each DPLL chase its usable margin.
        // In undervolting mode the clock is capped at the DVFS target — the
        // spare margin is for the firmware to convert into voltage, not for
        // overclocking.
        if mode.is_adaptive() {
            #[allow(clippy::needless_range_loop)] // i co-indexes voltages and DPLLs
            for i in 0..CORES_PER_SOCKET {
                if self.states[i].is_on() {
                    let usable = if cpm_fail_safe(i) {
                        // No measurable margin: retreat toward the slowest
                        // safe clock until the firmware restores voltage.
                        self.curve.v_circuit(self.target) - self.residual_guardband
                    } else {
                        core_voltages[i] - noise.typical - self.residual_guardband
                    };
                    let f = self.dplls[i].track(usable, &self.curve);
                    if mode == GuardbandMode::Undervolt && f > self.target {
                        self.dplls[i].set_frequency(self.target);
                    }
                }
            }
        }

        // The worst momentary clock of the window: deepest droop plus the
        // firmware's load-transient allowance for this rail's current.
        let transient_reserve = Volts(self.transient_reserve_ohms * total_current.0.max(0.0));
        let worst_case_reserve = (noise.worst).max(transient_reserve);
        let sticky_min_freq = (0..CORES_PER_SOCKET)
            .filter(|&i| self.states[i].is_on())
            .map(|i| {
                if cpm_fail_safe(i) {
                    return MegaHertz(0.0);
                }
                let usable = core_voltages[i] - worst_case_reserve - self.residual_guardband;
                self.curve.f_max(usable)
            })
            .min_by(|a, b| a.partial_cmp(b).expect("frequencies are finite"));

        // 7. Drop decomposition per core.
        let loadline = rail.loadline_drop(total_current);
        let global = self.grid.global_drop(total_current);
        let breakdown: [DropBreakdown; CORES_PER_SOCKET] = std::array::from_fn(|i| {
            let core = CoreId::new(i as u8).expect("core in range");
            DropBreakdown {
                loadline,
                ir_drop: global + self.grid.local_drop(core, &core_currents),
                typical_didt: noise.typical,
                worst_didt: noise.worst - noise.typical,
            }
        });

        // 8. Thermal integration.
        self.thermal.step(total_power, window);

        let min_on_freq = (0..CORES_PER_SOCKET)
            .filter(|&i| self.states[i].is_on())
            .map(|i| self.dplls[i].frequency())
            .min_by(|a, b| a.partial_cmp(b).expect("frequencies are finite"));

        // What the VRM power sensor reports: set point × load current.
        let rail_power = rail.set_point() * total_current;

        SocketTick {
            power: rail_power,
            consumed_power: total_power,
            core_voltages,
            core_freqs: std::array::from_fn(|i| self.dplls[i].frequency()),
            breakdown,
            min_on_freq,
            sticky_min_freq,
            cpm_sample,
            cpm_sticky,
            current: total_current,
            set_point: rail.set_point(),
        }
    }

    /// Mean di/dt variability across this socket's running threads (1.0
    /// when the socket is idle).
    fn assignment_variability(assignment: &Assignment, socket: SocketId) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for core in CoreId::all() {
            if let Some(thread) = assignment.thread_at(socket, core) {
                sum += thread.workload.variability();
                count += 1;
            }
        }
        if count == 0 {
            1.0
        } else {
            sum / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{SolveBatch, SOLVE_TOLERANCE};
    use p7_types::Ohms;
    use p7_workloads::Catalog;

    fn setup(k: usize, mode: GuardbandMode) -> (ChipSim, Rail, GuardbandMode) {
        let cfg = ServerConfig::power7plus(7);
        let w = Catalog::power7plus().get("raytrace").unwrap().clone();
        let a = Assignment::single_socket(&w, k).unwrap();
        let chip = ChipSim::new(&cfg, &a, SocketId::new(0).unwrap()).unwrap();
        let rail = Rail::new(cfg.nominal_voltage(), cfg.pdn.vrm_loadline);
        (chip, rail, mode)
    }

    fn window() -> Seconds {
        Seconds::from_millis(32.0)
    }

    /// One window of `chip` on `rail`: the begin half, a one-lane solve
    /// and the finish half.
    fn tick_chip(chip: &mut ChipSim, rail: &Rail, mode: GuardbandMode) -> SocketTick {
        let prelude = chip.begin_window(mode, window());
        let mut batch = SolveBatch::<1>::new();
        batch.load(0, &chip.lane_spec(rail, &prelude));
        batch.solve();
        chip.finish_window(rail, mode, window(), None, &prelude, &batch.lane(0))
    }

    #[test]
    fn static_mode_pins_frequency() {
        let (mut chip, rail, mode) = setup(4, GuardbandMode::StaticGuardband);
        for _ in 0..5 {
            let t = tick_chip(&mut chip, &rail, mode);
            for f in t.core_freqs {
                assert_eq!(f, MegaHertz(4200.0));
            }
        }
    }

    #[test]
    fn overclock_mode_boosts_above_target() {
        let (mut chip, rail, mode) = setup(1, GuardbandMode::Overclock);
        let mut last = None;
        for _ in 0..10 {
            last = Some(tick_chip(&mut chip, &rail, mode));
        }
        let t = last.unwrap();
        // Fig. 4a: light load boosts ~8–11 % above 4.2 GHz.
        let boost = (t.core_freqs[0].0 - 4200.0) / 4200.0 * 100.0;
        assert!((5.0..13.0).contains(&boost), "boost {boost}%");
    }

    #[test]
    fn more_active_cores_mean_less_boost() {
        let boost_at = |k: usize| {
            let (mut chip, rail, mode) = setup(k, GuardbandMode::Overclock);
            let mut f = 0.0;
            for _ in 0..10 {
                f = tick_chip(&mut chip, &rail, mode).core_freqs[0].0;
            }
            f
        };
        let one = boost_at(1);
        let eight = boost_at(8);
        assert!(one > eight + 50.0, "1-core {one} vs 8-core {eight}");
    }

    #[test]
    fn power_grows_with_active_cores() {
        let power_at = |k: usize| {
            let (mut chip, rail, mode) = setup(k, GuardbandMode::StaticGuardband);
            let mut p = Watts::ZERO;
            for _ in 0..10 {
                p = tick_chip(&mut chip, &rail, mode).power;
            }
            p.0
        };
        let p1 = power_at(1);
        let p8 = power_at(8);
        assert!(p8 > p1 + 30.0, "1-core {p1} W vs 8-core {p8} W");
        assert!((55.0..110.0).contains(&p1), "1-core power {p1} W");
        assert!((100.0..160.0).contains(&p8), "8-core power {p8} W");
    }

    #[test]
    fn active_core_sees_lowest_voltage() {
        let (mut chip, rail, mode) = setup(1, GuardbandMode::StaticGuardband);
        let t = tick_chip(&mut chip, &rail, mode);
        for i in 1..8 {
            assert!(t.core_voltages[0] < t.core_voltages[i]);
        }
    }

    #[test]
    fn breakdown_total_matches_voltage_gap() {
        let (mut chip, rail, mode) = setup(4, GuardbandMode::StaticGuardband);
        let t = tick_chip(&mut chip, &rail, mode);
        for i in 0..8 {
            let passive_gap = (t.set_point - t.core_voltages[i]).millivolts();
            let passive = t.breakdown[i].passive().millivolts();
            assert!(
                (passive - passive_gap).abs() < 0.5,
                "core {i}: breakdown {passive} vs gap {passive_gap}"
            );
        }
    }

    #[test]
    fn cpm_hovers_near_calibration_in_adaptive_mode() {
        // Sec. 4.1: "CPMs typically hover around an output value of 2 when
        // adaptive guardbanding is active".
        let (mut chip, rail, mode) = setup(4, GuardbandMode::Overclock);
        let mut t = tick_chip(&mut chip, &rail, mode);
        for _ in 0..10 {
            t = tick_chip(&mut chip, &rail, mode);
        }
        let mean: f64 = t
            .cpm_sample
            .iter()
            .map(|r| f64::from(r.value()))
            .sum::<f64>()
            / 40.0;
        assert!((1.0..4.0).contains(&mean), "mean CPM {mean}");
    }

    #[test]
    fn sticky_readings_never_exceed_sample() {
        let (mut chip, rail, mode) = setup(6, GuardbandMode::StaticGuardband);
        for _ in 0..20 {
            let t = tick_chip(&mut chip, &rail, mode);
            for (st, sa) in t.cpm_sticky.iter().zip(&t.cpm_sample) {
                assert!(st <= sa);
            }
        }
    }

    #[test]
    fn gated_socket_draws_little_power() {
        let cfg = ServerConfig::power7plus(7);
        let w = Catalog::power7plus().get("raytrace").unwrap().clone();
        let a = Assignment::consolidated(&w, 4).unwrap();
        let mut chip = ChipSim::new(&cfg, &a, SocketId::new(1).unwrap()).unwrap();
        let rail = Rail::new(cfg.nominal_voltage(), cfg.pdn.vrm_loadline);
        let t = tick_chip(&mut chip, &rail, GuardbandMode::StaticGuardband);
        assert_eq!(chip.on_core_count(), 0);
        // Only uncore plus gated leakage.
        assert!(t.power.0 < 30.0, "gated chip drew {} W", t.power.0);
        assert!(t.min_on_freq.is_none());
    }

    #[test]
    fn solve_converges_even_with_huge_loadline() {
        let cfg = ServerConfig::power7plus(7);
        let w = Catalog::power7plus().get("lu_cb").unwrap().clone();
        let a = Assignment::single_socket(&w, 8).unwrap();
        let mut chip = ChipSim::new(&cfg, &a, SocketId::new(0).unwrap()).unwrap();
        let rail = Rail::new(cfg.nominal_voltage(), Ohms(3.0e-3));
        let t = tick_chip(&mut chip, &rail, GuardbandMode::StaticGuardband);
        assert!(t.power.is_finite());
        for v in t.core_voltages {
            assert!(v.is_finite() && v > Volts(0.5));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut a, rail, mode) = setup(4, GuardbandMode::Undervolt);
        let (mut b, rail2, _) = setup(4, GuardbandMode::Undervolt);
        for _ in 0..10 {
            let ta = tick_chip(&mut a, &rail, mode);
            let tb = tick_chip(&mut b, &rail2, mode);
            assert_eq!(ta.power.0, tb.power.0);
            assert_eq!(ta.cpm_sample, tb.cpm_sample);
        }
    }

    #[test]
    fn warm_solve_stays_within_tolerance_of_cold() {
        // Two identical chips diverge only in the solve's starting point:
        // one keeps its warm seed, the other is forced cold every window.
        // Both converge to within SOLVE_TOLERANCE of the same fixed point,
        // so their delivered voltages must agree to a few hundredths of a
        // millivolt.
        let (mut warm, rail, mode) = setup(4, GuardbandMode::Undervolt);
        let (mut cold, rail2, _) = setup(4, GuardbandMode::Undervolt);
        for tick in 0..20 {
            cold.clear_solve_state();
            let tw = tick_chip(&mut warm, &rail, mode);
            let tc = tick_chip(&mut cold, &rail2, mode);
            for i in 0..CORES_PER_SOCKET {
                let gap = (tw.core_voltages[i] - tc.core_voltages[i]).0.abs();
                assert!(
                    gap < 4.0 * SOLVE_TOLERANCE.0,
                    "tick {tick} core {i}: warm-cold gap {} mV",
                    gap * 1e3
                );
            }
        }
    }

    /// Builds a chip with its own workload/core-count so multi-lane
    /// batches hold genuinely different electrical states per lane.
    fn chip_for(name: &str, k: usize, seed: u64) -> (ChipSim, Rail) {
        let cfg = ServerConfig::power7plus(seed);
        let w = Catalog::power7plus().get(name).unwrap().clone();
        let a = Assignment::single_socket(&w, k).unwrap();
        let chip = ChipSim::new(&cfg, &a, SocketId::new(0).unwrap()).unwrap();
        let rail = Rail::new(cfg.nominal_voltage(), cfg.pdn.vrm_loadline);
        (chip, rail)
    }

    #[test]
    fn partial_batch_matches_individual_lane_solves() {
        // Remainder masking: a LANES=4 batch with only three occupied
        // lanes must produce, lane for lane, the bit-identical solutions
        // of three independent LANES=1 solves. Covers both the cold
        // first window and warm-seeded later windows.
        let mode = GuardbandMode::Undervolt;
        let mut chips = [
            chip_for("raytrace", 4, 7),
            chip_for("lu_cb", 8, 11),
            chip_for("mcf", 2, 13),
        ];
        for w in 0..6 {
            let preludes: Vec<TickPrelude> = chips
                .iter_mut()
                .map(|(chip, _)| chip.begin_window(mode, window()))
                .collect();

            let mut wide = SolveBatch::<4>::new();
            for (lane, ((chip, rail), prelude)) in chips.iter().zip(&preludes).enumerate() {
                wide.load(lane, &chip.lane_spec(rail, prelude));
            }
            assert_eq!(wide.occupancy(), 3, "lane 3 must stay vacant");
            wide.solve();

            let mut solutions = Vec::new();
            for (lane, ((chip, rail), prelude)) in chips.iter().zip(&preludes).enumerate() {
                let mut narrow = SolveBatch::<1>::new();
                narrow.load(0, &chip.lane_spec(rail, prelude));
                narrow.solve();
                assert_eq!(
                    wide.lane(lane),
                    narrow.lane(0),
                    "window {w} lane {lane}: partial batch diverged from scalar-width batch"
                );
                solutions.push(narrow.lane(0));
            }

            // Advance all chips so the next window exercises warm seeds.
            for (((chip, rail), prelude), solution) in
                chips.iter_mut().zip(&preludes).zip(&solutions)
            {
                chip.finish_window(rail, mode, window(), None, prelude, solution);
            }
        }
    }

    #[cfg(feature = "scalar-oracle")]
    #[test]
    fn lanes_one_batch_is_bit_identical_to_scalar_solve() {
        // The degenerate LANES=1 batch is the scalar solver: same seeds,
        // same association order, same iteration count — so the whole
        // LaneSolution must match the retained scalar loop *exactly*,
        // not merely within tolerance.
        for mode in [GuardbandMode::Undervolt, GuardbandMode::Overclock] {
            let (mut chip, rail) = chip_for("raytrace", 6, 7);
            for w in 0..12 {
                let prelude = chip.begin_window(mode, window());
                let scalar = chip.solve_scalar(&rail, &prelude);
                let mut batch = SolveBatch::<1>::new();
                batch.load(0, &chip.lane_spec(&rail, &prelude));
                batch.solve();
                assert_eq!(
                    batch.lane(0),
                    scalar,
                    "window {w} mode {mode}: batch diverged from scalar oracle"
                );
                chip.finish_window(&rail, mode, window(), None, &prelude, &scalar);
            }
        }
    }
}
