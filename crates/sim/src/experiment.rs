//! One-call experiment wrapper: run, settle, and report power,
//! performance, energy and EDP like the paper's measurement scripts.

use crate::assignment::Assignment;
use crate::config::ServerConfig;
use crate::error::SimError;
use crate::measure::RunSummary;
use crate::server::Simulation;
use p7_control::GuardbandMode;
use p7_faults::FaultPlan;
use p7_types::{Joules, Seconds, Watts};
use p7_workloads::ExecutionModel;
use serde::{Deserialize, Serialize};

/// Default number of measured windows (~2 s of telemetry).
pub const DEFAULT_MEASURE_TICKS: usize = 60;
/// Default warm-up windows discarded before measuring (~1 s).
pub const DEFAULT_WARMUP_TICKS: usize = 30;

/// Most windows one run may ask for (`measure_ticks + warmup_ticks`).
/// A run reserves 88 B of telemetry per window per socket up front, so a
/// full 16-lane fleet group (16 sockets) at the bound reserves about
/// 141 MB; the longest shipped run is 10 000 windows.
pub const MAX_RUN_WINDOWS: usize = 100_000;

/// The tick check every campaign spec's `validate` shares: at least one
/// measured window, and at most [`MAX_RUN_WINDOWS`] in total.
///
/// # Errors
///
/// Returns [`SimError::Spec`] naming the violated bound.
pub fn validate_run_windows(measure_ticks: usize, warmup_ticks: usize) -> Result<(), SimError> {
    if measure_ticks == 0 {
        return Err(SimError::Spec {
            reason: "measure_ticks must be at least 1".to_owned(),
        });
    }
    match measure_ticks.checked_add(warmup_ticks) {
        Some(windows) if windows <= MAX_RUN_WINDOWS => Ok(()),
        _ => Err(SimError::Spec {
            reason: format!(
                "measure_ticks + warmup_ticks ({measure_ticks} + {warmup_ticks}) exceeds the \
                 {MAX_RUN_WINDOWS}-window bound"
            ),
        }),
    }
}

/// The complete result of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// Electrical and frequency averages from the settled run.
    pub summary: RunSummary,
    /// Execution time of the workload at the settled frequency.
    pub exec_time: Seconds,
    /// Total server Vdd energy over the execution (`power · time`).
    pub energy: Joules,
    /// Energy-delay product in joule-seconds (Fig. 3b's metric).
    pub edp: f64,
}

impl Outcome {
    /// Socket 0's mean chip power — the Sec. 3 measurement scope.
    #[must_use]
    pub fn chip_power(&self) -> Watts {
        self.summary.socket0().avg_power
    }

    /// Total server power (both chips) — the Sec. 5.1 measurement scope.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        self.summary.total_power
    }
}

/// Experiment runner: a server configuration plus an execution model.
///
/// # Examples
///
/// ```
/// use p7_control::GuardbandMode;
/// use p7_sim::{Assignment, Experiment};
/// use p7_workloads::Catalog;
///
/// let exp = Experiment::power7plus(42);
/// let w = Catalog::power7plus().get("raytrace").unwrap().clone();
/// let st = exp.run(
///     &Assignment::single_socket(&w, 1)?,
///     GuardbandMode::StaticGuardband,
/// )?;
/// let uv = exp.run(
///     &Assignment::single_socket(&w, 1)?,
///     GuardbandMode::Undervolt,
/// )?;
/// assert!(uv.chip_power() < st.chip_power());
/// # Ok::<(), p7_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    config: ServerConfig,
    exec_model: ExecutionModel,
    measure_ticks: usize,
    warmup_ticks: usize,
    faults: Option<FaultPlan>,
    /// [`FaultPlan::fingerprint`] of `faults`, computed once: it joins
    /// every solve-cache key, so it must not re-hash the plan.
    fault_fp: u64,
}

impl Experiment {
    /// The calibrated POWER7+ experiment runner.
    #[must_use]
    pub fn power7plus(seed: u64) -> Self {
        Experiment {
            config: ServerConfig::power7plus(seed),
            exec_model: ExecutionModel::power7plus(),
            measure_ticks: DEFAULT_MEASURE_TICKS,
            warmup_ticks: DEFAULT_WARMUP_TICKS,
            faults: None,
            fault_fp: 0,
        }
    }

    /// Builds a runner from explicit configuration.
    #[must_use]
    pub fn with_config(config: ServerConfig, exec_model: ExecutionModel) -> Self {
        Experiment {
            config,
            exec_model,
            measure_ticks: DEFAULT_MEASURE_TICKS,
            warmup_ticks: DEFAULT_WARMUP_TICKS,
            faults: None,
            fault_fp: 0,
        }
    }

    /// Overrides how many windows are measured and discarded.
    #[must_use]
    pub fn with_ticks(mut self, measure: usize, warmup: usize) -> Self {
        self.measure_ticks = measure.max(1);
        self.warmup_ticks = warmup;
        self
    }

    /// Injects a fault plan into every simulation this runner builds.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_fp = plan.fingerprint();
        self.faults = Some(plan);
        self
    }

    /// The fault plan runs are subjected to, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Fingerprint of the installed fault plan (0 when fault-free), the
    /// component that keeps faulted and healthy solves apart in caches.
    #[must_use]
    pub fn fault_fingerprint(&self) -> u64 {
        self.fault_fp
    }

    /// The server configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The execution model.
    #[must_use]
    pub fn exec_model(&self) -> &ExecutionModel {
        &self.exec_model
    }

    /// How many telemetry windows are measured per run.
    #[must_use]
    pub fn measure_ticks(&self) -> usize {
        self.measure_ticks
    }

    /// How many warm-up windows are discarded before measuring.
    #[must_use]
    pub fn warmup_ticks(&self) -> usize {
        self.warmup_ticks
    }

    /// Runs one experiment to steady state and derives time/energy/EDP.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the configuration or assignment is
    /// invalid.
    pub fn run(&self, assignment: &Assignment, mode: GuardbandMode) -> Result<Outcome, SimError> {
        let mut sim = self.build_simulation(assignment, mode)?;
        let summary = sim.run(self.measure_ticks, self.warmup_ticks);
        Ok(self.outcome_from_summary(assignment, summary))
    }

    /// Builds the [`Simulation`] that [`Experiment::run`] runs: this
    /// runner's configuration and fault plan, `assignment` under `mode`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the configuration or assignment is
    /// invalid.
    pub fn build_simulation(
        &self,
        assignment: &Assignment,
        mode: GuardbandMode,
    ) -> Result<Simulation, SimError> {
        let mut sim = Simulation::new(self.config.clone(), assignment.clone(), mode)?;
        if let Some(plan) = &self.faults {
            sim.set_fault_plan(plan.clone())?;
        }
        Ok(sim)
    }

    /// Derives the full [`Outcome`] (execution time, energy, EDP) from an
    /// already-measured [`RunSummary`] of `assignment` under this runner's
    /// configuration. This is [`Experiment::run`]'s tail, split out for
    /// callers that produce summaries some other way — the group ticker
    /// ([`crate::group::run_group`]) measures many servers per solve pass
    /// and finishes each one here.
    #[must_use]
    pub fn outcome_from_summary(&self, assignment: &Assignment, summary: RunSummary) -> Outcome {
        let freq_ratio = if assignment.total_threads() > 0 {
            summary.freq_ratio(self.config.target_frequency)
        } else {
            1.0
        };
        let exec_time = match assignment.primary_workload() {
            Some(w) => self
                .exec_model
                .execution_time(w, &assignment.placement_shape(), freq_ratio),
            None => Seconds(0.0),
        };
        let energy = summary.total_power * exec_time;
        Outcome {
            edp: energy.0 * exec_time.0,
            summary,
            exec_time,
            energy,
        }
    }

    /// Convenience: the paper's headline comparison — relative improvement
    /// of `mode` over the static baseline for the same assignment.
    /// Returns `(power_saving_percent, speedup_percent)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when either run fails.
    pub fn improvement_vs_static(
        &self,
        assignment: &Assignment,
        mode: GuardbandMode,
    ) -> Result<(f64, f64), SimError> {
        let baseline = self.run(assignment, GuardbandMode::StaticGuardband)?;
        let adaptive = self.run(assignment, mode)?;
        let power_saving =
            (baseline.chip_power().0 - adaptive.chip_power().0) / baseline.chip_power().0 * 100.0;
        let speedup = (baseline.exec_time.0 - adaptive.exec_time.0) / baseline.exec_time.0 * 100.0;
        Ok((power_saving, speedup))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p7_workloads::Catalog;

    fn workload(name: &str) -> p7_workloads::WorkloadProfile {
        Catalog::power7plus().get(name).unwrap().clone()
    }

    #[test]
    fn edp_improves_under_undervolting_at_one_core() {
        // Fig. 3b: clear EDP gain at one active core.
        let exp = Experiment::power7plus(42);
        let a = Assignment::single_socket(&workload("raytrace"), 1).unwrap();
        let st = exp.run(&a, GuardbandMode::StaticGuardband).unwrap();
        let uv = exp.run(&a, GuardbandMode::Undervolt).unwrap();
        let gain = (st.edp - uv.edp) / st.edp * 100.0;
        assert!(gain > 5.0, "EDP gain {gain}%");
    }

    #[test]
    fn overclocking_speeds_up_compute_bound_work() {
        let exp = Experiment::power7plus(42);
        let a = Assignment::single_socket(&workload("lu_cb"), 1).unwrap();
        let (_, speedup) = exp
            .improvement_vs_static(&a, GuardbandMode::Overclock)
            .unwrap();
        // Fig. 4b: ~8 % at one core.
        assert!((4.0..12.0).contains(&speedup), "speedup {speedup}%");
    }

    #[test]
    fn energy_is_power_times_time() {
        let exp = Experiment::power7plus(42);
        let a = Assignment::single_socket(&workload("vips"), 4).unwrap();
        let o = exp.run(&a, GuardbandMode::Undervolt).unwrap();
        assert!((o.energy.0 - o.total_power().0 * o.exec_time.0).abs() < 1e-9);
        assert!((o.edp - o.energy.0 * o.exec_time.0).abs() < 1e-9);
    }

    #[test]
    fn workload_heterogeneity_shows_in_eight_core_savings() {
        // Fig. 5a at eight cores: power-hungry swaptions keeps much less
        // of its benefit than memory-bound radix.
        let exp = Experiment::power7plus(42);
        let saving = |name: &str| {
            let a = Assignment::single_socket(&workload(name), 8).unwrap();
            exp.improvement_vs_static(&a, GuardbandMode::Undervolt)
                .unwrap()
                .0
        };
        let radix = saving("radix");
        let swaptions = saving("swaptions");
        assert!(
            radix > swaptions + 2.0,
            "radix {radix}% vs swaptions {swaptions}%"
        );
    }

    #[test]
    fn run_windows_are_bounded_on_both_sides() {
        assert!(validate_run_windows(0, 0).is_err(), "nothing measured");
        assert!(validate_run_windows(1, 0).is_ok());
        assert!(validate_run_windows(MAX_RUN_WINDOWS, 0).is_ok());
        assert!(validate_run_windows(1, MAX_RUN_WINDOWS - 1).is_ok());
        assert!(validate_run_windows(MAX_RUN_WINDOWS, 1).is_err());
        assert!(validate_run_windows(1, MAX_RUN_WINDOWS).is_err());
        assert!(
            validate_run_windows(usize::MAX, 1).is_err(),
            "the sum must not wrap"
        );
    }

    #[test]
    fn ticks_override_is_respected() {
        let exp = Experiment::power7plus(1).with_ticks(5, 2);
        let a = Assignment::single_socket(&workload("radix"), 2).unwrap();
        let o = exp.run(&a, GuardbandMode::StaticGuardband).unwrap();
        assert_eq!(o.summary.ticks_measured, 5);
    }
}
