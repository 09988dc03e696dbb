//! Fault-injection campaign engine: how much adaptive-guardband benefit
//! survives sensor and telemetry failures when the safety supervisor is
//! watching.
//!
//! The paper's pitch is that CPM feedback lets firmware shave the static
//! guardband; the obvious objection is "and what happens when a CPM
//! lies?". This module answers it quantitatively. A campaign runs every
//! [`FaultPlan`] scenario through four solves per adaptive mode:
//!
//! 1. a fault-free **static** baseline,
//! 2. a fault-free **adaptive** run (the healthy benefit),
//! 3. the faulted adaptive run **with** the [`SafetySupervisor`]
//!    (`p7_control::SafetySupervisor`) degrading to static on implausible
//!    telemetry, and
//! 4. the faulted adaptive run **without** supervision (the exposure).
//!
//! Each scenario cell reports the fraction of the healthy energy saving
//! retained under fault, the margin-violation counts with and without the
//! supervisor, and the supervisor's trip/re-arm bookkeeping. Cells are
//! independent pure functions of the spec, run one per claim on the
//! campaign executor through [`crate::journal::run_durable_indexed`], so
//! a campaign is bitwise identical at any `--jobs` count and resumes
//! from its journal like a sweep.

use crate::assignment::Assignment;
use crate::error::SimError;
use crate::exec::Schedule;
use crate::experiment::{validate_run_windows, Experiment};
use crate::history::SimEvent;
use crate::journal::{run_durable_indexed, CampaignManifest, DurableOptions, FailedPoint};
use crate::telemetry;
use p7_control::{FirmwareController, GuardbandMode, SupervisorConfig};
use p7_faults::FaultPlan;
use p7_types::{SocketId, Volts};
use p7_workloads::Catalog;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A serializable description of one fault-injection campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceSpec {
    /// The fault scenarios to evaluate.
    pub scenarios: Vec<FaultPlan>,
    /// Adaptive guardband modes to stress under each scenario.
    pub modes: Vec<GuardbandMode>,
    /// Catalog name of the workload to run.
    pub workload: String,
    /// Active-core (thread) count on socket 0.
    pub cores: usize,
    /// Master seed of the fault-free silicon.
    pub seed: u64,
    /// Measured telemetry windows per run.
    pub measure_ticks: usize,
    /// Warm-up windows discarded before measuring (fault plans still
    /// replay from window 0, warm-up included).
    pub warmup_ticks: usize,
    /// Thresholds of the per-socket safety supervisors.
    pub supervisor: SupervisorConfig,
}

impl ResilienceSpec {
    /// The default campaign: every shipped scenario under undervolting —
    /// the mode where a lying sensor can walk the rail into the margin.
    #[must_use]
    pub fn power7plus() -> Self {
        ResilienceSpec {
            scenarios: FaultPlan::scenarios(),
            modes: vec![GuardbandMode::Undervolt],
            workload: "raytrace".to_owned(),
            cores: 4,
            seed: 42,
            measure_ticks: 50,
            warmup_ticks: 10,
            supervisor: SupervisorConfig::power7plus(),
        }
    }

    /// A fast CI smoke variant: same scenarios, shorter measurement.
    /// The window count still covers every shipped scenario's onset.
    #[must_use]
    pub fn smoke() -> Self {
        let mut spec = ResilienceSpec::power7plus();
        spec.measure_ticks = 45;
        spec.warmup_ticks = 5;
        spec
    }

    /// Number of campaign cells (`scenarios × modes`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios.len() * self.modes.len()
    }

    /// True when any dimension is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks the campaign is well-formed: non-empty dimensions, tick
    /// counts that pass [`validate_run_windows`], a known workload, a
    /// legal core count, valid scenarios (distinct names) and valid
    /// supervisor thresholds. Modes must be adaptive — a "static
    /// resilience" cell has no benefit to retain.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] describing the first violation.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), SimError> {
        if self.is_empty() {
            return Err(SimError::Resilience {
                reason: "campaign has an empty dimension".to_owned(),
            });
        }
        validate_run_windows(self.measure_ticks, self.warmup_ticks)?;
        catalog.require(&self.workload)?;
        if !(1..=8).contains(&self.cores) {
            return Err(SimError::InvalidAssignment {
                reason: format!("campaign core count {} outside 1..=8", self.cores),
            });
        }
        for mode in &self.modes {
            if !mode.is_adaptive() {
                return Err(SimError::Resilience {
                    reason: "campaign modes must be adaptive (static is the baseline)".to_owned(),
                });
            }
        }
        for (i, scenario) in self.scenarios.iter().enumerate() {
            scenario.validate().map_err(|reason| SimError::Resilience {
                reason: format!("scenario '{}': {reason}", scenario.name),
            })?;
            if self.scenarios[..i].iter().any(|s| s.name == scenario.name) {
                return Err(SimError::Resilience {
                    reason: format!("duplicate scenario name '{}'", scenario.name),
                });
            }
        }
        self.supervisor
            .validate()
            .map_err(|reason| SimError::Resilience { reason })?;
        Ok(())
    }

    /// Runs the campaign across `jobs` workers (0 = available
    /// parallelism). Results are ordered scenario-major regardless of
    /// scheduling, and every cell is a pure function of the spec, so the
    /// report is identical at any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the spec is invalid or a solve fails;
    /// with several failures the lowest-indexed cell's error is reported.
    pub fn run(&self, jobs: usize) -> Result<ResilienceReport, SimError> {
        self.run_durable(jobs, &DurableOptions::default())
    }

    /// The campaign identity a journal of this spec is stamped with.
    #[must_use]
    pub fn manifest(&self) -> CampaignManifest {
        CampaignManifest::new("resilience", self.seed, serde::json::to_string(self))
    }

    /// [`ResilienceSpec::run`] with the durability contract: an optional
    /// crash-consistent journal of completed cells (resumable after a
    /// crash or SIGKILL), per-cell panic isolation with bounded retries
    /// and quarantine into [`ResilienceReport::failed_cells`], and
    /// cooperative cancellation.
    ///
    /// # Errors
    ///
    /// Everything [`ResilienceSpec::run`] reports, plus
    /// [`SimError::Journal`] for journal I/O or manifest mismatch and
    /// [`SimError::Interrupted`] when the cancel token fired (the
    /// journal, if any, is flushed first).
    pub fn run_durable(
        &self,
        jobs: usize,
        durable: &DurableOptions,
    ) -> Result<ResilienceReport, SimError> {
        let catalog = Catalog::shared();
        self.validate(catalog)?;
        let profile = catalog.require(&self.workload)?.clone();
        let assignment = Assignment::single_socket(&profile, self.cores)?;
        let cells: Vec<(usize, usize)> = (0..self.scenarios.len())
            .flat_map(|s| (0..self.modes.len()).map(move |m| (s, m)))
            .collect();

        let opened = durable
            .journal
            .open_with(|| self.manifest(), durable.fs.clone())?;
        let solved = run_durable_indexed(
            Schedule::new(jobs, 1, "sweep_point", telemetry::sweep_points_claimed()),
            cells.len(),
            || (),
            |(), idx| {
                let (s, m) = cells[idx];
                // Cells are never memoized, so every one is journal-worthy.
                self.run_cell(&assignment, &self.scenarios[s], self.modes[m])
                    .map(|cell| (cell, true))
            },
            |idx, cell: &ScenarioResult| {
                let (s, m) = cells[idx];
                cell.scenario == self.scenarios[s].name && cell.mode == self.modes[m]
            },
            opened,
            durable,
        )?;

        Ok(ResilienceReport {
            spec: self.clone(),
            results: solved.results.into_iter().flatten().collect(),
            failed_cells: solved.failed,
        })
    }

    /// One campaign cell: baseline, healthy, supervised and unsupervised
    /// solves for a (scenario, mode) pair.
    fn run_cell(
        &self,
        assignment: &Assignment,
        scenario: &FaultPlan,
        mode: GuardbandMode,
    ) -> Result<ScenarioResult, SimError> {
        let healthy_exp =
            Experiment::power7plus(self.seed).with_ticks(self.measure_ticks, self.warmup_ticks);
        let baseline = healthy_exp.run(assignment, GuardbandMode::StaticGuardband)?;
        let healthy = healthy_exp.run(assignment, mode)?;
        let faulted_exp = healthy_exp.clone().with_faults(scenario.clone());

        // Supervised faulted run, with the full window trace so the
        // rail-floor check sees every transient, warm-up included.
        let mut sim = faulted_exp.build_simulation(assignment, mode)?;
        sim.enable_supervisor(self.supervisor)?;
        let (supervised, history) = sim.run_with_history(self.measure_ticks, self.warmup_ticks);
        let floor = FirmwareController::new(
            healthy_exp.config().target_frequency,
            healthy_exp.config().policy.clone(),
        )?
        .voltage_floor(&healthy_exp.config().curve);
        let min_set_point = history
            .records()
            .iter()
            .flat_map(|r| r.sockets.iter().map(|s| s.set_point))
            .fold(Volts(f64::MAX), Volts::min);
        let (mut trips, mut rearms, mut degraded_windows) = (0u64, 0u64, 0u64);
        for socket in SocketId::all() {
            let sup = sim.supervisor(socket).expect("supervisor enabled above");
            trips += u64::from(sup.trips());
            rearms += u64::from(sup.rearms());
            degraded_windows += sup.degraded_windows();
        }
        let margin_violations = sim.margin_violations();

        // Unsupervised exposure: same fault plan, nothing watching.
        let mut unsupervised_sim = faulted_exp.build_simulation(assignment, mode)?;
        unsupervised_sim.run(self.measure_ticks, self.warmup_ticks);
        let unsupervised_violations = unsupervised_sim.margin_violations();

        let baseline_power = baseline.chip_power().0;
        let healthy_saving_percent =
            (baseline_power - healthy.chip_power().0) / baseline_power * 100.0;
        let faulted_saving_percent =
            (baseline_power - supervised.socket0().avg_power.0) / baseline_power * 100.0;
        let savings_retained_percent = if healthy_saving_percent.abs() < 1e-6 {
            100.0
        } else {
            faulted_saving_percent / healthy_saving_percent * 100.0
        };
        Ok(ScenarioResult {
            scenario: scenario.name.clone(),
            mode,
            healthy_saving_percent,
            faulted_saving_percent,
            savings_retained_percent,
            margin_violations,
            unsupervised_violations,
            trips,
            rearms,
            degraded_windows,
            min_set_point,
            floor,
            events: history.events().to_vec(),
        })
    }
}

/// One (scenario, mode) cell of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Name of the fault scenario.
    pub scenario: String,
    /// The adaptive mode under test.
    pub mode: GuardbandMode,
    /// Socket-0 power saving of the fault-free adaptive run over the
    /// static baseline, percent.
    pub healthy_saving_percent: f64,
    /// Socket-0 power saving of the supervised faulted run, percent.
    pub faulted_saving_percent: f64,
    /// `faulted / healthy` saving, percent — the headline "how much of
    /// the benefit survives the fault" number.
    pub savings_retained_percent: f64,
    /// Margin violations in the supervised faulted run (see
    /// [`crate::server::Simulation::margin_violations`]).
    pub margin_violations: u64,
    /// Margin violations in the same faulted run with no supervisor.
    pub unsupervised_violations: u64,
    /// Supervisor trips across both sockets.
    pub trips: u64,
    /// Supervisor re-arms across both sockets.
    pub rearms: u64,
    /// Windows spent degraded to static, across both sockets.
    pub degraded_windows: u64,
    /// The lowest rail set point any socket reached in the supervised
    /// run, warm-up included.
    pub min_set_point: Volts,
    /// The firmware's residual-guardband voltage floor.
    pub floor: Volts,
    /// Fault and supervisor events of the supervised run, in order.
    pub events: Vec<SimEvent>,
}

impl ScenarioResult {
    /// True when the rail never went below the firmware floor.
    #[must_use]
    pub fn floor_respected(&self) -> bool {
        self.min_set_point >= self.floor - Volts(1e-9)
    }
}

/// The merged, scenario-ordered output of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// The spec that was run.
    pub spec: ResilienceSpec,
    /// One result per (scenario, mode) cell, scenario-major.
    /// Quarantined cells are absent here and listed in
    /// [`ResilienceReport::failed_cells`] instead.
    pub results: Vec<ScenarioResult>,
    /// Cells quarantined after bounded panic retries, ordered by index.
    /// Empty on a healthy campaign.
    pub failed_cells: Vec<FailedPoint>,
}

impl ResilienceReport {
    /// The result of one cell, if it was part of the campaign.
    #[must_use]
    pub fn get(&self, scenario: &str, mode: GuardbandMode) -> Option<&ScenarioResult> {
        self.results
            .iter()
            .find(|r| r.scenario == scenario && r.mode == mode)
    }

    /// True when every cell actually ran (none quarantined), no
    /// supervised cell violated the margin and every rail stayed at or
    /// above the firmware floor — the campaign's safety acceptance gate.
    #[must_use]
    pub fn all_safe(&self) -> bool {
        self.failed_cells.is_empty()
            && self
                .results
                .iter()
                .all(|r| r.margin_violations == 0 && r.floor_respected())
    }

    /// The deterministic payload: the results serialized as JSON.
    /// Identical at any worker count.
    #[must_use]
    pub fn results_json(&self) -> String {
        serde::json::to_string(&self.results)
    }

    /// The one-line campaign verdict `ags resilience` prints after the
    /// table (and the quarantine section, if any): cell count, safety
    /// verdict, and the supervised/unsupervised violation totals.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "campaign: {} cells, {} — supervised margin violations: {}, unsupervised: {}\n",
            self.results.len(),
            if self.all_safe() {
                "all safe"
            } else {
                "UNSAFE"
            },
            self.results
                .iter()
                .map(|r| r.margin_violations)
                .sum::<u64>(),
            self.results
                .iter()
                .map(|r| r.unsupervised_violations)
                .sum::<u64>()
        )
    }

    /// A human-readable fixed-width table, one row per cell.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:<10} {:>9} {:>9} {:>9} {:>6} {:>8} {:>6} {:>7} {:>6}",
            "scenario",
            "mode",
            "healthy%",
            "faulted%",
            "retained%",
            "viol",
            "unsup",
            "trips",
            "rearms",
            "floor"
        );
        for r in &self.results {
            let _ = writeln!(
                out,
                "{:<18} {:<10} {:>9.2} {:>9.2} {:>9.1} {:>6} {:>8} {:>6} {:>7} {:>6}",
                r.scenario,
                r.mode.to_string(),
                r.healthy_saving_percent,
                r.faulted_saving_percent,
                r.savings_retained_percent,
                r.margin_violations,
                r.unsupervised_violations,
                r.trips,
                r.rearms,
                if r.floor_respected() { "ok" } else { "BREACH" }
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::MAX_RUN_WINDOWS;

    fn quick_spec() -> ResilienceSpec {
        let mut spec = ResilienceSpec::smoke();
        // One benign and one disruptive scenario keep the unit test fast;
        // the full campaign runs in tests/resilience.rs.
        spec.scenarios = vec![
            FaultPlan::named("dead-cpm").unwrap(),
            FaultPlan::named("droop-storm").unwrap(),
        ];
        spec
    }

    #[test]
    fn validate_rejects_malformed_campaigns() {
        let catalog = Catalog::power7plus();
        assert!(quick_spec().validate(&catalog).is_ok());

        let mut unknown = quick_spec();
        unknown.workload = "nope".to_owned();
        assert!(matches!(
            unknown.validate(&catalog),
            Err(SimError::Workload(_))
        ));

        let mut static_mode = quick_spec();
        static_mode.modes = vec![GuardbandMode::StaticGuardband];
        assert!(matches!(
            static_mode.validate(&catalog),
            Err(SimError::Resilience { .. })
        ));

        let mut dup = quick_spec();
        let copy = dup.scenarios[0].clone();
        dup.scenarios.push(copy);
        assert!(matches!(
            dup.validate(&catalog),
            Err(SimError::Resilience { .. })
        ));

        let mut empty = quick_spec();
        empty.scenarios.clear();
        assert!(matches!(
            empty.validate(&catalog),
            Err(SimError::Resilience { .. })
        ));
    }

    #[test]
    fn validate_bounds_run_windows() {
        let catalog = Catalog::power7plus();
        let mut spec = quick_spec();
        spec.measure_ticks = MAX_RUN_WINDOWS - spec.warmup_ticks;
        assert!(spec.validate(&catalog).is_ok());
        spec.measure_ticks += 1;
        assert!(matches!(
            spec.validate(&catalog),
            Err(SimError::Spec { .. })
        ));
        spec.measure_ticks = 0;
        assert!(spec.validate(&catalog).is_err());
    }

    #[test]
    fn campaign_is_identical_at_any_worker_count() {
        let spec = quick_spec();
        let serial = spec.run(1).unwrap();
        let wide = spec.run(4).unwrap();
        assert_eq!(serial.results_json(), wide.results_json());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = quick_spec();
        let json = serde::json::to_string(&spec);
        let back: ResilienceSpec = serde::json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn report_lookup_and_table_cover_every_cell() {
        let spec = quick_spec();
        let report = spec.run(0).unwrap();
        assert_eq!(report.results.len(), spec.len());
        assert!(report.get("dead-cpm", GuardbandMode::Undervolt).is_some());
        assert!(report.get("dead-cpm", GuardbandMode::Overclock).is_none());
        let table = report.table();
        assert_eq!(table.lines().count(), 1 + report.results.len());
        assert!(table.contains("droop-storm"));
    }
}
