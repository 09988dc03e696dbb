//! Differential equivalence harness: batched SoA solver vs scalar oracle.
//!
//! The steady-state PDN solve runs through [`ags::sim::SolveBatch`] — a
//! structure-of-arrays kernel that solves several voltage lanes per
//! sweep of the fixed-point loop. The original one-point-at-a-time
//! solver is retained verbatim behind the `scalar-oracle` cargo feature
//! as a differential oracle, switched in with
//! [`ags::sim::Simulation::set_scalar_oracle`].
//!
//! Contract pinned here, over randomized experiments (healthy and
//! faulted), warm and cold solve starts, and the sweep engine's batched
//! claiming path:
//!
//! * every per-rail mean voltage agrees within
//!   [`ags::sim::SOLVE_TOLERANCE`] (in practice the kernel preserves the
//!   scalar loop's association order, so agreement is bitwise — the
//!   pinned tests assert full [`Outcome`] equality);
//! * degrade/violation decisions are identical: same margin-violation
//!   counts, same emitted events, same settled core frequencies.
//!
//! The proptest blocks below total ≥ 1000 cases.

#![cfg(feature = "scalar-oracle")]

use ags::control::GuardbandMode;
use ags::faults::FaultPlan;
use ags::sim::{
    Assignment, Experiment, Outcome, Placement, SimEvent, Simulation, SolveCache, SweepEngine,
    SweepSpec, SOLVE_TOLERANCE,
};
use ags::workloads::Catalog;
use proptest::prelude::*;
use std::sync::Arc;

const POOL: [&str; 6] = ["raytrace", "lu_cb", "mcf", "gcc", "vips", "radix"];

/// One solver path's observations: the outcome, the margin-violation
/// count, and the drained event log.
type RunObservation = (Outcome, u64, Vec<SimEvent>);

/// [`Experiment::run`] on an already-built simulation of `exp`.
fn run_sim(exp: &Experiment, sim: &mut Simulation) -> Outcome {
    let summary = sim.run(exp.measure_ticks(), exp.warmup_ticks());
    exp.outcome_from_summary(sim.assignment(), summary)
}

/// `(batched, oracle)` observations of the same experiment.
fn run_both(
    exp: &Experiment,
    assignment: &Assignment,
    mode: GuardbandMode,
) -> (RunObservation, RunObservation) {
    let run = |oracle: bool| {
        let mut sim = exp
            .build_simulation(assignment, mode)
            .expect("build simulation");
        sim.set_scalar_oracle(oracle);
        let outcome = run_sim(exp, &mut sim);
        (outcome, sim.margin_violations(), sim.take_events())
    };
    (run(false), run(true))
}

/// Asserts the ISSUE's equivalence contract between a batched outcome
/// and its oracle twin: per-rail voltages within [`SOLVE_TOLERANCE`],
/// identical frequency (degrade) decisions, identical power to the
/// same tolerance-driven slack.
fn assert_outcomes_equivalent(batched: &Outcome, oracle: &Outcome, label: &str) {
    assert_eq!(
        batched.summary.sockets.len(),
        oracle.summary.sockets.len(),
        "{label}: socket count"
    );
    for (s, (b, o)) in batched
        .summary
        .sockets
        .iter()
        .zip(&oracle.summary.sockets)
        .enumerate()
    {
        let set_gap = (b.avg_set_point - o.avg_set_point).0.abs();
        assert!(
            set_gap <= SOLVE_TOLERANCE.0,
            "{label}: socket {s} set point diverged by {} mV",
            set_gap * 1e3
        );
        for core in 0..b.avg_core_voltage.len() {
            let gap = (b.avg_core_voltage[core] - o.avg_core_voltage[core])
                .0
                .abs();
            assert!(
                gap <= SOLVE_TOLERANCE.0,
                "{label}: socket {s} core {core} voltage diverged by {} mV",
                gap * 1e3
            );
        }
        // DVFS/degrade decisions must agree exactly, not within a
        // tolerance: a different settled clock means the two paths took
        // different control decisions somewhere.
        assert_eq!(
            b.avg_core_freq, o.avg_core_freq,
            "{label}: socket {s} frequency decisions diverged"
        );
    }
    assert_eq!(
        batched.summary.ticks_measured, oracle.summary.ticks_measured,
        "{label}: measured window counts diverged"
    );
}

/// Full differential check for one `(experiment, assignment, mode)`
/// point: tolerance contract, decision equality, and — because the SoA
/// kernel preserves the scalar loop's floating-point association order —
/// outright bitwise outcome equality.
fn check_point(exp: &Experiment, assignment: &Assignment, mode: GuardbandMode, label: &str) {
    let ((outcome_b, violations_b, events_b), (outcome_o, violations_o, events_o)) =
        run_both(exp, assignment, mode);
    assert_outcomes_equivalent(&outcome_b, &outcome_o, label);
    assert_eq!(
        violations_b, violations_o,
        "{label}: margin-violation decisions diverged"
    );
    assert_eq!(events_b, events_o, "{label}: event logs diverged");
    assert_eq!(outcome_b, outcome_o, "{label}: outcomes not bit-identical");
}

/// Builds the assignment for a `(workload, cores, placement)` triple.
fn assignment(workload: &str, cores: usize, placement: Placement) -> Assignment {
    let profile = Catalog::power7plus().get(workload).unwrap().clone();
    placement.assignment(&profile, cores).expect("assignment")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(420))]

    /// Healthy randomized experiments: any workload, core count,
    /// placement, guardband mode, seed, and (short, debug-friendly)
    /// tick budget must solve identically on both paths.
    #[test]
    fn healthy_experiments_match_the_scalar_oracle(
        workload_idx in 0usize..6,
        cores in 1usize..=8,
        placement_idx in 0usize..3,
        mode_idx in 0usize..3,
        seed in 0u64..1_000_000,
        measure in 2usize..5,
        warmup in 0usize..3,
    ) {
        let mode = GuardbandMode::all()[mode_idx];
        let a = assignment(POOL[workload_idx], cores, Placement::all()[placement_idx]);
        let exp = Experiment::power7plus(seed).with_ticks(measure, warmup);
        check_point(&exp, &a, mode, "healthy");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(320))]

    /// Faulted randomized experiments: every named fault scenario (with
    /// a randomized plan seed) must leave the two paths in lockstep —
    /// same voltages, same violations, same degrade events.
    #[test]
    fn faulted_experiments_match_the_scalar_oracle(
        scenario_idx in 0usize..32,
        plan_seed in 0u64..1_000_000,
        workload_idx in 0usize..6,
        cores in 1usize..=8,
        mode_idx in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let scenarios = FaultPlan::scenarios();
        let mut plan = scenarios[scenario_idx % scenarios.len()].clone();
        plan.seed = plan_seed;
        let mode = GuardbandMode::all()[mode_idx];
        let a = assignment(POOL[workload_idx], cores, Placement::SingleSocket);
        let exp = Experiment::power7plus(seed)
            .with_ticks(4, 2)
            .with_faults(plan);
        check_point(&exp, &a, mode, "faulted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(260))]

    /// Warm/cold equivalence: every round builds fresh simulations (cold
    /// first solve, warm in-run seeds), which must agree across the two
    /// paths and reproduce the first round bitwise.
    #[test]
    fn repeated_runs_match_the_scalar_oracle(
        workload_idx in 0usize..6,
        cores in 1usize..=8,
        mode_idx in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let mode = GuardbandMode::all()[mode_idx];
        let a = assignment(POOL[workload_idx], cores, Placement::Consolidated);
        let exp = Experiment::power7plus(seed).with_ticks(3, 1);

        let mut first = None;
        for round in 0..3 {
            let mut batched = exp.build_simulation(&a, mode).expect("build");
            let mut oracle = exp.build_simulation(&a, mode).expect("build");
            oracle.set_scalar_oracle(true);
            let ob = run_sim(&exp, &mut batched);
            let oo = run_sim(&exp, &mut oracle);
            assert_outcomes_equivalent(&ob, &oo, "repeated");
            prop_assert_eq!(&ob, &oo, "round {}: paths diverged", round);
            match &first {
                None => first = Some(ob),
                Some(f) => prop_assert_eq!(
                    f, &ob, "round {}: rerun not bitwise-identical", round
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Jobs-invariance of the batched sweep path (mirrors
    /// `tests/sweep_determinism.rs`): the engine's whole-lane claiming
    /// and cache prefetch must not leak scheduling order into results.
    #[test]
    fn batched_sweeps_are_jobs_invariant(
        workload_mask in 1u32..64,
        core_mask in 1u32..256,
        mode_mask in 1u32..8,
        seed in 0u64..1_000_000,
    ) {
        let pick = |mask: u32, n: usize| -> Vec<usize> {
            (0..n).filter(|i| mask & (1 << i) != 0).collect()
        };
        let workloads: Vec<String> = pick(workload_mask, 6)
            .into_iter()
            .map(|i| POOL[i].to_owned())
            .collect();
        let cores: Vec<usize> = pick(core_mask, 8).into_iter().map(|c| c + 1).collect();
        let modes: Vec<GuardbandMode> = pick(mode_mask, 3)
            .into_iter()
            .map(|i| GuardbandMode::all()[i])
            .collect();
        prop_assume!(!workloads.is_empty() && !cores.is_empty() && !modes.is_empty());
        let spec = SweepSpec::new(workloads, cores)
            .with_modes(modes)
            .with_seed(seed)
            .with_ticks(3, 1);
        let serial = SweepEngine::with_cache(1, Arc::new(SolveCache::new()))
            .run(&spec)
            .expect("serial sweep");
        let parallel = SweepEngine::with_cache(6, Arc::new(SolveCache::new()))
            .run(&spec)
            .expect("parallel sweep");
        prop_assert_eq!(serial.results_json(), parallel.results_json());
    }
}

#[test]
fn paper_grid_outcomes_are_bit_identical() {
    // The Fig. 3 presentation points, at full default placements and
    // every guardband mode: the batched path must reproduce the oracle
    // outcome exactly (a strictly stronger pin than the tolerance
    // contract — any future reassociation of the kernel shows up here
    // first).
    for mode in GuardbandMode::all() {
        for (workload, cores) in [("raytrace", 4), ("lu_cb", 8), ("mcf", 2)] {
            let a = assignment(workload, cores, Placement::SingleSocket);
            let exp = Experiment::power7plus(7).with_ticks(10, 5);
            check_point(&exp, &a, mode, workload);
        }
    }
}

#[test]
fn sweep_results_match_oracle_reruns_point_for_point() {
    // The sweep engine claims whole mode-lanes per assignment block and
    // solves a block's misses as one group. Re-solving each grid
    // point individually on the oracle path must reproduce the sweep's
    // stored outcome: the batched sweep machinery adds nothing beyond
    // the solver itself. The 3-mode spec also exercises lane blocks
    // whose width differs from the solver's socket batch width.
    let spec = SweepSpec::new(vec!["raytrace".into(), "radix".into()], vec![2, 5])
        .with_seed(11)
        .with_ticks(4, 2);
    let report = SweepEngine::with_cache(4, Arc::new(SolveCache::new()))
        .run(&spec)
        .expect("sweep");
    assert_eq!(report.results.len(), spec.len());
    let catalog = Catalog::power7plus();
    for r in &report.results {
        let profile = catalog.get(&r.point.workload).unwrap();
        let a = r
            .point
            .placement
            .assignment(profile, r.point.cores)
            .expect("assignment");
        let exp = Experiment::power7plus(spec.point_seed(&r.point)).with_ticks(4, 2);
        let mut sim = exp.build_simulation(&a, r.point.mode).expect("build");
        sim.set_scalar_oracle(true);
        let oracle = run_sim(&exp, &mut sim);
        assert_outcomes_equivalent(&r.outcome, &oracle, "sweep point");
        assert_eq!(r.outcome, oracle, "sweep point {:?} diverged", r.point);
    }
}

#[test]
fn faulted_sweep_results_match_oracle_reruns() {
    // Same contract under an active fault plan: the per-lane fault
    // fingerprinting in the solve cache must hand back outcomes the
    // oracle path reproduces for the same plan.
    let plan = FaultPlan::named("dead-cpm").expect("scenario");
    let spec = SweepSpec::new(vec!["vips".into()], vec![3, 6])
        .with_modes(vec![GuardbandMode::Undervolt, GuardbandMode::Overclock])
        .with_seed(23)
        .with_ticks(4, 2)
        .with_faults(plan.clone());
    let report = SweepEngine::with_cache(3, Arc::new(SolveCache::new()))
        .run(&spec)
        .expect("faulted sweep");
    let catalog = Catalog::power7plus();
    for r in &report.results {
        let profile = catalog.get(&r.point.workload).unwrap();
        let a = r
            .point
            .placement
            .assignment(profile, r.point.cores)
            .expect("assignment");
        let exp = Experiment::power7plus(spec.point_seed(&r.point))
            .with_ticks(4, 2)
            .with_faults(plan.clone());
        let mut sim = exp.build_simulation(&a, r.point.mode).expect("build");
        sim.set_scalar_oracle(true);
        let oracle = run_sim(&exp, &mut sim);
        assert_eq!(
            r.outcome, oracle,
            "faulted sweep point {:?} diverged",
            r.point
        );
    }
}
