//! Determinism guarantees of the parallel sweep engine.
//!
//! The engine's contract: a sweep's serialized results are a pure
//! function of its [`SweepSpec`] — independent of the worker count, the
//! scheduling order, and whether the solves came from the memoization
//! cache or were computed cold. These tests pin that contract, including
//! a property test over randomly-shaped specs.

use ags::control::GuardbandMode;
use ags::faults::FaultPlan;
use ags::sim::{Placement, SolveCache, SweepEngine, SweepSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// An engine with its own private cache, so per-test hit/miss counts
/// are not polluted by other tests in the same process.
fn engine(jobs: usize) -> SweepEngine {
    SweepEngine::with_cache(jobs, Arc::new(SolveCache::new()))
}

#[test]
fn fig10_grid_is_identical_at_one_and_eight_workers() {
    let spec = SweepSpec::fig10_grid();
    let serial = engine(1).run(&spec).expect("serial sweep");
    let parallel = engine(8).run(&spec).expect("parallel sweep");
    assert_eq!(serial.results.len(), spec.len());
    assert_eq!(serial.results_json(), parallel.results_json());
}

#[test]
fn multi_dimension_grid_is_identical_across_worker_counts() {
    let spec = SweepSpec::new(
        vec!["raytrace".into(), "lu_cb".into(), "mcf".into()],
        vec![1, 4, 8],
    )
    .with_placements(vec![
        Placement::SingleSocket,
        Placement::Consolidated,
        Placement::Borrowed,
    ])
    .with_ticks(6, 3);
    let baseline = engine(1).run(&spec).expect("serial sweep").results_json();
    for jobs in [2, 3, 8, 16] {
        let run = engine(jobs).run(&spec).expect("parallel sweep");
        assert_eq!(
            baseline,
            run.results_json(),
            "results diverged at {jobs} workers"
        );
    }
}

#[test]
fn warm_cache_reproduces_cold_results_exactly() {
    let spec = SweepSpec::new(vec!["raytrace".into(), "gcc".into()], vec![2, 8]).with_ticks(6, 3);
    let e = engine(4);
    let cold = e.run(&spec).expect("cold sweep");
    assert_eq!(
        cold.stats.cache.misses,
        spec.len() as u64,
        "cold = all misses"
    );
    let warm = e.run(&spec).expect("warm sweep");
    assert_eq!(warm.stats.cache.hits, spec.len() as u64, "warm = all hits");
    assert_eq!(cold.results_json(), warm.results_json());

    // A completely fresh engine (new cache) also agrees with both.
    let fresh = engine(1).run(&spec).expect("fresh sweep");
    assert_eq!(fresh.results_json(), cold.results_json());
}

#[test]
fn mode_subsets_reproduce_full_grid_points() {
    // Workers claim all modes of an assignment block at once (chunk =
    // modes.len()) and solve them as one group. A single-mode spec makes
    // every block one point, while the full spec groups the three modes.
    // Both paths must produce identical outcomes point for point.
    let full = SweepSpec::new(vec!["raytrace".into(), "radix".into()], vec![2, 5]).with_ticks(5, 2);
    let full_report = engine(4).run(&full).expect("full sweep");
    for mode in MODES {
        let sub = full.clone().with_modes(vec![mode]);
        let sub_report = engine(3).run(&sub).expect("single-mode sweep");
        assert_eq!(sub_report.results.len(), 4);
        for r in &sub_report.results {
            let matching = full_report
                .outcome(&r.point.workload, r.point.cores, r.point.placement, mode)
                .expect("full grid covers the subset");
            assert_eq!(&r.outcome, matching, "point {:?}", r.point);
        }
    }
}

#[test]
fn results_are_ordered_by_grid_index() {
    let spec = SweepSpec::new(vec!["vips".into(), "radix".into()], vec![1, 2, 3]).with_ticks(4, 2);
    let report = engine(8).run(&spec).expect("sweep");
    let indices: Vec<usize> = report.results.iter().map(|r| r.point.index).collect();
    assert_eq!(indices, (0..spec.len()).collect::<Vec<_>>());
}

#[test]
fn spec_json_round_trip_preserves_results() {
    let spec = SweepSpec::new(vec!["raytrace".into()], vec![2, 4])
        .with_modes(vec![GuardbandMode::Undervolt])
        .with_seed(7)
        .with_ticks(5, 2);
    let reparsed = SweepSpec::from_json(&spec.to_json()).expect("round trip");
    assert_eq!(
        engine(2).run(&spec).expect("sweep").results_json(),
        engine(2).run(&reparsed).expect("sweep").results_json()
    );
}

const POOL: [&str; 6] = ["raytrace", "lu_cb", "mcf", "gcc", "vips", "radix"];
const MODES: [GuardbandMode; 3] = [
    GuardbandMode::StaticGuardband,
    GuardbandMode::Overclock,
    GuardbandMode::Undervolt,
];

/// Decodes a non-zero bitmask into the selected pool entries.
fn pick<T: Clone>(pool: &[T], mask: u32) -> Vec<T> {
    pool.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, v)| v.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_specs_are_worker_count_invariant(
        workload_mask in 1u32..64,
        core_mask in 1u32..256,
        mode_mask in 1u32..8,
        placement_mask in 1u32..8,
        seed in 0u64..1_000_000,
        measure in 3usize..6,
        warmup in 0usize..3,
    ) {
        let spec = SweepSpec::new(
            pick(&POOL.map(str::to_owned), workload_mask),
            (1..=8).filter(|c| core_mask & (1 << (c - 1)) != 0).collect(),
        )
        .with_modes(pick(&MODES, mode_mask))
        .with_placements(pick(&Placement::all(), placement_mask))
        .with_seed(seed)
        .with_ticks(measure, warmup);

        let serial = engine(1).run(&spec).expect("serial sweep");
        let parallel = engine(5).run(&spec).expect("parallel sweep");
        prop_assert_eq!(serial.results.len(), spec.len());
        prop_assert_eq!(serial.stats.cache.misses, spec.len() as u64);
        prop_assert_eq!(serial.results_json(), parallel.results_json());
    }

    #[test]
    fn faulted_sweeps_are_worker_count_invariant(
        scenario_idx in 0usize..32,
        plan_seed in 0u64..1_000_000,
        workload_mask in 1u32..64,
        core_mask in 1u32..256,
        seed in 0u64..1_000_000,
    ) {
        // Fault effects are pure functions of (plan, tick, socket), so a
        // faulted grid must stay bitwise identical at any worker count —
        // including plans whose stochastic effects draw from their seed.
        let scenarios = FaultPlan::scenarios();
        let mut plan = scenarios[scenario_idx % scenarios.len()].clone();
        plan.seed = plan_seed;
        let spec = SweepSpec::new(
            pick(&POOL.map(str::to_owned), workload_mask),
            (1..=8).filter(|c| core_mask & (1 << (c - 1)) != 0).collect(),
        )
        .with_modes(vec![GuardbandMode::StaticGuardband, GuardbandMode::Undervolt])
        .with_seed(seed)
        .with_ticks(5, 2)
        .with_faults(plan);

        let serial = engine(1).run(&spec).expect("serial faulted sweep");
        let parallel = engine(6).run(&spec).expect("parallel faulted sweep");
        prop_assert_eq!(serial.results.len(), spec.len());
        prop_assert_eq!(serial.results_json(), parallel.results_json());
    }
}
