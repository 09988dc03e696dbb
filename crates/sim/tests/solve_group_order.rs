//! `SolveCache::solve_group` answers in request order and simulates only
//! the requests the cache cannot answer.
//!
//! The tick count is read from the process-global `ags_sim_ticks_total`
//! counter, so this file holds exactly one test: no sibling test thread
//! can tick while the delta is measured.

use p7_control::GuardbandMode;
use p7_sim::telemetry::sim_ticks;
use p7_sim::{
    assignment_fingerprint, experiment_fingerprint, Assignment, Experiment, SolveCache,
    SolveRequest,
};
use p7_workloads::Catalog;

#[test]
fn outcomes_follow_request_order_and_only_absent_keys_tick() {
    let (measure, warmup) = (5, 3);
    let experiment = Experiment::power7plus(21).with_ticks(measure, warmup);
    let catalog = Catalog::power7plus();
    let assignments: Vec<Assignment> = [("raytrace", 2), ("radix", 4), ("lu_cb", 1)]
        .into_iter()
        .map(|(name, cores)| Assignment::single_socket(catalog.get(name).unwrap(), cores).unwrap())
        .collect();
    let modes = [
        GuardbandMode::Undervolt,
        GuardbandMode::Overclock,
        GuardbandMode::StaticGuardband,
    ];
    let requests: Vec<SolveRequest<'_>> = assignments
        .iter()
        .zip(modes)
        .map(|(assignment, mode)| SolveRequest {
            experiment: &experiment,
            experiment_fp: experiment_fingerprint(&experiment),
            assignment,
            assignment_fp: assignment_fingerprint(assignment),
            mode,
        })
        .collect();

    // Seed the middle key only.
    let cache = SolveCache::new();
    let mut out = Vec::new();
    cache.solve_group::<8>(&requests[1..2], &mut out).unwrap();
    let seeded = cache.counters();
    assert_eq!((seeded.hits, seeded.misses), (0, 1));

    p7_obs::metrics::global().set_enabled(true);
    let ticks_before = sim_ticks().get();
    cache.solve_group::<8>(&requests, &mut out).unwrap();
    let ticked = sim_ticks().get() - ticks_before;
    p7_obs::metrics::global().set_enabled(false);

    assert_eq!(
        ticked,
        2 * (measure + warmup) as u64,
        "only the two absent keys may run"
    );
    let computed: Vec<bool> = out.iter().map(|(_, computed)| *computed).collect();
    assert_eq!(computed, [true, false, true]);
    for (r, (outcome, _)) in requests.iter().zip(&out) {
        assert_eq!(**outcome, experiment.run(r.assignment, r.mode).unwrap());
    }
    let after = cache.counters();
    assert_eq!((after.hits, after.misses), (1, 3));
}
