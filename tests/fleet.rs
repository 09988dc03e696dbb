//! Determinism and trend guarantees of the fleet engine.
//!
//! The contract under test: a fleet campaign's serialized results are a
//! pure function of its [`FleetSpec`] — independent of the worker count,
//! of which worker claimed which shard, and of whether server-epochs came
//! from the solve cache or were simulated cold. Plus a seeded golden
//! trend: a flash crowd must look like a flash crowd.

use ags::fleet::{FleetEngine, FleetRunOptions, FleetSpec, TrafficModel};
use ags::sim::telemetry::{point_quarantines, point_retries};
use ags::sim::{RetryPolicy, SolveCache};
use proptest::prelude::*;
use std::sync::Arc;

/// An engine with its own private cache, so per-test hit/miss accounting
/// is not polluted by other tests in the same process.
fn engine(jobs: usize) -> FleetEngine {
    FleetEngine::with_cache(jobs, Arc::new(SolveCache::new()))
}

/// A campaign small enough for CI but sharded finely enough (2 servers
/// per shard) that multi-worker runs spread shards across workers.
fn sharded_spec(servers: usize, epochs: usize, traffic: TrafficModel, seed: u64) -> FleetSpec {
    let mut spec = FleetSpec::smoke()
        .with_scale(servers, epochs)
        .with_traffic(traffic)
        .with_seed(seed);
    spec.measure_ticks = 3;
    spec.warmup_ticks = 2;
    spec.shard_servers = 2;
    spec
}

#[test]
fn fleet_campaign_is_identical_at_one_two_and_eight_workers() {
    let spec = sharded_spec(14, 5, TrafficModel::Diurnal, 42);
    let baseline = engine(1).run(&spec).expect("serial fleet").results_json();
    for jobs in [2, 8] {
        let run = engine(jobs).run(&spec).expect("parallel fleet");
        assert_eq!(
            baseline,
            run.results_json(),
            "results diverged at {jobs} workers"
        );
    }
}

#[test]
fn warm_cache_reproduces_cold_results_exactly() {
    let spec = sharded_spec(8, 4, TrafficModel::RollingDeploy, 7);
    let e = engine(2);
    let cold = e.run(&spec).expect("cold fleet");
    let warm = e.run(&spec).expect("warm fleet");
    assert_eq!(cold.results_json(), warm.results_json());
    let stats = warm.stats.cache;
    assert_eq!(
        stats.misses, cold.stats.cache.misses,
        "the warm rerun must add no new solves"
    );
}

#[test]
fn every_active_server_epoch_is_one_cache_hit_or_miss() {
    // One solve request per active server-epoch: a cold run splits them
    // into hits and misses, every miss inserts one entry, and a warm
    // rerun answers every one of them from the cache.
    let spec = sharded_spec(12, 6, TrafficModel::FlashCrowd, 3);
    let e = engine(2);
    let cold = e.run(&spec).expect("cold fleet");
    let active = cold.stats.active_server_epochs as u64;
    let c = cold.stats.cache;
    assert!(c.hits > 0 && c.misses > 0, "{c:?}");
    assert_eq!(c.hits + c.misses, active, "{c:?}");
    assert_eq!(c.misses, c.entries as u64, "{c:?}");

    let w = e.run(&spec).expect("warm fleet").stats.cache;
    assert_eq!(w.hits, c.hits + active, "{w:?}");
    assert_eq!(w.misses, c.misses, "{w:?}");
}

#[test]
fn flash_crowd_golden_trend() {
    // Seeded golden-trend check: the campaign's power trajectory must
    // show the traffic shape — quiet baseline, a spike an order bigger,
    // then a monotone decay back toward the baseline.
    // 10 epochs: the excess (80 % over baseline, halved per epoch after
    // the spike at epoch 2) reaches zero by epoch 9.
    let spec = sharded_spec(16, 10, TrafficModel::FlashCrowd, 42);
    let report = engine(4).run(&spec).expect("flash-crowd fleet");
    let rollup = report.epoch_rollup();
    let power: Vec<f64> = rollup.iter().map(|r| r.fleet_power_w).collect();

    // Epochs 0 and 1 sit at the identical baseline operating point.
    assert!((power[0] - power[1]).abs() < 1e-9, "flat baseline");
    // The spike at epoch 2 dwarfs the baseline.
    assert!(power[2] > 3.0 * power[0], "spike: {power:?}");
    // Geometric decay: strictly falling until it reaches baseline.
    assert!(
        power[2] > power[3] && power[3] > power[4],
        "decay: {power:?}"
    );
    // The tail returns to the baseline exactly (same demand, same
    // operating points, memoized or not).
    assert!((power[9] - power[0]).abs() < 1e-9, "recovery: {power:?}");
    // Active-server counts follow the same shape.
    assert!(rollup[2].active_servers > rollup[0].active_servers);
    assert_eq!(rollup[9].active_servers, rollup[0].active_servers);
}

#[test]
fn every_traffic_model_places_exactly_its_demand() {
    for traffic in TrafficModel::all() {
        let spec = sharded_spec(10, 6, traffic, 3);
        let report = engine(2).run(&spec).expect("fleet");
        for r in report.epoch_rollup() {
            assert_eq!(r.threads, r.demand, "{traffic:?} epoch {}", r.epoch);
            assert_eq!(r.active_servers + r.standby_servers, spec.servers);
        }
    }
}

#[test]
fn a_panicking_shard_counts_one_retry_and_one_quarantine() {
    // Shards run through the executor's shared attempt loop, so their
    // panics land in the same counters as sweep points. No other test in
    // this file panics, so the deltas are exact.
    ags::obs::metrics::global().set_enabled(true);
    let (retries, quarantines) = (point_retries().get(), point_quarantines().get());
    let spec = sharded_spec(8, 2, TrafficModel::Diurnal, 5);
    let mut options = FleetRunOptions {
        panic_injector: Some(Arc::new(|shard| shard == 1)),
        ..FleetRunOptions::default()
    };
    options.durable.retry = RetryPolicy {
        max_attempts: 2,
        backoff_ms: 0,
    };
    let report = engine(2).run_durable(&spec, &options).expect("fleet");
    assert_eq!(report.failed_shards.len(), 1);
    assert_eq!(report.failed_shards[0].attempts, 2);
    assert_eq!(point_retries().get() - retries, 1, "one retry");
    assert_eq!(point_quarantines().get() - quarantines, 1, "one quarantine");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Scheduling never perturbs results: for random fleet shapes,
    /// traffic models and seeds, the serialized report is byte-identical
    /// at 1, 2 and 8 workers.
    #[test]
    fn worker_count_is_invisible_in_the_results(
        servers in 4usize..16,
        epochs in 2usize..6,
        traffic_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let traffic = TrafficModel::all()[traffic_idx];
        let spec = sharded_spec(servers, epochs, traffic, seed);
        let baseline = engine(1).run(&spec).expect("serial fleet").results_json();
        for jobs in [2, 8] {
            let run = engine(jobs).run(&spec).expect("parallel fleet");
            prop_assert_eq!(&baseline, &run.results_json(), "jobs {}", jobs);
        }
    }
}
