//! Benchmarks of the fleet engine's campaign throughput.
//!
//! `fleet_campaign_cold` runs a small flash-crowd campaign from an empty
//! solve cache — every distinct operating point is simulated through the
//! 16-lane group path. `fleet_campaign_warm` reruns the same campaign on
//! the populated cache, so it times the probe/placement/rollup overhead
//! that remains once memoization has absorbed the solves. The pair is
//! the single-worker throughput number EXPERIMENTS.md quotes; the
//! jobs-scaling claim is measured separately with `ags fleet --jobs N`
//! on multi-core hardware (criterion pins one thread here).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use p7_fleet::{FleetEngine, FleetSpec, TrafficModel};
use p7_sim::SolveCache;

/// A campaign big enough to span several shards but small enough for a
/// bench iteration: 32 servers, one flash crowd.
fn bench_spec() -> FleetSpec {
    let mut spec = FleetSpec::smoke()
        .with_scale(32, 6)
        .with_traffic(TrafficModel::FlashCrowd);
    spec.measure_ticks = 4;
    spec.warmup_ticks = 2;
    spec
}

fn bench_campaign_cold(c: &mut Criterion) {
    let spec = bench_spec();
    c.bench_function("fleet_campaign_cold", |b| {
        b.iter(|| {
            let engine = FleetEngine::with_cache(1, Arc::new(SolveCache::new()));
            black_box(engine.run(&spec).expect("cold fleet campaign"))
        });
    });
}

fn bench_campaign_warm(c: &mut Criterion) {
    let spec = bench_spec();
    let engine = FleetEngine::with_cache(1, Arc::new(SolveCache::new()));
    engine.run(&spec).expect("cache-priming campaign");
    c.bench_function("fleet_campaign_warm", |b| {
        b.iter(|| black_box(engine.run(&spec).expect("warm fleet campaign")));
    });
}

criterion_group!(benches, bench_campaign_cold, bench_campaign_warm);
criterion_main!(benches);
