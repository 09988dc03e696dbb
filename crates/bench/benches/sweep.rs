//! Benchmarks for the parallel sweep engine against the seed's serial
//! per-binary loops.
//!
//! The "seed path" bench reproduces what the pre-engine figure binaries
//! did per grid cell: re-run the static baseline alongside every adaptive
//! mode (`improvement_vs_static` style), with no memoization and no
//! sharing between figures. The engine benches run the same grid through
//! `SweepEngine` — cold (private cache) and warm (second sweep over a
//! populated cache). The cold/warm pair is the number EXPERIMENTS.md
//! quotes for the memoization speedup.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use p7_control::GuardbandMode;
use p7_sim::{
    Assignment, DurableOptions, Experiment, SolveCache, SweepEngine, SweepRunOptions, SweepSpec,
};
use p7_workloads::Catalog;

const WORKLOADS: [&str; 3] = ["raytrace", "lu_cb", "mcf"];
const CORES: [usize; 3] = [2, 4, 8];

fn bench_spec() -> SweepSpec {
    SweepSpec::new(
        WORKLOADS.iter().map(|s| (*s).to_owned()).collect(),
        CORES.to_vec(),
    )
    .with_ticks(10, 5)
}

fn seed_serial_path(c: &mut Criterion) {
    let catalog = Catalog::power7plus();
    c.bench_function("sweep_seed_serial_path", |b| {
        b.iter(|| {
            // The old loops: per cell, each adaptive mode re-ran its own
            // static baseline, and nothing was shared across cells.
            let mut acc = 0.0;
            for name in WORKLOADS {
                let w = catalog.get(name).unwrap();
                for cores in CORES {
                    let spec = bench_spec();
                    let exp = Experiment::power7plus(42)
                        .with_ticks(spec.measure_ticks, spec.warmup_ticks);
                    let a = Assignment::single_socket(w, cores).unwrap();
                    for mode in [GuardbandMode::Undervolt, GuardbandMode::Overclock] {
                        let st = exp.run(&a, GuardbandMode::StaticGuardband).unwrap();
                        let ad = exp.run(&a, mode).unwrap();
                        acc += st.chip_power().0 - ad.chip_power().0;
                    }
                }
            }
            black_box(acc)
        });
    });
}

fn engine_cold(c: &mut Criterion) {
    let spec = bench_spec();
    c.bench_function("sweep_engine_cold", |b| {
        b.iter(|| {
            let engine = SweepEngine::with_cache(1, Arc::new(SolveCache::new()));
            black_box(engine.run(&spec).unwrap().stats.cache.misses)
        });
    });
}

fn engine_warm(c: &mut Criterion) {
    let spec = bench_spec();
    let engine = SweepEngine::with_cache(1, Arc::new(SolveCache::new()));
    engine.run(&spec).unwrap();
    c.bench_function("sweep_engine_warm", |b| {
        b.iter(|| black_box(engine.run(&spec).unwrap().stats.cache.hits));
    });
}

/// The campaign-scale grid the journal-overhead pair runs on: large
/// enough (1152 points) that the journal's fixed cost — one fsynced
/// manifest write per run — amortizes the way it does on a real
/// campaign, instead of dominating a micro sweep.
fn campaign_spec() -> SweepSpec {
    use p7_sim::Placement;
    SweepSpec::new(
        [
            "raytrace",
            "lu_cb",
            "mcf",
            "gcc",
            "bwaves",
            "namd",
            "ferret",
            "freqmine",
            "swaptions",
            "radix",
            "barnes",
            "fft",
            "hmmer",
            "sjeng",
            "milc",
            "povray",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect(),
        vec![1, 2, 3, 4, 5, 6, 7, 8],
    )
    .with_placements(vec![
        Placement::SingleSocket,
        Placement::Consolidated,
        Placement::Borrowed,
    ])
    .with_modes(vec![
        GuardbandMode::StaticGuardband,
        GuardbandMode::Undervolt,
        GuardbandMode::Overclock,
    ])
    .with_ticks(10, 5)
}

fn engine_campaign_warm(c: &mut Criterion) {
    let spec = campaign_spec();
    let engine = SweepEngine::with_cache(1, Arc::new(SolveCache::new()));
    engine.run(&spec).unwrap();
    c.bench_function("sweep_campaign_warm", |b| {
        b.iter(|| black_box(engine.run(&spec).unwrap().stats.cache.hits));
    });
}

fn engine_campaign_warm_journaled(c: &mut Criterion) {
    // The campaign-scale warm sweep with a fresh crash-consistent journal
    // per run: the delta against `sweep_campaign_warm` is the checkpoint
    // overhead EXPERIMENTS.md quotes. Memoization hits are not journaled
    // (they cost nothing to reproduce on resume), so a fully warm run
    // pays only the fixed manifest write.
    let spec = campaign_spec();
    let engine = SweepEngine::with_cache(1, Arc::new(SolveCache::new()));
    engine.run(&spec).unwrap();
    let base = std::env::temp_dir().join(format!("ags-bench-journal-{}", std::process::id()));
    std::fs::create_dir_all(&base).ok();
    let mut run = 0u64;
    c.bench_function("sweep_campaign_warm_journaled", |b| {
        b.iter(|| {
            // Each run needs a fresh journal directory; cleanup happens
            // once at the end so only journal writes land in the timing.
            run += 1;
            let dir = base.join(run.to_string());
            let options = SweepRunOptions {
                durable: DurableOptions::journaled(&dir),
                panic_injector: None,
            };
            let hits = engine
                .run_durable(&spec, &options)
                .unwrap()
                .stats
                .cache
                .hits;
            black_box(hits)
        });
    });
    std::fs::remove_dir_all(&base).ok();
}

criterion_group!(
    name = sweep;
    config = Criterion::default().sample_size(10);
    targets = seed_serial_path, engine_cold, engine_warm,
        engine_campaign_warm, engine_campaign_warm_journaled
);
criterion_main!(sweep);
