//! The in-process workloads: `sweep-cold`, `sweep-warm` and
//! `fleet-diurnal`. Each times whole calls into the engines' public entry
//! points (`SweepEngine::run`, `FleetEngine::run`, and the report
//! renderers) at one worker, and reads the program's own spans and
//! counters in the traced run.

use crate::probe::{self, Scratch};
use crate::record::Record;
use crate::spans::{self, Kind, SpanStats};
use crate::stats;
use crate::{RunConfig, Workload};
use p7_control::GuardbandMode;
use p7_fleet::{FleetEngine, FleetSpec};
use p7_obs::{metrics, trace};
use p7_sim::{Placement, SolveCache, SweepEngine, SweepSpec};
use p7_workloads::Catalog;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine workers for every load: one. On a two-vCPU host parallel runs
/// are bimodal (see the README), so worker scaling is not measured.
const JOBS: usize = 1;

/// Trace-ring capacity for traced operations: one cold 2025-point sweep
/// records about 550 k spans, all of which must fit (`spans_dropped`).
const RING_CAPACITY: usize = 1 << 20;

/// The sweep grid of both sweep workloads: every scatter-set workload ×
/// cores {1,2,4,6,8} × all three modes × all three placements, at 60
/// measured / 30 warm-up windows — 2025 points for the default catalog.
#[must_use]
pub fn sweep_grid(seed: u64, smoke: bool) -> SweepSpec {
    let catalog = Catalog::power7plus();
    let mut names: Vec<String> = catalog
        .scatter_set()
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
    let (cores, ticks) = if smoke {
        names.truncate(3);
        (vec![1, 8], (4, 2))
    } else {
        (vec![1, 2, 4, 6, 8], (60, 30))
    };
    SweepSpec::new(names, cores)
        .with_modes(GuardbandMode::all().to_vec())
        .with_placements(Placement::all().to_vec())
        .with_seed(probe::Rng::new(seed, "sweep-grid").next_u64())
        .with_ticks(ticks.0, ticks.1)
}

/// The fleet campaign: `FleetSpec::power7plus()` (1000 servers × 24
/// diurnal epochs at 12/6 windows) under a seed derived from `seed`.
#[must_use]
pub fn fleet_spec(seed: u64, smoke: bool) -> FleetSpec {
    let spec = FleetSpec::power7plus().with_seed(probe::Rng::new(seed, "fleet").next_u64());
    if smoke {
        let mut spec = spec.with_scale(24, 4);
        spec.measure_ticks = 4;
        spec.warmup_ticks = 2;
        spec
    } else {
        spec
    }
}

/// What one timed operation produced.
struct Op {
    /// Wall time of the whole operation (engine run plus render), ms.
    total_ms: f64,
    /// Engine run alone, ms.
    run_ms: f64,
    render_ms: f64,
    /// Grid points or server-epochs completed.
    items: usize,
    /// Server-epochs that ran load (fleet only).
    active: usize,
    /// Cache hits and misses of this operation alone.
    hits: u64,
    misses: u64,
    /// Entries the cache held afterwards.
    entries: usize,
    /// Quarantined points or shards.
    quarantined: usize,
    /// FNV-64 of the deterministic results payload.
    digest: String,
}

/// The state a workload sets up before its first timed operation.
enum Prepared {
    Sweep {
        spec: SweepSpec,
        /// The engine whose cache the set-up run primes (`sweep-warm`),
        /// or `None` for a fresh cache per operation (`sweep-cold`).
        warm: Option<SweepEngine>,
    },
    Fleet {
        spec: FleetSpec,
        /// The cache of the latest operation, kept for the traced
        /// warm-epoch measurement.
        last_cache: Option<Arc<SolveCache>>,
    },
}

impl Prepared {
    fn run(&mut self) -> Result<Op, String> {
        match self {
            Prepared::Sweep { spec, warm } => {
                let started = Instant::now();
                let fresh;
                let engine = match warm {
                    Some(engine) => &*engine,
                    None => {
                        fresh = SweepEngine::with_cache(JOBS, Arc::new(SolveCache::new()));
                        &fresh
                    }
                };
                // A primed cache's counters include the priming run.
                let before = engine.cache().counters();
                let report = engine.run(spec).map_err(|e| format!("sweep: {e}"))?;
                let run_ms = ms(started.elapsed());
                let rendered = Instant::now();
                black_box(report.render_table());
                let render_ms = ms(rendered.elapsed());
                Ok(Op {
                    total_ms: ms(started.elapsed()),
                    run_ms,
                    render_ms,
                    items: report.results.len(),
                    active: 0,
                    hits: report.stats.cache.hits - before.hits,
                    misses: report.stats.cache.misses - before.misses,
                    entries: report.stats.cache.entries,
                    quarantined: report.failed_points.len(),
                    digest: probe::digest(report.results_json().as_bytes()),
                })
            }
            Prepared::Fleet { spec, last_cache } => {
                let started = Instant::now();
                let cache = Arc::new(SolveCache::new());
                let report = FleetEngine::with_cache(JOBS, Arc::clone(&cache))
                    .run(spec)
                    .map_err(|e| format!("fleet: {e}"))?;
                let run_ms = ms(started.elapsed());
                let rendered = Instant::now();
                black_box(report.table());
                let render_ms = ms(rendered.elapsed());
                *last_cache = Some(cache);
                Ok(Op {
                    total_ms: ms(started.elapsed()),
                    run_ms,
                    render_ms,
                    items: spec.servers * spec.epochs,
                    active: report.stats.active_server_epochs,
                    hits: report.stats.cache.hits,
                    misses: report.stats.cache.misses,
                    entries: report.stats.cache.entries,
                    quarantined: report.failed_shards.len(),
                    digest: probe::digest(report.results_json().as_bytes()),
                })
            }
        }
    }
}

/// Counters read from the metrics registry around traced operations.
#[derive(Default)]
struct Counters {
    ticks: f64,
    occupancy_sum: f64,
    occupancy_count: f64,
}

impl Counters {
    fn add(&mut self, before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) {
        let d = |s: &str| probe::delta(before, after, s);
        self.ticks += d("ags_sim_ticks_total");
        self.occupancy_sum += d("ags_solve_batch_occupancy_sum");
        self.occupancy_count += d("ags_solve_batch_occupancy_count");
    }
}

fn scrape() -> BTreeMap<String, f64> {
    probe::parse_prometheus(&metrics::global().render_prometheus())
}

/// Runs `f` with spans and counters recorded, folding them into `spans`
/// and `counters`; returns `f`'s result and the spans dropped.
fn traced<T>(spans: &mut SpanStats, counters: &mut Counters, f: impl FnOnce() -> T) -> (T, u64) {
    let _ = trace::collect();
    let before = scrape();
    metrics::global().set_enabled(true);
    trace::enable_with_capacity(RING_CAPACITY);
    let out = f();
    trace::disable();
    metrics::global().set_enabled(false);
    let dropped = trace::dropped();
    spans.add(&spans::from_ring(&trace::collect()));
    counters.add(&before, &scrape());
    (out, dropped)
}

/// Measures one in-process workload. `ready` is called once set-up is
/// done, right before the first timed operation.
///
/// # Errors
///
/// Reports a set-up failure (an invalid spec, an unwritable scratch
/// directory); failed operations are counted in the record instead.
pub fn measure(
    workload: Workload,
    cfg: &RunConfig,
    ready: &mut dyn FnMut(),
) -> Result<Record, String> {
    let mut record = Record {
        workload: workload.name().to_owned(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: cfg.trace,
        ..Record::default()
    };
    let mut spans = SpanStats::default();
    let mut counters = Counters::default();
    let mut dropped = 0u64;

    let mut prepared = match workload {
        Workload::SweepCold | Workload::SweepWarm => Prepared::Sweep {
            spec: sweep_grid(cfg.seed, cfg.smoke),
            warm: (workload == Workload::SweepWarm)
                .then(|| SweepEngine::with_cache(JOBS, Arc::new(SolveCache::new()))),
        },
        Workload::FleetDiurnal => Prepared::Fleet {
            spec: fleet_spec(cfg.seed, cfg.smoke),
            last_cache: None,
        },
        Workload::ServeMixed => unreachable!("serve-mixed runs out of process"),
    };
    // One untimed operation ends set-up. On `sweep-warm` it primes the
    // cache; elsewhere it takes a process's first-run costs (page faults,
    // allocator growth) out of the timed runs. Its digest is the
    // reference every timed run must match. Warm runs tick zero times, so
    // the traced run takes its tick and solve spans from the priming run.
    let first = if cfg.trace && workload == Workload::SweepWarm {
        let (op, lost) = traced(&mut spans, &mut Counters::default(), || prepared.run());
        dropped += lost;
        op
    } else {
        prepared.run()
    }
    .map_err(|e| format!("set-up run: {e}"))?;
    if first.quarantined > 0 {
        return Err(format!("set-up run: {} quarantined", first.quarantined));
    }
    let label = if workload == Workload::SweepWarm {
        "prime"
    } else {
        "run"
    };
    record.digests.push(format!("{label}:{}", first.digest));
    let reference = first.digest;
    ready();
    if cfg.setup_only {
        return Ok(record);
    }

    let calib_before = probe::calib_ms();
    let min_ops = if cfg.trace { 4 } else { 3 };
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut plain: Vec<Op> = Vec::new();
    let mut with_spans: Vec<Op> = Vec::new();
    let mut op_index = 0usize;
    while op_index < min_ops || Instant::now() < deadline {
        // The traced run alternates: odd operations record spans, even
        // ones do not, and the two sets give the tracing overhead.
        let trace_this = cfg.trace && op_index % 2 == 1;
        op_index += 1;
        record.attempted += 1;
        let op = if trace_this {
            let (op, lost) = traced(&mut spans, &mut counters, || prepared.run());
            dropped += lost;
            op
        } else {
            prepared.run()
        };
        let op = match op {
            Ok(op) => op,
            Err(e) => {
                record.fail(e);
                continue;
            }
        };
        if op.quarantined > 0 {
            record.fail(format!(
                "operation {op_index}: {} quarantined",
                op.quarantined
            ));
        } else if op.digest != reference {
            record.fail(format!(
                "operation {op_index}: results digest {} differs from {reference}",
                op.digest
            ));
        }
        if trace_this {
            with_spans.push(op);
        } else {
            plain.push(op);
        }
    }
    let calib_after = probe::calib_ms();

    let all: Vec<&Op> = plain.iter().chain(&with_spans).collect();
    let op_ms: Vec<f64> = plain.iter().map(|o| o.total_ms).collect();
    let rates: Vec<f64> = plain
        .iter()
        .map(|o| o.items as f64 / (o.total_ms / 1e3))
        .collect();
    record.put_samples("throughput", "items/s", &rates);
    record.put_samples("latency_p50_ms", "ms", &op_ms);
    record.put_percentile("latency_p90_ms", "ms", &op_ms, 90.0);
    record.put_value("peak_rss_mb", "MB", probe::peak_rss_mb("self")?);
    record.put_samples(
        "render_ms",
        "ms",
        &all.iter().map(|o| o.render_ms).collect::<Vec<_>>(),
    );

    let points: Vec<f64> = plain
        .iter()
        .map(|o| o.run_ms * 1e6 / o.items.max(1) as f64)
        .collect();
    match workload {
        Workload::SweepWarm => record.put_samples("sweep.warm_point_ns", "ns", &points),
        Workload::FleetDiurnal => {
            let active: Vec<f64> = all
                .iter()
                .map(|o| o.active as f64 / o.items.max(1) as f64)
                .collect();
            record.put_samples("fleet.active_share", "ratio", &active);
        }
        _ => {}
    }
    if let Some(first) = all.first() {
        #[allow(clippy::cast_precision_loss)]
        record.put_value("cache_entries", "count", first.entries as f64);
    }

    put_probes(&mut record, cfg, calib_before, calib_after)?;
    if cfg.trace {
        let hit_ratio = |ops: &[Op]| {
            let (hits, misses) = ops
                .iter()
                .fold((0, 0), |(h, m), o| (h + o.hits, m + o.misses));
            #[allow(clippy::cast_precision_loss)]
            let ratio = hits as f64 / (hits + misses).max(1) as f64;
            ratio
        };
        record.put_value("cache_hit_ratio", "ratio", hit_ratio(&with_spans));
        #[allow(clippy::cast_precision_loss)]
        let traced_ops = with_spans.len().max(1) as f64;
        record.put_value("ticks_per_op", "count", counters.ticks / traced_ops);
        record.put_value(
            "solve_occupancy_mean",
            "lanes",
            ratio(counters.occupancy_sum, counters.occupancy_count),
        );
        put_spans(&mut record, &spans, dropped);
        let unit = match workload {
            Workload::FleetDiurnal => spans.mean_us(Kind::FleetShard),
            _ => spans.mean_us(Kind::SweepPoint),
        };
        record.put_value("unit_us", "us", unit.unwrap_or(0.0));
        let median_of =
            |ops: &[Op]| stats::median(&ops.iter().map(|o| o.total_ms).collect::<Vec<_>>());
        if let (Some(untraced), Some(traced)) = (median_of(&plain), median_of(&with_spans)) {
            record.put_value("trace_overhead_pct", "%", (traced / untraced - 1.0) * 100.0);
        }
        // Layers only the daemon has: no HTTP round trips, no batches,
        // no polls in process.
        for (name, unit) in [
            ("accept_wait_pct", "%"),
            ("batch_width_mean", "tasks"),
            ("polls_per_task", "count"),
        ] {
            record.put_value(name, unit, 0.0);
        }
        if let Prepared::Fleet {
            spec,
            last_cache: Some(cache),
        } = &prepared
        {
            // A rerun on the last operation's cache hits every epoch, so
            // it times placement, cache probe and rollup alone.
            let started = Instant::now();
            let report = FleetEngine::with_cache(JOBS, Arc::clone(cache))
                .run(spec)
                .map_err(|e| format!("warm fleet: {e}"))?;
            let us = started.elapsed().as_secs_f64() * 1e6;
            record.put_value(
                "fleet.warm_epoch_us",
                "us",
                us / report.stats.active_server_epochs.max(1) as f64,
            );
        }
    }
    Ok(record)
}

/// The probes every workload records: calibration before and after, and
/// in the traced run the direct CPM-readout and journal-append timings.
///
/// # Errors
///
/// Reports a failed journal probe.
pub fn put_probes(
    record: &mut Record,
    cfg: &RunConfig,
    calib_before: f64,
    calib_after: f64,
) -> Result<(), String> {
    record.put_value("calib_ms", "ms", calib_before);
    record.put_value(
        "calib_drift_pct",
        "%",
        (calib_after / calib_before - 1.0) * 100.0,
    );
    if cfg.trace {
        record.put_value("read_window_ns", "ns", probe::read_window_ns(cfg.seed));
        let scratch = Scratch::new(&format!("journal-probe-{}", record.workload))?;
        let appends = probe::journal_append_ms(&scratch.path().join("journal"), cfg.seed)?;
        record.put_percentile("journal_append_p50_ms", "ms", &appends, 50.0);
        record.put_percentile("journal_append_p90_ms", "ms", &appends, 90.0);
    }
    Ok(())
}

/// The span-derived per-layer metrics shared by every workload.
pub fn put_spans(record: &mut Record, spans: &SpanStats, dropped: u64) {
    record.put_value("tick_us", "us", spans.mean_us(Kind::Tick).unwrap_or(0.0));
    record.put_value("tick_self_us", "us", spans.tick_self_us().unwrap_or(0.0));
    record.put_value("solve_us", "us", spans.mean_us(Kind::Solve).unwrap_or(0.0));
    record.put_value(
        "solve_iterations_mean",
        "count",
        spans.solve_iterations_mean().unwrap_or(0.0),
    );
    #[allow(clippy::cast_precision_loss)]
    record.put_value("spans_dropped", "count", dropped as f64);
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
