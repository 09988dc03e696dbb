//! Proves the warm tick path performs zero heap allocations — with the
//! telemetry layer fully enabled — both for a solo server (a group of one)
//! and for a wide group shaped like the ones sweeps and fleets tick.
//!
//! A counting wrapper around the system allocator is installed as the
//! global allocator, armed only around the measured ticks. The file holds
//! exactly one test so no sibling test thread can allocate while the
//! counter is armed.
//!
//! Metrics and tracing are switched on *before* warmup: metric handles
//! resolve their `OnceLock`s and the tracer's per-thread ring takes its
//! one-time allocation during the warmup ticks, after which every
//! `inc`/`observe` is a plain atomic op and every span a ring write. The
//! ring is sized to hold all measured events so wrap-around (which is
//! also allocation-free) is not what's being measured.

use p7_control::GuardbandMode;
use p7_sim::{Assignment, GroupTicker, ServerConfig, Simulation};
use p7_workloads::Catalog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn warm_ticks_allocate_nothing_with_telemetry_enabled() {
    // Full observability on: the registry records every counter bump and
    // histogram observation, the tracer records tick and solve spans, and
    // a live flight recorder holds registry snapshots. The recorder
    // samples on its own schedule (a daemon thread in production) — its
    // presence must not perturb the tick path, which never touches it.
    p7_obs::metrics::global().set_enabled(true);
    p7_sim::telemetry::register_all();
    p7_obs::trace::enable();
    let recorder = p7_obs::timeseries::Recorder::new(p7_obs::timeseries::DEFAULT_CAPACITY);
    recorder.sample(p7_obs::metrics::global(), p7_obs::timeseries::wall_ms());

    let catalog = Catalog::power7plus();
    let build = |name: &str, cores: usize, seed: u64, mode: GuardbandMode| {
        let w = catalog.get(name).unwrap().clone();
        let a = Assignment::single_socket(&w, cores).unwrap();
        Simulation::new(ServerConfig::power7plus(seed), a, mode).unwrap()
    };
    let mut sim = build("raytrace", 4, 42, GuardbandMode::Undervolt);
    // A 16-lane group of eight: three clones of one build, which draw
    // alike and so share one member's draws as a sweep block's modes do,
    // and five servers built on their own.
    let block = build("bodytrack", 5, 23, GuardbandMode::Undervolt);
    let mut group: Vec<Simulation> = vec![block.clone(), block.clone(), block];
    group.extend([
        build("lu_cb", 1, 7, GuardbandMode::Overclock),
        build("radix", 8, 13, GuardbandMode::StaticGuardband),
        build("vips", 2, 99, GuardbandMode::Undervolt),
        build("swaptions", 6, 3, GuardbandMode::Undervolt),
        build("mcf", 3, 1, GuardbandMode::Overclock),
    ]);
    const WARMUP: usize = 3;
    const MEASURED: usize = 32;
    // Telemetry rings grow only up front; reserve what this run records.
    sim.reserve_telemetry(WARMUP + MEASURED);
    for server in &mut group {
        server.reserve_telemetry(WARMUP + MEASURED);
    }
    let mut members: Vec<&mut Simulation> = group.iter_mut().collect();
    let mut ticker = GroupTicker::<16>::new();
    for _ in 0..WARMUP {
        std::hint::black_box(sim.tick());
        ticker.tick_group(&mut members, |_, ticks| {
            std::hint::black_box(ticks);
        });
    }

    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..MEASURED {
        std::hint::black_box(sim.tick());
    }
    for _ in 0..MEASURED {
        ticker.tick_group(&mut members, |_, ticks| {
            std::hint::black_box(ticks);
        });
    }
    ARMED.store(false, Ordering::SeqCst);

    // The recorder still works after the measured window — the armed
    // phase simply never needed it.
    recorder.sample(p7_obs::metrics::global(), p7_obs::timeseries::wall_ms());
    assert_eq!(recorder.len(), 2, "both samples landed in the ring");

    p7_obs::trace::disable();
    p7_obs::metrics::global().set_enabled(false);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let reallocs = REALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "warm tick path must not touch the heap even with metrics and tracing \
         enabled: {allocs} allocs, {reallocs} reallocs over {MEASURED} windows"
    );

    // The instrumentation itself must have fired: every server-window
    // records one tick span and bumps the tick counter.
    let server_windows = (1 + members.len()) * (WARMUP + MEASURED);
    let ticks = p7_sim::telemetry::sim_ticks().get();
    assert!(
        ticks >= server_windows as u64,
        "metrics were enabled but the tick counter read {ticks}"
    );
    let events = p7_obs::trace::collect();
    let tick_spans = events.iter().filter(|e| e.name == "tick").count();
    assert_eq!(
        tick_spans, server_windows,
        "one tick span per server-window"
    );
}
