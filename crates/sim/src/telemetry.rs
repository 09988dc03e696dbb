//! The simulator's metric families, as cached handles into the global
//! [`p7_obs`] registry.
//!
//! Every accessor resolves its handle once through a `OnceLock` and then
//! costs a single atomic load, so instrumented hot paths (the warm tick,
//! the memoized solve) stay allocation- and lock-free. The registry itself
//! starts disabled; until `ags … --metrics/--trace` (or a test) enables
//! it, every update is a single predicted branch.
//!
//! Naming follows Prometheus conventions: `ags_` prefix, `_total` for
//! counters, `_seconds` for wall-clock histograms. Wall-clock families are
//! the one deliberate exception to the repo's determinism contract — their
//! bucket counts depend on machine speed — which is why the
//! jobs-invariance tests compare every family *except* `*_seconds`.

use p7_obs::metrics::{global, Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};

/// Bucket bounds for the fixed-point solve iteration histogram. The loop
/// is capped at 16 iterations ([`crate::solve::MAX_SOLVE_ITERATIONS`]);
/// warm-started solves normally converge in 1–3.
pub const SOLVE_ITERATION_BOUNDS: &[f64] = &[1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0];

/// Bucket bounds for durable-journal segment writes (seconds). Covers
/// tmpfs (~tens of µs) through contended spinning disks (~hundreds of ms);
/// the write includes the fsync of both the segment and its directory.
pub const SEGMENT_WRITE_BOUNDS: &[f64] = &[
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,
];

/// Bucket bounds for sweep chunk-claim wait (seconds): the gap between a
/// worker finishing one chunk and holding the next. The claim is a single
/// `fetch_add`, so anything above a few µs means allocator or scheduler
/// interference.
pub const CHUNK_WAIT_BOUNDS: &[f64] = &[1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1];

/// Bucket bounds for solve-batch occupancy (lanes loaded per batched
/// solve). A server tick batches its two sockets; sweep-scale batching can
/// fill wider batches.
pub const BATCH_OCCUPANCY_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// Bucket bounds for lanes converging per batch iteration. Zero is a real
/// observation (an iteration where every active lane kept moving).
pub const LANES_CONVERGED_BOUNDS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

macro_rules! counter_accessor {
    ($(#[$doc:meta])* $fn_name:ident, $name:literal, $help:literal) => {
        $(#[$doc])*
        pub fn $fn_name() -> &'static Arc<Counter> {
            static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
            HANDLE.get_or_init(|| global().counter($name, $help))
        }
    };
}

macro_rules! gauge_accessor {
    ($(#[$doc:meta])* $fn_name:ident, $name:literal, $help:literal) => {
        $(#[$doc])*
        pub fn $fn_name() -> &'static Arc<Gauge> {
            static HANDLE: OnceLock<Arc<Gauge>> = OnceLock::new();
            HANDLE.get_or_init(|| global().gauge($name, $help))
        }
    };
}

macro_rules! histogram_accessor {
    ($(#[$doc:meta])* $fn_name:ident, $name:literal, $help:literal, $bounds:expr) => {
        $(#[$doc])*
        pub fn $fn_name() -> &'static Arc<Histogram> {
            static HANDLE: OnceLock<Arc<Histogram>> = OnceLock::new();
            HANDLE.get_or_init(|| global().histogram($name, $help, $bounds))
        }
    };
}

counter_accessor!(
    /// Telemetry windows simulated (one per server-window, in a group of
    /// any width).
    sim_ticks,
    "ags_sim_ticks_total",
    "Telemetry windows simulated across all Simulation instances"
);

counter_accessor!(
    /// CPM margin-floor violations observed by monitored windows.
    margin_violations,
    "ags_sim_margin_violations_total",
    "Windows in which a socket's CPM margin fell below the safety floor"
);

histogram_accessor!(
    /// Iterations the per-window fixed-point voltage/power solve needed.
    solve_iterations,
    "ags_solve_iterations",
    "Fixed-point solve iterations per socket window (warm starts converge in 1-3)",
    SOLVE_ITERATION_BOUNDS
);

histogram_accessor!(
    /// Lanes loaded into each batched solve ([`crate::solve::SolveBatch`]).
    solve_batch_occupancy,
    "ags_solve_batch_occupancy",
    "Occupied lanes per batched steady-state solve",
    BATCH_OCCUPANCY_BOUNDS
);

histogram_accessor!(
    /// Lanes whose residual dropped below tolerance in one batch iteration.
    solve_lanes_converged,
    "ags_solve_lanes_converged",
    "Lanes converging per batched solve iteration",
    LANES_CONVERGED_BOUNDS
);

counter_accessor!(
    /// Memoized solves answered from the [`crate::cache::SolveCache`].
    solve_cache_hits,
    "ags_solve_cache_hits_total",
    "Steady-state solves answered from the memoization cache"
);

counter_accessor!(
    /// Memoized solves that had to run the simulator.
    solve_cache_misses,
    "ags_solve_cache_misses_total",
    "Steady-state solves that ran the simulator (cache misses)"
);

counter_accessor!(
    /// Entries dropped by the cache's coarse capacity eviction.
    solve_cache_evictions,
    "ags_solve_cache_evictions_total",
    "Cache entries dropped by coarse capacity eviction"
);

gauge_accessor!(
    /// Entries currently stored across all solve caches.
    solve_cache_entries,
    "ags_solve_cache_entries",
    "Distinct entries currently stored in solve caches"
);

counter_accessor!(
    /// Grid points claimed by sweep workers (chunked claiming).
    sweep_points_claimed,
    "ags_sweep_points_claimed_total",
    "Grid points claimed by sweep workers"
);

histogram_accessor!(
    /// Wait between a worker finishing one chunk and holding the next.
    sweep_chunk_wait,
    "ags_sweep_chunk_wait_seconds",
    "Wall-clock gap between finishing a chunk and claiming the next (nondeterministic family)",
    CHUNK_WAIT_BOUNDS
);

counter_accessor!(
    /// Journal segments durably written (temp + fsync + rename + dir fsync).
    journal_segments,
    "ags_journal_segments_total",
    "Durable journal segments written"
);

histogram_accessor!(
    /// Wall-clock latency of one durable segment write, fsyncs included.
    journal_segment_write,
    "ags_journal_segment_write_seconds",
    "Durable segment write latency including fsync of segment and directory (nondeterministic family)",
    SEGMENT_WRITE_BOUNDS
);

counter_accessor!(
    /// Point solves retried after a caught panic.
    point_retries,
    "ags_point_retries_total",
    "Grid-point solves retried after a caught panic"
);

counter_accessor!(
    /// Points quarantined after exhausting their panic retry budget.
    point_quarantines,
    "ags_point_quarantines_total",
    "Grid points quarantined after exhausting panic retries"
);

counter_accessor!(
    /// Storage faults injected by the `fault-injection` test backend.
    /// Always zero in production (the backend is not even compiled).
    io_faults_injected,
    "ags_io_faults_injected_total",
    "Storage faults injected by the fault-injection filesystem backend"
);

counter_accessor!(
    /// Journal segments examined by `ags fsck` scrubs.
    fsck_segments_scanned,
    "ags_fsck_segments_scanned_total",
    "Journal segment files examined by fsck scrubs"
);

counter_accessor!(
    /// Journal segments removed by `ags fsck --repair`.
    fsck_segments_repaired,
    "ags_fsck_segments_repaired_total",
    "Journal segment files removed by fsck repairs (truncated to the consistent prefix)"
);

/// Resolves every accessor once, so an export lists every family even
/// when the run never exercised some site (scrapers then see a stable
/// schema; a zero is information, an absent family is not).
pub fn register_all() {
    sim_ticks();
    margin_violations();
    solve_iterations();
    solve_batch_occupancy();
    solve_lanes_converged();
    solve_cache_hits();
    solve_cache_misses();
    solve_cache_evictions();
    solve_cache_entries();
    sweep_points_claimed();
    sweep_chunk_wait();
    journal_segments();
    journal_segment_write();
    point_retries();
    point_quarantines();
    io_faults_injected();
    fsck_segments_scanned();
    fsck_segments_repaired();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_return_stable_handles() {
        // Same OnceLock, same underlying metric: bumping through one
        // handle is visible through another resolution of the accessor.
        let enabled_before = global().is_enabled();
        global().set_enabled(true);
        let before = sim_ticks().get();
        sim_ticks().inc();
        assert_eq!(sim_ticks().get(), before + 1);
        global().set_enabled(enabled_before);
    }

    #[test]
    fn bounds_are_strictly_increasing() {
        for bounds in [
            SOLVE_ITERATION_BOUNDS,
            SEGMENT_WRITE_BOUNDS,
            CHUNK_WAIT_BOUNDS,
            BATCH_OCCUPANCY_BOUNDS,
            LANES_CONVERGED_BOUNDS,
        ] {
            assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
