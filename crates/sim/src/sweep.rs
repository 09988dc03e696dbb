//! Parallel sweep engine with memoized steady-state solves.
//!
//! The paper's evaluation is a large grid — 44 workloads × 1–8 active
//! cores × {static, undervolt, overclock} × placements — and every figure
//! binary used to walk its slice of that grid serially and from scratch.
//! This module factors the walk into one engine:
//!
//! * [`SweepSpec`] — a serde-serializable description of the grid
//!   (workload names × core counts × guardband modes × placements plus
//!   the master seed and tick counts),
//! * [`SweepEngine`] — expands the spec into [`GridPoint`]s, runs them on
//!   the campaign executor ([`crate::exec`]), one assignment block (every
//!   mode of one workload × cores × placement) per claim, and merges the
//!   results by grid index, so the output order never depends on
//!   scheduling,
//! * [`SolveCache`] — a memoization table keyed by the electrically
//!   relevant state (configuration fingerprint, assignment fingerprint,
//!   mode, tick counts) so repeated steady-state solves are computed
//!   once, with hit/miss counters reported at sweep end.
//!
//! Determinism: each grid point derives its own seed from the spec's
//! master seed and the point's coordinates (workload, core count,
//! placement — deliberately *not* the mode, so all modes of one
//! assignment share their cached static solve). A point's result is a
//! pure function of the spec, so a sweep is bitwise identical at any
//! worker count.

use crate::assignment::Assignment;
use crate::error::SimError;
use crate::exec::{self, Schedule};
use crate::experiment::{Experiment, Outcome};
use crate::group::run_group;
use crate::journal::{fnv64, run_durable_indexed, CampaignManifest, DurableOptions, FailedPoint};
use crate::server::Simulation;
use crate::telemetry;
use p7_control::GuardbandMode;
use p7_faults::FaultPlan;
use p7_workloads::{Catalog, ExecutionModel, WorkloadProfile};
use serde::{de, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub use crate::exec::resolve_jobs;

/// How threads are placed on the two sockets for one grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Placement {
    /// Sec. 3: k threads on socket 0, all 16 cores powered on.
    SingleSocket,
    /// Sec. 5.1 baseline: socket 0 powered, socket 1 fully gated.
    Consolidated,
    /// Sec. 5.1 loadline borrowing: 4 cores on per socket, threads split.
    Borrowed,
}

impl Placement {
    /// Every placement, in grid order.
    #[must_use]
    pub fn all() -> [Placement; 3] {
        [
            Placement::SingleSocket,
            Placement::Consolidated,
            Placement::Borrowed,
        ]
    }

    /// Builds the concrete assignment for `cores` threads of `workload`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidAssignment`] when `cores` exceeds the
    /// placement's capacity.
    pub fn assignment(
        self,
        workload: &WorkloadProfile,
        cores: usize,
    ) -> Result<Assignment, SimError> {
        match self {
            Placement::SingleSocket => Assignment::single_socket(workload, cores),
            Placement::Consolidated => Assignment::consolidated(workload, cores),
            Placement::Borrowed => Assignment::borrowed(workload, cores),
        }
    }

    /// Short lowercase name (CLI `--placement` values).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Placement::SingleSocket => "single",
            Placement::Consolidated => "consolidated",
            Placement::Borrowed => "borrowed",
        }
    }

    /// Parses a CLI placement name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Placement> {
        Placement::all().into_iter().find(|p| p.label() == name)
    }

    fn tag(self) -> u64 {
        match self {
            Placement::SingleSocket => 1,
            Placement::Consolidated => 2,
            Placement::Borrowed => 3,
        }
    }
}

/// A serializable description of one sweep grid.
///
/// The grid is the cartesian product `workloads × cores × placements ×
/// modes`, expanded in exactly that nesting order (workload-major).
///
/// # Examples
///
/// ```
/// use p7_sim::sweep::{SweepEngine, SweepSpec};
/// use p7_control::GuardbandMode;
///
/// let spec = SweepSpec::new(vec!["raytrace".into()], vec![1, 8])
///     .with_modes(vec![GuardbandMode::StaticGuardband, GuardbandMode::Undervolt])
///     .with_ticks(5, 2);
/// let report = SweepEngine::new(2).run(&spec)?;
/// assert_eq!(report.results.len(), 4);
/// # Ok::<(), p7_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepSpec {
    /// Catalog names of the workloads to sweep.
    pub workloads: Vec<String>,
    /// Active-core (thread) counts.
    pub cores: Vec<usize>,
    /// Guardband modes to run at each assignment.
    pub modes: Vec<GuardbandMode>,
    /// Thread placements to evaluate.
    pub placements: Vec<Placement>,
    /// Master seed; every grid point derives its own seed from it.
    pub seed: u64,
    /// Measured telemetry windows per run.
    pub measure_ticks: usize,
    /// Warm-up windows discarded before measuring.
    pub warmup_ticks: usize,
    /// Fault plan every grid point runs under (`None` = healthy sweep).
    pub faults: Option<FaultPlan>,
}

// Hand-written so spec files from before the `faults` dimension still
// parse: a missing "faults" key reads as a healthy sweep. The derived
// impl would reject the old files outright.
impl Deserialize for SweepSpec {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        fn req<T: Deserialize>(v: &Value, name: &str) -> Result<T, de::Error> {
            T::from_value(v.field(name)?).map_err(|e| e.in_context(name))
        }
        let faults = match v.field("faults") {
            Ok(value) => {
                Option::<FaultPlan>::from_value(value).map_err(|e| e.in_context("faults"))?
            }
            Err(_) => None,
        };
        Ok(SweepSpec {
            workloads: req(v, "workloads")?,
            cores: req(v, "cores")?,
            modes: req(v, "modes")?,
            placements: req(v, "placements")?,
            seed: req(v, "seed")?,
            measure_ticks: req(v, "measure_ticks")?,
            warmup_ticks: req(v, "warmup_ticks")?,
            faults,
        })
    }
}

/// The default sweep seed (the figure binaries' master seed).
pub const DEFAULT_SWEEP_SEED: u64 = 42;

impl SweepSpec {
    /// A spec over `workloads × cores` with the defaults the figure
    /// binaries use: all three modes, single-socket placement, seed 42,
    /// fast sweep ticks (30 measured / 15 warm-up).
    #[must_use]
    pub fn new(workloads: Vec<String>, cores: Vec<usize>) -> Self {
        SweepSpec {
            workloads,
            cores,
            modes: GuardbandMode::all().to_vec(),
            placements: vec![Placement::SingleSocket],
            seed: DEFAULT_SWEEP_SEED,
            measure_ticks: 30,
            warmup_ticks: 15,
            faults: None,
        }
    }

    /// Replaces the mode list.
    #[must_use]
    pub fn with_modes(mut self, modes: Vec<GuardbandMode>) -> Self {
        self.modes = modes;
        self
    }

    /// Replaces the placement list.
    #[must_use]
    pub fn with_placements(mut self, placements: Vec<Placement>) -> Self {
        self.placements = placements;
        self
    }

    /// Replaces the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the measured/warm-up tick counts.
    #[must_use]
    pub fn with_ticks(mut self, measure: usize, warmup: usize) -> Self {
        self.measure_ticks = measure.max(1);
        self.warmup_ticks = warmup;
        self
    }

    /// Runs every grid point under `plan` — the fault-campaign sweep
    /// dimension. The plan's fingerprint joins the solve-cache key, so
    /// faulted solves never collide with healthy ones.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The paper's Fig. 10 grid: every non-micro catalog workload at
    /// eight active cores, all three modes, single-socket placement.
    #[must_use]
    pub fn fig10_grid() -> Self {
        let names = Catalog::power7plus()
            .scatter_set()
            .iter()
            .map(|w| w.name().to_owned())
            .collect();
        SweepSpec::new(names, vec![8])
    }

    /// The shortened CI grid behind `ags sweep --smoke`: two contrasting
    /// workloads at two core counts with trimmed windows — enough to
    /// exercise the parallel engine, the solve cache, and both telemetry
    /// exporters in a couple of seconds.
    #[must_use]
    pub fn smoke_grid() -> Self {
        SweepSpec::new(vec!["lu_cb".to_owned(), "radix".to_owned()], vec![2, 4]).with_ticks(10, 5)
    }

    /// Number of grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.workloads.len() * self.cores.len() * self.placements.len() * self.modes.len()
    }

    /// True when any dimension is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the spec into grid points, workload-major.
    #[must_use]
    pub fn grid_points(&self) -> Vec<GridPoint> {
        let mut points = Vec::with_capacity(self.len());
        for workload in &self.workloads {
            for &cores in &self.cores {
                for &placement in &self.placements {
                    for &mode in &self.modes {
                        points.push(GridPoint {
                            index: points.len(),
                            workload: workload.clone(),
                            cores,
                            placement,
                            mode,
                        });
                    }
                }
            }
        }
        points
    }

    /// The seed a grid point runs under: a pure function of the master
    /// seed and the point's *assignment* coordinates. The mode is
    /// deliberately excluded so every mode of one assignment shares its
    /// cached static-baseline solve.
    #[must_use]
    pub fn point_seed(&self, point: &GridPoint) -> u64 {
        let mut h = splitmix(self.seed ^ fnv64(point.workload.as_bytes()));
        h = splitmix(h ^ point.cores as u64);
        splitmix(h ^ point.placement.tag())
    }

    /// Serializes the spec to its canonical JSON form (the on-disk format
    /// `ags sweep --spec <file>` reads).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Parses a spec from the JSON form produced by [`SweepSpec::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when the text is not valid JSON or
    /// does not describe a sweep spec — the same error type the CLI and
    /// journal-manifest validation report, so every spec-shaped failure
    /// carries one kind of context.
    pub fn from_json(text: &str) -> Result<Self, SimError> {
        serde::json::from_str(text).map_err(|e| SimError::Spec {
            reason: format!("sweep spec: {e}"),
        })
    }

    /// The campaign identity a journal of this spec is stamped with.
    #[must_use]
    pub fn manifest(&self) -> CampaignManifest {
        CampaignManifest::new("sweep", self.seed, self.to_json())
    }

    /// Checks that every dimension is non-empty, every workload exists
    /// in the catalog and every core count fits a socket.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] describing the first violation.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), SimError> {
        if self.is_empty() {
            return Err(SimError::InvalidConfig {
                reason: "sweep spec has an empty dimension",
            });
        }
        for name in &self.workloads {
            catalog.require(name)?;
        }
        for &cores in &self.cores {
            if !(1..=8).contains(&cores) {
                return Err(SimError::InvalidAssignment {
                    reason: format!("sweep core count {cores} outside 1..=8"),
                });
            }
        }
        if let Some(plan) = &self.faults {
            plan.validate()
                .map_err(|reason| SimError::Resilience { reason })?;
        }
        Ok(())
    }
}

/// One cell of the expanded grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridPoint {
    /// Position in the deterministic expansion order.
    pub index: usize,
    /// Catalog name of the workload.
    pub workload: String,
    /// Active-core (thread) count.
    pub cores: usize,
    /// Thread placement.
    pub placement: Placement,
    /// Guardband mode.
    pub mode: GuardbandMode,
}

/// One solved grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointResult {
    /// The grid cell this result belongs to.
    pub point: GridPoint,
    /// The steady-state outcome of the run.
    pub outcome: Outcome,
}

/// Hit/miss counters of a [`SolveCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Solves answered from the cache.
    pub hits: u64,
    /// Solves that had to run the simulator.
    pub misses: u64,
    /// Distinct entries currently stored, summed across shards.
    pub entries: usize,
    /// Entries dropped by capacity eviction over the cache's lifetime.
    pub evictions: u64,
    /// Lock acquisitions that found their shard already held by another
    /// thread (each waited instead of failing). A fleet-scale probe storm
    /// shows up here long before it shows up in wall-clock time.
    pub contended: u64,
}

// Hand-written so reports serialized before the cache was sharded still
// parse: a missing "contended" key reads as an uncontended cache. The
// derived impl would reject the old files outright.
impl Deserialize for CacheStats {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        fn req<T: Deserialize>(v: &Value, name: &str) -> Result<T, de::Error> {
            T::from_value(v.field(name)?).map_err(|e| e.in_context(name))
        }
        let contended = match v.field("contended") {
            Ok(value) => u64::from_value(value).map_err(|e| e.in_context("contended"))?,
            Err(_) => 0,
        };
        Ok(CacheStats {
            hits: req(v, "hits")?,
            misses: req(v, "misses")?,
            entries: req(v, "entries")?,
            evictions: req(v, "evictions")?,
            contended,
        })
    }
}

impl CacheStats {
    /// Fraction of solves answered from the cache (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SolveKey {
    config_fingerprint: u64,
    assignment_fingerprint: u64,
    mode: GuardbandMode,
    measure_ticks: usize,
    warmup_ticks: usize,
    /// [`Experiment::fault_fingerprint`]: 0 for healthy solves, the
    /// installed plan's fingerprint otherwise. Keeps faulted trajectories
    /// out of healthy lookups and vice versa.
    fault_fingerprint: u64,
}

/// Default capacity of a [`SolveCache`] (entries). An entry holds one
/// `Outcome` (~1 KiB), so the default bounds the cache to tens of MiB —
/// week-long campaigns stop growing the process without bound.
pub const DEFAULT_CACHE_CAPACITY: usize = 16_384;

/// Number of independently locked shards in a [`SolveCache`]. Keys are
/// spread by a splitmix of their fingerprints, so concurrent probes from
/// a fleet's worth of workers land on different locks with high
/// probability instead of serializing on one.
const CACHE_SHARDS: usize = 16;

/// Memoization table for steady-state solves, shared across threads.
///
/// The key fingerprints everything a solve depends on: the full server
/// configuration (rails, curves, policy, seed), the assignment (workload
/// profiles, active-core set), the guardband mode and the tick counts.
/// Two racing workers may both miss on the same key; the solve is
/// deterministic, so whichever insert lands last stores the same bytes.
///
/// The table is split into [`CACHE_SHARDS`] independently locked shards
/// (keyed by a mix of the fingerprints) so fleet-scale concurrent probes
/// don't contend on a single lock; the `contended` counter in
/// [`CacheStats`] reports how often a thread still had to wait.
///
/// Capacity is bounded (see [`DEFAULT_CACHE_CAPACITY`], split evenly
/// across shards): when an insert would exceed a shard's share, roughly
/// half that shard's entries are evicted in one coarse pass. Eviction
/// only ever costs re-solves — results are unaffected.
#[derive(Debug)]
pub struct SolveCache {
    shards: [Mutex<HashMap<SolveKey, Arc<Outcome>>>; CACHE_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    contended: AtomicU64,
    capacity: usize,
}

impl Default for SolveCache {
    fn default() -> Self {
        SolveCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl SolveCache {
    /// An empty cache with the default capacity bound.
    #[must_use]
    pub fn new() -> Self {
        SolveCache::default()
    }

    /// An empty cache holding at most `capacity` entries (minimum 1 per
    /// shard).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        SolveCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// The maximum number of entries kept before coarse eviction.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// One shard's share of the capacity bound.
    fn shard_capacity(&self) -> usize {
        (self.capacity / CACHE_SHARDS).max(1)
    }

    /// The shard a key lives in: a splitmix chain over every fingerprint
    /// component, so near-identical keys (same block, different mode)
    /// still spread across locks.
    fn shard_index(key: &SolveKey) -> usize {
        let mode_tag = match key.mode {
            GuardbandMode::StaticGuardband => 1u64,
            GuardbandMode::Overclock => 2,
            GuardbandMode::Undervolt => 3,
        };
        let mut h = splitmix(key.config_fingerprint);
        h = splitmix(h ^ key.assignment_fingerprint);
        h = splitmix(h ^ key.fault_fingerprint);
        h = splitmix(h ^ (key.measure_ticks as u64) ^ ((key.warmup_ticks as u64) << 24) ^ mode_tag);
        #[allow(clippy::cast_possible_truncation)]
        {
            (h % CACHE_SHARDS as u64) as usize
        }
    }

    /// Locks one shard, counting the acquisition as contended when the
    /// lock was already held by another thread.
    fn lock_shard(&self, idx: usize) -> std::sync::MutexGuard<'_, HashMap<SolveKey, Arc<Outcome>>> {
        match self.shards[idx].try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.shards[idx].lock().expect("cache shard lock")
            }
            Err(std::sync::TryLockError::Poisoned(poison)) => {
                panic!("cache shard lock poisoned: {poison}")
            }
        }
    }

    /// The process-wide shared cache. Figure binaries, the CLI and the
    /// integration tests all default to this instance, so identical
    /// solves are shared across every consumer in the process.
    #[must_use]
    pub fn global() -> Arc<SolveCache> {
        static GLOBAL: OnceLock<Arc<SolveCache>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(SolveCache::new())).clone()
    }

    /// Runs `experiment.run(assignment, mode)`, answering from the cache
    /// when an identical solve was already computed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the underlying run fails.
    pub fn solve(
        &self,
        experiment: &Experiment,
        assignment: &Assignment,
        mode: GuardbandMode,
    ) -> Result<Arc<Outcome>, SimError> {
        self.solve_fingerprinted(
            experiment_fingerprint(experiment),
            experiment,
            assignment,
            mode,
        )
    }

    /// [`SolveCache::solve`] with the experiment's fingerprint already
    /// computed — callers that reuse one experiment (or one execution
    /// model) across many solves hoist the serialization out of the
    /// loop. `experiment_fp` MUST be [`experiment_fingerprint`] of
    /// `experiment`, or equivalent solves will not share entries.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the underlying run fails.
    pub fn solve_fingerprinted(
        &self,
        experiment_fp: u64,
        experiment: &Experiment,
        assignment: &Assignment,
        mode: GuardbandMode,
    ) -> Result<Arc<Outcome>, SimError> {
        self.solve_with(
            experiment_fp,
            fingerprint(assignment),
            mode,
            experiment.measure_ticks(),
            experiment.warmup_ticks(),
            experiment.fault_fingerprint(),
            || experiment.run(assignment, mode),
        )
    }

    /// The core memoized solve: the caller supplies the fingerprints and
    /// a closure that computes the outcome on a miss. This is the warm
    /// fast path — a hit is one hash lookup, no serialization at all.
    /// `assignment_fp` MUST be the [`fingerprint`]-style hash of the
    /// assignment the closure runs, and `fault_fp` MUST be the
    /// [`Experiment::fault_fingerprint`] of the experiment (0 when
    /// healthy), or equivalent solves will not share entries — and
    /// faulted solves would poison healthy ones.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the miss closure fails.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_with<F>(
        &self,
        experiment_fp: u64,
        assignment_fp: u64,
        mode: GuardbandMode,
        measure_ticks: usize,
        warmup_ticks: usize,
        fault_fp: u64,
        solve: F,
    ) -> Result<Arc<Outcome>, SimError>
    where
        F: FnOnce() -> Result<Outcome, SimError>,
    {
        self.solve_with_status(
            experiment_fp,
            assignment_fp,
            mode,
            measure_ticks,
            warmup_ticks,
            fault_fp,
            solve,
        )
        .map(|(outcome, _)| outcome)
    }

    /// [`SolveCache::solve_with`], also reporting whether the outcome
    /// was computed by the closure (`true`, a miss) or served from the
    /// cache (`false`, a hit). Durable sweeps journal only computed
    /// points: a hit costs nothing to reproduce after a crash, so
    /// checkpointing it would buy no durability.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the miss closure fails.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_with_status<F>(
        &self,
        experiment_fp: u64,
        assignment_fp: u64,
        mode: GuardbandMode,
        measure_ticks: usize,
        warmup_ticks: usize,
        fault_fp: u64,
        solve: F,
    ) -> Result<(Arc<Outcome>, bool), SimError>
    where
        F: FnOnce() -> Result<Outcome, SimError>,
    {
        let key = SolveKey {
            config_fingerprint: experiment_fp,
            assignment_fingerprint: assignment_fp,
            mode,
            measure_ticks,
            warmup_ticks,
            fault_fingerprint: fault_fp,
        };
        let shard = Self::shard_index(&key);
        if let Some(hit) = self.lock_shard(shard).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            telemetry::solve_cache_hits().inc();
            return Ok((hit.clone(), false));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::solve_cache_misses().inc();
        let outcome = Arc::new(solve()?);
        let mut map = self.lock_shard(shard);
        if map.len() >= self.shard_capacity() && !map.contains_key(&key) {
            // Coarse eviction: drop about half the shard in one pass.
            // Arbitrary victims are fine — the cache only buys speed,
            // never correctness — and halving amortizes the sweep cost.
            let drop_n = (map.len() / 2).max(1);
            let victims: Vec<SolveKey> = map.keys().take(drop_n).cloned().collect();
            for victim in &victims {
                map.remove(victim);
            }
            self.evictions
                .fetch_add(victims.len() as u64, Ordering::Relaxed);
            telemetry::solve_cache_evictions().add(victims.len() as u64);
            telemetry::solve_cache_entries().add(-(victims.len() as i64));
        }
        if map.insert(key, outcome.clone()).is_none() {
            telemetry::solve_cache_entries().add(1);
        }
        drop(map);
        Ok((outcome, true))
    }

    /// Probes a whole lane block — every guardband mode of one
    /// `(experiment, assignment)` — with **one** lock acquisition per
    /// distinct shard touched (modes of one block deliberately spread
    /// across shards, so this is one short lock per lane), filling `out`
    /// with `Some(outcome)` per present lane and `None` per absent one.
    ///
    /// Counting stays per lane, never per batch: each present lane bumps
    /// the hit counter exactly once here, and each absent lane is expected
    /// to go through [`SolveCache::solve_with_status`] individually, which
    /// records its miss. A point therefore counts exactly once whichever
    /// path answers it.
    ///
    /// The fingerprint arguments carry the same contracts as
    /// [`SolveCache::solve_with`].
    #[allow(clippy::too_many_arguments)]
    pub fn probe_lanes(
        &self,
        experiment_fp: u64,
        assignment_fp: u64,
        modes: &[GuardbandMode],
        measure_ticks: usize,
        warmup_ticks: usize,
        fault_fp: u64,
        out: &mut Vec<Option<Arc<Outcome>>>,
    ) {
        out.clear();
        out.reserve(modes.len());
        for &mode in modes {
            let key = SolveKey {
                config_fingerprint: experiment_fp,
                assignment_fingerprint: assignment_fp,
                mode,
                measure_ticks,
                warmup_ticks,
                fault_fingerprint: fault_fp,
            };
            let hit = self.lock_shard(Self::shard_index(&key)).get(&key).cloned();
            match hit {
                Some(hit) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    telemetry::solve_cache_hits().inc();
                    out.push(Some(hit));
                }
                None => out.push(None),
            }
        }
    }

    /// Current counters of this cache instance (what a sweep report
    /// embeds as `stats.cache`). Aggregates across every cache in the
    /// process are published through the [`crate::telemetry`] registry
    /// families `ags_solve_cache_{hits,misses,evictions}_total` and
    /// `ags_solve_cache_entries` (exported by `ags … --metrics`).
    #[must_use]
    pub fn counters(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|shard| shard.lock().expect("cache shard lock").len())
                .sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
        }
    }
}

/// An [`Experiment`] that routes every run through a [`SolveCache`].
///
/// Drop-in replacement for the copy-pasted `exp.run(...)` loops of the
/// figure binaries: same `run` / `improvement_vs_static` surface, but
/// repeated solves cost one lookup.
#[derive(Debug, Clone)]
pub struct CachedExperiment {
    experiment: Experiment,
    experiment_fp: u64,
    cache: Arc<SolveCache>,
}

impl CachedExperiment {
    /// Wraps an experiment with the process-wide global cache.
    #[must_use]
    pub fn new(experiment: Experiment) -> Self {
        CachedExperiment::with_cache(experiment, SolveCache::global())
    }

    /// Wraps an experiment with an explicit cache.
    #[must_use]
    pub fn with_cache(experiment: Experiment, cache: Arc<SolveCache>) -> Self {
        let experiment_fp = experiment_fingerprint(&experiment);
        CachedExperiment {
            experiment,
            experiment_fp,
            cache,
        }
    }

    /// The wrapped experiment.
    #[must_use]
    pub fn experiment(&self) -> &Experiment {
        &self.experiment
    }

    /// The cache in use.
    #[must_use]
    pub fn cache(&self) -> &Arc<SolveCache> {
        &self.cache
    }

    /// Memoized [`Experiment::run`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the underlying run fails.
    pub fn run(
        &self,
        assignment: &Assignment,
        mode: GuardbandMode,
    ) -> Result<Arc<Outcome>, SimError> {
        self.cache
            .solve_fingerprinted(self.experiment_fp, &self.experiment, assignment, mode)
    }

    /// Memoized [`Experiment::improvement_vs_static`]: returns
    /// `(power_saving_percent, speedup_percent)` of `mode` over the
    /// static baseline on the same assignment.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when either run fails.
    pub fn improvement_vs_static(
        &self,
        assignment: &Assignment,
        mode: GuardbandMode,
    ) -> Result<(f64, f64), SimError> {
        let baseline = self.run(assignment, GuardbandMode::StaticGuardband)?;
        let adaptive = self.run(assignment, mode)?;
        let power_saving =
            (baseline.chip_power().0 - adaptive.chip_power().0) / baseline.chip_power().0 * 100.0;
        let speedup = (baseline.exec_time.0 - adaptive.exec_time.0) / baseline.exec_time.0 * 100.0;
        Ok((power_saving, speedup))
    }
}

/// Throughput numbers of one sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepStats {
    /// Grid points solved.
    pub points: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock duration of the sweep in seconds.
    pub elapsed_secs: f64,
    /// Cache counters over the sweep's cache.
    pub cache: CacheStats,
}

impl SweepStats {
    /// Grid points per wall-clock second.
    #[must_use]
    pub fn points_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.points as f64 / self.elapsed_secs
        }
    }
}

/// The merged, index-ordered output of one sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The spec that was run.
    pub spec: SweepSpec,
    /// One result per solved grid point, ordered by grid index.
    /// Quarantined points are absent here and listed in
    /// [`SweepReport::failed_points`] instead.
    pub results: Vec<PointResult>,
    /// Grid points quarantined after bounded panic retries, ordered by
    /// index. Empty on a healthy run.
    pub failed_points: Vec<FailedPoint>,
    /// Throughput and cache counters (not part of the deterministic
    /// payload — see [`SweepReport::results_json`]).
    pub stats: SweepStats,
}

impl SweepReport {
    /// The result of one grid cell, if it was part of the spec.
    #[must_use]
    pub fn get(
        &self,
        workload: &str,
        cores: usize,
        placement: Placement,
        mode: GuardbandMode,
    ) -> Option<&PointResult> {
        self.results.iter().find(|r| {
            r.point.workload == workload
                && r.point.cores == cores
                && r.point.placement == placement
                && r.point.mode == mode
        })
    }

    /// The outcome of one grid cell.
    #[must_use]
    pub fn outcome(
        &self,
        workload: &str,
        cores: usize,
        placement: Placement,
        mode: GuardbandMode,
    ) -> Option<&Outcome> {
        self.get(workload, cores, placement, mode)
            .map(|r| &r.outcome)
    }

    /// Socket-0 power saving of `mode` over the static point on the same
    /// assignment, percent. Requires both points in the grid.
    #[must_use]
    pub fn power_saving_percent(
        &self,
        workload: &str,
        cores: usize,
        placement: Placement,
        mode: GuardbandMode,
    ) -> Option<f64> {
        let st = self.outcome(workload, cores, placement, GuardbandMode::StaticGuardband)?;
        let ad = self.outcome(workload, cores, placement, mode)?;
        Some((st.chip_power().0 - ad.chip_power().0) / st.chip_power().0 * 100.0)
    }

    /// Frequency boost of `mode` over the static point on the same
    /// assignment, percent.
    #[must_use]
    pub fn frequency_boost_percent(
        &self,
        workload: &str,
        cores: usize,
        placement: Placement,
        mode: GuardbandMode,
    ) -> Option<f64> {
        let st = self.outcome(workload, cores, placement, GuardbandMode::StaticGuardband)?;
        let ad = self.outcome(workload, cores, placement, mode)?;
        Some(
            (ad.summary.avg_running_freq.0 - st.summary.avg_running_freq.0)
                / st.summary.avg_running_freq.0
                * 100.0,
        )
    }

    /// The deterministic payload: the results serialized as JSON. Two
    /// sweeps of the same spec produce byte-identical strings regardless
    /// of worker count or cache temperature.
    #[must_use]
    pub fn results_json(&self) -> String {
        serde::json::to_string(&self.results)
    }

    /// The fixed-width grid table, exactly as `ags sweep` prints it.
    /// Shared by the CLI and the `ags serve` daemon so a served task's
    /// result is byte-identical to the standalone command's stdout.
    #[must_use]
    pub fn render_table(&self) -> String {
        render_results_table(&self.results)
    }

    /// The grid as CSV, exactly as `ags sweep --csv` writes it. Floats
    /// are formatted in Rust's shortest round-trip form (`{:?}`), so an
    /// interrupted-then-resumed campaign reproduces the reference file
    /// byte for byte.
    #[must_use]
    pub fn render_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "index,workload,cores,placement,mode,chip_w,total_w,avg_mhz,undervolt_mv,exec_s,energy_j,edp\n",
        );
        for r in &self.results {
            let o = &r.outcome;
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:?},{:?},{:?},{:?},{:?},{:?},{:?}",
                r.point.index,
                r.point.workload,
                r.point.cores,
                r.point.placement.label(),
                r.point.mode,
                o.chip_power().0,
                o.total_power().0,
                o.summary.avg_running_freq.0,
                o.summary.socket0().undervolt.millivolts(),
                o.exec_time.0,
                o.energy.0,
                o.edp
            );
        }
        out
    }
}

/// Renders sweep results as the fixed-width grid table (header plus one
/// row per point, in the order given). Free function so callers holding
/// a per-task slice of a merged batch report can render it without
/// rebuilding a [`SweepReport`].
#[must_use]
pub fn render_results_table(results: &[PointResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5}  {:<16} {:>5}  {:<12} {:<10} {:>8} {:>9} {:>8} {:>8}",
        "point", "workload", "cores", "placement", "mode", "chip W", "total W", "MHz", "UV mV"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:>5}  {:<16} {:>5}  {:<12} {:<10} {:>8.1} {:>9.1} {:>8.0} {:>8.1}",
            r.point.index,
            r.point.workload,
            r.point.cores,
            r.point.placement.label(),
            r.point.mode.to_string(),
            r.outcome.chip_power().0,
            r.outcome.total_power().0,
            r.outcome.summary.avg_running_freq.0,
            r.outcome.summary.socket0().undervolt.millivolts()
        );
    }
    out
}

/// A test hook deciding whether solving a grid point should panic.
/// Exercises the quarantine path without touching the solver.
pub type PanicInjector = Arc<dyn Fn(&GridPoint) -> bool + Send + Sync>;

/// Options for [`SweepEngine::run_durable`]: journaling, cancellation,
/// retry policy, and the panic-injection test hook.
#[derive(Default)]
pub struct SweepRunOptions {
    /// Journal, cancellation and retry settings.
    pub durable: DurableOptions,
    /// When set, points the injector selects panic instead of solving.
    pub panic_injector: Option<PanicInjector>,
}

impl fmt::Debug for SweepRunOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepRunOptions")
            .field("durable", &self.durable)
            .field("panic_injector", &self.panic_injector.is_some())
            .finish()
    }
}

/// Entries kept in an engine's compiled-spec memo before it is cleared
/// wholesale. A spec compiles in well under a millisecond, so eviction
/// only ever costs a recompile.
const COMPILED_SPEC_MEMO_CAPACITY: usize = 64;

/// The parallel sweep runner.
#[derive(Debug, Clone)]
pub struct SweepEngine {
    jobs: usize,
    cache: Arc<SolveCache>,
    /// Compiled-spec memo, keyed by the spec's canonical JSON hash and
    /// shared by clones of this engine.
    compiled: Arc<Mutex<HashMap<u64, Arc<CompiledSpec>>>>,
}

impl SweepEngine {
    /// An engine with `jobs` workers (0 = available parallelism), using
    /// the process-wide global cache.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        SweepEngine::with_cache(jobs, SolveCache::global())
    }

    /// An engine with an explicit cache (e.g. a cold one in tests).
    #[must_use]
    pub fn with_cache(jobs: usize, cache: Arc<SolveCache>) -> Self {
        SweepEngine {
            jobs: resolve_jobs(jobs),
            cache,
            compiled: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The resolved worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The cache in use.
    #[must_use]
    pub fn cache(&self) -> &Arc<SolveCache> {
        &self.cache
    }

    /// Runs the spec's full grid and merges the results by grid index.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the spec is invalid (unknown workload,
    /// empty dimension, impossible core count) or a solve fails; with
    /// several failures the lowest-indexed one is reported, so errors
    /// are deterministic too.
    pub fn run(&self, spec: &SweepSpec) -> Result<SweepReport, SimError> {
        self.run_durable(spec, &SweepRunOptions::default())
    }

    /// [`SweepEngine::run`] with the durability contract: an optional
    /// crash-consistent journal of completed points (resumable after a
    /// crash or SIGKILL), per-point panic isolation with bounded retries
    /// and quarantine, and cooperative cancellation.
    ///
    /// An interrupted-then-resumed run produces byte-identical reports
    /// to an uninterrupted run at any worker count: results merge by
    /// grid index and the journal round-trips every float in Rust's
    /// shortest round-trip form.
    ///
    /// # Errors
    ///
    /// Everything [`SweepEngine::run`] reports, plus
    /// [`SimError::Journal`] for journal I/O or manifest mismatch and
    /// [`SimError::Interrupted`] when the cancel token fired (the
    /// journal, if any, is flushed first).
    pub fn run_durable(
        &self,
        spec: &SweepSpec,
        options: &SweepRunOptions,
    ) -> Result<SweepReport, SimError> {
        let started = Instant::now();
        let spec_json = spec.to_json();
        let compiled = self.compile(spec, &spec_json)?;
        let points = &compiled.points;
        let modes_per_block = compiled.modes.len().max(1);

        let opened = options
            .durable
            .journal
            .open_with(|| spec.manifest(), options.durable.fs.clone())?;

        // The claim unit is one assignment block — every mode of it, one
        // cache lane block — so its scratch simulation is reset (not
        // rebuilt) between modes and the whole block is probed from the
        // cache in one lock acquisition.
        let solved = run_durable_indexed(
            Schedule::new(
                self.jobs,
                modes_per_block,
                "sweep_point",
                telemetry::sweep_points_claimed(),
            ),
            points.len(),
            SweepScratch::new,
            |scratch, idx| {
                if let Some(inject) = &options.panic_injector {
                    if inject(&points[idx]) {
                        panic!("injected panic at grid point {idx}");
                    }
                }
                self.solve_point(&compiled, idx, scratch)
            },
            |idx, result: &PointResult| result.point == points[idx],
            opened,
            &options.durable,
        )?;

        Ok(SweepReport {
            spec: spec.clone(),
            results: solved.results.into_iter().flatten().collect(),
            failed_points: solved.failed,
            stats: SweepStats {
                points: points.len(),
                jobs: self.jobs,
                elapsed_secs: started.elapsed().as_secs_f64(),
                // The per-sweep report keeps this cache's own counters;
                // the registry families aggregate across the process.
                cache: self.cache.counters(),
            },
        })
    }

    /// Expands and fingerprints a spec, memoized on the spec's canonical
    /// JSON. A warm rerun of the same spec — the steady state of bench
    /// loops and repeated campaigns — skips validation, catalog lookup,
    /// assignment construction and, dominant on that path, the serde
    /// fingerprinting of every block.
    fn compile(&self, spec: &SweepSpec, spec_json: &str) -> Result<Arc<CompiledSpec>, SimError> {
        let memo_key = fnv64(spec_json.as_bytes());
        if let Some(hit) = self
            .compiled
            .lock()
            .expect("compiled-spec memo lock")
            .get(&memo_key)
        {
            return Ok(Arc::clone(hit));
        }

        let catalog = Catalog::shared();
        spec.validate(catalog)?;
        let profiles: Vec<&WorkloadProfile> = spec
            .workloads
            .iter()
            .map(|name| catalog.require(name))
            .collect::<Result<_, _>>()?;
        let points = spec.grid_points();
        // Points are expanded workload-major, so a point's profile is
        // found by integer division with the per-workload block size.
        let block = spec.cores.len() * spec.placements.len() * spec.modes.len();

        // Every point shares the execution model; only the per-point
        // config (seed) varies. Fingerprint the model once, not per solve.
        let exec_fp = fingerprint(&ExecutionModel::power7plus()).rotate_left(17);

        // Modes are the innermost grid dimension, so every run of
        // `modes.len()` consecutive points shares one (workload, cores,
        // placement) assignment and one seed. Build the experiment, the
        // assignment and both cache fingerprints once per such block: on
        // a warm cache each point is then a pure hash lookup, and on a
        // cold cache the workers reuse one simulation per block.
        let modes_per_block = spec.modes.len();
        let mut blocks = Vec::with_capacity(points.len() / modes_per_block.max(1));
        for chunk in points.chunks(modes_per_block.max(1)) {
            let point = &chunk[0];
            let profile = profiles[point.index / block];
            let mut experiment = Experiment::power7plus(spec.point_seed(point))
                .with_ticks(spec.measure_ticks, spec.warmup_ticks);
            if let Some(plan) = &spec.faults {
                experiment = experiment.with_faults(plan.clone());
            }
            let experiment_fp = fingerprint(experiment.config()) ^ exec_fp;
            let fault_fp = experiment.fault_fingerprint();
            let assignment = point.placement.assignment(profile, point.cores)?;
            let assignment_fp = fingerprint(&assignment);
            blocks.push(BlockContext {
                experiment,
                experiment_fp,
                assignment,
                assignment_fp,
                fault_fp,
            });
        }

        let compiled = Arc::new(CompiledSpec {
            points,
            blocks,
            modes: spec.modes.clone(),
        });
        let mut memo = self.compiled.lock().expect("compiled-spec memo lock");
        if memo.len() >= COMPILED_SPEC_MEMO_CAPACITY {
            // Coarse eviction, like the solve cache: recompiling is cheap,
            // unbounded growth is not.
            memo.clear();
        }
        memo.insert(memo_key, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Solves one point, reporting whether it was freshly computed
    /// (journal-worthy) or a cache hit (free to reproduce on resume).
    ///
    /// The first point a worker sees of an assignment block probes the
    /// block's whole cache lane block — every guardband mode — then
    /// solves every lane the probe missed as *one wide-lane group*
    /// ([`run_group`]): one scratch simulation per missing mode, all of
    /// their sockets converging as lanes of a single
    /// `SolveBatch<`[`GROUP_SOLVE_LANES`]`>`. Subsequent points of the
    /// block are answered from the staged lanes without touching the
    /// cache again.
    fn solve_point(
        &self,
        compiled: &CompiledSpec,
        idx: usize,
        scratch: &mut SweepScratch,
    ) -> Result<(PointResult, bool), SimError> {
        let modes_per_block = compiled.modes.len().max(1);
        let block_idx = idx / modes_per_block;
        let lane = idx % modes_per_block;
        let ctx = &compiled.blocks[block_idx];
        let point = &compiled.points[idx];

        if scratch.prefetched_block != Some(block_idx) {
            scratch.prefetched_block = Some(block_idx);
            self.cache.probe_lanes(
                ctx.experiment_fp,
                ctx.assignment_fp,
                &compiled.modes,
                ctx.experiment.measure_ticks(),
                ctx.experiment.warmup_ticks(),
                ctx.fault_fp,
                &mut scratch.prefetched,
            );
            scratch.computed.clear();
            scratch.computed.resize(scratch.prefetched.len(), false);
            if scratch.prefetched.iter().any(Option::is_none) {
                self.solve_block_group(compiled, block_idx, scratch)?;
            }
        }
        let computed = scratch.computed.get(lane).copied().unwrap_or(false);
        if let Some(outcome) = scratch
            .prefetched
            .get_mut(lane)
            .and_then(|slot| slot.take())
        {
            return Ok((
                PointResult {
                    point: point.clone(),
                    outcome: (*outcome).clone(),
                },
                computed,
            ));
        }

        // A lane can still be empty here when an earlier attempt at this
        // block panicked mid-group (the retry re-enters with the block
        // already marked prefetched). Solve it solo, memoized as before.
        let (outcome, computed) = self.cache.solve_with_status(
            ctx.experiment_fp,
            ctx.assignment_fp,
            point.mode,
            ctx.experiment.measure_ticks(),
            ctx.experiment.warmup_ticks(),
            ctx.fault_fp,
            || {
                let sim = match scratch.sims.first_mut() {
                    Some(sim) if scratch.sims_block == Some(block_idx) => sim,
                    _ => {
                        let sim = ctx
                            .experiment
                            .build_simulation(&ctx.assignment, point.mode)?;
                        scratch.sims.clear();
                        scratch.sims.push(sim);
                        scratch.sims_block = Some(block_idx);
                        &mut scratch.sims[0]
                    }
                };
                ctx.experiment.run_with(sim, point.mode)
            },
        )?;
        Ok((
            PointResult {
                point: point.clone(),
                outcome: (*outcome).clone(),
            },
            computed,
        ))
    }

    /// Solves every lane the block probe missed, batching all of their
    /// sockets through one wide solve group. Cold blocks — the dominant
    /// case on a fresh campaign — thus converge `modes.len()` runs in a
    /// single kernel pass per tick instead of one pass per mode.
    ///
    /// Each group member is inserted into the cache through the same
    /// memoized path a solo solve uses, so hit/miss accounting, journal
    /// `computed` flags and cross-worker sharing are unchanged.
    fn solve_block_group(
        &self,
        compiled: &CompiledSpec,
        block_idx: usize,
        scratch: &mut SweepScratch,
    ) -> Result<(), SimError> {
        let ctx = &compiled.blocks[block_idx];
        let missing: Vec<usize> = scratch
            .prefetched
            .iter()
            .enumerate()
            .filter_map(|(lane, slot)| slot.is_none().then_some(lane))
            .collect();

        // One simulation per missing lane: the first is built (or reused
        // from the previous block's group when the assignment matches),
        // the rest are clones. `reset` reproduces fresh construction
        // bitwise, so a clone's history is irrelevant.
        if scratch.sims_block != Some(block_idx) {
            scratch.sims.clear();
            scratch.sims_block = Some(block_idx);
        }
        if scratch.sims.is_empty() {
            scratch.sims.push(
                ctx.experiment
                    .build_simulation(&ctx.assignment, compiled.modes[missing[0]])?,
            );
        }
        while scratch.sims.len() < missing.len() {
            let clone = scratch.sims[0].clone();
            scratch.sims.push(clone);
        }
        for (slot, &lane) in missing.iter().enumerate() {
            scratch.sims[slot].reset(compiled.modes[lane])?;
        }

        let mut refs: Vec<&mut Simulation> = scratch.sims[..missing.len()].iter_mut().collect();
        let summaries = run_group::<GROUP_SOLVE_LANES>(
            &mut refs,
            ctx.experiment.measure_ticks(),
            ctx.experiment.warmup_ticks(),
        );

        for (&lane, summary) in missing.iter().zip(summaries) {
            let outcome = ctx
                .experiment
                .outcome_from_summary(&ctx.assignment, summary);
            // Registers the miss and publishes the entry; a duplicate
            // mode in the spec degrades to a hit on its second lane,
            // exactly as the solo path would.
            let (outcome, computed) = self.cache.solve_with_status(
                ctx.experiment_fp,
                ctx.assignment_fp,
                compiled.modes[lane],
                ctx.experiment.measure_ticks(),
                ctx.experiment.warmup_ticks(),
                ctx.fault_fp,
                || Ok(outcome),
            )?;
            scratch.prefetched[lane] = Some(outcome);
            scratch.computed[lane] = computed;
        }
        Ok(())
    }
}

/// A spec compiled to its solve plan: the expanded grid, the per-block
/// solve contexts and the mode (lane) dimension. Memoized per engine —
/// see [`SweepEngine::compile`].
#[derive(Debug)]
struct CompiledSpec {
    points: Vec<GridPoint>,
    blocks: Vec<BlockContext>,
    modes: Vec<GuardbandMode>,
}

/// Lane width of the sweep workers' group solves: four two-socket
/// servers per [`crate::solve::SolveBatch`] pass. Wide enough to converge
/// a whole three-mode assignment block (6 lanes) in one kernel pass,
/// measured profitable over 2-, 4- and 16-lane batches in
/// `benches/solve.rs`.
pub const GROUP_SOLVE_LANES: usize = 8;

/// Per-worker scratch carried across a sweep: the reusable simulations
/// (tagged with the assignment block they were built for, one per
/// group-solved mode) and the current block's staged cache lanes with
/// their journal `computed` flags.
struct SweepScratch {
    sims: Vec<Simulation>,
    sims_block: Option<usize>,
    prefetched_block: Option<usize>,
    prefetched: Vec<Option<Arc<Outcome>>>,
    computed: Vec<bool>,
}

impl SweepScratch {
    fn new() -> Self {
        SweepScratch {
            sims: Vec::new(),
            sims_block: None,
            prefetched_block: None,
            prefetched: Vec::new(),
            computed: Vec::new(),
        }
    }
}

/// One (workload, cores, placement) grid block's precomputed solve
/// context: the seeded experiment, the assignment, and both cache
/// fingerprints. Shared by the block's `modes.len()` points.
#[derive(Debug, Clone)]
struct BlockContext {
    experiment: Experiment,
    experiment_fp: u64,
    assignment: Assignment,
    assignment_fp: u64,
    fault_fp: u64,
}

/// Runs `f(0..n)` on `jobs` executor workers ([`crate::exec`]) and returns
/// the results in index order, regardless of which worker computed what.
/// A panic in `f` panics the caller.
///
/// The studies with bespoke per-point configurations (ambient sweeps,
/// aged silicon) use this directly instead of going through [`SweepSpec`].
pub fn run_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let schedule = Schedule::new(jobs, 1, "sweep_point", telemetry::sweep_points_claimed());
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    exec::run(
        &schedule,
        n,
        &|_| false,
        || (),
        |(), idx| f(idx),
        |idx, verdict| match verdict {
            Ok(value) => slots[idx] = Some(value),
            Err(failed) => panic!("index {idx} panicked: {}", failed.reason),
        },
    );
    slots
        .into_iter()
        .map(|slot| slot.expect("every index ran"))
        .collect()
}

/// The solve-cache fingerprint of an experiment: its full server config
/// (rails, curves, policy, seed) mixed with its execution model.
#[must_use]
pub fn experiment_fingerprint(experiment: &Experiment) -> u64 {
    fingerprint(experiment.config()) ^ fingerprint(experiment.exec_model()).rotate_left(17)
}

fn fingerprint<T: Serialize + ?Sized>(value: &T) -> u64 {
    fnv64(serde::json::to_string(value).as_bytes())
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::new(vec!["raytrace".into(), "radix".into()], vec![1, 4])
            .with_modes(vec![
                GuardbandMode::StaticGuardband,
                GuardbandMode::Undervolt,
            ])
            .with_ticks(4, 2)
    }

    #[test]
    fn grid_expansion_is_workload_major_and_indexed() {
        let spec = tiny_spec();
        let points = spec.grid_points();
        assert_eq!(points.len(), spec.len());
        assert_eq!(points[0].workload, "raytrace");
        assert_eq!(points[0].cores, 1);
        assert_eq!(points[0].mode, GuardbandMode::StaticGuardband);
        assert_eq!(points[1].mode, GuardbandMode::Undervolt);
        assert_eq!(points[4].workload, "radix");
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn point_seed_ignores_mode_but_not_assignment() {
        let spec = tiny_spec();
        let points = spec.grid_points();
        // points 0/1: same assignment, different mode → same seed.
        assert_eq!(spec.point_seed(&points[0]), spec.point_seed(&points[1]));
        // different cores → different seed.
        assert_ne!(spec.point_seed(&points[0]), spec.point_seed(&points[2]));
        // different master seed → different point seed.
        let reseeded = tiny_spec().with_seed(7);
        assert_ne!(spec.point_seed(&points[0]), reseeded.point_seed(&points[0]));
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let catalog = Catalog::power7plus();
        assert!(tiny_spec().validate(&catalog).is_ok());
        let unknown = SweepSpec::new(vec!["nope".into()], vec![1]);
        assert!(matches!(
            unknown.validate(&catalog),
            Err(SimError::Workload(_))
        ));
        let empty = SweepSpec::new(vec![], vec![1]);
        assert!(matches!(
            empty.validate(&catalog),
            Err(SimError::InvalidConfig { .. })
        ));
        let too_wide = SweepSpec::new(vec!["radix".into()], vec![9]);
        assert!(matches!(
            too_wide.validate(&catalog),
            Err(SimError::InvalidAssignment { .. })
        ));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = tiny_spec().with_placements(vec![Placement::SingleSocket, Placement::Borrowed]);
        let json = serde::json::to_string(&spec);
        let back: SweepSpec = serde::json::from_str(&json).unwrap();
        assert_eq!(back, spec);

        let faulted = tiny_spec().with_faults(p7_faults::FaultPlan::named("dead-cpm").unwrap());
        let back: SweepSpec = serde::json::from_str(&faulted.to_json()).unwrap();
        assert_eq!(back, faulted);
    }

    #[test]
    fn spec_files_without_a_faults_key_still_parse() {
        // Spec files written before the fault dimension existed have no
        // "faults" key; they must read back as healthy sweeps.
        let spec = tiny_spec();
        let json = spec.to_json();
        let legacy = json.replace(",\"faults\":null", "");
        assert_ne!(legacy, json, "fixture must actually drop the key");
        let back = SweepSpec::from_json(&legacy).unwrap();
        assert_eq!(back, spec);
        assert!(back.faults.is_none());
    }

    #[test]
    fn faulted_sweep_never_answers_from_healthy_cache_entries() {
        // Same engine, same cache, same grid — with and without a fault
        // plan. The faulted sweep must re-solve every point (distinct
        // cache keys) and produce different numbers: a dead CPM reads
        // tap 0, which engages the fail-safe on its core.
        let spec = SweepSpec::new(vec!["raytrace".into()], vec![2])
            .with_modes(vec![GuardbandMode::Undervolt])
            .with_ticks(20, 10);
        let cache = Arc::new(SolveCache::new());
        let engine = SweepEngine::with_cache(1, cache.clone());
        let healthy = engine.run(&spec).unwrap();
        let cold = cache.counters();
        assert_eq!(cold.misses as usize, spec.len());

        let faulted_spec = spec
            .clone()
            .with_faults(p7_faults::FaultPlan::named("dead-cpm").unwrap());
        let faulted = engine.run(&faulted_spec).unwrap();
        let after = cache.counters();
        assert_eq!(
            after.misses as usize,
            spec.len() + faulted_spec.len(),
            "faulted points must miss, not hit healthy entries"
        );
        assert_ne!(
            healthy.results_json(),
            faulted.results_json(),
            "a dead CPM must change the undervolt trajectory"
        );

        // And the faulted entries answer repeat faulted sweeps.
        engine.run(&faulted_spec).unwrap();
        assert_eq!(cache.counters().misses, after.misses);
    }

    #[test]
    fn probe_lanes_counts_hits_per_present_lane() {
        // A block probe is one lock acquisition but N lane lookups: the
        // hit counter must advance once per *present* lane, and absent
        // lanes must come back `None` without touching any counter
        // (their miss is charged by the solve that follows).
        let cache = SolveCache::new();
        let exp = Experiment::power7plus(3).with_ticks(3, 1);
        let w = Catalog::power7plus().get("radix").unwrap().clone();
        let a = Assignment::single_socket(&w, 2).unwrap();
        let (exp_fp, a_fp) = (fingerprint(exp.config()), fingerprint(&a));
        let modes = GuardbandMode::all();

        // Populate exactly one of the three mode lanes.
        cache
            .solve_with(exp_fp, a_fp, modes[1], 3, 1, 0, || exp.run(&a, modes[1]))
            .unwrap();
        let seeded = cache.counters();
        assert_eq!((seeded.hits, seeded.misses), (0, 1));

        let mut lanes = Vec::new();
        cache.probe_lanes(exp_fp, a_fp, &modes, 3, 1, 0, &mut lanes);
        assert_eq!(lanes.len(), 3);
        assert!(lanes[0].is_none() && lanes[2].is_none());
        assert!(lanes[1].is_some(), "the seeded lane must be prefetched");
        let probed = cache.counters();
        assert_eq!(probed.hits, 1, "one present lane = one hit");
        assert_eq!(probed.misses, 1, "absent lanes charge nothing here");

        // A different fault fingerprint vacates every lane.
        cache.probe_lanes(exp_fp, a_fp, &modes, 3, 1, 0xdead, &mut lanes);
        assert!(lanes.iter().all(Option::is_none));
        assert_eq!(cache.counters().hits, 1);
    }

    #[test]
    fn mixed_warm_sweep_counts_hits_and_misses_per_lane() {
        // Pre-populate one mode lane of every assignment block via a
        // single-mode sweep, then run the full three-mode grid: each
        // block must report exactly one hit (the warm lane) and two
        // misses — per-lane accounting, not per-batch.
        let full = SweepSpec::new(vec!["raytrace".into(), "radix".into()], vec![1, 4])
            .with_modes(GuardbandMode::all().to_vec())
            .with_ticks(4, 2);
        let subset = full.clone().with_modes(vec![GuardbandMode::Undervolt]);
        let blocks = subset.len();

        let cache = Arc::new(SolveCache::new());
        let engine = SweepEngine::with_cache(2, cache.clone());
        engine.run(&subset).unwrap();
        assert_eq!(cache.counters().misses as usize, blocks);

        let report = engine.run(&full).unwrap();
        assert_eq!(
            report.stats.cache.hits as usize, blocks,
            "one warm lane per block"
        );
        assert_eq!(
            report.stats.cache.misses as usize,
            full.len(),
            "the two cold lanes of each block miss"
        );
    }

    #[test]
    fn resume_refuses_journal_entries_outside_the_grid() {
        // The manifest pins the spec, so an entry the grid does not hold
        // is corruption that slipped past the segment checksums: refused
        // before a single point is solved.
        let spec = tiny_spec();
        let reference = SweepEngine::with_cache(1, Arc::new(SolveCache::new()))
            .run(&spec)
            .unwrap();
        let mut past_the_grid = reference.results[0].clone();
        past_the_grid.point.index = spec.len();
        let dir = std::env::temp_dir().join(format!("p7-sweep-stray-{}", std::process::id()));
        for (idx, stray) in [
            (spec.len(), past_the_grid),
            (0, reference.results[1].clone()),
        ] {
            let _ = std::fs::remove_dir_all(&dir);
            crate::journal::Journal::create(&dir, &spec.manifest())
                .unwrap()
                .append(&[(idx, stray)])
                .unwrap();
            let options = SweepRunOptions {
                durable: DurableOptions::resumed(&dir),
                ..SweepRunOptions::default()
            };
            let cache = Arc::new(SolveCache::new());
            let err = SweepEngine::with_cache(2, cache.clone())
                .run_durable(&spec, &options)
                .unwrap_err();
            assert!(
                matches!(&err, SimError::Journal { reason } if reason.contains("does not match")),
                "entry {idx}: {err}"
            );
            assert_eq!(cache.counters().misses, 0, "entry {idx}: points ran");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scratch_reuse_matches_direct_runs() {
        // The engine's reused-and-reset scratch simulations must produce
        // bitwise the same outcomes as a fresh Experiment::run per point.
        let spec = tiny_spec();
        let engine = SweepEngine::with_cache(1, Arc::new(SolveCache::new()));
        let report = engine.run(&spec).unwrap();
        let catalog = Catalog::power7plus();
        for r in &report.results {
            let profile = catalog.require(&r.point.workload).unwrap();
            let assignment = r
                .point
                .placement
                .assignment(profile, r.point.cores)
                .unwrap();
            let direct = Experiment::power7plus(spec.point_seed(&r.point))
                .with_ticks(spec.measure_ticks, spec.warmup_ticks)
                .run(&assignment, r.point.mode)
                .unwrap();
            assert_eq!(r.outcome, direct, "point {}", r.point.index);
        }
    }

    #[test]
    fn sweep_is_identical_across_worker_counts() {
        let spec = tiny_spec();
        let cold = SweepEngine::with_cache(1, Arc::new(SolveCache::new()));
        let wide = SweepEngine::with_cache(8, Arc::new(SolveCache::new()));
        let a = cold.run(&spec).unwrap();
        let b = wide.run(&spec).unwrap();
        assert_eq!(a.results_json(), b.results_json());
    }

    #[test]
    fn cache_answers_repeat_solves() {
        let cache = Arc::new(SolveCache::new());
        let engine = SweepEngine::with_cache(2, cache.clone());
        let spec = tiny_spec();
        let first = engine.run(&spec).unwrap();
        let after_cold = cache.counters();
        // Every grid cell is a distinct (assignment, mode) key, so the
        // cold sweep misses once per point…
        assert_eq!(after_cold.misses as usize, first.results.len());
        let second = engine.run(&spec).unwrap();
        let after_warm = cache.counters();
        // …and the warm sweep answers every point from the cache.
        assert_eq!(after_warm.misses, after_cold.misses, "warm run re-solved");
        assert_eq!(after_warm.hits, after_cold.hits + spec.len() as u64);
        assert_eq!(first.results_json(), second.results_json());
    }

    #[test]
    fn report_lookups_and_derived_metrics() {
        let engine = SweepEngine::with_cache(0, Arc::new(SolveCache::new()));
        let report = engine.run(&tiny_spec()).unwrap();
        let saving = report
            .power_saving_percent(
                "raytrace",
                1,
                Placement::SingleSocket,
                GuardbandMode::Undervolt,
            )
            .unwrap();
        assert!(saving > 0.0, "undervolting must save power: {saving}%");
        assert!(report
            .outcome(
                "raytrace",
                2,
                Placement::SingleSocket,
                GuardbandMode::Undervolt
            )
            .is_none());
        assert_eq!(report.stats.points, report.results.len());
        assert!(report.stats.points_per_sec() > 0.0);
    }

    #[test]
    fn fig10_grid_covers_the_scatter_set() {
        let spec = SweepSpec::fig10_grid();
        assert_eq!(spec.cores, vec![8]);
        assert!(
            spec.workloads.len() >= 40,
            "scatter set has {} workloads",
            spec.workloads.len()
        );
        spec.validate(&Catalog::power7plus()).unwrap();
    }

    #[test]
    fn cached_experiment_matches_plain_runs() {
        let exp = Experiment::power7plus(42).with_ticks(4, 2);
        let cached = CachedExperiment::with_cache(exp.clone(), Arc::new(SolveCache::new()));
        let w = Catalog::power7plus().get("radix").unwrap().clone();
        let a = Assignment::single_socket(&w, 2).unwrap();
        let plain = exp.run(&a, GuardbandMode::Undervolt).unwrap();
        let memo = cached.run(&a, GuardbandMode::Undervolt).unwrap();
        assert_eq!(*memo, plain);
        let again = cached.run(&a, GuardbandMode::Undervolt).unwrap();
        assert_eq!(cached.cache().counters().hits, 1);
        assert_eq!(*again, plain);
    }

    #[test]
    fn placement_labels_round_trip() {
        for p in Placement::all() {
            assert_eq!(Placement::parse(p.label()), Some(p));
        }
        assert_eq!(Placement::parse("turbo"), None);
    }

    #[test]
    fn cache_stats_without_a_contended_key_still_parse() {
        // Reports serialized before the cache was sharded have no
        // "contended" key; they must read back as uncontended.
        let stats = CacheStats {
            hits: 3,
            misses: 2,
            entries: 1,
            evictions: 4,
            contended: 7,
        };
        let json = serde::json::to_string(&stats);
        let back: CacheStats = serde::json::from_str(&json).unwrap();
        assert_eq!(back, stats);

        let legacy = json.replace(",\"contended\":7", "");
        assert_ne!(legacy, json, "fixture must actually drop the key");
        let back: CacheStats = serde::json::from_str(&legacy).unwrap();
        assert_eq!((back.hits, back.evictions, back.contended), (3, 4, 0));
    }

    #[test]
    fn shard_capacity_bounds_entries_and_counts_evictions() {
        // 32 entries over 16 shards = 2 per shard: inserting 200
        // distinct keys must keep the table bounded, with the overflow
        // visible in the eviction counter — entries + evictions always
        // accounts for every insert.
        let cache = SolveCache::with_capacity(32);
        let exp = Experiment::power7plus(11).with_ticks(2, 1);
        let w = Catalog::power7plus().get("radix").unwrap().clone();
        let a = Assignment::single_socket(&w, 1).unwrap();
        let seed = exp.run(&a, GuardbandMode::Undervolt).unwrap();
        for key in 0..200u64 {
            cache
                .solve_with(key, key, GuardbandMode::Undervolt, 2, 1, 0, || {
                    Ok(seed.clone())
                })
                .unwrap();
        }
        let stats = cache.counters();
        assert!(
            stats.entries <= 32,
            "entries {} exceed capacity",
            stats.entries
        );
        assert!(stats.evictions > 0, "200 inserts into 32 slots must evict");
        assert_eq!(stats.entries as u64 + stats.evictions, 200);
        assert_eq!(stats.misses, 200);
    }

    #[test]
    fn sharded_cache_accounting_is_exact_under_concurrent_probes() {
        // Four threads hammer overlapping blocks: every solve_with call
        // counts exactly one hit or one miss whatever the interleaving,
        // so the totals must come out exact — lock waits surface only in
        // the `contended` counter, never in results or accounting.
        let cache = Arc::new(SolveCache::new());
        let exp = Experiment::power7plus(13).with_ticks(2, 1);
        let w = Catalog::power7plus().get("radix").unwrap().clone();
        let a = Assignment::single_socket(&w, 1).unwrap();
        let seed = exp.run(&a, GuardbandMode::Undervolt).unwrap();
        const THREADS: u64 = 4;
        const CALLS: u64 = 400;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..CALLS {
                        let key = i % 32;
                        cache
                            .solve_with(key, key, GuardbandMode::Undervolt, 2, 1, 0, || {
                                Ok(seed.clone())
                            })
                            .unwrap();
                    }
                });
            }
        });
        let stats = cache.counters();
        assert_eq!(stats.hits + stats.misses, THREADS * CALLS);
        assert_eq!(stats.entries, 32);
        // 32 distinct keys, each missed by at least its first solver.
        assert!((32..=32 * THREADS).contains(&stats.misses));
    }
}
