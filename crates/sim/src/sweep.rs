//! Parallel sweep engine over the memoized steady-state solve.
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
//!   mode of one workload × cores × placement) per claim, solves each
//!   block with one [`SolveCache::solve_group`] call, and merges the
//!   results by grid index, so the output order never depends on
//!   scheduling.
//!
//! The cache itself lives in [`crate::cache`].
//!
//! Determinism: each grid point derives its own seed from the spec's
//! master seed and the point's coordinates (workload, core count,
//! placement — deliberately *not* the mode, so all modes of one
//! assignment share their cached static solve). A point's result is a
//! pure function of the spec, so a sweep is bitwise identical at any
//! worker count.

use crate::assignment::Assignment;
use crate::cache::{
    assignment_fingerprint, experiment_fingerprint, CacheStats, SolveCache, SolveRequest,
};
use crate::error::SimError;
use crate::exec::{self, Schedule};
use crate::experiment::{validate_run_windows, Experiment, Outcome};
use crate::journal::{run_durable_indexed, CampaignManifest, DurableOptions, FailedPoint};
use crate::telemetry;
use p7_control::GuardbandMode;
use p7_faults::FaultPlan;
use p7_types::{fnv64, splitmix};
use p7_workloads::{Catalog, WorkloadProfile};
use serde::{de, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
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

/// Most grid points one sweep spec may expand to (1 Mi). A point costs
/// a [`GridPoint`] when the grid expands and a [`PointResult`] of
/// about 1 KiB once solved, so a grid at the bound holds about 1 GiB of
/// results; the largest shipped grid has a few thousand points.
pub const MAX_SWEEP_POINTS: usize = 1 << 20;

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

    /// Number of grid points, saturating at `usize::MAX` for a grid too
    /// large to count ([`SweepSpec::validate`] refuses anything above
    /// [`MAX_SWEEP_POINTS`]).
    #[must_use]
    pub fn len(&self) -> usize {
        [self.cores.len(), self.placements.len(), self.modes.len()]
            .into_iter()
            .try_fold(self.workloads.len(), usize::checked_mul)
            .unwrap_or(usize::MAX)
    }

    /// True when any dimension is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
            || self.cores.is_empty()
            || self.placements.is_empty()
            || self.modes.is_empty()
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

    /// Checks that every dimension is non-empty, the grid holds at most
    /// [`MAX_SWEEP_POINTS`] points, the tick counts pass
    /// [`validate_run_windows`], every workload exists in the catalog and
    /// every core count fits a socket.
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
        if self.len() > MAX_SWEEP_POINTS {
            return Err(SimError::Spec {
                reason: format!(
                    "sweep grid of {} points exceeds the {MAX_SWEEP_POINTS}-point bound",
                    self.len()
                ),
            });
        }
        validate_run_windows(self.measure_ticks, self.warmup_ticks)?;
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

        // The claim unit is one assignment block — every mode of it — so
        // the worker that claims it solves the whole block in one group
        // and answers the block's other points from its scratch.
        let solved = run_durable_indexed(
            Schedule::new(
                self.jobs,
                modes_per_block,
                "sweep_point",
                telemetry::sweep_points_claimed(),
            ),
            points.len(),
            SweepScratch::default,
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

        // Modes are the innermost grid dimension, so every run of
        // `modes.len()` consecutive points shares one (workload, cores,
        // placement) assignment and one seed. Build the experiment, the
        // assignment and both cache fingerprints once per such block: on
        // a warm cache each point is then a pure hash lookup.
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
            let assignment = point.placement.assignment(profile, point.cores)?;
            blocks.push(BlockContext {
                experiment_fp: experiment_fingerprint(&experiment),
                experiment,
                assignment_fp: assignment_fingerprint(&assignment),
                assignment,
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
    /// The first point a worker sees of an assignment block solves the
    /// whole block — one [`SolveCache::solve_group`] request per guardband
    /// mode, the misses converging as lanes of one
    /// `SolveBatch<`[`GROUP_SOLVE_LANES`]`>` group — and keeps its lanes
    /// in `scratch`, which answers the block's remaining points.
    fn solve_point<'c>(
        &self,
        compiled: &'c CompiledSpec,
        idx: usize,
        scratch: &mut SweepScratch<'c>,
    ) -> Result<(PointResult, bool), SimError> {
        let modes_per_block = compiled.modes.len().max(1);
        let block = idx / modes_per_block;
        if scratch.block != Some(block) {
            scratch.block = None;
            let ctx = &compiled.blocks[block];
            scratch.requests.clear();
            scratch
                .requests
                .extend(compiled.modes.iter().map(|&mode| SolveRequest {
                    experiment: &ctx.experiment,
                    experiment_fp: ctx.experiment_fp,
                    assignment: &ctx.assignment,
                    assignment_fp: ctx.assignment_fp,
                    mode,
                }));
            self.cache
                .solve_group::<GROUP_SOLVE_LANES>(&scratch.requests, &mut scratch.lanes)?;
            scratch.block = Some(block);
        }
        let (outcome, computed) = &scratch.lanes[idx % modes_per_block];
        Ok((
            PointResult {
                point: compiled.points[idx].clone(),
                outcome: Outcome::clone(outcome),
            },
            *computed,
        ))
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
/// servers per [`crate::solve::SolveBatch`] pass, wide enough to converge
/// a whole three-mode assignment block (6 lanes) in one kernel pass. A
/// wider batch buys nothing at this size: a cold three-mode block at
/// 60/30 windows solved in a median 948–983 µs at 8 lanes against
/// 956–984 µs at 16 (raytrace, lu_cb and radix at 8 cores, 20
/// alternating rounds each, release build on a 2-vCPU x86-64 host).
pub const GROUP_SOLVE_LANES: usize = 8;

/// Per-worker scratch: the assignment block this worker last solved, its
/// requests and its lanes (one `(outcome, computed)` per mode), which
/// answer the block's remaining points. Both vectors are reused across
/// blocks, so a warm block allocates nothing here. Rebuilt after a caught
/// panic, so an interrupted block is simply solved again.
#[derive(Default)]
struct SweepScratch<'c> {
    block: Option<usize>,
    requests: Vec<SolveRequest<'c>>,
    lanes: Vec<(Arc<Outcome>, bool)>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedExperiment;
    use crate::experiment::MAX_RUN_WINDOWS;

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
    fn validate_bounds_grid_points_and_run_windows() {
        let catalog = Catalog::power7plus();
        // 1024 workloads x 1024 core counts = exactly the point bound.
        let mut at_bound = SweepSpec::new(vec!["radix".into(); 1 << 10], vec![1; 1 << 10])
            .with_modes(vec![GuardbandMode::Undervolt]);
        assert_eq!(at_bound.len(), MAX_SWEEP_POINTS);
        assert!(at_bound.validate(&catalog).is_ok());
        at_bound.cores.push(1);
        assert!(matches!(
            at_bound.validate(&catalog),
            Err(SimError::Spec { .. })
        ));

        let mut ticks = tiny_spec();
        ticks.measure_ticks = MAX_RUN_WINDOWS - ticks.warmup_ticks;
        assert!(ticks.validate(&catalog).is_ok());
        ticks.measure_ticks += 1;
        assert!(matches!(
            ticks.validate(&catalog),
            Err(SimError::Spec { .. })
        ));
        ticks.measure_ticks = 0;
        assert!(ticks.validate(&catalog).is_err());
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
    fn block_solves_match_direct_runs() {
        // The engine's grouped block solves must produce bitwise the same
        // outcomes as a fresh Experiment::run per point.
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
    fn cached_experiment_hits_the_entries_a_sweep_published() {
        // The sweep hoists its fingerprints per block; a CachedExperiment
        // computes them per run. Both must land on the same keys, so a
        // point the sweep solved is a hit with the identical outcome.
        let spec = tiny_spec();
        let cache = Arc::new(SolveCache::new());
        let report = SweepEngine::with_cache(2, cache.clone())
            .run(&spec)
            .unwrap();
        let swept = cache.counters();
        let r = &report.results[3];
        let cached = CachedExperiment::with_cache(
            Experiment::power7plus(spec.point_seed(&r.point))
                .with_ticks(spec.measure_ticks, spec.warmup_ticks),
            cache.clone(),
        );
        let catalog = Catalog::power7plus();
        let profile = catalog.require(&r.point.workload).unwrap();
        let assignment = r
            .point
            .placement
            .assignment(profile, r.point.cores)
            .unwrap();
        let outcome = cached.run(&assignment, r.point.mode).unwrap();
        assert_eq!(*outcome, r.outcome);
        let after = cache.counters();
        assert_eq!((after.hits, after.misses), (swept.hits + 1, swept.misses));
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
    fn placement_labels_round_trip() {
        for p in Placement::all() {
            assert_eq!(Placement::parse(p.label()), Some(p));
        }
        assert_eq!(Placement::parse("turbo"), None);
    }
}
