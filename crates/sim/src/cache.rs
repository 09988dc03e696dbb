//! The memoized steady-state solve.
//!
//! Every sweep point, fleet server-epoch and [`CachedExperiment`] run
//! reaches the simulator through one method, [`SolveCache::solve_group`]:
//!
//! ```text
//!  probe every key ──► one Simulation ──► run_group::<LANES> ──► publish; fill `out`
//!  (hits are final)    per miss           per run of equal       in request order
//!                                         tick counts
//! ```
//!
//! The cache key fingerprints everything a solve depends on: the
//! experiment (server configuration and execution model), the
//! assignment, the guardband mode, the tick counts and the fault plan.
//! Callers hoist the two value-tree fingerprints — [`experiment_fingerprint`]
//! and [`assignment_fingerprint`] — out of their loops; the rest of the
//! key is read from the experiment here, so no caller builds a key. Keys
//! live only in this process: nothing stores them.
//!
//! Counting is per request, never per batch: a request answered by the
//! probe counts one hit, and a solved one counts one miss when it inserts
//! its entry — or one hit when the key was already present at publish (a
//! duplicate request in the same call, or a racing worker), in which case
//! the stored entry is returned. Every call that returns `Ok` therefore
//! adds exactly its number of requests to `hits + misses`.

use crate::assignment::Assignment;
use crate::error::SimError;
use crate::experiment::{Experiment, Outcome};
use crate::group::run_group;
use crate::server::Simulation;
use crate::telemetry;
use p7_control::GuardbandMode;
use p7_types::{fingerprint, splitmix, NUM_SOCKETS};
use serde::{de, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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

/// One memoized solve: `experiment.run(assignment, mode)`, carrying the
/// two fingerprints the caller hoists out of its loop.
#[derive(Debug, Clone, Copy)]
pub struct SolveRequest<'a> {
    /// The experiment to run. Its tick counts and fault plan join the key.
    pub experiment: &'a Experiment,
    /// MUST be [`experiment_fingerprint`] of `experiment`: any other value
    /// keys the solve under someone else's entry or misses its own.
    pub experiment_fp: u64,
    /// Which threads run where.
    pub assignment: &'a Assignment,
    /// MUST be [`assignment_fingerprint`] of `assignment`, for the same
    /// reason.
    pub assignment_fp: u64,
    /// The guardband mode to run.
    pub mode: GuardbandMode,
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

impl SolveKey {
    fn of(request: &SolveRequest<'_>) -> Self {
        SolveKey {
            config_fingerprint: request.experiment_fp,
            assignment_fingerprint: request.assignment_fp,
            mode: request.mode,
            measure_ticks: request.experiment.measure_ticks(),
            warmup_ticks: request.experiment.warmup_ticks(),
            fault_fingerprint: request.experiment.fault_fingerprint(),
        }
    }

    /// Whether the two keys' simulations are built alike: every
    /// component but the mode is equal.
    fn same_build(&self, other: &SolveKey) -> bool {
        SolveKey {
            mode: other.mode,
            ..self.clone()
        } == *other
    }

    /// The shard this key lives in: a splitmix chain over every
    /// component, so near-identical keys (same block, different mode)
    /// still spread across locks.
    fn shard(&self) -> usize {
        let mode_tag = match self.mode {
            GuardbandMode::StaticGuardband => 1u64,
            GuardbandMode::Overclock => 2,
            GuardbandMode::Undervolt => 3,
        };
        let mut h = splitmix(self.config_fingerprint);
        h = splitmix(h ^ self.assignment_fingerprint);
        h = splitmix(h ^ self.fault_fingerprint);
        h = splitmix(
            h ^ (self.measure_ticks as u64) ^ ((self.warmup_ticks as u64) << 24) ^ mode_tag,
        );
        #[allow(clippy::cast_possible_truncation)]
        {
            (h % CACHE_SHARDS as u64) as usize
        }
    }
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

type Shard = HashMap<SolveKey, Arc<Outcome>>;

/// Memoization table for steady-state solves, shared across threads.
///
/// [`SolveCache::solve_group`] is its one solving method; see the
/// [module docs](crate::cache) for the key and the counting rules. Two racing
/// workers may both simulate the same key; the solve is deterministic, so
/// the second publish simply returns the first's entry.
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
    shards: [Mutex<Shard>; CACHE_SHARDS],
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

    /// The process-wide shared cache. Figure binaries, the CLI and the
    /// integration tests all default to this instance, so identical
    /// solves are shared across every consumer in the process.
    #[must_use]
    pub fn global() -> Arc<SolveCache> {
        static GLOBAL: OnceLock<Arc<SolveCache>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(SolveCache::new())).clone()
    }

    /// Solves every request, memoized: `out` receives one
    /// `(outcome, computed)` per request, in request order, where each
    /// outcome is bit-identical to `experiment.run(assignment, mode)` and
    /// `computed` is true only for entries this call inserted (the
    /// journal-worthy ones — a hit costs nothing to reproduce).
    ///
    /// Each request's key is probed and each miss gets a freshly built
    /// [`Simulation`] — built once per distinct key-without-mode and
    /// cloned for the other modes, since a sweep block's requests differ
    /// only in mode; every run of consecutive misses with equal tick
    /// counts then converges as one [`run_group`] of `LANES` solver lanes
    /// (`LANES / 2` two-socket servers per kernel pass).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when a missing request's simulation cannot be
    /// built; nothing is published then.
    ///
    /// # Panics
    ///
    /// Panics if `LANES` is smaller than one server's two sockets.
    pub fn solve_group<const LANES: usize>(
        &self,
        requests: &[SolveRequest<'_>],
        out: &mut Vec<(Arc<Outcome>, bool)>,
    ) -> Result<(), SimError> {
        out.clear();
        let mut misses: Vec<(usize, SolveKey, Simulation)> = Vec::new();
        for (slot, request) in requests.iter().enumerate() {
            let key = SolveKey::of(request);
            match self.lookup(&key) {
                Some(hit) => out.push((hit, false)),
                None => {
                    // Nothing has ticked yet, so an earlier miss's
                    // simulation is still exactly what a build would give.
                    let sim = match misses.iter().find(|(_, k, _)| k.same_build(&key)) {
                        Some((.., built)) => built.clone().with_mode(request.mode),
                        None => request
                            .experiment
                            .build_simulation(request.assignment, request.mode)?,
                    };
                    misses.push((slot, key, sim));
                }
            }
        }

        let ticks = |slot: usize| {
            let experiment = requests[slot].experiment;
            (experiment.measure_ticks(), experiment.warmup_ticks())
        };
        for group in misses.chunk_by_mut(|a, b| ticks(a.0) == ticks(b.0)) {
            let (measure, warmup) = ticks(group[0].0);
            let mut sims: Vec<&mut Simulation> = group.iter_mut().map(|(.., sim)| sim).collect();
            let summaries = run_group::<LANES>(&mut sims, measure, warmup);
            for ((slot, key, _), summary) in group.iter().zip(summaries) {
                let request = &requests[*slot];
                let outcome = request
                    .experiment
                    .outcome_from_summary(request.assignment, summary);
                // Misses are visited in request order, so every earlier
                // request already holds its place in `out`.
                out.insert(*slot, self.publish(key.clone(), outcome));
            }
        }
        Ok(())
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

    /// The stored entry under `key`, counting one hit when present.
    fn lookup(&self, key: &SolveKey) -> Option<Arc<Outcome>> {
        let hit = self.lock_shard(key.shard()).get(key).cloned();
        if hit.is_some() {
            self.count_hit();
        }
        hit
    }

    /// Publishes a freshly solved `outcome` under `key`: one miss that
    /// inserts it (`computed == true`), or — when the key is already
    /// present — one hit that returns the stored entry instead.
    fn publish(&self, key: SolveKey, outcome: Outcome) -> (Arc<Outcome>, bool) {
        let mut map = self.lock_shard(key.shard());
        if let Some(stored) = map.get(&key) {
            let stored = Arc::clone(stored);
            drop(map);
            self.count_hit();
            return (stored, false);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::solve_cache_misses().inc();
        if map.len() >= self.shard_capacity() {
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
        let outcome = Arc::new(outcome);
        map.insert(key, Arc::clone(&outcome));
        telemetry::solve_cache_entries().add(1);
        (outcome, true)
    }

    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        telemetry::solve_cache_hits().inc();
    }

    /// One shard's share of the capacity bound.
    fn shard_capacity(&self) -> usize {
        (self.capacity / CACHE_SHARDS).max(1)
    }

    /// Locks one shard, counting the acquisition as contended when the
    /// lock was already held by another thread.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, Shard> {
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
        let request = SolveRequest {
            experiment: &self.experiment,
            experiment_fp: self.experiment_fp,
            assignment,
            assignment_fp: assignment_fingerprint(assignment),
            mode,
        };
        let mut out = Vec::with_capacity(1);
        // One server: a group of one, as `Simulation::run` ticks it.
        self.cache
            .solve_group::<NUM_SOCKETS>(&[request], &mut out)?;
        Ok(out.pop().expect("one outcome per request").0)
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

/// The solve-cache fingerprint of an experiment: its full server config
/// (rails, curves, policy, seed) mixed with its execution model, hashed
/// from their value trees by [`p7_types::fingerprint`].
#[must_use]
pub fn experiment_fingerprint(experiment: &Experiment) -> u64 {
    fingerprint(experiment.config()) ^ fingerprint(experiment.exec_model()).rotate_left(17)
}

/// The solve-cache fingerprint of an assignment (workload profiles,
/// active-core set, thread placement).
#[must_use]
pub fn assignment_fingerprint(assignment: &Assignment) -> u64 {
    fingerprint(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p7_workloads::Catalog;

    fn assignment(name: &str, cores: usize) -> Assignment {
        let w = Catalog::power7plus().get(name).unwrap().clone();
        Assignment::single_socket(&w, cores).unwrap()
    }

    fn request<'a>(
        experiment: &'a Experiment,
        assignment: &'a Assignment,
        mode: GuardbandMode,
    ) -> SolveRequest<'a> {
        SolveRequest {
            experiment,
            experiment_fp: experiment_fingerprint(experiment),
            assignment,
            assignment_fp: assignment_fingerprint(assignment),
            mode,
        }
    }

    /// A key that differs from every other `n` and holds `outcome`.
    fn publish_key(cache: &SolveCache, n: u64, outcome: &Outcome) -> (Arc<Outcome>, bool) {
        cache.publish(key(n), outcome.clone())
    }

    fn key(n: u64) -> SolveKey {
        SolveKey {
            config_fingerprint: n,
            assignment_fingerprint: n,
            mode: GuardbandMode::Undervolt,
            measure_ticks: 2,
            warmup_ticks: 1,
            fault_fingerprint: 0,
        }
    }

    #[test]
    fn duplicate_requests_count_one_miss_and_one_hit() {
        // Duplicate modes in a sweep spec send the same key twice in one
        // call: both are simulated, the first publish inserts (a miss)
        // and the second finds it present (a hit returning the stored
        // entry).
        let cache = SolveCache::new();
        let exp = Experiment::power7plus(5).with_ticks(4, 2);
        let a = assignment("radix", 2);
        let twice = [request(&exp, &a, GuardbandMode::Undervolt); 2];
        let mut out = Vec::new();
        cache.solve_group::<8>(&twice, &mut out).unwrap();
        let stats = cache.counters();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(out.len(), 2);
        assert!(out[0].1 && !out[1].1, "only the inserting request computed");
        assert!(
            Arc::ptr_eq(&out[0].0, &out[1].0),
            "the hit returns the entry"
        );
        assert_eq!(*out[0].0, exp.run(&a, GuardbandMode::Undervolt).unwrap());
    }

    #[test]
    fn mixed_tick_counts_solve_each_request_with_its_own_ticks() {
        // Interleaved tick counts split the misses into one group per run
        // of equal counts; a single shared group would measure the short
        // experiment's servers for the long one's windows.
        let short = Experiment::power7plus(7).with_ticks(3, 1);
        let long = Experiment::power7plus(7).with_ticks(6, 4);
        let (a, b) = (assignment("raytrace", 1), assignment("lu_cb", 4));
        let requests = [
            request(&short, &a, GuardbandMode::Undervolt),
            request(&long, &a, GuardbandMode::Undervolt),
            request(&long, &b, GuardbandMode::Overclock),
            request(&short, &b, GuardbandMode::StaticGuardband),
        ];
        let cache = SolveCache::new();
        let mut out = Vec::new();
        cache.solve_group::<8>(&requests, &mut out).unwrap();
        assert_eq!(out.len(), requests.len());
        for (r, (outcome, computed)) in requests.iter().zip(&out) {
            assert!(computed);
            assert_eq!(**outcome, r.experiment.run(r.assignment, r.mode).unwrap());
        }
        assert_eq!(out[1].0.summary.ticks_measured, 6);
        assert_eq!(out[3].0.summary.ticks_measured, 3);
    }

    #[test]
    fn a_block_builds_once_and_matches_direct_runs_healthy_and_faulted() {
        // A sweep block's three requests differ only in mode: the call
        // builds one simulation and clones it per mode, and every lane
        // must still equal its own fresh `Experiment::run`.
        let healthy = Experiment::power7plus(17).with_ticks(6, 3);
        let storm = healthy
            .clone()
            .with_faults(p7_faults::FaultPlan::named("droop-storm").unwrap());
        let a = assignment("bodytrack", 4);
        for exp in [&healthy, &storm] {
            let block = [
                GuardbandMode::StaticGuardband,
                GuardbandMode::Overclock,
                GuardbandMode::Undervolt,
            ]
            .map(|mode| request(exp, &a, mode));
            let cache = SolveCache::new();
            let mut out = Vec::new();
            cache.solve_group::<8>(&block, &mut out).unwrap();
            for (r, (outcome, computed)) in block.iter().zip(&out) {
                assert!(computed);
                assert_eq!(**outcome, exp.run(&a, r.mode).unwrap(), "{:?}", r.mode);
            }
        }
    }

    #[test]
    fn a_one_ulp_change_in_any_config_float_changes_the_fingerprint() {
        fn floats(v: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            match v {
                Value::Float(_) => out.push(path.clone()),
                Value::Seq(items) => walk(items.iter(), path, out),
                Value::Map(entries) => walk(entries.iter().map(|(_, v)| v), path, out),
                _ => {}
            }
        }
        fn walk<'a>(
            items: impl Iterator<Item = &'a Value>,
            path: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            for (i, item) in items.enumerate() {
                path.push(i);
                floats(item, path, out);
                path.pop();
            }
        }
        fn leaf<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
            path.iter().fold(v, |v, &i| match v {
                Value::Seq(items) => &mut items[i],
                Value::Map(entries) => &mut entries[i].1,
                other => panic!("no child {i} in a {}", other.kind()),
            })
        }

        let config = crate::ServerConfig::power7plus(29);
        let tree = config.to_value();
        let mut paths = Vec::new();
        floats(&tree, &mut Vec::new(), &mut paths);
        assert!(paths.len() > 20, "only {} floats", paths.len());
        let base = fingerprint(&config);
        for path in &paths {
            let mut nudged = tree.clone();
            let Value::Float(f) = leaf(&mut nudged, path) else {
                unreachable!("paths lead to floats")
            };
            *f = f.next_up();
            let changed = crate::ServerConfig::from_value(&nudged).unwrap();
            assert_ne!(fingerprint(&changed), base, "float at {path:?}");
        }
        // Equal values fingerprint equally, also through a JSON round trip.
        let back: crate::ServerConfig =
            serde::json::from_str(&serde::json::to_string(&config)).unwrap();
        assert_eq!(fingerprint(&back), base);
    }

    #[test]
    fn cached_experiment_matches_plain_runs() {
        let exp = Experiment::power7plus(42).with_ticks(4, 2);
        let cached = CachedExperiment::with_cache(exp.clone(), Arc::new(SolveCache::new()));
        let a = assignment("radix", 2);
        let plain = exp.run(&a, GuardbandMode::Undervolt).unwrap();
        let memo = cached.run(&a, GuardbandMode::Undervolt).unwrap();
        assert_eq!(*memo, plain);
        let again = cached.run(&a, GuardbandMode::Undervolt).unwrap();
        assert_eq!(cached.cache().counters().hits, 1);
        assert_eq!(*again, plain);
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
        let seed = exp
            .run(&assignment("radix", 1), GuardbandMode::Undervolt)
            .unwrap();
        for n in 0..200u64 {
            assert!(cache.lookup(&key(n)).is_none());
            publish_key(&cache, n, &seed);
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
        // Four threads hammer overlapping keys through the lookup/publish
        // pair `solve_group` uses: every solve counts exactly one hit or
        // one miss whatever the interleaving, so the totals must come out
        // exact — lock waits surface only in the `contended` counter,
        // never in results or accounting.
        let cache = Arc::new(SolveCache::new());
        let exp = Experiment::power7plus(13).with_ticks(2, 1);
        let seed = exp
            .run(&assignment("radix", 1), GuardbandMode::Undervolt)
            .unwrap();
        const THREADS: u64 = 4;
        const CALLS: u64 = 400;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..CALLS {
                        let n = i % 32;
                        if cache.lookup(&key(n)).is_none() {
                            publish_key(&cache, n, &seed);
                        }
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
