//! The fleet engine: thousands of simulated servers sharded across
//! workers and advanced through wide solver lanes.
//!
//! # Sharding
//!
//! The fleet is cut into contiguous *shards* of [`FleetSpec::shard_servers`]
//! servers. A shard is the unit of everything: worker scheduling, panic
//! quarantine, journal checkpoints, and — because its default size packs a
//! 16-lane [`SolveBatch`](p7_sim::SolveBatch) exactly — one wide-lane
//! kernel pass per epoch. Each shard's result is a pure function of
//! `(spec, shard index)`: demand is open-loop, per-server seeds and
//! tenants derive from the spec, and the memoized solve cache and
//! placement memo only ever short-circuit work whose value is already
//! determined. Workers therefore share **no mutable state on the tick
//! path**, and the merged report is byte-identical at any `--jobs` and
//! across any interrupt/resume split.
//!
//! # Scheduling
//!
//! Shards run on the campaign executor ([`p7_sim::exec`]) through the
//! same durable layer as sweeps ([`run_durable_indexed`]): workers claim
//! one shard at a time from one shared atomic cursor, so a worker that
//! finishes early (a drained rack, a quiet epoch range) simply claims the
//! next shard. Which worker ran a shard changes *where* it was computed,
//! never *what* it computes.

use crate::spec::FleetSpec;
use crate::telemetry;
use crate::traffic::CORES_PER_SERVER;
use ags_core::cluster::ClusterConfig;
use p7_control::GuardbandMode;
use p7_sim::exec::{resolve_jobs, Schedule};
use p7_sim::journal::run_durable_indexed;
use p7_sim::{
    assignment_fingerprint, experiment_fingerprint, Assignment, CacheStats, DurableOptions,
    Experiment, FailedPoint, Outcome, ServerConfig, SimError, SolveCache, SolveRequest,
};
use p7_types::{splitmix, CORES_PER_SOCKET, NUM_SOCKETS};
use p7_workloads::{Catalog, ExecutionModel, WorkloadProfile};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Solver lanes per fleet group solve: the widest batch the SoA kernel
/// ships, fitting [`crate::spec::DEFAULT_SHARD_SERVERS`] two-socket
/// servers exactly.
pub const FLEET_GROUP_LANES: usize = 16;

/// The guardband mode every fleet server runs: the paper's adaptive
/// guardband (undervolted, CPM-protected) — the configuration whose
/// system-level efficiency the campaign is measuring.
pub const FLEET_MODE: GuardbandMode = GuardbandMode::Undervolt;

/// Decides which shards panic, for resilience tests (mirrors
/// `p7_sim::sweep::PanicInjector`).
pub type ShardPanicInjector = Arc<dyn Fn(usize) -> bool + Send + Sync>;

/// One server's settled operating point for one epoch.
///
/// `threads == 0` marks a standby epoch (idle or draining): the server is
/// suspended, burns only standby power, and every simulated figure is
/// zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochOutcome {
    /// Threads the mapper placed on this server (0 = suspended).
    pub threads: usize,
    /// Mean Vdd power of both chips, watts (0 when suspended).
    pub chip_power_w: f64,
    /// Workload execution time at the settled frequency, seconds.
    pub exec_time_s: f64,
    /// Chip energy over the execution, joules.
    pub energy_j: f64,
    /// Energy-delay product, joule-seconds.
    pub edp: f64,
}

impl EpochOutcome {
    /// A suspended (idle or draining) epoch.
    #[must_use]
    pub fn standby() -> Self {
        EpochOutcome {
            threads: 0,
            chip_power_w: 0.0,
            exec_time_s: 0.0,
            energy_j: 0.0,
            edp: 0.0,
        }
    }

    /// Whether the server ran load this epoch.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.threads > 0
    }

    fn from_outcome(outcome: &Outcome, threads: usize) -> Self {
        EpochOutcome {
            threads,
            chip_power_w: outcome.total_power().0,
            exec_time_s: outcome.exec_time.0,
            energy_j: outcome.energy.0,
            edp: outcome.edp,
        }
    }
}

/// One server's full trajectory through the campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerResult {
    /// Global server index.
    pub server: usize,
    /// The tenant workload pinned to this server.
    pub workload: String,
    /// One outcome per epoch, in epoch order.
    pub epochs: Vec<EpochOutcome>,
}

/// One shard's servers — the journal checkpoint unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardResult {
    /// Shard index in `0..spec.shards()`.
    pub shard: usize,
    /// The shard's servers, in global index order.
    pub servers: Vec<ServerResult>,
}

/// Run accounting: everything here is diagnostic (stderr), never part of
/// the deterministic report payload — cache traffic and elapsed time
/// legitimately vary with worker count and machine.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Shards in the campaign.
    pub shards: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Server-epochs that ran load.
    pub active_server_epochs: usize,
    /// Server-epochs spent suspended.
    pub standby_server_epochs: usize,
    /// Wall-clock of the whole run.
    pub elapsed_secs: f64,
    /// Solve-cache counters (hits across epochs are the fleet's main
    /// memoization win: traffic revisits operating points).
    pub cache: CacheStats,
}

/// Per-epoch fleet aggregates for the report table.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRollup {
    /// Epoch index.
    pub epoch: usize,
    /// Cluster thread demand offered by the traffic model.
    pub demand: usize,
    /// Servers running load.
    pub active_servers: usize,
    /// Reported servers suspended (idle or draining).
    pub standby_servers: usize,
    /// Threads actually placed (equals demand unless shards failed).
    pub threads: usize,
    /// Fleet wall power: chips + platform for active servers, standby
    /// power for suspended ones, watts.
    pub fleet_power_w: f64,
    /// Mean energy-delay product over active servers (0 if none).
    pub mean_edp: f64,
}

/// The merged outcome of a fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The spec that produced it.
    pub spec: FleetSpec,
    /// Every completed server, in global index order (servers of
    /// quarantined shards are absent).
    pub servers: Vec<ServerResult>,
    /// Shards quarantined after repeated panics.
    pub failed_shards: Vec<FailedPoint>,
    /// Diagnostic accounting (not part of the deterministic payload).
    pub stats: FleetStats,
}

/// The deterministic slice of a report, serialized by
/// [`FleetReport::results_json`].
#[derive(Serialize)]
struct ReportPayload {
    spec: FleetSpec,
    servers: Vec<ServerResult>,
    failed_shards: Vec<FailedPoint>,
}

impl FleetReport {
    /// Canonical JSON of the deterministic payload: spec, per-server
    /// trajectories and quarantined shards — everything except
    /// [`FleetStats`]. Byte-identical at any `--jobs` and across any
    /// interrupt/resume split; the jobs-invariance tests diff exactly
    /// this string.
    #[must_use]
    pub fn results_json(&self) -> String {
        serde::json::to_string(&ReportPayload {
            spec: self.spec.clone(),
            servers: self.servers.clone(),
            failed_shards: self.failed_shards.clone(),
        })
    }

    /// Per-epoch fleet aggregates, in epoch order.
    #[must_use]
    pub fn epoch_rollup(&self) -> Vec<EpochRollup> {
        let cluster = ClusterConfig::rack(self.spec.servers);
        (0..self.spec.epochs)
            .map(|epoch| {
                let mut active = 0usize;
                let mut standby = 0usize;
                let mut threads = 0usize;
                let mut power = 0.0f64;
                let mut edp_sum = 0.0f64;
                for server in &self.servers {
                    let e = &server.epochs[epoch];
                    if e.is_active() {
                        active += 1;
                        threads += e.threads;
                        power += e.chip_power_w + cluster.platform_power.0;
                        edp_sum += e.edp;
                    } else {
                        standby += 1;
                        power += cluster.standby_power.0;
                    }
                }
                EpochRollup {
                    epoch,
                    demand: self.spec.traffic.demand(self.spec.servers, epoch),
                    active_servers: active,
                    standby_servers: standby,
                    threads,
                    fleet_power_w: power,
                    mean_edp: if active > 0 {
                        edp_sum / active as f64
                    } else {
                        0.0
                    },
                }
            })
            .collect()
    }

    /// The human-readable per-epoch table (deterministic — safe for
    /// stdout diffing across worker counts).
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet: {} servers x {} epochs, traffic {}, seed {}\n",
            self.spec.servers,
            self.spec.epochs,
            self.spec.traffic.label(),
            self.spec.seed,
        ));
        out.push_str("epoch  demand  active  standby  threads  fleet_kw  mean_edp\n");
        for r in self.epoch_rollup() {
            out.push_str(&format!(
                "{:>5}  {:>6}  {:>6}  {:>7}  {:>7}  {:>8.3}  {:>8.4}\n",
                r.epoch,
                r.demand,
                r.active_servers,
                r.standby_servers,
                r.threads,
                r.fleet_power_w / 1000.0,
                r.mean_edp,
            ));
        }
        if !self.failed_shards.is_empty() {
            out.push_str(&format!(
                "quarantined shards: {}\n",
                self.failed_shards.len()
            ));
        }
        out
    }
}

/// Options for [`FleetEngine::run_durable`].
#[derive(Default)]
pub struct FleetRunOptions {
    /// Journal, cancellation and retry knobs (shared with sweeps).
    pub durable: DurableOptions,
    /// Panic injection for resilience tests.
    pub panic_injector: Option<ShardPanicInjector>,
}

/// One server's compiled identity: tenant catalog slot, experiment runner
/// and cache fingerprint, all pure functions of `(spec.seed, server index)`.
struct Tenant {
    slot: usize,
    experiment: Experiment,
    experiment_fp: u64,
}

/// What [`place`] returns for one (catalog slot, threads) pair, with its
/// [`assignment_fingerprint`].
type Placed = (Assignment, u64);

/// The compiled campaign: per-server tenants, the spec, and the placement
/// memo every worker shares.
struct FleetContext {
    spec: FleetSpec,
    tenants: Vec<Tenant>,
    /// The catalog's profiles, indexed by tenant slot.
    profiles: Vec<&'static WorkloadProfile>,
    /// One cell per (slot, threads ∈ 1..=16), at
    /// `slot * CORES_PER_SERVER + threads - 1`, filled on first use:
    /// placement is a pure function of the pair, so a campaign builds and
    /// fingerprints each assignment once instead of once per server-epoch.
    placements: Vec<OnceLock<Placed>>,
}

impl FleetContext {
    /// The memoized `place(profiles[slot], threads)` and its fingerprint.
    fn placement(&self, slot: usize, threads: usize) -> Result<&Placed, SimError> {
        let cell = &self.placements[slot * CORES_PER_SERVER + threads - 1];
        if let Some(placed) = cell.get() {
            return Ok(placed);
        }
        let assignment = place(self.profiles[slot], threads)?;
        let fingerprint = assignment_fingerprint(&assignment);
        // A racing worker may have filled the cell meanwhile; its value is
        // the same pure function of the pair.
        Ok(cell.get_or_init(|| (assignment, fingerprint)))
    }
}

/// The fleet campaign runner: shards servers across `jobs` workers and
/// advances each shard through [`FLEET_GROUP_LANES`]-wide solver batches.
pub struct FleetEngine {
    jobs: usize,
    cache: Arc<SolveCache>,
}

impl FleetEngine {
    /// An engine sharing the process-wide solve cache. `jobs == 0` means
    /// one worker per available core.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        FleetEngine::with_cache(jobs, SolveCache::global())
    }

    /// An engine with an explicit cache (tests, isolation).
    #[must_use]
    pub fn with_cache(jobs: usize, cache: Arc<SolveCache>) -> Self {
        FleetEngine {
            jobs: resolve_jobs(jobs),
            cache,
        }
    }

    /// The resolved worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs a campaign in memory (no journal).
    ///
    /// # Errors
    ///
    /// As [`FleetEngine::run_durable`].
    pub fn run(&self, spec: &FleetSpec) -> Result<FleetReport, SimError> {
        self.run_durable(spec, &FleetRunOptions::default())
    }

    /// Runs a campaign with the durability contract: per-shard panic
    /// isolation with retries and quarantine, resume (journaled shards
    /// are not re-run), incremental checkpoints and cooperative
    /// cancellation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a degenerate spec, the
    /// lowest-indexed hard error a shard raised, [`SimError::Journal`]
    /// when checkpointing fails, or [`SimError::Interrupted`] when the
    /// cancel token fired (completed shards are already flushed).
    pub fn run_durable(
        &self,
        spec: &FleetSpec,
        options: &FleetRunOptions,
    ) -> Result<FleetReport, SimError> {
        let started = Instant::now();
        let ctx = self.compile(spec)?;
        let shards = spec.shards();

        let opened = options
            .durable
            .journal
            .open_with(|| spec.manifest(), options.durable.fs.clone())?;
        let solved = run_durable_indexed(
            Schedule::new(self.jobs, 1, "fleet_shard", telemetry::shards_claimed()),
            shards,
            || (),
            |(), shard| {
                if let Some(inject) = &options.panic_injector {
                    assert!(!inject(shard), "injected panic at fleet shard {shard}");
                }
                self.solve_shard(&ctx, shard)
            },
            |idx, result: &ShardResult| {
                result.shard == idx && result.servers.len() == spec.shard_range(idx).len()
            },
            opened,
            &options.durable,
        )?;

        let servers: Vec<ServerResult> = solved
            .results
            .into_iter()
            .flatten()
            .flat_map(|shard| shard.servers)
            .collect();
        let (active, standby) = servers
            .iter()
            .flat_map(|s| &s.epochs)
            .fold((0, 0), |(a, i), e| {
                if e.is_active() {
                    (a + 1, i)
                } else {
                    (a, i + 1)
                }
            });

        Ok(FleetReport {
            spec: spec.clone(),
            servers,
            failed_shards: solved.failed,
            stats: FleetStats {
                shards,
                jobs: self.jobs.min(shards.max(1)),
                active_server_epochs: active,
                standby_server_epochs: standby,
                elapsed_secs: started.elapsed().as_secs_f64(),
                cache: self.cache.counters(),
            },
        })
    }

    /// Expands the spec into per-server tenants. Seeds and tenant
    /// workloads derive from `spec.seed` with the same splitmix chain the
    /// sweep module uses for seed derivation, so every server gets
    /// distinct silicon and a stable tenant.
    fn compile(&self, spec: &FleetSpec) -> Result<FleetContext, SimError> {
        let catalog = Catalog::shared();
        spec.validate(catalog)?;
        let profiles: Vec<&'static WorkloadProfile> = catalog.iter().collect();
        let exec_model = ExecutionModel::power7plus();
        let tenants = (0..spec.servers)
            .map(|server| {
                let silicon = splitmix(spec.seed ^ server as u64);
                #[allow(clippy::cast_possible_truncation)]
                let slot = (splitmix(silicon) % profiles.len() as u64) as usize;
                let experiment =
                    Experiment::with_config(ServerConfig::power7plus(silicon), exec_model.clone())
                        .with_ticks(spec.measure_ticks, spec.warmup_ticks);
                let experiment_fp = experiment_fingerprint(&experiment);
                Tenant {
                    slot,
                    experiment,
                    experiment_fp,
                }
            })
            .collect();
        let placements = (0..profiles.len() * CORES_PER_SERVER)
            .map(|_| OnceLock::new())
            .collect();
        Ok(FleetContext {
            spec: spec.clone(),
            tenants,
            profiles,
            placements,
        })
    }

    /// Solves one shard: every server's trajectory through every epoch,
    /// each shard-epoch's active servers in one
    /// [`FLEET_GROUP_LANES`]-wide [`SolveCache::solve_group`] call.
    /// Returns the result plus its journal-worthiness (any epoch actually
    /// computed).
    fn solve_shard(
        &self,
        ctx: &FleetContext,
        shard: usize,
    ) -> Result<(ShardResult, bool), SimError> {
        let spec = &ctx.spec;
        let range = spec.shard_range(shard);
        let base = range.start;
        let mut servers: Vec<ServerResult> = range
            .clone()
            .map(|server| ServerResult {
                server,
                workload: ctx.profiles[ctx.tenants[server].slot].name().to_owned(),
                epochs: Vec::with_capacity(spec.epochs),
            })
            .collect();
        let mut journal_worthy = false;

        // (server, threads, placement) of the epoch's active servers.
        let mut active: Vec<(usize, usize, &Placed)> = Vec::new();
        let mut solved: Vec<(Arc<Outcome>, bool)> = Vec::new();
        for epoch in 0..spec.epochs {
            active.clear();
            for server in range.clone() {
                let threads = offered_threads(spec, server, epoch);
                // Idle servers keep standby; active ones are overwritten
                // once the epoch is solved.
                servers[server - base].epochs.push(EpochOutcome::standby());
                if threads == 0 {
                    telemetry::idle_server_epochs().inc();
                    continue;
                }
                telemetry::server_epochs().inc();
                let placed = ctx.placement(ctx.tenants[server].slot, threads)?;
                active.push((server, threads, placed));
            }
            let requests: Vec<SolveRequest<'_>> = active
                .iter()
                .map(|&(server, _, (assignment, assignment_fp))| SolveRequest {
                    experiment: &ctx.tenants[server].experiment,
                    experiment_fp: ctx.tenants[server].experiment_fp,
                    assignment,
                    assignment_fp: *assignment_fp,
                    mode: FLEET_MODE,
                })
                .collect();
            self.cache
                .solve_group::<FLEET_GROUP_LANES>(&requests, &mut solved)?;

            // Every server has its own silicon and every shard its own
            // servers, so no two requests of a campaign share a key: the
            // entries this call computed are exactly the servers it
            // simulated, packed in groups of `FLEET_GROUP_LANES` lanes.
            let simulated = solved.iter().filter(|(_, computed)| *computed).count();
            let per_group = FLEET_GROUP_LANES / NUM_SOCKETS;
            for first in (0..simulated).step_by(per_group) {
                #[allow(clippy::cast_precision_loss)]
                telemetry::group_lanes()
                    .observe(((simulated - first).min(per_group) * NUM_SOCKETS) as f64);
            }
            journal_worthy |= simulated > 0;
            for ((server, threads, _), (outcome, _)) in active.iter().zip(&solved) {
                servers[server - base].epochs[epoch] =
                    EpochOutcome::from_outcome(outcome, *threads);
            }
        }

        Ok((ShardResult { shard, servers }, journal_worthy))
    }
}

/// Threads the consolidation-first mapper places on `server` at `epoch`:
/// non-draining servers fill up in index order, 16 threads each, until
/// the epoch's demand is exhausted. Draining servers take nothing.
#[must_use]
pub fn offered_threads(spec: &FleetSpec, server: usize, epoch: usize) -> usize {
    let traffic = spec.traffic;
    let wave = traffic.drain_wave(spec.servers, epoch);
    if wave.contains(&server) {
        return 0;
    }
    // Consolidation rank among non-draining servers: the drain wave is
    // contiguous, so ranks need one subtraction, not a scan.
    let drained_below = server.min(wave.end).saturating_sub(wave.start.min(server));
    let rank = server - drained_below;
    traffic
        .demand(spec.servers, epoch)
        .saturating_sub(rank * CORES_PER_SERVER)
        .min(CORES_PER_SERVER)
}

/// Places `threads` on one server: consolidated onto socket 0 (socket 1
/// power-gated) while they fit, balanced across both sockets beyond.
fn place(workload: &WorkloadProfile, threads: usize) -> Result<Assignment, SimError> {
    if threads <= CORES_PER_SOCKET {
        Assignment::consolidated(workload, threads)
    } else {
        Assignment::balanced_server(workload, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficModel;
    use p7_sim::{RetryPolicy, DEFAULT_CACHE_CAPACITY};
    use std::path::PathBuf;

    fn tiny_spec() -> FleetSpec {
        let mut spec = FleetSpec::smoke().with_scale(12, 4);
        spec.measure_ticks = 3;
        spec.warmup_ticks = 2;
        spec.shard_servers = 2;
        spec
    }

    fn fresh_engine(jobs: usize) -> FleetEngine {
        FleetEngine::with_cache(
            jobs,
            Arc::new(SolveCache::with_capacity(DEFAULT_CACHE_CAPACITY)),
        )
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("p7-fleet-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mapper_consolidates_demand_first() {
        for traffic in TrafficModel::all() {
            let spec = FleetSpec::smoke().with_scale(40, 20).with_traffic(traffic);
            for epoch in 0..spec.epochs {
                let offered: Vec<usize> = (0..spec.servers)
                    .map(|s| offered_threads(&spec, s, epoch))
                    .collect();
                // Placed threads equal demand exactly.
                let demand = traffic.demand(spec.servers, epoch);
                assert_eq!(offered.iter().sum::<usize>(), demand, "{traffic:?}@{epoch}");
                // Draining servers take nothing.
                for (s, &t) in offered.iter().enumerate() {
                    assert!(t <= CORES_PER_SERVER);
                    if traffic.draining(spec.servers, s, epoch) {
                        assert_eq!(t, 0, "drained server {s} got load");
                    }
                }
                // Consolidation-first: among non-draining servers, full
                // servers strictly precede empty ones.
                let active: Vec<usize> = (0..spec.servers)
                    .filter(|&s| !traffic.draining(spec.servers, s, epoch))
                    .map(|s| offered[s])
                    .collect();
                let first_gap = active.iter().position(|&t| t < CORES_PER_SERVER);
                if let Some(gap) = first_gap {
                    assert!(active[gap + 1..].iter().all(|&t| t == 0));
                }
                // The closed-form rank matches a brute-force scan.
                for (s, &got) in offered.iter().enumerate() {
                    if traffic.draining(spec.servers, s, epoch) {
                        continue;
                    }
                    let rank = (0..s)
                        .filter(|&p| !traffic.draining(spec.servers, p, epoch))
                        .count();
                    let expect = demand
                        .saturating_sub(rank * CORES_PER_SERVER)
                        .min(CORES_PER_SERVER);
                    assert_eq!(got, expect, "{traffic:?} s={s} e={epoch}");
                }
            }
        }
    }

    #[test]
    fn memoized_placements_match_direct_runs() {
        // Every active server-epoch must equal a direct run of `place`
        // for that server's tenant and thread count. The spec must make
        // both one-sided keys wrong: some tenant slot runs at several
        // thread counts, and some thread count on several slots.
        let spec = tiny_spec();
        let engine = fresh_engine(2);
        let ctx = engine.compile(&spec).unwrap();
        let report = engine.run(&spec).unwrap();
        let mut pairs = std::collections::BTreeSet::new();
        for server in &report.servers {
            let tenant = &ctx.tenants[server.server];
            let workload = ctx.profiles[tenant.slot];
            assert_eq!(server.workload, workload.name());
            for (epoch, outcome) in server.epochs.iter().enumerate() {
                assert_eq!(
                    outcome.threads,
                    offered_threads(&spec, server.server, epoch)
                );
                if !outcome.is_active() {
                    continue;
                }
                pairs.insert((tenant.slot, outcome.threads));
                let direct = tenant
                    .experiment
                    .run(&place(workload, outcome.threads).unwrap(), FLEET_MODE)
                    .unwrap();
                assert_eq!(
                    *outcome,
                    EpochOutcome::from_outcome(&direct, outcome.threads),
                    "server {} epoch {epoch}",
                    server.server
                );
            }
        }
        let repeats = |key: fn(&(usize, usize)) -> usize| {
            let mut seen = std::collections::BTreeMap::new();
            for pair in &pairs {
                *seen.entry(key(pair)).or_insert(0) += 1;
            }
            seen.values().any(|&n| n > 1)
        };
        assert!(repeats(|p| p.0), "a slot at several thread counts");
        assert!(repeats(|p| p.1), "a thread count on several slots");
    }

    #[test]
    fn report_is_byte_identical_across_jobs() {
        let spec = tiny_spec();
        let solo = fresh_engine(1).run(&spec).unwrap().results_json();
        for jobs in [2, 5] {
            let report = fresh_engine(jobs).run(&spec).unwrap();
            assert_eq!(report.results_json(), solo, "jobs {jobs}");
        }
    }

    #[test]
    fn traffic_shapes_the_fleet_rollup() {
        let mut spec = tiny_spec().with_traffic(TrafficModel::RollingDeploy);
        spec.servers = 16;
        let report = fresh_engine(1).run(&spec).unwrap();
        let rollup = report.epoch_rollup();
        let cluster = ClusterConfig::rack(spec.servers);
        for r in &rollup {
            assert_eq!(r.active_servers + r.standby_servers, spec.servers);
            assert_eq!(r.threads, r.demand, "all demand placed");
            // Wall power bounds: every server at least standby, actives
            // add at least the platform overhead.
            let floor = r.active_servers as f64 * cluster.platform_power.0
                + r.standby_servers as f64 * cluster.standby_power.0;
            assert!(r.fleet_power_w > floor, "chips draw real power");
            assert!(r.mean_edp > 0.0);
        }
        // 60 % demand on 16 servers = 154 threads -> 10 active servers.
        assert_eq!(rollup[0].active_servers, 10);
        // The table renders one line per epoch.
        assert_eq!(report.table().lines().count(), 2 + spec.epochs);
    }

    #[test]
    fn cache_reuse_kicks_in_when_traffic_revisits_operating_points() {
        // Flash crowd: epochs 0, 1 and the late tail all sit at the
        // baseline demand, so each server revisits its baseline operating
        // point and the solve cache answers the repeats.
        let mut spec = tiny_spec().with_traffic(TrafficModel::FlashCrowd);
        spec.epochs = 8;
        let report = fresh_engine(1).run(&spec).unwrap();
        assert!(
            report.stats.cache.hits > 0,
            "repeated operating points should hit: {:?}",
            report.stats.cache
        );
        assert!(report.stats.standby_server_epochs > 0);
    }

    #[test]
    fn durable_fleet_resumes_without_recompute() {
        let spec = tiny_spec();
        let dir = tmp_dir("resume");
        let baseline = {
            let options = FleetRunOptions {
                durable: DurableOptions::journaled(&dir),
                ..FleetRunOptions::default()
            };
            fresh_engine(2).run_durable(&spec, &options).unwrap()
        };
        // Fresh engine, cold cache: every shard comes off the journal.
        let options = FleetRunOptions {
            durable: DurableOptions::resumed(&dir),
            ..FleetRunOptions::default()
        };
        let resumed = fresh_engine(2).run_durable(&spec, &options).unwrap();
        assert_eq!(resumed.results_json(), baseline.results_json());
        assert_eq!(
            resumed.stats.cache.misses, 0,
            "journaled shards must not re-simulate"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_run_reports_interrupted() {
        let spec = tiny_spec();
        let options = FleetRunOptions::default();
        options.durable.cancel.cancel();
        let err = fresh_engine(2).run_durable(&spec, &options).unwrap_err();
        assert!(matches!(err, SimError::Interrupted { .. }), "{err:?}");
    }

    #[test]
    fn panicking_shard_is_quarantined_not_fatal() {
        let spec = tiny_spec();
        let mut options = FleetRunOptions {
            panic_injector: Some(Arc::new(|shard| shard == 1)),
            ..FleetRunOptions::default()
        };
        options.durable.retry = RetryPolicy::no_retry();
        let report = fresh_engine(1).run_durable(&spec, &options).unwrap();
        assert_eq!(report.failed_shards.len(), 1);
        assert_eq!(report.failed_shards[0].index, 1);
        // Shard 1's two servers are absent; everything else reported.
        assert_eq!(report.servers.len(), spec.servers - spec.shard_servers);
        assert!(report
            .servers
            .iter()
            .all(|s| s.server != 2 && s.server != 3));
    }
}
