//! Fleet-scale sharded simulation: from one POWER7+ server to thousands.
//!
//! The per-server simulator answers "what does adaptive guardbanding buy
//! *this* machine"; this crate answers the system-level question the paper
//! closes with — what it buys a *cluster*. A [`FleetSpec`] describes
//! thousands of two-socket servers, an open-loop [`TrafficModel`] (diurnal
//! load, a flash crowd, a rolling deploy) and a seed; the [`FleetEngine`]
//! advances every server through the campaign's epochs:
//!
//! * **Sharding** — servers are cut into contiguous shards, each solved by
//!   one worker with private scratch; nothing on the tick path is shared
//!   mutable state.
//! * **Wide lanes** — each shard-epoch's active servers go to one
//!   [`p7_sim::SolveCache::solve_group`] call, which packs the uncached
//!   ones into a 16-lane [`p7_sim::SolveBatch`] group solve, so the SoA
//!   kernel runs at full width instead of two lanes per server.
//! * **One executor** — shards run on the campaign executor shared with
//!   sweeps ([`p7_sim::exec`]): workers claim the next shard from one
//!   atomic cursor. Scheduling moves *where* a shard is computed, never
//!   *what*: reports are byte-identical at any `--jobs`.
//! * **Durability** — campaigns journal per-shard through the same
//!   crash-consistent [`p7_sim::Journal`] machinery and panic quarantine
//!   as sweeps, and resume without recomputing.
//!
//! Demand is open-loop (a pure function of the epoch), per-server silicon
//! and tenants derive from the seed, and the memoized solve cache only
//! short-circuits already-determined work — which together make every
//! shard a pure function of `(spec, shard index)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod spec;
pub mod telemetry;
pub mod traffic;

pub use engine::{
    offered_threads, EpochOutcome, EpochRollup, FleetEngine, FleetReport, FleetRunOptions,
    FleetStats, ServerResult, ShardPanicInjector, ShardResult, FLEET_GROUP_LANES, FLEET_MODE,
};
pub use spec::{FleetSpec, DEFAULT_SHARD_SERVERS, MAX_FLEET_SERVERS, MAX_FLEET_SERVER_EPOCHS};
pub use traffic::TrafficModel;
