//! Full-system simulator of a two-socket POWER7+ server with adaptive
//! guardbanding.
//!
//! This crate wires the substrates together into the feedback loop of the
//! paper's Fig. 2a:
//!
//! ```text
//!  workload activity ──► per-core power ──► currents ──► VRM loadline,
//!       ▲                                                IR drop, di/dt
//!       │                                                     │
//!  DPLL frequency ◄── CPM margin sensing ◄── on-chip voltage ◄┘
//!       │
//!       └──► firmware (32 ms): undervolt the rail until the DPLL
//!            frequency sits at the target
//! ```
//!
//! Each simulation tick is one 32 ms AMESTER/firmware window. Within a
//! tick the electrical state (voltage ↔ power ↔ current) is solved to a
//! fixed point, di/dt noise is sampled, CPMs are read, the DPLLs track
//! their margins, and in undervolting mode the firmware trims each
//! socket's rail. Execution time is derived from the settled frequency via
//! the workload's execution model, mirroring how the paper combines power
//! telemetry with wall-clock runs.
//!
//! Entry points:
//!
//! * [`Assignment`] — which threads run where, which cores are powered,
//! * [`Simulation`] — the tick engine over a [`config::ServerConfig`],
//! * [`Experiment`] — one-call wrapper producing an [`Outcome`] with
//!   power, frequency, undervolt, drop decomposition, execution time,
//!   energy and EDP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod cache;
mod chip;
pub mod config;
pub mod error;
pub mod exec;
pub mod experiment;
pub mod fsck;
pub mod group;
pub mod history;
pub mod journal;
pub mod measure;
pub mod recorder;
pub mod resilience;
pub mod server;
pub mod solve;
pub mod sweep;
pub mod telemetry;
pub mod vfs;

pub use assignment::{Assignment, Thread};
pub use cache::{
    assignment_fingerprint, experiment_fingerprint, CacheStats, CachedExperiment, SolveCache,
    SolveRequest, DEFAULT_CACHE_CAPACITY,
};
pub use chip::SocketTick;
pub use config::ServerConfig;
pub use error::SimError;
pub use experiment::{
    validate_run_windows, Experiment, Outcome, DEFAULT_MEASURE_TICKS, DEFAULT_WARMUP_TICKS,
    MAX_RUN_WINDOWS,
};
pub use fsck::{FsckReport, ManifestStatus, SegmentVerdict};
pub use group::{run_group, GroupTicker};
pub use history::{History, SimEvent, SimEventKind, TickRecord};
pub use journal::{
    CampaignManifest, CancelToken, DurableOptions, FailedPoint, Journal, JournalMode, RetryPolicy,
};
pub use measure::{RunSummary, SocketMetrics};
pub use resilience::{ResilienceReport, ResilienceSpec, ScenarioResult};
pub use server::Simulation;
pub use solve::{LaneSolution, LaneSpec, SolveBatch, MAX_SOLVE_ITERATIONS, SOLVE_TOLERANCE};
pub use sweep::{
    GridPoint, PanicInjector, Placement, PointResult, SweepEngine, SweepReport, SweepRunOptions,
    SweepSpec, GROUP_SOLVE_LANES, MAX_SWEEP_POINTS,
};
pub use vfs::{std_fs, DynFs, Fs, StdFs};
