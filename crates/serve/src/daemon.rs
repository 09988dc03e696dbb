//! The daemon: a durable task queue in front of the campaign engines.
//!
//! Two long-lived threads share the [`TaskStore`]:
//!
//! * the **accept loop** (the caller's thread) blocks in `accept` and
//!   hands each connection to a thread of its own, which parses the
//!   HTTP request, journals submissions before acknowledging them, and
//!   answers status/result/metrics queries;
//! * the **scheduler** claims every ready task, merges compatible
//!   sweeps into one engine pass ([`crate::batch`]), runs it over the
//!   shared `SolveCache`, and journals each member's terminal state —
//!   retrying failed tasks under the [`RetryPolicy`] with exponential
//!   backoff until they quarantine into `failed`. Backoff deadlines are
//!   journaled with the task, so a restart does not reset them.
//!
//! Graceful drain: when [`ServeConfig::drain`] fires (the CLI wires it
//! to SIGINT/SIGTERM) the accept loop stops taking connections, the
//! engine pass in flight is cooperatively interrupted, its member
//! tasks are durably re-enqueued (the in-flight checkpoint), and
//! [`serve`] returns so the CLI can exit 75. The daemon then re-arms
//! the signal handlers at [`ServeConfig::force`]: a second signal
//! exits immediately instead of waiting for the drain. A signal handler
//! can only set the token's flag, which does not wake a thread blocked
//! in `accept`; so an `ags-serve-drain-wake` thread checks the token
//! every 25 ms (`DRAIN_CHECK`) and, once it fires, connects to the
//! listener once. The accept loop re-checks the token after every
//! accept and drops that connection unanswered.
//!
//! Degraded read-only mode: when a journal append fails (disk full,
//! permissions yanked, device error) the daemon does not crash — it
//! latches a degraded flag, sheds every write with `503` and a
//! `Retry-After` hint, and keeps serving reads (`/healthz`, `/tasks`,
//! results, `/metrics`). The scheduler probes the journal directory
//! every poll; once a probe write round-trips, tasks stranded
//! mid-claim are re-enqueued and normal service resumes. `/healthz`
//! reports the real state: `200` only while the scheduler thread is
//! live *and* the journal is accepting writes.
//!
//! Stuck-task watchdog: with [`ServeConfig::batch_deadline`] set, a
//! sidecar thread cancels any engine pass that outlives the deadline
//! and its member tasks quarantine as `failed` with a `stuck:` reason
//! (a task that blows its deadline would blow it again on retry).
//!
//! Observability: every submission is assigned a trace id
//! (`fnv64(journal dir) ^ task id`) at accept time, and the accept,
//! journal-append, batch-formation, engine-solve and render stages each
//! record a span into that trace — retrievable as Chrome-trace JSON
//! from `GET /tasks/<id>/trace` even though the stages run on different
//! threads on opposite sides of the queue. A sampler thread snapshots
//! the whole metrics registry every [`ServeConfig::sample_interval`]
//! into an in-memory ring served by `GET /metrics/history`, and
//! persists the frames to a `flightrec/` journal inside the queue
//! directory so history survives a restart. Diagnostics go through the
//! structured `p7_obs::log` logger on stderr; stdout stays reserved for
//! the machine-readable startup handshake.

use crate::batch::{build_batches, split_report, QueuedSweep, SweepBatch};
use crate::http::{
    query_param, read_request, split_target, HttpError, HttpLimits, Request, Response,
};
use crate::task::{now_ms, Task, TaskKind, TaskState, TaskStore, TaskUpdate};
use crate::telemetry;
use crate::tracestore::TraceStore;
use ags_harness::{rearm_cancel_on_signals, EXIT_INTERRUPTED};
use p7_fleet::{FleetEngine, FleetRunOptions, FleetSpec};
use p7_obs::timeseries::{wall_ms, Frame, Recorder};
use p7_obs::{log_error, log_info, log_warn, trace};
use p7_sim::journal::render_failed;
use p7_sim::recorder::{FrameRecord, RecorderLog};
use p7_sim::sweep::render_results_table;
use p7_sim::{
    std_fs, CancelToken, DurableOptions, DynFs, FailedPoint, ResilienceSpec, RetryPolicy, SimError,
    SweepEngine, SweepRunOptions, SweepSpec,
};
use p7_types::fnv64;
use p7_workloads::Catalog;
use serde::{Deserialize, Value};
use std::io::{BufReader, Write as _};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// How often the drain waker checks the drain token, and therefore the
/// worst-case latency from the drain firing to the blocked `accept`
/// waking. Also the accept loop's backoff after a failed `accept`
/// (EMFILE and the like), so an error cannot spin, and the poll period
/// of the drain's wait for open connections.
const DRAIN_CHECK: Duration = Duration::from_millis(25);

/// The scheduler's idle wait between queue scans (it is also woken
/// eagerly on every submit and on drain). While degraded, this is also
/// the journal-recovery probe cadence.
const SCHEDULER_POLL: Duration = Duration::from_millis(100);

/// The watchdog sidecar's poll interval while a batch deadline is
/// armed, and therefore the enforcement slack on the deadline.
const WATCHDOG_POLL: Duration = Duration::from_millis(10);

/// How long a draining daemon waits for in-flight connections to
/// finish before returning anyway.
const CONNECTION_DRAIN_GRACE: Duration = Duration::from_secs(2);

/// `Retry-After` seconds on degraded-mode `503`s. The scheduler probes
/// for recovery every [`SCHEDULER_POLL`], so one second is an honest
/// earliest-useful-retry hint.
const RETRY_AFTER_SECS: u32 = 1;

/// Subdirectory of the queue journal holding the flight-recorder log.
/// Lives inside the journal dir so one `--journal` flag names all of a
/// daemon's durable state; the queue's segment scan ignores it (only
/// `seg-*.json` names are segments).
const RECORDER_DIR: &str = "flightrec";

/// Sampled frames buffered in memory before one durable append to the
/// flight-recorder log (at the default interval: one segment every
/// two seconds).
const RECORDER_PERSIST_EVERY: usize = 4;

/// The sampler's drain-poll granularity while sleeping between frames.
const SAMPLER_NAP: Duration = Duration::from_millis(50);

/// Everything [`serve`] needs. Construct with [`ServeConfig::new`] and
/// override fields as needed.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7075` (`:0` picks a free port).
    pub addr: String,
    /// The durable task-queue journal directory (created on first run,
    /// recovered on restart).
    pub journal: PathBuf,
    /// Engine worker threads per pass (0 = available parallelism).
    pub jobs: usize,
    /// Task-level retry/backoff policy (also passed into each engine
    /// pass for point-level panic retries).
    pub retry: RetryPolicy,
    /// Listener hardening knobs.
    pub limits: HttpLimits,
    /// Graceful-drain token; the CLI wires SIGINT/SIGTERM to it.
    pub drain: CancelToken,
    /// Force-shutdown token, re-armed onto the signal handlers once the
    /// drain begins; a second signal then exits immediately.
    pub force: CancelToken,
    /// Whether to re-arm process signal handlers at drain time (true
    /// for the CLI; false for in-process tests).
    pub handle_signals: bool,
    /// Receives the actually-bound address once the listener is up
    /// (read it when binding port 0).
    pub bound_addr: Arc<OnceLock<SocketAddr>>,
    /// Filesystem backend for the queue journal ([`p7_sim::std_fs`] in
    /// production; tests inject a fault-scripted backend).
    pub fs: DynFs,
    /// Per-batch watchdog deadline: an engine pass running longer is
    /// canceled and its member tasks quarantined as stuck. `None`
    /// disables the watchdog.
    pub batch_deadline: Option<Duration>,
    /// Flight-recorder sampling interval: how often the metrics
    /// registry is snapshotted into the `/metrics/history` ring.
    pub sample_interval: Duration,
}

impl ServeConfig {
    /// A config with default limits and retry policy.
    #[must_use]
    pub fn new(addr: impl Into<String>, journal: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: addr.into(),
            journal: journal.into(),
            jobs: 0,
            retry: RetryPolicy::power7plus(),
            limits: HttpLimits::default(),
            drain: CancelToken::new(),
            force: CancelToken::new(),
            handle_signals: true,
            bound_addr: Arc::new(OnceLock::new()),
            fs: std_fs(),
            batch_deadline: None,
            sample_interval: Duration::from_millis(500),
        }
    }
}

/// Why the daemon could not run (distinct from a graceful drain, which
/// is [`serve`] returning `Ok`).
#[derive(Debug)]
pub enum ServeError {
    /// The queue journal failed: open, recovery, or a durable append.
    Journal(SimError),
    /// The listener could not bind the requested address.
    Bind {
        /// The address that was requested.
        addr: String,
        /// The OS error.
        reason: String,
    },
    /// Listener or scheduler plumbing failed.
    Runtime(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Journal(e) => write!(f, "task queue journal: {e}"),
            ServeError::Bind { addr, reason } => write!(f, "cannot bind `{addr}`: {reason}"),
            ServeError::Runtime(what) => write!(f, "serve runtime: {what}"),
        }
    }
}

/// Liveness and writability state surfaced on `/healthz`.
struct Health {
    /// True while the scheduler thread is running; cleared on any exit,
    /// a panic included, by its drop guard.
    scheduler_live: AtomicBool,
    /// `Some(reason)` while the daemon sheds writes because the queue
    /// journal stopped accepting appends.
    degraded: Mutex<Option<String>>,
}

/// State shared between the accept loop, handler threads and the
/// scheduler.
struct Shared {
    queue: Mutex<TaskStore>,
    /// Paired with `queue`: submits and drain requests wake the
    /// scheduler's idle wait.
    wake: Condvar,
    drain: CancelToken,
    retry: RetryPolicy,
    jobs: usize,
    /// Optional per-batch watchdog deadline.
    deadline: Option<Duration>,
    health: Health,
    /// This daemon's trace-id namespace: `fnv64` of its journal dir.
    /// A task's trace id is `trace_ns ^ task id`, so ids stay stable
    /// across a restart of the same queue and never collide between
    /// daemons sharing one process (and one global [`TraceStore`]).
    trace_ns: u64,
    /// In-memory flight-recorder ring behind `GET /metrics/history`.
    recorder: Arc<Recorder>,
    /// When this daemon came up (the `/healthz` uptime base).
    started: Instant,
}

impl Shared {
    /// Locks the queue, surviving a poisoned mutex (a handler panic
    /// must not wedge the whole daemon).
    fn lock_queue(&self) -> MutexGuard<'_, TaskStore> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Refreshes the queue-depth gauge from the store.
    fn refresh_depth(&self) {
        let depth = self.lock_queue().open_tasks();
        telemetry::queue_depth().set(i64::try_from(depth).unwrap_or(i64::MAX));
    }

    fn lock_degraded(&self) -> MutexGuard<'_, Option<String>> {
        self.health
            .degraded
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The degraded reason, if the daemon is currently shedding writes.
    fn degraded_reason(&self) -> Option<String> {
        self.lock_degraded().clone()
    }

    fn is_degraded(&self) -> bool {
        self.lock_degraded().is_some()
    }

    /// Latches degraded read-only mode (idempotent: the first reason
    /// wins until recovery clears it).
    fn enter_degraded(&self, reason: String) {
        let mut slot = self.lock_degraded();
        if slot.is_none() {
            log_error!("serve", reason = reason;
                "journal unwritable — entering degraded read-only mode");
            telemetry::serve_degraded().set(1);
            *slot = Some(reason);
        }
    }

    /// Leaves degraded mode (idempotent).
    fn clear_degraded(&self) {
        let mut slot = self.lock_degraded();
        if slot.take().is_some() {
            log_info!("serve", "journal writable again — resuming normal service");
            telemetry::serve_degraded().set(0);
        }
    }
}

/// Runs the daemon until its drain token fires (returns `Ok`) or a
/// non-recoverable error occurs. The caller decides the process exit
/// code; the CLI maps a drain to exit 75 ([`EXIT_INTERRUPTED`]).
///
/// Journal write failures *after* startup are not fatal: the daemon
/// enters degraded read-only mode and recovers in place once the
/// journal accepts writes again.
///
/// # Errors
///
/// [`ServeError::Journal`] when the queue journal cannot be opened or
/// recovered, [`ServeError::Bind`] when the address is taken,
/// [`ServeError::Runtime`] for listener/scheduler plumbing failures.
pub fn serve(config: ServeConfig) -> Result<(), ServeError> {
    // A daemon is always observable: structured stderr logging, a live
    // metrics registry (it serves /metrics), span recording (it serves
    // /tasks/<id>/trace). All idempotent, so embedding tests and the
    // CLI can have set these up already.
    p7_obs::log::init_from_env();
    p7_obs::metrics::global().set_enabled(true);
    telemetry::register_all();
    trace::enable();

    let (store, recovered) =
        TaskStore::open_with(&config.journal, config.fs.clone()).map_err(ServeError::Journal)?;
    telemetry::recovered_tasks().add(recovered as u64);

    // The flight recorder: an in-memory ring preloaded from the on-disk
    // log so /metrics/history spans the restart. An unusable log is
    // telemetry lost, not an error — the daemon runs memory-only.
    let recorder = Arc::new(Recorder::new(p7_obs::timeseries::DEFAULT_CAPACITY));
    let recorder_log =
        match RecorderLog::open_with(&config.journal.join(RECORDER_DIR), config.fs.clone()) {
            Ok((log, frames)) => {
                recorder.preload(frames.into_iter().map(|f| Frame {
                    t_ms: f.t_ms,
                    series: f.series,
                }));
                Some(log)
            }
            Err(e) => {
                log_warn!("serve", error = e;
                "flight-recorder log unavailable — metrics history will not survive restart");
                None
            }
        };
    let listener = TcpListener::bind(&config.addr).map_err(|e| ServeError::Bind {
        addr: config.addr.clone(),
        reason: e.to_string(),
    })?;
    let addr = listener
        .local_addr()
        .map_err(|e| ServeError::Runtime(format!("cannot read bound address: {e}")))?;
    let _ = config.bound_addr.set(addr);
    // The startup line is the machine-readable handshake (CI and the
    // recovery tests parse the port out of it); flush so a piped stdout
    // delivers it before the first long engine pass.
    {
        let mut stdout = std::io::stdout();
        let _ = writeln!(stdout, "serve: listening on http://{addr}");
        let _ = stdout.flush();
    }
    log_info!("serve",
        queue = config.journal.display(),
        known = store.tasks().len(),
        recovered = recovered,
        history_frames = recorder.len();
        "task queue ready");

    let shared = Arc::new(Shared {
        queue: Mutex::new(store),
        wake: Condvar::new(),
        drain: config.drain.clone(),
        retry: config.retry,
        jobs: config.jobs,
        deadline: config.batch_deadline,
        health: Health {
            // True before the spawn below, so a fast client never sees
            // a flickering 503 between bind and thread start.
            scheduler_live: AtomicBool::new(true),
            degraded: Mutex::new(None),
        },
        trace_ns: fnv64(config.journal.to_string_lossy().as_bytes()),
        recorder,
        started: Instant::now(),
    });
    shared.refresh_depth();

    let sampler = {
        let shared = Arc::clone(&shared);
        let drain = config.drain.clone();
        let interval = config.sample_interval;
        std::thread::Builder::new()
            .name("ags-serve-sampler".to_owned())
            .spawn(move || sampler_loop(&shared, recorder_log, interval, &drain))
            .ok() // Thread exhaustion: run without history.
    };

    let scheduler = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("ags-serve-scheduler".to_owned())
            .spawn(move || scheduler_loop(&shared))
            .map_err(|e| ServeError::Runtime(format!("cannot spawn scheduler: {e}")))?
    };

    let waker = {
        let drain = config.drain.clone();
        let timeout = config.limits.io_timeout;
        std::thread::Builder::new()
            .name("ags-serve-drain-wake".to_owned())
            .spawn(move || wake_accept_on_drain(&drain, wake_addr(addr), timeout))
            .map_err(|e| ServeError::Runtime(format!("cannot spawn drain waker: {e}")))?
    };

    let active = Arc::new(AtomicUsize::new(0));
    while !config.drain.is_cancelled() {
        let accepted = listener.accept();
        // The drain waker's connection, and any client that raced the
        // drain, is dropped unanswered.
        if config.drain.is_cancelled() {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                telemetry::http_requests().inc();
                if active.load(Ordering::Acquire) >= config.limits.max_connections {
                    shed(stream, &config.limits);
                    continue;
                }
                active.fetch_add(1, Ordering::AcqRel);
                telemetry::connections()
                    .set(i64::try_from(active.load(Ordering::Acquire)).unwrap_or(i64::MAX));
                let shared = Arc::clone(&shared);
                let conn_count = Arc::clone(&active);
                let limits = config.limits.clone();
                let spawned = std::thread::Builder::new()
                    .name("ags-serve-conn".to_owned())
                    .spawn(move || {
                        handle_connection(stream, &shared, &limits);
                        let now = conn_count.fetch_sub(1, Ordering::AcqRel) - 1;
                        telemetry::connections().set(i64::try_from(now).unwrap_or(i64::MAX));
                    });
                if spawned.is_err() {
                    // Thread exhaustion: count the connection back out
                    // and shed it.
                    let now = active.fetch_sub(1, Ordering::AcqRel) - 1;
                    telemetry::connections().set(i64::try_from(now).unwrap_or(i64::MAX));
                    telemetry::sheds().inc();
                }
            }
            Err(_) => std::thread::sleep(DRAIN_CHECK),
        }
    }

    // Drain begun: stop accepting, re-arm the signal handlers so a
    // second signal forces immediate exit, and let the scheduler
    // checkpoint whatever is in flight. The waker is joined while the
    // listener is still open, so its one connect cannot be refused.
    let _ = waker.join();
    drop(listener);
    if config.handle_signals {
        rearm_cancel_on_signals(&config.force);
        let force = config.force.clone();
        std::thread::Builder::new()
            .name("ags-serve-force".to_owned())
            .spawn(move || loop {
                if force.is_cancelled() {
                    log_warn!("serve", "second signal — forcing immediate shutdown");
                    std::process::exit(i32::from(EXIT_INTERRUPTED));
                }
                std::thread::sleep(Duration::from_millis(50));
            })
            .ok();
    }
    shared.wake.notify_all();
    let scheduler_ok = scheduler.join().is_ok();
    // The sampler watches the same drain token; joining it flushes its
    // buffered frames to the flight-recorder log.
    if let Some(handle) = sampler {
        let _ = handle.join();
    }
    if !scheduler_ok {
        return Err(ServeError::Runtime("scheduler thread panicked".to_owned()));
    }
    let grace_deadline = Instant::now() + CONNECTION_DRAIN_GRACE;
    while active.load(Ordering::Acquire) > 0 && Instant::now() < grace_deadline {
        std::thread::sleep(DRAIN_CHECK);
    }
    let open = shared.lock_queue().open_tasks();
    log_info!("serve", open = open, queue = config.journal.display();
        "drained — open tasks checkpointed");
    Ok(())
}

/// The drain waker: waits for the drain token, then connects once to
/// `addr` so the accept loop's blocking `accept` returns and sees it.
fn wake_accept_on_drain(drain: &CancelToken, addr: SocketAddr, timeout: Duration) {
    while !drain.is_cancelled() {
        std::thread::sleep(DRAIN_CHECK);
    }
    if let Err(e) = TcpStream::connect_timeout(&addr, timeout) {
        log_warn!("serve", addr = addr, error = e;
            "drain wake-up could not connect — accept stays blocked until the next connection");
    }
}

/// Where the drain waker connects: the bound address, with an
/// unspecified IP (`0.0.0.0`, `::`) replaced by the loopback address of
/// the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// The sampler thread: snapshot the registry into the history ring
/// every `interval`, persisting batches of frames to the recorder log.
/// Also the refresh point for gauges derived from queue state (the
/// oldest-open-task age), so every frame carries a fresh reading.
fn sampler_loop(
    shared: &Shared,
    mut log: Option<RecorderLog>,
    interval: Duration,
    drain: &CancelToken,
) {
    let mut pending: Vec<FrameRecord> = Vec::new();
    loop {
        let age_ms = shared.lock_queue().oldest_open_age_ms(now_ms());
        telemetry::queue_oldest_age().set(i64::try_from(age_ms / 1000).unwrap_or(i64::MAX));
        let frame = shared.recorder.sample(p7_obs::metrics::global(), wall_ms());
        pending.push(FrameRecord {
            t_ms: frame.t_ms,
            series: frame.series,
        });
        if pending.len() >= RECORDER_PERSIST_EVERY {
            persist_frames(&mut log, &mut pending);
        }
        let deadline = Instant::now() + interval;
        loop {
            if drain.is_cancelled() {
                persist_frames(&mut log, &mut pending);
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep((deadline - now).min(SAMPLER_NAP));
        }
    }
}

/// One durable append of the sampler's buffered frames. Failure drops
/// the batch with a warning: the recorder log is advisory telemetry,
/// and the queue journal's own degraded-mode machinery handles real
/// disk outages.
fn persist_frames(log: &mut Option<RecorderLog>, pending: &mut Vec<FrameRecord>) {
    if pending.is_empty() {
        return;
    }
    if let Some(log) = log.as_mut() {
        if let Err(e) = log.append(pending) {
            log_warn!("serve", error = e, frames = pending.len();
                "flight-recorder append failed — dropping buffered frames");
        }
    }
    pending.clear();
}

/// Best-effort `503` for a connection over the cap.
fn shed(mut stream: TcpStream, limits: &HttpLimits) {
    telemetry::sheds().inc();
    let _ = stream.set_write_timeout(Some(limits.io_timeout));
    let _ = Response::error(503, "connection cap reached, retry later").write_to(&mut stream);
}

/// Parses one request off the connection, answers it, and records the
/// access log line plus the per-route latency observation.
fn handle_connection(stream: TcpStream, shared: &Shared, limits: &HttpLimits) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(limits.io_timeout));
    let _ = stream.set_write_timeout(Some(limits.io_timeout));
    let Ok(peer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(peer);
    let parsed = read_request(&mut reader, limits);
    let (response, method, target) = match &parsed {
        Ok(request) => (
            route(request, shared),
            request.method.as_str(),
            request.path.as_str(),
        ),
        Err(HttpError::BodyTooLarge) => (Response::error(413, "request body over limit"), "-", "-"),
        Err(HttpError::Malformed(what)) => (Response::error(400, what), "-", "-"),
        Err(HttpError::Io(_)) => return, // Peer vanished or timed out.
    };
    let mut stream = stream;
    let _ = response.write_to(&mut stream);
    let elapsed = started.elapsed();
    telemetry::http_request_seconds(route_label(target)).observe(elapsed.as_secs_f64());
    log_info!("http",
        method = method,
        path = target,
        status = response.status,
        duration_us = elapsed.as_micros(),
        bytes = response.body.len();
        "request");
}

/// Collapses a request target onto one of the fixed
/// [`telemetry::ROUTES`] labels, so task ids do not explode the
/// request-latency histogram's cardinality.
fn route_label(target: &str) -> &'static str {
    let (path, _) = split_target(target);
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["healthz"] => "/healthz",
        ["metrics"] => "/metrics",
        ["metrics", "history"] => "/metrics/history",
        ["tasks"] => "/tasks",
        ["tasks", _] => "/tasks/:id",
        ["tasks", _, "result"] => "/tasks/:id/result",
        ["tasks", _, "trace"] => "/tasks/:id/trace",
        ["tasks", _, "cancel"] => "/tasks/:id/cancel",
        _ => "other",
    }
}

/// Routes one parsed request.
fn route(request: &Request, shared: &Shared) -> Response {
    let (path, query) = split_target(&request.path);
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => health_response(shared),
        ("GET", ["metrics"]) => Response::text(200, p7_obs::metrics::global().render_prometheus()),
        ("GET", ["metrics", "history"]) => metrics_history(shared, query),
        ("POST", ["tasks"]) => submit(request, shared),
        ("GET", ["tasks"]) => list_tasks(shared),
        ("GET", ["tasks", id]) => with_task(shared, id, |task| {
            Response::json(200, task_value(task).to_json())
        }),
        ("GET", ["tasks", id, "result"]) => with_task(shared, id, |task| {
            if task.state == TaskState::Succeeded {
                Response::text(200, task.output.clone())
            } else {
                Response::error(
                    409,
                    &format!("task is {}, not succeeded", task.state.label()),
                )
            }
        }),
        ("GET", ["tasks", id, "trace"]) => task_trace(shared, id),
        ("POST", ["tasks", id, "cancel"]) => cancel_task(shared, id),
        ("GET" | "POST", _) => Response::error(404, "no such endpoint"),
        _ => Response::error(405, "method not allowed"),
    }
}

/// Drains every completed span from the global trace ring into the
/// process-wide [`TraceStore`], grouped by trace id. Called after each
/// accept and each scheduler pass, and once more on trace reads, so a
/// `GET /tasks/<id>/trace` sees everything recorded so far.
fn absorb_completed_spans() {
    trace::flush();
    TraceStore::global().absorb(trace::collect());
}

/// `GET /tasks/<id>/trace`: the task's span tree as Chrome-trace JSON.
/// `404` for an unknown task, and for a known task with no recorded
/// spans (traces live in memory only and do not survive a restart).
fn task_trace(shared: &Shared, id: &str) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(400, "task id must be an integer");
    };
    if shared.lock_queue().get(id).is_none() {
        return Response::error(404, &format!("no task {id}"));
    }
    absorb_completed_spans();
    match TraceStore::global().events_for(shared.trace_ns ^ id) {
        Some(events) => Response::json(200, trace::render_chrome_trace(&events)),
        None => Response::error(
            404,
            &format!("no trace recorded for task {id} (traces do not survive a restart)"),
        ),
    }
}

/// `GET /metrics/history?family=&window_ms=&points=`: windowed,
/// downsampled series from the flight-recorder ring as
/// `{"now_ms":…,"series":[{"key":…,"points":[[t_ms,value],…]},…]}`.
fn metrics_history(shared: &Shared, query: &str) -> Response {
    let family = query_param(query, "family").filter(|f| !f.is_empty());
    let window_ms = match query_param(query, "window_ms").map(str::parse::<u64>) {
        None => 300_000,
        Some(Ok(v)) => v,
        Some(Err(_)) => return Response::error(400, "bad integer `window_ms`"),
    };
    let points = match query_param(query, "points").map(str::parse::<usize>) {
        None => 256,
        Some(Ok(v)) => v,
        Some(Err(_)) => return Response::error(400, "bad integer `points`"),
    };
    let now = wall_ms();
    let series = shared.recorder.history(family, window_ms, now, points);
    let body = Value::Map(vec![
        ("now_ms".to_owned(), Value::Int(i128::from(now))),
        ("window_ms".to_owned(), Value::Int(i128::from(window_ms))),
        (
            "dropped_frames".to_owned(),
            Value::Int(i128::from(shared.recorder.dropped())),
        ),
        (
            "series".to_owned(),
            Value::Seq(
                series
                    .into_iter()
                    .map(|s| {
                        Value::Map(vec![
                            ("key".to_owned(), Value::Str(s.key)),
                            (
                                "points".to_owned(),
                                Value::Seq(
                                    s.points
                                        .into_iter()
                                        .map(|(t, v)| {
                                            Value::Seq(vec![
                                                Value::Int(i128::from(t)),
                                                Value::Float(v),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Response::json(200, body.to_json())
}

/// The `/healthz` JSON body: status, optional reason, and build
/// identity (crate version, `git describe` stamped at compile time,
/// uptime) so a probe can tell *which* daemon answered.
fn health_body(status: &str, reason: Option<String>, uptime_seconds: u64) -> String {
    let mut fields = vec![("status".to_owned(), Value::Str(status.to_owned()))];
    if let Some(reason) = reason {
        fields.push(("reason".to_owned(), Value::Str(reason)));
    }
    fields.push((
        "version".to_owned(),
        Value::Str(env!("CARGO_PKG_VERSION").to_owned()),
    ));
    fields.push((
        "git".to_owned(),
        Value::Str(env!("AGS_GIT_DESCRIBE").to_owned()),
    ));
    fields.push((
        "uptime_seconds".to_owned(),
        Value::Int(i128::from(uptime_seconds)),
    ));
    Value::Map(fields).to_json()
}

/// `GET /healthz`: `200` with `"status":"ok"` only when the scheduler
/// thread is live *and* the journal is accepting writes; otherwise
/// `503` with a JSON reason a probe can alert on. Either way the body
/// carries the build version, `git describe`, and uptime.
fn health_response(shared: &Shared) -> Response {
    let uptime = shared.started.elapsed().as_secs();
    if let Some(reason) = shared.degraded_reason() {
        return Response::json(503, health_body("degraded", Some(reason), uptime))
            .with_retry_after(RETRY_AFTER_SECS);
    }
    if !shared.health.scheduler_live.load(Ordering::Acquire) {
        return Response::json(
            503,
            health_body(
                "down",
                Some("scheduler thread is not running".to_owned()),
                uptime,
            ),
        );
    }
    Response::json(200, health_body("ok", None, uptime))
}

/// The uniform write-shed response while the journal is unwritable:
/// `503` with a `Retry-After` hint (the scheduler probes for recovery
/// every poll, so the outage can clear without a restart).
fn degraded_response(reason: &str) -> Response {
    Response::error(503, &format!("degraded read-only mode: {reason}"))
        .with_retry_after(RETRY_AFTER_SECS)
}

/// The status JSON of one task (without the result payload, which has
/// its own endpoint).
fn task_value(task: &Task) -> Value {
    Value::Map(vec![
        ("task".to_owned(), Value::Int(i128::from(task.id))),
        ("kind".to_owned(), Value::Str(task.kind.label().to_owned())),
        (
            "state".to_owned(),
            Value::Str(task.state.label().to_owned()),
        ),
        ("attempts".to_owned(), Value::Int(task.attempts as i128)),
        ("reason".to_owned(), Value::Str(task.reason.clone())),
    ])
}

/// Looks up `<id>` and applies `f`, with uniform 400/404 handling.
fn with_task(shared: &Shared, id: &str, f: impl FnOnce(&Task) -> Response) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(400, "task id must be an integer");
    };
    let queue = shared.lock_queue();
    match queue.get(id) {
        Some(task) => f(task),
        None => Response::error(404, &format!("no task {id}")),
    }
}

/// `GET /tasks`: every task's status, in submit order.
fn list_tasks(shared: &Shared) -> Response {
    Response::json(200, render_task_list(shared.lock_queue().tasks()))
}

/// The `GET /tasks` body: byte-identical to `Value::Seq` over every
/// [`task_value`], rendered into one buffer without first building the
/// whole sequence (pollers hit this route back to back).
fn render_task_list(tasks: &[Task]) -> String {
    // A typical entry is ~75 bytes; a long retry reason only regrows.
    let mut body = String::with_capacity(2 + tasks.len() * 80);
    body.push('[');
    for (i, task) in tasks.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&task_value(task).to_json());
    }
    body.push(']');
    body
}

/// `POST /tasks/<id>/cancel`: only a task still waiting in `enqueued`
/// can be canceled; anything claimed by the scheduler (or already
/// terminal) conflicts. A cancel is a journal write, so it sheds while
/// degraded.
fn cancel_task(shared: &Shared, id: &str) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(400, "task id must be an integer");
    };
    if let Some(reason) = shared.degraded_reason() {
        return degraded_response(&reason);
    }
    let mut queue = shared.lock_queue();
    let Some(task) = queue.get(id) else {
        return Response::error(404, &format!("no task {id}"));
    };
    if task.state != TaskState::Enqueued {
        return Response::error(
            409,
            &format!("task is {}, cannot cancel", task.state.label()),
        );
    }
    let attempts = task.attempts;
    if let Err(e) = queue.transition(&[TaskUpdate::to_state(id, TaskState::Canceled, attempts)]) {
        drop(queue);
        let reason = format!("journal append failed: {e}");
        shared.enter_degraded(reason.clone());
        return degraded_response(&reason);
    }
    telemetry::tasks_canceled().inc();
    let canceled = queue.get(id).expect("task present").clone();
    drop(queue);
    shared.refresh_depth();
    Response::json(200, task_value(&canceled).to_json())
}

/// `POST /tasks`: validate, canonicalize, journal, acknowledge.
///
/// The body is `{"kind": "sweep" | "resilience" | "fleet", "spec":
/// {…}}`, or `{"kind": …, "smoke": true}` for the built-in CI-sized
/// campaign. Invalid submissions are refused with `400` and never
/// journaled; a `202` means the task is durable. A failed journal
/// append latches degraded mode and sheds with `503`.
fn submit(request: &Request, shared: &Shared) -> Response {
    if let Some(reason) = shared.degraded_reason() {
        return degraded_response(&reason);
    }
    let (kind, spec_json) = match canonicalize_submission(&request.body) {
        Ok(parsed) => parsed,
        Err(message) => return Response::error(400, &message),
    };
    let mut queue = shared.lock_queue();
    // The trace is rooted here: peek the id the submit will assign
    // (we hold the queue lock, so it cannot move), derive the trace id
    // from it, and register the accept span as the tree's root so the
    // scheduler can parent its spans onto it from the other side of
    // the queue.
    let pending_id = queue.next_task_id();
    let trace_id = shared.trace_ns ^ pending_id;
    let mut accept = trace::span("task_accept", pending_id);
    accept.set_trace(trace_id);
    TraceStore::global().set_root(trace_id, accept.id());
    let submitted = {
        let _ctx = accept.push();
        let _journal_span = trace::span("task_journal", pending_id);
        queue.submit(kind, spec_json)
    };
    let id = match submitted {
        Ok(id) => id,
        Err(e) => {
            drop(queue);
            let reason = format!("journal append failed: {e}");
            shared.enter_degraded(reason.clone());
            return degraded_response(&reason);
        }
    };
    let task = queue.get(id).expect("just submitted").clone();
    drop(queue);
    drop(accept);
    absorb_completed_spans();
    telemetry::tasks_submitted().inc();
    shared.refresh_depth();
    shared.wake.notify_all();
    Response::json(202, task_value(&task).to_json())
}

/// Parses and validates a submission body into `(kind, canonical spec
/// JSON)`. Canonical means "the spec's own `to_json`", so equal specs
/// submitted with different field orderings batch together.
fn canonicalize_submission(body: &[u8]) -> Result<(TaskKind, String), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body must be UTF-8 JSON".to_owned())?;
    let value = Value::parse_json(text).map_err(|e| format!("bad JSON body: {e}"))?;
    let kind_label = match value.field("kind") {
        Ok(Value::Str(s)) => s.clone(),
        _ => return Err("missing or non-string `kind`".to_owned()),
    };
    let kind = TaskKind::parse(&kind_label)
        .ok_or_else(|| format!("unknown kind `{kind_label}` (expected sweep|resilience|fleet)"))?;
    let smoke = matches!(value.field("smoke"), Ok(Value::Bool(true)));
    let spec_value = match value.field("spec") {
        Ok(v) if !smoke => Some(v),
        _ if smoke => None,
        _ => return Err("missing `spec` (or pass \"smoke\": true)".to_owned()),
    };
    let catalog = Catalog::shared();
    let spec_json = match kind {
        TaskKind::Sweep => {
            let spec = match spec_value {
                Some(v) => SweepSpec::from_value(v).map_err(|e| format!("bad sweep spec: {e}"))?,
                None => SweepSpec::smoke_grid(),
            };
            spec.validate(catalog).map_err(|e| e.to_string())?;
            spec.to_json()
        }
        TaskKind::Resilience => {
            let spec = match spec_value {
                Some(v) => ResilienceSpec::from_value(v)
                    .map_err(|e| format!("bad resilience spec: {e}"))?,
                None => ResilienceSpec::smoke(),
            };
            spec.validate(catalog).map_err(|e| e.to_string())?;
            serde::json::to_string(&spec)
        }
        TaskKind::Fleet => {
            let spec = match spec_value {
                Some(v) => FleetSpec::from_value(v).map_err(|e| format!("bad fleet spec: {e}"))?,
                None => FleetSpec::smoke(),
            };
            spec.validate(catalog).map_err(|e| e.to_string())?;
            spec.to_json()
        }
    };
    Ok((kind, spec_json))
}

/// Whether an engine pass ran to completion or was interrupted by the
/// drain token (its tasks were re-enqueued as the checkpoint).
enum Pass {
    Completed,
    Interrupted,
}

/// What one scheduler pass decided about the loop.
enum Flow {
    /// Keep scheduling.
    Continue,
    /// The drain token fired; exit the loop.
    Drained,
}

/// The scheduler thread: claim → batch → run → record, until drained.
///
/// Journal errors do not kill the thread — they latch degraded mode
/// and the claim loop turns into a recovery probe until the journal
/// accepts writes again. The drop guard keeps `/healthz` honest even
/// if this thread panics.
fn scheduler_loop(shared: &Shared) {
    struct LiveGuard<'a>(&'a Shared);
    impl Drop for LiveGuard<'_> {
        fn drop(&mut self) {
            self.0.health.scheduler_live.store(false, Ordering::Release);
        }
    }
    let _live = LiveGuard(shared);
    let engine = SweepEngine::new(shared.jobs);
    loop {
        match scheduler_pass(shared, &engine) {
            Ok(Flow::Drained) => return,
            Ok(Flow::Continue) => {}
            Err(e) => shared.enter_degraded(format!("journal append failed: {e}")),
        }
    }
}

/// While degraded, each poll probes the journal directory; once a
/// probe write round-trips, tasks stranded mid-claim (`batched` or
/// `processing` with no pass running) are re-enqueued at their current
/// attempt count and the daemon leaves degraded mode.
fn recover_if_writable(shared: &Shared, queue: &mut TaskStore) {
    if queue.probe_writable().is_err() {
        return;
    }
    let stuck: Vec<TaskUpdate> = queue
        .tasks()
        .iter()
        .filter(|t| matches!(t.state, TaskState::Batched | TaskState::Processing))
        .map(|t| TaskUpdate::to_state(t.id, TaskState::Enqueued, t.attempts))
        .collect();
    if queue.transition(&stuck).is_ok() {
        shared.clear_degraded();
    }
}

/// One claim → batch → run → record pass of the scheduler.
fn scheduler_pass(shared: &Shared, engine: &SweepEngine) -> Result<Flow, SimError> {
    let claimed: Vec<Task> = {
        let mut queue = shared.lock_queue();
        loop {
            if shared.drain.is_cancelled() {
                return Ok(Flow::Drained);
            }
            if shared.is_degraded() {
                recover_if_writable(shared, &mut queue);
            } else {
                // A journaled backoff deadline gates readiness, so a
                // restarted daemon keeps waiting instead of retrying hot.
                let now = now_ms();
                let ready: Vec<Task> = queue
                    .tasks()
                    .iter()
                    .filter(|t| t.state == TaskState::Enqueued)
                    .filter(|t| t.retry_at_ms == 0 || t.retry_at_ms <= now)
                    .cloned()
                    .collect();
                if !ready.is_empty() {
                    let updates: Vec<TaskUpdate> = ready
                        .iter()
                        .map(|t| TaskUpdate::to_state(t.id, TaskState::Batched, t.attempts))
                        .collect();
                    queue.transition(&updates)?;
                    break ready;
                }
            }
            let (guard, _timeout) = shared
                .wake
                .wait_timeout(queue, SCHEDULER_POLL)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            queue = guard;
        }
    };

    let mut sweeps: Vec<QueuedSweep> = Vec::new();
    let mut singles: Vec<Task> = Vec::new();
    let mut parse_failures: Vec<TaskUpdate> = Vec::new();
    for task in claimed {
        match task.kind {
            TaskKind::Sweep => match SweepSpec::from_json(&task.spec_json) {
                Ok(spec) => sweeps.push(QueuedSweep {
                    task: task.id,
                    spec,
                }),
                // Specs are validated at submit; a parse failure
                // here means journal-era skew — quarantine it.
                Err(e) => parse_failures.push(TaskUpdate {
                    id: task.id,
                    state: TaskState::Failed,
                    attempts: task.attempts + 1,
                    reason: format!("stored spec no longer parses: {e}"),
                    output: String::new(),
                    retry_at_ms: 0,
                }),
            },
            TaskKind::Resilience | TaskKind::Fleet => singles.push(task),
        }
    }
    if !parse_failures.is_empty() {
        for _ in &parse_failures {
            telemetry::tasks_failed().inc();
        }
        shared.lock_queue().transition(&parse_failures)?;
    }

    let mut interrupted = false;
    let batches = build_batches(&sweeps);
    let mut pending: Vec<SweepBatch> = Vec::new();
    for batch in batches {
        if interrupted || shared.drain.is_cancelled() {
            pending.push(batch);
            continue;
        }
        match run_sweep_batch(shared, engine, &batch)? {
            Pass::Completed => {}
            Pass::Interrupted => interrupted = true,
        }
    }
    let mut pending_singles: Vec<Task> = Vec::new();
    for task in singles {
        if interrupted || shared.drain.is_cancelled() {
            pending_singles.push(task);
            continue;
        }
        match run_single(shared, &task)? {
            Pass::Completed => {}
            Pass::Interrupted => interrupted = true,
        }
    }
    // Checkpoint claimed-but-unrun work back to `enqueued` so a
    // restart (or this drain's own exit message) sees it waiting.
    let requeue: Vec<TaskUpdate> = pending
        .iter()
        .flat_map(|b| b.members.iter())
        .map(|m| m.task)
        .chain(pending_singles.iter().map(|t| t.id))
        .map(|id| {
            let queue = shared.lock_queue();
            let attempts = queue.get(id).map_or(0, |t| t.attempts);
            TaskUpdate::to_state(id, TaskState::Enqueued, attempts)
        })
        .collect();
    if !requeue.is_empty() {
        shared.lock_queue().transition(&requeue)?;
    }
    shared.refresh_depth();
    // Everything this pass recorded (scheduler spans plus the engine
    // workers' flushed spans) becomes retrievable per task.
    absorb_completed_spans();
    if shared.drain.is_cancelled() {
        return Ok(Flow::Drained);
    }
    Ok(Flow::Continue)
}

/// A per-batch deadline enforcer: a sidecar thread that cancels the
/// engine pass when the deadline (or the daemon's drain) fires.
/// [`Watchdog::disarm`] joins the sidecar before reporting expiry, so
/// a disarmed watchdog can never cancel a later pass.
struct Watchdog {
    expired: Arc<AtomicBool>,
    disarm: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl Watchdog {
    /// Stops the sidecar and reports whether the deadline fired.
    fn disarm(self) -> bool {
        self.disarm.store(true, Ordering::Release);
        let _ = self.handle.join();
        self.expired.load(Ordering::Acquire)
    }
}

/// The cancel token an engine pass should honor: the drain token
/// directly when no deadline is configured, else a child token the
/// watchdog cancels on drain *or* deadline expiry.
fn arm_watchdog(shared: &Shared) -> (CancelToken, Option<Watchdog>) {
    let Some(deadline) = shared.deadline else {
        return (shared.drain.clone(), None);
    };
    let token = CancelToken::new();
    let expired = Arc::new(AtomicBool::new(false));
    let disarm = Arc::new(AtomicBool::new(false));
    let sidecar = {
        let token = token.clone();
        let drain = shared.drain.clone();
        let expired = Arc::clone(&expired);
        let disarm = Arc::clone(&disarm);
        std::thread::Builder::new()
            .name("ags-serve-watchdog".to_owned())
            .spawn(move || {
                let start = Instant::now();
                loop {
                    if disarm.load(Ordering::Acquire) {
                        return;
                    }
                    if drain.is_cancelled() {
                        token.cancel();
                        return;
                    }
                    if start.elapsed() >= deadline {
                        expired.store(true, Ordering::Release);
                        token.cancel();
                        return;
                    }
                    std::thread::sleep(WATCHDOG_POLL);
                }
            })
    };
    match sidecar {
        Ok(handle) => (
            token,
            Some(Watchdog {
                expired,
                disarm,
                handle,
            }),
        ),
        // Thread exhaustion: run undeadlined rather than not at all.
        Err(_) => (shared.drain.clone(), None),
    }
}

/// Durably fails every member of a batch the watchdog expired. Stuck
/// tasks quarantine instead of retrying: a pass that blows the
/// deadline would blow it again.
fn quarantine_stuck(shared: &Shared, ids: impl Iterator<Item = u64>) -> Result<(), SimError> {
    let deadline = shared.deadline.unwrap_or_default();
    let updates: Vec<TaskUpdate> = {
        let queue = shared.lock_queue();
        ids.map(|id| {
            telemetry::tasks_failed().inc();
            telemetry::tasks_stuck().inc();
            TaskUpdate {
                id,
                state: TaskState::Failed,
                attempts: queue.get(id).map_or(0, |t| t.attempts) + 1,
                reason: format!(
                    "stuck: batch exceeded the {}ms deadline and was canceled",
                    deadline.as_millis()
                ),
                output: String::new(),
                retry_at_ms: 0,
            }
        })
        .collect()
    };
    shared.lock_queue().transition(&updates)?;
    shared.refresh_depth();
    Ok(())
}

/// A scheduler-side span for `task`, stamped with the task's trace id
/// and parented onto its accept root (when the root is still known —
/// a task recovered from the journal after a restart has no root, and
/// its spans then open a fresh tree under the same trace id).
fn task_span(shared: &Shared, name: &'static str, task: u64) -> trace::Span {
    let trace_id = shared.trace_ns ^ task;
    let mut span = trace::span(name, task);
    span.set_trace(trace_id);
    if let Some(root) = TraceStore::global().root_of(trace_id) {
        span.set_parent(root);
    }
    span
}

/// Runs one merged sweep batch and records every member's outcome.
fn run_sweep_batch(
    shared: &Shared,
    engine: &SweepEngine,
    batch: &SweepBatch,
) -> Result<Pass, SimError> {
    {
        // Batch formation, recorded into every member's trace (the
        // stage is shared; each task still sees it under its own root).
        let _batch_spans: Vec<trace::Span> = batch
            .members
            .iter()
            .map(|m| task_span(shared, "task_batch", m.task))
            .collect();
        let processing: Vec<TaskUpdate> = {
            let queue = shared.lock_queue();
            batch
                .members
                .iter()
                .map(|m| {
                    let attempts = queue.get(m.task).map_or(0, |t| t.attempts);
                    TaskUpdate::to_state(m.task, TaskState::Processing, attempts)
                })
                .collect()
        };
        shared.lock_queue().transition(&processing)?;
    }
    telemetry::batches().inc();
    #[allow(clippy::cast_precision_loss)]
    telemetry::batch_width().observe(batch.members.len() as f64);

    let (cancel, watchdog) = arm_watchdog(shared);
    let options = SweepRunOptions {
        durable: DurableOptions {
            cancel,
            retry: shared.retry,
            ..DurableOptions::default()
        },
        panic_injector: None,
    };
    let ran = {
        // One solve span per member covers the shared engine pass; the
        // engine's own spans (sweep points, solves, journal segments)
        // nest under the first member's, pushed as the thread context
        // the engine workers inherit.
        let solve_spans: Vec<trace::Span> = batch
            .members
            .iter()
            .map(|m| task_span(shared, "task_solve", m.task))
            .collect();
        let _engine_ctx = solve_spans.first().map(trace::Span::push);
        engine.run_durable(&batch.merged, &options)
    };
    let expired = watchdog.is_some_and(Watchdog::disarm);
    match ran {
        Ok(report) => {
            let splits = split_report(batch, &report);
            let mut updates = Vec::new();
            {
                let queue = shared.lock_queue();
                for split in splits {
                    let _render_span = task_span(shared, "task_render", split.task);
                    let attempts = queue.get(split.task).map_or(0, |t| t.attempts) + 1;
                    let output = render_results_table(&split.results)
                        + &render_failed(&split.failed, "grid points");
                    updates.push(terminal_update(
                        split.task,
                        attempts,
                        output,
                        &split.failed,
                        None,
                        shared.retry,
                    ));
                }
            }
            shared.lock_queue().transition(&updates)?;
            shared.refresh_depth();
            Ok(Pass::Completed)
        }
        Err(SimError::Interrupted { .. }) => {
            if expired && !shared.drain.is_cancelled() {
                quarantine_stuck(shared, batch.members.iter().map(|m| m.task))?;
                Ok(Pass::Completed)
            } else {
                requeue_tasks(shared, batch.members.iter().map(|m| m.task))?;
                Ok(Pass::Interrupted)
            }
        }
        Err(e) => {
            // A hard engine error is deterministic (bad config); retry
            // cannot help, so every member quarantines with the reason.
            let updates: Vec<TaskUpdate> = {
                let queue = shared.lock_queue();
                batch
                    .members
                    .iter()
                    .map(|m| {
                        telemetry::tasks_failed().inc();
                        TaskUpdate {
                            id: m.task,
                            state: TaskState::Failed,
                            attempts: queue.get(m.task).map_or(0, |t| t.attempts) + 1,
                            reason: e.to_string(),
                            output: String::new(),
                            retry_at_ms: 0,
                        }
                    })
                    .collect()
            };
            shared.lock_queue().transition(&updates)?;
            shared.refresh_depth();
            Ok(Pass::Completed)
        }
    }
}

/// Runs one resilience/fleet task and records its outcome.
fn run_single(shared: &Shared, task: &Task) -> Result<Pass, SimError> {
    let attempts_before = shared
        .lock_queue()
        .get(task.id)
        .map_or(task.attempts, |t| t.attempts);
    {
        let _batch_span = task_span(shared, "task_batch", task.id);
        shared.lock_queue().transition(&[TaskUpdate::to_state(
            task.id,
            TaskState::Processing,
            attempts_before,
        )])?;
    }
    telemetry::batches().inc();
    telemetry::batch_width().observe(1.0);

    let (cancel, watchdog) = arm_watchdog(shared);
    let durable = DurableOptions {
        cancel,
        retry: shared.retry,
        ..DurableOptions::default()
    };
    let solve_span = task_span(shared, "task_solve", task.id);
    let engine_ctx = solve_span.push();
    let ran: Result<(String, Vec<FailedPoint>, Option<String>), SimError> = match task.kind {
        TaskKind::Resilience => serde::json::from_str::<ResilienceSpec>(&task.spec_json)
            .map_err(|e| SimError::Journal {
                reason: format!("stored resilience spec no longer parses: {e}"),
            })
            .and_then(|spec| {
                let report = spec.run_durable(shared.jobs, &durable)?;
                let output = report.table()
                    + &render_failed(&report.failed_cells, "cells")
                    + &report.summary_line();
                let unsafe_reason =
                    (!report.all_safe() && report.failed_cells.is_empty()).then(|| {
                        "campaign unsafe: a supervised cell violated the margin or breached \
                         the floor"
                            .to_owned()
                    });
                Ok((output, report.failed_cells, unsafe_reason))
            }),
        TaskKind::Fleet => FleetSpec::from_json(&task.spec_json).and_then(|spec| {
            let report = FleetEngine::new(shared.jobs).run_durable(
                &spec,
                &FleetRunOptions {
                    durable: durable.clone(),
                    panic_injector: None,
                },
            )?;
            let output = report.table() + &render_failed(&report.failed_shards, "shards");
            Ok((output, report.failed_shards, None))
        }),
        TaskKind::Sweep => unreachable!("sweeps go through run_sweep_batch"),
    };
    drop(engine_ctx);
    drop(solve_span);
    let expired = watchdog.is_some_and(Watchdog::disarm);

    match ran {
        Ok((output, failed, unsafe_reason)) => {
            let _render_span = task_span(shared, "task_render", task.id);
            let attempts = attempts_before + 1;
            let update = terminal_update(
                task.id,
                attempts,
                output,
                &failed,
                unsafe_reason,
                shared.retry,
            );
            shared.lock_queue().transition(&[update])?;
            shared.refresh_depth();
            Ok(Pass::Completed)
        }
        Err(SimError::Interrupted { .. }) => {
            if expired && !shared.drain.is_cancelled() {
                quarantine_stuck(shared, std::iter::once(task.id))?;
                Ok(Pass::Completed)
            } else {
                requeue_tasks(shared, std::iter::once(task.id))?;
                Ok(Pass::Interrupted)
            }
        }
        Err(e) => {
            telemetry::tasks_failed().inc();
            shared.lock_queue().transition(&[TaskUpdate {
                id: task.id,
                state: TaskState::Failed,
                attempts: attempts_before + 1,
                reason: e.to_string(),
                output: String::new(),
                retry_at_ms: 0,
            }])?;
            shared.refresh_depth();
            Ok(Pass::Completed)
        }
    }
}

/// Decides a completed pass's terminal (or retry) update for one task:
/// clean → `succeeded` with the rendered output; quarantined points (or
/// an unsafe verdict) → retry with exponential backoff while attempts
/// remain, else `failed` carrying the first quarantine reason and the
/// partial output. The backoff deadline rides in the update and is
/// journaled, so a restart resumes the wait instead of retrying hot.
fn terminal_update(
    id: u64,
    attempts: usize,
    output: String,
    failed: &[FailedPoint],
    unsafe_reason: Option<String>,
    retry: RetryPolicy,
) -> TaskUpdate {
    if failed.is_empty() && unsafe_reason.is_none() {
        telemetry::tasks_succeeded().inc();
        return TaskUpdate {
            id,
            state: TaskState::Succeeded,
            attempts,
            reason: String::new(),
            output,
            retry_at_ms: 0,
        };
    }
    let reason = unsafe_reason.unwrap_or_else(|| {
        let first = &failed[0];
        format!(
            "{} point(s) quarantined; first: {}",
            failed.len(),
            first.reason
        )
    });
    if attempts < retry.max_attempts.max(1) {
        telemetry::task_retries().inc();
        let backoff = retry.backoff_before(attempts);
        return TaskUpdate {
            id,
            state: TaskState::Enqueued,
            attempts,
            reason,
            output: String::new(),
            retry_at_ms: now_ms()
                .saturating_add(u64::try_from(backoff.as_millis()).unwrap_or(u64::MAX)),
        };
    }
    telemetry::tasks_failed().inc();
    TaskUpdate {
        id,
        state: TaskState::Failed,
        attempts,
        reason,
        output,
        retry_at_ms: 0,
    }
}

/// Durably re-enqueues tasks at their current attempt count — the
/// drain-time checkpoint of an interrupted batch.
fn requeue_tasks(shared: &Shared, ids: impl Iterator<Item = u64>) -> Result<(), SimError> {
    let updates: Vec<TaskUpdate> = {
        let queue = shared.lock_queue();
        ids.map(|id| {
            let attempts = queue.get(id).map_or(0, |t| t.attempts);
            TaskUpdate::to_state(id, TaskState::Enqueued, attempts)
        })
        .collect()
    };
    shared.lock_queue().transition(&updates)?;
    shared.refresh_depth();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use p7_control::GuardbandMode;
    use p7_sim::vfs::FaultyFs;
    use std::io::Read as _;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::AtomicU32;

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ags-serve-daemon-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> SweepSpec {
        SweepSpec::new(vec!["lu_cb".to_owned()], vec![1, 2])
            .with_modes(vec![GuardbandMode::StaticGuardband])
            .with_seed(42)
            .with_ticks(4, 2)
    }

    /// One raw round-trip against a live daemon; returns the full
    /// response text (status line, headers and body) so tests can
    /// assert on headers.
    fn http_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("recv");
        raw
    }

    /// One round-trip against a live daemon; returns (status, body).
    fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let raw = http_raw(addr, method, path, body);
        let status: u16 = raw
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = raw
            .split_once("\r\n\r\n")
            .map_or(String::new(), |(_, b)| b.to_owned());
        (status, body)
    }

    /// Spawns a daemon on a free port with `tweak` applied to its
    /// config; returns its address, drain token, and join handle.
    fn start_with(
        journal: &Path,
        tweak: impl FnOnce(&mut ServeConfig),
    ) -> (
        SocketAddr,
        CancelToken,
        std::thread::JoinHandle<Result<(), ServeError>>,
    ) {
        let mut config = ServeConfig::new("127.0.0.1:0", journal);
        config.handle_signals = false;
        config.jobs = 2;
        // Sample fast so history assertions never wait on the clock.
        config.sample_interval = Duration::from_millis(25);
        tweak(&mut config);
        let drain = config.drain.clone();
        let bound = Arc::clone(&config.bound_addr);
        let handle = std::thread::spawn(move || serve(config));
        let deadline = Instant::now() + Duration::from_secs(10);
        let addr = loop {
            if let Some(addr) = bound.get() {
                break *addr;
            }
            assert!(Instant::now() < deadline, "daemon never bound");
            std::thread::sleep(Duration::from_millis(10));
        };
        (addr, drain, handle)
    }

    /// Spawns a daemon with the default test config.
    fn start(
        journal: &Path,
    ) -> (
        SocketAddr,
        CancelToken,
        std::thread::JoinHandle<Result<(), ServeError>>,
    ) {
        start_with(journal, |_| {})
    }

    fn wait_for_state(addr: SocketAddr, id: u64, want: &str) {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (status, body) = http(addr, "GET", &format!("/tasks/{id}"), "");
            assert_eq!(status, 200, "status body: {body}");
            if body.contains(&format!("\"state\":\"{want}\"")) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "task {id} never reached {want}: {body}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn daemon_end_to_end_with_restart() {
        p7_obs::metrics::global().set_enabled(true);
        telemetry::register_all();
        let dir = tmpdir("e2e");
        let spec = tiny_spec();
        let expected = SweepEngine::new(2)
            .run(&spec)
            .expect("standalone run")
            .render_table();

        let (addr, drain, handle) = start(&dir);
        let (status, body) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"version\":"), "{body}");
        assert!(body.contains("\"git\":"), "{body}");
        assert!(body.contains("\"uptime_seconds\":"), "{body}");
        assert_eq!(http(addr, "GET", "/nope", "").0, 404);
        assert_eq!(http(addr, "DELETE", "/healthz", "").0, 405);
        assert_eq!(http(addr, "POST", "/tasks", "not json").0, 400);
        assert_eq!(
            http(addr, "POST", "/tasks", "{\"kind\":\"warp\",\"smoke\":true}").0,
            400
        );
        assert_eq!(http(addr, "POST", "/tasks", "{\"kind\":\"sweep\"}").0, 400);

        let submission = format!("{{\"kind\":\"sweep\",\"spec\":{}}}", spec.to_json());
        let (status, body) = http(addr, "POST", "/tasks", &submission);
        assert_eq!(status, 202, "submit body: {body}");
        assert!(body.contains("\"task\":1"), "{body}");
        assert!(body.contains("\"state\":\"enqueued\""), "{body}");

        wait_for_state(addr, 1, "succeeded");
        let (status, result) = http(addr, "GET", "/tasks/1/result", "");
        assert_eq!(status, 200);
        assert_eq!(result, expected, "daemon result must match standalone run");
        // The task's trace covers every stage, accept through render.
        let (status, chrome) = http(addr, "GET", "/tasks/1/trace", "");
        assert_eq!(status, 200, "{chrome}");
        for stage in [
            "task_accept",
            "task_journal",
            "task_batch",
            "task_solve",
            "task_render",
        ] {
            assert!(chrome.contains(stage), "missing {stage}: {chrome}");
        }
        assert!(chrome.contains("\"traceEvents\""), "{chrome}");
        assert!(chrome.contains("\"trace\":\""), "{chrome}");
        assert_eq!(http(addr, "GET", "/tasks/99/trace", "").0, 404);
        assert_eq!(http(addr, "GET", "/tasks/banana/trace", "").0, 400);
        // The flight recorder has been sampling: history is non-empty
        // for the queue-depth gauge and the batch-width histogram.
        let (status, history) = http(
            addr,
            "GET",
            "/metrics/history?family=ags_serve_queue_depth",
            "",
        );
        assert_eq!(status, 200, "{history}");
        assert!(
            history.contains("\"key\":\"ags_serve_queue_depth\""),
            "{history}"
        );
        assert!(history.contains("\"points\":[["), "{history}");
        let (status, history) = http(
            addr,
            "GET",
            "/metrics/history?family=ags_serve_batch_width&window_ms=600000&points=8",
            "",
        );
        assert_eq!(status, 200, "{history}");
        assert!(
            history.contains("\"key\":\"ags_serve_batch_width_count\""),
            "{history}"
        );
        assert_eq!(
            http(addr, "GET", "/metrics/history?window_ms=banana", "").0,
            400
        );
        // Terminal tasks cannot be canceled.
        assert_eq!(http(addr, "POST", "/tasks/1/cancel", "").0, 409);
        let (status, listing) = http(addr, "GET", "/tasks", "");
        assert_eq!(status, 200);
        assert!(listing.contains("\"task\":1"), "{listing}");
        let (status, metrics) = http(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(metrics.contains("ags_serve_queue_depth"), "{metrics}");
        // Value unasserted: other tests in this process may hold the
        // global gauge at 1 while this one runs.
        assert!(metrics.contains("ags_serve_degraded"), "{metrics}");
        assert!(
            metrics.contains("ags_serve_queue_oldest_age_seconds"),
            "{metrics}"
        );
        assert!(
            metrics.contains("ags_serve_http_request_seconds_bucket{route=\"/tasks\""),
            "{metrics}"
        );

        drain.cancel();
        handle.join().expect("serve thread").expect("clean drain");

        // A restarted daemon recovers the journal: task 1's result is
        // still there, byte-identical, and new ids continue after it.
        let (addr, drain, handle) = start(&dir);
        let (status, result) = http(addr, "GET", "/tasks/1/result", "");
        assert_eq!(status, 200);
        assert_eq!(result, expected, "recovered result must be byte-identical");
        let (status, body) = http(addr, "POST", "/tasks", &submission);
        assert_eq!(status, 202);
        assert!(body.contains("\"task\":2"), "{body}");
        wait_for_state(addr, 2, "succeeded");
        let (_, second) = http(addr, "GET", "/tasks/2/result", "");
        assert_eq!(second, expected, "resubmission must reproduce the result");
        drain.cancel();
        handle.join().expect("serve thread").expect("clean drain");
    }

    #[test]
    fn degraded_mode_sheds_writes_and_recovers_in_place() {
        p7_obs::metrics::global().set_enabled(true);
        telemetry::register_all();
        let dir = tmpdir("degraded");
        let faulty = FaultyFs::new(7, vec![]);
        let fs: DynFs = faulty.clone();
        let (addr, drain, handle) = start_with(&dir, |c| c.fs = fs);
        let (status, body) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");

        // Yank the disk: the next journal append fails, the daemon
        // latches degraded mode and sheds the write with a retry hint.
        faulty.set_sticky_write_failures(true);
        let raw = http_raw(
            addr,
            "POST",
            "/tasks",
            "{\"kind\":\"sweep\",\"smoke\":true}",
        );
        assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");
        assert!(raw.contains("\r\nRetry-After: 1\r\n"), "{raw}");
        assert!(raw.contains("journal append failed"), "{raw}");
        // Degraded is latched: healthz reports it with the reason,
        // reads keep working, and writes shed without touching disk.
        let (status, body) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        assert_eq!(http(addr, "GET", "/tasks", "").0, 200);
        let (status, metrics) = http(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        // Value unasserted: other tests share the global gauge.
        assert!(metrics.contains("ags_serve_degraded"), "{metrics}");
        assert_eq!(
            http(
                addr,
                "POST",
                "/tasks",
                "{\"kind\":\"sweep\",\"smoke\":true}"
            )
            .0,
            503
        );

        // Heal the disk: the scheduler's probe clears degraded mode
        // and full service resumes without a restart.
        faulty.set_sticky_write_failures(false);
        let deadline = Instant::now() + Duration::from_secs(10);
        while http(addr, "GET", "/healthz", "").0 != 200 {
            assert!(Instant::now() < deadline, "degraded mode never cleared");
            std::thread::sleep(Duration::from_millis(20));
        }
        let submission = format!("{{\"kind\":\"sweep\",\"spec\":{}}}", tiny_spec().to_json());
        let (status, body) = http(addr, "POST", "/tasks", &submission);
        assert_eq!(status, 202, "{body}");
        assert!(
            body.contains("\"task\":1"),
            "failed submit must not burn an id: {body}"
        );
        wait_for_state(addr, 1, "succeeded");
        drain.cancel();
        handle.join().expect("serve thread").expect("clean drain");
    }

    /// Specs no validator bounded before: a sweep whose run window asks
    /// for 880 GB of telemetry, and a fleet of a billion servers.
    fn oversized_submissions() -> [(TaskKind, String); 2] {
        let mut sweep = tiny_spec();
        sweep.measure_ticks = 10_000_000_000;
        let mut fleet = FleetSpec::smoke();
        fleet.servers = 1_000_000_000;
        [
            (TaskKind::Sweep, sweep.to_json()),
            (TaskKind::Fleet, fleet.to_json()),
        ]
    }

    #[test]
    fn oversized_specs_are_refused_at_submit() {
        for (kind, spec_json) in oversized_submissions() {
            let body = format!("{{\"kind\":\"{}\",\"spec\":{spec_json}}}", kind.label());
            let err = canonicalize_submission(body.as_bytes()).unwrap_err();
            assert!(err.contains("exceeds the"), "{}: {err}", kind.label());
        }
    }

    #[test]
    fn deeply_nested_bodies_are_refused_and_the_daemon_lives() {
        // 20 000 open brackets: a 20 KB body that overflowed the
        // connection thread's stack (aborting the daemon) before the
        // parser bounded its nesting depth.
        let dir = tmpdir("nesting");
        let (addr, drain, handle) = start(&dir);
        let (status, body) = http(addr, "POST", "/tasks", &"[".repeat(20_000));
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("nesting deeper than"), "{body}");
        assert_eq!(http(addr, "GET", "/healthz", "").0, 200);
        drain.cancel();
        handle.join().expect("serve thread").expect("clean drain");
    }

    #[test]
    fn oversized_specs_journaled_earlier_fail_when_claimed() {
        // Tasks acknowledged before submission bounded their specs are
        // still in old journals; claiming one must fail the task with
        // the validation reason instead of aborting the daemon.
        let dir = tmpdir("oversized");
        {
            let (mut queue, _) = TaskStore::open(&dir).expect("open queue");
            for (kind, spec_json) in oversized_submissions() {
                queue.submit(kind, spec_json).expect("journal task");
            }
        }
        let (addr, drain, handle) = start(&dir);
        for id in [1, 2] {
            wait_for_state(addr, id, "failed");
            let (_, body) = http(addr, "GET", &format!("/tasks/{id}"), "");
            assert!(body.contains("exceeds the"), "{body}");
        }
        drain.cancel();
        handle.join().expect("serve thread").expect("clean drain");
    }

    #[test]
    fn watchdog_quarantines_stuck_batches() {
        let dir = tmpdir("watchdog");
        // A zero deadline expires before any engine pass can finish,
        // so every batch is deterministically "stuck" (the engine
        // reports Interrupted whenever the token fired mid-run).
        let (addr, drain, handle) = start_with(&dir, |c| {
            c.batch_deadline = Some(Duration::ZERO);
        });
        let spec = SweepSpec::new(vec!["lu_cb".to_owned()], vec![1, 2])
            .with_modes(vec![GuardbandMode::StaticGuardband])
            .with_seed(42)
            .with_ticks(400, 100);
        let submission = format!("{{\"kind\":\"sweep\",\"spec\":{}}}", spec.to_json());
        let (status, body) = http(addr, "POST", "/tasks", &submission);
        assert_eq!(status, 202, "{body}");
        wait_for_state(addr, 1, "failed");
        let (_, body) = http(addr, "GET", "/tasks/1", "");
        assert!(
            body.contains("stuck: batch exceeded the 0ms deadline"),
            "{body}"
        );
        drain.cancel();
        handle.join().expect("serve thread").expect("clean drain");
    }

    #[test]
    fn retry_backoff_rides_in_the_terminal_update() {
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff_ms: 60_000,
        };
        let failed = vec![FailedPoint {
            index: 0,
            attempts: 1,
            reason: "injected".to_owned(),
        }];
        // Attempts remain: re-enqueued with a journaled future deadline.
        let update = terminal_update(7, 1, String::new(), &failed, None, retry);
        assert_eq!(update.state, TaskState::Enqueued);
        assert!(
            update.retry_at_ms >= now_ms() + 30_000,
            "backoff deadline must be far in the future: {}",
            update.retry_at_ms
        );
        // Budget exhausted: quarantined with no deadline.
        let update = terminal_update(7, 3, String::new(), &failed, None, retry);
        assert_eq!(update.state, TaskState::Failed);
        assert_eq!(update.retry_at_ms, 0);
        // Clean pass: succeeded with no deadline.
        let update = terminal_update(7, 1, "out".to_owned(), &[], None, retry);
        assert_eq!(update.state, TaskState::Succeeded);
        assert_eq!(update.retry_at_ms, 0);
    }

    #[test]
    fn route_labels_normalize_ids_and_queries() {
        assert_eq!(route_label("/healthz"), "/healthz");
        assert_eq!(route_label("/metrics"), "/metrics");
        assert_eq!(route_label("/metrics/history?family=x"), "/metrics/history");
        assert_eq!(route_label("/tasks"), "/tasks");
        assert_eq!(route_label("/tasks/123"), "/tasks/:id");
        assert_eq!(route_label("/tasks/123/result"), "/tasks/:id/result");
        assert_eq!(route_label("/tasks/9/trace"), "/tasks/:id/trace");
        assert_eq!(route_label("/tasks/9/cancel"), "/tasks/:id/cancel");
        assert_eq!(route_label("/nope"), "other");
        assert_eq!(route_label("-"), "other");
    }

    /// A drain with no traffic at all: only the drain waker can unblock
    /// `accept`, so `serve` must still return promptly, for a loopback
    /// bind and for an unspecified one (reached through loopback).
    #[test]
    fn idle_daemon_drains_promptly() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let dir = tmpdir("idle");
            let (_addr, drain, handle) = start_with(&dir, |c| c.addr = bind.to_owned());
            drain.cancel();
            let deadline = Instant::now() + Duration::from_secs(2);
            while !handle.is_finished() {
                assert!(
                    Instant::now() < deadline,
                    "{bind}: serve still running 2 s after the drain"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            handle.join().expect("serve thread").expect("clean drain");
        }
    }

    #[test]
    fn drain_waker_reaches_unspecified_binds_through_loopback() {
        let wake = |bound: &str| wake_addr(bound.parse().expect("address")).to_string();
        assert_eq!(wake("0.0.0.0:7075"), "127.0.0.1:7075");
        assert_eq!(wake("[::]:7075"), "[::1]:7075");
        assert_eq!(wake("10.1.2.3:80"), "10.1.2.3:80");
    }

    /// Sequential requests on fresh connections: none waits for the
    /// listener, so forty take well under the 1 s that a 25 ms accept
    /// poll would add.
    #[test]
    fn back_to_back_requests_do_not_wait_for_accept() {
        let dir = tmpdir("back-to-back");
        let (addr, drain, handle) = start(&dir);
        let started = Instant::now();
        for _ in 0..40 {
            assert_eq!(http(addr, "GET", "/healthz", "").0, 200);
        }
        let elapsed = started.elapsed();
        drain.cancel();
        handle.join().expect("serve thread").expect("clean drain");
        assert!(
            elapsed < Duration::from_millis(400),
            "40 requests took {elapsed:?}"
        );
    }

    #[test]
    fn task_list_matches_the_value_rendering_byte_for_byte() {
        let dir = tmpdir("list");
        let (mut store, _) = TaskStore::open(&dir).expect("open store");
        assert_eq!(render_task_list(store.tasks()), "[]");
        for _ in 0..3 {
            store
                .submit(TaskKind::Sweep, tiny_spec().to_json())
                .expect("submit");
        }
        store
            .transition(&[TaskUpdate {
                id: 2,
                state: TaskState::Failed,
                attempts: 1,
                reason: "quote \" backslash \\ newline \n end".to_owned(),
                output: String::new(),
                retry_at_ms: 0,
            }])
            .expect("transition");
        let expected = Value::Seq(store.tasks().iter().map(task_value).collect()).to_json();
        assert!(expected.contains(r#"quote \" backslash \\ newline \n end"#));
        assert_eq!(render_task_list(store.tasks()), expected);
    }

    /// The on-disk flight-recorder log makes `/metrics/history` span a
    /// restart: frames sampled by the first daemon are served by the
    /// second. (Torn-tail/SIGKILL truncation of the log itself is
    /// exercised in `p7_sim::recorder`; this proves the daemon wiring
    /// recovers whatever the log yields.)
    #[test]
    fn metrics_history_survives_restart_via_recorder_log() {
        p7_obs::metrics::global().set_enabled(true);
        telemetry::register_all();
        let dir = tmpdir("flightrec");

        let (_addr, drain, handle) = start(&dir);
        // Wait until at least one persisted batch is on disk (the log
        // writes every RECORDER_PERSIST_EVERY frames, 25 ms apart).
        let flightrec = dir.join(RECORDER_DIR);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let segments = std::fs::read_dir(&flightrec)
                .map(|entries| {
                    entries
                        .filter_map(Result::ok)
                        .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
                        .count()
                })
                .unwrap_or(0);
            if segments >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "recorder log never persisted");
            std::thread::sleep(Duration::from_millis(20));
        }
        drain.cancel();
        handle.join().expect("serve thread").expect("clean drain");
        let cutoff = now_ms();

        // The restarted daemon preloads the ring from disk: history
        // contains frames sampled *before* the restart.
        let (addr, drain, handle) = start(&dir);
        let (status, history) = http(
            addr,
            "GET",
            "/metrics/history?family=ags_serve_queue_depth&window_ms=600000",
            "",
        );
        assert_eq!(status, 200, "{history}");
        let parsed = Value::parse_json(&history).expect("history JSON");
        let series = parsed.field("series").expect("series").as_seq().unwrap();
        let preloaded = series.iter().any(|s| {
            s.field("points")
                .ok()
                .and_then(|p| p.as_seq().ok())
                .is_some_and(|points| {
                    points.iter().any(|pt| {
                        pt.as_seq()
                            .ok()
                            .and_then(|pair| pair.first().cloned())
                            .is_some_and(|t| t.as_int().is_ok_and(|t| (t as u64) < cutoff))
                    })
                })
        });
        assert!(
            preloaded,
            "no pre-restart frame in recovered history: {history}"
        );
        drain.cancel();
        handle.join().expect("serve thread").expect("clean drain");
    }

    #[test]
    fn cancel_and_error_semantics_via_routes() {
        // Routing semantics without a live scheduler: build the shared
        // state directly so no task ever leaves `enqueued`.
        let dir = tmpdir("routes");
        let (store, recovered) = TaskStore::open(&dir).expect("open store");
        assert_eq!(recovered, 0);
        let shared = Shared {
            queue: Mutex::new(store),
            wake: Condvar::new(),
            drain: CancelToken::new(),
            retry: RetryPolicy::no_retry(),
            jobs: 1,
            deadline: None,
            health: Health {
                scheduler_live: AtomicBool::new(true),
                degraded: Mutex::new(None),
            },
            trace_ns: fnv64(dir.to_string_lossy().as_bytes()),
            recorder: Arc::new(Recorder::new(16)),
            started: Instant::now(),
        };
        let post = |path: &str, body: &str| {
            route(
                &Request {
                    method: "POST".to_owned(),
                    path: path.to_owned(),
                    body: body.as_bytes().to_vec(),
                },
                &shared,
            )
        };
        let get = |path: &str| {
            route(
                &Request {
                    method: "GET".to_owned(),
                    path: path.to_owned(),
                    body: Vec::new(),
                },
                &shared,
            )
        };

        // Healthz is green while "live" and not degraded …
        assert_eq!(get("/healthz").status, 200);
        // … names the journal failure while degraded (writes shed) …
        shared.enter_degraded("journal append failed: disk gone".to_owned());
        let unhealthy = get("/healthz");
        assert_eq!(unhealthy.status, 503);
        let body = String::from_utf8(unhealthy.body).unwrap();
        assert!(body.contains("disk gone"), "{body}");
        assert_eq!(unhealthy.retry_after, Some(1));
        assert_eq!(
            post("/tasks", "{\"kind\":\"sweep\",\"smoke\":true}").status,
            503
        );
        shared.clear_degraded();
        // … and reports a dead scheduler once the liveness flag drops.
        shared.health.scheduler_live.store(false, Ordering::Release);
        let down = get("/healthz");
        assert_eq!(down.status, 503);
        let body = String::from_utf8(down.body).unwrap();
        assert!(body.contains("scheduler"), "{body}");
        shared.health.scheduler_live.store(true, Ordering::Release);

        // Smoke submissions for all three kinds need no spec.
        assert_eq!(
            post("/tasks", "{\"kind\":\"sweep\",\"smoke\":true}").status,
            202
        );
        assert_eq!(
            post("/tasks", "{\"kind\":\"resilience\",\"smoke\":true}").status,
            202
        );
        assert_eq!(
            post("/tasks", "{\"kind\":\"fleet\",\"smoke\":true}").status,
            202
        );
        // A spec that fails validation is refused and never journaled.
        let bogus = SweepSpec::new(vec!["no_such_workload".to_owned()], vec![1]);
        let refused = post(
            "/tasks",
            &format!("{{\"kind\":\"sweep\",\"spec\":{}}}", bogus.to_json()),
        );
        assert_eq!(refused.status, 400);

        // Cancel an enqueued task: 200 and durably canceled.
        assert_eq!(post("/tasks/1/cancel", "").status, 200);
        let body = String::from_utf8(get("/tasks/1").body).unwrap();
        assert!(body.contains("\"state\":\"canceled\""), "{body}");
        // Cancel of a canceled task conflicts; result unavailable.
        assert_eq!(post("/tasks/1/cancel", "").status, 409);
        assert_eq!(get("/tasks/1/result").status, 409);
        // Unknown and malformed ids.
        assert_eq!(get("/tasks/99").status, 404);
        assert_eq!(get("/tasks/banana").status, 400);

        // The journal kept the cancel: reopening shows it terminal.
        drop(shared);
        let (store, recovered) = TaskStore::open(&dir).expect("reopen");
        assert_eq!(recovered, 0, "canceled tasks are not re-enqueued");
        assert_eq!(store.get(1).expect("task 1").state, TaskState::Canceled);
    }
}
