//! The `serve-mixed` workload: a child `ags serve --jobs 1` on a fresh
//! queue journal, driven over its HTTP API by two client threads with
//! one connection each.
//!
//! Three steps: seeded open-loop Poisson arrivals at 10 and then 20
//! tasks/s for 40 % of `--seconds` each (every task timed from the moment
//! it was due, so a stall also counts against the tasks queued behind
//! it), then for the last 20 % a closed loop that keeps 16 tasks
//! outstanding to find the completion rate at saturation. Eight in ten tasks are two-workload, one-core
//! sweeps on a shared seed — warm after their first run and batchable —
//! and two in ten carry a unique seed, so they simulate cold.
//!
//! Thread 1 submits (`POST /tasks`). Thread 2 polls `GET /tasks` back to
//! back, marks the tasks it lists as finished, and scrapes `/metrics`
//! once a second, as `ags top` does. Results are fetched only after the
//! timed steps, over the same two connections, so that fetching them
//! does not hold up the polls that time the tasks. Afterwards the daemon
//! is killed and restarted on the same journal to time recovery, and
//! every served result is compared byte for byte with the in-process
//! render of its spec.

use crate::inproc;
use crate::probe::{self, Rng, Scratch};
use crate::record::Record;
use crate::spans::{self, Kind, SpanStats};
use crate::stats;
use crate::RunConfig;
use p7_sim::{SolveCache, SweepEngine, SweepSpec};
use p7_workloads::Catalog;
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Open-loop arrival rates of the first two steps, tasks per second.
pub const RATES: [f64; 2] = [10.0, 20.0];

/// Share of `--seconds` each step gets: the two open-loop steps, then
/// saturation (whose completion rate settles fastest).
const STEP_SHARES: [f64; 3] = [0.4, 0.4, 0.2];

/// Tasks the closed-loop saturation step keeps outstanding.
const OUTSTANDING: usize = 16;

/// Share of tasks that reuse the shared seed (warm and batchable).
const WARM_SHARE: f64 = 0.8;

/// Core counts the tasks draw from.
const CORES: [usize; 5] = [1, 2, 4, 6, 8];

/// How long to wait for the last tasks after the final step.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Task traces fetched in the traced run (the daemon keeps the newest
/// 256).
const TRACED_TASKS: usize = 150;

/// The stage spans every served task records.
const STAGES: [Kind; 5] = [
    Kind::TaskAccept,
    Kind::TaskJournal,
    Kind::TaskBatch,
    Kind::TaskSolve,
    Kind::TaskRender,
];

/// Seeded Poisson arrival offsets (seconds from the step start) at
/// `rate` per second over `duration` seconds.
#[must_use]
pub fn poisson_schedule(seed: u64, stream: &str, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, stream);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// The seeded task mix: which sweep spec each successive task submits.
pub struct Mix {
    pair: Vec<String>,
    shared_seed: u64,
    rng: Rng,
}

impl Mix {
    /// The mix for `seed`: one workload pair and one shared seed.
    #[must_use]
    pub fn new(seed: u64) -> Mix {
        let mut rng = Rng::new(seed, "serve-mix");
        let names: Vec<String> = Catalog::power7plus()
            .scatter_set()
            .iter()
            .map(|w| w.name().to_owned())
            .collect();
        let first = rng.below(names.len());
        let second = (first + 1 + rng.below(names.len() - 1)) % names.len();
        Mix {
            pair: vec![names[first].clone(), names[second].clone()],
            shared_seed: rng.next_u64(),
            rng,
        }
    }

    /// The next task's spec.
    pub fn next_spec(&mut self) -> SweepSpec {
        let cores = CORES[self.rng.below(CORES.len())];
        let seed = if self.rng.unit() < WARM_SHARE {
            self.shared_seed
        } else {
            self.rng.next_u64()
        };
        SweepSpec::new(self.pair.clone(), vec![cores]).with_seed(seed)
    }
}

/// One HTTP exchange as the client saw it.
struct Reply {
    status: u16,
    body: String,
    rtt_ms: f64,
}

/// One request on a fresh connection (the daemon closes every
/// connection after its response).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let started = Instant::now();
    let fail = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(fail)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(fail)?;
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .map_err(fail)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: ledger\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(fail)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(fail)?;
    let rtt_ms = started.elapsed().as_secs_f64() * 1e3;
    let text = String::from_utf8(raw).map_err(|_| format!("{method} {path}: non-UTF-8 reply"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: reply without a header end"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok(Reply {
        status,
        body: body.to_owned(),
        rtt_ms,
    })
}

/// The task list of a `GET /tasks` body as `(id, state)` pairs.
fn task_states(body: &str) -> Vec<(u64, String)> {
    let Ok(Value::Seq(items)) = Value::parse_json(body) else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|t| {
            let id = u64::try_from(t.field("task").ok()?.as_int().ok()?).ok()?;
            match t.field("state").ok()? {
                Value::Str(s) => Some((id, s.clone())),
                _ => None,
            }
        })
        .collect()
}

/// A running `ags serve` child. Dropping it kills the process and waits
/// for it, so no error path leaves a daemon behind.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Held open for the daemon's lifetime.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns the daemon on `journal` and waits until `/healthz` answers
    /// `200`.
    fn start(ags: &Path, journal: &Path) -> Result<Daemon, String> {
        let daemon = Daemon::spawn(ags, journal)?;
        daemon.wait_healthy()?;
        Ok(daemon)
    }

    /// Spawns the daemon on `journal` and returns once it has printed its
    /// listening handshake: the journal is open, the queue recovered and
    /// the socket bound.
    fn spawn(ags: &Path, journal: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(ags)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--jobs", "1", "--journal"])
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ags.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let addr = reader
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("serve: listening on http://"))
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "ags serve did not report its address (got `{}`)",
                line.trim()
            ));
        };
        Ok(Daemon {
            child,
            addr,
            _stdout: reader,
        })
    }

    fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if matches!(http(self.addr, "GET", "/healthz", ""), Ok(r) if r.status == 200) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("ags serve never became healthy".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One submitted task as the client tracks it.
struct Task {
    spec: usize,
    /// 0 and 1: the open-loop rates; 2: saturation.
    step: usize,
    /// When it was due to be sent (open loop) or was sent (closed loop).
    due: Instant,
    /// How late the generator sent it, ms.
    late_ms: f64,
    id: Option<u64>,
    /// When a poll first listed it as finished.
    done: Option<Instant>,
    /// It finished as `succeeded`.
    succeeded: bool,
    /// The served result, fetched after the timed steps (`None` if the
    /// task never succeeded or the fetch failed).
    body: Option<String>,
}

/// The client threads' shared book.
#[derive(Default)]
struct Book {
    tasks: Vec<Task>,
    by_id: HashMap<u64, usize>,
    outstanding: usize,
    /// The submitter has finished its last step.
    stop: bool,
    /// `(request kind, round-trip ms)` in the order sent.
    rtts: Vec<(&'static str, f64)>,
    /// `(request kind, what went wrong)` for non-2xx replies and
    /// transport errors.
    errors: Vec<(&'static str, String)>,
    polls: u64,
    backlog_max: [usize; 3],
}

struct Shared {
    book: Mutex<Book>,
    changed: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Book> {
        self.book.lock().expect("client book lock")
    }
}

/// Sends one request, recording its round trip under `kind`; `None`
/// (and an error) for a transport failure or an unexpected status.
fn exchange(
    shared: &Shared,
    addr: SocketAddr,
    kind: &'static str,
    (method, path, body): (&str, &str, &str),
    expect: u16,
) -> Option<Reply> {
    let reply = http(addr, method, path, body);
    let mut book = shared.lock();
    match reply {
        Ok(r) => {
            book.rtts.push((kind, r.rtt_ms));
            if r.status == expect {
                return Some(r);
            }
            let why = format!("{method} {path}: status {} ({})", r.status, r.body.trim());
            book.errors.push((kind, why));
        }
        Err(e) => book.errors.push((kind, e)),
    }
    None
}

/// Thread 1's unit of work: send one task and book its id.
fn submit(shared: &Shared, addr: SocketAddr, body: &str, spec: usize, step: usize, due: Instant) {
    let index = {
        let mut book = shared.lock();
        book.tasks.push(Task {
            spec,
            step,
            due,
            late_ms: Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3,
            id: None,
            done: None,
            succeeded: false,
            body: None,
        });
        book.tasks.len() - 1
    };
    let Some(reply) = exchange(shared, addr, "post", ("POST", "/tasks", body), 202) else {
        return;
    };
    let id = Value::parse_json(&reply.body)
        .ok()
        .and_then(|v| v.field("task").ok().and_then(|t| t.as_int().ok()))
        .and_then(|id| u64::try_from(id).ok());
    let mut book = shared.lock();
    match id {
        Some(id) => {
            book.tasks[index].id = Some(id);
            book.by_id.insert(id, index);
            book.outstanding += 1;
            book.backlog_max[step] = book.backlog_max[step].max(book.outstanding);
        }
        None => book.errors.push((
            "post",
            format!("POST /tasks: no task id in `{}`", reply.body),
        )),
    }
}

/// Thread 2: poll the task list, mark the tasks it shows finished,
/// scrape `/metrics` once a second, until the submitter stopped and
/// nothing is outstanding (or the drain times out).
fn poll_loop(shared: &Shared, addr: SocketAddr) {
    let mut last_scrape = Instant::now();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        {
            let book = shared.lock();
            if book.stop {
                let deadline = *drain_deadline.get_or_insert(Instant::now() + DRAIN_TIMEOUT);
                if book.outstanding == 0 || Instant::now() > deadline {
                    return;
                }
            }
        }
        let listed = exchange(shared, addr, "list", ("GET", "/tasks", ""), 200);
        let seen = Instant::now();
        let states = listed.map(|r| task_states(&r.body)).unwrap_or_default();
        let mut book = shared.lock();
        book.polls += 1;
        for (id, state) in states {
            if !matches!(state.as_str(), "succeeded" | "failed" | "canceled") {
                continue;
            }
            let Some(&index) = book.by_id.get(&id) else {
                continue;
            };
            let task = &mut book.tasks[index];
            if task.done.is_none() {
                task.done = Some(seen);
                task.succeeded = state == "succeeded";
                book.outstanding -= 1;
                shared.changed.notify_all();
            }
        }
        drop(book);
        if last_scrape.elapsed() >= Duration::from_secs(1) {
            exchange(shared, addr, "metrics", ("GET", "/metrics", ""), 200);
            last_scrape = Instant::now();
        }
    }
}

/// Fetches the result of every succeeded task, half on each of the two
/// connections.
fn fetch_results(shared: &Shared, addr: SocketAddr) {
    let wanted: Vec<(usize, u64)> = shared
        .lock()
        .tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.succeeded)
        .filter_map(|(index, t)| Some((index, t.id?)))
        .collect();
    std::thread::scope(|scope| {
        for half in wanted.chunks(wanted.len().div_ceil(2).max(1)) {
            scope.spawn(move || {
                for &(index, id) in half {
                    let path = format!("/tasks/{id}/result");
                    if let Some(r) = exchange(shared, addr, "result", ("GET", &path, ""), 200) {
                        shared.lock().tasks[index].body = Some(r.body);
                    }
                }
            });
        }
    });
}

/// Runs the three load steps; returns each step's `(start, end)`.
fn drive(
    shared: &Shared,
    addr: SocketAddr,
    cfg: &RunConfig,
    next_task: &mut dyn FnMut() -> (usize, String),
) -> Vec<(Instant, Instant)> {
    let step_secs = STEP_SHARES.map(|share| Duration::from_secs_f64(cfg.seconds * share));
    let mut windows = Vec::new();
    std::thread::scope(|scope| {
        let poller = scope.spawn(|| poll_loop(shared, addr));
        for (step, &rate) in RATES.iter().enumerate() {
            let schedule = poisson_schedule(
                cfg.seed,
                &format!("arrivals-{step}"),
                rate,
                step_secs[step].as_secs_f64(),
            );
            let start = Instant::now();
            for offset in schedule {
                let due = start + Duration::from_secs_f64(offset);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let (spec, body) = next_task();
                submit(shared, addr, &body, spec, step, due);
            }
            let end = start + step_secs[step];
            if let Some(wait) = end.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            windows.push((start, end.max(Instant::now())));
        }
        let start = Instant::now();
        let end = start + step_secs[2];
        loop {
            {
                let mut book = shared.lock();
                while book.outstanding >= OUTSTANDING && Instant::now() < end {
                    book = shared
                        .changed
                        .wait_timeout(book, Duration::from_millis(50))
                        .expect("client book lock")
                        .0;
                }
            }
            if Instant::now() >= end {
                break;
            }
            let (spec, body) = next_task();
            submit(shared, addr, &body, spec, 2, Instant::now());
        }
        // The measured end, not the scheduled one: the rate's window is
        // what the clock saw.
        windows.push((start, Instant::now()));
        shared.lock().stop = true;
        poller.join().expect("poller thread");
    });
    windows
}

fn scrape(shared: &Shared, addr: SocketAddr) -> BTreeMap<String, f64> {
    exchange(shared, addr, "metrics", ("GET", "/metrics", ""), 200)
        .map(|r| probe::parse_prometheus(&r.body))
        .unwrap_or_default()
}

/// The sum of every series of the family `name` (all label sets).
fn family(scrape: &BTreeMap<String, f64>, name: &str) -> f64 {
    scrape
        .iter()
        .filter(|(k, _)| *k == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
        .map(|(_, v)| v)
        .sum()
}

/// Measures `serve-mixed` against the `ags` binary at `ags`.
///
/// # Errors
///
/// Reports a daemon that cannot be started; failed requests and
/// mismatched results are counted in the record instead.
#[allow(clippy::too_many_lines)]
pub fn measure(ags: &Path, cfg: &RunConfig, ready: &mut dyn FnMut()) -> Result<Record, String> {
    let scratch = Scratch::new("serve")?;
    let journal = scratch.path().join("journal");
    // Set-up ends at the daemon's handshake, not at its first `/healthz`
    // 200: whether that request lands before the accept loop's first
    // 25 ms sleep is a race, which made set-up read 3 or 28 ms.
    let daemon = Daemon::spawn(ags, &journal)?;
    ready();
    if cfg.setup_only {
        return Ok(Record::default());
    }
    daemon.wait_healthy()?;
    let addr = daemon.addr;
    let calib_before = probe::calib_ms();

    let mut mix = Mix::new(cfg.seed);
    let mut specs: Vec<SweepSpec> = Vec::new();
    let mut next_task = || {
        let spec = mix.next_spec();
        let index = specs.iter().position(|s| *s == spec).unwrap_or_else(|| {
            specs.push(spec.clone());
            specs.len() - 1
        });
        (
            index,
            format!("{{\"kind\":\"sweep\",\"spec\":{}}}", spec.to_json()),
        )
    };
    let shared = Shared {
        book: Mutex::new(Book::default()),
        changed: Condvar::new(),
    };
    let before = scrape(&shared, addr);
    let windows = drive(&shared, addr, cfg, &mut next_task);
    // The peak under the load steps, before the burst of result fetches.
    let daemon_rss = probe::peak_rss_mb(&daemon.child.id().to_string())?;
    fetch_results(&shared, addr);
    let after = scrape(&shared, addr);
    let calib_after = probe::calib_ms();
    let book = shared.book.into_inner().expect("client book lock");

    let mut record = Record {
        workload: "serve-mixed".to_owned(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: cfg.trace,
        ..Record::default()
    };

    // Per-layer spans from the daemon's own task traces (traced run).
    let mut stage = SpanStats::default();
    let mut traced_tasks = 0u32;
    let mut missing_stages = 0usize;
    if cfg.trace {
        for id in book
            .tasks
            .iter()
            .rev()
            .filter_map(|t| t.id)
            .take(TRACED_TASKS)
        {
            // Traces are kept for the newest 256 tasks only; an evicted
            // one (404) is skipped, not failed.
            let Ok(r) = http(addr, "GET", &format!("/tasks/{id}/trace"), "") else {
                continue;
            };
            if r.status != 200 {
                continue;
            }
            match spans::from_chrome(&r.body) {
                Ok(events) => {
                    missing_stages += STAGES
                        .iter()
                        .filter(|k| !events.iter().any(|e| e.kind == **k))
                        .count();
                    stage.add(&events);
                    traced_tasks += 1;
                }
                Err(e) => record.fail(format!("task {id} trace: {e}")),
            }
        }
    }

    // Restart on the same journal: time recovery, then check that every
    // acknowledged task is still there, still succeeded, and still
    // serves the same bytes.
    drop(daemon);
    let restarted = Instant::now();
    let recovered = Daemon::start(ags, &journal)?;
    record.put_value(
        "journal.recovery_ms",
        "ms",
        restarted.elapsed().as_secs_f64() * 1e3,
    );
    let acked = book.tasks.iter().filter(|t| t.id.is_some()).count();
    record.attempted += 1;
    match http(recovered.addr, "GET", "/tasks", "") {
        Ok(r) if r.status == 200 => {
            let states = task_states(&r.body);
            let succeeded = states.iter().filter(|(_, s)| s == "succeeded").count();
            if states.len() != acked || succeeded != acked {
                record.fail(format!(
                    "after restart: {} tasks listed, {succeeded} succeeded, {acked} acknowledged",
                    states.len()
                ));
            }
        }
        Ok(r) => record.fail(format!("GET /tasks after restart: status {}", r.status)),
        Err(e) => record.fail(format!("GET /tasks after restart: {e}")),
    }
    if let Some(task) = book.tasks.iter().find(|t| t.body.is_some()) {
        let id = task.id.expect("finished tasks were acknowledged");
        record.attempted += 1;
        match http(recovered.addr, "GET", &format!("/tasks/{id}/result"), "") {
            Ok(r) if r.status == 200 && Some(&r.body) == task.body.as_ref() => {}
            _ => record.fail(format!("task {id}: result changed across the restart")),
        }
    }
    drop(recovered);

    // Correctness: every task acknowledged, finished, and served exactly
    // the in-process render of its spec. Requests that are not part of a
    // task (polls, scrapes) count on their own.
    let engine = SweepEngine::with_cache(1, Arc::new(SolveCache::new()));
    let mut expected: Vec<Option<String>> = vec![None; specs.len()];
    let (mut unfinished, mut mismatched) = (0u64, 0u64);
    for task in &book.tasks {
        record.attempted += 1;
        let Some(body) = &task.body else {
            unfinished += 1;
            continue;
        };
        let want = expected[task.spec].get_or_insert_with(|| match engine.run(&specs[task.spec]) {
            Ok(report) if report.failed_points.is_empty() => report.render_table(),
            Ok(_) => "<quarantined>".to_owned(),
            Err(e) => format!("<error: {e}>"),
        });
        if want != body {
            mismatched += 1;
        }
    }
    record.fail_many(unfinished, "tasks never served a result");
    record.fail_many(
        mismatched,
        "served results differ from the in-process render",
    );
    let aux = |kind: &&str| matches!(*kind, "list" | "metrics");
    record.attempted += book.rtts.iter().filter(|(k, _)| aux(k)).count() as u64;
    for (_, why) in book.errors.iter().filter(|(k, _)| aux(k)) {
        record.fail(why.clone());
    }
    // Task-level errors are already counted through their task.
    record.problems.extend(
        book.errors
            .iter()
            .filter(|(k, _)| !aux(k))
            .take(5)
            .map(|(_, why)| why.clone()),
    );
    // Only the open-loop tasks' specs follow from the seed alone; how many
    // tasks the saturation step sends depends on timing. Their specs are
    // the first ones the mix drew.
    let open_specs = book
        .tasks
        .iter()
        .filter(|t| t.step < 2)
        .map(|t| t.spec + 1)
        .max()
        .unwrap_or(0);
    let served: String = expected[..open_specs]
        .iter()
        .flatten()
        .map(String::as_str)
        .collect();
    record
        .digests
        .push(format!("results:{}", probe::digest(served.as_bytes())));

    // End to end: capacity at saturation, latency over the open-loop
    // steps, the daemon's peak memory.
    let latency = |steps: &[usize]| -> Vec<f64> {
        book.tasks
            .iter()
            .filter(|t| steps.contains(&t.step))
            .filter_map(|t| Some(t.done?.duration_since(t.due).as_secs_f64() * 1e3))
            .collect()
    };
    let open = latency(&[0, 1]);
    let (sat_start, sat_end) = windows[2];
    let completed = book
        .tasks
        .iter()
        .filter(|t| t.done.is_some_and(|d| d >= sat_start && d <= sat_end))
        .count();
    #[allow(clippy::cast_precision_loss)]
    record.put_value(
        "throughput",
        "items/s",
        completed as f64 / (sat_end - sat_start).as_secs_f64(),
    );
    record.put_samples("latency_p50_ms", "ms", &open);
    record.put_percentile("latency_p90_ms", "ms", &open, 90.0);
    record.put_value("peak_rss_mb", "MB", daemon_rss);

    // Per rate: task latency and the generator's own health.
    for (step, rate) in RATES.iter().enumerate() {
        let label = format!("r{rate:.0}");
        let lat = latency(&[step]);
        record.put_percentile(&format!("task_p50_ms.{label}"), "ms", &lat, 50.0);
        record.put_percentile(&format!("task_p90_ms.{label}"), "ms", &lat, 90.0);
        if let Some(tail) = stats::tail_percentile(lat.len()) {
            record.put_percentile(&format!("task_tail_ms.{label}"), "ms", &lat, tail);
        }
        let late: Vec<f64> = book
            .tasks
            .iter()
            .filter(|t| t.step == step)
            .map(|t| t.late_ms)
            .collect();
        record.put_percentile(&format!("gen_late_ms_p90.{label}"), "ms", &late, 90.0);
        #[allow(clippy::cast_precision_loss)]
        record.put_value(
            &format!("backlog_max.{label}"),
            "tasks",
            book.backlog_max[step] as f64,
        );
    }
    #[allow(clippy::cast_precision_loss)]
    record.put_value(
        "backlog_max.saturation",
        "tasks",
        book.backlog_max[2] as f64,
    );

    // HTTP: client round trips against the daemon's handler histogram
    // over the same requests. The first scrape's own handler time is
    // observed after its reply, so it falls inside the delta; the last
    // scrape's does not.
    for kind in ["post", "list", "result", "metrics"] {
        let rtts: Vec<f64> = book
            .rtts
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, ms)| *ms)
            .collect();
        record.put_samples(&format!("http_rtt_ms.{kind}"), "ms", &rtts);
    }
    let d = |series: &str| family(&after, series) - family(&before, series);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    for (name, route) in [("tasks", "/tasks"), ("result", "/tasks/:id/result")] {
        let key = |s: &str| format!("ags_serve_http_request_seconds_{s}{{route=\"{route}\"}}");
        record.put_value(
            &format!("http_handler_ms.{name}"),
            "ms",
            per(
                probe::delta(&before, &after, &key("sum")) * 1e3,
                probe::delta(&before, &after, &key("count")),
            ),
        );
    }
    let mean_handler = per(
        d("ags_serve_http_request_seconds_sum") * 1e3,
        d("ags_serve_http_request_seconds_count"),
    );
    let between = &book.rtts[..book.rtts.len().saturating_sub(1)];
    #[allow(clippy::cast_precision_loss)]
    let mean_rtt = per(
        between.iter().map(|(_, ms)| ms).sum::<f64>(),
        between.len() as f64,
    );
    record.put_value("accept_wait_ms", "ms", mean_rtt - mean_handler);
    record.put_value(
        "accept_wait_pct",
        "%",
        per((mean_rtt - mean_handler) * 100.0, mean_rtt),
    );
    #[allow(clippy::cast_precision_loss)]
    let tasks = book.tasks.len().max(1) as f64;
    #[allow(clippy::cast_precision_loss)]
    record.put_value("polls_per_task", "count", book.polls as f64 / tasks);
    record.put_value(
        "journal.segments_per_task",
        "count",
        d("ags_journal_segments_total") / tasks,
    );
    record.put_value(
        "batch_width_mean",
        "tasks",
        per(
            d("ags_serve_batch_width_sum"),
            d("ags_serve_batch_width_count"),
        ),
    );

    inproc::put_probes(&mut record, cfg, calib_before, calib_after)?;
    if cfg.trace {
        let hits = d("ags_solve_cache_hits_total");
        record.put_value(
            "cache_hit_ratio",
            "ratio",
            per(hits, hits + d("ags_solve_cache_misses_total")),
        );
        record.put_value("ticks_per_op", "count", d("ags_sim_ticks_total") / tasks);
        record.put_value(
            "solve_occupancy_mean",
            "lanes",
            per(
                d("ags_solve_batch_occupancy_sum"),
                d("ags_solve_batch_occupancy_count"),
            ),
        );
        // The daemon's ring is drained after every accept and every
        // scheduler pass; a span it lost shows up as a fetched task
        // missing one of its five stage spans.
        inproc::put_spans(&mut record, &stage, missing_stages as u64);
        let ms_of = |us: Option<f64>| us.unwrap_or(0.0) / 1e3;
        record.put_value(
            "unit_us",
            "us",
            stage.mean_us(Kind::TaskSolve).unwrap_or(0.0),
        );
        record.put_value("render_ms", "ms", ms_of(stage.mean_us(Kind::TaskRender)));
        record.put_value("serve.accept_ms", "ms", ms_of(stage.accept_self_us()));
        record.put_value(
            "serve.journal_ms",
            "ms",
            ms_of(stage.mean_us(Kind::TaskJournal)),
        );
        record.put_value(
            "serve.batch_ms",
            "ms",
            ms_of(stage.mean_us(Kind::TaskBatch)),
        );
        record.put_value(
            "serve.solve_ms",
            "ms",
            ms_of(stage.mean_us(Kind::TaskSolve)),
        );
        record.put_value("serve.traced_tasks", "count", f64::from(traced_tasks));
    }
    drop(scratch);
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seed_deterministic() {
        let a = poisson_schedule(42, "arrivals-0", 25.0, 60.0);
        assert_eq!(a, poisson_schedule(42, "arrivals-0", 25.0, 60.0));
        assert_ne!(a, poisson_schedule(43, "arrivals-0", 25.0, 60.0));
        assert_ne!(a, poisson_schedule(42, "arrivals-1", 25.0, 60.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..60.0).contains(&t)));
        // 1500 arrivals expected; a Poisson count has sd ≈ 39.
        assert!((1350..1650).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn mix_is_seeded_and_mostly_warm() {
        let draw = |seed| {
            let mut mix = Mix::new(seed);
            (0..500).map(|_| mix.next_spec()).collect::<Vec<_>>()
        };
        let a = draw(9);
        assert_eq!(a, draw(9));
        assert_ne!(a, draw(10));
        let shared = Mix::new(9).shared_seed;
        let warm = a.iter().filter(|s| s.seed == shared).count();
        assert!((350..450).contains(&warm), "{warm} warm of 500");
        assert!(a
            .iter()
            .all(|s| s.workloads.len() == 2 && s.cores.len() == 1 && s.len() == 6));
    }

    #[test]
    fn task_lists_parse_ids_and_states() {
        let body = "[{\"task\":1,\"kind\":\"sweep\",\"state\":\"succeeded\"},\
                    {\"task\":2,\"kind\":\"sweep\",\"state\":\"enqueued\"}]";
        assert_eq!(
            task_states(body),
            vec![(1, "succeeded".to_owned()), (2, "enqueued".to_owned())]
        );
        assert!(task_states("not json").is_empty());
    }
}
