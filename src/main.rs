//! `ags` — command-line front end to the POWER7+ adaptive-guardband
//! simulator and the AGS schedulers.
//!
//! ```text
//! ags list
//! ags run --workload raytrace --threads 4 --mode undervolt
//! ags sweep --workload lu_cb --mode overclock
//! ags borrow --workload radix --threads 8
//! ags cluster --workload raytrace --threads 12 --servers 4
//! ```

use ags::cli::{
    flag_checkpoint, flag_jobs, flag_journal_mode, flag_mode, flag_obs, flag_placement, flag_seed,
    flag_usize, parse_flags, required_workload, split_switches, Flags, ObsOptions,
};
use ags::control::GuardbandMode;
use ags::fleet::{FleetEngine, FleetReport, FleetRunOptions, FleetSpec, TrafficModel};
use ags::harness::{install_cancel_on_signals, EXIT_INTERRUPTED};
use ags::scheduling::{ClusterConfig, ClusterScheduler, LoadlineBorrowing};
use ags::serve::{run_top, serve, ServeConfig, TopOptions};
use ags::sim::journal::{read_manifest, render_failed};
use ags::sim::{
    CachedExperiment, DurableOptions, Experiment, FailedPoint, JournalMode, ResilienceSpec,
    SimError, SweepEngine, SweepReport, SweepRunOptions, SweepSpec,
};
use ags::workloads::Catalog;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// A command failure with its exit status.
enum CliError {
    /// Plain failure: message on stderr, exit 1.
    Message(String),
    /// Cancelled cooperatively after flushing the journal; exit
    /// [`EXIT_INTERRUPTED`] so scripts can distinguish "resume me" from
    /// "broken".
    Interrupted {
        /// The resumable journal directory, if the run was journaled.
        journal: Option<String>,
    },
    /// The serve daemon drained gracefully after a signal; exit
    /// [`EXIT_INTERRUPTED`] so supervisors restart it to resume the
    /// queue.
    Drained {
        /// The task-queue journal directory holding the checkpoint.
        journal: String,
    },
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Message(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Message(message.to_owned())
    }
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::Interrupted { journal } => CliError::Interrupted { journal },
            other => CliError::Message(other.to_string()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        print_usage();
        return ExitCode::FAILURE;
    };
    // `sweep` and `resilience` take bare switches; everything else is
    // strict `--flag value` pairs.
    let switch_names: &[&str] = match command {
        "sweep" | "resilience" | "fleet" => &["smoke"],
        "fsck" => &["repair"],
        "top" => &["once"],
        _ => &[],
    };
    let (switches, tail) = split_switches(&args[1..], switch_names);
    let flags = match parse_flags(&tail) {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let smoke = switches.iter().any(|s| s == "smoke");
    let obs = flag_obs(&flags);
    if obs.metrics.is_some() {
        ags::obs::metrics::global().set_enabled(true);
        // Register every family up front: exports list all of them even
        // when a run never exercises some site.
        ags::sim::telemetry::register_all();
        ags::fleet::telemetry::register_all();
    }
    if obs.trace.is_some() {
        ags::obs::trace::enable();
    }
    let result: Result<(), CliError> = {
        // With --trace, every span of the command hangs off one
        // `campaign` root, so the exported tree has a single top-level
        // node (and the span tree stays --jobs invariant: workers
        // inherit the pushed context at spawn).
        let campaign_root = obs.trace.as_ref().map(|_| {
            let span = ags::obs::trace::span("campaign", 0);
            let guard = span.push();
            (span, guard)
        });
        let result = match command {
            "list" => cmd_list().map_err(CliError::from),
            "run" => cmd_run(&flags).map_err(CliError::from),
            "sweep" => cmd_sweep(&flags, smoke),
            "resilience" => cmd_resilience(&flags, smoke),
            "fleet" => cmd_fleet(&flags, smoke),
            "serve" => cmd_serve(&flags),
            "top" => cmd_top(&flags, switches.iter().any(|s| s == "once")),
            "fsck" => cmd_fsck(&flags, switches.iter().any(|s| s == "repair")),
            "borrow" => cmd_borrow(&flags).map_err(CliError::from),
            "cluster" => cmd_cluster(&flags).map_err(CliError::from),
            "help" | "--help" | "-h" => {
                print_usage();
                Ok(())
            }
            other => Err(CliError::Message(format!(
                "unknown command `{other}` (try `ags help`)"
            ))),
        };
        if let Some((span, guard)) = campaign_root {
            drop(guard);
            drop(span);
        }
        result
    };
    // Exporters run even for a failed command: a crashed or unsafe
    // campaign still leaves its telemetry behind for diagnosis.
    let result = match (result, export_observability(&obs)) {
        (Ok(()), Err(message)) => Err(CliError::Message(message)),
        (Err(e), Err(message)) => {
            eprintln!("error: {message}");
            Err(e)
        }
        (result, Ok(())) => result,
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Message(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
        Err(CliError::Interrupted { journal }) => {
            match journal {
                Some(dir) => eprintln!("interrupted; resume with --resume {dir}"),
                None => eprintln!("interrupted (no journal to resume from)"),
            }
            ExitCode::from(EXIT_INTERRUPTED)
        }
        Err(CliError::Drained { journal }) => {
            eprintln!("drained; restart with `ags serve --journal {journal}` to resume the queue");
            ExitCode::from(EXIT_INTERRUPTED)
        }
    }
}

/// Writes the exports requested by `--metrics` / `--trace`: the global
/// registry in Prometheus text format, and the collected spans as Chrome
/// `trace_event` JSON (load in `chrome://tracing` or Perfetto).
fn export_observability(obs: &ObsOptions) -> Result<(), String> {
    if let Some(path) = &obs.metrics {
        let text = ags::obs::metrics::global().render_prometheus();
        std::fs::write(path, text)
            .map_err(|e| format!("cannot write metrics `{}`: {e}", path.display()))?;
    }
    if let Some(path) = &obs.trace {
        let events = ags::obs::trace::collect();
        let json = ags::obs::trace::render_chrome_trace(&events);
        std::fs::write(path, json)
            .map_err(|e| format!("cannot write trace `{}`: {e}", path.display()))?;
    }
    Ok(())
}

fn print_usage() {
    println!(
        "ags — POWER7+ adaptive guardband scheduling simulator

USAGE:
  ags list
      List every calibrated workload and its footprint.
  ags run --workload <name> [--threads N] [--mode M] [--placement P] [--seed S]
      Run one experiment. M: static|overclock|undervolt (default undervolt).
      P: single|consolidated|borrowed (default single). N: 1..8 (default 4).
  ags sweep --workload <name> [--mode M] [--seed S] [--jobs N]
      Sweep 1..8 active cores and print improvement over static guardband.
  ags sweep (--spec <file|fig10> | --smoke) [--jobs N] [--seed S] [--csv FILE]
            [--journal DIR | --resume DIR] [--checkpoint N]
      Run a full sweep grid from a JSON spec (or the built-in fig10 grid)
      on N parallel workers. Results are identical at any worker count;
      throughput/cache stats go to stderr. --journal checkpoints
      completed points into DIR (crash-consistent, resumable); --resume
      continues an interrupted journal — with no --spec the campaign is
      rebuilt from the journal's manifest. SIGINT/SIGTERM flush the
      journal and exit 75 (resumable). --csv also writes the grid as
      CSV; resumed output is byte-identical to an uninterrupted run.
      --smoke runs the shortened built-in CI grid.
  ags resilience [--smoke] [--jobs N] [--seed S]
                 [--journal DIR | --resume DIR] [--checkpoint N]
      Run the fault-injection campaign: every shipped fault scenario
      against the supervised undervolting stack. Reports savings
      retained, margin violations with and without the supervisor, and
      floor compliance; exits non-zero if any cell is unsafe.
      --smoke runs the shortened CI variant. Journal flags behave as in
      `ags sweep` (resume with the same --smoke/--seed flags).
  ags fleet [--smoke] [--servers N] [--epochs N] [--traffic T] [--seed S]
            [--shard-servers N] [--jobs N]
            [--journal DIR | --resume DIR] [--checkpoint N]
      Fleet-scale campaign: simulate N two-socket servers (default 1000)
      through an open-loop traffic shape. T: diurnal|flash-crowd|
      rolling-deploy (default diurnal). Servers are sharded across
      workers and advanced through 16-lane solver batches; stdout is
      byte-identical at any --jobs.
      Cache/throughput stats go to stderr. Journal flags behave as
      in `ags sweep`; a resume rebuilds the campaign from the journal's
      manifest. --smoke runs the shortened CI fleet.
  ags serve --journal DIR [--addr HOST:PORT] [--jobs N] [--max-body BYTES]
            [--max-connections N] [--timeout-ms MS] [--deadline-ms MS]
            [--sample-ms MS]
      Run the campaign daemon: accept sweep/resilience/fleet requests
      over HTTP (default 127.0.0.1:7075), journal every task into DIR
      before acknowledging it, batch compatible sweeps into shared
      engine passes, and retry failed tasks with backoff (deadlines
      journaled, so restarts keep waiting). Endpoints: POST /tasks,
      GET /tasks[/ID[/result]], POST /tasks/ID/cancel, GET /healthz,
      GET /metrics. /healthz is 200 only while the scheduler thread is
      live and the journal writable; when the journal stops accepting
      writes the daemon serves reads in degraded mode (writes shed
      with 503 + Retry-After) and recovers in place once a probe write
      succeeds. --deadline-ms arms a per-batch watchdog: an engine
      pass running longer is canceled and its tasks quarantined as
      stuck (0 = off). SIGINT/SIGTERM drain gracefully — in-flight
      work is checkpointed and the daemon exits 75; restart with the
      same --journal to resume the queue (a second signal forces
      immediate exit). Every task gets a trace at accept: GET
      /tasks/ID/trace returns the accept→journal→batch→solve→render
      span tree as Chrome trace JSON. A flight recorder samples the
      metrics registry every --sample-ms (default 500) into a bounded
      in-memory ring persisted under DIR/flightrec (recovered on
      restart); GET /metrics/history?family=NAME&window_ms=MS&points=N
      serves the recent frames, downsampled.
  ags top [--addr HOST:PORT] [--interval-ms MS] [--once]
      Live terminal dashboard over a running daemon (default
      127.0.0.1:7075): health/build/uptime, queue depth, oldest-task
      age, batch and solve-cache traffic as sparklines from
      /metrics/history, and per-route latency percentiles from the
      request histogram. --once prints a single frame (no escape
      codes) and exits.
  ags fsck --journal DIR [--repair]
      Scrub a campaign or task-queue journal directory: verify the
      manifest, every segment's checksum and shape, entry-index
      uniqueness and segment numbering, and report torn, orphaned or
      stray files. Exits non-zero if damage is found. --repair
      truncates the journal to its last consistent prefix (resumable
      afterwards) and removes temp-file residue.
  ags borrow --workload <name> [--threads N] [--seed S]
      Compare workload consolidation against loadline borrowing.
  ags cluster --workload <name> [--threads N] [--servers S] [--seed S]
      Two-level scheduling: consolidate across servers, borrow within.

OBSERVABILITY (any command):
  --metrics PATH   Enable the metrics registry; write it as Prometheus
                   text format on exit.
  --trace PATH     Enable span tracing; write Chrome trace_event JSON
                   (chrome://tracing, Perfetto) on exit.
      Without these flags the telemetry layer is disabled and costs one
      predicted branch per instrumented site. Exported totals for the
      deterministic families are identical at any --jobs; only the
      *_seconds histograms are wall-clock dependent."
    );
}

fn cmd_list() -> Result<(), String> {
    let catalog = Catalog::power7plus();
    println!(
        "{:<16} {:<13} {:>5} {:>5} {:>7} {:>5} {:>5} {:>6}",
        "workload", "suite", "ceff", "act", "MIPS/c", "mem", "comm", "membw"
    );
    for w in catalog.iter() {
        println!(
            "{:<16} {:<13} {:>5.2} {:>5.2} {:>7.0} {:>5.2} {:>5.2} {:>6.2}",
            w.name(),
            w.suite().to_string(),
            w.ceff_nf(),
            w.activity(),
            w.mips_per_core(),
            w.memory_intensity(),
            w.comm_intensity(),
            w.membw_intensity()
        );
    }
    Ok(())
}

fn cmd_run(flags: &Flags) -> Result<(), String> {
    let catalog = Catalog::power7plus();
    let workload = required_workload(&catalog, flags)?;
    let threads = flag_usize(flags, "threads", 4)?;
    let mode = flag_mode(flags)?;
    let placement = flag_placement(flags)?;
    // Memoized: a repeated `run` in the same process is a cache hit.
    let exp = CachedExperiment::new(Experiment::power7plus(flag_seed(flags)?));
    let assignment = placement
        .assignment(workload, threads)
        .map_err(|e| e.to_string())?;
    let outcome = exp.run(&assignment, mode).map_err(|e| e.to_string())?;
    println!("{} × {threads} threads, {mode}:", workload.name());
    println!("  chip power (socket 0) : {:8.1} W", outcome.chip_power().0);
    println!(
        "  server power          : {:8.1} W",
        outcome.total_power().0
    );
    println!(
        "  clock (running cores) : {:8.0} MHz",
        outcome.summary.avg_running_freq.0
    );
    println!(
        "  undervolt (socket 0)  : {:8.1} mV",
        outcome.summary.socket0().undervolt.millivolts()
    );
    println!("  execution time        : {:8.1} s", outcome.exec_time.0);
    println!("  energy                : {:8.1} J", outcome.energy.0);
    Ok(())
}

fn cmd_sweep(flags: &Flags, smoke: bool) -> Result<(), CliError> {
    let engine = SweepEngine::new(flag_jobs(flags)?);
    let journal_mode = flag_journal_mode(flags)?;
    if smoke || flags.contains_key("spec") || matches!(journal_mode, JournalMode::Resume(_)) {
        let spec = resolve_sweep_spec(flags, smoke, &journal_mode)?;
        let options = SweepRunOptions {
            durable: DurableOptions {
                journal: journal_mode,
                checkpoint_every: flag_checkpoint(flags)?,
                ..DurableOptions::default()
            },
            panic_injector: None,
        };
        install_cancel_on_signals(&options.durable.cancel);
        let report = engine.run_durable(&spec, &options)?;
        print_report(&report);
        print_failed(&report.failed_points, "grid points");
        if let Some(csv_path) = flags.get("csv") {
            write_csv(&report, csv_path)?;
        }
        print_stats(&report);
        return Ok(());
    }
    if journal_mode != JournalMode::Off || flags.contains_key("csv") {
        return Err("--journal/--csv need a grid campaign: pass --spec <file|fig10>".into());
    }

    // Legacy single-workload sweep: 1..8 cores, adaptive mode vs static.
    let catalog = Catalog::power7plus();
    let workload = required_workload(&catalog, flags)?;
    let mode = flag_mode(flags)?;
    let mut modes = vec![GuardbandMode::StaticGuardband];
    if mode != GuardbandMode::StaticGuardband {
        modes.push(mode);
    }
    let spec = SweepSpec::new(vec![workload.name().to_owned()], (1..=8).collect())
        .with_modes(modes)
        .with_seed(flag_seed(flags)?)
        .with_ticks(
            ags::sim::DEFAULT_MEASURE_TICKS,
            ags::sim::DEFAULT_WARMUP_TICKS,
        );
    let report = engine.run(&spec).map_err(|e| e.to_string())?;
    println!("{} under {mode} vs static guardband:", workload.name());
    println!("cores  static W  adaptive W  saving %  adaptive MHz");
    for &threads in &spec.cores {
        let place = ags::sim::Placement::SingleSocket;
        let st = report
            .outcome(
                workload.name(),
                threads,
                place,
                GuardbandMode::StaticGuardband,
            )
            .ok_or("static point missing from grid")?;
        let ad = report
            .outcome(workload.name(), threads, place, mode)
            .ok_or("adaptive point missing from grid")?;
        let saving = (st.chip_power().0 - ad.chip_power().0) / st.chip_power().0 * 100.0;
        println!(
            "{threads:>5}  {:>8.1}  {:>10.1}  {:>8.1}  {:>12.0}",
            st.chip_power().0,
            ad.chip_power().0,
            saving,
            ad.summary.avg_running_freq.0
        );
    }
    print_stats(&report);
    Ok(())
}

/// Resolves the `--spec` argument: the literal `fig10` selects the
/// built-in Fig. 10 grid, anything else is read as a JSON spec file.
fn load_spec(arg: &str) -> Result<SweepSpec, String> {
    if arg == "fig10" {
        return Ok(SweepSpec::fig10_grid());
    }
    let text =
        std::fs::read_to_string(arg).map_err(|e| format!("cannot read sweep spec `{arg}`: {e}"))?;
    SweepSpec::from_json(&text).map_err(|e| e.to_string())
}

/// The sweep campaign being run: the built-in smoke grid under
/// `--smoke`, from `--spec` when given (the journal manifest then
/// cross-checks it), otherwise — on `--resume` — rebuilt from the
/// journal's own manifest so a resume needs no flags beyond the
/// directory. An explicit `--seed` must agree with the manifest.
fn resolve_sweep_spec(
    flags: &Flags,
    smoke: bool,
    journal_mode: &JournalMode,
) -> Result<SweepSpec, CliError> {
    if smoke {
        if flags.contains_key("spec") {
            return Err("--smoke selects the built-in smoke grid; drop --spec".into());
        }
        return Ok(SweepSpec::smoke_grid().with_seed(flag_seed(flags)?));
    }
    if let Some(spec_arg) = flags.get("spec") {
        return Ok(load_spec(spec_arg)?.with_seed(flag_seed(flags)?));
    }
    let JournalMode::Resume(dir) = journal_mode else {
        return Err("missing --spec <file|fig10>".into());
    };
    let manifest = read_manifest(dir)?;
    if manifest.kind != "sweep" {
        return Err(CliError::Message(format!(
            "journal `{}` holds a `{}` campaign, not a sweep; use `ags {}`",
            dir.display(),
            manifest.kind,
            manifest.kind
        )));
    }
    let spec = SweepSpec::from_json(&manifest.spec_json)?;
    if flags.contains_key("seed") && flag_seed(flags)? != spec.seed {
        return Err(CliError::Message(format!(
            "--seed {} does not match the journal's seed {}; drop the flag or pass --spec",
            flag_seed(flags)?,
            spec.seed
        )));
    }
    Ok(spec)
}

/// Prints the quarantine section: points that kept panicking and were
/// isolated instead of aborting the campaign. Silent when empty, so
/// healthy runs keep their exact historical stdout. Rendering lives in
/// `p7_sim::journal` so the serve daemon produces identical bytes.
fn print_failed(failed: &[FailedPoint], what: &str) {
    print!("{}", render_failed(failed, what));
}

/// Writes the grid as CSV. Floats are formatted in Rust's shortest
/// round-trip form (`{:?}`), so an interrupted-then-resumed campaign
/// reproduces the reference file byte for byte.
fn write_csv(report: &SweepReport, path: &str) -> Result<(), CliError> {
    let out = report.render_csv();
    let mut file =
        std::fs::File::create(path).map_err(|e| format!("cannot create csv `{path}`: {e}"))?;
    file.write_all(out.as_bytes())
        .and_then(|()| file.sync_all())
        .map_err(|e| format!("cannot write csv `{path}`: {e}"))?;
    Ok(())
}

/// Prints every grid point of a sweep report, in grid order (stdout is
/// byte-identical at any `--jobs` count). Rendering lives in
/// `p7_sim::sweep` so the serve daemon produces identical bytes.
fn print_report(report: &SweepReport) {
    print!("{}", report.render_table());
}

/// Prints the throughput/cache footer to stderr, keeping stdout
/// reproducible across worker counts and cache temperatures.
fn print_stats(report: &SweepReport) {
    let s = &report.stats;
    eprintln!(
        "[sweep: {} points in {:.2} s with {} jobs — {:.1} points/s, \
         cache {} hits / {} misses / {} evictions]",
        s.points,
        s.elapsed_secs,
        s.jobs,
        s.points_per_sec(),
        s.cache.hits,
        s.cache.misses,
        s.cache.evictions
    );
}

fn cmd_resilience(flags: &Flags, smoke: bool) -> Result<(), CliError> {
    let mut spec = if smoke {
        ResilienceSpec::smoke()
    } else {
        ResilienceSpec::power7plus()
    };
    spec.seed = flag_seed(flags)?;
    let durable = DurableOptions {
        journal: flag_journal_mode(flags)?,
        checkpoint_every: flag_checkpoint(flags)?,
        ..DurableOptions::default()
    };
    install_cancel_on_signals(&durable.cancel);
    let report = spec.run_durable(flag_jobs(flags)?, &durable)?;
    print!("{}", report.table());
    print_failed(&report.failed_cells, "cells");
    let safe = report.all_safe();
    print!("{}", report.summary_line());
    if safe {
        Ok(())
    } else {
        Err(
            "campaign unsafe: a supervised cell violated the margin, breached the floor, \
             or was quarantined"
                .into(),
        )
    }
}

fn cmd_fleet(flags: &Flags, smoke: bool) -> Result<(), CliError> {
    let engine = FleetEngine::new(flag_jobs(flags)?);
    let journal_mode = flag_journal_mode(flags)?;
    let spec = resolve_fleet_spec(flags, smoke, &journal_mode)?;
    let options = FleetRunOptions {
        durable: DurableOptions {
            journal: journal_mode,
            checkpoint_every: flag_checkpoint(flags)?,
            ..DurableOptions::default()
        },
        panic_injector: None,
    };
    install_cancel_on_signals(&options.durable.cancel);
    let report = engine.run_durable(&spec, &options)?;
    print!("{}", report.table());
    print_failed(&report.failed_shards, "shards");
    print_fleet_stats(&report);
    Ok(())
}

/// The fleet campaign being run: the built-in smoke fleet under
/// `--smoke`, flags over the full-scale defaults otherwise — except on
/// `--resume`, where the campaign is rebuilt from the journal's own
/// manifest and conflicting shape flags are refused.
fn resolve_fleet_spec(
    flags: &Flags,
    smoke: bool,
    journal_mode: &JournalMode,
) -> Result<FleetSpec, CliError> {
    if let JournalMode::Resume(dir) = journal_mode {
        for key in ["servers", "epochs", "traffic", "shard-servers"] {
            if flags.contains_key(key) {
                return Err(CliError::Message(format!(
                    "--{key} conflicts with --resume; the campaign is rebuilt from the \
                     journal's manifest"
                )));
            }
        }
        let manifest = read_manifest(dir)?;
        if manifest.kind != "fleet" {
            return Err(CliError::Message(format!(
                "journal `{}` holds a `{}` campaign, not a fleet; use `ags {}`",
                dir.display(),
                manifest.kind,
                manifest.kind
            )));
        }
        let spec = FleetSpec::from_json(&manifest.spec_json)?;
        if flags.contains_key("seed") && flag_seed(flags)? != spec.seed {
            return Err(CliError::Message(format!(
                "--seed {} does not match the journal's seed {}; drop the flag",
                flag_seed(flags)?,
                spec.seed
            )));
        }
        return Ok(spec);
    }
    let mut spec = if smoke {
        FleetSpec::smoke()
    } else {
        FleetSpec::power7plus()
    };
    spec.seed = flag_seed(flags)?;
    spec.servers = flag_usize(flags, "servers", spec.servers)?;
    spec.epochs = flag_usize(flags, "epochs", spec.epochs)?;
    spec.shard_servers = flag_usize(flags, "shard-servers", spec.shard_servers)?;
    if let Some(label) = flags.get("traffic") {
        spec.traffic = TrafficModel::parse(label).ok_or_else(|| {
            CliError::Message(format!(
                "unknown traffic model `{label}` (expected diurnal|flash-crowd|rolling-deploy)"
            ))
        })?;
    }
    Ok(spec)
}

/// Prints the fleet throughput/cache footer to stderr, keeping stdout
/// reproducible across worker counts.
fn print_fleet_stats(report: &FleetReport) {
    let s = &report.stats;
    eprintln!(
        "[fleet: {} shards in {:.2} s with {} jobs — \
         {} active / {} standby server-epochs, \
         cache {} hits / {} misses / {} evictions / {} contended]",
        s.shards,
        s.elapsed_secs,
        s.jobs,
        s.active_server_epochs,
        s.standby_server_epochs,
        s.cache.hits,
        s.cache.misses,
        s.cache.evictions,
        s.cache.contended
    );
}

/// Runs the campaign daemon until it drains. A clean drain maps to
/// [`CliError::Drained`] (exit [`EXIT_INTERRUPTED`]) so supervisors
/// distinguish "restart me to resume the queue" from a hard failure.
fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
    let journal = flags
        .get("journal")
        .ok_or("serve needs --journal DIR (the durable task-queue directory)")?;
    let mut config = ServeConfig::new(
        flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7075".to_owned()),
        journal,
    );
    config.jobs = flag_jobs(flags)?;
    config.limits.max_body = flag_usize(flags, "max-body", config.limits.max_body)?;
    config.limits.max_connections =
        flag_usize(flags, "max-connections", config.limits.max_connections)?;
    let timeout_ms = flag_usize(
        flags,
        "timeout-ms",
        usize::try_from(config.limits.io_timeout.as_millis()).unwrap_or(usize::MAX),
    )?;
    config.limits.io_timeout = Duration::from_millis(timeout_ms as u64);
    let deadline_ms = flag_usize(flags, "deadline-ms", 0)?;
    config.batch_deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms as u64));
    let sample_ms = flag_usize(
        flags,
        "sample-ms",
        usize::try_from(config.sample_interval.as_millis()).unwrap_or(500),
    )?;
    config.sample_interval = Duration::from_millis(sample_ms.max(1) as u64);
    // The daemon always serves /metrics, so the registry is live even
    // without --metrics (which additionally exports a file on exit).
    ags::obs::metrics::global().set_enabled(true);
    ags::sim::telemetry::register_all();
    ags::fleet::telemetry::register_all();
    ags::serve::telemetry::register_all();
    install_cancel_on_signals(&config.drain);
    serve(config).map_err(|e| CliError::Message(e.to_string()))?;
    Err(CliError::Drained {
        journal: journal.clone(),
    })
}

/// `ags top`: the live dashboard client against a running daemon.
fn cmd_top(flags: &Flags, once: bool) -> Result<(), CliError> {
    let mut options = TopOptions::new(flags.get("addr").map_or("127.0.0.1:7075", String::as_str));
    options.once = once;
    let interval_ms = flag_usize(flags, "interval-ms", 1000)?;
    options.interval = Duration::from_millis(interval_ms.max(100) as u64);
    run_top(&options).map_err(CliError::Message)
}

/// `ags fsck`: scrub a journal directory for torn, orphaned or
/// checksum-failed segments; `--repair` truncates to the last
/// consistent prefix and removes temp-file residue.
fn cmd_fsck(flags: &Flags, repair: bool) -> Result<(), CliError> {
    let dir = flags
        .get("journal")
        .ok_or("fsck needs --journal DIR (the journal directory to scrub)")?;
    let dir = std::path::Path::new(dir);
    let fs = ags::sim::std_fs();
    if repair {
        let report =
            ags::sim::fsck::repair(dir, &*fs).map_err(|e| CliError::Message(e.to_string()))?;
        print!("{}", report.render());
        let after =
            ags::sim::fsck::scan(dir, &*fs).map_err(|e| CliError::Message(e.to_string()))?;
        if after.is_clean() {
            Ok(())
        } else {
            Err(CliError::Message(
                "damage remains after repair (unrecoverable manifest?) — see report above"
                    .to_owned(),
            ))
        }
    } else {
        let report =
            ags::sim::fsck::scan(dir, &*fs).map_err(|e| CliError::Message(e.to_string()))?;
        print!("{}", report.render());
        if report.is_clean() {
            Ok(())
        } else {
            Err(CliError::Message(
                "journal needs repair (rerun with --repair to truncate to the last consistent \
                 prefix)"
                    .to_owned(),
            ))
        }
    }
}

fn cmd_borrow(flags: &Flags) -> Result<(), String> {
    let catalog = Catalog::power7plus();
    let workload = required_workload(&catalog, flags)?;
    let threads = flag_usize(flags, "threads", 8)?;
    let lb = LoadlineBorrowing::new(Experiment::power7plus(flag_seed(flags)?));
    let eval = lb.evaluate(workload, threads).map_err(|e| e.to_string())?;
    println!("{} × {threads} threads:", workload.name());
    println!(
        "  consolidated : {:7.1} W, {:7.1} s, {:9.1} J  (undervolt {:.0} mV)",
        eval.consolidated.total_power().0,
        eval.consolidated.exec_time.0,
        eval.consolidated.energy.0,
        eval.consolidated.summary.socket0().undervolt.millivolts()
    );
    println!(
        "  borrowed     : {:7.1} W, {:7.1} s, {:9.1} J  (undervolt {:.0} mV)",
        eval.borrowed.total_power().0,
        eval.borrowed.exec_time.0,
        eval.borrowed.energy.0,
        eval.borrowed.summary.sockets[0].undervolt.millivolts()
    );
    println!(
        "  borrowing    : {:+.1} % power, {:+.1} % time, {:+.1} % energy",
        -eval.power_saving_percent, eval.time_change_percent, eval.energy_improvement_percent
    );
    Ok(())
}

fn cmd_cluster(flags: &Flags) -> Result<(), String> {
    let catalog = Catalog::power7plus();
    let workload = required_workload(&catalog, flags)?;
    let threads = flag_usize(flags, "threads", 12)?;
    let servers = flag_usize(flags, "servers", 4)?;
    let scheduler = ClusterScheduler::new(
        Experiment::power7plus(flag_seed(flags)?).with_ticks(30, 15),
        ClusterConfig::rack(servers),
    )
    .map_err(|e| e.to_string())?;
    let plan = scheduler
        .schedule(workload, threads)
        .map_err(|e| e.to_string())?;
    let naive = scheduler
        .naive_spread(workload, threads)
        .map_err(|e| e.to_string())?;
    println!(
        "{} × {threads} threads on {servers} servers:",
        workload.name()
    );
    for (i, share) in plan.servers.iter().enumerate() {
        println!(
            "  server {i}: {} threads, {} — {:.1} W",
            share.threads,
            if share.threads == 0 {
                "standby"
            } else if share.borrowed {
                "borrowed placement"
            } else {
                "consolidated placement"
            },
            share.total_power().0
        );
    }
    println!(
        "  hierarchical total : {:.1} W ({} active servers)",
        plan.total_power.0, plan.active_servers
    );
    println!(
        "  naive spread total : {:.1} W ({} active servers)",
        naive.total_power.0, naive.active_servers
    );
    Ok(())
}
