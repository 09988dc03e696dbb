//! `ledger`: the benchmark runner of the ags workspace.
//!
//! ```text
//! ledger --workload W --seed N --seconds T --trace 0|1   one run, JSON result last
//! ledger run   [--seed N] [--seconds T] [--workload W]… [--out FILE]
//! ledger trace [--seed N] [--seconds T] [--workload W]… [--out FILE]
//! ledger compare A.jsonl B.jsonl
//! ```
//!
//! Every workload runs in its own re-executed child process (`ledger
//! worker …`), so process-global state — the shared solve cache, the
//! metrics and tracing switches, the trace ring — never leaks from one
//! workload into the next. The parent times each child from spawn to its
//! `ready` line: that is the set-up time, sampled [`SETUP_SAMPLES`] times
//! per untraced run by extra set-up-only children.
//!
//! `serve-mixed` drives the `ags` binary that sits next to the ledger's
//! own executable and stops with an error when it is missing.
//!
//! See `README.md` next to this file for the workloads, the metrics and
//! how to compare two commits.

mod compare;
mod inproc;
mod probe;
mod record;
mod serve;
mod spans;
mod stats;

use record::{Record, Schema};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Set-up time samples per untraced run (the reported `setup_s` is
/// their median).
const SETUP_SAMPLES: usize = 7;

/// The default `--seed`.
const DEFAULT_SEED: u64 = 42;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepCold,
    SweepWarm,
    FleetDiurnal,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SweepCold,
        Workload::SweepWarm,
        Workload::FleetDiurnal,
        Workload::ServeMixed,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep-cold",
            Workload::SweepWarm => "sweep-warm",
            Workload::FleetDiurnal => "fleet-diurnal",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }
}

/// How one workload run is measured.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Measured seconds (the serve workload splits them over its three
    /// load steps).
    pub seconds: f64,
    /// Record spans and counters for the per-layer metrics.
    pub trace: bool,
    /// Shrunken inputs for tests.
    pub smoke: bool,
    /// Stop right after set-up (a set-up time sample).
    pub setup_only: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` pairs plus bare switches.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], switch_names: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            if switch_names.contains(&name) {
                flags.switches.push(name.to_owned());
            } else {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.pairs.push((name.to_owned(), value.clone()));
            }
        }
        Ok(flags)
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.all(name).last().copied()
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn config(&self, schema: &Schema, trace: Option<bool>) -> Result<RunConfig, String> {
        let seed = match self.get("seed") {
            Some(s) => s.parse().map_err(|_| format!("bad --seed `{s}`"))?,
            None => DEFAULT_SEED,
        };
        let seconds = match self.get("seconds") {
            Some(s) => s
                .parse::<f64>()
                .ok()
                .filter(|v| *v > 0.0 && v.is_finite())
                .ok_or_else(|| format!("bad --seconds `{s}`"))?,
            None => schema.run_seconds,
        };
        let trace = match (trace, self.get("trace")) {
            (Some(t), _) => t,
            (None, None | Some("0")) => false,
            (None, Some("1")) => true,
            (None, Some(other)) => return Err(format!("bad --trace `{other}` (0 or 1)")),
        };
        Ok(RunConfig {
            seed,
            seconds,
            trace,
            smoke: self.switch("smoke"),
            setup_only: self.switch("setup-only"),
        })
    }
}

fn cli(args: &[String]) -> Result<ExitCode, String> {
    let schema = Schema::load();
    match args.first().map(String::as_str) {
        Some("run" | "trace") => {
            let trace = args[0] == "trace";
            let flags = Flags::parse(&args[1..], &["smoke"])?;
            let cfg = flags.config(&schema, Some(trace))?;
            let names = match flags.all("workload") {
                names if names.is_empty() => schema.workloads.iter().map(String::as_str).collect(),
                names => names,
            };
            let workloads = names
                .into_iter()
                .map(Workload::parse)
                .collect::<Result<Vec<_>, _>>()?;
            let out = flags.get("out").map_or_else(
                || PathBuf::from(".ledger").join(format!("{}.jsonl", args[0])),
                PathBuf::from,
            );
            run_all(&schema, &workloads, &cfg, &out)
        }
        Some("compare") => match &args[1..] {
            [a, b] => {
                let (a, b) = (
                    compare::read_log(Path::new(a))?,
                    compare::read_log(Path::new(b))?,
                );
                print!("{}", compare::report(&schema, &a, &b));
                Ok(ExitCode::SUCCESS)
            }
            _ => Err("usage: ledger compare A.jsonl B.jsonl".to_owned()),
        },
        Some("worker") => {
            let flags = Flags::parse(&args[1..], &["smoke", "setup-only"])?;
            let workload = Workload::parse(flags.get("workload").ok_or("--workload is required")?)?;
            let cfg = flags.config(&schema, None)?;
            let ags = flags.get("ags").map(PathBuf::from);
            worker(workload, &cfg, ags.as_deref())?;
            Ok(ExitCode::SUCCESS)
        }
        Some("help" | "--help" | "-h") | None => {
            println!(
                "usage: ledger --workload W --seed N --seconds T --trace 0|1\n       \
                 ledger run|trace [--seed N] [--seconds T] [--workload W]... [--out FILE] [--smoke]\n       \
                 ledger compare A.jsonl B.jsonl\nworkloads: {}",
                Workload::ALL.map(Workload::name).join(", ")
            );
            Ok(ExitCode::SUCCESS)
        }
        Some(_) => {
            let flags = Flags::parse(args, &["smoke"])?;
            let workload = Workload::parse(flags.get("workload").ok_or("--workload is required")?)?;
            let cfg = flags.config(&schema, None)?;
            let record = measure(workload, &cfg)?;
            let declared = schema.declared(cfg.trace);
            let line = record.result_line(declared)?;
            let names: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
            print!("{}", record.table(&names));
            for problem in &record.problems {
                eprintln!("ledger: {}: {problem}", record.workload);
            }
            println!("{line}");
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// `ledger run` / `ledger trace`: every workload once, printed and
/// appended to the log at `out`.
fn run_all(
    schema: &Schema,
    workloads: &[Workload],
    cfg: &RunConfig,
    out: &Path,
) -> Result<ExitCode, String> {
    let declared = schema.declared(cfg.trace);
    let names: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    let mut all_correct = true;
    for &workload in workloads {
        let record = measure(workload, cfg)?;
        record.result_line(declared)?;
        println!("{}", record.table(&names));
        let detail: Vec<&str> = record
            .metrics
            .iter()
            .map(|m| m.name.as_str())
            .filter(|n| schema.find(n).is_none())
            .collect();
        if !detail.is_empty() {
            println!("{}", record.table(&detail));
        }
        #[allow(clippy::cast_precision_loss)]
        let error_rate = record.failed as f64 / record.attempted.max(1) as f64;
        println!(
            "  correct: {}  attempted: {}  failed: {}  error_rate: {error_rate}  digests: {}\n",
            record.correct(),
            record.attempted,
            record.failed,
            record.digests.join(" ")
        );
        for problem in &record.problems {
            eprintln!("ledger: {}: {problem}", record.workload);
        }
        all_correct &= record.correct();
        writeln!(log, "{}", record.to_value().to_json())
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!(
        "appended {} record(s) to {}",
        workloads.len(),
        out.display()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Measures one workload: set-up samples from set-up-only children (in
/// the untraced run), then the measuring child.
fn measure(workload: Workload, cfg: &RunConfig) -> Result<Record, String> {
    let ags = if workload == Workload::ServeMixed {
        Some(ags_binary()?)
    } else {
        None
    };
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    if !cfg.trace {
        for _ in 1..SETUP_SAMPLES {
            let setup_cfg = RunConfig {
                setup_only: true,
                ..cfg.clone()
            };
            setup.push(spawn_worker(workload, &setup_cfg, ags.as_deref())?.0);
        }
    }
    let (ready_s, record) = spawn_worker(workload, cfg, ags.as_deref())?;
    let mut record = record.ok_or("the worker printed no record")?;
    if !cfg.trace {
        setup.push(ready_s);
        record.put_samples("setup_s", "s", &setup);
    }
    Ok(record)
}

/// Runs `ledger worker …` and returns its spawn-to-ready time in seconds
/// and the record it printed.
fn spawn_worker(
    workload: Workload,
    cfg: &RunConfig,
    ags: Option<&Path>,
) -> Result<(f64, Option<Record>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the ledger: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["worker", "--workload", workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(ags) = ags {
        command.arg("--ags").arg(ags);
    }
    for (on, switch) in [(cfg.smoke, "--smoke"), (cfg.setup_only, "--setup-only")] {
        if on {
            command.arg(switch);
        }
    }
    let started = Instant::now();
    let mut child = command
        .spawn()
        .map_err(|e| format!("cannot start a worker: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut ready = None;
    let mut record = None;
    let mut problem = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("worker output: {e}"))?;
        if line == "ready" {
            ready.get_or_insert(started.elapsed().as_secs_f64());
        } else if let Some(json) = line.strip_prefix("record ") {
            match Value::parse_json(json)
                .map_err(|e| e.to_string())
                .and_then(|v| Record::from_value(&v))
            {
                Ok(r) => record = Some(r),
                Err(e) => problem = Some(format!("unreadable worker record: {e}")),
            }
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the worker: {e}"))?;
    if !status.success() {
        return Err(format!("{} worker failed ({status})", workload.name()));
    }
    if let Some(problem) = problem {
        return Err(problem);
    }
    let ready = ready.ok_or_else(|| format!("{} worker never became ready", workload.name()))?;
    Ok((ready, record))
}

/// The worker side: set up, say `ready`, measure, print the record.
fn worker(workload: Workload, cfg: &RunConfig, ags: Option<&Path>) -> Result<(), String> {
    let mut ready = || {
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(stdout, "ready");
        let _ = stdout.flush();
    };
    let record = match workload {
        Workload::ServeMixed => {
            let ags = ags.ok_or("serve-mixed needs --ags PATH")?;
            serve::measure(ags, cfg, &mut ready)?
        }
        _ => inproc::measure(workload, cfg, &mut ready)?,
    };
    if !cfg.setup_only {
        println!("record {}", record.to_value().to_json());
    }
    Ok(())
}

/// The `ags` binary the serve workload drives: the one next to this
/// executable, which is where `cargo build --release -p ags -p ags-bench`
/// (or `bench.sh`) puts both.
fn ags_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the ledger: {e}"))?;
    let binary = exe.with_file_name("ags");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!(
            "serve-mixed needs the ags binary at {}; build it with \
             `cargo build --release -p ags -p ags-bench`",
            binary.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test, not one per workload: the in-process workloads share the
    /// process-global tracer and metrics registry, and the test harness
    /// runs tests on parallel threads.
    #[test]
    fn smoke_runs_name_exactly_the_benchmark_metrics() {
        let schema = Schema::load();
        for trace in [false, true] {
            let declared = schema.declared(trace);
            let want: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
            for workload in [
                Workload::SweepCold,
                Workload::SweepWarm,
                Workload::FleetDiurnal,
            ] {
                let cfg = RunConfig {
                    seed: 7,
                    seconds: 0.05,
                    trace,
                    smoke: true,
                    setup_only: false,
                };
                let started = Instant::now();
                let mut setup = None;
                let mut mark = || {
                    setup.get_or_insert(started.elapsed().as_secs_f64());
                };
                let mut record = inproc::measure(workload, &cfg, &mut mark).unwrap();
                if !trace {
                    record.put_value("setup_s", "s", setup.expect("ready was signalled"));
                }
                let what = format!("{} trace={trace}", workload.name());
                assert!(record.correct(), "{what}: {:?}", record.problems);
                let line = record.result_line(declared).unwrap();
                let parsed = Value::parse_json(&line).unwrap();
                let metrics = parsed.field("metrics").unwrap().as_map().unwrap();
                let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(names, want, "{what}");
                for (name, m) in metrics {
                    let value = m.field("value").unwrap().as_float().unwrap();
                    assert!(value.is_finite(), "{what}: {name} = {value}");
                }
                if trace {
                    let value = |name: &str| record.get(name).unwrap().summary.value;
                    assert_eq!(value("spans_dropped"), 0.0, "{what}");
                    assert!(value("tick_us") > 0.0, "{what}");
                    if workload == Workload::SweepWarm {
                        assert_eq!(value("cache_hit_ratio"), 1.0, "{what}");
                        assert_eq!(value("ticks_per_op"), 0.0, "{what}");
                    }
                } else {
                    assert!(record.get("throughput").unwrap().summary.value > 0.0);
                }
            }
        }
    }

    #[test]
    fn flags_parse_a_single_run_invocation() {
        let schema = Schema::load();
        let args: Vec<String> = [
            "--workload",
            "sweep-cold",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .map(String::from)
        .to_vec();
        let flags = Flags::parse(&args, &["smoke"]).unwrap();
        let cfg = flags.config(&schema, None).unwrap();
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (9, 3.0, true));
        assert_eq!(
            Workload::parse(flags.get("workload").unwrap()),
            Ok(Workload::SweepCold)
        );
        let bad = ["--trace", "2"].map(String::from).to_vec();
        assert!(Flags::parse(&bad, &[])
            .unwrap()
            .config(&schema, None)
            .is_err());
        assert!(Flags::parse(&["--seed".to_owned()], &[]).is_err());
        assert!(Workload::parse("nope").is_err());
    }
}
