//! What one workload run produced, its JSON forms, and the metric
//! schema `BENCHMARK.json` fixes.
//!
//! A worker measures more than the result line carries: every metric
//! it can name goes into its [`Record`], and the result line picks the
//! end-to-end or per-layer names `BENCHMARK.json` lists. The remaining
//! metrics (per-rate latencies, per-stage serve times, …) stay in the
//! record that `ledger run` / `ledger trace` append to their log.

use crate::stats::{self, Summary};
use serde::Value;
use std::fmt::Write as _;

/// The benchmark definition at the repository root. Compiled in, so the
/// schema the ledger emits and the schema the file declares cannot drift
/// apart without the tests noticing.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Relative bound on a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The metric schema of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Schema {
    /// Measured seconds per run.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Schema {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics when the file does not have the benchmark schema — a
    /// build-time invariant of this package, pinned by its tests.
    #[must_use]
    pub fn load() -> Schema {
        Schema::parse(BENCHMARK_JSON).expect("BENCHMARK.json has the benchmark schema")
    }

    fn parse(text: &str) -> Result<Schema, String> {
        let root = Value::parse_json(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<Vec<Declared>, String> {
            let items = root
                .field(key)
                .and_then(Value::as_seq)
                .map_err(|e| e.to_string())?;
            items
                .iter()
                .map(|m| {
                    let text = |k: &str| str_field(m, k);
                    Ok(Declared {
                        name: text("name")?,
                        unit: text("unit")?,
                        higher_is_better: text("better")? == "higher",
                        bound: m.field("bound").ok().map(num).transpose()?,
                    })
                })
                .collect()
        };
        let workloads = root
            .field("workloads")
            .and_then(Value::as_seq)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|w| str_field(w, "name"))
            .collect::<Result<_, _>>()?;
        Ok(Schema {
            run_seconds: root
                .field("run_seconds")
                .map_err(|e| e.to_string())
                .and_then(num)?,
            workloads,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// The metrics a run's result line carries: per-layer for the traced
    /// run, end-to-end otherwise.
    #[must_use]
    pub fn declared(&self, trace: bool) -> &[Declared] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up in either list.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&Declared> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}

/// One named measurement of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Operations attempted (runs, tasks, requests).
    pub attempted: u64,
    /// Operations that failed, were quarantined, or produced output that
    /// did not match the in-process reference.
    pub failed: u64,
    /// One line per failed check, for the log.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `label:hex` FNV-64 digests of the simulated results, so two
    /// commits can be checked for identical simulated statistics.
    pub digests: Vec<String>,
}

impl Record {
    /// Records a summary under `name`.
    pub fn put(&mut self, name: &str, unit: &str, summary: Summary) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            summary,
        });
    }

    /// Records the summary of `samples`, or a single zero when there are
    /// none (a layer the workload never entered did zero work).
    pub fn put_samples(&mut self, name: &str, unit: &str, samples: &[f64]) {
        let summary = Summary::of(samples).unwrap_or(Summary {
            value: 0.0,
            q1: 0.0,
            q3: 0.0,
            n: 0,
        });
        self.put(name, unit, summary);
    }

    /// Records one measured value.
    pub fn put_value(&mut self, name: &str, unit: &str, value: f64) {
        self.put(name, unit, Summary::single(value));
    }

    /// Records the `p`-th percentile of `samples` (0 when empty) with
    /// the number of samples behind it.
    pub fn put_percentile(&mut self, name: &str, unit: &str, samples: &[f64], p: f64) {
        let value = stats::percentile(samples, p).unwrap_or(0.0);
        self.put(
            name,
            unit,
            Summary {
                n: samples.len(),
                ..Summary::single(value)
            },
        );
    }

    /// The metric called `name`, if measured.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Counts a failed operation and remembers why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Counts `n` failed operations sharing one reason.
    pub fn fail_many(&mut self, n: u64, why: &str) {
        if n > 0 {
            self.failed += n;
            self.problems.push(format!("{n} {why}"));
        }
    }

    /// Whether every operation succeeded and every output matched.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The full record as one JSON object (one line of a ledger log).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let s = m.summary;
                (
                    m.name.clone(),
                    Value::Map(vec![
                        ("value".to_owned(), Value::Float(s.value)),
                        ("unit".to_owned(), Value::Str(m.unit.clone())),
                        ("q1".to_owned(), Value::Float(s.q1)),
                        ("q3".to_owned(), Value::Float(s.q3)),
                        ("n".to_owned(), Value::Int(s.n as i128)),
                    ]),
                )
            })
            .collect();
        let strings = |v: &[String]| Value::Seq(v.iter().cloned().map(Value::Str).collect());
        Value::Map(vec![
            ("workload".to_owned(), Value::Str(self.workload.clone())),
            ("seed".to_owned(), Value::Int(i128::from(self.seed))),
            ("seconds".to_owned(), Value::Float(self.seconds)),
            ("trace".to_owned(), Value::Bool(self.trace)),
            ("correct".to_owned(), Value::Bool(self.correct())),
            (
                "attempted".to_owned(),
                Value::Int(i128::from(self.attempted)),
            ),
            ("failed".to_owned(), Value::Int(i128::from(self.failed))),
            ("problems".to_owned(), strings(&self.problems)),
            ("digests".to_owned(), strings(&self.digests)),
            ("metrics".to_owned(), Value::Map(metrics)),
        ])
    }

    /// Parses the form [`Record::to_value`] writes.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn from_value(v: &Value) -> Result<Record, String> {
        let int = |k: &str| -> Result<i128, String> {
            v.field(k)
                .and_then(Value::as_int)
                .map_err(|e| format!("{k}: {e}"))
        };
        let strings = |k: &str| -> Result<Vec<String>, String> {
            v.field(k)
                .and_then(Value::as_seq)
                .map_err(|e| format!("{k}: {e}"))?
                .iter()
                .map(|s| match s {
                    Value::Str(s) => Ok(s.clone()),
                    other => Err(format!("{k}: expected strings, found {}", other.kind())),
                })
                .collect()
        };
        let mut metrics = Vec::new();
        for (name, m) in v
            .field("metrics")
            .and_then(Value::as_map)
            .map_err(|e| format!("metrics: {e}"))?
        {
            let f = |k: &str| m.field(k).map_err(|e| e.to_string()).and_then(num);
            metrics.push(Metric {
                name: name.clone(),
                unit: str_field(m, "unit")?,
                summary: Summary {
                    value: f("value")?,
                    q1: f("q1")?,
                    q3: f("q3")?,
                    n: usize::try_from(int_of(m, "n")?).map_err(|e| e.to_string())?,
                },
            });
        }
        Ok(Record {
            workload: str_field(v, "workload")?,
            seed: u64::try_from(int("seed")?).map_err(|e| e.to_string())?,
            seconds: v
                .field("seconds")
                .map_err(|e| e.to_string())
                .and_then(num)?,
            trace: matches!(v.field("trace"), Ok(Value::Bool(true))),
            attempted: u64::try_from(int("attempted")?).map_err(|e| e.to_string())?,
            failed: u64::try_from(int("failed")?).map_err(|e| e.to_string())?,
            problems: strings("problems")?,
            digests: strings("digests")?,
            metrics,
        })
    }

    /// The single-run result line: exactly the metrics of `declared`, in
    /// its order.
    ///
    /// # Errors
    ///
    /// Names a declared metric this record did not measure, or one it
    /// measured in another unit.
    pub fn result_line(&self, declared: &[Declared]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(declared.len());
        for d in declared {
            let m = self.get(&d.name).ok_or_else(|| {
                format!("{}: metric `{}` was not measured", self.workload, d.name)
            })?;
            if m.unit != d.unit {
                return Err(format!(
                    "{}: metric `{}` measured in `{}`, declared in `{}`",
                    self.workload, d.name, m.unit, d.unit
                ));
            }
            metrics.push((
                d.name.clone(),
                Value::Map(vec![
                    ("value".to_owned(), Value::Float(m.summary.value)),
                    ("unit".to_owned(), Value::Str(m.unit.clone())),
                ]),
            ));
        }
        Ok(Value::Map(vec![
            ("correct".to_owned(), Value::Bool(self.correct())),
            (
                "attempted".to_owned(),
                Value::Int(i128::from(self.attempted)),
            ),
            ("failed".to_owned(), Value::Int(i128::from(self.failed))),
            ("metrics".to_owned(), Value::Map(metrics)),
        ])
        .to_json())
    }

    /// A fixed-width table of the metrics named in `names` (all metrics
    /// when `names` is empty): name, unit, median, quartiles, samples.
    #[must_use]
    pub fn table(&self, names: &[&str]) -> String {
        let mut out = format!(
            "{:<34} {:>8} {:>14} {:>14} {:>14} {:>7}\n",
            self.workload, "unit", "median", "q1", "q3", "n"
        );
        for m in self
            .metrics
            .iter()
            .filter(|m| names.is_empty() || names.contains(&m.name.as_str()))
        {
            let s = m.summary;
            let _ = writeln!(
                out,
                "  {:<32} {:>8} {:>14} {:>14} {:>14} {:>7}",
                m.name,
                m.unit,
                fmt_num(s.value),
                fmt_num(s.q1),
                fmt_num(s.q3),
                s.n
            );
        }
        out
    }
}

/// Four significant-ish digits without scientific notation for the
/// values this ledger sees (nanoseconds to megabytes).
#[must_use]
pub fn fmt_num(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 || a >= 1000.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

fn num(v: &Value) -> Result<f64, String> {
    v.as_float().map_err(|e| e.to_string())
}

fn int_of(v: &Value, k: &str) -> Result<i128, String> {
    v.field(k)
        .and_then(Value::as_int)
        .map_err(|e| format!("{k}: {e}"))
}

fn str_field(v: &Value, k: &str) -> Result<String, String> {
    match v.field(k) {
        Ok(Value::Str(s)) => Ok(s.clone()),
        Ok(other) => Err(format!("{k}: expected a string, found {}", other.kind())),
        Err(e) => Err(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_lists_are_well_formed() {
        let schema = Schema::load();
        assert!(!schema.end_to_end.is_empty() && !schema.per_layer.is_empty());
        let setup = schema.find("setup_s").expect("setup_s is declared");
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        for d in &schema.end_to_end {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(schema.per_layer.iter().all(|d| d.bound.is_none()));
        let names: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(schema.workloads, names);
    }

    #[test]
    fn records_round_trip_through_json() {
        let mut r = Record {
            workload: "sweep-cold".to_owned(),
            seed: 7,
            seconds: 1.5,
            trace: true,
            attempted: 3,
            digests: vec!["run:00ff".to_owned()],
            ..Record::default()
        };
        r.put_samples("latency_p50_ms", "ms", &[1.0, 2.0, 3.0]);
        r.put_value("peak_rss_mb", "MB", 12.25);
        r.fail("mismatch".to_owned());
        let back = Record::from_value(&Value::parse_json(&r.to_value().to_json()).unwrap());
        assert_eq!(back.unwrap(), r);
    }

    #[test]
    fn result_line_names_exactly_the_declared_metrics() {
        let mut r = Record {
            workload: "w".to_owned(),
            attempted: 2,
            ..Record::default()
        };
        r.put_value("a", "ms", 1.25);
        r.put_value("b", "s", 2.0);
        r.put_value("extra", "count", 9.0);
        let declared = |name: &str, unit: &str| Declared {
            name: name.to_owned(),
            unit: unit.to_owned(),
            higher_is_better: false,
            bound: Some(0.1),
        };
        let line = r
            .result_line(&[declared("b", "s"), declared("a", "ms")])
            .unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":2,\"failed\":0,\"metrics\":\
             {\"b\":{\"value\":2.0,\"unit\":\"s\"},\"a\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        assert!(r.result_line(&[declared("missing", "ms")]).is_err());
        assert!(r.result_line(&[declared("a", "s")]).is_err());
    }
}
