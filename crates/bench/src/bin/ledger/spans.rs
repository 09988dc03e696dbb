//! Per-layer numbers from the spans the program already records: the
//! in-process trace ring (`p7_obs::trace`) and the serve daemon's
//! `/tasks/<id>/trace` Chrome-trace JSON. The ledger adds no spans of its
//! own to program code; it only reads these.

use serde::Value;

/// The span names the ledger aggregates. Any other name is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Simulation::tick` (solo) or one member of a group tick.
    Tick,
    /// One lane of a batched steady-state solve.
    Solve,
    SweepPoint,
    FleetShard,
    TaskAccept,
    TaskJournal,
    TaskBatch,
    TaskSolve,
    TaskRender,
}

const KINDS: [(Kind, &str); 9] = [
    (Kind::Tick, "tick"),
    (Kind::Solve, "solve"),
    (Kind::SweepPoint, "sweep_point"),
    (Kind::FleetShard, "fleet_shard"),
    (Kind::TaskAccept, "task_accept"),
    (Kind::TaskJournal, "task_journal"),
    (Kind::TaskBatch, "task_batch"),
    (Kind::TaskSolve, "task_solve"),
    (Kind::TaskRender, "task_render"),
];

impl Kind {
    fn of(name: &str) -> Option<Kind> {
        KINDS.iter().find(|(_, n)| *n == name).map(|(k, _)| *k)
    }

    fn index(self) -> usize {
        KINDS
            .iter()
            .position(|(k, _)| *k == self)
            .expect("every kind is listed")
    }
}

/// One completed span, reduced to what the ledger needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ev {
    pub kind: Kind,
    /// The span's logical key (iteration count for `solve`).
    pub key: u64,
    /// Recording thread, so containment is judged per thread.
    pub tid: u64,
    pub start_us: u64,
    pub dur_us: u64,
}

impl Ev {
    fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// Converts events drained from the in-process trace ring.
#[must_use]
pub fn from_ring(events: &[p7_obs::TraceEvent]) -> Vec<Ev> {
    events
        .iter()
        .filter(|e| !e.instant)
        .filter_map(|e| {
            Some(Ev {
                kind: Kind::of(e.name)?,
                key: e.key,
                tid: u64::from(e.worker),
                start_us: e.start_us,
                dur_us: e.dur_us,
            })
        })
        .collect()
}

/// Parses a Chrome `trace_event` document (`{"traceEvents":[…]}`).
///
/// # Errors
///
/// Reports malformed JSON or a complete event without its fields.
pub fn from_chrome(text: &str) -> Result<Vec<Ev>, String> {
    let root = Value::parse_json(text).map_err(|e| format!("trace JSON: {e}"))?;
    let events = root
        .field("traceEvents")
        .and_then(Value::as_seq)
        .map_err(|e| format!("trace JSON: {e}"))?;
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        let (Ok(Value::Str(name)), Ok(Value::Str(ph))) = (e.field("name"), e.field("ph")) else {
            return Err("trace event without name/ph".to_owned());
        };
        let Some(kind) = Kind::of(name) else { continue };
        if ph != "X" {
            continue;
        }
        let int = |v: Result<&Value, serde::de::Error>| -> Result<u64, String> {
            v.and_then(Value::as_int)
                .map_err(|e| e.to_string())
                .and_then(|i| u64::try_from(i).map_err(|e| e.to_string()))
        };
        out.push(Ev {
            kind,
            key: int(e.field("args").and_then(|a| a.field("key")))?,
            tid: int(e.field("tid"))?,
            start_us: int(e.field("ts"))?,
            dur_us: int(e.field("dur"))?,
        });
    }
    Ok(out)
}

/// Span counts and durations accumulated over many batches of events.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    count: [u64; KINDS.len()],
    dur_us: [u64; KINDS.len()],
    /// Tick time not covered by solve spans inside the tick.
    tick_self_us: u64,
    /// Sum of `solve` keys (the converged iteration count).
    solve_iterations: u64,
    /// Accept time not covered by its journal append.
    accept_self_us: u64,
}

impl SpanStats {
    /// Folds in one batch of events (one trace drain, or one task's
    /// trace).
    pub fn add(&mut self, events: &[Ev]) {
        for e in events {
            let i = e.kind.index();
            self.count[i] += 1;
            self.dur_us[i] += e.dur_us;
            if e.kind == Kind::Solve {
                self.solve_iterations += e.key;
            }
        }
        self.tick_self_us += self_time(events, Kind::Tick, Kind::Solve);
        self.accept_self_us += self_time(events, Kind::TaskAccept, Kind::TaskJournal);
    }

    /// Mean duration of `kind` spans in microseconds (`None` if unseen).
    #[must_use]
    pub fn mean_us(&self, kind: Kind) -> Option<f64> {
        let i = kind.index();
        #[allow(clippy::cast_precision_loss)]
        (self.count[i] > 0).then(|| self.dur_us[i] as f64 / self.count[i] as f64)
    }

    /// Mean tick time outside its solve spans, microseconds.
    #[must_use]
    pub fn tick_self_us(&self) -> Option<f64> {
        self.per(Kind::Tick, self.tick_self_us)
    }

    /// Mean accept time outside its journal append, microseconds.
    #[must_use]
    pub fn accept_self_us(&self) -> Option<f64> {
        self.per(Kind::TaskAccept, self.accept_self_us)
    }

    /// Mean fixed-point iterations per solve lane.
    #[must_use]
    pub fn solve_iterations_mean(&self) -> Option<f64> {
        self.per(Kind::Solve, self.solve_iterations)
    }

    fn per(&self, kind: Kind, total: u64) -> Option<f64> {
        let n = self.count[kind.index()];
        #[allow(clippy::cast_precision_loss)]
        (n > 0).then(|| total as f64 / n as f64)
    }
}

/// Total time of `outer` spans not covered by `inner` spans that start
/// inside them on the same thread. Containment, not parent ids, decides
/// membership: a group tick's solve spans hang off the sweep point, not
/// off the tick spans they run inside.
fn self_time(events: &[Ev], outer: Kind, inner: Kind) -> u64 {
    let mut inners: Vec<&Ev> = events.iter().filter(|e| e.kind == inner).collect();
    inners.sort_by_key(|e| (e.tid, e.start_us));
    events
        .iter()
        .filter(|e| e.kind == outer)
        .map(|o| {
            let first = inners.partition_point(|e| (e.tid, e.start_us) < (o.tid, o.start_us));
            let mut covered = 0;
            let mut reach = o.start_us;
            for e in inners[first..]
                .iter()
                .take_while(|e| e.tid == o.tid && e.start_us < o.end_us())
            {
                let start = e.start_us.max(reach);
                let end = e.end_us().min(o.end_us());
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            o.dur_us - covered.min(o.dur_us)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: Kind, tid: u64, start_us: u64, dur_us: u64, key: u64) -> Ev {
        Ev {
            kind,
            key,
            tid,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn tick_self_time_subtracts_the_union_of_contained_solves() {
        // Two overlapping group members and one solo tick; the group's six
        // solve lanes share one interval, so their union counts once.
        let mut events = vec![
            ev(Kind::Tick, 0, 100, 10, 0),
            ev(Kind::Tick, 0, 101, 9, 0),
            ev(Kind::Tick, 0, 200, 5, 1),
            ev(Kind::Solve, 0, 202, 2, 3),
            ev(Kind::Solve, 1, 200, 5, 4), // other thread: not contained
        ];
        for _ in 0..6 {
            events.push(ev(Kind::Solve, 0, 104, 3, 2));
        }
        let mut stats = SpanStats::default();
        stats.add(&events);
        assert_eq!(stats.mean_us(Kind::Tick), Some(24.0 / 3.0));
        assert_eq!(
            stats.tick_self_us(),
            Some(((10 - 3) + (9 - 3) + (5 - 2)) as f64 / 3.0)
        );
        assert_eq!(
            stats.solve_iterations_mean(),
            Some((6 * 2 + 3 + 4) as f64 / 8.0)
        );
        assert_eq!(stats.mean_us(Kind::FleetShard), None);
    }

    #[test]
    fn chrome_traces_parse_complete_events() {
        let json = "{\"traceEvents\":[\
            {\"name\":\"task_accept\",\"cat\":\"ags\",\"ph\":\"X\",\"ts\":10,\"dur\":50,\"pid\":0,\"tid\":1,\"args\":{\"key\":3,\"span\":9}},\
            {\"name\":\"task_journal\",\"cat\":\"ags\",\"ph\":\"X\",\"ts\":20,\"dur\":30,\"pid\":0,\"tid\":1,\"args\":{\"key\":3,\"span\":10,\"parent\":9}},\
            {\"name\":\"degrade\",\"cat\":\"ags\",\"ph\":\"i\",\"s\":\"t\",\"ts\":11,\"pid\":0,\"tid\":1,\"args\":{\"key\":0}}\
            ],\"displayTimeUnit\":\"ms\"}";
        let events = from_chrome(json).unwrap();
        assert_eq!(events.len(), 2);
        let mut stats = SpanStats::default();
        stats.add(&events);
        assert_eq!(stats.accept_self_us(), Some(20.0));
        assert_eq!(stats.mean_us(Kind::TaskJournal), Some(30.0));
        assert!(from_chrome("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
    }
}
