//! The campaign executor: the workspace's one worker loop.
//!
//! Sweeps, resilience campaigns, fleet campaigns and the `study_*`
//! binaries all do the same thing — run `work(idx)` for every index of
//! `0..n` and merge the results by index — and all of them do it here:
//!
//! ```text
//!   claim ───────────► attempt ──────────────► sink ─────────► checkpoint
//!   whole units from   catch_unwind, retry     caller's FnMut   (durable layer:
//!   one atomic cursor  with backoff, rebuild   on the calling   journal::
//!                      scratch, quarantine     thread           run_durable_indexed)
//! ```
//!
//! * **Claim.** A *unit* is a run of consecutive indices claimed together:
//!   the sweep hands out every guardband mode of one assignment block, so
//!   the worker that builds the block's simulation also solves its other
//!   modes; everything else claims one index at a time. Workers take whole
//!   units from one shared atomic cursor, which balances load by itself.
//! * **Attempt.** Each index runs inside one span and one `catch_unwind`
//!   loop with the caller's per-worker scratch. A panic rebuilds the
//!   scratch, backs off and retries; once the [`RetryPolicy`] budget is
//!   spent the index is quarantined as a [`FailedPoint`].
//! * **Sink.** Results go to a caller closure on the calling thread, in
//!   completion order; merging by index is the caller's job, so the loop
//!   needs nothing of a result but `Send`.
//!
//! At one worker everything runs inline on the calling thread: no thread,
//! no channel. Which worker ran an index never changes its value, so every
//! client is byte-identical at any worker count.

use crate::journal::{CancelToken, DurableOptions, FailedPoint, RetryPolicy};
use crate::telemetry;
use p7_obs::metrics::Counter;
use p7_obs::trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// How a campaign's indices are spread over workers and labelled: the
/// worker count, the claim unit, the span and counter every index
/// records, and — for durable runs — the retry budget and cancel token.
#[derive(Debug, Clone, Copy)]
pub struct Schedule<'a> {
    jobs: usize,
    unit: usize,
    span: &'static str,
    claimed: &'static Counter,
    retry: RetryPolicy,
    cancel: Option<&'a CancelToken>,
}

impl<'a> Schedule<'a> {
    /// `jobs` workers (0 = available parallelism) claiming `unit`
    /// consecutive indices at a time (0 is treated as 1). Every index runs
    /// inside a `span` trace span and bumps `claimed`. One attempt per
    /// index and no cancellation; the durable layer
    /// ([`crate::journal::run_durable_indexed`]) adds both from its
    /// options.
    #[must_use]
    pub fn new(jobs: usize, unit: usize, span: &'static str, claimed: &'static Counter) -> Self {
        Schedule {
            jobs,
            unit: unit.max(1),
            span,
            claimed,
            retry: RetryPolicy::no_retry(),
            cancel: None,
        }
    }

    /// This schedule under a durable run's retry policy and cancel token.
    #[must_use]
    pub(crate) fn durable(self, opts: &'a DurableOptions) -> Self {
        Schedule {
            retry: opts.retry,
            cancel: Some(&opts.cancel),
            ..self
        }
    }

    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }
}

/// Resolves a `--jobs` value: 0 means available parallelism.
#[must_use]
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        return jobs;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `work` over every index of `0..n` that `skip` does not select,
/// passing each index's verdict to `sink`: `Ok` with what `work` returned,
/// or `Err` once the index panicked through its whole retry budget.
///
/// Each worker owns one scratch value built by `init`, rebuilt after every
/// caught panic. Indices are claimed a [`Schedule`] unit at a time, so all
/// indices of one unit run on one worker, in order. Cancellation is
/// checked before every index; a cancelled run returns once the indices in
/// hand are finished, leaving the rest unrun.
pub(crate) fn run<S, R, I, F, K>(
    schedule: &Schedule<'_>,
    n: usize,
    skip: &(dyn Fn(usize) -> bool + Sync),
    init: I,
    work: F,
    mut sink: K,
) where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
    K: FnMut(usize, Result<R, FailedPoint>),
{
    let jobs = resolve_jobs(schedule.jobs).min(n.max(1));
    if jobs <= 1 {
        let mut scratch = init();
        for idx in 0..n {
            if schedule.cancelled() {
                return;
            }
            if !skip(idx) {
                sink(idx, attempt(schedule, &init, &work, &mut scratch, idx));
            }
        }
        return;
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    // Workers inherit the caller's trace context (the campaign root) so
    // span trees parent identically at any worker count.
    let ctx = trace::current_context();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let (init, work, next) = (&init, &work, &next);
            scope.spawn(move || {
                let _ctx = trace::push_context(ctx);
                let mut scratch = init();
                let mut ready_at = Instant::now();
                'claim: while !schedule.cancelled() {
                    let start = next.fetch_add(schedule.unit, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    telemetry::sweep_chunk_wait().observe(ready_at.elapsed().as_secs_f64());
                    for idx in start..(start + schedule.unit).min(n) {
                        if schedule.cancelled() {
                            break 'claim;
                        }
                        if skip(idx) {
                            continue;
                        }
                        let verdict = attempt(schedule, init, work, &mut scratch, idx);
                        if tx.send((idx, verdict)).is_err() {
                            break 'claim;
                        }
                    }
                    ready_at = Instant::now();
                }
                // Scoped joins may return before TLS destructors run;
                // flush the span ring here or the caller's collect can
                // miss this worker's events.
                trace::flush();
            });
        }
        drop(tx);
        // Drained while workers run, so a durable sink checkpoints as
        // indices complete, not at the end.
        for (idx, verdict) in rx {
            sink(idx, verdict);
        }
    });
}

/// One index's isolated attempt loop: a span around `catch_unwind(work)`,
/// bounded backoff retries with the scratch rebuilt after each caught
/// panic (the unwound attempt may have left it mid-use), quarantine after
/// the last one.
fn attempt<S, R, I, F>(
    schedule: &Schedule<'_>,
    init: &I,
    work: &F,
    scratch: &mut S,
    idx: usize,
) -> Result<R, FailedPoint>
where
    I: Fn() -> S,
    F: Fn(&mut S, usize) -> R,
{
    schedule.claimed.inc();
    let span = trace::span(schedule.span, idx as u64);
    let _ctx = span.push();
    let attempts = schedule.retry.max_attempts.max(1);
    let mut reason = String::new();
    for attempt in 1..=attempts {
        match catch_unwind(AssertUnwindSafe(|| work(scratch, idx))) {
            Ok(value) => return Ok(value),
            Err(payload) => {
                reason = panic_message(payload.as_ref());
                *scratch = init();
                if attempt < attempts {
                    telemetry::point_retries().inc();
                    std::thread::sleep(schedule.retry.backoff_before(attempt));
                }
            }
        }
    }
    telemetry::point_quarantines().inc();
    Err(FailedPoint {
        index: idx,
        attempts,
        reason,
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn schedule(jobs: usize, unit: usize) -> Schedule<'static> {
        Schedule::new(jobs, unit, "exec_test", telemetry::sweep_points_claimed())
    }

    #[test]
    fn every_unit_runs_once_on_one_worker_and_merges_in_index_order() {
        // Indices a resumed campaign already holds.
        let resumed = [0usize, 4, 5, 16];
        for jobs in [1, 2, 8] {
            for unit in [1, 3] {
                for n in [0, 1, 17] {
                    let case = format!("jobs {jobs} unit {unit} n {n}");
                    let workers = AtomicUsize::new(0);
                    let runs: Vec<Mutex<Vec<usize>>> =
                        (0..n).map(|_| Mutex::new(Vec::new())).collect();
                    let mut merged: Vec<Option<usize>> = vec![None; n];
                    let mut arrivals = Vec::new();
                    run(
                        &schedule(jobs, unit),
                        n,
                        &|idx| resumed.contains(&idx),
                        || workers.fetch_add(1, Ordering::Relaxed),
                        |worker, idx| {
                            runs[idx].lock().unwrap().push(*worker);
                            idx * idx
                        },
                        |idx, verdict| {
                            arrivals.push(idx);
                            merged[idx] = Some(verdict.expect("no panics here"));
                        },
                    );

                    let expected: Vec<Option<usize>> = (0..n)
                        .map(|idx| (!resumed.contains(&idx)).then_some(idx * idx))
                        .collect();
                    assert_eq!(merged, expected, "{case}: merged results");
                    if jobs == 1 {
                        assert!(arrivals.is_sorted(), "{case}: inline run out of order");
                    }
                    let ran: Vec<Vec<usize>> =
                        runs.into_iter().map(|r| r.into_inner().unwrap()).collect();
                    for (idx, workers) in ran.iter().enumerate() {
                        let expect = usize::from(!resumed.contains(&idx));
                        assert_eq!(workers.len(), expect, "{case}: index {idx} run count");
                    }
                    for block in ran.chunks(unit) {
                        let mut owners = block.iter().flatten();
                        if let Some(first) = owners.next() {
                            assert!(owners.all(|w| w == first), "{case}: unit split {block:?}");
                        }
                    }
                }
            }
        }
    }
}
