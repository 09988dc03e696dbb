//! The auto-batcher: merge compatible queued sweeps into one engine
//! pass, split the merged report back per task.
//!
//! Two sweep specs are *compatible* when they differ at most in their
//! core-count lists — same workloads, modes, placements, seed, tick
//! counts and fault plan. The merged spec is the union of core counts,
//! so one engine pass over one shared `SolveCache` covers every
//! member's grid. Splitting is exact, not approximate, because
//! `SweepSpec::point_seed` is a pure function of (master seed,
//! workload, cores, placement) and deliberately *not* of the spec's
//! core list: a point solved inside the merged grid is bit-identical
//! to the same point solved by a standalone run of the member spec.

use p7_sim::journal::FailedPoint;
use p7_sim::sweep::{PointResult, SweepReport, SweepSpec};
use p7_types::fnv64;

/// One enqueued sweep awaiting batching.
#[derive(Debug, Clone)]
pub struct QueuedSweep {
    /// The owning task id.
    pub task: u64,
    /// The task's parsed spec.
    pub spec: SweepSpec,
}

/// A set of compatible sweeps merged into one engine pass.
#[derive(Debug, Clone)]
pub struct SweepBatch {
    /// The merged spec: the shared shape with the union of core lists.
    pub merged: SweepSpec,
    /// The member tasks, in arrival order.
    pub members: Vec<QueuedSweep>,
}

/// The compatibility key: the FNV-1a fingerprint of the spec's
/// canonical JSON with the core list blanked. Everything else —
/// workload set, modes, placements, seed, tick counts, fault plan —
/// must match for two sweeps to share an engine pass.
#[must_use]
pub fn compat_fingerprint(spec: &SweepSpec) -> u64 {
    let mut keyed = spec.clone();
    keyed.cores = Vec::new();
    fnv64(keyed.to_json().as_bytes())
}

/// Greedily groups the queue (in arrival order) into batches of
/// compatible sweeps. Each batch's merged core list is the sorted,
/// deduplicated union of its members'. Deterministic: same queue in,
/// same batches out.
#[must_use]
pub fn build_batches(queue: &[QueuedSweep]) -> Vec<SweepBatch> {
    let mut keyed: Vec<(u64, SweepBatch)> = Vec::new();
    for entry in queue {
        let key = compat_fingerprint(&entry.spec);
        match keyed.iter_mut().find(|(k, _)| *k == key) {
            Some((_, batch)) => {
                batch.merged.cores.extend_from_slice(&entry.spec.cores);
                batch.members.push(entry.clone());
            }
            None => keyed.push((
                key,
                SweepBatch {
                    merged: entry.spec.clone(),
                    members: vec![entry.clone()],
                },
            )),
        }
    }
    keyed
        .into_iter()
        .map(|(_, mut batch)| {
            batch.merged.cores.sort_unstable();
            batch.merged.cores.dedup();
            batch
        })
        .collect()
}

/// One member's share of a merged batch outcome.
#[derive(Debug, Clone)]
pub struct SplitOutcome {
    /// The owning task id.
    pub task: u64,
    /// The member's results, in *its own* spec's grid order with its
    /// own grid indices — exactly what a standalone run produces.
    pub results: Vec<PointResult>,
    /// The member's quarantined points, re-indexed into its own grid.
    pub failed: Vec<FailedPoint>,
}

/// Splits a merged batch report back into per-member outcomes.
///
/// Each member's rows are looked up in the merged report by grid
/// coordinates and re-indexed into the member's own expansion order;
/// merged-grid quarantines map back onto every member point sharing
/// the coordinates.
#[must_use]
pub fn split_report(batch: &SweepBatch, report: &SweepReport) -> Vec<SplitOutcome> {
    let merged_points = batch.merged.grid_points();
    batch
        .members
        .iter()
        .map(|member| {
            let mut results = Vec::new();
            let mut failed = Vec::new();
            for point in member.spec.grid_points() {
                if let Some(outcome) =
                    report.outcome(&point.workload, point.cores, point.placement, point.mode)
                {
                    results.push(PointResult {
                        outcome: outcome.clone(),
                        point,
                    });
                } else if let Some(fp) = report.failed_points.iter().find(|f| {
                    merged_points.get(f.index).is_some_and(|mp| {
                        mp.workload == point.workload
                            && mp.cores == point.cores
                            && mp.placement == point.placement
                            && mp.mode == point.mode
                    })
                }) {
                    failed.push(FailedPoint {
                        index: point.index,
                        attempts: fp.attempts,
                        reason: fp.reason.clone(),
                    });
                } else {
                    // A merged run interrupted mid-grid can miss points
                    // entirely; the scheduler treats any missing row as
                    // "re-run the task", so surface it as a failure.
                    failed.push(FailedPoint {
                        index: point.index,
                        attempts: 0,
                        reason: "point missing from merged batch report".to_owned(),
                    });
                }
            }
            SplitOutcome {
                task: member.task,
                results,
                failed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use p7_control::GuardbandMode;

    fn spec(cores: &[usize], seed: u64) -> SweepSpec {
        SweepSpec::new(vec!["lu_cb".to_owned()], cores.to_vec())
            .with_modes(vec![GuardbandMode::StaticGuardband])
            .with_seed(seed)
            .with_ticks(4, 2)
    }

    fn queued(task: u64, spec: SweepSpec) -> QueuedSweep {
        QueuedSweep { task, spec }
    }

    #[test]
    fn compatible_specs_merge_cores_incompatible_split() {
        let queue = vec![
            queued(1, spec(&[2, 4], 42)),
            queued(2, spec(&[1], 42)),
            queued(3, spec(&[4, 3], 43)), // different seed: own batch
            queued(4, spec(&[4], 42)),
        ];
        let batches = build_batches(&queue);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].merged.cores, vec![1, 2, 4]);
        assert_eq!(
            batches[0]
                .members
                .iter()
                .map(|m| m.task)
                .collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        assert_eq!(batches[1].merged.cores, vec![3, 4]);
        assert_eq!(batches[1].members[0].task, 3);
    }

    #[test]
    fn fingerprint_ignores_cores_only() {
        assert_eq!(
            compat_fingerprint(&spec(&[1, 2], 42)),
            compat_fingerprint(&spec(&[5], 42))
        );
        assert_ne!(
            compat_fingerprint(&spec(&[1], 42)),
            compat_fingerprint(&spec(&[1], 7))
        );
        let mut other = spec(&[1], 42);
        other.measure_ticks += 1;
        assert_ne!(
            compat_fingerprint(&spec(&[1], 42)),
            compat_fingerprint(&other)
        );
    }
}
