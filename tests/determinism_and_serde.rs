//! Reproducibility and serializability of the whole pipeline.

use ags::control::GuardbandMode;
use ags::sim::{Assignment, Experiment, Outcome, RunSummary, ServerConfig};
use ags::workloads::Catalog;
use serde::de::DeserializeOwned;
use serde::Serialize;

fn outcome(seed: u64, name: &str) -> Outcome {
    let exp = Experiment::power7plus(seed).with_ticks(20, 10);
    let w = Catalog::power7plus().get(name).unwrap().clone();
    let a = Assignment::single_socket(&w, 4).unwrap();
    exp.run(&a, GuardbandMode::Undervolt).unwrap()
}

#[test]
fn identical_seeds_reproduce_identical_outcomes() {
    let a = outcome(7, "vips");
    let b = outcome(7, "vips");
    assert_eq!(a, b);
}

#[test]
fn different_seeds_vary_only_through_noise() {
    let a = outcome(7, "vips");
    let b = outcome(8, "vips");
    // Different noise streams → not bit-identical…
    assert_ne!(a, b);
    // …but the physics dominates: power stays within a few percent (the
    // residual spread is activity-phase sampling over the short window).
    let rel = (a.chip_power().0 - b.chip_power().0).abs() / a.chip_power().0;
    assert!(rel < 0.04, "seed changed power by {}%", rel * 100.0);
}

#[test]
fn every_mode_is_deterministic() {
    let catalog = Catalog::power7plus();
    let w = catalog.get("radix").unwrap().clone();
    for mode in GuardbandMode::all() {
        let run = |_| {
            let exp = Experiment::power7plus(3).with_ticks(15, 5);
            let a = Assignment::borrowed(&w, 6).unwrap();
            exp.run(&a, mode).unwrap()
        };
        assert_eq!(run(0), run(1), "mode {mode} must be deterministic");
    }
}

/// Compile-time check that the public result and config types are serde
/// round-trippable (the workspace deliberately ships no format crate, so
/// this validates the derive bounds rather than bytes).
#[test]
fn public_types_are_serializable() {
    fn assert_serde<T: Serialize + DeserializeOwned>() {}
    assert_serde::<ServerConfig>();
    assert_serde::<RunSummary>();
    assert_serde::<Outcome>();
    assert_serde::<ags::workloads::WorkloadProfile>();
    assert_serde::<ags::scheduling::MipsFrequencyPredictor>();
    assert_serde::<ags::scheduling::QuantumReport>();
    assert_serde::<ags::pdn::DropBreakdown>();
    assert_serde::<ags::control::GuardbandPolicy>();
    assert_serde::<ags::control::SupervisorConfig>();
    assert_serde::<ags::faults::FaultPlan>();
    assert_serde::<ags::sim::ResilienceSpec>();
    assert_serde::<ags::sim::ScenarioResult>();
}

#[test]
fn fault_plans_round_trip_through_json() {
    let scenarios = ags::faults::FaultPlan::scenarios();
    assert!(!scenarios.is_empty());
    for plan in &scenarios {
        let reparsed = ags::faults::FaultPlan::from_json(&plan.to_json())
            .unwrap_or_else(|e| panic!("scenario `{}` failed round trip: {e}", plan.name));
        assert_eq!(plan, &reparsed, "scenario `{}` drifted", plan.name);
        assert_eq!(plan.fingerprint(), reparsed.fingerprint());
    }
    // Fingerprints are the cache-key discriminator: all distinct, and
    // never the fault-free sentinel 0.
    let mut prints: Vec<u64> = scenarios
        .iter()
        .map(ags::faults::FaultPlan::fingerprint)
        .collect();
    prints.sort_unstable();
    prints.dedup();
    assert_eq!(prints.len(), scenarios.len());
    assert!(!prints.contains(&0));
}

#[test]
fn config_round_trips_through_validation() {
    let cfg = ServerConfig::power7plus(1);
    cfg.validate().unwrap();
    let cloned = cfg.clone();
    assert_eq!(cfg, cloned);
}

/// Nesting depth of a parsed JSON value: 0 for a scalar.
fn nesting_depth(value: &serde::Value) -> usize {
    match value {
        serde::Value::Seq(items) => 1 + items.iter().map(nesting_depth).max().unwrap_or(0),
        serde::Value::Map(entries) => {
            1 + entries
                .iter()
                .map(|(_, v)| nesting_depth(v))
                .max()
                .unwrap_or(0)
        }
        _ => 0,
    }
}

#[test]
fn written_json_nests_far_below_the_parser_limit() {
    // The deepest documents the workspace writes: a faulted sweep's
    // journal segments and manifest, and a fleet spec. Each must parse
    // back, with room to spare under the parser's nesting bound.
    use ags::sim::{DurableOptions, SolveCache, SweepEngine, SweepRunOptions, SweepSpec};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("ags-json-nesting-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SweepSpec::new(vec!["vips".into()], vec![3])
        .with_seed(5)
        .with_ticks(4, 2)
        .with_faults(ags::faults::FaultPlan::named("droop-storm").expect("scenario"));
    let options = SweepRunOptions {
        durable: DurableOptions::journaled(&dir),
        ..SweepRunOptions::default()
    };
    let engine = SweepEngine::with_cache(1, Arc::new(SolveCache::new()));
    let report = engine.run_durable(&spec, &options).expect("faulted sweep");

    let mut documents = vec![ags::fleet::FleetSpec::power7plus().to_json()];
    for entry in std::fs::read_dir(&dir).expect("journal dir") {
        let text = std::fs::read_to_string(entry.expect("entry").path()).expect("read");
        // A segment's first line is its checksum header.
        let body = text
            .split_once('\n')
            .map_or(text.as_str(), |(_, body)| body);
        documents.push(body.to_owned());
    }
    assert!(documents.len() > 2, "the sweep wrote segments");
    let deepest = documents
        .iter()
        .map(|doc| nesting_depth(&serde::Value::parse_json(doc).expect("parses back")))
        .max()
        .unwrap();
    assert!(
        deepest * 8 <= serde::json::MAX_NESTING_DEPTH,
        "deepest document nests {deepest} levels"
    );

    // The segments still resume the campaign byte-identically.
    let resumed = SweepEngine::with_cache(1, Arc::new(SolveCache::new()))
        .run_durable(
            &spec,
            &SweepRunOptions {
                durable: DurableOptions::resumed(&dir),
                ..SweepRunOptions::default()
            },
        )
        .expect("resumed sweep");
    assert_eq!(resumed.results_json(), report.results_json());
    let _ = std::fs::remove_dir_all(&dir);
}
