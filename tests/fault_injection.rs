//! Failure injection: the control stack must stay inside its guardband
//! envelope when sensors lie.

use ags::control::GuardbandMode;
use ags::pdn::DidtConfig;
use ags::sensors::CpmReading;
use ags::sim::{Assignment, Experiment, ServerConfig, Simulation};
use ags::types::{Amps, CoreId, CpmId, SocketId, Volts};
use ags::workloads::{Catalog, ExecutionModel};

fn assignment(threads: usize) -> Assignment {
    let w = Catalog::power7plus().get("raytrace").unwrap().clone();
    Assignment::single_socket(&w, threads).unwrap()
}

#[test]
fn stuck_low_cpm_forces_the_rail_back_to_safety() {
    let cfg = ServerConfig::power7plus(5);
    let mut healthy =
        Simulation::new(cfg.clone(), assignment(2), GuardbandMode::Undervolt).unwrap();
    let healthy_run = healthy.run(30, 15);
    assert!(healthy_run.socket0().undervolt.millivolts() > 20.0);

    let mut faulty = Simulation::new(cfg, assignment(2), GuardbandMode::Undervolt).unwrap();
    let s0 = SocketId::new(0).unwrap();
    let cpm = CpmId::new(CoreId::new(0).unwrap(), 2).unwrap();
    faulty.inject_cpm_fault(s0, cpm, CpmReading::new(0));
    let faulty_run = faulty.run(30, 15);
    // A CPM reporting "no margin" must kill the undervolt, never deepen it.
    assert!(
        faulty_run.socket0().undervolt.millivolts() < 1.0,
        "undervolt survived a stuck-low CPM: {} mV",
        faulty_run.socket0().undervolt.millivolts()
    );
}

#[test]
fn stuck_high_cpm_does_not_trick_the_rail_below_the_floor() {
    let cfg = ServerConfig::power7plus(5);
    let floor = {
        let fw = ags::control::FirmwareController::new(cfg.target_frequency, cfg.policy.clone())
            .unwrap();
        fw.voltage_floor(&cfg.curve)
    };
    let mut sim = Simulation::new(cfg, assignment(2), GuardbandMode::Undervolt).unwrap();
    let s0 = SocketId::new(0).unwrap();
    // Every CPM of core 0 lies "plenty of margin".
    for slot in 0..5 {
        let cpm = CpmId::new(CoreId::new(0).unwrap(), slot).unwrap();
        sim.inject_cpm_fault(s0, cpm, CpmReading::new(11));
    }
    let run = sim.run(40, 20);
    assert!(
        run.socket0().avg_set_point >= floor - Volts(1e-9),
        "rail fell below the residual-guardband floor"
    );
}

#[test]
fn rail_sensor_bias_does_not_change_physics() {
    // The current sensor feeds telemetry, not the control loop — a biased
    // sensor must not move the electrical outcome.
    let cfg = ServerConfig::power7plus(5);
    let mut clean = Simulation::new(cfg.clone(), assignment(4), GuardbandMode::Undervolt).unwrap();
    let clean_run = clean.run(30, 15);

    let mut biased = Simulation::new(cfg, assignment(4), GuardbandMode::Undervolt).unwrap();
    biased.inject_rail_sensor_bias(SocketId::new(0).unwrap(), Amps(25.0));
    let biased_run = biased.run(30, 15);
    assert_eq!(clean_run, biased_run);
}

#[test]
fn droop_storm_shrinks_but_never_inverts_the_guardband() {
    // A pathological noise environment: constant large droops.
    let mut cfg = ServerConfig::power7plus(5);
    cfg.didt = DidtConfig {
        worst_base: Volts::from_millivolts(60.0),
        droop_rate_hz: 500.0,
        ..DidtConfig::power7plus()
    };
    let exp = Experiment::with_config(cfg.clone(), ExecutionModel::power7plus()).with_ticks(30, 15);
    let st = exp
        .run(&assignment(4), GuardbandMode::StaticGuardband)
        .unwrap();
    let uv = exp.run(&assignment(4), GuardbandMode::Undervolt).unwrap();
    // Undervolting may gain almost nothing under the storm, but must never
    // push the set point above nominal or below the floor.
    let undervolt = uv.summary.socket0().undervolt.millivolts();
    assert!(
        undervolt >= -1e-9,
        "set point above nominal: {undervolt} mV"
    );
    assert!(uv.chip_power().0 <= st.chip_power().0 + 0.5);
}

#[test]
fn faulted_lanes_never_reuse_healthy_cache_entries() {
    // The sweep engine solves each assignment block (one request per
    // guardband mode) in a single `solve_group` call. The fault
    // fingerprint is part of every request's key, so a faulted sweep
    // over the same grid must not be answered from healthy entries — per
    // lane, not per batch.
    use ags::faults::FaultPlan;
    use ags::sim::{SolveCache, SweepEngine, SweepSpec};
    use std::sync::Arc;

    let spec = SweepSpec::new(vec!["raytrace".into(), "gcc".into()], vec![2, 6])
        .with_modes(vec![
            GuardbandMode::StaticGuardband,
            GuardbandMode::Undervolt,
            GuardbandMode::Overclock,
        ])
        // 16 windows: the named scenarios strike from window 10 onward.
        .with_ticks(12, 4);
    let cache = Arc::new(SolveCache::new());
    let engine = SweepEngine::with_cache(2, cache.clone());

    let healthy = engine.run(&spec).unwrap();
    engine.run(&spec).unwrap();
    let warm = cache.counters();
    assert_eq!(warm.misses as usize, spec.len(), "cold pass solves all");
    assert_eq!(warm.hits as usize, spec.len(), "warm pass hits every lane");

    let faulted_spec = spec
        .clone()
        .with_faults(FaultPlan::named("dead-cpm").unwrap());
    let faulted = engine.run(&faulted_spec).unwrap();
    let after = cache.counters();
    assert_eq!(
        after.hits, warm.hits,
        "faulted lanes were answered from healthy entries"
    );
    assert_eq!(
        after.misses as usize,
        spec.len() + faulted_spec.len(),
        "every faulted lane must re-solve"
    );
    assert_ne!(
        healthy.results_json(),
        faulted.results_json(),
        "the fault plan must change at least one outcome"
    );

    // The faulted entries now answer a repeat faulted sweep, again
    // counted per lane.
    engine.run(&faulted_spec).unwrap();
    let repeat = cache.counters();
    assert_eq!(repeat.misses, after.misses);
    assert_eq!(
        repeat.hits as usize,
        spec.len() + faulted_spec.len(),
        "repeat faulted pass hits every faulted lane"
    );
}

#[test]
fn faulted_runs_remain_deterministic() {
    let build = || {
        let cfg = ServerConfig::power7plus(9);
        let mut sim = Simulation::new(cfg, assignment(3), GuardbandMode::Undervolt).unwrap();
        sim.inject_cpm_fault(
            SocketId::new(0).unwrap(),
            CpmId::new(CoreId::new(1).unwrap(), 1).unwrap(),
            CpmReading::new(0),
        );
        sim.run(20, 10)
    };
    assert_eq!(build(), build());
}
