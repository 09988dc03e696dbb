//! Seeded, serializable fault-injection plans for the POWER7+ model.
//!
//! A [`FaultPlan`] is a timeline of [`FaultEvent`]s — each an onset
//! window, a duration, and a [`FaultKind`] — covering the failure modes
//! that matter when the guardband is thin: stuck/dead/drifting CPMs,
//! whole-bank readout dropouts, AMESTER telemetry loss, VRM
//! current-sensor bias and noise bursts, missed 32 ms firmware windows,
//! and worst-case di/dt droop storms.
//!
//! Every stochastic effect (sensor noise) is a pure function of
//! `(plan seed, event index, window index)`, so a faulted run is bitwise
//! reproducible from the plan alone: rerunning a simulation, or solving
//! the same grid point on a different worker, yields the same trajectory.
//! The per-window view a simulation consumes is [`SocketWindow`],
//! assembled on the stack by [`FaultPlan::socket_window`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use p7_types::{
    seed_for, seed_for_indexed, SplitMix64, CORES_PER_SOCKET, CPMS_PER_CORE, CPMS_PER_SOCKET,
    NUM_SOCKETS,
};
use serde::{Deserialize, Serialize};

/// Number of CPM tap positions (readings are `0..CPM_TAPS`).
const CPM_TAPS: u8 = 12;

/// Duration value meaning "until the end of the run".
pub const FOREVER: usize = usize::MAX;

/// A CPM stuck at a fixed tap reading (e.g. a latched comparator).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StuckCpm {
    /// Socket index.
    pub socket: usize,
    /// Core index within the socket.
    pub core: usize,
    /// CPM slot within the core.
    pub slot: usize,
    /// The tap value the sensor reports while the fault is active.
    pub reading: u8,
}

/// A CPM that died outright: it reads tap 0, which the hardware
/// interprets as "no measurable margin" and fails safe on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadCpm {
    /// Socket index.
    pub socket: usize,
    /// Core index within the socket.
    pub core: usize,
    /// CPM slot within the core.
    pub slot: usize,
}

/// A CPM whose reading walks away from a starting tap at a constant
/// rate (aging or thermal de-calibration of the synthetic path).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftingCpm {
    /// Socket index.
    pub socket: usize,
    /// Core index within the socket.
    pub core: usize,
    /// CPM slot within the core.
    pub slot: usize,
    /// Tap reported on the onset window.
    pub start: u8,
    /// Taps of drift per 32 ms window; may be negative (drifts low).
    pub taps_per_window: f64,
}

/// The whole 40-CPM readout of a socket drops out: every monitor
/// reports tap 0 for the duration (a scan-chain or readout-bus fault).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BankDropout {
    /// Socket index.
    pub socket: usize,
}

/// AMESTER telemetry windows are lost for the duration: the out-of-band
/// monitor records nothing, so observers see stale data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AmesterLoss {
    /// Socket index.
    pub socket: usize,
}

/// A constant bias on the VRM output-current sensor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorBias {
    /// Socket index.
    pub socket: usize,
    /// Bias added to the sensed current, in amps.
    pub amps: f64,
}

/// A noise burst on the VRM output-current sensor: each window adds an
/// independent zero-mean Gaussian error drawn from the plan seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorNoise {
    /// Socket index.
    pub socket: usize,
    /// Standard deviation of the per-window error, in amps.
    pub amps_std: f64,
}

/// The 32 ms firmware voltage-adjustment window is missed: the rail
/// set point holds at its last value for the duration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MissedFirmware {
    /// Socket index.
    pub socket: usize,
}

/// A worst-case di/dt storm: the noise profile's typical and worst
/// droops are scaled up, ramping linearly over `ramp_windows` so the
/// resonance builds rather than appearing fully formed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DroopStorm {
    /// Socket index.
    pub socket: usize,
    /// Multiplier on the typical (average) droop at full strength.
    pub typical_scale: f64,
    /// Multiplier on the worst-case droop at full strength.
    pub worst_scale: f64,
    /// Windows over which the scales ramp from 1.0 to full strength.
    pub ramp_windows: usize,
}

/// One failure mode, with its target and parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// CPM stuck at a fixed reading.
    StuckCpm(StuckCpm),
    /// CPM reads tap 0 (dead sensor; hardware fails safe).
    DeadCpm(DeadCpm),
    /// CPM reading drifts at a constant rate.
    DriftingCpm(DriftingCpm),
    /// Whole-bank readout dropout (all 40 CPMs read tap 0).
    BankDropout(BankDropout),
    /// AMESTER telemetry windows lost.
    AmesterLoss(AmesterLoss),
    /// Constant VRM current-sensor bias.
    SensorBias(SensorBias),
    /// VRM current-sensor noise burst.
    SensorNoise(SensorNoise),
    /// Missed 32 ms firmware voltage windows.
    MissedFirmware(MissedFirmware),
    /// Worst-case di/dt droop storm.
    DroopStorm(DroopStorm),
}

impl FaultKind {
    /// The socket this fault targets.
    #[must_use]
    pub fn socket(&self) -> usize {
        match self {
            FaultKind::StuckCpm(f) => f.socket,
            FaultKind::DeadCpm(f) => f.socket,
            FaultKind::DriftingCpm(f) => f.socket,
            FaultKind::BankDropout(f) => f.socket,
            FaultKind::AmesterLoss(f) => f.socket,
            FaultKind::SensorBias(f) => f.socket,
            FaultKind::SensorNoise(f) => f.socket,
            FaultKind::MissedFirmware(f) => f.socket,
            FaultKind::DroopStorm(f) => f.socket,
        }
    }

    /// Short stable label for telemetry and reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::StuckCpm(_) => "stuck-cpm",
            FaultKind::DeadCpm(_) => "dead-cpm",
            FaultKind::DriftingCpm(_) => "drifting-cpm",
            FaultKind::BankDropout(_) => "bank-dropout",
            FaultKind::AmesterLoss(_) => "amester-loss",
            FaultKind::SensorBias(_) => "sensor-bias",
            FaultKind::SensorNoise(_) => "sensor-noise",
            FaultKind::MissedFirmware(_) => "missed-firmware",
            FaultKind::DroopStorm(_) => "droop-storm",
        }
    }

    /// Checks target indices and parameter ranges.
    fn validate(&self) -> Result<(), String> {
        let check_socket = |s: usize| {
            if s < NUM_SOCKETS {
                Ok(())
            } else {
                Err(format!("socket {s} out of range (< {NUM_SOCKETS})"))
            }
        };
        let check_cpm = |core: usize, slot: usize| {
            if core >= CORES_PER_SOCKET {
                Err(format!("core {core} out of range (< {CORES_PER_SOCKET})"))
            } else if slot >= CPMS_PER_CORE {
                Err(format!("slot {slot} out of range (< {CPMS_PER_CORE})"))
            } else {
                Ok(())
            }
        };
        let check_finite = |x: f64, what: &str| {
            if x.is_finite() {
                Ok(())
            } else {
                Err(format!("{what} must be finite, got {x}"))
            }
        };
        match *self {
            FaultKind::StuckCpm(f) => {
                check_socket(f.socket)?;
                check_cpm(f.core, f.slot)?;
                if f.reading >= CPM_TAPS {
                    return Err(format!("stuck reading {} out of range (< 12)", f.reading));
                }
                Ok(())
            }
            FaultKind::DeadCpm(f) => {
                check_socket(f.socket)?;
                check_cpm(f.core, f.slot)
            }
            FaultKind::DriftingCpm(f) => {
                check_socket(f.socket)?;
                check_cpm(f.core, f.slot)?;
                if f.start >= CPM_TAPS {
                    return Err(format!("drift start {} out of range (< 12)", f.start));
                }
                check_finite(f.taps_per_window, "taps_per_window")
            }
            FaultKind::BankDropout(f) => check_socket(f.socket),
            FaultKind::AmesterLoss(f) => check_socket(f.socket),
            FaultKind::SensorBias(f) => {
                check_socket(f.socket)?;
                check_finite(f.amps, "sensor bias")
            }
            FaultKind::SensorNoise(f) => {
                check_socket(f.socket)?;
                check_finite(f.amps_std, "sensor noise std")?;
                if f.amps_std < 0.0 {
                    return Err("sensor noise std must be non-negative".into());
                }
                Ok(())
            }
            FaultKind::MissedFirmware(f) => check_socket(f.socket),
            FaultKind::DroopStorm(f) => {
                check_socket(f.socket)?;
                check_finite(f.typical_scale, "typical_scale")?;
                check_finite(f.worst_scale, "worst_scale")?;
                if f.typical_scale < 1.0 || f.worst_scale < 1.0 {
                    return Err("droop storm scales must be >= 1.0".into());
                }
                Ok(())
            }
        }
    }
}

/// One fault on the plan's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// First window (0-based tick index) the fault is active.
    pub onset: usize,
    /// Number of windows the fault lasts; [`FOREVER`] for permanent.
    pub duration: usize,
    /// What fails.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Whether the fault is active during window `tick`.
    #[must_use]
    pub fn active_at(&self, tick: usize) -> bool {
        tick >= self.onset && tick - self.onset < self.duration
    }

    /// Whether `tick` is the first window after the fault cleared.
    #[must_use]
    pub fn ends_at(&self, tick: usize) -> bool {
        self.duration != FOREVER && tick >= self.onset && tick - self.onset == self.duration
    }
}

/// The per-window, per-socket effect of a plan: what a simulation must
/// apply before ticking that socket. Built entirely on the stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocketWindow {
    /// For each flat CPM index (`core * 5 + slot`), the tap the sensor
    /// is forced to report this window, or `None` for healthy.
    pub cpm: [Option<u8>; CPMS_PER_SOCKET],
    /// AMESTER telemetry for this window is lost.
    pub telemetry_lost: bool,
    /// The firmware voltage window is missed (set point holds).
    pub firmware_missed: bool,
    /// Whether any rail-sensor event targets this socket anywhere in
    /// the plan (so expiry can restore a zero bias).
    pub rail_sensor_touched: bool,
    /// Total current-sensor error this window, in amps.
    pub sensor_error_amps: f64,
    /// Multiplier on the typical droop this window.
    pub droop_typical_scale: f64,
    /// Multiplier on the worst-case droop this window.
    pub droop_worst_scale: f64,
}

impl Default for SocketWindow {
    fn default() -> Self {
        SocketWindow {
            cpm: [None; CPMS_PER_SOCKET],
            telemetry_lost: false,
            firmware_missed: false,
            rail_sensor_touched: false,
            sensor_error_amps: 0.0,
            droop_typical_scale: 1.0,
            droop_worst_scale: 1.0,
        }
    }
}

impl SocketWindow {
    /// Bitmask of flat CPM indices forced by the plan this window.
    #[must_use]
    pub fn cpm_mask(&self) -> u64 {
        let mut mask = 0u64;
        for (i, o) in self.cpm.iter().enumerate() {
            if o.is_some() {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Whether this window carries any effect at all.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self == &SocketWindow::default()
    }
}

/// A named, seeded timeline of fault events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Scenario name (stable identifier in reports and caches).
    pub name: String,
    /// Master seed for the plan's stochastic effects.
    pub seed: u64,
    /// The timeline; events may overlap freely.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan with the given name and seed.
    #[must_use]
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        FaultPlan {
            name: name.into(),
            seed,
            events: Vec::new(),
        }
    }

    /// Appends an event (builder style).
    #[must_use]
    pub fn event(mut self, onset: usize, duration: usize, kind: FaultKind) -> Self {
        self.events.push(FaultEvent {
            onset,
            duration,
            kind,
        });
        self
    }

    /// Whether the plan has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every event's target indices and parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            if e.duration == 0 {
                return Err(format!("event {i}: duration must be > 0"));
            }
            e.kind
                .validate()
                .map_err(|msg| format!("event {i} ({}): {msg}", e.kind.label()))?;
        }
        Ok(())
    }

    /// 64-bit fingerprint of the plan's value tree
    /// ([`p7_types::fingerprint`]), for in-memory cache keys.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        p7_types::fingerprint(self)
    }

    /// Serializes the plan to deterministic JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Parses a plan from JSON and validates it.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let plan: FaultPlan =
            serde::json::from_str(json).map_err(|e| format!("fault plan: {e}"))?;
        plan.validate()?;
        Ok(plan)
    }

    /// Assembles the effect of the plan on `socket` during window
    /// `tick`. Pure: the same `(plan, tick, socket)` always yields the
    /// same window, which is what keeps faulted sweeps deterministic at
    /// any worker count.
    #[must_use]
    pub fn socket_window(&self, tick: usize, socket: usize) -> SocketWindow {
        let mut w = SocketWindow::default();
        for (idx, e) in self.events.iter().enumerate() {
            if e.kind.socket() != socket {
                continue;
            }
            if matches!(e.kind, FaultKind::SensorBias(_) | FaultKind::SensorNoise(_)) {
                w.rail_sensor_touched = true;
            }
            if !e.active_at(tick) {
                continue;
            }
            match e.kind {
                FaultKind::StuckCpm(f) => {
                    w.cpm[f.core * CPMS_PER_CORE + f.slot] = Some(f.reading);
                }
                FaultKind::DeadCpm(f) => {
                    w.cpm[f.core * CPMS_PER_CORE + f.slot] = Some(0);
                }
                FaultKind::DriftingCpm(f) => {
                    let elapsed = (tick - e.onset) as f64;
                    let tap = f64::from(f.start) + f.taps_per_window * elapsed;
                    let tap = tap.round().clamp(0.0, f64::from(CPM_TAPS - 1));
                    w.cpm[f.core * CPMS_PER_CORE + f.slot] = Some(tap as u8);
                }
                FaultKind::BankDropout(_) => {
                    w.cpm = [Some(0); CPMS_PER_SOCKET];
                }
                FaultKind::AmesterLoss(_) => w.telemetry_lost = true,
                FaultKind::MissedFirmware(_) => w.firmware_missed = true,
                FaultKind::SensorBias(f) => w.sensor_error_amps += f.amps,
                FaultKind::SensorNoise(f) => {
                    // Per-window draw keyed on (seed, event, window): the
                    // burst replays identically on every rerun.
                    let stream = seed_for_indexed(self.seed, "sensor-noise", idx);
                    let mut rng = SplitMix64::new(seed_for_indexed(stream, "window", tick));
                    w.sensor_error_amps += f.amps_std * rng.normal();
                }
                FaultKind::DroopStorm(f) => {
                    let strength = if f.ramp_windows == 0 {
                        1.0
                    } else {
                        (((tick - e.onset) + 1) as f64 / f.ramp_windows as f64).min(1.0)
                    };
                    w.droop_typical_scale *= 1.0 + (f.typical_scale - 1.0) * strength;
                    w.droop_worst_scale *= 1.0 + (f.worst_scale - 1.0) * strength;
                }
            }
        }
        // A storm never inverts the ordering worst >= typical.
        if w.droop_worst_scale < w.droop_typical_scale {
            w.droop_worst_scale = w.droop_typical_scale;
        }
        w
    }

    /// The default seed used by the shipped scenarios.
    #[must_use]
    pub fn scenario_seed(name: &str) -> u64 {
        seed_for(0xFA17, name)
    }

    /// The shipped campaign scenarios, in report order.
    #[must_use]
    pub fn scenarios() -> Vec<FaultPlan> {
        vec![
            FaultPlan::stuck_high_cpm(),
            FaultPlan::dead_cpm(),
            FaultPlan::drifting_cpm(),
            FaultPlan::bank_dropout(),
            FaultPlan::amester_loss(),
            FaultPlan::vrm_sensor_storm(),
            FaultPlan::missed_firmware(),
            FaultPlan::droop_storm(),
        ]
    }

    /// Looks up a shipped scenario by name.
    #[must_use]
    pub fn named(name: &str) -> Option<FaultPlan> {
        FaultPlan::scenarios().into_iter().find(|p| p.name == name)
    }

    /// One CPM latches at the top tap from window 10 onward: the slot
    /// claims huge margin while its siblings disagree.
    #[must_use]
    pub fn stuck_high_cpm() -> FaultPlan {
        FaultPlan::new("stuck-high-cpm", Self::scenario_seed("stuck-high-cpm")).event(
            10,
            FOREVER,
            FaultKind::StuckCpm(StuckCpm {
                socket: 0,
                core: 2,
                slot: 3,
                reading: 11,
            }),
        )
    }

    /// One CPM dies (reads tap 0) from window 10 onward; the hardware
    /// fail-safe engages on its core.
    #[must_use]
    pub fn dead_cpm() -> FaultPlan {
        FaultPlan::new("dead-cpm", Self::scenario_seed("dead-cpm")).event(
            10,
            FOREVER,
            FaultKind::DeadCpm(DeadCpm {
                socket: 0,
                core: 1,
                slot: 2,
            }),
        )
    }

    /// A CPM drifts upward from its calibration point by a quarter tap
    /// per window starting at window 8.
    #[must_use]
    pub fn drifting_cpm() -> FaultPlan {
        FaultPlan::new("drifting-cpm", Self::scenario_seed("drifting-cpm")).event(
            8,
            FOREVER,
            FaultKind::DriftingCpm(DriftingCpm {
                socket: 0,
                core: 4,
                slot: 1,
                start: 2,
                taps_per_window: 0.25,
            }),
        )
    }

    /// The whole socket-0 readout drops out for windows 20..26.
    #[must_use]
    pub fn bank_dropout() -> FaultPlan {
        FaultPlan::new("bank-dropout", Self::scenario_seed("bank-dropout")).event(
            20,
            6,
            FaultKind::BankDropout(BankDropout { socket: 0 }),
        )
    }

    /// AMESTER telemetry is lost for windows 12..24.
    #[must_use]
    pub fn amester_loss() -> FaultPlan {
        FaultPlan::new("amester-loss", Self::scenario_seed("amester-loss")).event(
            12,
            12,
            FaultKind::AmesterLoss(AmesterLoss { socket: 0 }),
        )
    }

    /// The VRM current sensor picks up a 12 A bias plus an 8 A-std
    /// noise burst for windows 10..40.
    #[must_use]
    pub fn vrm_sensor_storm() -> FaultPlan {
        FaultPlan::new("vrm-sensor-storm", Self::scenario_seed("vrm-sensor-storm"))
            .event(
                10,
                30,
                FaultKind::SensorBias(SensorBias {
                    socket: 0,
                    amps: 12.0,
                }),
            )
            .event(
                10,
                30,
                FaultKind::SensorNoise(SensorNoise {
                    socket: 0,
                    amps_std: 8.0,
                }),
            )
    }

    /// The firmware misses its voltage window for windows 15..23.
    #[must_use]
    pub fn missed_firmware() -> FaultPlan {
        FaultPlan::new("missed-firmware", Self::scenario_seed("missed-firmware")).event(
            15,
            8,
            FaultKind::MissedFirmware(MissedFirmware { socket: 0 }),
        )
    }

    /// Two di/dt storms on socket 0: the worst-case droop ramps to 2.2x
    /// over ten windows, releases, then returns. The ramp matters: each
    /// window adds a few millivolts of droop, so a sticky-reading
    /// watchdog sees the margin close before it is gone. (A storm whose
    /// per-window growth outruns both the firmware slew and the residual
    /// guardband is not reactively survivable by any scheme.) The first
    /// burst coincides with missed firmware windows — the in-band servo
    /// cannot back the rail off, so an unsupervised undervolted socket
    /// rides the shrinking margin into violation, while the supervisor's
    /// out-of-band snap to nominal still averts it.
    #[must_use]
    pub fn droop_storm() -> FaultPlan {
        let storm = |socket| {
            FaultKind::DroopStorm(DroopStorm {
                socket,
                typical_scale: 1.3,
                worst_scale: 2.6,
                ramp_windows: 10,
            })
        };
        FaultPlan::new("droop-storm", Self::scenario_seed("droop-storm"))
            .event(14, 10, storm(0))
            .event(
                14,
                10,
                FaultKind::MissedFirmware(MissedFirmware { socket: 0 }),
            )
            .event(34, 10, storm(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_window_arithmetic_has_no_overflow() {
        let e = FaultEvent {
            onset: 5,
            duration: FOREVER,
            kind: FaultKind::BankDropout(BankDropout { socket: 0 }),
        };
        assert!(!e.active_at(4));
        assert!(e.active_at(5));
        assert!(e.active_at(usize::MAX));
        assert!(!e.ends_at(usize::MAX));

        let bounded = FaultEvent {
            onset: 3,
            duration: 2,
            kind: e.kind,
        };
        assert!(bounded.active_at(3) && bounded.active_at(4));
        assert!(!bounded.active_at(5));
        assert!(bounded.ends_at(5));
        assert!(!bounded.ends_at(6));
    }

    #[test]
    fn shipped_scenarios_are_valid_and_distinctly_named() {
        let scenarios = FaultPlan::scenarios();
        let mut names: Vec<&str> = scenarios.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario name");
        for plan in &scenarios {
            plan.validate().expect("shipped scenario validates");
            assert!(!plan.is_empty());
            assert_eq!(
                FaultPlan::named(&plan.name).as_ref(),
                Some(plan),
                "named lookup round-trips"
            );
        }
    }

    #[test]
    fn json_round_trip_preserves_plan_and_fingerprint() {
        for plan in FaultPlan::scenarios() {
            let json = plan.to_json();
            let back = FaultPlan::from_json(&json).expect("parse");
            assert_eq!(back, plan);
            assert_eq!(back.fingerprint(), plan.fingerprint());
        }
        let a = FaultPlan::dead_cpm();
        let b = FaultPlan::droop_storm();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn socket_windows_are_deterministic_and_socket_scoped() {
        let plan = FaultPlan::vrm_sensor_storm();
        let w1 = plan.socket_window(15, 0);
        let w2 = plan.socket_window(15, 0);
        assert_eq!(w1, w2, "same (tick, socket) must reproduce bitwise");
        assert!(w1.rail_sensor_touched);
        assert!(w1.sensor_error_amps != 0.0);
        // Different windows draw different noise.
        assert_ne!(
            plan.socket_window(16, 0).sensor_error_amps,
            w1.sensor_error_amps
        );
        // The other socket is untouched.
        assert!(plan.socket_window(15, 1).is_quiet());
        // Outside the burst the error is zero but the touch flag stays,
        // so a simulation restores the unbiased sensor.
        let after = plan.socket_window(45, 0);
        assert_eq!(after.sensor_error_amps, 0.0);
        assert!(after.rail_sensor_touched);
    }

    #[test]
    fn drifting_cpm_saturates_at_the_tap_limits() {
        let plan = FaultPlan::drifting_cpm();
        let flat = 4 * CPMS_PER_CORE + 1;
        let start = plan.socket_window(8, 0).cpm[flat].unwrap();
        assert_eq!(start, 2);
        let later = plan.socket_window(8 + 200, 0).cpm[flat].unwrap();
        assert_eq!(later, 11, "drift clamps at the top tap");
        assert!(plan.socket_window(7, 0).cpm[flat].is_none());
    }

    #[test]
    fn droop_storm_ramps_and_never_inverts_ordering() {
        let plan = FaultPlan::droop_storm();
        let onset = plan.socket_window(14, 0);
        let full = plan.socket_window(23, 0);
        assert!(onset.droop_worst_scale < full.droop_worst_scale);
        assert!((full.droop_worst_scale - 2.6).abs() < 1e-12);
        for tick in 10..50 {
            let w = plan.socket_window(tick, 0);
            assert!(w.droop_worst_scale >= w.droop_typical_scale);
        }
        // Between the bursts the profile returns to nominal.
        assert!(plan.socket_window(30, 0).is_quiet());
    }

    #[test]
    fn bank_dropout_masks_all_cpms_then_clears() {
        let plan = FaultPlan::bank_dropout();
        let during = plan.socket_window(22, 0);
        assert_eq!(during.cpm_mask().count_ones() as usize, CPMS_PER_SOCKET);
        assert!(during.cpm.iter().all(|o| *o == Some(0)));
        assert!(plan.socket_window(26, 0).is_quiet());
    }

    #[test]
    fn validate_rejects_out_of_range_targets() {
        let bad_socket =
            FaultPlan::new("bad", 1).event(0, 1, FaultKind::BankDropout(BankDropout { socket: 9 }));
        assert!(bad_socket.validate().is_err());
        let bad_reading = FaultPlan::new("bad", 1).event(
            0,
            1,
            FaultKind::StuckCpm(StuckCpm {
                socket: 0,
                core: 0,
                slot: 0,
                reading: 12,
            }),
        );
        assert!(bad_reading.validate().is_err());
        let zero_duration =
            FaultPlan::new("bad", 1).event(0, 0, FaultKind::AmesterLoss(AmesterLoss { socket: 0 }));
        assert!(zero_duration.validate().is_err());
        let bad_scale = FaultPlan::new("bad", 1).event(
            0,
            1,
            FaultKind::DroopStorm(DroopStorm {
                socket: 0,
                typical_scale: 0.5,
                worst_scale: 2.0,
                ramp_windows: 0,
            }),
        );
        assert!(bad_scale.validate().is_err());
    }
}
