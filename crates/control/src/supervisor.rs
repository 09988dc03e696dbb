//! Firmware safety supervisor: graceful guardband degradation.
//!
//! Running with a shaved guardband is only safe while the CPM feedback
//! is trustworthy. The supervisor watches one socket's per-window
//! telemetry for implausibility — stale readouts, CPM slots that
//! disagree with their core's other slots, engaged hardware fail-safes,
//! and exhausted worst-case margin — and degrades the socket from
//! Undervolt/Overclock to the static guardband when any check trips.
//!
//! Degradation is hysteretic: a trip opens a quarantine window whose
//! length backs off exponentially on repeated trips (a persistent fault
//! converges to near-permanent static operation), and adaptive operation
//! re-arms only after N consecutive healthy probation windows. The
//! supervisor also accumulates the safety metric of the fault campaign:
//! margin violations, i.e. windows where a core's on-chip voltage fell
//! below its critical-path requirement.

use crate::modes::GuardbandMode;
use p7_obs::{metrics, trace};
use p7_types::{CORES_PER_SOCKET, CPMS_PER_CORE, CPMS_PER_SOCKET};
use serde::{Deserialize, Serialize};

/// Prometheus label value for a socket index, without allocating.
fn socket_label(socket: u8) -> &'static str {
    const LABELS: [&str; 8] = ["0", "1", "2", "3", "4", "5", "6", "7"];
    LABELS.get(socket as usize).copied().unwrap_or("other")
}

/// Prometheus label value for a [`HealthIssue`].
fn issue_label(issue: HealthIssue) -> &'static str {
    match issue {
        HealthIssue::StaleTelemetry => "stale_telemetry",
        HealthIssue::CpmDisagreement => "cpm_disagreement",
        HealthIssue::FailSafe => "fail_safe",
        HealthIssue::MarginExhausted => "margin_exhausted",
    }
}

/// Tunable thresholds of the [`SafetySupervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Maximum plausible tap spread among one core's five CPM slots;
    /// a wider spread means at least one slot is lying.
    pub vote_spread_taps: u8,
    /// Consecutive missing-telemetry windows tolerated before the
    /// staleness counter trips.
    pub stale_limit: u32,
    /// Quarantine length (windows) after the first trip.
    pub quarantine_base: u32,
    /// Upper bound on the exponentially backed-off quarantine length.
    pub quarantine_max: u32,
    /// Consecutive healthy probation windows required to re-arm.
    pub rearm_windows: u32,
    /// Trip when an active core's worst-case (sticky) reading falls to
    /// this tap or below during adaptive operation.
    pub sticky_floor_taps: u8,
}

impl SupervisorConfig {
    /// Thresholds matched to the POWER7+ model's calibration: the
    /// firmware's load-transient reserve keeps a healthy undervolted
    /// core's sticky reading at tap 2 or above, so a sticky tap of 1
    /// (momentary worst-case margin down to one sensitivity step,
    /// ~10–30 mV) already signals the reserve has been eaten.
    #[must_use]
    pub fn power7plus() -> Self {
        SupervisorConfig {
            vote_spread_taps: 4,
            stale_limit: 2,
            quarantine_base: 8,
            quarantine_max: 128,
            rearm_windows: 6,
            sticky_floor_taps: 1,
        }
    }

    /// Checks threshold sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.quarantine_base == 0 {
            return Err("quarantine_base must be > 0".into());
        }
        if self.quarantine_max < self.quarantine_base {
            return Err("quarantine_max must be >= quarantine_base".into());
        }
        if self.rearm_windows == 0 {
            return Err("rearm_windows must be > 0".into());
        }
        Ok(())
    }
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig::power7plus()
    }
}

/// What one 32 ms window looked like to the supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowObservation {
    /// End-of-window CPM readings, flat-indexed (`core * 5 + slot`).
    pub sample: [u8; CPMS_PER_SOCKET],
    /// Sticky (worst-case within the window) CPM readings.
    pub sticky: [u8; CPMS_PER_SOCKET],
    /// Which cores are powered on (their CPMs carry meaning).
    pub core_on: [bool; CORES_PER_SOCKET],
    /// Whether out-of-band telemetry arrived for this window.
    pub telemetry_fresh: bool,
    /// Whether the socket actually ran in an adaptive mode this window
    /// (margin checks only apply to shaved-guardband operation).
    pub ran_adaptive: bool,
}

/// Why the supervisor judged a window implausible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthIssue {
    /// Telemetry has been missing longer than the staleness limit.
    StaleTelemetry,
    /// A core's CPM slots disagree beyond the plausible spread.
    CpmDisagreement,
    /// The hardware fail-safe engaged (a CPM read tap 0).
    FailSafe,
    /// Worst-case margin was fully consumed during adaptive operation.
    MarginExhausted,
}

/// A state transition worth recording in telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SupervisorEvent {
    /// The socket was degraded to the static guardband.
    Degraded(HealthIssue),
    /// Adaptive operation was re-armed after a healthy probation.
    Rearmed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Adaptive operation permitted.
    Armed,
    /// Forced static for a fixed number of windows.
    Quarantined,
    /// Quarantine expired; still static while health is re-established.
    Probation,
}

/// Per-socket safety supervisor with hysteretic degradation.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetySupervisor {
    config: SupervisorConfig,
    /// Socket index used as the metric label (see [`Self::with_socket`]).
    socket: u8,
    state: State,
    quarantine_left: u32,
    trips: u32,
    rearms: u32,
    healthy_streak: u32,
    stale_windows: u32,
    margin_violations: u64,
    degraded_windows: u64,
}

impl SafetySupervisor {
    /// A freshly armed supervisor attributing metrics to socket 0.
    #[must_use]
    pub fn new(config: SupervisorConfig) -> Self {
        SafetySupervisor::with_socket(config, 0)
    }

    /// A freshly armed supervisor whose degradations, re-arms, and
    /// plausibility-vote failures are labelled `socket="<socket>"` in the
    /// global [`p7_obs`] registry.
    #[must_use]
    pub fn with_socket(config: SupervisorConfig, socket: u8) -> Self {
        SafetySupervisor {
            config,
            socket,
            state: State::Armed,
            quarantine_left: 0,
            trips: 0,
            rearms: 0,
            healthy_streak: 0,
            stale_windows: 0,
            margin_violations: 0,
            degraded_windows: 0,
        }
    }

    /// The configured thresholds.
    #[must_use]
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Whether adaptive (shaved-guardband) operation is permitted.
    #[must_use]
    pub fn allows_adaptive(&self) -> bool {
        self.state == State::Armed
    }

    /// The mode the socket is allowed to run, given the requested one.
    #[must_use]
    pub fn effective_mode(&self, requested: GuardbandMode) -> GuardbandMode {
        if self.allows_adaptive() {
            requested
        } else {
            GuardbandMode::StaticGuardband
        }
    }

    /// Number of degradations so far.
    #[must_use]
    pub fn trips(&self) -> u32 {
        self.trips
    }

    /// Number of re-arms so far.
    #[must_use]
    pub fn rearms(&self) -> u32 {
        self.rearms
    }

    /// Windows spent degraded (quarantine plus probation).
    #[must_use]
    pub fn degraded_windows(&self) -> u64 {
        self.degraded_windows
    }

    /// Accumulated margin violations (the campaign safety metric).
    #[must_use]
    pub fn margin_violations(&self) -> u64 {
        self.margin_violations
    }

    /// Records `count` margin violations observed this window.
    pub fn note_margin_violations(&mut self, count: u64) {
        self.margin_violations += count;
    }

    /// Feeds one window of telemetry; returns a transition if the
    /// supervisor degraded or re-armed. The decision governs the *next*
    /// window — degradation cannot retroactively fix the one observed.
    pub fn observe(&mut self, obs: &WindowObservation) -> Option<SupervisorEvent> {
        let issue = self.health_issue(obs);
        match self.state {
            State::Armed => issue.map(|i| {
                self.trip();
                self.record_degrade(i);
                SupervisorEvent::Degraded(i)
            }),
            State::Quarantined => {
                self.degraded_windows += 1;
                self.quarantine_left = self.quarantine_left.saturating_sub(1);
                if self.quarantine_left == 0 {
                    self.state = State::Probation;
                    self.healthy_streak = 0;
                }
                None
            }
            State::Probation => {
                self.degraded_windows += 1;
                if let Some(i) = issue {
                    self.trip();
                    self.record_degrade(i);
                    return Some(SupervisorEvent::Degraded(i));
                }
                self.healthy_streak += 1;
                if self.healthy_streak >= self.config.rearm_windows {
                    self.state = State::Armed;
                    self.rearms += 1;
                    self.record_rearm();
                    Some(SupervisorEvent::Rearmed)
                } else {
                    None
                }
            }
        }
    }

    /// Publishes one degradation to the registry and trace. Degradations
    /// are rare (each opens a multi-window quarantine), so the labelled
    /// registry lookup is off every hot path.
    fn record_degrade(&self, issue: HealthIssue) {
        if !metrics::global().is_enabled() && !trace::is_enabled() {
            return;
        }
        metrics::global()
            .counter_with(
                "ags_supervisor_degrades_total",
                "Sockets degraded to the static guardband, by socket and health issue",
                &[
                    ("socket", socket_label(self.socket)),
                    ("issue", issue_label(issue)),
                ],
            )
            .inc();
        trace::instant("supervisor_degrade", u64::from(self.socket));
    }

    /// Publishes one re-arm to the registry and trace.
    fn record_rearm(&self) {
        if !metrics::global().is_enabled() && !trace::is_enabled() {
            return;
        }
        metrics::global()
            .counter_with(
                "ags_supervisor_rearms_total",
                "Adaptive operation re-armed after healthy probation, by socket",
                &[("socket", socket_label(self.socket))],
            )
            .inc();
        trace::instant("supervisor_rearm", u64::from(self.socket));
    }

    /// Publishes one plausibility-vote failure (a core whose CPM slots
    /// disagree beyond the configured spread).
    fn record_vote_failure(&self) {
        if !metrics::global().is_enabled() {
            return;
        }
        metrics::global()
            .counter_with(
                "ags_supervisor_vote_failures_total",
                "Windows in which a core's CPM slots disagreed beyond the plausible spread, by socket",
                &[("socket", socket_label(self.socket))],
            )
            .inc();
    }

    /// Opens (or re-opens) a quarantine with exponential backoff.
    fn trip(&mut self) {
        let shift = self.trips.min(16);
        let len = self
            .config
            .quarantine_base
            .saturating_mul(1 << shift)
            .min(self.config.quarantine_max);
        self.trips += 1;
        self.quarantine_left = len.max(1);
        self.healthy_streak = 0;
        self.state = State::Quarantined;
    }

    /// Evaluates one window's plausibility. Always runs (even while
    /// degraded) so the staleness counter and probation health tracking
    /// see every window.
    fn health_issue(&mut self, obs: &WindowObservation) -> Option<HealthIssue> {
        if !obs.telemetry_fresh {
            self.stale_windows += 1;
            if self.stale_windows > self.config.stale_limit {
                return Some(HealthIssue::StaleTelemetry);
            }
            // Too early to trip, and the readings themselves are stale:
            // nothing else can be judged this window.
            return None;
        }
        self.stale_windows = 0;
        for core in 0..CORES_PER_SOCKET {
            if !obs.core_on[core] {
                continue;
            }
            let base = core * CPMS_PER_CORE;
            let slots = &obs.sample[base..base + CPMS_PER_CORE];
            let min = *slots.iter().min().expect("core has CPM slots");
            let max = *slots.iter().max().expect("core has CPM slots");
            if min == 0 {
                return Some(HealthIssue::FailSafe);
            }
            if max - min > self.config.vote_spread_taps {
                self.record_vote_failure();
                return Some(HealthIssue::CpmDisagreement);
            }
            if obs.ran_adaptive {
                let sticky = &obs.sticky[base..base + CPMS_PER_CORE];
                let sticky_min = *sticky.iter().min().expect("core has CPM slots");
                if sticky_min <= self.config.sticky_floor_taps {
                    return Some(HealthIssue::MarginExhausted);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn healthy() -> WindowObservation {
        WindowObservation {
            sample: [2; CPMS_PER_SOCKET],
            sticky: [2; CPMS_PER_SOCKET],
            core_on: [true; CORES_PER_SOCKET],
            telemetry_fresh: true,
            ran_adaptive: true,
        }
    }

    #[test]
    fn healthy_windows_keep_the_supervisor_armed() {
        let mut sup = SafetySupervisor::new(SupervisorConfig::power7plus());
        for _ in 0..100 {
            assert_eq!(sup.observe(&healthy()), None);
        }
        assert!(sup.allows_adaptive());
        assert_eq!(sup.trips(), 0);
        assert_eq!(sup.degraded_windows(), 0);
    }

    #[test]
    fn disagreeing_slots_trip_and_quarantine_backs_off_exponentially() {
        let cfg = SupervisorConfig::power7plus();
        let mut sup = SafetySupervisor::new(cfg);
        let mut bad = healthy();
        bad.sample[3] = 11; // core 0, slot 3 claims huge margin

        // Trip 1: quarantine_base windows of quarantine.
        assert_eq!(
            sup.observe(&bad),
            Some(SupervisorEvent::Degraded(HealthIssue::CpmDisagreement))
        );
        assert!(!sup.allows_adaptive());
        let mut degraded = 0;
        let mut probation = healthy();
        probation.ran_adaptive = false;
        // Serve quarantine + healthy probation, expect a re-arm.
        loop {
            degraded += 1;
            assert!(degraded < 1000, "supervisor never re-armed");
            if sup.observe(&probation) == Some(SupervisorEvent::Rearmed) {
                break;
            }
        }
        assert_eq!(
            degraded,
            (cfg.quarantine_base + cfg.rearm_windows) as usize,
            "first quarantine is the base length"
        );
        assert!(sup.allows_adaptive());
        assert_eq!(sup.rearms(), 1);

        // Trip 2: quarantine doubles.
        assert!(sup.observe(&bad).is_some());
        let mut degraded2 = 0;
        loop {
            degraded2 += 1;
            assert!(degraded2 < 1000, "supervisor never re-armed");
            if sup.observe(&probation) == Some(SupervisorEvent::Rearmed) {
                break;
            }
        }
        assert_eq!(
            degraded2,
            (2 * cfg.quarantine_base + cfg.rearm_windows) as usize
        );
        assert_eq!(sup.trips(), 2);
    }

    #[test]
    fn persistent_fail_safe_retrips_at_probation_without_rearm() {
        let mut sup = SafetySupervisor::new(SupervisorConfig::power7plus());
        let mut dead = healthy();
        dead.sample[7] = 0; // core 1, slot 2 reads tap 0
        dead.ran_adaptive = false;
        assert_eq!(
            sup.observe(&dead),
            Some(SupervisorEvent::Degraded(HealthIssue::FailSafe))
        );
        let mut retrips = 0;
        for _ in 0..2000 {
            if let Some(SupervisorEvent::Degraded(HealthIssue::FailSafe)) = sup.observe(&dead) {
                retrips += 1;
            }
        }
        assert!(retrips >= 2, "probation must keep re-tripping");
        assert_eq!(sup.rearms(), 0);
        assert!(!sup.allows_adaptive());
    }

    #[test]
    fn staleness_tolerates_short_gaps_then_trips() {
        let cfg = SupervisorConfig::power7plus();
        let mut sup = SafetySupervisor::new(cfg);
        let mut stale = healthy();
        stale.telemetry_fresh = false;
        for _ in 0..cfg.stale_limit {
            assert_eq!(sup.observe(&stale), None, "within the stale budget");
        }
        assert_eq!(
            sup.observe(&stale),
            Some(SupervisorEvent::Degraded(HealthIssue::StaleTelemetry))
        );
        // On a fresh supervisor, one fresh window resets the counter.
        let mut sup = SafetySupervisor::new(cfg);
        assert_eq!(sup.observe(&stale), None);
        assert_eq!(sup.observe(&healthy()), None);
        for _ in 0..cfg.stale_limit {
            assert_eq!(sup.observe(&stale), None, "counter was reset by freshness");
        }
    }

    #[test]
    fn sticky_floor_only_applies_to_adaptive_windows() {
        let mut sup = SafetySupervisor::new(SupervisorConfig::power7plus());
        let mut exhausted = healthy();
        exhausted.sticky = [0; CPMS_PER_SOCKET];
        exhausted.ran_adaptive = false;
        assert_eq!(sup.observe(&exhausted), None, "static windows exempt");
        exhausted.ran_adaptive = true;
        assert_eq!(
            sup.observe(&exhausted),
            Some(SupervisorEvent::Degraded(HealthIssue::MarginExhausted))
        );
    }

    #[test]
    fn off_cores_are_excluded_from_voting() {
        let mut sup = SafetySupervisor::new(SupervisorConfig::power7plus());
        let mut obs = healthy();
        obs.core_on = [false; CORES_PER_SOCKET];
        obs.core_on[0] = true;
        // Garbage on an off core must not trip anything.
        obs.sample[CPMS_PER_CORE] = 0;
        obs.sample[CPMS_PER_CORE + 1] = 11;
        assert_eq!(sup.observe(&obs), None);
        assert!(sup.allows_adaptive());
    }

    #[test]
    fn margin_violations_accumulate() {
        let mut sup = SafetySupervisor::new(SupervisorConfig::power7plus());
        sup.note_margin_violations(3);
        sup.note_margin_violations(0);
        sup.note_margin_violations(2);
        assert_eq!(sup.margin_violations(), 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The supervisor never stays armed through a window whose
        /// telemetry is implausible on its face: any active core with a
        /// tap-0 reading or an implausible spread forbids adaptive
        /// operation from the next window on, so an undervolt can never
        /// be deepened on the strength of a lying sensor.
        #[test]
        fn implausible_telemetry_always_disarms(
            corrupt_slot in 0usize..CPMS_PER_SOCKET,
            corrupt_value in prop_oneof![Just(0u8), 8u8..12],
            healthy_prefix in 0usize..20,
        ) {
            let cfg = SupervisorConfig::power7plus();
            let mut sup = SafetySupervisor::new(cfg);
            for _ in 0..healthy_prefix {
                sup.observe(&healthy());
            }
            let mut obs = healthy();
            obs.sample[corrupt_slot] = corrupt_value;
            let event = sup.observe(&obs);
            prop_assert!(matches!(event, Some(SupervisorEvent::Degraded(_))));
            prop_assert!(!sup.allows_adaptive());
        }
    }
}
