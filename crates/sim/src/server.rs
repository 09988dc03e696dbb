//! The two-socket server and the simulation engine.

use crate::assignment::Assignment;
use crate::chip::{ChipSim, SocketTick, TickPrelude};
use crate::config::ServerConfig;
use crate::error::SimError;
use crate::group::{run_group, GroupTicker};
use crate::history::{History, SimEvent, SimEventKind};
use crate::measure::{Accumulator, RunSummary};
use crate::telemetry;
use p7_control::{
    FirmwareController, GuardbandMode, SafetySupervisor, SupervisorConfig, SupervisorEvent,
    WindowObservation,
};
use p7_faults::{DeadCpm, FaultKind, FaultPlan, SensorBias, SocketWindow, StuckCpm, FOREVER};
use p7_pdn::{Rail, Vrm};
use p7_sensors::{Amester, CpmReading};
use p7_types::{
    Amps, CoreId, CpmId, Seconds, SocketId, Volts, CORES_PER_SOCKET, CPMS_PER_CORE,
    CPMS_PER_SOCKET, NUM_SOCKETS,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// The firmware/telemetry window length: 32 ms.
pub const WINDOW: Seconds = Seconds(0.032);

/// The next [`Simulation`] build's `draw_streams` id. Ids only compare
/// for equality, so their order never reaches an output.
static NEXT_DRAW_STREAMS: AtomicU64 = AtomicU64::new(0);

/// The pre-solve state of one window, produced by
/// [`Simulation::begin_tick`] and consumed by the solve strategy and
/// [`Simulation::settle_tick`]. Fixed-size, so splitting a tick in half
/// keeps the warm path allocation-free.
#[derive(Debug, Clone)]
pub(crate) struct TickSetup {
    /// This window's fault effects, when a plan is installed.
    fault_windows: Option<[SocketWindow; NUM_SOCKETS]>,
    /// Rail snapshots taken before the solve.
    rails: [Rail; NUM_SOCKETS],
    /// Effective per-socket guardband modes (after supervisor degrade).
    modes: [GuardbandMode; NUM_SOCKETS],
    /// Injected droop-storm scales, when active this window.
    droop_scales: [Option<(f64, f64)>; NUM_SOCKETS],
}

/// A running simulation of the Power 720 server.
///
/// # Examples
///
/// ```
/// use p7_control::GuardbandMode;
/// use p7_sim::{Assignment, ServerConfig, Simulation};
/// use p7_workloads::Catalog;
///
/// let cfg = ServerConfig::power7plus(42);
/// let w = Catalog::power7plus().get("raytrace").unwrap().clone();
/// let a = Assignment::single_socket(&w, 2)?;
/// let mut sim = Simulation::new(cfg, a, GuardbandMode::Undervolt)?;
/// let summary = sim.run(40, 15);
/// assert!(summary.socket0().undervolt.millivolts() > 0.0);
/// # Ok::<(), p7_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    config: ServerConfig,
    assignment: Assignment,
    mode: GuardbandMode,
    vrm: Vrm,
    chips: Vec<ChipSim>,
    firmware: FirmwareController,
    amesters: Vec<Amester>,
    time: Seconds,
    /// Window counter driving the fault plan.
    tick_index: usize,
    /// Identifies the build whose random streams (activity traces, di/dt
    /// noise) this simulation carries: unique per [`Simulation::new`],
    /// shared by clones. See [`Simulation::draws_like`].
    draw_streams: u64,
    /// Installed fault plan, if any.
    faults: Option<FaultPlan>,
    /// Per-socket CPMs currently forced by the plan (bit = flat index),
    /// so releases clear exactly what the plan set and nothing else.
    plan_cpm_masks: [u64; NUM_SOCKETS],
    /// Per-socket safety supervisors, when enabled.
    supervisors: Option<Vec<SafetySupervisor>>,
    /// Margin violations observed while monitoring is active.
    margin_violations: u64,
    /// Fault/supervisor events not yet drained into a [`History`].
    pending_events: Vec<SimEvent>,
    /// Routes every solve through the retained scalar loop — the
    /// differential harness's oracle path.
    #[cfg(feature = "scalar-oracle")]
    use_scalar_oracle: bool,
}

impl Simulation {
    /// Builds a simulation; rails start at the static nominal voltage.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the configuration or assignment is
    /// invalid.
    pub fn new(
        config: ServerConfig,
        assignment: Assignment,
        mode: GuardbandMode,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let vrm = Vrm::uniform(config.nominal_voltage(), config.pdn.vrm_loadline)?;
        let chips = SocketId::all()
            .map(|s| ChipSim::new(&config, &assignment, s))
            .collect::<Result<Vec<_>, _>>()?;
        let firmware = FirmwareController::new(config.target_frequency, config.policy.clone())?;
        Ok(Simulation {
            config,
            assignment,
            mode,
            vrm,
            chips,
            firmware,
            amesters: (0..NUM_SOCKETS).map(|_| Amester::new()).collect(),
            time: Seconds(0.0),
            tick_index: 0,
            draw_streams: NEXT_DRAW_STREAMS.fetch_add(1, Ordering::Relaxed),
            faults: None,
            plan_cpm_masks: [0; NUM_SOCKETS],
            supervisors: None,
            margin_violations: 0,
            pending_events: Vec::new(),
            #[cfg(feature = "scalar-oracle")]
            use_scalar_oracle: false,
        })
    }

    /// This simulation under another guardband mode. Construction never
    /// reads the mode, so a fresh simulation built for one mode becomes,
    /// bit for bit, the one [`Simulation::new`] builds for `mode`.
    pub(crate) fn with_mode(mut self, mode: GuardbandMode) -> Self {
        self.mode = mode;
        self
    }

    /// Routes every solve in this simulation through the retained scalar
    /// loop instead of the batched SoA kernel — the oracle side of the
    /// differential equivalence harness.
    #[cfg(feature = "scalar-oracle")]
    pub fn set_scalar_oracle(&mut self, enabled: bool) {
        self.use_scalar_oracle = enabled;
    }

    /// Reserves telemetry capacity for `windows` upcoming windows so the
    /// per-tick record path never reallocates.
    pub fn reserve_telemetry(&mut self, windows: usize) {
        for amester in &mut self.amesters {
            amester.reserve(windows);
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The operating mode.
    #[must_use]
    pub fn mode(&self) -> GuardbandMode {
        self.mode
    }

    /// The assignment being executed.
    #[must_use]
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The telemetry recorder of one socket.
    #[must_use]
    pub fn amester(&self, socket: SocketId) -> &Amester {
        &self.amesters[socket.index()]
    }

    /// Injects a permanent fault into one CPM: `Some(reading)` sticks
    /// the monitor at that tap, `None` kills it outright (a dead sensor
    /// reads tap 0, which engages the hardware fail-safe).
    ///
    /// Routed through the same [`FaultPlan`] effect path as planned
    /// campaigns, so ad-hoc and planned injection share one code path.
    pub fn inject_cpm_fault(&mut self, socket: SocketId, cpm: CpmId, reading: Option<CpmReading>) {
        let core = cpm.core().index();
        let slot = cpm.flat_index() % CPMS_PER_CORE;
        let kind = match reading {
            Some(r) => FaultKind::StuckCpm(StuckCpm {
                socket: socket.index(),
                core,
                slot,
                reading: r.value(),
            }),
            None => FaultKind::DeadCpm(DeadCpm {
                socket: socket.index(),
                core,
                slot,
            }),
        };
        self.inject_now(kind);
    }

    /// Biases one rail's current sensor (failure-injection tests).
    pub fn inject_rail_sensor_bias(&mut self, socket: SocketId, bias: Amps) {
        self.inject_now(FaultKind::SensorBias(SensorBias {
            socket: socket.index(),
            amps: bias.0,
        }));
    }

    /// Applies an ad-hoc fault immediately and permanently by resolving
    /// it through the plan machinery — the single application path.
    fn inject_now(&mut self, kind: FaultKind) {
        let socket = kind.socket();
        let plan = FaultPlan::new("adhoc", 0).event(0, FOREVER, kind);
        let window = plan.socket_window(0, socket);
        Self::apply_socket_window(&mut self.chips, &mut self.vrm, socket, &window, 0);
    }

    /// Clears every injected sensor fault: all banks' stuck-at faults
    /// (delegating to `CpmBank::clear_stuck_faults`), rail current-sensor
    /// biases, and any installed fault plan.
    pub fn clear_faults(&mut self) {
        for chip in &mut self.chips {
            chip.bank_mut().clear_stuck_faults();
        }
        for socket in SocketId::all() {
            self.vrm.rail_mut(socket).inject_sensor_bias(Amps::ZERO);
        }
        self.faults = None;
        self.plan_cpm_masks = [0; NUM_SOCKETS];
    }

    /// Installs a fault plan: plan window `w` applies to simulation window
    /// `w`, so a plan installed before the first run replays from its
    /// start.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Resilience`] when the plan fails validation.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), SimError> {
        plan.validate()
            .map_err(|reason| SimError::Resilience { reason })?;
        self.faults = Some(plan);
        Ok(())
    }

    /// The installed fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Enables the per-socket safety supervisors. Also turns on margin
    /// violation monitoring.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Resilience`] when the thresholds are invalid.
    pub fn enable_supervisor(&mut self, config: SupervisorConfig) -> Result<(), SimError> {
        config
            .validate()
            .map_err(|reason| SimError::Resilience { reason })?;
        self.supervisors = Some(
            (0..NUM_SOCKETS)
                .map(|i| SafetySupervisor::with_socket(config, i as u8))
                .collect(),
        );
        Ok(())
    }

    /// One socket's safety supervisor, when enabled.
    #[must_use]
    pub fn supervisor(&self, socket: SocketId) -> Option<&SafetySupervisor> {
        self.supervisors.as_ref().map(|s| &s[socket.index()])
    }

    /// Margin violations observed so far: windows in which a powered-on
    /// core's voltage, less the window's worst droop, fell below the
    /// critical-path requirement at its clock. Counted only while a
    /// fault plan or supervisor is active (the plain hot path stays
    /// check-free).
    #[must_use]
    pub fn margin_violations(&self) -> u64 {
        self.margin_violations
    }

    /// Drains the fault/supervisor events accumulated since the last
    /// drain, in occurrence order.
    ///
    /// Allocation-conscious callers that harvest every window should use
    /// [`Simulation::take_events_into`] instead: this convenience form
    /// hands the internal buffer itself to the caller, so the *next*
    /// event pushed must grow a fresh one from zero capacity.
    pub fn take_events(&mut self) -> Vec<SimEvent> {
        std::mem::take(&mut self.pending_events)
    }

    /// Drains the accumulated fault/supervisor events into `buf`,
    /// appending in occurrence order. The internal buffer keeps its
    /// capacity, so harvesting once per window on an instrumented run
    /// performs zero allocations once both buffers are warm.
    pub fn take_events_into(&mut self, buf: &mut Vec<SimEvent>) {
        buf.append(&mut self.pending_events);
    }

    /// The guardband mode socket `i` actually runs this window, after
    /// any supervisor degradation.
    fn effective_mode(&self, socket: usize) -> GuardbandMode {
        match &self.supervisors {
            Some(sups) => sups[socket].effective_mode(self.mode),
            None => self.mode,
        }
    }

    /// Applies one socket's fault-window effects to the live hardware.
    /// `prev_mask` holds the CPMs forced by the previous application;
    /// monitors the window released are cleared, monitors it still
    /// forces are re-stuck, and everything else (ad-hoc injections
    /// included) is left alone. Returns the new mask.
    fn apply_socket_window(
        chips: &mut [ChipSim],
        vrm: &mut Vrm,
        socket: usize,
        window: &SocketWindow,
        prev_mask: u64,
    ) -> u64 {
        let mask = window.cpm_mask();
        let released = prev_mask & !mask;
        if mask != 0 || released != 0 {
            let bank = chips[socket].bank_mut();
            for flat in 0..CPMS_PER_SOCKET {
                let bit = 1u64 << flat;
                if bit & (mask | released) == 0 {
                    continue;
                }
                let core = CoreId::new((flat / CPMS_PER_CORE) as u8).expect("core in range");
                let cpm = CpmId::new(core, (flat % CPMS_PER_CORE) as u8).expect("slot in range");
                if bit & mask != 0 {
                    let tap = window.cpm[flat].expect("mask bit implies an override");
                    let reading = CpmReading::new(tap).expect("plans are validated");
                    bank.set_stuck_at(cpm, Some(reading));
                } else {
                    bank.set_stuck_at(cpm, None);
                }
            }
        }
        if window.rail_sensor_touched {
            let id = SocketId::new(socket as u8).expect("socket in range");
            vrm.rail_mut(id)
                .inject_sensor_bias(Amps(window.sensor_error_amps));
        }
        mask
    }

    /// Applies the plan's effects for window `tick` and records timeline
    /// transitions.
    fn apply_fault_windows(&mut self, tick: usize, windows: &[SocketWindow; NUM_SOCKETS]) {
        for (socket, window) in windows.iter().enumerate() {
            self.plan_cpm_masks[socket] = Self::apply_socket_window(
                &mut self.chips,
                &mut self.vrm,
                socket,
                window,
                self.plan_cpm_masks[socket],
            );
        }
        if let Some(plan) = &self.faults {
            for event in &plan.events {
                if tick == event.onset {
                    self.pending_events.push(SimEvent {
                        tick,
                        socket: event.kind.socket(),
                        kind: SimEventKind::FaultStarted(event.kind.label().to_string()),
                    });
                } else if event.ends_at(tick) {
                    self.pending_events.push(SimEvent {
                        tick,
                        socket: event.kind.socket(),
                        kind: SimEventKind::FaultEnded(event.kind.label().to_string()),
                    });
                }
            }
        }
    }

    /// End-of-window monitoring: counts margin violations and feeds the
    /// supervisors, applying degradation (static mode, rail snapped to
    /// nominal) from the next window on.
    fn monitor_window(
        &mut self,
        tick: usize,
        ticks: &[SocketTick; NUM_SOCKETS],
        telemetry_lost: [bool; NUM_SOCKETS],
    ) {
        for i in 0..NUM_SOCKETS {
            let t = &ticks[i];
            let mut violations = 0u64;
            for c in 0..CORES_PER_SOCKET {
                if !self.chips[i].core_is_on(c) {
                    continue;
                }
                let worst = t.breakdown[c].typical_didt + t.breakdown[c].worst_didt;
                let required = self.config.curve.v_circuit(t.core_freqs[c]);
                if t.core_voltages[c] - worst < required - Volts(1e-9) {
                    violations += 1;
                }
            }
            self.margin_violations += violations;
            telemetry::margin_violations().add(violations);

            let Some(sups) = self.supervisors.as_mut() else {
                continue;
            };
            let sup = &mut sups[i];
            sup.note_margin_violations(violations);
            let ran_adaptive = sup.allows_adaptive() && self.mode.is_adaptive();
            let observation = WindowObservation {
                sample: std::array::from_fn(|k| t.cpm_sample[k].value()),
                sticky: std::array::from_fn(|k| t.cpm_sticky[k].value()),
                core_on: std::array::from_fn(|c| self.chips[i].core_is_on(c)),
                telemetry_fresh: !telemetry_lost[i],
                ran_adaptive,
            };
            match sup.observe(&observation) {
                Some(SupervisorEvent::Degraded(issue)) => {
                    // Emergency exit from the shaved guardband: the full
                    // static margin at the nominal set point.
                    let id = SocketId::new(i as u8).expect("socket in range");
                    let nominal = self.config.nominal_voltage();
                    self.vrm.rail_mut(id).set_set_point(nominal);
                    self.pending_events.push(SimEvent {
                        tick,
                        socket: i,
                        kind: SimEventKind::Degraded(format!("{issue:?}")),
                    });
                }
                Some(SupervisorEvent::Rearmed) => {
                    self.pending_events.push(SimEvent {
                        tick,
                        socket: i,
                        kind: SimEventKind::Rearmed,
                    });
                }
                None => {}
            }
        }
    }

    /// Advances the server by one 32 ms window and returns each socket's
    /// observations: a group of one through [`GroupTicker`].
    ///
    /// This is the warm hot path: after telemetry capacity has been
    /// reserved (see [`Simulation::reserve_telemetry`], done automatically
    /// by [`Simulation::run`]), a tick performs zero heap allocations —
    /// the ticker, the returned ticks, the CPM readouts and the rail
    /// snapshot are all fixed-size values.
    pub fn tick(&mut self) -> [SocketTick; NUM_SOCKETS] {
        let mut window = None;
        GroupTicker::<NUM_SOCKETS>::new().tick_group(&mut [&mut *self], |_, ticks| {
            window = Some(ticks);
        });
        window.expect("a group of one settles one window")
    }

    /// The pre-solve half of a window: fault effects applied, rails
    /// snapshotted, effective modes and droop scales resolved. The group
    /// ticker in [`crate::group`] calls it for every member before one
    /// wide solve. Does not open the `"tick"` trace span — the ticker owns
    /// it, so the span brackets the whole group's window.
    pub(crate) fn begin_tick(&mut self) -> TickSetup {
        let tick_index = self.tick_index;
        telemetry::sim_ticks().inc();
        // Fault effects for this window, resolved purely from the plan
        // and the window index so reruns replay them bitwise.
        let fault_windows: Option<[SocketWindow; NUM_SOCKETS]> = self
            .faults
            .as_ref()
            .map(|plan| std::array::from_fn(|i| plan.socket_window(tick_index, i)));
        if let Some(windows) = &fault_windows {
            self.apply_fault_windows(tick_index, windows);
        }

        let rails: [Rail; NUM_SOCKETS] = std::array::from_fn(|i| {
            let socket = SocketId::new(i as u8).expect("socket in range");
            // Rail is a small Copy value: snapshot it instead of cloning
            // through an allocation-visible path.
            *self.vrm.rail(socket)
        });
        // The supervisor may have degraded a socket to static.
        let modes: [GuardbandMode; NUM_SOCKETS] = std::array::from_fn(|i| self.effective_mode(i));
        let droop_scales: [Option<(f64, f64)>; NUM_SOCKETS] = std::array::from_fn(|i| {
            fault_windows.as_ref().and_then(|w| {
                let fw = &w[i];
                (fw.droop_typical_scale != 1.0 || fw.droop_worst_scale != 1.0)
                    .then_some((fw.droop_typical_scale, fw.droop_worst_scale))
            })
        });
        TickSetup {
            fault_windows,
            rails,
            modes,
            droop_scales,
        }
    }

    /// The post-solve half of a window: telemetry recording, the firmware
    /// undervolt servo, safety monitoring, and the time/window advance.
    /// `ticks` must be the solutions for the setup this window's
    /// [`Simulation::begin_tick`] returned.
    pub(crate) fn settle_tick(
        &mut self,
        setup: &TickSetup,
        ticks: [SocketTick; NUM_SOCKETS],
    ) -> [SocketTick; NUM_SOCKETS] {
        let tick_index = self.tick_index;
        let fault_windows = &setup.fault_windows;
        for i in 0..NUM_SOCKETS {
            // Telemetry mirrors what AMESTER would record; a lost window
            // simply never arrives.
            let lost = fault_windows.as_ref().is_some_and(|w| w[i].telemetry_lost);
            if !lost {
                self.amesters[i]
                    .record(self.time, ticks[i].cpm_sample, ticks[i].cpm_sticky)
                    .expect("window cadence respects the 32 ms limit");
            }
        }

        // Firmware: in undervolting mode each socket's rail chases its
        // slowest powered-on core; rails of fully gated sockets park at
        // the floor. A missed 32 ms window holds the set point instead.
        for socket in SocketId::all() {
            let i = socket.index();
            if self.effective_mode(i) != GuardbandMode::Undervolt {
                continue;
            }
            if fault_windows.as_ref().is_some_and(|w| w[i].firmware_missed) {
                continue;
            }
            let current_set = self.vrm.rail(socket).set_point();
            // The firmware is conservative: it servoes the worst
            // momentary frequency of the window (droops plus the
            // rail's load-transient reserve) to the target.
            let next = match ticks[i].sticky_min_freq {
                Some(freq) => self
                    .firmware
                    .adjust_voltage(current_set, freq, &self.config.curve),
                None => self.firmware.voltage_floor(&self.config.curve),
            };
            self.vrm.rail_mut(socket).set_set_point(next);
        }

        // Safety monitoring runs only when faults or supervisors are in
        // play, keeping the plain hot path check-free.
        if self.faults.is_some() || self.supervisors.is_some() {
            let telemetry_lost: [bool; NUM_SOCKETS] = std::array::from_fn(|i| {
                fault_windows.as_ref().is_some_and(|w| w[i].telemetry_lost)
            });
            self.monitor_window(tick_index, &ticks, telemetry_lost);
        }

        self.time += WINDOW;
        self.tick_index += 1;
        ticks
    }

    /// The window index the next [`Simulation::tick`] will run (also the
    /// `"tick"` span key the group ticker uses).
    pub(crate) fn next_tick_index(&self) -> usize {
        self.tick_index
    }

    /// Whether this simulation routes solves through the scalar oracle —
    /// such servers keep their scalar path even inside a group tick.
    #[cfg(feature = "scalar-oracle")]
    pub(crate) fn wants_scalar_oracle(&self) -> bool {
        self.use_scalar_oracle
    }

    /// Without the `scalar-oracle` feature no simulation is an oracle.
    #[cfg(not(feature = "scalar-oracle"))]
    pub(crate) fn wants_scalar_oracle(&self) -> bool {
        false
    }

    /// Step 1–2 of every socket's window (activity and noise draws + DPLL
    /// settle), for a caller that batches the solves itself.
    pub(crate) fn begin_windows(&mut self, setup: &TickSetup) -> [TickPrelude; NUM_SOCKETS] {
        std::array::from_fn(|i| self.chips[i].begin_window(setup.modes[i], WINDOW))
    }

    /// Whether this simulation's next window draws exactly what `other`'s
    /// next window draws: both carry the random streams of one build
    /// (clones share them; the guardband mode never touches them) and
    /// stand at the same window.
    pub(crate) fn draws_like(&self, other: &Simulation) -> bool {
        self.draw_streams == other.draw_streams && self.tick_index == other.tick_index
    }

    /// [`Simulation::begin_windows`] for a simulation that
    /// [draws like](Simulation::draws_like) `twin`, given the preludes
    /// `twin` just drew: takes `twin`'s draws instead of repeating them.
    pub(crate) fn begin_windows_as(
        &mut self,
        setup: &TickSetup,
        twin: &Simulation,
        drawn: &[TickPrelude; NUM_SOCKETS],
    ) -> [TickPrelude; NUM_SOCKETS] {
        std::array::from_fn(|i| {
            self.chips[i].begin_window_as(setup.modes[i], &twin.chips[i], &drawn[i])
        })
    }

    /// One socket's solver lane inputs for this window.
    pub(crate) fn lane_spec<'a>(
        &'a self,
        socket: usize,
        setup: &'a TickSetup,
        prelude: &'a TickPrelude,
    ) -> crate::solve::LaneSpec<'a> {
        self.chips[socket].lane_spec(&setup.rails[socket], prelude)
    }

    /// One socket's window solved on the retained scalar oracle path.
    #[cfg(feature = "scalar-oracle")]
    pub(crate) fn solve_scalar_socket(
        &self,
        socket: usize,
        setup: &TickSetup,
        prelude: &TickPrelude,
    ) -> crate::solve::LaneSolution {
        self.chips[socket].solve_scalar(&setup.rails[socket], prelude)
    }

    /// Steps 4–8 of every socket's window from externally solved lanes.
    pub(crate) fn finish_windows(
        &mut self,
        setup: &TickSetup,
        preludes: &[TickPrelude; NUM_SOCKETS],
        solutions: &[crate::solve::LaneSolution; NUM_SOCKETS],
    ) -> [SocketTick; NUM_SOCKETS] {
        std::array::from_fn(|i| {
            self.chips[i].finish_window(
                &setup.rails[i],
                setup.modes[i],
                WINDOW,
                setup.droop_scales[i],
                &preludes[i],
                &solutions[i],
            )
        })
    }

    /// Like [`Simulation::run`] but also records the full per-window time
    /// series (warm-up included), for transient studies. Records carry
    /// the simulation's own window index, as its events do.
    ///
    /// # Panics
    ///
    /// Panics if `measure` is zero.
    pub fn run_with_history(&mut self, measure: usize, warmup: usize) -> (RunSummary, History) {
        assert!(measure > 0, "must measure at least one window");
        self.reserve_telemetry(measure + warmup);
        let mut history = History::with_capacity(measure + warmup);
        let mut acc = Accumulator::new(self.config.nominal_voltage(), self.running_mask());
        for window in 0..warmup + measure {
            let (tick_index, time) = (self.tick_index, self.time);
            let ticks = self.tick();
            history.push(tick_index, time, &ticks);
            if window >= warmup {
                acc.add(&ticks);
            }
        }
        for event in self.pending_events.drain(..) {
            history.push_event(event);
        }
        (
            acc.finish().expect("measure > 0 windows were accumulated"),
            history,
        )
    }

    pub(crate) fn running_mask(&self) -> [[bool; CORES_PER_SOCKET]; NUM_SOCKETS] {
        let mut mask = [[false; CORES_PER_SOCKET]; NUM_SOCKETS];
        for socket in SocketId::all() {
            for core in CoreId::all() {
                mask[socket.index()][core.index()] =
                    self.assignment.thread_at(socket, core).is_some();
            }
        }
        mask
    }

    /// Runs `warmup + measure` windows, discarding the warm-up, and
    /// returns the averaged summary: a group of one through [`run_group`].
    ///
    /// # Panics
    ///
    /// Panics if `measure` is zero.
    pub fn run(&mut self, measure: usize, warmup: usize) -> RunSummary {
        run_group::<NUM_SOCKETS>(&mut [self], measure, warmup)
            .pop()
            .expect("one server, one summary")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p7_types::Volts;
    use p7_workloads::Catalog;

    fn workload(name: &str) -> p7_workloads::WorkloadProfile {
        Catalog::power7plus().get(name).unwrap().clone()
    }

    fn run(
        name: &str,
        k: usize,
        mode: GuardbandMode,
        build: fn(&p7_workloads::WorkloadProfile, usize) -> Result<Assignment, SimError>,
    ) -> RunSummary {
        let cfg = ServerConfig::power7plus(42);
        let a = build(&workload(name), k).unwrap();
        let mut sim = Simulation::new(cfg, a, mode).unwrap();
        sim.run(40, 20)
    }

    #[test]
    fn undervolt_saves_power_vs_static() {
        let static_run = run(
            "raytrace",
            1,
            GuardbandMode::StaticGuardband,
            Assignment::single_socket,
        );
        let uv_run = run(
            "raytrace",
            1,
            GuardbandMode::Undervolt,
            Assignment::single_socket,
        );
        let saving = (static_run.socket0().avg_power.0 - uv_run.socket0().avg_power.0)
            / static_run.socket0().avg_power.0
            * 100.0;
        // Fig. 3a: ~13 % at one active core.
        assert!((8.0..18.0).contains(&saving), "1-core saving {saving}%");
    }

    #[test]
    fn undervolt_benefit_shrinks_with_core_count() {
        let saving_at = |k: usize| {
            let s = run(
                "raytrace",
                k,
                GuardbandMode::StaticGuardband,
                Assignment::single_socket,
            );
            let u = run(
                "raytrace",
                k,
                GuardbandMode::Undervolt,
                Assignment::single_socket,
            );
            (s.socket0().avg_power.0 - u.socket0().avg_power.0) / s.socket0().avg_power.0 * 100.0
        };
        let one = saving_at(1);
        let eight = saving_at(8);
        assert!(one > eight + 3.0, "1-core {one}% vs 8-core {eight}%");
        assert!(eight > 0.5, "8-core saving should stay positive: {eight}%");
    }

    #[test]
    fn overclock_boost_shrinks_with_core_count() {
        let boost_at = |k: usize| {
            let o = run(
                "lu_cb",
                k,
                GuardbandMode::Overclock,
                Assignment::single_socket,
            );
            (o.avg_running_freq.0 - 4200.0) / 4200.0 * 100.0
        };
        let one = boost_at(1);
        let eight = boost_at(8);
        // Fig. 4a: ~10 % at one core, ~4 % at eight.
        assert!((6.0..13.0).contains(&one), "1-core boost {one}%");
        assert!((1.0..7.0).contains(&eight), "8-core boost {eight}%");
        assert!(one > eight);
    }

    #[test]
    fn undervolt_floor_is_never_breached() {
        let cfg = ServerConfig::power7plus(3);
        let a = Assignment::single_socket(&workload("mcf"), 1).unwrap();
        let fw = FirmwareController::new(cfg.target_frequency, cfg.policy.clone()).unwrap();
        let floor = fw.voltage_floor(&cfg.curve);
        let mut sim = Simulation::new(cfg, a, GuardbandMode::Undervolt).unwrap();
        let s = sim.run(40, 20);
        assert!(s.socket0().avg_set_point >= floor - Volts(1e-9));
    }

    #[test]
    fn borrowing_beats_consolidation_at_high_load() {
        // Fig. 12b: distributing raytrace saves total power at 8 threads.
        let cons = run(
            "raytrace",
            8,
            GuardbandMode::Undervolt,
            Assignment::consolidated,
        );
        let borr = run(
            "raytrace",
            8,
            GuardbandMode::Undervolt,
            Assignment::borrowed,
        );
        let saving = (cons.total_power.0 - borr.total_power.0) / cons.total_power.0 * 100.0;
        assert!(saving > 2.0, "borrowing saving {saving}%");
    }

    #[test]
    fn telemetry_is_recorded_each_window() {
        let cfg = ServerConfig::power7plus(42);
        let a = Assignment::single_socket(&workload("vips"), 2).unwrap();
        let mut sim = Simulation::new(cfg, a, GuardbandMode::Overclock).unwrap();
        sim.run(10, 5);
        let s0 = SocketId::new(0).unwrap();
        assert_eq!(sim.amester(s0).windows().len(), 15);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(
            "swaptions",
            4,
            GuardbandMode::Undervolt,
            Assignment::single_socket,
        );
        let b = run(
            "swaptions",
            4,
            GuardbandMode::Undervolt,
            Assignment::single_socket,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn take_events_into_drains_in_place() {
        let cfg = ServerConfig::power7plus(42);
        let a = Assignment::single_socket(&workload("vips"), 2).unwrap();
        let mut sim = Simulation::new(cfg, a, GuardbandMode::StaticGuardband).unwrap();
        let plan = FaultPlan::new("adhoc", 0).event(
            1,
            FOREVER,
            FaultKind::DeadCpm(DeadCpm {
                socket: 0,
                core: 1,
                slot: 0,
            }),
        );
        sim.set_fault_plan(plan).unwrap();
        sim.run(4, 0);
        let mut buf = Vec::with_capacity(4);
        sim.take_events_into(&mut buf);
        assert_eq!(buf.len(), 1);
        assert!(matches!(buf[0].kind, SimEventKind::FaultStarted(_)));
        // The queue was drained in place: a second harvest appends
        // nothing, and the convenience accessor agrees it is empty.
        sim.take_events_into(&mut buf);
        assert_eq!(buf.len(), 1);
        assert!(sim.take_events().is_empty());
    }

    #[test]
    fn history_records_and_events_share_the_window_index() {
        // A simulation that already ran five windows records from window
        // 5, the numbering its fault events carry.
        let cfg = ServerConfig::power7plus(42);
        let a = Assignment::single_socket(&workload("vips"), 2).unwrap();
        let mut sim = Simulation::new(cfg, a, GuardbandMode::Undervolt).unwrap();
        let plan = FaultPlan::new("adhoc", 0).event(
            6,
            FOREVER,
            FaultKind::DeadCpm(DeadCpm {
                socket: 0,
                core: 1,
                slot: 0,
            }),
        );
        sim.set_fault_plan(plan).unwrap();
        sim.run(5, 0);
        let (_, history) = sim.run_with_history(3, 0);
        let ticks: Vec<usize> = history.records().iter().map(|r| r.tick).collect();
        assert_eq!(ticks, [5, 6, 7]);
        // Within a 1 V tolerance the first record has settled.
        assert_eq!(history.settling_window(0, Volts(1.0)), Some(5));
        let [event] = history.events() else {
            panic!("one event expected: {:?}", history.events());
        };
        assert_eq!(event.tick, 6);
        assert!(matches!(event.kind, SimEventKind::FaultStarted(_)));
    }

    #[test]
    fn cpm_fault_injection_reaches_telemetry() {
        let cfg = ServerConfig::power7plus(42);
        let a = Assignment::single_socket(&workload("vips"), 2).unwrap();
        let mut sim = Simulation::new(cfg, a, GuardbandMode::StaticGuardband).unwrap();
        let s0 = SocketId::new(0).unwrap();
        let cpm = CpmId::new(CoreId::new(3).unwrap(), 2).unwrap();
        sim.inject_cpm_fault(s0, cpm, CpmReading::new(0));
        sim.run(5, 0);
        let latest = sim.amester(s0).latest().unwrap();
        assert_eq!(latest.sample_of(cpm).value(), 0);
    }
}
