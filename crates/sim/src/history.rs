//! Per-window time series of a simulation run.
//!
//! The figure harnesses mostly need settled averages, but transient
//! questions — how fast the firmware walks the rail down, what a droop
//! storm does to the clock — need the window-by-window trace. [`History`]
//! records one [`TickRecord`] per 32 ms window and serializes to CSV.

use crate::chip::SocketTick;
use p7_types::{Amps, MegaHertz, Seconds, Volts, Watts, CORES_PER_SOCKET, NUM_SOCKETS};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One socket's observables in one window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SocketSample {
    /// Rail power (set point × current).
    pub power: Watts,
    /// Rail set point.
    pub set_point: Volts,
    /// The lowest delivered core voltage.
    pub min_core_voltage: Volts,
    /// Mean clock across all eight cores.
    pub avg_frequency: MegaHertz,
    /// Rail current.
    pub current: Amps,
}

impl From<&SocketTick> for SocketSample {
    fn from(t: &SocketTick) -> Self {
        let min_v = t
            .core_voltages
            .iter()
            .copied()
            .fold(Volts(f64::MAX), Volts::min);
        let avg_f = t.core_freqs.iter().map(|f| f.0).sum::<f64>() / CORES_PER_SOCKET as f64;
        SocketSample {
            power: t.power,
            set_point: t.set_point,
            min_core_voltage: min_v,
            avg_frequency: MegaHertz(avg_f),
            current: t.current,
        }
    }
}

/// A discrete occurrence worth explaining a run with: a planned fault
/// starting or clearing, or the safety supervisor degrading/re-arming
/// a socket's guardband mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimEvent {
    /// Window index the event occurred in.
    pub tick: usize,
    /// Affected socket.
    pub socket: usize,
    /// What happened.
    pub kind: SimEventKind,
}

/// The kinds of [`SimEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimEventKind {
    /// A planned fault became active (payload: fault label).
    FaultStarted(String),
    /// A planned fault cleared (payload: fault label).
    FaultEnded(String),
    /// The supervisor degraded the socket to the static guardband
    /// (payload: the health issue that tripped).
    Degraded(String),
    /// The supervisor re-armed adaptive operation.
    Rearmed,
}

/// One simulation window across the whole server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TickRecord {
    /// Window index since the simulation started.
    pub tick: usize,
    /// Window start time.
    pub time: Seconds,
    /// Per-socket samples.
    pub sockets: [SocketSample; NUM_SOCKETS],
}

/// The recorded time series.
///
/// # Examples
///
/// ```
/// use p7_control::GuardbandMode;
/// use p7_sim::{Assignment, ServerConfig, Simulation};
/// use p7_workloads::Catalog;
///
/// let w = Catalog::power7plus().get("radix").unwrap().clone();
/// let mut sim = Simulation::new(
///     ServerConfig::power7plus(1),
///     Assignment::single_socket(&w, 2)?,
///     GuardbandMode::Undervolt,
/// )?;
/// let (_, history) = sim.run_with_history(10, 5);
/// assert_eq!(history.len(), 15); // warm-up windows are recorded too
/// assert!(history.to_csv().starts_with("tick,time_s"));
/// # Ok::<(), p7_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct History {
    records: Vec<TickRecord>,
    events: Vec<SimEvent>,
}

impl History {
    /// Creates an empty history.
    #[must_use]
    pub fn new() -> Self {
        History::default()
    }

    /// Creates an empty history with room for `windows` windows, so the
    /// per-tick [`History::push`] path never reallocates.
    #[must_use]
    pub fn with_capacity(windows: usize) -> Self {
        History {
            records: Vec::with_capacity(windows),
            events: Vec::new(),
        }
    }

    /// Ensures room for `additional` more windows without reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional);
    }

    /// Appends one window.
    pub fn push(&mut self, tick: usize, time: Seconds, sockets: &[SocketTick; NUM_SOCKETS]) {
        self.records.push(TickRecord {
            tick,
            time,
            sockets: std::array::from_fn(|i| SocketSample::from(&sockets[i])),
        });
    }

    /// Number of recorded windows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The recorded windows in time order.
    #[must_use]
    pub fn records(&self) -> &[TickRecord] {
        &self.records
    }

    /// Appends a fault/supervisor event to the run's explanation log.
    pub fn push_event(&mut self, event: SimEvent) {
        self.events.push(event);
    }

    /// Fault and supervisor events, in occurrence order.
    #[must_use]
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// The window (its [`TickRecord::tick`]) in which the rail set point of
    /// `socket` first settled within `tolerance` of its final value — how
    /// long the firmware's undervolt walk takes.
    #[must_use]
    pub fn settling_window(&self, socket: usize, tolerance: Volts) -> Option<usize> {
        let last = self.records.last()?.sockets.get(socket)?.set_point;
        self.records
            .iter()
            .find(|r| (r.sockets[socket].set_point - last).abs() <= tolerance)
            .map(|r| r.tick)
    }

    /// Serializes to CSV, one row per (window, socket).
    #[must_use]
    pub fn to_csv(&self) -> String {
        const HEADER: &str =
            "tick,time_s,socket,power_w,set_point_mv,min_core_mv,avg_freq_mhz,current_a\n";
        // A row is ~50 bytes; 72 leaves slack so the buffer never regrows.
        let mut out = String::with_capacity(HEADER.len() + self.records.len() * NUM_SOCKETS * 72);
        out.push_str(HEADER);
        for r in &self.records {
            for (s, sample) in r.sockets.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{},{:.3},{},{:.2},{:.1},{:.1},{:.0},{:.2}",
                    r.tick,
                    r.time.0,
                    s,
                    sample.power.0,
                    sample.set_point.millivolts(),
                    sample.min_core_voltage.millivolts(),
                    sample.avg_frequency.0,
                    sample.current.0
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::config::ServerConfig;
    use crate::server::Simulation;
    use p7_control::GuardbandMode;
    use p7_workloads::Catalog;

    fn run_history(mode: GuardbandMode) -> History {
        let w = Catalog::power7plus().get("raytrace").unwrap().clone();
        let mut sim = Simulation::new(
            ServerConfig::power7plus(3),
            Assignment::single_socket(&w, 4).unwrap(),
            mode,
        )
        .unwrap();
        sim.run_with_history(20, 10).1
    }

    #[test]
    fn records_every_window_including_warmup() {
        let h = run_history(GuardbandMode::Undervolt);
        assert_eq!(h.len(), 30);
        assert!(!h.is_empty());
        assert_eq!(h.records()[0].tick, 0);
        assert_eq!(h.records()[29].tick, 29);
        // Time advances by 32 ms per window.
        let dt = h.records()[1].time - h.records()[0].time;
        assert!((dt.millis() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn undervolt_walks_the_rail_down_over_warmup() {
        let h = run_history(GuardbandMode::Undervolt);
        let first = h.records()[0].sockets[0].set_point;
        let last = h.records()[29].sockets[0].set_point;
        assert!(last < first, "rail should descend: {first} → {last}");
        // Settling happens within the warm-up (the firmware slews ≤25 mV
        // per window).
        let settled = h.settling_window(0, Volts::from_millivolts(2.0)).unwrap();
        assert!(settled <= 10, "settled at window {settled}");
    }

    #[test]
    fn static_mode_rail_never_moves() {
        let h = run_history(GuardbandMode::StaticGuardband);
        let first = h.records()[0].sockets[0].set_point;
        for r in h.records() {
            assert_eq!(r.sockets[0].set_point, first);
        }
    }

    #[test]
    fn csv_has_one_row_per_window_socket() {
        let h = run_history(GuardbandMode::Overclock);
        let csv = h.to_csv();
        // Header plus 30 windows × 2 sockets.
        assert_eq!(csv.lines().count(), 1 + 30 * 2);
        assert!(csv.lines().nth(1).unwrap().starts_with("0,0.000,0,"));
    }

    #[test]
    fn csv_row_count_tracks_history_len() {
        let empty = History::new();
        assert_eq!(empty.to_csv().lines().count(), 1, "header only");

        let h = run_history(GuardbandMode::Undervolt);
        let csv = h.to_csv();
        assert_eq!(csv.lines().count(), 1 + h.len() * NUM_SOCKETS);
        assert!(csv.starts_with("tick,time_s,socket,"));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a = History::with_capacity(64);
        let b = History::new();
        assert_eq!(a, b);
        a.reserve(128);
        assert!(a.is_empty());
    }
}
