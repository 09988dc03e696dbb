//! Identifiers for the topological elements of a POWER7+ server.
//!
//! The POWER7+ chip has eight out-of-order cores arranged in a 2×4 grid and
//! five critical path monitors per core (40 chip-wide). The Power 720 server
//! used by the paper carries two such chips on a shared voltage regulator.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of cores on one POWER7+ chip.
pub const CORES_PER_SOCKET: usize = 8;

/// Number of critical path monitors placed in each core.
pub const CPMS_PER_CORE: usize = 5;

/// Number of critical path monitors on one chip (40 on POWER7+).
pub const CPMS_PER_SOCKET: usize = CORES_PER_SOCKET * CPMS_PER_CORE;

/// Number of processor sockets in the modelled Power 720 server.
pub const NUM_SOCKETS: usize = 2;

/// Index of one core within a socket (`0..8`).
///
/// Cores `0..=3` form the upper row of the physical floorplan and `4..=7`
/// the lower row, matching the activation order used in the paper's Fig. 7.
///
/// # Examples
///
/// ```
/// use p7_types::CoreId;
///
/// let core = CoreId::new(6).unwrap();
/// assert_eq!(core.grid_position(), (1, 2));
/// assert!(core.is_adjacent(CoreId::new(2).unwrap()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct CoreId(u8);

impl CoreId {
    /// Creates a core id, returning `None` when `index` is out of range.
    #[must_use]
    pub fn new(index: u8) -> Option<Self> {
        (usize::from(index) < CORES_PER_SOCKET).then_some(CoreId(index))
    }

    /// Returns the raw index (`0..8`).
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Iterates over all cores of a socket in activation order (0 → 7).
    pub fn all() -> impl Iterator<Item = CoreId> {
        (0..CORES_PER_SOCKET as u8).map(CoreId)
    }

    /// Returns the `(row, column)` position on the 2×4 floorplan grid.
    #[must_use]
    pub fn grid_position(self) -> (usize, usize) {
        (self.index() / 4, self.index() % 4)
    }

    /// True when `other` is a floorplan neighbour (shares a grid edge).
    ///
    /// Neighbouring cores share local power-delivery segments, so activity
    /// on a neighbour raises this core's local IR drop.
    #[must_use]
    pub fn is_adjacent(self, other: CoreId) -> bool {
        let (r1, c1) = self.grid_position();
        let (r2, c2) = other.grid_position();
        r1.abs_diff(r2) + c1.abs_diff(c2) == 1
    }
}

/// Floorplan adjacency of the 2×4 core grid: entry `i` lists the cores
/// [`CoreId::is_adjacent`] accepts for core `i`, in ascending core order,
/// so sums over a core's neighbours read the table instead of scanning
/// all eight cores, and add in the same order as that scan.
pub const ADJACENT_CORES: [&[usize]; CORES_PER_SOCKET] = [
    &[1, 4],
    &[0, 2, 5],
    &[1, 3, 6],
    &[2, 7],
    &[0, 5],
    &[1, 4, 6],
    &[2, 5, 7],
    &[3, 6],
];

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Core{}", self.0)
    }
}

/// Index of one processor socket within the server (`0..2`).
///
/// # Examples
///
/// ```
/// use p7_types::SocketId;
///
/// assert_eq!(SocketId::all().count(), 2);
/// assert_eq!(SocketId::new(1).unwrap().index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SocketId(u8);

impl SocketId {
    /// Creates a socket id, returning `None` when `index` is out of range.
    #[must_use]
    pub fn new(index: u8) -> Option<Self> {
        (usize::from(index) < NUM_SOCKETS).then_some(SocketId(index))
    }

    /// Returns the raw index (`0..2`).
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Iterates over all sockets of the server.
    pub fn all() -> impl Iterator<Item = SocketId> {
        (0..NUM_SOCKETS as u8).map(SocketId)
    }

    /// Returns the other socket of a two-socket server.
    #[must_use]
    pub fn peer(self) -> SocketId {
        SocketId(1 - self.0)
    }
}

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The functional unit one of a core's five CPMs is placed in.
///
/// "Each core has 5 CPMs placed in different units to account for
/// core-level spatial variations in voltage noise and critical path
/// sensitivity" (Sec. 2.2; detailed placement in the paper's ref. [13]).
///
/// # Examples
///
/// ```
/// use p7_types::{CoreId, CpmId, CpmUnit};
///
/// let cpm = CpmId::new(CoreId::new(0).unwrap(), 2).unwrap();
/// assert_eq!(cpm.unit(), CpmUnit::InstructionSequencing);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CpmUnit {
    /// Instruction fetch unit.
    InstructionFetch,
    /// Fixed-point execution unit.
    FixedPoint,
    /// Instruction sequencing unit.
    InstructionSequencing,
    /// Load/store unit.
    LoadStore,
    /// Floating-point / vector unit.
    FloatingPoint,
}

impl CpmUnit {
    /// The unit hosting CPM slot `slot` (`0..5`), in floorplan order.
    #[must_use]
    pub fn for_slot(slot: usize) -> CpmUnit {
        match slot % CPMS_PER_CORE {
            0 => CpmUnit::InstructionFetch,
            1 => CpmUnit::FixedPoint,
            2 => CpmUnit::InstructionSequencing,
            3 => CpmUnit::LoadStore,
            _ => CpmUnit::FloatingPoint,
        }
    }

    /// Short hardware-style mnemonic (IFU, FXU, ISU, LSU, FPU).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            CpmUnit::InstructionFetch => "IFU",
            CpmUnit::FixedPoint => "FXU",
            CpmUnit::InstructionSequencing => "ISU",
            CpmUnit::LoadStore => "LSU",
            CpmUnit::FloatingPoint => "FPU",
        }
    }
}

impl fmt::Display for CpmUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Identifies one critical path monitor: a core plus the CPM slot inside it.
///
/// # Examples
///
/// ```
/// use p7_types::{CoreId, CpmId};
///
/// let cpm = CpmId::new(CoreId::new(3).unwrap(), 4).unwrap();
/// assert_eq!(cpm.flat_index(), 3 * 5 + 4);
/// assert_eq!(CpmId::all().count(), 40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CpmId {
    core: CoreId,
    slot: u8,
}

impl CpmId {
    /// Creates a CPM id, returning `None` when `slot` is out of range.
    #[must_use]
    pub fn new(core: CoreId, slot: u8) -> Option<Self> {
        (usize::from(slot) < CPMS_PER_CORE).then_some(CpmId { core, slot })
    }

    /// The core this CPM is placed in.
    #[must_use]
    pub fn core(self) -> CoreId {
        self.core
    }

    /// The slot (unit placement) within the core (`0..5`).
    #[must_use]
    pub fn slot(self) -> usize {
        usize::from(self.slot)
    }

    /// Returns a unique chip-wide index in `0..40`.
    #[must_use]
    pub fn flat_index(self) -> usize {
        self.core.index() * CPMS_PER_CORE + self.slot()
    }

    /// The functional unit this CPM is placed in.
    #[must_use]
    pub fn unit(self) -> CpmUnit {
        CpmUnit::for_slot(self.slot())
    }

    /// Iterates over all 40 CPMs of a chip, core-major.
    pub fn all() -> impl Iterator<Item = CpmId> {
        CoreId::all()
            .flat_map(|core| (0..CPMS_PER_CORE as u8).map(move |slot| CpmId { core, slot }))
    }
}

impl fmt::Display for CpmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/CPM{}", self.core, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_id_bounds() {
        assert!(CoreId::new(7).is_some());
        assert!(CoreId::new(8).is_none());
        assert_eq!(CoreId::all().count(), CORES_PER_SOCKET);
    }

    #[test]
    fn grid_positions_match_floorplan() {
        assert_eq!(CoreId::new(0).unwrap().grid_position(), (0, 0));
        assert_eq!(CoreId::new(3).unwrap().grid_position(), (0, 3));
        assert_eq!(CoreId::new(4).unwrap().grid_position(), (1, 0));
        assert_eq!(CoreId::new(7).unwrap().grid_position(), (1, 3));
    }

    #[test]
    fn adjacency_is_symmetric_and_edge_based() {
        let c = |i| CoreId::new(i).unwrap();
        assert!(c(0).is_adjacent(c(1)));
        assert!(c(0).is_adjacent(c(4)));
        assert!(!c(0).is_adjacent(c(5))); // diagonal
        assert!(!c(0).is_adjacent(c(0)));
        for a in CoreId::all() {
            for b in CoreId::all() {
                assert_eq!(a.is_adjacent(b), b.is_adjacent(a));
            }
        }
    }

    #[test]
    fn adjacency_table_matches_the_floorplan_scan() {
        for core in CoreId::all() {
            let expect: Vec<usize> = CoreId::all()
                .filter(|other| core.is_adjacent(*other))
                .map(CoreId::index)
                .collect();
            assert_eq!(ADJACENT_CORES[core.index()], expect.as_slice(), "{core}");
        }
    }

    #[test]
    fn socket_peer_round_trip() {
        let s0 = SocketId::new(0).unwrap();
        assert_eq!(s0.peer().index(), 1);
        assert_eq!(s0.peer().peer(), s0);
        assert!(SocketId::new(2).is_none());
    }

    #[test]
    fn cpm_flat_index_is_unique_and_dense() {
        let indices: Vec<usize> = CpmId::all().map(CpmId::flat_index).collect();
        assert_eq!(indices.len(), 40);
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40);
        assert_eq!(sorted[0], 0);
        assert_eq!(sorted[39], 39);
    }

    #[test]
    fn cpm_slot_bounds() {
        let core = CoreId::new(0).unwrap();
        assert!(CpmId::new(core, 4).is_some());
        assert!(CpmId::new(core, 5).is_none());
    }

    #[test]
    fn cpm_units_cover_all_slots_distinctly() {
        let core = CoreId::new(0).unwrap();
        let units: Vec<CpmUnit> = (0..5)
            .map(|s| CpmId::new(core, s).unwrap().unit())
            .collect();
        let mut dedup = units.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 5, "each slot maps to a distinct unit");
        assert_eq!(units[1].mnemonic(), "FXU");
        assert_eq!(format!("{}", units[3]), "LSU");
    }

    #[test]
    fn display_formats() {
        let cpm = CpmId::new(CoreId::new(2).unwrap(), 1).unwrap();
        assert_eq!(format!("{cpm}"), "Core2/CPM1");
        assert_eq!(format!("{}", SocketId::new(1).unwrap()), "P1");
    }
}
