//! Shared physical units, identifiers and deterministic seeding for the
//! POWER7+ adaptive-guardband simulator.
//!
//! Every other crate in the workspace builds on these types. They exist to
//! make electrical quantities type-safe (a [`Volts`] can never be added to an
//! [`Amps`] by accident) and to make the whole simulation deterministic:
//! every stochastic component derives its randomness from a [`SplitMix64`]
//! stream seeded through [`seed_for`].
//!
//! # Examples
//!
//! ```
//! use p7_types::{Volts, Amps, Ohms, Watts};
//!
//! let loadline = Ohms(0.6e-3);
//! let current = Amps(100.0);
//! let drop: Volts = loadline * current;
//! assert!((drop.0 - 0.06).abs() < 1e-12);
//!
//! let power: Watts = Volts(1.2) * current;
//! assert_eq!(power, Watts(120.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod ids;
pub mod memo;
pub mod rng;
pub mod units;

pub use hash::{fingerprint, fnv64};
pub use ids::{
    CoreId, CpmId, CpmUnit, SocketId, ADJACENT_CORES, CORES_PER_SOCKET, CPMS_PER_CORE,
    CPMS_PER_SOCKET, NUM_SOCKETS,
};
pub use memo::LastEval;
pub use rng::{seed_for, seed_for_indexed, splitmix, SplitMix64};
pub use units::{Amps, Celsius, Joules, MegaHertz, Ohms, Seconds, Volts, Watts};
