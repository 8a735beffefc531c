//! # grail-power — power and energy models
//!
//! The substrate every other GRAIL crate builds on: dimensioned units,
//! power-state machines with transition costs, per-component power models
//! calibrated to the hardware classes of Harizopoulos et al. (CIDR 2009),
//! an exact interval-based **energy ledger**, energy-proportionality
//! metrics in the sense of Barroso & Hölzle, and a DVFS model.
//!
//! ## Design rules
//!
//! * **No raw `f64` power math across module boundaries.** [`units`]
//!   defines newtypes ([`units::Watts`], [`units::Joules`],
//!   [`units::SimDuration`], …) and implements only dimensionally sound
//!   arithmetic (`Watts * SimDuration = Joules`, `Joules / SimDuration =
//!   Watts`, …).
//! * **Closed-form integration.** Components report *intervals* spent in a
//!   power state; the [`ledger::EnergyLedger`] integrates `P·Δt` exactly.
//!   There is no sampling and no wall-clock dependence, so energy results
//!   are deterministic and unit-testable to float epsilon.
//! * **Transitions are first-class.** Real devices pay latency *and*
//!   energy to change power states (disk spin-up being the canonical
//!   example, Sec. 4.2 of the paper). A [`state::PowerStateMachine`] is
//!   active, idle or — given a [`state::Spin`] — standby: active ↔ idle
//!   is free, idle ↔ standby is charged, and nothing else is allowed.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod components;
pub mod dvfs;
pub mod error;
pub mod ledger;
pub mod proportionality;
pub mod state;
pub mod tco;
pub mod units;

pub use error::PowerError;
pub use ledger::{ComponentId, ComponentKind, EnergyLedger, LedgerOp};
pub use state::{PowerState, PowerStateMachine, Spin, Transition};
pub use units::{
    Bytes, Cycles, EnergyEfficiency, Hertz, JouleSeconds, Joules, SimDuration, SimInstant, Watts,
};
