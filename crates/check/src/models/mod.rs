//! The shipped protocol models.
//!
//! Each submodule turns one production protocol into a [`Model`]
//! implementation that drives the *real* transition code — the
//! `FleetState::apply` refactor in `grail_scheduler::chaos` exists
//! precisely so the model and the production loop share one copy of
//! the logic, and the ledger model's state literally contains an
//! `EnergyLedger`. [`LedgerModel::broken_control`] is the seeded
//! negative control, which `tests/models.rs` requires to fail.
//!
//! [`Model`]: crate::Model

pub mod chaos;
pub mod ledger;

pub use chaos::ChaosModel;
pub use ledger::{LedgerModel, BROKEN_TRACE_LEN};
