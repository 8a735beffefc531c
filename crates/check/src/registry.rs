//! The model registry: every shipped protocol model, and the seeded
//! negative control beside it. Each entry checks its model under a
//! budget; the [`Report`] carries the model's name.
//!
//! What binds a model to the shipped code is that its `step` calls the
//! production transition function its entry's doc names: rename or
//! re-sign that function and this crate stops compiling.

use crate::models::{ChaosModel, LedgerModel};
use crate::{run_model, Budget, Report};

/// `scheduler::chaos::FleetState::apply`: admission conservation,
/// breaker deadlines, domain-capped placement.
pub const CHAOS_FAILOVER: fn(Budget) -> Report =
    |budget| run_model(&ChaosModel::reference(), budget);

/// `EnergyLedger::{charge, transfer, cover}`: bit-exact conservation,
/// transfer neutrality, settlement liveness.
pub const LEDGER_SETTLEMENT: fn(Budget) -> Report =
    |budget| run_model(&LedgerModel::reference(), budget);

/// Every shipped model; each must pass.
pub const REGISTRY: &[fn(Budget) -> Report] = &[CHAOS_FAILOVER, LEDGER_SETTLEMENT];

/// The seeded negative control, not part of [`REGISTRY`]:
/// `EnergyLedger::{charge, transfer, cover}` beside a shadow accumulator
/// that counts transfers as charges. It must fail, and `tests/models.rs`
/// pins its minimized trace.
pub const BROKEN: fn(Budget) -> Report = |budget| run_model(&LedgerModel::broken_control(), budget);
