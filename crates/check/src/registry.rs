//! The model registry: every shipped protocol model, what workspace
//! types it covers, and a deterministic way to run them all.
//!
//! The `covers` lists are load-bearing beyond documentation:
//! grail-lint's `model-coverage` rule scans the workspace for types
//! that implement the protocol-state-machine idiom (a `step`/`advance`
//! method mutating an `EnergyLedger` beside a `grail_par` or
//! `ChaosSchedule` boundary) and demands each one appear in some
//! entry's `covers` list. Deleting a line here, or adding a new
//! protocol state machine without a model, fails the lint — code and
//! proof stay bound.

use crate::models::{ChaosModel, LedgerModel};
use crate::{run_model, Budget, Report};

/// One registered model.
pub struct ModelEntry {
    /// Stable name, usable with `grail-check --model NAME`.
    pub name: &'static str,
    /// One-line description for `--list` output.
    pub about: &'static str,
    /// Workspace types this model covers, as `crate::module::Type`
    /// paths. Read by grail-lint's `model-coverage` rule.
    pub covers: &'static [&'static str],
    /// Check the model under a budget.
    pub run: fn(Budget) -> Report,
}

fn run_chaos(budget: Budget) -> Report {
    run_model(&ChaosModel::reference(), budget)
}

fn run_ledger(budget: Budget) -> Report {
    run_model(&LedgerModel::reference(), budget)
}

fn run_broken(budget: Budget) -> Report {
    run_model(&LedgerModel::broken_control(), budget)
}

/// Every shipped model, in the order the default run checks them.
pub const REGISTRY: &[ModelEntry] = &[
    ModelEntry {
        name: "chaos-failover",
        about: "chaos failover: admission conservation, breaker deadlines, domain-capped placement",
        covers: &["scheduler::chaos::Engine", "scheduler::chaos::FleetState"],
        run: run_chaos,
    },
    ModelEntry {
        name: "ledger-settlement",
        about:
            "ledger discipline: bit-exact conservation, transfer neutrality, settlement liveness",
        covers: &["power::ledger::EnergyLedger"],
        run: run_ledger,
    },
];

/// The seeded negative control. Not part of [`REGISTRY`]: the default
/// run must pass, and this model must fail — CI runs it in a dedicated
/// must-fail leg via `--model broken-ledger`.
pub const BROKEN: ModelEntry = ModelEntry {
    name: "broken-ledger",
    about: "seeded shadow accumulator counting transfers as charges (negative control; must fail)",
    covers: &[],
    run: run_broken,
};

/// Look a model up by name, including the seeded broken one.
pub fn find(name: &str) -> Option<&'static ModelEntry> {
    REGISTRY
        .iter()
        .chain(std::iter::once(&BROKEN))
        .find(|e| e.name == name)
}

/// Check every registered model (the broken control excluded), fanning
/// across `runner` threads, reports in registry order. Deterministic:
/// the runner returns results in input order whatever the thread count,
/// and each model's exploration is itself deterministic, so the full
/// report vector is byte-stable across 1/2/8 threads.
pub fn run_all(budget: Budget, runner: &grail_par::Runner) -> Vec<Report> {
    runner.run(REGISTRY, |_, entry| (entry.run)(budget))
}
