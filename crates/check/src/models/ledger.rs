//! Model of the ledger transfer/settlement discipline.
//!
//! The [`EnergyLedger`] is the audit spine of the whole repo: every
//! subsystem charges components, `transfer` re-attributes joules into
//! `Recovery` without changing the wall-socket total, and a run settles
//! by covering its window. This model runs the *real*
//! [`EnergyLedger`] — the state literally contains one — through every
//! order of a bounded op budget drawn from a dyadic charge palette
//! (0.5/1.0/2.0 J, exact in binary floating point), so conservation can
//! be demanded bit-for-bit, not within a tolerance.
//!
//! Checked obligations:
//!
//! * **conservation** — at every reachable state, `total()` equals the
//!   category sum (`Σ iter()`) *and* the model's own accumulator of
//!   charges, all compared on raw bits;
//! * **transfer neutrality** — `transfer` moves joules between
//!   categories but never mints or burns them (it folds into the same
//!   bit-exact total check), and never drives a component negative;
//! * **settlement liveness** — the `finish` settlement (cover the run
//!   window) is reachable from every reachable state, checked as a
//!   [`Model::goal`] co-reachability obligation over the full graph.
//!
//! [`LedgerModel::broken_control`] is the seeded negative control for
//! the whole pipeline: the same model with a shadow accumulator that
//! counts what a `Transfer` moved as if it had been charged. A test
//! requires the checker to find the breach by its shortest trace (a
//! disk charge, then a transfer that actually moves some of it),
//! proving it can catch the class of bug the faithful models certify
//! the absence of.

use crate::Model;
use grail_power::units::{Joules, SimDuration, SimInstant};
use grail_power::{ComponentId, ComponentKind, EnergyLedger};

const CPU: ComponentId = ComponentId::new(ComponentKind::Cpu, 0);
const DISK: ComponentId = ComponentId::new(ComponentKind::Disk, 0);
const RECOVERY: ComponentId = ComponentId::new(ComponentKind::Recovery, 0);

/// A reachable configuration: the real ledger plus the model's shadow
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerState {
    /// The production ledger under test.
    ledger: EnergyLedger,
    /// Bit-exact shadow of every charge (transfers excluded — they must
    /// not move this).
    charged: f64,
    ops: u32,
    settled: bool,
}

/// One accounting step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LedgerAction {
    /// Charge `component` with a palette amount.
    Charge(ComponentId, f64),
    /// Re-attribute disk work into Recovery (clamped by the ledger).
    Transfer(f64),
    /// Settle: cover the run window and stop accounting.
    Finish,
}

/// The settlement model over a bounded op budget.
pub struct LedgerModel {
    /// Charge/transfer steps allowed before only `Finish` remains.
    max_ops: u32,
    /// The seeded defect: the shadow accumulator also counts transfers.
    shadow_counts_transfers: bool,
}

/// Number of steps in the minimal counterexample for
/// [`LedgerModel::broken_control`] — pinned so its test can assert the
/// exact trace, not just "some trace".
pub const BROKEN_TRACE_LEN: usize = 2;

impl LedgerModel {
    /// The reference instance: three ops from the dyadic palette.
    pub fn reference() -> Self {
        LedgerModel {
            max_ops: 3,
            shadow_counts_transfers: false,
        }
    }

    /// The negative control: [`LedgerModel::reference`] with the seeded
    /// shadow-accounting defect and nothing else changed (see the
    /// module docs). Must fail.
    pub fn broken_control() -> Self {
        LedgerModel {
            shadow_counts_transfers: true,
            ..LedgerModel::reference()
        }
    }

    fn palette(&self) -> [LedgerAction; 5] {
        [
            LedgerAction::Charge(CPU, 0.5),
            LedgerAction::Charge(CPU, 2.0),
            LedgerAction::Charge(DISK, 1.0),
            LedgerAction::Charge(DISK, 2.0),
            LedgerAction::Transfer(0.5),
        ]
    }
}

impl Model for LedgerModel {
    type State = LedgerState;
    type Action = LedgerAction;

    fn name(&self) -> &'static str {
        if self.shadow_counts_transfers {
            "broken-ledger"
        } else {
            "ledger-settlement"
        }
    }

    fn initial(&self) -> LedgerState {
        LedgerState {
            ledger: EnergyLedger::new(),
            charged: 0.0,
            ops: 0,
            settled: false,
        }
    }

    fn actions(&self, s: &LedgerState) -> Vec<LedgerAction> {
        if s.settled {
            return Vec::new();
        }
        let mut out = Vec::new();
        if s.ops < self.max_ops {
            out.extend(self.palette());
        }
        out.push(LedgerAction::Finish);
        out
    }

    fn step(&self, s: &LedgerState, a: &LedgerAction) -> LedgerState {
        let mut t = s.clone();
        match *a {
            LedgerAction::Charge(c, j) => {
                t.ledger.charge(c, Joules::new(j));
                t.charged += j;
                t.ops += 1;
            }
            LedgerAction::Transfer(j) => {
                // The real clamp-to-balance re-attribution.
                let moved = t.ledger.transfer(DISK, RECOVERY, Joules::new(j));
                if self.shadow_counts_transfers {
                    t.charged += moved.joules();
                }
                t.ops += 1;
            }
            LedgerAction::Finish => {
                t.ledger.cover(
                    SimInstant::EPOCH,
                    SimInstant::EPOCH + SimDuration::from_secs(1),
                );
                t.settled = true;
            }
        }
        t
    }

    fn invariant(&self, s: &LedgerState) -> Result<(), String> {
        let total = s.ledger.total().joules();
        // Fold from +0.0: `Iterator::sum` for f64 starts at -0.0, whose
        // bits differ from the +0.0 an empty ledger totals to.
        let by_category: f64 = s.ledger.iter().fold(0.0, |acc, (_, j)| acc + j.joules());
        if total.to_bits() != by_category.to_bits() {
            return Err(format!(
                "ledger total {total} J drifted from its category sum {by_category} J"
            ));
        }
        if total.to_bits() != s.charged.to_bits() {
            return Err(format!(
                "ledger total {total} J != {p} J actually charged — a transfer \
                 minted or burned energy",
                p = s.charged
            ));
        }
        for (id, j) in s.ledger.iter() {
            if j.joules() < 0.0 {
                return Err(format!(
                    "component {id:?} driven negative: {} J",
                    j.joules()
                ));
            }
        }
        Ok(())
    }

    fn terminal(&self, s: &LedgerState) -> Result<(), String> {
        if s.settled {
            Ok(())
        } else {
            Err("accounting stopped without settlement".to_string())
        }
    }

    fn encode(&self, s: &LedgerState, out: &mut Vec<u8>) {
        out.extend_from_slice(&(s.ledger.component_count() as u32).to_le_bytes());
        for (id, j) in s.ledger.iter() {
            out.push(match id.kind {
                ComponentKind::Cpu => 0,
                ComponentKind::Disk => 1,
                ComponentKind::Ssd => 2,
                ComponentKind::Dram => 3,
                ComponentKind::Nic => 4,
                ComponentKind::Base => 5,
                ComponentKind::Recovery => 6,
                ComponentKind::Other => 7,
            });
            out.extend_from_slice(&id.index.to_le_bytes());
            out.extend_from_slice(&j.joules().to_bits().to_le_bytes());
        }
        out.extend_from_slice(&s.charged.to_bits().to_le_bytes());
        out.push(s.ops as u8);
        out.push(u8::from(s.settled));
    }

    fn describe_action(&self, a: &LedgerAction) -> String {
        match *a {
            LedgerAction::Charge(c, j) => format!("charge {} J to {:?}", j, c.kind),
            LedgerAction::Transfer(j) => format!("transfer {j} J disk -> recovery"),
            LedgerAction::Finish => "finish: cover the window and settle".to_string(),
        }
    }

    fn describe_state(&self, s: &LedgerState) -> String {
        format!(
            "total={} J over {} component(s), ops={}, settled={}",
            s.ledger.total().joules(),
            s.ledger.component_count(),
            s.ops,
            s.settled
        )
    }

    fn goal(&self, s: &LedgerState) -> Option<bool> {
        Some(s.settled)
    }
}
