//! The energy ledger as it was before its entries became dense
//! per-kind slots, kept as the oracle the dense ledger is checked
//! against: a `BTreeMap<ComponentId, Joules>` searched from the root per
//! charge, `charge_ascending`'s range walk with its `charge` fallback,
//! and the derived `Debug` and `PartialEq` whose output the dense
//! ledger must reproduce. The struct keeps its name so that its derived
//! `Debug` prints the same type name; `charge_interval` and `efficiency`
//! are left out (no property reads them). Included by
//! `tests/properties.rs`.

use grail_power::ledger::{BreakdownRow, ComponentId, ComponentKind, LedgerOp};
use grail_power::units::{Joules, SimDuration, SimInstant, Watts};
use std::collections::BTreeMap;
use std::fmt;

/// Exact per-component energy accounting over a simulation window.
///
/// Iteration order (and therefore report order) is
/// deterministic: components sort by `(kind, index)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyLedger {
    entries: BTreeMap<ComponentId, Joules>,
    total: Joules,
    window_start: Option<SimInstant>,
    window_end: Option<SimInstant>,
    // Not part of the accounting state. (It *does* participate in
    // `PartialEq`; determinism tests compare ledgers in matching
    // journal modes.)
    journal: Option<Vec<LedgerOp>>,
}

impl EnergyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Debug-only conservation audit: the wall-socket total must equal
    /// the sum over component entries, up to float accumulation order.
    /// Compiled out of release builds (the entry sum is O(components)).
    #[cfg(debug_assertions)]
    fn assert_conserved(&self, op: &str) {
        let sum: f64 = self.entries.values().map(|e| e.joules()).sum();
        let total = self.total.joules();
        let tol = 1e-9_f64.max(total.abs() * 1e-9);
        debug_assert!(
            (sum - total).abs() <= tol,
            "ledger conservation violated after {op}: components sum to {sum} J but \
             total is {total} J"
        );
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn assert_conserved(&self, _op: &str) {}

    /// Start journaling every subsequent [`charge`](Self::charge) and
    /// [`transfer`](Self::transfer) (see [`LedgerOp`]). Idempotent.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Take the recorded journal, turning journaling off. Returns an
    /// empty `Vec` when journaling was never enabled.
    pub fn take_journal(&mut self) -> Vec<LedgerOp> {
        self.journal.take().unwrap_or_default()
    }

    /// Credit `energy` to `component`.
    pub fn charge(&mut self, component: ComponentId, energy: Joules) {
        *self.entries.entry(component).or_insert(Joules::ZERO) += energy;
        self.total += energy;
        if let Some(journal) = &mut self.journal {
            journal.push(LedgerOp::Charge { component, energy });
        }
        self.assert_conserved("charge");
    }

    /// Credit every `(component, energy)` pair, in the order given.
    ///
    /// Defined as one [`charge`](Self::charge) per pair in that order, and
    /// equal to it bit for bit: the same `+=` on each entry, the same
    /// running `total +=` sequence, the same journal pushes. What differs
    /// is the cost when the components strictly ascend and already have
    /// entries — a fleet settling its machines: the component map is
    /// walked once, in order, instead of searched from the root per pair.
    /// A component the walk does not meet (absent, repeated, or behind
    /// it) goes through `charge` itself, and the walk resumes after it.
    pub fn charge_ascending(&mut self, charges: impl IntoIterator<Item = (ComponentId, Joules)>) {
        let mut charges = charges.into_iter();
        let mut next = charges.next();
        while let Some((first, _)) = next {
            let mut walk = self.entries.range_mut(first..);
            while let Some((component, energy)) = next {
                match walk.find(|(id, _)| **id >= component) {
                    Some((id, entry)) if *id == component => *entry += energy,
                    _ => break,
                }
                self.total += energy;
                if let Some(journal) = &mut self.journal {
                    journal.push(LedgerOp::Charge { component, energy });
                }
                next = charges.next();
            }
            if let Some((component, energy)) = next {
                self.charge(component, energy);
                next = charges.next();
            }
        }
        self.assert_conserved("charge_ascending");
    }

    /// Extend the covered time window to include `[start, end]`.
    pub fn cover(&mut self, start: SimInstant, end: SimInstant) {
        self.window_start = Some(match self.window_start {
            Some(s) => s.min(start),
            None => start,
        });
        self.window_end = Some(match self.window_end {
            Some(e) => e.max(end),
            None => end,
        });
    }

    /// Total energy across all components.
    #[inline]
    pub fn total(&self) -> Joules {
        self.total
    }

    /// The covered simulated window, if [`EnergyLedger::cover`] was called.
    pub fn window(&self) -> Option<(SimInstant, SimInstant)> {
        Some((self.window_start?, self.window_end?))
    }

    /// The window's length, or zero if uncovered.
    pub fn elapsed(&self) -> SimDuration {
        match self.window() {
            Some((s, e)) => e.saturating_duration_since(s),
            None => SimDuration::ZERO,
        }
    }

    /// Average total power over the covered window.
    pub fn avg_power(&self) -> Watts {
        self.total.avg_power_over(self.elapsed())
    }

    /// Energy consumed by one component.
    pub fn component(&self, id: ComponentId) -> Joules {
        self.entries.get(&id).copied().unwrap_or(Joules::ZERO)
    }

    /// Energy consumed by all components of `kind`.
    pub fn kind_total(&self, kind: ComponentKind) -> Joules {
        self.entries
            .iter()
            .filter(|(id, _)| id.kind == kind)
            .map(|(_, e)| *e)
            .sum()
    }

    /// Fraction of total energy consumed by `kind` (0 if ledger empty).
    pub fn kind_share(&self, kind: ComponentKind) -> f64 {
        if self.total.joules() <= 0.0 {
            0.0
        } else {
            self.kind_total(kind).joules() / self.total.joules()
        }
    }

    /// Per-category breakdown, sorted by category, with shares.
    pub fn breakdown(&self) -> Vec<BreakdownRow> {
        let mut by_kind: BTreeMap<ComponentKind, Joules> = BTreeMap::new();
        for (id, e) in &self.entries {
            *by_kind.entry(id.kind).or_insert(Joules::ZERO) += *e;
        }
        by_kind
            .into_iter()
            .map(|(kind, energy)| BreakdownRow {
                kind,
                energy,
                share: if self.total.joules() > 0.0 {
                    energy.joules() / self.total.joules()
                } else {
                    0.0
                },
            })
            .collect()
    }

    /// All `(component, energy)` entries in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (ComponentId, Joules)> + '_ {
        self.entries.iter().map(|(id, e)| (*id, *e))
    }

    /// Number of distinct components charged.
    pub fn component_count(&self) -> usize {
        self.entries.len()
    }

    /// Re-attribute up to `energy` from `from` to `to`, clamped to
    /// `from`'s current balance (never drives a component negative).
    /// The ledger total is unchanged — this moves Joules between
    /// categories, it does not create them. Returns the amount moved.
    ///
    /// Used to carve failure-handling work (rebuild IO, retried
    /// requests) out of the physical component that performed it and
    /// into [`ComponentKind::Recovery`].
    pub fn transfer(&mut self, from: ComponentId, to: ComponentId, energy: Joules) -> Joules {
        #[cfg(debug_assertions)]
        let total_before = self.total.joules().to_bits();
        let avail = self.component(from);
        let moved = Joules::new(energy.joules().min(avail.joules()).max(0.0));
        if moved.joules() > 0.0 {
            self.entries.insert(from, avail - moved);
            *self.entries.entry(to).or_insert(Joules::ZERO) += moved;
            if let Some(journal) = &mut self.journal {
                journal.push(LedgerOp::Transfer { from, to, moved });
            }
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.total.joules().to_bits(),
            total_before,
            "transfer must leave the wall-socket total bit-identical"
        );
        self.assert_conserved("transfer");
        moved
    }

    /// Fold another ledger into this one (component-wise sum, union
    /// window).
    pub fn merge(&mut self, other: &EnergyLedger) {
        for (id, e) in other.iter() {
            self.charge(id, e);
        }
        if let Some((s, e)) = other.window() {
            self.cover(s, e);
        }
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total {} over {} (avg {})",
            self.total,
            self.elapsed(),
            self.avg_power()
        )?;
        for row in self.breakdown() {
            writeln!(
                f,
                "  {:<6} {:>12}  {:>5.1}%",
                row.kind.to_string(),
                row.energy.to_string(),
                row.share * 100.0
            )?;
        }
        Ok(())
    }
}
