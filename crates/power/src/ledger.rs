//! The energy ledger: exact, per-component energy accounting.
//!
//! Every simulated component settles its consumed Joules here. The ledger
//! is the software stand-in for the wall-socket power meter of the paper's
//! experiments, but with per-component resolution — which is exactly what
//! the paper laments real meters cannot give ("most of this past work has
//! been application and database agnostic").

use crate::units::{EnergyEfficiency, Joules, SimDuration, SimInstant, Watts};
use std::fmt;

/// Coarse component category, used for power-breakdown reports (e.g. the
/// paper's ">50% of system power is the disk subsystem" claim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComponentKind {
    /// Processor packages/cores.
    Cpu,
    /// Rotating disks.
    Disk,
    /// Solid-state drives.
    Ssd,
    /// Main memory.
    Dram,
    /// Network interfaces.
    Nic,
    /// Chassis, fans, power-supply losses, motherboard — the constant
    /// floor.
    Base,
    /// Failure-handling work: RAID rebuilds, degraded-mode
    /// reconstruction, retried IO, failed spin-ups. Energy here is
    /// *re-attributed* from the physical component that performed the
    /// work (see [`EnergyLedger::transfer`]), so the ledger total still
    /// matches the wall socket.
    Recovery,
    /// Anything else.
    Other,
}

impl ComponentKind {
    /// Stable lowercase name: the `Display` form, and the `kind` half
    /// of a [`ComponentId`]'s `kind[index]` label.
    pub const fn name(self) -> &'static str {
        match self {
            ComponentKind::Cpu => "cpu",
            ComponentKind::Disk => "disk",
            ComponentKind::Ssd => "ssd",
            ComponentKind::Dram => "dram",
            ComponentKind::Nic => "nic",
            ComponentKind::Base => "base",
            ComponentKind::Recovery => "recovery",
            ComponentKind::Other => "other",
        }
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Identity of one physical component instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId {
    /// The component's category.
    pub kind: ComponentKind,
    /// Instance number within the category (disk 0, disk 1, …).
    pub index: u32,
}

impl ComponentId {
    /// A component id.
    pub const fn new(kind: ComponentKind, index: u32) -> Self {
        ComponentId { kind, index }
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.kind, self.index)
    }
}

/// Share of one component category in a breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakdownRow {
    /// Category.
    pub kind: ComponentKind,
    /// Energy the category consumed.
    pub energy: Joules,
    /// Fraction of the ledger total in [0, 1].
    pub share: f64,
}

/// One audited ledger movement, recorded when journaling is enabled
/// (see [`EnergyLedger::enable_journal`]). The journal is how the
/// trace layer observes *every* charge and transfer without the ledger
/// taking a dependency on it: the simulator drains the journal into
/// trace events at settlement time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LedgerOp {
    /// `energy` was credited to `component`.
    Charge {
        /// Charged component.
        component: ComponentId,
        /// Amount credited.
        energy: Joules,
    },
    /// `moved` Joules were re-attributed `from → to` (total unchanged).
    Transfer {
        /// Source component.
        from: ComponentId,
        /// Destination component.
        to: ComponentId,
        /// Amount actually moved after clamping.
        moved: Joules,
    },
}

/// Every [`ComponentKind`], in declaration (and so report) order.
const KINDS: [ComponentKind; 8] = {
    use ComponentKind::*;
    [Cpu, Disk, Ssd, Dram, Nic, Base, Recovery, Other]
};

/// Exact per-component energy accounting over a simulation window.
///
/// Iteration order (and therefore report order) is
/// deterministic: components sort by `(kind, index)`.
///
/// Entries sit in one slot per index of each kind: a charge is an indexed
/// add, and memory is O(largest index per kind), which every caller's
/// dense numbering keeps small (machines, devices, `Bases`-shifted cells).
/// Readers, `==` and `Debug` see the entries present, never the slots.
///
/// The accounting fields are private, which is what keeps
/// `total = Σ entries`: outside this module a Joule moves only through
/// [`charge`](Self::charge), [`charge_all`](Self::charge_all),
/// [`charge_draws`](Self::charge_draws),
/// [`charge_interval`](Self::charge_interval) or
/// [`transfer`](Self::transfer), and no code can even read a field:
///
/// ```compile_fail,E0616
/// let ledger = grail_power::EnergyLedger::new();
/// let _total = ledger.total;
/// ```
///
/// ```compile_fail,E0616
/// let ledger = grail_power::EnergyLedger::new();
/// let _components = ledger.entries.len();
/// ```
#[derive(Clone, Default)]
pub struct EnergyLedger {
    /// Slot `[kind as usize][index]`: `None` where nothing was charged.
    entries: [Vec<Option<Joules>>; 8],
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
        let entries = self.entries.iter().flatten().flatten();
        let sum = entries.copied().sum::<Joules>().joules();
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

    /// Grow `kind`'s slots to hold `index`.
    #[inline]
    fn grow(&mut self, kind: ComponentKind, index: u32) {
        let slots = &mut self.entries[kind as usize];
        let len = index as usize + 1;
        if slots.len() < len {
            slots.resize(len, None);
        }
    }

    /// `component`'s entry, created at zero if absent.
    #[inline]
    fn entry(&mut self, component: ComponentId) -> &mut Joules {
        self.grow(component.kind, component.index);
        let slot = &mut self.entries[component.kind as usize][component.index as usize];
        slot.get_or_insert(Joules::ZERO)
    }

    /// The one charge loop: credit each `(index, energy)` of `run`, in
    /// order, to `kind`'s slot `index` (grown already) and to the total,
    /// journaling it when the journal is on. One loop per journal mode,
    /// the total kept in a local: the same `+=` sequence as a `charge`
    /// per pair.
    #[inline]
    fn credit(&mut self, kind: ComponentKind, run: impl IntoIterator<Item = (u32, Joules)>) {
        let slots = &mut self.entries[kind as usize];
        let mut total = self.total;
        let mut add = |index: u32, energy: Joules| {
            *slots[index as usize].get_or_insert(Joules::ZERO) += energy;
            total += energy;
        };
        let run = run.into_iter();
        match &mut self.journal {
            None => run.for_each(|(index, energy)| add(index, energy)),
            Some(journal) => run.for_each(|(index, energy)| {
                add(index, energy);
                let component = ComponentId::new(kind, index);
                journal.push(LedgerOp::Charge { component, energy });
            }),
        }
        self.total = total;
    }

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
        self.charge_all([(component, energy)]);
    }

    /// Credit `power × duration` to `component`.
    pub fn charge_interval(&mut self, component: ComponentId, power: Watts, d: SimDuration) {
        self.charge(component, power * d);
    }

    /// Credit every `(component, energy)` pair, in the order given: one
    /// [`charge`](Self::charge) per pair, bit for bit (the same `+=` on
    /// each entry, the same running `total +=` sequence, the same journal
    /// pushes), audited once for the batch instead of once per pair.
    pub fn charge_all(&mut self, charges: impl IntoIterator<Item = (ComponentId, Joules)>) {
        for (ComponentId { kind, index }, energy) in charges {
            self.grow(kind, index);
            self.credit(kind, [(index, energy)]);
        }
        self.assert_conserved("charge");
    }

    /// Credit each `(index, power)` draw of `kind` with `power × d`, in
    /// order: bit for bit the [`charge_all`](Self::charge_all) of
    /// `(ComponentId::new(kind, index), power * d)` pairs, with `d`
    /// converted to seconds once and `kind`'s slots grown once — a
    /// fleet settling its powered machines over one interval.
    ///
    /// # Panics
    /// If the indices do not ascend and one larger than the last lies
    /// past `kind`'s slots: the slots are grown to the last index only.
    pub fn charge_draws(&mut self, kind: ComponentKind, draws: &[(u32, Watts)], d: SimDuration) {
        debug_assert!(
            draws.windows(2).all(|w| w[0].0 <= w[1].0),
            "charge_draws needs ascending indices"
        );
        if let Some(&(last, _)) = draws.last() {
            self.grow(kind, last);
        }
        let secs = d.as_secs_f64();
        self.credit(kind, draws.iter().map(|&(i, w)| (i, w.for_secs(secs))));
        self.assert_conserved("charge_draws");
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
        let slot = self.entries[id.kind as usize].get(id.index as usize);
        slot.copied().flatten().unwrap_or(Joules::ZERO)
    }

    /// Energy consumed by all components of `kind`.
    pub fn kind_total(&self, kind: ComponentKind) -> Joules {
        self.entries[kind as usize].iter().flatten().copied().sum()
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
        (KINDS.into_iter())
            .filter(|&kind| self.entries[kind as usize].iter().any(Option::is_some))
            .map(|kind| BreakdownRow {
                kind,
                energy: self.kind_total(kind),
                share: self.kind_share(kind),
            })
            .collect()
    }

    /// All `(component, energy)` entries in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (ComponentId, Joules)> + '_ {
        let kinds = KINDS.into_iter().zip(&self.entries);
        kinds.flat_map(|(kind, slots)| {
            let slots = slots.iter().enumerate();
            slots.filter_map(move |(i, e)| Some((ComponentId::new(kind, i as u32), (*e)?)))
        })
    }

    /// Number of distinct components charged.
    pub fn component_count(&self) -> usize {
        self.entries.iter().flatten().flatten().count()
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
            *self.entry(from) = avail - moved;
            *self.entry(to) += moved;
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
        self.charge_all(other.iter());
        if let Some((s, e)) = other.window() {
            self.cover(s, e);
        }
    }

    /// Energy efficiency for `work` units of work against this ledger's
    /// total energy.
    pub fn efficiency(&self, work: f64) -> EnergyEfficiency {
        EnergyEfficiency::from_work_energy(work, self.total)
    }
}

/// Equal entries present, total, window and journal; slots do not count.
impl PartialEq for EnergyLedger {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
            && self.total == other.total
            && (self.window_start, self.window_end) == (other.window_start, other.window_end)
            && self.journal == other.journal
    }
}

/// The entries printed as the sorted map they once were.
struct Entries<'a>(&'a EnergyLedger);

impl fmt::Debug for Entries<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.0.iter()).finish()
    }
}

impl fmt::Debug for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnergyLedger")
            .field("entries", &Entries(self))
            .field("total", &self.total)
            .field("window_start", &self.window_start)
            .field("window_end", &self.window_end)
            .field("journal", &self.journal)
            .finish()
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

#[cfg(test)]
mod tests {
    use super::*;

    const DISK0: ComponentId = ComponentId::new(ComponentKind::Disk, 0);
    const DISK1: ComponentId = ComponentId::new(ComponentKind::Disk, 1);
    const CPU0: ComponentId = ComponentId::new(ComponentKind::Cpu, 0);

    #[test]
    fn charge_and_totals() {
        let mut l = EnergyLedger::new();
        l.charge(DISK0, Joules::new(10.0));
        l.charge(DISK1, Joules::new(20.0));
        l.charge(CPU0, Joules::new(70.0));
        assert!((l.total().joules() - 100.0).abs() < 1e-12);
        assert!((l.kind_total(ComponentKind::Disk).joules() - 30.0).abs() < 1e-12);
        assert!((l.kind_share(ComponentKind::Disk) - 0.3).abs() < 1e-12);
        assert_eq!(l.component_count(), 3);
        assert_eq!(
            l.component(ComponentId::new(ComponentKind::Nic, 0)),
            Joules::ZERO
        );
    }

    #[test]
    fn charge_interval_is_watts_times_time() {
        let mut l = EnergyLedger::new();
        l.charge_interval(CPU0, Watts::new(90.0), SimDuration::from_secs_f64(3.2));
        assert!((l.total().joules() - 288.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_shares_sum_to_one() {
        let mut l = EnergyLedger::new();
        l.charge(DISK0, Joules::new(55.0));
        l.charge(CPU0, Joules::new(30.0));
        l.charge(ComponentId::new(ComponentKind::Base, 0), Joules::new(15.0));
        let rows = l.breakdown();
        let sum: f64 = rows.iter().map(|r| r.share).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Deterministic category order: Cpu < Disk < ... (enum order).
        assert_eq!(rows[0].kind, ComponentKind::Cpu);
        assert_eq!(rows[1].kind, ComponentKind::Disk);
    }

    #[test]
    fn window_and_avg_power() {
        let mut l = EnergyLedger::new();
        let t0 = SimInstant::EPOCH;
        let t1 = t0 + SimDuration::from_secs(10);
        l.cover(t0, t1);
        l.charge(DISK0, Joules::new(50.0));
        assert_eq!(l.elapsed(), SimDuration::from_secs(10));
        assert!((l.avg_power().get() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_and_extends() {
        let mut a = EnergyLedger::new();
        a.charge(DISK0, Joules::new(1.0));
        a.cover(SimInstant::EPOCH, SimInstant::from_nanos(5));
        let mut b = EnergyLedger::new();
        b.charge(DISK0, Joules::new(2.0));
        b.charge(CPU0, Joules::new(3.0));
        b.cover(SimInstant::from_nanos(3), SimInstant::from_nanos(9));
        a.merge(&b);
        assert!((a.component(DISK0).joules() - 3.0).abs() < 1e-12);
        assert!((a.total().joules() - 6.0).abs() < 1e-12);
        assert_eq!(
            a.window(),
            Some((SimInstant::EPOCH, SimInstant::from_nanos(9)))
        );
    }

    #[test]
    fn transfer_moves_without_changing_total() {
        let mut l = EnergyLedger::new();
        l.charge(DISK0, Joules::new(100.0));
        let rec = ComponentId::new(ComponentKind::Recovery, 0);
        let moved = l.transfer(DISK0, rec, Joules::new(30.0));
        assert!((moved.joules() - 30.0).abs() < 1e-12);
        assert!((l.component(DISK0).joules() - 70.0).abs() < 1e-12);
        assert!((l.component(rec).joules() - 30.0).abs() < 1e-12);
        assert!((l.total().joules() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_clamps_to_balance() {
        let mut l = EnergyLedger::new();
        l.charge(DISK0, Joules::new(10.0));
        let rec = ComponentId::new(ComponentKind::Recovery, 0);
        let moved = l.transfer(DISK0, rec, Joules::new(50.0));
        assert!((moved.joules() - 10.0).abs() < 1e-12);
        assert!(l.component(DISK0).joules().abs() < 1e-12);
        // Transfer from an uncharged component moves nothing.
        let moved = l.transfer(CPU0, rec, Joules::new(5.0));
        assert_eq!(moved, Joules::ZERO);
        assert!((l.total().joules() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_is_harmless() {
        let l = EnergyLedger::new();
        assert_eq!(l.total(), Joules::ZERO);
        assert_eq!(l.avg_power(), Watts::ZERO);
        assert_eq!(l.kind_share(ComponentKind::Disk), 0.0);
        assert!(l.breakdown().is_empty());
        assert_eq!(l.window(), None);
    }

    #[test]
    fn journal_records_charges_and_transfers_in_order() {
        let mut l = EnergyLedger::new();
        l.charge(DISK0, Joules::new(5.0)); // before enable: not journaled
        l.enable_journal();
        l.enable_journal(); // idempotent
        l.charge(CPU0, Joules::new(2.0));
        let rec = ComponentId::new(ComponentKind::Recovery, 0);
        l.transfer(DISK0, rec, Joules::new(1.0));
        l.transfer(CPU0, rec, Joules::new(0.0)); // no-op move: not journaled
        let ops = l.take_journal();
        assert_eq!(ops.len(), 2);
        assert_eq!(
            ops[0],
            LedgerOp::Charge {
                component: CPU0,
                energy: Joules::new(2.0)
            }
        );
        assert_eq!(
            ops[1],
            LedgerOp::Transfer {
                from: DISK0,
                to: rec,
                moved: Joules::new(1.0)
            }
        );
        // Journaling off again after take; totals were unaffected.
        assert!(l.take_journal().is_empty());
        assert!((l.total().joules() - 7.0).abs() < 1e-12);
    }

    /// Every bit a ledger holds, journal included.
    fn bits(l: &EnergyLedger) -> (u64, Vec<(ComponentId, u64)>, Option<Vec<LedgerOp>>) {
        let entries = l.iter().map(|(id, e)| (id, e.joules().to_bits())).collect();
        (l.total().joules().to_bits(), entries, l.journal.clone())
    }

    #[test]
    fn charge_all_is_the_loop_of_charge_bit_for_bit() {
        let id = |kind, index| ComponentId::new(kind, index);
        let base = |i| id(ComponentKind::Base, i);
        // Amounts whose sums round differently in a different order.
        let j = |k: u32| Joules::new(0.1 * f64::from(k + 1) + 1e-7 / f64::from(k + 1));
        let ascending: Vec<_> = (0..40).map(|i| (base(i), j(i))).collect();
        let descending: Vec<_> = ascending.iter().rev().copied().collect();
        let repeated: Vec<_> = (0..40).map(|i| (base(i / 3), j(i))).collect();
        let interleaved: Vec<_> = (0..40)
            .map(|i| {
                let kind = [
                    ComponentKind::Recovery,
                    ComponentKind::Cpu,
                    ComponentKind::Base,
                ][i as usize % 3];
                (id(kind, i / 2), j(i))
            })
            .collect();
        let partly_absent: Vec<_> = (0..40).map(|i| (base(2 * i + 1), j(i))).collect();
        for charges in [
            ascending,
            descending,
            repeated,
            interleaved,
            partly_absent,
            Vec::new(),
        ] {
            for journaled in [false, true] {
                // Pre-existing entries: Base 0, 3, 6, … and a Recovery line.
                let mut one_by_one = EnergyLedger::new();
                for i in (0..60).step_by(3) {
                    one_by_one.charge(base(i), j(i));
                }
                one_by_one.charge(id(ComponentKind::Recovery, 0), j(7));
                if journaled {
                    one_by_one.enable_journal();
                }
                let mut batched = one_by_one.clone();
                for &(component, energy) in &charges {
                    one_by_one.charge(component, energy);
                }
                batched.charge_all(charges.iter().copied());
                assert_eq!(bits(&batched), bits(&one_by_one));
                assert_eq!(batched.component_count(), one_by_one.component_count());
                assert_eq!(batched, one_by_one);
            }
        }
    }

    #[test]
    fn charge_all_creates_an_entry_for_a_zero_charge() {
        let mut l = EnergyLedger::new();
        l.charge_all([(DISK0, Joules::ZERO), (DISK1, Joules::ZERO)]);
        assert_eq!(l.component_count(), 2, "as `charge` does");
        assert_eq!(l.total(), Joules::ZERO);
        l.charge_all([(DISK0, Joules::ZERO)]);
        assert_eq!(l.component_count(), 2);
    }

    #[test]
    fn a_far_index_charges_iterates_in_order_and_round_trips_a_transfer() {
        let far = ComponentId::new(ComponentKind::Disk, 1 << 20);
        let far_rec = ComponentId::new(ComponentKind::Recovery, 1 << 20);
        let mut l = EnergyLedger::new();
        l.charge(far, Joules::new(4.0));
        l.charge(DISK0, Joules::new(1.0));
        l.charge(CPU0, Joules::new(2.0));
        assert_eq!(l.component(far), Joules::new(4.0));
        assert_eq!(l.transfer(far, far_rec, Joules::new(3.0)), Joules::new(3.0));
        assert_eq!(l.transfer(far_rec, far, Joules::new(5.0)), Joules::new(3.0));
        let entries: Vec<_> = l.iter().collect();
        assert_eq!(
            entries,
            [
                (CPU0, Joules::new(2.0)),
                (DISK0, Joules::new(1.0)),
                (far, Joules::new(4.0)),
                (far_rec, Joules::ZERO),
            ]
        );
        assert_eq!(l.component_count(), 4);
        assert_eq!(l.total(), Joules::new(7.0));
    }

    #[test]
    fn efficiency_from_ledger() {
        let mut l = EnergyLedger::new();
        l.charge(CPU0, Joules::new(200.0));
        let ee = l.efficiency(100.0);
        assert!((ee.work_per_joule() - 0.5).abs() < 1e-12);
    }
}
