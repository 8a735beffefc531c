//! Property-based tests for the power substrate's core invariants.

#[path = "common/btree_ledger.rs"]
mod btree;
#[path = "common/graph_machine.rs"]
mod graph;

use grail_power::components::{CpuPowerProfile, DiskPowerProfile, SsdPowerProfile};
use grail_power::ledger::{ComponentId, ComponentKind, EnergyLedger};
use grail_power::proportionality::PowerCurve;
use grail_power::state::{MachineSummary, PowerState, PowerStateMachine};
use grail_power::units::{EnergyEfficiency, Joules, SimDuration, SimInstant, Watts};
use grail_power::PowerError;
use grail_prop::{check, Gen};

/// The case count these properties have always run at.
const CASES: u32 = 256;

/// Seconds on a microsecond grid.
fn small_secs(g: &mut Gen) -> f64 {
    (g.range(0.0f64..100_000.0) * 1e6).round() / 1e6
}

/// Energy integration is additive: charging [a,b] then [b,c] equals
/// charging [a,c] at the same power.
#[test]
fn ledger_interval_additivity() {
    check(CASES, |g| {
        let (d1, d2, w) = (small_secs(g), small_secs(g), g.range(0.0f64..10_000.0));
        let id = ComponentId::new(ComponentKind::Disk, 0);
        let p = Watts::new(w);
        let mut split = EnergyLedger::new();
        split.charge_interval(id, p, SimDuration::from_secs_f64(d1));
        split.charge_interval(id, p, SimDuration::from_secs_f64(d2));
        let mut whole = EnergyLedger::new();
        whole.charge_interval(
            id,
            p,
            SimDuration::from_secs_f64(d1) + SimDuration::from_secs_f64(d2),
        );
        let a = split.total().joules();
        let b = whole.total().joules();
        assert!((a - b).abs() <= 1e-6 * a.max(b).max(1.0));
    });
}

/// The two EE formulations agree for any fixed work/time/power.
#[test]
fn ee_formulations_agree() {
    check(CASES, |g| {
        let work = g.range(0.0f64..1e9);
        let (secs, watts) = (g.range(1e-6f64..1e6), g.range(1e-6f64..1e6));
        let t = SimDuration::from_secs_f64(secs);
        let p = Watts::new(watts);
        let e1 = EnergyEfficiency::from_work_energy(work, p * t);
        let e2 = EnergyEfficiency::from_perf_power(work / t.as_secs_f64(), p);
        let (a, b) = (e1.work_per_joule(), e2.work_per_joule());
        assert!((a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0));
    });
}

/// Ledger merge is commutative in totals and per-component sums.
#[test]
fn ledger_merge_commutes() {
    check(CASES, |g| {
        let charges = g.vec(0..20, |g| (g.range(0u32..4), g.range(0.0f64..1e6)));
        let mut l1 = EnergyLedger::new();
        let mut l2 = EnergyLedger::new();
        for (i, (idx, j)) in charges.iter().enumerate() {
            let id = ComponentId::new(ComponentKind::Disk, *idx);
            if i % 2 == 0 {
                l1.charge(id, Joules::new(*j));
            } else {
                l2.charge(id, Joules::new(*j));
            }
        }
        let mut ab = l1.clone();
        ab.merge(&l2);
        let mut ba = l2.clone();
        ba.merge(&l1);
        assert!((ab.total().joules() - ba.total().joules()).abs() < 1e-6);
        for idx in 0..4 {
            let id = ComponentId::new(ComponentKind::Disk, idx);
            assert!((ab.component(id).joules() - ba.component(id).joules()).abs() < 1e-6);
        }
    });
}

/// Power curves are monotone non-decreasing in utilization.
#[test]
fn power_curve_monotone() {
    check(CASES, |g| {
        let (idle, extra) = (g.range(0.0f64..500.0), g.range(0.0f64..500.0));
        let (u1, u2) = (g.range(0.0f64..1.0), g.range(0.0f64..1.0));
        let c = PowerCurve::linear(Watts::new(idle), Watts::new(idle + extra));
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        assert!(c.power_at(lo).get() <= c.power_at(hi).get() + 1e-9);
    });
}

/// A state machine's total energy equals the sum of its per-state
/// energies plus its transition energy, for an arbitrary schedule of
/// idle/active toggles and occasional standby round trips.
#[test]
fn machine_energy_conserved() {
    use PowerState::{Active, Idle, Standby};
    check(CASES, |g| {
        let gaps = g.vec(1..30, |g| g.range(0.01f64..50.0));
        let profile = DiskPowerProfile::scsi_15k();
        let mut m = profile.machine(SimInstant::EPOCH);
        let mut t = SimInstant::EPOCH;
        let mut next_active = true;
        for (i, gap) in gaps.iter().enumerate() {
            t += SimDuration::from_secs_f64(*gap);
            if let Some(done) = m.busy_until() {
                if t < done {
                    t = done;
                }
            }
            if i % 5 == 4 {
                // Park and immediately schedule wake after the spin-down.
                if m.current() == Idle {
                    let done = m.set_state(t, Standby).unwrap();
                    t = done + SimDuration::from_secs_f64(*gap);
                    let woke = m.set_state(t, Idle).unwrap();
                    t = woke;
                    continue;
                }
            }
            let target = if next_active { Active } else { Idle };
            next_active = !next_active;
            if m.current() != target {
                m.set_state(t, target).unwrap();
            }
        }
        let end = t + SimDuration::from_secs(1);
        let s = m.finish(end).unwrap();
        let sum: f64 = s.per_state.iter().map(|o| o.energy.joules()).sum::<f64>()
            + s.transition_energy.joules();
        let total = s.total_energy.joules();
        assert!(
            (sum - total).abs() <= 1e-6 * total.max(1.0),
            "sum={sum} total={total}"
        );
        // And time is conserved too.
        let time_sum: f64 = s
            .per_state
            .iter()
            .map(|o| o.time.as_secs_f64())
            .sum::<f64>()
            + s.transition_time.as_secs_f64();
        let span = end.duration_since(SimInstant::EPOCH).as_secs_f64();
        assert!(
            (time_sum - span).abs() <= 1e-6 * span.max(1.0),
            "time_sum={time_sum} span={span}"
        );
    });
}

/// Conservation under arbitrary charge/transfer interleavings: the
/// wall-socket total always equals the sum over component entries,
/// and a transfer leaves the total bit-identical. (Debug builds also
/// check this inside the ledger after every mutation.)
#[test]
fn ledger_conserves_under_random_charges_and_transfers() {
    check(CASES, |g| {
        let ops = g.vec(1..40, |g| {
            (
                g.bool(),
                g.range(0u32..4),
                g.range(0u32..4),
                g.range(0.0f64..1e6),
            )
        });
        let mut l = EnergyLedger::new();
        for (charge, a, b, j) in ops {
            let from = ComponentId::new(ComponentKind::Disk, a);
            let to = ComponentId::new(ComponentKind::Recovery, b);
            if charge {
                l.charge(from, Joules::new(j));
            } else {
                let before = l.total().joules().to_bits();
                let moved = l.transfer(from, to, Joules::new(j));
                assert_eq!(
                    l.total().joules().to_bits(),
                    before,
                    "transfer changed the total"
                );
                assert!(moved.joules() <= j + 1e-12);
                assert!(l.component(from).joules() >= -1e-12);
            }
            let sum: f64 = l.iter().map(|(_, e)| e.joules()).sum();
            let total = l.total().joules();
            assert!(
                (sum - total).abs() <= 1e-9f64.max(total * 1e-9),
                "sum={sum} total={total}"
            );
        }
    });
}

/// `charge_all` is the loop of `charge`, bit for bit, whatever
/// the order of its input: sorted or arbitrary, with repeats, kinds
/// interleaved, ids with and without an entry, and the empty batch.
#[test]
fn charge_all_equals_the_loop_of_charge() {
    let kinds = [
        ComponentKind::Cpu,
        ComponentKind::Base,
        ComponentKind::Recovery,
    ];
    let charge = |g: &mut Gen| {
        let id = ComponentId::new(g.pick(&kinds), g.range(0u32..12));
        (id, Joules::new(g.range(0.0f64..1e6)))
    };
    check(CASES, |g| {
        let (sorted, journaled) = (g.bool(), g.bool());
        let seeded = g.vec(0..12, charge);
        let mut charges = g.vec(0..40, charge);
        let mut one_by_one = EnergyLedger::new();
        for &(id, e) in &seeded {
            one_by_one.charge(id, e);
        }
        if journaled {
            one_by_one.enable_journal();
        }
        let mut batched = one_by_one.clone();
        if sorted {
            charges.sort_by_key(|(id, _)| *id);
        }
        for &(id, e) in &charges {
            one_by_one.charge(id, e);
        }
        batched.charge_all(charges.iter().copied());
        assert_eq!(
            batched.total().joules().to_bits(),
            one_by_one.total().joules().to_bits()
        );
        assert_eq!(batched.component_count(), one_by_one.component_count());
        for ((ia, ea), (ib, eb)) in batched.iter().zip(one_by_one.iter()) {
            assert_eq!(ia, ib);
            assert_eq!(ea.joules().to_bits(), eb.joules().to_bits());
        }
        assert_eq!(batched.take_journal(), one_by_one.take_journal());
    });
}

/// Every component kind, in declaration order.
const KINDS: [ComponentKind; 8] = [
    ComponentKind::Cpu,
    ComponentKind::Disk,
    ComponentKind::Ssd,
    ComponentKind::Dram,
    ComponentKind::Nic,
    ComponentKind::Base,
    ComponentKind::Recovery,
    ComponentKind::Other,
];

/// One drawn ledger operation, applied alike to the dense ledger and to
/// the `BTreeMap` ledger it replaced.
#[derive(Debug, Clone)]
enum LedgerStep {
    Charge(ComponentId, Joules),
    ChargeAll(Vec<(ComponentId, Joules)>),
    /// `charge_draws` of one kind's ascending run over one interval.
    ChargeDraws(ComponentKind, Vec<(u32, Watts)>, SimDuration),
    Transfer(ComponentId, ComponentId, Joules),
    /// Fold in a ledger of these charges, covering this window.
    Merge(Vec<(ComponentId, Joules)>, Option<(SimInstant, SimInstant)>),
    Cover(SimInstant, SimInstant),
    EnableJournal,
    TakeJournal,
}

/// A component of any kind at index 0..12, or now and then the lone
/// index `1 << 16` of the case's `sparse` kind.
fn ledger_id(g: &mut Gen, sparse: Option<ComponentKind>) -> ComponentId {
    match sparse {
        Some(kind) if g.one_in(16) => ComponentId::new(kind, 1 << 16),
        _ => ComponentId::new(g.pick(&KINDS), g.range(0u32..12)),
    }
}

/// An amount that is sometimes exactly zero (a zero charge still makes
/// an entry) and otherwise rounds differently in a different order.
fn ledger_joules(g: &mut Gen) -> Joules {
    if g.one_in(8) {
        Joules::ZERO
    } else {
        Joules::new(g.range(0.0f64..1e6))
    }
}

/// A `charge_all` batch: kinds interleaved as drawn, ascending,
/// descending, or repeating a few components.
fn ledger_batch(g: &mut Gen, sparse: Option<ComponentKind>) -> Vec<(ComponentId, Joules)> {
    let few = [ledger_id(g, sparse), ledger_id(g, sparse)];
    let repeated = g.one_in(4);
    let mut batch = g.vec(0..24, |g| {
        let id = if repeated {
            g.pick(&few)
        } else {
            ledger_id(g, sparse)
        };
        (id, ledger_joules(g))
    });
    match g.below(3) {
        0 => batch.sort_by_key(|(id, _)| *id),
        1 => batch.sort_by_key(|(id, _)| std::cmp::Reverse(*id)),
        _ => {}
    }
    batch
}

/// A `charge_draws` run: one kind, ascending indices (repeats and ones
/// past every slot the other steps use included), sometimes ending at
/// the case's sparse `1 << 16`; zero watts now and then; an interval of
/// zero, of a fraction of a nanosecond (zero again, or one), or up to
/// about a day.
fn ledger_draws(g: &mut Gen, sparse: Option<ComponentKind>) -> LedgerStep {
    let kind = match sparse {
        Some(kind) if g.one_in(3) => kind,
        _ => g.pick(&KINDS),
    };
    let watts = |g: &mut Gen| {
        if g.one_in(8) {
            Watts::ZERO
        } else {
            Watts::new(g.range(0.0f64..1e4))
        }
    };
    let mut draws = g.vec(0..24, |g| (g.range(0u32..16), watts(g)));
    draws.sort_by_key(|&(i, _)| i);
    if sparse == Some(kind) && g.one_in(4) {
        draws.push((1 << 16, watts(g)));
    }
    let d = match g.below(4) {
        0 => SimDuration::ZERO,
        1 => SimDuration::from_secs_f64(g.range(0.0f64..1e-9)),
        _ => SimDuration::from_nanos(g.range(0u64..100_000_000_000_000)),
    };
    LedgerStep::ChargeDraws(kind, draws, d)
}

fn ledger_window(g: &mut Gen) -> (SimInstant, SimInstant) {
    let a = SimInstant::from_nanos(g.range(0u64..1_000_000));
    (a, a + SimDuration::from_nanos(g.range(0u64..1_000_000)))
}

fn ledger_step(g: &mut Gen, sparse: Option<ComponentKind>) -> LedgerStep {
    match g.below(18) {
        0..=4 => LedgerStep::Charge(ledger_id(g, sparse), ledger_joules(g)),
        5..=7 => LedgerStep::ChargeAll(ledger_batch(g, sparse)),
        8..=11 => {
            // `from` is often absent, and the amount often exceeds it.
            let (from, to) = (ledger_id(g, sparse), ledger_id(g, sparse));
            LedgerStep::Transfer(from, to, Joules::new(g.range(0.0f64..2e6)))
        }
        12 => {
            let window = g.bool().then(|| ledger_window(g));
            LedgerStep::Merge(ledger_batch(g, sparse), window)
        }
        13 => {
            let (s, e) = ledger_window(g);
            LedgerStep::Cover(s, e)
        }
        14 => LedgerStep::EnableJournal,
        15 => LedgerStep::TakeJournal,
        _ => ledger_draws(g, sparse),
    }
}

/// Apply `step` to both ledgers, asserting every value it returns agrees.
fn apply_ledger_step(dense: &mut EnergyLedger, old: &mut btree::EnergyLedger, step: &LedgerStep) {
    match step {
        LedgerStep::Charge(id, e) => {
            dense.charge(*id, *e);
            old.charge(*id, *e);
        }
        LedgerStep::ChargeAll(batch) => {
            dense.charge_all(batch.iter().copied());
            old.charge_ascending(batch.iter().copied());
        }
        LedgerStep::ChargeDraws(kind, draws, d) => {
            dense.charge_draws(*kind, draws, *d);
            for &(index, w) in draws {
                old.charge(ComponentId::new(*kind, index), w * *d);
            }
        }
        LedgerStep::Transfer(from, to, e) => {
            let moved = dense.transfer(*from, *to, *e).joules().to_bits();
            assert_eq!(moved, old.transfer(*from, *to, *e).joules().to_bits());
        }
        LedgerStep::Merge(batch, window) => {
            let (mut other, mut old_other) = (EnergyLedger::new(), btree::EnergyLedger::new());
            other.charge_all(batch.iter().copied());
            old_other.charge_ascending(batch.iter().copied());
            if let Some((s, e)) = *window {
                other.cover(s, e);
                old_other.cover(s, e);
            }
            dense.merge(&other);
            old.merge(&old_other);
        }
        LedgerStep::Cover(s, e) => {
            dense.cover(*s, *e);
            old.cover(*s, *e);
        }
        LedgerStep::EnableJournal => {
            dense.enable_journal();
            old.enable_journal();
        }
        LedgerStep::TakeJournal => assert_eq!(dense.take_journal(), old.take_journal()),
    }
}

/// Every reading of a dense ledger equals the `BTreeMap` ledger's, to
/// the bit and to the byte of every rendering.
fn assert_ledgers_agree(dense: &EnergyLedger, old: &btree::EnergyLedger) {
    let bits = |e: Joules| e.joules().to_bits();
    assert_eq!(bits(dense.total()), bits(old.total()));
    let entries = dense.iter().map(|(id, e)| (id, bits(e)));
    let old_entries = old.iter().map(|(id, e)| (id, bits(e)));
    assert_eq!(entries.collect::<Vec<_>>(), old_entries.collect::<Vec<_>>());
    assert_eq!(dense.component_count(), old.component_count());
    for kind in KINDS {
        assert_eq!(bits(dense.kind_total(kind)), bits(old.kind_total(kind)));
        assert_eq!(
            dense.kind_share(kind).to_bits(),
            old.kind_share(kind).to_bits()
        );
    }
    let rows = |rows: Vec<grail_power::ledger::BreakdownRow>| -> Vec<_> {
        (rows.into_iter())
            .map(|r| (r.kind, bits(r.energy), r.share.to_bits()))
            .collect()
    };
    assert_eq!(rows(dense.breakdown()), rows(old.breakdown()));
    assert_eq!(dense.window(), old.window());
    assert_eq!(format!("{dense:?}"), format!("{old:?}"));
    assert_eq!(format!("{dense:#?}"), format!("{old:#?}"));
    assert_eq!(dense.to_string(), old.to_string());
}

/// The dense `EnergyLedger` is the `BTreeMap` ledger it replaced
/// (`tests/common/btree_ledger.rs`): after any drawn sequence of
/// charges, `charge_all` batches (descending, repeated, kinds
/// interleaved), `charge_draws` runs (against a `charge` of `w * d` per
/// draw), transfers (from an absent or a short component),
/// merges, covers and journal switches, over all eight kinds at indices
/// 0..12 and a sparse `1 << 16`, every reading agrees bit for bit — the
/// journal included — and `==` decides alike on a twin built with one
/// more step (sometimes a no-op).
#[test]
fn dense_ledger_matches_the_btree_ledger() {
    check(CASES, |g| {
        let sparse = g.one_in(8).then(|| g.pick(&KINDS));
        let steps = g.vec(0..40, |g| ledger_step(g, sparse));
        let (mut dense, mut old) = (EnergyLedger::new(), btree::EnergyLedger::new());
        for step in &steps {
            apply_ledger_step(&mut dense, &mut old, step);
        }
        assert_ledgers_agree(&dense, &old);
        let (mut dense_twin, mut old_twin) = (dense.clone(), old.clone());
        let extra = match g.below(3) {
            // A transfer out of a component nobody charged moves nothing.
            0 => LedgerStep::Transfer(
                ComponentId::new(g.pick(&KINDS), 1 << 16),
                ledger_id(g, sparse),
                Joules::new(1.0),
            ),
            _ => ledger_step(g, sparse),
        };
        apply_ledger_step(&mut dense_twin, &mut old_twin, &extra);
        assert_ledgers_agree(&dense_twin, &old_twin);
        assert_eq!(dense == dense_twin, old == old_twin, "after {extra:?}");
        assert_eq!(dense_twin == dense, old_twin == old);
        assert_eq!(dense.take_journal(), old.take_journal());
    });
}

/// Break-even gap really is break-even: below it parking loses,
/// sufficiently above it parking wins, by the graph machine's
/// round-trip calculus.
#[test]
fn break_even_gap_is_threshold() {
    check(CASES, |g| {
        let scale = g.range(1.1f64..10.0);
        let profile = DiskPowerProfile::scsi_15k();
        let m = profile.machine(SimInstant::EPOCH);
        let gap = m.break_even_gap().expect("standby saves power");
        let below = SimDuration::from_secs_f64(gap.as_secs_f64() / scale);
        let above = SimDuration::from_secs_f64(gap.as_secs_f64() * scale);
        let oracle = graph::PowerStateMachine::disk(&profile, SimInstant::EPOCH);
        assert!(!oracle.break_even_worth_it(graph::STANDBY, below));
        assert!(oracle.break_even_worth_it(graph::STANDBY, above));
    });
}

/// A draw in `0..hi` on a 1e-6 grid (seconds, watts, joules), exactly
/// zero one time in `zero_in`.
fn grid(g: &mut Gen, hi: f64, zero_in: u64) -> f64 {
    if g.one_in(zero_in) {
        0.0
    } else {
        (g.range(0.0f64..hi) * 1e6).round() / 1e6
    }
}

/// One profile of each shape the components build, drawn: a disk (spin
/// latencies and energies zero or not, standby above, at or below
/// idle), an SSD or a CPU core, as the fixed machine and the graph one.
fn drawn_machines(g: &mut Gen, start: SimInstant) -> (PowerStateMachine, graph::PowerStateMachine) {
    let watts = |g: &mut Gen| Watts::new(grid(g, 40.0, 6));
    let (active, idle) = (watts(g), watts(g));
    match g.below(3) {
        0 => {
            let p = DiskPowerProfile {
                active,
                idle,
                standby: if g.one_in(8) { idle } else { watts(g) },
                spin_down_latency: SimDuration::from_secs_f64(grid(g, 3.0, 3)),
                spin_down_energy: Joules::new(grid(g, 20.0, 3)),
                spin_up_latency: SimDuration::from_secs_f64(grid(g, 10.0, 3)),
                spin_up_energy: Joules::new(grid(g, 200.0, 3)),
            };
            (p.machine(start), graph::PowerStateMachine::disk(&p, start))
        }
        1 => {
            let p = SsdPowerProfile { active, idle };
            let oracle = graph::PowerStateMachine::active_idle(active, idle, start);
            (p.machine(start), oracle)
        }
        _ => {
            let p = CpuPowerProfile {
                core_active: active,
                core_idle: idle,
                uncore: Watts::ZERO,
                cores: 1,
            };
            let oracle = graph::PowerStateMachine::active_idle(active, idle, start);
            (p.core_machine(start), oracle)
        }
    }
}

/// What a drawn op asks of both machines.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `busy(start, end)`: active, then idle again (the end may precede
    /// the start).
    Serve(SimInstant, SimInstant),
    /// `set_state` to any of the three states: a park, an unpark, an
    /// activation, or one the machine refuses.
    Set(SimInstant, PowerState),
    /// `advance_to`.
    Advance(SimInstant),
}

/// Every state, in discriminant order (the graph's dense ids).
const STATES: [PowerState; 3] = [PowerState::Active, PowerState::Idle, PowerState::Standby];

fn graph_id(s: PowerState) -> graph::PowerStateId {
    graph::PowerStateId(s as u8)
}

fn fixed_state(id: graph::PowerStateId) -> PowerState {
    STATES[usize::from(id.0)]
}

/// The graph machine's error as the fixed machine spells it: an unknown
/// standby is an undeclared change from `from`.
fn lift(e: graph::PowerError, from: PowerState) -> PowerError {
    match e {
        graph::PowerError::UndeclaredTransition { from, to } => PowerError::UndeclaredTransition {
            from: fixed_state(from),
            to: fixed_state(to),
        },
        graph::PowerError::UnknownState(to) => PowerError::UndeclaredTransition {
            from,
            to: fixed_state(to),
        },
        graph::PowerError::TimeWentBackwards { now, requested } => {
            PowerError::TimeWentBackwards { now, requested }
        }
        graph::PowerError::TransitionInFlight {
            busy_until,
            requested,
        } => PowerError::TransitionInFlight {
            busy_until,
            requested,
        },
    }
}

fn assert_summaries_bit_equal(got: &MachineSummary, want: &graph::MachineSummary) {
    let bits = |j: Joules| j.joules().to_bits();
    assert_eq!(bits(got.total_energy), bits(want.total_energy));
    assert_eq!(bits(got.transition_energy), bits(want.transition_energy));
    assert_eq!(got.transitions, want.transitions);
    assert_eq!(got.transition_time, want.transition_time);
    for (i, g) in got.per_state.iter().enumerate() {
        let w = want.per_state.get(i).copied().unwrap_or_default();
        assert_eq!(
            (g.time, bits(g.energy), g.entries),
            (w.time, bits(w.energy), w.entries),
            "state {i}"
        );
    }
}

/// The fixed Active/Idle/Standby machine is the graph machine it
/// replaced, bit for bit, on drawn profiles and op sequences: serve
/// intervals, parks, unparks, activations and advances, some inside an
/// in-flight spin and some in the past. After every op both return the
/// same result (the graph's unknown standby is the fixed machine's
/// undeclared one), state, pending spin and energy; at finish every
/// summary field is equal by bits.
#[test]
fn fixed_machine_matches_the_graph_machine() {
    check(CASES, |g| {
        let start = SimInstant::EPOCH + SimDuration::from_secs_f64(grid(g, 100.0, 4));
        let (mut m, mut oracle) = drawn_machines(g, start);
        let gap = oracle.break_even_gap(graph::STANDBY);
        for s in STATES {
            if let Ok(w) = oracle.state_power(graph_id(s)) {
                assert_eq!(m.state_power(s).get().to_bits(), w.get().to_bits());
            }
        }
        let mut now = start.as_secs_f64();
        let mut at = |g: &mut Gen| {
            // Mostly forward, sometimes by less than a spin, now and
            // then into the past.
            let t = match g.below(8) {
                0 => now - grid(g, 3.0, 4),
                1 => now + grid(g, 1.0, 2),
                _ => now + grid(g, 30.0, 8),
            };
            now = now.max(t);
            SimInstant::EPOCH + SimDuration::from_secs_f64(t.max(0.0))
        };
        let ops = g.vec(0..60, |g| match g.below(8) {
            0..=2 => {
                let a = at(g);
                let len = SimDuration::from_secs_f64(grid(g, 2.0, 8));
                let end = if g.one_in(16) {
                    a - len.min(a.duration_since(SimInstant::EPOCH))
                } else {
                    a + len
                };
                Op::Serve(a, end)
            }
            3..=6 => {
                let t = at(g);
                Op::Set(t, g.pick(&STATES))
            }
            _ => Op::Advance(at(g)),
        });
        for (i, op) in ops.iter().enumerate() {
            let from = fixed_state(oracle.current());
            let (got, want) = match *op {
                Op::Serve(a, b) => (
                    m.busy(a, b).map(|()| b),
                    oracle
                        .set_state(a, graph::ACTIVE)
                        .and_then(|_| oracle.set_state(b, graph::IDLE)),
                ),
                Op::Set(t, s) => (m.set_state(t, s), oracle.set_state(t, graph_id(s))),
                Op::Advance(t) => (
                    m.advance_to(t).map(|()| t),
                    oracle.advance_to(t).map(|()| t),
                ),
            };
            let want = want.map_err(|e| lift(e, from));
            assert_eq!(got, want, "op {i}: {op:?}");
            assert_eq!(m.current(), fixed_state(oracle.current()), "op {i}: {op:?}");
            assert_eq!(m.busy_until(), oracle.busy_until(), "op {i}: {op:?}");
            assert_eq!(
                m.total_energy().joules().to_bits(),
                oracle.total_energy().joules().to_bits(),
                "op {i}: {op:?}"
            );
            assert_eq!(m.break_even_gap(), gap, "op {i}: {op:?}");
        }
        let (end, from) = (at(g), fixed_state(oracle.current()));
        match (m.finish(end), oracle.finish(end)) {
            (Ok(got), Ok(want)) => assert_summaries_bit_equal(&got, &want),
            (got, want) => assert_eq!(got.err(), want.err().map(|e| lift(e, from))),
        }
    });
}
