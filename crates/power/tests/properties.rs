//! Property-based tests for the power substrate's core invariants.

use grail_power::components::DiskPowerProfile;
use grail_power::ledger::{ComponentId, ComponentKind, EnergyLedger};
use grail_power::proportionality::PowerCurve;
use grail_power::units::{EnergyEfficiency, Joules, SimDuration, SimInstant, Watts};
use proptest::prelude::*;

fn small_secs() -> impl Strategy<Value = f64> {
    (0.0f64..100_000.0).prop_map(|s| (s * 1e6).round() / 1e6)
}

proptest! {
    /// Energy integration is additive: charging [a,b] then [b,c] equals
    /// charging [a,c] at the same power.
    #[test]
    fn ledger_interval_additivity(a in small_secs(), d1 in small_secs(), d2 in small_secs(), w in 0.0f64..10_000.0) {
        let _ = a;
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
        prop_assert!((a - b).abs() <= 1e-6 * a.max(b).max(1.0));
    }

    /// The two EE formulations agree for any fixed work/time/power.
    #[test]
    fn ee_formulations_agree(work in 0.0f64..1e9, secs in 1e-6f64..1e6, watts in 1e-6f64..1e6) {
        let t = SimDuration::from_secs_f64(secs);
        let p = Watts::new(watts);
        let e1 = EnergyEfficiency::from_work_energy(work, p * t);
        let e2 = EnergyEfficiency::from_perf_power(work / t.as_secs_f64(), p);
        let (a, b) = (e1.work_per_joule(), e2.work_per_joule());
        prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0));
    }

    /// Ledger merge is commutative in totals and per-component sums.
    #[test]
    fn ledger_merge_commutes(charges in proptest::collection::vec((0u32..4, 0.0f64..1e6), 0..20)) {
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
        prop_assert!((ab.total().joules() - ba.total().joules()).abs() < 1e-6);
        for idx in 0..4 {
            let id = ComponentId::new(ComponentKind::Disk, idx);
            prop_assert!((ab.component(id).joules() - ba.component(id).joules()).abs() < 1e-6);
        }
    }

    /// Power curves are monotone non-decreasing in utilization.
    #[test]
    fn power_curve_monotone(idle in 0.0f64..500.0, extra in 0.0f64..500.0, u1 in 0.0f64..1.0, u2 in 0.0f64..1.0) {
        let c = PowerCurve::linear(Watts::new(idle), Watts::new(idle + extra));
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        prop_assert!(c.power_at(lo).get() <= c.power_at(hi).get() + 1e-9);
    }

    /// A state machine's total energy equals the sum of its per-state
    /// energies plus its transition energy, for an arbitrary schedule of
    /// idle/active toggles and occasional standby round trips.
    #[test]
    fn machine_energy_conserved(gaps in proptest::collection::vec(0.01f64..50.0, 1..30)) {
        use grail_power::components::disk_states as ds;
        let profile = DiskPowerProfile::scsi_15k();
        let mut m = profile.machine(SimInstant::EPOCH);
        let mut t = SimInstant::EPOCH;
        let mut next_active = true;
        for (i, g) in gaps.iter().enumerate() {
            t += SimDuration::from_secs_f64(*g);
            if let Some(done) = m.busy_until() {
                if t < done {
                    t = done;
                }
            }
            if i % 5 == 4 {
                // Park and immediately schedule wake after the spin-down.
                if m.current() == ds::IDLE {
                    let done = m.set_state(t, ds::STANDBY).unwrap();
                    t = done + SimDuration::from_secs_f64(*g);
                    let woke = m.set_state(t, ds::IDLE).unwrap();
                    t = woke;
                    continue;
                }
            }
            let target = if next_active { ds::ACTIVE } else { ds::IDLE };
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
        prop_assert!((sum - total).abs() <= 1e-6 * total.max(1.0), "sum={sum} total={total}");
        // And time is conserved too.
        let time_sum: f64 = s.per_state.iter().map(|o| o.time.as_secs_f64()).sum::<f64>()
            + s.transition_time.as_secs_f64();
        let span = end.duration_since(SimInstant::EPOCH).as_secs_f64();
        prop_assert!((time_sum - span).abs() <= 1e-6 * span.max(1.0), "time_sum={time_sum} span={span}");
    }

    /// Conservation under arbitrary charge/transfer interleavings: the
    /// wall-socket total always equals the sum over component entries,
    /// and a transfer leaves the total bit-identical. (Debug builds also
    /// check this inside the ledger after every mutation.)
    #[test]
    fn ledger_conserves_under_random_charges_and_transfers(
        ops in proptest::collection::vec((0u8..2, 0u32..4, 0u32..4, 0.0f64..1e6), 1..40)
    ) {
        let mut l = EnergyLedger::new();
        for (op, a, b, j) in ops {
            let from = ComponentId::new(ComponentKind::Disk, a);
            let to = ComponentId::new(ComponentKind::Recovery, b);
            if op == 0 {
                l.charge(from, Joules::new(j));
            } else {
                let before = l.total().joules().to_bits();
                let moved = l.transfer(from, to, Joules::new(j));
                prop_assert_eq!(
                    l.total().joules().to_bits(),
                    before,
                    "transfer changed the total"
                );
                prop_assert!(moved.joules() <= j + 1e-12);
                prop_assert!(l.component(from).joules() >= -1e-12);
            }
            let sum: f64 = l.iter().map(|(_, e)| e.joules()).sum();
            let total = l.total().joules();
            prop_assert!(
                (sum - total).abs() <= 1e-9f64.max(total * 1e-9),
                "sum={} total={}", sum, total
            );
        }
    }

    /// `charge_ascending` is the loop of `charge`, bit for bit, whatever
    /// the order of its input: sorted (the one-pass walk) or arbitrary
    /// (the fallback), with repeats, kinds interleaved, ids with and
    /// without an entry, and the empty batch.
    #[test]
    fn charge_ascending_equals_the_loop_of_charge(
        seeded in proptest::collection::vec((0u8..3, 0u32..12, 0.0f64..1e6), 0..12),
        batch in proptest::collection::vec((0u8..3, 0u32..12, 0.0f64..1e6), 0..40),
        sorted in 0u8..2,
        journaled in 0u8..2,
    ) {
        let kinds = [ComponentKind::Cpu, ComponentKind::Base, ComponentKind::Recovery];
        let pair = |&(k, i, j): &(u8, u32, f64)| {
            (ComponentId::new(kinds[k as usize], i), Joules::new(j))
        };
        let mut one_by_one = EnergyLedger::new();
        for (id, e) in seeded.iter().map(pair) {
            one_by_one.charge(id, e);
        }
        if journaled == 1 {
            one_by_one.enable_journal();
        }
        let mut batched = one_by_one.clone();
        let mut charges: Vec<_> = batch.iter().map(pair).collect();
        if sorted == 1 {
            charges.sort_by_key(|(id, _)| *id);
        }
        for &(id, e) in &charges {
            one_by_one.charge(id, e);
        }
        batched.charge_ascending(charges.iter().copied());
        prop_assert_eq!(
            batched.total().joules().to_bits(),
            one_by_one.total().joules().to_bits()
        );
        prop_assert_eq!(batched.component_count(), one_by_one.component_count());
        for ((ia, ea), (ib, eb)) in batched.iter().zip(one_by_one.iter()) {
            prop_assert_eq!(ia, ib);
            prop_assert_eq!(ea.joules().to_bits(), eb.joules().to_bits());
        }
        prop_assert_eq!(batched.take_journal(), one_by_one.take_journal());
    }

    /// Break-even gap really is break-even: below it parking loses,
    /// sufficiently above it parking wins.
    #[test]
    fn break_even_gap_is_threshold(scale in 1.1f64..10.0) {
        use grail_power::components::disk_states as ds;
        let profile = DiskPowerProfile::scsi_15k();
        let m = profile.machine(SimInstant::EPOCH);
        let g = m.break_even_gap(ds::STANDBY).expect("standby saves power");
        let below = SimDuration::from_secs_f64(g.as_secs_f64() / scale);
        let above = SimDuration::from_secs_f64(g.as_secs_f64() * scale);
        prop_assert!(!m.break_even_worth_it(ds::STANDBY, below));
        prop_assert!(m.break_even_worth_it(ds::STANDBY, above));
    }
}
