//! Property tests for the consolidation policies.

use grail_power::units::{SimDuration, SimInstant};
use grail_scheduler::admission::{AdmissionPolicy, BatchWindow};
use grail_scheduler::chaos::{run_chaos, ChaosPolicy, FleetEvent, FleetState};
use grail_scheduler::cluster::{chaos_fleet, place, refresh_cycle_fleet, PlacementPolicy};
use grail_scheduler::governor::{gap_energy, IdleGovernor, OracleGovernor, ParkCosts};
use grail_scheduler::sharing::share_scans;
use grail_sim::fault::{ChaosEvent, ChaosEventKind, ChaosSchedule};
use grail_trace::Tracer;
use proptest::prelude::*;

fn sorted_arrivals() -> impl Strategy<Value = Vec<SimInstant>> {
    proptest::collection::vec(0u64..1_000_000, 0..60).prop_map(|mut ms| {
        ms.sort_unstable();
        ms.into_iter()
            .map(|m| SimInstant::EPOCH + SimDuration::from_millis(m))
            .collect()
    })
}

proptest! {
    /// Batched admission never dispatches before arrival, preserves
    /// order and count, and never produces more batches than arrivals.
    #[test]
    fn admission_invariants(arrivals in sorted_arrivals(), window_ms in 1u64..120_000) {
        let policy = AdmissionPolicy::Batched(BatchWindow {
            window: SimDuration::from_millis(window_ms),
        });
        let out = policy.schedule(&arrivals);
        prop_assert_eq!(out.dispatches.len(), arrivals.len());
        prop_assert!(out.batches <= arrivals.len().max(1));
        for (d, a) in out.dispatches.iter().zip(&arrivals) {
            prop_assert!(d >= a);
            // Bounded delay: within one window.
            prop_assert!(
                d.saturating_duration_since(*a) <= SimDuration::from_millis(window_ms)
            );
        }
        // Dispatches are nondecreasing.
        prop_assert!(out.dispatches.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The oracle governor never loses to staying idle, on any gap.
    #[test]
    fn oracle_never_loses(gap_ms in 1u64..10_000_000) {
        let costs = ParkCosts::scsi_15k();
        let start = SimInstant::EPOCH;
        let end = start + SimDuration::from_millis(gap_ms);
        let plan = OracleGovernor.plan_gap(start, end, &costs);
        let with = gap_energy(plan.as_ref(), start, end, &costs);
        let without = gap_energy(None, start, end, &costs);
        prop_assert!(with.joules() <= without.joules() + 1e-9,
            "gap {gap_ms}ms: {with} vs {without}");
    }

    /// Scan sharing: per-query latency always equals the solo latency,
    /// device busy time never exceeds solo, and savings ∈ [0, 1).
    #[test]
    fn sharing_invariants(arrivals in sorted_arrivals(), dur_ms in 1u64..60_000) {
        let dur = SimDuration::from_millis(dur_ms);
        let out = share_scans(&arrivals, dur);
        prop_assert_eq!(out.completions.len(), arrivals.len());
        for (c, a) in out.completions.iter().zip(&arrivals) {
            prop_assert_eq!(c.saturating_duration_since(*a), dur);
        }
        prop_assert!(out.shared_busy_secs <= out.solo_busy_secs + 1e-9);
        prop_assert!(out.physical_scans <= arrivals.len());
        let s = out.savings();
        prop_assert!((0.0..1.0).contains(&s) || arrivals.is_empty());
    }

    /// Cluster placement: demand conserved, capacities respected, and
    /// consolidation never draws more power than spread.
    #[test]
    fn cluster_invariants(frac in 0.0f64..1.0) {
        let fleet = refresh_cycle_fleet();
        let total: f64 = fleet.iter().map(|m| m.capacity).sum();
        let demand = total * frac;
        let spread = place(&fleet, demand, PlacementPolicy::Spread).expect("fits");
        let packed = place(&fleet, demand, PlacementPolicy::Consolidate).expect("fits");
        for p in [&spread, &packed] {
            let served: f64 = p.loads.iter().sum();
            prop_assert!((served - demand).abs() < 1e-6);
            for (m, l) in fleet.iter().zip(&p.loads) {
                prop_assert!(*l <= m.capacity + 1e-9);
                prop_assert!(*l >= 0.0);
            }
        }
        prop_assert!(
            packed.power(&fleet).get() <= spread.power(&fleet).get() + 1e-9
        );
    }

    /// Fail-over of any machine subset, as a burst of same-instant crashes
    /// through `FleetState::apply`: after each one work is conserved
    /// (`served + shed == offered`), the stranded rate is what the dead
    /// machine carried, dead machines carry nothing, capacities hold, and
    /// cold boots only hit previously-dark, still-living machines.
    #[test]
    fn failover_invariants(
        frac in 0.0f64..1.0,
        dead_mask in 0u16..64,
    ) {
        let fleet = refresh_cycle_fleet();
        let total: f64 = fleet.iter().map(|m| m.capacity).sum();
        let demand = total * frac;
        let policy = ChaosPolicy { replicas: 1, ..ChaosPolicy::default() };
        let mut state = FleetState::new(&fleet, 1, &policy, demand);
        let at = SimInstant::EPOCH + SimDuration::from_secs(1_000);
        let mut dead = Vec::new();
        for machine in (0..fleet.len()).filter(|i| dead_mask & (1 << i) != 0) {
            let before = state.plan().placement.clone();
            let crash = ChaosEventKind::MachineCrash { machine: machine as u32 };
            let fx = state.apply(&fleet, &policy, demand, at, FleetEvent::Chaos(crash));
            dead.push(machine);
            let plan = state.plan();
            prop_assert!(fx.quarantine.is_none());
            prop_assert_eq!(fx.stranded_rate, before.loads[machine]);
            prop_assert!(
                (plan.served_rate + plan.shed_rate - demand).abs() < 1e-6 * demand.max(1.0),
                "served {} + shed {} != offered {demand}", plan.served_rate, plan.shed_rate
            );
            prop_assert!(plan.shed_rate >= 0.0 && plan.served_rate >= 0.0);
            let placed: f64 = plan.placement.loads.iter().sum();
            prop_assert!((placed - plan.served_rate).abs() < 1e-6 * demand.max(1.0));
            for &d in &dead {
                prop_assert_eq!(plan.placement.loads[d], 0.0);
                prop_assert!(!plan.placement.powered[d]);
            }
            for (m, l) in fleet.iter().zip(&plan.placement.loads) {
                prop_assert!(*l >= 0.0 && *l <= m.capacity + 1e-9);
            }
            for &b in &fx.booted {
                prop_assert!(!before.powered[b], "cold boot on an already-hot machine");
                prop_assert!(!dead.contains(&b), "booted a dead machine");
                prop_assert!(plan.placement.powered[b]);
            }
        }
    }

    /// The chaos engine conserves work (`served + shed + failed ==
    /// offered`) and is deterministic for any scripted crash/restart
    /// sequence.
    #[test]
    fn chaos_conservation_and_determinism(
        frac in 0.0f64..1.0,
        crashes in proptest::collection::vec((0u32..8, 1u64..40_000, 1u64..5_000), 0..6),
    ) {
        let fleet = chaos_fleet(4, 2);
        let total: f64 = fleet.iter().map(|m| m.capacity).sum();
        let mut events = Vec::new();
        for &(m, at_s, down_s) in &crashes {
            let down = SimInstant::EPOCH + SimDuration::from_secs(at_s);
            events.push(ChaosEvent {
                at: down,
                kind: ChaosEventKind::MachineCrash { machine: m },
            });
            events.push(ChaosEvent {
                at: down + SimDuration::from_secs(down_s),
                kind: ChaosEventKind::MachineUp { machine: m },
            });
        }
        let schedule = ChaosSchedule::scripted(
            fleet.len() as u32,
            4,
            SimDuration::from_secs(50_000),
            events,
        );
        let policy = ChaosPolicy::default();
        let r1 = run_chaos(&fleet, &schedule, total * frac, &policy, &mut Tracer::off())
            .expect("valid run");
        let r2 = run_chaos(&fleet, &schedule, total * frac, &policy, &mut Tracer::off())
            .expect("valid run");
        prop_assert!(
            r1.conservation_error() <= 1e-6 * r1.offered.max(1.0),
            "served {} + shed {} + failed {} != offered {}",
            r1.served, r1.shed, r1.failed, r1.offered
        );
        prop_assert!(r1.availability() >= 0.0 && r1.availability() <= 1.0 + 1e-9);
        prop_assert!(r1.recovery_energy().joules() <= r1.total_energy().joules() + 1e-9);
        prop_assert_eq!(r1, r2);
    }
}
