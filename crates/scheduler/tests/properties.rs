//! Property tests for the consolidation policies.

use grail_power::units::{Joules, SimDuration, SimInstant, Watts};
use grail_prop::{check, Gen};
use grail_scheduler::admission::{AdmissionPolicy, BatchWindow};
use grail_scheduler::chaos::{reference_storm, run_chaos, ChaosPolicy, FleetEvent, FleetState};
use grail_scheduler::cluster::{
    chaos_fleet, place, refresh_cycle_fleet, Machine, Placement, PlacementPolicy,
};
use grail_scheduler::governor::{gap_energy, IdleGovernor, OracleGovernor, ParkCosts};
use grail_scheduler::sharing::share_scans;
use grail_sim::fault::{ChaosEvent, ChaosEventKind, ChaosSchedule};
use grail_trace::Tracer;

/// The case count these properties have always run at.
const CASES: u32 = 256;

fn sorted_arrivals(g: &mut Gen) -> Vec<SimInstant> {
    let mut ms = g.vec(0..60, |g| g.range(0u64..1_000_000));
    ms.sort_unstable();
    ms.into_iter()
        .map(|m| SimInstant::EPOCH + SimDuration::from_millis(m))
        .collect()
}

/// The placement `FleetState` must arrive at, the way the engine
/// computed it before it cached the fleet's efficiency order: collect
/// the machines with capacity, sort *them* (most efficient first, ties
/// on the fleet index), fill under the one-replica-per-domain cap.
/// Admission is not re-derived: `served_rate` and `r_eff` are the
/// plan's own.
fn reference_placement(
    fleet: &[Machine],
    policy: PlacementPolicy,
    eff_cap: &[f64],
    served_rate: f64,
    r_eff: u32,
) -> Placement {
    let n = fleet.len();
    let mut order: Vec<usize> = (0..n).filter(|&i| eff_cap[i] > 0.0).collect();
    if policy == PlacementPolicy::Consolidate {
        order.sort_by(|&a, &b| {
            let (ea, eb) = (fleet[a].peak_efficiency(), fleet[b].peak_efficiency());
            eb.total_cmp(&ea).then(a.cmp(&b))
        });
    }
    let mut loads = vec![0.0; n];
    let mut powered = vec![false; n];
    if policy == PlacementPolicy::Spread {
        for &i in &order {
            powered[i] = true;
        }
    }
    let domains = fleet
        .iter()
        .map(|m| m.domain as usize + 1)
        .max()
        .unwrap_or(0);
    let mut dom_used = vec![0.0; domains];
    let mut rest = served_rate * r_eff as f64;
    for &i in &order {
        if rest <= 1e-12 {
            break;
        }
        let d = fleet[i].domain as usize;
        let room = eff_cap[i].min(served_rate - dom_used[d]);
        if room <= 0.0 {
            continue;
        }
        let take = rest.min(room);
        loads[i] = take;
        powered[i] = true;
        dom_used[d] += take;
        rest -= take;
    }
    Placement { loads, powered }
}

/// Capacity of `m` usable under a brownout cap of `cap_frac` of peak
/// power (linear power curve), as the engine derives it.
fn usable_capacity(m: &Machine, cap_frac: f64) -> f64 {
    if cap_frac >= 1.0 {
        return m.capacity;
    }
    let (idle, peak) = (m.idle.get(), m.peak.get());
    m.capacity * ((cap_frac * peak - idle) / (peak - idle)).clamp(0.0, 1.0)
}

/// Batched admission never dispatches before arrival, preserves
/// order and count, and never produces more batches than arrivals.
#[test]
fn admission_invariants() {
    check(CASES, |g| {
        let window_ms = g.range(1u64..120_000);
        let arrivals = sorted_arrivals(g);
        let policy = AdmissionPolicy::Batched(BatchWindow {
            window: SimDuration::from_millis(window_ms),
        });
        let out = policy.schedule(&arrivals);
        assert_eq!(out.dispatches.len(), arrivals.len());
        assert!(out.batches <= arrivals.len().max(1));
        for (d, a) in out.dispatches.iter().zip(&arrivals) {
            assert!(d >= a);
            // Bounded delay: within one window.
            assert!(d.saturating_duration_since(*a) <= SimDuration::from_millis(window_ms));
        }
        // Dispatches are nondecreasing.
        assert!(out.dispatches.windows(2).all(|w| w[0] <= w[1]));
    });
}

/// The oracle governor never loses to staying idle, on any gap.
#[test]
fn oracle_never_loses() {
    check(CASES, |g| {
        let gap_ms = g.range(1u64..10_000_000);
        let costs = ParkCosts::scsi_15k();
        let start = SimInstant::EPOCH;
        let end = start + SimDuration::from_millis(gap_ms);
        let plan = OracleGovernor.plan_gap(start, end, &costs);
        let with = gap_energy(plan.as_ref(), start, end, &costs);
        let without = gap_energy(None, start, end, &costs);
        assert!(
            with.joules() <= without.joules() + 1e-9,
            "gap {gap_ms}ms: {with} vs {without}"
        );
    });
}

/// Scan sharing: per-query latency always equals the solo latency,
/// device busy time never exceeds solo, and savings ∈ [0, 1).
fn sharing_holds(arrivals: &[SimInstant], dur_ms: u64) {
    let dur = SimDuration::from_millis(dur_ms);
    let out = share_scans(arrivals, dur);
    assert_eq!(out.completions.len(), arrivals.len());
    for (c, a) in out.completions.iter().zip(arrivals) {
        assert_eq!(c.saturating_duration_since(*a), dur);
    }
    assert!(out.shared_busy_secs <= out.solo_busy_secs + 1e-9);
    assert!(out.physical_scans <= arrivals.len());
    let s = out.savings();
    assert!((0.0..1.0).contains(&s) || arrivals.is_empty());
}

#[test]
fn sharing_invariants() {
    check(CASES, |g| {
        let dur_ms = g.range(1u64..60_000);
        sharing_holds(&sorted_arrivals(g), dur_ms);
    });
}

/// The one failing input ever recorded for this property: 17 arrivals
/// 579 ms apart and a straggler three minutes later, against 566 ms
/// scans (each arrival lands just after the previous scan ends).
#[test]
fn sharing_invariants_hold_on_the_recorded_regression() {
    let mut ms: Vec<u64> = (0..17).map(|i| i * 579).collect();
    ms.push(184_754);
    assert_eq!(ms[16], 9_264);
    let arrivals: Vec<SimInstant> = ms
        .into_iter()
        .map(|m| SimInstant::EPOCH + SimDuration::from_millis(m))
        .collect();
    sharing_holds(&arrivals, 566);
}

/// Cluster placement: demand conserved, capacities respected, and
/// consolidation never draws more power than spread.
#[test]
fn cluster_invariants() {
    check(CASES, |g| {
        let frac = g.range(0.0f64..1.0);
        let fleet = refresh_cycle_fleet();
        let total: f64 = fleet.iter().map(|m| m.capacity).sum();
        let demand = total * frac;
        let spread = place(&fleet, demand, PlacementPolicy::Spread).expect("fits");
        let packed = place(&fleet, demand, PlacementPolicy::Consolidate).expect("fits");
        for p in [&spread, &packed] {
            let served: f64 = p.loads.iter().sum();
            assert!((served - demand).abs() < 1e-6);
            for (m, l) in fleet.iter().zip(&p.loads) {
                assert!(*l <= m.capacity + 1e-9);
                assert!(*l >= 0.0);
            }
        }
        assert!(packed.power(&fleet).get() <= spread.power(&fleet).get() + 1e-9);
    });
}

/// Fail-over of any machine subset, as a burst of same-instant crashes
/// through `FleetState::apply`: after each one work is conserved
/// (`served + shed == offered`), the stranded rate is what the dead
/// machine carried, dead machines carry nothing, capacities hold, and
/// cold boots only hit previously-dark, still-living machines.
#[test]
fn failover_invariants() {
    check(CASES, |g| {
        let (frac, dead_mask) = (g.range(0.0f64..1.0), g.range(0u16..64));
        let fleet = refresh_cycle_fleet();
        let total: f64 = fleet.iter().map(|m| m.capacity).sum();
        let demand = total * frac;
        let policy = ChaosPolicy {
            replicas: 1,
            ..ChaosPolicy::default()
        };
        let mut state = FleetState::new(&fleet, 1, &policy, demand);
        let at = SimInstant::EPOCH + SimDuration::from_secs(1_000);
        let mut dead = Vec::new();
        for machine in (0..fleet.len()).filter(|i| dead_mask & (1 << i) != 0) {
            let before = state.plan().placement.clone();
            let crash = ChaosEventKind::MachineCrash {
                machine: machine as u32,
            };
            let fx = state.apply(&fleet, &policy, demand, at, FleetEvent::Chaos(crash));
            dead.push(machine);
            let plan = state.plan();
            assert!(fx.quarantine.is_none());
            assert_eq!(fx.stranded_rate, before.loads[machine]);
            assert!(
                (plan.served_rate + plan.shed_rate - demand).abs() < 1e-6 * demand.max(1.0),
                "served {} + shed {} != offered {demand}",
                plan.served_rate,
                plan.shed_rate
            );
            assert!(plan.shed_rate >= 0.0 && plan.served_rate >= 0.0);
            let placed: f64 = plan.placement.loads.iter().sum();
            assert!((placed - plan.served_rate).abs() < 1e-6 * demand.max(1.0));
            for &d in &dead {
                assert_eq!(plan.placement.loads[d], 0.0);
                assert!(!plan.placement.powered[d]);
            }
            for (m, l) in fleet.iter().zip(&plan.placement.loads) {
                assert!(*l >= 0.0 && *l <= m.capacity + 1e-9);
            }
            for &b in &fx.booted {
                assert!(!before.powered[b], "cold boot on an already-hot machine");
                assert!(!dead.contains(&b), "booted a dead machine");
                assert!(plan.placement.powered[b]);
            }
        }
    });
}

/// The chaos engine conserves work (`served + shed + failed ==
/// offered`) and is deterministic for any scripted crash/restart
/// sequence.
#[test]
fn chaos_conservation_and_determinism() {
    check(CASES, |g| {
        let frac = g.range(0.0f64..1.0);
        let crashes = g.vec(0..6, |g| {
            (
                g.range(0u32..8),
                g.range(1u64..40_000),
                g.range(1u64..5_000),
            )
        });
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
        assert!(
            r1.conservation_error() <= 1e-6 * r1.offered.max(1.0),
            "served {} + shed {} + failed {} != offered {}",
            r1.served,
            r1.shed,
            r1.failed,
            r1.offered
        );
        assert!(r1.availability() >= 0.0 && r1.availability() <= 1.0 + 1e-9);
        assert!(r1.recovery_energy().joules() <= r1.total_energy().joules() + 1e-9);
        assert_eq!(r1, r2);
    });
}

/// A machine field from anywhere in `f64`: now and then NaN, ±inf or
/// zero, otherwise a value from the smallest subnormal up to 1e308,
/// log-uniform.
fn any_magnitude(g: &mut Gen) -> f64 {
    match g.below(32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        _ => 10f64.powf(g.range(-323.0f64..308.0)),
    }
}

/// A generated fleet that `run_chaos` accepts runs clean: whatever the
/// machines' capacity, idle and peak draw and boot energy, a storm-level
/// day at 30 % of capacity is a `ClusterError` or a report whose ledger
/// is finite and which conserves `served + shed + failed == offered`.
#[test]
fn generated_machines_are_a_typed_error_or_a_finite_report() {
    check(CASES, |g| {
        let (seed, policy_ix) = (g.word(), g.range(0usize..4));
        let fleet = g.vec(1..6, |g| {
            let (capacity, peak) = (any_magnitude(g), any_magnitude(g));
            let idle = if g.one_in(4) {
                any_magnitude(g)
            } else {
                peak * g.range(0.0f64..1.0)
            };
            Machine {
                name: "drawn".to_string(),
                capacity,
                idle: Watts::new(1.0) * idle,
                peak: Watts::new(1.0) * peak,
                boot_latency: SimDuration::from_secs(g.range(0u64..600)),
                boot_energy: Joules::new(1.0) * any_magnitude(g),
                domain: g.range(0u32..2),
            }
        });
        let storm = *reference_storm().1.config();
        let machines = fleet.len() as u32;
        let schedule =
            ChaosSchedule::generate(storm, seed, machines, 2, SimDuration::from_secs(86_400));
        let demand = 0.3 * fleet.iter().map(|m| m.capacity).sum::<f64>();
        let (placement, replicas) = [
            (PlacementPolicy::Spread, 1),
            (PlacementPolicy::Consolidate, 1),
            (PlacementPolicy::Consolidate, 2),
            (PlacementPolicy::Consolidate, 3),
        ][policy_ix];
        let policy = ChaosPolicy {
            placement,
            replicas,
            ..ChaosPolicy::default()
        };
        let Ok(r) = run_chaos(&fleet, &schedule, demand, &policy, &mut Tracer::off()) else {
            return;
        };
        for (id, e) in r.ledger.iter() {
            assert!(e.joules().is_finite(), "{id} bills {} J", e.joules());
        }
        assert!(r.total_energy().joules().is_finite());
        assert!(
            r.conservation_error() <= 1e-6 * r.offered.max(1.0),
            "served {} + shed {} + failed {} != offered {}",
            r.served,
            r.shed,
            r.failed,
            r.offered
        );
    });
}

/// The cached efficiency order places like a fresh sort: along any
/// event sequence — crashes and restarts of flapping machines,
/// domain outages, brownouts, surges; bursts at one instant; every
/// breaker wake-up delivered together with a chaos event at its very
/// timestamp — each plan's placement and each `Effects::booted` are
/// what the collect-and-sort reference derives from the health alone.
/// On `chaos_fleet` (three efficiency classes: nearly every
/// comparison is a tie) and on a fleet of all-distinct efficiencies.
#[test]
fn cached_order_places_like_a_fresh_sort() {
    check(CASES, |g| {
        let (distinct, policy_ix) = (g.bool(), g.range(0usize..4));
        let frac = g.range(0.05f64..0.95);
        let ops = g.vec(1..80, |g| {
            (
                g.range(0u8..10),
                g.range(0u32..24),
                g.range(0u8..4),
                g.range(0u64..900),
            )
        });
        let fleet: Vec<Machine> = if distinct {
            (0..24u32)
                .map(|i| {
                    let capacity = 1_000.0 + 37.0 * f64::from((i * 7) % 24);
                    Machine::new(
                        &format!("m{i}"),
                        capacity,
                        Watts::new(200.0),
                        Watts::new(400.0),
                    )
                    .with_domain(i % 4)
                })
                .collect()
        } else {
            chaos_fleet(4, 6)
        };
        let (placement, replicas) = [
            (PlacementPolicy::Spread, 1),
            (PlacementPolicy::Consolidate, 1),
            (PlacementPolicy::Consolidate, 2),
            (PlacementPolicy::Consolidate, 3),
        ][policy_ix];
        let policy = ChaosPolicy {
            placement,
            replicas,
            ..ChaosPolicy::default()
        };
        let demand = frac * fleet.iter().map(|m| m.capacity).sum::<f64>();
        let mut state = FleetState::new(&fleet, 4, &policy, demand);
        let mut domain_up = [true; 4];
        let mut cap_frac = 1.0;
        let mut wakes: Vec<SimInstant> = Vec::new();
        let mut now = SimInstant::EPOCH;
        for (kind, index, clock, secs) in ops {
            let mut wake = None;
            wakes.sort();
            match clock {
                0 => {}
                1 => now += SimDuration::from_secs(secs),
                _ => {
                    if let Some(due) = wakes.first().copied().filter(|d| *d >= now) {
                        now = due;
                        wake = Some(FleetEvent::Wake);
                    }
                }
            }
            wakes.retain(|w| *w > now);
            let (machine, domain) = (index, index % 4);
            let chaos = match kind {
                0..=3 if state.machine_up(machine as usize) => {
                    ChaosEventKind::MachineCrash { machine }
                }
                0..=3 | 9 => ChaosEventKind::MachineUp { machine },
                4 => {
                    let up = &mut domain_up[domain as usize];
                    *up = !*up;
                    if *up {
                        ChaosEventKind::DomainUp { domain }
                    } else {
                        ChaosEventKind::DomainDown { domain }
                    }
                }
                5 => ChaosEventKind::BrownoutStart {
                    cap_frac: 0.5 + 0.05 * f64::from(index % 8),
                },
                6 => ChaosEventKind::BrownoutEnd,
                7 => ChaosEventKind::SurgeStart {
                    factor: 0.5 + 0.25 * f64::from(index % 12),
                },
                _ => ChaosEventKind::SurgeEnd,
            };
            match chaos {
                ChaosEventKind::BrownoutStart { cap_frac: cap } => cap_frac = cap,
                ChaosEventKind::BrownoutEnd => cap_frac = 1.0,
                _ => {}
            }
            // The chaos event first, then the wake-up due at the same
            // instant: the order the event queue delivers them in.
            for event in std::iter::once(FleetEvent::Chaos(chaos)).chain(wake) {
                let before = state.plan().clone();
                let fx = state.apply(&fleet, &policy, demand, now, event);
                if let Some((_, hold)) = fx.quarantine {
                    wakes.push(now + hold);
                    assert_eq!(state.plan(), &before);
                    assert!(fx.booted.is_empty());
                    continue;
                }
                let eff_cap: Vec<f64> = (0..fleet.len())
                    .map(|i| {
                        if state.available(&fleet, i, now) {
                            usable_capacity(&fleet[i], cap_frac)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let plan = state.plan();
                let expected =
                    reference_placement(&fleet, placement, &eff_cap, plan.served_rate, plan.r_eff);
                assert_eq!(plan.placement, expected, "{event:?} at {now}");
                let boots: Vec<usize> = (0..fleet.len())
                    .filter(|&i| expected.powered[i] && !before.placement.powered[i])
                    .collect();
                assert_eq!(fx.booted, boots, "{event:?} at {now}");
            }
        }
    });
}
