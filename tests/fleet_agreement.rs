//! Two models of one fleet agree where they overlap.
//!
//! `scheduler::chaos` is a fluid model: a plan is a load per machine and
//! energy is `power_at(load) × time`. `sim::parallel` is a discrete-event
//! model: cells run jobs on cores. On a calm fleet they describe the same
//! physics, so lowering each powered [`Machine`] of a plan to a
//! [`CellSpec`] and running the cells must bill the same Joules. The
//! mapping lives here, not in a crate: there is no `Fleet → cells` back
//! end yet (ROADMAP item 3), and this test is the contract it will have
//! to meet.
//!
//! Deliberately *not* asserted: the crash path. The fluid model bills a
//! `MachineCrash` as cold boots plus hedged replay, the cells as a flat
//! `SimConfig::crash_boot_energy`; DESIGN §11 quantifies that gap.

use grail::power::components::CpuPowerProfile;
use grail::power::units::{Cycles, Hertz, SimDuration, SimInstant, Watts};
use grail::scheduler::chaos::{run_chaos, ChaosPolicy, FleetState};
use grail::scheduler::cluster::{chaos_fleet, Machine, PlacementPolicy};
use grail::sim::driver::{JobSpec, PhaseSpec};
use grail::sim::fault::ChaosSchedule;
use grail::sim::{run_parallel, CellSpec, CpuPerfProfile, SimConfig};
use grail::trace::Tracer;

const CORES: u32 = 4;
const HORIZON_SECS: u64 = 600;
/// Measured 0 (equal to the printed millijoule); the claim is 0.1 %.
const TOLERANCE: f64 = 1e-3;

/// A powered machine carrying `load` as a cell: four 1 GHz cores whose
/// uncore draws the machine's idle power and whose active cores add the
/// rest of its linear curve, fed one CPU-only job per second that keeps
/// all cores busy for `load / capacity` of it. A zero-work job at the
/// horizon pins the cell's settlement to the fluid model's.
fn lower(m: &Machine, load: f64) -> CellSpec {
    let power = CpuPowerProfile {
        core_active: Watts::new((m.peak.get() - m.idle.get()) / f64::from(CORES)),
        core_idle: Watts::ZERO,
        uncore: m.idle,
        cores: CORES,
    };
    let perf = CpuPerfProfile {
        cores: CORES,
        freq: Hertz::ghz(1.0),
    };
    let cycles = Cycles::new((load / m.capacity * f64::from(CORES) * 1e9).round() as u64);
    let job = |second: u64, work: Cycles| JobSpec {
        arrival: SimInstant::EPOCH + SimDuration::from_secs(second),
        phases: vec![PhaseSpec::cpu_only(work, CORES)],
    };
    let mut stream: Vec<JobSpec> = (0..HORIZON_SECS).map(|s| job(s, cycles)).collect();
    stream.push(job(HORIZON_SECS, Cycles::new(0)));
    let mut cell = CellSpec::new(perf, power);
    cell.streams.push(stream);
    cell
}

#[test]
fn fluid_and_cell_models_bill_a_calm_fleet_the_same_energy() {
    let fleet = chaos_fleet(2, 3);
    let capacity: f64 = fleet.iter().map(|m| m.capacity).sum();
    let horizon = SimDuration::from_secs(HORIZON_SECS);
    let calm = ChaosSchedule::scripted(fleet.len() as u32, 2, horizon, vec![]);
    for placement in [PlacementPolicy::Consolidate, PlacementPolicy::Spread] {
        let policy = ChaosPolicy {
            placement,
            replicas: 1,
            ..ChaosPolicy::default()
        };
        for frac in [0.25, 0.60, 1.00] {
            let demand = capacity * frac;
            let fluid = run_chaos(&fleet, &calm, demand, &policy, &mut Tracer::off())
                .expect("calm run")
                .total_energy()
                .joules();

            let state = FleetState::new(&fleet, 2, &policy, demand);
            let plan = &state.plan().placement;
            let cells: Vec<CellSpec> = (0..fleet.len())
                .filter(|&i| plan.powered[i])
                .map(|i| lower(&fleet[i], plan.loads[i]))
                .collect();
            let cells = run_parallel(&SimConfig::new(cells), 2)
                .expect("cells run")
                .report
                .total_energy()
                .joules();

            assert!(fluid > 0.0);
            assert!(
                (fluid - cells).abs() <= TOLERANCE * fluid,
                "{placement:?} at {frac}: fluid {fluid:.3} J vs cells {cells:.3} J"
            );
        }
    }
}
