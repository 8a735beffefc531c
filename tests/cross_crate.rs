//! Integration across crate boundaries:
//!
//! * the optimizer's analytic cost model vs the discrete-event
//!   simulator (the model must predict what the machine measures);
//! * scheduler governors driving real simulated disks;
//! * the executor's charges vs the optimizer's operator estimates.

use grail::core::db::{CompressionMode, EnergyAwareDb, ExecPolicy, ScanSpec};
use grail::core::optimizer::cost::CostModel;
use grail::core::profile::HardwareProfile;
use grail::power::components::CpuPowerProfile;
use grail::power::units::{Bytes, Cycles, SimDuration, SimInstant};
use grail::scheduler::governor::{
    IdleGovernor, NeverPark, OracleGovernor, ParkCosts, TimeoutGovernor,
};
use grail::sim::perf::AccessPattern;
use grail::sim::raid::RaidLevel;
use grail::sim::StorageTarget;
use grail::workload::tpch::TpchScale;

/// The cost model and the simulator must agree on the Fig. 2 scan
/// within a few percent — the paper's premise that "simple models may
/// suffice" — on the flash scanner and on every FIG1 server size.
#[test]
fn cost_model_predicts_simulator() {
    let profiles = [36, 66, 108, 204].map(HardwareProfile::server_dl785);
    for profile in [HardwareProfile::flash_scanner()].iter().chain(&profiles) {
        let mut db = EnergyAwareDb::new(profile.clone());
        db.load_tpch(TpchScale::toy());
        let measured = db.run_scan(&ScanSpec::fig2(), ExecPolicy::default(), 15_000.0);

        let model = CostModel::new(profile).unwrap();
        // 5 columns × 10 K rows × 15 000 stretch = 750 M values, 6 GB.
        let predicted = model.scan(750.0e6, 6.0e9, 0.0);

        let (name, disks) = (profile.name, profile.disks);
        let t_err = (predicted.elapsed_secs - measured.elapsed.as_secs_f64()).abs()
            / measured.elapsed.as_secs_f64();
        assert!(t_err < 0.05, "{name}/{disks}: time error {t_err}");
        let e_err =
            (predicted.energy_j - measured.energy.joules()).abs() / measured.energy.joules();
        assert!(e_err < 0.08, "{name}/{disks}: energy error {e_err}");
    }
}

fn governor_episode(governor: &dyn IdleGovernor) -> f64 {
    let costs = ParkCosts::scsi_15k();
    let profile = HardwareProfile {
        cpu_power: CpuPowerProfile::fig2_cpu(),
        ..HardwareProfile::scsi_server(1, 2, RaidLevel::Raid0)
    };
    let (mut sim, cpu, targets) = profile.try_build().expect("geometry");
    let StorageTarget::Array(arr) = targets[0] else {
        unreachable!("a disk profile scans its array")
    };
    let disks = sim.array(arr).expect("built array").disks.clone();
    // Fixed schedule: a burst, a 100 s gap, a burst, a 30 s gap, a burst.
    let mut prev_end = SimInstant::EPOCH;
    for (arrive_s, mib) in [(0.0, 256u64), (120.0, 256), (160.0, 256)] {
        let arrive = SimInstant::from_secs_f64(arrive_s);
        let start = arrive.max(prev_end);
        if start > prev_end {
            if let Some(plan) = governor.plan_gap(prev_end, start, &costs) {
                for d in &disks {
                    sim.park_disk(*d, plan.park_at).expect("disk");
                }
                if let Some(w) = plan.unpark_at {
                    for d in &disks {
                        sim.unpark_disk(*d, w).expect("disk");
                    }
                }
            }
        }
        let io = sim
            .read(
                StorageTarget::Array(arr),
                start,
                Bytes::mib(mib),
                AccessPattern::Sequential,
            )
            .expect("read");
        let c = sim
            .compute(cpu, start, Cycles::new(100_000_000))
            .expect("cpu");
        prev_end = io.end.max(c.end);
    }
    sim.finish(prev_end).total_energy().joules()
}

/// On real simulated disks: oracle ≤ timeout ≤ never, strictly ordered
/// on a schedule with one park-worthy gap.
#[test]
fn governor_energy_ordering_on_real_disks() {
    let never = governor_episode(&NeverPark);
    let timeout = governor_episode(&TimeoutGovernor {
        timeout: SimDuration::from_secs(10),
    });
    let oracle = governor_episode(&OracleGovernor);
    assert!(oracle < timeout, "oracle {oracle} < timeout {timeout}");
    assert!(timeout < never, "timeout {timeout} < never {never}");
    // Magnitudes: the 100 s gap parked saves tens of kJ... sanity only.
    assert!(never > 0.0 && oracle > 0.0);
}

/// The executor's measured charges line up with the optimizer's
/// per-operator estimates for a scan (same constants, same answer).
#[test]
fn executor_charges_match_cost_model_scan() {
    use grail::query::batch::Table;
    use grail::query::cost_charge::CostCharge;
    use grail::query::exec::{run_collect, ExecContext};
    use grail::query::ops::{ColumnarScan, StoredTable};
    use grail::query::schema::{ColumnType, Schema};
    use std::sync::Arc;

    let n = 50_000usize;
    let schema = Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]);
    let table = Arc::new(Table::new(
        "t",
        schema,
        vec![
            (0..n as i64).collect(),
            (0..n as i64).map(|i| i % 5).collect(),
        ],
    ));
    let stored = Arc::new(StoredTable::columnar_plain(
        table,
        grail::core::db::LOGICAL_TARGET,
    ));
    let mut scan = ColumnarScan::new(stored, vec![0, 1]);
    let mut ctx = ExecContext::calibrated();
    run_collect(&mut scan, &mut ctx).expect("scan");
    let cpu = ctx.total_cpu().get() as f64;
    let io = ctx.total_io_bytes().get() as f64;

    let charge = CostCharge::default_calibrated();
    let expected_cpu = 2.0 * n as f64 * charge.scan_cycles_per_value;
    let expected_io = 2.0 * n as f64 * 8.0;
    assert!(
        (cpu - expected_cpu).abs() / expected_cpu < 0.01,
        "{cpu} vs {expected_cpu}"
    );
    assert!((io - expected_io).abs() < 1.0, "{io} vs {expected_io}");
}

/// Loading the same seed twice and running the same workload yields
/// byte-identical reports across the whole stack.
#[test]
fn whole_stack_determinism() {
    let run = || {
        let mut db = EnergyAwareDb::new(HardwareProfile::server_dl785(36));
        db.load_tpch_seeded(TpchScale { orders_rows: 3000 }, 1234);
        let r = db.run_throughput_test(
            4,
            2,
            ExecPolicy {
                compression: CompressionMode::Auto,
                dop: 2,
            },
            100.0,
        );
        (r.elapsed, r.energy, r.ledger)
    };
    let (t1, e1, l1) = run();
    let (t2, e2, l2) = run();
    assert_eq!(t1, t2);
    assert_eq!(e1, e2);
    assert_eq!(l1, l2);
}
