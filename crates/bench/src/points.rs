//! Pure experiment point functions shared by the swept experiments
//! (and mirrored by `perf/`'s frozen copies).
//!
//! Each function maps one swept configuration to its
//! [`ExperimentRecord`] using a private simulation world (its own
//! `Simulation`, and its own `EnergyAwareDb` on the point's machine,
//! seeded deterministically), so points are independent and safe to
//! fan across `grail_par` threads. The TPC-H points share one [`toy`]
//! load: the immutable tables are generated and stored once, by
//! whichever point reads them first, and moved to each machine with
//! [`EnergyAwareDb::on`]. Points compute, the experiment assembles its
//! `Outcome`, the driver reports — and the report order is the input
//! order regardless of execution mode.

use crate::ExperimentRecord;
use grail_core::db::{CompressionMode, EnergyAwareDb, ExecPolicy};
use grail_core::profile::HardwareProfile;
use grail_core::report::EnergyReport;
use grail_power::units::{Bytes, Cycles, SimDuration, SimInstant};
use grail_scheduler::chaos::{reference_storm, run_chaos, ChaosPolicy, ChaosReport};
use grail_scheduler::cluster::{Machine, PlacementPolicy};
use grail_scheduler::governor::{
    IdleGovernor, NeverPark, OracleGovernor, ParkCosts, TimeoutGovernor,
};
use grail_sim::perf::AccessPattern;
use grail_sim::raid::RaidLevel;
use grail_sim::sim::Simulation;
use grail_sim::{ArrayId, CpuId, DiskId};
use grail_sim::{ChaosConfig, ChaosSchedule, FaultConfig, FaultPlan, SimError, StorageTarget};
use grail_trace::Tracer;
use grail_workload::mix::poisson_arrivals;
use grail_workload::tpch::TpchScale;

// ---------------------------------------------------------------- FIG1

/// Disk counts swept by Figure 1.
pub const FIG1_DISKS: [usize; 4] = [36, 66, 108, 204];

/// Queries at the audited 300 GB class: demands measured at toy scale
/// (10 K orders) and stretched 30 000× (≈ SF 200). The audited system's
/// page compression achieved only ~1.17× (300 GB → 256 GB), which our
/// Plain columnar layout approximates; our column codecs compress 4×+
/// and would shift the mix away from the audited machine's disk-bound
/// regime.
pub const FIG1_STRETCH: f64 = 30_000.0;

/// The toy TPC-H tables (seed 42) on the flash scanner: the one load
/// a sweep shares, moved to each point's machine with
/// [`EnergyAwareDb::on`].
pub fn toy() -> EnergyAwareDb {
    let mut db = EnergyAwareDb::new(HardwareProfile::flash_scanner());
    db.load_tpch(TpchScale::toy());
    db
}

/// The Figure 1 throughput test on `db`: 8 streams × 4 queries at DOP 4
/// over the Plain layout, stretched by [`FIG1_STRETCH`].
pub fn fig1_throughput(db: &EnergyAwareDb) -> EnergyReport {
    let policy = ExecPolicy {
        compression: CompressionMode::Plain,
        dop: 4,
    };
    db.run_throughput_test(8, 4, policy, FIG1_STRETCH)
}

/// One point of the Figure 1 sweep: the TPC-H-like throughput test
/// over `toy`'s tables on a `disks`-spindle DL785 class server.
pub fn fig1_point(toy: &EnergyAwareDb, disks: usize) -> ExperimentRecord {
    let r = fig1_throughput(&toy.on(HardwareProfile::server_dl785(disks)));
    ExperimentRecord::new(
        "FIG1",
        &format!("disks={disks}"),
        r.elapsed.as_secs_f64(),
        r.energy.joules(),
        r.work,
        crate::extras!({
            "disk_share": r.disk_share(),
            "avg_power_w": r.avg_power().get(),
        }),
    )
}

// ---------------------------------------------------------------- FIG2

/// The two Figure 2 configurations, in paper order.
pub const FIG2_MODES: [(&str, CompressionMode); 2] = [
    ("uncompressed", CompressionMode::Plain),
    ("compressed", CompressionMode::Fig2),
];

/// Stretch toy ORDERS (10 K rows) to Fig. 2's ~150 M-row table (300 GB
/// scale factor): the 5-column projection is then ~6 GB.
pub const FIG2_STRETCH: f64 = 15_000.0;

/// One bar pair of Figure 2: the 5/7-column scan of `toy`'s ORDERS on
/// the flash scanner box under `mode`.
pub fn fig2_point(toy: &EnergyAwareDb, label: &str, mode: CompressionMode) -> ExperimentRecord {
    let db = toy.on(HardwareProfile::flash_scanner());
    let r = db.run_scan(
        &grail_core::db::ScanSpec::fig2(),
        ExecPolicy {
            compression: mode,
            dop: 1,
        },
        FIG2_STRETCH,
    );
    let stretch = FIG2_STRETCH;
    ExperimentRecord::new(
        "FIG2",
        label,
        r.elapsed.as_secs_f64(),
        r.energy.joules(),
        r.work,
        crate::extras!({
            "cpu_secs": r.cpu_busy.as_secs_f64() * stretch.max(1.0) / stretch,
            "cpu_busy_secs": r.cpu_busy.as_secs_f64(),
            "avg_power_w": r.avg_power().get(),
        }),
    )
}

// ----------------------------------------------------------- EXT-FAULT

/// Fault levels swept by EXT-FAULT, in report order.
pub const FAULT_LEVELS: [&str; 3] = ["none", "transient", "wearing"];

/// Idle governors swept by EXT-FAULT, in report order.
pub const FAULT_GOVERNORS: [&str; 3] = ["never", "timeout10s", "oracle"];

const N_DISKS: usize = 5;
const JOBS: usize = 40;
const FAULT_SEED: u64 = 1009;
/// Bytes re-silvered per member on a rebuild (the occupied slice of
/// each spindle, not the raw capacity).
const REBUILD_BYTES: Bytes = Bytes::gib(32);
const MAX_ATTEMPTS: u32 = 64;

/// The seeded fault level behind a sweep name.
pub fn fault_config(level: &str) -> FaultConfig {
    match level {
        "none" => FaultConfig::NONE,
        "transient" => FaultConfig {
            transient_per_io: 0.01,
            latent_per_read: 0.002,
            spin_up_fault: 0.05,
            ..FaultConfig::NONE
        },
        "wearing" => FaultConfig {
            transient_per_io: 0.01,
            latent_per_read: 0.002,
            spin_up_fault: 0.05,
            spin_up_kill: 0.05,
            ..FaultConfig::NONE
        },
        other => panic!("unknown fault level {other:?}"),
    }
}

/// The idle governor behind a sweep name.
pub fn fault_governor(name: &str) -> Box<dyn IdleGovernor> {
    match name {
        "never" => Box::new(NeverPark),
        "timeout10s" => Box::new(TimeoutGovernor {
            timeout: SimDuration::from_secs(10),
        }),
        "oracle" => Box::new(OracleGovernor),
        other => panic!("unknown governor {other:?}"),
    }
}

/// The box EXT-SCHED parks and EXT-FAULT faults, built: four cores
/// over `disks` 15K spindles in `raid`, with its array and the array's
/// member disks.
pub fn parking_box(disks: usize, raid: RaidLevel) -> (Simulation, CpuId, ArrayId, Vec<DiskId>) {
    let (sim, cpu, targets) = HardwareProfile::scsi_server(4, disks, raid)
        .try_build()
        .expect("geometry ok");
    let StorageTarget::Array(arr) = targets[0] else {
        unreachable!("a disk profile scans its array")
    };
    let members = sim.array(arr).expect("built array").disks.clone();
    (sim, cpu, arr, members)
}

/// One cell of the EXT-FAULT grid: replay the EXT-SCHED arrival stream
/// over a 5-disk RAID-5 box under a seeded fault level × idle governor,
/// with recovery energy on the ledger.
pub fn fault_point(level: &str, governor: &str) -> ExperimentRecord {
    let cfg = fault_config(level);
    let governor_impl = fault_governor(governor);
    let governor_ref = governor_impl.as_ref();
    let arrivals = poisson_arrivals(1.0 / 50.0, JOBS, 7);
    let costs = ParkCosts::scsi_15k();

    let (mut sim, cpu, arr, disks) = parking_box(N_DISKS, RaidLevel::Raid5);
    if !cfg.is_zero() {
        sim.set_fault_plan(FaultPlan::new(cfg, FAULT_SEED));
    }

    let mut prev_end = SimInstant::EPOCH;
    let mut parks = 0u64;
    let mut retries = 0u64;
    let mut rebuilds = 0u64;
    let mut total_latency = 0.0f64;
    for (i, &arrival) in arrivals.iter().enumerate() {
        let start = arrival.max(prev_end);
        // Govern the idle gap [prev_end, start). Wake on demand: the
        // spin-up happens at issue time, where faults can strike it.
        if start > prev_end {
            if let Some(plan) = governor_ref.plan_gap(prev_end, start, &costs) {
                for d in &disks {
                    sim.park_disk(*d, plan.park_at).expect("disk exists");
                }
                parks += 1;
            }
        }
        // One scan query: 400 MB off the array overlapping light CPU,
        // retried through transient faults, rebuilding on disk loss.
        let mut t = start;
        let mut attempts = 0u32;
        let io = loop {
            attempts += 1;
            assert!(attempts <= MAX_ATTEMPTS, "job {i} stuck retrying");
            match sim.read(
                StorageTarget::Array(arr),
                t,
                Bytes::mib(400),
                AccessPattern::Sequential,
            ) {
                Ok(r) => break r,
                Err(e) if e.is_retryable() => {
                    retries += 1;
                    t = e.retry_until().unwrap_or(t).max(t) + SimDuration::from_millis(100);
                }
                Err(SimError::DeviceFailed { .. }) => {
                    // The group lost too many members for degraded
                    // service: rebuild before retrying.
                    let rb = sim
                        .rebuild_array(arr, t, REBUILD_BYTES, Some(cpu))
                        .expect("failed members to rebuild");
                    rebuilds += 1;
                    retries += 1;
                    t = rb.end;
                }
                Err(e) => panic!("unexpected sim error: {e}"),
            }
        };
        let c = sim.compute(cpu, t, Cycles::new(500_000_000)).expect("cpu");
        let mut end = io.end.max(c.end);
        // A member lost mid-stream (degraded service kept the data
        // available) is re-silvered before the next arrival.
        let failed = sim.failed_array_disks(arr, end).expect("array exists");
        if !failed.is_empty() {
            let rb = sim
                .rebuild_array(arr, end, REBUILD_BYTES, Some(cpu))
                .expect("rebuild degraded group");
            rebuilds += 1;
            end = rb.end;
        }
        total_latency += end.duration_since(arrival).as_secs_f64();
        prev_end = end;
    }
    let report = sim.finish(prev_end);
    let energy_j = report.total_energy().joules();
    let recovery_j = report.recovery_energy().joules();
    ExperimentRecord::new(
        "EXT-FAULT",
        &format!("{level}+{governor}"),
        report.elapsed.as_secs_f64(),
        energy_j,
        JOBS as f64,
        crate::extras!({
            "recovery_j": recovery_j,
            "recovery_share": if energy_j > 0.0 { recovery_j / energy_j } else { 0.0 },
            "mean_latency_s": total_latency / JOBS as f64,
            "parks": parks,
            "retries": retries,
            "rebuilds": rebuilds,
        }),
    )
}

/// The indented recovery-detail console line below an EXT-FAULT row,
/// rendered from the record's extras.
pub fn fault_detail_line(rec: &ExperimentRecord) -> String {
    let f = |k: &str| rec.extra[k].as_f64().expect("fault extra");
    let u = |k: &str| rec.extra[k].as_u64().expect("fault extra");
    format!(
        "    recovery {:>10.1}J   retries {:>3}   rebuilds {:>2}   spin-downs {:>3}   latency {:>7.1}s",
        f("recovery_j"),
        u("retries"),
        u("rebuilds"),
        u("parks"),
        f("mean_latency_s"),
    )
}

// ----------------------------------------------------------- EXT-CHAOS

/// Chaos intensities swept by EXT-CHAOS, in report order.
pub const CHAOS_LEVELS: [&str; 3] = ["calm", "storm", "hurricane"];

/// Resilience policies swept by EXT-CHAOS (placement × replication), in
/// report order from most availability-biased to most energy-biased.
pub const CHAOS_POLICIES: [&str; 4] = [
    "spread-r1",
    "consolidate-r3",
    "consolidate-r2",
    "consolidate-r1",
];

/// The seeded chaos intensity behind a sweep name.
pub fn chaos_config(level: &str) -> ChaosConfig {
    match level {
        "calm" => ChaosConfig::NONE,
        "storm" => *reference_storm().1.config(),
        "hurricane" => ChaosConfig {
            machine_mtbf: Some(SimDuration::from_secs(6 * 3_600)),
            machine_restart: SimDuration::from_secs(900),
            domain_mtbf: Some(SimDuration::from_secs(86_400)),
            domain_outage: SimDuration::from_secs(3_600),
            brownout_mtbf: Some(SimDuration::from_secs(43_200)),
            brownout: SimDuration::from_secs(7_200),
            brownout_cap_frac: 0.6,
            surge_mtbf: Some(SimDuration::from_secs(21_600)),
            surge: SimDuration::from_secs(3_600),
            surge_factor: 2.0,
        },
        other => panic!("unknown chaos level {other:?}"),
    }
}

/// The resilience policy behind a sweep name.
pub fn chaos_policy(name: &str) -> ChaosPolicy {
    let (placement, replicas) = match name {
        "spread-r1" => (PlacementPolicy::Spread, 1),
        "consolidate-r1" => (PlacementPolicy::Consolidate, 1),
        "consolidate-r2" => (PlacementPolicy::Consolidate, 2),
        "consolidate-r3" => (PlacementPolicy::Consolidate, 3),
        other => panic!("unknown chaos policy {other:?}"),
    };
    ChaosPolicy {
        placement,
        replicas,
        ..ChaosPolicy::default()
    }
}

/// The fleet, seeded schedule and demand behind an EXT-CHAOS level:
/// the reference storm's 24-machine, 4-domain fleet at 25 % demand over
/// two simulated days, with the level's chaos intensity drawn from the
/// storm's seed — so `"storm"` *is* [`reference_storm`], and one edit
/// there moves every level.
pub fn chaos_world(level: &str) -> (Vec<Machine>, ChaosSchedule, f64) {
    let (fleet, storm, demand, _) = reference_storm();
    let schedule = ChaosSchedule::generate(
        chaos_config(level),
        storm.seed(),
        storm.machines(),
        storm.domains(),
        storm.horizon(),
    );
    (fleet, schedule, demand)
}

/// Run one EXT-CHAOS cell and return the raw report (shared by the
/// record path and tests that inspect the report directly).
pub fn chaos_report(level: &str, policy_name: &str) -> ChaosReport {
    let (fleet, schedule, demand) = chaos_world(level);
    let policy = chaos_policy(policy_name);
    run_chaos(&fleet, &schedule, demand, &policy, &mut Tracer::off()).expect("chaos point")
}

/// One cell of the EXT-CHAOS grid: the availability-vs-energy frontier
/// point for a chaos level × resilience policy.
pub fn chaos_point(level: &str, policy_name: &str) -> ExperimentRecord {
    let r = chaos_report(level, policy_name);
    let energy_j = r.total_energy().joules();
    ExperimentRecord::new(
        "EXT-CHAOS",
        &format!("{level}+{policy_name}"),
        r.horizon.as_secs_f64(),
        energy_j,
        r.served,
        crate::extras!({
            "availability": r.availability(),
            "recovery_j": r.recovery_energy().joules(),
            "recovery_share": if energy_j > 0.0 {
                r.recovery_energy().joules() / energy_j
            } else {
                0.0
            },
            "shed_frac": if r.offered > 0.0 { r.shed / r.offered } else { 0.0 },
            "failed": r.failed,
            "crashes": r.crashes,
            "domain_outages": r.domain_outages,
            "breaker_trips": r.breaker_trips,
            "cold_boots": r.cold_boots,
            "redispatches": r.redispatches,
            "degraded_secs": r.redundancy_degraded_secs,
            "placements": r.placements.len(),
        }),
    )
}

/// The indented resilience-detail console line below an EXT-CHAOS row,
/// rendered from the record's extras.
pub fn chaos_detail_line(rec: &ExperimentRecord) -> String {
    let f = |k: &str| rec.extra[k].as_f64().expect("chaos extra");
    let u = |k: &str| rec.extra[k].as_u64().expect("chaos extra");
    format!(
        "    avail {:>8.5}   recovery {:>10.1}J   shed {:>6.2}%   crashes {:>3}   breaker {:>2}   boots {:>3}",
        f("availability"),
        f("recovery_j"),
        f("shed_frac") * 100.0,
        u("crashes"),
        u("breaker_trips"),
        u("cold_boots"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_point_is_reproducible() {
        let warm = toy();
        let a = fig2_point(&warm, "uncompressed", CompressionMode::Plain);
        let b = fig2_point(&warm, "uncompressed", CompressionMode::Plain);
        let fresh = fig2_point(&toy(), "uncompressed", CompressionMode::Plain);
        assert_eq!(a.to_json_line(), b.to_json_line());
        assert_eq!(a.to_json_line(), fresh.to_json_line());
        assert!(a.energy_j > 0.0);
    }

    #[test]
    fn chaos_grid_names_resolve() {
        for l in CHAOS_LEVELS {
            let _ = chaos_config(l);
        }
        for p in CHAOS_POLICIES {
            let _ = chaos_policy(p);
        }
    }

    #[test]
    fn chaos_point_is_reproducible_and_conservative() {
        let a = chaos_point("storm", "consolidate-r2");
        let b = chaos_point("storm", "consolidate-r2");
        assert_eq!(a.to_json_line(), b.to_json_line());
        assert!(a.energy_j > 0.0);
        let r = chaos_report("storm", "consolidate-r2");
        assert!(r.conservation_error() <= 1e-6 * r.offered.max(1.0));
        let line = chaos_detail_line(&a);
        assert!(line.contains("avail"), "{line}");
    }

    #[test]
    fn storm_level_is_the_reference_storm() {
        let (fleet, schedule, demand, policy) = reference_storm();
        assert_eq!(chaos_world("storm"), (fleet, schedule, demand));
        assert_eq!(chaos_policy("consolidate-r2"), policy);
    }

    #[test]
    fn calm_level_is_eventless_and_fully_available() {
        let (_, schedule, _) = chaos_world("calm");
        assert!(schedule.is_empty());
        let r = chaos_report("calm", "consolidate-r2");
        assert!((r.availability() - 1.0).abs() < 1e-12);
        assert_eq!(r.recovery_energy().joules(), 0.0);
    }

    #[test]
    fn fault_detail_line_round_trips_extras() {
        let rec = ExperimentRecord::new(
            "EXT-FAULT",
            "none+never",
            1.0,
            10.0,
            40.0,
            crate::extras!({
                "recovery_j": 2.5,
                "recovery_share": 0.25,
                "mean_latency_s": 1.5,
                "parks": 3u64,
                "retries": 4u64,
                "rebuilds": 1u64,
            }),
        );
        let line = fault_detail_line(&rec);
        assert!(line.contains("recovery"), "{line}");
        assert!(line.contains("retries   4"), "{line}");
    }
}
