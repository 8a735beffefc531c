//! End-to-end determinism: a real simulation sweep fanned across
//! worker threads is bit-identical to the sequential run.
//!
//! The unit in crates/par proves the runner preserves order for pure
//! functions; this test closes the loop with the actual workload — a
//! small Figure-1-style throughput sweep over full `EnergyAwareDb`
//! worlds, whose threaded points share one load — comparing every
//! result down to the f64 bit pattern.

use grail_core::db::{CompressionMode, EnergyAwareDb, ExecPolicy, ScanSpec};
use grail_core::profile::HardwareProfile;
use grail_par::Runner;
use grail_workload::tpch::TpchScale;
use std::sync::Barrier;

/// The toy tables on `profile`, nothing generated yet.
fn load(profile: HardwareProfile) -> EnergyAwareDb {
    let mut db = EnergyAwareDb::new(profile);
    db.load_tpch(TpchScale::toy());
    db
}

/// One sweep point, run on `db`'s `disks`-spindle DL785, rendered to
/// exact bits: any divergence in simulated time, energy, or work across
/// execution modes shows up here.
fn point(db: &EnergyAwareDb, disks: usize) -> String {
    let policy = ExecPolicy {
        compression: CompressionMode::Plain,
        dop: 4,
    };
    let r = db.run_throughput_test(2, 2, policy, 1_000.0);
    format!(
        "disks={} elapsed={:016x} energy={:016x} work={:016x}",
        disks,
        r.elapsed.as_secs_f64().to_bits(),
        r.energy.joules().to_bits(),
        r.work.to_bits(),
    )
}

/// The sequential sweep runs each point on a fresh db of its own; the
/// threaded sweeps move one unread base db to every point's machine
/// with `on`, so points on different machines race to generate and
/// store the tables they all read.
#[test]
fn parallel_simulation_sweep_is_bit_identical() {
    let disks = [12usize, 24, 36];
    let dl785 = HardwareProfile::server_dl785;
    let seq = Runner::sequential().run(&disks, |_, d| point(&load(dl785(*d)), *d));
    assert_eq!(seq.len(), disks.len());
    for threads in [2usize, 8] {
        let base = load(HardwareProfile::flash_scanner());
        let par = Runner::with_threads(threads).run(&disks, |_, d| point(&base.on(dl785(*d)), *d));
        assert_eq!(par, seq, "threads={threads}");
    }
}

/// Two workers race the first Fig. 2 scan of one shared `&db`: whoever
/// loses the race to store ORDERS must see the winner's table, and both
/// must report what a sequential run on a db of its own reports.
#[test]
fn racing_first_scans_share_one_store() {
    let policy = ExecPolicy {
        compression: CompressionMode::Fig2,
        dop: 1,
    };
    let scan = |db: &EnergyAwareDb| {
        let r = db
            .try_run_scan(&ScanSpec::fig2(), policy, 1.0)
            .expect("loaded db scans");
        (r.elapsed, r.energy, r.work.to_bits(), r.ledger)
    };
    let sequential = scan(&load(HardwareProfile::flash_scanner()));
    let shared = load(HardwareProfile::flash_scanner());
    // Each worker claims one of the two items and waits for the other,
    // so both calls start on a store nobody has filled yet.
    let gate = Barrier::new(2);
    let raced = Runner::with_threads(2).run(&[(), ()], |_, _| {
        gate.wait();
        scan(&shared)
    });
    assert_eq!(raced, vec![sequential.clone(), sequential]);
}
