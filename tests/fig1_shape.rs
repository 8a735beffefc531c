//! Integration: the Fig. 1 reproduction contract (DESIGN.md §3).
//!
//! Runs the full pipeline — generation → storage → templates → executor
//! → simulator — at the bench's parameters and asserts the published
//! shape: an interior efficiency peak at 66 disks, ~14% efficiency for
//! ~45% performance between 66 and 204 disks, and a disk-dominated
//! power budget.

use grail::core::db::{CompressionMode, EnergyAwareDb, ExecPolicy};
use grail::core::profile::HardwareProfile;
use grail::core::report::EnergyReport;
use grail::workload::tpch::TpchScale;

/// The four Fig. 1 servers, each running over one shared load of the
/// toy tables.
fn sweep() -> Vec<(usize, EnergyReport)> {
    let policy = ExecPolicy {
        compression: CompressionMode::Plain,
        dop: 4,
    };
    let mut toy = EnergyAwareDb::new(HardwareProfile::flash_scanner());
    toy.load_tpch(TpchScale::toy());
    [36usize, 66, 108, 204]
        .into_iter()
        .map(|d| {
            let db = toy.on(HardwareProfile::server_dl785(d));
            (d, db.run_throughput_test(8, 4, policy, 30_000.0))
        })
        .collect()
}

#[test]
fn efficiency_peaks_at_66_disks() {
    let rows = sweep();
    let ee: Vec<f64> = rows
        .iter()
        .map(|(_, r)| r.efficiency().work_per_joule())
        .collect();
    // Interior peak at index 1 (66 disks).
    assert!(ee[1] > ee[0], "EE(66) > EE(36): {ee:?}");
    assert!(ee[1] > ee[2], "EE(66) > EE(108): {ee:?}");
    assert!(ee[1] > ee[3], "EE(66) > EE(204): {ee:?}");
}

#[test]
fn paper_deltas_hold() {
    let rows = sweep();
    let get = |d: usize| rows.iter().find(|(n, _)| *n == d).expect("swept");
    let (_, r66) = get(66);
    let (_, r204) = get(204);
    // ~14% better efficiency at 66 (band: 8–20%).
    let ee_gain = r66.efficiency().work_per_joule() / r204.efficiency().work_per_joule() - 1.0;
    assert!((0.08..0.20).contains(&ee_gain), "EE gain {ee_gain}");
    // ~45% performance drop at 66 (band: 35–55%).
    let perf_drop = 1.0 - r204.elapsed.as_secs_f64() / r66.elapsed.as_secs_f64();
    assert!((0.35..0.55).contains(&perf_drop), "perf drop {perf_drop}");
}

#[test]
fn time_monotonically_improves_with_disks() {
    let rows = sweep();
    for w in rows.windows(2) {
        assert!(
            w[1].1.elapsed < w[0].1.elapsed,
            "more disks must not be slower: {} disks {} vs {} disks {}",
            w[0].0,
            w[0].1.elapsed,
            w[1].0,
            w[1].1.elapsed
        );
    }
}

#[test]
fn disk_subsystem_dominates_power() {
    let rows = sweep();
    // At the audited-like 66+ configs the disk subsystem holds roughly
    // half the energy (the paper claims >50% of power; our measured
    // energy share at 66 disks sits within a point or two of it).
    let (_, r66) = rows.iter().find(|(n, _)| *n == 66).expect("swept");
    assert!(r66.disk_share() > 0.45, "share {}", r66.disk_share());
    let (_, r204) = rows.iter().find(|(n, _)| *n == 204).expect("swept");
    assert!(r204.disk_share() > 0.65, "share {}", r204.disk_share());
}

#[test]
fn reproduction_is_deterministic() {
    let a = sweep();
    let b = sweep();
    for ((d1, r1), (d2, r2)) in a.iter().zip(&b) {
        assert_eq!(d1, d2);
        assert_eq!(r1.elapsed, r2.elapsed);
        assert_eq!(r1.ledger, r2.ledger);
    }
}
