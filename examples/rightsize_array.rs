//! Right-sizing a disk array for a workload — Fig. 1 as a tuning tool.
//!
//! Given a throughput-test workload, sweep spindle counts and report
//! the best configuration under each objective. A performance DBA and
//! an energy DBA buy different numbers of disks.
//!
//! Run with: `cargo run --release --example rightsize_array`

#![expect(clippy::print_stdout, reason = "an example prints what it shows")]

use grail::core::db::{CompressionMode, EnergyAwareDb, ExecPolicy};
use grail::core::profile::HardwareProfile;
use grail::sim::SimError;
use grail::workload::tpch::TpchScale;

fn main() -> Result<(), SimError> {
    let policy = ExecPolicy {
        compression: CompressionMode::Plain,
        dop: 4,
    };
    let stretch = 30_000.0; // ≈ the audited 300 GB class
    let candidates = [24usize, 36, 48, 66, 90, 108, 150, 204];

    println!(
        "{:>6} {:>12} {:>14} {:>12} {:>16}",
        "disks", "time (s)", "energy (J)", "avg W", "EE (queries/J)"
    );
    // One load of the toy tables, moved to each candidate machine.
    let mut toy = EnergyAwareDb::new(HardwareProfile::flash_scanner());
    toy.load_tpch(TpchScale::toy());
    let mut rows = Vec::new();
    for d in candidates {
        let db = toy.on(HardwareProfile::server_dl785(d));
        let r = db.try_run_throughput_test(8, 4, policy, stretch)?;
        println!(
            "{:>6} {:>12.1} {:>14.0} {:>12.0} {:>16.4e}",
            d,
            r.elapsed.as_secs_f64(),
            r.energy.joules(),
            r.avg_power().get(),
            r.efficiency().work_per_joule()
        );
        rows.push((d, r));
    }

    let fastest = rows
        .iter()
        .min_by(|a, b| a.1.elapsed.cmp(&b.1.elapsed))
        .expect("swept");
    let greenest = rows
        .iter()
        .max_by(|a, b| {
            a.1.efficiency()
                .work_per_joule()
                .partial_cmp(&b.1.efficiency().work_per_joule())
                .expect("finite")
        })
        .expect("swept");
    let edp = rows
        .iter()
        .min_by(|a, b| {
            let ea = a.1.energy.delay_product(a.1.elapsed);
            let eb = b.1.energy.delay_product(b.1.elapsed);
            ea.total_cmp(&eb)
        })
        .expect("swept");

    println!();
    println!("performance DBA buys {} disks (fastest mix).", fastest.0);
    println!(
        "energy DBA buys {} disks: {:+.1}% efficiency for {:+.1}% runtime vs the fast config.",
        greenest.0,
        100.0
            * (greenest.1.efficiency().work_per_joule() / fastest.1.efficiency().work_per_joule()
                - 1.0),
        100.0 * (greenest.1.elapsed.as_secs_f64() / fastest.1.elapsed.as_secs_f64() - 1.0),
    );
    println!("EDP referee suggests {} disks.", edp.0);
    Ok(())
}
