//! Quickstart: build the Fig. 2 machine, load a toy database, scan a
//! projection, and read the energy meter.
//!
//! Run with: `cargo run --release --example quickstart`

#![expect(clippy::print_stdout, reason = "an example prints what it shows")]

use grail::prelude::*;
use grail::sim::SimError;

fn main() -> Result<(), SimError> {
    // The paper's Fig. 2 hardware: one 90 W CPU, three flash drives
    // drawing 5 W total.
    let mut db = EnergyAwareDb::new(HardwareProfile::flash_scanner());

    // A deterministic TPC-H-like database (10 K orders).
    db.load_tpch(TpchScale::toy());

    // Scan 5 of ORDERS' 7 columns, stretched to the paper's 150 M-row
    // table so the numbers are recognizable.
    let report = db.try_run_scan(&ScanSpec::fig2(), ExecPolicy::default(), 15_000.0)?;

    println!("{}", report.summary());
    println!();
    println!("breakdown:");
    print!("{}", report.ledger);
    println!();
    println!(
        "performance: {:.2e} rows/s   efficiency: {:.2e} rows/J",
        report.perf(),
        report.efficiency().work_per_joule()
    );
    println!(
        "cpu busy {:.2}s of {:.2}s elapsed — the scan is {}-bound",
        report.cpu_busy.as_secs_f64(),
        report.elapsed.as_secs_f64(),
        if report.cpu_busy.as_secs_f64() > 0.9 * report.elapsed.as_secs_f64() {
            "CPU"
        } else {
            "disk"
        }
    );
    Ok(())
}
