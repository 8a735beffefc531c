//! The Fig. 2 decision as an application would face it: should this
//! table be stored compressed?
//!
//! Fast answer: "yes, it's 2× faster." Energy answer: "it depends what
//! your optimizer optimizes." This example runs the same scan under
//! three physical designs and scores each under three objectives.
//!
//! Run with: `cargo run --release --example compression_tradeoff`

#![expect(clippy::print_stdout, reason = "an example prints what it shows")]

use grail::core::db::{CompressionMode, EnergyAwareDb, ExecPolicy, ScanSpec};
use grail::core::profile::HardwareProfile;
use grail::core::report::EnergyReport;
use grail::sim::SimError;
use grail::workload::tpch::TpchScale;

fn main() -> Result<(), SimError> {
    let mut db = EnergyAwareDb::new(HardwareProfile::flash_scanner());
    db.load_tpch(TpchScale::toy());
    let stretch = 15_000.0;

    let modes = [
        ("uncompressed", CompressionMode::Plain),
        ("light codecs (Fig.2)", CompressionMode::Fig2),
        ("aggressive codecs", CompressionMode::Auto),
    ];
    let mut results: Vec<(&str, EnergyReport)> = Vec::new();
    println!(
        "{:<22} {:>10} {:>10} {:>12} {:>14}",
        "physical design", "time (s)", "cpu (s)", "energy (J)", "EE (rows/J)"
    );
    for (label, mode) in modes {
        let r = db.try_run_scan(
            &ScanSpec::fig2(),
            ExecPolicy {
                compression: mode,
                dop: 1,
            },
            stretch,
        )?;
        println!(
            "{:<22} {:>10.2} {:>10.2} {:>12.1} {:>14.3e}",
            label,
            r.elapsed.as_secs_f64(),
            r.cpu_busy.as_secs_f64(),
            r.energy.joules(),
            r.efficiency().work_per_joule()
        );
        results.push((label, r));
    }

    let by_time = results
        .iter()
        .min_by(|a, b| a.1.elapsed.cmp(&b.1.elapsed))
        .expect("ran");
    let by_energy = results
        .iter()
        .min_by(|a, b| a.1.energy.partial_cmp(&b.1.energy).expect("finite"))
        .expect("ran");
    let by_edp = results
        .iter()
        .min_by(|a, b| {
            let ea = a.1.energy.delay_product(a.1.elapsed);
            let eb = b.1.energy.delay_product(b.1.elapsed);
            ea.total_cmp(&eb)
        })
        .expect("ran");

    println!();
    println!("MinTime   picks: {}", by_time.0);
    println!("MinEnergy picks: {}", by_energy.0);
    println!("MinEDP    picks: {}", by_edp.0);
    println!();
    println!(
        "the paper's Fig. 2 in one line: the design that is {:.1}x faster costs {:.0}% more energy.",
        results[0].1.elapsed.as_secs_f64() / by_time.1.elapsed.as_secs_f64(),
        100.0 * (by_time.1.energy.joules() / results[0].1.energy.joules() - 1.0)
    );
    Ok(())
}
