//! FIG1 — Figure 1 of the paper: time and energy efficiency of the
//! TPC-H-like throughput test vs number of disks {36, 66, 108, 204}.
//!
//! Expected shape (paper): time falls as spindles are added; energy
//! efficiency peaks at 66 disks — "the most efficient point offers a 14%
//! increase in efficiency for a 45% drop in performance" relative to the
//! 204-disk maximum-performance point — and the disk subsystem draws
//! more than half the system power.
//!
//! Sweep points run through `grail_par`; rows are reported in input
//! order, so output is identical at every thread count. The two series
//! of the figure are returned as `figures/fig1_time.csv` and
//! `figures/fig1_efficiency.csv`.

use super::Outcome;
use crate::points::{fig1_point, toy, FIG1_DISKS};
use crate::{cell_f64, Csv};
use grail_par::Runner;

pub(super) fn run(runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let toy = toy();
    let recs = runner.run(&FIG1_DISKS, |_, d| fig1_point(&toy, *d));
    let mut time_csv = Csv::new(&["disks", "time_s"]);
    let mut ee_csv = Csv::new(&["disks", "efficiency_work_per_joule"]);
    for (d, rec) in FIG1_DISKS.iter().zip(&recs) {
        time_csv.row(&[d.to_string(), cell_f64(rec.elapsed_secs)]);
        ee_csv.row(&[d.to_string(), cell_f64(rec.efficiency)]);
    }
    out.figure("figures/fig1_time.csv", time_csv.finish());
    out.figure("figures/fig1_efficiency.csv", ee_csv.finish());

    // The paper's headline numbers.
    let at = |d: usize| &recs[FIG1_DISKS.iter().position(|n| *n == d).expect("swept")];
    let peak = FIG1_DISKS
        .iter()
        .zip(&recs)
        .max_by(|a, b| a.1.efficiency.partial_cmp(&b.1.efficiency).expect("finite"))
        .expect("non-empty")
        .0;
    out.say(format!("efficiency peak:        {peak} disks (paper: 66)"));
    out.say(format!(
        "EE(66)/EE(204):         {:.3} (paper: ~1.14)",
        at(66).efficiency / at(204).efficiency
    ));
    out.say(format!(
        "perf(66)/perf(204):     {:.3} (paper: ~0.55)",
        at(204).elapsed_secs / at(66).elapsed_secs
    ));
    let share = at(66).extra["disk_share"].as_f64().expect("recorded");
    out.say(format!(
        "disk power share @66:   {:.1}% (paper: >50%)",
        share * 100.0
    ));
    for rec in recs {
        out.push(rec);
    }
    out
}
