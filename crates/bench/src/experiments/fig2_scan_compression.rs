//! FIG2 — Figure 2 of the paper: a relational scan of ORDERS projecting
//! 5 of 7 columns, uncompressed vs compressed, on one 90 W CPU and
//! three flash drives totalling 5 W.
//!
//! Expected shape (paper): uncompressed is disk-bound (10 s total,
//! 3.2 s CPU, 338 J); compressed trades CPU for bandwidth and becomes
//! CPU-bound (5.5 s total, 5.1 s CPU) — ~2× faster yet ~44% **more**
//! energy (487 J), because the CPU is 18× the power of the flash.
//!
//! Both bars run through `grail_par`; rows are reported in input
//! order, so output is identical at every thread count. The grouped
//! bars of the figure are returned as `figures/fig2_bars.csv`.

use super::Outcome;
use crate::points::{fig2_point, toy, FIG2_MODES};
use crate::{cell_f64, Csv, ExperimentRecord};
use grail_par::Runner;

pub(super) fn run(runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let toy = toy();
    let recs = runner.run(&FIG2_MODES, |_, (label, mode)| {
        fig2_point(&toy, label, *mode)
    });
    let cpu_busy = |r: &ExperimentRecord| r.extra["cpu_busy_secs"].as_f64().expect("recorded");
    let mut bars = Csv::new(&["config", "total_s", "cpu_s", "energy_j"]);
    for rec in &recs {
        bars.row(&[
            rec.config.clone(),
            cell_f64(rec.elapsed_secs),
            cell_f64(cpu_busy(rec)),
            cell_f64(rec.energy_j),
        ]);
    }
    out.figure("figures/fig2_bars.csv", bars.finish());

    let (unc, cmp) = (&recs[0], &recs[1]);
    out.say(format!(
        "uncompressed: total {:.2}s  CPU {:.2}s  E {:.0}J   (paper: 10s / 3.2s / 338J)",
        unc.elapsed_secs,
        cpu_busy(unc),
        unc.energy_j
    ));
    out.say(format!(
        "compressed:   total {:.2}s  CPU {:.2}s  E {:.0}J   (paper: 5.5s / 5.1s / 487J)",
        cmp.elapsed_secs,
        cpu_busy(cmp),
        cmp.energy_j
    ));
    out.say(format!(
        "speedup {:.2}x (paper ~1.8x); energy ratio {:.2}x (paper ~1.44x)",
        unc.elapsed_secs / cmp.elapsed_secs,
        cmp.energy_j / unc.energy_j
    ));
    out.say(
        "=> the faster plan burns more Joules: optimizing for performance != optimizing for energy",
    );
    for rec in recs {
        out.push(rec);
    }
    out
}
