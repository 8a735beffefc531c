//! EXT-FAULT — the energy cost of failure: what spin-down governors are
//! worth once recovery is on the ledger.
//!
//! Sec. 4.2 prices idle consolidation as if power transitions were free
//! of risk. Real spindles fault on spin-up, and a RAID-5 group that
//! loses a member must serve degraded reads and pay a full rebuild —
//! all energy the wall-socket meter books as "useful work". This
//! experiment replays the EXT-SCHED arrival stream over a 5-disk RAID-5
//! box and sweeps seeded fault levels × idle governors. Disks wake on
//! demand, so every park puts a spin-up — and its fault risk — on the
//! measured path.
//!
//! Expected shape: with no faults the oracle governor wins as in
//! EXT-SCHED; at a wear-out level where spin-ups can kill a disk, the
//! rebuild energy all but cancels the idle savings (EXPERIMENTS.md has
//! the measured table).
//!
//! The 3×3 grid runs through `grail_par`; the point simulation lives in
//! `crate::points::fault_point` and rows are reported in level-major
//! order, so output is identical at every thread count.

use super::Outcome;
use crate::points::{fault_detail_line, fault_point, FAULT_GOVERNORS, FAULT_LEVELS};
use grail_par::Runner;

pub(super) fn run(runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let grid: Vec<(&str, &str)> = FAULT_LEVELS
        .iter()
        .flat_map(|l| FAULT_GOVERNORS.iter().map(move |g| (*l, *g)))
        .collect();
    let recs = runner.run(&grid, |_, (level, governor)| fault_point(level, governor));

    let mut rows = grid.iter().zip(recs);
    for lname in FAULT_LEVELS {
        let mut best: Option<(&str, f64)> = None;
        for gname in FAULT_GOVERNORS {
            let (_, rec) = rows.next().expect("grid covers every cell");
            if best.is_none_or(|(_, e)| rec.energy_j < e) {
                best = Some((gname, rec.energy_j));
            }
            let detail = fault_detail_line(&rec);
            out.push(rec);
            out.detail(detail);
        }
        let (gname, energy) = best.expect("three governors ran");
        out.say(format!(
            "fault level {lname:>9}: energy winner = {gname} ({energy:.0} J)"
        ));
    }
    out.say("");
    out.say("expected shape: with no faults, parking governors win as in EXT-SCHED; once");
    out.say("spin-ups can kill a spindle, rebuild energy lands on the Recovery ledger and");
    out.say("eats the parking dividend — failure cost moves the optimum toward never-park.");
    out
}
