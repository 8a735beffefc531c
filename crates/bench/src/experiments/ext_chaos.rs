//! EXT-CHAOS — the energy cost of resilience: an availability-vs-energy
//! frontier under seeded cluster chaos.
//!
//! Sec. 4.2's consolidation story prices powered-off machines as pure
//! savings. A real fleet pays for the dark capacity the first time a
//! rack PDU trips: displaced replicas cold-boot dark machines, stranded
//! work replays (hedged), and flapping machines cycle through breaker
//! quarantines — all energy the wall-socket meter books as overhead.
//! This experiment sweeps chaos intensity (calm / storm / hurricane,
//! all from one seed) × resilience policy (spread vs consolidate ×
//! replica count) over a 24-machine, 4-fault-domain fleet and charts
//! where each policy lands on the availability-energy plane.
//!
//! Expected shape: under calm skies `consolidate-r1` is the energy
//! frontier and every policy serves 100%; as chaos grows, the packed
//! single-replica fleet sheds hardest while `spread-r1` buys its
//! availability with always-on idle power — the interesting points are
//! the replicated consolidations in between, whose extra Joules are
//! exactly the ledger's Recovery line.
//!
//! The 3×4 grid runs through `grail_par`; points live in
//! `crate::points::chaos_point` and rows are reported in level-major
//! order, so output is identical at every thread count. Besides its
//! records the run returns the frontier CSV
//! (`figures/ext_chaos_frontier.csv`) and a Perfetto-compatible trace of
//! the reference storm (`figures/ext_chaos_trace.jsonl`).

use super::Outcome;
use crate::points::{chaos_detail_line, chaos_point, CHAOS_LEVELS, CHAOS_POLICIES};
use crate::{cell_f64, Csv};
use grail_par::Runner;
use grail_scheduler::chaos::{reference_storm, run_chaos, DOCUMENTED_AVAILABILITY_FLOOR};
use grail_trace::{Recorder, Tracer};

pub(super) fn run(runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let grid: Vec<(&str, &str)> = CHAOS_LEVELS
        .iter()
        .flat_map(|l| CHAOS_POLICIES.iter().map(move |p| (*l, *p)))
        .collect();
    let recs = runner.run(&grid, |_, (level, policy)| chaos_point(level, policy));

    let mut frontier = Csv::new(&[
        "level",
        "policy",
        "availability",
        "energy_j",
        "recovery_j",
        "recovery_share",
        "shed_frac",
        "served_work",
    ]);
    let mut rows = grid.iter().zip(recs);
    for lname in CHAOS_LEVELS {
        let mut best: Option<(&str, f64)> = None;
        for pname in CHAOS_POLICIES {
            let (_, rec) = rows.next().expect("grid covers every cell");
            let extra = |k: &str| rec.extra[k].as_f64().expect("chaos extra");
            let avail = extra("availability");
            // The frontier winner: cheapest policy that still clears the
            // documented availability floor.
            if avail >= DOCUMENTED_AVAILABILITY_FLOOR && best.is_none_or(|(_, e)| rec.energy_j < e)
            {
                best = Some((pname, rec.energy_j));
            }
            frontier.row(&[
                lname.to_string(),
                pname.to_string(),
                cell_f64(avail),
                cell_f64(rec.energy_j),
                cell_f64(extra("recovery_j")),
                cell_f64(extra("recovery_share")),
                cell_f64(extra("shed_frac")),
                cell_f64(rec.work),
            ]);
            let detail = chaos_detail_line(&rec);
            out.push(rec);
            out.detail(detail);
        }
        match best {
            Some((pname, energy)) => out.say(format!(
                "chaos level {lname:>9}: frontier winner = {pname} ({energy:.0} J at ≥ floor availability)"
            )),
            None => out.say(format!(
                "chaos level {lname:>9}: no policy clears the availability floor"
            )),
        }
    }
    out.figure("figures/ext_chaos_frontier.csv", frontier.finish());

    // Reference-storm trace: every chaos event, breaker trip, cold boot,
    // and re-dispatch of the storm × consolidate-r2 cell, Perfetto-ready.
    let (fleet, schedule, demand, policy) = reference_storm();
    let mut tracer = Tracer::on(Recorder::new(1 << 16));
    run_chaos(&fleet, &schedule, demand, &policy, &mut tracer).expect("reference storm");
    let rec = tracer.take().expect("tracer is on");
    out.figure("figures/ext_chaos_trace.jsonl", grail_trace::to_jsonl(&rec));

    out.say("");
    out.say("shape: calm skies favor bare consolidation; chaos moves the frontier toward");
    out.say("replicated consolidation — its extra Joules are the ledger's Recovery line,");
    out.say("the explicit energy price of availability.");
    out
}
