//! EXT-SHARE — Sec. 5.2: "techniques that enable and encourage work
//! sharing across queries will become increasingly attractive."
//!
//! Concurrent full-table scans arrive as a Poisson stream; a circular
//! shared scan lets arrivals attach to the pass in flight. We sweep the
//! arrival rate and measure device time and energy with and without
//! sharing on a real simulated disk array — latency is identical by
//! construction (each query still waits one full pass).

use super::Outcome;
use crate::ExperimentRecord;
use grail_par::Runner;
use grail_power::components::DiskPowerProfile;
use grail_power::units::{Bytes, SimDuration, SimInstant, Watts};
use grail_scheduler::sharing::share_scans;
use grail_sim::perf::{AccessPattern, DiskPerfProfile};
use grail_sim::raid::RaidLevel;
use grail_sim::sim::Simulation;
use grail_sim::StorageTarget;
use grail_workload::mix::poisson_arrivals;

const QUERIES: usize = 60;
const SCAN_BYTES: u64 = 4 << 30; // one full pass

fn machine() -> (Simulation, StorageTarget, f64) {
    let mut sim = Simulation::new();
    sim.set_base_power(Watts::new(200.0));
    let disk_power = DiskPowerProfile {
        active: Watts::new(15.0),
        idle: Watts::new(12.5),
        ..DiskPowerProfile::scsi_15k()
    };
    let disks = sim.add_disks(8, DiskPerfProfile::scsi_15k(), disk_power);
    let arr = sim.make_array(RaidLevel::Raid0, disks).expect("geometry");
    // Pass duration: 4 GiB over 8 × 90 MB/s.
    let pass_secs = SCAN_BYTES as f64 / (8.0 * 90.0e6);
    (sim, StorageTarget::Array(arr), pass_secs)
}

/// Run without sharing: every query is its own physical scan (FCFS).
fn solo(arrivals: &[SimInstant]) -> f64 {
    let (mut sim, target, _) = machine();
    let mut end = SimInstant::EPOCH;
    for &a in arrivals {
        let r = sim
            .read(
                target,
                a.max(end),
                Bytes::new(SCAN_BYTES),
                AccessPattern::Sequential,
            )
            .expect("scan");
        end = r.end;
    }
    sim.finish(end).total_energy().joules()
}

/// Run with sharing: the device performs one continuous pass per group
/// (the schedule from `share_scans`).
fn shared(arrivals: &[SimInstant], pass: SimDuration) -> (f64, usize) {
    let outcome = share_scans(arrivals, pass);
    let (mut sim, target, pass_secs) = machine();
    // Each group's device work: its busy span at full array rate.
    let mut groups: Vec<(SimInstant, f64)> = Vec::new();
    let mut i = 0usize;
    // Reconstruct the groups from the outcome: consecutive arrivals
    // whose completion chain overlaps (mirrors share_scans grouping).
    while i < arrivals.len() {
        let start = arrivals[i];
        let mut end = outcome.completions[i];
        let mut j = i + 1;
        while j < arrivals.len() && arrivals[j] < end {
            end = end.max(outcome.completions[j]);
            j += 1;
        }
        let busy = end.duration_since(start).as_secs_f64();
        groups.push((start, busy / pass_secs));
        i = j;
    }
    let mut end = SimInstant::EPOCH;
    for (start, passes) in &groups {
        let bytes = (SCAN_BYTES as f64 * passes) as u64;
        let r = sim
            .read(
                target,
                (*start).max(end),
                Bytes::new(bytes),
                AccessPattern::Sequential,
            )
            .expect("scan");
        end = r.end;
    }
    (
        sim.finish(end).total_energy().joules(),
        outcome.physical_scans,
    )
}

pub(super) fn run(_runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let (_, _, pass_secs) = machine();
    // Rows carry the shared-scan energy; the detail line has the solo twin.
    for (label, rate) in [
        ("1 per 2 passes", 0.5 / pass_secs),
        ("1 per pass", 1.0 / pass_secs),
        ("3 per pass", 3.0 / pass_secs),
        ("10 per pass", 10.0 / pass_secs),
    ] {
        let arrivals = poisson_arrivals(rate, QUERIES, 21);
        let e_solo = solo(&arrivals);
        let (e_shared, passes) = shared(&arrivals, SimDuration::from_secs_f64(pass_secs));
        let saved = 1.0 - e_shared / e_solo;
        out.push(ExperimentRecord::new(
            "EXT-SHARE",
            label,
            0.0,
            e_shared,
            QUERIES as f64,
            serde_json::json!({
                "solo_j": e_solo,
                "physical_scans": passes,
                "saved_frac": saved,
            }),
        ));
        out.detail(format!(
            "    solo {:.1} kJ   shared {:.1} kJ in {passes} passes   saved {:.1}%",
            e_solo / 1000.0,
            e_shared / 1000.0,
            saved * 100.0
        ));
    }
    out.say(format!(
        "one pass = {pass_secs:.1}s; {QUERIES} queries per episode"
    ));
    out.say("shape: below one arrival per pass, nothing to share; as concurrency rises the");
    out.say("device converges to one continuous pass serving everyone — Sec. 5.2's shared work.");
    out
}
