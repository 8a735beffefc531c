//! EXT-PREFETCH — Sec. 4.2's citation of \[PS04\]: energy-efficient
//! prefetching. A slowly consumed scan normally trickles the disk and
//! never opens a park-worthy gap; fetching in bursts concentrates the
//! activity and lets the governor spin the disk down between bursts.
//!
//! A consumer drains one 1 MiB page per 100 ms (a rate-limited export).
//! We sweep the burst size and run the resulting fetch schedule against
//! a real simulated disk with an oracle governor on the inter-burst
//! gaps.

use super::Outcome;
use crate::ExperimentRecord;
use grail_par::Runner;
use grail_power::components::DiskPowerProfile;
use grail_power::units::{Bytes, SimDuration, SimInstant};
use grail_scheduler::governor::{IdleGovernor, OracleGovernor, ParkCosts};
use grail_sim::perf::{AccessPattern, DiskPerfProfile};
use grail_sim::sim::Simulation;
use grail_sim::StorageTarget;
use grail_storage::prefetch::BurstPlan;

const TOTAL_PAGES: u64 = 2_000;
const PAGE: u64 = 1 << 20;

fn fetch_in_bursts(burst: u32) -> (f64, u32) {
    let consume = SimDuration::from_millis(100);
    let plan = BurstPlan::plan(TOTAL_PAGES, consume, burst, SimDuration::from_millis(50));
    let costs = ParkCosts::scsi_15k();
    let governor = OracleGovernor;
    let mut sim = Simulation::new();
    let disk = sim.add_disk(DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k());
    let mut prev_end = SimInstant::EPOCH;
    let mut parks = 0u32;
    for b in &plan.bursts {
        let start = b.fetch_at.max(prev_end);
        if start > prev_end {
            if let Some(g) = governor.plan_gap(prev_end, start, &costs) {
                sim.park_disk(disk, g.park_at).expect("disk");
                parks += 1;
                if let Some(w) = g.unpark_at {
                    sim.unpark_disk(disk, w).expect("disk");
                }
            }
        }
        let r = sim
            .read(
                StorageTarget::Disk(disk),
                start,
                Bytes::new(b.pages as u64 * PAGE),
                AccessPattern::Sequential,
            )
            .expect("read");
        prev_end = r.end;
    }
    // The scan's wall clock is fixed by the consumer, not the fetches.
    let horizon = SimInstant::EPOCH + consume * TOTAL_PAGES;
    let rep = sim.finish(horizon.max(prev_end));
    (rep.total_energy().joules(), parks)
}

pub(super) fn run(_runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let break_even = ParkCosts::scsi_15k().break_even;
    let min_burst = BurstPlan::min_burst_for_gap(
        SimDuration::from_millis(100),
        SimDuration::from_millis(12),
        break_even,
        10_000,
    );
    let (baseline, _) = fetch_in_bursts(1);
    for burst in [1u32, 8, 32, 64, 160, 320, 640] {
        let (e, parks) = fetch_in_bursts(burst);
        out.push(ExperimentRecord::new(
            "EXT-PREFETCH",
            &format!("burst={burst}"),
            (TOTAL_PAGES as f64) * 0.1,
            e,
            TOTAL_PAGES as f64,
            serde_json::json!({"parks": parks, "buffer_bytes": burst as u64 * PAGE}),
        ));
        out.detail(format!(
            "    parks {parks:>4}   buffer {:>4}M   {:>5.1}% of burst=1",
            (burst as u64 * PAGE) >> 20,
            100.0 * e / baseline
        ));
    }
    out.say(format!(
        "consumer: 1 MiB / 100 ms; disk break-even {:.1}s; min park-worthy burst: {:?} pages",
        break_even.as_secs_f64(),
        min_burst
    ));
    out.say("shape: below the park-worthy burst size nothing changes; above it the disk");
    out.say("sleeps between bursts and energy falls — buffer space buys idle-period length,");
    out.say("exactly the [PS04] trade Sec. 4.2 wants storage managers to adopt.");
    out
}
