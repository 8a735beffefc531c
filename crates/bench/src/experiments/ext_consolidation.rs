//! EXT-SCHED — Sec. 4.2's consolidation-in-time experiment: batching
//! intermittent queries (at increased latency) lengthens disk idle
//! periods enough to amortize spin-downs.
//!
//! A small 4-disk server receives Poisson scan queries (mean inter-
//! arrival 50 s, well above the 15K SCSI ~14 s spin break-even). We
//! sweep admission {immediate, batched-60s} × governor {never, timeout-
//! 10s, oracle} and report energy, mean latency, and spin count.

use super::Outcome;
use crate::points::{fault_governor, parking_box, FAULT_GOVERNORS};
use crate::ExperimentRecord;
use grail_par::Runner;
use grail_power::units::{Bytes, Cycles, SimDuration, SimInstant};
use grail_scheduler::admission::{AdmissionPolicy, BatchWindow};
use grail_scheduler::governor::{IdleGovernor, ParkCosts};
use grail_sim::perf::AccessPattern;
use grail_sim::raid::RaidLevel;
use grail_sim::StorageTarget;
use grail_workload::mix::poisson_arrivals;

const N_DISKS: usize = 4;
const JOBS: usize = 40;

struct Cell {
    energy_j: f64,
    mean_latency_s: f64,
    parks: u64,
    makespan_s: f64,
}

fn cell(admission: AdmissionPolicy, governor: &dyn IdleGovernor) -> Cell {
    let arrivals = poisson_arrivals(1.0 / 50.0, JOBS, 7);
    let schedule = admission.schedule(&arrivals);
    let costs = ParkCosts::scsi_15k();

    let (mut sim, cpu, arr, disks) = parking_box(N_DISKS, RaidLevel::Raid0);

    let mut prev_end = SimInstant::EPOCH;
    let mut parks = 0u64;
    let mut total_latency = 0.0f64;
    for (i, &dispatch) in schedule.dispatches.iter().enumerate() {
        let start = dispatch.max(prev_end);
        // Govern the idle gap [prev_end, start).
        if start > prev_end {
            if let Some(plan) = governor.plan_gap(prev_end, start, &costs) {
                for d in &disks {
                    sim.park_disk(*d, plan.park_at).expect("disk exists");
                }
                parks += 1;
                if let Some(wake) = plan.unpark_at {
                    for d in &disks {
                        sim.unpark_disk(*d, wake).expect("disk exists");
                    }
                }
            }
        }
        // One scan query: 400 MB off the array overlapping light CPU.
        let io = sim
            .read(
                StorageTarget::Array(arr),
                start,
                Bytes::mib(400),
                AccessPattern::Sequential,
            )
            .expect("array read");
        let c = sim
            .compute(cpu, start, Cycles::new(500_000_000))
            .expect("cpu");
        let end = io.end.max(c.end);
        total_latency += end.duration_since(arrivals[i]).as_secs_f64();
        prev_end = end;
    }
    let report = sim.finish(prev_end);
    Cell {
        energy_j: report.total_energy().joules(),
        mean_latency_s: total_latency / JOBS as f64,
        parks,
        makespan_s: report.elapsed.as_secs_f64(),
    }
}

pub(super) fn run(_runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let admissions: [(&str, AdmissionPolicy); 2] = [
        ("immediate", AdmissionPolicy::Immediate),
        (
            "batch60s",
            AdmissionPolicy::Batched(BatchWindow {
                window: SimDuration::from_secs(60),
            }),
        ),
    ];
    // The governor set EXT-FAULT re-runs under seeded faults.
    let governors = FAULT_GOVERNORS.map(|g| (g, fault_governor(g)));
    let mut baseline = 0.0;
    for (aname, admission) in &admissions {
        for (gname, governor) in &governors {
            let o = cell(*admission, governor.as_ref());
            if *aname == "immediate" && *gname == "never" {
                baseline = o.energy_j;
            }
            let rec = ExperimentRecord::new(
                "EXT-SCHED",
                &format!("{aname}+{gname}"),
                o.makespan_s,
                o.energy_j,
                JOBS as f64,
                crate::extras!({
                    "mean_latency_s": o.mean_latency_s,
                    "parks": o.parks,
                    "energy_vs_baseline": if baseline > 0.0 { o.energy_j / baseline } else { 1.0 },
                }),
            );
            out.push(rec);
            out.detail(format!(
                "    mean latency {:>8.1}s   spin-downs {:>3}   energy vs baseline {:>6.1}%",
                o.mean_latency_s,
                o.parks,
                100.0 * o.energy_j / baseline
            ));
        }
    }
    out.say("expected shape: governors cut disk energy on long gaps; batching lengthens gaps");
    out.say("(more parks pay off) at the price of added latency — Sec. 4.2's exact trade.");
    out
}
