//! Picking an idle policy for a lightly loaded database server —
//! Sec. 4.2 as an operations decision.
//!
//! Queries arrive sporadically. How much energy do spin-down governors
//! recover, and what does batching buy on top? (And what does each cost
//! in latency?)
//!
//! Run with: `cargo run --release --example consolidation_policies`

#![expect(clippy::print_stdout, reason = "an example prints what it shows")]

use grail::core::profile::HardwareProfile;
use grail::power::units::{Bytes, Cycles, SimDuration, SimInstant};
use grail::scheduler::admission::{AdmissionPolicy, BatchWindow};
use grail::scheduler::governor::{
    IdleGovernor, NeverPark, OracleGovernor, ParkCosts, TimeoutGovernor,
};
use grail::sim::perf::AccessPattern;
use grail::sim::raid::RaidLevel;
use grail::sim::{SimError, StorageTarget};
use grail::workload::mix::poisson_arrivals;

fn episode(
    admission: AdmissionPolicy,
    governor: &dyn IdleGovernor,
) -> Result<(f64, f64, u64), SimError> {
    let arrivals = poisson_arrivals(1.0 / 45.0, 30, 99);
    let schedule = admission.schedule(&arrivals);
    let costs = ParkCosts::scsi_15k();
    let (mut sim, cpu, targets) =
        HardwareProfile::scsi_server(2, 2, RaidLevel::Raid0).try_build()?;
    let StorageTarget::Array(arr) = targets[0] else {
        unreachable!("a disk profile scans its array")
    };
    let disks = sim.array(arr)?.disks.clone();
    let mut prev_end = SimInstant::EPOCH;
    let mut parks = 0;
    let mut latency = 0.0;
    for (i, &dispatch) in schedule.dispatches.iter().enumerate() {
        let start = dispatch.max(prev_end);
        if start > prev_end {
            if let Some(plan) = governor.plan_gap(prev_end, start, &costs) {
                for d in &disks {
                    sim.park_disk(*d, plan.park_at)?;
                }
                parks += 1;
                if let Some(wake) = plan.unpark_at {
                    for d in &disks {
                        sim.unpark_disk(*d, wake)?;
                    }
                }
            }
        }
        let io = sim.read(
            StorageTarget::Array(arr),
            start,
            Bytes::mib(256),
            AccessPattern::Sequential,
        )?;
        let c = sim.compute(cpu, start, Cycles::new(200_000_000))?;
        let end = io.end.max(c.end);
        latency += end.duration_since(arrivals[i]).as_secs_f64();
        prev_end = end;
    }
    let rep = sim.finish(prev_end);
    Ok((rep.total_energy().joules(), latency / 30.0, parks))
}

fn main() -> Result<(), SimError> {
    println!(
        "{:<26} {:>12} {:>14} {:>10}",
        "policy", "energy (J)", "mean lat (s)", "parks"
    );
    let admissions: [(&str, AdmissionPolicy); 2] = [
        ("immediate", AdmissionPolicy::Immediate),
        (
            "batch 90s",
            AdmissionPolicy::Batched(BatchWindow {
                window: SimDuration::from_secs(90),
            }),
        ),
    ];
    let governors: [(&str, Box<dyn IdleGovernor>); 3] = [
        ("never park", Box::new(NeverPark)),
        (
            "timeout 8s",
            Box::new(TimeoutGovernor {
                timeout: SimDuration::from_secs(8),
            }),
        ),
        ("oracle", Box::new(OracleGovernor)),
    ];
    let mut baseline = None;
    for (an, ap) in &admissions {
        for (gn, g) in &governors {
            let (e, lat, parks) = episode(*ap, g.as_ref())?;
            let base = *baseline.get_or_insert(e);
            println!(
                "{:<26} {:>12.0} {:>14.1} {:>10}   ({:>5.1}% of baseline energy)",
                format!("{an} + {gn}"),
                e,
                lat,
                parks,
                100.0 * e / base
            );
        }
    }
    println!();
    println!("the Sec. 4.2 playbook: a timeout governor recovers most of the oracle's savings;");
    println!("batching widens the gaps (cheaper still) if the workload can absorb the latency.");
    Ok(())
}
