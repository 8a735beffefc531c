//! EXT-PHYS — Sec. 5.1's physical-design levers:
//!
//! 1. **Redundant read replicas**: keep the table both wide (66 disks,
//!    fast) and narrow (12 disks); serve light load from the narrow
//!    replica with the other 54 spindles spun down. "Additional
//!    capacity on disks does not carry energy costs if the disk usage
//!    remains the same."
//! 2. **Repartitioning cost**: the bytes that must move to change
//!    Fig. 1's knob, "the costs associated with creating or maintaining
//!    different partitionings".

use super::Outcome;
use crate::ExperimentRecord;
use grail_core::profile::HardwareProfile;
use grail_par::Runner;
use grail_power::units::{Bytes, Cycles, SimInstant};
use grail_sim::perf::AccessPattern;
use grail_storage::partition::{Partitioning, ReplicaSet};

const TABLE_BYTES: u64 = 64 << 30; // one replica's footprint

/// Serve periodic scans of `scan_bytes` arriving every `period_s` over
/// a fixed `window_s` observation window, on an array of `width` disks,
/// with the remaining `total - width` disks parked the whole time. The
/// machine is on for the whole window either way — the regime where
/// replicas pay off. Returns (mean latency s, energy J over the
/// window, queries served).
fn serve(
    width: usize,
    total: usize,
    period_s: f64,
    window_s: f64,
    scan_bytes: u64,
) -> (f64, f64, usize) {
    // The FIG1 server over the serving array, plus the parked
    // spindles, so the serving rows bill the same floor FIG1 does.
    let p = HardwareProfile::server_dl785(width);
    let (mut sim, cpu, targets) = p.try_build().expect("geometry");
    for d in sim.add_disks(total - width, p.disk_perf, p.disk_power) {
        sim.park_disk(d, SimInstant::EPOCH).expect("parkable");
    }
    let mut prev_end = SimInstant::EPOCH;
    let mut served = 0usize;
    let mut latency = 0.0f64;
    let mut arrival = SimInstant::EPOCH;
    let window_end = SimInstant::from_secs_f64(window_s);
    while arrival < window_end {
        let start = arrival.max(prev_end);
        let io = sim
            .read(
                targets[0],
                start,
                Bytes::new(scan_bytes),
                AccessPattern::Sequential,
            )
            .expect("read");
        let c = sim
            .compute(cpu, start, Cycles::new(2_000_000_000))
            .expect("cpu");
        prev_end = io.end.max(c.end);
        latency += prev_end.duration_since(arrival).as_secs_f64();
        served += 1;
        arrival += grail_power::units::SimDuration::from_secs_f64(period_s);
    }
    let rep = sim.finish(window_end.max(prev_end));
    (
        latency / served.max(1) as f64,
        rep.total_energy().joules(),
        served,
    )
}

pub(super) fn run(_runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let scan = 8u64 << 30; // 8 GiB per query
    let window = 3600.0; // the machine is on for this hour regardless
    for (label, width, period) in [
        ("light_wide66", 66usize, 300.0), // one query / 5 min
        ("light_narrow12", 12, 300.0),
        // 8 GiB scans take ~8.7 s on 12 disks: a 4 s period saturates
        // the narrow replica (queueing backlog), not the wide one.
        ("heavy_wide66", 66, 4.0),
        ("heavy_narrow12", 12, 4.0),
    ] {
        let (lat, e, served) = serve(width, 66, period, window, scan);
        out.push(ExperimentRecord::new(
            "EXT-PHYS",
            label,
            window,
            e,
            served as f64,
            crate::extras!({"active_disks": width, "mean_latency_s": lat}),
        ));
        out.detail(format!(
            "    served {served} queries, mean latency {lat:.1}s"
        ));
    }
    out.say("expected shape: over a fixed hour at light load, the narrow replica wins energy");
    out.say("(54 spindles sleep all hour) at a latency price; at heavy load the narrow array");
    out.say("saturates (queueing latency explodes) and the wide replica wins both metrics.");

    // Repartitioning cost rows: bytes moved from the 204-disk layout.
    let from = Partitioning::even(204, TABLE_BYTES).expect("layout");
    for to in [108u32, 66, 36] {
        let target = Partitioning::even(to, TABLE_BYTES).expect("layout");
        let moved = from.repartition_bytes(&target);
        out.push(ExperimentRecord::new(
            "EXT-PHYS",
            &format!("repartition_204_to_{to}"),
            0.0,
            0.0,
            moved as f64,
            crate::extras!({"bytes_moved": moved}),
        ));
        out.detail(format!(
            "    204 -> {to:>3} disks: {:.1} GiB moved ({:.0}% of the {TABLE_BYTES}-byte table)",
            moved as f64 / (1u64 << 30) as f64,
            100.0 * moved as f64 / TABLE_BYTES as f64
        ));
    }

    // Replica-set bookkeeping sanity (the capacity price).
    let wide = Partitioning::even(66, TABLE_BYTES).expect("layout");
    let narrow = Partitioning::even(12, TABLE_BYTES).expect("layout");
    let rs = ReplicaSet::new(vec![wide, narrow.clone()]).expect("replicas");
    out.say("");
    out.say(format!(
        "replica set: {} GiB total storage for both replicas; {} spindles idle when narrow serves",
        rs.total_bytes() >> 30,
        rs.idle_slots(&narrow).len()
    ));
    out
}
