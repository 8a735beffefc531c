//! EXT-OLTP — Sec. 5.3: "SSDs are better suited for transactional
//! applications rather than warehousing."
//!
//! Two workloads, two devices:
//!
//! * **OLTP**: point transactions — a B+tree descent (3 random page
//!   reads at 150 M rows), one row write, one group-committed log
//!   force. Random IO: a rotating disk pays a seek per page, flash
//!   pays microseconds.
//! * **DSS**: the Fig. 2 sequential projection scan, where the disk's
//!   sequential bandwidth per Watt is competitive.
//!
//! The crossover between the two columns is the claim.

use super::{log_device, Outcome};
use crate::ExperimentRecord;
use grail_par::Runner;
use grail_power::units::{Bytes, SimDuration, SimInstant};
use grail_sim::perf::AccessPattern;
use grail_sim::sim::Simulation;
use grail_storage::btree::BTreeIndex;
use grail_storage::page::PAGE_SIZE;

const TXNS: u64 = 5_000;
const TXN_RATE_HZ: u64 = 500;

/// OLTP episode: returns (energy J, mean txn latency ms, makespan s).
fn oltp(flash: bool, index_height: u32) -> (f64, f64, f64) {
    let mut sim = Simulation::new();
    let target = log_device(&mut sim, flash);
    let mut end = SimInstant::EPOCH;
    let mut latency = 0.0f64;
    for i in 0..TXNS {
        let arrive = SimInstant::EPOCH + SimDuration::from_micros(i * 1_000_000 / TXN_RATE_HZ);
        let start = arrive.max(end);
        // Index descent: `height` random page reads.
        let read = sim
            .read(
                target,
                start,
                Bytes::new(index_height as u64 * PAGE_SIZE as u64),
                AccessPattern::Random { ios: index_height },
            )
            .expect("descent");
        // Row write + log force (group commit batches of 8 amortized:
        // 1/8 of a force per txn, modeled as one small random write).
        let write = sim
            .write(
                target,
                read.end,
                Bytes::new(PAGE_SIZE as u64 / 8 + 512),
                AccessPattern::Random { ios: 1 },
            )
            .expect("write");
        end = write.end;
        latency += end.duration_since(arrive).as_secs_f64();
    }
    let rep = sim.finish(end);
    (
        rep.total_energy().joules(),
        latency / TXNS as f64 * 1000.0,
        rep.elapsed.as_secs_f64(),
    )
}

/// DSS episode: one 6 GB sequential scan; returns (energy J, time s).
fn dss(flash: bool) -> (f64, f64) {
    let mut sim = Simulation::new();
    let target = log_device(&mut sim, flash);
    let r = sim
        .read(
            target,
            SimInstant::EPOCH,
            Bytes::new(6_000_000_000),
            AccessPattern::Sequential,
        )
        .expect("scan");
    let rep = sim.finish(r.end);
    (rep.total_energy().joules(), rep.elapsed.as_secs_f64())
}

pub(super) fn run(_runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    // ORDERS at 150 M rows: a 3-page B+tree descent (verified on a
    // scaled-down tree with identical fanout arithmetic).
    let small = BTreeIndex::build((0..1_000_000).collect());
    let height_150m = small.height() + 1; // one more level at 150 M
    let mut ratios = Vec::new();
    for flash in [false, true] {
        let name = if flash { "flash" } else { "disk15k" };
        let (oe, lat, makespan) = oltp(flash, height_150m);
        let (de, dt) = dss(flash);
        out.push(ExperimentRecord::new(
            "EXT-OLTP",
            name,
            makespan,
            oe,
            TXNS as f64,
            serde_json::json!({
                "oltp_j_per_txn": oe / TXNS as f64,
                "txn_latency_ms": lat,
                "dss_scan_j": de,
                "dss_scan_s": dt,
            }),
        ));
        out.detail(format!(
            "    OLTP {:.4} J/txn at {lat:.2} ms   DSS {de:.1} J/scan in {dt:.1} s",
            oe / TXNS as f64
        ));
        ratios.push((oe / TXNS as f64, de));
    }
    let oltp_ratio = ratios[0].0 / ratios[1].0;
    let dss_ratio = ratios[0].1 / ratios[1].1;
    out.say(format!(
        "index: B+tree fanout {}, height {height_150m} at 150 M rows ({height_150m} random pages per lookup)",
        grail_storage::btree::FANOUT
    ));
    out.say(format!(
        "disk/flash energy ratio: {oltp_ratio:.0}x on OLTP vs {dss_ratio:.1}x on DSS — the gap IS"
    ));
    out.say("Sec. 5.3's claim: flash pays off where the workload is random, not where it streams.");
    out
}
