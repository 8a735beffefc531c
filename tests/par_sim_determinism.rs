//! End-to-end determinism for intra-simulation parallelism: ONE
//! `grail_sim::parallel` simulation sharded across threads must produce
//! the **same bytes** as its single-shard run — the energy ledger, the
//! JSONL trace, and the Prometheus scrape, compared as strings at shard
//! counts 0 (auto), 1, 2, 3 (divides no scenario's cell count) and 8.
//!
//! The unit tests in `sim::parallel` prove the ledger fingerprints
//! agree; this closes the loop through the full artifact pipeline —
//! every serialized artifact rendered and compared across shard counts,
//! for a plain scenario, a fault-injected one, and a scripted-chaos
//! one, plus (ignored in debug, run in release by CI) the plain
//! scenario at 24 cells × 2 streams × 400 jobs. A final test crashes a
//! machine *at the very nanosecond one of its jobs arrives* and checks
//! Recovery billing to the bit. Two generated-input properties
//! (`grail_prop::check`) close the file: random small topologies
//! serialize the same bytes at every shard count, and a generated
//! configuration — good or bad — comes back as a report or a
//! `SimError`, never a panic.

use grail_power::components::{CpuPowerProfile, DiskPowerProfile, SsdPowerProfile};
use grail_power::units::{Bytes, Cycles, Hertz, SimDuration, SimInstant, Watts};
use grail_prop::check;
use grail_sim::driver::{self, IoDemand, JobSpec, PhaseSpec};
use grail_sim::raid::{self, RaidLevel};
use grail_sim::{
    run_parallel, ArrayId, CellSpec, ChaosEvent, ChaosEventKind, ChaosSchedule, CpuPerfProfile,
    DiskId, DiskPerfProfile, FaultConfig, ParReport, SimConfig, SsdId, SsdPerfProfile,
    StorageTarget,
};

// Shared with `grail_sim::parallel`'s unit tests; its `crate::driver`
// and `crate::raid` paths name the modules imported above.
#[path = "../crates/sim/tests/common/drawn.rs"]
mod drawn;
use drawn::drawn_cell;

/// One cell: `streams` closed-loop streams of `jobs` jobs over three
/// 15K spindles (RAID-0) plus a flash SSD, sizes salted by index so
/// cells drift out of lockstep.
fn cell(index: usize, streams: usize, jobs: usize) -> CellSpec {
    let jobs = (0..streams)
        .map(|s| {
            (0..jobs)
                .map(|j| {
                    let salt = (index * 31 + s * 7 + j) as u64;
                    JobSpec::immediate(vec![PhaseSpec::overlapped(
                        Cycles::new(20_000_000 + (salt % 5) * 4_000_000),
                        2,
                        vec![IoDemand::seq_read(
                            StorageTarget::Array(ArrayId(0)),
                            Bytes::mib(2 + salt % 5),
                        )],
                    )])
                })
                .collect()
        })
        .collect();
    CellSpec::new(
        CpuPerfProfile {
            cores: 4,
            freq: Hertz::ghz(2.2),
        },
        CpuPowerProfile::opteron_socket(),
    )
    .with_disks(3, DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k())
    .with_raid(RaidLevel::Raid0)
    .with_ssds(
        1,
        SsdPerfProfile::fig2_flash(),
        SsdPowerProfile::fig2_flash(),
    )
    .with_streams(jobs)
}

/// Healthy hardware, two streams of `jobs` jobs per cell, tracing (a
/// ring of `trace_capacity` events per cell) and attribution on.
fn sized_config(cells: usize, jobs: usize, trace_capacity: usize) -> SimConfig {
    let mut cfg = SimConfig::new((0..cells).map(|c| cell(c, 2, jobs)).collect());
    cfg.base_power = Watts::new(300.0);
    cfg.seed = 7;
    cfg.trace_capacity = Some(trace_capacity);
    cfg.attribution = true;
    cfg
}

/// The FIG1-like baseline.
fn plain_config(cells: usize) -> SimConfig {
    sized_config(cells, 3, 4096)
}

/// The EXT-FAULT-like variant: transient IO errors and latent sector
/// errors drawn from each cell's seeded plan, so the retry machinery
/// (and its energy) is live on every shard.
fn faulted_config(cells: usize) -> SimConfig {
    let mut cfg = plain_config(cells);
    cfg.fault = FaultConfig {
        transient_per_io: 0.05,
        latent_per_read: 0.02,
        ..FaultConfig::NONE
    };
    cfg.seed = 11;
    cfg
}

/// The EXT-CHAOS-like variant: two scripted machine crashes, each
/// billing the cold-boot surge to Recovery.
fn chaotic_config(cells: usize) -> SimConfig {
    let mut cfg = plain_config(cells);
    cfg.chaos = Some(ChaosSchedule::scripted(
        cells as u32,
        1,
        SimDuration::from_secs(30),
        vec![
            ChaosEvent {
                at: SimInstant::EPOCH + SimDuration::from_millis(40),
                kind: ChaosEventKind::MachineCrash { machine: 0 },
            },
            ChaosEvent {
                at: SimInstant::EPOCH + SimDuration::from_millis(170),
                kind: ChaosEventKind::MachineCrash {
                    machine: (cells as u32).saturating_sub(1),
                },
            },
        ],
    ));
    cfg.seed = 13;
    cfg
}

/// Every artifact the bench pipeline serializes, rendered to exact
/// bytes: the ledger as `(id, bits)` pairs, the JSONL trace, and the
/// Prometheus scrape of the trace's metrics registry.
fn artifacts(r: &ParReport) -> (Vec<(String, u64)>, String, String) {
    let ledger = r
        .report
        .ledger
        .iter()
        .map(|(id, e)| (id.to_string(), e.joules().to_bits()))
        .collect();
    let rec = r.report.trace.as_ref().expect("scenarios trace");
    assert_eq!(
        rec.dropped(),
        0,
        "ring overflowed: the compared traces are suffixes"
    );
    assert_eq!(rec.metrics().counter("trace.dropped"), 0);
    (
        ledger,
        grail_trace::to_jsonl(rec),
        grail_metrics::to_prometheus(rec.metrics()),
    )
}

/// Shard counts every scenario is compared at, against the 1-shard run.
const SHARD_COUNTS: [usize; 4] = [0, 2, 3, 8];

fn assert_shards_agree(cfg: &SimConfig) {
    let want = artifacts(&run_parallel(cfg, 1).expect("1 shard"));
    for shards in SHARD_COUNTS {
        let got = artifacts(&run_parallel(cfg, shards).expect("sharded run"));
        assert_eq!(want.0, got.0, "ledger diverged at {shards} shards");
        assert_eq!(want.1, got.1, "JSONL trace diverged at {shards} shards");
        assert_eq!(
            want.2, got.2,
            "Prometheus scrape diverged at {shards} shards"
        );
    }
    assert!(!want.1.is_empty(), "trace is non-empty");
    assert!(want.2.contains("grail_"), "scrape rendered metrics");
}

#[test]
fn plain_simulation_is_byte_identical_across_shard_counts() {
    assert_shards_agree(&plain_config(5));
}

#[test]
#[ignore = "19 200 jobs at five shard counts; CI's test job runs it in release"]
fn plain_simulation_at_scale_is_byte_identical_across_shard_counts() {
    // 800 jobs per cell record ~4 800 events; `artifacts` fails on a
    // ring that dropped any, so equal truncated prefixes cannot pass.
    assert_shards_agree(&sized_config(24, 400, 1 << 14));
}

#[test]
fn faulted_simulation_is_byte_identical_across_shard_counts() {
    assert_shards_agree(&faulted_config(5));
}

#[test]
fn chaotic_simulation_is_byte_identical_across_shard_counts() {
    assert_shards_agree(&chaotic_config(4));
}

#[test]
fn crash_coinciding_with_a_job_arrival_bills_recovery_identically() {
    // Cell 2 crashes at the very nanosecond one of its jobs arrives.
    // The crash is billed first (same-instant stream events see the
    // post-crash world) and exactly once, whichever thread hosts the
    // cell. 20 ms is mid-workload: nothing else happens at that instant.
    let mut cfg = plain_config(4);
    let at = SimInstant::EPOCH + SimDuration::from_millis(20);
    let mut coinciding = JobSpec::immediate(vec![PhaseSpec::cpu_only(Cycles::new(0), 1)]);
    coinciding.arrival = at;
    cfg.cells[2].streams.push(vec![coinciding]);
    cfg.chaos = Some(ChaosSchedule::scripted(
        4,
        1,
        SimDuration::from_secs(30),
        vec![ChaosEvent {
            at,
            kind: ChaosEventKind::MachineCrash { machine: 2 },
        }],
    ));
    assert_shards_agree(&cfg);
    let r = run_parallel(&cfg, 1).expect("1 shard");
    assert_eq!(
        r.report.recovery_energy().joules().to_bits(),
        cfg.crash_boot_energy.joules().to_bits(),
        "exactly one cold boot is billed"
    );
    let rec = r.report.trace.as_ref().expect("traced");
    let at_instant: Vec<&str> = rec
        .events()
        .filter(|e| e.at.as_nanos() == at.as_nanos())
        .map(|e| e.name)
        .collect();
    assert_eq!(at_instant.first(), Some(&"chaos.machine_crash"));
    assert!(at_instant.len() > 1, "the arrival traced after the crash");
}

/// Random small topologies: whatever the cell count, stream shape
/// or seed, every shard count serializes the same bytes.
#[test]
fn random_topologies_are_byte_identical_across_shard_counts() {
    check(12, |g| {
        let (cells, streams, jobs) = (g.range(1usize..5), g.range(1usize..3), g.range(1usize..4));
        let (seed, attribution) = (g.word(), g.bool());
        let mut cfg = SimConfig::new((0..cells).map(|c| cell(c, streams, jobs)).collect());
        cfg.base_power = Watts::new(250.0);
        cfg.seed = seed;
        cfg.trace_capacity = Some(4096);
        cfg.attribution = attribution;
        cfg.fault = FaultConfig {
            transient_per_io: 0.03,
            ..FaultConfig::NONE
        };
        let want = artifacts(&run_parallel(&cfg, 1).expect("1 shard"));
        for shards in SHARD_COUNTS {
            let got = artifacts(&run_parallel(&cfg, shards).expect("sharded run"));
            assert_eq!(want, got, "diverged at {shards} shards");
        }
    });
}

/// Bad input is a typed error, never a panic: a drawn configuration —
/// pools without cores, arrays over too few disks, jobs aimed at
/// devices their cell does not own, fault rates up to one in two —
/// comes back from `run_parallel` as a report or a `SimError`, the same
/// one at one shard and at three.
#[test]
fn drawn_configurations_are_a_report_or_a_typed_error() {
    check(256, |g| {
        let (seed, attribution) = (g.word(), g.bool());
        let (transient, latent) = (g.range(0.0f64..0.5), g.range(0.0f64..0.2));
        let mut cfg = SimConfig::new(g.vec(1..5, drawn_cell));
        cfg.seed = seed;
        cfg.attribution = attribution;
        cfg.fault = FaultConfig {
            transient_per_io: transient,
            latent_per_read: latent,
            ..FaultConfig::NONE
        };
        let outcome = |shards| {
            run_parallel(&cfg, shards)
                .map(|r| r.report.ledger.total().joules().to_bits())
                .map_err(|e| e.to_string())
        };
        assert_eq!(outcome(1), outcome(3));
    });
}
