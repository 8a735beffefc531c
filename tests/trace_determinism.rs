//! Trace determinism and attribution-conservation properties.
//!
//! The flight recorder's contract: a trace is a pure function of the
//! simulated run, so identical seed + fault plan ⇒ byte-identical JSONL
//! export, and the attribution table's rows always sum to the ledger's
//! wall-socket total (the PR-2 conservation invariant, per query).

use grail::core::db::{CompressionMode, EnergyAwareDb, ExecPolicy, ScanSpec, TracedRun};
use grail::metrics::to_prometheus;
use grail::prelude::*;
use grail::trace::{to_chrome, to_jsonl};
use proptest::prelude::*;

fn loaded_db(profile: HardwareProfile) -> EnergyAwareDb {
    let mut db = EnergyAwareDb::new(profile);
    db.load_tpch(TpchScale::toy());
    db
}

fn traced_scan(db: &EnergyAwareDb) -> TracedRun {
    db.try_run_scan_traced(&ScanSpec::fig2(), ExecPolicy::default(), 100.0)
        .expect("loaded db scans")
}

/// A ring that overflowed makes any comparison of its export
/// meaningless (identical prefixes could have been dropped), so outside
/// the overflow test it is a hard failure.
fn assert_lossless(rec: &Recorder) {
    assert_eq!(rec.dropped(), 0, "ring overflowed");
    assert_eq!(rec.metrics().counter("trace.dropped"), 0);
}

/// |table sum − ledger total| within f64 accumulation tolerance.
fn assert_attribution_conserves(run: &TracedRun) {
    let table = run.report.attribution.as_ref().expect("traced");
    let total = run.report.ledger.total().joules();
    let sum = table.sum().joules();
    assert!(
        (sum - total).abs() <= total.abs() * 1e-9 + 1e-9,
        "attribution sum {sum} != ledger total {total}"
    );
}

#[test]
fn identical_runs_export_byte_identical_jsonl() {
    let db = loaded_db(HardwareProfile::flash_scanner());
    let a = traced_scan(&db);
    let b = traced_scan(&db);
    assert_lossless(&a.trace);
    let ja = to_jsonl(&a.trace);
    let jb = to_jsonl(&b.trace);
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "same run must export byte-identical JSONL");
    assert_eq!(to_chrome(&a.trace), to_chrome(&b.trace));
}

#[test]
fn throughput_trace_is_deterministic_and_conserving() {
    let db = loaded_db(HardwareProfile::server_dl785(36));
    let run = || {
        db.try_run_throughput_test_traced(2, 2, ExecPolicy::default(), 10.0)
            .expect("loaded db runs")
    };
    let a = run();
    let b = run();
    assert_lossless(&a.trace);
    assert_eq!(to_jsonl(&a.trace), to_jsonl(&b.trace));
    assert_attribution_conserves(&a);
    // Attributed energy is real: every query row is positive.
    let table = a.report.attribution.as_ref().expect("traced");
    assert!(table
        .rows
        .iter()
        .filter(|r| r.stream.is_some())
        .all(|r| r.energy.joules() > 0.0));
}

#[test]
fn trace_overflow_is_counted_and_deterministic() {
    use grail::scheduler::chaos::{reference_storm, run_chaos};
    use grail::trace::{Recorder, Tracer};
    let run = |cap: usize| {
        let (fleet, schedule, demand, policy) = reference_storm();
        let mut tracer = Tracer::on(Recorder::new(cap));
        run_chaos(&fleet, &schedule, demand, &policy, &mut tracer).expect("reference storm");
        tracer.take().expect("tracer is on")
    };
    // A storm emits far more than 8 events: the ring overflows, and the
    // overflow surfaces both as the struct counter and as the
    // `trace.dropped` metric (silent loss would poison any analysis
    // done on the kept suffix).
    let tiny = run(8);
    assert!(tiny.dropped() > 0, "reference storm must overflow cap=8");
    assert_eq!(tiny.metrics().counter("trace.dropped"), tiny.dropped());
    assert_eq!(tiny.len(), 8, "ring keeps exactly its capacity");
    // Dropping is part of the deterministic contract: same run, same
    // drops, same surviving suffix.
    let again = run(8);
    assert_eq!(again.dropped(), tiny.dropped());
    assert_eq!(to_jsonl(&again), to_jsonl(&tiny));
    // A roomy recorder loses nothing, and the conservation law holds:
    // emitted = kept + dropped.
    let big = run(1 << 20);
    assert_eq!(big.metrics().counter("trace.dropped"), 0);
    assert_eq!(big.len() as u64, 8 + tiny.dropped());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Identical seed and fault plan ⇒ byte-identical JSONL, across a
    /// sweep of fault seeds and rates; and the attribution rows sum to
    /// the ledger total whether or not faults fired.
    #[test]
    fn seeded_fault_runs_are_byte_identical(
        seed in 0u64..500,
        transient_millis in 0u32..400,
    ) {
        let cfg = FaultConfig {
            transient_per_io: transient_millis as f64 / 1000.0,
            ..FaultConfig::NONE
        };
        let run = || {
            let mut db = loaded_db(HardwareProfile::flash_scanner());
            db.set_fault_profile(cfg, seed);
            db.try_run_scan_traced(&ScanSpec::fig2(), ExecPolicy::default(), 100.0)
        };
        match (run(), run()) {
            (Ok(a), Ok(b)) => {
                assert_lossless(&a.trace);
                prop_assert_eq!(to_jsonl(&a.trace), to_jsonl(&b.trace));
                prop_assert_eq!(to_chrome(&a.trace), to_chrome(&b.trace));
                assert_attribution_conserves(&a);
                prop_assert_eq!(a.report.energy, b.report.energy);
                prop_assert_eq!(a.report.retries, b.report.retries);
            }
            // A hostile fault rate may exhaust retries — deterministically.
            (Err(ea), Err(eb)) => prop_assert_eq!(ea.to_string(), eb.to_string()),
            (a, b) => prop_assert!(
                false,
                "identical runs diverged: {:?} vs {:?}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Pinned bytes. "Identical across runs" says nothing about "identical
// to what the previous commit exported", so the three trace-producing
// paths carry FNV-1a digests of every exported byte. The constants were
// measured on the commit *before* the recorder's event layout changed
// (PR 17); `crates/sim/src/parallel.rs` and `crates/scheduler/src/chaos.rs`
// pin the same scenarios in-crate.

/// FNV-1a (64-bit) over JSONL + Chrome + Prometheus + attribution rows.
fn export_digest(rec: &Recorder, attribution: Option<&AttributionTable>) -> u64 {
    assert_lossless(rec);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |s: &str| {
        for b in s.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&to_jsonl(rec));
    eat(&to_chrome(rec));
    eat(&to_prometheus(rec.metrics()));
    for row in attribution.iter().flat_map(|t| &t.rows) {
        eat(&format!(
            "{},{},{}\n",
            row.label,
            row.energy.joules(),
            row.share
        ));
    }
    h
}

/// Four cells drifting out of lockstep (salted job sizes), disks in
/// RAID-0 plus one SSD each so every track kind is remapped, transient
/// and latent faults live, two scripted machine crashes.
fn pinned_cells() -> grail::sim::SimConfig {
    use grail::power::components::{CpuPowerProfile, DiskPowerProfile, SsdPowerProfile};
    use grail::power::units::{Bytes, Cycles, Hertz};
    use grail::sim::driver::{IoDemand, JobSpec, PhaseSpec};
    use grail::sim::raid::RaidLevel;
    use grail::sim::{
        ArrayId, CellSpec, ChaosEvent, ChaosEventKind, ChaosSchedule, CpuPerfProfile,
        DiskPerfProfile, SimConfig, SsdId, SsdPerfProfile, StorageTarget,
    };
    let cell = |c: usize| {
        let streams = (0..2)
            .map(|s| {
                (0..3)
                    .map(|j| {
                        let salt = (c * 31 + s * 7 + j) as u64;
                        JobSpec::immediate(vec![
                            PhaseSpec::overlapped(
                                Cycles::new(20_000_000 + (salt % 5) * 4_000_000),
                                2,
                                vec![IoDemand::seq_read(
                                    StorageTarget::Array(ArrayId(0)),
                                    Bytes::mib(2 + salt % 5),
                                )],
                            ),
                            PhaseSpec::io_then_cpu(
                                Cycles::new(1_000_000 + salt * 1_000),
                                1,
                                vec![IoDemand::seq_read(
                                    StorageTarget::Ssd(SsdId(0)),
                                    Bytes::mib(1 + salt % 3),
                                )],
                            ),
                        ])
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
        .with_streams(streams)
    };
    let crash = |ms: u64, machine: u32| ChaosEvent {
        at: SimInstant::EPOCH + SimDuration::from_millis(ms),
        kind: ChaosEventKind::MachineCrash { machine },
    };
    let mut cfg = SimConfig::new((0..4).map(cell).collect());
    cfg.base_power = Watts::new(300.0);
    cfg.seed = 11;
    cfg.fault = FaultConfig {
        transient_per_io: 0.05,
        latent_per_read: 0.02,
        ..FaultConfig::NONE
    };
    cfg.chaos = Some(ChaosSchedule::scripted(
        4,
        1,
        SimDuration::from_secs(30),
        vec![crash(40, 0), crash(170, 3)],
    ));
    cfg.trace_capacity = Some(4096);
    cfg.attribution = true;
    cfg
}

#[test]
fn sharded_trace_bytes_are_pinned_at_every_shard_count() {
    let cfg = pinned_cells();
    for shards in [1usize, 2, 8] {
        let r = grail::sim::run_parallel(&cfg, shards).expect("pinned cells run");
        let rec = r.report.trace.as_ref().expect("tracing is on");
        // The scenario is only worth pinning while it exercises what the
        // merge has to get right: faults, crashes, the re-journaled
        // ledger, and the last cell's remapped tracks.
        let jsonl = to_jsonl(rec);
        for needle in [
            "\"name\":\"chaos.machine_crash\"",
            "\"name\":\"fault.array_io\"",
            "\"name\":\"fault.ssd_io\"",
            "\"name\":\"retry\"",
            "\"component\":\"recovery[0]\"",
            "\"track\":\"ssd[3]\"",
            "\"track\":\"disk[11]\"",
            "\"track\":\"stream[7]\"",
        ] {
            assert!(jsonl.contains(needle), "pinned trace lost {needle}");
        }
        assert_eq!(
            export_digest(rec, r.report.attribution.as_ref()),
            PINNED_CELLS,
            "exported bytes moved at {shards} shard(s)"
        );
    }
}

#[test]
fn single_simulation_trace_bytes_are_pinned() {
    // One `Simulation`, ledger journal on, operator spans and per-query
    // energy recorded into the returned recorder afterwards.
    let db = loaded_db(HardwareProfile::server_dl785(36));
    let run = db
        .try_run_throughput_test_traced(2, 2, ExecPolicy::default(), 10.0)
        .expect("loaded db runs");
    assert_eq!(
        export_digest(&run.trace, run.report.attribution.as_ref()),
        PINNED_THROUGHPUT
    );
}

#[test]
fn reference_storm_trace_bytes_are_pinned() {
    use grail::scheduler::chaos::{reference_storm, run_chaos};
    let (fleet, schedule, demand, policy) = reference_storm();
    let mut tracer = Tracer::on(Recorder::new(1 << 20));
    run_chaos(&fleet, &schedule, demand, &policy, &mut tracer).expect("reference storm");
    let rec = tracer.take().expect("tracer is on");
    assert_eq!(export_digest(&rec, None), PINNED_STORM);
}

const PINNED_CELLS: u64 = 0x4a4b_1780_cd06_0899;
const PINNED_THROUGHPUT: u64 = 0x9c04_795e_cd7d_1112;
const PINNED_STORM: u64 = 0xa9ef_a98d_49a1_a7d2;
