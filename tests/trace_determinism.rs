//! Trace determinism and attribution-conservation properties.
//!
//! The flight recorder's contract: a trace is a pure function of the
//! simulated run, so identical seed + fault plan ⇒ byte-identical JSONL
//! export, and the attribution table's rows always sum to the ledger's
//! wall-socket total (the PR-2 conservation invariant, per query).

use grail::core::db::{EnergyAwareDb, ExecPolicy, ScanSpec, TracedRun};
use grail::metrics::to_prometheus;
use grail::prelude::*;
use grail::trace::{to_chrome, to_jsonl};
use grail_prop::{assert_pinned, check, Fnv1a};
use std::fmt::Write;

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
    // The reference storm `storms` times over into one ring of `cap`.
    let replay = |cap: usize, storms: usize| {
        let (fleet, schedule, demand, policy) = reference_storm();
        let mut tracer = Tracer::on(Recorder::new(cap));
        for _ in 0..storms {
            run_chaos(&fleet, &schedule, demand, &policy, &mut tracer).expect("reference storm");
        }
        tracer.take().expect("tracer is on")
    };
    let run = |cap: usize| replay(cap, 1);
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
    // A wrapped ring keeps exactly the newest events, not merely the
    // same ones twice: its event lines are the roomy ring's last `cap`.
    // 80 storms emit ~29 400 events, so a ring of 10 000 holds parts of
    // two of the recorder's 8 192-entry blocks and its evictions cross
    // two block boundaries.
    let event_lines = |rec: &Recorder| -> Vec<String> {
        to_jsonl(rec)
            .lines()
            .filter(|l| l.starts_with("{\"ts\""))
            .map(str::to_string)
            .collect()
    };
    let all = event_lines(&replay(1 << 20, 80));
    for cap in [8, 10_000] {
        let wrapped = replay(cap, 80);
        assert!(wrapped.dropped() > 2 * 8192, "cap {cap}");
        assert_eq!(event_lines(&wrapped), all[all.len() - cap..], "cap {cap}");
    }
}

/// Identical seed and fault plan ⇒ byte-identical JSONL, across a
/// sweep of fault seeds and rates; and the attribution rows sum to
/// the ledger total whether or not faults fired.
#[test]
fn seeded_fault_runs_are_byte_identical() {
    check(16, |g| {
        let (seed, transient_millis) = (g.range(0u64..500), g.range(0u32..400));
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
                assert_eq!(to_jsonl(&a.trace), to_jsonl(&b.trace));
                assert_eq!(to_chrome(&a.trace), to_chrome(&b.trace));
                assert_attribution_conserves(&a);
                assert_eq!(a.report.energy, b.report.energy);
                assert_eq!(a.report.retries, b.report.retries);
            }
            // A hostile fault rate may exhaust retries — deterministically.
            (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string()),
            (a, b) => panic!(
                "identical runs diverged: {:?} vs {:?}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    });
}

// ---------------------------------------------------------------------
// Pinned bytes. "Identical across runs" says nothing about "identical
// to what the previous commit exported", so the facade's traced run and
// the reference storm carry FNV-1a digests of every exported byte, held
// to the root `pins.txt` under `trace.*`; the sharded cells are pinned
// in `crates/sim/src/parallel.rs`.

/// FNV-1a (64-bit) over JSONL + Chrome + Prometheus + attribution rows.
fn export_digest(rec: &Recorder, attribution: Option<&AttributionTable>) -> u64 {
    assert_lossless(rec);
    let mut h = Fnv1a::new();
    h.bytes(to_jsonl(rec).as_bytes());
    h.bytes(to_chrome(rec).as_bytes());
    h.bytes(to_prometheus(rec.metrics()).as_bytes());
    for row in attribution.iter().flat_map(|t| &t.rows) {
        writeln!(h, "{},{},{}", row.label(), row.energy.joules(), row.share)
            .expect("hashing cannot fail");
    }
    h.finish()
}

#[test]
fn single_simulation_trace_bytes_are_pinned() {
    // One `Simulation`, ledger journal on, operator spans and per-query
    // energy recorded into the returned recorder afterwards.
    let db = loaded_db(HardwareProfile::server_dl785(36));
    let run = db
        .try_run_throughput_test_traced(2, 2, ExecPolicy::default(), 10.0)
        .expect("loaded db runs");
    let digest = export_digest(&run.trace, run.report.attribution.as_ref());
    assert_pinned("trace.single_simulation", &[("bytes", digest)]);
}

#[test]
fn reference_storm_trace_bytes_are_pinned() {
    use grail::scheduler::chaos::{reference_storm, run_chaos};
    let (fleet, schedule, demand, policy) = reference_storm();
    let mut tracer = Tracer::on(Recorder::new(1 << 20));
    run_chaos(&fleet, &schedule, demand, &policy, &mut tracer).expect("reference storm");
    let rec = tracer.take().expect("tracer is on");
    let digest = export_digest(&rec, None);
    assert_pinned("trace.reference_storm", &[("bytes", digest)]);
}
