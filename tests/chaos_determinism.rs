//! End-to-end determinism for the cluster chaos engine: the EXT-CHAOS
//! policy sweep fanned across worker threads is bit-identical to the
//! sequential run, and repeated runs produce byte-identical reports and
//! traces.
//!
//! The unit tests in `grail-scheduler::chaos` prove one run equals the
//! next; this closes the loop through `grail_par` the way the EXT-CHAOS
//! row actually executes — every ledger entry, placement decision,
//! and trace line rendered to exact bits and compared across 1, 2, and
//! 8 threads.
//!
//! Identical to itself is not identical to the last commit: the last
//! test is the one pin of whole reports at fleet size, by digest, held
//! to the root `pins.txt` under `chaos.fleet_scale`.

use grail::power::units::SimDuration;
use grail::scheduler::chaos::{reference_storm, run_chaos, ChaosPolicy};
use grail::scheduler::cluster::{chaos_fleet, PlacementPolicy};
use grail::sim::fault::{ChaosConfig, ChaosSchedule};
use grail::trace::{to_jsonl, Recorder, Tracer};
use grail_par::Runner;
use grail_prop::{assert_pinned, Fnv1a};
use std::fmt::Write;

const POLICIES: [(&str, PlacementPolicy, u32); 4] = [
    ("spread-r1", PlacementPolicy::Spread, 1),
    ("consolidate-r3", PlacementPolicy::Consolidate, 3),
    ("consolidate-r2", PlacementPolicy::Consolidate, 2),
    ("consolidate-r1", PlacementPolicy::Consolidate, 1),
];

/// One sweep point rendered to exact bits plus its full trace: any
/// divergence in the ledger, the demand accounting, the placement
/// sequence, or the instrumentation shows up as a string mismatch.
fn point(name: &str, placement: PlacementPolicy, replicas: u32) -> String {
    let (fleet, schedule, demand, base) = reference_storm();
    let policy = ChaosPolicy {
        placement,
        replicas,
        ..base
    };
    let mut tracer = Tracer::on(Recorder::new(1 << 16));
    let r = run_chaos(&fleet, &schedule, demand, &policy, &mut tracer).expect("reference storm");
    let rec = tracer.take().expect("tracer is on");
    assert_eq!(
        rec.dropped(),
        0,
        "ring overflowed: the compared traces are suffixes"
    );
    assert_eq!(rec.metrics().counter("trace.dropped"), 0);
    format!(
        "{name} avail={:016x} energy={:016x} recovery={:016x} served={:016x} shed={:016x} \
         failed={:016x} crashes={} boots={} trips={} placements={}\n{}",
        r.availability().to_bits(),
        r.total_energy().joules().to_bits(),
        r.recovery_energy().joules().to_bits(),
        r.served.to_bits(),
        r.shed.to_bits(),
        r.failed.to_bits(),
        r.crashes,
        r.cold_boots,
        r.breaker_trips,
        r.placements.len(),
        to_jsonl(&rec),
    )
}

#[test]
fn chaos_sweep_is_bit_identical_across_thread_counts() {
    let seq = Runner::sequential().run(&POLICIES, |_, (n, p, r)| point(n, *p, *r));
    assert_eq!(seq.len(), POLICIES.len());
    for s in &seq {
        assert!(s.contains("avail="), "point rendered: {s:.60}");
    }
    for threads in [2usize, 8] {
        let par = Runner::with_threads(threads).run(&POLICIES, |_, (n, p, r)| point(n, *p, *r));
        assert_eq!(par, seq, "threads={threads}");
    }
}

#[test]
fn chaos_reports_and_traces_repeat_byte_for_byte() {
    let (name, placement, replicas) = POLICIES[2];
    let a = point(name, placement, replicas);
    let b = point(name, placement, replicas);
    assert_eq!(a, b);
    assert!(a.lines().count() > 1, "trace is non-empty");
}

/// `format!("{report:?}")` — the ledger's bits, every `PlacementChange`,
/// every counter — of a 16 × 32 `chaos_fleet` under a generated
/// hurricane, for each policy at 25 % and 60 % of fleet capacity, each
/// report conserving its demand; named `<policy>_<percent>pct`.
#[test]
fn fleet_scale_report_bytes_are_pinned() {
    let hurricane = ChaosConfig {
        machine_mtbf: Some(SimDuration::from_secs(6 * 3_600)),
        machine_restart: SimDuration::from_secs(900),
        domain_mtbf: Some(SimDuration::from_secs(86_400)),
        domain_outage: SimDuration::from_secs(3_600),
        brownout_mtbf: Some(SimDuration::from_secs(43_200)),
        brownout: SimDuration::from_secs(7_200),
        brownout_cap_frac: 0.6,
        surge_mtbf: Some(SimDuration::from_secs(21_600)),
        surge: SimDuration::from_secs(3_600),
        surge_factor: 2.0,
    };
    let fleet = chaos_fleet(16, 32);
    let horizon = SimDuration::from_secs(86_400);
    let schedule = ChaosSchedule::generate(hurricane, 1009, fleet.len() as u32, 16, horizon);
    let capacity: f64 = fleet.iter().map(|m| m.capacity).sum();
    let mut measured = Vec::new();
    for (name, placement, replicas) in POLICIES {
        let policy = ChaosPolicy {
            placement,
            replicas,
            ..ChaosPolicy::default()
        };
        for (frac, percent) in [(0.25, 25), (0.60, 60)] {
            let r = run_chaos(
                &fleet,
                &schedule,
                capacity * frac,
                &policy,
                &mut Tracer::off(),
            )
            .expect("hurricane at fleet size");
            assert!(
                r.conservation_error() <= 1e-6 * r.offered.max(1.0),
                "{name} at {frac}: served {} + shed {} + failed {} != offered {}",
                r.served,
                r.shed,
                r.failed,
                r.offered
            );
            // Tens of megabytes of text: hashed as it is formatted.
            let mut digest = Fnv1a::new();
            write!(digest, "{r:?}").expect("hashing cannot fail");
            measured.push((format!("{name}_{percent}pct"), digest.finish()));
        }
    }
    assert_pinned("chaos.fleet_scale", &measured);
}
