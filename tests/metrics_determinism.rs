//! Byte-identity of the metrics pipeline: scrape snapshots, the
//! Prometheus rendering, and SLO burn-rate reports are pure functions of
//! the simulated run — identical across repeated runs and across any
//! `grail_par` worker-thread count.
//!
//! The fleet sweep is the same shape experiment row EXT-WATCH
//! executes: each sweep point runs the reference storm with a
//! metrics-only recorder and an hourly scrape clock, then renders every
//! observable surface (snapshot series with bit-exact gauges, the
//! Prometheus text of the final registry, the SLO report) to one string.
//! Any nondeterminism anywhere in the instrumentation shows up as a
//! string mismatch between thread counts or re-runs, and each policy's
//! string is held to the root `pins.txt` under `metrics.sweep`.

use grail::core::db::{EnergyAwareDb, ExecPolicy};
use grail::metrics::{evaluate, to_prometheus, SloKind, SloSpec, Snapshot};
use grail::prelude::*;
use grail::scheduler::chaos::{reference_storm, run_chaos, ChaosPolicy};
use grail::scheduler::cluster::PlacementPolicy;
use grail::trace::{Recorder, Tracer};
use grail_par::Runner;
use grail_prop::{assert_pinned, check, Fnv1a};

const HOUR: u64 = 3_600_000_000_000;

const POLICIES: [(&str, PlacementPolicy, u32); 4] = [
    ("spread-r1", PlacementPolicy::Spread, 1),
    ("consolidate-r3", PlacementPolicy::Consolidate, 3),
    ("consolidate-r2", PlacementPolicy::Consolidate, 2),
    ("consolidate-r1", PlacementPolicy::Consolidate, 1),
];

fn storm_recorder(interval: u64, placement: PlacementPolicy, replicas: u32) -> Recorder {
    let (fleet, schedule, demand, base) = reference_storm();
    let policy = ChaosPolicy {
        placement,
        replicas,
        ..base
    };
    let mut tracer = Tracer::on(Recorder::metrics_only().with_scrape_interval(interval));
    run_chaos(&fleet, &schedule, demand, &policy, &mut tracer).expect("reference storm");
    tracer.take().expect("tracer is on")
}

/// A snapshot rendered with bit-exact floats: two renderings agree iff
/// every counter, gauge bit pattern, rate window, and histogram bucket
/// agrees.
fn render_snapshot(s: &Snapshot) -> String {
    let mut out = format!("t={}", s.at_nanos);
    for (n, v) in &s.counters {
        out.push_str(&format!(" {n}={v}"));
    }
    for (n, v) in &s.gauges {
        out.push_str(&format!(" {n}={:016x}", v.to_bits()));
    }
    for (n, v) in &s.rates {
        out.push_str(&format!(" {n}[w]={v}"));
    }
    for h in &s.histograms {
        out.push_str(&format!(
            " {}(n={},sum={:016x})",
            h.name,
            h.hist.count(),
            h.hist.sum().to_bits()
        ));
    }
    out.push('\n');
    out
}

fn storm_slos() -> Vec<SloSpec> {
    vec![SloSpec {
        name: "availability",
        kind: SloKind::RatioAtLeast {
            good: "chaos.served_work",
            total: "chaos.offered_work",
            floor: 0.9,
        },
        fast_windows: 2,
        slow_windows: 12,
        burn_threshold: 1.0,
    }]
}

/// One sweep point: every metrics surface rendered to a string.
fn point(name: &str, placement: PlacementPolicy, replicas: u32) -> String {
    let rec = storm_recorder(HOUR, placement, replicas);
    let series: String = rec.snapshots().iter().map(render_snapshot).collect();
    let slo = evaluate(&storm_slos(), rec.snapshots());
    format!(
        "{name}\n{series}{}\nslo={:?}\n",
        to_prometheus(rec.metrics()),
        slo
    )
}

#[test]
fn metrics_sweep_is_byte_identical_across_thread_counts() {
    let seq = Runner::sequential().run(&POLICIES, |_, (n, p, r)| point(n, *p, *r));
    assert_eq!(seq.len(), POLICIES.len());
    for s in &seq {
        assert!(s.contains("chaos_events"), "prometheus rendered: {s:.200}");
        assert!(s.contains("t="), "snapshots rendered: {s:.200}");
    }
    for threads in [2usize, 8] {
        let par = Runner::with_threads(threads).run(&POLICIES, |_, (n, p, r)| point(n, *p, *r));
        assert_eq!(par, seq, "threads={threads}");
    }
}

/// Identical across thread counts is not identical to the last commit:
/// each policy's sweep point, by digest.
#[test]
fn metrics_sweep_bytes_are_pinned() {
    let measured = POLICIES.map(|(name, placement, replicas)| {
        let mut h = Fnv1a::new();
        h.bytes(point(name, placement, replicas).as_bytes());
        (name, h.finish())
    });
    assert_pinned("metrics.sweep", &measured);
}

#[test]
fn scrape_series_covers_the_horizon_hourly() {
    let rec = storm_recorder(HOUR, PlacementPolicy::Consolidate, 2);
    let snaps = rec.snapshots();
    assert!(
        snaps.len() >= 24,
        "a multi-day storm at hourly scrape yields at least a day of snapshots, got {}",
        snaps.len()
    );
    // Boundaries are exact multiples of the interval, strictly
    // increasing, and the final snapshot carries the run's totals.
    for w in snaps.windows(2) {
        assert!(w[0].at_nanos < w[1].at_nanos);
    }
    for s in snaps {
        assert_eq!(s.at_nanos % HOUR, 0, "boundary {} off-grid", s.at_nanos);
    }
    let last = snaps.last().expect("non-empty");
    assert!(last.counter("chaos.events") > 0);
    assert!(last.gauge("chaos.offered_work").unwrap_or(0.0) > 0.0);
}

/// Re-runs are byte-identical for any policy and scrape interval,
/// and coarsening the interval never changes the final registry
/// (the scrape clock observes the run without perturbing it).
#[test]
fn reruns_and_scrape_intervals_are_stable() {
    check(8, |g| {
        let (name, placement, replicas) = g.pick(&POLICIES);
        let hours = g.range(1u64..13);
        let a = point(name, placement, replicas);
        let b = point(name, placement, replicas);
        assert_eq!(a, b, "re-run diverged for {name}");

        let fine = storm_recorder(HOUR, placement, replicas);
        let coarse = storm_recorder(hours * HOUR, placement, replicas);
        assert_eq!(
            to_prometheus(fine.metrics()),
            to_prometheus(coarse.metrics()),
            "scrape interval perturbed the run"
        );
    });
}

/// Asserts that every `# TYPE` family of a scrape follows its `# HELP`
/// line. The exposition writes one only for names in `spec::CATALOG`,
/// so a family without it is a metric that reached the scrape
/// uncatalogued.
fn assert_catalogued(prom: &str) {
    let mut helped = None;
    let mut families = 0;
    for line in prom.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helped = rest.split(' ').next();
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap_or_default();
            assert!(
                helped == Some(name),
                "`{name}` reached a scrape without a spec::CATALOG entry"
            );
            families += 1;
        }
    }
    assert!(families > 0, "empty scrape");
}

/// Every metric in the pinned scrapes is catalogued: the reference
/// storm under each policy (pinned above and by EXT-WATCH) and the
/// facade's traced throughput test (pinned in `trace_determinism.rs`).
/// Six catalog entries reach no tier-1 scrape; DESIGN §12 names them.
#[test]
fn every_exported_family_is_catalogued() {
    for (_, placement, replicas) in POLICIES {
        assert_catalogued(&to_prometheus(
            storm_recorder(HOUR, placement, replicas).metrics(),
        ));
    }
    let mut db = EnergyAwareDb::new(HardwareProfile::server_dl785(36));
    db.load_tpch(TpchScale::toy());
    let run = db
        .try_run_throughput_test_traced(2, 2, ExecPolicy::default(), 10.0)
        .expect("loaded db runs");
    assert_catalogued(&to_prometheus(run.trace.metrics()));
}
