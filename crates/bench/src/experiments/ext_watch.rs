//! EXT-WATCH — the energy-regression watchdog's reference scenarios.
//!
//! The paper's closing argument is that energy efficiency only improves
//! when it is *continuously measured and defended*. This row is the
//! measurement: it replays three deterministic reference scenarios with
//! the metrics registry scraping —
//!
//! 1. **calm** — the EXT-CHAOS calm fleet under `consolidate-r2` (no
//!    injected faults; the energy floor of the resilient fleet),
//! 2. **storm** — the documented reference storm from DESIGN.md §11
//!    (crashes, a rack outage, brownouts and surges over two days),
//! 3. **db** — a TPC-H-like throughput run on the DL785 profile with
//!    per-query latency/energy metrics on,
//!
//! then distills each into flat summary keys (joules-per-query,
//! availability, shed fractions, SLO burn statistics), carried by the
//! scenario's record and, all together and sorted, by
//! `figures/watchdog_baseline.json`. Every input is seeded and every
//! metric is keyed on simulated time, so the summary is byte-stable: a
//! drift is a real behavioral change, never noise. The defense is
//! `crates/bench/tests/table.rs`, which byte-compares that file with
//! the committed `crates/bench/baselines/watchdog.json`.
//!
//! Besides the summary the run returns per-scenario scrape CSVs and the
//! Prometheus text exposition of the final storm and db registries.

use super::Outcome;
use crate::points::{chaos_policy, chaos_world, toy};
use crate::{cell_f64, Csv, ExperimentRecord};
use grail_core::db::{CompressionMode, ExecPolicy};
use grail_core::profile::HardwareProfile;
use grail_core::report::EnergyReport;
use grail_metrics::{evaluate, render_baseline, SloKind, SloReport, SloSpec, Snapshot};
use grail_par::Runner;
use grail_scheduler::chaos::{
    reference_storm, run_chaos, ChaosPolicy, ChaosReport, DOCUMENTED_AVAILABILITY_FLOOR,
};
use grail_scheduler::cluster::Machine;
use grail_sim::ChaosSchedule;
use grail_trace::{Recorder, Tracer};

/// Chaos scenarios scrape hourly: 48 snapshots over the two-day horizon.
const CHAOS_SCRAPE: u64 = 3_600_000_000_000;
/// The db run scrapes every 60 simulated seconds.
const DB_SCRAPE: u64 = 60_000_000_000;

/// Replay one chaos scenario: the settled report plus the recorder
/// whose registry and scrape series described it.
fn run_fleet(
    fleet: &[Machine],
    schedule: &ChaosSchedule,
    demand: f64,
    policy: &ChaosPolicy,
) -> (ChaosReport, Recorder) {
    let mut tracer = Tracer::on(Recorder::metrics_only().with_scrape_interval(CHAOS_SCRAPE));
    let report = run_chaos(fleet, schedule, demand, policy, &mut tracer).expect("reference fleet");
    (report, tracer.take().expect("tracer is on"))
}

/// The db reference run: 4 closed streams × 4 queries of the TPC-H-like
/// mix on a 4-spindle DL785, stretched 30 000× (Fig. 1's scale).
fn run_db() -> (EnergyReport, Recorder) {
    let mut db = toy().on(HardwareProfile::server_dl785(4));
    db.set_scrape_interval(DB_SCRAPE);
    let traced = db
        .try_run_throughput_test_traced(
            4,
            4,
            ExecPolicy {
                compression: CompressionMode::Plain,
                dop: 4,
            },
            30_000.0,
        )
        .expect("reference throughput run");
    (traced.report, traced.trace)
}

fn storm_slos() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "storm-availability",
            kind: SloKind::RatioAtLeast {
                good: "chaos.served_work",
                total: "chaos.offered_work",
                floor: DOCUMENTED_AVAILABILITY_FLOOR,
            },
            fast_windows: 2,
            slow_windows: 12,
            burn_threshold: 1.0,
        },
        SloSpec {
            name: "storm-shed-ceiling",
            kind: SloKind::RatioBelow {
                num: "chaos.shed_work",
                den: "chaos.offered_work",
                ceiling: 1.0 - DOCUMENTED_AVAILABILITY_FLOOR,
            },
            fast_windows: 2,
            slow_windows: 12,
            burn_threshold: 1.0,
        },
    ]
}

fn db_slos() -> Vec<SloSpec> {
    vec![SloSpec {
        name: "db-p99-latency",
        kind: SloKind::QuantileBelow {
            histogram: "db.query_secs",
            q: 0.99,
            threshold: 120.0,
        },
        fast_windows: 2,
        slow_windows: 6,
        burn_threshold: 1.0,
    }]
}

/// Fold an SLO report into baseline-guarded keys: the worst burn and
/// alert count of every objective. Absolute bounds on the reference
/// scenarios are the baseline's job; the SLO engine contributes the
/// *shape* (how hard and how sustained the worst window burned).
fn slo_entries(report: &SloReport, out: &mut Vec<(String, f64)>) {
    for o in &report.objectives {
        out.push((format!("slo.{}.worst_burn", o.name), o.worst_burn));
        out.push((format!("slo.{}.alerts", o.name), o.alerts.len() as f64));
        out.push((format!("slo.{}.breaches", o.name), o.breaches as f64));
    }
}

fn chaos_entries(prefix: &str, r: &ChaosReport, rec: &Recorder) -> Vec<(String, f64)> {
    let total = r.total_energy().joules();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        (format!("{prefix}.availability"), r.availability()),
        (format!("{prefix}.shed_frac"), ratio(r.shed, r.offered)),
        (format!("{prefix}.joules_per_work"), ratio(total, r.served)),
        (
            format!("{prefix}.recovery_share"),
            ratio(r.recovery_energy().joules(), total),
        ),
        (format!("{prefix}.cold_boots"), r.cold_boots as f64),
        (format!("{prefix}.breaker_trips"), r.breaker_trips as f64),
        (
            format!("{prefix}.events"),
            rec.metrics().counter("chaos.events") as f64,
        ),
    ]
}

fn db_entries(rep: &EnergyReport, rec: &Recorder) -> Vec<(String, f64)> {
    let m = rec.metrics();
    let mut out = vec![
        ("db.queries".to_string(), m.counter("db.queries") as f64),
        ("db.total_joules".to_string(), rep.energy.joules()),
        (
            "db.joules_per_query".to_string(),
            m.gauge("db.joules_per_query").unwrap_or(0.0),
        ),
    ];
    if let Some(h) = m.histogram("db.query_secs") {
        out.push(("db.p50_query_secs".to_string(), h.quantile(0.5)));
        out.push(("db.p99_query_secs".to_string(), h.quantile(0.99)));
    }
    out.push(("db.elapsed_secs".to_string(), rep.elapsed.as_secs_f64()));
    out
}

fn snapshot_rate(s: &Snapshot, name: &str) -> u64 {
    s.rates
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn chaos_scrape_csv(series: &[Snapshot]) -> String {
    let mut csv = Csv::new(&[
        "t_hours",
        "events",
        "event_rate_h",
        "placements",
        "offered_work",
        "served_work",
        "shed_work",
        "served_rate",
        "shed_rate",
        "replicas",
        "cold_boots",
        "breaker_trips",
    ]);
    for s in series {
        csv.row(&[
            cell_f64(s.at_nanos as f64 / 3.6e12),
            s.counter("chaos.events").to_string(),
            snapshot_rate(s, "chaos.event_rate").to_string(),
            s.counter("chaos.placements").to_string(),
            cell_f64(s.gauge("chaos.offered_work").unwrap_or(0.0)),
            cell_f64(s.gauge("chaos.served_work").unwrap_or(0.0)),
            cell_f64(s.gauge("chaos.shed_work").unwrap_or(0.0)),
            cell_f64(s.gauge("chaos.served_rate").unwrap_or(0.0)),
            cell_f64(s.gauge("chaos.shed_rate").unwrap_or(0.0)),
            cell_f64(s.gauge("chaos.replicas").unwrap_or(0.0)),
            s.counter("chaos.cold_boots").to_string(),
            s.counter("chaos.breaker_trips").to_string(),
        ]);
    }
    csv.finish()
}

fn db_scrape_csv(series: &[Snapshot]) -> String {
    let mut csv = Csv::new(&[
        "t_secs",
        "queries",
        "query_rate_s",
        "p50_secs",
        "p99_secs",
        "io_requests",
        "cpu_requests",
        "driver_jobs",
    ]);
    for s in series {
        let (p50, p99) = s
            .histogram("db.query_secs")
            .map(|h| (h.quantile(0.5), h.quantile(0.99)))
            .unwrap_or((0.0, 0.0));
        csv.row(&[
            cell_f64(s.at_nanos as f64 / 1e9),
            s.counter("db.queries").to_string(),
            snapshot_rate(s, "db.query_rate").to_string(),
            cell_f64(p50),
            cell_f64(p99),
            s.counter("io.requests").to_string(),
            s.counter("cpu.requests").to_string(),
            s.counter("driver.jobs").to_string(),
        ]);
    }
    csv.finish()
}

fn say_slo_table(out: &mut Outcome, report: &SloReport) {
    for o in &report.objectives {
        out.say(format!(
            "slo {:<24} windows={:<4} breaches={:<4} alerts={:<3} worst_burn={:.3} {}",
            o.name,
            o.windows,
            o.breaches,
            o.alerts.len(),
            o.worst_burn,
            if o.ok { "ok" } else { "VIOLATED" },
        ));
    }
}

/// One scenario's row: its summary keys are the record's extras.
fn record(
    config: &str,
    elapsed_secs: f64,
    energy_j: f64,
    work: f64,
    keys: &[(String, f64)],
) -> ExperimentRecord {
    let extra = keys.iter().map(|(k, v)| (k.clone(), *v)).collect();
    ExperimentRecord::new("EXT-WATCH", config, elapsed_secs, energy_j, work, extra)
}

pub(super) fn run(_runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let (fleet, schedule, demand) = chaos_world("calm");
    let (calm, calm_rec) = run_fleet(&fleet, &schedule, demand, &chaos_policy("consolidate-r2"));
    let (fleet, schedule, demand, policy) = reference_storm();
    let (storm, storm_rec) = run_fleet(&fleet, &schedule, demand, &policy);
    let (db, db_rec) = run_db();

    let storm_slo = evaluate(&storm_slos(), storm_rec.snapshots());
    let db_slo = evaluate(&db_slos(), db_rec.snapshots());

    let calm_keys = chaos_entries("calm", &calm, &calm_rec);
    let mut storm_keys = chaos_entries("storm", &storm, &storm_rec);
    slo_entries(&storm_slo, &mut storm_keys);
    let mut db_keys = db_entries(&db, &db_rec);
    slo_entries(&db_slo, &mut db_keys);

    for (name, r, keys) in [("calm", &calm, &calm_keys), ("storm", &storm, &storm_keys)] {
        out.push(record(
            name,
            r.horizon.as_secs_f64(),
            r.total_energy().joules(),
            r.served,
            keys,
        ));
    }
    out.push(record(
        "db",
        db.elapsed.as_secs_f64(),
        db.energy.joules(),
        db.work,
        &db_keys,
    ));

    out.figure(
        "figures/watchdog_calm_scrape.csv",
        chaos_scrape_csv(calm_rec.snapshots()),
    );
    out.figure(
        "figures/watchdog_storm_scrape.csv",
        chaos_scrape_csv(storm_rec.snapshots()),
    );
    out.figure(
        "figures/watchdog_db_scrape.csv",
        db_scrape_csv(db_rec.snapshots()),
    );
    out.figure(
        "figures/watchdog_storm.prom",
        grail_metrics::to_prometheus(storm_rec.metrics()),
    );
    out.figure(
        "figures/watchdog_db.prom",
        grail_metrics::to_prometheus(db_rec.metrics()),
    );
    let mut entries = [calm_keys, storm_keys, db_keys].concat();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    out.figure("figures/watchdog_baseline.json", render_baseline(&entries));

    say_slo_table(&mut out, &storm_slo);
    say_slo_table(&mut out, &db_slo);
    out.say(format!(
        "{} summary keys in figures/watchdog_baseline.json; crates/bench/tests/table.rs",
        entries.len()
    ));
    out.say("byte-compares it with the committed crates/bench/baselines/watchdog.json.");
    out
}
