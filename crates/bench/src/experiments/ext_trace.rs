//! EXT-TRACE — FIG1 and FIG2 replayed with the flight recorder on.
//!
//! Two small captures, each rendered four ways under `figures/traces/`:
//!
//! * `<exp>.trace.jsonl` — every event and metric, one JSON object per
//!   line (the byte-deterministic format CI diffs),
//! * `<exp>.trace.chrome.json` — Chrome trace-event JSON, load it at
//!   <https://ui.perfetto.dev> or `chrome://tracing`,
//! * `<exp>.power.csv` — active-power-over-time series rebuilt from
//!   the IO span events via `BinnedSeries::to_csv`,
//! * `<exp>.attribution.csv` — the per-query energy attribution table
//!   (rows sum to the wall-socket ledger total).
//!
//! `fig1` is a deliberately small configuration of the Figure 1
//! throughput test, `fig2` the Figure 2 compressed scan. A capture that overflowed its ring would export a suffix, so both
//! must finish with zero dropped events. The two captures share one
//! load of the toy tables, fan out through `grail_par` and render
//! inside their point; rows are reported in input order, so output is
//! identical at every thread count.

use super::Outcome;
use crate::points::toy;
use crate::{cell_f64, Csv, ExperimentRecord};
use grail_core::db::{CompressionMode, EnergyAwareDb, ExecPolicy, ScanSpec, TracedRun};
use grail_core::profile::HardwareProfile;
use grail_par::Runner;
use grail_power::units::{SimDuration, SimInstant, Watts};
use grail_sim::trace::BinnedSeries;
use grail_trace::{export, ArgValue, Category, Recorder};

/// The 36-disk FIG1 point at 2 streams × 2 queries.
fn fig1(toy: &EnergyAwareDb) -> TracedRun {
    let db = toy.on(HardwareProfile::server_dl785(36));
    let policy = ExecPolicy {
        compression: CompressionMode::Plain,
        dop: 4,
    };
    db.try_run_throughput_test_traced(2, 2, policy, 1_000.0)
        .expect("fig1 trace run")
}

/// Figure 2's machine scanning its 5-column projection, compressed.
fn fig2(toy: &EnergyAwareDb) -> TracedRun {
    let db = toy.on(HardwareProfile::flash_scanner());
    let policy = ExecPolicy {
        compression: CompressionMode::Fig2,
        dop: 1,
    };
    db.try_run_scan_traced(&ScanSpec::fig2(), policy, 1_000.0)
        .expect("fig2 trace run")
}

/// A figure's name and the traced run that captures it from the
/// shared toy tables.
type Capture = (&'static str, fn(&EnergyAwareDb) -> TracedRun);

const CAPTURES: [Capture; 2] = [("fig1", fig1), ("fig2", fig2)];

/// Rebuild the active-power series from the recorder's IO spans: each
/// span carries its active energy (`active_j`), so average power over
/// the span is energy / duration, binned like the figures' power plots.
fn power_series(trace: &Recorder, bin: SimDuration) -> BinnedSeries {
    let mut series = BinnedSeries::new(bin);
    for ev in trace.events() {
        if ev.cat != Category::Io {
            continue;
        }
        let Some(dur) = ev.dur.filter(|d| *d > 0) else {
            continue;
        };
        let Some(ArgValue::F64(active_j)) = ev.arg("active_j") else {
            continue;
        };
        let start = SimInstant::EPOCH + SimDuration::from_nanos(ev.at.as_nanos());
        let end = start + SimDuration::from_nanos(dur);
        let secs = SimDuration::from_nanos(dur).as_secs_f64();
        series.add_interval(start, end, Watts::new(active_j / secs));
    }
    series
}

/// One capture, fully rendered: its record, detail line and the four
/// files.
fn dump(exp: &str, run: TracedRun) -> (ExperimentRecord, String, Vec<(String, String)>) {
    assert_eq!(
        run.trace.dropped(),
        0,
        "{exp}: the trace ring overflowed, the export would be a suffix"
    );
    let table = run
        .report
        .attribution
        .as_ref()
        .expect("traced runs attribute");
    let mut attribution = Csv::new(&["query", "energy_j", "share"]);
    for row in &table.rows {
        attribution.row(&[
            row.label(),
            cell_f64(row.energy.joules()),
            cell_f64(row.share),
        ]);
    }
    let series = power_series(&run.trace, SimDuration::from_millis(500));
    let files = vec![
        (
            format!("figures/traces/{exp}.trace.jsonl"),
            export::to_jsonl(&run.trace),
        ),
        (
            format!("figures/traces/{exp}.trace.chrome.json"),
            export::to_chrome(&run.trace),
        ),
        (
            format!("figures/traces/{exp}.power.csv"),
            series.to_csv("t_s", "active_power_w"),
        ),
        (
            format!("figures/traces/{exp}.attribution.csv"),
            attribution.finish(),
        ),
    ];
    let rec = ExperimentRecord::new(
        "EXT-TRACE",
        exp,
        run.report.elapsed.as_secs_f64(),
        run.report.energy.joules(),
        run.report.work,
        crate::extras!({
            "events": run.trace.len(),
            "attribution_rows": table.rows.len(),
            "attributed_j": table.attributed().joules(),
        }),
    );
    let detail = format!(
        "    captured {} events, {} attribution rows, {} J attributed of {} J total",
        run.trace.len(),
        table.rows.len(),
        table.attributed().joules(),
        table.sum().joules(),
    );
    (rec, detail, files)
}

pub(super) fn run(runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let toy = toy();
    let captures = runner.run(&CAPTURES, |_, (exp, capture)| dump(exp, capture(&toy)));
    for (rec, detail, files) in captures {
        out.push(rec);
        out.detail(detail);
        for (path, text) in files {
            out.figure(&path, text);
        }
    }
    out.say("open figures/traces/*.trace.chrome.json at https://ui.perfetto.dev;");
    out.say("the attribution rows (with `unattributed`) sum to the wall-socket total.");
    out
}
