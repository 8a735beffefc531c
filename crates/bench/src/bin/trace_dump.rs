//! `trace_dump` — run a named experiment with the flight recorder on
//! and write its full trace to disk:
//!
//! * `<out>/<exp>.trace.jsonl` — every event and metric, one JSON
//!   object per line (the byte-deterministic format CI diffs),
//! * `<out>/<exp>.trace.chrome.json` — Chrome trace-event JSON, load it
//!   at <https://ui.perfetto.dev> or `chrome://tracing`,
//! * `<out>/<exp>.power.csv` — active-power-over-time series rebuilt
//!   from the IO span events via `BinnedSeries::to_csv`,
//! * `<out>/<exp>.attribution.csv` — the per-query energy attribution
//!   table (rows sum to the wall-socket ledger total).
//!
//! Usage: `trace_dump [fig1|fig2|all] [out_dir]` (defaults: `fig1`,
//! `traces`), plus the `grail_par` flags `--threads N`/`--sequential`.
//! `all` captures both experiments in one invocation, fanned across the
//! runner; artifacts render inside each point and are written serially
//! in input order, so every file and console line is byte-identical to
//! running the experiments one at a time. The fig1 run is a
//! deliberately small configuration of the Figure 1 throughput test so
//! CI can capture, validate, and re-run it cheaply.

use grail_bench::{cell_f64, Csv};
use grail_core::db::{CompressionMode, EnergyAwareDb, ExecPolicy, ScanSpec, TracedRun};
use grail_core::profile::HardwareProfile;
use grail_par::Runner;
use grail_power::units::{SimDuration, SimInstant, Watts};
use grail_sim::trace::BinnedSeries;
use grail_trace::{export, ArgValue, Category, Recorder};
use grail_workload::tpch::TpchScale;
use std::path::PathBuf;

fn run_fig1() -> TracedRun {
    // Small FIG1 configuration: the 36-disk point of the sweep with a
    // reduced mix (2 streams x 2 queries) at a modest stretch.
    let mut db = EnergyAwareDb::new(HardwareProfile::server_dl785(36));
    db.load_tpch(TpchScale::toy());
    let policy = ExecPolicy {
        compression: CompressionMode::Plain,
        dop: 4,
    };
    db.try_run_throughput_test_traced(2, 2, policy, 1_000.0)
        .expect("fig1 trace run")
}

fn run_fig2() -> TracedRun {
    // Figure 2's machine scanning its 5-column projection, compressed.
    let mut db = EnergyAwareDb::new(HardwareProfile::flash_scanner());
    db.load_tpch(TpchScale::toy());
    let policy = ExecPolicy {
        compression: CompressionMode::Fig2,
        dop: 1,
    };
    db.try_run_scan_traced(&ScanSpec::fig2(), policy, 1_000.0)
        .expect("fig2 trace run")
}

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

/// Everything one experiment point produces, fully rendered: console
/// lines and file bodies. Rendering inside the point keeps the worker
/// pure; main writes serially in input order.
struct Dump {
    exp: String,
    head_lines: Vec<String>,
    files: Vec<(String, String)>,
    tail_line: String,
}

fn dump(exp: &str) -> Dump {
    let run = match exp {
        "fig1" => run_fig1(),
        "fig2" => run_fig2(),
        other => {
            eprintln!("unknown experiment {other:?}; expected fig1, fig2, or all");
            std::process::exit(2);
        }
    };

    let head_lines = vec![
        run.report.summary(),
        format!(
            "captured {} events ({} dropped), {} J over {}",
            run.trace.len(),
            run.trace.dropped(),
            run.report.energy.joules(),
            run.report.elapsed,
        ),
    ];

    let mut files = Vec::new();
    files.push((format!("{exp}.trace.jsonl"), export::to_jsonl(&run.trace)));
    files.push((
        format!("{exp}.trace.chrome.json"),
        export::to_chrome(&run.trace),
    ));

    // Power-over-time, routed through the shared BinnedSeries exporter.
    let series = power_series(&run.trace, SimDuration::from_millis(500));
    files.push((
        format!("{exp}.power.csv"),
        series.to_csv("t_s", "active_power_w"),
    ));

    // Per-query attribution: who burned the Joules.
    let table = run
        .report
        .attribution
        .as_ref()
        .expect("traced runs attribute");
    let mut csv = Csv::new(&["query", "energy_j", "share"]);
    for row in &table.rows {
        csv.row(&[
            row.label.clone(),
            cell_f64(row.energy.joules()),
            cell_f64(row.share),
        ]);
    }
    files.push((format!("{exp}.attribution.csv"), csv.finish()));
    let tail_line = format!(
        "attribution: {} rows, {} J attributed of {} J total",
        table.rows.len(),
        table.attributed().joules(),
        table.sum().joules(),
    );

    Dump {
        exp: exp.to_string(),
        head_lines,
        files,
        tail_line,
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let runner = Runner::from_cli_args(&mut args);
    let mut args = args.into_iter();
    let exp = args.next().unwrap_or_else(|| "fig1".to_string());
    let out_dir = PathBuf::from(args.next().unwrap_or_else(|| "traces".to_string()));
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    let exps: Vec<&str> = match exp.as_str() {
        "all" => vec!["fig1", "fig2"],
        one => vec![one],
    };
    let dumps = runner.run(&exps, |_, e| dump(e));

    for d in &dumps {
        if dumps.len() > 1 {
            println!("-- {}", d.exp);
        }
        for line in &d.head_lines {
            println!("{line}");
        }
        for (name, body) in &d.files {
            let path = out_dir.join(name);
            std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
            println!("wrote {} ({} bytes)", path.display(), body.len());
        }
        println!("{}", d.tail_line);
    }
}
