//! `grail-perf` — command line of GRAIL's host-performance benchmark.
//!
//! ```text
//! grail-perf run --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
//! grail-perf all [--seed S] [--seconds N] [--out FILE]
//! grail-perf compare A.json B.json
//! grail-perf contract
//! ```
//!
//! `run` measures one workload in this process (so `peak_rss_mb` is the
//! workload's own), prints one `name value unit` line per metric and,
//! as its last line, the JSON object the benchmark driver reads.
//! `all` runs the four workloads in order, untraced then traced, each
//! in a child process, and gathers their records into one result file.
//! `compare` judges two such files against the benchmark's bounds.
//! `contract` prints `BENCHMARK.json` from the metric table in
//! `spec.rs`, which is how that file is written.

use grail_perf::compare::compare_files;
use grail_perf::json;
use grail_perf::run::{run, RunConfig};
use grail_perf::spec::{benchmark_json, Workload, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seconds of timed passes when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = RUN_SECONDS as f64;
/// Where a traced run leaves its spans unless `--trace-out` says
/// otherwise (ignored by git).
const DEFAULT_TRACE_OUT: &str = "perf/out/trace.jsonl";
/// Where `all` writes its result file unless `--out` says otherwise.
const DEFAULT_ALL_OUT: &str = "perf/out/all.json";

const USAGE: &str = "usage:
  grail-perf run --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--out FILE] [--trace-out FILE]
  grail-perf all [--seed S] [--seconds N] [--out FILE]
  grail-perf compare A.json B.json
  grail-perf contract
workloads: repro_sweep tpch_scale sim_cells fleet_chaos";

/// Flags shared by `run` and `all`.
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    trace_out: PathBuf,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        trace_out: PathBuf::from(DEFAULT_TRACE_OUT),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            f.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                f.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                f.seed = value
                    .parse()
                    .map_err(|e| format!("bad seed {value:?}: {e}"))?
            }
            "--seconds" => {
                f.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value:?}: want 0 < N <= 600"))?;
            }
            "--trace" => {
                f.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}: want 0 or 1")),
                }
            }
            "--out" => f.out = Some(PathBuf::from(value)),
            "--trace-out" => f.trace_out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(f)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let workload = flags.workload.ok_or("run needs --workload NAME")?;
    let result = run(RunConfig::cli(
        workload,
        flags.seed,
        flags.seconds,
        flags.traced,
    ));
    print!("{}", result.metric_lines());
    print!("{}", result.layer_table());
    for failure in &result.failures {
        println!("# FAILED {failure}");
    }
    if let Some(trace) = &result.trace {
        write_file(&flags.trace_out, &trace.spans_jsonl)?;
    }
    if let Some(out) = &flags.out {
        write_file(out, &result.record_json())?;
    }
    println!("{}", result.contract_json());
    Ok(ExitCode::SUCCESS)
}

/// First line of `program args…`'s standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let out = flags.out.unwrap_or_else(|| PathBuf::from(DEFAULT_ALL_OUT));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let part = out.with_extension("part.json");
    let mut records = Vec::new();
    let mut all_correct = true;
    for traced in [false, true] {
        for w in Workload::ALL {
            println!(
                "## {} {}",
                w.name(),
                if traced { "traced" } else { "untraced" }
            );
            // A child per run, waited for before the next starts, so
            // peak memory is the workload's own.
            let status = Command::new(&exe)
                .arg("run")
                .args(["--workload", w.name()])
                .args(["--seed", &flags.seed.to_string()])
                .args(["--seconds", &flags.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&part)
                .arg("--trace-out")
                .arg(
                    Path::new(DEFAULT_TRACE_OUT)
                        .with_file_name(format!("trace-{}.jsonl", w.name())),
                )
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("run of {} ended with {status}", w.name()));
            }
            let record =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            let parsed = json::parse(&record)?;
            all_correct &= parsed.get("ops_failed").and_then(json::Json::as_f64) == Some(0.0);
            records.push(record);
        }
    }
    let _ = std::fs::remove_file(&part);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = format!(
        "{{\"benchmark\": \"grail-perf\", \"commit\": {}, \"rustc\": {}, \"nproc\": {nproc}, \
         \"seed\": {}, \"seconds\": {}, \"runs\": [\n{}\n]}}\n",
        json::quote(&first_line_of("git", &["describe", "--always", "--dirty"])),
        json::quote(&first_line_of("rustc", &["-V"])),
        flags.seed,
        json::number(flags.seconds),
        records.join(",\n")
    );
    write_file(&out, &doc)?;
    println!("## wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare needs two result files".to_string());
    };
    let c = compare_files(a, b)?;
    print!("{}", c.report);
    Ok(if c.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &[][..]),
    };
    // Timings of an unoptimized build say nothing about the repo.
    if cfg!(debug_assertions) && matches!(command, "run" | "all") {
        eprintln!("grail-perf: refusing to measure a debug build; use --release");
        return ExitCode::from(2);
    }
    let outcome = match command {
        "run" => cmd_run(rest),
        "all" => cmd_all(rest),
        "compare" => cmd_compare(rest),
        "contract" => {
            print!("{}", benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("grail-perf: {e}");
            ExitCode::from(2)
        }
    }
}
