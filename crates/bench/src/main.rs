//! `grail-bench` — the one driver over the experiment table.
//!
//! ```text
//! grail-bench list
//! grail-bench run <ID>…|all [--threads N | --sequential]
//! ```
//!
//! Experiments are pure (`grail_bench::EXPERIMENTS`); this binary is the
//! only code that prints their rows, appends `experiments.jsonl` and
//! writes `figures/*`, all relative to the current directory. Sweeps fan
//! out over `grail_par`; every artifact is byte-identical at any thread
//! count.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "grail-bench owns the console: it prints rows, usage and errors"
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use grail_bench::{Experiment, ExperimentRecord, Outcome, EXPERIMENTS};
use grail_par::Runner;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::Path;

const USAGE: &str = "usage: grail-bench list | run <ID>…|all [--threads N | --sequential]";

/// What the command line asked for.
#[derive(Debug)]
enum Command {
    /// Print the table.
    List,
    /// Run these rows, in table order.
    Run(Vec<&'static Experiment>),
}

/// Parse the command line (program name already stripped). Every
/// argument must be a runner flag, `list`, `run`, `all` or a table ID
/// (case-insensitive; a repeated ID runs once); anything else is an
/// error naming it.
fn parse(mut args: Vec<String>) -> Result<(Runner, Command), String> {
    let runner = Runner::from_cli_args(&mut args)?;
    let mut args = args.iter().map(String::as_str);
    let command = match args.next() {
        None => return Err("no command".to_string()),
        Some("list") => Command::List,
        Some("run") => {
            let mut picked = vec![false; EXPERIMENTS.len()];
            for arg in args.by_ref() {
                if arg.eq_ignore_ascii_case("all") {
                    picked.fill(true);
                } else if let Some(i) = EXPERIMENTS
                    .iter()
                    .position(|e| e.id.eq_ignore_ascii_case(arg))
                {
                    picked[i] = true;
                } else if arg.starts_with('-') {
                    return Err(format!("unknown option `{arg}`"));
                } else {
                    return Err(format!("unknown experiment `{arg}`"));
                }
            }
            if !picked.contains(&true) {
                return Err("`run` needs at least one experiment ID or `all`".to_string());
            }
            let rows = EXPERIMENTS.iter().zip(picked).filter(|(_, p)| *p);
            Command::Run(rows.map(|(e, _)| e).collect())
        }
        Some(other) => return Err(format!("unknown command `{other}`")),
    };
    match args.next() {
        Some(extra) => Err(format!("unexpected argument `{extra}`")),
        None => Ok((runner, command)),
    }
}

fn print_header(experiment: &str, description: &str) {
    println!("== {experiment}: {description}");
    println!(
        "{:<26} {:>12} {:>14} {:>12} {:>14}",
        "config", "time (s)", "energy (J)", "work", "EE (work/J)"
    );
}

fn print_row(r: &ExperimentRecord) {
    println!(
        "{:<26} {:>12.3} {:>14.1} {:>12.0} {:>14.6e}",
        r.config, r.elapsed_secs, r.energy_j, r.work, r.efficiency
    );
}

/// Print one experiment's report: header, rows with their detail
/// lines, then the narrative.
fn report(e: &Experiment, outcome: &Outcome) {
    print_header(e.id, e.about);
    for (rec, detail) in &outcome.rows {
        print_row(rec);
        if let Some(line) = detail {
            println!("{line}");
        }
    }
    println!();
    print!("{}", outcome.narrative);
    for (path, bytes) in &outcome.figures {
        println!("wrote {path} ({} bytes)", bytes.len());
    }
    println!();
}

/// Append the outcome's records to `dir/experiments.jsonl` and write
/// its figure files under `dir`.
fn write_artifacts(dir: &Path, outcome: &Outcome) -> std::io::Result<()> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("experiments.jsonl"))?
        .write_all(outcome.jsonl().as_bytes())?;
    for (path, bytes) in &outcome.figures {
        let file = dir.join(path);
        if let Some(parent) = file.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(file, bytes)?;
    }
    Ok(())
}

fn main() {
    let (runner, command) = match parse(std::env::args().skip(1).collect()) {
        Ok(parsed) => parsed,
        Err(problem) => {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            eprintln!("error: {problem}");
            eprintln!("{USAGE}");
            eprintln!("experiment IDs: {}", ids.join(" "));
            std::process::exit(2);
        }
    };
    match command {
        Command::List => {
            for e in EXPERIMENTS {
                println!("{:<14}{}", e.id, e.about);
            }
        }
        Command::Run(rows) => {
            for e in rows {
                let outcome = (e.run)(&runner);
                write_artifacts(Path::new("."), &outcome).expect("write experiment artifacts");
                report(e, &outcome);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<(Runner, Command), String> {
        parse(line.split_whitespace().map(String::from).collect())
    }

    fn ids(line: &str) -> Vec<&'static str> {
        match parse_line(line) {
            Ok((_, Command::Run(rows))) => rows.iter().map(|e| e.id).collect(),
            other => panic!("{line:?} should select rows, got {other:?}"),
        }
    }

    #[test]
    fn known_ids_select_rows_once_in_table_order() {
        assert_eq!(ids("run FIG1"), ["FIG1"]);
        assert_eq!(ids("run ext-dvfs"), ["EXT-DVFS"]);
        assert_eq!(
            ids("run EXT-FAULT fig2 FIG2 FIG1"),
            ["FIG1", "FIG2", "EXT-FAULT"]
        );
        let (runner, _) = parse_line("--threads 2 run FIG1 --sequential").expect("valid");
        assert_eq!(runner.threads(), 1);
        let (runner, _) = parse_line("run FIG1 --threads 3").expect("valid");
        assert_eq!(runner.threads(), 3);
    }

    #[test]
    fn all_selects_the_whole_table() {
        let want: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids("run all"), want);
        assert_eq!(ids("run FIG2 ALL"), want);
        assert!(matches!(parse_line("list"), Ok((_, Command::List))));
    }

    #[test]
    fn bad_command_lines_name_the_problem() {
        let err = |line: &str| parse_line(line).expect_err(line);
        assert_eq!(err("run NOPE"), "unknown experiment `NOPE`");
        assert_eq!(err("run FIG1 --thread 2"), "unknown option `--thread`");
        assert_eq!(err("run --bogus FIG1"), "unknown option `--bogus`");
        assert_eq!(err("run FIG1 --threads"), "--threads requires a value");
        assert_eq!(
            err("run FIG1 --threads many"),
            "--threads expects a positive integer, got `many`"
        );
        assert!(err("run --threads 0 FIG1").contains("positive integer"));
        assert_eq!(err(""), "no command");
        assert_eq!(err("--sequential"), "no command");
        assert_eq!(
            err("run"),
            "`run` needs at least one experiment ID or `all`"
        );
        assert_eq!(err("FIG1"), "unknown command `FIG1`");
        assert_eq!(err("list FIG1"), "unexpected argument `FIG1`");
    }

    /// `export_figures` used to emit one bar per FIG2 record it found, so
    /// a second FIG2 run in the same directory produced a 4-bar figure.
    #[test]
    fn fig2_twice_in_one_directory_still_draws_two_bars() {
        let dir = std::env::temp_dir().join(format!("grail_bench_fig2_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let fig2 = EXPERIMENTS.iter().find(|e| e.id == "FIG2").unwrap();
        for _ in 0..2 {
            write_artifacts(&dir, &(fig2.run)(&Runner::sequential())).unwrap();
        }
        let bars = fs::read_to_string(dir.join("figures/fig2_bars.csv")).unwrap();
        let lines: Vec<&str> = bars.lines().collect();
        assert_eq!(lines.len(), 3, "{bars}");
        assert_eq!(lines[0], "config,total_s,cpu_s,energy_j");
        assert!(lines[1].starts_with("uncompressed,") && lines[2].starts_with("compressed,"));
        // The record file is append-only: both runs are on it.
        let jsonl = fs::read_to_string(dir.join("experiments.jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.lines().all(|l| l.contains("\"experiment\":\"FIG2\"")));
        let _ = fs::remove_dir_all(&dir);
    }
}
