//! `grail-check` — exhaustively model-check the workspace protocols.
//!
//! ```text
//! grail-check                      # check every registered model
//! grail-check --list               # list models and the functions they drive
//! grail-check --model NAME        # check one model (incl. the broken control)
//! grail-check --max-states N      # state budget (default: the CI budget)
//! grail-check --out-dir DIR       # write counterexample artifacts
//! grail-check --threads N | --sequential
//! ```
//!
//! Exit status: 0 when every checked model reaches fixpoint clean,
//! 1 on any violation or budget exhaustion, 2 on usage errors.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the checker owns the console: it prints verdicts, usage and errors"
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use grail_check::registry::{find, REGISTRY};
use grail_check::{Budget, Report};
use grail_par::Runner;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    list: bool,
    model: Option<String>,
    budget: Budget,
    out_dir: Option<PathBuf>,
    runner: Runner,
}

fn usage() -> &'static str {
    "usage: grail-check [--list] [--model NAME] [--max-states N] [--out-dir DIR]\n\
     \x20                  [--threads N | --sequential]"
}

fn parse(mut args: Vec<String>) -> Result<Options, String> {
    let runner = Runner::from_cli_args(&mut args)?;
    let mut opts = Options {
        list: false,
        model: None,
        budget: Budget::default(),
        out_dir: None,
        runner,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => opts.list = true,
            "--model" => {
                opts.model = Some(it.next().ok_or("--model needs a name")?);
            }
            "--max-states" => {
                let v = it.next().ok_or("--max-states needs a number")?;
                opts.budget.max_states = v.parse().map_err(|_| format!("bad --max-states {v}"))?;
            }
            "--out-dir" => {
                opts.out_dir = Some(PathBuf::from(it.next().ok_or("--out-dir needs a path")?));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// Write counterexample artifacts for a failed report; best-effort but
/// loud about IO problems.
fn write_artifacts(dir: &Path, report: &Report) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    if let Some(jsonl) = &report.jsonl {
        let path = dir.join(format!("{}.cx.jsonl", report.model));
        std::fs::write(&path, jsonl).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if let Some(diag) = &report.diagnostic {
        let path = dir.join(format!("{}.diagnostic.txt", report.model));
        std::fs::write(&path, diag).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1).collect()) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("grail-check: {msg}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if opts.list {
        for entry in REGISTRY {
            println!("{:<20} {}", entry.name, entry.about);
        }
        println!(
            "{:<20} {}",
            grail_check::registry::BROKEN.name,
            grail_check::registry::BROKEN.about
        );
        return ExitCode::SUCCESS;
    }

    let reports: Vec<Report> = match &opts.model {
        Some(name) => match find(name) {
            Some(entry) => vec![(entry.run)(opts.budget)],
            None => {
                eprintln!("grail-check: no model named `{name}` (try --list)");
                return ExitCode::from(2);
            }
        },
        None => grail_check::registry::run_all(opts.budget, &opts.runner),
    };

    let mut failed = false;
    for report in &reports {
        println!("{:<20} {}", report.model, report.line);
        if !report.passed {
            failed = true;
            if let Some(diag) = &report.diagnostic {
                print!("{diag}");
            }
            if let Some(dir) = &opts.out_dir {
                if let Err(e) = write_artifacts(dir, report) {
                    eprintln!("grail-check: {e}");
                }
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<Options, String> {
        parse(words.iter().map(|w| w.to_string()).collect())
    }

    #[test]
    fn bad_command_lines_name_the_problem() {
        for (words, problem) in [
            (&["--max-depth", "1"][..], "unknown argument --max-depth"),
            (
                &["--model", "x", "--max-states"],
                "--max-states needs a number",
            ),
            (&["--max-states", "many"], "bad --max-states many"),
            (&["--list", "--model"], "--model needs a name"),
        ] {
            match parse_words(words) {
                Err(msg) => assert_eq!(msg, problem, "{words:?}"),
                Ok(_) => panic!("{words:?} parsed"),
            }
        }
        let opts = parse_words(&["--model", "x", "--max-states", "8"]).expect("valid");
        assert_eq!(opts.model.as_deref(), Some("x"));
        assert_eq!(opts.budget.max_states, 8);
    }
}
