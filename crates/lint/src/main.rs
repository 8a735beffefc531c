//! The `grail-lint` binary: lint the workspace, print rustc-style
//! diagnostics (or a SARIF 2.1.0 log), exit nonzero on any violation.
//!
//! Usage: `grail-lint [OPTIONS] [WORKSPACE_ROOT]` (root defaults to the
//! current directory, or the workspace root when run via
//! `cargo run -p grail-lint`).
//!
//! * `--format text|sarif` — output format (default `text`). SARIF
//!   goes to stdout so it can be redirected into an artifact.
//! * `--threads N` / `--sequential` — fan the per-file stage across N
//!   threads; output is byte-identical at any thread count.
//! * `--fix` — apply machine-applicable fixes in place (today: delete
//!   dead `allow` pragmas flagged by `stale-pragma`), then re-lint and
//!   report what remains.
//! * `--list-rules` — print the rule table and exit.
//!
//! Any other argument starting with `--` is a usage error.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Apply every machine-applicable fix implied by `diags` to the files
/// under `root`, returning how many pragmas were removed.
fn apply_fixes(root: &Path, diags: &[grail_lint::Diagnostic]) -> Result<usize, String> {
    let mut by_file: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for d in diags {
        if d.rule == grail_lint::rules::STALE_PRAGMA {
            by_file.entry(&d.file).or_default().insert(d.line);
        }
    }
    let mut removed = 0usize;
    for (rel, lines) in &by_file {
        let path = root.join(rel.replace('/', std::path::MAIN_SEPARATOR_STR));
        let source =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        if let Some(fixed) = grail_lint::fix::remove_stale_pragmas(&source, lines) {
            fs::write(&path, fixed).map_err(|e| format!("write {}: {e}", path.display()))?;
            removed += lines.len();
        }
    }
    Ok(removed)
}

const USAGE: &str = "usage: grail-lint [--format text|sarif] [--threads N | --sequential] \
                     [--fix] [--list-rules] [WORKSPACE_ROOT]";

/// What the command line asked for.
#[derive(Debug, PartialEq, Eq)]
struct Cli {
    runner: grail_par::Runner,
    sarif: bool,
    fix: bool,
    list_rules: bool,
    root: Option<PathBuf>,
}

fn is_sarif(format: &str) -> Result<bool, String> {
    match format {
        "text" => Ok(false),
        "sarif" => Ok(true),
        f => Err(format!("unknown format `{f}` (expected text|sarif)")),
    }
}

/// Parse the arguments after the program name. Anything starting with
/// `--` that is not a known flag is an error, so a stale invocation
/// fails instead of linting a directory named after the flag.
fn parse_args(mut args: Vec<String>) -> Result<Cli, String> {
    let runner = grail_par::Runner::from_cli_args(&mut args);
    let mut cli = Cli {
        runner,
        sarif: false,
        fix: false,
        list_rules: false,
        root: None,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--format" {
            cli.sarif = is_sarif(&it.next().ok_or("--format requires a value")?)?;
        } else if let Some(f) = a.strip_prefix("--format=") {
            cli.sarif = is_sarif(f)?;
        } else if a == "--fix" {
            cli.fix = true;
        } else if a == "--list-rules" {
            cli.list_rules = true;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag `{a}`"));
        } else if cli.root.is_some() {
            return Err(format!("unexpected argument `{a}`"));
        } else {
            cli.root = Some(PathBuf::from(a));
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_args(env::args().skip(1).collect()) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("grail-lint: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if cli.list_rules {
        for rule in grail_lint::rules::RULES {
            println!("{:<20} {}", rule.id, rule.summary);
        }
        return ExitCode::SUCCESS;
    }
    let root = match cli.root {
        Some(p) => p,
        // Under `cargo run` the manifest dir is crates/lint; walk up to
        // the workspace root. Outside cargo, lint the cwd.
        None => match env::var("CARGO_MANIFEST_DIR") {
            Ok(dir) => PathBuf::from(dir)
                .ancestors()
                .nth(2)
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from(".")),
            Err(_) => PathBuf::from("."),
        },
    };
    let lint = |root: &PathBuf| -> Result<Vec<grail_lint::Diagnostic>, ExitCode> {
        grail_lint::check_workspace_threads(root, cli.runner.threads()).map_err(|e| {
            eprintln!("grail-lint: cannot walk {}: {e}", root.display());
            ExitCode::FAILURE
        })
    };
    let mut diags = match lint(&root) {
        Ok(diags) => diags,
        Err(code) => return code,
    };
    if cli.fix {
        match apply_fixes(&root, &diags) {
            Ok(0) => {}
            Ok(n) => {
                eprintln!("grail-lint: --fix removed {n} stale pragma(s)");
                // Re-lint so the report (and the exit status) reflect
                // the repaired tree, not the one we just rewrote.
                diags = match lint(&root) {
                    Ok(diags) => diags,
                    Err(code) => return code,
                };
            }
            Err(e) => {
                eprintln!("grail-lint: --fix failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if cli.sarif {
        print!("{}", grail_lint::sarif::to_sarif(&diags));
        return if diags.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if diags.is_empty() {
        println!(
            "grail-lint: workspace clean ({} rules)",
            grail_lint::rules::RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        for d in &diags {
            eprintln!("{d}");
        }
        eprintln!("grail-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn known_flags_in_both_value_forms() {
        let cli = parse(&["--format", "sarif", "--threads", "8", "--fix", "ws"]).unwrap();
        assert_eq!(
            cli,
            Cli {
                runner: grail_par::Runner::with_threads(8),
                sarif: true,
                fix: true,
                list_rules: false,
                root: Some(PathBuf::from("ws")),
            }
        );
        let cli = parse(&["--format=sarif", "--sequential", "--list-rules"]).unwrap();
        assert!(cli.sarif && cli.list_rules && cli.runner.is_sequential());
        assert_eq!(cli.root, None);
        assert!(!parse(&["--format=text"]).unwrap().sarif);
        assert_eq!(parse(&[]).unwrap().runner, grail_par::Runner::available());
    }

    #[test]
    fn unknown_flags_are_errors_wherever_they_stand() {
        for flag in ["--cache-dir", "--par-report", "--bench-json"] {
            for args in [vec![flag, "x", "."], vec![".", flag, "x"]] {
                let err = parse(&args).unwrap_err();
                assert!(err.contains(flag), "{err}");
            }
            let err = parse(&[&format!("{flag}=x"), "."]).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn missing_and_bad_values_are_errors() {
        assert!(parse(&["--format"]).unwrap_err().contains("--format"));
        assert!(parse(&["--format", "xml"]).unwrap_err().contains("`xml`"));
        assert!(parse(&["a", "b"]).unwrap_err().contains("`b`"));
    }
}
