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
//! * `--list-rules` — print the rule table and exit.
//!
//! Any other argument starting with `--` is a usage error, and so is a
//! root with no audited Rust sources under it (an empty directory, or
//! `crates/` instead of the workspace root): a gate that looked at
//! nothing must not report "clean".

#![forbid(unsafe_code)]

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: grail-lint [--format text|sarif] [--threads N | --sequential] \
                     [--list-rules] [WORKSPACE_ROOT]";

/// What the command line asked for.
#[derive(Debug, PartialEq, Eq)]
struct Cli {
    runner: grail_par::Runner,
    sarif: bool,
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
    let runner = grail_par::Runner::from_cli_args(&mut args)?;
    let mut cli = Cli {
        runner,
        sarif: false,
        list_rules: false,
        root: None,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--format" {
            cli.sarif = is_sarif(&it.next().ok_or("--format requires a value")?)?;
        } else if let Some(f) = a.strip_prefix("--format=") {
            cli.sarif = is_sarif(f)?;
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

/// Lint the workspace under `root`. A root the walk finds no audited
/// source under is an error: the caller pointed the gate at the wrong
/// directory, and "zero files, zero violations" would pass vacuously.
fn lint(root: &Path, threads: usize) -> Result<Vec<grail_lint::Diagnostic>, String> {
    let (files, manifests) = grail_lint::workspace_sources(root)
        .map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
    if files.is_empty() {
        return Err(format!(
            "no audited Rust sources under {} (expected the workspace root: \
             src/, tests/, examples/ or crates/<name>/src/)",
            root.display()
        ));
    }
    Ok(grail_lint::analyze(&files, &manifests, threads))
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
    let diags = match lint(&root, cli.runner.threads()) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("grail-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
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
        let cli = parse(&["--format", "sarif", "--threads", "8", "ws"]).unwrap();
        assert_eq!(
            cli,
            Cli {
                runner: grail_par::Runner::with_threads(8),
                sarif: true,
                list_rules: false,
                root: Some(PathBuf::from("ws")),
            }
        );
        let cli = parse(&["--format=sarif", "--sequential", "--list-rules"]).unwrap();
        assert!(cli.sarif && cli.list_rules && cli.runner.threads() == 1);
        assert_eq!(cli.root, None);
        assert!(!parse(&["--format=text"]).unwrap().sarif);
        assert_eq!(parse(&[]).unwrap().runner, grail_par::Runner::available());
    }

    #[test]
    fn unknown_flags_are_errors_wherever_they_stand() {
        for flag in ["--cache-dir", "--par-report", "--bench-json", "--fix"] {
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
        assert!(parse(&[".", "--threads"])
            .unwrap_err()
            .contains("--threads"));
        for bad in ["many", "0"] {
            let err = parse(&["--threads", bad, "."]).unwrap_err();
            assert!(err.contains("positive integer"), "{err}");
        }
    }

    #[test]
    fn a_root_with_no_audited_sources_is_an_error_not_a_clean_pass() {
        let dir = env::temp_dir().join(format!("grail-lint-empty-{}", std::process::id()));
        // `crates/` handed over instead of the workspace root: the file
        // exists, but no audited path starts at `sim/`.
        std::fs::create_dir_all(dir.join("sim/src")).unwrap();
        std::fs::write(dir.join("sim/src/lib.rs"), "pub fn f() {}\n").unwrap();
        let err = lint(&dir, 1).unwrap_err();
        assert!(err.contains("no audited Rust sources"), "{err}");
        assert!(err.contains(&dir.display().to_string()), "{err}");
        // The same file one level down is audited and lints.
        std::fs::create_dir_all(dir.join("crates")).unwrap();
        std::fs::rename(dir.join("sim"), dir.join("crates/sim")).unwrap();
        let rules: Vec<&str> = lint(&dir, 1).unwrap().iter().map(|d| d.rule).collect();
        assert_eq!(rules, ["unsafe-forbid"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
