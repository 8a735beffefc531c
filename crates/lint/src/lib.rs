//! `grail-lint` — the GRAIL workspace invariant checker.
//!
//! A static-analysis pass that audits the source tree for the
//! properties the energy-accounting results depend on: deterministic
//! replay (no wall clock, no hash-order iteration), ledger conservation
//! (all energy movement through the audited `EnergyLedger` API), error
//! hygiene (no panicking escape hatches in simulator library code), and
//! float hygiene (no `==` on raw energy/time `f64`s).
//!
//! The engine runs in two stages:
//!
//! 1. **Per-file** (parallelized through `grail_par::Runner`, whose
//!    index-ordered merge keeps `--threads N` output byte-identical to
//!    a sequential run): each file is scanned ([`scan`]), its item
//!    skeleton and outgoing calls extracted ([`graph`]), and the token
//!    rules produce *raw* diagnostics.
//! 2. **Workspace**: the per-file skeletons assemble into a
//!    [`graph::WorkspaceGraph`], over which the semantic rules run —
//!    charge-reachability, ledger-flow and model-coverage — and the
//!    manifests are checked for layering ([`rules`]). Only then are
//!    pragma suppressions applied, so [`rules::stale_pragmas`] can tell
//!    which pragmas actually earn their keep against the full raw set.
//!
//! A rule lives here only if it can fire on code rustc accepts and no
//! simpler rule already reports the same defect at its source. Units
//! and ledger privacy are the type system's job (`grail_power::units`,
//! `grail_power::ledger`); a host-clock read is reported where it is
//! written, not at the call sites that reach it.
//!
//! The crate deliberately depends on nothing outside the workspace (and
//! only on the std-only `grail-par` inside it): it must build
//! instantly, run first in CI, and never be hostage to the crates it
//! audits. Rules operate on *stripped* source (comments and string
//! contents blanked by [`scan`]), so prose and fixtures cannot trigger
//! them, and every suppressible rule can be silenced locally with a
//! `// grail-lint: allow(rule-id, reason)` pragma — the reason is
//! mandatory and its absence is itself an error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod graph;
pub mod rules;
pub mod sarif;
pub mod scan;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding, rendered rustc-style:
/// `file:line: error[rule-id]: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based start column of the offending token (0 = unknown — the
    /// rule reasons about a whole line or a cross-file property).
    pub col: usize,
    /// 1-based exclusive end column (0 = unknown).
    pub end_col: usize,
    /// Stable rule id (see [`rules::RULES`]).
    pub rule: &'static str,
    /// Human explanation and suggested fix.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic with no column information.
    pub fn new(
        file: impl Into<String>,
        line: usize,
        rule: &'static str,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            file: file.into(),
            line,
            col: 0,
            end_col: 0,
            rule,
            message: message.into(),
        }
    }

    /// Attach a 1-based `[col, end_col)` span (columns are offsets into
    /// the stripped line, which the column-preserving scanner keeps
    /// identical to the original).
    pub fn with_span(mut self, col: usize, end_col: usize) -> Self {
        self.col = col;
        self.end_col = end_col;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// How a file participates in the workspace, which decides rule scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Ships in a library or binary target (`src/`).
    Library,
    /// Integration tests, benches, examples — looser rules.
    TestLike,
}

/// A file's identity as seen by the rules.
#[derive(Debug, Clone)]
pub struct FileInfo<'a> {
    /// Workspace-relative path, `/`-separated.
    pub rel: &'a str,
    /// Owning crate name (directory under `crates/`, or `grail` for the
    /// workspace-root package).
    pub crate_name: &'a str,
    /// Library or test-like.
    pub kind: FileKind,
}

/// Classify a workspace-relative path into crate name and kind.
/// Returns `None` for files the linter does not audit.
pub fn classify(rel: &str) -> Option<(String, FileKind)> {
    if !rel.ends_with(".rs") {
        return None;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, sub) = match parts.as_slice() {
        ["crates", name, rest @ ..] if !rest.is_empty() => (*name, rest),
        rest if !rest.is_empty() => ("grail", rest),
        _ => return None,
    };
    let kind = match sub.first() {
        Some(&"src") => FileKind::Library,
        Some(&"tests") | Some(&"benches") | Some(&"examples") => FileKind::TestLike,
        _ => return None,
    };
    Some((crate_name.to_string(), kind))
}

/// True for files that compile into a binary target — a `src/main.rs`.
/// A binary owns stdout, and library code cannot call into it.
pub(crate) fn is_binary_target(rel: &str) -> bool {
    rel == "src/main.rs" || rel.ends_with("/src/main.rs")
}

/// An in-memory source file handed to the engine.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Full source text.
    pub source: String,
}

/// An in-memory `Cargo.toml` handed to the layering rule.
#[derive(Debug, Clone)]
pub struct ManifestFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Full manifest text.
    pub source: String,
}

/// Everything the workspace stage needs from one analyzed file.
struct FileAnalysis {
    rel: String,
    scanned: scan::ScannedFile,
    graph: graph::FileGraph,
    raw: Vec<Diagnostic>,
}

fn analyze_file(file: &SourceFile) -> Option<FileAnalysis> {
    let (crate_name, kind) = classify(&file.rel)?;
    let info = FileInfo {
        rel: &file.rel,
        crate_name: &crate_name,
        kind,
    };
    let scanned = scan::scan(&file.source);
    let graph = graph::extract(&info, &scanned);
    let raw = rules::check_tokens(&info, &scanned);
    Some(FileAnalysis {
        rel: file.rel.clone(),
        scanned,
        graph,
        raw,
    })
}

/// The full engine over in-memory sources and manifests.
///
/// Stage 1 fans the per-file work across `threads` via
/// `grail_par::Runner` (1 = sequential); stage 2 builds the workspace
/// graph and runs the semantic rules; then suppression, pragma hygiene,
/// stale-pragma detection, and a final sort + dedup that makes the
/// output byte-stable regardless of input order or thread count.
pub fn analyze(
    files: &[SourceFile],
    manifests: &[ManifestFile],
    threads: usize,
) -> Vec<Diagnostic> {
    let analyses = stage1(files, threads);
    stage2(&analyses, manifests)
}

/// Stage 1: fan the per-file analysis across `threads`. Results come
/// back in stable `rel` order.
fn stage1(files: &[SourceFile], threads: usize) -> Vec<FileAnalysis> {
    let runner = if threads <= 1 {
        grail_par::Runner::sequential()
    } else {
        grail_par::Runner::with_threads(threads)
    };
    let mut analyses: Vec<FileAnalysis> = runner
        .run(files, |_, f| analyze_file(f))
        .into_iter()
        .flatten()
        .collect();
    analyses.sort_by(|a, b| a.rel.cmp(&b.rel));
    analyses
}

/// Stage 2: workspace-level rules over the assembled graph, then
/// suppression and the canonical sort + dedup.
fn stage2(analyses: &[FileAnalysis], manifests: &[ManifestFile]) -> Vec<Diagnostic> {
    let wg = graph::WorkspaceGraph::build(analyses.iter().map(|a| a.graph.clone()).collect());
    let scanned_by_rel: BTreeMap<String, &scan::ScannedFile> = analyses
        .iter()
        .map(|a| (a.rel.clone(), &a.scanned))
        .collect();

    // The raw set: token + semantic diagnostics, before suppression.
    // Stale-pragma detection judges pragmas against this set — a pragma
    // earns its keep by matching a raw diagnostic, suppressed or not.
    let mut raw: Vec<Diagnostic> = analyses
        .iter()
        .flat_map(|a| a.raw.iter().cloned())
        .collect();
    raw.extend(rules::charge_reachability(&wg));
    raw.extend(rules::ledger_flow(&wg));
    raw.extend(rules::model_coverage(&wg, &scanned_by_rel));
    for m in manifests {
        raw.extend(rules::layering_manifest(&m.rel, &m.source));
    }

    let mut out: Vec<Diagnostic> = raw
        .iter()
        .filter(|d| match scanned_by_rel.get(&d.file) {
            Some(f) => !rules::suppressed(d, f),
            None => true, // manifests carry no pragmas
        })
        .cloned()
        .collect();
    for a in analyses {
        out.extend(rules::pragma_hygiene(&a.rel, &a.scanned));
        out.extend(rules::stale_pragmas(&a.rel, &a.scanned, &raw));
    }
    out.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
            .then(a.message.cmp(&b.message))
    });
    out.dedup();
    out
}

/// Lint a set of in-memory sources sequentially (no manifests).
pub fn check_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    analyze(files, &[], 1)
}

/// Lint a set of in-memory sources across `threads` (no manifests).
pub fn check_files_threads(files: &[SourceFile], threads: usize) -> Vec<Diagnostic> {
    analyze(files, &[], threads)
}

/// Lint one file's source text under its workspace-relative path.
pub fn check_source(rel: &str, source: &str) -> Vec<Diagnostic> {
    check_files(&[SourceFile {
        rel: rel.to_string(),
        source: source.to_string(),
    }])
}

/// Lint every audited `.rs` file (and `Cargo.toml` manifest) under the
/// workspace `root`, sequentially.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    check_workspace_threads(root, 1)
}

/// Lint the workspace under `root`, fanning stage 1 across `threads`.
///
/// The walk is sorted and skips `target/`, `.git/`, other hidden
/// directories, and `tests/fixtures/` corpora (which hold deliberate
/// violations), so output order is stable across runs and machines.
pub fn check_workspace_threads(root: &Path, threads: usize) -> io::Result<Vec<Diagnostic>> {
    let (files, manifests) = workspace_sources(root)?;
    Ok(analyze(&files, &manifests, threads))
}

/// Read every audited source file and manifest under `root` — the same
/// set [`check_workspace_threads`] lints — for callers that want to
/// inspect the workspace through the engine's eyes.
pub fn workspace_sources(root: &Path) -> io::Result<(Vec<SourceFile>, Vec<ManifestFile>)> {
    let mut rels = Vec::new();
    collect_rs_files(root, root, &mut rels)?;
    rels.sort();
    let mut files = Vec::new();
    for rel in &rels {
        let source =
            fs::read_to_string(root.join(rel.replace('/', std::path::MAIN_SEPARATOR_STR)))?;
        files.push(SourceFile {
            rel: rel.clone(),
            source,
        });
    }
    Ok((files, collect_manifests(root)?))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let dir_name = dir
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default()
        .to_string();
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            // Fixture corpora under tests/ hold deliberate violations.
            if name == "fixtures" && dir_name == "tests" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel: String = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                if classify(&rel).is_some() {
                    out.push(rel);
                }
            }
        }
    }
    Ok(())
}

/// The root manifest plus every `crates/*/Cargo.toml`, sorted.
fn collect_manifests(root: &Path) -> io::Result<Vec<ManifestFile>> {
    let mut out = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        out.push(ManifestFile {
            rel: "Cargo.toml".to_string(),
            source: fs::read_to_string(&root_manifest)?,
        });
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let manifest = path.join("Cargo.toml");
            if manifest.is_file() {
                let name = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or_default();
                out.push(ManifestFile {
                    rel: format!("crates/{name}/Cargo.toml"),
                    source: fs::read_to_string(&manifest)?,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_paths_to_crates_and_kinds() {
        assert_eq!(
            classify("crates/sim/src/cpu.rs"),
            Some(("sim".to_string(), FileKind::Library))
        );
        assert_eq!(
            classify("crates/power/tests/properties.rs"),
            Some(("power".to_string(), FileKind::TestLike))
        );
        assert_eq!(
            classify("crates/bench/benches/scan.rs"),
            Some(("bench".to_string(), FileKind::TestLike))
        );
        assert_eq!(
            classify("src/lib.rs"),
            Some(("grail".to_string(), FileKind::Library))
        );
        assert_eq!(classify("crates/sim/Cargo.toml"), None);
        assert_eq!(classify("README.md"), None);
    }

    #[test]
    fn diagnostic_renders_rustc_style() {
        let d = Diagnostic::new("crates/sim/src/cpu.rs", 42, "error-hygiene", "no");
        assert_eq!(
            d.to_string(),
            "crates/sim/src/cpu.rs:42: error[error-hygiene]: no"
        );
        // Columns ride along without changing the rendered form.
        let spanned = d.clone().with_span(5, 12);
        assert_eq!(spanned.to_string(), d.to_string());
        assert_eq!((spanned.col, spanned.end_col), (5, 12));
    }

    #[test]
    fn output_is_identical_across_thread_counts_and_input_order() {
        let a = SourceFile {
            rel: "crates/sim/src/a.rs".to_string(),
            source: "fn f() { let t = SystemTime::now(); }\n".to_string(),
        };
        let b = SourceFile {
            rel: "crates/buffer/src/b.rs".to_string(),
            source: "use std::collections::HashMap;\n".to_string(),
        };
        let fwd = [a.clone(), b.clone()];
        let rev = [b, a];
        let seq = check_files(&fwd);
        assert!(!seq.is_empty());
        assert_eq!(seq, check_files_threads(&fwd, 8));
        assert_eq!(seq, check_files(&rev));
        assert_eq!(seq, check_files_threads(&rev, 3));
    }

    #[test]
    fn duplicate_diagnostics_are_deduped() {
        // The same file supplied twice must not double-report.
        let f = SourceFile {
            rel: "crates/sim/src/a.rs".to_string(),
            source: "fn f() { let t = SystemTime::now(); }\n".to_string(),
        };
        let once = check_files(std::slice::from_ref(&f));
        let twice = check_files(&[f.clone(), f]);
        assert_eq!(once, twice);
    }
}
