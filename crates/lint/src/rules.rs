//! The rule engine: every GRAIL workspace invariant, as a textual check
//! over stripped source.
//!
//! Each rule protects one of the guarantees the energy-accounting
//! argument rests on (see `DESIGN.md` § Invariants):
//!
//! * [`WALL_CLOCK`] — deterministic replay: no audited file may read
//!   the host clock. Every library, binary, test, bench and example
//!   file is in scope, so a clock read is reported at its source line
//!   no matter how many calls separate it from simulated state. Host
//!   time is measured by `perf/` alone.
//! * [`HASH_ORDER`] — deterministic reports: no `HashMap`/`HashSet` in
//!   library code, since their iteration order can leak into ledgers,
//!   `EnergyReport`s and `experiments.jsonl`.
//! * [`LEDGER_MUT`] — conservation: `EnergyLedger`'s accounting fields
//!   stay private, which is what lets rustc reject every other way of
//!   moving a total (struct literals, foreign impls touching the
//!   fields, negative `Joules`).
//! * [`ERROR_HYGIENE`] — no panicking escape hatches in simulator-facing
//!   library code; failures route through `SimError`.
//! * [`FLOAT_EQ`] — no `==`/`!=` on raw energy/time floats; replay
//!   equality is asserted on whole values or bit patterns, tolerance
//!   comparisons elsewhere.
//! * [`PRINT_HYGIENE`] — no `println!`/`eprintln!`/`print!`/`eprint!`/
//!   `dbg!` in library crates;
//!   diagnostics flow through `grail-trace` events or returned errors,
//!   and only binary targets own stdout.
//! * [`THREAD_CONFINE`] — threads and locks live only in `grail-par`;
//!   everywhere else, parallelism goes through `grail_par::Runner`,
//!   whose index-ordered merge is what keeps fan-out byte-identical
//!   to sequential runs (not suppressible).
//! * [`UNSAFE_FORBID`] — every library crate root carries
//!   `#![forbid(unsafe_code)]`.
//! * [`PRAGMA`] — suppression pragmas themselves must be well-formed and
//!   carry a reason (not suppressible).
//! * [`METRIC_HYGIENE`] — metric names handed to the recording API
//!   (`count`/`observe`/`gauge`/`rate`) are string literals registered
//!   in `grail_metrics::spec::CATALOG`, and each catalog entry is
//!   declared exactly once. Runtime-built names (`format!`, locals)
//!   would defeat the static registry that keeps exports byte-stable.
//!
//! Beside the per-file token rules:
//!
//! * [`LAYERING`] — crate dependencies must follow the [`LAYERS`]
//!   order from DESIGN.md §7; a back-edge (or a sideways edge inside a
//!   layer) is an architecture regression. Checked on the manifests
//!   alone: a `grail_x::` path compiles only if `[dependencies]` lists
//!   `grail-x`.
//! * [`STALE_PRAGMA`] — an `allow` pragma that suppresses zero raw
//!   diagnostics is dead weight that will silently mask the next real
//!   violation on its line; deleting it is always safe, so keeping it
//!   is an error (not suppressible).
//!
//! There is no dimensional rule: `grail_power::units` implements only
//! the legal products and `EnergyLedger` takes typed arguments, so
//! rustc is the unit checker (DESIGN §7.3). There is no call-graph
//! rule either: "no simulated work is free" is asserted by running the
//! work (DESIGN §7.1).

use crate::scan::{is_ident_char, PragmaScope, ScannedFile};
use crate::{is_binary_target, Diagnostic, FileInfo, FileKind};
use std::collections::BTreeMap;

/// Determinism: no wall-clock reads in any audited file.
pub const WALL_CLOCK: &str = "wall-clock";
/// Determinism: no hash-ordered collections in library code.
pub const HASH_ORDER: &str = "hash-order";
/// Conservation: the ledger's accounting fields stay private.
pub const LEDGER_MUT: &str = "ledger-mut";
/// No `unwrap`/`expect`/`panic!` in simulator-facing library code.
pub const ERROR_HYGIENE: &str = "error-hygiene";
/// No float equality on energy/time quantities.
pub const FLOAT_EQ: &str = "float-eq";
/// No console printing from library code; use grail-trace or errors.
pub const PRINT_HYGIENE: &str = "print-hygiene";
/// Threads and locks are confined to grail-par; use its Runner.
pub const THREAD_CONFINE: &str = "thread-confine";
/// Library crate roots must forbid `unsafe`.
pub const UNSAFE_FORBID: &str = "unsafe-forbid";
/// Pragma hygiene (malformed or unknown suppressions).
pub const PRAGMA: &str = "pragma";
/// Architecture: crate dependencies follow the layer order, no back-edges.
pub const LAYERING: &str = "layering";
/// An allow pragma that suppresses nothing is itself an error.
pub const STALE_PRAGMA: &str = "stale-pragma";
/// Metric names are static literals from the grail-metrics catalog,
/// registered exactly once.
pub const METRIC_HYGIENE: &str = "metric-hygiene";

/// A rule's identity and one-line summary.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id used in diagnostics and pragmas.
    pub id: &'static str,
    /// What the rule protects.
    pub summary: &'static str,
}

/// Every shipped rule.
pub const RULES: &[Rule] = &[
    Rule {
        id: WALL_CLOCK,
        summary: "no host clock in any audited file (replay determinism)",
    },
    Rule {
        id: HASH_ORDER,
        summary: "no HashMap/HashSet in library code; use BTreeMap/BTreeSet or sorted iteration",
    },
    Rule {
        id: LEDGER_MUT,
        summary: "EnergyLedger accounting fields in power/src/ledger.rs stay private",
    },
    Rule {
        id: ERROR_HYGIENE,
        summary: "no unwrap/expect/panic in sim, power, core, scheduler library code; use SimError",
    },
    Rule {
        id: FLOAT_EQ,
        summary: "no ==/!= on raw energy/time floats (.joules(), .as_secs_f64(), ...)",
    },
    Rule {
        id: PRINT_HYGIENE,
        summary: "no println!/eprintln!/print!/eprint!/dbg! in library code outside tests; trace or return errors",
    },
    Rule {
        id: THREAD_CONFINE,
        summary: "no std::thread / Mutex / locks outside crates/par; fan out via grail_par::Runner",
    },
    Rule {
        id: UNSAFE_FORBID,
        summary: "library crate roots must carry #![forbid(unsafe_code)]",
    },
    Rule {
        id: PRAGMA,
        summary: "grail-lint pragmas must be well-formed and carry a reason (not suppressible)",
    },
    Rule {
        id: LAYERING,
        summary: "crate dependencies must follow the DESIGN layer order; back-edges are regressions",
    },
    Rule {
        id: STALE_PRAGMA,
        summary: "an allow pragma that suppresses zero diagnostics is dead and must be deleted (not suppressible)",
    },
    Rule {
        id: METRIC_HYGIENE,
        summary: "metric names are string literals from grail_metrics::spec::CATALOG, each registered exactly once",
    },
];

/// Rules whose diagnostics a pragma can never silence. Suppressing the
/// suppression machinery (or a report that a suppression is dead) would
/// let rot accumulate invisibly, and a waved-through lock or thread
/// outside `crates/par` is scheduling reaching observable state: move
/// it into `crates/par` instead.
pub const UNSUPPRESSABLE: &[&str] = &[PRAGMA, STALE_PRAGMA, THREAD_CONFINE];

/// Crates whose library code must route failures through `SimError`.
const ERROR_HYGIENE_CRATES: &[&str] = &["sim", "power", "core", "scheduler"];
/// The one file allowed to touch `EnergyLedger` internals.
const LEDGER_FILE: &str = "crates/power/src/ledger.rs";

/// Run every per-file token rule over one scanned file and return the
/// *raw* (unsuppressed) diagnostics. Suppression is applied later, at
/// workspace scope, so [`stale_pragmas`] can see which pragmas earned
/// their keep against the full raw set (token + manifest).
pub fn check_tokens(info: &FileInfo, f: &ScannedFile) -> Vec<Diagnostic> {
    let mut raw: Vec<Diagnostic> = Vec::new();
    wall_clock(info, f, &mut raw);
    hash_order(info, f, &mut raw);
    ledger_mut(info, f, &mut raw);
    error_hygiene(info, f, &mut raw);
    float_eq(info, f, &mut raw);
    print_hygiene(info, f, &mut raw);
    thread_confine(info, f, &mut raw);
    unsafe_forbid(info, f, &mut raw);
    metric_hygiene(info, f, &mut raw);
    metric_registration(info, f, &mut raw);
    raw
}

/// Does a pragma in `f` cover diagnostic `d`? Unsuppressable rules
/// never match, whatever the pragma says.
pub fn suppressed(d: &Diagnostic, f: &ScannedFile) -> bool {
    if UNSUPPRESSABLE.contains(&d.rule) {
        return false;
    }
    f.pragmas.iter().any(|p| {
        p.rule == d.rule
            && match p.scope {
                PragmaScope::File => true,
                PragmaScope::Line(l) => l == d.line,
            }
    })
}

/// Pragma hygiene: malformed pragmas (recorded by the scanner), pragmas
/// naming unknown rules, and pragmas trying to silence unsuppressable
/// rules. Not suppressible.
pub fn pragma_hygiene(rel: &str, f: &ScannedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for e in &f.pragma_errors {
        out.push(Diagnostic::new(rel, e.at, PRAGMA, e.message.clone()));
    }
    for p in &f.pragmas {
        if !RULES.iter().any(|r| r.id == p.rule) {
            out.push(Diagnostic::new(
                rel,
                p.at,
                PRAGMA,
                format!("pragma suppresses unknown rule `{}`", p.rule),
            ));
        } else if UNSUPPRESSABLE.contains(&p.rule.as_str()) {
            out.push(Diagnostic::new(
                rel,
                p.at,
                PRAGMA,
                format!("the `{}` rule cannot be suppressed", p.rule),
            ));
        }
    }
    out
}

/// Flag every well-formed, known-rule pragma in `f` that suppresses
/// zero diagnostics from the raw set. A pragma that earns nothing is a
/// trap: it documents a violation that no longer exists and will
/// silently swallow the next unrelated one on its line. Not
/// suppressible.
pub fn stale_pragmas(rel: &str, f: &ScannedFile, raw: &[Diagnostic]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for p in &f.pragmas {
        // Unknown-rule and unsuppressable-rule pragmas are already
        // errors under `pragma`; don't double-report them as stale.
        if !RULES.iter().any(|r| r.id == p.rule) || UNSUPPRESSABLE.contains(&p.rule.as_str()) {
            continue;
        }
        let covers = |line: usize| match p.scope {
            PragmaScope::File => true,
            PragmaScope::Line(l) => l == line,
        };
        let earns = raw
            .iter()
            .any(|d| d.file == rel && d.rule == p.rule && covers(d.line));
        if !earns {
            out.push(Diagnostic::new(
                rel,
                p.at,
                STALE_PRAGMA,
                format!(
                    "allow({}) suppresses zero diagnostics; delete the pragma (a dead \
                     suppression will silently mask the next real violation here)",
                    p.rule
                ),
            ));
        }
    }
    out
}

/// True when `pat` occurs in `line` on identifier boundaries: when the
/// pattern starts (ends) with an identifier character, the preceding
/// (following) character must not be one, so `Instant::now` does not
/// match inside `SimInstant::nowhere`.
fn has_token(line: &str, pat: &str) -> bool {
    !token_positions(line, pat).is_empty()
}

/// Byte offsets of every boundary-respecting occurrence of `pat`.
fn token_positions(line: &str, pat: &str) -> Vec<usize> {
    let first_ident = pat.chars().next().is_some_and(is_ident_char);
    let last_ident = pat.chars().last().is_some_and(is_ident_char);
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(off) = line[from..].find(pat) {
        let start = from + off;
        let end = start + pat.len();
        let pre_ok = !first_ident || !line[..start].chars().next_back().is_some_and(is_ident_char);
        let post_ok = !last_ident || !line[end..].chars().next().is_some_and(is_ident_char);
        if pre_ok && post_ok {
            out.push(start);
        }
        from = start + 1;
    }
    out
}

fn push(out: &mut Vec<Diagnostic>, info: &FileInfo, line: usize, rule: &'static str, msg: String) {
    out.push(Diagnostic::new(info.rel, line, rule, msg));
}

/// Like [`push`], carrying the `[start, start + len)` byte span of the
/// offending token as a 1-based column range.
fn push_tok(
    out: &mut Vec<Diagnostic>,
    info: &FileInfo,
    line: usize,
    start: usize,
    len: usize,
    rule: &'static str,
    msg: String,
) {
    out.push(Diagnostic::new(info.rel, line, rule, msg).with_span(start + 1, start + 1 + len));
}

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

/// Tokens that read the host clock. Entropy-seeded RNGs need no token:
/// no manifest names a rand crate, so rustc rejects them at the source.
const WALL_CLOCK_PATTERNS: &[&str] = &[
    "Instant::now",
    "std::time::Instant",
    "SystemTime",
    "UNIX_EPOCH",
];

fn wall_clock(info: &FileInfo, f: &ScannedFile, out: &mut Vec<Diagnostic>) {
    // Every audited file is in scope, whichever crate it lives in: a
    // helper that reads the clock is one call away from simulated
    // state, and the pure experiment rows in crates/bench are
    // byte-compared by CI. Tests included: replay-equality tests are
    // only trustworthy if they are themselves clock-free. Binaries too:
    // no `main.rs` times itself, host time is `perf/`'s job.
    for (i, code) in f.code.iter().enumerate() {
        for pat in WALL_CLOCK_PATTERNS {
            if let Some(&start) = token_positions(code, pat).first() {
                push_tok(
                    out,
                    info,
                    i + 1,
                    start,
                    pat.len(),
                    WALL_CLOCK,
                    format!(
                        "`{pat}` is a nondeterministic time source; use the simulation \
                         clock (SimInstant)"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// hash-order
// ---------------------------------------------------------------------------

/// Hash-ordered collection tokens.
const HASH_ORDER_PATTERNS: &[&str] = &["HashMap", "HashSet"];

fn hash_order(info: &FileInfo, f: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if info.kind != FileKind::Library {
        return;
    }
    for (i, code) in f.code.iter().enumerate() {
        if f.is_test_line(i + 1) {
            continue;
        }
        for pat in HASH_ORDER_PATTERNS {
            if let Some(&start) = token_positions(code, pat).first() {
                push_tok(
                    out,
                    info,
                    i + 1,
                    start,
                    pat.len(),
                    HASH_ORDER,
                    format!(
                        "`{pat}` iteration order is nondeterministic and can leak into the \
                         ledger, EnergyReports or experiments.jsonl; use BTreeMap/BTreeSet \
                         or sort before iterating"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ledger-mut
// ---------------------------------------------------------------------------

fn ledger_mut(info: &FileInfo, f: &ScannedFile, out: &mut Vec<Diagnostic>) {
    // Private fields are what make rustc the conservation checker
    // everywhere else: a struct literal is E0451, a foreign impl cannot
    // name `entries`/`total`, and `Joules` has no `Neg`.
    if info.rel != LEDGER_FILE {
        return;
    }
    for (i, code) in f.code.iter().enumerate() {
        let t = code.trim_start();
        let is_field = |name: &str| {
            (t.starts_with("pub ") || t.starts_with("pub("))
                && !t.contains("fn ")
                && has_token(t, name)
                && t.contains(&format!("{name}:"))
        };
        if is_field("entries") || is_field("total") {
            push(
                out,
                info,
                i + 1,
                LEDGER_MUT,
                "EnergyLedger accounting fields must stay private; expose behavior \
                 through audited methods instead"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// error-hygiene
// ---------------------------------------------------------------------------

const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

fn error_hygiene(info: &FileInfo, f: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if info.kind != FileKind::Library || !ERROR_HYGIENE_CRATES.contains(&info.crate_name) {
        return;
    }
    for (i, code) in f.code.iter().enumerate() {
        if f.is_test_line(i + 1) {
            continue;
        }
        for pat in PANIC_PATTERNS {
            if code.contains(pat) {
                push(
                    out,
                    info,
                    i + 1,
                    ERROR_HYGIENE,
                    format!(
                        "`{pat}` panics in library code; route the failure through SimError \
                         (or justify the invariant with an allow pragma)"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// float-eq
// ---------------------------------------------------------------------------

/// Accessors that expose raw `f64` energy/time quantities.
const FLOAT_ACCESSORS: &[&str] = &[
    ".joules()",
    ".as_secs_f64()",
    ".work_per_joule()",
    ".avg_watts()",
];

fn float_eq(info: &FileInfo, f: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if info.kind != FileKind::Library {
        return;
    }
    for (i, code) in f.code.iter().enumerate() {
        if f.is_test_line(i + 1) {
            continue;
        }
        for (pos, op) in equality_ops(code) {
            let left = operand_before(code, pos);
            let right = operand_after(code, pos + op.len());
            let floaty = |s: &str| {
                let s = s.trim_start_matches(['(', '!']);
                FLOAT_ACCESSORS.iter().any(|a| s.ends_with(a))
            };
            if floaty(&left) || floaty(&right) {
                push(
                    out,
                    info,
                    i + 1,
                    FLOAT_EQ,
                    format!(
                        "float equality `{}` on an energy/time quantity; compare with a \
                         tolerance, or on bit patterns (`.to_bits()`) for replay identity",
                        op
                    ),
                );
            }
        }
    }
}

/// Byte positions of standalone `==` / `!=` operators.
fn equality_ops(code: &str) -> Vec<(usize, &'static str)> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < b.len() {
        if b[i] == b'=' && b[i + 1] == b'=' {
            let pre = if i == 0 { b' ' } else { b[i - 1] };
            let post = if i + 2 < b.len() { b[i + 2] } else { b' ' };
            if !matches!(
                pre,
                b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^'
            ) && post != b'='
            {
                out.push((i, "=="));
            }
            i += 2;
        } else if b[i] == b'!' && b[i + 1] == b'=' && (i + 2 >= b.len() || b[i + 2] != b'=') {
            out.push((i, "!="));
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

fn operand_before(code: &str, op_start: usize) -> String {
    let s = code[..op_start].trim_end();
    let start = s
        .rfind(|c: char| !(is_ident_char(c) || matches!(c, '.' | '(' | ')' | ':')))
        .map(|p| p + 1)
        .unwrap_or(0);
    s[start..].to_string()
}

fn operand_after(code: &str, op_end: usize) -> String {
    let s = code[op_end..].trim_start();
    let end = s
        .find(|c: char| !(is_ident_char(c) || matches!(c, '.' | '(' | ')' | ':')))
        .unwrap_or(s.len());
    s[..end].to_string()
}

// ---------------------------------------------------------------------------
// print-hygiene
// ---------------------------------------------------------------------------

fn print_hygiene(info: &FileInfo, f: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if info.kind != FileKind::Library || is_binary_target(info.rel) {
        return;
    }
    for (i, code) in f.code.iter().enumerate() {
        if f.is_test_line(i + 1) {
            continue;
        }
        for pat in ["println!", "eprintln!", "print!", "eprint!", "dbg!"] {
            if has_token(code, pat) {
                push(
                    out,
                    info,
                    i + 1,
                    PRINT_HYGIENE,
                    format!(
                        "`{pat}` in library code writes to the console behind the caller's \
                         back; emit a grail-trace event, return the data, or move the \
                         printing into a binary target"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// metric-hygiene
// ---------------------------------------------------------------------------

/// Recording calls whose first argument is the metric name. The leading
/// `.` keeps free functions and same-named locals out of scope.
const METRIC_RECORD_CALLS: &[&str] = &[
    ".count(",
    ".observe(",
    ".gauge(",
    ".set_gauge(",
    ".add_gauge(",
    ".rate(",
    ".rate_add(",
];

/// Crates that *implement* the metrics plumbing: they forward names
/// through `&'static str` parameters by design, so the literal check
/// applies only at real instrumentation sites outside them.
const METRIC_PLUMBING_CRATES: &[&str] = &["metrics", "trace"];

/// A string literal starting at byte `pos` of stripped line `i`,
/// recovered from the raw text (the scanner blanks literal contents
/// column-preservingly, so the offsets line up).
fn literal_text(f: &ScannedFile, i: usize, pos: usize) -> String {
    let (Some(code), Some(raw)) = (f.code.get(i), f.raw.get(i)) else {
        return String::new();
    };
    let Some(close) = code.get(pos + 1..).and_then(|s| s.find('"')) else {
        return String::new();
    };
    raw.get(pos + 1..pos + 1 + close).unwrap_or("").to_string()
}

fn metric_hygiene(info: &FileInfo, f: &ScannedFile, out: &mut Vec<Diagnostic>) {
    // Binary targets report what registries hold through parameterized
    // helpers; the literal rule bites at the instrumentation sites in
    // library code.
    if info.kind != FileKind::Library
        || is_binary_target(info.rel)
        || METRIC_PLUMBING_CRATES.contains(&info.crate_name)
    {
        return;
    }
    for (i, code) in f.code.iter().enumerate() {
        if f.is_test_line(i + 1) {
            continue;
        }
        for pat in METRIC_RECORD_CALLS {
            let mut from = 0usize;
            while let Some(at) = code[from..].find(pat) {
                let open = from + at + pat.len();
                from = open;
                // The first argument sits after the `(` — or at the
                // start of the next line when rustfmt broke the call.
                let rest = code[open..].trim_start();
                let (arg_line, arg_pos, arg) = if rest.is_empty() {
                    let next = f.code.get(i + 1).map(String::as_str).unwrap_or("");
                    let lead = next.len() - next.trim_start().len();
                    (i + 1, lead, next.trim_start())
                } else {
                    (i, open + (code[open..].len() - rest.len()), rest)
                };
                if arg.starts_with(')') {
                    continue; // argument-less `.count()` is Iterator::count
                }
                if arg.starts_with('"') {
                    let name = literal_text(f, arg_line, arg_pos);
                    if grail_metrics::spec::spec_for(&name).is_none() {
                        push(
                            out,
                            info,
                            i + 1,
                            METRIC_HYGIENE,
                            format!(
                                "metric `{name}` is not registered in \
                                 grail_metrics::spec::CATALOG; add a MetricSpec for it \
                                 (exporters and the watchdog only see cataloged names)"
                            ),
                        );
                    }
                } else {
                    push(
                        out,
                        info,
                        i + 1,
                        METRIC_HYGIENE,
                        format!(
                            "metric name passed to `{}...)` is not a string literal; \
                             runtime-built names (format!, variables) create unbounded \
                             cardinality and defeat the static catalog",
                            pat.trim_start_matches('.')
                        ),
                    );
                }
            }
        }
    }
}

/// Each catalog name is declared exactly once: within any file that
/// declares `MetricSpec` entries, a repeated `name: "..."` literal is a
/// duplicate registration.
fn metric_registration(info: &FileInfo, f: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if info.kind != FileKind::Library || !f.code.iter().any(|l| l.contains("MetricSpec")) {
        return;
    }
    const FIELD: &str = "name: \"";
    let mut first_seen: BTreeMap<String, usize> = BTreeMap::new();
    for (i, code) in f.code.iter().enumerate() {
        if f.is_test_line(i + 1) {
            continue;
        }
        let mut from = 0usize;
        while let Some(at) = code[from..].find(FIELD) {
            let abs = from + at;
            from = abs + FIELD.len();
            // `objective_name:` etc. share the suffix but not the token.
            if code[..abs].ends_with(is_ident_char) {
                continue;
            }
            let name = literal_text(f, i, abs + FIELD.len() - 1);
            match first_seen.get(&name) {
                Some(&line) => push(
                    out,
                    info,
                    i + 1,
                    METRIC_HYGIENE,
                    format!(
                        "metric `{name}` is registered more than once (first at line {line}); \
                         the catalog must hold exactly one MetricSpec per name"
                    ),
                ),
                None => {
                    first_seen.insert(name, i + 1);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// thread-confine
// ---------------------------------------------------------------------------

/// The one crate allowed to spawn threads and hold locks.
const THREAD_CRATE: &str = "par";

const THREAD_PATTERNS: &[&str] = &[
    "std::thread",
    "thread::spawn",
    "thread::scope",
    "thread::Builder",
    "Mutex",
    "RwLock",
    "Condvar",
    "mpsc::channel",
    "mpsc::sync_channel",
    "rayon",
    "crossbeam",
];

fn thread_confine(info: &FileInfo, f: &ScannedFile, out: &mut Vec<Diagnostic>) {
    // Tests included: a test that spawns its own threads can observe —
    // and start depending on — a nondeterministic completion order.
    if info.crate_name == THREAD_CRATE {
        return;
    }
    for (i, code) in f.code.iter().enumerate() {
        for pat in THREAD_PATTERNS {
            if has_token(code, pat) {
                push(
                    out,
                    info,
                    i + 1,
                    THREAD_CONFINE,
                    format!(
                        "`{pat}` outside crates/par: scheduling must never reach observable \
                         state; fan independent work through grail_par::Runner, which merges \
                         in input order"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// unsafe-forbid
// ---------------------------------------------------------------------------

fn unsafe_forbid(info: &FileInfo, f: &ScannedFile, out: &mut Vec<Diagnostic>) {
    let is_lib_root = info.rel == "src/lib.rs"
        || (info.rel.starts_with("crates/") && info.rel.ends_with("/src/lib.rs"));
    if !is_lib_root {
        return;
    }
    let has = f.code.iter().any(|l| l.contains("#![forbid(unsafe_code)]"));
    if !has {
        push(
            out,
            info,
            1,
            UNSAFE_FORBID,
            "library crate root must carry `#![forbid(unsafe_code)]`".to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

/// The crate layer order from DESIGN.md §7. A crate may depend only on
/// crates in strictly lower layers; an edge to the same or a higher
/// layer is a back-edge.
pub const LAYERS: &[(&str, u32)] = &[
    ("metrics", 0),
    ("par", 0),
    ("prop", 0),
    ("power", 1),
    ("trace", 1),
    ("lint", 1),
    ("sim", 2),
    ("storage", 2),
    ("buffer", 3),
    ("scheduler", 3),
    ("query", 4),
    ("check", 4),
    ("workload", 5),
    ("core", 6),
    ("bench", 7),
    ("grail", 7),
];

fn layer_of(crate_name: &str) -> Option<u32> {
    LAYERS
        .iter()
        .find(|(n, _)| *n == crate_name)
        .map(|(_, l)| *l)
}

/// What a manifest table header opens, as far as layering cares:
/// `Some("")` for a table of `name = …` dependency lines
/// (`[dependencies]`, `[target.'cfg(unix)'.dependencies]`), `Some(name)`
/// for one dependency written as its own table (`[dependencies.name]`,
/// `[target.….dependencies.name]`), and `None` for anything else —
/// `dev-dependencies` in either form included.
fn dependency_table(header: &str) -> Option<&str> {
    let h = header.strip_prefix('[')?;
    let h = h[..h.rfind(']')?].trim();
    if h == "dependencies" || (h.starts_with("target.") && h.ends_with(".dependencies")) {
        return Some("");
    }
    let name = match h.strip_prefix("dependencies.") {
        Some(name) => name,
        None if h.starts_with("target.") => h.rsplit_once(".dependencies.")?.1,
        None => return None,
    };
    Some(name.trim_matches('"'))
}

/// Layering: `grail-*` dependencies of `crates/<name>/Cargo.toml` (or
/// the root manifest), in every table form cargo accepts — inline under
/// `[dependencies]`, a `[dependencies.grail-x]` table, and both under a
/// `[target.….dependencies]` header. Dev dependencies are exempt in
/// every form — tests may reach across layers. The manifest is the
/// only place to look: a `grail_x::` path in library code does not
/// compile unless the manifest lists `grail-x`.
pub fn layering_manifest(rel: &str, source: &str) -> Vec<Diagnostic> {
    let from = manifest_crate_name(rel);
    let Some(from_layer) = layer_of(from) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut in_deps = false;
    for (i, line) in source.lines().enumerate() {
        let t = line.trim();
        let entry = if t.starts_with('[') {
            let table = dependency_table(t);
            in_deps = table == Some("");
            match table {
                Some(name) if !name.is_empty() => name,
                _ => continue,
            }
        } else if in_deps {
            t
        } else {
            continue;
        };
        let Some(dep) = entry.strip_prefix("grail-") else {
            continue;
        };
        let dep: String = dep
            .chars()
            .take_while(|&c| is_ident_char(c) || c == '-')
            .collect();
        let Some(to_layer) = layer_of(&dep) else {
            continue;
        };
        if to_layer >= from_layer {
            out.push(Diagnostic::new(
                rel,
                i + 1,
                LAYERING,
                format!(
                    "`{from}` (layer {from_layer}) must not depend on `{dep}` (layer {to_layer}) \
                     in its manifest; dependencies point strictly downward in the DESIGN \
                     layer order"
                ),
            ));
        }
    }
    out
}

/// The crate a manifest belongs to: `crates/<name>/Cargo.toml` names
/// the member crate, the root `Cargo.toml` names the facade (`grail`).
fn manifest_crate_name(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("crates"), Some(name), Some("Cargo.toml")) => name,
        _ => "grail",
    }
}

#[cfg(test)]
mod tests {
    use crate::{check_files, check_source, SourceFile};

    fn sf(rel: &str, src: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            source: src.to_string(),
        }
    }

    fn rules_at(rel: &str, src: &str) -> Vec<(usize, String)> {
        check_source(rel, src)
            .into_iter()
            .map(|d| (d.line, d.rule.to_string()))
            .collect()
    }

    const LIB_OK: &str = "#![forbid(unsafe_code)]\n";

    // -- wall-clock ---------------------------------------------------------

    #[test]
    fn wall_clock_triggers_on_host_time() {
        let bad = "fn f() { let t = std::time::Instant::now(); }\n";
        let got = rules_at("crates/sim/src/x.rs", bad);
        assert!(got.contains(&(1, "wall-clock".into())), "{got:?}");
    }

    #[test]
    fn wall_clock_passes_sim_clock_and_reports_every_audited_file() {
        // SimInstant and the seeded ChaCha12Rng are the sanctioned sources.
        let ok = "fn f(now: SimInstant) { let rng = ChaCha12Rng::seed_from_u64(7); }\n";
        assert!(rules_at("crates/sim/src/x.rs", ok).is_empty());
        // Every audited file is in scope, whatever its crate: a binary
        // that times itself, library code, the experiment rows, tests
        // and examples.
        let timed = "fn f() { let t = Instant::now(); }\n";
        for rel in [
            "crates/lint/src/main.rs",
            "crates/bench/src/main.rs",
            "crates/storage/src/x.rs",
            "crates/bench/src/experiments/x.rs",
            "crates/query/tests/x.rs",
            "examples/x.rs",
        ] {
            assert_eq!(rules_at(rel, timed), vec![(1, "wall-clock".into())]);
        }
    }

    #[test]
    fn wall_clock_is_not_fooled_by_comments_or_identifiers() {
        let ok = "// SystemTime would be wrong here\n\
                  fn f() { let s = \"SystemTime\"; let x = MySystemTimeLike; }\n";
        // `MySystemTimeLike` shares a substring but not a token.
        assert!(rules_at("crates/power/src/x.rs", ok).is_empty());
    }

    // -- hash-order ---------------------------------------------------------

    #[test]
    fn hash_order_triggers_in_library_code() {
        let bad = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32>; }\n";
        let got = rules_at("crates/buffer/src/x.rs", bad);
        assert_eq!(
            got,
            vec![(1, "hash-order".into()), (2, "hash-order".into())]
        );
    }

    #[test]
    fn hash_order_passes_btree_tests_and_pragmas() {
        let ok = "use std::collections::BTreeMap;\n";
        assert!(rules_at("crates/buffer/src/x.rs", ok).is_empty());
        // Test modules may hash freely.
        let test_mod =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        assert!(rules_at("crates/buffer/src/x.rs", test_mod).is_empty());
        // A pragma with a reason suppresses; the reason is mandatory.
        let allowed = "// grail-lint: allow(hash-order, lookup-only, never iterated)\n\
                       use std::collections::HashMap;\n";
        assert!(rules_at("crates/query/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn hash_map_behind_a_helper_is_reported_once_at_its_source() {
        let helper = "pub fn lookup() -> u32 {\n    let m = HashMap::from([(1, 2)]);\n    0\n}\n";
        let sched = "pub fn pick() -> u32 {\n    lookup()\n}\n";
        let got = check_files(&[
            sf("crates/workload/src/h.rs", helper),
            sf("crates/scheduler/src/s.rs", sched),
        ]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(
            (got[0].file.as_str(), got[0].line, got[0].rule),
            ("crates/workload/src/h.rs", 2, "hash-order")
        );
    }

    // -- ledger-mut ---------------------------------------------------------

    #[test]
    fn ledger_mut_keeps_the_accounting_fields_private() {
        let home_bad = "pub struct EnergyLedger {\n    pub entries: BTreeMap<ComponentId, Joules>,\n    total: Joules,\n}\n";
        let got = rules_at("crates/power/src/ledger.rs", home_bad);
        assert_eq!(got, vec![(2, "ledger-mut".into())]);
        let home_ok = "pub struct EnergyLedger {\n    entries: BTreeMap<ComponentId, Joules>,\n    total: Joules,\n}\npub fn total(&self) {}\n";
        assert!(rules_at("crates/power/src/ledger.rs", home_ok).is_empty());
    }

    // -- error-hygiene ------------------------------------------------------

    #[test]
    fn error_hygiene_triggers_on_panicky_library_code() {
        let bad = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"set\") }\n\
                   fn h() { panic!(\"no\"); }\n";
        let got = rules_at("crates/core/src/x.rs", bad);
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got.iter().all(|(_, r)| r == "error-hygiene"));
    }

    #[test]
    fn error_hygiene_passes_results_tests_and_other_crates() {
        let ok = "fn f(x: Option<u32>) -> Result<u32, SimError> {\n\
                      x.ok_or(SimError::Finished)\n\
                  }\n\
                  fn g(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(rules_at("crates/sim/src/x.rs", ok).is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(rules_at("crates/sim/src/x.rs", in_tests).is_empty());
        // Integration tests and non-simulator crates are out of scope.
        assert!(rules_at("crates/sim/tests/x.rs", "fn t() { None::<u32>.unwrap(); }").is_empty());
        assert!(rules_at("crates/query/src/x.rs", "fn f() { None::<u32>.unwrap(); }").is_empty());
    }

    // -- float-eq -----------------------------------------------------------

    #[test]
    fn float_eq_triggers_on_energy_equality() {
        let bad = "fn f(a: Joules, b: Joules) -> bool { a.joules() == b.joules() }\n\
                   fn g(d: SimDuration) -> bool { d.as_secs_f64() != 0.0 }\n";
        let got = rules_at("crates/power/src/x.rs", bad);
        assert_eq!(got, vec![(1, "float-eq".into()), (2, "float-eq".into())]);
    }

    #[test]
    fn float_eq_passes_tolerances_bits_and_unrelated_equality() {
        let ok = "fn f(a: Joules, b: Joules) -> bool { (a.joules() - b.joules()).abs() < 1e-9 }\n\
                  fn g(a: Joules, b: Joules) -> bool { a.joules().to_bits() == b.joules().to_bits() }\n\
                  fn h(i: usize) -> bool { i == 0 }\n\
                  fn k(a: Joules) -> bool { a.joules() > 0.0 && 1 == 1 }\n";
        assert!(rules_at("crates/power/src/x.rs", ok).is_empty());
    }

    // -- print-hygiene ------------------------------------------------------

    #[test]
    fn print_hygiene_triggers_in_library_code() {
        let bad = "fn f() { println!(\"{}\", 1); }\nfn g() { eprintln!(\"oops\"); }\n";
        let got = rules_at("crates/query/src/x.rs", bad);
        assert_eq!(
            got,
            vec![(1, "print-hygiene".into()), (2, "print-hygiene".into())]
        );
    }

    #[test]
    fn print_hygiene_covers_the_newline_less_macros_and_dbg() {
        let bad = "fn f() { print!(\"{}\", 1); }\n\
                   fn g() { eprint!(\"oops\"); }\n\
                   fn h(x: u32) -> u32 { dbg!(x) }\n";
        let got = rules_at("crates/sim/src/p.rs", bad);
        assert_eq!(
            got,
            vec![
                (1, "print-hygiene".into()),
                (2, "print-hygiene".into()),
                (3, "print-hygiene".into())
            ]
        );
        // One report per line: `println!` does not also match `print!`.
        let one = rules_at("crates/sim/src/p.rs", "fn f() { println!(\"x\"); }\n");
        assert_eq!(one, vec![(1, "print-hygiene".into())]);
    }

    #[test]
    fn print_hygiene_passes_binaries_tests_and_pragmas() {
        let printing = "fn main() { println!(\"hello\"); }\n";
        // Binary targets own stdout.
        assert!(rules_at("crates/bench/src/main.rs", printing).is_empty());
        assert!(rules_at("crates/lint/src/main.rs", printing).is_empty());
        // Test modules and test-like files may print freely.
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn t() { println!(\"dbg\"); }\n}\n";
        assert!(rules_at("crates/query/src/x.rs", in_tests).is_empty());
        assert!(rules_at("crates/query/tests/x.rs", printing).is_empty());
        // A pragma with a reason suppresses.
        let allowed = "fn f() { println!(\"row\"); } // grail-lint: allow(print-hygiene, console reporting helper for the bench binaries)\n";
        assert!(rules_at("crates/bench/src/record.rs", allowed).is_empty());
        // write!/writeln! to a caller-supplied sink are fine.
        let ok = "fn f(w: &mut impl Write) { writeln!(w, \"x\").ok(); }\n";
        assert!(rules_at("crates/query/src/x.rs", ok).is_empty());
    }

    // -- metric-hygiene -----------------------------------------------------

    #[test]
    fn metric_hygiene_triggers_on_unregistered_and_dynamic_names() {
        let bad = "fn f(t: &mut Tracer) {\n\
                   \x20   t.count(\"no.such.metric\", 1);\n\
                   \x20   let name = format!(\"q.{}\", 7);\n\
                   \x20   t.gauge(&name, 1.0);\n\
                   }\n";
        let got = rules_at("crates/sim/src/x.rs", bad);
        assert!(got.contains(&(2, "metric-hygiene".into())), "{got:?}");
        assert!(got.contains(&(4, "metric-hygiene".into())), "{got:?}");
    }

    #[test]
    fn metric_hygiene_passes_cataloged_names_and_iterator_count() {
        let ok = "fn f(t: &mut Tracer, xs: &[u8]) {\n\
                  \x20   t.count(\"db.queries\", 1);\n\
                  \x20   t.gauge(\"chaos.shed_rate\", 0.1);\n\
                  \x20   let n = xs.iter().count();\n\
                  }\n";
        assert!(rules_at("crates/core/src/x.rs", ok).is_empty());
        // Test code and binary targets are out of scope.
        let in_tests =
            "#[cfg(test)]\nmod tests {\n    fn t(tr: &mut Tracer) { tr.count(\"ad.hoc\", 1); }\n}\n";
        assert!(rules_at("crates/sim/src/x.rs", in_tests).is_empty());
        let bin = "fn main() { reg.gauge(name); }\n";
        assert!(rules_at("crates/bench/src/main.rs", bin).is_empty());
    }

    #[test]
    fn metric_hygiene_flags_duplicate_registration() {
        let dup = "pub const CATALOG: &[MetricSpec] = &[\n\
                   \x20   MetricSpec { name: \"a.b\", kind: MetricKind::Counter },\n\
                   \x20   MetricSpec {\n\
                   \x20       name: \"a.b\",\n\
                   \x20       kind: MetricKind::Gauge,\n\
                   \x20   },\n\
                   ];\n";
        let got = rules_at("crates/metrics/src/spec.rs", dup);
        assert!(got.contains(&(4, "metric-hygiene".into())), "{got:?}");
    }

    // -- thread-confine -----------------------------------------------------

    #[test]
    fn thread_confine_triggers_outside_par() {
        let bad = "fn f() { std::thread::spawn(|| {}); }\n\
                   fn g() { let m = std::sync::Mutex::new(0); }\n\
                   fn h() { let l: RwLock<u32>; }\n";
        let got = rules_at("crates/sim/src/x.rs", bad);
        assert!(got.contains(&(1, "thread-confine".into())), "{got:?}");
        assert!(got.contains(&(2, "thread-confine".into())), "{got:?}");
        assert!(got.contains(&(3, "thread-confine".into())), "{got:?}");
        // Tests are not exempt: thread use there can start encoding
        // scheduling-dependent expectations.
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
        assert!(rules_at("crates/query/src/x.rs", in_tests).contains(&(3, "thread-confine".into())));
    }

    #[test]
    fn thread_confine_passes_par_crate_and_lookalikes() {
        let threads = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n\
                       fn g() { let m = std::sync::Mutex::new(0); }\n";
        assert!(rules_at("crates/par/src/x.rs", threads).is_empty());
        assert!(rules_at("crates/par/tests/determinism.rs", threads).is_empty());
        // Identifier lookalikes don't match on token boundaries.
        let ok = "fn f() { let x = MutexGuardLike; single_threaded(); }\n";
        assert!(rules_at("crates/sim/src/x.rs", ok).is_empty());
    }

    #[test]
    fn thread_confine_cannot_be_suppressed() {
        // A reasoned pragma is itself an error AND the violation still
        // reports: no waving a stray Mutex through.
        let waved = "fn g() { let m = std::sync::Mutex::new(0); } // grail-lint: allow(thread-confine, trust me)\n";
        let got = rules_at("crates/sim/src/parallel.rs", waved);
        assert!(got.contains(&(1, "thread-confine".into())), "{got:?}");
        assert!(got.contains(&(1, "pragma".into())), "{got:?}");
        // ...and it is not double-reported as stale.
        assert!(!got.contains(&(1, "stale-pragma".into())), "{got:?}");
    }

    // -- unsafe-forbid ------------------------------------------------------

    #[test]
    fn unsafe_forbid_triggers_on_missing_attribute() {
        let got = rules_at("crates/sim/src/lib.rs", "pub mod x;\n");
        assert_eq!(got, vec![(1, "unsafe-forbid".into())]);
        assert_eq!(
            rules_at("src/lib.rs", "pub use grail_core as core;\n"),
            vec![(1, "unsafe-forbid".into())]
        );
    }

    #[test]
    fn unsafe_forbid_passes_attributed_roots_and_non_roots() {
        assert!(rules_at("crates/sim/src/lib.rs", LIB_OK).is_empty());
        // Non-root files don't need the attribute.
        assert!(rules_at("crates/sim/src/cpu.rs", "pub fn f() {}\n").is_empty());
    }

    // -- pragmas ------------------------------------------------------------

    #[test]
    fn pragma_without_reason_is_an_error() {
        let src = "// grail-lint: allow(hash-order)\nuse std::collections::HashMap;\n";
        let got = rules_at("crates/buffer/src/x.rs", src);
        // The missing reason is an error AND the suppression is void.
        assert!(got.contains(&(1, "pragma".into())), "{got:?}");
        assert!(got.contains(&(2, "hash-order".into())), "{got:?}");
    }

    #[test]
    fn pragma_unknown_rule_is_an_error() {
        let src = "// grail-lint: allow(no-such-rule, because)\nfn f() {}\n";
        let got = rules_at("crates/buffer/src/x.rs", src);
        assert_eq!(got, vec![(1, "pragma".into())]);
        // A retired rule id is unknown like any other, even where the
        // rule used to fire.
        assert!(super::RULES.iter().all(|r| r.id != "par-readiness"));
        let retired = "// grail-lint: allow(par-readiness, shard-local)\nuse std::cell::RefCell;\n";
        let got = check_source("crates/sim/src/x.rs", retired);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!((got[0].line, got[0].rule), (1, "pragma"));
        assert!(got[0].message.contains("unknown rule `par-readiness`"));
        // The dimensional rules went the same way: rustc owns units.
        for id in ["unit-mix", "raw-energy"] {
            assert!(super::RULES.iter().all(|r| r.id != id));
            let src = format!("// grail-lint: allow({id}, typed upstream)\nfn f() {{}}\n");
            let got = check_source("crates/power/src/x.rs", &src);
            assert_eq!(got.len(), 1, "{got:?}");
            assert_eq!((got[0].line, got[0].rule), (1, "pragma"));
            assert!(got[0].message.contains(&format!("unknown rule `{id}`")));
        }
    }

    #[test]
    fn pragma_scopes_line_trailing_and_file() {
        // Trailing pragma covers its own line only.
        let trailing = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // grail-lint: allow(error-hygiene, fixture)\n\
                        fn g(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let got = rules_at("crates/sim/src/x.rs", trailing);
        assert_eq!(got, vec![(2, "error-hygiene".into())]);
        // File-scope pragma covers everything.
        let file = "// grail-lint: allow-file(error-hygiene, fixture file)\n\
                    fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                    fn g(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(rules_at("crates/sim/src/x.rs", file).is_empty());
    }

    #[test]
    fn stale_pragmas_are_flagged_and_unsuppressable() {
        // A pragma suppressing nothing is itself an error.
        let dead = "// grail-lint: allow(hash-order, was needed once)\nfn f() {}\n";
        let got = rules_at("crates/buffer/src/x.rs", dead);
        assert_eq!(got, vec![(1, "stale-pragma".into())]);
        // A pragma that earns its keep is not stale.
        let live = "// grail-lint: allow(hash-order, lookup only, never iterated)\n\
                    use std::collections::HashMap;\n";
        assert!(rules_at("crates/buffer/src/x.rs", live).is_empty());
        // And stale-pragma itself cannot be suppressed.
        let meta = "// grail-lint: allow(stale-pragma, trust me)\nfn f() {}\n";
        let got = rules_at("crates/buffer/src/x.rs", meta);
        assert_eq!(got, vec![(1, "pragma".into())]);
    }

    #[test]
    fn layering_flags_back_edges_in_manifests() {
        let manifest = "\
[package]
name = \"grail-power\"

[dependencies]
grail-core = { path = \"../core\" }
grail-trace = { path = \"../trace\" }

[dev-dependencies]
grail-sim = { path = \"../sim\" }
";
        let got = super::layering_manifest("crates/power/Cargo.toml", manifest);
        // grail-core is a back-edge (layer 5 from layer 0); grail-trace
        // is sideways inside layer 0 (also banned); grail-sim is a dev
        // dependency and exempt.
        let lines: Vec<usize> = got.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![5, 6], "{got:?}");
        assert!(got.iter().all(|d| d.rule == "layering"));
        // A conforming manifest is clean.
        let ok = "[dependencies]\ngrail-power = { path = \"../power\" }\n";
        assert!(super::layering_manifest("crates/sim/Cargo.toml", ok).is_empty());
        // Quoted table keys and a trailing comment on the header change
        // nothing (the plain table forms are in the golden fixtures).
        let quoted = "[dependencies.\"grail-core\"]\npath = \"../core\"\n\
                      [target.\"cfg(unix)\".dependencies] # unix only\ngrail-sim = \"0\"\n";
        let got = super::layering_manifest("crates/power/Cargo.toml", quoted);
        let lines: Vec<usize> = got.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![1, 4], "{got:?}");
    }

    #[test]
    fn strings_and_comments_never_trigger_rules() {
        let src = "fn f() -> &'static str { \".unwrap() HashMap SystemTime panic!\" }\n\
                   // .unwrap() HashMap SystemTime panic! EnergyLedger {\n\
                   /* .unwrap()\n   HashMap */\n\
                   fn g() -> char { 'a' }\n";
        assert!(rules_at("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn raw_strings_are_stripped() {
        let src = "fn f() -> &'static str { r#\"x.unwrap() == y.joules()\"# }\n";
        assert!(rules_at("crates/sim/src/x.rs", src).is_empty());
    }
}
