//! Impl and function recognition plus the intra-workspace call graph,
//! recovered from the stripped token stream — no external parser, no
//! syn, just the same blanked source the token rules read.
//!
//! [`extract`] walks one scanned file and rebuilds its item skeleton:
//! inline `mod` blocks, `impl` blocks (inherent and trait), and every
//! `fn` with its signature facts, body span and outgoing calls. The
//! per-file skeletons assemble into a [`WorkspaceGraph`], which
//! resolves calls *by name*: a call site `foo(...)` or `x.foo(...)`
//! gains an edge to every library function named `foo` anywhere in the
//! workspace. That over-approximation is the right bias for an
//! invariant checker — a missed edge could hide a violation, while a
//! spurious one at worst widens a reachability set the rules treat
//! conservatively (charge-reachability and ledger-flow become
//! *easier* to satisfy, never spuriously strict).
//!
//! Functions defined inside `#[cfg(test)]` regions or test-like files
//! (`tests/`, `benches/`, `examples/`) are never resolution targets:
//! library code cannot call them, so edges into them would only
//! manufacture false paths.

use crate::scan::{is_ident_char, ScannedFile};
use crate::{FileInfo, FileKind};
use std::collections::{BTreeMap, VecDeque};

/// One outgoing call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Callee name as written (`charge`, `serve`, `next`, …).
    pub name: String,
    /// 1-based line of the call site.
    pub line: usize,
}

/// One recognized `fn` item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Self type when the fn sits in an `impl` block (`DiskDevice`).
    pub impl_type: Option<String>,
    /// Trait name when the block is `impl Trait for Type` (`Operator`).
    pub impl_trait: Option<String>,
    /// Module path inside the crate (`ops::scan`, `""` for the root).
    pub module: String,
    /// Workspace-relative file, `/`-separated.
    pub file: String,
    /// Owning crate name.
    pub crate_name: String,
    /// Library or test-like file.
    pub kind: FileKind,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based last line of the body.
    pub end_line: usize,
    /// True when the fn sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Declared return type, whitespace-normalized (`Joules`,
    /// `Result<ChaosReport, ClusterError>`); `None` for `()`.
    pub ret: Option<String>,
    /// True when the receiver is `&mut self` or `mut self` — the
    /// signature-level signal that the method mutates its state.
    pub mut_self: bool,
    /// Outgoing call sites, in source order.
    pub calls: Vec<Call>,
}

impl FnDef {
    /// Display name qualified by the impl self type (`DiskDevice::serve`).
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The item skeleton of one file.
#[derive(Debug, Clone, Default)]
pub struct FileGraph {
    /// Every recognized `fn` with body span and calls.
    pub fns: Vec<FnDef>,
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum CtxKind {
    Impl {
        type_: Option<String>,
        trait_: Option<String>,
    },
    Fn {
        idx: usize,
    },
    Mod {
        name: String,
    },
}

#[derive(Debug)]
struct Ctx {
    kind: CtxKind,
    /// Brace depth *before* the block's `{` was consumed; the block
    /// closes on the `}` that returns the depth to this value.
    open_depth: usize,
}

#[derive(Debug)]
enum Pending {
    /// Saw `fn name`, waiting for the body `{` or a decl-ending `;`,
    /// accumulating the signature text in between.
    Fn {
        name: String,
        line: usize,
        header: String,
    },
    /// Saw line-initial `impl`, accumulating the header until `{`.
    Impl { text: String },
    /// Saw `mod name`, waiting for `{` (inline) or `;` (child file).
    Mod { name: String },
}

/// Keywords that can never be call names.
const CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "fn",
    "impl", "struct", "enum", "trait", "mod", "use", "pub", "in", "as", "move", "ref", "mut",
    "where", "unsafe", "dyn", "box", "await", "async", "const", "static", "type", "crate", "super",
    "self",
];

/// Words allowed before `fn` on a definition line.
fn is_fn_qualifier(word: &str) -> bool {
    word == "pub"
        || word.starts_with("pub(")
        || matches!(
            word,
            "const" | "async" | "unsafe" | "default" | "extern" | "\"C\""
        )
}

/// Module path derived from the file's place in the crate
/// (`crates/sim/src/disk.rs` → `disk`; crate roots → `""`).
fn file_module(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    let sub = match parts.as_slice() {
        ["crates", _, rest @ ..] => rest,
        rest => rest,
    };
    let mut comps: Vec<&str> = sub
        .iter()
        .skip(1) // src/ tests/ benches/ examples/
        .copied()
        .collect();
    if let Some(last) = comps.last_mut() {
        *last = last.trim_end_matches(".rs");
        if matches!(*last, "lib" | "main" | "mod") {
            comps.pop();
        }
    }
    comps.join("::")
}

/// Recover the item skeleton of one scanned file.
pub fn extract(info: &FileInfo, f: &ScannedFile) -> FileGraph {
    let mut out = FileGraph::default();
    let base_module = file_module(info.rel);
    let mut depth = 0usize;
    let mut stack: Vec<Ctx> = Vec::new();
    let mut pending: Option<Pending> = None;
    // Paren/bracket nesting inside a pending header, so `[u8; 4]` in a
    // signature does not read as the decl-terminating `;`.
    let mut pending_nest = 0usize;

    for (li, line) in f.code.iter().enumerate() {
        let lineno = li + 1;
        let chars: Vec<char> = line.chars().collect();
        let n = chars.len();
        let mut i = 0usize;
        // A pending header spanning lines needs a separator so idents on
        // either side of the break do not fuse.
        match pending.as_mut() {
            Some(Pending::Fn { header, .. }) => header.push(' '),
            Some(Pending::Impl { text }) => text.push(' '),
            _ => {}
        }
        while i < n {
            let c = chars[i];
            if let Some(p) = pending.as_mut() {
                match p {
                    Pending::Impl { text } => {
                        if c == '{' {
                            let (type_, trait_) = parse_impl_header(text);
                            stack.push(Ctx {
                                kind: CtxKind::Impl { type_, trait_ },
                                open_depth: depth,
                            });
                            depth += 1;
                            pending = None;
                        } else if c == ';' {
                            pending = None;
                        } else {
                            text.push(c);
                        }
                        i += 1;
                        continue;
                    }
                    Pending::Fn { name, line, header } => match c {
                        '(' | '[' => {
                            pending_nest += 1;
                            header.push(c);
                            i += 1;
                            continue;
                        }
                        ')' | ']' => {
                            pending_nest = pending_nest.saturating_sub(1);
                            header.push(c);
                            i += 1;
                            continue;
                        }
                        '{' => {
                            let sig = parse_fn_header(header);
                            let def = FnDef {
                                name: std::mem::take(name),
                                impl_type: current_impl_type(&stack),
                                impl_trait: current_impl_trait(&stack),
                                module: current_module(&base_module, &stack),
                                file: info.rel.to_string(),
                                crate_name: info.crate_name.to_string(),
                                kind: info.kind,
                                line: *line,
                                end_line: *line,
                                in_test: f.is_test_line(*line),
                                ret: sig.ret,
                                mut_self: sig.mut_self,
                                calls: Vec::new(),
                            };
                            out.fns.push(def);
                            stack.push(Ctx {
                                kind: CtxKind::Fn {
                                    idx: out.fns.len() - 1,
                                },
                                open_depth: depth,
                            });
                            depth += 1;
                            pending = None;
                            pending_nest = 0;
                            i += 1;
                            continue;
                        }
                        ';' if pending_nest == 0 => {
                            // Trait method declaration: no body, no node.
                            pending = None;
                            i += 1;
                            continue;
                        }
                        other => {
                            header.push(other);
                            i += 1;
                            continue;
                        }
                    },
                    Pending::Mod { name } => {
                        if c == '{' {
                            stack.push(Ctx {
                                kind: CtxKind::Mod {
                                    name: std::mem::take(name),
                                },
                                open_depth: depth,
                            });
                            depth += 1;
                            pending = None;
                        } else if c == ';' {
                            pending = None;
                        }
                        i += 1;
                        continue;
                    }
                }
            }
            if c == '{' {
                depth += 1;
                i += 1;
            } else if c == '}' {
                depth = depth.saturating_sub(1);
                if let Some(top) = stack.last() {
                    if top.open_depth == depth {
                        if let CtxKind::Fn { idx } = top.kind {
                            out.fns[idx].end_line = lineno;
                        }
                        stack.pop();
                    }
                }
                i += 1;
            } else if is_ident_start(c) {
                let start = i;
                while i < n && is_ident_char(chars[i]) {
                    i += 1;
                }
                let ident: String = chars[start..i].iter().collect();
                let line_head: String = chars[..start].iter().collect();
                let at_item = line_head.trim().is_empty();
                let after_qualifiers = line_head
                    .split_whitespace()
                    .all(|w| w == "pub" || w.starts_with("pub("));
                match ident.as_str() {
                    "impl" if at_item => {
                        pending = Some(Pending::Impl {
                            text: String::new(),
                        });
                    }
                    "fn" if line_head.split_whitespace().all(is_fn_qualifier) => {
                        // Next ident is the function name.
                        let mut j = i;
                        while j < n && !is_ident_start(chars[j]) {
                            if matches!(chars[j], '{' | '}' | ';' | '(') {
                                break;
                            }
                            j += 1;
                        }
                        let mut k = j;
                        while k < n && is_ident_char(chars[k]) {
                            k += 1;
                        }
                        if k > j {
                            pending = Some(Pending::Fn {
                                name: chars[j..k].iter().collect(),
                                line: lineno,
                                header: String::new(),
                            });
                            pending_nest = 0;
                            i = k;
                        }
                    }
                    "mod" if at_item || after_qualifiers => {
                        let mut j = i;
                        while j < n && chars[j] == ' ' {
                            j += 1;
                        }
                        let mut k = j;
                        while k < n && is_ident_char(chars[k]) {
                            k += 1;
                        }
                        if k > j {
                            pending = Some(Pending::Mod {
                                name: chars[j..k].iter().collect(),
                            });
                            i = k;
                        }
                    }
                    _ => {
                        // Call site: `ident(` not preceded by `!` (macro
                        // names are not functions) — variant and struct
                        // constructors are CamelCase and skipped.
                        let next = chars.get(i).copied().unwrap_or('\0');
                        let is_call = next == '('
                            && !ident.chars().next().is_some_and(|c| c.is_uppercase())
                            && !CALL_KEYWORDS.contains(&ident.as_str());
                        if is_call {
                            if let Some(idx) = innermost_fn(&stack) {
                                out.fns[idx].calls.push(Call {
                                    name: ident,
                                    line: lineno,
                                });
                            }
                        }
                    }
                }
            } else {
                i += 1;
            }
        }
    }
    // Unclosed blocks at EOF: close every open fn at the last line.
    for ctx in stack {
        if let CtxKind::Fn { idx } = ctx.kind {
            out.fns[idx].end_line = f.code.len();
        }
    }
    out
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn innermost_fn(stack: &[Ctx]) -> Option<usize> {
    stack.iter().rev().find_map(|c| match c.kind {
        CtxKind::Fn { idx } => Some(idx),
        _ => None,
    })
}

fn current_impl_type(stack: &[Ctx]) -> Option<String> {
    stack.iter().rev().find_map(|c| match &c.kind {
        CtxKind::Impl { type_, .. } => type_.clone(),
        _ => None,
    })
}

fn current_impl_trait(stack: &[Ctx]) -> Option<String> {
    stack.iter().rev().find_map(|c| match &c.kind {
        CtxKind::Impl { trait_, .. } => trait_.clone(),
        _ => None,
    })
}

fn current_module(base: &str, stack: &[Ctx]) -> String {
    let mut parts: Vec<&str> = if base.is_empty() {
        Vec::new()
    } else {
        base.split("::").collect()
    };
    for ctx in stack {
        if let CtxKind::Mod { name } = &ctx.kind {
            parts.push(name);
        }
    }
    parts.join("::")
}

/// Parse an impl header (the text between `impl` and `{`) into
/// `(self_type, trait_name)`: last path segment of each side, generics
/// and where-clauses ignored.
fn parse_impl_header(text: &str) -> (Option<String>, Option<String>) {
    let text = match text.find(" where ") {
        Some(p) => &text[..p],
        None => text,
    };
    let mut angle = 0usize;
    let mut seen_any = false;
    let mut trait_side: Option<String> = None;
    let mut last: Option<String> = None;
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '<' {
            angle += 1;
            i += 1;
        } else if c == '>' {
            angle = angle.saturating_sub(1);
            i += 1;
        } else if angle == 0 && is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            match ident.as_str() {
                "for" => {
                    // Everything before `for` named the trait.
                    trait_side = last.take();
                }
                "dyn" | "mut" | "const" | "unsafe" => {}
                _ => {
                    last = Some(ident);
                    seen_any = true;
                }
            }
        } else {
            i += 1;
        }
    }
    if !seen_any {
        return (None, None);
    }
    (last, trait_side)
}

/// Parsed pieces of a fn signature (the text between the name and `{`).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FnSig {
    /// Whitespace-normalized return type, `None` for `()`.
    pub ret: Option<String>,
    /// True for `&mut self` / `mut self` receivers.
    pub mut_self: bool,
}

/// Parse a fn header: generics are skipped, the first top-level paren
/// group yields the receiver, a following `->` yields the return type
/// (cut at `where`). Tolerant by construction — anything unparseable
/// just produces fewer facts, never an error.
fn parse_fn_header(text: &str) -> FnSig {
    let chars: Vec<char> = text.chars().collect();
    let n = chars.len();
    let mut angle = 0usize;
    let mut open = None;
    for (i, &c) in chars.iter().enumerate() {
        match c {
            '<' => angle += 1,
            // Ignore `->`: an arrow before the params cannot occur.
            '>' if i == 0 || chars[i - 1] != '-' => angle = angle.saturating_sub(1),
            '(' if angle == 0 => {
                open = Some(i);
                break;
            }
            _ => {}
        }
    }
    let Some(open) = open else {
        return FnSig::default();
    };
    let mut depth = 1usize;
    let mut close = n;
    for (i, &c) in chars.iter().enumerate().skip(open + 1) {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    close = i;
                    break;
                }
            }
            _ => {}
        }
    }
    // The receiver, if any, is the first parameter.
    let receiver: String = chars[open + 1..close.min(n)]
        .iter()
        .take_while(|&&c| c != ',')
        .collect();
    let receiver = receiver.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut sig = FnSig {
        mut_self: receiver.contains("mut self"),
        ret: None,
    };
    let rest: String = chars[(close + 1).min(n)..].iter().collect();
    if let Some(arrow) = rest.find("->") {
        let ret = rest[arrow + 2..].trim();
        let ret = match ret.find("where") {
            Some(p) if ret[..p].ends_with(' ') || p == 0 => ret[..p].trim(),
            _ => ret,
        };
        let ret = ret.split_whitespace().collect::<Vec<_>>().join(" ");
        if !ret.is_empty() && ret != "()" {
            sig.ret = Some(ret);
        }
    }
    sig
}

// ---------------------------------------------------------------------------
// Workspace graph
// ---------------------------------------------------------------------------

/// The whole-workspace view: every function, plus a name-resolution
/// index over the callable (non-test, library) subset.
#[derive(Debug, Default)]
pub struct WorkspaceGraph {
    /// Every recognized function, files in path order, defs in source
    /// order within a file.
    pub fns: Vec<FnDef>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl WorkspaceGraph {
    /// Assemble the graph from per-file skeletons (one `FileGraph` per
    /// analyzed file, in deterministic file order).
    pub fn build(files: Vec<FileGraph>) -> Self {
        let mut fns = Vec::new();
        for fg in files {
            fns.extend(fg.fns);
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, d) in fns.iter().enumerate() {
            // Library code cannot call into test regions, test-like
            // files, or binary targets (`main.rs`) — edges
            // into them would only manufacture false paths.
            if d.in_test || d.kind != FileKind::Library || crate::is_binary_target(&d.file) {
                continue;
            }
            by_name.entry(d.name.clone()).or_default().push(i);
        }
        WorkspaceGraph { fns, by_name }
    }

    /// Every callable function named `name`.
    pub fn resolve(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Indices of functions matching a predicate.
    pub fn find<P: Fn(&FnDef) -> bool>(&self, pred: P) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| pred(&self.fns[i]))
            .collect()
    }

    /// True when `start` can reach any function in `sinks` through call
    /// edges plus the supplied `bridges` (extra edges modelling data
    /// handoffs the call graph cannot see, e.g. demands deposited in an
    /// `ExecContext` being settled later by `Simulation::finish`).
    pub fn reaches_any(
        &self,
        start: usize,
        sinks: &std::collections::BTreeSet<usize>,
        bridges: &BTreeMap<usize, Vec<usize>>,
    ) -> bool {
        if sinks.contains(&start) {
            return true;
        }
        let mut seen = vec![false; self.fns.len()];
        seen[start] = true;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(cur) = queue.pop_front() {
            let push = |next: usize,
                        seen: &mut Vec<bool>,
                        queue: &mut std::collections::VecDeque<usize>|
             -> bool {
                if sinks.contains(&next) {
                    return true;
                }
                if !seen[next] {
                    seen[next] = true;
                    queue.push_back(next);
                }
                false
            };
            for call in &self.fns[cur].calls {
                for &next in self.resolve(&call.name) {
                    if push(next, &mut seen, &mut queue) {
                        return true;
                    }
                }
            }
            if let Some(extra) = bridges.get(&cur) {
                for &next in extra {
                    if push(next, &mut seen, &mut queue) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Multi-source forward reachability: `out[i]` is true when any of
    /// `starts` reaches function `i` (inclusive) over call edges. Used
    /// by the ledger-flow rule to prove every charge site sits under a
    /// settlement anchor.
    pub fn reachable_from(&self, starts: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.fns.len()];
        let mut queue: std::collections::VecDeque<usize> = VecDeque::new();
        for &s in starts {
            if s < seen.len() && !seen[s] {
                seen[s] = true;
                queue.push_back(s);
            }
        }
        while let Some(cur) = queue.pop_front() {
            for call in &self.fns[cur].calls {
                for &next in self.resolve(&call.name) {
                    if !seen[next] {
                        seen[next] = true;
                        queue.push_back(next);
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;
    use crate::FileInfo;

    fn graph_of(rel: &str, src: &str) -> FileGraph {
        let (crate_name, kind) = crate::classify(rel).expect("classifiable");
        let info = FileInfo {
            rel,
            crate_name: &crate_name,
            kind,
        };
        extract(&info, &scan(src))
    }

    #[test]
    fn recognizes_fns_impls_and_calls() {
        let src = "\
impl DiskDevice {
    pub fn serve(&mut self, at: SimInstant) -> Reservation {
        self.machine.set_state(at, ACTIVE);
        helper(at)
    }
}
fn helper(at: SimInstant) -> Reservation {
    make(at)
}
";
        let g = graph_of("crates/sim/src/disk.rs", src);
        assert_eq!(g.fns.len(), 2);
        let serve = &g.fns[0];
        assert_eq!(serve.name, "serve");
        assert_eq!(serve.impl_type.as_deref(), Some("DiskDevice"));
        assert_eq!(serve.impl_trait, None);
        assert_eq!(serve.line, 2);
        assert_eq!(serve.end_line, 5);
        let names: Vec<&str> = serve.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["set_state", "helper"]);
        assert_eq!(g.fns[1].name, "helper");
        assert_eq!(g.fns[1].impl_type, None);
        assert_eq!(g.fns[1].calls[0].name, "make");
    }

    #[test]
    fn trait_impls_and_module_paths() {
        let src = "\
impl Operator for ColScan {
    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        ctx.charge_read(t, b, a);
        Ok(None)
    }
}
mod inner {
    pub fn nested() {
        deep();
    }
}
";
        let g = graph_of("crates/query/src/colscan.rs", src);
        let next = &g.fns[0];
        assert_eq!(next.impl_trait.as_deref(), Some("Operator"));
        assert_eq!(next.impl_type.as_deref(), Some("ColScan"));
        assert_eq!(next.module, "colscan");
        let nested = &g.fns[1];
        assert_eq!(nested.module, "colscan::inner");
    }

    #[test]
    fn generic_impl_headers_parse() {
        assert_eq!(
            parse_impl_header("<'a> fmt::Display for Diagnostic<'a> "),
            (Some("Diagnostic".to_string()), Some("Display".to_string()))
        );
        assert_eq!(
            parse_impl_header(" EnergyLedger "),
            (Some("EnergyLedger".to_string()), None)
        );
        assert_eq!(
            parse_impl_header("<C: Sync> Runner<C> "),
            (Some("Runner".to_string()), None)
        );
    }

    #[test]
    fn macros_and_constructors_are_not_calls() {
        let src = "\
fn f() {
    let v = vec![1, 2];
    let s = format!(\"{}\", 1);
    let x = Some(3);
    let e = SimError::UnknownDevice(msg);
    real_call(x);
}
";
        let g = graph_of("crates/sim/src/x.rs", src);
        let names: Vec<&str> = g.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["real_call"]);
    }

    #[test]
    fn multiline_signatures_and_array_semicolons() {
        let src = "\
pub fn run<C, R, F>(&self, configs: &[C], f: F) -> Vec<R>
where
    F: Fn(usize, &C) -> R + Sync,
{
    inner(configs)
}
fn decl_only(x: [u8; 4]);
fn after(x: [u8; 4]) -> u8 {
    x[0]
}
";
        let g = graph_of("crates/sim/src/x.rs", src);
        let names: Vec<&str> = g.fns.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["run", "after"]);
        assert_eq!(g.fns[0].calls[0].name, "inner");
    }

    #[test]
    fn test_region_fns_are_not_resolution_targets() {
        let src = "\
pub fn lib_fn() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
";
        let g = graph_of("crates/sim/src/x.rs", src);
        let wg = WorkspaceGraph::build(vec![g]);
        assert_eq!(wg.resolve("lib_fn").len(), 1);
        assert!(wg.resolve("helper").is_empty());
    }

    #[test]
    fn fn_signatures_yield_ret_and_receiver() {
        let src = "\
impl DiskDevice {
    pub fn serve(&mut self, at: SimInstant, bytes: u64) -> Joules {
        body()
    }
    pub fn peek(&self) -> Option<SimInstant> {
        None
    }
}
pub fn run_chaos(
    fleet: &mut [Machine],
    schedule: &ChaosSchedule,
) -> Result<ChaosReport, ClusterError>
where
    ChaosSchedule: Sized,
{
    body()
}
";
        let g = graph_of("crates/sim/src/disk.rs", src);
        let serve = &g.fns[0];
        assert!(serve.mut_self);
        assert_eq!(serve.ret.as_deref(), Some("Joules"));
        let peek = &g.fns[1];
        assert!(!peek.mut_self);
        assert_eq!(peek.ret.as_deref(), Some("Option<SimInstant>"));
        let chaos = &g.fns[2];
        assert!(!chaos.mut_self);
        assert_eq!(
            chaos.ret.as_deref(),
            Some("Result<ChaosReport, ClusterError>")
        );
    }

    #[test]
    fn generic_fn_headers_find_the_return_type() {
        let src = "\
pub fn run<C: Sync, R, F>(items: &[C], f: F) -> Vec<R> {
    body()
}
fn plain() {
    body()
}
";
        let g = graph_of("crates/sim/src/x.rs", src);
        assert_eq!(g.fns[0].ret.as_deref(), Some("Vec<R>"));
        assert_eq!(g.fns[1].ret, None);
    }

    #[test]
    fn reachable_from_walks_call_edges_forward() {
        let src = "\
pub fn finish() {
    settle();
}
fn settle() {
    book();
}
fn book() {}
fn orphan() {}
";
        let g = graph_of("crates/sim/src/x.rs", src);
        let wg = WorkspaceGraph::build(vec![g]);
        let start = wg.find(|d| d.name == "finish");
        let seen = wg.reachable_from(&start);
        let idx = |n: &str| wg.find(|d| d.name == n)[0];
        assert!(seen[idx("finish")] && seen[idx("settle")] && seen[idx("book")]);
        assert!(!seen[idx("orphan")]);
    }
}
