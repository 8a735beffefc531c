//! Tier-1 regression gate: the whole workspace must pass grail-lint.
//!
//! Runs the engine over the repository so `cargo test -q` fails the
//! moment a nondeterminism, conservation, or hygiene violation lands —
//! the same check CI's `lint` job runs via the binary.

use std::path::PathBuf;

/// The real workspace root, robust to being built through a symlinked
/// crate directory (canonicalize first, then walk up from crates/lint).
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .canonicalize()
        .expect("manifest dir exists")
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_has_zero_violations() {
    let root = workspace_root();
    let diags = grail_lint::check_workspace(&root).expect("workspace sources are readable");
    assert!(
        diags.is_empty(),
        "grail-lint found {} violation(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_output_is_thread_count_invariant() {
    let root = workspace_root();
    let seq = grail_lint::check_workspace_threads(&root, 1).expect("readable");
    let par = grail_lint::check_workspace_threads(&root, 8).expect("readable");
    assert_eq!(
        seq, par,
        "diagnostics must be byte-identical at any thread count"
    );
}

#[test]
fn semantic_rules_are_live_on_this_workspace() {
    // Guard against the semantic rules passing vacuously: the call
    // graph must actually contain the entries, sinks and conduits the
    // charge-reachability rule reasons about, and the layer table must
    // cover every member crate.
    let root = workspace_root();
    let (files, manifests) = grail_lint::workspace_sources(&root).expect("readable");
    let graphs: Vec<grail_lint::graph::FileGraph> = files
        .iter()
        .filter_map(|f| {
            let (crate_name, kind) = grail_lint::classify(&f.rel)?;
            let info = grail_lint::FileInfo {
                rel: &f.rel,
                crate_name: &crate_name,
                kind,
            };
            Some(grail_lint::graph::extract(
                &info,
                &grail_lint::scan::scan(&f.source),
            ))
        })
        .collect();
    let g = grail_lint::graph::WorkspaceGraph::build(graphs);

    let operators = g.find(|d| {
        d.crate_name == "query" && d.name == "next" && d.impl_trait.as_deref() == Some("Operator")
    });
    assert!(
        operators.len() >= 3,
        "expected several Operator::next entries in crates/query, found {}",
        operators.len()
    );
    let services = g.find(|d| {
        d.crate_name == "sim"
            && d.impl_type.is_some()
            && matches!(d.name.as_str(), "serve" | "compute" | "compute_parallel")
    });
    assert!(
        !services.is_empty(),
        "expected device service events in crates/sim"
    );
    for sink in ["charge", "transfer"] {
        assert!(
            !g.find(|d| {
                d.file == "crates/power/src/ledger.rs"
                    && d.impl_type.as_deref() == Some("EnergyLedger")
                    && d.name == sink
            })
            .is_empty(),
            "expected EnergyLedger::{sink} sink in the ledger file"
        );
    }
    assert!(
        !g.find(|d| d.impl_type.as_deref() == Some("ExecContext") && d.name == "charge_read")
            .is_empty(),
        "expected the ExecContext demand conduit"
    );
    assert!(
        !g.find(|d| d.impl_type.as_deref() == Some("Simulation") && d.name == "finish")
            .is_empty(),
        "expected the Simulation::finish settlement function"
    );
    // The model-coverage rule has a real machine to hold against the
    // grail-check registry: the chaos engine.
    let machines = g.find(|d| {
        d.crate_name == "scheduler"
            && !d.in_test
            && d.mut_self
            && d.name == "step"
            && d.impl_type.as_deref() == Some("Engine")
    });
    assert!(
        !machines.is_empty(),
        "expected the scheduler::chaos::Engine state machine"
    );

    // Every member crate's manifest is collected and has a layer.
    assert!(
        manifests.iter().any(|m| m.rel == "Cargo.toml"),
        "root manifest missing"
    );
    for m in &manifests {
        let Some(name) = m
            .rel
            .strip_prefix("crates/")
            .and_then(|r| r.strip_suffix("/Cargo.toml"))
        else {
            continue;
        };
        assert!(
            grail_lint::rules::LAYERS.iter().any(|(n, _)| *n == name),
            "crate `{name}` missing from the layering table"
        );
    }
}

#[test]
fn every_rule_is_exercised_by_the_engine() {
    // The registry and the diagnostics agree on rule ids: a trigger
    // fixture per family produces a diagnostic carrying a known id.
    // Every trigger is code rustc would accept (given the right items
    // in scope) — a rule that only fires on compile errors guards
    // nothing.
    let cases = [
        (
            "crates/sim/src/fixture.rs",
            "fn f() { let t = std::time::Instant::now(); }\n",
            "wall-clock",
        ),
        // ...in any crate's library code, and in test-like files too.
        (
            "crates/storage/src/fixture.rs",
            "fn f() { let t = std::time::Instant::now(); }\n",
            "wall-clock",
        ),
        (
            "crates/query/tests/fixture.rs",
            "fn f() { let t = std::time::SystemTime::now(); }\n",
            "wall-clock",
        ),
        (
            "crates/buffer/src/fixture.rs",
            "use std::collections::HashMap;\n",
            "hash-order",
        ),
        (
            "crates/power/src/ledger.rs",
            "pub struct EnergyLedger {\n    entries: BTreeMap<ComponentId, Joules>,\n    pub total: Joules,\n}\n",
            "ledger-mut",
        ),
        (
            "crates/core/src/fixture.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            "error-hygiene",
        ),
        (
            "crates/power/src/fixture.rs",
            "fn f(a: Joules, b: Joules) -> bool { a.joules() == b.joules() }\n",
            "float-eq",
        ),
        (
            "crates/query/src/fixture.rs",
            "fn f() { println!(\"x\"); }\n",
            "print-hygiene",
        ),
        (
            "crates/sim/src/fixture.rs",
            "fn f() { std::thread::spawn(|| {}); }\n",
            "thread-confine",
        ),
        ("crates/sim/src/lib.rs", "pub mod x;\n", "unsafe-forbid"),
        (
            "crates/sim/src/fixture.rs",
            "// grail-lint: allow(hash-order)\nfn f() {}\n",
            "pragma",
        ),
        (
            "crates/sim/src/fixture.rs",
            "// grail-lint: allow(hash-order, long gone)\nfn f() {}\n",
            "stale-pragma",
        ),
        (
            "crates/sim/src/fixture.rs",
            "fn f(t: &mut Tracer) { t.count(\"not.in.catalog\", 1); }\n",
            "metric-hygiene",
        ),
    ];
    for (rel, src, want) in cases {
        let diags = grail_lint::check_source(rel, src);
        assert!(
            diags.iter().any(|d| d.rule == want),
            "fixture for `{want}` produced {diags:?}"
        );
        assert!(
            grail_lint::rules::RULES.iter().any(|r| r.id == want),
            "`{want}` missing from the registry"
        );
    }
    // Not even a binary target may time itself.
    let timed = "fn main() { let t = std::time::Instant::now(); }\n";
    let diags = grail_lint::check_source("crates/bench/src/main.rs", timed);
    assert!(
        diags.iter().any(|d| d.rule == "wall-clock"),
        "a self-timing main.rs produced {diags:?}"
    );
    // layering reads manifests, not sources.
    let sf = |rel: &str, src: &str| grail_lint::SourceFile {
        rel: rel.to_string(),
        source: src.to_string(),
    };
    let diags = grail_lint::analyze(
        &[sf("crates/power/src/lib.rs", "#![forbid(unsafe_code)]\n")],
        &[grail_lint::ManifestFile {
            rel: "crates/power/Cargo.toml".to_string(),
            source: "[dependencies]\ngrail-core = { path = \"../core\" }\n".to_string(),
        }],
        1,
    );
    assert!(
        diags.iter().any(|d| d.rule == "layering"),
        "layering fixture produced {diags:?}"
    );
    // charge-reachability needs a multi-file workspace: a ledger in
    // scope and a service path that never reaches it.
    let diags = grail_lint::check_files(&[
        sf(
            "crates/power/src/ledger.rs",
            "impl EnergyLedger {\n    pub fn charge(&mut self, id: ComponentId, e: Joules) {}\n    pub fn transfer(&mut self, a: ComponentId, b: ComponentId, e: Joules) {}\n}\n",
        ),
        sf(
            "crates/sim/src/dev.rs",
            "impl DiskDevice {\n    pub fn serve(&mut self, at: SimInstant) {}\n}\n",
        ),
    ]);
    assert!(
        diags.iter().any(|d| d.rule == "charge-reachability"),
        "charge-reachability fixture produced {diags:?}"
    );
    // ledger-flow likewise needs the ledger file plus a charging
    // function that no settlement anchor (`finish` / `*Report` return)
    // can reach.
    let diags = grail_lint::check_files(&[
        sf(
            "crates/power/src/ledger.rs",
            "impl EnergyLedger {\n    pub fn charge(&mut self, id: ComponentId, e: Joules) {}\n}\n",
        ),
        sf(
            "crates/sim/src/heater.rs",
            "impl Heater {\n    pub fn burn(&mut self, l: &mut EnergyLedger, id: ComponentId, e: Joules) {\n        l.charge(id, e);\n    }\n}\n",
        ),
    ]);
    assert!(
        diags.iter().any(|d| d.rule == "ledger-flow"),
        "ledger-flow fixture produced {diags:?}"
    );
    // model-coverage needs the grail-check registry in scope (a
    // `covers` list) plus a protocol state machine it fails to name.
    let diags = grail_lint::check_files(&[
        sf(
            "crates/check/src/registry.rs",
            "pub const REGISTRY: &[ModelEntry] = &[ModelEntry {\n    name: \"cell\",\n    covers: &[\"sim::parallel::SomethingElse\"],\n}];\n",
        ),
        sf(
            "crates/sim/src/cell.rs",
            "use grail_par::Runner;\nimpl CellRun {\n    fn advance(&mut self, bound: u64) {\n        self.sim.bill_recovery(bound);\n    }\n}\n",
        ),
    ]);
    assert!(
        diags.iter().any(|d| d.rule == "model-coverage"),
        "model-coverage fixture produced {diags:?}"
    );
    // Every registered rule appears in at least one fixture above; the
    // count is what the binary prints as `workspace clean (15 rules)`.
    assert_eq!(grail_lint::rules::RULES.len(), 15);
    let exercised: std::collections::BTreeSet<&str> = cases
        .iter()
        .map(|(_, _, want)| *want)
        .chain([
            "layering",
            "charge-reachability",
            "ledger-flow",
            "model-coverage",
        ])
        .collect();
    for rule in grail_lint::rules::RULES {
        assert!(
            exercised.contains(rule.id),
            "rule `{}` has no trigger fixture in this test",
            rule.id
        );
    }
}
