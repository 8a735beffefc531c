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
fn every_member_crate_has_a_layer() {
    // Guard against `layering` passing vacuously or going stale: the
    // layer table names exactly the member crates plus the root
    // package, and DESIGN §7's table puts each at the same layer.
    let root = workspace_root();
    let (_, manifests) = grail_lint::workspace_sources(&root).expect("readable");
    assert!(
        manifests.iter().any(|m| m.rel == "Cargo.toml"),
        "root manifest missing"
    );
    let mut members: Vec<&str> = manifests
        .iter()
        .filter_map(|m| m.rel.strip_prefix("crates/")?.strip_suffix("/Cargo.toml"))
        .chain(["grail"])
        .collect();
    members.sort_unstable();
    let mut layers = grail_lint::rules::LAYERS.to_vec();
    layers.sort_unstable();
    let named: Vec<&str> = layers.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        named, members,
        "LAYERS must name every member crate plus `grail`, once each"
    );

    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    let (_, section) = design
        .split_once("**Layering.**")
        .expect("DESIGN §7 has a layer table");
    let mut documented: Vec<(&str, u32)> = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|row| {
            let mut cells = row.split('|').skip(1);
            let layer: u32 = cells.next()?.trim().parse().ok()?;
            let crates = cells.next()?.split('`').skip(1).step_by(2);
            Some(crates.map(move |name| (name, layer)))
        })
        .flatten()
        .collect();
    documented.sort_unstable();
    assert_eq!(
        documented, layers,
        "DESIGN §7's layer table disagrees with LAYERS"
    );
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
    // Every registered rule appears in at least one fixture above; the
    // count is what the binary prints as `workspace clean (12 rules)`.
    assert_eq!(grail_lint::rules::RULES.len(), 12);
    let exercised: std::collections::BTreeSet<&str> = cases
        .iter()
        .map(|(_, _, want)| *want)
        .chain(["layering"])
        .collect();
    for rule in grail_lint::rules::RULES {
        assert!(
            exercised.contains(rule.id),
            "rule `{}` has no trigger fixture in this test",
            rule.id
        );
    }
}
