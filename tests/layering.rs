//! Crate dependencies point strictly downward in DESIGN §7's layer
//! order; an edge to the same or a higher layer is an architecture
//! regression. The manifests are the one place to look: a `grail_x::`
//! path compiles only if `[dependencies]` lists `grail-x`, and each
//! listed `grail-x` must be named as `grail_x` in the crate's `src/`.
//! Dev-dependencies are exempt in every form, since tests may reach
//! across layers.

use std::fs;
use std::path::Path;

/// DESIGN §7's layer table. A crate may depend only on crates in
/// strictly lower layers.
const LAYERS: &[(&str, u32)] = &[
    ("metrics", 0),
    ("par", 0),
    ("prop", 0),
    ("power", 1),
    ("trace", 1),
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
/// `[target.….dependencies.name]`), and `None` for anything else,
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

/// Every `grail-*` entry of a manifest's dependency tables, as `(line
/// number, name after the prefix)`.
fn grail_deps(manifest: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (i, line) in manifest.lines().enumerate() {
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
        let dep = dep
            .chars()
            .take_while(|&c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            .collect();
        out.push((i + 1, dep));
    }
    out
}

/// Every `grail-*` dependency of crate `from` that points at an equal
/// or higher layer, as `line: message`.
fn back_edges(from: &str, manifest: &str) -> Vec<String> {
    let from_layer = layer_of(from).unwrap_or_else(|| panic!("`{from}` has no layer"));
    let mut out = Vec::new();
    for (line, dep) in grail_deps(manifest) {
        match layer_of(&dep) {
            Some(to_layer) if to_layer >= from_layer => out.push(format!(
                "{line}: `{from}` (layer {from_layer}) must not depend on `{dep}` (layer {to_layer})"
            )),
            _ => {}
        }
    }
    out
}

/// `(crate name, manifest text)` for the root package and every member.
fn manifests() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &Path| fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    let mut out = vec![("grail".to_string(), read(&root.join("Cargo.toml")))];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("crates/ entry").path();
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let name = dir
                .file_name()
                .expect("named dir")
                .to_string_lossy()
                .into_owned();
            out.push((name, read(&manifest)));
        }
    }
    out.sort();
    out
}

#[test]
fn manifests_respect_the_layer_order() {
    let violations: Vec<String> = manifests()
        .iter()
        .flat_map(|(name, text)| {
            back_edges(name, text)
                .into_iter()
                .map(move |v| format!("{name}/Cargo.toml:{v}"))
        })
        .collect();
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// Every `.rs` file under `dir`, comment lines dropped.
fn source_code(dir: &Path) -> String {
    let mut code = String::new();
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("source entry").path();
        if path.is_dir() {
            code += &source_code(&path);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text = fs::read_to_string(&path).expect("source is readable");
            for line in text.lines().filter(|l| !l.trim_start().starts_with("//")) {
                code += line;
                code.push('\n');
            }
        }
    }
    code
}

#[test]
fn every_dependency_is_named_in_its_crate_source() {
    // An edge no `src/` line names is dead: it costs build order and
    // hides the real layering. Tests reach other crates through
    // dev-dependencies, which this does not read.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dead = Vec::new();
    for (name, manifest) in manifests() {
        let dir = match name.as_str() {
            "grail" => root.to_path_buf(),
            member => root.join("crates").join(member),
        };
        let code = source_code(&dir.join("src"));
        for (line, dep) in grail_deps(&manifest) {
            let path = format!("grail_{}", dep.replace('-', "_"));
            if !code.contains(&path) {
                dead.push(format!("{name}/Cargo.toml:{line}: no `{path}` in src/"));
            }
        }
    }
    assert!(dead.is_empty(), "{}", dead.join("\n"));
}

#[test]
fn every_member_crate_has_a_layer() {
    // The table names exactly the member crates plus the root package,
    // and DESIGN §7's table puts each at the same layer, so the check
    // above can neither pass vacuously nor drift from the document.
    let members: Vec<String> = manifests().into_iter().map(|(n, _)| n).collect();
    let mut layers = LAYERS.to_vec();
    layers.sort_unstable();
    let named: Vec<&str> = layers.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        named, members,
        "LAYERS must name every member crate plus `grail`, once each"
    );

    let design = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
        .expect("DESIGN.md is readable");
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
fn back_edges_are_reported_in_every_table_form() {
    let manifest = "\
[package]
name = \"grail-power\"

[dependencies]
grail-trace = { path = \"../trace\" }
grail-metrics.workspace = true

[dependencies.grail-core]
path = \"../core\"

[target.\"cfg(unix)\".dependencies] # unix only
grail-sim = \"0\"

[dev-dependencies]
grail-sim = { path = \"../sim\" }

[dev-dependencies.grail-query]
path = \"../query\"
";
    let lines: Vec<String> = back_edges("power", manifest)
        .iter()
        .map(|v| v.split(':').next().unwrap_or_default().to_string())
        .collect();
    // grail-trace is sideways inside layer 1, grail-core (a table of
    // its own) and grail-sim (a target table) point upward; metrics is
    // below, and both dev-dependency forms are exempt.
    assert_eq!(lines, ["5", "8", "12"], "{manifest}");
}
