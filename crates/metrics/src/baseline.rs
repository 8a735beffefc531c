//! Watchdog baselines: a flat `{"name": number}` JSON document, plus
//! exact comparison and rustc-style drift rendering.
//!
//! The format is deliberately minimal — sorted keys, one entry per
//! line, shortest-roundtrip floats — so a committed baseline diffs
//! cleanly in review and regenerating it from an unchanged run is a
//! byte-identical no-op. Parsing is hand-rolled for the same reason
//! this crate has no dependencies: layer 0 must stay std-only.

/// One metric whose value changed (or that appeared/vanished).
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Baseline key.
    pub key: String,
    /// Committed baseline value (`None` when the key is new).
    pub baseline: Option<f64>,
    /// Current run's value (`None` when the key vanished).
    pub current: Option<f64>,
}

impl Drift {
    /// Signed relative drift, when both sides exist and the baseline is
    /// non-zero.
    pub fn relative(&self) -> Option<f64> {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) if b != 0.0 => Some((c - b) / b),
            _ => None,
        }
    }
}

/// Render `entries` (sorted by the caller) as the baseline document.
pub fn render_baseline(entries: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        out.push_str(&format!(
            "  \"{k}\": {v}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("}\n");
    out
}

/// Parse a flat `{"key": number}` JSON document, returning entries in
/// file order. Rejects anything nested or non-numeric.
pub fn parse_baseline(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut entries = Vec::new();
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or_else(|| "baseline must be a JSON object".to_string())?;
    for part in split_top_level(body) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, value) = part
            .split_once(':')
            .ok_or_else(|| format!("missing ':' in baseline entry `{part}`"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("baseline key must be quoted: `{part}`"))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("baseline value for `{key}` is not a number: `{value}`"))?;
        entries.push((key.to_string(), value));
    }
    Ok(entries)
}

/// Split on top-level commas (keys never contain commas in this flat
/// format, but quoted splitting keeps the parser honest).
fn split_top_level(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_string = false;
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
}

/// Compare `current` against `baseline` exactly: every summary value is
/// simulated and bit-stable, so any change is a drift. Missing and extra
/// keys count as drift too.
pub fn compare(baseline: &[(String, f64)], current: &[(String, f64)]) -> Vec<Drift> {
    let mut drifts = Vec::new();
    for (k, b) in baseline {
        let c = current.iter().find(|(ck, _)| ck == k).map(|(_, c)| *c);
        if c.is_none_or(|c| c.to_bits() != b.to_bits()) {
            drifts.push(Drift {
                key: k.clone(),
                baseline: Some(*b),
                current: c,
            });
        }
    }
    for (k, c) in current {
        if !baseline.iter().any(|(bk, _)| bk == k) {
            drifts.push(Drift {
                key: k.clone(),
                baseline: None,
                current: Some(*c),
            });
        }
    }
    drifts
}

/// Render drifts as rustc-style diagnostics against `baseline_path`,
/// ending with the regeneration hint. Empty input renders empty.
pub fn render_drifts(drifts: &[Drift], baseline_path: &str, regen_cmd: &str) -> String {
    let mut out = String::new();
    for d in drifts {
        let headline = match (d.baseline, d.current) {
            (Some(_), None) => format!("error[watchdog]: `{}` vanished from the run", d.key),
            (None, Some(_)) => format!("error[watchdog]: `{}` is not in the baseline", d.key),
            _ => {
                let rel = d.relative().unwrap_or(f64::INFINITY);
                format!(
                    "error[watchdog]: `{}` drifted {}{:.2}%",
                    d.key,
                    if rel >= 0.0 { "+" } else { "" },
                    rel * 100.0
                )
            }
        };
        out.push_str(&headline);
        out.push('\n');
        out.push_str(&format!("  --> {baseline_path}\n"));
        out.push_str("   |\n");
        if let Some(b) = d.baseline {
            out.push_str(&format!("   | baseline: {b}\n"));
        }
        if let Some(c) = d.current {
            out.push_str(&format!("   | current:  {c}\n"));
        }
        out.push_str("   |\n");
    }
    if !drifts.is_empty() {
        out.push_str(&format!(
            "error: energy/SLO regression — {} metric(s) drifted\n",
            drifts.len()
        ));
        out.push_str(&format!(
            "  = help: if the drift is intentional, regenerate the baseline with `{regen_cmd}` and commit the diff\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn render_parse_roundtrip_is_exact() {
        let e = entries(&[
            ("availability", 0.9732),
            ("joules_per_query", 12.25),
            ("shed_rate", 0.011718750000000002),
        ]);
        let text = render_baseline(&e);
        assert_eq!(parse_baseline(&text).unwrap(), e);
        // Regenerating from the parse is byte-identical.
        assert_eq!(render_baseline(&parse_baseline(&text).unwrap()), text);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(parse_baseline("[]").is_err());
        assert!(parse_baseline("{\"a\" 1}").is_err());
        assert!(parse_baseline("{\"a\": \"b\"}").is_err());
        assert!(parse_baseline("{}").unwrap().is_empty());
    }

    #[test]
    fn compare_flags_only_changed_keys() {
        let base = entries(&[("a", 100.0), ("b", 1.0), ("gone", 5.0)]);
        let cur = entries(&[("a", 100.0), ("b", 1.2), ("new", 7.0)]);
        let drifts = compare(&base, &cur);
        let keys: Vec<&str> = drifts.iter().map(|d| d.key.as_str()).collect();
        assert_eq!(keys, vec!["b", "gone", "new"]);
        assert!((drifts[0].relative().unwrap() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn rustc_style_rendering_names_the_baseline() {
        let drifts = compare(
            &entries(&[("joules_per_query", 10.0)]),
            &entries(&[("joules_per_query", 11.0)]),
        );
        let text = render_drifts(&drifts, "crates/bench/baselines/watchdog.json", "regen");
        assert!(text.contains("error[watchdog]: `joules_per_query` drifted +10.00%"));
        assert!(text.contains("--> crates/bench/baselines/watchdog.json"));
        assert!(text.contains("baseline: 10"));
        assert!(text.contains("current:  11"));
        assert!(text.contains("= help: if the drift is intentional"));
        assert_eq!(render_drifts(&[], "p", "c"), "");
    }
}
