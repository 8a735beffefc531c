//! SARIF 2.1.0 output — hand-rolled, schema-conformant, no serde.
//!
//! The linter's diagnostics map directly onto the SARIF result model:
//! one `run` from one `tool.driver` (grail-lint), the full rule
//! registry as `reportingDescriptor`s, and one `result` per
//! [`Diagnostic`] carrying `ruleId`, `ruleIndex`, a `message` and a
//! physical location (workspace-relative URI + 1-based start line).
//! Everything the serializer emits is either a literal from this file
//! or passes through [`json_escape`], so the output is valid JSON for
//! any diagnostic content.

use crate::rules::RULES;
use crate::Diagnostic;
use grail_metrics::text::json_escape;

/// Index of `rule` in the shipped registry (usize::MAX if unknown —
/// cannot happen for diagnostics the engine produced).
fn rule_index(rule: &str) -> usize {
    RULES
        .iter()
        .position(|r| r.id == rule)
        .unwrap_or(usize::MAX)
}

/// Render diagnostics as a complete SARIF 2.1.0 log, pretty-printed
/// with two-space indentation and a trailing newline.
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"grail-lint\",\n");
    out.push_str("          \"informationUri\": \"https://github.com/grail/grail\",\n");
    out.push_str(&format!(
        "          \"version\": \"{}\",\n",
        json_escape(env!("CARGO_PKG_VERSION"))
    ));
    out.push_str("          \"rules\": [\n");
    for (i, r) in RULES.iter().enumerate() {
        out.push_str("            {\n");
        out.push_str(&format!(
            "              \"id\": \"{}\",\n",
            json_escape(r.id)
        ));
        out.push_str(&format!(
            "              \"shortDescription\": {{ \"text\": \"{}\" }},\n",
            json_escape(r.summary)
        ));
        out.push_str("              \"defaultConfiguration\": { \"level\": \"error\" }\n");
        out.push_str(if i + 1 == RULES.len() {
            "            }\n"
        } else {
            "            },\n"
        });
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str("        {\n");
        out.push_str(&format!(
            "          \"ruleId\": \"{}\",\n",
            json_escape(d.rule)
        ));
        out.push_str(&format!(
            "          \"ruleIndex\": {},\n",
            rule_index(d.rule)
        ));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{ \"text\": \"{}\" }},\n",
            json_escape(&d.message)
        ));
        out.push_str("          \"locations\": [\n            {\n");
        out.push_str("              \"physicalLocation\": {\n");
        out.push_str(&format!(
            "                \"artifactLocation\": {{ \"uri\": \"{}\" }},\n",
            json_escape(&d.file)
        ));
        // Region: all diagnostics are single-line, so endLine mirrors
        // startLine; column spans are emitted when the rule recorded
        // one (col 0 means "whole line" and stays implicit — SARIF
        // columns are 1-based).
        if d.col > 0 && d.end_col > d.col {
            out.push_str(&format!(
                "                \"region\": {{ \"startLine\": {}, \"startColumn\": {}, \
                 \"endLine\": {}, \"endColumn\": {} }}\n",
                d.line, d.col, d.line, d.end_col
            ));
        } else {
            out.push_str(&format!(
                "                \"region\": {{ \"startLine\": {}, \"endLine\": {} }}\n",
                d.line, d.line
            ));
        }
        out.push_str("              }\n            }\n          ]\n");
        out.push_str(if i + 1 == diags.len() {
            "        }\n"
        } else {
            "        },\n"
        });
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sarif_log_contains_schema_rules_and_results() {
        let diags = vec![Diagnostic::new(
            "crates/sim/src/x.rs",
            7,
            "wall-clock",
            "`Instant::now` is a \"bad\" idea",
        )
        .with_span(18, 30)];
        let s = to_sarif(&diags);
        assert!(s.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"grail-lint\""));
        assert!(s.contains("\"id\": \"charge-reachability\""));
        assert!(s.contains("\"ruleId\": \"wall-clock\""));
        assert!(s.contains("\"ruleIndex\": "));
        assert!(s.contains(
            "\"region\": { \"startLine\": 7, \"startColumn\": 18, \"endLine\": 7, \
             \"endColumn\": 30 }"
        ));
        // A span-less diagnostic still carries endLine.
        let plain = to_sarif(&[Diagnostic::new("a.rs", 3, "wall-clock", "m")]);
        assert!(plain.contains("\"region\": { \"startLine\": 3, \"endLine\": 3 }"));
        // The quote inside the message must arrive escaped.
        assert!(s.contains("a \\\"bad\\\" idea"));
        // Balanced braces/brackets — a cheap structural sanity check on
        // top of the CI-side real JSON parse.
        let depth = s.chars().fold(0i32, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn empty_diagnostics_is_still_a_valid_log() {
        let s = to_sarif(&[]);
        assert!(s.contains("\"results\": [\n      ]"));
    }
}
