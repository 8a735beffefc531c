//! Source scanning: comment/string stripping, suppression pragmas, and
//! `#[cfg(test)]` region detection.
//!
//! The scanner turns raw Rust source into per-line *code text* in which
//! comments and string-literal contents have been blanked out, so rules
//! match real code tokens and never fire on doc prose or fixture
//! strings. While stripping, it collects `// grail-lint:` suppression
//! pragmas and marks the line ranges covered by `#[cfg(test)]` items.

/// Scope of a suppression pragma.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PragmaScope {
    /// Suppresses diagnostics on one 1-based line.
    Line(usize),
    /// Suppresses the rule for the whole file.
    File,
}

/// A parsed `// grail-lint: allow(rule-id, reason)` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// The rule being suppressed.
    pub rule: String,
    /// The mandatory human justification.
    pub reason: String,
    /// What the pragma covers.
    pub scope: PragmaScope,
    /// 1-based line of the pragma comment itself.
    pub at: usize,
}

/// A pragma the scanner could not accept (missing reason, bad syntax).
#[derive(Debug, Clone)]
pub struct PragmaError {
    /// 1-based line of the offending comment.
    pub at: usize,
    /// Why it was rejected.
    pub message: String,
}

/// One scanned source file.
#[derive(Debug)]
pub struct ScannedFile {
    /// Per-line code text, comments and string contents blanked.
    pub code: Vec<String>,
    /// Per-line original text. Blanking is column-preserving, so a byte
    /// offset into `code[i]` indexes the same character in `raw[i]` —
    /// which is how rules that must *read* a string literal (e.g.
    /// metric-hygiene) recover its contents.
    pub raw: Vec<String>,
    /// `in_test[i]` is true when line `i+1` sits inside a
    /// `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Well-formed suppression pragmas.
    pub pragmas: Vec<Pragma>,
    /// Malformed pragmas (always reported as errors).
    pub pragma_errors: Vec<PragmaError>,
}

impl ScannedFile {
    /// True when the 1-based `line` is inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: usize) -> bool {
        line >= 1 && self.in_test.get(line - 1).copied().unwrap_or(false)
    }
}

/// Marker every pragma comment must start with (after `//`).
pub const PRAGMA_TAG: &str = "grail-lint:";

struct RawPragma {
    rule: String,
    reason: String,
    file_scope: bool,
    at: usize,
    /// True when the pragma comment shares its line with code, in which
    /// case it covers that line; otherwise it covers the next code line.
    trailing: bool,
}

/// Strip `source` and collect pragmas and test regions.
pub fn scan(source: &str) -> ScannedFile {
    let (code, comments) = strip(source);
    let in_test = mark_test_regions(&code);
    let mut pragmas = Vec::new();
    let mut pragma_errors = Vec::new();
    for (line_idx, text) in comments {
        let at = line_idx + 1;
        let trailing = !code[line_idx].trim().is_empty();
        parse_pragma_comment(&text, at, trailing, &mut pragmas, &mut pragma_errors);
    }
    let pragmas = pragmas
        .into_iter()
        .filter_map(|p| {
            if p.file_scope {
                return Some(Pragma {
                    rule: p.rule,
                    reason: p.reason,
                    scope: PragmaScope::File,
                    at: p.at,
                });
            }
            let target = if p.trailing {
                Some(p.at)
            } else {
                // A pragma on its own line covers the next line that
                // carries code.
                (p.at..code.len()).find_map(|i| {
                    if code[i].trim().is_empty() {
                        None
                    } else {
                        Some(i + 1)
                    }
                })
            };
            match target {
                Some(line) => Some(Pragma {
                    rule: p.rule,
                    reason: p.reason,
                    scope: PragmaScope::Line(line),
                    at: p.at,
                }),
                None => {
                    pragma_errors.push(PragmaError {
                        at: p.at,
                        message: "pragma has no following code line to cover".to_string(),
                    });
                    None
                }
            }
        })
        .collect();
    // `lines()` drops the empty segment after a trailing newline that
    // `strip` keeps; pad so `raw` and `code` index identically.
    let mut raw: Vec<String> = source.lines().map(str::to_string).collect();
    raw.resize(code.len(), String::new());
    ScannedFile {
        code,
        raw,
        in_test,
        pragmas,
        pragma_errors,
    }
}

/// Blank comments and string contents, preserving line structure *and*
/// column positions: every blanked character becomes one space (newlines
/// stay newlines), so byte offsets into the stripped text are byte
/// offsets into the original line — which is what lets diagnostics carry
/// exact column spans and keeps tokens on either side of a blanked
/// region (`x/*c*/y`) from merging.
/// Returns the per-line code text plus every `//` comment's text keyed
/// by 0-based line index.
fn strip(source: &str) -> (Vec<String>, Vec<(usize, String)>) {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut line = 0usize;
    let mut i = 0usize;
    let n = chars.len();
    let at = |i: usize| if i < n { chars[i] } else { '\0' };
    // Blank one source char: a space in place of code, a real newline so
    // line structure survives.
    let blank = |out: &mut String, line: &mut usize, c: char| {
        if c == '\n' {
            out.push('\n');
            *line += 1;
        } else {
            out.push(' ');
        }
    };
    while i < n {
        let c = chars[i];
        if c == '\n' {
            out.push('\n');
            line += 1;
            i += 1;
        } else if c == '/' && at(i + 1) == '/' {
            // Line comment: capture text, blank it from the code.
            let start = i;
            while i < n && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            comments.push((line, text));
        } else if c == '/' && at(i + 1) == '*' {
            // Block comment, possibly nested; newlines preserved.
            let mut depth = 1usize;
            out.push_str("  ");
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    blank(&mut out, &mut line, chars[i]);
                    i += 1;
                }
            }
        } else if is_raw_string_start(&chars, i) {
            i = skip_raw_string(&chars, i, &mut out, &mut line);
        } else if c == '"' {
            out.push('"');
            i += 1;
            while i < n {
                match chars[i] {
                    '\\' => {
                        out.push(' ');
                        if i + 1 < n {
                            blank(&mut out, &mut line, chars[i + 1]);
                        }
                        i += 2;
                    }
                    '"' => {
                        out.push('"');
                        i += 1;
                        break;
                    }
                    other => {
                        blank(&mut out, &mut line, other);
                        i += 1;
                    }
                }
            }
        } else if c == '\'' {
            // Lifetime (`'a`) or char literal (`'x'`, `'\n'`).
            if at(i + 1) == '\\' {
                // Escaped char literal: blank to the closing quote.
                out.push('\'');
                out.push(' ');
                i += 2;
                while i < n && chars[i] != '\'' {
                    blank(&mut out, &mut line, chars[i]);
                    i += 1;
                }
                out.push('\'');
                i += 1;
            } else if at(i + 2) == '\'' && at(i + 1) != '\'' {
                out.push('\'');
                out.push(' ');
                out.push('\'');
                i += 3;
            } else {
                // Lifetime: keep the tick, let the identifier follow.
                out.push('\'');
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    let code = out.split('\n').map(|l| l.to_string()).collect();
    (code, comments)
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // r"..." , r#"..."# , br"..." , b"..." is plain; only the r-forms
    // are raw. Require a non-identifier char before `r` so identifiers
    // ending in `r` don't trigger.
    let n = chars.len();
    let mut j = i;
    if j < n && chars[j] == 'b' {
        j += 1;
    }
    if j >= n || chars[j] != 'r' {
        return false;
    }
    if i > 0 && is_ident_char(chars[i - 1]) {
        return false;
    }
    let mut k = j + 1;
    while k < n && chars[k] == '#' {
        k += 1;
    }
    k < n && chars[k] == '"'
}

fn skip_raw_string(chars: &[char], mut i: usize, out: &mut String, line: &mut usize) -> usize {
    let n = chars.len();
    if chars[i] == 'b' {
        out.push(' ');
        i += 1;
    }
    out.push(' ');
    i += 1; // past `r`
    let mut hashes = 0usize;
    while i < n && chars[i] == '#' {
        out.push(' ');
        hashes += 1;
        i += 1;
    }
    out.push('"');
    i += 1; // past opening quote
    while i < n {
        if chars[i] == '"' {
            let mut m = 0usize;
            while m < hashes && i + 1 + m < n && chars[i + 1 + m] == '#' {
                m += 1;
            }
            if m == hashes {
                out.push('"');
                for _ in 0..hashes {
                    out.push(' ');
                }
                return i + 1 + hashes;
            }
            out.push(' ');
            i += 1;
        } else {
            if chars[i] == '\n' {
                out.push('\n');
                *line += 1;
            } else {
                out.push(' ');
            }
            i += 1;
        }
    }
    i
}

/// True for characters that can appear in a Rust identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn parse_pragma_comment(
    text: &str,
    at: usize,
    trailing: bool,
    pragmas: &mut Vec<RawPragma>,
    errors: &mut Vec<PragmaError>,
) {
    // The tag must open the comment (`// grail-lint: ...`); comments
    // merely *mentioning* the syntax mid-sentence are prose, not pragmas.
    let head = text.trim_start_matches(['/', '!']).trim_start();
    if !head.starts_with(PRAGMA_TAG) {
        return;
    }
    let body = &head[PRAGMA_TAG.len()..];
    let mut found = false;
    let mut rest = body;
    loop {
        let (kw, file_scope) = match (rest.find("allow-file("), rest.find("allow(")) {
            (Some(a), Some(b)) if a < b => (a, true),
            (Some(a), None) => (a, true),
            (_, Some(b)) => (b, false),
            (None, None) => break,
        };
        let open = kw
            + if file_scope {
                "allow-file(".len()
            } else {
                "allow(".len()
            };
        let Some(close) = matching_paren(rest, open) else {
            errors.push(PragmaError {
                at,
                message: "unclosed `allow(...)` pragma".to_string(),
            });
            return;
        };
        let inner = &rest[open..close];
        match inner.split_once(',') {
            Some((rule, reason)) if !reason.trim().is_empty() => {
                pragmas.push(RawPragma {
                    rule: rule.trim().to_string(),
                    reason: reason.trim().to_string(),
                    file_scope,
                    at,
                    trailing,
                });
            }
            _ => {
                errors.push(PragmaError {
                    at,
                    message: format!(
                        "pragma `allow({})` needs a reason: `allow(rule-id, why this is sound)`",
                        inner.trim()
                    ),
                });
            }
        }
        found = true;
        rest = &rest[close..];
    }
    if !found {
        errors.push(PragmaError {
            at,
            message: "unrecognized grail-lint pragma; expected `allow(rule-id, reason)` or \
                      `allow-file(rule-id, reason)`"
                .to_string(),
        });
    }
}

/// Index just past the `(`'s matching `)`, given `open` pointing at the
/// first char inside the parens.
fn matching_paren(s: &str, open: usize) -> Option<usize> {
    let mut depth = 1usize;
    for (off, c) in s[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off);
                }
            }
            _ => {}
        }
    }
    None
}

/// Mark the line spans of `#[cfg(test)]` items (typically the trailing
/// `mod tests { ... }`).
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let len = code.len();
    let mut out = vec![false; len];
    let mut i = 0usize;
    while i < len {
        if out[i] || !code[i].contains("cfg(test)") {
            i += 1;
            continue;
        }
        // Find the annotated item: skip further attribute-only lines.
        let after_attr = code[i]
            .find("cfg(test)")
            .and_then(|p| code[i][p..].find(']').map(|q| p + q + 1))
            .unwrap_or(0);
        let mut j = if code[i][after_attr..].trim().is_empty() {
            i + 1
        } else {
            i
        };
        while j < len && code[j].trim().is_empty() {
            j += 1;
        }
        while j < len && code[j].trim_start().starts_with("#[") {
            j += 1;
        }
        if j >= len {
            for slot in out.iter_mut().skip(i) {
                *slot = true;
            }
            break;
        }
        // Walk to the end of the item: matching brace block, or the
        // terminating `;` for brace-less items.
        let mut depth = 0usize;
        let mut opened = false;
        let mut k = j;
        while k < len {
            let mut done = false;
            for c in code[k].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            done = true;
                        }
                    }
                    ';' if !opened => done = true,
                    _ => {}
                }
            }
            if done {
                break;
            }
            k += 1;
        }
        let end = k.min(len - 1);
        for slot in out.iter_mut().take(end + 1).skip(i) {
            *slot = true;
        }
        i = end + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        scan(src).code
    }

    #[test]
    fn raw_strings_blank_but_keep_columns() {
        let src = "let s = r#\"HashMap::new()\"#; let x = 1;\n";
        let code = code_of(src);
        assert!(!code[0].contains("HashMap"), "raw string content leaked");
        // Every char of the literal became exactly one output char, so
        // the code after it sits at its original column.
        assert_eq!(code[0].len(), src.trim_end().len());
        assert_eq!(code[0].find("let x"), src.find("let x"));
    }

    #[test]
    fn raw_strings_with_many_hashes_and_byte_prefix() {
        for src in [
            "let s = r##\"a\"# still \"##; f();\n",
            "let s = br#\"bytes\"#; f();\n",
            "let s = r\"plain raw\"; f();\n",
        ] {
            let code = code_of(src);
            assert_eq!(code[0].len(), src.trim_end().len(), "{src:?}");
            assert_eq!(code[0].find("f();"), src.find("f();"), "{src:?}");
            assert!(!code[0].contains("raw") && !code[0].contains("bytes"));
        }
    }

    #[test]
    fn multiline_raw_string_preserves_line_count() {
        let src = "let s = r#\"line one\nInstant::now()\nlast\"#;\nf();\n";
        let scanned = scan(src);
        assert_eq!(scanned.code.len(), src.split('\n').count());
        assert!(scanned.code.iter().all(|l| !l.contains("Instant")));
        assert_eq!(scanned.code[3], "f();");
    }

    #[test]
    fn nested_block_comments_blank_fully() {
        let src = "a /* outer /* inner */ still outer */ b\n";
        let code = code_of(src);
        assert_eq!(code[0].len(), src.trim_end().len());
        assert!(!code[0].contains("inner") && !code[0].contains("outer"));
        assert_eq!(code[0].find('a'), Some(0));
        assert_eq!(code[0].find('b'), src.find('b'));
    }

    #[test]
    fn block_comment_no_longer_merges_tokens() {
        // Before column preservation `x/*c*/y` stripped to `xy` — a
        // token that exists nowhere in the source.
        let code = code_of("let v = x/*c*/y;\n");
        assert!(!code[0].contains("xy"));
        assert!(code[0].contains("x     y"));
    }

    #[test]
    fn strings_blank_to_spaces_keeping_quotes_and_columns() {
        let src = "let s = \"Instant::now() \\\" quoted\"; g();\n";
        let code = code_of(src);
        assert_eq!(code[0].len(), src.trim_end().len());
        assert!(!code[0].contains("Instant"));
        assert_eq!(code[0].find("g();"), src.find("g();"));
        assert_eq!(code[0].matches('"').count(), 2);
    }

    #[test]
    fn char_literals_and_lifetimes_keep_length() {
        let src = "let c = 'x'; let d = '\\n'; fn f<'a>(v: &'a str) {}\n";
        let code = code_of(src);
        assert_eq!(code[0].len(), src.trim_end().len());
        assert!(code[0].contains("'a"), "lifetime must survive");
        assert!(!code[0].contains('x'));
    }

    #[test]
    fn line_comments_blank_to_spaces_and_are_captured() {
        let src = "let a = 1; // trailing HashMap note\n";
        let scanned = scan(src);
        assert!(!scanned.code[0].contains("HashMap"));
        assert_eq!(scanned.code[0].len(), src.trim_end().len());
    }

    #[test]
    fn pragma_on_comment_only_line_still_covers_next_code_line() {
        let src = "// grail-lint: allow(hash-order, fixture)\nuse std::x;\n";
        let scanned = scan(src);
        assert_eq!(scanned.pragmas.len(), 1);
        assert_eq!(scanned.pragmas[0].scope, PragmaScope::Line(2));
    }

    #[test]
    fn trailing_pragma_covers_its_own_line() {
        let src = "use std::x; // grail-lint: allow(hash-order, fixture)\n";
        let scanned = scan(src);
        assert_eq!(scanned.pragmas.len(), 1);
        assert_eq!(scanned.pragmas[0].scope, PragmaScope::Line(1));
    }

    #[test]
    fn unterminated_block_comment_is_all_blank() {
        let code = code_of("a /* never closed\nsecond line\n");
        assert!(code[0].starts_with('a'));
        assert!(code[1].trim().is_empty());
    }
}
