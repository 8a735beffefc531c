//! Text helpers shared by the workspace's hand-rolled exporters.

use std::fmt::Write as _;

/// Escape a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let _ = JsonEscaped(&mut out).write_str(s);
    out
}

/// A [`std::fmt::Write`] sink that JSON-escapes everything written
/// through it into the wrapped buffer: `write!(JsonEscaped(&mut out),
/// "{value}")` is [`json_escape`] of a `Display` value without the
/// intermediate `String`s.
pub struct JsonEscaped<'a>(pub &'a mut String);

impl std::fmt::Write for JsonEscaped<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let out = &mut *self.0;
        // Metric names, event names and argument keys never need it.
        if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
            out.push_str(s);
            return Ok(());
        }
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
                c => out.push(c),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\tz"), "x\\ny\\tz");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn escaping_sink_matches_json_escape() {
        let mut out = String::from("[");
        let _ = write!(JsonEscaped(&mut out), "a\"b:{}", 7);
        assert_eq!(out, format!("[{}:7", json_escape("a\"b")));
    }
}
