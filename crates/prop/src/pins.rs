//! The workspace's pinned 64-bit digests, all in one sorted `pins.txt`
//! at its root, and the one call that checks a test's values against it.
//!
//! A line is `<scope>.<name> 0x<16 hex digits>`; its scope is the key up
//! to the last `.`. [`assert_pinned`] names every line of one scope, so a
//! moved value, a name with no line and a line no test reads all fail,
//! and the message ends with the lines to paste into `pins.txt`. The file
//! is compiled in: a test reads no file at run time.
//!
//! `grail_metrics::baseline` also renders and compares a flat sorted
//! file, but its values are `f64`, which cannot hold a 64-bit digest
//! exactly, and it is library code for EXT-WATCH's output.

const PINS: &str = include_str!("../../../pins.txt");

/// Panics unless the `pins.txt` lines under `scope` are exactly the
/// names in `got`, each with its value; the message lists every
/// mismatch of the scope, then the lines to paste.
#[track_caller]
pub fn assert_pinned<N: AsRef<str>>(scope: &str, got: &[(N, u64)]) {
    let got: Vec<(&str, u64)> = got.iter().map(|(n, v)| (n.as_ref(), *v)).collect();
    check(PINS, scope, &got).unwrap_or_else(|msg| panic!("{msg}"));
}

fn check(pins: &str, scope: &str, got: &[(&str, u64)]) -> Result<(), String> {
    let mut pinned: Vec<(&str, &str)> = entries(pins)
        .filter_map(|(key, value)| Some((key.strip_prefix(scope)?.strip_prefix('.')?, value)))
        .filter(|(name, _)| !name.contains('.'))
        .collect();
    let (mut why, mut paste) = (String::new(), Vec::new());
    for &(name, value) in got {
        let value = format!("{value:#018x}");
        let line = pinned.iter().position(|(n, _)| *n == name);
        why += &match line.map(|i| pinned.remove(i).1) {
            Some(v) if v == value => continue,
            Some(v) => format!("  {name} moved from {v}\n"),
            None => format!("  {name} has no line\n"),
        };
        paste.push(format!("{scope}.{name} {value}\n"));
    }
    for (name, v) in pinned {
        why += &format!("  {name} is read by no test: delete `{scope}.{name} {v}`\n");
    }
    if why.is_empty() {
        return Ok(());
    }
    if !paste.is_empty() {
        paste.sort();
        why += &format!("paste into pins.txt:\n{}", paste.concat());
    }
    Err(format!("pins.txt disagrees under `{scope}`:\n{why}"))
}

/// `(key, value)` of every line that is not blank or a `#` comment.
fn entries(pins: &str) -> impl Iterator<Item = (&str, &str)> {
    pins.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_once(' ').unwrap_or((l, "")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# a comment\na.b.x 0x0000000000000001\na.b.y 0x00000000000000ff\na.bc.z 0x0000000000000002\n";

    fn fails(got: &[(&str, u64)]) -> String {
        check(TEXT, "a.b", got).expect_err("a mismatch")
    }

    #[test]
    fn a_moved_value_prints_its_replacement_line() {
        assert_eq!(check(TEXT, "a.b", &[("y", 0xff), ("x", 1)]), Ok(()));
        let want = "pins.txt disagrees under `a.b`:\n  y moved from 0x00000000000000ff\npaste into pins.txt:\na.b.y 0x0000000000000002\n";
        assert_eq!(fails(&[("x", 1), ("y", 2)]), want);
    }

    #[test]
    fn an_unknown_name_fails_with_the_line_to_add() {
        let want = "pins.txt disagrees under `a.b`:\n  w has no line\npaste into pins.txt:\na.b.w 0x0000000000000003\n";
        assert_eq!(fails(&[("x", 1), ("y", 0xff), ("w", 3)]), want);
    }

    #[test]
    fn a_line_the_call_does_not_name_fails() {
        let want = "pins.txt disagrees under `a.b`:\n  y is read by no test: delete `a.b.y 0x00000000000000ff`\n";
        assert_eq!(fails(&[("x", 1)]), want);
        // A longer or a nested scope's lines are not `a`'s.
        assert_eq!(check(TEXT, "a", &[]), Ok(()));
        assert_eq!(check(TEXT, "a.bc", &[("z", 2)]), Ok(()));
    }

    #[test]
    fn every_mismatch_of_a_scope_is_reported_at_once() {
        let want = "pins.txt disagrees under `a.b`:\n  x moved from 0x0000000000000001\n  v has no line\n  y is read by no test: delete `a.b.y 0x00000000000000ff`\npaste into pins.txt:\na.b.v 0x0000000000000008\na.b.x 0x0000000000000007\n";
        assert_eq!(fails(&[("x", 7), ("v", 8)]), want);
    }

    #[test]
    fn the_committed_file_is_sorted_unique_and_well_formed() {
        let keys: Vec<&str> = entries(PINS).map(|(key, _)| key).collect();
        assert!(
            keys.windows(2).all(|k| k[0] < k[1]),
            "out of order or repeated"
        );
        for (key, value) in entries(PINS) {
            let parsed = value.strip_prefix("0x").map(|d| u64::from_str_radix(d, 16));
            let canonical = parsed.and_then(Result::ok).map(|v| format!("{v:#018x}"));
            assert_eq!(canonical.as_deref(), Some(value), "{key}");
            assert!(key.contains('.'), "{key} has no scope");
        }
    }
}
