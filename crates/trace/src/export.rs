//! Trace exporters: JSONL and Chrome trace-event JSON (Perfetto).
//!
//! Both writers hand-roll their JSON with a fixed field order, ordered
//! args, and Rust's deterministic shortest-roundtrip `f64` `Display`,
//! so output bytes are a pure function of the recorder's contents:
//! identical runs produce identical files, which CI asserts with `cmp`.

use crate::event::{Arg, ArgValue, Track};
use crate::recorder::Recorder;
use grail_metrics::text::JsonEscaped;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// Append `v` as a JSON number. Rust's `Display` for floats is the
/// shortest decimal that round-trips, never locale-dependent, so this
/// is byte-deterministic. Non-finite values become `null` (JSON has no
/// NaN/Infinity).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append `"<v, JSON-escaped>"`.
fn push_str_lit(out: &mut String, v: impl Display) {
    out.push('"');
    let _ = write!(JsonEscaped(out), "{v}");
    out.push('"');
}

/// Append `,"args":{"k":v,…}` — nothing for an event without arguments.
fn push_args(out: &mut String, args: impl ExactSizeIterator<Item = Arg>) {
    if args.len() == 0 {
        return;
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_lit(out, k);
        out.push(':');
        match v {
            ArgValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::F64(v) => push_f64(out, v),
            ArgValue::Str(s) => push_str_lit(out, s),
            ArgValue::Label { kind, index } => push_str_lit(out, format_args!("{kind}[{index}]")),
        }
    }
    out.push('}');
}

/// Export as JSONL: one JSON object per line — every event (oldest
/// first, timestamps in simulated nanoseconds), then every metric in
/// name order, then a single summary line. This is the format the
/// determinism property test and CI compare byte-for-byte.
pub fn to_jsonl(recorder: &Recorder) -> String {
    let mut out = String::new();
    for ev in recorder.events() {
        let _ = write!(out, "{{\"ts\":{}", ev.at.as_nanos());
        if let Some(dur) = ev.dur {
            let _ = write!(out, ",\"dur\":{dur}");
        }
        let _ = write!(out, ",\"cat\":\"{}\",\"name\":", ev.cat.name());
        push_str_lit(&mut out, ev.name);
        out.push_str(",\"track\":");
        push_str_lit(&mut out, ev.track);
        push_args(&mut out, ev.args());
        out.push_str("}\n");
    }
    let metrics = recorder.metrics();
    for (name, value) in metrics.counters() {
        out.push_str("{\"metric\":");
        push_str_lit(&mut out, name);
        let _ = writeln!(out, ",\"type\":\"counter\",\"value\":{value}}}");
    }
    for (name, hist) in metrics.histograms() {
        out.push_str("{\"metric\":");
        push_str_lit(&mut out, name);
        out.push_str(",\"type\":\"histogram\",\"bounds\":[");
        for (i, b) in hist.bounds().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_f64(&mut out, *b);
        }
        out.push_str("],\"counts\":[");
        for (i, c) in hist.counts().iter().enumerate() {
            let _ = write!(out, "{}{c}", if i > 0 { "," } else { "" });
        }
        let _ = write!(out, "],\"count\":{},\"sum\":", hist.count());
        push_f64(&mut out, hist.sum());
        out.push_str("}\n");
    }
    let _ = writeln!(
        out,
        "{{\"summary\":true,\"events\":{},\"dropped\":{}}}",
        recorder.len(),
        recorder.dropped()
    );
    out
}

/// Deterministic thread-id assignment: distinct tracks in their `Ord`,
/// numbered from 1.
fn track_ids(recorder: &Recorder) -> BTreeMap<Track, u32> {
    let mut ids = BTreeMap::new();
    for ev in recorder.events() {
        ids.insert(ev.track, 0);
    }
    for (tid, slot) in (1..).zip(ids.values_mut()) {
        *slot = tid;
    }
    ids
}

/// Export in the Chrome trace-event JSON format, loadable in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing`.
///
/// Spans map to complete events (`ph:"X"`), instants to `ph:"i"`;
/// timestamps and durations are simulated microseconds. Each [`Track`]
/// becomes a named thread via `thread_name` metadata events.
pub fn to_chrome(recorder: &Recorder) -> String {
    let ids = track_ids(recorder);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (track, tid) in &ids {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":"
        );
        push_str_lit(&mut out, track);
        out.push_str("}}");
    }
    for ev in recorder.events() {
        if !first {
            out.push(',');
        }
        first = false;
        let tid = ids.get(&ev.track).copied().unwrap_or(0);
        match ev.dur {
            Some(dur) => {
                let _ = write!(out, "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":");
                push_f64(&mut out, ev.at.as_micros_f64());
                out.push_str(",\"dur\":");
                push_f64(&mut out, dur as f64 / 1_000.0);
            }
            None => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":"
                );
                push_f64(&mut out, ev.at.as_micros_f64());
            }
        }
        let _ = write!(out, ",\"cat\":\"{}\",\"name\":", ev.cat.name());
        push_str_lit(&mut out, ev.name);
        push_args(&mut out, ev.args());
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Category, TraceEvent, TraceTime};
    use crate::metrics::COUNT_BUCKETS;
    use crate::recorder::TraceSink;
    use grail_metrics::text::json_escape;

    fn sample_recorder() -> Recorder {
        let mut r = Recorder::new(16);
        r.record(
            TraceEvent::span(
                TraceTime::from_nanos(1_000),
                2_500,
                Category::Io,
                "disk_io",
                Track::Device {
                    kind: "disk",
                    index: 0,
                },
            )
            .arg("bytes", 4096u64)
            .arg("joules", 0.125f64),
        );
        r.record(TraceEvent::instant(
            TraceTime::from_nanos(5_000),
            Category::Fault,
            "fault.transient",
            Track::Main,
        ));
        r.metrics_mut().add("io.requests", 1);
        r.metrics_mut().observe("depth", COUNT_BUCKETS, 2.0);
        r
    }

    #[test]
    fn jsonl_has_fixed_field_order_and_metric_lines() {
        let r = sample_recorder();
        let out = to_jsonl(&r);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(
            lines[0],
            "{\"ts\":1000,\"dur\":2500,\"cat\":\"io\",\"name\":\"disk_io\",\
             \"track\":\"disk[0]\",\"args\":{\"bytes\":4096,\"joules\":0.125}}"
        );
        assert_eq!(
            lines[1],
            "{\"ts\":5000,\"cat\":\"fault\",\"name\":\"fault.transient\",\"track\":\"main\"}"
        );
        assert!(lines[2].contains("\"metric\":\"io.requests\""));
        assert!(lines[3].contains("\"type\":\"histogram\""));
        assert_eq!(lines[4], "{\"summary\":true,\"events\":2,\"dropped\":0}");
    }

    #[test]
    fn jsonl_is_byte_identical_across_identical_recorders() {
        assert_eq!(to_jsonl(&sample_recorder()), to_jsonl(&sample_recorder()));
    }

    #[test]
    fn chrome_emits_metadata_spans_and_instants() {
        let r = sample_recorder();
        let out = to_chrome(&r);
        assert!(out.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(out.ends_with("]}"));
        // Two tracks -> two thread_name metadata events; Main sorts first.
        assert!(out.contains("\"name\":\"thread_name\",\"args\":{\"name\":\"main\"}"));
        assert!(out.contains("\"name\":\"thread_name\",\"args\":{\"name\":\"disk[0]\"}"));
        // Span in microseconds: 1000ns -> ts 1, 2500ns -> dur 2.5.
        assert!(out.contains("\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":1,\"dur\":2.5"));
        assert!(out.contains("\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":5"));
        assert_eq!(out, to_chrome(&sample_recorder()));
    }

    #[test]
    fn chrome_output_is_structurally_balanced() {
        // Without a JSON parser dependency, check brace/bracket balance
        // and quote parity as a smoke test; CI does a real parse.
        let out = to_chrome(&sample_recorder());
        let mut depth = 0i64;
        let mut brackets = 0i64;
        let mut in_str = false;
        let mut prev_escape = false;
        for c in out.chars() {
            if in_str {
                if prev_escape {
                    prev_escape = false;
                } else if c == '\\' {
                    prev_escape = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => depth += 1,
                '}' => depth -= 1,
                '[' => brackets += 1,
                ']' => brackets -= 1,
                _ => {}
            }
            assert!(depth >= 0 && brackets >= 0);
        }
        assert_eq!(depth, 0);
        assert_eq!(brackets, 0);
        assert!(!in_str);
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        let f64s = [f64::NAN, 0.25, 3.0].map(|v| {
            let mut out = String::new();
            push_f64(&mut out, v);
            out
        });
        assert_eq!(f64s, ["null", "0.25", "3"]);
    }

    #[test]
    fn labels_and_free_text_export_as_escaped_strings() {
        let mut r = Recorder::new(4);
        r.record(
            TraceEvent::instant(
                TraceTime::ZERO,
                Category::Ledger,
                "ledger.charge",
                Track::Main,
            )
            .arg(
                "component",
                ArgValue::Label {
                    kind: "disk",
                    index: 3,
                },
            )
            .arg("note", "say \"hi\""),
        );
        assert!(to_jsonl(&r).starts_with(
            "{\"ts\":0,\"cat\":\"ledger\",\"name\":\"ledger.charge\",\"track\":\"main\",\
             \"args\":{\"component\":\"disk[3]\",\"note\":\"say \\\"hi\\\"\"}}\n"
        ));
        assert!(to_chrome(&r)
            .ends_with("\"args\":{\"component\":\"disk[3]\",\"note\":\"say \\\"hi\\\"\"}}]}"));
    }

    #[test]
    fn empty_recorder_exports_cleanly() {
        let r = Recorder::new(4);
        let jl = to_jsonl(&r);
        assert_eq!(jl, "{\"summary\":true,\"events\":0,\"dropped\":0}\n");
        assert_eq!(
            to_chrome(&r),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }
}
