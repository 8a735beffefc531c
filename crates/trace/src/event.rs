//! The event model: simulated timestamps, categories, tracks, and the
//! [`TraceEvent`] record itself.

use std::fmt;

/// A point in **simulated** time, in nanoseconds since the start of the
/// run.
///
/// This is deliberately a bare newtype rather than a re-export of
/// `grail_power::units::SimInstant`: the trace crate sits below every
/// other workspace crate and depends on nothing, so callers convert at
/// the boundary (`TraceTime::from_nanos(instant.as_nanos())`). It can
/// never hold a wall-clock reading — there is no constructor that reads
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceTime(u64);

impl TraceTime {
    /// The start of the run.
    pub const ZERO: TraceTime = TraceTime(0);

    /// From a simulated-nanosecond count.
    pub const fn from_nanos(ns: u64) -> Self {
        TraceTime(ns)
    }

    /// Simulated nanoseconds since the start of the run.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Simulated microseconds, fractional — the unit Chrome trace JSON
    /// expects in its `ts` field.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
}

impl fmt::Display for TraceTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

/// Event category, used both for filtering at record time (the
/// [`Recorder`](crate::recorder::Recorder) holds a category bitmask)
/// and for grouping in exported traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Simulation lifecycle: run start/finish, horizon.
    Sim,
    /// Device reservations: disk/SSD/array IO, CPU compute.
    Io,
    /// Power-state transitions: park/unpark, spin-up/-down.
    Power,
    /// Energy-ledger movements: every `charge` and `transfer`.
    Ledger,
    /// Query execution: jobs, phases, operators, retries.
    Query,
    /// Scheduler decisions: admission batching, placement, fail-over.
    Scheduler,
    /// Fault injection and recovery.
    Fault,
}

impl Category {
    /// Every category enabled.
    pub const ALL: u32 = (1 << 7) - 1;

    /// This category's bit in a filter mask.
    pub const fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Stable lowercase name used in exported traces.
    pub const fn name(self) -> &'static str {
        match self {
            Category::Sim => "sim",
            Category::Io => "io",
            Category::Power => "power",
            Category::Ledger => "ledger",
            Category::Query => "query",
            Category::Scheduler => "scheduler",
            Category::Fault => "fault",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The lane an event is drawn on in a trace viewer. Tracks map to
/// Perfetto threads; their `Ord` (variant order, then fields) fixes the
/// thread-id assignment deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// The simulation driver / control plane.
    Main,
    /// One hardware device, e.g. `disk[3]`.
    Device {
        /// Lowercase component kind: `"disk"`, `"ssd"`, `"cpu"`.
        kind: &'static str,
        /// Device index within its kind.
        index: u32,
    },
    /// One closed-loop client stream.
    Stream(u32),
    /// Query-executor operator lane (pseudo-time; see DESIGN.md).
    Exec,
}

impl fmt::Display for Track {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Track::Main => f.write_str("main"),
            Track::Device { kind, index } => write!(f, "{kind}[{index}]"),
            Track::Stream(s) => write!(f, "stream[{s}]"),
            Track::Exec => f.write_str("exec"),
        }
    }
}

/// One argument value attached to an event. Every variant is plain
/// bytes: text is a `&'static str`, so recording an argument never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (bytes, counts, indices).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (Joules, Watts, seconds).
    F64(f64),
    /// Static text, e.g. a fault kind (`"transient"`).
    Str(&'static str),
    /// A component-style label, exported as the string `kind[index]`
    /// (`"disk[3]"`) — the text `ComponentId`'s `Display` gives, kept as
    /// its two parts so recording it needs no owned string.
    Label {
        /// Lowercase component kind: `"disk"`, `"cpu"`, `"recovery"`.
        kind: &'static str,
        /// Instance number within the kind.
        index: u32,
    },
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}

/// One `key: value` detail of an event.
pub type Arg = (&'static str, ArgValue);

/// The most arguments one event can carry: the widest emit site in the
/// workspace (`array_read`/`array_write`). [`TraceEvent::arg`] asserts
/// it, so a wider site fails its first test run and raises this.
pub const MAX_ARGS: usize = 5;

/// An event on its way into a [`TraceSink`](crate::recorder::TraceSink):
/// an instant (`dur == None`) or a span (`dur == Some(nanoseconds)`).
///
/// This is a stack-only `Copy` builder — its arguments sit inline, in
/// attachment order (which is the export order, so output is byte-stable
/// without sorting), and building one never allocates. What a [`Recorder`](crate::recorder::Recorder)
/// *stores* is a fixed-width header plus a slice of its argument arena;
/// [`EventRef`](crate::EventRef) is the read side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Event start, in simulated time.
    pub at: TraceTime,
    /// Span duration in simulated nanoseconds; `None` for instants.
    pub dur: Option<u64>,
    /// Filter/grouping category.
    pub cat: Category,
    /// Stable event name (static so recording never allocates for it).
    pub name: &'static str,
    /// Display lane.
    pub track: Track,
    pub(crate) slots: [Arg; MAX_ARGS],
    pub(crate) len: usize,
}

impl TraceEvent {
    /// A zero-duration point event.
    #[inline]
    pub fn instant(at: TraceTime, cat: Category, name: &'static str, track: Track) -> Self {
        TraceEvent {
            at,
            dur: None,
            cat,
            name,
            track,
            slots: [("", ArgValue::U64(0)); MAX_ARGS],
            len: 0,
        }
    }

    /// A span covering `[at, at + dur_nanos]` of simulated time.
    #[inline]
    pub fn span(
        at: TraceTime,
        dur_nanos: u64,
        cat: Category,
        name: &'static str,
        track: Track,
    ) -> Self {
        TraceEvent {
            dur: Some(dur_nanos),
            ..TraceEvent::instant(at, cat, name, track)
        }
    }

    /// Attach an argument (builder style).
    ///
    /// # Panics
    /// Panics past [`MAX_ARGS`] arguments: the count is a property of
    /// the call site, not of its input.
    #[inline]
    pub fn arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        assert!(
            self.len < MAX_ARGS,
            "event {:?} carries more than MAX_ARGS = {MAX_ARGS} arguments",
            self.name
        );
        self.slots[self.len] = (key, value.into());
        self.len += 1;
        self
    }

    /// The attached arguments, in attachment order.
    pub fn args(&self) -> impl ExactSizeIterator<Item = Arg> + '_ {
        self.slots[..self.len].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_time_round_trips_nanos() {
        let t = TraceTime::from_nanos(1_500_000);
        assert_eq!(t.as_nanos(), 1_500_000);
        assert!((t.as_micros_f64() - 1_500.0).abs() < 1e-12);
        assert_eq!(t.to_string(), "1500000ns");
        assert!(TraceTime::ZERO < t);
    }

    #[test]
    fn category_bits_are_distinct_and_covered_by_all() {
        let cats = [
            Category::Sim,
            Category::Io,
            Category::Power,
            Category::Ledger,
            Category::Query,
            Category::Scheduler,
            Category::Fault,
        ];
        let mut seen = 0u32;
        for c in cats {
            assert_eq!(seen & c.bit(), 0, "{c} bit overlaps");
            seen |= c.bit();
            assert_ne!(Category::ALL & c.bit(), 0, "{c} not in ALL");
        }
        assert_eq!(seen, Category::ALL);
    }

    #[test]
    fn track_labels_and_order_are_stable() {
        assert_eq!(Track::Main.to_string(), "main");
        assert_eq!(
            Track::Device {
                kind: "disk",
                index: 3
            }
            .to_string(),
            "disk[3]"
        );
        assert_eq!(Track::Stream(2).to_string(), "stream[2]");
        assert_eq!(Track::Exec.to_string(), "exec");
        let mut tracks = [
            Track::Exec,
            Track::Stream(1),
            Track::Main,
            Track::Device {
                kind: "cpu",
                index: 0,
            },
        ];
        tracks.sort();
        assert_eq!(tracks[0], Track::Main);
        assert_eq!(tracks.last(), Some(&Track::Exec));
    }

    #[test]
    fn event_builder_attaches_args_in_order() {
        let ev = TraceEvent::span(TraceTime::from_nanos(10), 90, Category::Io, "disk_io", {
            Track::Device {
                kind: "disk",
                index: 0,
            }
        })
        .arg("bytes", 4096u64)
        .arg("joules", 0.25f64)
        .arg("op", "read");
        assert_eq!(ev.dur, Some(90));
        let args: Vec<Arg> = ev.args().collect();
        assert_eq!(args.len(), 3);
        assert_eq!(args[0], ("bytes", ArgValue::U64(4096)));
        assert_eq!(args[2], ("op", ArgValue::Str("read")));
    }

    #[test]
    fn builder_holds_the_widest_event_and_no_wider() {
        let ev = |n: usize| {
            (0..n).fold(
                TraceEvent::instant(TraceTime::ZERO, Category::Io, "wide", Track::Main),
                |e, i| e.arg("k", i as u64),
            )
        };
        assert_eq!(ev(MAX_ARGS).args().len(), MAX_ARGS);
        assert!(std::panic::catch_unwind(|| ev(MAX_ARGS + 1)).is_err());
    }
}
