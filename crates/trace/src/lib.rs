//! `grail-trace` — a deterministic structured-event flight recorder.
//!
//! The paper's thesis is that energy must become a *first-class
//! observable* of a database system. Aggregate numbers (`EnergyReport`,
//! binned power series) say *how many* Joules a run cost; this crate
//! records *where inside the run* they went: every device reservation,
//! power-state transition, ledger movement, query phase, scheduler
//! decision and injected fault becomes a timestamped [`TraceEvent`]
//! that can be replayed, diffed, and rendered in Perfetto.
//!
//! ## Determinism contract
//!
//! * Events are keyed on **simulated time only** ([`TraceTime`], a
//!   nanosecond count converted from the simulator's `SimInstant`).
//!   Nothing in this crate reads a wall clock, an environment variable,
//!   or any other ambient state.
//! * All containers iterate in insertion or key order (`Vec`,
//!   `BTreeMap`); there are no hash maps, so export output is a pure
//!   function of the recorded events.
//! * The exporters ([`export`]) hand-roll their JSON with a fixed field
//!   order and Rust's deterministic shortest-roundtrip `f64` formatting,
//!   so *identical runs produce byte-identical trace files* — a
//!   property CI asserts on every push.
//!
//! ## Zero cost when off
//!
//! Instrumented code holds a [`Tracer`], which is a newtype over
//! `Option<Box<Recorder>>`. A disabled tracer is a single `None` check:
//! [`Tracer::emit`] takes the event as a closure that is never invoked
//! (and therefore never allocates) unless the tracer is live *and* the
//! event's category passes the recorder's filter mask.
//!
//! ## Layout
//!
//! * [`event`] — [`TraceTime`], [`Category`], [`Track`], and the
//!   stack-only [`TraceEvent`] builder an emit site hands to a sink.
//! * [`recorder`] — [`TraceSink`], the ring-buffered [`Recorder`] (and
//!   its zero-copy [`Recorder::merge_ordered`]), and the zero-cost
//!   [`Tracer`] handle.
//! * `rings` (private) — the stored form: per event a timestamp, an
//!   8-byte header naming its interned shape (name, category, track,
//!   argument keys, value kinds and texts) and one 8-byte slot per
//!   number, in fixed-size blocks; [`EventRef`] reads it back.
//! * The recorder carries a deterministic [`grail_metrics::Registry`]
//!   (counters, gauges, fixed-bucket histograms, windowed rates) and can
//!   scrape it into snapshot series on a simulated-time interval.
//! * [`export`] — JSONL and Chrome trace-event (Perfetto) writers.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod event;
pub mod export;
pub mod recorder;
mod rings;

pub use event::{Arg, ArgValue, Category, TraceEvent, TraceTime, Track, MAX_ARGS};
pub use export::{to_chrome, to_jsonl};
pub use recorder::{Recorder, TraceSink, Tracer};
pub use rings::EventRef;
