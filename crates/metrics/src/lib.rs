//! `grail-metrics` — a deterministic metrics surface for the simulator.
//!
//! The paper's thesis is that energy must become a first-class,
//! continuously *measured* quantity of a data management system.
//! `grail-trace` records individual events; this crate aggregates them:
//! a [`Registry`] of monotone counters, gauges, fixed-bucket histograms
//! and windowed rates, scraped at configurable **simulated** intervals
//! into a [`SnapshotSeries`] that SLO monitors and exporters consume.
//!
//! ## Determinism contract
//!
//! * Every value is keyed on simulated time (nanosecond counts handed in
//!   by the caller). Nothing here reads a wall clock, an environment
//!   variable, or any other ambient state.
//! * Metric names are `&'static str` literals registered in one place
//!   ([`spec::CATALOG`]); a `format!`-built name does not type-check,
//!   so cardinality is bounded at compile time.
//! * All containers iterate in key or insertion order (`BTreeMap`,
//!   `Vec`); exposition output is a pure function of the recorded
//!   values. Identical runs produce byte-identical scrape series,
//!   Prometheus text, and SLO reports — at any `grail-par` thread
//!   count, a property CI asserts on every push.
//!
//! ## Layout
//!
//! * [`registry`] — [`Registry`], [`Histogram`], [`RateWindow`], bucket
//!   bound constants.
//! * [`spec`] — the static metric catalog ([`MetricSpec`], [`CATALOG`]).
//! * [`scrape`] — [`Scraper`], [`Snapshot`], [`SnapshotSeries`].
//! * [`slo`] — declarative objectives with multi-window burn-rate
//!   alerts ([`SloSpec`], [`evaluate`]).
//! * [`expo`] — Prometheus text exposition.
//! * [`baseline`] — flat-JSON baselines and rustc-style drift diffs for
//!   the EXT-WATCH regression gate (`crates/bench/tests/table.rs`).
//! * [`text`] — the JSON string escaping every hand-rolled exporter in
//!   the workspace shares.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod baseline;
pub mod expo;
pub mod registry;
pub mod scrape;
pub mod slo;
pub mod spec;
pub mod text;

pub use baseline::{compare, parse_baseline, render_baseline, render_drifts, Drift};
pub use expo::to_prometheus;
pub use registry::{
    Histogram, RateWindow, Registry, COUNT_BUCKETS, JOULES_BUCKETS, SECONDS_BUCKETS,
};
pub use scrape::{HistogramSnapshot, Scraper, Snapshot, SnapshotSeries};
pub use slo::{evaluate, BurnAlert, ObjectiveReport, SloKind, SloReport, SloSpec};
pub use spec::{MetricKind, MetricSpec, CATALOG};
