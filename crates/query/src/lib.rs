//! # grail-query — a relational engine with simulation-charged costs
//!
//! The executor runs **real operators over real data** (projecting
//! scans, filters, hash joins, external sort, hash aggregation) and,
//! alongside each batch of actual work, reports calibrated resource
//! demands — CPU cycles and device bytes — that the caller
//! settles against [`grail_sim`]. Results are testable for correctness;
//! time and energy come from the simulator, not the host clock.
//!
//! * [`value`] / [`schema`] / [`batch`] — 64-bit-coded scalar values,
//!   schemas, and row batches.
//! * [`expr`] — predicate and arithmetic expressions over batches.
//! * [`ops`] — the physical operators.
//! * [`exec`] — the pull-based executor and its resource-charging hooks.
//! * [`colscan`] — the Fig. 2 column scanner: per-column codecs,
//!   projection, IO/CPU overlap accounting.
//! * [`cost_charge`] — the calibrated cycles-per-value constants shared
//!   by the executor and the optimizer's cost model.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod batch;
pub mod colscan;
pub mod cost_charge;
pub mod exec;
pub mod expr;
pub mod ops;
pub mod schema;
pub mod value;

pub use batch::{Batch, Table};
pub use schema::{ColumnType, Schema};
pub use value::Datum;
