//! # grail-bench — the experiment harness
//!
//! One table ([`EXPERIMENTS`]), one row per figure/table of the paper
//! (DESIGN.md §3 is the index), each row a pure function returning an
//! [`Outcome`]: records, console lines and figure bytes. The
//! `grail-bench` binary (`src/main.rs`) is the only code that prints,
//! appends the record file and writes `figures/*`; `grail-bench list`
//! shows the rows and `grail-bench run <ID>…|all` executes them.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod csv;
pub mod experiments;
pub mod points;
pub mod record;

pub use csv::{cell_f64, Csv};
pub use experiments::{Experiment, Outcome, EXPERIMENTS};
pub use record::ExperimentRecord;
