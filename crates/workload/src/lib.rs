//! # grail-workload — deterministic workload generation
//!
//! The paper's experiments run (a) a TPC-H throughput-test mix at 300 GB
//! scale (Fig. 1) and (b) a projection scan of TPC-H's ORDERS table
//! (Fig. 2). Neither audited kit nor its data is reproducible here, so
//! this crate generates TPC-H-*like* tables with the right shapes —
//! cardinality ratios, key distributions, low-cardinality flag columns,
//! date-ish columns — from a caller-supplied seed, bit-identical across
//! runs and platforms.
//!
//! * [`tpch`] — schemas and the seeded generator (ORDERS, LINEITEM,
//!   CUSTOMER, PART, SUPPLIER), whole or one table at a time.
//! * [`queries`] — the throughput-test query templates (scan-filter,
//!   scan-aggregate, join, sort) with per-template resource shapes.
//! * [`mix`] — multi-stream mixes: the closed-loop throughput test of
//!   Fig. 1 and open arrival processes for the consolidation
//!   experiments.
//! * [`joulesort`] — JouleSort-style records (\[RSR+07\]): 100-byte
//!   records with 10-byte keys, for the records-sorted-per-Joule
//!   benchmark.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod joulesort;
pub mod mix;
pub mod queries;
pub mod tpch;

pub use tpch::{TpchScale, TpchTables};
