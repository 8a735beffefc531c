//! # GRAIL — energy-aware data management
//!
//! GRAIL reproduces, as a working system, the research agenda of
//! *"Energy Efficiency: The New Holy Grail of Data Management Systems
//! Research"* (Harizopoulos, Meza, Shah, Ranganathan — CIDR 2009): a
//! relational engine in which physical design, buffer management, query
//! optimization and scheduling can all be driven by an **energy objective**
//! instead of (or alongside) a performance objective, measured against a
//! deterministic hardware power/performance simulator.
//!
//! This crate is a thin facade that re-exports the workspace:
//!
//! * [`metrics`] — the deterministic metrics registry: counters, gauges,
//!   histograms, scrape snapshots, SLO burn-rate evaluation, and the
//!   Prometheus/CSV exporters ([`grail_metrics`]).
//! * [`trace`] — the deterministic energy flight recorder: structured
//!   events, metrics, JSONL/Perfetto export ([`grail_trace`]).
//! * [`power`] — units, power-state machines, component power models, the
//!   energy ledger ([`grail_power`]).
//! * [`sim`] — the discrete-event hardware simulator ([`grail_sim`]).
//! * [`storage`] — pages, columnar segments, compression, partitioning
//!   ([`grail_storage`]).
//! * [`buffer`] — the energy-aware buffer manager ([`grail_buffer`]).
//! * [`workload`] — TPC-H-like generation and query mixes
//!   ([`grail_workload`]).
//! * [`query`] — the relational executor and column scanner
//!   ([`grail_query`]).
//! * [`scheduler`] — consolidation, batching, and idle governors
//!   ([`grail_scheduler`]).
//! * [`core`] — the [`grail_core::EnergyAwareDb`] facade, hardware
//!   profiles, and the energy-aware optimizer that prices them
//!   ([`grail_core::optimizer`]).
//!
//! ## Quickstart
//!
//! ```
//! use grail::prelude::*;
//!
//! // Fig. 2's machine: one 90 W CPU, three 5 W-total flash drives.
//! let mut db = EnergyAwareDb::new(HardwareProfile::flash_scanner());
//! db.load_tpch(TpchScale::toy());
//! // Scan 5 of ORDERS' 7 columns at the loaded size.
//! let report = db.run_scan(&ScanSpec::orders_projection(5), ExecPolicy::default(), 1.0);
//! assert!(report.energy.joules() > 0.0);
//! println!("{} J over {}", report.energy.joules(), report.elapsed);
//! ```
//!
//! `load_tpch` draws nothing up front: each table is generated, and
//! encoded once per storage mode, by the first call that reads it (the
//! scan above generates ORDERS alone), and kept until the next
//! `load_tpch*`. Repeated queries on one `db` only scan. The same data
//! on another machine is `db.on(profile)`: it shares the loaded tables
//! and their store, so a sweep over machines loads once, and each run
//! still meters its own fresh simulation.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub use grail_buffer as buffer;
pub use grail_check as check;
pub use grail_core as core;
pub use grail_metrics as metrics;
pub use grail_power as power;
pub use grail_query as query;
pub use grail_scheduler as scheduler;
pub use grail_sim as sim;
pub use grail_storage as storage;
pub use grail_trace as trace;
pub use grail_workload as workload;

/// Commonly used items, re-exported for examples and downstream users.
pub mod prelude {
    pub use grail_core::{
        EnergyAwareDb, EnergyReport, ExecPolicy, HardwareProfile, ScanSpec, TpchScale, TracedRun,
    };
    pub use grail_power::units::{Joules, SimDuration, SimInstant, Watts};
    pub use grail_sim::{AttributionTable, FaultConfig, FaultStats};
    pub use grail_trace::{Category, Recorder, Tracer};
}
