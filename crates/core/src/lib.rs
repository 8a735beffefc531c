//! # grail-core — the GRAIL facade
//!
//! Wires hardware profiles, workload generation, the executor, and the
//! simulator into one [`EnergyAwareDb`] with an [`EnergyReport`] per run —
//! the programmatic equivalent of racking the paper's test systems and
//! reading the power meter.
//!
//! * [`profile`] — hardware profiles: [`profile::HardwareProfile::server_dl785`]
//!   (Fig. 1's 32-core, N-disk RAID server) and
//!   [`profile::HardwareProfile::flash_scanner`] (Fig. 2's 1 CPU + 3
//!   SSDs), plus constructors for custom machines.
//! * [`db`] — the facade: load tables, run scans/mixes under an
//!   [`db::ExecPolicy`], collect reports.
//! * [`optimizer`] — the energy-aware optimizer: a time/energy cost
//!   model priced from a [`profile::HardwareProfile`], objectives, join
//!   enumeration and the knob advisor.
//! * [`report`] — [`report::EnergyReport`]: time, Joules, per-component
//!   breakdown, energy efficiency.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod db;
pub mod optimizer;
pub mod profile;
pub mod report;

pub use db::{EnergyAwareDb, ExecPolicy, ScanSpec, TracedRun, DEFAULT_TRACE_CAPACITY};
pub use grail_workload::TpchScale;
pub use profile::HardwareProfile;
pub use report::EnergyReport;
