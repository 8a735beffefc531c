//! # grail-optimizer — energy-aware query optimization
//!
//! Sec. 4.1: "query optimizers will need power models to estimate energy
//! costs", and the choice that is optimal for time is not optimal for
//! energy (the paper's hash-join-vs-nested-loop example, and all of
//! Fig. 2). This crate implements a dual **time/energy cost model** and
//! plan selection under pluggable objectives:
//!
//! * [`cost`] — per-operator time and energy estimates against a
//!   hardware description.
//! * [`objective`] — MinTime, MinEnergy, energy-delay product, and
//!   weighted blends.
//! * [`enumerate`] — dynamic-programming join-order enumeration plus
//!   access-path and join-algorithm choice.
//! * [`knobs`] — the system-wide knobs of Sec. 4.1 (parallelism degree,
//!   memory grant, compression on/off, DVFS point) exposed as a swept
//!   configuration space.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod advisor;
pub mod cost;
pub mod enumerate;
pub mod knobs;
pub mod objective;

pub use cost::{CostModel, HardwareDesc, PlanCost};
pub use objective::Objective;
