//! Energy-aware query optimization.
//!
//! Sec. 4.1: "query optimizers will need power models to estimate energy
//! costs", and the choice that is optimal for time is not optimal for
//! energy (the paper's hash-join-vs-nested-loop example, and all of
//! Fig. 2). This module implements a dual **time/energy cost model**
//! priced against a [`HardwareProfile`](crate::profile::HardwareProfile)
//! — the machine the simulator runs — and plan selection under pluggable
//! objectives:
//!
//! * [`cost`] — per-operator time and energy estimates.
//! * [`objective`] — MinTime, MinEnergy and energy-delay product.
//! * [`enumerate`] — dynamic-programming join-order enumeration plus
//!   access-path and join-algorithm choice.
//! * [`knobs`] — the system-wide knobs of Sec. 4.1 (parallelism degree,
//!   memory grant, compression on/off, DVFS point) exposed as a swept
//!   configuration space.
//! * [`advisor`] — scores every knob point per objective.

pub mod advisor;
pub mod cost;
pub mod enumerate;
pub mod knobs;
pub mod objective;
