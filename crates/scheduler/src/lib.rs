//! # grail-scheduler — resource-use consolidation
//!
//! Sec. 4.2: "shift computations and relocate data to consolidate
//! resource use both in time and space, to facilitate powering down
//! individual hardware components", accepting latency for idle-period
//! length. This crate supplies the policies:
//!
//! * [`admission`] — immediate vs windowed-batch admission of arriving
//!   queries (the "batching requests at the cost of increased latency"
//!   trade).
//! * [`governor`] — device idle governors: never-park, fixed-timeout,
//!   and the clairvoyant oracle (knows the next arrival), each deciding
//!   spin-downs against the device's break-even gap.
//! * [`sharing`] — scan sharing: queries arriving within a window attach
//!   to an in-flight scan instead of re-reading.
//! * [`cluster`] — fleet-level consolidation (\[TWM+08\]): pack load onto
//!   the most efficient machines and power off the rest, making the
//!   cluster energy-proportional even when no machine is.
//! * [`chaos`] — the fleet under failure. [`chaos::FleetState`] is the
//!   one pure state machine for "an event happened: who serves what,
//!   what boots, what is shed" (fault-domain-aware replica placement,
//!   SLA-visible load shedding, per-machine circuit breakers);
//!   [`chaos::run_chaos`] drives it through a seeded
//!   [`grail_sim::fault::ChaosSchedule`] (correlated fault-domain
//!   outages, crash/restart cycles, brownouts, surges), adds hedged
//!   re-dispatch, and bills every cold boot and replay to the ledger's
//!   Recovery category so the energy cost of resilience is a
//!   first-class output.
//! * [`observe`] — bridges the chaos engine into `grail-trace` events.

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

pub mod admission;
pub mod chaos;
pub mod cluster;
pub mod governor;
pub mod observe;
pub mod sharing;

pub use admission::{AdmissionPolicy, BatchWindow};
pub use chaos::{
    run_chaos, BreakerPolicy, ChaosPolicy, ChaosReport, PlacementChange, Placements,
    DOCUMENTED_AVAILABILITY_FLOOR,
};
pub use cluster::{chaos_fleet, domain_count, ClusterError, Machine, Placement, PlacementPolicy};
pub use governor::{IdleGovernor, OracleGovernor, TimeoutGovernor};
