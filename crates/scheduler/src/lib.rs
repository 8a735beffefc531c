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
//!   cluster energy-proportional even when no machine is; includes
//!   machine-failure re-placement ([`cluster::fail_over`], one box or a
//!   correlated loss) that charges cold-boot energy when displaced load
//!   lands on dark machines and sheds what the survivors cannot absorb.
//! * [`chaos`] — the cluster chaos engine: drives a fleet through a
//!   seeded [`grail_sim::fault::ChaosSchedule`] (correlated fault-domain
//!   outages, crash/restart cycles, brownouts, surges) with
//!   fault-domain-aware replica placement, SLA-visible load shedding,
//!   per-machine circuit breakers, and hedged re-dispatch — billing all
//!   recovery work to the ledger's Recovery category so the energy cost
//!   of resilience is a first-class output.
//! * [`observe`] — bridges scheduler decisions into `grail-trace`
//!   events for callers that carry a tracer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod admission;
pub mod chaos;
pub mod cluster;
pub mod governor;
pub mod observe;
pub mod sharing;

pub use admission::{AdmissionPolicy, BatchWindow};
pub use chaos::{
    run_chaos, BreakerPolicy, ChaosPolicy, ChaosReport, PlacementChange,
    DOCUMENTED_AVAILABILITY_FLOOR,
};
pub use cluster::{
    chaos_fleet, domain_count, fail_over, ClusterError, Failover, Machine, Placement,
    PlacementPolicy,
};
pub use governor::{IdleGovernor, OracleGovernor, TimeoutGovernor};
