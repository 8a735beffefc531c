//! # grail-sim — deterministic discrete-event hardware simulation
//!
//! The stand-in for the paper's testbeds: an HP ProLiant DL785 with up to
//! 204 SCSI spindles behind RAID (Fig. 1), and a one-CPU, three-flash-SSD
//! scan box (Fig. 2). Queries cannot be timed on 2008 hardware, so GRAIL
//! executes real operators over real data while *charging* their resource
//! demands here; the simulator turns demands into a timeline and, via
//! [`grail_power`], into Joules.
//!
//! ## Model
//!
//! Devices are FCFS servers with a **reservation calendar**: a request
//! issued at time `t` starts at `max(t, device_free)` and occupies the
//! device for its modeled service time. Power-state machines track
//! busy/idle (and spun-down) intervals exactly, so energy needs no
//! sampling. Requests must be issued in nondecreasing time order per
//! device — the [`driver`] guarantees this by dispatching phase
//! completions through a priority queue; single-stream callers are
//! trivially ordered.
//!
//! The model is exact for FCFS single-resource queues, which matches the
//! level of the paper's own analysis (service times × device power). It
//! deliberately has **no wall-clock or host dependence**: identical inputs
//! produce identical ledgers.
//!
//! ## Layout
//!
//! * [`perf`] — device service-time profiles (15K SCSI, flash SSD, CPU).
//! * [`device`] — one FCFS storage device for disks and SSDs (an SSD
//!   is a disk that never parks); [`cpu`] — the CPU pool.
//! * [`raid`] — RAID-0/RAID-5 striping over disk sets, including
//!   degraded-mode (reconstruct-from-parity) share math.
//! * [`fault`] — seeded, deterministic fault injection ([`fault::FaultPlan`]).
//! * [`rng`] — the workspace's seeded ChaCha12 generator.
//! * [`sim`] — the [`sim::Simulation`] container and [`sim::SimReport`].
//! * [`driver`] — multi-stream job driver (phases of CPU + IO demands)
//!   with retry/backoff over transient faults.
//! * [`event`] — deterministic priority event queue.
//! * [`parallel`] — intra-simulation parallelism: independent cells
//!   built, run as a parallel map and committed in index order,
//!   byte-identical at any shard count ([`parallel::run_parallel`]).
//! * [`trace`] — binned power/utilization time series.
//! * [`attr`] — per-query energy attribution tables whose rows sum to
//!   the ledger's wall-socket total.
//!
//! The simulator is instrumented with `grail-trace`: install a tracer
//! via [`sim::Simulation::set_tracer`] and every device reservation,
//! power transition, fault, and ledger movement becomes a structured
//! event in [`sim::SimReport::trace`]. With no tracer (the default),
//! every instrumentation site is a single branch.

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

pub mod attr;
pub mod cpu;
pub mod device;
pub mod driver;
pub mod error;
pub mod event;
pub mod fault;
pub mod ids;
pub mod parallel;
pub mod perf;
pub mod raid;
pub mod rng;
pub mod sim;
pub mod trace;

pub use attr::{AttributionRow, AttributionTable, OperatorShare};
pub use error::SimError;
pub use fault::{
    ChaosConfig, ChaosEvent, ChaosEventKind, ChaosSchedule, FaultConfig, FaultKind, FaultPlan,
    FaultStats,
};
pub use ids::{ArrayId, CpuId, DiskId, SsdId, StorageTarget};
pub use parallel::{run_parallel, CellSpec, ParReport, SimConfig};
pub use perf::{AccessPattern, CpuPerfProfile, DiskPerfProfile, SsdPerfProfile};
pub use sim::{Reservation, SimReport, Simulation};
