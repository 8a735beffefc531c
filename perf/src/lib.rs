//! # grail-perf — GRAIL's host-performance benchmark
//!
//! GRAIL's *simulated* numbers are pinned byte-for-byte by the repo's
//! tests; this crate measures the other axis, how fast the host
//! produces them. It runs four fixed workloads from outside the
//! measured crates, by timing calls into their public functions, and
//! reports nine end-to-end metrics (untraced run) or 111 per-layer
//! metrics (traced run). See `README.md` beside this crate for the
//! metric tables, the layer → metric → workload predictions and how to
//! read the span trace.
//!
//! Layout: [`spec`] is the contract (names, units, bounds);
//! [`sections`] hold the four workloads' inputs, passes and layer
//! probes; [`run`] drives one run; [`compare`] judges two result files
//! against the bounds; [`harness`], [`span`], [`stats`], [`seeds`] and
//! [`json`] are the small tools under them, and [`replay`] is the
//! facade's pipeline taken apart so spans can sit between the layers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod harness;
pub mod json;
pub mod replay;
pub mod run;
pub mod sections;
pub mod seeds;
pub mod span;
pub mod spec;
pub mod stats;
pub mod yardstick;
