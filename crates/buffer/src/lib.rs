//! # grail-buffer — an energy-aware buffer manager
//!
//! Sec. 4.3 of the paper singles the buffer manager out: its "whole
//! notion and associated replacement policies are based on avoiding as
//! much as possible costly (in terms of latency) accesses to slower
//! storage", but "keeping a page in RAM will require energy, proportional
//! to the time the page is cached". This crate makes both costs explicit:
//!
//! * [`pool`] — a buffer pool that meters **residency energy** (Joules of
//!   DRAM burned while a page sits cached) and **re-fetch energy**
//!   (Joules of device work when it is read back), under any replacement
//!   policy.
//! * [`policy`] — classic latency-driven policies (LRU, CLOCK, 2Q) and an
//!   energy-aware policy that weighs a page's predicted time-to-reuse
//!   against its device-specific re-fetch cost.
//! * [`ranks`] — DRAM-rank-aware placement: consolidate pages onto few
//!   ranks so empty ranks can drop to self-refresh (Sec. 4.2's
//!   space-consolidation idea applied to memory).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod policy;
pub mod pool;
pub mod ranks;

pub use policy::{PolicyKind, ReplacementPolicy};
pub use pool::{Access, BufferPool, EnergyModel, PoolStats};
pub use ranks::RankPlacement;
