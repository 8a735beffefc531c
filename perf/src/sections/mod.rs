//! The four measured sections and the sizes they run at.
//!
//! Every run executes all four sections in every pass, so that every
//! metric of the contract has a value on every workload. A workload is
//! a choice of sizes: its own section runs at [`Scale::Full`] — the
//! frozen sizes the README states — and the other three at
//! [`Scale::Probe`], a few times smaller. Cite a metric from the
//! workload whose section it measures; its probe-size readings on the
//! other workloads are there to show that work on one layer left the
//! others alone.

pub mod cells;
pub mod fleet;
pub mod sweep;
pub mod tpch;

use crate::spec::Workload;

/// How large a section's fixed input is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workload's frozen, published size.
    Full,
    /// The same shape a few times smaller: another workload's section.
    Probe,
    /// About a hundredth, for the smoke test only; the CLI cannot
    /// select it.
    Tiny,
}

/// The scale of each section in one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// The reproduction sweep.
    pub sweep: Scale,
    /// The query engine.
    pub tpch: Scale,
    /// The simulator cells.
    pub cells: Scale,
    /// The fleet model.
    pub fleet: Scale,
}

impl Sizes {
    /// Every section at `scale`.
    pub fn all(scale: Scale) -> Sizes {
        Sizes {
            sweep: scale,
            tpch: scale,
            cells: scale,
            fleet: scale,
        }
    }

    /// `workload`'s own section at full size, the others at probe size.
    pub fn for_workload(workload: Workload) -> Sizes {
        let mut s = Sizes::all(Scale::Probe);
        match workload {
            Workload::ReproSweep => s.sweep = Scale::Full,
            Workload::TpchScale => s.tpch = Scale::Full,
            Workload::SimCells => s.cells = Scale::Full,
            Workload::FleetChaos => s.fleet = Scale::Full,
        }
        s
    }
}
