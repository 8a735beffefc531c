//! The experiment table: one row per ID of DESIGN.md §3's experiment
//! index, in that index's order.
//!
//! Every experiment is a pure function `fn(&Runner) -> Outcome`: it
//! computes its records, console lines and figure bytes and returns
//! them. Printing, `experiments.jsonl` and `figures/*` belong to the
//! `grail-bench` driver alone, so a test can execute any row and
//! compare what it produced byte for byte.

use crate::ExperimentRecord;
use grail_par::Runner;
use grail_power::components::{DiskPowerProfile, SsdPowerProfile};
use grail_sim::perf::{DiskPerfProfile, SsdPerfProfile};
use grail_sim::sim::Simulation;
use grail_sim::StorageTarget;

mod ext_buffer_energy;
mod ext_chaos;
mod ext_cluster;
mod ext_consolidation;
mod ext_dvfs;
mod ext_fault_energy;
mod ext_joulesort;
mod ext_knob_sweep;
mod ext_logging;
mod ext_oltp_device;
mod ext_optimizer_flip;
mod ext_physical_design;
mod ext_prefetch;
mod ext_proportionality;
mod ext_scan_sharing;
mod ext_tco;
mod ext_trace;
mod ext_watch;
mod fig1_diminishing_returns;
mod fig2_scan_compression;
mod t1_power_breakdown;

/// One row of the experiment table.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Experiment id from DESIGN.md §3 (e.g. "FIG1"); every record the
    /// row produces carries it.
    pub id: &'static str,
    /// One-line description, printed as the report header.
    pub about: &'static str,
    /// Compute the experiment; sweeps fan out over the runner.
    pub run: fn(&Runner) -> Outcome,
}

/// Everything one experiment produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Result rows in report order, each with its optional indented
    /// console detail line.
    pub rows: Vec<(ExperimentRecord, Option<String>)>,
    /// Closing narrative, printed after the rows.
    pub narrative: String,
    /// Figure files as (path relative to the run directory, bytes).
    pub figures: Vec<(String, Vec<u8>)>,
}

impl Outcome {
    /// Append a result row.
    pub fn push(&mut self, rec: ExperimentRecord) {
        self.rows.push((rec, None));
    }

    /// Set the console detail line of the row pushed last.
    pub fn detail(&mut self, line: String) {
        self.rows.last_mut().expect("a row to detail").1 = Some(line);
    }

    /// Append one line to the closing narrative.
    pub fn say(&mut self, line: impl AsRef<str>) {
        self.narrative.push_str(line.as_ref());
        self.narrative.push('\n');
    }

    /// Attach a text figure file.
    pub fn figure(&mut self, path: &str, text: String) {
        self.figures.push((path.to_string(), text.into_bytes()));
    }

    /// The records as JSON lines, exactly as appended to
    /// `experiments.jsonl`.
    pub fn jsonl(&self) -> String {
        self.rows
            .iter()
            .map(|(rec, _)| serde_json::to_string(rec).expect("serializable") + "\n")
            .collect()
    }
}

/// The one-device box EXT-LOG and EXT-OLTP compare: the Fig. 2 flash
/// drive or a 15K SCSI disk.
fn log_device(sim: &mut Simulation, flash: bool) -> StorageTarget {
    if flash {
        StorageTarget::Ssd(sim.add_ssd(SsdPerfProfile::fig2_flash(), SsdPowerProfile::enterprise()))
    } else {
        StorageTarget::Disk(sim.add_disk(DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k()))
    }
}

/// The table, in DESIGN.md §3 order (`tests/table.rs` keeps the two in
/// step).
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "FIG1",
        about: "TPC-H throughput test: time & energy efficiency vs #disks",
        run: fig1_diminishing_returns::run,
    },
    Experiment {
        id: "FIG2",
        about: "ORDERS 5/7-column scan, uncompressed vs compressed (1 CPU @90W, 3 SSDs @5W)",
        run: fig2_scan_compression::run,
    },
    Experiment {
        id: "T1",
        about: "power breakdown and dynamic range per configuration",
        run: t1_power_breakdown::run,
    },
    Experiment {
        id: "EXT-OPT",
        about: "objective-dependent access paths and join algorithms (Sec. 4.1)",
        run: ext_optimizer_flip::run,
    },
    Experiment {
        id: "EXT-SCHED",
        about: "batching + spin-down governors on an open arrival stream",
        run: ext_consolidation::run,
    },
    Experiment {
        id: "EXT-BUF",
        about: "replacement policies scored on Joules, Zipf trace, mixed devices",
        run: ext_buffer_energy::run,
    },
    Experiment {
        id: "EXT-PROP",
        about: "energy proportionality: EE vs utilization",
        run: ext_proportionality::run,
    },
    Experiment {
        id: "EXT-PHYS",
        about: "read replicas as an energy knob (66 disks total, narrow replica on 12)",
        run: ext_physical_design::run,
    },
    Experiment {
        id: "EXT-JS",
        about: "JouleSort-style: records sorted per Joule, server vs flash box",
        run: ext_joulesort::run,
    },
    Experiment {
        id: "EXT-DVFS",
        about: "energy per P-state: CPU-bound vs IO-bound query",
        run: ext_dvfs::run,
    },
    Experiment {
        id: "EXT-KNOB",
        about: "Sec. 4.1 knob sweep: best setting per objective",
        run: ext_knob_sweep::run,
    },
    Experiment {
        id: "EXT-CLUSTER",
        about: "spread vs consolidate on a 6-machine heterogeneous fleet",
        run: ext_cluster::run,
    },
    Experiment {
        id: "EXT-LOG",
        about: "group-commit batching factor × log device",
        run: ext_logging::run,
    },
    Experiment {
        id: "EXT-PREFETCH",
        about: "burst prefetching [PS04]: disk energy vs burst size (oracle governor)",
        run: ext_prefetch::run,
    },
    Experiment {
        id: "EXT-TCO",
        about: "lifetime dollars for the Fig. 1 configurations",
        run: ext_tco::run,
    },
    Experiment {
        id: "EXT-OLTP",
        about: "device choice by workload: point transactions vs sequential scans",
        run: ext_oltp_device::run,
    },
    Experiment {
        id: "EXT-SHARE",
        about: "circular scan sharing vs independent scans (8-disk array)",
        run: ext_scan_sharing::run,
    },
    Experiment {
        id: "EXT-FAULT",
        about: "spin-down governors vs seeded faults on a RAID-5 box",
        run: ext_fault_energy::run,
    },
    Experiment {
        id: "EXT-CHAOS",
        about: "availability vs energy under correlated cluster chaos",
        run: ext_chaos::run,
    },
    Experiment {
        id: "EXT-TRACE",
        about: "FIG1 and FIG2 with the flight recorder on: JSONL, Perfetto, power, attribution",
        run: ext_trace::run,
    },
    Experiment {
        id: "EXT-WATCH",
        about: "calm fleet, reference storm and db run scraped into the watchdog summary",
        run: ext_watch::run,
    },
];
