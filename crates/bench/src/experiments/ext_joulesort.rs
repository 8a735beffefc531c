//! EXT-JS — a JouleSort-style benchmark (\[RSR+07\], Sec. 2.3): records
//! sorted per Joule across hardware classes.
//!
//! Expected shape (the JouleSort paper's own finding): a balanced
//! low-power machine (our flash scanner) beats a brawny server on
//! records/Joule even though the server finishes sooner, because the
//! server's idle floor burns through the whole run.

use super::Outcome;
use crate::ExperimentRecord;
use grail_core::db::{EnergyAwareDb, ExecPolicy, LOGICAL_TARGET};
use grail_core::profile::HardwareProfile;
use grail_core::report::EnergyReport;
use grail_par::Runner;
use grail_query::ops::sort::{SortOrder, SortSpec};
use grail_query::ops::{ColumnarScan, Sort, StoredTable};
use grail_workload::joulesort::{records, score, RECORD_BYTES};
use std::sync::Arc;

const RECORDS: u64 = 100_000;
/// Stretch measured demands to a 100 M-record (≈10 GB) JouleSort class.
const STRETCH: f64 = 1000.0;

fn sort_on(profile: HardwareProfile, grant: u64, dop: u32) -> EnergyReport {
    let stored = Arc::new(StoredTable::columnar_plain(
        records(RECORDS, 3),
        LOGICAL_TARGET,
    ));
    let all: Vec<usize> = (0..stored.table.schema.arity()).collect();
    let sort = Sort::new(
        Box::new(ColumnarScan::new(stored, all)),
        SortSpec {
            keys: vec![(0, SortOrder::Asc)],
            memory_grant: grant,
            spill_target: LOGICAL_TARGET,
        },
    );
    let policy = ExecPolicy {
        dop,
        ..ExecPolicy::default()
    };
    let r = EnergyAwareDb::new(profile)
        .try_run_plan(Box::new(sort), policy, STRETCH)
        .expect("sort runs");
    assert_eq!(r.work as u64, RECORDS);
    r
}

pub(super) fn run(runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let total_bytes = (RECORDS as f64 * STRETCH) as u64 * RECORD_BYTES;
    let machines = [
        ("dl785_36disks", HardwareProfile::server_dl785(36), 32u32),
        ("flash_scanner", HardwareProfile::flash_scanner(), 1),
    ];
    // The two sorts share nothing, so they fan out; rows keep the
    // machine order above.
    let reports = runner.run(&machines, |_, (_, profile, dop)| {
        sort_on(profile.clone(), 1 << 30, *dop)
    });
    for ((label, ..), r) in machines.iter().zip(reports) {
        let (e, n) = (r.energy.joules(), (RECORDS as f64 * STRETCH) as u64);
        out.push(ExperimentRecord::new(
            "EXT-JS",
            label,
            r.elapsed.as_secs_f64(),
            e,
            n as f64,
            crate::extras!({"records_per_joule": score(n, e)}),
        ));
        out.detail(format!("    JouleSort score: {:.0} records/J", score(n, e)));
    }
    out.say(format!(
        "sorted {:.1} GB of {}-byte records (external sort, 1 GiB grant)",
        total_bytes as f64 / 1e9,
        RECORD_BYTES
    ));
    out.say("expected shape ([RSR+07]): the balanced low-power box wins records/Joule;");
    out.say("the brawny server wins wall-clock. Efficiency != performance, again.");
    out
}
