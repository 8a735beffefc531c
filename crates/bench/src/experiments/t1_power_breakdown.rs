//! T1 — the paper's textual power claims (Secs. 2.4, 5.1):
//!
//! * "more than half the power use is concentrated in the disk
//!   subsystem" for DSS configurations — we report the disk share of
//!   configured (idle) power and of measured run energy at each FIG1
//!   spindle count;
//! * "most servers offer little power variance from no load to peak
//!   use" — we report the idle-to-peak dynamic range of the DL785
//!   profile and contrast it with the flash scanner.

use super::Outcome;
use crate::points::{fig1_throughput, toy, FIG1_DISKS};
use crate::ExperimentRecord;
use grail_core::profile::HardwareProfile;
use grail_par::Runner;
use grail_power::units::SimDuration;

pub(super) fn run(_runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let toy = toy();
    for disks in FIG1_DISKS {
        let db = toy.on(HardwareProfile::server_dl785(disks));
        let idle = db
            .run_idle(SimDuration::from_secs(1000))
            .expect("FIG1 builds");
        let run = fig1_throughput(&db);
        let idle_power = idle.avg_power().get();
        let peak_power = run.avg_power().get();
        let idle_disk_share = idle.disk_share();
        let run_disk_share = run.disk_share();
        let dynamic_range = (peak_power - idle_power) / peak_power;
        let rec = ExperimentRecord::new(
            "T1",
            &format!("disks={disks}"),
            run.elapsed.as_secs_f64(),
            run.energy.joules(),
            run.work,
            crate::extras!({
                "idle_power_w": idle_power,
                "run_avg_power_w": peak_power,
                "disk_share_configured": idle_disk_share,
                "disk_share_measured": run_disk_share,
                "dynamic_range": dynamic_range,
            }),
        );
        out.push(rec);
        out.detail(format!(
                "    idle {idle_power:.0}W  run-avg {peak_power:.0}W  dyn-range {:.1}%  disk share: configured {:.1}% / measured {:.1}%",
                dynamic_range * 100.0,
                idle_disk_share * 100.0,
                run_disk_share * 100.0
            ));
    }
    out.say("paper claims: disk subsystem >50% of system power (DSS configs);");
    out.say("              classic servers show little idle-to-peak power variance.");
    out
}
