//! EXT-KNOB — Sec. 4.1's knob table: sweep the DBA-visible knobs
//! (parallelism, memory grant, compression, DVFS point) over a
//! scan-and-sort workload and report the best setting per objective.

use super::Outcome;
use crate::ExperimentRecord;
use grail_core::optimizer::advisor::{advise, evaluate, KnobWorkload};
use grail_core::optimizer::cost::CostModel;
use grail_core::optimizer::knobs::{sweep, KnobGrid};
use grail_core::optimizer::objective::Objective;
use grail_core::profile::HardwareProfile;
use grail_par::Runner;
use grail_power::dvfs::DvfsModel;

pub(super) fn run(_runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let grid = KnobGrid::small();
    let workload = KnobWorkload::scan_sort_default();
    let dvfs = DvfsModel::opteron_like();

    for (hw_name, profile) in [
        ("flash_scanner", HardwareProfile::flash_scanner()),
        ("dl785_66", HardwareProfile::server_dl785(66)),
    ] {
        let model = CostModel::new(&profile).expect("profile has storage");
        for obj in [Objective::MinTime, Objective::MinEnergy, Objective::MinEdp] {
            let a = advise(&grid, &workload, &model, &dvfs, obj);
            out.push(ExperimentRecord::new(
                "EXT-KNOB",
                &format!("{hw_name}:{}", obj.name()),
                a.cost.elapsed_secs,
                a.cost.energy_j,
                workload.scan_values,
                crate::extras!({
                    "dop": a.config.dop,
                    "grant": a.config.memory_grant,
                    "compression": a.config.compression,
                    "pstate": a.config.pstate,
                }),
            ));
            out.detail(format!(
                "    dop {}   grant {}M   compressed {}   pstate {}",
                a.config.dop,
                a.config.memory_grant >> 20,
                a.config.compression,
                a.config.pstate
            ));
        }
        // How much the energy setting saves vs the time setting.
        let t = advise(&grid, &workload, &model, &dvfs, Objective::MinTime);
        let e = advise(&grid, &workload, &model, &dvfs, Objective::MinEnergy);
        let worst = sweep(&grid)
            .into_iter()
            .map(|c| evaluate(c, &workload, &model, &dvfs).energy_j)
            .fold(f64::MIN, f64::max);
        out.say(format!(
            "{hw_name} ({} grid points): energy setting saves {:.1}% vs time setting, {:.1}% vs the worst knob point",
            grid.len(),
            100.0 * (1.0 - e.cost.energy_j / t.cost.energy_j),
            100.0 * (1.0 - e.cost.energy_j / worst)
        ));
    }
    out
}
