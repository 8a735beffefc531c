//! EXT-DVFS — the one power knob 2008 CPUs offered (Secs. 2.3, 4.1):
//! voltage/frequency scaling, and the race-to-idle vs slow-and-steady
//! decision.
//!
//! Two query shapes on an Opteron-like DVFS table:
//!
//! * **CPU-bound** (no slack): lower p-states stretch the query; with a
//!   static floor, the energy optimum is interior or at P0.
//! * **IO-bound** (deadline = the disk time, CPU has slack): the CPU
//!   can downclock into the slack almost for free — the classic DVFS
//!   win for database scans.

use super::Outcome;
use crate::ExperimentRecord;
use grail_par::Runner;
use grail_power::dvfs::DvfsModel;
use grail_power::units::{Cycles, SimDuration};

pub(super) fn run(_runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let model = DvfsModel::opteron_like();
    let work = Cycles::new(23_000_000_000); // 10 s at P0

    // Each row is the CPU-bound query at one P-state; its detail line
    // carries the IO-bound twin (deadline = 25 s of disk time).
    let deadline = SimDuration::from_secs(25);
    for i in 0..model.len() {
        let busy = model.exec_time(work, i);
        let cpu_bound = model.exec_energy(work, i);
        let io_bound = model.window_energy(work, i, deadline);
        out.push(ExperimentRecord::new(
            "EXT-DVFS",
            model.pstates[i].name,
            busy.as_secs_f64(),
            cpu_bound.joules(),
            work.get() as f64,
            serde_json::json!({
                "io_bound_window_j": io_bound.map(|e| e.joules()),
                "freq_ghz": model.pstates[i].freq.get() / 1e9,
            }),
        ));
        out.detail(format!(
            "    {} — io-bound energy over the 25 s window: {}",
            model.pstates[i].freq,
            io_bound
                .map(|e| format!("{:.1} J", e.joules()))
                .unwrap_or_else(|| "misses deadline".to_string()),
        ));
    }
    let (best_io, e_io) = model.best_pstate(work, deadline).expect("fits");
    let (best_tight, e_tight) = model
        .best_pstate(work, SimDuration::from_secs(10))
        .expect("P0 fits exactly");
    out.say(format!(
        "IO-bound (25 s of disk): best is {} at {:.1} J — downclock into the slack.",
        model.pstates[best_io].name,
        e_io.joules()
    ));
    out.say(format!(
        "tight deadline (10 s):   best is {} at {:.1} J — race to meet the deadline.",
        model.pstates[best_tight].name,
        e_tight.joules()
    ));
    out.say("");
    out.say("the coordination warning of Sec. 5.3 ([RRT+08]): if a hardware governor picks the");
    out.say("p-state while the optimizer assumes P0 timing, both run 'at cross purposes'.");
    out
}
