//! EXT-PROP — the Barroso–Hölzle energy-proportionality curves the
//! paper builds on (Sec. 2.3): efficiency vs utilization for a classic
//! server, the Fig. 1 DL785 calibration, and the proportional ideal.
//!
//! Expected shape: the ideal holds constant efficiency at every load;
//! real servers collapse below ~30% utilization — exactly the band
//! \[BH07\] found Google's servers living in.

use super::Outcome;
use crate::ExperimentRecord;
use grail_par::Runner;
use grail_power::proportionality::PowerCurve;
use grail_power::units::Watts;

pub(super) fn run(_runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let peak_perf = 1000.0; // work/s at full load
    let curves: [(&str, PowerCurve); 3] = [
        (
            "classic_75pct_idle",
            PowerCurve::classic_server(Watts::new(400.0)),
        ),
        (
            // The Fig. 1 server at 66 disks: idle 1931 W of ~2100 W peak.
            "dl785_66disks",
            PowerCurve::linear(Watts::new(1931.0), Watts::new(2100.0)),
        ),
        ("proportional_ideal", PowerCurve::ideal(Watts::new(400.0))),
    ];
    // Rows carry power (W) in the energy column and work/s in the work
    // column, so the EE column reads work per Joule at that utilization.
    for (name, curve) in &curves {
        let peak_ee = curve.efficiency_at(1.0, peak_perf).work_per_joule();
        for s in curve.sample(10, peak_perf) {
            let rel = if peak_ee > 0.0 {
                s.efficiency.work_per_joule() / peak_ee
            } else {
                0.0
            };
            out.push(ExperimentRecord::new(
                "EXT-PROP",
                &format!("{name}@{:.1}", s.utilization),
                0.0,
                s.power.get(),
                s.utilization * peak_perf,
                serde_json::json!({
                    "utilization": s.utilization,
                    "power_w": s.power.get(),
                    "ee_rel_to_peak": rel,
                }),
            ));
            out.detail(format!("    EE / peak EE {rel:.3}"));
        }
        out.say(format!(
            "{name}: dynamic range {:.1}%, proportionality index {:.3}",
            curve.dynamic_range() * 100.0,
            curve.proportionality_index()
        ));
    }
    out.say("paper/[BH07]: servers live at 10-50% utilization, where classic curves waste most;");
    out.say("the DL785 row shows why Fig. 1's only power knob was removing spindles entirely.");
    out
}
