//! EXT-TCO — Sec. 5.3's "Designing for Total Cost of Ownership": price
//! the Fig. 1 configurations over a deployment lifetime, and test the
//! paper's speculation that scale-out at constant efficiency beats
//! scale-up into diminishing returns.

use super::Outcome;
use crate::ExperimentRecord;
use grail_par::Runner;
use grail_power::tco::TcoModel;
use grail_power::units::Watts;

/// Measured run-average powers from FIG1 (see EXPERIMENTS.md).
const CONFIGS: [(usize, f64); 4] = [(36, 1528.0), (66, 2018.0), (108, 2670.0), (204, 4161.0)];
const DISK_USD: f64 = 250.0;
const CHASSIS_USD: f64 = 8000.0;

pub(super) fn run(_runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let m = TcoModel::circa_2008();
    // Rows carry lifetime energy dollars in the energy column and
    // hardware dollars in the work column.
    for (disks, watts) in CONFIGS {
        let hw = CHASSIS_USD + disks as f64 * DISK_USD;
        let c = m.evaluate(hw, Watts::new(watts));
        out.push(ExperimentRecord::new(
            "EXT-TCO",
            &format!("disks={disks}"),
            0.0,
            c.energy_usd,
            hw,
            serde_json::json!({
                "hw_usd": c.hardware_usd,
                "energy_usd": c.energy_usd,
                "total_usd": c.total_usd(),
                "energy_share": c.energy_share(),
            }),
        ));
        out.detail(format!(
            "    hw ${:.0}   energy ${:.0}   total ${:.0}   energy share {:.1}%",
            c.hardware_usd,
            c.energy_usd,
            c.total_usd(),
            c.energy_share() * 100.0
        ));
    }

    // Scale-out vs scale-up at matched throughput (FIG1: two 66-disk
    // nodes out-throughput one 204-disk node).
    let up = m.evaluate(CHASSIS_USD + 204.0 * DISK_USD, Watts::new(4161.0));
    let scale_out = m.evaluate(
        2.0 * (CHASSIS_USD + 66.0 * DISK_USD),
        Watts::new(2.0 * 2018.0),
    );
    out.say("matched ≥1.8x throughput:");
    out.say(format!(
        "  scale-up   (1 × 204 disks): ${:>8.0} total ({:.0} W)",
        up.total_usd(),
        4161.0
    ));
    out.say(format!(
        "  scale-out  (2 ×  66 disks): ${:>8.0} total ({:.0} W) — fewer spindles, same EE",
        scale_out.total_usd(),
        2.0 * 2018.0
    ));
    out.say("");
    out.say("the fabric knee makes spindles 67-204 sublinear, so the scale-out option needs");
    out.say("fewer total disks for more throughput: Sec. 5.3's 'parallelize at constant");
    out.say("efficiency' wins on hardware AND energy here — its strongest form.");
    out.say(format!(
        "a server drawing its own price in lifetime electricity: {:.0} W per $1000 of hardware.",
        m.breakeven_power(1000.0).get()
    ));
    out
}
