//! EXT-CLUSTER — Sec. 2.4's fleet-level consolidation (\[TWM+08\]):
//! spread vs consolidate over a heterogeneous (refresh-cycle) fleet,
//! across the utilization band \[BH07\] says servers live in.

use super::Outcome;
use crate::ExperimentRecord;
use grail_par::Runner;
use grail_scheduler::cluster::{place, refresh_cycle_fleet, PlacementPolicy};

pub(super) fn run(_runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let fleet = refresh_cycle_fleet();
    let total: f64 = fleet.iter().map(|m| m.capacity).sum();
    // Rows carry the consolidated fleet's power (W) in the energy column.
    for pct in [10, 20, 30, 40, 50, 70, 90, 100] {
        let demand = total * pct as f64 / 100.0;
        let spread = place(&fleet, demand, PlacementPolicy::Spread).expect("fits");
        let packed = place(&fleet, demand, PlacementPolicy::Consolidate).expect("fits");
        let saved = 1.0 - packed.power(&fleet).get() / spread.power(&fleet).get();
        out.push(ExperimentRecord::new(
            "EXT-CLUSTER",
            &format!("load={pct}%"),
            0.0,
            packed.power(&fleet).get(),
            demand,
            serde_json::json!({
                "spread_w": spread.power(&fleet).get(),
                "packed_w": packed.power(&fleet).get(),
                "packed_machines": packed.powered_count(),
                "saved_frac": saved,
            }),
        ));
        out.detail(format!(
            "    spread {:.0} W on {} machines   packed {:.0} W on {} machines   saved {:.1}%",
            spread.power(&fleet).get(),
            spread.powered_count(),
            packed.power(&fleet).get(),
            packed.powered_count(),
            saved * 100.0
        ));
    }
    out.say("shape: in the 10-50% band where [BH07] says servers live, consolidation plus");
    out.say("power-off recovers 30-60% — cluster-level energy proportionality from software.");
    out
}
