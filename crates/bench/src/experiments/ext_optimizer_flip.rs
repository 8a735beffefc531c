//! EXT-OPT — Sec. 4.1's optimizer claims, executable:
//!
//! 1. **Access paths** (Fig. 2 as an optimizer rule): on the flash
//!    scanner, MinTime picks the compressed ORDERS variant, MinEnergy
//!    the uncompressed one.
//! 2. **Join algorithms**: the paper speculates power-expensive memory
//!    "may tip the balance in favor of nested-loop join". We sweep
//!    DRAM power and report the flip threshold m* — and how far above
//!    2008 DRAM (~0.5 nW/byte idle) it lies, which quantifies the
//!    speculation.

use super::Outcome;
use crate::ExperimentRecord;
use grail_core::optimizer::cost::CostModel;
use grail_core::optimizer::enumerate::{best_access_path, best_plan, JoinAlgo, PlanNode, Relation};
use grail_core::optimizer::objective::Objective;
use grail_core::profile::HardwareProfile;
use grail_par::Runner;
use grail_power::units::Watts;

fn rel(name: &str, rows: f64, stored_bytes: f64, decode_cpv: f64) -> Relation {
    Relation {
        name: name.to_string(),
        rows,
        arity: 5.0,
        stored_bytes,
        decode_cpv,
    }
}

pub(super) fn run(_runner: &Runner) -> Outcome {
    let mut out = Outcome::default();

    // Part 1: access-path choice by objective.
    let m = CostModel::new(&HardwareProfile::flash_scanner()).expect("flash scanner");
    let variants = [
        rel("orders_plain", 150.0e6, 6.0e9, 0.0),
        rel("orders_compressed", 150.0e6, 3.15e9, 5.8),
    ];
    for obj in [Objective::MinTime, Objective::MinEnergy, Objective::MinEdp] {
        let (pick, cost) = best_access_path(&variants, &m, obj);
        out.push(ExperimentRecord::new(
            "EXT-OPT",
            &format!("{}:{}", obj.name(), variants[pick].name),
            cost.elapsed_secs,
            cost.energy_j,
            150.0e6,
            crate::extras!({"objective": obj.name(), "picked": variants[pick].name.as_str()}),
        ));
    }

    // Part 2: the join-flip sensitivity sweep.
    out.say("join-algorithm flip threshold (marginal accounting, build 2M rows, probe 10K rows):");
    let mut model = CostModel::new(&HardwareProfile::server_dl785(66)).expect("66 disks");
    model.cpu_active = model.cpu_active - model.cpu_idle;
    model.base = Watts::ZERO;
    model.cpu_idle = Watts::ZERO;
    model.io_idle = Watts::ZERO;
    let rels = [
        rel("probe", 1.0e4, 1.0e4 * 40.0, 0.0),
        rel("build", 2.0e6, 2.0e6 * 40.0, 0.0),
    ];
    let sel = |i: usize, j: usize| (i != j).then_some(1e-6);
    let mut flip_at: Option<f64> = None;
    for exp in -10..2 {
        let mem_w = 10f64.powi(exp);
        model.mem_watts_per_byte = mem_w;
        // Force the memory-heavy shape (build on the big side) to probe
        // the flip the paper describes; the free enumerator's choice is
        // printed alongside.
        let forced_hj = model.hash_join(2.0e6, 4.0, 1.0e4);
        let forced_nl = model.nl_join(1.0e4, 2.0e6);
        let energy_prefers_nl = forced_nl.energy_j < forced_hj.energy_j;
        let free = best_plan(&rels, &sel, &model, Objective::MinEnergy);
        let free_algo = match &free.plan {
            PlanNode::Join { algo, .. } => match algo {
                JoinAlgo::Hash => "hash",
                JoinAlgo::NestedLoop => "nl",
            },
            _ => "scan",
        };
        out.say(format!(
            "  mem_power = 1e{exp:+} W/B: forced-big-build energy flips to NL: {energy_prefers_nl}; free MinEnergy plan uses {free_algo}"
        ));
        if energy_prefers_nl && flip_at.is_none() {
            flip_at = Some(mem_w);
        }
    }
    let threshold = flip_at.unwrap_or(f64::INFINITY);
    out.say(format!(
        "flip threshold m* ≈ {threshold:.1e} W/byte; 2008 DDR2 idle ≈ 5e-10 W/byte → {:.0e}× above reality",
        threshold / 5e-10
    ));
    out.say("=> Sec. 4.1's join-flip needs either far hungrier memory or pipelined-overlap plans;");
    out.say("   the access-path flip (the first three rows) is the realistic instance of the same principle.");
    out.push(ExperimentRecord::new(
        "EXT-OPT",
        "join_flip_threshold",
        0.0,
        0.0,
        0.0,
        crate::extras!({"mem_watts_per_byte_threshold": threshold}),
    ));

    // Part 3: the *realistic* join flip — index nested-loop vs hash on
    // the flash scanner, sweeping probe cardinality. INL's descents are
    // flash-latency-bound (5 W); hash must scan + build the 2 M-row
    // inner on the 90 W CPU. Each row is the INL plan; its detail line
    // carries the hash-join twin.
    let inner_rows = 2.0e6;
    let inner_scan = m.scan(inner_rows * 4.0, inner_rows * 32.0, 0.0);
    let mut band = (None, None);
    for probe in [100.0f64, 500.0, 1000.0, 2000.0, 5000.0, 20_000.0, 1.0e6] {
        let hj = inner_scan.then(&m.hash_join(inner_rows, 4.0, probe));
        let inl = m.index_nl_join(probe, 3.0);
        let t_winner = if hj.elapsed_secs < inl.elapsed_secs {
            "HJ"
        } else {
            "INL"
        };
        let e_winner = if hj.energy_j < inl.energy_j {
            "HJ"
        } else {
            "INL"
        };
        if t_winner != e_winner {
            band.0.get_or_insert(probe);
            band.1 = Some(probe);
        }
        out.push(ExperimentRecord::new(
            "EXT-OPT",
            &format!("inl_vs_hj_probe_{probe:.0}"),
            inl.elapsed_secs,
            inl.energy_j,
            probe,
            crate::extras!({
                "hj_time_s": hj.elapsed_secs,
                "hj_energy_j": hj.energy_j,
                "time_winner": t_winner,
                "energy_winner": e_winner,
            }),
        ));
        out.detail(format!(
            "    vs hash join {:.3}s {:.1}J   winner time / energy: {t_winner} / {e_winner}",
            hj.elapsed_secs, hj.energy_j
        ));
    }
    out.say("index-NL vs hash join on the flash scanner (inner = 2M rows, 3-page descents):");
    if let (Some(lo), Some(hi)) = band {
        out.say(format!(
            "=> for probe sizes ~{lo:.0}..{hi:.0} the objectives disagree with REALISTIC numbers:"
        ));
        out.say("   time picks the hash join, energy picks the index nested-loop — the Sec. 4.1");
        out.say("   flip, live, once the join that avoids the 90 W CPU exists in the plan space.");
    }
    out
}
