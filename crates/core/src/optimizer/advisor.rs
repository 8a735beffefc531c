//! The knob advisor: score every [`KnobConfig`] against a workload and
//! return the best setting per objective — Sec. 4.1's "the same way many
//! of those knobs have been tuned to date to increase performance, we
//! expect DBAs to use them to improve energy efficiency", automated.
//!
//! Knob semantics in the cost model:
//!
//! * `dop` — CPU work spreads over `dop` cores: busy *time* divides by
//!   `dop`, busy *energy* above the halted pool is unchanged (same
//!   core-seconds at per-core power).
//! * `memory_grant` — bounds the sort's in-memory run size (small
//!   grants spill).
//! * `compression` — swaps stored bytes for decode cycles.
//! * `pstate` — rescales clock and active power via a [`DvfsModel`].

use super::cost::{CostModel, PlanCost};
use super::knobs::{sweep, KnobConfig, KnobGrid};
use super::objective::Objective;
use grail_power::dvfs::DvfsModel;

/// The workload a knob setting is scored against: a projection scan
/// feeding a sort (the shape of every template in the Fig. 1 mix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnobWorkload {
    /// Values the scan decodes.
    pub scan_values: f64,
    /// Bytes the scan moves when stored plain.
    pub scan_bytes_plain: f64,
    /// Stored-size ratio achieved when compression is on.
    pub compression_ratio: f64,
    /// Extra decode cycles per value when compression is on.
    pub decode_cpv: f64,
    /// Rows entering the sort.
    pub sort_rows: f64,
    /// Sort row arity.
    pub sort_arity: f64,
}

impl KnobWorkload {
    /// A Fig. 2-flavoured scan-and-sort workload.
    pub fn scan_sort_default() -> Self {
        KnobWorkload {
            scan_values: 750.0e6,
            scan_bytes_plain: 6.0e9,
            compression_ratio: 1.9,
            decode_cpv: 5.8,
            sort_rows: 15.0e6,
            sort_arity: 5.0,
        }
    }
}

/// Apply a knob configuration to the model's machine. The halted pool
/// (`cpu_idle`) stays; DVFS and parallelism scale only the marginal
/// draw of a busy core above it.
fn configure(model: &CostModel, cfg: KnobConfig, dvfs: &DvfsModel) -> CostModel {
    let mut m = *model;
    let p = cfg.pstate.min(dvfs.len().saturating_sub(1));
    let freq_scale = dvfs.pstates[p].freq.get() / dvfs.pstates[0].freq.get();
    let power_scale = dvfs.active_power(p).get() / dvfs.active_power(0).get();
    // Parallelism: time ÷ dop, busy core-seconds unchanged.
    let dop = cfg.dop.max(1) as f64;
    m.cpu_hz *= freq_scale;
    m.cpu_hz *= dop;
    m.cpu_active = m.cpu_idle + (m.cpu_active - m.cpu_idle) * power_scale * dop;
    m
}

/// Cost of `workload` under `cfg` on `model`'s machine.
pub fn evaluate(
    cfg: KnobConfig,
    workload: &KnobWorkload,
    model: &CostModel,
    dvfs: &DvfsModel,
) -> PlanCost {
    let model = configure(model, cfg, dvfs);
    let (bytes, decode) = if cfg.compression {
        (
            workload.scan_bytes_plain / workload.compression_ratio.max(1.0),
            workload.decode_cpv,
        )
    } else {
        (workload.scan_bytes_plain, 0.0)
    };
    let scan = model.scan(workload.scan_values, bytes, decode);
    let sort = model.sort(workload.sort_rows, workload.sort_arity, cfg.memory_grant);
    scan.then(&sort)
}

/// The advisor's verdict: best configuration and its cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Advice {
    /// The winning configuration.
    pub config: KnobConfig,
    /// Its estimated cost.
    pub cost: PlanCost,
}

/// Sweep `grid` and return the best configuration under `objective`.
///
/// # Panics
/// Panics on an empty grid, and on a NaN score (`finite scores`): a
/// NaN cost cannot be ranked, and a silent rank would pick it.
#[expect(
    clippy::expect_used,
    reason = "a NaN score is a broken cost model and the assert above rejects an empty grid; both documented under # Panics"
)]
pub fn advise(
    grid: &KnobGrid,
    workload: &KnobWorkload,
    model: &CostModel,
    dvfs: &DvfsModel,
    objective: Objective,
) -> Advice {
    assert!(!grid.is_empty(), "empty knob grid");
    sweep(grid)
        .into_iter()
        .map(|config| Advice {
            config,
            cost: evaluate(config, workload, model, dvfs),
        })
        .min_by(|a, b| {
            objective
                .score(&a.cost)
                .partial_cmp(&objective.score(&b.cost))
                .expect("finite scores")
        })
        .expect("non-empty grid")
}
