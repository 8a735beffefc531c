//! One benchmark run: set-up, warm-up, timed passes, metrics.
//!
//! A run is a closed loop with one client. Set-up generates the inputs
//! of all four sections at the workload's sizes and runs one untimed
//! warm-up pass, which also pins every simulated value. Timed passes
//! then repeat the *same fixed input* until the run's seconds are
//! spent; a throughput metric is the work the input defines divided by
//! the trimmed mean of the passes' reference seconds (see
//! [`crate::yardstick`] and [`crate::stats::trimmed_mean`]), so it does
//! not depend on how many passes fit.

use crate::harness::{wall, Harness};
use crate::json;
use crate::sections::cells::Cells;
use crate::sections::fleet::Fleet;
use crate::sections::sweep::{buffer_policies, replay_pages, Sweep};
use crate::sections::tpch::Tpch;
use crate::sections::Sizes;
use crate::seeds::Seeds;
use crate::spec::{self, MetricSpec, Workload};
use crate::stats::{median, p90_or_supported, quartiles, trimmed_mean};
use std::collections::BTreeMap;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload (decides which section runs at full size).
    pub workload: Workload,
    /// Section sizes; `Sizes::for_workload(workload)` on the CLI.
    pub sizes: Sizes,
    /// The benchmark seed, mixed into every generator seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of the
    /// end-to-end ones.
    pub traced: bool,
    /// Set-ups (input generation + warm-up pass) per untraced run;
    /// `setup_s` is their median.
    pub setups: usize,
    /// Fewest timed passes, however short `seconds` is.
    pub min_passes: usize,
}

impl RunConfig {
    /// The configuration the CLI runs for `workload`.
    pub fn cli(workload: Workload, seed: u64, seconds: f64, traced: bool) -> RunConfig {
        RunConfig {
            workload,
            sizes: Sizes::for_workload(workload),
            seed,
            seconds,
            traced,
            setups: 5,
            min_passes: 3,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The metric's name and unit, from [`crate::spec`].
    pub spec: MetricSpec,
    /// The reported value.
    pub value: f64,
    /// Samples behind the value (1 for a single reading).
    pub n: usize,
    /// First and third quartile of those samples, in the metric's unit
    /// (both equal `value` for a single reading).
    pub quartiles: (f64, f64),
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// The configuration that ran.
    pub config: RunConfig,
    /// Operations started, over set-up and every pass.
    pub attempted: u64,
    /// Operations with a failed correctness check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Timed passes (untraced ones, in a traced run).
    pub passes: usize,
    /// Every metric of the run's mode, in contract order.
    pub metrics: Vec<Measured>,
    /// What only a traced run has.
    pub trace: Option<TraceReport>,
}

/// The span side of a traced run.
#[derive(Debug)]
pub struct TraceReport {
    /// Self milliseconds per layer over the traced passes.
    pub layer_self_ms: BTreeMap<&'static str, f64>,
    /// The same over the workload's own section only (the other three
    /// sections run at probe size beside it).
    pub section_self_ms: BTreeMap<&'static str, f64>,
    /// Total wall milliseconds of the traced passes.
    pub pass_ms: f64,
    /// The spans, one JSON object per line.
    pub spans_jsonl: String,
    /// The percentile `host.op_ms_p90` could support.
    pub op_percentile: u32,
}

/// The four sections of one run.
struct World {
    sweep: Sweep,
    tpch: Tpch,
    cells: Cells,
    fleet: Fleet,
}

/// Reference seconds one pass spent in each section.
#[derive(Debug, Clone, Copy)]
struct PassSecs {
    sweep: f64,
    tpch: f64,
    cells: f64,
    fleet: f64,
}

impl PassSecs {
    fn total(&self) -> f64 {
        self.sweep + self.tpch + self.cells + self.fleet
    }
}

impl World {
    /// Generate every section's inputs and run the warm-up pass.
    fn setup(sizes: Sizes, seeds: Seeds, h: &mut Harness) -> World {
        let mut w = World {
            sweep: Sweep::setup(sizes.sweep, seeds),
            tpch: Tpch::setup(sizes.tpch, seeds),
            cells: Cells::setup(sizes.cells, seeds),
            fleet: Fleet::setup(sizes.fleet, seeds),
        };
        w.fleet.check_calm(h);
        w.pass(h);
        // The warm-up is not a measurement.
        w.cells.mode_secs = Default::default();
        h.clear_op_ms();
        w
    }

    fn pass(&mut self, h: &mut Harness) -> PassSecs {
        use Workload::{FleetChaos, ReproSweep, SimCells, TpchScale};
        h.span("host.pass", |h| PassSecs {
            sweep: h
                .timed(|h| h.span(ReproSweep.section_span(), |h| self.sweep.pass(h)))
                .1,
            tpch: h
                .timed(|h| h.span(TpchScale.section_span(), |h| self.tpch.pass(h)))
                .1,
            // The cells time each of their runs themselves.
            cells: h.span(SimCells.section_span(), |h| self.cells.pass(h)),
            fleet: h
                .timed(|h| h.span(FleetChaos.section_span(), |h| self.fleet.pass(h)))
                .1,
        })
    }

    /// Run passes until `seconds` of wall time have gone by and at
    /// least `min` ran.
    fn passes(&mut self, h: &mut Harness, seconds: f64, min: usize) -> Vec<PassSecs> {
        let start = std::time::Instant::now();
        let mut out = Vec::new();
        while out.len() < min || start.elapsed().as_secs_f64() < seconds {
            out.push(self.pass(h));
        }
        out
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or NaN where
/// `/proc` does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A rate metric: `work` per reference second over per-pass `secs`.
fn rate(spec: &MetricSpec, work: f64, secs: &[f64]) -> Measured {
    let (q1, _, q3) = quartiles(secs);
    Measured {
        spec: spec.clone(),
        value: work / trimmed_mean(secs),
        n: secs.len(),
        quartiles: (work / q3, work / q1),
    }
}

fn single(spec: &MetricSpec, value: f64) -> Measured {
    Measured {
        spec: spec.clone(),
        value,
        n: 1,
        quartiles: (value, value),
    }
}

/// Run `config` to completion.
pub fn run(config: RunConfig) -> RunResult {
    let seeds = Seeds::mixed(config.seed);
    let mut h = Harness::new();
    if config.traced {
        run_traced(config, seeds, &mut h)
    } else {
        run_untraced(config, seeds, &mut h)
    }
}

fn run_untraced(config: RunConfig, seeds: Seeds, h: &mut Harness) -> RunResult {
    // Set up several times and report the median, so one slow page
    // fault does not decide `setup_s`. Each world is dropped before the
    // next is built; the last one is measured.
    let mut setup_secs = Vec::new();
    let mut world = None;
    for _ in 0..config.setups.max(1) {
        drop(world.take());
        let (w, secs) = h.timed(|h| World::setup(config.sizes, seeds, h));
        setup_secs.push(secs);
        world = Some(w);
    }
    let mut world = world.expect("at least one set-up ran");
    let passes = world.passes(h, config.seconds, config.min_passes);

    let col = |f: fn(&PassSecs) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let jobs = world.cells.jobs() as f64;
    let specs = spec::end_to_end();
    let metrics = specs
        .iter()
        .map(|s| match s.name.as_str() {
            "setup_s" => {
                let (q1, q2, q3) = quartiles(&setup_secs);
                Measured {
                    spec: s.clone(),
                    value: q2,
                    n: setup_secs.len(),
                    quartiles: (q1, q3),
                }
            }
            "points_per_s" => rate(s, world.sweep.points_per_pass() as f64, &col(|p| p.sweep)),
            "paper_err_pct" => single(s, world.sweep.shape.err_pct),
            "rows_per_s" => rate(s, world.tpch.rows_per_pass() as f64, &col(|p| p.tpch)),
            "sim_jobs_per_s" => rate(s, jobs, &world.cells.mode_secs[0]),
            "sim_jobs_per_s_2shard" => rate(s, jobs, &world.cells.mode_secs[1]),
            "sim_jobs_per_s_traced" => rate(s, jobs, &world.cells.mode_secs[2]),
            "chaos_events_per_s" => {
                rate(s, world.fleet.events_per_pass() as f64, &col(|p| p.fleet))
            }
            "peak_rss_mb" => single(s, peak_rss_mb()),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        })
        .collect();
    RunResult {
        config,
        attempted: h.attempted,
        failed: h.failed,
        failures: h.failures.clone(),
        passes: passes.len(),
        metrics,
        trace: None,
    }
}

fn run_traced(config: RunConfig, seeds: Seeds, h: &mut Harness) -> RunResult {
    let mut world = World::setup(config.sizes, seeds, h);
    world.cells.keep_traced = true;
    // A third of the time untraced, a third traced, and the layer
    // probes (fixed work) take about the last third.
    let share = config.seconds / 3.0;
    let untraced = world.passes(h, share, config.min_passes);
    let untraced_ops = h.op_ms();
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for kind in spec::POINT_KINDS {
        out.insert(format!("core.point_ms.{kind}"), median(&h.op_ms_of(kind)));
    }
    h.start_tracing();
    // Wall time, taken apart from the spans, to hold their sum against.
    let (traced, traced_wall_s) = wall(|| world.passes(h, share, config.min_passes));
    h.stop_tracing();

    world.tpch.layer_metrics(h, &mut out);
    world.cells.layer_metrics(h, &mut out);
    world.fleet.layer_metrics(h, &mut out);

    // The buffer pool under each policy, over the sweep's page trace.
    let trace = &world.sweep.env.trace;
    for (kind, name) in buffer_policies().into_iter().zip(spec::POLICIES) {
        let ([hit_rate, ..], secs) = h.timed(|_| replay_pages(kind, trace));
        out.insert(
            format!("buffer.access_ns.{name}"),
            secs * 1e9 / trace.len() as f64,
        );
        out.insert(format!("buffer.hit_rate.{name}"), hit_rate);
    }
    out.insert("par.runner_speedup".into(), world.sweep.runner_speedup(h));
    out.insert(
        "sim.count.power_transitions".into(),
        world.sweep.power_transitions as f64,
    );
    let shape = world.sweep.shape;
    out.insert("simout.fig1_ee_peak_disks".into(), shape.ee_peak_disks);
    out.insert("simout.fig2_speedup".into(), shape.fig2_speedup);
    out.insert("simout.fig2_energy_ratio".into(), shape.fig2_energy_ratio);
    out.insert("simout.joules_per_query".into(), shape.joules_per_query);

    let totals = |p: &[PassSecs]| p.iter().map(PassSecs::total).collect::<Vec<f64>>();
    let (q1, untraced_s, q3) = quartiles(&totals(&untraced));
    let traced_s = median(&totals(&traced));
    let (p90, op_percentile) = p90_or_supported(&untraced_ops);
    out.insert("host.pass_s_q1".into(), q1);
    out.insert("host.pass_s_q3".into(), q3);
    out.insert("host.op_ms_p50".into(), median(&untraced_ops));
    out.insert("host.op_ms_p90".into(), p90);
    out.insert(
        "host.tracing_overhead_pct".into(),
        (traced_s / untraced_s - 1.0) * 100.0,
    );

    let metrics = spec::per_layer()
        .iter()
        .map(|s| match out.get(&s.name) {
            Some(v) => single(s, *v),
            None => {
                h.check(false, || format!("{} was not measured", s.name));
                single(s, f64::NAN)
            }
        })
        .collect();
    let spans = h.spans().expect("traced passes recorded spans");
    let to_ms = |ns: BTreeMap<&'static str, u64>| -> BTreeMap<&'static str, f64> {
        ns.into_iter()
            .map(|(layer, ns)| (layer, ns as f64 / 1e6))
            .collect()
    };
    RunResult {
        config,
        attempted: h.attempted,
        failed: h.failed,
        failures: h.failures.clone(),
        passes: untraced.len(),
        metrics,
        trace: Some(TraceReport {
            layer_self_ms: to_ms(spans.layer_self_ns(None)),
            section_self_ms: to_ms(spans.layer_self_ns(Some(config.workload.section_span()))),
            pass_ms: traced_wall_s * 1e3,
            spans_jsonl: spans.to_jsonl(),
            op_percentile,
        }),
    }
}

impl RunResult {
    /// True when every correctness check of the run held and every
    /// metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// One `name value unit` line per metric.
    pub fn metric_lines(&self) -> String {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "{} {} {}\n",
                    m.spec.name,
                    json::number(m.value),
                    m.spec.unit
                )
            })
            .collect()
    }

    /// The driver's result line: `correct`, `attempted`, `failed` and
    /// the metrics with every digit.
    pub fn contract_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.spec.name),
                    json::number(m.value),
                    json::quote(m.spec.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record of the run for a result file: the contract
    /// fields plus per-metric sample counts and quartiles.
    pub fn record_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"q1\": {}, \"q3\": {}, \"exact\": {}}}",
                    json::quote(&m.spec.name),
                    json::number(m.value),
                    json::quote(m.spec.unit),
                    m.n,
                    json::number(m.quartiles.0),
                    json::number(m.quartiles.1),
                    m.spec.exact
                )
            })
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json::quote(f)).collect();
        format!(
            "{{\"workload\": {}, \"traced\": {}, \"seed\": {}, \"seconds\": {}, \"passes\": {}, \
             \"ops_attempted\": {}, \"ops_failed\": {}, \"failures\": [{}], \"trace\": {}, \
             \"metrics\": {{{}}}}}",
            json::quote(self.config.workload.name()),
            self.config.traced,
            self.config.seed,
            json::number(self.config.seconds),
            self.passes,
            self.attempted,
            self.failed,
            failures.join(", "),
            self.trace
                .as_ref()
                .map_or("null".to_string(), TraceReport::json),
            metrics.join(", ")
        )
    }

    /// Traced runs: the per-layer self-time tables as `#` comment
    /// lines — over the whole traced passes, then over the workload's
    /// own section — with each layer's share.
    pub fn layer_table(&self) -> String {
        let Some(trace) = &self.trace else {
            return String::new();
        };
        let mut out = String::new();
        let table = |out: &mut String, title: &str, rows: &BTreeMap<&'static str, f64>| {
            let total: f64 = rows.values().sum();
            for (layer, ms) in rows {
                out.push_str(&format!(
                    "# layer {layer:<10} self {ms:>10.1} ms  {:>5.1} % of {title}\n",
                    ms / total * 100.0
                ));
            }
            total
        };
        let total = table(&mut out, "the traced passes", &trace.layer_self_ms);
        out.push_str(&format!(
            "# layers sum to {total:.1} ms of {:.1} ms traced ({:.2} %)\n",
            trace.pass_ms,
            total / trace.pass_ms * 100.0
        ));
        let title = format!("the {} section", self.config.workload.name());
        table(&mut out, &title, &trace.section_self_ms);
        out
    }
}

impl TraceReport {
    /// Everything but the spans, as a JSON object for the run's record.
    fn json(&self) -> String {
        let layers = |rows: &BTreeMap<&'static str, f64>| {
            rows.iter()
                .map(|(layer, ms)| format!("{}: {}", json::quote(layer), json::number(*ms)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"pass_ms\": {}, \"layer_self_ms\": {{{}}}, \"section_self_ms\": {{{}}}, \
             \"op_ms_percentile\": {}}}",
            json::number(self.pass_ms),
            layers(&self.layer_self_ms),
            layers(&self.section_self_ms),
            self.op_percentile
        )
    }
}
