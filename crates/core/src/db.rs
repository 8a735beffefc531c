//! The [`EnergyAwareDb`] facade: load data, run work, read the meter.

use crate::profile::HardwareProfile;
use crate::report::EnergyReport;
use grail_metrics::registry::{JOULES_BUCKETS, SECONDS_BUCKETS};
use grail_power::units::{Bytes, SimDuration};
use grail_query::batch::Table;
use grail_query::exec::{run_collect, ExecContext, OpTally, Operator};
use grail_query::expr::Expr;
use grail_query::ops::{ColumnarScan, StoredTable};
use grail_sim::driver::{run_streams, IoDemand, JobResult, JobSpec};
use grail_sim::ids::CpuId;
use grail_sim::sim::Simulation;
use grail_sim::AttributionTable;
use grail_sim::DiskId;
use grail_sim::OperatorShare;
use grail_sim::StorageTarget;
use grail_sim::{FaultConfig, FaultPlan, SimError};
use grail_trace::{Category, Recorder, TraceEvent, TraceSink, TraceTime, Tracer, Track};
use grail_workload::mix::{closed_mix, job_from_tallies, scale_tally};
use grail_workload::queries::{QueryTemplate, StoredCatalog};
use grail_workload::tpch::{self, TpchScale, TpchTable, TpchTables, ORDERS_FIG2_PROJECTION};
use std::sync::{Arc, OnceLock};

/// How tables are physically stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionMode {
    /// Columnar, uncompressed.
    Plain,
    /// Columnar, heuristically chosen codecs.
    Auto,
    /// The conservative Fig. 2 codec set (~1.8–2× on ORDERS).
    Fig2,
}

/// Execution policy: the knobs a run is performed under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecPolicy {
    /// Physical storage mode.
    pub compression: CompressionMode,
    /// Per-query degree of parallelism.
    pub dop: u32,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            compression: CompressionMode::Plain,
            dop: 1,
        }
    }
}

/// A projection scan request over ORDERS.
#[derive(Debug, Clone)]
pub struct ScanSpec {
    /// Column indices to project.
    pub projection: Vec<usize>,
    /// Optional predicate.
    pub predicate: Option<Expr>,
}

impl ScanSpec {
    /// The first `k` ORDERS columns (Fig. 2 uses 5 of 7).
    pub fn orders_projection(k: usize) -> Self {
        ScanSpec {
            projection: (0..k.min(7)).collect(),
            predicate: None,
        }
    }

    /// Fig. 2's exact projection.
    pub fn fig2() -> Self {
        ScanSpec {
            projection: ORDERS_FIG2_PROJECTION.to_vec(),
            predicate: None,
        }
    }

    /// This scan over `orders`.
    fn plan(&self, orders: Arc<StoredTable>) -> Box<dyn Operator> {
        let projection = self.projection.clone();
        match self.predicate.clone() {
            Some(p) => ColumnarScan::filtered(orders, projection, p),
            None => Box::new(ColumnarScan::new(orders, projection)),
        }
    }

    /// The report label of this scan under `policy`.
    fn label(&self, policy: ExecPolicy) -> String {
        format!(
            "scan[{} cols, {:?}]",
            self.projection.len(),
            policy.compression
        )
    }
}

/// Default event capacity for traced runs: plenty for the small
/// configurations EXT-TRACE captures; bigger runs evict oldest
/// events deterministically and report the drop count.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// A metered run plus its flight-recorder capture.
#[derive(Debug)]
pub struct TracedRun {
    /// The metered outcome; `report.attribution` is populated.
    pub report: EnergyReport,
    /// The recorder holding the run's events and metrics, ready for
    /// [`grail_trace::export::to_jsonl`] or
    /// [`grail_trace::export::to_chrome`].
    pub trace: Recorder,
}

/// The logical storage target tables are bound to before a run maps
/// them onto a concrete profile's devices. Any job built against it
/// must pass through [`stripe_job`] before dispatch.
pub const LOGICAL_TARGET: StorageTarget = StorageTarget::Disk(DiskId(u32::MAX));

/// Split every IO demand of `job` evenly across `targets` (column files
/// striped over the drives / the RAID array).
pub fn stripe_job(job: &JobSpec, targets: &[StorageTarget]) -> JobSpec {
    let n = targets.len().max(1) as u64;
    let mut job = job.clone();
    for p in &mut job.phases {
        let striped = p.io.iter().flat_map(|d| {
            let (per, rem) = (d.bytes.get() / n, d.bytes.get() % n);
            targets.iter().enumerate().map(move |(i, t)| IoDemand {
                target: *t,
                bytes: Bytes::new(if i == 0 { per + rem } else { per }),
                ..*d
            })
        });
        p.io = striped.filter(|d| d.bytes.get() > 0).collect();
    }
    job
}

/// One value per TPC-H table, each made by the first call that needs it.
#[derive(Debug)]
struct Cells<T>([OnceLock<Arc<T>>; 5]);

impl<T> Default for Cells<T> {
    fn default() -> Self {
        Cells(std::array::from_fn(|_| OnceLock::new()))
    }
}

impl<T> Cells<T> {
    fn cell(&self, table: TpchTable) -> &OnceLock<Arc<T>> {
        &self.0[table as usize]
    }
}

/// One table in one stored form, encoded on first use.
type StoredCell = OnceLock<Arc<StoredTable>>;

/// The loaded database: what to generate, the tables generated so far,
/// and their physical store. Generation and compression both happen on
/// first use: every table is generated at most once, by the first call
/// that reads it, and every (table, storage mode) is encoded at most
/// once, by the first call that scans it. All of it lives while any db
/// holds it: the one that loaded it, and each one [`EnergyAwareDb::on`]
/// made from it. A `load_tpch*` swaps in a new value for its own db
/// only.
///
/// The store costs little beyond the tables: Plain segments share the
/// tables' own columns, and Fig. 2 storage is Auto storage with ORDERS
/// re-encoded, so it owns one cell and takes its other four tables
/// from `auto`.
#[derive(Debug)]
struct Loaded {
    scale: TpchScale,
    seed: u64,
    generated: Cells<Table>,
    /// The five generated tables as one value, assembled by the first
    /// [`EnergyAwareDb::try_tables`].
    tables: OnceLock<TpchTables>,
    plain: Cells<StoredTable>,
    auto: Cells<StoredTable>,
    fig2_orders: StoredCell,
}

/// How one storage mode stores one table.
type StoreFn = fn(Arc<Table>, StorageTarget) -> StoredTable;

impl Loaded {
    /// `table`, generated only if its cell is still empty.
    fn table(&self, table: TpchTable) -> Arc<Table> {
        self.generated
            .cell(table)
            .get_or_init(|| tpch::generate_table(self.scale, self.seed, table))
            .clone()
    }

    /// `table` stored by `store`, encoded only if `cell` is still empty.
    fn stored(&self, cell: &StoredCell, table: TpchTable, store: StoreFn) -> Arc<StoredTable> {
        cell.get_or_init(|| Arc::new(store(self.table(table), LOGICAL_TARGET)))
            .clone()
    }
}

/// The energy-aware database: a hardware profile plus loaded tables.
/// A clone shares the loaded tables; [`Self::on`] moves them to
/// another machine.
#[derive(Debug, Clone)]
pub struct EnergyAwareDb {
    profile: HardwareProfile,
    loaded: Option<Arc<Loaded>>,
    fault: Option<(FaultConfig, u64)>,
    scrape_interval: Option<u64>,
}

impl EnergyAwareDb {
    /// A database on `profile` with nothing loaded.
    pub fn new(profile: HardwareProfile) -> Self {
        EnergyAwareDb {
            profile,
            loaded: None,
            fault: None,
            scrape_interval: None,
        }
    }

    /// This db on `profile`: the same loaded tables, fault profile and
    /// scrape interval. The two dbs share every table generated and
    /// every table stored so far, and whatever either one generates or
    /// stores from now on, since what a run reads never depends on the
    /// machine it runs on. Everything a run writes is its own.
    pub fn on(&self, profile: HardwareProfile) -> Self {
        EnergyAwareDb {
            profile,
            ..self.clone()
        }
    }

    /// Scrape the metrics registry into snapshots every `nanos` of
    /// simulated time during traced runs. The recorder's snapshot
    /// series then shows how counters, latencies and rates evolved
    /// over the run rather than only the end-of-run totals.
    pub fn set_scrape_interval(&mut self, nanos: u64) {
        self.scrape_interval = Some(nanos);
    }

    /// The active profile.
    pub fn profile(&self) -> &HardwareProfile {
        &self.profile
    }

    /// Inject faults into every subsequent run: each run builds a fresh
    /// [`FaultPlan`] from `cfg` and `seed`, so repeated runs are
    /// bit-identical, and retry/recovery costs land on the report's
    /// `recovery` and `retries` fields. A zero-rate config is
    /// indistinguishable from no profile at all.
    pub fn set_fault_profile(&mut self, cfg: FaultConfig, seed: u64) {
        self.fault = Some((cfg, seed));
    }

    /// The active fault profile, if any.
    pub fn fault_profile(&self) -> Option<(FaultConfig, u64)> {
        self.fault
    }

    /// Install the flight recorder on `sim` (honoring the configured
    /// scrape interval) and enable per-query energy attribution.
    fn install_tracer(&self, sim: &mut Simulation) {
        let mut rec = Recorder::new(DEFAULT_TRACE_CAPACITY);
        if let Some(iv) = self.scrape_interval {
            rec = rec.with_scrape_interval(iv);
        }
        sim.set_tracer(Tracer::on(rec));
        sim.enable_attribution();
    }

    /// Build the profile's simulation, arming the fault plan when one is
    /// configured; errs where [`HardwareProfile::try_build`] does.
    fn build_sim(&self) -> Result<(Simulation, CpuId, Vec<StorageTarget>), SimError> {
        let (mut sim, cpu, targets) = self.profile.try_build()?;
        if let Some((cfg, seed)) = self.fault {
            sim.set_fault_plan(FaultPlan::new(cfg, seed));
        }
        Ok((sim, cpu, targets))
    }

    /// Load TPC-H-like tables at `scale` (seed 42).
    pub fn load_tpch(&mut self, scale: TpchScale) {
        self.load_tpch_seeded(scale, 42);
    }

    /// Load TPC-H-like tables at `scale` from `seed`. Nothing is drawn
    /// yet: each table is generated by the first call that reads it (a
    /// projection scan reads ORDERS alone), byte for byte the table
    /// [`tpch::generate`] would return. This db lets go of the previous
    /// tables and whatever was stored for them; a db that [`Self::on`]
    /// made from it keeps them.
    pub fn load_tpch_seeded(&mut self, scale: TpchScale, seed: u64) {
        self.loaded = Some(Arc::new(Loaded {
            scale,
            seed,
            generated: Cells::default(),
            tables: OnceLock::new(),
            plain: Cells::default(),
            auto: Cells::default(),
            fig2_orders: StoredCell::new(),
        }));
    }

    fn try_loaded(&self) -> Result<&Loaded, SimError> {
        self.loaded.as_deref().ok_or(SimError::NotLoaded)
    }

    /// The loaded tables, or [`SimError::NotLoaded`]. The first call
    /// generates whichever of the five no run has read yet.
    pub fn try_tables(&self) -> Result<&TpchTables, SimError> {
        let l = self.try_loaded()?;
        Ok(l.tables.get_or_init(|| TpchTables {
            orders: l.table(TpchTable::Orders),
            lineitem: l.table(TpchTable::Lineitem),
            customer: l.table(TpchTable::Customer),
            part: l.table(TpchTable::Part),
            supplier: l.table(TpchTable::Supplier),
        }))
    }

    /// The loaded tables.
    ///
    /// # Panics
    /// Panics if nothing is loaded; [`Self::try_tables`] is the fallible
    /// form.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking facade over try_tables"
    )]
    pub fn tables(&self) -> &TpchTables {
        self.try_tables().expect("load_tpch first")
    }

    /// ORDERS as `mode` stores it (all a projection scan touches).
    fn try_orders(&self, mode: CompressionMode) -> Result<Arc<StoredTable>, SimError> {
        let l = self.try_loaded()?;
        let (cell, store): (_, StoreFn) = match mode {
            CompressionMode::Plain => {
                (l.plain.cell(TpchTable::Orders), StoredTable::columnar_plain)
            }
            CompressionMode::Auto => (l.auto.cell(TpchTable::Orders), StoredTable::columnar_auto),
            CompressionMode::Fig2 => (&l.fig2_orders, StoredCatalog::fig2_orders),
        };
        Ok(l.stored(cell, TpchTable::Orders, store))
    }

    /// The stored catalog of `mode`, made of references into the store:
    /// table for table what `StoredCatalog::{plain, compressed, fig2}`
    /// would build.
    fn try_catalog(&self, mode: CompressionMode) -> Result<StoredCatalog, SimError> {
        let l = self.try_loaded()?;
        let (cells, store): (_, StoreFn) = match mode {
            CompressionMode::Plain => (&l.plain, StoredTable::columnar_plain),
            CompressionMode::Auto | CompressionMode::Fig2 => (&l.auto, StoredTable::columnar_auto),
        };
        let stored = |table| l.stored(cells.cell(table), table, store);
        Ok(StoredCatalog {
            orders: self.try_orders(mode)?,
            lineitem: stored(TpchTable::Lineitem),
            customer: stored(TpchTable::Customer),
            part: stored(TpchTable::Part),
            supplier: stored(TpchTable::Supplier),
        })
    }

    /// Run a projection scan of ORDERS (the Fig. 2 experiment) and
    /// return the metered outcome. `scale_to` stretches the measured
    /// demands to a larger ORDERS row count without materializing it
    /// (1.0 = run at the loaded size).
    ///
    /// # Panics
    /// Panics when nothing is loaded, the projection is invalid, or the
    /// fault profile exhausts retries; [`Self::try_run_scan`] is the
    /// fallible form.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking facade over try_run_scan"
    )]
    pub fn run_scan(&self, spec: &ScanSpec, policy: ExecPolicy, scale_to: f64) -> EnergyReport {
        self.try_run_scan(spec, policy, scale_to)
            .expect("scan runs on a loaded db")
    }

    /// Fallible form of [`Self::run_scan`].
    pub fn try_run_scan(
        &self,
        spec: &ScanSpec,
        policy: ExecPolicy,
        scale_to: f64,
    ) -> Result<EnergyReport, SimError> {
        let plan = spec.plan(self.try_orders(policy.compression)?);
        let report = self.try_run_plan(plan, policy, scale_to)?;
        Ok(EnergyReport {
            label: spec.label(policy),
            work: (report.work * scale_to).max(0.0),
            ..report
        })
    }

    /// [`Self::try_run_scan`] with the flight recorder on: every device
    /// reservation, power transition, and ledger movement becomes a
    /// trace event, and the report carries a per-query attribution
    /// table. Tracing observes the same simulation — the physics (time,
    /// Joules) are identical to the untraced run.
    pub fn try_run_scan_traced(
        &self,
        spec: &ScanSpec,
        policy: ExecPolicy,
        scale_to: f64,
    ) -> Result<TracedRun, SimError> {
        let plan = spec.plan(self.try_orders(policy.compression)?);
        let scan = measure(plan, policy.dop, scale_to)?;
        let run = self.meter(spec.label(policy), std::slice::from_ref(&scan), 1, 1, true)?;
        Ok(TracedRun {
            report: EnergyReport {
                work: (scan.rows as f64 * scale_to).max(0.0),
                ..run.report
            },
            ..run
        })
    }

    /// Run one query template by itself and meter it.
    pub fn try_run_template(
        &self,
        template: QueryTemplate,
        policy: ExecPolicy,
        scale_to: f64,
    ) -> Result<EnergyReport, SimError> {
        let plan = template.plan(&self.try_catalog(policy.compression)?);
        Ok(EnergyReport {
            label: template.name().to_string(),
            ..self.try_run_plan(plan, policy, scale_to)?
        })
    }

    /// Run `plan` by itself and meter it: its demands are measured on
    /// the calibrated executor at the loaded scale, stretched by
    /// `scale_to`, split over `policy.dop` cores and dispatched as the
    /// only query on a fresh simulation of the profile. `work` is the
    /// plan's result rows; `policy.compression` is not read, the plan
    /// already names its stored tables.
    pub fn try_run_plan(
        &self,
        plan: Box<dyn Operator>,
        policy: ExecPolicy,
        scale_to: f64,
    ) -> Result<EnergyReport, SimError> {
        let plan = measure(plan, policy.dop, scale_to)?;
        let run = self.meter("plan".into(), std::slice::from_ref(&plan), 1, 1, false)?;
        Ok(EnergyReport {
            work: plan.rows as f64,
            ..run.report
        })
    }

    /// Run the Fig. 1 throughput test: `streams` concurrent clients,
    /// each issuing `queries_per_stream` queries round-robin over the
    /// four templates, with per-query demands measured at the loaded
    /// scale and stretched by `scale_to`.
    ///
    /// # Panics
    /// Panics when nothing is loaded or a template fails to execute;
    /// [`Self::try_run_throughput_test`] is the fallible form.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking facade over try_run_throughput_test"
    )]
    pub fn run_throughput_test(
        &self,
        streams: usize,
        queries_per_stream: usize,
        policy: ExecPolicy,
        scale_to: f64,
    ) -> EnergyReport {
        self.try_run_throughput_test(streams, queries_per_stream, policy, scale_to)
            .expect("throughput test runs on a loaded db")
    }

    /// Fallible form of [`Self::run_throughput_test`].
    pub fn try_run_throughput_test(
        &self,
        streams: usize,
        queries_per_stream: usize,
        policy: ExecPolicy,
        scale_to: f64,
    ) -> Result<EnergyReport, SimError> {
        let mix = self.measure_mix(policy, scale_to)?;
        let label = format!("throughput[{streams}x{queries_per_stream}]");
        Ok(self
            .meter(label, &mix, streams, queries_per_stream, false)?
            .report)
    }

    /// [`Self::try_run_throughput_test`] with the flight recorder on.
    /// The report gains a per-query attribution table (rows sum to the
    /// ledger total) with per-operator demand detail, and the recorder
    /// holds the full event/metric capture.
    pub fn try_run_throughput_test_traced(
        &self,
        streams: usize,
        queries_per_stream: usize,
        policy: ExecPolicy,
        scale_to: f64,
    ) -> Result<TracedRun, SimError> {
        let mix = self.measure_mix(policy, scale_to)?;
        let label = format!("throughput[{streams}x{queries_per_stream}]");
        self.meter(label, &mix, streams, queries_per_stream, true)
    }

    /// The four throughput-test templates under `policy`, each measured
    /// once.
    fn measure_mix(&self, policy: ExecPolicy, scale_to: f64) -> Result<Vec<Measured>, SimError> {
        let catalog = self.try_catalog(policy.compression)?;
        QueryTemplate::MIX
            .iter()
            .map(|t| measure(t.plan(&catalog), policy.dop, scale_to))
            .collect()
    }

    /// The one metered run: `streams` closed-loop clients of
    /// `per_stream` queries each, dealt round-robin over `prototypes`
    /// by [`closed_mix`], on a fresh simulation of the profile. `work`
    /// counts the completed queries. Untraced, the returned recorder is
    /// [`Recorder::metrics_only`] and keeps nothing.
    fn meter(
        &self,
        label: String,
        prototypes: &[Measured],
        streams: usize,
        per_stream: usize,
        traced: bool,
    ) -> Result<TracedRun, SimError> {
        let (mut sim, cpu, targets) = self.build_sim()?;
        if traced {
            self.install_tracer(&mut sim);
        }
        let striped: Vec<JobSpec> = prototypes
            .iter()
            .map(|m| stripe_job(&m.job, &targets))
            .collect();
        let out = run_streams(&mut sim, cpu, &closed_mix(&striped, streams, per_stream))?;
        record_query_metrics(sim.tracer_mut(), &out.results);
        let cpu_busy = sim.cpu(cpu)?.stats().busy;
        let mut report = sim.finish(out.makespan);
        let mut attribution = report.attribution.take();
        let mut trace = report.trace.take().unwrap_or_else(Recorder::metrics_only);
        attach_operator_detail(&mut trace, attribution.as_mut(), prototypes);
        feed_query_energy(&mut trace, attribution.as_ref());
        Ok(TracedRun {
            report: EnergyReport {
                profile: self.profile.name,
                label,
                elapsed: report.elapsed,
                energy: report.total_energy(),
                work: out.results.len() as f64,
                cpu_busy,
                recovery: report.recovery_energy(),
                retries: out.total_retries,
                ledger: report.ledger,
                attribution,
            },
            trace,
        })
    }

    /// Idle the machine for `d` and meter it (the baseline burn the
    /// paper's Sec. 2.4 calls out: classic servers draw most of their
    /// peak power doing nothing). Errs where
    /// [`HardwareProfile::try_build`] does.
    pub fn run_idle(&self, d: SimDuration) -> Result<EnergyReport, SimError> {
        let (sim, _, _) = self.build_sim()?;
        let report = sim.finish(grail_power::units::SimInstant::EPOCH + d);
        Ok(EnergyReport {
            profile: self.profile.name,
            label: "idle".to_string(),
            elapsed: report.elapsed,
            energy: report.total_energy(),
            work: 0.0,
            cpu_busy: SimDuration::ZERO,
            recovery: report.recovery_energy(),
            retries: 0,
            ledger: report.ledger,
            attribution: None,
        })
    }
}

/// Record per-query completion metrics for every finished job: a query
/// counter, a latency histogram, and a 1-second-windowed completion
/// rate keyed on each query's finish instant. Runs *before*
/// [`Simulation::finish`] so the horizon scrape snapshot includes them.
fn record_query_metrics(tracer: &mut Tracer, results: &[JobResult]) {
    for r in results {
        tracer.count("db.queries", 1);
        tracer.observe(
            "db.query_secs",
            SECONDS_BUCKETS,
            r.end.duration_since(r.start).as_secs_f64(),
        );
        tracer.rate("db.query_rate", 1_000_000_000, r.end.as_nanos(), 1);
    }
}

/// Feed per-query energy from the settled attribution table into the
/// recorder's registry: a Joules histogram over query rows (the
/// residual row has no stream and is skipped) and the mean
/// joules-per-query gauge the regression watchdog guards. Attribution
/// settles only at finish, so these land after the last scrape — they
/// are end-of-run aggregates, not time series.
fn feed_query_energy(rec: &mut Recorder, attribution: Option<&AttributionTable>) {
    let Some(table) = attribution else {
        return;
    };
    let mut queries = 0u64;
    let mut total = 0.0;
    for row in table.rows.iter().filter(|r| r.stream.is_some()) {
        rec.metrics_mut()
            .observe("db.query_joules", JOULES_BUCKETS, row.energy.joules());
        queries += 1;
        total += row.energy.joules();
    }
    if queries > 0 {
        rec.metrics_mut()
            .set_gauge("db.joules_per_query", total / queries as f64);
    }
}

/// Attach per-operator demand detail to a traced run's outputs.
///
/// `prototypes[k]` holds the operator tallies measured for template
/// `k`, and [`closed_mix`] dealt template `(s + q) % n` to stream `s`'s
/// `q`-th query. Attribution rows gain [`OperatorShare`] breakdowns, and
/// the recorder gains one [`Category::Query`] span per operator on
/// [`Track::Exec`] in pseudo-time (1 CPU cycle = 1 ns), so Perfetto
/// shows relative operator weight without pretending the executor ran
/// on the simulated clock.
fn attach_operator_detail(
    rec: &mut Recorder,
    attribution: Option<&mut AttributionTable>,
    prototypes: &[Measured],
) {
    if let Some(table) = attribution {
        for row in &mut table.rows {
            // A query row exists only if `closed_mix` dealt it a prototype.
            if let (Some(s), Some(q)) = (row.stream, row.index) {
                row.operators = prototypes[(s as usize + q as usize) % prototypes.len()]
                    .ops
                    .iter()
                    .map(|t| OperatorShare {
                        name: t.name.to_string(),
                        calls: t.calls,
                        cpu_cycles: t.cpu.get(),
                        io_bytes: t.io_bytes.get(),
                    })
                    .collect();
            }
        }
    }
    for (k, m) in prototypes.iter().enumerate() {
        let mut cursor = 0u64;
        for t in &m.ops {
            let dur = t.cpu.get().max(1);
            rec.record(
                TraceEvent::span(
                    TraceTime::from_nanos(cursor),
                    dur,
                    Category::Query,
                    t.name,
                    Track::Exec,
                )
                .arg("template", k as u64)
                .arg("calls", t.calls)
                .arg("cpu_cycles", t.cpu.get())
                .arg("io_bytes", t.io_bytes.get()),
            );
            cursor += dur;
        }
    }
}

/// One plan measured at the loaded scale: the job it dispatches, its
/// result rows and its per-operator tallies.
#[derive(Debug)]
struct Measured {
    job: JobSpec,
    rows: usize,
    ops: Vec<OpTally>,
}

/// Run `plan` on the calibrated executor and package its phase tallies,
/// each stretched by `scale_to`, as one job with CPU split over `dop`
/// cores.
fn measure(mut plan: Box<dyn Operator>, dop: u32, scale_to: f64) -> Result<Measured, SimError> {
    let mut ctx = ExecContext::calibrated();
    let out = run_collect(plan.as_mut(), &mut ctx).map_err(|e| SimError::Plan {
        reason: e.to_string(),
    })?;
    let ops = ctx.take_op_tallies();
    let tallies: Vec<_> = ctx
        .finish()
        .iter()
        .map(|tally| scale_tally(tally, scale_to))
        .collect();
    Ok(Measured {
        job: job_from_tallies(&tallies, dop),
        rows: out.iter().map(|b| b.len()).sum(),
        ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(profile: HardwareProfile) -> EnergyAwareDb {
        let mut db = EnergyAwareDb::new(profile);
        db.load_tpch(TpchScale::toy());
        db
    }

    /// The tables `db` generated so far, in [`TpchTable::ALL`] order.
    fn generated(db: &EnergyAwareDb) -> Vec<TpchTable> {
        let l = db.try_loaded().expect("loaded");
        TpchTable::ALL
            .into_iter()
            .filter(|t| l.generated.cell(*t).get().is_some())
            .collect()
    }

    const MODES: [CompressionMode; 3] = [
        CompressionMode::Plain,
        CompressionMode::Auto,
        CompressionMode::Fig2,
    ];

    /// One scan, one template and one throughput test under `mode`,
    /// reduced to what must repeat bit for bit.
    fn facade_calls(
        db: &EnergyAwareDb,
        mode: CompressionMode,
    ) -> Vec<(
        SimDuration,
        grail_power::units::Joules,
        grail_power::ledger::EnergyLedger,
    )> {
        let policy = ExecPolicy {
            compression: mode,
            dop: 2,
        };
        [
            db.run_scan(&ScanSpec::fig2(), policy, 100.0),
            db.try_run_template(QueryTemplate::SegmentRevenue, policy, 100.0)
                .expect("template runs on a loaded db"),
            db.run_throughput_test(2, 2, policy, 100.0),
        ]
        .into_iter()
        .map(|r| (r.elapsed, r.energy, r.ledger))
        .collect()
    }

    /// A warm db, and the same db moved to another machine by `on`, each
    /// report bit for bit what a fresh db on its profile reports. The
    /// moved db runs first, so the original reads what it stored.
    #[test]
    fn repeated_calls_on_one_db_equal_a_fresh_db() {
        let mut shared = db(HardwareProfile::server_dl785(36));
        shared.set_fault_profile(FaultConfig::NONE, 3);
        let mut moved = shared.on(HardwareProfile::server_dl785(66));
        assert_eq!(moved.fault_profile(), Some((FaultConfig::NONE, 3)));
        for mode in MODES {
            let on_66 = facade_calls(&moved, mode);
            let fresh_66 = facade_calls(&db(HardwareProfile::server_dl785(66)), mode);
            assert_eq!(
                on_66, fresh_66,
                "{mode:?}: a moved db must equal a fresh one"
            );
            let first = facade_calls(&shared, mode);
            let second = facade_calls(&shared, mode);
            let fresh = facade_calls(&db(HardwareProfile::server_dl785(36)), mode);
            assert_eq!(first, second, "{mode:?}: the store must not change results");
            assert_eq!(first, fresh, "{mode:?}: a warm db must equal a fresh one");
        }
        let orders = shared.tables().orders.clone();
        assert!(Arc::ptr_eq(&orders, &moved.tables().orders));
        moved.load_tpch_seeded(TpchScale::toy(), 7);
        assert!(!Arc::ptr_eq(&orders, &moved.tables().orders));
        assert!(
            Arc::ptr_eq(&orders, &shared.tables().orders),
            "the original keeps its tables"
        );
    }

    #[test]
    fn reloading_drops_the_stored_tables() {
        let mut db = db(HardwareProfile::server_dl785(36));
        let reseeded = |seed| {
            let mut db = EnergyAwareDb::new(HardwareProfile::server_dl785(36));
            db.load_tpch_seeded(TpchScale::toy(), seed);
            db
        };
        for mode in MODES {
            let stale = facade_calls(&db, mode);
            db.load_tpch_seeded(TpchScale::toy(), 7);
            let reloaded = facade_calls(&db, mode);
            assert_ne!(reloaded, stale, "{mode:?}: seed 7 is different data");
            assert_eq!(reloaded, facade_calls(&reseeded(7), mode), "{mode:?}");
            db.load_tpch(TpchScale::toy());
            assert_eq!(facade_calls(&db, mode), stale, "{mode:?}: back on seed 42");
        }
    }

    #[test]
    fn scans_store_orders_only_and_only_once() {
        let db = db(HardwareProfile::flash_scanner());
        let policy = ExecPolicy {
            compression: CompressionMode::Fig2,
            dop: 1,
        };
        db.run_scan(&ScanSpec::fig2(), policy, 1.0);
        let l = db.try_loaded().expect("loaded");
        let orders = l.fig2_orders.get().expect("the scan stored ORDERS").clone();
        for cells in [&l.plain, &l.auto] {
            for cell in &cells.0 {
                assert!(cell.get().is_none(), "a Fig2 scan touches nothing else");
            }
        }
        db.run_scan(&ScanSpec::orders_projection(3), policy, 1.0);
        assert!(Arc::ptr_eq(&orders, l.fig2_orders.get().expect("kept")));
    }

    /// A projection scan generates ORDERS alone and reports bit for bit
    /// what a db whose five tables were drawn up front reports; a later
    /// throughput test draws the other four, reuses that ORDERS, and
    /// equals the up-front run too.
    #[test]
    fn a_scan_generates_orders_only() {
        for mode in MODES {
            let policy = ExecPolicy {
                compression: mode,
                dop: 2,
            };
            let lazy = db(HardwareProfile::server_dl785(36));
            let eager = db(HardwareProfile::server_dl785(36));
            assert!(generated(&lazy).is_empty(), "loading draws nothing");
            eager.tables();
            assert_eq!(generated(&eager), TpchTable::ALL);

            let scan = lazy.run_scan(&ScanSpec::fig2(), policy, 100.0);
            assert_eq!(generated(&lazy), [TpchTable::Orders], "{mode:?}");
            let eager_scan = eager.run_scan(&ScanSpec::fig2(), policy, 100.0);
            assert_eq!(format!("{scan:?}"), format!("{eager_scan:?}"), "{mode:?}");

            let orders = lazy.try_loaded().expect("loaded").table(TpchTable::Orders);
            let mix = lazy.run_throughput_test(2, 2, policy, 100.0);
            assert_eq!(generated(&lazy), TpchTable::ALL, "{mode:?}");
            assert!(Arc::ptr_eq(&orders, &lazy.tables().orders), "{mode:?}");
            let eager_mix = eager.run_throughput_test(2, 2, policy, 100.0);
            assert_eq!(format!("{mix:?}"), format!("{eager_mix:?}"), "{mode:?}");
        }
    }

    #[test]
    fn cached_catalogs_match_fresh_ones_and_share_tables() {
        let db = db(HardwareProfile::flash_scanner());
        let tables = db.tables();
        let shape = |c: &StoredCatalog| -> Vec<_> {
            [&c.orders, &c.lineitem, &c.customer, &c.part, &c.supplier]
                .iter()
                .flat_map(|t| t.segments.iter())
                .map(|s| (s.encoding(), s.compressed_bytes()))
                .collect()
        };
        let fresh = [
            StoredCatalog::plain(tables, LOGICAL_TARGET),
            StoredCatalog::compressed(tables, LOGICAL_TARGET),
            StoredCatalog::fig2(tables, LOGICAL_TARGET),
        ];
        for (mode, fresh) in MODES.into_iter().zip(&fresh) {
            let cached = db.try_catalog(mode).expect("loaded");
            assert_eq!(shape(&cached), shape(fresh), "{mode:?}");
            // Handing a catalog out again re-encodes nothing.
            let again = db.try_catalog(mode).expect("loaded");
            assert!(Arc::ptr_eq(&cached.orders, &again.orders), "{mode:?}");
            assert!(Arc::ptr_eq(&cached.lineitem, &again.lineitem), "{mode:?}");
        }
        // Fig. 2 storage is Auto storage with ORDERS re-encoded.
        let auto = db.try_catalog(CompressionMode::Auto).expect("loaded");
        let fig2 = db.try_catalog(CompressionMode::Fig2).expect("loaded");
        assert!(!Arc::ptr_eq(&auto.orders, &fig2.orders));
        assert!(Arc::ptr_eq(&auto.lineitem, &fig2.lineitem));
        assert!(Arc::ptr_eq(&auto.customer, &fig2.customer));
        assert!(Arc::ptr_eq(&auto.part, &fig2.part));
        assert!(Arc::ptr_eq(&auto.supplier, &fig2.supplier));
        // Plain storage is the loaded columns themselves.
        let plain = db.try_catalog(CompressionMode::Plain).expect("loaded");
        for (seg, col) in plain.lineitem.segments.iter().zip(&tables.lineitem.columns) {
            assert!(Arc::ptr_eq(&seg.decode().expect("plain decodes"), col));
        }
    }

    #[test]
    fn the_db_is_shareable_across_threads() {
        // Compile-time: the store's cells keep the `&self` API `Sync`.
        // The race itself (two workers on one `&db`) runs through
        // `grail_par::Runner` in `tests/par_determinism.rs`.
        fn assert_sync<T: Sync>() {}
        assert_sync::<EnergyAwareDb>();
    }

    #[test]
    fn fig2_shape_compressed_faster_but_hungrier() {
        let db = db(HardwareProfile::flash_scanner());
        // Stretch toy ORDERS (10 K rows) to Fig. 2's ~150 M rows.
        let stretch = 15_000.0;
        let plain = db.run_scan(&ScanSpec::fig2(), ExecPolicy::default(), stretch);
        let packed = db.run_scan(
            &ScanSpec::fig2(),
            ExecPolicy {
                compression: CompressionMode::Fig2,
                dop: 1,
            },
            stretch,
        );
        assert!(
            packed.elapsed < plain.elapsed,
            "compressed is faster: {} vs {}",
            packed.elapsed,
            plain.elapsed
        );
        assert!(
            packed.energy > plain.energy,
            "compressed costs more energy: {} vs {}",
            packed.energy,
            plain.energy
        );
    }

    #[test]
    fn fig2_absolute_band() {
        // At the full stretch the uncompressed scan should land near the
        // paper's 10 s / 338 J and the compressed near 5.5 s / 487 J
        // (shape contract: ±25%).
        let db = db(HardwareProfile::flash_scanner());
        let stretch = 15_000.0;
        let plain = db.run_scan(&ScanSpec::fig2(), ExecPolicy::default(), stretch);
        let t = plain.elapsed.as_secs_f64();
        let e = plain.energy.joules();
        assert!((7.5..12.5).contains(&t), "uncompressed time {t}");
        assert!((250.0..430.0).contains(&e), "uncompressed energy {e}");
        let packed = db.run_scan(
            &ScanSpec::fig2(),
            ExecPolicy {
                compression: CompressionMode::Fig2,
                dop: 1,
            },
            stretch,
        );
        let t2 = packed.elapsed.as_secs_f64();
        let e2 = packed.energy.joules();
        assert!(t2 < t * 0.75, "speedup: {t2} vs {t}");
        assert!(e2 > e * 1.1, "energy up: {e2} vs {e}");
    }

    #[test]
    fn throughput_test_runs_and_counts_queries() {
        let db = db(HardwareProfile::server_dl785(36));
        let r = db.run_throughput_test(4, 2, ExecPolicy::default(), 1.0);
        assert_eq!(r.work, 8.0);
        assert!(r.elapsed > SimDuration::ZERO);
        assert!(r.disk_share() > 0.0);
    }

    #[test]
    fn more_disks_faster_throughput() {
        let mk = |d: usize| {
            let db = db(HardwareProfile::server_dl785(d));
            db.run_throughput_test(8, 2, ExecPolicy::default(), 30.0)
        };
        let slow = mk(36);
        let fast = mk(204);
        assert!(fast.elapsed < slow.elapsed);
        assert!(fast.avg_power().get() > slow.avg_power().get());
    }

    #[test]
    fn run_template_meters_single_queries() {
        let db = db(HardwareProfile::server_dl785(36));
        let run = |t| {
            db.try_run_template(t, ExecPolicy::default(), 100.0)
                .expect("template runs on a loaded db")
        };
        for t in QueryTemplate::MIX {
            let r = run(t);
            assert!(r.work > 0.0, "{} returned rows", t.name());
            assert!(r.elapsed > SimDuration::ZERO);
            assert!(r.energy.joules() > 0.0);
            assert_eq!(r.label, t.name());
        }
        // The scan-heavy template costs more energy than the tiny join
        // at the same stretch.
        let q1 = run(QueryTemplate::PricingSummary);
        let q3 = run(QueryTemplate::SegmentRevenue);
        assert!(q1.energy.joules() > q3.energy.joules());
    }

    #[test]
    fn predicate_scans_through_the_facade() {
        use grail_query::expr::Expr;
        let db = db(HardwareProfile::flash_scanner());
        let all = db.run_scan(&ScanSpec::fig2(), ExecPolicy::default(), 1.0);
        let some = db.run_scan(
            &ScanSpec {
                projection: ScanSpec::fig2().projection,
                // o_orderstatus = 2 ('P') is the rare status (~2%).
                predicate: Some(Expr::eq(Expr::Col(2), Expr::Lit(2))),
            },
            ExecPolicy::default(),
            1.0,
        );
        assert!(some.work < all.work * 0.1, "{} vs {}", some.work, all.work);
        assert!(some.work > 0.0);
        // Same bytes off the device; the predicate filters after read.
        let io = |r: &crate::report::EnergyReport| {
            r.ledger
                .kind_total(grail_power::ledger::ComponentKind::Ssd)
                .joules()
        };
        assert!((io(&all) - io(&some)).abs() < io(&all) * 0.2);
    }

    #[test]
    fn idle_run_matches_profile_floor() {
        let db = db(HardwareProfile::server_dl785(66));
        let r = db
            .run_idle(SimDuration::from_secs(100))
            .expect("a DL785 of 66 disks builds");
        let expect = (941.0 + 66.0 * 15.0) * 100.0;
        assert!(
            (r.energy.joules() - expect).abs() < expect * 0.01,
            "{} vs {expect}",
            r.energy.joules()
        );
        assert_eq!(r.work, 0.0);
    }

    #[test]
    #[should_panic(expected = "load_tpch")]
    fn unloaded_db_panics() {
        let db = EnergyAwareDb::new(HardwareProfile::flash_scanner());
        let _ = db.tables();
    }

    #[test]
    fn unloaded_db_errors_through_try_api() {
        let db = EnergyAwareDb::new(HardwareProfile::flash_scanner());
        assert!(matches!(db.try_tables(), Err(SimError::NotLoaded)));
        assert!(matches!(
            db.try_run_scan(&ScanSpec::fig2(), ExecPolicy::default(), 1.0),
            Err(SimError::NotLoaded)
        ));
        assert!(matches!(
            db.try_run_template(QueryTemplate::PricingSummary, ExecPolicy::default(), 1.0),
            Err(SimError::NotLoaded)
        ));
        assert!(matches!(
            db.try_run_throughput_test(1, 1, ExecPolicy::default(), 1.0),
            Err(SimError::NotLoaded)
        ));
        assert_eq!(
            SimError::NotLoaded.to_string(),
            "no tables loaded; call load_tpch first"
        );
    }

    /// RAID-5 needs three disks, and a machine needs some storage: a
    /// DL785 of one or two disks, or of none, is a typed error from
    /// every fallible run, not a panic inside the simulator build nor a
    /// run on a flash drive the profile does not have.
    #[test]
    fn too_few_disks_for_raid5_error_through_try_api() {
        for disks in [0, 1, 2] {
            let db = db(HardwareProfile::server_dl785(disks));
            let bad = match disks {
                0 => SimError::NoStorage,
                _ => SimError::BadArrayGeometry { disks, min: 3 },
            };
            let policy = ExecPolicy::default();
            let scan = ScanSpec::fig2();
            let template = QueryTemplate::PricingSummary;
            let catalog = db.try_catalog(policy.compression).expect("loaded");
            let results = [
                db.try_run_scan(&scan, policy, 1.0).err(),
                db.try_run_scan_traced(&scan, policy, 1.0).err(),
                db.try_run_template(template, policy, 1.0).err(),
                db.try_run_plan(template.plan(&catalog), policy, 1.0).err(),
                db.try_run_throughput_test(1, 1, policy, 1.0).err(),
                db.try_run_throughput_test_traced(1, 1, policy, 1.0).err(),
                db.run_idle(SimDuration::from_secs(1)).err(),
            ];
            for (i, got) in results.into_iter().enumerate() {
                assert_eq!(got, Some(bad.clone()), "{disks} disks, call {i}");
            }
        }
    }

    #[test]
    fn try_scan_succeeds_and_matches_panicking_facade() {
        let db = db(HardwareProfile::flash_scanner());
        let a = db
            .try_run_scan(&ScanSpec::fig2(), ExecPolicy::default(), 1.0)
            .expect("loaded db scans");
        let b = db.run_scan(&ScanSpec::fig2(), ExecPolicy::default(), 1.0);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.elapsed, b.elapsed);
    }

    #[test]
    fn zero_rate_fault_profile_changes_nothing() {
        let mut db = db(HardwareProfile::flash_scanner());
        let clean = db.run_scan(&ScanSpec::fig2(), ExecPolicy::default(), 1.0);
        db.set_fault_profile(FaultConfig::NONE, 123);
        let armed = db.run_scan(&ScanSpec::fig2(), ExecPolicy::default(), 1.0);
        assert_eq!(clean.energy, armed.energy);
        assert_eq!(clean.elapsed, armed.elapsed);
        assert_eq!(armed.retries, 0);
        assert_eq!(armed.recovery, grail_power::units::Joules::ZERO);
        assert_eq!(armed.recovery_share(), 0.0);
    }

    #[test]
    fn fault_profile_surfaces_retry_and_recovery_costs() {
        let mut db = db(HardwareProfile::flash_scanner());
        let clean = db.run_scan(&ScanSpec::fig2(), ExecPolicy::default(), 1.0);
        assert_eq!(clean.retries, 0);
        let cfg = FaultConfig {
            transient_per_io: 0.35,
            ..FaultConfig::NONE
        };
        // Some seed in a small window must produce at least one fault;
        // for any fixed seed the outcome is deterministic.
        let mut hit = false;
        for seed in 0..10 {
            db.set_fault_profile(cfg, seed);
            let r = db.run_scan(&ScanSpec::fig2(), ExecPolicy::default(), 1.0);
            assert_eq!(db.fault_profile(), Some((cfg, seed)));
            if r.retries > 0 {
                assert!(r.recovery.joules() > 0.0, "retries must bill recovery");
                assert!(r.recovery_share() > 0.0);
                assert!(r.energy.joules() > clean.energy.joules());
                hit = true;
                break;
            }
        }
        assert!(hit, "a 35% transient rate must fault within 10 seeds");
        let fresh = self::db(HardwareProfile::flash_scanner());
        let back = fresh.run_scan(&ScanSpec::fig2(), ExecPolicy::default(), 1.0);
        assert_eq!(back.retries, 0);
        assert_eq!(back.energy, clean.energy);
    }

    #[test]
    fn traced_scan_attributes_energy_without_changing_physics() {
        let db = db(HardwareProfile::flash_scanner());
        let plain = db
            .try_run_scan(&ScanSpec::fig2(), ExecPolicy::default(), 1.0)
            .expect("loaded db scans");
        let traced = db
            .try_run_scan_traced(&ScanSpec::fig2(), ExecPolicy::default(), 1.0)
            .expect("loaded db scans");
        // Tracing must not perturb the physics.
        assert_eq!(traced.report.energy, plain.energy);
        assert_eq!(traced.report.elapsed, plain.elapsed);
        assert!(plain.attribution.is_none());
        // The recorder saw the run, all of it.
        assert!(!traced.trace.is_empty());
        assert_eq!(traced.trace.dropped(), 0, "ring overflowed");
        assert_eq!(traced.trace.metrics().counter("trace.dropped"), 0);
        assert!(traced.trace.events().any(|e| e.name == "sim.finish"));
        assert!(traced.trace.events().any(|e| e.name == "scan"));
        // Attribution rows sum to the wall-socket total, and the single
        // scan query carries operator detail.
        let table = traced.report.attribution.as_ref().expect("traced");
        let total = traced.report.ledger.total().joules();
        assert!((table.sum().joules() - total).abs() <= total * 1e-9 + 1e-9);
        let q = table.query(0, 0).expect("the scan is s0.q0");
        assert!(q.energy.joules() > 0.0);
        assert_eq!(q.operators.len(), 1);
        assert_eq!(q.operators[0].name, "scan");
        assert!(q.operators[0].io_bytes > 0);
    }

    #[test]
    fn traced_throughput_attributes_every_query() {
        let db = db(HardwareProfile::server_dl785(36));
        let plain = db
            .try_run_throughput_test(2, 2, ExecPolicy::default(), 1.0)
            .expect("loaded db runs");
        let traced = db
            .try_run_throughput_test_traced(2, 2, ExecPolicy::default(), 1.0)
            .expect("loaded db runs");
        assert_eq!(traced.report.energy, plain.energy);
        assert_eq!(traced.report.elapsed, plain.elapsed);
        assert_eq!(traced.trace.dropped(), 0, "ring overflowed");
        assert_eq!(traced.trace.metrics().counter("trace.dropped"), 0);
        let table = traced.report.attribution.as_ref().expect("traced");
        // 2 streams x 2 queries + residual.
        assert_eq!(table.rows.len(), 5);
        let total = traced.report.ledger.total().joules();
        assert!((table.sum().joules() - total).abs() <= total * 1e-9 + 1e-9);
        // Every query row carries its template's operator breakdown.
        for s in 0..2u32 {
            for q in 0..2u32 {
                let row = table.query(s, q).expect("query row present");
                assert!(row.energy.joules() > 0.0, "{} burned energy", row.label());
                assert!(!row.operators.is_empty(), "{} has operators", row.label());
            }
        }
        // Round-robin dealing hands template (s + q) % 4 to stream s's
        // q-th query, and the row carries that template's own tallies.
        let catalog = db.try_catalog(CompressionMode::Plain).expect("loaded");
        for (s, q) in [(0u32, 0u32), (0, 1), (1, 0), (1, 1)] {
            let t = QueryTemplate::MIX[(s + q) as usize % 4];
            let m = measure(t.plan(&catalog), 1, 1.0).expect("template runs");
            let want: Vec<_> = m.ops.iter().map(|o| (o.name, o.cpu.get())).collect();
            let row = table.query(s, q).expect("query row present");
            let got: Vec<_> = row
                .operators
                .iter()
                .map(|o| (o.name.as_str(), o.cpu_cycles))
                .collect();
            assert_eq!(got, want, "s{s}.q{q} is {}", t.name());
        }
    }
}
