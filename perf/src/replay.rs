//! The `EnergyAwareDb` facade's pipeline, replayed through the public
//! functions of the layers below it.
//!
//! The facade is one call from the benchmark's point of view, so a
//! span around it says nothing about where the time goes. A traced
//! pass therefore runs each facade operation through this replay —
//! catalog encode, plan and execute, job assembly, simulator build,
//! stream drive, settlement — with a span around each step. The
//! replay's simulated outcome must equal the facade's bit-for-bit; the
//! pinned values of the untraced warm-up pass enforce that.

use crate::harness::Harness;
use grail_core::db::{stripe_job, CompressionMode, ExecPolicy, ScanSpec, LOGICAL_TARGET};
use grail_core::profile::HardwareProfile;
use grail_core::report::EnergyReport;
use grail_power::ledger::EnergyLedger;
use grail_power::units::{Bytes, Cycles};
use grail_query::batch::Batch;
use grail_query::colscan;
use grail_query::cost_charge::CostCharge;
use grail_query::exec::{run_collect, ExecContext};
use grail_sim::driver::{run_streams, JobSpec};
use grail_workload::mix::{closed_mix, job_from_tallies, scale_tally};
use grail_workload::queries::{QueryTemplate, StoredCatalog};
use grail_workload::tpch::TpchTables;

/// The simulated outcome of one metered run, whichever route (facade
/// or replay) produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metered {
    /// Simulated seconds.
    pub elapsed_s: f64,
    /// Joules at the wall socket.
    pub energy_j: f64,
    /// Units of work (rows or queries).
    pub work: f64,
    /// Simulated CPU-busy seconds.
    pub cpu_busy_s: f64,
    /// Joules billed to recovery.
    pub recovery_j: f64,
    /// IO retries.
    pub retries: u64,
    /// Whether the ledger it came from was [`ledger_conserved`].
    pub conserved: bool,
}

/// Energy conservation: the ledger's total is the sum of its components
/// (to float association error, 1e-9 of the total).
pub fn ledger_conserved(ledger: &EnergyLedger) -> bool {
    let total = ledger.total().joules();
    let parts: f64 = ledger.iter().map(|(_, e)| e.joules()).sum();
    (total - parts).abs() <= 1e-9 * total.abs().max(1.0)
}

impl Metered {
    /// The outcome a facade call reported.
    pub fn from_report(r: &EnergyReport) -> Self {
        Metered {
            elapsed_s: r.elapsed.as_secs_f64(),
            energy_j: r.energy.joules(),
            work: r.work,
            cpu_busy_s: r.cpu_busy.as_secs_f64(),
            recovery_j: r.recovery.joules(),
            retries: r.retries,
            conserved: ledger_conserved(&r.ledger),
        }
    }

    /// The values that must repeat bit-for-bit across passes and routes.
    pub fn values(&self) -> [f64; 6] {
        [
            self.elapsed_s,
            self.energy_j,
            self.work,
            self.cpu_busy_s,
            self.recovery_j,
            self.retries as f64,
        ]
    }

    /// Check that the run's ledger was conserved.
    pub fn check_conserved(&self, h: &mut Harness, label: &str) {
        h.check(self.conserved, || conservation_failure(label));
    }
}

/// The message of a failed [`ledger_conserved`] check.
pub fn conservation_failure(label: &str) -> String {
    format!("{label}: ledger total is off its components")
}

/// FNV-1a over every value of every result row, in output order: equal
/// digests mean two plans returned the same rows.
pub fn rows_digest(batches: &[Batch]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for b in batches {
        eat(b.len() as u64);
        for c in 0..b.schema().arity() {
            for v in b.column(c) {
                eat(*v as u64);
            }
        }
    }
    hash
}

/// Build the stored catalog of `tables` under `mode` (the facade does
/// this at the top of every call).
pub fn catalog(h: &mut Harness, tables: &TpchTables, mode: CompressionMode) -> StoredCatalog {
    h.span("storage.catalog_encode", |_| match mode {
        CompressionMode::Plain => StoredCatalog::plain(tables, LOGICAL_TARGET),
        CompressionMode::Auto => StoredCatalog::compressed(tables, LOGICAL_TARGET),
        CompressionMode::Fig2 => StoredCatalog::fig2(tables, LOGICAL_TARGET),
    })
}

/// A template measured at the loaded scale: its job, result row count
/// and result digest.
struct MeasuredTemplate {
    job: JobSpec,
    rows: usize,
    digest: u64,
}

fn measure_template(
    h: &mut Harness,
    template: QueryTemplate,
    catalog: &StoredCatalog,
    dop: u32,
    scale_to: f64,
) -> Result<MeasuredTemplate, String> {
    let mut ctx = ExecContext::new(CostCharge::default_calibrated());
    let out = h.span("query.exec", |_| {
        let mut plan = template.plan(catalog);
        run_collect(plan.as_mut(), &mut ctx)
    });
    let out = out.map_err(|e| format!("{}: {e}", template.name()))?;
    let job = h.span("workload.job_from_tallies", |_| {
        let tallies: Vec<_> = ctx
            .finish()
            .iter()
            .map(|t| scale_tally(t, scale_to))
            .collect();
        job_from_tallies(&tallies, dop)
    });
    Ok(MeasuredTemplate {
        job,
        rows: out.iter().map(Batch::len).sum(),
        digest: rows_digest(&out),
    })
}

/// Build `profile`'s machine, drive `streams` over it and settle.
/// `stripe` receives the profile's stripe targets and returns the
/// streams to run (the facade stripes logical IO at this point).
fn simulate(
    h: &mut Harness,
    profile: &HardwareProfile,
    stripe: impl FnOnce(&[grail_sim::StorageTarget]) -> Vec<Vec<JobSpec>>,
    work: impl FnOnce(usize) -> f64,
) -> Result<Metered, String> {
    let (mut sim, cpu, targets) = h.span("sim.build", |_| profile.build());
    let streams = h.span("core.stripe_job", |_| stripe(&targets));
    let out = h
        .span("sim.run_streams", |_| run_streams(&mut sim, cpu, &streams))
        .map_err(|e| e.to_string())?;
    let cpu_busy = sim.cpu(cpu).map_err(|e| e.to_string())?.stats().busy;
    let report = h.span("sim.finish", |_| sim.finish(out.makespan));
    Ok(Metered {
        elapsed_s: report.elapsed.as_secs_f64(),
        energy_j: report.total_energy().joules(),
        work: work(out.results.len()),
        cpu_busy_s: cpu_busy.as_secs_f64(),
        recovery_j: report.recovery_energy().joules(),
        retries: out.total_retries,
        conserved: ledger_conserved(&report.ledger),
    })
}

/// `EnergyAwareDb::run_template`, replayed. Returns the metered outcome
/// and the digest of the result rows.
pub fn run_template(
    h: &mut Harness,
    profile: &HardwareProfile,
    tables: &TpchTables,
    template: QueryTemplate,
    policy: ExecPolicy,
    scale_to: f64,
) -> Result<(Metered, u64), String> {
    let cat = catalog(h, tables, policy.compression);
    let m = measure_template(h, template, &cat, policy.dop, scale_to)?;
    let rows = m.rows;
    let metered = simulate(
        h,
        profile,
        |targets| vec![vec![stripe_job(&m.job, targets)]],
        |_| rows as f64,
    )?;
    Ok((metered, m.digest))
}

/// `EnergyAwareDb::run_scan`, replayed.
pub fn run_scan(
    h: &mut Harness,
    profile: &HardwareProfile,
    tables: &TpchTables,
    spec: &ScanSpec,
    policy: ExecPolicy,
    scale_to: f64,
) -> Result<Metered, String> {
    let cat = catalog(h, tables, policy.compression);
    let run = h
        .span("query.exec", |_| {
            colscan::scan_job(
                cat.orders.clone(),
                &spec.projection,
                spec.predicate.clone(),
                CostCharge::default_calibrated(),
                policy.dop,
            )
        })
        .map_err(|e| e.to_string())?;
    let mut job = run.job.clone();
    if (scale_to - 1.0).abs() > 1e-9 {
        for p in &mut job.phases {
            p.cpu = Cycles::new((p.cpu.get() as f64 * scale_to).round() as u64);
            for d in &mut p.io {
                d.bytes = Bytes::new((d.bytes.get() as f64 * scale_to).round() as u64);
            }
        }
    }
    let rows = run.rows;
    simulate(
        h,
        profile,
        |targets| vec![vec![stripe_job(&job, targets)]],
        |_| (rows as f64 * scale_to).max(0.0),
    )
}

/// `EnergyAwareDb::run_throughput_test`, replayed.
pub fn run_throughput_test(
    h: &mut Harness,
    profile: &HardwareProfile,
    tables: &TpchTables,
    streams: usize,
    queries_per_stream: usize,
    policy: ExecPolicy,
    scale_to: f64,
) -> Result<Metered, String> {
    let cat = catalog(h, tables, policy.compression);
    let mut prototypes = Vec::with_capacity(QueryTemplate::MIX.len());
    for t in QueryTemplate::MIX {
        prototypes.push(measure_template(h, t, &cat, policy.dop, scale_to)?.job);
    }
    simulate(
        h,
        profile,
        |targets| {
            let striped: Vec<JobSpec> = prototypes.iter().map(|j| stripe_job(j, targets)).collect();
            closed_mix(&striped, streams, queries_per_stream)
        },
        |queries| queries as f64,
    )
}
