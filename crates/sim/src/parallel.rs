//! Intra-simulation parallelism: run one simulation's cells across
//! threads, with bit-identical output at any shard count.
//!
//! `grail-par`'s [`Runner::run`] parallelizes *across* independent
//! sweep points; this module parallelizes *inside* one simulation. The
//! unit of partition is the **cell**: a slice of the simulated machine
//! (its own CPU pool, spindles/SSDs, arrays) together with the client
//! streams bound to it — the shape of every cluster-scale scenario,
//! where a fleet is hundreds of such cells and nothing crosses cell
//! boundaries except the final energy roll-up. [`run_parallel`] is
//! three steps: **build** every cell on the calling thread, **run**
//! each cell to completion with the ordinary sequential [`Simulation`]
//! and [`driver`](crate::driver) machinery (a parallel map over the
//! cells, [`Runner::for_each_mut`]), then **commit** the finished cells
//! into one report.
//!
//! ## Why the output is byte-identical at any shard count
//!
//! Every mutation of simulation state happens inside some cell, and a
//! cell's evolution is a pure function of its spec, its seeded fault
//! plan, and its chaos slice — never of what other cells are doing or
//! of which OS thread hosts it. Cells exchange no events, so there is
//! nothing to synchronize while they run: the thread count only decides
//! *when* (in wall-clock) a cell runs, not *what* it computes. The
//! commit then folds per-cell artifacts in **fixed cell index order**:
//! ledger charges (float accumulation order is pinned), trace events
//! (stable sort by timestamp keeps cell order on ties), metrics
//! registries, attribution rows, fault counters. Nothing that depends
//! on the shard count — not even the count itself — enters any merged
//! artifact, so 1, 2, and 8 shards produce the same bytes. The root
//! `par_sim_determinism` test enforces exactly that on serialized
//! ledgers, JSONL traces, and Prometheus scrapes.

use crate::attr::AttributionTable;
use crate::driver::{DriveOutcome, JobResult, JobSpec, RetryPolicy, StreamEngine};
use crate::error::SimError;
use crate::fault::{ChaosEventKind, ChaosSchedule, FaultConfig, FaultPlan};
use crate::perf::{CpuPerfProfile, DiskPerfProfile, SsdPerfProfile};
use crate::raid::RaidLevel;
use crate::rng::splitmix64;
use crate::sim::{ledger_event, tt, SimReport, Simulation};
use grail_par::Runner;
use grail_power::components::{CpuPowerProfile, DiskPowerProfile, SsdPowerProfile};
use grail_power::ledger::{ComponentId, ComponentKind, EnergyLedger};
use grail_power::units::{Joules, SimInstant, Watts};
use grail_trace::{Category, Recorder, TraceEvent, TraceSink, Tracer, Track};

/// One cell of a sharded simulation: a device slice plus the job
/// streams bound to it. Stream job specs use **cell-local** ids
/// (`DiskId(0)` is this cell's first disk; the cell's CPU pool is
/// always `CpuId(0)`); the commit remaps everything to global indices.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// The cell's CPU pool: at least one core, or [`run_parallel`]
    /// returns [`SimError::BadConfig`] naming the cell.
    pub cpu: CpuPerfProfile,
    /// Its power model.
    pub cpu_power: CpuPowerProfile,
    /// Rotating disks in the cell (all share one profile pair).
    pub disks: usize,
    /// Disk service-time profile.
    pub disk_perf: DiskPerfProfile,
    /// Disk power model.
    pub disk_power: DiskPowerProfile,
    /// When set, all of the cell's disks form one array of this level.
    pub raid: Option<RaidLevel>,
    /// SSDs in the cell.
    pub ssds: usize,
    /// SSD service-time profile.
    pub ssd_perf: SsdPerfProfile,
    /// SSD power model.
    pub ssd_power: SsdPowerProfile,
    /// Client streams dispatched against this cell (targets are
    /// cell-local).
    pub streams: Vec<Vec<JobSpec>>,
}

impl CellSpec {
    /// A cell with the given CPU pool and no storage or streams.
    pub fn new(cpu: CpuPerfProfile, cpu_power: CpuPowerProfile) -> Self {
        CellSpec {
            cpu,
            cpu_power,
            disks: 0,
            disk_perf: DiskPerfProfile::scsi_15k(),
            disk_power: DiskPowerProfile::scsi_15k(),
            raid: None,
            ssds: 0,
            ssd_perf: SsdPerfProfile::fig2_flash(),
            ssd_power: SsdPowerProfile::fig2_flash(),
            streams: Vec::new(),
        }
    }

    /// Add `n` disks with the given profiles.
    pub fn with_disks(mut self, n: usize, perf: DiskPerfProfile, power: DiskPowerProfile) -> Self {
        self.disks = n;
        self.disk_perf = perf;
        self.disk_power = power;
        self
    }

    /// Stripe all of the cell's disks into one array.
    pub fn with_raid(mut self, level: RaidLevel) -> Self {
        self.raid = Some(level);
        self
    }

    /// Add `n` SSDs with the given profiles.
    pub fn with_ssds(mut self, n: usize, perf: SsdPerfProfile, power: SsdPowerProfile) -> Self {
        self.ssds = n;
        self.ssd_perf = perf;
        self.ssd_power = power;
        self
    }

    /// Set the cell's client streams (cell-local targets).
    pub fn with_streams(mut self, streams: Vec<Vec<JobSpec>>) -> Self {
        self.streams = streams;
        self
    }
}

/// Read-only configuration of one sharded simulation: the cells plus
/// everything that used to be whole-`Simulation` mutable state, hoisted
/// out so threads share nothing writable.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The cells, in global index order. Cell `i`'s devices get global
    /// indices offset by the device counts of cells `0..i`; its streams
    /// likewise.
    pub cells: Vec<CellSpec>,
    /// Whole-machine constant draw, charged once at commit (never
    /// per-cell).
    pub base_power: Watts,
    /// Fault configuration applied to every cell.
    pub fault: FaultConfig,
    /// Master seed. Cell `i`'s fault plan is seeded with
    /// `splitmix(seed, i)`, so cells draw from disjoint streams exactly
    /// as devices do within one plan.
    pub seed: u64,
    /// Fleet-level chaos: `MachineCrash { machine }` events strike the
    /// cell whose index equals `machine`; a schedule that addresses a
    /// different number of machines than there are cells, or names a
    /// machine past the last cell, is a [`SimError::BadConfig`]. A crash bills
    /// [`SimConfig::crash_boot_energy`] to the Recovery category,
    /// applied *before* same-instant stream events. Other chaos kinds
    /// (domain outages, brownouts, surges) are fleet-scheduler
    /// concerns and are ignored at this layer.
    pub chaos: Option<ChaosSchedule>,
    /// Reboot surge billed per crash (cold boot + replay), directly to
    /// the Recovery ledger line.
    pub crash_boot_energy: Joules,
    /// Driver retry policy, shared by every cell.
    pub policy: RetryPolicy,
    /// Per-cell trace buffer capacity; `None` disables tracing.
    pub trace_capacity: Option<usize>,
    /// Collect per-query attribution tables (merged at commit).
    pub attribution: bool,
}

impl SimConfig {
    /// A configuration over `cells` with no faults, no chaos, no base
    /// draw, default retry policy, and tracing off.
    pub fn new(cells: Vec<CellSpec>) -> Self {
        SimConfig {
            cells,
            base_power: Watts::ZERO,
            fault: FaultConfig::NONE,
            seed: 0,
            chaos: None,
            crash_boot_energy: Joules::new(500.0),
            policy: RetryPolicy::default(),
            trace_capacity: None,
            attribution: false,
        }
    }
}

/// The outcome of a sharded run: the merged [`SimReport`]
/// (byte-identical at any shard count) plus driver results.
#[derive(Debug)]
pub struct ParReport {
    /// The merged settlement, indistinguishable from a single
    /// `Simulation` hosting every cell's devices at their global
    /// indices.
    pub report: SimReport,
    /// Merged driver outcome; `JobResult::stream` values are global.
    pub outcome: DriveOutcome,
}

/// Cell `cell`'s fault-plan seed: the mix `FaultPlan` uses to give
/// devices disjoint streams, here giving cells disjoint plan seeds.
fn mix(seed: u64, cell: u64) -> u64 {
    splitmix64(seed.wrapping_add(cell.wrapping_mul(0xD1B5_4A32_D192_ED03)))
}

/// What a cell does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellAction {
    /// Bill the reboot surge at the crash instant.
    Crash(SimInstant),
    /// Run the stream event due at this instant.
    Event(SimInstant),
}

/// Decide the next step for a cell whose next crash sits at `crash` and
/// next stream event at `event` (`None` when exhausted). Crashes win
/// ties (`crash <= event`) so same-instant stream events see the
/// post-crash world — the ordering `ChaosSchedule::generate` documents.
fn next_cell_action(crash: Option<SimInstant>, event: Option<SimInstant>) -> Option<CellAction> {
    match (crash, event) {
        (Some(c), Some(e)) if c <= e => Some(CellAction::Crash(c)),
        (Some(c), None) => Some(CellAction::Crash(c)),
        (_, Some(e)) => Some(CellAction::Event(e)),
        (None, None) => None,
    }
}

/// One cell mid-run: its simulation, its driver engine (reading the
/// cell's streams where the `CellSpec` holds them), and its slice of the
/// chaos schedule.
struct CellRun<'a> {
    sim: Simulation,
    engine: StreamEngine<'a>,
    /// Crash instants for this cell, sorted ascending.
    crashes: Vec<SimInstant>,
    crash_idx: usize,
    boot_energy: Joules,
    /// Latest simulated instant this cell has acted at (chaos bills can
    /// land past the workload's end; the commit horizon covers them).
    high_water: SimInstant,
    /// Why [`CellRun::run`] stopped early, if it did.
    failed: Option<SimError>,
}

/// A finished cell as the commit folds it: its simulation, its driver
/// outcome, and the latest instant it acted at.
type CellPart = (Simulation, DriveOutcome, SimInstant);

impl<'a> CellRun<'a> {
    fn build(
        config: &SimConfig,
        index: usize,
        spec: &'a CellSpec,
    ) -> Result<CellRun<'a>, SimError> {
        if spec.cpu.cores == 0 {
            return Err(SimError::BadConfig(format!(
                "cell {index} has a CPU pool of 0 cores"
            )));
        }
        let mut sim = Simulation::new();
        let cpu = sim.add_cpu(spec.cpu, spec.cpu_power);
        if spec.disks > 0 {
            let ids = sim.add_disks(spec.disks, spec.disk_perf, spec.disk_power);
            if let Some(level) = spec.raid {
                sim.make_array(level, ids)?;
            }
        }
        if spec.ssds > 0 {
            sim.add_ssds(spec.ssds, spec.ssd_perf, spec.ssd_power);
        }
        if !config.fault.is_zero() {
            sim.set_fault_plan(FaultPlan::new(config.fault, mix(config.seed, index as u64)));
        }
        if let Some(cap) = config.trace_capacity {
            // Ledger-category events are journaled at settlement with
            // cell-LOCAL component ids; mask them out here and let the
            // commit re-journal the merged ledger under global ids.
            let mask = Category::ALL & !Category::Ledger.bit();
            sim.set_tracer(Tracer::on(Recorder::with_categories(cap, mask)));
        }
        if config.attribution {
            sim.enable_attribution();
        }
        let crashes: Vec<SimInstant> = config
            .chaos
            .as_ref()
            .map(|s| {
                s.events()
                    .iter()
                    .filter(|e| {
                        matches!(e.kind, ChaosEventKind::MachineCrash { machine } if machine as usize == index)
                    })
                    .map(|e| e.at)
                    .collect()
            })
            .unwrap_or_default();
        let engine = StreamEngine::new(cpu, &spec.streams, config.policy);
        Ok(CellRun {
            sim,
            engine,
            crashes,
            crash_idx: 0,
            boot_energy: config.crash_boot_energy,
            high_water: SimInstant::EPOCH,
            failed: None,
        })
    }

    /// Run the cell to completion: every crash and stream event in
    /// time order, stopping at the first error.
    fn run(&mut self) -> Result<(), SimError> {
        loop {
            let crash = self.crashes.get(self.crash_idx).copied();
            match next_cell_action(crash, self.engine.next_at()) {
                None => return Ok(()),
                Some(CellAction::Crash(at)) => {
                    self.high_water = self.high_water.max(at);
                    self.sim
                        .bill_recovery(at, "chaos.machine_crash", self.boot_energy);
                    self.crash_idx += 1;
                }
                Some(CellAction::Event(at)) => {
                    self.high_water = self.high_water.max(at);
                    self.engine.step(&mut self.sim)?;
                }
            }
        }
    }

    fn into_part(self) -> CellPart {
        (self.sim, self.engine.into_outcome(), self.high_water)
    }
}

/// Run the configured simulation on `shards` threads (0 = one per
/// available core) and commit the merged report.
///
/// Same config + seed ⇒ byte-identical [`SimReport`] artifacts at every
/// shard count; see the module docs for the argument and the root
/// `par_sim_determinism` test for the enforcement.
pub fn run_parallel(config: &SimConfig, shards: usize) -> Result<ParReport, SimError> {
    if let Some(schedule) = &config.chaos {
        check_schedule(schedule, config.cells.len())?;
    }
    let runner = if shards == 0 {
        Runner::available()
    } else {
        Runner::with_threads(shards)
    };
    // Built here rather than by the workers: build errors surface in
    // cell order, and the cells' allocations stay in one arena.
    let mut cells = Vec::with_capacity(config.cells.len());
    for (i, spec) in config.cells.iter().enumerate() {
        cells.push(CellRun::build(config, i, spec)?);
    }
    runner.for_each_mut(&mut cells, |_, cell| cell.failed = cell.run().err());
    // Surface the first failure by cell index (deterministic regardless
    // of which thread hit it).
    if let Some(err) = cells.iter_mut().find_map(|c| c.failed.take()) {
        return Err(err);
    }
    commit(config, cells.into_iter().map(CellRun::into_part).collect())
}

/// A chaos schedule fits a configuration of `cells` cells when it
/// addresses exactly that many machines and every machine event names
/// one of them — the shapes `run_chaos` rejects for a fleet.
fn check_schedule(schedule: &ChaosSchedule, cells: usize) -> Result<(), SimError> {
    if schedule.machines() as usize != cells {
        return Err(SimError::BadConfig(format!(
            "chaos schedule addresses {} machines, configuration has {cells} cells",
            schedule.machines()
        )));
    }
    for ev in schedule.events() {
        if let ChaosEventKind::MachineCrash { machine } | ChaosEventKind::MachineUp { machine } =
            ev.kind
        {
            if machine as usize >= cells {
                return Err(SimError::BadConfig(format!(
                    "chaos event names machine {machine} of {cells}"
                )));
            }
        }
    }
    Ok(())
}

/// Where a cell's first disk, SSD, CPU pool and stream land in the
/// global index spaces: prefix sums over the cells before it.
#[derive(Debug, Clone, Copy, Default)]
struct Bases {
    disk: u32,
    ssd: u32,
    cpu: u32,
    stream: u32,
}

impl Bases {
    /// The global base of a cell's `kind` indices; `None` for the kinds
    /// that are one component fleet-wide, never a cell's own.
    fn of(&self, kind: ComponentKind) -> Option<u32> {
        match kind {
            ComponentKind::Disk => Some(self.disk),
            ComponentKind::Ssd => Some(self.ssd),
            ComponentKind::Cpu => Some(self.cpu),
            ComponentKind::Dram
            | ComponentKind::Nic
            | ComponentKind::Base
            | ComponentKind::Recovery
            | ComponentKind::Other => None,
        }
    }

    /// A cell's ledger component under its global id.
    fn component(&self, id: ComponentId) -> ComponentId {
        match self.of(id.kind) {
            Some(base) => ComponentId::new(id.kind, base + id.index),
            None => id,
        }
    }

    /// A cell's trace track under global stream and device indices.
    fn track(&self, track: Track) -> Track {
        match track {
            Track::Stream(s) => Track::Stream(s + self.stream),
            Track::Device { kind, index } => match crate::device::track_kind(kind) {
                Some(k) => Track::Device {
                    kind,
                    index: self.component(ComponentId::new(k, index)).index,
                },
                None => track,
            },
            Track::Main | Track::Exec => track,
        }
    }
}

/// Fold finished cells into one report, in cell index order throughout.
fn commit(config: &SimConfig, mut parts: Vec<CellPart>) -> Result<ParReport, SimError> {
    let mut bases = Vec::with_capacity(config.cells.len());
    let mut next = Bases::default();
    for spec in &config.cells {
        bases.push(next);
        next.disk += spec.disks as u32;
        next.ssd += spec.ssds as u32;
        next.cpu += 1;
        next.stream += spec.streams.len() as u32;
    }

    // Pass 1: settle every cell at the common horizon.
    let mut global_end = SimInstant::EPOCH;
    for (sim, outcome, high_water) in &parts {
        global_end = global_end
            .max(outcome.makespan)
            .max(sim.horizon())
            .max(*high_water);
    }
    let end_nanos = global_end.as_nanos();
    let span = global_end.duration_since(SimInstant::EPOCH);

    let tracing = config.trace_capacity.is_some();
    let mut ledger = EnergyLedger::new();
    if tracing {
        ledger.enable_journal();
    }
    ledger.cover(SimInstant::EPOCH, global_end);

    let mut disk_stats = Vec::new();
    let mut ssd_stats = Vec::new();
    let mut cpu_stats = Vec::new();
    let mut faults = crate::fault::FaultStats::default();
    let mut results: Vec<JobResult> =
        Vec::with_capacity(parts.iter().map(|(_, o, _)| o.results.len()).sum());
    let mut makespan = SimInstant::EPOCH;
    let mut total_retries = 0u64;
    let mut attr: Vec<(u32, u32, f64)> = Vec::new();
    let mut recorders: Vec<Recorder> = Vec::new();

    for (cell_idx, (mut sim, outcome, _)) in parts.drain(..).enumerate() {
        let base = bases[cell_idx];
        // Query rows are settled once, below, against the merged
        // ledger; per-cell residuals would be recomputed anyway.
        if let Some(acc) = sim.take_attribution() {
            attr.extend(acc.entries().map(|(s, i, e)| (base.stream + s, i, e)));
        }
        let rep = sim.finish(global_end);
        // Ledger: replay the cell's entries under global component ids.
        // BTreeMap order within a cell and cell-major order across
        // cells pin the float accumulation sequence.
        for (id, e) in rep.ledger.iter() {
            ledger.charge(base.component(id), e);
        }
        disk_stats.extend(rep.disk_stats);
        ssd_stats.extend(rep.ssd_stats);
        cpu_stats.extend(rep.cpu_stats);
        faults.absorb(&rep.faults);
        makespan = makespan.max(outcome.makespan);
        total_retries += outcome.total_retries;
        results.extend(outcome.results.iter().map(|r| JobResult {
            stream: r.stream + base.stream as usize,
            ..*r
        }));
        if let Some(mut rec) = rep.trace {
            rec.metrics_mut().roll_rates(end_nanos);
            recorders.push(rec);
        }
    }

    if config.base_power.get() > 0.0 {
        ledger.charge(
            ComponentId::new(ComponentKind::Base, 0),
            config.base_power * span,
        );
    }

    let attribution = config
        .attribution
        .then(|| AttributionTable::settle(attr.into_iter(), ledger.total()));

    let trace = if tracing {
        // The commit's own events ride in a final part: the merged
        // ledger's journal under GLOBAL ids, then the commit mark. They
        // all carry the horizon timestamp, so the stable merge keeps
        // them after every cell event.
        let journal = ledger.take_journal();
        let mut commit_rec = Recorder::with_categories(journal.len() + 1, Category::ALL);
        for op in journal {
            commit_rec.record(ledger_event(global_end, op));
        }
        commit_rec.record(
            TraceEvent::instant(tt(global_end), Category::Sim, "par.commit", Track::Main)
                .arg("cells", config.cells.len() as u64)
                .arg("total_j", ledger.total().joules())
                .arg("elapsed_s", span.as_secs_f64()),
        );
        recorders.push(commit_rec);
        // Cell `i` is part `i`; the commit's own part has no base and
        // keeps its tracks. Per-cell stream and device indices become
        // global as the merge adopts each part, by the ledger's rule.
        Some(Recorder::merge_ordered(recorders, |part, track| {
            bases.get(part).map_or(track, |base| base.track(track))
        }))
    } else {
        None
    };

    Ok(ParReport {
        report: SimReport {
            ledger,
            end: global_end,
            elapsed: span,
            disk_stats,
            ssd_stats,
            cpu_stats,
            faults,
            attribution,
            trace,
        },
        outcome: DriveOutcome {
            results,
            makespan,
            total_retries,
        },
    })
}

#[cfg(test)]
#[path = "../tests/common/drawn.rs"]
mod drawn;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{IoDemand, PhaseSpec};
    use crate::fault::ChaosEvent;
    use crate::ids::StorageTarget;
    use grail_power::units::{Bytes, Cycles, Hertz, SimDuration};
    use grail_prop::assert_pinned;

    /// Auto, sequential, even and uneven splits of the cell counts the
    /// tests use, and more threads than cells.
    const SHARD_COUNTS: [usize; 5] = [0, 1, 2, 3, 8];

    fn scan_cell(streams: usize, jobs: usize) -> CellSpec {
        let target = StorageTarget::Array(crate::ids::ArrayId(0));
        let job = || {
            JobSpec::immediate(vec![PhaseSpec::overlapped(
                Cycles::new(50_000_000),
                2,
                vec![IoDemand::seq_read(target, Bytes::mib(30))],
            )])
        };
        CellSpec::new(
            CpuPerfProfile {
                cores: 4,
                freq: Hertz::ghz(2.0),
            },
            CpuPowerProfile::opteron_socket(),
        )
        .with_disks(3, DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k())
        .with_raid(RaidLevel::Raid0)
        .with_streams(vec![vec![job(); jobs]; streams])
    }

    fn reference_config(cells: usize) -> SimConfig {
        let mut cfg = SimConfig::new((0..cells).map(|_| scan_cell(2, 2)).collect());
        cfg.base_power = Watts::new(150.0);
        cfg.seed = 42;
        cfg.trace_capacity = Some(4096);
        cfg.attribution = true;
        cfg
    }

    fn fingerprint(r: &ParReport) -> (Vec<(String, u64)>, Vec<String>, u64) {
        let ledger: Vec<(String, u64)> = r
            .report
            .ledger
            .iter()
            .map(|(id, e)| (id.to_string(), e.joules().to_bits()))
            .collect();
        let events: Vec<String> = r
            .report
            .trace
            .as_ref()
            .map(|rec| {
                rec.events()
                    .map(|e| format!("{}:{}:{:?}", e.at.as_nanos(), e.name, e.track))
                    .collect()
            })
            .unwrap_or_default();
        (ledger, events, r.outcome.total_retries)
    }

    #[test]
    fn shard_counts_agree_byte_for_byte() {
        let cfg = reference_config(5);
        let r1 = run_parallel(&cfg, 1).unwrap();
        for shards in SHARD_COUNTS {
            let r = run_parallel(&cfg, shards).unwrap();
            assert_eq!(fingerprint(&r1), fingerprint(&r), "{shards} shard(s)");
        }
        assert_eq!(r1.outcome.results.len(), 5 * 2 * 2);
    }

    #[test]
    fn ledger_indices_are_global() {
        let cfg = reference_config(3);
        let r = run_parallel(&cfg, 2).unwrap();
        // 3 cells × 3 disks → disk[0..9); 3 CPU pools; one Base entry.
        let disks = r
            .report
            .ledger
            .iter()
            .filter(|(id, _)| id.kind == ComponentKind::Disk)
            .count();
        assert_eq!(disks, 9);
        let cpus = r
            .report
            .ledger
            .iter()
            .filter(|(id, _)| id.kind == ComponentKind::Cpu)
            .count();
        assert_eq!(cpus, 3);
        assert!(
            r.report
                .ledger
                .component(ComponentId::new(ComponentKind::Base, 0))
                > Joules::ZERO
        );
        assert_eq!(r.report.disk_stats.len(), 9);
    }

    #[test]
    fn every_device_kind_is_shifted_past_the_cells_before() {
        // A device class whose kind kept cell-local indices would make
        // two cells' ledger entries and trace lanes collide.
        let base = Bases {
            disk: 10,
            ssd: 20,
            cpu: 30,
            stream: 40,
        };
        for kind in crate::device::device_kinds() {
            let at = base.of(kind).expect("a device kind has a per-cell base");
            let track = Track::Device {
                kind: kind.name(),
                index: 1,
            };
            let shifted = Track::Device {
                kind: kind.name(),
                index: at + 1,
            };
            assert_eq!(base.track(track), shifted, "{kind}");
            assert_eq!(
                base.component(ComponentId::new(kind, 1)),
                ComponentId::new(kind, at + 1)
            );
        }
        assert_eq!(base.track(Track::Stream(2)), Track::Stream(42));
        let recovery = ComponentId::new(ComponentKind::Recovery, 0);
        assert_eq!(base.component(recovery), recovery);
    }

    #[test]
    fn attribution_rows_remap_streams_and_sum_to_total() {
        let cfg = reference_config(3);
        let r = run_parallel(&cfg, 2).unwrap();
        let table = r.report.attribution.as_ref().unwrap();
        // 3 cells × 2 streams × 2 jobs + residual.
        assert_eq!(table.rows.len(), 13);
        assert!(table.query(5, 1).is_some(), "last cell's streams are 4..6");
        let total = r.report.ledger.total().joules();
        assert!((table.sum().joules() - total).abs() <= 1e-9_f64.max(total * 1e-9));
    }

    #[test]
    fn crash_coinciding_with_a_stream_event_is_billed_first_and_once() {
        // A zero-work job arrives on cell 1 at the very nanosecond the
        // cell crashes: the crash must be billed before the arrival is
        // dispatched, and both exactly once, at every shard count.
        let mut cfg = reference_config(5);
        let at = SimInstant::EPOCH + SimDuration::from_millis(250);
        let mut zero = JobSpec::immediate(vec![PhaseSpec::cpu_only(Cycles::new(0), 1)]);
        zero.arrival = at;
        cfg.cells[1].streams.push(vec![zero]);
        cfg.chaos = Some(ChaosSchedule::scripted(
            5,
            1,
            SimDuration::from_secs(10),
            vec![ChaosEvent {
                at,
                kind: ChaosEventKind::MachineCrash { machine: 1 },
            }],
        ));
        let r1 = run_parallel(&cfg, 1).unwrap();
        for shards in SHARD_COUNTS {
            let r = run_parallel(&cfg, shards).unwrap();
            assert_eq!(fingerprint(&r1), fingerprint(&r), "{shards} shard(s)");
        }
        let recovery = r1.report.recovery_energy();
        assert_eq!(
            recovery.joules().to_bits(),
            cfg.crash_boot_energy.joules().to_bits(),
            "exactly one cold boot is billed"
        );
        // 5 cells × 2 streams × 2 jobs + the coinciding job, which is
        // cell 1's third stream: global stream 2 + 2.
        assert_eq!(r1.outcome.results.len(), 21);
        let coinciding: Vec<_> = r1.outcome.results.iter().filter(|r| r.end == at).collect();
        assert_eq!(coinciding.len(), 1, "the zero-duration job ran once");
        assert_eq!(coinciding[0].stream, 4);
        assert!(coinciding[0].latency().is_zero());
        let rec = r1.report.trace.as_ref().unwrap();
        let at_instant: Vec<&str> = rec
            .events()
            .filter(|e| e.at.as_nanos() == at.as_nanos())
            .map(|e| e.name)
            .collect();
        assert_eq!(at_instant.first(), Some(&"chaos.machine_crash"));
        assert!(at_instant.len() > 1, "the arrival traced after the crash");
    }

    #[test]
    fn empty_config_settles_cleanly() {
        let cfg = SimConfig::new(Vec::new());
        let r = run_parallel(&cfg, 4).unwrap();
        assert_eq!(r.report.ledger.total(), Joules::ZERO);
        assert!(r.outcome.results.is_empty());
    }

    #[test]
    fn a_chaos_schedule_that_does_not_fit_the_cells_is_rejected() {
        let crash = |machine| ChaosEvent {
            at: SimInstant::EPOCH + SimDuration::from_secs(1),
            kind: ChaosEventKind::MachineCrash { machine },
        };
        let horizon = SimDuration::from_secs(10);
        let mut cfg = reference_config(3);
        for shards in [1, 2] {
            // Generated for another machine count, even with no events.
            cfg.chaos = Some(ChaosSchedule::scripted(4, 1, horizon, Vec::new()));
            let err = run_parallel(&cfg, shards).unwrap_err();
            assert!(matches!(err, SimError::BadConfig(_)), "{err}");
            // The right count, but an event names machine `cells.len()`.
            cfg.chaos = Some(ChaosSchedule::scripted(3, 1, horizon, vec![crash(3)]));
            let err = run_parallel(&cfg, shards).unwrap_err();
            assert_eq!(
                err,
                SimError::BadConfig("chaos event names machine 3 of 3".to_string())
            );
            // The last cell itself is fine.
            cfg.chaos = Some(ChaosSchedule::scripted(3, 1, horizon, vec![crash(2)]));
            assert!(run_parallel(&cfg, shards).is_ok());
        }
    }

    #[test]
    fn a_cell_without_cores_is_rejected_before_any_cell_runs() {
        // Cell 0 would fail once it runs; cell 2's empty pool is found
        // while building, so no cell runs and cell 2 is the one named.
        let mut cfg = config_with_stray_targets(&[0]);
        cfg.cells[2].cpu.cores = 0;
        for shards in [1, 2] {
            assert_eq!(
                run_parallel(&cfg, shards).unwrap_err(),
                SimError::BadConfig("cell 2 has a CPU pool of 0 cores".to_string()),
                "{shards} shard(s)"
            );
        }
    }

    /// A config whose cells `bad` each drive a stream at an SSD they
    /// do not own (`SsdId(cell index)`, so the error names its cell).
    fn config_with_stray_targets(bad: &[usize]) -> SimConfig {
        let mut cfg = reference_config(6);
        for &c in bad {
            let stray = StorageTarget::Ssd(crate::ids::SsdId(c as u32));
            cfg.cells[c]
                .streams
                .push(vec![JobSpec::immediate(vec![PhaseSpec::overlapped(
                    Cycles::new(1_000),
                    1,
                    vec![IoDemand::seq_read(stray, Bytes::mib(1))],
                )])]);
        }
        cfg
    }

    #[test]
    fn the_lowest_index_failure_is_returned_at_every_shard_count() {
        // Run errors in cells 2 and 5: cell 2's is the one reported.
        let cfg = config_with_stray_targets(&[2, 5]);
        for shards in SHARD_COUNTS {
            assert_eq!(
                run_parallel(&cfg, shards).unwrap_err(),
                SimError::UnknownDevice("SsdId(2)".to_string()),
                "{shards} shard(s)"
            );
        }
        // A build error in cell 1 (RAID-5 over two disks) outranks them:
        // no cell runs at all.
        let mut cfg = config_with_stray_targets(&[2, 5]);
        cfg.cells[1].disks = 2;
        cfg.cells[1].raid = Some(RaidLevel::Raid5);
        for shards in SHARD_COUNTS {
            assert_eq!(
                run_parallel(&cfg, shards).unwrap_err(),
                SimError::BadArrayGeometry { disks: 2, min: 3 },
                "{shards} shard(s)"
            );
        }
    }

    // -----------------------------------------------------------------
    // Pinned bytes of the simulator's exports, held to the root
    // `pins.txt` under `sim.*`; the root `trace_determinism` test pins
    // the facade's and the chaos engine's.

    /// FNV-1a (64-bit) over JSONL + Chrome + Prometheus + attribution
    /// rows; a ring that overflowed fails instead of digesting.
    fn export_digest(rec: &Recorder, attribution: Option<&AttributionTable>) -> u64 {
        assert_eq!(rec.dropped(), 0, "ring overflowed");
        assert_eq!(rec.metrics().counter("trace.dropped"), 0);
        wrapped_export_digest(rec, attribution)
    }

    /// [`export_digest`] of a recorder that may have evicted events.
    fn wrapped_export_digest(rec: &Recorder, attribution: Option<&AttributionTable>) -> u64 {
        use std::fmt::Write;
        let mut h = grail_prop::Fnv1a::new();
        h.bytes(grail_trace::to_jsonl(rec).as_bytes());
        h.bytes(grail_trace::to_chrome(rec).as_bytes());
        h.bytes(grail_metrics::to_prometheus(rec.metrics()).as_bytes());
        for row in attribution.iter().flat_map(|t| &t.rows) {
            writeln!(h, "{},{},{}", row.label(), row.energy.joules(), row.share)
                .expect("hashing cannot fail");
        }
        h.finish()
    }

    /// Four cells drifting out of lockstep (salted job sizes), disks in
    /// RAID-0 plus one SSD each so every track kind is remapped,
    /// transient and latent faults live, two scripted machine crashes.
    fn pinned_cells() -> SimConfig {
        pinned_cells_of(3)
    }

    /// [`pinned_cells`] with `jobs` jobs per stream.
    fn pinned_cells_of(jobs: usize) -> SimConfig {
        let cell = |c: usize| {
            let streams = (0..2)
                .map(|s| {
                    (0..jobs)
                        .map(|j| {
                            let salt = (c * 31 + s * 7 + j) as u64;
                            JobSpec::immediate(vec![
                                PhaseSpec::overlapped(
                                    Cycles::new(20_000_000 + (salt % 5) * 4_000_000),
                                    2,
                                    vec![IoDemand::seq_read(
                                        StorageTarget::Array(crate::ids::ArrayId(0)),
                                        Bytes::mib(2 + salt % 5),
                                    )],
                                ),
                                PhaseSpec::io_then_cpu(
                                    Cycles::new(1_000_000 + salt * 1_000),
                                    1,
                                    vec![IoDemand::seq_read(
                                        StorageTarget::Ssd(crate::ids::SsdId(0)),
                                        Bytes::mib(1 + salt % 3),
                                    )],
                                ),
                            ])
                        })
                        .collect()
                })
                .collect();
            CellSpec::new(
                CpuPerfProfile {
                    cores: 4,
                    freq: Hertz::ghz(2.2),
                },
                CpuPowerProfile::opteron_socket(),
            )
            .with_disks(3, DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k())
            .with_raid(RaidLevel::Raid0)
            .with_ssds(
                1,
                SsdPerfProfile::fig2_flash(),
                SsdPowerProfile::fig2_flash(),
            )
            .with_streams(streams)
        };
        let crash = |ms: u64, machine: u32| ChaosEvent {
            at: SimInstant::EPOCH + SimDuration::from_millis(ms),
            kind: ChaosEventKind::MachineCrash { machine },
        };
        let mut cfg = SimConfig::new((0..4).map(cell).collect());
        cfg.base_power = Watts::new(300.0);
        cfg.seed = 11;
        cfg.fault = FaultConfig {
            transient_per_io: 0.05,
            latent_per_read: 0.02,
            ..FaultConfig::NONE
        };
        cfg.chaos = Some(ChaosSchedule::scripted(
            4,
            1,
            SimDuration::from_secs(30),
            vec![crash(40, 0), crash(170, 3)],
        ));
        cfg.trace_capacity = Some(4096);
        cfg.attribution = true;
        cfg
    }

    #[test]
    fn sharded_trace_bytes_are_pinned_at_every_shard_count() {
        let cfg = pinned_cells();
        for shards in SHARD_COUNTS {
            let r = run_parallel(&cfg, shards).unwrap();
            let rec = r.report.trace.as_ref().unwrap();
            // The scenario is only worth pinning while it exercises what
            // the merge has to get right: faults, crashes, the re-journaled
            // ledger, and the last cell's remapped tracks.
            let jsonl = grail_trace::to_jsonl(rec);
            for needle in [
                "\"name\":\"chaos.machine_crash\"",
                "\"name\":\"fault.array_io\"",
                "\"name\":\"fault.ssd_io\"",
                "\"name\":\"retry\"",
                "\"component\":\"recovery[0]\"",
                "\"track\":\"ssd[3]\"",
                "\"track\":\"disk[11]\"",
                "\"track\":\"stream[7]\"",
            ] {
                assert!(jsonl.contains(needle), "pinned trace lost {needle}");
            }
            let digest = export_digest(rec, r.report.attribution.as_ref());
            assert_pinned("sim.sharded_trace", &[("cells", digest)]);
        }
    }

    /// Events a cell of [`multi_block_cells`] records: its ring spans
    /// more than three of the recorder's 8 192-entry blocks.
    const MULTI_BLOCK_CELL_EVENTS: usize = 3 * 8192;

    /// [`pinned_cells`] with 1 800 jobs per stream: ~30 900 events per
    /// cell.
    fn multi_block_cells(trace_capacity: usize) -> SimConfig {
        let mut cfg = pinned_cells_of(1800);
        cfg.trace_capacity = Some(trace_capacity);
        cfg
    }

    #[test]
    fn multi_block_sharded_trace_bytes_are_pinned() {
        let cfg = multi_block_cells(1 << 16);
        for shards in [1, 2, 8] {
            let r = run_parallel(&cfg, shards).unwrap();
            let rec = r.report.trace.as_ref().unwrap();
            assert!(rec.len() > 4 * MULTI_BLOCK_CELL_EVENTS);
            let digest = export_digest(rec, r.report.attribution.as_ref());
            assert_pinned("sim.multi_block_trace", &[("cells", digest)]);
        }
    }

    #[test]
    fn wrapped_multi_block_trace_bytes_are_pinned() {
        // Each cell keeps its newest 10 000 events of ~30 900: its
        // evictions cross two block boundaries, and the kept suffix
        // starts inside a block.
        let cfg = multi_block_cells(10_000);
        for shards in [1, 2, 8] {
            let r = run_parallel(&cfg, shards).unwrap();
            let rec = r.report.trace.as_ref().unwrap();
            assert!(rec.dropped() > 4 * (MULTI_BLOCK_CELL_EVENTS as u64 - 10_000));
            let digest = wrapped_export_digest(rec, r.report.attribution.as_ref());
            assert_pinned("sim.wrapped_multi_block_trace", &[("cells", digest)]);
        }
    }

    /// FNV-1a (64-bit) over every field of every `JobResult` in order,
    /// then the makespan and the retry total: the untraced outcome the
    /// trace pins only reach through job spans.
    fn outcome_digest(o: &DriveOutcome) -> u64 {
        let mut h = grail_prop::Fnv1a::new();
        for r in &o.results {
            h.word(r.stream as u64);
            h.word(r.index as u64);
            h.word(r.start.as_nanos());
            h.word(r.end.as_nanos());
            h.word(u64::from(r.retries));
            h.word(r.retry_energy.joules().to_bits());
        }
        h.word(o.makespan.as_nanos());
        h.word(o.total_retries);
        h.finish()
    }

    #[test]
    fn sharded_outcome_is_pinned_at_every_shard_count() {
        let cfg = pinned_cells();
        for shards in [1, 2, 8] {
            let r = run_parallel(&cfg, shards).unwrap();
            assert!(r.outcome.total_retries > 0, "faults must retry");
            let digest = outcome_digest(&r.outcome);
            assert_pinned("sim.sharded_outcome", &[("cells", digest)]);
        }
    }

    /// One `Simulation` (four cores, a bare disk, three disks in RAID-5,
    /// an SSD) under transient and latent faults, and three streams that
    /// between them take every step shape the driver has: an empty job,
    /// a CPU-only phase, an overlapped phase of several demands (reads,
    /// a write, random access), an IO-then-CPU phase split in two, a
    /// blocking phase that stays whole (no CPU), and a job arriving after
    /// its stream went idle.
    fn every_step_shape(fault_seed: u64) -> (Simulation, crate::ids::CpuId, Vec<Vec<JobSpec>>) {
        use crate::driver::IoOp;
        use crate::ids::{ArrayId, DiskId, SsdId};
        use crate::perf::AccessPattern;
        let mut sim = Simulation::new();
        let cpu = sim.add_cpu(
            CpuPerfProfile {
                cores: 4,
                freq: Hertz::ghz(2.0),
            },
            CpuPowerProfile::opteron_socket(),
        );
        sim.add_disk(DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k());
        let members = sim.add_disks(3, DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k());
        sim.make_array(RaidLevel::Raid5, members).unwrap();
        sim.add_ssd(SsdPerfProfile::fig2_flash(), SsdPowerProfile::fig2_flash());
        sim.set_fault_plan(FaultPlan::new(
            FaultConfig {
                transient_per_io: 0.2,
                latent_per_read: 0.1,
                ..FaultConfig::NONE
            },
            fault_seed,
        ));
        let (disk, array, ssd) = (
            StorageTarget::Disk(DiskId(0)),
            StorageTarget::Array(ArrayId(0)),
            StorageTarget::Ssd(SsdId(0)),
        );
        let io = |target, mib, access, op| IoDemand {
            target,
            bytes: Bytes::mib(mib),
            access,
            op,
        };
        let scan = |mib| {
            vec![
                io(array, mib, AccessPattern::Sequential, IoOp::Read),
                io(ssd, 2, AccessPattern::Sequential, IoOp::Write),
                io(disk, 1, AccessPattern::Random { ios: 16 }, IoOp::Read),
            ]
        };
        let mut late = JobSpec::immediate(vec![
            PhaseSpec::io_then_cpu(Cycles::new(3_000_000), 1, scan(2)),
            PhaseSpec::cpu_only(Cycles::new(1_000_000), 2),
        ]);
        late.arrival = SimInstant::EPOCH + SimDuration::from_secs(5);
        let streams = vec![
            vec![
                JobSpec::immediate(vec![]),
                JobSpec::immediate(vec![PhaseSpec::overlapped(
                    Cycles::new(40_000_000),
                    2,
                    scan(6),
                )]),
                JobSpec::immediate(vec![
                    PhaseSpec::io_then_cpu(
                        Cycles::new(8_000_000),
                        3,
                        vec![io(disk, 3, AccessPattern::Sequential, IoOp::Read)],
                    ),
                    PhaseSpec::io_then_cpu(
                        Cycles::ZERO,
                        1,
                        vec![io(ssd, 4, AccessPattern::Sequential, IoOp::Read)],
                    ),
                ]),
            ],
            vec![
                JobSpec::immediate(vec![PhaseSpec::cpu_only(Cycles::new(30_000_000), 4)]),
                late,
                JobSpec::immediate(vec![]),
            ],
            (0..4)
                .map(|j| {
                    JobSpec::immediate(vec![
                        PhaseSpec::overlapped(Cycles::new(5_000_000), 1, scan(1 + j)),
                        PhaseSpec::io_then_cpu(
                            Cycles::new(2_000_000),
                            2,
                            vec![io(array, 1, AccessPattern::Sequential, IoOp::Write)],
                        ),
                    ])
                })
                .collect(),
        ];
        (sim, cpu, streams)
    }

    #[test]
    fn single_simulation_outcome_is_pinned() {
        let (mut sim, cpu, streams) = every_step_shape(23);
        let policy = RetryPolicy {
            max_retries: 64,
            ..RetryPolicy::default()
        };
        let out = crate::driver::run_streams_with(&mut sim, cpu, &streams, &policy).unwrap();
        assert_eq!(out.results.len(), 3 + 3 + 4);
        assert!(out.total_retries > 0, "faults must retry");
        assert!(out.results.iter().any(|r| r.latency().is_zero()));
        let digest = outcome_digest(&out);
        assert_pinned("sim.single_simulation_outcome", &[("every_step", digest)]);

        // The same streams on a budget of one retry run out of it.
        let (mut sim, cpu, streams) = every_step_shape(23);
        let policy = RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        };
        let err = crate::driver::run_streams_with(&mut sim, cpu, &streams, &policy).unwrap_err();
        assert_eq!(
            err,
            SimError::RetriesExhausted {
                stream: 2,
                job: 1,
                attempts: 2
            }
        );
    }

    // -----------------------------------------------------------------
    // The in-place engine against the compiling one it replaced: equal
    // outcomes, errors, ledger bits and JSONL traces on drawn input.

    /// `run_parallel` at one shard with every cell driven by the
    /// compiling engine: cells built first, run in index order (so the
    /// lowest-index error wins, as there), committed the same way.
    fn run_compiled(config: &SimConfig) -> Result<ParReport, SimError> {
        use crate::driver::compiled::CompiledEngine;
        if let Some(schedule) = &config.chaos {
            check_schedule(schedule, config.cells.len())?;
        }
        let mut cells = Vec::new();
        for (i, spec) in config.cells.iter().enumerate() {
            let cell = CellRun::build(config, i, spec)?;
            let engine = CompiledEngine::new(crate::ids::CpuId(0), &spec.streams, config.policy);
            cells.push((cell, engine));
        }
        let mut parts = Vec::new();
        for (cell, mut engine) in cells {
            let CellRun {
                mut sim,
                crashes,
                boot_energy,
                mut high_water,
                ..
            } = cell;
            let mut crashes = crashes.into_iter().peekable();
            while let Some(action) = next_cell_action(crashes.peek().copied(), engine.next_at()) {
                match action {
                    CellAction::Crash(at) => {
                        high_water = high_water.max(at);
                        sim.bill_recovery(at, "chaos.machine_crash", boot_energy);
                        crashes.next();
                    }
                    CellAction::Event(at) => {
                        high_water = high_water.max(at);
                        engine.step(&mut sim)?;
                    }
                }
            }
            parts.push((sim, engine.into_outcome(), high_water));
        }
        commit(config, parts)
    }

    /// What the two engines must agree on: the outcome, the ledger's
    /// bits and the JSONL trace.
    fn drive_artifacts(
        outcome: &DriveOutcome,
        report: &SimReport,
    ) -> (DriveOutcome, Vec<(String, u64)>, String) {
        let ledger = (report.ledger.iter())
            .map(|(id, e)| (id.to_string(), e.joules().to_bits()))
            .collect();
        let jsonl = report.trace.as_ref().map(grail_trace::to_jsonl);
        (outcome.clone(), ledger, jsonl.unwrap_or_default())
    }

    #[test]
    fn streams_run_in_place_match_the_compiling_oracle() {
        use super::drawn::drawn_cell;
        use crate::driver::compiled::run_streams_compiled;
        use crate::driver::run_streams_with;
        grail_prop::check(256, |g| {
            let (seed, attribution) = (g.word(), g.bool());
            let (transient, latent) = (g.range(0.0f64..0.3), g.range(0.0f64..0.2));
            let policy = RetryPolicy {
                max_retries: g.range(0u32..6),
                ..RetryPolicy::default()
            };
            // Drawn cells under faults and machine crashes, through the
            // whole build → run → commit pipeline.
            let mut cfg = SimConfig::new(g.vec(1..4, drawn_cell));
            let machines = cfg.cells.len() as u32;
            let crashes = g.vec(0..4, |g| ChaosEvent {
                at: SimInstant::EPOCH + SimDuration::from_millis(g.range(0u64..300)),
                kind: ChaosEventKind::MachineCrash {
                    machine: g.range(0..machines),
                },
            });
            cfg.seed = seed;
            cfg.attribution = attribution;
            cfg.policy = policy;
            cfg.trace_capacity = Some(1 << 12);
            cfg.fault = FaultConfig {
                transient_per_io: transient,
                latent_per_read: latent,
                ..FaultConfig::NONE
            };
            cfg.chaos = Some(ChaosSchedule::scripted(
                machines,
                1,
                SimDuration::from_secs(30),
                crashes,
            ));
            match (run_parallel(&cfg, 1), run_compiled(&cfg)) {
                (Ok(a), Ok(b)) => assert_eq!(
                    drive_artifacts(&a.outcome, &a.report),
                    drive_artifacts(&b.outcome, &b.report)
                ),
                (a, b) => assert_eq!(a.err(), b.err()),
            }
            // Every step shape on one traced `Simulation`, under the
            // drawn retry budget, which may run out.
            let single = |compiled: bool| {
                let (mut sim, cpu, streams) = every_step_shape(seed);
                sim.set_tracer(Tracer::on(Recorder::new(1 << 12)));
                let run = if compiled {
                    run_streams_compiled
                } else {
                    run_streams_with
                };
                let outcome = run(&mut sim, cpu, &streams, &policy);
                let end = sim.horizon();
                let report = sim.finish(end);
                outcome.map(|o| drive_artifacts(&o, &report))
            };
            assert_eq!(single(false), single(true));
        });
    }

    #[test]
    fn single_simulation_trace_bytes_are_pinned() {
        // Cell 0 of the pinned scenario as ONE `Simulation` with every
        // category on, so settlement journals the ledger (charges and
        // the fault transfers) under the cell's own component ids.
        let cfg = pinned_cells();
        let mut cell = CellRun::build(&cfg, 0, &cfg.cells[0]).unwrap();
        cell.sim.set_tracer(Tracer::on(Recorder::new(4096)));
        cell.run().unwrap();
        let rep = cell.sim.finish(cell.high_water);
        let rec = rep.trace.as_ref().unwrap();
        for name in ["ledger.charge", "ledger.transfer", "chaos.machine_crash"] {
            assert!(rec.events().any(|e| e.name == name), "lost {name}");
        }
        let digest = export_digest(rec, rep.attribution.as_ref());
        assert_pinned("sim.single_simulation_trace", &[("cell_0", digest)]);
    }

    #[test]
    fn single_device_trace_bytes_are_pinned() {
        // One traced `Simulation` with no array: a bare disk read and
        // written, a second bare disk parked before each of its reads (so
        // every wake draws a spin-up), and an SSD read and written, under
        // transient, latent and spin-up faults with attribution on. This
        // is what the cell pins leave out: `fault.spin_up` on a device
        // track, and SSD writes.
        use crate::ids::{DiskId, SsdId};
        use crate::perf::AccessPattern;
        let mut sim = Simulation::new();
        sim.add_disks(2, DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k());
        sim.add_ssd(SsdPerfProfile::fig2_flash(), SsdPowerProfile::fig2_flash());
        sim.set_base_power(Watts::new(50.0));
        sim.set_fault_plan(FaultPlan::new(
            FaultConfig {
                transient_per_io: 0.15,
                latent_per_read: 0.1,
                spin_up_fault: 0.4,
                ..FaultConfig::NONE
            },
            17,
        ));
        sim.set_tracer(Tracer::on(Recorder::new(4096)));
        sim.enable_attribution();
        let mut t = SimInstant::EPOCH;
        for q in 0..36u32 {
            sim.set_query_tag(q % 2, q / 2);
            let target = match q % 3 {
                0 => StorageTarget::Disk(DiskId(0)),
                1 => StorageTarget::Disk(DiskId(1)),
                _ => StorageTarget::Ssd(SsdId(0)),
            };
            let bytes = Bytes::mib(1 + u64::from(q % 5));
            let access = if q % 4 == 3 {
                AccessPattern::Random { ios: 8 }
            } else {
                AccessPattern::Sequential
            };
            let served = if q % 3 == 1 {
                sim.park_disk(DiskId(1), t).unwrap();
                sim.read(target, t, bytes, access)
            } else if q % 2 == 0 {
                sim.read(target, t, bytes, access)
            } else {
                sim.write(target, t, bytes, access)
            };
            t = match served {
                Ok(r) => r.end,
                Err(e) => e.retry_until().unwrap_or(t),
            };
            sim.clear_query_tag();
        }
        let end = sim.horizon();
        let rep = sim.finish(end);
        let rec = rep.trace.as_ref().unwrap();
        let on_device = |name: &str| {
            rec.events()
                .any(|e| e.name == name && matches!(e.track, Track::Device { .. }))
        };
        for name in [
            "disk_read",
            "disk_write",
            "ssd_io",
            "disk_park",
            "fault.spin_up",
            "fault.disk_io",
            "fault.ssd_io",
        ] {
            assert!(on_device(name), "lost {name}");
        }
        assert!(rep.faults.latent > 0 && rep.faults.spin_up_faults > 0);
        let digest = export_digest(rec, rep.attribution.as_ref());
        assert_pinned("sim.single_device_trace", &[("devices", digest)]);
    }

    #[test]
    fn cell_action_tie_break_prefers_the_crash() {
        use CellAction::{Crash, Event};
        let at = SimInstant::from_nanos;
        let next = |c: Option<u64>, e: Option<u64>| next_cell_action(c.map(at), e.map(at));
        assert_eq!(next(Some(100), Some(100)), Some(Crash(at(100))));
        assert_eq!(next(Some(100), Some(90)), Some(Event(at(90))));
        assert_eq!(next(Some(100), Some(101)), Some(Crash(at(100))));
        assert_eq!(next(None, Some(90)), Some(Event(at(90))));
        assert_eq!(next(Some(201), None), Some(Crash(at(201))));
        assert_eq!(next(None, None), None);
    }
}
