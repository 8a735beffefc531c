//! The reproduction sweep: many small, independent experiment points.
//!
//! These are the points a reader of the paper runs — the Fig. 1 disk
//! sweep, the Fig. 2 scan pair, and the EXT-FAULT, EXT-CHAOS and
//! EXT-BUF grids, 31 points — at the constants the repo publishes (but
//! for the length of the EXT-BUF page trace, see `Sizes`). The
//! constants are copied here on purpose: `crates/bench` must stay free
//! to change its harness without moving the benchmark's inputs.
//!
//! Every point builds its own world (tables, catalog, simulation), so
//! per-point fixed cost dominates and no single layer does. A sweep is
//! about 0.1 s of host time; at full scale a pass runs it eight times
//! over, each point afresh.

use super::Scale;
use crate::harness::{close, Harness, Pinned};
use crate::replay::{self, conservation_failure, ledger_conserved, Metered};
use crate::seeds::Seeds;
use grail_buffer::policy::PolicyKind;
use grail_buffer::pool::{BufferPool, EnergyModel};
use grail_core::db::{CompressionMode, EnergyAwareDb, ExecPolicy, ScanSpec};
use grail_core::profile::HardwareProfile;
use grail_par::Runner;
use grail_power::components::{CpuPowerProfile, DiskPowerProfile};
use grail_power::units::{Bytes, Cycles, Hertz, Joules, SimDuration, SimInstant, Watts};
use grail_scheduler::chaos::{run_chaos, ChaosPolicy};
use grail_scheduler::cluster::{chaos_fleet, PlacementPolicy};
use grail_scheduler::governor::{
    IdleGovernor, NeverPark, OracleGovernor, ParkCosts, TimeoutGovernor,
};
use grail_sim::perf::{AccessPattern, CpuPerfProfile, DiskPerfProfile};
use grail_sim::raid::RaidLevel;
use grail_sim::sim::Simulation;
use grail_sim::{ChaosConfig, ChaosSchedule, FaultConfig, FaultPlan, SimError, StorageTarget};
use grail_storage::page::PageId;
use grail_trace::{Recorder, Tracer};
use grail_workload::mix::poisson_arrivals;
use grail_workload::tpch::{self, TpchScale};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Disk counts swept by Figure 1.
pub const FIG1_DISKS: [usize; 4] = [36, 66, 108, 204];
/// Toy-scale demands stretched to the audited 300 GB class.
const FIG1_STRETCH: f64 = 30_000.0;
/// Toy ORDERS stretched to Fig. 2's ~150 M-row table.
const FIG2_STRETCH: f64 = 15_000.0;
const FIG2_MODES: [CompressionMode; 2] = [CompressionMode::Plain, CompressionMode::Fig2];

const FAULT_LEVELS: [&str; 3] = ["none", "transient", "wearing"];
const FAULT_GOVERNORS: [&str; 3] = ["never", "timeout10s", "oracle"];
const FAULT_DISKS: usize = 5;
const REBUILD_BYTES: Bytes = Bytes::gib(32);
const MAX_ATTEMPTS: u32 = 64;

const CHAOS_LEVELS: [&str; 3] = ["calm", "storm", "hurricane"];
const CHAOS_DOMAINS: u32 = 4;
const CHAOS_PER_DOMAIN: u32 = 6;
const CHAOS_DEMAND_FRAC: f64 = 0.25;
const CHAOS_HORIZON: SimDuration = SimDuration::from_secs(2 * 86_400);

const BUF_PAGES: u32 = 4096;
const BUF_POOL: usize = 512;
const BUF_RESIDENCY_W: f64 = 0.0005;

/// The paper's eight reference values `paper_err_pct` is taken over.
const PAPER_FIG2_PLAIN: [f64; 3] = [10.0, 3.2, 338.0];
const PAPER_FIG2_PACKED: [f64; 3] = [5.5, 5.1, 487.0];
const PAPER_FIG1_EE_GAIN_PCT: f64 = 14.0;
const PAPER_FIG1_PERF_LOSS_PCT: f64 = 45.0;

/// The frozen sizes of the sweep at each scale.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// ORDERS rows every FIG point generates (10 K is the published toy
    /// scale).
    fig_orders: u64,
    /// Times a pass runs the whole sweep, each point afresh.
    rounds: usize,
    /// Arrivals replayed by each EXT-FAULT point.
    fault_jobs: usize,
    /// Page accesses replayed by each EXT-BUF point. The published
    /// experiment replays 200 K; at the 7–9 µs the LRU and energy-aware
    /// policies take per access that is 3 s of a 0.1 s sweep, and
    /// `points_per_s` would measure the buffer pool alone. 2 K makes a
    /// buffer point about as long as a FIG point.
    buf_accesses: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                fig_orders: 10_000,
                rounds: 8,
                fault_jobs: 40,
                buf_accesses: 2_000,
            },
            Scale::Probe => Sizes {
                fig_orders: 10_000,
                rounds: 1,
                fault_jobs: 40,
                buf_accesses: 2_000,
            },
            Scale::Tiny => Sizes {
                fig_orders: 100,
                rounds: 1,
                fault_jobs: 8,
                buf_accesses: 200,
            },
        }
    }
}

/// One point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Point {
    /// Fig. 1: the throughput test on a `disks`-spindle DL785.
    Fig1 {
        /// Spindle count.
        disks: usize,
    },
    /// Fig. 2: the ORDERS projection scan on the flash scanner.
    Fig2 {
        /// Storage mode (Plain or Fig2).
        mode: CompressionMode,
    },
    /// EXT-FAULT: arrivals over a RAID-5 box under faults × governor.
    Fault {
        /// Fault level name.
        level: &'static str,
        /// Idle governor name.
        governor: &'static str,
    },
    /// EXT-CHAOS: a 24-machine fleet under a chaos level × policy.
    Chaos {
        /// Chaos level name.
        level: &'static str,
        /// Resilience policy name.
        policy: &'static str,
    },
    /// EXT-BUF: a Zipf page trace through one replacement policy.
    Buf {
        /// Index into [`crate::spec::POLICIES`].
        policy: usize,
    },
}

impl Point {
    /// The point's kind, as in `core.point_ms.<kind>`.
    pub fn kind(&self) -> &'static str {
        match self {
            Point::Fig1 { .. } => "fig1",
            Point::Fig2 { .. } => "fig2",
            Point::Fault { .. } => "fault",
            Point::Chaos { .. } => "chaos",
            Point::Buf { .. } => "buf",
        }
    }
}

/// What one point computed: its pinned simulated values plus whatever
/// the shape checks and the per-layer metrics read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointOut {
    /// Simulated values that must repeat bit-for-bit.
    pub values: Vec<f64>,
    /// Failed invariants of this point (empty when all hold).
    pub broken: Vec<String>,
    /// Park/unpark transitions counted by a metrics-only tracer
    /// (EXT-FAULT points of a traced pass; otherwise 0).
    pub power_transitions: u64,
}

/// Fault level → seeded fault rates.
fn fault_config(level: &str) -> FaultConfig {
    let transient = FaultConfig {
        transient_per_io: 0.01,
        latent_per_read: 0.002,
        spin_up_fault: 0.05,
        ..FaultConfig::NONE
    };
    match level {
        "none" => FaultConfig::NONE,
        "transient" => transient,
        "wearing" => FaultConfig {
            spin_up_kill: 0.05,
            ..transient
        },
        other => unreachable!("unknown fault level {other:?}"),
    }
}

fn fault_governor(name: &str) -> Box<dyn IdleGovernor> {
    match name {
        "never" => Box::new(NeverPark),
        "timeout10s" => Box::new(TimeoutGovernor {
            timeout: SimDuration::from_secs(10),
        }),
        "oracle" => Box::new(OracleGovernor),
        other => unreachable!("unknown governor {other:?}"),
    }
}

/// Chaos level → seeded chaos intensity (shared with the fleet section,
/// which runs the hurricane at fleet size).
pub fn chaos_config(level: &str) -> ChaosConfig {
    match level {
        "calm" => ChaosConfig::NONE,
        "storm" => ChaosConfig {
            machine_mtbf: Some(SimDuration::from_secs(86_400)),
            machine_restart: SimDuration::from_secs(600),
            domain_mtbf: Some(SimDuration::from_secs(4 * 86_400)),
            domain_outage: SimDuration::from_secs(1_800),
            brownout_mtbf: Some(SimDuration::from_secs(86_400)),
            brownout: SimDuration::from_secs(3_600),
            brownout_cap_frac: 0.7,
            surge_mtbf: Some(SimDuration::from_secs(43_200)),
            surge: SimDuration::from_secs(2_400),
            surge_factor: 1.5,
        },
        "hurricane" => ChaosConfig {
            machine_mtbf: Some(SimDuration::from_secs(6 * 3_600)),
            machine_restart: SimDuration::from_secs(900),
            domain_mtbf: Some(SimDuration::from_secs(86_400)),
            domain_outage: SimDuration::from_secs(3_600),
            brownout_mtbf: Some(SimDuration::from_secs(43_200)),
            brownout: SimDuration::from_secs(7_200),
            brownout_cap_frac: 0.6,
            surge_mtbf: Some(SimDuration::from_secs(21_600)),
            surge: SimDuration::from_secs(3_600),
            surge_factor: 2.0,
        },
        other => unreachable!("unknown chaos level {other:?}"),
    }
}

/// Policy name → resilience policy.
pub fn chaos_policy(name: &str) -> ChaosPolicy {
    let (placement, replicas) = match name {
        "spread-r1" => (PlacementPolicy::Spread, 1),
        "consolidate-r1" => (PlacementPolicy::Consolidate, 1),
        "consolidate-r2" => (PlacementPolicy::Consolidate, 2),
        "consolidate-r3" => (PlacementPolicy::Consolidate, 3),
        other => unreachable!("unknown chaos policy {other:?}"),
    };
    ChaosPolicy {
        placement,
        replicas,
        ..ChaosPolicy::default()
    }
}

/// The buffer policies, in [`crate::spec::POLICIES`] order.
pub fn buffer_policies() -> [PolicyKind; 4] {
    [
        PolicyKind::Lru,
        PolicyKind::Clock,
        PolicyKind::TwoQ,
        PolicyKind::EnergyAware {
            residency_watts_per_page: Watts::new(BUF_RESIDENCY_W),
        },
    ]
}

/// Deterministic Zipf-ish page trace (rank-biased inverse-power
/// sampling concentrates on low ranks).
fn page_trace(seed: u64, accesses: usize) -> Vec<PageId> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    (0..accesses)
        .map(|_| {
            let u: f64 = rng.random_range(0.0f64..1.0);
            let rank = (u.powf(3.0) * f64::from(BUF_PAGES)) as u32;
            PageId::new(0, rank.min(BUF_PAGES - 1))
        })
        .collect()
}

/// Replay `trace` through a fresh pool under `kind`; returns the hit
/// rate, residency Joules and re-fetch Joules. Even pages live on
/// flash (cheap re-fetch), odd pages on a nearline disk.
pub fn replay_pages(kind: PolicyKind, trace: &[PageId]) -> [f64; 3] {
    let mut pool = BufferPool::new(
        BUF_POOL,
        kind,
        EnergyModel {
            residency_watts_per_page: Watts::new(BUF_RESIDENCY_W),
        },
    );
    for (i, p) in trace.iter().enumerate() {
        let now = SimInstant::EPOCH + SimDuration::from_millis(i as u64 * 5);
        let refetch = if p.index % 2 == 0 { 0.05 } else { 2.0 };
        pool.access(*p, now, Joules::new(refetch));
    }
    let stats = pool.finish(SimInstant::EPOCH + SimDuration::from_millis(trace.len() as u64 * 5));
    [
        stats.hit_rate(),
        stats.residency_energy.joules(),
        stats.refetch_energy.joules(),
    ]
}

/// The read-only world every point of one run shares: sizes, seeds and
/// the generated page trace.
#[derive(Debug)]
pub struct SweepEnv {
    sizes: Sizes,
    seeds: Seeds,
    /// The EXT-BUF page trace (also the input of `buffer.access_ns`).
    pub trace: Vec<PageId>,
}

fn metered_out(m: &Metered, label: &str) -> PointOut {
    PointOut {
        values: m.values().to_vec(),
        broken: if m.conserved {
            Vec::new()
        } else {
            vec![conservation_failure(label)]
        },
        power_transitions: 0,
    }
}

impl SweepEnv {
    fn fig1(&self, h: &mut Harness, disks: usize) -> Result<Metered, String> {
        let profile = HardwareProfile::server_dl785(disks);
        let scale = TpchScale {
            orders_rows: self.sizes.fig_orders,
        };
        let policy = ExecPolicy {
            compression: CompressionMode::Plain,
            dop: 4,
        };
        if h.tracing() {
            let tables = h.span("workload.tpch_generate", |_| {
                tpch::generate(scale, self.seeds.tpch)
            });
            replay::run_throughput_test(h, &profile, &tables, 8, 4, policy, FIG1_STRETCH)
        } else {
            let mut db = EnergyAwareDb::new(profile);
            db.load_tpch_seeded(scale, self.seeds.tpch);
            db.try_run_throughput_test(8, 4, policy, FIG1_STRETCH)
                .map(|r| Metered::from_report(&r))
                .map_err(|e| e.to_string())
        }
    }

    fn fig2(&self, h: &mut Harness, mode: CompressionMode) -> Result<Metered, String> {
        let profile = HardwareProfile::flash_scanner();
        let scale = TpchScale {
            orders_rows: self.sizes.fig_orders,
        };
        let policy = ExecPolicy {
            compression: mode,
            dop: 1,
        };
        if h.tracing() {
            let tables = h.span("workload.tpch_generate", |_| {
                tpch::generate(scale, self.seeds.tpch)
            });
            replay::run_scan(
                h,
                &profile,
                &tables,
                &ScanSpec::fig2(),
                policy,
                FIG2_STRETCH,
            )
        } else {
            let mut db = EnergyAwareDb::new(profile);
            db.load_tpch_seeded(scale, self.seeds.tpch);
            db.try_run_scan(&ScanSpec::fig2(), policy, FIG2_STRETCH)
                .map(|r| Metered::from_report(&r))
                .map_err(|e| e.to_string())
        }
    }

    /// One EXT-FAULT cell: replay a Poisson arrival stream over a
    /// 5-disk RAID-5 box under a fault level × idle governor, driving
    /// `Simulation` imperatively. A traced pass also installs a
    /// metrics-only tracer to count park/unpark transitions.
    fn fault(&self, h: &mut Harness, level: &str, governor: &str) -> PointOut {
        let cfg = fault_config(level);
        let governor = fault_governor(governor);
        let jobs = self.sizes.fault_jobs;
        let arrivals = h.span("workload.poisson_arrivals", |_| {
            poisson_arrivals(1.0 / 50.0, jobs, self.seeds.arrivals)
        });
        let costs = ParkCosts::scsi_15k();
        let counting = h.tracing();

        let (mut sim, cpu, disks, arr) = h.span("sim.build", |_| {
            let mut sim = Simulation::new();
            if !cfg.is_zero() {
                sim.set_fault_plan(FaultPlan::new(cfg, self.seeds.fault));
            }
            if counting {
                sim.set_tracer(Tracer::on(Recorder::metrics_only()));
            }
            let cpu = sim.add_cpu(
                CpuPerfProfile {
                    cores: 4,
                    freq: Hertz::ghz(2.3),
                },
                CpuPowerProfile::opteron_socket(),
            );
            let disks: Vec<_> = (0..FAULT_DISKS)
                .map(|_| sim.add_disk(DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k()))
                .collect();
            let arr = sim
                .make_array(RaidLevel::Raid5, disks.clone())
                .expect("five disks satisfy RAID-5");
            (sim, cpu, disks, arr)
        });

        let mut broken = Vec::new();
        let mut prev_end = SimInstant::EPOCH;
        let (mut parks, mut retries, mut rebuilds) = (0u64, 0u64, 0u64);
        let mut total_latency = 0.0f64;
        h.span("sim.drive", |_| {
            'jobs: for (i, &arrival) in arrivals.iter().enumerate() {
                let start = arrival.max(prev_end);
                if start > prev_end {
                    if let Some(plan) = governor.plan_gap(prev_end, start, &costs) {
                        for d in &disks {
                            sim.park_disk(*d, plan.park_at).expect("disk exists");
                        }
                        parks += 1;
                    }
                }
                // One scan query: 400 MB off the array overlapping light
                // CPU, retried through transient faults, rebuilding on
                // disk loss.
                let mut t = start;
                let mut attempts = 0u32;
                let io = loop {
                    attempts += 1;
                    if attempts > MAX_ATTEMPTS {
                        broken.push(format!("fault job {i} stuck retrying"));
                        break 'jobs;
                    }
                    match sim.read(
                        StorageTarget::Array(arr),
                        t,
                        Bytes::mib(400),
                        AccessPattern::Sequential,
                    ) {
                        Ok(r) => break r,
                        Err(e) if e.is_retryable() => {
                            retries += 1;
                            t = e.retry_until().unwrap_or(t).max(t) + SimDuration::from_millis(100);
                        }
                        Err(SimError::DeviceFailed { .. }) => {
                            match sim.rebuild_array(arr, t, REBUILD_BYTES, Some(cpu)) {
                                Ok(rb) => {
                                    rebuilds += 1;
                                    retries += 1;
                                    t = rb.end;
                                }
                                Err(e) => {
                                    broken.push(format!("fault job {i}: rebuild failed: {e}"));
                                    break 'jobs;
                                }
                            }
                        }
                        Err(e) => {
                            broken.push(format!("fault job {i}: {e}"));
                            break 'jobs;
                        }
                    }
                };
                let c = sim
                    .compute(cpu, t, Cycles::new(500_000_000))
                    .expect("cpu exists");
                let mut end = io.end.max(c.end);
                // A member lost mid-stream is re-silvered before the
                // next arrival.
                let failed = sim.failed_array_disks(arr, end).expect("array exists");
                if !failed.is_empty() {
                    match sim.rebuild_array(arr, end, REBUILD_BYTES, Some(cpu)) {
                        Ok(rb) => {
                            rebuilds += 1;
                            end = rb.end;
                        }
                        Err(e) => {
                            broken.push(format!("fault job {i}: re-silver failed: {e}"));
                            break 'jobs;
                        }
                    }
                }
                total_latency += end.duration_since(arrival).as_secs_f64();
                prev_end = end;
            }
        });
        let report = h.span("sim.finish", |_| sim.finish(prev_end));
        let energy = report.total_energy().joules();
        if !ledger_conserved(&report.ledger) {
            broken.push(conservation_failure(&format!("fault {level}")));
        }
        let power_transitions = report.trace.as_ref().map_or(0, |rec| {
            rec.metrics().counter("power.parks") + rec.metrics().counter("power.unparks")
        });
        PointOut {
            values: vec![
                report.elapsed.as_secs_f64(),
                energy,
                report.recovery_energy().joules(),
                total_latency / jobs as f64,
                parks as f64,
                retries as f64,
                rebuilds as f64,
            ],
            broken,
            power_transitions,
        }
    }

    /// One EXT-CHAOS cell: the 24-machine fleet through the level's
    /// seeded two-day schedule under a resilience policy.
    fn chaos(&self, h: &mut Harness, level: &str, policy: &str) -> PointOut {
        let (fleet, schedule) = h.span("sim.schedule_generate", |_| {
            let fleet = chaos_fleet(CHAOS_DOMAINS, CHAOS_PER_DOMAIN);
            let schedule = ChaosSchedule::generate(
                chaos_config(level),
                self.seeds.fault,
                fleet.len() as u32,
                CHAOS_DOMAINS,
                CHAOS_HORIZON,
            );
            (fleet, schedule)
        });
        let demand = fleet.iter().map(|m| m.capacity).sum::<f64>() * CHAOS_DEMAND_FRAC;
        let policy = chaos_policy(policy);
        let report = h.span("scheduler.run_chaos", |_| {
            run_chaos(&fleet, &schedule, demand, &policy, &mut Tracer::off())
        });
        let r = match report {
            Ok(r) => r,
            Err(e) => {
                return PointOut {
                    broken: vec![format!("chaos {level}: {e}")],
                    ..PointOut::default()
                }
            }
        };
        let mut broken = Vec::new();
        let energy = r.total_energy().joules();
        if r.conservation_error() > 1e-6 * r.offered.max(1.0) {
            broken.push(format!(
                "chaos {level}: served + shed + failed misses offered by {}",
                r.conservation_error()
            ));
        }
        if !ledger_conserved(&r.ledger) {
            broken.push(conservation_failure(&format!("chaos {level}")));
        }
        if level == "calm"
            && !(close(r.availability(), 1.0, 1e-12) && r.recovery_energy().joules() == 0.0)
        {
            broken.push(format!(
                "calm fleet is not fully available: {}",
                r.availability()
            ));
        }
        PointOut {
            values: vec![
                energy,
                r.served,
                r.availability(),
                r.recovery_energy().joules(),
                r.shed,
                r.failed,
                r.crashes as f64,
                r.breaker_trips as f64,
                r.cold_boots as f64,
                r.redispatches as f64,
                r.placements.len() as f64,
            ],
            broken,
            power_transitions: 0,
        }
    }

    /// Run one point. Pure in its arguments, so points may be fanned
    /// across `grail_par::Runner` threads.
    pub fn run_point(&self, h: &mut Harness, p: &Point) -> PointOut {
        match *p {
            Point::Fig1 { disks } => match self.fig1(h, disks) {
                Ok(m) => metered_out(&m, "fig1"),
                Err(e) => PointOut {
                    broken: vec![format!("fig1 disks={disks}: {e}")],
                    ..PointOut::default()
                },
            },
            Point::Fig2 { mode } => match self.fig2(h, mode) {
                Ok(m) => metered_out(&m, "fig2"),
                Err(e) => PointOut {
                    broken: vec![format!("fig2 {mode:?}: {e}")],
                    ..PointOut::default()
                },
            },
            Point::Fault { level, governor } => self.fault(h, level, governor),
            Point::Chaos { level, policy } => self.chaos(h, level, policy),
            Point::Buf { policy } => {
                let kind = buffer_policies()[policy];
                PointOut {
                    values: h
                        .span("buffer.replay", |_| replay_pages(kind, &self.trace))
                        .to_vec(),
                    ..PointOut::default()
                }
            }
        }
    }
}

/// What the Fig. 1 / Fig. 2 points of one pass say about the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PaperShape {
    /// Max over the paper's eight reference values of
    /// `|measured − paper| / paper × 100`.
    pub err_pct: f64,
    /// Disk count at which work per Joule peaks.
    pub ee_peak_disks: f64,
    /// Fig. 2: uncompressed seconds ÷ compressed seconds.
    pub fig2_speedup: f64,
    /// Fig. 2: compressed Joules ÷ uncompressed Joules.
    pub fig2_energy_ratio: f64,
    /// Fig. 1 at 66 disks: Joules per query.
    pub joules_per_query: f64,
}

/// The sweep section of a run.
#[derive(Debug)]
pub struct Sweep {
    /// The shared read-only world.
    pub env: SweepEnv,
    /// The points of one pass, in report order.
    pub points: Vec<Point>,
    pinned: Pinned,
    /// The paper comparison of the latest pass.
    pub shape: PaperShape,
    /// Park/unpark transitions the latest traced pass counted.
    pub power_transitions: u64,
}

impl Sweep {
    /// Generate the sweep's inputs at `scale`.
    pub fn setup(scale: Scale, seeds: Seeds) -> Sweep {
        let sizes = Sizes::of(scale);
        let mut points: Vec<Point> = Vec::new();
        points.extend(FIG1_DISKS.map(|disks| Point::Fig1 { disks }));
        points.extend(FIG2_MODES.map(|mode| Point::Fig2 { mode }));
        for level in FAULT_LEVELS {
            points.extend(FAULT_GOVERNORS.map(|governor| Point::Fault { level, governor }));
        }
        for level in CHAOS_LEVELS {
            points.extend(crate::spec::CHAOS_POLICIES.map(|policy| Point::Chaos { level, policy }));
        }
        points.extend((0..4).map(|policy| Point::Buf { policy }));
        Sweep {
            env: SweepEnv {
                sizes,
                seeds,
                trace: page_trace(seeds.buffer, sizes.buf_accesses),
            },
            points,
            pinned: Pinned::default(),
            shape: PaperShape::default(),
            power_transitions: 0,
        }
    }

    /// Points one pass runs: the work `points_per_s` divides by time.
    pub fn points_per_pass(&self) -> usize {
        self.points.len() * self.env.sizes.rounds
    }

    /// Run the sweep's rounds: every point, in order, afresh each time.
    pub fn pass(&mut self, h: &mut Harness) {
        self.pinned.start_pass();
        for _ in 0..self.env.sizes.rounds {
            self.power_transitions = 0;
            let mut outs = Vec::with_capacity(self.points.len());
            for p in &self.points {
                let out = h.op(p.kind(), |h| {
                    let out = self.env.run_point(h, p);
                    for b in &out.broken {
                        h.check(false, || b.clone());
                    }
                    self.pinned.pin(h, p.kind(), &out.values);
                    out
                });
                self.power_transitions += out.power_transitions;
                outs.push(out);
            }
            self.shape = self.paper_shape(h, &outs);
        }
    }

    /// Compare the FIG points with the paper and check the two shapes
    /// its argument rests on: an interior efficiency peak (Fig. 1) and
    /// a compressed scan that is faster but hungrier (Fig. 2).
    fn paper_shape(&self, h: &mut Harness, outs: &[PointOut]) -> PaperShape {
        // FIG points come first, FIG1 ×4 then FIG2 ×2, at every scale.
        let fig = &outs[..6];
        if fig.iter().any(|o| o.values.len() != 6) {
            return PaperShape::default(); // the points already failed
        }
        // values = [elapsed, energy, work, cpu_busy, ..]
        let ee: Vec<f64> = fig[..4].iter().map(|o| o.values[2] / o.values[1]).collect();
        let peak = (0..4)
            .max_by(|a, b| ee[*a].total_cmp(&ee[*b]))
            .expect("four points");
        h.check(peak != 0 && peak != 3, || {
            format!(
                "fig1: efficiency peaks at {} disks, not inside the sweep",
                FIG1_DISKS[peak]
            )
        });
        let (plain, packed) = (&fig[4].values, &fig[5].values);
        h.check(packed[0] < plain[0] && packed[1] > plain[1], || {
            "fig2: the compressed scan is not faster-but-hungrier".to_string()
        });

        let mut err_pct = 0.0f64;
        let mut against = |measured: f64, paper: f64| {
            err_pct = err_pct.max((measured - paper).abs() / paper * 100.0);
        };
        for (m, paper) in [(plain, PAPER_FIG2_PLAIN), (packed, PAPER_FIG2_PACKED)] {
            against(m[0], paper[0]);
            against(m[3], paper[1]);
            against(m[1], paper[2]);
        }
        // 66 vs 204 disks: efficiency gain and performance loss.
        let perf = |o: &PointOut| o.values[2] / o.values[0];
        against((ee[1] / ee[3] - 1.0) * 100.0, PAPER_FIG1_EE_GAIN_PCT);
        against(
            (1.0 - perf(&fig[1]) / perf(&fig[3])) * 100.0,
            PAPER_FIG1_PERF_LOSS_PCT,
        );
        PaperShape {
            err_pct,
            ee_peak_disks: FIG1_DISKS[peak] as f64,
            fig2_speedup: plain[0] / packed[0],
            fig2_energy_ratio: packed[1] / plain[1],
            joules_per_query: fig[1].values[1] / fig[1].values[2],
        }
    }

    /// `par.runner_speedup`: seconds for the pass's points run in order
    /// ÷ seconds for the same points through `Runner::with_threads(2)`.
    /// The fanned-out results must equal the in-order ones.
    pub fn runner_speedup(&self, h: &mut Harness) -> f64 {
        let mut run = |runner: Runner| {
            h.timed(|_| {
                runner.run(&self.points, |_, p| {
                    self.env.run_point(&mut Harness::new(), p)
                })
            })
        };
        let (seq, t_seq) = run(Runner::sequential());
        let (par, t_par) = run(Runner::with_threads(2));
        h.check(seq == par, || {
            "sweep points differ between Runner::sequential and two threads".to_string()
        });
        t_seq / t_par
    }

    /// See [`Pinned::corrupt`].
    pub fn corrupt_reference(&mut self) {
        self.pinned.corrupt();
    }
}
