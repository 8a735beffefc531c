//! The discrete-event core with no query engine.
//!
//! One `SimConfig` of 16 heterogeneous cells — eight four-spindle
//! RAID-5 groups, four three-spindle RAID-0 groups with a flash SSD,
//! four SSD-only cells — each serving four closed-loop streams of
//! generated jobs: overlapped, IO-then-CPU and CPU-only phases,
//! sequential and random access, reads and writes (the RAID-5 write
//! path), under transient faults and a seeded schedule of machine
//! crashes. Every pass runs it three ways: one shard, two shards, and
//! one shard with the flight recorder and attribution on. The event
//! queue, device models, driver and ledger dominate the first; the
//! shard protocol and commit show in the second; the recorder ring and
//! metrics registry show in the third.

use super::Scale;
use crate::harness::{close, wall, Harness, Pinned};
use crate::replay::{conservation_failure, ledger_conserved};
use crate::seeds::Seeds;
use crate::stats::{median, trimmed_mean};
use grail_power::components::{CpuPowerProfile, DiskPowerProfile, SsdPowerProfile};
use grail_power::ledger::{ComponentId, ComponentKind, EnergyLedger};
use grail_power::units::{Bytes, Cycles, Hertz, Joules, SimDuration, SimInstant, Watts};
use grail_sim::driver::{run_streams_with, IoDemand, IoOp, JobSpec, PhaseSpec};
use grail_sim::event::EventQueue;
use grail_sim::raid::RaidLevel;
use grail_sim::sim::Simulation;
use grail_sim::{
    run_parallel, AccessPattern, ArrayId, CellSpec, ChaosConfig, ChaosSchedule, CpuPerfProfile,
    DiskPerfProfile, FaultConfig, FaultPlan, ParReport, SimConfig, SsdId, SsdPerfProfile,
    StorageTarget,
};
use grail_trace::{Category, Recorder, TraceEvent, TraceSink, TraceTime, Track};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::BTreeMap;

const CELLS: usize = 16;
const STREAMS_PER_CELL: usize = 4;
/// Per-cell ring capacity of the traced mode.
const TRACE_CAPACITY: usize = 1 << 16;

/// Jobs per stream at each scale.
fn jobs_per_stream(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1_200,
        Scale::Probe => 600,
        Scale::Tiny => 6,
    }
}

/// Where a cell's jobs read and write: its primary target, and the
/// flash device beside it when it has one.
fn cell_targets(cell: usize) -> (StorageTarget, StorageTarget) {
    let array = StorageTarget::Array(ArrayId(0));
    match cell {
        0..=7 => (array, array),
        8..=11 => (array, StorageTarget::Ssd(SsdId(0))),
        _ => (StorageTarget::Ssd(SsdId(0)), StorageTarget::Ssd(SsdId(1))),
    }
}

/// One generated job: one or two phases drawn from the four shapes.
fn job(rng: &mut ChaCha12Rng, cell: usize) -> JobSpec {
    let (primary, secondary) = cell_targets(cell);
    let phase = |rng: &mut ChaCha12Rng| {
        let target = if rng.random_range(0..4) == 0 {
            secondary
        } else {
            primary
        };
        let demand = |bytes: Bytes, access: AccessPattern, op: IoOp| IoDemand {
            target,
            bytes,
            access,
            op,
        };
        match rng.random_range(0..4) {
            0 => PhaseSpec::overlapped(
                Cycles::new(rng.random_range(10_000_000..18_000_000u64)),
                2,
                vec![demand(
                    Bytes::mib(rng.random_range(2..9u64)),
                    AccessPattern::Sequential,
                    IoOp::Read,
                )],
            ),
            1 => PhaseSpec::io_then_cpu(
                Cycles::new(rng.random_range(5_000_000..9_000_000u64)),
                1,
                vec![demand(
                    Bytes::mib(1),
                    AccessPattern::Random {
                        ios: rng.random_range(16..64u32),
                    },
                    IoOp::Read,
                )],
            ),
            2 => PhaseSpec::cpu_only(Cycles::new(rng.random_range(20_000_000..40_000_000u64)), 4),
            _ => PhaseSpec::overlapped(
                Cycles::new(4_000_000),
                1,
                vec![demand(
                    Bytes::mib(rng.random_range(1..5u64)),
                    AccessPattern::Sequential,
                    IoOp::Write,
                )],
            ),
        }
    };
    let mut phases = vec![phase(rng)];
    if rng.random_range(0..2) == 0 {
        phases.push(phase(rng));
    }
    JobSpec::immediate(phases)
}

/// The scenario at `scale`, generated from the fault seed.
fn scenario(scale: Scale, seeds: Seeds) -> SimConfig {
    let jobs = jobs_per_stream(scale);
    let cpu = CpuPerfProfile {
        cores: 4,
        freq: Hertz::ghz(2.2),
    };
    let cells = (0..CELLS)
        .map(|c| {
            let streams = (0..STREAMS_PER_CELL)
                .map(|s| {
                    let stream = (c * STREAMS_PER_CELL + s) as u64;
                    let mut rng = ChaCha12Rng::seed_from_u64(
                        seeds.fault ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    (0..jobs).map(|_| job(&mut rng, c)).collect()
                })
                .collect();
            let spec = CellSpec::new(cpu, CpuPowerProfile::opteron_socket());
            let scsi = (DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k());
            let flash = (SsdPerfProfile::fig2_flash(), SsdPowerProfile::fig2_flash());
            match c {
                0..=7 => spec
                    .with_disks(4, scsi.0, scsi.1)
                    .with_raid(RaidLevel::Raid5),
                8..=11 => spec
                    .with_disks(3, scsi.0, scsi.1)
                    .with_raid(RaidLevel::Raid0)
                    .with_ssds(1, flash.0, flash.1),
                _ => spec.with_ssds(2, flash.0, flash.1),
            }
            .with_streams(streams)
        })
        .collect();
    let mut cfg = SimConfig::new(cells);
    cfg.base_power = Watts::new(300.0);
    cfg.seed = seeds.fault;
    cfg.fault = FaultConfig {
        transient_per_io: 0.005,
        latent_per_read: 0.001,
        ..FaultConfig::NONE
    };
    // Crashes land inside the run: a cell works through its streams in
    // roughly 50 simulated ms per job.
    let horizon = SimDuration::from_millis(50 * (jobs * STREAMS_PER_CELL) as u64);
    cfg.chaos = Some(ChaosSchedule::generate(
        ChaosConfig {
            machine_mtbf: Some(SimDuration::from_nanos(horizon.as_nanos() / 2)),
            machine_restart: SimDuration::from_nanos(horizon.as_nanos() / 50),
            ..ChaosConfig::NONE
        },
        seeds.fault,
        CELLS as u32,
        4,
        horizon,
    ));
    cfg
}

/// How a pass runs the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `run_parallel(cfg, 1)`.
    OneShard,
    /// `run_parallel(cfg, 2)`.
    TwoShards,
    /// One shard with the recorder ring and attribution on.
    Traced,
}

impl Mode {
    /// The runs of one pass, in order. The two-shard mode runs three
    /// times: whether the OS spreads its two threads over both cores or
    /// stacks them on one differs from run to run by a third of the
    /// time, so it needs the samples the other modes can do without.
    pub const PASS: [Mode; 5] = [
        Mode::OneShard,
        Mode::TwoShards,
        Mode::TwoShards,
        Mode::TwoShards,
        Mode::Traced,
    ];

    /// Operation kind of this mode.
    pub fn kind(self) -> &'static str {
        match self {
            Mode::OneShard => "cells_1shard",
            Mode::TwoShards => "cells_2shard",
            Mode::Traced => "cells_traced",
        }
    }
}

/// splitmix64 as `sim::parallel` mixes cell plan seeds, so the direct
/// variant below draws the same faults and does the same device work.
fn cell_seed(seed: u64, cell: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cell.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Iterations of the synthetic `EventQueue` / `Recorder` / ledger
/// probes are fixed work too: a hundredth at the smoke test's scale.
fn probe_divisor(scale: Scale) -> u64 {
    match scale {
        Scale::Full | Scale::Probe => 1,
        Scale::Tiny => 100,
    }
}

/// The cells section of a run.
#[derive(Debug)]
pub struct Cells {
    scale: Scale,
    config: SimConfig,
    pinned: Pinned,
    /// Reference seconds of every run of each mode, indexed by `Mode as usize`.
    pub mode_secs: [Vec<f64>; 3],
    /// Keep the latest traced-mode report for [`Cells::layer_metrics`]
    /// (traced runs only: its recorder is the section's largest
    /// allocation and would otherwise count against `peak_rss_mb`).
    pub keep_traced: bool,
    last_traced: Option<ParReport>,
    /// Total Joules and makespan seconds of the latest pass.
    pub simout: (f64, f64),
}

impl Cells {
    /// Generate the scenario at `scale`.
    pub fn setup(scale: Scale, seeds: Seeds) -> Cells {
        let config = scenario(scale, seeds);
        Cells {
            scale,
            config,
            pinned: Pinned::default(),
            mode_secs: Default::default(),
            keep_traced: false,
            last_traced: None,
            simout: (0.0, 0.0),
        }
    }

    /// Jobs one mode submits: the work `sim_jobs_per_s*` divide by time.
    pub fn jobs(&self) -> usize {
        self.config
            .cells
            .iter()
            .flat_map(|c| &c.streams)
            .map(Vec::len)
            .sum()
    }

    /// Run [`Mode::PASS`]; returns the reference seconds of its runs
    /// together.
    pub fn pass(&mut self, h: &mut Harness) -> f64 {
        self.pinned.start_pass();
        let jobs = self.jobs();
        let mut ledgers: Vec<Vec<u64>> = Vec::new();
        let mut pass_secs = 0.0;
        for mode in Mode::PASS {
            // The report leaves the timed interval alive, so releasing
            // it (the traced mode's rings above all) is not billed.
            let (report, secs) =
                h.timed(|h| h.op(mode.kind(), |h| self.run_mode(h, mode, jobs, &mut ledgers)));
            self.mode_secs[mode as usize].push(secs);
            pass_secs += secs;
            if mode == Mode::Traced && self.keep_traced {
                self.last_traced = report;
            }
        }
        h.check(ledgers.windows(2).all(|w| w[0] == w[1]), || {
            "cells: ledgers differ between the 1-shard, 2-shard and traced runs".to_string()
        });
        pass_secs
    }

    /// One mode of a pass: run, check, pin. Pushes the ledger's bits
    /// for the cross-mode comparison.
    fn run_mode(
        &mut self,
        h: &mut Harness,
        mode: Mode,
        jobs: usize,
        ledgers: &mut Vec<Vec<u64>>,
    ) -> Option<ParReport> {
        // One copy of the jobs serves all three modes: the traced mode
        // differs in two switches only.
        let traced = mode == Mode::Traced;
        self.config.trace_capacity = traced.then_some(TRACE_CAPACITY);
        self.config.attribution = traced;
        let shards = if mode == Mode::TwoShards { 2 } else { 1 };
        let r = match h.span("sim.run_parallel", |_| run_parallel(&self.config, shards)) {
            Ok(r) => r,
            Err(e) => {
                h.check(false, || format!("{}: {e}", mode.kind()));
                return None;
            }
        };
        let ledger = &r.report.ledger;
        let total = ledger.total().joules();
        h.check(ledger_conserved(ledger), || {
            conservation_failure(mode.kind())
        });
        h.check(r.outcome.results.len() == jobs, || {
            format!(
                "{}: {} of {jobs} jobs finished",
                mode.kind(),
                r.outcome.results.len()
            )
        });
        if let Some(table) = &r.report.attribution {
            h.check(close(table.sum().joules(), total, 1e-9), || {
                format!(
                    "attribution rows sum to {} J, the ledger to {total} J",
                    table.sum().joules()
                )
            });
        }
        let mut values = vec![
            total,
            r.outcome.makespan.as_nanos() as f64,
            r.outcome.total_retries as f64,
        ];
        values.extend(ledger.iter().map(|(_, e)| e.joules()));
        self.pinned.pin(h, mode.kind(), &values);
        ledgers.push(values.iter().map(|v| v.to_bits()).collect());
        self.simout = (
            total,
            r.outcome
                .makespan
                .duration_since(SimInstant::EPOCH)
                .as_secs_f64(),
        );
        Some(r)
    }

    /// See [`Pinned::corrupt`].
    pub fn corrupt_reference(&mut self) {
        self.pinned.corrupt();
    }

    /// The 16 cells through plain `Simulation` + `run_streams`: no
    /// horizon protocol, no commit, no crash billing. Returns build,
    /// drive and settle reference seconds.
    fn direct(&self, h: &mut Harness) -> [f64; 3] {
        // The three parts interleave cell by cell, so one pair of
        // yardstick readings brackets the lot.
        let (secs, factor) = h.calibrated(|h| self.direct_wall(h));
        secs.map(|s| s * factor)
    }

    fn direct_wall(&self, h: &mut Harness) -> [f64; 3] {
        let cfg = &self.config;
        let mut secs = [0.0f64; 3];
        for (i, spec) in cfg.cells.iter().enumerate() {
            let ((mut sim, cpu), t) = wall(|| {
                let mut sim = Simulation::new();
                let cpu = sim.add_cpu(spec.cpu, spec.cpu_power);
                if spec.disks > 0 {
                    let ids = sim.add_disks(spec.disks, spec.disk_perf, spec.disk_power);
                    if let Some(level) = spec.raid {
                        sim.make_array(level, ids).expect("cell geometry is valid");
                    }
                }
                if spec.ssds > 0 {
                    sim.add_ssds(spec.ssds, spec.ssd_perf, spec.ssd_power);
                }
                sim.set_fault_plan(FaultPlan::new(cfg.fault, cell_seed(cfg.seed, i as u64)));
                (sim, cpu)
            });
            secs[0] += t;
            let (out, t) = wall(|| run_streams_with(&mut sim, cpu, &spec.streams, &cfg.policy));
            secs[1] += t;
            match out {
                Ok(out) => {
                    let (report, t) = wall(|| sim.finish(out.makespan));
                    secs[2] += t;
                    std::hint::black_box(report.total_energy());
                }
                Err(e) => h.check(false, || format!("direct cell {i}: {e}")),
            }
        }
        secs
    }

    /// The `sim.*`, `power.*`, `trace.*`, `metrics.*` and `par.*` layer
    /// metrics (all but `par.runner_speedup`, which the sweep owns).
    pub fn layer_metrics(&self, h: &mut Harness, out: &mut BTreeMap<String, f64>) {
        let [t1, t2, t_traced] = [0, 1, 2].map(|i| trimmed_mean(&self.mode_secs[i]));
        let direct: Vec<[f64; 3]> = (0..3).map(|_| self.direct(h)).collect();
        let part = |i: usize| median(&direct.iter().map(|d| d[i]).collect::<Vec<_>>());
        let t_direct = median(&direct.iter().map(|d| d.iter().sum()).collect::<Vec<f64>>());
        out.insert("sim.build_ms".into(), part(0) * 1e3);
        out.insert("sim.run_streams_ms".into(), part(1) * 1e3);
        out.insert("sim.finish_ms".into(), part(2) * 1e3);
        out.insert("sim.cells_direct_ms".into(), t_direct * 1e3);
        out.insert(
            "par.protocol_overhead_pct".into(),
            (t1 / t_direct - 1.0) * 100.0,
        );
        out.insert("par.shard_efficiency".into(), t1 / (2.0 * t2));
        out.insert("trace.overhead_pct".into(), (t_traced / t1 - 1.0) * 100.0);

        let Some(traced) = &self.last_traced else {
            return h.check(false, || "cells: no traced run to read".to_string());
        };
        let report = &traced.report;
        let requests: u64 = report
            .disk_stats
            .iter()
            .chain(&report.ssd_stats)
            .chain(&report.cpu_stats)
            .map(|s| s.requests)
            .sum();
        out.insert("sim.device_requests".into(), requests as f64);
        out.insert(
            "sim.host_ns_per_request".into(),
            t1 * 1e9 / requests.max(1) as f64,
        );
        out.insert(
            "sim.eventq_mops_per_s".into(),
            eventq_mops_per_s(h, requests),
        );
        out.insert("simout.cells_total_joules".into(), self.simout.0);
        out.insert("simout.cells_makespan_s".into(), self.simout.1);

        let Some(rec) = &report.trace else {
            return h.check(false, || {
                "cells: the traced run kept no recorder".to_string()
            });
        };
        for (metric, counter) in [
            ("io_requests", "io.requests"),
            ("cpu_requests", "cpu.requests"),
            ("driver_jobs", "driver.jobs"),
            ("io_retries", "io.retries"),
            ("fault_io_faults", "fault.io_faults"),
        ] {
            out.insert(
                format!("sim.count.{metric}"),
                rec.metrics().counter(counter) as f64,
            );
        }
        out.insert("trace.events_recorded".into(), rec.len() as f64);
        out.insert("trace.dropped".into(), rec.dropped() as f64);
        let (jsonl, secs) = h.timed(|_| grail_trace::to_jsonl(rec));
        h.check(jsonl.lines().count() >= rec.len(), || {
            "trace export lost events".to_string()
        });
        out.insert("trace.export_jsonl_ms".into(), secs * 1e3);
        let (prom, secs) = h.timed(|_| grail_metrics::to_prometheus(rec.metrics()));
        std::hint::black_box(prom.len());
        out.insert("metrics.prometheus_ms".into(), secs * 1e3);
        let div = probe_divisor(self.scale);
        out.insert(
            "trace.record_mevents_per_s".into(),
            record_mevents_per_s(h, 400_000 / div),
        );
        out.insert(
            "power.ledger_mcharges_per_s".into(),
            ledger_mcharges_per_s(h, report.ledger.component_count(), 2_000_000 / div),
        );
        out.insert(
            "power.ledger_merge_us".into(),
            ledger_merge_us(h, &report.ledger, 2_000 / div),
        );
    }
}

/// `EventQueue` push/pop rate under the classic hold model: a queue
/// kept at one entry per stream, `n` pops each followed by a push a
/// pseudo-random step later.
fn eventq_mops_per_s(h: &mut Harness, n: u64) -> f64 {
    let mut q: EventQueue<usize> = EventQueue::new();
    let depth = CELLS * STREAMS_PER_CELL;
    for i in 0..depth {
        q.push(SimInstant::from_nanos(i as u64), i);
    }
    let mut step = 0x9E37_79B9u64;
    let (_, secs) = h.timed(|_| {
        for _ in 0..n {
            let (at, who) = q.pop().expect("the queue holds `depth` entries");
            step = step.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            q.push(
                SimInstant::from_nanos(at.as_nanos() + 1 + (step >> 44)),
                who,
            );
        }
    });
    std::hint::black_box(q.len());
    2.0 * n as f64 / secs / 1e6
}

/// Events per second a `Recorder` ring of the traced mode's capacity
/// takes (the ring wraps, so eviction is included).
fn record_mevents_per_s(h: &mut Harness, events: u64) -> f64 {
    let mut rec = Recorder::new(TRACE_CAPACITY);
    let (_, secs) = h.timed(|_| {
        for i in 0..events {
            rec.record(
                TraceEvent::instant(
                    TraceTime::from_nanos(i),
                    Category::Io,
                    "io.request",
                    Track::Device {
                        kind: "disk",
                        index: (i % 64) as u32,
                    },
                )
                .arg("bytes", i),
            );
        }
    });
    std::hint::black_box(rec.len());
    events as f64 / secs / 1e6
}

/// `EnergyLedger::charge` rate, cycling over as many components as the
/// cells' merged ledger holds.
fn ledger_mcharges_per_s(h: &mut Harness, components: usize, charges: u64) -> f64 {
    let ids: Vec<ComponentId> = (0..components.max(1) as u32)
        .map(|i| ComponentId::new(ComponentKind::Disk, i))
        .collect();
    let mut ledger = EnergyLedger::new();
    let (_, secs) = h.timed(|_| {
        for i in 0..charges {
            ledger.charge(ids[i as usize % ids.len()], Joules::new(1e-3));
        }
    });
    std::hint::black_box(ledger.total());
    charges as f64 / secs / 1e6
}

/// Microseconds to merge the cells' ledger into another of its shape.
fn ledger_merge_us(h: &mut Harness, ledger: &EnergyLedger, merges: u64) -> f64 {
    let mut acc = ledger.clone();
    let (_, secs) = h.timed(|_| {
        for _ in 0..merges {
            acc.merge(ledger);
        }
    });
    std::hint::black_box(acc.total());
    secs * 1e6 / merges as f64
}
