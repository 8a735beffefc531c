//! `par_sim` — the intra-simulation parallelism benchmark.
//!
//! Runs ONE multi-cell simulation (`grail_sim::parallel`) at several
//! shard counts, asserts the ledger / JSONL trace / Prometheus scrape
//! are **byte-identical** across all of them, writes the per-shard
//! artifacts for CI to diff, and records a wall-clock ledger to
//! `BENCH_par_sim.json`:
//!
//! ```json
//! {"bench":"par_sim","shards":8,"wall_ms":…,"speedup_vs_1shard":…,
//!  "cells":24,"jobs":19200}
//! ```
//!
//! Unlike `grail-bench run` (which fans *independent simulations*
//! through `grail_par::Runner`), this binary shards a single
//! simulation's event loop: the conservative-lookahead protocol of
//! `grail_par::shard` driving `sim::parallel`'s cell partition.
//! Wall-clock numbers are the median of `--repeats` runs; everything
//! simulation-derived stays exact.
//!
//! Flags:
//! * `--shards LIST` — comma-separated shard counts (default `1,2,8`).
//! * `--repeats N` — repeats per shard count (default 3).
//! * `--cells N` / `--jobs N` — scenario size (cells, jobs per stream).
//! * `--out-dir DIR` — artifact directory (default `figures`).
//! * `--check-floor` — fail unless the speedup at the highest shard
//!   count clears the committed floor in
//!   `crates/bench/baselines/par_sim.json`.
//! * `--baseline PATH` — floor file to check against.

use grail_power::components::{CpuPowerProfile, DiskPowerProfile, SsdPowerProfile};
use grail_power::units::{Bytes, Cycles, Hertz, Watts};
use grail_sim::driver::{IoDemand, JobSpec, PhaseSpec};
use grail_sim::parallel::{run_parallel, CellSpec, SimConfig};
use grail_sim::{ArrayId, CpuPerfProfile, DiskPerfProfile, SsdPerfProfile, StorageTarget};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// One ledger line of `BENCH_par_sim.json`.
#[derive(Serialize)]
struct LedgerRecord {
    bench: String,
    shards: usize,
    wall_ms: f64,
    speedup_vs_1shard: f64,
    cells: usize,
    jobs: usize,
}

/// The committed wall-clock floor (`baselines/par_sim.json`): the
/// highest requested shard count must beat one shard by at least
/// `min_speedup`. Kept looser than the speedups we see locally so CI
/// runner jitter doesn't flake the gate; a real serialization bug
/// collapses speedup to ~1.0 and trips it cleanly.
#[derive(Deserialize)]
struct Floor {
    at_shards: usize,
    min_speedup: f64,
}

struct Args {
    shards: Vec<usize>,
    repeats: usize,
    cells: usize,
    jobs: usize,
    out_dir: PathBuf,
    check_floor: bool,
    baseline: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        shards: vec![1, 2, 8],
        repeats: 3,
        cells: 24,
        jobs: 400,
        out_dir: PathBuf::from("figures"),
        check_floor: false,
        baseline: PathBuf::from("crates/bench/baselines/par_sim.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shards" => {
                let v = it.next().ok_or("--shards needs a comma-separated list")?;
                args.shards = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("bad shard count {s:?}: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                if args.shards.is_empty() || args.shards.contains(&0) {
                    return Err("--shards needs positive counts".into());
                }
            }
            "--repeats" => {
                let v = it.next().ok_or("--repeats needs a value")?;
                args.repeats = v.parse().map_err(|e| format!("bad repeats {v:?}: {e}"))?;
            }
            "--cells" => {
                let v = it.next().ok_or("--cells needs a value")?;
                args.cells = v.parse().map_err(|e| format!("bad cells {v:?}: {e}"))?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                args.jobs = v.parse().map_err(|e| format!("bad jobs {v:?}: {e}"))?;
            }
            "--out-dir" => {
                let v = it.next().ok_or("--out-dir needs a directory")?;
                args.out_dir = PathBuf::from(v);
            }
            "--check-floor" => args.check_floor = true,
            "--baseline" => {
                let v = it.next().ok_or("--baseline needs a path")?;
                args.baseline = PathBuf::from(v);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// The benchmark scenario: `cells` identical DL785-slice cells (three
/// 15K spindles under RAID-0 plus a flash SSD), two closed-loop streams
/// each, `jobs` jobs per stream. Job sizes vary deterministically with
/// the cell/stream/job indices so cells don't stay in lockstep.
pub fn scenario(cells: usize, jobs: usize) -> SimConfig {
    let specs = (0..cells)
        .map(|c| {
            let streams = (0..2usize)
                .map(|s| {
                    (0..jobs)
                        .map(|j| {
                            let salt = (c * 31 + s * 7 + j) as u64;
                            let mib = 2 + salt % 7;
                            JobSpec::immediate(vec![PhaseSpec::overlapped(
                                Cycles::new(10_000_000 + (salt % 5) * 2_000_000),
                                2,
                                vec![IoDemand::seq_read(
                                    StorageTarget::Array(ArrayId(0)),
                                    Bytes::mib(mib),
                                )],
                            )])
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
            .with_raid(grail_sim::raid::RaidLevel::Raid0)
            .with_ssds(
                1,
                SsdPerfProfile::fig2_flash(),
                SsdPowerProfile::fig2_flash(),
            )
            .with_streams(streams)
        })
        .collect();
    let mut cfg = SimConfig::new(specs);
    cfg.base_power = Watts::new(300.0);
    cfg.seed = 9;
    cfg.trace_capacity = Some(8192);
    cfg.attribution = false;
    cfg
}

/// The three byte-compared artifacts of one run.
struct Artifacts {
    ledger: String,
    trace: String,
    prom: String,
}

fn artifacts(report: &grail_sim::ParReport) -> Artifacts {
    let rec = report
        .report
        .trace
        .as_ref()
        .expect("benchmark scenario traces");
    Artifacts {
        ledger: serde_json::to_string_pretty(&report.report.ledger).expect("serializable"),
        trace: grail_trace::to_jsonl(rec),
        prom: grail_metrics::to_prometheus(rec.metrics()),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("par_sim: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = scenario(args.cells, args.jobs);
    let total_jobs = args.cells * 2 * args.jobs;
    println!(
        "== PAR-SIM: {} cells, {} jobs, shards {:?}, repeats {}",
        args.cells, total_jobs, args.shards, args.repeats
    );

    std::fs::create_dir_all(&args.out_dir).expect("create out-dir");
    let mut reference: Option<Artifacts> = None;
    let mut ledger = Vec::new();
    let mut base_ms = 0.0f64;
    println!("{:<10} {:>12} {:>10}", "shards", "wall (ms)", "speedup");
    for &shards in &args.shards {
        let mut walls = Vec::with_capacity(args.repeats);
        let mut report = None;
        for _ in 0..args.repeats.max(1) {
            let t0 = Instant::now();
            let r = run_parallel(&cfg, shards).expect("scenario runs clean");
            walls.push(t0.elapsed().as_secs_f64() * 1e3);
            report = Some(r);
        }
        let report = report.expect("at least one repeat");
        let art = artifacts(&report);
        if let Some(prev) = &reference {
            assert_eq!(
                prev.ledger, art.ledger,
                "ledger must be byte-identical across shard counts"
            );
            assert_eq!(
                prev.trace, art.trace,
                "JSONL trace must be byte-identical across shard counts"
            );
            assert_eq!(
                prev.prom, art.prom,
                "Prometheus scrape must be byte-identical across shard counts"
            );
        }
        let write = |suffix: &str, body: &str| {
            let path = args
                .out_dir
                .join(format!("par_sim_shards{shards}.{suffix}"));
            std::fs::write(&path, body).expect("write artifact");
        };
        write("ledger.json", &art.ledger);
        write("trace.jsonl", &art.trace);
        write("prom", &art.prom);
        reference.get_or_insert(art);

        let wall_ms = median(walls);
        if ledger.is_empty() {
            base_ms = wall_ms;
        }
        let speedup = base_ms / wall_ms;
        println!("{shards:<10} {wall_ms:>12.1} {speedup:>9.2}x");
        ledger.push(LedgerRecord {
            bench: "par_sim".to_string(),
            shards,
            wall_ms,
            speedup_vs_1shard: speedup,
            cells: args.cells,
            jobs: total_jobs,
        });
    }
    println!("[artifacts byte-identical across shard counts]");

    let mut body = String::from("[\n");
    for (i, rec) in ledger.iter().enumerate() {
        body.push_str("  ");
        body.push_str(&serde_json::to_string(rec).expect("serializable"));
        body.push_str(if i + 1 < ledger.len() { ",\n" } else { "\n" });
    }
    body.push_str("]\n");
    std::fs::write("BENCH_par_sim.json", &body).expect("write BENCH_par_sim.json");
    println!("wrote BENCH_par_sim.json ({} shard counts)", ledger.len());

    if args.check_floor {
        let text = std::fs::read_to_string(&args.baseline)
            .unwrap_or_else(|e| panic!("read {}: {e}", args.baseline.display()));
        let floor: Floor = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("parse {}: {e}", args.baseline.display()));
        let Some(rec) = ledger.iter().find(|r| r.shards == floor.at_shards) else {
            eprintln!(
                "par_sim: floor names {} shards but that count was not run (--shards)",
                floor.at_shards
            );
            return ExitCode::FAILURE;
        };
        if rec.speedup_vs_1shard < floor.min_speedup {
            eprintln!(
                "par_sim: speedup floor violated: {:.2}x at {} shards < committed floor {:.2}x \
                 ({}); a serialization regression in sim::parallel or grail_par::shard?",
                rec.speedup_vs_1shard,
                floor.at_shards,
                floor.min_speedup,
                args.baseline.display()
            );
            return ExitCode::FAILURE;
        }
        println!(
            "speedup floor ok: {:.2}x >= {:.2}x at {} shards",
            rec.speedup_vs_1shard, floor.min_speedup, floor.at_shards
        );
    }
    ExitCode::SUCCESS
}
