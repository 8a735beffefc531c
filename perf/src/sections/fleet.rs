//! The fluid fleet model at fleet size.
//!
//! A `chaos_fleet` of 16 domains × 32 machines driven through
//! hurricane-level `ChaosSchedule`s, at 25 % and 60 % of fleet capacity
//! under each of the four resilience policies: 8 `run_chaos`
//! operations per pass with tracing off, each over a schedule of its
//! own so that one seed's luck (a domain outage more or less) does not
//! decide the cost per event. Placement, admission, the
//! circuit breaker and re-dispatch do all the work; storage and the
//! query engine none. This is the number that must not move when the
//! three fleet models are unified.

use super::sweep::{chaos_config, chaos_policy};
use super::Scale;
use crate::harness::{close, Harness, Pinned};
use crate::replay::{conservation_failure, ledger_conserved};
use crate::seeds::Seeds;
use crate::stats::median;
use grail_power::units::SimDuration;
use grail_scheduler::chaos::run_chaos;
use grail_scheduler::cluster::{chaos_fleet, place, Machine, PlacementPolicy};
use grail_sim::{ChaosConfig, ChaosSchedule};
use grail_trace::{Recorder, Tracer};
use std::collections::BTreeMap;

/// Offered demand, as fractions of fleet capacity.
const DEMAND_FRACS: [f64; 2] = [0.25, 0.60];

/// `(domains, machines per domain, simulated horizon)` at each scale.
fn shape(scale: Scale) -> (u32, u32, SimDuration) {
    match scale {
        Scale::Full => (16, 32, SimDuration::from_secs(86_400)),
        Scale::Probe => (8, 16, SimDuration::from_secs(2 * 86_400)),
        Scale::Tiny => (2, 3, SimDuration::from_secs(21_600)),
    }
}

/// The fleet section of a run.
#[derive(Debug)]
pub struct Fleet {
    fleet: Vec<Machine>,
    /// One schedule per operation of a pass, in operation order.
    schedules: Vec<ChaosSchedule>,
    capacity: f64,
    domains: u32,
    seed: u64,
    pinned: Pinned,
    /// `(availability, Joules, work served)` of each operation of the
    /// latest pass. The reports themselves are dropped at once: each
    /// carries a placement per event, megabytes the next operation's
    /// timing should not have to share the caches with.
    outcomes: Vec<(f64, f64, f64)>,
}

impl Fleet {
    /// Build the fleet and generate its chaos schedule at `scale`.
    pub fn setup(scale: Scale, seeds: Seeds) -> Fleet {
        let (domains, per_domain, horizon) = shape(scale);
        let fleet = chaos_fleet(domains, per_domain);
        let ops = DEMAND_FRACS.len() * crate::spec::CHAOS_POLICIES.len();
        let schedules = (0..ops as u64)
            .map(|op| {
                ChaosSchedule::generate(
                    chaos_config("hurricane"),
                    seeds.fault.wrapping_add(op),
                    fleet.len() as u32,
                    domains,
                    horizon,
                )
            })
            .collect();
        Fleet {
            capacity: fleet.iter().map(|m| m.capacity).sum(),
            fleet,
            schedules,
            domains,
            seed: seeds.fault,
            pinned: Pinned::default(),
            outcomes: Vec::new(),
        }
    }

    /// Schedule events one pass replays: the work `chaos_events_per_s`
    /// divides by time.
    pub fn events_per_pass(&self) -> usize {
        self.schedules.iter().map(|s| s.events().len()).sum()
    }

    /// Part of set-up: an eventless schedule must leave the fleet fully
    /// available and bill nothing to recovery.
    pub fn check_calm(&self, h: &mut Harness) {
        h.op("chaos_calm", |h| {
            let calm = ChaosSchedule::generate(
                ChaosConfig::NONE,
                self.seed,
                self.fleet.len() as u32,
                self.domains,
                self.schedules[0].horizon(),
            );
            let policy = chaos_policy("consolidate-r2");
            let demand = self.capacity * DEMAND_FRACS[0];
            match run_chaos(&self.fleet, &calm, demand, &policy, &mut Tracer::off()) {
                Ok(r) => h.check(
                    calm.is_empty()
                        && close(r.availability(), 1.0, 1e-12)
                        && r.recovery_energy().joules() == 0.0,
                    || format!("calm fleet availability is {}", r.availability()),
                ),
                Err(e) => h.check(false, || format!("calm fleet: {e}")),
            }
        });
    }

    /// Run the 8 operations once.
    pub fn pass(&mut self, h: &mut Harness) {
        self.pinned.start_pass();
        self.outcomes.clear();
        let mut schedules = self.schedules.iter();
        for frac in DEMAND_FRACS {
            for name in crate::spec::CHAOS_POLICIES {
                let policy = chaos_policy(name);
                let schedule = schedules.next().expect("one schedule per operation");
                h.op(name, |h| {
                    let run = h.span("scheduler.run_chaos", |_| {
                        run_chaos(
                            &self.fleet,
                            schedule,
                            self.capacity * frac,
                            &policy,
                            &mut Tracer::off(),
                        )
                    });
                    let r = match run {
                        Ok(r) => r,
                        Err(e) => return h.check(false, || format!("{name} at {frac}: {e}")),
                    };
                    let energy = r.total_energy().joules();
                    h.check(r.conservation_error() <= 1e-6 * r.offered.max(1.0), || {
                        format!(
                            "{name} at {frac}: served + shed + failed misses offered by {}",
                            r.conservation_error()
                        )
                    });
                    h.check(ledger_conserved(&r.ledger), || {
                        conservation_failure(&format!("{name} at {frac}"))
                    });
                    self.pinned.pin(
                        h,
                        name,
                        &[
                            energy,
                            r.served,
                            r.shed,
                            r.failed,
                            r.recovery_energy().joules(),
                            r.crashes as f64,
                            r.breaker_trips as f64,
                            r.cold_boots as f64,
                            r.redispatches as f64,
                            r.placements.len() as f64,
                        ],
                    );
                    self.outcomes.push((r.availability(), energy, r.served));
                });
            }
        }
    }

    /// See [`Pinned::corrupt`].
    pub fn corrupt_reference(&mut self) {
        self.pinned.corrupt();
    }

    /// The `scheduler.*` layer metrics and `sim.schedule_generate_ms`.
    pub fn layer_metrics(&self, h: &mut Harness, out: &mut BTreeMap<String, f64>) {
        for name in crate::spec::CHAOS_POLICIES {
            out.insert(
                format!("scheduler.run_chaos_ms.{name}"),
                median(&h.op_ms_of(name)),
            );
        }

        let demand = self.capacity * DEMAND_FRACS[0];
        for (policy, name) in [
            (PlacementPolicy::Spread, "spread"),
            (PlacementPolicy::Consolidate, "consolidate"),
        ] {
            const PLACEMENTS: u32 = 200;
            let (_, secs) = h.timed(|_| {
                for _ in 0..PLACEMENTS {
                    std::hint::black_box(place(&self.fleet, demand, policy).is_ok());
                }
            });
            out.insert(
                format!("scheduler.place_us.{name}"),
                secs * 1e6 / f64::from(PLACEMENTS),
            );
        }

        let (_, secs) = h.timed(|_| {
            ChaosSchedule::generate(
                *self.schedules[0].config(),
                self.seed,
                self.fleet.len() as u32,
                self.domains,
                self.schedules[0].horizon(),
            )
        });
        out.insert("sim.schedule_generate_ms".into(), secs * 1e3);

        // The metrics registry's tax on the chaos engine: the same run
        // with a metrics-only recorder against tracing off (the
        // watchdog budgets 1.05× for it). Its counters are the
        // scheduler's exact work counts.
        let policy = chaos_policy("consolidate-r2");
        let mut run = |tracer: &mut Tracer| {
            h.timed(|_| run_chaos(&self.fleet, &self.schedules[0], demand, &policy, tracer))
                .1
        };
        let off = median(&[0, 1, 2].map(|_| run(&mut Tracer::off())));
        let mut on = Vec::new();
        let mut registry = None;
        for _ in 0..3 {
            let mut tracer = Tracer::on(Recorder::metrics_only());
            on.push(run(&mut tracer));
            registry = tracer.take();
        }
        out.insert(
            "scheduler.metrics_overhead_pct".into(),
            (median(&on) / off - 1.0) * 100.0,
        );
        match &registry {
            Some(rec) => {
                for (metric, counter) in [
                    ("events", "chaos.events"),
                    ("placements", "chaos.placements"),
                    ("breaker_trips", "chaos.breaker_trips"),
                    ("cold_boots", "chaos.cold_boots"),
                    ("redispatches", "chaos.redispatches"),
                ] {
                    out.insert(
                        format!("scheduler.count.{metric}"),
                        rec.metrics().counter(counter) as f64,
                    );
                }
            }
            None => h.check(false, || {
                "the metrics-only tracer kept no registry".to_string()
            }),
        }

        let availability = self
            .outcomes
            .iter()
            .map(|o| o.0)
            .fold(f64::INFINITY, f64::min);
        let joules: f64 = self.outcomes.iter().map(|o| o.1).sum();
        let served: f64 = self.outcomes.iter().map(|o| o.2).sum();
        out.insert("scheduler.availability_min".into(), availability);
        out.insert("scheduler.joules_per_served".into(), joules / served);
    }
}
