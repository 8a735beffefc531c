//! Model of the chaos failover and admission pipeline.
//!
//! `grail_scheduler::chaos` reacts to crashes, restarts, and breaker
//! timers by re-planning: admission control picks how many replicas
//! and how much demand to serve, placement packs the served load under
//! the one-replica-per-domain cap, and the circuit breaker quarantines
//! flapping machines. All of that is one transition relation,
//! [`FleetState::apply`], which `run_chaos` drives from its event queue.
//! This model drives the same function: its state *is* a [`FleetState`]
//! plus what the event loop keeps beside it (the pending breaker timers
//! and a clock), every action is one `apply`, and enabled actions are
//! read off the real state. It exhausts every order of a bounded storm —
//! crashes (of quarantined machines too), restarts, timer firings, and
//! demand ticks.
//!
//! The instance keeps every quantity integral (capacities 100, demand
//! 150) so all float arithmetic is exact and the conservation law can
//! be checked bit-for-bit.
//!
//! Checked obligations:
//!
//! * **conservation** — `served + shed ≡ offered` exactly, at every
//!   reachable state (the run-level `served + shed + failed ≡ offered`
//!   law with the stranded-work term, which this abstraction omits,
//!   at zero);
//! * **breaker saturation** — the quarantine never shrinks as trips
//!   accumulate and stays finite at every reachable trip count;
//! * **breaker discipline** — a machine whose latest quarantine has not
//!   been served carries no load, whatever older timers fire meanwhile;
//! * **placement discipline** — no fault domain ever carries more than
//!   one replica's worth of load, machine loads respect capacity, and
//!   when capacity allows, the full `served · r_eff` is placed.

use crate::Model;
use grail_power::units::{SimInstant, Watts};
use grail_scheduler::chaos::{max_replica_rate, ChaosPolicy, FleetEvent, FleetState};
use grail_scheduler::{Machine, PlacementPolicy};
use grail_sim::fault::ChaosEventKind;

/// A reachable configuration of the storm.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosState {
    /// The production state machine.
    fleet: FleetState,
    /// Model clock: the deadline of the last breaker timer that fired.
    /// Crashes, restarts and ticks take no model time.
    now: SimInstant,
    /// Pending breaker timers `(deadline, machine)` in firing order —
    /// the event queue's share of the state. A timer outlives a crash
    /// of its machine, which is how a stale one comes to fire.
    timers: Vec<(SimInstant, usize)>,
    crashes: u32,
    ticks: u32,
    // Accumulators for the conservation law.
    offered: f64,
    served: f64,
    shed: f64,
}

/// One storm step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Machine `i` crashes (budgeted), quarantined or not.
    Crash(usize),
    /// Machine `i` restarts; the breaker decides up vs quarantined.
    Restart(usize),
    /// The earliest pending breaker timer fires; it was set for machine
    /// `i`, which rejoins if that was its latest quarantine.
    Rejoin(usize),
    /// One demand interval elapses under the current plan.
    Tick,
}

/// The chaos pipeline model over a fixed fleet and storm budget.
pub struct ChaosModel {
    fleet: Vec<Machine>,
    n_domains: usize,
    demand: f64,
    policy: ChaosPolicy,
    max_crashes: u32,
    max_ticks: u32,
}

impl ChaosModel {
    /// The reference storm: four 100-work/s machines across two fault
    /// domains, demand 150 at two replicas, up to three crashes (which
    /// may all hit one machine: quarantined, then re-quarantined under
    /// its still-pending timer) and three demand ticks.
    pub fn reference() -> Self {
        let fleet = vec![
            Machine::new("m0", 100.0, Watts::new(100.0), Watts::new(200.0)).with_domain(0),
            Machine::new("m1", 100.0, Watts::new(100.0), Watts::new(200.0)).with_domain(0),
            Machine::new("m2", 100.0, Watts::new(100.0), Watts::new(200.0)).with_domain(1),
            Machine::new("m3", 100.0, Watts::new(100.0), Watts::new(200.0)).with_domain(1),
        ];
        ChaosModel {
            fleet,
            n_domains: 2,
            demand: 150.0,
            policy: ChaosPolicy {
                placement: PlacementPolicy::Consolidate,
                replicas: 2,
                ..ChaosPolicy::default()
            },
            max_crashes: 3,
            max_ticks: 3,
        }
    }

    /// Capacity of each machine that may take load, zero for the rest.
    fn live_caps(&self, s: &ChaosState) -> Vec<f64> {
        (0..self.fleet.len())
            .map(|i| {
                if s.fleet.available(&self.fleet, i, s.now) {
                    self.fleet[i].capacity
                } else {
                    0.0
                }
            })
            .collect()
    }
}

impl Model for ChaosModel {
    type State = ChaosState;
    type Action = ChaosAction;

    fn name(&self) -> &'static str {
        "chaos-failover"
    }

    fn initial(&self) -> ChaosState {
        ChaosState {
            fleet: FleetState::new(&self.fleet, self.n_domains, &self.policy, self.demand),
            now: SimInstant::EPOCH,
            timers: Vec::new(),
            crashes: 0,
            ticks: 0,
            offered: 0.0,
            served: 0.0,
            shed: 0.0,
        }
    }

    fn actions(&self, s: &ChaosState) -> Vec<ChaosAction> {
        let mut out = Vec::new();
        for i in 0..self.fleet.len() {
            if !s.fleet.machine_up(i) {
                out.push(ChaosAction::Restart(i));
            } else if s.crashes < self.max_crashes {
                out.push(ChaosAction::Crash(i));
            }
        }
        if let Some(&(_, i)) = s.timers.first() {
            out.push(ChaosAction::Rejoin(i));
        }
        if s.ticks < self.max_ticks {
            out.push(ChaosAction::Tick);
        }
        out
    }

    fn step(&self, s: &ChaosState, a: &ChaosAction) -> ChaosState {
        let mut t = s.clone();
        let apply = |t: &mut ChaosState, event| {
            let fx = t
                .fleet
                .apply(&self.fleet, &self.policy, self.demand, t.now, event);
            if let Some((m, hold)) = fx.quarantine {
                // What the event loop does with the effect: one timer.
                let due = t.now + hold;
                let slot = t.timers.partition_point(|&(d, _)| d <= due);
                t.timers.insert(slot, (due, m));
            }
        };
        match *a {
            ChaosAction::Crash(i) => {
                t.crashes += 1;
                let machine = i as u32;
                apply(
                    &mut t,
                    FleetEvent::Chaos(ChaosEventKind::MachineCrash { machine }),
                );
            }
            ChaosAction::Restart(i) => {
                let machine = i as u32;
                apply(
                    &mut t,
                    FleetEvent::Chaos(ChaosEventKind::MachineUp { machine }),
                );
            }
            ChaosAction::Rejoin(_) => {
                let (due, _) = t.timers.remove(0);
                t.now = t.now.max(due);
                apply(&mut t, FleetEvent::Wake);
            }
            ChaosAction::Tick => {
                t.ticks += 1;
                t.offered += self.demand;
                t.served += t.fleet.plan().served_rate;
                t.shed += t.fleet.plan().shed_rate;
            }
        }
        t
    }

    fn invariant(&self, s: &ChaosState) -> Result<(), String> {
        // Conservation, bit-exact: the instance is integral by
        // construction, so float error is not a tolerance question.
        let balance = s.served + s.shed;
        if balance.to_bits() != s.offered.to_bits() {
            return Err(format!(
                "conservation broken: served {} + shed {} != offered {}",
                s.served, s.shed, s.offered
            ));
        }
        // Breaker saturation: quarantine is monotone in trips and
        // finite at (and one past) every reachable trip count.
        for i in 0..self.fleet.len() {
            let trips = s.fleet.trips(i);
            let q0 = self.policy.breaker.quarantine(trips);
            let q1 = self.policy.breaker.quarantine(trips + 1);
            if q1 < q0 {
                return Err(format!(
                    "breaker quarantine shrank for machine {i}: {q0:?} at {trips} trips, \
                     {q1:?} at {}",
                    trips + 1
                ));
            }
        }
        // `encode` leaves out the state's private last-crash instants.
        // That merges nothing only while every crash lands inside the
        // reset window of the one before, so trips always increment:
        // hold the model clock (900 s in the reference storm) to it.
        let elapsed = s.now.duration_since(SimInstant::EPOCH);
        if elapsed > self.policy.breaker.reset_window {
            return Err(format!(
                "model clock {elapsed} passed the breaker reset window: the fingerprint \
                 must now encode each machine's last crash"
            ));
        }
        let plan = s.fleet.plan();
        // Breaker discipline: a machine's timers fire in the order they
        // were set, so any still pending means its latest quarantine has
        // not been served — it must not carry load.
        for &(due, i) in &s.timers {
            let load = plan.placement.loads[i];
            if load > 0.0 {
                return Err(format!(
                    "machine {i} carries load {load} with a quarantine pending until {due:?} — \
                     an earlier breaker timer released it"
                ));
            }
        }
        // Placement discipline over the real Placement.
        let live_caps = self.live_caps(s);
        let cap_total: f64 = live_caps.iter().sum();
        let mut dom_used = vec![0.0; self.n_domains];
        let mut dom_caps = vec![0.0; self.n_domains];
        let mut placed = 0.0;
        for (i, (&load, m)) in plan.placement.loads.iter().zip(&self.fleet).enumerate() {
            if load < 0.0 || load > m.capacity + 1e-9 {
                return Err(format!(
                    "machine {i} load {load} outside [0, {}]",
                    m.capacity
                ));
            }
            if load > 0.0 && live_caps[i] == 0.0 {
                return Err(format!("machine {i} is not up but carries load {load}"));
            }
            if load > 0.0 && !plan.placement.powered[i] {
                return Err(format!("machine {i} carries load {load} while powered off"));
            }
            dom_used[m.domain as usize] += load;
            dom_caps[m.domain as usize] += live_caps[i];
            placed += load;
        }
        for (d, &used) in dom_used.iter().enumerate() {
            if used > plan.served_rate + 1e-9 {
                return Err(format!(
                    "domain {d} carries {used} > one replica's worth {} — a single \
                     domain loss could take every copy",
                    plan.served_rate
                ));
            }
        }
        let want = plan.served_rate * plan.r_eff as f64;
        if want <= cap_total + 1e-9 && (placed - want).abs() > 1e-9 {
            return Err(format!(
                "placement left load behind with capacity to spare: placed {placed}, \
                 wanted {want}, capacity {cap_total}"
            ));
        }
        // Admission sanity: served never exceeds what one replica of
        // the live fleet supports.
        if plan.served_rate > max_replica_rate(&dom_caps, 1) + 1e-9 {
            return Err(format!(
                "admission served {} beyond single-replica capacity",
                plan.served_rate
            ));
        }
        Ok(())
    }

    fn terminal(&self, s: &ChaosState) -> Result<(), String> {
        // The only deadlock-free exits: storm budget exhausted with the
        // whole fleet healthy and every offered unit accounted for.
        if s.ticks != self.max_ticks {
            return Err(format!(
                "stalled with {} of {} ticks",
                s.ticks, self.max_ticks
            ));
        }
        if (0..self.fleet.len()).any(|i| !s.fleet.available(&self.fleet, i, s.now)) {
            return Err("stalled with a machine not back up".to_string());
        }
        let expected = self.demand * self.max_ticks as f64;
        if s.offered.to_bits() != expected.to_bits() {
            return Err(format!(
                "offered {} != {} at end of storm",
                s.offered, expected
            ));
        }
        Ok(())
    }

    fn encode(&self, s: &ChaosState, out: &mut Vec<u8>) {
        for i in 0..self.fleet.len() {
            out.push(s.fleet.machine_up(i) as u8);
            out.extend_from_slice(&s.fleet.quarantined_until(i).as_nanos().to_le_bytes());
            out.push(s.fleet.trips(i) as u8);
        }
        out.push(s.crashes as u8);
        out.push(s.ticks as u8);
        out.extend_from_slice(&s.now.as_nanos().to_le_bytes());
        out.push(s.timers.len() as u8);
        for &(due, i) in &s.timers {
            out.extend_from_slice(&due.as_nanos().to_le_bytes());
            out.push(i as u8);
        }
        out.extend_from_slice(&s.offered.to_bits().to_le_bytes());
        out.extend_from_slice(&s.served.to_bits().to_le_bytes());
        out.extend_from_slice(&s.shed.to_bits().to_le_bytes());
        // The plan is a pure function of health, but encoding it keeps
        // the fingerprint honest if that ever stops being true. The
        // last-crash instants are not encoded: `invariant` keeps the
        // clock inside the reset window, where they decide nothing.
        let plan = s.fleet.plan();
        out.extend_from_slice(&plan.served_rate.to_bits().to_le_bytes());
        out.extend_from_slice(&plan.shed_rate.to_bits().to_le_bytes());
        out.push(plan.r_eff as u8);
    }

    fn describe_action(&self, a: &ChaosAction) -> String {
        match *a {
            ChaosAction::Crash(i) => format!("crash {}", self.fleet[i].name),
            ChaosAction::Restart(i) => format!("restart {}", self.fleet[i].name),
            ChaosAction::Rejoin(i) => format!("breaker timer for {} fires", self.fleet[i].name),
            ChaosAction::Tick => "tick: one demand interval".to_string(),
        }
    }

    fn describe_state(&self, s: &ChaosState) -> String {
        let health: Vec<&str> = (0..self.fleet.len())
            .map(
                |i| match (s.fleet.machine_up(i), s.fleet.quarantined_until(i) > s.now) {
                    (false, _) => "down",
                    (true, true) => "quar",
                    (true, false) => "up",
                },
            )
            .collect();
        let timers: Vec<String> = s
            .timers
            .iter()
            .map(|&(due, i)| format!("{}@{}s", self.fleet[i].name, due.as_secs_f64()))
            .collect();
        let trips: Vec<u32> = (0..self.fleet.len()).map(|i| s.fleet.trips(i)).collect();
        let plan = s.fleet.plan();
        format!(
            "t={}s health={health:?} trips={trips:?} timers={timers:?} ticks={} r_eff={} \
             served_rate={} shed_rate={} offered={} served={} shed={}",
            s.now.as_secs_f64(),
            s.ticks,
            plan.r_eff,
            plan.served_rate,
            plan.shed_rate,
            s.offered,
            s.served,
            s.shed
        )
    }
}
