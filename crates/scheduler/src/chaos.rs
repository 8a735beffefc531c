//! The cluster chaos engine: drive a fleet through a seeded
//! [`ChaosSchedule`] and bill what resilience costs.
//!
//! PR 1 made *device* failure a first-class deterministic input; this
//! module does the same for the *fleet*. A [`ChaosSchedule`] (generated
//! in `grail-sim::fault`) delivers correlated fault-domain outages,
//! machine crash/restart cycles, brownouts, and demand surges; the
//! engine responds with the policies the paper's Sec. 2.4 consolidation
//! story needs to survive them:
//!
//! * **Fault-domain-aware placement** — demand is served as `r` replicas
//!   and no domain ever holds more than one replica's worth of it, so a
//!   rack loss never takes out every copy.
//! * **Admission control with SLA-aware shedding** — when surviving
//!   capacity cannot carry the offered demand, redundancy degrades
//!   first (fewer replicas), then excess demand is *shed*: recorded in
//!   the report and the trace, never silently dropped.
//!   `served + shed + failed == offered` holds exactly.
//! * **Per-machine circuit breaker** — a machine that flaps (crashes
//!   repeatedly within the breaker's reset window) is quarantined after
//!   restart with exponentially growing holdoff before it may rejoin.
//! * **Hedged re-dispatch** — work stranded in flight on a crashed
//!   machine is re-issued via the existing [`RetryPolicy`] backoff, with
//!   a hedge fraction of duplicate issue; the replay energy (and every
//!   cold boot) is re-attributed to [`ComponentKind::Recovery`], so the
//!   wall-socket price of resilience is a visible ledger line.
//!
//! Everything is a pure function of `(fleet, schedule, demand, policy)`:
//! same seed ⇒ byte-identical placements, ledger, and trace.

use crate::cluster::{
    by_peak_efficiency, domain_count, ClusterError, Machine, Placement, PlacementPolicy,
};
use crate::observe;
use grail_power::units::{Joules, SimDuration, SimInstant, Watts};
use grail_power::{ComponentId, ComponentKind, EnergyLedger};
use grail_sim::driver::RetryPolicy;
use grail_sim::event::EventQueue;
use grail_sim::fault::{ChaosEventKind, ChaosSchedule};
use grail_trace::Tracer;
use std::fmt;

/// The per-machine circuit breaker: how long a flapping machine is
/// quarantined after each restart before it may take load again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Quarantine after the second crash inside the reset window; each
    /// further crash multiplies it.
    pub base_quarantine: SimDuration,
    /// Quarantine growth factor per additional crash.
    pub multiplier: u32,
    /// Crashes further apart than this reset the trip counter — the
    /// machine is considered healthy again.
    pub reset_window: SimDuration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            base_quarantine: SimDuration::from_secs(300),
            multiplier: 2,
            reset_window: SimDuration::from_secs(4 * 3600),
        }
    }
}

impl BreakerPolicy {
    /// Quarantine after the `trips`-th crash inside the reset window:
    /// zero for the first (an isolated crash rejoins right after
    /// restart), then `base · multiplier^(trips-2)`, saturating — the
    /// same overflow discipline as [`RetryPolicy::backoff`].
    pub fn quarantine(&self, trips: u32) -> SimDuration {
        if trips <= 1 {
            return SimDuration::ZERO;
        }
        let exp = (trips - 2).min(16);
        self.base_quarantine
            .saturating_mul((self.multiplier as u64).saturating_pow(exp))
    }
}

/// How the fleet responds to chaos.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPolicy {
    /// How served demand is packed onto the available machines.
    pub placement: PlacementPolicy,
    /// Target replica count: the demand is served `replicas` times, each
    /// copy in a different fault domain (degraded when fewer live
    /// domains or less capacity remain).
    pub replicas: u32,
    /// The per-machine circuit breaker.
    pub breaker: BreakerPolicy,
    /// Backoff schedule for re-dispatching stranded work.
    pub retry: RetryPolicy,
    /// How much in-flight work a crash strands: the crashed machine's
    /// load integrated over this window is lost and must be re-issued.
    pub inflight_window: SimDuration,
    /// Fraction of duplicate (hedged) issue on every re-dispatch — the
    /// tail-taming overcommit, billed to Recovery like the rest.
    pub hedge_frac: f64,
}

impl Default for ChaosPolicy {
    fn default() -> Self {
        ChaosPolicy {
            placement: PlacementPolicy::Consolidate,
            replicas: 2,
            breaker: BreakerPolicy::default(),
            retry: RetryPolicy::default(),
            inflight_window: SimDuration::from_secs(30),
            hedge_frac: 0.1,
        }
    }
}

/// One placement decision in the run, recorded every time the engine
/// reacts to an event (and once at the start).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementChange {
    /// When the decision took effect.
    pub at: SimInstant,
    /// Work/s assigned per machine (fleet order).
    pub loads: Vec<f64>,
    /// Number of powered machines.
    pub powered: u32,
    /// Demand rate served from here on (one logical copy).
    pub served_rate: f64,
    /// Demand rate shed from here on.
    pub shed_rate: f64,
    /// Effective replica count from here on.
    pub replicas: u32,
}

/// Every placement decision of a run, in order, each stored as the
/// `(machine, load)` pairs it changed (the first one whole): a decision
/// moves a few of the fleet's loads, so the report keeps those, not a
/// copy of the fleet per event. [`Placements::iter`] yields the full
/// [`PlacementChange`]s, and `{:?}` prints exactly that list.
#[derive(Clone, PartialEq, Default)]
pub struct Placements {
    decisions: Vec<Decision>,
    /// The pairs of every decision, in order; `Decision::end` splits them.
    changes: Vec<(u32, f64)>,
}

/// A [`PlacementChange`] without its loads.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Decision {
    at: SimInstant,
    powered: u32,
    served_rate: f64,
    shed_rate: f64,
    replicas: u32,
    /// Where this decision's pairs end in [`Placements::changes`].
    end: usize,
}

impl Placements {
    /// Number of decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether no decision was recorded.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Every decision in order, its loads rebuilt from the pairs.
    pub fn iter(&self) -> impl Iterator<Item = PlacementChange> + '_ {
        let mut loads: Vec<f64> = Vec::new();
        let mut start = 0;
        self.decisions.iter().map(move |d| {
            for &(i, load) in &self.changes[start..d.end] {
                let i = i as usize;
                if i >= loads.len() {
                    loads.resize(i + 1, 0.0);
                }
                loads[i] = load;
            }
            start = d.end;
            PlacementChange {
                at: d.at,
                loads: loads.clone(),
                powered: d.powered,
                served_rate: d.served_rate,
                shed_rate: d.shed_rate,
                replicas: d.replicas,
            }
        })
    }

    /// The `k`-th decision.
    pub fn get(&self, k: usize) -> Option<PlacementChange> {
        self.iter().nth(k)
    }

    /// The latest decision.
    pub fn last(&self) -> Option<PlacementChange> {
        self.iter().last()
    }

    /// Record the plan now in force: every machine's load the first
    /// time, then those of the machines in `changed`.
    fn push(&mut self, at: SimInstant, plan: &Plan, changed: &[usize], powered: u32) {
        let loads = &plan.placement.loads;
        if self.decisions.is_empty() {
            (self.changes).extend(loads.iter().enumerate().map(|(i, &l)| (i as u32, l)));
        } else {
            (self.changes).extend(changed.iter().map(|&i| (i as u32, loads[i])));
        }
        self.decisions.push(Decision {
            at,
            powered,
            served_rate: plan.served_rate,
            shed_rate: plan.shed_rate,
            replicas: plan.r_eff,
            end: self.changes.len(),
        });
    }
}

impl fmt::Debug for Placements {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The full outcome of a chaos run: the energy ledger, the demand
/// accounting (`served + shed + failed == offered`), event counters, and
/// the complete placement sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosReport {
    /// Every Joule the run drew, by component; recovery work sits under
    /// [`ComponentKind::Recovery`] and still sums into the wall-socket
    /// total.
    pub ledger: EnergyLedger,
    /// The simulated horizon.
    pub horizon: SimDuration,
    /// Demand offered over the run, in work units (rate × seconds).
    pub offered: f64,
    /// Work served to completion.
    pub served: f64,
    /// Work shed by admission control (refused up front, SLA-visible).
    pub shed: f64,
    /// Work accepted but lost: stranded by crashes and never
    /// re-dispatched successfully within the retry budget.
    pub failed: f64,
    /// Work stranded in flight by crashes (before re-dispatch).
    pub stranded: f64,
    /// Stranded work successfully re-dispatched.
    pub recovered: f64,
    /// Machine crash events.
    pub crashes: u64,
    /// Machine restart events.
    pub restarts: u64,
    /// Fault-domain outage events.
    pub domain_outages: u64,
    /// Brownout events.
    pub brownouts: u64,
    /// Demand-surge events.
    pub surges: u64,
    /// Times the circuit breaker held a restarted machine in quarantine.
    pub breaker_trips: u64,
    /// Cold boots billed to Recovery.
    pub cold_boots: u64,
    /// Re-dispatch attempts that recovered stranded work.
    pub redispatches: u64,
    /// Simulated seconds spent below the target replica count.
    pub redundancy_degraded_secs: f64,
    /// Every placement decision, in order.
    pub placements: Placements,
}

impl ChaosReport {
    /// Fraction of offered work actually served (1.0 when nothing was
    /// offered).
    pub fn availability(&self) -> f64 {
        if self.offered > 0.0 {
            self.served / self.offered
        } else {
            1.0
        }
    }

    /// Energy attributed to resilience: cold boots, hedged re-dispatch.
    pub fn recovery_energy(&self) -> Joules {
        self.ledger.kind_total(ComponentKind::Recovery)
    }

    /// Wall-socket total for the run.
    pub fn total_energy(&self) -> Joules {
        self.ledger.total()
    }

    /// Work per Joule over the run, counting only served work.
    pub fn efficiency(&self) -> f64 {
        let e = self.total_energy().joules();
        if e > 0.0 {
            self.served / e
        } else {
            0.0
        }
    }

    /// `|served + shed + failed - offered|` — zero up to float
    /// association error; tests pin it below 1e-6 of offered.
    pub fn conservation_error(&self) -> f64 {
        (self.served + self.shed + self.failed - self.offered).abs()
    }
}

/// One event of a run: a schedule event, or one the engine schedules
/// itself (a breaker rejoin or a stranded-work re-dispatch), the only
/// kinds its queue holds.
#[derive(Debug, Clone, Copy)]
enum Runtime {
    /// A schedule event, by index into [`ChaosSchedule::events`].
    Chaos(usize),
    /// A breaker quarantine ends: re-plan.
    Wake,
    /// Re-dispatch `work` stranded units, on their `attempt`-th try.
    Redispatch {
        /// Stranded work units to replay.
        work: f64,
        /// 1-based attempt counter, bounded by the retry budget.
        attempt: u32,
    },
}

/// Largest per-domain rate `S` such that serving `S` in each of `r`
/// replica slots fits the live domains: `Σ_d min(cap_d, S) ≥ r·S`.
/// `f(S) = Σ_d min(cap_d, S) - r·S` is concave piecewise-linear with
/// `f(0) = 0`; walk its breakpoints (the sorted domain capacities) and
/// return the root of the first descending segment.
///
/// Public because the `grail-check` chaos model's admission-sanity
/// invariant measures the live fleet with this exact function.
///
/// Known overstatement: the walk returns the root of the first segment
/// on which `f` descends without checking that the root lies inside
/// that segment. `[100, 100, 100]` at `r = 2` returns 200, and the
/// feasible rate is 150 (ROADMAP item 3 fixes the walk).
pub fn max_replica_rate(dom_caps: &[f64], r: u32) -> f64 {
    let mut live = Vec::new();
    sort_live(dom_caps, &mut live);
    replica_rate(&live, r)
}

/// `live` ← the live (positive) capacities of `dom_caps`, ascending.
fn sort_live(dom_caps: &[f64], live: &mut Vec<f64>) {
    live.clear();
    live.extend(dom_caps.iter().copied().filter(|c| *c > 0.0));
    live.sort_by(f64::total_cmp);
}

/// [`max_replica_rate`] of live domain capacities already in
/// [`sort_live`] order.
fn replica_rate(caps: &[f64], r: u32) -> f64 {
    let r = r as f64;
    if caps.is_empty() || (caps.len() as f64) < r {
        return 0.0;
    }
    let mut sum_small = 0.0;
    let mut cnt_big = caps.len() as f64;
    for &c in caps {
        // On [prev, c): f(S) = sum_small + (cnt_big - r)·S.
        if cnt_big - r < 0.0 {
            return sum_small / (r - cnt_big);
        }
        sum_small += c;
        cnt_big -= 1.0;
    }
    // Every cap binds; beyond the last breakpoint f = sum_small - r·S.
    sum_small / r
}

/// Admission control for one re-plan: given per-domain effective
/// capacities and the effective (surge-scaled) demand, pick the
/// response `(r_eff, served_rate, shed_rate)` with the documented
/// graceful-degradation order — drop replicas before shedding. The
/// largest replica count (up to `replicas`, bounded by live domains)
/// that still serves the full demand wins; if even `r = 1` cannot,
/// serve what `r = 1` allows and shed the rest.
///
/// `served_rate + shed_rate == demand_eff` exactly (up to float
/// association), which is where the run-level conservation law
/// `served + shed + failed == offered` comes from.
///
/// `live` is working space: it leaves holding `dom_caps` in
/// [`sort_live`] order, sorted once for every replica count tried.
fn admission(
    dom_caps: &[f64],
    demand_eff: f64,
    replicas: u32,
    live: &mut Vec<f64>,
) -> (u32, f64, f64) {
    sort_live(dom_caps, live);
    let r_max = replicas.min(live.len() as u32).max(1);
    let mut r_eff = 1u32;
    let mut served_rate = replica_rate(live, 1).min(demand_eff);
    for r in (2..=r_max).rev() {
        let s = replica_rate(live, r).min(demand_eff);
        if s + 1e-9 >= demand_eff {
            r_eff = r;
            served_rate = s;
            break;
        }
    }
    let shed_rate = (demand_eff - served_rate).max(0.0);
    (r_eff, served_rate, shed_rate)
}

/// Positions of the fill's walk between two of its checkpoints.
const MARK_EVERY: usize = 16;

/// Greedy domain-capped fill: place `served_rate · r_eff` total load
/// with at most `served_rate` (one replica's worth) per domain, so no
/// single domain loss can take every copy. Meant to be feasible because
/// [`max_replica_rate`] bounds `served_rate`, but that bound overstates
/// (`[100, 100, 100]` at `r = 2` admits 200, and 150 is feasible; ROADMAP
/// item 3), and then the fill places less than `served_rate · r_eff`.
/// Machines with zero effective capacity are never powered (except under
/// [`PlacementPolicy::Spread`], which keeps every healthy machine on
/// for availability).
///
/// The walk visits the fleet in [`by_peak_efficiency`] order (`Spread`:
/// fleet order), stopping once everything is placed. That order is
/// total (ties break on the index), so walking it past the machines
/// without capacity visits the rest in exactly the order sorting them
/// alone would.
///
/// The walk's state before a position is a function of the capacities
/// before it, so under the last walk's policy, rate and replica count
/// it resumes from the checkpoint (`rest` and the per-domain sums, kept
/// every [`MARK_EVERY`] positions) at or before the first machine whose
/// capacity moved, and is skipped when that machine lies past where the
/// last walk stopped. `placement` is overwritten where it changes: loads
/// from the resumed walk and what the last walk loaded beyond this
/// one's end; power wherever a load or a capacity moved. Reads
/// `scratch.eff_cap` and `scratch.moved`; leaves the machines whose load
/// or power changed in `scratch.changed`. Returns the machines it
/// powered on, both in fleet order.
fn place_replicated(
    fleet: &[Machine],
    orders: &Orders,
    policy: PlacementPolicy,
    served_rate: f64,
    r_eff: u32,
    placement: &mut Placement,
    scratch: &mut Scratch,
) -> Vec<usize> {
    let Scratch {
        eff_cap,
        moved,
        dom_used,
        marks,
        walked,
        walk_end,
        changed,
        ..
    } = scratch;
    let n = fleet.len();
    let spread = policy == PlacementPolicy::Spread;
    let by_efficiency = (!spread).then_some(orders);
    let machine_at = |p: usize| by_efficiency.map_or(p, |o| o.by_efficiency[p]);
    let position = |i: usize| by_efficiency.map_or(i, |o| o.rank[i]);
    let key = (policy, served_rate.to_bits(), r_eff);
    // Positions of the last walk name the same machines only under the
    // same policy; otherwise every machine past this walk is cleared.
    let same_order = matches!(*walked, Some((last, ..)) if last == policy);
    let (last_end, start) = match *walked {
        Some(last) if last == key => {
            let first = moved.iter().map(|&i| position(i)).min();
            (*walk_end, first.filter(|&p| p < *walk_end))
        }
        _ if same_order => (*walk_end, Some(0)),
        _ => (n, Some(0)),
    };
    *walked = Some(key);
    changed.clear();
    let mut set = |i: usize, load: f64| {
        if placement.loads[i].to_bits() != load.to_bits() {
            placement.loads[i] = load;
            changed.push(i);
        }
    };
    if let Some(first) = start {
        let width = dom_used.len() + 1;
        let mut p = first - first % MARK_EVERY;
        let mut rest = served_rate * r_eff as f64;
        if p == 0 {
            dom_used.fill(0.0);
        } else {
            let mark = &marks[p / MARK_EVERY * width..][..width];
            rest = mark[0];
            dom_used.copy_from_slice(&mark[1..]);
        }
        while p < n {
            if p.is_multiple_of(MARK_EVERY) {
                let mark = &mut marks[p / MARK_EVERY * width..][..width];
                mark[0] = rest;
                mark[1..].copy_from_slice(dom_used);
            }
            if rest <= 1e-12 {
                break;
            }
            let i = machine_at(p);
            let mut load = 0.0;
            if eff_cap[i] > 0.0 {
                let d = fleet[i].domain as usize;
                let room = eff_cap[i].min(served_rate - dom_used[d]);
                if room > 0.0 {
                    load = rest.min(room);
                    dom_used[d] += load;
                    rest -= load;
                }
            }
            set(i, load);
            p += 1;
        }
        for q in p..last_end {
            set(machine_at(q), 0.0);
        }
        *walk_end = p;
    }
    // Power follows load, and under Spread capacity too: it can flip
    // only where one of them moved.
    let mut booted = Vec::new();
    let mut repower = |i: usize| {
        let on = placement.loads[i] > 0.0 || (spread && eff_cap[i] > 0.0);
        if on == placement.powered[i] {
            return false;
        }
        placement.powered[i] = on;
        if on {
            booted.push(i);
        }
        true
    };
    for &i in changed.iter() {
        repower(i);
    }
    // A machine whose load changed was repowered above; any other flip
    // is a change of its own.
    if !same_order {
        changed.extend((0..n).filter(|&i| repower(i)));
    } else {
        changed.extend(moved.iter().copied().filter(|&i| repower(i)));
    }
    booted.sort_unstable();
    changed.sort_unstable();
    booted
}

/// What the fleet is doing right now: the output of one re-plan, in
/// force until the next.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Per-machine load and power state.
    pub placement: Placement,
    /// Effective replica count.
    pub r_eff: u32,
    /// Demand rate served (one logical copy).
    pub served_rate: f64,
    /// Demand rate shed by admission control.
    pub shed_rate: f64,
}

/// One input of the fleet transition relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetEvent {
    /// A schedule event.
    Chaos(ChaosEventKind),
    /// Time passed — a breaker quarantine may have been served: re-plan
    /// for whoever is available now.
    Wake,
}

/// What one [`FleetState::apply`] did, for the caller to bill, trace and
/// schedule: the state machine itself touches no ledger, tracer or queue.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Effects {
    /// Machines the new plan powers on that the old one had dark, in
    /// fleet order: each owes one cold boot.
    pub booted: Vec<usize>,
    /// Load (work/s) the old plan had on machines this event killed;
    /// times the in-flight window, that is the stranded work.
    pub stranded_rate: f64,
    /// The breaker held a restarted machine, `(machine, hold)`, instead
    /// of re-planning — the one event that leaves the [`Plan`] as it
    /// was. The caller owes a [`FleetEvent::Wake`] at `at + hold`,
    /// saturating at [`SimInstant::MAX`].
    pub quarantine: Option<(usize, SimDuration)>,
}

/// The fleet's health and current plan: the one state machine behind
/// [`run_chaos`], the `grail-check` `chaos-failover` model and every
/// "machines died, who serves what now" question. [`FleetState::apply`]
/// is its only transition.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetState {
    machine_up: Vec<bool>,
    domain_up: Vec<bool>,
    /// When each machine's latest quarantine ends ([`SimInstant::EPOCH`]:
    /// never held). A deadline, not a flag: no timer can release a
    /// machine early, a late or stale one is only a wake-up.
    quarantined_until: Vec<SimInstant>,
    trips: Vec<u32>,
    last_crash: Vec<Option<SimInstant>>,
    cap_frac: f64,
    surge: f64,
    plan: Plan,
    orders: Orders,
    scratch: Scratch,
}

/// The fleet's machines in the orders a re-plan visits them: a function
/// of the fleet alone, so computed once.
#[derive(Debug, Clone, PartialEq)]
struct Orders {
    /// Every fleet index in [`by_peak_efficiency`] order.
    by_efficiency: Vec<usize>,
    /// Each machine's position in `by_efficiency`.
    rank: Vec<usize>,
    /// Every fleet index grouped by fault domain, fleet order within
    /// one; domain `d`'s run ends at `domain_ends[d]`.
    by_domain: Vec<usize>,
    domain_ends: Vec<usize>,
}

impl Orders {
    fn new(fleet: &[Machine], n_domains: usize) -> Orders {
        let n = fleet.len();
        let mut by_efficiency: Vec<usize> = (0..n).collect();
        by_efficiency.sort_by(by_peak_efficiency(fleet));
        let mut rank = vec![0; n];
        for (p, &i) in by_efficiency.iter().enumerate() {
            rank[i] = p;
        }
        let mut by_domain: Vec<usize> = (0..n).collect();
        by_domain.sort_by_key(|&i| fleet[i].domain);
        let domain_ends = (0..n_domains)
            .map(|d| by_domain.partition_point(|&i| fleet[i].domain as usize <= d))
            .collect();
        Orders {
            by_efficiency,
            rank,
            by_domain,
            domain_ends,
        }
    }

    /// Domain `d`'s machines, in fleet order.
    fn members(&self, d: u32) -> &[usize] {
        let d = d as usize;
        let start = if d == 0 { 0 } else { self.domain_ends[d - 1] };
        &self.by_domain[start..self.domain_ends[d]]
    }
}

/// What one re-plan works in, kept between events so that an event
/// costs what it changes and allocates nothing: the capacities as of
/// the last re-plan and the checkpoints of its fill, brought current
/// from the machines an event or the clock touched since, and working
/// space. All of it follows from the health and the plan, so two
/// fleets that differ only here are equal.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Per-machine capacity usable at `at` (0 when unavailable).
    eff_cap: Vec<f64>,
    /// `eff_cap` summed per fault domain, in fleet order from 0.0.
    dom_caps: Vec<f64>,
    /// When `eff_cap` was last brought current; `None` when the next
    /// re-plan must recompute every machine (at the start, and after a
    /// brownout changed every machine's usable fraction).
    at: Option<SimInstant>,
    /// Machines whose health changed since `at`.
    dirty: Vec<usize>,
    /// Machines whose quarantine had not ended at `at`: whom the clock
    /// alone can make available.
    held: Vec<usize>,
    /// Machines whose `eff_cap` the last refresh changed.
    moved: Vec<usize>,
    /// Domains whose sum the current refresh re-adds.
    dirty_domains: Vec<u32>,
    /// [`admission`]'s working space.
    live_caps: Vec<f64>,
    /// Load placed per fault domain so far.
    dom_used: Vec<f64>,
    /// The fill's checkpoints: before every [`MARK_EVERY`]-th position
    /// of its walk, what was left to place and `dom_used`.
    marks: Vec<f64>,
    /// The policy, rate bits and replica count of the last fill's walk;
    /// `None` when the placement is to be rebuilt whole.
    walked: Option<(PlacementPolicy, u64, u32)>,
    /// Where the last walk stopped: nothing at or past it is loaded.
    walk_end: usize,
    /// The machines whose load or power the last re-plan changed, in
    /// fleet order.
    changed: Vec<usize>,
}

impl PartialEq for Scratch {
    fn eq(&self, _: &Scratch) -> bool {
        true
    }
}

/// Fraction of `m`'s capacity usable under a brownout cap: the load at
/// which its linear power curve hits `cap_frac · peak`.
fn usable_frac(m: &Machine, cap_frac: f64) -> f64 {
    if cap_frac >= 1.0 {
        return 1.0;
    }
    let peak = m.peak.get();
    let idle = m.idle.get();
    let span = peak - idle;
    if span <= 0.0 {
        // Flat power curve: the machine either fits under the cap or
        // cannot run at all.
        return if idle <= cap_frac * peak { 1.0 } else { 0.0 };
    }
    ((cap_frac * peak - idle) / span).clamp(0.0, 1.0)
}

impl FleetState {
    /// A healthy fleet spanning `n_domains` fault domains, already
    /// serving `demand` under `policy` (steady state: nothing boots).
    ///
    /// # Panics
    /// When `n_domains` does not cover the fleet (a machine sits in
    /// domain `n_domains` or beyond). [`run_chaos`] rejects that shape
    /// with a typed [`ClusterError::BadSchedule`] before it gets here.
    pub fn new(fleet: &[Machine], n_domains: usize, policy: &ChaosPolicy, demand: f64) -> Self {
        let n = fleet.len();
        assert!(
            n_domains >= domain_count(fleet) as usize,
            "fleet spans {} fault domains, n_domains is {n_domains}",
            domain_count(fleet)
        );
        let mut state = FleetState {
            machine_up: vec![true; n],
            domain_up: vec![true; n_domains],
            quarantined_until: vec![SimInstant::EPOCH; n],
            trips: vec![0; n],
            last_crash: vec![None; n],
            cap_frac: 1.0,
            surge: 1.0,
            plan: Plan {
                placement: Placement {
                    loads: vec![0.0; n],
                    powered: vec![false; n],
                },
                r_eff: policy.replicas,
                served_rate: 0.0,
                shed_rate: 0.0,
            },
            orders: Orders::new(fleet, n_domains),
            scratch: Scratch {
                eff_cap: vec![0.0; n],
                dom_caps: vec![0.0; n_domains],
                live_caps: Vec::with_capacity(n_domains),
                dom_used: vec![0.0; n_domains],
                marks: vec![0.0; (n / MARK_EVERY + 1) * (n_domains + 1)],
                ..Scratch::default()
            },
        };
        state.replan(fleet, policy, demand, SimInstant::EPOCH);
        state
    }

    /// The plan in force.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Whether machine `i` is running (it may still be quarantined).
    pub fn machine_up(&self, i: usize) -> bool {
        self.machine_up[i]
    }

    /// When machine `i`'s latest breaker quarantine ends.
    pub fn quarantined_until(&self, i: usize) -> SimInstant {
        self.quarantined_until[i]
    }

    /// Crashes of machine `i` inside the breaker's reset window.
    pub fn trips(&self, i: usize) -> u32 {
        self.trips[i]
    }

    /// Whether machine `i` may take load at `at`: running, its domain
    /// powered, its latest quarantine served.
    pub fn available(&self, fleet: &[Machine], i: usize, at: SimInstant) -> bool {
        self.machine_up[i]
            && self.domain_up[fleet[i].domain as usize]
            && at >= self.quarantined_until[i]
    }

    /// The most (peak-)efficient machine available at `at`, if any —
    /// where hedged re-dispatch replays stranded work.
    fn best_available(&self, fleet: &[Machine], at: SimInstant) -> Option<usize> {
        (self.orders.by_efficiency)
            .iter()
            .copied()
            .find(|&i| self.available(fleet, i, at))
    }

    /// Machine `i`'s capacity usable at `at`.
    fn capacity_at(&self, fleet: &[Machine], i: usize, at: SimInstant) -> f64 {
        if self.available(fleet, i, at) {
            fleet[i].capacity * usable_frac(&fleet[i], self.cap_frac)
        } else {
            0.0
        }
    }

    /// Bring `scratch.eff_cap` and `scratch.dom_caps` to the health at
    /// `at`, listing in `scratch.moved` the machines whose capacity
    /// changed. From the last re-plan's, only the machines an event
    /// touched since and those whose quarantine has ended by `at` can
    /// differ; each domain holding one that did is re-added from 0.0 in
    /// fleet order, the bits of a full pass. With no earlier re-plan to
    /// start from (or one later than `at`, which could re-hold released
    /// machines) every machine is recomputed.
    fn refresh(&self, fleet: &[Machine], at: SimInstant, scratch: &mut Scratch) {
        let until = &self.quarantined_until;
        let resume = scratch.at.is_some_and(|last| last <= at);
        let Scratch {
            dirty,
            held,
            moved,
            eff_cap,
            dom_caps,
            dirty_domains,
            ..
        } = scratch;
        if resume {
            held.retain(|&i| {
                let ended = until[i] <= at;
                if ended {
                    dirty.push(i);
                }
                !ended
            });
        } else {
            dirty.clear();
            dirty.extend(0..fleet.len());
            held.clear();
            held.extend((0..fleet.len()).filter(|&i| until[i] > at));
        }
        moved.clear();
        dirty_domains.clear();
        for &i in dirty.iter() {
            let cap = self.capacity_at(fleet, i, at);
            if cap.to_bits() != eff_cap[i].to_bits() {
                eff_cap[i] = cap;
                moved.push(i);
                dirty_domains.push(fleet[i].domain);
            }
        }
        dirty_domains.sort_unstable();
        dirty_domains.dedup();
        for &d in dirty_domains.iter() {
            let members = self.orders.members(d).iter();
            dom_caps[d as usize] = members.fold(0.0, |sum, &i| sum + eff_cap[i]);
        }
        dirty.clear();
        scratch.at = Some(at);
    }

    /// Whether `scratch`'s capacities are bit for bit those of one full
    /// pass over the health at `at`: [`refresh`](Self::refresh)'s oracle.
    fn capacities_are_current(&self, fleet: &[Machine], at: SimInstant, scratch: &Scratch) -> bool {
        let mut dom_caps = vec![0.0; scratch.dom_caps.len()];
        let mut same = true;
        for (i, m) in fleet.iter().enumerate() {
            let cap = self.capacity_at(fleet, i, at);
            dom_caps[m.domain as usize] += cap;
            same &= cap.to_bits() == scratch.eff_cap[i].to_bits();
        }
        let bits = |caps: &[f64]| caps.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        same && bits(&dom_caps) == bits(&scratch.dom_caps)
    }

    /// Re-plan for the health at `at`: effective capacities →
    /// [`admission`] → [`place_replicated`]. Returns the machines the
    /// new plan powers on, and leaves in `scratch.changed` those whose
    /// load or power it changed.
    fn replan(
        &mut self,
        fleet: &[Machine],
        policy: &ChaosPolicy,
        demand: f64,
        at: SimInstant,
    ) -> Vec<usize> {
        // Out of `self` while `self.available` is consulted; an empty
        // `Scratch` owns no heap memory.
        let mut scratch = std::mem::take(&mut self.scratch);
        self.refresh(fleet, at, &mut scratch);
        debug_assert!(
            self.capacities_are_current(fleet, at, &scratch),
            "cached capacities differ from a full pass at {at}"
        );
        let (r_eff, served_rate, shed_rate) = admission(
            &scratch.dom_caps,
            demand * self.surge,
            policy.replicas,
            &mut scratch.live_caps,
        );
        let booted = place_replicated(
            fleet,
            &self.orders,
            policy.placement,
            served_rate,
            r_eff,
            &mut self.plan.placement,
            &mut scratch,
        );
        self.plan.r_eff = r_eff;
        self.plan.served_rate = served_rate;
        self.plan.shed_rate = shed_rate;
        self.scratch = scratch;
        booted
    }

    /// The transition relation: `event` happens at `at` to a fleet
    /// serving `demand` under `policy`. Health changes, the breaker
    /// counts, and (unless a restart is held in quarantine) the fleet
    /// re-plans; everything the caller has to bill, trace or schedule
    /// comes back in the [`Effects`].
    ///
    /// Events are trusted: [`run_chaos`] rejects a bad schedule with a
    /// typed [`ClusterError`] before the first one, and a caller driving
    /// `apply` directly owes the same checks — a brownout `cap_frac` in
    /// `(0, 1]` and a finite, positive surge `factor`; anything else
    /// (NaN included) is stored as given and poisons every later plan.
    ///
    /// # Panics
    /// On a machine or domain index outside the fleet.
    pub fn apply(
        &mut self,
        fleet: &[Machine],
        policy: &ChaosPolicy,
        demand: f64,
        at: SimInstant,
        event: FleetEvent,
    ) -> Effects {
        let mut fx = Effects::default();
        let loads = &self.plan.placement.loads;
        match event {
            FleetEvent::Chaos(ChaosEventKind::MachineCrash { machine }) => {
                let m = machine as usize;
                self.trips[m] = match self.last_crash[m] {
                    Some(prev) if at.duration_since(prev) <= policy.breaker.reset_window => {
                        self.trips[m].saturating_add(1)
                    }
                    _ => 1,
                };
                self.last_crash[m] = Some(at);
                fx.stranded_rate = loads[m];
                self.machine_up[m] = false;
                self.scratch.dirty.push(m);
            }
            FleetEvent::Chaos(ChaosEventKind::MachineUp { machine }) => {
                let m = machine as usize;
                self.machine_up[m] = true;
                self.scratch.dirty.push(m);
                let hold = policy.breaker.quarantine(self.trips[m]);
                if !hold.is_zero() {
                    // A saturated hold is a deadline past every horizon,
                    // never one that wraps round to release the machine.
                    self.quarantined_until[m] = at.saturating_add(hold);
                    if !self.scratch.held.contains(&m) {
                        self.scratch.held.push(m);
                    }
                    fx.quarantine = Some((m, hold));
                    return fx;
                }
            }
            FleetEvent::Chaos(ChaosEventKind::DomainDown { domain }) => {
                let members = self.orders.members(domain);
                fx.stranded_rate = members.iter().map(|&i| loads[i]).sum();
                self.scratch.dirty.extend_from_slice(members);
                self.domain_up[domain as usize] = false;
            }
            FleetEvent::Chaos(ChaosEventKind::DomainUp { domain }) => {
                let members = self.orders.members(domain);
                self.scratch.dirty.extend_from_slice(members);
                self.domain_up[domain as usize] = true;
            }
            FleetEvent::Chaos(ChaosEventKind::BrownoutStart { cap_frac }) => {
                // Every machine's usable fraction moves: a full pass.
                self.cap_frac = cap_frac;
                self.scratch.at = None;
            }
            FleetEvent::Chaos(ChaosEventKind::BrownoutEnd) => {
                self.cap_frac = 1.0;
                self.scratch.at = None;
            }
            FleetEvent::Chaos(ChaosEventKind::SurgeStart { factor }) => self.surge = factor,
            FleetEvent::Chaos(ChaosEventKind::SurgeEnd) => self.surge = 1.0,
            FleetEvent::Wake => {}
        }
        fx.booted = self.replan(fleet, policy, demand, at);
        fx
    }
}

/// The event loop's side of a run: the pure [`FleetState`] plus the
/// report its [`Effects`] are billed and counted into.
struct Engine<'a> {
    fleet: &'a [Machine],
    policy: &'a ChaosPolicy,
    demand: f64,
    state: FleetState,
    /// The report under construction. Its `served` is the integral of
    /// the served rate until [`run_chaos`] takes the failed work out.
    report: ChaosReport,
    /// What [`settle`](Self::settle) charges: the plan's powered
    /// machines' draws, in fleet order.
    draws: Vec<(u32, Watts)>,
    /// The brownout cap `draws` were priced under; `None` before the
    /// first plan.
    draws_cap_frac: Option<f64>,
}

/// `m`'s draw at `load` under a brownout `cap_frac`.
fn draw(m: &Machine, load: f64, cap_frac: f64) -> Watts {
    let p = m.power_at(load);
    if cap_frac < 1.0 {
        // The brownout physically caps the feeder; loads were already
        // planned under it, this is belt-and-braces.
        return Watts::new(p.get().min(m.peak.get() * cap_frac));
    }
    p
}

const RECOVERY: ComponentId = ComponentId::new(ComponentKind::Recovery, 0);

impl Engine<'_> {
    fn machine_component(i: usize) -> ComponentId {
        ComponentId::new(ComponentKind::Base, i as u32)
    }

    /// Accrue energy and demand accounting over `[from, to)` under the
    /// current plan.
    fn settle(&mut self, from: SimInstant, to: SimInstant, tracer: &mut Tracer) {
        // Drive the scrape clock first so boundary snapshots inside
        // `(from, to]` capture the integrals as they stood before this
        // settlement lands.
        tracer.advance_time(to.as_nanos());
        let dt = to.duration_since(from);
        if dt.is_zero() {
            return;
        }
        let secs = dt.as_secs_f64();
        let plan = self.state.plan();
        (self.report.ledger).charge_draws(ComponentKind::Base, &self.draws, dt);
        self.report.offered += self.demand * self.state.surge * secs;
        self.report.served += plan.served_rate * secs;
        self.report.shed += plan.shed_rate * secs;
        if plan.r_eff < self.policy.replicas {
            self.report.redundancy_degraded_secs += secs;
        }
        tracer.gauge("chaos.offered_work", self.report.offered);
        tracer.gauge("chaos.served_work", self.report.served);
        tracer.gauge("chaos.shed_work", self.report.shed);
    }

    /// Record the plan now in force, billing a cold boot to Recovery for
    /// each machine it powered on.
    fn record_plan(&mut self, at: SimInstant, booted: &[usize], tracer: &mut Tracer) {
        for &i in booted {
            self.report.cold_boots += 1;
            let boot = self.fleet[i].boot_energy;
            self.report.ledger.charge(Self::machine_component(i), boot);
            self.report
                .ledger
                .transfer(Self::machine_component(i), RECOVERY, boot);
            observe::record_chaos_boot(tracer, at, i, boot);
        }
        let (state, fleet) = (&self.state, self.fleet);
        let (plan, cap_frac) = (state.plan(), state.cap_frac);
        let placement = &plan.placement;
        let price = |i: usize| (i as u32, draw(&fleet[i], placement.loads[i], cap_frac));
        if self.draws_cap_frac.map(f64::to_bits) == Some(cap_frac.to_bits()) {
            // Only what the re-plan changed moves a draw.
            for &i in &state.scratch.changed {
                match self.draws.binary_search_by_key(&(i as u32), |&(j, _)| j) {
                    Ok(k) if placement.powered[i] => self.draws[k] = price(i),
                    Ok(k) => {
                        self.draws.remove(k);
                    }
                    Err(k) if placement.powered[i] => self.draws.insert(k, price(i)),
                    Err(_) => {}
                }
            }
        } else {
            self.draws.clear();
            (self.draws).extend(
                (0..fleet.len())
                    .filter(|&i| placement.powered[i])
                    .map(price),
            );
            self.draws_cap_frac = Some(cap_frac);
        }
        let powered = self.draws.len() as u32;
        let changed = &state.scratch.changed;
        self.report.placements.push(at, plan, changed, powered);
        observe::record_chaos_placement(
            tracer,
            at,
            powered,
            plan.served_rate,
            plan.shed_rate,
            plan.r_eff,
        );
    }

    /// Apply one runtime event at `at`: hand it to
    /// [`FleetState::apply`] — the transition relation the `grail-check`
    /// chaos model explores — then bill, count, trace and schedule what
    /// the returned [`Effects`] say happened.
    fn step(
        &mut self,
        at: SimInstant,
        rt: Runtime,
        schedule: &ChaosSchedule,
        queue: &mut EventQueue<Runtime>,
        tracer: &mut Tracer,
    ) {
        let event = match rt {
            Runtime::Chaos(idx) => {
                let ev = &schedule.events()[idx];
                observe::record_chaos_event(tracer, ev);
                match ev.kind {
                    ChaosEventKind::MachineCrash { .. } => self.report.crashes += 1,
                    ChaosEventKind::MachineUp { .. } => self.report.restarts += 1,
                    ChaosEventKind::DomainDown { .. } => self.report.domain_outages += 1,
                    ChaosEventKind::BrownoutStart { .. } => self.report.brownouts += 1,
                    ChaosEventKind::SurgeStart { .. } => self.report.surges += 1,
                    _ => {}
                }
                FleetEvent::Chaos(ev.kind)
            }
            Runtime::Wake => FleetEvent::Wake,
            Runtime::Redispatch { work, attempt } => {
                return self.redispatch(at, work, attempt, Some(queue), tracer);
            }
        };
        let fx = self
            .state
            .apply(self.fleet, self.policy, self.demand, at, event);
        match fx.quarantine {
            Some((m, hold)) => {
                self.report.breaker_trips += 1;
                observe::record_chaos_breaker(tracer, at, m, self.state.trips(m), hold);
                queue.push(at.saturating_add(hold), Runtime::Wake);
            }
            None => self.record_plan(at, &fx.booted, tracer),
        }
        let elapsed = at.duration_since(SimInstant::EPOCH).as_secs_f64();
        let work = fx.stranded_rate * self.policy.inflight_window.as_secs_f64().min(elapsed);
        if work > 0.0 {
            self.report.stranded += work;
            queue.push(
                at.saturating_add(self.policy.retry.backoff(1)),
                Runtime::Redispatch { work, attempt: 1 },
            );
        }
    }

    /// Resolve one re-dispatch attempt: replay on a live machine (hedged,
    /// billed to Recovery), or reschedule on `queue`, or — past the retry
    /// budget, or with no queue left because the horizon closed —
    /// account the work as failed.
    fn redispatch(
        &mut self,
        at: SimInstant,
        work: f64,
        attempt: u32,
        queue: Option<&mut EventQueue<Runtime>>,
        tracer: &mut Tracer,
    ) {
        if let Some(host) = self.state.best_available(self.fleet, at) {
            self.report.recovered += work;
            self.report.redispatches += 1;
            let eff = self.fleet[host].peak_efficiency();
            let replay = if eff > 0.0 {
                Joules::new(work / eff * (1.0 + self.policy.hedge_frac))
            } else {
                Joules::ZERO
            };
            self.report
                .ledger
                .charge(Self::machine_component(host), replay);
            self.report
                .ledger
                .transfer(Self::machine_component(host), RECOVERY, replay);
            observe::record_chaos_redispatch(tracer, at, work, attempt, true, replay);
            return;
        }
        match queue {
            Some(queue) if attempt <= self.policy.retry.max_retries => {
                let next = attempt + 1;
                queue.push(
                    at.saturating_add(self.policy.retry.backoff(next)),
                    Runtime::Redispatch {
                        work,
                        attempt: next,
                    },
                );
            }
            _ => {
                // Nowhere to run and no try left: the work is lost. It
                // was counted into the served integral while in flight,
                // so move it from served to failed.
                self.report.failed += work;
                observe::record_chaos_redispatch(tracer, at, work, attempt, false, Joules::ZERO);
            }
        }
    }
}

/// Drive `fleet` through `schedule` while serving `demand` work/s under
/// `policy`, returning the full [`ChaosReport`].
///
/// Deterministic: the report (ledger, placements, counters) and every
/// trace event are a pure function of the inputs.
///
/// # Errors
/// [`ClusterError::EmptyFleet`] for an empty fleet,
/// [`ClusterError::BadMachine`] if any machine fails
/// [`Machine::validate`], [`ClusterError::UnknownMachine`] when an event
/// names a machine outside the fleet, and [`ClusterError::BadSchedule`]
/// when the schedule's machine/domain shape does not cover the fleet, an
/// event names a domain outside the schedule or carries a brownout cap
/// outside `(0, 1]` or a surge factor that is not finite and positive,
/// or the demand/policy parameters are not finite, or the run's work or
/// energy could add up past `f64`'s range (a fleet whose capacities,
/// draws or efficiencies are extreme for the demand and horizon).
pub fn run_chaos(
    fleet: &[Machine],
    schedule: &ChaosSchedule,
    demand: f64,
    policy: &ChaosPolicy,
    tracer: &mut Tracer,
) -> Result<ChaosReport, ClusterError> {
    if fleet.is_empty() {
        return Err(ClusterError::EmptyFleet);
    }
    for m in fleet {
        m.validate()?;
    }
    if schedule.machines() as usize != fleet.len() {
        return Err(ClusterError::BadSchedule(format!(
            "schedule addresses {} machines, fleet has {}",
            schedule.machines(),
            fleet.len()
        )));
    }
    if schedule.domains() < domain_count(fleet) {
        return Err(ClusterError::BadSchedule(format!(
            "schedule addresses {} domains, fleet spans {}",
            schedule.domains(),
            domain_count(fleet)
        )));
    }
    for ev in schedule.events() {
        let why = match ev.kind {
            ChaosEventKind::MachineCrash { machine } | ChaosEventKind::MachineUp { machine }
                if machine >= schedule.machines() =>
            {
                return Err(ClusterError::UnknownMachine(machine as usize));
            }
            ChaosEventKind::DomainDown { domain } | ChaosEventKind::DomainUp { domain }
                if domain >= schedule.domains() =>
            {
                format!("event names domain {domain} of {}", schedule.domains())
            }
            ChaosEventKind::BrownoutStart { cap_frac } if !(cap_frac > 0.0 && cap_frac <= 1.0) => {
                format!("brownout cap must be in (0, 1], got {cap_frac}")
            }
            ChaosEventKind::SurgeStart { factor } if !(factor.is_finite() && factor > 0.0) => {
                format!("surge factor must be finite and positive, got {factor}")
            }
            _ => continue,
        };
        return Err(ClusterError::BadSchedule(why));
    }
    if !demand.is_finite() || demand < 0.0 {
        return Err(ClusterError::BadSchedule(format!(
            "offered demand must be finite and non-negative, got {demand}"
        )));
    }
    if policy.replicas == 0 {
        return Err(ClusterError::BadSchedule(
            "replica target must be at least 1".to_string(),
        ));
    }
    if !policy.hedge_frac.is_finite() || policy.hedge_frac < 0.0 {
        return Err(ClusterError::BadSchedule(format!(
            "hedge fraction must be finite and non-negative, got {}",
            policy.hedge_frac
        )));
    }
    check_totals(fleet, schedule, demand, policy)?;
    let start = SimInstant::EPOCH;
    let end = start + schedule.horizon();
    let mut eng = Engine {
        fleet,
        policy,
        demand,
        state: FleetState::new(fleet, schedule.domains() as usize, policy, demand),
        report: ChaosReport {
            horizon: schedule.horizon(),
            ..ChaosReport::default()
        },
        draws: Vec::with_capacity(fleet.len()),
        draws_cap_frac: None,
    };
    // The fleet starts in steady state: the initial plan boots nothing.
    eng.record_plan(start, &[], tracer);
    // The schedule is read in place through a cursor; the queue holds
    // only what the engine schedules itself (wakes and re-dispatches).
    // At one instant the schedule goes first, in index order, then the
    // queue in push order: the order of one queue holding both with the
    // schedule pushed first.
    let events = schedule.events();
    debug_assert!(
        events.windows(2).all(|w| w[0].at <= w[1].at),
        "schedule events must be sorted by instant"
    );
    let mut next = 0;
    let mut queue: EventQueue<Runtime> = EventQueue::new();
    let mut cur = start;
    // Re-dispatches the engine backed off past the horizon — resolved at
    // the end. Late rejoins are moot.
    let mut overflow: Vec<(f64, u32)> = Vec::new();
    loop {
        // The schedule's next event, unless the queue's is earlier.
        let due = match (events.get(next), queue.peek_time()) {
            (Some(ev), Some(t)) if t < ev.at => None,
            (ev, _) => ev,
        };
        let (at, rt) = match due {
            Some(ev) => {
                next += 1;
                (ev.at, Runtime::Chaos(next - 1))
            }
            None => match queue.pop() {
                Some(popped) => popped,
                None => break,
            },
        };
        if at >= end {
            if let Runtime::Redispatch { work, attempt } = rt {
                overflow.push((work, attempt));
            }
            continue;
        }
        eng.settle(cur, at, tracer);
        cur = at;
        eng.step(at, rt, schedule, &mut queue, tracer);
    }
    eng.settle(cur, end, tracer);
    // Work still bouncing in re-dispatch when the horizon closes gets
    // one final resolution at the end instant: recovered if anything is
    // live, failed otherwise.
    for (work, attempt) in overflow {
        eng.redispatch(end, work, attempt, None, tracer);
    }
    let mut report = eng.report;
    report.served = (report.served - report.failed).max(0.0);
    report.ledger.cover(start, end);
    tracer.finish_time(end.as_nanos());
    Ok(report)
}

/// Bound, before the run, every total it adds up, so that none leaves
/// `f64`'s finite range halfway (a `Joules` that does panics, and a work
/// total that does turns the conservation sum into NaN). The fleet
/// serves at most `demand × surge` work/s; each event strands at most
/// an in-flight window of that, replayed at no worse than the fleet's
/// lowest positive peak efficiency; every machine draws at most its
/// peak, and boots at most once per plan, of which there are at most
/// `2 × events + 1`. The factor of four is headroom for the rounding of
/// the sums these terms bound, and for `served + shed + failed`.
fn check_totals(
    fleet: &[Machine],
    schedule: &ChaosSchedule,
    demand: f64,
    policy: &ChaosPolicy,
) -> Result<(), ClusterError> {
    let horizon = schedule.horizon().as_secs_f64();
    let window = policy.inflight_window.min(schedule.horizon()).as_secs_f64();
    let events = schedule.events().len() as f64;
    let surge = (schedule.events().iter()).fold(1.0_f64, |s, ev| match ev.kind {
        ChaosEventKind::SurgeStart { factor } => s.max(factor),
        _ => s,
    });
    let stranded = events * demand * surge * window;
    let work = demand * surge * horizon + stranded;
    let worst_efficiency = (fleet.iter().map(Machine::peak_efficiency))
        .filter(|e| *e > 0.0)
        .fold(f64::INFINITY, f64::min);
    let replay = if stranded > 0.0 {
        stranded / worst_efficiency * (1.0 + policy.hedge_frac)
    } else {
        0.0
    };
    let drawn: f64 = (fleet.iter())
        .map(|m| m.peak.get() * horizon + m.boot_energy.joules() * (2.0 * events + 1.0))
        .sum();
    for (total, bound) in [("work", work), ("energy (J)", drawn + replay)] {
        if !(4.0 * bound).is_finite() {
            return Err(ClusterError::BadSchedule(format!(
                "this fleet's {total} could reach {bound:e} over the run, past f64's range"
            )));
        }
    }
    Ok(())
}

/// The documented availability floor the reference storm must clear —
/// asserted by `tests/subsystems.rs` and quoted in DESIGN.md §11.
pub const DOCUMENTED_AVAILABILITY_FLOOR: f64 = 0.90;

/// The reference chaos scenario quoted throughout the docs: a 4-domain,
/// 24-machine fleet under a two-day storm of crashes, a rack outage,
/// brownouts and surges, serving 25% of fleet capacity with 2 replicas.
pub fn reference_storm() -> (Vec<Machine>, ChaosSchedule, f64, ChaosPolicy) {
    use grail_sim::fault::ChaosConfig;
    let fleet = crate::cluster::chaos_fleet(4, 6);
    let horizon = SimDuration::from_secs(2 * 86_400);
    let cfg = ChaosConfig {
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
    };
    let schedule = ChaosSchedule::generate(cfg, 1009, fleet.len() as u32, 4, horizon);
    let total_cap: f64 = fleet.iter().map(|m| m.capacity).sum();
    (fleet, schedule, total_cap * 0.25, ChaosPolicy::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grail_power::units::SimInstant;
    use grail_prop::Gen;
    use grail_sim::fault::ChaosEvent;
    use grail_trace::{Recorder, Tracer};

    fn at(s: f64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs_f64(s)
    }

    /// 2 domains × 2 machines, 100 work/s each, 50 W idle / 150 W peak.
    fn small_fleet() -> Vec<Machine> {
        (0..4)
            .map(|i| {
                Machine::new(&format!("m{i}"), 100.0, Watts::new(50.0), Watts::new(150.0))
                    .with_boot(SimDuration::from_secs(60), Joules::new(9_000.0))
                    .with_domain(i / 2)
            })
            .collect()
    }

    /// A scripted schedule for [`small_fleet`]: `(seconds, event)` pairs.
    fn script(horizon_s: u64, events: &[(f64, ChaosEventKind)]) -> ChaosSchedule {
        let events = events
            .iter()
            .map(|&(t, kind)| ChaosEvent { at: at(t), kind })
            .collect();
        ChaosSchedule::scripted(4, 2, SimDuration::from_secs(horizon_s), events)
    }

    fn calm(horizon_s: u64) -> ChaosSchedule {
        script(horizon_s, &[])
    }

    /// Spread, with a breaker that holds 500 s × 2 per extra crash
    /// inside an hour.
    fn flap_policy() -> ChaosPolicy {
        ChaosPolicy {
            placement: PlacementPolicy::Spread,
            breaker: BreakerPolicy {
                base_quarantine: SimDuration::from_secs(500),
                multiplier: 2,
                reset_window: SimDuration::from_secs(3_600),
            },
            ..ChaosPolicy::default()
        }
    }

    fn check_conservation(r: &ChaosReport) {
        assert!(
            r.conservation_error() <= 1e-6 * r.offered.max(1.0),
            "served {} + shed {} + failed {} != offered {}",
            r.served,
            r.shed,
            r.failed,
            r.offered
        );
    }

    /// One tracer-less run of [`small_fleet`], conservation checked.
    fn run(schedule: &ChaosSchedule, demand: f64, policy: &ChaosPolicy) -> ChaosReport {
        let r =
            run_chaos(&small_fleet(), schedule, demand, policy, &mut Tracer::off()).expect("valid");
        check_conservation(&r);
        r
    }

    #[test]
    fn calm_run_serves_everything() {
        let r = run(&calm(1_000), 100.0, &ChaosPolicy::default());
        assert!((r.availability() - 1.0).abs() < 1e-12);
        assert!((r.offered - 100.0 * 1_000.0).abs() < 1e-6);
        assert!(r.shed < 1e-9);
        assert_eq!(r.failed, 0.0);
        assert_eq!(r.cold_boots, 0);
        assert_eq!(r.recovery_energy(), Joules::ZERO);
        assert!(r.total_energy().joules() > 0.0);
        // 2 replicas in 2 domains: both copies placed, one per domain.
        assert_eq!(r.placements.len(), 1);
        let first = r.placements.get(0).expect("the initial plan");
        assert_eq!(first.replicas, 2);
        let placed: f64 = first.loads.iter().sum();
        assert!((placed - 200.0).abs() < 1e-6, "r·S = 2 × 100: {placed}");
    }

    #[test]
    fn replicas_never_share_a_domain() {
        let fleet = small_fleet();
        let r = run_chaos(
            &fleet,
            &calm(100),
            150.0,
            &ChaosPolicy::default(),
            &mut Tracer::off(),
        )
        .expect("valid");
        // 150 served twice = 300 total, capped at 150 per domain.
        for p in r.placements.iter() {
            let mut per_dom = [0.0f64; 2];
            for (i, l) in p.loads.iter().enumerate() {
                per_dom[fleet[i].domain as usize] += l;
            }
            for (d, used) in per_dom.iter().enumerate() {
                assert!(
                    *used <= p.served_rate + 1e-9,
                    "domain {d} holds {used} > one replica's {}",
                    p.served_rate
                );
            }
        }
    }

    #[test]
    fn crash_strands_and_recovers_work_with_recovery_billing() {
        let schedule = script(
            10_000,
            &[
                (5_000.0, ChaosEventKind::MachineCrash { machine: 0 }),
                (5_600.0, ChaosEventKind::MachineUp { machine: 0 }),
            ],
        );
        let policy = ChaosPolicy {
            placement: PlacementPolicy::Spread,
            ..ChaosPolicy::default()
        };
        let r = run(&schedule, 150.0, &policy);
        assert_eq!(r.crashes, 1);
        assert_eq!(r.restarts, 1);
        assert!(r.stranded > 0.0, "machine 0 carried load when it died");
        assert!(
            (r.stranded - r.recovered).abs() < 1e-9,
            "survivors recover it"
        );
        assert_eq!(r.failed, 0.0);
        assert!(r.redispatches >= 1);
        assert!(
            r.recovery_energy().joules() > 0.0,
            "replay energy is billed to Recovery"
        );
        // Recovery is re-attribution: it still sums into the total.
        let by_kind: f64 = [ComponentKind::Base, ComponentKind::Recovery]
            .iter()
            .map(|k| r.ledger.kind_total(*k).joules())
            .sum();
        assert!((by_kind - r.total_energy().joules()).abs() < 1e-6);
        // Availability dips only by the brief capacity loss, if at all.
        assert!(r.availability() > 0.99, "{}", r.availability());
    }

    #[test]
    fn fleet_blackout_sheds_then_fails_inflight_work() {
        let schedule = script(
            2_000,
            &[
                (1_000.0, ChaosEventKind::DomainDown { domain: 0 }),
                (1_000.0, ChaosEventKind::DomainDown { domain: 1 }),
            ],
        );
        let r = run(&schedule, 100.0, &ChaosPolicy::default());
        assert_eq!(r.domain_outages, 2);
        // Second half of the run is fully shed.
        assert!((r.shed - 100.0 * 1_000.0).abs() < 1.0, "shed {}", r.shed);
        // In-flight work at the blackout has nowhere to go: failed.
        assert!(r.failed > 0.0);
        assert!(r.stranded > 0.0);
        assert_eq!(r.recovered, 0.0);
        assert!(r.availability() < 0.51);
    }

    #[test]
    fn degradation_drops_replicas_before_shedding() {
        // Lose domain 1 entirely: only one domain left, so r_eff must
        // fall to 1 — but demand 100 still fits domain 0's 200 capacity,
        // so nothing is shed.
        let schedule = script(
            2_000,
            &[(1_000.0, ChaosEventKind::DomainDown { domain: 1 })],
        );
        let r = run(&schedule, 100.0, &ChaosPolicy::default());
        assert!(r.shed < 1e-6, "replica sacrifice avoids shedding");
        let last = r.placements.last().expect("placements recorded");
        assert_eq!(last.replicas, 1);
        assert!((r.redundancy_degraded_secs - 1_000.0).abs() < 1e-6);
        assert!(r.availability() > 0.999);
    }

    #[test]
    fn brownout_caps_power_and_capacity() {
        // cap_frac 0.5 on a 50/150 W curve: usable load fraction is
        // (75 - 50) / 100 = 0.25 → 25 work/s per machine, 100 fleetwide.
        let schedule = script(
            2_000,
            &[(1_000.0, ChaosEventKind::BrownoutStart { cap_frac: 0.5 })],
        );
        let r = run(
            &schedule,
            150.0,
            &ChaosPolicy {
                replicas: 1,
                ..ChaosPolicy::default()
            },
        );
        assert_eq!(r.brownouts, 1);
        // First 1000 s serve 150; the brownout halves fleet capability
        // to 100, shedding 50 work/s for the remaining 1000 s.
        assert!((r.shed - 50.0 * 1_000.0).abs() < 1.0, "shed {}", r.shed);
        let last = r.placements.last().expect("placements recorded");
        assert!((last.served_rate - 100.0).abs() < 1e-6);
    }

    #[test]
    fn surge_raises_offered_demand() {
        let schedule = script(
            2_000,
            &[(1_000.0, ChaosEventKind::SurgeStart { factor: 2.0 })],
        );
        let r = run(&schedule, 100.0, &ChaosPolicy::default());
        assert_eq!(r.surges, 1);
        assert!((r.offered - (100.0 * 1_000.0 + 200.0 * 1_000.0)).abs() < 1e-6);
        // 200 work/s × 2 replicas = 400 = exactly fleet capacity: served.
        assert!(r.shed < 1e-6, "shed {}", r.shed);
    }

    #[test]
    fn breaker_quarantines_flapping_machine() {
        let schedule = script(
            10_000,
            &[
                (1_000.0, ChaosEventKind::MachineCrash { machine: 0 }),
                (1_100.0, ChaosEventKind::MachineUp { machine: 0 }),
                (1_200.0, ChaosEventKind::MachineCrash { machine: 0 }),
                (1_300.0, ChaosEventKind::MachineUp { machine: 0 }),
            ],
        );
        let policy = flap_policy();
        let r = run(&schedule, 100.0, &policy);
        assert_eq!(r.crashes, 2);
        assert_eq!(r.restarts, 2);
        assert_eq!(r.breaker_trips, 1, "second restart is quarantined");
        // The quarantined machine rejoins 500 s after its restart: the
        // placement sequence must include a decision at t = 1800.
        assert!(
            r.placements.iter().any(|p| p.at == at(1_800.0)),
            "rejoin decision recorded"
        );
    }

    #[test]
    fn stale_breaker_timer_does_not_release_a_requarantined_machine() {
        // Trip 2 (up at 1 300) sets a timer for 1 800; machine 0 crashes
        // again under it and trip 3 (up at 1 500) holds it until 2 500.
        let schedule = script(
            10_000,
            &[
                (1_000.0, ChaosEventKind::MachineCrash { machine: 0 }),
                (1_100.0, ChaosEventKind::MachineUp { machine: 0 }),
                (1_200.0, ChaosEventKind::MachineCrash { machine: 0 }),
                (1_300.0, ChaosEventKind::MachineUp { machine: 0 }),
                (1_400.0, ChaosEventKind::MachineCrash { machine: 0 }),
                (1_500.0, ChaosEventKind::MachineUp { machine: 0 }),
            ],
        );
        // One replica, filled in fleet order: machine 0 serves all 100
        // whenever it is available.
        let policy = ChaosPolicy {
            replicas: 1,
            ..flap_policy()
        };
        let r = run(&schedule, 100.0, &policy);
        assert_eq!(r.breaker_trips, 2);
        let decisions = |t: f64| r.placements.iter().filter(move |p| p.at == at(t));
        // The old timer still wakes the engine at 1 800 — and releases
        // nobody: no load on machine 0 until its latest quarantine ends.
        assert_eq!(decisions(1_800.0).count(), 1);
        for p in r.placements.iter() {
            if p.at >= at(1_400.0) && p.at < at(2_500.0) {
                assert_eq!(p.loads[0], 0.0, "machine 0 loaded at {}", p.at);
            }
        }
        let back: Vec<_> = decisions(2_500.0).collect();
        assert_eq!(
            back.len(),
            1,
            "a placement decision when the quarantine ends"
        );
        assert_eq!(back[0].loads[0], 100.0);
    }

    /// `refresh_cycle_fleet` (one domain, 9 000 work/s) serving `demand`
    /// as one replica under `placement`.
    fn refresh_state(
        placement: PlacementPolicy,
        demand: f64,
    ) -> (Vec<Machine>, ChaosPolicy, FleetState) {
        let fleet = crate::cluster::refresh_cycle_fleet();
        let policy = ChaosPolicy {
            placement,
            replicas: 1,
            inflight_window: SimDuration::ZERO,
            ..ChaosPolicy::default()
        };
        let state = FleetState::new(&fleet, 1, &policy, demand);
        (fleet, policy, state)
    }

    fn crash(machine: u32) -> FleetEvent {
        FleetEvent::Chaos(ChaosEventKind::MachineCrash { machine })
    }

    #[test]
    fn killing_loaded_machines_boots_only_dark_living_ones_and_bills_them_to_recovery() {
        // Consolidated at 4 000 work/s only the two new machines (4, 5)
        // run; kill both, one after the other.
        let (fleet, policy, mut state) = refresh_state(PlacementPolicy::Consolidate, 4_000.0);
        assert_eq!(state.plan().placement.powered_count(), 2);
        let mut booted = Vec::new();
        for dead in [4, 5] {
            let before = state.plan().placement.clone();
            let fx = state.apply(&fleet, &policy, 4_000.0, at(1_000.0), crash(dead));
            assert_eq!(fx.stranded_rate, 2_000.0, "what machine {dead} carried");
            assert!(!fx.booted.is_empty(), "someone had to cold-boot");
            let plan = state.plan();
            for &b in &fx.booted {
                assert!(!before.powered[b] && plan.placement.powered[b]);
                assert!(b != 4 && b != dead as usize, "booted a dead machine");
            }
            booted.extend(fx.booted);
            assert_eq!(plan.placement.loads[dead as usize], 0.0);
            assert!(!plan.placement.powered[dead as usize]);
            assert_eq!((plan.served_rate, plan.shed_rate), (4_000.0, 0.0));
            let placed: f64 = plan.placement.loads.iter().sum();
            assert!(
                (placed - 4_000.0).abs() < 1e-6,
                "demand conserved: {placed}"
            );
        }
        // The event loop bills exactly those boots to Recovery (no
        // in-flight window, so no replay energy beside them).
        let events = [4, 5]
            .map(|machine| ChaosEvent {
                at: at(1_000.0),
                kind: ChaosEventKind::MachineCrash { machine },
            })
            .to_vec();
        let schedule = ChaosSchedule::scripted(6, 1, SimDuration::from_secs(2_000), events);
        let r = run_chaos(&fleet, &schedule, 4_000.0, &policy, &mut Tracer::off()).expect("valid");
        let bill: f64 = booted.iter().map(|&b| fleet[b].boot_energy.joules()).sum();
        assert!(bill > 0.0);
        assert!((r.recovery_energy().joules() - bill).abs() < 1e-9);
        assert_eq!(r.cold_boots, booted.len() as u64);
    }

    #[test]
    fn spread_fails_over_without_a_cold_boot() {
        let (fleet, policy, mut state) = refresh_state(PlacementPolicy::Spread, 4_000.0);
        let fx = state.apply(&fleet, &policy, 4_000.0, at(1_000.0), crash(0));
        // Everyone was already on — availability-first pays no boot.
        assert!(fx.quarantine.is_none() && fx.booted.is_empty());
        let plan = state.plan();
        assert_eq!(plan.placement.loads[0], 0.0);
        assert_eq!((plan.served_rate, plan.shed_rate), (4_000.0, 0.0));
    }

    #[test]
    fn losses_beyond_surviving_capacity_are_shed_not_dropped() {
        let (fleet, policy, mut state) = refresh_state(PlacementPolicy::Consolidate, 9_000.0);
        // Lose both new machines (4 000 of 9 000 capacity) at full
        // demand: survivors hold 5 000, so exactly 4 000 is shed.
        for dead in [4, 5] {
            state.apply(&fleet, &policy, 9_000.0, at(1_000.0), crash(dead));
        }
        let plan = state.plan();
        assert_eq!((plan.served_rate, plan.shed_rate), (5_000.0, 4_000.0));
        let placed: f64 = plan.placement.loads.iter().sum();
        assert!((placed - 5_000.0).abs() < 1e-6);
        assert_eq!(plan.placement.loads[4..], [0.0, 0.0]);
        // Lose the rest: everything is shed, nothing powered, no boots.
        for dead in 0..4 {
            let fx = state.apply(&fleet, &policy, 9_000.0, at(1_000.0), crash(dead));
            assert!(fx.booted.is_empty());
        }
        let plan = state.plan();
        assert_eq!((plan.served_rate, plan.shed_rate), (0.0, 9_000.0));
        assert_eq!(plan.placement.powered_count(), 0);
    }

    /// The placement this module shipped before the efficiency order was
    /// cached, kept as the oracle: collect the machines with capacity,
    /// sort *them*, fill.
    fn reference_place_replicated(
        fleet: &[Machine],
        policy: PlacementPolicy,
        n_domains: usize,
        eff_cap: &[f64],
        served_rate: f64,
        r_eff: u32,
    ) -> Placement {
        let n = fleet.len();
        let mut order: Vec<usize> = (0..n).filter(|&i| eff_cap[i] > 0.0).collect();
        if policy == PlacementPolicy::Consolidate {
            order.sort_by(by_peak_efficiency(fleet));
        }
        let mut loads = vec![0.0; n];
        let mut powered = vec![false; n];
        if policy == PlacementPolicy::Spread {
            for &i in &order {
                powered[i] = true;
            }
        }
        let mut dom_used = vec![0.0; n_domains];
        let mut rest = served_rate * r_eff as f64;
        for &i in &order {
            if rest <= 1e-12 {
                break;
            }
            let d = fleet[i].domain as usize;
            let room = eff_cap[i].min(served_rate - dom_used[d]);
            if room <= 0.0 {
                continue;
            }
            let take = rest.min(room);
            loads[i] = take;
            powered[i] = true;
            dom_used[d] += take;
            rest -= take;
        }
        Placement { loads, powered }
    }

    /// The plan `state`'s health calls for at `at`, derived from nothing
    /// but that health: fresh buffers, a fresh sort.
    fn reference_plan(
        state: &FleetState,
        fleet: &[Machine],
        policy: &ChaosPolicy,
        demand: f64,
        at: SimInstant,
    ) -> Plan {
        let eff_cap: Vec<f64> = (0..fleet.len())
            .map(|i| {
                if state.available(fleet, i, at) {
                    fleet[i].capacity * usable_frac(&fleet[i], state.cap_frac)
                } else {
                    0.0
                }
            })
            .collect();
        let n_domains = state.domain_up.len();
        let mut dom_caps = vec![0.0; n_domains];
        for (m, cap) in fleet.iter().zip(&eff_cap) {
            dom_caps[m.domain as usize] += cap;
        }
        let (r_eff, served_rate, shed_rate) = admission(
            &dom_caps,
            demand * state.surge,
            policy.replicas,
            &mut Vec::new(),
        );
        Plan {
            placement: reference_place_replicated(
                fleet,
                policy.placement,
                n_domains,
                &eff_cap,
                served_rate,
                r_eff,
            ),
            r_eff,
            served_rate,
            shed_rate,
        }
    }

    /// Drive `fleet` through `steps` random events — crashes and restarts
    /// (of flapping machines too, so the breaker holds some), domain
    /// outages, brownouts, surges, wake-ups; several at one instant, and
    /// every breaker wake-up together with a chaos event at its very
    /// timestamp — checking after each that the plan, the boots and the
    /// re-dispatch host are what the reference derives from scratch.
    fn check_against_reference(
        fleet: &[Machine],
        policy: &ChaosPolicy,
        demand: f64,
        seed: u64,
        steps: u32,
    ) {
        let n = fleet.len() as u64;
        let n_domains = domain_count(fleet);
        let mut rng = Gen::new(seed);
        let mut state = FleetState::new(fleet, n_domains as usize, policy, demand);
        assert_eq!(
            *state.plan(),
            reference_plan(&state, fleet, policy, demand, SimInstant::EPOCH)
        );
        let mut domain_up = vec![true; n_domains as usize];
        let mut wakes: Vec<SimInstant> = Vec::new();
        let mut now = SimInstant::EPOCH;
        let (mut held, mut woken, mut booted) = (0, 0, 0);
        for step in 0..steps {
            wakes.sort();
            let due = wakes.first().copied();
            let mut wake = None;
            match rng.below(4) {
                0 => {}
                1 => now += SimDuration::from_secs(rng.below(900)),
                _ => {
                    if let Some(due) = due.filter(|d| *d >= now) {
                        now = due;
                        woken += 1;
                        wake = Some(FleetEvent::Wake);
                    }
                }
            }
            wakes.retain(|w| *w > now);
            let machine = rng.below(n) as u32;
            let domain = rng.below(u64::from(n_domains)) as u32;
            let kind = match rng.below(10) {
                0..=3 if state.machine_up(machine as usize) => {
                    ChaosEventKind::MachineCrash { machine }
                }
                0..=3 => ChaosEventKind::MachineUp { machine },
                4 => {
                    let up = &mut domain_up[domain as usize];
                    *up = !*up;
                    if *up {
                        ChaosEventKind::DomainUp { domain }
                    } else {
                        ChaosEventKind::DomainDown { domain }
                    }
                }
                5 => ChaosEventKind::BrownoutStart {
                    cap_frac: [0.5, 0.6, 0.85][rng.below(3) as usize],
                },
                6 => ChaosEventKind::BrownoutEnd,
                7 => ChaosEventKind::SurgeStart {
                    factor: [0.5, 1.5, 3.0][rng.below(3) as usize],
                },
                8 => ChaosEventKind::SurgeEnd,
                _ => ChaosEventKind::MachineUp { machine },
            };
            // The chaos event first, then the wake-up due at the same
            // instant: the order the event queue delivers them in.
            for event in std::iter::once(FleetEvent::Chaos(kind)).chain(wake) {
                let before = state.plan().clone();
                let fx = state.apply(fleet, policy, demand, now, event);
                let what = format!("step {step}, {event:?} at {now}");
                if let Some((_, hold)) = fx.quarantine {
                    held += 1;
                    wakes.push(now + hold);
                    assert_eq!(*state.plan(), before, "{what}: a held restart re-planned");
                    assert!(fx.booted.is_empty(), "{what}");
                } else {
                    let expected = reference_plan(&state, fleet, policy, demand, now);
                    assert_eq!(*state.plan(), expected, "{what}");
                    let boots: Vec<usize> = (0..fleet.len())
                        .filter(|&i| expected.placement.powered[i] && !before.placement.powered[i])
                        .collect();
                    booted += boots.len();
                    assert_eq!(fx.booted, boots, "{what}");
                }
                let host = (0..fleet.len())
                    .filter(|&i| state.available(fleet, i, now))
                    .min_by(by_peak_efficiency(fleet));
                assert_eq!(state.best_available(fleet, now), host, "{what}");
            }
        }
        assert!(held > 0, "the storm never tripped the breaker");
        assert!(woken > 0, "no wake-up ever shared an instant with an event");
        if policy.placement == PlacementPolicy::Consolidate {
            assert!(booted > 0, "the storm never cold-booted a machine");
        }
    }

    #[test]
    fn cached_efficiency_order_places_like_a_fresh_sort() {
        // Three efficiency classes: almost every comparison is a tie,
        // broken on the fleet index.
        let tied = crate::cluster::chaos_fleet(4, 6);
        // Every efficiency distinct, and interleaved across domains.
        let distinct: Vec<Machine> = (0..24)
            .map(|i| {
                let capacity = 1_000.0 + 37.0 * f64::from((i * 7) % 24);
                Machine::new(
                    &format!("m{i}"),
                    capacity,
                    Watts::new(200.0),
                    Watts::new(400.0),
                )
                .with_domain(i % 4)
            })
            .collect();
        let mut seed = 0x5eed;
        for fleet in [&tied, &distinct] {
            let capacity: f64 = fleet.iter().map(|m| m.capacity).sum();
            for (placement, replicas) in [
                (PlacementPolicy::Spread, 1),
                (PlacementPolicy::Consolidate, 1),
                (PlacementPolicy::Consolidate, 2),
                (PlacementPolicy::Consolidate, 3),
            ] {
                let policy = ChaosPolicy {
                    placement,
                    replicas,
                    ..ChaosPolicy::default()
                };
                for frac in [0.25, 0.60] {
                    seed += 1;
                    check_against_reference(fleet, &policy, capacity * frac, seed, 400);
                }
            }
        }
    }

    /// `state` with nothing cached: its next re-plan recomputes every
    /// machine's capacity and its next fill clears every machine.
    fn uncached(state: &FleetState) -> FleetState {
        let mut fresh = state.clone();
        fresh.scratch.at = None;
        fresh.scratch.walked = None;
        fresh
    }

    /// 3–6 domains of 1–11 machines each, every machine in a drawn domain,
    /// its capacity and power curve (flat ones too) drawn from a few
    /// classes.
    fn drawn_fleet(g: &mut Gen) -> (Vec<Machine>, u32) {
        let domains = g.range(3u32..7);
        let machines = g.range(domains..12 * domains);
        let fleet = (0..machines)
            .map(|i| {
                let capacity = g.pick(&[500.0, 1_000.0, 1_500.0, 2_000.0]);
                let idle = g.pick(&[100.0, 180.0, 300.0]);
                let peak = idle + g.pick(&[0.0, 50.0, 170.0]);
                Machine::new(
                    &format!("m{i}"),
                    capacity,
                    Watts::new(idle),
                    Watts::new(peak),
                )
                .with_domain(if i < domains { i } else { g.range(0..domains) })
            })
            .collect();
        (fleet, domains)
    }

    /// A chaos event for `fleet` at a drawn machine or domain, a restart
    /// when the crash it drew hits a machine that is down.
    fn drawn_event(g: &mut Gen, machine_up: &[bool], domain_up: &mut [bool]) -> ChaosEventKind {
        let machine = g.range(0..machine_up.len() as u32);
        let domain = g.range(0..domain_up.len() as u32);
        match g.below(10) {
            0..=3 if machine_up[machine as usize] => ChaosEventKind::MachineCrash { machine },
            0..=4 => ChaosEventKind::MachineUp { machine },
            5 => {
                let up = &mut domain_up[domain as usize];
                *up = !*up;
                if *up {
                    ChaosEventKind::DomainUp { domain }
                } else {
                    ChaosEventKind::DomainDown { domain }
                }
            }
            6 => ChaosEventKind::BrownoutStart {
                cap_frac: g.pick(&[0.5, 0.6, 0.85, 1.0]),
            },
            7 => ChaosEventKind::BrownoutEnd,
            8 => ChaosEventKind::SurgeStart {
                factor: g.pick(&[0.5, 1.5, 3.0]),
            },
            _ => ChaosEventKind::SurgeEnd,
        }
    }

    /// On drawn fleets (3–6 domains, r ≤ 4) under drawn events — crashes
    /// and restarts that trip the breaker, domain outages, brownouts,
    /// surges, and wake-ups at pending deadlines or anywhere, earlier
    /// than the last re-plan too — every `apply` returns the `Effects`,
    /// plan and re-dispatch host of the same state with nothing cached,
    /// and names as changed exactly the machines whose load or power
    /// moved. Then `run_chaos` over a schedule of such events records,
    /// through its delta placements, the plans of `FleetState` driven by
    /// the same event order.
    #[test]
    fn cached_state_matches_a_rebuilt_one() {
        grail_prop::check(256, |g| {
            let (fleet, domains) = drawn_fleet(g);
            let policy = ChaosPolicy {
                placement: g.pick(&[PlacementPolicy::Spread, PlacementPolicy::Consolidate]),
                replicas: g.range(1u32..5),
                breaker: BreakerPolicy {
                    base_quarantine: SimDuration::from_secs(g.range(60u64..900)),
                    multiplier: g.range(1u32..4),
                    reset_window: SimDuration::from_secs(3_600),
                },
                ..ChaosPolicy::default()
            };
            let demand = g.range(0.05f64..0.95) * fleet.iter().map(|m| m.capacity).sum::<f64>();
            let n = fleet.len();
            let mut state = FleetState::new(&fleet, domains as usize, &policy, demand);
            let mut domain_up = vec![true; domains as usize];
            let (mut now, mut wakes) = (SimInstant::EPOCH, Vec::new());
            for step in 0..g.range(1usize..120) {
                let mut policy = policy;
                if g.one_in(16) {
                    // The API takes the policy per call: a switch re-plans
                    // under the other order.
                    let placements = [PlacementPolicy::Spread, PlacementPolicy::Consolidate];
                    policy.placement = g.pick(&placements);
                }
                // Chaos events run on a clock that never goes back (the
                // breaker's window needs it); wake-ups land anywhere.
                let (at, event) = match g.below(8) {
                    0 if !wakes.is_empty() => (g.pick(&wakes), FleetEvent::Wake),
                    1 => {
                        let earliest = now.as_nanos().saturating_sub(900_000_000_000);
                        let late = SimDuration::from_secs(g.range(0u64..1_800));
                        (SimInstant::from_nanos(earliest) + late, FleetEvent::Wake)
                    }
                    k => {
                        if k == 2 {
                            now += SimDuration::from_secs(g.range(0u64..900));
                        }
                        let kind = drawn_event(g, &state.machine_up, &mut domain_up);
                        (now, FleetEvent::Chaos(kind))
                    }
                };
                let before = state.plan().clone();
                let mut fresh = uncached(&state);
                let fx = state.apply(&fleet, &policy, demand, at, event);
                let what = format!("step {step}, {event:?} at {at}");
                assert_eq!(
                    fx,
                    fresh.apply(&fleet, &policy, demand, at, event),
                    "{what}"
                );
                assert_eq!(state.plan(), fresh.plan(), "{what}");
                let host = fresh.best_available(&fleet, at);
                assert_eq!(state.best_available(&fleet, at), host, "{what}");
                let stranded: f64 = match event {
                    FleetEvent::Chaos(ChaosEventKind::MachineCrash { machine }) => {
                        before.placement.loads[machine as usize]
                    }
                    FleetEvent::Chaos(ChaosEventKind::DomainDown { domain }) => (0..n)
                        .filter(|&i| fleet[i].domain == domain)
                        .map(|i| before.placement.loads[i])
                        .sum(),
                    _ => 0.0,
                };
                assert_eq!(fx.stranded_rate.to_bits(), stranded.to_bits(), "{what}");
                if let Some((_, hold)) = fx.quarantine {
                    wakes.push(at.saturating_add(hold));
                    continue;
                }
                let (old, new) = (&before.placement, &state.plan().placement);
                let moved: Vec<usize> = (0..n)
                    .filter(|&i| {
                        old.loads[i].to_bits() != new.loads[i].to_bits()
                            || old.powered[i] != new.powered[i]
                    })
                    .collect();
                assert_eq!(state.scratch.changed, moved, "{what}");
            }

            let horizon = SimDuration::from_secs(20_000);
            let (mut machine_up, mut domain_up) = (vec![true; n], vec![true; domains as usize]);
            let mut events = Vec::new();
            let mut t = SimInstant::EPOCH;
            for _ in 0..g.range(0usize..60) {
                t += SimDuration::from_secs(g.range(0u64..600));
                let kind = drawn_event(g, &machine_up, &mut domain_up);
                match kind {
                    ChaosEventKind::MachineCrash { machine } => {
                        machine_up[machine as usize] = false
                    }
                    ChaosEventKind::MachineUp { machine } => machine_up[machine as usize] = true,
                    _ => {}
                }
                events.push(ChaosEvent { at: t, kind });
            }
            let schedule = ChaosSchedule::scripted(n as u32, domains, horizon, events);
            let r = run_chaos(&fleet, &schedule, demand, &policy, &mut Tracer::off())
                .expect("a valid drawn run");
            // The event loop's order, less re-dispatch (which re-plans
            // nothing): schedule events by index, wake-ups as pushed.
            let mut state = FleetState::new(&fleet, domains as usize, &policy, demand);
            let mut plans = vec![(SimInstant::EPOCH, state.plan().clone())];
            let mut queue = EventQueue::new();
            for ev in schedule.events() {
                queue.push(ev.at, FleetEvent::Chaos(ev.kind));
            }
            let end = SimInstant::EPOCH + horizon;
            while let Some((at, event)) = queue.pop() {
                if at >= end {
                    continue;
                }
                match state.apply(&fleet, &policy, demand, at, event).quarantine {
                    Some((_, hold)) => queue.push(at.saturating_add(hold), FleetEvent::Wake),
                    None => plans.push((at, state.plan().clone())),
                }
            }
            assert_eq!(r.placements.len(), plans.len());
            let bits = |loads: &[f64]| loads.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
            for (k, (p, (at, plan))) in r.placements.iter().zip(&plans).enumerate() {
                assert_eq!(p.at, *at, "decision {k}");
                assert_eq!(bits(&p.loads), bits(&plan.placement.loads), "decision {k}");
                assert_eq!(
                    p.powered as usize,
                    plan.placement.powered_count(),
                    "decision {k}"
                );
                assert_eq!(
                    (p.served_rate, p.shed_rate, p.replicas),
                    (plan.served_rate, plan.shed_rate, plan.r_eff),
                    "decision {k}"
                );
            }
            let k = g.range(0..plans.len());
            assert_eq!(r.placements.get(k), r.placements.iter().nth(k));
            assert_eq!(r.placements.last(), r.placements.get(plans.len() - 1));
            assert_eq!(r.placements.get(plans.len()), None);
        });
    }

    /// A breaker hold that saturates at `SimDuration::MAX` is a deadline
    /// past every horizon. Machine 0 crashing and restarting a second
    /// apart holds for `300 s · 10^(trips - 2)`, which saturates at the
    /// tenth crash; the deadline used to be a plain add, which panicked
    /// on overflow in debug and, in release, wrapped round to just
    /// before the restart and let the machine straight back in.
    #[test]
    fn a_saturated_breaker_hold_keeps_the_machine_out() {
        let fleet = crate::cluster::chaos_fleet(2, 3);
        let policy = ChaosPolicy {
            placement: PlacementPolicy::Spread,
            replicas: 1,
            breaker: BreakerPolicy {
                multiplier: 10,
                ..BreakerPolicy::default()
            },
            ..ChaosPolicy::default()
        };
        let demand = 0.3 * fleet.iter().map(|m| m.capacity).sum::<f64>();
        let mut events = Vec::new();
        for k in 0..12 {
            for (dt, kind) in [
                (1.0, ChaosEventKind::MachineCrash { machine: 0 }),
                (2.0, ChaosEventKind::MachineUp { machine: 0 }),
            ] {
                events.push(ChaosEvent {
                    at: at(2.0 * f64::from(k) + dt),
                    kind,
                });
            }
        }
        let mut state = FleetState::new(&fleet, 2, &policy, demand);
        for ev in &events {
            state.apply(&fleet, &policy, demand, ev.at, FleetEvent::Chaos(ev.kind));
        }
        assert_eq!(state.trips(0), 12);
        assert_eq!(state.quarantined_until(0), SimInstant::MAX);
        assert!(!state.available(&fleet, 0, at(25.0)));
        state.apply(&fleet, &policy, demand, at(86_400.0), FleetEvent::Wake);
        assert_eq!(state.plan().placement.loads[0], 0.0);

        let schedule = ChaosSchedule::scripted(6, 2, SimDuration::from_secs(100), events);
        let r = run_chaos(&fleet, &schedule, demand, &policy, &mut Tracer::off()).expect("valid");
        check_conservation(&r);
        assert_eq!(r.breaker_trips, 11, "every restart after the first is held");
        let first = r.placements.get(0).expect("the initial plan");
        assert!(first.loads[0] > 0.0, "Spread fills machine 0 first");
        for p in r.placements.iter().filter(|p| p.at >= at(19.0)) {
            assert_eq!(p.loads[0], 0.0, "machine 0 loaded at {}", p.at);
        }
    }

    /// A breaker wake and a re-dispatch land on the instant of a
    /// schedule event: the schedule event goes first, then the engine's
    /// own events in the order they were scheduled.
    #[test]
    fn a_schedule_event_goes_before_a_wake_and_a_redispatch_at_its_instant() {
        // Crashes at 1 000 and 1 200 strand work re-dispatched 800 s
        // later; the restart at 1 300 is held 500 s. So at 1 800 the
        // first re-dispatch and the wake meet the crash of machine 0.
        let schedule = script(
            10_000,
            &[
                (1_000.0, ChaosEventKind::MachineCrash { machine: 0 }),
                (1_100.0, ChaosEventKind::MachineUp { machine: 0 }),
                (1_200.0, ChaosEventKind::MachineCrash { machine: 0 }),
                (1_300.0, ChaosEventKind::MachineUp { machine: 0 }),
                (1_800.0, ChaosEventKind::MachineCrash { machine: 0 }),
            ],
        );
        let policy = ChaosPolicy {
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: SimDuration::from_secs(800),
                multiplier: 1,
            },
            ..flap_policy()
        };
        let r = run(&schedule, 100.0, &policy);
        // The crash finds machine 0 still held, so it strands nothing; the
        // wake then leaves it out, and the re-dispatch replays elsewhere.
        // Taken the other way round, the re-dispatch would replay on
        // machine 0, the wake would load it, and the crash would strand
        // a third batch.
        let counters = (r.crashes, r.restarts, r.breaker_trips, r.cold_boots);
        assert_eq!(counters, (3, 2, 1, 1));
        assert_eq!(r.redispatches, 2);
        let work = [r.stranded, r.recovered, r.failed].map(f64::to_bits);
        assert_eq!(work, [6_000.0, 6_000.0, 0.0].map(f64::to_bits));
        let placements: Vec<_> = (r.placements.iter())
            .map(|p| (p.at.as_nanos() / 1_000_000_000, p.loads))
            .collect();
        let (off_0, on_0) = (vec![0.0, 100.0, 100.0, 0.0], vec![100.0, 0.0, 100.0, 0.0]);
        let want = [
            (0, on_0.clone()),
            (1_000, off_0.clone()),
            (1_100, on_0),
            (1_200, off_0.clone()),
            (1_800, off_0.clone()),
            (1_800, off_0),
        ];
        assert_eq!(placements, want);
        let bits = |e: Joules| e.joules().to_bits();
        let ledger: Vec<_> = (r.ledger.iter())
            .map(|(id, e)| (id.to_string(), bits(e)))
            .collect();
        let want = [
            ("base[0]", 0x4104_2440_0000_0000),
            ("base[1]", 0x4135_35b0_0000_0000),
            ("base[2]", 0x4136_e360_0000_0000),
            ("base[3]", 0x411e_8480_0000_0000),
            ("recovery[0]", 0x40d2_7500_0000_0000),
        ];
        assert_eq!(ledger, want.map(|(id, b)| (id.to_string(), b)));
        assert_eq!(bits(r.ledger.total()), 0x414b_4446_0000_0000);
    }

    #[test]
    #[should_panic(expected = "fleet spans 2 fault domains, n_domains is 1")]
    fn fleet_state_rejects_too_few_domains_at_the_door() {
        FleetState::new(&small_fleet(), 1, &ChaosPolicy::default(), 100.0);
    }

    #[test]
    fn breaker_policy_quarantine_saturates() {
        let b = BreakerPolicy::default();
        assert_eq!(b.quarantine(0), SimDuration::ZERO);
        assert_eq!(b.quarantine(1), SimDuration::ZERO);
        assert_eq!(b.quarantine(2), SimDuration::from_secs(300));
        assert_eq!(b.quarantine(3), SimDuration::from_secs(600));
        assert_eq!(b.quarantine(u32::MAX), b.quarantine(18));
        let worst = BreakerPolicy {
            base_quarantine: SimDuration::from_secs(3600),
            multiplier: u32::MAX,
            reset_window: SimDuration::MAX,
        };
        assert_eq!(worst.quarantine(u32::MAX), SimDuration::MAX);
    }

    #[test]
    fn same_inputs_identical_reports_and_traces() {
        let (fleet, schedule, demand, policy) = reference_storm();
        let run = || {
            let mut tracer = Tracer::on(Recorder::new(1 << 16));
            let r = run_chaos(&fleet, &schedule, demand, &policy, &mut tracer).expect("valid");
            let rec = tracer.take().expect("tracer on");
            assert_eq!(rec.dropped(), 0, "ring overflowed");
            assert_eq!(rec.metrics().counter("trace.dropped"), 0);
            let exports = [
                grail_trace::to_jsonl(&rec),
                grail_trace::to_chrome(&rec),
                grail_metrics::to_prometheus(rec.metrics()),
            ];
            (r, exports)
        };
        let (ra, ta) = run();
        let (rb, tb) = run();
        assert_eq!(ra, rb);
        assert_eq!(ta, tb);
    }

    #[test]
    fn reference_storm_is_stormy_but_survivable() {
        let (fleet, schedule, demand, policy) = reference_storm();
        let r = run_chaos(&fleet, &schedule, demand, &policy, &mut Tracer::off()).expect("valid");
        check_conservation(&r);
        assert!(r.crashes > 0, "a two-day storm must crash something");
        assert!(r.availability() >= DOCUMENTED_AVAILABILITY_FLOOR);
        assert!(r.recovery_energy().joules() > 0.0);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let fleet = small_fleet();
        let p = ChaosPolicy::default();
        let mut t = Tracer::off();
        assert!(matches!(
            run_chaos(&[], &calm(10), 1.0, &p, &mut t),
            Err(ClusterError::EmptyFleet)
        ));
        let wrong_machines = ChaosSchedule::scripted(3, 2, SimDuration::from_secs(10), vec![]);
        let wrong_domains = ChaosSchedule::scripted(4, 1, SimDuration::from_secs(10), vec![]);
        let zero_replicas = ChaosPolicy {
            replicas: 0,
            ..ChaosPolicy::default()
        };
        for (schedule, demand, policy) in [
            (&wrong_machines, 1.0, &p),
            (&wrong_domains, 1.0, &p),
            (&calm(10), f64::NAN, &p),
            (&calm(10), 1.0, &zero_replicas),
        ] {
            assert!(matches!(
                run_chaos(&fleet, schedule, demand, policy, &mut t),
                Err(ClusterError::BadSchedule(_))
            ));
        }
        // Scripted events are checked once, up front: an index outside
        // the fleet or a poisonous parameter is an error, never a panic
        // or a silent clamp.
        let mut run = |kind| run_chaos(&fleet, &script(10, &[(1.0, kind)]), 1.0, &p, &mut t);
        for machine in [4, 9] {
            for kind in [
                ChaosEventKind::MachineCrash { machine },
                ChaosEventKind::MachineUp { machine },
            ] {
                let unknown = ClusterError::UnknownMachine(machine as usize);
                assert_eq!(run(kind).unwrap_err(), unknown);
            }
        }
        for kind in [
            ChaosEventKind::DomainDown { domain: 7 },
            ChaosEventKind::DomainUp { domain: 2 },
            ChaosEventKind::BrownoutStart { cap_frac: f64::NAN },
            ChaosEventKind::BrownoutStart { cap_frac: 0.0 },
            ChaosEventKind::BrownoutStart { cap_frac: 1.5 },
            ChaosEventKind::SurgeStart { factor: -1.0 },
            ChaosEventKind::SurgeStart { factor: 0.0 },
            ChaosEventKind::SurgeStart {
                factor: f64::INFINITY,
            },
        ] {
            assert!(
                matches!(run(kind), Err(ClusterError::BadSchedule(_))),
                "{kind:?} accepted"
            );
        }
        for kind in [
            ChaosEventKind::BrownoutStart { cap_frac: 1.0 },
            ChaosEventKind::SurgeStart { factor: 0.5 },
        ] {
            assert!(run(kind).is_ok(), "{kind:?} rejected");
        }
    }

    #[test]
    fn a_replay_past_f64s_range_is_a_typed_error() {
        // Both machines pass `Machine::validate`, but a share of `b`'s
        // 3e299 work/s replayed on `a` at 5e-301 work/J bills over 1e600 J.
        let fleet = [
            Machine::new("a", 1e-300, Watts::new(1.0), Watts::new(2.0)).with_domain(0),
            Machine::new("b", 1e300, Watts::new(1.0), Watts::new(2.0)).with_domain(1),
        ];
        let storm = *reference_storm().1.config();
        let schedule = ChaosSchedule::generate(storm, 7, 2, 2, SimDuration::from_secs(86_400));
        let demand = 0.3 * fleet.iter().map(|m| m.capacity).sum::<f64>();
        for (placement, replicas) in [
            (PlacementPolicy::Spread, 1),
            (PlacementPolicy::Consolidate, 2),
        ] {
            let policy = ChaosPolicy {
                placement,
                replicas,
                ..ChaosPolicy::default()
            };
            let err =
                run_chaos(&fleet, &schedule, demand, &policy, &mut Tracer::off()).unwrap_err();
            assert!(matches!(err, ClusterError::BadSchedule(_)), "{err}");
        }
    }

    #[test]
    fn max_replica_rate_walks_breakpoints() {
        // Two domains 100 and 1, r = 2: S* solves min(100,S)+min(1,S) = 2S.
        assert!((max_replica_rate(&[100.0, 1.0], 2) - 1.0).abs() < 1e-12);
        // r = 1: everything fits up to total capacity.
        assert!((max_replica_rate(&[100.0, 1.0], 1) - 101.0).abs() < 1e-12);
        // r equal to live domains: bounded by the smallest domain.
        assert!((max_replica_rate(&[40.0, 60.0, 80.0], 3) - 40.0).abs() < 1e-12);
        // More replicas than live domains: nothing placeable.
        assert_eq!(max_replica_rate(&[40.0, 60.0], 3), 0.0);
        assert_eq!(max_replica_rate(&[], 1), 0.0);
        // Dead domains are ignored.
        assert!((max_replica_rate(&[0.0, 50.0, 50.0], 2) - 50.0).abs() < 1e-12);
    }
}
