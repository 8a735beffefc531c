//! Bridge from scheduler decisions to trace events.
//!
//! The scheduler's policies are pure functions over plain data — they
//! know nothing about tracing. This module converts their outcomes
//! ([`Placement`], [`Failover`], [`AdmissionOutcome`]) into
//! [`grail_trace`] events after the fact, so callers that carry a
//! [`Tracer`] can make every consolidation and fail-over decision
//! visible without the policies themselves growing a tracing
//! dependency in their signatures.

use crate::admission::{AdmissionOutcome, AdmissionPolicy};
use crate::cluster::{Failover, Machine, Placement};
use grail_power::units::{Joules, SimDuration, SimInstant};
use grail_sim::fault::{ChaosEvent, ChaosEventKind};
use grail_trace::{Category, TraceEvent, TraceTime, Tracer, Track};

#[inline]
fn tt(at: SimInstant) -> TraceTime {
    TraceTime::from_nanos(at.as_nanos())
}

/// Record a computed placement: how many machines stay powered, the
/// fleet power, and the resulting efficiency.
pub fn record_placement(
    tracer: &mut Tracer,
    at: SimInstant,
    fleet: &[Machine],
    placement: &Placement,
    policy: &'static str,
) {
    tracer.count("scheduler.placements", 1);
    tracer.emit(Category::Scheduler, || {
        let demand: f64 = placement.loads.iter().sum();
        TraceEvent::instant(tt(at), Category::Scheduler, "scheduler.placement", {
            Track::Main
        })
        .arg("policy", policy)
        .arg("powered", placement.powered_count() as u64)
        .arg("fleet", fleet.len() as u64)
        .arg("demand", demand)
        .arg("power_w", placement.power(fleet).get())
        .arg("efficiency", placement.efficiency(fleet))
    });
}

/// Record a fail-over: the displaced load, which machines cold-booted,
/// and what the recovery cost in energy and latency.
pub fn record_failover(tracer: &mut Tracer, at: SimInstant, failed: usize, failover: &Failover) {
    tracer.count("scheduler.failovers", 1);
    tracer.count("scheduler.cold_boots", failover.booted.len() as u64);
    tracer.emit(Category::Scheduler, || {
        TraceEvent::instant(tt(at), Category::Scheduler, "scheduler.failover", {
            Track::Main
        })
        .arg("failed", failed as u64)
        .arg("displaced", failover.displaced)
        .arg("booted", failover.booted.len() as u64)
        .arg("boot_j", failover.boot_energy.joules())
        .arg("boot_latency_s", failover.boot_latency.as_secs_f64())
    });
}

/// Record an admission schedule: one instant per release point (batch),
/// carrying the batch size, plus a summary instant with the mean added
/// latency the batching bought.
pub fn record_admission(
    tracer: &mut Tracer,
    policy: &AdmissionPolicy,
    arrivals: &[SimInstant],
    outcome: &AdmissionOutcome,
) {
    tracer.count("scheduler.admitted", outcome.dispatches.len() as u64);
    tracer.count("scheduler.batches", outcome.batches as u64);
    if !tracer.enabled(Category::Scheduler) || outcome.dispatches.is_empty() {
        return;
    }
    // One instant per distinct release point; dispatches are
    // nondecreasing, so a linear group-by suffices.
    let mut i = 0usize;
    while i < outcome.dispatches.len() {
        let release = outcome.dispatches[i];
        let mut j = i;
        while j < outcome.dispatches.len() && outcome.dispatches[j] == release {
            j += 1;
        }
        let size = (j - i) as u64;
        tracer.emit(Category::Scheduler, || {
            TraceEvent::instant(tt(release), Category::Scheduler, "scheduler.release", {
                Track::Main
            })
            .arg("policy", policy.name())
            .arg("queries", size)
        });
        i = j;
    }
    let Some(&last) = outcome.dispatches.last() else {
        return; // unreachable: emptiness checked above
    };
    tracer.emit(Category::Scheduler, || {
        TraceEvent::instant(tt(last), Category::Scheduler, "scheduler.admission", {
            Track::Main
        })
        .arg("policy", policy.name())
        .arg("queries", outcome.dispatches.len() as u64)
        .arg("batches", outcome.batches as u64)
        .arg(
            "mean_added_latency_s",
            outcome.mean_added_latency_secs(arrivals),
        )
    });
}

/// Record a chaos-schedule event (crash, restart, outage, brownout,
/// surge) as a fault instant named after the event kind.
pub fn record_chaos_event(tracer: &mut Tracer, ev: &ChaosEvent) {
    tracer.count("chaos.events", 1);
    // Hour-windowed event rate: storms show up as spikes in the scrape
    // series without anyone post-processing the raw counter.
    tracer.rate("chaos.event_rate", 3_600_000_000_000, ev.at.as_nanos(), 1);
    tracer.emit(Category::Fault, || {
        let e = TraceEvent::instant(tt(ev.at), Category::Fault, ev.kind.name(), Track::Main);
        match ev.kind {
            ChaosEventKind::MachineCrash { machine } | ChaosEventKind::MachineUp { machine } => {
                e.arg("machine", machine as u64)
            }
            ChaosEventKind::DomainDown { domain } | ChaosEventKind::DomainUp { domain } => {
                e.arg("domain", domain as u64)
            }
            ChaosEventKind::BrownoutStart { cap_frac } => e.arg("cap_frac", cap_frac),
            ChaosEventKind::SurgeStart { factor } => e.arg("factor", factor),
            ChaosEventKind::BrownoutEnd | ChaosEventKind::SurgeEnd => e,
        }
    });
}

/// Record a chaos-engine re-placement: what is powered, served, shed,
/// and at what replication level, after reacting to an event.
pub fn record_chaos_placement(
    tracer: &mut Tracer,
    at: SimInstant,
    powered: u32,
    served_rate: f64,
    shed_rate: f64,
    replicas: u32,
) {
    tracer.count("chaos.placements", 1);
    tracer.gauge("chaos.served_rate", served_rate);
    tracer.gauge("chaos.shed_rate", shed_rate);
    tracer.gauge("chaos.replicas", f64::from(replicas));
    tracer.emit(Category::Scheduler, || {
        TraceEvent::instant(tt(at), Category::Scheduler, "chaos.placement", Track::Main)
            .arg("powered", powered as u64)
            .arg("served_rate", served_rate)
            .arg("shed_rate", shed_rate)
            .arg("replicas", replicas as u64)
    });
}

/// Record a circuit-breaker trip: a flapping machine held in quarantine
/// after restart instead of rejoining the fleet.
pub fn record_chaos_breaker(
    tracer: &mut Tracer,
    at: SimInstant,
    machine: usize,
    trips: u32,
    hold: SimDuration,
) {
    tracer.count("chaos.breaker_trips", 1);
    tracer.emit(Category::Scheduler, || {
        TraceEvent::instant(tt(at), Category::Scheduler, "chaos.breaker", Track::Main)
            .arg("machine", machine as u64)
            .arg("trips", trips as u64)
            .arg("quarantine_s", hold.as_secs_f64())
    });
}

/// Record a re-dispatch attempt for stranded work: recovered (with the
/// hedged replay energy billed to Recovery) or finally failed.
pub fn record_chaos_redispatch(
    tracer: &mut Tracer,
    at: SimInstant,
    work: f64,
    attempt: u32,
    recovered: bool,
    replay: Joules,
) {
    tracer.count("chaos.redispatches", 1);
    tracer.emit(Category::Scheduler, || {
        TraceEvent::instant(tt(at), Category::Scheduler, "chaos.redispatch", Track::Main)
            .arg("work", work)
            .arg("attempt", attempt as u64)
            .arg("recovered", recovered as u64)
            .arg("replay_j", replay.joules())
    });
}

/// Record a recovery cold boot billed by the chaos engine.
pub fn record_chaos_boot(tracer: &mut Tracer, at: SimInstant, machine: usize, boot: Joules) {
    tracer.count("chaos.cold_boots", 1);
    tracer.emit(Category::Scheduler, || {
        TraceEvent::instant(tt(at), Category::Scheduler, "chaos.cold_boot", Track::Main)
            .arg("machine", machine as u64)
            .arg("boot_j", boot.joules())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::BatchWindow;
    use crate::cluster::{fail_over, place, refresh_cycle_fleet, PlacementPolicy};
    use grail_power::units::SimDuration;
    use grail_trace::Recorder;

    fn at(s: f64) -> SimInstant {
        SimInstant::from_secs_f64(s)
    }

    #[test]
    fn placement_and_failover_events_recorded() {
        let fleet = refresh_cycle_fleet();
        let p = place(&fleet, 4000.0, PlacementPolicy::Consolidate).expect("fits");
        let fo = fail_over(&fleet, &p, &[4], PlacementPolicy::Consolidate).expect("survivable");
        let mut tracer = Tracer::on(Recorder::new(64));
        record_placement(&mut tracer, at(0.0), &fleet, &p, "consolidate");
        record_failover(&mut tracer, at(10.0), 4, &fo);
        let rec = tracer.take().expect("tracer is on");
        let names: Vec<&str> = rec.events().map(|e| e.name).collect();
        assert_eq!(names, vec!["scheduler.placement", "scheduler.failover"]);
        assert_eq!(rec.metrics().counter("scheduler.placements"), 1);
        assert_eq!(rec.metrics().counter("scheduler.failovers"), 1);
        assert!(rec.metrics().counter("scheduler.cold_boots") > 0);
    }

    #[test]
    fn admission_releases_group_by_batch() {
        let arrivals = vec![at(0.0), at(1.0), at(2.0), at(10.0)];
        let policy = AdmissionPolicy::Batched(BatchWindow {
            window: SimDuration::from_secs(3),
        });
        let outcome = policy.schedule(&arrivals);
        let mut tracer = Tracer::on(Recorder::new(64));
        record_admission(&mut tracer, &policy, &arrivals, &outcome);
        let rec = tracer.take().expect("tracer is on");
        let releases: Vec<_> = rec
            .events()
            .filter(|e| e.name == "scheduler.release")
            .collect();
        assert_eq!(releases.len(), 2, "two batches, two release instants");
        assert_eq!(rec.metrics().counter("scheduler.admitted"), 4);
        assert_eq!(rec.metrics().counter("scheduler.batches"), 2);
        assert!(rec.events().any(|e| e.name == "scheduler.admission"));
    }

    #[test]
    fn chaos_helpers_emit_named_events_and_counters() {
        let mut tracer = Tracer::on(Recorder::new(64));
        let ev = ChaosEvent {
            at: at(5.0),
            kind: ChaosEventKind::MachineCrash { machine: 3 },
        };
        record_chaos_event(&mut tracer, &ev);
        record_chaos_placement(&mut tracer, at(5.0), 7, 1000.0, 250.0, 2);
        record_chaos_breaker(&mut tracer, at(6.0), 3, 2, SimDuration::from_secs(300));
        record_chaos_redispatch(&mut tracer, at(7.0), 42.0, 1, true, Joules::new(10.0));
        record_chaos_boot(&mut tracer, at(8.0), 5, Joules::new(9_000.0));
        let rec = tracer.take().expect("tracer is on");
        let names: Vec<&str> = rec.events().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "chaos.machine_crash",
                "chaos.placement",
                "chaos.breaker",
                "chaos.redispatch",
                "chaos.cold_boot"
            ]
        );
        assert_eq!(rec.metrics().counter("chaos.events"), 1);
        assert_eq!(rec.metrics().counter("chaos.breaker_trips"), 1);
        assert_eq!(rec.metrics().counter("chaos.redispatches"), 1);
        assert_eq!(rec.metrics().counter("chaos.cold_boots"), 1);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let fleet = refresh_cycle_fleet();
        let p = place(&fleet, 1000.0, PlacementPolicy::Spread).expect("fits");
        let mut tracer = Tracer::off();
        record_placement(&mut tracer, at(0.0), &fleet, &p, "spread");
        assert!(tracer.take().is_none());
    }
}
