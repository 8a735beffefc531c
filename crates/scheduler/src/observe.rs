//! Bridge from the chaos engine to trace events.
//!
//! [`crate::chaos::FleetState`] is a pure state machine — it knows
//! nothing about tracing. [`crate::chaos::run_chaos`] turns the schedule
//! events it feeds it and the effects it gets back into [`grail_trace`]
//! events and `chaos.*` counters and gauges through these helpers.

use grail_power::units::{Joules, SimDuration, SimInstant};
use grail_sim::fault::{ChaosEvent, ChaosEventKind};
use grail_trace::{Category, TraceEvent, TraceTime, Tracer, Track};

#[inline]
fn tt(at: SimInstant) -> TraceTime {
    TraceTime::from_nanos(at.as_nanos())
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
    use grail_trace::Recorder;

    fn at(s: f64) -> SimInstant {
        SimInstant::from_secs_f64(s)
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
}
