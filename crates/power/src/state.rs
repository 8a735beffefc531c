//! Power-state machines with costed transitions.
//!
//! The paper (Sec. 2.4, 4.2) stresses that current components "are either
//! on … or off, and the transitions can be expensive", and that software
//! must reason about whether an idle period is long enough to amortize a
//! state switch. Every component modeled here is [`PowerState::Active`]
//! or [`PowerState::Idle`], switching between the two for free; a disk
//! can also drop to [`PowerState::Standby`] from idle, paying the latency
//! and energy of its [`Spin`] each way. [`PowerStateMachine`] accumulates
//! energy in closed form as simulated time advances and refuses any other
//! change, as well as a time-travelling one.

use crate::error::PowerError;
use crate::units::{Joules, SimDuration, SimInstant, Watts};

/// The power states of a component; the discriminant indexes
/// [`MachineSummary::per_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// Doing work: seeking, transferring, executing.
    Active = 0,
    /// Ready, not working.
    Idle = 1,
    /// Spun down: only a machine with a [`Spin`] reaches it, from idle.
    Standby = 2,
}

/// The cost of one state change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Time during which the component is unavailable.
    pub latency: SimDuration,
    /// Total energy consumed by the transition itself (e.g. a disk
    /// spin-up's motor surge). Charged in addition to neither endpoint
    /// state's steady power: during the transition the machine draws
    /// `energy / latency` on average.
    pub energy: Joules,
}

impl Transition {
    /// Active ↔ idle: instant and free.
    const FREE: Transition = Transition {
        latency: SimDuration::ZERO,
        energy: Joules::ZERO,
    };
}

/// A machine's standby state and the round trip into it: a disk's
/// spin-down and spin-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spin {
    /// Power drawn while spun down.
    pub standby: Watts,
    /// Idle → standby.
    pub down: Transition,
    /// Standby → idle.
    pub up: Transition,
}

/// Per-state occupancy statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StateOccupancy {
    /// Total simulated time spent in the state.
    pub time: SimDuration,
    /// Total energy consumed while in the state.
    pub energy: Joules,
    /// Number of times the state was entered.
    pub entries: u64,
}

/// Summary of a machine's whole history.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MachineSummary {
    /// Total energy including transitions.
    pub total_energy: Joules,
    /// Occupancy per state, indexed by [`PowerState`] (`as usize`).
    pub per_state: [StateOccupancy; 3],
    /// Energy consumed by transitions alone.
    pub transition_energy: Joules,
    /// Number of transitions performed.
    pub transitions: u64,
    /// Time spent inside transitions (unavailable).
    pub transition_time: SimDuration,
}

impl MachineSummary {
    /// Add `other`'s history into this one, field by field in
    /// declaration order: several machines (the cores of a CPU pool)
    /// reported as one.
    pub fn absorb(&mut self, other: &MachineSummary) {
        self.total_energy += other.total_energy;
        for (dst, src) in self.per_state.iter_mut().zip(&other.per_state) {
            dst.time += src.time;
            dst.energy += src.energy;
            dst.entries += src.entries;
        }
        self.transition_energy += other.transition_energy;
        self.transitions += other.transitions;
        self.transition_time += other.transition_time;
    }

    /// Accumulate this machine's lifetime statistics into a metrics
    /// registry. Counters and gauges *add* so summaries from several
    /// machines (one per device, one per CPU core) aggregate into
    /// fleet-wide totals.
    pub fn feed_metrics(&self, reg: &mut grail_metrics::Registry) {
        reg.add("power.transitions", self.transitions);
        reg.add(
            "power.state_entries",
            self.per_state.iter().map(|s| s.entries).sum(),
        );
        reg.add_gauge("power.transition_joules", self.transition_energy.joules());
        reg.add_gauge("power.transition_secs", self.transition_time.as_secs_f64());
    }
}

/// A power-state machine that integrates energy as simulated time advances.
#[derive(Debug, Clone)]
pub struct PowerStateMachine {
    active: Watts,
    idle: Watts,
    spin: Option<Spin>,
    current: PowerState,
    /// Last instant up to which energy has been accumulated.
    cursor: SimInstant,
    /// If a transition is in flight, when it completes.
    busy_until: Option<SimInstant>,
    /// Power drawn right now (state power, or average transition power).
    current_power: Watts,
    total_energy: Joules,
    per_state: [StateOccupancy; 3],
    transition_energy: Joules,
    transition_count: u64,
    transition_time: SimDuration,
}

impl PowerStateMachine {
    /// A machine drawing `active` while working and `idle` otherwise,
    /// with a standby state if `spin` is given, starting idle at `start`.
    pub fn new(active: Watts, idle: Watts, spin: Option<Spin>, start: SimInstant) -> Self {
        let mut per_state = [StateOccupancy::default(); 3];
        per_state[PowerState::Idle as usize].entries = 1;
        PowerStateMachine {
            active,
            idle,
            spin,
            current: PowerState::Idle,
            cursor: start,
            busy_until: None,
            current_power: idle,
            total_energy: Joules::ZERO,
            per_state,
            transition_energy: Joules::ZERO,
            transition_count: 0,
            transition_time: SimDuration::ZERO,
        }
    }

    /// The machine's current state.
    #[inline]
    pub fn current(&self) -> PowerState {
        self.current
    }

    /// The machine's standby state and its round trip, if it has one.
    #[inline]
    pub fn spin(&self) -> Option<Spin> {
        self.spin
    }

    /// The steady power of `state`. A machine without a [`Spin`] never
    /// reaches standby; it reports its idle draw there.
    pub fn state_power(&self, state: PowerState) -> Watts {
        match state {
            PowerState::Active => self.active,
            PowerState::Idle => self.idle,
            PowerState::Standby => self.spin.map_or(self.idle, |s| s.standby),
        }
    }

    /// If a transition is in flight, when the machine becomes available.
    #[inline]
    pub fn busy_until(&self) -> Option<SimInstant> {
        self.busy_until
    }

    /// Accumulate energy up to `t` without changing state.
    ///
    /// Idempotent for equal `t`; errors if `t` is in the machine's past.
    pub fn advance_to(&mut self, t: SimInstant) -> Result<(), PowerError> {
        if t < self.cursor {
            return Err(PowerError::TimeWentBackwards {
                now: self.cursor,
                requested: t,
            });
        }
        // If a transition completes within [cursor, t], split the interval.
        if let Some(done) = self.busy_until {
            if done <= t {
                let span = done.saturating_duration_since(self.cursor);
                let e = self.current_power * span;
                self.total_energy += e;
                self.transition_energy += e;
                self.transition_time += span;
                self.cursor = done;
                self.busy_until = None;
                self.current_power = self.state_power(self.current);
            } else {
                let span = t.saturating_duration_since(self.cursor);
                let e = self.current_power * span;
                self.total_energy += e;
                self.transition_energy += e;
                self.transition_time += span;
                self.cursor = t;
                return Ok(());
            }
        }
        let span = t.saturating_duration_since(self.cursor);
        if !span.is_zero() {
            let e = self.current_power * span;
            self.total_energy += e;
            let occ = &mut self.per_state[self.current as usize];
            occ.time += span;
            occ.energy += e;
            self.cursor = t;
        }
        Ok(())
    }

    /// Request a state change at time `at`.
    ///
    /// Returns the instant at which the new state is fully entered
    /// (`at + latency`). A change to the current state is a no-op that
    /// still advances the clock. Errors if `at` precedes the machine's
    /// cursor or a transition is in flight, and for a change other than
    /// active ↔ idle ↔ standby (after advancing the clock to `at`). A
    /// machine without a [`Spin`] refuses standby before anything else.
    pub fn set_state(&mut self, at: SimInstant, to: PowerState) -> Result<SimInstant, PowerError> {
        let undeclared = PowerError::UndeclaredTransition {
            from: self.current,
            to,
        };
        if to == PowerState::Standby && self.spin.is_none() {
            return Err(undeclared);
        }
        if let Some(done) = self.busy_until {
            if at < done {
                return Err(PowerError::TransitionInFlight {
                    busy_until: done,
                    requested: at,
                });
            }
        }
        self.advance_to(at)?;
        if to == self.current {
            return Ok(at);
        }
        let tr = match (self.current, to, self.spin) {
            (PowerState::Active, PowerState::Idle, _)
            | (PowerState::Idle, PowerState::Active, _) => Transition::FREE,
            (PowerState::Idle, PowerState::Standby, Some(spin)) => spin.down,
            (PowerState::Standby, PowerState::Idle, Some(spin)) => spin.up,
            _ => return Err(undeclared),
        };
        self.transition_count += 1;
        self.current = to;
        self.per_state[to as usize].entries += 1;
        if tr.latency.is_zero() {
            // Instant transition: charge its energy as a point spike.
            self.total_energy += tr.energy;
            self.transition_energy += tr.energy;
            self.current_power = self.state_power(to);
            Ok(at)
        } else {
            // During the transition the machine draws the transition's
            // average power; `advance_to` settles it when time passes.
            let done = at + tr.latency;
            self.busy_until = Some(done);
            self.current_power = tr.energy.avg_power_over(tr.latency);
            Ok(done)
        }
    }

    /// One busy interval: active from `start`, idle again at `end`.
    pub fn busy(&mut self, start: SimInstant, end: SimInstant) -> Result<(), PowerError> {
        self.set_state(start, PowerState::Active)?;
        self.set_state(end, PowerState::Idle)?;
        Ok(())
    }

    /// The minimum idle-gap length at which spinning down and back up
    /// saves energy over idling through the gap (the "minimum-length
    /// idle period" of Sec. 4.2), or `None` without a [`Spin`] or when
    /// standby draws no less than idle. A function of the spin alone: a
    /// parked machine reports the same gap.
    pub fn break_even_gap(&self) -> Option<SimDuration> {
        let spin = self.spin?;
        let p_hi = self.idle.get();
        let p_lo = spin.standby.get();
        if p_lo >= p_hi {
            return None;
        }
        let switch_time = (spin.down.latency + spin.up.latency).as_secs_f64();
        let switch_energy = (spin.down.energy + spin.up.energy).joules();
        // Solve p_hi * g = switch_energy + p_lo * (g - switch_time)
        // =>   g = (switch_energy - p_lo * switch_time) / (p_hi - p_lo)
        let g = (switch_energy - p_lo * switch_time) / (p_hi - p_lo);
        let g = g.max(switch_time);
        Some(SimDuration::from_secs_f64(g))
    }

    /// Total energy accumulated so far (through the cursor).
    #[inline]
    pub fn total_energy(&self) -> Joules {
        self.total_energy
    }

    /// Finalize at `end` and summarize.
    pub fn finish(mut self, end: SimInstant) -> Result<MachineSummary, PowerError> {
        self.advance_to(end)?;
        Ok(MachineSummary {
            total_energy: self.total_energy,
            per_state: self.per_state,
            transition_energy: self.transition_energy,
            transitions: self.transition_count,
            transition_time: self.transition_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PowerState::{Active, Idle, Standby};

    fn secs(s: f64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs_f64(s)
    }

    fn spin(standby: f64) -> Spin {
        Spin {
            standby: Watts::new(standby),
            down: Transition {
                latency: SimDuration::from_secs(1),
                energy: Joules::new(5.0),
            },
            up: Transition {
                latency: SimDuration::from_secs(6),
                energy: Joules::new(135.0),
            },
        }
    }

    /// A disk-like machine: active 15 W, idle 11 W, standby 2 W;
    /// spin-down 1 s / 5 J, spin-up 6 s / 135 J.
    fn disk_machine() -> PowerStateMachine {
        PowerStateMachine::new(
            Watts::new(15.0),
            Watts::new(11.0),
            Some(spin(2.0)),
            SimInstant::EPOCH,
        )
    }

    #[test]
    fn steady_state_energy() {
        let mut m = PowerStateMachine::new(Watts::new(90.0), Watts::new(10.0), None, secs(0.0));
        m.advance_to(secs(10.0)).unwrap();
        assert!((m.total_energy().joules() - 100.0).abs() < 1e-9);
        m.set_state(secs(10.0), Active).unwrap();
        m.advance_to(secs(13.2)).unwrap();
        // 10 s idle at 10 W + 3.2 s active at 90 W = 388 J.
        assert!((m.total_energy().joules() - 388.0).abs() < 1e-9);
    }

    #[test]
    fn undeclared_transition_rejected() {
        let mut m = disk_machine();
        // Active <-> standby passes through idle.
        m.set_state(secs(1.0), Active).unwrap();
        let err = m.set_state(secs(2.0), Standby).unwrap_err();
        assert!(matches!(err, PowerError::UndeclaredTransition { .. }));
        // A machine without a spin has no standby: refused before the
        // clock moves, so the past is no error of its own.
        let mut flat = PowerStateMachine::new(Watts::new(6.0), Watts::new(1.0), None, secs(5.0));
        let err = flat.set_state(secs(0.0), Standby).unwrap_err();
        assert_eq!(
            err,
            PowerError::UndeclaredTransition {
                from: Idle,
                to: Standby
            }
        );
        assert_eq!(flat.state_power(Standby), Watts::new(1.0));
    }

    #[test]
    fn time_backwards_rejected() {
        let mut m = disk_machine();
        m.advance_to(secs(5.0)).unwrap();
        let err = m.advance_to(secs(4.0)).unwrap_err();
        assert!(matches!(err, PowerError::TimeWentBackwards { .. }));
    }

    #[test]
    fn transition_energy_and_latency() {
        let mut m = disk_machine();
        // idle 0..10 s (110 J), spin down at 10 s (1 s, 5 J), standby
        // 11..20 s (18 J).
        let done = m.set_state(secs(10.0), Standby).unwrap();
        assert_eq!(done, secs(11.0));
        assert_eq!(m.busy_until(), Some(secs(11.0)));
        m.advance_to(secs(20.0)).unwrap();
        assert!((m.total_energy().joules() - (110.0 + 5.0 + 18.0)).abs() < 1e-9);
        let s = m.finish(secs(20.0)).unwrap();
        assert_eq!(s.transitions, 1);
        assert!((s.transition_energy.joules() - 5.0).abs() < 1e-9);
        assert_eq!(s.transition_time, SimDuration::from_secs(1));
        assert!((s.per_state[Standby as usize].energy.joules() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn change_during_transition_rejected() {
        let mut m = disk_machine();
        m.set_state(secs(10.0), Standby).unwrap();
        let err = m.set_state(secs(10.5), Idle).unwrap_err();
        assert!(matches!(err, PowerError::TransitionInFlight { .. }));
        // At completion time it is allowed again.
        m.set_state(secs(11.0), Idle).unwrap();
    }

    #[test]
    fn self_transition_is_noop() {
        let mut m = disk_machine();
        m.set_state(secs(3.0), Idle).unwrap();
        let s = m.finish(secs(3.0)).unwrap();
        assert_eq!(s.transitions, 0);
    }

    #[test]
    fn advance_splits_transition_interval() {
        let mut m = disk_machine();
        m.set_state(secs(0.0), Standby).unwrap(); // 1 s, 5 J
        m.advance_to(secs(0.5)).unwrap();
        // Half the transition: 2.5 J.
        assert!((m.total_energy().joules() - 2.5).abs() < 1e-9);
        m.advance_to(secs(2.0)).unwrap();
        // Rest of transition + 1 s standby = 5 + 2 J.
        assert!((m.total_energy().joules() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn break_even_is_a_function_of_the_spin() {
        let mut m = disk_machine();
        // Round trip idle->standby->idle costs 140 J + 7 s of switching.
        // Break-even: g = (140 - 2*7) / (11 - 2) = 14.0 s.
        let g = m.break_even_gap().unwrap();
        assert!((g.as_secs_f64() - 14.0).abs() < 1e-6);
        // Parked, the machine reports the same gap.
        m.set_state(secs(0.0), Standby).unwrap();
        assert_eq!(m.break_even_gap(), Some(g));
        // A standby no cheaper than idle never pays; no spin, no gap.
        let hot = PowerStateMachine::new(
            Watts::new(15.0),
            Watts::new(11.0),
            Some(spin(11.0)),
            secs(0.0),
        );
        assert_eq!(hot.break_even_gap(), None);
        let flat = PowerStateMachine::new(Watts::new(15.0), Watts::new(11.0), None, secs(0.0));
        assert_eq!(flat.break_even_gap(), None);
    }

    #[test]
    fn entries_counted() {
        let mut m = disk_machine();
        m.busy(secs(1.0), secs(2.0)).unwrap();
        m.set_state(secs(3.0), Active).unwrap();
        let s = m.finish(secs(4.0)).unwrap();
        assert_eq!(s.per_state[Active as usize].entries, 2);
        assert_eq!(s.per_state[Idle as usize].entries, 2); // initial + one re-entry
    }

    #[test]
    fn absorb_adds_every_field() {
        let mut m = disk_machine();
        m.busy(secs(1.0), secs(2.0)).unwrap();
        m.set_state(secs(3.0), Standby).unwrap();
        let one = m.finish(secs(10.0)).unwrap();
        let mut two = MachineSummary::default();
        two.absorb(&one);
        assert_eq!(two, one);
        two.absorb(&one);
        assert_eq!(two.transitions, 2 * one.transitions);
        assert_eq!(
            two.transition_time,
            one.transition_time + one.transition_time
        );
        for (a, b) in two.per_state.iter().zip(&one.per_state) {
            assert_eq!((a.time, a.entries), (b.time + b.time, 2 * b.entries));
            assert_eq!(a.energy, b.energy + b.energy);
        }
        assert_eq!(two.total_energy, one.total_energy + one.total_energy);
    }
}
