//! Power-state machines with explicit, costed transitions.
//!
//! The paper (Sec. 2.4, 4.2) stresses that current components "are either
//! on … or off, and the transitions can be expensive", and that software
//! must reason about whether an idle period is long enough to amortize a
//! state switch. [`PowerStateMachine`] makes that reasoning checkable: a
//! machine declares its states (each with a power draw) and its legal
//! transitions (each with a latency and an energy cost), accumulates energy
//! in closed form as simulated time advances, and refuses undeclared or
//! time-travelling state changes.

use crate::error::PowerError;
use crate::units::{Joules, SimDuration, SimInstant, Watts};
use serde::{Deserialize, Serialize};

/// Identifier of a state within one [`PowerStateMachine`] (dense index).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PowerStateId(pub u8);

/// One power state: a name (for reports) and a steady-state power draw.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PowerState {
    /// Human-readable name ("active", "idle", "standby", …).
    pub name: &'static str,
    /// Steady-state power drawn while in this state.
    pub power: Watts,
}

/// A declared transition between two power states.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Source state.
    pub from: PowerStateId,
    /// Destination state.
    pub to: PowerStateId,
    /// Time during which the component is unavailable.
    pub latency: SimDuration,
    /// Total energy consumed by the transition itself (e.g. a disk
    /// spin-up's motor surge). Charged in addition to neither endpoint
    /// state's steady power: during the transition the machine draws
    /// `energy / latency` on average.
    pub energy: Joules,
}

/// Per-state occupancy statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StateOccupancy {
    /// Total simulated time spent in the state.
    pub time: SimDuration,
    /// Total energy consumed while in the state.
    pub energy: Joules,
    /// Number of times the state was entered.
    pub entries: u64,
}

/// Summary of a machine's whole history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSummary {
    /// Total energy including transitions.
    pub total_energy: Joules,
    /// Occupancy per state, indexed by [`PowerStateId`].
    pub per_state: Vec<StateOccupancy>,
    /// Energy consumed by transitions alone.
    pub transition_energy: Joules,
    /// Number of transitions performed.
    pub transitions: u64,
    /// Time spent inside transitions (unavailable).
    pub transition_time: SimDuration,
}

impl MachineSummary {
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
    states: Vec<PowerState>,
    /// Declared transitions, looked up linearly (machines have ≤ a handful
    /// of states, so a flat vec beats a hash map).
    transitions: Vec<Transition>,
    current: PowerStateId,
    /// Last instant up to which energy has been accumulated.
    cursor: SimInstant,
    /// If a transition is in flight, when it completes.
    busy_until: Option<SimInstant>,
    /// Power drawn right now (state power, or average transition power).
    current_power: Watts,
    total_energy: Joules,
    per_state: Vec<StateOccupancy>,
    transition_energy: Joules,
    transition_count: u64,
    transition_time: SimDuration,
}

impl PowerStateMachine {
    /// Build a machine starting in `initial` at `start`.
    ///
    /// # Panics
    /// Panics if `states` is empty, `initial` is out of range, or any
    /// transition references an unknown state — these are construction
    /// bugs, not runtime conditions.
    pub fn new(
        states: Vec<PowerState>,
        transitions: Vec<Transition>,
        initial: PowerStateId,
        start: SimInstant,
    ) -> Self {
        assert!(!states.is_empty(), "a power-state machine needs states");
        assert!(
            (initial.0 as usize) < states.len(),
            "initial state {initial:?} out of range"
        );
        for t in &transitions {
            assert!(
                (t.from.0 as usize) < states.len() && (t.to.0 as usize) < states.len(),
                "transition {t:?} references unknown state"
            );
        }
        let mut per_state = vec![StateOccupancy::default(); states.len()];
        per_state[initial.0 as usize].entries = 1;
        let current_power = states[initial.0 as usize].power;
        PowerStateMachine {
            states,
            transitions,
            current: initial,
            cursor: start,
            busy_until: None,
            current_power,
            total_energy: Joules::ZERO,
            per_state,
            transition_energy: Joules::ZERO,
            transition_count: 0,
            transition_time: SimDuration::ZERO,
        }
    }

    /// Convenience: a two-state machine (`active` / `idle`) with free,
    /// instant transitions — the "limited power knobs" servers of
    /// Sec. 2.4 collapse to this.
    pub fn active_idle(active: Watts, idle: Watts, start: SimInstant) -> Self {
        let states = vec![
            PowerState {
                name: "active",
                power: active,
            },
            PowerState {
                name: "idle",
                power: idle,
            },
        ];
        let transitions = vec![
            Transition {
                from: PowerStateId(0),
                to: PowerStateId(1),
                latency: SimDuration::ZERO,
                energy: Joules::ZERO,
            },
            Transition {
                from: PowerStateId(1),
                to: PowerStateId(0),
                latency: SimDuration::ZERO,
                energy: Joules::ZERO,
            },
        ];
        PowerStateMachine::new(states, transitions, PowerStateId(1), start)
    }

    /// The machine's current state.
    #[inline]
    pub fn current(&self) -> PowerStateId {
        self.current
    }

    /// The steady power of state `id`.
    pub fn state_power(&self, id: PowerStateId) -> Result<Watts, PowerError> {
        self.states
            .get(id.0 as usize)
            .map(|s| s.power)
            .ok_or(PowerError::UnknownState(id))
    }

    /// If a transition is in flight, when the machine becomes available.
    #[inline]
    pub fn busy_until(&self) -> Option<SimInstant> {
        self.busy_until
    }

    /// The declared transition from `from` to `to`, if any.
    pub fn transition(&self, from: PowerStateId, to: PowerStateId) -> Option<&Transition> {
        self.transitions
            .iter()
            .find(|t| t.from == from && t.to == to)
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
                self.current_power = self.states[self.current.0 as usize].power;
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
            let occ = &mut self.per_state[self.current.0 as usize];
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
    /// still advances the clock. Errors if the transition is undeclared,
    /// `at` precedes the machine's cursor, or a transition is in flight.
    pub fn set_state(
        &mut self,
        at: SimInstant,
        to: PowerStateId,
    ) -> Result<SimInstant, PowerError> {
        if (to.0 as usize) >= self.states.len() {
            return Err(PowerError::UnknownState(to));
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
        let tr = *self
            .transition(self.current, to)
            .ok_or(PowerError::UndeclaredTransition {
                from: self.current,
                to,
            })?;
        self.transition_count += 1;
        self.current = to;
        self.per_state[to.0 as usize].entries += 1;
        if tr.latency.is_zero() {
            // Instant transition: charge its energy as a point spike.
            self.total_energy += tr.energy;
            self.transition_energy += tr.energy;
            self.current_power = self.states[to.0 as usize].power;
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

    /// Whether switching to `to` and back pays for itself over an idle gap
    /// of length `gap`: compares energy of staying in the current state
    /// for `gap` against transitioning to `to`, idling there, and coming
    /// back. This is the "minimum-length idle period" calculus of
    /// Sec. 4.2.
    pub fn break_even_worth_it(&self, to: PowerStateId, gap: SimDuration) -> bool {
        let Some(down) = self.transition(self.current, to) else {
            return false;
        };
        let Some(up) = self.transition(to, self.current) else {
            return false;
        };
        let switch_time = down.latency + up.latency;
        if switch_time > gap {
            return false;
        }
        let stay = self.states[self.current.0 as usize].power * gap;
        let low_time = gap - switch_time;
        let go = down.energy + up.energy + self.states[to.0 as usize].power * low_time;
        go < stay
    }

    /// The minimum idle-gap length at which dropping to `to` saves energy,
    /// or `None` if it never does (or the round trip is undeclared).
    pub fn break_even_gap(&self, to: PowerStateId) -> Option<SimDuration> {
        let down = self.transition(self.current, to)?;
        let up = self.transition(to, self.current)?;
        let p_hi = self.states[self.current.0 as usize].power.get();
        let p_lo = self.states[to.0 as usize].power.get();
        if p_lo >= p_hi {
            return None;
        }
        let switch_time = (down.latency + up.latency).as_secs_f64();
        let switch_energy = (down.energy + up.energy).joules();
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

    fn secs(s: f64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs_f64(s)
    }

    /// A three-state disk-like machine: active 15 W, idle 11 W,
    /// standby 2 W; spin-down 1 s / 5 J, spin-up 6 s / 135 J.
    fn disk_machine() -> PowerStateMachine {
        let states = vec![
            PowerState {
                name: "active",
                power: Watts::new(15.0),
            },
            PowerState {
                name: "idle",
                power: Watts::new(11.0),
            },
            PowerState {
                name: "standby",
                power: Watts::new(2.0),
            },
        ];
        let z = SimDuration::ZERO;
        let transitions = vec![
            Transition {
                from: PowerStateId(0),
                to: PowerStateId(1),
                latency: z,
                energy: Joules::ZERO,
            },
            Transition {
                from: PowerStateId(1),
                to: PowerStateId(0),
                latency: z,
                energy: Joules::ZERO,
            },
            Transition {
                from: PowerStateId(1),
                to: PowerStateId(2),
                latency: SimDuration::from_secs(1),
                energy: Joules::new(5.0),
            },
            Transition {
                from: PowerStateId(2),
                to: PowerStateId(1),
                latency: SimDuration::from_secs(6),
                energy: Joules::new(135.0),
            },
        ];
        PowerStateMachine::new(states, transitions, PowerStateId(1), SimInstant::EPOCH)
    }

    #[test]
    fn steady_state_energy() {
        let mut m = PowerStateMachine::active_idle(Watts::new(90.0), Watts::new(10.0), secs(0.0));
        m.advance_to(secs(10.0)).unwrap();
        assert!((m.total_energy().joules() - 100.0).abs() < 1e-9);
        m.set_state(secs(10.0), PowerStateId(0)).unwrap();
        m.advance_to(secs(13.2)).unwrap();
        // 10 s idle at 10 W + 3.2 s active at 90 W = 388 J.
        assert!((m.total_energy().joules() - 388.0).abs() < 1e-9);
    }

    #[test]
    fn undeclared_transition_rejected() {
        let mut m = disk_machine();
        // active <-> standby was never declared.
        m.set_state(secs(1.0), PowerStateId(0)).unwrap();
        let err = m.set_state(secs(2.0), PowerStateId(2)).unwrap_err();
        assert!(matches!(err, PowerError::UndeclaredTransition { .. }));
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
        let done = m.set_state(secs(10.0), PowerStateId(2)).unwrap();
        assert_eq!(done, secs(11.0));
        assert_eq!(m.busy_until(), Some(secs(11.0)));
        m.advance_to(secs(20.0)).unwrap();
        assert!((m.total_energy().joules() - (110.0 + 5.0 + 18.0)).abs() < 1e-9);
        let s = m.finish(secs(20.0)).unwrap();
        assert_eq!(s.transitions, 1);
        assert!((s.transition_energy.joules() - 5.0).abs() < 1e-9);
        assert_eq!(s.transition_time, SimDuration::from_secs(1));
        assert!((s.per_state[2].energy.joules() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn change_during_transition_rejected() {
        let mut m = disk_machine();
        m.set_state(secs(10.0), PowerStateId(2)).unwrap();
        let err = m.set_state(secs(10.5), PowerStateId(1)).unwrap_err();
        assert!(matches!(err, PowerError::TransitionInFlight { .. }));
        // At completion time it is allowed again.
        m.set_state(secs(11.0), PowerStateId(1)).unwrap();
    }

    #[test]
    fn self_transition_is_noop() {
        let mut m = disk_machine();
        m.set_state(secs(3.0), PowerStateId(1)).unwrap();
        let s = m.finish(secs(3.0)).unwrap();
        assert_eq!(s.transitions, 0);
    }

    #[test]
    fn advance_splits_transition_interval() {
        let mut m = disk_machine();
        m.set_state(secs(0.0), PowerStateId(2)).unwrap(); // 1 s, 5 J
        m.advance_to(secs(0.5)).unwrap();
        // Half the transition: 2.5 J.
        assert!((m.total_energy().joules() - 2.5).abs() < 1e-9);
        m.advance_to(secs(2.0)).unwrap();
        // Rest of transition + 1 s standby = 5 + 2 J.
        assert!((m.total_energy().joules() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn break_even_calculus() {
        let m = disk_machine();
        // Round trip idle->standby->idle costs 140 J + 7 s of switching.
        // Break-even: g = (140 - 2*7) / (11 - 2) = 14.0 s.
        let g = m.break_even_gap(PowerStateId(2)).unwrap();
        assert!((g.as_secs_f64() - 14.0).abs() < 1e-6);
        assert!(!m.break_even_worth_it(PowerStateId(2), SimDuration::from_secs(10)));
        assert!(m.break_even_worth_it(PowerStateId(2), SimDuration::from_secs(20)));
    }

    #[test]
    fn break_even_to_higher_power_state_is_none() {
        let mut m = disk_machine();
        m.set_state(secs(0.0), PowerStateId(2)).unwrap();
        m.advance_to(secs(1.0)).unwrap();
        // From standby, "dropping" to idle costs more power: never worth it.
        assert_eq!(m.break_even_gap(PowerStateId(1)), None);
    }

    #[test]
    fn state_lookup() {
        let m = disk_machine();
        assert!(m.state_power(PowerStateId(9)).is_err());
    }

    #[test]
    fn entries_counted() {
        let mut m = disk_machine();
        m.set_state(secs(1.0), PowerStateId(0)).unwrap();
        m.set_state(secs(2.0), PowerStateId(1)).unwrap();
        m.set_state(secs(3.0), PowerStateId(0)).unwrap();
        let s = m.finish(secs(4.0)).unwrap();
        assert_eq!(s.per_state[0].entries, 2);
        assert_eq!(s.per_state[1].entries, 2); // initial + one re-entry
    }
}
