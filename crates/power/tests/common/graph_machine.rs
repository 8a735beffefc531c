//! The power-state machine as it was before a device's states became the
//! closed set `Active`/`Idle`/`Standby`, kept as the oracle the fixed
//! machine is checked against: declared states with a steady draw each,
//! a `Vec` of declared transitions searched linearly on every change,
//! and per-state occupancy indexed by a dense state id. Its error type,
//! summary and the disk and active/idle shapes the components built are
//! copied beside it; `feed_metrics` is left out (no property reads it).
//! Included by `tests/properties.rs`.

use grail_power::components::DiskPowerProfile;
use grail_power::units::{Joules, SimDuration, SimInstant, Watts};

/// Identifier of a state within one [`PowerStateMachine`] (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PowerStateId(pub u8);

/// Doing work (the first state of every shape).
pub const ACTIVE: PowerStateId = PowerStateId(0);
/// Spinning, no I/O.
pub const IDLE: PowerStateId = PowerStateId(1);
/// Spun down (undeclared on an active/idle machine).
pub const STANDBY: PowerStateId = PowerStateId(2);

/// One power state: a name (for reports) and a steady-state power draw.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerState {
    /// Human-readable name ("active", "idle", "standby", …).
    pub name: &'static str,
    /// Steady-state power drawn while in this state.
    pub power: Watts,
}

/// A declared transition between two power states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Source state.
    pub from: PowerStateId,
    /// Destination state.
    pub to: PowerStateId,
    /// Time during which the component is unavailable.
    pub latency: SimDuration,
    /// Total energy consumed by the transition itself.
    pub energy: Joules,
}

/// The graph machine's errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PowerError {
    /// A transition between two states that was never declared.
    UndeclaredTransition {
        /// State the machine was in.
        from: PowerStateId,
        /// State that was requested.
        to: PowerStateId,
    },
    /// A state id that does not exist in the machine.
    UnknownState(PowerStateId),
    /// An operation was requested before the machine's cursor.
    TimeWentBackwards {
        /// Where the machine already is.
        now: SimInstant,
        /// The (earlier) time that was requested.
        requested: SimInstant,
    },
    /// A state change was requested while a transition is in flight.
    TransitionInFlight {
        /// When the in-flight transition completes.
        busy_until: SimInstant,
        /// The time the new change was requested.
        requested: SimInstant,
    },
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
#[derive(Debug, Clone, PartialEq)]
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

/// A power-state machine that integrates energy as simulated time advances.
#[derive(Debug, Clone)]
pub struct PowerStateMachine {
    states: Vec<PowerState>,
    transitions: Vec<Transition>,
    current: PowerStateId,
    cursor: SimInstant,
    busy_until: Option<SimInstant>,
    current_power: Watts,
    total_energy: Joules,
    per_state: Vec<StateOccupancy>,
    transition_energy: Joules,
    transition_count: u64,
    transition_time: SimDuration,
}

impl PowerStateMachine {
    /// Build a machine starting in `initial` at `start`.
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

    /// A two-state machine (`active` / `idle`) with free, instant
    /// transitions: the SSD and the CPU core.
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

    /// The three-state machine `DiskPowerProfile::machine` built,
    /// starting spinning idle.
    pub fn disk(p: &DiskPowerProfile, start: SimInstant) -> Self {
        let states = vec![
            PowerState {
                name: "active",
                power: p.active,
            },
            PowerState {
                name: "idle",
                power: p.idle,
            },
            PowerState {
                name: "standby",
                power: p.standby,
            },
        ];
        let z = SimDuration::ZERO;
        let transitions = vec![
            Transition {
                from: ACTIVE,
                to: IDLE,
                latency: z,
                energy: Joules::ZERO,
            },
            Transition {
                from: IDLE,
                to: ACTIVE,
                latency: z,
                energy: Joules::ZERO,
            },
            Transition {
                from: IDLE,
                to: STANDBY,
                latency: p.spin_down_latency,
                energy: p.spin_down_energy,
            },
            Transition {
                from: STANDBY,
                to: IDLE,
                latency: p.spin_up_latency,
                energy: p.spin_up_energy,
            },
        ];
        PowerStateMachine::new(states, transitions, IDLE, start)
    }

    /// The machine's current state.
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
    pub fn advance_to(&mut self, t: SimInstant) -> Result<(), PowerError> {
        if t < self.cursor {
            return Err(PowerError::TimeWentBackwards {
                now: self.cursor,
                requested: t,
            });
        }
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
            self.total_energy += tr.energy;
            self.transition_energy += tr.energy;
            self.current_power = self.states[to.0 as usize].power;
            Ok(at)
        } else {
            let done = at + tr.latency;
            self.busy_until = Some(done);
            self.current_power = tr.energy.avg_power_over(tr.latency);
            Ok(done)
        }
    }

    /// Whether switching to `to` and back pays for itself over an idle gap
    /// of length `gap`.
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
        let g = (switch_energy - p_lo * switch_time) / (p_hi - p_lo);
        let g = g.max(switch_time);
        Some(SimDuration::from_secs_f64(g))
    }

    /// Total energy accumulated so far (through the cursor).
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
