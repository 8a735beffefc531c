//! Error types for power modeling.

use crate::state::PowerState;
use crate::units::SimInstant;
use std::fmt;

/// Errors raised by power-state machines and ledgers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PowerError {
    /// A state change the machine does not make: active ↔ standby, or
    /// standby on a machine without a spin.
    UndeclaredTransition {
        /// State the machine was in.
        from: PowerState,
        /// State that was requested.
        to: PowerState,
    },
    /// An operation was requested at a time earlier than the machine's
    /// current position; simulated time is monotone.
    TimeWentBackwards {
        /// Where the machine already is.
        now: SimInstant,
        /// The (earlier) time that was requested.
        requested: SimInstant,
    },
    /// A state change was requested while a transition is still in flight.
    TransitionInFlight {
        /// When the in-flight transition completes.
        busy_until: SimInstant,
        /// The time the new change was requested.
        requested: SimInstant,
    },
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerError::UndeclaredTransition { from, to } => {
                write!(f, "undeclared power-state transition {from:?} -> {to:?}")
            }
            PowerError::TimeWentBackwards { now, requested } => {
                write!(f, "time went backwards: at {now}, requested {requested}")
            }
            PowerError::TransitionInFlight {
                busy_until,
                requested,
            } => write!(
                f,
                "power-state transition in flight until {busy_until}, requested change at {requested}"
            ),
        }
    }
}

impl std::error::Error for PowerError {}
