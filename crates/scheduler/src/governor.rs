//! Device idle governors: when to spin a component down.
//!
//! Sec. 4.2: "hardware components will require a certain minimum-length
//! idle period to enter in a suspended mode, and the longer that period
//! is the easier it is to hide the costs of switching between power
//! states". A governor turns idle gaps into park/unpark commands:
//!
//! * [`NeverPark`] — the baseline (classic servers).
//! * [`TimeoutGovernor`] — parks after a fixed idle timeout; online, so
//!   it wastes the timeout and pays spin-up latency on the next request.
//! * [`OracleGovernor`] — clairvoyant: parks exactly when a gap exceeds
//!   break-even and wakes just in time. The upper bound any online
//!   policy chases.

use grail_power::units::{Joules, SimDuration, SimInstant, Watts};

/// The device costs a governor reasons about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParkCosts {
    /// Idle gap length beyond which a round trip saves energy.
    pub break_even: SimDuration,
    /// Spin-up latency.
    pub spin_up: SimDuration,
    /// Spin-down latency.
    pub spin_down: SimDuration,
    /// Power while spinning idle.
    pub idle_power: Watts,
    /// Power while parked.
    pub standby_power: Watts,
    /// Energy of one spin-down + spin-up round trip.
    pub round_trip_energy: Joules,
}

impl ParkCosts {
    /// The SCSI 15K drive of Fig. 1 (matches
    /// `grail_power::components::DiskPowerProfile::scsi_15k`).
    pub fn scsi_15k() -> Self {
        ParkCosts {
            break_even: SimDuration::from_secs_f64(14.05),
            spin_up: SimDuration::from_secs(6),
            spin_down: SimDuration::from_secs(1),
            idle_power: Watts::new(12.5),
            standby_power: Watts::new(2.5),
            round_trip_energy: Joules::new(148.0),
        }
    }
}

/// A park decision for one idle gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapPlan {
    /// When to issue the spin-down.
    pub park_at: SimInstant,
    /// When to issue the spin-up (`None` = wake on demand).
    pub unpark_at: Option<SimInstant>,
}

/// A governor plans each idle gap.
pub trait IdleGovernor: std::fmt::Debug {
    /// Decide for a gap `[start, end)`; online policies must not read
    /// `end` (it is the *actual* next arrival, unknown to them — the
    /// planner uses it only to discard plans the request would preempt).
    fn plan_gap(&self, start: SimInstant, end: SimInstant, costs: &ParkCosts) -> Option<GapPlan>;

    /// Display name.
    fn name(&self) -> &'static str;
}

/// Never park (baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverPark;

impl IdleGovernor for NeverPark {
    fn plan_gap(&self, _: SimInstant, _: SimInstant, _: &ParkCosts) -> Option<GapPlan> {
        None
    }

    fn name(&self) -> &'static str {
        "never"
    }
}

/// Park after `timeout` of idleness; wake on demand (the next request
/// pays the spin-up).
#[derive(Debug, Clone, Copy)]
pub struct TimeoutGovernor {
    /// Idle time before parking.
    pub timeout: SimDuration,
}

impl IdleGovernor for TimeoutGovernor {
    fn plan_gap(&self, start: SimInstant, end: SimInstant, costs: &ParkCosts) -> Option<GapPlan> {
        let park_at = start + self.timeout;
        // The spin-down must complete before the gap ends to be issued
        // at all (otherwise the request preempts it).
        if park_at + costs.spin_down >= end {
            return None;
        }
        Some(GapPlan {
            park_at,
            unpark_at: None,
        })
    }

    fn name(&self) -> &'static str {
        "timeout"
    }
}

/// Clairvoyant: parks at the gap start iff the gap clears break-even,
/// and wakes exactly `spin_up` before the next request.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleGovernor;

impl IdleGovernor for OracleGovernor {
    fn plan_gap(&self, start: SimInstant, end: SimInstant, costs: &ParkCosts) -> Option<GapPlan> {
        let gap = end.saturating_duration_since(start);
        if gap <= costs.break_even {
            return None;
        }
        let unpark_at = end - costs.spin_up;
        if unpark_at <= start + costs.spin_down {
            return None;
        }
        Some(GapPlan {
            park_at: start,
            unpark_at: Some(unpark_at),
        })
    }

    fn name(&self) -> &'static str {
        "oracle"
    }
}

/// Analytic energy of one gap under a plan (used by unit tests and
/// quick what-ifs; the experiments measure against the real simulator).
pub fn gap_energy(
    plan: Option<&GapPlan>,
    start: SimInstant,
    end: SimInstant,
    costs: &ParkCosts,
) -> Joules {
    let gap = end.saturating_duration_since(start);
    match plan {
        None => costs.idle_power * gap,
        Some(p) => {
            let idle_before = p.park_at.saturating_duration_since(start);
            let wake_at = p.unpark_at.unwrap_or(end);
            let parked = wake_at.saturating_duration_since(p.park_at + costs.spin_down);
            let idle_after = end.saturating_duration_since(wake_at + costs.spin_up);
            costs.idle_power * (idle_before + idle_after)
                + costs.standby_power * parked
                + costs.round_trip_energy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grail_power::components::DiskPowerProfile;

    fn at(s: f64) -> SimInstant {
        SimInstant::from_secs_f64(s)
    }

    #[test]
    fn park_costs_are_a_copy_of_the_scsi_15k_profile() {
        let (c, p) = (ParkCosts::scsi_15k(), DiskPowerProfile::scsi_15k());
        assert_eq!(c.spin_up, p.spin_up_latency);
        assert_eq!(c.spin_down, p.spin_down_latency);
        assert_eq!(c.idle_power, p.idle);
        assert_eq!(c.standby_power, p.standby);
        assert_eq!(c.round_trip_energy, p.spin_down_energy + p.spin_up_energy);
        // The copy's break-even (14.05 s) sits exactly 1 s above the
        // profile's (13.05 s). The fleet re-pin of ROADMAP item 3 derives
        // `ParkCosts` from the profile and flips this line to equality.
        let gap = p.machine(SimInstant::EPOCH).break_even_gap();
        assert_eq!(
            Some(c.break_even),
            gap.map(|g| g + SimDuration::from_secs(1))
        );
    }

    #[test]
    fn never_park_never_parks() {
        let g = NeverPark;
        assert!(g
            .plan_gap(at(0.0), at(1e6), &ParkCosts::scsi_15k())
            .is_none());
    }

    #[test]
    fn timeout_parks_only_when_it_fits() {
        let g = TimeoutGovernor {
            timeout: SimDuration::from_secs(10),
        };
        let c = ParkCosts::scsi_15k();
        assert!(
            g.plan_gap(at(0.0), at(5.0), &c).is_none(),
            "gap shorter than timeout"
        );
        let p = g.plan_gap(at(0.0), at(100.0), &c).unwrap();
        assert_eq!(p.park_at, at(10.0));
        assert_eq!(p.unpark_at, None);
    }

    #[test]
    fn oracle_respects_break_even() {
        let g = OracleGovernor;
        let c = ParkCosts::scsi_15k();
        assert!(
            g.plan_gap(at(0.0), at(10.0), &c).is_none(),
            "below break-even"
        );
        let p = g.plan_gap(at(0.0), at(100.0), &c).unwrap();
        assert_eq!(p.park_at, at(0.0));
        assert_eq!(p.unpark_at, Some(at(94.0)), "wake spin_up early");
    }

    #[test]
    fn oracle_saves_energy_above_break_even() {
        let c = ParkCosts::scsi_15k();
        let g = OracleGovernor;
        for gap_secs in [20.0, 50.0, 500.0] {
            let end = at(gap_secs);
            let plan = g.plan_gap(at(0.0), end, &c);
            let parked = gap_energy(plan.as_ref(), at(0.0), end, &c);
            let idle = gap_energy(None, at(0.0), end, &c);
            assert!(
                parked.joules() < idle.joules(),
                "gap {gap_secs}: {parked} vs {idle}"
            );
        }
    }

    #[test]
    fn short_gap_parking_would_waste_energy() {
        let c = ParkCosts::scsi_15k();
        // Force a plan on a 10 s gap (below 14 s break-even): costs more
        // than idling — which is why the oracle refuses.
        let plan = GapPlan {
            park_at: at(0.0),
            unpark_at: Some(at(4.0)),
        };
        let forced = gap_energy(Some(&plan), at(0.0), at(10.0), &c);
        let idle = gap_energy(None, at(0.0), at(10.0), &c);
        assert!(forced.joules() > idle.joules());
    }

    #[test]
    fn timeout_beats_never_on_long_gaps_but_wastes_the_timeout() {
        let c = ParkCosts::scsi_15k();
        let t = TimeoutGovernor {
            timeout: SimDuration::from_secs(10),
        };
        let end = at(500.0);
        let t_plan = t.plan_gap(at(0.0), end, &c);
        let o_plan = OracleGovernor.plan_gap(at(0.0), end, &c);
        let e_never = gap_energy(None, at(0.0), end, &c);
        let e_timeout = gap_energy(t_plan.as_ref(), at(0.0), end, &c);
        let e_oracle = gap_energy(o_plan.as_ref(), at(0.0), end, &c);
        assert!(e_timeout.joules() < e_never.joules());
        assert!(
            e_oracle.joules() < e_timeout.joules(),
            "oracle is the bound"
        );
    }
}
