//! The SSD device: an FCFS server with a flat active/idle power model.
//!
//! Fig. 2's flash drives are "an order of magnitude more energy efficient
//! than regular hard drives" and have no spin states — the interesting
//! tradeoffs move entirely to the CPU side, which is the experiment's
//! point.

use crate::disk::DeviceStats;
use crate::perf::{AccessPattern, SsdPerfProfile};
use crate::sim::Reservation;
use grail_power::components::{duo_states, SsdPowerProfile};
use grail_power::state::{MachineSummary, PowerStateMachine};
use grail_power::units::{Bytes, Joules, SimInstant, Watts};

/// One simulated SSD.
#[derive(Debug, Clone)]
pub struct SsdDevice {
    perf: SsdPerfProfile,
    machine: PowerStateMachine,
    next_free: SimInstant,
    last_issue: SimInstant,
    stats: DeviceStats,
}

impl SsdDevice {
    /// An SSD with the given profiles, idle at `start`.
    pub fn new(perf: SsdPerfProfile, power: SsdPowerProfile, start: SimInstant) -> Self {
        SsdDevice {
            perf,
            machine: power.machine(start),
            next_free: start,
            last_issue: start,
            stats: DeviceStats::default(),
        }
    }

    /// Serve a read of `bytes` issued at `at` (FCFS; nondecreasing issue
    /// order required).
    pub fn serve(&mut self, at: SimInstant, bytes: Bytes, access: AccessPattern) -> Reservation {
        debug_assert!(
            at >= self.last_issue,
            "out-of-order issue to ssd: {at} after {}",
            self.last_issue
        );
        self.last_issue = at;
        let start = at.max(self.next_free);
        let service = self.perf.service_time(bytes, access);
        let end = start + service;
        #[expect(
            clippy::expect_used,
            reason = "idle/active transition is declared in the duo state machine"
        )]
        self.machine
            .set_state(start, duo_states::ACTIVE)
            .expect("idle->active");
        #[expect(
            clippy::expect_used,
            reason = "idle/active transition is declared in the duo state machine"
        )]
        self.machine
            .set_state(end, duo_states::IDLE)
            .expect("active->idle");
        self.next_free = end;
        self.stats.busy += service;
        self.stats.bytes += bytes;
        self.stats.requests += 1;
        Reservation { start, end }
    }

    /// Power drawn while transferring.
    #[expect(
        clippy::expect_used,
        reason = "ACTIVE is declared in every ssd power model"
    )]
    pub fn active_power(&self) -> Watts {
        self.machine
            .state_power(duo_states::ACTIVE)
            .expect("active state is declared")
    }

    /// The instant the SSD becomes free.
    pub fn next_free(&self) -> SimInstant {
        self.next_free
    }

    /// Statistics so far.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Finalize at `end`, returning total energy.
    pub fn finish(self, end: SimInstant) -> Joules {
        self.finish_summary(end).total_energy
    }

    /// Finalize at `end`, returning the full power-state summary
    /// (occupancies, transition counts and costs) for metrics feeds.
    #[expect(
        clippy::expect_used,
        reason = "device event times are monotone by construction"
    )]
    pub fn finish_summary(self, end: SimInstant) -> MachineSummary {
        self.machine
            .finish(end.max(self.next_free))
            .expect("monotone finish")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grail_power::units::SimDuration;

    fn at(s: f64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn fig2_drive_energy_is_constant_rate() {
        // The paper charges flash 5 W for wall time, so a fig2 SSD's
        // energy depends only on the horizon, not on activity.
        let mk = || {
            SsdDevice::new(
                SsdPerfProfile::fig2_flash(),
                SsdPowerProfile::fig2_flash(),
                SimInstant::EPOCH,
            )
        };
        let horizon = at(10.0);
        let idle_drive = mk();
        let e_idle = idle_drive.finish(horizon);
        let mut busy_drive = mk();
        busy_drive.serve(
            at(0.0),
            Bytes::new(1_000_000_000),
            AccessPattern::Sequential,
        );
        let e_busy = busy_drive.finish(horizon);
        assert!((e_idle.joules() - e_busy.joules()).abs() < 1e-6);
        assert!((e_idle.joules() - 10.0 * 5.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn enterprise_drive_active_costs_more() {
        let mk = || {
            SsdDevice::new(
                SsdPerfProfile::fig2_flash(),
                SsdPowerProfile::enterprise(),
                SimInstant::EPOCH,
            )
        };
        let horizon = at(10.0);
        let e_idle = mk().finish(horizon);
        let mut busy = mk();
        busy.serve(
            at(0.0),
            Bytes::new(1_000_000_000),
            AccessPattern::Sequential,
        );
        let e_busy = busy.finish(horizon);
        assert!(e_busy.joules() > e_idle.joules());
    }

    #[test]
    fn queueing() {
        let mut s = SsdDevice::new(
            SsdPerfProfile::fig2_flash(),
            SsdPowerProfile::fig2_flash(),
            SimInstant::EPOCH,
        );
        let r1 = s.serve(at(0.0), Bytes::mib(200), AccessPattern::Sequential);
        let r2 = s.serve(at(0.0), Bytes::mib(200), AccessPattern::Sequential);
        assert_eq!(r2.start, r1.end);
        assert_eq!(s.stats().requests, 2);
        assert_eq!(s.stats().bytes, Bytes::mib(400));
    }
}
