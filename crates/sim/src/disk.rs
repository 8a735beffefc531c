//! The rotating-disk device: an FCFS server with spin states.
//!
//! The paper's Fig. 1 system is dominated by these ("the disk subsystem
//! consumed more than 50% of the total system power"), and Sec. 4.2's
//! consolidation ideas hinge on their expensive spin-up/spin-down
//! transitions.

use crate::perf::{AccessPattern, DiskPerfProfile};
use crate::sim::Reservation;
use grail_power::components::{disk_states, DiskPowerProfile};
use grail_power::state::{MachineSummary, PowerStateMachine};
use grail_power::units::{Bytes, Joules, SimDuration, SimInstant, Watts};

/// Aggregate statistics of one device.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Total time the device was serving requests.
    pub busy: SimDuration,
    /// Total bytes moved.
    pub bytes: Bytes,
    /// Number of requests served.
    pub requests: u64,
}

/// One simulated rotating disk.
#[derive(Debug, Clone)]
pub struct DiskDevice {
    perf: DiskPerfProfile,
    machine: PowerStateMachine,
    next_free: SimInstant,
    last_issue: SimInstant,
    stats: DeviceStats,
    parked: bool,
}

impl DiskDevice {
    /// A disk with the given performance and power profiles, idle and
    /// spinning at `start`.
    pub fn new(perf: DiskPerfProfile, power: DiskPowerProfile, start: SimInstant) -> Self {
        DiskDevice {
            perf,
            machine: power.machine(start),
            next_free: start,
            last_issue: start,
            stats: DeviceStats::default(),
            parked: false,
        }
    }

    /// Serve a read/write of `bytes` issued at `at`.
    ///
    /// If the disk is spun down it transparently spins up first (the
    /// request pays the spin-up latency). Requests must be issued in
    /// nondecreasing time order.
    pub fn serve(&mut self, at: SimInstant, bytes: Bytes, access: AccessPattern) -> Reservation {
        debug_assert!(
            at >= self.last_issue,
            "out-of-order issue to disk: {at} after {}",
            self.last_issue
        );
        self.last_issue = at;
        let mut ready = at.max(self.next_free);
        if let Some(busy) = self.machine.busy_until() {
            ready = ready.max(busy);
        }
        if self.parked {
            #[expect(
                clippy::expect_used,
                reason = "spin-up transition is declared in the disk state machine"
            )]
            let woke = self
                .machine
                .set_state(ready, disk_states::IDLE)
                .expect("spin-up from standby is declared");
            ready = woke;
            self.parked = false;
        }
        let service = self.perf.service_time(bytes, access);
        let start = ready;
        let end = start + service;
        #[expect(
            clippy::expect_used,
            reason = "idle/active transition is declared in the disk state machine"
        )]
        self.machine
            .set_state(start, disk_states::ACTIVE)
            .expect("idle->active is declared");
        #[expect(
            clippy::expect_used,
            reason = "idle/active transition is declared in the disk state machine"
        )]
        self.machine
            .set_state(end, disk_states::IDLE)
            .expect("active->idle is declared");
        self.next_free = end;
        self.stats.busy += service;
        self.stats.bytes += bytes;
        self.stats.requests += 1;
        Reservation { start, end }
    }

    /// Spin the disk down at `at` (no-op if already parked). Returns when
    /// the transition completes.
    pub fn park(&mut self, at: SimInstant) -> SimInstant {
        if self.parked {
            return at;
        }
        let at = at.max(self.next_free);
        #[expect(
            clippy::expect_used,
            reason = "standby transition is declared in the disk state machine"
        )]
        let done = self
            .machine
            .set_state(at, disk_states::STANDBY)
            .expect("idle->standby is declared");
        self.parked = true;
        self.next_free = done;
        done
    }

    /// Spin the disk up at `at` (no-op if spinning). Returns when ready.
    pub fn unpark(&mut self, at: SimInstant) -> SimInstant {
        if !self.parked {
            return at;
        }
        let mut at = at;
        if let Some(busy) = self.machine.busy_until() {
            at = at.max(busy);
        }
        #[expect(
            clippy::expect_used,
            reason = "standby transition is declared in the disk state machine"
        )]
        let done = self
            .machine
            .set_state(at, disk_states::IDLE)
            .expect("standby->idle is declared");
        self.parked = false;
        self.next_free = done;
        done
    }

    /// True if the disk is currently spun down.
    pub fn is_parked(&self) -> bool {
        self.parked
    }

    /// The instant the disk becomes free for a new request.
    pub fn next_free(&self) -> SimInstant {
        self.next_free
    }

    /// Statistics so far.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Power drawn while seeking/transferring.
    #[expect(
        clippy::expect_used,
        reason = "ACTIVE is declared in every disk power model"
    )]
    pub fn active_power(&self) -> Watts {
        self.machine
            .state_power(disk_states::ACTIVE)
            .expect("active state is declared")
    }

    /// Latency and surge energy of one spin-up attempt.
    pub fn spin_up_cost(&self) -> (SimDuration, Joules) {
        self.machine
            .transition(disk_states::STANDBY, disk_states::IDLE)
            .map(|t| (t.latency, t.energy))
            .unwrap_or((SimDuration::ZERO, Joules::ZERO))
    }

    /// Energy-saving helper: the idle-gap length beyond which parking and
    /// unparking saves energy versus staying spun up.
    pub fn break_even_gap(&self) -> Option<SimDuration> {
        self.machine.break_even_gap(disk_states::STANDBY)
    }

    /// Finalize at `end`, returning total energy consumed.
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

    fn disk() -> DiskDevice {
        DiskDevice::new(
            DiskPerfProfile::scsi_15k(),
            DiskPowerProfile::scsi_15k(),
            SimInstant::EPOCH,
        )
    }

    fn at(s: f64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn fcfs_queueing() {
        let mut d = disk();
        let r1 = d.serve(at(0.0), Bytes::mib(90), AccessPattern::Sequential);
        let r2 = d.serve(at(0.0), Bytes::mib(90), AccessPattern::Sequential);
        assert_eq!(r2.start, r1.end, "second request queues behind first");
        assert!(r2.end > r2.start);
        assert_eq!(d.stats().requests, 2);
    }

    #[test]
    fn idle_gap_draws_idle_power() {
        let mut d = disk();
        let r1 = d.serve(at(0.0), Bytes::mib(9), AccessPattern::Sequential);
        // Leave a 10 s gap, then serve again.
        let gap_end = r1.end + SimDuration::from_secs(10);
        let r2 = d.serve(gap_end, Bytes::mib(9), AccessPattern::Sequential);
        assert_eq!(r2.start, gap_end);
        let busy = d.stats().busy;
        let e = d.finish(r2.end);
        // Energy = busy×15 W + idle×12.5 W exactly.
        let total_span = r2.end.duration_since(SimInstant::EPOCH);
        let idle = total_span - busy;
        let expect = busy.as_secs_f64() * 15.0 + idle.as_secs_f64() * 12.5;
        assert!((e.joules() - expect).abs() < 1e-6, "{e} vs {expect}");
    }

    #[test]
    fn park_and_transparent_unpark() {
        let mut d = disk();
        let parked_at = d.park(at(0.0));
        assert!(d.is_parked());
        assert_eq!(parked_at, at(1.0)); // 1 s spin-down
        let r = d.serve(at(100.0), Bytes::mib(9), AccessPattern::Sequential);
        // Spin-up takes 6 s before service can start.
        assert_eq!(r.start, at(106.0));
        assert!(!d.is_parked());
    }

    #[test]
    fn parked_energy_lower_than_idle() {
        let span = at(1000.0);
        let mut parked = disk();
        parked.park(at(0.0));
        let e_parked = parked.finish(span);
        let idle = disk();
        let e_idle = idle.finish(span);
        assert!(e_parked.joules() < e_idle.joules() * 0.35);
    }

    #[test]
    fn immediate_unpark_pays_round_trip() {
        let mut d = disk();
        let down = d.park(at(0.0));
        let up = d.unpark(down);
        assert_eq!(up, down + SimDuration::from_secs(6));
        assert!(!d.is_parked());
        // Round trip below break-even costs more than idling.
        let e = d.finish(up);
        let idle_e = disk().finish(up);
        assert!(e.joules() > idle_e.joules());
    }

    #[test]
    fn break_even_gap_exposed() {
        let d = disk();
        let g = d.break_even_gap().unwrap();
        assert!(g.as_secs_f64() > 7.0, "must exceed switch time, got {g}");
    }
}
