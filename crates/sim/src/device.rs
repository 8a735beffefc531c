//! Storage devices: one FCFS server for rotating disks and flash.
//!
//! The paper bills Fig. 1's spindles and Fig. 2's flash drives the same
//! way (device-seconds × device watts), so both are a [`StorageDevice`]:
//! a request starts when the device is free and holds it for the service
//! time of its [`DiskPerfProfile`] or [`SsdPerfProfile`], stepping the
//! power machine idle → active → idle. A disk's machine also has
//! standby: it parks to save power, and a request to a parked disk pays
//! the spin-up first — Sec. 4.2's consolidation ideas hinge on those
//! transitions. An SSD never parks: flash is "an order of magnitude more
//! energy efficient than regular hard drives" and has no spin states,
//! which moves Fig. 2's tradeoffs to the CPU side.

use crate::perf::{AccessPattern, DiskPerfProfile, SsdPerfProfile};
use crate::sim::Reservation;
use grail_power::components::{DiskPowerProfile, SsdPowerProfile};
use grail_power::ledger::ComponentKind;
use grail_power::state::{MachineSummary, PowerState, PowerStateMachine};
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

/// The storage device classes. Each has its own id space (`DiskId`,
/// `SsdId`), its own fault streams and its own names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeviceClass {
    Disk,
    Ssd,
}

/// What errors, traces, metrics and the ledger call one device class.
pub(crate) struct ClassLabels {
    /// The id type an error prints: `DiskId(3)`.
    pub(crate) id: &'static str,
    /// The ledger component kind; its name is the kind of the class's
    /// device trace tracks.
    pub(crate) kind: ComponentKind,
    /// Span name of a served read.
    pub(crate) read: &'static str,
    /// Span name of a served write.
    pub(crate) write: &'static str,
    /// Histogram of service seconds.
    pub(crate) service_secs: &'static str,
    /// Event name of a failed IO attempt.
    pub(crate) fault: &'static str,
}

static LABELS: [ClassLabels; 2] = [
    ClassLabels {
        id: "DiskId",
        kind: ComponentKind::Disk,
        read: "disk_read",
        write: "disk_write",
        service_secs: "io.disk_service_secs",
        fault: "fault.disk_io",
    },
    ClassLabels {
        id: "SsdId",
        kind: ComponentKind::Ssd,
        read: "ssd_io",
        write: "ssd_io",
        service_secs: "io.ssd_service_secs",
        fault: "fault.ssd_io",
    },
];

impl DeviceClass {
    /// This class's names.
    pub(crate) fn labels(self) -> &'static ClassLabels {
        &LABELS[self as usize]
    }
}

/// The ledger kinds of the devices a cell owns: every storage class in
/// the label table, and the CPU pool.
pub(crate) fn device_kinds() -> impl Iterator<Item = ComponentKind> {
    LABELS.iter().map(|l| l.kind).chain([ComponentKind::Cpu])
}

/// The ledger kind of a device trace track, whose `kind` is the
/// [`ComponentKind::name`] of one of [`device_kinds`]; `None` for any
/// other text.
pub(crate) fn track_kind(kind: &str) -> Option<ComponentKind> {
    device_kinds().find(|k| k.name() == kind)
}

/// Where a device's service times come from.
#[derive(Debug, Clone, Copy)]
enum ServiceModel {
    Disk(DiskPerfProfile),
    Ssd(SsdPerfProfile),
}

/// One simulated disk or SSD.
#[derive(Debug, Clone)]
pub struct StorageDevice {
    perf: ServiceModel,
    machine: PowerStateMachine,
    next_free: SimInstant,
    last_issue: SimInstant,
    stats: DeviceStats,
}

impl StorageDevice {
    /// A rotating disk, idle and spinning at `start`.
    pub fn disk(perf: DiskPerfProfile, power: DiskPowerProfile, start: SimInstant) -> Self {
        Self::new(ServiceModel::Disk(perf), power.machine(start), start)
    }

    /// An SSD, idle at `start`.
    pub fn ssd(perf: SsdPerfProfile, power: SsdPowerProfile, start: SimInstant) -> Self {
        Self::new(ServiceModel::Ssd(perf), power.machine(start), start)
    }

    fn new(perf: ServiceModel, machine: PowerStateMachine, start: SimInstant) -> Self {
        StorageDevice {
            perf,
            machine,
            next_free: start,
            last_issue: start,
            stats: DeviceStats::default(),
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
            "out-of-order issue to device: {at} after {}",
            self.last_issue
        );
        self.last_issue = at;
        let mut ready = at.max(self.next_free);
        if let Some(busy) = self.machine.busy_until() {
            ready = ready.max(busy);
        }
        let start = self.unpark(ready);
        let service = match self.perf {
            ServiceModel::Disk(p) => p.service_time(bytes, access),
            ServiceModel::Ssd(p) => p.service_time(bytes, access),
        };
        let end = start + service;
        #[expect(
            clippy::expect_used,
            reason = "a served interval starts at or after the machine's cursor and any spin"
        )]
        self.machine
            .busy(start, end)
            .expect("idle->active->idle at monotone times");
        self.next_free = end;
        self.stats.busy += service;
        self.stats.bytes += bytes;
        self.stats.requests += 1;
        Reservation { start, end }
    }

    /// Spin a disk down at `at` (no-op if already parked, and for an
    /// SSD, which has no standby). Returns when the transition completes.
    pub fn park(&mut self, at: SimInstant) -> SimInstant {
        if self.machine.spin().is_none() || self.is_parked() {
            return at;
        }
        let at = at.max(self.next_free);
        #[expect(
            clippy::expect_used,
            reason = "a spinning disk is idle once free, and may drop to standby"
        )]
        let done = self
            .machine
            .set_state(at, PowerState::Standby)
            .expect("idle->standby is a disk's spin-down");
        self.next_free = done;
        done
    }

    /// Spin the disk up at `at` (no-op if spinning). Returns when ready.
    pub fn unpark(&mut self, at: SimInstant) -> SimInstant {
        if !self.is_parked() {
            return at;
        }
        let mut at = at;
        if let Some(busy) = self.machine.busy_until() {
            at = at.max(busy);
        }
        #[expect(
            clippy::expect_used,
            reason = "a parked disk may spin up once its spin-down completes"
        )]
        let done = self
            .machine
            .set_state(at, PowerState::Idle)
            .expect("standby->idle is a disk's spin-up");
        self.next_free = done;
        done
    }

    /// True if the disk is currently spun down (never for an SSD).
    pub fn is_parked(&self) -> bool {
        self.machine.current() == PowerState::Standby
    }

    /// The instant the device becomes free for a new request.
    pub fn next_free(&self) -> SimInstant {
        self.next_free
    }

    /// Statistics so far.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Power drawn while seeking/transferring.
    pub fn active_power(&self) -> Watts {
        self.machine.state_power(PowerState::Active)
    }

    /// Latency and surge energy of one spin-up attempt (zero for an SSD).
    pub fn spin_up_cost(&self) -> (SimDuration, Joules) {
        self.machine
            .spin()
            .map_or((SimDuration::ZERO, Joules::ZERO), |s| {
                (s.up.latency, s.up.energy)
            })
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

    fn disk() -> StorageDevice {
        StorageDevice::disk(
            DiskPerfProfile::scsi_15k(),
            DiskPowerProfile::scsi_15k(),
            SimInstant::EPOCH,
        )
    }

    fn flash(power: SsdPowerProfile) -> StorageDevice {
        StorageDevice::ssd(SsdPerfProfile::fig2_flash(), power, SimInstant::EPOCH)
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
    fn fig2_drive_energy_is_constant_rate() {
        // The paper charges flash 5 W for wall time, so a fig2 SSD's
        // energy depends only on the horizon, not on activity.
        let horizon = at(10.0);
        let e_idle = flash(SsdPowerProfile::fig2_flash()).finish(horizon);
        let mut busy_drive = flash(SsdPowerProfile::fig2_flash());
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
        let horizon = at(10.0);
        let e_idle = flash(SsdPowerProfile::enterprise()).finish(horizon);
        let mut busy = flash(SsdPowerProfile::enterprise());
        busy.serve(
            at(0.0),
            Bytes::new(1_000_000_000),
            AccessPattern::Sequential,
        );
        let e_busy = busy.finish(horizon);
        assert!(e_busy.joules() > e_idle.joules());
    }

    #[test]
    fn ssd_queueing() {
        let mut s = flash(SsdPowerProfile::fig2_flash());
        let r1 = s.serve(at(0.0), Bytes::mib(200), AccessPattern::Sequential);
        let r2 = s.serve(at(0.0), Bytes::mib(200), AccessPattern::Sequential);
        assert_eq!(r2.start, r1.end);
        assert_eq!(s.stats().requests, 2);
        assert_eq!(s.stats().bytes, Bytes::mib(400));
        // Flash has no spin states: no spin-up to pay.
        assert_eq!(s.spin_up_cost(), (SimDuration::ZERO, Joules::ZERO));
    }

    #[test]
    fn an_ssd_never_parks() {
        let mut s = flash(SsdPowerProfile::enterprise());
        assert_eq!(s.park(at(3.0)), at(3.0));
        assert!(!s.is_parked());
        assert_eq!(s.unpark(at(4.0)), at(4.0));
        let r = s.serve(at(5.0), Bytes::mib(1), AccessPattern::Sequential);
        assert_eq!(r.start, at(5.0));
        // Nothing moved: the same energy as a drive never asked to park.
        let mut plain = flash(SsdPowerProfile::enterprise());
        plain.serve(at(5.0), Bytes::mib(1), AccessPattern::Sequential);
        assert_eq!(s.finish_summary(at(10.0)), plain.finish_summary(at(10.0)));
    }
}
