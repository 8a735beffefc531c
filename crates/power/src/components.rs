//! Concrete component power profiles, calibrated to the hardware classes
//! of the paper's two experiments.
//!
//! Each profile is plain data plus a constructor for its
//! [`PowerStateMachine`]: every component is active or idle, and only a
//! disk has a [`Spin`] down to standby and back. Numbers come from the
//! paper where it gives them (90 W CPU, 5 W for three flash drives, ~15 W
//! per 15K SCSI spindle) and from era-typical datasheets elsewhere; every
//! figure is a named field so experiments can recalibrate without
//! touching model code.

use crate::state::{PowerStateMachine, Spin, Transition};
use crate::units::{Joules, SimDuration, SimInstant, Watts};

// ---------------------------------------------------------------------------
// Disk
// ---------------------------------------------------------------------------

/// Power profile of one rotating disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskPowerProfile {
    /// Power while seeking/transferring.
    pub active: Watts,
    /// Power while spinning idle.
    pub idle: Watts,
    /// Power while spun down.
    pub standby: Watts,
    /// Spin-down latency.
    pub spin_down_latency: SimDuration,
    /// Spin-down energy.
    pub spin_down_energy: Joules,
    /// Spin-up latency.
    pub spin_up_latency: SimDuration,
    /// Spin-up energy (motor surge).
    pub spin_up_energy: Joules,
}

impl DiskPowerProfile {
    /// A 15K RPM 73 GB SCSI drive of the Fig. 1 era (HP/Seagate class):
    /// the paper's configuration used 36–204 of these. Idle ≈ active for
    /// such drives — the spindle dominates — which is exactly why the
    /// paper treats "each additional disk" as a constant power adder.
    pub fn scsi_15k() -> Self {
        DiskPowerProfile {
            active: Watts::new(15.0),
            idle: Watts::new(12.5),
            standby: Watts::new(2.5),
            spin_down_latency: SimDuration::from_secs(1),
            spin_down_energy: Joules::new(8.0),
            spin_up_latency: SimDuration::from_secs(6),
            spin_up_energy: Joules::new(140.0),
        }
    }

    /// Build the machine for one drive, starting spinning idle: the
    /// only one with a standby state.
    pub fn machine(&self, start: SimInstant) -> PowerStateMachine {
        let spin = Spin {
            standby: self.standby,
            down: Transition {
                latency: self.spin_down_latency,
                energy: self.spin_down_energy,
            },
            up: Transition {
                latency: self.spin_up_latency,
                energy: self.spin_up_energy,
            },
        };
        PowerStateMachine::new(self.active, self.idle, Some(spin), start)
    }
}

// ---------------------------------------------------------------------------
// SSD
// ---------------------------------------------------------------------------

/// Power profile of one solid-state drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdPowerProfile {
    /// Power while transferring.
    pub active: Watts,
    /// Power while idle.
    pub idle: Watts,
}

impl SsdPowerProfile {
    /// One of the three flash drives of Fig. 2: the paper charges the
    /// trio 5 W *for the full query duration*, i.e. ~1.667 W each with
    /// no active/idle distinction.
    pub fn fig2_flash() -> Self {
        SsdPowerProfile {
            active: Watts::new(5.0 / 3.0),
            idle: Watts::new(5.0 / 3.0),
        }
    }

    /// A more modern enterprise SSD with a real active/idle split.
    pub fn enterprise() -> Self {
        SsdPowerProfile {
            active: Watts::new(6.0),
            idle: Watts::new(1.2),
        }
    }

    /// Build the machine for one SSD, starting idle (no standby).
    pub fn machine(&self, start: SimInstant) -> PowerStateMachine {
        PowerStateMachine::new(self.active, self.idle, None, start)
    }
}

// ---------------------------------------------------------------------------
// CPU
// ---------------------------------------------------------------------------

/// Power profile of a CPU socket: a shared uncore floor plus per-core
/// active/idle draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuPowerProfile {
    /// Per-core power while executing.
    pub core_active: Watts,
    /// Per-core power while halted.
    pub core_idle: Watts,
    /// Socket-wide floor (uncore, caches, memory controller).
    pub uncore: Watts,
    /// Cores per socket.
    pub cores: u32,
}

impl CpuPowerProfile {
    /// The Fig. 2 accounting: "the CPU has a power consumption of 90
    /// Watts … assuming that an idle CPU does not consume any power".
    /// One core, 90 W active, 0 W idle, no uncore.
    pub fn fig2_cpu() -> Self {
        CpuPowerProfile {
            core_active: Watts::new(90.0),
            core_idle: Watts::ZERO,
            uncore: Watts::ZERO,
            cores: 1,
        }
    }

    /// A quad-core Opteron socket of the Fig. 1 server (8 of these):
    /// ~95 W TDP ≈ 18 W/core active + 4 W/core idle + 15 W uncore.
    pub fn opteron_socket() -> Self {
        CpuPowerProfile {
            core_active: Watts::new(18.0),
            core_idle: Watts::new(4.0),
            uncore: Watts::new(15.0),
            cores: 4,
        }
    }

    /// The uncore floor of `cores` cores: one `uncore` per socket used.
    pub fn uncore_power(&self, cores: u32) -> Watts {
        if self.cores == 0 {
            return Watts::ZERO;
        }
        self.uncore * (f64::from(cores) / f64::from(self.cores)).ceil()
    }

    /// `cores` cores all halted: `cores × core_idle` plus the uncore floor.
    pub fn idle_power(&self, cores: u32) -> Watts {
        self.core_idle * f64::from(cores) + self.uncore_power(cores)
    }

    /// Build one core's machine, starting idle (no standby). The uncore
    /// floor is charged separately (it exists whether or not cores work).
    pub fn core_machine(&self, start: SimInstant) -> PowerStateMachine {
        PowerStateMachine::new(self.core_active, self.core_idle, None, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::PowerState::{Active, Idle, Standby};

    #[test]
    fn disk_machine_wiring() {
        let p = DiskPowerProfile::scsi_15k();
        let mut m = p.machine(SimInstant::EPOCH);
        assert_eq!(m.current(), Idle);
        // idle -> active is instant and free.
        let done = m
            .set_state(SimInstant::EPOCH + SimDuration::from_secs(1), Active)
            .unwrap();
        assert_eq!(done, SimInstant::EPOCH + SimDuration::from_secs(1));
        // active -> standby must pass through idle.
        assert!(m
            .set_state(SimInstant::EPOCH + SimDuration::from_secs(2), Standby)
            .is_err());
    }

    #[test]
    fn disk_spin_round_trip_energy() {
        let p = DiskPowerProfile::scsi_15k();
        let mut m = p.machine(SimInstant::EPOCH);
        let t = |s: u64| SimInstant::EPOCH + SimDuration::from_secs(s);
        m.set_state(t(0), Standby).unwrap(); // 1 s, 8 J
        m.set_state(t(100), Idle).unwrap(); // 6 s, 140 J
        let s = m.finish(t(106)).unwrap();
        // 8 + 140 transition J + 99 s standby at 2.5 W.
        let expect = 8.0 + 140.0 + 99.0 * 2.5;
        assert!((s.total_energy.joules() - expect).abs() < 1e-6);
    }

    #[test]
    fn fig2_flash_draws_five_watts_total() {
        let p = SsdPowerProfile::fig2_flash();
        let total = p.active + p.active + p.active;
        assert!((total.get() - 5.0).abs() < 1e-9);
        // Idle equals active: the paper charges flash for wall time.
        assert_eq!(p.active, p.idle);
    }

    #[test]
    fn fig2_cpu_energy_matches_paper() {
        let p = CpuPowerProfile::fig2_cpu();
        let mut core = p.core_machine(SimInstant::EPOCH);
        let busy_end = SimInstant::EPOCH + SimDuration::from_secs_f64(3.2);
        core.busy(SimInstant::EPOCH, busy_end).unwrap();
        let s = core
            .finish(SimInstant::EPOCH + SimDuration::from_secs(10))
            .unwrap();
        // 90 W × 3.2 s = 288 J, and nothing while idle.
        assert!((s.total_energy.joules() - 288.0).abs() < 1e-9);
    }
}
