//! Hardware profiles: the paper's two test systems, and constructors
//! for variations.

use grail_power::components::{CpuPowerProfile, DiskPowerProfile, SsdPowerProfile};
use grail_power::units::Watts;
use grail_sim::perf::{CpuPerfProfile, DiskPerfProfile, FabricModel, SsdPerfProfile};
use grail_sim::raid::RaidLevel;
use grail_sim::sim::Simulation;
use grail_sim::{CpuId, SimError, StorageTarget};

/// A complete machine description: performance and power for every
/// component class, plus topology.
#[derive(Debug, Clone)]
pub struct HardwareProfile {
    /// Profile name (reports).
    pub name: &'static str,
    /// CPU pool performance.
    pub cpu_perf: CpuPerfProfile,
    /// CPU power.
    pub cpu_power: CpuPowerProfile,
    /// Number of rotating disks.
    pub disks: usize,
    /// Disk performance.
    pub disk_perf: DiskPerfProfile,
    /// Disk power.
    pub disk_power: DiskPowerProfile,
    /// RAID level over the disks (if any disks exist).
    pub raid: RaidLevel,
    /// Storage-fabric scaling model for the disk array.
    pub fabric: FabricModel,
    /// Number of SSDs.
    pub ssds: usize,
    /// SSD performance.
    pub ssd_perf: SsdPerfProfile,
    /// SSD power.
    pub ssd_power: SsdPowerProfile,
    /// Constant base draw (chassis, board, fans).
    pub base_power: Watts,
}

impl HardwareProfile {
    /// The Fig. 1 server: an HP ProLiant DL785-class machine — 8 ×
    /// quad-core 2.3 GHz Opterons, `disks` 15K SCSI spindles in RAID-5.
    ///
    /// Calibration: the paper reports a 14% efficiency gain for a 45%
    /// performance drop between 66 and 204 disks, which pins the base
    /// (non-disk) power at ~941 W given 15 W/spindle (see DESIGN.md).
    /// Disks draw a constant 15 W while spinning (idle ≈ active for 15K
    /// SCSI), matching the paper's "each additional disk contributes the
    /// same power".
    pub fn server_dl785(disks: usize) -> Self {
        HardwareProfile {
            name: "server_dl785",
            cpu_perf: CpuPerfProfile::dl785(),
            cpu_power: CpuPowerProfile::opteron_socket(),
            disks,
            disk_perf: DiskPerfProfile::scsi_15k(),
            disk_power: DiskPowerProfile {
                active: Watts::new(15.0),
                idle: Watts::new(15.0),
                ..DiskPowerProfile::scsi_15k()
            },
            raid: RaidLevel::Raid5,
            fabric: FabricModel::dl785_sas(),
            ssds: 0,
            ssd_perf: SsdPerfProfile::fig2_flash(),
            ssd_power: SsdPowerProfile::fig2_flash(),
            // 941 W = CPUs + memory + chassis; the CPU model already
            // bills its idle draw, so the remainder is charged as base.
            base_power: Watts::new(941.0)
                - CpuPowerProfile::opteron_socket().idle_power(CpuPerfProfile::dl785().cores),
        }
    }

    /// The Fig. 2 scan box: one 90 W CPU (free when idle) and three
    /// flash drives totalling 5 W, charged for wall time as the paper
    /// does.
    pub fn flash_scanner() -> Self {
        HardwareProfile {
            name: "flash_scanner",
            cpu_perf: CpuPerfProfile::fig2_single(),
            cpu_power: CpuPowerProfile::fig2_cpu(),
            disks: 0,
            disk_perf: DiskPerfProfile::scsi_15k(),
            disk_power: DiskPowerProfile::scsi_15k(),
            raid: RaidLevel::Raid0,
            fabric: FabricModel::unconstrained(),
            ssds: 3,
            ssd_perf: SsdPerfProfile::fig2_flash(),
            ssd_power: SsdPowerProfile::fig2_flash(),
            base_power: Watts::ZERO,
        }
    }

    /// A small server whose spindles a governor parks: `cores` of the
    /// DL785's cores over `disks` 15K SCSI drives (with spin states) in
    /// `raid`, with no base draw and an unconstrained fabric.
    pub fn scsi_server(cores: u32, disks: usize, raid: RaidLevel) -> Self {
        HardwareProfile {
            name: "scsi_server",
            cpu_perf: CpuPerfProfile {
                cores,
                ..CpuPerfProfile::dl785()
            },
            disks,
            disk_power: DiskPowerProfile::scsi_15k(),
            raid,
            fabric: FabricModel::unconstrained(),
            base_power: Watts::ZERO,
            ..Self::server_dl785(0)
        }
    }

    /// Whether a scan stripes across the disk array (the profile has
    /// disks) rather than across each SSD; SSDs beside disks draw power
    /// but carry no scan. [`SimError::NoStorage`] without disks or SSDs,
    /// [`SimError::BadArrayGeometry`] below the RAID level's minimum.
    pub fn scans_disk_array(&self) -> Result<bool, SimError> {
        let min = self.raid.min_disks();
        match (self.disks, self.ssds) {
            (0, 0) => Err(SimError::NoStorage),
            (0, _) => Ok(false),
            (disks, _) if disks < min => Err(SimError::BadArrayGeometry { disks, min }),
            _ => Ok(true),
        }
    }

    /// Instantiate the simulator: returns the machine, its CPU pool,
    /// and the *stripe targets* — the physical units a logical IO demand
    /// is split across ([`Self::scans_disk_array`]: one RAID array, or
    /// each SSD, matching Fig. 2's scanner striping its columns over all
    /// three drives). Panics where [`Self::try_build`] errs.
    #[expect(clippy::expect_used, reason = "documented panicking form of try_build")]
    pub fn build(&self) -> (Simulation, CpuId, Vec<StorageTarget>) {
        self.try_build()
            .expect("profile has storage and its disks satisfy RAID minimums")
    }

    /// Fallible form of [`Self::build`]; errs where
    /// [`Self::scans_disk_array`] does.
    pub fn try_build(&self) -> Result<(Simulation, CpuId, Vec<StorageTarget>), SimError> {
        let mut sim = Simulation::new();
        let cpu = sim.add_cpu(self.cpu_perf, self.cpu_power);
        sim.set_base_power(self.base_power);
        sim.set_fabric(self.fabric);
        let disks = sim.add_disks(self.disks, self.disk_perf, self.disk_power);
        let ssds = sim.add_ssds(self.ssds, self.ssd_perf, self.ssd_power);
        let targets = if self.scans_disk_array()? {
            vec![StorageTarget::Array(sim.make_array(self.raid, disks)?)]
        } else {
            ssds.into_iter().map(StorageTarget::Ssd).collect()
        };
        Ok((sim, cpu, targets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grail_power::units::{Bytes, Cycles, SimInstant};
    use grail_sim::perf::AccessPattern;

    #[test]
    fn dl785_base_plus_disks_matches_calibration() {
        // Total idle power at N disks ≈ 941 + 15 N (the DESIGN.md
        // calibration for the Fig. 1 efficiency arithmetic).
        for disks in [36usize, 66, 108, 204] {
            let p = HardwareProfile::server_dl785(disks);
            let (sim, _, _) = p.build();
            let report = sim.finish(SimInstant::from_secs_f64(100.0));
            let avg = report.avg_power().get();
            let expect = 941.0 + 15.0 * disks as f64;
            assert!(
                (avg - expect).abs() < 2.0,
                "disks={disks}: {avg} vs {expect}"
            );
        }
    }

    #[test]
    fn flash_scanner_idle_draws_five_watts() {
        let p = HardwareProfile::flash_scanner();
        let (sim, _, _) = p.build();
        let report = sim.finish(SimInstant::from_secs_f64(10.0));
        assert!((report.total_energy().joules() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn build_produces_usable_devices() {
        let p = HardwareProfile::server_dl785(36);
        let (mut sim, cpu, targets) = p.build();
        assert_eq!(targets.len(), 1);
        sim.read(
            targets[0],
            SimInstant::EPOCH,
            Bytes::gib(1),
            AccessPattern::Sequential,
        )
        .unwrap();
        sim.compute(cpu, SimInstant::EPOCH, Cycles::new(1_000_000))
            .unwrap();
        assert!(sim.horizon() > SimInstant::EPOCH);
        // Flash profile exposes one target per drive.
        let (_, _, flash_targets) = HardwareProfile::flash_scanner().build();
        assert_eq!(flash_targets.len(), 3);
    }

    #[test]
    fn try_build_rejects_raid5_below_three_disks() {
        for disks in [1, 2] {
            let err = HardwareProfile::server_dl785(disks).try_build().err();
            assert_eq!(err, Some(SimError::BadArrayGeometry { disks, min: 3 }));
        }
        assert!(HardwareProfile::server_dl785(3).try_build().is_ok());
    }

    #[test]
    #[should_panic(expected = "RAID minimums")]
    fn build_panics_below_the_raid_minimum() {
        let _ = HardwareProfile::server_dl785(2).build();
    }
}
