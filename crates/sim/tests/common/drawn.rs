//! Generated cells, good and bad, shared by `parallel.rs`'s unit tests
//! and the root `par_sim_determinism` test. The `crate::` paths resolve
//! in both: the root test imports `grail_sim`'s `driver` and `raid`
//! modules and the named root items at its own crate root.

use crate::driver::{IoDemand, JobSpec, PhaseSpec};
use crate::raid::RaidLevel;
use crate::{
    ArrayId, CellSpec, CpuPerfProfile, DiskId, DiskPerfProfile, SsdId, SsdPerfProfile,
    StorageTarget,
};
use grail_power::components::{CpuPowerProfile, DiskPowerProfile, SsdPowerProfile};
use grail_power::units::{Bytes, Cycles, Hertz, SimDuration, SimInstant};
use grail_prop::Gen;

/// A job aimed at a disk, an SSD or an array index that the drawn cell
/// may or may not own, with a degree of parallelism of 0 to 4.
pub fn drawn_job(g: &mut Gen) -> JobSpec {
    let target = match g.below(3) {
        0 => StorageTarget::Disk(DiskId(g.range(0u32..5))),
        1 => StorageTarget::Ssd(SsdId(g.range(0u32..3))),
        _ => StorageTarget::Array(ArrayId(g.range(0u32..2))),
    };
    let (cycles, dop) = (Cycles::new(g.range(0u64..40_000_000)), g.range(0u32..5));
    let io = vec![IoDemand::seq_read(target, Bytes::mib(g.range(1u64..8)))];
    let phase = match g.below(3) {
        0 => PhaseSpec::overlapped(cycles, dop, io),
        1 => PhaseSpec::io_then_cpu(cycles, dop, io),
        _ => PhaseSpec::cpu_only(cycles, dop),
    };
    let mut job = JobSpec::immediate(vec![phase]);
    job.arrival = SimInstant::EPOCH + SimDuration::from_millis(g.range(0u64..100));
    job
}

/// A cell of 0–4 cores, 0–4 disks without an array, under RAID-0 or
/// under RAID-5, 0–2 SSDs, and up to three streams of drawn jobs.
pub fn drawn_cell(g: &mut Gen) -> CellSpec {
    let cores = g.range(0u32..5);
    let (disks, raid, ssds) = (g.range(0usize..5), g.below(3), g.range(0usize..3));
    let streams = g.vec(0..4, |g| g.vec(0..4, drawn_job));
    let mut cell = CellSpec::new(
        CpuPerfProfile {
            cores,
            freq: Hertz::ghz(2.2),
        },
        CpuPowerProfile::opteron_socket(),
    )
    .with_disks(
        disks,
        DiskPerfProfile::scsi_15k(),
        DiskPowerProfile::scsi_15k(),
    )
    .with_ssds(
        ssds,
        SsdPerfProfile::fig2_flash(),
        SsdPowerProfile::fig2_flash(),
    )
    .with_streams(streams);
    if raid > 0 {
        let level = [RaidLevel::Raid0, RaidLevel::Raid5][raid as usize - 1];
        cell = cell.with_raid(level);
    }
    cell
}
