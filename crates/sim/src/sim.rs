//! The [`Simulation`] container: devices, arrays, base power, and the
//! final energy reckoning.

use crate::attr::{AttributionAcc, AttributionTable};
use crate::cpu::CpuDevice;
use crate::device::{DeviceClass, DeviceStats, StorageDevice};
use crate::error::SimError;
use crate::fault::{FaultKind, FaultPlan, FaultStats};
use crate::ids::{ArrayId, CpuId, DiskId, SsdId, StorageTarget};
use crate::perf::{AccessPattern, CpuPerfProfile, DiskPerfProfile, FabricModel, SsdPerfProfile};
use crate::raid::{RaidLevel, RaidSpec};
use grail_metrics::registry::SECONDS_BUCKETS;
use grail_power::components::{CpuPowerProfile, DiskPowerProfile, SsdPowerProfile};
use grail_power::ledger::{ComponentId, ComponentKind, EnergyLedger, LedgerOp};
use grail_power::state::MachineSummary;
use grail_power::units::{Bytes, Cycles, Joules, SimDuration, SimInstant, Watts};
use grail_trace::{ArgValue, Category, Recorder, TraceEvent, TraceTime, Tracer, Track};
use std::sync::Arc;

/// Convert a simulated instant into a trace timestamp. The trace layer
/// carries bare simulated nanoseconds so it can stay dependency-free.
#[inline]
pub(crate) fn tt(at: SimInstant) -> TraceTime {
    TraceTime::from_nanos(at.as_nanos())
}

/// One journaled ledger movement as a `Ledger`-category event at `at`.
/// Component ids ride as [`ArgValue::Label`]s — exported as the same
/// `disk[3]` text their `Display` gives, without an owned string.
pub(crate) fn ledger_event(at: SimInstant, op: LedgerOp) -> TraceEvent {
    let label = |id: ComponentId| ArgValue::Label {
        kind: id.kind.name(),
        index: id.index,
    };
    let event = |name| TraceEvent::instant(tt(at), Category::Ledger, name, Track::Main);
    match op {
        LedgerOp::Charge { component, energy } => event("ledger.charge")
            .arg("component", label(component))
            .arg("joules", energy.joules()),
        LedgerOp::Transfer { from, to, moved } => event("ledger.transfer")
            .arg("from", label(from))
            .arg("to", label(to))
            .arg("joules", moved.joules()),
    }
}

/// The interval a request occupies its device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When service begins (≥ issue time).
    pub start: SimInstant,
    /// When service completes.
    pub end: SimInstant,
}

impl Reservation {
    /// Service duration.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }

    /// Merge two reservations into their spanning interval.
    pub fn span(self, other: Reservation) -> Reservation {
        Reservation {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// A pending re-attribution (or direct charge) of recovery energy,
/// settled against the ledger at [`Simulation::finish`].
#[derive(Debug, Clone, Copy)]
struct RecoveryCharge {
    /// The component whose settled energy the charge is carved out of,
    /// or `None` for energy no device machine captured (e.g. the surge
    /// of a failed spin-up attempt).
    from: Option<ComponentId>,
    energy: Joules,
}

/// One simulated machine: CPU pools, disks, SSDs, arrays, and a constant
/// base draw.
#[derive(Debug, Clone)]
pub struct Simulation {
    disks: Vec<StorageDevice>,
    ssds: Vec<StorageDevice>,
    cpus: Vec<CpuDevice>,
    arrays: Vec<Arc<RaidSpec>>,
    base_power: Watts,
    fabric: FabricModel,
    fault_plan: Option<FaultPlan>,
    recovery: Vec<RecoveryCharge>,
    retry_pending: Joules,
    tracer: Tracer,
    attribution: Option<AttributionAcc>,
    query_tag: Option<(u32, u32)>,
    /// The members one array IO served and their reservations: a
    /// buffer every array IO reuses.
    served: Vec<(DiskId, Reservation)>,
}

impl Default for Simulation {
    fn default() -> Self {
        Simulation {
            disks: Vec::new(),
            ssds: Vec::new(),
            cpus: Vec::new(),
            arrays: Vec::new(),
            base_power: Watts::ZERO,
            fabric: FabricModel::unconstrained(),
            fault_plan: None,
            recovery: Vec::new(),
            retry_pending: Joules::ZERO,
            tracer: Tracer::off(),
            attribution: None,
            query_tag: None,
            served: Vec::new(),
        }
    }
}

impl Simulation {
    /// An empty machine.
    pub fn new() -> Self {
        Simulation::default()
    }

    /// Set the constant base draw (chassis, fans, board) charged over the
    /// whole simulated span.
    pub fn set_base_power(&mut self, w: Watts) {
        self.base_power = w;
    }

    /// Set the storage-fabric scaling model applied to array IO.
    pub fn set_fabric(&mut self, fabric: FabricModel) {
        self.fabric = fabric;
    }

    /// Install a tracer. The default is [`Tracer::off`], which keeps
    /// every instrumentation site a single branch with no allocation.
    /// The recorder (events + metrics) comes back in
    /// [`SimReport::trace`] after [`Simulation::finish`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer handle (for drivers that emit their own events or
    /// metrics into the same recorder).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Turn on per-query energy attribution: active energy of every
    /// reservation issued while a query tag is set (see
    /// [`Simulation::set_query_tag`]) accumulates per query, and
    /// [`Simulation::finish`] settles the table into
    /// [`SimReport::attribution`].
    pub fn enable_attribution(&mut self) {
        if self.attribution.is_none() {
            self.attribution = Some(AttributionAcc::default());
        }
    }

    /// Tag subsequent reservations as caused by query `index` of client
    /// `stream`. No-op unless attribution is enabled. Both are dense
    /// indices counted from zero: the accumulator is a vector over them.
    pub fn set_query_tag(&mut self, stream: u32, index: u32) {
        if self.attribution.is_some() {
            self.query_tag = Some((stream, index));
        }
    }

    /// Clear the query tag: subsequent energy is unattributed.
    pub fn clear_query_tag(&mut self) {
        self.query_tag = None;
    }

    /// Hand the raw accumulator to a caller that settles several
    /// simulations into one table (the shard commit);
    /// [`Simulation::finish`] then reports no table of its own.
    pub(crate) fn take_attribution(&mut self) -> Option<AttributionAcc> {
        self.attribution.take()
    }

    /// Accumulate active energy against the current query tag.
    #[inline]
    fn attribute(&mut self, energy: Joules) {
        if let (Some(acc), Some(tag)) = (self.attribution.as_mut(), self.query_tag) {
            acc.add(tag, energy);
        }
    }

    /// Install a seeded fault plan. Strictly opt-in: without one (or with
    /// a zero-rate config) the simulator behaves exactly as before.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Fault counters so far (all zero without a plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_plan
            .as_ref()
            .map(|p| p.stats())
            .unwrap_or_default()
    }

    /// Bill `energy` to the `Recovery` ledger category at settlement —
    /// recovery work no device machine captured (a chaos crash's reboot
    /// surge, replay of lost work). Emits a `Fault` trace event at `at`;
    /// the ledger movement itself happens at [`Simulation::finish`],
    /// like every other recovery settlement.
    pub fn bill_recovery(&mut self, at: SimInstant, reason: &'static str, energy: Joules) {
        self.recovery.push(RecoveryCharge { from: None, energy });
        self.tracer.count("fault.recovery_bills", 1);
        self.tracer.emit(Category::Fault, || {
            TraceEvent::instant(tt(at), Category::Fault, reason, Track::Main)
                .arg("joules", energy.joules())
        });
    }

    /// Energy wasted by failed attempts since the last drain. Drivers
    /// call this after catching a retryable error to attribute retry
    /// energy to the job that paid it.
    pub fn drain_retry_energy(&mut self) -> Joules {
        let e = self.retry_pending;
        self.retry_pending = Joules::ZERO;
        e
    }

    /// Members of array `id` that have failed by `at` (empty without a
    /// fault plan).
    pub fn failed_array_disks(
        &mut self,
        id: ArrayId,
        at: SimInstant,
    ) -> Result<Vec<DiskId>, SimError> {
        let spec = Arc::clone(self.array_arc(id)?);
        let Some(plan) = self.fault_plan.as_mut() else {
            return Ok(Vec::new());
        };
        Ok(spec
            .disks
            .iter()
            .copied()
            .filter(|d| plan.failed(DeviceClass::Disk, d.0, at))
            .collect())
    }

    /// Rebuild every failed member of array `id`, starting at `at`.
    ///
    /// Each surviving member streams one sequential read of `disk_bytes`
    /// (its share of the array's contents), the replacement disk absorbs
    /// a sequential write of the same volume, and `cpu` — when given —
    /// pays the parity-XOR work (~0.25 cycles per byte per survivor
    /// stream). Every Joule of it is charged to the `Recovery` category
    /// at [`Simulation::finish`], and the rebuilt disks' next failure
    /// times are resampled from the plan's MTTF.
    ///
    /// Spin-up fault draws are suppressed during the rebuild (it is the
    /// recovery path itself). Errors with [`SimError::NothingToRebuild`]
    /// if no member has failed.
    pub fn rebuild_array(
        &mut self,
        id: ArrayId,
        at: SimInstant,
        disk_bytes: Bytes,
        cpu: Option<CpuId>,
    ) -> Result<Reservation, SimError> {
        let failed = self.failed_array_disks(id, at)?;
        if failed.is_empty() {
            return Err(SimError::NothingToRebuild {
                array: format!("{id:?}"),
            });
        }
        let survivors: Vec<DiskId> = self
            .array(id)?
            .disks
            .iter()
            .copied()
            .filter(|d| !failed.contains(d))
            .collect();
        let mut span: Option<Reservation> = None;
        let merge = |span: &mut Option<Reservation>, r: Reservation| {
            *span = Some(match span.take() {
                Some(acc) => acc.span(r),
                None => r,
            });
        };
        // Survivors stream their full contents once: a single XOR pass
        // reconstructs every missing unit.
        for d in survivors.iter().chain(failed.iter()) {
            let idx = d.0 as usize;
            let dev = self
                .disks
                .get_mut(idx)
                .ok_or_else(|| SimError::UnknownDevice(format!("{d:?}")))?;
            let r = dev.serve(at, disk_bytes, AccessPattern::Sequential);
            let e = self.disks[idx].active_power() * r.duration();
            self.recovery.push(RecoveryCharge {
                from: Some(ComponentId::new(ComponentKind::Disk, d.0)),
                energy: e,
            });
            merge(&mut span, r);
        }
        if let Some(cid) = cpu {
            let cycles =
                Cycles::new((disk_bytes.get() as f64 * 0.25 * survivors.len() as f64) as u64);
            let c = self
                .cpus
                .get_mut(cid.0 as usize)
                .ok_or_else(|| SimError::UnknownDevice(format!("{cid:?}")))?;
            let r = c.compute_parallel(at, cycles, 1);
            let e = self.cpus[cid.0 as usize].core_active_power() * r.duration();
            self.recovery.push(RecoveryCharge {
                from: Some(ComponentId::new(ComponentKind::Cpu, cid.0)),
                energy: e,
            });
            merge(&mut span, r);
        }
        #[expect(clippy::expect_used, reason = "make_array rejects empty arrays")]
        let done = span.expect("arrays are non-empty");
        self.tracer.count("fault.rebuilds", 1);
        self.tracer.emit(Category::Fault, || {
            TraceEvent::span(
                tt(at),
                done.end.saturating_duration_since(at).as_nanos(),
                Category::Fault,
                "recovery.rebuild",
                Track::Main,
            )
            .arg("array", id.0 as u64)
            .arg("failed", failed.len() as u64)
            .arg("bytes_per_disk", disk_bytes.get())
        });
        if let Some(plan) = self.fault_plan.as_mut() {
            for d in &failed {
                plan.mark_rebuilt(*d, done.end);
            }
        }
        Ok(done)
    }

    /// Add one rotating disk.
    pub fn add_disk(&mut self, perf: DiskPerfProfile, power: DiskPowerProfile) -> DiskId {
        let id = DiskId(self.disks.len() as u32);
        self.disks
            .push(StorageDevice::disk(perf, power, SimInstant::EPOCH));
        id
    }

    /// Add `n` identical rotating disks.
    pub fn add_disks(
        &mut self,
        n: usize,
        perf: DiskPerfProfile,
        power: DiskPowerProfile,
    ) -> Vec<DiskId> {
        (0..n).map(|_| self.add_disk(perf, power)).collect()
    }

    /// Add one SSD.
    pub fn add_ssd(&mut self, perf: SsdPerfProfile, power: SsdPowerProfile) -> SsdId {
        let id = SsdId(self.ssds.len() as u32);
        self.ssds
            .push(StorageDevice::ssd(perf, power, SimInstant::EPOCH));
        id
    }

    /// Add `n` identical SSDs.
    pub fn add_ssds(
        &mut self,
        n: usize,
        perf: SsdPerfProfile,
        power: SsdPowerProfile,
    ) -> Vec<SsdId> {
        (0..n).map(|_| self.add_ssd(perf, power)).collect()
    }

    /// Add one CPU pool.
    pub fn add_cpu(&mut self, perf: CpuPerfProfile, power: CpuPowerProfile) -> CpuId {
        let id = CpuId(self.cpus.len() as u32);
        self.cpus
            .push(CpuDevice::new(perf, power, SimInstant::EPOCH));
        id
    }

    /// Declare a RAID array over existing disks.
    pub fn make_array(
        &mut self,
        level: RaidLevel,
        disks: Vec<DiskId>,
    ) -> Result<ArrayId, SimError> {
        for d in &disks {
            if d.0 as usize >= self.disks.len() {
                return Err(SimError::UnknownDevice(format!("{d:?}")));
            }
        }
        let spec = RaidSpec::new(level, disks)?;
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(Arc::new(spec));
        Ok(id)
    }

    /// The array spec behind `id`.
    pub fn array(&self, id: ArrayId) -> Result<&RaidSpec, SimError> {
        self.array_arc(id).map(|spec| &**spec)
    }

    fn array_arc(&self, id: ArrayId) -> Result<&Arc<RaidSpec>, SimError> {
        self.arrays
            .get(id.0 as usize)
            .ok_or_else(|| SimError::UnknownDevice(format!("{id:?}")))
    }

    /// Read `bytes` from `target` at `at`.
    ///
    /// Array reads fan out to every member disk (each moving its stripe
    /// share) and complete when the slowest member does. With a fault
    /// plan installed, reads may fail with retryable
    /// ([`SimError::TransientIo`], [`SimError::LatentSector`]) or
    /// permanent ([`SimError::DeviceFailed`]) errors; a RAID-5 array with
    /// exactly one failed member serves reads degraded, reconstructing
    /// from parity at the cost of extra survivor IO charged to the
    /// `Recovery` energy category.
    pub fn read(
        &mut self,
        target: StorageTarget,
        at: SimInstant,
        bytes: Bytes,
        access: AccessPattern,
    ) -> Result<Reservation, SimError> {
        self.io(target, at, bytes, access, true)
    }

    /// Write `bytes` to `target` at `at` (RAID-5 pays parity overhead).
    pub fn write(
        &mut self,
        target: StorageTarget,
        at: SimInstant,
        bytes: Bytes,
        access: AccessPattern,
    ) -> Result<Reservation, SimError> {
        self.io(target, at, bytes, access, false)
    }

    /// Serve one read or write on any target.
    fn io(
        &mut self,
        target: StorageTarget,
        at: SimInstant,
        bytes: Bytes,
        access: AccessPattern,
        is_read: bool,
    ) -> Result<Reservation, SimError> {
        match target {
            StorageTarget::Disk(id) => {
                self.device_io(DeviceClass::Disk, id.0, at, bytes, access, is_read)
            }
            StorageTarget::Ssd(id) => {
                self.device_io(DeviceClass::Ssd, id.0, at, bytes, access, is_read)
            }
            StorageTarget::Array(id) => self.array_io(id, at, bytes, access, is_read),
        }
    }

    /// Serve one IO on a single disk or SSD, applying fault draws when a
    /// plan is installed: a parked disk draws its spin-up first, then the
    /// served attempt draws a transient (on a disk read, also a latent)
    /// fault.
    fn device_io(
        &mut self,
        class: DeviceClass,
        index: u32,
        at: SimInstant,
        bytes: Bytes,
        access: AccessPattern,
        is_read: bool,
    ) -> Result<Reservation, SimError> {
        let labels = class.labels();
        let name = || format!("{}({index})", labels.id);
        let track = Track::Device {
            kind: labels.kind.name(),
            index,
        };
        let devices = match class {
            DeviceClass::Disk => &mut self.disks,
            DeviceClass::Ssd => &mut self.ssds,
        };
        let dev = devices
            .get_mut(index as usize)
            .ok_or_else(|| SimError::UnknownDevice(name()))?;
        if let Some(plan) = self.fault_plan.as_mut() {
            if plan.failed(class, index, at) {
                return Err(SimError::DeviceFailed { device: name() });
            }
            if dev.is_parked() {
                if let Some(kind) = plan.draw_spin_up(DiskId(index), at) {
                    // The failed attempt still burned the motor surge; no
                    // device machine captured it, so charge it to
                    // Recovery directly.
                    let (lat, surge) = dev.spin_up_cost();
                    self.waste(&[RecoveryCharge {
                        from: None,
                        energy: surge,
                    }]);
                    let killed = kind == FaultKind::DiskFailure;
                    self.tracer.count("fault.spin_up_failures", 1);
                    self.tracer.emit(Category::Fault, || {
                        TraceEvent::instant(tt(at), Category::Fault, "fault.spin_up", track)
                            .arg("surge_j", surge.joules())
                            .arg("kind", if killed { "disk_failure" } else { "transient" })
                    });
                    return Err(if killed {
                        SimError::DeviceFailed { device: name() }
                    } else {
                        SimError::TransientIo {
                            device: name(),
                            until: at + lat,
                        }
                    });
                }
            }
        }
        let r = dev.serve(at, bytes, access);
        let active = dev.active_power() * r.duration();
        let fault = self
            .fault_plan
            .as_mut()
            .and_then(|plan| plan.draw_io(class, index, is_read));
        if let Some(kind) = fault {
            // The attempt's service energy was wasted: recovery work,
            // attributed to the retry.
            self.waste(&[RecoveryCharge {
                from: Some(ComponentId::new(labels.kind, index)),
                energy: active,
            }]);
            self.tracer.count("fault.io_faults", 1);
            self.tracer.emit(Category::Fault, || {
                TraceEvent::instant(tt(r.end), Category::Fault, labels.fault, track)
                    .arg("wasted_j", active.joules())
            });
            let device = name();
            return Err(match kind {
                FaultKind::LatentSector => SimError::LatentSector {
                    device,
                    until: r.end,
                },
                _ => SimError::TransientIo {
                    device,
                    until: r.end,
                },
            });
        }
        self.attribute(active);
        self.tracer.count("io.requests", 1);
        self.tracer.observe(
            labels.service_secs,
            SECONDS_BUCKETS,
            r.duration().as_secs_f64(),
        );
        self.tracer.emit(Category::Io, || {
            TraceEvent::span(
                tt(r.start),
                r.duration().as_nanos(),
                Category::Io,
                if is_read { labels.read } else { labels.write },
                track,
            )
            .arg("bytes", bytes.get())
            .arg("active_j", active.joules())
        });
        Ok(r)
    }

    /// Book the energy of a failed attempt: each charge moves to the
    /// `Recovery` category at settlement and waits in the retry energy
    /// the driver drains, and their sum is attributed once to the
    /// current query. Returns that sum.
    fn waste(&mut self, charges: &[RecoveryCharge]) -> Joules {
        let mut total = Joules::ZERO;
        for &charge in charges {
            self.recovery.push(charge);
            self.retry_pending += charge.energy;
            total += charge.energy;
        }
        self.attribute(total);
        total
    }

    /// Serve one array IO (read or write), handling degraded RAID-5 mode
    /// and fault draws on every member.
    fn array_io(
        &mut self,
        id: ArrayId,
        at: SimInstant,
        bytes: Bytes,
        access: AccessPattern,
        is_read: bool,
    ) -> Result<Reservation, SimError> {
        let spec = Arc::clone(self.array_arc(id)?);
        // RAID-5 small writes pay read-modify-write: four IOs (read data,
        // read parity, write data, write parity) per logical write.
        // Full-stripe (sequential) writes avoid it.
        let access = if is_read {
            access
        } else {
            match (spec.level, access) {
                (RaidLevel::Raid5, AccessPattern::Random { ios }) => {
                    AccessPattern::Random { ios: ios * 4 }
                }
                (_, a) => a,
            }
        };
        let factor = self.fabric.factor(spec.width() as u32);

        // Fault pre-pass: collect failed members, then draw spin-up
        // outcomes for any parked survivor the access would wake.
        let mut degraded: Option<usize> = None;
        if let Some(plan) = self.fault_plan.as_mut() {
            let mut failed: Vec<usize> = Vec::new();
            for (i, d) in spec.disks.iter().enumerate() {
                if plan.failed(DeviceClass::Disk, d.0, at) {
                    failed.push(i);
                }
            }
            let mut spin_err: Option<SimError> = None;
            let mut surges: Vec<RecoveryCharge> = Vec::new();
            for (i, d) in spec.disks.iter().enumerate() {
                if failed.contains(&i) {
                    continue;
                }
                let parked = self
                    .disks
                    .get(d.0 as usize)
                    .map(|x| x.is_parked())
                    .unwrap_or(false);
                if !parked {
                    continue;
                }
                if let Some(kind) = plan.draw_spin_up(*d, at) {
                    let (lat, surge) = self.disks[d.0 as usize].spin_up_cost();
                    surges.push(RecoveryCharge {
                        from: None,
                        energy: surge,
                    });
                    if kind == FaultKind::DiskFailure {
                        failed.push(i);
                    }
                    if spin_err.is_none() {
                        spin_err = Some(SimError::TransientIo {
                            device: format!("{d:?}"),
                            until: at + lat,
                        });
                    }
                }
            }
            if !surges.is_empty() {
                let surge_total = self.waste(&surges);
                let spin_faults = surges.len() as u64;
                self.tracer.count("fault.spin_up_failures", spin_faults);
                self.tracer.emit(Category::Fault, || {
                    TraceEvent::instant(tt(at), Category::Fault, "fault.spin_up", Track::Main)
                        .arg("array", id.0 as u64)
                        .arg("members", spin_faults)
                        .arg("surge_j", surge_total.joules())
                });
            }
            if let Some(e) = spin_err {
                // The attempt fails retryably; a retry sees the updated
                // failure set (and may go degraded, or find the array
                // dead).
                return Err(e);
            }
            match (spec.level, failed.len()) {
                (_, 0) => {}
                (RaidLevel::Raid5, 1) => degraded = Some(failed[0]),
                _ => {
                    return Err(SimError::DeviceFailed {
                        device: format!("{id:?}"),
                    })
                }
            }
        }

        let shares = match degraded {
            None => {
                if is_read {
                    spec.read_shares(bytes)
                } else {
                    spec.write_shares(bytes)
                }
            }
            Some(f) => {
                if is_read {
                    if let Some(plan) = self.fault_plan.as_mut() {
                        plan.note_degraded_read();
                    }
                    spec.degraded_read_shares(bytes, f)?
                } else {
                    spec.degraded_write_shares(bytes, f)?
                }
            }
        };
        let per_disk_access = self.split_access(access, shares.clone().count() as u32);
        let mut served = std::mem::take(&mut self.served);
        served.clear();
        let mut res: Option<Reservation> = None;
        for (disk, share) in shares {
            // Fabric contention stretches each member's transfer.
            let effective = Bytes::new((share.get() as f64 / factor).round() as u64);
            #[expect(clippy::expect_used, reason = "disk ids were validated at make_array")]
            let d = self
                .disks
                .get_mut(disk.0 as usize)
                .expect("validated at make_array");
            let r = d.serve(at, effective, per_disk_access);
            served.push((disk, r));
            res = Some(match res {
                Some(acc) => acc.span(r),
                None => r,
            });
        }
        #[expect(clippy::expect_used, reason = "make_array rejects empty arrays")]
        let res = res.expect("arrays are non-empty");

        if let Some(plan) = self.fault_plan.as_mut() {
            // Draw for every member (streams advance uniformly); the
            // first fault fails the whole attempt.
            let mut fault: Option<(DiskId, FaultKind)> = None;
            for (disk, _) in &served {
                if let Some(k) = plan.draw_io(DeviceClass::Disk, disk.0, is_read) {
                    if fault.is_none() {
                        fault = Some((*disk, k));
                    }
                }
            }
            if let Some((disk, kind)) = fault {
                // Every member's service time was wasted: its energy is
                // recovery work, attributed to the retry.
                let wasted: Vec<RecoveryCharge> = served
                    .iter()
                    .map(|(d, r)| RecoveryCharge {
                        from: Some(ComponentId::new(ComponentKind::Disk, d.0)),
                        energy: self.disks[d.0 as usize].active_power() * r.duration(),
                    })
                    .collect();
                let wasted_total = self.waste(&wasted);
                self.tracer.count("fault.io_faults", 1);
                self.tracer.emit(Category::Fault, || {
                    TraceEvent::instant(tt(res.end), Category::Fault, "fault.array_io", {
                        Track::Main
                    })
                    .arg("array", id.0 as u64)
                    .arg("wasted_j", wasted_total.joules())
                });
                let device = format!("{disk:?}");
                self.served = served;
                return Err(match kind {
                    FaultKind::LatentSector => SimError::LatentSector {
                        device,
                        until: res.end,
                    },
                    _ => SimError::TransientIo {
                        device,
                        until: res.end,
                    },
                });
            }
            // Successful degraded access: the reconstruction tax — the
            // extra 1/n of each survivor's transfer — is recovery work.
            if degraded.is_some() {
                let w = spec.width() as f64;
                for (d, r) in &served {
                    let extra = Joules::new(
                        self.disks[d.0 as usize].active_power().get() * r.duration().as_secs_f64()
                            / w,
                    );
                    self.recovery.push(RecoveryCharge {
                        from: Some(ComponentId::new(ComponentKind::Disk, d.0)),
                        energy: extra,
                    });
                }
                self.tracer.count("fault.degraded_accesses", 1);
                self.tracer.emit(Category::Fault, || {
                    TraceEvent::instant(
                        tt(res.start),
                        Category::Fault,
                        "recovery.degraded_access",
                        Track::Main,
                    )
                    .arg("array", id.0 as u64)
                });
            }
        }
        let mut active = Joules::ZERO;
        for (d, r) in &served {
            let e = self.disks[d.0 as usize].active_power() * r.duration();
            active += e;
            self.tracer.emit(Category::Io, || {
                TraceEvent::span(
                    tt(r.start),
                    r.duration().as_nanos(),
                    Category::Io,
                    if is_read {
                        "array_member_read"
                    } else {
                        "array_member_write"
                    },
                    Track::Device {
                        kind: ComponentKind::Disk.name(),
                        index: d.0,
                    },
                )
                .arg("active_j", e.joules())
            });
        }
        self.attribute(active);
        self.tracer.count("io.requests", 1);
        self.tracer.observe(
            "io.disk_service_secs",
            SECONDS_BUCKETS,
            res.duration().as_secs_f64(),
        );
        self.tracer.emit(Category::Io, || {
            TraceEvent::span(
                tt(res.start),
                res.duration().as_nanos(),
                Category::Io,
                if is_read { "array_read" } else { "array_write" },
                Track::Main,
            )
            .arg("array", id.0 as u64)
            .arg("bytes", bytes.get())
            .arg("members", served.len() as u64)
            .arg("degraded", u64::from(degraded.is_some()))
            .arg("active_j", active.joules())
        });
        self.served = served;
        Ok(res)
    }

    /// Distribute a request's positioning cost across `n` members.
    fn split_access(&self, access: AccessPattern, n: u32) -> AccessPattern {
        match access {
            AccessPattern::Sequential => AccessPattern::Sequential,
            AccessPattern::Random { ios } => AccessPattern::Random {
                ios: ios.div_ceil(n).max(1),
            },
        }
    }

    /// Execute `work` on one core of `cpu`.
    pub fn compute(
        &mut self,
        cpu: CpuId,
        at: SimInstant,
        work: Cycles,
    ) -> Result<Reservation, SimError> {
        self.compute_parallel(cpu, at, work, 1)
    }

    /// Execute `work` split over `dop` cores of `cpu`. A pool of 0
    /// cores can run nothing: that is a [`SimError::BadConfig`] naming it.
    pub fn compute_parallel(
        &mut self,
        cpu: CpuId,
        at: SimInstant,
        work: Cycles,
        dop: u32,
    ) -> Result<Reservation, SimError> {
        let c = self
            .cpus
            .get_mut(cpu.0 as usize)
            .ok_or_else(|| SimError::UnknownDevice(format!("{cpu:?}")))?;
        if c.cores() == 0 {
            return Err(SimError::BadConfig(format!("CPU pool {cpu:?} has 0 cores")));
        }
        let r = c.compute_parallel(at, work, dop);
        // Exact active busy-time across cores: total cycles at the core
        // frequency, regardless of how the work was split.
        let active = c.core_active_power() * work.time_at(c.freq());
        self.attribute(active);
        self.tracer.count("cpu.requests", 1);
        self.tracer.emit(Category::Io, || {
            TraceEvent::span(
                tt(r.start),
                r.duration().as_nanos(),
                Category::Io,
                "compute",
                Track::Device {
                    kind: ComponentKind::Cpu.name(),
                    index: cpu.0,
                },
            )
            .arg("cycles", work.get())
            .arg("dop", dop as u64)
            .arg("active_j", active.joules())
        });
        Ok(r)
    }

    /// The CPU pool behind `id`.
    pub fn cpu(&self, id: CpuId) -> Result<&CpuDevice, SimError> {
        self.cpus
            .get(id.0 as usize)
            .ok_or_else(|| SimError::UnknownDevice(format!("{id:?}")))
    }

    /// Spin down one disk; returns when the transition completes.
    pub fn park_disk(&mut self, id: DiskId, at: SimInstant) -> Result<SimInstant, SimError> {
        self.spin(id, at, true)
    }

    /// Spin one disk back up; returns when it is ready.
    pub fn unpark_disk(&mut self, id: DiskId, at: SimInstant) -> Result<SimInstant, SimError> {
        self.spin(id, at, false)
    }

    /// Park (`down`) or unpark disk `id` at `at`, tracing the transition.
    fn spin(&mut self, id: DiskId, at: SimInstant, down: bool) -> Result<SimInstant, SimError> {
        let d = self
            .disks
            .get_mut(id.0 as usize)
            .ok_or_else(|| SimError::UnknownDevice(format!("{id:?}")))?;
        let (done, counter, name) = if down {
            (d.park(at), "power.parks", "disk_park")
        } else {
            (d.unpark(at), "power.unparks", "disk_unpark")
        };
        self.tracer.count(counter, 1);
        self.tracer.emit(Category::Power, || {
            TraceEvent::span(
                tt(at),
                done.saturating_duration_since(at).as_nanos(),
                Category::Power,
                name,
                Track::Device {
                    kind: ComponentKind::Disk.name(),
                    index: id.0,
                },
            )
        });
        Ok(done)
    }

    /// Per-disk statistics.
    pub fn disk_stats(&self, id: DiskId) -> Result<DeviceStats, SimError> {
        self.disks
            .get(id.0 as usize)
            .map(|d| d.stats())
            .ok_or_else(|| SimError::UnknownDevice(format!("{id:?}")))
    }

    /// Per-SSD statistics.
    pub fn ssd_stats(&self, id: SsdId) -> Result<DeviceStats, SimError> {
        self.ssds
            .get(id.0 as usize)
            .map(|s| s.stats())
            .ok_or_else(|| SimError::UnknownDevice(format!("{id:?}")))
    }

    /// The latest completion time across every device.
    pub fn horizon(&self) -> SimInstant {
        let d = self.disks.iter().map(|d| d.next_free());
        let s = self.ssds.iter().map(|s| s.next_free());
        let c = self.cpus.iter().map(|c| c.all_free());
        d.chain(s).chain(c).max().unwrap_or(SimInstant::EPOCH)
    }

    /// Finalize every device at `end` (or the natural horizon, whichever
    /// is later) and settle the energy ledger.
    ///
    /// When a tracer is installed, settlement journals every ledger
    /// movement into `Ledger`-category events (timestamped at `end`,
    /// where the charges actually happen), settles the attribution
    /// table, and hands the recorder back in [`SimReport::trace`].
    pub fn finish(mut self, end: SimInstant) -> SimReport {
        let end = end.max(self.horizon());
        let span = end.duration_since(SimInstant::EPOCH);
        let mut ledger = EnergyLedger::new();
        if self.tracer.is_on() {
            ledger.enable_journal();
        }
        ledger.cover(SimInstant::EPOCH, end);
        // Devices settle in a fixed order (disks, SSDs, CPU pools): it
        // is the ledger journal's order.
        let mut settle = |id: ComponentId, summary: MachineSummary| {
            if let Some(rec) = self.tracer.recorder_mut() {
                summary.feed_metrics(rec.metrics_mut());
            }
            ledger.charge(id, summary.total_energy);
        };
        let (mut disk_stats, mut ssd_stats) = (Vec::new(), Vec::new());
        for (class, devices, stats) in [
            (DeviceClass::Disk, self.disks, &mut disk_stats),
            (DeviceClass::Ssd, self.ssds, &mut ssd_stats),
        ] {
            for (i, d) in devices.into_iter().enumerate() {
                stats.push(d.stats());
                let id = ComponentId::new(class.labels().kind, i as u32);
                settle(id, d.finish_summary(end));
            }
        }
        let mut cpu_stats = Vec::with_capacity(self.cpus.len());
        for (i, c) in self.cpus.into_iter().enumerate() {
            cpu_stats.push(c.stats());
            settle(
                ComponentId::new(ComponentKind::Cpu, i as u32),
                c.finish_summary(end),
            );
        }
        if self.base_power.get() > 0.0 {
            ledger.charge(
                ComponentId::new(ComponentKind::Base, 0),
                self.base_power * span,
            );
        }
        // Recovery settlement: wasted attempts, degraded-read overhead and
        // rebuild work move from their source components to the Recovery
        // category (the ledger total — the wall socket — is unchanged);
        // surge energy no device machine captured is charged directly.
        let recovery_id = ComponentId::new(ComponentKind::Recovery, 0);
        for c in &self.recovery {
            match c.from {
                Some(src) => {
                    ledger.transfer(src, recovery_id, c.energy);
                }
                None => ledger.charge(recovery_id, c.energy),
            }
        }
        let faults = self
            .fault_plan
            .as_ref()
            .map(|p| p.stats())
            .unwrap_or_default();
        for op in ledger.take_journal() {
            self.tracer.emit(Category::Ledger, || ledger_event(end, op));
        }
        self.tracer.emit(Category::Sim, || {
            TraceEvent::instant(tt(end), Category::Sim, "sim.finish", Track::Main)
                .arg("total_j", ledger.total().joules())
                .arg("elapsed_s", span.as_secs_f64())
        });
        let attribution = self
            .attribution
            .take()
            .map(|acc| AttributionTable::settle(acc.entries(), ledger.total()));
        // Close the scrape clock before handing the recorder out: the
        // horizon snapshot must include the device summaries fed above.
        self.tracer.finish_time(end.as_nanos());
        let trace = self.tracer.take();
        SimReport {
            ledger,
            end,
            elapsed: span,
            disk_stats,
            ssd_stats,
            cpu_stats,
            faults,
            attribution,
            trace,
        }
    }
}

/// The settled outcome of a simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-component energy.
    pub ledger: EnergyLedger,
    /// The finalization instant.
    pub end: SimInstant,
    /// Simulated span from the epoch.
    pub elapsed: SimDuration,
    /// Per-disk statistics (indexed by [`DiskId`]).
    pub disk_stats: Vec<DeviceStats>,
    /// Per-SSD statistics (indexed by [`SsdId`]).
    pub ssd_stats: Vec<DeviceStats>,
    /// Per-CPU-pool statistics (indexed by [`CpuId`]).
    pub cpu_stats: Vec<DeviceStats>,
    /// Injected-fault counters (all zero without a fault plan).
    pub faults: FaultStats,
    /// Per-query energy attribution, when enabled via
    /// [`Simulation::enable_attribution`]. Rows sum to
    /// `ledger.total()`.
    pub attribution: Option<AttributionTable>,
    /// The event recorder handed back from the tracer, when one was
    /// installed via [`Simulation::set_tracer`].
    pub trace: Option<Recorder>,
}

impl SimReport {
    /// Total energy.
    pub fn total_energy(&self) -> Joules {
        self.ledger.total()
    }

    /// Average system power over the span.
    pub fn avg_power(&self) -> Watts {
        self.ledger.avg_power()
    }

    /// Fraction of energy spent in the disk subsystem.
    pub fn disk_share(&self) -> f64 {
        self.ledger.kind_share(ComponentKind::Disk)
    }

    /// Energy attributed to failure recovery: wasted retry attempts,
    /// degraded-read reconstruction overhead, rebuild IO/CPU, and failed
    /// spin-up surges.
    pub fn recovery_energy(&self) -> Joules {
        self.ledger.kind_total(ComponentKind::Recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(s: f64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs_f64(s)
    }

    fn small_server() -> (Simulation, CpuId, ArrayId) {
        let mut sim = Simulation::new();
        let cpu = sim.add_cpu(
            CpuPerfProfile {
                cores: 4,
                freq: grail_power::units::Hertz::ghz(2.0),
            },
            CpuPowerProfile::opteron_socket(),
        );
        let disks = sim.add_disks(4, DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k());
        let arr = sim.make_array(RaidLevel::Raid0, disks).unwrap();
        sim.set_base_power(Watts::new(100.0));
        (sim, cpu, arr)
    }

    #[test]
    fn array_read_parallelizes() {
        let (mut sim, _, arr) = small_server();
        let r = sim
            .read(
                StorageTarget::Array(arr),
                at(0.0),
                Bytes::mib(360),
                AccessPattern::Sequential,
            )
            .unwrap();
        // 4 disks × 90 MiB each at 90 MB/s ≈ 1.05 s, not 4.2 s.
        assert!(r.duration().as_secs_f64() < 1.2, "{:?}", r.duration());
    }

    #[test]
    fn wider_array_is_faster_but_total_disk_energy_higher() {
        let run = |n: usize| {
            let mut sim = Simulation::new();
            let disks = sim.add_disks(n, DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k());
            let arr = sim.make_array(RaidLevel::Raid0, disks).unwrap();
            let r = sim
                .read(
                    StorageTarget::Array(arr),
                    at(0.0),
                    Bytes::gib(2),
                    AccessPattern::Sequential,
                )
                .unwrap();
            let rep = sim.finish(r.end);
            (r.end, rep.total_energy())
        };
        let (t4, _e4) = run(4);
        let (t8, e8) = run(8);
        assert!(t8 < t4, "8 disks finish sooner");
        // Energy: 8 disks for a shorter time vs 4 for longer; with
        // idle≈active for SCSI the energy is roughly flat, so just check
        // it is positive and the report is coherent.
        assert!(e8.joules() > 0.0);
    }

    #[test]
    fn unknown_devices_error() {
        let mut sim = Simulation::new();
        assert!(sim
            .read(
                StorageTarget::Disk(DiskId(0)),
                at(0.0),
                Bytes::new(1),
                AccessPattern::Sequential
            )
            .is_err());
        assert!(sim.compute(CpuId(3), at(0.0), Cycles::new(1)).is_err());
        assert!(sim.make_array(RaidLevel::Raid5, vec![DiskId(9)]).is_err());
        assert!(sim.park_disk(DiskId(0), at(0.0)).is_err());
    }

    #[test]
    fn a_zero_core_pool_is_a_bad_config() {
        let mut sim = Simulation::new();
        let cpu = sim.add_cpu(
            CpuPerfProfile {
                cores: 0,
                freq: grail_power::units::Hertz::ghz(2.0),
            },
            CpuPowerProfile::opteron_socket(),
        );
        let bad = SimError::BadConfig("CPU pool CpuId(0) has 0 cores".to_string());
        for dop in [0, 1, 4] {
            let err = sim.compute_parallel(cpu, at(0.0), Cycles::new(1), dop);
            assert_eq!(err.unwrap_err(), bad, "dop {dop}");
        }
        assert_eq!(sim.compute(cpu, at(0.0), Cycles::new(1)).unwrap_err(), bad);
        // Nothing was reserved, and the simulation still finishes.
        assert_eq!(sim.cpu(cpu).unwrap().stats().requests, 0);
        assert_eq!(sim.finish(at(1.0)).elapsed, SimDuration::from_secs(1));
    }

    #[test]
    fn finish_charges_base_and_covers_window() {
        let (mut sim, cpu, arr) = small_server();
        sim.read(
            StorageTarget::Array(arr),
            at(0.0),
            Bytes::mib(90),
            AccessPattern::Sequential,
        )
        .unwrap();
        sim.compute(cpu, at(0.0), Cycles::new(2_000_000_000))
            .unwrap();
        let rep = sim.finish(at(10.0));
        assert_eq!(rep.elapsed, SimDuration::from_secs(10));
        let base = rep
            .ledger
            .component(ComponentId::new(ComponentKind::Base, 0));
        assert!((base.joules() - 1000.0).abs() < 1e-6);
        assert!(rep.disk_share() > 0.0);
        assert!(rep.avg_power().get() > 100.0);
    }

    #[test]
    fn determinism_same_inputs_same_ledger() {
        let run = || {
            let (mut sim, cpu, arr) = small_server();
            for i in 0..20 {
                let t = at(i as f64 * 0.1);
                sim.read(
                    StorageTarget::Array(arr),
                    t,
                    Bytes::mib(10 + i),
                    AccessPattern::Sequential,
                )
                .unwrap();
                sim.compute(cpu, t, Cycles::new(50_000_000 * (i + 1)))
                    .unwrap();
            }
            let h = sim.horizon();
            sim.finish(h)
        };
        let a = run();
        let b = run();
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn raid5_random_write_pays_read_modify_write() {
        let mut sim = Simulation::new();
        let disks = sim.add_disks(5, DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k());
        let arr = sim.make_array(RaidLevel::Raid5, disks).unwrap();
        let r = sim
            .read(
                StorageTarget::Array(arr),
                at(0.0),
                Bytes::mib(64),
                AccessPattern::Random { ios: 1000 },
            )
            .unwrap();
        let w = sim
            .write(
                StorageTarget::Array(arr),
                r.end,
                Bytes::mib(64),
                AccessPattern::Random { ios: 1000 },
            )
            .unwrap();
        assert!(w.duration() > r.duration() * 2);
        // Full-stripe sequential writes avoid the penalty: same service
        // time as a sequential read of the same logical volume.
        let sr = sim
            .read(
                StorageTarget::Array(arr),
                w.end,
                Bytes::gib(1),
                AccessPattern::Sequential,
            )
            .unwrap();
        let sw = sim
            .write(
                StorageTarget::Array(arr),
                sr.end,
                Bytes::gib(1),
                AccessPattern::Sequential,
            )
            .unwrap();
        let ratio = sw.duration().as_secs_f64() / sr.duration().as_secs_f64();
        assert!((ratio - 1.0).abs() < 0.05, "{ratio}");
    }

    #[test]
    fn zero_rate_plan_is_byte_identical_to_no_plan() {
        use crate::fault::{FaultConfig, FaultPlan};
        let run = |plan: Option<FaultPlan>| {
            let (mut sim, cpu, arr) = small_server();
            if let Some(p) = plan {
                sim.set_fault_plan(p);
            }
            for i in 0..10 {
                let t = at(i as f64 * 0.5);
                sim.read(
                    StorageTarget::Array(arr),
                    t,
                    Bytes::mib(20 + i),
                    AccessPattern::Sequential,
                )
                .unwrap();
                sim.compute(cpu, t, Cycles::new(10_000_000 * (i + 1)))
                    .unwrap();
            }
            let h = sim.horizon();
            sim.finish(h)
        };
        let bare = run(None);
        let zeroed = run(Some(FaultPlan::new(FaultConfig::NONE, 99)));
        assert_eq!(bare.ledger, zeroed.ledger);
        assert_eq!(bare.end, zeroed.end);
        assert_eq!(zeroed.faults, crate::fault::FaultStats::default());
        assert_eq!(zeroed.recovery_energy(), Joules::ZERO);
    }

    #[test]
    fn spin_up_kill_degrades_raid5_and_charges_recovery() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut sim = Simulation::new();
        let disks = sim.add_disks(5, DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k());
        let arr = sim.make_array(RaidLevel::Raid5, disks.clone()).unwrap();
        sim.set_fault_plan(FaultPlan::new(
            FaultConfig {
                spin_up_kill: 1.0,
                ..FaultConfig::NONE
            },
            1,
        ));
        sim.park_disk(disks[0], at(0.0)).unwrap();
        // The access wakes the parked member; spin_up_kill=1 kills it.
        let err = sim
            .read(
                StorageTarget::Array(arr),
                at(10.0),
                Bytes::mib(40),
                AccessPattern::Sequential,
            )
            .unwrap_err();
        assert!(err.is_retryable(), "{err}");
        let until = err.retry_until().unwrap();
        // The retry finds the member failed and serves degraded.
        let r = sim
            .read(
                StorageTarget::Array(arr),
                until,
                Bytes::mib(40),
                AccessPattern::Sequential,
            )
            .unwrap();
        assert_eq!(sim.failed_array_disks(arr, r.end).unwrap(), vec![disks[0]]);
        let stats = sim.fault_stats();
        assert_eq!(stats.disk_failures, 1);
        assert_eq!(stats.degraded_reads, 1);
        let rep = sim.finish(r.end);
        // At least the wasted 140 J spin-up surge plus reconstruction
        // overhead lands in Recovery.
        assert!(rep.recovery_energy().joules() >= 140.0);
    }

    #[test]
    fn rebuild_restores_array_and_bills_recovery() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut sim = Simulation::new();
        let disks = sim.add_disks(5, DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k());
        let cpu = sim.add_cpu(
            CpuPerfProfile {
                cores: 4,
                freq: grail_power::units::Hertz::ghz(2.0),
            },
            CpuPowerProfile::opteron_socket(),
        );
        let arr = sim.make_array(RaidLevel::Raid5, disks.clone()).unwrap();
        // Nothing failed yet: rebuild refuses.
        assert!(sim
            .rebuild_array(arr, at(0.0), Bytes::mib(100), None)
            .is_err());
        sim.set_fault_plan(FaultPlan::new(
            FaultConfig {
                spin_up_kill: 1.0,
                ..FaultConfig::NONE
            },
            2,
        ));
        sim.park_disk(disks[2], at(0.0)).unwrap();
        let err = sim
            .read(
                StorageTarget::Array(arr),
                at(10.0),
                Bytes::mib(40),
                AccessPattern::Sequential,
            )
            .unwrap_err();
        let t = err.retry_until().unwrap();
        let reb = sim
            .rebuild_array(arr, t, Bytes::mib(200), Some(cpu))
            .unwrap();
        assert_eq!(sim.fault_stats().rebuilds, 1);
        // Healthy again: the next read is not degraded.
        let before = sim.fault_stats().degraded_reads;
        sim.read(
            StorageTarget::Array(arr),
            reb.end,
            Bytes::mib(40),
            AccessPattern::Sequential,
        )
        .unwrap();
        assert_eq!(sim.fault_stats().degraded_reads, before);
        let rep = sim.finish(reb.end);
        assert!(rep.recovery_energy().joules() > 140.0);
        assert_eq!(rep.faults.rebuilds, 1);
    }

    #[test]
    fn transient_fault_wastes_energy_and_reports_retry_cost() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut sim = Simulation::new();
        let d = sim.add_disk(DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k());
        sim.set_fault_plan(FaultPlan::new(
            FaultConfig {
                transient_per_io: 1.0,
                ..FaultConfig::NONE
            },
            3,
        ));
        let err = sim
            .read(
                StorageTarget::Disk(d),
                at(0.0),
                Bytes::mib(90),
                AccessPattern::Sequential,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::TransientIo { .. }));
        let wasted = sim.drain_retry_energy();
        assert!(wasted.joules() > 0.0, "{wasted}");
        assert_eq!(sim.drain_retry_energy(), Joules::ZERO);
        let end = sim.horizon();
        let rep = sim.finish(end);
        // The wasted service energy was re-attributed, not double-billed.
        assert!((rep.recovery_energy().joules() - wasted.joules()).abs() < 1e-9);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        use crate::fault::{FaultConfig, FaultPlan};
        let run = || {
            let mut sim = Simulation::new();
            let disks = sim.add_disks(5, DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k());
            let arr = sim.make_array(RaidLevel::Raid5, disks).unwrap();
            sim.set_fault_plan(FaultPlan::new(
                FaultConfig {
                    transient_per_io: 0.1,
                    latent_per_read: 0.05,
                    ..FaultConfig::NONE
                },
                1234,
            ));
            let mut t = at(0.0);
            let mut outcomes = Vec::new();
            for i in 0..40u64 {
                let r = sim.read(
                    StorageTarget::Array(arr),
                    t,
                    Bytes::mib(10 + i),
                    AccessPattern::Sequential,
                );
                t = match &r {
                    Ok(res) => res.end,
                    Err(e) => e.retry_until().unwrap_or(t) + SimDuration::from_millis(1),
                };
                outcomes.push(r);
            }
            let stats = sim.fault_stats();
            let rep = sim.finish(t);
            (outcomes, stats, rep.ledger)
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn tracing_records_events_and_attribution_sums_to_total() {
        let run = |traced: bool| {
            let (mut sim, cpu, arr) = small_server();
            if traced {
                sim.set_tracer(Tracer::on(Recorder::new(4096)));
                sim.enable_attribution();
            }
            for q in 0..4u32 {
                sim.set_query_tag(0, q);
                let t = at(q as f64 * 0.5);
                sim.read(
                    StorageTarget::Array(arr),
                    t,
                    Bytes::mib(30),
                    AccessPattern::Sequential,
                )
                .unwrap();
                sim.compute(cpu, t, Cycles::new(100_000_000)).unwrap();
                sim.clear_query_tag();
            }
            let h = sim.horizon();
            sim.finish(h)
        };
        let bare = run(false);
        assert!(bare.trace.is_none());
        assert!(bare.attribution.is_none());
        let traced = run(true);
        // Tracing must not perturb the physics: same ledger, same end.
        assert_eq!(bare.ledger, traced.ledger);
        assert_eq!(bare.end, traced.end);
        let rec = traced.trace.as_ref().unwrap();
        assert!(rec.events().any(|e| e.name == "array_read"));
        assert!(rec.events().any(|e| e.name == "compute"));
        assert!(rec.events().any(|e| e.name == "ledger.charge"));
        assert!(rec.events().any(|e| e.name == "sim.finish"));
        assert_eq!(rec.metrics().counter("io.requests"), 4);
        assert_eq!(rec.metrics().counter("cpu.requests"), 4);
        let table = traced.attribution.as_ref().unwrap();
        assert_eq!(table.rows.len(), 5); // 4 queries + residual
        let total = traced.ledger.total().joules();
        assert!((table.sum().joules() - total).abs() <= 1e-9_f64.max(total * 1e-9));
        assert!(table.attributed().joules() > 0.0);
        // Identical traced runs export byte-identical JSONL (of the
        // whole run: nothing was evicted).
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.metrics().counter("trace.dropped"), 0);
        let again = run(true);
        assert_eq!(
            grail_trace::to_jsonl(rec),
            grail_trace::to_jsonl(again.trace.as_ref().unwrap())
        );
    }

    #[test]
    fn horizon_tracks_latest_completion() {
        let (mut sim, cpu, _) = small_server();
        let r = sim
            .compute(cpu, at(0.0), Cycles::new(20_000_000_000))
            .unwrap();
        assert_eq!(sim.horizon(), r.end);
    }

    #[test]
    fn random_access_spread_across_array() {
        let (mut sim, _, arr) = small_server();
        let seq = sim
            .read(
                StorageTarget::Array(arr),
                at(0.0),
                Bytes::mib(4),
                AccessPattern::Sequential,
            )
            .unwrap();
        let rnd = sim
            .read(
                StorageTarget::Array(arr),
                seq.end,
                Bytes::mib(4),
                AccessPattern::Random { ios: 1024 },
            )
            .unwrap();
        assert!(rnd.duration() > seq.duration());
    }
}
