//! Seeded, deterministic fault injection.
//!
//! The paper's energy/performance trade-offs are measured on a machine
//! where nothing ever fails — yet its Sec. 4.2 consolidation story spins
//! disks and whole servers down aggressively, and every spin-up is a
//! mechanical stress event. This module makes failure a first-class,
//! *deterministic* input: a [`FaultPlan`] owns one ChaCha-seeded stream
//! per device and decides, at simulated timestamps, whether an IO suffers
//! a transient error, hits a latent sector, or kills the device outright.
//! Identical seed + identical request history ⇒ bit-identical faults, so
//! fault runs stay as reproducible as fault-free ones.
//!
//! The plan is strictly opt-in: a `Simulation` without a plan (or with a
//! zero-rate [`FaultConfig`]) behaves byte-identically to the pre-fault
//! simulator — zero-probability draws never consume randomness.

use crate::device::DeviceClass;
use crate::ids::DiskId;
use crate::rng::ChaCha12Rng;
use grail_power::units::{SimDuration, SimInstant};

/// What kind of fault an injection draw produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A transient IO error: the attempt's time and energy are wasted,
    /// an immediate retry may succeed.
    TransientIo,
    /// A latent sector error on a read: unrecoverable from this device,
    /// but redundancy (RAID) can reconstruct around it.
    LatentSector,
    /// The whole disk failed (mechanically, or killed by a spin-up).
    DiskFailure,
}

/// Fault rates and lifetimes. All fields default to "never fails".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that any single disk or SSD IO suffers a transient
    /// error.
    pub transient_per_io: f64,
    /// Probability that a disk read hits a latent sector error.
    pub latent_per_read: f64,
    /// Mean time to whole-disk failure (exponentially distributed per
    /// disk), or `None` for immortal disks. SSDs never fail.
    pub disk_mttf: Option<SimDuration>,
    /// Probability that a spin-up attempt faults transiently (the disk
    /// stays parked, the surge energy is wasted).
    pub spin_up_fault: f64,
    /// Probability that a spin-up attempt kills the disk outright —
    /// the mechanical-stress cost of aggressive park policies.
    pub spin_up_kill: f64,
}

impl FaultConfig {
    /// No faults at all.
    pub const NONE: FaultConfig = FaultConfig {
        transient_per_io: 0.0,
        latent_per_read: 0.0,
        disk_mttf: None,
        spin_up_fault: 0.0,
        spin_up_kill: 0.0,
    };

    /// True when every rate is zero and every lifetime infinite.
    pub fn is_zero(&self) -> bool {
        self.transient_per_io <= 0.0
            && self.latent_per_read <= 0.0
            && self.disk_mttf.is_none()
            && self.spin_up_fault <= 0.0
            && self.spin_up_kill <= 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::NONE
    }
}

/// Counters of every injected fault and recovery action, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Transient IO errors injected.
    pub transient: u64,
    /// Latent sector errors injected.
    pub latent: u64,
    /// Whole-disk failures (MTTF expiry or spin-up kill), first detection.
    pub disk_failures: u64,
    /// Spin-up attempts that faulted transiently.
    pub spin_up_faults: u64,
    /// Degraded-mode array reads served (reconstruct-from-parity).
    pub degraded_reads: u64,
    /// Completed rebuilds of failed disks.
    pub rebuilds: u64,
}

impl FaultStats {
    /// Fold `other`'s counters into this one — the shard merge sums
    /// per-cell stats into the committed report.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.transient += other.transient;
        self.latent += other.latent;
        self.disk_failures += other.disk_failures;
        self.spin_up_faults += other.spin_up_faults;
        self.degraded_reads += other.degraded_reads;
        self.rebuilds += other.rebuilds;
    }
}

/// Per-device fault state: an independent RNG stream plus a sampled
/// lifetime.
#[derive(Debug, Clone)]
struct DeviceFaults {
    rng: ChaCha12Rng,
    /// Instant the device fails entirely, if its lifetime is finite.
    fail_at: Option<SimInstant>,
    /// Whether the failure has been observed (counted) yet.
    noted: bool,
}

/// The seeded fault schedule for one simulation run.
///
/// Every device gets its own ChaCha stream derived from `(seed, device
/// class, device index)` via splitmix64, so draws for one device never
/// perturb another's and device creation order is irrelevant.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    seed: u64,
    /// Per-device state, one table per device class.
    slots: [Vec<DeviceFaults>; 2],
    stats: FaultStats,
}

const DISK_SALT: u64 = 0xD15C_FA17;
const SSD_SALT: u64 = 0x55D0_FA17;
const CHAOS_MACHINE_SALT: u64 = 0xC4A0_50C1;
const CHAOS_DOMAIN_SALT: u64 = 0xC4A0_50D0;
const CHAOS_BROWNOUT_SALT: u64 = 0xC4A0_50B0;
const CHAOS_SURGE_SALT: u64 = 0xC4A0_505E;

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn device_seed(seed: u64, salt: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt ^ splitmix64(index)))
}

/// Draw a Bernoulli with probability `p` without consuming randomness
/// when the outcome is forced — a zero-rate plan must leave every stream
/// untouched.
fn bernoulli(rng: &mut ChaCha12Rng, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    rng.random::<f64>() < p
}

/// An exponential sample with the given mean (the standard `-ln(u)·mean`
/// inverse transform, `u` bounded away from 0).
fn exp_sample(rng: &mut ChaCha12Rng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.random_range(f64::EPSILON..1.0);
    SimDuration::from_secs_f64(-u.ln() * mean.as_secs_f64())
}

impl FaultPlan {
    /// A plan with the given rates, driven by `seed`.
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        FaultPlan {
            cfg,
            seed,
            slots: [Vec::new(), Vec::new()],
            stats: FaultStats::default(),
        }
    }

    /// The configured rates.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Fault counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    fn slot(&mut self, class: DeviceClass, index: u32) -> &mut DeviceFaults {
        let slots = &mut self.slots[class as usize];
        let idx = index as usize;
        while slots.len() <= idx {
            let (salt, mttf) = match class {
                DeviceClass::Disk => (DISK_SALT, self.cfg.disk_mttf),
                DeviceClass::Ssd => (SSD_SALT, None),
            };
            let i = slots.len() as u64;
            let mut rng = ChaCha12Rng::seed_from_u64(device_seed(self.seed, salt, i));
            let fail_at = mttf.map(|mttf| SimInstant::EPOCH + exp_sample(&mut rng, mttf));
            slots.push(DeviceFaults {
                rng,
                fail_at,
                noted: false,
            });
        }
        &mut slots[idx]
    }

    /// Whether device `index` of `class` has failed by instant `at`
    /// (only a disk ever does). The first positive answer per failure is
    /// counted in [`FaultStats::disk_failures`].
    pub(crate) fn failed(&mut self, class: DeviceClass, index: u32, at: SimInstant) -> bool {
        let slot = self.slot(class, index);
        let failed = slot.fail_at.is_some_and(|f| at >= f);
        if failed && !slot.noted {
            slot.noted = true;
            self.stats.disk_failures += 1;
        }
        failed
    }

    /// Draw the fault outcome for one IO on device `index` of `class`.
    /// Latent sector errors only strike disk reads.
    pub(crate) fn draw_io(
        &mut self,
        class: DeviceClass,
        index: u32,
        is_read: bool,
    ) -> Option<FaultKind> {
        let transient = self.cfg.transient_per_io;
        let latent = self.cfg.latent_per_read;
        let slot = self.slot(class, index);
        if bernoulli(&mut slot.rng, transient) {
            self.stats.transient += 1;
            return Some(FaultKind::TransientIo);
        }
        if class == DeviceClass::Disk && is_read && bernoulli(&mut slot.rng, latent) {
            self.stats.latent += 1;
            return Some(FaultKind::LatentSector);
        }
        None
    }

    /// Draw the outcome of a spin-up attempt at `at`: the kill draw comes
    /// first (a kill marks the disk failed as of `at`), then the
    /// transient-fault draw.
    pub(crate) fn draw_spin_up(&mut self, d: DiskId, at: SimInstant) -> Option<FaultKind> {
        let kill = self.cfg.spin_up_kill;
        let fault = self.cfg.spin_up_fault;
        let slot = self.slot(DeviceClass::Disk, d.0);
        if bernoulli(&mut slot.rng, kill) {
            slot.fail_at = Some(at);
            slot.noted = true;
            self.stats.disk_failures += 1;
            return Some(FaultKind::DiskFailure);
        }
        if bernoulli(&mut slot.rng, fault) {
            self.stats.spin_up_faults += 1;
            return Some(FaultKind::TransientIo);
        }
        None
    }

    /// Record one degraded-mode (reconstruct-from-parity) array read.
    pub(crate) fn note_degraded_read(&mut self) {
        self.stats.degraded_reads += 1;
    }

    /// Mark disk `d` rebuilt (replaced) at `at`: it is healthy again and
    /// its next failure time is resampled from the configured MTTF.
    pub(crate) fn mark_rebuilt(&mut self, d: DiskId, at: SimInstant) {
        let mttf = self.cfg.disk_mttf;
        let slot = self.slot(DeviceClass::Disk, d.0);
        slot.fail_at = mttf.map(|m| at + exp_sample(&mut slot.rng, m));
        slot.noted = false;
        self.stats.rebuilds += 1;
    }
}

/// Rates and shapes of fleet-level chaos. All fields default to "never
/// happens"; every `Option<SimDuration>` is a mean time between events
/// (exponentially distributed), `None` meaning that event class is off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Mean time between crashes per machine, or `None` for no crashes.
    pub machine_mtbf: Option<SimDuration>,
    /// Downtime of a crashed machine before its restart event.
    pub machine_restart: SimDuration,
    /// Mean time between outages per fault domain (rack / PDU group),
    /// or `None` for no domain outages.
    pub domain_mtbf: Option<SimDuration>,
    /// Duration of one domain outage.
    pub domain_outage: SimDuration,
    /// Mean time between fleet-wide brownouts, or `None` for none.
    pub brownout_mtbf: Option<SimDuration>,
    /// Duration of one brownout.
    pub brownout: SimDuration,
    /// Fraction of each machine's peak power available during a
    /// brownout, in `(0, 1]`.
    pub brownout_cap_frac: f64,
    /// Mean time between demand surges, or `None` for none.
    pub surge_mtbf: Option<SimDuration>,
    /// Duration of one demand surge.
    pub surge: SimDuration,
    /// Offered-demand multiplier while a surge is active, `> 0`.
    pub surge_factor: f64,
}

impl ChaosConfig {
    /// No chaos at all.
    pub const NONE: ChaosConfig = ChaosConfig {
        machine_mtbf: None,
        machine_restart: SimDuration::ZERO,
        domain_mtbf: None,
        domain_outage: SimDuration::ZERO,
        brownout_mtbf: None,
        brownout: SimDuration::ZERO,
        brownout_cap_frac: 1.0,
        surge_mtbf: None,
        surge: SimDuration::ZERO,
        surge_factor: 1.0,
    };

    /// True when no event class is enabled.
    pub fn is_zero(&self) -> bool {
        self.machine_mtbf.is_none()
            && self.domain_mtbf.is_none()
            && self.brownout_mtbf.is_none()
            && self.surge_mtbf.is_none()
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::NONE
    }
}

/// One kind of fleet-level chaos event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosEventKind {
    /// Machine `machine` crashes: its in-flight work is stranded.
    MachineCrash {
        /// Fleet index of the crashed machine.
        machine: u32,
    },
    /// Machine `machine` finishes restarting and may rejoin.
    MachineUp {
        /// Fleet index of the restarted machine.
        machine: u32,
    },
    /// Fault domain `domain` (rack / PDU group) loses power entirely.
    DomainDown {
        /// Index of the failed domain.
        domain: u32,
    },
    /// Fault domain `domain` is restored.
    DomainUp {
        /// Index of the restored domain.
        domain: u32,
    },
    /// Fleet-wide brownout begins: every machine's usable power is
    /// capped at `cap_frac` of its peak.
    BrownoutStart {
        /// Fraction of peak power still available, in `(0, 1]`.
        cap_frac: f64,
    },
    /// The brownout ends.
    BrownoutEnd,
    /// A demand surge begins: offered load multiplies by `factor`.
    SurgeStart {
        /// Offered-demand multiplier, `> 0`.
        factor: f64,
    },
    /// The surge ends.
    SurgeEnd,
}

impl ChaosEventKind {
    /// Stable event name for traces and reports.
    pub const fn name(&self) -> &'static str {
        match self {
            ChaosEventKind::MachineCrash { .. } => "chaos.machine_crash",
            ChaosEventKind::MachineUp { .. } => "chaos.machine_up",
            ChaosEventKind::DomainDown { .. } => "chaos.domain_down",
            ChaosEventKind::DomainUp { .. } => "chaos.domain_up",
            ChaosEventKind::BrownoutStart { .. } => "chaos.brownout_start",
            ChaosEventKind::BrownoutEnd => "chaos.brownout_end",
            ChaosEventKind::SurgeStart { .. } => "chaos.surge_start",
            ChaosEventKind::SurgeEnd => "chaos.surge_end",
        }
    }

    /// Same-instant ordering: recoveries before failures (so a machine
    /// that restarts exactly when another crashes is available to absorb
    /// the displaced load), then by actor index. Purely a deterministic
    /// tie-break; distinct instants dominate.
    const fn sort_rank(&self) -> (u8, u32) {
        match *self {
            ChaosEventKind::MachineUp { machine } => (0, machine),
            ChaosEventKind::DomainUp { domain } => (1, domain),
            ChaosEventKind::BrownoutEnd => (2, 0),
            ChaosEventKind::SurgeEnd => (3, 0),
            ChaosEventKind::MachineCrash { machine } => (4, machine),
            ChaosEventKind::DomainDown { domain } => (5, domain),
            ChaosEventKind::BrownoutStart { .. } => (6, 0),
            ChaosEventKind::SurgeStart { .. } => (7, 0),
        }
    }
}

/// One timestamped chaos event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosEvent {
    /// When the event strikes.
    pub at: SimInstant,
    /// What happens.
    pub kind: ChaosEventKind,
}

/// A seeded, pre-generated schedule of fleet-level chaos over a fixed
/// horizon: the cluster-layer analogue of [`FaultPlan`]'s device draws.
///
/// Generation is a pure function of `(config, seed, machines, domains,
/// horizon)`: each machine, each domain, and each global event class
/// gets its own splitmix64-salted ChaCha stream, so the schedule for one
/// actor never shifts when another's rate changes. Same seed ⇒
/// byte-identical event list.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    cfg: ChaosConfig,
    seed: u64,
    machines: u32,
    domains: u32,
    horizon: SimDuration,
    events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Generate the schedule for a fleet of `machines` machines spread
    /// over `domains` fault domains, covering `[EPOCH, EPOCH + horizon)`.
    ///
    /// Down/up events alternate per actor; a recovery that would land
    /// past the horizon is omitted (the run ends degraded). Events are
    /// sorted by time with a deterministic same-instant tie-break
    /// (recoveries first, then failures, then by actor index).
    pub fn generate(
        cfg: ChaosConfig,
        seed: u64,
        machines: u32,
        domains: u32,
        horizon: SimDuration,
    ) -> Self {
        assert!(
            cfg.brownout_cap_frac.is_finite()
                && cfg.brownout_cap_frac > 0.0
                && cfg.brownout_cap_frac <= 1.0,
            "brownout_cap_frac must be in (0, 1]"
        );
        assert!(
            cfg.surge_factor.is_finite() && cfg.surge_factor > 0.0,
            "surge_factor must be finite and positive"
        );
        let end = SimInstant::EPOCH + horizon;
        let mut events = Vec::new();
        let mut alternate = |salt: u64,
                             index: u64,
                             mtbf: Option<SimDuration>,
                             hold: SimDuration,
                             down: ChaosEventKind,
                             up: ChaosEventKind| {
            let Some(mtbf) = mtbf else { return };
            if mtbf.is_zero() {
                return;
            }
            let mut rng = ChaCha12Rng::seed_from_u64(device_seed(seed, salt, index));
            let mut t = SimInstant::EPOCH;
            loop {
                t += exp_sample(&mut rng, mtbf);
                if t >= end {
                    break;
                }
                events.push(ChaosEvent { at: t, kind: down });
                let recover = t + hold;
                if recover >= end {
                    break;
                }
                events.push(ChaosEvent {
                    at: recover,
                    kind: up,
                });
                t = recover;
            }
        };
        for m in 0..machines {
            alternate(
                CHAOS_MACHINE_SALT,
                m as u64,
                cfg.machine_mtbf,
                cfg.machine_restart,
                ChaosEventKind::MachineCrash { machine: m },
                ChaosEventKind::MachineUp { machine: m },
            );
        }
        for d in 0..domains {
            alternate(
                CHAOS_DOMAIN_SALT,
                d as u64,
                cfg.domain_mtbf,
                cfg.domain_outage,
                ChaosEventKind::DomainDown { domain: d },
                ChaosEventKind::DomainUp { domain: d },
            );
        }
        alternate(
            CHAOS_BROWNOUT_SALT,
            0,
            cfg.brownout_mtbf,
            cfg.brownout,
            ChaosEventKind::BrownoutStart {
                cap_frac: cfg.brownout_cap_frac,
            },
            ChaosEventKind::BrownoutEnd,
        );
        alternate(
            CHAOS_SURGE_SALT,
            0,
            cfg.surge_mtbf,
            cfg.surge,
            ChaosEventKind::SurgeStart {
                factor: cfg.surge_factor,
            },
            ChaosEventKind::SurgeEnd,
        );
        events.sort_by_key(|e| (e.at, e.kind.sort_rank()));
        ChaosSchedule {
            cfg,
            seed,
            machines,
            domains,
            horizon,
            events,
        }
    }

    /// A hand-built schedule for tests and scripted scenarios: the given
    /// events, sorted with the same deterministic tie-break as
    /// [`ChaosSchedule::generate`]. `cfg` is recorded as
    /// [`ChaosConfig::NONE`] and `seed` as 0.
    pub fn scripted(
        machines: u32,
        domains: u32,
        horizon: SimDuration,
        mut events: Vec<ChaosEvent>,
    ) -> Self {
        events.sort_by_key(|e| (e.at, e.kind.sort_rank()));
        ChaosSchedule {
            cfg: ChaosConfig::NONE,
            seed: 0,
            machines,
            domains,
            horizon,
            events,
        }
    }

    /// The generating configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// The driving seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of machines the schedule addresses.
    pub fn machines(&self) -> u32 {
        self.machines
    }

    /// Number of fault domains the schedule addresses.
    pub fn domains(&self) -> u32 {
        self.domains
    }

    /// The covered horizon (events all land strictly before
    /// `EPOCH + horizon`).
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }

    /// The time-ordered event list: `at` never decreases along it (both
    /// constructors sort), so a reader may walk it as a cursor, as
    /// `grail_scheduler::chaos::run_chaos` does.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// True when the schedule holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DeviceClass::{Disk, Ssd};

    fn at(s: f64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn zero_config_never_faults_and_never_consumes_rng() {
        let mut p = FaultPlan::new(FaultConfig::NONE, 42);
        for i in 0..4 {
            assert!(!p.failed(Disk, i, at(1e9)));
            assert_eq!(p.draw_io(Disk, i, true), None);
            assert_eq!(p.draw_spin_up(DiskId(i), at(0.0)), None);
            assert!(!p.failed(Ssd, i, at(1e9)));
            assert_eq!(p.draw_io(Ssd, i, true), None);
        }
        assert_eq!(p.stats(), FaultStats::default());
        // The streams were never advanced: a fresh plan's first real draw
        // matches this plan's.
        let mut q = FaultPlan::new(
            FaultConfig {
                transient_per_io: 0.5,
                ..FaultConfig::NONE
            },
            42,
        );
        let mut p = FaultPlan { cfg: q.cfg, ..p };
        for i in 0..4 {
            assert_eq!(p.draw_io(Disk, i, true), q.draw_io(Disk, i, true));
        }
    }

    #[test]
    fn same_seed_same_draws() {
        let cfg = FaultConfig {
            transient_per_io: 0.2,
            latent_per_read: 0.1,
            disk_mttf: Some(SimDuration::from_secs(10_000)),
            spin_up_fault: 0.1,
            spin_up_kill: 0.05,
        };
        let run = || {
            let mut p = FaultPlan::new(cfg, 7);
            let mut out = Vec::new();
            for step in 0..200u32 {
                let d = step % 3;
                out.push((
                    p.failed(Disk, d, at(step as f64)),
                    p.draw_io(Disk, d, step % 2 == 0),
                    p.draw_spin_up(DiskId(d), at(step as f64)),
                ));
            }
            (out, p.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = FaultConfig {
            transient_per_io: 0.3,
            ..FaultConfig::NONE
        };
        let draw = |seed| {
            let mut p = FaultPlan::new(cfg, seed);
            (0..64)
                .map(|_| p.draw_io(Disk, 0, true).is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn device_streams_are_independent() {
        let cfg = FaultConfig {
            transient_per_io: 0.3,
            ..FaultConfig::NONE
        };
        // Draws for disk 1 must be unaffected by how often disk 0 draws.
        let mut a = FaultPlan::new(cfg, 9);
        for _ in 0..50 {
            a.draw_io(Disk, 0, true);
        }
        let seq_a: Vec<_> = (0..32).map(|_| a.draw_io(Disk, 1, true)).collect();
        let mut b = FaultPlan::new(cfg, 9);
        let seq_b: Vec<_> = (0..32).map(|_| b.draw_io(Disk, 1, true)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn spin_up_kill_marks_failed() {
        let cfg = FaultConfig {
            spin_up_kill: 1.0,
            ..FaultConfig::NONE
        };
        let mut p = FaultPlan::new(cfg, 3);
        assert!(!p.failed(Disk, 0, at(5.0)));
        assert_eq!(
            p.draw_spin_up(DiskId(0), at(5.0)),
            Some(FaultKind::DiskFailure)
        );
        assert!(p.failed(Disk, 0, at(5.0)));
        assert_eq!(p.stats().disk_failures, 1);
        // Rebuild resurrects it (no MTTF configured → immortal again).
        p.mark_rebuilt(DiskId(0), at(100.0));
        assert!(!p.failed(Disk, 0, at(1e6)));
        assert_eq!(p.stats().rebuilds, 1);
    }

    #[test]
    fn mttf_failure_is_eventual_and_counted_once() {
        let cfg = FaultConfig {
            disk_mttf: Some(SimDuration::from_secs(100)),
            ..FaultConfig::NONE
        };
        let mut p = FaultPlan::new(cfg, 11);
        // An exponential lifetime is finite: far future is always failed.
        assert!(p.failed(Disk, 0, at(1e12)));
        assert!(p.failed(Disk, 0, at(1e12)));
        assert_eq!(p.stats().disk_failures, 1);
        // The MTTF is a disk's: an SSD never fails.
        assert!(!p.failed(Ssd, 0, at(1e12)));
    }

    fn storm_cfg() -> ChaosConfig {
        ChaosConfig {
            machine_mtbf: Some(SimDuration::from_secs(40_000)),
            machine_restart: SimDuration::from_secs(600),
            domain_mtbf: Some(SimDuration::from_secs(80_000)),
            domain_outage: SimDuration::from_secs(1_800),
            brownout_mtbf: Some(SimDuration::from_secs(50_000)),
            brownout: SimDuration::from_secs(3_600),
            brownout_cap_frac: 0.7,
            surge_mtbf: Some(SimDuration::from_secs(30_000)),
            surge: SimDuration::from_secs(2_400),
            surge_factor: 1.5,
        }
    }

    #[test]
    fn chaos_zero_config_is_empty() {
        let s = ChaosSchedule::generate(
            ChaosConfig::NONE,
            99,
            16,
            4,
            SimDuration::from_secs(1_000_000),
        );
        assert!(s.is_empty());
        assert!(ChaosConfig::NONE.is_zero());
        assert!(!storm_cfg().is_zero());
    }

    #[test]
    fn chaos_same_seed_byte_identical() {
        let gen =
            || ChaosSchedule::generate(storm_cfg(), 1009, 24, 4, SimDuration::from_secs(200_000));
        let (a, b) = (gen(), gen());
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!a.is_empty(), "a storm over 200ks must produce events");
    }

    #[test]
    fn chaos_different_seeds_differ() {
        let gen = |seed| {
            ChaosSchedule::generate(storm_cfg(), seed, 24, 4, SimDuration::from_secs(200_000))
        };
        assert_ne!(gen(1).events(), gen(2).events());
    }

    #[test]
    fn chaos_events_sorted_and_within_horizon() {
        let horizon = SimDuration::from_secs(200_000);
        let s = ChaosSchedule::generate(storm_cfg(), 7, 24, 4, horizon);
        let end = SimInstant::EPOCH + horizon;
        for w in s.events().windows(2) {
            assert!(w[0].at <= w[1].at, "events out of order: {w:?}");
        }
        assert!(s.events().iter().all(|e| e.at < end));
    }

    #[test]
    fn chaos_machine_events_alternate_per_machine() {
        let s = ChaosSchedule::generate(storm_cfg(), 11, 8, 2, SimDuration::from_secs(400_000));
        for m in 0..8u32 {
            let mut down = false;
            for e in s.events() {
                match e.kind {
                    ChaosEventKind::MachineCrash { machine } if machine == m => {
                        assert!(!down, "machine {m} crashed while already down");
                        down = true;
                    }
                    ChaosEventKind::MachineUp { machine } if machine == m => {
                        assert!(down, "machine {m} restarted while up");
                        down = false;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn chaos_actor_streams_are_independent() {
        // Turning domain outages off must not shift machine crash times.
        let horizon = SimDuration::from_secs(200_000);
        let full = ChaosSchedule::generate(storm_cfg(), 13, 8, 2, horizon);
        let quiet = ChaosSchedule::generate(
            ChaosConfig {
                domain_mtbf: None,
                brownout_mtbf: None,
                surge_mtbf: None,
                ..storm_cfg()
            },
            13,
            8,
            2,
            horizon,
        );
        let crashes = |s: &ChaosSchedule| {
            s.events()
                .iter()
                .filter(|e| matches!(e.kind, ChaosEventKind::MachineCrash { .. }))
                .map(|e| (e.at, e.kind.name(), e.kind.sort_rank()))
                .collect::<Vec<_>>()
        };
        assert_eq!(crashes(&full), crashes(&quiet));
    }

    #[test]
    fn chaos_scripted_sorts_with_recoveries_first() {
        let t = at(100.0);
        let s = ChaosSchedule::scripted(
            2,
            1,
            SimDuration::from_secs(1_000),
            vec![
                ChaosEvent {
                    at: t,
                    kind: ChaosEventKind::MachineCrash { machine: 1 },
                },
                ChaosEvent {
                    at: t,
                    kind: ChaosEventKind::MachineUp { machine: 0 },
                },
            ],
        );
        assert_eq!(s.events()[0].kind, ChaosEventKind::MachineUp { machine: 0 });
        assert_eq!(
            s.events()[1].kind,
            ChaosEventKind::MachineCrash { machine: 1 }
        );
    }

    #[test]
    fn latent_only_on_reads() {
        let cfg = FaultConfig {
            latent_per_read: 1.0,
            ..FaultConfig::NONE
        };
        let mut p = FaultPlan::new(cfg, 5);
        assert_eq!(p.draw_io(Disk, 0, false), None);
        assert_eq!(p.draw_io(Ssd, 0, true), None);
        assert_eq!(p.draw_io(Disk, 0, true), Some(FaultKind::LatentSector));
    }
}
