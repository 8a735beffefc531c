//! Device service-time profiles.
//!
//! Performance (this module) is deliberately separate from power
//! ([`grail_power::components`]): the paper's whole point is that the two
//! axes trade off independently.

use grail_power::units::{Bytes, Cycles, Hertz, SimDuration};
use serde::{Deserialize, Serialize};

/// How an IO request touches a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessPattern {
    /// One positioning operation, then a contiguous transfer.
    Sequential,
    /// `ios` separate positioning operations across the transfer.
    Random {
        /// Number of distinct I/O operations (seeks on disk).
        ios: u32,
    },
}

/// Service-time model of one rotating disk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskPerfProfile {
    /// Average seek time.
    pub avg_seek: SimDuration,
    /// Average rotational latency (half a revolution).
    pub avg_rotation: SimDuration,
    /// Sustained transfer rate, bytes/second.
    pub transfer_bytes_per_sec: f64,
}

impl DiskPerfProfile {
    /// A 15K RPM 73 GB SCSI drive (Fig. 1 class): 3.5 ms seek, 2 ms
    /// rotational latency, ~90 MB/s sustained.
    pub fn scsi_15k() -> Self {
        DiskPerfProfile {
            avg_seek: SimDuration::from_micros(3500),
            avg_rotation: SimDuration::from_micros(2000),
            transfer_bytes_per_sec: 90.0e6,
        }
    }

    /// Service time for `bytes` under `access`.
    pub fn service_time(&self, bytes: Bytes, access: AccessPattern) -> SimDuration {
        let transfer = bytes.time_at_rate(self.transfer_bytes_per_sec);
        let positioning = match access {
            AccessPattern::Sequential => self.avg_seek + self.avg_rotation,
            AccessPattern::Random { ios } => (self.avg_seek + self.avg_rotation) * ios as u64,
        };
        positioning + transfer
    }
}

/// Service-time model of one SSD.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsdPerfProfile {
    /// Fixed per-request latency.
    pub request_latency: SimDuration,
    /// Sustained read bandwidth, bytes/second.
    pub read_bytes_per_sec: f64,
}

impl SsdPerfProfile {
    /// One of Fig. 2's three flash drives. The paper's scanner reads the
    /// 5-column uncompressed projection in 10 s across three of these;
    /// 200 MB/s each reproduces that class of device (2008 FusionIO/
    /// X25-E territory).
    pub fn fig2_flash() -> Self {
        SsdPerfProfile {
            request_latency: SimDuration::from_micros(100),
            read_bytes_per_sec: 200.0e6,
        }
    }

    /// Service time for `bytes` under `access`.
    pub fn service_time(&self, bytes: Bytes, access: AccessPattern) -> SimDuration {
        let transfer = bytes.time_at_rate(self.read_bytes_per_sec);
        let requests = match access {
            AccessPattern::Sequential => 1,
            AccessPattern::Random { ios } => ios as u64,
        };
        self.request_latency * requests + transfer
    }
}

/// The storage-fabric (HBA/PCIe/SAS-expander) scaling model for disk
/// arrays.
///
/// Real 2008 servers did not scale array bandwidth linearly to 204
/// spindles: the first few trays ride dedicated host links, after which
/// additional trays share upstream lanes. The model is a knee: up to
/// `knee_disks`, each spindle delivers full bandwidth; each spindle
/// beyond contributes `beyond_slope` of its bandwidth. This is the
/// substrate assumption behind Fig. 1's "point of diminishing returns"
/// (the paper does not disclose its bottleneck; the knee is calibrated
/// to the published 45%-performance/14%-efficiency deltas — see
/// DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricModel {
    /// Spindle count up to which bandwidth scales linearly.
    pub knee_disks: u32,
    /// Marginal bandwidth fraction per spindle beyond the knee.
    pub beyond_slope: f64,
}

impl FabricModel {
    /// No fabric constraint (bandwidth scales linearly forever).
    pub fn unconstrained() -> Self {
        FabricModel {
            knee_disks: u32::MAX,
            beyond_slope: 1.0,
        }
    }

    /// The DL785-class fabric calibrated for Fig. 1: linear to ~66
    /// spindles, ~0.39 marginal beyond.
    pub fn dl785_sas() -> Self {
        FabricModel {
            knee_disks: 66,
            beyond_slope: 0.39,
        }
    }

    /// Effective aggregate bandwidth factor for an array of `disks`
    /// spindles, in `(0, 1]`: multiply a spindle's nominal rate by this
    /// when it is a member of the array.
    pub fn factor(&self, disks: u32) -> f64 {
        if disks <= self.knee_disks {
            return 1.0;
        }
        let effective =
            self.knee_disks as f64 + self.beyond_slope * (disks - self.knee_disks) as f64;
        (effective / disks as f64).clamp(0.0, 1.0)
    }
}

/// Performance model of one CPU pool (a set of identical cores).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuPerfProfile {
    /// Number of cores.
    pub cores: u32,
    /// Clock frequency of every core.
    pub freq: Hertz,
}

impl CpuPerfProfile {
    /// The Fig. 1 server's 8 × quad-core 2.3 GHz Opterons, as one pool.
    pub fn dl785() -> Self {
        CpuPerfProfile {
            cores: 32,
            freq: Hertz::ghz(2.3),
        }
    }

    /// The Fig. 2 single CPU.
    pub fn fig2_single() -> Self {
        CpuPerfProfile {
            cores: 1,
            freq: Hertz::ghz(2.3),
        }
    }

    /// Time for one core to execute `work`.
    pub fn core_time(&self, work: Cycles) -> SimDuration {
        work.time_at(self.freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_sequential_vs_random() {
        let p = DiskPerfProfile::scsi_15k();
        let seq = p.service_time(Bytes::mib(90), AccessPattern::Sequential);
        // ~1 s transfer (90 MiB at 90 MB/s is slightly over 1 s) + 5.5 ms.
        assert!(seq.as_secs_f64() > 1.0 && seq.as_secs_f64() < 1.1, "{seq}");
        let rnd = p.service_time(Bytes::mib(90), AccessPattern::Random { ios: 1000 });
        // 1000 × 5.5 ms positioning dominates.
        assert!(rnd.as_secs_f64() > 6.0, "{rnd}");
        assert!(rnd > seq);
    }

    #[test]
    fn ssd_random_penalty_is_small() {
        let p = SsdPerfProfile::fig2_flash();
        let seq = p.service_time(Bytes::mib(200), AccessPattern::Sequential);
        let rnd = p.service_time(Bytes::mib(200), AccessPattern::Random { ios: 1000 });
        let ratio = rnd.as_secs_f64() / seq.as_secs_f64();
        assert!(ratio < 1.2, "flash random reads cost little extra: {ratio}");
    }

    #[test]
    fn fig2_three_flash_drives_read_6gb_in_10s() {
        // The uncompressed 5-column projection is ~6 GB; three drives at
        // 200 MB/s stream it in ~10 s — the paper's Fig. 2 left bar.
        let p = SsdPerfProfile::fig2_flash();
        let per_drive = Bytes::new(2_000_000_000);
        let t = p.service_time(per_drive, AccessPattern::Sequential);
        assert!((t.as_secs_f64() - 10.0).abs() < 0.01, "{t}");
    }

    #[test]
    fn cpu_core_time() {
        let p = CpuPerfProfile::dl785();
        let t = p.core_time(Cycles::new(2_300_000_000));
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod fabric_tests {
    use super::*;

    #[test]
    fn unconstrained_factor_is_one() {
        let f = FabricModel::unconstrained();
        for n in [1u32, 66, 204, 10_000] {
            assert_eq!(f.factor(n), 1.0);
        }
    }

    #[test]
    fn dl785_knee_shape() {
        let f = FabricModel::dl785_sas();
        assert_eq!(f.factor(36), 1.0);
        assert_eq!(f.factor(66), 1.0);
        // Effective bandwidth keeps growing past the knee, but per-disk
        // factor falls.
        let f108 = f.factor(108);
        let f204 = f.factor(204);
        assert!(f108 < 1.0 && f204 < f108, "{f108} {f204}");
        let eff108 = 108.0 * f108;
        let eff204 = 204.0 * f204;
        assert!(eff204 > eff108, "aggregate bandwidth still monotone");
        // Calibration targets (DESIGN.md): eff(204)/eff(66) ≈ 1.82.
        let ratio = eff204 / 66.0;
        assert!((ratio - 1.82).abs() < 0.02, "{ratio}");
    }

    #[test]
    fn factor_bounded() {
        let f = FabricModel {
            knee_disks: 10,
            beyond_slope: 0.0,
        };
        assert!(f.factor(1_000_000) > 0.0);
        assert!(f.factor(1_000_000) < 1e-4);
    }
}
