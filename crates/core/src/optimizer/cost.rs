//! The dual time/energy cost model.
//!
//! Sec. 4.1: "to improve energy efficiency, query optimizers will need
//! power models to estimate energy costs … simple models may suffice in
//! the same way simple models for device access times work well in
//! practice". This model is exactly that: per-operator CPU and IO
//! estimates (sharing the executor's [`CostCharge`] constants, so the
//! model predicts what the executor charges) combined with first-order
//! power terms read off the [`HardwareProfile`] the simulator runs.
//!
//! Time composes as `max(cpu, io)` within a pipelined phase and as a sum
//! across phases; energy charges active power for busy time, idle power
//! for the rest of the phase, and a DRAM-residency term for memory
//! grants held over the phase.

use crate::profile::HardwareProfile;
use grail_power::units::Watts;
use grail_query::cost_charge::CostCharge;
use grail_sim::raid::RaidLevel;
use grail_sim::SimError;

/// Estimated cost of a plan (or plan fragment).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanCost {
    /// CPU busy seconds.
    pub cpu_secs: f64,
    /// IO busy seconds.
    pub io_secs: f64,
    /// Elapsed seconds (`max` within phases, summed across).
    pub elapsed_secs: f64,
    /// Estimated energy.
    pub energy_j: f64,
    /// Peak memory grant held.
    pub memory_bytes: u64,
}

impl PlanCost {
    /// Sequential composition: phases run one after another; peak memory
    /// is the max.
    pub fn then(&self, next: &PlanCost) -> PlanCost {
        PlanCost {
            cpu_secs: self.cpu_secs + next.cpu_secs,
            io_secs: self.io_secs + next.io_secs,
            elapsed_secs: self.elapsed_secs + next.elapsed_secs,
            energy_j: self.energy_j + next.energy_j,
            memory_bytes: self.memory_bytes.max(next.memory_bytes),
        }
    }
}

/// The cost model: a first-order price list of the machine plus the
/// executor's cycle calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Core clock.
    pub cpu_hz: f64,
    /// CPU pool power with one core busy. CPU time is counted in
    /// one-core seconds, so this is what a busy second costs.
    pub cpu_active: Watts,
    /// CPU pool power with every core halted.
    pub cpu_idle: Watts,
    /// Aggregate storage bandwidth.
    pub io_bytes_per_sec: f64,
    /// Storage power while transferring.
    pub io_active: Watts,
    /// Storage power while idle within a query's span.
    pub io_idle: Watts,
    /// DRAM power per byte held (residency cost of grants). A profile
    /// prices 0: the simulator bills DRAM inside `base`.
    pub mem_watts_per_byte: f64,
    /// Constant draw attributed to the query's span.
    pub base: Watts,
    /// Seconds per dependent random IO (an index-descent page touch):
    /// a seek+rotation on disk, a request latency on flash. Dependent
    /// lookups cannot be striped, so this is per-operation latency, not
    /// aggregate bandwidth.
    pub io_random_secs_per_op: f64,
    /// Cycle constants (shared with the executor).
    pub charge: CostCharge,
}

impl CostModel {
    /// The model of `profile`, the machine the simulator runs, with the
    /// default calibration. CPU draw is what the simulator bills: the
    /// whole pool halted, and the same pool with one core busy (the
    /// model counts one-core seconds). Errs where
    /// [`HardwareProfile::try_build`] does.
    pub fn new(profile: &HardwareProfile) -> Result<Self, SimError> {
        let cpu_idle = profile.cpu_power.idle_power(profile.cpu_perf.cores);
        let (disks, ssds) = (profile.disks as f64, profile.ssds as f64);
        let (disk, ssd) = (&profile.disk_power, &profile.ssd_power);
        // Every device idles; the ones a scan stripes across run active.
        let io_idle = Watts::new(disks * disk.idle.get() + ssds * ssd.idle.get());
        let (io_bytes_per_sec, io_active, io_random) = if profile.scans_disk_array()? {
            let data_disks = match profile.raid {
                RaidLevel::Raid0 => disks,
                RaidLevel::Raid5 => disks - 1.0,
            };
            (
                data_disks
                    * profile.disk_perf.transfer_bytes_per_sec
                    * profile.fabric.factor(profile.disks as u32),
                Watts::new(disks * disk.active.get() + ssds * ssd.idle.get()),
                profile.disk_perf.avg_seek + profile.disk_perf.avg_rotation,
            )
        } else {
            (
                ssds * profile.ssd_perf.read_bytes_per_sec,
                Watts::new(ssds * ssd.active.get()),
                profile.ssd_perf.request_latency,
            )
        };
        Ok(CostModel {
            cpu_hz: profile.cpu_perf.freq.get(),
            cpu_active: cpu_idle + (profile.cpu_power.core_active - profile.cpu_power.core_idle),
            cpu_idle,
            io_bytes_per_sec,
            io_active,
            io_idle,
            mem_watts_per_byte: 0.0,
            base: profile.base_power,
            io_random_secs_per_op: io_random.as_secs_f64(),
            charge: CostCharge::default_calibrated(),
        })
    }

    /// One pipelined phase: `cpu_cycles` of compute overlapping
    /// `io_bytes` of transfer while `memory_bytes` stay granted.
    pub fn phase(&self, cpu_cycles: f64, io_bytes: f64, memory_bytes: u64) -> PlanCost {
        self.priced(
            cpu_cycles / self.cpu_hz,
            io_bytes / self.io_bytes_per_sec,
            memory_bytes,
        )
    }

    /// Price `cpu_secs` of compute overlapping `io_secs` of IO: active
    /// power while busy, idle power for the rest of the phase, plus DRAM
    /// residency and base draw over the whole of it.
    fn priced(&self, cpu_secs: f64, io_secs: f64, memory_bytes: u64) -> PlanCost {
        let elapsed = cpu_secs.max(io_secs);
        let cpu_e = self.cpu_active.get() * cpu_secs + self.cpu_idle.get() * (elapsed - cpu_secs);
        let io_e = self.io_active.get() * io_secs + self.io_idle.get() * (elapsed - io_secs);
        let mem_e = self.mem_watts_per_byte * memory_bytes as f64 * elapsed;
        let base_e = self.base.get() * elapsed;
        PlanCost {
            cpu_secs,
            io_secs,
            elapsed_secs: elapsed,
            energy_j: cpu_e + io_e + mem_e + base_e,
            memory_bytes,
        }
    }

    /// A projection scan: `values` decoded values moving `stored_bytes`
    /// off the device under `decode_cpv` extra cycles per value.
    pub fn scan(&self, values: f64, stored_bytes: f64, decode_cpv: f64) -> PlanCost {
        let cycles = values * (self.charge.scan_cycles_per_value + decode_cpv);
        self.phase(cycles, stored_bytes, 0)
    }

    /// A filter over `rows` with a `terms`-term predicate.
    pub fn filter(&self, rows: f64, terms: f64) -> PlanCost {
        self.phase(rows * terms * self.charge.expr_cycles_per_term, 0.0, 0)
    }

    /// Hash join of `build_rows`×`build_arity` against `probe_rows`
    /// (two phases: blocking build holding memory, then probe).
    pub fn hash_join(&self, build_rows: f64, build_arity: f64, probe_rows: f64) -> PlanCost {
        let mem = (build_rows * build_arity * 8.0 * 2.0) as u64;
        let build = self.phase(build_rows * self.charge.hash_build_cycles_per_row, 0.0, mem);
        let probe = self.phase(probe_rows * self.charge.hash_probe_cycles_per_row, 0.0, mem);
        build.then(&probe)
    }

    /// Nested-loop join of `outer_rows` × `inner_rows` (inner assumed
    /// resident; memory footprint one batch).
    pub fn nl_join(&self, outer_rows: f64, inner_rows: f64) -> PlanCost {
        self.phase(
            outer_rows * inner_rows * self.charge.nl_cycles_per_pair,
            0.0,
            64 * 1024,
        )
    }

    /// Index nested-loop join: `probe_rows` dependent descents of
    /// `pages_per_probe` random page touches each, plus probe CPU.
    /// Latency-bound (descents serialize), so time uses the per-op
    /// random latency, not aggregate bandwidth.
    pub fn index_nl_join(&self, probe_rows: f64, pages_per_probe: f64) -> PlanCost {
        self.priced(
            probe_rows * self.charge.hash_probe_cycles_per_row / self.cpu_hz,
            probe_rows * pages_per_probe * self.io_random_secs_per_op,
            64 * 1024,
        )
    }

    /// Sort of `rows`×`arity` with `grant` bytes of memory (spills cost
    /// a write+read pass per extra merge level).
    pub fn sort(&self, rows: f64, arity: f64, grant: u64) -> PlanCost {
        let n = rows.max(1.0);
        let cmp_cycles = n * n.log2().max(0.0) * self.charge.sort_cycles_per_cmp;
        let bytes = rows * arity * 8.0;
        let mut cost = self.phase(cmp_cycles, 0.0, grant.min(bytes as u64));
        if bytes as u64 > grant && grant > 0 {
            let mut fan = (bytes as u64).div_ceil(grant);
            let mut passes = 1u64;
            while fan > 64 {
                fan = fan.div_ceil(64);
                passes += 1;
            }
            for _ in 0..passes {
                cost = cost.then(&self.phase(
                    rows * self.charge.merge_cycles_per_row,
                    2.0 * bytes,
                    grant,
                ));
            }
        }
        cost
    }

    /// Hash aggregation of `rows` into `groups`.
    pub fn aggregate(&self, rows: f64, groups: f64) -> PlanCost {
        self.phase(
            rows * self.charge.agg_cycles_per_row + groups * self.charge.agg_cycles_per_group,
            0.0,
            (groups * 64.0) as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terms_are_priced_from_the_profile() {
        // Every term, exactly, in declaration order: clock; CPU active,
        // idle; IO bandwidth, active, idle; DRAM; base; random-IO latency.
        let terms = |p: HardwareProfile| {
            let m = CostModel::new(&p).unwrap();
            [
                m.cpu_hz,
                m.cpu_active.get(),
                m.cpu_idle.get(),
                m.io_bytes_per_sec,
                m.io_active.get(),
                m.io_idle.get(),
                m.mem_watts_per_byte,
                m.base.get(),
                m.io_random_secs_per_op,
            ]
        };
        assert_eq!(
            terms(HardwareProfile::flash_scanner()),
            [2.3e9, 90.0, 0.0, 600.0e6, 5.0, 5.0, 0.0, 0.0, 100e-6]
        );
        // The pool halted is 32 × 4 W cores + 8 × 15 W uncore; one busy
        // core adds 18 − 4 W; the base is the rest of 941 W. RAID-5
        // leaves 65 data spindles × 90 MB/s.
        let idle = 32.0 * 4.0 + 8.0 * 15.0;
        let (busy, base) = (idle + 18.0 - 4.0, 941.0 - idle);
        assert_eq!(
            terms(HardwareProfile::server_dl785(66)),
            [2.3e9, busy, idle, 5.85e9, 990.0, 990.0, 0.0, base, 5.5e-3]
        );
    }

    #[test]
    fn storage_bandwidth_raid5_loses_one_disk() {
        let bandwidth = |p: HardwareProfile| CostModel::new(&p).map(|m| m.io_bytes_per_sec);
        let raid0 = HardwareProfile {
            raid: RaidLevel::Raid0,
            ..HardwareProfile::server_dl785(66)
        };
        assert_eq!(bandwidth(raid0), Ok(66.0 * 90.0e6));
        assert_eq!(
            bandwidth(HardwareProfile::server_dl785(66)),
            Ok(65.0 * 90.0e6)
        );
        // No parity group below three disks, and nothing to read without storage.
        let one = bandwidth(HardwareProfile::server_dl785(1));
        assert_eq!(one, Err(SimError::BadArrayGeometry { disks: 1, min: 3 }));
        assert_eq!(
            bandwidth(HardwareProfile::server_dl785(0)),
            Err(SimError::NoStorage)
        );
    }
}
