//! The CPU pool: identical cores as FCFS servers, with per-core
//! active/idle power and a shared uncore floor.
//!
//! Fig. 2 charges "90 W while the CPU computes, nothing while it idles";
//! Fig. 1's server has 32 Opteron cores whose saturation is what bends
//! the performance curve flat as disks are added.

use crate::device::DeviceStats;
use crate::perf::CpuPerfProfile;
use crate::sim::Reservation;
use grail_power::components::CpuPowerProfile;
use grail_power::state::{MachineSummary, PowerStateMachine};
use grail_power::units::{Cycles, Joules, SimInstant, Watts};

/// One simulated CPU pool.
#[derive(Debug, Clone)]
pub struct CpuDevice {
    perf: CpuPerfProfile,
    power: CpuPowerProfile,
    cores: Vec<CoreState>,
    last_issue: SimInstant,
    stats: DeviceStats,
}

#[derive(Debug, Clone)]
struct CoreState {
    machine: PowerStateMachine,
    next_free: SimInstant,
}

impl CpuDevice {
    /// A pool of `perf.cores` cores, all idle at `start`.
    ///
    /// The *total* core count comes from `perf`; `power` describes one
    /// socket's per-core draw and per-socket uncore (scaled by how many
    /// sockets `perf.cores` implies).
    pub fn new(perf: CpuPerfProfile, power: CpuPowerProfile, start: SimInstant) -> Self {
        let cores = (0..perf.cores)
            .map(|_| CoreState {
                machine: power.core_machine(start),
                next_free: start,
            })
            .collect();
        CpuDevice {
            perf,
            power,
            cores,
            last_issue: start,
            stats: DeviceStats::default(),
        }
    }

    /// Clock frequency.
    pub fn freq(&self) -> grail_power::units::Hertz {
        self.perf.freq
    }

    /// Cores in the pool.
    pub(crate) fn cores(&self) -> u32 {
        self.perf.cores
    }

    /// Execute `work` on one core, FCFS (earliest-free core wins, ties to
    /// the lowest index). Issue times must be nondecreasing.
    pub fn compute(&mut self, at: SimInstant, work: Cycles) -> Reservation {
        self.compute_parallel(at, work, 1)
    }

    /// Execute `work` split evenly over `dop` cores (capped at the pool
    /// size). Each shard is scheduled FCFS independently; the reservation
    /// spans from the earliest shard start to the latest shard end.
    pub fn compute_parallel(&mut self, at: SimInstant, work: Cycles, dop: u32) -> Reservation {
        debug_assert!(
            at >= self.last_issue,
            "out-of-order issue to cpu: {at} after {}",
            self.last_issue
        );
        self.last_issue = at;
        let dop = dop.clamp(1, self.perf.cores) as u64;
        let shard = Cycles::new(work.get().div_ceil(dop));
        let dur = self.perf.core_time(shard);
        let mut first_start = SimInstant::MAX;
        let mut last_end = SimInstant::EPOCH;
        for _ in 0..dop {
            #[expect(
                clippy::expect_used,
                reason = "callers size the pool nonzero: Simulation::compute_parallel rejects a zero-core pool"
            )]
            let (idx, _) = self
                .cores
                .iter()
                .enumerate()
                .min_by_key(|(i, c)| (c.next_free, *i))
                .expect("pool is non-empty");
            let core = &mut self.cores[idx];
            let start = at.max(core.next_free);
            let end = start + dur;
            #[expect(
                clippy::expect_used,
                reason = "a core's work starts once it is free, at or after its machine's cursor"
            )]
            core.machine
                .busy(start, end)
                .expect("idle->active->idle at monotone times");
            core.next_free = end;
            first_start = first_start.min(start);
            last_end = last_end.max(end);
            self.stats.busy += dur;
        }
        self.stats.requests += 1;
        Reservation {
            start: first_start,
            end: last_end,
        }
    }

    /// The instant all queued work completes.
    pub fn all_free(&self) -> SimInstant {
        self.cores
            .iter()
            .map(|c| c.next_free)
            .max()
            .unwrap_or(SimInstant::EPOCH)
    }

    /// Statistics so far (`busy` sums over cores: 2 cores × 1 s = 2 s).
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Per-core power while executing.
    pub fn core_active_power(&self) -> Watts {
        self.power.core_active
    }

    /// Finalize at `end`: total energy = per-core machines + uncore floor
    /// over the whole span.
    pub fn finish(self, end: SimInstant) -> Joules {
        self.finish_summary(end).total_energy
    }

    /// Finalize at `end`, returning a package-level power-state summary:
    /// the first core's summary absorbing the others', with the uncore
    /// floor folded into the total.
    pub fn finish_summary(self, end: SimInstant) -> MachineSummary {
        let end = end.max(self.all_free());
        let span = end.duration_since(SimInstant::EPOCH);
        let uncore = self.power.uncore_power(self.perf.cores) * span;
        let mut agg: Option<MachineSummary> = None;
        for c in self.cores {
            #[expect(
                clippy::expect_used,
                reason = "per-core event times are monotone by construction"
            )]
            let s = c.machine.finish(end).expect("monotone finish");
            match &mut agg {
                None => agg = Some(s),
                Some(a) => a.absorb(&s),
            }
        }
        let mut out = agg.unwrap_or_default();
        out.total_energy += uncore;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grail_power::units::SimDuration;

    fn at(s: f64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs_f64(s)
    }

    fn fig2_cpu() -> CpuDevice {
        CpuDevice::new(
            CpuPerfProfile::fig2_single(),
            CpuPowerProfile::fig2_cpu(),
            SimInstant::EPOCH,
        )
    }

    #[test]
    fn fig2_cpu_busy_energy_only() {
        let mut c = fig2_cpu();
        // 3.2 s of work at 2.3 GHz.
        let work = Cycles::new((3.2 * 2.3e9) as u64);
        let r = c.compute(at(0.0), work);
        assert!((r.end.as_secs_f64() - 3.2).abs() < 1e-6);
        let e = c.finish(at(10.0));
        // 90 W × 3.2 s = 288 J; idle draws nothing.
        assert!((e.joules() - 288.0).abs() < 1e-3, "{e}");
    }

    #[test]
    fn single_core_serializes() {
        let mut c = fig2_cpu();
        let w = Cycles::new(2_300_000_000); // 1 s
        let r1 = c.compute(at(0.0), w);
        let r2 = c.compute(at(0.0), w);
        assert_eq!(r2.start, r1.end);
    }

    #[test]
    fn multicore_runs_in_parallel() {
        let mut c = CpuDevice::new(
            CpuPerfProfile::dl785(),
            CpuPowerProfile::opteron_socket(),
            SimInstant::EPOCH,
        );
        let w = Cycles::new(2_300_000_000); // 1 s on one core
        let r1 = c.compute(at(0.0), w);
        let r2 = c.compute(at(0.0), w);
        // Different cores: both start at 0.
        assert_eq!(r1.start, r2.start);
        assert_eq!(r1.end, r2.end);
    }

    #[test]
    fn parallel_split_shortens_span() {
        let mut c = CpuDevice::new(
            CpuPerfProfile::dl785(),
            CpuPowerProfile::opteron_socket(),
            SimInstant::EPOCH,
        );
        let w = Cycles::new(4 * 2_300_000_000); // 4 core-seconds
        let r = c.compute_parallel(at(0.0), w, 4);
        assert!((r.end.duration_since(r.start).as_secs_f64() - 1.0).abs() < 1e-6);
        // busy accumulates 4 core-seconds.
        assert!((c.stats().busy.as_secs_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn dop_clamped_to_pool() {
        let mut c = fig2_cpu();
        let w = Cycles::new(2_300_000_000);
        let r = c.compute_parallel(at(0.0), w, 64);
        assert!((r.end.duration_since(r.start).as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn uncore_scales_with_sockets() {
        let c = CpuDevice::new(
            CpuPerfProfile::dl785(),           // 32 cores
            CpuPowerProfile::opteron_socket(), // 4 cores/socket, 15 W uncore
            SimInstant::EPOCH,
        );
        let uncore = c.power.uncore_power(c.perf.cores);
        assert!((uncore.get() - 8.0 * 15.0).abs() < 1e-9);
    }
}
