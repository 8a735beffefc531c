//! The multi-stream job driver: runs concurrent query streams against a
//! [`Simulation`] in global time order.
//!
//! The TPC-H "throughput test" of Fig. 1 "issues a mixture of TPC-H
//! queries simultaneously from multiple clients"; this driver is that
//! harness. A *job* (one query) is a sequence of *phases*; each phase
//! demands CPU work and IO volume, either overlapped (pipelined scan) or
//! sequential (blocking build then probe). Phases from all streams are
//! dispatched through one deterministic event queue, so device issue
//! order is globally nondecreasing — the invariant the FCFS calendars
//! require.

use crate::error::SimError;
use crate::event::EventQueue;
use crate::ids::{CpuId, StorageTarget};
use crate::perf::AccessPattern;
use crate::sim::Simulation;
use grail_metrics::registry::COUNT_BUCKETS;
use grail_power::units::{Bytes, Cycles, Joules, SimDuration, SimInstant};
use grail_trace::{Category, TraceEvent, TraceTime, Track};

/// Whether an IO demand reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Read from the target.
    Read,
    /// Write to the target.
    Write,
}

/// One IO demand within a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoDemand {
    /// Where the bytes live.
    pub target: StorageTarget,
    /// How many bytes move.
    pub bytes: Bytes,
    /// Access pattern.
    pub access: AccessPattern,
    /// Read or write.
    pub op: IoOp,
}

impl IoDemand {
    /// A sequential read demand.
    pub fn seq_read(target: StorageTarget, bytes: Bytes) -> Self {
        IoDemand {
            target,
            bytes,
            access: AccessPattern::Sequential,
            op: IoOp::Read,
        }
    }
}

/// One phase of a job: CPU work plus IO demands.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// CPU work for the phase.
    pub cpu: Cycles,
    /// Degree of parallelism for the CPU work.
    pub dop: u32,
    /// IO demands issued by the phase.
    pub io: Vec<IoDemand>,
    /// If true, CPU and IO overlap (phase ends at the max of both); if
    /// false, IO completes first and CPU starts afterwards.
    pub overlap: bool,
}

impl PhaseSpec {
    /// A pipelined phase: CPU and IO overlap.
    pub fn overlapped(cpu: Cycles, dop: u32, io: Vec<IoDemand>) -> Self {
        PhaseSpec {
            cpu,
            dop,
            io,
            overlap: true,
        }
    }

    /// A blocking phase: IO first, then CPU.
    pub fn io_then_cpu(cpu: Cycles, dop: u32, io: Vec<IoDemand>) -> Self {
        PhaseSpec {
            cpu,
            dop,
            io,
            overlap: false,
        }
    }

    /// A pure-CPU phase.
    pub fn cpu_only(cpu: Cycles, dop: u32) -> Self {
        PhaseSpec {
            cpu,
            dop,
            io: Vec::new(),
            overlap: true,
        }
    }

    /// Whether the driver runs the phase as two steps, all of its IO and
    /// then its CPU, rather than one. Phases are split so that every
    /// issue happens at a queue pop, keeping device issue times globally
    /// nondecreasing.
    fn splits(&self) -> bool {
        !self.overlap && !self.io.is_empty() && self.cpu != Cycles::ZERO
    }
}

/// One job (query): an arrival time and a phase list.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Earliest dispatch time (the stream may be busy later than this).
    pub arrival: SimInstant,
    /// The job's phases, executed in order.
    pub phases: Vec<PhaseSpec>,
}

impl JobSpec {
    /// A job available immediately.
    pub fn immediate(phases: Vec<PhaseSpec>) -> Self {
        JobSpec {
            arrival: SimInstant::EPOCH,
            phases,
        }
    }
}

/// Completion record of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobResult {
    /// Which stream ran it.
    pub stream: usize,
    /// Index within the stream.
    pub index: usize,
    /// Dispatch time.
    pub start: SimInstant,
    /// Completion time.
    pub end: SimInstant,
    /// IO attempts that failed retryably and were reissued for this job.
    pub retries: u32,
    /// Energy wasted by this job's failed attempts (spin-up surges,
    /// service time that delivered nothing) — already re-attributed to
    /// the `Recovery` ledger category, reported here per job.
    pub retry_energy: Joules,
}

impl JobResult {
    /// Dispatch-to-completion latency.
    pub fn latency(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

/// Outcome of a full driver run.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveOutcome {
    /// Every job's completion record, in completion order.
    pub results: Vec<JobResult>,
    /// Latest completion across all streams.
    pub makespan: SimInstant,
    /// Total retried IO attempts across every job.
    pub total_retries: u64,
}

/// How the driver reacts to retryable IO faults
/// ([`SimError::TransientIo`], [`SimError::LatentSector`]): reissue the
/// failed demand after an exponential backoff, give up after a budget of
/// consecutive failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive failures of one IO demand before the run errors with
    /// [`SimError::RetriesExhausted`]. Zero means fail on first fault.
    pub max_retries: u32,
    /// Backoff after the first failure; doubles (times `multiplier`)
    /// per consecutive failure.
    pub base_backoff: SimDuration,
    /// Backoff growth factor per consecutive failure.
    pub multiplier: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            base_backoff: SimDuration::from_millis(10),
            multiplier: 2,
        }
    }
}

impl RetryPolicy {
    /// The backoff delay before attempt number `attempt` (1-based count
    /// of consecutive failures so far): `base · multiplier^(attempt-1)`,
    /// exponent capped and every multiplication saturating, so even
    /// `attempt = u32::MAX` with a huge multiplier yields
    /// [`SimDuration::MAX`] instead of overflowing.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        if attempt == 0 {
            return SimDuration::ZERO;
        }
        let exp = (attempt - 1).min(16);
        self.base_backoff
            .saturating_mul((self.multiplier as u64).saturating_pow(exp))
    }
}

/// Where one stream stands: a cursor over its `JobSpec`s, which the
/// engine reads in place.
#[derive(Debug, Default)]
struct StreamState {
    job_idx: usize,
    phase_idx: usize,
    /// In the CPU step of a phase that [`PhaseSpec::splits`].
    cpu_half: bool,
    job_start: SimInstant,
    /// Next IO demand of the current step still to issue (resume point
    /// after a retryable fault).
    io_idx: usize,
    /// Completion high-water mark of the current step's already-served
    /// demands (survives across retry re-entries).
    step_end_acc: SimInstant,
    /// Consecutive failures of the IO demand at `io_idx`.
    attempts: u32,
    /// Retries accumulated by the current job.
    job_retries: u32,
    /// Energy wasted by the current job's failed attempts.
    job_retry_energy: Joules,
}

/// Run `streams` of jobs concurrently on `sim`, using `cpu` for all CPU
/// work and the default [`RetryPolicy`]. Returns per-job results and the
/// makespan.
pub fn run_streams(
    sim: &mut Simulation,
    cpu: CpuId,
    streams: &[Vec<JobSpec>],
) -> Result<DriveOutcome, SimError> {
    run_streams_with(sim, cpu, streams, &RetryPolicy::default())
}

/// [`run_streams`] with an explicit retry policy.
///
/// Retryable faults ([`SimError::TransientIo`], [`SimError::LatentSector`])
/// re-enqueue the stream at `max(now, fault's retry_until) + backoff` and
/// reissue the failed demand; already-served demands of the step are not
/// repeated. Non-retryable errors, and the `max_retries`-th consecutive
/// failure of one demand, abort the run.
pub fn run_streams_with(
    sim: &mut Simulation,
    cpu: CpuId,
    streams: &[Vec<JobSpec>],
    policy: &RetryPolicy,
) -> Result<DriveOutcome, SimError> {
    let mut engine = StreamEngine::new(cpu, streams, *policy);
    while engine.step(sim)? {}
    Ok(engine.into_outcome())
}

/// The driver's event loop, reified so it can be *stepped*.
///
/// [`run_streams_with`] drains it in one call; a `sim::parallel` cell
/// instead interleaves `step` with its machine crashes, taking whichever
/// comes first in simulated time (the crash on a tie). One `step` call
/// processes exactly one event-queue pop — the same pop the sequential
/// loop would perform — so the sequence of simulation mutations is
/// identical however the steps are paced.
///
/// The engine borrows its streams and reads each step from the
/// `JobSpec`s where they lie: building it allocates one cursor per
/// stream and the results vector, and a step allocates nothing.
pub(crate) struct StreamEngine<'a> {
    streams: &'a [Vec<JobSpec>],
    states: Vec<StreamState>,
    q: EventQueue<usize>,
    cpu: CpuId,
    policy: RetryPolicy,
    results: Vec<JobResult>,
    makespan: SimInstant,
    total_retries: u64,
}

impl<'a> StreamEngine<'a> {
    pub(crate) fn new(cpu: CpuId, streams: &'a [Vec<JobSpec>], policy: RetryPolicy) -> Self {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, jobs) in streams.iter().enumerate() {
            if let Some(first) = jobs.first() {
                q.push(first.arrival, i);
            }
        }
        StreamEngine {
            streams,
            states: streams.iter().map(|_| StreamState::default()).collect(),
            q,
            cpu,
            policy,
            results: Vec::with_capacity(streams.iter().map(Vec::len).sum()),
            makespan: SimInstant::EPOCH,
            total_retries: 0,
        }
    }

    /// Time of the next event the engine would process, if any.
    pub(crate) fn next_at(&self) -> Option<SimInstant> {
        self.q.peek_time()
    }

    /// Process one event. Returns `Ok(false)` once the queue is drained.
    pub(crate) fn step(&mut self, sim: &mut Simulation) -> Result<bool, SimError> {
        let Some((t, stream)) = self.q.pop() else {
            return Ok(false);
        };
        // Event times pop in nondecreasing order, so this drives the
        // scrape clock: boundary snapshots capture the registry as it
        // stood *before* this event's own metrics land.
        sim.tracer_mut().advance_time(t.as_nanos());
        sim.tracer_mut()
            .observe("driver.queue_depth", COUNT_BUCKETS, self.q.len() as f64);
        let jobs = &self.streams[stream];
        let st = &mut self.states[stream];
        if st.phase_idx == 0 && !st.cpu_half && st.io_idx == 0 && st.attempts == 0 {
            st.job_start = t;
        }
        // Skip empty jobs outright.
        while st.job_idx < jobs.len() && jobs[st.job_idx].phases.is_empty() {
            self.results.push(JobResult {
                stream,
                index: st.job_idx,
                start: t,
                end: t,
                retries: 0,
                retry_energy: Joules::ZERO,
            });
            st.job_idx += 1;
            st.job_start = t;
        }
        let Some(job) = jobs.get(st.job_idx) else {
            return Ok(true);
        };
        // The step: a whole phase, or the IO or the CPU half of a split one.
        let phase = &job.phases[st.phase_idx];
        let splits = phase.splits();
        let (io, cpu, dop): (&[IoDemand], _, _) = match (splits, st.cpu_half) {
            (false, _) => (&phase.io, phase.cpu, phase.dop),
            (true, false) => (&phase.io, Cycles::ZERO, 1),
            (true, true) => (&[], phase.cpu, phase.dop),
        };
        if st.io_idx == 0 && st.attempts == 0 {
            st.step_end_acc = t;
        }
        let mut step_end = st.step_end_acc.max(t);
        // Attribute every reservation this step issues to the query.
        sim.set_query_tag(stream as u32, st.job_idx as u32);
        // Issue the step's IO, resuming after any demand already served
        // before a retryable fault.
        let mut reissue_at: Option<SimInstant> = None;
        while let Some(d) = io.get(st.io_idx) {
            let r = match d.op {
                IoOp::Read => sim.read(d.target, t, d.bytes, d.access),
                IoOp::Write => sim.write(d.target, t, d.bytes, d.access),
            };
            match r {
                Ok(res) => {
                    step_end = step_end.max(res.end);
                    st.io_idx += 1;
                    st.attempts = 0;
                }
                Err(e) if e.is_retryable() => {
                    st.attempts += 1;
                    st.job_retries += 1;
                    let wasted = sim.drain_retry_energy();
                    st.job_retry_energy += wasted;
                    self.total_retries += 1;
                    let (attempt, job_idx) = (st.attempts, st.job_idx);
                    sim.tracer_mut().count("io.retries", 1);
                    sim.tracer_mut().emit(Category::Query, || {
                        TraceEvent::instant(
                            TraceTime::from_nanos(t.as_nanos()),
                            Category::Query,
                            "retry",
                            Track::Stream(stream as u32),
                        )
                        .arg("job", job_idx as u64)
                        .arg("attempt", attempt as u64)
                        .arg("wasted_j", wasted.joules())
                    });
                    if st.attempts > self.policy.max_retries {
                        return Err(SimError::RetriesExhausted {
                            stream,
                            job: st.job_idx,
                            attempts: st.attempts,
                        });
                    }
                    let until = e.retry_until().unwrap_or(t).max(t);
                    reissue_at = Some(until + self.policy.backoff(st.attempts));
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        if let Some(when) = reissue_at {
            st.step_end_acc = step_end;
            sim.clear_query_tag();
            self.q.push(when, stream);
            return Ok(true);
        }
        st.io_idx = 0;
        if cpu > Cycles::ZERO {
            let r = sim.compute_parallel(self.cpu, t, cpu, dop)?;
            step_end = step_end.max(r.end);
        }
        sim.clear_query_tag();
        if splits && !st.cpu_half {
            st.cpu_half = true;
        } else {
            st.cpu_half = false;
            st.phase_idx += 1;
        }
        if st.phase_idx >= job.phases.len() {
            // Job complete.
            self.results.push(JobResult {
                stream,
                index: st.job_idx,
                start: st.job_start,
                end: step_end,
                retries: st.job_retries,
                retry_energy: st.job_retry_energy,
            });
            let (job_idx, job_start, retries) = (st.job_idx, st.job_start, st.job_retries);
            sim.tracer_mut().count("driver.jobs", 1);
            sim.tracer_mut().emit(Category::Query, || {
                TraceEvent::span(
                    TraceTime::from_nanos(job_start.as_nanos()),
                    step_end.saturating_duration_since(job_start).as_nanos(),
                    Category::Query,
                    "job",
                    Track::Stream(stream as u32),
                )
                .arg("job", job_idx as u64)
                .arg("retries", retries as u64)
            });
            self.makespan = self.makespan.max(step_end);
            st.job_idx += 1;
            st.phase_idx = 0;
            st.job_retries = 0;
            st.job_retry_energy = Joules::ZERO;
            if let Some(next) = jobs.get(st.job_idx) {
                self.q.push(step_end.max(next.arrival), stream);
            }
        } else {
            self.q.push(step_end, stream);
        }
        Ok(true)
    }

    pub(crate) fn into_outcome(self) -> DriveOutcome {
        DriveOutcome {
            results: self.results,
            makespan: self.makespan,
            total_retries: self.total_retries,
        }
    }
}

#[cfg(test)]
#[path = "../tests/common/compiled.rs"]
pub(crate) mod compiled;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{CpuPerfProfile, DiskPerfProfile, SsdPerfProfile};
    use crate::raid::RaidLevel;
    use grail_power::components::{CpuPowerProfile, DiskPowerProfile, SsdPowerProfile};
    use grail_power::units::Hertz;

    fn server(cores: u32, disks: usize) -> (Simulation, CpuId, StorageTarget) {
        let mut sim = Simulation::new();
        let cpu = sim.add_cpu(
            CpuPerfProfile {
                cores,
                freq: Hertz::ghz(1.0),
            },
            CpuPowerProfile::opteron_socket(),
        );
        let ids = sim.add_disks(
            disks,
            DiskPerfProfile::scsi_15k(),
            DiskPowerProfile::scsi_15k(),
        );
        let arr = sim.make_array(RaidLevel::Raid0, ids).unwrap();
        (sim, cpu, StorageTarget::Array(arr))
    }

    fn scan_job(target: StorageTarget, mib: u64, cpu_secs: f64) -> JobSpec {
        JobSpec::immediate(vec![PhaseSpec::overlapped(
            Cycles::new((cpu_secs * 1e9) as u64),
            1,
            vec![IoDemand::seq_read(target, Bytes::mib(mib))],
        )])
    }

    #[test]
    fn single_stream_overlap_semantics() {
        let (mut sim, cpu, target) = server(1, 1);
        // 90 MiB read ≈ 1.05 s; CPU 0.2 s → overlapped total ≈ 1.05 s.
        let out = run_streams(&mut sim, cpu, &[vec![scan_job(target, 90, 0.2)]]).unwrap();
        let t = out.makespan.as_secs_f64();
        assert!(t > 1.0 && t < 1.2, "{t}");
    }

    #[test]
    fn io_then_cpu_is_sum_not_max() {
        let (mut sim, cpu, target) = server(1, 1);
        let job = JobSpec::immediate(vec![PhaseSpec::io_then_cpu(
            Cycles::new(1_000_000_000), // 1 s at 1 GHz
            1,
            vec![IoDemand::seq_read(target, Bytes::mib(90))],
        )]);
        let out = run_streams(&mut sim, cpu, &[vec![job]]).unwrap();
        let t = out.makespan.as_secs_f64();
        assert!(t > 2.0 && t < 2.2, "{t}");
    }

    #[test]
    fn concurrent_streams_contend_for_one_disk() {
        let (mut sim, cpu, target) = server(4, 1);
        let streams: Vec<_> = (0..4).map(|_| vec![scan_job(target, 90, 0.0)]).collect();
        let out = run_streams(&mut sim, cpu, &streams).unwrap();
        // One disk serializes 4 × ~1.05 s reads.
        let t = out.makespan.as_secs_f64();
        assert!(t > 4.0, "{t}");
        assert_eq!(out.results.len(), 4);
    }

    #[test]
    fn more_disks_shorten_throughput_test() {
        let run = |n| {
            let (mut sim, cpu, target) = server(8, n);
            let streams: Vec<_> = (0..8)
                .map(|_| vec![scan_job(target, 900, 0.5), scan_job(target, 900, 0.5)])
                .collect();
            run_streams(&mut sim, cpu, &streams).unwrap().makespan
        };
        let t2 = run(2);
        let t8 = run(8);
        assert!(t8 < t2, "more spindles must finish the mix sooner");
    }

    #[test]
    fn arrivals_respected() {
        let (mut sim, cpu, target) = server(1, 1);
        let mut late = scan_job(target, 9, 0.0);
        late.arrival = SimInstant::EPOCH + SimDuration::from_secs(100);
        let out = run_streams(&mut sim, cpu, &[vec![late]]).unwrap();
        assert!(out.results[0].start >= SimInstant::EPOCH + SimDuration::from_secs(100));
    }

    #[test]
    fn stream_jobs_are_sequential() {
        let (mut sim, cpu, target) = server(4, 4);
        let out = run_streams(
            &mut sim,
            cpu,
            &[vec![scan_job(target, 90, 0.1), scan_job(target, 90, 0.1)]],
        )
        .unwrap();
        let first = out.results.iter().find(|r| r.index == 0).unwrap();
        let second = out.results.iter().find(|r| r.index == 1).unwrap();
        assert!(second.start >= first.end);
    }

    #[test]
    fn empty_and_trivial_jobs() {
        let (mut sim, cpu, _) = server(1, 1);
        let out = run_streams(&mut sim, cpu, &[vec![JobSpec::immediate(vec![])], vec![]]).unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].latency(), SimDuration::ZERO);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let (mut sim, cpu, target) = server(4, 3);
            let streams: Vec<_> = (0..5)
                .map(|i| {
                    vec![
                        scan_job(target, 50 + i * 10, 0.05 * i as f64),
                        scan_job(target, 30, 0.1),
                    ]
                })
                .collect();
            let out = run_streams(&mut sim, cpu, &streams).unwrap();
            let rep = sim.finish(out.makespan);
            (out, rep.ledger)
        };
        let (o1, l1) = run();
        let (o2, l2) = run();
        assert_eq!(o1, o2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), SimDuration::ZERO);
        assert_eq!(p.backoff(1), SimDuration::from_millis(10));
        assert_eq!(p.backoff(2), SimDuration::from_millis(20));
        assert_eq!(p.backoff(4), SimDuration::from_millis(80));
        // Deep attempts cap the exponent instead of overflowing.
        assert_eq!(p.backoff(40), p.backoff(17));
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // The worst constructible policy at the worst attempt count must
        // clamp to SimDuration::MAX, not panic or wrap.
        let p = RetryPolicy {
            max_retries: u32::MAX,
            base_backoff: SimDuration::from_secs(3600),
            multiplier: u32::MAX,
        };
        assert_eq!(p.backoff(u32::MAX), SimDuration::MAX);
        // Past the exponent cap every attempt maps to the same delay.
        assert_eq!(p.backoff(u32::MAX), p.backoff(17));
        // A sane policy stays finite and monotone at the extreme too.
        let d = RetryPolicy::default();
        assert_eq!(d.backoff(u32::MAX), d.backoff(17));
        assert!(d.backoff(u32::MAX) < SimDuration::MAX);
    }

    #[test]
    fn transient_spin_up_fault_is_retried_and_charged_to_job() {
        use crate::fault::{FaultConfig, FaultPlan};
        // A RAID-5 array with one parked member and spin_up_kill = 1:
        // the first attempt kills the member (retryable), the retry
        // serves degraded and succeeds.
        let mut sim = Simulation::new();
        let cpu = sim.add_cpu(
            CpuPerfProfile {
                cores: 4,
                freq: Hertz::ghz(1.0),
            },
            CpuPowerProfile::opteron_socket(),
        );
        let ids = sim.add_disks(5, DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k());
        let arr = sim.make_array(RaidLevel::Raid5, ids.clone()).unwrap();
        sim.set_fault_plan(FaultPlan::new(
            FaultConfig {
                spin_up_kill: 1.0,
                ..FaultConfig::NONE
            },
            1,
        ));
        sim.park_disk(ids[0], SimInstant::EPOCH).unwrap();
        let job = scan_job(StorageTarget::Array(arr), 90, 0.1);
        let out = run_streams(&mut sim, cpu, &[vec![job]]).unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].retries, 1);
        assert_eq!(out.total_retries, 1);
        // The wasted spin-up surge is attributed to the job.
        assert!(out.results[0].retry_energy.joules() >= 140.0);
        let rep = sim.finish(out.makespan);
        assert!(rep.recovery_energy().joules() >= 140.0);
        assert_eq!(rep.faults.degraded_reads, 1);
    }

    #[test]
    fn retries_exhausted_surfaces_as_error() {
        use crate::fault::{FaultConfig, FaultPlan};
        // A single parked disk with spin_up_fault = 1: every attempt
        // fails transiently and the disk never wakes.
        let mut sim = Simulation::new();
        let cpu = sim.add_cpu(
            CpuPerfProfile {
                cores: 1,
                freq: Hertz::ghz(1.0),
            },
            CpuPowerProfile::opteron_socket(),
        );
        let d = sim.add_disk(DiskPerfProfile::scsi_15k(), DiskPowerProfile::scsi_15k());
        sim.set_fault_plan(FaultPlan::new(
            FaultConfig {
                spin_up_fault: 1.0,
                ..FaultConfig::NONE
            },
            1,
        ));
        sim.park_disk(d, SimInstant::EPOCH).unwrap();
        let job = scan_job(StorageTarget::Disk(d), 9, 0.0);
        let err = run_streams_with(
            &mut sim,
            cpu,
            &[vec![job]],
            &RetryPolicy {
                max_retries: 3,
                ..RetryPolicy::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::RetriesExhausted {
                    stream: 0,
                    job: 0,
                    attempts: 4
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn faulty_run_results_match_fault_free_job_set() {
        use crate::fault::{FaultConfig, FaultPlan};
        // Retry/backoff must never lose or duplicate a job: same job set,
        // with and without faults, completes the same (stream, index) set.
        let build = || {
            let (sim, cpu, target) = server(4, 5);
            let streams: Vec<_> = (0..4)
                .map(|i| {
                    vec![
                        scan_job(target, 50 + i * 10, 0.05),
                        scan_job(target, 30, 0.02),
                    ]
                })
                .collect();
            (sim, cpu, streams)
        };
        let (mut clean_sim, cpu, streams) = build();
        let clean = run_streams(&mut clean_sim, cpu, &streams).unwrap();
        let (mut faulty_sim, cpu, streams) = build();
        faulty_sim.set_fault_plan(FaultPlan::new(
            FaultConfig {
                transient_per_io: 0.2,
                latent_per_read: 0.1,
                ..FaultConfig::NONE
            },
            77,
        ));
        let faulty = run_streams_with(
            &mut faulty_sim,
            cpu,
            &streams,
            &RetryPolicy {
                max_retries: 64,
                ..RetryPolicy::default()
            },
        )
        .unwrap();
        let key = |o: &DriveOutcome| {
            let mut v: Vec<_> = o.results.iter().map(|r| (r.stream, r.index)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(&clean), key(&faulty));
        assert!(faulty.makespan >= clean.makespan);
    }

    #[test]
    fn traced_run_emits_job_spans_and_attribution() {
        use grail_trace::{Recorder, Tracer};
        let (mut sim, cpu, target) = server(4, 3);
        sim.set_tracer(Tracer::on(Recorder::new(8192)));
        sim.enable_attribution();
        let streams: Vec<_> = (0..2)
            .map(|_| vec![scan_job(target, 50, 0.05), scan_job(target, 30, 0.02)])
            .collect();
        let out = run_streams(&mut sim, cpu, &streams).unwrap();
        let rep = sim.finish(out.makespan);
        let rec = rep.trace.as_ref().unwrap();
        assert_eq!(rec.dropped(), 0, "ring overflowed");
        assert_eq!(rec.metrics().counter("trace.dropped"), 0);
        let jobs = rec.events().filter(|e| e.name == "job").count();
        assert_eq!(jobs, out.results.len());
        assert_eq!(rec.metrics().counter("driver.jobs"), 4);
        assert!(rec.metrics().histogram("driver.queue_depth").is_some());
        let table = rep.attribution.as_ref().unwrap();
        // One row per (stream, index) plus the residual.
        assert_eq!(table.rows.len(), 5);
        let total = rep.ledger.total().joules();
        assert!((table.sum().joules() - total).abs() <= 1e-9_f64.max(total * 1e-9));
        for r in &out.results {
            let row = table.query(r.stream as u32, r.index as u32).unwrap();
            assert!(row.energy.joules() > 0.0, "{}", row.label());
        }
    }

    #[test]
    fn ssd_targets_work_too() {
        let mut sim = Simulation::new();
        let cpu = sim.add_cpu(CpuPerfProfile::fig2_single(), CpuPowerProfile::fig2_cpu());
        let ssd = sim.add_ssd(SsdPerfProfile::fig2_flash(), SsdPowerProfile::fig2_flash());
        let job = scan_job(StorageTarget::Ssd(ssd), 200, 0.1);
        let out = run_streams(&mut sim, cpu, &[vec![job]]).unwrap();
        assert!(out.makespan.as_secs_f64() > 1.0);
    }
}
