//! The stream driver as it was before it ran `JobSpec`s in place, kept
//! as the oracle the in-place `StreamEngine` is checked against: every
//! job is compiled into a `Vec<Step>` up front, each step owning a clone
//! of its phase's IO demands, and `step` clones the step it runs.
//! Included by `driver.rs` under `cfg(test)`.

use super::{DriveOutcome, IoDemand, IoOp, JobResult, JobSpec, RetryPolicy};
use crate::error::SimError;
use crate::event::EventQueue;
use crate::ids::CpuId;
use crate::sim::Simulation;
use grail_metrics::registry::COUNT_BUCKETS;
use grail_power::units::{Cycles, Joules, SimInstant};
use grail_trace::{Category, TraceEvent, TraceTime, Track};

/// An executable step (phases are pre-split so every issue happens at a
/// queue pop, keeping device issue times globally nondecreasing).
#[derive(Debug, Clone)]
struct Step {
    cpu: Cycles,
    dop: u32,
    io: Vec<IoDemand>,
}

#[derive(Debug)]
struct StreamState {
    jobs: Vec<Vec<Step>>,
    arrivals: Vec<SimInstant>,
    job_idx: usize,
    step_idx: usize,
    job_start: SimInstant,
    io_idx: usize,
    step_end_acc: SimInstant,
    attempts: u32,
    job_retries: u32,
    job_retry_energy: Joules,
}

fn compile(job: &JobSpec) -> Vec<Step> {
    let mut steps = Vec::with_capacity(job.phases.len() * 2);
    for p in &job.phases {
        if p.overlap || p.io.is_empty() || p.cpu == Cycles::ZERO {
            steps.push(Step {
                cpu: p.cpu,
                dop: p.dop,
                io: p.io.clone(),
            });
        } else {
            steps.push(Step {
                cpu: Cycles::ZERO,
                dop: 1,
                io: p.io.clone(),
            });
            steps.push(Step {
                cpu: p.cpu,
                dop: p.dop,
                io: Vec::new(),
            });
        }
    }
    steps
}

/// `run_streams_with` on the compiling engine.
pub(crate) fn run_streams_compiled(
    sim: &mut Simulation,
    cpu: CpuId,
    streams: &[Vec<JobSpec>],
    policy: &RetryPolicy,
) -> Result<DriveOutcome, SimError> {
    let mut engine = CompiledEngine::new(cpu, streams, *policy);
    while engine.step(sim)? {}
    Ok(engine.into_outcome())
}

/// The compiling engine: the same `new` / `next_at` / `step` /
/// `into_outcome` surface as `StreamEngine`.
pub(crate) struct CompiledEngine {
    states: Vec<StreamState>,
    q: EventQueue<usize>,
    cpu: CpuId,
    policy: RetryPolicy,
    results: Vec<JobResult>,
    makespan: SimInstant,
    total_retries: u64,
}

impl CompiledEngine {
    pub(crate) fn new(cpu: CpuId, streams: &[Vec<JobSpec>], policy: RetryPolicy) -> Self {
        let states: Vec<StreamState> = streams
            .iter()
            .map(|jobs| StreamState {
                jobs: jobs.iter().map(compile).collect(),
                arrivals: jobs.iter().map(|j| j.arrival).collect(),
                job_idx: 0,
                step_idx: 0,
                job_start: SimInstant::EPOCH,
                io_idx: 0,
                step_end_acc: SimInstant::EPOCH,
                attempts: 0,
                job_retries: 0,
                job_retry_energy: Joules::ZERO,
            })
            .collect();
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, st) in states.iter().enumerate() {
            if !st.jobs.is_empty() {
                q.push(st.arrivals[0], i);
            }
        }
        CompiledEngine {
            states,
            q,
            cpu,
            policy,
            results: Vec::new(),
            makespan: SimInstant::EPOCH,
            total_retries: 0,
        }
    }

    pub(crate) fn next_at(&self) -> Option<SimInstant> {
        self.q.peek_time()
    }

    pub(crate) fn step(&mut self, sim: &mut Simulation) -> Result<bool, SimError> {
        let Some((t, stream)) = self.q.pop() else {
            return Ok(false);
        };
        sim.tracer_mut().advance_time(t.as_nanos());
        sim.tracer_mut()
            .observe("driver.queue_depth", COUNT_BUCKETS, self.q.len() as f64);
        let st = &mut self.states[stream];
        if st.step_idx == 0 && st.io_idx == 0 && st.attempts == 0 {
            st.job_start = t;
        }
        while st.job_idx < st.jobs.len() && st.jobs[st.job_idx].is_empty() {
            self.results.push(JobResult {
                stream,
                index: st.job_idx,
                start: t,
                end: t,
                retries: 0,
                retry_energy: Joules::ZERO,
            });
            st.job_idx += 1;
            st.step_idx = 0;
            st.job_start = t;
        }
        if st.job_idx >= st.jobs.len() {
            return Ok(true);
        }
        let step = st.jobs[st.job_idx][st.step_idx].clone();
        if st.io_idx == 0 && st.attempts == 0 {
            st.step_end_acc = t;
        }
        let mut step_end = st.step_end_acc.max(t);
        sim.set_query_tag(stream as u32, st.job_idx as u32);
        let mut reissue_at: Option<SimInstant> = None;
        while st.io_idx < step.io.len() {
            let d = &step.io[st.io_idx];
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
        if step.cpu > Cycles::ZERO {
            let r = sim.compute_parallel(self.cpu, t, step.cpu, step.dop)?;
            step_end = step_end.max(r.end);
        }
        sim.clear_query_tag();
        st.step_idx += 1;
        if st.step_idx >= st.jobs[st.job_idx].len() {
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
            st.step_idx = 0;
            st.job_retries = 0;
            st.job_retry_energy = Joules::ZERO;
            if st.job_idx < st.jobs.len() {
                let next = step_end.max(st.arrivals[st.job_idx]);
                self.q.push(next, stream);
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
