//! Multi-stream mixes and arrival processes.
//!
//! The Fig. 1 throughput test is *closed*: each of S streams issues its
//! next query the moment the previous one finishes. The consolidation
//! experiments (Sec. 4.2) need *open* arrivals with real idle gaps —
//! Poisson by default. Demand scaling lets toy-scale measured tallies
//! stand in for 300 GB-scale queries: operator demands are linear in
//! input size (n·log n for sort, handled by the caller's factor).

use grail_power::units::{Bytes, Cycles, SimDuration, SimInstant};
use grail_query::exec::Tally;
use grail_sim::driver::{IoDemand, JobSpec, PhaseSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Scale a measured tally's demands by `factor` (queries at N× the data
/// touch N× the bytes and N× the values).
pub fn scale_tally(t: &Tally, factor: f64) -> Tally {
    Tally {
        cpu: Cycles::new((t.cpu.get() as f64 * factor).round() as u64),
        reads: t
            .reads
            .iter()
            .map(|r| grail_query::exec::ReadDemand {
                target: r.target,
                bytes: Bytes::new((r.bytes.get() as f64 * factor).round() as u64),
                access: r.access,
                op: r.op,
            })
            .collect(),
    }
}

/// Build a simulator job from (possibly scaled) tallies, overlapping
/// CPU and IO within each phase and splitting CPU over `dop` cores.
pub fn job_from_tallies(tallies: &[Tally], dop: u32) -> JobSpec {
    JobSpec::immediate(
        tallies
            .iter()
            .map(|t| PhaseSpec {
                cpu: t.cpu,
                dop,
                io: t
                    .reads
                    .iter()
                    .map(|r| IoDemand {
                        target: r.target,
                        bytes: r.bytes,
                        access: r.access,
                        op: r.op,
                    })
                    .collect(),
                overlap: true,
            })
            .collect(),
    )
}

/// A closed throughput-test mix: `streams` streams, each running
/// `queries_per_stream` jobs round-robin over the prototypes, with each
/// stream starting at a different offset (as TPC-H's throughput test
/// prescribes).
pub fn closed_mix(
    prototypes: &[JobSpec],
    streams: usize,
    queries_per_stream: usize,
) -> Vec<Vec<JobSpec>> {
    (0..streams)
        .map(|s| {
            (0..queries_per_stream)
                .map(|q| prototypes[(s + q) % prototypes.len()].clone())
                .collect()
        })
        .collect()
}

/// Deterministic Poisson arrivals: `n` arrival instants at `rate_hz`
/// mean rate from `seed`.
pub fn poisson_arrivals(rate_hz: f64, n: usize, seed: u64) -> Vec<SimInstant> {
    assert!(rate_hz > 0.0, "rate must be positive");
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let u: f64 = rng.random_range(f64::EPSILON..1.0);
        t += -u.ln() / rate_hz;
        out.push(SimInstant::from_secs_f64(t));
    }
    out
}

/// The idle gaps between consecutive arrivals (for governor reasoning).
pub fn arrival_gaps(arrivals: &[SimInstant]) -> Vec<SimDuration> {
    arrivals
        .windows(2)
        .map(|w| w[1].saturating_duration_since(w[0]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grail_query::exec::ReadDemand;
    use grail_sim::driver::IoOp;
    use grail_sim::perf::AccessPattern;
    use grail_sim::{DiskId, StorageTarget};

    fn tally(cpu: u64, bytes: u64) -> Tally {
        Tally {
            cpu: Cycles::new(cpu),
            reads: vec![ReadDemand {
                target: StorageTarget::Disk(DiskId(0)),
                bytes: Bytes::new(bytes),
                access: AccessPattern::Sequential,
                op: IoOp::Read,
            }],
        }
    }

    #[test]
    fn scaling_is_linear() {
        let t = scale_tally(&tally(1000, 4096), 30.0);
        assert_eq!(t.cpu, Cycles::new(30_000));
        assert_eq!(t.reads[0].bytes, Bytes::new(122_880));
    }

    #[test]
    fn job_structure_preserved() {
        let job = job_from_tallies(&[tally(10, 100), tally(20, 0)], 4);
        assert_eq!(job.phases.len(), 2);
        assert_eq!(job.phases[0].dop, 4);
        assert_eq!(job.phases[1].cpu, Cycles::new(20));
    }

    #[test]
    fn closed_mix_round_robins_with_offset() {
        let protos: Vec<JobSpec> = (0..3)
            .map(|i| job_from_tallies(&[tally(i + 1, 0)], 1))
            .collect();
        let mix = closed_mix(&protos, 2, 4);
        assert_eq!(mix.len(), 2);
        assert_eq!(mix[0].len(), 4);
        // Stream 0 starts at proto 0; stream 1 at proto 1.
        assert_eq!(mix[0][0].phases[0].cpu, Cycles::new(1));
        assert_eq!(mix[1][0].phases[0].cpu, Cycles::new(2));
        assert_eq!(mix[1][2].phases[0].cpu, Cycles::new(1));
    }

    #[test]
    fn poisson_is_deterministic_and_mean_close() {
        let a = poisson_arrivals(2.0, 4000, 9);
        let b = poisson_arrivals(2.0, 4000, 9);
        assert_eq!(a, b);
        let span = a.last().unwrap().as_secs_f64();
        let rate = 4000.0 / span;
        assert!((rate - 2.0).abs() < 0.2, "empirical rate {rate}");
        // Strictly increasing.
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn arrival_gaps_sit_between_arrivals() {
        let arrivals = poisson_arrivals(1.0, 10, 3);
        assert_eq!(arrival_gaps(&arrivals).len(), 9);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn zero_rate_rejected() {
        let _ = poisson_arrivals(0.0, 1, 0);
    }
}
