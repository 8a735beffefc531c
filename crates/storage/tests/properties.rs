//! Property-based tests: every codec round-trips on arbitrary inputs,
//! and repartitioning cost is bounded.

use grail_prop::{check, Gen};
use grail_storage::column::ColumnSegment;
use grail_storage::compress::{self, choose_encoding, Encoding};
use grail_storage::partition::Partitioning;

/// The case count these properties have always run at.
const CASES: u32 = 256;

/// A column in one of four shapes, each favouring a different codec.
fn any_i64s(g: &mut Gen) -> Vec<i64> {
    match g.below(4) {
        // Fully arbitrary.
        0 => g.vec(0..500, |g| g.word() as i64),
        // Runs (RLE-friendly).
        1 => g
            .vec(0..40, |g| (g.word() as i64, g.range(1usize..30)))
            .into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect(),
        // Low cardinality (dict-friendly).
        2 => g.vec(0..500, |g| g.range(0i64..8)),
        // Near-sorted (delta-friendly).
        _ => {
            let mut v = g.vec(0..500, |g| g.range(0i64..1000));
            v.sort_unstable();
            v
        }
    }
}

/// Every encoding round-trips every input.
#[test]
fn integer_codecs_round_trip() {
    check(CASES, |g| {
        let vals = any_i64s(g);
        for enc in Encoding::ALL {
            let bytes = compress::encode(&vals, enc);
            let back = compress::decode(&bytes, enc).expect("decode own encoding");
            assert_eq!(back, vals, "{}", enc.name());
        }
    });
}

/// The chooser's pick round-trips and never errors.
#[test]
fn chooser_is_safe() {
    check(CASES, |g| {
        let vals = any_i64s(g);
        let enc = choose_encoding(&vals);
        let seg = ColumnSegment::encode(&vals, enc);
        assert_eq!(*seg.decode().expect("chosen codec decodes"), vals);
    });
}

/// Repartitioning cost is symmetric in width and bounded by table
/// size.
#[test]
fn repartition_cost_bounded() {
    check(CASES, |g| {
        let (w1, w2) = (g.range(1u32..300), g.range(1u32..300));
        let bytes = g.range(0u64..10_000_000);
        let a = Partitioning::even(w1, bytes).unwrap();
        let b = Partitioning::even(w2, bytes).unwrap();
        let ab = a.repartition_bytes(&b);
        let ba = b.repartition_bytes(&a);
        assert_eq!(ab, ba);
        assert!(ab <= bytes);
    });
}

mod wal {
    use super::CASES;
    use grail_power::units::{Bytes, SimDuration, SimInstant};
    use grail_prop::check;
    use grail_storage::wal::{schedule, FlushPolicy, FORCE_OVERHEAD};

    /// WAL invariants under arbitrary commit streams and policies:
    /// every commit acked exactly once, never before arrival, never
    /// later than arrival + max_wait; forces time-ordered; record
    /// bytes conserved.
    #[test]
    fn wal_schedule_invariants() {
        check(CASES, |g| {
            let (batch, wait_ms) = (g.range(1u32..64), g.range(1u64..200));
            let gaps_us = g.vec(0..200, |g| g.range(0u64..200_000));
            let mut t = 0u64;
            let commits: Vec<(SimInstant, Bytes)> = gaps_us
                .iter()
                .map(|gap| {
                    t += gap;
                    (
                        SimInstant::EPOCH + SimDuration::from_micros(t),
                        Bytes::new(100),
                    )
                })
                .collect();
            let max_wait = SimDuration::from_millis(wait_ms);
            for policy in [
                FlushPolicy::PerCommit,
                FlushPolicy::GroupCommit {
                    max_batch: batch,
                    max_wait,
                },
            ] {
                let plan = schedule(&commits, policy);
                assert_eq!(plan.ack_times.len(), commits.len());
                let covered: u32 = plan.forces.iter().map(|f| f.commits).sum();
                assert_eq!(covered as usize, commits.len());
                for (ack, (arrive, _)) in plan.ack_times.iter().zip(&commits) {
                    assert!(ack >= arrive);
                    assert!(
                        ack.saturating_duration_since(*arrive) <= max_wait
                            || matches!(policy, FlushPolicy::PerCommit)
                    );
                }
                assert!(plan.forces.windows(2).all(|w| w[0].at <= w[1].at));
                // Record bytes conserved: total = records + overhead/force.
                let records: u64 = commits.iter().map(|(_, b)| b.get()).sum();
                let expect = records + plan.forces.len() as u64 * FORCE_OVERHEAD.get();
                assert_eq!(plan.total_bytes().get(), expect);
            }
        });
    }
}
