//! Property-based tests: every codec round-trips on arbitrary inputs,
//! and partition math conserves bytes.

use grail_storage::column::ColumnSegment;
use grail_storage::compress::{self, choose_encoding, Encoding};
use grail_storage::partition::{PartitionKind, Partitioning};
use proptest::prelude::*;

fn any_i64s() -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        // Fully arbitrary.
        proptest::collection::vec(any::<i64>(), 0..500),
        // Runs (RLE-friendly).
        proptest::collection::vec((any::<i64>(), 1usize..30), 0..40).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(v, n)| std::iter::repeat_n(v, n))
                .collect()
        }),
        // Low cardinality (dict-friendly).
        proptest::collection::vec(0i64..8, 0..500),
        // Near-sorted (delta-friendly).
        proptest::collection::vec(0i64..1000, 0..500).prop_map(|mut v| {
            v.sort_unstable();
            v
        }),
    ]
}

proptest! {
    /// Every encoding round-trips every input.
    #[test]
    fn integer_codecs_round_trip(vals in any_i64s()) {
        for enc in Encoding::ALL {
            let bytes = compress::encode(&vals, enc);
            let back = compress::decode(&bytes, enc).expect("decode own encoding");
            prop_assert_eq!(&back, &vals, "{}", enc.name());
        }
    }

    /// The chooser's pick round-trips and never errors.
    #[test]
    fn chooser_is_safe(vals in any_i64s()) {
        let enc = choose_encoding(&vals);
        let seg = ColumnSegment::encode(&vals, enc);
        prop_assert_eq!(&*seg.decode().expect("chosen codec decodes"), &vals);
    }

    /// Partition byte shares always conserve the table total, and every
    /// key maps to a declared slot.
    #[test]
    fn partitioning_conserves_bytes(disks in 1u32..256, bytes in 0u64..1_000_000_000, keys in proptest::collection::vec(any::<i64>(), 0..100)) {
        let p = Partitioning::even(PartitionKind::Hash, disks, bytes).unwrap();
        let total: u64 = p.bytes_per_slot().iter().map(|(_, b)| b).sum();
        prop_assert_eq!(total, bytes);
        for k in keys {
            prop_assert!(p.slots.contains(&p.slot_for_key(k)));
        }
    }

    /// Repartitioning cost is symmetric in width and bounded by table
    /// size.
    #[test]
    fn repartition_cost_bounded(w1 in 1u32..300, w2 in 1u32..300, bytes in 0u64..10_000_000) {
        let a = Partitioning::even(PartitionKind::Hash, w1, bytes).unwrap();
        let b = Partitioning::even(PartitionKind::Hash, w2, bytes).unwrap();
        let ab = a.repartition_bytes(&b);
        let ba = b.repartition_bytes(&a);
        prop_assert_eq!(ab, ba);
        prop_assert!(ab <= bytes);
    }
}

mod wal_and_btree {
    use grail_power::units::{Bytes, SimDuration, SimInstant};
    use grail_storage::btree::BTreeIndex;
    use grail_storage::wal::{schedule, FlushPolicy, FORCE_OVERHEAD};
    use proptest::prelude::*;

    proptest! {
        /// WAL invariants under arbitrary commit streams and policies:
        /// every commit acked exactly once, never before arrival, never
        /// later than arrival + max_wait; forces time-ordered; record
        /// bytes conserved.
        #[test]
        fn wal_schedule_invariants(
            gaps_us in proptest::collection::vec(0u64..200_000, 0..200),
            batch in 1u32..64,
            wait_ms in 1u64..200,
        ) {
            let mut t = 0u64;
            let commits: Vec<(SimInstant, Bytes)> = gaps_us
                .iter()
                .map(|g| {
                    t += g;
                    (SimInstant::EPOCH + SimDuration::from_micros(t), Bytes::new(100))
                })
                .collect();
            let max_wait = SimDuration::from_millis(wait_ms);
            for policy in [
                FlushPolicy::PerCommit,
                FlushPolicy::GroupCommit { max_batch: batch, max_wait },
            ] {
                let plan = schedule(&commits, policy);
                prop_assert_eq!(plan.ack_times.len(), commits.len());
                let covered: u32 = plan.forces.iter().map(|f| f.commits).sum();
                prop_assert_eq!(covered as usize, commits.len());
                for (ack, (arrive, _)) in plan.ack_times.iter().zip(&commits) {
                    prop_assert!(ack >= arrive);
                    prop_assert!(
                        ack.saturating_duration_since(*arrive) <= max_wait
                            || matches!(policy, FlushPolicy::PerCommit)
                    );
                }
                prop_assert!(plan.forces.windows(2).all(|w| w[0].at <= w[1].at));
                // Record bytes conserved: total = records + overhead/force.
                let records: u64 = commits.iter().map(|(_, b)| b.get()).sum();
                let expect = records + plan.forces.len() as u64 * FORCE_OVERHEAD.get();
                prop_assert_eq!(plan.total_bytes().get(), expect);
            }
        }

        /// B+tree lookups and ranges agree with binary search on the raw
        /// sorted array, for arbitrary multisets.
        #[test]
        fn btree_matches_reference(mut keys in proptest::collection::vec(-1000i64..1000, 0..3000), probe in -1100i64..1100, lo in -1100i64..1100, width in 0i64..500) {
            keys.sort_unstable();
            let idx = BTreeIndex::build(keys.clone());
            prop_assert_eq!(idx.len(), keys.len());
            // Point lookup = first position of the key.
            let expect = keys.iter().position(|k| *k == probe);
            prop_assert_eq!(idx.lookup(probe), expect);
            // Range = partition points.
            let hi = lo + width;
            let (s, e) = idx.range(lo, hi);
            let rs = keys.partition_point(|k| *k < lo);
            let re = keys.partition_point(|k| *k <= hi);
            prop_assert_eq!((s, e), (rs, re.max(rs)));
            // Page accounting sanity.
            if !keys.is_empty() {
                prop_assert!(idx.height() >= 2);
                prop_assert!(idx.range_pages(e - s) >= idx.height());
            }
        }
    }
}
