//! Property tests: pool capacity/pin invariants hold under arbitrary
//! traces, for every policy, and the indexed policies choose the
//! victims their whole-map scans chose.

use grail_buffer::policy::{PolicyKind, ReplacementPolicy, Touch};
use grail_buffer::pool::{Access, BufferPool, EnergyModel};
use grail_power::units::{Joules, SimDuration, SimInstant, Watts};
use grail_storage::page::PageId;
use proptest::prelude::*;

#[path = "common/reference.rs"]
mod reference;
use reference::{replay, scanning, Step};

fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Lru,
        PolicyKind::Clock,
        PolicyKind::TwoQ,
        PolicyKind::EnergyAware {
            residency_watts_per_page: Watts::new(0.001),
        },
    ]
}

fn model() -> EnergyModel {
    EnergyModel {
        residency_watts_per_page: Watts::new(0.001),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Occupancy never exceeds capacity; hits+misses+bypasses equals the
    /// trace length; evictions ≤ misses.
    #[test]
    fn pool_invariants(
        cap in 1usize..32,
        trace in proptest::collection::vec(0u32..64, 1..300),
    ) {
        for kind in policies() {
            let mut pool = BufferPool::new(cap, kind, model());
            for (i, p) in trace.iter().enumerate() {
                let now = SimInstant::EPOCH + SimDuration::from_millis(i as u64);
                pool.access(PageId::new(0, *p), now, Joules::new(0.5));
                prop_assert!(pool.occupancy() <= cap, "{}", pool.policy_name());
            }
            let name = pool.policy_name();
            let s = pool.stats();
            prop_assert_eq!(
                s.hits + s.misses + s.bypasses,
                trace.len() as u64,
                "{}", name
            );
            prop_assert!(s.evictions <= s.misses, "{}", name);
        }
    }

    /// A page accessed twice in a row is always a hit the second time
    /// (no policy evicts the page it just admitted when capacity ≥ 1 and
    /// nothing else intervenes).
    #[test]
    fn immediate_reaccess_hits(cap in 1usize..8, page in 0u32..16) {
        for kind in policies() {
            let mut pool = BufferPool::new(cap, kind, model());
            pool.access(PageId::new(0, page), SimInstant::EPOCH, Joules::ZERO);
            let a = pool.access(
                PageId::new(0, page),
                SimInstant::EPOCH + SimDuration::from_millis(1),
                Joules::ZERO,
            );
            prop_assert_eq!(a, Access::Hit, "{}", pool.policy_name());
        }
    }

    /// Pinned pages survive arbitrary pressure.
    #[test]
    fn pins_always_respected(
        cap in 2usize..16,
        trace in proptest::collection::vec(1u32..64, 1..200),
    ) {
        for kind in policies() {
            let mut pool = BufferPool::new(cap, kind, model());
            let hot = PageId::new(9, 0);
            pool.access(hot, SimInstant::EPOCH, Joules::ZERO);
            prop_assert!(pool.pin(hot));
            for (i, p) in trace.iter().enumerate() {
                let now = SimInstant::EPOCH + SimDuration::from_millis(1 + i as u64);
                pool.access(PageId::new(0, *p), now, Joules::ZERO);
                prop_assert!(pool.contains(hot), "{}", pool.policy_name());
            }
        }
    }

    /// Determinism: two identical runs evict identical page sequences,
    /// for every policy. This is what the BTreeMap conversion buys — a
    /// hash-ordered victim scan would make eviction (and thus refetch
    /// energy) vary run to run.
    #[test]
    fn identical_runs_evict_identical_sequences(
        cap in 1usize..16,
        trace in proptest::collection::vec((0u32..64, 0.0f64..4.0), 1..300),
    ) {
        for kind in policies() {
            let run = || {
                let mut pool = BufferPool::new(cap, kind, model());
                let mut evicted = Vec::new();
                for (i, (p, cost)) in trace.iter().enumerate() {
                    let now = SimInstant::EPOCH + SimDuration::from_millis(i as u64);
                    if let Access::Miss { evicted: Some(v) } =
                        pool.access(PageId::new(0, *p), now, Joules::new(*cost))
                    {
                        evicted.push(v);
                    }
                }
                (evicted, pool.stats())
            };
            let (seq_a, stats_a) = run();
            let (seq_b, stats_b) = run();
            prop_assert_eq!(&seq_a, &seq_b, "eviction order diverged under {:?}", kind);
            prop_assert_eq!(stats_a, stats_b);
        }
    }

    /// Energy accounting: residency equals occupancy-integral; refetch
    /// equals misses × cost, for a constant-cost trace.
    #[test]
    fn energy_accounting_exact(trace in proptest::collection::vec(0u32..8, 1..100)) {
        let cost = 2.0;
        let mut pool = BufferPool::new(4, PolicyKind::Lru, model());
        let mut expected_residency = 0.0;
        let mut prev_occ = 0usize;
        for (i, p) in trace.iter().enumerate() {
            let now = SimInstant::EPOCH + SimDuration::from_secs(i as u64);
            if i > 0 {
                expected_residency += prev_occ as f64 * 0.001;
            }
            pool.access(PageId::new(0, *p), now, Joules::new(cost));
            prev_occ = pool.occupancy();
        }
        let s = pool.stats();
        prop_assert!((s.refetch_energy.joules() - s.misses as f64 * cost).abs() < 1e-9);
        prop_assert!(
            (s.residency_energy.joules() - expected_residency).abs() < 1e-9,
            "got {} expected {}", s.residency_energy.joules(), expected_residency
        );
    }

    /// Same victims as the whole-map scans (`common/reference.rs`), on
    /// traces with pins, repeated and backward timestamps, waits that
    /// cross a gap EMA, re-fetch costs redrawn on every touch, and a
    /// residency of 0 (all wastes of a cost tie) or 1e-9 W (nanoseconds
    /// apart round to one waste). `policy.rs`'s unit tests carry the
    /// twin of this that needs no proptest.
    #[test]
    fn indexed_victims_match_the_scanning_oracles(
        cap in 1usize..12,
        residency in 0usize..3,
        trace in proptest::collection::vec((0u32..40, 0usize..4, 0usize..5, 0u8..12), 1..300),
    ) {
        const GAPS_NS: [u64; 4] = [0, 1, 5_000_000, 1_000_000_000];
        const COSTS: [f64; 5] = [0.0, 0.05, 0.05, 2.0, 7.5];
        let residency = Watts::new([0.0, 1e-9, 0.0005][residency]);
        let mut now = 0;
        let steps: Vec<Step> = trace
            .iter()
            .map(|&(page, gap, cost, action)| {
                let page = PageId::new(0, page);
                match action {
                    0 => Step::Pin(page),
                    1 | 2 => Step::Unpin(page),
                    _ => {
                        now += GAPS_NS[gap];
                        let back = if action == 3 { GAPS_NS[2] } else { 0 };
                        Step::Access(Touch {
                            page,
                            now: SimInstant::from_nanos(now.saturating_sub(back)),
                            refetch: Joules::new(COSTS[cost]),
                        })
                    }
                }
            })
            .collect();
        for kind in [
            PolicyKind::Lru,
            PolicyKind::TwoQ,
            PolicyKind::EnergyAware { residency_watts_per_page: residency },
        ] {
            prop_assert_eq!(
                replay(kind.build().as_mut(), cap, &steps),
                replay(scanning(kind).as_mut(), cap, &steps),
                "{:?}", kind
            );
        }
    }
}
