//! Property tests: pool capacity/pin invariants hold under arbitrary
//! traces, for every policy, and the slot-indexed policies choose the
//! victims their scanning twins chose.

use grail_buffer::policy::{PolicyKind, ReplacementPolicy, Touch};
use grail_buffer::pool::{Access, BufferPool, EnergyModel};
use grail_power::units::{Joules, SimDuration, SimInstant, Watts};
use grail_prop::check;
use grail_storage::page::PageId;

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

/// Occupancy never exceeds capacity; hits+misses+bypasses equals the
/// trace length; evictions ≤ misses.
#[test]
fn pool_invariants() {
    check(64, |g| {
        let cap = g.range(1usize..32);
        let trace = g.vec(1..300, |g| g.range(0u32..64));
        for kind in policies() {
            let mut pool = BufferPool::new(cap, kind, model());
            for (i, p) in trace.iter().enumerate() {
                let now = SimInstant::EPOCH + SimDuration::from_millis(i as u64);
                pool.access(PageId::new(0, *p), now, Joules::new(0.5));
                assert!(pool.occupancy() <= cap, "{}", pool.policy_name());
            }
            let name = pool.policy_name();
            let s = pool.stats();
            assert_eq!(s.hits + s.misses + s.bypasses, trace.len() as u64, "{name}");
            assert!(s.evictions <= s.misses, "{name}");
        }
    });
}

/// A page accessed twice in a row is always a hit the second time
/// (no policy evicts the page it just admitted when capacity ≥ 1 and
/// nothing else intervenes).
#[test]
fn immediate_reaccess_hits() {
    check(64, |g| {
        let (cap, page) = (g.range(1usize..8), g.range(0u32..16));
        for kind in policies() {
            let mut pool = BufferPool::new(cap, kind, model());
            pool.access(PageId::new(0, page), SimInstant::EPOCH, Joules::ZERO);
            let a = pool.access(
                PageId::new(0, page),
                SimInstant::EPOCH + SimDuration::from_millis(1),
                Joules::ZERO,
            );
            assert_eq!(a, Access::Hit, "{}", pool.policy_name());
        }
    });
}

/// Pinned pages survive arbitrary pressure.
#[test]
fn pins_always_respected() {
    check(64, |g| {
        let cap = g.range(2usize..16);
        let trace = g.vec(1..200, |g| g.range(1u32..64));
        for kind in policies() {
            let mut pool = BufferPool::new(cap, kind, model());
            let hot = PageId::new(9, 0);
            pool.access(hot, SimInstant::EPOCH, Joules::ZERO);
            assert!(pool.pin(hot));
            for (i, p) in trace.iter().enumerate() {
                let now = SimInstant::EPOCH + SimDuration::from_millis(1 + i as u64);
                pool.access(PageId::new(0, *p), now, Joules::ZERO);
                assert!(pool.contains(hot), "{}", pool.policy_name());
            }
        }
    });
}

/// Determinism: two identical runs evict identical page sequences,
/// for every policy. This is what the BTreeMap conversion buys — a
/// hash-ordered victim scan would make eviction (and thus refetch
/// energy) vary run to run.
#[test]
fn identical_runs_evict_identical_sequences() {
    check(64, |g| {
        let cap = g.range(1usize..16);
        let trace = g.vec(1..300, |g| (g.range(0u32..64), g.range(0.0f64..4.0)));
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
            assert_eq!(seq_a, seq_b, "eviction order diverged under {kind:?}");
            assert_eq!(stats_a, stats_b);
        }
    });
}

/// Energy accounting: residency equals occupancy-integral; refetch
/// equals misses × cost, for a constant-cost trace.
#[test]
fn energy_accounting_exact() {
    check(64, |g| {
        let trace = g.vec(1..100, |g| g.range(0u32..8));
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
        assert!((s.refetch_energy.joules() - s.misses as f64 * cost).abs() < 1e-9);
        assert!(
            (s.residency_energy.joules() - expected_residency).abs() < 1e-9,
            "got {} expected {}",
            s.residency_energy.joules(),
            expected_residency
        );
    });
}

/// Same victims as the scanning twins (`common/reference.rs`), on
/// traces with pins, repeated and backward timestamps, waits that
/// cross a gap EMA, re-fetch costs redrawn on every touch, and a
/// residency of 0 (all wastes of a cost tie) or 1e-9 W (nanoseconds
/// apart round to one waste). Page ids spread over files 0–3, some at
/// an index near `u32::MAX`, so the pool's page map hashes far-apart
/// ids and id order is not arrival order. `policy.rs`'s unit tests carry a
/// hand-seeded twin of this over more shapes.
#[test]
fn indexed_victims_match_the_scanning_oracles() {
    const GAPS_NS: [u64; 4] = [0, 1, 5_000_000, 1_000_000_000];
    const COSTS: [f64; 5] = [0.0, 0.05, 0.05, 2.0, 7.5];
    check(64, |g| {
        let cap = g.range(1usize..12);
        let residency = Watts::new(g.pick(&[0.0, 1e-9, 0.0005]));
        let ids: Vec<PageId> = (0..40)
            .map(|k| {
                let index = if g.one_in(4) { u32::MAX - k } else { k };
                PageId::new(g.range(0u32..4), index)
            })
            .collect();
        let trace = g.vec(1..300, |g| {
            (
                g.range(0..ids.len()),
                g.range(0..GAPS_NS.len()),
                g.range(0..COSTS.len()),
                g.range(0u8..12),
            )
        });
        let mut now = 0;
        let steps: Vec<Step> = trace
            .iter()
            .map(|&(page, gap, cost, action)| {
                let page = ids[page];
                match action {
                    0 => Step::Pin(page),
                    1 | 2 => Step::Unpin(page),
                    _ => {
                        now += GAPS_NS[gap];
                        let back = if action == 3 { GAPS_NS[2] } else { 0 };
                        Step::Access {
                            page,
                            now: SimInstant::from_nanos(now.saturating_sub(back)),
                            refetch: Joules::new(COSTS[cost]),
                        }
                    }
                }
            })
            .collect();
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Clock,
            PolicyKind::TwoQ,
            PolicyKind::EnergyAware {
                residency_watts_per_page: residency,
            },
        ] {
            assert_eq!(
                replay(kind.build().as_mut(), cap, &steps),
                replay(scanning(kind).as_mut(), cap, &steps),
                "{kind:?}"
            );
        }
    });
}
