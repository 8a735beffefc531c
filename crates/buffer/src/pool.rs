//! The buffer pool: capacity, pins, and dual energy metering.
//!
//! Every page-second in the pool burns residency energy; every miss
//! burns re-fetch energy. The pool meters both against a caller-supplied
//! [`EnergyModel`], so replacement policies can be compared on *total*
//! Joules, not hit rate alone — the re-examination Sec. 4.3 calls for.

use crate::policy::{PolicyKind, ReplacementPolicy, Touch};
use grail_power::units::{Joules, SimInstant, Watts};
use grail_storage::page::PageId;
use std::collections::BTreeMap;

/// Energy coefficients of the pool's memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// DRAM power attributed to one cached page.
    pub residency_watts_per_page: Watts,
}

/// Outcome of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Page was cached.
    Hit,
    /// Page was fetched; `evicted` names the displaced page, if any.
    Miss {
        /// The page evicted to make room (None while the pool fills).
        evicted: Option<PageId>,
    },
    /// Page was not cached and could not be admitted (everything
    /// pinned); it was served pass-through, paying re-fetch every time.
    Bypass,
}

/// Cumulative pool statistics and energy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolStats {
    /// Accesses served from the pool.
    pub hits: u64,
    /// Accesses that fetched from storage.
    pub misses: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Accesses that bypassed the pool entirely.
    pub bypasses: u64,
    /// DRAM residency energy burned by cached pages.
    pub residency_energy: Joules,
    /// Device energy burned re-fetching pages.
    pub refetch_energy: Joules,
}

impl PoolStats {
    /// Hit rate in `[0, 1]` (0 for no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.bypasses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total buffer-attributable energy.
    pub fn total_energy(&self) -> Joules {
        self.residency_energy + self.refetch_energy
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    pins: u32,
}

/// A buffer pool of `capacity` page frames under a replacement policy.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    frames: BTreeMap<PageId, Frame>,
    policy: Box<dyn ReplacementPolicy>,
    energy: EnergyModel,
    stats: PoolStats,
    /// Residency is accrued lazily: occupancy × elapsed since this mark.
    accrued_to: SimInstant,
}

impl BufferPool {
    /// A pool of `capacity` frames.
    ///
    /// # Panics
    /// Panics on zero capacity.
    pub fn new(capacity: usize, policy: PolicyKind, energy: EnergyModel) -> Self {
        Self::with_policy(capacity, policy.build(), energy)
    }

    /// [`BufferPool::new`] over a policy built elsewhere (the unit tests'
    /// scanning oracles).
    pub(crate) fn with_policy(
        capacity: usize,
        policy: Box<dyn ReplacementPolicy>,
        energy: EnergyModel,
    ) -> Self {
        assert!(capacity > 0, "pool needs at least one frame");
        BufferPool {
            capacity,
            frames: BTreeMap::new(),
            policy,
            energy,
            stats: PoolStats::default(),
            accrued_to: SimInstant::EPOCH,
        }
    }

    /// Number of cached pages.
    pub fn occupancy(&self) -> usize {
        self.frames.len()
    }

    /// Whether `page` is cached.
    pub fn contains(&self, page: PageId) -> bool {
        self.frames.contains_key(&page)
    }

    /// The policy's name (for reports).
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    fn accrue(&mut self, now: SimInstant) {
        if now <= self.accrued_to {
            return;
        }
        let span = now.duration_since(self.accrued_to);
        let occupancy = self.frames.len() as f64;
        self.stats.residency_energy += self.energy.residency_watts_per_page * occupancy * span;
        self.accrued_to = now;
    }

    /// Access `page` at simulated time `now`; `refetch` is the device
    /// energy a miss on this page costs. Time must be nondecreasing.
    pub fn access(&mut self, page: PageId, now: SimInstant, refetch: Joules) -> Access {
        self.accrue(now);
        let t = Touch { page, now, refetch };
        if self.frames.contains_key(&page) {
            self.stats.hits += 1;
            self.policy.on_hit(t);
            return Access::Hit;
        }
        self.stats.misses += 1;
        self.stats.refetch_energy += refetch;
        let mut evicted = None;
        if self.frames.len() >= self.capacity {
            let frames = &self.frames;
            let victim = self
                .policy
                .victim(&|p| frames.get(&p).map(|f| f.pins == 0).unwrap_or(false));
            match victim {
                Some(v) => {
                    self.frames.remove(&v);
                    self.policy.on_remove(v);
                    self.stats.evictions += 1;
                    evicted = Some(v);
                }
                None => {
                    // Everything pinned: serve pass-through.
                    self.stats.bypasses += 1;
                    self.stats.misses -= 1;
                    return Access::Bypass;
                }
            }
        }
        self.frames.insert(page, Frame { pins: 0 });
        self.policy.on_insert(t);
        Access::Miss { evicted }
    }

    /// Pin `page` (it must be cached). Pinned pages are never victims.
    pub fn pin(&mut self, page: PageId) -> bool {
        match self.frames.get_mut(&page) {
            Some(f) => {
                f.pins += 1;
                true
            }
            None => false,
        }
    }

    /// Release one pin on `page`.
    pub fn unpin(&mut self, page: PageId) -> bool {
        match self.frames.get_mut(&page) {
            Some(f) if f.pins > 0 => {
                f.pins -= 1;
                true
            }
            _ => false,
        }
    }

    /// Statistics accrued through the last access.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Settle residency through `now` and return final statistics.
    pub fn finish(mut self, now: SimInstant) -> PoolStats {
        self.accrue(now);
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grail_power::units::SimDuration;

    fn pid(i: u32) -> PageId {
        PageId::new(0, i)
    }

    fn at(s: f64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs_f64(s)
    }

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(
            cap,
            PolicyKind::Lru,
            EnergyModel {
                residency_watts_per_page: Watts::new(0.01),
            },
        )
    }

    const J1: Joules = Joules::ZERO;

    #[test]
    fn fill_then_evict_lru_order() {
        let mut p = pool(2);
        assert_eq!(
            p.access(pid(1), at(0.0), J1),
            Access::Miss { evicted: None }
        );
        assert_eq!(
            p.access(pid(2), at(1.0), J1),
            Access::Miss { evicted: None }
        );
        assert_eq!(p.access(pid(1), at(2.0), J1), Access::Hit);
        assert_eq!(
            p.access(pid(3), at(3.0), J1),
            Access::Miss {
                evicted: Some(pid(2))
            }
        );
        assert!(p.contains(pid(1)) && p.contains(pid(3)));
        assert_eq!(p.occupancy(), 2);
    }

    #[test]
    fn pins_protect_pages() {
        let mut p = pool(2);
        p.access(pid(1), at(0.0), J1);
        p.access(pid(2), at(1.0), J1);
        assert!(p.pin(pid(1)));
        // LRU would pick 1; pin forces 2.
        assert_eq!(
            p.access(pid(3), at(2.0), J1),
            Access::Miss {
                evicted: Some(pid(2))
            }
        );
        // Pin everything: bypass.
        assert!(p.pin(pid(3)));
        assert_eq!(p.access(pid(4), at(3.0), J1), Access::Bypass);
        assert!(p.unpin(pid(1)));
        assert!(matches!(p.access(pid(4), at(4.0), J1), Access::Miss { .. }));
        assert!(!p.unpin(pid(99)));
        assert!(!p.pin(pid(99)));
    }

    #[test]
    fn residency_energy_accrues_with_occupancy() {
        let mut p = pool(10);
        p.access(pid(1), at(0.0), J1);
        p.access(pid(2), at(0.0), J1);
        let stats = p.finish(at(100.0));
        // 2 pages × 0.01 W × 100 s = 2 J.
        assert!((stats.residency_energy.joules() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn refetch_energy_counts_misses_only() {
        let mut p = pool(2);
        let cost = Joules::new(5.0);
        p.access(pid(1), at(0.0), cost);
        p.access(pid(1), at(1.0), cost); // hit: free
        p.access(pid(2), at(2.0), cost);
        let stats = p.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert!((stats.refetch_energy.joules() - 10.0).abs() < 1e-12);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut p = pool(4);
        for i in 0..100 {
            p.access(pid(i), at(i as f64), J1);
            assert!(p.occupancy() <= 4);
        }
        assert_eq!(p.stats().evictions, 96);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        let _ = pool(0);
    }

    /// Every [`Access`] (hit, miss and its victim, bypass) and the bits
    /// of the final [`PoolStats`] of EXT-BUF's trace shape — ChaCha12
    /// seed 11, rank = u³ × 4096, 512 frames, 5 ms steps, 0.05 J (even
    /// pages, flash) / 2 J (odd, disk) re-fetch, 0.0005 W residency —
    /// cut to 20 000 accesses, per policy. The constants were measured
    /// while `Lru::victim` and `EnergyAware::victim` still scanned the
    /// whole page map: an index that breaks one tie the other way, or
    /// picks one different victim, changes them.
    #[test]
    fn ext_buf_trace_outcomes_are_pinned() {
        use std::fmt::Write;
        let residency = Watts::new(0.0005);
        let pinned = [
            (PolicyKind::Lru, 0x3f9a_6428_f00f_ac8e_u64),
            (PolicyKind::Clock, 0x7c7b_0023_3c28_e576),
            (PolicyKind::TwoQ, 0x0bb4_4aa8_80ea_5fef),
            (
                PolicyKind::EnergyAware {
                    residency_watts_per_page: residency,
                },
                0x743a_6a9e_641f_bfd5,
            ),
        ];
        let mut rng = grail_sim::rng::ChaCha12Rng::seed_from_u64(11);
        let trace: Vec<PageId> = (0..20_000)
            .map(|_| {
                let u: f64 = rng.random_range(0.0f64..1.0);
                pid(((u.powf(3.0) * 4096.0) as u32).min(4095))
            })
            .collect();
        let step = |i: usize| SimInstant::EPOCH + SimDuration::from_millis(i as u64 * 5);
        for (kind, digest) in pinned {
            let mut pool = BufferPool::new(
                512,
                kind,
                EnergyModel {
                    residency_watts_per_page: residency,
                },
            );
            let mut h = grail_prop::Fnv1a::new();
            for (i, p) in trace.iter().enumerate() {
                let refetch = Joules::new(if p.index % 2 == 0 { 0.05 } else { 2.0 });
                write!(h, "{:?}", pool.access(*p, step(i), refetch)).expect("hashing cannot fail");
            }
            let name = pool.policy_name();
            let s = pool.finish(step(trace.len()));
            write!(
                h,
                "{} {} {} {} {:016x} {:016x}",
                s.hits,
                s.misses,
                s.evictions,
                s.bypasses,
                s.residency_energy.joules().to_bits(),
                s.refetch_energy.joules().to_bits()
            )
            .expect("hashing cannot fail");
            assert_eq!(h.finish(), digest, "{name}: {:#018x}", h.finish());
        }
    }
}
