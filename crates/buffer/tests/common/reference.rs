//! The whole-map victim scans `policy.rs` had before its ordered
//! indexes, kept as the oracle the indexes are checked against: `ScanLru`
//! is a `min_by_key` over every page, `ScanEnergyAware` a `max_by` on
//! `(waste, page id)`, `ScanTwoQ` a `VecDeque` with linear `retain`s.
//! Included by `policy.rs`'s unit tests and by `properties.rs`; both
//! bring the names imported from `super` into scope.

use super::{Joules, PageId, PolicyKind, ReplacementPolicy, SimDuration, SimInstant, Touch, Watts};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The scanning twin of `kind` (CLOCK never scanned the map: itself).
pub fn scanning(kind: PolicyKind) -> Box<dyn ReplacementPolicy> {
    match kind {
        PolicyKind::Lru => Box::new(ScanLru::default()),
        PolicyKind::Clock => kind.build(),
        PolicyKind::TwoQ => Box::new(ScanTwoQ::default()),
        PolicyKind::EnergyAware {
            residency_watts_per_page,
        } => Box::new(ScanEnergyAware::new(residency_watts_per_page)),
    }
}

/// Least-recently-used via a logical-clock stamp per page.
#[derive(Debug, Default)]
pub struct ScanLru {
    stamp: u64,
    last_used: BTreeMap<PageId, u64>,
}

impl ReplacementPolicy for ScanLru {
    fn on_hit(&mut self, t: Touch) {
        self.stamp += 1;
        self.last_used.insert(t.page, self.stamp);
    }

    fn on_insert(&mut self, t: Touch) {
        self.on_hit(t);
    }

    fn on_remove(&mut self, page: PageId) {
        self.last_used.remove(&page);
    }

    fn victim(&mut self, evictable: &dyn Fn(PageId) -> bool) -> Option<PageId> {
        self.last_used
            .iter()
            .filter(|(p, _)| evictable(**p))
            .min_by_key(|(p, s)| (**s, **p))
            .map(|(p, _)| *p)
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

/// Simplified 2Q: new pages enter a FIFO probation queue; a hit promotes
/// to the protected LRU. Victims come from probation first.
#[derive(Debug, Default)]
pub struct ScanTwoQ {
    probation: VecDeque<PageId>,
    protected: ScanLru,
    in_probation: BTreeSet<PageId>,
}

impl ReplacementPolicy for ScanTwoQ {
    fn on_hit(&mut self, t: Touch) {
        if self.in_probation.remove(&t.page) {
            self.probation.retain(|p| *p != t.page);
            self.protected.on_insert(t);
        } else {
            self.protected.on_hit(t);
        }
    }

    fn on_insert(&mut self, t: Touch) {
        self.probation.push_back(t.page);
        self.in_probation.insert(t.page);
    }

    fn on_remove(&mut self, page: PageId) {
        if self.in_probation.remove(&page) {
            self.probation.retain(|p| *p != page);
        } else {
            self.protected.on_remove(page);
        }
    }

    fn victim(&mut self, evictable: &dyn Fn(PageId) -> bool) -> Option<PageId> {
        if let Some(p) = self.probation.iter().find(|p| evictable(**p)) {
            return Some(*p);
        }
        self.protected.victim(evictable)
    }

    fn name(&self) -> &'static str {
        "2q"
    }
}

#[derive(Debug, Clone, Copy)]
struct PageEnergyState {
    last_access: SimInstant,
    /// EMA of inter-access gap; `None` until a second access is seen.
    gap_ema: Option<SimDuration>,
    refetch: Joules,
}

/// The energy-cost replacement policy (module docs).
#[derive(Debug)]
pub struct ScanEnergyAware {
    residency: Watts,
    pages: BTreeMap<PageId, PageEnergyState>,
    now: SimInstant,
}

impl ScanEnergyAware {
    /// A policy attributing `residency` Watts to each cached page.
    pub fn new(residency: Watts) -> Self {
        ScanEnergyAware {
            residency,
            pages: BTreeMap::new(),
            now: SimInstant::EPOCH,
        }
    }

    /// Predicted time until the page is next used: the gap EMA when
    /// known, otherwise the time it has already sat idle (pages never
    /// re-accessed look ever colder).
    fn predicted_reuse(&self, s: &PageEnergyState) -> SimDuration {
        match s.gap_ema {
            Some(g) => {
                // Remaining wait = max(gap − already waited, small floor).
                let waited = self.now.saturating_duration_since(s.last_access);
                g.saturating_sub(waited)
                    .saturating_add(SimDuration::from_millis(1))
            }
            None => self
                .now
                .saturating_duration_since(s.last_access)
                .saturating_add(SimDuration::from_secs(1)),
        }
    }

    fn waste_if_kept(&self, s: &PageEnergyState) -> f64 {
        let keep = (self.residency * self.predicted_reuse(s)).joules();
        keep - s.refetch.joules()
    }
}

impl ReplacementPolicy for ScanEnergyAware {
    fn on_hit(&mut self, t: Touch) {
        self.now = self.now.max(t.now);
        let entry = self.pages.entry(t.page).or_insert(PageEnergyState {
            last_access: t.now,
            gap_ema: None,
            refetch: t.refetch,
        });
        let gap = t.now.saturating_duration_since(entry.last_access);
        entry.gap_ema = Some(match entry.gap_ema {
            // EMA with α = 1/2: cheap and responsive.
            Some(prev) => SimDuration::from_nanos((prev.as_nanos() + gap.as_nanos()) / 2),
            None => gap,
        });
        entry.last_access = t.now;
        entry.refetch = t.refetch;
    }

    fn on_insert(&mut self, t: Touch) {
        self.now = self.now.max(t.now);
        self.pages.insert(
            t.page,
            PageEnergyState {
                last_access: t.now,
                gap_ema: None,
                refetch: t.refetch,
            },
        );
    }

    fn on_remove(&mut self, page: PageId) {
        self.pages.remove(&page);
    }

    fn victim(&mut self, evictable: &dyn Fn(PageId) -> bool) -> Option<PageId> {
        self.pages
            .iter()
            .filter(|(p, _)| evictable(**p))
            .max_by(|(pa, a), (pb, b)| {
                self.waste_if_kept(a)
                    .partial_cmp(&self.waste_if_kept(b))
                    .expect("finite costs")
                    .then_with(|| pa.cmp(pb))
            })
            .map(|(p, _)| *p)
    }

    fn name(&self) -> &'static str {
        "energy"
    }
}

/// One step of a trait-level trace.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// Reference a page; unlike the pool's clock, `now` may run backwards.
    Access(Touch),
    /// Pin a page if it is resident.
    Pin(PageId),
    /// Release one pin.
    Unpin(PageId),
}

/// Drive `policy` through `steps` the way `BufferPool::access` drives
/// it, over `capacity` frames. One entry per access that found the
/// frames full: the victim, or `None` when everything was pinned.
pub fn replay(
    policy: &mut dyn ReplacementPolicy,
    capacity: usize,
    steps: &[Step],
) -> Vec<Option<PageId>> {
    let mut pins: BTreeMap<PageId, u32> = BTreeMap::new();
    let mut victims = Vec::new();
    for step in steps {
        match *step {
            Step::Pin(page) => {
                if let Some(n) = pins.get_mut(&page) {
                    *n += 1;
                }
            }
            Step::Unpin(page) => {
                if let Some(n) = pins.get_mut(&page) {
                    *n = n.saturating_sub(1);
                }
            }
            Step::Access(t) if pins.contains_key(&t.page) => policy.on_hit(t),
            Step::Access(t) => {
                if pins.len() >= capacity {
                    let victim = policy.victim(&|p| pins.get(&p) == Some(&0));
                    victims.push(victim);
                    let Some(v) = victim else { continue };
                    pins.remove(&v);
                    policy.on_remove(v);
                }
                pins.insert(t.page, 0);
                policy.on_insert(t);
            }
        }
    }
    victims
}
