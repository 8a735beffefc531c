//! The whole-map victim scans `policy.rs` had before its indexes, and
//! the `Vec` ring CLOCK had before its slot lists, kept as the oracle the
//! slot-indexed policies are checked against: `ScanLru` is a
//! `min_by_key` over every page, `ScanEnergyAware` a `max_by` on
//! `(waste, page id)`, `ScanTwoQ` a `VecDeque` with linear `retain`s,
//! `ScanClock` a `Vec` of pages with a `position` + `remove` per
//! eviction. They speak pages ([`PagePolicy`], the policy trait before
//! the pool handed out slots); [`Slotted`] maps the pool's slots to and
//! from them. Included by `policy.rs`'s unit tests and by
//! `properties.rs`; both bring the names imported from `super` into
//! scope.

use super::{Joules, PageId, PolicyKind, ReplacementPolicy, SimDuration, SimInstant, Touch, Watts};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The scanning twin of `kind`.
pub fn scanning(kind: PolicyKind) -> Box<dyn ReplacementPolicy> {
    match kind {
        PolicyKind::Lru => Box::new(Slotted::new(ScanLru::default())),
        PolicyKind::Clock => Box::new(Slotted::new(ScanClock::default())),
        PolicyKind::TwoQ => Box::new(Slotted::new(ScanTwoQ::default())),
        PolicyKind::EnergyAware {
            residency_watts_per_page,
        } => Box::new(Slotted::new(ScanEnergyAware::new(residency_watts_per_page))),
    }
}

/// A replacement policy that names pages, not slots.
pub trait PagePolicy: std::fmt::Debug + Send {
    /// The page was found in the pool.
    fn on_hit(&mut self, t: Touch);
    /// The page was inserted into the pool.
    fn on_insert(&mut self, t: Touch);
    /// The page left the pool (evicted or dropped).
    fn on_remove(&mut self, page: PageId);
    /// Choose a victim among pages for which `evictable` holds.
    fn victim(&mut self, evictable: &dyn Fn(PageId) -> bool) -> Option<PageId>;
    /// The policy's display name.
    fn name(&self) -> &'static str;
}

/// A [`PagePolicy`] behind the slot-level [`ReplacementPolicy`]: the
/// slot of every resident page, both ways.
#[derive(Debug)]
pub struct Slotted<P> {
    policy: P,
    page_of: BTreeMap<usize, PageId>,
    slot_of: BTreeMap<PageId, usize>,
}

impl<P> Slotted<P> {
    /// `policy`, with no page resident.
    pub fn new(policy: P) -> Self {
        Slotted {
            policy,
            page_of: BTreeMap::new(),
            slot_of: BTreeMap::new(),
        }
    }
}

impl<P: PagePolicy> ReplacementPolicy for Slotted<P> {
    fn on_hit(&mut self, t: Touch) {
        self.policy.on_hit(t);
    }

    fn on_insert(&mut self, t: Touch) {
        self.page_of.insert(t.slot, t.page);
        self.slot_of.insert(t.page, t.slot);
        self.policy.on_insert(t);
    }

    fn on_remove(&mut self, slot: usize) {
        if let Some(page) = self.page_of.remove(&slot) {
            self.slot_of.remove(&page);
            self.policy.on_remove(page);
        }
    }

    fn victim(&mut self, evictable: &dyn Fn(usize) -> bool) -> Option<usize> {
        let slot_of = &self.slot_of;
        let page = self.policy.victim(&|p| evictable(slot_of[&p]))?;
        Some(slot_of[&page])
    }

    fn name(&self) -> &'static str {
        self.policy.name()
    }
}

/// Least-recently-used via a logical-clock stamp per page.
#[derive(Debug, Default)]
pub struct ScanLru {
    stamp: u64,
    last_used: BTreeMap<PageId, u64>,
}

impl PagePolicy for ScanLru {
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

/// Second-chance CLOCK: a circular scan clearing reference bits.
#[derive(Debug, Default)]
pub struct ScanClock {
    ring: Vec<PageId>,
    referenced: BTreeMap<PageId, bool>,
    hand: usize,
}

impl PagePolicy for ScanClock {
    fn on_hit(&mut self, t: Touch) {
        if let Some(bit) = self.referenced.get_mut(&t.page) {
            *bit = true;
        }
    }

    fn on_insert(&mut self, t: Touch) {
        self.ring.push(t.page);
        self.referenced.insert(t.page, true);
    }

    fn on_remove(&mut self, page: PageId) {
        if let Some(idx) = self.ring.iter().position(|p| *p == page) {
            self.ring.remove(idx);
            if self.hand > idx {
                self.hand -= 1;
            }
        }
        self.referenced.remove(&page);
    }

    fn victim(&mut self, evictable: &dyn Fn(PageId) -> bool) -> Option<PageId> {
        if self.ring.is_empty() {
            return None;
        }
        // Two sweeps: first clears reference bits, second must find a
        // victim unless nothing is evictable.
        for _ in 0..self.ring.len() * 2 {
            self.hand %= self.ring.len();
            let page = self.ring[self.hand];
            if !evictable(page) {
                self.hand += 1;
                continue;
            }
            let bit = self.referenced.get_mut(&page).expect("ring member");
            if *bit {
                *bit = false;
                self.hand += 1;
            } else {
                return Some(page);
            }
        }
        None
    }

    fn name(&self) -> &'static str {
        "clock"
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

impl PagePolicy for ScanTwoQ {
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

impl PagePolicy for ScanEnergyAware {
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
    Access {
        /// The page referenced.
        page: PageId,
        /// When.
        now: SimInstant,
        /// Its re-fetch energy.
        refetch: Joules,
    },
    /// Pin a page if it is resident.
    Pin(PageId),
    /// Release one pin.
    Unpin(PageId),
}

/// Drive `policy` through `steps` the way `BufferPool::access` drives
/// it, over `capacity` frames: slots handed out in order while they
/// last, then each victim's slot to the page that displaced it. One
/// entry per access that found the frames full: the victim, or `None`
/// when everything was pinned.
pub fn replay(
    policy: &mut dyn ReplacementPolicy,
    capacity: usize,
    steps: &[Step],
) -> Vec<Option<PageId>> {
    // Pins and slot of each resident page, and the page in each slot.
    let mut resident: BTreeMap<PageId, (u32, usize)> = BTreeMap::new();
    let mut page_of: Vec<PageId> = Vec::new();
    let mut victims = Vec::new();
    for step in steps {
        match *step {
            Step::Pin(page) => {
                if let Some((n, _)) = resident.get_mut(&page) {
                    *n += 1;
                }
            }
            Step::Unpin(page) => {
                if let Some((n, _)) = resident.get_mut(&page) {
                    *n = n.saturating_sub(1);
                }
            }
            Step::Access { page, now, refetch } => {
                let touch = |slot| Touch {
                    page,
                    slot,
                    now,
                    refetch,
                };
                if let Some(&(_, slot)) = resident.get(&page) {
                    policy.on_hit(touch(slot));
                    continue;
                }
                let slot = if page_of.len() < capacity {
                    page_of.push(page);
                    page_of.len() - 1
                } else {
                    let victim = policy.victim(&|s| resident[&page_of[s]].0 == 0);
                    victims.push(victim.map(|s| page_of[s]));
                    let Some(slot) = victim else { continue };
                    resident.remove(&page_of[slot]);
                    policy.on_remove(slot);
                    page_of[slot] = page;
                    slot
                };
                resident.insert(page, (0, slot));
                policy.on_insert(touch(slot));
            }
        }
    }
    victims
}
