//! Replacement policies: latency-driven classics and the energy-aware
//! policy of Sec. 4.3.
//!
//! The pool calls policies through [`ReplacementPolicy`]; victims are
//! chosen only among pages the pool marks evictable (unpinned). The
//! energy-aware policy additionally receives each page's re-fetch energy
//! and predicts its time-to-reuse, evicting the page whose *eviction*
//! wastes the least energy:
//!
//! ```text
//! keep_cost(p)  = residency_power × predicted_time_to_reuse(p)
//! evict_cost(p) = refetch_energy(p)        (paid only if p is reused)
//! victim        = argmax_p  (keep_cost(p) − evict_cost(p), page id of p)
//! ```
//!
//! The page id is part of the order, not an afterthought: wastes tie
//! whenever two pages of one re-fetch cost sit at the same predicted
//! reuse (every overdue page does), and the largest page id then goes.
//!
//! With homogeneous devices this degenerates to recency (≈ LRU); with a
//! heterogeneous storage hierarchy (flash vs spun-down disk) it deviates
//! exactly where the paper predicts new policies are needed.
//!
//! No policy reads the whole pool to choose a victim: LRU and both 2Q
//! queues share one recency index, the energy-aware policy keeps
//! per-re-fetch-cost runs whose order does not depend on the clock
//! (DESIGN §4.1), and CLOCK advances its hand.

use grail_power::units::{Joules, SimDuration, SimInstant, Watts};
use grail_storage::page::PageId;
use std::collections::{BTreeMap, BTreeSet};

/// Metadata the pool passes to policies on every touch.
#[derive(Debug, Clone, Copy)]
pub struct Touch {
    /// The page touched.
    pub page: PageId,
    /// Simulated time of the touch.
    pub now: SimInstant,
    /// Energy to re-fetch this page if evicted.
    pub refetch: Joules,
}

/// A replacement policy.
pub trait ReplacementPolicy: std::fmt::Debug + Send {
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

/// Selector for the shipped policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Least-recently-used.
    Lru,
    /// Second-chance CLOCK.
    Clock,
    /// Simplified 2Q (FIFO probation + LRU protected).
    TwoQ,
    /// The energy-cost policy described in the module docs.
    EnergyAware {
        /// DRAM residency power attributed to one cached page.
        residency_watts_per_page: Watts,
    },
}

impl PolicyKind {
    /// Instantiate the policy.
    pub fn build(self) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => Box::new(Lru::default()),
            PolicyKind::Clock => Box::new(Clock::default()),
            PolicyKind::TwoQ => Box::new(TwoQ::default()),
            PolicyKind::EnergyAware {
                residency_watts_per_page,
            } => Box::new(EnergyAware::new(residency_watts_per_page)),
        }
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// Pages in the order they were last touched, oldest first, as a
/// logical-clock stamp per page kept in both directions. The victim
/// index of LRU and of both 2Q queues (a FIFO is this index never
/// re-touched).
#[derive(Debug, Default)]
struct Recency {
    stamp: u64,
    stamp_of: BTreeMap<PageId, u64>,
    by_stamp: BTreeMap<u64, PageId>,
}

impl Recency {
    /// Make `page` the most recent member, adding it if absent.
    fn touch(&mut self, page: PageId) {
        self.stamp += 1;
        if let Some(old) = self.stamp_of.insert(page, self.stamp) {
            self.by_stamp.remove(&old);
        }
        self.by_stamp.insert(self.stamp, page);
        debug_assert_eq!(self.stamp_of.len(), self.by_stamp.len());
    }

    /// Drop `page`; false if it was not a member.
    fn remove(&mut self, page: PageId) -> bool {
        let stamp = self.stamp_of.remove(&page);
        if let Some(stamp) = stamp {
            self.by_stamp.remove(&stamp);
        }
        debug_assert_eq!(self.stamp_of.len(), self.by_stamp.len());
        stamp.is_some()
    }

    /// The least recently touched page for which `evictable` holds.
    fn oldest(&self, evictable: &dyn Fn(PageId) -> bool) -> Option<PageId> {
        self.by_stamp.values().copied().find(|p| evictable(*p))
    }
}

/// Least-recently-used.
#[derive(Debug, Default)]
pub struct Lru {
    recency: Recency,
}

impl ReplacementPolicy for Lru {
    fn on_hit(&mut self, t: Touch) {
        self.recency.touch(t.page);
    }

    fn on_insert(&mut self, t: Touch) {
        self.recency.touch(t.page);
    }

    fn on_remove(&mut self, page: PageId) {
        self.recency.remove(page);
    }

    fn victim(&mut self, evictable: &dyn Fn(PageId) -> bool) -> Option<PageId> {
        self.recency.oldest(evictable)
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

// ---------------------------------------------------------------------------
// CLOCK
// ---------------------------------------------------------------------------

/// Second-chance CLOCK: a circular scan clearing reference bits.
#[derive(Debug, Default)]
pub struct Clock {
    ring: Vec<PageId>,
    referenced: BTreeMap<PageId, bool>,
    hand: usize,
}

impl ReplacementPolicy for Clock {
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

// ---------------------------------------------------------------------------
// 2Q (simplified)
// ---------------------------------------------------------------------------

/// Simplified 2Q: new pages enter a FIFO probation queue; a hit promotes
/// to the protected LRU. Victims come from probation first.
#[derive(Debug, Default)]
pub struct TwoQ {
    probation: Recency,
    protected: Recency,
}

impl ReplacementPolicy for TwoQ {
    fn on_hit(&mut self, t: Touch) {
        self.probation.remove(t.page);
        self.protected.touch(t.page);
    }

    fn on_insert(&mut self, t: Touch) {
        self.probation.touch(t.page);
    }

    fn on_remove(&mut self, page: PageId) {
        if !self.probation.remove(page) {
            self.protected.remove(page);
        }
    }

    fn victim(&mut self, evictable: &dyn Fn(PageId) -> bool) -> Option<PageId> {
        self.probation
            .oldest(evictable)
            .or_else(|| self.protected.oldest(evictable))
    }

    fn name(&self) -> &'static str {
        "2q"
    }
}

// ---------------------------------------------------------------------------
// Energy-aware
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct PageEnergyState {
    last_access: SimInstant,
    /// EMA of inter-access gap; `None` until a second access is seen.
    gap_ema: Option<SimDuration>,
    refetch: Joules,
}

impl PageEnergyState {
    /// When the predicted reuse falls due, `last_access + gap_ema` in
    /// nanoseconds (wide: two `u64`s are added); `None` with no gap yet.
    fn deadline(&self) -> Option<u128> {
        let gap = self.gap_ema?;
        Some(u128::from(self.last_access.as_nanos()) + u128::from(gap.as_nanos()))
    }
}

/// The pages of one re-fetch energy. Their wastes differ only through
/// the predicted reuse, so each run below lists its pages by falling
/// waste whatever the clock reads.
#[derive(Debug, Default)]
struct Runs {
    /// Never re-accessed: predicted reuse grows with idle time, at one
    /// slope for all, so the oldest `last_access` leads.
    idle: BTreeSet<(SimInstant, PageId)>,
    /// Gap known and the deadline ahead: predicted reuse shrinks as it
    /// nears, at one slope for all, so the *last* entry leads.
    due: BTreeSet<(u128, PageId)>,
    /// Deadline passed: predicted reuse rests at its 1 ms floor, every
    /// waste ties, the largest page id leads.
    overdue: BTreeSet<PageId>,
}

impl Runs {
    fn len(&self) -> usize {
        self.idle.len() + self.due.len() + self.overdue.len()
    }
}

/// The energy-cost replacement policy (module docs).
#[derive(Debug)]
pub struct EnergyAware {
    residency: Watts,
    pages: BTreeMap<PageId, PageEnergyState>,
    /// Every page of `pages`, in the runs of its re-fetch energy's bits.
    groups: BTreeMap<u64, Runs>,
    now: SimInstant,
}

impl EnergyAware {
    /// A policy attributing `residency` Watts to each cached page.
    pub fn new(residency: Watts) -> Self {
        EnergyAware {
            residency,
            pages: BTreeMap::new(),
            groups: BTreeMap::new(),
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

    /// Track `t.page` as touched at `t.now` with `gap_ema`; it must not
    /// be tracked already.
    fn admit(&mut self, t: Touch, gap_ema: Option<SimDuration>) {
        self.now = self.now.max(t.now);
        let s = PageEnergyState {
            last_access: t.now,
            gap_ema,
            refetch: t.refetch,
        };
        let runs = self.groups.entry(s.refetch.joules().to_bits()).or_default();
        match s.deadline() {
            Some(deadline) => runs.due.insert((deadline, t.page)),
            None => runs.idle.insert((s.last_access, t.page)),
        };
        self.pages.insert(t.page, s);
        self.debug_check();
    }

    /// Stop tracking `page`, returning what was known of it.
    fn forget(&mut self, page: PageId) -> Option<PageEnergyState> {
        let s = self.pages.remove(&page)?;
        let bits = s.refetch.joules().to_bits();
        let runs = self.groups.get_mut(&bits).expect("page has a group");
        let found = match s.deadline() {
            Some(deadline) => runs.due.remove(&(deadline, page)) || runs.overdue.remove(&page),
            None => runs.idle.remove(&(s.last_access, page)),
        };
        debug_assert!(found, "{page:?} is in no run");
        if runs.len() == 0 {
            self.groups.remove(&bits);
        }
        self.debug_check();
        Some(s)
    }

    fn debug_check(&self) {
        debug_assert_eq!(
            self.pages.len(),
            self.groups.values().map(Runs::len).sum::<usize>(),
            "index and page map disagree"
        );
    }

    /// Raise `best` to the `(waste, page id)` maximum of one run. `run`
    /// lists evictable pages by falling predicted reuse, and `u64 → f64`,
    /// `÷ 1e9`, `× residency`, `− refetch` are each monotone, so the
    /// wastes fall too, though not strictly: the maximum is the first
    /// page or a later one whose waste rounds to the same `f64` and whose
    /// id is larger. The walk ends at the first waste below the head's.
    fn offer(&self, run: impl Iterator<Item = PageId>, best: &mut Option<(f64, PageId)>) {
        let mut head = None;
        for page in run {
            let waste = self.waste_if_kept(&self.pages[&page]);
            if *head.get_or_insert(waste) > waste {
                break;
            }
            let loses_to = |(w, p): (f64, PageId)| {
                let by_waste = waste.partial_cmp(&w).expect("finite costs");
                by_waste.then_with(|| page.cmp(&p)).is_lt()
            };
            if !best.is_some_and(loses_to) {
                *best = Some((waste, page));
            }
        }
    }
}

impl ReplacementPolicy for EnergyAware {
    fn on_hit(&mut self, t: Touch) {
        let prev = self.forget(t.page);
        let gap = prev.map_or(SimDuration::ZERO, |s| {
            t.now.saturating_duration_since(s.last_access)
        });
        let gap_ema = match prev.and_then(|s| s.gap_ema) {
            // EMA with α = 1/2: cheap and responsive.
            Some(prev) => SimDuration::from_nanos((prev.as_nanos() + gap.as_nanos()) / 2),
            None => gap,
        };
        self.admit(t, Some(gap_ema));
    }

    fn on_insert(&mut self, t: Touch) {
        self.forget(t.page);
        self.admit(t, None);
    }

    fn on_remove(&mut self, page: PageId) {
        self.forget(page);
    }

    fn victim(&mut self, evictable: &dyn Fn(PageId) -> bool) -> Option<PageId> {
        let now = u128::from(self.now.as_nanos());
        let free = |p: &PageId| evictable(*p);
        let mut best = None;
        for runs in self.groups.values_mut() {
            // The clock only advances: a deadline it has passed stays passed.
            while runs.due.first().is_some_and(|e| e.0 <= now) {
                let (_, page) = runs.due.pop_first().expect("just seen");
                runs.overdue.insert(page);
            }
        }
        for runs in self.groups.values() {
            self.offer(runs.idle.iter().map(|e| e.1).filter(free), &mut best);
            self.offer(runs.due.iter().rev().map(|e| e.1).filter(free), &mut best);
            let floor = runs.overdue.iter().rev().copied().find(free);
            self.offer(floor.into_iter(), &mut best);
        }
        best.map(|(_, page)| page)
    }

    fn name(&self) -> &'static str {
        "energy"
    }
}

#[cfg(test)]
#[path = "../tests/common/reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{replay, scanning, Step};
    use super::*;
    use crate::pool::{BufferPool, EnergyModel};

    fn pid(i: u32) -> PageId {
        PageId::new(0, i)
    }

    fn touch(i: u32, secs: f64) -> Touch {
        Touch {
            page: pid(i),
            now: SimInstant::EPOCH + SimDuration::from_secs_f64(secs),
            refetch: Joules::new(1.0),
        }
    }

    fn touch_cost(i: u32, secs: f64, refetch: f64) -> Touch {
        Touch {
            page: pid(i),
            now: SimInstant::EPOCH + SimDuration::from_secs_f64(secs),
            refetch: Joules::new(refetch),
        }
    }

    const ALL: fn(PageId) -> bool = |_| true;

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = Lru::default();
        p.on_insert(touch(1, 0.0));
        p.on_insert(touch(2, 1.0));
        p.on_insert(touch(3, 2.0));
        p.on_hit(touch(1, 3.0));
        assert_eq!(p.victim(&ALL), Some(pid(2)));
        p.on_remove(pid(2));
        assert_eq!(p.victim(&ALL), Some(pid(3)));
    }

    #[test]
    fn lru_respects_evictability() {
        let mut p = Lru::default();
        p.on_insert(touch(1, 0.0));
        p.on_insert(touch(2, 1.0));
        let only2 = |pg: PageId| pg == pid(2);
        assert_eq!(p.victim(&only2), Some(pid(2)));
        let none = |_: PageId| false;
        assert_eq!(p.victim(&none), None);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = Clock::default();
        p.on_insert(touch(1, 0.0));
        p.on_insert(touch(2, 0.0));
        p.on_insert(touch(3, 0.0));
        // First victim pass clears bits in ring order; page 1 is evicted
        // only on the second sweep, so first victim is page 1 after all
        // bits clear.
        let v1 = p.victim(&ALL).unwrap();
        assert_eq!(v1, pid(1));
        // A hit re-arms the bit and shields the page for one sweep.
        p.on_hit(touch(1, 1.0));
        p.on_remove(pid(2));
        let v2 = p.victim(&ALL).unwrap();
        assert_eq!(v2, pid(3), "page 1 has its bit set again");
    }

    #[test]
    fn clock_handles_remove_before_hand() {
        let mut p = Clock::default();
        for i in 0..5 {
            p.on_insert(touch(i, 0.0));
        }
        let _ = p.victim(&ALL); // advance hand
        p.on_remove(pid(0));
        // Must not panic or skip wildly.
        assert!(p.victim(&ALL).is_some());
    }

    #[test]
    fn twoq_prefers_probation_victims() {
        let mut p = TwoQ::default();
        p.on_insert(touch(1, 0.0));
        p.on_insert(touch(2, 1.0));
        p.on_hit(touch(1, 2.0)); // promote 1 to protected
        assert_eq!(p.victim(&ALL), Some(pid(2)), "probation page goes first");
        p.on_remove(pid(2));
        assert_eq!(p.victim(&ALL), Some(pid(1)), "then protected LRU");
    }

    #[test]
    fn twoq_scan_resistance() {
        let mut p = TwoQ::default();
        // Hot page, promoted.
        p.on_insert(touch(100, 0.0));
        p.on_hit(touch(100, 0.5));
        // A scan floods probation.
        for i in 0..50 {
            p.on_insert(touch(i, 1.0 + i as f64 * 0.01));
        }
        // Victims are scan pages, not the hot one.
        for _ in 0..50 {
            let v = p.victim(&ALL).unwrap();
            assert_ne!(v, pid(100));
            p.on_remove(v);
        }
    }

    #[test]
    fn energy_aware_prefers_evicting_cheap_refetch() {
        // Two equally recent pages: one costs 0.1 J to refetch (flash),
        // one costs 20 J (spun-down disk). Evict the cheap one.
        let mut p = EnergyAware::new(Watts::new(0.01));
        p.on_insert(touch_cost(1, 0.0, 0.1));
        p.on_insert(touch_cost(2, 0.0, 20.0));
        p.on_hit(touch_cost(1, 10.0, 0.1));
        p.on_hit(touch_cost(2, 10.0, 20.0));
        assert_eq!(p.victim(&ALL), Some(pid(1)));
    }

    #[test]
    fn energy_aware_evicts_cold_pages_with_equal_costs() {
        let mut p = EnergyAware::new(Watts::new(0.01));
        // Page 1 reused every second (hot); page 2 reused every 100 s.
        for k in 0..5 {
            p.on_hit(touch_cost(1, k as f64, 1.0));
        }
        p.on_insert(touch_cost(2, 0.0, 1.0));
        p.on_hit(touch_cost(2, 100.0, 1.0));
        p.on_hit(touch_cost(2, 200.0, 1.0));
        assert_eq!(
            p.victim(&ALL),
            Some(pid(2)),
            "long-gap page wastes more DRAM energy"
        );
    }

    #[test]
    fn policies_build_from_kind() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Clock,
            PolicyKind::TwoQ,
            PolicyKind::EnergyAware {
                residency_watts_per_page: Watts::new(0.001),
            },
        ] {
            let mut p = kind.build();
            p.on_insert(touch(1, 0.0));
            assert_eq!(p.victim(&ALL), Some(pid(1)), "{}", p.name());
        }
    }

    /// Knuth's MMIX LCG, high bits: the oracle tests' only input.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize]
        }
    }

    struct Scenario {
        capacity: usize,
        /// The policies that have a scan to be checked against.
        kinds: [PolicyKind; 3],
        model: EnergyModel,
        steps: Vec<Step>,
    }

    /// A generated pool and trace. Across seeds: capacity 1; residency 0
    /// (every waste of one cost ties, page id alone decides) and 1e-9 W
    /// (nanoseconds apart round to one `f64` waste); one, two, five and
    /// all-distinct re-fetch costs, fixed per page or redrawn on every
    /// touch; repeated timestamps and gaps from 1 ns to 3 s, so gap EMAs
    /// are crossed by later waits (due → overdue); pins and unpins, so a
    /// run's head is often not evictable. `stale` touches carry a `now`
    /// older than one the policy has already seen.
    fn scenario(seed: u64, stale: bool) -> Scenario {
        const MS: u64 = 1_000_000;
        let mut r = Lcg(seed);
        let capacity = r.pick(&[1, 1, 2, 3, 5, 8, 16, 33]);
        let pages = capacity as u64 * (1 + r.below(3)) + 2;
        let residency = Watts::new(r.pick(&[0.0, 1e-9, 0.0005, 0.0005, 0.01]));
        // An empty palette prices every slot differently.
        let palette = r.pick(&[&[0.05, 2.0][..], &[1.0], &[0.0, 0.05, 0.5, 2.0, 7.5], &[]]);
        let reprice = r.below(4) == 0;
        let gaps = r.pick(&[
            &[0, 1, MS, 5 * MS][..],
            &[5 * MS],
            &[0, 0, 5 * MS, 40 * MS, 1_000 * MS, 3_000 * MS],
            &[0],
        ]);
        let mut now = 0;
        let steps = (0..50 + r.below(400))
            .map(|_| {
                let page = pid(r.below(pages) as u32);
                match r.below(20) {
                    0 | 1 => Step::Pin(page),
                    2..=4 => Step::Unpin(page),
                    _ => {
                        now += r.pick(gaps);
                        let back = if stale { r.pick(gaps) * r.below(3) } else { 0 };
                        let slot = if reprice {
                            r.below(64)
                        } else {
                            page.index.into()
                        };
                        let cost = match palette.len() {
                            0 => slot as f64 * 0.1,
                            n => palette[slot as usize % n],
                        };
                        Step::Access(Touch {
                            page,
                            now: SimInstant::from_nanos(now.saturating_sub(back)),
                            refetch: Joules::new(cost),
                        })
                    }
                }
            })
            .collect();
        Scenario {
            capacity,
            kinds: [
                PolicyKind::Lru,
                PolicyKind::TwoQ,
                PolicyKind::EnergyAware {
                    residency_watts_per_page: residency,
                },
            ],
            model: EnergyModel {
                residency_watts_per_page: residency,
            },
            steps,
        }
    }

    /// The differential oracle: a pool over each indexed policy and a
    /// pool over its whole-map scan (`tests/common/reference.rs`) agree
    /// on every `Access`, every pin and the final `PoolStats`, on 1 200
    /// generated traces per policy.
    #[test]
    fn indexed_pools_match_the_scanning_oracles() {
        for seed in 0..1_200 {
            let sc = scenario(seed, false);
            for kind in sc.kinds {
                let mut indexed = BufferPool::new(sc.capacity, kind, sc.model);
                let mut scanned = BufferPool::with_policy(sc.capacity, scanning(kind), sc.model);
                for (i, step) in sc.steps.iter().enumerate() {
                    let same = match *step {
                        Step::Access(t) => {
                            indexed.access(t.page, t.now, t.refetch)
                                == scanned.access(t.page, t.now, t.refetch)
                        }
                        Step::Pin(p) => indexed.pin(p) == scanned.pin(p),
                        Step::Unpin(p) => indexed.unpin(p) == scanned.unpin(p),
                    };
                    assert!(same, "{kind:?} seed {seed} step {i}: {step:?}");
                }
                assert_eq!(indexed.stats(), scanned.stats(), "seed {seed}");
            }
        }
    }

    /// The same agreement through the trait alone, where — unlike under
    /// the pool — a `Touch` may be older than the policy's `now`.
    #[test]
    fn stale_touches_through_the_trait_match_the_scanning_oracles() {
        for seed in 0..1_000 {
            let sc = scenario(seed, true);
            for kind in sc.kinds {
                assert_eq!(
                    replay(kind.build().as_mut(), sc.capacity, &sc.steps),
                    replay(scanning(kind).as_mut(), sc.capacity, &sc.steps),
                    "{kind:?} seed {seed}"
                );
            }
        }
    }
}
