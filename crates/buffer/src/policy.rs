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
//! No policy reads the whole pool to choose a victim, and none keys a
//! tree by page id to find one. The pool names each resident page by a
//! dense slot ([`Touch::slot`]), and the policies keep slot-indexed
//! state (DESIGN §4.1): LRU and both 2Q queues are doubly linked lists
//! threaded through the slots, CLOCK's ring is such a list with a hand
//! on it and its reference bits a `Vec` over slots, and the energy-aware
//! policy keeps per-re-fetch-cost runs whose order does not depend on the
//! clock — a `last_access`-ordered list, a deadline-ordered set and a
//! page-ordered set.

use grail_power::units::{Joules, SimDuration, SimInstant, Watts};
use grail_storage::page::PageId;
use std::collections::BTreeSet;

/// Metadata the pool passes to policies on every touch.
#[derive(Debug, Clone, Copy)]
pub struct Touch {
    /// The page touched.
    pub page: PageId,
    /// The pool slot holding the page: below the pool's capacity, and
    /// the same for as long as the page stays resident.
    pub slot: usize,
    /// Simulated time of the touch.
    pub now: SimInstant,
    /// Energy to re-fetch this page if evicted.
    pub refetch: Joules,
}

/// A replacement policy. The pool names resident pages by their slots;
/// a policy keeps what it knows of each in slot-indexed state.
pub trait ReplacementPolicy: std::fmt::Debug + Send {
    /// The page was found in the pool.
    fn on_hit(&mut self, t: Touch);
    /// The page was inserted into the pool, in a slot no page holds.
    fn on_insert(&mut self, t: Touch);
    /// The page in `slot` left the pool (evicted or dropped).
    fn on_remove(&mut self, slot: usize);
    /// Choose the slot of a victim among slots for which `evictable`
    /// holds.
    fn victim(&mut self, evictable: &dyn Fn(usize) -> bool) -> Option<usize>;
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
// Intrusive lists over slots
// ---------------------------------------------------------------------------

/// No slot: a list's missing end or neighbour.
const NIL: u32 = u32::MAX;

fn slot32(slot: usize) -> u32 {
    u32::try_from(slot).expect("a pool slot fits u32")
}

/// A slot's neighbours in its list: `prev` is older, `next` newer.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

const UNLINKED: Link = Link {
    prev: NIL,
    next: NIL,
};

/// One list threaded through a [`Links`]: its oldest and newest slot.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// Doubly linked lists of slots threaded through one slot-indexed
/// array, grown to the largest slot linked. A slot is in at most one of
/// the lists that share the array; linking, unlinking and stepping are
/// O(1).
#[derive(Debug, Default)]
struct Links(Vec<Link>);

impl Links {
    /// Link `slot` (in no list) into `list` right after `after`, or at
    /// the head when `after` is `NIL`.
    fn insert_after(&mut self, list: &mut List, after: u32, slot: u32) {
        let at = slot as usize;
        if at >= self.0.len() {
            self.0.resize(at + 1, UNLINKED);
        }
        let next = match after {
            NIL => list.head,
            a => self.0[a as usize].next,
        };
        self.0[at] = Link { prev: after, next };
        match after {
            NIL => list.head = slot,
            a => self.0[a as usize].next = slot,
        }
        match next {
            NIL => list.tail = slot,
            n => self.0[n as usize].prev = slot,
        }
    }

    /// Append `slot` (in no list) at the tail of `list`.
    fn push(&mut self, list: &mut List, slot: u32) {
        self.insert_after(list, list.tail, slot);
    }

    /// Unlink `slot`, a member of `list`.
    fn unlink(&mut self, list: &mut List, slot: u32) {
        let Link { prev, next } = std::mem::replace(&mut self.0[slot as usize], UNLINKED);
        debug_assert!(
            (prev == NIL || self.0[prev as usize].next == slot)
                && (next == NIL || self.0[next as usize].prev == slot),
            "slot {slot}'s neighbours do not link back to it"
        );
        match prev {
            NIL => list.head = next,
            p => self.0[p as usize].next = next,
        }
        match next {
            NIL => list.tail = prev,
            n => self.0[n as usize].prev = prev,
        }
    }

    fn prev(&self, slot: u32) -> u32 {
        self.0[slot as usize].prev
    }

    fn next(&self, slot: u32) -> u32 {
        self.0[slot as usize].next
    }

    /// The slots of `list`, oldest first.
    fn iter(&self, list: List) -> impl Iterator<Item = u32> + '_ {
        let live = |s: u32| (s != NIL).then_some(s);
        std::iter::successors(live(list.head), move |s| live(self.next(*s)))
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// Slots in the order their pages were last touched, oldest first: one
/// list over its own [`Links`]. The victim index of LRU and of both 2Q
/// queues (a FIFO is this list never re-touched), and CLOCK's ring.
#[derive(Debug)]
struct Recency {
    links: Links,
    list: List,
}

impl Default for Recency {
    fn default() -> Self {
        Recency {
            links: Links::default(),
            list: EMPTY,
        }
    }
}

impl Recency {
    /// Whether `slot` is a member: the head, or a slot with an older
    /// neighbour.
    fn contains(&self, slot: u32) -> bool {
        self.list.head == slot
            || self
                .links
                .0
                .get(slot as usize)
                .is_some_and(|l| l.prev != NIL)
    }

    /// Make `slot` the most recent member, adding it if absent.
    fn touch(&mut self, slot: usize) {
        if self.list.tail != slot32(slot) {
            self.remove(slot);
            self.links.push(&mut self.list, slot32(slot));
        }
    }

    /// Drop `slot`; false if it was not a member.
    fn remove(&mut self, slot: usize) -> bool {
        let slot = slot32(slot);
        let member = self.contains(slot);
        if member {
            self.links.unlink(&mut self.list, slot);
        }
        member
    }

    /// The least recently touched slot for which `evictable` holds.
    fn oldest(&self, evictable: &dyn Fn(usize) -> bool) -> Option<usize> {
        (self.links.iter(self.list))
            .map(|s| s as usize)
            .find(|s| evictable(*s))
    }
}

/// Least-recently-used.
#[derive(Debug, Default)]
pub struct Lru {
    recency: Recency,
}

impl ReplacementPolicy for Lru {
    fn on_hit(&mut self, t: Touch) {
        self.recency.touch(t.slot);
    }

    fn on_insert(&mut self, t: Touch) {
        self.recency.touch(t.slot);
    }

    fn on_remove(&mut self, slot: usize) {
        self.recency.remove(slot);
    }

    fn victim(&mut self, evictable: &dyn Fn(usize) -> bool) -> Option<usize> {
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
///
/// The ring lists slots in insertion order; a removed slot's successor
/// takes its place, as in a `Vec` that slides down. The hand is a slot of
/// the ring, or `NIL` past its tail, from where the next sweep wraps to
/// the head unless a page is inserted first: the hand lands on that page.
#[derive(Debug)]
pub struct Clock {
    ring: Recency,
    /// Per slot: the reference bit.
    referenced: Vec<bool>,
    hand: u32,
    len: usize,
}

impl Default for Clock {
    fn default() -> Self {
        Clock {
            ring: Recency::default(),
            referenced: Vec::new(),
            hand: NIL,
            len: 0,
        }
    }
}

impl ReplacementPolicy for Clock {
    fn on_hit(&mut self, t: Touch) {
        if let Some(bit) = self.referenced.get_mut(t.slot) {
            *bit = true;
        }
    }

    fn on_insert(&mut self, t: Touch) {
        let slot = slot32(t.slot);
        self.ring.links.push(&mut self.ring.list, slot);
        if self.hand == NIL {
            self.hand = slot;
        }
        if t.slot >= self.referenced.len() {
            self.referenced.resize(t.slot + 1, false);
        }
        self.referenced[t.slot] = true;
        self.len += 1;
    }

    fn on_remove(&mut self, slot: usize) {
        // The hand is always on a member.
        if self.hand == slot32(slot) {
            self.hand = self.ring.links.next(self.hand);
        }
        if self.ring.remove(slot) {
            self.len -= 1;
        }
    }

    fn victim(&mut self, evictable: &dyn Fn(usize) -> bool) -> Option<usize> {
        // Two sweeps: first clears reference bits, second must find a
        // victim unless nothing is evictable.
        for _ in 0..self.len * 2 {
            if self.hand == NIL {
                self.hand = self.ring.list.head;
            }
            let slot = self.hand as usize;
            if evictable(slot) && !std::mem::replace(&mut self.referenced[slot], false) {
                return Some(slot);
            }
            self.hand = self.ring.links.next(self.hand);
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
        self.probation.remove(t.slot);
        self.protected.touch(t.slot);
    }

    fn on_insert(&mut self, t: Touch) {
        self.probation.touch(t.slot);
    }

    fn on_remove(&mut self, slot: usize) {
        if !self.probation.remove(slot) {
            self.protected.remove(slot);
        }
    }

    fn victim(&mut self, evictable: &dyn Fn(usize) -> bool) -> Option<usize> {
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

/// What the policy knows of the page in one slot.
#[derive(Debug, Clone, Copy)]
struct Tracked {
    page: PageId,
    state: PageEnergyState,
}

/// The pages of one re-fetch energy. Their wastes differ only through
/// the predicted reuse, so each run below lists its pages by falling
/// waste whatever the clock reads. Entries carry the page's slot after
/// its id: a page has one slot, so the slot never breaks a tie.
#[derive(Debug)]
struct Runs {
    /// The re-fetch energy's bits.
    bits: u64,
    /// Never re-accessed, a list through the policy's `idle` links in
    /// `last_access` order: predicted reuse grows with idle time, at one
    /// slope for all, so the oldest leads.
    idle: List,
    idle_len: usize,
    /// Gap known and the deadline ahead: predicted reuse shrinks as it
    /// nears, at one slope for all, so the *last* entry leads.
    due: BTreeSet<(u128, PageId, u32)>,
    /// Deadline passed: predicted reuse rests at its 1 ms floor, every
    /// waste ties, the largest page id leads.
    overdue: BTreeSet<(PageId, u32)>,
}

impl Runs {
    fn len(&self) -> usize {
        self.idle_len + self.due.len() + self.overdue.len()
    }
}

/// The energy-cost replacement policy (module docs).
#[derive(Debug)]
pub struct EnergyAware {
    residency: Watts,
    /// Per slot: the page tracked there.
    pages: Vec<Option<Tracked>>,
    /// The `idle` lists of every group.
    idle: Links,
    /// Every tracked page, in the runs of its re-fetch energy; a group
    /// per energy, in no order (two in every shipped trace).
    groups: Vec<Runs>,
    now: SimInstant,
}

impl EnergyAware {
    /// A policy attributing `residency` Watts to each cached page.
    pub fn new(residency: Watts) -> Self {
        EnergyAware {
            residency,
            pages: Vec::new(),
            idle: Links::default(),
            groups: Vec::new(),
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

    fn group(&self, refetch: Joules) -> Option<usize> {
        let bits = refetch.joules().to_bits();
        self.groups.iter().position(|g| g.bits == bits)
    }

    /// Track `t.page` in `t.slot`, touched at `t.now` with `gap_ema`; no
    /// page may be tracked there already.
    fn admit(&mut self, t: Touch, gap_ema: Option<SimDuration>) {
        self.now = self.now.max(t.now);
        let state = PageEnergyState {
            last_access: t.now,
            gap_ema,
            refetch: t.refetch,
        };
        let g = self.group(t.refetch).unwrap_or_else(|| {
            self.groups.push(Runs {
                bits: t.refetch.joules().to_bits(),
                idle: EMPTY,
                idle_len: 0,
                due: BTreeSet::new(),
                overdue: BTreeSet::new(),
            });
            self.groups.len() - 1
        });
        let slot = slot32(t.slot);
        let runs = &mut self.groups[g];
        match state.deadline() {
            Some(deadline) => {
                runs.due.insert((deadline, t.page, slot));
            }
            None => {
                // The pool's clock never runs back, so the page joins at
                // the tail; an older `now` walks back to its place.
                let mut after = runs.idle.tail;
                while after != NIL
                    && self.pages[after as usize].is_some_and(|p| p.state.last_access > t.now)
                {
                    after = self.idle.prev(after);
                }
                self.idle.insert_after(&mut runs.idle, after, slot);
                runs.idle_len += 1;
            }
        }
        if t.slot >= self.pages.len() {
            self.pages.resize(t.slot + 1, None);
        }
        debug_assert!(self.pages[t.slot].is_none(), "slot {slot} is taken");
        self.pages[t.slot] = Some(Tracked {
            page: t.page,
            state,
        });
        self.debug_check();
    }

    /// Stop tracking the page in `slot`, returning what was known of it.
    fn forget(&mut self, slot: usize) -> Option<Tracked> {
        let tracked = self.pages.get_mut(slot)?.take()?;
        let (page, s) = (tracked.page, tracked.state);
        let g = self.group(s.refetch).expect("page has a group");
        let runs = &mut self.groups[g];
        let slot = slot32(slot);
        let found = match s.deadline() {
            Some(deadline) => {
                runs.due.remove(&(deadline, page, slot)) || runs.overdue.remove(&(page, slot))
            }
            None => {
                self.idle.unlink(&mut runs.idle, slot);
                runs.idle_len -= 1;
                true
            }
        };
        debug_assert!(found, "{page:?} is in no run");
        if runs.len() == 0 {
            self.groups.swap_remove(g);
        }
        self.debug_check();
        Some(tracked)
    }

    fn debug_check(&self) {
        debug_assert_eq!(
            self.pages.iter().flatten().count(),
            self.groups.iter().map(Runs::len).sum::<usize>(),
            "runs and page table disagree"
        );
    }

    /// Raise `best` to the `(waste, page id)` maximum of one run. `run`
    /// lists evictable slots by falling predicted reuse, and `u64 → f64`,
    /// `÷ 1e9`, `× residency`, `− refetch` are each monotone, so the
    /// wastes fall too, though not strictly: the maximum is the first
    /// page or a later one whose waste rounds to the same `f64` and whose
    /// id is larger. The walk ends at the first waste below the head's.
    fn offer(&self, run: impl Iterator<Item = u32>, best: &mut Option<(f64, PageId, u32)>) {
        let mut head = None;
        for slot in run {
            let Tracked { page, state } = self.pages[slot as usize].expect("a tracked slot");
            let waste = self.waste_if_kept(&state);
            if *head.get_or_insert(waste) > waste {
                break;
            }
            let loses_to = |(w, p, _): (f64, PageId, u32)| {
                let by_waste = waste.partial_cmp(&w).expect("finite costs");
                by_waste.then_with(|| page.cmp(&p)).is_lt()
            };
            if !best.is_some_and(loses_to) {
                *best = Some((waste, page, slot));
            }
        }
    }
}

impl ReplacementPolicy for EnergyAware {
    fn on_hit(&mut self, t: Touch) {
        let prev = self.forget(t.slot).map(|p| p.state);
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
        self.forget(t.slot);
        self.admit(t, None);
    }

    fn on_remove(&mut self, slot: usize) {
        self.forget(slot);
    }

    fn victim(&mut self, evictable: &dyn Fn(usize) -> bool) -> Option<usize> {
        let now = u128::from(self.now.as_nanos());
        let free = |s: &u32| evictable(*s as usize);
        let mut best = None;
        for runs in &mut self.groups {
            // The clock only advances: a deadline it has passed stays passed.
            while runs.due.first().is_some_and(|e| e.0 <= now) {
                let (_, page, slot) = runs.due.pop_first().expect("just seen");
                runs.overdue.insert((page, slot));
            }
        }
        for runs in &self.groups {
            self.offer(self.idle.iter(runs.idle).filter(free), &mut best);
            self.offer(runs.due.iter().rev().map(|e| e.2).filter(free), &mut best);
            let floor = runs.overdue.iter().rev().map(|e| e.1).find(free);
            self.offer(floor.into_iter(), &mut best);
        }
        best.map(|(_, _, slot)| slot as usize)
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
    use grail_prop::Gen;

    fn pid(i: u32) -> PageId {
        PageId::new(0, i)
    }

    /// A touch of page `i`, held in slot `i`.
    fn touch(i: u32, secs: f64) -> Touch {
        touch_cost(i, secs, 1.0)
    }

    fn touch_cost(i: u32, secs: f64, refetch: f64) -> Touch {
        Touch {
            page: pid(i),
            slot: i as usize,
            now: SimInstant::EPOCH + SimDuration::from_secs_f64(secs),
            refetch: Joules::new(refetch),
        }
    }

    const ALL: fn(usize) -> bool = |_| true;

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = Lru::default();
        p.on_insert(touch(1, 0.0));
        p.on_insert(touch(2, 1.0));
        p.on_insert(touch(3, 2.0));
        p.on_hit(touch(1, 3.0));
        assert_eq!(p.victim(&ALL), Some(2));
        p.on_remove(2);
        assert_eq!(p.victim(&ALL), Some(3));
    }

    #[test]
    fn lru_respects_evictability() {
        let mut p = Lru::default();
        p.on_insert(touch(1, 0.0));
        p.on_insert(touch(2, 1.0));
        let only2 = |s: usize| s == 2;
        assert_eq!(p.victim(&only2), Some(2));
        let none = |_: usize| false;
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
        assert_eq!(v1, 1);
        // A hit re-arms the bit and shields the page for one sweep.
        p.on_hit(touch(1, 1.0));
        p.on_remove(2);
        let v2 = p.victim(&ALL).unwrap();
        assert_eq!(v2, 3, "page 1 has its bit set again");
    }

    #[test]
    fn clock_handles_remove_before_hand() {
        let mut p = Clock::default();
        for i in 0..5 {
            p.on_insert(touch(i, 0.0));
        }
        let _ = p.victim(&ALL); // advance hand
        p.on_remove(0);
        // Must not panic or skip wildly.
        assert!(p.victim(&ALL).is_some());
    }

    /// A hand left past the ring's tail lands on the next page inserted;
    /// with none inserted it wraps to the head.
    #[test]
    fn clock_hand_past_the_tail_lands_on_the_next_insert() {
        let mut p = Clock::default();
        for i in 0..3 {
            p.on_insert(touch(i, 0.0));
        }
        p.on_hit(touch(0, 1.0));
        p.on_hit(touch(1, 1.0));
        // Sweep: 0 and 1 lose their bits, then 2 (bit set on insert)
        // too, and 0 goes on the second pass.
        assert_eq!(p.victim(&|s| s != 2), Some(0));
        p.on_remove(0);
        assert_eq!(p.victim(&ALL), Some(1));
        p.on_remove(1);
        assert_eq!(p.victim(&ALL), Some(2));
        // The hand was on the tail: removing it leaves the hand past it.
        p.on_remove(2);
        p.on_insert(touch(7, 2.0));
        p.on_insert(touch(8, 2.0));
        p.on_hit(touch(8, 3.0));
        assert_eq!(p.victim(&ALL), Some(7), "the hand sat on 7");
    }

    #[test]
    fn twoq_prefers_probation_victims() {
        let mut p = TwoQ::default();
        p.on_insert(touch(1, 0.0));
        p.on_insert(touch(2, 1.0));
        p.on_hit(touch(1, 2.0)); // promote 1 to protected
        assert_eq!(p.victim(&ALL), Some(2), "probation page goes first");
        p.on_remove(2);
        assert_eq!(p.victim(&ALL), Some(1), "then protected LRU");
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
            assert_ne!(v, 100);
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
        assert_eq!(p.victim(&ALL), Some(1));
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
            Some(2),
            "long-gap page wastes more DRAM energy"
        );
    }

    /// Wastes that tie go to the larger page id, whichever slot holds it.
    #[test]
    fn energy_ties_compare_page_ids_not_slots() {
        let mut p = EnergyAware::new(Watts::new(0.0));
        for (slot, page) in [(0, 9), (1, 4), (2, 7)] {
            p.on_insert(Touch {
                page: pid(page),
                slot,
                now: SimInstant::EPOCH,
                refetch: Joules::new(1.0),
            });
        }
        assert_eq!(p.victim(&ALL), Some(0), "page 9");
        assert_eq!(p.victim(&|s| s != 0), Some(2), "page 7");
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
            assert_eq!(p.victim(&ALL), Some(1), "{}", p.name());
        }
    }

    struct Scenario {
        capacity: usize,
        /// Every policy, each checked against its scanning twin.
        kinds: [PolicyKind; 4],
        model: EnergyModel,
        steps: Vec<Step>,
    }

    /// A generated pool and trace. Across seeds: capacity 1; residency 0
    /// (every waste of one cost ties, page id alone decides) and 1e-9 W
    /// (nanoseconds apart round to one `f64` waste); one, two, five and
    /// all-distinct re-fetch costs, fixed per page or redrawn on every
    /// touch; repeated timestamps and gaps from 1 ns to 3 s, so gap EMAs
    /// are crossed by later waits (due → overdue); pins and unpins, so a
    /// run's head is often not evictable. Page ids spread over files 0–3,
    /// a quarter of them at an index near `u32::MAX`, so id order is not
    /// arrival order. `stale` touches carry
    /// a `now` older than one the policy has already seen.
    fn scenario(seed: u64, stale: bool) -> Scenario {
        const MS: u64 = 1_000_000;
        let mut r = Gen::new(seed);
        let capacity = r.pick(&[1, 1, 2, 3, 5, 8, 16, 33]);
        let pages = capacity as u32 * (1 + r.below(3) as u32) + 2;
        let ids: Vec<PageId> = (0..pages)
            .map(|k| {
                let file = r.below(4) as u32;
                let index = if r.one_in(4) { u32::MAX - k } else { k };
                PageId::new(file, index)
            })
            .collect();
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
                let k = r.below(pages.into());
                let page = ids[k as usize];
                match r.below(20) {
                    0 | 1 => Step::Pin(page),
                    2..=4 => Step::Unpin(page),
                    _ => {
                        now += r.pick(gaps);
                        let back = if stale { r.pick(gaps) * r.below(3) } else { 0 };
                        let slot = if reprice { r.below(64) } else { k };
                        let cost = match palette.len() {
                            0 => slot as f64 * 0.1,
                            n => palette[slot as usize % n],
                        };
                        Step::Access {
                            page,
                            now: SimInstant::from_nanos(now.saturating_sub(back)),
                            refetch: Joules::new(cost),
                        }
                    }
                }
            })
            .collect();
        Scenario {
            capacity,
            kinds: [
                PolicyKind::Lru,
                PolicyKind::Clock,
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

    /// The differential oracle: a pool over each slot-indexed policy and
    /// a pool over its scanning twin (`tests/common/reference.rs`) agree
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
                        Step::Access { page, now, refetch } => {
                            indexed.access(page, now, refetch) == scanned.access(page, now, refetch)
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
