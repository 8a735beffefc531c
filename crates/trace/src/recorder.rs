//! The [`TraceSink`] trait, the ring-buffered [`Recorder`], and the
//! zero-cost [`Tracer`] handle that instrumented code holds.

use crate::event::{Category, TraceEvent, Track};
use crate::rings::{EventRef, Rings};
use grail_metrics::{Registry, Scraper, Snapshot};

/// Anything that can accept trace events. The simulator is generic over
/// this only at the edges; hot paths go through [`Tracer`] so the
/// disabled case stays a single branch.
pub trait TraceSink {
    /// Accept one event. Implementations may drop it (filtering,
    /// capacity) but must do so deterministically.
    fn record(&mut self, event: TraceEvent);
}

/// A bounded, category-filtered event buffer plus metrics registry.
///
/// The buffer is a ring: when full, the **oldest** event is evicted —
/// its arguments with it — and counted in [`Recorder::dropped`].
/// Eviction depends only on the event sequence, so a full buffer is
/// still deterministic.
#[derive(Debug, Clone)]
pub struct Recorder {
    capacity: usize,
    mask: u32,
    /// What [`TraceSink::record`] appends to.
    rings: Rings,
    /// The inputs of [`Recorder::merge_ordered`], kept whole: a merge
    /// moves no event, it only computes `order`. Empty otherwise.
    merged: Vec<Rings>,
    /// Read order over `merged`: `part << 32 | position in that part's
    /// ring`, written over the merge's sorted keys.
    order: Vec<u64>,
    dropped: u64,
    metrics: Registry,
    scraper: Option<Scraper>,
}

impl Recorder {
    /// Recorder keeping at most `capacity` events, all categories
    /// enabled. A zero capacity records nothing (but still counts
    /// drops and accumulates metrics).
    pub fn new(capacity: usize) -> Self {
        Recorder::with_categories(capacity, Category::ALL)
    }

    /// Recorder with an explicit category bitmask (OR of
    /// [`Category::bit`] values).
    pub fn with_categories(capacity: usize, mask: u32) -> Self {
        Recorder {
            capacity,
            mask,
            rings: Rings::default(),
            merged: Vec::new(),
            order: Vec::new(),
            dropped: 0,
            metrics: Registry::new(),
            scraper: None,
        }
    }

    /// A recorder that retains no events and filters every category —
    /// the cheapest live tracer: `emit` closures are never invoked,
    /// only `count`/`observe`/`gauge`/`rate` touch the registry. Used
    /// by metrics-only runs (EXT-WATCH, `grail-perf`'s overhead probe).
    pub fn metrics_only() -> Self {
        Recorder::with_categories(0, 0)
    }

    /// Enable scraping: snapshot the registry every `interval_nanos`
    /// of simulated time (driven by [`Recorder::advance_time`]).
    pub fn with_scrape_interval(mut self, interval_nanos: u64) -> Self {
        self.scraper = Some(Scraper::new(interval_nanos));
        self
    }

    /// Is `cat` enabled by this recorder's filter mask?
    #[inline]
    pub fn enabled(&self, cat: Category) -> bool {
        self.mask & cat.bit() != 0
    }

    /// Recorded events, oldest first (a merged recorder: in merged
    /// order).
    pub fn events(&self) -> impl Iterator<Item = EventRef<'_>> + '_ {
        let merged = self
            .order
            .iter()
            .map(|&pos| self.merged[(pos >> 32) as usize].view(pos as u32 as usize));
        merged.chain((0..self.rings.len()).map(|seq| self.rings.view(seq)))
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.order.len() + self.rings.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Mutable access to the metrics registry.
    pub fn metrics_mut(&mut self) -> &mut Registry {
        &mut self.metrics
    }

    /// Simulated time has advanced to `now_nanos`: emit any scrape
    /// snapshots that came due. No-op without a scrape interval.
    pub fn advance_time(&mut self, now_nanos: u64) {
        if let Some(s) = &mut self.scraper {
            s.advance(now_nanos, &mut self.metrics);
        }
    }

    /// The run ended at `end_nanos`: emit due snapshots plus one final
    /// snapshot at the horizon. No-op without a scrape interval.
    pub fn finish_time(&mut self, end_nanos: u64) {
        if let Some(s) = &mut self.scraper {
            s.finish(end_nanos, &mut self.metrics);
        }
    }

    /// Scrape snapshots collected so far (empty without a scraper).
    pub fn snapshots(&self) -> &[Snapshot] {
        self.scraper
            .as_ref()
            .map(|s| s.series().as_slice())
            .unwrap_or(&[])
    }

    /// Merge recorders from a sharded run into one, deterministically.
    ///
    /// The merged order is a stable sort by timestamp of the parts'
    /// events concatenated in `parts` order — that is, ascending
    /// `(at, part, seq)`, `seq` being an event's position within its
    /// part. (Parts are *not* time-sorted: a span is stamped with its
    /// reservation's start, which may lie ahead of later emissions, so
    /// this is a real sort, not a k-way merge.) Same-instant events from
    /// different parts keep the part order and same-instant events
    /// within a part keep their emission order — a pure function of the
    /// parts, independent of how the parts were produced.
    ///
    /// Only keys are sorted — one word each when the timestamps leave
    /// room — and no event moves: the merged recorder adopts each part's
    /// rings whole and reads them through the sorted keys.
    /// `retrack(part, track)` rewrites each part's shape table on the
    /// way in, each shape's track once (the shard commit shifts per-cell
    /// stream and device indices to global ones there; pass
    /// `|_, track| track` to keep tracks as recorded).
    ///
    /// Metrics registries fold in part order (see
    /// [`grail_metrics::Registry::merge_from`] for the per-family
    /// semantics), drop counts sum, capacities sum (nothing recorded is
    /// evicted by the merge), and the mask is the union. Scrapers do not
    /// survive the merge: snapshot series interleaving is the caller's
    /// problem and the shard merge exports from the merged registry
    /// instead.
    pub fn merge_ordered(
        parts: Vec<Recorder>,
        retrack: impl Fn(usize, Track) -> Track,
    ) -> Recorder {
        let mut out = Recorder::with_categories(0, 0);
        for (part, mut p) in parts.into_iter().enumerate() {
            // A part that is itself a merge reads in its merged order;
            // make that its ring order.
            p.flatten();
            out.capacity = out.capacity.saturating_add(p.capacity);
            out.mask |= p.mask;
            out.dropped += p.dropped;
            out.metrics.merge_from(&p.metrics);
            p.rings.retrack(|track| retrack(part, track));
            out.merged.push(p.rings);
        }
        out.order = read_order(&out.merged);
        out
    }

    /// Bring a merged recorder's events into `rings`, in read order, so
    /// it can record (and evict) like any other. The one place a merged
    /// event moves; nothing on the commit or export path calls it.
    fn flatten(&mut self) {
        // `rings` is empty while `order` is not: a merge starts it
        // empty and `record` flattens before it appends.
        for pos in std::mem::take(&mut self.order) {
            let e = self.merged[(pos >> 32) as usize].view(pos as u32 as usize);
            let event = match e.dur {
                Some(dur) => TraceEvent::span(e.at, dur, e.cat, e.name, e.track),
                None => TraceEvent::instant(e.at, e.cat, e.name, e.track),
            };
            self.rings.push(
                e.args()
                    .fold(event, |event, (key, value)| event.arg(key, value)),
            );
        }
        self.merged.clear();
    }
}

/// The read order of a merge of `parts`: each event's `part << 32 |
/// seq`, sorted by `(at, part, seq)`.
///
/// When the timestamps leave room — the parts' running maxima say so
/// before any is read — a key is one word `at | part | seq`, packed in
/// one pass over each part's time column, and sorts in place;
/// otherwise the `(at, part, seq)` triples sort, at three times the
/// bytes. Keys are distinct either way, so the unstable sort has one
/// possible result.
fn read_order(parts: &[Rings]) -> Vec<u64> {
    // Bits that hold every value below `n`.
    let width = |n: usize| usize::BITS - n.saturating_sub(1).leading_zeros();
    let seq_bits = width(parts.iter().map(Rings::len).max().unwrap_or(0));
    let part_bits = width(parts.len());
    let max_at = parts.iter().map(|p| p.max_at().as_nanos()).max();
    let at_bits = u64::BITS - max_at.unwrap_or(0).leading_zeros();
    let total = parts.iter().map(Rings::len).sum();
    if at_bits + part_bits + seq_bits > u64::BITS {
        let mut wide: Vec<(u64, u64, u64)> = Vec::with_capacity(total);
        for (part, rings) in (0..).zip(parts) {
            let times = rings.times().flatten();
            wide.extend((0..).zip(times).map(|(seq, at)| (at.as_nanos(), part, seq)));
        }
        wide.sort_unstable();
        return wide
            .into_iter()
            .map(|(_, part, seq)| part << 32 | seq)
            .collect();
    }
    let low = part_bits + seq_bits;
    let mut keys: Vec<u64> = Vec::with_capacity(total);
    for (part, rings) in (0..).zip(parts) {
        // `part | seq`, `seq` counting up from the part's first event.
        let mut tag = part << seq_bits;
        for chunk in rings.times() {
            // `low` is 64 only when every `at` is 0, and a wrapping
            // shift by 64 shifts by nothing.
            keys.extend(
                chunk
                    .iter()
                    .zip(tag..)
                    .map(|(at, tag)| at.as_nanos().wrapping_shl(low) | tag),
            );
            tag += chunk.len() as u64;
        }
    }
    keys.sort_unstable();
    let (part_mask, seq_mask) = ((1 << part_bits) - 1, (1 << seq_bits) - 1);
    for key in &mut keys {
        *key = (*key >> seq_bits & part_mask) << 32 | *key & seq_mask;
    }
    keys
}

impl TraceSink for Recorder {
    /// Inlined into every emit site: there the event's name, keys and
    /// value kinds are constants, so its shape's hash and the cache
    /// hit's checks mostly fold away.
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        if !self.enabled(event.cat) {
            return;
        }
        if !self.order.is_empty() {
            self.flatten();
        }
        if self.rings.len() >= self.capacity {
            self.rings.pop_front();
            self.dropped += 1;
            // Silent drops would be invisible in aggregate: surface the
            // overflow as a metric alongside the struct counter.
            self.metrics.add("trace.dropped", 1);
            if self.capacity == 0 {
                return;
            }
        }
        self.rings.push(event);
    }
}

/// The handle instrumented code holds: either off (`None`, the
/// default) or a live boxed [`Recorder`].
///
/// Everything here is `#[inline]` and guarded by the option check, so a
/// disabled tracer costs one branch per call site and never allocates:
/// [`Tracer::emit`] takes the event as a closure that is only invoked
/// when the tracer is live and the category passes the filter.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Box<Recorder>>);

impl Tracer {
    /// A disabled tracer (the default state of every simulation).
    pub fn off() -> Self {
        Tracer(None)
    }

    /// A live tracer wrapping `recorder`.
    pub fn on(recorder: Recorder) -> Self {
        Tracer(Some(Box::new(recorder)))
    }

    /// Is the tracer live at all?
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Is the tracer live *and* `cat` enabled?
    #[inline]
    pub fn enabled(&self, cat: Category) -> bool {
        match &self.0 {
            Some(r) => r.enabled(cat),
            None => false,
        }
    }

    /// Record the event built by `make` if `cat` is enabled. `make` is
    /// not called otherwise, so a disabled tracer performs no work and
    /// no allocation.
    #[inline]
    pub fn emit(&mut self, cat: Category, make: impl FnOnce() -> TraceEvent) {
        if let Some(r) = &mut self.0 {
            if r.enabled(cat) {
                r.record(make());
            }
        }
    }

    /// Bump a monotone counter (no-op when off).
    #[inline]
    pub fn count(&mut self, name: &'static str, delta: u64) {
        if let Some(r) = &mut self.0 {
            r.metrics_mut().add(name, delta);
        }
    }

    /// Record a histogram observation (no-op when off).
    #[inline]
    pub fn observe(&mut self, name: &'static str, bounds: &'static [f64], value: f64) {
        if let Some(r) = &mut self.0 {
            r.metrics_mut().observe(name, bounds, value);
        }
    }

    /// Set a gauge (no-op when off; last write wins).
    #[inline]
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        if let Some(r) = &mut self.0 {
            r.metrics_mut().set_gauge(name, value);
        }
    }

    /// Credit `delta` events at simulated `now_nanos` into a
    /// tumbling-window rate (no-op when off).
    #[inline]
    pub fn rate(&mut self, name: &'static str, window_nanos: u64, now_nanos: u64, delta: u64) {
        if let Some(r) = &mut self.0 {
            r.metrics_mut()
                .rate_add(name, window_nanos, now_nanos, delta);
        }
    }

    /// Simulated time advanced to `now_nanos`: run any due scrapes.
    /// Event loops call this as each event is dispatched, *before*
    /// recording that event's metrics, so a scrape boundary never
    /// includes values from beyond it.
    #[inline]
    pub fn advance_time(&mut self, now_nanos: u64) {
        if let Some(r) = &mut self.0 {
            r.advance_time(now_nanos);
        }
    }

    /// The run ended at `end_nanos`: take the final scrape snapshot.
    #[inline]
    pub fn finish_time(&mut self, end_nanos: u64) {
        if let Some(r) = &mut self.0 {
            r.finish_time(end_nanos);
        }
    }

    /// Mutably borrow the live recorder, if any.
    pub fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        self.0.as_deref_mut()
    }

    /// Take the recorder out, leaving the tracer off.
    pub fn take(&mut self) -> Option<Recorder> {
        self.0.take().map(|b| *b)
    }
}

#[cfg(test)]
#[path = "../tests/common/reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArgValue, TraceTime, Track, MAX_ARGS};
    use crate::rings::BLOCK;
    use grail_metrics::registry::COUNT_BUCKETS;
    use grail_prop::Gen;

    fn ev(ns: u64, cat: Category, name: &'static str) -> TraceEvent {
        TraceEvent::instant(TraceTime::from_nanos(ns), cat, name, Track::Main)
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let mut r = Recorder::new(2);
        r.record(ev(1, Category::Io, "a"));
        r.record(ev(2, Category::Io, "b"));
        r.record(ev(3, Category::Io, "c"));
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        let names: Vec<_> = r.events().map(|e| e.name).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn category_mask_filters_at_record_time() {
        let mask = Category::Io.bit() | Category::Fault.bit();
        let mut r = Recorder::with_categories(16, mask);
        assert!(r.enabled(Category::Io));
        assert!(!r.enabled(Category::Ledger));
        r.record(ev(1, Category::Io, "kept"));
        r.record(ev(2, Category::Ledger, "filtered"));
        r.record(ev(3, Category::Fault, "kept_too"));
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn tracer_off_is_inert_and_never_invokes_closure() {
        let mut t = Tracer::off();
        assert!(!t.is_on());
        assert!(!t.enabled(Category::Io));
        let mut called = false;
        t.emit(Category::Io, || {
            called = true;
            ev(1, Category::Io, "x")
        });
        assert!(!called);
        t.count("c", 1);
        t.observe("h", COUNT_BUCKETS, 1.0);
        assert!(t.take().is_none());
    }

    #[test]
    fn tracer_on_records_and_skips_masked_categories() {
        let mut t = Tracer::on(Recorder::with_categories(16, Category::Io.bit()));
        let mut built = 0;
        t.emit(Category::Io, || {
            built += 1;
            ev(1, Category::Io, "io")
        });
        t.emit(Category::Ledger, || {
            built += 1;
            ev(2, Category::Ledger, "skip")
        });
        assert_eq!(built, 1, "masked category must not build the event");
        t.count("io.requests", 3);
        t.observe("depth", COUNT_BUCKETS, 2.0);
        let r = t.take().unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.metrics().counter("io.requests"), 3);
        assert_eq!(r.metrics().histogram("depth").unwrap().count(), 1);
    }

    #[test]
    fn zero_capacity_records_nothing_but_counts() {
        let mut r = Recorder::new(0);
        r.record(ev(1, Category::Io, "a"));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn drops_surface_as_a_metric() {
        let mut r = Recorder::new(1);
        r.record(ev(1, Category::Io, "a"));
        assert_eq!(r.metrics().counter("trace.dropped"), 0);
        r.record(ev(2, Category::Io, "b"));
        r.record(ev(3, Category::Io, "c"));
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.metrics().counter("trace.dropped"), 2);
    }

    #[test]
    fn metrics_only_recorder_filters_events_without_counting_drops() {
        let mut t = Tracer::on(Recorder::metrics_only());
        let mut built = 0;
        t.emit(Category::Io, || {
            built += 1;
            ev(1, Category::Io, "x")
        });
        t.count("io.requests", 1);
        let r = t.take().unwrap();
        assert_eq!(built, 0, "masked categories never build events");
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.metrics().counter("trace.dropped"), 0);
        assert_eq!(r.metrics().counter("io.requests"), 1);
    }

    #[test]
    fn scrape_snapshots_follow_advance_time() {
        let mut t = Tracer::on(Recorder::metrics_only().with_scrape_interval(100));
        t.count("io.requests", 1);
        t.advance_time(150); // crosses 100
        t.count("io.requests", 2);
        t.rate("db.query_rate", 100, 150, 3);
        t.finish_time(250); // crosses 200, plus the horizon snapshot
        let r = t.take().unwrap();
        let ats: Vec<u64> = r.snapshots().iter().map(|s| s.at_nanos).collect();
        assert_eq!(ats, vec![100, 200, 250]);
        assert_eq!(r.snapshots()[0].counter("io.requests"), 1);
        assert_eq!(r.snapshots()[1].counter("io.requests"), 3);
        // The rate window [100, 200) closed with the 3 credited events.
        assert_eq!(r.snapshots()[1].rates, vec![("db.query_rate", 3)]);
    }

    #[test]
    fn merge_ordered_interleaves_by_time_and_keeps_part_order_on_ties() {
        let mut a = Recorder::new(8);
        a.record(ev(10, Category::Io, "a10"));
        a.record(ev(30, Category::Io, "a30"));
        a.record(ev(30, Category::Io, "a30b"));
        let mut b = Recorder::new(8);
        b.record(ev(20, Category::Io, "b20"));
        b.record(ev(30, Category::Io, "b30"));
        a.metrics_mut().add("io.requests", 3);
        b.metrics_mut().add("io.requests", 2);
        let merged = Recorder::merge_ordered(vec![a, b], |_, t| t);
        let names: Vec<_> = merged.events().map(|e| e.name).collect();
        // Ties at t=30: part 0's events (in emission order) before part 1's.
        assert_eq!(names, vec!["a10", "b20", "a30", "a30b", "b30"]);
        assert_eq!(merged.metrics().counter("io.requests"), 5);
        assert_eq!(merged.capacity(), 16);
        assert_eq!(merged.dropped(), 0);
    }

    #[test]
    fn merge_ordered_is_a_pure_function_of_parts() {
        let build = || {
            let mut a = Recorder::new(4);
            a.record(ev(5, Category::Sim, "x"));
            let mut b = Recorder::new(4);
            b.record(ev(5, Category::Sim, "y"));
            vec![a, b]
        };
        let m1 = Recorder::merge_ordered(build(), |_, t| t);
        let m2 = Recorder::merge_ordered(build(), |_, t| t);
        let n1: Vec<_> = m1.events().map(|e| e.name).collect();
        let n2: Vec<_> = m2.events().map(|e| e.name).collect();
        assert_eq!(n1, n2);
    }

    /// Event `i` of the ring tests: 0, 1 or `MAX_ARGS` arguments in
    /// rotation, the last of them text every other time,
    /// timestamps that are not monotone (as a cell's are not).
    fn ring_ev(i: u64) -> TraceEvent {
        let at = TraceTime::from_nanos(100 * i + 250 * (i % 3));
        let e = TraceEvent::instant(at, Category::Io, "ring", Track::Stream(i as u32 % 2));
        let numeric = [0, 0, crate::event::MAX_ARGS as u64 - 1][(i % 3) as usize];
        let e = (0..numeric).fold(e, |e, k| e.arg("k", i * 10 + k));
        match (i % 3, i % 2) {
            (0, _) => e,
            (_, 0) => e.arg("last", i),
            (_, _) => e.arg("last", ["text a", "text b", "text c"][(i % 3) as usize]),
        }
    }

    /// A recorder of `capacity` fed `ring_ev(i)` for every `i`.
    fn fed(capacity: usize, events: impl IntoIterator<Item = u64>) -> Recorder {
        let mut r = Recorder::new(capacity);
        for i in events {
            r.record(ring_ev(i));
        }
        r
    }

    /// The event lines of the JSONL export (no metrics, no summary:
    /// those count the drops, which is the point of a wrapped ring).
    fn event_lines(r: &Recorder) -> Vec<String> {
        crate::export::to_jsonl(r)
            .lines()
            .filter(|l| l.starts_with("{\"ts\""))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn evicting_releases_every_block_the_ring_has_left() {
        let (cap, n) = (4, 3 * BLOCK as u64);
        let mut r = Recorder::new(cap);
        for i in 0..n {
            r.record(ring_ev(i));
            // The block being filled, and the one the oldest event is in.
            let (headers, args) = r.rings.held();
            assert!(headers <= 2 && args <= 2, "after event {i}");
        }
        assert_eq!((r.len(), r.dropped()), (cap, n - 4));
        assert_eq!(event_lines(&r), event_lines(&fed(64, n - 4..n)));
    }

    #[test]
    fn wrapped_rings_clone_and_merge_like_their_survivors() {
        let (a, b) = (fed(4, 0..30), fed(4, 30..47));
        assert_eq!(event_lines(&a.clone()), event_lines(&a));
        let shift = |part: usize, track: Track| match track {
            Track::Stream(s) => Track::Stream(s + 10 * part as u32),
            other => other,
        };
        let merged = Recorder::merge_ordered(vec![a, b], shift);
        let survivors = Recorder::merge_ordered(vec![fed(64, 26..30), fed(64, 43..47)], shift);
        assert_eq!((merged.len(), merged.dropped()), (8, 26 + 13));
        assert_eq!(event_lines(&merged), event_lines(&survivors));
        assert!(event_lines(&merged)
            .iter()
            .any(|l| l.contains("\"track\":\"stream[11]\"")));
        assert_eq!(event_lines(&merged.clone()), event_lines(&merged));
    }

    #[test]
    fn a_merged_recorder_keeps_recording_as_one_ring() {
        let mut merged = Recorder::merge_ordered(vec![fed(4, 0..30), fed(4, 30..47)], |_, t| t);
        let oldest_three: Vec<String> = event_lines(&merged)[..3].to_vec();
        // Full (capacities sum to 8): three more events evict the three
        // oldest *in merged order*, wherever their parts kept them.
        for i in 47..50 {
            merged.record(ring_ev(i));
        }
        let lines = event_lines(&merged);
        assert_eq!((merged.len(), merged.dropped()), (8, 26 + 13 + 3));
        assert!(oldest_three.iter().all(|l| !lines.contains(l)));
        assert_eq!(lines[5..], event_lines(&fed(64, 47..50))[..]);
        assert_eq!(merged.rings.held(), (1, 1));
        // Merging a merge reads it in its merged order.
        let again = Recorder::merge_ordered(vec![merged.clone()], |_, t| t);
        let mut by_time = lines.clone();
        by_time.sort_by_key(|l| l[6..l.find(',').unwrap()].parse::<u64>().unwrap());
        assert_eq!(event_lines(&again), by_time);
    }

    /// Leak `text` as a `&'static str` at an address of its own: the
    /// same text through another pointer.
    fn twin(text: &str) -> &'static str {
        Box::leak(text.to_string().into_boxed_str())
    }

    /// What one case's events are drawn from.
    struct Sites {
        /// Emit sites as `(name, category, span, keys)`. Some are twins
        /// of another: the same name under one key fewer, or with its
        /// last key replaced.
        sites: Vec<(&'static str, Category, bool, Vec<&'static str>)>,
        /// Texts of `Str` values and `Label` kinds.
        texts: Vec<&'static str>,
        /// Stream tracks span `0..streams`: many, so that a ring holds
        /// more shape × track pairs than its table caches, or few.
        streams: u64,
    }

    impl Sites {
        /// Every string is drawn from a pool holding one text twice, at
        /// two addresses, and one string's prefix, which shares its
        /// address but not its text.
        fn draw(g: &mut Gen) -> Sites {
            let names = [
                "disk_read",
                "compute",
                "ledger.charge",
                twin("compute"),
                &"ledger.charge"[..6],
            ];
            let keys = [
                "bytes",
                "joules",
                "component",
                twin("bytes"),
                &"joules"[..3],
            ];
            let texts = vec![
                "disk",
                "ssd",
                "transient",
                "say \"hi\"",
                twin("disk"),
                &"transient"[..5],
            ];
            let mut sites = Vec::new();
            for _ in 0..g.range(1usize..6) {
                let name = g.pick(&names);
                let (cat, span) = (
                    g.pick(&[Category::Sim, Category::Io, Category::Ledger]),
                    g.bool(),
                );
                let keys = g.vec(0..MAX_ARGS + 1, |g| g.pick(&keys));
                if let Some((_, head)) = keys.split_last() {
                    let mut other = head.to_vec();
                    other.push(g.pick(&["joules", "component"]));
                    sites.push((name, cat, span, head.to_vec()));
                    sites.push((name, cat, span, other));
                }
                sites.push((name, cat, span, keys));
            }
            let streams = if g.one_in(3) { 512 } else { 6 };
            Sites {
                sites,
                texts,
                streams,
            }
        }

        /// One event from a drawn site, on any track kind, at one of
        /// few timestamps (so ties are common; `far` ones leave no room
        /// to pack a merge key), each argument of any `ArgValue`
        /// variant — mostly `U64` or `F64`, so a site's key often holds
        /// both.
        fn event(&self, g: &mut Gen, far: bool) -> TraceEvent {
            let at = TraceTime::from_nanos(g.below(500) + if far { u64::MAX - 500 } else { 0 });
            let (name, cat, span, keys) = &self.sites[g.below(self.sites.len() as u64) as usize];
            let track = match g.below(4) {
                0 => Track::Main,
                1 => Track::Exec,
                2 => Track::Stream(g.below(self.streams) as u32),
                _ => Track::Device {
                    kind: g.pick(&self.texts[..2]),
                    index: g.below(5) as u32,
                },
            };
            let event = match span {
                true => TraceEvent::span(at, g.below(1_000), *cat, name, track),
                false => TraceEvent::instant(at, *cat, name, track),
            };
            keys.iter().fold(event, |event, key| {
                let value = match g.below(8) {
                    0..=2 => ArgValue::U64(g.word()),
                    3 | 4 => ArgValue::F64(g.pick(&[0.125, -3.0, 1e300, f64::NAN])),
                    5 => ArgValue::I64(g.word() as i64),
                    6 => ArgValue::Str(g.pick(&self.texts)),
                    _ => ArgValue::Label {
                        kind: g.pick(&self.texts),
                        index: g.below(8) as u32,
                    },
                };
                event.arg(key, value)
            })
        }
    }

    /// A fresh, unwrapped recorder holding `r`'s events, drops and
    /// metrics: what `r` exports.
    fn flat(r: &reference::Recorder) -> Recorder {
        let mut out = Recorder::new(r.capacity);
        for e in r.events() {
            let event = match e.dur {
                Some(dur) => TraceEvent::span(e.at, dur, e.cat, e.name, e.track),
                None => TraceEvent::instant(e.at, e.cat, e.name, e.track),
            };
            out.rings
                .push(e.args().fold(event, |event, (k, v)| event.arg(k, v)));
        }
        out.dropped = r.dropped;
        out.metrics = r.metrics.clone();
        out
    }

    #[test]
    fn blocks_and_track_tables_match_the_reference_rings() {
        // Each part: a capacity below, at or above the block size (or
        // none to speak of), fed a short drawn run of events or, one
        // time in three, a long one several times over — enough to wrap
        // a ring across block boundaries and reuse its released blocks;
        // then 1–4 parts merged with a shift no track survives twice,
        // and recorded into.
        grail_prop::check(256, |g| {
            let parts = g.range(1usize..5);
            let far = g.one_in(8);
            let sites = Sites::draw(g);
            let drawn_event = |g: &mut Gen| sites.event(g, far);
            let mut sut = Vec::new();
            let mut oracle = Vec::new();
            for _ in 0..parts {
                // Rings that wrap get longer runs than rings that keep
                // (and export) every event.
                let (capacity, most) = match g.below(6) {
                    0 => (g.range(0..64), 8),
                    1 => (BLOCK - 1, 8),
                    2 => (BLOCK, 8),
                    3 => (BLOCK + 1, 8),
                    4 => (2 * BLOCK + g.range(0..64), 3),
                    _ => (usize::MAX, 3),
                };
                let (len, repeats) = match g.one_in(3) {
                    true => (usize::MAX, g.range(1usize..most + 1)),
                    false => (512, 1),
                };
                let events = g.vec(0..len, drawn_event);
                let (mut a, mut b) = (Recorder::new(capacity), reference::Recorder::new(capacity));
                for e in (0..repeats).flat_map(|_| &events) {
                    a.record(*e);
                    b.record(*e);
                }
                sut.push(a);
                oracle.push(b);
            }
            let shift = |part: usize, track: Track| {
                let by = 10 * (part as u32 + 1);
                match track {
                    Track::Stream(s) => Track::Stream(s + by),
                    Track::Device { kind, index } => Track::Device {
                        kind,
                        index: index + by,
                    },
                    Track::Main | Track::Exec => track,
                }
            };
            let mut sut = Recorder::merge_ordered(sut, shift);
            let mut oracle = reference::Recorder::merge_ordered(oracle, shift);
            for e in g.vec(0..64, drawn_event) {
                sut.record(e);
                oracle.record(e);
            }
            let want = flat(&oracle);
            assert_eq!((sut.len(), sut.dropped()), (oracle.len(), oracle.dropped));
            assert_eq!(crate::to_jsonl(&sut), crate::to_jsonl(&want));
            assert_eq!(crate::to_chrome(&sut), crate::to_chrome(&want));
        });
    }

    #[test]
    fn tracer_off_ignores_time_and_gauges() {
        let mut t = Tracer::off();
        t.gauge("g", 1.0);
        t.rate("r", 10, 5, 1);
        t.advance_time(100);
        t.finish_time(200);
        assert!(t.take().is_none());
    }
}
