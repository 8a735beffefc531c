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
    /// Read order over `merged`: `(part, position in that part's ring)`.
    order: Vec<(u32, u32)>,
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
            .map(|&(part, seq)| self.merged[part as usize].view(seq as usize));
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
    /// Only the 16-byte keys are sorted and no event moves: the merged
    /// recorder adopts each part's rings whole and reads them through
    /// the sorted order. `retrack(part, track)` rewrites every track in
    /// place on the way in (the shard commit shifts per-cell stream and
    /// device indices to global ones there; pass `|_, track| track` to
    /// keep tracks as recorded).
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
        let mut keys: Vec<(u64, u32, u32)> =
            Vec::with_capacity(parts.iter().map(Recorder::len).sum());
        for (part, mut p) in parts.into_iter().enumerate() {
            // A part that is itself a merge reads in its merged order;
            // make that its ring order.
            p.flatten();
            out.capacity = out.capacity.saturating_add(p.capacity);
            out.mask |= p.mask;
            out.dropped += p.dropped;
            out.metrics.merge_from(&p.metrics);
            p.rings.retrack(|seq, at, track| {
                keys.push((at.as_nanos(), part as u32, seq as u32));
                retrack(part, track)
            });
            out.merged.push(p.rings);
        }
        // Keys are distinct, so the unstable sort has one possible result.
        keys.sort_unstable();
        out.order = keys.into_iter().map(|(_, part, seq)| (part, seq)).collect();
        out
    }

    /// Bring a merged recorder's events into `rings`, in read order, so
    /// it can record (and evict) like any other. The one place a merged
    /// event moves; nothing on the commit or export path calls it.
    fn flatten(&mut self) {
        // `rings` is empty while `order` is not: a merge starts it
        // empty and `record` flattens before it appends.
        for (part, seq) in std::mem::take(&mut self.order) {
            let e = self.merged[part as usize].view(seq as usize);
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

impl TraceSink for Recorder {
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
mod tests {
    use super::*;
    use crate::event::{TraceTime, Track};
    use grail_metrics::registry::COUNT_BUCKETS;

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
    fn evicting_an_event_releases_exactly_its_args() {
        let cap = 4;
        let mut r = Recorder::new(cap);
        for i in 0..60 {
            r.record(ring_ev(i));
            let args: Vec<_> = r.events().flat_map(|e| e.args()).collect();
            assert_eq!(r.rings.held(), args.len(), "after event {i}");
            assert!(args.len() <= cap * crate::event::MAX_ARGS);
        }
        assert_eq!((r.len(), r.dropped()), (cap, 56));
        assert_eq!(event_lines(&r), event_lines(&fed(64, 56..60)));
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
        let live: usize = merged.events().map(|e| e.args().len()).sum();
        assert_eq!(merged.rings.held(), live);
        // Merging a merge reads it in its merged order.
        let again = Recorder::merge_ordered(vec![merged.clone()], |_, t| t);
        let mut by_time = lines.clone();
        by_time.sort_by_key(|l| l[6..l.find(',').unwrap()].parse::<u64>().unwrap());
        assert_eq!(event_lines(&again), by_time);
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
