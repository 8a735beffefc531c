//! The deterministic metrics registry: monotone counters, gauges,
//! fixed-bucket histograms, and windowed rates.
//!
//! Each family keeps its values in slots, found through a small cache
//! on the name's address and a `BTreeMap` name index behind it; every
//! iteration (and therefore export) follows the index, in lexicographic
//! name order — stable across runs and machines. Histogram bucket bounds are
//! `&'static [f64]`, fixed at first observation: there is no dynamic
//! rebinning that could make output depend on observation order beyond
//! the counts themselves. Rates are keyed on **simulated** time handed
//! in by the caller; no wall clock is ever consulted.

use std::collections::BTreeMap;

/// Upper bounds (inclusive) for IO service-time histograms, in seconds.
pub const SECONDS_BUCKETS: &[f64] = &[
    1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 10.0,
];

/// Upper bounds (inclusive) for small-count histograms (queue depths,
/// retry counts).
pub const COUNT_BUCKETS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Upper bounds (inclusive) for per-query energy histograms, in Joules.
pub const JOULES_BUCKETS: &[f64] = &[1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6];

/// A fixed-bucket histogram: `counts[i]` observations fell at or below
/// `bounds[i]` (and above `bounds[i - 1]`); the final slot counts
/// overflow beyond the last bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// New empty histogram over `bounds` (must be non-empty and sorted;
    /// enforced by the static bucket constants callers pass).
    pub fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` slots, last = overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The `q`-quantile (`0 < q ≤ 1`) estimated from bucket counts with
    /// linear interpolation inside the bucket; overflow observations
    /// report the last finite bound. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                if i >= self.bounds.len() {
                    // Overflow bucket has no upper bound; report the
                    // last finite edge (an underestimate, flagged in
                    // the docs).
                    return self.bounds[self.bounds.len() - 1];
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let into = (rank - seen as f64) / c as f64;
                return lo + (hi - lo) * into;
            }
            seen += c;
        }
        self.bounds[self.bounds.len() - 1]
    }

    /// Fold `other`'s observations into this histogram. Bounds must be
    /// the same static slice — the caller merges histograms that share a
    /// metric name, and the registry fixes bounds at first use.
    pub fn merge_from(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds.as_ptr(), other.bounds.as_ptr());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The histogram of observations recorded since `earlier` (an older
    /// snapshot of the same histogram). Bounds must match.
    pub fn delta_since(&self, earlier: &Histogram) -> Histogram {
        debug_assert_eq!(self.bounds.as_ptr(), earlier.bounds.as_ptr());
        Histogram {
            bounds: self.bounds,
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum - earlier.sum,
        }
    }
}

/// A tumbling-window event counter keyed on simulated time. Windows are
/// `[k·w, (k+1)·w)`; [`RateWindow::last`] reports the most recently
/// *completed* window's count, which is what scrapes export.
#[derive(Debug, Clone, PartialEq)]
pub struct RateWindow {
    window_nanos: u64,
    window_start: u64,
    current: u64,
    last: u64,
    completed: u64,
}

impl RateWindow {
    /// New rate over windows of `window_nanos` (> 0) starting at t = 0.
    pub fn new(window_nanos: u64) -> Self {
        RateWindow {
            window_nanos: window_nanos.max(1),
            window_start: 0,
            current: 0,
            last: 0,
            completed: 0,
        }
    }

    /// Credit `delta` events at simulated time `now` (nanoseconds).
    /// Out-of-order times below the current window credit the current
    /// window — totals stay exact, only the split can shift.
    pub fn add(&mut self, now_nanos: u64, delta: u64) {
        self.roll_to(now_nanos);
        self.current += delta;
    }

    /// Close every window ending at or before `now` (no-op when `now`
    /// is inside the current window).
    pub fn roll_to(&mut self, now_nanos: u64) {
        if now_nanos < self.window_start {
            return;
        }
        let steps = (now_nanos - self.window_start) / self.window_nanos;
        if steps == 0 {
            return;
        }
        self.last = if steps == 1 { self.current } else { 0 };
        self.completed += steps;
        self.window_start += steps * self.window_nanos;
        self.current = 0;
    }

    /// Fold `other` into this rate. Both sides must have the same window
    /// length and an aligned cursor — callers `roll_to` a common instant
    /// on both before merging (the shard-merge path does). Counts in the
    /// matching windows add; `completed` stays the window count of the
    /// aligned cursor, not the sum, since both sides tumbled through the
    /// same simulated span.
    pub fn merge_from(&mut self, other: &RateWindow) {
        debug_assert_eq!(self.window_nanos, other.window_nanos);
        debug_assert_eq!(self.window_start, other.window_start);
        self.current += other.current;
        self.last += other.last;
        self.completed = self.completed.max(other.completed);
    }

    /// Window length in nanoseconds.
    pub fn window_nanos(&self) -> u64 {
        self.window_nanos
    }

    /// Count in the most recently completed window.
    pub fn last(&self) -> u64 {
        self.last
    }

    /// Count accumulated in the (still open) current window.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Number of windows completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

/// One family's values by name: a slot per name, in first-use order,
/// found through a direct-mapped cache keyed on the name's address and
/// length — the same literal reaches the registry through the same
/// pointer every time, so a hit compares no text — with a name index
/// behind it for the misses, look-ups by text and iteration in name
/// order.
#[derive(Clone)]
struct Family<V> {
    /// Every name's value, in first-use order.
    slots: Vec<V>,
    /// The slot of every name, in name order.
    index: BTreeMap<&'static str, u32>,
    /// Recently used names and their slots, by a hash of the address;
    /// allocated with the first name, so an unused registry costs
    /// nothing to make.
    recent: Vec<Option<(&'static str, u32)>>,
}

impl<V> Default for Family<V> {
    fn default() -> Self {
        Family {
            slots: Vec::new(),
            index: BTreeMap::new(),
            recent: Vec::new(),
        }
    }
}

impl<V> Family<V> {
    const WAYS: usize = 64;

    /// The value of `name`, made by `make` on first use.
    #[inline]
    fn slot(&mut self, name: &'static str, make: impl FnOnce() -> V) -> &mut V {
        let hash = (name.as_ptr() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let way = (hash >> (64 - Self::WAYS.trailing_zeros())) as usize;
        match self.recent.get(way).copied().flatten() {
            // Same address and length: the same immutable bytes.
            Some((seen, i))
                if std::ptr::eq(seen.as_ptr(), name.as_ptr()) && seen.len() == name.len() =>
            {
                &mut self.slots[i as usize]
            }
            _ => self.slot_by_text(name, way, make),
        }
    }

    fn slot_by_text(&mut self, name: &'static str, way: usize, make: impl FnOnce() -> V) -> &mut V {
        let next = self.slots.len() as u32;
        let i = *self.index.entry(name).or_insert(next);
        if i == next {
            self.slots.push(make());
        }
        if self.recent.is_empty() {
            self.recent = vec![None; Self::WAYS];
        }
        self.recent[way] = Some((name, i));
        &mut self.slots[i as usize]
    }

    fn get(&self, name: &str) -> Option<&V> {
        let &i = self.index.get(name)?;
        Some(&self.slots[i as usize])
    }

    /// Every name and its value, in name order.
    fn iter(&self) -> impl Iterator<Item = (&'static str, &V)> + '_ {
        (self.index.iter()).map(|(&name, &i)| (name, &self.slots[i as usize]))
    }

    /// Fold every value of `other` into this family's value of the same
    /// name, or add `new(value)` under a name this family lacks.
    fn merge_from(&mut self, other: &Family<V>, new: impl Fn(&V) -> V, fold: impl Fn(&mut V, &V)) {
        for (name, v) in other.iter() {
            match self.index.get(name) {
                Some(&i) => fold(&mut self.slots[i as usize], v),
                None => {
                    self.index.insert(name, self.slots.len() as u32);
                    self.slots.push(new(v));
                }
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Equal names with equal values, whatever order they were first used in.
impl<V: PartialEq> PartialEq for Family<V> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// A map in name order, as the `BTreeMap` it replaced printed.
impl<V: std::fmt::Debug> std::fmt::Debug for Family<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The deterministic metrics registry carried by the trace recorder.
///
/// Four families, all statically named: monotone counters, last-write
/// gauges (with an accumulate variant for fan-in from many devices),
/// fixed-bucket histograms, and tumbling-window rates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: Family<u64>,
    gauges: Family<f64>,
    histograms: Family<Histogram>,
    rates: Family<RateWindow>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Add `delta` to the monotone counter `name` (created at zero).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.slot(name, || 0) += delta;
    }

    /// Set gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        *self.gauges.slot(name, || 0.0) = value;
    }

    /// Add `delta` to gauge `name` (created at zero) — fan-in form for
    /// values accumulated across many devices at settlement.
    pub fn add_gauge(&mut self, name: &'static str, delta: f64) {
        *self.gauges.slot(name, || 0.0) += delta;
    }

    /// Record `value` into histogram `name`, created over `bounds` on
    /// first use. Later calls reuse the original bounds.
    pub fn observe(&mut self, name: &'static str, bounds: &'static [f64], value: f64) {
        self.histograms
            .slot(name, || Histogram::new(bounds))
            .observe(value);
    }

    /// Credit `delta` events at simulated `now_nanos` into rate `name`,
    /// created over `window_nanos` windows on first use.
    pub fn rate_add(&mut self, name: &'static str, window_nanos: u64, now_nanos: u64, delta: u64) {
        self.rates
            .slot(name, || RateWindow::new(window_nanos))
            .add(now_nanos, delta);
    }

    /// Close every rate window ending at or before `now_nanos` (called
    /// by the scraper so exported rates are aligned to scrape time).
    pub fn roll_rates(&mut self, now_nanos: u64) {
        for r in &mut self.rates.slots {
            r.roll_to(now_nanos);
        }
    }

    /// Counter value, or 0 if never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Rate by name.
    pub fn rate(&self, name: &str) -> Option<&RateWindow> {
        self.rates.get(name)
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (k, *v))
    }

    /// Histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter()
    }

    /// Rates in name order.
    pub fn rates(&self) -> impl Iterator<Item = (&'static str, &RateWindow)> + '_ {
        self.rates.iter()
    }

    /// Fold `other` into this registry: counters and histograms sum,
    /// gauges **add** (the fan-in semantics of [`Registry::add_gauge`] —
    /// every gauge the simulator exports is a settlement accumulation
    /// over devices, so addition is the meaningful combine), and rates
    /// merge window-by-window. Callers merging rate-bearing registries
    /// must first [`Registry::roll_rates`] both sides to a common
    /// instant so cursors align. Merging in a fixed order is the
    /// caller's job; float sums make gauge merges order-sensitive.
    pub fn merge_from(&mut self, other: &Registry) {
        self.counters
            .merge_from(&other.counters, |&v| v, |a, b| *a += b);
        // A gauge new here starts at zero and adds, so -0.0 arrives as 0.0.
        self.gauges
            .merge_from(&other.gauges, |&v| 0.0 + v, |a, b| *a += b);
        (self.histograms).merge_from(&other.histograms, Clone::clone, Histogram::merge_from);
        (self.rates).merge_from(&other.rates, Clone::clone, RateWindow::merge_from);
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.rates.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone_and_default_zero() {
        let mut m = Registry::new();
        assert_eq!(m.counter("io.requests"), 0);
        m.add("io.requests", 2);
        m.add("io.requests", 3);
        m.add("io.retries", 1);
        assert_eq!(m.counter("io.requests"), 5);
        assert_eq!(m.counter("io.retries"), 1);
        let names: Vec<_> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["io.requests", "io.retries"]);
    }

    #[test]
    fn histogram_buckets_observations_including_overflow() {
        let mut h = Histogram::new(COUNT_BUCKETS);
        h.observe(0.0); // slot 0 (<= 0.0)
        h.observe(1.0); // slot 1
        h.observe(3.0); // slot 3 (<= 4.0)
        h.observe(1000.0); // overflow
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 1004.0).abs() < 1e-9);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[3], 1);
        assert_eq!(h.counts()[COUNT_BUCKETS.len()], 1);
    }

    #[test]
    fn registry_fixes_bounds_at_first_use() {
        let mut m = Registry::new();
        m.observe("svc", SECONDS_BUCKETS, 0.002);
        m.observe("svc", COUNT_BUCKETS, 0.2); // bounds ignored: already created
        let h = m.histogram("svc").unwrap();
        assert_eq!(h.bounds(), SECONDS_BUCKETS);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn bucket_constants_are_sorted() {
        for bounds in [SECONDS_BUCKETS, COUNT_BUCKETS, JOULES_BUCKETS] {
            for w in bounds.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::new(COUNT_BUCKETS);
        for _ in 0..100 {
            h.observe(3.0); // bucket (2, 4]
        }
        let p50 = h.quantile(0.5);
        assert!(p50 > 2.0 && p50 <= 4.0, "{p50}");
        // All mass in one bucket: p1 and p99 stay inside it too.
        assert!(h.quantile(0.99) <= 4.0);
        assert!(h.quantile(0.01) > 2.0);
    }

    #[test]
    fn quantile_of_overflow_reports_last_finite_bound() {
        let mut h = Histogram::new(COUNT_BUCKETS);
        h.observe(1e9);
        assert_eq!(h.quantile(0.99), COUNT_BUCKETS[COUNT_BUCKETS.len() - 1]);
    }

    #[test]
    fn histogram_delta_subtracts_counts_and_sum() {
        let mut a = Histogram::new(COUNT_BUCKETS);
        a.observe(1.0);
        let earlier = a.clone();
        a.observe(2.0);
        a.observe(1000.0);
        let d = a.delta_since(&earlier);
        assert_eq!(d.count(), 2);
        assert!((d.sum() - 1002.0).abs() < 1e-9);
        assert_eq!(d.counts()[2], 1);
        assert_eq!(d.counts()[COUNT_BUCKETS.len()], 1);
    }

    #[test]
    fn gauges_last_write_wins_and_accumulate() {
        let mut m = Registry::new();
        assert_eq!(m.gauge("x"), None);
        m.set_gauge("x", 2.0);
        m.set_gauge("x", 3.5);
        assert_eq!(m.gauge("x"), Some(3.5));
        m.add_gauge("y", 1.0);
        m.add_gauge("y", 0.5);
        assert_eq!(m.gauge("y"), Some(1.5));
    }

    #[test]
    fn rate_windows_tumble_on_simulated_time() {
        let mut r = RateWindow::new(100);
        r.add(10, 1);
        r.add(20, 2);
        assert_eq!(r.last(), 0); // first window still open
        r.add(110, 5); // rolls into window [100, 200)
        assert_eq!(r.last(), 3);
        assert_eq!(r.current(), 5);
        assert_eq!(r.completed(), 1);
        r.roll_to(350); // skips [200, 300): that window closed empty
        assert_eq!(r.last(), 0);
        assert_eq!(r.completed(), 3);
    }

    #[test]
    fn rate_out_of_order_credits_current_window() {
        let mut r = RateWindow::new(100);
        r.add(150, 1);
        r.add(120, 1); // below window cursor: still counted
        assert_eq!(r.current(), 2);
    }

    #[test]
    fn histogram_merge_sums_counts_and_sum() {
        let mut a = Histogram::new(COUNT_BUCKETS);
        a.observe(1.0);
        a.observe(1000.0);
        let mut b = Histogram::new(COUNT_BUCKETS);
        b.observe(3.0);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert!((a.sum() - 1004.0).abs() < 1e-9);
        assert_eq!(a.counts()[1], 1);
        assert_eq!(a.counts()[3], 1);
        assert_eq!(a.counts()[COUNT_BUCKETS.len()], 1);
    }

    #[test]
    fn rate_merge_adds_aligned_windows() {
        let mut a = RateWindow::new(100);
        let mut b = RateWindow::new(100);
        a.add(10, 2);
        b.add(20, 3);
        a.roll_to(250);
        b.roll_to(250);
        // Both closed [0,100) (last=0 after the skip) and sit in [200,300).
        a.add(210, 1);
        b.add(220, 4);
        a.roll_to(300);
        b.roll_to(300);
        a.merge_from(&b);
        assert_eq!(a.last(), 5);
        assert_eq!(a.completed(), 3);
    }

    #[test]
    fn registry_merge_combines_all_families() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.add("c", 2);
        b.add("c", 3);
        b.add("only_b", 7);
        a.add_gauge("g", 1.5);
        b.add_gauge("g", 2.0);
        a.observe("h", COUNT_BUCKETS, 1.0);
        b.observe("h", COUNT_BUCKETS, 2.0);
        b.observe("h2", SECONDS_BUCKETS, 0.5);
        a.rate_add("r", 100, 10, 1);
        b.rate_add("r", 100, 20, 2);
        a.roll_rates(100);
        b.roll_rates(100);
        a.merge_from(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.counter("only_b"), 7);
        assert_eq!(a.gauge("g"), Some(3.5));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h2").unwrap().count(), 1);
        assert_eq!(a.rate("r").unwrap().last(), 3);
    }

    #[test]
    fn registry_rate_fan_in() {
        let mut m = Registry::new();
        m.rate_add("q", 100, 10, 1);
        m.rate_add("q", 999, 120, 1); // window param ignored after creation
        m.roll_rates(200);
        assert_eq!(m.rate("q").unwrap().window_nanos(), 100);
        assert_eq!(m.rate("q").unwrap().last(), 1);
        assert_eq!(m.rate("q").unwrap().completed(), 2);
    }
}
