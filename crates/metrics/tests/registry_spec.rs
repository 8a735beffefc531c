//! The registry against its specification: one `BTreeMap` per family,
//! keyed by the name's text. Drawn sequences of every mutator run on
//! both; every getter, `==`, the Prometheus text and a scrape snapshot
//! must then agree.
//!
//! The names include one text at two addresses, a prefix of a name
//! (its address, another length) and more names than the registry's
//! name cache has ways.

use grail_metrics::expo::prometheus_name;
use grail_metrics::spec::{spec_for, MetricKind};
use grail_metrics::{
    to_prometheus, Histogram, HistogramSnapshot, RateWindow, Registry, Snapshot, COUNT_BUCKETS,
    SECONDS_BUCKETS,
};
use grail_prop::Gen;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The registry as specified.
#[derive(Debug, Clone, Default, PartialEq)]
struct Spec {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    rates: BTreeMap<&'static str, RateWindow>,
}

impl Spec {
    fn merge_from(&mut self, other: &Spec) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name).or_insert(0.0) += v;
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge_from(h),
                None => {
                    self.histograms.insert(name, h.clone());
                }
            }
        }
        for (name, r) in &other.rates {
            match self.rates.get_mut(name) {
                Some(mine) => mine.merge_from(r),
                None => {
                    self.rates.insert(name, r.clone());
                }
            }
        }
    }

    fn snapshot(&self, at_nanos: u64) -> Snapshot {
        Snapshot {
            at_nanos,
            counters: self.counters.iter().map(|(n, v)| (*n, *v)).collect(),
            gauges: self.gauges.iter().map(|(n, v)| (*n, *v)).collect(),
            rates: self.rates.iter().map(|(n, r)| (*n, r.last())).collect(),
            histograms: (self.histograms.iter())
                .map(|(n, h)| HistogramSnapshot {
                    name: n,
                    hist: h.clone(),
                })
                .collect(),
        }
    }

    /// Prometheus text: counters, gauges, rates, histograms, each in
    /// name order, a family header before each.
    fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let p = head(&mut out, name, MetricKind::Counter);
            let _ = writeln!(out, "{p} {v}");
        }
        for (name, v) in &self.gauges {
            let p = head(&mut out, name, MetricKind::Gauge);
            let _ = writeln!(out, "{p} {v}");
        }
        for (name, r) in &self.rates {
            let p = head(&mut out, name, MetricKind::Rate);
            let (w, last) = (r.window_nanos(), r.last());
            let _ = writeln!(out, "{p}{{window_nanos=\"{w}\"}} {last}");
        }
        for (name, h) in &self.histograms {
            let p = head(&mut out, name, MetricKind::Histogram);
            let mut below = 0;
            for (bound, count) in h.bounds().iter().zip(h.counts()) {
                below += count;
                let _ = writeln!(out, "{p}_bucket{{le=\"{bound}\"}} {below}");
            }
            let _ = writeln!(out, "{p}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{p}_sum {}\n{p}_count {}", h.sum(), h.count());
        }
        out
    }
}

/// Write a family's header, from the catalog when it names it, and
/// return its Prometheus name.
fn head(out: &mut String, name: &str, kind: MetricKind) -> String {
    let p = prometheus_name(name);
    if let Some(s) = spec_for(name) {
        let _ = writeln!(out, "# HELP {p} {} [{}]", s.help, s.unit);
        let _ = writeln!(out, "# TYPE {p} {}", s.kind.prometheus_type());
    } else {
        let _ = writeln!(out, "# TYPE {p} {}", kind.prometheus_type());
    }
    p
}

/// The names a case draws from: `tricky` (a catalogued name, the same
/// text through a second pointer, a prefix sharing a name's address)
/// and `many`, more names than the cache has ways.
struct Names {
    tricky: Vec<&'static str>,
    many: Vec<&'static str>,
}

impl Names {
    fn new() -> Names {
        let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
        let long: &'static str = "io.requests";
        Names {
            tricky: vec![long, leak(long.to_string()), &long[..2], "io", "db.queries"],
            many: (0..80).map(|i| leak(format!("m{i}"))).collect(),
        }
    }

    fn draw(&self, g: &mut Gen) -> &'static str {
        let pool = if g.bool() { &self.tricky } else { &self.many };
        g.pick(pool)
    }
}

/// Bounds and window of a name: fixed per text, so a merge meets the
/// same ones on both sides.
fn bounds(name: &str) -> &'static [f64] {
    [SECONDS_BUCKETS, COUNT_BUCKETS][name.len() % 2]
}

fn window(name: &str) -> u64 {
    10 + 7 * name.len() as u64
}

/// Draw `ops` mutations and apply each to both sides; `clock` is the
/// simulated time, which only moves forward. A shard's registry
/// (`shard`) merges nothing in.
fn run(
    g: &mut Gen,
    names: &Names,
    ops: usize,
    shard: bool,
    clock: &mut u64,
    reg: &mut Registry,
    spec: &mut Spec,
) {
    for _ in 0..ops {
        let name = names.draw(g);
        match g.below(8) {
            0 => {
                let delta = g.below(5);
                reg.add(name, delta);
                *spec.counters.entry(name).or_insert(0) += delta;
            }
            1 => {
                let v = g.pick(&[0.5, -1.25, 3.0]);
                reg.set_gauge(name, v);
                spec.gauges.insert(name, v);
            }
            2 => {
                let d = g.pick(&[0.5, -1.25, 1e-3]);
                reg.add_gauge(name, d);
                *spec.gauges.entry(name).or_insert(0.0) += d;
            }
            3 | 4 => {
                let v = g.pick(&[0.0, 1e-5, 0.25, 3.0, 1e3]);
                reg.observe(name, bounds(name), v);
                let fresh = || Histogram::new(bounds(name));
                spec.histograms.entry(name).or_insert_with(fresh).observe(v);
            }
            5 => {
                *clock += g.below(60);
                let delta = g.below(4);
                reg.rate_add(name, window(name), *clock, delta);
                let fresh = || RateWindow::new(window(name));
                spec.rates
                    .entry(name)
                    .or_insert_with(fresh)
                    .add(*clock, delta);
            }
            6 => {
                reg.roll_rates(*clock);
                spec.rates.values_mut().for_each(|r| r.roll_to(*clock));
            }
            _ if !shard => {
                // A shard's registry, rolled with this one to a common
                // instant (rate windows must line up), folded in.
                let (mut other, mut other_spec) = (Registry::new(), Spec::default());
                run(g, names, ops / 4, true, clock, &mut other, &mut other_spec);
                for (r, s) in [(&mut *reg, &mut *spec), (&mut other, &mut other_spec)] {
                    r.roll_rates(*clock);
                    s.rates.values_mut().for_each(|w| w.roll_to(*clock));
                }
                reg.merge_from(&other);
                spec.merge_from(&other_spec);
            }
            _ => {}
        }
    }
}

#[test]
fn registry_matches_its_btreemap_spec() {
    let names = Names::new();
    grail_prop::check(256, |g| {
        let ops = g.vec(0..400, |_| ()).len();
        let (mut reg, mut spec, mut clock) = (Registry::new(), Spec::default(), 0);
        run(g, &names, ops, false, &mut clock, &mut reg, &mut spec);
        let (prev, prev_spec) = (reg.clone(), spec.clone());
        run(g, &names, 1, false, &mut clock, &mut reg, &mut spec);

        for name in names.tricky.iter().chain(&names.many).chain(&["never"]) {
            assert_eq!(
                reg.counter(name),
                spec.counters.get(name).copied().unwrap_or(0)
            );
            assert_eq!(reg.gauge(name), spec.gauges.get(name).copied(), "{name}");
            assert_eq!(reg.histogram(name), spec.histograms.get(name), "{name}");
            assert_eq!(reg.rate(name), spec.rates.get(name), "{name}");
        }
        assert_eq!(Snapshot::capture(clock, &reg), spec.snapshot(clock));
        assert_eq!(to_prometheus(&reg), spec.prometheus());
        // Equality reads contents, not the order names were first used
        // in: a copy built by merging takes them in name order.
        let mut rebuilt = Registry::new();
        rebuilt.merge_from(&reg);
        assert!(rebuilt == reg && reg == reg.clone());
        assert_eq!(reg == prev, spec == prev_spec);
        assert_eq!(reg.is_empty(), spec == Spec::default());
    });
}
