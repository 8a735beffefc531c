//! Scraping: turning the live [`Registry`] into a series of
//! [`Snapshot`]s at fixed simulated intervals.
//!
//! The scraper is driven by the instrumented event loops: whenever
//! simulated time advances to `t`, they call
//! [`Scraper::advance`]`(t, registry)`, which emits one snapshot per
//! interval boundary crossed since the last call (catch-up semantics).
//! The snapshot series is therefore a pure function of the recorded
//! event sequence — identical at any thread count, because a single
//! simulation is always sequential.

use crate::registry::{Histogram, Registry};

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// The histogram state at scrape time.
    pub hist: Histogram,
}

/// The registry's state at one scrape boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The scrape boundary, in simulated nanoseconds.
    pub at_nanos: u64,
    /// Counters in name order.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges in name order.
    pub gauges: Vec<(&'static str, f64)>,
    /// Last-closed-window counts of every rate, in name order.
    pub rates: Vec<(&'static str, u64)>,
    /// Histograms in name order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Capture `reg` at boundary `at_nanos`.
    pub fn capture(at_nanos: u64, reg: &Registry) -> Self {
        Snapshot {
            at_nanos,
            counters: reg.counters().collect(),
            gauges: reg.gauges().collect(),
            rates: reg.rates().map(|(n, r)| (n, r.last())).collect(),
            histograms: reg
                .histograms()
                .map(|(n, h)| HistogramSnapshot {
                    name: n,
                    hist: h.clone(),
                })
                .collect(),
        }
    }

    /// Counter value in this snapshot, or 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Gauge value in this snapshot, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Histogram state in this snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.hist)
    }
}

/// An ordered run of snapshots at fixed intervals.
pub type SnapshotSeries = Vec<Snapshot>;

/// Emits one [`Snapshot`] per elapsed scrape interval of simulated
/// time. The first snapshot lands at `t = interval` (a scrape at the
/// zero boundary would always be empty).
#[derive(Debug, Clone, PartialEq)]
pub struct Scraper {
    interval_nanos: u64,
    next_due_nanos: u64,
    series: SnapshotSeries,
}

impl Scraper {
    /// New scraper over `interval_nanos` (> 0) intervals.
    pub fn new(interval_nanos: u64) -> Self {
        let interval_nanos = interval_nanos.max(1);
        Scraper {
            interval_nanos,
            next_due_nanos: interval_nanos,
            series: Vec::new(),
        }
    }

    /// Simulated time has reached `now_nanos`: emit every snapshot due
    /// at or before it. Call sites invoke this *before* recording the
    /// metrics of the event at `now_nanos`, so a boundary snapshot
    /// never includes values from events past the boundary it reports.
    pub fn advance(&mut self, now_nanos: u64, reg: &mut Registry) {
        while self.next_due_nanos <= now_nanos {
            reg.roll_rates(self.next_due_nanos);
            self.series
                .push(Snapshot::capture(self.next_due_nanos, reg));
            self.next_due_nanos += self.interval_nanos;
        }
    }

    /// Force one final snapshot at `end_nanos` (the run's horizon),
    /// regardless of interval alignment, unless one was already taken
    /// at exactly that boundary.
    pub fn finish(&mut self, end_nanos: u64, reg: &mut Registry) {
        self.advance(end_nanos, reg);
        if self.series.last().map(|s| s.at_nanos) != Some(end_nanos) {
            reg.roll_rates(end_nanos);
            self.series.push(Snapshot::capture(end_nanos, reg));
        }
    }

    /// Snapshots collected so far.
    pub fn series(&self) -> &SnapshotSeries {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::COUNT_BUCKETS;

    #[test]
    fn scraper_emits_one_snapshot_per_boundary_crossed() {
        let mut reg = Registry::new();
        let mut sc = Scraper::new(100);
        reg.add("a", 1);
        sc.advance(50, &mut reg); // inside first interval: nothing yet
        assert!(sc.series().is_empty());
        reg.add("a", 1);
        sc.advance(350, &mut reg); // crosses 100, 200, 300
        let ats: Vec<u64> = sc.series().iter().map(|s| s.at_nanos).collect();
        assert_eq!(ats, vec![100, 200, 300]);
        assert_eq!(sc.series()[0].counter("a"), 2);
    }

    #[test]
    fn finish_forces_a_final_unaligned_snapshot_once() {
        let mut reg = Registry::new();
        let mut sc = Scraper::new(100);
        reg.set_gauge("g", 1.5);
        sc.finish(250, &mut reg);
        let ats: Vec<u64> = sc.series().iter().map(|s| s.at_nanos).collect();
        assert_eq!(ats, vec![100, 200, 250]);
        let mut sc2 = Scraper::new(100);
        sc2.finish(200, &mut reg); // aligned: no duplicate
        let ats2: Vec<u64> = sc2.series().iter().map(|s| s.at_nanos).collect();
        assert_eq!(ats2, vec![100, 200]);
    }

    #[test]
    fn snapshot_captures_all_families() {
        let mut reg = Registry::new();
        reg.add("c", 7);
        reg.set_gauge("g", 0.25);
        reg.observe("h", COUNT_BUCKETS, 2.0);
        reg.rate_add("r", 10, 5, 3);
        let mut sc = Scraper::new(10);
        sc.advance(25, &mut reg);
        let s = &sc.series()[0];
        assert_eq!(s.at_nanos, 10);
        assert_eq!(s.counter("c"), 7);
        assert_eq!(s.gauge("g"), Some(0.25));
        assert_eq!(s.histogram("h").unwrap().count(), 1);
        // Rate window [0, 10) closed with 3 events.
        assert_eq!(s.rates, vec![("r", 3)]);
        // The next boundary's window [10, 20) closed empty.
        assert_eq!(sc.series()[1].rates, vec![("r", 0)]);
    }
}
