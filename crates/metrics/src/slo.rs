//! Declarative service-level objectives evaluated over a scrape series,
//! with multi-window burn-rate alerting.
//!
//! Each [`SloSpec`] names the metric(s) it watches and a bound. Per
//! scrape window (the delta between consecutive snapshots) the engine
//! computes a **burn**: the fraction of the objective's bound the
//! window consumed, where 1.0 sits exactly at the bound. Alerts use the
//! standard two-window rule: fire only when *both* the fast (recent)
//! and slow (sustained) trailing means exceed the threshold — a spike
//! alone does not page, a sustained burn does. Everything is a pure
//! function of the snapshot series, so reports are byte-stable.

use crate::scrape::Snapshot;

/// What an objective watches and the bound it must hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloKind {
    /// The `q`-quantile of `histogram`'s per-window observations must
    /// stay at or below `threshold` (e.g. p99 latency).
    QuantileBelow {
        /// Histogram metric name.
        histogram: &'static str,
        /// Quantile in (0, 1].
        q: f64,
        /// Upper bound on the quantile.
        threshold: f64,
    },
    /// `good / total` (per-window deltas of two series) must stay at or
    /// above `floor` (e.g. availability). Windows with no `total`
    /// traffic are vacuously healthy.
    RatioAtLeast {
        /// Numerator metric (counter or gauge).
        good: &'static str,
        /// Denominator metric (counter or gauge).
        total: &'static str,
        /// Lower bound on the ratio.
        floor: f64,
    },
    /// `num / den` (per-window deltas) must stay at or below `ceiling`
    /// (e.g. Joules per query). Windows with no `den` activity are
    /// vacuously healthy.
    RatioBelow {
        /// Numerator metric (counter or gauge).
        num: &'static str,
        /// Denominator metric (counter or gauge).
        den: &'static str,
        /// Upper bound on the ratio.
        ceiling: f64,
    },
}

/// One declarative objective plus its alerting policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Objective name, quoted in reports.
    pub name: &'static str,
    /// What is watched and the bound.
    pub kind: SloKind,
    /// Trailing windows in the fast (recent) alert window.
    pub fast_windows: usize,
    /// Trailing windows in the slow (sustained) alert window.
    pub slow_windows: usize,
    /// Burn level both trailing means must exceed to alert (1.0 = at
    /// the bound; 2.0 = consuming budget twice as fast as allowed).
    pub burn_threshold: f64,
}

/// A two-window burn-rate alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnAlert {
    /// The scrape boundary that fired the alert, in simulated nanos.
    pub at_nanos: u64,
    /// Mean burn over the fast trailing window.
    pub fast_burn: f64,
    /// Mean burn over the slow trailing window.
    pub slow_burn: f64,
}

/// Evaluation outcome for one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveReport {
    /// Objective name.
    pub name: &'static str,
    /// Scrape windows evaluated.
    pub windows: u64,
    /// Windows whose burn exceeded 1.0 (the bound itself).
    pub breaches: u64,
    /// Worst single-window burn seen.
    pub worst_burn: f64,
    /// Scrape boundary of the worst window, in simulated nanos.
    pub worst_at_nanos: u64,
    /// Two-window alerts, in time order.
    pub alerts: Vec<BurnAlert>,
    /// True when no window breached and no alert fired.
    pub ok: bool,
}

/// Evaluation outcome for a whole objective set.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Per-objective outcomes, in spec order.
    pub objectives: Vec<ObjectiveReport>,
}

impl SloReport {
    /// True when every objective held everywhere.
    pub fn ok(&self) -> bool {
        self.objectives.iter().all(|o| o.ok)
    }
}

/// A metric value usable in ratio deltas: counter (u64) or gauge (f64).
fn sample(s: &Snapshot, name: &str) -> f64 {
    match s.gauge(name) {
        Some(v) => v,
        None => s.counter(name) as f64,
    }
}

/// Per-window burn for one objective over `[prev, cur)`. `None` means
/// the window is vacuous (no traffic to judge).
fn window_burn(kind: &SloKind, prev: Option<&Snapshot>, cur: &Snapshot) -> Option<f64> {
    match *kind {
        SloKind::QuantileBelow {
            histogram,
            q,
            threshold,
        } => {
            let cur_h = cur.histogram(histogram)?;
            let delta = match prev.and_then(|p| p.histogram(histogram)) {
                Some(older) => cur_h.delta_since(older),
                None => cur_h.clone(),
            };
            if delta.count() == 0 {
                return None;
            }
            Some(delta.quantile(q) / threshold)
        }
        SloKind::RatioAtLeast { good, total, floor } => {
            let d_total = sample(cur, total) - prev.map(|p| sample(p, total)).unwrap_or(0.0);
            if d_total <= 0.0 {
                return None;
            }
            let d_good = sample(cur, good) - prev.map(|p| sample(p, good)).unwrap_or(0.0);
            let error_rate = (1.0 - d_good / d_total).max(0.0);
            let budget = (1.0 - floor).max(f64::EPSILON);
            Some(error_rate / budget)
        }
        SloKind::RatioBelow { num, den, ceiling } => {
            let d_den = sample(cur, den) - prev.map(|p| sample(p, den)).unwrap_or(0.0);
            if d_den <= 0.0 {
                return None;
            }
            let d_num = sample(cur, num) - prev.map(|p| sample(p, num)).unwrap_or(0.0);
            Some((d_num / d_den) / ceiling)
        }
    }
}

/// Mean of the last `n` entries of `burns` (vacuous windows count as
/// zero burn — no traffic consumes no budget).
fn trailing_mean(burns: &[Option<f64>], n: usize) -> f64 {
    if n == 0 || burns.is_empty() {
        return 0.0;
    }
    let tail = &burns[burns.len().saturating_sub(n)..];
    tail.iter().map(|b| b.unwrap_or(0.0)).sum::<f64>() / tail.len() as f64
}

/// Evaluate `specs` over `series`, one window per consecutive snapshot
/// pair (the first snapshot forms a window from the empty origin).
pub fn evaluate(specs: &[SloSpec], series: &[Snapshot]) -> SloReport {
    let objectives = specs
        .iter()
        .map(|spec| {
            let mut burns: Vec<Option<f64>> = Vec::with_capacity(series.len());
            let mut breaches = 0u64;
            let mut worst_burn = 0.0f64;
            let mut worst_at = 0u64;
            let mut alerts = Vec::new();
            for (i, cur) in series.iter().enumerate() {
                let prev = if i == 0 { None } else { Some(&series[i - 1]) };
                let burn = window_burn(&spec.kind, prev, cur);
                if let Some(b) = burn {
                    if b > 1.0 {
                        breaches += 1;
                    }
                    if b > worst_burn {
                        worst_burn = b;
                        worst_at = cur.at_nanos;
                    }
                }
                burns.push(burn);
                let fast = trailing_mean(&burns, spec.fast_windows);
                let slow = trailing_mean(&burns, spec.slow_windows);
                if fast > spec.burn_threshold && slow > spec.burn_threshold {
                    alerts.push(BurnAlert {
                        at_nanos: cur.at_nanos,
                        fast_burn: fast,
                        slow_burn: slow,
                    });
                }
            }
            let ok = breaches == 0 && alerts.is_empty();
            ObjectiveReport {
                name: spec.name,
                windows: series.len() as u64,
                breaches,
                worst_burn,
                worst_at_nanos: worst_at,
                alerts,
                ok,
            }
        })
        .collect();
    SloReport { objectives }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Registry, SECONDS_BUCKETS};
    use crate::scrape::{Scraper, SnapshotSeries};

    fn series_from(events: &[(u64, f64)], interval: u64, horizon: u64) -> SnapshotSeries {
        let mut reg = Registry::new();
        let mut sc = Scraper::new(interval);
        for &(t, lat) in events {
            sc.advance(t, &mut reg);
            reg.add("q.total", 1);
            if lat >= 0.0 {
                reg.add("q.good", 1);
                reg.observe("q.secs", SECONDS_BUCKETS, lat);
            }
        }
        sc.finish(horizon, &mut reg);
        sc.series().clone()
    }

    #[test]
    fn healthy_series_holds_every_objective() {
        let events: Vec<(u64, f64)> = (1..50).map(|i| (i * 10, 0.001)).collect();
        let series = series_from(&events, 100, 500);
        let specs = [
            SloSpec {
                name: "p99-latency",
                kind: SloKind::QuantileBelow {
                    histogram: "q.secs",
                    q: 0.99,
                    threshold: 0.05,
                },
                fast_windows: 2,
                slow_windows: 4,
                burn_threshold: 1.0,
            },
            SloSpec {
                name: "availability",
                kind: SloKind::RatioAtLeast {
                    good: "q.good",
                    total: "q.total",
                    floor: 0.99,
                },
                fast_windows: 2,
                slow_windows: 4,
                burn_threshold: 1.0,
            },
        ];
        let report = evaluate(&specs, &series);
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.objectives[0].breaches, 0);
    }

    #[test]
    fn sustained_failures_breach_and_alert() {
        // Every query bad: availability ratio 0, budget 1% ⇒ burn 100.
        let events: Vec<(u64, f64)> = (1..50).map(|i| (i * 10, -1.0)).collect();
        let series = series_from(&events, 100, 500);
        let spec = SloSpec {
            name: "availability",
            kind: SloKind::RatioAtLeast {
                good: "q.good",
                total: "q.total",
                floor: 0.99,
            },
            fast_windows: 2,
            slow_windows: 4,
            burn_threshold: 2.0,
        };
        let report = evaluate(&[spec], &series);
        assert!(!report.ok());
        let o = &report.objectives[0];
        assert!(o.breaches > 0);
        assert!(!o.alerts.is_empty());
        assert!(o.worst_burn > 2.0);
    }

    #[test]
    fn single_spike_does_not_fire_the_two_window_alert() {
        // One bad window among many good ones; slow window stays calm.
        let mut events: Vec<(u64, f64)> = (1..100).map(|i| (i * 10, 0.001)).collect();
        events[50] = (510, -1.0);
        let series = series_from(&events, 100, 1000);
        let spec = SloSpec {
            name: "availability",
            kind: SloKind::RatioAtLeast {
                good: "q.good",
                total: "q.total",
                floor: 0.5,
            },
            fast_windows: 1,
            slow_windows: 8,
            burn_threshold: 0.15,
        };
        let report = evaluate(&[spec], &series);
        let o = &report.objectives[0];
        assert_eq!(o.breaches, 0, "one bad query in ten stays inside budget");
        assert!(o.alerts.is_empty(), "slow window must veto the spike");
        assert!(o.worst_burn > 0.0);
    }

    #[test]
    fn joules_per_query_ceiling_burns_proportionally() {
        let mut reg = Registry::new();
        let mut sc = Scraper::new(100);
        reg.add("db.queries", 10);
        reg.add_gauge("energy.j", 50.0); // 5 J/query against a 10 J ceiling
        sc.finish(100, &mut reg);
        let spec = SloSpec {
            name: "joules-per-query",
            kind: SloKind::RatioBelow {
                num: "energy.j",
                den: "db.queries",
                ceiling: 10.0,
            },
            fast_windows: 1,
            slow_windows: 1,
            burn_threshold: 1.0,
        };
        let report = evaluate(&[spec], &sc.series().clone());
        let o = &report.objectives[0];
        assert!(o.ok);
        assert!((o.worst_burn - 0.5).abs() < 1e-9);
    }
}
