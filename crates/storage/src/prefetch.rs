//! Energy-efficient burst prefetching, after Papathanasiou & Scott
//! (\[PS04\], cited in Sec. 4.2).
//!
//! A steadily consumed scan keeps a device trickling — never idle long
//! enough to enter a low-power state. Fetching the same pages in bursts
//! of `B` concentrates device activity and opens idle gaps of
//! `(B-1) × consume_interval` between bursts; if a gap exceeds the
//! device's break-even time, the governor can park it. The price is
//! `B` pages of buffer space and a deeper prefetch horizon.

use grail_power::units::{SimDuration, SimInstant};
use serde::{Deserialize, Serialize};

/// One planned burst: fetch `pages` pages at `fetch_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Burst {
    /// When the burst is issued.
    pub fetch_at: SimInstant,
    /// Index of the first page in the burst.
    pub first_page: u64,
    /// Number of pages fetched.
    pub pages: u32,
}

/// A burst prefetch plan for a sequential scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurstPlan {
    /// The bursts, in time order.
    pub bursts: Vec<Burst>,
    /// Interval at which the consumer drains one page.
    pub consume_interval: SimDuration,
    /// Burst size (pages of buffer required).
    pub burst_size: u32,
}

impl BurstPlan {
    /// Plan a scan of `total_pages` consumed one page per
    /// `consume_interval`, fetched in bursts of `burst_size`.
    ///
    /// Burst `k` must complete before page `k·B` is consumed, so it is
    /// issued at the consumption time of that page minus `fetch_lead`
    /// (the device time to deliver a burst), clamped to the epoch.
    pub fn plan(
        total_pages: u64,
        consume_interval: SimDuration,
        burst_size: u32,
        fetch_lead: SimDuration,
    ) -> Self {
        assert!(burst_size > 0, "burst size must be positive");
        let mut bursts = Vec::new();
        let mut page = 0u64;
        while page < total_pages {
            let pages = burst_size.min((total_pages - page) as u32);
            let consume_at = SimInstant::EPOCH + consume_interval * page;
            let fetch_at = SimInstant::EPOCH
                + consume_at
                    .duration_since(SimInstant::EPOCH)
                    .saturating_sub(fetch_lead);
            bursts.push(Burst {
                fetch_at,
                first_page: page,
                pages,
            });
            page += pages as u64;
        }
        BurstPlan {
            bursts,
            consume_interval,
            burst_size,
        }
    }

    /// The idle gaps between bursts (fetch-to-fetch minus the lead the
    /// device spends delivering), i.e. the windows a governor can use.
    pub fn idle_gaps(&self, burst_service: SimDuration) -> Vec<SimDuration> {
        self.bursts
            .windows(2)
            .map(|w| {
                w[1].fetch_at
                    .saturating_duration_since(w[0].fetch_at + burst_service)
            })
            .collect()
    }

    /// The smallest burst size whose inter-burst idle gap exceeds
    /// `break_even`, given per-page consume interval and burst service
    /// time. Returns `None` if even the maximum buffer cannot open a
    /// long-enough gap.
    pub fn min_burst_for_gap(
        consume_interval: SimDuration,
        burst_service_per_page: SimDuration,
        break_even: SimDuration,
        max_burst: u32,
    ) -> Option<u32> {
        for b in 1..=max_burst {
            // Gap between bursts of size b: b pages of consumption minus
            // the service time of the next burst.
            let cycle = consume_interval * b as u64;
            let service = burst_service_per_page * b as u64;
            let gap = cycle.saturating_sub(service);
            if gap > break_even {
                return Some(b);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn plan_covers_all_pages_exactly_once() {
        let plan = BurstPlan::plan(103, secs(0.1), 10, secs(0.05));
        let total: u64 = plan.bursts.iter().map(|b| b.pages as u64).sum();
        assert_eq!(total, 103);
        assert_eq!(plan.bursts.last().unwrap().pages, 3);
        // Pages are contiguous.
        let mut next = 0u64;
        for b in &plan.bursts {
            assert_eq!(b.first_page, next);
            next += b.pages as u64;
        }
    }

    #[test]
    fn bigger_bursts_open_bigger_gaps() {
        let service = secs(0.2);
        let small = BurstPlan::plan(1000, secs(0.1), 5, secs(0.05));
        let large = BurstPlan::plan(1000, secs(0.1), 50, secs(0.05));
        // Skip the first gap: burst 0's fetch time is clamped at the
        // epoch, which shortens it by the fetch lead.
        let small_gap = small.idle_gaps(service)[1];
        let large_gap = large.idle_gaps(service)[1];
        assert!(large_gap > small_gap, "{large_gap} vs {small_gap}");
        // 50 pages × 0.1 s = 5 s cycle minus 0.2 s service = 4.8 s gap.
        assert!((large_gap.as_secs_f64() - 4.8).abs() < 0.01, "{large_gap}");
    }

    #[test]
    fn min_burst_matches_break_even() {
        // Consume 0.1 s/page, serve 0.01 s/page, break-even 5 s:
        // gap(b) = b×0.09 > 5 ⇒ b ≥ 56.
        let b = BurstPlan::min_burst_for_gap(secs(0.1), secs(0.01), secs(5.0), 1000).unwrap();
        assert_eq!(b, 56);
    }

    #[test]
    fn min_burst_none_when_infeasible() {
        // Service as slow as consumption: no gap ever opens.
        assert_eq!(
            BurstPlan::min_burst_for_gap(secs(0.1), secs(0.1), secs(1.0), 1000),
            None
        );
    }

    #[test]
    fn fetch_lead_clamped_at_epoch() {
        let plan = BurstPlan::plan(10, secs(0.1), 5, secs(99.0));
        assert_eq!(plan.bursts[0].fetch_at, SimInstant::EPOCH);
    }

    #[test]
    #[should_panic(expected = "burst size")]
    fn zero_burst_rejected() {
        let _ = BurstPlan::plan(10, secs(0.1), 0, secs(0.0));
    }
}
