//! Binned time series for power/utilization-over-time plots.
//!
//! Experiments that want a Fig.-1-style curve (or a power trace for
//! EXPERIMENTS.md) feed reservations/intervals here; the series integrates
//! energy into fixed-width bins and reports average power per bin.

use grail_power::units::{Joules, SimDuration, SimInstant, Watts};

/// A fixed-bin energy accumulator producing an average-power series.
#[derive(Debug, Clone)]
pub struct BinnedSeries {
    bin: SimDuration,
    /// Joules accumulated per bin.
    bins: Vec<f64>,
}

impl BinnedSeries {
    /// A series with bins of width `bin`.
    ///
    /// # Panics
    /// Panics on a zero bin width.
    pub fn new(bin: SimDuration) -> Self {
        assert!(!bin.is_zero(), "bin width must be positive");
        BinnedSeries {
            bin,
            bins: Vec::new(),
        }
    }

    /// Accumulate a constant draw of `power` over `[start, end)`,
    /// splitting it exactly across bin boundaries.
    pub fn add_interval(&mut self, start: SimInstant, end: SimInstant, power: Watts) {
        if end <= start || power.get() <= 0.0 {
            return;
        }
        let bin_ns = self.bin.as_nanos();
        let mut t = start.as_nanos();
        let end_ns = end.as_nanos();
        while t < end_ns {
            let idx = (t / bin_ns) as usize;
            let bin_end = (idx as u64 + 1) * bin_ns;
            let seg_end = bin_end.min(end_ns);
            let seg = SimDuration::from_nanos(seg_end - t);
            if idx >= self.bins.len() {
                self.bins.resize(idx + 1, 0.0);
            }
            self.bins[idx] += (power * seg).joules();
            t = seg_end;
        }
    }

    /// The average-power series: one `(bin_start, avg_power)` per bin.
    pub fn power_series(&self) -> Vec<(SimInstant, Watts)> {
        let w = self.bin.as_secs_f64();
        self.bins
            .iter()
            .enumerate()
            .map(|(i, j)| {
                (
                    SimInstant::EPOCH + self.bin * i as u64,
                    Watts::new((j / w).max(0.0)),
                )
            })
            .collect()
    }

    /// Total energy across all bins.
    pub fn total_energy(&self) -> Joules {
        Joules::new(self.bins.iter().sum::<f64>().max(0.0))
    }

    /// Number of bins touched.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Render the average-power series as a two-column CSV with the
    /// given headers: bin-start seconds, then average Watts. Output is
    /// deterministic (Rust's shortest-roundtrip float formatting), so
    /// `figures/` files regenerate byte-identically.
    pub fn to_csv(&self, time_header: &str, value_header: &str) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{time_header},{value_header}\n");
        for (t, w) in self.power_series() {
            let _ = writeln!(
                out,
                "{},{}",
                t.duration_since(SimInstant::EPOCH).as_secs_f64(),
                w.get()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(s: f64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn interval_splits_across_bins() {
        let mut s = BinnedSeries::new(SimDuration::from_secs(1));
        s.add_interval(at(0.5), at(2.5), Watts::new(10.0));
        let series = s.power_series();
        assert_eq!(series.len(), 3);
        assert!((series[0].1.get() - 5.0).abs() < 1e-9);
        assert!((series[1].1.get() - 10.0).abs() < 1e-9);
        assert!((series[2].1.get() - 5.0).abs() < 1e-9);
        assert!((s.total_energy().joules() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let mut s = BinnedSeries::new(SimDuration::from_secs(1));
        assert!(s.is_empty());
        s.add_interval(at(5.0), at(5.0), Watts::new(10.0)); // zero length
        s.add_interval(at(6.0), at(5.0), Watts::new(10.0)); // backwards
        s.add_interval(at(0.0), at(1.0), Watts::ZERO); // zero power
        assert!(s.is_empty());
    }

    #[test]
    fn csv_export_is_deterministic_and_headed() {
        let mut s = BinnedSeries::new(SimDuration::from_secs(1));
        s.add_interval(at(0.0), at(2.0), Watts::new(10.0));
        let csv = s.to_csv("t_s", "avg_w");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_s,avg_w");
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "0,10");
        assert_eq!(lines[2], "1,10");
        assert_eq!(csv, s.to_csv("t_s", "avg_w"));
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_rejected() {
        let _ = BinnedSeries::new(SimDuration::ZERO);
    }

    #[test]
    fn energy_conserved_under_binning() {
        let mut s = BinnedSeries::new(SimDuration::from_millis(250));
        s.add_interval(at(0.1), at(7.9), Watts::new(13.5));
        let expect = 13.5 * 7.8;
        assert!((s.total_energy().joules() - expect).abs() < 1e-6);
    }
}
