//! Energy-proportionality models and metrics (Barroso & Hölzle, cited by
//! the paper as \[BH07\]).
//!
//! A server's power-vs-utilization curve determines whether its energy
//! efficiency is constant across load (ideal proportionality) or collapses
//! at the low utilizations where real servers spend most of their lives
//! (the 10–50% band \[BH07\] observed). [`PowerCurve`] models the curve;
//! the metrics here quantify how far a machine is from proportional.

use crate::units::{EnergyEfficiency, Watts};

/// Shape of a power-vs-utilization curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CurveShape {
    /// `P(u) = idle + (peak - idle) · u` — the classic server: a large
    /// constant floor plus a modest dynamic range.
    Linear,
    /// `P(u) = peak · u` — the energy-proportional ideal: "no power when
    /// not used and power only in proportion to delivered performance".
    Ideal,
    /// `P(u) = idle + (peak - idle) · u^e` — sub-linear (`e < 1`, power
    /// rises fast then flattens, the worst case) or super-linear
    /// (`e > 1`, dominated by a near-peak knee).
    Power {
        /// The exponent `e`.
        exponent: f64,
    },
}

/// A component's or server's power as a function of utilization in
/// `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCurve {
    /// Power at zero utilization.
    pub idle: Watts,
    /// Power at full utilization.
    pub peak: Watts,
    /// Curve shape between the endpoints.
    pub shape: CurveShape,
}

impl PowerCurve {
    /// A linear curve between `idle` and `peak`.
    pub fn linear(idle: Watts, peak: Watts) -> Self {
        assert!(idle.get() <= peak.get(), "idle power above peak");
        PowerCurve {
            idle,
            peak,
            shape: CurveShape::Linear,
        }
    }

    /// The energy-proportional ideal peaking at `peak`.
    pub fn ideal(peak: Watts) -> Self {
        PowerCurve {
            idle: Watts::ZERO,
            peak,
            shape: CurveShape::Ideal,
        }
    }

    /// A curve typical of the TPC-C/SPECpower-era servers the paper cites
    /// (\[PN08\], \[Riv08\]): "little power variance from no load to peak
    /// use" — idle is 75% of peak.
    pub fn classic_server(peak: Watts) -> Self {
        PowerCurve::linear(peak * 0.75, peak)
    }

    /// Power at utilization `u` (clamped to `[0, 1]`).
    #[inline]
    pub fn power_at(&self, u: f64) -> Watts {
        let u = u.clamp(0.0, 1.0);
        let span = self.peak.get() - self.idle.get();
        let w = match self.shape {
            CurveShape::Linear => self.idle.get() + span * u,
            CurveShape::Ideal => self.peak.get() * u,
            CurveShape::Power { exponent } => self.idle.get() + span * u.powf(exponent.max(0.0)),
        };
        Watts::new(w.max(0.0))
    }

    /// Energy efficiency at utilization `u`, with performance proportional
    /// to utilization and `peak_perf` work/s at `u = 1`.
    pub fn efficiency_at(&self, u: f64, peak_perf: f64) -> EnergyEfficiency {
        let u = u.clamp(0.0, 1.0);
        EnergyEfficiency::from_perf_power(peak_perf * u, self.power_at(u))
    }

    /// Dynamic power range `(peak - idle) / peak` in `[0, 1]`; ~1 for
    /// proportional hardware, near 0 for the rigid servers of Sec. 2.4.
    pub fn dynamic_range(&self) -> f64 {
        if self.peak.get() <= 0.0 {
            0.0
        } else {
            (self.peak.get() - self.idle.get()) / self.peak.get()
        }
    }

    /// Energy-proportionality index in `[0, 1]`: 1 minus the mean excess
    /// power over the ideal curve, normalized by peak. 1.0 means ideal
    /// proportionality; a classic 75%-idle server scores ~0.25 over a
    /// uniform utilization distribution.
    pub fn proportionality_index(&self) -> f64 {
        const STEPS: usize = 1000;
        let mut excess = 0.0;
        for i in 0..=STEPS {
            let u = i as f64 / STEPS as f64;
            let actual = self.power_at(u).get();
            let ideal = self.peak.get() * u;
            excess += (actual - ideal).max(0.0);
        }
        let mean_excess = excess / (STEPS + 1) as f64;
        if self.peak.get() <= 0.0 {
            return 0.0;
        }
        (1.0 - mean_excess / self.peak.get()).clamp(0.0, 1.0)
    }

    /// Sample `(utilization, power, efficiency)` at `n + 1` evenly spaced
    /// utilizations — the series behind the \[BH07\]-style figure.
    pub fn sample(&self, n: usize, peak_perf: f64) -> Vec<ProportionalitySample> {
        (0..=n)
            .map(|i| {
                let u = i as f64 / n.max(1) as f64;
                ProportionalitySample {
                    utilization: u,
                    power: self.power_at(u),
                    efficiency: self.efficiency_at(u, peak_perf),
                }
            })
            .collect()
    }
}

/// One sampled point of a proportionality curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionalitySample {
    /// Utilization in `[0, 1]`.
    pub utilization: f64,
    /// Power drawn at this utilization.
    pub power: Watts,
    /// Energy efficiency at this utilization.
    pub efficiency: EnergyEfficiency,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_curve_constant_efficiency() {
        let c = PowerCurve::ideal(Watts::new(400.0));
        let e50 = c.efficiency_at(0.5, 1000.0).work_per_joule();
        let e100 = c.efficiency_at(1.0, 1000.0).work_per_joule();
        assert!((e50 - e100).abs() < 1e-9, "ideal EE must be load-invariant");
        assert!((c.dynamic_range() - 1.0).abs() < 1e-12);
        assert!(c.proportionality_index() > 0.999);
    }

    #[test]
    fn classic_server_efficiency_collapses_at_low_load() {
        let c = PowerCurve::classic_server(Watts::new(400.0));
        let e10 = c.efficiency_at(0.1, 1000.0).work_per_joule();
        let e100 = c.efficiency_at(1.0, 1000.0).work_per_joule();
        // At 10% load a 75%-idle server is far less efficient than at peak.
        assert!(e10 < 0.35 * e100, "e10={e10} e100={e100}");
        assert!((c.dynamic_range() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn linear_power_values() {
        let c = PowerCurve::linear(Watts::new(100.0), Watts::new(200.0));
        assert!((c.power_at(0.0).get() - 100.0).abs() < 1e-12);
        assert!((c.power_at(0.5).get() - 150.0).abs() < 1e-12);
        assert!((c.power_at(1.0).get() - 200.0).abs() < 1e-12);
        // Clamped outside [0,1].
        assert!((c.power_at(2.0).get() - 200.0).abs() < 1e-12);
        assert!((c.power_at(-1.0).get() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn sublinear_curve_is_worse_than_linear() {
        let lin = PowerCurve::linear(Watts::new(100.0), Watts::new(200.0));
        let sub = PowerCurve {
            idle: Watts::new(100.0),
            peak: Watts::new(200.0),
            shape: CurveShape::Power { exponent: 0.5 },
        };
        assert!(sub.power_at(0.25).get() > lin.power_at(0.25).get());
        assert!(sub.proportionality_index() < lin.proportionality_index());
    }

    #[test]
    fn proportionality_index_of_classic_server() {
        let c = PowerCurve::classic_server(Watts::new(400.0));
        // Mean excess over ideal for linear idle=0.75·peak is
        // 0.75·peak·(1-u) averaged = 0.375·peak ⇒ index 0.625.
        let idx = c.proportionality_index();
        assert!((idx - 0.625).abs() < 0.01, "idx={idx}");
    }

    #[test]
    fn sample_grid() {
        let c = PowerCurve::ideal(Watts::new(100.0));
        let s = c.sample(10, 500.0);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].utilization, 0.0);
        assert_eq!(s[10].utilization, 1.0);
        assert!((s[5].power.get() - 50.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "idle power above peak")]
    fn linear_requires_idle_below_peak() {
        let _ = PowerCurve::linear(Watts::new(300.0), Watts::new(200.0));
    }
}
