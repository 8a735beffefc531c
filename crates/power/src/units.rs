//! Dimensioned units for simulated time, power, energy, data volume and
//! CPU work.
//!
//! Time is kept as integer **nanoseconds** so that event ordering in the
//! simulator is exact; power and energy are `f64` because they are only
//! ever integrated/aggregated, never used for ordering.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

// ---------------------------------------------------------------------------
// SimDuration / SimInstant
// ---------------------------------------------------------------------------

/// A span of simulated time, in integer nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration (~584 simulated years).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// A duration of `nanos` nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// A duration of `micros` microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// A duration of `millis` milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// A duration of `secs` whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// A duration of `secs` fractional seconds, rounded to the nearest
    /// nanosecond. Negative or non-finite inputs saturate to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let nanos = secs * NANOS_PER_SEC as f64;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(nanos.round() as u64)
        }
    }

    /// This duration in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Addition that clamps at [`SimDuration::MAX`] instead of overflowing.
    #[inline]
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Subtraction that clamps at zero instead of underflowing.
    #[inline]
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplication by an integer factor that clamps at
    /// [`SimDuration::MAX`] instead of overflowing — the safe form of
    /// `dur * n` for factors derived from untrusted exponents (retry
    /// backoff, breaker quarantines).
    #[inline]
    pub const fn saturating_mul(self, n: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(n))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc.saturating_add(d))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A point in simulated time, in integer nanoseconds since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The simulation epoch (t = 0).
    pub const EPOCH: SimInstant = SimInstant(0);
    /// The largest representable instant.
    pub const MAX: SimInstant = SimInstant(u64::MAX);

    /// The instant `nanos` nanoseconds after the epoch.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimInstant(nanos)
    }

    /// The instant `secs` fractional seconds after the epoch.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimInstant(SimDuration::from_secs_f64(secs).as_nanos())
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; simulated time never runs
    /// backwards, so this indicates a logic error in the caller.
    #[inline]
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: earlier ({}) is after self ({})",
            earlier.0,
            self.0
        );
        SimDuration(self.0 - earlier.0)
    }

    /// `duration_since` that yields zero instead of panicking.
    #[inline]
    pub const fn saturating_duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// `self + d`, or [`SimInstant::MAX`] where that would overflow: a
    /// deadline that saturated durations put past every horizon.
    #[inline]
    pub const fn saturating_add(self, d: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(d.as_nanos()))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimInstant) -> SimInstant {
        SimInstant(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimInstant) -> SimInstant {
        SimInstant(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<SimDuration> for SimInstant {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 - rhs.as_nanos())
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimInstant) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

// ---------------------------------------------------------------------------
// Watts / Joules
// ---------------------------------------------------------------------------

/// Instantaneous power, in Watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(f64);

impl Watts {
    /// Zero power.
    pub const ZERO: Watts = Watts(0.0);

    /// `w` Watts.
    ///
    /// # Panics
    /// Panics on negative or non-finite input: components never *produce*
    /// power, and a NaN would silently poison every downstream ledger sum.
    #[inline]
    pub fn new(w: f64) -> Self {
        assert!(w.is_finite() && w >= 0.0, "invalid power: {w} W");
        Watts(w)
    }

    /// The raw Watt value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The energy drawn over `secs` seconds: `self * d` is
    /// `self.for_secs(d.as_secs_f64())`, so a caller pricing many draws
    /// over one interval converts it once.
    #[inline]
    pub(crate) fn for_secs(self, secs: f64) -> Joules {
        Joules(self.0 * secs)
    }
}

impl Add for Watts {
    type Output = Watts;
    #[inline]
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    #[inline]
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    #[inline]
    fn sub(self, rhs: Watts) -> Watts {
        Watts((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Mul<SimDuration> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: SimDuration) -> Joules {
        self.for_secs(rhs.as_secs_f64())
    }
}

impl Mul<Watts> for SimDuration {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts::ZERO, |acc, w| acc + w)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}W", self.0)
    }
}

/// An amount of energy, in Joules. `1 J = 1 W × 1 s` (paper, Sec. 2.1).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(f64);

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// `j` Joules.
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    #[inline]
    pub fn new(j: f64) -> Self {
        assert!(j.is_finite() && j >= 0.0, "invalid energy: {j} J");
        Joules(j)
    }

    /// The raw Joule value.
    #[inline]
    pub const fn joules(self) -> f64 {
        self.0
    }

    /// This energy in kilowatt-hours (the billing unit of Sec. 2.2).
    #[inline]
    pub fn as_kwh(self) -> f64 {
        self.0 / 3_600_000.0
    }

    /// Average power if this energy were spent evenly over `d`.
    ///
    /// Returns zero power for a zero-length interval.
    #[inline]
    pub fn avg_power_over(self, d: SimDuration) -> Watts {
        if d.is_zero() {
            Watts::ZERO
        } else {
            Watts(self.0 / d.as_secs_f64())
        }
    }

    /// The energy-delay product of this energy and `d` (Sec. 3.1's
    /// balanced figure of merit): `E × T`, in Joule-seconds.
    #[inline]
    pub fn delay_product(self, d: SimDuration) -> JouleSeconds {
        JouleSeconds(self.0 * d.as_secs_f64())
    }
}

impl Add for Joules {
    type Output = Joules;
    #[inline]
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    #[inline]
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    #[inline]
    fn sub(self, rhs: Joules) -> Joules {
        Joules((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Joules {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: f64) -> Joules {
        Joules(self.0 * rhs)
    }
}

impl Div<f64> for Joules {
    type Output = Joules;
    #[inline]
    fn div(self, rhs: f64) -> Joules {
        Joules(self.0 / rhs)
    }
}

impl Div<Joules> for Joules {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Joules) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        iter.fold(Joules::ZERO, |acc, j| acc + j)
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}J", self.0)
    }
}

/// An energy-delay product, in Joule-seconds (`E × T`).
///
/// EDP is the referee metric between a performance-first and an
/// energy-first configuration: it penalizes both wasted Joules and
/// wasted wall-clock equally. Build one with
/// [`Joules::delay_product`]; it is ordered so callers can `min_by`
/// over candidate configurations without unwrapping raw `f64`s.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct JouleSeconds(f64);

impl JouleSeconds {
    /// Zero energy-delay product.
    pub const ZERO: JouleSeconds = JouleSeconds(0.0);

    /// `js` Joule-seconds.
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    #[inline]
    pub fn new(js: f64) -> Self {
        assert!(
            js.is_finite() && js >= 0.0,
            "invalid energy-delay product: {js} J*s"
        );
        JouleSeconds(js)
    }

    /// The raw Joule-second value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Total order for ranking configurations (the payload is finite by
    /// construction, so `partial_cmp` cannot fail).
    #[inline]
    pub fn total_cmp(&self, other: &JouleSeconds) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for JouleSeconds {
    type Output = JouleSeconds;
    #[inline]
    fn add(self, rhs: JouleSeconds) -> JouleSeconds {
        JouleSeconds(self.0 + rhs.0)
    }
}

impl fmt::Display for JouleSeconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}J*s", self.0)
    }
}

// ---------------------------------------------------------------------------
// Bytes / Cycles / Hertz
// ---------------------------------------------------------------------------

/// A data volume, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// `n` bytes.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// `n` mebibytes.
    #[inline]
    pub const fn mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// `n` gibibytes.
    #[inline]
    pub const fn gib(n: u64) -> Self {
        Bytes(n * 1024 * 1024 * 1024)
    }

    /// The raw byte count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Time to move this many bytes at `bytes_per_sec`.
    ///
    /// Returns [`SimDuration::MAX`] for a non-positive rate.
    #[inline]
    pub fn time_at_rate(self, bytes_per_sec: f64) -> SimDuration {
        if bytes_per_sec <= 0.0 {
            SimDuration::MAX
        } else {
            SimDuration::from_secs_f64(self.0 as f64 / bytes_per_sec)
        }
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |acc, b| acc + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
        let mut v = self.0 as f64;
        let mut u = 0;
        while v >= 1024.0 && u < UNITS.len() - 1 {
            v /= 1024.0;
            u += 1;
        }
        write!(f, "{v:.1}{}", UNITS[u])
    }
}

/// An amount of CPU work, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// `n` cycles.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// The raw cycle count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Time to execute this many cycles at clock `f`.
    #[inline]
    pub fn time_at(self, f: Hertz) -> SimDuration {
        if f.get() <= 0.0 {
            SimDuration::MAX
        } else {
            SimDuration::from_secs_f64(self.0 as f64 / f.get())
        }
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |acc, c| acc + c)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// A frequency, in Hertz (cycles per second).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Hertz(f64);

impl Hertz {
    /// `hz` Hertz.
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    #[inline]
    pub fn new(hz: f64) -> Self {
        assert!(hz.is_finite() && hz >= 0.0, "invalid frequency: {hz} Hz");
        Hertz(hz)
    }

    /// `ghz` gigahertz.
    #[inline]
    pub fn ghz(ghz: f64) -> Self {
        Hertz::new(ghz * 1e9)
    }

    /// The raw Hz value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}GHz", self.0 / 1e9)
    }
}

// ---------------------------------------------------------------------------
// Energy efficiency
// ---------------------------------------------------------------------------

/// Energy efficiency: "computing work done per unit energy" (paper,
/// Sec. 2.1) — the miles-per-gallon of a data management system.
///
/// Work is a caller-defined scalar (queries completed, tuples scanned,
/// records sorted, …); units are work/Joule.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct EnergyEfficiency(f64);

impl EnergyEfficiency {
    /// Efficiency from work done and energy spent. Zero energy yields zero
    /// efficiency (no free lunch, and no infinities in reports).
    #[inline]
    pub fn from_work_energy(work: f64, energy: Joules) -> Self {
        if energy.joules() <= 0.0 {
            EnergyEfficiency(0.0)
        } else {
            EnergyEfficiency(work / energy.joules())
        }
    }

    /// Efficiency from a performance rate (work/s) and power draw — the
    /// paper's equivalent formulation `EE = Perf / Power`.
    #[inline]
    pub fn from_perf_power(work_per_sec: f64, power: Watts) -> Self {
        if power.get() <= 0.0 {
            EnergyEfficiency(0.0)
        } else {
            EnergyEfficiency(work_per_sec / power.get())
        }
    }

    /// Work per Joule.
    #[inline]
    pub const fn work_per_joule(self) -> f64 {
        self.0
    }
}

impl fmt::Display for EnergyEfficiency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6e}/J", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_product_is_energy_times_delay() {
        let edp = Joules::new(10.0).delay_product(SimDuration::from_secs(3));
        assert!((edp.get() - 30.0).abs() < 1e-12);
        assert_eq!(edp + JouleSeconds::new(2.0), JouleSeconds::new(32.0));
        assert_eq!(format!("{edp}"), "30.00J*s");
    }

    #[test]
    fn delay_product_orders_configurations() {
        let fast = Joules::new(20.0).delay_product(SimDuration::from_secs(1));
        let green = Joules::new(5.0).delay_product(SimDuration::from_secs(10));
        assert!(fast < green);
        assert_eq!(fast.total_cmp(&green), std::cmp::Ordering::Less);
        assert_eq!(
            JouleSeconds::ZERO.total_cmp(&JouleSeconds::ZERO),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    #[should_panic(expected = "invalid energy-delay product")]
    fn negative_delay_product_panics() {
        let _ = JouleSeconds::new(-1.0);
    }

    #[test]
    fn duration_roundtrip_secs() {
        let d = SimDuration::from_secs_f64(3.25);
        assert_eq!(d.as_nanos(), 3_250_000_000);
        assert!((d.as_secs_f64() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn duration_from_negative_or_nan_is_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn duration_saturating_ops() {
        assert_eq!(
            SimDuration::MAX.saturating_add(SimDuration::from_secs(1)),
            SimDuration::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimInstant::EPOCH;
        let t1 = t0 + SimDuration::from_secs(5);
        assert_eq!(t1.duration_since(t0), SimDuration::from_secs(5));
        assert_eq!(t1 - t0, SimDuration::from_secs(5));
        assert_eq!(
            t1.saturating_duration_since(t1 + SimDuration::from_secs(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn instant_backwards_panics() {
        let t0 = SimInstant::EPOCH + SimDuration::from_secs(1);
        let _ = SimInstant::EPOCH.duration_since(t0);
    }

    #[test]
    fn watts_times_duration_is_joules() {
        // The paper's Fig. 2 arithmetic: 90 W × 3.2 s = 288 J.
        let e = Watts::new(90.0) * SimDuration::from_secs_f64(3.2);
        assert!((e.joules() - 288.0).abs() < 1e-9);
    }

    #[test]
    fn fig2_energy_totals() {
        // Uncompressed: 90 W × 3.2 s + 5 W × 10 s = 338 J.
        let uncompressed = Watts::new(90.0) * SimDuration::from_secs_f64(3.2)
            + Watts::new(5.0) * SimDuration::from_secs(10);
        assert!((uncompressed.joules() - 338.0).abs() < 1e-9);
        // Compressed: 90 W × 5.1 s + 5 W × 5.5 s = 486.5 J (~487 in paper).
        let compressed = Watts::new(90.0) * SimDuration::from_secs_f64(5.1)
            + Watts::new(5.0) * SimDuration::from_secs_f64(5.5);
        assert!((compressed.joules() - 486.5).abs() < 1e-9);
        assert!(compressed > uncompressed);
    }

    #[test]
    #[should_panic(expected = "invalid power")]
    fn negative_watts_panics() {
        let _ = Watts::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid energy")]
    fn nan_joules_panics() {
        let _ = Joules::new(f64::NAN);
    }

    #[test]
    fn joules_kwh() {
        assert!((Joules::new(3_600_000.0).as_kwh() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn avg_power() {
        let p = Joules::new(100.0).avg_power_over(SimDuration::from_secs(4));
        assert!((p.get() - 25.0).abs() < 1e-12);
        assert_eq!(
            Joules::new(100.0).avg_power_over(SimDuration::ZERO),
            Watts::ZERO
        );
    }

    #[test]
    fn bytes_rates_and_display() {
        let b = Bytes::gib(6);
        let t = b.time_at_rate(600.0 * 1024.0 * 1024.0 * 1024.0 / 1024.0 / 1024.0 / 1024.0 * 1e9);
        // 6 GiB at ~6.44e9 B/s ≈ 1 s — sanity only; exact below.
        assert!(t.as_secs_f64() > 0.0);
        let exact = Bytes::new(1000).time_at_rate(500.0);
        assert_eq!(exact, SimDuration::from_secs(2));
        assert_eq!(Bytes::new(0).time_at_rate(0.0), SimDuration::MAX);
        assert_eq!(format!("{}", Bytes::mib(3)), "3.0MiB");
    }

    #[test]
    fn cycles_at_frequency() {
        let t = Cycles::new(2_000_000_000).time_at(Hertz::ghz(2.0));
        assert_eq!(t, SimDuration::from_secs(1));
        assert_eq!(Cycles::new(1).time_at(Hertz::new(0.0)), SimDuration::MAX);
    }

    #[test]
    fn ee_two_formulations_agree() {
        // EE = Work/Energy = Perf/Power for fixed work over fixed time.
        let work = 1000.0;
        let time = SimDuration::from_secs(20);
        let power = Watts::new(250.0);
        let energy = power * time;
        let ee1 = EnergyEfficiency::from_work_energy(work, energy);
        let ee2 = EnergyEfficiency::from_perf_power(work / time.as_secs_f64(), power);
        assert!((ee1.work_per_joule() - ee2.work_per_joule()).abs() < 1e-12);
    }

    #[test]
    fn zero_energy_zero_power_ee() {
        assert_eq!(
            EnergyEfficiency::from_work_energy(5.0, Joules::ZERO).work_per_joule(),
            0.0
        );
        assert_eq!(
            EnergyEfficiency::from_perf_power(5.0, Watts::ZERO).work_per_joule(),
            0.0
        );
    }
}
