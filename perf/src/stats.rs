//! Order statistics over small samples of host timings.

/// Sort a copy of `xs` ascending. Timings are finite by construction; a
/// NaN would be a bug in the caller and sorts last.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending sample, linearly
/// interpolated between closest ranks. Empty samples give NaN.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// The mean of `xs` without its smallest and largest tenth (rounded
/// down, so fewer than ten samples lose none).
///
/// This, not the median, is what throughput metrics divide by. Pass
/// times are not always unimodal — the two shard threads of
/// `run_parallel(cfg, 2)` share a core in some passes and not in
/// others — and a median that sits between two modes jumps from one to
/// the other between runs. A trimmed mean moves smoothly with the mix
/// and still ignores the odd pass a host hiccup stretches.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        return f64::NAN;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First quartile, median and third quartile of `xs`.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    (
        quantile_sorted(&v, 0.25),
        quantile_sorted(&v, 0.5),
        quantile_sorted(&v, 0.75),
    )
}

/// The highest percentile among 99, 95, 90, 75 that `n` samples
/// support — one with at least ten samples beyond it — or `None` when
/// the sample only supports its median.
pub fn supported_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|p| n as f64 * f64::from(100 - p) / 100.0 >= 10.0)
}

/// The `p`-th percentile of `xs` by nearest rank (the smallest sample
/// with at least `p` % of the sample at or below it).
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (f64::from(p.min(100)) / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `min(90, highest supported percentile)` of `xs` and the percentile
/// actually used; samples too small for any tail report their median
/// as percentile 50.
pub fn p90_or_supported(xs: &[f64]) -> (f64, u32) {
    match supported_percentile(xs.len()) {
        Some(p) => {
            let p = p.min(90);
            (percentile(xs, p), p)
        }
        None => (median(xs), 50),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        // Ten samples lose the 1 and the 1000; the rest average 5.5.
        let mut xs: Vec<f64> = (2..=9).map(f64::from).collect();
        xs.extend([1000.0, 1.0]);
        assert_eq!(trimmed_mean(&xs), 5.5);
        // Fewer than ten lose none.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(trimmed_mean(&[]).is_nan());
        // Two modes: the value moves with the mix, as a median would not.
        let even: Vec<f64> = [20.0; 10].into_iter().chain([30.0; 10]).collect();
        let more: Vec<f64> = [20.0; 8].into_iter().chain([30.0; 12]).collect();
        assert_eq!(trimmed_mean(&even), 25.0);
        assert_eq!(trimmed_mean(&more), 26.25);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (3.0, 5.0, 7.0));
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q1, q2, q3), (1.75, 2.5, 3.25));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(39), None);
        assert_eq!(supported_percentile(40), Some(75));
        assert_eq!(supported_percentile(99), Some(75));
        assert_eq!(supported_percentile(100), Some(90));
        assert_eq!(supported_percentile(199), Some(90));
        assert_eq!(supported_percentile(200), Some(95));
        assert_eq!(supported_percentile(1000), Some(99));
    }

    #[test]
    fn p90_falls_back_to_what_the_sample_supports() {
        let big: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90_or_supported(&big), (90.0, 90));
        let huge: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p90_or_supported(&huge), (900.0, 90));
        let mid: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(p90_or_supported(&mid), (30.0, 75));
        let small: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(p90_or_supported(&small), (5.0, 50));
    }
}
