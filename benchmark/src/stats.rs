//! The small statistics core: medians, quartiles, percentiles that
//! refuse to report a tail the sample cannot support, and lap medians.

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is how the
/// driver computes spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median — the spread the
/// driver holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The 1-based nearest rank of the `p`-th percentile among `n ≥ 1`.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((n as f64 * p).ceil() as usize).clamp(1, n)
}

/// The `p`-th percentile of an ascending-sorted sample, or `None` when
/// fewer than ten samples lie beyond it: a p99 of 500 samples rests on
/// five values and is not reported.
pub fn percentile_supported(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    if sorted.is_empty() {
        return None;
    }
    let rank = nearest_rank(sorted.len(), p);
    (sorted.len() - rank >= 10).then(|| sorted[rank - 1])
}

/// Half the width, in percentile ranks, of the band a
/// [`banded_percentile`] averages over.
const BAND: f64 = 0.05;

/// The `p`-th percentile of an ascending-sorted sample, smoothed: the
/// mean of the samples ranked between `p - 0.05` and `p + 0.05`.
///
/// Latencies here are multi-modal — a read hits a view or misses it,
/// matches one stored context state or three — and whenever a mode
/// boundary falls near `p`, the plain percentile flips between two
/// modes on a one-percent change in their shares (`cold_resolve`'s
/// median sat at the 49.5 % edge between a 370 µs and a 450 µs mode and
/// read ±12 % between identical runs). Averaging a ten-rank band moves
/// by a tenth of that, and equals the plain percentile wherever the
/// distribution is smooth.
pub fn banded_percentile(sorted: &[u64], p: f64) -> f64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len() as f64;
    let lo = (((p - BAND) * n).floor().max(0.0) as usize).min(sorted.len() - 1);
    let hi = (((p + BAND) * n).ceil() as usize).clamp(lo + 1, sorted.len());
    let band = &sorted[lo..hi];
    band.iter().sum::<u64>() as f64 / band.len() as f64
}

/// One nanosecond reading in microseconds, fraction kept.
pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain nearest-rank percentile, to hold the others against.
    fn percentile(sorted: &[u64], p: f64) -> u64 {
        sorted[nearest_rank(sorted.len(), p) - 1]
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]), (15.0, 120.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_supported(&v, 0.99), Some(990));
        assert_eq!(percentile_supported(&v, 0.999), None, "one sample beyond");
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile_supported(&v, 0.999), Some(9990));
        assert_eq!(percentile_supported(&[], 0.5), None);
        assert_eq!(percentile(&v, 0.5), 5000);
        assert_eq!(percentile(&v, 0.9), 9000);
    }

    #[test]
    fn a_banded_percentile_does_not_flip_between_modes() {
        // Smooth sample: the band's mean is the percentile itself.
        let v: Vec<u64> = (1..=1000).collect();
        assert!((banded_percentile(&v, 0.5) - 500.5).abs() < 1.0);
        assert!((banded_percentile(&v, 0.9) - 900.5).abs() < 1.0);
        // Two modes meeting at the median: moving one percent of the
        // samples across moves the plain median by the whole gap, the
        // banded one by a tenth of it.
        let modes = |low: usize| -> Vec<u64> {
            let mut v = vec![100u64; low];
            v.resize(1000, 200);
            v
        };
        let (a, b) = (modes(495), modes(505));
        assert_eq!(percentile(&a, 0.5), 200);
        assert_eq!(percentile(&b, 0.5), 100);
        let (ba, bb) = (banded_percentile(&a, 0.5), banded_percentile(&b, 0.5));
        assert!((ba - bb).abs() <= 10.5, "{ba} vs {bb}");
        assert_eq!(banded_percentile(&[], 0.5), 0.0);
        assert_eq!(banded_percentile(&[7], 0.9), 7.0);
    }

    #[test]
    fn nanoseconds_keep_their_fraction() {
        assert_eq!(ns_to_us(1500), 1.5);
    }
}
