//! Exact order statistics over raw samples: no histogram buckets.

/// Sorts `values` and returns the `q`-quantile by the nearest-rank rule
/// (`q` in `[0, 1]`). Panics on an empty slice: every caller checks that
/// the phase it summarises ran at least once.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_by(f64::total_cmp);
    values[rank(values.len(), q)]
}

/// Nearest-rank index of the `q`-quantile among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps a product such as 0.99 × 1000, which binary floating
    // point may land a hair above 990, on the rank the decimal value has.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// The median of `values` (mean of the middle pair when the count is even).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Cuts `slices`, each (operations, seconds), into `segments` runs of
/// consecutive slices, as equal in count as the division allows (one slice
/// each when there are fewer), and returns each segment's operations per
/// second.
pub fn segment_rates(slices: &[(u64, f64)], segments: usize) -> Vec<f64> {
    let segments = segments.min(slices.len());
    (0..segments)
        .map(|k| {
            let segment = &slices[k * slices.len() / segments..(k + 1) * slices.len() / segments];
            let (operations, seconds) = segment
                .iter()
                .fold((0, 0.0), |(n, s), &(dn, ds)| (n + dn, s + ds));
            operations as f64 / seconds
        })
        .collect()
}

/// First quartile, median and third quartile with the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`, which is what the
/// acceptance check of the benchmark uses. Needs at least two values.
pub fn quartiles(values: &mut [f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * delta
    })
}

/// The candidate tail percentiles, highest first.
const TAILS: [(&str, f64); 5] = [
    ("p99.99", 0.9999),
    ("p99.9", 0.999),
    ("p99", 0.99),
    ("p95", 0.95),
    ("p90", 0.90),
];

/// The highest tail percentile that still has at least ten samples beyond
/// it, with its value: a tail read from fewer samples is one outlier, not
/// a percentile. `None` when even p90 has fewer than ten samples beyond.
pub fn supported_tail(sorted: &[f64]) -> Option<(&'static str, f64)> {
    let n = sorted.len();
    TAILS.iter().find_map(|&(label, q)| {
        let at = rank(n.max(1), q);
        (n > 0 && n - 1 - at >= 10).then(|| (label, sorted[at]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut [7.0], 0.99), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn segments_cover_every_slice_once() {
        let slices: Vec<(u64, f64)> = (1..=12).map(|i| (i * 10, 1.0)).collect();
        // 12 slices in 5 segments: 2, 2, 3, 2, 3 slices.
        assert_eq!(segment_rates(&slices, 5), [15.0, 35.0, 60.0, 85.0, 110.0]);
        // A slow slice weighs by its time, not as one rate among equals.
        assert_eq!(segment_rates(&[(10, 1.0), (10, 4.0)], 1), [4.0]);
        // Fewer slices than segments: one each.
        assert_eq!(segment_rates(&slices[..2], 5), [10.0, 20.0]);
        assert!(segment_rates(&[], 5).is_empty());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [2.0, 3.0, 1.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let sorted = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // 100 samples: p99 has 1 beyond, p95 has 5, p90 has exactly 10.
        assert_eq!(supported_tail(&sorted(100)), Some(("p90", 89.0)));
        // 99 samples: p90 sits at index 89 with only 9 beyond.
        assert_eq!(supported_tail(&sorted(99)), None);
        // 1,100 samples: p99 sits at index 1088 with 11 beyond.
        assert_eq!(supported_tail(&sorted(1100)), Some(("p99", 1088.0)));
        // 1,000 samples: p99 has exactly 10 beyond.
        assert_eq!(supported_tail(&sorted(1000)), Some(("p99", 989.0)));
        assert_eq!(supported_tail(&sorted(999)).map(|t| t.0), Some("p95"));
        assert_eq!(
            supported_tail(&sorted(200_000)).map(|t| t.0),
            Some("p99.99")
        );
        assert_eq!(supported_tail(&[]), None);
    }
}
