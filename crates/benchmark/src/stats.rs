//! Order statistics over small samples. Every reported number in the
//! benchmark is a median or a percentile taken here, with its sample
//! count, so two runs are compared on the same estimator.

/// Linear-interpolated percentile (`p` in 0..=100) of an unsorted sample.
/// `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive), so a spread
/// computed here matches the one the driver computes. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Quartile distance as a share of the median: the run-to-run spread the
/// driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The highest whole percentile, at most `cap`, that still has at least
/// ten samples beyond it. A tail read further out than that is one or two
/// outliers, not a percentile. `None` below 20 samples (nothing above the
/// median qualifies).
pub fn highest_supported_percentile(samples: usize, cap: u32) -> Option<u32> {
    if samples < 20 {
        return None;
    }
    let p = (100.0 * (samples - 10) as f64 / samples as f64).floor() as u32;
    Some(p.min(cap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 99.0), Some(100.0));
        assert_eq!(percentile(&v, 100.0), Some(101.0));
        assert_eq!(percentile(&v, 250.0), Some(101.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(5.5 / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19, 99), None);
        assert_eq!(highest_supported_percentile(20, 99), Some(50));
        assert_eq!(highest_supported_percentile(100, 99), Some(90));
        assert_eq!(highest_supported_percentile(999, 99), Some(98));
        assert_eq!(highest_supported_percentile(1000, 99), Some(99));
        assert_eq!(highest_supported_percentile(15_000, 99), Some(99));
        // 15 000 samples leave 150 beyond p99.
        assert!(15_000 - (15_000.0f64 * 0.99) as usize >= 150);
    }
}
