//! Order statistics and the few aggregates the benchmark reports.
//!
//! Percentiles are nearest-rank over the sorted samples (no
//! interpolation), so every reported percentile is a value that was
//! actually measured. Ratios are only ever averaged geometrically.

/// Nearest-rank percentile of `samples` (`pct` in 0..=100). Sorts a copy;
/// an empty slice yields 0.
pub fn percentile(samples: &[f64], pct: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() * pct as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The median: the mean of the two middle samples for an even count, so a
/// two-sample median does not silently pick the smaller one.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Geometric mean of strictly positive ratios; non-positive entries are
/// skipped (a ratio with a zero base carries no information) and an empty
/// input yields 1, the neutral ratio.
pub fn geomean(ratios: &[f64]) -> f64 {
    let logs: Vec<f64> = ratios.iter().filter(|r| **r > 0.0).map(|r| r.ln()).collect();
    if logs.is_empty() {
        return 1.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Least-squares slope of `ln y` over `ln x`: the exponent `k` of the
/// power law `y ∝ x^k` that best fits the points.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return 0.0;
    }
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_over_measured_values() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 50.0);
        assert_eq!(percentile(&s, 90), 90.0);
        assert_eq!(percentile(&s, 100), 100.0);
        assert_eq!(percentile(&s, 0), 1.0);
        // Unsorted input, small counts: p90 of 8 samples is the largest.
        let small = [5.0, 1.0, 8.0, 3.0, 2.0, 7.0, 6.0, 4.0];
        assert_eq!(percentile(&small, 90), 8.0);
        assert_eq!(percentile(&small, 50), 4.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_skips_zero_bases() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[0.25, 0.0, 1.0]) - 0.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn slope_recovers_a_power_law() {
        let quad: Vec<(f64, f64)> =
            [1.0, 2.0, 4.0, 8.0].iter().map(|&x| (x, 3.0 * x * x)).collect();
        assert!((loglog_slope(&quad) - 2.0).abs() < 1e-9);
        assert_eq!(loglog_slope(&[(1.0, 1.0)]), 0.0);
    }
}
