//! Summary statistics over samples: mean, standard deviation, quantiles, and
//! min/max, used to aggregate per-seed experiment results.

/// Summary statistics of a sample of `f64` values.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0.0 for an empty sample).
    pub mean: f64,
    /// Sample standard deviation (0.0 if fewer than 2 samples).
    pub stddev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Computes the summary of a sample. Returns an all-zero summary for an
    /// empty slice.
    pub fn of(values: &[f64]) -> Self {
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (Some(&min), Some(&max)) = (sorted.first(), sorted.last()) else {
            return Summary {
                count: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p95: 0.0,
            };
        };
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = if count >= 2 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        Summary {
            count,
            mean,
            stddev: var.sqrt(),
            min,
            max,
            median: quantile_sorted(&sorted, 0.5),
            p95: quantile_sorted(&sorted, 0.95),
        }
    }

    /// Computes the summary of an integer sample.
    pub fn of_usize(values: &[usize]) -> Self {
        Summary::of(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
    }
}

/// Quantile of an already-sorted sample using linear interpolation.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q));
    match sorted {
        [] => return 0.0,
        [only] => return *only,
        _ => {}
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    // `q ≤ 1` keeps `pos ≤ len - 1`, so both ranks are in bounds.
    match (sorted.get(lo), sorted.get(hi)) {
        (Some(&a), Some(&b)) => a * (1.0 - frac) + b * frac,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_simple_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.stddev - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.median - 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_and_singleton() {
        let e = Summary::of(&[]);
        assert_eq!(e.count, 0);
        assert_eq!(e.mean, 0.0);
        let s = Summary::of(&[7.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.p95, 7.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let sorted = vec![0.0, 10.0];
        assert!((quantile_sorted(&sorted, 0.5) - 5.0).abs() < 1e-12);
        assert!((quantile_sorted(&sorted, 0.95) - 9.5).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn of_usize_matches_of() {
        let a = Summary::of_usize(&[1, 2, 3]);
        let b = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }
}
