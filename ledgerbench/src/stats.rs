//! Order statistics over repeated samples. Timing distributions are
//! heavy-tailed, so every timing is reported as a median with its
//! quartiles, never as a mean or a best-of.

/// Median and quartiles of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The median; this is the value a result reports.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// How many samples the summary is over.
    pub n: usize,
}

impl Summary {
    /// Summarize `samples` (any order). Quartiles use the exclusive
    /// method of Python's `statistics.quantiles(data, n=4)`, so the
    /// spreads printed here match the ones computed from the results.
    ///
    /// # Panics
    /// On an empty sample or a non-finite sample: both are benchmark
    /// bugs, not measurements.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        assert!(
            samples.iter().all(|v| v.is_finite()),
            "non-finite sample in {samples:?}"
        );
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (v[0], v[0])
        } else {
            (quantile_exclusive(&v, 1), quantile_exclusive(&v, 3))
        };
        Summary { median, q1, q3, n }
    }
}

/// The `j`-th of four cut points of sorted `v` (`n ≥ 2`), Python's
/// `method='exclusive'`: position `j·(n+1)/4`, with the index clamped
/// to the data and the same (possibly extrapolating) interpolation
/// weights Python uses.
fn quantile_exclusive(v: &[f64], j: usize) -> f64 {
    let n = v.len();
    let pos = (j * (n + 1)) as i64;
    let k = (pos / 4).clamp(1, n as i64 - 1);
    let delta = (pos - k * 4) as f64;
    let k = k as usize;
    (v[k - 1] * (4.0 - delta) + v[k] * delta) / 4.0
}

/// The tail statistic: the nearest-rank 90th percentile, and how many
/// samples lie beyond it (at least ten once there are 100 samples).
/// The percentile is fixed rather than the highest one with ten samples
/// beyond it, because that one depends on the sample count, which
/// depends on the speed of the program under test: a slower program
/// would report a lower percentile.
pub fn p90(samples: &[f64]) -> (f64, usize) {
    assert!(!samples.is_empty(), "a tail needs at least one sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = (n * 9).div_ceil(10).max(1);
    (v[rank - 1], n - rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn p90_keeps_ten_samples_beyond_it_from_one_hundred() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(p90(&v), (89.0, 10));
        assert_eq!(v.iter().filter(|&&x| x > 89.0).count(), 10);
        let v: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(p90(&v), (90.0, 10));
        assert_eq!(p90(&[2.0, 1.0]), (2.0, 0));
    }
}
