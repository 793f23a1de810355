//! Sample summaries: median, extremes and the "highest percentile with at
//! least ten samples beyond it" rule of the metrics guide.

/// Median of a non-empty sample (mean of the two middle values for even n).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median, minimum, maximum and count of one metric's per-rep samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }
}

/// The tail percentile a sample of this size supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HighPercentile {
    /// The percentile reported, in percent.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it (10, or 0 when the sample is too small and
    /// the maximum is reported instead).
    pub beyond: usize,
}

/// The highest percentile that still has ten samples beyond it; with fewer
/// than eleven samples there is none, and the maximum is reported as the
/// 100th percentile with zero beyond so the reader sees the sample was small.
pub fn high_percentile(values: &[f64]) -> HighPercentile {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return HighPercentile {
            percentile: 100.0,
            value: v[n - 1],
            beyond: 0,
        };
    }
    let rank = n - 10; // 1-based rank of the reported sample
    HighPercentile {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        beyond: 10,
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
    }

    #[test]
    fn summary_keeps_extremes_and_count() {
        let s = Summary::of(&[5.0, 1.0, 9.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (5.0, 1.0, 9.0, 3));
    }

    #[test]
    fn high_percentile_leaves_exactly_ten_beyond() {
        let v: Vec<f64> = (1..=77).map(f64::from).collect();
        let hp = high_percentile(&v);
        assert_eq!(hp.value, 67.0);
        assert_eq!(hp.beyond, 10);
        assert_eq!(v.iter().filter(|&&x| x > hp.value).count(), 10);
        assert!((hp.percentile - 100.0 * 67.0 / 77.0).abs() < 1e-12);
        // 1000 samples support p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(high_percentile(&v).percentile, 99.0);
    }

    #[test]
    fn small_samples_report_the_maximum_and_say_so() {
        let hp = high_percentile(&[2.0, 9.0, 4.0]);
        assert_eq!((hp.percentile, hp.value, hp.beyond), (100.0, 9.0, 0));
        // Eleven samples are the smallest with ten beyond.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let hp = high_percentile(&v);
        assert_eq!((hp.value, hp.beyond), (1.0, 10));
    }
}
