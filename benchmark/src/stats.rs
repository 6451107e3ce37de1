//! Order statistics over timing samples: the median, the quartiles, and the
//! highest percentile that still has ten samples beyond it.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A metric measured once (a count, a ratio of two medians).
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p` quantile (0 < p < 1) of ascending `sorted` by the exclusive
/// method — position `p·(n+1)`, interpolated, clamped to the sample range —
/// which is what Python's `statistics.quantiles` computes, so spreads
/// printed here agree with the ones the driver takes across runs.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = p * (n as f64 + 1.0);
    let lo = (h.floor() as usize).clamp(1, n - 1);
    let frac = (h - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
}

/// Median of `values`; 0 when empty (a layer that did no work).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Median, quartiles and count; all zero for no samples.
pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary::default();
    }
    let s = sorted(values);
    Summary {
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        n: s.len(),
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`: of `n` ascending samples it is the `(n-10)`-th,
/// the `100·(n-10)/n` percentile. `None` below eleven samples, where no
/// percentile has ten samples beyond it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let s = sorted(values);
    Some((100.0 * (n - 10) as f64 / n as f64, s[n - 11]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..8], n=4) == [2.25, 4.5, 6.75]
        let s = summarize(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.25, 4.5, 6.75, 8));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        let s = summarize(&[10.0, 20.0, 30.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], clamped
        // here to the sample range
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        // eleven samples: only the lowest has ten beyond it
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        // a hundred samples 1..=100, shuffled: the 90th percentile is 90
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        // forty samples: p75 is the highest with ten beyond
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75.0, 30.0)));
    }
}
