//! Order statistics over repetitions and frame samples.

/// Median and quartiles of one metric over the repetitions of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Summarizes `samples`. Quartiles use the same "exclusive" rule as
/// Python's `statistics.quantiles(values, n=4)`, so the spreads this
/// prints are the ones a reader recomputes from the per-run values.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
    let len = v.len();
    let median = if len % 2 == 1 {
        v[len / 2]
    } else {
        0.5 * (v[len / 2 - 1] + v[len / 2])
    };
    let (q1, q3) = if len < 2 {
        (v[0], v[0])
    } else {
        let quartile = |i: usize| {
            let m = len + 1;
            let j = (i * m / 4).clamp(1, len - 1);
            // Python does not clamp the weight either: with two samples
            // the quartiles extrapolate past them.
            let delta = (i * m) as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        };
        (quartile(1), quartile(3))
    };
    Summary {
        median,
        q1,
        q3,
        n: len,
    }
}

/// The `q`-quantile of `samples` by the nearest-rank method (the rule
/// `pbpair_serve::report::quantile_ms` uses for fleet latencies).
/// Returns 0 for an empty slice.
pub fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let one = summarize(&[4.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(nearest_rank(&v, 0.5), 3.0);
        assert_eq!(nearest_rank(&v, 0.99), 5.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }
}
