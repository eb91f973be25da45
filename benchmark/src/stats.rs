//! Order statistics for the harness: medians, quartiles and the tail
//! percentile rule of the choosing-metrics guide.

/// Median, quartiles and sample count of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples` (any order); all zeros when there are none.
    pub fn of(samples: &[f64]) -> Summary {
        let sorted = sorted(samples);
        let (q1, median, q3) = quartiles(&sorted);
        Summary {
            median,
            q1,
            q3,
            n: sorted.len(),
        }
    }

    /// A metric measured once (a counter, a peak).
    pub fn single(value: f64) -> Summary {
        Summary::point(value, 1)
    }

    /// One value read off `n` samples (a tail percentile): no quartiles of
    /// its own.
    pub fn point(value: f64, n: usize) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n,
        }
    }
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(&sorted(samples)).1
}

/// `(q1, median, q3)` of an ascending slice, by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (the driver's rule): the
/// quantile at position `(n + 1) · i / 4`, interpolated linearly and clamped
/// to the ends.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let at = |i: usize| {
        let n = sorted.len();
        if n < 2 {
            return sorted.first().copied().unwrap_or(0.0);
        }
        // 1-based position (n + 1) * i / 4, split into whole and remainder.
        let j = ((n + 1) * i / 4).clamp(1, n - 1);
        let frac = ((n + 1) * i) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// The `want` percentile (nearest rank) of an ascending slice, lowered until
/// at least `beyond` samples lie above it; with too few samples for any tail
/// it is the median. Returns the value and the percentile actually reported.
pub fn tail_percentile(sorted: &[f64], want: f64, beyond: usize) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, want);
    }
    let rank = ((want * n as f64).ceil() as usize).clamp(1, n);
    let highest = n.saturating_sub(beyond);
    if highest * 2 <= n {
        return (quartiles(sorted).1, 0.5);
    }
    let rank = rank.min(highest);
    (sorted[rank - 1], rank as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 20.0, 40.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn summary_sorts_and_counts() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.n), (3.0, 3));
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: p90 is rank 180, 20 samples lie beyond it.
        assert_eq!(tail_percentile(&samples, 0.90, 10), (180.0, 0.90));
        // p99 would leave 2 beyond; the rule lowers it to rank 190.
        assert_eq!(tail_percentile(&samples, 0.99, 10), (190.0, 0.95));
        // 50 samples: p90 (rank 45) leaves only 5; lowered to rank 40.
        let samples: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.90, 10), (40.0, 0.80));
    }

    #[test]
    fn tail_percentile_falls_back_to_the_median_on_few_samples() {
        // Five repetitions cannot carry a tail: both latencies are the median.
        let samples = [1.0, 2.0, 3.0, 4.0, 50.0];
        assert_eq!(tail_percentile(&samples, 0.90, 10), (3.0, 0.5));
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.90, 10), (10.5, 0.5));
    }
}
