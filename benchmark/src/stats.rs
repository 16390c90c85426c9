//! Percentiles and the median-of-segments rule.
//!
//! Every latency statistic is computed inside one segment (one fresh
//! world) and the run reports the median over segments. Pooling rounds
//! across segments would make the median bimodal: about one fresh
//! two-thread world in twelve lands both ranks in a much faster wake-up
//! mode than the rest.

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, averaging the two middle values of an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them, which is what the acceptance check uses. A single
/// sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and count of one metric's per-segment values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        median: median(values),
        q1,
        q3,
        n: values.len(),
    }
}

/// Latency statistics of one segment's timed rounds, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50_us: f64,
    pub p99_us: f64,
    pub mean_us: f64,
}

/// Statistics over one segment's round latencies in nanoseconds. A
/// failed round misses every latency limit, so the caller passes it as
/// `u64::MAX` and it sorts behind every real sample.
pub fn latency_of(round_ns: &[u64]) -> Latency {
    let mut us: Vec<f64> = round_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    Latency {
        p50_us: percentile(&us, 0.50),
        p99_us: percentile(&us, 0.99),
        mean_us: us.iter().sum::<f64>() / us.len() as f64,
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Fewer than a hundred samples: p99 is the largest.
        assert_eq!(percentile(&[3.0, 5.0, 9.0], 0.99), 9.0);
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), 9_900.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40, 70], n=4) == [12.5, 30, 62.5]
        assert_eq!(quartiles(&[70.0, 10.0, 40.0, 20.0]), (12.5, 62.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn median_of_segments_ignores_one_fast_world() {
        // Eleven ordinary segments and one in the fast wake-up mode:
        // the reported value is an ordinary one, not a blend.
        let mut p50s = vec![33.0; 11];
        p50s.push(4.0);
        assert_eq!(summarize(&p50s).median, 33.0);
        assert_eq!(summarize(&p50s).n, 12);
    }

    #[test]
    fn failed_round_sorts_behind_every_latency() {
        let l = latency_of(&[1_000, 2_000, u64::MAX, 3_000]);
        assert_eq!(l.p50_us, 2.0);
        assert_eq!(l.p99_us, u64::MAX as f64 / 1e3);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
