//! Exact order statistics for the benchmark's own samples.
//!
//! Everything here works on the raw samples, never on a histogram: the
//! registry histograms inside the program are 32 power-of-two buckets, and a
//! percentile read from one is a bucket edge, not a measurement.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it (choosing-metrics guide, section 1).
pub const MIN_BEYOND: usize = 10;

/// Sorts samples ascending. Timing samples are never NaN; a NaN would mean a
/// broken clock, so it is a panic rather than a silent mis-sort.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    xs
}

/// Nearest-rank percentile of ascending samples: the smallest sample with at
/// least a share `q` of all samples at or below it. `q` in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q` percentile among `n >= 1` samples. The
/// epsilon keeps `0.9 * 100` from rounding up to rank 91.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The tail of a latency distribution that the sample count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (`0.99`, `0.9`), or `0.5` when no tail is
    /// supported.
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples beyond it.
    pub beyond: usize,
}

/// The highest of p99 and p90 with at least [`MIN_BEYOND`] samples beyond
/// it. With fewer than 100 samples neither qualifies: the samples support no
/// tail, and the median is reported in its place (labelled `q = 0.5`). The
/// maximum of a handful of samples would be the alternative; on a shared
/// machine it measures the neighbours (measured: 24 % quartile spread
/// against 12 % for the median) and is useless as a regression gate.
pub fn supported_tail(sorted: &[f64]) -> Tail {
    for q in [0.99, 0.9] {
        let b = beyond(sorted.len(), q);
        if b >= MIN_BEYOND {
            return Tail {
                q,
                value: percentile(sorted, q),
                beyond: b,
            };
        }
    }
    Tail {
        q: 0.5,
        value: percentile(sorted, 0.5),
        beyond: beyond(sorted.len(), 0.5),
    }
}

/// Median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method) gives
/// them, so that `spread` here is the number the driver computes.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs.to_vec());
    let ld = s.len();
    assert!(ld >= 2, "quartiles need two samples");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_ordered() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        // One sample answers every percentile.
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Ordering holds on skewed data.
        let skew = sorted(vec![1.0, 1.0, 1.0, 1.0, 50.0, 2.0, 2.0, 900.0, 3.0, 3.0]);
        let (p50, p90, p100) = (
            percentile(&skew, 0.5),
            percentile(&skew, 0.9),
            percentile(&skew, 1.0),
        );
        assert!(p50 <= p90 && p90 <= p100);
        assert_eq!(p100, 900.0);
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(4, 0.99), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // 1000 samples: p99 has exactly ten beyond it.
        assert_eq!(
            supported_tail(&s(1000)),
            Tail {
                q: 0.99,
                value: 990.0,
                beyond: 10
            }
        );
        // 999: p99 has nine, so the tail falls back to p90.
        let t = supported_tail(&s(999));
        assert_eq!((t.q, t.beyond), (0.9, 99));
        // 100 samples support p90 exactly; 99 do not and fall back to p50.
        assert_eq!(
            supported_tail(&s(100)),
            Tail {
                q: 0.9,
                value: 90.0,
                beyond: 10
            }
        );
        assert_eq!(
            supported_tail(&s(99)),
            Tail {
                q: 0.5,
                value: 50.0,
                beyond: 49
            }
        );
        assert_eq!(
            supported_tail(&s(3)),
            Tail {
                q: 0.5,
                value: 2.0,
                beyond: 1
            }
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
