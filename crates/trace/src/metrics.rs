//! Named counters, gauges, and log-spaced histograms for the inference path.
//!
//! The registry is thread-local, like the tensor crate's scratch pool and
//! profiler: one training or serving run owns its thread, so there is no
//! cross-thread aggregation to synchronize and concurrent test runs cannot
//! see each other's samples. Recording is cheap (a `HashMap` upsert keyed by
//! `&'static str`), so the inference hot path can observe every example.
//!
//! Histograms use fixed log-spaced buckets: bucket `i` covers
//! `[bound[i-1], bound[i])`, the first bucket starts at zero, and one
//! overflow bucket catches everything at or above the last boundary. With
//! boundaries fixed up front, recording is O(log buckets) and the p50/p90/
//! p99 summaries are monotone by construction (a percentile is the upper
//! edge of the bucket holding its rank, and edges strictly increase).

use std::cell::RefCell;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// A fixed-bucket histogram over non-negative samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Strictly increasing upper bucket edges. Bucket `i < bounds.len()`
    /// covers `[bounds[i-1], bounds[i])` (with an implicit lower edge of 0
    /// for bucket 0); the final counts slot is the `[last, +∞)` overflow.
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl Histogram {
    /// Log-spaced buckets: edges `first·ratio^i` for `i in 0..buckets`.
    ///
    /// # Panics
    ///
    /// Panics if `first ≤ 0`, `ratio ≤ 1`, or `buckets == 0` — the edges
    /// would not be strictly increasing and positive.
    pub fn log_spaced(first: f64, ratio: f64, buckets: usize) -> Self {
        assert!(first > 0.0, "first edge must be positive, got {first}");
        assert!(ratio > 1.0, "ratio must exceed 1, got {ratio}");
        assert!(buckets > 0, "need at least one bucket");
        let bounds: Vec<f64> = (0..buckets).map(|i| first * ratio.powi(i as i32)).collect();
        let counts = vec![0; buckets + 1];
        Self { bounds, counts, total: 0, sum: 0.0 }
    }

    /// Default latency histogram, in nanoseconds: edges from 1 µs to
    /// `2^31` µs (~36 min) in steps of `2^(1/4)`, four per doubling (125
    /// buckets plus overflow), so a percentile read from it is at most
    /// ~19 % above the sample it stands for.
    pub fn latency_ns() -> Self {
        Self::log_spaced(1_000.0, 2f64.powf(0.25), 4 * 31 + 1)
    }

    /// The strictly increasing upper bucket edges.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the `+∞` overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Index of the single bucket `value` lands in (the overflow bucket is
    /// index `bounds.len()`). Negative values clamp into bucket 0.
    pub fn bucket_index(&self, value: f64) -> usize {
        self.bounds.partition_point(|&edge| edge <= value)
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        let i = self.bucket_index(value);
        self.counts[i] += 1;
        self.total += 1;
        self.sum += value.max(0.0);
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples that landed in the overflow bucket.
    pub fn overflow(&self) -> u64 {
        *self.counts.last().unwrap()
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the upper edge of the bucket
    /// containing that rank — always finite (the overflow bucket reports one
    /// ratio step past the last edge) and monotone in `q`. Returns 0 when
    /// empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.edge_value(i);
            }
        }
        self.edge_value(self.counts.len() - 1)
    }

    /// Mean of the raw samples (exact, not bucketed).
    pub fn mean(&self) -> f64 {
        if self.total == 0 { 0.0 } else { self.sum / self.total as f64 }
    }

    /// Finite representative value for bucket `i`: its upper edge, or one
    /// ratio step past the last edge for the overflow bucket.
    fn edge_value(&self, i: usize) -> f64 {
        if i < self.bounds.len() {
            return self.bounds[i];
        }
        let last = *self.bounds.last().unwrap();
        let ratio = if self.bounds.len() >= 2 {
            last / self.bounds[self.bounds.len() - 2]
        } else {
            2.0
        };
        last * ratio
    }

    /// Summarizes into the serializable form used by run artifacts. The
    /// summary carries the raw bucket edges and counts alongside the
    /// precomputed percentiles, so external scrapers (the `/metrics`
    /// exposition, re-aggregation across shards) can rebuild any quantile
    /// instead of trusting ours.
    pub fn summary(&self, name: &str) -> HistogramSummary {
        HistogramSummary {
            name: name.to_string(),
            count: self.total,
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            mean: self.mean(),
            overflow: self.overflow(),
            bounds: self.bounds.clone(),
            bucket_counts: self.counts.clone(),
            sum: self.sum,
        }
    }
}

/// Serializable percentile summary of one histogram.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Metric name (e.g. `eval.example_ns`).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Median (upper edge of the median's bucket).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Exact sample mean.
    pub mean: f64,
    /// Samples beyond the last bucket edge.
    pub overflow: u64,
    /// Strictly increasing upper bucket edges ([`Histogram::bounds`]).
    /// Empty in summaries written before the bucket export existed.
    #[serde(default)]
    pub bounds: Vec<f64>,
    /// Per-bucket counts, one per edge plus a final `[last, +∞)` overflow
    /// slot (`bucket_counts.len() == bounds.len() + 1` when present).
    /// Empty in summaries written before the bucket export existed.
    #[serde(default)]
    pub bucket_counts: Vec<u64>,
    /// Exact sum of all samples (what Prometheus calls `_sum`). Zero in
    /// summaries written before the bucket export existed.
    #[serde(default)]
    pub sum: f64,
}

#[derive(Default)]
struct Registry {
    counters: HashMap<&'static str, u64>,
    gauges: HashMap<&'static str, f64>,
    histograms: HashMap<&'static str, Histogram>,
}

thread_local! {
    static REGISTRY: RefCell<Registry> = RefCell::new(Registry::default());
}

/// Adds `delta` to the named counter (created at zero on first use).
pub fn counter_add(name: &'static str, delta: u64) {
    REGISTRY.with(|r| *r.borrow_mut().counters.entry(name).or_insert(0) += delta);
}

/// Sets the named gauge to `value`.
pub fn gauge_set(name: &'static str, value: f64) {
    REGISTRY.with(|r| {
        r.borrow_mut().gauges.insert(name, value);
    });
}

/// Records one latency sample, in nanoseconds, into the named histogram
/// (created with [`Histogram::latency_ns`] buckets on first use).
pub fn observe_ns(name: &'static str, ns: u64) {
    REGISTRY.with(|r| {
        r.borrow_mut()
            .histograms
            .entry(name)
            .or_insert_with(Histogram::latency_ns)
            .record(ns as f64);
    });
}

/// Clears every metric on this thread.
pub fn reset() {
    REGISTRY.with(|r| *r.borrow_mut() = Registry::default());
}

/// Point-in-time view of the registry, every section sorted by name so two
/// snapshots of identical runs serialize identically.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<CounterValue>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<GaugeValue>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistogramSummary>,
}

/// One named counter reading.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterValue {
    /// Metric name.
    pub name: String,
    /// Current count.
    pub value: u64,
}

/// One named gauge reading.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaugeValue {
    /// Metric name.
    pub name: String,
    /// Current value.
    pub value: f64,
}

/// Snapshots every metric on this thread (without clearing; see [`reset`]).
pub fn snapshot() -> MetricsSnapshot {
    REGISTRY.with(|r| {
        let r = r.borrow();
        let mut counters: Vec<CounterValue> = r
            .counters
            .iter()
            .map(|(&name, &value)| CounterValue { name: name.to_string(), value })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeValue> = r
            .gauges
            .iter()
            .map(|(&name, &value)| GaugeValue { name: name.to_string(), value })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSummary> =
            r.histograms.iter().map(|(&name, h)| h.summary(name)).collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { counters, gauges, histograms }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_spaced_edges_strictly_increase() {
        let h = Histogram::latency_ns();
        for w in h.bounds().windows(2) {
            assert!(w[0] < w[1], "edges {w:?} not strictly increasing");
        }
        assert!(h.bounds().iter().all(|b| b.is_finite() && *b > 0.0));
    }

    #[test]
    fn zero_and_overflow_samples_each_land_in_one_bucket() {
        let mut h = Histogram::log_spaced(10.0, 10.0, 3); // edges 10, 100, 1000
        h.record(0.0);
        assert_eq!(h.counts()[0], 1);
        h.record(1e12); // far past the last edge
        assert_eq!(h.overflow(), 1);
        h.record(10.0); // exactly on an edge: belongs to the bucket above
        assert_eq!(h.bucket_index(10.0), 1);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts().iter().sum::<u64>(), 3);
    }

    #[test]
    fn percentiles_are_finite_ordered_and_bucket_valued() {
        let mut h = Histogram::latency_ns();
        for i in 0..1000u64 {
            h.record((i * 10_000) as f64); // 0 .. 10ms spread
        }
        let (p50, p90, p99) = (h.percentile(0.5), h.percentile(0.9), h.percentile(0.99));
        assert!(p50.is_finite() && p90.is_finite() && p99.is_finite());
        assert!(p50 <= p90 && p90 <= p99, "p50 {p50} p90 {p90} p99 {p99}");
        assert!(h.bounds().contains(&p50));
    }

    #[test]
    fn latency_p50_lands_within_one_bucket_of_the_exact_median() {
        let h = Histogram::latency_ns();
        assert_eq!((h.bounds()[0], h.bounds().len()), (1_000.0, 125));
        let last = h.bounds()[124];
        assert!((last / 1e3 / 2f64.powi(31) - 1.0).abs() < 1e-9, "last edge {last}");
        for w in h.bounds().windows(2) {
            assert!(w[1] / w[0] <= 2f64.powf(0.25) * (1.0 + 1e-12), "edges {w:?}");
        }
        // 1001 latencies spread log-uniformly over 3 µs .. 80 ms, shuffled.
        let mut samples: Vec<f64> = (0..1001).map(|i| 3e3 * (8e7f64 / 3e3).powf((i * 389 % 1001) as f64 / 1000.0)).collect();
        let mut h = Histogram::latency_ns();
        samples.iter().for_each(|&s| h.record(s));
        samples.sort_by(f64::total_cmp);
        let (exact, p50) = (samples[500], h.percentile(0.5));
        assert!(exact <= p50 && p50 <= exact * 2f64.powf(0.25), "p50 {p50} for exact {exact}");
        // The reported edge is the exact median's bucket's upper edge, which
        // belongs to the next bucket up.
        assert_eq!(h.bucket_index(p50), h.bucket_index(exact) + 1);
    }

    #[test]
    fn overflow_heavy_histogram_keeps_percentiles_finite() {
        let mut h = Histogram::log_spaced(10.0, 2.0, 2); // edges 10, 20
        for _ in 0..100 {
            h.record(1e9);
        }
        let p99 = h.percentile(0.99);
        assert!(p99.is_finite());
        assert_eq!(p99, 40.0); // one ratio step past the last edge
    }

    #[test]
    fn empty_histogram_summarizes_to_zero() {
        let h = Histogram::latency_ns();
        let s = h.summary("empty");
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_exports_bucket_bounds_and_counts() {
        let mut h = Histogram::log_spaced(10.0, 10.0, 3); // edges 10, 100, 1000
        for v in [0.0, 5.0, 50.0, 500.0, 5000.0] {
            h.record(v);
        }
        let s = h.summary("export");
        assert_eq!(s.bounds, vec![10.0, 100.0, 1000.0]);
        assert_eq!(s.bucket_counts, vec![2, 1, 1, 1]);
        assert_eq!(s.bucket_counts.len(), s.bounds.len() + 1);
        assert_eq!(s.bucket_counts.iter().sum::<u64>(), s.count);
        assert_eq!(s.sum, 5555.0);
    }

    #[test]
    fn summaries_without_buckets_still_parse() {
        use serde::Value;
        // A summary written before the bucket export carried only the
        // percentiles; the serde defaults keep it readable.
        let s = Histogram::latency_ns().summary("old");
        let v = match s.to_value() {
            Value::Object(fields) => Value::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "bounds" && k != "bucket_counts" && k != "sum")
                    .collect(),
            ),
            other => panic!("summary serialized to a non-object: {other:?}"),
        };
        let back = HistogramSummary::from_value(&v).unwrap();
        assert!(back.bounds.is_empty());
        assert!(back.bucket_counts.is_empty());
        assert_eq!(back.sum, 0.0);
        assert_eq!(back.name, "old");
    }

    #[test]
    fn registry_snapshot_is_sorted_and_resettable() {
        reset();
        counter_add("b.count", 2);
        counter_add("a.count", 1);
        counter_add("a.count", 1);
        gauge_set("z.rate", 0.5);
        gauge_set("m.rate", 0.25);
        observe_ns("lat.b", 5_000);
        observe_ns("lat.a", 1_000_000);
        let s = snapshot();
        assert_eq!(
            s.counters.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            ["a.count", "b.count"]
        );
        assert_eq!(s.counters[0].value, 2);
        assert_eq!(
            s.gauges.iter().map(|g| g.name.as_str()).collect::<Vec<_>>(),
            ["m.rate", "z.rate"]
        );
        assert_eq!(
            s.histograms.iter().map(|h| h.name.as_str()).collect::<Vec<_>>(),
            ["lat.a", "lat.b"]
        );
        assert_eq!(s.histograms[0].count, 1);
        reset();
        let s = snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty() && s.histograms.is_empty());
    }
}
