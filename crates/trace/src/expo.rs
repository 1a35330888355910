//! Prometheus text exposition of a [`MetricsSnapshot`].
//!
//! The serving telemetry endpoint (`emba-serve`'s `/metrics`) speaks the
//! [Prometheus text format]: one `# TYPE` line per metric family followed by
//! its samples. Counters and gauges map one-to-one; histograms render their
//! exported bucket edges ([`HistogramSummary::bounds`] /
//! [`HistogramSummary::bucket_counts`]) as **cumulative** `_bucket{le=...}`
//! samples — each bucket counts every sample at or below its edge, the
//! mandatory `+Inf` bucket equals `_count`, and `_sum` is the exact sample
//! sum — so any scraper can re-aggregate quantiles instead of trusting the
//! precomputed p50/p90/p99.
//!
//! Metric names here use `.` separators (`serve.request_ns`), which the
//! format forbids; [`sanitize_metric_name`] maps every name onto the legal
//! `[a-zA-Z_:][a-zA-Z0-9_:]*` alphabet deterministically.
//!
//! [`parse_exposition`] is the matching reader: enough of the format to
//! round-trip what [`prometheus_text`] writes, used by the exposition tests
//! and the serve telemetry tests to validate a live scrape.
//! [`validate_exposition`] layers the histogram invariants (monotone
//! cumulative buckets, strictly increasing edges, `+Inf == _count`) on top.
//!
//! [Prometheus text format]:
//! https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::metrics::{HistogramSummary, MetricsSnapshot};

/// Maps a metric name onto the Prometheus alphabet
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every illegal character becomes `_`, and a
/// leading digit gets a `_` prefix. Deterministic, so two snapshots of the
/// same registry always expose the same family names.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let legal = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if legal {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Formats a sample value the way Prometheus expects: finite floats in
/// shortest form, non-finite as `NaN` / `+Inf` / `-Inf`.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf".to_string() } else { "-Inf".to_string() }
    } else {
        format!("{v}")
    }
}

/// Renders one histogram family: cumulative `_bucket` samples (when the
/// summary carries exported buckets), then `_sum` and `_count`. Summaries
/// written before the bucket export (empty `bounds`) degrade to `_sum` +
/// `_count` only — still a valid exposition, just quantile-free.
fn render_histogram(out: &mut String, name: &str, h: &HistogramSummary) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    if h.bucket_counts.len() == h.bounds.len() + 1 {
        let mut cumulative: u64 = 0;
        for (edge, &count) in h.bounds.iter().zip(&h.bucket_counts) {
            cumulative += count;
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                fmt_value(*edge)
            ));
        }
        cumulative += h.bucket_counts.last().copied().unwrap_or(0);
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
    }
    // Older summaries carry no exact sum; mean × count is the best estimate
    // available and keeps `_sum` consistent with `_count`.
    let sum = if h.sum != 0.0 || h.count == 0 { h.sum } else { h.mean * h.count as f64 };
    out.push_str(&format!("{name}_sum {}\n", fmt_value(sum)));
    out.push_str(&format!("{name}_count {}\n", h.count));
}

/// Renders a full registry snapshot as Prometheus text exposition:
/// counters, gauges, then histograms, each family preceded by its `# TYPE`
/// line. Families keep the snapshot's name-sorted order, so two scrapes of
/// identical registries are byte-identical.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        let name = sanitize_metric_name(&c.name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.value));
    }
    for g in &snap.gauges {
        let name = sanitize_metric_name(&g.name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", fmt_value(g.value)));
    }
    for h in &snap.histograms {
        render_histogram(&mut out, &sanitize_metric_name(&h.name), h);
    }
    out
}

/// What kind of metric a parsed family declared itself as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromKind {
    /// Monotone counter.
    Counter,
    /// Point-in-time gauge.
    Gauge,
    /// Cumulative-bucket histogram.
    Histogram,
}

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone)]
pub struct PromSample {
    /// Sample name, including any `_bucket` / `_sum` / `_count` suffix.
    pub name: String,
    /// `(label, value)` pairs in appearance order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// One parsed metric family: the `# TYPE` declaration plus every sample
/// that followed it (until the next declaration).
#[derive(Debug, Clone)]
pub struct PromFamily {
    /// Sanitized family name from the `# TYPE` line.
    pub name: String,
    /// Declared kind.
    pub kind: PromKind,
    /// Samples in file order.
    pub samples: Vec<PromSample>,
}

impl PromFamily {
    /// The value of the sample named exactly `<family>_<suffix>` (or the
    /// bare family name when `suffix` is empty).
    pub fn sample_value(&self, suffix: &str) -> Option<f64> {
        let want = if suffix.is_empty() {
            self.name.clone()
        } else {
            format!("{}_{suffix}", self.name)
        };
        self.samples.iter().find(|s| s.name == want).map(|s| s.value)
    }
}

fn parse_value(text: &str) -> Result<f64, String> {
    match text {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other.parse::<f64>().map_err(|e| format!("bad sample value {other:?}: {e}")),
    }
}

fn parse_labels(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    for part in text.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("label {part:?} missing '='"))?;
        let v = v
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("label value in {part:?} not quoted"))?;
        labels.push((k.to_string(), v.to_string()));
    }
    Ok(labels)
}

/// Parses Prometheus text exposition into its metric families. Strict
/// enough to catch a malformed render — every sample must follow a `# TYPE`
/// declaration whose family name prefixes it — while accepting any sample
/// ordering the writer produces.
pub fn parse_exposition(text: &str) -> Result<Vec<PromFamily>, String> {
    let mut families: Vec<PromFamily> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            let Some(decl) = rest.strip_prefix("TYPE ") else {
                continue; // HELP or free-form comment
            };
            let mut parts = decl.split_whitespace();
            let name = parts.next().ok_or_else(|| format!("line {n}: TYPE without a name"))?;
            let kind = match parts.next() {
                Some("counter") => PromKind::Counter,
                Some("gauge") => PromKind::Gauge,
                Some("histogram") => PromKind::Histogram,
                other => return Err(format!("line {n}: unsupported TYPE {other:?}")),
            };
            families.push(PromFamily { name: name.to_string(), kind, samples: Vec::new() });
            continue;
        }
        let family = families
            .last_mut()
            .ok_or_else(|| format!("line {n}: sample before any # TYPE declaration"))?;
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: sample line without a value"))?;
        let (name, labels) = match name_labels.split_once('{') {
            Some((name, rest)) => {
                let inner = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set"))?;
                (name, parse_labels(inner).map_err(|e| format!("line {n}: {e}"))?)
            }
            None => (name_labels, Vec::new()),
        };
        if !name.starts_with(&family.name) {
            return Err(format!(
                "line {n}: sample {name:?} does not belong to family {:?}",
                family.name
            ));
        }
        family.samples.push(PromSample {
            name: name.to_string(),
            labels,
            value: parse_value(value).map_err(|e| format!("line {n}: {e}"))?,
        });
    }
    Ok(families)
}

/// Parses the exposition and checks the histogram invariants a scraper
/// relies on: `le` edges strictly increase and end at `+Inf`, cumulative
/// bucket values never decrease, and the `+Inf` bucket equals `_count`.
/// Returns the parsed families on success.
pub fn validate_exposition(text: &str) -> Result<Vec<PromFamily>, String> {
    let families = parse_exposition(text)?;
    for f in &families {
        if f.kind != PromKind::Histogram {
            continue;
        }
        let bucket_name = format!("{}_bucket", f.name);
        let buckets: Vec<&PromSample> =
            f.samples.iter().filter(|s| s.name == bucket_name).collect();
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = 0.0f64;
        for b in &buckets {
            let le = b
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .ok_or_else(|| format!("{}: bucket without le label", f.name))?;
            let le = parse_value(&le.1).map_err(|e| format!("{}: {e}", f.name))?;
            if le <= prev_le {
                return Err(format!("{}: le edges not strictly increasing at {le}", f.name));
            }
            if b.value < prev_cum {
                return Err(format!(
                    "{}: cumulative bucket decreased ({} after {prev_cum})",
                    f.name, b.value
                ));
            }
            prev_le = le;
            prev_cum = b.value;
        }
        let count = f
            .sample_value("count")
            .ok_or_else(|| format!("{}: histogram without _count", f.name))?;
        if let Some(last) = buckets.last() {
            if prev_le != f64::INFINITY {
                return Err(format!("{}: last bucket le is {prev_le}, not +Inf", f.name));
            }
            if last.value != count {
                return Err(format!(
                    "{}: +Inf bucket {} != _count {count}",
                    f.name, last.value
                ));
            }
        }
        if f.sample_value("sum").is_none() {
            return Err(format!("{}: histogram without _sum", f.name));
        }
    }
    Ok(families)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CounterValue, GaugeValue, Histogram};

    fn fixed_snapshot() -> MetricsSnapshot {
        let mut lat = Histogram::log_spaced(1_000.0, 10.0, 3); // 1e3, 1e4, 1e5
        for v in [500.0, 2_000.0, 2_500.0, 50_000.0, 1e9] {
            lat.record(v);
        }
        MetricsSnapshot {
            counters: vec![
                CounterValue { name: "serve.enqueued".into(), value: 42 },
                CounterValue { name: "serve.shed.admission".into(), value: 3 },
            ],
            gauges: vec![GaugeValue { name: "serve.queue_depth".into(), value: 7.0 }],
            histograms: vec![lat.summary("serve.request_ns")],
        }
    }

    #[test]
    fn sanitization_maps_onto_the_legal_alphabet() {
        assert_eq!(sanitize_metric_name("serve.request_ns"), "serve_request_ns");
        assert_eq!(sanitize_metric_name("catalog.cache.hit_rate"), "catalog_cache_hit_rate");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("a-b c/d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("ok_name:sub"), "ok_name:sub");
        assert_eq!(sanitize_metric_name(""), "_");
        for name in ["serve.request_ns", "9lives", "a-b c/d", "µ∆"] {
            let s = sanitize_metric_name(name);
            let mut chars = s.chars();
            let first = chars.next().unwrap();
            assert!(first.is_ascii_alphabetic() || first == '_' || first == ':');
            assert!(chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let text = prometheus_text(&fixed_snapshot());
        let families = validate_exposition(&text).expect("exposition validates");
        let h = families
            .iter()
            .find(|f| f.name == "serve_request_ns")
            .expect("histogram family present");
        let buckets: Vec<f64> = h
            .samples
            .iter()
            .filter(|s| s.name == "serve_request_ns_bucket")
            .map(|s| s.value)
            .collect();
        // Raw per-bucket counts 1,2,1,1 → cumulative 1,3,4,5.
        assert_eq!(buckets, vec![1.0, 3.0, 4.0, 5.0]);
        for w in buckets.windows(2) {
            assert!(w[0] <= w[1], "cumulative buckets decreased: {w:?}");
        }
    }

    #[test]
    fn inf_bucket_equals_count_and_sum_is_exact() {
        let text = prometheus_text(&fixed_snapshot());
        let families = validate_exposition(&text).expect("exposition validates");
        let h = families.iter().find(|f| f.name == "serve_request_ns").unwrap();
        let inf = h
            .samples
            .iter()
            .rfind(|s| s.name == "serve_request_ns_bucket")
            .expect("+Inf bucket present");
        assert_eq!(inf.labels, vec![("le".to_string(), "+Inf".to_string())]);
        assert_eq!(Some(inf.value), h.sample_value("count"));
        assert_eq!(h.sample_value("sum"), Some(500.0 + 2_000.0 + 2_500.0 + 50_000.0 + 1e9));
    }

    #[test]
    fn counters_and_gauges_expose_typed_families() {
        let text = prometheus_text(&fixed_snapshot());
        assert!(text.contains("# TYPE serve_enqueued counter\nserve_enqueued 42\n"));
        assert!(text.contains("# TYPE serve_shed_admission counter\nserve_shed_admission 3\n"));
        assert!(text.contains("# TYPE serve_queue_depth gauge\nserve_queue_depth 7\n"));
    }

    #[test]
    fn golden_exposition_round_trips() {
        let text = prometheus_text(&fixed_snapshot());
        let golden = include_str!("../tests/golden/exposition.prom");
        assert_eq!(text, golden, "rendered exposition drifted from the golden file");
        // Round trip: parse the golden text and re-check every value the
        // renderer wrote into it.
        let families = validate_exposition(golden).expect("golden file validates");
        assert_eq!(families.len(), 4);
        let by_name = |n: &str| families.iter().find(|f| f.name == n).unwrap();
        assert_eq!(by_name("serve_enqueued").kind, PromKind::Counter);
        assert_eq!(by_name("serve_enqueued").sample_value(""), Some(42.0));
        assert_eq!(by_name("serve_queue_depth").kind, PromKind::Gauge);
        assert_eq!(by_name("serve_queue_depth").sample_value(""), Some(7.0));
        let h = by_name("serve_request_ns");
        assert_eq!(h.kind, PromKind::Histogram);
        assert_eq!(h.sample_value("count"), Some(5.0));
        assert_eq!(h.samples.len(), 4 + 2); // 3 edges + +Inf + sum + count
    }

    #[test]
    fn pre_bucket_summaries_degrade_to_sum_and_count() {
        // A summary without exported buckets (old snapshot) must still
        // render a valid family: no _bucket samples, estimated _sum, _count.
        let snap = MetricsSnapshot {
            histograms: vec![HistogramSummary {
                name: "old.metric".into(),
                count: 4,
                p50: 1.0,
                p90: 2.0,
                p99: 2.0,
                mean: 1.5,
                overflow: 0,
                bounds: Vec::new(),
                bucket_counts: Vec::new(),
                sum: 0.0,
            }],
            ..MetricsSnapshot::default()
        };
        let text = prometheus_text(&snap);
        assert!(!text.contains("_bucket"));
        let families = validate_exposition(&text).expect("bucketless histogram validates");
        assert_eq!(families[0].sample_value("count"), Some(4.0));
        assert_eq!(families[0].sample_value("sum"), Some(6.0)); // mean × count
    }

    #[test]
    fn malformed_expositions_are_rejected() {
        assert!(parse_exposition("orphan_sample 1\n").is_err());
        assert!(parse_exposition("# TYPE x counter\nx notanumber\n").is_err());
        assert!(parse_exposition("# TYPE x summary\n").is_err());
        // Decreasing cumulative buckets fail validation.
        let bad = "# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\n\
                   h_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\n\
                   h_sum 1\nh_count 5\n";
        assert!(validate_exposition(bad).is_err());
        // +Inf bucket disagreeing with _count fails validation.
        let bad = "# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 2\n\
                   h_bucket{le=\"+Inf\"} 4\n\
                   h_sum 1\nh_count 5\n";
        assert!(validate_exposition(bad).is_err());
    }
}
