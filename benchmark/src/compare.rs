//! Run sets and their comparison.
//!
//! A run set is a JSON file `{"runs": [...]}` holding one record per run
//! (written by `run --out` and `spread`). `compare a.json b.json` applies the
//! per-metric bounds of the registry the way the driver does: a metric is a
//! `regression` when the second set's median is worse than the first's by
//! more than the bound, and `unresolved`, not unchanged, when either set's
//! own spread (interquartile range over median) exceeds the bound.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use serde_json::Value;

use crate::registry::{Better, MetricDef, Workload, END_TO_END};
use crate::stats::{median, spread};

/// Reads the runs of a run-set file (an absent file is an empty set).
pub fn read_runs(path: &Path) -> Result<Vec<Value>, String> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("runs")
        .and_then(Value::as_array)
        .cloned()
        .ok_or_else(|| format!("{}: no runs array", path.display()))
}

/// Appends one run record to a run-set file, creating it if needed.
pub fn append_run(path: &Path, record: Value) -> Result<(), String> {
    let mut runs = read_runs(path)?;
    runs.push(record);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let doc = crate::object([("runs", Value::Array(runs))]);
    let text = serde_json::to_string_pretty(&doc).expect("a Value tree always serializes");
    fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Values of one metric over the untraced runs of one workload.
pub fn values(runs: &[Value], workload: Workload, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload.name()))
        .filter(|r| r.get("trace").and_then(Value::as_bool) != Some(true))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Failed operations over the runs of one workload.
pub fn failed(runs: &[Value], workload: Workload) -> u64 {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload.name()))
        .filter_map(|r| r.get("failed").and_then(Value::as_u64))
        .sum()
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both sets are steadier than the bound.
    Ok,
    /// Worse than the first set by more than the bound.
    Regression,
    /// A set's own spread exceeds the bound: the comparison proves nothing.
    Unresolved,
}

/// By what share of `a` the median `b` is worse (negative: better).
pub fn worse_share(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judges one metric from the two sets' values.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.expect("only end-to-end metrics are judged");
    let wide = |xs: &[f64]| xs.len() >= 2 && spread(xs) > bound;
    if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worse_share(def.better, median(a), median(b)) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// The spread table of one run set: per workload and end-to-end metric, the
/// median and the quartile spread as a share of it, against a third of the
/// bound. Returns the text and whether every spread was below that third.
pub fn spread_table(runs: &[Value]) -> (String, bool) {
    let mut text = String::new();
    let mut steady = true;
    for w in Workload::ALL {
        for def in END_TO_END {
            let xs = values(runs, w, def.name);
            if xs.len() < 2 {
                continue;
            }
            let (s, bound) = (
                spread(&xs),
                def.bound.expect("end-to-end metrics carry a bound"),
            );
            // `setup_s` is judged on its median only, never on its spread.
            let ok = s <= bound / 3.0 || def.name == "setup_s";
            steady &= ok;
            let _ = writeln!(
                text,
                "{:<20} {:<12} n={:<3} median {:>12.4} {:<4} spread {:>6.2}% (bound {:.0}%, third {:.1}%) {}",
                w.name(),
                def.name,
                xs.len(),
                median(&xs),
                def.unit,
                100.0 * s,
                100.0 * bound,
                100.0 * bound / 3.0,
                if ok { "ok" } else { "WIDE" }
            );
        }
    }
    (text, steady)
}

/// Compares two run sets. Returns the report and the number of regressions
/// and of unresolved metrics.
pub fn compare(a: &[Value], b: &[Value]) -> (String, usize, usize) {
    let mut text = String::new();
    let (mut regressions, mut unresolved) = (0, 0);
    for w in Workload::ALL {
        for def in END_TO_END {
            let (xa, xb) = (values(a, w, def.name), values(b, w, def.name));
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let verdict = judge(def, &xa, &xb);
            regressions += usize::from(verdict == Verdict::Regression);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            let _ = writeln!(
                text,
                "{:<20} {:<12} {:>12.4} -> {:>12.4} {:<4} worse by {:>+6.2}% (bound {:.0}%) {}",
                w.name(),
                def.name,
                median(&xa),
                median(&xb),
                def.unit,
                100.0 * worse_share(def.better, median(&xa), median(&xb)),
                100.0 * def.bound.expect("end-to-end metrics carry a bound"),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (fa, fb) = (failed(a, w), failed(b, w));
        if fb > fa {
            regressions += 1;
            let _ = writeln!(
                text,
                "{:<20} failed operations {fa} -> {fb} REGRESSION",
                w.name()
            );
        }
    }
    (text, regressions, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn bounds_are_applied_in_the_metrics_direction() {
        let pairs = def("pairs_per_s"); // higher is better, bound 0.25
        assert_eq!(
            judge(pairs, &[100.0, 101.0, 99.0], &[90.0, 91.0, 89.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(pairs, &[100.0, 101.0, 99.0], &[70.0, 71.0, 69.0]),
            Verdict::Regression
        );
        assert_eq!(
            judge(pairs, &[100.0, 101.0, 99.0], &[150.0, 151.0, 149.0]),
            Verdict::Ok
        );
        let lat = def("lat_p50_ms"); // lower is better
        assert_eq!(
            judge(lat, &[10.0, 10.1, 9.9], &[13.0, 13.1, 12.9]),
            Verdict::Regression
        );
        assert_eq!(
            judge(lat, &[10.0, 10.1, 9.9], &[8.0, 8.1, 7.9]),
            Verdict::Ok
        );
    }

    #[test]
    fn a_set_noisier_than_the_bound_is_unresolved_not_unchanged() {
        let pairs = def("pairs_per_s");
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            judge(pairs, &noisy, &[100.0, 101.0, 99.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(pairs, &[100.0, 101.0, 99.0], &noisy),
            Verdict::Unresolved
        );
    }

    #[test]
    fn run_sets_round_trip_and_filter_traced_runs() {
        let run = |trace: bool, v: f64| {
            Value::Object(vec![
                (
                    "workload".to_string(),
                    Value::Str("serve_open_f32".to_string()),
                ),
                ("trace".to_string(), Value::Bool(trace)),
                ("failed".to_string(), Value::UInt(1)),
                (
                    "metrics".to_string(),
                    Value::Object(vec![(
                        "setup_s".to_string(),
                        Value::Object(vec![("value".to_string(), Value::Float(v))]),
                    )]),
                ),
            ])
        };
        let runs = vec![run(false, 1.5), run(true, 9.0), run(false, 2.5)];
        assert_eq!(
            values(&runs, Workload::ServeOpenF32, "setup_s"),
            vec![1.5, 2.5]
        );
        assert!(values(&runs, Workload::TrainEvalJoint, "setup_s").is_empty());
        assert_eq!(failed(&runs, Workload::ServeOpenF32), 3);
        let (_, regressions, unresolved) = compare(&runs[..1], &[run(false, 2.5), run(false, 2.5)]);
        assert_eq!(
            (regressions, unresolved),
            (2, 0),
            "setup_s got worse and more operations failed"
        );
    }
}
