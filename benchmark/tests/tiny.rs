//! Every workload and its traced run at `--tiny` size, checked against
//! `BENCHMARK.json`: each declared metric comes out exactly once per
//! workload, with its unit, under a well-formed name.

use emba_benchmark::cli::{execute, DEFAULT_SECONDS};
use emba_benchmark::registry::{MetricDef, Workload, END_TO_END, PER_LAYER};
use emba_benchmark::run::Options;
use serde_json::Value;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn well_formed(name: &str, extra: &str, max: usize) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

fn assert_declared(list: &Value, defs: &[MetricDef], bounded: bool) {
    let list = list.as_array().expect("a metric list");
    assert_eq!(list.len(), defs.len());
    for (entry, def) in list.iter().zip(defs) {
        let want: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(entry), want, "{}", def.name);
        assert_eq!(entry["name"].as_str(), Some(def.name));
        assert_eq!(entry["unit"].as_str(), Some(def.unit), "{}", def.name);
        assert_eq!(
            entry["better"].as_str(),
            Some(def.better.word()),
            "{}",
            def.name
        );
        if bounded {
            assert_eq!(entry["bound"].as_f64(), def.bound, "{}", def.name);
        }
    }
}

#[test]
fn benchmark_json_declares_what_the_registry_does() {
    let doc = manifest();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = doc["command"]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap())
        .collect();
    assert_eq!(
        command,
        [
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
            "run"
        ]
    );
    assert_eq!(doc["paths"].as_array().unwrap().len(), 1);
    assert_eq!(doc["paths"][0].as_str(), Some("benchmark"));
    assert_eq!(doc["run_seconds"].as_u64(), Some(DEFAULT_SECONDS as u64));
    let workloads = doc["workloads"].as_array().unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(entry["name"].as_str(), Some(w.name()));
        assert_eq!(entry["why"].as_str(), Some(w.why()));
        assert!(!w.why().contains('\n'));
    }
    assert_declared(&doc["end_to_end"], END_TO_END, true);
    assert_declared(&doc["per_layer"], PER_LAYER, false);
}

fn run_tiny(workload: Workload, trace: bool) {
    let opts = Options {
        workload,
        seed: 3,
        seconds: 0.4,
        trace,
        tiny: true,
    };
    let done = execute(&opts).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
    let line: Value = serde_json::from_str(&done.result_line).expect("the result line parses");
    assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        line["correct"].as_bool(),
        Some(true),
        "{}: {:?}",
        workload.name(),
        done.outcome.ledger.examples
    );
    assert!(line["attempted"].as_u64().unwrap() >= 1);
    assert_eq!(line["failed"].as_u64(), Some(0));
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let emitted = line["metrics"].as_object().unwrap();
    for def in defs {
        let hits: Vec<&Value> = emitted
            .iter()
            .filter(|(k, _)| k == def.name)
            .map(|(_, v)| v)
            .collect();
        assert_eq!(
            hits.len(),
            1,
            "{} emitted {} times on {}",
            def.name,
            hits.len(),
            workload.name()
        );
        assert_eq!(keys(hits[0]), ["value", "unit"]);
        let value = hits[0]["value"].as_f64().expect("a number");
        assert!(value.is_finite());
        assert_eq!(hits[0]["unit"].as_str(), Some(def.unit));
        assert!(well_formed(def.name, "_.-", 64), "{}", def.name);
        assert!(well_formed(def.unit, "_/%.-", 16), "{}", def.unit);
        if !trace {
            assert!(
                value != 0.0,
                "end-to-end metric {} read 0 on {}",
                def.name,
                workload.name()
            );
        }
        if !def.applies(workload) {
            assert_eq!(
                value,
                0.0,
                "{} does not apply to {}",
                def.name,
                workload.name()
            );
        }
    }
    assert_eq!(
        emitted.len(),
        defs.len(),
        "undeclared metrics emitted on {}",
        workload.name()
    );
    let env = &done.record["env"];
    for field in [
        "git_rev",
        "cpu",
        "nproc",
        "simd_detected",
        "simd_level",
        "rustc",
        "rustflags",
        "backend",
        "seed",
        "sizes",
    ] {
        assert!(env.get(field).is_some(), "env block lacks {field}");
    }
}

/// One test, one workload after another: the serve workload has deadlines,
/// and parallel test threads would compete with its engine for the cores.
#[test]
fn every_workload_emits_every_declared_metric_exactly_once() {
    for workload in Workload::ALL {
        run_tiny(workload, false);
        run_tiny(workload, true);
    }
}
