//! The `trace` reproduce target: one observed training run whose full event
//! stream lands in `results/runs/<name>.jsonl`, validated after the fact.
//!
//! This is both a demonstration of the observability layer and the tier-1
//! smoke gate for it: the run trains with the non-finite guard on, every
//! emitted line must parse as a JSON object with an `"event"` field, and the
//! last line must be the `run_summary` aggregate.

use std::fs;
use std::path::{Path, PathBuf};

use emba_core::{train_single, ModelKind, PretrainCache, Trainer};
use emba_datagen::build;
use emba_trace::{RunSummary, TraceSession};
use serde::Value;

use crate::profile::Profile;

/// Result of a successful [`trace_run`].
pub struct TraceOutcome {
    /// Path of the JSONL event log.
    pub path: PathBuf,
    /// Number of validated event lines (including the summary).
    pub events: u64,
    /// The aggregate summary of the run.
    pub summary: RunSummary,
    /// Test F1 of the trained model.
    pub test_f1: f64,
}

/// Trains `kind` on the profile's first Table 2 dataset with a
/// [`TraceSession`] attached and the non-finite guard enabled, writing the
/// event log to `<out_dir>/runs/<name>.jsonl` and validating it.
pub fn trace_run(
    profile: &Profile,
    kind: ModelKind,
    name: &str,
    out_dir: &Path,
) -> Result<TraceOutcome, String> {
    let id = *profile
        .table2_datasets
        .first()
        .ok_or_else(|| "profile has no table2 datasets".to_string())?;
    let ds = build(id, profile.scale_for(id), profile.seed);
    let mut cfg = profile.cfg.clone();
    cfg.train.nan_guard = true;

    let runs_dir = out_dir.join("runs");
    let mut session =
        TraceSession::create(&runs_dir, name).map_err(|e| format!("open event log: {e}"))?;
    let path = session.path().to_path_buf();
    let (_, report) = train_single(
        kind,
        &ds,
        &cfg,
        profile.seed,
        &mut PretrainCache::new(),
        &mut Trainer::new(&mut session),
    )
    .map_err(|e| e.to_string())?;
    let summary = session.finish().map_err(|e| format!("flush event log: {e}"))?;

    let events = validate_jsonl(&path)?;
    Ok(TraceOutcome {
        path,
        events,
        summary,
        test_f1: report.test.matching.f1,
    })
}

/// Validates a run log: non-empty, every line a JSON object with an
/// `"event"` string, and the final line a `run_summary`. Returns the number
/// of lines.
pub fn validate_jsonl(path: &Path) -> Result<u64, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut count = 0u64;
    let mut last_event = String::new();
    for (i, line) in text.lines().enumerate() {
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("{}:{}: malformed JSON: {e}", path.display(), i + 1))?;
        let event = v
            .get("event")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}:{}: missing \"event\" field", path.display(), i + 1))?;
        last_event = event.to_string();
        count += 1;
    }
    if count == 0 {
        return Err(format!("{}: empty event log", path.display()));
    }
    if last_event != "run_summary" {
        return Err(format!(
            "{}: last event is {last_event:?}, expected \"run_summary\"",
            path.display()
        ));
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str, contents: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("emba-trace-run-{}-{name}", std::process::id()));
        let mut f = fs::File::create(&path).unwrap();
        f.write_all(contents.as_bytes()).unwrap();
        path
    }

    #[test]
    fn validate_rejects_empty_logs() {
        let p = tmp("empty.jsonl", "");
        assert!(validate_jsonl(&p).unwrap_err().contains("empty"));
        fs::remove_file(&p).ok();
    }

    #[test]
    fn validate_rejects_malformed_lines() {
        let p = tmp("bad.jsonl", "{\"event\": \"run_start\"}\nnot json\n");
        assert!(validate_jsonl(&p).unwrap_err().contains("malformed"));
        fs::remove_file(&p).ok();
    }

    #[test]
    fn validate_requires_event_field_and_final_summary() {
        let p = tmp("noevent.jsonl", "{\"step\": 1}\n");
        assert!(validate_jsonl(&p).unwrap_err().contains("event"));
        fs::remove_file(&p).ok();

        let p = tmp("nosummary.jsonl", "{\"event\": \"run_start\"}\n");
        assert!(validate_jsonl(&p).unwrap_err().contains("run_summary"));
        fs::remove_file(&p).ok();

        let p = tmp(
            "good.jsonl",
            "{\"event\": \"run_start\"}\n{\"event\": \"run_summary\"}\n",
        );
        assert_eq!(validate_jsonl(&p).unwrap(), 2);
        fs::remove_file(&p).ok();
    }
}
