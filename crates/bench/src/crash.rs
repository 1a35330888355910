//! The `crash` reproduce target: fault injection for the crash-safe
//! training subsystem.
//!
//! The harness runs the same (model, dataset, seed) cell four ways:
//!
//! 1. **Baseline** — uninterrupted, recording every per-step loss;
//! 2. **Killed** — checkpointing into a store, killed by an injected panic
//!    at a fixed optimizer step;
//! 3. **Resumed** — a fresh model resumes from the store under a
//!    [`TraceSession`], so the JSONL log carries the `resume` event;
//! 4. **Corrupt-resumed** — the newest snapshot is truncated, the
//!    next-newest gets a flipped bit, a partial `*.tmp` file simulates an
//!    interrupted rename, and a third run must fall back to the newest
//!    intact snapshot.
//!
//! Every resumed run must reproduce the baseline bit-for-bit: identical
//! per-step losses at the same global steps and an identical final test F1.
//! Any divergence, missing resume event, or unskipped corruption is an
//! error — this is the tier-1 smoke gate for the checkpoint subsystem.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use emba_core::{
    train_single, CheckpointStore, DurabilityConfig, ModelKind, PretrainCache, TrainReport,
    Trainer,
};
use emba_datagen::build;
use emba_trace::{StepRecord, TraceSession, TrainObserver};
use serde::Value;

use crate::profile::Profile;
use crate::trace_run::validate_jsonl;

/// Result of a successful [`crash_run`].
pub struct CrashOutcome {
    /// Path of the resumed run's JSONL event log.
    pub path: PathBuf,
    /// Validated event lines in that log.
    pub events: u64,
    /// Global step the injected crash fired at.
    pub killed_at_step: u64,
    /// Steps the resumed run re-executed (all bit-identical to baseline).
    pub resumed_steps: usize,
    /// Corrupt snapshots skipped during the corruption phase.
    pub corrupt_skipped: usize,
    /// Test F1 shared — bit-identically — by every run.
    pub test_f1: f64,
}

/// Records `(step, loss)` pairs and the recovery counters.
#[derive(Default)]
struct LossTrace {
    steps: Vec<(u64, f64)>,
    resumes: usize,
    corrupt_skipped: usize,
}

impl TrainObserver for LossTrace {
    // Pre-training reports as a run of its own with its own step numbering;
    // only the last run — the fine-tune — is compared.
    fn on_run_start(&mut self, _m: &emba_trace::RunMeta) {
        self.steps.clear();
    }
    fn on_step(&mut self, r: &StepRecord) {
        self.steps.push((r.step, r.loss));
    }
    fn on_resume(&mut self, _epoch: usize, _step: u64) {
        self.resumes += 1;
    }
    fn on_corrupt_skipped(&mut self, _file: &str, _reason: &str) {
        self.corrupt_skipped += 1;
    }
}

/// Panics — simulating a hard kill — once training reaches `kill_at`.
struct Killer {
    kill_at: u64,
}

impl TrainObserver for Killer {
    fn on_step(&mut self, r: &StepRecord) {
        if r.step >= self.kill_at {
            panic!("injected crash at step {}", r.step);
        }
    }
}

/// Forwards every event to two observers, so a run can feed a
/// [`TraceSession`] and an assertion recorder at once.
struct Tee<'a> {
    a: &'a mut dyn TrainObserver,
    b: &'a mut dyn TrainObserver,
}

impl TrainObserver for Tee<'_> {
    fn on_run_start(&mut self, m: &emba_trace::RunMeta) {
        self.a.on_run_start(m);
        self.b.on_run_start(m);
    }
    fn on_epoch_start(&mut self, e: usize) {
        self.a.on_epoch_start(e);
        self.b.on_epoch_start(e);
    }
    fn on_step(&mut self, r: &StepRecord) {
        self.a.on_step(r);
        self.b.on_step(r);
    }
    fn on_epoch_end(&mut self, e: usize, l: f64) {
        self.a.on_epoch_end(e, l);
        self.b.on_epoch_end(e, l);
    }
    fn on_eval(&mut self, r: &emba_trace::EvalRecord) {
        self.a.on_eval(r);
        self.b.on_eval(r);
    }
    fn on_checkpoint_save(&mut self, e: usize, f: f64) {
        self.a.on_checkpoint_save(e, f);
        self.b.on_checkpoint_save(e, f);
    }
    fn on_checkpoint_restore(&mut self, e: usize) {
        self.a.on_checkpoint_restore(e);
        self.b.on_checkpoint_restore(e);
    }
    fn on_non_finite(&mut self, s: &str, d: &str) {
        self.a.on_non_finite(s, d);
        self.b.on_non_finite(s, d);
    }
    fn on_resume(&mut self, e: usize, st: u64) {
        self.a.on_resume(e, st);
        self.b.on_resume(e, st);
    }
    fn on_checkpoint_write(&mut self, seq: u64, e: usize, st: u64) {
        self.a.on_checkpoint_write(seq, e, st);
        self.b.on_checkpoint_write(seq, e, st);
    }
    fn on_corrupt_skipped(&mut self, f: &str, r: &str) {
        self.a.on_corrupt_skipped(f, r);
        self.b.on_corrupt_skipped(f, r);
    }
    fn on_run_end(&mut self, s: &emba_trace::RunSummary) {
        self.a.on_run_end(s);
        self.b.on_run_end(s);
    }
}

/// Asserts that every step the resumed run executed reproduces the
/// baseline's loss at the same global step, bit for bit.
fn check_steps(baseline: &[(u64, f64)], resumed: &[(u64, f64)], label: &str) -> Result<(), String> {
    if resumed.is_empty() {
        return Err(format!("{label}: resumed run re-executed no steps"));
    }
    for &(step, loss) in resumed {
        let &(_, base) = baseline
            .iter()
            .find(|&&(s, _)| s == step)
            .ok_or_else(|| format!("{label}: resumed step {step} absent from baseline"))?;
        if base.to_bits() != loss.to_bits() {
            return Err(format!(
                "{label}: loss diverged at step {step}: baseline {base} vs resumed {loss}"
            ));
        }
    }
    Ok(())
}

fn check_f1(a: &TrainReport, b: &TrainReport, label: &str) -> Result<(), String> {
    let (fa, fb) = (a.test.matching.f1, b.test.matching.f1);
    if fa.to_bits() != fb.to_bits() {
        return Err(format!("{label}: test F1 diverged: {fa} vs {fb}"));
    }
    if a.valid_f1.to_bits() != b.valid_f1.to_bits() {
        return Err(format!(
            "{label}: best valid F1 diverged: {} vs {}",
            a.valid_f1, b.valid_f1
        ));
    }
    Ok(())
}

/// Runs the full kill → resume → corrupt → fall-back scenario on the
/// profile's first Table 2 dataset. The resumed run's event log lands in
/// `<out_dir>/runs/<name>.jsonl`.
pub fn crash_run(
    profile: &Profile,
    kind: ModelKind,
    name: &str,
    out_dir: &Path,
) -> Result<CrashOutcome, String> {
    let id = *profile
        .table2_datasets
        .first()
        .ok_or_else(|| "profile has no table2 datasets".to_string())?;
    let ds = build(id, profile.scale_for(id), profile.seed);
    let cfg = profile.cfg.clone();
    let mut cache = PretrainCache::new();
    let mut run = |trainer: &mut Trainer<'_>| {
        train_single(kind, &ds, &cfg, profile.seed, &mut cache, trainer).map(|(_, report)| report)
    };

    // 1. Uninterrupted baseline.
    let mut baseline = LossTrace::default();
    let base_report =
        run(&mut Trainer::new(&mut baseline)).map_err(|e| format!("baseline failed: {e}"))?;

    // 2. Killed run: checkpoint at every optimizer step (smoke splits are
    // tiny), die early in the second epoch, past the first epoch-boundary
    // snapshot.
    let steps_per_epoch = ds.train.len().div_ceil(cfg.train.batch_size) as u64;
    let kill_at = steps_per_epoch + 1;
    let store_dir = out_dir.join("runs").join(format!("{name}-store"));
    // A fresh scenario per invocation: stale snapshots from a previous
    // harness run would otherwise resume the wrong history.
    if store_dir.exists() {
        fs::remove_dir_all(&store_dir).map_err(|e| format!("clear {}: {e}", store_dir.display()))?;
    }
    let mut store =
        CheckpointStore::open(&store_dir, 6).map_err(|e| format!("open store: {e}"))?;
    let write_opts = DurabilityConfig {
        every_steps: 1,
        resume: false,
    };
    {
        let mut killer = Killer { kill_at };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run(&mut Trainer::durable(&mut killer, &mut store, write_opts))
        }));
        std::panic::set_hook(hook);
        if outcome.is_ok() {
            return Err(format!(
                "training finished before the injected crash at step {kill_at}"
            ));
        }
    }
    let snaps = store.snapshots().map_err(|e| format!("list store: {e}"))?;
    if snaps.len() < 3 {
        return Err(format!(
            "killed run left only {} snapshots; need 3 for the corruption phase",
            snaps.len()
        ));
    }

    // 3. Resume under a trace session; the JSONL log must carry the
    // resume event and the replay must be bit-identical.
    let runs_dir = out_dir.join("runs");
    let mut session =
        TraceSession::create(&runs_dir, name).map_err(|e| format!("open event log: {e}"))?;
    let path = session.path().to_path_buf();
    let resume_opts = DurabilityConfig {
        every_steps: 1,
        resume: true,
    };
    let mut resumed = LossTrace::default();
    let resumed_report = {
        let mut tee = Tee {
            a: &mut session,
            b: &mut resumed,
        };
        run(&mut Trainer::durable(&mut tee, &mut store, resume_opts.clone()))
            .map_err(|e| format!("resume failed: {e}"))?
    };
    let summary = session.finish().map_err(|e| format!("flush event log: {e}"))?;
    if summary.resumes != 1 {
        return Err(format!("expected 1 resume event, saw {}", summary.resumes));
    }
    if resumed.corrupt_skipped != 0 {
        return Err(format!(
            "clean store reported {} corrupt snapshots",
            resumed.corrupt_skipped
        ));
    }
    check_steps(&baseline.steps, &resumed.steps, "resume")?;
    check_f1(&base_report, &resumed_report, "resume")?;
    let events = validate_jsonl(&path)?;
    count_events(&path, "resume", 1)?;

    // 4. Corruption phase: torn write on the newest snapshot, a flipped
    // bit in the next-newest, and a partial temp file from an interrupted
    // rename. The fall-back resume must skip exactly the two damaged
    // snapshots and still reproduce the baseline.
    let snaps = store.snapshots().map_err(|e| format!("list store: {e}"))?;
    if snaps.len() < 3 {
        return Err("corruption phase needs at least 3 snapshots".to_string());
    }
    let (_, newest) = &snaps[snaps.len() - 1];
    let bytes = fs::read(newest).map_err(|e| e.to_string())?;
    fs::write(newest, &bytes[..bytes.len() * 2 / 3]).map_err(|e| e.to_string())?;
    let (_, second) = &snaps[snaps.len() - 2];
    let mut bytes = fs::read(second).map_err(|e| e.to_string())?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(second, &bytes).map_err(|e| e.to_string())?;
    fs::write(store_dir.join("ckpt-999999.json.tmp"), "{\"torn\":")
        .map_err(|e| e.to_string())?;

    let mut fallback = LossTrace::default();
    let fallback_report = run(&mut Trainer::durable(&mut fallback, &mut store, resume_opts))
        .map_err(|e| format!("fall-back resume failed: {e}"))?;
    if fallback.corrupt_skipped != 2 {
        return Err(format!(
            "expected 2 corrupt snapshots skipped, saw {}",
            fallback.corrupt_skipped
        ));
    }
    if fallback.resumes != 1 {
        return Err(format!(
            "fall-back run saw {} resume events, expected 1",
            fallback.resumes
        ));
    }
    check_steps(&baseline.steps, &fallback.steps, "fall-back")?;
    check_f1(&base_report, &fallback_report, "fall-back")?;

    Ok(CrashOutcome {
        path,
        events,
        killed_at_step: kill_at,
        resumed_steps: resumed.steps.len(),
        corrupt_skipped: fallback.corrupt_skipped,
        test_f1: base_report.test.matching.f1,
    })
}

/// Checks the JSONL log contains exactly `expected` events of `event` kind.
fn count_events(path: &Path, event: &str, expected: u64) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut count = 0u64;
    for line in text.lines() {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("malformed line: {e}"))?;
        if v.get("event").and_then(Value::as_str) == Some(event) {
            count += 1;
        }
    }
    if count != expected {
        return Err(format!(
            "{}: {count} {event:?} events, expected {expected}",
            path.display()
        ));
    }
    Ok(())
}
