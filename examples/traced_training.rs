//! Observed training: attach a trace session to a run and get a streaming
//! JSONL event log plus an aggregate summary.
//!
//! ```sh
//! cargo run --release --example traced_training
//! ```
//!
//! Writes `results/runs/example.jsonl` — one JSON object per event (run
//! metadata, per-step loss / gradient norm / learning rate, evaluation
//! passes, checkpointing) with a final `run_summary` line. MLM pre-training
//! reports through the same observer as a run of its own (`run_start` with
//! `model = "mlm:…"`) ahead of the fine-tune.
//!
//! The run is also profiled: the tape-op profiler is armed around it, its
//! per-op table and phase timers are merged into the `run_summary` line, and
//! `results/profiles/example.trace.json` (chrome://tracing, Perfetto) and
//! `example.folded` (flamegraph stacks) are written next to the log.

use std::path::Path;

use emba::core::{
    train_single, ExperimentConfig, ModelKind, PretrainCache, TrainConfig, Trainer,
};
use emba::datagen::{build, DatasetId, Scale, WdcCategory, WdcSize};
use emba::tensor::prof;
use emba::trace::{prof_export, TraceSession};

fn main() {
    let dataset = build(
        DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small),
        Scale(0.05),
        42,
    );
    let cfg = ExperimentConfig {
        vocab_size: 512,
        max_len: 48,
        train: TrainConfig {
            epochs: 6,
            batch_size: 8,
            lr: 1e-3,
            patience: 3,
            // Scan every op output for NaN/Inf; offenders are reported in
            // the event log with the op name that produced them.
            nan_guard: true,
            ..TrainConfig::default()
        },
        mlm_epochs: 2,
        runs: 1,
        ..ExperimentConfig::default()
    };

    let mut session =
        TraceSession::create(Path::new("results/runs"), "example").expect("open event log");
    println!("logging to {} ...", session.path().display());
    prof::enable(true);
    let (_, report) = train_single(
        ModelKind::EmbaSb,
        &dataset,
        &cfg,
        0,
        &mut PretrainCache::new(),
        &mut Trainer::new(&mut session),
    )
    .expect("a trainer without a store performs no I/O");
    prof::enable(false);
    let profile = prof::report();
    session.record_profile(&profile);
    let summary = session.finish().expect("flush event log");
    let (trace, folded) = prof_export::write_profile_artifacts(Path::new("results"), "example", &profile)
        .expect("write profile artifacts");
    println!("profile: {} and {}", trace.display(), folded.display());

    // The session saw two runs; its per-epoch curve lists them in order.
    let (mlm_curve, fine_tune_curve) = summary.loss_curve.split_at(cfg.mlm_epochs);
    println!("MLM loss per epoch:       {mlm_curve:.3?}");
    println!("fine-tune loss per epoch: {fine_tune_curve:.3?}");

    println!(
        "{} epochs and {} optimizer steps over both runs, best valid F1 {:.3} (epoch {}), test F1 {:.3}",
        summary.epochs_run,
        summary.steps,
        summary.best_valid_f1,
        summary.best_epoch,
        report.test.matching.f1,
    );
    println!(
        "grad norm min/mean/max = {:.3}/{:.3}/{:.3}; pool hit-rate {:.1}%; \
         {:.1}s training, {:.1}s evaluation; {} non-finite events",
        summary.grad_norm_min,
        summary.grad_norm_mean,
        summary.grad_norm_max,
        100.0 * summary.pool_hit_rate,
        summary.train_secs,
        summary.eval_secs,
        summary.non_finite_events,
    );
}
