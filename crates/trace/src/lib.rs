//! Training-run observability for the EMBA reproduction.
//!
//! The training loop in `emba-core` is deliberately silent: it returns a
//! final report and nothing else, which makes divergence (a NaN loss, a dead
//! learning-rate schedule, an early stop that never fires) invisible until
//! the run is over. This crate adds a thin observer seam:
//!
//! * [`TrainEvent`] — every interesting moment of a run as one value: epoch
//!   boundaries, optimizer steps (loss, pre-clip gradient norm, effective
//!   learning rate, wall time), evaluation passes, best-state checkpointing,
//!   durable snapshots, and non-finite events. It knows its JSONL name and
//!   serializes to its JSONL fields.
//! * [`TrainObserver`] — the trait a training loop reports to. Producers
//!   call only [`TrainObserver::on_event`]; its default hands the payload to
//!   one named no-op hook per variant, so an observer that cares about a few
//!   moments implements those hooks and one that treats all alike (a logger,
//!   a tee) overrides `on_event` alone.
//! * [`JsonlLogger`] — streams one JSON object per event to any `Write`
//!   sink, conventionally `results/runs/<name>.jsonl`. Every object carries
//!   an `"event"` discriminator; non-finite floats are sanitized to `null`
//!   so the log always parses.
//! * [`SummaryBuilder`] — folds the same event stream into a [`RunSummary`]:
//!   per-epoch loss curve, gradient-norm statistics, scratch-pool hit rate
//!   (via [`emba_tensor::pool::stats`]), and per-phase timers.
//! * [`TraceSession`] — the usual pairing of both, plus the output path.
//!
//! Two sibling modules extend the run-level view down to individual ops:
//! [`metrics`] (named counters, gauges, and log-spaced latency histograms
//! for the inference path) and [`prof_export`] (Chrome-trace JSON, folded
//! flamegraph stacks, and per-op tables rendered from the tape-op profiler
//! in `emba_tensor::prof`). A profiler report can be merged into the
//! [`RunSummary`] final line via [`SummaryBuilder::record_profile`].
//!
//! The crate deliberately does not depend on `emba-core` (core depends on
//! it), so hooks traffic only in plain numbers, strings, and the record
//! structs defined here.

pub mod expo;
pub mod metrics;
pub mod prof_export;
pub mod serve_events;

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use emba_tensor::pool;
use emba_tensor::prof::ProfReport;
use serde::{Deserialize, Serialize, Value};

pub use expo::{parse_exposition, prometheus_text, sanitize_metric_name, validate_exposition};
pub use metrics::{HistogramSummary, MetricsSnapshot};
pub use prof_export::{OpRow, PhaseRow, TraceSpan};
pub use serve_events::{parse_postmortem, write_postmortem, Postmortem, ServeSpanEvent, SpanKind};

/// Static facts about a run, emitted once before the first epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMeta {
    /// Model name as reported by the matcher.
    pub model: String,
    /// Number of training examples.
    pub train_examples: usize,
    /// Number of validation examples.
    pub valid_examples: usize,
    /// Configured epoch budget.
    pub epochs: usize,
    /// Optimizer batch size.
    pub batch_size: usize,
    /// Peak learning rate of the schedule.
    pub base_lr: f64,
}

/// One optimizer step: the numbers a divergence postmortem needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepRecord {
    /// Zero-based epoch the step belongs to.
    pub epoch: usize,
    /// Global optimizer step index (zero-based).
    pub step: u64,
    /// Mean training loss over the examples in this batch.
    pub loss: f64,
    /// Global L2 gradient norm *before* clipping.
    pub grad_norm: f64,
    /// Effective learning rate applied by the schedule at this step.
    pub lr: f64,
    /// Wall-clock time of the batch in milliseconds.
    pub wall_ms: f64,
    /// Number of examples in the batch.
    pub examples: usize,
}

/// One evaluation pass over a split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalRecord {
    /// Epoch after which the evaluation ran.
    pub epoch: usize,
    /// Split name: `"valid"` or `"test"`.
    pub split: String,
    /// Precision on the positive (match) class.
    pub precision: f64,
    /// Recall on the positive (match) class.
    pub recall: f64,
    /// F1 on the positive (match) class.
    pub f1: f64,
    /// Overall accuracy.
    pub accuracy: f64,
    /// Wall-clock time of the pass in seconds.
    pub wall_secs: f64,
}

/// Aggregate view of a finished run, assembled by [`SummaryBuilder`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunSummary {
    /// Epochs actually executed (early stopping may cut the budget short).
    pub epochs_run: usize,
    /// Optimizer steps taken.
    pub steps: u64,
    /// Mean training loss per epoch, in epoch order.
    pub loss_curve: Vec<f64>,
    /// Smallest pre-clip gradient norm observed.
    pub grad_norm_min: f64,
    /// Mean pre-clip gradient norm over all steps.
    pub grad_norm_mean: f64,
    /// Largest pre-clip gradient norm observed.
    pub grad_norm_max: f64,
    /// Pre-clip gradient norm of the final step.
    pub grad_norm_last: f64,
    /// Epoch whose validation F1 was best.
    pub best_epoch: usize,
    /// Best validation F1 seen.
    pub best_valid_f1: f64,
    /// Scratch-pool buffer hits during the run.
    pub pool_hits: u64,
    /// Scratch-pool buffer misses (fresh allocations) during the run.
    pub pool_misses: u64,
    /// `hits / (hits + misses)`, or 0 when the pool went untouched.
    pub pool_hit_rate: f64,
    /// Seconds spent in optimizer steps (forward + backward + update).
    pub train_secs: f64,
    /// Seconds spent in evaluation passes.
    pub eval_secs: f64,
    /// Times the best state was (re)captured.
    pub checkpoint_saves: usize,
    /// Non-finite events reported (guard hits, NaN losses, NaN metrics).
    pub non_finite_events: usize,
    /// Times the run continued from a durable snapshot instead of scratch.
    #[serde(default)]
    pub resumes: usize,
    /// Durable snapshots written to the on-disk store during the run.
    #[serde(default)]
    pub checkpoint_writes: usize,
    /// Corrupt/unreadable snapshots skipped while searching for a valid one.
    #[serde(default)]
    pub corrupt_skipped: usize,
    /// Per-op profiler table (aggregated across phases, descending self
    /// time); empty when the run was not profiled.
    #[serde(default)]
    pub profile_ops: Vec<OpRow>,
    /// Phase wall-time totals in stable path-sorted order, so summaries of
    /// identical runs diff byte-for-byte; empty when not profiled.
    #[serde(default)]
    pub phase_timers: Vec<PhaseRow>,
    /// Catalog-matching section (blocking + encoding-cache statistics);
    /// `None` when the run never matched a catalog.
    #[serde(default)]
    pub catalog: Option<CatalogSummary>,
    /// Match-serving section (queueing, batching, and deadline statistics
    /// from `emba-serve`); `None` when the run never served requests.
    #[serde(default)]
    pub serve: Option<ServeSummary>,
}

/// What a catalog-matching pass did and what it cost — the trace-side
/// mirror of the core crate's catalog report, attached to [`RunSummary`]
/// when a traced run drives `match_catalog`.
///
/// In the JSONL schema this lands inside the final `run_summary` line as an
/// optional `catalog` object; summaries written before this field existed
/// parse with `catalog: null`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CatalogSummary {
    /// Catalog size in records.
    pub records: usize,
    /// Candidate pairs emitted by the blocking index.
    pub candidate_pairs: usize,
    /// Pairs scored through the AOA head.
    pub scored_pairs: usize,
    /// Pairs at or above the match threshold.
    pub matches: usize,
    /// Backbone record encodes performed (cache misses).
    pub encodes: u64,
    /// Encoding-cache hits.
    pub cache_hits: u64,
    /// Encoding-cache misses.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`.
    pub cache_hit_rate: f64,
    /// `encodes / scored_pairs` — the amortization headline.
    pub encodes_per_pair: f64,
    /// Blocking recall against known clusters; negative when unknown.
    pub blocking_recall: f64,
    /// Blocking-index build + candidate emission seconds.
    pub blocking_secs: f64,
    /// Backbone encoding seconds.
    pub encode_secs: f64,
    /// AOA + match-head scoring seconds.
    pub score_secs: f64,
    /// End-to-end wall seconds.
    pub total_secs: f64,
    /// `scored_pairs / total_secs`.
    pub pairs_per_sec: f64,
}

/// What a serving session did — the trace-side mirror of `emba-serve`'s
/// `ServerSnapshot`, attached to [`RunSummary`] when a traced run drives a
/// serving engine.
///
/// In the JSONL schema this lands inside the final `run_summary` line as an
/// optional `serve` object; summaries written before this field existed
/// parse with `serve: null`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeSummary {
    /// Requests accepted onto the queue.
    pub enqueued: u64,
    /// Requests answered with a probability.
    pub scored: u64,
    /// Requests answered expired (deadline passed while queued).
    pub expired: u64,
    /// Requests shed at admission (queue full on arrival). Zero in
    /// summaries written before PR 8.
    #[serde(default)]
    pub rejected: u64,
    /// Requests shed by the deadline-aware high-water policy. Zero in
    /// summaries written before PR 8.
    #[serde(default)]
    pub shed: u64,
    /// Requests answered `Failed` (flush panic or non-finite probability).
    /// Zero in summaries written before PR 8.
    #[serde(default)]
    pub failed: u64,
    /// Successful matcher restarts after a fault. Zero in summaries
    /// written before PR 8.
    #[serde(default)]
    pub restarts: u64,
    /// Whether the engine was degraded (matcher suspect, restart pending)
    /// when the summary was captured. `false` in summaries written before
    /// PR 8.
    #[serde(default)]
    pub degraded: bool,
    /// Times the supervisor entered the degraded state. Zero in summaries
    /// written before PR 9.
    #[serde(default)]
    pub degraded_entries: u64,
    /// Cache keys quarantined as suspected poison inputs. Zero in
    /// summaries written before PR 9.
    #[serde(default)]
    pub quarantined: u64,
    /// Flight-recorder postmortem dumps written. Zero in summaries written
    /// before PR 9.
    #[serde(default)]
    pub postmortems: u64,
    /// Span events recorded by the flight recorder. Zero in summaries
    /// written before PR 9 (or with tracing disabled).
    #[serde(default)]
    pub trace_events: u64,
    /// Span events the flight-recorder ring overwrote. Zero in summaries
    /// written before PR 9.
    #[serde(default)]
    pub trace_dropped: u64,
    /// Batches flushed.
    pub flushes: u64,
    /// Backbone record encodes (cache misses actually computed).
    pub encodes: u64,
    /// Largest queue depth observed.
    pub peak_queue_depth: usize,
    /// Encoding-cache hits across all requests.
    pub cache_hits: u64,
    /// Encoding-cache misses.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`.
    pub cache_hit_rate: f64,
    /// Distribution of flush batch sizes.
    pub batch_size: metrics::HistogramSummary,
    /// Enqueue→answer wait of every admitted request (scored, expired,
    /// failed, or shed above the high-water mark), nanoseconds.
    pub request_latency: metrics::HistogramSummary,
    /// Kernel backend that served the run (`"f32"`, `"int8-avx2"`,
    /// `"int8-scalar"`, ...). Empty in summaries written before PR 10.
    #[serde(default)]
    pub backend: String,
}

/// One moment of a training run: the payload of the [`TrainObserver`] hook of
/// the same name, in that hook's argument order. Serializes to the moment's
/// JSONL fields.
#[derive(Debug, Clone, Copy)]
pub enum TrainEvent<'a> {
    /// Once, before the first epoch.
    RunStart(&'a RunMeta),
    /// The start of an epoch (zero-based).
    EpochStart(usize),
    /// One optimizer step.
    Step(&'a StepRecord),
    /// The end of an epoch, and its mean training loss.
    EpochEnd(usize, f64),
    /// One evaluation pass.
    Eval(&'a EvalRecord),
    /// The best-so-far state was captured: its epoch and validation F1.
    CheckpointSave(usize, f64),
    /// The best state (of this epoch) was restored at the end of the run.
    CheckpointRestore(usize),
    /// A non-finite value was detected: a source identifying where
    /// (`"op:softmax_rows"`, `"train_loss"`, `"valid_f1"`) and a
    /// human-readable elaboration.
    NonFinite(&'a str, &'a str),
    /// The run continues from a durable snapshot instead of starting from
    /// scratch: the epoch and global step it resumes at.
    Resume(usize, u64),
    /// A durable snapshot landed on disk (post-rename, so the bytes survive a
    /// crash from this moment on): the store's sequence number, then the
    /// snapshot's epoch and global step.
    CheckpointWrite(u64, usize, u64),
    /// A corrupt, truncated, or unreadable snapshot (file name, reason) was
    /// skipped while searching the store for the newest valid one.
    CorruptSkipped(&'a str, &'a str),
    /// Once, after the run, with the aggregate summary.
    RunEnd(&'a RunSummary),
}

impl TrainEvent<'_> {
    /// The `"event"` tag of this moment's JSONL line.
    pub fn name(&self) -> &'static str {
        match self {
            TrainEvent::RunStart(_) => "run_start",
            TrainEvent::EpochStart(_) => "epoch_start",
            TrainEvent::Step(_) => "step",
            TrainEvent::EpochEnd(..) => "epoch_end",
            TrainEvent::Eval(_) => "eval",
            TrainEvent::CheckpointSave(..) => "checkpoint_save",
            TrainEvent::CheckpointRestore(_) => "checkpoint_restore",
            TrainEvent::NonFinite(..) => "non_finite",
            TrainEvent::Resume(..) => "resume",
            TrainEvent::CheckpointWrite(..) => "checkpoint_write",
            TrainEvent::CorruptSkipped(..) => "corrupt_skipped",
            TrainEvent::RunEnd(_) => "run_summary",
        }
    }
}

impl Serialize for TrainEvent<'_> {
    fn to_value(&self) -> Value {
        fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
            Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        }
        match *self {
            TrainEvent::RunStart(meta) => meta.to_value(),
            TrainEvent::Step(record) => record.to_value(),
            TrainEvent::Eval(record) => record.to_value(),
            TrainEvent::RunEnd(summary) => summary.to_value(),
            // The two epoch lines share a shape, as do the two best-state
            // lines: the start / restore half carries a null.
            TrainEvent::EpochStart(epoch) => {
                object([("epoch", epoch.to_value()), ("mean_loss", Value::Null)])
            }
            TrainEvent::EpochEnd(epoch, mean_loss) => {
                object([("epoch", epoch.to_value()), ("mean_loss", mean_loss.to_value())])
            }
            TrainEvent::CheckpointSave(epoch, valid_f1) => {
                object([("epoch", epoch.to_value()), ("valid_f1", valid_f1.to_value())])
            }
            TrainEvent::CheckpointRestore(epoch) => {
                object([("epoch", epoch.to_value()), ("valid_f1", Value::Null)])
            }
            TrainEvent::NonFinite(source, detail) => {
                object([("source", source.to_value()), ("detail", detail.to_value())])
            }
            TrainEvent::Resume(epoch, step) => {
                object([("epoch", epoch.to_value()), ("step", step.to_value())])
            }
            TrainEvent::CheckpointWrite(seq, epoch, step) => object([
                ("seq", seq.to_value()),
                ("epoch", epoch.to_value()),
                ("step", step.to_value()),
            ]),
            TrainEvent::CorruptSkipped(file, reason) => {
                object([("file", file.to_value()), ("reason", reason.to_value())])
            }
        }
    }
}

/// Hooks into a training run. Training loops call only
/// [`TrainObserver::on_event`]; an observer either overrides it, or keeps the
/// default and implements the named hooks it cares about (every one is a
/// no-op by default).
pub trait TrainObserver {
    /// Receives every event of the run. The default hands the payload to the
    /// named hook of the same variant.
    fn on_event(&mut self, event: TrainEvent<'_>) {
        match event {
            TrainEvent::RunStart(meta) => self.on_run_start(meta),
            TrainEvent::EpochStart(epoch) => self.on_epoch_start(epoch),
            TrainEvent::Step(record) => self.on_step(record),
            TrainEvent::EpochEnd(epoch, mean_loss) => self.on_epoch_end(epoch, mean_loss),
            TrainEvent::Eval(record) => self.on_eval(record),
            TrainEvent::CheckpointSave(epoch, valid_f1) => self.on_checkpoint_save(epoch, valid_f1),
            TrainEvent::CheckpointRestore(epoch) => self.on_checkpoint_restore(epoch),
            TrainEvent::NonFinite(source, detail) => self.on_non_finite(source, detail),
            TrainEvent::Resume(epoch, step) => self.on_resume(epoch, step),
            TrainEvent::CheckpointWrite(seq, epoch, step) => {
                self.on_checkpoint_write(seq, epoch, step)
            }
            TrainEvent::CorruptSkipped(file, reason) => self.on_corrupt_skipped(file, reason),
            TrainEvent::RunEnd(summary) => self.on_run_end(summary),
        }
    }
    /// [`TrainEvent::RunStart`].
    fn on_run_start(&mut self, _meta: &RunMeta) {}
    /// [`TrainEvent::EpochStart`].
    fn on_epoch_start(&mut self, _epoch: usize) {}
    /// [`TrainEvent::Step`].
    fn on_step(&mut self, _record: &StepRecord) {}
    /// [`TrainEvent::EpochEnd`].
    fn on_epoch_end(&mut self, _epoch: usize, _mean_loss: f64) {}
    /// [`TrainEvent::Eval`].
    fn on_eval(&mut self, _record: &EvalRecord) {}
    /// [`TrainEvent::CheckpointSave`].
    fn on_checkpoint_save(&mut self, _epoch: usize, _valid_f1: f64) {}
    /// [`TrainEvent::CheckpointRestore`].
    fn on_checkpoint_restore(&mut self, _epoch: usize) {}
    /// [`TrainEvent::NonFinite`].
    fn on_non_finite(&mut self, _source: &str, _detail: &str) {}
    /// [`TrainEvent::Resume`].
    fn on_resume(&mut self, _epoch: usize, _step: u64) {}
    /// [`TrainEvent::CheckpointWrite`].
    fn on_checkpoint_write(&mut self, _seq: u64, _epoch: usize, _step: u64) {}
    /// [`TrainEvent::CorruptSkipped`].
    fn on_corrupt_skipped(&mut self, _file: &str, _reason: &str) {}
    /// [`TrainEvent::RunEnd`].
    fn on_run_end(&mut self, _summary: &RunSummary) {}
}

/// Observer that ignores every event; the default when callers pass no
/// observer of their own.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl TrainObserver for NullObserver {}

/// Replaces non-finite floats with `Null`, recursively. The vendored JSON
/// writer already emits `null` for them, but sanitizing the tree keeps the
/// in-memory event copies consistent with what lands on disk.
fn sanitize(v: Value) -> Value {
    match v {
        Value::Float(f) if !f.is_finite() => Value::Null,
        Value::Array(items) => Value::Array(items.into_iter().map(sanitize).collect()),
        Value::Object(fields) => {
            Value::Object(fields.into_iter().map(|(k, v)| (k, sanitize(v))).collect())
        }
        other => other,
    }
}

/// Tags a record's object form with an `"event"` discriminator as the first
/// key and sanitizes non-finite floats.
fn tagged(event: &str, v: Value) -> Value {
    let mut fields = vec![("event".to_string(), Value::Str(event.to_string()))];
    match sanitize(v) {
        Value::Object(rest) => fields.extend(rest),
        other => fields.push(("value".to_string(), other)),
    }
    Value::Object(fields)
}

/// Streams one JSON object per observer event to a `Write` sink.
///
/// Events are written in arrival order, one per line, each with an `"event"`
/// field naming the hook. All floats in the output are finite or `null`.
/// The sink is flushed after the `run_summary` line and again on drop, so a
/// run that is killed (or panics) between events loses at most the buffered
/// tail, never the whole log.
pub struct JsonlLogger<W: Write> {
    /// `None` only after [`JsonlLogger::finish`] moved the sink out (the
    /// `Option` lets `finish` coexist with the flush-on-drop impl).
    out: Option<W>,
    events: u64,
    io_error: Option<io::Error>,
}

impl JsonlLogger<BufWriter<File>> {
    /// Creates `<dir>/<name>.jsonl` (and `dir` itself if missing) and logs
    /// into it.
    pub fn create(dir: &Path, name: &str) -> io::Result<(Self, PathBuf)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.jsonl"));
        let file = File::create(&path)?;
        Ok((Self::new(BufWriter::new(file)), path))
    }
}

impl<W: Write> JsonlLogger<W> {
    /// Wraps an arbitrary sink.
    pub fn new(out: W) -> Self {
        Self { out: Some(out), events: 0, io_error: None }
    }

    /// Number of events written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Flushes the sink and surfaces any write error swallowed by the
    /// observer hooks (which cannot return `Result`).
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.io_error.take() {
            return Err(e);
        }
        let mut out = self.out.take().expect("finish consumes the logger; sink present");
        out.flush()?;
        Ok(out)
    }

    /// Writes one tagged line. Every [`TrainEvent`] comes through here, and
    /// so do lines outside that vocabulary: the serving path's lifecycle
    /// events (`serve_shed`, `serve_restart`, ...) and postmortem dumps, so
    /// serving runs produce the same JSONL shape, sanitization and
    /// durability as training runs.
    pub fn log_event<T: Serialize>(&mut self, event: &str, record: &T) {
        if self.io_error.is_some() {
            return;
        }
        let Some(out) = self.out.as_mut() else { return };
        let line = serde_json::to_string(&tagged(event, record.to_value()))
            .expect("value serialization is infallible");
        if let Err(e) = writeln!(out, "{line}") {
            self.io_error = Some(e);
            return;
        }
        self.events += 1;
        // The summary is the last—and most load-bearing—line; make it
        // durable immediately rather than waiting for finish/drop.
        if event == "run_summary" {
            if let Err(e) = out.flush() {
                self.io_error = Some(e);
            }
        }
    }
}

impl<W: Write> Drop for JsonlLogger<W> {
    fn drop(&mut self) {
        // Best-effort: an abandoned logger (panic unwind, early return)
        // still pushes its buffered lines to the sink.
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }
}

impl<W: Write> TrainObserver for JsonlLogger<W> {
    fn on_event(&mut self, event: TrainEvent<'_>) {
        self.log_event(event.name(), &event);
    }
}

/// Folds the observer event stream into a [`RunSummary`].
///
/// A builder that sees several runs (pre-training, then the fine-tune)
/// aggregates them all: counters add up and `loss_curve` lists the runs'
/// epochs in order.
///
/// Pool statistics are measured as a delta from construction time, so a
/// builder made just before a training run reports only that run's hits and
/// misses even when earlier runs already warmed the pool.
pub struct SummaryBuilder {
    pool_baseline: pool::PoolStats,
    grad_norms: Vec<f64>,
    /// The summary so far. The pool and gradient-norm fields are filled in by
    /// [`SummaryBuilder::finish`]; `best_valid_f1` is −∞ until a best state
    /// is captured and leaves `finish` as 0 in that case.
    summary: RunSummary,
}

impl SummaryBuilder {
    /// Starts aggregating; snapshots the pool counters as the baseline.
    pub fn new() -> Self {
        Self {
            pool_baseline: pool::stats(),
            grad_norms: Vec::new(),
            summary: RunSummary { best_valid_f1: f64::NEG_INFINITY, ..RunSummary::default() },
        }
    }

    /// Merges a tape-op profiler report into the summary: the per-op table
    /// (descending self time) and the phase timers in stable sorted order.
    pub fn record_profile(&mut self, report: &ProfReport) {
        self.summary.profile_ops = prof_export::op_table(report);
        self.summary.phase_timers = prof_export::phase_rows(report);
    }

    /// Attaches a catalog-matching section to the summary (last write wins
    /// when a run matches several catalogs).
    pub fn record_catalog(&mut self, catalog: CatalogSummary) {
        self.summary.catalog = Some(catalog);
    }

    /// Attaches a serving section to the summary (last write wins when a
    /// run snapshots the engine several times — pass the final snapshot).
    pub fn record_serve(&mut self, serve: ServeSummary) {
        self.summary.serve = Some(serve);
    }

    /// Finalizes the aggregate.
    pub fn finish(&self) -> RunSummary {
        let now = pool::stats();
        let hits = now.hits.saturating_sub(self.pool_baseline.hits);
        let misses = now.misses.saturating_sub(self.pool_baseline.misses);
        let lookups = hits + misses;
        let (norms, n) = (&self.grad_norms, self.grad_norms.len());
        let min = norms.iter().copied().fold(f64::INFINITY, f64::min);
        let max = norms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = norms.iter().sum();
        let best = self.summary.best_valid_f1;
        RunSummary {
            grad_norm_min: if n == 0 { 0.0 } else { min },
            grad_norm_mean: if n == 0 { 0.0 } else { sum / n as f64 },
            grad_norm_max: if n == 0 { 0.0 } else { max },
            grad_norm_last: norms.last().copied().unwrap_or(0.0),
            best_valid_f1: if best.is_finite() { best } else { 0.0 },
            pool_hits: hits,
            pool_misses: misses,
            pool_hit_rate: if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
            ..self.summary.clone()
        }
    }
}

impl Default for SummaryBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TrainObserver for SummaryBuilder {
    fn on_event(&mut self, event: TrainEvent<'_>) {
        let s = &mut self.summary;
        match event {
            TrainEvent::Step(record) => {
                s.steps += 1;
                self.grad_norms.push(record.grad_norm);
                s.train_secs += record.wall_ms / 1e3;
            }
            TrainEvent::EpochEnd(_, mean_loss) => {
                s.epochs_run += 1;
                s.loss_curve.push(mean_loss);
            }
            TrainEvent::Eval(record) => s.eval_secs += record.wall_secs,
            TrainEvent::CheckpointSave(epoch, valid_f1) => {
                s.checkpoint_saves += 1;
                if valid_f1 > s.best_valid_f1 {
                    s.best_valid_f1 = valid_f1;
                    s.best_epoch = epoch;
                }
            }
            TrainEvent::NonFinite(..) => s.non_finite_events += 1,
            TrainEvent::Resume(..) => s.resumes += 1,
            TrainEvent::CheckpointWrite(..) => s.checkpoint_writes += 1,
            TrainEvent::CorruptSkipped(..) => s.corrupt_skipped += 1,
            _ => {}
        }
    }
}

/// A [`JsonlLogger`] writing to `results/runs/<name>.jsonl` paired with a
/// [`SummaryBuilder`]; forwards every event to both and appends the final
/// `run_summary` line when finished.
pub struct TraceSession {
    logger: JsonlLogger<BufWriter<File>>,
    summary: SummaryBuilder,
    path: PathBuf,
}

impl TraceSession {
    /// Opens `<dir>/<name>.jsonl` for a new run.
    pub fn create(dir: &Path, name: &str) -> io::Result<Self> {
        let (logger, path) = JsonlLogger::create(dir, name)?;
        Ok(Self { logger, summary: SummaryBuilder::new(), path })
    }

    /// Path of the log file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Merges a tape-op profiler report into the final summary line (see
    /// [`SummaryBuilder::record_profile`]).
    pub fn record_profile(&mut self, report: &ProfReport) {
        self.summary.record_profile(report);
    }

    /// Attaches a catalog-matching section to the final summary line (see
    /// [`SummaryBuilder::record_catalog`]).
    pub fn record_catalog(&mut self, catalog: CatalogSummary) {
        self.summary.record_catalog(catalog);
    }

    /// Attaches a serving section to the final summary line (see
    /// [`SummaryBuilder::record_serve`]).
    pub fn record_serve(&mut self, serve: ServeSummary) {
        self.summary.record_serve(serve);
    }

    /// Builds the final summary, writes it as the last JSONL line, and
    /// flushes the file.
    pub fn finish(mut self) -> io::Result<RunSummary> {
        let summary = self.summary.finish();
        self.logger.on_event(TrainEvent::RunEnd(&summary));
        self.logger.finish()?;
        Ok(summary)
    }
}

impl TrainObserver for TraceSession {
    fn on_event(&mut self, event: TrainEvent<'_>) {
        self.logger.on_event(event);
        self.summary.on_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RunMeta {
        RunMeta {
            model: "emba-sb".to_string(),
            train_examples: 64,
            valid_examples: 16,
            epochs: 2,
            batch_size: 8,
            base_lr: 1e-3,
        }
    }

    fn step(epoch: usize, step: u64, loss: f64, grad_norm: f64) -> StepRecord {
        StepRecord { epoch, step, loss, grad_norm, lr: 1e-3, wall_ms: 2.0, examples: 8 }
    }

    fn eval(epoch: usize, split: &str, f1: f64) -> EvalRecord {
        EvalRecord {
            epoch,
            split: split.to_string(),
            precision: 0.9,
            recall: 0.8,
            f1,
            accuracy: 0.85,
            wall_secs: 0.01,
        }
    }

    /// Drives a miniature two-epoch run through any observer.
    fn drive(obs: &mut dyn TrainObserver) {
        use TrainEvent::*;
        for event in [
            RunStart(&meta()),
            EpochStart(0),
            Step(&step(0, 0, 0.9, 2.0)),
            Step(&step(0, 1, 0.7, 4.0)),
            EpochEnd(0, 0.8),
            Eval(&eval(0, "valid", 0.5)),
            CheckpointSave(0, 0.5),
            EpochStart(1),
            Step(&step(1, 2, 0.5, 1.0)),
            EpochEnd(1, 0.5),
            Eval(&eval(1, "valid", 0.6)),
            CheckpointSave(1, 0.6),
            CheckpointRestore(1),
            Eval(&eval(2, "test", 0.55)),
        ] {
            obs.on_event(event);
        }
    }

    /// The recovery and divergence events `drive` leaves out.
    fn drive_recovery(obs: &mut dyn TrainObserver) {
        use TrainEvent::*;
        for event in [
            NonFinite("train_loss", "loss went NaN at step 0"),
            CorruptSkipped("ckpt-000007.json", "checksum mismatch"),
            Resume(3, 42),
            CheckpointWrite(8, 3, 44),
        ] {
            obs.on_event(event);
        }
    }

    fn parse_lines(bytes: &[u8]) -> Vec<Value> {
        let text = std::str::from_utf8(bytes).unwrap();
        text.lines().map(|l| serde_json::from_str::<Value>(l).unwrap()).collect()
    }

    fn event_names(lines: &[Value]) -> Vec<String> {
        lines
            .iter()
            .map(|v| v.get("event").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    /// The log of `drive` + `drive_recovery`, byte for byte as the twelve
    /// hand-written hooks and their six event structs wrote it before
    /// [`TrainEvent`] replaced them (captured at that commit).
    const GOLDEN_LOG: &str = r#"{"event":"run_start","model":"emba-sb","train_examples":64,"valid_examples":16,"epochs":2,"batch_size":8,"base_lr":0.001}
{"event":"epoch_start","epoch":0,"mean_loss":null}
{"event":"step","epoch":0,"step":0,"loss":0.9,"grad_norm":2.0,"lr":0.001,"wall_ms":2.0,"examples":8}
{"event":"step","epoch":0,"step":1,"loss":0.7,"grad_norm":4.0,"lr":0.001,"wall_ms":2.0,"examples":8}
{"event":"epoch_end","epoch":0,"mean_loss":0.8}
{"event":"eval","epoch":0,"split":"valid","precision":0.9,"recall":0.8,"f1":0.5,"accuracy":0.85,"wall_secs":0.01}
{"event":"checkpoint_save","epoch":0,"valid_f1":0.5}
{"event":"epoch_start","epoch":1,"mean_loss":null}
{"event":"step","epoch":1,"step":2,"loss":0.5,"grad_norm":1.0,"lr":0.001,"wall_ms":2.0,"examples":8}
{"event":"epoch_end","epoch":1,"mean_loss":0.5}
{"event":"eval","epoch":1,"split":"valid","precision":0.9,"recall":0.8,"f1":0.6,"accuracy":0.85,"wall_secs":0.01}
{"event":"checkpoint_save","epoch":1,"valid_f1":0.6}
{"event":"checkpoint_restore","epoch":1,"valid_f1":null}
{"event":"eval","epoch":2,"split":"test","precision":0.9,"recall":0.8,"f1":0.55,"accuracy":0.85,"wall_secs":0.01}
{"event":"non_finite","source":"train_loss","detail":"loss went NaN at step 0"}
{"event":"corrupt_skipped","file":"ckpt-000007.json","reason":"checksum mismatch"}
{"event":"resume","epoch":3,"step":42}
{"event":"checkpoint_write","seq":8,"epoch":3,"step":44}
"#;

    /// Order, names and payload of every event kind but `run_summary`, in one
    /// comparison.
    #[test]
    fn jsonl_logger_emits_events_in_order() {
        let mut logger = JsonlLogger::new(Vec::new());
        drive(&mut logger);
        drive_recovery(&mut logger);
        assert_eq!(logger.events(), 18);
        let out = logger.finish().unwrap();
        assert_eq!(std::str::from_utf8(&out).unwrap(), GOLDEN_LOG);
    }

    /// Asserts no Float anywhere in the tree is non-finite.
    fn assert_all_floats_finite(v: &Value) {
        match v {
            Value::Float(f) => assert!(f.is_finite(), "non-finite float in log: {f}"),
            Value::Array(items) => items.iter().for_each(assert_all_floats_finite),
            Value::Object(fields) => fields.iter().for_each(|(_, v)| assert_all_floats_finite(v)),
            _ => {}
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut logger = JsonlLogger::new(Vec::new());
        logger.on_event(TrainEvent::Step(&step(0, 0, f64::NAN, f64::INFINITY)));
        logger.on_event(TrainEvent::NonFinite("train_loss", "loss went NaN at step 0"));
        let out = logger.finish().unwrap();
        let lines = parse_lines(&out);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].get("loss").unwrap().is_null());
        assert!(lines[0].get("grad_norm").unwrap().is_null());
        lines.iter().for_each(assert_all_floats_finite);
        assert_eq!(lines[1].get("source").and_then(Value::as_str), Some("train_loss"));
    }

    #[test]
    fn summary_builder_aggregates_the_run() {
        let mut b = SummaryBuilder::new();
        drive(&mut b);
        let s = b.finish();
        assert_eq!(s.epochs_run, 2);
        assert_eq!(s.steps, 3);
        assert_eq!(s.loss_curve, vec![0.8, 0.5]);
        assert_eq!(s.grad_norm_min, 1.0);
        assert_eq!(s.grad_norm_max, 4.0);
        assert!((s.grad_norm_mean - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.grad_norm_last, 1.0);
        assert_eq!(s.best_epoch, 1);
        assert!((s.best_valid_f1 - 0.6).abs() < 1e-12);
        assert_eq!(s.checkpoint_saves, 2);
        assert_eq!(s.non_finite_events, 0);
        assert!(s.train_secs > 0.0);
        assert!(s.eval_secs > 0.0);
        assert!((0.0..=1.0).contains(&s.pool_hit_rate));
    }

    #[test]
    fn recovery_events_log_and_aggregate() {
        // (Their log lines are the tail of `GOLDEN_LOG`.)
        let mut builder = SummaryBuilder::new();
        drive_recovery(&mut builder);
        builder.on_event(TrainEvent::CheckpointWrite(9, 3, 46));
        let s = builder.finish();
        assert_eq!(s.non_finite_events, 1);
        assert_eq!(s.resumes, 1);
        assert_eq!(s.checkpoint_writes, 2);
        assert_eq!(s.corrupt_skipped, 1);
    }

    #[test]
    fn old_summaries_without_recovery_counters_still_parse() {
        // Pre-durability run logs lack the three recovery counters; the
        // serde defaults keep them readable.
        let mut b = SummaryBuilder::new();
        drive(&mut b);
        let v = match b.finish().to_value() {
            Value::Object(fields) => Value::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| {
                        k != "resumes" && k != "checkpoint_writes" && k != "corrupt_skipped"
                    })
                    .collect(),
            ),
            other => panic!("summary serialized to a non-object: {other:?}"),
        };
        let back = RunSummary::from_value(&v).unwrap();
        assert_eq!(back.resumes, 0);
        assert_eq!(back.checkpoint_writes, 0);
        assert_eq!(back.corrupt_skipped, 0);
        assert_eq!(back.steps, 3);
    }

    #[test]
    fn summary_of_empty_run_is_all_zero() {
        let s = SummaryBuilder::new().finish();
        assert_eq!(s.steps, 0);
        assert_eq!(s.grad_norm_min, 0.0);
        assert_eq!(s.grad_norm_mean, 0.0);
        assert_eq!(s.best_valid_f1, 0.0);
        assert!(s.loss_curve.is_empty());
    }

    #[test]
    fn summary_counts_pool_traffic_as_a_delta() {
        // Warm the pool, then measure only what happens after the baseline.
        pool::put(vec![0.0; 16]);
        let b = SummaryBuilder::new();
        pool::put(pool::take(16)); // guaranteed hit after the baseline
        let s = b.finish();
        assert!(s.pool_hits >= 1, "expected at least one hit, got {}", s.pool_hits);
    }

    #[test]
    fn trace_session_writes_summary_line_to_disk() {
        let dir = std::env::temp_dir().join(format!("emba-trace-test-{}", std::process::id()));
        let mut session = TraceSession::create(&dir, "unit").unwrap();
        let path = session.path().to_path_buf();
        drive(&mut session);
        let summary = session.finish().unwrap();
        assert_eq!(summary.steps, 3);
        let text = fs::read_to_string(&path).unwrap();
        let lines = parse_lines(text.as_bytes());
        assert_eq!(event_names(&lines).first().map(String::as_str), Some("run_start"));
        assert_eq!(event_names(&lines).last().map(String::as_str), Some("run_summary"));
        let last = lines.last().unwrap();
        assert_eq!(last.get("steps").and_then(Value::as_u64), Some(3));
        lines.iter().for_each(assert_all_floats_finite);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn null_observer_accepts_everything() {
        drive(&mut NullObserver);
    }

    /// A sink that counts flushes, for asserting the logger's durability
    /// behavior without inspecting `BufWriter` internals.
    struct FlushCounter {
        lines: Vec<u8>,
        flushes: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl Write for FlushCounter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.lines.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.flushes.set(self.flushes.get() + 1);
            Ok(())
        }
    }

    #[test]
    fn logger_flushes_after_the_summary_line_and_on_drop() {
        let flushes = std::rc::Rc::new(std::cell::Cell::new(0usize));
        let sink = FlushCounter { lines: Vec::new(), flushes: flushes.clone() };
        let mut logger = JsonlLogger::new(sink);
        logger.on_event(TrainEvent::Step(&step(0, 0, 0.5, 1.0)));
        assert_eq!(flushes.get(), 0, "ordinary events must not force a flush");
        logger.on_event(TrainEvent::RunEnd(&SummaryBuilder::new().finish()));
        assert_eq!(flushes.get(), 1, "the summary line must be flushed immediately");
        drop(logger);
        assert_eq!(flushes.get(), 2, "dropping an unfinished logger must flush");
    }

    #[test]
    fn recorded_profile_lands_in_the_summary_in_sorted_order() {
        use emba_tensor::prof::{OpStat, PhaseStat, ProfReport};
        let report = ProfReport {
            ops: vec![
                OpStat {
                    path: "train/forward".into(),
                    op: "matmul",
                    backward: false,
                    calls: 2,
                    self_ns: 100,
                    bytes: 64,
                    flops: 400,
                },
                OpStat {
                    path: "train/backward".into(),
                    op: "matmul",
                    backward: true,
                    calls: 2,
                    self_ns: 300,
                    bytes: 128,
                    flops: 800,
                },
            ],
            phases: vec![
                PhaseStat { path: "train".into(), calls: 1, total_ns: 900 },
                PhaseStat { path: "train/backward".into(), calls: 1, total_ns: 350 },
                PhaseStat { path: "train/forward".into(), calls: 1, total_ns: 150 },
            ],
            spans: Vec::new(),
            dropped_spans: 0,
        };
        let mut b = SummaryBuilder::new();
        drive(&mut b);
        b.record_profile(&report);
        let s = b.finish();
        assert_eq!(s.profile_ops.len(), 2);
        assert!(s.profile_ops[0].backward, "backward matmul has more self time");
        let paths: Vec<&str> = s.phase_timers.iter().map(|p| p.path.as_str()).collect();
        assert_eq!(paths, ["train", "train/backward", "train/forward"]);

        // The enriched summary must survive a JSON round trip, and an old
        // summary without the profile fields must still parse (defaults).
        let v = s.to_value();
        let back = RunSummary::from_value(&v).unwrap();
        assert_eq!(back.profile_ops.len(), 2);
        assert_eq!(back.phase_timers.len(), 3);
        let stripped = match v {
            Value::Object(fields) => Value::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "profile_ops" && k != "phase_timers")
                    .collect(),
            ),
            other => panic!("summary serialized to a non-object: {other:?}"),
        };
        let old = RunSummary::from_value(&stripped).unwrap();
        assert!(old.profile_ops.is_empty() && old.phase_timers.is_empty());
    }

    #[test]
    fn catalog_section_round_trips_and_old_summaries_still_parse() {
        let mut b = SummaryBuilder::new();
        drive(&mut b);
        b.record_catalog(CatalogSummary {
            records: 1000,
            candidate_pairs: 5400,
            scored_pairs: 5400,
            matches: 1200,
            encodes: 1000,
            cache_hits: 9800,
            cache_misses: 1000,
            cache_hit_rate: 9800.0 / 10800.0,
            encodes_per_pair: 1000.0 / 5400.0,
            blocking_recall: 0.98,
            blocking_secs: 0.2,
            encode_secs: 3.5,
            score_secs: 1.1,
            total_secs: 5.0,
            pairs_per_sec: 1080.0,
        });
        let s = b.finish();
        let cat = s.catalog.as_ref().expect("catalog section recorded");
        assert_eq!(cat.scored_pairs, 5400);

        let v = s.to_value();
        let back = RunSummary::from_value(&v).unwrap();
        let cat = back.catalog.expect("catalog section survives a round trip");
        assert_eq!(cat.encodes, 1000);
        assert!((cat.cache_hit_rate - 9800.0 / 10800.0).abs() < 1e-12);

        // A summary written before the catalog field existed still parses.
        let stripped = match v {
            Value::Object(fields) => Value::Object(
                fields.into_iter().filter(|(k, _)| k != "catalog").collect(),
            ),
            other => panic!("summary serialized to a non-object: {other:?}"),
        };
        let old = RunSummary::from_value(&stripped).unwrap();
        assert!(old.catalog.is_none());
    }

    #[test]
    fn serve_section_round_trips_and_old_summaries_still_parse() {
        let mut b = SummaryBuilder::new();
        drive(&mut b);
        let mut batch = metrics::Histogram::log_spaced(1.0, 2.0, 12);
        batch.record(8.0);
        batch.record(32.0);
        let mut lat = metrics::Histogram::latency_ns();
        lat.record(50_000.0);
        lat.record(2_000_000.0);
        b.record_serve(ServeSummary {
            enqueued: 400,
            scored: 385,
            expired: 10,
            rejected: 7,
            shed: 3,
            failed: 5,
            restarts: 1,
            degraded: false,
            degraded_entries: 1,
            quarantined: 2,
            postmortems: 1,
            trace_events: 1500,
            trace_dropped: 476,
            flushes: 25,
            encodes: 120,
            peak_queue_depth: 48,
            cache_hits: 680,
            cache_misses: 120,
            cache_hit_rate: 680.0 / 800.0,
            batch_size: batch.summary("serve.batch_size"),
            request_latency: lat.summary("serve.request_ns"),
            backend: "int8-avx2".to_string(),
        });
        let s = b.finish();
        let serve = s.serve.as_ref().expect("serve section recorded");
        // Every accepted request is answered exactly once; shed-at-admission
        // responses never enter `enqueued`.
        assert_eq!(serve.scored + serve.expired + serve.failed, serve.enqueued);

        let v = s.to_value();
        let back = RunSummary::from_value(&v).unwrap();
        let serve = back.serve.expect("serve section survives a round trip");
        assert_eq!(serve.flushes, 25);
        assert_eq!(serve.rejected, 7);
        assert_eq!(serve.shed, 3);
        assert_eq!(serve.failed, 5);
        assert_eq!(serve.restarts, 1);
        assert!(!serve.degraded);
        assert_eq!(serve.degraded_entries, 1);
        assert_eq!(serve.quarantined, 2);
        assert_eq!(serve.postmortems, 1);
        assert_eq!(serve.trace_events, 1500);
        assert_eq!(serve.trace_dropped, 476);
        assert_eq!(serve.backend, "int8-avx2");
        assert_eq!(serve.batch_size.count, 2);
        assert!(serve.request_latency.p50 <= serve.request_latency.p99);

        // A summary written before the serve field existed still parses.
        let stripped = match v {
            Value::Object(fields) => Value::Object(
                fields.into_iter().filter(|(k, _)| k != "serve").collect(),
            ),
            other => panic!("summary serialized to a non-object: {other:?}"),
        };
        let old = RunSummary::from_value(&stripped).unwrap();
        assert!(old.serve.is_none());

        // A PR-7 serve section (no fault-tolerance fields) still parses,
        // with the new counters defaulting to zero.
        let pr7 = match s.to_value() {
            Value::Object(fields) => Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| {
                        if k != "serve" {
                            return (k, v);
                        }
                        let Value::Object(sf) = v else {
                            panic!("serve section serialized to a non-object")
                        };
                        let kept = sf
                            .into_iter()
                            .filter(|(sk, _)| {
                                !matches!(
                                    sk.as_str(),
                                    "rejected"
                                        | "shed"
                                        | "failed"
                                        | "restarts"
                                        | "degraded"
                                        | "degraded_entries"
                                        | "quarantined"
                                        | "postmortems"
                                        | "trace_events"
                                        | "trace_dropped"
                                )
                            })
                            .collect();
                        (k, Value::Object(kept))
                    })
                    .collect(),
            ),
            other => panic!("summary serialized to a non-object: {other:?}"),
        };
        let old = RunSummary::from_value(&pr7).unwrap();
        let serve = old.serve.expect("pr7-shaped serve section parses");
        assert_eq!(serve.rejected, 0);
        assert_eq!(serve.failed, 0);
        assert!(!serve.degraded);
        assert_eq!(serve.degraded_entries, 0);
        assert_eq!(serve.quarantined, 0);
        assert_eq!(serve.postmortems, 0);
        assert_eq!(serve.trace_events, 0);
        assert_eq!(serve.trace_dropped, 0);
    }
}
