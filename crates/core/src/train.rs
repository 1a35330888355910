//! Training: one [`Trainer`] and one loop under the paper's joint
//! fine-tune (Algorithm 1), its crash-safe variant and MLM pre-training,
//! plus evaluation and throughput measurement.
//!
//! Every run follows the paper's protocol: Adam, a linearly decaying
//! learning rate with one epoch of warmup, gradient-norm clipping, and —
//! where there is a validation split — early stopping when validation F1
//! has not improved for `patience` epochs.

use std::time::Instant;

use emba_nn::mlm::{MlmConfig, MlmModel};
use emba_nn::{Adam, BertEncoder, LinearSchedule, Module};
use emba_tensor::{guard, pool, prof, Graph, Var};
use emba_trace::{
    metrics, EvalRecord, NullObserver, RunMeta, StepRecord, TrainEvent, TrainObserver,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::batching::plan_sub_batches;
use crate::error::CoreError;
use crate::metrics::{id_metrics, match_metrics, IdMetrics, MatchMetrics};
use crate::models::Matcher;
use crate::pipeline::EncodedExample;
use crate::resume::{load_resume_state, DurabilityConfig, TrainState};
use crate::store::CheckpointStore;

/// Trainer settings.
///
/// `PartialEq` exists so a resumed run can verify that the on-disk
/// [`crate::TrainState`] was produced by the same configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Maximum epochs (the paper trains 50 with early stopping).
    pub epochs: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Gradient-accumulation window (the paper's batch size 32).
    pub batch_size: usize,
    /// Warmup epochs (the paper uses 1).
    pub warmup_epochs: usize,
    /// Early-stopping patience in epochs (the paper uses 10).
    pub patience: usize,
    /// Global gradient-norm clip.
    pub clip_norm: f32,
    /// RNG seed for shuffling and dropout.
    pub seed: u64,
    /// Enables the debug non-finite guard ([`emba_tensor::guard`]) for the
    /// run: every op output on the tape is scanned for NaN/Inf and offenders
    /// are reported through the observer with their op name. Adds a full
    /// pass over every activation, so it defaults to off.
    #[serde(default)]
    pub nan_guard: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            lr: 5e-4,
            batch_size: 8,
            warmup_epochs: 1,
            patience: 4,
            clip_norm: 1.0,
            seed: 0,
            nan_guard: false,
        }
    }
}

impl TrainConfig {
    /// The paper's full protocol (50 epochs, patience 10, batch 32). Far too
    /// slow for a single CPU core at every table cell; used by `--full`
    /// reproduction runs.
    pub fn paper() -> Self {
        Self {
            epochs: 50,
            lr: 3e-5,
            batch_size: 32,
            warmup_epochs: 1,
            patience: 10,
            clip_norm: 1.0,
            seed: 0,
            nan_guard: false,
        }
    }
}

/// What [`EarlyStopper::observe`] concluded about one validation score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopVerdict {
    /// New best — capture the model state.
    Improved,
    /// Worse than the best, but patience remains.
    NoImprovement,
    /// Patience exhausted — stop training.
    Halt,
    /// The score is NaN/Inf — stop training and keep the best finite state.
    NonFinite,
}

/// Patience-based early stopping on validation F1.
///
/// Split out of the training loop so the NaN handling is independently
/// testable: a NaN score compares false against any best (`NaN > x` is
/// always false), which in the pre-fix loop counted as "no improvement"
/// and silently burned patience while the model diverged. The stopper
/// instead classifies non-finite scores explicitly.
///
/// Serializable as it stands, so a [`TrainState`] snapshot carries it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EarlyStopper {
    patience: usize,
    stale: usize,
    /// `None` before any finite score (JSON cannot carry a `-inf` sentinel).
    best_f1: Option<f64>,
    best_epoch: usize,
}

impl EarlyStopper {
    /// A stopper that halts after `patience` epochs without improvement.
    pub fn new(patience: usize) -> Self {
        Self { patience, ..Self::default() }
    }

    /// Classifies the validation score of `epoch`.
    pub fn observe(&mut self, epoch: usize, f1: f64) -> StopVerdict {
        if !f1.is_finite() {
            return StopVerdict::NonFinite;
        }
        if self.best_f1.is_none_or(|best| f1 > best) {
            self.best_f1 = Some(f1);
            self.best_epoch = epoch;
            self.stale = 0;
            StopVerdict::Improved
        } else {
            self.stale += 1;
            if self.stale >= self.patience {
                StopVerdict::Halt
            } else {
                StopVerdict::NoImprovement
            }
        }
    }

    /// Best finite F1 seen, or `-inf` if none yet.
    pub fn best_f1(&self) -> f64 {
        self.best_f1.unwrap_or(f64::NEG_INFINITY)
    }

    /// Epoch of the best finite F1.
    pub fn best_epoch(&self) -> usize {
        self.best_epoch
    }
}

/// Metrics of one evaluation pass.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EvalResult {
    /// Binary EM metrics.
    pub matching: MatchMetrics,
    /// Entity-ID metrics (multi-task models only).
    pub ids: Option<IdMetrics>,
}

/// Outcome of one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Best validation F1 seen.
    pub valid_f1: f64,
    /// Epoch (0-based) of the best validation F1.
    pub best_epoch: usize,
    /// Epochs actually run (≤ configured, early stopping).
    pub epochs_run: usize,
    /// Test metrics at the best-validation checkpoint.
    pub test: EvalResult,
    /// Training throughput, pairs per second (Table 7, training column).
    pub train_pairs_per_sec: f64,
    /// Inference throughput over the test split (Table 7, inference column).
    pub infer_pairs_per_sec: f64,
    /// Final mean training loss.
    pub final_train_loss: f64,
}

/// Examples per joint inference launch ([`Matcher::infer_batch`]), in
/// [`evaluate`] and [`crate::TrainedMatcher::predict_batch`]. A chunk runs
/// whole: its mixed lengths cost no bits, and bucketing them by length would
/// only split it into more launches.
pub(crate) const EVAL_BATCH: usize = 16;

/// Evaluates a model over a split.
///
/// `_rng` is unused (evaluation draws no randomness); the frozen
/// `benchmark/` calls this signature.
pub fn evaluate(model: &dyn Matcher, examples: &[EncodedExample], _rng: &mut StdRng) -> EvalResult {
    evaluate_observed(model, examples, 0, "eval", &mut NullObserver)
}

/// [`evaluate`] that also times the pass and reports it through `observer`
/// as an [`EvalRecord`] tagged with `epoch` and `split`.
pub fn evaluate_observed(
    model: &dyn Matcher,
    examples: &[EncodedExample],
    epoch: usize,
    split: &str,
    observer: &mut dyn TrainObserver,
) -> EvalResult {
    assert!(!examples.is_empty(), "cannot evaluate an empty split");
    let _eval_scope = prof::scope("eval");
    let start = Instant::now();
    let mut preds = vec![false; examples.len()];
    let gold: Vec<bool> = examples.iter().map(|ex| ex.is_match).collect();
    let mut id_preds: Vec<Option<(usize, usize)>> = vec![None; examples.len()];
    // Evaluation draws no RNG (dropout is skipped outside training), so
    // batching consecutive examples changes nothing but throughput.
    for (chunk_i, chunk) in examples.chunks(EVAL_BATCH).enumerate() {
        let base = chunk_i * EVAL_BATCH;
        let _example_scope = prof::scope("example");
        let chunk_start = Instant::now();
        let exs: Vec<&EncodedExample> = chunk.iter().collect();
        let out = {
            let _fwd_scope = prof::scope("forward");
            model.infer_batch(&exs)
        };
        for (k, &p) in out.match_probs.iter().enumerate() {
            preds[base + k] = p >= 0.5;
            if let (Some(p1), Some(p2)) = (&out.id1_preds, &out.id2_preds) {
                id_preds[base + k] = Some((p1[k], p2[k]));
            }
        }
        let per_example_ns = chunk_start.elapsed().as_nanos() as u64 / chunk.len() as u64;
        for _ in 0..chunk.len() {
            metrics::observe_ns("eval.example_ns", per_example_ns);
        }
    }
    let mut id1_pred = Vec::new();
    let mut id2_pred = Vec::new();
    let mut id1_gold = Vec::new();
    let mut id2_gold = Vec::new();
    for (ex, ids) in examples.iter().zip(&id_preds) {
        if let Some((p1, p2)) = ids {
            id1_pred.push(*p1);
            id2_pred.push(*p2);
            id1_gold.push(ex.left_class);
            id2_gold.push(ex.right_class);
        }
    }
    metrics::counter_add("eval.examples", examples.len() as u64);
    let pool_stats = pool::stats();
    let lookups = pool_stats.hits + pool_stats.misses;
    if lookups > 0 {
        metrics::gauge_set("pool.hit_rate", pool_stats.hits as f64 / lookups as f64);
    }
    let ids = if id1_pred.is_empty() {
        None
    } else {
        Some(id_metrics(&id1_pred, &id1_gold, &id2_pred, &id2_gold))
    };
    let result = EvalResult {
        matching: match_metrics(&preds, &gold),
        ids,
    };
    observer.on_event(TrainEvent::Eval(&EvalRecord {
        epoch,
        split: split.to_string(),
        precision: result.matching.precision,
        recall: result.matching.recall,
        f1: result.matching.f1,
        accuracy: result.matching.accuracy,
        wall_secs: start.elapsed().as_secs_f64(),
    }));
    result
}

/// Drains the non-finite guard's buffered reports into the observer, in a
/// run that turned the guard on.
fn drain_guard(cfg: &TrainConfig, observer: &mut dyn TrainObserver) {
    if !cfg.nan_guard {
        return;
    }
    for r in guard::take_reports() {
        observer.on_event(TrainEvent::NonFinite(
            &format!("op:{}", r.op),
            &format!("non-finite [{}, {}] output from `{}`", r.rows, r.cols, r.op),
        ));
    }
}

/// Turns the thread-local non-finite guard on for a run with
/// `cfg.nan_guard` and puts the previous setting back when dropped — on
/// every exit, including the `?` returns of a failed durable run.
struct NanGuard(Option<bool>);

impl NanGuard {
    fn install(cfg: &TrainConfig) -> Self {
        Self(cfg.nan_guard.then(|| guard::enable(true)))
    }
}

impl Drop for NanGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.0 {
            guard::enable(prev);
        }
    }
}

/// [`Trainer::fit`] with no checkpoint store, reporting through `observer`.
pub fn train_matcher_observed(
    model: &mut dyn Matcher,
    train: &[EncodedExample],
    valid: &[EncodedExample],
    test: &[EncodedExample],
    cfg: &TrainConfig,
    observer: &mut dyn TrainObserver,
) -> TrainReport {
    // Without a checkpoint store the loop performs no fallible I/O.
    Trainer::new(observer)
        .fit(model, train, valid, test, cfg)
        .unwrap_or_else(|e| unreachable!("non-durable training cannot fail: {e}"))
}

/// What the training loop optimises: the paper's joint fine-tune
/// ([`FineTune`]) or MLM pre-training ([`MaskedLm`]).
trait Objective {
    /// Run name reported in [`RunMeta`].
    fn name(&self) -> String;
    /// The parameters being optimised.
    fn module(&mut self) -> &mut dyn Module;
    /// Token length of every training item; its length is the epoch size.
    fn lens(&self) -> Vec<usize>;
    /// One packed forward pass over `items`: the **summed** loss on the tape
    /// and each item's loss value.
    fn forward(&self, g: &Graph, items: &[usize], rng: &mut StdRng) -> (Var, Vec<f32>);
    /// Size of the validation split; `0` means there is none.
    fn valid_examples(&self) -> usize {
        0
    }
    /// Scores the validation split after `epoch`, if there is one.
    fn validate(&self, _epoch: usize, _observer: &mut dyn TrainObserver) -> Option<f64> {
        None
    }
}

/// Algorithm 1: the dual-objective fine-tune of a [`Matcher`].
struct FineTune<'a> {
    model: &'a mut dyn Matcher,
    train: &'a [EncodedExample],
    valid: &'a [EncodedExample],
}

impl Objective for FineTune<'_> {
    fn name(&self) -> String {
        self.model.name().to_string()
    }
    fn module(&mut self) -> &mut dyn Module {
        self.model
    }
    fn lens(&self) -> Vec<usize> {
        self.train.iter().map(|ex| ex.pair.ids.len()).collect()
    }
    fn forward(&self, g: &Graph, items: &[usize], rng: &mut StdRng) -> (Var, Vec<f32>) {
        let exs: Vec<&EncodedExample> = items.iter().map(|&i| &self.train[i]).collect();
        let out = self.model.forward_batch(g, &exs, true, rng);
        (out.loss, out.example_losses)
    }
    fn valid_examples(&self) -> usize {
        self.valid.len()
    }
    fn validate(&self, epoch: usize, observer: &mut dyn TrainObserver) -> Option<f64> {
        Some(evaluate_observed(&*self.model, self.valid, epoch, "valid", observer).matching.f1)
    }
}

/// Masked-language-model pre-training of a BERT encoder and its
/// prediction head, masks redrawn every pass.
struct MaskedLm<'a> {
    model: MlmModel<'a>,
    corpus: Vec<&'a [usize]>,
    cfg: &'a MlmConfig,
}

impl Objective for MaskedLm<'_> {
    fn name(&self) -> String {
        let c = self.model.encoder.config();
        format!("mlm:{}Lx{}d", c.layers, c.hidden)
    }
    fn module(&mut self) -> &mut dyn Module {
        &mut self.model
    }
    fn lens(&self) -> Vec<usize> {
        self.corpus.iter().map(|seq| seq.len()).collect()
    }
    fn forward(&self, g: &Graph, items: &[usize], rng: &mut StdRng) -> (Var, Vec<f32>) {
        let seqs: Vec<&[usize]> = items.iter().map(|&i| self.corpus[i]).collect();
        self.model.forward_batch(g, &seqs, self.cfg, rng)
    }
}

/// The loop's live state: a [`TrainState`] whose counters and stopper the
/// loop advances in place, plus the working forms of the fields
/// [`Progress::snapshot`] serializes into it.
struct Progress {
    st: TrainState,
    rng: StdRng,
    adam: Adam,
    /// Wall time of this process's share of the loop (never snapshotted).
    train_secs: f64,
}

impl Progress {
    fn fresh(obj: &mut dyn Objective, cfg: &TrainConfig, items: usize) -> Self {
        let st = TrainState {
            cfg: cfg.clone(),
            train_examples: items,
            valid_examples: obj.valid_examples(),
            best_params: obj.module().state(),
            stopper: EarlyStopper::new(cfg.patience),
            order: (0..items).collect(),
            ..TrainState::default()
        };
        Self { st, rng: StdRng::seed_from_u64(cfg.seed), adam: Adam::new(), train_secs: 0.0 }
    }

    /// Loads a validated snapshot into `obj`'s module and the loop state.
    /// Mid-epoch (`cursor > 0`) the interrupted epoch's order is replayed
    /// from the cursor; at an epoch boundary the restored permutation is the
    /// reshuffle *input* — Fisher-Yates permutes in place, so each epoch's
    /// order depends on the last.
    fn restore(st: TrainState, obj: &mut dyn Objective) -> Result<Self, CoreError> {
        let words: [u64; 4] = st.rng.as_slice().try_into().expect("load_resume_state checked it");
        obj.module().load_state(&st.params);
        let mut adam = Adam::new();
        adam.load_state(obj.module(), &st.optim)
            .map_err(|e| CoreError::Incompatible(e.to_string()))?;
        Ok(Self { st, rng: StdRng::from_state(words), adam, train_secs: 0.0 })
    }

    /// Brings the serialized fields up to date and returns the snapshot.
    /// Only called at optimizer-step boundaries: gradients are zero, no
    /// window in flight.
    fn snapshot(&mut self, obj: &mut dyn Objective) -> &TrainState {
        self.st.params = obj.module().state();
        self.st.optim = self.adam.state(obj.module());
        self.st.rng = self.rng.state().to_vec();
        &self.st
    }
}

/// The one way into training: where a run reports (`observer`) and,
/// optionally, where it persists and resumes (`store` + `opts`).
///
/// Determinism contract: given the same `cfg` and data, resuming from any
/// snapshot a run wrote reproduces the uninterrupted run's per-step losses
/// and final metrics *bit-exactly*; only wall-clock-derived fields
/// (throughput, `wall_ms`) differ across a crash/resume.
///
/// Corrupt snapshots are skipped — reported via
/// [`TrainObserver::on_corrupt_skipped`] — in favour of the next-newest; with
/// none left the run starts from scratch. A snapshot that parses but belongs
/// to a different run (other config, data or architecture) is an error, not
/// a silent restart: [`CoreError::Incompatible`].
pub struct Trainer<'a> {
    pub(crate) observer: &'a mut dyn TrainObserver,
    durable: Option<(&'a mut CheckpointStore, DurabilityConfig)>,
}

impl<'a> Trainer<'a> {
    /// A trainer that reports through `observer` and writes nothing; its
    /// runs cannot fail.
    pub fn new(observer: &'a mut dyn TrainObserver) -> Self {
        Self { observer, durable: None }
    }

    /// A trainer with no observer and no store.
    pub fn quiet() -> Trainer<'static> {
        // Zero-sized: the box allocates nothing and the leak loses nothing.
        Trainer::new(Box::leak(Box::new(NullObserver)))
    }

    /// A trainer that also snapshots into `store` (every epoch boundary, plus
    /// every `opts.every_steps` optimizer steps) and, with `opts.resume`,
    /// continues from the newest valid snapshot found there.
    pub fn durable(
        observer: &'a mut dyn TrainObserver,
        store: &'a mut CheckpointStore,
        opts: DurabilityConfig,
    ) -> Self {
        Self { observer, durable: Some((store, opts)) }
    }

    /// Trains `model` on `train` (Algorithm 1), early-stops on `valid`,
    /// reports on `test`; the model is left at its best-validation
    /// parameters.
    ///
    /// Two divergence conditions abort the run early, leaving the model at
    /// its best finite state: a non-finite per-example training loss, and a
    /// non-finite validation F1.
    ///
    /// # Panics
    ///
    /// Panics if any split is empty.
    pub fn fit(
        &mut self,
        model: &mut dyn Matcher,
        train: &[EncodedExample],
        valid: &[EncodedExample],
        test: &[EncodedExample],
        cfg: &TrainConfig,
    ) -> Result<TrainReport, CoreError> {
        assert!(
            !train.is_empty() && !valid.is_empty() && !test.is_empty(),
            "all three splits must be non-empty"
        );
        let _guard = NanGuard::install(cfg);
        let p = self.run(&mut FineTune { model: &mut *model, train, valid }, cfg)?;

        let infer_start = Instant::now();
        let test_metrics = evaluate_observed(model, test, p.st.epochs_run, "test", self.observer);
        let infer_secs = infer_start.elapsed().as_secs_f64();
        drain_guard(cfg, self.observer);
        Ok(TrainReport {
            valid_f1: p.st.stopper.best_f1(),
            best_epoch: p.st.stopper.best_epoch(),
            epochs_run: p.st.epochs_run,
            test: test_metrics,
            train_pairs_per_sec: p.st.trained_pairs as f64 / p.train_secs.max(1e-9),
            infer_pairs_per_sec: test.len() as f64 / infer_secs.max(1e-9),
            final_train_loss: p.st.final_train_loss,
        })
    }

    /// Pre-trains `encoder` with MLM over `corpus` (already-tokenized
    /// sequences) under the same loop and schedule as [`Trainer::fit`], with
    /// a fresh [`MlmHead`](emba_nn::mlm::MlmHead) seeded from `cfg.seed`;
    /// returns the last epoch's mean loss. Sequences that are empty, longer
    /// than the encoder's `max_len`, or without a maskable token are skipped.
    pub fn pretrain_mlm(
        &mut self,
        encoder: &mut BertEncoder,
        corpus: &[Vec<usize>],
        mlm: &MlmConfig,
        cfg: &TrainConfig,
    ) -> Result<f64, CoreError> {
        let max_len = encoder.config().max_len;
        let corpus: Vec<&[usize]> = corpus
            .iter()
            .map(Vec::as_slice)
            .filter(|seq| seq.len() <= max_len && seq.iter().any(|&t| t >= mlm.num_reserved))
            .collect();
        assert!(!corpus.is_empty(), "MLM corpus has no maskable sequence");
        let model = MlmModel::new(encoder, &mut StdRng::seed_from_u64(cfg.seed));
        let _guard = NanGuard::install(cfg);
        let _mlm_scope = prof::scope("mlm");
        Ok(self.run(&mut MaskedLm { model, corpus, cfg: mlm }, cfg)?.st.final_train_loss)
    }

    /// The training loop. Each epoch reshuffles the item order and walks it
    /// in optimizer *windows* of `batch_size` items; a window is split into
    /// length-bucketed sub-batches ([`plan_sub_batches`]) that each run as
    /// ONE packed forward/backward, their summed losses accumulating into
    /// the same gradient buffers, so the window-averaged update equals the
    /// per-item one.
    fn run(&mut self, obj: &mut dyn Objective, cfg: &TrainConfig) -> Result<Progress, CoreError> {
        let observer = &mut *self.observer;
        let lens = obj.lens();
        let items = lens.len();
        let valid_examples = obj.valid_examples();
        let steps_per_epoch = items.div_ceil(cfg.batch_size) as u64;
        let schedule = LinearSchedule::new(
            cfg.lr,
            steps_per_epoch * cfg.warmup_epochs as u64,
            steps_per_epoch * cfg.epochs as u64,
        );
        observer.on_event(TrainEvent::RunStart(&RunMeta {
            model: obj.name(),
            train_examples: items,
            valid_examples,
            epochs: cfg.epochs,
            batch_size: cfg.batch_size,
            base_lr: f64::from(cfg.lr),
        }));

        let resumed = match &self.durable {
            Some((store, opts)) if opts.resume => {
                load_resume_state(store, obj.module(), items, valid_examples, cfg, observer)?
            }
            _ => None,
        };
        let mut p = match resumed {
            Some(st) => {
                let p = Progress::restore(st, obj)?;
                observer.on_event(TrainEvent::Resume(p.st.epoch, p.st.step));
                p
            }
            None => Progress::fresh(obj, cfg, items),
        };

        let _train_scope = prof::scope("train");
        let train_start = Instant::now();
        'epochs: while p.st.epoch < cfg.epochs {
            let _epoch_scope = prof::scope("epoch");
            let epoch = p.st.epoch;
            p.st.epochs_run = epoch + 1;
            if p.st.cursor == 0 {
                p.st.epoch_loss = 0.0;
                observer.on_event(TrainEvent::EpochStart(epoch));
                shuffle(&mut p.st.order, &mut p.rng);
            }
            obj.module().zero_grads();
            while p.st.cursor < items {
                let window_end = (p.st.cursor + cfg.batch_size).min(items);
                let window = &p.st.order[p.st.cursor..window_end];
                let window_len = window.len();
                let batch_start = Instant::now();
                let window_lens: Vec<usize> = window.iter().map(|&idx| lens[idx]).collect();
                let mut window_loss = 0.0f64;
                for sub in plan_sub_batches(&window_lens) {
                    let sub_items: Vec<usize> = sub.iter().map(|&j| window[j]).collect();
                    let example_scope = prof::scope("example");
                    let g = Graph::new();
                    let (loss, item_losses) = {
                        let _fwd_scope = prof::scope("forward");
                        obj.forward(&g, &sub_items, &mut p.rng)
                    };
                    {
                        let bwd_scope = prof::scope("backward");
                        let grads = g.backward(loss);
                        // Close at the end of the tape sweep: accumulation and
                        // recycling record no ops, so leaving them inside would
                        // show up as unattributed backward wall time.
                        drop(bwd_scope);
                        obj.module().accumulate_gradients(&grads);
                        // Return this sub-batch's activations and gradients to
                        // the scratch pool before the next graph is built.
                        grads.recycle();
                        g.recycle();
                    }
                    // Close before the optimizer step below, so `optim` is a
                    // sibling phase of `example` rather than a child.
                    drop(example_scope);
                    drain_guard(cfg, observer);
                    for (&j, &l) in sub.iter().zip(&item_losses) {
                        let loss = f64::from(l);
                        p.st.epoch_loss += loss;
                        window_loss += loss;
                        if !loss.is_finite() {
                            observer.on_event(TrainEvent::NonFinite(
                                "train_loss",
                                &format!(
                                    "loss {loss} at epoch {epoch}, example {}; aborting run",
                                    p.st.cursor + j
                                ),
                            ));
                            break 'epochs;
                        }
                    }
                }
                p.st.trained_pairs += window_len;

                let optim_scope = prof::scope("optim");
                // Average the window's gradients, clip, step and zero them.
                let lr = schedule.lr(p.st.step);
                let grad_norm = p.adam.step_window(obj.module(), lr, 1.0 / window_len as f32, cfg.clip_norm);
                drop(optim_scope);
                observer.on_event(TrainEvent::Step(&StepRecord {
                    epoch,
                    step: p.st.step,
                    loss: window_loss / window_len as f64,
                    grad_norm: f64::from(grad_norm),
                    lr: f64::from(lr),
                    wall_ms: batch_start.elapsed().as_secs_f64() * 1e3,
                    examples: window_len,
                }));
                p.st.step += 1;
                p.st.cursor = window_end;

                // Mid-epoch durability. The epoch's final boundary is covered
                // by the richer epoch-end snapshot below instead.
                if let Some((store, opts)) = &mut self.durable {
                    let every = opts.every_steps;
                    if every > 0 && p.st.step.is_multiple_of(every) && p.st.cursor < items {
                        let seq = store.save(p.snapshot(obj))?;
                        observer.on_event(TrainEvent::CheckpointWrite(seq, epoch, p.st.step));
                    }
                }
            }
            p.st.final_train_loss = p.st.epoch_loss / items as f64;
            observer.on_event(TrainEvent::EpochEnd(epoch, p.st.final_train_loss));

            if let Some(f1) = obj.validate(epoch, observer) {
                drain_guard(cfg, observer);
                match p.st.stopper.observe(epoch, f1) {
                    StopVerdict::Improved => {
                        p.st.best_params = obj.module().state();
                        observer.on_event(TrainEvent::CheckpointSave(epoch, f1));
                    }
                    StopVerdict::NoImprovement => {}
                    StopVerdict::Halt => break,
                    StopVerdict::NonFinite => {
                        observer.on_event(TrainEvent::NonFinite(
                            "valid_f1",
                            &format!("validation F1 {f1} at epoch {epoch}; aborting run"),
                        ));
                        break;
                    }
                }
            }

            // Epoch-end durability: saved after the validation verdict, so a
            // resume re-enters at the top of the next epoch with the stopper,
            // best parameters, and RNG stream exactly as the uninterrupted
            // run would have them. Halted/diverged runs skip this via the
            // breaks above — their outcome is final, not resumable work.
            p.st.epoch += 1;
            p.st.cursor = 0;
            p.st.epoch_loss = 0.0;
            if let Some((store, _)) = &mut self.durable {
                let seq = store.save(p.snapshot(obj))?;
                observer.on_event(TrainEvent::CheckpointWrite(seq, epoch, p.st.step));
            }
        }
        p.train_secs = train_start.elapsed().as_secs_f64();

        if valid_examples > 0 {
            obj.module().load_state(&p.st.best_params);
            observer.on_event(TrainEvent::CheckpointRestore(p.st.stopper.best_epoch()));
        }
        Ok(p)
    }
}

fn shuffle<T, R: Rng + ?Sized>(xs: &mut [T], rng: &mut R) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backbone::Backbone;
    use crate::models::{AuxStrategy, EmStrategy, TransformerMatcher};
    use crate::pipeline::{PipelineConfig, TextPipeline};
    use emba_datagen::{build, Dataset, DatasetId, Scale, WdcCategory, WdcSize};

    fn fitted() -> (Dataset, TextPipeline) {
        let ds = build(
            DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small),
            Scale::TEST,
            7,
        );
        let pipe = TextPipeline::fit(
            &ds,
            PipelineConfig {
                vocab_size: 500,
                max_len: 32,
                ..PipelineConfig::default()
            },
        );
        (ds, pipe)
    }

    /// The fixture of the training and resume tests: encoded splits, vocab
    /// size and class count of a `Scale::TEST` dataset.
    pub(crate) fn setup() -> (
        Vec<EncodedExample>,
        Vec<EncodedExample>,
        Vec<EncodedExample>,
        usize,
        usize,
    ) {
        let (ds, pipe) = fitted();
        (
            pipe.encode_split(&ds.train),
            pipe.encode_split(&ds.valid),
            pipe.encode_split(&ds.test),
            pipe.vocab_size(),
            ds.num_classes,
        )
    }

    pub(crate) fn tiny_model(vocab: usize, classes: usize, seed: u64) -> TransformerMatcher {
        let mut rng = StdRng::seed_from_u64(seed);
        let backbone = Backbone::from_bert_config(emba_nn::BertConfig::tiny(vocab), true, &mut rng);
        TransformerMatcher::new(
            "EMBA-tiny",
            backbone,
            EmStrategy::Aoa,
            AuxStrategy::TokenAttention,
            classes,
            None,
            &mut rng,
        )
    }

    #[test]
    fn training_reduces_the_training_loss() {
        let (train, valid, test, vocab, classes) = setup();
        // Untrained loss over the training set, from an identically seeded
        // twin of the model we are about to train.
        let untrained = tiny_model(vocab, classes, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut initial_loss = 0.0f64;
        for ex in &train {
            let g = Graph::new();
            let out = untrained.forward_batch(&g, &[ex], false, &mut rng);
            initial_loss += f64::from(g.value(out.loss).item());
        }
        initial_loss /= train.len() as f64;

        let mut model = tiny_model(vocab, classes, 0);
        let cfg = TrainConfig {
            epochs: 6,
            lr: 2e-3,
            batch_size: 4,
            patience: 6,
            ..TrainConfig::default()
        };
        let report = train_matcher_observed(&mut model, &train, &valid, &test, &cfg, &mut NullObserver);
        assert!(
            report.final_train_loss < initial_loss * 0.7,
            "training barely reduced the loss: {initial_loss} -> {}",
            report.final_train_loss
        );
        assert!(report.test.matching.f1.is_finite());
        assert!(report.train_pairs_per_sec > 0.0);
        assert!(report.infer_pairs_per_sec > 0.0);
        assert!(report.test.ids.is_some());
    }

    #[test]
    fn early_stopping_halts_before_max_epochs() {
        let (train, valid, test, vocab, classes) = setup();
        let mut model = tiny_model(vocab, classes, 2);
        let cfg = TrainConfig {
            epochs: 40,
            lr: 0.0, // nothing ever improves
            batch_size: 4,
            patience: 2,
            ..TrainConfig::default()
        };
        let report = train_matcher_observed(&mut model, &train, &valid, &test, &cfg, &mut NullObserver);
        assert!(report.epochs_run <= 4, "ran {} epochs", report.epochs_run);
    }

    #[test]
    fn model_is_restored_to_best_checkpoint() {
        let (train, valid, test, vocab, classes) = setup();
        let mut model = tiny_model(vocab, classes, 3);
        let cfg = TrainConfig {
            epochs: 4,
            lr: 2e-3,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let report = train_matcher_observed(&mut model, &train, &valid, &test, &cfg, &mut NullObserver);
        // Re-evaluating the returned model on valid reproduces the reported
        // best F1 (deterministic in eval mode).
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let again = evaluate(&model, &valid, &mut rng);
        assert!((again.matching.f1 - report.valid_f1).abs() < 1e-9);
    }

    #[test]
    fn early_stopper_halts_after_patience_and_tracks_best() {
        let mut s = EarlyStopper::new(2);
        assert_eq!(s.observe(0, 0.4), StopVerdict::Improved);
        assert_eq!(s.observe(1, 0.3), StopVerdict::NoImprovement);
        assert_eq!(s.observe(2, 0.6), StopVerdict::Improved); // resets patience
        assert_eq!(s.observe(3, 0.5), StopVerdict::NoImprovement);
        assert_eq!(s.observe(4, 0.5), StopVerdict::Halt);
        assert_eq!(s.best_epoch(), 2);
        assert!((s.best_f1() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn stopper_state_round_trips_through_json() {
        // Mid-run state, including `stale` progress.
        let mut s = EarlyStopper::new(3);
        s.observe(0, 0.4);
        s.observe(1, 0.2);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, r#"{"patience":3,"stale":1,"best_f1":0.4,"best_epoch":0}"#);
        let mut back: EarlyStopper = serde_json::from_str(&json).unwrap();
        // The twin continues exactly where the original would: one more
        // stale epoch, then halt.
        assert_eq!(back.observe(2, 0.2), StopVerdict::NoImprovement);
        assert_eq!(back.observe(3, 0.2), StopVerdict::Halt);
        assert_eq!(back.best_epoch(), 0);
        assert!((back.best_f1() - 0.4).abs() < 1e-12);

        // The pre-improvement `-inf` sentinel cannot ride through JSON as a
        // float; it is `None` (`null`) there and back.
        let fresh = EarlyStopper::new(2);
        assert_eq!(fresh.best_f1(), f64::NEG_INFINITY);
        let json = serde_json::to_string(&fresh).unwrap();
        assert!(json.contains(r#""best_f1":null"#), "{json}");
        let mut back: EarlyStopper = serde_json::from_str(&json).unwrap();
        assert_eq!(back.observe(0, 0.1), StopVerdict::Improved);
    }

    #[test]
    fn early_stopper_flags_non_finite_scores() {
        // Pre-fix, `NaN > best` evaluated false, so a diverged model's NaN
        // F1 burned patience as ordinary "no improvement" — for patience 10
        // that is ten wasted epochs of NaN training. The stopper must
        // classify it explicitly instead.
        let mut s = EarlyStopper::new(10);
        assert_eq!(s.observe(0, 0.4), StopVerdict::Improved);
        assert_eq!(s.observe(1, f64::NAN), StopVerdict::NonFinite);
        assert_eq!(s.observe(1, f64::INFINITY), StopVerdict::NonFinite);
        // The best finite state is untouched by the NaN observation.
        assert_eq!(s.best_epoch(), 0);
        assert!((s.best_f1() - 0.4).abs() < 1e-12);
    }

    /// Observer that records the event sequence for assertions.
    #[derive(Default)]
    struct Recording {
        events: Vec<String>,
        non_finite_sources: Vec<String>,
        step_losses: Vec<f64>,
        epoch_losses: Vec<f64>,
    }

    impl emba_trace::TrainObserver for Recording {
        fn on_run_start(&mut self, _m: &emba_trace::RunMeta) {
            self.events.push("run_start".into());
        }
        fn on_epoch_start(&mut self, _e: usize) {
            self.events.push("epoch_start".into());
        }
        fn on_step(&mut self, r: &emba_trace::StepRecord) {
            assert!(r.lr.is_finite(), "schedule produced a non-finite lr");
            assert!(r.examples > 0);
            self.events.push("step".into());
            self.step_losses.push(r.loss);
        }
        fn on_epoch_end(&mut self, _e: usize, l: f64) {
            self.events.push("epoch_end".into());
            self.epoch_losses.push(l);
        }
        fn on_eval(&mut self, r: &emba_trace::EvalRecord) {
            self.events.push(format!("eval:{}", r.split));
        }
        fn on_checkpoint_save(&mut self, _e: usize, _f: f64) {
            self.events.push("checkpoint_save".into());
        }
        fn on_checkpoint_restore(&mut self, _e: usize) {
            self.events.push("checkpoint_restore".into());
        }
        fn on_non_finite(&mut self, source: &str, _detail: &str) {
            self.events.push("non_finite".into());
            self.non_finite_sources.push(source.to_string());
        }
    }

    #[test]
    fn observer_sees_an_ordered_event_stream() {
        let (train, valid, test, vocab, classes) = setup();
        let mut model = tiny_model(vocab, classes, 5);
        let cfg = TrainConfig {
            epochs: 2,
            lr: 1e-3,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let mut obs = Recording::default();
        let report = train_matcher_observed(&mut model, &train, &valid, &test, &cfg, &mut obs);
        assert_eq!(obs.events.first().map(String::as_str), Some("run_start"));
        assert_eq!(obs.events.last().map(String::as_str), Some("eval:test"));
        let count = |name: &str| obs.events.iter().filter(|e| *e == name).count();
        assert_eq!(count("epoch_start"), report.epochs_run);
        assert_eq!(count("epoch_end"), report.epochs_run);
        assert_eq!(count("eval:valid"), report.epochs_run);
        assert_eq!(count("checkpoint_restore"), 1);
        assert!(count("checkpoint_save") >= 1, "at least one epoch improves on -inf");
        let steps_per_epoch = train.len().div_ceil(cfg.batch_size);
        assert_eq!(count("step"), steps_per_epoch * report.epochs_run);
        // epoch_end precedes its validation eval; restore precedes the test eval.
        let pos = |name: &str| obs.events.iter().position(|e| e == name).unwrap();
        assert!(pos("epoch_end") < pos("eval:valid"));
        assert!(pos("checkpoint_restore") < obs.events.len() - 1);
        assert!(obs.non_finite_sources.is_empty(), "{:?}", obs.non_finite_sources);
    }

    /// A matcher whose loss is always NaN — a stand-in for a diverged model.
    struct NanMatcher {
        p: emba_nn::Param,
    }

    impl NanMatcher {
        fn new() -> Self {
            Self {
                p: emba_nn::Param::new(emba_tensor::Tensor::row(&[1.0])),
            }
        }
    }

    emba_nn::module_params!(NanMatcher: p);

    impl Matcher for NanMatcher {
        fn forward_batch(
            &self,
            g: &Graph,
            exs: &[&EncodedExample],
            _train: bool,
            _rng: &mut dyn rand::RngCore,
        ) -> crate::models::BatchOutput {
            // One NaN loss per example, summed on the tape.
            let mut loss: Option<Var> = None;
            for _ in exs {
                let ex_loss = g.scale(g.sum_all(self.p.bind(g)), f32::NAN);
                loss = Some(loss.map_or(ex_loss, |acc| g.add(acc, ex_loss)));
            }
            crate::models::BatchOutput {
                loss: loss.expect("non-empty batch"),
                example_losses: vec![f32::NAN; exs.len()],
                inference: crate::models::Inference { match_probs: vec![0.5; exs.len()], ..Default::default() },
            }
        }
        fn name(&self) -> &str {
            "nan-stub"
        }
        fn bert_backbone_mut(&mut self) -> Option<&mut emba_nn::BertEncoder> {
            None
        }
    }

    #[test]
    fn nan_training_loss_aborts_the_run() {
        let (train, valid, test, _vocab, _classes) = setup();
        let mut model = NanMatcher::new();
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let mut obs = Recording::default();
        let report = train_matcher_observed(&mut model, &train, &valid, &test, &cfg, &mut obs);
        // The run aborts inside the first epoch instead of grinding through
        // all ten on NaN gradients.
        assert_eq!(report.epochs_run, 1);
        assert!(
            obs.non_finite_sources.iter().any(|s| s == "train_loss"),
            "expected a train_loss report, got {:?}",
            obs.non_finite_sources
        );
    }

    #[test]
    fn nan_guard_names_the_offending_op() {
        let (train, valid, test, _vocab, _classes) = setup();
        let mut model = NanMatcher::new();
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            nan_guard: true,
            ..TrainConfig::default()
        };
        let mut obs = Recording::default();
        train_matcher_observed(&mut model, &train, &valid, &test, &cfg, &mut obs);
        // The guard attributes the NaN to the tape op that produced it.
        assert!(
            obs.non_finite_sources.iter().any(|s| s == "op:scale"),
            "expected an op:scale report, got {:?}",
            obs.non_finite_sources
        );
    }

    /// Every per-step loss and the test F1 of a 2-epoch fine-tune, captured
    /// at the commit before the loop moved under [`Trainer`]: the refactor
    /// (and any later one) must leave the fine-tune path bit-identical.
    #[test]
    fn fine_tune_bits_are_pinned() {
        let (train, valid, test, vocab, classes) = setup();
        let mut model = tiny_model(vocab, classes, 5);
        let cfg = TrainConfig {
            epochs: 2,
            lr: 1e-3,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let mut obs = Recording::default();
        let report = train_matcher_observed(&mut model, &train, &valid, &test, &cfg, &mut obs);
        let bits: Vec<u64> = obs.step_losses.iter().map(|l| l.to_bits()).collect();
        let pinned = [
            0x401de0ef98000000u64,
            0x4020a30de0000000,
            0x402026687c000000,
            0x401d581618000000,
            0x401deb0338000000,
            0x401b1418d8000000,
        ];
        assert_eq!(bits, pinned, "step losses {:?}", obs.step_losses);
        assert_eq!(report.test.matching.f1.to_bits(), 0x3fdc71c71c71c71c);
        assert_eq!(report.final_train_loss.to_bits(), 0x401cc7bb62aaaaab);
    }

    #[test]
    fn mlm_takes_one_adam_step_per_window_and_its_loss_falls() {
        let (ds, pipe) = fitted();
        let corpus = pipe.mlm_corpus(&ds);
        let mut rng = StdRng::seed_from_u64(0);
        let mut encoder = BertEncoder::new(emba_nn::BertConfig::tiny(pipe.vocab_size()), &mut rng);
        let cfg = TrainConfig {
            epochs: 4,
            lr: 2e-3,
            ..TrainConfig::default()
        };
        let mlm = MlmConfig {
            mask_prob: 0.2,
            mask_token: emba_tokenizer::special::MASK,
            num_reserved: emba_tokenizer::special::NUM_RESERVED,
        };
        let mut obs = Recording::default();
        let mut objective = MaskedLm {
            model: MlmModel::new(&mut encoder, &mut rng),
            corpus: corpus.iter().map(Vec::as_slice).collect(),
            cfg: &mlm,
        };
        let p = Trainer::new(&mut obs).run(&mut objective, &cfg).unwrap();
        // The pre-`Trainer` loop stepped one `Adam` twice per sequence
        // (encoder, then head), doubling its bias-correction counter.
        let windows = corpus.len().div_ceil(cfg.batch_size) * cfg.epochs;
        assert_eq!(p.adam.steps(), windows as u64);
        assert_eq!(obs.step_losses.len(), windows);
        assert_eq!(obs.events[0], "run_start");
        assert!(!obs.events.iter().any(|e| e.starts_with("eval") || e.starts_with("checkpoint")));
        let curve = &obs.epoch_losses;
        assert_eq!(curve.len(), cfg.epochs);
        assert!(curve.windows(2).all(|w| w[1] <= w[0]), "MLM loss rose: {curve:?}");
    }

    #[test]
    fn pretraining_reduces_loss_on_a_patterned_corpus() {
        // A corpus with strong bigram structure: token 2k is always followed
        // by 2k+1. MLM should learn this quickly even at tiny scale.
        let mut rng = StdRng::seed_from_u64(3);
        let mut corpus = Vec::new();
        for _ in 0..60 {
            let mut seq = vec![2usize]; // [CLS]-like
            for _ in 0..6 {
                let k = rng.gen_range(2..10) * 2;
                seq.push(k);
                seq.push(k + 1);
            }
            corpus.push(seq);
        }
        let mut enc = BertEncoder::new(emba_nn::BertConfig::tiny(24), &mut rng);
        let mlm = MlmConfig {
            mask_prob: 0.2,
            mask_token: 1,
            num_reserved: 4,
        };
        let cfg = TrainConfig {
            epochs: 6,
            lr: 2e-3,
            batch_size: 1,
            seed: 3,
            ..TrainConfig::default()
        };
        let mut obs = Recording::default();
        let last = Trainer::new(&mut obs).pretrain_mlm(&mut enc, &corpus, &mlm, &cfg).unwrap();
        let losses = &obs.epoch_losses;
        assert_eq!(losses.len(), 6);
        assert_eq!(last, losses[5]);
        assert!(losses[5] < losses[0] * 0.8, "loss did not fall: {losses:?}");
    }
}
