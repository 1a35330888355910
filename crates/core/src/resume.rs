//! Crash-safe training: the serializable [`TrainState`] a durable
//! [`crate::Trainer`] checkpoints through a [`CheckpointStore`], and the
//! checks a snapshot must pass before a run resumes from it.
//!
//! The invariant, enforced by the fault-injection tests below: a run killed
//! at any point and resumed from disk produces per-step losses and final
//! test metrics *bit-identical* to the same-seed uninterrupted run. See DESIGN.md §6d for the format.

use emba_nn::{AdamState, Module};
use emba_tensor::Tensor;
use emba_trace::{TrainEvent, TrainObserver};
use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::store::CheckpointStore;
use crate::train::{EarlyStopper, TrainConfig};

/// Complete, serializable snapshot of a training run in flight.
///
/// Everything with a numeric effect on the remainder of the run is here;
/// wall-clock timing is deliberately absent (throughput is allowed to
/// differ across a crash). Snapshots are taken only at optimizer-step
/// boundaries, so there is never a half-accumulated batch to represent.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainState {
    /// The configuration that produced this state. A resume under a
    /// different configuration is rejected as incompatible.
    pub cfg: TrainConfig,
    /// Training-split size, as a cheap dataset fingerprint.
    pub train_examples: usize,
    /// Validation-split size, same purpose.
    pub valid_examples: usize,
    /// Current model parameters, in module visit order.
    pub params: Vec<Tensor>,
    /// Best-validation parameters captured so far, same order.
    pub best_params: Vec<Tensor>,
    /// Adam step count and first/second moments, in visit order.
    pub optim: AdamState,
    /// The xoshiro256++ RNG state (4 words) driving shuffles and dropout.
    pub rng: Vec<u64>,
    /// Early-stopping progress.
    pub stopper: EarlyStopper,
    /// Epoch to (re-)enter.
    pub epoch: usize,
    /// Position within `order` to continue from; `0` means the epoch has
    /// not started (fresh shuffle on entry).
    pub cursor: usize,
    /// The current example permutation. With `cursor > 0` it is replayed
    /// from `cursor`; with `cursor == 0` it seeds the next reshuffle (the
    /// in-place Fisher-Yates makes each epoch's order a function of the
    /// previous one).
    pub order: Vec<usize>,
    /// Global optimizer step count.
    pub step: u64,
    /// Training loss accumulated over `order[..cursor]` this epoch.
    pub epoch_loss: f64,
    /// Total examples trained on so far.
    pub trained_pairs: usize,
    /// Epochs entered so far.
    pub epochs_run: usize,
    /// Mean training loss of the last completed epoch.
    pub final_train_loss: f64,
}

/// Persistence and resume settings of a durable [`crate::Trainer`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Write a snapshot every this many optimizer steps, on top of the
    /// unconditional snapshot at every epoch boundary. `0` keeps only the
    /// epoch-boundary saves.
    pub every_steps: u64,
    /// Look for an existing snapshot in the store and continue from it.
    /// With `false` the store is used for writing only.
    pub resume: bool,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            every_steps: 0,
            resume: true,
        }
    }
}

/// Pulls the newest valid snapshot out of `store` and checks it belongs to
/// this run. `Ok(None)` means "nothing usable — start fresh" (empty store,
/// or every snapshot corrupt); a parseable-but-foreign snapshot is an
/// [`CoreError::Incompatible`] error.
pub(crate) fn load_resume_state(
    store: &CheckpointStore,
    model: &dyn Module,
    train_examples: usize,
    valid_examples: usize,
    cfg: &TrainConfig,
    observer: &mut dyn TrainObserver,
) -> Result<Option<TrainState>, CoreError> {
    let Some((_seq, state)) = store.load_latest::<TrainState>(|file, reason| {
        observer.on_event(TrainEvent::CorruptSkipped(file, reason))
    })?
    else {
        return Ok(None);
    };
    if state.cfg != *cfg {
        return Err(CoreError::Incompatible(
            "snapshot was written under a different training configuration".to_string(),
        ));
    }
    if state.train_examples != train_examples || state.valid_examples != valid_examples {
        return Err(CoreError::Incompatible(format!(
            "snapshot trained on {}/{} train/valid examples, this run has {train_examples}/{valid_examples}",
            state.train_examples, state.valid_examples,
        )));
    }
    // Checked here so `load_state` never panics on data read from disk.
    for (which, params) in [("params", &state.params), ("best_params", &state.best_params)] {
        model
            .check_state(params)
            .map_err(|e| CoreError::Incompatible(format!("snapshot {which}: {e}")))?;
    }
    if state.rng.len() != 4 {
        return Err(CoreError::Incompatible(format!(
            "rng state has {} words, expected 4",
            state.rng.len()
        )));
    }
    if state.order.len() != train_examples {
        return Err(CoreError::Incompatible(format!(
            "snapshot carries an order of {} examples, split has {train_examples}",
            state.order.len(),
        )));
    }
    if state.cursor > train_examples || state.epoch > state.cfg.epochs {
        return Err(CoreError::Incompatible(format!(
            "snapshot cursor {}/epoch {} out of range",
            state.cursor, state.epoch
        )));
    }
    Ok(Some(state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::EncodedExample;
    use crate::train::tests::{setup, tiny_model};
    use crate::train::{train_matcher_observed, Trainer};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::HashMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cfg() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            lr: 2e-3,
            batch_size: 4,
            patience: 6,
            ..TrainConfig::default()
        }
    }

    struct TempDir(PathBuf);
    impl TempDir {
        fn new() -> Self {
            static N: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "emba-resume-test-{}-{}",
                std::process::id(),
                N.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Records per-step losses and the recovery events.
    #[derive(Default)]
    struct LossTrace {
        steps: Vec<(u64, f64)>,
        resumes: usize,
        corrupt_skipped: usize,
        checkpoint_writes: usize,
    }

    impl TrainObserver for LossTrace {
        fn on_step(&mut self, r: &emba_trace::StepRecord) {
            self.steps.push((r.step, r.loss));
        }
        fn on_resume(&mut self, _epoch: usize, _step: u64) {
            self.resumes += 1;
        }
        fn on_checkpoint_write(&mut self, _seq: u64, _epoch: usize, _step: u64) {
            self.checkpoint_writes += 1;
        }
        fn on_corrupt_skipped(&mut self, _file: &str, _reason: &str) {
            self.corrupt_skipped += 1;
        }
    }

    /// [`LossTrace`] that simulates a crash by panicking after a given step.
    struct Killer {
        kill_at: u64,
        inner: LossTrace,
    }

    impl TrainObserver for Killer {
        fn on_step(&mut self, r: &emba_trace::StepRecord) {
            self.inner.on_step(r);
            if r.step >= self.kill_at {
                panic!("injected crash at step {}", r.step);
            }
        }
        fn on_checkpoint_write(&mut self, seq: u64, epoch: usize, step: u64) {
            self.inner.on_checkpoint_write(seq, epoch, step);
        }
    }

    /// Runs `run` on a durable trainer whose observer crashes at `kill_at`,
    /// swallowing the injected panic.
    fn run_killed(
        store: &mut CheckpointStore,
        every_steps: u64,
        kill_at: u64,
        run: impl FnOnce(&mut Trainer<'_>),
    ) -> LossTrace {
        let mut killer = Killer {
            kill_at,
            inner: LossTrace::default(),
        };
        let opts = DurabilityConfig {
            every_steps,
            resume: false,
        };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run(&mut Trainer::durable(&mut killer, store, opts))
        }));
        std::panic::set_hook(hook);
        assert!(outcome.is_err(), "the injected crash should have fired");
        killer.inner
    }

    /// Every step the resumed run executed reproduces the uninterrupted
    /// run's loss at the same global step, bit for bit.
    fn assert_replays(baseline: &LossTrace, resumed: &LossTrace) {
        assert!(!resumed.steps.is_empty());
        let by_step: HashMap<u64, f64> = baseline.steps.iter().copied().collect();
        for &(s, l) in &resumed.steps {
            assert_eq!(by_step[&s].to_bits(), l.to_bits(), "loss diverged at step {s}: {} vs {l}", by_step[&s]);
        }
    }

    fn assert_same_outcome(a: &crate::TrainReport, b: &crate::TrainReport) {
        assert_eq!(a.test.matching.f1.to_bits(), b.test.matching.f1.to_bits());
        assert_eq!(a.valid_f1.to_bits(), b.valid_f1.to_bits());
        assert_eq!((a.best_epoch, a.epochs_run), (b.best_epoch, b.epochs_run));
        assert_eq!(a.final_train_loss.to_bits(), b.final_train_loss.to_bits());
    }

    #[test]
    fn resumed_run_is_bit_identical_to_uninterrupted() {
        let (train, valid, test, vocab, classes) = setup();
        let cfg = cfg();

        // Uninterrupted baseline.
        let mut baseline = LossTrace::default();
        let mut m = tiny_model(vocab, classes, 0);
        let report_a = train_matcher_observed(&mut m, &train, &valid, &test, &cfg, &mut baseline);

        // Same-seed twin, killed mid-way through the second epoch.
        let steps_per_epoch = train.len().div_ceil(cfg.batch_size) as u64;
        let tmp = TempDir::new();
        let mut store = CheckpointStore::open(&tmp.0, 4).unwrap();
        let mut m = tiny_model(vocab, classes, 0);
        let killed = run_killed(&mut store, 2, steps_per_epoch + 1, |t| {
            let _ = t.fit(&mut m, &train, &valid, &test, &cfg);
        });
        assert!(killed.checkpoint_writes >= 1);
        assert!(!store.snapshots().unwrap().is_empty());

        // "New process": fresh model object, resume from disk.
        let mut resumed = LossTrace::default();
        let mut m = tiny_model(vocab, classes, 0);
        let opts = DurabilityConfig {
            every_steps: 2,
            resume: true,
        };
        let report_b = Trainer::durable(&mut resumed, &mut store, opts)
            .fit(&mut m, &train, &valid, &test, &cfg)
        .unwrap();

        assert_eq!(resumed.resumes, 1);
        assert_eq!(resumed.corrupt_skipped, 0);
        assert_replays(&baseline, &resumed);
        assert_same_outcome(&report_a, &report_b);
    }

    /// Regression test for batched execution: a durable run whose optimizer
    /// windows pack multiple length buckets must resume bit-exactly. The
    /// kill lands between checkpoints so the resumed process replays batched
    /// windows from the snapshot — any drift in sub-batch planning or packed
    /// forward/backward order would show up as diverging losses.
    #[test]
    fn batched_window_run_resumes_bit_exactly() {
        // Real WDC examples all truncate to max_len (one shared bucket), so
        // synthesize a split with genuinely mixed lengths: that forces the
        // window plan to pack multiple sub-batches per optimizer window.
        let (vocab, classes) = (64usize, 5usize);
        let mut rng = StdRng::seed_from_u64(41);
        let mut gen = |n: usize| -> Vec<EncodedExample> {
            (0..n)
                .map(|_| {
                    let ll = rng.gen_range(1..14);
                    let rl = rng.gen_range(1..14);
                    let mut ids = vec![1usize];
                    ids.extend((0..ll).map(|_| rng.gen_range(4..vocab)));
                    ids.push(2);
                    ids.extend((0..rl).map(|_| rng.gen_range(4..vocab)));
                    ids.push(2);
                    let segments: Vec<usize> =
                        (0..ids.len()).map(|i| usize::from(i > 1 + ll)).collect();
                    EncodedExample {
                        pair: emba_tokenizer::EncodedPair {
                            ids,
                            segments,
                            left: 1..1 + ll,
                            right: 2 + ll..2 + ll + rl,
                        },
                        left_attrs: Vec::new(),
                        right_attrs: Vec::new(),
                        is_match: rng.gen(),
                        left_class: rng.gen_range(0..classes),
                        right_class: rng.gen_range(0..classes),
                    }
                })
                .collect()
        };
        let (train, valid, test) = (gen(24), gen(8), gen(8));
        // The window plan only has work to do when the data spans several
        // length buckets; with one bucket every window is a single batch and
        // this test would silently weaken.
        let mut keys: Vec<usize> = train
            .iter()
            .map(|ex| ex.pair.ids.len().div_ceil(crate::batching::BUCKET_WIDTH))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert!(
            keys.len() >= 2,
            "train split must span multiple length buckets, got {keys:?}"
        );
        let cfg = TrainConfig {
            batch_size: 6,
            ..cfg()
        };

        let mut baseline = LossTrace::default();
        let mut m = tiny_model(vocab, classes, 0);
        let report_a = train_matcher_observed(&mut m, &train, &valid, &test, &cfg, &mut baseline);

        let steps_per_epoch = train.len().div_ceil(cfg.batch_size) as u64;
        let tmp = TempDir::new();
        let mut store = CheckpointStore::open(&tmp.0, 4).unwrap();
        let mut m = tiny_model(vocab, classes, 0);
        // Checkpoint every 3 windows, die two windows past a boundary.
        let killed = run_killed(&mut store, 3, steps_per_epoch + 2, |t| {
            let _ = t.fit(&mut m, &train, &valid, &test, &cfg);
        });
        assert!(killed.checkpoint_writes >= 1);

        let mut resumed = LossTrace::default();
        let mut m = tiny_model(vocab, classes, 0);
        let opts = DurabilityConfig {
            every_steps: 3,
            resume: true,
        };
        let report_b = Trainer::durable(&mut resumed, &mut store, opts)
            .fit(&mut m, &train, &valid, &test, &cfg)
        .unwrap();

        assert_eq!(resumed.resumes, 1);
        assert_replays(&baseline, &resumed);
        assert_same_outcome(&report_a, &report_b);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous() {
        let (train, valid, test, vocab, classes) = setup();
        let cfg = cfg();

        let mut baseline = LossTrace::default();
        let mut m = tiny_model(vocab, classes, 0);
        let report_a = train_matcher_observed(&mut m, &train, &valid, &test, &cfg, &mut baseline);

        let steps_per_epoch = train.len().div_ceil(cfg.batch_size) as u64;
        let tmp = TempDir::new();
        let mut store = CheckpointStore::open(&tmp.0, 4).unwrap();
        let mut m = tiny_model(vocab, classes, 0);
        run_killed(&mut store, 2, steps_per_epoch + 2, |t| {
            let _ = t.fit(&mut m, &train, &valid, &test, &cfg);
        });
        let snaps = store.snapshots().unwrap();
        assert!(snaps.len() >= 3, "need a valid snapshot behind the two damaged ones");
        // Torn write on the newest snapshot, one flipped bit in the one
        // before it, plus a stray partial temp file.
        let (_, newest) = &snaps[snaps.len() - 1];
        let bytes = std::fs::read(newest).unwrap();
        std::fs::write(newest, &bytes[..bytes.len() / 3]).unwrap();
        let (_, second) = &snaps[snaps.len() - 2];
        let mut bytes = std::fs::read(second).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(second, &bytes).unwrap();
        std::fs::write(tmp.0.join("ckpt-999999.json.tmp"), "{\"partial\":").unwrap();

        let mut resumed = LossTrace::default();
        let mut m = tiny_model(vocab, classes, 0);
        let opts = DurabilityConfig {
            every_steps: 2,
            resume: true,
        };
        let report_b = Trainer::durable(&mut resumed, &mut store, opts)
            .fit(&mut m, &train, &valid, &test, &cfg)
        .unwrap();

        assert_eq!(resumed.corrupt_skipped, 2, "exactly the two damaged snapshots are skipped");
        assert_eq!(resumed.resumes, 1);
        // Falling back to an older snapshot only means more steps to replay;
        // the outcome is still bit-identical.
        assert_replays(&baseline, &resumed);
        assert_same_outcome(&report_a, &report_b);
    }

    #[test]
    fn resume_on_empty_store_starts_fresh() {
        let (train, valid, test, vocab, classes) = setup();
        let mut cfg = cfg();
        cfg.epochs = 2;

        let mut baseline = LossTrace::default();
        let mut m = tiny_model(vocab, classes, 0);
        let report_a = train_matcher_observed(&mut m, &train, &valid, &test, &cfg, &mut baseline);

        let tmp = TempDir::new();
        let mut store = CheckpointStore::open(&tmp.0, 4).unwrap();
        let mut resumed = LossTrace::default();
        let mut m = tiny_model(vocab, classes, 0);
        let report_b = Trainer::durable(&mut resumed, &mut store, DurabilityConfig::default())
            .fit(&mut m, &train, &valid, &test, &cfg)
            .unwrap();

        assert_eq!(resumed.resumes, 0);
        assert_eq!(report_a.test.matching.f1.to_bits(), report_b.test.matching.f1.to_bits());
        // Epoch-boundary saves happened even with `every_steps: 0`.
        assert_eq!(resumed.checkpoint_writes, cfg.epochs);
        assert!(!store.snapshots().unwrap().is_empty());
    }

    #[test]
    fn foreign_snapshot_is_rejected_not_loaded() {
        let (train, valid, test, vocab, classes) = setup();
        let mut cfg_a = cfg();
        cfg_a.epochs = 1;

        let tmp = TempDir::new();
        let mut store = CheckpointStore::open(&tmp.0, 4).unwrap();
        let mut m = tiny_model(vocab, classes, 0);
        let write_only = DurabilityConfig {
            every_steps: 0,
            resume: false,
        };
        Trainer::durable(&mut LossTrace::default(), &mut store, write_only)
            .fit(&mut m, &train, &valid, &test, &cfg_a)
            .unwrap();

        // Same store, different learning rate: must refuse, not silently
        // restart or mix states.
        let mut cfg_b = cfg_a.clone();
        cfg_b.lr = 1e-4;
        let mut m = tiny_model(vocab, classes, 0);
        let err = Trainer::durable(&mut LossTrace::default(), &mut store, DurabilityConfig::default())
            .fit(&mut m, &train, &valid, &test, &cfg_b)
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Incompatible(_)),
            "expected Incompatible, got {err}"
        );
    }

    /// MLM pre-training runs on the same loop, so durability is a call, not
    /// a feature: killed between snapshots and resumed, it replays the
    /// uninterrupted run's per-step losses (fresh masks included) bit for bit.
    #[test]
    fn durable_mlm_resumes_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(17);
        let corpus: Vec<Vec<usize>> = (0..30)
            .map(|_| (0..rng.gen_range(3..20)).map(|_| rng.gen_range(4..40)).collect())
            .collect();
        let mlm = emba_nn::mlm::MlmConfig {
            mask_prob: 0.2,
            mask_token: 1,
            num_reserved: 4,
        };
        let cfg = TrainConfig {
            batch_size: 4,
            ..cfg()
        };
        let encoder = || emba_nn::BertEncoder::new(emba_nn::BertConfig::tiny(40), &mut StdRng::seed_from_u64(1));

        let mut baseline = LossTrace::default();
        let mut enc_a = encoder();
        let loss_a = Trainer::new(&mut baseline).pretrain_mlm(&mut enc_a, &corpus, &mlm, &cfg).unwrap();

        let tmp = TempDir::new();
        let mut store = CheckpointStore::open(&tmp.0, 4).unwrap();
        let killed = run_killed(&mut store, 3, 11, |t| {
            let _ = t.pretrain_mlm(&mut encoder(), &corpus, &mlm, &cfg);
        });
        assert!(killed.checkpoint_writes >= 1);

        let mut resumed = LossTrace::default();
        let mut enc_b = encoder();
        let opts = DurabilityConfig {
            every_steps: 3,
            resume: true,
        };
        let loss_b = Trainer::durable(&mut resumed, &mut store, opts)
            .pretrain_mlm(&mut enc_b, &corpus, &mlm, &cfg)
            .unwrap();

        assert_eq!(resumed.resumes, 1);
        assert_replays(&baseline, &resumed);
        assert_eq!(loss_a.to_bits(), loss_b.to_bits());
        assert_eq!(enc_a.state(), enc_b.state());
    }

    #[test]
    fn nan_guard_is_restored_when_a_durable_run_fails() {
        let (train, valid, test, vocab, classes) = setup();
        let tmp = TempDir::new();
        let mut store = CheckpointStore::open(&tmp.0, 2).unwrap();
        // The store's directory vanishes before the first save.
        std::fs::remove_dir_all(&tmp.0).unwrap();
        let cfg = TrainConfig {
            nan_guard: true,
            ..cfg()
        };
        let opts = DurabilityConfig {
            every_steps: 1,
            resume: false,
        };
        assert!(!emba_tensor::guard::enabled());
        let outcome = Trainer::durable(&mut LossTrace::default(), &mut store, opts).fit(
            &mut tiny_model(vocab, classes, 0),
            &train,
            &valid,
            &test,
            &cfg,
        );
        assert!(outcome.is_err(), "saving into a removed directory must fail");
        assert!(!emba_tensor::guard::enabled(), "the guard leaked past the failed run");
    }
}
