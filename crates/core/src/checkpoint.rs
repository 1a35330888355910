//! Checkpointing: serialize a trained matcher (model kind, tokenizer
//! vocabulary, pipeline settings, and all parameter tensors) to a single
//! serde-serializable value and restore it bit-for-bit.
//!
//! Restoration rebuilds the architecture through [`ModelKind::build`] with a
//! fixed seed and then overwrites every parameter from the snapshot, so a
//! loaded model's predictions are identical to the saved one's.

use emba_tensor::Tensor;
use emba_tokenizer::WordPieceTokenizer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::experiment::TrainedMatcher;
use crate::kind::ModelKind;
use crate::pipeline::{PipelineConfig, TextPipeline};

/// A serializable snapshot of a trained matcher.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Which architecture to rebuild.
    pub kind: ModelKind,
    /// Id-ordered WordPiece vocabulary.
    pub vocab: Vec<String>,
    /// Pipeline settings (max length, serialization mode).
    pub pipeline: PipelineConfig,
    /// Auxiliary-head class count the model was built with.
    pub num_classes: usize,
    /// Transformer dropout rate the model was built with. Older snapshots
    /// predate this field; they default to [`crate::DEFAULT_DROPOUT`], the
    /// rate every model was actually built with back then.
    #[serde(default = "default_dropout")]
    pub dropout: f32,
    /// Training positive rate the model was built with (DeepMatcher class
    /// weighting). Older snapshots default to the neutral 0.5.
    #[serde(default = "default_pos_fraction")]
    pub pos_fraction: f64,
    /// Every parameter tensor in module visit order.
    pub params: Vec<Tensor>,
}

fn default_dropout() -> f32 {
    crate::backbone::DEFAULT_DROPOUT
}

fn default_pos_fraction() -> f64 {
    0.5
}

/// Errors returned by [`Checkpoint::restore`].
#[derive(Debug)]
pub enum CheckpointError {
    /// The snapshot's parameter list does not fit the rebuilt architecture.
    ShapeMismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::ShapeMismatch(msg) => write!(f, "checkpoint shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Captures a trained matcher.
    ///
    /// `num_classes` must be the value the model was built with (it sizes
    /// the auxiliary heads on restore).
    pub fn capture(trained: &TrainedMatcher, kind: ModelKind, num_classes: usize) -> Self {
        Self {
            kind,
            vocab: trained.pipeline.tokenizer().vocab().to_vec(),
            pipeline: trained.pipeline.config().clone(),
            num_classes,
            dropout: trained.dropout,
            pos_fraction: trained.pos_fraction,
            params: trained.model.state(),
        }
    }

    /// Rebuilds the matcher from this snapshot.
    pub fn restore(&self) -> Result<TrainedMatcher, CheckpointError> {
        let tokenizer = WordPieceTokenizer::from_vocab(self.vocab.clone());
        let pipeline = TextPipeline::from_tokenizer(tokenizer, self.pipeline.clone());
        // The architecture is fully determined by (kind, vocab, max_len,
        // num_classes, dropout, pos_fraction); the init seed is irrelevant
        // because every parameter is overwritten below. Dropout and the
        // positive rate must come from the snapshot: the pre-fix restore
        // hardcoded 0.5 here, silently rebuilding every restored model with
        // a rate its training never used.
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = self.kind.build(
            &pipeline,
            self.num_classes,
            self.pos_fraction,
            self.dropout,
            &mut rng,
        );

        model.check_state(&self.params).map_err(CheckpointError::ShapeMismatch)?;
        model.load_state(&self.params);
        Ok(TrainedMatcher {
            pipeline,
            model,
            dropout: self.dropout,
            pos_fraction: self.pos_fraction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{tests::train_quiet as train_single, ExperimentConfig};
    use crate::train::TrainConfig;
    use emba_datagen::{build, DatasetId, Scale, WdcCategory, WdcSize};

    fn trained() -> (TrainedMatcher, emba_datagen::Dataset) {
        let ds = build(
            DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small),
            Scale::TEST,
            4,
        );
        let cfg = ExperimentConfig {
            vocab_size: 400,
            max_len: 32,
            train: TrainConfig {
                epochs: 1,
                batch_size: 4,
                ..TrainConfig::default()
            },
            mlm_epochs: 0,
            runs: 1,
            ..ExperimentConfig::default()
        };
        let (t, _) = train_single(ModelKind::EmbaSb, &ds, &cfg, 3);
        (t, ds)
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let (trained, ds) = trained();
        let ckpt = Checkpoint::capture(&trained, ModelKind::EmbaSb, ds.num_classes);
        let restored = ckpt.restore().unwrap();
        for p in ds.test.iter().take(5) {
            let a = trained.predict(&p.left, &p.right);
            let b = restored.predict(&p.left, &p.right);
            assert_eq!(a.prob, b.prob, "prediction drift after restore");
        }
    }

    #[test]
    fn roundtrip_survives_json() {
        let (trained, ds) = trained();
        let ckpt = Checkpoint::capture(&trained, ModelKind::EmbaSb, ds.num_classes);
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        let restored = back.restore().unwrap();
        let p = &ds.test[0];
        assert_eq!(
            trained.predict(&p.left, &p.right).prob,
            restored.predict(&p.left, &p.right).prob
        );
    }

    #[test]
    fn roundtrip_preserves_nondefault_dropout() {
        let ds = build(
            DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small),
            Scale::TEST,
            4,
        );
        let cfg = ExperimentConfig {
            vocab_size: 400,
            max_len: 32,
            train: TrainConfig {
                epochs: 1,
                batch_size: 4,
                ..TrainConfig::default()
            },
            mlm_epochs: 0,
            runs: 1,
            dropout: 0.37,
            ..ExperimentConfig::default()
        };
        let (trained, _) = train_single(ModelKind::EmbaSb, &ds, &cfg, 3);
        let ckpt = Checkpoint::capture(&trained, ModelKind::EmbaSb, ds.num_classes);
        assert_eq!(ckpt.dropout, 0.37);
        let restored = ckpt.restore().unwrap();
        assert_eq!(restored.dropout, 0.37);

        // Behavioral check: a train-mode forward pass applies dropout, so
        // with identically seeded RNGs the original and the restored model
        // produce bit-identical losses only if the restored architecture
        // uses the same dropout rate. The pre-fix restore rebuilt with a
        // hardcoded rate, which this catches.
        let ex = trained.pipeline.encode_example(&ds.test[0]);
        let loss_of = |t: &TrainedMatcher| {
            let mut rng = StdRng::seed_from_u64(99);
            let g = emba_tensor::Graph::new();
            let out = t.model.forward_batch(&g, &[&ex], true, &mut rng);
            g.value(out.loss).item()
        };
        assert_eq!(loss_of(&trained), loss_of(&restored));
    }

    #[test]
    fn old_snapshots_without_dropout_fields_still_restore() {
        use serde::Value;
        let (trained, ds) = trained();
        let ckpt = Checkpoint::capture(&trained, ModelKind::EmbaSb, ds.num_classes);
        // Simulate a snapshot written before `dropout` / `pos_fraction`
        // existed by stripping both fields from the serialized tree.
        let stripped = match serde_json::to_value(&ckpt).unwrap() {
            Value::Object(fields) => Value::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "dropout" && k != "pos_fraction")
                    .collect(),
            ),
            other => panic!("checkpoint serialized to a non-object: {other:?}"),
        };
        let back: Checkpoint = serde_json::from_value(stripped).unwrap();
        assert_eq!(back.dropout, crate::backbone::DEFAULT_DROPOUT);
        assert_eq!(back.pos_fraction, 0.5);
        let restored = back.restore().unwrap();
        let p = &ds.test[0];
        // Eval-mode predictions are dropout-free, so the restored model
        // still reproduces the original's outputs exactly.
        assert_eq!(
            trained.predict(&p.left, &p.right).prob,
            restored.predict(&p.left, &p.right).prob
        );
    }

    #[test]
    fn restore_rejects_wrong_class_count() {
        let (trained, ds) = trained();
        let mut ckpt = Checkpoint::capture(&trained, ModelKind::EmbaSb, ds.num_classes);
        ckpt.num_classes = ds.num_classes + 3; // heads no longer fit
        let err = match ckpt.restore() {
            Err(e) => e,
            Ok(_) => panic!("restore should fail with mismatched class count"),
        };
        assert!(err.to_string().contains("shape mismatch"));
    }

    #[test]
    fn restore_rejects_truncated_snapshot() {
        let (trained, ds) = trained();
        let mut ckpt = Checkpoint::capture(&trained, ModelKind::EmbaSb, ds.num_classes);
        ckpt.params.pop();
        assert!(matches!(ckpt.restore(), Err(CheckpointError::ShapeMismatch(_))));
    }
}
