//! The model registry: every system evaluated in the paper's tables, with a
//! single factory that instantiates it against a fitted pipeline.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::backbone::{Backbone, BackboneKind};
use crate::deepmatcher::{DeepMatcher, DeepMatcherConfig};
use crate::models::{numeric_vocab_table, AuxStrategy, EmStrategy, Matcher, TransformerMatcher};
use crate::pipeline::TextPipeline;
use emba_tokenizer::Serialization;

/// Every model compared in Tables 2, 4, and 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// The paper's contribution: token heads + AOA on BERT-base.
    Emba,
    /// EMBA over the fastText backbone.
    EmbaFt,
    /// EMBA over BERT-small.
    EmbaSb,
    /// EMBA over distilBERT.
    EmbaDb,
    /// Peeters & Bizer's dual-objective `[CLS]` model.
    JointBert,
    /// Ablation: `[SEP]` for the second entity-ID task.
    JointBertS,
    /// Ablation: averaged token representations everywhere.
    JointBertT,
    /// Ablation: `[CLS]` for EM, averaged tokens for the aux tasks.
    JointBertCt,
    /// Ablation: AOA for EM but `[CLS]` for the aux tasks.
    EmbaCls,
    /// Ablation: SurfCon context matching instead of AOA.
    EmbaSurfCon,
    /// Single-task BERT.
    Bert,
    /// Single-task RoBERTa-style model.
    Roberta,
    /// DITTO: single-task with `[COL]`/`[VAL]` serialization.
    Ditto,
    /// JointMatcher: relevance- and numerically-aware encoders.
    JointMatcher,
    /// DeepMatcher: attribute-aligned RNN.
    DeepMatcher,
}

impl ModelKind {
    /// The models of Table 2, in column order.
    pub fn table2() -> Vec<ModelKind> {
        vec![
            ModelKind::JointBert,
            ModelKind::Emba,
            ModelKind::EmbaFt,
            ModelKind::EmbaSb,
            ModelKind::EmbaDb,
            ModelKind::DeepMatcher,
            ModelKind::Bert,
            ModelKind::Roberta,
            ModelKind::Ditto,
            ModelKind::JointMatcher,
        ]
    }

    /// The models of the ablation study (Table 4), in column order.
    pub fn table4() -> Vec<ModelKind> {
        vec![
            ModelKind::JointBert,
            ModelKind::JointBertS,
            ModelKind::JointBertT,
            ModelKind::JointBertCt,
            ModelKind::EmbaCls,
            ModelKind::EmbaSurfCon,
            ModelKind::Emba,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Emba => "EMBA",
            ModelKind::EmbaFt => "EMBA (FT)",
            ModelKind::EmbaSb => "EMBA (SB)",
            ModelKind::EmbaDb => "EMBA (DB)",
            ModelKind::JointBert => "JointBERT",
            ModelKind::JointBertS => "JointBERT-S",
            ModelKind::JointBertT => "JointBERT-T",
            ModelKind::JointBertCt => "JointBERT-CT",
            ModelKind::EmbaCls => "EMBA-CLS",
            ModelKind::EmbaSurfCon => "EMBA-SurfCon",
            ModelKind::Bert => "BERT",
            ModelKind::Roberta => "RoBERTa",
            ModelKind::Ditto => "DITTO",
            ModelKind::JointMatcher => "JointMatcher",
            ModelKind::DeepMatcher => "DeepMatcher",
        }
    }

    /// The record serialization this model expects.
    pub fn serialization(self) -> Serialization {
        match self {
            ModelKind::Ditto => Serialization::Ditto,
            _ => Serialization::Plain,
        }
    }

    /// Whether the model trains the auxiliary entity-ID tasks.
    pub fn is_multitask(self) -> bool {
        !matches!(
            self,
            ModelKind::Bert
                | ModelKind::Roberta
                | ModelKind::Ditto
                | ModelKind::JointMatcher
                | ModelKind::DeepMatcher
        )
    }

    /// The encoder backbone the model uses (`None` for DeepMatcher, which
    /// has its own architecture).
    pub fn backbone(self) -> Option<BackboneKind> {
        match self {
            ModelKind::EmbaFt => Some(BackboneKind::FastText),
            ModelKind::EmbaSb => Some(BackboneKind::Small),
            ModelKind::EmbaDb => Some(BackboneKind::Distil),
            ModelKind::Roberta => Some(BackboneKind::Roberta),
            ModelKind::DeepMatcher => None,
            _ => Some(BackboneKind::Base),
        }
    }

    /// Instantiates the model against a fitted pipeline.
    ///
    /// `num_classes` sizes the auxiliary heads; `pos_fraction` is the
    /// training positive rate (used by DeepMatcher's class weighting);
    /// `dropout` is the transformer dropout rate (see
    /// [`crate::DEFAULT_DROPOUT`]; ignored by DeepMatcher and fastText).
    pub fn build(
        self,
        pipeline: &TextPipeline,
        num_classes: usize,
        pos_fraction: f64,
        dropout: f32,
        rng: &mut StdRng,
    ) -> Box<dyn Matcher> {
        let vocab = pipeline.vocab_size();
        let max_len = pipeline.max_len();
        if self == ModelKind::DeepMatcher {
            let cfg = DeepMatcherConfig::default().with_pos_fraction(pos_fraction);
            return Box::new(DeepMatcher::new(vocab, cfg, rng));
        }

        let backbone = Backbone::new(
            self.backbone().expect("non-DeepMatcher"),
            vocab,
            max_len,
            dropout,
            rng,
        );
        let (em, aux) = match self {
            ModelKind::Emba | ModelKind::EmbaFt | ModelKind::EmbaSb | ModelKind::EmbaDb => {
                (EmStrategy::Aoa, AuxStrategy::TokenAttention)
            }
            ModelKind::JointBert => (EmStrategy::Cls, AuxStrategy::Cls),
            ModelKind::JointBertS => (EmStrategy::Cls, AuxStrategy::ClsSep),
            ModelKind::JointBertT => (EmStrategy::TokenAvgConcat, AuxStrategy::TokenAvg),
            ModelKind::JointBertCt => (EmStrategy::Cls, AuxStrategy::TokenAvg),
            ModelKind::EmbaCls => (EmStrategy::Aoa, AuxStrategy::Cls),
            ModelKind::EmbaSurfCon => (EmStrategy::SurfCon, AuxStrategy::TokenAttention),
            ModelKind::Bert | ModelKind::Roberta | ModelKind::Ditto => {
                (EmStrategy::Cls, AuxStrategy::None)
            }
            ModelKind::JointMatcher => (EmStrategy::RelevanceNumeric, AuxStrategy::None),
            ModelKind::DeepMatcher => unreachable!("handled above"),
        };
        let numeric = (em == EmStrategy::RelevanceNumeric)
            .then(|| numeric_vocab_table(pipeline.tokenizer()));
        Box::new(TransformerMatcher::new(
            self.name(),
            backbone,
            em,
            aux,
            num_classes.max(2),
            numeric,
            rng,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use emba_datagen::{build as build_ds, DatasetId, Scale, WdcCategory, WdcSize};
    use emba_nn::GraphStamp;
    use emba_tensor::Graph;
    use rand::SeedableRng;

    #[test]
    fn every_model_kind_builds_and_runs() {
        let ds = build_ds(
            DatasetId::Wdc(WdcCategory::Watches, WdcSize::Small),
            Scale::TEST,
            8,
        );
        for kind in ModelKind::table2().into_iter().chain(ModelKind::table4()) {
            let pipe = TextPipeline::fit(
                &ds,
                PipelineConfig {
                    vocab_size: 300,
                    max_len: 32,
                    serialization: kind.serialization(),
                },
            );
            let mut rng = StdRng::seed_from_u64(0);
            let model = kind.build(&pipe, ds.num_classes, 0.25, crate::DEFAULT_DROPOUT, &mut rng);
            let ex = pipe.encode_example(&ds.train[0]);
            let g = Graph::new();
            let out = model.forward_batch(&g, GraphStamp::next(), &[&ex], false, &mut rng);
            assert!(
                out.match_probs[0].is_finite(),
                "{} produced a non-finite probability",
                kind.name()
            );
            assert_eq!(out.id1_preds.is_some(), kind.is_multitask(), "{}", kind.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ModelKind::table2()
            .into_iter()
            .chain(ModelKind::table4())
            .map(|k| k.name())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15); // 10 + 7 with JointBERT and EMBA shared
    }

    #[test]
    fn ditto_uses_ditto_serialization() {
        assert_eq!(ModelKind::Ditto.serialization(), Serialization::Ditto);
        assert_eq!(ModelKind::Emba.serialization(), Serialization::Plain);
    }

    #[test]
    fn backbone_assignments_match_variants() {
        assert_eq!(ModelKind::EmbaFt.backbone(), Some(BackboneKind::FastText));
        assert_eq!(ModelKind::EmbaSb.backbone(), Some(BackboneKind::Small));
        assert_eq!(ModelKind::DeepMatcher.backbone(), None);
        assert_eq!(ModelKind::JointBert.backbone(), Some(BackboneKind::Base));
    }
}
