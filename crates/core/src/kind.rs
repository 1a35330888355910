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
    use emba_tensor::Graph;
    use rand::SeedableRng;

    /// `(name, tensors, shape digest, value digest)` of each kind's
    /// [`emba_nn::Module::state`] as built below. The shape digest pins the
    /// checkpoint layout; the value digest also pins the order of parameters
    /// that share a shape (a layer norm's gamma and beta). A change that
    /// moves a layout on purpose breaks every saved checkpoint and
    /// recaptures this table.
    const LAYOUTS: [(&str, usize, u64, u64); 15] = [
        ("EMBA", 81, 0xf9c9_12bf_465a_7b2f, 0xd65c_ec22_9d68_772a),
        ("EMBA (FT)", 13, 0xb485_51f6_2e1b_fa15, 0x1b7a_900d_fcc1_af66),
        ("EMBA (SB)", 49, 0xadda_177e_78ab_f7ef, 0x2686_5d12_a89a_fee3),
        ("EMBA (DB)", 49, 0x3512_0245_ceb5_3b2f, 0x3cdb_9e10_7784_175f),
        ("DeepMatcher", 19, 0x8bac_b470_3e3f_a090, 0xbe90_1931_46da_e128),
        ("BERT", 73, 0x63fe_1e2c_3a47_5157, 0x533e_1f21_3757_ff45),
        ("RoBERTa", 73, 0x63fe_1e2c_3a47_5157, 0x533e_1f21_3757_ff45),
        ("DITTO", 73, 0x63fe_1e2c_3a47_5157, 0x533e_1f21_3757_ff45),
        ("JointMatcher", 73, 0x6952_15d6_048a_c057, 0x1ffb_8715_a4ff_f863),
        ("JointBERT", 81, 0xf9c9_12bf_465a_7b2f, 0xd65c_ec22_9d68_772a),
        ("JointBERT-S", 81, 0xf9c9_12bf_465a_7b2f, 0xd65c_ec22_9d68_772a),
        ("JointBERT-T", 81, 0x28bd_f93e_2a30_f2af, 0xe083_ec27_df24_afc7),
        ("JointBERT-CT", 81, 0xf9c9_12bf_465a_7b2f, 0xd65c_ec22_9d68_772a),
        ("EMBA-CLS", 81, 0xf9c9_12bf_465a_7b2f, 0xd65c_ec22_9d68_772a),
        ("EMBA-SurfCon", 81, 0x28bd_f93e_2a30_f2af, 0xe083_ec27_df24_afc7),
    ];

    /// FNV-1a digests of a snapshot's shape sequence, and of that plus
    /// every value's bits.
    fn layout_digests(state: &[emba_tensor::Tensor]) -> (u64, u64) {
        let fnv = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0100_0000_01b3);
        let shapes = state.iter().fold(0xcbf2_9ce4_8422_2325, |h, t| fnv(fnv(h, t.rows() as u64), t.cols() as u64));
        let values = state.iter().flat_map(|t| t.data()).fold(shapes, |h, x| fnv(h, u64::from(x.to_bits())));
        (shapes, values)
    }

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
            let out = model.forward_batch(&g, &[&ex], false, &mut rng);
            assert!(
                out.inference.match_probs[0].is_finite(),
                "{} produced a non-finite probability",
                kind.name()
            );
            assert_eq!(out.inference.id1_preds.is_some(), kind.is_multitask(), "{}", kind.name());

            let state = model.state();
            let &(_, tensors, shapes, values) =
                LAYOUTS.iter().find(|l| l.0 == kind.name()).expect("every kind has a pinned layout");
            assert_eq!((state.len(), layout_digests(&state)), (tensors, (shapes, values)), "{}", kind.name());
            assert!(model.check_state(&state).is_ok(), "{}", kind.name());
            let mut short = state;
            short.pop();
            assert!(model.check_state(&short).is_err(), "{} accepted a snapshot one tensor short", kind.name());
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
