//! DeepMatcher baseline (Mudgal et al., SIGMOD 2018), hybrid variant.
//!
//! The original aligns attributes between the two records, summarizes each
//! attribute value with an RNN + attention, compares the aligned summaries,
//! and classifies the aggregated comparison vector. This reimplementation
//! keeps that structure: a shared fastText-style subword embedding, a
//! shared BiGRU with learned attention pooling per attribute value,
//! element-wise absolute-difference ‖ product comparison, mean aggregation
//! over aligned attributes, and a two-layer classifier trained with
//! class-weighted cross-entropy (the paper fixes the positive/negative
//! weighting to the training distribution).

use emba_nn::{BiGru, Embedding, Linear};
use emba_tensor::{Graph, Var};
use rand::RngCore;

use crate::models::{BatchOutput, Inference, Matcher};
use crate::pipeline::EncodedExample;

/// Hyperparameters for [`DeepMatcher`].
#[derive(Debug, Clone, Copy)]
pub struct DeepMatcherConfig {
    /// Subword embedding width.
    pub embed_dim: usize,
    /// GRU hidden width per direction.
    pub rnn_hidden: usize,
    /// Classifier hidden width.
    pub classifier_hidden: usize,
    /// Cross-entropy class weights `[negative, positive]`.
    pub class_weights: [f32; 2],
}

impl Default for DeepMatcherConfig {
    fn default() -> Self {
        Self {
            embed_dim: 64,
            rnn_hidden: 32,
            classifier_hidden: 64,
            class_weights: [1.0, 1.0],
        }
    }
}

impl DeepMatcherConfig {
    /// Sets the class weights from a training positive fraction, mirroring
    /// DeepMatcher's `pos_neg_ratio` handling: the minority positive class
    /// is upweighted by `neg/pos`.
    pub fn with_pos_fraction(mut self, pos_fraction: f64) -> Self {
        let pos = pos_fraction.clamp(1e-3, 1.0 - 1e-3);
        self.class_weights = [1.0, ((1.0 - pos) / pos) as f32];
        self
    }
}

/// The attribute-aligned RNN matcher.
pub struct DeepMatcher {
    embedding: Embedding,
    rnn: BiGru,
    attn_scorer: Linear,
    hidden_layer: Linear,
    output_layer: Linear,
    class_weights: [f32; 2],
}

impl DeepMatcher {
    /// Builds the model over `vocab` subwords.
    pub fn new<R: rand::Rng + ?Sized>(vocab: usize, cfg: DeepMatcherConfig, rng: &mut R) -> Self {
        let summary_dim = 2 * cfg.rnn_hidden; // BiGRU output width
        let compare_dim = 2 * summary_dim; // |u-v| ‖ u⊙v
        Self {
            embedding: Embedding::new(vocab, cfg.embed_dim, rng),
            rnn: BiGru::new(cfg.embed_dim, cfg.rnn_hidden, rng),
            attn_scorer: Linear::new(summary_dim, 1, rng),
            hidden_layer: Linear::new(compare_dim, cfg.classifier_hidden, rng),
            output_layer: Linear::new(cfg.classifier_hidden, 2, rng),
            class_weights: cfg.class_weights,
        }
    }

    /// Encodes one attribute value into a `[1, 2*rnn_hidden]` summary.
    fn summarize(&self, g: &Graph, ids: &[usize]) -> Var {
        let ids = if ids.is_empty() {
            &[emba_tokenizer::special::UNK][..]
        } else {
            ids
        };
        let emb = self.embedding.forward(g, ids);
        let states = self.rnn.forward(g, emb);
        // Learned attention pooling over timesteps.
        let scores = self.attn_scorer.forward(g, states); // [t, 1]
        let weights = g.softmax_rows(g.transpose(scores)); // [1, t]
        g.matmul(weights, states) // [1, 2h]
    }

    /// Aligns attributes by name; unmatched attributes fall back to a
    /// whole-record comparison so heterogeneous schemas still work.
    fn aligned<'a>(
        left: &'a [(String, Vec<usize>)],
        right: &'a [(String, Vec<usize>)],
    ) -> Vec<(&'a [usize], &'a [usize])> {
        let mut out = Vec::new();
        for (name, lv) in left {
            if let Some((_, rv)) = right.iter().find(|(n, _)| n == name) {
                out.push((lv.as_slice(), rv.as_slice()));
            }
        }
        out
    }

    /// One example's loss and match probability.
    fn forward_one(&self, g: &Graph, ex: &EncodedExample) -> (Var, f32) {
        let mut pairs = Self::aligned(&ex.left_attrs, &ex.right_attrs);
        let flat_left: Vec<usize>;
        let flat_right: Vec<usize>;
        if pairs.is_empty() {
            // Schema mismatch: compare full serialized records.
            flat_left = ex.left_attrs.iter().flat_map(|(_, v)| v.clone()).collect();
            flat_right = ex.right_attrs.iter().flat_map(|(_, v)| v.clone()).collect();
            pairs = vec![(flat_left.as_slice(), flat_right.as_slice())];
        }

        let comparisons: Vec<Var> = pairs
            .iter()
            .map(|(l, r)| {
                let u = self.summarize(g, l);
                let v = self.summarize(g, r);
                let diff = g.sub(u, v);
                // |x| = relu(x) + relu(-x), smooth except at 0.
                let abs = g.add(g.relu(diff), g.relu(g.scale(diff, -1.0)));
                let prod = g.mul(u, v);
                g.concat_cols(&[abs, prod])
            })
            .collect();
        let stacked = g.concat_rows(&comparisons);
        let aggregated = g.mean_axis0(stacked);

        let hidden = g.relu(self.hidden_layer.forward(g, aggregated));
        let logits = self.output_layer.forward(g, hidden);
        let target = usize::from(ex.is_match);
        let loss = g.cross_entropy_weighted(logits, &[target], Some(&self.class_weights));

        let probs = g.value(logits).softmax_rows();
        (loss, probs.get(0, 1))
    }
}

impl Matcher for DeepMatcher {
    /// The examples one after another on the shared tape: DeepMatcher has
    /// no batched pass.
    fn forward_batch(
        &self,
        g: &Graph,
        exs: &[&EncodedExample],
        _train: bool,
        _rng: &mut dyn RngCore,
    ) -> BatchOutput {
        assert!(!exs.is_empty(), "cannot run an empty batch");
        let mut loss: Option<Var> = None;
        let mut example_losses = Vec::with_capacity(exs.len());
        let mut match_probs = Vec::with_capacity(exs.len());
        for ex in exs {
            let (ex_loss, prob) = self.forward_one(g, ex);
            example_losses.push(g.value(ex_loss).item());
            loss = Some(loss.map_or(ex_loss, |acc| g.add(acc, ex_loss)));
            match_probs.push(prob);
        }
        BatchOutput {
            loss: loss.expect("non-empty batch"),
            example_losses,
            inference: Inference { match_probs, ..Inference::default() },
        }
    }

    fn name(&self) -> &str {
        "DeepMatcher"
    }

    fn bert_backbone_mut(&mut self) -> Option<&mut emba_nn::BertEncoder> {
        None
    }

    fn fasttext_embedding_mut(&mut self) -> Option<&mut emba_nn::Embedding> {
        // DeepMatcher's original uses pre-trained fastText vectors as input.
        Some(&mut self.embedding)
    }
}

emba_nn::module_params!(DeepMatcher: embedding, rnn, attn_scorer, hidden_layer, output_layer);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineConfig, TextPipeline};
    use emba_datagen::{build, DatasetId, Scale};
    use emba_nn::Module;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn encoded(id: DatasetId) -> (usize, Vec<EncodedExample>) {
        let ds = build(id, Scale::TEST, 2);
        let pipe = TextPipeline::fit(
            &ds,
            PipelineConfig {
                vocab_size: 400,
                max_len: 32,
                ..PipelineConfig::default()
            },
        );
        (pipe.vocab_size(), pipe.encode_split(&ds.train))
    }

    #[test]
    fn forward_on_shared_schema() {
        let (vocab, exs) = encoded(DatasetId::Wdc(
            emba_datagen::WdcCategory::Shoes,
            emba_datagen::WdcSize::Small,
        ));
        let mut rng = StdRng::seed_from_u64(0);
        let model = DeepMatcher::new(vocab, DeepMatcherConfig::default(), &mut rng);
        let g = Graph::new();
        let out = model.forward_batch(&g, &[&exs[0]], false, &mut rng);
        assert!((0.0..=1.0).contains(&out.inference.match_probs[0]));
        assert!(g.value(out.loss).item().is_finite());
    }

    #[test]
    fn forward_on_heterogeneous_schema_falls_back() {
        // abt-buy left has name/description, right has name/description/price:
        // partial overlap. dblp-vs... use abt-buy.
        let (vocab, exs) = encoded(DatasetId::AbtBuy);
        let mut rng = StdRng::seed_from_u64(1);
        let model = DeepMatcher::new(vocab, DeepMatcherConfig::default(), &mut rng);
        let g = Graph::new();
        let out = model.forward_batch(&g, &[&exs[0]], false, &mut rng);
        assert!(out.inference.match_probs[0].is_finite());
    }

    #[test]
    fn class_weights_from_pos_fraction() {
        let cfg = DeepMatcherConfig::default().with_pos_fraction(0.2);
        assert!((cfg.class_weights[1] - 4.0).abs() < 1e-5);
        assert_eq!(cfg.class_weights[0], 1.0);
    }

    #[test]
    fn gradients_reach_every_component() {
        let (vocab, exs) = encoded(DatasetId::Wdc(
            emba_datagen::WdcCategory::Shoes,
            emba_datagen::WdcSize::Small,
        ));
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = DeepMatcher::new(vocab, DeepMatcherConfig::default(), &mut rng);
        let g = Graph::new();
        let out = model.forward_batch(&g, &[&exs[0]], true, &mut rng);
        let grads = g.backward(out.loss);
        model.zero_grads();
        model.accumulate_gradients(&grads);
        let mut groups = 0;
        let mut nonzero_groups = 0;
        model.visit(&mut |p| {
            groups += 1;
            if p.grad.norm() > 0.0 {
                nonzero_groups += 1;
            }
        });
        assert!(
            nonzero_groups as f64 >= groups as f64 * 0.8,
            "{nonzero_groups}/{groups} parameter tensors updated"
        );
    }

    #[test]
    fn empty_attribute_value_is_handled() {
        let (vocab, mut exs) = encoded(DatasetId::Wdc(
            emba_datagen::WdcCategory::Shoes,
            emba_datagen::WdcSize::Small,
        ));
        exs[0].left_attrs[0].1.clear();
        let mut rng = StdRng::seed_from_u64(3);
        let model = DeepMatcher::new(vocab, DeepMatcherConfig::default(), &mut rng);
        let g = Graph::new();
        let out = model.forward_batch(&g, &[&exs[0]], false, &mut rng);
        assert!(out.inference.match_probs[0].is_finite());
    }
}
