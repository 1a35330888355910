//! Word-level attention analysis (the paper's Figure 6).
//!
//! For transformer models the paper visualizes "the attention scores of
//! each word in the entity description", summing the multi-head attention
//! of the last layer over a split word's pieces (following Wolf et al.).
//! For EMBA the AOA γ vector additionally gives a direct importance
//! distribution over RECORD1's tokens.

use emba_core::{Prediction, TrainedMatcher};
use emba_datagen::Record;

use crate::align::{align_words, Side, WordSpan};

/// One word with an attention-derived importance score.
#[derive(Debug, Clone, PartialEq)]
pub struct WordScore {
    /// The surface word.
    pub word: String,
    /// Which record it belongs to.
    pub side: Side,
    /// Importance score (non-negative; relative within one analysis).
    pub score: f64,
}

/// Word-level attention received, from the summed last-layer self-attention:
/// each token's score is the total attention mass all positions direct at
/// it, and a word's score sums its pieces.
///
/// Returns `None` for attention-free models (fastText backbone).
pub fn attention_by_word(
    matcher: &TrainedMatcher,
    left: &Record,
    right: &Record,
) -> Option<Vec<WordScore>> {
    let pred = matcher.predict(left, right);
    let attn = pred.attention.as_ref()?;
    let spans = align_words(&matcher.pipeline, left, right, &pred.encoded.pair);

    // Column sums = attention received per position.
    let seq = attn.rows();
    let mut received = vec![0.0f64; seq];
    for r in 0..seq {
        for (c, total) in received.iter_mut().enumerate() {
            *total += f64::from(attn.get(r, c));
        }
    }
    Some(score_spans(&spans, &received))
}

/// Word-level AOA γ scores over RECORD1 (EMBA only): how much each RECORD1
/// word contributes to the pooled match representation.
///
/// Returns `None` for models without an AOA module.
pub fn gamma_by_word(
    matcher: &TrainedMatcher,
    left: &Record,
    right: &Record,
) -> Option<Vec<WordScore>> {
    let pred = matcher.predict(left, right);
    let gamma = pred.gamma.as_ref()?;
    let spans = align_words(&matcher.pipeline, left, right, &pred.encoded.pair);
    let offset = pred.encoded.pair.left.start;

    let scores: Vec<WordScore> = spans
        .into_iter()
        .filter(|s| s.side == Side::Left)
        .map(|s| {
            let score = s
                .positions
                .iter()
                .map(|&p| f64::from(gamma.get(p - offset, 0)))
                .sum();
            WordScore {
                word: s.word,
                side: s.side,
                score,
            }
        })
        .collect();
    Some(scores)
}

/// Convenience: both analyses plus the prediction, for report rendering.
pub struct AttentionAnalysis {
    /// The model's prediction on the pair.
    pub prediction: Prediction,
    /// Self-attention word scores (transformers only).
    pub attention: Option<Vec<WordScore>>,
    /// AOA γ word scores over RECORD1 (EMBA only).
    pub gamma: Option<Vec<WordScore>>,
}

/// Runs the full Figure 6 analysis for one pair.
pub fn analyze(matcher: &TrainedMatcher, left: &Record, right: &Record) -> AttentionAnalysis {
    AttentionAnalysis {
        prediction: matcher.predict(left, right),
        attention: attention_by_word(matcher, left, right),
        gamma: gamma_by_word(matcher, left, right),
    }
}

fn score_spans(spans: &[WordSpan], per_position: &[f64]) -> Vec<WordScore> {
    spans
        .iter()
        .map(|s| WordScore {
            word: s.word.clone(),
            side: s.side,
            score: s.positions.iter().map(|&p| per_position[p]).sum(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emba_core::{train_single, ExperimentConfig, ModelKind, PretrainCache, TrainConfig, Trainer};
    use emba_datagen::{build, DatasetId, Scale, WdcCategory, WdcSize};

    fn trained(kind: ModelKind) -> (TrainedMatcher, Record, Record) {
        let ds = build(
            DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small),
            Scale::TEST,
            6,
        );
        let cfg = ExperimentConfig {
            vocab_size: 400,
            max_len: 48,
            train: TrainConfig {
                epochs: 1,
                batch_size: 4,
                ..TrainConfig::default()
            },
            mlm_epochs: 0,
            runs: 1,
            ..ExperimentConfig::default()
        };
        let (m, _) =
            train_single(kind, &ds, &cfg, 1, &mut PretrainCache::new(), &mut Trainer::quiet()).unwrap();
        let p = ds.test[0].clone();
        (m, p.left, p.right)
    }

    #[test]
    fn emba_sb_exposes_both_analyses() {
        let (m, l, r) = trained(ModelKind::EmbaSb);
        let analysis = analyze(&m, &l, &r);
        let attn = analysis.attention.expect("transformer attention");
        assert!(!attn.is_empty());
        assert!(attn.iter().all(|w| w.score >= 0.0));
        let gamma = analysis.gamma.expect("EMBA gamma");
        assert!(gamma.iter().all(|w| w.side == Side::Left));
        // γ word scores sum to ≤ 1 (equality when nothing is truncated).
        let total: f64 = gamma.iter().map(|w| w.score).sum();
        assert!(total <= 1.0 + 1e-4 && total > 0.2, "gamma total {total}");
    }

    #[test]
    fn aoa_matrices_are_stochastic_on_fixed_seed_inputs() {
        // The dumped AOA intermediates must keep their softmax structure:
        // α column-stochastic (Eq. 1), β row-stochastic (Eq. 2), γ a single
        // distribution over RECORD1 tokens.
        use emba_core::aoa::attention_over_attention;
        use emba_tensor::{Graph, Tensor};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(42);
        let e1 = Tensor::rand_normal(6, 8, 0.0, 1.0, &mut rng);
        let e2 = Tensor::rand_normal(4, 8, 0.0, 1.0, &mut rng);
        let g = Graph::new();
        let out = attention_over_attention(&g, g.leaf(e1), g.leaf(e2));

        let alpha = g.value(out.alpha);
        assert_eq!(alpha.shape(), (6, 4));
        for c in 0..4 {
            let col: f64 = (0..6).map(|r| f64::from(alpha.get(r, c))).sum();
            assert!((col - 1.0).abs() < 1e-4, "alpha column {c} sums to {col}");
        }
        let beta = g.value(out.beta);
        assert_eq!(beta.shape(), (6, 4));
        for r in 0..6 {
            let row: f64 = beta.row_slice(r).iter().map(|&v| f64::from(v)).sum();
            assert!((row - 1.0).abs() < 1e-4, "beta row {r} sums to {row}");
        }
        assert!(alpha.data().iter().chain(beta.data()).all(|&v| v >= 0.0));

        let gamma = g.value(out.gamma);
        let total: f64 = gamma.data().iter().map(|&v| f64::from(v)).sum();
        assert!((total - 1.0).abs() < 1e-4, "gamma sums to {total}");
        assert!(gamma.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn trained_model_dumps_a_stochastic_gamma() {
        // End-to-end on a trained (fixed-seed) model: the γ the matcher
        // dumps for explanations is a distribution over RECORD1 tokens.
        let (m, l, r) = trained(ModelKind::EmbaSb);
        let pred = m.predict(&l, &r);
        let gamma = pred.gamma.expect("EMBA dumps gamma");
        assert_eq!(gamma.cols(), 1);
        assert!(gamma.rows() > 0);
        let total: f64 = gamma.data().iter().map(|&v| f64::from(v)).sum();
        assert!((total - 1.0).abs() < 1e-3, "dumped gamma sums to {total}");
        assert!(gamma.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn attention_mass_matches_sequence_total() {
        // Column sums over a row-stochastic-per-head summed matrix total
        // seq * heads; word scores are a partition of the content columns.
        let (m, l, r) = trained(ModelKind::EmbaSb);
        let pred = m.predict(&l, &r);
        let attn = pred.attention.unwrap();
        let scores = attention_by_word(&m, &l, &r).unwrap();
        let word_total: f64 = scores.iter().map(|w| w.score).sum();
        let full_total: f64 = attn.data().iter().map(|&v| f64::from(v)).sum();
        assert!(word_total <= full_total + 1e-3);
        assert!(word_total > 0.0);
    }
}
