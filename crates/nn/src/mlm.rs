//! Masked-language-model pre-training for the miniature BERT encoder.
//!
//! The paper fine-tunes a *pre-trained* BERT; since no public checkpoint can
//! be used here, this module reproduces the pre-training protocol itself:
//! BERT's 15% masking rule (80% `[MASK]`, 10% random token, 10% unchanged)
//! with a GELU + LayerNorm + vocabulary-projection prediction head. This
//! module holds the model side — masking, the head, and the row-packed
//! masked forward pass; the training loop is `emba_core::Trainer`'s.

use emba_tensor::{Graph, Var};
use rand::Rng;

use crate::layers::{LayerNorm, Linear};
use crate::param::{Module, Param};
use crate::transformer::BertEncoder;

/// The transform head applied to masked positions before the vocabulary
/// projection, mirroring `BertLMPredictionHead`.
#[derive(Debug)]
pub struct MlmHead {
    transform: Linear,
    norm: LayerNorm,
    decoder: Linear,
}

impl MlmHead {
    /// Creates an MLM head for `hidden`-wide token states and `vocab` outputs.
    pub fn new<R: Rng + ?Sized>(hidden: usize, vocab: usize, rng: &mut R) -> Self {
        Self {
            transform: Linear::new(hidden, hidden, rng),
            norm: LayerNorm::new(hidden),
            decoder: Linear::new(hidden, vocab, rng),
        }
    }

    /// Projects `[k, hidden]` masked-position states to `[k, vocab]` logits.
    pub fn forward(&self, g: &Graph, states: Var) -> Var {
        let h = self.transform.forward(g, states);
        let h = g.gelu(h);
        let h = self.norm.forward(g, h);
        self.decoder.forward(g, h)
    }
}

impl Module for MlmHead {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.transform.visit(f);
        self.norm.visit(f);
        self.decoder.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.transform.visit_mut(f);
        self.norm.visit_mut(f);
        self.decoder.visit_mut(f);
    }
}

/// Masking settings.
#[derive(Debug, Clone, Copy)]
pub struct MlmConfig {
    /// Fraction of tokens selected for prediction (BERT uses 0.15).
    pub mask_prob: f32,
    /// Id of the `[MASK]` token.
    pub mask_token: usize,
    /// Ids below this value are special tokens and never masked.
    pub num_reserved: usize,
}

/// One masked training instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedExample {
    /// Token ids after masking.
    pub input: Vec<usize>,
    /// Positions whose original token must be predicted.
    pub positions: Vec<usize>,
    /// Original token ids at `positions`.
    pub targets: Vec<usize>,
}

/// Applies BERT's masking rule to one sequence. Special tokens (ids below
/// `num_reserved`) are never selected. Guarantees at least one masked
/// position whenever any position is maskable.
pub fn mask_sequence<R: Rng + ?Sized>(
    tokens: &[usize],
    cfg: &MlmConfig,
    vocab: usize,
    rng: &mut R,
) -> MaskedExample {
    let mut input = tokens.to_vec();
    let mut positions = Vec::new();
    let mut targets = Vec::new();
    for (i, &t) in tokens.iter().enumerate() {
        if t < cfg.num_reserved {
            continue;
        }
        if rng.gen::<f32>() < cfg.mask_prob {
            positions.push(i);
            targets.push(t);
            let roll: f32 = rng.gen();
            if roll < 0.8 {
                input[i] = cfg.mask_token;
            } else if roll < 0.9 {
                input[i] = rng.gen_range(cfg.num_reserved..vocab);
            } // else: keep the original token
        }
    }
    if positions.is_empty() {
        // Force one mask so every example contributes signal.
        if let Some((i, &t)) = tokens
            .iter()
            .enumerate()
            .find(|(_, &t)| t >= cfg.num_reserved)
        {
            positions.push(i);
            targets.push(t);
            input[i] = cfg.mask_token;
        }
    }
    MaskedExample {
        input,
        positions,
        targets,
    }
}

/// An encoder and its [`MlmHead`] as **one** [`Module`], so a training
/// loop clips and steps both with a single optimizer call.
pub struct MlmModel<'a> {
    /// The encoder being pre-trained.
    pub encoder: &'a mut BertEncoder,
    /// The prediction head, discarded after pre-training.
    pub head: MlmHead,
}

impl<'a> MlmModel<'a> {
    /// Pairs `encoder` with a freshly initialized head.
    pub fn new<R: Rng + ?Sized>(encoder: &'a mut BertEncoder, rng: &mut R) -> Self {
        let head = MlmHead::new(encoder.hidden(), encoder.config().vocab_size, rng);
        Self { encoder, head }
    }

    /// Masks every sequence afresh and runs them as one row-packed training
    /// pass. Returns the **summed** loss (Σ over sequences of the mean
    /// cross-entropy at that sequence's masked positions) and each
    /// sequence's loss value.
    ///
    /// # Panics
    ///
    /// Panics if `seqs` is empty or a sequence is empty, longer than the
    /// encoder's `max_len`, or has no maskable token.
    pub fn forward_batch<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        seqs: &[&[usize]],
        cfg: &MlmConfig,
        rng: &mut R,
    ) -> (Var, Vec<f32>) {
        let vocab = self.encoder.config().vocab_size;
        let masked: Vec<MaskedExample> =
            seqs.iter().map(|seq| mask_sequence(seq, cfg, vocab, rng)).collect();
        let segments = vec![0; seqs.iter().map(|seq| seq.len()).max().unwrap_or(0)];
        let batch: Vec<(&[usize], &[usize])> = masked
            .iter()
            .map(|m| (m.input.as_slice(), &segments[..m.input.len()]))
            .collect();
        let out = self.encoder.forward_batch(g, &batch, true, rng);
        let mut rows = Vec::new();
        for (i, m) in masked.iter().enumerate() {
            rows.extend(m.positions.iter().map(|&p| out.groups.start(i) + p));
        }
        let logits = self.head.forward(g, g.gather_rows(out.tokens, &rows));
        let mut total: Option<Var> = None;
        let mut losses = Vec::with_capacity(masked.len());
        let mut r0 = 0;
        for m in &masked {
            assert!(!m.positions.is_empty(), "sequence has no maskable token");
            let r1 = r0 + m.positions.len();
            let loss = g.cross_entropy(g.slice_rows(logits, r0, r1), &m.targets);
            losses.push(g.value(loss).item());
            total = Some(total.map_or(loss, |acc| g.add(acc, loss)));
            r0 = r1;
        }
        (total.expect("non-empty batch"), losses)
    }
}

impl Module for MlmModel<'_> {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.encoder.visit(f);
        self.head.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.encoder.visit_mut(f);
        self.head.visit_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> MlmConfig {
        MlmConfig {
            mask_prob: 0.3,
            mask_token: 1,
            num_reserved: 4,
        }
    }

    #[test]
    fn masking_never_touches_special_tokens() {
        let mut rng = StdRng::seed_from_u64(0);
        let tokens = vec![2, 10, 11, 3, 12, 13, 3];
        for _ in 0..50 {
            let m = mask_sequence(&tokens, &cfg(), 50, &mut rng);
            for &p in &m.positions {
                assert!(tokens[p] >= 4, "special token at {p} was masked");
            }
            // Targets record the ORIGINAL ids.
            for (&p, &t) in m.positions.iter().zip(&m.targets) {
                assert_eq!(tokens[p], t);
            }
        }
    }

    #[test]
    fn masking_forces_at_least_one_position() {
        let mut rng = StdRng::seed_from_u64(1);
        let tokens = vec![2, 10, 3];
        let never = MlmConfig {
            mask_prob: 0.0,
            ..cfg()
        };
        let m = mask_sequence(&tokens, &never, 50, &mut rng);
        assert_eq!(m.positions, vec![1]);
        assert_eq!(m.input[1], never.mask_token);
    }

    #[test]
    fn masking_rate_is_close_to_configured() {
        let mut rng = StdRng::seed_from_u64(2);
        let tokens: Vec<usize> = (4..1004).collect();
        let m = mask_sequence(&tokens, &cfg(), 2000, &mut rng);
        let rate = m.positions.len() as f32 / 1000.0;
        assert!((rate - 0.3).abs() < 0.06, "empirical rate {rate}");
    }

    #[test]
    fn batched_loss_sums_the_sequences_and_reaches_encoder_and_head() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut enc = BertEncoder::new(crate::BertConfig::tiny(50), &mut rng);
        let mut model = MlmModel::new(&mut enc, &mut rng);
        let seqs: [&[usize]; 3] = [&[2, 10, 11, 12, 3], &[2, 20, 3], &[2, 30, 31, 32, 33, 34, 3]];
        let g = Graph::new();
        let (loss, per_seq) = model.forward_batch(&g, &seqs, &cfg(), &mut rng);
        assert_eq!(per_seq.len(), 3);
        assert!((g.value(loss).item() - per_seq.iter().sum::<f32>()).abs() < 1e-4);
        model.accumulate_gradients(&g.backward(loss));
        let norm = |m: &dyn Module| {
            let mut sq = 0.0;
            m.visit(&mut |p| sq += p.grad.data().iter().map(|x| x * x).sum::<f32>());
            sq
        };
        assert!(norm(&*model.encoder) > 0.0 && norm(&model.head) > 0.0);
    }
}
