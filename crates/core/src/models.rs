//! The matcher models: EMBA, JointBERT, the ablation variants, and the
//! single-task transformer baselines, unified behind one parameterized
//! architecture.
//!
//! Every model in the paper's Tables 2 and 4 (except DeepMatcher, which has
//! its own RNN architecture in [`crate::deepmatcher`]) is a transformer
//! encoder plus a choice of (a) how the *EM* representation is built and
//! (b) how the *auxiliary entity-ID* representations are built:
//!
//! | Model          | EM input                  | Aux input                |
//! |----------------|---------------------------|--------------------------|
//! | EMBA           | AOA over token reps       | learned token aggregation|
//! | EMBA-CLS       | AOA                       | `[CLS]`                  |
//! | EMBA-SurfCon   | SurfCon context matching  | learned token aggregation|
//! | JointBERT      | `[CLS]`                   | `[CLS]` for both         |
//! | JointBERT-S    | `[CLS]`                   | `[CLS]` / first `[SEP]`  |
//! | JointBERT-T    | averaged tokens           | averaged tokens          |
//! | JointBERT-CT   | `[CLS]`                   | averaged tokens          |
//! | BERT / RoBERTa / DITTO | `[CLS]`           | none (single task)       |
//! | JointMatcher   | `[CLS]` ‖ relevance ‖ numeric pools | none           |

use emba_nn::eval::{Exec, Ops, Tape};
use emba_nn::{GraphStamp, Module};
use emba_tensor::{backend, prof, BackendKind, Graph, RowGroups, Tensor, Var};
use rand::RngCore;

use crate::backbone::Backbone;
use crate::heads::{MatchHead, TokenAggregationHead};
use crate::pipeline::EncodedExample;

/// How the EM (binary match) representation is assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmStrategy {
    /// The pooled `[CLS]` representation (JointBERT and the single-task
    /// baselines).
    Cls,
    /// Attention-over-attention over the two records' token reps (EMBA).
    Aoa,
    /// Concatenated per-record token averages (JointBERT-T).
    TokenAvgConcat,
    /// SurfCon-style single-level context matching (the EMBA-SurfCon
    /// ablation): each RECORD1 token attends once over RECORD2, and the
    /// gated context is mean-pooled. One attention level instead of two.
    SurfCon,
    /// JointMatcher-style: `[CLS]` concatenated with a relevance pool (mean
    /// of tokens whose id occurs in both records) and a numeric pool (mean
    /// of digit-bearing tokens).
    RelevanceNumeric,
}

/// How the auxiliary entity-ID representations are assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuxStrategy {
    /// No auxiliary tasks (single-task models).
    None,
    /// `[CLS]` for both tasks (JointBERT).
    Cls,
    /// `[CLS]` for the first task, the first `[SEP]` for the second
    /// (JointBERT-S).
    ClsSep,
    /// Mean of each record's token reps (JointBERT-T / -CT).
    TokenAvg,
    /// EMBA's learned token aggregation.
    TokenAttention,
}

/// Output of one batched matcher forward pass over `B` examples.
pub struct BatchOutput {
    /// **Summed** training loss over the batch (Σ of per-example Eq. 3
    /// losses), so gradient accumulation across sub-batches of an optimizer
    /// window matches per-example accumulation exactly.
    pub loss: Var,
    /// Per-example loss values (computed off-tape from the logits), for
    /// epoch bookkeeping and non-finite aborts.
    pub example_losses: Vec<f32>,
    /// What [`Matcher::infer_batch`] returns for the same examples.
    pub inference: Inference,
}

/// What one inference call over `B` examples returns.
#[derive(Default)]
pub struct Inference {
    /// Per-example match probabilities; NaN where the match logit is not
    /// finite.
    pub match_probs: Vec<f32>,
    /// Per-example RECORD1 entity-ID predictions (multi-task models only).
    pub id1_preds: Option<Vec<usize>>,
    /// Per-example RECORD2 entity-ID predictions.
    pub id2_preds: Option<Vec<usize>>,
    /// Summed last-layer self-attention, populated only for `B = 1` (the
    /// visualizations inspect one example at a time).
    pub attention: Option<Tensor>,
    /// AOA γ over RECORD1 tokens, populated only for `B = 1`.
    pub gamma: Option<Tensor>,
}

/// Object-safe interface every matcher implements.
///
/// Training runs [`Matcher::forward_batch`] on the autodiff tape; joint
/// inference ([`crate::evaluate`], [`crate::TrainedMatcher::predict_batch`])
/// runs [`Matcher::infer_batch`], which returns the same probabilities bit
/// for bit; the split path encodes records once with
/// [`Matcher::encode_records`] and pairs them with [`Matcher::score_pairs`],
/// each under the backend it is handed. A matcher is `Sync`: a two-lane
/// [`crate::PairScorer`] runs the split path on two threads at once.
pub trait Matcher: Module + Sync {
    /// Runs a mini-batch of examples through the model on one shared tape,
    /// returning the **summed** loss: the training path, and the oracle
    /// [`Matcher::infer_batch`] is held to. [`TransformerMatcher`] runs one
    /// row-packed batched pass; [`crate::DeepMatcher`] loops its examples.
    fn forward_batch(
        &self,
        g: &Graph,
        exs: &[&EncodedExample],
        train: bool,
        rng: &mut dyn RngCore,
    ) -> BatchOutput;

    /// Scores a batch of examples in eval mode (no dropout, no loss): the
    /// probabilities, ID predictions and `B = 1` visualizations
    /// [`Matcher::forward_batch`] returns with `train = false`, bit for bit,
    /// whatever the batch's composition.
    ///
    /// Eval mode draws no randomness, so this takes no RNG. The default
    /// implementation runs exactly that on a fresh tape.
    /// [`TransformerMatcher`] runs its backbone and heads forward only,
    /// under the thread's installed backend, with no tape.
    fn infer_batch(&self, exs: &[&EncodedExample]) -> Inference {
        let g = Graph::new();
        let inference = self.forward_batch(&g, exs, false, &mut NoDraws).inference;
        g.recycle();
        inference
    }

    /// Encodes standalone records for the encode-once split path under
    /// `backend`: each record is framed as `[CLS] ids [SEP]` (segment 0) and
    /// run through the backbone in eval mode; the returned tensors are the
    /// `[mᵢ, h]` content-token representations `E`, owned, so they can be
    /// cached. Returns `None` when the model has no split path (its pair
    /// representation is not a pure function of per-record encodings).
    fn encode_records(&self, _records: &[&[usize]], _backend: BackendKind) -> Option<Vec<Tensor>> {
        None
    }

    /// Scores candidate pairs of cached per-record encodings under `backend`
    /// through the pair-combination module and match head only — no
    /// backbone work. Probabilities match [`Matcher::forward_batch`]'s for
    /// the same token representations. Returns `None` when unsupported (see
    /// [`Matcher::encode_records`]).
    fn score_pairs(&self, _pairs: &[(&Tensor, &Tensor)], _backend: BackendKind) -> Option<Vec<f32>> {
        None
    }

    /// [`Matcher::encode_records`] under the backend installed on this
    /// thread. `_g` and `_stamp` are unused and stay only because the frozen
    /// `benchmark/` calls this signature.
    fn encode_records_standalone(
        &self,
        _g: &Graph,
        _stamp: GraphStamp,
        records: &[&[usize]],
    ) -> Option<Vec<Tensor>> {
        self.encode_records(records, backend::kind())
    }

    /// [`Matcher::score_pairs`] under the backend installed on this thread;
    /// `_g` and `_stamp` stay as in [`Matcher::encode_records_standalone`].
    fn score_encoded_pairs(
        &self,
        _g: &Graph,
        _stamp: GraphStamp,
        pairs: &[(&Tensor, &Tensor)],
    ) -> Option<Vec<f32>> {
        self.score_pairs(pairs, backend::kind())
    }

    /// Short display name (e.g. `"EMBA"`, `"JointBERT-S"`).
    fn name(&self) -> &str;

    /// Mutable access to a BERT backbone for MLM pre-training, when the
    /// model has one.
    fn bert_backbone_mut(&mut self) -> Option<&mut emba_nn::BertEncoder>;

    /// Mutable access to a fastText-style subword embedding table for
    /// skip-gram pre-training, when the model has one.
    fn fasttext_embedding_mut(&mut self) -> Option<&mut emba_nn::Embedding> {
        None
    }
}

/// The unified transformer matcher.
pub struct TransformerMatcher {
    name: String,
    backbone: Backbone,
    em: EmStrategy,
    aux: AuxStrategy,
    match_head: MatchHead,
    id1_head: Option<TokenAggregationHead>,
    id2_head: Option<TokenAggregationHead>,
    /// `numeric[token_id]` — whether the subword contains a digit. Present
    /// only for the RelevanceNumeric strategy.
    numeric_vocab: Option<Vec<bool>>,
}

impl TransformerMatcher {
    /// Builds a matcher.
    ///
    /// `num_classes` sizes the auxiliary heads (ignored when
    /// `aux == AuxStrategy::None`). `numeric_vocab` is required for
    /// [`EmStrategy::RelevanceNumeric`].
    ///
    /// # Panics
    ///
    /// Panics if the strategy combination is inconsistent.
    pub fn new<R: rand::Rng + ?Sized>(
        name: impl Into<String>,
        backbone: Backbone,
        em: EmStrategy,
        aux: AuxStrategy,
        num_classes: usize,
        numeric_vocab: Option<Vec<bool>>,
        rng: &mut R,
    ) -> Self {
        let h = backbone.hidden();
        let match_dim = match em {
            EmStrategy::Cls | EmStrategy::Aoa => h,
            EmStrategy::TokenAvgConcat | EmStrategy::SurfCon => 2 * h,
            EmStrategy::RelevanceNumeric => 3 * h,
        };
        assert!(
            em != EmStrategy::RelevanceNumeric || numeric_vocab.is_some(),
            "RelevanceNumeric requires a numeric-token vocabulary table"
        );
        let (id1_head, id2_head) = if aux == AuxStrategy::None {
            (None, None)
        } else {
            assert!(num_classes >= 2, "auxiliary heads need >= 2 classes");
            (
                Some(TokenAggregationHead::new(h, num_classes, rng)),
                Some(TokenAggregationHead::new(h, num_classes, rng)),
            )
        };
        Self {
            name: name.into(),
            backbone,
            em,
            aux,
            match_head: MatchHead::new(match_dim, rng),
            id1_head,
            id2_head,
            numeric_vocab,
        }
    }

    /// Mean pool of positions (given as absolute row indices); falls back to
    /// the mean over `range` when `positions` is empty.
    fn pool_positions<O: Ops>(
        o: &mut O,
        tokens: &O::V,
        positions: &[usize],
        fallback: &std::ops::Range<usize>,
    ) -> O::V {
        if positions.is_empty() {
            let slice = o.slice_rows(tokens, fallback.start, fallback.end);
            return o.mean_axis0(&slice);
        }
        let rows: Vec<O::V> = positions
            .iter()
            .map(|&p| o.slice_rows(tokens, p, p + 1))
            .collect();
        let stacked = o.concat_rows(&rows);
        o.mean_axis0(&stacked)
    }

    /// Whether a head reads the pooled `[CLS]` form.
    fn reads_cls(&self) -> bool {
        matches!(self.em, EmStrategy::Cls | EmStrategy::RelevanceNumeric)
            || matches!(self.aux, AuxStrategy::Cls | AuxStrategy::ClsSep)
    }

    /// Whether a head reads each record's own token rows.
    fn reads_records(&self) -> bool {
        matches!(self.em, EmStrategy::Aoa | EmStrategy::TokenAvgConcat | EmStrategy::SurfCon)
            || matches!(self.aux, AuxStrategy::TokenAvg | AuxStrategy::TokenAttention)
    }

    /// Every EM and aux head over the packed `[ΣT, h]` token rows of `exs`,
    /// laid out by `groups`, run by `o` — the one place their arithmetic
    /// lives: training records it on the tape after the backbone, inference
    /// runs it forward only. Returns the answers read back (no attention)
    /// and the logits a loss reads.
    fn heads<O: Ops>(
        &self,
        o: &mut O,
        tokens: &O::V,
        groups: &RowGroups,
        exs: &[&EncodedExample],
    ) -> (Inference, Logits<O::V>) {
        let b = exs.len();
        // Only the strategies that read `[CLS]` run the pooler. It is
        // recorded ahead of the per-record gathers because the backward
        // sweep sums `tokens`' gradient over its readers in tape order:
        // moving it would change a `[CLS]` model's training bits.
        let pooled = self.reads_cls().then(|| self.backbone.pool(o, tokens, groups));
        let cls = || pooled.as_ref().expect("reads_cls covers every [CLS] reader");

        // Row-packed per-record token matrices, gathered only for the heads
        // that read them: one strided gather per side for the whole batch
        // instead of two `slice_rows` per example.
        let sides = self.reads_records().then(|| {
            let mut left_rows = Vec::new();
            let mut right_rows = Vec::new();
            let mut left_lens = Vec::with_capacity(b);
            let mut right_lens = Vec::with_capacity(b);
            for (i, ex) in exs.iter().enumerate() {
                let s = groups.start(i);
                left_rows.extend(ex.pair.left.clone().map(|p| s + p));
                right_rows.extend(ex.pair.right.clone().map(|p| s + p));
                left_lens.push(ex.pair.left.len());
                right_lens.push(ex.pair.right.len());
            }
            let e1 = o.gather_rows(tokens, &left_rows);
            let e2 = o.gather_rows(tokens, &right_rows);
            (e1, RowGroups::from_lens(&left_lens), e2, RowGroups::from_lens(&right_lens))
        });
        let records = || sides.as_ref().expect("reads_records covers every record reader");

        // ----- EM representation (`None`: the pooled `[CLS]`) ---------------------
        let mut gamma = None;
        let em_repr = match self.em {
            EmStrategy::Cls => None,
            EmStrategy::Aoa => {
                let _scope = prof::scope("aoa");
                let (e1, g1, e2, g2) = records();
                let (pooled, pair_gamma) = o.aoa_pool(e1, g1, e2, g2);
                gamma = Some(pair_gamma);
                Some(pooled)
            }
            EmStrategy::TokenAvgConcat => {
                let (e1, g1, e2, g2) = records();
                let m1 = o.mean_rows_grouped(e1, g1);
                let m2 = o.mean_rows_grouped(e2, g2);
                Some(o.concat_cols(&[m1, m2]))
            }
            EmStrategy::SurfCon => {
                // The gated single-level matcher has no grouped kernel; the
                // pairs still share one backbone pass and are looped here.
                let (e1, g1, e2, g2) = records();
                let mut rows = Vec::with_capacity(b);
                for i in 0..b {
                    let (l0, l1) = g1.range(i);
                    let (r0, r1) = g2.range(i);
                    let e1i = o.slice_rows(e1, l0, l1);
                    let e2i = o.slice_rows(e2, r0, r1);
                    let interaction = o.matmul_nt(&e1i, &e2i);
                    let attn = o.softmax_rows(interaction);
                    let context = o.matmul(&attn, &e2i); // [m, h]
                    let gated = o.mul(&e1i, &context);
                    let matched = o.mean_axis0(&gated);
                    let own = o.mean_axis0(&e1i);
                    rows.push(o.concat_cols(&[matched, own]));
                }
                Some(o.concat_rows(&rows))
            }
            EmStrategy::RelevanceNumeric => {
                let numeric = self
                    .numeric_vocab
                    .as_ref()
                    .expect("numeric vocab checked at construction");
                let mut rows = Vec::with_capacity(b);
                for (i, ex) in exs.iter().enumerate() {
                    let pair = &ex.pair;
                    let s = groups.start(i);
                    let left_ids: std::collections::HashSet<usize> =
                        pair.ids[pair.left.clone()].iter().copied().collect();
                    let right_ids: std::collections::HashSet<usize> =
                        pair.ids[pair.right.clone()].iter().copied().collect();
                    let mut relevant = Vec::new();
                    let mut numeric_pos = Vec::new();
                    for range in [pair.left.clone(), pair.right.clone()] {
                        for p in range {
                            let id = pair.ids[p];
                            if left_ids.contains(&id) && right_ids.contains(&id) {
                                relevant.push(s + p);
                            }
                            if numeric.get(id).copied().unwrap_or(false) {
                                numeric_pos.push(s + p);
                            }
                        }
                    }
                    let full = (s + pair.left.start)..(s + pair.right.end);
                    let rel_pool = Self::pool_positions(o, tokens, &relevant, &full);
                    let num_pool = Self::pool_positions(o, tokens, &numeric_pos, &full);
                    let pooled_i = o.slice_rows(cls(), i, i + 1);
                    rows.push(o.concat_cols(&[pooled_i, rel_pool, num_pool]));
                }
                Some(o.concat_rows(&rows))
            }
        };
        let em = self.match_head.forward(o, em_repr.as_ref().unwrap_or_else(cls)); // [B, 1]

        // ----- auxiliary entity-ID tasks -----------------------------------------
        let ids = (self.aux != AuxStrategy::None).then(|| {
            let id1 = self.id1_head.as_ref().expect("aux heads exist");
            let id2 = self.id2_head.as_ref().expect("aux heads exist");
            match self.aux {
                AuxStrategy::None => unreachable!(),
                AuxStrategy::Cls => (
                    id1.classify_pooled(o, cls()),
                    id2.classify_pooled(o, cls()),
                ),
                AuxStrategy::ClsSep => {
                    // Each first [SEP] sits immediately after its left record.
                    let seps: Vec<usize> = exs
                        .iter()
                        .enumerate()
                        .map(|(i, ex)| groups.start(i) + ex.pair.left.end)
                        .collect();
                    let sep = o.gather_rows(tokens, &seps);
                    (
                        id1.classify_pooled(o, cls()),
                        id2.classify_pooled(o, &sep),
                    )
                }
                AuxStrategy::TokenAvg => {
                    let (e1, g1, e2, g2) = records();
                    let m1 = o.mean_rows_grouped(e1, g1);
                    let logits1 = id1.classify_pooled(o, &m1);
                    let m2 = o.mean_rows_grouped(e2, g2);
                    (logits1, id2.classify_pooled(o, &m2))
                }
                AuxStrategy::TokenAttention => {
                    let (e1, g1, e2, g2) = records();
                    (id1.forward_batch(o, e1, g1), id2.forward_batch(o, e2, g2))
                }
            }
        });
        let (id1_preds, id2_preds) = ids.as_ref().map(|(l1, l2)| (o.read(l1).argmax_rows(), o.read(l2).argmax_rows())).unzip();
        let inference = Inference {
            match_probs: match_probs(o.read(&em).data()),
            id1_preds,
            id2_preds,
            attention: None,
            // γ is a visualization: only a batch of one keeps it.
            gamma: gamma.filter(|_| b == 1),
        };
        (inference, (em, ids))
    }
}

/// `[B, 1]` match logits and, for multi-task models, the `[B, classes]`
/// RECORD1 and RECORD2 entity-ID logits.
type Logits<V> = (V, Option<(V, V)>);

impl Matcher for TransformerMatcher {
    fn forward_batch(
        &self,
        g: &Graph,
        exs: &[&EncodedExample],
        train: bool,
        rng: &mut dyn RngCore,
    ) -> BatchOutput {
        assert!(!exs.is_empty(), "cannot run an empty batch");
        let b = exs.len();
        let tape = &mut Tape::new(g, train.then_some(rng));
        let (tokens, groups, last_attention) = self.backbone.encode(tape, &pair_seqs(exs));
        let (mut inference, (em, ids)) = self.heads(tape, &tokens, &groups, exs);

        let targets: Vec<f32> = exs
            .iter()
            .map(|ex| if ex.is_match { 1.0 } else { 0.0 })
            .collect();
        // `bce_with_logits` averages over rows; rescale to the summed loss.
        let mut loss = g.scale(g.bce_with_logits(em, &targets), b as f32);
        let logit_v = g.value(em);
        let mut example_losses: Vec<f32> = (0..b)
            .map(|r| bce_loss_value(logit_v.get(r, 0), targets[r]))
            .collect();
        if let Some((logits1, logits2)) = ids {
            let c1: Vec<usize> = exs.iter().map(|ex| ex.left_class).collect();
            let c2: Vec<usize> = exs.iter().map(|ex| ex.right_class).collect();
            let ce1 = g.scale(g.cross_entropy(logits1, &c1), b as f32);
            let ce2 = g.scale(g.cross_entropy(logits2, &c2), b as f32);
            loss = g.add(loss, g.add(ce1, ce2));
            let v1 = g.value(logits1);
            let v2 = g.value(logits2);
            for r in 0..b {
                example_losses[r] +=
                    ce_loss_value(v1.row_slice(r), c1[r]) + ce_loss_value(v2.row_slice(r), c2[r]);
            }
        }

        // The visualization outputs inspect one example at a time; only a
        // batch of one materializes them.
        inference.attention = (b == 1 && !last_attention.is_empty())
            .then(|| emba_nn::MultiHeadAttention::summed_probs(g, &last_attention));
        BatchOutput { loss, example_losses, inference }
    }

    /// The backbone and the heads run forward only on one [`Exec`], under
    /// the backend installed on this thread (read once, here): the
    /// definitions [`Matcher::forward_batch`] records, on the same values,
    /// with no tape.
    fn infer_batch(&self, exs: &[&EncodedExample]) -> Inference {
        assert!(!exs.is_empty(), "cannot run an empty batch");
        let ex = &mut Exec::new(backend::kind());
        let (tokens, groups, attention) = self.backbone.encode_eval(ex, &pair_seqs(exs));
        let (inference, _) = self.heads(ex, &tokens, &groups, exs);
        Inference { attention, ..inference }
    }

    /// Runs [`Backbone::encode_eval`] — the forward-only encoder — on an
    /// [`Exec`] under `backend`.
    fn encode_records(&self, records: &[&[usize]], backend: BackendKind) -> Option<Vec<Tensor>> {
        if self.em != EmStrategy::Aoa {
            return None;
        }
        if records.is_empty() {
            return Some(Vec::new());
        }
        // `[CLS] ids [SEP]`, all segment 0 — the standalone-record frame the
        // MLM corpus also uses.
        let framed: Vec<Vec<usize>> = records
            .iter()
            .map(|ids| {
                let mut seq = Vec::with_capacity(ids.len() + 2);
                seq.push(emba_tokenizer::special::CLS);
                seq.extend_from_slice(ids);
                seq.push(emba_tokenizer::special::SEP);
                seq
            })
            .collect();
        let zeros = vec![0usize; framed.iter().map(Vec::len).max().unwrap_or(0)];
        let seqs: Vec<(&[usize], &[usize])> =
            framed.iter().map(|ids| (&ids[..], &zeros[..ids.len()])).collect();
        let (tokens, groups, _) = self.backbone.encode_eval(&mut Exec::new(backend), &seqs);
        // Each record's content rows (specials stripped) into a tensor of its
        // own, which the caller may cache.
        let h = tokens.shape().1;
        let encodings = records
            .iter()
            .enumerate()
            .map(|(i, ids)| {
                let content = groups.start(i) + 1; // skip [CLS]
                let data =
                    tokens.data()[content * h..(content + ids.len()) * h].to_vec();
                Tensor::from_vec(ids.len(), h, data)
            })
            .collect();
        Some(encodings)
    }

    /// The AOA pooling and match head of [`TransformerMatcher`]'s heads, run
    /// forward only on an [`Exec`] under `backend`: the pooling reads the
    /// cached encodings where they lie ([`Exec::aoa_pool_pairs`]), and the
    /// logits are read back as the joint path reads them.
    fn score_pairs(&self, pairs: &[(&Tensor, &Tensor)], backend: BackendKind) -> Option<Vec<f32>> {
        if self.em != EmStrategy::Aoa {
            return None;
        }
        if pairs.is_empty() {
            return Some(Vec::new());
        }
        let _scope = prof::scope("score_pairs");
        let ex = &mut Exec::new(backend);
        let pooled = {
            let _scope = prof::scope("aoa");
            let operands: Vec<(&[f32], &[f32])> = pairs.iter().map(|(a, b)| (a.data(), b.data())).collect();
            ex.aoa_pool_pairs(&operands, self.match_head.dim(), None)
        };
        Some(match_probs(self.match_head.forward(ex, &pooled).data()))
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn bert_backbone_mut(&mut self) -> Option<&mut emba_nn::BertEncoder> {
        self.backbone.bert_mut()
    }

    fn fasttext_embedding_mut(&mut self) -> Option<&mut emba_nn::Embedding> {
        self.backbone.fasttext_mut().map(|ft| ft.embedding_mut())
    }
}

emba_nn::module_params!(TransformerMatcher: backbone, match_head, id1_head, id2_head);

/// The RNG an eval-mode [`Matcher::forward_batch`] is handed: eval mode
/// skips dropout and draws nothing, and a draw here would be a bug.
struct NoDraws;

impl RngCore for NoDraws {
    fn next_u32(&mut self) -> u32 {
        unreachable!("eval mode draws no randomness")
    }
    fn next_u64(&mut self) -> u64 {
        unreachable!("eval mode draws no randomness")
    }
}

/// Each example's joint `(ids, segments)` sequence.
fn pair_seqs<'a>(exs: &[&'a EncodedExample]) -> Vec<(&'a [usize], &'a [usize])> {
    exs.iter().map(|ex| (&ex.pair.ids[..], &ex.pair.segments[..])).collect()
}

/// Match probabilities of match logits: the one read-back of the match
/// head, joint and split. A non-finite logit reads NaN: sigmoid saturates ±∞
/// to a confident 0.0/1.0, so corrupted weights (NaN/Inf anywhere upstream)
/// could otherwise leak out as plausible-looking probabilities, where NaN
/// lets the serving boundary fail the request instead of answering it.
fn match_probs(logits: &[f32]) -> Vec<f32> {
    logits.iter().map(|&z| if z.is_finite() { 1.0 / (1.0 + (-z).exp()) } else { f32::NAN }).collect()
}

/// Stable single-logit BCE (same formula as `Graph::bce_with_logits`), used
/// to report per-example losses off-tape.
fn bce_loss_value(z: f32, y: f32) -> f32 {
    z.max(0.0) - z * y + (-z.abs()).exp().ln_1p()
}

/// Stable per-row cross-entropy from raw logits, used to report per-example
/// losses off-tape.
fn ce_loss_value(row: &[f32], target: usize) -> f32 {
    let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let lse = mx + row.iter().map(|&x| (x - mx).exp()).sum::<f32>().ln();
    lse - row[target]
}

/// Builds the digit-bearing-subword lookup table for JointMatcher's numeric
/// encoder.
pub fn numeric_vocab_table(tokenizer: &emba_tokenizer::WordPieceTokenizer) -> Vec<bool> {
    (0..tokenizer.vocab_size())
        .map(|id| tokenizer.token(id).chars().any(|c| c.is_ascii_digit()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineConfig, TextPipeline};
    use emba_datagen::{build, DatasetId, Scale, WdcCategory, WdcSize};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_backbone(rng: &mut StdRng) -> Backbone {
        Backbone::from_bert_config(emba_nn::BertConfig::tiny(400), true, rng)
    }

    fn example() -> (TextPipeline, EncodedExample, usize) {
        let ds = build(
            DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small),
            Scale::TEST,
            5,
        );
        let pipe = TextPipeline::fit(
            &ds,
            PipelineConfig {
                vocab_size: 400,
                max_len: 32,
                ..PipelineConfig::default()
            },
        );
        let ex = pipe.encode_example(&ds.train[0]);
        (pipe, ex, ds.num_classes)
    }

    fn run(em: EmStrategy, aux: AuxStrategy) -> BatchOutput {
        let (pipe, ex, classes) = example();
        let mut rng = StdRng::seed_from_u64(1);
        let numeric = (em == EmStrategy::RelevanceNumeric)
            .then(|| numeric_vocab_table(pipe.tokenizer()));
        let model = TransformerMatcher::new(
            "test",
            tiny_backbone(&mut rng),
            em,
            aux,
            classes,
            numeric,
            &mut rng,
        );
        let g = Graph::new();
        model.forward_batch(&g, &[&ex], false, &mut rng)
    }

    #[test]
    fn every_strategy_combination_runs() {
        for em in [
            EmStrategy::Cls,
            EmStrategy::Aoa,
            EmStrategy::TokenAvgConcat,
            EmStrategy::SurfCon,
            EmStrategy::RelevanceNumeric,
        ] {
            let out = run(em, AuxStrategy::None);
            assert!(out.inference.match_probs[0].is_finite() && (0.0..=1.0).contains(&out.inference.match_probs[0]));
            assert!(out.inference.id1_preds.is_none());
        }
        for aux in [
            AuxStrategy::Cls,
            AuxStrategy::ClsSep,
            AuxStrategy::TokenAvg,
            AuxStrategy::TokenAttention,
        ] {
            let out = run(EmStrategy::Cls, aux);
            assert!(out.inference.id1_preds.is_some() && out.inference.id2_preds.is_some());
        }
    }

    #[test]
    fn aoa_exposes_gamma_over_record1() {
        let out = run(EmStrategy::Aoa, AuxStrategy::TokenAttention);
        let gamma = out.inference.gamma.expect("AOA must expose gamma");
        let total: f32 = gamma.data().iter().sum();
        assert!((total - 1.0).abs() < 1e-3);
    }

    #[test]
    fn non_aoa_has_no_gamma() {
        assert!(run(EmStrategy::Cls, AuxStrategy::Cls).inference.gamma.is_none());
    }

    #[test]
    fn bert_models_expose_attention() {
        let out = run(EmStrategy::Cls, AuxStrategy::None);
        let attn = out.inference.attention.expect("transformer exposes attention");
        assert_eq!(attn.rows(), attn.cols());
    }

    #[test]
    fn multitask_loss_exceeds_single_task_loss() {
        // Same example, same seed: Eq. 3 adds two CE terms, so the
        // multi-task loss is strictly larger at initialization.
        let (pipe, ex, classes) = example();
        let _ = pipe;
        let mut rng = StdRng::seed_from_u64(2);
        let single = TransformerMatcher::new(
            "s",
            tiny_backbone(&mut rng),
            EmStrategy::Cls,
            AuxStrategy::None,
            classes,
            None,
            &mut rng,
        );
        let mut rng2 = StdRng::seed_from_u64(2);
        let multi = TransformerMatcher::new(
            "m",
            tiny_backbone(&mut rng2),
            EmStrategy::Cls,
            AuxStrategy::Cls,
            classes,
            None,
            &mut rng2,
        );
        let g = Graph::new();
        let ls = single.forward_batch(&g, &[&ex], false, &mut rng);
        let lm = multi.forward_batch(&g, &[&ex], false, &mut rng2);
        assert!(g.value(lm.loss).item() > g.value(ls.loss).item());
    }

    #[test]
    fn gradients_reach_aux_heads_only_in_multitask() {
        let (_, ex, classes) = example();
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = TransformerMatcher::new(
            "m",
            tiny_backbone(&mut rng),
            EmStrategy::Aoa,
            AuxStrategy::TokenAttention,
            classes,
            None,
            &mut rng,
        );
        let g = Graph::new();
        let out = model.forward_batch(&g, &[&ex], false, &mut rng);
        let grads = g.backward(out.loss);
        model.zero_grads();
        model.accumulate_gradients(&grads);
        let mut nonzero = 0usize;
        let mut total = 0usize;
        model.visit(&mut |p| {
            total += 1;
            if p.grad.norm() > 0.0 {
                nonzero += 1;
            }
        });
        assert!(
            nonzero as f64 > total as f64 * 0.9,
            "only {nonzero}/{total} params received gradient"
        );
    }

    #[test]
    fn standalone_encoding_records_no_tape_node() {
        let (_, _, classes) = example();
        let mut rng = StdRng::seed_from_u64(4);
        let model = TransformerMatcher::new("emba", tiny_backbone(&mut rng), EmStrategy::Aoa, AuxStrategy::TokenAttention, classes, None, &mut rng);
        let g = Graph::new();
        let encs = model.encode_records_standalone(&g, GraphStamp::next(), &[&[5, 6, 7], &[8]]).expect("AOA has the split path");
        assert!(g.is_empty(), "the split encode recorded {} nodes", g.len());
        assert_eq!(encs.iter().map(Tensor::shape).collect::<Vec<_>>(), [(3, 16), (1, 16)]);
    }

    #[test]
    fn numeric_vocab_table_flags_digit_tokens() {
        let (pipe, _, _) = example();
        let table = numeric_vocab_table(pipe.tokenizer());
        assert_eq!(table.len(), pipe.vocab_size());
        // The corpus is full of capacities like 1tb/512gb, so some numeric
        // subwords must exist.
        assert!(table.iter().any(|&b| b));
        assert!(!table[emba_tokenizer::special::CLS]);
    }
}
