//! Property tests for batched execution: a length-bucketed batched forward
//! over synthetic pairs of arbitrary lengths must reproduce the per-example
//! forward — match probabilities and per-example losses within 1e-5, entity-ID
//! predictions exactly, and a B=1 batch bit-for-bit. Lengths are drawn across
//! bucket boundaries so ragged sub-batches, full buckets, and singleton
//! groups are all exercised.
//!
//! Everything runs with `train = false` (dropout off): the batched and
//! per-example paths consume dropout randomness in different orders by
//! design, so equality is only defined for the deterministic computation.

use emba_core::batching::plan_sub_batches;
use emba_core::{AuxStrategy, Backbone, EmStrategy, EncodedExample, Matcher, TransformerMatcher};
use emba_nn::{BertConfig, GraphStamp};
use emba_tensor::Graph;
use emba_tokenizer::EncodedPair;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VOCAB: usize = 64;
const CLASSES: usize = 5;
/// `BertConfig::tiny` positions cap the sequence at 32 tokens; examples keep
/// `3 + left + right` under that.
const MAX_SIDE: usize = 14;

thread_local! {
    static MODEL: TransformerMatcher = {
        let mut rng = StdRng::seed_from_u64(3);
        let backbone = Backbone::from_bert_config(BertConfig::tiny(VOCAB), true, &mut rng);
        TransformerMatcher::new(
            "EMBA-tiny",
            backbone,
            EmStrategy::Aoa,
            AuxStrategy::TokenAttention,
            CLASSES,
            None,
            &mut rng,
        )
    };
}

/// Assembles `[CLS] left [SEP] right [SEP]` with the segment and range
/// layout the pipeline produces.
fn build_example(
    left: &[usize],
    right: &[usize],
    is_match: bool,
    left_class: usize,
    right_class: usize,
) -> EncodedExample {
    let (ll, rl) = (left.len(), right.len());
    let mut ids = vec![1usize];
    ids.extend_from_slice(left);
    ids.push(2);
    ids.extend_from_slice(right);
    ids.push(2);
    let segments: Vec<usize> = (0..ids.len()).map(|i| usize::from(i > 1 + ll)).collect();
    EncodedExample {
        pair: EncodedPair {
            ids,
            segments,
            left: 1..1 + ll,
            right: 2 + ll..2 + ll + rl,
        },
        left_attrs: Vec::new(),
        right_attrs: Vec::new(),
        is_match,
        left_class,
        right_class,
    }
}

/// Expands one generator seed into a full random example (the vendored
/// proptest has no tuple strategies, so structure comes from a seeded RNG).
fn example_from_seed(seed: u64) -> EncodedExample {
    let mut rng = StdRng::seed_from_u64(seed);
    let ll = rng.gen_range(1..=MAX_SIDE);
    let rl = rng.gen_range(1..=MAX_SIDE);
    let left: Vec<usize> = (0..ll).map(|_| rng.gen_range(4..VOCAB)).collect();
    let right: Vec<usize> = (0..rl).map(|_| rng.gen_range(4..VOCAB)).collect();
    let is_match = rng.gen();
    let (lc, rc) = (rng.gen_range(0..CLASSES), rng.gen_range(0..CLASSES));
    build_example(&left, &right, is_match, lc, rc)
}

/// Runs the trainer's plan over `exs` and returns per-example
/// (loss, match prob, id1 pred, id2 pred) written back in input order.
fn batched_outputs(
    model: &TransformerMatcher,
    exs: &[EncodedExample],
) -> Vec<(f32, f32, usize, usize)> {
    let mut rng = StdRng::seed_from_u64(9);
    let lens: Vec<usize> = exs.iter().map(|e| e.pair.ids.len()).collect();
    let mut out = vec![(0.0f32, 0.0f32, 0usize, 0usize); exs.len()];
    for sub in plan_sub_batches(&lens) {
        let batch: Vec<&EncodedExample> = sub.iter().map(|&j| &exs[j]).collect();
        let g = Graph::new();
        let b = model.forward_batch(&g, GraphStamp::next(), &batch, false, &mut rng);
        let id1 = b.id1_preds.as_ref().expect("multi-task model predicts ids");
        let id2 = b.id2_preds.as_ref().expect("multi-task model predicts ids");
        for (k, &j) in sub.iter().enumerate() {
            out[j] = (b.example_losses[k], b.match_probs[k], id1[k], id2[k]);
        }
        g.recycle();
    }
    out
}

fn per_example_outputs(
    model: &TransformerMatcher,
    exs: &[EncodedExample],
) -> Vec<(f32, f32, usize, usize)> {
    let mut rng = StdRng::seed_from_u64(9);
    exs.iter()
        .map(|ex| {
            let g = Graph::new();
            let o = model.forward_batch(&g, GraphStamp::next(), &[ex], false, &mut rng);
            let loss = g.value(o.loss).item();
            g.recycle();
            (
                loss,
                o.match_probs[0],
                o.id1_preds.expect("multi-task model predicts ids")[0],
                o.id2_preds.expect("multi-task model predicts ids")[0],
            )
        })
        .collect()
}

fn assert_equivalent(model: &TransformerMatcher, exs: &[EncodedExample]) {
    let batched = batched_outputs(model, exs);
    let single = per_example_outputs(model, exs);
    for (i, ((bl, bp, b1, b2), (sl, sp, s1, s2))) in batched.iter().zip(&single).enumerate() {
        let len = exs[i].pair.ids.len();
        assert!(
            (bp - sp).abs() <= 1e-5,
            "example {i} (len {len}): batched prob {bp} vs per-example {sp}"
        );
        assert!(
            (bl - sl).abs() <= 1e-5 * (1.0 + sl.abs()),
            "example {i} (len {len}): batched loss {bl} vs per-example {sl}"
        );
        assert_eq!(b1, s1, "example {i} (len {len}): RECORD1 id pred differs");
        assert_eq!(b2, s2, "example {i} (len {len}): RECORD2 id pred differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn batched_matches_per_example_across_random_lengths(
        seeds in collection::vec(any::<u64>(), 1..10),
    ) {
        let exs: Vec<EncodedExample> = seeds.iter().copied().map(example_from_seed).collect();
        MODEL.with(|model| assert_equivalent(model, &exs));
    }

    #[test]
    fn b1_batch_is_bit_identical_to_per_example(seed in any::<u64>()) {
        let ex = example_from_seed(seed);
        let (a_bits, a_loss, a1, a2, b_bits, b_loss, b1, b2) = MODEL.with(|model| {
            let mut rng = StdRng::seed_from_u64(9);
            let ga = Graph::new();
            let a = model.forward_batch(&ga, GraphStamp::next(), &[&ex], false, &mut rng);
            let a_loss = ga.value(a.loss).item();
            let gb = Graph::new();
            let b = model.forward_batch(&gb, GraphStamp::next(), &[&ex], false, &mut rng);
            let b_loss = gb.value(b.loss).item();
            let out = (
                a.match_probs[0].to_bits(),
                a_loss.to_bits(),
                a.id1_preds.unwrap()[0],
                a.id2_preds.unwrap()[0],
                b.match_probs[0].to_bits(),
                b_loss.to_bits(),
                b.id1_preds.unwrap()[0],
                b.id2_preds.unwrap()[0],
            );
            ga.recycle();
            gb.recycle();
            out
        });
        prop_assert_eq!(a_bits, b_bits, "B=1 match probability is not bit-equal");
        prop_assert_eq!(a_loss, b_loss, "B=1 loss is not bit-equal");
        prop_assert_eq!(a1, b1);
        prop_assert_eq!(a2, b2);
    }

    /// The summed batch loss must equal the sum of per-example losses, so
    /// gradient accumulation over sub-batches matches per-example
    /// accumulation.
    #[test]
    fn batch_loss_is_the_sum_of_example_losses(
        seeds in collection::vec(any::<u64>(), 2..7),
    ) {
        let exs: Vec<EncodedExample> = seeds.iter().copied().map(example_from_seed).collect();
        let refs: Vec<&EncodedExample> = exs.iter().collect();
        let total = MODEL.with(|model| {
            let mut rng = StdRng::seed_from_u64(9);
            let g = Graph::new();
            let out = model.forward_batch(&g, GraphStamp::next(), &refs, false, &mut rng);
            let total = f64::from(g.value(out.loss).item());
            g.recycle();
            total
        });
        let summed: f64 = MODEL.with(|model| {
            per_example_outputs(model, &exs)
                .iter()
                .map(|&(l, ..)| f64::from(l))
                .sum()
        });
        prop_assert!(
            (total - summed).abs() <= 1e-4 * (1.0 + summed.abs()),
            "batch loss {} vs per-example sum {}", total, summed
        );
    }
}

/// Deterministic straddle of every bucket edge reachable under the tiny
/// backbone's 32-position cap: lengths 8±1, 16±1, 24±1, and the exact
/// multiples, all in one window so the plan mixes full and ragged groups.
#[test]
fn bucket_boundary_lengths_are_equivalent() {
    let mut rng = StdRng::seed_from_u64(11);
    let lengths = [7usize, 8, 9, 15, 16, 17, 23, 24, 25, 31];
    let exs: Vec<EncodedExample> = lengths
        .iter()
        .enumerate()
        .map(|(i, &total)| {
            // total = 3 + left + right; split the budget unevenly so the
            // [SEP] positions move around too.
            let ll = 1 + (i % (total - 4));
            let rl = total - 3 - ll;
            let left: Vec<usize> = (0..ll).map(|_| rng.gen_range(4..VOCAB)).collect();
            let right: Vec<usize> = (0..rl).map(|_| rng.gen_range(4..VOCAB)).collect();
            build_example(&left, &right, i % 2 == 0, i % CLASSES, (i + 1) % CLASSES)
        })
        .collect();
    for (ex, &want) in exs.iter().zip(&lengths) {
        assert_eq!(ex.pair.ids.len(), want, "spec builds the intended length");
    }
    MODEL.with(|model| assert_equivalent(model, &exs));
}
