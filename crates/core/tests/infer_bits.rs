//! Joint inference against its oracle, the tape.
//!
//! `Matcher::infer_batch` must return what `forward_batch` returns in eval
//! mode, bit for bit, for every model of Tables 2 and 4 — every EM × aux
//! strategy, the fastText and RoBERTa backbones, and DeepMatcher through the
//! trait's default — under f32 and int8:
//!
//! - (a) a whole 16-pair chunk of mixed lengths, in one launch, against the
//!   tape run on the chunk's length-bucketed sub-batches (the way the trainer
//!   batches): match probabilities and entity-ID predictions;
//! - (b) each pair alone: its probability, AOA γ and summed last-layer
//!   attention.
//!
//! The split path's score (`Matcher::score_encoded_pairs`), which runs with
//! no tape, is held the same way to the tape ops it replaced, on every SIMD
//! tier.
//!
//! Every parameter is perturbed first, so no zero bias or unit layer-norm
//! gain can hide a wrong path.

use emba_core::batching::plan_sub_batches;
use emba_core::{EncodedExample, MatchHead, Matcher, ModelKind, PipelineConfig, TextPipeline, DEFAULT_DROPOUT};
use emba_datagen::{build, Dataset, DatasetId, PairExample, Record, Scale};
use emba_nn::{GraphStamp, Module};
use emba_tensor::{backend, simd, BackendKind, Graph, RowGroups, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CHUNK: usize = 16;

/// A probability's bits and the pair's entity-ID predictions.
type Answer = (u32, Option<usize>, Option<usize>);

fn bits(t: &Option<Tensor>) -> Option<((usize, usize), Vec<u32>)> {
    t.as_ref().map(|t| (t.shape(), t.data().iter().map(|v| v.to_bits()).collect()))
}

fn answers(probs: &[f32], id1: &Option<Vec<usize>>, id2: &Option<Vec<usize>>) -> Vec<Answer> {
    let pick = |ids: &Option<Vec<usize>>, k: usize| ids.as_ref().map(|p| p[k]);
    probs.iter().enumerate().map(|(k, p)| (p.to_bits(), pick(id1, k), pick(id2, k))).collect()
}

/// The first [`CHUNK`] training pairs, each record cut to the first few
/// words of its first attribute (a different number per pair), so the
/// chunk's lengths spread over several length buckets.
fn short_pairs(ds: &Dataset) -> Vec<PairExample> {
    let cut = |r: &Record, words: usize| {
        let (name, value) = &r.attrs[0];
        let kept: Vec<&str> = value.split_whitespace().take(words).collect();
        Record { attrs: vec![(name.clone(), kept.join(" "))] }
    };
    ds.train[..CHUNK]
        .iter()
        .enumerate()
        .map(|(i, p)| PairExample {
            left: cut(&p.left, 1 + i % 9),
            right: cut(&p.right, 1 + (5 * i) % 11),
            ..p.clone()
        })
        .collect()
}

/// `kind` built over `ds` with every parameter perturbed, and
/// [`short_pairs`] encoded for it.
fn model_and_chunk(kind: ModelKind, ds: &Dataset) -> (Box<dyn Matcher>, Vec<EncodedExample>) {
    let pipe = TextPipeline::fit(
        ds,
        PipelineConfig { vocab_size: 1000, max_len: 64, serialization: kind.serialization() },
    );
    let mut rng = StdRng::seed_from_u64(17);
    let mut model = kind.build(&pipe, ds.num_classes, 0.25, DEFAULT_DROPOUT, &mut rng);
    model.visit_mut(&mut |p| {
        let (r, c) = p.value.shape();
        p.value = p.value.add(&Tensor::rand_normal(r, c, 0.0, 0.05, &mut rng));
    });
    (model, pipe.encode_split(&short_pairs(ds)))
}

/// The tape's answers over `exs`, one `forward_batch` per length bucket.
fn tape_bucketed(model: &dyn Matcher, exs: &[EncodedExample]) -> Vec<Answer> {
    let lens: Vec<usize> = exs.iter().map(|ex| ex.pair.ids.len()).collect();
    let plan = plan_sub_batches(&lens);
    assert!(plan.len() > 1, "the chunk's lengths {lens:?} fill one bucket");
    let mut out = vec![None; exs.len()];
    for sub in plan {
        let batch: Vec<&EncodedExample> = sub.iter().map(|&j| &exs[j]).collect();
        let g = Graph::new();
        let o = model.forward_batch(&g, GraphStamp::next(), &batch, false, &mut StdRng::seed_from_u64(0));
        for (k, answer) in answers(&o.match_probs, &o.id1_preds, &o.id2_preds).into_iter().enumerate() {
            out[sub[k]] = Some(answer);
        }
        g.recycle();
    }
    out.into_iter().map(|a| a.expect("every pair is in one bucket")).collect()
}

#[test]
fn infer_batch_is_the_tape_bit_for_bit() {
    let ds = build(DatasetId::DblpScholar, Scale(0.02), 7);
    let mut kinds = ModelKind::table2();
    let table2 = kinds.clone();
    kinds.extend(ModelKind::table4().into_iter().filter(|k| !table2.contains(k)));
    let (mut with_gamma, mut with_attention) = (0, 0);
    for kind in kinds {
        let (model, exs) = model_and_chunk(kind, &ds);
        let refs: Vec<&EncodedExample> = exs.iter().collect();
        for backend_kind in [BackendKind::F32, BackendKind::Int8] {
            let _backend = backend::install(backend_kind);
            let what = format!("{} under {backend_kind:?}", kind.name());

            // (a) One launch over the whole chunk.
            let want = tape_bucketed(model.as_ref(), &exs);
            let got = model.infer_batch(&refs, &mut StdRng::seed_from_u64(0));
            assert_eq!(got.id1_preds.is_some(), kind.is_multitask(), "{what}");
            assert_eq!(answers(&got.match_probs, &got.id1_preds, &got.id2_preds), want, "{what}: chunk");
            assert!(got.gamma.is_none() && got.attention.is_none(), "{what}: a chunk kept a visualization");

            // (b) One pair at a time.
            for (i, ex) in refs.iter().enumerate() {
                let g = Graph::new();
                let tape = model.forward_batch(&g, GraphStamp::next(), &[ex], false, &mut StdRng::seed_from_u64(0));
                let got = model.infer_batch(&[ex], &mut StdRng::seed_from_u64(0));
                assert_eq!(got.match_probs[0].to_bits(), tape.match_probs[0].to_bits(), "{what}: pair {i}");
                assert_eq!(bits(&got.gamma), bits(&tape.gamma), "{what}: pair {i}'s gamma");
                assert_eq!(bits(&got.attention), bits(&tape.attention), "{what}: pair {i}'s attention");
                with_gamma += usize::from(got.gamma.is_some());
                with_attention += usize::from(got.attention.is_some());
                g.recycle();
            }
        }
    }
    // EMBA's four backbones and EMBA-CLS have γ; every BERT-backbone model
    // has attention.
    assert_eq!(with_gamma, 5 * 2 * CHUNK);
    assert_eq!(with_attention, 13 * 2 * CHUNK);
}

/// `model`'s match head, rebuilt from its parameters: the first `[h, 1]`
/// weight it visits and the bias after it (the backbone has no `[h, 1]`
/// weight, and the entity-ID heads come after the match head).
fn match_head_of(model: &dyn Matcher, h: usize) -> MatchHead {
    let mut params = Vec::new();
    model.visit(&mut |p| params.push(p.value.clone()));
    let at = params.iter().position(|t| t.shape() == (h, 1)).expect("the model has a match head");
    let mut head = MatchHead::new(h, &mut StdRng::seed_from_u64(0));
    let mut own = params[at..at + 2].iter();
    head.visit_mut(&mut |p| p.value = own.next().expect("weight and bias").clone());
    head
}

/// The split score as the tape computed it: a leaf of each side's packed
/// encodings → `Graph::aoa_pool` over the two groups → the match head →
/// sigmoid, a non-finite logit read as NaN.
fn tape_score(head: &MatchHead, pairs: &[(&Tensor, &Tensor)]) -> Vec<u32> {
    let pack = |side: Vec<&Tensor>| (Tensor::concat_rows(&side), RowGroups::from_lens(&side.iter().map(|t| t.rows()).collect::<Vec<_>>()));
    let (e1, g1) = pack(pairs.iter().map(|p| p.0).collect());
    let (e2, g2) = pack(pairs.iter().map(|p| p.1).collect());
    let g = Graph::new();
    let (pooled, _) = g.aoa_pool(g.leaf(e1), &g1, g.leaf(e2), &g2);
    let logits = g.value(head.forward(&g, GraphStamp::next(), pooled));
    let prob = |z: f32| if z.is_finite() { 1.0 / (1.0 + (-z).exp()) } else { f32::NAN };
    logits.data().iter().map(|&z| prob(z).to_bits()).collect()
}

#[test]
fn split_score_is_the_tape_bit_for_bit() {
    let ds = build(DatasetId::DblpScholar, Scale(0.02), 7);
    for kind in [ModelKind::EmbaSb, ModelKind::Emba] {
        let (model, exs) = model_and_chunk(kind, &ds);
        // The chunk's left records of mixed lengths, then a one-token record
        // and an empty one.
        let mut records: Vec<&[usize]> = exs.iter().map(|ex| &ex.pair.ids[ex.pair.left.clone()]).collect();
        records.push(&records[0][..1]);
        records.push(&[]);
        let n = records.len();
        // Runs of three pairs sharing a left record (one packing of it),
        // every record against the empty one, and the two short records
        // against themselves.
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), (i, (i + 5) % n), (i, n - 1)])
            .chain([(n - 2, n - 2), (n - 1, 0)])
            .collect();
        for backend_kind in [BackendKind::F32, BackendKind::Int8] {
            let what = format!("{} under {backend_kind:?}", kind.name());
            simd::on_every_tier(|tier| {
                let _backend = backend::install(backend_kind);
                let g = Graph::new();
                let encs = model.encode_records_standalone(&g, GraphStamp::next(), &records).expect("EMBA has the split path");
                assert!(encs[n - 2].rows() == 1 && encs[n - 1].rows() == 0, "{what}: the short records");
                let operands: Vec<(&Tensor, &Tensor)> = pairs.iter().map(|&(i, j)| (&encs[i], &encs[j])).collect();
                let got = model.score_encoded_pairs(&g, GraphStamp::next(), &operands).expect("EMBA has the split path");
                assert!(g.is_empty(), "{what} on {tier:?}: the split path recorded {} nodes", g.len());
                let got: Vec<u32> = got.iter().map(|p| p.to_bits()).collect();
                assert_eq!(got, tape_score(&match_head_of(model.as_ref(), encs[0].cols()), &operands), "{what} on {tier:?}");
            });
        }
    }
}
