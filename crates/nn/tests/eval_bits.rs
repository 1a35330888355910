//! The forward-only encoder against its oracle, the tape.
//!
//! `BertEncoder::encode_eval` must return `forward_batch`'s eval-mode token
//! rows bit for bit, under f32 and int8, for one record (with its summed
//! last-layer attention) and for 64+ records of every length from 1 to
//! `max_len`, on the configs of every backbone
//! kind: base, small and distil; RoBERTa (base with every segment 0); and
//! fastText, whose token rows are the embedding lookup. `BertConfig::tiny`'s
//! linears are all below the int8 floor, so under int8 it runs f32 GEMMs —
//! an encoder that quantized every linear matched the rest and failed there.
//! The profiler must see the tape's forward ops, minus the ones the encoder
//! does not run.

use std::collections::BTreeMap;

use emba_nn::{BertConfig, BertEncoder, Embedding, Module, MultiHeadAttention};
use emba_tensor::{backend, prof, BackendKind, Graph, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VOCAB: usize = 300;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// An encoder for `cfg` with every parameter perturbed, so no bias or
/// layer-norm shift is the zero a wrong epilogue could get away with.
fn encoder(cfg: BertConfig, seed: u64) -> BertEncoder {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut enc = BertEncoder::new(cfg, &mut rng);
    enc.visit_mut(&mut |p| {
        let (r, c) = p.value.shape();
        p.value = p.value.add(&Tensor::rand_normal(r, c, 0.0, 0.05, &mut rng));
    });
    enc
}

/// One record of length `max_len`, and 70 records cycling through every
/// length from 1 to `max_len`; segments random unless `zero_segments`.
fn batches(max_len: usize, zero_segments: bool, seed: u64) -> Vec<Vec<(Vec<usize>, Vec<usize>)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = |len: usize| {
        let ids = (0..len).map(|_| rng.gen_range(0..VOCAB)).collect();
        let segs = (0..len).map(|_| if zero_segments { 0 } else { rng.gen_range(0..2) }).collect();
        (ids, segs)
    };
    let one = vec![seq(max_len)];
    let many = (0..70).map(|i| seq(1 + (i * 7) % max_len)).collect();
    vec![one, many]
}

fn refs(batch: &[(Vec<usize>, Vec<usize>)]) -> Vec<(&[usize], &[usize])> {
    batch.iter().map(|(i, s)| (&i[..], &s[..])).collect()
}

/// What the tape computes in eval mode against what the encoder does, under
/// `kind`: the token rows, and for one sequence the summed last-layer
/// attention.
fn both(enc: &BertEncoder, seqs: &[(&[usize], &[usize])], kind: BackendKind) -> Vec<(&'static str, Tensor, Tensor)> {
    let g = Graph::new();
    let tape = {
        let _backend = backend::install(kind);
        enc.forward_batch(&g, seqs, false, &mut StdRng::seed_from_u64(0))
    };
    let (tokens, groups, attention) = enc.encode_eval(seqs, kind);
    assert_eq!(groups, tape.groups);
    assert_eq!(attention.is_some(), seqs.len() == 1, "summed attention is for a batch of one");
    let mut out = vec![("tokens", g.value(tape.tokens), tokens)];
    out.extend(attention.map(|got| ("summed attention", MultiHeadAttention::summed_probs(&g, &tape.last_attention), got)));
    out
}

#[test]
fn encode_eval_is_the_tape_bit_for_bit() {
    let configs = [
        ("base", BertConfig::base(VOCAB), false),
        ("small", BertConfig::small(VOCAB), false),
        ("distil", BertConfig::distil(VOCAB), false),
        ("roberta", BertConfig::base(VOCAB), true),
        ("tiny", BertConfig::tiny(VOCAB), false),
    ];
    for (i, (name, cfg, zero_segments)) in configs.into_iter().enumerate() {
        let max_len = cfg.max_len;
        let enc = encoder(cfg, i as u64);
        for batch in batches(max_len, zero_segments, 10 + i as u64) {
            let seqs = refs(&batch);
            for kind in [BackendKind::F32, BackendKind::Int8] {
                for (what, want, got) in both(&enc, &seqs, kind) {
                    assert_eq!(got.shape(), want.shape());
                    assert!(bits(got.data()) == bits(want.data()), "{name}, {} records, {kind:?}: encode_eval's {what} differ from the tape", seqs.len());
                }
            }
        }
    }
}

#[test]
fn fasttext_rows_are_the_tape_embedding() {
    let mut rng = StdRng::seed_from_u64(3);
    let emb = Embedding::new(VOCAB, 128, &mut rng);
    for batch in batches(64, true, 4) {
        let ids: Vec<usize> = batch.iter().flat_map(|(ids, _)| ids.iter().copied()).collect();
        let g = Graph::new();
        let want = g.value(emb.forward(&g, &ids));
        let mut got = vec![0.0; ids.len() * 128];
        emb.lookup_into(&ids, &mut got);
        assert_eq!(bits(&got), bits(want.data()));
    }
}

/// Forward `(phase path, op) -> calls` of `run`, profiled from a clean slate.
fn profiled(run: impl FnOnce()) -> BTreeMap<(String, &'static str), u64> {
    prof::reset();
    let was = prof::enable(true);
    run();
    prof::enable(was);
    let ops = prof::report().ops.into_iter().filter(|o| !o.backward).map(|o| ((o.path, o.op), o.calls)).collect();
    prof::reset();
    ops
}

#[test]
fn encode_eval_reports_the_tape_ops_it_runs() {
    let enc = encoder(BertConfig::small(VOCAB), 7);
    let batch = &batches(BertConfig::small(VOCAB).max_len, false, 8)[1];
    let seqs = refs(batch);
    let layers = BertConfig::small(VOCAB).layers as u64;
    for kind in [BackendKind::F32, BackendKind::Int8] {
        let mut tape = profiled(|| {
            let _backend = backend::install(kind);
            let g = Graph::new();
            enc.forward_batch(&g, &seqs, false, &mut StdRng::seed_from_u64(0));
        });
        let eval = profiled(|| {
            enc.encode_eval(&seqs, kind);
        });
        // What the encoder does not run: parameter leaves and the residual
        // adds (folded into the layer norms).
        tape.retain(|(_, op), _| *op != "leaf");
        assert_eq!(tape.remove(&("bert/layer".to_string(), "add")), Some(2 * layers));
        assert_eq!(eval, tape, "{kind:?}");
        if kind == BackendKind::F32 {
            assert!(eval.keys().all(|(_, op)| !op.starts_with("linear_q8")), "an f32 encode recorded a quantized op");
        }
    }
}
