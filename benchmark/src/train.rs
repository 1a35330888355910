//! `train_eval_joint`: `train_matcher` then `evaluate`, both on the joint
//! `[CLS] D1 [SEP] D2 [SEP]` path of the paper's Table 7.
//!
//! Backward kernels, dropout, Adam, the auxiliary ID heads and joint pair
//! tokenisation run only here. The timed section is one fixed training run
//! ([`EPOCHS`] epochs over the training split) followed by `evaluate` calls
//! over consecutive [`EVAL_CHUNK`]-pair slices of the test split until
//! `--seconds` have passed. `pairs_per_s` is training example-steps per
//! second of optimizer-step time; `lat_p50_ms` / `lat_tail_ms` are the
//! latency of one `evaluate` call, i.e. joint-path inference of 16 pairs.

use std::time::Instant;

use emba_core::{
    evaluate, train_matcher_observed, EncodedExample, TextPipeline, TrainConfig, TrainedMatcher,
};
use emba_datagen::{build as build_dataset, DatasetId, Record, Scale, WdcCategory, WdcSize};
use emba_tensor::{pool, prof, Tensor};
use emba_trace::{StepRecord, TrainObserver};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kernels;
use crate::layers;
use crate::run::{repeated_setup, tensor_ledger, timed_loop, Options, Outcome, TensorScope};
use crate::setup::{build_model, is_probability, peak_rss_mb, pipeline_config};
use crate::spans::Recorder;
use crate::stats::{percentile, sorted, supported_tail};

/// Training epochs per run (the first is the warm-up epoch of the schedule).
pub const EPOCHS: usize = 2;
/// Gradient-accumulation window.
pub const BATCH_SIZE: usize = 8;
/// Pairs per timed `evaluate` call (the trainer's own evaluation batch).
pub const EVAL_CHUNK: usize = 16;
/// Fewest timed `evaluate` calls: enough for a p90 with ten samples beyond.
pub const MIN_EVAL_CALLS: usize = 100;

/// Share of the wdc-computers-small analog that is generated.
fn scale(tiny: bool) -> Scale {
    Scale(if tiny { 0.012 } else { 0.07 })
}

struct Inputs {
    trained: TrainedMatcher,
    train: Vec<EncodedExample>,
    valid: Vec<EncodedExample>,
    test: Vec<EncodedExample>,
    test_records: Vec<(Record, Record)>,
}

/// Everything before the first timed step: dataset generation, tokenizer
/// training, model build, encoding the splits, and a warm-up evaluation of
/// one chunk (fills the scratch pool).
fn build(opts: &Options) -> Result<Inputs, String> {
    let dataset = build_dataset(
        DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small),
        scale(opts.tiny),
        opts.seed,
    );
    dataset.validate()?;
    let pipeline = TextPipeline::fit(&dataset, pipeline_config());
    let (pos, neg) = dataset.train_balance();
    let trained = build_model(
        pipeline,
        dataset.num_classes,
        pos as f64 / (pos + neg).max(1) as f64,
    );
    let pipeline = &trained.pipeline;
    let train = pipeline.encode_split(&dataset.train);
    // The trainer evaluates the validation split every epoch and the test
    // split once; that is not what this workload times, so both stay small.
    let valid = pipeline.encode_split(&dataset.valid[..dataset.valid.len().min(BATCH_SIZE)]);
    let test = pipeline.encode_split(&dataset.test);
    let test_records = dataset
        .test
        .iter()
        .map(|p| (p.left.clone(), p.right.clone()))
        .collect();
    let mut rng = StdRng::seed_from_u64(0);
    evaluate(
        trained.model.as_ref(),
        &test[..test.len().min(EVAL_CHUNK)],
        &mut rng,
    );
    Ok(Inputs {
        trained,
        train,
        valid,
        test,
        test_records,
    })
}

/// Collects what the trainer reports through its public observer hooks.
#[derive(Default)]
struct Steps {
    wall_ms: Vec<f64>,
    examples: usize,
    epoch_losses: Vec<f64>,
    nonfinite: Vec<String>,
    bad_step_losses: usize,
}

impl TrainObserver for Steps {
    fn on_step(&mut self, r: &StepRecord) {
        self.wall_ms.push(r.wall_ms);
        self.examples += r.examples;
        self.bad_step_losses += usize::from(!r.loss.is_finite());
    }
    fn on_epoch_end(&mut self, _epoch: usize, mean_loss: f64) {
        self.epoch_losses.push(mean_loss);
    }
    fn on_non_finite(&mut self, source: &str, detail: &str) {
        self.nonfinite.push(format!("{source}: {detail}"));
    }
}

impl Steps {
    fn step_secs(&self) -> f64 {
        self.wall_ms.iter().sum::<f64>() / 1e3
    }
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        batch_size: BATCH_SIZE,
        patience: EPOCHS,
        seed,
        ..TrainConfig::default()
    }
}

fn train_once(inputs: &mut Inputs, seed: u64) -> (Steps, f64) {
    let mut steps = Steps::default();
    let start = Instant::now();
    let tail = &inputs.test[..inputs.test.len().min(BATCH_SIZE)];
    train_matcher_observed(
        inputs.trained.model.as_mut(),
        &inputs.train,
        &inputs.valid,
        tail,
        &train_config(seed),
        &mut steps,
    );
    (steps, start.elapsed().as_secs_f64())
}

/// Training checks: every step loss finite, no non-finite event, and the
/// last epoch's mean loss below the first epoch's.
fn check_training(steps: &Steps, out: &mut Outcome) {
    out.ledger.attempted += steps.wall_ms.len() as u64;
    out.ledger.check(
        steps.bad_step_losses == 0 && steps.nonfinite.is_empty(),
        || {
            format!(
                "{} non-finite step losses; events: {:?}",
                steps.bad_step_losses, steps.nonfinite
            )
        },
    );
    let (first, last) = (
        steps.epoch_losses.first().copied().unwrap_or(f64::NAN),
        steps.epoch_losses.last().copied().unwrap_or(f64::NAN),
    );
    out.ledger.check(
        steps.epoch_losses.len() == EPOCHS && last.is_finite() && last < first,
        || format!("epoch losses {:?} did not fall", steps.epoch_losses),
    );
}

/// Timed `evaluate` calls over consecutive slices of the test split.
fn eval_calls(
    inputs: &Inputs,
    seconds: f64,
    min_calls: usize,
    rec: Option<&mut Recorder>,
) -> (Vec<f64>, usize) {
    let chunks: Vec<&[EncodedExample]> = inputs
        .test
        .chunks(EVAL_CHUNK)
        .filter(|c| c.len() == EVAL_CHUNK)
        .collect();
    let chunks = if chunks.is_empty() {
        vec![&inputs.test[..]]
    } else {
        chunks
    };
    let mut rng = StdRng::seed_from_u64(0);
    let mut ms = Vec::new();
    let mut pairs = 0;
    let mut rec = rec;
    timed_loop(seconds, min_calls, || {
        let chunk = chunks[ms.len() % chunks.len()];
        let t = Instant::now();
        let mut call = || {
            std::hint::black_box(evaluate(inputs.trained.model.as_ref(), chunk, &mut rng));
        };
        match rec.as_deref_mut() {
            Some(r) => r.scope("train.evaluate", ms.len() as u64, |_| call()),
            None => call(),
        }
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        pairs += chunk.len();
    });
    (ms, pairs)
}

/// The joint inference path's outputs are probabilities: `predict_batch`
/// over a sample of test pairs, in chunks of [`EVAL_CHUNK`]. Returns pairs
/// per second and the number of unacceptable probabilities.
fn joint_probe(inputs: &Inputs, out: &mut Outcome) -> (f64, usize) {
    let sample = &inputs.test_records[..inputs.test_records.len().min(4 * EVAL_CHUNK)];
    let start = Instant::now();
    let mut bad = 0;
    for chunk in sample.chunks(EVAL_CHUNK) {
        let refs: Vec<(&Record, &Record)> = chunk.iter().map(|(l, r)| (l, r)).collect();
        for p in inputs.trained.predict_batch(&refs) {
            let ok = is_probability(p.prob as f32);
            bad += usize::from(!ok);
            out.ledger
                .check(ok, || format!("predict_batch gave {}", p.prob));
        }
    }
    (sample.len() as f64 / start.elapsed().as_secs_f64(), bad)
}

fn describe(out: &mut Outcome, inputs: &Inputs) {
    out.size("train_pairs", inputs.train.len());
    out.size("test_pairs", inputs.test.len());
    out.size("epochs", EPOCHS);
    out.size("batch_size", BATCH_SIZE);
    out.size("eval_chunk", EVAL_CHUNK);
    out.backend = "f32".to_string();
}

/// The end-to-end run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut inputs, setup_s) = repeated_setup(opts, || build(opts))?;
    describe(&mut out, &inputs);
    let (steps, train_wall) = train_once(&mut inputs, opts.seed);
    check_training(&steps, &mut out);
    let min_calls = if opts.tiny { 4 } else { MIN_EVAL_CALLS };
    let (eval_ms, eval_pairs) = eval_calls(
        &inputs,
        (opts.seconds - train_wall).max(0.0),
        min_calls,
        None,
    );
    out.ledger.attempted += eval_ms.len() as u64;
    joint_probe(&inputs, &mut out);
    let lat = sorted(eval_ms.clone());
    let tail = supported_tail(&lat);
    out.metrics.put("setup_s", setup_s);
    out.metrics
        .put("pairs_per_s", steps.examples as f64 / steps.step_secs());
    out.metrics.put("lat_p50_ms", percentile(&lat, 0.5));
    out.metrics.put("lat_tail_ms", tail.value);
    out.metrics.put("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "trained {} example-steps in {} optimizer steps ({:.2} s of step time, {train_wall:.2} s with the trainer's own evaluations); epoch losses {:?}",
        steps.examples,
        steps.wall_ms.len(),
        steps.step_secs(),
        steps.epoch_losses
    ));
    out.notes.push(format!(
        "evaluated {eval_pairs} pairs in {} calls of {EVAL_CHUNK} ({:.1} pairs/s); lat_tail_ms is p{:.0} with {} samples beyond",
        eval_ms.len(),
        eval_pairs as f64 / (eval_ms.iter().sum::<f64>() / 1e3),
        tail.q * 100.0,
        tail.beyond
    ));
    Ok(out)
}

/// The traced run: the same training twice from the same weights, untraced
/// then profiled, then profiled evaluation and the layer probes.
pub fn trace(opts: &Options, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut inputs, _) = repeated_setup(opts, || build(opts))?;
    describe(&mut out, &inputs);
    let initial: Vec<Tensor> = inputs.trained.model.state();
    let (plain, plain_wall) = rec.scope("train.train_matcher", 0, |_| {
        train_once(&mut inputs, opts.seed)
    });
    inputs.trained.model.load_state(&initial);

    let pool_before = pool::stats();
    prof::reset();
    prof::enable(true);
    let (steps, traced_wall) = rec.scope("train.train_matcher.profiled", 1, |_| {
        train_once(&mut inputs, opts.seed)
    });
    let min_calls = if opts.tiny { 4 } else { MIN_EVAL_CALLS / 2 };
    let (eval_ms, eval_pairs) = eval_calls(&inputs, 0.0, min_calls, Some(rec));
    prof::enable(false);
    let profile = prof::report();
    check_training(&steps, &mut out);
    // Same seed, same weights: the profiler must not change the arithmetic.
    out.ledger
        .check(plain.epoch_losses == steps.epoch_losses, || {
            format!(
                "profiled training diverged: {:?} vs {:?}",
                plain.epoch_losses, steps.epoch_losses
            )
        });

    let phase = |suffix: &str| -> f64 {
        profile
            .phases
            .iter()
            .filter(|p| p.path == suffix || p.path.ends_with(&format!("/{suffix}")))
            .map(|p| p.total_ns as f64 / 1e9)
            .sum()
    };
    let forward_s = profile
        .phases
        .iter()
        .filter(|p| p.path == "train/epoch/example/forward")
        .map(|p| p.total_ns as f64 / 1e9)
        .sum::<f64>();
    let backward_s = phase("backward");
    let m = &mut out.metrics;
    m.put("train.forward_s", forward_s);
    m.put("train.backward_s", backward_s);
    m.put("train.optim_s", phase("optim"));
    m.put("train.eval_s", phase("eval"));
    m.put("train.steps", steps.wall_ms.len() as f64);
    let tokens: usize = inputs.train.iter().map(|e| e.pair.ids.len()).sum::<usize>() * EPOCHS;
    m.put("train.tokens_per_s", tokens as f64 / steps.step_secs());
    m.put(
        "train.final_loss",
        steps.epoch_losses.last().copied().unwrap_or(f64::NAN),
    );
    m.put(
        "train.train_examples_per_s",
        plain.examples as f64 / plain.step_secs(),
    );
    m.put(
        "train.eval_pairs_per_s",
        eval_pairs as f64 / (eval_ms.iter().sum::<f64>() / 1e3),
    );
    m.put("bench.trace_overhead_share", traced_wall / plain_wall - 1.0);
    let scope = TensorScope {
        keep: &|path| {
            path == "train/epoch/example/forward"
                || path.starts_with("train/epoch/example/forward/")
                || path.starts_with("train/epoch/example/backward")
        },
        phase_wall_s: forward_s + backward_s,
        int8: false,
    };
    if let Some(problem) = tensor_ledger(m, &profile, &scope, pool_before) {
        out.ledger.check(false, || problem);
    }
    let coverage = out
        .metrics
        .get("tensor.op_coverage")
        .expect("recorded by tensor_ledger");
    if !opts.tiny && coverage < 0.9 {
        return Err(format!(
            "profiler ops cover {coverage:.3} of the forward + backward phases, below 0.9"
        ));
    }

    // Layer probes: the planner on the training windows, joint tokenisation,
    // joint inference.
    let m = &mut out.metrics;
    let lens: Vec<usize> = inputs.train.iter().map(|e| e.pair.ids.len()).collect();
    let (mut subs, mut sizes, mut windows) = (0usize, Vec::new(), 0usize);
    let plan_start = Instant::now();
    for window in lens.chunks(BATCH_SIZE) {
        let plan = emba_core::batching::plan_sub_batches(window);
        subs += plan.len();
        windows += 1;
        sizes.extend(plan.iter().map(|s| s.len() as f64));
    }
    m.put("batching.plan_s", plan_start.elapsed().as_secs_f64());
    m.put(
        "batching.encode_sub_batches_per_window",
        subs as f64 / windows.max(1) as f64,
    );
    m.put(
        "batching.mean_sub_batch",
        sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
    );
    let (joint_rate, bad) = joint_probe(&inputs, &mut out);
    out.metrics.put("models.joint_pairs_per_s", joint_rate);
    out.metrics.put("models.nonfinite", bad as f64);
    let refs: Vec<&Record> = inputs
        .test_records
        .iter()
        .flat_map(|(l, r)| [l, r])
        .collect();
    let joined: Vec<(&Record, &Record)> = inputs.test_records.iter().map(|(l, r)| (l, r)).collect();
    layers::tokenizer(
        rec,
        &mut out.metrics,
        &inputs.trained,
        &refs,
        &joined,
        false,
    );
    out.notes.extend(kernels::probe(&mut out.metrics));
    out.notes.push(format!(
        "epoch losses {:?}; {} evaluate calls profiled",
        steps.epoch_losses,
        eval_ms.len()
    ));
    Ok(out)
}
