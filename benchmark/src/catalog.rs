//! The three `match_catalog` workloads.
//!
//! One driver, three regimes. The sparse workloads give every record a few
//! dozen candidates, so encoding cache misses through the backbone is most
//! of the wall time; the dense workload scores nearly all pairs of a small
//! catalog, so the AOA + match-head score stage, cache hits and window
//! planning are. `catalog_sparse_int8` repeats `catalog_sparse_f32` on the
//! int8 backend: same records, same candidates, same settings.
//!
//! The timed operation is one whole `match_catalog` call (blocking,
//! tokenisation, a fresh cache, encode, score). It is repeated until
//! `--seconds` have passed, at least [`MIN_CALLS`] times; `pairs_per_s` and
//! `lat_p50_ms` are medians over the calls; so is `lat_tail_ms`, because a
//! handful of calls supports no tail percentile (see `stats::supported_tail`).

use std::time::Instant;

use emba_core::{
    match_catalog, CatalogMatchConfig, CatalogMatchReport, ScoredPair, TrainedMatcher,
};
use emba_datagen::{Catalog, Record};
use emba_tensor::{pool, prof, BackendKind};

use crate::golden;
use crate::kernels;
use crate::layers;
use crate::registry::Workload;
use crate::run::{repeated_setup, tensor_ledger, timed_loop, Options, Outcome, TensorScope};
use crate::setup::{
    choose_sparse_blocking, dense_blocking, dense_blocking_config, is_probability,
    matcher_for_records, peak_rss_mb, sized_catalog, ChosenBlocking, MIN_RECALL,
};
use crate::spans::Recorder;
use crate::stats::{median, percentile, sorted, supported_tail};

/// Fewest timed `match_catalog` calls per run.
pub const MIN_CALLS: usize = 3;
/// Candidates per record the sparse workloads aim for.
pub const SPARSE_TARGET: usize = 8;
/// Accepted candidates-per-record band of the sparse workloads: the seed
/// must let the blocking search land within 20 % of the target (27 seeds
/// tried: 7.4-8.3).
pub const SPARSE_BAND: (f64, f64) = (6.4, 9.6);
/// Least share of a sparse call spent encoding for the run to count. The
/// committed numbers are above 0.75; the guard sits lower so that noise on
/// a shared machine does not fail a run that is in the right regime.
pub const MIN_ENCODE_SHARE: f64 = 0.68;
/// Least share of a dense call spent scoring (committed: about 0.72; the
/// 600k-pair sizing that would give 0.75 takes 8 s per call and does not
/// fit the driver's run budget; see README).
pub const MIN_SCORE_SHARE: f64 = 0.62;
/// Accepted |int8 - f32| match probability on one pair. DESIGN section 6k
/// documents 5e-3, measured on a trained model at the quick profile; the
/// untrained EMBA base model used here reaches 1.4e-2 at this commit (see
/// README, "What the numbers say"), so the in-run bound is set above that
/// and the observed maximum and the decision flips are reported.
pub const INT8_BOUND: f64 = 2.5e-2;

/// Records in the generated catalog.
pub fn records(workload: Workload, tiny: bool) -> usize {
    match (workload, tiny) {
        (Workload::CatalogDenseF32, false) => 480,
        (Workload::CatalogDenseF32, true) => 40,
        (_, false) => 1000,
        (_, true) => 80,
    }
}

fn backend_of(workload: Workload) -> BackendKind {
    if workload == Workload::CatalogSparseInt8 {
        BackendKind::Int8
    } else {
        BackendKind::F32
    }
}

struct Inputs {
    catalog: Catalog,
    trained: TrainedMatcher,
    blocking: ChosenBlocking,
    cfg: CatalogMatchConfig,
}

/// Everything before the first timed call: generate the catalog, train the
/// tokenizer, build the model, shape the blocking settings, and run one
/// small warm-up call under the workload's backend (fills the scratch pool
/// and, on int8, quantizes every linear weight).
fn build(opts: &Options) -> Result<Inputs, String> {
    let dense = opts.workload == Workload::CatalogDenseF32;
    let catalog = sized_catalog(
        opts.workload.name(),
        records(opts.workload, opts.tiny),
        opts.seed,
    )?;
    let trained = matcher_for_records(&catalog.records);
    let blocking = if dense {
        dense_blocking(&catalog)
    } else {
        choose_sparse_blocking(&catalog, SPARSE_TARGET * catalog.len())
    };
    let cfg = CatalogMatchConfig {
        blocking: blocking.cfg.clone(),
        cache_capacity: 2 * catalog.len(),
        backend: backend_of(opts.workload),
        ..CatalogMatchConfig::default()
    };
    let warm = &catalog.records[..catalog.len().min(48)];
    let warm_cfg = CatalogMatchConfig {
        blocking: dense_blocking_config(warm.len()),
        ..cfg.clone()
    };
    let (scored, _) = match_catalog(&trained, warm, &warm_cfg);
    if scored.is_empty() {
        return Err("warm-up call scored no pairs".to_string());
    }
    Ok(Inputs {
        catalog,
        trained,
        blocking,
        cfg,
    })
}

/// The workload's shape before timing: the seed must have produced the
/// regime the workload is named for.
fn assert_shape(opts: &Options, inputs: &Inputs) -> Result<(), String> {
    let n = inputs.catalog.len();
    let per_record = inputs.blocking.per_record(n);
    if inputs.blocking.recall < MIN_RECALL {
        return Err(format!(
            "blocking recall {:.3} below {MIN_RECALL}",
            inputs.blocking.recall
        ));
    }
    if opts.workload == Workload::CatalogDenseF32 {
        let all = (n * (n - 1) / 2) as f64;
        if (inputs.blocking.candidates.len() as f64) < 0.9 * all {
            return Err(format!(
                "dense blocking emitted {} of {all} pairs",
                inputs.blocking.candidates.len()
            ));
        }
    } else if !opts.tiny && !(SPARSE_BAND.0..=SPARSE_BAND.1).contains(&per_record) {
        return Err(format!(
            "{per_record:.1} candidates per record outside {SPARSE_BAND:?}"
        ));
    }
    Ok(())
}

/// The stage share that names the regime, checked on a measured call.
fn assert_share(opts: &Options, report: &CatalogMatchReport) -> Result<(), String> {
    if opts.tiny {
        return Ok(());
    }
    let (name, share, floor) = if opts.workload == Workload::CatalogDenseF32 {
        (
            "score",
            report.score_secs / report.total_secs,
            MIN_SCORE_SHARE,
        )
    } else {
        (
            "encode",
            report.encode_secs / report.total_secs,
            MIN_ENCODE_SHARE,
        )
    };
    if share < floor {
        return Err(format!(
            "{name} share {share:.3} below {floor}: the seed put the workload in another regime"
        ));
    }
    Ok(())
}

fn describe(out: &mut Outcome, inputs: &Inputs) {
    let n = inputs.catalog.len();
    out.size("clusters", inputs.catalog.num_clusters);
    out.size("records", n);
    out.size("candidate_pairs", inputs.blocking.candidates.len());
    out.size("max_posting", inputs.blocking.cfg.max_posting);
    out.size("min_shared", inputs.blocking.cfg.min_shared);
    out.size("cache_capacity", inputs.cfg.cache_capacity);
    out.notes.push(format!(
        "shape: {n} records, {} candidates ({:.1} per record), blocking recall {:.3}, max_posting {}",
        inputs.blocking.candidates.len(),
        inputs.blocking.per_record(n),
        inputs.blocking.recall,
        inputs.blocking.cfg.max_posting
    ));
}

/// Output checks shared by both run kinds: every probability is one, the
/// committed golden values reproduce, and int8 stays inside its bound of an
/// f32 run over the same candidates.
fn check_outputs(
    opts: &Options,
    inputs: &Inputs,
    scored: &[ScoredPair],
    out: &mut Outcome,
) -> Result<Option<(f64, usize)>, String> {
    for p in scored {
        out.ledger.check(is_probability(p.prob), || {
            format!("pair ({},{}) scored {}", p.i, p.j, p.prob)
        });
    }
    out.ledger
        .check(scored.len() == inputs.blocking.candidates.len(), || {
            format!(
                "{} pairs scored, {} candidates",
                scored.len(),
                inputs.blocking.candidates.len()
            )
        });
    let int8 = opts.workload == Workload::CatalogSparseInt8;
    let reference: Vec<ScoredPair>;
    let f32_scored = if int8 {
        let cfg = CatalogMatchConfig {
            backend: BackendKind::F32,
            ..inputs.cfg.clone()
        };
        reference = match_catalog(&inputs.trained, &inputs.catalog.records, &cfg).0;
        &reference[..]
    } else {
        scored
    };
    let golden_found =
        !opts.tiny && golden::check(opts.workload, opts.seed, f32_scored, &mut out.ledger)?;
    out.notes.push(format!(
        "golden: {}",
        if golden_found {
            "committed f32 probabilities reproduced within 1e-4"
        } else {
            "no file for this seed and size (in-run checks only)"
        }
    ));
    if !int8 {
        return Ok(None);
    }
    let mut max_abs = 0.0f64;
    let mut flips = 0usize;
    for (q, f) in scored.iter().zip(f32_scored) {
        let d = (f64::from(q.prob) - f64::from(f.prob)).abs();
        max_abs = max_abs.max(d);
        flips += usize::from((q.prob >= inputs.cfg.threshold) != (f.prob >= inputs.cfg.threshold));
        out.ledger
            .check((q.i, q.j) == (f.i, f.j) && d <= INT8_BOUND, || {
                format!("pair ({},{}) int8 {} vs f32 {}", q.i, q.j, q.prob, f.prob)
            });
    }
    out.notes.push(format!("int8 vs f32: max |dp| {max_abs:.2e} (bound {INT8_BOUND:e}), {flips} decision flips over {} pairs", scored.len()));
    Ok(Some((max_abs, flips)))
}

/// The end-to-end run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (inputs, setup_s) = repeated_setup(opts, || build(opts))?;
    assert_shape(opts, &inputs)?;
    describe(&mut out, &inputs);

    let mut walls: Vec<f64> = Vec::new();
    let mut rates: Vec<f64> = Vec::new();
    let mut first: Option<Vec<ScoredPair>> = None;
    let mut last: Option<(Vec<ScoredPair>, CatalogMatchReport)> = None;
    timed_loop(opts.seconds, MIN_CALLS, || {
        let start = Instant::now();
        let (scored, report) = match_catalog(&inputs.trained, &inputs.catalog.records, &inputs.cfg);
        let wall = start.elapsed().as_secs_f64();
        walls.push(wall);
        rates.push(scored.len() as f64 / wall);
        if first.is_none() {
            first = Some(scored.clone());
        }
        last = Some((scored, report));
    });
    let (scored, report) = last.expect("at least one timed call");
    assert_share(opts, &report)?;
    out.backend = report.backend.clone();

    // Calls are deterministic: the first and last must agree bit for bit.
    let first = first.expect("at least one timed call");
    out.ledger.check(
        first.len() == scored.len()
            && first
                .iter()
                .zip(&scored)
                .all(|(a, b)| a.prob.to_bits() == b.prob.to_bits()),
        || "repeated match_catalog calls disagree".to_string(),
    );
    check_outputs(opts, &inputs, &scored, &mut out)?;

    let walls_ms = sorted(walls.iter().map(|w| w * 1e3).collect());
    let tail = supported_tail(&walls_ms);
    out.metrics.put("setup_s", setup_s);
    out.metrics.put("pairs_per_s", median(&rates));
    out.metrics.put("lat_p50_ms", percentile(&walls_ms, 0.5));
    out.metrics.put("lat_tail_ms", tail.value);
    out.metrics.put("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "timed: {} match_catalog calls of {} pairs; lat_tail_ms is the p{:.0} of {} samples; encode share {:.3}, score share {:.3}, cache hit rate {:.3}",
        walls.len(),
        scored.len(),
        tail.q * 100.0,
        walls.len(),
        report.encode_secs / report.total_secs,
        report.score_secs / report.total_secs,
        report.cache_hit_rate
    ));
    out.notes.push(format!(
        "call wall ms: {:?}",
        walls.iter().map(|w| (w * 1e3).round()).collect::<Vec<_>>()
    ));
    Ok(out)
}

/// The traced run: one untraced and one profiled `match_catalog` call, then
/// the layer probes on the same inputs.
pub fn trace(opts: &Options, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (inputs, _) = repeated_setup(opts, || build(opts))?;
    assert_shape(opts, &inputs)?;
    describe(&mut out, &inputs);
    let records = &inputs.catalog.records;
    let m = &mut out.metrics;

    // Untraced call: the catalog.* stage table and the wall-time identity.
    let start = Instant::now();
    let (scored, report) = rec.scope("catalog.match_catalog", 0, |_| {
        match_catalog(&inputs.trained, records, &inputs.cfg)
    });
    let wall = start.elapsed().as_secs_f64();
    assert_share(opts, &report)?;
    out.backend = report.backend.clone();
    let stages =
        report.blocking_secs + report.tokenize_secs + report.encode_secs + report.score_secs;
    let other_s = (report.total_secs - stages).max(0.0);
    if ((stages + other_s) / wall - 1.0).abs() > 0.05 {
        return Err(format!(
            "catalog stages sum to {:.4}s but the call took {wall:.4}s",
            stages + other_s
        ));
    }
    m.put("catalog.blocking_s", report.blocking_secs);
    m.put("catalog.tokenize_s", report.tokenize_secs);
    m.put("catalog.encode_s", report.encode_secs);
    m.put("catalog.score_s", report.score_secs);
    m.put("catalog.other_s", other_s);
    m.put(
        "catalog.encode_share",
        report.encode_secs / report.total_secs,
    );
    m.put("catalog.score_share", report.score_secs / report.total_secs);
    m.put("catalog.encodes", report.encodes as f64);
    m.put("catalog.encodes_per_pair", report.encodes_per_pair);
    m.put(
        "catalog.matches_share",
        report.matches as f64 / report.scored_pairs.max(1) as f64,
    );

    // Profiled call: where the encode and score stages spend their time.
    let pool_before = pool::stats();
    prof::reset();
    prof::enable(true);
    let start = Instant::now();
    let (_, traced_report) = rec.scope("catalog.match_catalog.profiled", 1, |_| {
        match_catalog(&inputs.trained, records, &inputs.cfg)
    });
    let traced_wall = start.elapsed().as_secs_f64();
    prof::enable(false);
    let profile = prof::report();
    let scope = TensorScope {
        keep: &|_| true,
        phase_wall_s: traced_report.encode_secs + traced_report.score_secs,
        int8: opts.workload == Workload::CatalogSparseInt8,
    };
    if let Some(problem) = tensor_ledger(m, &profile, &scope, pool_before) {
        out.ledger.check(false, || problem);
    }
    let coverage = m
        .get("tensor.op_coverage")
        .expect("recorded by tensor_ledger");
    if !opts.tiny && coverage < 0.9 {
        return Err(format!(
            "profiler ops cover {coverage:.3} of the encode + score stages, below 0.9"
        ));
    }
    // The first full-size call also grows the heap, so the untraced baseline
    // is the mean of a call before and a call after the profiled one.
    let start = Instant::now();
    rec.scope("catalog.match_catalog", 2, |_| {
        match_catalog(&inputs.trained, records, &inputs.cfg)
    });
    let baseline = (wall + start.elapsed().as_secs_f64()) / 2.0;
    m.put("bench.trace_overhead_share", traced_wall / baseline - 1.0);

    let int8_delta = check_outputs(opts, &inputs, &scored, &mut out)?;
    let m = &mut out.metrics;
    if let Some((max_abs, flips)) = int8_delta {
        m.put("catalog.int8_max_abs_dprob", max_abs);
        m.put("catalog.int8_decision_flips", flips as f64);
    }

    // Layer probes on the same records and candidates.
    layers::blocking(rec, m, &inputs.catalog, &inputs.blocking);
    let refs: Vec<&Record> = records.iter().collect();
    let joined: Vec<(&Record, &Record)> = scored
        .iter()
        .take(2000)
        .map(|p| (&records[p.i], &records[p.j]))
        .collect();
    layers::tokenizer(rec, m, &inputs.trained, &refs, &joined, true);
    let ids: Vec<Vec<usize>> = records
        .iter()
        .map(|r| inputs.trained.pipeline.encode_single_record(r))
        .collect();
    let candidates: Vec<(usize, usize)> = scored.iter().map(|p| (p.i, p.j)).collect();
    let encode_order = layers::replay_windows(
        rec,
        m,
        &ids,
        &candidates,
        inputs.cfg.score_chunk,
        inputs.cfg.cache_capacity,
    );
    out.ledger
        .check(encode_order.len() as u64 == report.encodes, || {
            format!(
                "replay encoded {} records, match_catalog {}",
                encode_order.len(),
                report.encodes
            )
        });
    let probe = layers::split_path(
        rec,
        m,
        &inputs.trained,
        &ids,
        &encode_order,
        &candidates,
        inputs.cfg.backend,
    );
    m.put(
        "catalog.encode_overhead_ratio",
        report.encode_secs / probe.encode_s,
    );
    m.put(
        "catalog.score_overhead_ratio",
        report.score_secs / probe.score_s,
    );
    out.ledger.check(probe.nonfinite == 0, || {
        format!("{} non-finite probe probabilities", probe.nonfinite)
    });

    out.notes.extend(kernels::probe(m));
    Ok(out)
}

/// The f32 probabilities of a catalog workload's candidates at full size:
/// what `regen-golden` commits.
pub fn f32_reference(workload: Workload, seed: u64) -> Result<Vec<ScoredPair>, String> {
    let opts = Options {
        workload,
        seed,
        seconds: 0.0,
        trace: false,
        tiny: false,
    };
    let inputs = build(&opts)?;
    assert_shape(&opts, &inputs)?;
    let cfg = CatalogMatchConfig {
        backend: BackendKind::F32,
        ..inputs.cfg.clone()
    };
    Ok(match_catalog(&inputs.trained, &inputs.catalog.records, &cfg).0)
}
