//! `serve_open_f32`: one `ServeEngine` driven by one generator thread.
//!
//! Traffic is the shuffled blocking candidates of a generated catalog, so
//! records repeat across requests the way deduplication traffic does, and
//! the cache holds half the records: the working set is twice the cache, so
//! insert and rotation work never stops.
//!
//! Independent callers make an open loop: the end-to-end run sends at the
//! fixed rate [`RATE_HI`] for 55% of `--seconds`, timing each request from
//! the instant it was due to the instant the generator sees its reply
//! (`lat_p50_ms`, `lat_tail_ms`), then runs a closed loop with
//! [`OUTSTANDING`] requests in flight for another 40% to find capacity
//! (`pairs_per_s`). The traced run adds the lower rate [`RATE_MID`], a rate
//! ladder, and probes that drive `ServeCore` directly.

use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use emba_core::{record_content_hash, record_hash, CatalogScorer, Checkpoint, TrainedMatcher};
use emba_datagen::Record;
use emba_serve::{
    Clock, MatchOutcome, MatchResponse, ServeClient, ServeConfig, ServeCore, ServeEngine,
    ServerSnapshot, SystemClock,
};
use emba_tensor::{pool, prof, BackendKind};
use emba_trace::metrics::HistogramSummary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::kernels;
use crate::layers;
use crate::loadgen::{closed_loop, open_loop, schedule, Reply, Sample, Status, Target};
use crate::registry::MetricSet;
use crate::run::{repeated_setup, tensor_ledger, Options, Outcome, TensorScope};
use crate::setup::{
    choose_sparse_blocking, matcher_for_records, peak_rss_mb, sized_catalog, MODEL, NUM_CLASSES,
};
use crate::spans::Recorder;
use crate::stats::{percentile, sorted, supported_tail};

/// Lower open-loop rate, requests per second (traced run only).
pub const RATE_MID: f64 = 40.0;
/// Higher open-loop rate, requests per second; the end-to-end latency rate.
/// About a seventh of closed-loop capacity on purpose: at 150 req/s a flush
/// often waits behind the previous one, which amplifies every slow phase of
/// a shared machine (two run sets of the same code, minutes apart, differed
/// by 31 % in p99); at 75 a batch fills in 427 ms and is flushed alone.
pub const RATE_HI: f64 = 75.0;
/// The rate ladder of `serve.max_ok_rate`, requests per second.
pub const LADDER: [f64; 5] = [40.0, 75.0, 150.0, 300.0, 600.0];
/// Requests in flight in the closed loop.
pub const OUTSTANDING: usize = 64;
/// Deadline budget of every request: the latency limit. A request not
/// answered with a score within it counts as failed. The engine flushes a
/// partial batch once its oldest request has spent half its budget and
/// keeps the other half as the scoring reserve; a flush of 32 all-miss
/// pairs takes ~150 ms here and a request can wait behind one flush and be
/// answered by the next, so any budget under ~700 ms fails requests whenever
/// the machine has a slow phase. One second keeps the workload failure-free.
pub const BUDGET_NS: u64 = 1_000_000_000;
/// Largest accepted |served - `CatalogScorer::score`| on one oriented pair.
pub const ORACLE_TOLERANCE: f64 = 1e-5;
/// Requests compared against the oracle per run.
const ORACLE_SAMPLES: usize = 128;
/// Accepted steady-state cache hit rate.
pub const HIT_RATE_BAND: (f64, f64) = (0.25, 0.65);
/// Generator lateness (p90) above which a run prints a warning. It does not
/// fail the run: on a quiet machine p99 lateness is 0.3 ms, but on a shared
/// one the generator thread is descheduled for 10-60 ms now and then and,
/// in a bad minute, for 20 ms at p90. Latency is timed from the due
/// instant, so it already contains the lateness; failing the run would only
/// turn a neighbour's load into a rejected benchmark.
pub const WARN_LATE_MS_P90: f64 = 5.0;
/// How long the generator sleeps when nothing is due. One millisecond, not
/// less: on a 2-vCPU machine a generator that wakes every 100 us disturbs
/// the worker it is measuring (closed-loop capacity over 8 alternating runs:
/// 429-633 pairs/s at 100 us, 518-590 at 1 ms). The price is up to 1 ms of
/// lateness and of reply-observation delay on latencies of ~300 ms.
const IDLE: Duration = Duration::from_millis(1);

/// The (mid, hi) open-loop rates. The tiny size runs unoptimised under
/// `cargo test`, where the real rates would overload the engine.
fn rates(tiny: bool) -> (f64, f64) {
    if tiny {
        (10.0, 40.0)
    } else {
        (RATE_MID, RATE_HI)
    }
}

fn outstanding(tiny: bool) -> usize {
    if tiny {
        OUTSTANDING / 4
    } else {
        OUTSTANDING
    }
}

/// Records in the traffic catalog.
pub fn records(tiny: bool) -> usize {
    if tiny {
        100
    } else {
        1200
    }
}

/// Most requests any one record may appear in. Blocking candidates are
/// skewed (a record with a common token has hundreds of candidates); left
/// alone, the skew decides the cache hit rate and through it capacity, and it
/// moves by 2x between seeds. Capping the degree keeps popularity near
/// uniform, so the hit rate is set by the cache size.
pub const MAX_DEGREE: usize = 12;
/// Traffic pairs per record.
pub const PAIRS_PER_RECORD: usize = 3;

struct Inputs {
    records: Vec<Record>,
    /// Request `k` is the oriented pair `pairs[k % pairs.len()]`.
    pairs: Vec<(usize, usize)>,
    trained: TrainedMatcher,
    checkpoint: Checkpoint,
    cfg: ServeConfig,
    clock: Arc<SystemClock>,
    engine: ServeEngine,
}

impl Inputs {
    fn pair(&self, request: usize) -> (usize, usize) {
        self.pairs[request % self.pairs.len()]
    }
}

/// Everything before the first timed request: catalog, tokenizer, model,
/// traffic, checkpoint capture, engine start, and a warm-up of four batches
/// taken from the end of the traffic.
fn build(opts: &Options) -> Result<Inputs, String> {
    let catalog = sized_catalog("serve", records(opts.tiny), opts.seed)?;
    let trained = matcher_for_records(&catalog.records);
    let chosen = choose_sparse_blocking(&catalog, 6 * PAIRS_PER_RECORD * catalog.len());
    // Orient each pair the way `CatalogScorer` does, so the served
    // probability can be compared with it on the same oriented pair.
    let hashes: Vec<u64> = catalog
        .records
        .iter()
        .map(|r| record_hash(&trained.pipeline.encode_single_record(r)))
        .collect();
    let mut candidates: Vec<(usize, usize)> = chosen
        .candidates
        .iter()
        .map(|&(i, j)| {
            if hashes[i] <= hashes[j] {
                (i, j)
            } else {
                (j, i)
            }
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5eed_7aff);
    for k in (1..candidates.len()).rev() {
        candidates.swap(k, rng.gen_range(0..=k));
    }
    // Shuffled candidates, degree-capped, cut to a fixed length.
    let want = PAIRS_PER_RECORD * catalog.len();
    let mut degree = vec![0usize; catalog.len()];
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(want);
    for (i, j) in candidates {
        if pairs.len() < want && degree[i] < MAX_DEGREE && degree[j] < MAX_DEGREE {
            degree[i] += 1;
            degree[j] += 1;
            pairs.push((i, j));
        }
    }
    if pairs.len() < want {
        return Err(format!(
            "only {} of {want} traffic pairs under the degree cap",
            pairs.len()
        ));
    }
    let cfg = ServeConfig {
        cache_capacity: (catalog.len() / 2).max(2),
        backend: BackendKind::F32,
        ..ServeConfig::default()
    };
    let checkpoint = Checkpoint::capture(&trained, MODEL, NUM_CLASSES);
    let clock = Arc::new(SystemClock::new());
    let engine = ServeEngine::start(checkpoint.clone(), cfg.clone(), clock.clone())
        .map_err(|e| e.to_string())?;
    let inputs = Inputs {
        records: catalog.records,
        pairs,
        trained,
        checkpoint,
        cfg,
        clock,
        engine,
    };
    // Warm-up: four batches from the tail of the traffic, submitted at once.
    // It fills the worker's scratch pool and the first fifth of the cache. A
    // cold cache answers ~200 requests per second, so warming it fully would
    // take longer than everything else in set-up; the open phase runs at a
    // quarter of capacity and absorbs the remaining misses.
    let warm = 4 * inputs.cfg.max_batch;
    let mut target = EngineTarget::new(&inputs);
    for k in 0..warm {
        target.submit(inputs.pairs.len().saturating_sub(warm) + k);
    }
    let mut replies = Vec::new();
    let started = Instant::now();
    while replies.len() < warm && started.elapsed() < Duration::from_secs(30) {
        target.poll(&mut replies);
        std::thread::sleep(IDLE);
    }
    if replies.len() < warm {
        return Err(format!(
            "warm-up: {} of {warm} requests answered",
            replies.len()
        ));
    }
    drop(target);
    Ok(inputs)
}

/// The engine as the generator sees it.
struct EngineTarget<'a> {
    client: ServeClient,
    inputs: &'a Inputs,
    waiting: Vec<(usize, Receiver<MatchResponse>)>,
    /// Receivers of answered requests, kept to detect a second answer.
    answered: Vec<Receiver<MatchResponse>>,
}

impl<'a> EngineTarget<'a> {
    fn new(inputs: &'a Inputs) -> Self {
        Self {
            client: inputs.engine.client(),
            inputs,
            waiting: Vec::new(),
            answered: Vec::new(),
        }
    }

    /// Requests that received more than one answer.
    fn duplicates(&self) -> usize {
        self.answered
            .iter()
            .filter(|rx| rx.try_recv().is_ok())
            .count()
    }
}

impl Target for EngineTarget<'_> {
    fn submit(&mut self, index: usize) {
        let (i, j) = self.inputs.pair(index);
        let rx = self
            .client
            .submit(&self.inputs.records[i], &self.inputs.records[j], BUDGET_NS);
        self.waiting.push((index, rx));
    }

    fn poll(&mut self, out: &mut Vec<Reply>) {
        let mut k = 0;
        while k < self.waiting.len() {
            let reply = match self.waiting[k].1.try_recv() {
                Ok(resp) => {
                    let status = match resp.outcome {
                        MatchOutcome::Scored { prob, .. } => Status::Scored(prob),
                        _ => Status::Refused,
                    };
                    Reply {
                        index: self.waiting[k].0,
                        status,
                        flush_ns: resp.completed_ns,
                    }
                }
                Err(TryRecvError::Empty) => {
                    k += 1;
                    continue;
                }
                Err(TryRecvError::Disconnected) => Reply {
                    index: self.waiting[k].0,
                    status: Status::Lost,
                    flush_ns: 0,
                },
            };
            let (_, rx) = self.waiting.swap_remove(k);
            self.answered.push(rx);
            out.push(reply);
        }
    }
}

/// One measured phase.
struct Phase {
    samples: Vec<Sample>,
    /// First send to last reply, seconds.
    span_s: f64,
}

impl Phase {
    fn new(samples: Vec<Sample>) -> Self {
        let first = samples.iter().map(|s| s.sent_ns).min().unwrap_or(0);
        let last = samples.iter().map(|s| s.done_ns).max().unwrap_or(first);
        Self {
            samples,
            span_s: last.saturating_sub(first) as f64 / 1e9,
        }
    }

    fn ok(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.ok(BUDGET_NS))
    }

    /// Latencies (ms, ascending) of the requests answered within the limit.
    fn latencies(&self) -> Vec<f64> {
        sorted(self.ok().map(Sample::latency_ms).collect())
    }

    /// Requests sent per second between the first and the last send.
    fn send_rate(&self) -> f64 {
        let first = self.samples.iter().map(|s| s.sent_ns).min().unwrap_or(0);
        let last = self
            .samples
            .iter()
            .map(|s| s.sent_ns)
            .max()
            .unwrap_or(first);
        (self.samples.len().max(1) - 1) as f64 / ((last - first) as f64 / 1e9).max(1e-9)
    }

    fn ok_share(&self) -> f64 {
        self.ok().count() as f64 / self.samples.len().max(1) as f64
    }

    fn ok_per_s(&self) -> f64 {
        self.ok().count() as f64 / self.span_s.max(1e-9)
    }
}

/// Drives the engine through its phases on one generator thread, keeping a
/// running request index so phases walk on through the traffic.
struct Driver<'a> {
    inputs: &'a Inputs,
    target: EngineTarget<'a>,
    next: usize,
    all: Vec<(usize, Sample)>,
}

impl<'a> Driver<'a> {
    fn new(inputs: &'a Inputs) -> Self {
        Self {
            inputs,
            target: EngineTarget::new(inputs),
            next: 0,
            all: Vec::new(),
        }
    }

    /// Moves the request index past a phase; `counted` phases also enter the
    /// failure ledger.
    fn record(&mut self, base: usize, samples: &[Sample], counted: bool) {
        self.next = base + samples.len();
        if counted {
            self.all
                .extend(samples.iter().enumerate().map(|(k, s)| (base + k, *s)));
        }
    }

    /// An open-loop phase. `counted` phases enter the failure ledger; the
    /// rate ladder, which overloads the engine on purpose, does not.
    fn open(&mut self, rate: f64, seconds: f64, counted: bool) -> Phase {
        let clock: &dyn Clock = &*self.inputs.clock;
        let count = ((rate * seconds) as usize).max(4);
        // The schedule runs one batch past the measured requests: without
        // the padding the last partial batch of a phase waits out the
        // half-budget flush rule, an end-of-phase artefact that would own
        // the p99. Padding requests are checked like any other but are not
        // in the phase's latency samples.
        let dues = schedule(
            clock.now_ns() + 2_000_000,
            rate,
            count + self.inputs.cfg.max_batch,
        );
        let base = self.next;
        let mut samples = open_loop(
            clock,
            &mut self.target,
            base,
            &dues,
            40 * BUDGET_NS,
            &mut || std::thread::sleep(IDLE),
        );
        self.record(base, &samples, counted);
        samples.truncate(count);
        Phase::new(samples)
    }

    fn closed(&mut self, seconds: f64, outstanding: usize) -> Phase {
        let clock: &dyn Clock = &*self.inputs.clock;
        let end = clock.now_ns() + (seconds * 1e9) as u64;
        let base = self.next;
        let samples = closed_loop(
            clock,
            &mut self.target,
            base,
            outstanding,
            end,
            40 * BUDGET_NS,
            &mut || std::thread::sleep(IDLE),
        );
        self.record(base, &samples, true);
        Phase::new(samples)
    }
}

/// Counts every request against the deadline, compares a sample of served
/// probabilities with `CatalogScorer::score`, and looks for second answers.
fn check(inputs: &Inputs, driver: &Driver<'_>, out: &mut Outcome) {
    for (index, s) in &driver.all {
        out.ledger.check(s.ok(BUDGET_NS), || {
            format!(
                "request {index}: {:?} after {:.1} ms, {} replies",
                s.status,
                s.latency_ms(),
                s.replies
            )
        });
    }
    let dupes = driver.target.duplicates();
    out.ledger
        .check(dupes == 0, || format!("{dupes} requests answered twice"));
    let mut scorer = CatalogScorer::new(&inputs.trained, 2 * ORACLE_SAMPLES + 2);
    let stride = (driver.all.len() / ORACLE_SAMPLES).max(1);
    let mut worst = 0.0f64;
    for (index, s) in driver.all.iter().step_by(stride) {
        let Status::Scored(prob) = s.status else {
            continue;
        };
        let (i, j) = inputs.pair(*index);
        let want = scorer.score(&inputs.records[i], &inputs.records[j]);
        let d = (f64::from(prob) - f64::from(want)).abs();
        worst = worst.max(d);
        out.ledger.check(d <= ORACLE_TOLERANCE, || {
            format!("request {index}: served {prob}, CatalogScorer {want}")
        });
    }
    out.notes.push(format!(
        "oracle: max |served - CatalogScorer::score| = {worst:.2e} (limit {ORACLE_TOLERANCE:.0e})"
    ));
}

/// How late the generator ran over the open-loop phases: (p90, p99) in ms.
fn lateness(open_phases: &[&Phase]) -> (f64, f64) {
    let late = sorted(
        open_phases
            .iter()
            .flat_map(|p| p.samples.iter().map(Sample::late_ms))
            .collect(),
    );
    (percentile(&late, 0.9), percentile(&late, 0.99))
}

fn assert_shape(
    opts: &Options,
    snapshot: &ServerSnapshot,
    late_p90: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    if opts.tiny {
        return Ok(());
    }
    if !(HIT_RATE_BAND.0..=HIT_RATE_BAND.1).contains(&snapshot.cache_hit_rate) {
        return Err(format!(
            "cache hit rate {:.3} outside {HIT_RATE_BAND:?}",
            snapshot.cache_hit_rate
        ));
    }
    if late_p90 >= WARN_LATE_MS_P90 {
        out.notes.push(format!(
            "WARNING: the load generator ran {late_p90:.2} ms late at p90: the machine is contended and the latencies include that"
        ));
    }
    Ok(())
}

fn describe(out: &mut Outcome, inputs: &Inputs) {
    out.size("records", inputs.records.len());
    out.size("traffic_pairs", inputs.pairs.len());
    out.size("cache_capacity", inputs.cfg.cache_capacity);
    out.size("max_batch", inputs.cfg.max_batch);
    out.size("budget_ms", (BUDGET_NS / 1_000_000) as usize);
    out.size("rate_mid", RATE_MID as usize);
    out.size("rate_hi", RATE_HI as usize);
    out.size("outstanding", OUTSTANDING);
}

/// The end-to-end run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (inputs, setup_s) = repeated_setup(opts, || build(opts))?;
    describe(&mut out, &inputs);
    let mut driver = Driver::new(&inputs);
    let hi = driver.open(rates(opts.tiny).1, 0.55 * opts.seconds, true);
    let sat = driver.closed(0.4 * opts.seconds, outstanding(opts.tiny));
    let snapshot = inputs.engine.snapshot().map_err(|e| e.to_string())?;
    let (late_p90, late_p99) = lateness(&[&hi]);
    assert_shape(opts, &snapshot, late_p90, &mut out)?;
    out.backend = snapshot.backend.clone();
    check(&inputs, &driver, &mut out);

    let lat = hi.latencies();
    if lat.is_empty() {
        return Err(
            "no request of the open-loop phase was answered within its deadline".to_string(),
        );
    }
    let tail = supported_tail(&lat);
    out.metrics.put("setup_s", setup_s);
    out.metrics.put("pairs_per_s", sat.ok_per_s());
    out.metrics.put("lat_p50_ms", percentile(&lat, 0.5));
    out.metrics.put("lat_tail_ms", tail.value);
    out.metrics.put("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "open loop {RATE_HI} req/s: {} sent, {} within {} ms; lat_tail_ms is p{:.0} with {} samples beyond; generator p99 lateness {late_p99:.3} ms",
        hi.samples.len(),
        lat.len(),
        BUDGET_NS / 1_000_000,
        tail.q * 100.0,
        tail.beyond
    ));
    out.notes.push(format!(
        "closed loop {OUTSTANDING} outstanding: {} answered in {:.2} s; cache hit rate {:.3}, {} flushes, peak queue {}",
        sat.samples.len(),
        sat.span_s,
        snapshot.cache_hit_rate,
        snapshot.flushes,
        snapshot.peak_queue_depth
    ));
    Ok(out)
}

/// Flush timings from driving a fresh `ServeCore` directly with the first
/// `requests` of the traffic, one full batch per `poll`.
fn drive_core(
    inputs: &Inputs,
    requests: usize,
    profiled: bool,
) -> Result<(Vec<f64>, usize), String> {
    let trained = inputs.checkpoint.restore().map_err(|e| e.to_string())?;
    let mut core = ServeCore::new(trained, inputs.cfg.clone()).map_err(|e| e.to_string())?;
    let clock: &dyn Clock = &*inputs.clock;
    let mut flush_ms = Vec::new();
    let mut answered = 0;
    if profiled {
        prof::reset();
        prof::enable(true);
    }
    for start in (0..requests).step_by(inputs.cfg.max_batch) {
        let chunk = start..(start + inputs.cfg.max_batch).min(requests);
        let full = chunk.len() == inputs.cfg.max_batch;
        let now = clock.now_ns();
        for k in chunk {
            let (i, j) = inputs.pair(k);
            core.enqueue(
                k as u64,
                inputs.records[i].clone(),
                inputs.records[j].clone(),
                now,
                now + 100 * BUDGET_NS,
            );
        }
        let start = Instant::now();
        // A full batch is due at once; only the partial tail needs `drain`.
        let responses = if full {
            core.poll(clock.now_ns())
        } else {
            core.drain(clock.now_ns())
        };
        flush_ms.push(start.elapsed().as_secs_f64() * 1e3);
        answered += responses
            .iter()
            .filter(|r| matches!(r.outcome, MatchOutcome::Scored { .. }))
            .count();
    }
    if profiled {
        prof::enable(false);
    }
    Ok((flush_ms, answered))
}

/// `enc_cache.*` for the served stream: replays the requests' content keys
/// through a cache of the engine's capacity, one flush-sized chunk at a time.
fn replay_cache(m: &mut MetricSet, inputs: &Inputs, requests: usize) {
    let keys: Vec<u64> = inputs.records.iter().map(record_content_hash).collect();
    let mut cache = layers::CacheReplay::new(inputs.cfg.cache_capacity);
    for start in (0..requests).step_by(inputs.cfg.max_batch) {
        let mut seen = HashSet::new();
        let mut misses = Vec::new();
        for k in start..(start + inputs.cfg.max_batch).min(requests) {
            let (i, j) = inputs.pair(k);
            for key in [keys[i], keys[j]] {
                if seen.insert(key) && !cache.lookup(key) {
                    misses.push(key);
                }
            }
        }
        for key in misses {
            cache.insert(key);
        }
    }
    cache.put(m);
}

/// Records the per-request spans of one open-loop phase: `request` (due to
/// reply) with children `wait` (due to flush start) and `service` (flush
/// start to reply). Returns the largest relative gap between wait + service
/// and the client latency.
fn request_spans(rec: &mut Recorder, base: usize, phase: &Phase) -> f64 {
    let mut worst = 0.0f64;
    for (k, s) in phase
        .samples
        .iter()
        .enumerate()
        .filter(|(_, s)| s.ok(BUDGET_NS))
    {
        let id = (base + k) as u64;
        let flush = s.flush_ns.clamp(s.due_ns, s.done_ns);
        let root = rec.push("serve.request", id, s.due_ns, s.done_ns, None);
        rec.push("serve.wait", id, s.due_ns, flush, Some(root));
        rec.push("serve.service", id, flush, s.done_ns, Some(root));
        let latency = s.latency_ms();
        if latency > 0.0 {
            worst = worst.max(((s.wait_ms() + s.service_ms()) / latency - 1.0).abs());
        }
    }
    worst
}

/// Median of the samples a cumulative registry histogram gained between two
/// snapshots: the upper edge of the bucket holding the middle sample, which
/// is all the histogram can say.
fn histogram_p50(before: &HistogramSummary, after: &HistogramSummary) -> f64 {
    let gained: Vec<u64> = after
        .bucket_counts
        .iter()
        .enumerate()
        .map(|(k, &n)| n - before.bucket_counts.get(k).copied().unwrap_or(0))
        .collect();
    let half = gained.iter().sum::<u64>().div_ceil(2);
    let mut seen = 0;
    for (k, n) in gained.iter().enumerate() {
        seen += n;
        if seen >= half && half > 0 {
            return after
                .bounds
                .get(k)
                .or(after.bounds.last())
                .copied()
                .unwrap_or(0.0);
        }
    }
    0.0
}

fn p50(xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        percentile(&sorted(xs), 0.5)
    }
}

/// The traced run.
pub fn trace(opts: &Options, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (inputs, _) = repeated_setup(opts, || build(opts))?;
    describe(&mut out, &inputs);
    let mut driver = Driver::new(&inputs);
    let mid_base = driver.next;
    let mid = driver.open(rates(opts.tiny).0, 0.3 * opts.seconds, true);
    let hi_base = driver.next;
    let before_hi = inputs.engine.snapshot().map_err(|e| e.to_string())?;
    let hi = driver.open(rates(opts.tiny).1, 0.3 * opts.seconds, true);
    let after_hi = inputs.engine.snapshot().map_err(|e| e.to_string())?;
    let sat = driver.closed(0.15 * opts.seconds, outstanding(opts.tiny));
    let snapshot = inputs.engine.snapshot().map_err(|e| e.to_string())?;
    let (late_p90, late_p99) = lateness(&[&mid, &hi]);
    assert_shape(opts, &snapshot, late_p90, &mut out)?;
    out.backend = snapshot.backend.clone();
    check(&inputs, &driver, &mut out);
    // The ladder runs last and outside the ledger: its upper rungs overload
    // the engine on purpose.
    let mut max_ok_rate = 0.0;
    let mut rungs = Vec::new();
    for rate in LADDER
        .into_iter()
        .take(if opts.tiny { 1 } else { LADDER.len() })
    {
        let rung = driver.open(rate, 0.04 * opts.seconds, false);
        rungs.push(format!("{rate:.0}/s {:.1}%", 100.0 * rung.ok_share()));
        if rung.ok_share() < 0.99 {
            break; // past capacity: the backlog would poison the next rung
        }
        max_ok_rate = rate;
    }
    out.notes.push(format!(
        "rate ladder (share answered within {} ms): {}",
        BUDGET_NS / 1_000_000,
        rungs.join(", ")
    ));

    let gap = request_spans(rec, mid_base, &mid).max(request_spans(rec, hi_base, &hi));
    if gap > 0.01 {
        return Err(format!(
            "wait + service differs from client latency by {:.2}%",
            100.0 * gap
        ));
    }

    let m = &mut out.metrics;
    let (lat_mid, lat_hi) = (mid.latencies(), hi.latencies());
    if lat_mid.is_empty() || lat_hi.is_empty() {
        return Err("an open-loop phase had no request answered within its deadline".to_string());
    }
    m.put("serve.lat_p50_ms_mid", percentile(&lat_mid, 0.5));
    m.put("serve.lat_p99_ms_mid", supported_tail(&lat_mid).value);
    m.put("serve.lat_p50_ms_hi", percentile(&lat_hi, 0.5));
    m.put("serve.lat_p99_ms_hi", supported_tail(&lat_hi).value);
    m.put("serve.sat_pairs_per_s", sat.ok_per_s());
    m.put(
        "serve.queue_wait_ms_p50_mid",
        p50(mid.ok().map(Sample::wait_ms).collect()),
    );
    m.put(
        "serve.queue_wait_ms_p50_hi",
        p50(hi.ok().map(Sample::wait_ms).collect()),
    );
    m.put(
        "serve.service_ms_p50_mid",
        p50(mid.ok().map(Sample::service_ms).collect()),
    );
    m.put(
        "serve.service_ms_p50_hi",
        p50(hi.ok().map(Sample::service_ms).collect()),
    );
    m.put(
        "serve.submit_ns_p50",
        p50(driver.all.iter().map(|(_, s)| s.submit_ns as f64).collect()),
    );
    // Exact batch sizes: requests answered by one flush share its start time.
    let mut per_flush: HashMap<u64, usize> = HashMap::new();
    for (_, s) in driver.all.iter().filter(|(_, s)| s.replies > 0) {
        *per_flush.entry(s.flush_ns).or_default() += 1;
    }
    m.put("serve.flushes", snapshot.flushes as f64);
    m.put(
        "serve.mean_batch",
        snapshot.enqueued as f64 / snapshot.flushes.max(1) as f64,
    );
    m.put(
        "serve.batch_p50",
        p50(per_flush.values().map(|&n| n as f64).collect()),
    );
    m.put("serve.encodes", snapshot.encodes as f64);
    m.put("serve.cache_hit_rate", snapshot.cache_hit_rate);
    m.put("serve.peak_queue_depth", snapshot.peak_queue_depth as f64);
    m.put("serve.expired", snapshot.expired as f64);
    m.put("serve.rejected", snapshot.rejected as f64);
    m.put("serve.shed", snapshot.shed as f64);
    m.put("serve.failed", snapshot.failed as f64);
    m.put("serve.max_ok_rate", max_ok_rate);
    // The engine's own latency histogram over the `hi` phase against what
    // its clients saw: the engine stamps a reply with the flush START and
    // reads a power-of-two bucket edge (README, "Serve clock audit").
    let engine_p50_ns = histogram_p50(&before_hi.request_latency, &after_hi.request_latency);
    m.put(
        "serve.snapshot_p50_ratio",
        engine_p50_ns / (1e6 * percentile(&lat_hi, 0.5)),
    );
    m.put("loadgen.sent", driver.all.len() as f64);
    m.put("loadgen.achieved_rate_mid", mid.send_rate());
    m.put("loadgen.achieved_rate_hi", hi.send_rate());
    m.put("loadgen.late_ms_p99", late_p99);
    let sent = driver.all.len();

    // Probes that drive the layers directly on the same stream.
    let probe_requests = sent.min(if opts.tiny { 96 } else { 768 });
    // The scratch pool is per thread and this thread has not run the model
    // yet: one short discarded pass, so both timed passes start warm.
    drive_core(&inputs, probe_requests.min(4 * inputs.cfg.max_batch), false)?;
    let (flush_ms, answered) = rec.scope("serve.core.drive", 0, |_| {
        drive_core(&inputs, probe_requests, false)
    })?;
    out.ledger.check(answered == probe_requests, || {
        format!("direct drive scored {answered} of {probe_requests}")
    });
    let m = &mut out.metrics;
    m.put("serve.flush_ms_p50", p50(flush_ms.clone()));
    m.put(
        "serve.flush_ms_per_pair",
        flush_ms.iter().sum::<f64>() / probe_requests as f64,
    );
    let pool_before = pool::stats();
    let (traced_ms, _) = rec.scope("serve.core.drive.profiled", 1, |_| {
        drive_core(&inputs, probe_requests, true)
    })?;
    let profile = prof::report();
    let scope = TensorScope {
        keep: &|_| true,
        phase_wall_s: traced_ms.iter().sum::<f64>() / 1e3,
        int8: false,
    };
    if let Some(problem) = tensor_ledger(m, &profile, &scope, pool_before) {
        out.ledger.check(false, || problem);
    }
    let m = &mut out.metrics;
    m.put(
        "bench.trace_overhead_share",
        traced_ms.iter().sum::<f64>() / flush_ms.iter().sum::<f64>() - 1.0,
    );

    replay_cache(m, &inputs, sent);
    let split_requests = probe_requests / 2;
    let touched: Vec<usize> = {
        let mut seen = HashSet::new();
        (0..split_requests)
            .flat_map(|k| {
                let (i, j) = inputs.pair(k);
                [i, j]
            })
            .filter(|i| seen.insert(*i))
            .collect()
    };
    let refs: Vec<&Record> = touched.iter().map(|&i| &inputs.records[i]).collect();
    let joined: Vec<(&Record, &Record)> = (0..split_requests)
        .map(|k| inputs.pair(k))
        .map(|(i, j)| (&inputs.records[i], &inputs.records[j]))
        .collect();
    layers::tokenizer(rec, m, &inputs.trained, &refs, &joined, true);
    let ids: Vec<Vec<usize>> = inputs
        .records
        .iter()
        .map(|r| inputs.trained.pipeline.encode_single_record(r))
        .collect();
    let probe_pairs: Vec<(usize, usize)> = (0..split_requests).map(|k| inputs.pair(k)).collect();
    let probe = layers::split_path(
        rec,
        m,
        &inputs.trained,
        &ids,
        &touched,
        &probe_pairs,
        BackendKind::F32,
    );
    out.ledger.check(probe.nonfinite == 0, || {
        format!("{} non-finite probe probabilities", probe.nonfinite)
    });
    out.notes.extend(kernels::probe(&mut out.metrics));
    out.notes.push(format!(
        "phases: mid {} sent / {} ok, hi {} sent / {} ok, closed {} answered; generator p99 lateness {late_p99:.3} ms",
        mid.samples.len(),
        lat_mid.len(),
        hi.samples.len(),
        lat_hi.len(),
        sat.samples.len()
    ));
    Ok(out)
}
