//! The deterministic batching state machine behind the serving engine.
//!
//! [`ServeCore`] is single-threaded and time-blind: callers stamp every
//! operation with a `now_ns` from their [`crate::Clock`], so the whole
//! request → coalesce → flush → respond lifecycle is a pure function of the
//! (request, timestamp) sequence. The threaded [`crate::ServeEngine`] wraps
//! it behind an MPSC queue; tests drive it directly and replay exact
//! timelines.
//!
//! # Flush policy
//!
//! Pending requests coalesce until **either** trigger fires:
//!
//! - **fill** — `pending ≥ max_batch`: a full batch is ready, run it now;
//! - **deadline** — the oldest pending request has spent half its deadline
//!   budget (`now ≥ enqueued + (deadline − enqueued) / 2`): waiting longer
//!   gambles the remaining budget against scoring time, so flush while at
//!   least half of it is left.
//!
//! A flush drains up to `max_batch` requests in arrival order. Requests
//! whose deadline has already passed are answered [`MatchOutcome::Expired`]
//! without touching the backbone — every request is answered exactly once,
//! expired ones just skip the compute. Live requests go through the same
//! [`PairScorer`] as [`emba_core::match_catalog`] — one resolve step, one
//! score step per flush — and what is serving-specific stays here: the
//! cache is keyed by [`emba_core::record_content_hash`] so hits skip
//! tokenization entirely (tokenizing at lookup would put the tokenizer back
//! on every request's hot path), the span clock is sampled between the two
//! steps, and the whole thing runs under panic supervision. The scorer's
//! grouped launches are bit-identical across batch compositions, so a
//! request's probability does not depend on queue arrival order or on which
//! batch it lands in.
//!
//! # Admission control and load shedding
//!
//! The queue is bounded. Three shed layers keep overload from collapsing
//! into all-expired answers (see DESIGN.md §6i for the policy rationale):
//!
//! - **admission** — a request arriving at a full queue
//!   (`pending ≥ max_queue_depth`) is answered [`MatchOutcome::Rejected`]
//!   immediately, before it costs anything. Bounded queue ⇒ bounded memory
//!   and bounded worst-case wait.
//! - **high water** — when the queue exceeds `shed_high_water`, the
//!   requests with the **least remaining deadline budget** are shed first
//!   (also answered `Rejected`). Those are exactly the requests most likely
//!   to expire before service anyway, so the engine spends its compute on
//!   requests that can still make their deadlines — goodput degrades
//!   gracefully instead of the whole queue aging past its deadlines.
//! - **flush** — requests whose deadline has already passed are answered
//!   [`MatchOutcome::Expired`] before the encode stage, paying zero
//!   backbone work.
//!
//! # Worker supervision
//!
//! The scoring stage of every flush runs under [`std::panic::catch_unwind`].
//! A panic (poison record, corrupted state, injected fault) fails **only
//! that flush's live requests** — each is answered
//! [`MatchOutcome::Failed`] with the panic reason — and the batch's cache
//! entries are quarantined, since the fault may have been theirs. The core
//! then enters a **degraded** state: the matcher is suspect, so no further
//! scoring happens until it has been restored from the retained
//! [`RecoverySource`] (the startup checkpoint, or the newest valid store
//! snapshot). Restarts are retried with capped exponential backoff on the
//! caller's clock; while degraded, flushes still shed expired requests so
//! accounting never stalls, and live requests wait for the restart.
//! Non-finite probabilities (NaN weights) are cheaper faults: the request
//! is answered `Failed("non-finite probability")` and its cache entries
//! quarantined, but the matcher is not restarted — a checkpoint that
//! produces NaN would reproduce it after every restore.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use emba_core::{record_content_hash, Checkpoint, CheckpointStore, PairScorer, TrainedMatcher};
use emba_datagen::Record;
use emba_tensor::BackendKind;
use emba_trace::metrics::{self, Histogram, HistogramSummary, MetricsSnapshot};
use emba_trace::{write_postmortem, JsonlLogger, ServeSpanEvent, ServeSummary, SpanKind};
use serde::{Serialize, Value};

use crate::clock::Clock;
use crate::error::ServeError;
use crate::spans::{FlightRecorder, FlushTimeline};

/// Knobs for the serving engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush as soon as this many requests are pending; also the most a
    /// single flush drains.
    pub max_batch: usize,
    /// Maximum resident record encodings in the shared cache.
    pub cache_capacity: usize,
    /// Match-probability threshold for [`MatchOutcome::Scored::is_match`].
    pub threshold: f32,
    /// Enable the op-level profiler ([`emba_tensor::prof`]) on the serving
    /// thread; phase totals land in [`ServerSnapshot::profile_phases`].
    pub profile: bool,
    /// Hard queue bound: a request arriving while `pending` is at this
    /// depth is answered [`MatchOutcome::Rejected`] at admission. `0`
    /// disables the bound (not recommended for long-lived servers).
    pub max_queue_depth: usize,
    /// Deadline-aware shed threshold: when the queue exceeds this depth,
    /// the requests with the least remaining deadline budget are shed
    /// (answered `Rejected`) until the queue is back at the mark. `0`
    /// disables high-water shedding; must be ≤ `max_queue_depth` to ever
    /// fire.
    pub shed_high_water: usize,
    /// Initial delay before a degraded core attempts a matcher restart, in
    /// clock nanoseconds. Doubles after every panic or failed restart, up
    /// to [`ServeConfig::restart_backoff_max_ns`]; resets after a clean
    /// flush.
    pub restart_backoff_ns: u64,
    /// Ceiling on the restart backoff.
    pub restart_backoff_max_ns: u64,
    /// Record request-lifecycle span events (admission, queue wait, encode
    /// vs cache hit, score, reply) into the flight recorder and per-flush
    /// timelines. Off by default: with this off the request hot path
    /// records no spans and allocates nothing extra. Supervision
    /// transitions (degraded enter/exit, restarts, quarantines) are always
    /// recorded — they are rare and postmortems need them.
    pub trace_spans: bool,
    /// Flight-recorder ring capacity in span events; the ring is what a
    /// postmortem dump preserves. `0` keeps nothing.
    pub flight_recorder: usize,
    /// How many recent flush timelines to retain for the `/trace` endpoint
    /// (only populated when [`ServeConfig::trace_spans`] is on).
    pub recent_timelines: usize,
    /// Directory for flight-recorder postmortem dumps
    /// (`postmortem-NNNN.jsonl`), written when a panic-triggered
    /// degradation episode resolves or when `drain` fails queued requests.
    /// `None` disables dumps.
    pub postmortem_dir: Option<PathBuf>,
    /// JSONL file for serve lifecycle events (shed, expired, failed,
    /// degraded, restart, quarantine, postmortem) — the serving counterpart
    /// of the training run log. `None` disables the log.
    pub event_log: Option<PathBuf>,
    /// Kernel backend the scoring path runs under. `Int8` serves every
    /// flush through the post-training quantized GEMM path (weights are
    /// quantized by the split-path probe at construction and after every
    /// supervised restart, never inside a flush); `F32` is the
    /// full-precision default. Reported in [`ServerSnapshot::backend`] and
    /// `ServeSummary.backend`.
    pub backend: BackendKind,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            cache_capacity: 4096,
            threshold: 0.5,
            profile: false,
            max_queue_depth: 1024,
            shed_high_water: 768,
            restart_backoff_ns: 1_000_000,         // 1 ms
            restart_backoff_max_ns: 1_000_000_000, // 1 s
            trace_spans: false,
            flight_recorder: 1024,
            recent_timelines: 16,
            postmortem_dir: None,
            event_log: None,
            backend: BackendKind::F32,
        }
    }
}

/// How one request ended. (In-process only — the serializable serving
/// artifact is [`ServerSnapshot`]; the vendored serde stub has no
/// struct-variant support anyway.)
#[derive(Debug, Clone, PartialEq)]
pub enum MatchOutcome {
    /// The pair was scored before its deadline.
    Scored {
        /// Match probability.
        prob: f32,
        /// `prob >= threshold`.
        is_match: bool,
    },
    /// The deadline passed while the request was queued; the pair was not
    /// scored. Expired requests are still answered — never silently
    /// dropped.
    Expired,
    /// Shed by admission control: the queue was full when the request
    /// arrived, or the request was the deadline-shed victim of a queue over
    /// its high-water mark. The pair was not scored and cost no compute.
    Rejected,
    /// The flush serving this request faulted (panic or non-finite
    /// probability); the reason is inside. The engine stays live — a
    /// `Failed` answer never implies later requests will fail.
    Failed(String),
}

/// The answer to one request. Every enqueued request produces exactly one.
#[derive(Debug, Clone)]
pub struct MatchResponse {
    /// The id assigned at enqueue.
    pub id: u64,
    /// Scored, expired, rejected, or failed.
    pub outcome: MatchOutcome,
    /// When the request entered the queue (clock ns).
    pub enqueued_ns: u64,
    /// When the flush answering it ran (clock ns). Shed responses are
    /// answered at admission time; their `completed_ns` equals the shed
    /// decision's timestamp.
    pub completed_ns: u64,
    /// Requests drained by the flush that answered this one (including this
    /// one); `0` for responses answered outside a flush (shed, degraded
    /// expiry).
    pub batch_size: usize,
}

/// Where a degraded core re-restores its matcher from. The engine retains
/// whatever it started from, so a worker fault can be healed in place
/// without losing the queue.
pub enum RecoverySource {
    /// The in-memory checkpoint the engine started with.
    Checkpoint(Box<Checkpoint>),
    /// A [`CheckpointStore`] directory; each restore re-reads the newest
    /// valid snapshot, so a restart can pick up a checkpoint written after
    /// the engine came up.
    Store(PathBuf),
}

impl RecoverySource {
    /// Restores a matcher from this source.
    pub fn restore(&self) -> Result<TrainedMatcher, ServeError> {
        match self {
            RecoverySource::Checkpoint(ckpt) => ckpt
                .restore()
                .map_err(|e| ServeError::Restore(e.to_string())),
            RecoverySource::Store(dir) => {
                let store = CheckpointStore::open(dir, 1)?;
                let (_seq, checkpoint) = store
                    .load_latest::<Checkpoint>(|_, _| {})?
                    .ok_or(ServeError::NoSnapshot)?;
                checkpoint
                    .restore()
                    .map_err(|e| ServeError::Restore(e.to_string()))
            }
        }
    }
}

/// A fault hook injected into the scoring stage: called with the flush
/// ordinal (1-based) inside the supervised region, so a panicking hook
/// exercises exactly the recovery path a real scoring panic would.
pub type FlushFault = Box<dyn FnMut(u64) + Send>;

/// One queued request: content hashes are computed at enqueue, but the
/// records are kept raw — tokenization is deferred to the flush and only
/// paid for cache misses (and skipped outright for expired requests).
#[derive(Debug)]
struct Pending {
    id: u64,
    left: Record,
    right: Record,
    left_key: u64,
    right_key: u64,
    enqueued_ns: u64,
    deadline_ns: u64,
}

impl Pending {
    /// What an answer needs of a request: its id and when it was enqueued.
    fn who(&self) -> (u64, u64) {
        (self.id, self.enqueued_ns)
    }

    /// The instant the deadline trigger fires: half the budget spent.
    fn half_budget_ns(&self) -> u64 {
        let budget = self.deadline_ns.saturating_sub(self.enqueued_ns);
        self.enqueued_ns + budget / 2
    }
}

/// Point-in-time serving statistics, serializable into bench artifacts.
#[derive(Debug, Clone, Serialize)]
pub struct ServerSnapshot {
    /// Requests accepted onto the queue (shed-at-admission not included).
    pub enqueued: u64,
    /// Requests answered with a probability.
    pub scored: u64,
    /// Requests answered expired.
    pub expired: u64,
    /// Requests shed at admission (queue full on arrival).
    pub rejected: u64,
    /// Requests shed by the deadline-aware high-water policy.
    pub shed: u64,
    /// Requests answered [`MatchOutcome::Failed`] (flush panic or
    /// non-finite probability).
    pub failed: u64,
    /// Successful matcher restarts after a fault.
    pub restarts: u64,
    /// Whether the matcher is currently suspect (awaiting restart). A
    /// degraded engine still answers: expired requests shed immediately,
    /// live ones wait for the restart.
    pub degraded: bool,
    /// Flushes run (including empty drains at shutdown: none).
    pub flushes: u64,
    /// Backbone record encodes (cache misses actually computed).
    pub encodes: u64,
    /// Requests waiting right now.
    pub queue_depth: usize,
    /// Largest queue depth observed.
    pub peak_queue_depth: usize,
    /// Reply routes held by the engine worker (in-flight requests not yet
    /// answered). Always `0` for a bare [`ServeCore`]; the threaded engine
    /// fills it in, and it must return to `0` once every answer is
    /// delivered — a leak here would pin reply channels forever.
    pub routes_depth: usize,
    /// Encoding-cache lookups that hit.
    pub cache_hits: u64,
    /// Encoding-cache lookups that missed.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`.
    pub cache_hit_rate: f64,
    /// Encodings resident in the cache.
    pub cache_resident: usize,
    /// Cache entries evicted by fault quarantine.
    pub cache_quarantines: u64,
    /// Times the supervisor entered the degraded state.
    pub degraded_entries: u64,
    /// Flight-recorder postmortem dumps written.
    pub postmortems: u64,
    /// Span events recorded by the flight recorder over its lifetime.
    pub trace_events: u64,
    /// Span events the flight-recorder ring overwrote (lost history).
    pub trace_dropped: u64,
    /// Distribution of flush batch sizes.
    pub batch_size: HistogramSummary,
    /// Enqueue→answer wait (clock ns) of every admitted request answered so
    /// far: `count == scored + expired + failed + shed`. A high-water victim
    /// waited like any other admitted request; a request rejected at
    /// admission never did, and its ~0 ns would only flatter the histogram.
    pub request_latency: HistogramSummary,
    /// The serving thread's full metrics registry (`serve.*` plus the
    /// cache's `catalog.cache.*`).
    pub registry: MetricsSnapshot,
    /// Profiler phase totals — empty unless [`ServeConfig::profile`].
    pub profile_phases: Vec<ProfPhase>,
    /// Kernel backend serving this run (e.g. `"f32"`, `"int8-avx2"`,
    /// `"int8-scalar"`) so postmortems are attributable to the arithmetic
    /// that produced them.
    pub backend: String,
}

impl ServerSnapshot {
    /// Converts into the trace crate's [`ServeSummary`] — the serving
    /// section of a run's JSONL `run_summary` line. Counts are tallies of
    /// the same facts the engine logs and spans, so the summary, the event
    /// log, and the live endpoints can never disagree.
    pub fn to_summary(&self) -> ServeSummary {
        ServeSummary {
            enqueued: self.enqueued,
            scored: self.scored,
            expired: self.expired,
            rejected: self.rejected,
            shed: self.shed,
            failed: self.failed,
            restarts: self.restarts,
            degraded: self.degraded,
            degraded_entries: self.degraded_entries,
            quarantined: self.cache_quarantines,
            postmortems: self.postmortems,
            trace_events: self.trace_events,
            trace_dropped: self.trace_dropped,
            flushes: self.flushes,
            encodes: self.encodes,
            peak_queue_depth: self.peak_queue_depth,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            cache_hit_rate: self.cache_hit_rate,
            batch_size: self.batch_size.clone(),
            request_latency: self.request_latency.clone(),
            backend: self.backend.clone(),
        }
    }
}

/// One profiler phase total, lifted from [`emba_tensor::prof::report`] into
/// a serializable row.
#[derive(Debug, Clone, Serialize)]
pub struct ProfPhase {
    /// `/`-joined phase path.
    pub path: String,
    /// Times the phase was entered.
    pub calls: u64,
    /// Total wall nanoseconds inside.
    pub total_ns: u64,
}

/// A lifecycle fact of a serving run: each of the sixteen span kinds, plus the
/// postmortem dump (which has no span of its own). Everything the core
/// reports goes through [`ServeCore::emit`] (or its halves, `count` and
/// `record`) under one of these, and [`Fact::row`] says which sinks hear it.
#[derive(Debug, Clone, Copy)]
enum Fact {
    Admitted,
    Rejected,
    Shed,
    Expired,
    QueueWait,
    Flush,
    Encode,
    CacheHit,
    Score,
    Reply,
    Failed,
    DegradedEnter,
    DegradedExit,
    RestartAttempt,
    Restarted,
    Quarantine,
    Postmortem,
}

/// What one [`Fact`] feeds besides its per-core tally.
struct Row {
    /// The span kind it is recorded under.
    span: Option<SpanKind>,
    /// The registry counter it adds to.
    counter: Option<&'static str>,
    /// Its duration is a request's enqueue→answer wait, recorded into
    /// [`ServerSnapshot::request_latency`].
    latency: bool,
    /// The event-log line it writes.
    jsonl: Option<&'static str>,
    /// A supervision fact: owned by no request, and its span is recorded even
    /// with [`ServeConfig::trace_spans`] off (they are rare and postmortems
    /// need them).
    always: bool,
}

/// Both shed layers log under one event name; `detail` tells them apart.
const SHED_EVENT: &str = "serve_shed";
/// Name of the request-latency histogram, in the registry and in the snapshot.
const REQUEST_NS: &str = "serve.request_ns";
/// For a fact with nothing to add to its kind.
const NO_DETAIL: fmt::Arguments<'static> = format_args!("");

impl Fact {
    const COUNT: usize = Fact::Postmortem as usize + 1;

    /// The one table behind every sink (DESIGN.md §6j prints it).
    #[rustfmt::skip]
    fn row(self) -> Row {
        let (span, counter, latency, jsonl, always) = match self {
            Fact::Admitted       => (Some(SpanKind::Admitted),       Some("serve.enqueued"),         false, None,                     false),
            Fact::Rejected       => (Some(SpanKind::Rejected),       Some("serve.shed.admission"),   false, Some(SHED_EVENT),         false),
            Fact::Shed           => (Some(SpanKind::Shed),           Some("serve.shed.deadline"),    true,  Some(SHED_EVENT),         false),
            Fact::Expired        => (Some(SpanKind::Expired),        Some("serve.expired"),          true,  Some("serve_expired"),    false),
            Fact::QueueWait      => (Some(SpanKind::QueueWait),      None,                           false, None,                     false),
            Fact::Flush          => (Some(SpanKind::Flush),          Some("serve.flushes"),          false, None,                     false),
            Fact::Encode         => (Some(SpanKind::Encode),         Some("serve.encodes"),          false, None,                     false),
            Fact::CacheHit       => (Some(SpanKind::CacheHit),       None,                           false, None,                     false),
            Fact::Score          => (Some(SpanKind::Score),          None,                           false, None,                     false),
            Fact::Reply          => (Some(SpanKind::Reply),          Some("serve.scored"),           true,  None,                     false),
            Fact::Failed         => (Some(SpanKind::Failed),         Some("serve.failed"),           true,  Some("serve_failed"),     false),
            Fact::DegradedEnter  => (Some(SpanKind::DegradedEnter),  Some("serve.degraded_entries"), false, Some("serve_degraded"),   true),
            Fact::DegradedExit   => (Some(SpanKind::DegradedExit),   None,                           false, Some("serve_recovered"),  true),
            Fact::RestartAttempt => (Some(SpanKind::RestartAttempt), None,                           false, Some("serve_restart"),    true),
            Fact::Restarted      => (Some(SpanKind::Restarted),      Some("serve.restarts"),         false, None,                     true),
            Fact::Quarantine     => (Some(SpanKind::Quarantine),     None,                           false, Some("serve_quarantine"), true),
            Fact::Postmortem     => (None,                           Some("serve.postmortems"),      false, Some("serve_postmortem"), true),
        };
        Row { span, counter, latency, jsonl, always }
    }
}

/// The single-threaded serving state machine. See the module docs for the
/// lifecycle; [`crate::ServeEngine`] is the threaded wrapper.
pub struct ServeCore {
    trained: TrainedMatcher,
    cfg: ServeConfig,
    scorer: PairScorer,
    pending: VecDeque<Pending>,
    /// How often each [`Fact`] happened (`Encode` counts records, not
    /// flushes); [`ServeCore::snapshot`] reads its counters from here.
    tally: [u64; Fact::COUNT],
    /// Requests drained by the flush in progress, `0` between flushes:
    /// answers given and request spans recorded while it is set belong to
    /// that flush.
    flushing: usize,
    peak_queue_depth: usize,
    /// The matcher faulted (a scoring panic) and has not been restored yet.
    suspect: bool,
    /// Current restart delay; doubles per fault up to the configured cap.
    backoff_ns: u64,
    /// Earliest clock instant a restart may be attempted.
    next_restart_ns: u64,
    recovery: Option<RecoverySource>,
    flush_fault: Option<FlushFault>,
    batch_sizes: Histogram,
    latency: Histogram,
    /// Optional clock for intra-flush span timestamps (encode/score stage
    /// attribution, flush end). The engine injects its own clock here;
    /// without one, spans fall back to the flush's `now_ns` (durations of
    /// the intra-flush stages read as 0, which keeps a bare core fully
    /// deterministic).
    span_clock: Option<Arc<dyn Clock>>,
    /// Ring of recent span events; the postmortem source.
    recorder: FlightRecorder,
    /// Spans of the flush currently being traced (drained into the ring
    /// and a [`FlushTimeline`] when the flush finishes).
    flush_spans: Vec<ServeSpanEvent>,
    /// Most recent traced flush timelines, oldest first.
    timelines: VecDeque<FlushTimeline>,
    /// Lifecycle event log (None = disabled).
    event_log: Option<JsonlLogger<BufWriter<File>>>,
    /// Panic reason of the open degradation episode; dumped as the
    /// postmortem when the episode resolves (restart or drain failure).
    pending_postmortem: Option<String>,
}

/// Best-effort human-readable reason from a caught panic payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// JSONL payload for `serve_postmortem`.
#[derive(Serialize)]
struct PostmortemEvent {
    t_ns: u64,
    path: String,
    reason: String,
    spans: usize,
}

impl ServeCore {
    /// Wraps a matcher for serving.
    ///
    /// Fails with [`ServeError::UnsupportedModel`] unless the model has the
    /// split scoring path (AOA strategies only) — probed up front with
    /// [`PairScorer::probe`] under the configured backend, so a long-lived
    /// server cannot pass construction and then panic (or, on int8, quantize
    /// its weights) on its first request. Every restart runs the same probe,
    /// so a healed engine is as validated and as warm as a fresh one.
    pub fn new(trained: TrainedMatcher, cfg: ServeConfig) -> Result<Self, ServeError> {
        let scorer = PairScorer::new(cfg.cache_capacity, cfg.backend);
        if !scorer.probe(trained.model.as_ref()) {
            return Err(ServeError::UnsupportedModel);
        }
        let backoff_ns = cfg.restart_backoff_ns.max(1);
        let open_log = |path: &PathBuf| -> std::io::Result<_> {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?; // a no-op for a bare file name
            }
            Ok(JsonlLogger::new(BufWriter::new(File::create(path)?)))
        };
        let event_log = match cfg.event_log.as_ref().map(open_log).transpose() {
            Ok(log) => log,
            Err(e) => return Err(ServeError::EventLog(e.to_string())),
        };
        let recorder = FlightRecorder::new(cfg.flight_recorder);
        // Steady-state span count per flush: queue-wait + reply per request
        // plus a handful of batch-level stage spans. Pre-sizing keeps the
        // traced hot path free of mid-flush growth reallocations.
        let span_capacity = if cfg.trace_spans { 2 * cfg.max_batch + 8 } else { 0 };
        Ok(Self {
            trained,
            cfg,
            scorer,
            pending: VecDeque::new(),
            tally: [0; Fact::COUNT],
            flushing: 0,
            peak_queue_depth: 0,
            suspect: false,
            backoff_ns,
            next_restart_ns: 0,
            recovery: None,
            flush_fault: None,
            // Batch sizes are small integers; ×2 buckets from 1 cover up to
            // 2048 before overflow.
            batch_sizes: Histogram::log_spaced(1.0, 2.0, 12),
            latency: Histogram::latency_ns(),
            span_clock: None,
            recorder,
            flush_spans: Vec::with_capacity(span_capacity),
            timelines: VecDeque::new(),
            event_log,
            pending_postmortem: None,
        })
    }

    /// Retains a recovery source so a faulted matcher can be restored in
    /// place. Without one, a scoring panic leaves the core degraded until
    /// [`ServeCore::drain`] fails whatever is still queued.
    pub fn set_recovery(&mut self, recovery: RecoverySource) {
        self.recovery = Some(recovery);
    }

    /// Installs a fault hook called inside the supervised scoring region of
    /// every flush with live requests — the injection point for the fault
    /// tests (`tests/serve_faults.rs`). A hook that panics exercises the
    /// exact recovery path a real scoring panic would.
    pub fn set_flush_fault(&mut self, fault: FlushFault) {
        self.flush_fault = Some(fault);
    }

    /// Injects a clock for intra-flush span timestamps (stage attribution
    /// and flush end). The threaded engine passes its own clock, so under
    /// a fake clock the whole trace is deterministic; a bare core without
    /// one stamps every span with the flush's `now_ns`.
    pub fn set_span_clock(&mut self, clock: Arc<dyn Clock>) {
        self.span_clock = Some(clock);
    }

    /// The flight recorder: the ring of recent span events a postmortem
    /// dump preserves.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Postmortem dumps written so far.
    pub fn postmortems(&self) -> u64 {
        self.tally(Fact::Postmortem)
    }

    /// Up to `last` most recent traced flush timelines, oldest first.
    /// Empty unless [`ServeConfig::trace_spans`] is on.
    pub fn timelines(&self, last: usize) -> Vec<FlushTimeline> {
        let skip = self.timelines.len().saturating_sub(last);
        self.timelines.iter().skip(skip).cloned().collect()
    }

    /// Span timestamp inside a flush: the injected span clock if present,
    /// else the flush's own `now_ns`.
    fn span_now(&self, fallback_ns: u64) -> u64 {
        self.span_clock.as_ref().map_or(fallback_ns, |c| c.now_ns())
    }

    fn tally(&self, fact: Fact) -> u64 {
        self.tally[fact as usize]
    }

    /// Adds `n` occurrences of `fact` to its tally and registry counter;
    /// returns the new tally.
    fn count(&mut self, fact: Fact, n: u64) -> u64 {
        self.tally[fact as usize] += n;
        if let Some(name) = fact.row().counter {
            metrics::counter_add(name, n);
        }
        self.tally(fact)
    }

    /// Writes `fact`'s line to the JSONL event log, if there is one.
    fn log<T: Serialize>(&mut self, fact: Fact, payload: &T) {
        if let (Some(log), Some(event)) = (self.event_log.as_mut(), fact.row().jsonl) {
            log.log_event(event, payload);
        }
    }

    /// Tells every sink but the tally about one occurrence of `fact`: the
    /// latency histograms, the span and the event log. A request's span goes
    /// into the trace of the flush in progress, if there is one; any other
    /// straight into the ring. `detail` is rendered only if a span or a log
    /// line wants it, so a `Scored` answer with tracing and the event log
    /// off builds no string.
    fn record(&mut self, fact: Fact, id: u64, t_ns: u64, dur_ns: u64, detail: fmt::Arguments<'_>) {
        let row = fact.row();
        if row.latency {
            self.latency.record(dur_ns as f64);
            metrics::observe_ns(REQUEST_NS, dur_ns);
        }
        let kind = row.span.filter(|_| row.always || self.cfg.trace_spans);
        let logged = row.jsonl.is_some() && self.event_log.is_some();
        if kind.is_none() && !logged {
            return;
        }
        let detail = detail.to_string();
        if logged {
            // Request facts carry their id; supervision facts have none.
            let id = (!row.always).then(|| ("id".to_string(), Value::UInt(id)));
            let rest = [
                ("t_ns".to_string(), Value::UInt(t_ns)),
                ("detail".to_string(), Value::Str(detail.clone())),
            ];
            self.log(fact, &Value::Object(id.into_iter().chain(rest).collect()));
        }
        if let Some(kind) = kind {
            // Supervision spans name the latest flush, a request's the one
            // handling it (`0` before any does).
            let in_flush = self.flushing > 0 && !row.always;
            let flush = if in_flush || row.always { self.tally(Fact::Flush) } else { 0 };
            let e = ServeSpanEvent { trace_id: id, kind, t_ns, dur_ns, flush, detail };
            if in_flush {
                self.flush_spans.push(e);
            } else {
                self.recorder.record(e);
            }
        }
    }

    /// One occurrence of `fact`, to every sink: [`ServeCore::count`] then
    /// [`ServeCore::record`].
    fn emit(&mut self, fact: Fact, id: u64, t_ns: u64, dur_ns: u64, detail: fmt::Arguments<'_>) {
        self.count(fact, 1);
        self.record(fact, id, t_ns, dur_ns, detail);
    }

    /// The one place a request is answered: emits the terminal `fact`, with
    /// the request's wait as its duration, and builds the response.
    fn answer(
        &mut self,
        fact: Fact,
        (id, enqueued_ns): (u64, u64),
        outcome: MatchOutcome,
        now_ns: u64,
        detail: fmt::Arguments<'_>,
    ) -> MatchResponse {
        self.emit(fact, id, now_ns, now_ns.saturating_sub(enqueued_ns), detail);
        MatchResponse {
            id,
            outcome,
            enqueued_ns,
            completed_ns: now_ns,
            batch_size: self.flushing,
        }
    }

    /// Answers `req` [`MatchOutcome::Failed`] for `reason`.
    fn fail(&mut self, req: &Pending, reason: &str, now_ns: u64) -> MatchResponse {
        let outcome = MatchOutcome::Failed(reason.to_string());
        self.answer(Fact::Failed, req.who(), outcome, now_ns, format_args!("{reason}"))
    }

    /// Answers `req` [`MatchOutcome::Expired`] if its deadline has passed —
    /// the cheapest possible answer for a request that can no longer be
    /// served in time — and hands it back otherwise.
    fn expire_if_overdue(&mut self, req: Pending, now_ns: u64) -> Result<MatchResponse, Pending> {
        if now_ns <= req.deadline_ns {
            return Err(req);
        }
        let detail = format_args!("waited_ns={}", now_ns.saturating_sub(req.enqueued_ns));
        Ok(self.answer(Fact::Expired, req.who(), MatchOutcome::Expired, now_ns, detail))
    }

    /// Closes the current flush's trace: moves its spans into the ring and
    /// retains them as a [`FlushTimeline`].
    fn finish_flush_trace(&mut self, flush: u64, start_ns: u64) {
        if !self.cfg.trace_spans {
            return;
        }
        let end_ns = self.span_now(start_ns);
        // Clone rather than `mem::take`: the buffer keeps its steady-state
        // capacity across flushes (one timeline allocation per flush is
        // per-batch cost, not per-request).
        let spans = self.flush_spans.clone();
        for e in self.flush_spans.drain(..) {
            self.recorder.record(e);
        }
        self.timelines.push_back(FlushTimeline { flush, start_ns, end_ns, spans });
        while self.timelines.len() > self.cfg.recent_timelines.max(1) {
            self.timelines.pop_front();
        }
    }

    /// Quarantines both cache keys of a request whose flush faulted: the
    /// fault may have been either encoding's.
    fn quarantine(&mut self, req: &Pending, now_ns: u64) {
        for key in [req.left_key, req.right_key] {
            self.scorer.quarantine(key);
            self.emit(Fact::Quarantine, 0, now_ns, 0, format_args!("key={key:016x}"));
        }
    }

    /// Dumps the flight recorder to `postmortem-NNNN.jsonl` under the
    /// configured directory (no-op without one). Called when a degradation
    /// episode resolves or when `drain` fails queued requests, so the dump
    /// holds the failing flush's request spans *and* the restart/backoff
    /// transitions that followed.
    fn dump_postmortem(&mut self, reason: &str, now_ns: u64) {
        let Some(dir) = self.cfg.postmortem_dir.as_ref() else { return };
        let path = dir.join(format!("postmortem-{:04}.jsonl", self.postmortems() + 1));
        let events = self.recorder.events();
        let (recorded, dropped) = (self.recorder.recorded(), self.recorder.dropped());
        let (reason, spans) = match write_postmortem(&path, reason, recorded, dropped, &events) {
            Ok(()) => {
                self.count(Fact::Postmortem, 1);
                (reason.to_string(), events.len())
            }
            // A failing dump must never take the engine down; the event log
            // (if any) records that history was lost.
            Err(e) => (format!("dump failed: {e}"), 0),
        };
        let path = path.display().to_string();
        self.log(Fact::Postmortem, &PostmortemEvent { t_ns: now_ns, path, reason, spans });
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Requests waiting for a flush.
    pub fn queue_depth(&self) -> usize {
        self.pending.len()
    }

    /// Whether the matcher is suspect and awaiting a restart.
    pub fn degraded(&self) -> bool {
        self.suspect
    }

    /// Accepts one request: hashes both records' content and queues them
    /// under `id`, taking ownership of the records (the flush tokenizes
    /// them only on cache misses). The caller owns id assignment (the
    /// engine uses a counter) and must stamp `deadline_ns` on the same
    /// clock as every `now_ns`.
    ///
    /// Returns the responses admission control produced synchronously:
    /// empty in the common case, a [`MatchOutcome::Rejected`] answer for
    /// this request if the queue was full, and/or `Rejected` answers for
    /// the least-budget victims shed when the queue crossed its high-water
    /// mark (this request may itself be among the victims).
    pub fn enqueue(
        &mut self,
        id: u64,
        left: Record,
        right: Record,
        now_ns: u64,
        deadline_ns: u64,
    ) -> Vec<MatchResponse> {
        if self.cfg.max_queue_depth > 0 && self.pending.len() >= self.cfg.max_queue_depth {
            let (outcome, policy) = (MatchOutcome::Rejected, format_args!("admission"));
            return vec![self.answer(Fact::Rejected, (id, now_ns), outcome, now_ns, policy)];
        }
        self.pending.push_back(Pending {
            id,
            left_key: record_content_hash(&left),
            right_key: record_content_hash(&right),
            left,
            right,
            enqueued_ns: now_ns,
            deadline_ns,
        });
        self.peak_queue_depth = self.peak_queue_depth.max(self.pending.len());
        self.emit(Fact::Admitted, id, now_ns, 0, NO_DETAIL);

        // High-water shed: drop the requests with the least remaining
        // budget first — they are the most likely to expire before service
        // anyway, so shedding them preserves goodput for the rest.
        let mut out = Vec::new();
        while self.cfg.shed_high_water > 0 && self.pending.len() > self.cfg.shed_high_water {
            let victim_idx = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| p.deadline_ns.saturating_sub(now_ns))
                .map(|(i, _)| i)
                .expect("queue above high water is non-empty");
            let victim = self.pending.remove(victim_idx).expect("victim index in bounds");
            let (outcome, policy) = (MatchOutcome::Rejected, format_args!("deadline"));
            out.push(self.answer(Fact::Shed, victim.who(), outcome, now_ns, policy));
        }
        out
    }

    /// When the next flush is due (clock ns), or `None` with nothing
    /// pending. A full batch is due immediately (`Some(0)`).
    pub fn next_flush_at(&self) -> Option<u64> {
        let oldest = self.pending.front()?;
        if self.pending.len() >= self.cfg.max_batch.max(1) {
            return Some(0);
        }
        Some(oldest.half_budget_ns())
    }

    /// Whether a flush is due at `now_ns`.
    pub fn flush_due(&self, now_ns: u64) -> bool {
        self.next_flush_at().is_some_and(|at| now_ns >= at)
    }

    /// Runs every flush due at `now_ns` and returns the answers, in batch
    /// order. Returns an empty vec when no trigger has fired. A degraded
    /// core first attempts its restart (if the backoff allows) and sheds
    /// only expired requests — live ones stay queued for the healed
    /// matcher.
    pub fn poll(&mut self, now_ns: u64) -> Vec<MatchResponse> {
        self.try_restart(now_ns);
        let mut out = Vec::new();
        while self.flush_due(now_ns) {
            let before = self.pending.len();
            out.extend(self.flush(now_ns));
            if self.pending.len() == before {
                // Degraded and nothing left to shed: the queue is waiting
                // on a restart, not on another flush pass.
                break;
            }
        }
        out
    }

    /// Runs at most one flush if a trigger has fired — the stepping
    /// primitive for simulations that charge a time cost per flush.
    pub fn flush_if_due(&mut self, now_ns: u64) -> Vec<MatchResponse> {
        if self.flush_due(now_ns) {
            self.flush(now_ns)
        } else {
            Vec::new()
        }
    }

    /// Flushes everything still pending regardless of triggers — the
    /// shutdown path, guaranteeing every accepted request gets its answer.
    /// A degraded core gets one restart attempt per pass (ignoring the
    /// backoff schedule — shutdown cannot wait); if the matcher still
    /// cannot be restored, the remainder is answered `Failed`/`Expired`
    /// rather than left hanging.
    pub fn drain(&mut self, now_ns: u64) -> Vec<MatchResponse> {
        let mut out = Vec::new();
        while !self.pending.is_empty() {
            if self.suspect {
                self.next_restart_ns = now_ns;
                self.try_restart(now_ns);
                if self.suspect {
                    out.extend(self.fail_all_pending(now_ns));
                    break;
                }
            }
            out.extend(self.flush(now_ns));
        }
        // A degraded core with nothing queued still owes its postmortem
        // (an open episode means degraded): the engine is exiting and the
        // episode will never resolve.
        if let Some(r) = self.pending_postmortem.take() {
            self.dump_postmortem(&format!("shut down while degraded after: {r}"), now_ns);
        }
        out
    }

    /// Answers every queued request without scoring: past-deadline ones
    /// expire, the rest fail with a shutdown reason. Only reachable when a
    /// degraded core could not be restored during [`ServeCore::drain`].
    fn fail_all_pending(&mut self, now_ns: u64) -> Vec<MatchResponse> {
        let mut out = self.expire_overdue(now_ns);
        while let Some(req) = self.pending.pop_front() {
            out.push(self.fail(&req, "shutting down while degraded", now_ns));
        }
        // The drain could not heal the matcher: preserve the episode's
        // history before the engine exits.
        let reason = match self.pending_postmortem.take() {
            Some(r) => format!("drain failed while degraded after: {r}"),
            None => "drain failed while degraded".to_string(),
        };
        self.dump_postmortem(&reason, now_ns);
        out
    }

    /// Attempts to restore a suspect matcher from the recovery source. Gated
    /// on the backoff schedule; a failed (or panicking) restore doubles the
    /// backoff up to the configured cap.
    fn try_restart(&mut self, now_ns: u64) {
        // (With nothing to restore from, `drain` will fail the queue.)
        if !self.suspect || now_ns < self.next_restart_ns || self.recovery.is_none() {
            return;
        }
        let backoff_ns = self.backoff_ns;
        let detail = format_args!("attempt backoff_ns={backoff_ns}");
        self.emit(Fact::RestartAttempt, 0, now_ns, 0, detail);
        let recovery = self.recovery.as_ref().expect("presence checked above");
        match catch_unwind(AssertUnwindSafe(|| recovery.restore())) {
            Ok(Ok(trained)) if self.scorer.probe(trained.model.as_ref()) => {
                self.trained = trained;
                self.suspect = false;
                self.emit(Fact::Restarted, 0, now_ns, 0, NO_DETAIL);
                self.emit(Fact::DegradedExit, 0, now_ns, 0, format_args!("matcher restored"));
                // The episode is over; its history (failing flush spans,
                // degraded entry, every restart attempt with its backoff,
                // the successful restart) is complete — dump it.
                if let Some(reason) = self.pending_postmortem.take() {
                    self.dump_postmortem(&format!("recovered after: {reason}"), now_ns);
                }
            }
            _ => self.schedule_restart(now_ns),
        }
    }

    /// Schedules the next restart attempt one backoff from now and doubles
    /// the backoff, up to the configured cap.
    fn schedule_restart(&mut self, now_ns: u64) {
        self.next_restart_ns = now_ns.saturating_add(self.backoff_ns);
        self.backoff_ns = self
            .backoff_ns
            .saturating_mul(2)
            .min(self.cfg.restart_backoff_max_ns.max(1));
    }

    /// Marks the matcher suspect after a fault and schedules the next
    /// restart attempt on the capped exponential backoff. Opens a
    /// postmortem episode: the reason is retained and the flight recorder
    /// dumped once the episode resolves (restart success or drain failure).
    fn enter_degraded(&mut self, now_ns: u64, reason: &str) {
        self.suspect = true;
        self.schedule_restart(now_ns);
        let next_restart_ns = self.next_restart_ns;
        let detail = format_args!("{reason}; next_restart_ns={next_restart_ns}");
        self.emit(Fact::DegradedEnter, 0, now_ns, 0, detail);
        self.pending_postmortem.get_or_insert_with(|| reason.to_string());
    }

    /// Sheds every already-expired request from the queue without touching
    /// the matcher — the degraded-mode flush.
    fn expire_overdue(&mut self, now_ns: u64) -> Vec<MatchResponse> {
        let mut out = Vec::new();
        // One turn of the queue in place: order and capacity survive.
        for _ in 0..self.pending.len() {
            let req = self.pending.pop_front().expect("counted above");
            match self.expire_if_overdue(req, now_ns) {
                Ok(response) => out.push(response),
                Err(live) => self.pending.push_back(live),
            }
        }
        out
    }

    /// Drains up to `max_batch` requests and answers each one: expired
    /// requests immediately, live ones through the cached encode-once path
    /// under panic supervision.
    fn flush(&mut self, now_ns: u64) -> Vec<MatchResponse> {
        self.try_restart(now_ns);
        if self.suspect {
            return self.expire_overdue(now_ns);
        }
        let take = self.pending.len().min(self.cfg.max_batch.max(1));
        if take == 0 {
            return Vec::new();
        }
        let batch: Vec<Pending> = self.pending.drain(..take).collect();
        self.flushing = take;
        let ord = self.count(Fact::Flush, 1);
        self.batch_sizes.record(take as f64);

        // Shed-at-flush: answer already-expired requests before the encode
        // stage so they cost zero backbone work.
        let mut live: Vec<Pending> = Vec::with_capacity(take);
        let mut responses: Vec<MatchResponse> = Vec::with_capacity(take);
        for req in batch {
            match self.expire_if_overdue(req, now_ns) {
                Ok(response) => responses.push(response),
                Err(req) => {
                    // From admission to this flush picking the request up.
                    let waited_ns = now_ns.saturating_sub(req.enqueued_ns);
                    self.emit(Fact::QueueWait, req.id, req.enqueued_ns, waited_ns, NO_DETAIL);
                    live.push(req);
                }
            }
        }
        let mut fault = None;
        if !live.is_empty() {
            // The supervised region: tokenize + encode + score may panic on
            // poison input or corrupted state. A panic must fail only this
            // flush, never the engine.
            let started = self.span_now(now_ns);
            let scored = catch_unwind(AssertUnwindSafe(|| self.score_live(&live, ord, now_ns)));
            let took_ns = self.span_now(now_ns).saturating_sub(started);
            self.record(Fact::Flush, 0, started, took_ns, NO_DETAIL);
            match scored {
                Ok(probs) => {
                    self.backoff_ns = self.cfg.restart_backoff_ns.max(1);
                    for (req, prob) in live.into_iter().zip(probs) {
                        responses.push(if prob.is_finite() {
                            let is_match = prob >= self.cfg.threshold;
                            let outcome = MatchOutcome::Scored { prob, is_match };
                            self.answer(Fact::Reply, req.who(), outcome, now_ns, NO_DETAIL)
                        } else {
                            // Never hand a NaN/Inf probability to a client; the
                            // pair's cached encodings are suspect too.
                            self.quarantine(&req, now_ns);
                            self.fail(&req, "non-finite probability", now_ns)
                        });
                    }
                }
                Err(payload) => {
                    let reason = format!("panic during flush: {}", panic_reason(payload.as_ref()));
                    for req in live {
                        // The fault may have been any of this batch's cached
                        // encodings: quarantine them all so nothing poisoned
                        // outlives the flush that exposed it.
                        self.quarantine(&req, now_ns);
                        responses.push(self.fail(&req, &reason, now_ns));
                    }
                    fault = Some(reason);
                }
            }
        }
        // Close the flush's trace *before* entering the degraded state, so
        // the ring holds a failing flush's request spans when the episode's
        // postmortem is eventually dumped.
        self.flushing = 0;
        self.finish_flush_trace(ord, now_ns);
        if let Some(reason) = fault {
            self.enter_degraded(now_ns, &reason);
        }
        responses
    }

    /// The fallible compute of flush `ord`: the scorer's resolve step (cache
    /// hits reuse the resident tensor without tokenizing; misses are
    /// tokenized and encoded in one grouped call) and its score step over
    /// every live pair, with the span clock sampled in between. Runs inside
    /// `catch_unwind` — anything here may panic without killing the engine.
    fn score_live(&mut self, live: &[Pending], ord: u64, now_ns: u64) -> Vec<f32> {
        if let Some(fault) = self.flush_fault.as_mut() {
            fault(ord);
        }
        let pipeline = &self.trained.pipeline;
        let started = self.span_now(now_ns);
        let resolved = self.scorer.resolve(
            self.trained.model.as_ref(),
            live.iter()
                .flat_map(|req| [(req.left_key, &req.left), (req.right_key, &req.right)]),
            |rec| pipeline.encode_single_record(rec),
        );
        metrics::observe_ns("serve.encode_batch_ns", resolved.elapsed.as_nanos() as u64);
        if resolved.hits > 0 {
            // One aggregate span per flush, not one per hit: per-key spans
            // would put a `format!` on every warm request's hot path.
            self.emit(Fact::CacheHit, 0, started, 0, format_args!("hits={}", resolved.hits));
        }
        let encoded = self.span_now(started);
        self.count(Fact::Encode, resolved.misses as u64);
        let took_ns = encoded.saturating_sub(started);
        self.record(Fact::Encode, 0, started, took_ns, format_args!("misses={}", resolved.misses));

        let (probs, took) = self.scorer.score(
            self.trained.model.as_ref(),
            &resolved,
            live.iter().map(|req| (req.left_key, req.right_key)),
        );
        metrics::observe_ns("serve.score_batch_ns", took.as_nanos() as u64);
        let took_ns = self.span_now(encoded).saturating_sub(encoded);
        self.emit(Fact::Score, 0, encoded, took_ns, format_args!("pairs={}", probs.len()));
        probs
    }

    /// Current statistics. Publishes the gauges and the cache's metrics
    /// (delta-safe — see [`emba_core::EncodingCache::publish_metrics`]) and
    /// snapshots the thread's registry, so calling this repeatedly never
    /// inflates counters.
    pub fn snapshot(&mut self) -> ServerSnapshot {
        self.scorer.publish_metrics();
        metrics::gauge_set("serve.queue_depth", self.pending.len() as f64);
        metrics::gauge_set("serve.degraded", if self.suspect { 1.0 } else { 0.0 });
        let profile_phases = if self.cfg.profile {
            emba_tensor::prof::report()
                .phases
                .into_iter()
                .map(|p| ProfPhase {
                    path: p.path,
                    calls: p.calls,
                    total_ns: p.total_ns,
                })
                .collect()
        } else {
            Vec::new()
        };
        ServerSnapshot {
            enqueued: self.tally(Fact::Admitted),
            scored: self.tally(Fact::Reply),
            expired: self.tally(Fact::Expired),
            rejected: self.tally(Fact::Rejected),
            shed: self.tally(Fact::Shed),
            failed: self.tally(Fact::Failed),
            restarts: self.tally(Fact::Restarted),
            degraded: self.suspect,
            flushes: self.tally(Fact::Flush),
            encodes: self.tally(Fact::Encode),
            queue_depth: self.pending.len(),
            peak_queue_depth: self.peak_queue_depth,
            routes_depth: 0,
            cache_hits: self.scorer.cache().hits(),
            cache_misses: self.scorer.cache().misses(),
            cache_hit_rate: self.scorer.cache().hit_rate(),
            cache_resident: self.scorer.cache().len(),
            cache_quarantines: self.scorer.cache().quarantines(),
            degraded_entries: self.tally(Fact::DegradedEnter),
            postmortems: self.postmortems(),
            trace_events: self.recorder.recorded(),
            trace_dropped: self.recorder.dropped(),
            batch_size: self.batch_sizes.summary("serve.batch_size"),
            request_latency: self.latency.summary(REQUEST_NS),
            registry: metrics::snapshot(),
            profile_phases,
            backend: self.cfg.backend.label().to_string(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use emba_core::{ModelKind, PipelineConfig, TextPipeline};
    use emba_tensor::{prof, QuantizedMatrix};
    use emba_tokenizer::{TrainConfig, WordPieceTokenizer};
    use rand::SeedableRng;

    pub(crate) fn record(text: &str) -> Record {
        Record::new(vec![("title", text)])
    }

    /// An untrained BERT-small EMBA over a two-record corpus; its 64×64
    /// projections are above the int8 quantization floor.
    pub(crate) fn bert_matcher() -> TrainedMatcher {
        let tok = WordPieceTokenizer::train(
            &["sandisk ultra 128gb card", "samsung evo 1tb ssd"],
            &TrainConfig { vocab_size: 128, min_pair_freq: 2 },
        );
        let pipeline = TextPipeline::from_tokenizer(
            tok,
            PipelineConfig { vocab_size: 128, max_len: 32, ..Default::default() },
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let model = ModelKind::EmbaSb.build(&pipeline, 4, 0.5, 0.1, &mut rng);
        TrainedMatcher { pipeline, model, dropout: 0.1, pos_fraction: 0.5 }
    }

    /// The int8 twin of layer 0's query projection — a weight every encode
    /// reads — as the last forward built it; `None` if none has.
    fn query_weights(core: &mut ServeCore) -> Option<Arc<QuantizedMatrix>> {
        core.trained
            .model
            .bert_backbone_mut()
            .expect("EmbaSb has a BERT backbone")
            .query_projection(0)
            .cached_quantized_weight()
    }

    fn quantized_op_calls() -> u64 {
        let ops = prof::report().ops;
        ops.iter().filter(|o| o.op.starts_with("linear_q8")).map(|o| o.calls).sum()
    }

    fn flush_one(core: &mut ServeCore, id: u64, now_ns: u64) -> MatchOutcome {
        let (a, b) = (record("sandisk ultra card"), record("samsung evo ssd"));
        assert!(core.enqueue(id, a, b, now_ns, u64::MAX).is_empty());
        let mut out = core.drain(now_ns);
        assert_eq!(out.len(), 1);
        out.pop().expect("one answer").outcome
    }

    /// With `backend: Int8` the split-path probe runs under int8 at
    /// construction and on every supervised restart, so no flush ever pays
    /// weight quantization: the quantized weights a flush uses are the very
    /// allocation the probe built.
    #[test]
    fn int8_weights_are_quantized_by_the_probe_not_by_a_flush() {
        let was = prof::enable(true);
        prof::reset();
        let trained = bert_matcher();
        let ckpt = Checkpoint::capture(&trained, ModelKind::EmbaSb, 4);
        let cfg = ServeConfig { backend: BackendKind::Int8, ..Default::default() };
        let mut core = ServeCore::new(trained, cfg).expect("EmbaSb has the split scoring path");
        core.set_recovery(RecoverySource::Checkpoint(Box::new(ckpt)));
        assert!(quantized_op_calls() > 0, "construction probe ran no quantized op");

        let warm = query_weights(&mut core).expect("construction probe quantized no query projection");
        assert!(matches!(flush_one(&mut core, 0, 0), MatchOutcome::Scored { .. }));
        assert!(Arc::ptr_eq(&warm, &query_weights(&mut core).unwrap()), "first flush re-quantized");

        // Fault the next flush, then let the supervisor restore the matcher
        // with nothing queued: the only forward in that poll is the probe.
        core.set_flush_fault(Box::new(|ord| assert!(ord != 2, "injected fault")));
        assert!(matches!(flush_one(&mut core, 1, 0), MatchOutcome::Failed(_)));
        assert!(core.degraded());
        prof::reset();
        assert!(core.poll(1_000_000_000).is_empty());
        assert!(!core.degraded(), "restart from the retained checkpoint");
        assert!(quantized_op_calls() > 0, "restart probe ran no quantized op");

        let warm = query_weights(&mut core).expect("restart probe quantized no query projection");
        assert!(matches!(flush_one(&mut core, 2, 1_000_000_000), MatchOutcome::Scored { .. }));
        assert!(Arc::ptr_eq(&warm, &query_weights(&mut core).unwrap()), "post-restart flush re-quantized");
        prof::enable(was);
        prof::reset();
    }
}
