//! Correctness, concurrency, and load tests for the serving engine.
//!
//! The deterministic half drives [`ServeCore`] directly with hand-written
//! timestamps: flush triggers, expiry verdicts, equivalence against the
//! per-request `predict` path, and bit-stability across queue arrival
//! orders. Equivalence runs on the fastText backbone (`ModelKind::EmbaFt`),
//! where standalone record encodings factorize exactly out of the joint
//! pass (see `crates/core/tests/catalog_matching.rs`); BERT backbones
//! attend across the pair, so for them the split path is pinned by
//! bit-identity rather than closeness to `predict`.
//!
//! The threaded half runs the real [`ServeEngine`] with N in-process
//! clients over a shared [`FakeClock`]: every request must be answered
//! exactly once, deadlines must be honored or reported expired (never
//! silently dropped), and shutdown must drain everything still queued.

mod common;

use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use common::{
    checkpoint_over, events_by_name, matcher_over, quiet_serve_panics, records, TempDir,
};
use emba_core::{Checkpoint, CheckpointStore, ModelKind};
use emba_datagen::Record;
use emba_serve::{
    FakeClock, MatchOutcome, MatchResponse, RecoverySource, ServeConfig, ServeCore, ServeEngine,
    ServeError,
};
use emba_tensor::Tensor;
use emba_trace::{metrics, SpanKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn core_over(recs: &[Record], cfg: ServeConfig) -> ServeCore {
    let trained = matcher_over(ModelKind::EmbaFt, recs, 128);
    ServeCore::new(trained, cfg).expect("EmbaFt has the split scoring path")
}

// ---------------------------------------------------------------------------
// Deterministic ServeCore tests
// ---------------------------------------------------------------------------

#[test]
fn full_batch_flushes_without_time_passing() {
    let recs = records(8);
    let mut core = core_over(
        &recs,
        ServeConfig {
            max_batch: 3,
            ..Default::default()
        },
    );
    let deadline = 1_000_000;
    core.enqueue(0, recs[0].clone(), recs[1].clone(), 0, deadline);
    core.enqueue(1, recs[2].clone(), recs[3].clone(), 0, deadline);
    assert!(core.poll(0).is_empty(), "two of three: no trigger yet");
    core.enqueue(2, recs[4].clone(), recs[5].clone(), 0, deadline);
    let responses = core.poll(0);
    assert_eq!(responses.len(), 3, "full batch must flush at t=0");
    assert!(responses
        .iter()
        .all(|r| matches!(r.outcome, MatchOutcome::Scored { .. })));
    assert!(responses.iter().all(|r| r.batch_size == 3));
    assert_eq!(core.queue_depth(), 0);
}

#[test]
fn half_spent_deadline_budget_triggers_flush() {
    let recs = records(4);
    let mut core = core_over(&recs, ServeConfig::default());
    // Enqueued at 100 with deadline 1100: budget 1000, trigger at 600.
    core.enqueue(0, recs[0].clone(), recs[1].clone(), 100, 1_100);
    assert_eq!(core.next_flush_at(), Some(600));
    assert!(core.poll(599).is_empty(), "budget less than half spent");
    let responses = core.poll(600);
    assert_eq!(responses.len(), 1, "half-spent budget must flush");
    match responses[0].outcome {
        MatchOutcome::Scored { .. } => {}
        ref other => panic!("honored deadline answered {other:?}"),
    }
    assert_eq!(responses[0].completed_ns, 600);
}

#[test]
fn past_deadline_requests_are_answered_expired_not_dropped() {
    let recs = records(6);
    let mut core = core_over(&recs, ServeConfig::default());
    core.enqueue(0, recs[0].clone(), recs[1].clone(), 0, 1_000);
    core.enqueue(1, recs[2].clone(), recs[3].clone(), 0, 1_000_000);
    // Poll far past the first deadline: both flush (oldest trigger), the
    // stale one expires, the live one scores.
    let responses = core.poll(5_000);
    assert_eq!(responses.len(), 2, "expired requests must still be answered");
    let by_id: HashMap<u64, &MatchResponse> = responses.iter().map(|r| (r.id, r)).collect();
    assert_eq!(by_id[&0].outcome, MatchOutcome::Expired);
    assert!(matches!(by_id[&1].outcome, MatchOutcome::Scored { .. }));
}

#[test]
fn served_probabilities_match_predict_within_1e5() {
    // fastText backbone: the split path factorizes exactly, so batched
    // serving must reproduce the per-request `predict` probabilities.
    let recs = records(10);
    let trained = matcher_over(ModelKind::EmbaFt, &recs, 128);
    let expected: Vec<f64> = recs
        .chunks(2)
        .map(|pair| trained.predict(&pair[0], &pair[1]).prob)
        .collect();
    let mut core = ServeCore::new(trained, ServeConfig {
        max_batch: 5,
        ..Default::default()
    })
    .unwrap();
    for (k, pair) in recs.chunks(2).enumerate() {
        core.enqueue(k as u64, pair[0].clone(), pair[1].clone(), 0, 1_000_000);
    }
    let responses = core.poll(0);
    assert_eq!(responses.len(), 5);
    for resp in responses {
        let MatchOutcome::Scored { prob, .. } = resp.outcome else {
            panic!("request {} expired with a huge budget", resp.id);
        };
        let want = expected[resp.id as usize];
        assert!(
            (f64::from(prob) - want).abs() <= 1e-5,
            "request {}: served {prob} vs predict {want}",
            resp.id
        );
    }
}

#[test]
fn probabilities_are_bit_stable_across_arrival_orders() {
    // Two fresh cores over identically seeded matchers, the same request
    // set submitted in opposite orders with different batch splits: every
    // request's probability must agree bit-for-bit.
    let recs = records(12);
    let pairs: Vec<(usize, usize)> = (0..6).map(|k| (2 * k, 2 * k + 1)).collect();
    let run = |order: Vec<usize>, max_batch: usize| -> HashMap<u64, u32> {
        let mut core = core_over(
            &recs,
            ServeConfig {
                max_batch,
                ..Default::default()
            },
        );
        let mut out = HashMap::new();
        let mut responses = Vec::new();
        for &k in &order {
            let (i, j) = pairs[k];
            core.enqueue(k as u64, recs[i].clone(), recs[j].clone(), 0, u64::MAX);
            responses.extend(core.poll(0));
        }
        responses.extend(core.drain(0));
        for resp in responses {
            let MatchOutcome::Scored { prob, .. } = resp.outcome else {
                panic!("unexpected expiry");
            };
            out.insert(resp.id, prob.to_bits());
        }
        out
    };
    let forward = run((0..6).collect(), 4);
    let reverse = run((0..6).rev().collect(), 3);
    assert_eq!(forward.len(), 6);
    for (id, bits) in &forward {
        assert_eq!(
            reverse[id], *bits,
            "request {id}: probability depends on arrival order"
        );
    }
}

#[test]
fn cache_is_shared_across_flushes() {
    let recs = records(4);
    let mut core = core_over(
        &recs,
        ServeConfig {
            max_batch: 2,
            cache_capacity: 64,
            ..Default::default()
        },
    );
    core.enqueue(0, recs[0].clone(), recs[1].clone(), 0, u64::MAX);
    core.enqueue(1, recs[2].clone(), recs[3].clone(), 0, u64::MAX);
    assert_eq!(core.poll(0).len(), 2);
    let cold = core.snapshot();
    assert_eq!(cold.encodes, 4, "four distinct records encoded cold");
    // Same records again: every lookup hits, nothing new is encoded.
    core.enqueue(2, recs[0].clone(), recs[1].clone(), 0, u64::MAX);
    core.enqueue(3, recs[2].clone(), recs[3].clone(), 0, u64::MAX);
    assert_eq!(core.poll(0).len(), 2);
    let warm = core.snapshot();
    assert_eq!(warm.encodes, 4, "warm flush re-encoded cached records");
    assert!(warm.cache_hits >= 4, "warm flush should hit the cache");
    assert!(warm.cache_hit_rate > 0.0);
}

#[test]
fn randomized_timelines_answer_every_request_exactly_once() {
    // Seeded scenario sweep (the vendored proptest has no tuple
    // strategies; structure comes from a seeded RNG): random budgets,
    // arrival gaps, poll times, queue bound and high-water mark, and one
    // injected flush panic per timeline. A third of the timelines start on
    // NaN weights (every flush before the panic's restart fails its
    // requests as non-finite) and a third have nothing to restart from (the
    // drain fails what is left). Invariants: every request is answered
    // exactly once; Scored ⇒ answered at or before its deadline; Expired ⇒
    // answered after it; and per outcome the responses, the snapshot
    // counters, the flight recorder's terminal spans, the JSONL event log
    // and the metrics registry all count the same.
    quiet_serve_panics();
    let recs = records(10);
    let healthy = checkpoint_over(&recs);
    let mut poisoned = checkpoint_over(&recs);
    for t in &mut poisoned.params {
        *t = Tensor::from_vec(t.rows(), t.cols(), vec![f32::NAN; t.rows() * t.cols()]);
    }
    let tmp = TempDir::new();
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x10ad ^ seed);
        let log = tmp.0.join(format!("events-{seed}.jsonl"));
        let max_queue_depth = rng.gen_range(3..9);
        let start = if seed % 3 == 1 { &poisoned } else { &healthy };
        let mut core = ServeCore::new(
            start.restore().expect("checkpoint restores"),
            ServeConfig {
                max_batch: 4,
                max_queue_depth,
                shed_high_water: rng.gen_range(2..=max_queue_depth),
                restart_backoff_ns: 500,
                restart_backoff_max_ns: 2_000,
                trace_spans: true,
                flight_recorder: 100_000, // nothing is overwritten
                event_log: Some(log.clone()),
                ..Default::default()
            },
        )
        .expect("EmbaFt has the split scoring path");
        if seed % 3 != 2 {
            core.set_recovery(RecoverySource::Checkpoint(Box::new(healthy.clone())));
        }
        let faulty_flush = rng.gen_range(1..4);
        core.set_flush_fault(Box::new(move |flush| {
            assert!(flush != faulty_flush, "injected fault in flush {flush}");
        }));
        let registry_before = metrics::snapshot();

        let n = rng.gen_range(12..30);
        let mut now: u64 = 0;
        let mut deadlines: HashMap<u64, u64> = HashMap::new();
        let mut answered: HashMap<u64, MatchResponse> = HashMap::new();
        let mut record_answers = |responses: Vec<MatchResponse>| {
            for resp in responses {
                assert!(
                    answered.insert(resp.id, resp.clone()).is_none(),
                    "seed {seed}: request {} answered twice",
                    resp.id
                );
            }
        };
        for id in 0..n {
            now += rng.gen_range(0..2_000);
            let i = rng.gen_range(0..recs.len());
            let j = rng.gen_range(0..recs.len());
            let deadline = now + rng.gen_range(0..10_000);
            deadlines.insert(id, deadline);
            record_answers(core.enqueue(id, recs[i].clone(), recs[j].clone(), now, deadline));
            if rng.gen_bool(0.5) {
                now += rng.gen_range(0..3_000);
                record_answers(core.poll(now));
            }
        }
        now += rng.gen_range(0..20_000);
        record_answers(core.poll(now));
        record_answers(core.drain(now));
        assert_eq!(
            answered.len(),
            n as usize,
            "seed {seed}: {} of {n} requests answered",
            answered.len()
        );
        let (mut scored, mut expired, mut turned_away, mut failed) = (0, 0, 0, 0);
        for (id, resp) in &answered {
            match resp.outcome {
                MatchOutcome::Scored { .. } => {
                    scored += 1;
                    assert!(
                        resp.completed_ns <= deadlines[id],
                        "seed {seed}: request {id} scored after its deadline"
                    );
                }
                MatchOutcome::Expired => {
                    expired += 1;
                    assert!(
                        resp.completed_ns > deadlines[id],
                        "seed {seed}: request {id} expired before its deadline"
                    );
                }
                MatchOutcome::Rejected => turned_away += 1,
                MatchOutcome::Failed(_) => failed += 1,
            }
        }
        assert!(failed > 0, "seed {seed}: the injected fault failed nothing");

        let snap = core.snapshot();
        let spans = core.flight_recorder().events();
        drop(core); // flushes the event log
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.trace_dropped, 0);
        assert_eq!(snap.enqueued + snap.rejected, n);
        assert_eq!(snap.enqueued, snap.scored + snap.expired + snap.shed + snap.failed);
        assert_eq!(snap.request_latency.count, snap.enqueued, "every admitted request waited");
        assert_eq!(
            (snap.scored, snap.expired, snap.rejected + snap.shed, snap.failed),
            (scored, expired, turned_away, failed),
            "seed {seed}: snapshot vs responses"
        );

        let spans_of = |kind: SpanKind| spans.iter().filter(|e| e.kind == kind).count() as u64;
        let logged = events_by_name(&log);
        let lines_of = |event: &str| logged.get(event).copied().unwrap_or(0);
        let counter = |m: &metrics::MetricsSnapshot, name: &str| {
            m.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
        };
        let gained = |name: &str| counter(&snap.registry, name) - counter(&registry_before, name);
        for (what, counted, span_kind, counter_name, event) in [
            ("admitted", snap.enqueued, SpanKind::Admitted, "serve.enqueued", None),
            ("scored", snap.scored, SpanKind::Reply, "serve.scored", None),
            ("expired", snap.expired, SpanKind::Expired, "serve.expired", Some("serve_expired")),
            ("failed", snap.failed, SpanKind::Failed, "serve.failed", Some("serve_failed")),
            ("rejected", snap.rejected, SpanKind::Rejected, "serve.shed.admission", None),
            ("shed", snap.shed, SpanKind::Shed, "serve.shed.deadline", None),
        ] {
            assert_eq!(spans_of(span_kind), counted, "seed {seed}: {what} spans");
            assert_eq!(gained(counter_name), counted, "seed {seed}: {what} in the registry");
            if let Some(event) = event {
                assert_eq!(lines_of(event), counted, "seed {seed}: {what} in the event log");
            }
        }
        assert_eq!(lines_of("serve_shed"), snap.rejected + snap.shed, "seed {seed}: shed lines");
    }
}

#[test]
fn non_aoa_models_are_rejected_at_construction() {
    let recs = records(4);
    let trained = matcher_over(ModelKind::Bert, &recs, 128);
    match ServeCore::new(trained, ServeConfig::default()) {
        Err(ServeError::UnsupportedModel) => {}
        Ok(_) => panic!("JointBERT has no split path; construction must fail"),
        Err(other) => panic!("wrong error: {other}"),
    }
}

// ---------------------------------------------------------------------------
// Threaded engine tests
// ---------------------------------------------------------------------------

#[test]
fn n_clients_under_load_each_answer_exactly_once() {
    let recs = records(16);
    let ckpt = checkpoint_over(&recs);
    let clock = Arc::new(FakeClock::new());
    let engine = ServeEngine::start(
        ckpt,
        ServeConfig {
            max_batch: 8,
            ..Default::default()
        },
        clock.clone(),
    )
    .unwrap();

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 6;
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let client = engine.client();
        let recs = recs.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(c as u64);
            let mut got = Vec::new();
            for _ in 0..PER_CLIENT {
                let i = rng.gen_range(0..recs.len());
                let j = rng.gen_range(0..recs.len());
                // Huge budget: with the clock frozen nothing can expire.
                let rx = client.submit(&recs[i], &recs[j], u64::MAX);
                got.push(rx);
            }
            let responses: Vec<MatchResponse> = got
                .into_iter()
                .map(|rx| rx.recv_timeout(Duration::from_secs(30)).expect("answered"))
                .collect();
            responses
        }));
    }
    let mut all: Vec<MatchResponse> = Vec::new();
    for h in handles {
        all.extend(h.join().expect("client thread"));
    }
    assert_eq!(all.len(), CLIENTS * PER_CLIENT, "every request answered");
    let mut ids: Vec<u64> = all.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), CLIENTS * PER_CLIENT, "duplicate answers");
    assert!(all
        .iter()
        .all(|r| matches!(r.outcome, MatchOutcome::Scored { .. })));

    let snap = engine.snapshot().unwrap();
    assert_eq!(snap.enqueued, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(snap.scored, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(snap.expired, 0);
    assert_eq!(snap.queue_depth, 0);
    assert!(snap.peak_queue_depth >= 1);
    assert!(snap.flushes >= 1);
    assert_eq!(snap.batch_size.count, snap.flushes);
    assert_eq!(snap.request_latency.count, snap.scored + snap.expired);
    assert!(
        snap.registry.counters.iter().any(|c| c.name == "serve.scored"),
        "serve.* metrics published on the engine thread"
    );
    engine.shutdown();
}

#[test]
fn fake_clock_expiry_is_reported_not_dropped() {
    let recs = records(4);
    let ckpt = checkpoint_over(&recs);
    let clock = Arc::new(FakeClock::new());
    let engine = ServeEngine::start(ckpt, ServeConfig::default(), clock.clone()).unwrap();
    let client = engine.client();
    // Deadline 1000ns from now; advance time far past it before the worker
    // can accumulate a full batch, so the deadline trigger fires on an
    // already-dead request.
    let rx = client.submit(&recs[0], &recs[1], 1_000);
    clock.advance(10_000);
    let resp = rx.recv_timeout(Duration::from_secs(30)).expect("answered");
    assert_eq!(resp.outcome, MatchOutcome::Expired, "stale request must expire");
    assert!(resp.completed_ns >= resp.enqueued_ns);
    let snap = engine.snapshot().unwrap();
    assert_eq!(snap.expired, 1);
    assert_eq!(snap.scored, 0);
    engine.shutdown();
}

#[test]
fn shutdown_drains_pending_requests() {
    let recs = records(6);
    let ckpt = checkpoint_over(&recs);
    let clock = Arc::new(FakeClock::new());
    // The first flush parks the worker inside `poll` until the test lets it
    // go, so what is sent meanwhile is still in the channel when the worker
    // comes back to it.
    let (entered_tx, entered) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let engine = ServeEngine::start_with_fault(
        ckpt,
        ServeConfig {
            max_batch: 3,
            ..Default::default()
        },
        clock,
        Box::new(move |flush| {
            if flush == 1 {
                entered_tx.send(()).expect("test is waiting");
                released.recv().expect("test releases the flush");
            }
        }),
    )
    .unwrap();
    let client = engine.client();
    // Huge budgets and a frozen clock: only the fill trigger fires, once.
    let mut rxs: Vec<_> = (0..3)
        .map(|k| client.submit(&recs[2 * k], &recs[2 * k + 1], u64::MAX))
        .collect();
    entered.recv().expect("the full batch flushes");
    // Two more submits race the shutdown. They never fill a batch, so on
    // either side of `Shutdown` only the drain can answer them. (What sits
    // *behind* `Shutdown` in the channel, snapshot and timelines requests
    // included, is `engine::tests::messages_behind_shutdown_are_answered`.)
    let stopper = std::thread::spawn(move || engine.shutdown());
    rxs.extend((0..2).map(|k| client.submit(&recs[k], &recs[k + 3], u64::MAX)));
    release.send(()).expect("worker is parked");
    stopper.join().expect("shutdown returns");
    for rx in rxs {
        let resp = rx.recv_timeout(Duration::from_secs(30)).expect("drained at shutdown");
        assert!(matches!(resp.outcome, MatchOutcome::Scored { .. }));
        assert!(rx.recv().is_err(), "request {} answered twice", resp.id);
    }
}

#[test]
fn engine_from_store_serves_the_restored_matcher() {
    let recs = records(6);
    let trained = matcher_over(ModelKind::EmbaFt, &recs, 128);
    let ckpt = Checkpoint::capture(&trained, ModelKind::EmbaFt, 4);
    let tmp = TempDir::new();
    let mut store = CheckpointStore::open(&tmp.0, 2).unwrap();
    store.save(&ckpt).unwrap();

    let clock = Arc::new(FakeClock::new());
    let engine = ServeEngine::from_store(
        &tmp.0,
        ServeConfig {
            max_batch: 1, // flush each request immediately
            ..Default::default()
        },
        clock,
    )
    .unwrap();
    let client = engine.client();
    let resp = client.score(&recs[0], &recs[1], u64::MAX).expect("engine alive");
    let MatchOutcome::Scored { prob, .. } = resp.outcome else {
        panic!("expired with an unbounded budget");
    };
    let want = trained.predict(&recs[0], &recs[1]).prob;
    assert!(
        (f64::from(prob) - want).abs() <= 1e-5,
        "restored engine {prob} vs original predict {want}"
    );
    engine.shutdown();
}

#[test]
fn from_store_without_snapshots_fails_cleanly() {
    let tmp = TempDir::new();
    let clock = Arc::new(FakeClock::new());
    match ServeEngine::from_store(&tmp.0, ServeConfig::default(), clock) {
        Err(ServeError::NoSnapshot) => {}
        Ok(_) => panic!("empty store must not start an engine"),
        Err(other) => panic!("wrong error: {other}"),
    }
}
