//! Fault-injection and overload tests for the serving engine.
//!
//! The deterministic half drives [`ServeCore`] with hand-written
//! timestamps through the three shed layers (admission, high-water,
//! flush-time expiry) and the supervision state machine (panic → degraded →
//! backoff-gated restart). The threaded half runs the real [`ServeEngine`]
//! with injected flush panics, NaN weights, poison records, and overload
//! bursts: every request answered exactly once, the queue bound respected,
//! and the engine alive after every fault.

mod common;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use common::{checkpoint_over, quiet_serve_panics, recoverable_core, records, TempDir};
use emba_core::CheckpointStore;
use emba_datagen::Record;
use emba_serve::{
    FakeClock, MatchOutcome, MatchResponse, RecoverySource, ServeConfig, ServeCore, ServeEngine,
};
use emba_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Admission control and shedding (deterministic ServeCore)
// ---------------------------------------------------------------------------

#[test]
fn full_queue_rejects_at_admission() {
    let recs = records(8);
    let mut core = recoverable_core(
        &recs,
        ServeConfig {
            max_batch: 100, // the fill trigger never fires
            max_queue_depth: 4,
            shed_high_water: 0, // isolate the admission layer
            ..Default::default()
        },
    );
    for id in 0..4 {
        let admission = core.enqueue(id, recs[0].clone(), recs[1].clone(), 0, u64::MAX);
        assert!(admission.is_empty(), "request {id} admitted below the bound");
    }
    assert_eq!(core.queue_depth(), 4);
    let admission = core.enqueue(4, recs[2].clone(), recs[3].clone(), 0, u64::MAX);
    assert_eq!(admission.len(), 1, "request at the bound must be answered");
    assert_eq!(admission[0].id, 4);
    assert_eq!(admission[0].outcome, MatchOutcome::Rejected);
    assert_eq!(admission[0].batch_size, 0);
    assert_eq!(core.queue_depth(), 4, "rejected request must not be queued");

    let snap = core.snapshot();
    assert_eq!(snap.rejected, 1);
    assert_eq!(snap.enqueued, 4, "rejection is not an admission");
    assert!(!snap.degraded);

    // The queue itself still serves.
    let responses = core.drain(0);
    assert_eq!(responses.len(), 4);
    assert!(responses
        .iter()
        .all(|r| matches!(r.outcome, MatchOutcome::Scored { .. })));
}

#[test]
fn high_water_sheds_least_remaining_budget_first() {
    let recs = records(10);
    let mut core = recoverable_core(
        &recs,
        ServeConfig {
            max_batch: 100,
            max_queue_depth: 100,
            shed_high_water: 3,
            ..Default::default()
        },
    );
    // Three requests with distinct budgets; id 1 has the least.
    core.enqueue(0, recs[0].clone(), recs[1].clone(), 0, 50_000);
    core.enqueue(1, recs[2].clone(), recs[3].clone(), 0, 10_000);
    core.enqueue(2, recs[4].clone(), recs[5].clone(), 0, 90_000);
    // The fourth arrival pushes the queue over the mark: the shed victim
    // must be id 1 (least remaining budget), not the newcomer and not the
    // oldest.
    let shed = core.enqueue(3, recs[6].clone(), recs[7].clone(), 0, 70_000);
    assert_eq!(shed.len(), 1);
    assert_eq!(shed[0].id, 1, "shed policy must pick the least-budget request");
    assert_eq!(shed[0].outcome, MatchOutcome::Rejected);
    assert_eq!(core.queue_depth(), 3);

    // A newcomer with the least budget of all is itself the victim.
    let shed = core.enqueue(4, recs[8].clone(), recs[9].clone(), 0, 1_000);
    assert_eq!(shed.len(), 1);
    assert_eq!(shed[0].id, 4);

    let snap = core.snapshot();
    assert_eq!(snap.shed, 2);
    assert_eq!(snap.rejected, 0);
    // Shed victims were admitted, so they count as enqueued; the survivors
    // all still answer.
    assert_eq!(snap.enqueued, 5);
    let responses = core.drain(0);
    let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
    assert_eq!(responses.len(), 3);
    assert!(ids.contains(&0) && ids.contains(&2) && ids.contains(&3));
}

/// Files each response under its request id; a second answer to one request
/// fails the test.
fn record_once(answered: &mut HashMap<u64, MatchOutcome>, responses: Vec<MatchResponse>) {
    for resp in responses {
        assert!(
            answered.insert(resp.id, resp.outcome).is_none(),
            "request {} answered twice",
            resp.id
        );
    }
}

#[test]
fn overload_accounting_partitions_every_request() {
    // A deterministic overload burst: far more arrivals than the bounded
    // queue can hold, polls interleaved at arbitrary times. Every request
    // is answered exactly once, the queue never exceeds its bound, and the
    // snapshot counters partition the request set.
    let recs = records(12);
    let cfg = ServeConfig {
        max_batch: 4,
        max_queue_depth: 8,
        shed_high_water: 6,
        ..Default::default()
    };
    let mut core = recoverable_core(&recs, cfg);
    let mut rng = StdRng::seed_from_u64(0xfa117);
    let mut answered: HashMap<u64, MatchOutcome> = HashMap::new();
    let mut record_answers = |responses| record_once(&mut answered, responses);
    let n: u64 = 60;
    let mut now: u64 = 0;
    for id in 0..n {
        now += rng.gen_range(0..300);
        let i = rng.gen_range(0..recs.len());
        let j = rng.gen_range(0..recs.len());
        let budget = rng.gen_range(500..20_000);
        record_answers(core.enqueue(id, recs[i].clone(), recs[j].clone(), now, now + budget));
        assert!(
            core.queue_depth() <= 8,
            "queue depth {} exceeds max_queue_depth",
            core.queue_depth()
        );
        if rng.gen_bool(0.3) {
            now += rng.gen_range(0..2_000);
            record_answers(core.poll(now));
        }
    }
    now += 50_000;
    record_answers(core.poll(now));
    record_answers(core.drain(now));
    assert_eq!(answered.len(), n as usize, "every request answered exactly once");

    let snap = core.snapshot();
    assert_eq!(
        snap.scored + snap.expired + snap.failed + snap.shed,
        snap.enqueued,
        "admitted requests must partition into scored/expired/failed/shed"
    );
    assert_eq!(snap.enqueued + snap.rejected, n);
    assert_eq!(snap.queue_depth, 0);
    assert!(snap.shed > 0, "the burst must cross the high-water mark");
    assert_eq!(
        snap.request_latency.count,
        snap.scored + snap.expired + snap.failed + snap.shed,
        "every admitted request's wait is recorded, shed victims' included; \
         admission rejects never waited"
    );
    assert!(snap.peak_queue_depth <= 8);
    assert_eq!(snap.failed, 0, "no faults were injected");
    assert!(snap.scored > 0, "overload must not collapse to zero goodput");
}

/// Scored requests per virtual second at `multiplier` times a sustainable
/// arrival rate. Time is virtual — arrivals on a fixed grid, each flush
/// charged 2 ms plus 1 ms per scored pair — so the number measures the shed
/// policy, not the host, and repeats exactly. At `max_batch` 16 a full flush
/// costs 18 ms for 16 requests, so the 4 ms base gap offers ~28% of capacity
/// and load saturates past ~4×.
fn simulated_goodput(recs: &[Record], multiplier: u64) -> f64 {
    const DEPTH: usize = 64;
    const N: u64 = 240;
    let mut core = recoverable_core(
        recs,
        ServeConfig {
            max_batch: 16,
            cache_capacity: 4 * recs.len(),
            max_queue_depth: DEPTH,
            shed_high_water: 48,
            ..Default::default()
        },
    );
    let gap = 4_000_000 / multiplier;
    let mut rng = StdRng::seed_from_u64(0xfa11 + multiplier);
    let mut answered: HashMap<u64, MatchOutcome> = HashMap::new();
    let mut record_answers = |responses| record_once(&mut answered, responses);
    let (mut now, mut next_id) = (0u64, 0u64);
    while next_id < N || core.queue_depth() > 0 {
        let arrival = (next_id < N).then_some(next_id * gap);
        let flush = core.next_flush_at().map(|at| at.max(now));
        // Arrivals win ties so a full-batch flush sees the request that
        // filled it.
        match (arrival, flush) {
            (Some(at), flush) if flush.is_none_or(|f| at <= f) => {
                now = now.max(at);
                let i = rng.gen_range(0..recs.len());
                let j = rng.gen_range(0..recs.len());
                let deadline = now + 200_000_000;
                record_answers(core.enqueue(next_id, recs[i].clone(), recs[j].clone(), now, deadline));
                next_id += 1;
            }
            (_, Some(at)) => {
                now = now.max(at);
                let responses = core.flush_if_due(now);
                let scored = responses
                    .iter()
                    .filter(|r| matches!(r.outcome, MatchOutcome::Scored { .. }))
                    .count() as u64;
                // Requests shed at flush time cost nothing: that is the
                // point of shedding before the encode stage.
                now += 2_000_000 + 1_000_000 * scored;
                record_answers(responses);
            }
            _ => break, // nothing offered, nothing due
        }
        assert!(core.queue_depth() <= DEPTH, "{multiplier}x: queue above its bound");
    }
    record_answers(core.drain(now));
    assert_eq!(answered.len() as u64, N, "{multiplier}x: every request answered exactly once");

    let snap = core.snapshot();
    assert_eq!(snap.scored + snap.expired + snap.rejected + snap.shed, N);
    assert_eq!(snap.failed, 0, "no faults were injected");
    assert!(snap.peak_queue_depth <= DEPTH);
    snap.scored as f64 / (now as f64 / 1e9)
}

#[test]
fn goodput_under_overload_stays_above_half_the_baseline() {
    let recs = records(24);
    let baseline = simulated_goodput(&recs, 1);
    assert!(baseline > 0.0);
    for multiplier in [2, 5, 10] {
        let goodput = simulated_goodput(&recs, multiplier);
        assert!(
            goodput >= 0.5 * baseline,
            "goodput at {multiplier}x offered load is {goodput:.1}/s against {baseline:.1}/s at 1x: \
             overload collapsed instead of degrading"
        );
    }
}

// ---------------------------------------------------------------------------
// Supervision: panics, quarantine, restart backoff (deterministic ServeCore)
// ---------------------------------------------------------------------------

#[test]
fn flush_panic_fails_only_that_batch_and_restart_heals() {
    quiet_serve_panics();
    let recs = records(8);
    let mut core = recoverable_core(
        &recs,
        ServeConfig {
            max_batch: 2,
            restart_backoff_ns: 100,
            restart_backoff_max_ns: 1_000,
            ..Default::default()
        },
    );
    core.set_flush_fault(Box::new(|flush| {
        if flush == 2 {
            panic!("injected fault in flush {flush}");
        }
    }));

    // Flush 1 scores cleanly and warms the cache with four encodings.
    core.enqueue(0, recs[0].clone(), recs[1].clone(), 0, u64::MAX);
    core.enqueue(1, recs[2].clone(), recs[3].clone(), 0, u64::MAX);
    let responses = core.poll(0);
    assert_eq!(responses.len(), 2);
    assert!(responses
        .iter()
        .all(|r| matches!(r.outcome, MatchOutcome::Scored { .. })));
    assert_eq!(core.snapshot().cache_resident, 4);

    // Flush 2 panics over the same (cached) records: the batch fails and
    // its now-suspect cache entries are quarantined.
    core.enqueue(2, recs[0].clone(), recs[1].clone(), 0, u64::MAX);
    core.enqueue(3, recs[2].clone(), recs[3].clone(), 0, u64::MAX);
    let responses = core.poll(0);
    assert_eq!(responses.len(), 2, "panicked flush must still answer its batch");
    for resp in &responses {
        match &resp.outcome {
            MatchOutcome::Failed(reason) => {
                assert!(
                    reason.contains("injected fault"),
                    "panic reason must reach the response, got {reason:?}"
                );
            }
            other => panic!("request {} answered {other:?}", resp.id),
        }
    }
    assert!(core.degraded(), "a panicked flush must mark the matcher suspect");

    // Before the backoff elapses no restart happens; the core stays
    // degraded even when polled.
    assert!(core.poll(50).is_empty());
    assert!(core.degraded());

    // Past the backoff the retained checkpoint heals the core in place and
    // new requests score again.
    core.enqueue(4, recs[4].clone(), recs[5].clone(), 150, u64::MAX);
    core.enqueue(5, recs[6].clone(), recs[7].clone(), 150, u64::MAX);
    let responses = core.poll(150);
    assert_eq!(responses.len(), 2);
    assert!(responses
        .iter()
        .all(|r| matches!(r.outcome, MatchOutcome::Scored { .. })));
    assert!(!core.degraded());

    let snap = core.snapshot();
    assert_eq!(snap.failed, 2);
    assert_eq!(snap.scored, 4);
    assert_eq!(snap.restarts, 1);
    assert_eq!(
        snap.cache_quarantines, 4,
        "the faulted batch's cache entries must be quarantined"
    );
}

#[test]
fn consecutive_panics_back_off_exponentially_and_still_recover() {
    quiet_serve_panics();
    let recs = records(4);
    let mut core = recoverable_core(
        &recs,
        ServeConfig {
            max_batch: 1,
            restart_backoff_ns: 100,
            restart_backoff_max_ns: 400,
            ..Default::default()
        },
    );
    // Panic in three consecutive flushes; the fourth succeeds.
    core.set_flush_fault(Box::new(|flush| {
        if flush <= 3 {
            panic!("injected fault in flush {flush}");
        }
    }));

    let mut now = 0u64;
    let mut failed = 0u64;
    for id in 0..3 {
        core.enqueue(id, recs[0].clone(), recs[1].clone(), now, u64::MAX);
        // Step far past any backoff so each poll restarts then flushes
        // (and panics) again.
        now += 10_000;
        let responses = core.poll(now);
        assert_eq!(responses.len(), 1, "flush {id} must answer its request");
        if matches!(responses[0].outcome, MatchOutcome::Failed(_)) {
            failed += 1;
        }
    }
    assert_eq!(failed, 3, "three injected panics, three failed requests");
    assert!(core.degraded());

    now += 10_000;
    core.enqueue(3, recs[2].clone(), recs[3].clone(), now, u64::MAX);
    let responses = core.poll(now);
    assert_eq!(responses.len(), 1);
    assert!(
        matches!(responses[0].outcome, MatchOutcome::Scored { .. }),
        "engine must answer after recovery, got {:?}",
        responses[0].outcome
    );

    let snap = core.snapshot();
    assert_eq!(snap.failed, 3);
    assert_eq!(snap.scored, 1);
    assert!(
        snap.restarts >= 3,
        "each healed panic is a restart; got {}",
        snap.restarts
    );
    assert!(!snap.degraded);
}

#[test]
fn degraded_core_sheds_expired_and_drain_answers_the_rest() {
    quiet_serve_panics();
    let recs = records(8);
    let ckpt = checkpoint_over(&recs);
    let trained = ckpt.restore().unwrap();
    // No recovery source: once suspect, the core stays degraded forever.
    let mut core = ServeCore::new(
        trained,
        ServeConfig {
            max_batch: 2,
            restart_backoff_ns: 10,
            ..Default::default()
        },
    )
    .unwrap();
    core.set_flush_fault(Box::new(|_| panic!("always faulting")));

    core.enqueue(0, recs[0].clone(), recs[1].clone(), 0, u64::MAX);
    core.enqueue(1, recs[2].clone(), recs[3].clone(), 0, u64::MAX);
    let responses = core.poll(0);
    assert_eq!(responses.len(), 2);
    assert!(responses
        .iter()
        .all(|r| matches!(r.outcome, MatchOutcome::Failed(_))));
    assert!(core.degraded());

    // While degraded, expired requests are still shed at flush time so
    // accounting never stalls behind the missing matcher.
    core.enqueue(2, recs[4].clone(), recs[5].clone(), 100, 200);
    core.enqueue(3, recs[6].clone(), recs[7].clone(), 100, u64::MAX);
    let responses = core.poll(10_000);
    assert_eq!(responses.len(), 1, "only the expired request can be answered");
    assert_eq!(responses[0].id, 2);
    assert_eq!(responses[0].outcome, MatchOutcome::Expired);

    // Shutdown must answer the survivor even though the matcher is gone.
    let responses = core.drain(10_000);
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].id, 3);
    assert!(
        matches!(responses[0].outcome, MatchOutcome::Failed(_)),
        "unrecoverable shutdown answers Failed, got {:?}",
        responses[0].outcome
    );
    assert_eq!(core.queue_depth(), 0);
}

#[test]
fn nan_weights_fail_requests_without_degrading_the_engine() {
    let recs = records(6);
    let mut ckpt = checkpoint_over(&recs);
    // Corrupt every parameter: the probe still passes (shape-only), but
    // every probability comes out non-finite.
    ckpt.params = ckpt
        .params
        .iter()
        .map(|t| Tensor::from_vec(t.rows(), t.cols(), vec![f32::NAN; t.rows() * t.cols()]))
        .collect();
    let trained = ckpt.restore().expect("NaN weights still restore");
    let mut core = ServeCore::new(
        trained,
        ServeConfig {
            max_batch: 2,
            ..Default::default()
        },
    )
    .expect("NaN weights must not fail construction");

    core.enqueue(0, recs[0].clone(), recs[1].clone(), 0, u64::MAX);
    core.enqueue(1, recs[2].clone(), recs[3].clone(), 0, u64::MAX);
    let responses = core.poll(0);
    assert_eq!(responses.len(), 2);
    for resp in &responses {
        assert_eq!(
            resp.outcome,
            MatchOutcome::Failed("non-finite probability".to_string()),
            "a NaN score must fail the request, never leak as a payload"
        );
    }
    // A deterministic weight fault is not a transient: the core must not
    // enter the restart loop (a restore would reproduce the NaN).
    assert!(!core.degraded());
    let snap = core.snapshot();
    assert_eq!(snap.failed, 2);
    assert_eq!(snap.scored, 0);
    assert_eq!(snap.restarts, 0);
    assert_eq!(
        snap.cache_resident, 0,
        "non-finite encodings must never become cache-resident"
    );
}

#[test]
fn poison_records_are_served_not_fatal() {
    // Empty records, enormous attributes, and non-UTF-8-ish control bytes
    // must flow through tokenize → encode → score like any other input.
    let recs = records(6);
    let mut core = recoverable_core(
        &recs,
        ServeConfig {
            max_batch: 1,
            ..Default::default()
        },
    );
    let poison = [
        Record::new(Vec::<(&str, String)>::new()),
        Record::new(vec![("title", String::new())]),
        Record::new(vec![("title", "x".repeat(1 << 16))]),
        Record::new(vec![(
            "title",
            String::from_utf8_lossy(&[0xff, 0xfe, 0x00, 0x01, 0xef]).into_owned(),
        )]),
        Record::new(vec![("\u{0}\u{1}", "\u{7f}\u{80}".to_string())]),
    ];
    for (k, bad) in poison.iter().enumerate() {
        let id = k as u64;
        core.enqueue(id, bad.clone(), recs[k].clone(), 0, u64::MAX);
        let responses = core.poll(0);
        assert_eq!(responses.len(), 1, "poison record {k} must be answered");
        assert!(
            matches!(
                responses[0].outcome,
                MatchOutcome::Scored { .. } | MatchOutcome::Failed(_)
            ),
            "poison record {k} answered {:?}",
            responses[0].outcome
        );
    }
    // Whatever the poison did, the engine must still serve clean requests.
    if core.degraded() {
        // Give the supervision loop room to restart.
        let _ = core.poll(u64::MAX / 2);
    }
    core.enqueue(99, recs[4].clone(), recs[5].clone(), 0, u64::MAX);
    let responses = core.poll(0);
    assert_eq!(responses.len(), 1);
    assert!(
        matches!(responses[0].outcome, MatchOutcome::Scored { .. }),
        "engine dead after poison records: {:?}",
        responses[0].outcome
    );
}

// ---------------------------------------------------------------------------
// Threaded engine under faults
// ---------------------------------------------------------------------------

#[test]
fn engine_survives_three_consecutive_flush_panics() {
    quiet_serve_panics();
    let recs = records(10);
    let ckpt = checkpoint_over(&recs);
    let clock = Arc::new(FakeClock::new());
    let engine = ServeEngine::start_with_fault(
        ckpt,
        ServeConfig {
            max_batch: 1, // each request flushes on its own
            restart_backoff_ns: 100,
            restart_backoff_max_ns: 1_000,
            ..Default::default()
        },
        clock.clone(),
        Box::new(|flush| {
            if flush <= 3 {
                panic!("injected fault in flush {flush}");
            }
        }),
    )
    .expect("engine starts");
    let client = engine.client();

    let mut outcomes = Vec::new();
    for k in 0..5 {
        let resp = client
            .score(&recs[2 * k], &recs[2 * k + 1], u64::MAX)
            .expect("engine must stay alive through injected panics");
        outcomes.push(resp.outcome);
        // Step the fake clock far past any backoff so the next request's
        // poll can restart the matcher.
        clock.advance(1_000_000);
    }
    let failed = outcomes
        .iter()
        .filter(|o| matches!(o, MatchOutcome::Failed(_)))
        .count();
    let scored = outcomes
        .iter()
        .filter(|o| matches!(o, MatchOutcome::Scored { .. }))
        .count();
    assert_eq!(failed, 3, "the three injected panics fail their requests");
    assert_eq!(scored, 2, "the engine answers again after recovery");
    assert!(
        matches!(outcomes.last(), Some(MatchOutcome::Scored { .. })),
        "the final request must score"
    );

    let snap = engine.snapshot().expect("engine alive");
    assert_eq!(snap.failed, 3);
    assert_eq!(snap.scored, 2);
    assert!(snap.restarts >= 3);
    assert!(!snap.degraded);
    assert_eq!(snap.routes_depth, 0, "all replies delivered");
    engine.shutdown();
}

#[test]
fn overload_burst_is_bounded_and_every_request_answered() {
    let recs = records(16);
    let ckpt = checkpoint_over(&recs);
    let clock = Arc::new(FakeClock::new());
    const DEPTH: usize = 8;
    let engine = ServeEngine::start(
        ckpt,
        ServeConfig {
            max_batch: 100, // the fill trigger never fires; only deadlines flush
            max_queue_depth: DEPTH,
            shed_high_water: 0, // exercise the hard bound
            ..Default::default()
        },
        clock.clone(),
    )
    .unwrap();
    let client = engine.client();

    // Burst far beyond the queue bound with the clock frozen: nothing can
    // flush, so the queue must fill and then reject.
    let mut rng = StdRng::seed_from_u64(7);
    let rxs: Vec<_> = (0..10 * DEPTH)
        .map(|_| {
            let i = rng.gen_range(0..recs.len());
            let j = rng.gen_range(0..recs.len());
            client.submit(&recs[i], &recs[j], 1_000_000)
        })
        .collect();
    // The snapshot message queues behind every Score message, so once it
    // answers, the whole burst was admitted (or rejected) at frozen time —
    // deterministically: the queue filled to DEPTH, everything after
    // bounced.
    let mid = engine.snapshot().unwrap();
    assert_eq!(mid.queue_depth, DEPTH);
    assert_eq!(mid.rejected as usize, 10 * DEPTH - DEPTH);
    // Unfreeze time: the survivors flush through the deadline trigger
    // (half of the 1ms budget). Keep stepping so any flush-straggler's
    // trigger eventually fires too.
    for _ in 0..10 {
        clock.advance(600_000);
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut scored = 0usize;
    let mut rejected = 0usize;
    let mut expired = 0usize;
    let mut ids = Vec::new();
    for rx in rxs {
        let resp = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("every burst request must be answered");
        ids.push(resp.id);
        match resp.outcome {
            MatchOutcome::Scored { .. } => scored += 1,
            MatchOutcome::Rejected => rejected += 1,
            MatchOutcome::Expired => expired += 1,
            MatchOutcome::Failed(reason) => panic!("burst request failed: {reason}"),
        }
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 10 * DEPTH, "exactly-once answers");
    assert!(rejected > 0, "a 10x burst must trip admission control");
    assert!(scored > 0, "overload must not collapse to zero goodput");

    let snap = engine.snapshot().unwrap();
    assert!(
        snap.peak_queue_depth <= DEPTH,
        "peak depth {} exceeds the bound {DEPTH}",
        snap.peak_queue_depth
    );
    assert_eq!(snap.rejected as usize, rejected);
    assert_eq!(snap.scored as usize + snap.expired as usize, scored + expired);
    assert_eq!(snap.routes_depth, 0);
    engine.shutdown();
}

#[test]
fn dropped_receivers_leave_no_routes_behind() {
    // N clients that hang up before their answers arrive: the worker's
    // route map must still end empty (prune-on-delivery + prune on
    // SendError), or every hung-up client would pin a Sender forever.
    let recs = records(8);
    let ckpt = checkpoint_over(&recs);
    let clock = Arc::new(FakeClock::new());
    let engine = ServeEngine::start(
        ckpt,
        ServeConfig {
            max_batch: 1, // flush each request as soon as it is polled
            ..Default::default()
        },
        clock,
    )
    .unwrap();
    let client = engine.client();

    const N: usize = 12;
    for k in 0..N {
        let rx = client.submit(&recs[k % 8], &recs[(k + 3) % 8], u64::MAX);
        drop(rx); // hang up immediately
    }
    // Wait until the worker has answered all N (delivery hits the closed
    // channels and must prune regardless).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let snap = engine.snapshot().expect("engine alive");
        if snap.scored + snap.expired + snap.failed >= N as u64 {
            assert_eq!(
                snap.routes_depth, 0,
                "dropped receivers must not leak route entries"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "engine never answered the dropped-receiver requests"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // And the engine still serves attached clients afterwards.
    let resp = client.score(&recs[0], &recs[1], u64::MAX).expect("alive");
    assert!(matches!(resp.outcome, MatchOutcome::Scored { .. }));
    engine.shutdown();
}

#[test]
fn from_store_races_a_concurrent_checkpoint_write() {
    // A serving engine booting from a store directory while a trainer is
    // mid-write must fall back to the newest *valid* snapshot: in-progress
    // `.tmp` files and torn half-written snapshots are skipped, exactly as
    // in training resume (PR-3 corruption semantics).
    let recs = records(6);
    let ckpt = checkpoint_over(&recs);
    let tmp = TempDir::new();
    let mut store = CheckpointStore::open(&tmp.0, 4).unwrap();
    store.save(&ckpt).unwrap();

    // Simulate the race: a stray in-progress temp file and a newer
    // snapshot torn mid-write (truncated to half its bytes).
    std::fs::write(tmp.0.join("ckpt-000002.json.tmp"), b"{\"magic\":\"emba-ck").unwrap();
    store.save(&ckpt).unwrap();
    let snaps = store.snapshots().unwrap();
    let newest = snaps.last().unwrap().1.clone();
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

    let clock = Arc::new(FakeClock::new());
    let engine = ServeEngine::from_store(
        &tmp.0,
        ServeConfig {
            max_batch: 1,
            ..Default::default()
        },
        clock,
    )
    .expect("newest-valid fallback must start the engine");
    let client = engine.client();
    let resp = client.score(&recs[0], &recs[1], u64::MAX).expect("alive");
    assert!(matches!(resp.outcome, MatchOutcome::Scored { .. }));
    engine.shutdown();
}

#[test]
fn degraded_core_restores_from_newest_store_snapshot() {
    quiet_serve_panics();
    // A core recovering from a store directory re-reads the newest valid
    // snapshot at restart time — including one written *after* the fault —
    // and skips torn files exactly as startup does.
    let recs = records(8);
    let ckpt = checkpoint_over(&recs);
    let tmp = TempDir::new();
    let mut store = CheckpointStore::open(&tmp.0, 4).unwrap();
    store.save(&ckpt).unwrap();

    let trained = ckpt.restore().unwrap();
    let mut core = ServeCore::new(
        trained,
        ServeConfig {
            max_batch: 1,
            restart_backoff_ns: 100,
            restart_backoff_max_ns: 1_000,
            ..Default::default()
        },
    )
    .unwrap();
    core.set_recovery(RecoverySource::Store(tmp.0.clone()));
    core.set_flush_fault(Box::new(|flush| {
        if flush == 1 {
            panic!("injected fault in flush {flush}");
        }
    }));

    core.enqueue(0, recs[0].clone(), recs[1].clone(), 0, u64::MAX);
    let responses = core.poll(0);
    assert_eq!(responses.len(), 1);
    assert!(matches!(responses[0].outcome, MatchOutcome::Failed(_)));
    assert!(core.degraded());

    // While degraded, a trainer writes a newer snapshot and tears a
    // half-finished one; the restart must pick the newest valid.
    store.save(&ckpt).unwrap();
    let snaps = store.snapshots().unwrap();
    let newest = snaps.last().unwrap().1.clone();
    let torn = newest.with_file_name("ckpt-000099.json");
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() / 3]).unwrap();

    core.enqueue(1, recs[2].clone(), recs[3].clone(), 10_000, u64::MAX);
    let responses = core.poll(10_000);
    assert_eq!(responses.len(), 1);
    assert!(
        matches!(responses[0].outcome, MatchOutcome::Scored { .. }),
        "store-backed restart must heal the core, got {:?}",
        responses[0].outcome
    );
    let snap = core.snapshot();
    assert_eq!(snap.restarts, 1);
    assert!(!snap.degraded);
}
