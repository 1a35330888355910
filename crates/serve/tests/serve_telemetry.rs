//! Observability tests: request-scoped tracing, the flight recorder and
//! postmortem dumps, the JSONL lifecycle event log, and the live telemetry
//! endpoint.
//!
//! The deterministic half drives [`ServeCore`] with hand-written
//! timestamps and asserts on the exact span events each lifecycle path
//! records. The threaded half runs a real [`ServeEngine`] with the
//! telemetry server attached and scrapes all four endpoints under
//! concurrent load.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{
    checkpoint_over, events_by_name, http_get, quiet_serve_panics, recoverable_core, records,
    TempDir,
};
use emba_serve::{MatchOutcome, ServeConfig, ServeCore, ServeEngine, SystemClock};
use emba_trace::{parse_exposition, parse_postmortem, validate_exposition, SpanKind};
use serde::Value;

fn kinds(spans: &[emba_trace::ServeSpanEvent]) -> Vec<SpanKind> {
    spans.iter().map(|e| e.kind).collect()
}

// ---------------------------------------------------------------------------
// Request-scoped tracing (deterministic ServeCore)
// ---------------------------------------------------------------------------

#[test]
fn lifecycle_spans_cover_the_request_path() {
    let recs = records(4);
    let mut core = recoverable_core(
        &recs,
        ServeConfig {
            max_batch: 2,
            trace_spans: true,
            ..Default::default()
        },
    );
    assert!(core.enqueue(0, recs[0].clone(), recs[1].clone(), 1_000, u64::MAX).is_empty());
    assert!(core.enqueue(1, recs[2].clone(), recs[3].clone(), 1_500, u64::MAX).is_empty());
    let responses = core.poll(2_000);
    assert_eq!(responses.len(), 2);

    let timelines = core.timelines(10);
    assert_eq!(timelines.len(), 1, "one traced flush → one timeline");
    let t = &timelines[0];
    assert_eq!(t.flush, 1);
    let ks = kinds(&t.spans);
    // Two queue waits, the batch-level Flush/Encode/Score stages, and a
    // Reply per request. No cache hits on a cold cache.
    assert_eq!(ks.iter().filter(|k| **k == SpanKind::QueueWait).count(), 2);
    assert_eq!(ks.iter().filter(|k| **k == SpanKind::Flush).count(), 1);
    assert_eq!(ks.iter().filter(|k| **k == SpanKind::Encode).count(), 1);
    assert_eq!(ks.iter().filter(|k| **k == SpanKind::Score).count(), 1);
    assert_eq!(ks.iter().filter(|k| **k == SpanKind::Reply).count(), 2);
    assert!(!ks.contains(&SpanKind::CacheHit));

    let encode = t.spans.iter().find(|e| e.kind == SpanKind::Encode).unwrap();
    assert_eq!(encode.detail, "misses=4", "four distinct records, all cold");
    let score = t.spans.iter().find(|e| e.kind == SpanKind::Score).unwrap();
    assert_eq!(score.detail, "pairs=2");
    let wait = t.spans.iter().find(|e| e.kind == SpanKind::QueueWait).unwrap();
    assert_eq!(wait.trace_id, 0);
    assert_eq!(wait.t_ns, 1_000, "queue wait starts at admission");
    assert_eq!(wait.dur_ns, 1_000, "admitted at 1000, flushed at 2000");

    // The same flush scored again is all cache hits.
    assert!(core.enqueue(2, recs[0].clone(), recs[1].clone(), 3_000, u64::MAX).is_empty());
    assert!(core.enqueue(3, recs[2].clone(), recs[3].clone(), 3_000, u64::MAX).is_empty());
    core.poll(4_000);
    let timelines = core.timelines(1);
    let ks = kinds(&timelines[0].spans);
    assert_eq!(
        ks.iter().filter(|k| **k == SpanKind::CacheHit).count(),
        1,
        "cache hits aggregate into one span per flush"
    );
    let hit = timelines[0].spans.iter().find(|e| e.kind == SpanKind::CacheHit).unwrap();
    assert_eq!(hit.detail, "hits=4");
    let encode = timelines[0].spans.iter().find(|e| e.kind == SpanKind::Encode).unwrap();
    assert_eq!(encode.detail, "misses=0");

    // The timeline renders as Chrome-trace JSON with one track per request.
    let chrome = timelines[0].chrome_trace();
    let v: Value = serde_json::from_str(&chrome).expect("chrome trace is valid JSON");
    assert!(v.get("traceEvents").and_then(Value::as_array).is_some());

    // Admitted spans (ring-only) plus both flushes' spans land in the
    // flight recorder, and the snapshot carries the recorder's counters.
    let recorded = core.flight_recorder().recorded();
    assert!(recorded > 0);
    let snap = core.snapshot();
    assert_eq!(snap.trace_events, recorded);
    assert_eq!(snap.trace_dropped, core.flight_recorder().dropped());
}

#[test]
fn tracing_disabled_records_no_request_spans() {
    let recs = records(4);
    let mut core = recoverable_core(
        &recs,
        ServeConfig {
            max_batch: 2,
            trace_spans: false,
            ..Default::default()
        },
    );
    assert!(core.enqueue(0, recs[0].clone(), recs[1].clone(), 1_000, u64::MAX).is_empty());
    assert!(core.enqueue(1, recs[2].clone(), recs[3].clone(), 1_000, u64::MAX).is_empty());
    let responses = core.poll(2_000);
    assert_eq!(responses.len(), 2);
    assert!(core.timelines(10).is_empty(), "no timelines with tracing off");
    assert_eq!(core.flight_recorder().recorded(), 0, "healthy run records nothing");
    let snap = core.snapshot();
    assert_eq!(snap.trace_events, 0);
    assert_eq!(snap.trace_dropped, 0);
}

#[test]
fn flight_recorder_wraps_and_counts_drops_through_the_core() {
    let recs = records(2);
    let mut core = recoverable_core(
        &recs,
        ServeConfig {
            max_batch: 1,
            flight_recorder: 4,
            trace_spans: true,
            ..Default::default()
        },
    );
    for id in 0..6 {
        assert!(core
            .enqueue(id, recs[0].clone(), recs[1].clone(), id * 1_000, u64::MAX)
            .is_empty());
        core.poll(id * 1_000 + 500);
    }
    let rec = core.flight_recorder();
    assert_eq!(rec.len(), 4, "ring holds exactly its capacity");
    assert!(rec.dropped() > 0);
    assert_eq!(rec.recorded(), rec.dropped() + 4);
    // The survivors are the newest events.
    let events = rec.events();
    let max_flush = events.iter().map(|e| e.flush).max().unwrap();
    assert_eq!(max_flush, 6, "latest flush's spans survive the wrap");
}

// ---------------------------------------------------------------------------
// Postmortem dumps (acceptance: failing flush spans + restart transitions)
// ---------------------------------------------------------------------------

#[test]
fn panic_postmortem_holds_failing_flush_and_restart_history() {
    quiet_serve_panics();
    let tmp = TempDir::new();
    let recs = records(4);
    let mut core = recoverable_core(
        &recs,
        ServeConfig {
            max_batch: 2,
            trace_spans: true,
            restart_backoff_ns: 1_000,
            postmortem_dir: Some(tmp.0.clone()),
            ..Default::default()
        },
    );
    core.set_flush_fault(Box::new(|flush| {
        if flush == 1 {
            panic!("injected telemetry fault");
        }
    }));

    assert!(core.enqueue(0, recs[0].clone(), recs[1].clone(), 1_000, u64::MAX).is_empty());
    assert!(core.enqueue(1, recs[2].clone(), recs[3].clone(), 1_000, u64::MAX).is_empty());
    let responses = core.poll(2_000);
    assert_eq!(responses.len(), 2);
    for r in &responses {
        assert!(
            matches!(&r.outcome, MatchOutcome::Failed(msg) if msg.contains("injected telemetry fault")),
            "failing flush answers Failed: {:?}",
            r.outcome
        );
    }
    assert!(core.degraded());
    assert_eq!(core.postmortems(), 0, "episode still open: no dump yet");

    // Past the backoff the restart succeeds and resolves the episode.
    core.poll(10_000);
    assert!(!core.degraded());
    assert_eq!(core.postmortems(), 1);

    let path = tmp.0.join("postmortem-0001.jsonl");
    let text = std::fs::read_to_string(&path).expect("postmortem file exists");
    let pm = parse_postmortem(&text).expect("postmortem parses");
    assert!(pm.reason.contains("recovered after"), "reason: {}", pm.reason);
    assert!(pm.reason.contains("injected telemetry fault"));
    assert_eq!(pm.spans.len() as u64 + pm.dropped, pm.recorded);

    // The dump holds the failing flush's request spans...
    let ks = kinds(&pm.spans);
    assert!(ks.contains(&SpanKind::Admitted));
    assert!(
        pm.spans.iter().any(|e| e.kind == SpanKind::QueueWait && e.flush == 1),
        "failing flush's queue-wait spans are in the dump"
    );
    assert!(
        pm.spans
            .iter()
            .any(|e| e.kind == SpanKind::Failed && e.flush == 1 && e.detail.contains("injected")),
        "failing flush's Failed spans carry the panic reason"
    );
    // ...and the supervision transitions that followed it.
    let idx = |k: SpanKind| ks.iter().position(|x| *x == k);
    let enter = idx(SpanKind::DegradedEnter).expect("DegradedEnter in dump");
    let attempt = idx(SpanKind::RestartAttempt).expect("RestartAttempt in dump");
    let restarted = idx(SpanKind::Restarted).expect("Restarted in dump");
    let exit = idx(SpanKind::DegradedExit).expect("DegradedExit in dump");
    assert!(enter < attempt && attempt < restarted && restarted < exit);
    let attempt_span = &pm.spans[attempt];
    assert!(attempt_span.detail.contains("backoff_ns="), "restart span names its backoff");
}

#[test]
fn failed_drain_dumps_postmortem_with_unanswered_queue() {
    quiet_serve_panics();
    let tmp = TempDir::new();
    let recs = records(4);
    let ckpt = checkpoint_over(&recs);
    let trained = ckpt.restore().unwrap();
    // No recovery source: once degraded, a drain cannot heal the matcher.
    let mut core = ServeCore::new(
        trained,
        ServeConfig {
            max_batch: 2,
            trace_spans: true,
            postmortem_dir: Some(tmp.0.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    core.set_flush_fault(Box::new(|_| panic!("unhealable fault")));

    assert!(core.enqueue(0, recs[0].clone(), recs[1].clone(), 1_000, u64::MAX).is_empty());
    assert!(core.enqueue(1, recs[2].clone(), recs[3].clone(), 1_000, u64::MAX).is_empty());
    core.poll(2_000);
    assert!(core.degraded());
    // Two more requests arrive while degraded; the drain must still answer
    // them and then preserve the episode's history.
    assert!(core.enqueue(2, recs[0].clone(), recs[1].clone(), 3_000, u64::MAX).is_empty());
    let responses = core.drain(4_000);
    assert_eq!(responses.len(), 1);
    assert_eq!(core.postmortems(), 1);

    let text = std::fs::read_to_string(tmp.0.join("postmortem-0001.jsonl")).unwrap();
    let pm = parse_postmortem(&text).expect("postmortem parses");
    assert!(pm.reason.contains("drain failed while degraded"), "reason: {}", pm.reason);
    assert!(pm.reason.contains("unhealable fault"));
    let ks = kinds(&pm.spans);
    assert!(ks.contains(&SpanKind::DegradedEnter));
    assert!(
        pm.spans.iter().any(|e| e.kind == SpanKind::Failed && e.flush == 1),
        "failing flush spans preserved"
    );
    assert!(
        pm.spans.iter().any(|e| e.kind == SpanKind::Failed && e.flush == 0),
        "drain-failed request recorded too"
    );
}

// ---------------------------------------------------------------------------
// JSONL lifecycle event log
// ---------------------------------------------------------------------------

#[test]
fn event_log_agrees_with_snapshot_summary() {
    quiet_serve_panics();
    let tmp = TempDir::new();
    let log_path = tmp.0.join("serve-events.jsonl");
    let recs = records(4);
    let summary = {
        let mut core = recoverable_core(
            &recs,
            ServeConfig {
                max_batch: 100, // the fill trigger never fires
                max_queue_depth: 2,
                shed_high_water: 0,
                event_log: Some(log_path.clone()),
                ..Default::default()
            },
        );
        // Two admitted, the third rejected at admission.
        assert!(core.enqueue(0, recs[0].clone(), recs[1].clone(), 0, 10_000).is_empty());
        assert!(core.enqueue(1, recs[2].clone(), recs[3].clone(), 0, 10_000).is_empty());
        let rejected = core.enqueue(2, recs[0].clone(), recs[2].clone(), 0, 10_000);
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].outcome, MatchOutcome::Rejected);
        // Both queued requests expire before their flush.
        let responses = core.poll(20_000);
        assert_eq!(responses.len(), 2);
        assert!(responses.iter().all(|r| r.outcome == MatchOutcome::Expired));
        // A third is in time, and its flush panics.
        core.set_flush_fault(Box::new(|_| panic!("injected telemetry fault")));
        assert!(core.enqueue(3, recs[0].clone(), recs[3].clone(), 20_000, 30_000).is_empty());
        let responses = core.poll(25_000);
        assert_eq!(responses.len(), 1);
        assert!(matches!(responses[0].outcome, MatchOutcome::Failed(_)));
        core.snapshot().to_summary()
        // core drops here, flushing the event log
    };

    // Every terminal outcome but `Scored` has a line per request.
    let by_event = events_by_name(&log_path);
    let lines = |event: &str| by_event.get(event).copied().unwrap_or(0);
    assert_eq!(lines("serve_shed"), summary.rejected + summary.shed);
    assert_eq!(lines("serve_expired"), summary.expired);
    assert_eq!(lines("serve_failed"), summary.failed);
    assert_eq!(lines("serve_degraded"), summary.degraded_entries);
    assert_eq!(summary.rejected, 1);
    assert_eq!(summary.expired, 2);
    assert_eq!(summary.failed, 1);
    assert_eq!(summary.enqueued, 3);
    assert_eq!(summary.degraded_entries, 1);
}

// ---------------------------------------------------------------------------
// Telemetry endpoint (threaded ServeEngine; acceptance: concurrent load)
// ---------------------------------------------------------------------------

#[test]
fn endpoints_respond_under_concurrent_load() {
    let recs = records(16);
    let clock = Arc::new(SystemClock::new());
    let engine = ServeEngine::start(
        checkpoint_over(&recs),
        ServeConfig {
            max_batch: 4,
            trace_spans: true,
            ..Default::default()
        },
        clock,
    )
    .expect("engine starts");
    let telemetry = engine.serve_telemetry("127.0.0.1:0").expect("telemetry binds");
    let addr = telemetry.addr();

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 8;
    let mut client_handles = Vec::new();
    for c in 0..CLIENTS {
        let client = engine.client();
        let recs = recs.clone();
        client_handles.push(std::thread::spawn(move || {
            let mut answered = 0usize;
            for i in 0..PER_CLIENT {
                let l = &recs[(c * PER_CLIENT + i) % recs.len()];
                let r = &recs[(c * PER_CLIENT + i + 7) % recs.len()];
                let resp = client.score(l, r, 5_000_000_000).expect("engine answers");
                assert!(
                    matches!(resp.outcome, MatchOutcome::Scored { .. }),
                    "generous budget must score: {:?}",
                    resp.outcome
                );
                answered += 1;
            }
            answered
        }));
    }
    // Scrapers hammer every endpoint while the clients are in flight.
    let mut scraper_handles = Vec::new();
    for _ in 0..2 {
        scraper_handles.push(std::thread::spawn(move || {
            for _ in 0..10 {
                let (status, body) = http_get(addr, "/metrics");
                assert_eq!(status, 200);
                let families = parse_exposition(&body).expect("exposition parses");
                assert!(!families.is_empty(), "registry has metrics by now");
                validate_exposition(&body).expect("exposition validates");
                let (status, body) = http_get(addr, "/healthz");
                assert_eq!(status, 200);
                assert_eq!(body.trim(), "live");
                let (status, body) = http_get(addr, "/snapshot");
                assert_eq!(status, 200);
                let v: Value = serde_json::from_str(&body).expect("snapshot is JSON");
                assert!(v.get("enqueued").is_some());
                let (status, body) = http_get(addr, "/trace?last=4");
                assert_eq!(status, 200);
                let v: Value = serde_json::from_str(&body).expect("trace is JSON");
                let timelines = v.as_array().expect("trace is a JSON array");
                assert!(timelines.len() <= 4);
            }
        }));
    }
    let answered: usize = client_handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(answered, CLIENTS * PER_CLIENT, "every request answered exactly once");
    for h in scraper_handles {
        h.join().unwrap();
    }

    // Final consistency pass once the load is done.
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE serve_enqueued counter"), "metrics:\n{body}");
    assert!(body.contains("serve_request_ns_bucket{le=\"+Inf\"}"));
    let (_, body) = http_get(addr, "/snapshot");
    let v: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(
        v.get("enqueued").and_then(Value::as_u64),
        Some((CLIENTS * PER_CLIENT) as u64)
    );
    let (status, body) = http_get(addr, "/trace?last=100");
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&body).unwrap();
    assert!(!v.as_array().unwrap().is_empty(), "traced flushes appear in /trace");
    let first = &v.as_array().unwrap()[0];
    assert!(first.get("spans").and_then(Value::as_array).is_some());
    // An absurd count is clamped to the timelines the worker holds.
    let (status, all) = http_get(addr, &format!("/trace?last={}", usize::MAX));
    assert_eq!((status, all), (200, body));

    // Unknown paths and non-GET methods are answered, not dropped.
    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);

    // After shutdown the endpoint stays up and reports draining.
    engine.shutdown();
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 503);
    assert_eq!(body.trim(), "draining");
    let (status, _) = http_get(addr, "/metrics");
    assert_eq!(status, 503);
    telemetry.stop();
}

/// The accept loop is one thread, so a request gets one deadline in total:
/// a client trickling its head a byte at a time — each byte well inside any
/// per-read timeout — is cut off, and the next scrape is answered.
#[test]
fn dribbling_client_is_cut_off_and_the_endpoint_stays_live() {
    // `telemetry::IO_TIMEOUT`.
    const REQUEST_DEADLINE: Duration = Duration::from_secs(2);
    let recs = records(4);
    let engine = ServeEngine::start(
        checkpoint_over(&recs),
        ServeConfig::default(),
        Arc::new(SystemClock::new()),
    )
    .expect("engine starts");
    let telemetry = engine.serve_telemetry("127.0.0.1:0").expect("telemetry binds");
    let addr = telemetry.addr();

    let mut slow = TcpStream::connect(addr).expect("telemetry endpoint accepts");
    slow.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let start = Instant::now();
    let mut reply = Vec::new();
    // "GET /healthz HTTP/1.1" would take 2.1 s to arrive at this pace, and
    // its blank line never comes.
    for &byte in b"GET /healthz HTTP/1.1".iter().cycle() {
        if slow.write_all(&[byte]).is_err() {
            break;
        }
        let mut chunk = [0u8; 256];
        match slow.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                reply.extend_from_slice(&chunk[..n]);
                break;
            }
            Err(_) => {} // nothing yet: 100 ms have passed, send the next byte
        }
        assert!(
            start.elapsed() < 2 * REQUEST_DEADLINE,
            "still being served after {:?}",
            start.elapsed()
        );
    }
    let held = start.elapsed();
    assert!(held >= REQUEST_DEADLINE - Duration::from_millis(200), "cut off early, at {held:?}");
    assert!(
        reply.is_empty() || reply.starts_with(b"HTTP/1.1 408"),
        "a request that never finished was answered {:?}",
        String::from_utf8_lossy(&reply)
    );

    let (status, body) = http_get(addr, "/healthz");
    assert_eq!((status, body.trim()), (200, "live"));
    engine.shutdown();
    telemetry.stop();
}

#[test]
fn healthz_reports_degraded_while_matcher_is_suspect() {
    quiet_serve_panics();
    let recs = records(8);
    let clock = Arc::new(SystemClock::new());
    let engine = ServeEngine::start_with_fault(
        checkpoint_over(&recs),
        ServeConfig {
            max_batch: 2,
            trace_spans: true,
            // A backoff far past the test's lifetime keeps the core
            // degraded deterministically once the fault fires.
            restart_backoff_ns: 3_600_000_000_000,
            restart_backoff_max_ns: 3_600_000_000_000,
            ..Default::default()
        },
        clock,
        Box::new(|_| panic!("always faulting")),
    )
    .expect("engine starts");
    let telemetry = engine.serve_telemetry("127.0.0.1:0").expect("telemetry binds");
    let addr = telemetry.addr();

    let client = engine.client();
    let a = client.submit(&recs[0], &recs[1], 5_000_000_000);
    let b = client.submit(&recs[2], &recs[3], 5_000_000_000);
    for rx in [a, b] {
        let resp = rx.recv().expect("answered");
        assert!(matches!(resp.outcome, MatchOutcome::Failed(_)));
    }
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 503);
    assert_eq!(body.trim(), "degraded");
    // The snapshot agrees with the health verdict.
    let (_, body) = http_get(addr, "/snapshot");
    let v: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("degraded_entries").and_then(Value::as_u64), Some(1));
    engine.shutdown();
    telemetry.stop();
}
