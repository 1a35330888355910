//! Request-scoped tracing support: the flight recorder and flush timelines.
//!
//! [`ServeCore`](crate::ServeCore) owns one [`FlightRecorder`] — a plain
//! fixed-size ring (the core is single-threaded, so no synchronization) of
//! the last N [`ServeSpanEvent`]s. Request lifecycle spans are recorded
//! only when [`ServeConfig::trace_spans`](crate::ServeConfig::trace_spans)
//! is on (the hot path stays allocation-free otherwise); supervision
//! transitions (degraded enter/exit, restarts, quarantines) are always
//! recorded — they are rare, and they are exactly what a postmortem needs.
//!
//! Each traced flush also condenses into a [`FlushTimeline`]: the flush's
//! spans plus its wall-clock window, kept in a short recency list and
//! exportable as Chrome-trace JSON (one track per request id) so a flush
//! renders in `chrome://tracing` next to the op-level profile.

use std::collections::VecDeque;

use emba_trace::prof_export::{chrome_trace_spans, TraceSpan};
use emba_trace::ServeSpanEvent;
use serde::Serialize;

/// Fixed-size ring of the most recent span events. Oldest events are
/// overwritten (and counted as dropped) once the ring is full; the ring is
/// what a postmortem dump preserves.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<ServeSpanEvent>,
    capacity: usize,
    recorded: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// A ring holding at most `capacity` events (`0` keeps nothing but
    /// still counts what it was offered).
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Records one event, evicting the oldest if the ring is full.
    pub fn record(&mut self, event: ServeSpanEvent) {
        self.recorded += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<ServeSpanEvent> {
        self.ring.iter().cloned().collect()
    }

    /// Events held right now.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events recorded over the ring's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events overwritten (lost history) over the ring's lifetime.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// One traced flush: its clock window and every span event it produced
/// (queue waits, encode/cache-hit attribution, scoring, replies).
#[derive(Debug, Clone, Serialize)]
pub struct FlushTimeline {
    /// 1-based flush ordinal.
    pub flush: u64,
    /// Clock instant the flush started, nanoseconds.
    pub start_ns: u64,
    /// Clock instant the flush finished, nanoseconds.
    pub end_ns: u64,
    /// The flush's span events in recording order.
    pub spans: Vec<ServeSpanEvent>,
}

impl FlushTimeline {
    /// Renders the timeline as Chrome-trace JSON: one `ph: "X"` event per
    /// span, with each request's spans on their own track (`tid` = the
    /// request's trace id; batch-level spans land on track 0).
    pub fn chrome_trace(&self) -> String {
        let spans: Vec<TraceSpan> = self
            .spans
            .iter()
            .map(|e| TraceSpan {
                name: e.kind.as_str().to_string(),
                cat: format!("flush-{}", e.flush),
                start_ns: e.t_ns,
                dur_ns: e.dur_ns,
                tid: e.trace_id,
            })
            .collect();
        chrome_trace_spans(&spans, "emba-serve", 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emba_trace::SpanKind;
    use serde::Value;

    fn span(trace_id: u64, kind: SpanKind, t_ns: u64, dur_ns: u64, flush: u64) -> ServeSpanEvent {
        ServeSpanEvent { trace_id, kind, t_ns, dur_ns, flush, detail: String::new() }
    }

    fn ev(trace_id: u64, t_ns: u64) -> ServeSpanEvent {
        span(trace_id, SpanKind::Reply, t_ns, 10, 1)
    }

    #[test]
    fn ring_keeps_the_newest_events_and_counts_drops() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5 {
            r.record(ev(i, i * 100));
        }
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.len(), 3);
        let ids: Vec<u64> = r.events().iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest events must be the ones evicted");
    }

    #[test]
    fn zero_capacity_ring_counts_but_keeps_nothing() {
        let mut r = FlightRecorder::new(0);
        r.record(ev(1, 1));
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn timeline_renders_chrome_trace_with_request_tracks() {
        let timeline = FlushTimeline {
            flush: 2,
            start_ns: 1_000,
            end_ns: 9_000,
            spans: vec![
                span(7, SpanKind::QueueWait, 1_000, 4_000, 2),
                span(0, SpanKind::Score, 5_000, 3_000, 2),
                span(7, SpanKind::Reply, 8_000, 7_000, 2),
            ],
        };
        let text = timeline.chrome_trace();
        let v: Value = serde_json::from_str(&text).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 4); // metadata + three spans
        assert_eq!(events[1].get("name").and_then(Value::as_str), Some("QueueWait"));
        assert_eq!(events[1].get("tid").and_then(Value::as_u64), Some(7));
        assert_eq!(events[1].get("cat").and_then(Value::as_str), Some("flush-2"));
        assert_eq!(events[2].get("tid").and_then(Value::as_u64), Some(0));
    }
}
