//! The live telemetry endpoint: a hand-rolled HTTP/1.1 server over a
//! [`std::net::TcpListener`] (no external dependencies, one thread) that
//! answers operational questions about a running [`ServeEngine`]:
//!
//! - `GET /metrics` — the full metrics registry in Prometheus text
//!   exposition format (counters, gauges, histograms with cumulative
//!   buckets), rendered by [`emba_trace::prometheus_text`].
//! - `GET /healthz` — `200 live` when the engine is healthy, `503
//!   degraded` while the matcher is suspect, `503 draining` once the
//!   worker has exited (or is shutting down).
//! - `GET /snapshot` — the full [`ServerSnapshot`] as JSON.
//! - `GET /trace?last=K` — the most recent K traced flush timelines
//!   (JSON; empty unless [`ServeConfig::trace_spans`] is on).
//!
//! The server owns its own clone of the engine's control channel, so every
//! scrape is answered by the worker thread itself — the metrics registry
//! is thread-local to the worker, and routing reads through it keeps the
//! endpoint consistent with what the engine's own accounting says.
//!
//! [`ServeEngine`]: crate::ServeEngine
//! [`ServeConfig::trace_spans`]: crate::ServeConfig::trace_spans

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use emba_trace::prometheus_text;

use crate::engine::{ask, EngineMsg};
use crate::error::ServeError;

/// Most request bytes the server will buffer before giving up on a client.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long one request may take to arrive, in total, and how long a write of
/// its response may stall, before the connection is dropped.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Default flush-timeline count for `/trace` without a `last=` parameter.
const DEFAULT_TRACE_LAST: usize = 8;

/// A running telemetry endpoint. Dropping it (or calling
/// [`TelemetryServer::stop`]) shuts the server thread down; the engine it
/// watches is unaffected either way.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// single server thread. `tx` is the engine's control channel; the
    /// server keeps answering `503 draining` after the worker exits.
    pub(crate) fn start(addr: &str, tx: Sender<EngineMsg>) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError::Telemetry(format!("bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Telemetry(format!("local_addr: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("emba-telemetry".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // One bad client must not take the endpoint down;
                        // errors just drop the connection.
                        let _ = handle_connection(stream, &tx);
                    }
                }
            })
            .map_err(|e| ServeError::Telemetry(format!("spawn: {e}")))?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address — the ephemeral port lives here when the server
    /// was started on port 0.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server thread and unbinds the port.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // The accept loop blocks in `incoming()`; a throwaway
            // connection wakes it so it can observe the stop flag.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Where a request goes. Parsing is split from I/O so it can be fuzzed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Metrics,
    Healthz,
    Snapshot,
    /// `/trace` with its `last=` count ([`DEFAULT_TRACE_LAST`] when absent
    /// or unparsable). The worker clamps it to what it holds.
    Trace(usize),
    NotFound,
    MethodNotAllowed,
}

/// Routes a request head by its first line alone: `GET` plus one of the four
/// paths, anything else 404 or 405. Works on raw bytes — a head need not be
/// UTF-8, terminated, or short.
fn parse_request(head: &[u8]) -> Route {
    let line = head.split(|&b| b == b'\n').next().unwrap_or_default();
    let mut parts = line
        .split(u8::is_ascii_whitespace)
        .filter(|p| !p.is_empty());
    if parts.next() != Some(b"GET") {
        return Route::MethodNotAllowed;
    }
    let target = parts.next().unwrap_or_default();
    let mut halves = target.splitn(2, |&b| b == b'?');
    let path = halves.next().unwrap_or_default();
    let query = halves.next().unwrap_or_default();
    match path {
        b"/metrics" => Route::Metrics,
        b"/healthz" => Route::Healthz,
        b"/snapshot" => Route::Snapshot,
        b"/trace" => Route::Trace(
            query
                .split(|&b| b == b'&')
                .find_map(|kv| kv.strip_prefix(b"last="))
                .and_then(|v| std::str::from_utf8(v).ok())
                .and_then(|v| v.parse().ok())
                .unwrap_or(DEFAULT_TRACE_LAST),
        ),
        _ => Route::NotFound,
    }
}

/// Reads one request, routes it, writes one response, closes. The whole
/// request shares one [`IO_TIMEOUT`]: the accept loop is single-threaded, so
/// a client may not buy more time by sending another byte.
fn handle_connection(mut stream: TcpStream, tx: &Sender<EngineMsg>) -> std::io::Result<()> {
    let deadline = Instant::now() + IO_TIMEOUT;
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let mut scanned = 0;
    // Read until the end of the request head. GET requests carry no body,
    // and anything else is answered 405 without reading further.
    while !head_complete(&buf, scanned) && buf.len() < MAX_REQUEST_BYTES {
        scanned = buf.len();
        let left = deadline.saturating_duration_since(Instant::now());
        let read = if left.is_zero() {
            Err(ErrorKind::TimedOut.into())
        } else {
            stream
                .set_read_timeout(Some(left))
                .and_then(|()| stream.read(&mut chunk))
        };
        match read {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return respond(
                    &mut stream,
                    "408 Request Timeout",
                    "text/plain",
                    "too slow\n",
                );
            }
            Err(e) => return Err(e),
        }
    }
    const DRAINING: (&str, &str, &str) = ("503 Service Unavailable", "text/plain", "draining\n");
    let json = |body: Result<String, serde_json::Error>| {
        body.unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    };
    let rendered;
    let (status, content_type, body) = match parse_request(&buf) {
        Route::MethodNotAllowed => ("405 Method Not Allowed", "text/plain", "GET only\n"),
        Route::NotFound => ("404 Not Found", "text/plain", "not found\n"),
        Route::Metrics => match ask(tx, EngineMsg::Snapshot) {
            Some(snap) => {
                rendered = prometheus_text(&snap.registry);
                (
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    rendered.as_str(),
                )
            }
            None => DRAINING,
        },
        Route::Healthz => match ask(tx, EngineMsg::Snapshot) {
            Some(snap) if snap.degraded => ("503 Service Unavailable", "text/plain", "degraded\n"),
            Some(_) => ("200 OK", "text/plain", "live\n"),
            None => DRAINING,
        },
        Route::Snapshot => match ask(tx, EngineMsg::Snapshot) {
            Some(snap) => {
                rendered = json(serde_json::to_string(&snap));
                ("200 OK", "application/json", rendered.as_str())
            }
            None => DRAINING,
        },
        Route::Trace(last) => match ask(tx, |reply| EngineMsg::Timelines(last, reply)) {
            Some(timelines) => {
                rendered = json(serde_json::to_string(&timelines));
                ("200 OK", "application/json", rendered.as_str())
            }
            None => DRAINING,
        },
    };
    respond(&mut stream, status, content_type, body)
}

/// Whether `buf` holds a blank line, looking only at the bytes from `scanned`
/// on (and the three before them, which a terminator may straddle).
fn head_complete(buf: &[u8], scanned: usize) -> bool {
    let tail = &buf[scanned.saturating_sub(3)..];
    tail.windows(4).any(|w| w == b"\r\n\r\n") || tail.windows(2).any(|w| w == b"\n\n")
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    //! Byte-level properties of [`parse_request`]: whatever arrives, it
    //! returns a route — and one of the four endpoints only for `GET` plus
    //! exactly that path.

    use super::*;
    use proptest::prelude::*;

    fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        collection::vec(0u16..256, 0..max).prop_map(|v| v.into_iter().map(|b| b as u8).collect())
    }

    const METHODS: [&str; 6] = ["GET", "POST", "get", "GE", "GETT", ""];
    const PATHS: [&str; 10] = [
        "/metrics",
        "/healthz",
        "/snapshot",
        "/trace",
        "/",
        "/metrics/",
        "/Healthz",
        "/trace2",
        "metrics",
        "/snap\u{0}shot",
    ];
    const ENDINGS: [&str; 5] = [
        " HTTP/1.1\r\n\r\n",
        " HTTP/1.1\n\n",
        "\n",
        "\r\nHost: x",
        "",
    ];

    #[test]
    fn head_completion_only_needs_the_new_bytes() {
        assert!(!head_complete(b"", 0));
        assert!(!head_complete(b"GET / HTTP/1.1\r\n", 0));
        assert!(head_complete(b"GET / HTTP/1.1\r\n\r\n", 0));
        // A terminator straddling the scan boundary is still seen ...
        for scanned in 15..=17 {
            assert!(head_complete(b"GET / HTTP/1.1\r\n\r\n", scanned));
        }
        assert!(head_complete(b"GET /\n\n", 6));
        // ... and one wholly behind it is not looked for again.
        assert!(!head_complete(b"GET /\n\nmore", 10));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes — non-UTF-8, unterminated, past the buffer cap —
        /// parse without panicking, and reach an endpoint only when they
        /// begin with `GET`, whitespace, and that endpoint's path.
        #[test]
        fn arbitrary_bytes_route_only_through_get(head in bytes(2 * MAX_REQUEST_BYTES)) {
            let endpoint = match parse_request(&head) {
                Route::Metrics => "/metrics",
                Route::Healthz => "/healthz",
                Route::Snapshot => "/snapshot",
                Route::Trace(_) => "/trace",
                Route::NotFound | Route::MethodNotAllowed => return Ok(()),
            };
            let start = head.iter().position(|b| !b.is_ascii_whitespace()).unwrap_or(head.len());
            let rest = head[start..].strip_prefix(b"GET").expect("routed without GET");
            prop_assert!(rest.first().is_some_and(u8::is_ascii_whitespace));
            let start = rest.iter().position(|b| !b.is_ascii_whitespace()).unwrap_or(rest.len());
            let after = rest[start..].strip_prefix(endpoint.as_bytes()).expect("routed to another path");
            prop_assert!(after.first().is_none_or(|&b| b == b'?' || b.is_ascii_whitespace()));
        }

        /// A request assembled from parts routes by its method and path alone:
        /// line endings, headers and arbitrary trailing bytes change nothing.
        #[test]
        fn assembled_requests_route_by_method_and_path(
            pick in any::<u64>(),
            tail in bytes(2 * MAX_REQUEST_BYTES),
        ) {
            let method = METHODS[pick as usize % METHODS.len()];
            let path = PATHS[(pick >> 8) as usize % PATHS.len()];
            let ending = ENDINGS[(pick >> 16) as usize % ENDINGS.len()];
            let mut head = format!("{method} {path}{ending}").into_bytes();
            // Trailing bytes count only once the request line has ended.
            if ending.contains('\n') {
                head.extend_from_slice(&tail);
            }
            let expect = match (method, path) {
                ("GET", "/metrics") => Route::Metrics,
                ("GET", "/healthz") => Route::Healthz,
                ("GET", "/snapshot") => Route::Snapshot,
                ("GET", "/trace") => Route::Trace(DEFAULT_TRACE_LAST),
                ("GET", _) => Route::NotFound,
                _ => Route::MethodNotAllowed,
            };
            prop_assert_eq!(parse_request(&head), expect);
        }

        /// `?last=` is a count only when it is digits (after an optional `+`)
        /// that fit a `usize`; junk, overflow and non-UTF-8 fall back to the
        /// default. The count is never used to size anything here — the
        /// worker clamps it to the timelines it holds.
        #[test]
        fn trace_last_is_a_number_or_the_default(value in bytes(24), digits in any::<u64>()) {
            let request = |v: &[u8]| [b"GET /trace?x=1&last=".as_slice(), v, b"&y=2 HTTP/1.1\r\n"].concat();
            let expect = std::str::from_utf8(&value)
                .ok()
                .map(|v| v.strip_prefix('+').unwrap_or(v))
                .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse().ok())
                .unwrap_or(DEFAULT_TRACE_LAST);
            // A value that reaches past the query (whitespace, `&`, a line
            // end) is cut there by the request grammar, not by this parser.
            if !value.iter().any(|b| b.is_ascii_whitespace() || *b == b'&') {
                prop_assert_eq!(parse_request(&request(&value)), Route::Trace(expect));
            }
            let n = digits as usize;
            prop_assert_eq!(parse_request(&request(n.to_string().as_bytes())), Route::Trace(n));
            let overflow = format!("{}0", usize::MAX);
            prop_assert_eq!(parse_request(&request(overflow.as_bytes())), Route::Trace(DEFAULT_TRACE_LAST));
        }
    }
}
