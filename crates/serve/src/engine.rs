//! The threaded serving engine and its in-process client.
//!
//! [`ServeEngine::start`] moves a [`Checkpoint`] into a dedicated worker
//! thread, restores the matcher **there** (the matcher itself is not
//! `Send`; the checkpoint — plain tensors and config — is), and runs a
//! [`ServeCore`] behind an MPSC control queue. Clients are cheap clones of
//! the queue's sender plus the shared clock; each request carries its own
//! reply channel, so responses route straight back to the submitting
//! client with no shared result map.
//!
//! The worker retains its [`RecoverySource`] — the startup checkpoint, or
//! the store directory it booted from — so a scoring panic is healed in
//! place: the core marks the matcher suspect, the next poll past the
//! backoff re-restores it, and the queue survives the fault. See the
//! supervision notes on [`ServeCore`].
//!
//! The worker alternates between receiving control messages and polling
//! the core: every message is followed by a poll, and when requests are
//! pending the receive blocks at most [`IDLE_TICK`] so deadline-triggered
//! flushes fire even if no further messages arrive (the tick is real time,
//! which keeps fake-clock timelines live too — each tick re-reads the
//! injected clock). Shutdown drains the queue and the core before the
//! thread exits, so every accepted request is answered exactly once even
//! across teardown.

use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use emba_core::Checkpoint;
use emba_datagen::Record;

use crate::clock::Clock;
use crate::core::{
    FlushFault, MatchResponse, RecoverySource, ServeConfig, ServeCore, ServerSnapshot,
};
use crate::error::ServeError;
use crate::spans::FlushTimeline;
use crate::telemetry::TelemetryServer;

/// Longest the worker sleeps while requests are pending. Real time, even
/// under a fake clock: it bounds how stale the worker's view of an
/// externally advanced clock can get.
const IDLE_TICK: Duration = Duration::from_millis(1);

pub(crate) enum EngineMsg {
    Score {
        left: Record,
        right: Record,
        deadline_ns: u64,
        reply: Sender<MatchResponse>,
    },
    Snapshot(Sender<ServerSnapshot>),
    Timelines(usize, Sender<Vec<FlushTimeline>>),
    Shutdown,
}

/// Sends the worker a question carrying its own reply channel and waits for
/// the answer; `None` if the worker is gone.
pub(crate) fn ask<T>(
    tx: &Sender<EngineMsg>,
    question: impl FnOnce(Sender<T>) -> EngineMsg,
) -> Option<T> {
    let (reply, answer) = mpsc::channel();
    tx.send(question(reply)).ok()?;
    answer.recv().ok()
}

/// A long-lived match-serving engine: one worker thread, one MPSC queue.
pub struct ServeEngine {
    tx: Sender<EngineMsg>,
    clock: Arc<dyn Clock>,
    handle: Option<JoinHandle<()>>,
}

impl ServeEngine {
    /// Starts an engine from an in-memory checkpoint. Blocks until the
    /// worker thread has restored the matcher and validated the split
    /// scoring path, so a returned engine is ready to score. The checkpoint
    /// is retained as the worker's recovery source.
    pub fn start(
        checkpoint: Checkpoint,
        cfg: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, ServeError> {
        Self::start_inner(
            RecoverySource::Checkpoint(Box::new(checkpoint)),
            cfg,
            clock,
            None,
        )
    }

    /// [`ServeEngine::start`] with a fault hook injected into the
    /// supervised scoring region of every flush — the entry point for the
    /// supervision tests (`tests/serve_faults.rs`).
    pub fn start_with_fault(
        checkpoint: Checkpoint,
        cfg: ServeConfig,
        clock: Arc<dyn Clock>,
        fault: FlushFault,
    ) -> Result<Self, ServeError> {
        Self::start_inner(
            RecoverySource::Checkpoint(Box::new(checkpoint)),
            cfg,
            clock,
            Some(fault),
        )
    }

    /// Starts an engine from the newest valid snapshot in a
    /// [`CheckpointStore`](emba_core::CheckpointStore) directory. Corrupt
    /// snapshots are skipped exactly as in training resume;
    /// [`ServeError::NoSnapshot`] means nothing in the directory was
    /// loadable. The directory is retained as the recovery source, so a
    /// post-fault restart re-reads the newest snapshot — including one
    /// written after the engine came up.
    pub fn from_store(
        dir: impl AsRef<std::path::Path>,
        cfg: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, ServeError> {
        Self::start_inner(
            RecoverySource::Store(dir.as_ref().to_path_buf()),
            cfg,
            clock,
            None,
        )
    }

    fn start_inner(
        recovery: RecoverySource,
        cfg: ServeConfig,
        clock: Arc<dyn Clock>,
        fault: Option<FlushFault>,
    ) -> Result<Self, ServeError> {
        let (tx, rx) = mpsc::channel::<EngineMsg>();
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), ServeError>>();
        let worker_clock = Arc::clone(&clock);
        let profile = cfg.profile;
        let handle = std::thread::Builder::new()
            .name("emba-serve".into())
            .spawn(move || {
                if profile {
                    emba_tensor::prof::reset();
                    emba_tensor::prof::enable(true);
                }
                let core = recovery.restore().and_then(|trained| {
                    let mut core = ServeCore::new(trained, cfg)?;
                    core.set_recovery(recovery);
                    // The worker's clock doubles as the span clock, so
                    // per-stage durations inside a flush (encode vs score)
                    // are attributed from the same injected time source.
                    core.set_span_clock(Arc::clone(&worker_clock));
                    if let Some(fault) = fault {
                        core.set_flush_fault(fault);
                    }
                    Ok(core)
                });
                match core {
                    Ok(core) => {
                        let _ = ready_tx.send(Ok(()));
                        run_worker(core, rx, worker_clock);
                    }
                    Err(e) => {
                        let _ = ready_tx.send(Err(e));
                    }
                }
            })
            .map_err(|e| ServeError::Spawn(e.to_string()))?;
        match ready_rx.recv() {
            Ok(Ok(())) => Ok(Self {
                tx,
                clock,
                handle: Some(handle),
            }),
            Ok(Err(e)) => {
                let _ = handle.join();
                Err(e)
            }
            Err(_) => {
                let _ = handle.join();
                Err(ServeError::EngineDied)
            }
        }
    }

    /// A new in-process client of this engine.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            tx: self.tx.clone(),
            clock: Arc::clone(&self.clock),
        }
    }

    /// Current serving statistics, gathered on the worker thread (the
    /// metrics registry is thread-local, so only the worker can read the
    /// `serve.*` section). [`ServerSnapshot::routes_depth`] is filled in
    /// with the worker's live reply-route count.
    pub fn snapshot(&self) -> Result<ServerSnapshot, ServeError> {
        ask(&self.tx, EngineMsg::Snapshot).ok_or(ServeError::EngineDied)
    }

    /// The most recent traced flush timelines, newest last. Empty unless
    /// [`ServeConfig::trace_spans`] is on. `last` caps how many come back
    /// (the worker keeps at most [`ServeConfig::recent_timelines`]).
    pub fn timelines(&self, last: usize) -> Result<Vec<FlushTimeline>, ServeError> {
        ask(&self.tx, |tx| EngineMsg::Timelines(last, tx)).ok_or(ServeError::EngineDied)
    }

    /// Starts the live telemetry endpoint on `addr` (e.g. `127.0.0.1:0`
    /// for an ephemeral port): a single-threaded HTTP server exposing
    /// `/metrics`, `/healthz`, `/snapshot`, and `/trace?last=K`. The
    /// server holds its own channel to the worker, so it keeps answering
    /// (`503 draining`) while the engine shuts down.
    pub fn serve_telemetry(&self, addr: &str) -> Result<TelemetryServer, ServeError> {
        TelemetryServer::start(addr, self.tx.clone())
    }

    /// Stops the engine, draining and answering everything still queued.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.tx.send(EngineMsg::Shutdown);
            let _ = handle.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// An in-process handle for submitting requests. Cheap to clone and to
/// move across threads.
#[derive(Clone)]
pub struct ServeClient {
    tx: Sender<EngineMsg>,
    clock: Arc<dyn Clock>,
}

impl ServeClient {
    /// Submits one pair with a relative deadline budget. Returns the
    /// receiver the answer will arrive on; [`Receiver::recv`] errors only
    /// if the engine died before answering.
    pub fn submit(
        &self,
        left: &Record,
        right: &Record,
        budget_ns: u64,
    ) -> Receiver<MatchResponse> {
        let (reply, rx) = mpsc::channel();
        let deadline_ns = self.clock.now_ns().saturating_add(budget_ns);
        // A send error means the engine is gone; the dropped reply sender
        // then surfaces as a recv error on `rx`, which is the caller-facing
        // signal either way.
        let _ = self.tx.send(EngineMsg::Score {
            left: left.clone(),
            right: right.clone(),
            deadline_ns,
            reply,
        });
        rx
    }

    /// Submits and blocks for the answer. `None` if the engine died.
    pub fn score(&self, left: &Record, right: &Record, budget_ns: u64) -> Option<MatchResponse> {
        self.submit(left, right, budget_ns).recv().ok()
    }
}

/// The worker loop: route messages into the core, poll after every message
/// and tick, drain on shutdown.
fn run_worker(mut core: ServeCore, rx: Receiver<EngineMsg>, clock: Arc<dyn Clock>) {
    let mut routes: HashMap<u64, Sender<MatchResponse>> = HashMap::new();
    let mut next_id: u64 = 0;
    let deliver = |routes: &mut HashMap<u64, Sender<MatchResponse>>,
                   responses: Vec<MatchResponse>| {
        for resp in responses {
            if let Some(reply) = routes.remove(&resp.id) {
                // A dropped receiver shows up as a SendError here; the
                // route entry is already removed above, so a hung-up client
                // leaves nothing behind. The engine's accounting answered
                // either way.
                let _ = reply.send(resp);
            }
        }
    };
    // Set by `Shutdown`: from then on the loop only empties the channel —
    // whatever was sent before the worker got here is still answered, by the
    // same arms as ever — and stops when nothing is left in it.
    let mut draining = false;
    loop {
        let msg = if draining {
            match rx.try_recv() {
                Ok(msg) => Some(msg),
                Err(_) => break,
            }
        } else if core.queue_depth() == 0 && !core.degraded() {
            // Nothing pending and nothing to heal: block until a message.
            match rx.recv() {
                Ok(msg) => Some(msg),
                Err(_) => break, // every sender dropped
            }
        } else {
            // Pending requests need deadline ticks; a degraded core needs
            // ticks to retry its restart once the backoff elapses.
            match rx.recv_timeout(IDLE_TICK) {
                Ok(msg) => Some(msg),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        };
        match msg {
            Some(EngineMsg::Score {
                left,
                right,
                deadline_ns,
                reply,
            }) => {
                let id = next_id;
                next_id += 1;
                routes.insert(id, reply);
                // Admission control may answer synchronously: a Rejected
                // for this request (queue full) and/or for shed victims.
                let admission = core.enqueue(id, left, right, clock.now_ns(), deadline_ns);
                deliver(&mut routes, admission);
            }
            Some(EngineMsg::Snapshot(tx)) => {
                let mut snap = core.snapshot();
                snap.routes_depth = routes.len();
                let _ = tx.send(snap);
            }
            Some(EngineMsg::Timelines(last, tx)) => {
                let _ = tx.send(core.timelines(last));
            }
            Some(EngineMsg::Shutdown) => draining = true,
            None => {}
        }
        if !draining {
            let responses = core.poll(clock.now_ns());
            deliver(&mut routes, responses);
        }
    }
    // Shutdown (or all clients gone): flush the core. Every accepted request
    // is answered exactly once.
    let responses = core.drain(clock.now_ns());
    deliver(&mut routes, responses);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;
    use crate::core::tests::{bert_matcher, record};

    /// Whatever is in the channel when the worker reads `Shutdown` is still
    /// answered, by the arms that answer it on any other day.
    #[test]
    fn messages_behind_shutdown_are_answered() {
        let cfg = ServeConfig { max_batch: 100, trace_spans: true, ..Default::default() };
        let core = ServeCore::new(bert_matcher(), cfg).expect("EmbaSb has the split scoring path");
        let (tx, rx) = mpsc::channel();
        let score = |text: &str| {
            let (reply, answer) = mpsc::channel();
            let (left, right) = (record(text), record("samsung evo ssd"));
            tx.send(EngineMsg::Score { left, right, deadline_ns: u64::MAX, reply }).unwrap();
            answer
        };
        let before = score("sandisk ultra card");
        tx.send(EngineMsg::Shutdown).unwrap();
        let behind = score("sandisk 128gb card");
        let (snap_tx, snapshot) = mpsc::channel();
        tx.send(EngineMsg::Snapshot(snap_tx)).unwrap();
        let (lines_tx, timelines) = mpsc::channel();
        tx.send(EngineMsg::Timelines(4, lines_tx)).unwrap();
        tx.send(EngineMsg::Shutdown).unwrap();

        run_worker(core, rx, Arc::new(FakeClock::new()));

        for answer in [before, behind] {
            let resp = answer.try_recv().expect("drained at shutdown");
            assert!(matches!(resp.outcome, crate::MatchOutcome::Scored { .. }));
            assert!(answer.try_recv().is_err(), "request {} answered twice", resp.id);
        }
        // Neither fills a batch nor is due: both were still queued, with
        // their routes held, when the snapshot was taken.
        let snap = snapshot.try_recv().expect("snapshot behind shutdown answered");
        assert_eq!((snap.enqueued, snap.queue_depth, snap.routes_depth), (2, 2, 2));
        assert!(snapshot.try_recv().is_err());
        assert!(timelines.try_recv().expect("timelines behind shutdown answered").is_empty());
        assert!(timelines.try_recv().is_err());
    }
}
