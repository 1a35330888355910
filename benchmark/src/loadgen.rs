//! The single-threaded load generator: an open loop that sends on a fixed
//! schedule whatever the engine does, and a closed loop that keeps a fixed
//! number of requests outstanding.
//!
//! Open-loop latency is timed from the instant a request was **due**, not
//! from when it was sent: if the engine (or the generator) stalls, the
//! requests scheduled during the stall are still sent, late, and the stall
//! shows in their latency. Timing from the send instant would hide it
//! (coordinated omission). How late the generator ran is reported as its
//! own number so that a slow generator is not mistaken for a slow engine.
//!
//! The loops are written against [`Target`] and `emba_serve::Clock`, so the
//! tests drive them with a scripted target and a `FakeClock`.

use emba_serve::Clock;

/// How a request ended, as the generator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Status {
    /// No reply yet.
    Pending,
    /// Scored, with the probability.
    Scored(f32),
    /// Answered, but not with a score (expired, rejected, shed or failed).
    Refused,
    /// The reply channel closed without an answer.
    Lost,
}

/// One reply observed by polling the target.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// The request, by the index it was submitted under.
    pub index: usize,
    /// How it ended.
    pub status: Status,
    /// When the flush that answered it started, on the shared clock
    /// (`MatchResponse::completed_ns`).
    pub flush_ns: u64,
}

/// What the generator drives: the engine in a run, a script in the tests.
pub trait Target {
    /// Submits request `index` (fire and forget).
    fn submit(&mut self, index: usize);
    /// Appends every reply that has arrived since the last poll.
    fn poll(&mut self, out: &mut Vec<Reply>);
}

/// The generator's record of one request; times are on the shared clock.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the request was due.
    pub due_ns: u64,
    /// When it was actually sent (`>= due_ns`).
    pub sent_ns: u64,
    /// Cost of the `submit` call itself.
    pub submit_ns: u64,
    /// When the answering flush started.
    pub flush_ns: u64,
    /// When the generator observed the reply.
    pub done_ns: u64,
    /// How it ended.
    pub status: Status,
    /// Replies seen for it; anything but 1 is a failure.
    pub replies: u32,
}

impl Sample {
    fn new(due_ns: u64) -> Self {
        Self {
            due_ns,
            sent_ns: 0,
            submit_ns: 0,
            flush_ns: 0,
            done_ns: 0,
            status: Status::Pending,
            replies: 0,
        }
    }

    /// Due instant to reply observed, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// Due instant to the start of the answering flush, in ms.
    pub fn wait_ms(&self) -> f64 {
        self.flush_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// Start of the answering flush to reply observed, in ms.
    pub fn service_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.flush_ns.max(self.due_ns)) as f64 / 1e6
    }

    /// How late the generator sent it, in ms.
    pub fn late_ms(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e6
    }

    /// Answered with a score exactly once within `limit_ns` of being due.
    pub fn ok(&self, limit_ns: u64) -> bool {
        matches!(self.status, Status::Scored(_))
            && self.replies == 1
            && self.done_ns.saturating_sub(self.due_ns) <= limit_ns
    }
}

fn absorb(samples: &mut [Sample], base: usize, replies: &mut Vec<Reply>, now_ns: u64) -> usize {
    let mut finished = 0;
    for r in replies.drain(..) {
        let s = &mut samples[r.index - base];
        s.replies += 1;
        if s.replies == 1 {
            s.status = r.status;
            s.flush_ns = r.flush_ns;
            s.done_ns = now_ns;
            finished += 1;
        }
    }
    finished
}

/// Sends request `base + k` when `dues[k]` arrives, for every `k`, then
/// waits for the outstanding replies until `give_up_ns` after the last due
/// time. `idle` is called whenever nothing is due: it sleeps in a run and
/// advances the fake clock in a test.
pub fn open_loop(
    clock: &dyn Clock,
    target: &mut dyn Target,
    base: usize,
    dues: &[u64],
    give_up_ns: u64,
    idle: &mut dyn FnMut(),
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = dues.iter().map(|&d| Sample::new(d)).collect();
    let mut replies = Vec::new();
    let (mut next, mut finished) = (0, 0);
    let last_due = dues.last().copied().unwrap_or(0);
    while finished < samples.len() {
        let now = clock.now_ns();
        // Everything due by now goes out, however far behind we are.
        while next < dues.len() && dues[next] <= now {
            let sent = clock.now_ns();
            target.submit(base + next);
            samples[next].sent_ns = sent;
            samples[next].submit_ns = clock.now_ns() - sent;
            next += 1;
        }
        target.poll(&mut replies);
        finished += absorb(&mut samples, base, &mut replies, clock.now_ns());
        if next == dues.len() && clock.now_ns() > last_due.saturating_add(give_up_ns) {
            break;
        }
        idle();
    }
    samples
}

/// Keeps `outstanding` requests in flight from `base` on until `end_ns`,
/// then waits for the replies still outstanding. The "due" instant of a
/// closed-loop request is the instant it was sent.
pub fn closed_loop(
    clock: &dyn Clock,
    target: &mut dyn Target,
    base: usize,
    outstanding: usize,
    end_ns: u64,
    give_up_ns: u64,
    idle: &mut dyn FnMut(),
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = Vec::new();
    let mut replies = Vec::new();
    let mut finished = 0;
    loop {
        // Replies first, so a freed slot is refilled in the same pass.
        target.poll(&mut replies);
        finished += absorb(&mut samples, base, &mut replies, clock.now_ns());
        let now = clock.now_ns();
        let sending = now < end_ns;
        while sending && samples.len() - finished < outstanding {
            let sent = clock.now_ns();
            target.submit(base + samples.len());
            let mut s = Sample::new(sent);
            s.sent_ns = sent;
            s.submit_ns = clock.now_ns() - sent;
            samples.push(s);
        }
        if !sending && (finished == samples.len() || now > end_ns.saturating_add(give_up_ns)) {
            break;
        }
        idle();
    }
    samples
}

/// Due instants of `count` requests at `rate` per second from `start_ns`.
pub fn schedule(start_ns: u64, rate: f64, count: usize) -> Vec<u64> {
    (0..count)
        .map(|k| start_ns + (k as f64 * 1e9 / rate) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emba_serve::FakeClock;
    use std::collections::VecDeque;

    /// Answers each request `service_ns` after it was submitted, except
    /// that nothing is answered while the clock is inside `stall`.
    struct Script<'a> {
        clock: &'a FakeClock,
        service_ns: u64,
        stall: (u64, u64),
        queue: VecDeque<(usize, u64)>,
        submitted: Vec<(usize, u64)>,
    }

    impl Target for Script<'_> {
        fn submit(&mut self, index: usize) {
            let now = self.clock.now_ns();
            self.submitted.push((index, now));
            self.queue.push_back((index, now + self.service_ns));
        }
        fn poll(&mut self, out: &mut Vec<Reply>) {
            let now = self.clock.now_ns();
            if now >= self.stall.0 && now < self.stall.1 {
                return;
            }
            while self.queue.front().is_some_and(|&(_, ready)| ready <= now) {
                let (index, ready) = self.queue.pop_front().unwrap();
                out.push(Reply {
                    index,
                    status: Status::Scored(0.5),
                    flush_ns: ready - self.service_ns / 2,
                });
            }
        }
    }

    fn script(clock: &FakeClock, service_ns: u64, stall: (u64, u64)) -> Script<'_> {
        Script {
            clock,
            service_ns,
            stall,
            queue: VecDeque::new(),
            submitted: Vec::new(),
        }
    }

    #[test]
    fn requests_are_stamped_with_their_due_time() {
        let clock = FakeClock::new();
        let mut target = script(&clock, 300, (0, 0));
        let dues = schedule(1_000, 1e6, 5); // one per 1000 ns
        assert_eq!(dues, vec![1_000, 2_000, 3_000, 4_000, 5_000]);
        let samples = open_loop(&clock, &mut target, 10, &dues, 1_000_000, &mut || {
            clock.advance(100)
        });
        assert_eq!(samples.len(), 5);
        for (k, s) in samples.iter().enumerate() {
            assert_eq!(s.due_ns, dues[k]);
            assert_eq!(
                s.sent_ns, dues[k],
                "the clock lands exactly on each due instant"
            );
            assert_eq!(s.late_ms(), 0.0);
            assert_eq!(s.done_ns - s.due_ns, 300);
            assert_eq!((s.status, s.replies), (Status::Scored(0.5), 1));
            assert!((s.wait_ms() + s.service_ms() - s.latency_ms()).abs() < 1e-12);
        }
        assert_eq!(
            target.submitted.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![10, 11, 12, 13, 14]
        );
    }

    #[test]
    fn a_late_generator_is_accounted_as_lateness_and_still_sends_everything() {
        let clock = FakeClock::new();
        let mut target = script(&clock, 100, (0, 0));
        let dues = schedule(0, 1e6, 10);
        // The generator only wakes every 4000 ns: most requests go out late.
        let samples = open_loop(&clock, &mut target, 0, &dues, 1_000_000, &mut || {
            clock.advance(4_000)
        });
        assert_eq!(target.submitted.len(), 10, "no request is skipped");
        assert!(samples.iter().all(|s| s.sent_ns >= s.due_ns));
        let late: Vec<u64> = samples.iter().map(|s| s.sent_ns - s.due_ns).collect();
        assert_eq!(late[1], 3_000, "due at 1000, sent at the 4000 wake-up");
        assert_eq!(late[4], 0, "due exactly at a wake-up");
        // Latency runs from the due instant, so it includes the lateness.
        assert!(samples[1].done_ns - samples[1].due_ns >= 3_000 + 100);
    }

    #[test]
    fn an_engine_stall_does_not_thin_the_load_or_hide_in_the_latency() {
        let clock = FakeClock::new();
        // The engine answers nothing between t=10_000 and t=60_000.
        let mut target = script(&clock, 500, (10_000, 60_000));
        let dues = schedule(0, 1e6, 100); // 1000 ns apart, through t=99_000
        let samples = open_loop(&clock, &mut target, 0, &dues, 10_000_000, &mut || {
            clock.advance(500)
        });
        // Open loop: every request scheduled during the stall was still sent
        // on time, not held back until the engine recovered.
        for (k, &(index, at)) in target.submitted.iter().enumerate() {
            assert_eq!(index, k);
            assert_eq!(at, dues[k], "request {k} sent on schedule during the stall");
        }
        // A request due early in the stall waited for it to end.
        let early = &samples[12];
        assert!(early.done_ns >= 60_000);
        assert!(early.done_ns - early.due_ns >= 60_000 - 12_000);
        // Unaffected requests keep the service time as their latency.
        assert_eq!(samples[80].done_ns - samples[80].due_ns, 500);
        assert!(samples.iter().all(|s| s.replies == 1));
    }

    #[test]
    fn unanswered_requests_end_the_loop_at_the_give_up_time() {
        let clock = FakeClock::new();
        let mut target = script(&clock, 100, (0, u64::MAX)); // never answers
        let dues = schedule(0, 1e6, 3);
        let samples = open_loop(&clock, &mut target, 0, &dues, 50_000, &mut || {
            clock.advance(1_000)
        });
        assert!(samples
            .iter()
            .all(|s| s.status == Status::Pending && s.replies == 0));
        assert!(!samples[0].ok(1_000_000));
        assert!(clock.now_ns() > 52_000 && clock.now_ns() < 60_000);
    }

    #[test]
    fn the_closed_loop_keeps_a_fixed_number_outstanding() {
        let clock = FakeClock::new();
        let mut target = script(&clock, 1_000, (0, 0));
        let samples = closed_loop(&clock, &mut target, 0, 4, 10_000, 1_000_000, &mut || {
            clock.advance(250)
        });
        // 4 in flight, each taking 1000 ns: 4 per 1000 ns for 10_000 ns.
        assert_eq!(samples.len(), 40);
        assert!(samples.iter().all(|s| s.ok(2_000)));
        let mut in_flight = 0i64;
        let mut events: Vec<(u64, i64)> = samples
            .iter()
            .flat_map(|s| [(s.sent_ns, 1), (s.done_ns, -1)])
            .collect();
        events.sort();
        for (_, delta) in events {
            in_flight += delta;
            assert!((0..=4).contains(&in_flight));
        }
    }
}
