//! The benchmark's own spans: one around each call it makes into a layer.
//!
//! Spans stay in memory for the whole traced run and are written as
//! Chrome-trace JSON when it ends. They are recorded from the benchmark's
//! files only; spans inside the program are a later change (ROADMAP item 4).

use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use serde_json::Value;

use crate::{object, text};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `models.encode`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request or window the span belongs to; spans of one request
    /// share it.
    pub id: u64,
}

/// In-memory span store for one traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records a span measured elsewhere (a served request's wait and
    /// service, stamped on the engine's clock). Times are nanoseconds on any
    /// one clock; only differences matter for self time.
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it its
    /// direct children cover (children never overlap here: one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for c in &self.spans {
            if let Some(p) = c.parent {
                let s = &self.spans[p];
                covered[p] += c
                    .end_ns
                    .min(s.end_ns)
                    .saturating_sub(c.start_ns.max(s.start_ns));
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// events, one track per span id.
    pub fn chrome_trace(&self) -> String {
        let self_ns = self.self_ns();
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let args = object([
                    ("span", Value::UInt(i as u64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("self_us", Value::Float(self_ns[i] as f64 / 1e3)),
                ]);
                object([
                    ("name", text(s.name)),
                    ("ph", text("X")),
                    ("ts", Value::Float(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Value::UInt(1)),
                    ("tid", Value::UInt(s.id)),
                    ("args", args),
                ])
            })
            .collect();
        let doc = object([("traceEvents", Value::Array(events))]);
        serde_json::to_string(&doc).expect("a Value tree always serializes")
    }

    /// Writes the Chrome trace to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, self.chrome_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut r = Recorder::new();
        let root = r.push("root", 1, 0, 100, None);
        let a = r.push("a", 1, 10, 40, Some(root));
        r.push("b", 1, 50, 70, Some(root));
        r.push("a.inner", 1, 15, 20, Some(a));
        assert_eq!(r.self_ns()[root], 100 - 30 - 20);
        assert_eq!(r.self_ns()[a], 30 - 5);
        let mut live = Recorder::new();
        live.scope("outer", 7, |rec| rec.scope("inner", 7, |_| ()));
        assert_eq!(live.spans()[1].parent, Some(0));
        assert!(live.spans()[0].end_ns >= live.spans()[1].end_ns);
        let doc: Value = serde_json::from_str(&live.chrome_trace()).unwrap();
        assert_eq!(doc["traceEvents"].as_array().unwrap().len(), 2);
    }
}
