//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is one timed call: name, start, end, the span that caused it and
//! the request it belongs to. Spans are kept in memory and written out as
//! JSON lines when the run ends. A span's *self time* is its duration
//! minus the durations of its children. Children that the benchmark
//! re-runs after the request (the inner layers of a served call cannot be
//! timed from outside while it is in flight) do not overlap their parent
//! in time; their duration stands for the share of the parent they cover.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique in the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request the span belongs to.
    pub request: u64,
    /// Layer call name, e.g. `client.rtt`.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start_ns: u64,
    /// End, relative to the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose times count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A fresh span id, for a span whose children end before it does.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records the span of a reserved id.
    pub fn fill(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("tracer poisoned").push(span);
    }

    /// Records a span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.fill(id, name, parent, request, start, end);
        id
    }

    /// Times `call` as a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        call: impl FnOnce() -> R,
    ) -> (u64, R) {
        let start = Instant::now();
        let out = call();
        (
            self.record(name, parent, request, start, Instant::now()),
            out,
        )
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer poisoned").clone()
    }
}

/// Self time in microseconds of every span, by id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut own: HashMap<u64, f64> = spans.iter().map(|s| (s.id, s.us())).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            if let Some(t) = own.get_mut(&parent) {
                *t -= s.us();
            }
        }
    }
    own
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
