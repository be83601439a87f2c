//! Benchmark-side spans around the calls into each layer.
//!
//! A traced run wraps every call the benchmark makes into a layer's
//! public entry point (world start, line open, process start, transient,
//! sweep, pool submit, journal open, recover, ...) in a span: name,
//! start, end, parent, and the unit of work it belongs to. Spans stay in
//! memory and are written out when the run ends. The untraced (timed)
//! runs never construct a tracer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id (index in the tracer).
    pub id: usize,
    /// Id of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Unit of work (request) the span belongs to; spans of one unit
    /// share it.
    pub unit: u64,
    /// Layer entry point, e.g. `schooner.world_start`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    unit: RefCell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            unit: RefCell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start attributing spans to unit of work `unit`.
    pub fn set_unit(&self, unit: u64) {
        *self.unit.borrow_mut() = unit;
    }

    /// Run `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                unit: *self.unit.borrow(),
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        out
    }

    /// Record an already-measured interval (e.g. taken on another thread
    /// and reported back), as a top-level span of `unit`.
    pub fn record(&self, name: &'static str, unit: u64, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span { id, parent: None, unit, name, start_ns, end_ns });
    }

    /// Per span name: (count, total seconds, self seconds), where self
    /// time is the span's duration minus the time its children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let total = (s.end_ns - s.start_ns) as f64 * 1e-9;
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]) as f64 * 1e-9;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += own;
        }
        out
    }

    /// All spans as JSON lines (one object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"unit\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.unit, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Run `f` in a span when tracing, or plainly when not.
pub fn maybe<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}
