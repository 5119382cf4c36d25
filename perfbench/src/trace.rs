//! The benchmark's own spans, recorded around each call into a layer.
//!
//! Spans are kept in memory (name, start, end, parent, label) and written
//! out once at exit. A disabled tracer records nothing, so the untraced
//! runs that give the end-to-end metrics pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed or open span. Times are nanoseconds since the tracer began.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call this span wraps (`parse`, `solve`, `apply_delta`, ...).
    pub name: &'static str,
    /// Free-form label, e.g. the program a `program` span analyses.
    pub label: String,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts or stops recording (spans must all be closed).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled with open spans");
        self.on = on;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, label: &str) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            label: label.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = now;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name, "");
        let r = f();
        self.exit();
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the time its children
/// cover. Children of one span never overlap (the benchmark is
/// single-threaded between layer calls), so the cover is their sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns();
        }
    }
    own
}

/// Index of the top-level span each span belongs to.
pub fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let r = match s.parent {
            Some(p) => root[p],
            None => i,
        };
        root.push(r);
    }
    root
}

/// Self time per span name, in milliseconds, summed over the spans under
/// the top-level span `root`.
pub fn self_ms_by_name(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let own = self_times_ns(spans);
    let of = roots(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if of[i] == root {
            *out.entry(s.name).or_insert(0.0) += own[i] as f64 / 1e6;
        }
    }
    out
}

/// Chrome trace-event JSON (complete `X` events, one thread) of `spans`,
/// loadable in `chrome://tracing` or Perfetto.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{},\"label\":{}}}}}",
            crate::report::json_str(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            crate::report::json_str(&s.label),
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            label: String::new(),
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("program", 10, 90, Some(0)),
            span("parse", 10, 30, Some(1)),
            span("solve", 40, 80, Some(1)),
            span("pass", 200, 250, None),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 20, 40, 50]);
        assert_eq!(roots(&spans), vec![0, 0, 0, 0, 4]);
        let by = self_ms_by_name(&spans, 0);
        assert_eq!(by["solve"], 40.0 / 1e6);
        assert!(!by.contains_key("nothing"));
        assert_eq!(self_ms_by_name(&spans, 4)["pass"], 50.0 / 1e6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("a", "");
        assert_eq!(t.span("b", || 7), 7);
        t.exit();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_parents() {
        let mut t = Tracer::new(true);
        t.enter("pass", "");
        t.span("parse", || ());
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].end_ns >= s[1].end_ns);
        assert!(chrome_json(s).contains("\"parent\":0"));
    }
}
