//! Hierarchical per-hunt trace trees.
//!
//! The stage histograms aggregate stage timings across *all* hunts; a
//! [`TraceTree`] profiles *one* execution: a
//! root span with parented child spans ([`SpanNode`]) and per-span
//! attributes (rows scanned, cache hit/miss, match counts). Trees are
//! cheap owned values — the service layer builds one per job, stores
//! the slowest in its slow-hunt log, and exports them as Chrome
//! `trace_event` JSON loadable in `about:tracing` or Perfetto.

use std::fmt;
use std::time::{Duration, Instant};
use threatraptor_sync::atomic::{AtomicU64, Ordering};

use crate::json::JsonValue;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Process-unique identifier of one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Allocates the next process-unique id.
    pub fn next() -> TraceId {
        // ordering: Relaxed — only uniqueness matters (fetch_add is
        // atomic at any ordering); ids carry no happens-before edge.
        TraceId(NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace#{}", self.0)
    }
}

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Textual attribute (e.g. a pattern id).
    Str(String),
    /// Integral attribute (e.g. rows scanned).
    Int(i64),
    /// Boolean attribute (e.g. cache hit/miss).
    Bool(bool),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => write!(f, "{s}"),
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> AttrValue {
        AttrValue::Int(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::Int(v as i64)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

/// One span in a trace tree. Times are offsets from the trace origin.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name (e.g. `exec`, `scan:evt1`).
    pub name: String,
    /// Index of the parent span; `None` only for the root.
    pub parent: Option<usize>,
    /// Start offset from the trace origin.
    pub start: Duration,
    /// End offset from the trace origin; `None` while still open.
    pub end: Option<Duration>,
    /// Attribute pairs in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanNode {
    /// Span duration (zero while still open).
    pub fn duration(&self) -> Duration {
        self.end.unwrap_or(self.start).saturating_sub(self.start)
    }
}

/// A single execution's span tree.
///
/// Span indices returned by [`begin`](TraceTree::begin) and
/// [`add_span`](TraceTree::add_span) are stable handles into the
/// tree; index 0 is always the root.
#[derive(Debug, Clone)]
pub struct TraceTree {
    id: TraceId,
    origin: Instant,
    nodes: Vec<SpanNode>,
}

/// Index of the root span of every tree.
pub const ROOT_SPAN: usize = 0;

impl TraceTree {
    /// Creates a tree with a fresh id; the root span starts now.
    pub fn new(name: &str) -> TraceTree {
        TraceTree::started_at(TraceId::next(), name, Instant::now())
    }

    /// Creates a tree under an explicit id (e.g. derived from a job
    /// id allocated elsewhere); the root span starts now.
    pub fn with_id(id: TraceId, name: &str) -> TraceTree {
        TraceTree::started_at(id, name, Instant::now())
    }

    /// Creates a tree whose root span started at `origin` — for
    /// traces whose first stage (e.g. a queue wait) began before the
    /// tree could be constructed.
    pub fn started_at(id: TraceId, name: &str, origin: Instant) -> TraceTree {
        TraceTree {
            id,
            origin,
            nodes: vec![SpanNode {
                name: name.to_string(),
                parent: None,
                start: Duration::ZERO,
                end: None,
                attrs: Vec::new(),
            }],
        }
    }

    /// The trace id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// All spans, root first, in creation order.
    pub fn nodes(&self) -> &[SpanNode] {
        &self.nodes
    }

    /// Current offset from the trace origin.
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Opens a child span under `parent`, starting now.
    ///
    /// Panics if `parent` is out of range (a programming error).
    pub fn begin(&mut self, name: &str, parent: usize) -> usize {
        assert!(parent < self.nodes.len(), "parent span out of range");
        let start = self.now();
        self.nodes.push(SpanNode {
            name: name.to_string(),
            parent: Some(parent),
            start,
            end: None,
            attrs: Vec::new(),
        });
        self.nodes.len() - 1
    }

    /// Closes span `idx` now. Closing twice keeps the first end.
    pub fn end(&mut self, idx: usize) {
        let now = self.now();
        let node = &mut self.nodes[idx];
        if node.end.is_none() {
            node.end = Some(now);
        }
    }

    /// Adds an already-measured child span under `parent` with
    /// explicit `[start, end]` offsets from the trace origin — for
    /// stages whose durations were measured elsewhere (engine stage
    /// timers, queue waits).
    pub fn add_span(&mut self, parent: usize, name: &str, start: Duration, end: Duration) -> usize {
        assert!(parent < self.nodes.len(), "parent span out of range");
        self.nodes.push(SpanNode {
            name: name.to_string(),
            parent: Some(parent),
            start,
            end: Some(end.max(start)),
            attrs: Vec::new(),
        });
        self.nodes.len() - 1
    }

    /// Attaches an attribute to span `idx`.
    pub fn set_attr(&mut self, idx: usize, key: &str, value: impl Into<AttrValue>) {
        self.nodes[idx].attrs.push((key.to_string(), value.into()));
    }

    /// Start offset of span `idx` (for laying out synthesized child
    /// spans relative to a live parent).
    pub fn span_start(&self, idx: usize) -> Duration {
        self.nodes[idx].start
    }

    /// Ends every still-open span (root included) now and returns the
    /// root duration.
    pub fn finish(&mut self) -> Duration {
        let now = self.now();
        for node in &mut self.nodes {
            if node.end.is_none() {
                node.end = Some(now);
            }
        }
        self.nodes[ROOT_SPAN].duration()
    }

    /// Root span duration (zero until the root is closed).
    pub fn duration(&self) -> Duration {
        self.nodes[ROOT_SPAN].duration()
    }

    /// Indices of the direct children of `idx`, in creation order.
    pub fn children(&self, idx: usize) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].parent == Some(idx))
            .collect()
    }

    /// Chrome `trace_event` JSON export: an object with a
    /// `traceEvents` array of complete (`"ph": "X"`) events, one per
    /// span, with microsecond `ts`/`dur`, the trace id as `tid`, and
    /// span attributes under `args`. The output loads directly in
    /// `about:tracing` and Perfetto.
    pub fn to_chrome_trace(&self) -> JsonValue {
        let events = self
            .nodes
            .iter()
            .map(|node| {
                let end = node.end.unwrap_or(node.start);
                let args: Vec<(String, JsonValue)> = node
                    .attrs
                    .iter()
                    .map(|(k, v)| {
                        let value = match v {
                            AttrValue::Str(s) => JsonValue::Str(s.clone()),
                            AttrValue::Int(n) => JsonValue::Num(*n as f64),
                            AttrValue::Bool(b) => JsonValue::Bool(*b),
                        };
                        (k.clone(), value)
                    })
                    .collect();
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::Str(node.name.clone())),
                    ("cat".into(), JsonValue::Str("hunt".into())),
                    ("ph".into(), JsonValue::Str("X".into())),
                    ("ts".into(), JsonValue::Num(micros(node.start))),
                    (
                        "dur".into(),
                        JsonValue::Num(micros(end.saturating_sub(node.start))),
                    ),
                    ("pid".into(), JsonValue::Num(1.0)),
                    ("tid".into(), JsonValue::Num(self.id.0 as f64)),
                    ("args".into(), JsonValue::Obj(args)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("traceEvents".into(), JsonValue::Arr(events)),
            ("displayTimeUnit".into(), JsonValue::Str("ms".into())),
        ])
    }

    /// Indented plain-text rendering of the tree — the slow-hunt log
    /// display format.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.render_node(ROOT_SPAN, 0, &mut out);
        out
    }

    fn render_node(&self, idx: usize, depth: usize, out: &mut String) {
        let node = &self.nodes[idx];
        for _ in 0..depth {
            out.push_str("  ");
        }
        if idx == ROOT_SPAN {
            out.push_str(&format!("{} {}", self.id, node.name));
        } else {
            out.push_str(&format!("- {}", node.name));
        }
        out.push_str(&format!(" ({:.3?})", node.duration()));
        for (k, v) in &node.attrs {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for child in self.children(idx) {
            self.render_node(child, depth + 1, out);
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1_000_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> TraceTree {
        let mut t = TraceTree::with_id(TraceId(42), "job");
        let wait = t.add_span(
            ROOT_SPAN,
            "queue_wait",
            Duration::ZERO,
            Duration::from_micros(50),
        );
        let exec = t.add_span(
            ROOT_SPAN,
            "exec",
            Duration::from_micros(50),
            Duration::from_micros(450),
        );
        let scan = t.add_span(
            exec,
            "scan:evt1",
            Duration::from_micros(60),
            Duration::from_micros(200),
        );
        t.set_attr(scan, "rows", 128usize);
        t.set_attr(exec, "cache_hit", true);
        t.set_attr(wait, "queued", "yes");
        let now = t.now().max(Duration::from_micros(500));
        t.nodes[ROOT_SPAN].end = Some(now);
        t
    }

    #[test]
    fn spans_nest_under_parents() {
        let mut t = TraceTree::new("root");
        let a = t.begin("a", ROOT_SPAN);
        let b = t.begin("b", a);
        t.end(b);
        t.end(a);
        let total = t.finish();
        assert_eq!(t.nodes()[b].parent, Some(a));
        assert_eq!(t.nodes()[a].parent, Some(ROOT_SPAN));
        assert!(t.nodes()[b].start >= t.nodes()[a].start);
        assert!(t.nodes()[b].end.unwrap() <= t.nodes()[a].end.unwrap());
        assert!(total >= t.nodes()[a].duration());
        assert_eq!(t.children(ROOT_SPAN), vec![a]);
    }

    #[test]
    fn finish_closes_open_spans_once() {
        let mut t = TraceTree::new("root");
        let a = t.begin("a", ROOT_SPAN);
        t.end(a);
        let first_end = t.nodes()[a].end.unwrap();
        t.end(a); // double close keeps the first end
        assert_eq!(t.nodes()[a].end.unwrap(), first_end);
        t.finish();
        assert!(t.nodes().iter().all(|n| n.end.is_some()));
    }

    #[test]
    fn chrome_trace_is_valid_and_nested() {
        let t = sample_tree();
        let text = t.to_chrome_trace().pretty();
        let parsed = JsonValue::parse(&text).expect("schema-valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), t.nodes().len());

        // Every event is a complete ("X") event with the required keys.
        let mut spans: Vec<(String, f64, f64)> = Vec::new();
        for ev in events {
            assert_eq!(ev.get("ph").and_then(JsonValue::as_str), Some("X"));
            let name = ev.get("name").and_then(JsonValue::as_str).unwrap();
            let ts = ev.get("ts").and_then(JsonValue::as_f64).unwrap();
            let dur = ev.get("dur").and_then(JsonValue::as_f64).unwrap();
            assert!(ev.get("pid").and_then(JsonValue::as_f64).is_some());
            assert_eq!(ev.get("tid").and_then(JsonValue::as_f64), Some(42.0));
            assert!(dur >= 0.0);
            spans.push((name.to_string(), ts, dur));
        }

        // Nesting: each child's [ts, ts+dur] lies within its parent's.
        for (i, node) in t.nodes().iter().enumerate() {
            if let Some(p) = node.parent {
                let (_, cts, cdur) = &spans[i];
                let (_, pts, pdur) = &spans[p];
                assert!(cts >= pts, "child starts before parent");
                assert!(cts + cdur <= pts + pdur + 1e-6, "child outlives parent");
            }
        }

        // Attributes ride along in args.
        let scan = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("scan:evt1"))
            .unwrap();
        assert_eq!(
            scan.get("args")
                .and_then(|a| a.get("rows"))
                .and_then(JsonValue::as_f64),
            Some(128.0)
        );
    }

    #[test]
    fn text_rendering_shows_hierarchy_and_attrs() {
        let t = sample_tree();
        let text = t.render_text();
        assert!(text.starts_with("trace#42 job"));
        assert!(text.contains("- exec"));
        assert!(text.contains("cache_hit=true"));
        assert!(text.contains("rows=128"));
        // scan is indented one level deeper than exec
        let exec_indent = text.lines().find(|l| l.contains("- exec")).unwrap();
        let scan_indent = text.lines().find(|l| l.contains("- scan:evt1")).unwrap();
        let lead = |l: &str| l.len() - l.trim_start().len();
        assert_eq!(lead(scan_indent), lead(exec_indent) + 2);
    }

    #[test]
    fn trace_ids_are_unique() {
        let a = TraceTree::new("a").id();
        let b = TraceTree::new("b").id();
        assert_ne!(a, b);
    }
}
