//! The benchmark's own span recorder: spans are opened around each call
//! into a layer, kept in memory, and written out as a Chrome trace when
//! the run ends. Nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the crate the call enters.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one operation share an id.
    pub op_id: u64,
    pub thread: usize,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a recording thread panicked")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Recorder::end`] closes it.
    pub fn begin(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        thread: usize,
    ) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
            thread,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: usize) {
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// A thread's handle on an optional recorder: with tracing off every
/// call is a no-op, so the measured code path is the same either way.
#[derive(Debug, Clone, Copy)]
pub struct Tracer<'a> {
    rec: Option<&'a Recorder>,
    thread: usize,
}

impl<'a> Tracer<'a> {
    pub fn new(rec: Option<&'a Recorder>, thread: usize) -> Tracer<'a> {
        Tracer { rec, thread }
    }

    pub fn begin(&self, name: &'static str, parent: Option<usize>, op_id: u64) -> Option<usize> {
        self.rec.map(|r| r.begin(name, parent, op_id, self.thread))
    }

    pub fn end(&self, id: Option<usize>) {
        if let (Some(r), Some(id)) = (self.rec, id) {
            r.end(id);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op_id);
        let out = f();
        self.end(id);
        out
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, microsecond timestamps.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op_id\":{}}}}}",
            s.name,
            layer(s.name),
            s.thread,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i,
            s.parent.map_or(-1, |p| p as i64),
            s.op_id
        )
        .expect("writing to a String");
    }
    out.push_str("\n]}\n");
    out
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may nest, overlap each other, or stick
/// out of the parent; the union of their intervals, clipped to the
/// parent, is what counts.
pub fn self_ns(parent: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.start_ns;
    for &(start, end) in children.iter() {
        let (start, end) = (start.max(cursor), end.min(parent.end_ns));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

/// Per-name totals of the spans from index `from` on (earlier spans
/// still count as parents and children).
pub fn totals(spans: &[Span], from: usize) -> BTreeMap<&'static str, Total> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()).skip(from) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns(s, kids);
    }
    out
}

/// Each layer's share of all self time, in percent. Spans of the `op`
/// layer are the benchmark's own operation envelopes: their self time is
/// what no layer span accounts for. `probe` spans repeat work that an
/// operation already did, to time it another way, and are left out.
pub fn layer_shares(totals: &BTreeMap<&'static str, Total>) -> BTreeMap<String, f64> {
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    for (name, t) in totals.iter().filter(|(name, _)| layer(name) != "probe") {
        *by_layer.entry(layer(name).to_string()).or_default() += t.self_ns;
    }
    let all: u64 = by_layer.values().sum();
    by_layer
        .into_iter()
        .map(|(l, ns)| {
            (
                l,
                if all == 0 {
                    0.0
                } else {
                    ns as f64 * 100.0 / all as f64
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span("op.x", 100, 200, None);
        // Disjoint children.
        assert_eq!(self_ns(&parent, &mut [(110, 120), (150, 170)]), 70);
        // Overlapping children count their union once.
        assert_eq!(self_ns(&parent, &mut [(110, 150), (140, 160)]), 50);
        // One child nested inside another adds nothing.
        assert_eq!(self_ns(&parent, &mut [(110, 190), (120, 130)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_ns(&parent, &mut [(50, 120), (190, 400)]), 70);
        // Given in any order.
        assert_eq!(self_ns(&parent, &mut [(150, 170), (110, 120)]), 70);
        assert_eq!(self_ns(&parent, &mut []), 100);
    }

    #[test]
    fn totals_attribute_self_time_per_level() {
        let spans = vec![
            span("op.hunt", 0, 100, None),
            span("engine.execute", 10, 90, Some(0)),
            span("storage.scan", 20, 50, Some(1)),
            span("storage.scan", 40, 70, Some(1)),
        ];
        let t = totals(&spans, 0);
        assert_eq!(totals(&spans, 2).len(), 1);
        assert_eq!(t["op.hunt"].self_ns, 20);
        assert_eq!(t["engine.execute"].self_ns, 30);
        assert_eq!(
            t["storage.scan"],
            Total {
                count: 2,
                total_ns: 60,
                self_ns: 60
            }
        );
        let shares = layer_shares(&t);
        assert!((shares["engine"] - 30.0 * 100.0 / 110.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_writes_a_chrome_trace() {
        let rec = Recorder::new();
        let t = Tracer::new(Some(&rec), 1);
        let root = t.begin("op.hunt", None, 7);
        t.span("engine.execute", root, 7, || ());
        t.end(root);
        Tracer::new(None, 0).span("never.recorded", None, 0, || ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = chrome_trace(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"engine.execute\",\"cat\":\"engine\",\"ph\":\"X\""));
        assert!(json.contains("\"parent\":0,\"op_id\":7"));
    }
}
