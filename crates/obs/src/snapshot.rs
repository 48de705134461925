//! Snapshot exposition: a point-in-time metrics view renderable as
//! Prometheus-style text or JSON.

use crate::json::JsonValue;
use crate::metrics::HistogramSummary;

/// The value of one sampled metric.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram summary with percentiles (boxed: the summary carries
    /// the full bucket array and dwarfs the scalar variants).
    Histogram(Box<HistogramSummary>),
}

/// One sampled metric: name, labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Sampled value.
    pub value: SampleValue,
}

/// A point-in-time view of a whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Samples in deterministic (name, labels) order.
    pub samples: Vec<Sample>,
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double-quote, and newline become `\\`, `\"`, and `\n`.
///
/// Label values here can carry arbitrary user text (follow-hunt
/// pattern labels come straight from TBQL sources), so escaping is
/// what keeps the exposition parseable and round-trippable.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Renders `labels`, optionally with an extra pair appended, as a
/// `{k="v",...}` block (empty string when there are no labels).
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

impl MetricsSnapshot {
    /// Finds a sample by name and exact label set.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        self.samples
            .iter()
            .find(|s| s.name == name && matches_labels(&s.labels, labels))
    }

    /// Counter value by name (unlabeled), or `None` when absent or a
    /// different type.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match &self.get(name, &[])?.value {
            SampleValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name (unlabeled).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match &self.get(name, &[])?.value {
            SampleValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram summary by name and labels.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSummary> {
        match &self.get(name, labels)?.value {
            SampleValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Prometheus-style text exposition.
    ///
    /// Counters and gauges are single lines; histograms render as a
    /// summary-style family — `{quantile="..."}` lines plus `_count`,
    /// `_sum`, and `_max` — which keeps the output compact while
    /// preserving the percentiles the registry already extracts.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        // One `# TYPE` line per family: labeled series of the same name
        // are adjacent (snapshot order is name-major), so tracking the
        // previous name suffices.
        let mut last_name: Option<&str> = None;
        for s in &self.samples {
            let first_of_family = last_name != Some(s.name.as_str());
            last_name = Some(s.name.as_str());
            match &s.value {
                SampleValue::Counter(v) => {
                    if first_of_family {
                        out.push_str(&format!("# TYPE {} counter\n", s.name));
                    }
                    out.push_str(&format!(
                        "{}{} {}\n",
                        s.name,
                        label_block(&s.labels, None),
                        v
                    ));
                }
                SampleValue::Gauge(v) => {
                    if first_of_family {
                        out.push_str(&format!("# TYPE {} gauge\n", s.name));
                    }
                    out.push_str(&format!(
                        "{}{} {}\n",
                        s.name,
                        label_block(&s.labels, None),
                        v
                    ));
                }
                SampleValue::Histogram(h) => {
                    if first_of_family {
                        out.push_str(&format!("# TYPE {} summary\n", s.name));
                    }
                    for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            s.name,
                            label_block(&s.labels, Some(("quantile", q))),
                            v
                        ));
                    }
                    let block = label_block(&s.labels, None);
                    out.push_str(&format!("{}_count{} {}\n", s.name, block, h.count));
                    out.push_str(&format!("{}_sum{} {}\n", s.name, block, h.sum));
                    out.push_str(&format!("{}_max{} {}\n", s.name, block, h.max));
                }
            }
        }
        out
    }

    /// Structured [`JsonValue`] form.
    fn to_json_value(&self) -> JsonValue {
        let samples = self
            .samples
            .iter()
            .map(|s| {
                let labels = JsonValue::Obj(
                    s.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
                        .collect(),
                );
                let mut fields = vec![
                    ("name".to_string(), JsonValue::Str(s.name.clone())),
                    ("labels".to_string(), labels),
                ];
                match &s.value {
                    SampleValue::Counter(v) => {
                        fields.push(("type".into(), JsonValue::Str("counter".into())));
                        fields.push(("value".into(), JsonValue::Num(*v as f64)));
                    }
                    SampleValue::Gauge(v) => {
                        fields.push(("type".into(), JsonValue::Str("gauge".into())));
                        fields.push(("value".into(), JsonValue::Num(*v as f64)));
                    }
                    SampleValue::Histogram(h) => {
                        fields.push(("type".into(), JsonValue::Str("histogram".into())));
                        fields.push((
                            "value".into(),
                            JsonValue::Obj(vec![
                                ("count".into(), JsonValue::Num(h.count as f64)),
                                ("sum".into(), JsonValue::Num(h.sum as f64)),
                                ("max".into(), JsonValue::Num(h.max as f64)),
                                ("p50".into(), JsonValue::Num(h.p50 as f64)),
                                ("p90".into(), JsonValue::Num(h.p90 as f64)),
                                ("p99".into(), JsonValue::Num(h.p99 as f64)),
                            ]),
                        ));
                    }
                }
                JsonValue::Obj(fields)
            })
            .collect();
        JsonValue::Obj(vec![("samples".to_string(), JsonValue::Arr(samples))])
    }

    /// JSON text exposition (pretty-printed).
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }
}

fn matches_labels(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    if have.len() != want.len() {
        return false;
    }
    let mut want: Vec<(&str, &str)> = want.to_vec();
    want.sort();
    have.iter()
        .zip(want.iter())
        .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("jobs_total").add(5);
        r.gauge("queue_depth").set(2);
        let h = r.histogram_labeled("stage_ns", &[("stage", "parse")]);
        for v in [100u64, 200, 300, 4000] {
            h.record(v);
        }
        r
    }

    #[test]
    fn prometheus_golden() {
        let snap = sample_registry().snapshot();
        let text = snap.to_prometheus();
        let expected = "\
# TYPE jobs_total counter
jobs_total 5
# TYPE queue_depth gauge
queue_depth 2
# TYPE stage_ns summary
stage_ns{stage=\"parse\",quantile=\"0.5\"} 255
stage_ns{stage=\"parse\",quantile=\"0.9\"} 4000
stage_ns{stage=\"parse\",quantile=\"0.99\"} 4000
stage_ns_count{stage=\"parse\"} 4
stage_ns_sum{stage=\"parse\"} 4600
stage_ns_max{stage=\"parse\"} 4000
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_emits_one_type_line_per_family() {
        let r = Registry::new();
        r.counter_labeled("stage_total", &[("stage", "parse")])
            .inc();
        r.counter_labeled("stage_total", &[("stage", "join")]).inc();
        let text = r.snapshot().to_prometheus();
        assert_eq!(
            text.matches("# TYPE stage_total counter").count(),
            1,
            "labeled series of one family share a single TYPE line:\n{text}"
        );
        assert!(text.contains("stage_total{stage=\"join\"} 1"));
        assert!(text.contains("stage_total{stage=\"parse\"} 1"));
    }

    /// Inverse of `escape_label_value`, implementing the Prometheus
    /// text-format unescaping rules for the round-trip check.
    fn unescape_label_value(v: &str) -> String {
        let mut out = String::new();
        let mut chars = v.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        }
        out
    }

    #[test]
    fn prometheus_escapes_label_values_golden() {
        let r = Registry::new();
        let hostile = "say \"hi\"\\now\nplease";
        r.counter_labeled("follow_pattern_rows_total", &[("pattern", hostile)])
            .add(7);
        let text = r.snapshot().to_prometheus();
        let expected = "\
# TYPE follow_pattern_rows_total counter
follow_pattern_rows_total{pattern=\"say \\\"hi\\\"\\\\now\\nplease\"} 7
";
        assert_eq!(text, expected);
        // The exposition must stay one-sample-per-line: a raw newline
        // in a label value would split the sample across lines.
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn escaped_label_values_round_trip() {
        for original in [
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "multi\nline",
            "all \"of\\them\"\nat once",
            "trailing backslash\\",
        ] {
            let escaped = escape_label_value(original);
            assert!(!escaped.contains('\n'), "escaped form has raw newline");
            assert_eq!(
                unescape_label_value(&escaped),
                original,
                "escape/unescape must round-trip {original:?}"
            );
        }
    }

    #[test]
    fn json_golden() {
        let r = Registry::new();
        r.counter("hits").add(3);
        r.gauge("depth").set(-1);
        let snap = r.snapshot();
        let expected = "\
{
  \"samples\": [
    {
      \"name\": \"depth\",
      \"labels\": {},
      \"type\": \"gauge\",
      \"value\": -1
    },
    {
      \"name\": \"hits\",
      \"labels\": {},
      \"type\": \"counter\",
      \"value\": 3
    }
  ]
}";
        assert_eq!(snap.to_json(), expected);
    }

    #[test]
    fn json_round_trips_through_parser() {
        let snap = sample_registry().snapshot();
        let text = snap.to_json();
        let parsed = crate::json::JsonValue::parse(&text).expect("valid JSON");
        let samples = parsed.get("samples").and_then(JsonValue::as_array).unwrap();
        assert_eq!(samples.len(), 3);
        let hist = &samples[2];
        assert_eq!(
            hist.get("type").and_then(JsonValue::as_str),
            Some("histogram")
        );
        let count = hist
            .get("value")
            .and_then(|v| v.get("count"))
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert_eq!(count, 4.0);
    }

    #[test]
    fn accessors_find_samples() {
        let snap = sample_registry().snapshot();
        assert_eq!(snap.counter("jobs_total"), Some(5));
        assert_eq!(snap.gauge("queue_depth"), Some(2));
        let h = snap.histogram("stage_ns", &[("stage", "parse")]).unwrap();
        assert_eq!(h.count, 4);
        assert!(snap.counter("missing").is_none());
        assert!(snap.histogram("stage_ns", &[("stage", "join")]).is_none());
    }
}
