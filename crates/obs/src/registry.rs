//! Metric registry: named, optionally labeled metrics with
//! get-or-create registration and deterministic snapshot order.
//!
//! Registration takes a short `RwLock` write; the returned handles are
//! `Arc`s, so hot paths resolve their handles once, when their owner is
//! built, and never touch the registry again. There is no process-wide
//! instance: the service layer threads per-instance registries (one per
//! `IngestService`/`HuntServer`) so that multi-tenant deployments keep
//! tenants apart.

use std::collections::BTreeMap;
use threatraptor_sync::{Arc, RwLock};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{MetricsSnapshot, Sample, SampleValue};

/// Identity of a metric: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `hunt_stage_ns`.
    pub name: String,
    /// Label pairs, e.g. `[("stage", "parse")]`. Kept sorted so the
    /// same logical metric always maps to the same key.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A collection of named metrics.
///
/// `BTreeMap` keeps snapshot iteration (and therefore rendered
/// output) in deterministic name/label order, which the golden tests
/// and the bench record diff rely on.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<MetricKey, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn read_existing(&self, key: &MetricKey) -> Option<Metric> {
        let map = self.metrics.read().unwrap_or_else(|e| e.into_inner());
        map.get(key).cloned()
    }

    fn get_or_insert(&self, key: MetricKey, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self.read_existing(&key) {
            return m;
        }
        let mut map = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        map.entry(key).or_insert_with(make).clone()
    }

    /// Gets or creates an unlabeled counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_labeled(name, &[])
    }

    /// Gets or creates a labeled counter.
    ///
    /// Panics if the key is already registered as a different type —
    /// that is a programming error, not a runtime condition.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        match self.get_or_insert(key, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Gets or creates an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_labeled(name, &[])
    }

    /// Gets or creates a labeled gauge.
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = MetricKey::new(name, labels);
        match self.get_or_insert(key, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Gets or creates an unlabeled histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_labeled(name, &[])
    }

    /// Gets or creates a labeled histogram.
    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        match self.get_or_insert(key, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Point-in-time snapshot of every registered metric, in
    /// deterministic key order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.read().unwrap_or_else(|e| e.into_inner());
        let samples = map
            .iter()
            .map(|(key, metric)| Sample {
                name: key.name.clone(),
                labels: key.labels.clone(),
                value: match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampleValue::Histogram(Box::new(h.summary())),
                },
            })
            .collect();
        MetricsSnapshot { samples }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn get_or_create_returns_same_cell() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn labels_distinguish_metrics() {
        let r = Registry::new();
        let parse = r.histogram_labeled("stage_ns", &[("stage", "parse")]);
        let join = r.histogram_labeled("stage_ns", &[("stage", "join")]);
        parse.record(1);
        join.record(2);
        join.record(3);
        assert_eq!(parse.count(), 1);
        assert_eq!(join.count(), 2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn label_order_is_normalized() {
        let r = Registry::new();
        let a = r.counter_labeled("m", &[("b", "2"), ("a", "1")]);
        let b = r.counter_labeled("m", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_conflict_panics() {
        let r = Registry::new();
        let _ = r.counter("m");
        let _ = r.gauge("m");
    }

    #[test]
    fn snapshot_is_sorted_by_key() {
        let r = Registry::new();
        r.counter("zeta").inc();
        r.counter("alpha").inc();
        r.gauge("mid").set(5);
        let names: Vec<String> = r
            .snapshot()
            .samples
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn concurrent_registration_converges() {
        let r = Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                thread::spawn(move || {
                    for i in 0..100 {
                        r.counter(&format!("c{}", i % 10)).inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.len(), 10);
        let total: u64 = r
            .snapshot()
            .samples
            .iter()
            .map(|s| match s.value {
                SampleValue::Counter(v) => v,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 800);
    }
}
