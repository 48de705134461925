//! ThreatRaptor telemetry layer.
//!
//! The paper's headline claim is hunting *efficiency*; this crate
//! makes that measurable. It provides, with no dependencies beyond
//! `std` and the workspace's `threatraptor-sync` facade:
//!
//! - **Metric primitives** ([`Counter`], [`Gauge`], [`Histogram`]) —
//!   lock-free atomic cells; histograms use 64 log2 buckets with
//!   nearest-rank p50/p90/p99 extraction and an exact max.
//! - **A registry** ([`Registry`]) — get-or-create registration keyed
//!   by name + sorted labels and deterministic snapshot order; one
//!   instance per server, for tenant isolation. Components resolve
//!   their handles once, when they are built: a stage timer is just a
//!   labeled [`Histogram`] (`hunt_stage_ns{stage=…}`,
//!   `serve_stage_ns{stage=…}`) its owner records a duration into.
//! - **Trace trees** ([`TraceTree`], [`SpanNode`]) — hierarchical
//!   per-execution profiles (parent/child spans, per-span attributes)
//!   exportable as Chrome `trace_event` JSON for `about:tracing` and
//!   Perfetto.
//! - **Exposition** ([`MetricsSnapshot`]) — render as Prometheus-style
//!   text or JSON; [`JsonValue`] is the minimal parser/printer behind
//!   [`MetricsSnapshot::to_json`] and [`TraceTree::to_chrome_trace`],
//!   which the tests use to parse those renderings back.
//!
//! Nothing here touches the network or the registry, matching the
//! repo's offline-shim constraint; sync primitives come through the
//! facade so the interleaving checker (`crates/check`) can instrument
//! them.

pub mod json;
pub mod metrics;
pub mod registry;
pub mod snapshot;
pub mod tree;

pub use json::{JsonError, JsonValue};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, HISTOGRAM_BUCKETS};
pub use registry::{MetricKey, Registry};
pub use snapshot::{MetricsSnapshot, Sample, SampleValue};
pub use tree::{AttrValue, SpanNode, TraceId, TraceTree, ROOT_SPAN};
