//! Unified-telemetry integration: one live [`HuntServer`] run must leave
//! a complete, consistent [`MetricsSnapshot`] behind.
//!
//! This is the observability layer's acceptance test: submit ad-hoc
//! hunts and stream ingest against a server with a standing query, then
//! assert that `HuntServer::metrics()` reports
//!
//! * non-zero job latency histograms (queue wait / execution /
//!   end-to-end),
//! * per-stage hunt spans for the whole lifecycle (parse → compile →
//!   scan → join → project),
//! * the job queue depth gauge (drained back to zero),
//! * follow-delivery latency percentiles for the pushed deltas,
//!
//! and that both exposition formats render the same snapshot.

use std::time::Duration;
use threatraptor::prelude::*;
use threatraptor::{JsonValue, MetricsSnapshot};
use threatraptor_service::HuntServer;
use threatraptor_tbql::parser::FIG2_TBQL;

fn driven_server() -> (HuntServer, MetricsSnapshot) {
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(8_000)
        .build();
    let server = HuntServer::new(ServerConfig::with_ingest(IngestConfig::with_policy(
        SealPolicy::events(1_000),
    )));
    let (alerts, initial) = server.follow(FIG2_TBQL).expect("valid TBQL");
    assert!(initial.is_empty(), "nothing ingested yet");

    // Stream ingest with ad-hoc hunts interleaved mid-stream.
    let chunks: Vec<_> = LogFeed::by_events(&scenario.raw, 800)
        .map(|c| c.expect("well-formed log"))
        .collect();
    let mut handles = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        server.append(chunk);
        if i % 3 == 0 {
            handles.push(server.submit(HuntJob::tbql(FIG2_TBQL)));
            handles.push(server.submit(HuntJob::tbql("proc p read file f return distinct p, f")));
        }
    }
    for handle in &handles {
        assert!(handle.wait().outcome.is_ok(), "jobs under ingest succeed");
    }
    assert!(server.wait_caught_up(Duration::from_secs(120)));
    // The attack is in the stream: at least one delta must have been
    // pushed, which is what populates the delivery histogram.
    assert!(
        alerts.try_recv().is_ok(),
        "the standing query must have delivered"
    );

    let snapshot = server.metrics();
    (server, snapshot)
}

#[test]
fn one_server_run_populates_every_lifecycle_family() {
    let (server, snapshot) = driven_server();

    // -- job queue telemetry -------------------------------------------
    let submitted = snapshot.counter("jobs_submitted_total").unwrap();
    let completed = snapshot.counter("jobs_completed_total").unwrap();
    assert!(submitted > 0, "jobs were submitted");
    assert_eq!(submitted, completed, "every accepted job completed");
    assert_eq!(snapshot.counter("jobs_rejected_total"), Some(0));
    // Latency is labeled by outcome; every job here succeeded.
    let latency_labels: &[(&str, &str)] = &[("status", "ok")];
    for (hist, labels) in [
        ("job_queue_wait_ns", &[] as &[(&str, &str)]),
        ("job_exec_ns", &[]),
        ("job_latency_ns", latency_labels),
    ] {
        let h = snapshot.histogram(hist, labels).expect(hist);
        assert_eq!(h.count, submitted, "{hist}: one sample per job");
        assert!(h.max > 0, "{hist}: non-zero latency recorded");
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max, "{hist}");
    }
    // Queue-wait + execution can never exceed end-to-end latency in sum.
    let wait = snapshot.histogram("job_queue_wait_ns", &[]).unwrap();
    let exec = snapshot.histogram("job_exec_ns", &[]).unwrap();
    let total = snapshot
        .histogram("job_latency_ns", latency_labels)
        .unwrap();
    assert!(
        wait.sum + exec.sum <= total.sum,
        "wait ({}) + exec ({}) must bound latency ({}) from below",
        wait.sum,
        exec.sum,
        total.sum
    );
    assert_eq!(
        snapshot.gauge("job_queue_depth"),
        Some(0),
        "the queue drains once all handles resolved"
    );

    // -- per-stage hunt spans ------------------------------------------
    // parse/analyze/compile/synthesize come from the plan cache;
    // scan/propagate/join/project from job execution. Every stage the
    // lifecycle passes through must have recorded spans.
    for stage in ["parse", "analyze", "compile", "scan", "join", "project"] {
        let h = snapshot
            .histogram("hunt_stage_ns", &[("stage", stage)])
            .unwrap_or_else(|| panic!("missing hunt_stage_ns{{stage={stage}}}"));
        assert!(h.count > 0, "stage {stage} must have recorded spans");
    }
    // Compilation happened once per distinct query (the cache serves the
    // rest): exactly 2 distinct TBQL texts were planned + 1 follow query
    // (FIG2 is shared with the jobs, so 2 total).
    let compiles = snapshot
        .histogram("hunt_stage_ns", &[("stage", "compile")])
        .unwrap();
    assert_eq!(compiles.count, 2, "two distinct queries compiled once each");

    // -- serving lifecycle ---------------------------------------------
    for stage in ["ingest_append", "snapshot_build", "epoch_dispatch"] {
        let h = snapshot
            .histogram("serve_stage_ns", &[("stage", stage)])
            .unwrap_or_else(|| panic!("missing serve_stage_ns{{stage={stage}}}"));
        assert!(h.count > 0, "serve stage {stage} must have recorded spans");
    }

    // -- storage counters ----------------------------------------------
    assert!(snapshot.counter("storage_appends_total").unwrap() > 0);
    assert!(snapshot.counter("storage_raw_events_total").unwrap() >= 8_000);
    assert!(snapshot.gauge("storage_sealed_shards").unwrap() > 0);

    // -- follow-path telemetry -----------------------------------------
    assert_eq!(snapshot.gauge("follow_subscriptions"), Some(1));
    let deliveries = snapshot.counter("follow_deliveries_total").unwrap();
    assert!(deliveries > 0, "deltas were pushed");
    let delivery = snapshot.histogram("follow_delivery_ns", &[]).unwrap();
    assert_eq!(delivery.count, deliveries, "one sample per delivery");
    assert!(delivery.p50 > 0 && delivery.p50 <= delivery.p99);
    assert!(snapshot.counter("follow_polls_total").unwrap() > 0);
    assert!(snapshot.counter("follow_rows_scanned_total").unwrap() > 0);
    assert!(snapshot.counter("follow_matches_total").unwrap() > 0);

    server.shutdown();
}

#[test]
fn expositions_render_the_same_snapshot() {
    let (server, snapshot) = driven_server();
    server.shutdown();

    let prom = snapshot.to_prometheus();
    let json = JsonValue::parse(&snapshot.to_json()).expect("valid JSON");
    let samples = json.get("samples").and_then(JsonValue::as_array).unwrap();
    assert_eq!(samples.len(), snapshot.samples.len());

    // Every sample appears in both formats with the same value.
    for sample in samples {
        let name = sample.get("name").and_then(JsonValue::as_str).unwrap();
        assert!(
            prom.contains(name),
            "JSON sample {name} missing from Prometheus text"
        );
    }
    // Spot-check one concrete counter line across formats.
    let submitted = snapshot.counter("jobs_submitted_total").unwrap();
    assert!(prom.contains(&format!("jobs_submitted_total {submitted}")));
    let json_submitted = samples
        .iter()
        .find(|s| s.get("name").and_then(JsonValue::as_str) == Some("jobs_submitted_total"))
        .and_then(|s| s.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert_eq!(json_submitted, submitted as f64);
}
