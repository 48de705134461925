//! The unified telemetry layer, end to end: drive a small `HuntServer`
//! (ingest + a standing query + ad-hoc jobs), then dump its complete
//! `MetricsSnapshot` in both exposition formats.
//!
//! Every number printed here — storage gauges, plan-cache counters,
//! per-stage hunt latencies, job queue wait/execution histograms,
//! follow-delivery percentiles — comes out of one
//! `HuntServer::metrics()` call; nothing is measured by this example
//! itself.
//!
//! Run with: `cargo run --release --example metrics_dump`

use std::time::Duration;
use threatraptor::prelude::*;
use threatraptor_service::HuntServer;

fn main() {
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(8_000)
        .build();

    let server = HuntServer::new(ServerConfig::with_ingest(IngestConfig::with_policy(
        SealPolicy::events(1_000),
    )));

    // A standing query exercises the follow/dispatch path…
    let (alerts, _) = server.follow(threatraptor::FIG2_TBQL).expect("valid TBQL");
    // …ingest exercises the storage/serving path…
    for chunk in LogFeed::by_events(&scenario.raw, 800) {
        server.append(&chunk.expect("well-formed log"));
    }
    // …and a few ad-hoc jobs exercise the queue and hunt-stage paths.
    for q in [
        threatraptor::FIG2_TBQL,
        "proc p read file f return distinct p, f",
        threatraptor::FIG2_TBQL, // a repeat: the plan cache scores a hit
    ] {
        let result = server.hunt(q).expect("valid TBQL");
        let _ = result.matches.len();
    }
    assert!(server.wait_caught_up(Duration::from_secs(60)));
    // Drain the pushed deltas (not required for metrics; keeps the
    // subscription honest).
    while alerts.try_recv().is_ok() {}

    let snapshot = server.metrics();
    server.shutdown();

    println!("==== Prometheus exposition ====\n");
    print!("{}", snapshot.to_prometheus());

    println!("\n==== JSON exposition ====\n");
    println!("{}", snapshot.to_json());

    // The snapshot must carry every lifecycle family this run exercised.
    for name in [
        "storage_raw_events_total",
        "plan_cache_hits_total",
        "jobs_completed_total",
    ] {
        assert!(
            snapshot.counter(name).is_some_and(|v| v > 0),
            "expected non-zero counter {name}"
        );
    }
    // A stage's count is its histogram's count: appends and deliveries.
    for (name, labels) in [
        ("serve_stage_ns", &[("stage", "ingest_append")][..]),
        ("follow_delivery_ns", &[]),
    ] {
        assert!(
            snapshot
                .histogram(name, labels)
                .is_some_and(|h| h.count > 0),
            "expected samples in {name}{labels:?}"
        );
    }
    assert!(
        snapshot
            .histogram("job_latency_ns", &[("status", "ok")])
            .is_some_and(|h| h.count > 0),
        "job latency histogram must be populated"
    );
    assert!(
        snapshot
            .histogram("hunt_stage_ns", &[("stage", "scan")])
            .is_some_and(|h| h.count > 0),
        "per-stage hunt spans must be populated"
    );
    println!("\nall lifecycle metric families populated: OK");
}
