//! Plain EXPLAIN is plan-only: it renders the compiled schedule a hunt
//! would run, attaches no execution actuals, and leaves the metrics of
//! the server whose snapshot it plans against exactly as they were.

use std::time::Duration;
use threatraptor::prelude::*;
use threatraptor_service::HuntServer;
use threatraptor_tbql::parser::FIG2_TBQL;

#[test]
fn plain_explain_records_no_counters() {
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(6_000)
        .build();
    let server = HuntServer::new(ServerConfig::with_ingest(IngestConfig::with_policy(
        SealPolicy::events(1_000),
    )));
    for chunk in LogFeed::by_events(&scenario.raw, 1_000) {
        server.append(&chunk.expect("well-formed log"));
    }
    server.seal();
    assert!(server.wait_caught_up(Duration::from_secs(60)));

    let store = server.snapshot();
    let engine = ShardedEngine::new(&store);
    let before = server.registry().snapshot();
    let report = engine.explain(FIG2_TBQL).expect("valid TBQL");
    assert_eq!(
        server.registry().snapshot(),
        before,
        "EXPLAIN must not execute the hunt or record any metric"
    );
    assert!(report.actuals.is_none());
    assert!(!report.render().contains("actuals:"));

    // The plan is the one EXPLAIN ANALYZE executes.
    let (result, analyzed) = engine.explain_analyze(FIG2_TBQL).expect("valid TBQL");
    assert!(!result.is_empty(), "the leakage attack must match");
    let plan = |r: &threatraptor_engine::ExplainReport| {
        r.entries
            .iter()
            .map(|e| (e.pattern.clone(), e.score, e.join_key.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(plan(&report), plan(&analyzed));
    assert_eq!(report.shards, analyzed.shards);
}
