//! EXPLAIN ANALYZE ↔ metrics consistency: the per-pattern × per-shard
//! rows-scanned actuals a report carries must exactly equal what the
//! engine's `engine_rows_scanned_total{pattern,shard}` counters
//! recorded for the same hunt — both are collected from the same
//! execution, so any drift is a bug in one of the two paths.

use std::sync::Arc;
use threatraptor::prelude::*;
use threatraptor::Registry;
use threatraptor_engine::ExplainReport;
use threatraptor_tbql::parser::FIG2_TBQL;

const SHARDS: usize = 4;

fn store() -> ShardedStore {
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(6_000)
        .build();
    ShardedStore::ingest(&scenario.log, true, SHARDS)
}

fn counter(registry: &Registry, pattern: &str, shard: usize) -> u64 {
    registry
        .snapshot()
        .get(
            "engine_rows_scanned_total",
            &[("pattern", pattern), ("shard", &shard.to_string())],
        )
        .and_then(|s| match s.value {
            threatraptor::obs::SampleValue::Counter(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0)
}

fn assert_actuals_match_counters(registry: &Registry, report: &ExplainReport, runs: u64) {
    let actuals = report.actuals.as_ref().expect("analyze attaches actuals");
    assert!(!actuals.patterns.is_empty());
    for p in &actuals.patterns {
        assert_eq!(p.shard_rows.len(), SHARDS, "pattern {}", p.pattern);
        for shard in 0..SHARDS {
            assert_eq!(
                counter(registry, &p.pattern, shard),
                runs * p.shard_rows[shard] as u64,
                "pattern {} shard {shard}: report actuals must equal the \
                 engine_rows_scanned_total counter",
                p.pattern
            );
        }
    }
}

#[test]
fn explain_analyze_rows_equal_engine_counters() {
    let store = store();
    let registry = Arc::new(Registry::new());
    let engine = ShardedEngine::new(&store).with_registry(&registry);

    let (result, report) = engine.explain_analyze(FIG2_TBQL).expect("valid TBQL");
    assert!(!result.is_empty(), "the leakage attack must match");
    assert_actuals_match_counters(&registry, &report, 1);

    // The counters are cumulative across hunts while each report is
    // per-execution: a second identical run doubles every counter but
    // reports the same actuals.
    let (_, again) = engine.explain_analyze(FIG2_TBQL).expect("valid TBQL");
    assert_actuals_match_counters(&registry, &again, 2);

    // Total attribution is consistent end to end.
    assert_eq!(report.total_rows_scanned(), result.stats.total_rows());
}

#[test]
fn plain_explain_records_no_counters() {
    let store = store();
    let registry = Arc::new(Registry::new());
    let engine = ShardedEngine::new(&store).with_registry(&registry);
    let report = engine.explain(FIG2_TBQL).expect("valid TBQL");
    assert!(report.actuals.is_none());
    assert!(
        registry.snapshot().samples.is_empty(),
        "EXPLAIN must not execute the hunt"
    );
}
