//! Per-hunt execution profiles, end to end.
//!
//! Three views of the same hunt:
//!
//! 1. `EXPLAIN` — the compiled plan before running anything: pattern
//!    schedule, pushed-down filters, predicted shard fan-out.
//! 2. `EXPLAIN ANALYZE` — the plan annotated with actuals from one
//!    execution: per-pattern × per-shard rows scanned, propagation
//!    prunes, join selectivity, per-stage wall time, and the entity rows
//!    whose filters the execution evaluated (`entity-rows=`). One cached
//!    plan run twice shows the second run evaluating none: each plan
//!    memoizes its resolved entities.
//! 3. The server-side profile — every job submitted to a `HuntServer`
//!    carries a hierarchical trace tree; the worst ones land in the
//!    slow-hunt log, and any trace exports as Chrome `trace_event`
//!    JSON (load it at `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! Run with: `cargo run --release --example explain_hunt`

use std::time::Duration;
use threatraptor::prelude::*;
use threatraptor::service::PlanCache;
use threatraptor::FIG2_TBQL;

fn main() {
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(8_000)
        .build();

    // ---- 1 + 2: EXPLAIN and EXPLAIN ANALYZE against a sharded store.
    let store = ShardedStore::ingest(&scenario.log, true, 4);
    let engine = ShardedEngine::new(&store);

    println!("==== EXPLAIN ====\n");
    let plan = engine.explain(FIG2_TBQL).expect("valid TBQL");
    println!("{}", plan.render());

    println!("==== EXPLAIN ANALYZE ====\n");
    let (result, report) = engine.explain_analyze(FIG2_TBQL).expect("valid TBQL");
    println!("{}", report.render());
    assert!(!result.is_empty(), "the leakage attack must match");

    // The actuals in the report are the execution's own `HuntStats`.
    assert_eq!(report.total_rows_scanned(), result.stats.total_rows());
    println!(
        "rows-scanned actuals match the hunt's stats: {} rows\n",
        report.total_rows_scanned()
    );

    // One cached plan, executed twice: the first run fills the plan's
    // endpoint memo, the second evaluates no entity filter at all.
    let (plan, _) = PlanCache::new().plan(FIG2_TBQL).expect("valid TBQL");
    let runs: Vec<HuntResult> = (0..2)
        .map(|_| {
            engine
                .execute(&plan.compiled, ExecMode::Scheduled)
                .expect("valid plan")
        })
        .collect();
    for (label, run) in ["cold", "hot"].iter().zip(&runs) {
        println!(
            "{label} run of one plan: entity-rows={} resolve={:.3?}",
            run.stats.entity_rows, run.stats.resolve_elapsed
        );
    }
    assert!(runs[0].stats.entity_rows > 0);
    assert_eq!(
        runs[1].stats.entity_rows, 0,
        "the hot run resolves from the memo"
    );
    assert_eq!(runs[0].rows, runs[1].rows);
    println!();

    // ---- 3: server-side profiles and the slow-hunt log.
    let server = HuntServer::new(
        ServerConfig::with_ingest(IngestConfig::with_policy(SealPolicy::events(1_000)))
            .slow_hunt_capacity(8),
    );
    for chunk in LogFeed::by_events(&scenario.raw, 1_000) {
        server.append(&chunk.expect("well-formed log"));
    }
    assert!(server.wait_caught_up(Duration::from_secs(60)));

    let queries = [
        FIG2_TBQL,
        "proc p read file f return distinct p, f",
        FIG2_TBQL, // repeat: plan cache scores a hit
    ];
    let mut last = None;
    for q in queries {
        let handle = server.submit(HuntJob::tbql(q));
        last = Some((handle.id(), handle.trace_id()));
        handle.wait().outcome.expect("valid TBQL");
    }

    println!("==== slow-hunt log (worst first) ====\n");
    println!(
        "{:<6} {:<10} {:<10} {:>12} {:>12} {:>12}",
        "job", "trace", "status", "queue wait", "exec", "latency"
    );
    for p in server.slow_hunts() {
        println!(
            "{:<6} {:<10} {:<10} {:>12?} {:>12?} {:>12?}",
            p.job_id.to_string(),
            p.trace_id.to_string(),
            p.status,
            p.queue_wait,
            p.exec,
            p.latency,
        );
    }

    let (job_id, trace_id) = last.expect("at least one job ran");
    let profile = server.profile(job_id).expect("profiled job");
    assert_eq!(profile.trace_id, trace_id);

    println!("\n==== trace tree for {job_id} ====\n");
    print!("{}", profile.trace.render_text());

    let chrome = profile.trace.to_chrome_trace().pretty();
    let path = std::env::temp_dir().join("explain_hunt_trace.json");
    std::fs::write(&path, chrome + "\n").expect("writable temp dir");
    println!(
        "\nChrome trace written to {} (open in chrome://tracing)",
        path.display()
    );

    server.shutdown();
}
