//! Concurrent hunting through the hunt server: one live store, many
//! simultaneous hunts with mixed intelligence sources.
//!
//! Run with: `cargo run --release --example concurrent_hunts`

use threatraptor::prelude::*;
use threatraptor::JobHandle;
use threatraptor_bench::all_cases;

fn main() {
    // A server under both a data-leakage and a password-cracking attack,
    // buried in ~40k benign audit events.
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage, AttackKind::PasswordCrack])
        .target_events(40_000)
        .build();

    // The hunt server: a worker per core, a shared plan cache, and a
    // store sealed into a shard every 4 096 events as the log streams in.
    let server = HuntServer::new(ServerConfig::default());
    for chunk in LogFeed::by_events(&scenario.raw, 5_000) {
        server.append(&chunk.expect("well-formed log"));
    }
    let status = server.status();
    println!(
        "ingested {} events ({:.1}x reduced by CPR) into {} sealed shards; {} workers\n",
        status.total_events,
        status.reduction.factor(),
        status.sealed_shards,
        server.config().workers,
    );

    // A mixed batch: hunt the data-leakage case from its raw OSCTI report
    // (full extraction + synthesis) and the password-cracking case from an
    // analyst-written TBQL query — several times each, as a production
    // queue would see. Every submission returns a handle at once; the
    // workers run the jobs concurrently.
    let cases = all_cases();
    let mut handles: Vec<JobHandle> = Vec::new();
    for _ in 0..3 {
        handles.push(server.submit(HuntJob::report(cases[0].report))); // data leakage (OSCTI)
        handles.push(server.submit(HuntJob::tbql(cases[1].reference_tbql))); // password crack (TBQL)
    }

    let reports: Vec<_> = handles.iter().map(JobHandle::wait).collect();
    for (handle, report) in handles.iter().zip(&reports) {
        match &report.outcome {
            Ok(result) => println!(
                "{} [{}] {:>5} matches  {:>8.2?}  cache_hit={}",
                handle.id(),
                report.job.kind(),
                result.matches.len(),
                report.elapsed,
                report.cache_hit,
            ),
            Err(e) => println!("{} failed: {e}", handle.id()),
        }
    }

    let stats = server.cache_stats();
    println!(
        "\nplan cache: {} plans, {} syntheses, {:.0}% hit rate",
        stats.plans,
        stats.reports,
        stats.hit_ratio() * 100.0
    );

    // Show one result table: the matched auditing records of the first
    // data-leakage hunt.
    if let Ok(result) = &reports[0].outcome {
        println!(
            "\nmatched records (data leakage):\n{}",
            result.render_table()
        );
    }
    server.shutdown();
}
