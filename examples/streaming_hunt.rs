//! Hunting while the audit stream is still arriving: streaming ingest
//! with a standing (follow-mode) query.
//!
//! A data-leakage attack is buried in ~20k benign audit events. Instead
//! of ingesting the finished log and hunting afterwards, this example
//! replays the raw log as a stream of chunks into a `HuntServer` —
//! appendable open window, incremental CPR, automatic sealing — with a
//! standing query registered through `follow`. The query's new matches
//! arrive on its subscription the moment the attack's behavior pattern
//! is fully present, long before the stream ends.
//!
//! Run with: `cargo run --release --example streaming_hunt`

use std::time::Duration;
use threatraptor::prelude::*;
use threatraptor::FollowDelta;

fn main() {
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(20_000)
        .build();
    println!(
        "replaying {} raw audit events as a live stream...\n",
        scenario.log.events.len()
    );

    // A live store: seal a shard every 2 000 open events, CPR on.
    let server = HuntServer::new(ServerConfig::with_ingest(IngestConfig::with_policy(
        SealPolicy::events(2_000),
    )));

    // Register the standing query (the paper's Fig. 2 hunt). It compiles
    // once; every append afterwards re-evaluates the cached plan over the
    // new data and pushes only newly appeared matches to `alerts`.
    let (alerts, _) = server.follow(threatraptor::FIG2_TBQL).expect("valid TBQL");

    // Replay the raw log in ~1 500-event chunks. Waiting for the
    // dispatcher after each append keeps this printout in step with the
    // stream; a real consumer would just block on `alerts.recv()`.
    for (i, chunk) in LogFeed::by_events(&scenario.raw, 1_500).enumerate() {
        let chunk = chunk.expect("well-formed log");
        let outcome = server.append(&chunk);
        assert!(server.wait_caught_up(Duration::from_secs(60)));
        let status = server.status();
        print!(
            "chunk {i:>2}: +{:>5} events  [{} sealed shards | {:>5} open | {:.2}x reduced]",
            outcome.appended,
            status.sealed_shards,
            status.open_events,
            status.reduction.factor(),
        );
        let deltas: Vec<FollowDelta> = alerts.receiver().try_iter().map(|e| e.delta).collect();
        let new_matches: usize = deltas.iter().map(|d| d.new_matches).sum();
        if new_matches == 0 {
            println!();
        } else {
            println!("  ⚠ ALERT: {new_matches} new match(es)");
            for row in deltas.iter().flat_map(|d| &d.rows) {
                println!("          {}", row.join(" | "));
            }
        }
    }

    // The accumulated result equals a from-scratch batch hunt.
    let merged = server
        .follow_result(alerts.id())
        .expect("the standing query is registered");
    println!(
        "\nstanding query `{}`\nfound {} match(es) over the whole stream:",
        alerts.tbql().lines().next().unwrap_or_default(),
        merged.matches.len()
    );
    println!("{}", merged.render_table());

    let batch = ThreatRaptor::from_parsed(&scenario.log, true);
    let reference = batch.hunt(threatraptor::FIG2_TBQL).expect("valid TBQL");
    assert_eq!(
        merged.matches.len(),
        reference.matches.len(),
        "streaming result must agree with batch ingestion"
    );
    println!("parity with batch ingestion: OK");
    server.shutdown();
}
