//! The event-driven hunt server: standing queries fire over a live
//! stream with **no polling anywhere**.
//!
//! A data-leakage attack is buried in ~20k benign audit events. A
//! `HuntServer` owns the ingest pipeline; a feeder thread replays the
//! raw log chunk by chunk while the main thread just blocks on a
//! subscription channel — every append wakes the server's dispatcher,
//! which re-evaluates the standing query against one fresh snapshot and
//! pushes the delta. Ad-hoc hunts ride the same server through a bounded
//! job queue with completion handles.
//!
//! Run with: `cargo run --release --example live_server`

use std::time::Duration;
use threatraptor::prelude::*;
use threatraptor_service::HuntServer;

fn main() {
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(20_000)
        .build();
    println!(
        "serving a live stream of {} raw audit events...\n",
        scenario.log.events.len()
    );

    let server = HuntServer::new(ServerConfig::with_ingest(IngestConfig::with_policy(
        SealPolicy::events(2_000),
    )));

    // The standing query (the paper's Fig. 2 hunt): compiled once;
    // deltas will be *pushed* to this subscription as data arrives.
    let (alerts, _) = server.follow(threatraptor::FIG2_TBQL).expect("valid TBQL");

    let (delivered, adhoc) = std::thread::scope(|scope| {
        // Feeder: replays the raw log; each append wakes the dispatcher.
        // Midway it drops an ad-hoc hunt onto the job queue — the handle
        // resolves once a worker has run it against a then-current
        // snapshot, concurrent with ingest and dispatch.
        let feeder = scope.spawn(|| {
            let chunks: Vec<_> = LogFeed::by_events(&scenario.raw, 1_500)
                .map(|c| c.expect("well-formed log"))
                .collect();
            let mut adhoc = None;
            for (i, chunk) in chunks.iter().enumerate() {
                server.append(chunk);
                if i == chunks.len() / 2 {
                    adhoc = Some(server.submit(HuntJob::tbql(
                        "proc p[\"%/bin/tar%\"] read file f return distinct p, f",
                    )));
                }
            }
            assert!(server.wait_caught_up(Duration::from_secs(60)));
            server.shutdown(); // disconnects the subscription when done
            adhoc.expect("the feed has at least two chunks")
        });

        // Consumer: nothing but a blocking receive loop.
        let mut total = 0usize;
        for event in alerts.receiver().iter() {
            total += event.delta.new_matches;
            println!(
                "⚠ ALERT (epoch {:>3}): {} new match(es), delivered in {:?}",
                event.epoch, event.delta.new_matches, event.delta.elapsed
            );
            for row in &event.delta.rows {
                println!("    {}", row.join(" | "));
            }
        }
        (total, feeder.join().expect("feeder thread"))
    });

    let report = adhoc.wait();
    println!(
        "\nad-hoc {} (submitted mid-stream): {} row(s), {:?}",
        adhoc.id(),
        report.outcome.as_ref().map(|r| r.rows.len()).unwrap_or(0),
        report.elapsed,
    );

    // The pushed stream delivered exactly what a from-scratch batch hunt
    // finds — nothing duplicated, nothing lost.
    let batch = ThreatRaptor::from_parsed(&scenario.log, true);
    let reference = batch.hunt(threatraptor::FIG2_TBQL).expect("valid TBQL");
    println!(
        "\nstanding query delivered {delivered} match(es) push-only; batch reference: {}",
        reference.matches.len()
    );
    assert_eq!(
        delivered,
        reference.matches.len(),
        "event-driven delivery must be exactly-once"
    );
    println!("exactly-once delivery vs batch ingestion: OK");
}
