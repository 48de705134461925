//! Variable-length event path patterns (the paper's advanced syntax):
//! `proc p ~>(m~n)[op] file f` matches multi-hop flows even when the
//! OSCTI text elides the intermediate processes. The same query also
//! runs as a standing query over a live feed of the raw log.
//!
//! ```text
//! cargo run --example path_patterns
//! ```

use std::collections::BTreeSet;
use std::time::Duration;
use threatraptor::prelude::*;

fn main() {
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(30_000)
        .build();
    let raptor = ThreatRaptor::from_parsed(&scenario.log, true);

    // Direct syntax: information flow from the tar process into the
    // encrypted staging file, crossing 1..4 events (tar → upload.tar →
    // bzip2 → upload.tar.bz2 → …).
    let q = r#"proc p["%/bin/tar%"] ~>(1~4)[write] file f["%/tmp/upload%"] as flow
               return distinct p, f"#;
    let result = raptor.hunt(q).expect("path query executes");
    println!("-- 1..4-hop write flows from /bin/tar into /tmp/upload* --");
    println!("{}", result.render_table());
    for m in result.matches.iter().take(5) {
        println!("  witness path: {} hops", m.events["flow"].len());
    }

    // The same query standing: a server fed the raw log chunk by chunk
    // delivers, across its incremental polls, the batch hunt's rows.
    let server = HuntServer::new(ServerConfig::with_ingest(IngestConfig::with_policy(
        SealPolicy::events(2_000),
    )));
    let (follow, _) = server.follow(q).expect("path query follows");
    for chunk in LogFeed::by_events(&scenario.raw, 1_500) {
        server.append(&chunk.expect("well-formed log"));
    }
    assert!(server.wait_caught_up(Duration::from_secs(60)));
    let followed = server.follow_result(follow.id()).expect("registered");
    let metrics = server.metrics();
    let executions = metrics.counter("follow_executions_total").unwrap_or(0);
    let from_zero = metrics.counter("follow_full_fallback_total").unwrap_or(0);
    println!(
        "-- standing: {} row(s) over {executions} polls, {from_zero} from zero --",
        followed.rows.len()
    );
    let rows = |rows: &[Vec<String>]| rows.iter().cloned().collect::<BTreeSet<_>>();
    assert_eq!(
        rows(&followed.rows),
        rows(&result.rows),
        "follow vs batch rows"
    );
    assert!(from_zero < executions, "later polls scan only fresh rows");
    server.shutdown();

    // Synthesis with the user-defined path plan: every report edge
    // becomes a tolerant path pattern instead of a single event.
    let extraction = ThreatExtractor::new().extract(threatraptor::FIG2_OSCTI_TEXT);
    let query = threatraptor::synth::synthesize_with_plan(
        &extraction.graph,
        &PathPatternPlan {
            min_hops: 1,
            max_hops: 2,
        },
    )
    .expect("synthesizes");
    println!("-- Fig. 2 synthesized with the path-pattern plan --");
    println!("{}", print_query(&query));
    let result = raptor
        .store()
        .pipe_hunt(&query)
        .expect("path-plan query executes");
    println!("matches: {}", result.matches.len());
}

/// Small helper so the example reads top-to-bottom.
trait PipeHunt {
    fn pipe_hunt(
        &self,
        q: &threatraptor::tbql::ast::Query,
    ) -> Result<threatraptor::HuntResult, threatraptor::EngineError>;
}

impl PipeHunt for threatraptor::ShardedStore {
    fn pipe_hunt(
        &self,
        q: &threatraptor::tbql::ast::Query,
    ) -> Result<threatraptor::HuntResult, threatraptor::EngineError> {
        ShardedEngine::new(self).hunt_query(q)
    }
}
