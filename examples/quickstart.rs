//! Quickstart: the complete ThreatRaptor pipeline in ~30 lines.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Simulates an audited host (benign activity + the paper's Fig. 2
//! data-leakage attack), then hunts for the attack directly from the
//! threat-intelligence text.

use threatraptor::prelude::*;

fn main() {
    // 1. Audit logs. The simulator stands in for a Sysdig-audited host;
    //    any Sysdig-like raw log can be loaded with
    //    `ThreatRaptor::from_raw_log` instead.
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(20_000)
        .build();
    println!(
        "audited host: {} events, {} entities",
        scenario.log.events.len(),
        scenario.log.entities.len()
    );

    // 2. Ingest into the store: entity catalog + indexed events (with CPR).
    let raptor = ThreatRaptor::from_parsed(&scenario.log, true);

    // 3. Hunt straight from OSCTI text: extraction → synthesis →
    //    execution.
    let outcome = raptor
        .hunt_report(threatraptor::FIG2_OSCTI_TEXT)
        .expect("the described behavior is present in the logs");

    println!("\n-- extracted threat behavior graph --");
    println!("{}", outcome.extraction.graph);
    println!("-- synthesized TBQL --");
    println!("{}", outcome.tbql);
    println!("-- matched system auditing records --");
    println!("{}", outcome.result.render_table());
}
