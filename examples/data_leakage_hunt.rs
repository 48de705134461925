//! The paper's Fig. 2 demonstration, step by step, with ground-truth
//! evaluation — the long-form version of `quickstart`.
//!
//! ```text
//! cargo run --example data_leakage_hunt
//! ```

use threatraptor::engine::baseline::{self, Baseline};
use threatraptor::prelude::*;
use threatraptor::synth;

fn main() {
    // A busy server: web traffic, builds, cron jobs, backups — and one
    // data-leakage attack buried inside.
    let scenario = ScenarioBuilder::new()
        .seed(7)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(60_000)
        .build();
    let store = AuditStore::ingest(&scenario.log, true);
    println!(
        "store: {} events after CPR (reduction {:.2}x), {} entities",
        store.event_count(),
        store.reduction.factor(),
        store.catalog().len()
    );

    // Step 1: extract the threat behavior graph from the report.
    let extraction = ThreatExtractor::new().extract(threatraptor::FIG2_OSCTI_TEXT);
    println!("\nstep 1 — extraction:\n{}", extraction.graph);

    // Step 2: synthesize the TBQL query.
    let query = synth::synthesize(&extraction.graph).expect("auditable behavior present");
    let tbql = print_query(&query);
    println!("step 2 — synthesized TBQL:\n{tbql}");

    // Step 3: execute, and compare with the paper's baselines.
    let result = ShardedEngine::new(&store)
        .hunt_query(&query)
        .expect("query executes");
    let gt = scenario.ground_truth("data_leakage");
    let report = |label: &str, result: &HuntResult| {
        let (p, r) = result.precision_recall(&store, &gt);
        println!(
            "step 3 — {label:<24} {:>9.3?}  precision {p:.2}  recall {r:.2}",
            result.stats.elapsed,
        );
    };
    report("ThreatRaptor (scheduled)", &result);
    for b in Baseline::ALL {
        report(
            b.label(),
            &baseline::hunt(&store, &tbql, b).expect("query executes"),
        );
    }

    // The matched records.
    println!("\nmatched records:\n{}", result.render_table());
    println!(
        "execution order (pruning scores first): {:?}",
        result
            .stats
            .patterns
            .iter()
            .map(|p| p.pattern.as_str())
            .collect::<Vec<_>>()
    );
}
