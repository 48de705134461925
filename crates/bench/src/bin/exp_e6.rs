//! E6 — Causality-Preserved Reduction effectiveness.
//!
//! The paper reduces storage by merging excessive events between the same
//! entity pair (§II-B, citing Xu et al. CCS'16). This experiment measures
//! the reduction factor per workload profile and store size, and verifies
//! that hunting results are unchanged by the reduction.

use threatraptor::prelude::*;
use threatraptor_audit::sim::scenario::BenignMix;
use threatraptor_bench::fmt;

fn main() {
    println!("== E6: Causality-Preserved Reduction ==\n");
    let profiles: Vec<(&str, BenignMix)> = vec![
        ("server (web+db heavy)", BenignMix::default()),
        (
            "interactive (ssh+builds)",
            BenignMix {
                web: 1,
                builds: 5,
                ssh: 5,
                cron: 1,
                backup: 1,
                updates: 1,
                db: 1,
            },
        ),
        (
            "batch (backup+updates)",
            BenignMix {
                web: 0,
                builds: 1,
                ssh: 0,
                cron: 2,
                backup: 6,
                updates: 3,
                db: 0,
            },
        ),
    ];

    let mut rows = Vec::new();
    for (name, mix) in &profiles {
        for &size in &[50_000usize, 200_000] {
            let scenario = ScenarioBuilder::new()
                .seed(42)
                .attacks(&[AttackKind::DataLeakage])
                .mix(mix.clone())
                .target_events(size)
                .build();
            let stats = ShardedStore::ingest(&scenario.log, true, 1).reduction();
            rows.push(vec![
                name.to_string(),
                stats.before.to_string(),
                stats.after.to_string(),
                format!("{:.2}x", stats.factor()),
                format!("{:.1}%", stats.removed_ratio() * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        fmt::table(
            &[
                "workload",
                "events before",
                "events after",
                "factor",
                "removed"
            ],
            &rows
        )
    );

    // Correctness: CPR must not change hunting results.
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(50_000)
        .build();
    let plain = ShardedStore::ingest(&scenario.log, false, 1);
    let reduced = ShardedStore::ingest(&scenario.log, true, 1);
    let r1 = ShardedEngine::new(&plain)
        .hunt(threatraptor::FIG2_TBQL)
        .unwrap();
    let r2 = ShardedEngine::new(&reduced)
        .hunt(threatraptor::FIG2_TBQL)
        .unwrap();
    assert_eq!(r1.rows, r2.rows, "CPR changed hunting results!");
    println!(
        "correctness check: hunting results identical with and without CPR ({} rows).",
        r1.rows.len()
    );
}
