//! E3 — query-execution efficiency per attack case.
//!
//! Reconstructs the full paper's efficiency comparison: for each attack
//! case, the reference TBQL query is executed with ThreatRaptor's
//! scheduled engine and with the three baselines (unscheduled,
//! relational-only, graph-only) over stores of two sizes. Reported: wall
//! time per strategy, speedup over the slowest, and result correctness
//! (all strategies must return identical rows).

use std::time::Instant;
use threatraptor::engine::baseline::{self, Baseline};
use threatraptor::prelude::*;
use threatraptor_bench::{all_cases, fmt};
use threatraptor_storage::AuditStore;

fn main() {
    println!("== E3: query execution efficiency (TBQL engine vs baselines) ==\n");
    for &size in &[100_000usize, 300_000] {
        let scenario = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[
                AttackKind::DataLeakage,
                AttackKind::PasswordCrack,
                AttackKind::MalwareDrop,
                AttackKind::DbExfil,
            ])
            .target_events(size)
            .build();
        let store = AuditStore::ingest(&scenario.log, true);
        println!(
            "store: {} raw events → {} after CPR, {} entities\n",
            scenario.log.events.len(),
            store.event_count(),
            store.catalog().len()
        );
        let engine = ShardedEngine::new(&store);

        let mut rows = Vec::new();
        for case in all_cases() {
            let t0 = Instant::now();
            let scheduled = engine
                .hunt(case.reference_tbql)
                .expect("reference queries execute");
            let mut timings = vec![t0.elapsed()];
            for b in Baseline::ALL {
                let t0 = Instant::now();
                let result = baseline::hunt(&store, case.reference_tbql, b)
                    .expect("reference queries execute");
                timings.push(t0.elapsed());
                assert_eq!(
                    scheduled.rows, result.rows,
                    "{}: {b:?} disagrees",
                    case.name
                );
            }
            let gt = scenario.ground_truth(case.kind.case_name());
            let (p, r) = scheduled.precision_recall(&store, &gt);
            let slowest = timings.iter().max().copied().unwrap();
            rows.push(vec![
                case.name.to_string(),
                fmt::dur(timings[0]),
                fmt::dur(timings[1]),
                fmt::dur(timings[2]),
                fmt::dur(timings[3]),
                format!(
                    "{:.1}x",
                    slowest.as_secs_f64() / timings[0].as_secs_f64().max(1e-9)
                ),
                format!("{:.2}/{:.2}", p, r),
            ]);
        }
        println!(
            "{}",
            fmt::table(
                &[
                    "case",
                    "ThreatRaptor",
                    "Unscheduled",
                    "SQL-only",
                    "Graph-only",
                    "speedup vs slowest",
                    "P/R"
                ],
                &rows
            )
        );
    }
    println!("shape check: the scheduled engine should be fastest or tied on every case.");
}
