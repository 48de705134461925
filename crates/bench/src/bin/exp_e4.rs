//! E4 — scheduling-ablation scaling curve.
//!
//! Reconstructs the scaling figure: execution time of the Fig. 2 query
//! under scheduled vs unscheduled execution as the event count grows.
//! The shape claim: the gap widens with log size, because constraint
//! propagation keeps intermediate results proportional to the (constant)
//! attack size rather than to the log.

use std::time::Instant;
use threatraptor::engine::baseline::{self, Baseline};
use threatraptor::prelude::*;
use threatraptor_bench::fmt;
use threatraptor_storage::AuditStore;

fn main() {
    println!("== E4: scheduled vs unscheduled execution, scaling with log size ==\n");
    let sizes = [10_000usize, 30_000, 100_000, 300_000, 1_000_000];
    let mut rows = Vec::new();
    for &size in &sizes {
        let scenario = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(size)
            .build();
        let store = AuditStore::ingest(&scenario.log, true);
        let engine = Engine::new(&store);

        let time = |hunt: &dyn Fn() -> HuntResult| {
            // Warm once, then take the best of 3 (reduces jitter).
            hunt();
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    assert!(!hunt().is_empty());
                    t0.elapsed()
                })
                .min()
                .unwrap()
        };
        let scheduled = time(&|| engine.hunt(threatraptor::FIG2_TBQL).unwrap());
        let unscheduled = time(&|| {
            baseline::hunt(&store, threatraptor::FIG2_TBQL, Baseline::Unscheduled).unwrap()
        });
        rows.push(vec![
            size.to_string(),
            store.event_count().to_string(),
            fmt::dur(scheduled),
            fmt::dur(unscheduled),
            format!(
                "{:.2}x",
                unscheduled.as_secs_f64() / scheduled.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    println!(
        "{}",
        fmt::table(
            &[
                "raw events",
                "stored (CPR)",
                "scheduled",
                "unscheduled",
                "gap"
            ],
            &rows
        )
    );
    println!("shape check: the gap column should not shrink as the log grows.");
}
