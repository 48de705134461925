//! Pruning-parity property: DBM-derived feasible-range clamping is a
//! pure scan optimization. The bounds the closure attaches to a pattern
//! are consequences of the query's own constraints, so any row that can
//! witness a complete match already satisfies them — dropping the rest
//! at fetch must leave the projected rows and the full match set
//! byte-identical to an unclamped execution, on every store.

use proptest::prelude::*;
use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
use threatraptor_engine::compile::{compile, CompiledQuery};
use threatraptor_engine::{ExecMode, ShardedEngine};
use threatraptor_storage::sharded::ShardedStore;
use threatraptor_tbql::analyze::analyze;
use threatraptor_tbql::parser::parse_query;

fn small_store(seed: u64, shards: usize) -> ShardedStore {
    let sc = ScenarioBuilder::new()
        .seed(seed)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(1_500)
        .build();
    ShardedStore::ingest(&sc.log, true, shards)
}

/// Compiles `tbql`, keeping the DBM bounds the closure attached.
fn compiled(tbql: &str) -> CompiledQuery {
    compile(&analyze(&parse_query(tbql).unwrap()).unwrap()).unwrap()
}

/// A window + ordering combination that gives the closure room to
/// tighten at least one pattern; the window's upper bound comes from a
/// mid-stream event timestamp so the clamp actually bites.
fn prunable_query(store: &ShardedStore, cut_quarter: usize, rel: &str, exe: &str) -> String {
    let n = store.event_count();
    let cut = store.event_at((n * cut_quarter.clamp(1, 3)) / 4).start;
    let filter = if exe.is_empty() {
        String::new()
    } else {
        format!("[\"{exe}\"]")
    };
    format!(
        "proc p{filter} read file f as e1 window [0, {cut}]\n\
         proc p write file g as e2\n\
         with e1 {rel} e2\n\
         return p, f, g"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Clamped and unclamped executions agree exactly; the clamp only
    /// changes how many rows the join ever sees.
    #[test]
    fn clamped_scans_match_unclamped(
        seed in 0u64..3,
        shards in 1usize..5,
        cut_quarter in 1usize..4,
        rel in prop::sample::select(vec!["before", "after"]),
        exe in prop::sample::select(vec!["%/bin/tar%", "%bash%", ""]),
    ) {
        let store = small_store(seed, shards);
        let engine = ShardedEngine::new(&store);
        let tbql = prunable_query(&store, cut_quarter, rel, exe);
        let clamped = compiled(&tbql);
        prop_assert!(
            clamped.patterns.iter().any(|p| p.bounds.is_some()),
            "query generator must produce tightened bounds: {}", tbql
        );
        let mut unclamped = clamped.clone();
        for p in &mut unclamped.patterns {
            p.bounds = None;
        }
        let a = engine.execute(&clamped, ExecMode::Scheduled).unwrap();
        let b = engine.execute(&unclamped, ExecMode::Scheduled).unwrap();
        prop_assert_eq!(&a.columns, &b.columns);
        prop_assert_eq!(&a.rows, &b.rows, "{}", tbql);
        prop_assert_eq!(&a.matches, &b.matches, "{}", tbql);
        // The clamp is observable only in the scan accounting:
        // pruned + fetched(clamped) == fetched(unclamped), pattern
        // by pattern.
        for (id, fetched) in &a.stats.rows_fetched {
            let pruned = a
                .stats
                .rows_pruned
                .iter()
                .find(|(p, _)| p == id)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            let unclamped_fetched = b
                .stats
                .rows_fetched
                .iter()
                .find(|(p, _)| p == id)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            prop_assert_eq!(fetched + pruned, unclamped_fetched, "pattern {}", id);
        }
        prop_assert!(b.stats.rows_pruned.iter().all(|(_, n)| *n == 0));
    }
}
