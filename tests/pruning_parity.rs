//! Pruning-parity property: DBM-derived feasible-range clamping is a
//! pure scan optimization. The bounds the closure attaches to a pattern
//! are consequences of the query's own constraints, so any row that can
//! witness a complete match already satisfies them — dropping the rest
//! at fetch must leave the projected rows and the full match set
//! byte-identical to an unclamped execution, on every store, and equal
//! to what the reference evaluator returns.

use proptest::prelude::*;
use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
use threatraptor_engine::compile::{compile, CompiledQuery};
use threatraptor_engine::{reference, ExecMode, HuntResult, ShardedEngine};
use threatraptor_storage::sharded::ShardedStore;
use threatraptor_tbql::analyze::analyze;
use threatraptor_tbql::parser::parse_query;

/// A match as sorted bindings and sorted witnessing positions.
type MatchKey = (Vec<(String, u32)>, Vec<(String, Vec<usize>)>);

/// The matches of `result` as a sorted multiset, and its rows sorted.
fn keyed(result: &HuntResult) -> (Vec<MatchKey>, Vec<Vec<String>>) {
    let mut keys: Vec<MatchKey> = result
        .matches
        .iter()
        .map(|m| {
            let mut bindings: Vec<_> = m.bindings.iter().map(|(v, e)| (v.clone(), e.0)).collect();
            bindings.sort();
            let mut events: Vec<_> = m
                .events
                .iter()
                .map(|(p, h)| (p.clone(), h.clone()))
                .collect();
            events.sort();
            (bindings, events)
        })
        .collect();
    keys.sort();
    let mut rows = result.rows.clone();
    rows.sort();
    (keys, rows)
}

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
        // The clamped plan against the reference over the same store.
        let entities: Vec<_> = store.catalog().iter().cloned().collect();
        let events: Vec<_> = (0..store.event_count()).map(|pos| store.event_at(pos).clone()).collect();
        let aq = analyze(&parse_query(&tbql).unwrap()).unwrap();
        let want = reference::evaluate(&entities, &events, &aq);
        prop_assert_eq!(keyed(&a), keyed(&want), "{}", tbql);
        // The clamp is observable only in the scan accounting:
        // pruned + fetched(clamped) == fetched(unclamped), pattern
        // by pattern.
        for p in &a.stats.patterns {
            let unclamped_fetched = b
                .stats
                .patterns
                .iter()
                .find(|q| q.pattern == p.pattern)
                .map_or(0, |q| q.total_rows());
            prop_assert_eq!(p.total_rows() + p.rows_pruned, unclamped_fetched, "pattern {}", p.pattern);
        }
        prop_assert_eq!(b.stats.total_rows_pruned(), 0);
    }
}
