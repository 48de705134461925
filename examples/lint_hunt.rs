//! Query linting & temporal feasibility, end to end.
//!
//! Four views of the TBQL static analyzer:
//!
//! 1. Lint diagnostics — warnings (unused variables, dead patterns,
//!    redundant temporal constraints) rendered with source context.
//! 2. Compile-time rejection — infeasible queries (cyclic orderings,
//!    empty windows, contradictory filters) fail with stable `E...`
//!    codes before any row is scanned.
//! 3. Server-side rejection — the `HuntServer` refuses the same queries
//!    on every entry point, every time, and caches no plan for them.
//! 4. Analysis-driven pruning — difference-bound-matrix (DBM) closure
//!    tightens each pattern's feasible time range; `EXPLAIN` predicts
//!    the clamp and `EXPLAIN ANALYZE` reports the rows it cut, read
//!    from the hunt's own `HuntStats`.
//!
//! Run with: `cargo run --release --example lint_hunt`

use threatraptor::prelude::*;
use threatraptor_engine::EngineError;
use threatraptor_service::{HuntServer, ServerConfig, ServiceError};
use threatraptor_tbql::analyze::analyze;
use threatraptor_tbql::lint::lint;
use threatraptor_tbql::parser::parse_query;

fn main() {
    // ---- 1: lint a feasible query that still deserves warnings.
    let sloppy = "proc p read file f as e1\n\
                  proc p write file g as e2\n\
                  proc q execute file h as e3\n\
                  with e1 before e2\n\
                  return p, f, g";
    let report = lint(&analyze(&parse_query(sloppy).expect("parses")).expect("analyzes"));
    println!("==== lint report ====\n");
    print!("{}", report.render(sloppy));
    assert!(!report.has_errors(), "warnings only");
    assert!(
        report.diagnostics.iter().any(|d| d.code == "W002"),
        "e3 shares nothing with the returned entities: dead pattern"
    );

    // ---- 2: the infeasible corpus is rejected at compile time.
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(5_000)
        .build();
    let store = ShardedStore::ingest(&scenario.log, true, 4);
    let engine = ShardedEngine::new(&store);

    println!("\n==== compile-time rejections ====\n");
    let corpus = [
        (
            "cyclic ordering",
            "proc p read file f as e1 proc p write file g as e2 \
             with e1 before e2, e2 before e1 return p",
        ),
        (
            "empty window",
            "proc p read file f as e1 window [900, 100] return p, f",
        ),
        (
            "contradictory filters",
            "proc p[\"/bin/tar\"] read file f as e1 \
             proc p[\"/bin/gzip\"] write file g as e2 return p, f, g",
        ),
    ];
    for (label, q) in corpus {
        match engine.hunt(q) {
            Err(EngineError::Infeasible(diags)) => {
                let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
                println!("{label}: rejected with {codes:?}");
            }
            other => panic!("{label} must be infeasible, got {other:?}"),
        }
    }

    // ---- 3: the server refuses the same queries, and refuses resubmits
    // with the same diagnostics.
    let server = HuntServer::new(ServerConfig::default());
    for (label, q) in corpus {
        let first = server.hunt(q);
        assert!(matches!(first, Err(ServiceError::Infeasible(_))), "{label}");
        assert_eq!(server.hunt(q).unwrap_err(), first.unwrap_err(), "{label}");
    }
    let stats = server.cache_stats();
    println!(
        "\nserver: {} queries refused twice each, {} plans cached",
        corpus.len(),
        stats.plans
    );
    assert_eq!((stats.plans, stats.hits, stats.misses), (0, 0, 0));
    server.shutdown();

    // ---- 4: DBM bounds prune scans, predicted and measured.
    // `e1 before e2` plus e2's window caps how late e1 can end, so the
    // closure hands e1 a tighter upper bound than its (absent) window.
    let mid = store.event_at(store.event_count() / 2).start;
    let prunable = format!(
        "proc p read file f as e1\n\
         proc p write file g as e2 window [0, {mid}]\n\
         with e1 before e2\n\
         return p, f, g"
    );
    println!("\n==== EXPLAIN ANALYZE with DBM clamping ====\n");
    let (result, explained) = engine.explain_analyze(&prunable).expect("valid TBQL");
    println!("{}", explained.render());
    assert!(
        explained.entries.iter().any(|e| e.bounds.is_some()),
        "the closure must tighten e1 beyond its (absent) window"
    );
    let pruned = explained.total_rows_pruned();
    assert!(pruned > 0, "the clamp must actually cut rows here");
    assert_eq!(pruned, result.stats.total_rows_pruned());
    println!("rows pruned by feasible-range clamp: {pruned} (the hunt's stats agree)");
}
