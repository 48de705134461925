//! Service-layer integration tests: sharded/single execution parity over
//! randomized scenarios and queries, plus concurrent-hunt smoke tests
//! through a `HuntServer` checked against the single-store oracle.

use proptest::prelude::*;
use threatraptor::audit::sim::scenario::Scenario;
use threatraptor::prelude::*;
use threatraptor::{JobHandle, JobReport};
use threatraptor_bench::all_cases;
use threatraptor_service::ServiceError;
use threatraptor_storage::{AuditStore, ShardedStore};

/// The core parity assertion: for one scenario seed and query, execution
/// over `shards` shards returns exactly what single-store execution
/// returns — the same rows and matches, in the same order.
fn assert_parity(seed: u64, shards: usize, query: &str) {
    let sc = ScenarioBuilder::new()
        .seed(seed)
        .attacks(&[AttackKind::DataLeakage, AttackKind::PasswordCrack])
        .target_events(2_500)
        .build();
    let single = AuditStore::ingest(&sc.log, true);
    let sharded = ShardedStore::ingest(&sc.log, true, shards);

    let expected = Engine::new(&single).hunt(query).expect("single store");
    let got = ShardedEngine::new(&sharded).hunt(query).expect("sharded");

    assert_eq!(
        got.rows, expected.rows,
        "sharded rows diverged (seed {seed}, {shards} shards)"
    );
    assert_eq!(
        got.matches, expected.matches,
        "sharded matches diverged (seed {seed}, {shards} shards)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: shard/single parity holds across scenario seeds, shard
    /// counts, and the reference query corpus — including shard counts
    /// large enough that attack chains straddle shard boundaries.
    #[test]
    fn sharded_hunts_match_single_store(
        seed in 0u64..6,
        shards in 1usize..24,
        case in prop::sample::select(vec![0usize, 1]),
    ) {
        let query = all_cases()[case].reference_tbql;
        assert_parity(seed, shards, query);
    }

    /// Parity also holds for path patterns, whose multi-hop flows are the
    /// hard case for partitioned execution — in row order too, when many
    /// sources have paths and the rows are not deduplicated.
    #[test]
    fn sharded_path_hunts_match_single_store(seed in 0u64..4, shards in 2usize..32) {
        for query in [
            "proc p[\"%/bin/tar%\"] ~>(1~3)[write] file f return distinct p, f",
            "proc p[\"%/bin/%\"] ~>(1~3)[write] file f return p, f",
        ] {
            assert_parity(seed, shards, query);
        }
    }
}

#[test]
fn fig2_parity_all_shard_counts() {
    for shards in [1, 2, 3, 7, 8, 16, 64] {
        assert_parity(42, shards, threatraptor::FIG2_TBQL);
    }
}

/// A server fed `sc.raw` through the production ingest path, sealing a
/// shard every 500 events, beside the single-store oracle over the same
/// log (`ThreatRaptor::hunt`).
fn served(sc: &Scenario, workers: usize) -> (HuntServer, ThreatRaptor) {
    let server = HuntServer::new(
        ServerConfig::with_ingest(IngestConfig::with_policy(SealPolicy::events(500)))
            .workers(workers),
    );
    for chunk in LogFeed::by_events(&sc.raw, 700) {
        server.append(&chunk.expect("simulator logs are well-formed"));
    }
    (server, ThreatRaptor::from_parsed(&sc.log, true))
}

/// Concurrency smoke test: ≥8 simultaneous hunts through one server,
/// every result identical to the sequential single-store reference.
#[test]
fn eight_concurrent_hunts_agree_with_sequential() {
    let sc = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage, AttackKind::PasswordCrack])
        .target_events(4_000)
        .build();
    let (server, raptor) = served(&sc, 8);

    let cases = all_cases();
    let handles: Vec<JobHandle> = (0..16)
        .map(|i| server.submit(HuntJob::tbql(cases[i % 2].reference_tbql)))
        .collect();

    let reference: Vec<_> = (0..2)
        .map(|i| raptor.hunt(cases[i].reference_tbql).unwrap())
        .collect();
    for (i, handle) in handles.iter().enumerate() {
        let report = handle.wait();
        let result = report.outcome.as_ref().expect("hunt succeeds");
        assert_eq!(result.rows, reference[i % 2].rows, "job {i}");
        assert!(!result.is_empty());
    }
    // 16 jobs, 2 distinct plans: the cache must have absorbed the rest.
    // (Concurrent first touches of the same plan may each count a miss,
    // so bound the hits from below rather than exactly.)
    let stats = server.cache_stats();
    assert_eq!(stats.plans, 2);
    assert_eq!(stats.hits + stats.misses, 16);
    assert!(stats.hits >= 16 - 8, "cache absorbed too little: {stats:?}");
}

/// Raw threads hammering one server concurrently (beyond its own worker
/// pool): the server must be freely shareable.
#[test]
fn service_is_shareable_across_threads() {
    let sc = ScenarioBuilder::new()
        .seed(3)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(2_000)
        .build();
    let (server, raptor) = served(&sc, 2);
    let reference = raptor.hunt(threatraptor::FIG2_TBQL).unwrap();

    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                let r = server.hunt(threatraptor::FIG2_TBQL).unwrap();
                assert_eq!(r.rows, reference.rows);
            });
        }
    });
}

/// Mixed submissions keep error isolation: one failing job must not
/// poison its neighbors.
#[test]
fn failing_jobs_are_isolated() {
    let sc = ScenarioBuilder::new().seed(42).target_events(2_000).build();
    // One worker: with a parallel pool, jobs 0 and 3 may both miss the
    // cache concurrently, making the final cache_hit assertion racy.
    let (server, raptor) = served(&sc, 1);
    let handles: Vec<JobHandle> = [
        HuntJob::tbql(threatraptor::FIG2_TBQL),
        HuntJob::tbql("syntactically broken"),
        HuntJob::report("Nothing interesting happened today."),
        HuntJob::tbql(threatraptor::FIG2_TBQL),
    ]
    .into_iter()
    .map(|job| server.submit(job))
    .collect();
    let reports: Vec<JobReport> = handles.iter().map(JobHandle::wait).collect();
    let reference = raptor.hunt(threatraptor::FIG2_TBQL).unwrap();
    assert_eq!(reports[0].outcome.as_ref().unwrap().rows, reference.rows);
    assert!(matches!(reports[1].outcome, Err(ServiceError::Engine(_))));
    assert!(matches!(
        reports[2].outcome,
        Err(ServiceError::Synthesis(_))
    ));
    assert!(reports[3].outcome.is_ok());
    assert!(reports[3].cache_hit, "plan from job 0 must be reused");
}

/// The plan cache returns byte-identical results for formatting variants
/// of one query.
#[test]
fn plan_cache_normalization_preserves_results() {
    let sc = ScenarioBuilder::new().seed(42).target_events(2_000).build();
    let (server, raptor) = served(&sc, 2);

    let original = threatraptor::FIG2_TBQL;
    let reformatted = original.split_whitespace().collect::<Vec<_>>().join("  ");
    let a = server.hunt(original).unwrap();
    let b = server.hunt(&reformatted).unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.rows, raptor.hunt(original).unwrap().rows);
    assert_eq!(
        server.cache_stats().plans,
        1,
        "one plan serves both spellings"
    );
}
