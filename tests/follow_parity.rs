//! Delta/full parity for follow-mode hunts: incremental evaluation must
//! be indistinguishable from full re-execution.
//!
//! The incremental path's contract: for any scenario streamed
//! chunk-by-chunk under any seal policy, a `FollowHunt` delivers, **poll
//! by poll**, byte-identical rows and match counts to an oracle that
//! re-executes the plan from scratch each epoch and delivers the matches
//! whose run identity it has not delivered before — and the final
//! running results (matches, rows, columns) are byte-identical too.
//! Additionally, retained state is watermark-bounded: once the stream's
//! settled bound passes a window-bounded query's feasible range, the
//! retained partials, delivered-match witnesses, and distinct-row
//! history all drop to zero.

mod common;

use common::{run_key, RunKey};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
use threatraptor_engine::{ExecMode, Match, ShardedEngine};
use threatraptor_service::{CachedPlan, FollowHunt, PlanCache};
use threatraptor_storage::{SealPolicy, ShardedStore, StreamingStore};
use threatraptor_tbql::parser::FIG2_TBQL;

fn hunt(tbql: &str) -> FollowHunt {
    let (plan, _) = PlanCache::new().plan(tbql).unwrap();
    FollowHunt::new(plan, ExecMode::Scheduled, 1)
}

/// The oracle: a full execution of the plan on every changed snapshot,
/// delivering the matches whose run identity is not in a never-aged set.
/// It renders their rows itself, from each match's bindings and
/// `Entity::attr`, sharing no projection code with the engine; for
/// `distinct` queries it sorts and deduplicates them, then drops every
/// row delivered before.
struct Oracle {
    plan: Arc<CachedPlan>,
    seen: HashSet<RunKey>,
    known: HashSet<Vec<String>>,
    last_raw: Option<usize>,
    columns: Vec<String>,
    matches: Vec<Match>,
    rows: Vec<Vec<String>>,
}

impl Oracle {
    fn new(tbql: &str) -> Oracle {
        Oracle {
            plan: PlanCache::new().plan(tbql).unwrap().0,
            seen: HashSet::new(),
            known: HashSet::new(),
            last_raw: None,
            columns: Vec::new(),
            matches: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// One poll: `(new matches, new rows, unchanged)`.
    fn poll(&mut self, snapshot: &ShardedStore) -> (usize, Vec<Vec<String>>, bool) {
        let raw = snapshot.reduction().before;
        if self.last_raw.replace(raw) == Some(raw) {
            return (0, Vec::new(), true);
        }
        let cq = &self.plan.compiled;
        let engine = ShardedEngine::new(snapshot);
        let full = engine.execute(cq, ExecMode::Scheduled).unwrap();
        let fresh: Vec<Match> = full
            .matches
            .into_iter()
            .filter(|m| self.seen.insert(run_key(m, snapshot)))
            .collect();
        let mut rows: Vec<Vec<String>> = fresh
            .iter()
            .map(|m| {
                cq.returns
                    .iter()
                    .map(|(var, attr)| {
                        let entity = snapshot.entity(m.bindings[var]);
                        entity.attr(attr).unwrap_or_else(|| "<none>".into())
                    })
                    .collect()
            })
            .collect();
        if cq.distinct {
            rows.sort();
            rows.dedup();
            rows.retain(|r| self.known.insert(r.clone()));
        }
        self.columns = cq.returns.iter().map(|(v, a)| format!("{v}.{a}")).collect();
        self.rows.extend(rows.iter().cloned());
        let new_matches = fresh.len();
        self.matches.extend(fresh);
        (new_matches, rows, false)
    }
}

/// Streams a scenario chunk-by-chunk, polling a follow hunt and the
/// oracle on identical snapshots, asserting per-poll and final
/// byte-identity.
fn assert_follow_parity(seed: u64, chunk: usize, policy: SealPolicy, tbql: &str) {
    let sc = ScenarioBuilder::new()
        .seed(seed)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(2_500)
        .build();
    let mut store = StreamingStore::new(true, policy);
    store.append_batch(&sc.log.entities, &[]);

    let mut incremental = hunt(tbql);
    let mut oracle = Oracle::new(tbql);
    let mut delta_polls = 0usize;
    for batch in sc.log.events.chunks(chunk) {
        store.append_batch(&[], batch);
        let snapshot = store.snapshot();
        let got = incremental.poll(&snapshot).unwrap();
        let (new_matches, rows, unchanged) = oracle.poll(&snapshot);
        // Byte-identical delivery, poll by poll.
        assert_eq!(got.new_matches, new_matches, "seed {seed} chunk {chunk}");
        assert_eq!(got.rows, rows, "seed {seed} chunk {chunk}");
        assert_eq!(got.unchanged, unchanged);
        if got.delta.is_some() {
            delta_polls += 1;
        }
    }
    // Every changed poll, path plans included, runs incrementally.
    assert_eq!(delta_polls, incremental.polls(), "delta path must engage");

    // Byte-identical running results.
    let got = incremental.result().unwrap();
    assert_eq!(got.columns, oracle.columns);
    assert_eq!(got.rows, oracle.rows);
    assert_eq!(got.matches, oracle.matches, "running matches must agree");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: delta/full parity across seeds, chunk sizes, seal
    /// thresholds, and the query corpus — multi-pattern with shared
    /// variables and `before` (Fig. 2), single pattern, `distinct`
    /// projection, and a path query.
    #[test]
    fn delta_polls_match_full_reexecution(
        seed in 0u64..4,
        chunk in prop::sample::select(vec![150usize, 500]),
        seal_every in prop::sample::select(vec![200usize, 700, usize::MAX]),
        case in 0usize..4,
    ) {
        let policy = if seal_every == usize::MAX {
            SealPolicy::manual()
        } else {
            SealPolicy::events(seal_every)
        };
        let query = [
            FIG2_TBQL,
            "proc p read file f return p, f",
            "proc p[\"%/bin/tar%\"] read file f[\"%/etc/passwd%\"] as e1\nreturn distinct p, f",
            "proc p[\"%/bin/tar%\"] ~>(1~2)[write] file f[\"%/tmp/upload.tar%\"] as pp1\nreturn p, f",
        ][case];
        assert_follow_parity(seed, chunk, policy, query);
    }
}

/// Watermark-bounded state: a query whose every pattern is windowed to
/// the first half of the stream drains once the settled bound passes the
/// window — retained partials, dedup witnesses, and distinct-row history
/// all hit zero, while the delivered results still match the oracle. One
/// query joins two event patterns, the other a path and an event pattern.
#[test]
fn retained_state_drains_after_watermark_passage() {
    let sc = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(4_000)
        .build();
    let mid = sc.log.events[sc.log.events.len() / 2].start;
    let queries = [
        format!(
            "proc p read file f as e1 window [0, {mid}]\n\
             proc p write file g as e2 window [0, {mid}]\n\
             return distinct p, f, g"
        ),
        format!(
            "proc p ~>(1~2)[write] file f as e1 window [0, {mid}]\n\
             proc p read file g as e2 window [0, {mid}]\n\
             with e2 before e1\n\
             return distinct p, f, g"
        ),
    ];
    for tbql in &queries {
        let mut store = StreamingStore::new(true, SealPolicy::events(150));
        store.append_batch(&sc.log.entities, &[]);

        let mut incremental = hunt(tbql);
        let mut oracle = Oracle::new(tbql);
        let mut peak_partials = 0usize;
        let mut peak_dedup = 0usize;
        for batch in sc.log.events.chunks(300) {
            store.append_batch(&[], batch);
            let snapshot = store.snapshot();
            let got = incremental.poll(&snapshot).unwrap();
            let (new_matches, rows, _) = oracle.poll(&snapshot);
            assert_eq!(got.rows, rows, "parity under aging: {tbql}");
            assert_eq!(got.new_matches, new_matches);
            peak_partials = peak_partials.max(incremental.retained_partials());
            peak_dedup = peak_dedup.max(incremental.dedup_entries());
        }
        assert_eq!(incremental.result().unwrap().matches, oracle.matches);

        // The hunt held real state mid-stream…
        assert!(peak_dedup > 0, "matches must have been delivered: {tbql}");
        assert!(peak_partials > 0, "the join must retain partials: {tbql}");
        // …and the watermark passing the window [0, mid] drained all of it.
        let settled = store
            .snapshot()
            .frontier()
            .expect("streaming snapshot")
            .settled_before();
        assert!(
            settled > mid,
            "scenario must advance the settled bound past the window \
             (settled {settled} ≤ mid {mid})"
        );
        assert_eq!(incremental.retained_partials(), 0, "partials must drain");
        assert_eq!(incremental.dedup_entries(), 0, "seen witnesses must drain");
        assert_eq!(incremental.known_rows(), 0, "distinct history must drain");
    }
}

/// Fallback accounting: the first poll is a from-zero scan, steady-state
/// polls are not, and a snapshot discontinuity (a different store)
/// invalidates retained state and falls back exactly once.
#[test]
fn discontinuity_invalidates_and_falls_back() {
    let sc = ScenarioBuilder::new().seed(7).target_events(2_000).build();
    let q = "proc p read file f return p, f";
    let mut store = StreamingStore::new(true, SealPolicy::events(200));
    store.append_batch(&sc.log.entities, &[]);
    let mut h = hunt(q);

    let mut fresh_froms = Vec::new();
    for batch in sc.log.events.chunks(400) {
        store.append_batch(&[], batch);
        let d = h.poll(&store.snapshot()).unwrap();
        fresh_froms.push(d.delta.expect("delta path").fresh_from);
    }
    assert_eq!(fresh_froms[0], 0, "first poll scans from zero");
    assert!(
        fresh_froms[1..].iter().all(|&f| f > 0),
        "steady-state polls scan only the fresh range: {fresh_froms:?}"
    );

    // A *smaller* unrelated store: raw high-water mark and sealed
    // frontier both regress.
    let sc2 = ScenarioBuilder::new().seed(8).target_events(500).build();
    let mut other = StreamingStore::new(true, SealPolicy::events(100));
    other.append_batch(&sc2.log.entities, &[]);
    other.append_batch(&[], &sc2.log.events);
    let d = h.poll(&other.snapshot()).unwrap();
    assert_eq!(
        d.delta.expect("delta path").fresh_from,
        0,
        "discontinuity must force a from-zero rescan"
    );
}
