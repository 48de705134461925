//! Differential test: both executors against the reference evaluator.
//!
//! Generated TBQL queries (the shared `arb_tbql` strategy) run over small
//! simulated logs — with CPR on and off, and with timestamps as simulated
//! or floored to a coarse tick so that many coincide — through `Engine`
//! over one shard and through `ShardedEngine` at 3 and 17 shards, and each
//! result must equal what `threatraptor_engine::reference` — nested loops
//! over plain entities and events, sharing no code with the executors —
//! returns: the matches as a multiset of (bindings, witnessing event ids
//! per pattern), and the projected rows as a multiset.
//!
//! A `FollowHunt` is checked the same way, poll by poll: the generated
//! logs are streamed into a `StreamingStore` under random chunk, seal,
//! compaction and entity-batch shapes, and after every chunk the
//! matches delivered so far must be exactly the reference's over that
//! snapshot, each delivered once; a batch `ShardedEngine` hunt over the
//! snapshot must equal the reference as well.
//!
//! One compiled query, whose clones share one endpoint memo, is checked
//! across stores: over every snapshot of a stream in order and then
//! newest first, over a second stream whose catalog has the same length
//! but different entities, and through a `DeltaState` polled on that
//! second stream. Each result must equal the reference's over its own
//! snapshot.
//!
//! On a disagreement the test shrinks the case before failing: it drops
//! query parts (`distinct`, windows, temporal constraints, whole
//! patterns) and then events, for as long as the disagreement persists,
//! and reports the smallest query and log it reached.

mod common;

use common::{arb_tbql, run_key, RunKey};
use proptest::prelude::*;
use std::collections::HashSet;
use threatraptor::audit::entity::{Entity, EntityId, EntityKind};
use threatraptor::audit::event::{Event, EventId};
use threatraptor::prelude::*;
use threatraptor_audit::parser::ParsedLog;
use threatraptor_engine::compile::compile;
use threatraptor_engine::{reference, DeltaState, EngineError};
use threatraptor_service::PlanCache;
use threatraptor_storage::CompactionPolicy;
use threatraptor_tbql::analyze::analyze;
use threatraptor_tbql::ast::{Pattern, Query};
use threatraptor_tbql::parser::parse_query;
use threatraptor_tbql::printer::print_query;

/// A match as the executors and the reference can both state it.
type MatchKey = (Vec<(String, EntityId)>, Vec<(String, Vec<EventId>)>);

/// The matches of `result` as a sorted multiset of keys, witnessing
/// positions resolved to event ids through `store`.
fn match_keys(result: &HuntResult, store: &ShardedStore) -> Vec<MatchKey> {
    let mut keys: Vec<MatchKey> = result
        .matches
        .iter()
        .map(|m| {
            let mut bindings: Vec<_> = m.bindings.iter().map(|(v, &e)| (v.clone(), e)).collect();
            bindings.sort();
            let mut events: Vec<_> = m
                .events
                .iter()
                .map(|(p, hops)| {
                    (
                        p.clone(),
                        hops.iter().map(|&pos| store.event_at(pos).id).collect(),
                    )
                })
                .collect();
            events.sort();
            (bindings, events)
        })
        .collect();
    keys.sort();
    keys
}

fn sorted_rows(result: &HuntResult) -> Vec<Vec<String>> {
    let mut rows = result.rows.clone();
    rows.sort();
    rows
}

/// Describes how an executor's result `got` (positions into `store`)
/// differs from the reference's `want`, whose match keys are
/// `want_matches`: by match keys, then by sorted rows. A query the lint
/// pass rejects as infeasible agrees when the reference finds nothing.
fn differs(
    name: &str,
    got: Result<HuntResult, EngineError>,
    store: &ShardedStore,
    want: &HuntResult,
    want_matches: &[MatchKey],
) -> Option<String> {
    let got = match got {
        Ok(got) => got,
        // The lint pass rejects queries it proves empty.
        Err(EngineError::Infeasible(_)) if want.matches.is_empty() => return None,
        Err(e) => return Some(format!("{name} failed: {e}")),
    };
    let got_matches = match_keys(&got, store);
    if got_matches != want_matches {
        return Some(format!(
            "{name}: {} matches, reference {}; first differing: {:?} vs {:?}",
            got_matches.len(),
            want_matches.len(),
            got_matches.iter().find(|k| !want_matches.contains(k)),
            want_matches.iter().find(|k| !got_matches.contains(k)),
        ));
    }
    (sorted_rows(&got) != sorted_rows(want))
        .then(|| format!("{name}: rows {:?}, reference {:?}", got.rows, want.rows))
}

/// Evaluates `query` over `log` (reduced when `cpr`) with the reference
/// and every executor, and describes the first disagreement, if any.
fn disagreement(log: &ParsedLog, cpr: bool, query: &Query) -> Option<String> {
    let single = ShardedStore::ingest(log, cpr, 1);
    let entities: Vec<Entity> = single.catalog().iter().cloned().collect();
    let want = reference::evaluate(&entities, &single.shard(0).events, &analyze(query).ok()?);
    let want_matches = match_keys(&want, &single);
    let hunt = |store: &ShardedStore| ShardedEngine::new(store).hunt_query(query);
    differs(
        "Engine",
        Engine::new(&single).hunt_query(query, ExecMode::Scheduled),
        &single,
        &want,
        &want_matches,
    )
    .or_else(|| {
        [3, 17].into_iter().find_map(|shards| {
            let sharded = ShardedStore::ingest(log, cpr, shards);
            differs(
                &format!("ShardedEngine x{shards}"),
                hunt(&sharded),
                &sharded,
                &want,
                &want_matches,
            )
        })
    })
}

/// Smaller variants of `query`: without `distinct`, without one window,
/// without one temporal constraint, without one pattern (and what only
/// it mentioned). Only variants that still analyze are kept.
fn simpler(query: &Query) -> Vec<Query> {
    let mut out = Vec::new();
    if query.ret.distinct {
        let mut q = query.clone();
        q.ret.distinct = false;
        out.push(q);
    }
    for i in 0..query.patterns.len() {
        let mut q = query.clone();
        let window = match &mut q.patterns[i] {
            Pattern::Event(p) => &mut p.window,
            Pattern::Path(p) => &mut p.window,
        };
        if window.take().is_some() {
            out.push(q);
        }
    }
    for i in 0..query.temporal.len() {
        let mut q = query.clone();
        q.temporal.remove(i);
        out.push(q);
    }
    if query.patterns.len() > 1 {
        for i in 0..query.patterns.len() {
            let mut q = query.clone();
            let gone = q.patterns.remove(i);
            if let Some(id) = gone.id() {
                q.temporal.retain(|t| t.left != id && t.right != id);
            }
            let vars: Vec<&str> = q
                .patterns
                .iter()
                .flat_map(|p| [p.subject().id.as_str(), p.object().id.as_str()])
                .collect();
            q.ret
                .items
                .retain(|item| vars.contains(&item.entity.as_str()));
            if !q.ret.items.is_empty() {
                out.push(q);
            }
        }
    }
    out.retain(|q| analyze(q).is_ok());
    out
}

/// A check of one `(log, cpr, query)` case: the first disagreement with
/// the reference, if any.
type Check<'a> = &'a dyn Fn(&ParsedLog, bool, &Query) -> Option<String>;

/// Shrinks a case `check` finds disagreeing: first the query, then the
/// log's events (in halving chunks), keeping every step that still
/// disagrees. The log is the reduced one, stored without further CPR,
/// so dropping an event never re-merges the others — unless only the
/// unreduced log with CPR disagrees, which is then kept. Returns the
/// shrunk query, log and `cpr`, and the last disagreement.
fn shrink(
    log: &ParsedLog,
    cpr: bool,
    query: &Query,
    check: Check,
) -> (Query, ParsedLog, bool, String) {
    let reduced = ParsedLog {
        entities: log.entities.clone(),
        events: ShardedStore::ingest(log, cpr, 1).shard(0).events.clone(),
    };
    let (mut log, cpr, mut why) = match check(&reduced, false, query) {
        Some(why) => (reduced, false, why),
        None => (
            log.clone(),
            cpr,
            check(log, cpr, query).expect("the case disagrees"),
        ),
    };
    let mut query = query.clone();
    while let Some((q, w)) = simpler(&query)
        .into_iter()
        .find_map(|q| check(&log, cpr, &q).map(|w| (q, w)))
    {
        (query, why) = (q, w);
    }
    let mut chunk = log.events.len().div_ceil(2);
    while chunk > 0 {
        let mut start = 0;
        while start < log.events.len() {
            let mut fewer = log.clone();
            fewer
                .events
                .drain(start..(start + chunk).min(fewer.events.len()));
            match check(&fewer, cpr, &query) {
                Some(w) => (log, why) = (fewer, w),
                None => start += chunk,
            }
        }
        chunk /= 2;
    }
    (query, log, cpr, why)
}

/// The events of `log` and the entities they touch, one per line.
fn describe(log: &ParsedLog) -> String {
    let mut out = String::new();
    for ev in &log.events {
        let name = |id: EntityId| {
            let e = &log.entities[id.index()];
            ["exename", "name", "dstip"]
                .iter()
                .find_map(|a| e.attr(a))
                .unwrap_or_default()
        };
        out.push_str(&format!(
            "  {} {}({}) {} {}({}) [{}, {}]\n",
            ev.id,
            ev.subject.0,
            name(ev.subject),
            ev.op,
            ev.object.0,
            name(ev.object),
            ev.start,
            ev.end
        ));
    }
    out
}

/// Clock tick of the coarse logs: 1 ms, about ten events of a 600-event
/// log.
const TICK: u64 = 1_000_000;

/// A simulated log of about 600 events holding the data-leakage attack;
/// when `coarse`, every timestamp is floored to a [`TICK`], which keeps
/// the event order but makes ends meet starts, so `before` (strict) and
/// a path's next hop (`start ≥` the previous `end`) are tested on ties.
fn scenario_log(seed: u64, coarse: bool) -> ParsedLog {
    let mut log = ScenarioBuilder::new()
        .seed(seed)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(600)
        .build()
        .log;
    if coarse {
        for ev in &mut log.events {
            ev.start -= ev.start % TICK;
            ev.end -= ev.end % TICK;
        }
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn executors_agree_with_the_reference(
        seed in 0u64..6,
        cpr in any::<bool>(),
        coarse in any::<bool>(),
        src in arb_tbql(),
    ) {
        let log = scenario_log(seed, coarse);
        let query = parse_query(&src).expect("generated queries parse");
        if disagreement(&log, cpr, &query).is_some() {
            let (query, log, cpr, why) = shrink(&log, cpr, &query, &disagreement);
            prop_assert!(
                false,
                "seed {} cpr {} coarse {}: {}\nshrunk query:\n{}\nshrunk log ({} events):\n{}",
                seed, cpr, coarse, why, print_query(&query), log.events.len(), describe(&log)
            );
        }
    }
}

/// The hand-written corpus beside the generated one: the paper's Fig. 2
/// query and a path query over a log holding the attack.
#[test]
fn fig2_and_a_path_query_agree_with_the_reference() {
    let log = scenario_log(42, false);
    for src in [
        threatraptor::FIG2_TBQL,
        "proc p[\"%/bin/tar%\"] ~>(1~3)[write] file f return distinct p, f",
    ] {
        let query = parse_query(src).unwrap();
        for cpr in [false, true] {
            assert_eq!(disagreement(&log, cpr, &query), None, "{src}");
        }
    }
}

/// How a log is streamed into a `StreamingStore`: events per chunk; the
/// seal policy's event threshold (`None`: manual) plus an explicit seal
/// after chunk `k` when bit `k mod 32` of `seals` is set; whether sealed
/// shards compact down to two; and how far ahead of the events the
/// entities arrive (each chunk brings the entities its events need and
/// at least `entities_ahead` more, so catalog generations vary in size).
#[derive(Debug, Clone, Copy)]
struct StreamShape {
    chunk: usize,
    seal_every: Option<usize>,
    seals: u32,
    compact: bool,
    entities_ahead: usize,
}

/// Streams `log` into a store shaped by `shape`, polling a `FollowHunt`
/// of `query` after every chunk, and describes the first poll `k` at
/// which delivery disagrees with `reference::evaluate` over snapshot
/// `k`'s entities and events: a match delivered at poll `k` the
/// reference lacks, a reference match not delivered by poll `k`, or a
/// match delivered twice.
fn follow_disagreement(
    log: &ParsedLog,
    cpr: bool,
    query: &Query,
    shape: StreamShape,
) -> Option<String> {
    let aq = analyze(query).ok()?;
    let plan = match PlanCache::new().plan(&print_query(query)) {
        Ok((plan, _)) => plan,
        Err(EngineError::Infeasible(_)) => {
            let store = ShardedStore::ingest(log, cpr, 1);
            let entities: Vec<Entity> = store.catalog().iter().cloned().collect();
            let want = reference::evaluate(&entities, &store.shard(0).events, &aq);
            return (!want.matches.is_empty())
                .then(|| "planning rejected a query with matches".into());
        }
        Err(e) => return Some(format!("planning failed: {e}")),
    };
    let policy = shape
        .seal_every
        .map_or_else(SealPolicy::manual, SealPolicy::events);
    let mut store = StreamingStore::new(cpr, policy);
    if shape.compact {
        store = store.with_compaction(CompactionPolicy::max_shards(2));
    }
    let mut hunt = FollowHunt::new(plan, ExecMode::Scheduled, 1);
    let mut delivered: HashSet<RunKey> = HashSet::new();
    let mut entities_in = 0;
    for (k, batch) in log.events.chunks(shape.chunk).enumerate() {
        let needed = batch
            .iter()
            .map(|e| e.subject.index().max(e.object.index()) + 1)
            .max()
            .unwrap_or(0);
        let upto = needed
            .max(entities_in + shape.entities_ahead)
            .min(log.entities.len());
        store.append_batch(&log.entities[entities_in..upto], batch);
        entities_in = upto;
        if shape.seals >> (k % 32) & 1 == 1 {
            store.seal();
        }
        let snapshot = store.snapshot();
        let seen = hunt.result().map_or(0, |r| r.matches.len());
        if let Err(e) = hunt.poll(&snapshot) {
            return Some(format!("poll {k} failed: {e}"));
        }
        let entities: Vec<Entity> = snapshot.catalog().iter().cloned().collect();
        let events: Vec<Event> = (0..snapshot.event_count())
            .map(|pos| snapshot.event_at(pos).clone())
            .collect();
        let reference = reference::evaluate(&entities, &events, &aq);
        // The batch executor over the same snapshot agrees with the
        // reference too.
        if let Some(why) = differs(
            "ShardedEngine",
            ShardedEngine::new(&snapshot).hunt_query(query),
            &snapshot,
            &reference,
            &match_keys(&reference, &snapshot),
        ) {
            return Some(format!("poll {k}: {why}"));
        }
        let want: HashSet<RunKey> = reference
            .matches
            .iter()
            .map(|m| run_key(m, &snapshot))
            .collect();
        for m in &hunt.result().expect("polled").matches[seen..] {
            let key = run_key(m, &snapshot);
            if !want.contains(&key) {
                return Some(format!(
                    "poll {k} delivered a match the reference lacks: {key:?}"
                ));
            }
            if !delivered.insert(key.clone()) {
                return Some(format!("poll {k} delivered a match again: {key:?}"));
            }
        }
        if let Some(key) = want.iter().find(|key| !delivered.contains(key)) {
            return Some(format!(
                "poll {k} has not delivered a reference match: {key:?}"
            ));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Delta follow, poll by poll: a `FollowHunt` polled after every
    /// chunk of a streamed log delivers exactly the reference's matches
    /// over each snapshot, each once (path queries included, which run
    /// through the same delta recurrence), and a batch hunt over each
    /// snapshot returns the reference's matches and rows.
    #[test]
    fn follow_polls_agree_with_the_reference(
        seed in 0u64..6,
        cpr in any::<bool>(),
        coarse in any::<bool>(),
        src in arb_tbql(),
        chunk in 10usize..120,
        seal_every in prop::sample::select(vec![None, Some(20usize), Some(60), Some(150)]),
        seals in any::<u32>(),
        compact in any::<bool>(),
        entities_ahead in prop::sample::select(vec![0usize, 7, 60, usize::MAX / 2]),
    ) {
        let log = scenario_log(seed, coarse);
        let query = parse_query(&src).expect("generated queries parse");
        let shape = StreamShape { chunk, seal_every, seals, compact, entities_ahead };
        let check = |log: &ParsedLog, cpr: bool, query: &Query| {
            follow_disagreement(log, cpr, query, shape)
        };
        if check(&log, cpr, &query).is_some() {
            let (query, log, cpr, why) = shrink(&log, cpr, &query, &check);
            prop_assert!(
                false,
                "seed {} cpr {} coarse {} {:?}: {}\nshrunk query:\n{}\nshrunk log ({} events):\n{}",
                seed, cpr, coarse, shape, why, print_query(&query), log.events.len(), describe(&log)
            );
        }
    }
}

/// The reference evaluator's result over a snapshot's entities and
/// events.
fn reference_over(snapshot: &ShardedStore, query: &Query) -> HuntResult {
    let entities: Vec<Entity> = snapshot.catalog().iter().cloned().collect();
    let events: Vec<Event> = (0..snapshot.event_count())
        .map(|pos| snapshot.event_at(pos).clone())
        .collect();
    reference::evaluate(&entities, &events, &analyze(query).expect("analyzes"))
}

/// `log` with every entity's attributes moved to the next entity of its
/// kind: the same ids, kinds and events, but filters now match other
/// ids.
fn rotated(log: &ParsedLog) -> ParsedLog {
    let mut entities = log.entities.clone();
    for kind in [EntityKind::Process, EntityKind::File, EntityKind::Network] {
        let ids: Vec<usize> = (0..entities.len())
            .filter(|&i| log.entities[i].kind() == kind)
            .collect();
        for (k, &i) in ids.iter().enumerate() {
            let mut moved = log.entities[ids[(k + 1) % ids.len()]].clone();
            let id = EntityId(i as u32);
            match &mut moved {
                Entity::Process(p) => p.id = id,
                Entity::File(f) => f.id = id,
                Entity::Network(n) => n.id = id,
            }
            entities[i] = moved;
        }
    }
    ParsedLog {
        entities,
        events: log.events.clone(),
    }
}

/// Streams `log` in chunks of `chunk` events, each bringing the entities
/// its events need and sealed at once (CPR may keep its last run open),
/// and returns every snapshot, the last one holding every entity.
fn sealed_snapshots(log: &ParsedLog, cpr: bool, chunk: usize) -> Vec<ShardedStore> {
    let mut store = StreamingStore::new(cpr, SealPolicy::manual());
    let mut entities_in = 0;
    let mut snapshots = Vec::new();
    for batch in log.events.chunks(chunk) {
        let needed = batch
            .iter()
            .map(|e| e.subject.index().max(e.object.index()) + 1)
            .max()
            .unwrap_or(0)
            .max(entities_in);
        store.append_batch(&log.entities[entities_in..needed], batch);
        entities_in = needed;
        store.seal();
        snapshots.push(store.snapshot());
    }
    store.append_batch(&log.entities[entities_in..], &[]);
    store.seal();
    snapshots.push(store.snapshot());
    snapshots
}

/// Runs one compiled query, one memo, over (a) every snapshot of a
/// stream of `log` in order, (b) the same snapshots newest first, (c) a
/// batch store of the rotated log, whose catalog has the same length but
/// different entities, and (d) a `DeltaState` polled on every snapshot
/// of a stream of the rotated log, each poll returning the reference's
/// matches that hold a fresh row; describes the first result that
/// differs from the reference's over its snapshot.
fn memo_disagreement(log: &ParsedLog, cpr: bool, query: &Query, chunk: usize) -> Option<String> {
    let aq = analyze(query).ok()?;
    let cq = match compile(&aq) {
        Ok(cq) => cq,
        Err(EngineError::Infeasible(_)) => return None,
        Err(e) => return Some(format!("compile failed: {e}")),
    };
    let check = |name: &str, snapshot: &ShardedStore| {
        let want = reference_over(snapshot, query);
        let got = ShardedEngine::new(snapshot).execute(&cq, ExecMode::Scheduled);
        differs(name, got, snapshot, &want, &match_keys(&want, snapshot))
    };
    let snapshots = sealed_snapshots(log, cpr, chunk);
    for (k, snapshot) in snapshots.iter().enumerate() {
        if let Some(why) = check(&format!("(a) snapshot {k}"), snapshot) {
            return Some(why);
        }
    }
    for (k, snapshot) in snapshots.iter().enumerate().rev() {
        if let Some(why) = check(&format!("(b) snapshot {k}, newest first"), snapshot) {
            return Some(why);
        }
    }
    let other = rotated(log);
    let batch = ShardedStore::ingest(&other, cpr, 3);
    if batch.catalog().len() != snapshots.last()?.catalog().len() {
        return Some("the rotated catalog differs in length".into());
    }
    if let Some(why) = check("(c) rotated batch store", &batch) {
        return Some(why);
    }
    let mut state = DeltaState::new(&cq);
    for (k, snapshot) in sealed_snapshots(&other, cpr, chunk).iter().enumerate() {
        let engine = ShardedEngine::new(snapshot);
        let out = state.poll(&engine, &cq, snapshot.frontier()?.sealed_events, |_| true);
        // A poll returns exactly the matches holding a fresh row.
        let fresh_from = out.stats.delta?.fresh_from;
        let mut want = reference_over(snapshot, query);
        want.matches
            .retain(|m| m.events.values().flatten().any(|&pos| pos >= fresh_from));
        let (got, want) = (match_keys(&out, snapshot), match_keys(&want, snapshot));
        if got != want {
            return Some(format!(
                "(d) poll {k}: {} matches, reference {}",
                got.len(),
                want.len()
            ));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One plan's memo, shared across every snapshot of one stream in
    /// either order, a second stream of equal catalog length and a delta
    /// poll over it, never changes a result.
    #[test]
    fn one_memo_agrees_with_the_reference_across_stores(
        seed in 0u64..6,
        cpr in any::<bool>(),
        coarse in any::<bool>(),
        src in arb_tbql(),
        chunk in 40usize..250,
    ) {
        let log = scenario_log(seed, coarse);
        let query = parse_query(&src).expect("generated queries parse");
        let check = |log: &ParsedLog, cpr: bool, query: &Query| {
            memo_disagreement(log, cpr, query, chunk)
        };
        if check(&log, cpr, &query).is_some() {
            let (query, log, cpr, why) = shrink(&log, cpr, &query, &check);
            prop_assert!(
                false,
                "seed {} cpr {} coarse {} chunk {}: {}\nshrunk query:\n{}\nshrunk log ({} events):\n{}",
                seed, cpr, coarse, chunk, why, print_query(&query), log.events.len(), describe(&log)
            );
        }
    }
}
