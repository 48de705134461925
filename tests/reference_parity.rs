//! Differential test: both executors against the reference evaluator.
//!
//! Generated TBQL queries (the shared `arb_tbql` strategy) run over small
//! simulated logs — with CPR on and off, and with timestamps as simulated
//! or floored to a coarse tick so that many coincide — through the
//! single-store
//! `Engine` and through `ShardedEngine` at 3 and 17 shards, and each
//! result must equal what `threatraptor_engine::reference` — nested loops
//! over plain entities and events, sharing no code with the executors —
//! returns: the matches as a multiset of (bindings, witnessing event ids
//! per pattern), and the projected rows as a multiset.
//!
//! On a disagreement the test shrinks the case before failing: it drops
//! query parts (`distinct`, windows, temporal constraints, whole
//! patterns) and then events, for as long as the disagreement persists,
//! and reports the smallest query and log it reached.

mod common;

use common::arb_tbql;
use proptest::prelude::*;
use threatraptor::audit::entity::{Entity, EntityId};
use threatraptor::audit::event::EventId;
use threatraptor::prelude::*;
use threatraptor_audit::parser::ParsedLog;
use threatraptor_engine::{reference, EngineError};
use threatraptor_storage::EventLookup;
use threatraptor_tbql::analyze::analyze;
use threatraptor_tbql::ast::{Pattern, Query};
use threatraptor_tbql::parser::parse_query;
use threatraptor_tbql::printer::print_query;

/// A match as the executors and the reference can both state it.
type MatchKey = (Vec<(String, EntityId)>, Vec<(String, Vec<EventId>)>);

/// The matches of `result` as a sorted multiset of keys, witnessing
/// positions resolved to event ids through `store`.
fn match_keys(result: &HuntResult, store: &impl EventLookup) -> Vec<MatchKey> {
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

/// Evaluates `query` over `log` (reduced when `cpr`) with the reference
/// and every executor, and describes the first disagreement, if any.
fn disagreement(log: &ParsedLog, cpr: bool, query: &Query) -> Option<String> {
    let single = AuditStore::ingest(log, cpr);
    let entities: Vec<Entity> = single.entities.iter().cloned().collect();
    let want = reference::evaluate(&entities, &single.events, &analyze(query).ok()?);
    let (want_matches, want_rows) = (match_keys(&want, &single), sorted_rows(&want));
    let check = |name: &str,
                 got: Result<HuntResult, EngineError>,
                 keys: &dyn Fn(&HuntResult) -> Vec<MatchKey>| {
        let got = match got {
            Ok(got) => got,
            // The lint pass rejects queries it proves empty.
            Err(EngineError::Infeasible(_)) if want.matches.is_empty() => return None,
            Err(e) => return Some(format!("{name} failed: {e}")),
        };
        let got_matches = keys(&got);
        if got_matches != want_matches {
            return Some(format!(
                "{name}: {} matches, reference {}; first differing: {:?} vs {:?}",
                got_matches.len(),
                want_matches.len(),
                got_matches.iter().find(|k| !want_matches.contains(k)),
                want_matches.iter().find(|k| !got_matches.contains(k)),
            ));
        }
        (sorted_rows(&got) != want_rows)
            .then(|| format!("{name}: rows {:?}, reference {:?}", got.rows, want.rows))
    };
    let hunt = |store: &ShardedStore| ShardedEngine::with_threads(store, 1).hunt_query(query);
    check(
        "Engine",
        Engine::new(&single).hunt_query(query, ExecMode::Scheduled),
        &|r| match_keys(r, &single),
    )
    .or_else(|| {
        [3, 17].into_iter().find_map(|shards| {
            let sharded = ShardedStore::ingest(log, cpr, shards);
            check(&format!("ShardedEngine x{shards}"), hunt(&sharded), &|r| {
                match_keys(r, &sharded)
            })
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

/// Shrinks a disagreeing case: first the query, then the log's events
/// (in halving chunks), keeping every step that still disagrees. The log
/// is the reduced one, stored without further CPR, so dropping an event
/// never re-merges the others.
fn shrink(log: &ParsedLog, cpr: bool, query: &Query) -> (Query, ParsedLog, String) {
    let mut log = ParsedLog {
        entities: log.entities.clone(),
        events: AuditStore::ingest(log, cpr).events.clone(),
    };
    let mut query = query.clone();
    let mut why = disagreement(&log, false, &query).expect("the reduced log disagrees too");
    while let Some((q, w)) = simpler(&query)
        .into_iter()
        .find_map(|q| disagreement(&log, false, &q).map(|w| (q, w)))
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
            match disagreement(&fewer, false, &query) {
                Some(w) => (log, why) = (fewer, w),
                None => start += chunk,
            }
        }
        chunk /= 2;
    }
    (query, log, why)
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
            let (query, log, why) = shrink(&log, cpr, &query);
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
