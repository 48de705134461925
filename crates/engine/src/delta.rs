//! Incremental (delta) execution for standing queries.
//!
//! A follow-mode hunt re-evaluates one compiled plan against successive
//! snapshots of a growing store. [`DeltaState`] splits each snapshot at
//! its **stable frontier**, the sealed-event count [`StreamFrontier`]
//! carries: sealed positions never change or shift (compaction
//! concatenates), while everything from the previous poll's frontier
//! on — newly sealed rows and the whole open window, whose CPR runs are
//! still provisional — is *fresh* and re-scanned every poll. A poll runs
//! the executor's stage loop (`exec::run_schedule`, where the delta
//! recurrence is stated) with the retained **partial bindings** of each
//! schedule prefix whose witnesses are all stable, so it finds exactly
//! the matches holding a fresh row, in the order a full execution emits
//! them.
//!
//! Partials are bounded: once the stream's settled bound passes a
//! partial's feasible completion deadline (the next pattern's
//! DBM-tightened upper bound, clamped by `before` constraints against
//! bound patterns), no future row can join it and [`DeltaState::age`]
//! drops it.
//!
//! Endpoint resolution is memoized. The catalog is append-only and
//! entities never change, so each variable's satisfying ids are kept
//! with the catalog length they cover and extended over new entities
//! only; a bound endpoint is their intersection with the propagated ids.
//!
//! Path patterns take part like event patterns: a path row is fresh
//! when any hop is, so a row mixing stable and fresh hops is found by
//! the poll that sees its first fresh hop. Their expansion still walks
//! the whole store and filters by hop position.
//!
//! [`StreamFrontier`]: threatraptor_storage::StreamFrontier

use crate::compile::CompiledQuery;
use crate::exec::{resolve_from, run_schedule};
use crate::idset::IdSet;
use crate::join::{JoinStep, Schedule, Tuples};
use crate::result::HuntResult;
use crate::sharded::ShardedEngine;
use std::borrow::Cow;
use std::time::Instant;
use threatraptor_storage::catalog::EntityCatalog;

/// Latest start time a future row of the pattern joined at `next` could
/// have and still join tuple `i` of `partial`: the pattern's effective
/// feasible window (`bounds` when the DBM tightened it, its own `window`
/// otherwise) caps `start ≤ hi`, and each `next before b` constraint with
/// `b` already bound caps `end < start_b`, hence `start ≤ start_b − 1`.
/// `u64::MAX` when nothing bounds it (such partials are never aged).
fn completion_deadline(cq: &CompiledQuery, next: &JoinStep, partial: &Tuples, i: usize) -> u64 {
    let pat = &cq.patterns[next.pat];
    let mut deadline = u64::MAX;
    if let Some(b) = pat.bounds.or(pat.window) {
        deadline = deadline.min(b.hi);
    }
    for b in next.must_precede() {
        let (start_b, _) = partial.time(i, b);
        deadline = deadline.min(start_b.saturating_sub(1));
    }
    deadline
}

/// Per query variable (by slot), the ids of the catalog's entities of the
/// variable's kind that satisfy its filter, covering the catalog's
/// first `covered` entities. The catalog is append-only and entities
/// never change, so a poll only evaluates the entities appended since the
/// previous one.
#[derive(Debug, Clone)]
struct EndpointMemo {
    sets: Vec<IdSet>,
    covered: usize,
}

impl EndpointMemo {
    fn new(vars: usize) -> EndpointMemo {
        EndpointMemo {
            sets: vec![IdSet::default(); vars],
            covered: 0,
        }
    }

    fn clear(&mut self) {
        self.sets.fill(IdSet::default());
        self.covered = 0;
    }

    /// Extends every set over the entities `catalog` holds beyond the
    /// covered length (starting over when the catalog is shorter: it is
    /// not the one memoized). Returns the entity rows examined, summed
    /// over the variables.
    fn extend(&mut self, cq: &CompiledQuery, catalog: &EntityCatalog) -> usize {
        if catalog.len() < self.covered {
            self.clear();
        }
        let from = self.covered;
        self.covered = catalog.len();
        if from == self.covered {
            return 0;
        }
        self.sets
            .iter_mut()
            .zip(&cq.var_filters)
            .map(|(set, filter)| resolve_from(catalog, filter, from, set))
            .sum()
    }

    /// The id set of variable `slot`: the memo itself when unbound, its
    /// intersection with the propagated ids otherwise.
    fn resolve(&self, slot: usize, bound: Option<&IdSet>) -> Cow<'_, IdSet> {
        match bound {
            None => Cow::Borrowed(&self.sets[slot]),
            Some(ids) => Cow::Owned(ids.intersection(&self.sets[slot])),
        }
    }
}

/// The retained state of one standing query's incremental evaluation:
/// the pinned schedule, the stable frontier the partials cover, the
/// per-prefix partial bindings themselves, and the memoized endpoint
/// resolution.
#[derive(Debug, Clone)]
pub struct DeltaState {
    /// The execution schedule — the same one the full executor derives,
    /// so delta and full polls join in the same order.
    schedule: Schedule,
    /// `partials[i]`: every join of the schedule prefix `0..=i` whose
    /// witness positions are all below [`DeltaState::stable_events`], as
    /// flat slot tuples. Only proper prefixes are retained
    /// (`len = patterns − 1`): the full-length prefix is the match set,
    /// delivered and deduplicated downstream.
    partials: Vec<Tuples>,
    /// Global event-position bound of the stable prefix: every position
    /// below it is sealed in every snapshot this state has polled.
    stable_events: usize,
    /// Each variable's resolved entities, extended poll by poll.
    memo: EndpointMemo,
}

impl DeltaState {
    /// Empty state for a compiled query.
    pub fn new(cq: &CompiledQuery) -> DeltaState {
        let schedule = Schedule::new(cq);
        let prefixes = schedule.steps.len().saturating_sub(1);
        let partials = vec![Tuples::new(&schedule.layout); prefixes];
        DeltaState {
            schedule,
            partials,
            stable_events: 0,
            memo: EndpointMemo::new(cq.vars.len()),
        }
    }

    /// The stable frontier the retained partials cover.
    pub fn stable_events(&self) -> usize {
        self.stable_events
    }

    /// Retained partial bindings across all prefixes.
    pub fn retained(&self) -> usize {
        self.partials.iter().map(Tuples::len).sum()
    }

    /// Discards all retained state (plan or snapshot discontinuity).
    /// The next poll scans from position zero — a full re-execution
    /// through the same code path — and rebuilds the partials and the
    /// endpoint memo.
    pub fn invalidate(&mut self) {
        for p in &mut self.partials {
            p.clear();
        }
        self.stable_events = 0;
        self.memo.clear();
    }

    /// Drops every partial whose feasible completion deadline lies
    /// strictly below `settled` (the stream's settled bound: no future
    /// fresh row can start earlier). Returns the number dropped.
    pub fn age(&mut self, cq: &CompiledQuery, settled: u64) -> usize {
        let mut dropped = 0usize;
        for (held, next) in self.partials.iter_mut().zip(&self.schedule.steps[1..]) {
            let before = held.len();
            held.retain(|held, i| completion_deadline(cq, next, held, i) >= settled);
            dropped += before - held.len();
        }
        dropped
    }

    /// One incremental evaluation: returns exactly the matches that
    /// contain at least one fresh row (position ≥ the previous poll's
    /// stable frontier), in the full executor's match order, and
    /// advances the stable frontier to `stable_to` (the snapshot's
    /// sealed-event count), folding newly stable combinations into the
    /// retained partials. The result carries no projected rows: the
    /// caller projects the matches it delivers.
    ///
    /// The caller is responsible for continuity: snapshots must come
    /// from one growing store, with `stable_to` non-decreasing across
    /// polls (on regression, [`DeltaState::invalidate`] first).
    pub fn poll(
        &mut self,
        engine: &ShardedEngine<'_>,
        cq: &CompiledQuery,
        stable_to: usize,
    ) -> HuntResult {
        let t0 = Instant::now();
        let entity_rows = self.memo.extend(cq, engine.store().catalog());
        let extended = t0.elapsed();
        let carried_partials = self.retained();
        let memo = &self.memo;
        let (delta, stable, mut stats) = run_schedule(
            cq,
            &self.schedule,
            &|slot, bound| memo.resolve(slot, bound),
            &mut |pat, subjects, objects, min_pos| {
                engine.fetch_pattern(pat, subjects, objects, min_pos)
            },
            Some((&self.partials, self.stable_events, stable_to)),
        );
        for (held, new) in self.partials.iter_mut().zip(stable) {
            held.append(new);
        }
        self.stable_events = stable_to;

        // The full executor's join emits matches lexicographically by
        // per-stage scan-row order, and event-pattern scans sort by
        // first witness position — so sorting by the schedule-ordered
        // witness positions reproduces its order exactly.
        let t_join = Instant::now();
        let mut order: Vec<usize> = (0..delta.len()).collect();
        order.sort_by(|&a, &b| delta.cmp_by_witness(&self.schedule, a, b));
        let matches = delta.select(order).to_matches(cq, &self.schedule.layout);
        stats.join_elapsed += t_join.elapsed();
        stats.resolve_elapsed += extended;
        if let Some(d) = &mut stats.delta {
            d.carried_partials = carried_partials;
            d.entity_rows = entity_rows;
            d.retained_partials = self.retained();
        }
        stats.elapsed = t0.elapsed();
        HuntResult {
            columns: cq.columns(),
            rows: Vec::new(),
            matches,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::reference;
    use crate::result::Match;
    use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
    use threatraptor_storage::{SealPolicy, ShardedStore, StreamingStore};
    use threatraptor_tbql::analyze::analyze;
    use threatraptor_tbql::parser::{parse_query, FIG2_TBQL};

    fn compiled(tbql: &str) -> CompiledQuery {
        compile(&analyze(&parse_query(tbql).unwrap()).unwrap()).unwrap()
    }

    /// Largest global event position witnessing a match.
    fn max_event_pos(m: &Match) -> usize {
        m.events.values().flatten().copied().max().unwrap_or(0)
    }

    /// The reference evaluator's matches over a snapshot's entities and
    /// events.
    fn reference(snapshot: &ShardedStore, tbql: &str) -> Vec<Match> {
        let entities: Vec<_> = snapshot.catalog().iter().cloned().collect();
        let events: Vec<_> = (0..snapshot.event_count())
            .map(|pos| snapshot.event_at(pos).clone())
            .collect();
        let aq = analyze(&parse_query(tbql).unwrap()).unwrap();
        reference::evaluate(&entities, &events, &aq).matches
    }

    /// The delta recurrence over chunked ingest produces, per poll,
    /// exactly the matches that contain a fresh row — cumulatively, the
    /// reference evaluator's matches over every snapshot.
    #[test]
    fn chunked_polls_reproduce_full_execution() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(4_000)
            .build();
        let cq = compiled(FIG2_TBQL);
        let mut state = DeltaState::new(&cq);
        let mut store = StreamingStore::new(true, SealPolicy::events(350));
        store.append_batch(&sc.log.entities, &[]);

        let mut cumulative: Vec<Match> = Vec::new();
        for batch in sc.log.events.chunks(500) {
            store.append_batch(&[], batch);
            let snapshot = store.snapshot();
            let frontier = snapshot.frontier().expect("streaming snapshot");
            let engine = ShardedEngine::new(&snapshot);
            let out = state.poll(&engine, &cq, frontier.sealed_events);
            // Every delta match carries at least one fresh witness.
            let fresh_from = out.stats.delta.unwrap().fresh_from;
            assert!(out
                .matches
                .iter()
                .all(|m| max_event_pos(m) >= fresh_from || fresh_from == 0));
            for m in out.matches {
                if !cumulative.contains(&m) {
                    cumulative.push(m);
                }
            }
            // Cumulative deltas cover the reference, order-normalized
            // (a match can be re-found with an extended open-window run,
            // so compare sets, not sequences, mid-stream).
            for m in &reference(&snapshot, FIG2_TBQL) {
                assert!(cumulative.contains(m), "delta path missed a match");
            }
        }
        assert!(!cumulative.is_empty());
    }

    /// Steady state: once the sealed history stops changing, a poll
    /// scans only the fresh range — carry scans are skipped entirely.
    #[test]
    fn steady_state_scans_only_the_fresh_range() {
        let sc = ScenarioBuilder::new().seed(7).target_events(3_000).build();
        let q = "proc p read file f return p, f";
        let cq = compiled(q);
        let mut state = DeltaState::new(&cq);
        let mut store = StreamingStore::new(true, SealPolicy::events(300));
        store.append_batch(&sc.log.entities, &[]);
        let (head, tail) = sc.log.events.split_at(2_500);
        for batch in head.chunks(300) {
            store.append_batch(&[], batch);
        }
        {
            let snapshot = store.snapshot();
            let engine = ShardedEngine::new(&snapshot);
            state.poll(&engine, &cq, snapshot.frontier().unwrap().sealed_events);
        }
        // Second poll: a small tail append. Rows scanned must be on the
        // order of the delta, not the store.
        store.append_batch(&[], &tail[..100.min(tail.len())]);
        let snapshot = store.snapshot();
        let engine = ShardedEngine::new(&snapshot);
        let out = state.poll(&engine, &cq, snapshot.frontier().unwrap().sealed_events);
        let d = out.stats.delta.unwrap();
        assert!(d.fresh_from > 0, "frontier must have advanced");
        assert_eq!(d.carry_rows, 0, "single-pattern query never carries");
        assert!(
            d.fresh_rows <= snapshot.event_count() - d.fresh_from,
            "fresh scan restricted to the delta range"
        );
        assert!(
            out.stats.total_rows() < 2_000,
            "poll must not rescan history"
        );
    }

    /// Aging: a window-bounded pattern's partials die once the settled
    /// bound passes the feasible completion deadline.
    #[test]
    fn watermark_ages_out_dead_partials() {
        let sc = ScenarioBuilder::new().seed(11).target_events(2_000).build();
        let span_hi = sc.log.events.iter().map(|e| e.end).max().unwrap();
        let mid = sc.log.events[sc.log.events.len() / 2].start;
        // Two patterns sharing `p`; the second is windowed to the first
        // half of the stream, so partials waiting on it have a finite
        // deadline ≤ mid.
        let q = format!(
            "proc p read file f as e1 \
             proc p write file g as e2 window [0, {mid}] \
             with e1 before e2 \
             return p, f, g"
        );
        let cq = compiled(&q);
        let mut state = DeltaState::new(&cq);
        let mut store = StreamingStore::new(true, SealPolicy::events(200));
        store.append_batch(&sc.log.entities, &[]);
        // Chunked appends so the seal policy fires and rows stabilize.
        for batch in sc.log.events.chunks(250) {
            store.append_batch(&[], batch);
        }
        let snapshot = store.snapshot();
        assert!(snapshot.frontier().unwrap().sealed_events > 0);
        let engine = ShardedEngine::new(&snapshot);
        state.poll(&engine, &cq, snapshot.frontier().unwrap().sealed_events);
        assert!(state.retained() > 0, "the shared-var join retains partials");
        // Below every deadline: nothing ages. Past the stream: where the
        // windowed pattern is the *next* stage, everything ages.
        assert_eq!(state.age(&cq, 0), 0);
        let retained_before = state.retained();
        let dropped = state.age(&cq, span_hi + 1);
        assert!(dropped > 0, "deadline passage must drop partials");
        assert!(state.retained() < retained_before);
        // Partials whose next stage is unbounded are retained forever.
        let unbounded =
            compiled("proc p read file f as e1 proc p write file g as e2 return p, f, g");
        let mut st2 = DeltaState::new(&unbounded);
        st2.poll(
            &engine,
            &unbounded,
            snapshot.frontier().unwrap().sealed_events,
        );
        let kept = st2.retained();
        assert_eq!(st2.age(&unbounded, u64::MAX), 0);
        assert_eq!(st2.retained(), kept);
    }

    /// A poll after an append that brought no new entity evaluates no
    /// entity row: the memo already covers the whole catalog.
    #[test]
    fn polls_without_new_entities_resolve_no_entity_rows() {
        let sc = ScenarioBuilder::new().seed(5).target_events(2_000).build();
        let cq = compiled(FIG2_TBQL);
        let mut state = DeltaState::new(&cq);
        let mut store = StreamingStore::new(true, SealPolicy::events(300));
        store.append_batch(&sc.log.entities, &[]);
        let mut polls = Vec::new();
        for batch in sc.log.events.chunks(400) {
            store.append_batch(&[], batch);
            let snapshot = store.snapshot();
            let engine = ShardedEngine::new(&snapshot);
            let out = state.poll(&engine, &cq, snapshot.frontier().unwrap().sealed_events);
            assert_eq!(state.memo.covered, snapshot.catalog().len());
            polls.push(out.stats.delta.unwrap().entity_rows);
        }
        assert!(
            polls[0] >= sc.log.entities.len(),
            "the first poll resolves every entity"
        );
        assert!(polls[1..].iter().all(|&rows| rows == 0), "{polls:?}");

        // Invalidation clears the memo: the next poll resolves afresh.
        state.invalidate();
        assert_eq!(state.memo.covered, 0);
        let snapshot = store.snapshot();
        let engine = ShardedEngine::new(&snapshot);
        let out = state.poll(&engine, &cq, snapshot.frontier().unwrap().sealed_events);
        assert_eq!(out.stats.delta.unwrap().entity_rows, polls[0]);
    }

    /// The resolve timer measures the first poll's full resolution and
    /// a steady-state poll's memo lookups, the latter smaller.
    #[test]
    fn resolve_time_is_measured_and_shrinks_in_the_steady_state() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(4_000)
            .build();
        let cq = compiled(FIG2_TBQL);
        let mut state = DeltaState::new(&cq);
        let mut store = StreamingStore::new(true, SealPolicy::events(300));
        store.append_batch(&sc.log.entities, &[]);
        let mut resolve = Vec::new();
        for batch in sc.log.events.chunks(500) {
            store.append_batch(&[], batch);
            let snapshot = store.snapshot();
            let engine = ShardedEngine::new(&snapshot);
            let out = state.poll(&engine, &cq, snapshot.frontier().unwrap().sealed_events);
            resolve.push(out.stats.resolve_elapsed);
        }
        let first = resolve[0];
        assert!(first > std::time::Duration::ZERO);
        let steady = resolve[1..].iter().min().copied().unwrap();
        assert!(steady < first, "steady {steady:?} vs first {first:?}");
    }

    /// Endpoint memo vs from-scratch resolution: entity batches of random
    /// sizes grow a catalog through `EntityCatalog::extend` (so trailing
    /// generations fold), and after each batch the extended memo equals
    /// `resolve_ids` over the whole catalog, unbound and bound, for
    /// `LIKE`, `=`, disjunctions and no filter over all three entity
    /// kinds.
    mod memo {
        use super::*;
        use crate::exec::resolve_ids;
        use proptest::prelude::*;
        use threatraptor_audit::entity::{
            Entity, EntityId, FileEntity, NetworkEntity, ProcessEntity,
        };
        use threatraptor_storage::catalog::EntityCatalog;

        const QUERIES: [&str; 3] = [
            r#"proc p["%tool1%"] read file f["/data/dir1/file2"] as e1
               proc p connect ip i as e2 return p, f, i"#,
            r#"proc q read file g["%dir2%"] as e1
               proc q connect ip j[dstip = "192.168.1.3"] as e2 return q"#,
            r#"proc r[owner = "root" || pid >= 150] write file h as e1 return r, h"#,
        ];

        fn entity(id: usize, kind: u8, attr: u8) -> Entity {
            let id = EntityId(id as u32);
            match kind % 3 {
                0 => Entity::Process(ProcessEntity {
                    id,
                    pid: 100 + u32::from(attr),
                    exename: format!("/bin/tool{}", attr % 5),
                    cmdline: format!("tool{} --flag", attr % 5),
                    owner: ["root", "www"][usize::from(attr % 2)].into(),
                    start_time: u64::from(attr),
                }),
                1 => Entity::File(FileEntity {
                    id,
                    name: format!("/data/dir{}/file{}", attr % 3, attr % 7),
                }),
                _ => Entity::Network(NetworkEntity {
                    id,
                    src_ip: "10.0.0.4".into(),
                    src_port: 40_000 + u16::from(attr),
                    dst_ip: format!("192.168.1.{}", attr % 4),
                    dst_port: 443,
                    protocol: "tcp".into(),
                }),
            }
        }

        proptest! {
            #[test]
            fn extended_memo_equals_from_scratch_resolution(
                spec in prop::collection::vec((0u8..3, any::<u8>()), 1..160),
                sizes in prop::collection::vec(0usize..24, 1..16),
                bound_mask in any::<u64>(),
            ) {
                let all: Vec<Entity> = spec
                    .iter()
                    .enumerate()
                    .map(|(id, &(kind, attr))| entity(id, kind, attr))
                    .collect();
                let cqs: Vec<CompiledQuery> = QUERIES.iter().map(|q| compiled(q)).collect();
                let mut memos: Vec<EndpointMemo> =
                    cqs.iter().map(|cq| EndpointMemo::new(cq.vars.len())).collect();
                let mut catalog = EntityCatalog::new();
                let mut held = Vec::new();
                let mut next = 0;
                for size in sizes.iter().cycle().take(all.len()) {
                    if next == all.len() {
                        break;
                    }
                    let end = (next + size).min(all.len());
                    catalog.extend(&all[next..end]);
                    held.push(catalog.clone());
                    let examined: Vec<usize> = cqs
                        .iter()
                        .zip(&mut memos)
                        .map(|(cq, memo)| memo.extend(cq, &catalog))
                        .collect();
                    if next == end {
                        prop_assert!(examined.iter().all(|&n| n == 0));
                    }
                    next = end;
                    // Bound ids: a pseudo-random subset of every id so far.
                    let bound: IdSet = (0..catalog.len())
                        .filter(|i| bound_mask.rotate_left(*i as u32 % 64) & 1 == 1)
                        .map(|i| EntityId(i as u32))
                        .collect();
                    for (cq, memo) in cqs.iter().zip(&memos) {
                        prop_assert_eq!(memo.covered, catalog.len());
                        for (slot, filter) in cq.var_filters.iter().enumerate() {
                            let var = &cq.vars[slot];
                            prop_assert_eq!(
                                memo.resolve(slot, None).into_owned(),
                                resolve_ids(&catalog, filter, None),
                                "{} unbound", var
                            );
                            prop_assert_eq!(
                                memo.resolve(slot, Some(&bound)).into_owned(),
                                resolve_ids(&catalog, filter, Some(&bound)),
                                "{} bound", var
                            );
                        }
                    }
                }
                // A shorter catalog is not the one memoized: start over.
                let first = &held[0];
                for (cq, memo) in cqs.iter().zip(&mut memos) {
                    memo.extend(cq, first);
                    prop_assert_eq!(memo.covered, first.len());
                    for (slot, filter) in cq.var_filters.iter().enumerate() {
                        prop_assert_eq!(
                            memo.resolve(slot, None).into_owned(),
                            resolve_ids(first, filter, None)
                        );
                    }
                }
            }
        }
    }

    /// A path pattern joins the recurrence: over chunked snapshots a
    /// path + event query retains partials, and what it delivered and
    /// retained equals a from-zero poll of the final snapshot.
    #[test]
    fn path_and_event_query_polls_incrementally() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(4_000)
            .build();
        let cq = compiled(
            "proc p ~>(1~2)[write] file f as e1 proc p read file g as e2 \
             with e2 before e1 return p, f, g",
        );
        let mut state = DeltaState::new(&cq);
        let mut store = StreamingStore::new(true, SealPolicy::events(150));
        store.append_batch(&sc.log.entities, &[]);
        let mut delivered: Vec<Match> = Vec::new();
        let mut peak = 0;
        for batch in sc.log.events.chunks(300) {
            store.append_batch(&[], batch);
            let snapshot = store.snapshot();
            let engine = ShardedEngine::new(&snapshot);
            let out = state.poll(&engine, &cq, snapshot.frontier().unwrap().sealed_events);
            let fresh_from = out.stats.delta.unwrap().fresh_from;
            assert!(out.matches.iter().all(|m| max_event_pos(m) >= fresh_from));
            peak = peak.max(state.retained());
            for m in out.matches {
                if !delivered.contains(&m) {
                    delivered.push(m);
                }
            }
        }
        assert!(peak > 0, "the path + event join retains partials");
        let snapshot = store.snapshot();
        let engine = ShardedEngine::new(&snapshot);
        let retained = state.retained();
        state.invalidate();
        let full = state.poll(&engine, &cq, snapshot.frontier().unwrap().sealed_events);
        assert!(!full.matches.is_empty());
        assert_eq!(state.retained(), retained, "partials rebuilt");
        assert_eq!(delivered.len(), full.matches.len());
        assert!(full.matches.iter().all(|m| delivered.contains(m)));
    }

    /// Invalidation resets to a from-zero scan that rebuilds partials.
    #[test]
    fn invalidate_forces_a_full_rescan() {
        let sc = ScenarioBuilder::new().seed(3).target_events(1_500).build();
        let cq = compiled("proc p read file f as e1 proc p write file g as e2 return p, f, g");
        let mut state = DeltaState::new(&cq);
        let mut store = StreamingStore::new(true, SealPolicy::events(250));
        store.append_batch(&sc.log.entities, &[]);
        for batch in sc.log.events.chunks(300) {
            store.append_batch(&[], batch);
        }
        let snapshot = store.snapshot();
        let engine = ShardedEngine::new(&snapshot);
        let sealed = snapshot.frontier().unwrap().sealed_events;
        let first = state.poll(&engine, &cq, sealed);
        let retained = state.retained();
        state.invalidate();
        assert_eq!(state.retained(), 0);
        assert_eq!(state.stable_events(), 0);
        let again = state.poll(&engine, &cq, sealed);
        assert_eq!(again.matches, first.matches, "full rescan reproduces");
        assert_eq!(state.retained(), retained, "partials rebuilt");
    }
}
