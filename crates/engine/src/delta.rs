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
//! them. The caller's keep-predicate sees each found match as a
//! borrowed slot tuple ([`TupleView`]), and only the kept ones are
//! projected and materialized as [`Match`](crate::Match)es, by the step
//! that ends a full hunt too: a standing query re-finds every
//! open-window match each poll and keeps only the undelivered ones.
//!
//! Partials are bounded: once the stream's settled bound passes a
//! partial's feasible completion deadline (the next pattern's
//! DBM-tightened upper bound, clamped by `before` constraints against
//! bound patterns), no future row can join it and [`DeltaState::age`]
//! drops it.
//!
//! Endpoint resolution is memoized on the plan, not here: a poll
//! resolves through the compiled query's [`ResolveMemo`], which every
//! hunt and poll of the plan shares and which extends each variable's
//! ids over the entities appended since its last use only.
//!
//! Path patterns take part like event patterns: a path row is fresh
//! when any hop is, so a row mixing stable and fresh hops is found by
//! the poll that sees its first fresh hop. Their expansion still walks
//! the whole store and filters by hop position.
//!
//! [`StreamFrontier`]: threatraptor_storage::StreamFrontier
//! [`ResolveMemo`]: crate::exec::ResolveMemo

use crate::compile::CompiledQuery;
use crate::exec::{finish, run_schedule};
use crate::join::{JoinStep, Layout, Schedule, Tuples};
use crate::result::HuntResult;
use crate::sharded::ShardedEngine;
use std::time::Instant;
use threatraptor_audit::entity::EntityId;

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

/// The retained state of one standing query's incremental evaluation:
/// the pinned schedule, the stable frontier the partials cover and the
/// per-prefix partial bindings themselves.
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
    /// through the same code path — and rebuilds the partials. Endpoint
    /// resolution is not reset: it lives on the plan, keyed by the
    /// catalog's lineage, so it stays valid for whatever store the next
    /// poll reads.
    pub fn invalidate(&mut self) {
        for p in &mut self.partials {
            p.clear();
        }
        self.stable_events = 0;
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

    /// One incremental evaluation: finds exactly the matches that
    /// contain at least one fresh row (position ≥ the previous poll's
    /// stable frontier), in the full executor's match order, and
    /// advances the stable frontier to `stable_to` (the snapshot's
    /// sealed-event count), folding newly stable combinations into the
    /// retained partials.
    ///
    /// `keep` sees each found match as a [`TupleView`], in that order,
    /// and only the matches it accepts are projected and materialized
    /// into the result, through the same final step as a full hunt's — a
    /// standing query re-finds every open-window match each poll and
    /// delivers only the new ones. The rows are those of the kept matches
    /// alone: a `distinct` query's are deduplicated and sorted within
    /// this poll.
    ///
    /// The caller is responsible for continuity: snapshots must come
    /// from one growing store, with `stable_to` non-decreasing across
    /// polls (on regression, [`DeltaState::invalidate`] first).
    pub fn poll(
        &mut self,
        engine: &ShardedEngine<'_>,
        cq: &CompiledQuery,
        stable_to: usize,
        mut keep: impl FnMut(TupleView<'_>) -> bool,
    ) -> HuntResult {
        let t0 = Instant::now();
        let carried_partials = self.retained();
        let (delta, stable, mut stats) = run_schedule(
            cq,
            &self.schedule,
            engine.store().catalog(),
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
        let t = Instant::now();
        let mut order: Vec<usize> = (0..delta.len()).collect();
        order.sort_by(|&a, &b| delta.cmp_by_witness(&self.schedule, a, b));
        stats.join_elapsed += t.elapsed();
        let t = Instant::now();
        let layout = &self.schedule.layout;
        order.retain(|&i| {
            keep(TupleView {
                tuples: &delta,
                layout,
                i,
            })
        });
        let kept = delta.select(order);
        stats.materialize_elapsed += t.elapsed();
        if let Some(d) = &mut stats.delta {
            d.carried_partials = carried_partials;
            d.retained_partials = self.retained();
        }
        let mut result = finish(cq, layout, &kept, engine.store().catalog(), stats);
        result.stats.elapsed = t0.elapsed();
        result
    }
}

/// One match a [`DeltaState::poll`] found, by slot: the entity bound to
/// each variable slot (an index into [`CompiledQuery::vars`]) and the
/// witnessing event positions of each pattern slot (an index into
/// [`CompiledQuery::patterns`]), borrowed from the poll's tuples.
#[derive(Debug, Clone, Copy)]
pub struct TupleView<'a> {
    tuples: &'a Tuples,
    layout: &'a Layout,
    i: usize,
}

impl<'a> TupleView<'a> {
    /// The entity bound to variable slot `var` (a complete match binds
    /// every variable).
    pub fn entity(&self, var: usize) -> EntityId {
        self.tuples.ent(self.i, var)
    }

    /// The global event positions witnessing pattern slot `pat`: one for
    /// an event pattern, one per hop for a path pattern.
    pub fn witness(&self, pat: usize) -> &'a [usize] {
        self.tuples.witness(self.layout, self.i, pat)
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
            let out = state.poll(&engine, &cq, frontier.sealed_events, |_| true);
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
            state.poll(
                &engine,
                &cq,
                snapshot.frontier().unwrap().sealed_events,
                |_| true,
            );
        }
        // Second poll: a small tail append. Rows scanned must be on the
        // order of the delta, not the store.
        store.append_batch(&[], &tail[..100.min(tail.len())]);
        let snapshot = store.snapshot();
        let engine = ShardedEngine::new(&snapshot);
        let out = state.poll(
            &engine,
            &cq,
            snapshot.frontier().unwrap().sealed_events,
            |_| true,
        );
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
        state.poll(
            &engine,
            &cq,
            snapshot.frontier().unwrap().sealed_events,
            |_| true,
        );
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
            |_| true,
        );
        let kept = st2.retained();
        assert_eq!(st2.age(&unbounded, u64::MAX), 0);
        assert_eq!(st2.retained(), kept);
    }

    /// A poll after an append that brought no new entity evaluates only
    /// the variables it reaches for the first time, each over every
    /// entity of its kind once: the plan's memo already covers the whole
    /// catalog. Invalidation keeps the memo, so a from-zero re-poll
    /// evaluates none.
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
            let out = state.poll(
                &engine,
                &cq,
                snapshot.frontier().unwrap().sealed_events,
                |_| true,
            );
            assert_eq!(cq.memo().covered(), snapshot.catalog().len());
            polls.push(out.stats.entity_rows);
        }
        // Filling variable `v` evaluates every entity of its kind.
        let of_kind = |v: usize| {
            let kind = cq.var_filters[v].kind;
            sc.log.entities.iter().filter(|e| e.kind() == kind).count()
        };
        let smallest = (0..cq.vars.len()).map(of_kind).min().unwrap();
        assert!(polls[0] >= smallest, "the first poll fills its variables");
        let every_variable: usize = (0..cq.vars.len()).map(of_kind).sum();
        let total: usize = polls.iter().sum();
        assert!(
            total <= every_variable,
            "no entity is evaluated twice for one variable: {polls:?}"
        );
        assert_eq!(polls.last(), Some(&0), "{polls:?}");

        // Invalidation drops the partials, not the plan's memo.
        state.invalidate();
        let snapshot = store.snapshot();
        let engine = ShardedEngine::new(&snapshot);
        let out = state.poll(
            &engine,
            &cq,
            snapshot.frontier().unwrap().sealed_events,
            |_| true,
        );
        assert_eq!(out.stats.entity_rows, 0);
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
            let out = state.poll(
                &engine,
                &cq,
                snapshot.frontier().unwrap().sealed_events,
                |_| true,
            );
            resolve.push(out.stats.resolve_elapsed);
        }
        let first = resolve[0];
        assert!(first > std::time::Duration::ZERO);
        let steady = resolve[1..].iter().min().copied().unwrap();
        assert!(steady < first, "steady {steady:?} vs first {first:?}");
    }

    /// The plan's memo vs from-scratch resolution: entity batches of
    /// random sizes grow a catalog through `EntityCatalog::extend` (so
    /// trailing generations fold), and one plan resolves over every
    /// snapshot in order, then over the held snapshots in reverse
    /// (shorter catalogs of the lineage), then over another lineage of
    /// the same length with different entities, then over the longest
    /// catalog again. Every answer, unbound and bound (bound first or
    /// after the slot filled), equals a naive filter over that
    /// snapshot's entities, for `LIKE`, `=`, disjunctions and no filter
    /// over all three entity kinds.
    mod memo {
        use super::*;
        use crate::idset::IdSet;
        use proptest::prelude::*;
        use threatraptor_audit::entity::{
            Entity, EntityId, FileEntity, NetworkEntity, ProcessEntity,
        };
        use threatraptor_storage::catalog::EntityCatalog;
        use threatraptor_sync::Arc;

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

        /// The ids of `catalog`'s entities `filter` matches, among `bound`
        /// when given: one pass over the entities, no memo.
        fn from_scratch(
            catalog: &EntityCatalog,
            cq: &CompiledQuery,
            slot: usize,
            bound: Option<&IdSet>,
        ) -> IdSet {
            catalog
                .iter()
                .filter(|e| cq.var_filters[slot].matches(e))
                .map(Entity::id)
                .filter(|&id| bound.is_none_or(|b| b.contains(id)))
                .collect()
        }

        proptest! {
            #[test]
            fn extended_memo_equals_from_scratch_resolution(
                spec in prop::collection::vec((0u8..3, any::<u8>()), 1..160),
                sizes in prop::collection::vec(0usize..24, 1..16),
                bound_mask in any::<u64>(),
                order_mask in any::<u64>(),
            ) {
                let all: Vec<Entity> = spec
                    .iter()
                    .enumerate()
                    .map(|(id, &(kind, attr))| entity(id, kind, attr))
                    .collect();
                let cqs: Vec<CompiledQuery> = QUERIES.iter().map(|q| compiled(q)).collect();
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
                    next = end;
                }
                // Another lineage of the same length: every attribute
                // shifted, so the filters answer differently.
                let shifted: Vec<Entity> = spec
                    .iter()
                    .enumerate()
                    .map(|(id, &(kind, attr))| entity(id, kind, attr.wrapping_add(1)))
                    .collect();
                let other = EntityCatalog::from_entities(&shifted);

                let visits = held
                    .iter()
                    .chain(held.iter().rev())
                    .chain([&other, &catalog, &catalog]);
                let mut longest = 0;
                for (k, snapshot) in visits.enumerate() {
                    let len = snapshot.len();
                    // Bound ids: a pseudo-random subset of every id so far.
                    let bound: IdSet = (0..len)
                        .filter(|i| bound_mask.rotate_left((*i + k) as u32 % 64) & 1 == 1)
                        .map(|i| EntityId(i as u32))
                        .collect();
                    let same_lineage = Arc::ptr_eq(snapshot.lineage(), catalog.lineage());
                    longest = if same_lineage && k < 2 * held.len() { longest.max(len) } else { len };
                    let mut examined = 0;
                    for cq in &cqs {
                        for slot in 0..cq.vars.len() {
                            let var = &cq.vars[slot];
                            let unbound_first = order_mask.rotate_left((slot + k) as u32 % 64) & 1 == 1;
                            for bind in [!unbound_first, unbound_first] {
                                let bound = bind.then_some(&bound);
                                let (ids, rows) = cq.memo().resolve(snapshot, &cq.var_filters, slot, bound);
                                examined += rows;
                                prop_assert_eq!(
                                    &*ids,
                                    &from_scratch(snapshot, cq, slot, bound),
                                    "{} bound {} on visit {}", var, bind, k
                                );
                            }
                        }
                        prop_assert_eq!(cq.memo().covered(), longest, "visit {}", k);
                    }
                    // Revisiting the longest catalog evaluates nothing.
                    if k == 2 * held.len() + 2 {
                        prop_assert_eq!(examined, 0);
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
            let out = state.poll(
                &engine,
                &cq,
                snapshot.frontier().unwrap().sealed_events,
                |_| true,
            );
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
        let full = state.poll(
            &engine,
            &cq,
            snapshot.frontier().unwrap().sealed_events,
            |_| true,
        );
        assert!(!full.matches.is_empty());
        assert_eq!(state.retained(), retained, "partials rebuilt");
        assert_eq!(delivered.len(), full.matches.len());
        assert!(full.matches.iter().all(|m| delivered.contains(m)));
    }

    /// A poll's stage timers account for its time as a full hunt's do
    /// (`exec::tests::stage_times_cover_a_large_hunt`): on a poll that
    /// delivers over a thousand matches, the stages sum to at least 90 %
    /// of `elapsed`, projection included. The best of three polls is
    /// taken, so a preemption between two timers cannot fail it.
    #[test]
    fn stage_times_cover_a_large_poll() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(5_000)
            .build();
        let store = ShardedStore::ingest(&sc.log, true, 1);
        let engine = ShardedEngine::new(&store);
        let cq = compiled("proc p read file f as e1 proc p write file g as e2 return p, f, g");
        let mut best: f64 = 0.0;
        for _ in 0..3 {
            let out = DeltaState::new(&cq).poll(&engine, &cq, 0, |_| true);
            assert!(out.matches.len() >= 1_000, "{}", out.matches.len());
            assert_eq!(out.rows.len(), out.matches.len());
            assert!(out.stats.project_elapsed > std::time::Duration::ZERO);
            let stages: std::time::Duration = out.stats.stages().iter().sum();
            best = best.max(stages.as_secs_f64() / out.stats.elapsed.as_secs_f64());
        }
        assert!(best >= 0.9, "stages cover {:.1} % of elapsed", best * 100.0);
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
        let first = state.poll(&engine, &cq, sealed, |_| true);
        let retained = state.retained();
        state.invalidate();
        assert_eq!(state.retained(), 0);
        assert_eq!(state.stable_events(), 0);
        let again = state.poll(&engine, &cq, sealed, |_| true);
        assert_eq!(again.matches, first.matches, "full rescan reproduces");
        assert_eq!(state.retained(), retained, "partials rebuilt");
    }
}
