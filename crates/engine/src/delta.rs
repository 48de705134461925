//! Incremental (delta) execution for standing queries.
//!
//! A follow-mode hunt re-evaluates one compiled plan against successive
//! snapshots of a growing store. Full re-execution costs O(store) per
//! poll; this module makes the steady-state scan O(delta) by splitting
//! every snapshot at its **stable frontier** — the sealed-event count carried
//! by [`StreamFrontier`] — and only re-scanning what can still change:
//!
//! * positions below the frontier are *stable*: sealed shards are
//!   immutable, global positions never shift (compaction concatenates),
//!   and a sealed CPR run can never absorb another constituent or be
//!   re-led;
//! * positions at or above the *previous* poll's frontier are *fresh*:
//!   newly sealed rows plus the entire open window (whose runs are still
//!   provisional and must be re-read every poll — re-leading needs no
//!   separate re-validation because the open window is always fresh).
//!
//! [`DeltaState`] retains, per schedule prefix, the **partial bindings**
//! whose witnesses are all stable. One poll then computes exactly the
//! matches containing at least one fresh row with the delta-join
//! recurrence
//!
//! ```text
//! Δ₀ = fresh₀                      (fresh scan of the first pattern)
//! Δᵢ = (Pᵢ₋₁ ⋈ freshᵢ) ∪ (Δᵢ₋₁ ⋈ fullᵢ)
//! ```
//!
//! where `Pᵢ₋₁` is the retained stable prefix and `fullᵢ` a full-range
//! (id-set-filtered) scan that is *skipped entirely* when `Δᵢ₋₁` is
//! empty — the common steady-state case, which leaves per-poll scan
//! volume proportional to the epoch delta. The two branches are
//! disjoint (a combination is produced exactly once, at its first fresh
//! stage), so the union is concatenation. Matches whose witnesses are
//! all stable were necessarily complete at an earlier poll and already
//! delivered; everything else contains a fresh row and is found here —
//! the delta output, sorted into the full executor's nested-loop order,
//! is byte-identical to a full re-execution minus already-seen matches
//! (pinned by `tests/follow_parity.rs`).
//!
//! Partials are bounded: once the stream's settled bound (watermark
//! capped by the open window's earliest start) passes a partial's
//! feasible completion deadline — the next scheduled pattern's
//! DBM-tightened `[lo, hi]` upper bound, further clamped by `before`
//! constraints against already-bound patterns — no future fresh row can
//! ever join it, and [`DeltaState::age`] drops it.
//!
//! Endpoint resolution is memoized per standing query. The entity
//! catalog is append-only and entities never change, so [`DeltaState`]
//! keeps, per query variable, the ids of the entities satisfying the
//! variable's filter together with the catalog length they cover. A
//! poll first extends those sets over the entities appended since the
//! previous poll (a partition point in the generation straddling the
//! covered length finds them); an unbound endpoint then borrows its set
//! and a bound one (ids propagated from partials) is the word-wise AND
//! of the propagated ids with it. Nothing re-evaluates a filter over
//! entities an earlier poll already resolved.
//!
//! So in the steady state a poll costs O(fresh rows + entities appended
//! since the last poll + matches found), plus the carry scans of the
//! stages a non-empty delta reaches. What it does not cost: a rescan of
//! the stable prefix, a re-resolution of the catalog, or a projection —
//! the poll returns matches, and the follow layer renders only those it
//! has not delivered before.
//!
//! Path patterns are excluded ([`DeltaState::new`] returns `None`): a
//! path row may mix stable and fresh hops, so follow hunts over path
//! queries fall back to full re-execution.
//!
//! [`StreamFrontier`]: threatraptor_storage::StreamFrontier

use crate::compile::{CompiledPattern, CompiledQuery, CompiledShape};
use crate::exec::resolve_from;
use crate::idset::IdSet;
use crate::join::{join_rows, propagate, Bound, JoinStep, Schedule, Tuples};
use crate::result::{DeltaStats, HuntResult, HuntStats, JoinStats};
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

/// Elementwise accumulation of per-shard scan counts (a stage can scan
/// twice: the fresh range and, when carrying a delta forward, the full
/// range).
fn add_shard_counts(total: &mut Vec<usize>, add: &[usize]) {
    if total.len() < add.len() {
        total.resize(add.len(), 0);
    }
    for (t, a) in total.iter_mut().zip(add) {
        *t += a;
    }
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

    /// A pattern's `(subject, object)` id sets, narrowed by the
    /// propagated `bound` ids.
    fn endpoints(&self, pat: &CompiledPattern, bound: &Bound) -> (Cow<'_, IdSet>, Cow<'_, IdSet>) {
        (
            self.resolve(pat.subject_slot, bound[0].as_ref()),
            self.resolve(pat.object_slot, bound[1].as_ref()),
        )
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
    /// State for a compiled query, or `None` when the query cannot run
    /// incrementally (it contains a path pattern, whose rows may mix
    /// stable and fresh hops).
    pub fn new(cq: &CompiledQuery) -> Option<DeltaState> {
        if cq
            .patterns
            .iter()
            .any(|p| matches!(p.shape, CompiledShape::Path { .. }))
        {
            return None;
        }
        let schedule = Schedule::new(cq);
        let prefixes = schedule.steps.len().saturating_sub(1);
        let partials = vec![Tuples::new(&schedule.layout); prefixes];
        Some(DeltaState {
            schedule,
            partials,
            stable_events: 0,
            memo: EndpointMemo::new(cq.vars.len()),
        })
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
    /// retained partials.
    ///
    /// Endpoint resolution is memoized: the poll first extends each
    /// variable's entity set over the entities appended since the last
    /// poll, then hands an unbound endpoint the memo itself and a bound
    /// one its intersection with the propagated ids. The result carries
    /// the matches and the columns but no projected rows: the caller
    /// projects the matches it delivers.
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
        let fresh_from = self.stable_events;
        let mut stats = HuntStats::default();
        let entity_rows = self.memo.extend(cq, engine.store().catalog());
        let mut dstats = DeltaStats {
            fresh_from,
            carried_partials: self.retained(),
            entity_rows,
            ..DeltaStats::default()
        };
        stats.resolve_elapsed = t0.elapsed();
        let layout = &self.schedule.layout;

        // Matches produced this poll (≥ 1 fresh witness), grown stage by
        // stage; newly stable combinations are staged into `pending` and
        // merged only after the loop — merging mid-poll would let a
        // combination reach a later stage through both branches.
        let mut delta = Tuples::new(layout);
        let mut pending: Vec<Tuples> = Vec::with_capacity(self.partials.len());
        for (i, step) in self.schedule.steps.iter().enumerate() {
            let pat = &cq.patterns[step.pat];
            let mut fetched = 0usize;
            let mut shard_counts: Vec<usize> = Vec::new();
            let mut pruned = 0usize;
            let mut propagated: Vec<(String, usize)> = Vec::new();
            let mut candidates = 0usize;
            let mut scan_elapsed = std::time::Duration::ZERO;

            // Branch A: fresh rows of this pattern joined against the
            // retained stable prefix (the first stage seeds from its
            // fresh scan alone).
            let seed = (i > 0).then(|| &self.partials[i - 1]);
            let mut next = Tuples::new(layout);
            if seed.is_none_or(|p| !p.is_empty()) {
                let t_prop = Instant::now();
                let bound: Bound = match seed {
                    Some(p) => propagate(pat, p, &mut propagated),
                    None => [None, None],
                };
                stats.propagate_elapsed += t_prop.elapsed();
                let t_resolve = Instant::now();
                let (subjects, objects) = self.memo.endpoints(pat, &bound);
                stats.resolve_elapsed += t_resolve.elapsed();
                let t_scan = Instant::now();
                let (rows, per_shard, pr) =
                    engine.fetch_pattern(pat, &subjects, &objects, fresh_from);
                scan_elapsed += t_scan.elapsed();
                fetched += rows.len();
                dstats.fresh_rows += rows.len();
                add_shard_counts(&mut shard_counts, &per_shard);
                pruned += pr;
                candidates += seed.map_or(rows.len(), |p| p.len() * rows.len());
                let t_join = Instant::now();
                next = join_rows(layout, seed, &rows, pat, step);
                stats.join_elapsed += t_join.elapsed();
            }

            // Branch B: combinations that already carry a fresh witness
            // extend through this pattern's full range. Skipped when the
            // incoming delta is empty — the steady-state case that keeps
            // the poll O(delta).
            if !delta.is_empty() {
                let t_prop = Instant::now();
                let bound = propagate(pat, &delta, &mut propagated);
                stats.propagate_elapsed += t_prop.elapsed();
                let t_resolve = Instant::now();
                let (subjects, objects) = self.memo.endpoints(pat, &bound);
                stats.resolve_elapsed += t_resolve.elapsed();
                let t_scan = Instant::now();
                let (rows, per_shard, pr) = engine.fetch_pattern(pat, &subjects, &objects, 0);
                scan_elapsed += t_scan.elapsed();
                fetched += rows.len();
                dstats.carry_rows += rows.len();
                add_shard_counts(&mut shard_counts, &per_shard);
                pruned += pr;
                candidates += delta.len() * rows.len();
                let t_join = Instant::now();
                next.append(join_rows(layout, Some(&delta), &rows, pat, step));
                stats.join_elapsed += t_join.elapsed();
            }

            if i < self.partials.len() {
                pending.push(next.select((0..next.len()).filter(|&t| next.max_pos(t) < stable_to)));
            }
            delta = next;
            stats.execution_order.push(pat.id.clone());
            stats.rows_fetched.push((pat.id.clone(), fetched));
            stats.shard_rows.push((pat.id.clone(), shard_counts));
            stats.rows_pruned.push((pat.id.clone(), pruned));
            stats.propagated.push((pat.id.clone(), propagated));
            stats.join_stats.push((
                pat.id.clone(),
                JoinStats {
                    candidates,
                    outputs: delta.len(),
                },
            ));
            stats.pattern_elapsed.push((pat.id.clone(), scan_elapsed));
        }

        for (held, new) in self.partials.iter_mut().zip(pending) {
            held.append(new);
        }
        self.stable_events = stable_to;

        // The full executor's join emits matches lexicographically by
        // per-stage scan-row order, and event-pattern scans sort by
        // first witness position — so sorting by the schedule-ordered
        // witness positions reproduces its order exactly, making delta
        // delivery byte-identical to full re-execution.
        let t_join = Instant::now();
        let mut order: Vec<usize> = (0..delta.len()).collect();
        order.sort_by(|&a, &b| delta.cmp_by_witness(&self.schedule, a, b));
        let delta = delta.select(order);
        let matches = delta.to_matches(cq, layout);
        stats.join_elapsed += t_join.elapsed();
        dstats.retained_partials = self.retained();
        stats.delta = Some(dstats);
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
    use crate::error::EngineError;
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

    fn full(snapshot: &ShardedStore, cq: &CompiledQuery) -> Result<HuntResult, EngineError> {
        ShardedEngine::with_threads(snapshot, 1).execute(cq, crate::ExecMode::Scheduled)
    }

    /// The delta recurrence over chunked ingest produces, per poll,
    /// exactly the full execution's matches that contain a fresh row —
    /// cumulatively, the same match sequence as full re-execution.
    #[test]
    fn chunked_polls_reproduce_full_execution() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(4_000)
            .build();
        let cq = compiled(FIG2_TBQL);
        let mut state = DeltaState::new(&cq).expect("event-only");
        let mut store = StreamingStore::new(true, SealPolicy::events(350));
        store.append_batch(&sc.log.entities, &[]);

        let mut cumulative: Vec<Match> = Vec::new();
        for batch in sc.log.events.chunks(500) {
            store.append_batch(&[], batch);
            let snapshot = store.snapshot();
            let frontier = snapshot.frontier().expect("streaming snapshot");
            let engine = ShardedEngine::with_threads(&snapshot, 1);
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
            // Cumulative deltas == full re-execution, order-normalized
            // (a full match can be re-found with an extended open-window
            // run, so compare sets, not sequences, mid-stream).
            let oracle = full(&snapshot, &cq).unwrap();
            for m in &oracle.matches {
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
        let mut state = DeltaState::new(&cq).unwrap();
        let mut store = StreamingStore::new(true, SealPolicy::events(300));
        store.append_batch(&sc.log.entities, &[]);
        let (head, tail) = sc.log.events.split_at(2_500);
        for batch in head.chunks(300) {
            store.append_batch(&[], batch);
        }
        {
            let snapshot = store.snapshot();
            let engine = ShardedEngine::with_threads(&snapshot, 1);
            state.poll(&engine, &cq, snapshot.frontier().unwrap().sealed_events);
        }
        // Second poll: a small tail append. Rows scanned must be on the
        // order of the delta, not the store.
        store.append_batch(&[], &tail[..100.min(tail.len())]);
        let snapshot = store.snapshot();
        let engine = ShardedEngine::with_threads(&snapshot, 1);
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
        let mut state = DeltaState::new(&cq).unwrap();
        let mut store = StreamingStore::new(true, SealPolicy::events(200));
        store.append_batch(&sc.log.entities, &[]);
        // Chunked appends so the seal policy fires and rows stabilize.
        for batch in sc.log.events.chunks(250) {
            store.append_batch(&[], batch);
        }
        let snapshot = store.snapshot();
        assert!(snapshot.frontier().unwrap().sealed_events > 0);
        let engine = ShardedEngine::with_threads(&snapshot, 1);
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
        let mut st2 = DeltaState::new(&unbounded).unwrap();
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
        let mut state = DeltaState::new(&cq).unwrap();
        let mut store = StreamingStore::new(true, SealPolicy::events(300));
        store.append_batch(&sc.log.entities, &[]);
        let mut polls = Vec::new();
        for batch in sc.log.events.chunks(400) {
            store.append_batch(&[], batch);
            let snapshot = store.snapshot();
            let engine = ShardedEngine::with_threads(&snapshot, 1);
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
        let engine = ShardedEngine::with_threads(&snapshot, 1);
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
        let mut state = DeltaState::new(&cq).unwrap();
        let mut store = StreamingStore::new(true, SealPolicy::events(300));
        store.append_batch(&sc.log.entities, &[]);
        let mut resolve = Vec::new();
        for batch in sc.log.events.chunks(500) {
            store.append_batch(&[], batch);
            let snapshot = store.snapshot();
            let engine = ShardedEngine::with_threads(&snapshot, 1);
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

    /// Path queries cannot run incrementally.
    #[test]
    fn path_queries_are_rejected() {
        let cq = compiled("proc p[\"%tar%\"] ~>(1~2)[write] file f as pp1\nreturn p, f");
        assert!(DeltaState::new(&cq).is_none());
    }

    /// Invalidation resets to a from-zero scan that rebuilds partials.
    #[test]
    fn invalidate_forces_a_full_rescan() {
        let sc = ScenarioBuilder::new().seed(3).target_events(1_500).build();
        let cq = compiled("proc p read file f as e1 proc p write file g as e2 return p, f, g");
        let mut state = DeltaState::new(&cq).unwrap();
        let mut store = StreamingStore::new(true, SealPolicy::events(250));
        store.append_batch(&sc.log.entities, &[]);
        for batch in sc.log.events.chunks(300) {
            store.append_batch(&[], batch);
        }
        let snapshot = store.snapshot();
        let engine = ShardedEngine::with_threads(&snapshot, 1);
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
