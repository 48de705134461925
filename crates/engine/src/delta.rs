//! Incremental (delta) execution for standing queries.
//!
//! A follow-mode hunt re-evaluates one compiled plan against successive
//! snapshots of a growing store. Full re-execution costs O(store) per
//! poll; this module makes the steady state O(delta) by splitting every
//! snapshot at its **stable frontier** — the sealed-event count carried
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
//! Path patterns are excluded ([`DeltaState::new`] returns `None`): a
//! path row may mix stable and fresh hops, so follow hunts over path
//! queries fall back to full re-execution.
//!
//! [`StreamFrontier`]: threatraptor_storage::StreamFrontier

use crate::compile::{CompiledQuery, CompiledShape};
use crate::join::{join_rows, propagate, Bound, JoinStep, Schedule, Tuples};
use crate::result::{DeltaStats, HuntResult, HuntStats, JoinStats};
use crate::sharded::ShardedEngine;
use std::time::Instant;

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

/// The retained state of one standing query's incremental evaluation:
/// the pinned schedule, the stable frontier the partials cover, and the
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
    /// through the same code path — and rebuilds the partials.
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

    /// One incremental evaluation: returns exactly the matches that
    /// contain at least one fresh row (position ≥ the previous poll's
    /// stable frontier), in the full executor's match order, and
    /// advances the stable frontier to `stable_to` (the snapshot's
    /// sealed-event count), folding newly stable combinations into the
    /// retained partials.
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
        let layout = &self.schedule.layout;
        let mut stats = HuntStats::default();
        let mut dstats = DeltaStats {
            fresh_from,
            carried_partials: self.retained(),
            ..DeltaStats::default()
        };

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
                let t_scan = Instant::now();
                let (rows, per_shard, pr) = engine.fetch_pattern(cq, pat, &bound, fresh_from);
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
                let t_scan = Instant::now();
                let (rows, per_shard, pr) = engine.fetch_pattern(cq, pat, &bound, 0);
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

        let t_project = Instant::now();
        let (columns, rows) = engine.project_tuples(cq, &delta);
        stats.project_elapsed = t_project.elapsed();
        stats.delta = Some(dstats);
        stats.elapsed = t0.elapsed();
        HuntResult {
            columns,
            rows,
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
