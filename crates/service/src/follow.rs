//! Follow-mode hunts: a standing query over a growing store.
//!
//! A batch hunt answers "did this behavior happen in the log I have?";
//! a follow-mode hunt answers "tell me *when it appears*" while audit
//! data keeps streaming in. A [`FollowHunt`] pins one compiled plan and
//! is polled with successive store snapshots (epoch views from
//! [`threatraptor_storage::StreamingStore`], via
//! [`crate::ingest::IngestService`]):
//!
//! * a poll against an unchanged store (same raw-event high-water mark)
//!   is free — no execution at all;
//! * otherwise the cached plan is evaluated incrementally against the
//!   snapshot (compilation is never repeated) and the **delta** —
//!   matches not seen by any earlier poll — is merged into the running
//!   result;
//! * matches are identified by their bindings plus the **CPR run
//!   identity** of their witnesses — entity pair, operation, and the
//!   run's start time — which is stable across CPR merging (a merged
//!   run keeps its first constituent's start time, and ties at the same
//!   start share it by definition), across seals, and across
//!   shard-layout changes — so re-found matches do not duplicate.
//!
//! The running result is append-only, like a streaming alert feed:
//! matches are never retracted. Delivery is **exactly-once** per match
//! identity, including under start-time ties at the ingest frontier: a
//! match witnessed by a *provisional* open-window event is reported with
//! the event's state as of that poll, and neither the run absorbing
//! later constituents nor a same-start-time newcomer re-leading the run
//! (which changes the merged event's *id* but never its run identity)
//! re-fires it. The flip side of identity-keyed delivery: two distinct
//! events with the same entity pair, operation, and start time count as
//! one behavior instance and alert once.
//!
//! ## Incremental evaluation
//!
//! Every poll runs through the engine's delta path
//! ([`threatraptor_engine::DeltaState`]), path plans included: it keeps
//! only rows witnessing the epoch delta — newly sealed rows plus the
//! open window, above the snapshot's [`StreamFrontier`] — and joins them
//! against **retained partial bindings** over the stable prefix.
//! Endpoint resolution is memoized on the plan. The open window is
//! re-scanned every poll, so a poll re-finds every match it holds; the
//! engine hands each found match to this layer as a slot tuple, this
//! layer writes its identity (bindings by variable slot, witness run
//! identities by pattern slot) into one reused buffer and looks it up in
//! `seen`, and only the matches whose identity is new are projected,
//! materialized and delivered, by the engine's step that ends a full
//! hunt too. Re-led open-window runs need no
//! re-validation: the open window lies above the stable frontier and is
//! re-scanned every poll. The first poll, a discontinuity (raw or sealed frontier
//! regression) and a batch snapshot without a frontier poll from
//! position zero through the same loop, the latter two after
//! invalidating the retained state.
//!
//! Retained state is **watermark-bounded**. Each poll ages, against the
//! frontier's settled bound (`min(watermark, earliest open start)` — no
//! future fresh row can start earlier):
//!
//! * *partials* whose feasible completion deadline (the next scheduled
//!   pattern's DBM-tightened `[lo, hi]` upper bound, clamped further by
//!   `before` constraints against bound patterns) has passed;
//! * *delivered-match identities* (`seen`) whose newest witness run
//!   (the identity's first word) starts before the settled bound — such
//!   a match can never be re-found by a delta poll, so its dedup entry
//!   is dead weight;
//! * on a **drained** query (every pattern's feasible window closed
//!   below the settled bound), all dedup state including the
//!   distinct-row history — no new match can ever form.
//!
//! Queries with unbounded patterns retain partials and distinct-row
//! history indefinitely (their semantics require it); `seen` still ages.
//!
//! ## Telemetry
//!
//! An attached hunt counts its work (`follow_*_total`) as it polls. It
//! keeps no gauge: the retained partials and the size of the running
//! result are read from the hunt when they are scraped, and
//! [`HuntServer::metrics`] sums them over the standing queries it holds
//! (`follow_partials_retained`, `follow_result_matches`), so a query
//! that is dropped leaves nothing behind to take back.
//!
//! [`StreamFrontier`]: threatraptor_storage::StreamFrontier
//! [`HuntServer::metrics`]: crate::server::HuntServer::metrics

use crate::cache::CachedPlan;
use crate::job::ServiceError;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use threatraptor_audit::entity::EntityId;
use threatraptor_engine::result::{DeltaStats, HuntStats};
use threatraptor_engine::{DeltaState, ExecMode, HuntResult, ShardedEngine};
use threatraptor_obs::{Counter, Registry};
use threatraptor_storage::ShardedStore;

/// Writes the stable identity of a match into `key` as one flat word
/// string: the newest witness run's start first (what aging reads), then
/// the `bindings` in `cq.vars` slot order, then per pattern in
/// declaration order (`witnesses`) its hop count and, per hop, the
/// witnessing event's CPR *run identity* — entity pair, operation and
/// the run's start time. The hop counts make the string injective: the
/// same hops split differently across patterns key differently.
///
/// An open run's *event id* is not delivery-stable: a later chunk can
/// deliver a same-start-time tie that sorts ahead of the provisional
/// leader and re-leads the merged run under the newcomer's id. The run's
/// start time cannot change that way (ties share it), so this key
/// survives re-leading where the first-constituent id does not.
fn match_identity<'a>(
    bindings: impl Iterator<Item = EntityId>,
    witnesses: impl Iterator<Item = &'a [usize]>,
    store: &ShardedStore,
    key: &mut Vec<u64>,
) {
    key.clear();
    key.push(0);
    key.extend(bindings.map(|e| u64::from(e.0)));
    let mut newest = 0;
    for hops in witnesses {
        key.push(hops.len() as u64);
        for &pos in hops {
            let e = store.event_at(pos);
            #[cfg(not(check_mutants))]
            let run = e.start;
            // Seeded bug (mutant CI job): key the witness by its leading
            // event id instead of the run start. A same-start tie
            // arriving later re-leads the merged run under a new id, so
            // the same logical match refires — the exact exactly-once
            // regression the dispatcher model must re-find.
            #[cfg(check_mutants)]
            let run = u64::from(e.id.0);
            let pair = u64::from(e.subject.0) << 32 | u64::from(e.object.0);
            key.extend([pair, e.op as u64, run]);
            newest = newest.max(run);
        }
    }
    key[0] = newest;
}

/// Accumulates one poll's engine statistics into the running result's:
/// times and each pattern's row and join counts add up across polls
/// (events scanned is cumulative work, not a point-in-time value), while
/// the propagated sizes and the delta actuals reflect the latest
/// execution.
fn merge_stats(running: &mut HuntStats, poll: &HuntStats) {
    running.elapsed += poll.elapsed;
    running.resolve_elapsed += poll.resolve_elapsed;
    running.entity_rows += poll.entity_rows;
    running.propagate_elapsed += poll.propagate_elapsed;
    running.join_elapsed += poll.join_elapsed;
    running.materialize_elapsed += poll.materialize_elapsed;
    running.project_elapsed += poll.project_elapsed;
    for p in &poll.patterns {
        match running.patterns.iter_mut().find(|r| r.pattern == p.pattern) {
            Some(total) => {
                total.add(p);
                total.propagated.clone_from(&p.propagated);
            }
            None => running.patterns.push(p.clone()),
        }
    }
    running.delta = poll.delta;
}

/// Registry handles for follow-hunt telemetry. The counters are
/// *cumulative across the hunt's lifetime* and live in the registry,
/// not in any delivered [`FollowDelta`] — a subscriber that crashes
/// (or drops deltas) loses nothing: the totals remain scrapeable.
/// When several follow hunts share one registry the counters
/// aggregate across all of them.
#[derive(Debug, Clone)]
struct FollowObs {
    /// `follow_polls_total`: polls, including free unchanged ones.
    polls: Arc<Counter>,
    /// `follow_executions_total`: polls that actually executed.
    executions: Arc<Counter>,
    /// `follow_rows_scanned_total`: rows fetched across all patterns
    /// and executions (fresh-range plus carry scans).
    rows_scanned: Arc<Counter>,
    /// `follow_matches_total`: matches delivered (exactly-once).
    matches: Arc<Counter>,
    /// `follow_full_fallback_total`: executions that polled from
    /// position zero — first poll, discontinuity, or a batch snapshot.
    fallbacks: Arc<Counter>,
    /// `follow_invalidated_total`: discontinuities that dropped state.
    invalidated: Arc<Counter>,
    /// `follow_partials_aged_total`: partials dropped by deadline
    /// passage.
    partials_aged: Arc<Counter>,
    /// `follow_dedup_aged_total`: dedup entries (`seen` witnesses and,
    /// on a drained query, distinct-row history) aged out.
    dedup_aged: Arc<Counter>,
    /// `follow_pattern_rows_total{pattern=...}`: rows fetched per
    /// pattern, one `(pattern id, counter)` per compiled pattern.
    pattern_rows: Vec<(String, Arc<Counter>)>,
}

/// What one poll produced.
#[derive(Debug, Clone, Default)]
pub struct FollowDelta {
    /// Matches first seen by this poll.
    pub new_matches: usize,
    /// Projected rows of the new matches (deduplicated against the
    /// running result when the query is `distinct`).
    pub rows: Vec<Vec<String>>,
    /// True when the store had not changed and execution was skipped.
    pub unchanged: bool,
    /// Wall-clock time of the whole poll — engine execution plus delta
    /// extraction, projection, and merge (≈ 0 when `unchanged`).
    pub elapsed: Duration,
    /// Incremental-execution actuals (`None` only when the poll was
    /// `unchanged`).
    pub delta: Option<DeltaStats>,
}

impl FollowDelta {
    /// True when this poll surfaced nothing new.
    pub fn is_empty(&self) -> bool {
        self.new_matches == 0
    }
}

/// A standing hunt: one compiled plan plus the accumulated result of all
/// polls so far.
#[derive(Debug)]
pub struct FollowHunt {
    plan: Arc<CachedPlan>,
    /// Identities of the matches delivered so far (see
    /// [`match_identity`]), aged by their first word.
    seen: HashSet<Box<[u64]>>,
    /// The buffer each found match's identity is written into.
    key: Vec<u64>,
    /// Distinct-row history: every projected row ever delivered, kept
    /// so `distinct` queries never repeat a row across polls. Cleared
    /// only when the query drains (every feasible window closed).
    known: HashSet<Vec<String>>,
    /// Retained incremental-evaluation state.
    delta: DeltaState,
    result: Option<HuntResult>,
    /// Raw-event high-water mark (`reduction().before`) of the last
    /// snapshot polled; appends are the only way results can change, so
    /// an equal mark lets the poll skip execution entirely.
    last_raw: Option<usize>,
    polls: usize,
    /// Telemetry handles, when attached.
    obs: Option<FollowObs>,
}

impl FollowHunt {
    /// A follow hunt over an already compiled plan. `_mode` (the
    /// vestigial [`ExecMode`]) and `_shard_threads` are ignored: polls
    /// scan with one thread.
    pub fn new(plan: Arc<CachedPlan>, _mode: ExecMode, _shard_threads: usize) -> FollowHunt {
        let delta = DeltaState::new(&plan.compiled);
        FollowHunt {
            plan,
            seen: HashSet::new(),
            key: Vec::new(),
            known: HashSet::new(),
            delta,
            result: None,
            last_raw: None,
            polls: 0,
            obs: None,
        }
    }

    /// Retained partial bindings carried across polls.
    pub fn retained_partials(&self) -> usize {
        self.delta.retained()
    }

    /// Delivered-match dedup entries currently held.
    pub fn dedup_entries(&self) -> usize {
        self.seen.len()
    }

    /// Distinct-row history entries currently held.
    pub fn known_rows(&self) -> usize {
        self.known.len()
    }

    /// Attaches cumulative telemetry to `registry`: `follow_*_total`
    /// counters bumped on every poll. Unlike the per-poll numbers in
    /// a delivered [`FollowDelta`], these totals survive a subscriber
    /// crash — they live in the registry, not in the delivery channel.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        let pattern_rows = self
            .plan
            .compiled
            .patterns
            .iter()
            .map(|p| {
                let rows =
                    registry.counter_labeled("follow_pattern_rows_total", &[("pattern", &p.id)]);
                (p.id.clone(), rows)
            })
            .collect();
        self.obs = Some(FollowObs {
            polls: registry.counter("follow_polls_total"),
            executions: registry.counter("follow_executions_total"),
            rows_scanned: registry.counter("follow_rows_scanned_total"),
            matches: registry.counter("follow_matches_total"),
            fallbacks: registry.counter("follow_full_fallback_total"),
            invalidated: registry.counter("follow_invalidated_total"),
            partials_aged: registry.counter("follow_partials_aged_total"),
            dedup_aged: registry.counter("follow_dedup_aged_total"),
            pattern_rows,
        });
    }

    /// The canonical TBQL text of the standing query.
    pub fn tbql(&self) -> &str {
        &self.plan.tbql
    }

    /// Number of polls so far (including skipped ones).
    pub fn polls(&self) -> usize {
        self.polls
    }

    /// The running merged result, or `None` before the first poll.
    pub fn result(&self) -> Option<&HuntResult> {
        self.result.as_ref()
    }

    /// Evaluates the standing query against a snapshot and merges the
    /// delta into the running result. Snapshots must come from one
    /// growing store (polling across unrelated stores invalidates the
    /// retained state and re-delivers from scratch).
    pub fn poll(&mut self, snapshot: &ShardedStore) -> Result<FollowDelta, ServiceError> {
        self.polls += 1;
        if let Some(obs) = &self.obs {
            obs.polls.inc();
        }
        let t0 = Instant::now();
        let raw = snapshot.reduction().before;
        if self.last_raw == Some(raw) {
            return Ok(FollowDelta {
                unchanged: true,
                ..FollowDelta::default()
            });
        }

        let plan = Arc::clone(&self.plan);
        let cq = &plan.compiled;
        let engine = ShardedEngine::new(snapshot);
        let frontier = snapshot.frontier();

        // Snapshot discontinuity: the raw high-water mark or the sealed
        // frontier regressed — this is not the store we were following.
        // Drop retained partials; the poll scans from zero. (Dedup state
        // is kept: already-delivered identities stay delivered, though
        // entries aged out earlier may re-fire across a discontinuity.)
        let regressed = self.last_raw.is_some_and(|prev| raw < prev)
            || frontier.is_some_and(|f| f.sealed_events < self.delta.stable_events());
        if regressed {
            self.delta.invalidate();
            if let Some(obs) = &self.obs {
                obs.invalidated.inc();
            }
        }
        // A batch snapshot has no frontier: nothing in it is known to be
        // stable, so it is polled from zero with nothing retained.
        let stable_to = match frontier {
            Some(f) => f.sealed_events,
            None => {
                self.delta.invalidate();
                0
            }
        };
        let from_zero = self.delta.stable_events() == 0;
        // Keep only matches no earlier poll has seen: a key already in
        // `seen` is looked up by slice and allocates nothing.
        let (seen, key) = (&mut self.seen, &mut self.key);
        let mut out = self.delta.poll(&engine, cq, stable_to, |m| {
            let bindings = (0..cq.vars.len()).map(|slot| m.entity(slot));
            let witnesses = (0..cq.patterns.len()).map(|pat| m.witness(pat));
            match_identity(bindings, witnesses, snapshot, key);
            !seen.contains(key.as_slice()) && seen.insert(key.as_slice().into())
        });
        self.last_raw = Some(raw);

        // Merge into the running result. Stats accumulate (per-pattern
        // scan counters and elapsed sum across polls) rather than being
        // overwritten by the latest execution's point-in-time values.
        let running = self.result.get_or_insert_with(|| HuntResult {
            columns: std::mem::take(&mut out.columns),
            rows: Vec::new(),
            matches: Vec::new(),
            stats: HuntStats::default(),
        });
        merge_stats(&mut running.stats, &out.stats);
        if cq.distinct {
            // The poll deduped its own rows; dedup against the
            // persistent history so the running rows stay a distinct
            // set without rescanning them every poll.
            out.rows.retain(|r| self.known.insert(r.clone()));
        }
        let new_matches = out.matches.len();
        running.matches.extend(out.matches);
        running.rows.extend_from_slice(&out.rows);

        // Age retained state by the stream's settled bound: no future
        // fresh row can start below it.
        let mut aged_partials = 0usize;
        let mut aged_dedup = 0usize;
        if let Some(f) = frontier {
            let settled = f.settled_before();
            let before = self.seen.len();
            self.seen.retain(|key| key[0] >= settled);
            aged_dedup = before - self.seen.len();
            aged_partials = self.delta.age(cq, settled);
            // Drained query: every pattern's feasible window closed
            // below the settled bound — no new match can ever form,
            // so even the distinct-row history is dead.
            let drained = cq
                .patterns
                .iter()
                .all(|p| p.bounds.or(p.window).is_some_and(|b| b.hi < settled));
            if drained {
                aged_dedup += self.seen.len() + self.known.len();
                self.seen.clear();
                self.known.clear();
            }
        }

        if let Some(obs) = &self.obs {
            obs.executions.inc();
            obs.rows_scanned.add(out.stats.total_rows() as u64);
            obs.matches.add(new_matches as u64);
            if from_zero {
                obs.fallbacks.inc();
            }
            obs.partials_aged.add(aged_partials as u64);
            obs.dedup_aged.add(aged_dedup as u64);
            for p in &out.stats.patterns {
                if let Some((_, rows)) = obs.pattern_rows.iter().find(|(id, _)| *id == p.pattern) {
                    rows.add(p.total_rows() as u64);
                }
            }
        }

        Ok(FollowDelta {
            new_matches,
            rows: out.rows,
            unchanged: false,
            elapsed: t0.elapsed(),
            delta: out.stats.delta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PlanCache;
    use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
    use threatraptor_engine::PatternStats;
    use threatraptor_storage::{SealPolicy, StreamingStore};
    use threatraptor_tbql::parser::FIG2_TBQL;

    fn follow(tbql: &str) -> FollowHunt {
        let cache = PlanCache::new();
        let (plan, _) = cache.plan(tbql).unwrap();
        FollowHunt::new(plan, ExecMode::Scheduled, 1)
    }

    #[test]
    fn attack_appears_as_a_delta_then_never_refires() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(4_000)
            .build();
        let mut store = StreamingStore::new(true, SealPolicy::events(400));
        let mut hunt = follow(FIG2_TBQL);

        let mut total = 0usize;
        let mut fired_at = None;
        store.append_batch(&sc.log.entities, &[]);
        for (i, batch) in sc.log.events.chunks(500).enumerate() {
            store.append_batch(&[], batch);
            let delta = hunt.poll(&store.snapshot()).unwrap();
            assert!(!delta.unchanged);
            if !delta.is_empty() && fired_at.is_none() {
                fired_at = Some(i);
            }
            total += delta.new_matches;
        }
        assert!(fired_at.is_some(), "the attack must surface mid-stream");
        assert!(total > 0);

        // The final running result agrees with a from-scratch batch hunt.
        let batch = ShardedEngine::new(&store.snapshot())
            .hunt(FIG2_TBQL)
            .unwrap();
        let result = hunt.result().unwrap();
        assert_eq!(result.matches.len(), batch.matches.len());
        let norm = |rows: &[Vec<String>]| {
            let mut r = rows.to_vec();
            r.sort();
            r
        };
        assert_eq!(norm(&result.rows), norm(&batch.rows));
    }

    #[test]
    fn unchanged_snapshots_skip_execution() {
        let sc = ScenarioBuilder::new().seed(7).target_events(1_000).build();
        let mut store = StreamingStore::new(true, SealPolicy::manual());
        store.append_batch(&sc.log.entities, &sc.log.events);
        let mut hunt = follow(FIG2_TBQL);

        let first = hunt.poll(&store.snapshot()).unwrap();
        assert!(!first.unchanged);
        let second = hunt.poll(&store.snapshot()).unwrap();
        assert!(second.unchanged, "no appends → poll must be free");
        assert!(second.is_empty());
        assert_eq!(hunt.polls(), 2);
    }

    /// Regression (ISSUE 5 headline): a same-start-time tie arriving in a
    /// later chunk can sort ahead of the provisional open-window witness
    /// and re-lead the merged run under the newcomer's event id. With
    /// id-keyed match identity that re-keyed — and re-fired — an already
    /// delivered match; run-identity keying must deliver exactly once.
    #[test]
    fn same_start_ties_do_not_refire_delivered_matches() {
        use threatraptor_audit::entity::Entity;
        use threatraptor_audit::event::{Event, EventId, Operation};

        let entities = ScenarioBuilder::new()
            .seed(1)
            .target_events(50)
            .build()
            .log
            .entities;
        let proc_id = entities
            .iter()
            .find_map(|e| matches!(e, Entity::Process(_)).then(|| e.id()))
            .expect("scenario has a process");
        let file_id = entities
            .iter()
            .find_map(|e| matches!(e, Entity::File(_)).then(|| e.id()))
            .expect("scenario has a file");
        let read = |id: u32, start: u64, end: u64| Event {
            id: EventId(id),
            subject: proc_id,
            op: Operation::Read,
            object: file_id,
            start,
            end,
            bytes: 8,
            merged: 1,
            tag: None,
        };

        let mut store = StreamingStore::new(true, SealPolicy::manual());
        store.append_batch(&entities, &[]);
        let mut hunt = follow("proc p read file f return p, f");

        // Chunk 1: a provisional open-window witness at t=100.
        store.append_batch(&[], &[read(50, 100, 110)]);
        let first = hunt.poll(&store.snapshot()).unwrap();
        assert_eq!(first.new_matches, 1, "the read must fire once");

        // Chunk 2: an equal-start tie with a smaller (end, id) sort key —
        // it re-leads the merged run, changing the run's event id from 50
        // to 60. The run identity (pair, op, start) is unchanged.
        store.append_batch(&[], &[read(60, 100, 105)]);
        let snapshot = store.snapshot();
        let merged = (0..snapshot.event_count())
            .map(|p| snapshot.event_at(p))
            .find(|e| e.subject == proc_id && e.object == file_id)
            .expect("the tied reads merged into one run");
        assert_eq!(merged.id, EventId(60), "the newcomer re-led the run");
        assert_eq!(merged.merged, 2);
        let second = hunt.poll(&snapshot).unwrap();
        assert_eq!(
            second.new_matches, 0,
            "a re-led run must not re-fire its delivered match"
        );

        // Chunk 3: another re-leading tie, this time across a poll that
        // also seals — still no duplicate.
        store.append_batch(&[], &[read(40, 100, 103)]);
        let third = hunt.poll(&store.snapshot()).unwrap();
        assert_eq!(third.new_matches, 0, "third tie must not re-fire either");

        // The running result agrees with a from-scratch batch hunt.
        let batch = ShardedEngine::new(&store.snapshot())
            .hunt("proc p read file f return p, f")
            .unwrap();
        let matched: Vec<_> = hunt
            .result()
            .unwrap()
            .matches
            .iter()
            .filter(|m| m.bindings.values().any(|&id| id == proc_id))
            .collect();
        let batch_matched = batch
            .matches
            .iter()
            .filter(|m| m.bindings.values().any(|&id| id == proc_id))
            .count();
        assert_eq!(matched.len(), batch_matched);
    }

    /// Cumulative counters survive merges: per-pattern scan counts add up
    /// across polls instead of being overwritten by the latest execution
    /// (a mirror `DeltaState` polled on the same snapshots gives each
    /// poll's counts), and the delta's elapsed covers the whole poll.
    #[test]
    fn running_stats_accumulate_across_polls() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(3_000)
            .build();
        let mut store = StreamingStore::new(true, SealPolicy::events(400));
        let mut hunt = follow(FIG2_TBQL);
        let plan = PlanCache::new().plan(FIG2_TBQL).unwrap().0;
        let mut mirror = DeltaState::new(&plan.compiled);
        store.append_batch(&sc.log.entities, &[]);

        let mut per_poll_fetched = Vec::new();
        let mut summed_elapsed = Duration::ZERO;
        for batch in sc.log.events.chunks(600) {
            store.append_batch(&[], batch);
            let snapshot = store.snapshot();
            let engine = ShardedEngine::new(&snapshot);
            let sealed = snapshot.frontier().unwrap().sealed_events;
            let solo = mirror.poll(&engine, &plan.compiled, sealed, |_| true);
            per_poll_fetched.push(solo.stats.patterns);
            // Bracket the poll: the execution it adds to the running
            // stats is timed inside the poll's own timer, which runs
            // inside `outer`.
            let before = hunt.result().map_or(Duration::ZERO, |r| r.stats.elapsed);
            let t0 = Instant::now();
            let delta = hunt.poll(&snapshot).unwrap();
            let outer = t0.elapsed();
            let added = hunt.result().unwrap().stats.elapsed - before;
            assert!(
                added <= delta.elapsed && delta.elapsed <= outer,
                "delta elapsed must measure the poll, not be zeroed"
            );
            summed_elapsed += delta.elapsed;
        }

        let running = hunt.result().unwrap();
        // Each pattern's running counter is the sum over all polls.
        for total in &running.stats.patterns {
            let rows = |poll: &Vec<PatternStats>| -> usize {
                poll.iter()
                    .filter(|p| p.pattern == total.pattern)
                    .map(PatternStats::total_rows)
                    .sum()
            };
            let want: usize = per_poll_fetched.iter().map(rows).sum();
            assert_eq!(
                total.total_rows(),
                want,
                "pattern {} must accumulate",
                total.pattern
            );
            assert!(total.total_rows() >= rows(per_poll_fetched.last().unwrap()));
        }
        // Elapsed accumulates execution time across polls; it can only
        // have grown past any single execution.
        assert!(running.stats.elapsed <= summed_elapsed);
        assert!(running.stats.elapsed > Duration::ZERO);
    }

    /// Satellite (ISSUE 6): cumulative scan counters are exposed via
    /// the registry, so dropping every delivered delta (a crashed
    /// subscriber) loses nothing.
    #[test]
    fn registry_counters_survive_dropped_deltas() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(2_000)
            .build();
        let registry = Arc::new(Registry::new());
        let mut store = StreamingStore::new(true, SealPolicy::events(300));
        let mut hunt = follow(FIG2_TBQL);
        hunt.attach_metrics(&registry);
        store.append_batch(&sc.log.entities, &[]);

        for batch in sc.log.events.chunks(500) {
            store.append_batch(&[], batch);
            // Delta dropped on the floor — totals must not be lost.
            let _ = hunt.poll(&store.snapshot()).unwrap();
        }
        // One extra unchanged poll: counted as a poll, not an execution.
        let _ = hunt.poll(&store.snapshot()).unwrap();

        let snap = registry.snapshot();
        let polls = snap.counter("follow_polls_total").unwrap();
        let execs = snap.counter("follow_executions_total").unwrap();
        assert_eq!(polls, hunt.polls() as u64);
        assert_eq!(execs, polls - 1);
        let running = hunt.result().unwrap();
        assert_eq!(
            snap.counter("follow_rows_scanned_total").unwrap(),
            running.stats.total_rows() as u64
        );
        assert_eq!(
            snap.counter("follow_matches_total").unwrap(),
            running.matches.len() as u64
        );
        // Per-pattern series mirror the running per-pattern counters.
        for p in &running.stats.patterns {
            let sample = snap
                .get("follow_pattern_rows_total", &[("pattern", &p.pattern)])
                .unwrap_or_else(|| panic!("missing series for {}", p.pattern));
            assert_eq!(
                sample.value,
                threatraptor_obs::SampleValue::Counter(p.total_rows() as u64)
            );
        }
    }

    /// The identity keys each pattern's hop count: the same hops split
    /// differently across two path patterns, under the same bindings,
    /// key differently. The bindings and every part of a hop's run
    /// identity count, and the newest run start leads.
    #[test]
    fn identity_keeps_pattern_boundaries_and_run_identity() {
        use threatraptor_audit::event::{Event, EventId, Operation};

        let sc = ScenarioBuilder::new().seed(1).target_events(50).build();
        let ev = |id: u32, s: u32, o: u32, op: Operation, start: u64| Event {
            id: EventId(id),
            subject: EntityId(s),
            op,
            object: EntityId(o),
            start,
            end: start + 1,
            bytes: 8,
            merged: 1,
            tag: None,
        };
        let mut store = StreamingStore::new(true, SealPolicy::manual());
        store.append_batch(
            &sc.log.entities,
            &[
                ev(1, 0, 1, Operation::Write, 10),
                ev(2, 0, 1, Operation::Read, 10),
                ev(3, 0, 2, Operation::Write, 10),
                ev(4, 1, 2, Operation::Write, 20),
                ev(5, 2, 3, Operation::Write, 30),
                ev(6, 0, 1, Operation::Write, 50),
            ],
        );
        let snapshot = store.snapshot();
        assert_eq!(snapshot.event_count(), 6, "no two events merge");
        let key = |bindings: &[u32], witnesses: &[&[usize]]| {
            let mut key = Vec::new();
            match_identity(
                bindings.iter().map(|&e| EntityId(e)),
                witnesses.iter().copied(),
                &snapshot,
                &mut key,
            );
            key
        };
        let vars = [0, 1, 3];
        let split = key(&vars, &[&[3, 4], &[5]]);
        assert_ne!(split, key(&vars, &[&[3], &[4, 5]]));
        assert_ne!(split, key(&vars, &[&[3, 4, 5], &[]]));
        assert_eq!(split, key(&vars, &[&[3, 4], &[5]]));
        assert_eq!(split[0], 50, "the newest witness start leads");
        assert_ne!(split, key(&[0, 1, 2], &[&[3, 4], &[5]]));
        // Operation, pair and start each tell hops apart.
        let hop = |pos: usize| key(&vars, &[&[pos]]);
        assert_ne!(hop(0), hop(1));
        assert_ne!(hop(0), hop(2));
        assert_ne!(hop(0), hop(5));
    }

    /// Under a manual seal policy nothing seals, so every poll re-finds
    /// every match the open window holds. A match found by the first
    /// poll is re-found by each of the next eleven and delivered once,
    /// and the dedup set holds what the bindings-and-runs key held before
    /// it was stored flat.
    #[test]
    fn open_window_matches_are_delivered_once_across_polls() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(2_000)
            .build();
        let q = "proc p read file f as e1 proc p write file g as e2 return p, f, g";
        let mut store = StreamingStore::new(true, SealPolicy::manual());
        let mut hunt = follow(q);
        let plan = PlanCache::new().plan(q).unwrap().0;
        let mut mirror = DeltaState::new(&plan.compiled);
        store.append_batch(&sc.log.entities, &[]);

        let mut delivered = 0;
        let mut dedup = Vec::new();
        for batch in sc.log.events.chunks(sc.log.events.len().div_ceil(12)) {
            store.append_batch(&[], batch);
            let snapshot = store.snapshot();
            assert_eq!(snapshot.frontier().unwrap().sealed_events, 0);
            let delta = hunt.poll(&snapshot).unwrap();
            assert_eq!(delta.delta.unwrap().fresh_from, 0);
            delivered += delta.new_matches;
            // A keep-all poll of the same snapshot finds every match
            // delivered so far again.
            let refound = mirror.poll(&ShardedEngine::new(&snapshot), &plan.compiled, 0, |_| true);
            assert_eq!(refound.matches.len(), delivered);
            dedup.push(hunt.dedup_entries());
        }
        assert_eq!(dedup.len(), 12);
        assert!(dedup[0] > 0, "the first poll must find matches");
        assert_eq!(
            dedup,
            [150, 313, 488, 686, 866, 896, 958, 1162, 1328, 1426, 1578, 1756]
        );
        assert_eq!(hunt.result().unwrap().matches.len(), delivered);
        let batch = ShardedEngine::new(&store.snapshot()).hunt(q).unwrap();
        assert_eq!(delivered, batch.matches.len());
    }

    #[test]
    fn distinct_rows_stay_distinct_across_polls() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(3_000)
            .build();
        let q = "proc p[\"%/bin/tar%\"] read file f[\"%/etc/passwd%\"] as e1\nreturn distinct p, f";
        let mut store = StreamingStore::new(true, SealPolicy::events(300));
        let mut hunt = follow(q);
        store.append_batch(&sc.log.entities, &[]);
        for batch in sc.log.events.chunks(400) {
            store.append_batch(&[], batch);
            hunt.poll(&store.snapshot()).unwrap();
        }
        let rows = &hunt.result().unwrap().rows;
        let mut deduped = rows.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(rows.len(), deduped.len(), "distinct rows must not repeat");
        assert!(!rows.is_empty());
    }
}
