//! The executor: scheduling, constraint propagation and cross-pattern
//! assembly.
//!
//! One pattern's data query runs in two halves. **Resolve**: each
//! endpoint variable's typed filter ([`EntityFilter`]) is evaluated once
//! on the entity catalog's entities — every entity of the variable's
//! kind, walked through the catalog's per-kind positions, or only the
//! ids earlier patterns bound when propagation applies, each read at
//! `id − base` — into a dense id set. **Scan**: an event pattern searches
//! each shard's event postings with those sets, picking the cheapest of
//! the subject, object and operation postings by their sizes
//! (`scan_events`); a path pattern expands hop by hop over the subject
//! postings (`expand_paths`). The split is what lets the
//! sharded executor resolve once and hand the same sets to every shard's
//! scan. Rows then meet the partial matches in the slot-compiled hash
//! join of the crate's `join` module.
//!
//! [`Engine`] is a name for [`ShardedEngine`] kept by the benchmark's
//! frozen surface: every hunt, whatever its store, runs the same scan,
//! path expansion, feasible-range clamp and row order.

use crate::compile::{compile, CompiledPattern, CompiledQuery, CompiledShape};
use crate::error::EngineError;
use crate::filter::EntityFilter;
use crate::idset::IdSet;
use crate::join::{join_rows, propagate, Bound, PatternRow, Schedule, Tuples, Witness};
use crate::result::{DeltaStats, HuntResult, HuntStats, JoinStats, Match, PatternStats};
use crate::sharded::ShardedEngine;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::time::Instant;
use threatraptor_audit::entity::EntityId;
use threatraptor_audit::event::{Event, Operation};
use threatraptor_storage::catalog::EntityCatalog;
use threatraptor_storage::postings::EventPostings;
use threatraptor_storage::sharded::ShardedStore;
use threatraptor_storage::store::EventShard;
use threatraptor_tbql::analyze::analyze;
use threatraptor_tbql::ast::{Query, TimeWindow};
use threatraptor_tbql::parser::parse_query;

/// The execution strategy, of which there is one: pruning-score
/// scheduling with constraint propagation across patterns connected by
/// shared entities (the paper's §II-F design). The enum survives only
/// because the frozen benchmark surface (`benchmark/README.md`) names
/// `ExecMode::Scheduled` in `Engine::hunt_query`, `ShardedEngine::execute`
/// and `FollowHunt::new`, which accept and ignore it; it goes at the next
/// benchmark-surface revision. The comparison baselines of the efficiency
/// experiments live in [`crate::baseline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// The paper's scheduled strategy.
    Scheduled,
}

/// The query engine under the name the benchmark's frozen surface uses:
/// a [`ShardedEngine`] over the same store, so it returns exactly what
/// that engine returns, in the same order. An
/// [`AuditStore`](threatraptor_storage::AuditStore) coerces to the
/// `&ShardedStore` [`Engine::new`] takes.
#[derive(Debug, Clone, Copy)]
pub struct Engine<'s> {
    store: &'s ShardedStore,
}

impl<'s> Engine<'s> {
    /// Creates an engine over a store.
    pub fn new(store: &'s ShardedStore) -> Engine<'s> {
        Engine { store }
    }

    /// Parses, analyzes, compiles, and executes TBQL source. Queries the
    /// lint pass proves can never match (temporal infeasibility,
    /// contradictory filters) are rejected at the compile step with
    /// [`EngineError::Infeasible`] before any rows are scanned.
    pub fn hunt(&self, tbql: &str) -> Result<HuntResult, EngineError> {
        self.hunt_query(&parse_query(tbql)?, ExecMode::Scheduled)
    }

    /// Executes an already parsed query (`_mode` is the vestigial
    /// [`ExecMode`]).
    pub fn hunt_query(&self, query: &Query, _mode: ExecMode) -> Result<HuntResult, EngineError> {
        self.execute(&compile(&analyze(query)?)?)
    }

    /// Executes a compiled query.
    pub fn execute(&self, cq: &CompiledQuery) -> Result<HuntResult, EngineError> {
        ShardedEngine::new(self.store).execute(cq, ExecMode::Scheduled)
    }
}

/// Scans one shard for an event pattern's rows, given its admitted
/// operations, the resolved id sets of its subject and object variables
/// and its window.
///
/// Access-path selection over the shard's postings (the paper's "mature
/// indexing mechanisms"): probe by subject ids, by object ids, or by
/// operation — whichever is estimated cheapest — then filter residual
/// conditions. Rows come back in position order.
pub(crate) fn scan_events(
    shard: &EventShard,
    ops: &[Operation],
    subjects: &IdSet,
    objects: &IdSet,
    window: Option<TimeWindow>,
) -> Vec<PatternRow> {
    if subjects.is_empty() || objects.is_empty() {
        return Vec::new();
    }
    let postings = shard.postings();

    // Estimate each access path by exact posting-list sizes, which the
    // postings lend without copying. An id path costs one probe per id
    // plus the rows it yields; summing stops as soon as the path cannot
    // beat the best one so far, so an unselective variable (every
    // process, say) costs a few probes, not one per entity.
    let op_buckets: Vec<&[u32]> = ops.iter().map(|&o| postings.by_op(o)).collect();
    let id_path_cost = |probe: fn(&EventPostings, EntityId) -> &[u32],
                        ids: &IdSet,
                        budget: usize|
     -> Option<usize> {
        let mut cost = ids.len();
        for id in ids.iter() {
            if cost > budget {
                return None;
            }
            cost += probe(postings, id).len();
        }
        (cost <= budget).then_some(cost)
    };
    let op_cost = op_buckets.iter().map(|b| b.len()).sum();
    let subject_cost = id_path_cost(EventPostings::by_subject, subjects, op_cost);
    let object_cost = id_path_cost(
        EventPostings::by_object,
        objects,
        subject_cost.unwrap_or(op_cost),
    );
    let buckets_of = |probe: fn(&EventPostings, EntityId) -> &[u32], ids: &IdSet| {
        ids.iter().map(|id| probe(postings, id)).collect::<Vec<_>>()
    };
    let candidates = if object_cost.is_some() {
        buckets_of(EventPostings::by_object, objects)
    } else if subject_cost.is_some() {
        buckets_of(EventPostings::by_subject, subjects)
    } else {
        op_buckets
    };

    let mut out = Vec::new();
    for &pos in candidates.into_iter().flatten() {
        let pos = pos as usize;
        let ev = shard.event_at(pos);
        if !ops.contains(&ev.op)
            || !subjects.contains(ev.subject)
            || !objects.contains(ev.object)
            || window.is_some_and(|w| ev.start < w.lo || ev.end > w.hi)
        {
            continue;
        }
        out.push(PatternRow {
            subject: ev.subject,
            object: ev.object,
            events: Witness::Event(pos),
            start: ev.start,
            end: ev.end,
        });
    }
    out.sort_unstable_by_key(|r| r.events.first());
    out
}

/// Ids of the entities `filter` matches that, when earlier patterns
/// already bound the variable, lie among those ids: the union over the
/// catalog's generations. With `bound` ids only their entities are
/// examined (each id in the generation owning its range, at `id − base`);
/// otherwise every entity of the filter's kind is.
pub(crate) fn resolve_ids(
    catalog: &EntityCatalog,
    filter: &EntityFilter,
    bound: Option<&IdSet>,
) -> IdSet {
    let mut out = IdSet::default();
    let Some(bound) = bound else {
        resolve_from(catalog, filter, 0, &mut out);
        return out;
    };
    // Ascending ids meet ascending id ranges: one pass over both.
    let mut ids = bound.iter().peekable();
    for generation in catalog.generations() {
        let entities = generation.entities();
        while let Some(id) = ids.next_if(|id| id.index() < generation.end()) {
            if filter.matches(&entities[id.index() - generation.base()]) {
                out.insert(id);
            }
        }
    }
    out
}

/// Adds to `out` the ids `≥ from` of the catalog's entities that `filter`
/// matches, and returns the number of entities of its kind in that range
/// (the entity rows examined). `from = 0` resolves the whole catalog; the
/// delta executor passes the length its memoized sets already cover, so a
/// poll evaluates only the entities appended since the last one.
///
/// Each generation lists the positions of its entities of a kind in
/// ascending order, so a partition point finds the first one in range.
pub(crate) fn resolve_from(
    catalog: &EntityCatalog,
    filter: &EntityFilter,
    from: usize,
    out: &mut IdSet,
) -> usize {
    let mut examined = 0;
    for generation in catalog.generations().iter().filter(|g| g.end() > from) {
        let (base, entities) = (generation.base(), generation.entities());
        let positions = generation.positions(filter.kind);
        let first = positions.partition_point(|&pos| base + (pos as usize) < from);
        examined += positions.len() - first;
        for &pos in &positions[first..] {
            // The id is `base + pos`: an unfiltered variable never reads
            // its entities.
            if filter.cond.eval(&entities[pos as usize]) {
                out.insert(EntityId((base + pos as usize) as u32));
            }
        }
    }
    examined
}

/// One pattern's data query as seen by the stage loop: the pattern, the
/// resolved id sets of its subject and object variables and the lowest
/// event position to scan in; its rows, rows per shard and rows the DBM
/// clamp excluded out ([`ShardedEngine`]'s `fetch_pattern`).
pub(crate) type PatternFetch<'a> =
    dyn FnMut(&CompiledPattern, &IdSet, &IdSet, usize) -> (Vec<PatternRow>, Vec<usize>, usize) + 'a;

/// The stage loop (paper §II-F): the patterns in `schedule` order, each
/// through constraint propagation, endpoint resolution, its data query
/// and the hash join, computing the delta-join recurrence
///
/// ```text
/// Δ₀ = fresh₀
/// Δᵢ = (Pᵢ₋₁ ⋈ freshᵢ) ∪ (Δᵢ₋₁ ⋈ fullᵢ)
/// ```
///
/// `resolve(slot, bound)` is variable `slot`'s id set, narrowed to the
/// propagated `bound` ids. `retained` is a standing query's `(partials, fresh_from, stable_to)`:
/// `Pᵢ` = `partials[i]` are the retained joins of the schedule prefix
/// `0..=i` whose witnesses all lie below `fresh_from`, `freshᵢ` scans
/// positions from `fresh_from` on and `fullᵢ` scans everything. The two
/// branches are disjoint (a combination is produced once, at its first
/// fresh stage), so the union is concatenation, and branch B is skipped
/// while `Δᵢ₋₁` is empty. A full hunt retains nothing and starts at
/// position 0: branch A runs only at stage 0, and branch B is plain
/// propagate → resolve → fetch → join. Once Δ is empty and no later
/// retained prefix is either, no match can form and the remaining
/// patterns are not run.
///
/// Returns the final Δ (in join order, not projected), the combinations
/// each proper prefix produced whose witnesses all lie below `stable_to`
/// (empty for a full hunt), and the per-pattern stats. Events only enter
/// through `fetch` and entities through `resolve`, so the executor, the
/// delta executor and the baselines share this loop verbatim.
pub(crate) fn run_schedule<'r>(
    cq: &CompiledQuery,
    schedule: &Schedule,
    resolve: &dyn Fn(usize, Option<&IdSet>) -> Cow<'r, IdSet>,
    fetch: &mut PatternFetch<'_>,
    retained: Option<(&[Tuples], usize, usize)>,
) -> (Tuples, Vec<Tuples>, HuntStats) {
    let layout = &schedule.layout;
    let (partials, fresh_from, stable_to) = retained.unwrap_or((&[], 0, 0));
    let mut stats = HuntStats::default();
    let (mut fresh_rows, mut carry_rows) = (0, 0);
    let mut delta = Tuples::new(layout);
    let mut stable = Vec::with_capacity(partials.len());
    for (i, step) in schedule.steps.iter().enumerate() {
        let pat = &cq.patterns[step.pat];
        let mut record = PatternStats {
            pattern: pat.id.clone(),
            ..PatternStats::default()
        };
        // Joins the pattern's rows from `min_pos` on into `partial`
        // (`None`: seeds from the rows); returns the joined tuples and
        // the rows fetched.
        let mut stage = |partial: Option<&Tuples>, min_pos: usize| {
            let mut bound: Bound = [None, None];
            if let Some(p) = partial.filter(|_| schedule.propagate) {
                let t = Instant::now();
                bound = propagate(pat, p, &mut record.propagated);
                stats.propagate_elapsed += t.elapsed();
            }
            let t = Instant::now();
            let subjects = resolve(pat.subject_slot, bound[0].as_ref());
            let objects = resolve(pat.object_slot, bound[1].as_ref());
            stats.resolve_elapsed += t.elapsed();
            let t = Instant::now();
            let (rows, shard_rows, rows_pruned) = fetch(pat, &subjects, &objects, min_pos);
            let candidates = partial.map_or(rows.len(), |p| p.len() * rows.len());
            record.add(&PatternStats {
                shard_rows,
                join: JoinStats {
                    candidates,
                    outputs: 0,
                },
                rows_pruned,
                elapsed: t.elapsed(),
                ..PatternStats::default()
            });
            let t = Instant::now();
            let joined = join_rows(layout, partial, &rows, pat, step);
            stats.join_elapsed += t.elapsed();
            (joined, rows.len())
        };
        // Branch A: fresh rows against the retained prefix (stage 0
        // seeds from its fresh scan alone).
        let mut next = Tuples::new(layout);
        let seed = i.checked_sub(1).and_then(|prefix| partials.get(prefix));
        if i == 0 || seed.is_some_and(|p| !p.is_empty()) {
            let (joined, rows) = stage(seed, fresh_from);
            fresh_rows += rows;
            next = joined;
        }
        // Branch B: combinations already carrying a fresh witness,
        // through the pattern's full range.
        if !delta.is_empty() {
            let (joined, rows) = stage(Some(&delta), 0);
            carry_rows += rows;
            next.append(joined);
        }
        record.join.outputs = next.len();
        stats.patterns.push(record);
        if i < partials.len() {
            stable.push(next.select((0..next.len()).filter(|&t| next.max_pos(t) < stable_to)));
        }
        delta = next;
        if delta.is_empty() && partials.iter().skip(i).all(Tuples::is_empty) {
            break;
        }
    }
    stats.delta = retained.map(|_| DeltaStats {
        fresh_from,
        fresh_rows,
        carry_rows,
        ..DeltaStats::default()
    });
    (delta, stable, stats)
}

/// A full hunt: the stage loop with nothing retained, each variable
/// resolved against `catalog`, then the matches projected through
/// `entity_attr`.
pub(crate) fn run_hunt(
    cq: &CompiledQuery,
    schedule: &Schedule,
    catalog: &EntityCatalog,
    fetch: &mut PatternFetch<'_>,
    entity_attr: &dyn Fn(EntityId, &str) -> Option<String>,
) -> HuntResult {
    let t0 = Instant::now();
    let resolve = |slot: usize, bound: Option<&IdSet>| {
        Cow::Owned(resolve_ids(catalog, &cq.var_filters[slot], bound))
    };
    let (tuples, _, mut stats) = run_schedule(cq, schedule, &resolve, fetch, None);
    let t = Instant::now();
    let (columns, rows) = project_tuples(cq, &tuples, entity_attr);
    stats.project_elapsed = t.elapsed();
    let t = Instant::now();
    let matches = tuples.to_matches(cq, &schedule.layout);
    stats.join_elapsed += t.elapsed();
    stats.elapsed = t0.elapsed();
    HuntResult {
        columns,
        rows,
        matches,
        stats,
    }
}

/// Projects complete tuples into the result table, `entity_attr`
/// rendering an entity's attribute.
pub(crate) fn project_tuples(
    cq: &CompiledQuery,
    tuples: &Tuples,
    entity_attr: &dyn Fn(EntityId, &str) -> Option<String>,
) -> (Vec<String>, Vec<Vec<String>>) {
    project(
        cq,
        tuples.len(),
        &|i, col| tuples.ent(i, cq.return_slots[col]),
        entity_attr,
    )
}

/// [`project_tuples`] for materialized matches.
pub(crate) fn project_matches(
    cq: &CompiledQuery,
    matches: &[Match],
    entity_attr: &dyn Fn(EntityId, &str) -> Option<String>,
) -> (Vec<String>, Vec<Vec<String>>) {
    project(
        cq,
        matches.len(),
        &|i, col| matches[i].bindings[&cq.returns[col].0],
        entity_attr,
    )
}

/// Renders the return clause for `n` matches, `id_at(match, column)`
/// giving the entity a return column refers to.
///
/// A `distinct` query renders each entity's attribute once per column
/// and interns the strings, then deduplicates matches on their tuples of
/// interned ids before building any row — a haystack query keeps a few
/// dozen rows of thousands of matches, and distinct entity ids often
/// render alike (every `/bin/cat` process), so deduplicating on entity
/// ids alone would still render most of them. Surviving rows are sorted,
/// as a `distinct` result always was.
fn project(
    cq: &CompiledQuery,
    n: usize,
    id_at: &dyn Fn(usize, usize) -> EntityId,
    entity_attr: &dyn Fn(EntityId, &str) -> Option<String>,
) -> (Vec<String>, Vec<Vec<String>>) {
    let columns = cq.columns();
    let render =
        |id: EntityId, attr: &str| entity_attr(id, attr).unwrap_or_else(|| "<none>".into());
    if !cq.distinct {
        let rows = (0..n)
            .map(|i| {
                cq.returns
                    .iter()
                    .enumerate()
                    .map(|(col, (_, attr))| render(id_at(i, col), attr))
                    .collect()
            })
            .collect();
        return (columns, rows);
    }

    const UNSEEN: u32 = u32::MAX;
    let width = cq.returns.len();
    let mut strings: Vec<String> = Vec::new();
    let mut string_ids: HashMap<String, u32> = HashMap::new();
    // Per column: entity id → interned id of its rendered attribute.
    let mut rendered: Vec<Vec<u32>> = vec![Vec::new(); width];
    let mut keys: Vec<u32> = Vec::with_capacity(n * width);
    for i in 0..n {
        for (col, (_, attr)) in cq.returns.iter().enumerate() {
            let id = id_at(i, col);
            let memo = &mut rendered[col];
            if memo.len() <= id.index() {
                memo.resize(id.index() + 1, UNSEEN);
            }
            if memo[id.index()] == UNSEEN {
                let text = render(id, attr);
                memo[id.index()] = *string_ids.entry(text).or_insert_with_key(|text| {
                    strings.push(text.clone());
                    (strings.len() - 1) as u32
                });
            }
            keys.push(memo[id.index()]);
        }
    }
    let mut seen: HashSet<&[u32]> = HashSet::new();
    let mut rows: Vec<Vec<String>> = (0..n)
        .map(|i| &keys[i * width..(i + 1) * width])
        .filter(|key| seen.insert(key))
        .map(|key| key.iter().map(|&s| strings[s as usize].clone()).collect())
        .collect();
    rows.sort();
    (columns, rows)
}

/// Safety cap on enumerated paths: [`expand_paths`] and the graph
/// baseline's search stop once they have emitted this many. Dense graphs
/// make path counts combinatorial, and an uncapped expansion is an
/// unbounded memory/time sink in a multi-tenant service.
/// The cap is a resource valve, not a semantic guarantee: which paths
/// survive it is the expansion order's first ones.
pub(crate) const MAX_PATH_MATCHES: usize = 100_000;

/// Hop-by-hop frontier expansion of a variable-length path pattern over an
/// abstract event index: `subject_index` answers "positions of events with
/// this subject" and `event_at` resolves a position. The executor merges
/// every shard's postings into global positions; the relational-only
/// baseline backs these with one shard's subject postings. A probe
/// *lends* its positions (`P` is a borrowed slice or a shared handle to a
/// memoized merge), because a hot node is probed once per partial path
/// reaching it. Output is truncated at [`MAX_PATH_MATCHES`].
pub(crate) fn expand_paths<'a, P: Deref<Target = [u32]>>(
    pat: &CompiledPattern,
    srcs: &IdSet,
    dsts: &IdSet,
    subject_index: impl Fn(EntityId) -> P,
    event_at: impl Fn(usize) -> &'a Event,
) -> Vec<PatternRow> {
    let CompiledShape::Path {
        min_hops,
        max_hops,
        last_op,
    } = &pat.shape
    else {
        unreachable!()
    };
    // No source or no admissible destination means no path can ever
    // complete — skip the (potentially combinatorial) expansion entirely,
    // like the event-pattern executors do for empty entity sets.
    if srcs.is_empty() || dsts.is_empty() {
        return Vec::new();
    }

    // Partial paths form a tree: each step records its event and the step
    // it extends, so extending a path is one push, not a copy of its
    // prefix (no allocation per partial path). Roots are the sources.
    const ROOT: usize = usize::MAX;
    struct Step {
        prev: usize,
        pos: usize,
        node: EntityId,
        start: u64,
        end: u64,
    }
    /// The positions of the path ending at step `s`, last first.
    fn chain(steps: &[Step], mut s: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::from_fn(move || {
            let step = &steps[s];
            (step.pos != ROOT).then(|| {
                s = step.prev;
                step.pos
            })
        })
    }
    // Ascending sources (an `IdSet` iterates in id order) keep the
    // expansion order, and any truncated subset, deterministic.
    let mut steps: Vec<Step> = srcs
        .iter()
        .map(|node| Step {
            prev: ROOT,
            pos: ROOT,
            node,
            start: 0,
            end: 0,
        })
        .collect();
    let mut frontier: Vec<usize> = (0..steps.len()).collect();
    let mut out = Vec::new();
    'expansion: for hop in 1..=*max_hops {
        let mut next = Vec::new();
        for &p in &frontier {
            let (node, first, start, end) = {
                let step = &steps[p];
                (step.node, step.pos == ROOT, step.start, step.end)
            };
            // SELECT * FROM event WHERE subject = node AND start >= end
            for &rid in subject_index(node).iter() {
                let rid = rid as usize;
                let ev = event_at(rid);
                if !first && ev.start < end {
                    continue; // time-monotone
                }
                if chain(&steps, p).any(|pos| pos == rid) {
                    continue;
                }
                if let Some(w) = pat.window {
                    if ev.start < w.lo || ev.end > w.hi {
                        continue;
                    }
                }
                let start = if first { ev.start } else { start };
                steps.push(Step {
                    prev: p,
                    pos: rid,
                    node: ev.object,
                    start,
                    end: ev.end,
                });
                let s = steps.len() - 1;
                if hop >= *min_hops && ev.op == *last_op && dsts.contains(ev.object) {
                    let mut positions: Vec<usize> = chain(&steps, s).collect();
                    positions.reverse();
                    out.push(PatternRow {
                        subject: event_at(positions[0]).subject,
                        object: ev.object,
                        events: Witness::Path(positions.into()),
                        start,
                        end: ev.end,
                    });
                    if out.len() >= MAX_PATH_MATCHES {
                        break 'expansion;
                    }
                }
                next.push(s);
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    // Position-sorted output: one row order however the events are
    // sharded (hop-major expansion order is not sorted).
    out.sort_unstable_by(|a, b| a.events.positions().cmp(b.events.positions()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{self, Baseline};
    use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
    use threatraptor_storage::AuditStore;
    use threatraptor_tbql::parser::FIG2_TBQL;

    fn store() -> AuditStore {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(5_000)
            .build();
        AuditStore::ingest(&sc.log, true)
    }

    #[test]
    fn fig2_query_finds_the_attack() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(5_000)
            .build();
        let store = AuditStore::ingest(&sc.log, true);
        let engine = Engine::new(&store);
        let result = engine.hunt(FIG2_TBQL).expect("hunt succeeds");
        assert!(!result.is_empty(), "the attack must be found");
        // Exactly the ground-truth chain.
        let (precision, recall) = result.precision_recall(&store, &sc.ground_truth("data_leakage"));
        assert_eq!(precision, 1.0, "no benign events may match");
        assert_eq!(recall, 1.0, "all 8 steps must be matched");
        // The projection mirrors Fig. 2's return clause.
        assert_eq!(result.columns[0], "p1.exename");
        assert!(result.rows.iter().any(|r| r[0] == "/bin/tar"));
    }

    #[test]
    fn all_modes_agree_on_results() {
        let store = store();
        let scheduled = Engine::new(&store).hunt(FIG2_TBQL).unwrap();
        for baseline in Baseline::ALL {
            let r = baseline::hunt(&store, FIG2_TBQL, baseline).unwrap();
            assert_eq!(r.rows, scheduled.rows, "{baseline:?} must agree");
        }
    }

    #[test]
    fn scheduled_executes_most_constrained_first() {
        let store = store();
        let order = |r: &HuntResult| -> Vec<String> {
            r.stats.patterns.iter().map(|p| p.pattern.clone()).collect()
        };
        let scheduled = order(&Engine::new(&store).hunt(FIG2_TBQL).unwrap());
        // evt1 (2 filters) and evt8 (2 filters) precede 1-filter patterns.
        let pos = |id: &str| scheduled.iter().position(|x| x == id).unwrap();
        assert!(pos("evt1") < pos("evt2"));
        assert!(pos("evt8") < pos("evt2"));
        // Every baseline keeps declaration order.
        for baseline in Baseline::ALL {
            let r = baseline::hunt(&store, FIG2_TBQL, baseline).unwrap();
            assert_eq!(order(&r)[..2], ["evt1", "evt2"]);
        }
    }

    #[test]
    fn propagation_reduces_fetched_rows() {
        let store = store();
        let scheduled = Engine::new(&store).hunt(FIG2_TBQL).unwrap();
        let total = |r: &HuntResult| r.stats.total_rows();
        for baseline in Baseline::ALL {
            // Baselines never propagate.
            let r = baseline::hunt(&store, FIG2_TBQL, baseline).unwrap();
            assert!(r.stats.patterns.iter().all(|p| p.propagated.is_empty()));
            assert!(
                total(&scheduled) <= total(&r),
                "propagation must not fetch more rows ({} vs {} for {baseline:?})",
                total(&scheduled),
                total(&r)
            );
        }
    }

    #[test]
    fn temporal_constraints_prune() {
        let store = store();
        let engine = Engine::new(&store);
        // Reversed ordering must not match (bzip2 runs after tar).
        let reversed = "proc p2[\"%/bin/bzip2%\"] read file f2[\"%/tmp/upload.tar%\"] as e1\n\
                        proc p1[\"%/bin/tar%\"] write f2 as e2\n\
                        with e1 before e2\n\
                        return p1, p2";
        let r = engine.hunt(reversed).unwrap();
        assert!(r.is_empty(), "temporal contradiction with reality");
    }

    #[test]
    fn path_patterns_find_multi_hop_flows() {
        let store = store();
        let engine = Engine::new(&store);
        // /etc/passwd flows to the C2 IP through tar→file→bzip2→… chain?
        // A 1~4 hop path from the tar process to a file whose final hop is
        // a write must exist (tar writes /tmp/upload.tar).
        let q = "proc p[\"%/bin/tar%\"] ~>(1~2)[write] file f[\"%/tmp/upload.tar%\"] as pp1\n\
                 return p, f";
        let r = engine.hunt(q).unwrap();
        assert!(!r.is_empty());
        // Graph and SQL expansion agree.
        for baseline in Baseline::ALL {
            assert_eq!(r.rows, baseline::hunt(&store, q, baseline).unwrap().rows);
        }
    }

    #[test]
    fn empty_result_for_absent_behavior() {
        let store = store();
        let engine = Engine::new(&store);
        let r = engine
            .hunt("proc p[\"%/bin/ghost%\"] read file f return p")
            .unwrap();
        assert!(r.is_empty());
        assert_eq!(r.precision_recall(&store, &[]), (1.0, 1.0));
    }

    #[test]
    fn semantic_errors_propagate() {
        let store = store();
        let engine = Engine::new(&store);
        let err = engine.hunt("file x read file f return f").unwrap_err();
        assert!(matches!(err, EngineError::Semantic(_)));
    }

    #[test]
    fn window_restricts_matches() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(5_000)
            .build();
        let store = AuditStore::ingest(&sc.log, true);
        let engine = Engine::new(&store);
        // The attack happens somewhere inside the scenario; a window
        // ending at t=1 excludes it.
        let q =
            "proc p[\"%/bin/tar%\"] read file f[\"%/etc/passwd%\"] as e1 window [0, 1] return p";
        let r = engine.hunt(q).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn distinct_projection_merges_ids_that_render_alike() {
        let compiled =
            |tbql: &str| compile(&analyze(&parse_query(tbql).unwrap()).unwrap()).unwrap();
        // Entities 1 and 2 are two processes running the same binary.
        let attr = |id: EntityId, _: &str| {
            Some(match id.0 {
                1 | 2 => "/bin/cat".to_string(),
                n => format!("/f{n}"),
            })
        };
        let ids = [[2u32, 11], [1, 10], [2, 10], [1, 10], [1, 11]];
        let id_at = |i: usize, col: usize| EntityId(ids[i][col]);

        let cq = compiled("proc p read file f return distinct p, f");
        let (columns, rows) = project(&cq, ids.len(), &id_at, &attr);
        assert_eq!(columns, ["p.exename", "f.name"]);
        assert_eq!(rows, [["/bin/cat", "/f10"], ["/bin/cat", "/f11"]]);

        // Without `distinct`, every match keeps its row, in match order.
        let cq = compiled("proc p read file f return p, f");
        let (_, rows) = project(&cq, ids.len(), &id_at, &attr);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0], ["/bin/cat", "/f11"]);
    }

    #[test]
    fn self_loop_patterns_require_same_entity() {
        let store = store();
        let engine = Engine::new(&store);
        // `p fork p` would require a process forking itself — none exist.
        let r = engine.hunt("proc p fork p as e1 return p").unwrap();
        assert!(r.is_empty());
    }

    /// The postings-backed scan against the plainest possible evaluator:
    /// no index, one pass over `&[Event]` in position order. The
    /// benchmark's oracle (`Engine` over `AuditStore`) shares the
    /// postings, so this is what catches a wrong index.
    mod differential {
        use super::*;
        use proptest::prelude::*;
        use threatraptor_audit::event::EventId;

        const IDS: u32 = 10;

        /// Events with random ops, ids below [`IDS`] and non-decreasing
        /// starts.
        fn events(raw: &[(u8, u32, u32, u64, u64)]) -> Vec<Event> {
            let mut start = 0;
            raw.iter()
                .enumerate()
                .map(|(i, &(op, subject, object, gap, len))| {
                    start += gap;
                    Event {
                        id: EventId(i as u32),
                        subject: EntityId(subject),
                        op: Operation::ALL[usize::from(op)],
                        object: EntityId(object),
                        start,
                        end: start + len,
                        bytes: 0,
                        merged: 1,
                        tag: None,
                    }
                })
                .collect()
        }

        fn id_set(mask: u32) -> IdSet {
            (0..IDS)
                .filter(|i| mask & (1 << i) != 0)
                .map(EntityId)
                .collect()
        }

        fn naive(
            events: &[Event],
            ops: &[Operation],
            subjects: &IdSet,
            objects: &IdSet,
            window: Option<TimeWindow>,
        ) -> Vec<(usize, EntityId, EntityId, u64, u64)> {
            events
                .iter()
                .enumerate()
                .filter(|(_, e)| {
                    ops.contains(&e.op)
                        && subjects.contains(e.subject)
                        && objects.contains(e.object)
                        && window.is_none_or(|w| e.start >= w.lo && e.end <= w.hi)
                })
                .map(|(pos, e)| (pos, e.subject, e.object, e.start, e.end))
                .collect()
        }

        fn rows(rows: Vec<PatternRow>) -> Vec<(usize, EntityId, EntityId, u64, u64)> {
            rows.into_iter()
                .map(|r| (r.events.first(), r.subject, r.object, r.start, r.end))
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random events × subject/object id sets × op sets ×
            /// optional window: the scan returns exactly the naive
            /// filter's rows, in position order, whichever access path
            /// the bucket sizes pick — over one shard, and over a shard
            /// built from the concatenation of two slices (compaction).
            #[test]
            fn event_scan_matches_a_naive_filter(
                raw in prop::collection::vec((0u8..18, 0u32..IDS, 0u32..IDS, 0u64..5, 0u64..4), 0..150),
                masks in (any::<u32>(), any::<u32>(), any::<u32>()),
                window in (any::<bool>(), 0u64..300, 0u64..300),
                cut in 0usize..150,
            ) {
                let events = events(&raw);
                let (subjects, objects) = (id_set(masks.0), id_set(masks.1));
                // Sparse op sets favour the id paths, dense ones the op path.
                let ops: Vec<Operation> = Operation::ALL
                    .into_iter()
                    .enumerate()
                    .filter(|(k, _)| masks.2 & (1 << k) != 0)
                    .map(|(_, op)| op)
                    .collect();
                let window = window.0.then(|| TimeWindow {
                    lo: window.1.min(window.2),
                    hi: window.1.max(window.2),
                });
                let expected = naive(&events, &ops, &subjects, &objects, window);

                let shard = EventShard::build(events.clone());
                let got = scan_events(&shard, &ops, &subjects, &objects, window);
                prop_assert_eq!(rows(got), expected.clone());

                let (a, b) = events.split_at(cut.min(events.len()));
                let compacted = EventShard::build([a, b].concat());
                let got = scan_events(&compacted, &ops, &subjects, &objects, window);
                prop_assert_eq!(rows(got), expected);
            }
        }
    }
}
