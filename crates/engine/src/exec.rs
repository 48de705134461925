//! The executor: scheduling, constraint propagation, cross-pattern
//! assembly, and the baseline execution modes.
//!
//! One pattern's data query runs in two halves. **Resolve**: each
//! endpoint variable's predicate — narrowed to the ids earlier patterns
//! bound, when propagation applies — is evaluated once against the
//! entity catalog into a dense id set. **Scan**: the event table (or graph)
//! is searched with those sets, picking the cheapest of the subject,
//! object and operation indexes by their bucket sizes. The split is what
//! lets the sharded executor resolve once and hand the same sets to every
//! shard's scan. Rows then meet the partial matches in the slot-compiled
//! hash join of the crate's `join` module.

use crate::compile::{compile, CompiledPattern, CompiledQuery, CompiledShape};
use crate::error::EngineError;
use crate::idset::IdSet;
use crate::join::{join_rows, propagate, Bound, PatternRow, Schedule, Tuples, Witness};
use crate::result::{HuntResult, HuntStats, JoinStats, Match};
use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::time::Instant;
use threatraptor_audit::entity::{EntityId, EntityKind};
use threatraptor_audit::event::{Event, Operation};
use threatraptor_storage::catalog::EntityCatalog;
use threatraptor_storage::relational::{Index, Predicate, Value};
use threatraptor_storage::store::{AuditStore, EventShard};
use threatraptor_tbql::analyze::{analyze, AnalyzedQuery};
use threatraptor_tbql::ast::Query;
use threatraptor_tbql::parser::parse_query;

/// Execution strategies. `Scheduled` is ThreatRaptor's; the others are
/// the baselines of the efficiency experiments (E3/E4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Pruning-score scheduling with constraint propagation across
    /// patterns connected by shared entities (the paper's §II-F design).
    Scheduled,
    /// Declaration order, every pattern executed independently with only
    /// its own filters (no propagation); independent data queries run in
    /// parallel.
    Unscheduled,
    /// Everything through the relational backend: path patterns are
    /// expanded hop by hop with event-table joins (what plain SQL forces
    /// you into).
    RelationalOnly,
    /// Everything through the graph backend: event patterns scan edges
    /// without relational indexes.
    GraphOnly,
}

impl ExecMode {
    /// Human-readable label (used by the experiment harnesses).
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Scheduled => "ThreatRaptor (scheduled)",
            ExecMode::Unscheduled => "Unscheduled",
            ExecMode::RelationalOnly => "Relational-only (SQL)",
            ExecMode::GraphOnly => "Graph-only (Cypher)",
        }
    }
}

/// The query engine over one audit store.
#[derive(Debug, Clone, Copy)]
pub struct Engine<'s> {
    store: &'s AuditStore,
}

impl<'s> Engine<'s> {
    /// Creates an engine over a store.
    pub fn new(store: &'s AuditStore) -> Engine<'s> {
        Engine { store }
    }

    /// Parses, analyzes, compiles, and executes TBQL source with the
    /// scheduled strategy. Queries the lint pass proves can never match
    /// (temporal infeasibility, contradictory filters) are rejected at
    /// the compile step with [`EngineError::Infeasible`] before any
    /// rows are scanned.
    pub fn hunt(&self, tbql: &str) -> Result<HuntResult, EngineError> {
        self.hunt_mode(tbql, ExecMode::Scheduled)
    }

    /// Like [`Engine::hunt`] with an explicit execution mode.
    pub fn hunt_mode(&self, tbql: &str, mode: ExecMode) -> Result<HuntResult, EngineError> {
        let query = parse_query(tbql)?;
        self.hunt_query(&query, mode)
    }

    /// Executes an already parsed query.
    pub fn hunt_query(&self, query: &Query, mode: ExecMode) -> Result<HuntResult, EngineError> {
        let analyzed = analyze(query)?;
        self.hunt_analyzed(&analyzed, mode)
    }

    /// Executes an analyzed query.
    pub fn hunt_analyzed(
        &self,
        analyzed: &AnalyzedQuery,
        mode: ExecMode,
    ) -> Result<HuntResult, EngineError> {
        let compiled = compile(analyzed)?;
        self.execute(&compiled, mode)
    }

    /// Executes a compiled query.
    pub fn execute(&self, cq: &CompiledQuery, mode: ExecMode) -> Result<HuntResult, EngineError> {
        let mut result = run_schedule(
            cq,
            mode,
            &mut |pat, bound| {
                let (subjects, objects) = resolve_endpoints(cq, pat, bound, &self.store.entities);
                scan_pattern(self.store, cq, pat, &subjects, &objects, mode)
            },
            &|id, attr| self.store.entity(id).attr(attr),
        );
        // Single-store execution is one pseudo-shard.
        result.stats.shard_rows = result
            .stats
            .rows_fetched
            .iter()
            .map(|(id, n)| (id.clone(), vec![*n]))
            .collect();
        Ok(result)
    }
}

/// Scans one shard for one pattern's rows, given the resolved id sets of
/// its subject and object variables.
pub(crate) fn scan_pattern(
    shard: &EventShard,
    cq: &CompiledQuery,
    pat: &CompiledPattern,
    subjects: &IdSet,
    objects: &IdSet,
    mode: ExecMode,
) -> Vec<PatternRow> {
    match (&pat.shape, mode) {
        (CompiledShape::Event { ops }, ExecMode::GraphOnly) => {
            event_via_graph(shard, pat, ops, subjects, objects)
        }
        (CompiledShape::Event { ops }, _) => event_via_sql(shard, pat, ops, subjects, objects),
        (CompiledShape::Path { .. }, ExecMode::RelationalOnly) => {
            path_via_sql(shard, pat, subjects, objects)
        }
        (CompiledShape::Path { .. }, _) => path_via_graph(shard, cq, pat, subjects, objects),
    }
}

/// Event pattern through the relational backend.
///
/// Access-path selection over the event table's indexes (the paper's
/// "mature indexing mechanisms"): probe by subject ids, by object
/// ids, or by operation — whichever is estimated cheapest — then
/// filter residual conditions.
fn event_via_sql<'s>(
    shard: &'s EventShard,
    pat: &CompiledPattern,
    ops: &[String],
    subjects: &IdSet,
    objects: &IdSet,
) -> Vec<PatternRow> {
    if subjects.is_empty() || objects.is_empty() {
        return Vec::new();
    }
    let events = shard.event_table();
    let index = |col: &str| {
        events
            .index(col)
            .expect("the event table indexes op, subject and object")
    };
    let (by_op, by_subject, by_object) = (index("op"), index("subject"), index("object"));
    let ops = parse_ops(ops);

    // Estimate each access path by exact index-bucket sizes, which
    // the indexes lend without copying. An id path costs one probe
    // per id plus the rows it yields; summing stops as soon as the
    // path cannot beat the best one so far, so an unselective
    // variable (every process, say) costs a few probes, not one per
    // entity.
    let op_buckets: Vec<&[usize]> = ops
        .iter()
        .map(|o| by_op.get(&Value::str(o.name())))
        .collect();
    let id_path_cost = |idx: &dyn Index, ids: &IdSet, budget: usize| -> Option<usize> {
        let mut cost = ids.len();
        for id in ids.iter() {
            if cost > budget {
                return None;
            }
            cost += idx.get(&Value::from(id.0)).len();
        }
        (cost <= budget).then_some(cost)
    };
    let op_cost = op_buckets.iter().map(|b| b.len()).sum();
    let subject_cost = id_path_cost(by_subject, subjects, op_cost);
    let object_cost = id_path_cost(by_object, objects, subject_cost.unwrap_or(op_cost));
    let buckets_of = |idx: &'s dyn Index, ids: &IdSet| -> Vec<&'s [usize]> {
        ids.iter().map(|id| idx.get(&Value::from(id.0))).collect()
    };
    let candidates = if object_cost.is_some() {
        buckets_of(by_object, objects)
    } else if subject_cost.is_some() {
        buckets_of(by_subject, subjects)
    } else {
        op_buckets
    };

    let mut out = Vec::new();
    for &pos in candidates.into_iter().flatten() {
        let ev = shard.event_at(pos);
        if !ops.contains(&ev.op)
            || !subjects.contains(ev.subject)
            || !objects.contains(ev.object)
            || pat.window.is_some_and(|w| ev.start < w.lo || ev.end > w.hi)
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

/// Event pattern through the graph backend: scan all edges, filter by
/// operation and endpoint predicates (no relational indexes — the
/// baseline cost the paper's hybrid design avoids).
fn event_via_graph(
    shard: &EventShard,
    pat: &CompiledPattern,
    ops: &[String],
    subjects: &IdSet,
    objects: &IdSet,
) -> Vec<PatternRow> {
    let ops = parse_ops(ops);
    // A graph store has no attribute indexes over edges; it scans.
    // The scan is parallelized across worker threads (crossbeam),
    // as a production graph database would — but only when the edge
    // set is large enough to amortize thread spawns. Small scans run
    // sequentially, which also keeps the sharded executor (which
    // invokes this per shard, possibly from its own worker pool) from
    // stacking a third parallelism layer over tiny slices.
    const PARALLEL_SCAN_THRESHOLD: usize = 65_536;
    let graph = shard.graph();
    let n = graph.edge_count();
    let workers = if n < PARALLEL_SCAN_THRESHOLD {
        1
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .clamp(1, 8)
    };
    let chunk = n.div_ceil(workers);
    let mut out: Vec<PatternRow> = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let (lo, hi) = (w * chunk, ((w + 1) * chunk).min(n));
            let ops = &ops;
            handles.push(scope.spawn(move |_| {
                let mut local = Vec::new();
                for idx in lo..hi {
                    let edge = graph.edge(idx);
                    if !ops.contains(&edge.op) {
                        continue;
                    }
                    if let Some(w) = pat.window {
                        if edge.start < w.lo || edge.end > w.hi {
                            continue;
                        }
                    }
                    if !subjects.contains(edge.src) || !objects.contains(edge.dst) {
                        continue;
                    }
                    local.push(PatternRow {
                        subject: edge.src,
                        object: edge.dst,
                        events: Witness::Event(edge.event_pos),
                        start: edge.start,
                        end: edge.end,
                    });
                }
                local
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scan worker panicked"))
            .collect()
    })
    .expect("crossbeam scope");
    out.sort_unstable_by_key(|r| r.events.first());
    out
}

/// Path pattern through the graph backend.
fn path_via_graph(
    shard: &EventShard,
    cq: &CompiledQuery,
    pat: &CompiledPattern,
    srcs: &IdSet,
    dsts: &IdSet,
) -> Vec<PatternRow> {
    let pq = cq.path_plan(pat, srcs.iter().collect(), dsts.iter().collect());
    let graph = shard.graph();
    pq.search(graph)
        .into_iter()
        .map(|p| {
            let first = graph.edge(p.edges[0]);
            let last = graph.edge(*p.edges.last().expect("non-empty"));
            PatternRow {
                subject: first.src,
                object: last.dst,
                events: Witness::Path(p.edges.iter().map(|&e| graph.edge(e).event_pos).collect()),
                start: first.start,
                end: last.end,
            }
        })
        .collect()
}

/// Path pattern through the relational backend: hop-by-hop frontier
/// expansion with event-table index lookups — the join cascade a pure
/// SQL backend would execute.
fn path_via_sql(
    shard: &EventShard,
    pat: &CompiledPattern,
    srcs: &IdSet,
    dsts: &IdSet,
) -> Vec<PatternRow> {
    let by_subject = shard
        .event_table()
        .index("subject")
        .expect("the event table indexes subject");
    expand_paths(
        pat,
        srcs,
        dsts,
        // SELECT * FROM event WHERE subject = node (index probe).
        |node| by_subject.get(&Value::from(node.0)),
        |pos| shard.event_at(pos),
    )
}

/// The operations an event pattern admits (names validated by analysis).
fn parse_ops(ops: &[String]) -> Vec<Operation> {
    ops.iter()
        .map(|o| o.parse().expect("ops validated"))
        .collect()
}

/// Resolves a pattern's `(subject, object)` variables to id sets — the
/// first half of its data query, done once per pattern whatever the
/// number of shards scanned afterwards — against the store's one entity
/// catalog.
pub(crate) fn resolve_endpoints(
    cq: &CompiledQuery,
    pat: &CompiledPattern,
    bound: &Bound,
    catalog: &EntityCatalog,
) -> (IdSet, IdSet) {
    let resolve = |var: &str, bound: &Option<IdSet>| {
        resolve_ids(
            catalog,
            cq.var_kinds[var],
            &cq.var_predicates[var],
            bound.as_ref(),
        )
    };
    (
        resolve(&pat.subject_var, &bound[0]),
        resolve(&pat.object_var, &bound[1]),
    )
}

/// Entity ids of `kind` satisfying `pred` and, when earlier patterns
/// already bound the variable, lying among those ids: the union over the
/// catalog's generations. With `bound` ids only their rows are examined
/// (each id in the generation owning its range, through the `id` index);
/// otherwise the predicate selects over every generation's table.
fn resolve_ids(
    catalog: &EntityCatalog,
    kind: EntityKind,
    pred: &Predicate,
    bound: Option<&IdSet>,
) -> IdSet {
    let mut out = IdSet::default();
    // Ascending ids meet ascending id ranges: one pass over both.
    let mut bound_ids = bound.map(|ids| ids.iter().peekable());
    for generation in catalog.generations() {
        let table = generation.table(kind);
        match &mut bound_ids {
            Some(ids) => {
                let by_id = table.index("id").expect("entity tables index id");
                let pred = pred.bind(table);
                while let Some(id) = ids.next_if(|id| id.index() < generation.end()) {
                    if by_id
                        .get(&Value::from(id.0))
                        .iter()
                        .any(|&rid| pred.eval(table.row(rid)))
                    {
                        out.insert(id);
                    }
                }
            }
            None => {
                let id_col = table.col("id");
                for rid in table.select(pred) {
                    let id = table.row(rid)[id_col].as_int().expect("id column");
                    out.insert(EntityId(id as u32));
                }
            }
        }
    }
    out
}

/// One pattern's data query as seen by the scheduling driver: pattern +
/// the ids propagation bound to its variables in, rows out.
pub(crate) type PatternFetch<'a> = dyn FnMut(&CompiledPattern, &Bound) -> Vec<PatternRow> + 'a;

/// The scheduling driver (paper §II-F): pruning-score ordering,
/// cross-pattern constraint propagation, join, and projection. The store
/// only enters through the two closures — `fetch` answers one pattern's
/// data query (single-table for [`Engine`], scatter-gather for the
/// sharded executor) and `entity_attr` resolves projections — so the
/// single-store and sharded executors share this logic verbatim rather
/// than maintaining two copies of it.
pub(crate) fn run_schedule(
    cq: &CompiledQuery,
    mode: ExecMode,
    fetch: &mut PatternFetch<'_>,
    entity_attr: &dyn Fn(EntityId, &str) -> Option<String>,
) -> HuntResult {
    let t0 = Instant::now();
    let mut stats = HuntStats::default();
    let schedule = Schedule::new(cq, mode);
    let layout = &schedule.layout;

    let mut partial: Option<Tuples> = None;
    for step in &schedule.steps {
        let pat = &cq.patterns[step.pat];
        // Constraint propagation (scheduled mode only): bindings from
        // already-executed patterns become id-set filters on shared
        // variables.
        let mut bound: Bound = [None, None];
        let mut propagated: Vec<(String, usize)> = Vec::new();
        if mode == ExecMode::Scheduled {
            let t_prop = Instant::now();
            if let Some(tuples) = &partial {
                bound = propagate(pat, tuples, &mut propagated);
            }
            stats.propagate_elapsed += t_prop.elapsed();
        }

        let t_fetch = Instant::now();
        let rows = fetch(pat, &bound);
        stats.execution_order.push(pat.id.clone());
        stats.rows_fetched.push((pat.id.clone(), rows.len()));
        stats.propagated.push((pat.id.clone(), propagated));
        stats
            .pattern_elapsed
            .push((pat.id.clone(), t_fetch.elapsed()));

        let t_join = Instant::now();
        let candidates = match &partial {
            Some(tuples) => tuples.len() * rows.len(),
            None => rows.len(),
        };
        let joined = join_rows(layout, partial.as_ref(), &rows, pat, step);
        stats.join_stats.push((
            pat.id.clone(),
            JoinStats {
                candidates,
                outputs: joined.len(),
            },
        ));
        stats.join_elapsed += t_join.elapsed();
        let dead = joined.is_empty();
        partial = Some(joined);
        if dead {
            // No match can exist; the remaining patterns are not run.
            break;
        }
    }

    let tuples = partial.unwrap_or_else(|| Tuples::new(layout));
    let t_project = Instant::now();
    let (columns, rows) = project_tuples(cq, &tuples, entity_attr);
    stats.project_elapsed = t_project.elapsed();
    let t_join = Instant::now();
    let matches = tuples.to_matches(cq, layout);
    stats.join_elapsed += t_join.elapsed();
    stats.elapsed = t0.elapsed();
    HuntResult {
        columns,
        rows,
        matches,
        stats,
    }
}

/// Projects complete tuples into the result table. The entity lookup is
/// a closure so the single-store and sharded executors can project
/// through their respective stores.
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
    let columns: Vec<String> = cq
        .returns
        .iter()
        .map(|(var, attr)| format!("{var}.{attr}"))
        .collect();
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

/// Safety cap on enumerated paths — the single source for both path
/// executors: [`CompiledQuery::path_plan`] feeds it into the graph
/// backend's `PathQuery::max_matches`, and [`expand_paths`] enforces it
/// directly. Dense graphs make path counts combinatorial, and an
/// uncapped expansion is an unbounded memory/time sink in a multi-tenant
/// service.
pub(crate) const MAX_PATH_MATCHES: usize = 100_000;

/// Hop-by-hop frontier expansion of a variable-length path pattern over an
/// abstract event index: `subject_index` answers "positions of events with
/// this subject" and `event_at` resolves a position. The single-store
/// executor backs these with one event table; the sharded executor merges
/// every shard's index probes into global positions — giving identical
/// path semantics whether the events live in one store or many. A probe
/// *lends* its positions (`P` is a borrowed slice or a shared handle to a
/// memoized merge), because a hot node is probed once per partial path
/// reaching it. Output is truncated at [`MAX_PATH_MATCHES`], like the
/// graph backend.
pub(crate) fn expand_paths<'a, P: Deref<Target = [usize]>>(
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
    let last_op: Operation = last_op.parse().expect("ops validated");
    // No source or no admissible destination means no path can ever
    // complete — skip the (potentially combinatorial) expansion entirely,
    // like the event-pattern executors do for empty entity sets.
    if srcs.is_empty() || dsts.is_empty() {
        return Vec::new();
    }

    // Partial path state: (current node, first start, last end, hops).
    #[derive(Clone)]
    struct PartialPath {
        node: EntityId,
        start: u64,
        end: u64,
        events: Vec<usize>,
    }
    // Ascending sources (an `IdSet` iterates in id order) keep the
    // expansion order, and any truncated subset, deterministic.
    let mut frontier: Vec<PartialPath> = srcs
        .iter()
        .map(|n| PartialPath {
            node: n,
            start: 0,
            end: 0,
            events: Vec::new(),
        })
        .collect();
    let mut out = Vec::new();
    'expansion: for hop in 1..=*max_hops {
        let mut next = Vec::new();
        for p in &frontier {
            // SELECT * FROM event WHERE subject = p.node AND start >= p.end
            for &rid in subject_index(p.node).iter() {
                let ev = event_at(rid);
                if !p.events.is_empty() && ev.start < p.end {
                    continue; // time-monotone
                }
                if p.events.contains(&rid) {
                    continue;
                }
                if let Some(w) = pat.window {
                    if ev.start < w.lo || ev.end > w.hi {
                        continue;
                    }
                }
                let mut np = p.clone();
                if np.events.is_empty() {
                    np.start = ev.start;
                }
                np.end = ev.end;
                np.events.push(rid);
                np.node = ev.object;
                if hop >= *min_hops && ev.op == last_op && dsts.contains(ev.object) {
                    out.push(PatternRow {
                        subject: EntityId(event_at(np.events[0]).subject.0),
                        object: ev.object,
                        events: Witness::Path(np.events.as_slice().into()),
                        start: np.start,
                        end: np.end,
                    });
                    if out.len() >= MAX_PATH_MATCHES {
                        break 'expansion;
                    }
                }
                next.push(np);
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    // Position-sorted output: a stable, backend-independent row order
    // (hop-major expansion order would differ from the graph backend's
    // depth-first order; sorted order agrees with neither but is the same
    // for every executor that goes through this function).
    out.sort_unstable_by(|a, b| a.events.positions().cmp(b.events.positions()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
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
        let engine = Engine::new(&store);
        let scheduled = engine.hunt_mode(FIG2_TBQL, ExecMode::Scheduled).unwrap();
        for mode in [
            ExecMode::Unscheduled,
            ExecMode::RelationalOnly,
            ExecMode::GraphOnly,
        ] {
            let r = engine.hunt_mode(FIG2_TBQL, mode).unwrap();
            assert_eq!(r.rows, scheduled.rows, "mode {mode:?} must agree");
        }
    }

    #[test]
    fn scheduled_executes_most_constrained_first() {
        let store = store();
        let engine = Engine::new(&store);
        let r = engine.hunt_mode(FIG2_TBQL, ExecMode::Scheduled).unwrap();
        // evt1 (2 filters) and evt8 (2 filters) precede 1-filter patterns.
        let order = &r.stats.execution_order;
        let pos = |id: &str| order.iter().position(|x| x == id).unwrap();
        assert!(pos("evt1") < pos("evt2"));
        assert!(pos("evt8") < pos("evt2"));
        // Unscheduled keeps declaration order.
        let r = engine.hunt_mode(FIG2_TBQL, ExecMode::Unscheduled).unwrap();
        assert_eq!(r.stats.execution_order[0], "evt1");
        assert_eq!(r.stats.execution_order[1], "evt2");
    }

    #[test]
    fn propagation_reduces_fetched_rows() {
        let store = store();
        let engine = Engine::new(&store);
        let scheduled = engine.hunt_mode(FIG2_TBQL, ExecMode::Scheduled).unwrap();
        let unscheduled = engine.hunt_mode(FIG2_TBQL, ExecMode::Unscheduled).unwrap();
        let total = |r: &HuntResult| -> usize { r.stats.rows_fetched.iter().map(|(_, n)| n).sum() };
        assert!(
            total(&scheduled) <= total(&unscheduled),
            "propagation must not fetch more rows ({} vs {})",
            total(&scheduled),
            total(&unscheduled)
        );
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
        let sql = engine.hunt_mode(q, ExecMode::RelationalOnly).unwrap();
        assert_eq!(r.rows, sql.rows);
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
}
