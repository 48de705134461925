//! Scatter-gather execution over a [`ShardedStore`].
//!
//! Mirrors the paper's scheduler (§II-F) exactly — same pruning-score
//! ordering, same constraint propagation, same join — but each pattern's
//! *data query* fans out across the store's shards:
//!
//! * **event patterns** resolve their entity predicates (and propagated
//!   bindings) to id sets **once**, against the store-level entity
//!   tables, and hand the same sets to every shard's event scan, in
//!   parallel on scoped threads; shard-local row positions are translated
//!   to global positions and the gathered rows are merged in
//!   deterministic (global position) order — which is precisely the order
//!   the single-store executor produces, since shards are contiguous
//!   slices of the same event stream;
//! * **path patterns** cannot be answered per shard (a multi-hop flow may
//!   cross a time-window boundary), so they run as hop-by-hop frontier
//!   expansion where each hop's index probe is the sorted union of every
//!   shard's probe — semantically identical to probing one global event
//!   table.
//!
//! Because the fan-out happens at the data-query level and the join stays
//! global, a [`ShardedEngine`] returns exactly the *record set* a
//! single-store [`Engine`] returns on the same `(log, cpr)` input: same
//! matches, same matched event ids, same projected rows up to order.
//! Event-pattern results agree in row order too; path-pattern rows come
//! back position-sorted, whereas the single-store graph backend emits
//! them in depth-first search order — order-normalized comparison (as in
//! the parity tests) is the contract. When a path pattern overflows the
//! 100k safety cap, the two executors may also retain different (equally
//! arbitrary) subsets — the cap is a resource valve, not a semantic
//! guarantee.

use crate::compile::{compile, CompiledPattern, CompiledQuery, CompiledShape};
use crate::error::EngineError;
use crate::exec::{
    expand_paths, project_matches, project_tuples, resolve_endpoints, run_schedule, scan_pattern,
    ExecMode,
};
use crate::idset::IdSet;
use crate::join::{Bound, PatternRow, Tuples};
use crate::result::{HuntResult, Match};
use std::collections::HashMap;
use std::rc::Rc;
use threatraptor_audit::entity::EntityId;
use threatraptor_obs::Registry;
use threatraptor_storage::relational::Value;
use threatraptor_storage::sharded::ShardedStore;
use threatraptor_tbql::analyze::{analyze, AnalyzedQuery};
use threatraptor_tbql::ast::Query;
use threatraptor_tbql::parser::parse_query;

/// The scatter-gather query engine over a sharded store.
#[derive(Debug, Clone, Copy)]
pub struct ShardedEngine<'s> {
    store: &'s ShardedStore,
    /// Worker threads for per-pattern shard fan-out (1 = sequential).
    threads: usize,
    /// Optional metric sink: when attached, every execution bumps
    /// `engine_rows_scanned_total{pattern=...,shard=...}` counters from
    /// the same per-shard row counts that land in
    /// [`HuntStats::shard_rows`] — so EXPLAIN ANALYZE totals and the
    /// exported counters agree by construction.
    ///
    /// [`HuntStats::shard_rows`]: crate::result::HuntStats::shard_rows
    registry: Option<&'s Registry>,
}

impl<'s> ShardedEngine<'s> {
    /// Creates an engine fanning out across all available cores.
    pub fn new(store: &'s ShardedStore) -> ShardedEngine<'s> {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Self::with_threads(store, threads)
    }

    /// Creates an engine with an explicit shard-scan thread count. Use 1
    /// when an outer layer (e.g. the hunt scheduler's worker pool) already
    /// saturates the cores with concurrent queries.
    pub fn with_threads(store: &'s ShardedStore, threads: usize) -> ShardedEngine<'s> {
        ShardedEngine {
            store,
            threads: threads.max(1),
            registry: None,
        }
    }

    /// Attaches a metric registry for per-execution row-scan counters.
    pub fn with_registry(mut self, registry: &'s Registry) -> ShardedEngine<'s> {
        self.registry = Some(registry);
        self
    }

    /// The underlying sharded store.
    pub fn store(&self) -> &'s ShardedStore {
        self.store
    }

    /// Parses, analyzes, compiles, and executes TBQL source with the
    /// scheduled strategy.
    pub fn hunt(&self, tbql: &str) -> Result<HuntResult, EngineError> {
        self.hunt_mode(tbql, ExecMode::Scheduled)
    }

    /// Like [`ShardedEngine::hunt`] with an explicit execution mode.
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

    /// Executes a compiled query — the entry point the plan cache feeds.
    pub fn execute(&self, cq: &CompiledQuery, mode: ExecMode) -> Result<HuntResult, EngineError> {
        // Per-shard row counts and DBM-clamp pruning, collected as each
        // pattern's data query fans out (execution order). RefCell: the
        // fetch closure is `FnMut` and the collectors outlive it.
        let shard_rows: std::cell::RefCell<Vec<(String, Vec<usize>)>> =
            std::cell::RefCell::new(Vec::new());
        let rows_pruned: std::cell::RefCell<Vec<(String, usize)>> =
            std::cell::RefCell::new(Vec::new());
        let mut result = run_schedule(
            cq,
            mode,
            &mut |pat, bound| {
                let (rows, per_shard, pruned) = self.fetch_pattern(cq, pat, bound, mode, 0);
                shard_rows.borrow_mut().push((pat.id.clone(), per_shard));
                rows_pruned.borrow_mut().push((pat.id.clone(), pruned));
                rows
            },
            &|id, attr| self.store.entity(id).attr(attr),
        );
        result.stats.shard_rows = shard_rows.into_inner();
        result.stats.rows_pruned = rows_pruned.into_inner();
        if let Some(registry) = self.registry {
            for (pattern, shards) in &result.stats.shard_rows {
                for (shard, rows) in shards.iter().enumerate() {
                    registry
                        .counter_labeled(
                            "engine_rows_scanned_total",
                            &[("pattern", pattern), ("shard", &shard.to_string())],
                        )
                        .add(*rows as u64);
                }
            }
            // Bumped from the same counts that land in the stats, so
            // EXPLAIN ANALYZE actuals equal the metric by construction.
            for (pattern, pruned) in &result.stats.rows_pruned {
                registry
                    .counter_labeled("engine_rows_pruned_total", &[("pattern", pattern)])
                    .add(*pruned as u64);
            }
        }
        Ok(result)
    }

    /// Projects a set of matches through this store, exactly as
    /// [`ShardedEngine::execute`] projects its own matches — the
    /// follow-mode hunt uses this to turn a *delta* of new matches into
    /// result rows without re-projecting the whole result. Returns
    /// `(columns, rows)`; when the query is `distinct`, rows are sorted
    /// and deduplicated within the given match set.
    pub fn project(
        &self,
        cq: &CompiledQuery,
        matches: &[Match],
    ) -> (Vec<String>, Vec<Vec<String>>) {
        project_matches(cq, matches, &|id, attr| self.store.entity(id).attr(attr))
    }

    /// [`ShardedEngine::project`] over slot tuples (the delta executor's
    /// not yet materialized matches).
    pub(crate) fn project_tuples(
        &self,
        cq: &CompiledQuery,
        tuples: &Tuples,
    ) -> (Vec<String>, Vec<Vec<String>>) {
        project_tuples(cq, tuples, &|id, attr| self.store.entity(id).attr(attr))
    }

    /// Runs one pattern's data query across all shards; the returned rows
    /// carry *global* event positions, sorted for a deterministic join.
    /// Also returns the per-shard row counts (index = shard) feeding the
    /// execution profile, and the number of rows the DBM feasible-range
    /// clamp excluded.
    ///
    /// Entity predicates are resolved here, once per pattern, against the
    /// store's entity catalog; shards hold events only.
    ///
    /// `min_pos` restricts event-pattern scans to rows whose witness
    /// position is at least `min_pos` — the delta executor's epoch-range
    /// restriction. Shards lying entirely below the cut are skipped
    /// without scanning (reporting zero rows); only the boundary shard
    /// filters row by row. Path patterns ignore it (the delta executor
    /// never runs them). `0` scans everything.
    pub(crate) fn fetch_pattern(
        &self,
        cq: &CompiledQuery,
        pat: &CompiledPattern,
        bound: &Bound,
        mode: ExecMode,
        min_pos: usize,
    ) -> (Vec<PatternRow>, Vec<usize>, usize) {
        let (subjects, objects) = resolve_endpoints(cq, pat, bound, self.store.catalog());
        let shard_of = |r: &PatternRow| self.store.locate(r.events.first()).0;
        let (mut rows, mut per_shard) = match pat.shape {
            CompiledShape::Event { .. } => {
                self.scatter_event_pattern(cq, pat, &subjects, &objects, mode, min_pos)
            }
            CompiledShape::Path { .. } => {
                let rows = self.path_over_shards(pat, &subjects, &objects);
                // Paths expand globally; attribute each row to the shard
                // holding its first hop so profile totals still add up.
                let mut per_shard = vec![0usize; self.store.shard_count()];
                for r in &rows {
                    per_shard[shard_of(r)] += 1;
                }
                (rows, per_shard)
            }
        };
        // Clamp the scan to the DBM-derived feasible range: a row outside
        // `[lo, hi]` cannot witness the pattern in any complete match
        // (the bounds are consequences of the query's own windows and
        // `before` ordering), so dropping it here preserves the match set
        // exactly while shrinking every downstream propagate/join step.
        let mut pruned = 0usize;
        if let Some(b) = pat.bounds {
            rows.retain(|r| {
                let keep = r.start >= b.lo && r.end <= b.hi;
                if !keep {
                    pruned += 1;
                    per_shard[shard_of(r)] -= 1;
                }
                keep
            });
        }
        (rows, per_shard, pruned)
    }

    /// Event-pattern scatter: each shard scans its own slice of the
    /// stream with the single-store executor, given the already resolved
    /// id sets, then rows are translated to global positions and
    /// concatenated in shard order.
    fn scatter_event_pattern(
        &self,
        cq: &CompiledQuery,
        pat: &CompiledPattern,
        subjects: &IdSet,
        objects: &IdSet,
        mode: ExecMode,
        min_pos: usize,
    ) -> (Vec<PatternRow>, Vec<usize>) {
        let n = self.store.shard_count();
        let run_shard = |i: usize| -> Vec<PatternRow> {
            let offset = self.store.offset(i);
            // Epoch-range restriction: a shard entirely below the cut
            // cannot contribute a fresh row — skip its scan outright.
            if self.store.offset(i + 1) <= min_pos {
                return Vec::new();
            }
            let mut rows = scan_pattern(self.store.shard(i), cq, pat, subjects, objects, mode);
            for r in &mut rows {
                for pos in r.events.positions_mut() {
                    *pos += offset;
                }
            }
            if offset < min_pos {
                // Boundary shard: keep only rows witnessing the fresh
                // range (compaction can merge a former seal boundary
                // into the middle of a shard).
                rows.retain(|r| r.events.positions().iter().any(|&p| p >= min_pos));
            }
            rows
        };

        let mut per_shard: Vec<Vec<PatternRow>> =
            threatraptor_storage::sharded::fan_out(n, self.threads, run_shard);

        let counts: Vec<usize> = per_shard.iter().map(Vec::len).collect();
        // Shards are contiguous slices in time order and each shard's rows
        // are already sorted by first event position, so concatenating in
        // shard order reproduces the single-store row order exactly.
        let mut out = Vec::with_capacity(counts.iter().sum());
        for rows in &mut per_shard {
            out.append(rows);
        }
        (out, counts)
    }

    /// Path-pattern execution over all shards: hop-by-hop frontier
    /// expansion where each subject-index probe is the sorted union of
    /// per-shard index probes (global positions) — equivalent to probing
    /// one global event table.
    fn path_over_shards(
        &self,
        pat: &CompiledPattern,
        srcs: &IdSet,
        dsts: &IdSet,
    ) -> Vec<PatternRow> {
        // The expansion probes the same hot nodes repeatedly (a node
        // reached by many partial paths is probed once per path per hop),
        // and each probe here costs shard_count index lookups + a sort.
        // The store is immutable for the duration of the call, so memoize
        // merged probe results per node and lend them out by handle.
        let by_subject: Vec<_> = (0..self.store.shard_count())
            .map(|i| {
                self.store
                    .shard(i)
                    .event_table()
                    .index("subject")
                    .expect("the event table indexes subject")
            })
            .collect();
        let memo: std::cell::RefCell<HashMap<EntityId, Rc<[usize]>>> =
            std::cell::RefCell::new(HashMap::new());
        expand_paths(
            pat,
            srcs,
            dsts,
            |node| {
                let mut memo = memo.borrow_mut();
                let positions = memo.entry(node).or_insert_with(|| {
                    let key = Value::from(node.0);
                    // Shards are contiguous position ranges and every
                    // bucket ascends, so shard order is sorted order.
                    by_subject
                        .iter()
                        .enumerate()
                        .flat_map(|(i, idx)| {
                            let offset = self.store.offset(i);
                            idx.get(&key).iter().map(move |local| offset + local)
                        })
                        .collect()
                });
                Rc::clone(positions)
            },
            |pos| self.store.event_at(pos),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Engine;
    use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
    use threatraptor_storage::store::AuditStore;
    use threatraptor_tbql::parser::FIG2_TBQL;

    fn fixtures(shards: usize) -> (AuditStore, ShardedStore) {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(5_000)
            .build();
        let single = AuditStore::ingest(&sc.log, true);
        let sharded = ShardedStore::ingest(&sc.log, true, shards);
        (single, sharded)
    }

    #[test]
    fn fig2_parity_with_single_store() {
        let (single, sharded) = fixtures(6);
        let expected = Engine::new(&single).hunt(FIG2_TBQL).unwrap();
        let got = ShardedEngine::new(&sharded).hunt(FIG2_TBQL).unwrap();
        assert_eq!(got.rows, expected.rows);
        assert_eq!(
            got.matched_event_ids(&sharded),
            expected.matched_event_ids(&single)
        );
    }

    #[test]
    fn path_patterns_cross_shard_boundaries() {
        // Tiny shards force the attack chain to straddle shard borders;
        // the frontier expansion must still find every path.
        let (single, sharded) = fixtures(32);
        let q = "proc p[\"%/bin/tar%\"] ~>(1~2)[write] file f[\"%/tmp/upload.tar%\"] as pp1\n\
                 return p, f";
        let expected = Engine::new(&single).hunt(q).unwrap();
        let got = ShardedEngine::new(&sharded).hunt(q).unwrap();
        assert!(!got.is_empty());
        // Path rows: graph DFS order (single) vs position order (sharded)
        // — the contract is record-set parity, so compare order-normalized.
        let norm = |r: &crate::result::HuntResult| {
            let mut rows = r.rows.clone();
            rows.sort();
            rows
        };
        assert_eq!(norm(&got), norm(&expected));
    }

    #[test]
    fn all_modes_agree_with_single_store() {
        let (single, sharded) = fixtures(4);
        for mode in [
            ExecMode::Scheduled,
            ExecMode::Unscheduled,
            ExecMode::RelationalOnly,
            ExecMode::GraphOnly,
        ] {
            let expected = Engine::new(&single).hunt_mode(FIG2_TBQL, mode).unwrap();
            let got = ShardedEngine::new(&sharded)
                .hunt_mode(FIG2_TBQL, mode)
                .unwrap();
            assert_eq!(got.rows, expected.rows, "mode {mode:?}");
        }
    }

    #[test]
    fn sequential_and_threaded_fanout_agree() {
        let (_, sharded) = fixtures(8);
        let seq = ShardedEngine::with_threads(&sharded, 1)
            .hunt(FIG2_TBQL)
            .unwrap();
        let par = ShardedEngine::with_threads(&sharded, 4)
            .hunt(FIG2_TBQL)
            .unwrap();
        assert_eq!(seq.rows, par.rows);
        assert_eq!(seq.matches.len(), par.matches.len());
    }

    #[test]
    fn precision_recall_through_sharded_store() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(5_000)
            .build();
        let sharded = ShardedStore::ingest(&sc.log, true, 6);
        let r = ShardedEngine::new(&sharded).hunt(FIG2_TBQL).unwrap();
        let (p, rec) = r.precision_recall(&sharded, &sc.ground_truth("data_leakage"));
        assert_eq!((p, rec), (1.0, 1.0));
    }

    #[test]
    fn semantic_errors_propagate() {
        let (_, sharded) = fixtures(2);
        let err = ShardedEngine::new(&sharded)
            .hunt("file x read file f return f")
            .unwrap_err();
        assert!(matches!(err, EngineError::Semantic(_)));
    }

    #[test]
    fn infeasible_queries_rejected_before_scanning() {
        let (_, sharded) = fixtures(2);
        let err = ShardedEngine::new(&sharded)
            .hunt(
                "proc p read file f as e1 proc p write file g as e2 \
                 with e1 before e2, e2 before e1 return p, f, g",
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Infeasible(_)), "{err:?}");
    }

    #[test]
    fn dbm_clamp_prunes_rows_without_changing_results() {
        let (_, sharded) = fixtures(4);
        // Window the *second* pattern to the first half of the stream:
        // the DBM then bounds e1 (which must fully precede e2) to end
        // before that window closes, clamping e1's otherwise-unwindowed
        // scan.
        let mid = sharded.event_at(sharded.event_count() / 2).start;
        let tbql = format!(
            "proc p read file f as e1 \
             proc p write file g as e2 window [0, {mid}] \
             with e1 before e2 \
             return p, f, g"
        );
        let query = parse_query(&tbql).unwrap();
        let analyzed = analyze(&query).unwrap();
        let clamped_cq = compile(&analyzed).unwrap();
        assert!(clamped_cq.patterns[0].bounds.is_some());

        let mut unclamped_cq = clamped_cq.clone();
        for p in &mut unclamped_cq.patterns {
            p.bounds = None;
        }

        let engine = ShardedEngine::new(&sharded);
        let clamped = engine.execute(&clamped_cq, ExecMode::Scheduled).unwrap();
        let unclamped = engine.execute(&unclamped_cq, ExecMode::Scheduled).unwrap();

        // Identical results…
        assert_eq!(clamped.rows, unclamped.rows);
        assert_eq!(clamped.matches, unclamped.matches);
        // …with real pruning on e1's scan, visible in the stats and
        // consistent with the fetched-row difference.
        let pruned = clamped.stats.total_rows_pruned();
        assert!(pruned > 0, "expected the clamp to exclude rows");
        let fetched = |r: &HuntResult, id: &str| {
            r.stats
                .rows_fetched
                .iter()
                .find(|(p, _)| p == id)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        };
        assert_eq!(fetched(&unclamped, "e1") - fetched(&clamped, "e1"), pruned);
        // Per-shard scan counts stay consistent with fetched totals.
        for (id, shards) in &clamped.stats.shard_rows {
            assert_eq!(shards.iter().sum::<usize>(), fetched(&clamped, id));
        }
    }

    #[test]
    fn pruned_counts_feed_registry_metric() {
        let (_, sharded) = fixtures(3);
        let mid = sharded.event_at(sharded.event_count() / 2).start;
        let tbql = format!(
            "proc p read file f as e1 \
             proc p write file g as e2 window [0, {mid}] \
             with e1 before e2 \
             return p, f, g"
        );
        let registry = Registry::new();
        let result = ShardedEngine::new(&sharded)
            .with_registry(&registry)
            .hunt(&tbql)
            .unwrap();
        for (pattern, pruned) in &result.stats.rows_pruned {
            let metric = registry
                .counter_labeled("engine_rows_pruned_total", &[("pattern", pattern)])
                .get();
            assert_eq!(metric, *pruned as u64, "pattern {pattern}");
        }
        assert!(result.stats.total_rows_pruned() > 0);
    }
}
