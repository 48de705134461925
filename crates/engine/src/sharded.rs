//! Scatter-gather execution over a [`ShardedStore`] — the one executor.
//!
//! Runs the paper's scheduler (§II-F) — pruning-score ordering,
//! constraint propagation, the hash join — with each pattern's *data
//! query* fanned out across the store's shards:
//!
//! * **event patterns** resolve their entity filters (and propagated
//!   bindings) to id sets **once**, against the store-level entity
//!   catalog, and hand the same sets to every shard's event scan, one
//!   shard after another; shard-local row positions are translated to
//!   global positions and the gathered rows are concatenated in shard
//!   order, which is global position order, since shards are contiguous
//!   slices of the same event stream;
//! * **path patterns** cannot be answered per shard (a multi-hop flow may
//!   cross a time-window boundary), so they run as hop-by-hop frontier
//!   expansion where each hop's subject probe is the sorted union of every
//!   shard's subject postings — semantically identical to probing one
//!   global index — and come back position-sorted.
//!
//! Neither the rows nor their order depend on where the shard boundaries
//! fall, so a [`ShardedEngine`] returns the same matches in the same
//! order, the same projected rows, and, when a path pattern overflows
//! the safety cap, the same truncated subset over any shard count built
//! from the same `(log, cpr)` input.
//!
//! Concurrency lives one level up: the hunt server runs many hunts at
//! once on its worker pool, each scanning its shards in a plain loop.

use crate::compile::{compile, CompiledPattern, CompiledQuery, CompiledShape};
use crate::error::EngineError;
use crate::exec::{expand_paths, project_matches, run_hunt, scan_events, ExecMode};
use crate::idset::IdSet;
use crate::join::{PatternRow, Schedule};
use crate::result::{HuntResult, Match};
use std::collections::HashMap;
use std::rc::Rc;
use threatraptor_audit::entity::EntityId;
use threatraptor_audit::event::Operation;
use threatraptor_obs::Registry;
use threatraptor_storage::sharded::ShardedStore;
use threatraptor_tbql::analyze::analyze;
use threatraptor_tbql::ast::Query;
use threatraptor_tbql::parser::parse_query;

/// The scatter-gather query engine over a sharded store.
#[derive(Debug, Clone, Copy)]
pub struct ShardedEngine<'s> {
    store: &'s ShardedStore,
    /// Optional metric sink: when attached, every execution bumps
    /// `engine_rows_scanned_total{pattern=...,shard=...}` counters from
    /// the same per-shard row counts that land in
    /// [`PatternStats::shard_rows`] — so EXPLAIN ANALYZE totals and the
    /// exported counters agree by construction.
    ///
    /// [`PatternStats::shard_rows`]: crate::result::PatternStats::shard_rows
    registry: Option<&'s Registry>,
}

impl<'s> ShardedEngine<'s> {
    /// Creates an engine over a store; it scans the shards on the
    /// calling thread.
    pub fn new(store: &'s ShardedStore) -> ShardedEngine<'s> {
        ShardedEngine {
            store,
            registry: None,
        }
    }

    /// [`ShardedEngine::new`] under the name the frozen benchmark surface
    /// (`benchmark/README.md`) calls, which passes a shard-scan thread
    /// count; `_threads` is accepted and ignored, and the argument goes
    /// at the next benchmark-surface revision.
    pub fn with_threads(store: &'s ShardedStore, _threads: usize) -> ShardedEngine<'s> {
        Self::new(store)
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

    /// Parses, analyzes, compiles, and executes TBQL source.
    pub fn hunt(&self, tbql: &str) -> Result<HuntResult, EngineError> {
        self.hunt_query(&parse_query(tbql)?)
    }

    /// Executes an already parsed query.
    pub fn hunt_query(&self, query: &Query) -> Result<HuntResult, EngineError> {
        self.execute(&compile(&analyze(query)?)?, ExecMode::Scheduled)
    }

    /// Executes a compiled query — the entry point the plan cache feeds
    /// (`_mode` is the vestigial [`ExecMode`]).
    pub fn execute(&self, cq: &CompiledQuery, _mode: ExecMode) -> Result<HuntResult, EngineError> {
        let result = run_hunt(
            cq,
            &Schedule::new(cq),
            self.store.catalog(),
            &mut |pat, subjects, objects, min_pos| {
                self.fetch_pattern(pat, subjects, objects, min_pos)
            },
            &|id, attr| self.store.entity(id).attr(attr),
        );
        if let Some(registry) = self.registry {
            // Bumped from the same counts that land in the stats, so
            // EXPLAIN ANALYZE actuals equal the metrics by construction.
            for p in &result.stats.patterns {
                for (shard, rows) in p.shard_rows.iter().enumerate() {
                    registry
                        .counter_labeled(
                            "engine_rows_scanned_total",
                            &[("pattern", &p.pattern), ("shard", &shard.to_string())],
                        )
                        .add(*rows as u64);
                }
                registry
                    .counter_labeled("engine_rows_pruned_total", &[("pattern", &p.pattern)])
                    .add(p.rows_pruned as u64);
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

    /// Runs one pattern's data query across all shards; the returned rows
    /// carry *global* event positions, sorted for a deterministic join.
    /// Also returns the per-shard row counts (index = shard) feeding the
    /// execution profile, and the number of rows the DBM feasible-range
    /// clamp excluded.
    ///
    /// `subjects` and `objects` are the pattern's endpoint id sets,
    /// resolved once per pattern by the stage loop's resolver; shards
    /// hold events only.
    ///
    /// `min_pos` keeps only rows with a witness position of at least
    /// `min_pos` — a standing query's fresh range. Event scans skip
    /// shards lying entirely below the cut (reporting zero rows); paths
    /// expand over the whole store and keep a row when any hop is fresh.
    /// `0` keeps everything.
    pub(crate) fn fetch_pattern(
        &self,
        pat: &CompiledPattern,
        subjects: &IdSet,
        objects: &IdSet,
        min_pos: usize,
    ) -> (Vec<PatternRow>, Vec<usize>, usize) {
        let shard_of = |r: &PatternRow| self.store.locate(r.events.first()).0;
        let (mut rows, mut per_shard) = match &pat.shape {
            CompiledShape::Event { ops } => {
                self.scatter_event_pattern(ops, pat, subjects, objects, min_pos)
            }
            CompiledShape::Path { .. } => {
                let mut rows = self.path_over_shards(pat, subjects, objects);
                if min_pos > 0 {
                    rows.retain(|r| r.events.positions().iter().any(|&p| p >= min_pos));
                }
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
    /// stream for `ops`, given the already resolved id sets, then rows are
    /// translated to global positions and concatenated in shard order.
    fn scatter_event_pattern(
        &self,
        ops: &[Operation],
        pat: &CompiledPattern,
        subjects: &IdSet,
        objects: &IdSet,
        min_pos: usize,
    ) -> (Vec<PatternRow>, Vec<usize>) {
        // Shards are contiguous slices in time order and each shard's rows
        // come back sorted by first event position, so appending in shard
        // order yields global position order.
        let mut out = Vec::new();
        let mut counts = Vec::with_capacity(self.store.shard_count());
        for i in 0..self.store.shard_count() {
            let offset = self.store.offset(i);
            // Epoch-range restriction: a shard entirely below the cut
            // cannot contribute a fresh row — skip its scan outright.
            if self.store.offset(i + 1) <= min_pos {
                counts.push(0);
                continue;
            }
            let mut rows = scan_events(self.store.shard(i), ops, subjects, objects, pat.window);
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
            counts.push(rows.len());
            out.append(&mut rows);
        }
        (out, counts)
    }

    /// Path-pattern execution over all shards: hop-by-hop frontier
    /// expansion where each subject probe is the sorted union of
    /// per-shard subject postings (global positions) — equivalent to
    /// probing one global index.
    fn path_over_shards(
        &self,
        pat: &CompiledPattern,
        srcs: &IdSet,
        dsts: &IdSet,
    ) -> Vec<PatternRow> {
        // The expansion probes the same hot nodes repeatedly (a node
        // reached by many partial paths is probed once per path per hop),
        // and each probe here costs shard_count binary searches + a copy.
        // The store is immutable for the duration of the call, so memoize
        // merged probe results per node and lend them out by handle.
        let memo: std::cell::RefCell<HashMap<EntityId, Rc<[u32]>>> =
            std::cell::RefCell::new(HashMap::new());
        expand_paths(
            pat,
            srcs,
            dsts,
            |node| {
                let mut memo = memo.borrow_mut();
                let positions = memo.entry(node).or_insert_with(|| {
                    // Shards are contiguous position ranges and every
                    // posting list ascends, so shard order is sorted order.
                    self.store
                        .shards()
                        .iter()
                        .enumerate()
                        .flat_map(|(i, shard)| {
                            // Event ids are u32, so positions are too.
                            let offset = u32::try_from(self.store.offset(i))
                                .expect("a store holds fewer than 2^32 events");
                            shard
                                .postings()
                                .by_subject(node)
                                .iter()
                                .map(move |local| offset + local)
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
    use crate::result::PatternStats;
    use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
    use threatraptor_tbql::parser::FIG2_TBQL;

    /// The log as one shard and as `shards` shards.
    fn fixtures(shards: usize) -> (ShardedStore, ShardedStore) {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(5_000)
            .build();
        let single = ShardedStore::ingest(&sc.log, true, 1);
        let sharded = ShardedStore::ingest(&sc.log, true, shards);
        (single, sharded)
    }

    #[test]
    fn fig2_parity_with_single_store() {
        let (single, sharded) = fixtures(6);
        let expected = ShardedEngine::new(&single).hunt(FIG2_TBQL).unwrap();
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
        // the frontier expansion must still find every path, in the
        // one-shard order (also across many sources).
        let (single, sharded) = fixtures(32);
        for q in [
            "proc p[\"%/bin/tar%\"] ~>(1~2)[write] file f[\"%/tmp/upload.tar%\"] as pp1\n\
             return p, f",
            "proc p[\"%/bin/%\"] ~>(1~2)[write] file f return p, f",
        ] {
            let expected = ShardedEngine::new(&single).hunt(q).unwrap();
            let got = ShardedEngine::new(&sharded).hunt(q).unwrap();
            assert!(!got.is_empty());
            assert_eq!(got.rows, expected.rows);
            assert_eq!(got.matches, expected.matches);
        }
    }

    #[test]
    fn with_threads_ignores_the_thread_count() {
        let (_, sharded) = fixtures(8);
        let one = ShardedEngine::new(&sharded).hunt(FIG2_TBQL).unwrap();
        let four = ShardedEngine::with_threads(&sharded, 4)
            .hunt(FIG2_TBQL)
            .unwrap();
        assert_eq!(one.rows, four.rows);
        assert_eq!(one.matches, four.matches);
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
                .patterns
                .iter()
                .find(|p| p.pattern == id)
                .map_or(0, PatternStats::total_rows)
        };
        assert_eq!(fetched(&unclamped, "e1") - fetched(&clamped, "e1"), pruned);
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
        for p in &result.stats.patterns {
            let metric = registry
                .counter_labeled("engine_rows_pruned_total", &[("pattern", &p.pattern)])
                .get();
            assert_eq!(metric, p.rows_pruned as u64, "pattern {}", p.pattern);
        }
        assert!(result.stats.total_rows_pruned() > 0);
    }
}
