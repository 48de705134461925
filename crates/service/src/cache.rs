//! The compiled-plan cache.
//!
//! Parsing, semantic analysis, and compilation of a TBQL query are pure
//! functions of the query text, and production hunt traffic repeats
//! queries heavily (the same intelligence is hunted across time windows,
//! tenants, and re-runs). The cache keys compiled plans by *normalized*
//! query text so formatting variants of the same query share one plan.
//! Only plans are cached: a query that fails to parse, analyze, or
//! compile — static-analysis rejections included — is refused afresh on
//! every submit.
//!
//! The map is **size-capped with LRU eviction** — a long-lived
//! multi-tenant service sees an unbounded stream of distinct queries,
//! and an unbounded map is a slow memory leak.
//!
//! Lock poisoning is recovered from, never propagated: a hunt worker
//! panicking mid-probe must not take the shared cache — and with it
//! every other worker — down. Recovery is sound because the map is only
//! ever mutated through single-call insert/evict operations whose
//! intermediate states are valid maps.

use std::collections::HashMap;
use std::time::Instant;
use threatraptor_engine::compile::{compile_with_lint, CompiledQuery};
use threatraptor_engine::EngineError;
use threatraptor_obs::{Counter, Histogram, Registry};
use threatraptor_sync::atomic::{AtomicU64, Ordering};
use threatraptor_sync::{Arc, PoisonError, RwLock};
use threatraptor_tbql::analyze::analyze;
use threatraptor_tbql::lint::LintReport;
use threatraptor_tbql::parser::parse_query;
use threatraptor_tbql::printer::print_query;

/// Default capacity of the compiled-plan map.
pub const DEFAULT_PLAN_CAPACITY: usize = 512;

/// Drops `//` comments and collapses whitespace runs *outside string
/// literals* to single spaces, then trims, so that formatting variants
/// of one query map to one cache key while queries differing only
/// inside a quoted filter (where whitespace is significant — file paths
/// may contain spaces) stay distinct. A comment runs to the end of its
/// line, as in the lexer, so the newline that ends it still separates
/// the tokens around it. Tracks the lexer's escape rules (`\"`, `\\`,
/// `\n`, `\t`) so an escaped quote does not end the literal; an
/// unterminated literal keeps its tail verbatim and will fail in the
/// parser with its usual error.
pub fn normalize_tbql(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let mut chars = src.chars().peekable();
    let mut in_string = false;
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            match c {
                '\\' => {
                    if let Some(&esc) = chars.peek() {
                        out.push(esc);
                        chars.next();
                    }
                }
                '"' => in_string = false,
                _ => {}
            }
        } else if c == '/' && chars.peek() == Some(&'/') {
            while chars.next_if(|&next| next != '\n').is_some() {}
        } else if c.is_whitespace() {
            pending_space = !out.is_empty();
        } else {
            if pending_space {
                out.push(' ');
                pending_space = false;
            }
            out.push(c);
            if c == '"' {
                in_string = true;
            }
        }
    }
    out
}

/// Cache counters at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Plan-cache hits.
    pub hits: usize,
    /// Plan-cache misses (compilations performed).
    pub misses: usize,
    /// Distinct plans currently cached.
    pub plans: usize,
    /// Plans evicted so far.
    pub evictions: usize,
    /// Heap bytes of the cached plans' endpoint memos
    /// ([`ResolveMemo::heap_bytes`](threatraptor_engine::exec::ResolveMemo::heap_bytes)),
    /// summed over the plans: what resolving once per plan keeps.
    pub memo_bytes: usize,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 when nothing was probed.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A compiled plan as served by the cache.
#[derive(Debug)]
pub struct CachedPlan {
    /// Canonical (pretty-printed) TBQL text of the plan.
    pub tbql: String,
    /// The compiled query, ready for any executor.
    pub compiled: CompiledQuery,
    /// Static-analysis findings for the query (warnings only — a query
    /// with error-level diagnostics is refused, never compiled).
    pub lint: LintReport,
}

/// A plan map entry: the plan plus its recency stamp (atomic so hits
/// under the read lock can refresh it without write contention).
#[derive(Debug)]
struct PlanSlot {
    plan: Arc<CachedPlan>,
    last_used: AtomicU64,
}

/// Registry handles for cache telemetry, resolved once when the cache
/// is built. The counters are the cache's only hit/miss/eviction
/// record: [`PlanCache::stats`] reads them.
#[derive(Debug)]
struct CacheObs {
    /// `plan_cache_hits_total`.
    hits: Arc<Counter>,
    /// `plan_cache_misses_total`.
    misses: Arc<Counter>,
    /// `plan_cache_evictions_total`.
    evictions: Arc<Counter>,
    /// `hunt_stage_ns{stage=parse|analyze|compile}`.
    parse: Arc<Histogram>,
    analyze: Arc<Histogram>,
    compile: Arc<Histogram>,
}

impl CacheObs {
    fn new(registry: &Registry) -> CacheObs {
        let stage = |stage| registry.histogram_labeled("hunt_stage_ns", &[("stage", stage)]);
        CacheObs {
            hits: registry.counter("plan_cache_hits_total"),
            misses: registry.counter("plan_cache_misses_total"),
            evictions: registry.counter("plan_cache_evictions_total"),
            parse: stage("parse"),
            analyze: stage("analyze"),
            compile: stage("compile"),
        }
    }
}

/// Runs one compile-pipeline stage and records its wall time into
/// `stage` only when it succeeds: error paths must not pollute the
/// stage-latency histograms (a parse error's near-zero "parse time"
/// would drag p50 down).
fn timed<T, E>(stage: &Histogram, run: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    let start = Instant::now();
    let value = run()?;
    stage.record_duration(start.elapsed());
    Ok(value)
}

/// Thread-safe compiled-plan cache, shared by the server's job workers
/// and its standing queries. Size-capped (LRU): see
/// [`PlanCache::with_capacity`].
#[derive(Debug)]
pub struct PlanCache {
    plans: RwLock<HashMap<String, PlanSlot>>,
    capacity: usize,
    /// Logical clock for LRU stamps.
    tick: AtomicU64,
    obs: CacheObs,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new()
    }
}

impl PlanCache {
    /// An empty cache of [`DEFAULT_PLAN_CAPACITY`] plans, recording its
    /// telemetry into a registry of its own.
    pub fn new() -> PlanCache {
        Self::with_capacity(DEFAULT_PLAN_CAPACITY, &Registry::new())
    }

    /// An empty cache holding at most `plans` compiled plans (clamped to
    /// ≥ 1); the least-recently-used plan is evicted on overflow.
    ///
    /// Its telemetry goes to `registry`: `plan_cache_*` counters and
    /// `hunt_stage_ns{stage=parse|analyze|compile}` timers around the
    /// compile pipeline. [`PlanCache::stats`] reads those counters, so
    /// caches built on one registry report their summed hits, misses and
    /// evictions.
    pub fn with_capacity(plans: usize, registry: &Registry) -> PlanCache {
        PlanCache {
            plans: RwLock::new(HashMap::new()),
            capacity: plans.max(1),
            tick: AtomicU64::new(0),
            obs: CacheObs::new(registry),
        }
    }

    // ordering: the LRU recency ticks are Relaxed — they only *order*
    // entries, and a stale tick costs at worst a suboptimal eviction,
    // never incoherence, because all structural mutation happens under
    // the `plans` RwLock.
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the compiled plan for `tbql_src`, compiling on a miss and
    /// caching the plan under its normalized text. The boolean is `true`
    /// on a cache hit.
    ///
    /// Errors — including [`EngineError::Infeasible`] for queries the
    /// static analyzer rejects — are returned uncached and count as
    /// neither hit nor miss.
    pub fn plan(&self, tbql_src: &str) -> Result<(Arc<CachedPlan>, bool), EngineError> {
        let key = normalize_tbql(tbql_src);
        if let Some(slot) = self
            .plans
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            slot.last_used.store(self.next_tick(), Ordering::Relaxed);
            self.obs.hits.inc();
            return Ok((Arc::clone(&slot.plan), true));
        }

        // Compile outside any lock: compilation is pure, and two workers
        // racing on the same key just do redundant work once.
        let obs = &self.obs;
        let query = timed(&obs.parse, || parse_query(tbql_src))?;
        let analyzed = timed(&obs.analyze, || analyze(&query))?;
        let (compiled, lint) = timed(&obs.compile, || compile_with_lint(&analyzed))?;
        let plan = Arc::new(CachedPlan {
            tbql: print_query(&query),
            compiled,
            lint,
        });
        let tick = self.next_tick();
        let mut plans = self.plans.write().unwrap_or_else(PoisonError::into_inner);
        let plan = Arc::clone(
            &plans
                .entry(key)
                .or_insert_with(|| PlanSlot {
                    plan,
                    last_used: AtomicU64::new(tick),
                })
                .plan,
        );
        // Evict least-recently-used plans until the map fits. An O(n)
        // scan per eviction: the capacity is a few hundred, and eviction
        // only runs on insert overflow, so simplicity beats a linked LRU.
        let mut evicted = 0;
        while plans.len() > self.capacity {
            let Some(oldest) = plans
                .iter()
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            plans.remove(&oldest);
            evicted += 1;
        }
        drop(plans);
        obs.evictions.add(evicted);
        obs.misses.inc();
        Ok((plan, false))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let (plans, memo_bytes) = {
            let map = self.plans.read().unwrap_or_else(PoisonError::into_inner);
            let memo_bytes = map
                .values()
                .map(|slot| slot.plan.compiled.memo().heap_bytes())
                .sum();
            (map.len(), memo_bytes)
        };
        let count = |counter: &Counter| counter.get() as usize;
        CacheStats {
            hits: count(&self.obs.hits),
            misses: count(&self.obs.misses),
            plans,
            evictions: count(&self.obs.evictions),
            memo_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_tbql::parser::FIG2_TBQL;

    #[test]
    fn normalization_collapses_whitespace() {
        let a = normalize_tbql("proc p   read\n\tfile f\nreturn p");
        let b = normalize_tbql("proc p read file f return p");
        assert_eq!(a, b);
        assert_eq!(normalize_tbql("  proc p  "), "proc p");
    }

    #[test]
    fn normalization_preserves_string_literal_contents() {
        // Whitespace inside quoted filters is significant (paths may
        // contain spaces): these are different queries, not variants.
        let one = normalize_tbql("proc p[\"%My Documents%\"] read file f return p");
        let two = normalize_tbql("proc p[\"%My  Documents%\"] read file f return p");
        assert_ne!(one, two);
        assert!(one.contains("%My Documents%"));
        // An escaped quote does not terminate the literal.
        let esc = normalize_tbql("proc p[\"a\\\"b  c\"]   read file f return p");
        assert!(esc.contains("a\\\"b  c"));
        assert!(esc.ends_with("read file f return p"));
    }

    #[test]
    fn normalization_drops_comments() {
        let commented = normalize_tbql("proc p read file f // the reader\n  return   p // done");
        assert_eq!(commented, "proc p read file f return p");
        // A quote inside a comment opens no string literal: the
        // whitespace after the comment still collapses.
        let quoted = normalize_tbql("proc p read file f // say \"hi\nreturn   p");
        assert_eq!(quoted, "proc p read file f return p");
        // `//` inside a literal is part of the filter, not a comment.
        let url = normalize_tbql("proc p connect ip i[\"http://x  y\"]  return p");
        assert_eq!(url, "proc p connect ip i[\"http://x  y\"] return p");
    }

    #[test]
    fn plans_compile_once_per_normalized_text() {
        let cache = PlanCache::new();
        let (p1, hit1) = cache.plan(FIG2_TBQL).unwrap();
        let (p2, hit2) = cache
            .plan(&format!("  {}  ", FIG2_TBQL.replace('\n', "  \n")))
            .unwrap();
        assert!(!hit1);
        assert!(hit2, "formatting variant must hit the cache");
        assert!(Arc::ptr_eq(&p1, &p2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.plans), (1, 1, 1));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn bad_queries_error_and_are_not_cached() {
        let cache = PlanCache::new();
        assert!(cache.plan("syntactically broken").is_err());
        let s = cache.stats();
        assert_eq!((s.plans, s.hits, s.misses), (0, 0, 0));
    }

    /// The newline that ends a comment also ends the pattern before it:
    /// these two queries differ only in where a comment's line breaks,
    /// and must not share a plan.
    #[test]
    fn comments_do_not_merge_distinct_queries() {
        let cache = PlanCache::new();
        let two = "proc p read file f as e1 // note\nproc p write file g as e2 return p";
        let one = "proc p read file f as e1 // note proc p write file g as e2\nreturn p";
        let (first, _) = cache.plan(two).unwrap();
        let (second, hit) = cache.plan(one).unwrap();
        assert_eq!(first.compiled.patterns.len(), 2);
        assert!(!hit, "a different query must not hit the cache");
        assert_eq!(second.compiled.patterns.len(), 1);
    }

    #[test]
    fn infeasible_queries_are_refused_uncached() {
        let registry = Registry::new();
        let cache = PlanCache::with_capacity(DEFAULT_PLAN_CAPACITY, &registry);
        // Cyclic `before` ordering: E001, rejected at compile time.
        let bad = "proc p read file f as e1 proc p write file g as e2 \
                   with e1 before e2, e2 before e1 return p";
        let first = cache.plan(bad).unwrap_err();
        assert!(matches!(first, EngineError::Infeasible(_)), "{first}");
        // A resubmit is refused again, with the same diagnostics; a
        // formatting variant with the same codes, its spans its own.
        assert_eq!(cache.plan(bad).unwrap_err(), first);
        let EngineError::Infeasible(variant) = cache
            .plan(&format!("  {}  ", bad.replace(' ', "\t")))
            .unwrap_err()
        else {
            panic!("a formatting variant must be infeasible too");
        };
        assert!(variant.iter().all(|d| d.code == "E001"), "{variant:?}");
        // Refusals are neither hits nor misses, and cache nothing.
        let s = cache.stats();
        assert_eq!((s.plans, s.hits, s.misses), (0, 0, 0));

        // The failed compile stage recorded nothing: its series is
        // registered up front but holds no samples.
        let snap = registry.snapshot();
        let compile = snap
            .histogram("hunt_stage_ns", &[("stage", "compile")])
            .unwrap();
        assert_eq!(compile.count, 0);
    }

    #[test]
    fn cached_plans_carry_lint_warnings() {
        let cache = PlanCache::new();
        // `f` is mentioned once, unfiltered, and not returned: W001.
        let (plan, _) = cache.plan("proc p read file f return p").unwrap();
        assert!(!plan.lint.has_errors());
        assert!(
            plan.lint.diagnostics.iter().any(|d| d.code == "W001"),
            "{:?}",
            plan.lint.diagnostics
        );
    }

    #[test]
    fn plan_map_evicts_least_recently_used() {
        let cache = PlanCache::with_capacity(2, &Registry::new());
        let q = |path: &str| format!("proc p[\"%{path}%\"] read file f return p");
        cache.plan(&q("/bin/a")).unwrap();
        cache.plan(&q("/bin/b")).unwrap();
        // Touch /bin/a so /bin/b is the LRU victim.
        cache.plan(&q("/bin/a")).unwrap();
        cache.plan(&q("/bin/c")).unwrap();
        let s = cache.stats();
        assert_eq!(s.plans, 2, "capacity must hold");
        assert_eq!(s.evictions, 1);
        // /bin/a survived, /bin/b did not.
        let (_, hit_a) = cache.plan(&q("/bin/a")).unwrap();
        assert!(hit_a, "recently used plan must survive eviction");
        let (_, hit_b) = cache.plan(&q("/bin/b")).unwrap();
        assert!(!hit_b, "LRU plan must have been evicted");
    }

    #[test]
    fn attached_metrics_mirror_cache_stats() {
        let registry = Registry::new();
        let cache = PlanCache::with_capacity(2, &registry);
        let q = |path: &str| format!("proc p[\"%{path}%\"] read file f return p");
        cache.plan(&q("/bin/a")).unwrap();
        cache.plan(&q("/bin/a")).unwrap();
        cache.plan(&q("/bin/b")).unwrap();
        cache.plan(&q("/bin/c")).unwrap();
        // A failing compile pipeline records no stage time: the parse
        // series below must count only the successful misses.
        assert!(cache.plan("syntactically broken").is_err());

        let s = cache.stats();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("plan_cache_hits_total"), Some(s.hits as u64));
        assert_eq!(
            snap.counter("plan_cache_misses_total"),
            Some(s.misses as u64)
        );
        assert_eq!(
            snap.counter("plan_cache_evictions_total"),
            Some(s.evictions as u64)
        );
        assert!(s.evictions >= 1, "capacity 2 with 3 plans must evict");
        // Compile-pipeline stages were timed on the miss path only.
        for stage in ["parse", "analyze", "compile"] {
            let h = snap
                .histogram("hunt_stage_ns", &[("stage", stage)])
                .unwrap_or_else(|| panic!("missing {stage} series"));
            assert_eq!(h.count, s.misses as u64, "{stage} per miss");
        }
    }

    /// The memo bytes sum over the cached plans only: on a capacity-1
    /// cache, hunting a second plan evicts the first, and the figure
    /// drops to the survivor's bytes.
    #[test]
    fn memo_bytes_follow_the_cached_plans() {
        use threatraptor_audit::sim::scenario::ScenarioBuilder;
        use threatraptor_engine::{ExecMode, ShardedEngine};
        use threatraptor_storage::ShardedStore;
        let sc = ScenarioBuilder::new().seed(3).target_events(2_000).build();
        let store = ShardedStore::ingest(&sc.log, true, 2);
        let engine = ShardedEngine::new(&store);
        let cache = PlanCache::with_capacity(1, &Registry::new());
        let hunt = |tbql: &str| {
            let (plan, _) = cache.plan(tbql).unwrap();
            engine.execute(&plan.compiled, ExecMode::Scheduled).unwrap();
            plan
        };
        assert_eq!(cache.stats().memo_bytes, 0, "nothing cached yet");
        let first = hunt(FIG2_TBQL);
        let first_bytes = first.compiled.memo().heap_bytes();
        assert!(first_bytes > 0);
        assert_eq!(cache.stats().memo_bytes, first_bytes);
        let second = hunt("proc p read file f return p, f");
        let second_bytes = second.compiled.memo().heap_bytes();
        assert!(second_bytes > 0);
        let stats = cache.stats();
        assert_eq!((stats.plans, stats.evictions), (1, 1));
        assert_eq!(stats.memo_bytes, second_bytes);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let cache = PlanCache::with_capacity(0, &Registry::new());
        cache.plan(FIG2_TBQL).unwrap();
        assert_eq!(cache.stats().plans, 1);
    }
}
