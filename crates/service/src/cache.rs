//! The compiled-plan cache.
//!
//! Parsing, semantic analysis, and compilation of a TBQL query are pure
//! functions of the query text, and production hunt traffic repeats
//! queries heavily (the same intelligence is hunted across time windows,
//! tenants, and re-runs). The cache keys compiled plans by *normalized*
//! query text so formatting variants of the same query share one plan,
//! and separately memoizes OSCTI-report synthesis (report text → TBQL),
//! which dominates report-job latency. Static-analysis *rejections*
//! (queries the lint pass proves can never match) are memoized in the
//! same map: a rejected query resubmitted under a retry loop is refused
//! straight from cache instead of being recompiled every time.
//!
//! Both maps are **size-capped with LRU eviction** — a long-lived
//! multi-tenant service sees an unbounded stream of distinct queries and
//! reports, and an unbounded memo is a slow memory leak. Syntheses are
//! keyed by a 128-bit content hash of the report text instead of the
//! text itself: reports run to many KB, and with the old full-text keys
//! the memo — not the compiled plans — was the dominant memory consumer.
//!
//! Lock poisoning is recovered from, never propagated: a hunt worker
//! panicking mid-probe must not take the shared cache — and with it
//! every other worker — down. Recovery is sound because both maps are
//! only ever mutated through single-call insert/evict operations whose
//! intermediate states are valid maps.

use std::collections::HashMap;
use threatraptor_engine::compile::{compile_with_lint, CompiledQuery};
use threatraptor_engine::EngineError;
use threatraptor_nlp::{StageTimings, ThreatExtractor};
use threatraptor_obs::{Counter, Histogram, Registry, Span, TraceSink};
use threatraptor_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use threatraptor_sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use threatraptor_synth::{synthesize, SynthesisError};
use threatraptor_tbql::analyze::analyze;
use threatraptor_tbql::lint::LintReport;
use threatraptor_tbql::parser::parse_query;
use threatraptor_tbql::printer::print_query;

/// Default capacity of the compiled-plan map.
pub const DEFAULT_PLAN_CAPACITY: usize = 512;
/// Default capacity of the report-synthesis memo.
pub const DEFAULT_SYNTHESIS_CAPACITY: usize = 256;

/// Collapses whitespace runs *outside string literals* to single spaces
/// and trims, so that formatting variants of one query map to one cache
/// key while queries differing only inside a quoted filter (where
/// whitespace is significant — file paths may contain spaces) stay
/// distinct. Tracks the lexer's escape rules (`\"`, `\\`, `\n`, `\t`) so
/// an escaped quote does not end the literal; an unterminated literal
/// keeps its tail verbatim and will fail in the parser with its usual
/// error.
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

/// 128-bit content key for a report text: two independent 64-bit FNV-1a
/// style passes plus the length. Not cryptographic — just wide enough
/// that an accidental collision between distinct reports is negligible
/// (and a collision costs a wrong memo hit, not a safety violation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReportKey {
    hash: [u64; 2],
    len: usize,
}

impl ReportKey {
    /// Hashes a report text.
    pub fn of(text: &str) -> ReportKey {
        // Standard FNV-1a.
        let mut a: u64 = 0xcbf2_9ce4_8422_2325;
        // Same shape, independent offset and multiplier (splitmix64's
        // golden-ratio constant, odd → invertible mod 2^64).
        let mut b: u64 = 0x5851_f42d_4c95_7f2d;
        for byte in text.bytes() {
            a = (a ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            b = (b ^ u64::from(byte)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        ReportKey {
            hash: [a, b],
            len: text.len(),
        }
    }
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
    /// Distinct *rejections* currently cached: queries the static
    /// analyzer proved can never match, memoized so resubmits are
    /// refused without recompiling.
    pub rejections: usize,
    /// Probes served by a cached rejection (counted separately from
    /// plan hits/misses — no compilation happened and no plan was
    /// served).
    pub rejection_hits: usize,
    /// Distinct report syntheses currently cached.
    pub reports: usize,
    /// Entries evicted so far (plans + rejections + syntheses).
    pub evictions: usize,
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
    /// Static-analysis findings for the query (warnings only — a plan
    /// with error-level diagnostics is never compiled; it is cached as
    /// a rejection instead).
    pub lint: LintReport,
}

/// What the cache memoized for a normalized query text: a compiled
/// plan, or the static-analysis rejection that stopped compilation.
/// Rejections are cached because they are as much a pure function of
/// the query text as plans are — resubmitting an infeasible query
/// (common under retry loops) should not re-run the compile pipeline.
#[derive(Debug)]
enum PlanEntry {
    Ready(Arc<CachedPlan>),
    Rejected(EngineError),
}

/// A plan map entry: the plan plus its recency stamp (atomic so hits
/// under the read lock can refresh it without write contention).
#[derive(Debug)]
struct PlanSlot {
    entry: PlanEntry,
    last_used: AtomicU64,
}

/// A memoized synthesis outcome, computed at most once per report.
type SynthesisCell = Arc<OnceLock<Result<String, SynthesisError>>>;

/// A synthesis memo entry with its recency stamp.
#[derive(Debug)]
struct SynthSlot {
    cell: SynthesisCell,
    last_used: u64,
}

/// Evicts the least-recently-used entries until `map` fits `capacity`.
/// O(n) scans per eviction — capacities are a few hundred, and eviction
/// only runs on insert overflow, so simplicity beats a linked LRU here.
fn evict_lru<K: Clone + Eq + std::hash::Hash, V>(
    map: &mut HashMap<K, V>,
    capacity: usize,
    last_used: impl Fn(&V) -> u64,
) -> usize {
    let mut evicted = 0;
    while map.len() > capacity {
        let Some(oldest) = map
            .iter()
            .min_by_key(|(_, v)| last_used(v))
            .map(|(k, _)| k.clone())
        else {
            break;
        };
        map.remove(&oldest);
        evicted += 1;
    }
    evicted
}

/// Registry handles for cache telemetry, attached at most once per
/// cache (the cache is shared via `Arc`, so interior attachment avoids
/// constructor churn at every creation site).
#[derive(Debug)]
struct CacheObs {
    /// `plan_cache_hits_total`.
    hits: Arc<Counter>,
    /// `plan_cache_misses_total`.
    misses: Arc<Counter>,
    /// `plan_cache_evictions_total` (plans + syntheses).
    evictions: Arc<Counter>,
    /// `plan_cache_rejections_total` (infeasible queries memoized).
    rejections: Arc<Counter>,
    /// `plan_cache_rejection_hits_total` (probes refused from cache).
    rejection_hits: Arc<Counter>,
    /// `hunt_stage_ns{stage=parse|analyze|compile|synthesize}`.
    trace: TraceSink,
    /// `nlp_stage_ns{stage=…}`, one series per
    /// [`StageTimings::STAGE_NAMES`] entry, in that order.
    nlp_stages: [Arc<Histogram>; 8],
}

/// Thread-safe plan + synthesis cache, shared by the server's job
/// workers and its standing queries.
/// Both maps are size-capped (LRU): see [`PlanCache::with_capacities`].
#[derive(Debug)]
pub struct PlanCache {
    plans: RwLock<HashMap<String, PlanSlot>>,
    /// Per-report cell keyed by content hash:
    /// `OnceLock::get_or_init` makes concurrent first touches of the same
    /// report run extraction+synthesis exactly once (the expensive stage
    /// — worth more than the plans' race-and-drop).
    syntheses: Mutex<HashMap<ReportKey, SynthSlot>>,
    plan_capacity: usize,
    synthesis_capacity: usize,
    /// Logical clock for LRU stamps.
    tick: AtomicU64,
    hits: AtomicUsize,
    misses: AtomicUsize,
    rejection_hits: AtomicUsize,
    evictions: AtomicUsize,
    /// Telemetry handles, attached at most once.
    obs: OnceLock<CacheObs>,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new()
    }
}

impl PlanCache {
    /// An empty cache with default capacities.
    pub fn new() -> PlanCache {
        Self::with_capacities(DEFAULT_PLAN_CAPACITY, DEFAULT_SYNTHESIS_CAPACITY)
    }

    /// An empty cache holding at most `plans` compiled plans and
    /// `syntheses` memoized report syntheses (each clamped to ≥ 1);
    /// least-recently-used entries are evicted on overflow.
    pub fn with_capacities(plans: usize, syntheses: usize) -> PlanCache {
        PlanCache {
            plans: RwLock::new(HashMap::new()),
            syntheses: Mutex::new(HashMap::new()),
            plan_capacity: plans.max(1),
            synthesis_capacity: syntheses.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            rejection_hits: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            obs: OnceLock::new(),
        }
    }

    /// Attaches cache telemetry to `registry`: `plan_cache_*` counters,
    /// `hunt_stage_ns{stage=parse|analyze|compile|synthesize}` timers
    /// around the compile pipeline, and the NLP pipeline's own stage
    /// split of each synthesis as `nlp_stage_ns{stage=segmentation|
    /// protection|parsing|annotation|coref|merge|relext|construct}`.
    /// Idempotent; the first registry attached wins (the cache is
    /// shared, one owner instruments it).
    pub fn attach_metrics(&self, registry: &Arc<Registry>) {
        let _ = self.obs.set(CacheObs {
            nlp_stages: StageTimings::STAGE_NAMES
                .map(|stage| registry.histogram_labeled("nlp_stage_ns", &[("stage", stage)])),
            hits: registry.counter("plan_cache_hits_total"),
            misses: registry.counter("plan_cache_misses_total"),
            evictions: registry.counter("plan_cache_evictions_total"),
            rejections: registry.counter("plan_cache_rejections_total"),
            rejection_hits: registry.counter("plan_cache_rejection_hits_total"),
            trace: TraceSink::new(Arc::clone(registry), "hunt_stage_ns"),
        });
    }

    // ordering: every atomic in this cache is Relaxed. The stats
    // counters are advisory scalars with no cross-variable invariant,
    // and the LRU recency ticks only *order* entries — a stale tick
    // costs at worst a suboptimal eviction, never incoherence, because
    // all structural mutation happens under the `plans` RwLock.
    fn observe_evictions(&self, evicted: usize) {
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.evictions.add(evicted as u64);
        }
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the compiled plan for `tbql_src`, compiling at most once
    /// per normalized query text. The boolean is `true` on a cache hit.
    ///
    /// Queries the static analyzer rejects (error-level lint
    /// diagnostics) are memoized too: the first submit runs the compile
    /// pipeline and caches the [`EngineError::Infeasible`] outcome;
    /// resubmits of the same normalized text are refused from cache —
    /// counted as rejection hits, not plan hits — without recompiling.
    pub fn plan(&self, tbql_src: &str) -> Result<(Arc<CachedPlan>, bool), EngineError> {
        let key = normalize_tbql(tbql_src);
        if let Some(slot) = self
            .plans
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            slot.last_used.store(self.next_tick(), Ordering::Relaxed);
            match &slot.entry {
                PlanEntry::Ready(plan) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if let Some(obs) = self.obs.get() {
                        obs.hits.inc();
                    }
                    return Ok((Arc::clone(plan), true));
                }
                PlanEntry::Rejected(err) => {
                    self.rejection_hits.fetch_add(1, Ordering::Relaxed);
                    if let Some(obs) = self.obs.get() {
                        obs.rejection_hits.inc();
                    }
                    return Err(err.clone());
                }
            }
        }

        // Compile outside any lock: compilation is pure, and two workers
        // racing on the same key just do redundant work once.
        let trace = self.obs.get().map(|obs| &obs.trace);
        let stage = |name: &str, trace: Option<&TraceSink>| trace.map(|t| t.span(name));
        // A failing stage cancels its span: error paths must not
        // pollute the stage-latency histograms (a parse error's
        // near-zero "parse time" would drag p50 down).
        fn timed<T, E>(span: Option<Span>, result: Result<T, E>) -> Result<T, E> {
            if result.is_err() {
                if let Some(s) = span {
                    s.cancel();
                }
            }
            result
        }
        let query = timed(stage("parse", trace), parse_query(tbql_src))?;
        let analyzed = timed(stage("analyze", trace), analyze(&query))?;
        let (compiled, lint) = match timed(stage("compile", trace), compile_with_lint(&analyzed)) {
            Ok(v) => v,
            Err(err @ EngineError::Infeasible(_)) => {
                // Infeasibility is a pure property of the query text:
                // cache the rejection so resubmits skip the pipeline.
                let tick = self.next_tick();
                let mut plans = self.plans.write().unwrap_or_else(PoisonError::into_inner);
                plans.entry(key).or_insert_with(|| PlanSlot {
                    entry: PlanEntry::Rejected(err.clone()),
                    last_used: AtomicU64::new(tick),
                });
                let evicted = evict_lru(&mut plans, self.plan_capacity, |slot| {
                    slot.last_used.load(Ordering::Relaxed)
                });
                drop(plans);
                self.observe_evictions(evicted);
                if let Some(obs) = self.obs.get() {
                    obs.rejections.inc();
                }
                return Err(err);
            }
            Err(err) => return Err(err),
        };
        let plan = Arc::new(CachedPlan {
            tbql: print_query(&query),
            compiled,
            lint,
        });
        let tick = self.next_tick();
        let mut plans = self.plans.write().unwrap_or_else(PoisonError::into_inner);
        let entry = plans.entry(key).or_insert_with(|| PlanSlot {
            entry: PlanEntry::Ready(Arc::clone(&plan)),
            last_used: AtomicU64::new(tick),
        });
        let plan = match &entry.entry {
            PlanEntry::Ready(p) => Arc::clone(p),
            // A racing worker cannot have cached a rejection for a key we
            // just compiled successfully (both outcomes are pure functions
            // of the text), but serve our own plan rather than panic.
            PlanEntry::Rejected(_) => plan,
        };
        let evicted = evict_lru(&mut plans, self.plan_capacity, |slot| {
            slot.last_used.load(Ordering::Relaxed)
        });
        drop(plans);
        self.observe_evictions(evicted);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.misses.inc();
        }
        Ok((plan, false))
    }

    /// Returns the TBQL synthesized from an OSCTI report, memoized by a
    /// content hash of the report text (successes *and* failures — a
    /// report that synthesizes to nothing will keep doing so). Concurrent
    /// requests for the same report block on one synthesis instead of
    /// each running the NLP pipeline.
    pub fn synthesize_report(&self, report: &str) -> Result<String, SynthesisError> {
        let key = ReportKey::of(report);
        let tick = self.next_tick();
        let (cell, evicted) = {
            let mut map = self
                .syntheses
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let slot = map.entry(key).or_insert_with(|| SynthSlot {
                cell: Arc::default(),
                last_used: tick,
            });
            slot.last_used = tick;
            let cell = Arc::clone(&slot.cell);
            let evicted = evict_lru(&mut map, self.synthesis_capacity, |s| s.last_used);
            (cell, evicted)
        };
        self.observe_evictions(evicted);
        cell.get_or_init(|| {
            // The span only exists on the path that actually runs the
            // NLP pipeline; memoized calls record nothing.
            let _span = self.obs.get().map(|obs| obs.trace.span("synthesize"));
            let extraction = ThreatExtractor::new().extract(report);
            if let Some(obs) = self.obs.get() {
                for (hist, elapsed) in obs.nlp_stages.iter().zip(extraction.timings.stages()) {
                    hist.record_duration(elapsed);
                }
            }
            synthesize(&extraction.graph).map(|q| print_query(&q))
        })
        .clone()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let (plans, rejections) = {
            let map = self.plans.read().unwrap_or_else(PoisonError::into_inner);
            let rejections = map
                .values()
                .filter(|s| matches!(s.entry, PlanEntry::Rejected(_)))
                .count();
            (map.len() - rejections, rejections)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            plans,
            rejections,
            rejection_hits: self.rejection_hits.load(Ordering::Relaxed),
            reports: self
                .syntheses
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            evictions: self.evictions.load(Ordering::Relaxed),
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
        assert_eq!((s.plans, s.rejections), (0, 0));
    }

    #[test]
    fn infeasible_queries_cached_as_rejections() {
        let cache = PlanCache::new();
        let registry = Arc::new(threatraptor_obs::Registry::new());
        cache.attach_metrics(&registry);
        // Cyclic `before` ordering: E001, rejected at compile time.
        let bad = "proc p read file f as e1 proc p write file g as e2 \
                   with e1 before e2, e2 before e1 return p";
        let first = cache.plan(bad).unwrap_err();
        assert!(matches!(first, EngineError::Infeasible(_)), "{first}");
        let s = cache.stats();
        assert_eq!((s.plans, s.rejections, s.rejection_hits), (0, 1, 0));

        // A formatting variant of the same query is refused from cache.
        let again = cache
            .plan(&format!("  {}  ", bad.replace(' ', "\t")))
            .unwrap_err();
        assert_eq!(first, again, "cached rejection must be identical");
        let s = cache.stats();
        assert_eq!(s.rejection_hits, 1);
        // Rejection traffic never pollutes the plan hit/miss counters.
        assert_eq!((s.hits, s.misses), (0, 0));

        let snap = registry.snapshot();
        assert_eq!(snap.counter("plan_cache_rejections_total"), Some(1));
        assert_eq!(snap.counter("plan_cache_rejection_hits_total"), Some(1));
        // The compile stage span was cancelled on the rejection path:
        // the series may exist (registered at span creation) but holds
        // no samples.
        let compile_samples = snap
            .histogram("hunt_stage_ns", &[("stage", "compile")])
            .map(|h| h.count)
            .unwrap_or(0);
        assert_eq!(compile_samples, 0);
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
    fn report_synthesis_is_memoized() {
        let cache = PlanCache::new();
        let report = threatraptor_nlp::pipeline::FIG2_OSCTI_TEXT;
        let a = cache.synthesize_report(report).unwrap();
        let b = cache.synthesize_report(report).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.stats().reports, 1);
        // Failures are memoized too.
        let err = cache.synthesize_report("Nothing interesting happened.");
        assert!(err.is_err());
        assert_eq!(cache.stats().reports, 2);
    }

    #[test]
    fn plan_map_evicts_least_recently_used() {
        let cache = PlanCache::with_capacities(2, 2);
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
    fn synthesis_memo_evicts_least_recently_used() {
        let cache = PlanCache::with_capacities(8, 2);
        let reports = [
            "Attackers read /etc/passwd with /bin/cat.",
            "Attackers wrote /tmp/x with /bin/dd.",
            "Attackers sent /tmp/y to 1.2.3.4 with /usr/bin/curl.",
        ];
        for r in &reports {
            let _ = cache.synthesize_report(r);
        }
        let s = cache.stats();
        assert_eq!(s.reports, 2, "memo capacity must hold");
        assert!(s.evictions >= 1);
    }

    #[test]
    fn report_keys_are_content_hashes() {
        let a = ReportKey::of("the same text");
        let b = ReportKey::of("the same text");
        let c = ReportKey::of("different text!");
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Sanity: keys are fixed-size regardless of report length.
        assert_eq!(
            std::mem::size_of::<ReportKey>(),
            std::mem::size_of::<[u64; 2]>() + std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn attached_metrics_mirror_cache_stats() {
        let registry = Arc::new(Registry::new());
        let cache = PlanCache::with_capacities(2, 2);
        cache.attach_metrics(&registry);
        let q = |path: &str| format!("proc p[\"%{path}%\"] read file f return p");
        cache.plan(&q("/bin/a")).unwrap();
        cache.plan(&q("/bin/a")).unwrap();
        cache.plan(&q("/bin/b")).unwrap();
        cache.plan(&q("/bin/c")).unwrap();
        let _ = cache.synthesize_report("Attackers read /etc/passwd with /bin/cat.");
        // A failing compile pipeline cancels its stage span: the parse
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
        // Compile-pipeline stages were traced on the miss path only.
        for stage in ["parse", "analyze", "compile"] {
            let h = snap
                .histogram("hunt_stage_ns", &[("stage", stage)])
                .unwrap_or_else(|| panic!("missing {stage} series"));
            assert_eq!(h.count, s.misses as u64, "{stage} per miss");
        }
        let synth = snap
            .histogram("hunt_stage_ns", &[("stage", "synthesize")])
            .unwrap();
        assert_eq!(synth.count, 1);
    }

    #[test]
    fn nlp_stages_recorded_once_per_synthesis() {
        let registry = Arc::new(Registry::new());
        let cache = PlanCache::new();
        cache.attach_metrics(&registry);
        let report = threatraptor_nlp::pipeline::FIG2_OSCTI_TEXT;
        cache.synthesize_report(report).unwrap();
        // A memoized hit runs no pipeline and records nothing.
        cache.synthesize_report(report).unwrap();
        let _ = cache.synthesize_report("Attackers read /etc/passwd with /bin/cat.");

        let snap = registry.snapshot();
        let synth = snap
            .histogram("hunt_stage_ns", &[("stage", "synthesize")])
            .unwrap();
        assert_eq!(synth.count, 2, "two distinct reports synthesized");
        let mut stage_sum = 0;
        for stage in StageTimings::STAGE_NAMES {
            let h = snap
                .histogram("nlp_stage_ns", &[("stage", stage)])
                .unwrap_or_else(|| panic!("missing nlp_stage_ns{{stage={stage}}}"));
            assert_eq!(h.count, synth.count, "{stage}: one record per synthesis");
            stage_sum += h.sum;
        }
        assert!(
            stage_sum <= synth.sum,
            "stages ({stage_sum} ns) run inside the synthesize span ({} ns)",
            synth.sum
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let cache = PlanCache::with_capacities(0, 0);
        cache.plan(FIG2_TBQL).unwrap();
        assert_eq!(cache.stats().plans, 1);
    }
}
