//! EXPLAIN / EXPLAIN ANALYZE for TBQL hunts.
//!
//! [`ShardedEngine::explain`] renders the *compiled plan*: the
//! pruning-score pattern schedule, each pattern's merged entity
//! filters, hash-join key, and predicted shard fan-out.
//! [`ShardedEngine::explain_analyze`] executes the hunt and attaches
//! *actuals*: per-pattern × per-shard rows scanned (exactly the counts
//! the engine's `engine_rows_scanned_total` counters export),
//! constraint-propagation prune sizes, join candidate/output
//! selectivity, and per-stage wall time. [`ExplainReport::render`]
//! produces a stable text form built on the tbql canonical printer.

use std::fmt::Write as _;
use std::time::Duration;

use crate::compile::{compile, CompiledQuery, CompiledShape};
use crate::error::EngineError;
use crate::exec::ExecMode;
use crate::join::Schedule;
use crate::result::{HuntResult, HuntStats, PatternStats};
use crate::sharded::ShardedEngine;
use threatraptor_tbql::analyze::analyze;
use threatraptor_tbql::ast::Query;
use threatraptor_tbql::parser::parse_query;
use threatraptor_tbql::printer::{print_pattern, print_query};

/// One pattern's plan entry, in schedule order.
#[derive(Debug, Clone)]
pub struct ExplainEntry {
    /// Pattern id (`evt1` …).
    pub pattern: String,
    /// Canonical TBQL source line of the pattern.
    pub source: String,
    /// Pruning score (higher executes earlier).
    pub score: i64,
    /// Shape label: `event[read]` or `path(1~3)[write]`.
    pub shape: String,
    /// `(variable, filter rendered as SQL)` for subject then object.
    pub filters: Vec<(String, String)>,
    /// Predicted shard fan-out of the data query.
    pub fanout: usize,
    /// How the pattern's rows meet the partial matches: `seed` for the
    /// first pattern, `hash(p)` / `hash(p,f)` naming the already-bound
    /// variables the hash join keys on, `cross` when it shares none.
    pub join_key: String,
    /// Predicted DBM-clamped feasible time range `(lo, hi)`, present
    /// when the closure tightened the pattern beyond its own window.
    pub bounds: Option<(u64, u64)>,
}

/// Measured execution section of a report.
#[derive(Debug, Clone)]
pub struct ExplainActuals {
    /// Per-pattern actuals, in execution order.
    pub patterns: Vec<PatternStats>,
    /// Endpoint-resolution wall time.
    pub resolve: Duration,
    /// Total scan wall time.
    pub scan: Duration,
    /// Constraint-propagation wall time.
    pub propagate: Duration,
    /// Join wall time.
    pub join: Duration,
    /// Projection wall time.
    pub project: Duration,
    /// End-to-end execution wall time.
    pub total: Duration,
    /// Complete matches produced.
    pub matches: usize,
    /// Delta-mode actuals, when the execution ran incrementally (a
    /// follow-mode poll through the delta path): fresh-range start,
    /// fresh/carry rows scanned, and retained-partial counts.
    pub delta: Option<crate::result::DeltaStats>,
}

/// A rendered query plan, optionally with execution actuals.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Canonical TBQL text of the query.
    pub tbql: String,
    /// Shard count of the target store.
    pub shards: usize,
    /// Plan entries in schedule order.
    pub entries: Vec<ExplainEntry>,
    /// Present after `explain_analyze`.
    pub actuals: Option<ExplainActuals>,
}

impl ExplainReport {
    /// Rows scanned for `pattern` on `shard`, when actuals are present.
    pub fn rows_scanned(&self, pattern: &str, shard: usize) -> Option<usize> {
        let actuals = self.actuals.as_ref()?;
        let pat = actuals.patterns.iter().find(|p| p.pattern == pattern)?;
        pat.shard_rows.get(shard).copied()
    }

    /// Total rows scanned across all patterns and shards.
    pub fn total_rows_scanned(&self) -> usize {
        self.actuals
            .as_ref()
            .map(|a| a.patterns.iter().map(PatternStats::total_rows).sum())
            .unwrap_or(0)
    }

    /// Total rows the DBM feasible-range clamp excluded, when actuals
    /// are present.
    pub fn total_rows_pruned(&self) -> usize {
        self.actuals
            .as_ref()
            .map(|a| a.patterns.iter().map(|p| p.rows_pruned).sum())
            .unwrap_or(0)
    }

    /// Stable text rendering (the `EXPLAIN [ANALYZE]` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let verb = if self.actuals.is_some() {
            "EXPLAIN ANALYZE"
        } else {
            "EXPLAIN"
        };
        writeln!(
            out,
            "{verb} ({} shard{})",
            self.shards,
            if self.shards == 1 { "" } else { "s" }
        )
        .unwrap();
        out.push_str("query:\n");
        for line in self.tbql.lines() {
            writeln!(out, "  {line}").unwrap();
        }
        out.push_str("schedule:\n");
        for (i, e) in self.entries.iter().enumerate() {
            writeln!(
                out,
                "  {}. {}  {}  score={}  join-key={}  fan-out={} shard{}",
                i + 1,
                e.pattern,
                e.shape,
                e.score,
                e.join_key,
                e.fanout,
                if e.fanout == 1 { "" } else { "s" }
            )
            .unwrap();
            if let Some((lo, hi)) = e.bounds {
                writeln!(out, "     feasible: [{lo}, {hi}] (DBM-tightened)").unwrap();
            }
            writeln!(out, "     source: {}", e.source).unwrap();
            for (var, pred) in &e.filters {
                writeln!(out, "     filter {var}: {pred}").unwrap();
            }
        }
        if let Some(a) = &self.actuals {
            out.push_str("actuals:\n");
            if let Some(d) = &a.delta {
                writeln!(
                    out,
                    "  delta: fresh-from={} fresh-rows={} carry-rows={} entity-rows={} partials {}→{}",
                    d.fresh_from,
                    d.fresh_rows,
                    d.carry_rows,
                    d.entity_rows,
                    d.carried_partials,
                    d.retained_partials
                )
                .unwrap();
            }
            for (i, p) in a.patterns.iter().enumerate() {
                let shards: Vec<String> = p
                    .shard_rows
                    .iter()
                    .enumerate()
                    .map(|(s, n)| format!("s{s}={n}"))
                    .collect();
                let prop = if p.propagated.is_empty() {
                    "none".to_string()
                } else {
                    p.propagated
                        .iter()
                        .map(|(var, n)| format!("{var}⊆{n}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                // Actuals follow execution order, which is the schedule's
                // (possibly cut short by an empty join).
                let key = self.entries.get(i).map_or("?", |e| e.join_key.as_str());
                writeln!(
                    out,
                    "  {}. {}: rows={} [{}]  pruned={}  propagated={}  join {}→{} ({:.1}%) {}  {:.3?}",
                    i + 1,
                    p.pattern,
                    p.total_rows(),
                    shards.join(", "),
                    p.rows_pruned,
                    prop,
                    p.join.candidates,
                    p.join.outputs,
                    p.join.selectivity() * 100.0,
                    key,
                    p.elapsed
                )
                .unwrap();
            }
            writeln!(
                out,
                "stages: resolve={:.3?} scan={:.3?} propagate={:.3?} join={:.3?} project={:.3?} total={:.3?}",
                a.resolve, a.scan, a.propagate, a.join, a.project, a.total
            )
            .unwrap();
            writeln!(out, "matches: {}", a.matches).unwrap();
        }
        out
    }
}

/// Builds the plan-only section of a report.
pub(crate) fn plan_report(query: &Query, cq: &CompiledQuery, shards: usize) -> ExplainReport {
    // The same schedule `run_schedule` derives.
    let schedule = Schedule::new(cq);
    let entries = schedule
        .steps
        .iter()
        .enumerate()
        .map(|(i, step)| {
            let pat = &cq.patterns[step.pat];
            let shape = match &pat.shape {
                CompiledShape::Event { ops } => {
                    let ops: Vec<String> = ops.iter().map(ToString::to_string).collect();
                    format!("event[{}]", ops.join("|"))
                }
                CompiledShape::Path {
                    min_hops,
                    max_hops,
                    last_op,
                } => format!("path({min_hops}~{max_hops})[{last_op}]"),
            };
            // Compiled patterns keep their declaration index, so the
            // source line is the same position in the parsed query.
            let source = query
                .patterns
                .get(pat.decl_index)
                .map(print_pattern)
                .unwrap_or_default();
            let filters = [pat.subject_slot, pat.object_slot]
                .map(|slot| {
                    let var = &cq.vars[slot];
                    (var.clone(), cq.var_filters[slot].to_sql(var))
                })
                .to_vec();
            ExplainEntry {
                pattern: pat.id.clone(),
                source,
                score: pat.score,
                shape,
                filters,
                fanout: shards,
                join_key: step.key_label(cq, i == 0),
                bounds: pat.bounds.map(|b| (b.lo, b.hi)),
            }
        })
        .collect();
    ExplainReport {
        tbql: print_query(query),
        shards,
        entries,
        actuals: None,
    }
}

/// Attaches measured execution statistics to a plan report.
pub(crate) fn attach_actuals(report: &mut ExplainReport, stats: &HuntStats, matches: usize) {
    report.actuals = Some(ExplainActuals {
        patterns: stats.patterns.clone(),
        resolve: stats.resolve_elapsed,
        scan: stats.scan_elapsed(),
        propagate: stats.propagate_elapsed,
        join: stats.join_elapsed,
        project: stats.project_elapsed,
        total: stats.elapsed,
        matches,
        delta: stats.delta,
    });
}

impl<'s> ShardedEngine<'s> {
    /// Renders the compiled plan for `tbql` without executing it.
    pub fn explain(&self, tbql: &str) -> Result<ExplainReport, EngineError> {
        let query = parse_query(tbql)?;
        let analyzed = analyze(&query)?;
        let cq = compile(&analyzed)?;
        Ok(plan_report(&query, &cq, self.store().shard_count()))
    }

    /// Executes `tbql` and returns the result alongside a report whose
    /// actuals come from that same execution — the rows-scanned totals
    /// equal what the engine's metric counters recorded for the hunt.
    pub fn explain_analyze(&self, tbql: &str) -> Result<(HuntResult, ExplainReport), EngineError> {
        let query = parse_query(tbql)?;
        let analyzed = analyze(&query)?;
        let cq = compile(&analyzed)?;
        let mut report = plan_report(&query, &cq, self.store().shard_count());
        let result = self.execute(&cq, ExecMode::Scheduled)?;
        attach_actuals(&mut report, &result.stats, result.matches.len());
        Ok((result, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
    use threatraptor_storage::sharded::ShardedStore;
    use threatraptor_tbql::parser::FIG2_TBQL;

    fn store(shards: usize) -> ShardedStore {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(5_000)
            .build();
        ShardedStore::ingest(&sc.log, true, shards)
    }

    #[test]
    fn explain_renders_schedule_in_score_order() {
        let store = store(4);
        let engine = ShardedEngine::new(&store);
        let report = engine.explain(FIG2_TBQL).unwrap();
        assert!(report.actuals.is_none());
        assert_eq!(report.shards, 4);
        // Schedule order is descending score (ties by declaration).
        let scores: Vec<i64> = report.entries.iter().map(|e| e.score).collect();
        let mut sorted = scores.clone();
        sorted.sort_by_key(|s| std::cmp::Reverse(*s));
        assert_eq!(scores, sorted);
        let text = report.render();
        assert!(text.starts_with("EXPLAIN ("));
        assert!(text.contains("schedule:"));
        assert!(text.contains("fan-out=4 shards"));
        assert!(!text.contains("actuals:"));
    }

    #[test]
    fn explain_names_each_patterns_join_key() {
        let store = store(2);
        let engine = ShardedEngine::new(&store);
        let tbql = "proc p read file f as e1 proc p write file f as e2 \
                    proc q read file g as e3 with e1 before e2 return p, f, q";
        // No pattern carries a filter, so the pruning-score order is
        // declaration order.
        let (_, report) = engine.explain_analyze(tbql).unwrap();
        let order: Vec<&str> = report.entries.iter().map(|e| e.pattern.as_str()).collect();
        assert_eq!(order, ["e1", "e2", "e3"]);
        let keys: Vec<&str> = report.entries.iter().map(|e| e.join_key.as_str()).collect();
        assert_eq!(keys, ["seed", "hash(p,f)", "cross"]);
        let text = report.render();
        assert!(text.contains("join-key=hash(p,f)"), "{text}");
        // The actuals line carries the key next to the join counts,
        // whose candidates stay the logical |partial| × |rows|.
        let actuals = report.actuals.as_ref().unwrap();
        let (seed, joined) = (&actuals.patterns[0], &actuals.patterns[1]);
        assert_eq!(
            joined.join.candidates,
            seed.join.outputs * joined.total_rows()
        );
        assert!(text.contains("%) hash(p,f)  "), "{text}");
    }

    #[test]
    fn explain_analyze_attaches_consistent_actuals() {
        let store = store(4);
        let engine = ShardedEngine::new(&store);
        let (result, report) = engine.explain_analyze(FIG2_TBQL).unwrap();
        let actuals = report.actuals.as_ref().unwrap();
        assert_eq!(actuals.matches, result.matches.len());
        // Per-pattern totals equal the stats' fetched-row counts, and
        // every pattern reports one count per shard.
        assert_eq!(actuals.patterns.len(), result.stats.patterns.len());
        for (p, stats) in actuals.patterns.iter().zip(&result.stats.patterns) {
            assert_eq!(p.pattern, stats.pattern);
            assert_eq!(p.total_rows(), stats.total_rows(), "pattern {}", p.pattern);
            assert_eq!(p.shard_rows.len(), 4, "pattern {}", p.pattern);
        }
        assert_eq!(report.total_rows_scanned(), result.stats.total_rows());
        let text = report.render();
        assert!(text.starts_with("EXPLAIN ANALYZE ("));
        assert!(text.contains("actuals:"));
        assert!(text.contains("matches:"));
        // Resolution is timed apart from the scans and printed first.
        assert!(actuals.resolve > Duration::ZERO);
        assert!(text.contains("stages: resolve="), "{text}");
    }

    #[test]
    fn propagation_and_join_actuals_are_recorded() {
        let store = store(2);
        let engine = ShardedEngine::new(&store);
        let (_, report) = engine.explain_analyze(FIG2_TBQL).unwrap();
        let actuals = report.actuals.unwrap();
        // Fig. 2 patterns share variables, so at least one pattern after
        // the first must have received a propagated IN-set filter.
        assert!(
            actuals.patterns[1..]
                .iter()
                .any(|p| !p.propagated.is_empty()),
            "expected constraint propagation on a later pattern"
        );
        // Join selectivities are well-formed.
        for p in &actuals.patterns {
            assert!(p.join.outputs <= p.join.candidates.max(p.join.outputs));
            let s = p.join.selectivity();
            assert!((0.0..=1.0).contains(&s) || p.join.candidates == 0);
        }
    }

    #[test]
    fn explain_surfaces_predicted_bounds_and_pruned_actuals() {
        let store = store(4);
        let engine = ShardedEngine::new(&store);
        // `before` + a window cut at a mid-stream timestamp gives the DBM
        // closure room to tighten e2's range beyond its (absent) window.
        let mid = store.event_at(store.event_count() / 2).start;
        let tbql = format!(
            "proc p read file f as e1 proc p write file g as e2 \
             window [0, {mid}] with e1 before e2 return p, f, g"
        );
        let (result, report) = engine.explain_analyze(&tbql).unwrap();
        // The plan predicts a tightened feasible range for at least one
        // pattern, and the render shows it.
        assert!(
            report.entries.iter().any(|e| e.bounds.is_some()),
            "expected a DBM-tightened entry"
        );
        let text = report.render();
        assert!(text.contains("feasible: ["), "{text}");
        assert!(text.contains("pruned="), "{text}");
        // Actual pruned counts mirror the stats the metric counters were
        // bumped from — equal by construction.
        let actuals = report.actuals.as_ref().unwrap();
        for stats in &result.stats.patterns {
            let p = actuals
                .patterns
                .iter()
                .find(|p| p.pattern == stats.pattern)
                .unwrap();
            assert_eq!(p.rows_pruned, stats.rows_pruned, "pattern {}", p.pattern);
        }
        assert_eq!(report.total_rows_pruned(), result.stats.total_rows_pruned());
        assert!(report.total_rows_pruned() > 0, "expected pruning to fire");
    }

    #[test]
    fn rows_scanned_accessor_matches_render() {
        let store = store(3);
        let engine = ShardedEngine::new(&store);
        let (_, report) = engine.explain_analyze(FIG2_TBQL).unwrap();
        let first = &report.actuals.as_ref().unwrap().patterns[0];
        for shard in 0..3 {
            assert_eq!(
                report.rows_scanned(&first.pattern, shard),
                Some(first.shard_rows[shard])
            );
        }
        assert_eq!(report.rows_scanned("nope", 0), None);
    }
}
