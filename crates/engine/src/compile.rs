//! Pattern compilation: an analyzed TBQL query → the executor's plan.
//!
//! The paper compiles each pattern to "a SQL data query which joins
//! entity tables with event table", or to a Cypher query for a path
//! pattern (§II-F). Here each pattern compiles to what the executor's one
//! data path needs: the [`EntityFilter`] of each variable (its merged
//! TBQL filters as analysis typed them, evaluated on the entity
//! catalog), and the pattern's [`PatternShape`] — the typed operations
//! an event pattern admits, or a path's hop bounds and final-hop
//! operation, as analysis resolved them — which the event scan and the
//! path expansion probe the shards' postings with. The SQL and Cypher
//! texts the paper's conciseness comparison counts are rendered from the
//! analyzed query by `threatraptor_bench::reference`.
//!
//! Compilation also assigns **slots**: every entity variable gets a
//! position in [`CompiledQuery::vars`], every pattern is its own slot
//! (its declaration index). Analysis already resolved `before` pairs to
//! pattern indices, return items to the audit schema's [`Field`]s and
//! filters to typed conditions; compile adds each endpoint's and each
//! returned variable's slot. It fails only on the lint pass's errors
//! ([`EngineError::Infeasible`]). The executor's partial
//! matches are flat tuples indexed by these slots (the crate's `join`
//! module); names only reappear when a delivered [`Match`](crate::Match)
//! is materialized.
//!
//! A compiled query also carries its [`ResolveMemo`]: each variable's
//! resolved entity ids, filled by the first execution that needs them
//! and shared by every clone of the plan (see [`crate::exec`]).

use crate::error::EngineError;
use crate::exec::ResolveMemo;
use crate::filter::EntityFilter;
use threatraptor_audit::entity::Field;
use threatraptor_sync::Arc;
use threatraptor_tbql::analyze::{AnalyzedQuery, PatternShape};
use threatraptor_tbql::ast::TimeWindow;
use threatraptor_tbql::lint::{lint, LintReport};

/// A compiled pattern ready for execution.
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    /// Pattern id (`evt1` …).
    pub id: String,
    /// Index in declaration order.
    pub decl_index: usize,
    /// Subject variable.
    pub subject_var: String,
    /// Object variable.
    pub object_var: String,
    /// Slot of the subject variable (index into [`CompiledQuery::vars`]).
    pub subject_slot: usize,
    /// Slot of the object variable (index into [`CompiledQuery::vars`]).
    pub object_slot: usize,
    /// Execution shape.
    pub shape: PatternShape,
    /// Optional time window.
    pub window: Option<TimeWindow>,
    /// DBM-tightened feasible time range, present only when strictly
    /// tighter than `window`: any row in a complete match satisfies
    /// `start ≥ lo && end ≤ hi`, so scans clamp to it ([`ShardedEngine`]
    /// counts rows it excludes as pruned).
    ///
    /// [`ShardedEngine`]: crate::ShardedEngine
    pub bounds: Option<TimeWindow>,
    /// Pruning score (higher executes earlier).
    pub score: i64,
}

/// A fully compiled query. Clones share one [`ResolveMemo`].
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// Patterns in declaration order.
    pub patterns: Vec<CompiledPattern>,
    /// Per variable slot, its entity filter (read it through
    /// [`CompiledQuery::var_filters`]): crate-private, so no caller can
    /// change a filter under a filled memo.
    pub(crate) var_filters: Vec<EntityFilter>,
    /// Return projection `(var, attr)`.
    pub returns: Vec<(String, String)>,
    /// Entity variables in slot order (sorted by name).
    pub vars: Vec<String>,
    /// Temporal `before` pairs `(earlier, later)` as pattern slots
    /// (declaration indices).
    pub before_slots: Vec<(usize, usize)>,
    /// Per [`CompiledQuery::returns`] column, the variable slot it reads
    /// and the field it renders.
    pub return_fields: Vec<(usize, Field)>,
    /// Distinct projection.
    pub distinct: bool,
    /// Each variable's resolved ids, shared by every clone.
    memo: Arc<ResolveMemo>,
}

/// Compiles an analyzed query. Runs the lint pass first: error-level
/// diagnostics (temporal infeasibility, contradictory filters) reject
/// the query as [`EngineError::Infeasible`] before any store is touched.
pub fn compile(aq: &AnalyzedQuery) -> Result<CompiledQuery, EngineError> {
    compile_with_lint(aq).map(|(cq, _)| cq)
}

/// [`compile`] variant that also returns the lint report (warnings plus
/// the temporal analysis), for callers that cache or display it.
pub fn compile_with_lint(aq: &AnalyzedQuery) -> Result<(CompiledQuery, LintReport), EngineError> {
    let report = lint(aq);
    if report.has_errors() {
        return Err(EngineError::Infeasible(report.errors().cloned().collect()));
    }
    let cq = compile_feasible(aq, &report);
    Ok((cq, report))
}

/// Builds the plan for a query the lint pass accepted.
fn compile_feasible(aq: &AnalyzedQuery, report: &LintReport) -> CompiledQuery {
    // `entities` is a BTreeMap, so slot order is name order.
    let vars: Vec<String> = aq.entities.keys().cloned().collect();
    let var_filters = aq
        .entities
        .values()
        .map(|info| EntityFilter {
            kind: info.ty,
            filters: info.filters.clone(),
        })
        .collect();
    // Analysis types every pattern endpoint and every returned variable.
    let var_slot = |var: &str| {
        vars.binary_search_by(|v| v.as_str().cmp(var))
            .expect("analysis typed every variable")
    };

    let mut patterns = Vec::with_capacity(aq.query.patterns.len());
    for (i, pat) in aq.query.patterns.iter().enumerate() {
        let id = aq.pattern_ids[i].clone();
        let subject_var = pat.subject().id.clone();
        let object_var = pat.object().id.clone();
        let (subject_slot, object_slot) = (var_slot(&subject_var), var_slot(&object_var));
        let shape = aq.shapes[i].clone();
        let window = pat.window();
        let score = crate::score::pruning_score(
            &aq.entities[&subject_var],
            &aq.entities[&object_var],
            window,
            shape.hops().1,
        );
        // Keep the DBM bounds only when strictly tighter than the
        // pattern's own window (which the scan already enforces).
        let bounds = report.temporal.bounds.get(i).and_then(|b| {
            let (wlo, whi) = window.map(|w| (w.lo, w.hi)).unwrap_or((0, u64::MAX));
            (b.lo > wlo || b.hi < whi).then_some(TimeWindow { lo: b.lo, hi: b.hi })
        });
        patterns.push(CompiledPattern {
            id,
            decl_index: i,
            subject_var,
            object_var,
            subject_slot,
            object_slot,
            shape,
            window,
            bounds,
            score,
        });
    }

    let return_fields = aq
        .returns
        .iter()
        .map(|(var, field)| (var_slot(var), *field))
        .collect();
    CompiledQuery {
        patterns,
        var_filters,
        returns: aq
            .returns
            .iter()
            .map(|(var, field)| (var.clone(), field.name().to_string()))
            .collect(),
        vars,
        before_slots: aq.before.clone(),
        return_fields,
        distinct: aq.distinct,
        memo: Arc::default(),
    }
}

impl CompiledQuery {
    /// The result's column names, one per return item (`p1.exename`, …).
    pub fn columns(&self) -> Vec<String> {
        self.returns
            .iter()
            .map(|(var, attr)| format!("{var}.{attr}"))
            .collect()
    }

    /// Per variable slot, its entity filter: the kind of entity it binds
    /// and its filters merged across mentions, parallel to
    /// [`CompiledQuery::vars`].
    pub fn var_filters(&self) -> &[EntityFilter] {
        &self.var_filters
    }

    /// The plan's endpoint memo, shared by every clone of this query.
    pub fn memo(&self) -> &ResolveMemo {
        &self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_audit::event::Operation;
    use threatraptor_tbql::analyze::analyze;
    use threatraptor_tbql::parser::{parse_query, FIG2_TBQL};

    fn compiled(src: &str) -> CompiledQuery {
        compile(&analyze(&parse_query(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn fig2_compiles_with_scores() {
        let cq = compiled(FIG2_TBQL);
        assert_eq!(cq.patterns.len(), 8);
        // Every variable carries one LIKE filter, so event patterns tie —
        // except evt8, whose exact-match IP earns the equality bonus.
        let score = |id: &str| cq.patterns.iter().find(|p| p.id == id).unwrap().score;
        assert_eq!(score("evt1"), score("evt2"));
        assert!(score("evt8") > score("evt1"));
        assert_eq!(cq.before_slots.len(), 7);
        assert!(cq.distinct);
        assert_eq!(cq.returns.len(), 9);
    }

    /// Slots carry their variable's kind and its filters, one per
    /// mention filter, as analysis typed them.
    #[test]
    fn slots_carry_kind_and_merged_filters() {
        use threatraptor_audit::entity::EntityKind;
        let src = r#"proc p["%sh"] read file f as e1 proc p[pid = 7] read f return p"#;
        let aq = analyze(&parse_query(src).unwrap()).unwrap();
        let cq = compile(&aq).unwrap();
        assert_eq!(cq.vars, ["f", "p"]);
        assert_eq!(cq.var_filters[0].kind, EntityKind::File);
        assert!(cq.var_filters[0].filters.is_empty());
        assert_eq!(cq.var_filters[1].kind, EntityKind::Process);
        assert_eq!(cq.var_filters[1].filters, aq.entities["p"].filters);
        assert_eq!(cq.var_filters[1].filters.len(), 2);
    }

    #[test]
    fn operations_compile_typed() {
        let cq = compiled(
            "proc p read || write file f as e1 proc p ~>(1~2)[execute] file g as e2 return p",
        );
        let PatternShape::Event { ops } = &cq.patterns[0].shape else {
            panic!("e1 is an event pattern");
        };
        assert_eq!(ops, &[Operation::Read, Operation::Write]);
        let PatternShape::Path { last_op, .. } = &cq.patterns[1].shape else {
            panic!("e2 is a path pattern");
        };
        assert_eq!(*last_op, Operation::Execute);
    }

    #[test]
    fn infeasible_queries_rejected_at_compile() {
        let aq = analyze(
            &parse_query(
                "proc p read file f as e1 proc p write file g as e2 \
                 with e1 before e2, e2 before e1 return p, f, g",
            )
            .unwrap(),
        )
        .unwrap();
        let err = compile(&aq).unwrap_err();
        let EngineError::Infeasible(diags) = err else {
            panic!("expected Infeasible, got {err:?}");
        };
        assert_eq!(diags[0].code, "E001");
    }

    #[test]
    fn dbm_bounds_attach_only_when_tighter_than_window() {
        let cq = compiled(
            "proc p read file f as e1 window [100, 200] \
             proc p write file g as e2 \
             with e1 before e2 \
             return p, f, g",
        );
        let by_id = |id: &str| cq.patterns.iter().find(|p| p.id == id).unwrap();
        // e1's bounds equal its window — nothing to clamp beyond the scan
        // filters already applied.
        assert_eq!(by_id("e1").bounds, None);
        // e2 has no window but inherits `start ≥ 101` from the ordering.
        assert_eq!(
            by_id("e2").bounds,
            Some(TimeWindow {
                lo: 101,
                hi: u64::MAX
            })
        );
    }

    #[test]
    fn compile_with_lint_keeps_warnings() {
        let aq = analyze(&parse_query("proc p read file f as e1 return p").unwrap()).unwrap();
        let (cq, report) = compile_with_lint(&aq).unwrap();
        assert!(cq.patterns[0].bounds.is_none());
        assert!(!report.has_errors());
        assert_eq!(report.warnings().count(), 1); // `f` unconstrained
    }

    #[test]
    fn path_scores_penalize_length() {
        let cq = compiled(
            r#"proc p["%x%"] ~>(1~2)[read] file f as a
               proc q["%x%"] ~>(1~6)[read] file g as b
               return p"#,
        );
        let score = |id: &str| cq.patterns.iter().find(|p| p.id == id).unwrap().score;
        assert!(score("a") > score("b"));
    }
}
