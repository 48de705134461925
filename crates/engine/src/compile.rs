//! Pattern compilation: TBQL → relational plans and graph path queries.
//!
//! Event patterns become a three-way join (subject entity table ⋈ event
//! table ⋈ object entity table) — "a SQL data query which joins entity
//! tables with event table". Path patterns become graph
//! [`PathQuery`]s — "since it is difficult to perform graph pattern search
//! using SQL, ThreatRaptor compiles it into a Cypher data query".
//!
//! Compilation also assigns **slots**: every entity variable gets a
//! position in [`CompiledQuery::vars`], every pattern is its own slot
//! (its declaration index), and `before` pairs and the return clause are
//! pre-resolved to slot indices. The executor's partial matches are flat
//! tuples indexed by these slots (the crate's `join` module); names only reappear
//! when a delivered [`Match`](crate::Match) is materialized.

use crate::error::EngineError;
use std::collections::{HashMap, HashSet};
use threatraptor_audit::entity::{EntityId, EntityKind};
use threatraptor_storage::graphdb::PathQuery;
use threatraptor_storage::relational::{
    CmpOp as SqlCmp, JoinCond, Predicate, SqlSelect, TableRef, Value,
};
use threatraptor_storage::store::{AuditStore, TABLE_EVENT};
use threatraptor_tbql::analyze::AnalyzedQuery;
use threatraptor_tbql::ast::{CmpOp, EntityType, Expr, Lit, Pattern, TimeWindow};
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
    /// Kind of the object entity.
    pub object_kind: EntityKind,
    /// Execution shape.
    pub shape: CompiledShape,
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

/// Execution shape of a compiled pattern.
#[derive(Debug, Clone)]
pub enum CompiledShape {
    /// Single event: operation alternatives.
    Event {
        /// Operation names (`read` …).
        ops: Vec<String>,
    },
    /// Variable-length path.
    Path {
        /// Minimum hops.
        min_hops: u32,
        /// Maximum hops.
        max_hops: u32,
        /// Final-hop operation.
        last_op: String,
    },
}

/// A fully compiled query.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// Patterns in declaration order.
    pub patterns: Vec<CompiledPattern>,
    /// Per-variable storage predicate (merged across mentions).
    pub var_predicates: HashMap<String, Predicate>,
    /// Per-variable entity kind (which of the catalog's tables holds it).
    pub var_kinds: HashMap<String, EntityKind>,
    /// Temporal `before` pairs (pattern ids).
    pub before: Vec<(String, String)>,
    /// Return projection `(var, attr)`.
    pub returns: Vec<(String, String)>,
    /// Entity variables in slot order (sorted by name).
    pub vars: Vec<String>,
    /// [`CompiledQuery::before`] resolved to pattern slots (declaration
    /// indices), pair for pair.
    pub before_slots: Vec<(usize, usize)>,
    /// Variable slot of each [`CompiledQuery::returns`] column.
    pub return_slots: Vec<usize>,
    /// Distinct projection.
    pub distinct: bool,
}

/// Converts a TBQL filter expression to a storage predicate.
pub fn expr_to_predicate(expr: &Expr) -> Predicate {
    match expr {
        Expr::Cmp { attr, op, value } => {
            let v = match value {
                Lit::Str(s) => Value::str(s.clone()),
                Lit::Int(i) => Value::int(*i),
            };
            match op {
                CmpOp::Like => match value {
                    Lit::Str(s) => Predicate::like(attr.clone(), s.clone()),
                    Lit::Int(i) => Predicate::like(attr.clone(), i.to_string()),
                },
                CmpOp::Eq => Predicate::Cmp(attr.clone(), SqlCmp::Eq, v),
                CmpOp::Ne => Predicate::Cmp(attr.clone(), SqlCmp::Ne, v),
                CmpOp::Lt => Predicate::Cmp(attr.clone(), SqlCmp::Lt, v),
                CmpOp::Le => Predicate::Cmp(attr.clone(), SqlCmp::Le, v),
                CmpOp::Gt => Predicate::Cmp(attr.clone(), SqlCmp::Gt, v),
                CmpOp::Ge => Predicate::Cmp(attr.clone(), SqlCmp::Ge, v),
            }
        }
        Expr::And(legs) => Predicate::And(legs.iter().map(expr_to_predicate).collect()),
        Expr::Or(legs) => Predicate::Or(legs.iter().map(expr_to_predicate).collect()),
    }
}

/// Stored entity kind of a TBQL entity type.
pub fn kind_for(ty: EntityType) -> EntityKind {
    match ty {
        EntityType::Proc => EntityKind::Process,
        EntityType::File => EntityKind::File,
        EntityType::Ip => EntityKind::Network,
    }
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
    let cq = compile_feasible(aq, &report)?;
    Ok((cq, report))
}

/// Builds the plan for a query the lint pass accepted.
fn compile_feasible(aq: &AnalyzedQuery, report: &LintReport) -> Result<CompiledQuery, EngineError> {
    let mut var_predicates = HashMap::new();
    let mut var_kinds = HashMap::new();
    for (var, info) in &aq.entities {
        let pred = Predicate::and(info.filters.iter().map(expr_to_predicate).collect());
        var_predicates.insert(var.clone(), pred);
        var_kinds.insert(var.clone(), kind_for(info.ty));
    }
    // `entities` is a BTreeMap, so slot order is name order.
    let vars: Vec<String> = aq.entities.keys().cloned().collect();
    let var_slot = |var: &str| -> Result<usize, EngineError> {
        vars.binary_search_by(|v| v.as_str().cmp(var))
            .map_err(|_| EngineError::Execution(format!("untyped variable `{var}`")))
    };
    let pattern_slot = |id: &str| -> Result<usize, EngineError> {
        aq.pattern_index(id)
            .ok_or_else(|| EngineError::Execution(format!("unknown pattern `{id}`")))
    };

    let mut patterns = Vec::with_capacity(aq.query.patterns.len());
    for (i, pat) in aq.query.patterns.iter().enumerate() {
        let id = aq.pattern_ids[i].clone();
        let subject_var = pat.subject().id.clone();
        let object_var = pat.object().id.clone();
        let (subject_slot, object_slot) = (var_slot(&subject_var)?, var_slot(&object_var)?);
        let object_kind = var_kinds[&object_var];
        let (shape, window, max_len) = match pat {
            Pattern::Event(e) => (CompiledShape::Event { ops: e.ops.clone() }, e.window, 1u32),
            Pattern::Path(p) => {
                let min = p.min_hops.unwrap_or(1);
                let max = p.max_hops.unwrap_or(min.max(4));
                (
                    CompiledShape::Path {
                        min_hops: min,
                        max_hops: max,
                        last_op: p.last_op.clone(),
                    },
                    p.window,
                    max,
                )
            }
        };
        let score = crate::score::pruning_score(
            &aq.entities[&subject_var],
            &aq.entities[&object_var],
            window,
            max_len,
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
            object_kind,
            shape,
            window,
            bounds,
            score,
        });
    }

    let before_slots = aq
        .before
        .iter()
        .map(|(a, b)| Ok((pattern_slot(a)?, pattern_slot(b)?)))
        .collect::<Result<_, EngineError>>()?;
    let return_slots = aq
        .returns
        .iter()
        .map(|(var, _)| var_slot(var))
        .collect::<Result<_, EngineError>>()?;
    Ok(CompiledQuery {
        patterns,
        var_predicates,
        var_kinds,
        before: aq.before.clone(),
        returns: aq.returns.clone(),
        vars,
        before_slots,
        return_slots,
        distinct: aq.distinct,
    })
}

impl CompiledQuery {
    /// Builds the relational plan for an event pattern, with extra
    /// propagated predicates per variable (the scheduler's filter
    /// pushdown).
    pub fn event_plan(
        &self,
        pat: &CompiledPattern,
        extra: &HashMap<String, Predicate>,
    ) -> SqlSelect {
        let CompiledShape::Event { ops } = &pat.shape else {
            panic!("event_plan on a path pattern");
        };
        let mut event_pred = vec![op_predicate(ops)];
        if let Some(w) = pat.window {
            event_pred.push(Predicate::Cmp(
                "start".into(),
                SqlCmp::Ge,
                Value::from(w.lo),
            ));
            event_pred.push(Predicate::Cmp("end".into(), SqlCmp::Le, Value::from(w.hi)));
        }
        let var_pred = |var: &str| {
            let mut legs = vec![self.var_predicates[var].clone()];
            if let Some(p) = extra.get(var) {
                legs.push(p.clone());
            }
            Predicate::and(legs)
        };
        SqlSelect {
            from: vec![
                TableRef::new(
                    AuditStore::entity_table(self.var_kinds[&pat.subject_var]),
                    "s",
                ),
                TableRef::new(TABLE_EVENT, "e"),
                TableRef::new(AuditStore::entity_table(pat.object_kind), "o"),
            ],
            joins: vec![
                JoinCond::new("s", "id", "e", "subject"),
                JoinCond::new("o", "id", "e", "object"),
            ],
            filters: vec![
                ("s".into(), var_pred(&pat.subject_var)),
                ("e".into(), Predicate::and(event_pred)),
                ("o".into(), var_pred(&pat.object_var)),
            ],
            projection: vec![
                ("s".into(), "id".into()),
                ("e".into(), "id".into()),
                ("o".into(), "id".into()),
            ],
            distinct: false,
        }
    }

    /// Builds the graph path query for a path pattern over already
    /// resolved endpoint id sets (the endpoint predicates evaluated
    /// against the entity catalog).
    pub fn path_plan(
        &self,
        pat: &CompiledPattern,
        src: HashSet<EntityId>,
        dst: HashSet<EntityId>,
    ) -> PathQuery {
        let CompiledShape::Path {
            min_hops,
            max_hops,
            last_op,
        } = &pat.shape
        else {
            panic!("path_plan on an event pattern");
        };
        PathQuery {
            src: Some(src),
            dst: Some(dst),
            min_hops: *min_hops,
            max_hops: *max_hops,
            last_op: Some(
                last_op
                    .parse()
                    .expect("operation names validated by analysis"),
            ),
            mid_ops: None,
            time_monotone: true,
            window: pat.window.map(|w| (w.lo, w.hi)),
            max_matches: crate::exec::MAX_PATH_MATCHES,
        }
    }

    /// Renders a path pattern as Cypher text (for the conciseness
    /// comparison and for debugging).
    pub fn to_cypher(&self, pat: &CompiledPattern) -> String {
        let CompiledShape::Path {
            min_hops,
            max_hops,
            last_op,
        } = &pat.shape
        else {
            // Event patterns render as single-hop relationships.
            let CompiledShape::Event { ops } = &pat.shape else {
                unreachable!()
            };
            let ops = ops
                .iter()
                .map(|o| o.to_uppercase())
                .collect::<Vec<_>>()
                .join("|");
            return format!(
                "MATCH ({s}:{st})-[e:{ops}]->({o}:{ot}) WHERE {w} RETURN {s}, e, {o};",
                s = pat.subject_var,
                st = label(self.var_kinds[&pat.subject_var]),
                o = pat.object_var,
                ot = label(pat.object_kind),
                w = cypher_where(self, pat),
            );
        };
        format!(
            "MATCH p = ({s}:{st})-[*{min}..{max}]->({o}:{ot}) \
             WHERE {w} AND last(relationships(p)).op = '{last_op}' RETURN p;",
            s = pat.subject_var,
            st = label(self.var_kinds[&pat.subject_var]),
            min = min_hops,
            max = max_hops,
            o = pat.object_var,
            ot = label(pat.object_kind),
            w = cypher_where(self, pat),
        )
    }
}

fn label(kind: EntityKind) -> &'static str {
    match kind {
        EntityKind::Process => "Process",
        EntityKind::File => "File",
        EntityKind::Network => "Connection",
    }
}

fn cypher_where(cq: &CompiledQuery, pat: &CompiledPattern) -> String {
    let mut parts = Vec::new();
    for var in [&pat.subject_var, &pat.object_var] {
        let pred = &cq.var_predicates[var];
        if !matches!(pred, Predicate::True) {
            parts.push(
                pred.to_sql(var)
                    .replace(" LIKE '%", " CONTAINS '")
                    .replace("%'", "'"),
            );
        }
    }
    if parts.is_empty() {
        "true".to_string()
    } else {
        parts.join(" AND ")
    }
}

/// Event-table predicate for operation alternatives.
pub fn op_predicate(ops: &[String]) -> Predicate {
    if ops.len() == 1 {
        Predicate::eq("op", ops[0].as_str())
    } else {
        Predicate::InSet(
            "op".into(),
            ops.iter().map(|o| Value::str(o.as_str())).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(cq.before.len(), 7);
        assert!(cq.distinct);
        assert_eq!(cq.returns.len(), 9);
    }

    #[test]
    fn event_plan_shape() {
        let cq = compiled(r#"proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 return p"#);
        let plan = cq.event_plan(&cq.patterns[0], &HashMap::new());
        assert_eq!(plan.from.len(), 3);
        let sql = plan.to_sql();
        assert!(sql.contains("process AS s"));
        assert!(sql.contains("event AS e"));
        assert!(sql.contains("file AS o"));
        assert!(sql.contains("s.id = e.subject"));
        assert!(sql.contains("e.op = 'read'"));
        assert!(sql.contains("s.exename LIKE '%/bin/tar%'"));
    }

    #[test]
    fn window_becomes_time_predicates() {
        let cq = compiled("proc p read file f as e1 window [100, 900] return p");
        let plan = cq.event_plan(&cq.patterns[0], &HashMap::new());
        let sql = plan.to_sql();
        assert!(sql.contains("e.start >= 100"));
        assert!(sql.contains("e.end <= 900"));
    }

    #[test]
    fn op_alternatives_become_in_set() {
        let cq = compiled("proc p read || write file f as e1 return p");
        let plan = cq.event_plan(&cq.patterns[0], &HashMap::new());
        let sql = plan.to_sql();
        assert!(sql.contains("e.op IN ('read', 'write')"), "{sql}");
    }

    #[test]
    fn expr_to_predicate_covers_ops() {
        let e = Expr::Cmp {
            attr: "pid".into(),
            op: CmpOp::Ge,
            value: Lit::Int(10),
        };
        assert_eq!(
            expr_to_predicate(&e),
            Predicate::Cmp("pid".into(), SqlCmp::Ge, Value::int(10))
        );
        let e = Expr::Or(vec![
            Expr::Cmp {
                attr: "owner".into(),
                op: CmpOp::Eq,
                value: Lit::Str("root".into()),
            },
            Expr::Cmp {
                attr: "exename".into(),
                op: CmpOp::Like,
                value: Lit::Str("%sh".into()),
            },
        ]);
        let p = expr_to_predicate(&e);
        assert!(matches!(p, Predicate::Or(ref legs) if legs.len() == 2));
    }

    #[test]
    fn cypher_rendering() {
        let cq = compiled(r#"proc p["%gpg%"] ~>(2~4)[read] file f as pp return p"#);
        let cypher = cq.to_cypher(&cq.patterns[0]);
        assert!(cypher.contains("[*2..4]"), "{cypher}");
        assert!(cypher.contains("last(relationships(p)).op = 'read'"));
        assert!(cypher.contains("CONTAINS 'gpg'"));

        let cq = compiled("proc p read || write file f as e1 return p");
        let cypher = cq.to_cypher(&cq.patterns[0]);
        assert!(cypher.contains("[e:READ|WRITE]"), "{cypher}");
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
