//! Semantic analysis: type resolution, sugar expansion, validation.
//!
//! Implements the paper's inference rules (§II-D): default attribute
//! names are filled in, entity-ID reuse is resolved into one typed entity
//! table (the engine later turns shared entities into attribute
//! relationships between patterns), and temporal constraints are
//! normalized to `before` pairs. Feasibility of the temporal system
//! (ordering cycles, empty or conflicting windows) is checked by the
//! [`dbm`](crate::dbm) closure in the [`lint`](mod@crate::lint) pass, which
//! runs as part of plan compilation.
//!
//! Names are resolved here once, and later stages read the result:
//! [`AnalyzedQuery`] holds each pattern's [`PatternShape`], each `before`
//! pair as pattern indices, each return item as a schema [`Field`] and
//! each filter as a [`Cond`] over schema fields.

use crate::ast::*;
use crate::error::{Span, TbqlError};
use std::collections::{BTreeMap, HashMap, HashSet};
use threatraptor_audit::entity::Field;
use threatraptor_audit::event::Operation;

/// Resolved information about one entity variable.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityInfo {
    /// Resolved entity type.
    pub ty: EntityKind,
    /// Conjunction of all filters attached to any mention, one per
    /// mention filter, normalized (sugar expanded, `=`-with-wildcards
    /// rewritten to `like`, numeric literals coerced).
    pub filters: Vec<Cond>,
}

/// A filter with its attribute resolved: an [`Expr`] over the audit
/// schema's [`Field`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// `field <op> value`; the operator may be [`CmpOp::Like`].
    Cmp {
        /// The attribute compared.
        field: Field,
        /// Comparison operator.
        op: CmpOp,
        /// Literal operand.
        value: Lit,
    },
    /// Conjunction.
    And(Vec<Cond>),
    /// Disjunction.
    Or(Vec<Cond>),
}

/// What a pattern matches, resolved against the audit schema.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternShape {
    /// Single event: operation alternatives.
    Event {
        /// Admitted operations, in the query's order.
        ops: Vec<Operation>,
    },
    /// Variable-length path.
    Path {
        /// Minimum hops (default 1).
        min_hops: u32,
        /// Maximum hops (default `max(min_hops, 4)`).
        max_hops: u32,
        /// Final-hop operation.
        last_op: Operation,
    },
}

impl PatternShape {
    /// The fewest and most events one witness chains: `(1, 1)` for an
    /// event pattern.
    pub fn hops(&self) -> (u32, u32) {
        match *self {
            PatternShape::Event { .. } => (1, 1),
            PatternShape::Path {
                min_hops, max_hops, ..
            } => (min_hops, max_hops),
        }
    }
}

/// A validated, desugared query.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzedQuery {
    /// The original query (unchanged).
    pub query: Query,
    /// Pattern ids, parallel to `query.patterns` (auto-named `evtN` when
    /// the source omitted `as`).
    pub pattern_ids: Vec<String>,
    /// Pattern shapes, parallel to `query.patterns`.
    pub shapes: Vec<PatternShape>,
    /// Entity table.
    pub entities: BTreeMap<String, EntityInfo>,
    /// Temporal constraints normalized to `before` pairs
    /// `(earlier, later)` of indices into `pattern_ids`, one per
    /// constraint of `query.temporal`, in its order.
    pub before: Vec<(usize, usize)>,
    /// Return items `(variable, field)`, default attributes filled in.
    pub returns: Vec<(String, Field)>,
    /// Whether the projection deduplicates.
    pub distinct: bool,
}

impl AnalyzedQuery {
    /// A normalized textual signature of the query's semantics: pattern
    /// shapes, entity types and merged filters, temporal pairs, and
    /// projection — independent of cosmetic source choices (repeated
    /// type keywords, filter placement). Two queries with equal
    /// signatures retrieve the same results on every store.
    pub fn canonical_signature(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (i, pat) in self.query.patterns.iter().enumerate() {
            match pat {
                Pattern::Event(e) => {
                    let mut ops = e.ops.clone();
                    ops.sort();
                    writeln!(
                        s,
                        "event {} {}:{} [{}] window={:?}",
                        self.pattern_ids[i],
                        e.subject.id,
                        e.object.id,
                        ops.join("|"),
                        e.window
                    )
                    .expect("write to String");
                }
                Pattern::Path(p) => {
                    writeln!(
                        s,
                        "path {} {}:{} [{}] {:?}~{:?} window={:?}",
                        self.pattern_ids[i],
                        p.subject.id,
                        p.object.id,
                        p.last_op,
                        p.min_hops,
                        p.max_hops,
                        p.window
                    )
                    .expect("write to String");
                }
            }
        }
        for (var, info) in &self.entities {
            let mut filters: Vec<String> = info.filters.iter().map(|f| format!("{f:?}")).collect();
            filters.sort();
            filters.dedup(); // repeating a filter on a reuse changes nothing
            writeln!(
                s,
                "entity {var} {} {}",
                info.ty.keyword(),
                filters.join(" & ")
            )
            .expect("write to String");
        }
        let ids = &self.pattern_ids;
        let mut before: Vec<_> = self
            .before
            .iter()
            .map(|&(a, b)| (&ids[a], &ids[b]))
            .collect();
        before.sort();
        for (a, b) in before {
            writeln!(s, "before {a} {b}").expect("write to String");
        }
        let returns: Vec<_> = self.returns.iter().map(|(v, f)| (v, f.name())).collect();
        writeln!(s, "return distinct={} {returns:?}", self.distinct).expect("write to String");
        s
    }
}

/// The field `attr` names on entities of `kind`, or the schema's error
/// at `span`.
fn field(kind: EntityKind, attr: &str, span: Span) -> Result<Field, TbqlError> {
    kind.field(attr).map_err(|e| TbqlError::new(span, e))
}

/// The operation `name` names, or the schema's error at `span`.
fn operation(name: &str, span: Span) -> Result<Operation, TbqlError> {
    name.parse::<Operation>()
        .map_err(|e| TbqlError::new(span, e.to_string()))
}

/// Runs semantic analysis.
pub fn analyze(query: &Query) -> Result<AnalyzedQuery, TbqlError> {
    // 1. Pattern ids.
    let mut pattern_ids: Vec<String> = Vec::with_capacity(query.patterns.len());
    let mut seen_ids: HashSet<String> = HashSet::new();
    for (i, pat) in query.patterns.iter().enumerate() {
        let id = match pat.id() {
            Some(id) => id.to_string(),
            None => {
                // Auto-name, avoiding collisions with explicit names.
                let mut n = i + 1;
                loop {
                    let candidate = format!("evt{n}");
                    if !seen_ids.contains(&candidate)
                        && !query.patterns.iter().any(|p| p.id() == Some(&candidate))
                    {
                        break candidate;
                    }
                    n += 1;
                }
            }
        };
        if !seen_ids.insert(id.clone()) {
            return Err(TbqlError::new(
                pat.span(),
                format!("duplicate pattern name `{id}`"),
            ));
        }
        pattern_ids.push(id);
    }

    // 2. Entity type unification.
    let mut types: HashMap<String, (EntityKind, Span)> = HashMap::new();
    let unify = |id: &str,
                 ty: EntityKind,
                 span: Span,
                 types: &mut HashMap<String, (EntityKind, Span)>|
     -> Result<(), TbqlError> {
        match types.get(id) {
            Some((existing, _)) if *existing != ty => Err(TbqlError::new(
                span,
                format!(
                    "entity `{id}` used as {} here but declared as {} earlier",
                    ty.keyword(),
                    existing.keyword()
                ),
            )),
            Some(_) => Ok(()),
            None => {
                types.insert(id.to_string(), (ty, span));
                Ok(())
            }
        }
    };

    let mut shapes = Vec::with_capacity(query.patterns.len());
    for pat in &query.patterns {
        // Subjects are processes (events originate from processes).
        let subj = pat.subject();
        if let Some(ty) = subj.ty {
            if ty != EntityKind::Process {
                return Err(TbqlError::new(
                    subj.span,
                    format!("subject `{}` must be a proc, not {}", subj.id, ty.keyword()),
                ));
            }
        }
        unify(&subj.id, EntityKind::Process, subj.span, &mut types)?;

        // Objects follow the operation's object type.
        let obj = pat.object();
        let (shape, op_ty) = match pat {
            Pattern::Event(e) => {
                let ops: Vec<Operation> = e
                    .ops
                    .iter()
                    .map(|o| operation(o, e.span))
                    .collect::<Result<_, _>>()?;
                let first = ops
                    .first()
                    .ok_or_else(|| TbqlError::new(e.span, "event pattern has no operations"))?
                    .object_kind();
                if ops.iter().any(|o| o.object_kind() != first) {
                    return Err(TbqlError::new(
                        e.span,
                        "operation alternatives must share one object type \
                         (e.g. `read || write`, not `read || connect`)",
                    ));
                }
                (PatternShape::Event { ops }, first)
            }
            Pattern::Path(p) => {
                let last_op = operation(&p.last_op, p.span)?;
                let min_hops = p.min_hops.unwrap_or(1);
                let max_hops = p.max_hops.unwrap_or(min_hops.max(4));
                let shape = PatternShape::Path {
                    min_hops,
                    max_hops,
                    last_op,
                };
                (shape, last_op.object_kind())
            }
        };
        if let Some(declared) = obj.ty {
            if declared != op_ty {
                return Err(TbqlError::new(
                    obj.span,
                    format!(
                        "object `{}` declared as {} but the operation targets {}",
                        obj.id,
                        declared.keyword(),
                        op_ty.keyword()
                    ),
                ));
            }
        }
        unify(&obj.id, op_ty, obj.span, &mut types)?;

        // Path bounds sanity (an event pattern's `(1, 1)` passes).
        let (min, max) = shape.hops();
        if min == 0 {
            return Err(TbqlError::new(
                pat.span(),
                "path minimum length must be ≥ 1",
            ));
        }
        if max < min {
            let message = format!("path bounds reversed ({min}~{max})");
            return Err(TbqlError::new(pat.span(), message));
        }
        shapes.push(shape);
    }

    // 3. Filters: expand sugar, validate attributes, coerce numerics.
    let mut entities: BTreeMap<String, EntityInfo> = types
        .iter()
        .map(|(id, (ty, _))| {
            (
                id.clone(),
                EntityInfo {
                    ty: *ty,
                    filters: Vec::new(),
                },
            )
        })
        .collect();
    for pat in &query.patterns {
        for eref in [pat.subject(), pat.object()] {
            let Some(filter) = &eref.filter else { continue };
            let info = entities.get_mut(&eref.id).expect("typed above");
            let expr = normalize_filter(filter, info.ty, eref.span)?;
            info.filters.push(expr);
        }
    }

    // 4. Temporal constraints: normalize to before-pairs and check
    //    references. Cycle/feasibility checking is the lint pass's DBM.
    let mut before = Vec::with_capacity(query.temporal.len());
    for tc in &query.temporal {
        let index = |side: &str| {
            pattern_ids.iter().position(|p| p == side).ok_or_else(|| {
                TbqlError::new(
                    tc.span,
                    format!("temporal constraint references unknown pattern `{side}`"),
                )
            })
        };
        let (left, right) = (index(&tc.left)?, index(&tc.right)?);
        if left == right {
            return Err(TbqlError::new(
                tc.span,
                format!("pattern `{}` cannot precede itself", tc.left),
            ));
        }
        before.push(match tc.rel {
            TemporalRel::Before => (left, right),
            TemporalRel::After => (right, left),
        });
    }

    // 5. Return clause.
    let mut returns = Vec::new();
    for item in &query.ret.items {
        let Some(info) = entities.get(&item.entity) else {
            return Err(TbqlError::new(
                item.span,
                format!("return references unknown entity `{}`", item.entity),
            ));
        };
        let attr = match &item.attr {
            Some(a) => field(info.ty, a, item.span)?,
            None => info.ty.default_field(),
        };
        returns.push((item.entity.clone(), attr));
    }

    Ok(AnalyzedQuery {
        query: query.clone(),
        pattern_ids,
        shapes,
        entities,
        before,
        returns,
        distinct: query.ret.distinct,
    })
}

/// Expands filter sugar and resolves attribute names to fields.
fn normalize_filter(filter: &Filter, ty: EntityKind, span: Span) -> Result<Cond, TbqlError> {
    match filter {
        Filter::Default(s) => {
            let op = if s.contains('%') || s.contains('_') {
                CmpOp::Like
            } else {
                CmpOp::Eq
            };
            Ok(Cond::Cmp {
                field: ty.default_field(),
                op,
                value: Lit::Str(s.clone()),
            })
        }
        Filter::Expr(e) => normalize_expr(e, ty, span),
    }
}

fn normalize_expr(expr: &Expr, ty: EntityKind, span: Span) -> Result<Cond, TbqlError> {
    match expr {
        Expr::Cmp { attr, op, value } => {
            let field = field(ty, attr, span)?;
            // `=` with wildcards means pattern matching.
            let op = match (op, value) {
                (CmpOp::Eq, Lit::Str(s)) if s.contains('%') || s.contains('_') => CmpOp::Like,
                _ => *op,
            };
            // Numeric attribute literals coerce to integers.
            let value = if field.is_numeric() {
                match value {
                    Lit::Str(s) => match s.parse::<i64>() {
                        Ok(v) => Lit::Int(v),
                        Err(_) if op == CmpOp::Like => value.clone(),
                        Err(_) => {
                            return Err(TbqlError::new(
                                span,
                                format!("attribute `{attr}` is numeric; `{s}` is not a number"),
                            ))
                        }
                    },
                    v => v.clone(),
                }
            } else {
                value.clone()
            };
            Ok(Cond::Cmp { field, op, value })
        }
        Expr::And(legs) => Ok(Cond::And(
            legs.iter()
                .map(|l| normalize_expr(l, ty, span))
                .collect::<Result<_, _>>()?,
        )),
        Expr::Or(legs) => Ok(Cond::Or(
            legs.iter()
                .map(|l| normalize_expr(l, ty, span))
                .collect::<Result<_, _>>()?,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, FIG2_TBQL};

    fn analyzed(src: &str) -> AnalyzedQuery {
        analyze(&parse_query(src).expect("parse")).expect("analyze")
    }

    fn analyze_err(src: &str) -> TbqlError {
        analyze(&parse_query(src).expect("parse")).expect_err("should fail analysis")
    }

    #[test]
    fn fig2_analysis() {
        let a = analyzed(FIG2_TBQL);
        assert_eq!(a.pattern_ids.len(), 8);
        assert_eq!(a.pattern_ids[0], "evt1");
        assert_eq!(a.entities.len(), 9);
        assert_eq!(a.entities["p1"].ty, EntityKind::Process);
        assert_eq!(a.entities["f2"].ty, EntityKind::File);
        assert_eq!(a.entities["i1"].ty, EntityKind::Network);
        // p1's default filter expanded to a LIKE on exename.
        assert_eq!(
            a.entities["p1"].filters,
            vec![Cond::Cmp {
                field: Field::Exename,
                op: CmpOp::Like,
                value: Lit::Str("%/bin/tar%".into())
            }]
        );
        // i1's exact IP stays an equality.
        assert_eq!(
            a.entities["i1"].filters,
            vec![Cond::Cmp {
                field: Field::DstIp,
                op: CmpOp::Eq,
                value: Lit::Str("192.168.29.128".into())
            }]
        );
        // Returns filled with default attributes.
        assert!(a.returns.contains(&("p1".into(), Field::Exename)));
        assert!(a.returns.contains(&("f1".into(), Field::Name)));
        assert!(a.returns.contains(&("i1".into(), Field::DstIp)));
        assert!(a.distinct);
        // `evt1 before evt2, …, evt7 before evt8`, as pattern indices.
        assert_eq!(a.before, (0..7).map(|i| (i, i + 1)).collect::<Vec<_>>());
        assert_eq!(a.pattern_ids[7], "evt8");
    }

    #[test]
    fn auto_pattern_names() {
        let a = analyzed("proc p read file f proc p write file g return p");
        assert_eq!(a.pattern_ids, vec!["evt1".to_string(), "evt2".to_string()]);
    }

    #[test]
    fn auto_names_avoid_collisions() {
        let a = analyzed("proc p read file f as evt1 proc p write file g return p");
        assert_eq!(a.pattern_ids[0], "evt1");
        assert_ne!(a.pattern_ids[1], "evt1");
    }

    #[test]
    fn subject_must_be_proc() {
        let err = analyze_err("file x read file f return f");
        assert!(err.message.contains("must be a proc"));
    }

    #[test]
    fn object_type_follows_operation() {
        let a = analyzed("proc p connect ip c return c");
        assert_eq!(a.entities["c"].ty, EntityKind::Network);
        let err = analyze_err("proc p connect file f return f");
        assert!(err.message.contains("targets ip"), "{}", err.message);
        let err = analyze_err("proc p read || connect file f return f");
        assert!(err.message.contains("share one object type"));
    }

    #[test]
    fn entity_reuse_type_conflicts_detected() {
        // f used as file object then as connection object.
        let err = analyze_err("proc p read file f proc p connect f return p");
        assert!(err.message.contains("used as ip"), "{}", err.message);
    }

    #[test]
    fn invalid_attribute_rejected() {
        let err = analyze_err(r#"proc p[name = "x"] read file f return p"#);
        assert!(err.message.contains("no attribute `name`"));
        let err = analyze_err("proc p read file f return f.exename");
        assert!(err.message.contains("no attribute `exename`"));
    }

    #[test]
    fn numeric_coercion() {
        let a = analyzed(r#"proc p[pid = "42"] read file f return p"#);
        assert_eq!(
            a.entities["p"].filters,
            vec![Cond::Cmp {
                field: Field::Pid,
                op: CmpOp::Eq,
                value: Lit::Int(42)
            }]
        );
        let err = analyze_err(r#"proc p[pid = "forty"] read file f return p"#);
        assert!(err.message.contains("is not a number"));
    }

    #[test]
    fn temporal_validation() {
        let err = analyze_err("proc p read file f as e1 with e1 before ghost return p");
        assert!(err.message.contains("unknown pattern"));
        let err = analyze_err("proc p read file f as e1 with e1 before e1 return p");
        assert!(err.message.contains("cannot precede itself"));
        // Ordering cycles pass analysis; the lint pass's DBM rejects
        // them with a stable diagnostic code (see `lint::tests`).
        analyzed(
            "proc p read file f as e1 proc p write file g as e2 \
             with e1 before e2, e2 before e1 return p",
        );
    }

    #[test]
    fn after_normalized_to_before() {
        let a = analyzed(
            "proc p read file f as e1 proc p write file g as e2 with e2 after e1 return p",
        );
        assert_eq!(a.before, vec![(0, 1)]);
    }

    #[test]
    fn duplicate_pattern_names_rejected() {
        let err = analyze_err("proc p read file f as e1 proc p write file g as e1 return p");
        assert!(err.message.contains("duplicate pattern name"));
    }

    #[test]
    fn return_unknown_entity_rejected() {
        let err = analyze_err("proc p read file f return ghost");
        assert!(err.message.contains("unknown entity"));
    }

    #[test]
    fn path_bounds_validated() {
        let err = analyze_err("proc p ~>(0~3)[read] file f return p");
        assert!(err.message.contains("≥ 1"));
        let err = analyze_err("proc p ~>(4~2)[read] file f return p");
        assert!(err.message.contains("reversed"));
    }

    #[test]
    fn shapes_record_typed_operations_and_hop_defaults() {
        let a = analyzed(
            "proc p read || write file f as e1 proc p ~>[execute] file g as e2 \
             proc p ~>(6~9)[read] file h as e3 return p",
        );
        assert_eq!(
            a.shapes,
            [
                PatternShape::Event {
                    ops: vec![Operation::Read, Operation::Write]
                },
                PatternShape::Path {
                    min_hops: 1,
                    max_hops: 4,
                    last_op: Operation::Execute
                },
                PatternShape::Path {
                    min_hops: 6,
                    max_hops: 9,
                    last_op: Operation::Read
                },
            ]
        );
    }

    /// The parser rejects unknown operation names, so only a built query
    /// reaches analysis with one; any alternative naming one is an error.
    fn built_with_ops(ops: &[&str]) -> Result<AnalyzedQuery, TbqlError> {
        let q = crate::builder::QueryBuilder::new()
            .event(
                ("p", Some(EntityKind::Process), None),
                ops,
                ("f", Some(EntityKind::File), None),
                Some("e1"),
                None,
            )
            .return_entities(false, &["p"])
            .build();
        analyze(&q)
    }

    #[test]
    fn unknown_operation_alternative_rejected() {
        let err = built_with_ops(&["read", "teleport"]).unwrap_err();
        assert_eq!(err.message, "unknown operation `teleport`");
        assert!(built_with_ops(&["read", "write"]).is_ok());
    }

    #[test]
    fn unknown_only_operation_rejected() {
        let err = built_with_ops(&["teleport"]).unwrap_err();
        assert_eq!(err.message, "unknown operation `teleport`");
    }

    /// Every filter shape resolves to its typed form: default-attribute
    /// sugar, numeric coercion, an integer `like` pattern and `||` trees.
    #[test]
    fn filters_resolve_to_typed_conditions() {
        let a = analyzed(
            r#"proc p["%sh"] read file f as e1 proc p[pid = "42"] read f as e2
               proc p[pid like 42 || (owner = "root" && exename != "/bin/sh")] write f
               return p"#,
        );
        let cmp = |field, op, value| Cond::Cmp { field, op, value };
        assert_eq!(
            a.entities["p"].filters,
            [
                cmp(Field::Exename, CmpOp::Like, Lit::Str("%sh".into())),
                cmp(Field::Pid, CmpOp::Eq, Lit::Int(42)),
                Cond::Or(vec![
                    cmp(Field::Pid, CmpOp::Like, Lit::Int(42)),
                    Cond::And(vec![
                        cmp(Field::Owner, CmpOp::Eq, Lit::Str("root".into())),
                        cmp(Field::Exename, CmpOp::Ne, Lit::Str("/bin/sh".into())),
                    ]),
                ]),
            ]
        );
        assert!(a.entities["f"].filters.is_empty());
    }

    #[test]
    fn filters_merge_across_mentions() {
        let a = analyzed(
            r#"proc p["%/bin/tar%"] read file f proc p[owner = "root"] write file g return p"#,
        );
        assert_eq!(a.entities["p"].filters.len(), 2);
    }
}
