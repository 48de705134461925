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

use crate::ast::*;
use crate::error::{Span, TbqlError};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Resolved information about one entity variable.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityInfo {
    /// Resolved entity type.
    pub ty: EntityType,
    /// Conjunction of all filters attached to any mention, normalized
    /// (sugar expanded, `=`-with-wildcards rewritten to `like`, numeric
    /// literals coerced).
    pub filters: Vec<Expr>,
}

/// A validated, desugared query.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzedQuery {
    /// The original query (unchanged).
    pub query: Query,
    /// Pattern ids, parallel to `query.patterns` (auto-named `evtN` when
    /// the source omitted `as`).
    pub pattern_ids: Vec<String>,
    /// Entity table.
    pub entities: BTreeMap<String, EntityInfo>,
    /// Temporal constraints normalized to `before` pairs
    /// `(earlier, later)`.
    pub before: Vec<(String, String)>,
    /// Return items with default attributes filled in.
    pub returns: Vec<(String, String)>,
    /// Whether the projection deduplicates.
    pub distinct: bool,
}

impl AnalyzedQuery {
    /// Index of a pattern by id.
    pub fn pattern_index(&self, id: &str) -> Option<usize> {
        self.pattern_ids.iter().position(|p| p == id)
    }

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
        let mut before = self.before.clone();
        before.sort();
        for (a, b) in before {
            writeln!(s, "before {a} {b}").expect("write to String");
        }
        writeln!(s, "return distinct={} {:?}", self.distinct, self.returns)
            .expect("write to String");
        s
    }
}

/// Numeric attributes (literals coerce to integers).
const NUMERIC_ATTRS: &[&str] = &["pid", "srcport", "dstport"];

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
    let mut types: HashMap<String, (EntityType, Span)> = HashMap::new();
    let unify = |id: &str,
                 ty: EntityType,
                 span: Span,
                 types: &mut HashMap<String, (EntityType, Span)>|
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

    for pat in &query.patterns {
        // Subjects are processes (events originate from processes).
        let subj = pat.subject();
        if let Some(ty) = subj.ty {
            if ty != EntityType::Proc {
                return Err(TbqlError::new(
                    subj.span,
                    format!("subject `{}` must be a proc, not {}", subj.id, ty.keyword()),
                ));
            }
        }
        unify(&subj.id, EntityType::Proc, subj.span, &mut types)?;

        // Objects follow the operation's object type.
        let obj = pat.object();
        let op_ty = match pat {
            Pattern::Event(e) => {
                let mut tys = e.ops.iter().filter_map(|o| operation_object_type(o));
                let first = tys
                    .next()
                    .ok_or_else(|| TbqlError::new(e.span, "event pattern has no operations"))?;
                for t in tys {
                    if t != first {
                        return Err(TbqlError::new(
                            e.span,
                            "operation alternatives must share one object type \
                             (e.g. `read || write`, not `read || connect`)",
                        ));
                    }
                }
                first
            }
            Pattern::Path(p) => operation_object_type(&p.last_op).ok_or_else(|| {
                TbqlError::new(p.span, format!("unknown operation `{}`", p.last_op))
            })?,
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

        // Path bounds sanity.
        if let Pattern::Path(p) = pat {
            let min = p.min_hops.unwrap_or(1);
            let max = p.max_hops.unwrap_or(min.max(4));
            if min == 0 {
                return Err(TbqlError::new(p.span, "path minimum length must be ≥ 1"));
            }
            if max < min {
                return Err(TbqlError::new(
                    p.span,
                    format!("path bounds reversed ({min}~{max})"),
                ));
            }
        }
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
    let mut before: Vec<(String, String)> = Vec::new();
    for tc in &query.temporal {
        for side in [&tc.left, &tc.right] {
            if !pattern_ids.contains(side) {
                return Err(TbqlError::new(
                    tc.span,
                    format!("temporal constraint references unknown pattern `{side}`"),
                ));
            }
        }
        if tc.left == tc.right {
            return Err(TbqlError::new(
                tc.span,
                format!("pattern `{}` cannot precede itself", tc.left),
            ));
        }
        let pair = match tc.rel {
            TemporalRel::Before => (tc.left.clone(), tc.right.clone()),
            TemporalRel::After => (tc.right.clone(), tc.left.clone()),
        };
        before.push(pair);
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
            Some(a) => {
                if !info.ty.valid_attrs().contains(&a.as_str()) {
                    return Err(TbqlError::new(
                        item.span,
                        format!(
                            "{} entities have no attribute `{a}` (valid: {})",
                            info.ty.keyword(),
                            info.ty.valid_attrs().join(", ")
                        ),
                    ));
                }
                a.clone()
            }
            None => info.ty.default_attr().to_string(),
        };
        returns.push((item.entity.clone(), attr));
    }

    Ok(AnalyzedQuery {
        query: query.clone(),
        pattern_ids,
        entities,
        before,
        returns,
        distinct: query.ret.distinct,
    })
}

/// Expands filter sugar and validates attribute names.
fn normalize_filter(filter: &Filter, ty: EntityType, span: Span) -> Result<Expr, TbqlError> {
    match filter {
        Filter::Default(s) => {
            let op = if s.contains('%') || s.contains('_') {
                CmpOp::Like
            } else {
                CmpOp::Eq
            };
            Ok(Expr::Cmp {
                attr: ty.default_attr().to_string(),
                op,
                value: Lit::Str(s.clone()),
            })
        }
        Filter::Expr(e) => normalize_expr(e, ty, span),
    }
}

fn normalize_expr(expr: &Expr, ty: EntityType, span: Span) -> Result<Expr, TbqlError> {
    match expr {
        Expr::Cmp { attr, op, value } => {
            if !ty.valid_attrs().contains(&attr.as_str()) {
                return Err(TbqlError::new(
                    span,
                    format!(
                        "{} entities have no attribute `{attr}` (valid: {})",
                        ty.keyword(),
                        ty.valid_attrs().join(", ")
                    ),
                ));
            }
            // `=` with wildcards means pattern matching.
            let op = match (op, value) {
                (CmpOp::Eq, Lit::Str(s)) if s.contains('%') || s.contains('_') => CmpOp::Like,
                _ => *op,
            };
            // Numeric attribute literals coerce to integers.
            let value = if NUMERIC_ATTRS.contains(&attr.as_str()) {
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
            Ok(Expr::Cmp {
                attr: attr.clone(),
                op,
                value,
            })
        }
        Expr::And(legs) => Ok(Expr::And(
            legs.iter()
                .map(|l| normalize_expr(l, ty, span))
                .collect::<Result<_, _>>()?,
        )),
        Expr::Or(legs) => Ok(Expr::Or(
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
        assert_eq!(a.entities["p1"].ty, EntityType::Proc);
        assert_eq!(a.entities["f2"].ty, EntityType::File);
        assert_eq!(a.entities["i1"].ty, EntityType::Ip);
        // p1's default filter expanded to a LIKE on exename.
        assert_eq!(
            a.entities["p1"].filters,
            vec![Expr::Cmp {
                attr: "exename".into(),
                op: CmpOp::Like,
                value: Lit::Str("%/bin/tar%".into())
            }]
        );
        // i1's exact IP stays an equality.
        assert_eq!(
            a.entities["i1"].filters,
            vec![Expr::Cmp {
                attr: "dstip".into(),
                op: CmpOp::Eq,
                value: Lit::Str("192.168.29.128".into())
            }]
        );
        // Returns filled with default attributes.
        assert!(a.returns.contains(&("p1".into(), "exename".into())));
        assert!(a.returns.contains(&("f1".into(), "name".into())));
        assert!(a.returns.contains(&("i1".into(), "dstip".into())));
        assert!(a.distinct);
        assert_eq!(a.before.len(), 7);
        assert_eq!(a.pattern_index("evt8"), Some(7));
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
        assert_eq!(a.entities["c"].ty, EntityType::Ip);
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
            vec![Expr::Cmp {
                attr: "pid".into(),
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
        assert_eq!(a.before, vec![("e1".to_string(), "e2".to_string())]);
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
    fn filters_merge_across_mentions() {
        let a = analyzed(
            r#"proc p["%/bin/tar%"] read file f proc p[owner = "root"] write file g return p"#,
        );
        assert_eq!(a.entities["p"].filters.len(), 2);
    }
}
