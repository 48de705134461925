//! Verbose SQL and Cypher equivalents of TBQL queries, for the
//! conciseness experiment (E5).
//!
//! The paper motivates TBQL against "general-purpose query languages
//! (e.g., SQL, Cypher) that are low-level and verbose" (§II-D). These
//! renderers produce the queries an analyst would have to hand-write
//! against the same schema: entity/event tables joined per pattern (SQL),
//! or explicit MATCH chains (Cypher). Rendering from the analyzed AST
//! keeps the equivalents honest — they express exactly the same
//! constraints, with no padding.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use threatraptor_audit::entity::EntityKind;
use threatraptor_tbql::analyze::{AnalyzedQuery, Cond};
use threatraptor_tbql::ast::{CmpOp, Lit, Pattern};

fn table_of(ty: EntityKind) -> &'static str {
    match ty {
        EntityKind::Process => "process",
        EntityKind::File => "file",
        EntityKind::Network => "network",
    }
}

fn label_of(ty: EntityKind) -> &'static str {
    match ty {
        EntityKind::Process => "Process",
        EntityKind::File => "File",
        EntityKind::Network => "Connection",
    }
}

fn sql_lit(l: &Lit) -> String {
    match l {
        Lit::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Lit::Int(i) => i.to_string(),
    }
}

fn sql_expr(var: &str, c: &Cond) -> String {
    match c {
        Cond::Cmp { field, op, value } => {
            let op_text = match op {
                CmpOp::Like => "LIKE",
                CmpOp::Eq => "=",
                CmpOp::Ne => "<>",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            format!("{var}.{} {op_text} {}", field.name(), sql_lit(value))
        }
        Cond::And(legs) => legs
            .iter()
            .map(|l| format!("({})", sql_expr(var, l)))
            .collect::<Vec<_>>()
            .join(" AND "),
        Cond::Or(legs) => legs
            .iter()
            .map(|l| format!("({})", sql_expr(var, l)))
            .collect::<Vec<_>>()
            .join(" OR "),
    }
}

/// Renders the SQL a PostgreSQL user would write for this query.
///
/// Path patterns become `WITH RECURSIVE` closures — the reason the paper
/// routes them to the graph backend instead.
pub fn sql_equivalent(aq: &AnalyzedQuery) -> String {
    let mut from: Vec<String> = Vec::new();
    let mut wheres: Vec<String> = Vec::new();
    let mut recursive: Vec<String> = Vec::new();

    // Entity tables (one alias per variable).
    let entities: BTreeMap<&String, _> = aq.entities.iter().collect();
    for (var, info) in &entities {
        from.push(format!("{} AS {var}", table_of(info.ty)));
        for f in &info.filters {
            wheres.push(sql_expr(var, f));
        }
    }

    for (i, pat) in aq.query.patterns.iter().enumerate() {
        let id = &aq.pattern_ids[i];
        match pat {
            Pattern::Event(e) => {
                from.push(format!("event AS {id}"));
                wheres.push(format!("{id}.subject = {}.id", e.subject.id));
                wheres.push(format!("{id}.object = {}.id", e.object.id));
                if e.ops.len() == 1 {
                    wheres.push(format!("{id}.op = '{}'", e.ops[0]));
                } else {
                    let alts: Vec<String> = e.ops.iter().map(|o| format!("'{o}'")).collect();
                    wheres.push(format!("{id}.op IN ({})", alts.join(", ")));
                }
                if let Some(w) = e.window {
                    wheres.push(format!("{id}.start >= {}", w.lo));
                    wheres.push(format!("{id}.\"end\" <= {}", w.hi));
                }
            }
            Pattern::Path(p) => {
                let (min, max) = aq.shapes[i].hops();
                let mut cte = String::new();
                write!(
                    cte,
                    "WITH RECURSIVE {id}_closure(src, dst, depth, first_start, last_end, last_op) AS (\n\
                     \x20 SELECT e.subject, e.object, 1, e.start, e.\"end\", e.op FROM event AS e\n\
                     \x20 UNION ALL\n\
                     \x20 SELECT c.src, e.object, c.depth + 1, c.first_start, e.\"end\", e.op\n\
                     \x20   FROM {id}_closure AS c JOIN event AS e\n\
                     \x20     ON e.subject = c.dst AND e.start >= c.last_end AND c.depth < {max}\n\
                     )",
                )
                .expect("write to String");
                recursive.push(cte);
                from.push(format!("{id}_closure AS {id}"));
                wheres.push(format!("{id}.src = {}.id", p.subject.id));
                wheres.push(format!("{id}.dst = {}.id", p.object.id));
                wheres.push(format!("{id}.depth >= {min}"));
                wheres.push(format!("{id}.last_op = '{}'", p.last_op));
            }
        }
    }

    // Temporal relationships.
    for &(a, b) in &aq.before {
        let (a, b) = (&aq.pattern_ids[a], &aq.pattern_ids[b]);
        wheres.push(format!("{a}.\"end\" < {b}.start"));
    }

    let select: Vec<String> = aq
        .returns
        .iter()
        .map(|(var, field)| format!("{var}.{}", field.name()))
        .collect();
    let mut sql = String::new();
    for cte in &recursive {
        sql.push_str(cte);
        sql.push('\n');
    }
    write!(
        sql,
        "SELECT {}{}\nFROM {}\nWHERE {};",
        if aq.distinct { "DISTINCT " } else { "" },
        select.join(", "),
        from.join(",\n     "),
        wheres.join("\n  AND ")
    )
    .expect("write to String");
    sql
}

/// Renders the Cypher a Neo4j user would write for this query.
pub fn cypher_equivalent(aq: &AnalyzedQuery) -> String {
    let mut matches: Vec<String> = Vec::new();
    let mut wheres: Vec<String> = Vec::new();
    let mut declared: Vec<&str> = Vec::new();

    let node = |var: &str, declared: &mut Vec<&str>, aq: &AnalyzedQuery| -> String {
        if declared.contains(&var) {
            format!("({var})")
        } else {
            format!("({var}:{})", label_of(aq.entities[var].ty))
        }
    };

    for (i, pat) in aq.query.patterns.iter().enumerate() {
        let id = &aq.pattern_ids[i];
        match pat {
            Pattern::Event(e) => {
                let s = node(&e.subject.id, &mut declared, aq);
                declared.push(&e.subject.id);
                let o = node(&e.object.id, &mut declared, aq);
                declared.push(&e.object.id);
                let ops = e
                    .ops
                    .iter()
                    .map(|o| o.to_uppercase())
                    .collect::<Vec<_>>()
                    .join("|");
                matches.push(format!("{s}-[{id}:{ops}]->{o}"));
                if let Some(w) = e.window {
                    wheres.push(format!("{id}.start >= {}", w.lo));
                    wheres.push(format!("{id}.end <= {}", w.hi));
                }
            }
            Pattern::Path(p) => {
                let s = node(&p.subject.id, &mut declared, aq);
                declared.push(&p.subject.id);
                let o = node(&p.object.id, &mut declared, aq);
                declared.push(&p.object.id);
                let (min, max) = aq.shapes[i].hops();
                matches.push(format!("{id} = {s}-[*{min}..{max}]->{o}"));
                wheres.push(format!("last(relationships({id})).op = '{}'", p.last_op));
                wheres.push(format!(
                    "all(idx IN range(0, size(relationships({id})) - 2) \
                     WHERE (relationships({id})[idx]).end <= (relationships({id})[idx + 1]).start)"
                ));
            }
        }
    }

    for (var, info) in &aq.entities {
        for f in &info.filters {
            wheres.push(cypher_expr(var, f));
        }
    }
    for &(a, b) in &aq.before {
        let (a, b) = (&aq.pattern_ids[a], &aq.pattern_ids[b]);
        wheres.push(format!("{a}.end < {b}.start"));
    }

    let returns: Vec<String> = aq
        .returns
        .iter()
        .map(|(var, field)| format!("{var}.{}", field.name()))
        .collect();
    format!(
        "MATCH {}\nWHERE {}\nRETURN {}{};",
        matches.join(",\n      "),
        wheres.join("\n  AND "),
        if aq.distinct { "DISTINCT " } else { "" },
        returns.join(", ")
    )
}

fn cypher_expr(var: &str, c: &Cond) -> String {
    match c {
        Cond::Cmp { field, op, value } => match (op, value) {
            (CmpOp::Like, Lit::Str(s)) => {
                // `%x%` → CONTAINS, `%x` → ENDS WITH, `x%` → STARTS WITH.
                let (attr, inner) = (field.name(), s.trim_matches('%'));
                if s.starts_with('%') && s.ends_with('%') {
                    format!("{var}.{attr} CONTAINS '{inner}'")
                } else if s.starts_with('%') {
                    format!("{var}.{attr} ENDS WITH '{inner}'")
                } else if s.ends_with('%') {
                    format!("{var}.{attr} STARTS WITH '{inner}'")
                } else {
                    format!("{var}.{attr} =~ '{s}'")
                }
            }
            _ => {
                let op_text = match op {
                    CmpOp::Eq => "=",
                    CmpOp::Ne => "<>",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                    CmpOp::Like => "=~",
                };
                format!("{var}.{} {op_text} {}", field.name(), sql_lit(value))
            }
        },
        Cond::And(legs) => legs
            .iter()
            .map(|l| format!("({})", cypher_expr(var, l)))
            .collect::<Vec<_>>()
            .join(" AND "),
        Cond::Or(legs) => legs
            .iter()
            .map(|l| format!("({})", cypher_expr(var, l)))
            .collect::<Vec<_>>()
            .join(" OR "),
    }
}

/// Size metrics of a query text: `(characters, words, lines)` of the
/// trimmed source.
pub fn size_metrics(text: &str) -> (usize, usize, usize) {
    let trimmed = text.trim();
    (
        trimmed.chars().filter(|c| !c.is_whitespace()).count(),
        trimmed.split_whitespace().count(),
        trimmed.lines().count(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_tbql::analyze::analyze;
    use threatraptor_tbql::parser::{parse_query, FIG2_TBQL};

    fn fig2() -> AnalyzedQuery {
        analyze(&parse_query(FIG2_TBQL).unwrap()).unwrap()
    }

    #[test]
    fn sql_covers_all_patterns_and_constraints() {
        let sql = sql_equivalent(&fig2());
        assert!(sql.contains("SELECT DISTINCT"));
        for id in ["evt1", "evt4", "evt8"] {
            assert!(sql.contains(&format!("event AS {id}")), "{sql}");
        }
        assert!(sql.contains("evt1.subject = p1.id"));
        assert!(sql.contains("p1.exename LIKE '%/bin/tar%'"));
        assert!(sql.contains("i1.dstip = '192.168.29.128'"));
        assert!(sql.contains("evt7.\"end\" < evt8.start"));
    }

    #[test]
    fn cypher_covers_all_patterns_and_constraints() {
        let cy = cypher_equivalent(&fig2());
        assert!(cy.contains("MATCH"));
        assert!(cy.contains("-[evt1:READ]->"));
        assert!(cy.contains("p1.exename CONTAINS '/bin/tar'"));
        assert!(cy.contains("RETURN DISTINCT"));
        assert!(cy.contains("evt1.end < evt2.start"));
    }

    #[test]
    fn tbql_is_more_concise_than_both() {
        let aq = fig2();
        let tbql = threatraptor_tbql::printer::print_query(&aq.query);
        let (tc, tw, _) = size_metrics(&tbql);
        let (sc, sw, _) = size_metrics(&sql_equivalent(&aq));
        let (cc, _cw, _) = size_metrics(&cypher_equivalent(&aq));
        assert!(sc > 2 * tc, "SQL chars {sc} vs TBQL {tc}");
        // Cypher words pack dense (`p.x CONTAINS 'y'`), so characters are
        // the comparable measure there.
        assert!(cc > tc, "Cypher chars {cc} vs TBQL {tc}");
        assert!(sw > 2 * tw, "SQL words {sw} vs TBQL {tw}");
    }

    #[test]
    fn path_patterns_render_recursive_sql() {
        let aq = analyze(&parse_query("proc p[\"%gpg%\"] ~>(2~4)[read] file f return p").unwrap())
            .unwrap();
        let sql = sql_equivalent(&aq);
        assert!(sql.contains("WITH RECURSIVE"), "{sql}");
        assert!(sql.contains("depth >= 2"));
        let cy = cypher_equivalent(&aq);
        assert!(cy.contains("[*2..4]"), "{cy}");
    }

    #[test]
    fn size_metrics_counts() {
        let (c, w, l) = size_metrics("a b\nc\n");
        assert_eq!((c, w, l), (3, 3, 2));
    }
}
