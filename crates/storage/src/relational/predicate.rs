//! Predicate AST over table columns, with selectivity estimation.

use super::table::{Row, Table};
use super::value::{like_match, Value};
use std::collections::HashSet;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Evaluates the comparison on an ordering-capable pair.
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        let ord = a.total_cmp(b);
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => !ord.is_eq(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql())
    }
}

/// A boolean predicate over a single table's columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (no constraint).
    True,
    /// `col <op> value`
    Cmp(String, CmpOp, Value),
    /// `col LIKE pattern` (`%`/`_` wildcards).
    Like(String, String),
    /// `col IN (…)` — used by the engine to push bindings from already
    /// executed patterns into dependent ones.
    InSet(String, HashSet<Value>),
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `col = value` shorthand.
    pub fn eq(col: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp(col.into(), CmpOp::Eq, value.into())
    }

    /// `col LIKE pattern` shorthand.
    pub fn like(col: impl Into<String>, pattern: impl Into<String>) -> Predicate {
        Predicate::Like(col.into(), pattern.into())
    }

    /// Conjunction that drops `True` legs and flattens singletons.
    pub fn and(preds: Vec<Predicate>) -> Predicate {
        let mut legs: Vec<Predicate> = preds
            .into_iter()
            .filter(|p| !matches!(p, Predicate::True))
            .collect();
        match legs.len() {
            0 => Predicate::True,
            1 => legs.pop().expect("len checked"),
            _ => Predicate::And(legs),
        }
    }

    /// Evaluates against a row of `table`.
    ///
    /// Panics if the predicate references a column the table lacks — the
    /// engine validates schemas before execution, so that is a logic bug.
    /// Resolves column names on every call; to evaluate many rows, bind
    /// once with [`Predicate::bind`].
    pub fn eval(&self, table: &Table, row: &Row) -> bool {
        self.bind(table).eval(row)
    }

    /// Resolves every column name to its position in `table` once, so a
    /// scan evaluates rows by position instead of hashing a column name
    /// per leaf per row. Panics on unknown columns, like
    /// [`Predicate::eval`].
    pub fn bind<'p>(&'p self, table: &Table) -> BoundPredicate<'p> {
        match self {
            Predicate::True => BoundPredicate::True,
            Predicate::Cmp(col, op, value) => BoundPredicate::Cmp(table.col(col), *op, value),
            Predicate::Like(col, pattern) => BoundPredicate::Like(table.col(col), pattern),
            Predicate::InSet(col, set) => BoundPredicate::InSet(table.col(col), set),
            Predicate::And(ps) => BoundPredicate::And(ps.iter().map(|p| p.bind(table)).collect()),
            Predicate::Or(ps) => BoundPredicate::Or(ps.iter().map(|p| p.bind(table)).collect()),
            Predicate::Not(p) => BoundPredicate::Not(Box::new(p.bind(table))),
        }
    }

    /// Number of atomic constraints — the paper's *pruning score* counts
    /// "the number of constraints declared" per pattern (§II-F).
    pub fn constraint_count(&self) -> usize {
        match self {
            Predicate::True => 0,
            Predicate::Cmp(..) | Predicate::Like(..) | Predicate::InSet(..) => 1,
            Predicate::And(ps) | Predicate::Or(ps) => {
                ps.iter().map(Predicate::constraint_count).sum()
            }
            Predicate::Not(p) => p.constraint_count(),
        }
    }

    /// Rough selectivity estimate in `[0, 1]` (lower = more selective),
    /// used for index choice and join ordering.
    pub fn selectivity(&self) -> f64 {
        match self {
            Predicate::True => 1.0,
            Predicate::Cmp(_, CmpOp::Eq, _) => 0.01,
            Predicate::Cmp(_, CmpOp::Ne, _) => 0.95,
            Predicate::Cmp(..) => 0.3,
            Predicate::Like(_, p) => {
                // A pattern that is all wildcards filters nothing.
                if p.chars().all(|c| c == '%' || c == '_') {
                    1.0
                } else {
                    0.05
                }
            }
            Predicate::InSet(_, set) => (set.len() as f64 * 0.005).min(0.5),
            Predicate::And(ps) => ps.iter().map(Predicate::selectivity).product(),
            Predicate::Or(ps) => ps
                .iter()
                .map(Predicate::selectivity)
                .fold(0.0, |a, b| (a + b).min(1.0)),
            Predicate::Not(p) => 1.0 - p.selectivity(),
        }
    }

    /// If this predicate pins `col` to specific values (an equality or an
    /// in-set, possibly inside a conjunction), returns those values — the
    /// index-selection hook.
    pub fn pinned_values(&self, col: &str) -> Option<Vec<Value>> {
        match self {
            Predicate::Cmp(c, CmpOp::Eq, v) if c == col => Some(vec![v.clone()]),
            Predicate::InSet(c, set) if c == col => Some(set.iter().cloned().collect()),
            Predicate::And(ps) => ps.iter().find_map(|p| p.pinned_values(col)),
            _ => None,
        }
    }

    /// Renders as a SQL boolean expression with `alias.` column prefixes.
    pub fn to_sql(&self, alias: &str) -> String {
        match self {
            Predicate::True => "TRUE".to_string(),
            Predicate::Cmp(col, op, v) => format!("{alias}.{col} {} {}", op.sql(), sql_value(v)),
            Predicate::Like(col, p) => format!("{alias}.{col} LIKE '{p}'"),
            Predicate::InSet(col, set) => {
                let mut vals: Vec<String> = set.iter().map(sql_value).collect();
                vals.sort();
                format!("{alias}.{col} IN ({})", vals.join(", "))
            }
            Predicate::And(ps) => ps
                .iter()
                .map(|p| format!("({})", p.to_sql(alias)))
                .collect::<Vec<_>>()
                .join(" AND "),
            Predicate::Or(ps) => ps
                .iter()
                .map(|p| format!("({})", p.to_sql(alias)))
                .collect::<Vec<_>>()
                .join(" OR "),
            Predicate::Not(p) => format!("NOT ({})", p.to_sql(alias)),
        }
    }
}

/// A [`Predicate`] with its column names resolved to positions of one
/// table's schema ([`Predicate::bind`]); borrows the predicate's values.
#[derive(Debug, Clone)]
pub enum BoundPredicate<'p> {
    /// Always true.
    True,
    /// `row[pos] <op> value`
    Cmp(usize, CmpOp, &'p Value),
    /// `row[pos] LIKE pattern`
    Like(usize, &'p str),
    /// `row[pos] IN (…)`
    InSet(usize, &'p HashSet<Value>),
    /// Conjunction.
    And(Vec<BoundPredicate<'p>>),
    /// Disjunction.
    Or(Vec<BoundPredicate<'p>>),
    /// Negation.
    Not(Box<BoundPredicate<'p>>),
}

impl BoundPredicate<'_> {
    /// Evaluates against a row of the table this predicate was bound to.
    pub fn eval(&self, row: &Row) -> bool {
        match self {
            BoundPredicate::True => true,
            BoundPredicate::Cmp(pos, op, value) => op.eval(&row[*pos], value),
            BoundPredicate::Like(pos, pattern) => match &row[*pos] {
                Value::Str(s) => like_match(pattern, s),
                Value::Int(i) => like_match(pattern, &i.to_string()),
            },
            BoundPredicate::InSet(pos, set) => set.contains(&row[*pos]),
            BoundPredicate::And(ps) => ps.iter().all(|p| p.eval(row)),
            BoundPredicate::Or(ps) => ps.iter().any(|p| p.eval(row)),
            BoundPredicate::Not(p) => !p.eval(row),
        }
    }
}

fn sql_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relational::table::{Column, Table};

    fn table() -> Table {
        let mut t = Table::new(
            "event",
            vec![Column::new("id"), Column::new("op"), Column::new("bytes")],
        );
        t.insert(vec![Value::int(0), Value::str("read"), Value::int(100)]);
        t.insert(vec![Value::int(1), Value::str("write"), Value::int(5000)]);
        t
    }

    #[test]
    fn cmp_eval() {
        let t = table();
        let read = Predicate::eq("op", "read");
        assert!(read.eval(&t, t.row(0)));
        assert!(!read.eval(&t, t.row(1)));
        let big = Predicate::Cmp("bytes".into(), CmpOp::Gt, Value::int(1000));
        assert!(!big.eval(&t, t.row(0)));
        assert!(big.eval(&t, t.row(1)));
    }

    #[test]
    fn and_or_not() {
        let t = table();
        let p = Predicate::and(vec![
            Predicate::eq("op", "write"),
            Predicate::Cmp("bytes".into(), CmpOp::Ge, Value::int(5000)),
        ]);
        assert!(!p.eval(&t, t.row(0)));
        assert!(p.eval(&t, t.row(1)));
        let q = Predicate::Or(vec![
            Predicate::eq("op", "read"),
            Predicate::eq("op", "write"),
        ]);
        assert!(q.eval(&t, t.row(0)) && q.eval(&t, t.row(1)));
        let n = Predicate::Not(Box::new(Predicate::eq("op", "read")));
        assert!(!n.eval(&t, t.row(0)));
    }

    #[test]
    fn and_simplification() {
        assert_eq!(Predicate::and(vec![]), Predicate::True);
        assert_eq!(
            Predicate::and(vec![Predicate::True, Predicate::eq("op", "read")]),
            Predicate::eq("op", "read")
        );
    }

    #[test]
    fn constraint_counts() {
        assert_eq!(Predicate::True.constraint_count(), 0);
        assert_eq!(Predicate::eq("op", "read").constraint_count(), 1);
        let p = Predicate::And(vec![
            Predicate::eq("op", "read"),
            Predicate::like("name", "%tar%"),
        ]);
        assert_eq!(p.constraint_count(), 2);
    }

    #[test]
    fn pinned_values_finds_equalities() {
        let p = Predicate::And(vec![
            Predicate::like("name", "%x%"),
            Predicate::eq("op", "read"),
        ]);
        assert_eq!(p.pinned_values("op"), Some(vec![Value::str("read")]));
        assert_eq!(p.pinned_values("name"), None);
        let mut set = HashSet::new();
        set.insert(Value::int(3));
        let q = Predicate::InSet("subject".into(), set);
        assert_eq!(q.pinned_values("subject"), Some(vec![Value::int(3)]));
    }

    #[test]
    fn selectivity_monotonicity() {
        let eq = Predicate::eq("op", "read");
        let both = Predicate::And(vec![eq.clone(), Predicate::like("name", "%t%")]);
        assert!(both.selectivity() < eq.selectivity());
        assert!(Predicate::True.selectivity() >= 1.0);
    }

    #[test]
    fn sql_rendering() {
        let p = Predicate::And(vec![
            Predicate::eq("op", "read"),
            Predicate::like("name", "%/bin/tar%"),
        ]);
        assert_eq!(
            p.to_sql("e"),
            "(e.op = 'read') AND (e.name LIKE '%/bin/tar%')"
        );
        let quoted = Predicate::eq("name", "o'brien");
        assert_eq!(quoted.to_sql("f"), "f.name = 'o''brien'");
    }

    #[test]
    fn like_on_int_column_coerces() {
        let t = table();
        let p = Predicate::like("bytes", "50%");
        assert!(p.eval(&t, t.row(1)));
        assert!(!p.eval(&t, t.row(0)));
    }
}
