//! TBQL abstract syntax tree.
//!
//! TBQL is a language over the auditing layer's schema: an entity's type
//! is an [`EntityKind`] (`proc`, `file`, `ip`, paper §II-A), and
//! operation names and attributes are those of
//! [`threatraptor_audit::event::Operation`] and
//! [`threatraptor_audit::entity::Field`]. Operation names stay strings
//! here; the parser and analysis check them against the schema.

use crate::error::Span;
use std::fmt;
pub use threatraptor_audit::entity::EntityKind;

/// Comparison operators in filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=` (LIKE semantics when the literal contains `%`/`_`).
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
    /// explicit `like`
    Like,
}

impl CmpOp {
    /// TBQL spelling.
    pub fn text(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Like => "like",
        }
    }
}

/// Literal values in filters.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// String literal.
    Str(String),
    /// Integer literal.
    Int(i64),
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Str(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            Lit::Int(i) => write!(f, "{i}"),
        }
    }
}

/// Filter expressions over one entity's attributes.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `attr <op> literal`
    Cmp {
        /// Attribute name.
        attr: String,
        /// Operator.
        op: CmpOp,
        /// Right-hand literal.
        value: Lit,
    },
    /// Conjunction (`&&`).
    And(Vec<Expr>),
    /// Disjunction (`||`).
    Or(Vec<Expr>),
}

/// A filter attached to an entity mention.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Bare-string sugar: filter on the entity's default attribute.
    Default(String),
    /// Full expression.
    Expr(Expr),
}

/// An entity mention in a pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityRef {
    /// Declared type (`None` for bare reuse like `f2`).
    pub ty: Option<EntityKind>,
    /// Entity variable name.
    pub id: String,
    /// Attribute filter, if any.
    pub filter: Option<Filter>,
    /// Source span.
    pub span: Span,
}

/// Per-pattern time window: event start/end must fall in `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWindow {
    /// Lower bound (ns).
    pub lo: u64,
    /// Upper bound (ns).
    pub hi: u64,
}

/// An event pattern: `subject op object [as id] [window [lo, hi]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct EventPattern {
    /// Pattern name from `as` (auto-named `evtN` by analysis if absent).
    pub id: Option<String>,
    /// Subject entity (a process).
    pub subject: EntityRef,
    /// Operation alternatives (`read || write` ⇒ two entries).
    pub ops: Vec<String>,
    /// Object entity.
    pub object: EntityRef,
    /// Optional time window.
    pub window: Option<TimeWindow>,
    /// Source span.
    pub span: Span,
}

/// A variable-length path pattern:
/// `subject ~>(min~max)[op] object [as id]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPattern {
    /// Pattern name from `as`.
    pub id: Option<String>,
    /// Source entity.
    pub subject: EntityRef,
    /// Minimum hops (`None` ⇒ 1).
    pub min_hops: Option<u32>,
    /// Maximum hops (`None` ⇒ engine default).
    pub max_hops: Option<u32>,
    /// Operation of the final hop.
    pub last_op: String,
    /// Destination entity.
    pub object: EntityRef,
    /// Optional time window.
    pub window: Option<TimeWindow>,
    /// Source span.
    pub span: Span,
}

/// Any pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// Single-event pattern.
    Event(EventPattern),
    /// Variable-length path pattern.
    Path(PathPattern),
}

impl Pattern {
    /// The pattern's `as` name, if present.
    pub fn id(&self) -> Option<&str> {
        match self {
            Pattern::Event(e) => e.id.as_deref(),
            Pattern::Path(p) => p.id.as_deref(),
        }
    }

    /// Subject entity reference.
    pub fn subject(&self) -> &EntityRef {
        match self {
            Pattern::Event(e) => &e.subject,
            Pattern::Path(p) => &p.subject,
        }
    }

    /// Object entity reference.
    pub fn object(&self) -> &EntityRef {
        match self {
            Pattern::Event(e) => &e.object,
            Pattern::Path(p) => &p.object,
        }
    }

    /// Source span.
    pub fn span(&self) -> Span {
        match self {
            Pattern::Event(e) => e.span,
            Pattern::Path(p) => p.span,
        }
    }

    /// Optional time window.
    pub fn window(&self) -> Option<TimeWindow> {
        match self {
            Pattern::Event(e) => e.window,
            Pattern::Path(p) => p.window,
        }
    }
}

/// Temporal relations in the `with` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalRel {
    /// Left pattern ends before right pattern starts.
    Before,
    /// Left pattern starts after right pattern ends.
    After,
}

/// A temporal constraint `evtA before evtB`.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalConstraint {
    /// Left event-pattern name.
    pub left: String,
    /// Relation.
    pub rel: TemporalRel,
    /// Right event-pattern name.
    pub right: String,
    /// Source span.
    pub span: Span,
}

/// One item of the `return` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct ReturnItem {
    /// Entity variable.
    pub entity: String,
    /// Attribute (`None` ⇒ the entity's default attribute).
    pub attr: Option<String>,
    /// Source span.
    pub span: Span,
}

/// The `return` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct ReturnClause {
    /// Deduplicate result rows.
    pub distinct: bool,
    /// Projected items.
    pub items: Vec<ReturnItem>,
}

/// A complete TBQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Patterns, in declaration order.
    pub patterns: Vec<Pattern>,
    /// Temporal constraints from `with`.
    pub temporal: Vec<TemporalConstraint>,
    /// Projection.
    pub ret: ReturnClause,
}

impl Query {
    /// Number of event + path patterns.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::analyze::{analyze, AnalyzedQuery};
    use crate::error::TbqlError;
    use crate::parser::parse_query;
    use threatraptor_audit::entity::Field;
    use threatraptor_audit::event::Operation;

    fn analyzed(src: &str) -> Result<AnalyzedQuery, TbqlError> {
        analyze(&parse_query(src)?)
    }

    /// Every operation of the auditing layer parses in an event pattern
    /// whose object has the operation's object kind, and is rejected
    /// against the other two; a name the layer lacks does not parse.
    #[test]
    fn operation_types() {
        for op in Operation::ALL {
            for kind in EntityKind::ALL {
                let got = analyzed(&format!("proc p {op} {kind} o return o"));
                if kind == op.object_kind() {
                    assert_eq!(got.unwrap().entities["o"].ty, kind, "{op}");
                } else {
                    let err = got.unwrap_err().message;
                    assert!(
                        err.contains(&format!("targets {}", op.object_kind())),
                        "{err}"
                    );
                }
            }
        }
        let err = parse_query("proc p teleport file f return p").unwrap_err();
        assert_eq!(err.message, "unknown operation `teleport`");
    }

    /// Every attribute of each kind is accepted on that kind, in a filter
    /// and in the return clause, and rejected on the other kinds with the
    /// schema's message; a bare return is the kind's default attribute.
    #[test]
    fn default_attrs() {
        // A query whose entity `x` has the given kind.
        let query = |kind: EntityKind, filter: &str, ret: &str| match kind {
            EntityKind::Process => format!("proc x{filter} read file f return {ret}"),
            EntityKind::File => format!("proc p read file x{filter} return {ret}"),
            EntityKind::Network => format!("proc p connect ip x{filter} return {ret}"),
        };
        for kind in EntityKind::ALL {
            for field in EntityKind::ALL.iter().flat_map(|k| k.fields()) {
                let attr = field.name();
                for src in [
                    query(kind, &format!("[{attr} = \"1\"]"), "x"),
                    query(kind, "", &format!("x.{attr}")),
                ] {
                    match kind.field(attr) {
                        Ok(_) => assert!(analyzed(&src).is_ok(), "{src}"),
                        Err(e) => assert_eq!(analyzed(&src).unwrap_err().message, e),
                    }
                }
            }
            let returns = analyzed(&query(kind, "", "x")).unwrap().returns;
            assert_eq!(returns, [("x".into(), kind.default_field())]);
        }
        assert_eq!(EntityKind::Network.default_field(), Field::DstIp);
        let err = analyzed(r#"proc p[name = "x"] read file f return p"#).unwrap_err();
        assert_eq!(
            err.message,
            "proc entities have no attribute `name` (valid: exename, pid, cmdline, owner)"
        );
    }

    #[test]
    fn lit_display_escapes() {
        assert_eq!(Lit::Str("a\"b".into()).to_string(), r#""a\"b""#);
        assert_eq!(Lit::Int(7).to_string(), "7");
    }

    #[test]
    fn cmp_op_text() {
        assert_eq!(CmpOp::Like.text(), "like");
        assert_eq!(CmpOp::Ne.text(), "!=");
    }
}
