//! Programmatic query construction (used by the query synthesizer).

use crate::ast::*;
use crate::error::Span;

/// Fluent builder for [`Query`] values.
///
/// ```
/// use threatraptor_tbql::builder::QueryBuilder;
/// use threatraptor_tbql::ast::EntityKind;
///
/// let q = QueryBuilder::new()
///     .event(
///         ("p1", Some(EntityKind::Process), Some("%/bin/tar%")),
///         &["read"],
///         ("f1", Some(EntityKind::File), Some("%/etc/passwd%")),
///         Some("evt1"),
///         None, // no time window
///     )
///     .before("evt1", "evt1") // names are free-form here;
///     .return_entities(true, &["p1", "f1"])
///     .build();
/// assert_eq!(q.pattern_count(), 1);
/// // `analyze` resolves them, and operation names, and rejects this one
/// let err = threatraptor_tbql::analyze(&q).unwrap_err();
/// assert_eq!(err.message, "pattern `evt1` cannot precede itself");
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryBuilder {
    patterns: Vec<Pattern>,
    temporal: Vec<TemporalConstraint>,
    ret: Option<ReturnClause>,
}

/// Entity spec: `(id, type, default-attr filter)`.
pub type EntitySpec<'a> = (&'a str, Option<EntityKind>, Option<&'a str>);

fn entity(spec: EntitySpec<'_>) -> EntityRef {
    EntityRef {
        ty: spec.1,
        id: spec.0.to_string(),
        filter: spec.2.map(|s| Filter::Default(s.to_string())),
        span: Span::default(),
    }
}

impl QueryBuilder {
    /// Starts an empty query.
    pub fn new() -> QueryBuilder {
        QueryBuilder::default()
    }

    /// Appends an event pattern, with an optional time window.
    pub fn event(
        mut self,
        subject: EntitySpec<'_>,
        ops: &[&str],
        object: EntitySpec<'_>,
        name: Option<&str>,
        window: Option<TimeWindow>,
    ) -> Self {
        self.patterns.push(Pattern::Event(EventPattern {
            id: name.map(str::to_string),
            subject: entity(subject),
            ops: ops.iter().map(|s| s.to_string()).collect(),
            object: entity(object),
            window,
            span: Span::default(),
        }));
        self
    }

    /// Appends a variable-length path pattern.
    pub fn path(
        mut self,
        subject: EntitySpec<'_>,
        bounds: Option<(u32, u32)>,
        last_op: &str,
        object: EntitySpec<'_>,
        name: Option<&str>,
    ) -> Self {
        self.patterns.push(Pattern::Path(PathPattern {
            id: name.map(str::to_string),
            subject: entity(subject),
            min_hops: bounds.map(|(m, _)| m),
            max_hops: bounds.map(|(_, m)| m),
            last_op: last_op.to_string(),
            object: entity(object),
            window: None,
            span: Span::default(),
        }));
        self
    }

    /// Adds `left before right`.
    pub fn before(mut self, left: &str, right: &str) -> Self {
        self.temporal.push(TemporalConstraint {
            left: left.to_string(),
            rel: TemporalRel::Before,
            right: right.to_string(),
            span: Span::default(),
        });
        self
    }

    /// Sets the return clause to bare entity ids (default attributes).
    pub fn return_entities(mut self, distinct: bool, entities: &[&str]) -> Self {
        self.ret = Some(ReturnClause {
            distinct,
            items: entities
                .iter()
                .map(|e| ReturnItem {
                    entity: e.to_string(),
                    attr: None,
                    span: Span::default(),
                })
                .collect(),
        });
        self
    }

    /// Finishes the query.
    ///
    /// Panics when no return clause was set — synthesis always sets one.
    pub fn build(self) -> Query {
        Query {
            patterns: self.patterns,
            temporal: self.temporal,
            ret: self.ret.expect("query builder requires a return clause"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::printer::print_query;

    #[test]
    fn builds_fig2_like_query() {
        let q = QueryBuilder::new()
            .event(
                ("p1", Some(EntityKind::Process), Some("%/bin/tar%")),
                &["read"],
                ("f1", Some(EntityKind::File), Some("%/etc/passwd%")),
                Some("evt1"),
                None,
            )
            .event(
                ("p1", None, None),
                &["write"],
                ("f2", Some(EntityKind::File), Some("%/tmp/upload.tar%")),
                Some("evt2"),
                None,
            )
            .before("evt1", "evt2")
            .return_entities(true, &["p1", "f1", "f2"])
            .build();
        let a = analyze(&q).expect("built query analyzes");
        assert_eq!(a.pattern_ids, vec!["evt1", "evt2"]);
        let printed = print_query(&q);
        assert!(printed.contains("proc p1[\"%/bin/tar%\"] read file f1"));
    }

    #[test]
    fn builds_paths_and_windows() {
        let q = QueryBuilder::new()
            .path(
                ("p", Some(EntityKind::Process), None),
                Some((2, 4)),
                "read",
                ("f", Some(EntityKind::File), Some("/etc/shadow")),
                Some("pp1"),
            )
            .event(
                ("p", None, None),
                &["connect"],
                ("c", Some(EntityKind::Network), None),
                Some("evt1"),
                Some(TimeWindow { lo: 0, hi: 1_000 }),
            )
            .return_entities(false, &["p", "f", "c"])
            .build();
        assert!(analyze(&q).is_ok());
        let printed = print_query(&q);
        assert!(printed.contains("~>(2~4)[read]"));
        assert!(printed.contains("window [0, 1000]"));
    }

    #[test]
    #[should_panic(expected = "requires a return clause")]
    fn missing_return_panics() {
        QueryBuilder::new()
            .event(
                ("p", Some(EntityKind::Process), None),
                &["read"],
                ("f", Some(EntityKind::File), None),
                None,
                None,
            )
            .build();
    }
}
