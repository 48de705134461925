//! Recursive-descent parser for TBQL.

use crate::ast::*;
use crate::error::{Span, TbqlError};
use crate::lexer::{lex, SpannedTok, Tok};

/// Reserved words that cannot name entities or patterns.
pub const KEYWORDS: &[&str] = &[
    "proc", "file", "ip", "as", "with", "before", "after", "return", "distinct", "window", "like",
];

/// How deep parentheses may nest in a filter. Each level is a few
/// recursive calls: a bound keeps a hostile query from overflowing the
/// stack, which no caller could catch.
pub const MAX_NESTING: usize = 64;

/// Parses a TBQL query.
pub fn parse_query(src: &str) -> Result<Query, TbqlError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let q = p.query()?;
    Ok(q)
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Open parentheses around the filter expression being parsed.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek_span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> SpannedTok {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> TbqlError {
        TbqlError::new(self.peek_span(), message)
    }

    fn expect(&mut self, tok: Tok) -> Result<Span, TbqlError> {
        if *self.peek() == tok {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected {tok}, found {}", self.peek())))
        }
    }

    fn peek_ident(&self) -> Option<&str> {
        match self.peek() {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, Span), TbqlError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                let span = self.bump().span;
                Ok((s, span))
            }
            other => Err(self.err(format!("expected {what}, found {other}"))),
        }
    }

    fn name(&mut self, what: &str) -> Result<(String, Span), TbqlError> {
        let (s, span) = self.ident(what)?;
        if KEYWORDS.contains(&s.as_str()) {
            return Err(TbqlError::new(
                span,
                format!("`{s}` is a reserved keyword and cannot be used as {what}"),
            ));
        }
        Ok((s, span))
    }

    fn query(&mut self) -> Result<Query, TbqlError> {
        let mut patterns = Vec::new();
        loop {
            match self.peek_ident() {
                Some("with") | Some("return") | None => break,
                Some(_) => patterns.push(self.pattern()?),
            }
            if matches!(self.peek(), Tok::Eof) {
                break;
            }
        }
        if patterns.is_empty() {
            return Err(self.err("a query needs at least one event or path pattern"));
        }
        let mut temporal = Vec::new();
        if self.peek_ident() == Some("with") {
            self.bump();
            loop {
                temporal.push(self.temporal_constraint()?);
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        let ret = self.return_clause()?;
        self.expect(Tok::Eof)?;
        Ok(Query {
            patterns,
            temporal,
            ret,
        })
    }

    fn pattern(&mut self) -> Result<Pattern, TbqlError> {
        let start = self.peek_span();
        let subject = self.entity()?;
        if *self.peek() == Tok::PathArrow {
            self.bump();
            // Optional (min~max).
            let (min_hops, max_hops) = if *self.peek() == Tok::LParen {
                self.bump();
                let min = self.int("minimum path length")?;
                self.expect(Tok::Tilde)?;
                let max = self.int("maximum path length")?;
                self.expect(Tok::RParen)?;
                (Some(min as u32), Some(max as u32))
            } else {
                (None, None)
            };
            self.expect(Tok::LBracket)?;
            let (last_op, op_span) = self.ident("an operation")?;
            if operation_object_type(&last_op).is_none() {
                return Err(TbqlError::new(
                    op_span,
                    format!("unknown operation `{last_op}`"),
                ));
            }
            self.expect(Tok::RBracket)?;
            let object = self.entity()?;
            let id = self.opt_as()?;
            let window = self.opt_window()?;
            let span = start.merge(object.span);
            Ok(Pattern::Path(PathPattern {
                id,
                subject,
                min_hops,
                max_hops,
                last_op,
                object,
                window,
                span,
            }))
        } else {
            let ops = self.op_expr()?;
            let object = self.entity()?;
            let id = self.opt_as()?;
            let window = self.opt_window()?;
            let span = start.merge(object.span);
            Ok(Pattern::Event(EventPattern {
                id,
                subject,
                ops,
                object,
                window,
                span,
            }))
        }
    }

    fn int(&mut self, what: &str) -> Result<i64, TbqlError> {
        match *self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(v)
            }
            _ => Err(self.err(format!("expected {what}, found {}", self.peek()))),
        }
    }

    fn opt_as(&mut self) -> Result<Option<String>, TbqlError> {
        if self.peek_ident() == Some("as") {
            self.bump();
            let (name, _) = self.name("a pattern name")?;
            Ok(Some(name))
        } else {
            Ok(None)
        }
    }

    fn opt_window(&mut self) -> Result<Option<TimeWindow>, TbqlError> {
        if self.peek_ident() == Some("window") {
            self.bump();
            self.expect(Tok::LBracket)?;
            let lo = self.int("window start")?;
            self.expect(Tok::Comma)?;
            let hi = self.int("window end")?;
            let span = self.expect(Tok::RBracket)?;
            // Negative bounds are a domain error here; an *empty* window
            // (lo > hi) parses fine and is rejected by the lint pass's
            // DBM with a stable diagnostic code (E001).
            if lo < 0 || hi < 0 {
                return Err(TbqlError::new(span, format!("invalid window [{lo}, {hi}]")));
            }
            Ok(Some(TimeWindow {
                lo: lo as u64,
                hi: hi as u64,
            }))
        } else {
            Ok(None)
        }
    }

    fn op_expr(&mut self) -> Result<Vec<String>, TbqlError> {
        let mut ops = Vec::new();
        loop {
            let (op, span) = self.ident("an operation")?;
            if operation_object_type(&op).is_none() {
                return Err(TbqlError::new(span, format!("unknown operation `{op}`")));
            }
            ops.push(op);
            if *self.peek() == Tok::OrOr {
                self.bump();
            } else {
                break;
            }
        }
        Ok(ops)
    }

    fn entity(&mut self) -> Result<EntityRef, TbqlError> {
        let start = self.peek_span();
        let ty = match self.peek_ident() {
            Some("proc") => {
                self.bump();
                Some(EntityType::Proc)
            }
            Some("file") => {
                self.bump();
                Some(EntityType::File)
            }
            Some("ip") => {
                self.bump();
                Some(EntityType::Ip)
            }
            _ => None,
        };
        let (id, id_span) = self.name("an entity identifier")?;
        let filter = if *self.peek() == Tok::LBracket {
            Some(self.filter()?)
        } else {
            None
        };
        Ok(EntityRef {
            ty,
            id,
            filter,
            span: start.merge(id_span),
        })
    }

    fn filter(&mut self) -> Result<Filter, TbqlError> {
        self.expect(Tok::LBracket)?;
        let f = match self.peek().clone() {
            Tok::Str(s) => {
                self.bump();
                Filter::Default(s)
            }
            _ => Filter::Expr(self.expr()?),
        };
        self.expect(Tok::RBracket)?;
        Ok(f)
    }

    fn expr(&mut self) -> Result<Expr, TbqlError> {
        let mut legs = vec![self.and_expr()?];
        while *self.peek() == Tok::OrOr {
            self.bump();
            legs.push(self.and_expr()?);
        }
        Ok(if legs.len() == 1 {
            legs.pop().expect("len checked")
        } else {
            Expr::Or(legs)
        })
    }

    fn and_expr(&mut self) -> Result<Expr, TbqlError> {
        let mut legs = vec![self.cmp_expr()?];
        while *self.peek() == Tok::AndAnd {
            self.bump();
            legs.push(self.cmp_expr()?);
        }
        Ok(if legs.len() == 1 {
            legs.pop().expect("len checked")
        } else {
            Expr::And(legs)
        })
    }

    fn cmp_expr(&mut self) -> Result<Expr, TbqlError> {
        if *self.peek() == Tok::LParen {
            if self.depth == MAX_NESTING {
                return Err(self.err(format!(
                    "filter parentheses nest deeper than {MAX_NESTING} levels"
                )));
            }
            self.bump();
            self.depth += 1;
            let e = self.expr()?;
            self.depth -= 1;
            self.expect(Tok::RParen)?;
            return Ok(e);
        }
        let (attr, _) = self.ident("an attribute name")?;
        let op = match self.peek() {
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            Tok::Ident(s) if s == "like" => CmpOp::Like,
            other => return Err(self.err(format!("expected a comparison operator, found {other}"))),
        };
        self.bump();
        let value = match self.peek().clone() {
            Tok::Str(s) => {
                self.bump();
                Lit::Str(s)
            }
            Tok::Int(v) => {
                self.bump();
                Lit::Int(v)
            }
            other => return Err(self.err(format!("expected a literal, found {other}"))),
        };
        Ok(Expr::Cmp { attr, op, value })
    }

    fn temporal_constraint(&mut self) -> Result<TemporalConstraint, TbqlError> {
        let (left, lspan) = self.name("an event pattern name")?;
        let (rel_word, rel_span) = self.ident("`before` or `after`")?;
        let rel = match rel_word.as_str() {
            "before" => TemporalRel::Before,
            "after" => TemporalRel::After,
            other => {
                return Err(TbqlError::new(
                    rel_span,
                    format!("expected `before` or `after`, found `{other}`"),
                ))
            }
        };
        let (right, rspan) = self.name("an event pattern name")?;
        Ok(TemporalConstraint {
            left,
            rel,
            right,
            span: lspan.merge(rspan),
        })
    }

    fn return_clause(&mut self) -> Result<ReturnClause, TbqlError> {
        if self.peek_ident() != Some("return") {
            return Err(self.err("expected `return` clause"));
        }
        self.bump();
        let distinct = if self.peek_ident() == Some("distinct") {
            self.bump();
            true
        } else {
            false
        };
        let mut items = Vec::new();
        loop {
            let (entity, espan) = self.name("an entity identifier")?;
            let (attr, span) = if *self.peek() == Tok::Dot {
                self.bump();
                let (attr, aspan) = self.ident("an attribute name")?;
                (Some(attr), espan.merge(aspan))
            } else {
                (None, espan)
            };
            items.push(ReturnItem { entity, attr, span });
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        Ok(ReturnClause { distinct, items })
    }
}

/// The paper's Fig. 2 synthesized TBQL query, verbatim (modulo layout).
pub const FIG2_TBQL: &str = r#"
proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 write file f2["%/tmp/upload.tar%"] as evt2
proc p2["%/bin/bzip2%"] read file f2 as evt3
proc p2 write file f3["%/tmp/upload.tar.bz2%"] as evt4
proc p3["%/usr/bin/gpg%"] read file f3 as evt5
proc p3 write file f4["%/tmp/upload%"] as evt6
proc p4["%/usr/bin/curl%"] read file f4 as evt7
proc p4["%/usr/bin/curl%"] connect ip i1["192.168.29.128"] as evt8
with evt1 before evt2, evt2 before evt3, evt3 before evt4,
     evt4 before evt5, evt5 before evt6, evt6 before evt7,
     evt7 before evt8
return distinct p1, f1, f2, p2, f3, p3, f4, p4, i1
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig2_query() {
        let q = parse_query(FIG2_TBQL).expect("Fig. 2 query must parse");
        assert_eq!(q.pattern_count(), 8);
        assert_eq!(q.temporal.len(), 7);
        assert!(q.ret.distinct);
        assert_eq!(q.ret.items.len(), 9);

        let Pattern::Event(e1) = &q.patterns[0] else {
            panic!("expected event pattern");
        };
        assert_eq!(e1.id.as_deref(), Some("evt1"));
        assert_eq!(e1.subject.ty, Some(EntityType::Proc));
        assert_eq!(e1.subject.id, "p1");
        assert_eq!(
            e1.subject.filter,
            Some(Filter::Default("%/bin/tar%".into()))
        );
        assert_eq!(e1.ops, vec!["read".to_string()]);
        assert_eq!(e1.object.id, "f1");

        // Pattern 3 reuses f2 with no filter (shared entity ⇒ implicit
        // attribute relationship during execution).
        let Pattern::Event(e3) = &q.patterns[2] else {
            panic!()
        };
        assert_eq!(e3.object.id, "f2");
        assert_eq!(e3.object.filter, None);

        // Final pattern is the connect.
        let Pattern::Event(e8) = &q.patterns[7] else {
            panic!()
        };
        assert_eq!(e8.ops, vec!["connect".to_string()]);
        assert_eq!(e8.object.ty, Some(EntityType::Ip));
    }

    #[test]
    fn parses_path_pattern() {
        let q = parse_query("proc p ~>(2~4)[read] file f as pp1 return p, f").unwrap();
        let Pattern::Path(pp) = &q.patterns[0] else {
            panic!("expected path pattern")
        };
        assert_eq!(pp.min_hops, Some(2));
        assert_eq!(pp.max_hops, Some(4));
        assert_eq!(pp.last_op, "read");
        assert_eq!(pp.id.as_deref(), Some("pp1"));

        let q = parse_query("proc p ~>[read] file f return p").unwrap();
        let Pattern::Path(pp) = &q.patterns[0] else {
            panic!()
        };
        assert_eq!(pp.min_hops, None);
        assert_eq!(pp.max_hops, None);
    }

    #[test]
    fn parses_op_alternatives_and_expr_filters() {
        let q = parse_query(
            r#"proc p[exename = "%tar%" && owner = "root"] read || write file f[name like "/tmp/%"] as e1
               return distinct p.pid, f"#,
        )
        .unwrap();
        let Pattern::Event(e) = &q.patterns[0] else {
            panic!()
        };
        assert_eq!(e.ops, vec!["read".to_string(), "write".to_string()]);
        let Some(Filter::Expr(Expr::And(legs))) = &e.subject.filter else {
            panic!("expected expr filter: {:?}", e.subject.filter)
        };
        assert_eq!(legs.len(), 2);
        let Some(Filter::Expr(Expr::Cmp { op, .. })) = &e.object.filter else {
            panic!()
        };
        assert_eq!(*op, CmpOp::Like);
        assert_eq!(q.ret.items[0].attr.as_deref(), Some("pid"));
        assert_eq!(q.ret.items[1].attr, None);
    }

    #[test]
    fn parses_window() {
        let q = parse_query("proc p read file f as e1 window [100, 2000] return p").unwrap();
        let Pattern::Event(e) = &q.patterns[0] else {
            panic!()
        };
        assert_eq!(e.window, Some(TimeWindow { lo: 100, hi: 2000 }));
        // Negative bounds are parse errors; empty (reversed) windows
        // parse and are rejected later by the lint pass.
        assert!(parse_query("proc p read file f window [-5, 10] return p").is_err());
        assert!(parse_query("proc p read file f window [50, 10] return p").is_ok());
    }

    #[test]
    fn parses_after_relation() {
        let q = parse_query(
            "proc p read file f as e1 proc p write file g as e2 with e2 after e1 return p",
        )
        .unwrap();
        assert_eq!(q.temporal[0].rel, TemporalRel::After);
    }

    #[test]
    fn rejects_malformed_queries() {
        // No pattern.
        assert!(parse_query("return p").is_err());
        // Missing return.
        assert!(parse_query("proc p read file f").is_err());
        // Unknown operation.
        assert!(parse_query("proc p teleport file f return p").is_err());
        // Keyword as identifier.
        assert!(parse_query("proc return read file f return p").is_err());
        // Bad temporal keyword.
        assert!(parse_query("proc p read file f as e1 with e1 during e1 return p").is_err());
        // Unbalanced filter bracket.
        assert!(parse_query(r#"proc p["%x%" read file f return p"#).is_err());
        // Trailing garbage.
        assert!(parse_query("proc p read file f return p extra").is_err());
        // Path with reversed bounds parses (validated in analysis), but
        // missing op errors here.
        assert!(parse_query("proc p ~>(2~4)[] file f return p").is_err());
    }

    #[test]
    fn error_messages_have_spans() {
        let err = parse_query("proc p levitate file f return p").unwrap_err();
        assert!(err.message.contains("unknown operation"));
        assert!(err.span.start > 0);
        let rendered = err.render("proc p levitate file f return p");
        assert!(rendered.contains("^"));
    }
}
