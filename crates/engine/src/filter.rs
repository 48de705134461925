//! Typed entity filters: what an entity variable's TBQL filters compile
//! to, evaluated directly on the catalog's entities.
//!
//! [`compile`](crate::compile) lowers the conjunction of every filter on a
//! variable to an [`EntityFilter`]: the kind of entity the variable binds
//! and a [`Cond`] tree whose attribute names are resolved, once, to the
//! audit schema's typed [`Field`]s. An attribute the kind lacks is a
//! typed compile error, with the schema's message. The executor evaluates
//! the tree on a borrowed [`Entity`], reading its fields as [`Cell`]s and
//! allocating nothing.
//!
//! The semantics are SQL's over the paper's entity tables (§II-B), and
//! the reference evaluator's ([`crate::reference`]): integer fields
//! compare as integers and every other attribute as a string, an integer
//! ordering before any string; `like` is SQL `LIKE`, reading an integer
//! field as its decimal text.
//! EXPLAIN renders a filter as the SQL boolean expression it stands for
//! ([`EntityFilter::to_sql`]).

use crate::error::EngineError;
use std::cmp::Ordering;
use threatraptor_audit::entity::{Cell, Entity, EntityKind, Field};
use threatraptor_tbql::ast::{CmpOp, Expr, Lit};

/// A filter tree over typed fields.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// No constraint.
    True,
    /// `field <op> literal`; the operator is never [`CmpOp::Like`].
    Cmp(Field, CmpOp, Lit),
    /// `field LIKE pattern` (`%`/`_` wildcards).
    Like(Field, String),
    /// Conjunction.
    And(Vec<Cond>),
    /// Disjunction.
    Or(Vec<Cond>),
}

impl Cond {
    /// Lowers a TBQL filter expression over an entity of `kind`.
    pub(crate) fn lower(kind: EntityKind, expr: &Expr) -> Result<Cond, EngineError> {
        let lower_all = |legs: &[Expr]| {
            legs.iter()
                .map(|e| Cond::lower(kind, e))
                .collect::<Result<Vec<_>, _>>()
        };
        match expr {
            Expr::And(legs) => Ok(Cond::And(lower_all(legs)?)),
            Expr::Or(legs) => Ok(Cond::Or(lower_all(legs)?)),
            Expr::Cmp { attr, op, value } => {
                let field = kind.field(attr).map_err(EngineError::Execution)?;
                Ok(match (op, value) {
                    (CmpOp::Like, Lit::Str(pattern)) => Cond::Like(field, pattern.clone()),
                    (CmpOp::Like, Lit::Int(i)) => Cond::Like(field, i.to_string()),
                    _ => Cond::Cmp(field, *op, value.clone()),
                })
            }
        }
    }

    /// Whether `entity` satisfies the tree (false for a field the entity
    /// lacks).
    pub(crate) fn eval(&self, entity: &Entity) -> bool {
        match self {
            Cond::True => true,
            Cond::Cmp(field, op, lit) => field.read(entity).is_some_and(|cell| {
                let order = match (cell, lit) {
                    (Cell::Int(a), Lit::Int(b)) => i64::from(a).cmp(b),
                    // Equality tests lengths before bytes: most strings
                    // of a large scan are then never read.
                    (Cell::Str(a), Lit::Str(b)) if matches!(op, CmpOp::Eq | CmpOp::Ne) => {
                        return (a == b) == (*op == CmpOp::Eq);
                    }
                    (Cell::Str(a), Lit::Str(b)) => a.cmp(b.as_str()),
                    (Cell::Int(_), Lit::Str(_)) => Ordering::Less,
                    (Cell::Str(_), Lit::Int(_)) => Ordering::Greater,
                };
                match op {
                    CmpOp::Eq => order.is_eq(),
                    CmpOp::Ne => order.is_ne(),
                    CmpOp::Lt => order.is_lt(),
                    CmpOp::Le => order.is_le(),
                    CmpOp::Gt => order.is_gt(),
                    CmpOp::Ge => order.is_ge(),
                    CmpOp::Like => unreachable!("`lower` makes every `like` a `Cond::Like`"),
                }
            }),
            Cond::Like(field, pattern) => match field.read(entity) {
                Some(Cell::Str(s)) => like_match(pattern, s),
                Some(Cell::Int(i)) => like_match(pattern, decimal(i, &mut [0; 10])),
                None => false,
            },
            Cond::And(legs) => legs.iter().all(|leg| leg.eval(entity)),
            Cond::Or(legs) => legs.iter().any(|leg| leg.eval(entity)),
        }
    }

    /// The SQL boolean expression, columns prefixed by `alias.`.
    fn sql(&self, alias: &str) -> String {
        let join = |legs: &[Cond], joiner: &str| {
            legs.iter()
                .map(|leg| format!("({})", leg.sql(alias)))
                .collect::<Vec<_>>()
                .join(joiner)
        };
        match self {
            Cond::True => "TRUE".to_string(),
            Cond::Cmp(field, op, Lit::Int(i)) => {
                format!("{alias}.{} {} {i}", field.name(), op.text())
            }
            Cond::Cmp(field, op, Lit::Str(s)) => {
                let quoted = s.replace('\'', "''");
                format!("{alias}.{} {} '{quoted}'", field.name(), op.text())
            }
            Cond::Like(field, pattern) => format!("{alias}.{} LIKE '{pattern}'", field.name()),
            Cond::And(legs) => join(legs, " AND "),
            Cond::Or(legs) => join(legs, " OR "),
        }
    }
}

/// An entity variable's filter: the kind of entity it binds and the
/// conjunction of every filter on it.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityFilter {
    /// The kind of entity the variable binds.
    pub kind: EntityKind,
    /// The merged filter tree.
    pub cond: Cond,
}

impl EntityFilter {
    /// Lowers the filters on a variable of `kind`: none is [`Cond::True`],
    /// one is itself, more are their [`Cond::And`].
    pub(crate) fn lower(kind: EntityKind, filters: &[Expr]) -> Result<EntityFilter, EngineError> {
        let mut legs = filters
            .iter()
            .map(|e| Cond::lower(kind, e))
            .collect::<Result<Vec<_>, _>>()?;
        let cond = match legs.len() {
            0 => Cond::True,
            1 => legs.remove(0),
            _ => Cond::And(legs),
        };
        Ok(EntityFilter { kind, cond })
    }

    /// Whether `entity` is of the filter's kind and satisfies it.
    #[inline]
    pub(crate) fn matches(&self, entity: &Entity) -> bool {
        entity.kind() == self.kind && self.cond.eval(entity)
    }

    /// The filter as a SQL boolean expression over the variable's entity
    /// table aliased `alias` (`TRUE` when unconstrained; string literals
    /// quoted with `'` doubled).
    pub fn to_sql(&self, alias: &str) -> String {
        self.cond.sql(alias)
    }
}

/// `n` in decimal, written into the tail of `buf`.
fn decimal(mut n: u32, buf: &mut [u8; 10]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).unwrap_or_default()
}

/// SQL `LIKE` matching: `%` matches any run of characters (including
/// empty), `_` matches exactly one character. Matching is case-sensitive,
/// as in PostgreSQL.
///
/// A `%literal%` pattern is a substring search. Any other is matched
/// with the classic two-pointer wildcard algorithm — O(n·m)
/// worst case but linear on typical patterns, with no allocation: it
/// walks the UTF-8 bytes directly. Both wildcards are ASCII, so a
/// wildcard byte in the pattern is never part of a multi-byte character;
/// literals compare bytewise (equal byte runs are equal characters), and
/// `_` and the `%` backtrack step advance the text by one whole
/// character, so the text cursor only ever rests on a character boundary
/// when a wildcard is examined.
pub(crate) fn like_match(pattern: &str, text: &str) -> bool {
    // `%literal%`, the shape of most TBQL filters, is a substring search.
    if let Some(literal) = pattern
        .strip_prefix('%')
        .and_then(|p| p.strip_suffix('%'))
        .filter(|p| !p.contains(['%', '_']))
    {
        return text.contains(literal);
    }
    let (p, t) = (pattern.as_bytes(), text.as_bytes());
    let (mut pi, mut ti) = (0usize, 0usize);
    // Backtrack anchors for the most recent `%`: the pattern position
    // after it and the text position it currently absorbs up to.
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        match p.get(pi) {
            Some(b'%') => {
                pi += 1;
                star = Some((pi, ti));
            }
            Some(b'_') => {
                pi += 1;
                ti += utf8_len(t[ti]);
            }
            Some(&c) if c == t[ti] => {
                pi += 1;
                ti += 1;
            }
            _ => {
                // Retry: let the last `%` absorb one more character.
                let Some((after, absorbed)) = star else {
                    return false;
                };
                let absorbed = absorbed + utf8_len(t[absorbed]);
                star = Some((after, absorbed));
                pi = after;
                ti = absorbed;
            }
        }
    }
    p[pi..].iter().all(|&c| c == b'%')
}

/// Byte length of the UTF-8 character whose first byte is `lead`.
#[inline]
fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7F => 1,
        0x80..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{holds, like};
    use proptest::prelude::*;
    use threatraptor_audit::entity::{EntityId, FileEntity, NetworkEntity, ProcessEntity};

    fn cmp(attr: &str, op: CmpOp, value: Lit) -> Expr {
        Expr::Cmp {
            attr: attr.into(),
            op,
            value,
        }
    }

    fn process(pid: u32, exename: &str, owner: &str) -> Entity {
        Entity::Process(ProcessEntity {
            id: EntityId(0),
            pid,
            exename: exename.into(),
            cmdline: format!("{exename} --flag"),
            owner: owner.into(),
            start_time: 0,
        })
    }

    /// Whether the filters `exprs` on a process variable admit `entity`.
    fn admits(exprs: &[Expr], entity: &Entity) -> bool {
        EntityFilter::lower(EntityKind::Process, exprs)
            .unwrap()
            .matches(entity)
    }

    #[test]
    fn cmp_eval() {
        let (sh, tar) = (
            process(100, "/bin/sh", "root"),
            process(5000, "/bin/tar", "www"),
        );
        let root = [cmp("owner", CmpOp::Eq, Lit::Str("root".into()))];
        assert!(admits(&root, &sh) && !admits(&root, &tar));
        let big = [cmp("pid", CmpOp::Gt, Lit::Int(1000))];
        assert!(!admits(&big, &sh) && admits(&big, &tar));
        // A filter never admits an entity of another kind.
        let file = Entity::File(FileEntity {
            id: EntityId(1),
            name: "root".into(),
        });
        assert!(!admits(&[], &file));
    }

    #[test]
    fn and_or_not() {
        let (sh, tar) = (
            process(100, "/bin/sh", "root"),
            process(5000, "/bin/tar", "www"),
        );
        let both = [Expr::And(vec![
            cmp("owner", CmpOp::Eq, Lit::Str("www".into())),
            cmp("pid", CmpOp::Ge, Lit::Int(5000)),
        ])];
        assert!(!admits(&both, &sh) && admits(&both, &tar));
        let either = [Expr::Or(vec![
            cmp("owner", CmpOp::Eq, Lit::Str("root".into())),
            cmp("owner", CmpOp::Eq, Lit::Str("www".into())),
        ])];
        assert!(admits(&either, &sh) && admits(&either, &tar));
        let not_sh = [cmp("exename", CmpOp::Ne, Lit::Str("/bin/sh".into()))];
        assert!(!admits(&not_sh, &sh) && admits(&not_sh, &tar));
    }

    /// Zero filters are `TRUE`, one is itself, more are a conjunction.
    #[test]
    fn and_simplification() {
        let lower = |exprs: &[Expr]| EntityFilter::lower(EntityKind::File, exprs).unwrap().cond;
        let eq = cmp("name", CmpOp::Eq, Lit::Str("/etc/passwd".into()));
        let leaf = Cond::Cmp(Field::Name, CmpOp::Eq, Lit::Str("/etc/passwd".into()));
        assert_eq!(lower(&[]), Cond::True);
        assert_eq!(lower(std::slice::from_ref(&eq)), leaf);
        assert_eq!(
            lower(&[eq.clone(), eq]),
            Cond::And(vec![leaf.clone(), leaf])
        );
    }

    #[test]
    fn like_on_int_column_coerces() {
        let (sh, tar) = (
            process(100, "/bin/sh", "root"),
            process(5000, "/bin/tar", "www"),
        );
        let fifty = [cmp("pid", CmpOp::Like, Lit::Str("50%".into()))];
        assert!(admits(&fifty, &tar) && !admits(&fifty, &sh));
        // An integer pattern reads as its text.
        let hundred = [cmp("pid", CmpOp::Like, Lit::Int(100))];
        assert!(admits(&hundred, &sh) && !admits(&hundred, &tar));
        assert_eq!(decimal(0, &mut [0; 10]), "0");
        assert_eq!(decimal(u32::MAX, &mut [0; 10]), "4294967295");
    }

    /// An integer sorts below any string, whichever side holds it.
    #[test]
    fn value_ordering() {
        let sh = process(100, "/bin/sh", "root");
        let holds = |attr: &str, op, value| admits(&[cmp(attr, op, value)], &sh);
        assert!(holds("pid", CmpOp::Lt, Lit::Int(101)));
        assert!(holds("owner", CmpOp::Lt, Lit::Str("www".into())));
        assert!(holds("owner", CmpOp::Gt, Lit::Int(42)));
        assert!(holds("owner", CmpOp::Gt, Lit::Int(i64::MAX)));
        assert!(holds("pid", CmpOp::Lt, Lit::Str("x".into())));
        assert!(holds("pid", CmpOp::Lt, Lit::Str(String::new())));
        assert!(!holds("pid", CmpOp::Eq, Lit::Str("100".into())));
    }

    /// EXPLAIN's filter text: `TRUE`, parenthesized legs, doubled `'`.
    #[test]
    fn sql_rendering() {
        let sql = |kind, exprs: &[Expr]| EntityFilter::lower(kind, exprs).unwrap().to_sql("v");
        assert_eq!(sql(EntityKind::Network, &[]), "TRUE");
        let compound = [
            cmp("owner", CmpOp::Eq, Lit::Str("root".into())),
            Expr::Or(vec![
                cmp("exename", CmpOp::Like, Lit::Str("%/bin/tar%".into())),
                cmp("pid", CmpOp::Ge, Lit::Int(10)),
            ]),
        ];
        assert_eq!(
            sql(EntityKind::Process, &compound),
            "(v.owner = 'root') AND ((v.exename LIKE '%/bin/tar%') OR (v.pid >= 10))"
        );
        let quoted = [cmp("name", CmpOp::Ne, Lit::Str("o'brien".into()))];
        assert_eq!(sql(EntityKind::File, &quoted), "v.name != 'o''brien'");
        let port = [cmp("dstport", CmpOp::Like, Lit::Int(44))];
        assert_eq!(sql(EntityKind::Network, &port), "v.dstport LIKE '44'");
    }

    #[test]
    fn like_basics() {
        assert!(like_match("%/bin/tar%", "/bin/tar"));
        assert!(like_match("%/bin/tar%", "/usr/local/bin/tar --extract"));
        assert!(!like_match("%/bin/tar%", "/bin/ta"));
        assert!(like_match("/etc/passwd", "/etc/passwd"));
        assert!(!like_match("/etc/passwd", "/etc/passwd.bak"));
        assert!(like_match("/etc/%", "/etc/passwd"));
        assert!(like_match("%.gz", "/var/log/syslog.1.gz"));
        assert!(like_match("_at", "cat"));
        assert!(!like_match("_at", "at"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "anything"));
        assert!(!like_match("", "x"));
        assert!(like_match("", ""));
    }

    #[test]
    fn like_multiple_wildcards() {
        assert!(like_match("%upload%tar%", "/tmp/upload.tar"));
        assert!(like_match("a%b%c", "aXXbYYc"));
        assert!(!like_match("a%b%c", "aXXbYY"));
        assert!(like_match("%_%", "x"));
        assert!(!like_match("%_%", ""));
    }

    #[test]
    fn like_underscore_consumes_one_char_not_one_byte() {
        assert!(like_match("_", "é"));
        assert!(like_match("c_t", "c猫t"));
        assert!(!like_match("__", "🦀"));
        assert!(like_match("%猫_", "a猫🦀"));
        assert!(!like_match("é", "è"));
        // A literal `%` in the text is ordinary text to the wildcard.
        assert!(like_match("%a", "%ba"));
    }

    /// Attribute names per kind, all ten.
    const ATTRS: [(EntityKind, &[&str]); 3] = [
        (EntityKind::Process, &["pid", "exename", "cmdline", "owner"]),
        (EntityKind::File, &["name"]),
        (
            EntityKind::Network,
            &["srcip", "srcport", "dstip", "dstport", "protocol"],
        ),
    ];

    const OPS: [CmpOp; 7] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Like,
    ];

    /// Literals near the generated attribute values, of both types, with
    /// wildcards for `LIKE`.
    fn literals() -> Vec<Lit> {
        let strs = [
            "",
            "x",
            "root",
            "www",
            "/bin/tool1",
            "/bin/tool%",
            "%tool_%",
            "tool1 --flag",
            "/data/dir1/file2",
            "%dir2%",
            "10.0.0.4",
            "192.168.1.2",
            "%.1._",
            "tcp",
            "t_p",
            "40003",
            "4%",
            "%3",
            "10_",
            "%",
            "o'b",
        ];
        let ints = [-1, 0, 3, 44, 100, 103, 443, 40_003, 65_535, i64::MAX];
        let strs = strs.into_iter().map(|s| Lit::Str(s.into()));
        strs.chain(ints.into_iter().map(Lit::Int)).collect()
    }

    /// One entity of each kind per `attr`, from a small value pool so
    /// comparisons hit equal, lower and higher values.
    fn entity(id: usize, kind: u8, attr: u8) -> Entity {
        let id = EntityId(id as u32);
        match kind % 3 {
            0 => Entity::Process(ProcessEntity {
                id,
                pid: 100 + u32::from(attr % 8),
                exename: format!("/bin/tool{}", attr % 5),
                cmdline: format!("tool{} --flag", attr % 5),
                owner: ["root", "www", "o'b"][usize::from(attr % 3)].into(),
                start_time: 0,
            }),
            1 => Entity::File(FileEntity {
                id,
                name: format!("/data/dir{}/file{}", attr % 3, attr % 7),
            }),
            _ => Entity::Network(NetworkEntity {
                id,
                src_ip: ["10.0.0.4", "192.168.1.2"][usize::from(attr % 2)].into(),
                src_port: 40_000 + u16::from(attr % 6),
                dst_ip: format!("192.168.1.{}", attr % 4),
                dst_port: [3, 44, 443, 65_535][usize::from(attr % 4)],
                protocol: ["tcp", "udp"][usize::from(attr % 2)].into(),
            }),
        }
    }

    fn pool() -> Vec<Entity> {
        (0..3u8)
            .flat_map(|kind| (0..24u8).map(move |attr| (kind, attr)))
            .enumerate()
            .map(|(id, (kind, attr))| entity(id, kind, attr))
            .collect()
    }

    /// Whether the typed filter and the reference agree on `exprs` (the
    /// filters of a variable of `kind`) for every entity in `entities`.
    fn agree(kind: EntityKind, exprs: &[Expr], entities: &[Entity]) -> Result<(), String> {
        let filter = EntityFilter::lower(kind, exprs).map_err(|e| e.to_string())?;
        for entity in entities {
            let want = entity.kind() == kind && exprs.iter().all(|e| holds(e, entity));
            if filter.matches(entity) != want {
                return Err(format!("{exprs:?} on {entity:?}: reference says {want}"));
            }
        }
        Ok(())
    }

    /// Every attribute × operator × literal (integer and string literals
    /// on numeric and string attributes alike, `LIKE` with integer
    /// patterns and on numeric attributes) against the reference, over a
    /// pool of all three kinds.
    #[test]
    fn every_leaf_agrees_with_the_reference() {
        let entities = pool();
        let mut leaves = 0;
        for (kind, attrs) in ATTRS {
            for attr in attrs {
                for op in OPS {
                    for lit in literals() {
                        agree(kind, &[cmp(attr, op, lit)], &entities).unwrap();
                        leaves += 1;
                    }
                }
            }
        }
        assert_eq!(leaves, 10 * 7 * literals().len());
    }

    /// `tree` builds an `And`/`Or` tree over `leaves`: 2 or 3 legs per
    /// node and the connective picked by the next bits of `shape`.
    fn tree(leaves: &[Expr], shape: &mut u64) -> Expr {
        if leaves.len() == 1 {
            return leaves[0].clone();
        }
        let mut bit = || {
            *shape = shape.rotate_right(1);
            *shape & 1 == 1
        };
        let arity = if bit() { 3 } else { 2 }.min(leaves.len());
        let and = bit();
        let size = leaves.len().div_ceil(arity);
        let legs = leaves.chunks(size).map(|c| tree(c, shape)).collect();
        if and {
            Expr::And(legs)
        } else {
            Expr::Or(legs)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Nested `And`/`Or` trees of random leaves, one or two per
        /// variable, on random entities: the typed filter admits exactly
        /// the entities the reference evaluator's `holds` does.
        #[test]
        fn typed_filter_agrees_with_the_reference(
            kind in 0usize..3,
            raw in prop::collection::vec((any::<u8>(), 0usize..7, any::<u8>()), 1..12),
            split in 0usize..12,
            shape in any::<u64>(),
            spec in prop::collection::vec((0u8..3, any::<u8>()), 0..40),
        ) {
            let (kind, attrs) = ATTRS[kind];
            let lits = literals();
            let leaves: Vec<Expr> = raw
                .iter()
                .map(|&(a, op, l)| {
                    let attr = attrs[usize::from(a) % attrs.len()];
                    cmp(attr, OPS[op], lits[usize::from(l) % lits.len()].clone())
                })
                .collect();
            let mut shape = shape;
            // The merged filters of a variable mentioned twice.
            let exprs = match split % leaves.len() {
                0 => vec![tree(&leaves, &mut shape)],
                at => vec![tree(&leaves[..at], &mut shape), tree(&leaves[at..], &mut shape)],
            };
            let entities: Vec<Entity> = spec
                .iter()
                .enumerate()
                .map(|(id, &(kind, attr))| entity(id, kind, attr))
                .collect();
            prop_assert_eq!(agree(kind, &exprs, &entities), Ok(()));
        }

        /// Multi-byte text and patterns (2-, 3- and 4-byte characters)
        /// plus a literal `%` in the text: `_` consumes one `char`, not
        /// one byte.
        #[test]
        fn like_agrees_with_reference(
            pattern in "[abé猫🦀%_]{0,8}",
            text in "[abé猫🦀%]{0,10}",
        ) {
            prop_assert_eq!(like_match(&pattern, &text), like(&pattern, &text));
        }

        #[test]
        fn contains_pattern_equals_substring_search(
            needle in "[a-c]{1,4}",
            text in "[a-c]{0,16}",
        ) {
            let pattern = format!("%{needle}%");
            prop_assert_eq!(like_match(&pattern, &text), text.contains(&needle));
        }
    }
}
