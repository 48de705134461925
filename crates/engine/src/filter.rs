//! Typed entity filters: what an entity variable's TBQL filters compile
//! to, evaluated directly on the catalog's entities.
//!
//! Semantic analysis already resolved every filter attribute to the
//! audit schema's typed [`Field`](threatraptor_audit::entity::Field): a
//! filter is a [`Cond`]. [`compile`](crate::compile) gathers a
//! variable's filters, one per mention, into an [`EntityFilter`] beside
//! the kind of entity the variable binds. The executor evaluates the
//! analysis tree on a borrowed [`Entity`], reading its fields as
//! [`Cell`]s and allocating nothing.
//!
//! The semantics are SQL's over the paper's entity tables (§II-B), and
//! the reference evaluator's ([`crate::reference`]): integer fields
//! compare as integers and every other attribute as a string, an integer
//! ordering before any string; `like` is SQL `LIKE`, reading an integer
//! field, or an integer pattern, as its decimal text.
//! EXPLAIN renders a filter as the SQL boolean expression it stands for
//! ([`EntityFilter::to_sql`]).

use std::cmp::Ordering;
use threatraptor_audit::entity::{Cell, Entity, EntityKind};
use threatraptor_tbql::analyze::Cond;
use threatraptor_tbql::ast::{CmpOp, Lit};

/// An entity variable's filter: the kind of entity it binds and the
/// conjunction of every filter on it.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityFilter {
    /// The kind of entity the variable binds.
    pub kind: EntityKind,
    /// The variable's filters, one per mention filter, as analysis typed
    /// them; all must hold.
    pub filters: Vec<Cond>,
}

impl EntityFilter {
    /// Whether `entity` is of the filter's kind and satisfies it.
    #[inline]
    pub(crate) fn matches(&self, entity: &Entity) -> bool {
        entity.kind() == self.kind && self.holds(entity)
    }

    /// Whether `entity` satisfies every filter (false for a field the
    /// entity lacks).
    #[inline]
    pub(crate) fn holds(&self, entity: &Entity) -> bool {
        self.filters.iter().all(|cond| eval(cond, entity))
    }

    /// The filter as a SQL boolean expression over the variable's entity
    /// table aliased `alias`: `TRUE` when unconstrained, one filter as
    /// itself, more as their parenthesized `AND` (string literals quoted
    /// with `'` doubled).
    pub fn to_sql(&self, alias: &str) -> String {
        match self.filters.as_slice() {
            [] => "TRUE".to_string(),
            [one] => sql(one, alias),
            legs => join_sql(legs, alias, " AND "),
        }
    }
}

/// Whether `entity` satisfies `cond` (false for a field the entity
/// lacks).
fn eval(cond: &Cond, entity: &Entity) -> bool {
    match cond {
        Cond::And(legs) => legs.iter().all(|leg| eval(leg, entity)),
        Cond::Or(legs) => legs.iter().any(|leg| eval(leg, entity)),
        Cond::Cmp {
            field,
            op: CmpOp::Like,
            value,
        } => field.read(entity).is_some_and(|cell| {
            let (mut pattern_buf, mut text_buf) = ([0; 20], [0; 20]);
            let pattern = match value {
                Lit::Str(s) => s.as_str(),
                Lit::Int(i) => decimal(*i, &mut pattern_buf),
            };
            let text = match cell {
                Cell::Str(s) => s,
                Cell::Int(i) => decimal(i.into(), &mut text_buf),
            };
            like_match(pattern, text)
        }),
        Cond::Cmp { field, op, value } => field.read(entity).is_some_and(|cell| {
            let order = match (cell, value) {
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
                CmpOp::Like => unreachable!("matched by the arm above"),
            }
        }),
    }
}

/// The SQL boolean expression of `cond`, columns prefixed by `alias.`.
fn sql(cond: &Cond, alias: &str) -> String {
    match cond {
        Cond::Cmp { field, op, value } => {
            let value = match (op, value) {
                (CmpOp::Like, Lit::Str(pattern)) => format!("'{pattern}'"),
                (CmpOp::Like, Lit::Int(i)) => format!("'{i}'"),
                (_, Lit::Int(i)) => i.to_string(),
                (_, Lit::Str(s)) => format!("'{}'", s.replace('\'', "''")),
            };
            let op = if *op == CmpOp::Like {
                "LIKE"
            } else {
                op.text()
            };
            format!("{alias}.{} {op} {value}", field.name())
        }
        Cond::And(legs) => join_sql(legs, alias, " AND "),
        Cond::Or(legs) => join_sql(legs, alias, " OR "),
    }
}

/// `legs` as parenthesized SQL joined by `joiner`.
fn join_sql(legs: &[Cond], alias: &str, joiner: &str) -> String {
    legs.iter()
        .map(|leg| format!("({})", sql(leg, alias)))
        .collect::<Vec<_>>()
        .join(joiner)
}

/// `n` in decimal, written into the tail of `buf`.
fn decimal(n: i64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        buf[at] = b'-';
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
    use threatraptor_audit::entity::{EntityId, Field, FileEntity, NetworkEntity, ProcessEntity};

    fn cmp(field: Field, op: CmpOp, value: Lit) -> Cond {
        Cond::Cmp { field, op, value }
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

    fn filter(kind: EntityKind, filters: &[Cond]) -> EntityFilter {
        EntityFilter {
            kind,
            filters: filters.to_vec(),
        }
    }

    /// Whether the filters `conds` on a process variable admit `entity`.
    fn admits(conds: &[Cond], entity: &Entity) -> bool {
        filter(EntityKind::Process, conds).matches(entity)
    }

    #[test]
    fn cmp_eval() {
        let (sh, tar) = (
            process(100, "/bin/sh", "root"),
            process(5000, "/bin/tar", "www"),
        );
        let root = [cmp(Field::Owner, CmpOp::Eq, Lit::Str("root".into()))];
        assert!(admits(&root, &sh) && !admits(&root, &tar));
        let big = [cmp(Field::Pid, CmpOp::Gt, Lit::Int(1000))];
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
        let both = [Cond::And(vec![
            cmp(Field::Owner, CmpOp::Eq, Lit::Str("www".into())),
            cmp(Field::Pid, CmpOp::Ge, Lit::Int(5000)),
        ])];
        assert!(!admits(&both, &sh) && admits(&both, &tar));
        let either = [Cond::Or(vec![
            cmp(Field::Owner, CmpOp::Eq, Lit::Str("root".into())),
            cmp(Field::Owner, CmpOp::Eq, Lit::Str("www".into())),
        ])];
        assert!(admits(&either, &sh) && admits(&either, &tar));
        let not_sh = [cmp(Field::Exename, CmpOp::Ne, Lit::Str("/bin/sh".into()))];
        assert!(!admits(&not_sh, &sh) && admits(&not_sh, &tar));
    }

    /// Zero filters are `TRUE`, one is itself, more are a conjunction.
    #[test]
    fn and_simplification() {
        let passwd = Entity::File(FileEntity {
            id: EntityId(1),
            name: "/etc/passwd".into(),
        });
        let eq = cmp(Field::Name, CmpOp::Eq, Lit::Str("/etc/passwd".into()));
        let ne = cmp(Field::Name, CmpOp::Ne, Lit::Str("/etc/passwd".into()));
        let file = |conds: &[Cond]| filter(EntityKind::File, conds);
        assert!(file(&[]).matches(&passwd));
        assert_eq!(file(&[]).to_sql("f"), "TRUE");
        assert!(file(std::slice::from_ref(&eq)).matches(&passwd));
        assert_eq!(
            file(std::slice::from_ref(&eq)).to_sql("f"),
            "f.name = '/etc/passwd'"
        );
        assert!(!file(&[eq.clone(), ne]).matches(&passwd));
        assert_eq!(
            file(&[eq.clone(), eq]).to_sql("f"),
            "(f.name = '/etc/passwd') AND (f.name = '/etc/passwd')"
        );
    }

    #[test]
    fn like_on_int_column_coerces() {
        let (sh, tar) = (
            process(100, "/bin/sh", "root"),
            process(5000, "/bin/tar", "www"),
        );
        let fifty = [cmp(Field::Pid, CmpOp::Like, Lit::Str("50%".into()))];
        assert!(admits(&fifty, &tar) && !admits(&fifty, &sh));
        // An integer pattern reads as its text.
        let hundred = [cmp(Field::Pid, CmpOp::Like, Lit::Int(100))];
        assert!(admits(&hundred, &sh) && !admits(&hundred, &tar));
        let shell = [cmp(Field::Exename, CmpOp::Like, Lit::Int(-1))];
        assert!(!admits(&shell, &sh));
        assert_eq!(decimal(0, &mut [0; 20]), "0");
        assert_eq!(decimal(u32::MAX.into(), &mut [0; 20]), "4294967295");
        assert_eq!(decimal(-7, &mut [0; 20]), "-7");
        assert_eq!(decimal(i64::MIN, &mut [0; 20]), i64::MIN.to_string());
        assert_eq!(decimal(i64::MAX, &mut [0; 20]), i64::MAX.to_string());
    }

    /// An integer sorts below any string, whichever side holds it.
    #[test]
    fn value_ordering() {
        let sh = process(100, "/bin/sh", "root");
        let holds = |field, op, value| admits(&[cmp(field, op, value)], &sh);
        assert!(holds(Field::Pid, CmpOp::Lt, Lit::Int(101)));
        assert!(holds(Field::Owner, CmpOp::Lt, Lit::Str("www".into())));
        assert!(holds(Field::Owner, CmpOp::Gt, Lit::Int(42)));
        assert!(holds(Field::Owner, CmpOp::Gt, Lit::Int(i64::MAX)));
        assert!(holds(Field::Pid, CmpOp::Lt, Lit::Str("x".into())));
        assert!(holds(Field::Pid, CmpOp::Lt, Lit::Str(String::new())));
        assert!(!holds(Field::Pid, CmpOp::Eq, Lit::Str("100".into())));
    }

    /// EXPLAIN's filter text: `TRUE`, parenthesized legs, doubled `'`.
    #[test]
    fn sql_rendering() {
        let sql = |kind, conds: &[Cond]| filter(kind, conds).to_sql("v");
        assert_eq!(sql(EntityKind::Network, &[]), "TRUE");
        let compound = [
            cmp(Field::Owner, CmpOp::Eq, Lit::Str("root".into())),
            Cond::Or(vec![
                cmp(Field::Exename, CmpOp::Like, Lit::Str("%/bin/tar%".into())),
                cmp(Field::Pid, CmpOp::Ge, Lit::Int(10)),
            ]),
        ];
        assert_eq!(
            sql(EntityKind::Process, &compound),
            "(v.owner = 'root') AND ((v.exename LIKE '%/bin/tar%') OR (v.pid >= 10))"
        );
        let quoted = [cmp(Field::Name, CmpOp::Ne, Lit::Str("o'brien".into()))];
        assert_eq!(sql(EntityKind::File, &quoted), "v.name != 'o''brien'");
        let port = [cmp(Field::DstPort, CmpOp::Like, Lit::Int(44))];
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

    /// Fields per kind, all ten.
    const ATTRS: [(EntityKind, &[Field]); 3] = [
        (
            EntityKind::Process,
            &[Field::Pid, Field::Exename, Field::Cmdline, Field::Owner],
        ),
        (EntityKind::File, &[Field::Name]),
        (
            EntityKind::Network,
            &[
                Field::SrcIp,
                Field::SrcPort,
                Field::DstIp,
                Field::DstPort,
                Field::Protocol,
            ],
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

    /// Whether the typed filter and the reference agree on `conds` (the
    /// filters of a variable of `kind`) for every entity in `entities`.
    fn agree(kind: EntityKind, conds: &[Cond], entities: &[Entity]) -> Result<(), String> {
        let filter = filter(kind, conds);
        for entity in entities {
            let want = entity.kind() == kind && conds.iter().all(|c| holds(c, entity));
            if filter.matches(entity) != want {
                return Err(format!("{conds:?} on {entity:?}: reference says {want}"));
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
        for (kind, fields) in ATTRS {
            for &field in fields {
                for op in OPS {
                    for lit in literals() {
                        agree(kind, &[cmp(field, op, lit)], &entities).unwrap();
                        leaves += 1;
                    }
                }
            }
        }
        assert_eq!(leaves, 10 * 7 * literals().len());
    }

    /// `tree` builds an `And`/`Or` tree over `leaves`: 2 or 3 legs per
    /// node and the connective picked by the next bits of `shape`.
    fn tree(leaves: &[Cond], shape: &mut u64) -> Cond {
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
            Cond::And(legs)
        } else {
            Cond::Or(legs)
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
            let (kind, fields) = ATTRS[kind];
            let lits = literals();
            let leaves: Vec<Cond> = raw
                .iter()
                .map(|&(a, op, l)| {
                    let field = fields[usize::from(a) % fields.len()];
                    cmp(field, OPS[op], lits[usize::from(l) % lits.len()].clone())
                })
                .collect();
            let mut shape = shape;
            // The merged filters of a variable mentioned twice.
            let conds = match split % leaves.len() {
                0 => vec![tree(&leaves, &mut shape)],
                at => vec![tree(&leaves[..at], &mut shape), tree(&leaves[at..], &mut shape)],
            };
            let entities: Vec<Entity> = spec
                .iter()
                .enumerate()
                .map(|(id, &(kind, attr))| entity(id, kind, attr))
                .collect();
            prop_assert_eq!(agree(kind, &conds, &entities), Ok(()));
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
