//! A reference evaluator of TBQL: the test oracle the executors are
//! judged against.
//!
//! It is written to be obviously right rather than fast, and shares no
//! code with what it judges: no compiled plan, schedule, hash join, id
//! set, postings, entity catalog or relational table. It reads plain
//! `&[Entity]` (indexed by [`EntityId`]) and `&[Event]` (position =
//! index) and evaluates an [`AnalyzedQuery`] with nested loops over the
//! patterns in declaration order. Like [`crate::baseline`], it is reached
//! only by tests; no production entry point calls it.
//!
//! Semantics:
//!
//! * An entity binds a variable when it has the variable's type and
//!   satisfies every filter on it, evaluated on [`Entity::attr`]: `like`
//!   is SQL `LIKE` (`%` any run of characters, `_` one character); the
//!   other comparisons compare `pid`, `srcport` and `dstport` as
//!   integers and every other attribute as a string, an integer
//!   ordering before any string.
//! * An event witnesses an event pattern when its operation is one of
//!   the pattern's, its endpoints bind the pattern's variables, and it
//!   lies in the pattern's window: `start ≥ lo ∧ end ≤ hi`.
//! * A path witnesses a path pattern when its first hop leaves a source
//!   the subject variable binds; each later hop leaves the previous hop's
//!   object and has `start ≥` the previous hop's `end`; no event repeats;
//!   every hop lies in the window; and it has at least `min` hops, its
//!   last hop has the pattern's final operation, and its last object
//!   binds the object variable. Expansion continues past a witness, up to
//!   `max` hops (`min` defaults to 1, `max` to `max(min, 4)`). There is no
//!   cap on the number of paths. A path's time span is its first hop's
//!   start to its last hop's end.
//! * A match picks one witness per pattern such that every variable binds
//!   one entity (so same-variable endpoints bind the same entity, within
//!   a pattern and across patterns) and every `a before b` pair holds:
//!   `a.end < b.start`.
//! * A row renders each returned `(variable, attribute)` of a match,
//!   `<none>` for an attribute the entity lacks. `distinct` rows are
//!   deduplicated and sorted; other rows come one per match.

use crate::result::{HuntResult, HuntStats, Match};
use std::cmp::Ordering;
use std::collections::HashMap;
use threatraptor_audit::entity::{Entity, EntityId};
use threatraptor_audit::event::Event;
use threatraptor_tbql::analyze::{AnalyzedQuery, Cond};
use threatraptor_tbql::ast::{CmpOp, Lit, PathPattern, Pattern, TimeWindow};

/// One way to witness a pattern: its endpoints, its events' positions
/// and its time span.
#[derive(Debug)]
struct Witness {
    subject: EntityId,
    object: EntityId,
    events: Vec<usize>,
    start: u64,
    end: u64,
}

/// Evaluates `aq` over `entities` and `events`: every match, and the
/// projected rows (see the module docs). Only `columns`, `rows` and
/// `matches` of the result are filled in.
pub fn evaluate(entities: &[Entity], events: &[Event], aq: &AnalyzedQuery) -> HuntResult {
    let binds = |var: &str, id: EntityId| {
        let info = &aq.entities[var];
        let entity = &entities[id.index()];
        entity.kind() == info.ty && info.filters.iter().all(|f| holds(f, entity))
    };
    let patterns = &aq.query.patterns;
    let witnesses: Vec<Vec<Witness>> = patterns
        .iter()
        .map(|pattern| match pattern {
            Pattern::Event(p) => events
                .iter()
                .enumerate()
                .filter(|(_, ev)| {
                    p.ops.iter().any(|op| op == ev.op.name())
                        && in_window(p.window, ev)
                        && binds(&p.subject.id, ev.subject)
                        && binds(&p.object.id, ev.object)
                })
                .map(|(pos, ev)| Witness {
                    subject: ev.subject,
                    object: ev.object,
                    events: vec![pos],
                    start: ev.start,
                    end: ev.end,
                })
                .collect(),
            Pattern::Path(p) => {
                let mut out = Vec::new();
                for source in (0..entities.len() as u32).map(EntityId) {
                    if binds(&p.subject.id, source) {
                        walk(
                            events,
                            p,
                            &|id| binds(&p.object.id, id),
                            &mut Vec::new(),
                            source,
                            &mut out,
                        );
                    }
                }
                out
            }
        })
        .collect();

    // Nested loops in declaration order: extend every partial match by
    // every witness of the next pattern, keeping the consistent ones.
    let mut partial: Vec<(HashMap<&str, EntityId>, Vec<&Witness>)> =
        vec![(HashMap::new(), Vec::new())];
    for (i, pattern) in patterns.iter().enumerate() {
        let (s, o) = (pattern.subject().id.as_str(), pattern.object().id.as_str());
        let mut next = Vec::new();
        for (bound, chosen) in &partial {
            for w in &witnesses[i] {
                let binds_as_before =
                    |var: &str, id: EntityId| bound.get(var).is_none_or(|&b| b == id);
                if (s == o && w.subject != w.object)
                    || !binds_as_before(s, w.subject)
                    || !binds_as_before(o, w.object)
                {
                    continue;
                }
                let mut chosen = chosen.clone();
                chosen.push(w);
                // The `before` pairs whose later pattern is this one.
                if aq
                    .before
                    .iter()
                    .filter(|&&(a, b)| a.max(b) == i)
                    .all(|&(a, b)| chosen[a].end < chosen[b].start)
                {
                    let mut bound = bound.clone();
                    bound.insert(s, w.subject);
                    bound.insert(o, w.object);
                    next.push((bound, chosen));
                }
            }
        }
        partial = next;
    }

    let matches: Vec<Match> = partial
        .iter()
        .map(|(bound, chosen)| Match {
            bindings: bound
                .iter()
                .map(|(var, &id)| (var.to_string(), id))
                .collect(),
            events: chosen
                .iter()
                .zip(&aq.pattern_ids)
                .map(|(w, id)| (id.clone(), w.events.clone()))
                .collect(),
            times: chosen
                .iter()
                .zip(&aq.pattern_ids)
                .map(|(w, id)| (id.clone(), (w.start, w.end)))
                .collect(),
        })
        .collect();
    let mut rows: Vec<Vec<String>> = matches
        .iter()
        .map(|m| {
            aq.returns
                .iter()
                .map(|(var, field)| {
                    entities[m.bindings[var].index()]
                        .attr(field.name())
                        .unwrap_or_else(|| "<none>".into())
                })
                .collect()
        })
        .collect();
    if aq.distinct {
        rows.sort();
        rows.dedup();
    }
    HuntResult {
        columns: aq
            .returns
            .iter()
            .map(|(var, field)| format!("{var}.{}", field.name()))
            .collect(),
        rows,
        matches,
        stats: HuntStats::default(),
    }
}

/// Extends the path `hops` (leaving `node`) by one more hop in every way
/// the path semantics allow, recording each extension that witnesses the
/// pattern and recursing up to the maximum length.
fn walk(
    events: &[Event],
    p: &PathPattern,
    is_destination: &dyn Fn(EntityId) -> bool,
    hops: &mut Vec<usize>,
    node: EntityId,
    out: &mut Vec<Witness>,
) {
    let min = p.min_hops.unwrap_or(1);
    let max = p.max_hops.unwrap_or(min.max(4));
    if hops.len() as u32 >= max {
        return;
    }
    for (pos, ev) in events.iter().enumerate() {
        if ev.subject != node
            || hops.contains(&pos)
            || hops.last().is_some_and(|&prev| ev.start < events[prev].end)
            || !in_window(p.window, ev)
        {
            continue;
        }
        hops.push(pos);
        if hops.len() as u32 >= min && ev.op.name() == p.last_op && is_destination(ev.object) {
            let first = &events[hops[0]];
            out.push(Witness {
                subject: first.subject,
                object: ev.object,
                events: hops.clone(),
                start: first.start,
                end: ev.end,
            });
        }
        walk(events, p, is_destination, hops, ev.object, out);
        hops.pop();
    }
}

fn in_window(window: Option<TimeWindow>, ev: &Event) -> bool {
    window.is_none_or(|w| ev.start >= w.lo && ev.end <= w.hi)
}

/// Whether `entity` satisfies the filter `cond`.
pub(crate) fn holds(cond: &Cond, entity: &Entity) -> bool {
    let (attr, op, value) = match cond {
        Cond::And(legs) => return legs.iter().all(|leg| holds(leg, entity)),
        Cond::Or(legs) => return legs.iter().any(|leg| holds(leg, entity)),
        Cond::Cmp { field, op, value } => (field.name(), *op, value),
    };
    let Some(text) = entity.attr(attr) else {
        return false;
    };
    if op == CmpOp::Like {
        return match value {
            Lit::Str(pattern) => like(pattern, &text),
            Lit::Int(i) => like(&i.to_string(), &text),
        };
    }
    let numeric = ["pid", "srcport", "dstport"].contains(&attr);
    let order = match (numeric, value) {
        (true, Lit::Int(i)) => text.parse::<i64>().expect("a numeric attribute").cmp(i),
        (true, Lit::Str(_)) => Ordering::Less,
        (false, Lit::Int(_)) => Ordering::Greater,
        (false, Lit::Str(s)) => text.as_str().cmp(s),
    };
    match op {
        CmpOp::Eq => order.is_eq(),
        CmpOp::Ne => order.is_ne(),
        CmpOp::Lt => order.is_lt(),
        CmpOp::Le => order.is_le(),
        CmpOp::Gt => order.is_gt(),
        CmpOp::Ge => order.is_ge(),
        CmpOp::Like => unreachable!("handled above"),
    }
}

/// SQL `LIKE` by dynamic programming over characters: `ok[j]` says the
/// pattern read so far matches the first `j` characters of the text.
pub(crate) fn like(pattern: &str, text: &str) -> bool {
    let text: Vec<char> = text.chars().collect();
    let mut ok = vec![false; text.len() + 1];
    ok[0] = true;
    for c in pattern.chars() {
        if c == '%' {
            for j in 1..=text.len() {
                ok[j] = ok[j] || ok[j - 1];
            }
        } else {
            for j in (1..=text.len()).rev() {
                ok[j] = ok[j - 1] && (c == '_' || c == text[j - 1]);
            }
            ok[0] = false;
        }
    }
    ok[text.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_follows_sql() {
        assert!(like("%/bin/tar%", "/usr/bin/tar"));
        assert!(like("a%b%c", "aXXbYYc"));
        assert!(!like("a%b%c", "aXXbYY"));
        assert!(like("_at", "cat") && !like("_at", "at"));
        assert!(like("c_t", "c猫t"));
        assert!(like("%", "") && like("", "") && !like("", "x"));
    }
}
