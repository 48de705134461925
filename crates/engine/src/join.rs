//! Slot-compiled partial matches and the order-preserving hash join.
//!
//! A partial match is a flat tuple over the query's slots
//! ([`crate::compile`]): one entity id per variable, one `(start, end)`
//! per pattern, and the witnessing event positions per pattern at a fixed
//! offset. [`Tuples`] stores a batch of them column-group-wise in three
//! vectors, so a join step emits a match with three `memcpy`s and no
//! hashing of names. Which slots are bound is a property of the *stage*
//! (every tuple after step `k` binds exactly the patterns of steps
//! `0..=k`), so [`Schedule`] precomputes per step which of the joined
//! pattern's variables are already bound — the hash-join key — and which
//! `before` pairs become decidable there.
//!
//! [`join_rows`] builds a chained hash table over the fetched rows keyed
//! by the bound variables, probes it once per partial tuple in tuple
//! order, and walks each chain in row order: the output order is exactly
//! that of the nested loop `for partial { for row { … } }` it replaces,
//! which is what lets [`crate::delta`] reproduce a full execution's match
//! order and keeps every parity test byte-identical. No bound variable
//! means an empty key and a single chain — the cross product through the
//! same code.

use crate::compile::{CompiledPattern, CompiledQuery};
use crate::idset::IdSet;
use crate::result::Match;
use std::collections::HashMap;
use threatraptor_audit::entity::EntityId;

/// Entity slot of a tuple that no executed pattern has bound yet.
const UNBOUND: EntityId = EntityId(u32::MAX);
/// Padding of an unbound (or shorter-than-maximal path) witness slot.
const NO_POS: usize = usize::MAX;
/// End of a hash chain.
const END: usize = usize::MAX;

/// Witnessing event positions of one data-query row: one for an event
/// pattern, one per hop for a path pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Witness {
    Event(usize),
    Path(Box<[usize]>),
}

impl Witness {
    pub(crate) fn positions(&self) -> &[usize] {
        match self {
            Witness::Event(pos) => std::slice::from_ref(pos),
            Witness::Path(hops) => hops,
        }
    }

    pub(crate) fn positions_mut(&mut self) -> &mut [usize] {
        match self {
            Witness::Event(pos) => std::slice::from_mut(pos),
            Witness::Path(hops) => hops,
        }
    }

    /// Position of the first hop (rows sort by it).
    pub(crate) fn first(&self) -> usize {
        self.positions()[0]
    }
}

/// One pattern's data-query output row. Event positions are global: the
/// sharded executor translates shard-local rows before joining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PatternRow {
    pub(crate) subject: EntityId,
    pub(crate) object: EntityId,
    pub(crate) events: Witness,
    pub(crate) start: u64,
    pub(crate) end: u64,
}

/// Entity ids already bound to a pattern's `[subject, object]` variables
/// by earlier patterns — constraint propagation's filter pushdown.
pub(crate) type Bound = [Option<IdSet>; 2];

/// Tuple strides of one compiled query.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    vars: usize,
    pats: usize,
    /// Witness offset of each pattern slot, plus the total width.
    wit_off: Vec<usize>,
}

impl Layout {
    fn new(cq: &CompiledQuery) -> Layout {
        let mut wit_off = vec![0];
        for pat in &cq.patterns {
            let width = pat.shape.hops().1 as usize;
            wit_off.push(wit_off[wit_off.len() - 1] + width);
        }
        Layout {
            vars: cq.vars.len(),
            pats: cq.patterns.len(),
            wit_off,
        }
    }

    fn wit_width(&self) -> usize {
        self.wit_off[self.pats]
    }

    fn wit_range(&self, pat: usize) -> std::ops::Range<usize> {
        self.wit_off[pat]..self.wit_off[pat + 1]
    }
}

/// One step of the execution schedule.
#[derive(Debug, Clone)]
pub(crate) struct JoinStep {
    /// The pattern joined at this step (index into `cq.patterns`, which
    /// is also its slot).
    pub(crate) pat: usize,
    /// Whether the pattern's subject variable is bound by an earlier step.
    key_subject: bool,
    /// Whether its object variable is.
    key_object: bool,
    /// The `before` pairs `(a, b)` — meaning `a.end < b.start` — that
    /// mention this pattern and whose other side is already bound.
    /// `None` is the row being joined, `Some(slot)` a bound pattern.
    checks: Vec<(Option<usize>, Option<usize>)>,
}

impl JoinStep {
    /// EXPLAIN label of the join key: `seed` for the first pattern (there
    /// is nothing to join against), `hash(p)` / `hash(p,f)` for the bound
    /// variables, `cross` when none is shared.
    pub(crate) fn key_label(&self, cq: &CompiledQuery, first: bool) -> String {
        let pat = &cq.patterns[self.pat];
        let mut vars = Vec::new();
        if self.key_subject {
            vars.push(pat.subject_var.as_str());
        }
        if self.key_object && !(self.key_subject && pat.subject_slot == pat.object_slot) {
            vars.push(pat.object_var.as_str());
        }
        match (first, vars.is_empty()) {
            (true, _) => "seed".to_string(),
            (false, true) => "cross".to_string(),
            (false, false) => format!("hash({})", vars.join(",")),
        }
    }

    /// Pattern slots `b` with `this before b` already bound when this
    /// step runs: each caps how late a row of this pattern may still end.
    pub(crate) fn must_precede(&self) -> impl Iterator<Item = usize> + '_ {
        self.checks.iter().filter_map(|&(a, b)| match (a, b) {
            (None, Some(b)) => Some(b),
            _ => None,
        })
    }
}

/// The execution order of a compiled query, with each step's join plan —
/// the one place the order is decided (the full executor, the delta
/// executor and EXPLAIN all read it).
#[derive(Debug, Clone)]
pub(crate) struct Schedule {
    pub(crate) steps: Vec<JoinStep>,
    pub(crate) layout: Layout,
    /// Whether each step's scan is narrowed to the ids earlier steps
    /// bound (constraint propagation). Off only for [`Schedule::declared`].
    pub(crate) propagate: bool,
}

impl Schedule {
    /// The paper's schedule: pruning-score order (ties by declaration),
    /// with constraint propagation.
    pub(crate) fn new(cq: &CompiledQuery) -> Schedule {
        let mut order: Vec<usize> = (0..cq.patterns.len()).collect();
        order.sort_by_key(|&i| {
            (
                std::cmp::Reverse(cq.patterns[i].score),
                cq.patterns[i].decl_index,
            )
        });
        Schedule::in_order(cq, order, true)
    }

    /// Declaration order without propagation: every pattern runs with
    /// only its own filters (the baselines' schedule).
    pub(crate) fn declared(cq: &CompiledQuery) -> Schedule {
        Schedule::in_order(cq, (0..cq.patterns.len()).collect(), false)
    }

    fn in_order(cq: &CompiledQuery, order: Vec<usize>, propagate: bool) -> Schedule {
        let mut var_bound = vec![false; cq.vars.len()];
        let mut pat_bound = vec![false; cq.patterns.len()];
        let steps = order
            .into_iter()
            .map(|pi| {
                let pat = &cq.patterns[pi];
                let side = |slot: usize| {
                    if slot == pi {
                        Some(None)
                    } else {
                        pat_bound[slot].then_some(Some(slot))
                    }
                };
                let checks = cq
                    .before_slots
                    .iter()
                    .filter(|&&(a, b)| a == pi || b == pi)
                    .filter_map(|&(a, b)| Some((side(a)?, side(b)?)))
                    .collect();
                let step = JoinStep {
                    pat: pi,
                    key_subject: var_bound[pat.subject_slot],
                    key_object: var_bound[pat.object_slot],
                    checks,
                };
                var_bound[pat.subject_slot] = true;
                var_bound[pat.object_slot] = true;
                pat_bound[pi] = true;
                step
            })
            .collect();
        Schedule {
            steps,
            layout: Layout::new(cq),
            propagate,
        }
    }
}

/// A batch of partial matches as flat slot tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Tuples {
    len: usize,
    /// Strides of the three vectors.
    vars: usize,
    pats: usize,
    wit_width: usize,
    ents: Vec<EntityId>,
    times: Vec<(u64, u64)>,
    wits: Vec<usize>,
}

impl Tuples {
    pub(crate) fn new(layout: &Layout) -> Tuples {
        Tuples {
            len: 0,
            vars: layout.vars,
            pats: layout.pats,
            wit_width: layout.wit_width(),
            ents: Vec::new(),
            times: Vec::new(),
            wits: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entity bound to variable `slot` in tuple `i`.
    pub(crate) fn ent(&self, i: usize, slot: usize) -> EntityId {
        self.ents[i * self.vars + slot]
    }

    /// `(start, end)` of pattern `pat`'s witness in tuple `i`.
    pub(crate) fn time(&self, i: usize, pat: usize) -> (u64, u64) {
        self.times[i * self.pats + pat]
    }

    /// Witness positions of pattern `pat` in tuple `i`.
    pub(crate) fn witness(&self, layout: &Layout, i: usize, pat: usize) -> &[usize] {
        let range = layout.wit_range(pat);
        let slots = &self.wits[i * self.wit_width + range.start..i * self.wit_width + range.end];
        let hops = slots.iter().position(|&p| p == NO_POS);
        &slots[..hops.unwrap_or(slots.len())]
    }

    /// Largest event position witnessing tuple `i`.
    pub(crate) fn max_pos(&self, i: usize) -> usize {
        self.wits[i * self.wit_width..(i + 1) * self.wit_width]
            .iter()
            .copied()
            .filter(|&p| p != NO_POS)
            .max()
            .unwrap_or(0)
    }

    /// Appends a copy of `other`'s tuple `i`.
    pub(crate) fn push_from(&mut self, other: &Tuples, i: usize) {
        self.ents
            .extend_from_slice(&other.ents[i * other.vars..(i + 1) * other.vars]);
        self.times
            .extend_from_slice(&other.times[i * other.pats..(i + 1) * other.pats]);
        self.wits
            .extend_from_slice(&other.wits[i * other.wit_width..(i + 1) * other.wit_width]);
        self.len += 1;
    }

    /// Appends a tuple with every slot unbound.
    fn push_unbound(&mut self) {
        self.ents.resize(self.ents.len() + self.vars, UNBOUND);
        self.times.resize(self.times.len() + self.pats, (0, 0));
        self.wits.resize(self.wits.len() + self.wit_width, NO_POS);
        self.len += 1;
    }

    /// Binds pattern `pat`'s slots of the last tuple to `row`.
    fn bind_last(&mut self, layout: &Layout, pat: &CompiledPattern, row: &PatternRow) {
        let i = self.len - 1;
        self.ents[i * self.vars + pat.subject_slot] = row.subject;
        self.ents[i * self.vars + pat.object_slot] = row.object;
        self.times[i * self.pats + pat.decl_index] = (row.start, row.end);
        let at = i * self.wit_width + layout.wit_off[pat.decl_index];
        let hops = row.events.positions();
        self.wits[at..at + hops.len()].copy_from_slice(hops);
    }

    /// Moves every tuple of `other` to the end of `self`.
    pub(crate) fn append(&mut self, mut other: Tuples) {
        self.ents.append(&mut other.ents);
        self.times.append(&mut other.times);
        self.wits.append(&mut other.wits);
        self.len += other.len;
    }

    /// A batch holding the tuples `picks`, in that order.
    pub(crate) fn select(&self, picks: impl IntoIterator<Item = usize>) -> Tuples {
        let mut out = Tuples {
            len: 0,
            ents: Vec::new(),
            times: Vec::new(),
            wits: Vec::new(),
            ..*self
        };
        for i in picks {
            out.push_from(self, i);
        }
        out
    }

    /// Keeps the tuples `keep(self, i)` accepts, compacting in place
    /// (nothing moves when nothing is dropped).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Tuples, usize) -> bool) {
        let (vars, pats, wit_width) = (self.vars, self.pats, self.wit_width);
        let mut kept = 0;
        for i in 0..self.len {
            if !keep(self, i) {
                continue;
            }
            if kept != i {
                self.ents.copy_within(i * vars..(i + 1) * vars, kept * vars);
                self.times
                    .copy_within(i * pats..(i + 1) * pats, kept * pats);
                self.wits
                    .copy_within(i * wit_width..(i + 1) * wit_width, kept * wit_width);
            }
            kept += 1;
        }
        self.len = kept;
        self.ents.truncate(kept * vars);
        self.times.truncate(kept * pats);
        self.wits.truncate(kept * wit_width);
    }

    /// Removes all tuples, keeping the strides.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.ents.clear();
        self.times.clear();
        self.wits.clear();
    }

    /// Distinct entity ids bound to variable `slot` across the batch.
    fn column(&self, slot: usize) -> IdSet {
        (0..self.len)
            .map(|i| self.ent(i, slot))
            .filter(|&e| e != UNBOUND)
            .collect()
    }

    /// Orders tuples `a` and `b` by their witness positions, pattern by
    /// pattern in schedule order — the order the nested-loop join emits
    /// matches in (each stage's rows are sorted by witness position).
    pub(crate) fn cmp_by_witness(
        &self,
        schedule: &Schedule,
        a: usize,
        b: usize,
    ) -> std::cmp::Ordering {
        schedule
            .steps
            .iter()
            .map(|step| {
                self.witness(&schedule.layout, a, step.pat)
                    .cmp(self.witness(&schedule.layout, b, step.pat))
            })
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    }

    /// Materializes the public, name-keyed form of every tuple. Only
    /// complete matches are delivered, so this runs once per match.
    ///
    /// Every tuple of a batch binds the same variables and patterns, so
    /// after the first match each further one is a clone of its
    /// predecessor with the values overwritten in place: cloning a map
    /// copies its table without rehashing the name keys, which building
    /// three maps per match from scratch would do for every entry.
    pub(crate) fn to_matches(&self, cq: &CompiledQuery, layout: &Layout) -> Vec<Match> {
        let mut out: Vec<Match> = Vec::with_capacity(self.len);
        for i in 0..self.len {
            let m = match out.last() {
                Some(prev) => self.rebind(prev.clone(), cq, layout, i),
                None => self.to_match(cq, layout, i),
            };
            out.push(m);
        }
        out
    }

    fn to_match(&self, cq: &CompiledQuery, layout: &Layout, i: usize) -> Match {
        let mut m = Match {
            bindings: HashMap::with_capacity(self.vars),
            events: HashMap::with_capacity(self.pats),
            times: HashMap::with_capacity(self.pats),
        };
        for (slot, var) in cq.vars.iter().enumerate() {
            let e = self.ent(i, slot);
            if e != UNBOUND {
                m.bindings.insert(var.clone(), e);
            }
        }
        for pat in &cq.patterns {
            let hops = self.witness(layout, i, pat.decl_index);
            if !hops.is_empty() {
                m.events.insert(pat.id.clone(), hops.to_vec());
                m.times.insert(pat.id.clone(), self.time(i, pat.decl_index));
            }
        }
        m
    }

    /// Overwrites every value of `m` (a match of this batch) with tuple
    /// `i`'s.
    fn rebind(&self, mut m: Match, cq: &CompiledQuery, layout: &Layout, i: usize) -> Match {
        let var_slot = |var: &String| cq.vars.binary_search(var).expect("a query variable");
        let pat_slot = |id: &String| {
            cq.patterns
                .iter()
                .position(|p| &p.id == id)
                .expect("a query pattern")
        };
        for (var, e) in &mut m.bindings {
            *e = self.ent(i, var_slot(var));
        }
        for (id, hops) in &mut m.events {
            hops.clear();
            hops.extend_from_slice(self.witness(layout, i, pat_slot(id)));
        }
        for (id, time) in &mut m.times {
            *time = self.time(i, pat_slot(id));
        }
        m
    }
}

/// Constraint propagation: the distinct ids `partial` binds to `pat`'s
/// subject and object variables, recording `(variable, ids pushed down)`
/// for each constrained variable.
pub(crate) fn propagate(
    pat: &CompiledPattern,
    partial: &Tuples,
    propagated: &mut Vec<(String, usize)>,
) -> Bound {
    [
        (&pat.subject_var, pat.subject_slot),
        (&pat.object_var, pat.object_slot),
    ]
    .map(|(var, slot)| {
        let ids = partial.column(slot);
        (!ids.is_empty()).then(|| {
            propagated.push((var.clone(), ids.len()));
            ids
        })
    })
}

/// Joins a pattern's rows into the partial match set, enforcing
/// shared-entity equality and the temporal constraints that become
/// decidable at this step. `None` seeds the set from the rows alone.
/// Output order: partial tuples in order, and per tuple its matching
/// rows in row order.
pub(crate) fn join_rows(
    layout: &Layout,
    partial: Option<&Tuples>,
    rows: &[PatternRow],
    pat: &CompiledPattern,
    step: &JoinStep,
) -> Tuples {
    let same_var = pat.subject_slot == pat.object_slot;
    let live = |r: &PatternRow| !same_var || r.subject == r.object;
    let mut out = Tuples::new(layout);
    let Some(partial) = partial else {
        for r in rows.iter().filter(|r| live(r)) {
            out.push_unbound();
            out.bind_last(layout, pat, r);
        }
        return out;
    };

    // Unkeyed components are 0 on both sides; entity ids are 32-bit.
    let key = |subject: EntityId, object: EntityId| {
        let s = if step.key_subject { subject.0 } else { 0 };
        let o = if step.key_object { object.0 } else { 0 };
        u64::from(s) << 32 | u64::from(o)
    };
    // Build: one chain of row indices per key. Inserting back to front
    // makes every chain run in ascending row order.
    let mut head: HashMap<u64, usize> = HashMap::new();
    let mut next = vec![END; rows.len()];
    for (ri, r) in rows.iter().enumerate().rev() {
        if live(r) {
            next[ri] = head.insert(key(r.subject, r.object), ri).unwrap_or(END);
        }
    }
    // Probe, in partial order.
    for i in 0..partial.len() {
        let k = key(
            partial.ent(i, pat.subject_slot),
            partial.ent(i, pat.object_slot),
        );
        let mut ri = head.get(&k).copied().unwrap_or(END);
        while ri != END {
            let r = &rows[ri];
            let time = |side: Option<usize>| side.map_or((r.start, r.end), |p| partial.time(i, p));
            if step.checks.iter().all(|&(a, b)| time(a).1 < time(b).0) {
                out.push_from(partial, i);
                out.bind_last(layout, pat, r);
            }
            ri = next[ri];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use proptest::prelude::*;
    use threatraptor_tbql::analyze::analyze;
    use threatraptor_tbql::parser::parse_query;

    fn compiled(tbql: &str) -> CompiledQuery {
        compile(&analyze(&parse_query(tbql).unwrap()).unwrap()).unwrap()
    }

    /// The nested-loop join the hash join replaced, kept as the oracle:
    /// every partial × every row, every bound variable compared, every
    /// `before` pair of the query evaluated (undecidable ones pass).
    /// Boundness is read off the tuple itself, not off the join plan.
    fn nested_loop_join(
        cq: &CompiledQuery,
        layout: &Layout,
        partial: Option<&Tuples>,
        rows: &[PatternRow],
        pat: &CompiledPattern,
    ) -> Tuples {
        let same_var = pat.subject_var == pat.object_var;
        let rows: Vec<&PatternRow> = rows
            .iter()
            .filter(|r| !same_var || r.subject == r.object)
            .collect();
        let mut out = Tuples::new(layout);
        let Some(partial) = partial else {
            for r in rows {
                out.push_unbound();
                out.bind_last(layout, pat, r);
            }
            return out;
        };
        for i in 0..partial.len() {
            for r in &rows {
                let bound = |slot: usize| {
                    let e = partial.ent(i, slot);
                    (e != UNBOUND).then_some(e)
                };
                if bound(pat.subject_slot).is_some_and(|b| b != r.subject)
                    || bound(pat.object_slot).is_some_and(|b| b != r.object)
                {
                    continue;
                }
                let time = |slot: usize| {
                    if slot == pat.decl_index {
                        Some((r.start, r.end))
                    } else {
                        (!partial.witness(layout, i, slot).is_empty())
                            .then(|| partial.time(i, slot))
                    }
                };
                let ok = cq
                    .before_slots
                    .iter()
                    .all(|&(a, b)| match (time(a), time(b)) {
                        (Some(x), Some(y)) => x.1 < y.0,
                        _ => true,
                    });
                if ok {
                    out.push_from(partial, i);
                    out.bind_last(layout, pat, r);
                }
            }
        }
        out
    }

    /// Query shapes covering every join key: shared subject, shared
    /// object, both slots bound, no shared variable (cross product) and
    /// a same-variable pattern — with and without `before` pairs.
    const QUERIES: &[&str] = &[
        "proc p read file f as e1 proc p write file g as e2 with e1 before e2 return p",
        "proc p write file f as e1 proc q read file f as e2 with e1 before e2 return p, q",
        "proc p read file f as e1 proc p write file f as e2 with e2 before e1 return p",
        "proc p read file f as e1 proc q write file g as e2 with e1 before e2 return p, q",
        "proc p read file f as e1 proc q write file g as e2 return p, q",
        "proc p fork proc p as e1 proc p read file f as e2 return p",
        "proc p read file f as e1 proc p fork proc p as e2 with e1 before e2 return p",
        "proc p read file f as e1 proc p write file g as e2 proc q read file g as e3 \
         with e1 before e2, e2 before e3, e1 before e3 return p, q",
    ];

    /// `(subject, object, start, duration)` draws → rows sorted by a
    /// position the draw order assigns.
    fn rows_from(draws: &[(u32, u32, u64, u64)]) -> Vec<PatternRow> {
        draws
            .iter()
            .enumerate()
            .map(|(pos, &(s, o, start, len))| PatternRow {
                subject: EntityId(s),
                object: EntityId(o),
                events: Witness::Event(pos),
                start,
                end: start + len,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Folding random rows through every step of every schedule, the
        /// hash join's output equals the nested loop's element for
        /// element, in order. Few distinct ids force shared-key
        /// collisions; short time ranges make `before` pairs bite.
        #[test]
        fn hash_join_equals_nested_loop(
            qi in 0usize..QUERIES.len(),
            scheduled in prop::bool::weighted(0.5),
            draws in prop::collection::vec(
                prop::collection::vec((0u32..4, 0u32..4, 0u64..12, 0u64..3), 0..14),
                3..4,
            ),
        ) {
            let cq = compiled(QUERIES[qi]);
            let schedule = if scheduled { Schedule::new(&cq) } else { Schedule::declared(&cq) };
            let layout = &schedule.layout;
            let mut partial: Option<Tuples> = None;
            for (step, draw) in schedule.steps.iter().zip(&draws) {
                let pat = &cq.patterns[step.pat];
                let rows = rows_from(draw);
                let got = join_rows(layout, partial.as_ref(), &rows, pat, step);
                let want = nested_loop_join(&cq, layout, partial.as_ref(), &rows, pat);
                prop_assert_eq!(&got, &want, "query {} step {}", qi, step.pat);
                partial = Some(got);
            }
        }
    }

    #[test]
    fn join_keys_cover_every_shape() {
        let labels = |tbql: &str| -> Vec<String> {
            let cq = compiled(tbql);
            let schedule = Schedule::declared(&cq);
            schedule
                .steps
                .iter()
                .enumerate()
                .map(|(i, s)| s.key_label(&cq, i == 0))
                .collect()
        };
        assert_eq!(labels(QUERIES[0]), ["seed", "hash(p)"]);
        assert_eq!(labels(QUERIES[1]), ["seed", "hash(f)"]);
        assert_eq!(labels(QUERIES[2]), ["seed", "hash(p,f)"]);
        assert_eq!(labels(QUERIES[3]), ["seed", "cross"]);
        assert_eq!(labels(QUERIES[6]), ["seed", "hash(p)"]);
    }

    #[test]
    fn cross_product_keeps_nested_loop_order() {
        let cq = compiled(QUERIES[4]);
        let schedule = Schedule::declared(&cq);
        let layout = &schedule.layout;
        let a = rows_from(&[(0, 1, 0, 0), (2, 3, 5, 0)]);
        let b = rows_from(&[(4, 5, 1, 0), (6, 7, 2, 0), (8, 9, 3, 0)]);
        let seed = join_rows(layout, None, &a, &cq.patterns[0], &schedule.steps[0]);
        let out = join_rows(layout, Some(&seed), &b, &cq.patterns[1], &schedule.steps[1]);
        let order: Vec<(usize, usize)> = (0..out.len())
            .map(|i| (out.witness(layout, i, 0)[0], out.witness(layout, i, 1)[0]))
            .collect();
        assert_eq!(order, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);

        // In-place retain and copying select agree.
        let mut kept = out.clone();
        kept.retain(|_, i| i % 2 == 1);
        assert_eq!(kept, out.select([1, 3, 5]));
    }

    #[test]
    fn matches_materialize_names_paths_and_times() {
        let cq = compiled(
            "proc p[\"%tar%\"] ~>(1~3)[write] file f as flow proc p read file g as e2 return p",
        );
        let schedule = Schedule::declared(&cq);
        let layout = &schedule.layout;
        let path = PatternRow {
            subject: EntityId(1),
            object: EntityId(2),
            events: Witness::Path(vec![7, 9].into()),
            start: 10,
            end: 20,
        };
        let read = PatternRow {
            subject: EntityId(1),
            object: EntityId(3),
            events: Witness::Event(4),
            start: 1,
            end: 2,
        };
        let seed = join_rows(layout, None, &[path], &cq.patterns[0], &schedule.steps[0]);
        let out = join_rows(
            layout,
            Some(&seed),
            &[read],
            &cq.patterns[1],
            &schedule.steps[1],
        );
        assert_eq!(out.max_pos(0), 9);
        let matches = out.to_matches(&cq, layout);
        assert_eq!(matches.len(), 1);
        let m = &matches[0];
        assert_eq!(m.bindings["p"], EntityId(1));
        assert_eq!(m.bindings["f"], EntityId(2));
        assert_eq!(m.bindings["g"], EntityId(3));
        assert_eq!(m.events["flow"], vec![7, 9]);
        assert_eq!(m.events["e2"], vec![4]);
        assert_eq!(m.times["flow"], (10, 20));
        assert_eq!(m.times["e2"], (1, 2));
    }
}
