//! The event index: typed postings over one shard's `Vec<Event>`.
//!
//! §II-B stores events in PostgreSQL "with indexes created on key
//! attributes". Here the events themselves stay in their `Vec<Event>`
//! (no column is copied beside it) and the index holds only *positions*
//! into it, grouped by key:
//!
//! * by [`Operation`] — a counting sort over the 18 operations, so an op
//!   probe is an array index;
//! * by subject id and by object id — the distinct ids present, ascending,
//!   each with its positions, so an id probe is a binary search over
//!   `u32`s.
//!
//! Positions ascend within every key. Memory is O(events + distinct
//! keys): nothing is sized by the entity catalog, which keeps growing
//! while a shard holds a few thousand events.

use std::mem::size_of;
use threatraptor_audit::entity::EntityId;
use threatraptor_audit::event::{Event, Operation};

const OPS: usize = Operation::ALL.len();

/// Postings by operation, subject and object over one shard's events.
#[derive(Debug, Clone)]
pub struct EventPostings {
    /// `by_op[op_start[k]..op_start[k + 1]]` are the positions of
    /// operation `k` (its discriminant).
    op_start: [u32; OPS + 1],
    by_op: Vec<u32>,
    subjects: KeyPostings,
    objects: KeyPostings,
}

impl EventPostings {
    /// Indexes `events`; position `i` is `events[i]`.
    pub fn build(events: &[Event]) -> EventPostings {
        let n = u32::try_from(events.len()).expect("a shard holds fewer than 2^32 events");
        let mut op_start = [0u32; OPS + 1];
        for ev in events {
            op_start[ev.op as usize + 1] += 1;
        }
        for k in 0..OPS {
            op_start[k + 1] += op_start[k];
        }
        let mut next = op_start;
        let mut by_op = vec![0u32; events.len()];
        for (pos, ev) in (0..n).zip(events) {
            let slot = &mut next[ev.op as usize];
            by_op[*slot as usize] = pos;
            *slot += 1;
        }
        EventPostings {
            op_start,
            by_op,
            subjects: KeyPostings::build(events.iter().map(|e| e.subject)),
            objects: KeyPostings::build(events.iter().map(|e| e.object)),
        }
    }

    /// Positions of events with operation `op`, ascending.
    #[inline]
    pub fn by_op(&self, op: Operation) -> &[u32] {
        let k = op as usize;
        &self.by_op[self.op_start[k] as usize..self.op_start[k + 1] as usize]
    }

    /// Positions of events whose subject is `id`, ascending.
    #[inline]
    pub fn by_subject(&self, id: EntityId) -> &[u32] {
        self.subjects.get(id)
    }

    /// Positions of events whose object is `id`, ascending.
    #[inline]
    pub fn by_object(&self, id: EntityId) -> &[u32] {
        self.objects.get(id)
    }

    /// Heap bytes held (by capacity).
    pub fn heap_bytes(&self) -> usize {
        self.by_op.capacity() * size_of::<u32>()
            + self.subjects.heap_bytes()
            + self.objects.heap_bytes()
    }
}

/// Positions grouped by entity id: `positions[starts[k]..starts[k + 1]]`
/// belong to `keys[k]`.
#[derive(Debug, Clone)]
struct KeyPostings {
    keys: Vec<u32>,
    starts: Vec<u32>,
    positions: Vec<u32>,
}

impl KeyPostings {
    /// Sorts `(id, position)` pairs packed into one `u64` each: id-major,
    /// so positions come out ascending within every id.
    fn build(ids: impl ExactSizeIterator<Item = EntityId>) -> KeyPostings {
        let mut pairs: Vec<u64> = ids
            .zip(0u64..)
            .map(|(id, pos)| u64::from(id.0) << 32 | pos)
            .collect();
        pairs.sort_unstable();
        let mut keys = Vec::new();
        let mut starts = Vec::new();
        let mut positions = Vec::with_capacity(pairs.len());
        for pair in pairs {
            let id = (pair >> 32) as u32;
            if keys.last() != Some(&id) {
                keys.push(id);
                starts.push(positions.len() as u32);
            }
            positions.push(pair as u32);
        }
        if !keys.is_empty() {
            starts.push(positions.len() as u32);
        }
        KeyPostings {
            keys,
            starts,
            positions,
        }
    }

    #[inline]
    fn get(&self, id: EntityId) -> &[u32] {
        match self.keys.binary_search(&id.0) {
            Ok(k) => &self.positions[self.starts[k] as usize..self.starts[k + 1] as usize],
            Err(_) => &[],
        }
    }

    fn heap_bytes(&self) -> usize {
        (self.keys.capacity() + self.starts.capacity() + self.positions.capacity())
            * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use threatraptor_audit::event::EventId;

    /// Events with random ops, ids below 12 and non-decreasing starts.
    fn events(raw: Vec<(u8, u32, u32, u64)>) -> Vec<Event> {
        let mut start = 0;
        raw.into_iter()
            .enumerate()
            .map(|(i, (op, subject, object, gap))| {
                start += gap;
                Event {
                    id: EventId(i as u32),
                    subject: EntityId(subject),
                    op: Operation::ALL[op as usize],
                    object: EntityId(object),
                    start,
                    end: start + gap,
                    bytes: 0,
                    merged: 1,
                    tag: None,
                }
            })
            .collect()
    }

    fn raw_events() -> impl Strategy<Value = Vec<(u8, u32, u32, u64)>> {
        prop::collection::vec((0u8..OPS as u8, 0u32..12, 0u32..12, 0u64..4), 0..120)
    }

    fn scan(events: &[Event], keep: impl Fn(&Event) -> bool) -> Vec<u32> {
        (0..events.len() as u32)
            .filter(|&p| keep(&events[p as usize]))
            .collect()
    }

    /// Every probe of `postings` equals a linear filter over `events`.
    fn assert_probes_match(postings: &EventPostings, events: &[Event]) {
        for op in Operation::ALL {
            assert_eq!(postings.by_op(op), scan(events, |e| e.op == op), "{op}");
        }
        for id in (0..14).map(EntityId) {
            assert_eq!(postings.by_subject(id), scan(events, |e| e.subject == id));
            assert_eq!(postings.by_object(id), scan(events, |e| e.object == id));
        }
    }

    #[test]
    fn empty_events_have_empty_postings() {
        let postings = EventPostings::build(&[]);
        assert_probes_match(&postings, &[]);
        assert_eq!(postings.heap_bytes(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every op, subject and object probe returns exactly the
        /// positions a linear filter finds, in position order.
        #[test]
        fn probes_match_a_linear_filter(raw in raw_events()) {
            let events = events(raw);
            assert_probes_match(&EventPostings::build(&events), &events);
        }

        /// Postings built over the concatenation of two slices (what a
        /// compaction indexes) answer every probe like a monolithic build
        /// of the same events, and each half's probes shift by the first
        /// half's length.
        #[test]
        fn concatenated_build_matches_monolithic(raw in raw_events(), cut in 0usize..120) {
            let events = events(raw);
            let cut = cut.min(events.len());
            let (a, b) = events.split_at(cut);
            let mut joined = a.to_vec();
            joined.extend_from_slice(b);
            let whole = EventPostings::build(&events);
            let merged = EventPostings::build(&joined);
            assert_probes_match(&merged, &events);
            let (pa, pb) = (EventPostings::build(a), EventPostings::build(b));
            for id in (0..12).map(EntityId) {
                let shifted: Vec<u32> = pa
                    .by_subject(id)
                    .iter()
                    .copied()
                    .chain(pb.by_subject(id).iter().map(|p| p + cut as u32))
                    .collect();
                prop_assert_eq!(whole.by_subject(id), &shifted[..]);
                prop_assert_eq!(merged.by_subject(id), whole.by_subject(id));
                prop_assert_eq!(merged.by_object(id), whole.by_object(id));
            }
        }
    }
}
