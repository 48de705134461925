//! The audit store: one parsed log, its entities and its events.
//!
//! §II-B stores entities and events as PostgreSQL tables and as Neo4j
//! nodes and edges, with "indexes … created on key attributes to speed up
//! the search", and applies "the Causality Preserved Reduction technique
//! … to merge excessive events". Here each is stored once. Entities live
//! in an [`EntityCatalog`], which lists the positions of each kind's
//! entities; events live in [`EventShard`]s, which know nothing about
//! entities — a [`crate::sharded::ShardedStore`] or a
//! [`crate::stream::StreamingStore`] holds one catalog and many shards. A
//! shard indexes its events by operation, subject and object
//! ([`EventPostings`]); the subject postings are the graph's adjacency
//! lists. An [`AuditStore`] is the single-shard case: one catalog
//! generation (none for an empty log) and one shard, which it lends to
//! the executor as a one-shard [`ShardedStore`] view
//! ([`AuditStore::sharded`]).

use crate::catalog::EntityCatalog;
use crate::cpr;
use crate::postings::EventPostings;
use crate::sharded::ShardedStore;
use std::mem::size_of;
use std::ops::Deref;
use threatraptor_audit::entity::{Entity, EntityId};
use threatraptor_audit::event::Event;
use threatraptor_audit::parser::ParsedLog;
use threatraptor_sync::Arc;

/// A contiguous slice of the stored event stream: the events (CPR-reduced
/// when enabled, in time order) and their postings by operation, subject
/// and object (position `i` is `events[i]`). Holds no entity state —
/// entity ids in its events resolve against the owning store's
/// [`EntityCatalog`].
#[derive(Debug, Clone)]
pub struct EventShard {
    /// Stored events, in time order.
    pub events: Vec<Event>,
    postings: EventPostings,
}

impl EventShard {
    /// Indexes `events` into a shard.
    pub fn build(mut events: Vec<Event>) -> EventShard {
        // A sealed batch arrives with its growth slack; a shard keeps
        // exactly its events.
        events.shrink_to_fit();
        EventShard {
            postings: EventPostings::build(&events),
            events,
        }
    }

    /// The event index: positions by operation, subject and object.
    #[inline]
    pub fn postings(&self) -> &EventPostings {
        &self.postings
    }

    /// Stored event by position.
    #[inline]
    pub fn event_at(&self, pos: usize) -> &Event {
        &self.events[pos]
    }

    /// Number of stored events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Heap bytes of the events and their postings (by capacity; attack
    /// tags are not counted).
    pub fn heap_bytes(&self) -> usize {
        self.events.capacity() * size_of::<Event>() + self.postings.heap_bytes()
    }
}

/// A parsed log ingested whole: an [`EntityCatalog`] plus one shared
/// [`EventShard`], to which it dereferences (`store.events`,
/// `store.postings()`, `store.event_at(..)`).
#[derive(Debug, Clone)]
pub struct AuditStore {
    /// All entities, indexed by [`EntityId`], in one generation (none for
    /// an empty log).
    pub entities: EntityCatalog,
    /// CPR statistics of the ingest (before == after when CPR disabled).
    pub reduction: cpr::ReductionStats,
    shard: Arc<EventShard>,
}

impl Deref for AuditStore {
    type Target = EventShard;

    fn deref(&self) -> &EventShard {
        &self.shard
    }
}

impl AuditStore {
    /// Ingests a parsed log, optionally applying CPR first.
    pub fn ingest(log: &ParsedLog, use_cpr: bool) -> AuditStore {
        let (events, reduction) = cpr::reduce_if(&log.events, use_cpr);
        Self::from_events(&log.entities, events, reduction)
    }

    /// Builds a store over an already reduced (or deliberately unreduced)
    /// event stream. No further CPR is applied; `reduction` is recorded
    /// as-is.
    pub fn from_events(
        entities: &[Entity],
        events: Vec<Event>,
        reduction: cpr::ReductionStats,
    ) -> AuditStore {
        let entities = EntityCatalog::from_entities(entities);
        let shard = Arc::new(EventShard::build(events));
        AuditStore {
            entities,
            reduction,
            shard,
        }
    }

    /// Entity accessor.
    #[inline]
    pub fn entity(&self, id: EntityId) -> &Entity {
        self.entities.entity(id)
    }

    /// This store as a one-shard [`ShardedStore`]: handles to the same
    /// shard and catalog generations, so the view costs reference counts,
    /// not an index copy. Positions in the view are this store's.
    pub fn sharded(&self) -> ShardedStore {
        ShardedStore::from_parts(
            vec![Arc::clone(&self.shard)],
            self.entities.clone(),
            self.reduction,
        )
    }
}

/// Position-addressed access to stored events and entities — the part of
/// a store that result evaluation needs. Implemented by [`AuditStore`]
/// (positions index its one shard) and by
/// [`crate::sharded::ShardedStore`] (positions are global, spanning all
/// shards), so consumers such as the engine's `HuntResult` work over
/// either.
pub trait EventLookup {
    /// Event stored at `pos`.
    fn event_at(&self, pos: usize) -> &Event;

    /// Number of stored events.
    fn event_count(&self) -> usize;

    /// Entity by id.
    fn entity(&self, id: EntityId) -> &Entity;
}

impl EventLookup for AuditStore {
    fn event_at(&self, pos: usize) -> &Event {
        self.shard.event_at(pos)
    }

    fn event_count(&self) -> usize {
        self.shard.event_count()
    }

    fn entity(&self, id: EntityId) -> &Entity {
        AuditStore::entity(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_audit::entity::EntityKind;
    use threatraptor_audit::event::Operation;
    use threatraptor_audit::sim::scenario::ScenarioBuilder;

    fn store(cpr: bool) -> AuditStore {
        let sc = ScenarioBuilder::new().seed(42).target_events(2_000).build();
        AuditStore::ingest(&sc.log, cpr)
    }

    /// Positions of `events` that `keep` admits, by linear scan.
    fn scan(events: &[Event], keep: impl Fn(&Event) -> bool) -> Vec<u32> {
        (0..events.len() as u32)
            .filter(|&p| keep(&events[p as usize]))
            .collect()
    }

    /// Every entity sits at exactly one position of its generation's
    /// list for its kind, and the lists ascend.
    fn assert_positions_cover_each_entity_once(s: &AuditStore) {
        let mut seen = vec![0; s.entities.len()];
        for generation in s.entities.generations() {
            for kind in [EntityKind::Process, EntityKind::File, EntityKind::Network] {
                let positions = generation.positions(kind);
                assert!(positions.windows(2).all(|w| w[0] < w[1]), "ascending");
                for &pos in positions {
                    let entity = &generation.entities()[pos as usize];
                    assert_eq!(entity.kind(), kind);
                    seen[entity.id().index()] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn tables_cover_all_entities_and_events() {
        let s = store(false);
        assert_eq!(s.entities.generations().len(), 1);
        assert_positions_cover_each_entity_once(&s);
        // Every event sits under exactly one operation.
        let by_op: usize = Operation::ALL
            .iter()
            .map(|&op| s.postings().by_op(op).len())
            .sum();
        assert_eq!(by_op, s.events.len());
        assert_eq!(s.reduction.before, s.reduction.after);
    }

    #[test]
    fn an_empty_log_still_has_all_four_tables() {
        let s = AuditStore::ingest(&ParsedLog::default(), true);
        // The catalog holds no generation and so no entity position; the
        // postings hold no event position.
        assert!(s.entities.generations().is_empty());
        assert_eq!(s.entities.heap_bytes(), 0);
        assert_positions_cover_each_entity_once(&s);
        for op in Operation::ALL {
            assert!(s.postings().by_op(op).is_empty());
        }
        assert!(s.postings().by_subject(EntityId(0)).is_empty());
        assert!(s.postings().by_object(EntityId(0)).is_empty());
        assert_eq!(s.postings().heap_bytes(), 0);
        assert!(s.entities.is_empty());
    }

    #[test]
    fn cpr_shrinks_the_event_postings() {
        let plain = store(false);
        let reduced = store(true);
        assert!(reduced.event_count() < plain.event_count());
        assert!(
            reduced.reduction.factor() > 1.2,
            "bursty workloads must compress"
        );
        assert!(reduced.heap_bytes() < plain.heap_bytes());
        let by_op: usize = Operation::ALL
            .iter()
            .map(|&op| reduced.postings().by_op(op).len())
            .sum();
        assert_eq!(by_op, reduced.event_count());
    }

    #[test]
    fn event_rows_align_with_events_vec() {
        let s = store(true);
        let postings = s.postings();
        for pos in [0usize, s.events.len() / 2, s.events.len() - 1] {
            let ev = &s.events[pos];
            let p = pos as u32;
            assert!(postings.by_op(ev.op).binary_search(&p).is_ok());
            assert!(postings.by_subject(ev.subject).binary_search(&p).is_ok());
            assert!(postings.by_object(ev.object).binary_search(&p).is_ok());
        }
    }

    #[test]
    fn indexed_op_lookup_matches_scan() {
        let s = store(false);
        for op in Operation::ALL {
            assert_eq!(s.postings().by_op(op), scan(&s.events, |e| e.op == op));
        }
        // Subject postings: same positions as a scan, for every subject.
        for id in (0..s.entities.len() as u32).map(EntityId) {
            assert_eq!(
                s.postings().by_subject(id),
                scan(&s.events, |e| e.subject == id)
            );
        }
    }

    #[test]
    fn the_sharded_view_shares_the_shard() {
        let s = store(true);
        let view = s.sharded();
        assert_eq!(view.shard_count(), 1);
        assert!(std::ptr::eq(view.shard(0), &*s));
        assert_eq!(view.event_count(), s.event_count());
        assert_eq!(view.reduction(), s.reduction);
        assert_eq!(view.catalog().len(), s.entities.len());
    }

    #[test]
    fn ground_truth_events_survive_cpr() {
        let sc = ScenarioBuilder::new().seed(42).target_events(2_000).build();
        let s = AuditStore::ingest(&sc.log, true);
        let gt = sc.ground_truth("data_leakage");
        assert_eq!(gt.len(), 8);
        for id in gt {
            assert!(
                s.events.iter().any(|e| e.id == id),
                "hunted event {id} lost by CPR"
            );
        }
    }
}
