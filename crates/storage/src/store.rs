//! The audit store: one parsed log, its entities and its events.
//!
//! §II-B stores entities and events in PostgreSQL tables and Neo4j
//! nodes and edges, with "indexes … created on key attributes to speed up
//! the search", and applies "the Causality Preserved Reduction technique
//! … to merge excessive events". Here the two halves of that sentence are
//! two types. Entities live once per store in an [`EntityCatalog`], which
//! lists the positions of each kind's entities (the "key attribute"
//! filters evaluate on the entities themselves); events live in
//! [`EventShard`]s, which know nothing about entities — a
//! [`crate::sharded::ShardedStore`] or a [`crate::stream::StreamingStore`]
//! holds one catalog and many shards. A shard keeps its events in one
//! `Vec<Event>` and indexes positions into it by operation, subject and
//! object ([`EventPostings`]). An [`AuditStore`] is the single-shard case:
//! one catalog generation (none for an empty log) and one shard, which it
//! lends to the executor as a one-shard [`ShardedStore`] view
//! ([`AuditStore::sharded`]).

use crate::catalog::EntityCatalog;
use crate::cpr;
use crate::graphdb::GraphDb;
use crate::postings::EventPostings;
use crate::sharded::ShardedStore;
use std::mem::size_of;
use std::ops::Deref;
use threatraptor_audit::entity::{Entity, EntityId};
use threatraptor_audit::event::Event;
use threatraptor_audit::parser::ParsedLog;
use threatraptor_sync::{Arc, OnceLock};

/// A contiguous slice of the stored event stream: the events (CPR-reduced
/// when enabled, in time order) and their postings by operation, subject
/// and object (position `i` is `events[i]`). The property graph the
/// graph-backend baselines search is built on first use. Holds no
/// entity state — entity ids in its events are resolved against the
/// owning store's [`EntityCatalog`].
#[derive(Debug, Clone)]
pub struct EventShard {
    /// Stored events, in time order.
    pub events: Vec<Event>,
    postings: EventPostings,
    /// Size of the graph's node space: every entity id in `events` is
    /// below it.
    nodes: usize,
    graph: OnceLock<GraphDb>,
}

impl EventShard {
    /// Indexes `events` into a shard. `nodes` bounds the entity ids they
    /// reference (the owning catalog's length when they were stored).
    pub fn build(mut events: Vec<Event>, nodes: usize) -> EventShard {
        // A sealed batch arrives with its growth slack; a shard keeps
        // exactly its events.
        events.shrink_to_fit();
        EventShard {
            postings: EventPostings::build(&events),
            events,
            nodes,
            graph: OnceLock::new(),
        }
    }

    /// The event index: positions by operation, subject and object.
    #[inline]
    pub fn postings(&self) -> &EventPostings {
        &self.postings
    }

    /// The graph backend (Neo4j role) of the comparison baselines, built
    /// on first use: the executor answers event patterns from the
    /// postings and paths from the subject postings, so a shard that is
    /// only ever hunted that way never pays for adjacency lists and edge
    /// copies.
    pub fn graph(&self) -> &GraphDb {
        self.graph
            .get_or_init(|| GraphDb::build(self.nodes, &self.events))
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
    /// tags and a built graph are not counted).
    pub fn heap_bytes(&self) -> usize {
        self.events.capacity() * size_of::<Event>() + self.postings.heap_bytes()
    }

    /// The node-space bound this shard was built with.
    pub(crate) fn nodes(&self) -> usize {
        self.nodes
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
        let shard = Arc::new(EventShard::build(events, entities.len()));
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
/// shards), so [`HuntResult`]-style consumers work over either.
///
/// [`HuntResult`]: https://docs.rs/threatraptor-engine
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
        assert_eq!(s.graph().node_count(), 0);
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
        // Graph edge count matches stored events.
        assert_eq!(reduced.graph().edge_count(), reduced.event_count());
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
        // Subject postings: same positions as a scan, for every subject
        // (out-degree in the graph backend).
        for id in (0..s.entities.len() as u32).map(EntityId) {
            let scanned = scan(&s.events, |e| e.subject == id);
            assert_eq!(s.postings().by_subject(id), scanned);
            assert_eq!(scanned.len(), s.graph().out_degree(id));
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
