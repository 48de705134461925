//! The combined audit store: one parsed log ingested into both backends.
//!
//! Mirrors §II-B: "For PostgreSQL, ThreatRaptor stores system entities and
//! system events in tables. For Neo4j, ThreatRaptor stores system entities
//! as nodes and system events as edges. Indexes are created on key
//! attributes to speed up the search. Furthermore, … the Causality
//! Preserved Reduction technique [is used] to merge excessive events."
//!
//! The two halves of that sentence are two types. Entities live once per
//! store in an [`EntityCatalog`]; events live in [`EventShard`]s, which
//! know nothing about entities — a [`crate::sharded::ShardedStore`] or a
//! [`crate::stream::StreamingStore`] holds one catalog and many shards.
//! An [`AuditStore`] is the single-shard case: one catalog generation,
//! one shard, and a [`Database`] naming all four tables.

use crate::catalog::EntityCatalog;
use crate::cpr;
use crate::graphdb::GraphDb;
use crate::relational::{Column, Database, Table, Value};
use std::ops::Deref;
use threatraptor_audit::entity::{Entity, EntityId, EntityKind};
use threatraptor_audit::event::{Event, EventType};
use threatraptor_audit::parser::ParsedLog;
use threatraptor_sync::{Arc, OnceLock};

/// Table name for process entities.
pub const TABLE_PROCESS: &str = "process";
/// Table name for file entities.
pub const TABLE_FILE: &str = "file";
/// Table name for network-connection entities.
pub const TABLE_NETWORK: &str = "network";
/// Table name for events.
pub const TABLE_EVENT: &str = "event";

/// A contiguous slice of the stored event stream in both backends: the
/// events (CPR-reduced when enabled, in time order), the indexed event
/// table whose row `i` is `events[i]`, and the property graph with one
/// edge per event. Holds no entity state — entity ids in its events are
/// resolved against the owning store's [`EntityCatalog`].
#[derive(Debug, Clone)]
pub struct EventShard {
    /// Stored events, in time order.
    pub events: Vec<Event>,
    table: Arc<Table>,
    /// Size of the graph's node space: every entity id in `events` is
    /// below it.
    nodes: usize,
    graph: OnceLock<GraphDb>,
}

impl EventShard {
    /// Indexes `events` into a shard. `nodes` bounds the entity ids they
    /// reference (the owning catalog's length when they were stored).
    pub fn build(events: Vec<Event>, nodes: usize) -> EventShard {
        EventShard {
            table: Arc::new(build_event_table(&events)),
            events,
            nodes,
            graph: OnceLock::new(),
        }
    }

    /// The event table (indexed on `op`, `subject`, `object`, `start`).
    pub fn event_table(&self) -> &Table {
        &self.table
    }

    /// The graph backend (Neo4j role), built on first use: the scheduled
    /// execution path answers event patterns from the event table and
    /// paths from its subject index, so a shard that is only ever served
    /// that way never pays for adjacency lists and edge copies.
    pub fn graph(&self) -> &GraphDb {
        self.graph
            .get_or_init(|| GraphDb::build(self.nodes, &self.events))
    }

    /// Stored event by table row position.
    #[inline]
    pub fn event_at(&self, pos: usize) -> &Event {
        &self.events[pos]
    }

    /// Number of stored events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// The node-space bound this shard was built with.
    pub(crate) fn nodes(&self) -> usize {
        self.nodes
    }
}

/// The combined store over relational and graph backends: an
/// [`EntityCatalog`] plus one [`EventShard`], to which it dereferences
/// (`store.events`, `store.graph()`, `store.event_at(..)`).
#[derive(Debug, Clone)]
pub struct AuditStore {
    /// Relational backend (PostgreSQL role): the three entity tables and
    /// the event table by name, shared with `entities` and the shard.
    pub db: Database,
    /// All entities, indexed by [`EntityId`], in one generation.
    pub entities: EntityCatalog,
    /// CPR statistics of the ingest (before == after when CPR disabled).
    pub reduction: cpr::ReductionStats,
    shard: EventShard,
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
        let shard = EventShard::build(events, entities.len());
        let mut db = Database::new();
        for generation in entities.generations() {
            for kind in [EntityKind::Process, EntityKind::File, EntityKind::Network] {
                db.add_shared_table(Arc::clone(generation.table(kind)));
            }
        }
        db.add_shared_table(Arc::clone(&shard.table));
        AuditStore {
            db,
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

    /// The table name that holds entities of the given kind.
    pub fn entity_table(kind: EntityKind) -> &'static str {
        match kind {
            EntityKind::Process => TABLE_PROCESS,
            EntityKind::File => TABLE_FILE,
            EntityKind::Network => TABLE_NETWORK,
        }
    }
}

fn build_event_table(events: &[Event]) -> Table {
    let mut t = Table::new(
        TABLE_EVENT,
        vec![
            Column::new("id"),
            Column::new("subject"),
            Column::new("op"),
            Column::new("object"),
            Column::new("start"),
            Column::new("end"),
            Column::new("bytes"),
            Column::new("type"),
        ],
    );
    for ev in events.iter() {
        let ty = match ev.event_type() {
            EventType::File => "file",
            EventType::Process => "process",
            EventType::Network => "network",
        };
        t.insert(vec![
            Value::from(ev.id.0),
            Value::from(ev.subject.0),
            Value::str(ev.op.name()),
            Value::from(ev.object.0),
            Value::from(ev.start),
            Value::from(ev.end),
            Value::from(ev.bytes),
            Value::str(ty),
        ]);
    }
    t.create_hash_index("op");
    t.create_btree_index("subject");
    t.create_btree_index("object");
    t.create_btree_index("start");
    t
}

/// Position-addressed access to stored events and entities — the part of
/// a store that result evaluation needs. Implemented by [`AuditStore`]
/// (positions are table rows) and by
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
    use crate::relational::Predicate;
    use threatraptor_audit::sim::scenario::ScenarioBuilder;

    fn store(cpr: bool) -> AuditStore {
        let sc = ScenarioBuilder::new().seed(42).target_events(2_000).build();
        AuditStore::ingest(&sc.log, cpr)
    }

    #[test]
    fn tables_cover_all_entities_and_events() {
        let s = store(false);
        let n_proc = s.db.table(TABLE_PROCESS).len();
        let n_file = s.db.table(TABLE_FILE).len();
        let n_net = s.db.table(TABLE_NETWORK).len();
        assert_eq!(n_proc + n_file + n_net, s.entities.len());
        assert_eq!(s.db.table(TABLE_EVENT).len(), s.events.len());
        assert_eq!(s.reduction.before, s.reduction.after);
    }

    #[test]
    fn an_empty_log_still_has_all_four_tables() {
        let s = AuditStore::ingest(&ParsedLog::default(), true);
        for table in [TABLE_PROCESS, TABLE_FILE, TABLE_NETWORK, TABLE_EVENT] {
            assert!(s.db.table(table).is_empty());
        }
        assert!(s.entities.is_empty());
        assert_eq!(s.graph().node_count(), 0);
    }

    #[test]
    fn cpr_shrinks_event_table() {
        let plain = store(false);
        let reduced = store(true);
        assert!(reduced.event_count() < plain.event_count());
        assert!(
            reduced.reduction.factor() > 1.2,
            "bursty workloads must compress"
        );
        assert_eq!(reduced.db.table(TABLE_EVENT).len(), reduced.event_count());
        // Graph edge count matches stored events.
        assert_eq!(reduced.graph().edge_count(), reduced.event_count());
    }

    #[test]
    fn event_rows_align_with_events_vec() {
        let s = store(true);
        let t = s.db.table(TABLE_EVENT);
        for pos in [0usize, s.events.len() / 2, s.events.len() - 1] {
            let row = t.row(pos);
            assert_eq!(
                row[t.col("id")].as_int().unwrap() as u32,
                s.events[pos].id.0
            );
            assert_eq!(row[t.col("op")].as_str().unwrap(), s.events[pos].op.name());
        }
    }

    #[test]
    fn indexed_op_lookup_matches_scan() {
        let s = store(false);
        let t = s.db.table(TABLE_EVENT);
        let via_index = t.select(&Predicate::eq("op", "read"));
        let expected = s.events.iter().filter(|e| e.op.name() == "read").count();
        assert_eq!(via_index.len(), expected);
    }

    #[test]
    fn entity_table_mapping() {
        use threatraptor_audit::entity::EntityKind;
        assert_eq!(AuditStore::entity_table(EntityKind::Process), TABLE_PROCESS);
        assert_eq!(AuditStore::entity_table(EntityKind::File), TABLE_FILE);
        assert_eq!(AuditStore::entity_table(EntityKind::Network), TABLE_NETWORK);
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
