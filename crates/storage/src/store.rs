//! Event shards and the one-shard audit store.
//!
//! §II-B stores entities and events as PostgreSQL tables and as Neo4j
//! nodes and edges, with "indexes … created on key attributes to speed up
//! the search", and applies "the Causality Preserved Reduction technique
//! … to merge excessive events". Here each is stored once. Entities live
//! in an [`EntityCatalog`](crate::catalog::EntityCatalog), which lists the
//! positions of each kind's entities; events live in [`EventShard`]s,
//! which know nothing about entities. A [`ShardedStore`] — the one
//! readable store, built in batch or snapshotted from a
//! [`crate::stream::StreamingStore`] — holds one catalog and its shards.
//! A shard indexes its events by operation, subject and object
//! ([`EventPostings`]); the subject postings are the graph's adjacency
//! lists. An [`AuditStore`] is a parsed log ingested whole into a
//! one-shard [`ShardedStore`].

use crate::cpr;
use crate::postings::EventPostings;
use crate::sharded::ShardedStore;
use std::mem::size_of;
use std::ops::Deref;
use threatraptor_audit::event::Event;
use threatraptor_audit::parser::ParsedLog;

/// A contiguous slice of the stored event stream: the events (CPR-reduced
/// when enabled, in time order) and their postings by operation, subject
/// and object (position `i` is `events[i]`). Holds no entity state —
/// entity ids in its events resolve against the owning store's
/// [`EntityCatalog`](crate::catalog::EntityCatalog).
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

/// A parsed log ingested whole into one shard: a [`ShardedStore`] built
/// by [`ShardedStore::ingest`]`(log, cpr, 1)`, to which it dereferences
/// (`store.shard(0)`, `store.catalog()`, `store.event_at(..)`). The type
/// guarantees the one shard that `threatraptor_engine::baseline` scans.
#[derive(Debug, Clone)]
pub struct AuditStore {
    /// CPR statistics of the ingest (before == after when CPR disabled).
    pub reduction: cpr::ReductionStats,
    store: ShardedStore,
}

impl Deref for AuditStore {
    type Target = ShardedStore;

    fn deref(&self) -> &ShardedStore {
        &self.store
    }
}

impl AuditStore {
    /// Ingests a parsed log, optionally applying CPR first.
    pub fn ingest(log: &ParsedLog, use_cpr: bool) -> AuditStore {
        let store = ShardedStore::ingest(log, use_cpr, 1);
        AuditStore {
            reduction: store.reduction(),
            store,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_audit::entity::{EntityId, EntityKind};
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
        let mut seen = vec![0; s.catalog().len()];
        for generation in s.catalog().generations() {
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
        assert_eq!(s.catalog().generations().len(), 1);
        assert_positions_cover_each_entity_once(&s);
        // Every event sits under exactly one operation.
        let shard = s.shard(0);
        let by_op: usize = Operation::ALL
            .iter()
            .map(|&op| shard.postings().by_op(op).len())
            .sum();
        assert_eq!(by_op, shard.events.len());
        assert_eq!(s.reduction.before, s.reduction.after);
    }

    #[test]
    fn an_empty_log_still_has_all_four_tables() {
        let s = AuditStore::ingest(&ParsedLog::default(), true);
        // The catalog holds no generation and so no entity position; the
        // postings hold no event position.
        assert!(s.catalog().generations().is_empty());
        assert_eq!(s.catalog().heap_bytes(), 0);
        assert_positions_cover_each_entity_once(&s);
        let postings = s.shard(0).postings();
        for op in Operation::ALL {
            assert!(postings.by_op(op).is_empty());
        }
        assert!(postings.by_subject(EntityId(0)).is_empty());
        assert!(postings.by_object(EntityId(0)).is_empty());
        assert_eq!(postings.heap_bytes(), 0);
        assert!(s.catalog().is_empty());
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
        assert!(reduced.shard(0).heap_bytes() < plain.shard(0).heap_bytes());
        let by_op: usize = Operation::ALL
            .iter()
            .map(|&op| reduced.shard(0).postings().by_op(op).len())
            .sum();
        assert_eq!(by_op, reduced.event_count());
    }

    #[test]
    fn event_rows_align_with_events_vec() {
        let s = store(true);
        let shard = s.shard(0);
        let postings = shard.postings();
        for pos in [0usize, shard.events.len() / 2, shard.events.len() - 1] {
            let ev = &shard.events[pos];
            let p = pos as u32;
            assert!(postings.by_op(ev.op).binary_search(&p).is_ok());
            assert!(postings.by_subject(ev.subject).binary_search(&p).is_ok());
            assert!(postings.by_object(ev.object).binary_search(&p).is_ok());
        }
    }

    #[test]
    fn indexed_op_lookup_matches_scan() {
        let s = store(false);
        let shard = s.shard(0);
        for op in Operation::ALL {
            assert_eq!(
                shard.postings().by_op(op),
                scan(&shard.events, |e| e.op == op)
            );
        }
        // Subject postings: same positions as a scan, for every subject.
        for id in (0..s.catalog().len() as u32).map(EntityId) {
            assert_eq!(
                shard.postings().by_subject(id),
                scan(&shard.events, |e| e.subject == id)
            );
        }
    }

    #[test]
    fn ingest_is_a_one_shard_sharded_ingest() {
        let sc = ScenarioBuilder::new().seed(42).target_events(2_000).build();
        for (log, cpr) in [
            (&sc.log, true),
            (&sc.log, false),
            (&ParsedLog::default(), true),
        ] {
            let single = AuditStore::ingest(log, cpr);
            let sharded = ShardedStore::ingest(log, cpr, 1);
            assert_eq!(single.shard_count(), 1);
            assert_eq!(single.shard(0).events, sharded.shard(0).events);
            assert_eq!(single.reduction, sharded.reduction());
            assert_eq!(single.reduction(), single.reduction);
            assert!(single.catalog().iter().eq(sharded.catalog().iter()));
        }
    }

    #[test]
    fn ground_truth_events_survive_cpr() {
        let sc = ScenarioBuilder::new().seed(42).target_events(2_000).build();
        let s = AuditStore::ingest(&sc.log, true);
        let gt = sc.ground_truth("data_leakage");
        assert_eq!(gt.len(), 8);
        for id in gt {
            assert!(
                s.shard(0).events.iter().any(|e| e.id == id),
                "hunted event {id} lost by CPR"
            );
        }
    }
}
