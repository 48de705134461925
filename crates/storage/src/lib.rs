//! # threatraptor-storage
//!
//! Storage substrate for the ThreatRaptor reproduction.
//!
//! The paper stores parsed audit data in PostgreSQL (entities and events
//! as tables, "mature indexing mechanisms") and Neo4j (entities as nodes,
//! events as edges, "suitable for queries that involve graph pattern
//! search"), §II-B. Neither is available offline, and served hunts need
//! neither: this crate keeps entities in a catalog and events in shards
//! indexed by postings, and the engine answers both event and path
//! patterns from those, evaluating entity filters on the catalog's
//! entities directly.
//!
//! * [`catalog`] — [`catalog::EntityCatalog`], every entity of a store
//!   once, with the positions of each kind's entities: append-only
//!   generations shared by reference between a live store and all of its
//!   snapshots;
//! * [`postings`] — the event index: each shard keeps its events in one
//!   `Vec<Event>` and indexes positions into it by operation (a counting
//!   sort) and by subject and object id (sorted postings), the access
//!   paths the executor's event scans and path expansion probe;
//! * [`cpr`] — Causality-Preserved Reduction (Xu et al., CCS'16), the
//!   event-merging technique the paper applies to reduce data size;
//! * [`store`] — [`store::EventShard`], a slice of the event stream with
//!   its postings, and [`store::AuditStore`], a parsed log ingested whole
//!   into a one-shard [`sharded::ShardedStore`];
//! * [`sharded`] — [`sharded::ShardedStore`], the one readable store:
//!   one catalog plus time-ordered shards, every one assembled by
//!   [`sharded::ShardedStore::from_parts`], whether from a globally
//!   reduced log cut into slices or from a streaming snapshot's shards;
//!   every hunt executes over one;
//! * [`stream`] — [`stream::StreamingStore`], the live variant: sealed
//!   immutable shards plus one appendable open window with incremental
//!   CPR at the ingest frontier, snapshotting into ordinary
//!   [`sharded::ShardedStore`] views for hunts under ingest.
//!
//! The crate spawns no threads and keeps no atomics: building is a plain
//! loop, and change counting belongs to whoever serializes the appends.

pub mod catalog;
pub mod cpr;
pub mod postings;
pub mod sharded;
pub mod store;
pub mod stream;

pub use catalog::{EntityCatalog, Generation};
pub use postings::EventPostings;
pub use sharded::{ShardedStore, StreamFrontier};
pub use store::{AuditStore, EventShard};
pub use stream::{AppendOutcome, CompactionPolicy, SealPolicy, SnapshotParts, StreamingStore};
