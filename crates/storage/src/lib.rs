//! # threatraptor-storage
//!
//! Storage substrate for the ThreatRaptor reproduction.
//!
//! The paper stores parsed audit data in two backends (§II-B): PostgreSQL
//! (entities and events as tables, "mature indexing mechanisms … suitable
//! for queries that involve many joins and constraints") and Neo4j
//! (entities as nodes, events as edges, "suitable for queries that involve
//! graph pattern search"). Neither is available offline, so this crate
//! provides embedded equivalents that execute the *same logical plans* the
//! paper compiles TBQL into:
//!
//! * [`postings`] — the relational role for events: each shard keeps its
//!   events in one `Vec<Event>` and indexes positions into it by
//!   operation (a counting sort) and by subject and object id (sorted
//!   postings), the access paths the executor's event scans and path
//!   expansion probe;
//! * [`relational`] — a typed row store with B-tree/hash indexes, a
//!   predicate AST with SQL `LIKE` semantics, and a select-project-join
//!   executor with index selection: the entity tables, and
//!   [`relational::SqlSelect`]'s SQL text for the conciseness experiment;
//! * [`graphdb`] — a property graph over the same data with
//!   variable-length path search (min/max hops, last-hop operation,
//!   time-monotone traversal), the compile target for TBQL path patterns;
//! * [`cpr`] — Causality-Preserved Reduction (Xu et al., CCS'16), the
//!   event-merging technique the paper applies to reduce data size;
//! * [`catalog`] — [`catalog::EntityCatalog`], every entity of a store
//!   once, with its indexed tables: append-only generations shared by
//!   reference between a live store and all of its snapshots;
//! * [`store`] — [`store::EventShard`], a slice of the event stream with
//!   its postings (and its graph, on first use), and
//!   [`store::AuditStore`], one catalog plus one shard: a parsed log
//!   ingested whole;
//! * [`sharded`] — [`sharded::ShardedStore`], which partitions one
//!   globally-reduced log into independent per-time-window shards with
//!   parallel ingestion (the substrate of the concurrent hunt service);
//! * [`stream`] — [`stream::StreamingStore`], the live variant: sealed
//!   immutable shards plus one appendable open window with incremental
//!   CPR at the ingest frontier, snapshotting into ordinary
//!   [`sharded::ShardedStore`] epoch views for hunts under ingest.

pub mod catalog;
pub mod cpr;
pub mod graphdb;
pub mod postings;
pub mod relational;
pub mod sharded;
pub mod store;
pub mod stream;

pub use catalog::{EntityCatalog, Generation};
pub use postings::EventPostings;
pub use relational::{Database, Predicate, SqlSelect, Value};
pub use sharded::{ShardedStore, StreamFrontier};
pub use store::{AuditStore, EventLookup, EventShard};
pub use stream::{AppendOutcome, CompactionPolicy, SealPolicy, SnapshotParts, StreamingStore};
