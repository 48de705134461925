//! # threatraptor-engine
//!
//! The TBQL query execution engine (paper §II-F).
//!
//! "To execute a TBQL query with multiple patterns, ThreatRaptor compiles
//! each pattern into a semantically equivalent SQL or Cypher data query,
//! and schedules the execution of these data queries in different
//! database backends. … For each pattern, ThreatRaptor computes a
//! *pruning score* by counting the number of constraints declared; a
//! pattern with more constraints has a higher score. For a variable-length
//! event path pattern, ThreatRaptor additionally considers the path
//! length … when scheduling the execution of the data queries,
//! ThreatRaptor considers both the pruning scores and the pattern
//! dependencies: if two patterns are connected by the same system entity,
//! ThreatRaptor will first execute the data query whose associated
//! pattern has a higher pruning score, and then use the execution results
//! to constrain the execution of the other data query (by adding
//! filters)."
//!
//! The read path is **slot-compiled**: [`compile`] gives every entity
//! variable and every pattern a slot and pre-resolves `before` pairs and
//! the return clause to slot indices, so a partial match is a flat tuple
//! (entity id per variable, `(start, end)` and witness positions per
//! pattern) rather than three name-keyed maps. One pattern's data query
//! *resolves* its entity predicates — narrowed to the ids earlier
//! patterns bound — to id sets once, then *scans* events with those
//! sets; the fetched rows meet the partial tuples in an
//! **order-preserving hash join** keyed on the already-bound variables
//! (build on the rows, probe per tuple in tuple order, emit each chain in
//! row order — the output order of the nested loop it replaced, which the
//! incremental executor and every parity test rely on). The public,
//! name-keyed [`Match`] is materialized once per delivered match.
//!
//! Modules:
//! * [`compile`] — event patterns → relational select-project-join plans
//!   (with SQL text rendering); path patterns → graph path queries (with
//!   Cypher text rendering); slot assignment;
//! * [`score`] — pruning scores;
//! * [`exec`] — the scheduler/executor: entity resolution, event and
//!   path scans, projection, and the baseline execution modes used by
//!   the efficiency experiments (unscheduled, relational-only,
//!   graph-only);
//! * `join` (private) — slot tuples, the execution schedule with each
//!   step's join key, constraint propagation and the hash join;
//! * [`sharded`] — the scatter-gather executor over a
//!   [`threatraptor_storage::sharded::ShardedStore`], with exact parity
//!   to single-store execution: predicates resolve once per pattern
//!   against the store's entity catalog and every shard scans with
//!   the same id sets;
//! * [`result`] — hunt results, per-pattern matches, and evaluation
//!   against ground truth;
//! * [`explain`] — `EXPLAIN` / `EXPLAIN ANALYZE` reports: the compiled
//!   plan (schedule, filters, join keys, predicted fan-out) plus measured
//!   actuals (per-pattern × per-shard rows scanned, propagation prune
//!   sizes, join selectivity, per-stage wall time);
//! * [`delta`] — incremental execution for standing queries: epoch-range
//!   restricted scans joined against retained partial tuples, O(delta)
//!   per poll in the steady state.

pub mod compile;
pub mod delta;
pub mod error;
pub mod exec;
pub mod explain;
mod idset;
mod join;
pub mod result;
pub mod score;
pub mod sharded;

pub use delta::DeltaState;
pub use error::EngineError;
pub use exec::{Engine, ExecMode};
pub use explain::{ExplainActuals, ExplainEntry, ExplainReport, PatternActuals};
pub use result::{DeltaStats, HuntResult, HuntStats, JoinStats, Match};
pub use sharded::ShardedEngine;
