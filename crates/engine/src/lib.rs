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
//! The paper sends each compiled data query to PostgreSQL or Neo4j. Here
//! there is one executor, [`ShardedEngine`], and one data path: typed
//! entity filters evaluate on the store's entity catalog, event patterns
//! scan the shards' event postings, and path patterns expand hop by hop
//! over the subject postings. [`Engine`] is that executor under the name
//! the benchmark's frozen surface uses. The two backends survive as the
//! comparison [`baseline`]s of the efficiency experiments.
//!
//! The read path is **slot-compiled**: [`compile`] gives every entity
//! variable and every pattern a slot (semantic analysis has already
//! resolved `before` pairs to pattern indices, returned attributes to
//! typed fields and filters to typed conditions, so compile looks up no
//! name and fails only on lint errors), so a partial match is a flat tuple
//! (entity id per variable, `(start, end)` and witness positions per
//! pattern) rather than three name-keyed maps. One pattern's data query
//! *resolves* its entity filters — narrowed to the ids earlier
//! patterns bound — to id sets through the plan's memo, which evaluates
//! each filter once per plan and store, then *scans* events with those
//! sets; the fetched rows meet the partial tuples in an
//! **order-preserving hash join** keyed on the already-bound variables
//! (build on the rows, probe per tuple in tuple order, emit each chain in
//! row order — the output order of the nested loop it replaced, which the
//! incremental executor and every parity test rely on). The public,
//! name-keyed [`Match`] is materialized once per delivered match.
//!
//! Modules:
//! * [`compile`] — analyzed TBQL → the executor's plan: per-variable
//!   entity filters, per-pattern shape (typed operations, hop bounds),
//!   all as analysis resolved them, pruning scores, DBM bounds and slot
//!   assignment;
//! * [`filter`] — a variable's entity filter: its kind and the
//!   conditions analysis typed, evaluated on a borrowed entity, rendered
//!   as SQL for EXPLAIN;
//! * [`score`] — pruning scores;
//! * [`exec`] — the scheduler: entity resolution through the plan's
//!   [`exec::ResolveMemo`], the event scan, path expansion, the one
//!   projection step of hunts and polls, and the [`Engine`] name;
//! * [`sharded`] — the executor, scatter-gather over a
//!   [`threatraptor_storage::sharded::ShardedStore`]: filters resolve
//!   once per pattern against the store's entity catalog and every shard,
//!   in turn, scans with the same id sets;
//! * `join` (private) — slot tuples, the execution schedule with each
//!   step's join key, constraint propagation and the hash join;
//! * [`baseline`] — the comparison strategies of the efficiency
//!   experiments (unscheduled, relational-only, graph-only) and the graph
//!   backend's path search, reached only by the paper-table binaries and
//!   tests;
//! * [`reference`](mod@reference) — a naive evaluator of TBQL over plain
//!   entities and events, the test oracle the executors are compared
//!   against;
//! * [`result`] — hunt results, per-pattern matches, and evaluation
//!   against ground truth;
//! * [`explain`] — `EXPLAIN` / `EXPLAIN ANALYZE` reports: the compiled
//!   plan (schedule, filters, join keys, predicted fan-out) plus measured
//!   actuals (per-pattern × per-shard rows scanned, propagation prune
//!   sizes, join selectivity, per-stage wall time);
//! * [`delta`] — incremental execution for standing queries: epoch-range
//!   restricted scans joined against retained partial tuples, O(delta)
//!   per poll in the steady state.

pub mod baseline;
pub mod compile;
pub mod delta;
pub mod error;
pub mod exec;
pub mod explain;
pub mod filter;
mod idset;
mod join;
pub mod reference;
pub mod result;
pub mod score;
pub mod sharded;

pub use delta::DeltaState;
pub use error::EngineError;
pub use exec::{Engine, ExecMode};
pub use explain::{ExplainActuals, ExplainEntry, ExplainReport};
pub use result::{DeltaStats, HuntResult, HuntStats, JoinStats, Match, PatternStats};
pub use sharded::ShardedEngine;
