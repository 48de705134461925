//! # threatraptor-service
//!
//! The hunt server: everything between "one parsed log, one query at a
//! time" and "a live store serving concurrent hunt traffic".
//!
//! The reproduction's base pipeline (paper Fig. 1) is strictly
//! single-hunt: one [`ShardedStore`] of a finished log, one query, one
//! result. Production threat hunting is not — intelligence arrives
//! continuously, analysts and automation hunt concurrently, and the same
//! queries recur across time windows and re-runs. [`server::HuntServer`] is the one front
//! door for that: every hunt enters through
//! [`submit`](server::HuntServer::submit) /
//! [`hunt`](server::HuntServer::hunt) (ad hoc, TBQL or OSCTI text) or
//! [`follow`](server::HuntServer::follow) (standing). Its pieces:
//!
//! * [`job::HuntJob`] — a unit of hunt work: raw OSCTI text *or* TBQL;
//! * [`cache::PlanCache`] — compiled plans keyed by normalized query
//!   text, shared by all workers, with LRU eviction;
//! * [`pool::WorkerPool`] — detached worker threads draining one bounded
//!   task queue: backpressure on overflow, panic isolation, graceful
//!   drain-then-join shutdown;
//! * [`ingest::IngestService`] — the ingest layer: a thread-safe
//!   front-end over a [`StreamingStore`] accepting appended log chunks
//!   and handing out immutable snapshots, with epoch notification hooks
//!   for event-driven consumers;
//! * [`follow::FollowHunt`] — the standing-query building block: poll
//!   it with successive snapshots, get only the newly appeared matches
//!   (exactly-once per match identity) merged into a running result;
//! * [`profile::HuntProfile`] — per-job execution profiles (trace tree
//!   plus headline timings), retained worst-N by latency in the
//!   server's slow-hunt log.
//!
//! Execution inside each job uses
//! [`threatraptor_engine::ShardedEngine`], whose scatter-gather returns
//! the same result over any shard count (shards are scanned per data
//! query; joins stay global).
//!
//! [`ShardedStore`]: threatraptor_storage::ShardedStore
//! [`StreamingStore`]: threatraptor_storage::StreamingStore

pub mod cache;
pub mod follow;
pub mod ingest;
pub mod job;
pub mod pool;
pub mod profile;
pub mod server;

pub use cache::{normalize_tbql, CacheStats, CachedPlan, PlanCache};
pub use follow::{FollowDelta, FollowHunt};
pub use ingest::{IngestConfig, IngestService, IngestStatus};
pub use job::{HuntJob, JobReport, ServiceError};
pub use pool::{SubmitError, WorkerPool};
pub use profile::HuntProfile;
pub use server::{FollowEvent, FollowSubscription, HuntServer, JobHandle, JobId, ServerConfig};
