//! The owning service façade: sharded store + plan cache + scheduler
//! configuration in one long-lived value.

use crate::cache::{CacheStats, PlanCache};
use crate::follow::FollowHunt;
use crate::job::{HuntJob, JobReport, ServiceError};
use crate::scheduler::HuntScheduler;
use std::sync::Arc;
use threatraptor_audit::parser::ParsedLog;
use threatraptor_engine::{ExecMode, HuntResult};
use threatraptor_storage::{AuditStore, ShardedStore};

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of store shards.
    pub shards: usize,
    /// Worker-pool size for batch hunts.
    pub workers: usize,
    /// Per-hunt shard fan-out threads (1 = job-level parallelism only,
    /// the right default when `workers` already covers the cores).
    pub shard_threads: usize,
    /// Apply Causality-Preserved Reduction during ingestion.
    pub cpr: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        ServiceConfig {
            shards: 8,
            workers: cores,
            shard_threads: 1,
            cpr: true,
        }
    }
}

impl ServiceConfig {
    /// Default config with `shards` shards.
    pub fn with_shards(shards: usize) -> ServiceConfig {
        ServiceConfig {
            shards,
            ..ServiceConfig::default()
        }
    }

    /// Sets the worker-pool size.
    pub fn workers(mut self, workers: usize) -> ServiceConfig {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-hunt shard fan-out thread count.
    pub fn shard_threads(mut self, threads: usize) -> ServiceConfig {
        self.shard_threads = threads.max(1);
        self
    }
}

/// A multi-hunt execution service over one ingested log: owns the
/// sharded store and the plan cache, hands batches to a worker pool.
///
/// ```
/// use threatraptor_audit::sim::scenario::ScenarioBuilder;
/// use threatraptor_service::{HuntJob, HuntService, ServiceConfig};
///
/// let scenario = ScenarioBuilder::new().seed(42).target_events(3_000).build();
/// let service = HuntService::from_parsed(&scenario.log, ServiceConfig::with_shards(4));
/// let reports = service.run(vec![
///     HuntJob::tbql(threatraptor_tbql::parser::FIG2_TBQL),
///     HuntJob::report(threatraptor_nlp::pipeline::FIG2_OSCTI_TEXT),
/// ]);
/// assert!(reports.iter().all(|r| !r.outcome.as_ref().unwrap().is_empty()));
/// ```
#[derive(Debug)]
pub struct HuntService {
    store: Arc<ShardedStore>,
    cache: Arc<PlanCache>,
    config: ServiceConfig,
    /// The persistent scheduler: its detached worker pool is shared by
    /// every batch this service runs.
    scheduler: HuntScheduler,
}

impl HuntService {
    /// Ingests a parsed log into `config.shards` shards (parallel, with
    /// global CPR when `config.cpr`).
    pub fn from_parsed(log: &ParsedLog, config: ServiceConfig) -> HuntService {
        let store = ShardedStore::ingest(log, config.cpr, config.shards);
        Self::from_sharded(store, config)
    }

    /// Re-partitions an existing single store (its reduction setting is
    /// kept; `config.cpr` is ignored on this path).
    pub fn from_store(store: &AuditStore, config: ServiceConfig) -> HuntService {
        let store = ShardedStore::from_store(store, config.shards);
        Self::from_sharded(store, config)
    }

    /// Wraps an existing sharded store.
    pub fn from_sharded(store: ShardedStore, config: ServiceConfig) -> HuntService {
        let store = Arc::new(store);
        let cache = Arc::new(PlanCache::new());
        let scheduler = HuntScheduler::new(Arc::clone(&store), Arc::clone(&cache))
            .workers(config.workers)
            .shard_threads(config.shard_threads);
        HuntService {
            store,
            cache,
            config,
            scheduler,
        }
    }

    /// The underlying sharded store.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Plan/synthesis cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The persistent scheduler over this service's store and cache (the
    /// worker pool spawns on the first batch and is reused afterwards).
    pub fn scheduler(&self) -> &HuntScheduler {
        &self.scheduler
    }

    /// Runs a batch of jobs on the worker pool; reports come back in
    /// submission order.
    pub fn run(&self, jobs: Vec<HuntJob>) -> Vec<JobReport> {
        self.scheduler.run(jobs)
    }

    /// Hunts a single TBQL query (through the plan cache).
    pub fn hunt_tbql(&self, tbql: &str) -> Result<HuntResult, ServiceError> {
        self.scheduler.hunt(tbql)
    }

    /// Hunts a single OSCTI report end-to-end (through both caches).
    pub fn hunt_report(&self, report: &str) -> Result<HuntResult, ServiceError> {
        self.run(vec![HuntJob::report(report)])
            .pop()
            .expect("one job in, one report out")
            .outcome
    }

    /// Opens a follow-mode hunt: the query is compiled once through this
    /// service's plan cache and evaluated against the (static) store; the
    /// returned handle can then be polled with successive snapshots of a
    /// *growing* store — typically
    /// [`crate::ingest::IngestService::snapshot`] views — and yields only
    /// the matches that newly appeared. (Polling it again with this
    /// service's own store is free: the store does not grow.)
    pub fn hunt_follow(&self, tbql: &str) -> Result<FollowHunt, ServiceError> {
        let (plan, _) = self.cache.plan(tbql).map_err(ServiceError::from)?;
        let mut follow = FollowHunt::new(plan, ExecMode::Scheduled, self.config.shard_threads);
        follow.poll(&self.store)?;
        Ok(follow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
    use threatraptor_tbql::parser::FIG2_TBQL;

    fn service() -> HuntService {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(4_000)
            .build();
        HuntService::from_parsed(&sc.log, ServiceConfig::with_shards(4).workers(4))
    }

    #[test]
    fn end_to_end_tbql_and_report_hunts() {
        let svc = service();
        let direct = svc.hunt_tbql(FIG2_TBQL).unwrap();
        assert!(!direct.is_empty());
        let via_report = svc
            .hunt_report(threatraptor_nlp::pipeline::FIG2_OSCTI_TEXT)
            .unwrap();
        assert_eq!(direct.rows, via_report.rows);
    }

    #[test]
    fn cache_persists_across_batches() {
        let svc = service();
        svc.run(vec![HuntJob::tbql(FIG2_TBQL)]);
        svc.run(vec![HuntJob::tbql(FIG2_TBQL)]);
        let stats = svc.cache_stats();
        assert_eq!(stats.misses, 1, "second batch must reuse the plan");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn hunt_follow_seeds_from_the_static_store() {
        let svc = service();
        let mut follow = svc.hunt_follow(FIG2_TBQL).unwrap();
        let seeded = follow.result().expect("initial poll ran").clone();
        assert!(!seeded.matches.is_empty());
        assert_eq!(seeded.rows, svc.hunt_tbql(FIG2_TBQL).unwrap().rows);
        // This store never grows: re-polling it is free and empty.
        let delta = follow.poll(svc.store()).unwrap();
        assert!(delta.unchanged);
    }

    #[test]
    fn from_store_re_partitions() {
        let sc = ScenarioBuilder::new().seed(7).target_events(2_000).build();
        let single = AuditStore::ingest(&sc.log, true);
        let svc = HuntService::from_store(&single, ServiceConfig::with_shards(3));
        assert_eq!(svc.store().shard_count(), 3);
        assert_eq!(svc.store().event_count(), single.event_count());
    }
}
