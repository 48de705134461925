//! The concurrent hunt scheduler: a persistent worker pool draining a
//! shared job queue against one sharded store.
//!
//! Workers are **detached threads** pulling jobs from a shared bounded
//! queue (see [`crate::pool::WorkerPool`]) — no per-worker queues (hunt
//! latencies vary by orders of magnitude, so work stealing by
//! construction beats static assignment), and no per-batch thread
//! spawning: the pool is created once, lives as long as the scheduler,
//! and successive batches reuse it. Each worker resolves its job to a
//! compiled plan through the shared [`PlanCache`], executes it with a
//! [`ShardedEngine`], and sends the report back tagged with the job's
//! submission index — so the merged batch output is deterministic
//! regardless of worker interleaving. A job that panics produces a
//! [`ServiceError::Worker`] report; the worker itself survives.

use crate::cache::PlanCache;
use crate::job::{HuntJob, JobReport, ServiceError};
use crate::pool::WorkerPool;
use crossbeam::channel::unbounded;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use threatraptor_engine::{ExecMode, HuntResult, ShardedEngine};
use threatraptor_storage::ShardedStore;

/// Renders a caught panic payload as text for [`ServiceError::Worker`].
pub(crate) fn panic_text(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".into())
}

/// Resolves and executes one job against one store snapshot, catching
/// panics into [`ServiceError::Worker`]. Shared by the scheduler's
/// workers and the [`crate::server::HuntServer`] job queue.
pub(crate) fn execute_job(
    store: &ShardedStore,
    cache: &PlanCache,
    shard_threads: usize,
    index: usize,
    job: &HuntJob,
) -> JobReport {
    let t0 = Instant::now();
    let (tbql, cache_hit, outcome) = catch_unwind(AssertUnwindSafe(|| {
        resolve_and_execute(store, cache, shard_threads, job)
    }))
    .unwrap_or_else(|payload| {
        (
            None,
            false,
            Err(ServiceError::Worker(panic_text(&*payload))),
        )
    });
    JobReport {
        index,
        job: job.clone(),
        tbql,
        outcome,
        cache_hit,
        elapsed: t0.elapsed(),
    }
}

fn resolve_and_execute(
    store: &ShardedStore,
    cache: &PlanCache,
    shard_threads: usize,
    job: &HuntJob,
) -> (Option<String>, bool, Result<HuntResult, ServiceError>) {
    let tbql_src = match job {
        HuntJob::Tbql(src) => src.clone(),
        HuntJob::Report(text) => match cache.synthesize_report(text) {
            Ok(tbql) => tbql,
            Err(e) => return (None, false, Err(ServiceError::Synthesis(e))),
        },
    };
    let (plan, cache_hit) = match cache.plan(&tbql_src) {
        Ok(v) => v,
        Err(e) => return (Some(tbql_src), false, Err(ServiceError::from(e))),
    };
    let engine = ShardedEngine::with_threads(store, shard_threads);
    let outcome = engine
        .execute(&plan.compiled, ExecMode::Scheduled)
        .map_err(ServiceError::from);
    (Some(plan.tbql.clone()), cache_hit, outcome)
}

/// A scheduler owning shared handles on a store and a plan cache, plus a
/// lazily spawned persistent worker pool. The long-lived state (store,
/// cache) is shared by [`Arc`]; the pool spawns on the first batch and is
/// reused by every later one, so configure worker counts (builder
/// methods) before the first [`HuntScheduler::run`].
#[derive(Debug)]
pub struct HuntScheduler {
    store: Arc<ShardedStore>,
    cache: Arc<PlanCache>,
    workers: usize,
    shard_threads: usize,
    pool: OnceLock<WorkerPool>,
}

impl HuntScheduler {
    /// A scheduler with one worker per available core. Per-hunt shard
    /// fan-out defaults to sequential (`shard_threads = 1`): with many
    /// concurrent hunts, the job level is the right place to spend cores,
    /// and nesting both levels oversubscribes the pool.
    pub fn new(store: Arc<ShardedStore>, cache: Arc<PlanCache>) -> HuntScheduler {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        HuntScheduler {
            store,
            cache,
            workers,
            shard_threads: 1,
            pool: OnceLock::new(),
        }
    }

    /// Sets the worker-pool size (clamped to at least 1). Takes effect if
    /// called before the first batch; the pool spawns once.
    pub fn workers(mut self, workers: usize) -> HuntScheduler {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-hunt shard fan-out thread count.
    pub fn shard_threads(mut self, threads: usize) -> HuntScheduler {
        self.shard_threads = threads.max(1);
        self
    }

    /// Configured worker count.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    fn pool(&self) -> &WorkerPool {
        // Queue depth 2× the workers: enough to keep every worker fed
        // while the submitter is parked, small enough that backpressure
        // engages before a runaway batch buffers unboundedly.
        self.pool
            .get_or_init(|| WorkerPool::new(self.workers, self.workers * 2))
    }

    /// Runs a batch of jobs to completion on the worker pool and returns
    /// reports in submission order. Submission applies backpressure: once
    /// the shared queue is full this blocks until workers catch up.
    pub fn run(&self, jobs: Vec<HuntJob>) -> Vec<JobReport> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let (done_tx, done_rx) = unbounded::<JobReport>();
        let pool = self.pool();
        for (index, job) in jobs.into_iter().enumerate() {
            let store = Arc::clone(&self.store);
            let cache = Arc::clone(&self.cache);
            let shard_threads = self.shard_threads;
            let tx = done_tx.clone();
            pool.submit(Box::new(move || {
                let _ = tx.send(execute_job(&store, &cache, shard_threads, index, &job));
            }))
            .expect("the scheduler's pool lives as long as the scheduler");
        }
        drop(done_tx);

        // Workers finished in arbitrary order; the channel disconnects
        // once the last task's sender clone is dropped.
        let mut slots: Vec<Option<JobReport>> = (0..n).map(|_| None).collect();
        for report in done_rx.iter() {
            let index = report.index;
            slots[index] = Some(report);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every job reports exactly once"))
            .collect()
    }

    /// Executes one job directly on the calling thread (no pool).
    pub fn run_job(&self, index: usize, job: &HuntJob) -> JobReport {
        execute_job(&self.store, &self.cache, self.shard_threads, index, job)
    }

    /// Convenience single hunt for a TBQL query through the cache.
    pub fn hunt(&self, tbql: &str) -> Result<HuntResult, ServiceError> {
        self.run_job(0, &HuntJob::tbql(tbql)).outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
    use threatraptor_tbql::parser::FIG2_TBQL;

    fn store() -> Arc<ShardedStore> {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage, AttackKind::PasswordCrack])
            .target_events(5_000)
            .build();
        Arc::new(ShardedStore::ingest(&sc.log, true, 4))
    }

    #[test]
    fn batch_reports_come_back_in_submission_order() {
        let store = store();
        let cache = Arc::new(PlanCache::new());
        let sched = HuntScheduler::new(store, Arc::clone(&cache)).workers(4);
        let jobs: Vec<HuntJob> = (0..12)
            .map(|i| {
                if i % 2 == 0 {
                    HuntJob::tbql(FIG2_TBQL)
                } else {
                    HuntJob::tbql("proc p[\"%/bin/ghost%\"] read file f return p")
                }
            })
            .collect();
        let reports = sched.run(jobs);
        assert_eq!(reports.len(), 12);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.index, i);
            let result = r.outcome.as_ref().expect("valid TBQL executes");
            assert_eq!(result.is_empty(), i % 2 != 0, "job {i}");
        }
        // 2 distinct plans retained; concurrent first touches may each
        // count a miss (up to one per worker per plan), so bound hits
        // from below by the worst-case race rather than exactly.
        let s = cache.stats();
        assert_eq!(s.plans, 2);
        assert_eq!(s.hits + s.misses, 12);
        assert!(s.hits >= 12 - 2 * 4, "too few cache hits: {}", s.hits);
    }

    #[test]
    fn the_pool_is_reused_across_batches() {
        let store = store();
        let cache = Arc::new(PlanCache::new());
        let sched = HuntScheduler::new(store, cache).workers(2);
        for _ in 0..3 {
            let reports = sched.run(vec![HuntJob::tbql(FIG2_TBQL); 4]);
            assert!(reports.iter().all(|r| r.outcome.is_ok()));
        }
    }

    #[test]
    fn report_jobs_synthesize_then_hunt() {
        let store = store();
        let cache = Arc::new(PlanCache::new());
        let sched = HuntScheduler::new(store, cache).workers(2);
        let reports = sched.run(vec![
            HuntJob::report(threatraptor_nlp::pipeline::FIG2_OSCTI_TEXT),
            HuntJob::report("Nothing interesting happened today."),
        ]);
        let ok = &reports[0];
        assert!(ok.tbql.as_deref().unwrap().contains("%/bin/tar%"));
        assert!(!ok.outcome.as_ref().unwrap().is_empty());
        let bad = &reports[1];
        assert!(matches!(bad.outcome, Err(ServiceError::Synthesis(_))));
        assert!(bad.tbql.is_none());
    }

    #[test]
    fn bad_tbql_surfaces_engine_error() {
        let store = store();
        let cache = Arc::new(PlanCache::new());
        let sched = HuntScheduler::new(store, cache);
        let err = sched.hunt("totally broken").unwrap_err();
        assert!(matches!(err, ServiceError::Engine(_)));
    }

    #[test]
    fn empty_batch_is_fine() {
        let store = store();
        let cache = Arc::new(PlanCache::new());
        let reports = HuntScheduler::new(store, cache).run(Vec::new());
        assert!(reports.is_empty());
    }
}
