//! The shared worker pool: detached threads draining one bounded task
//! queue.
//!
//! The hunt server's ad-hoc jobs run here. A long-lived server needs
//! threads that outlive any one submission, a queue that absorbs bursts,
//! and a way to push back on producers:
//!
//! * workers are **detached** `'static` threads spawned once, pulling
//!   tasks from a shared multi-consumer channel
//!   ([`crossbeam::channel`]) — idle workers cost nothing but a parked
//!   thread;
//! * the queue is **bounded**: submission blocks when full
//!   (backpressure), so a slow pool throttles producers instead of
//!   buffering unboundedly;
//! * a panicking task is caught in the worker loop — the worker survives
//!   and moves on to the next task (task-level error reporting is the
//!   submitter's job, e.g. via [`crate::job::ServiceError::Worker`]);
//! * [`WorkerPool::shutdown`] is graceful: the queue stops accepting new
//!   tasks, already queued tasks drain, and every worker is joined.

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use threatraptor_obs::{Counter, Gauge, Registry};
use threatraptor_sync::thread::JoinHandle;
use threatraptor_sync::{Arc, Mutex, PoisonError};

/// A unit of pool work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Why a submission did not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity (only from [`WorkerPool::try_submit`]).
    Full,
    /// The pool has been shut down.
    Shutdown,
}

/// Registry handles for pool telemetry, shared by every worker thread.
#[derive(Debug, Clone)]
struct PoolObs {
    /// `job_queue_depth`: tasks enqueued but not yet picked up.
    queue_depth: Arc<Gauge>,
    /// `pool_tasks_completed_total`: tasks a worker finished (panicking
    /// tasks count — the worker survived and completed the dispatch).
    completed: Arc<Counter>,
    /// `pool_rejected_total`: submissions refused (queue full or pool
    /// shut down).
    rejected: Arc<Counter>,
}

/// A fixed-size pool of detached worker threads behind a bounded queue.
#[derive(Debug)]
pub struct WorkerPool {
    /// `None` once shut down; dropping the sender disconnects the queue.
    tx: Mutex<Option<Sender<Task>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
    /// Telemetry handles, when built via [`WorkerPool::with_metrics`].
    obs: Option<PoolObs>,
}

impl WorkerPool {
    /// Spawns `workers` detached threads (clamped to ≥ 1) sharing one
    /// queue of at most `queue_capacity` pending tasks (clamped to ≥ 1).
    pub fn new(workers: usize, queue_capacity: usize) -> WorkerPool {
        Self::build(workers, queue_capacity, None)
    }

    /// [`WorkerPool::new`] with pool telemetry registered on `registry`:
    /// a `job_queue_depth` gauge plus `pool_tasks_completed_total` and
    /// `pool_rejected_total` counters. Attached at construction because
    /// the worker threads capture their handles at spawn time.
    pub fn with_metrics(workers: usize, queue_capacity: usize, registry: &Registry) -> WorkerPool {
        let obs = PoolObs {
            queue_depth: registry.gauge("job_queue_depth"),
            completed: registry.counter("pool_tasks_completed_total"),
            rejected: registry.counter("pool_rejected_total"),
        };
        Self::build(workers, queue_capacity, Some(obs))
    }

    fn build(workers: usize, queue_capacity: usize, obs: Option<PoolObs>) -> WorkerPool {
        let workers = workers.max(1);
        let (tx, rx) = bounded::<Task>(queue_capacity.max(1));
        let handles = (0..workers)
            .map(|i| {
                let rx: Receiver<Task> = rx.clone();
                let obs = obs.clone();
                threatraptor_sync::thread::Builder::new()
                    .name(format!("hunt-worker-{i}"))
                    .spawn(move || {
                        // recv drains buffered tasks even after the
                        // sender is dropped, then disconnects — exactly
                        // the graceful-shutdown order we want.
                        while let Ok(task) = rx.recv() {
                            if let Some(obs) = &obs {
                                obs.queue_depth.dec();
                            }
                            // A panicking task must not kill the worker:
                            // the pool serves unrelated tenants.
                            let _ = catch_unwind(AssertUnwindSafe(task));
                            if let Some(obs) = &obs {
                                obs.completed.inc();
                            }
                        }
                    })
                    .expect("spawning a worker thread")
            })
            .collect();
        WorkerPool {
            tx: Mutex::new(Some(tx)),
            handles: Mutex::new(handles),
            workers,
            obs,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Enqueues a task, blocking while the queue is full (backpressure).
    /// Fails only after [`WorkerPool::shutdown`].
    pub fn submit(&self, task: Task) -> Result<(), SubmitError> {
        // Clone the sender out of the lock so a blocking send doesn't
        // hold it (shutdown must stay reachable while producers block).
        let tx = self
            .tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let outcome = match tx {
            Some(tx) => {
                // Count the task as queued before the (possibly
                // blocking) send so the gauge covers backpressured
                // producers too; rolled back on failure.
                if let Some(obs) = &self.obs {
                    obs.queue_depth.inc();
                }
                let sent = tx.send(task).map_err(|_| SubmitError::Shutdown);
                if sent.is_err() {
                    if let Some(obs) = &self.obs {
                        obs.queue_depth.dec();
                    }
                }
                sent
            }
            None => Err(SubmitError::Shutdown),
        };
        if outcome.is_err() {
            if let Some(obs) = &self.obs {
                obs.rejected.inc();
            }
        }
        outcome
    }

    /// Non-blocking submission: fails fast when the queue is full.
    pub fn try_submit(&self, task: Task) -> Result<(), SubmitError> {
        let tx = self
            .tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let outcome = match tx {
            Some(tx) => {
                if let Some(obs) = &self.obs {
                    obs.queue_depth.inc();
                }
                let sent = tx.try_send(task).map_err(|e| match e {
                    TrySendError::Full(_) => SubmitError::Full,
                    TrySendError::Disconnected(_) => SubmitError::Shutdown,
                });
                if sent.is_err() {
                    if let Some(obs) = &self.obs {
                        obs.queue_depth.dec();
                    }
                }
                sent
            }
            None => Err(SubmitError::Shutdown),
        };
        if outcome.is_err() {
            if let Some(obs) = &self.obs {
                obs.rejected.inc();
            }
        }
        outcome
    }

    /// Graceful shutdown: stops accepting tasks, lets queued tasks drain,
    /// joins every worker. Idempotent; called automatically on drop.
    pub fn shutdown(&self) {
        let tx = self
            .tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        drop(tx); // disconnects the queue once in-flight clones finish
        let handles =
            std::mem::take(&mut *self.handles.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Seeded deadlock (mutant CI job): two probes that nest the pool's two
/// locks in opposite orders — `tx` under `handles` in one, `handles`
/// under `tx` in the other. Real code never nests them (guards are
/// statement-local temporaries), so the lint's lock-order graph is
/// acyclic on the real tree; `threatraptor-lint --include-mutants` must
/// flag this cycle as L002.
#[cfg(check_mutants)]
impl WorkerPool {
    pub fn mutant_probe_handles_then_tx(&self) -> usize {
        let handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        let tx = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
        handles.len() + usize::from(tx.is_some())
    }

    pub fn mutant_probe_tx_then_handles(&self) -> usize {
        let tx = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
        let handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        handles.len() + usize::from(tx.is_some())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn tasks_run_and_shutdown_drains_the_queue() {
        let pool = WorkerPool::new(2, 4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 32, "queued tasks must drain");
        assert_eq!(
            pool.submit(Box::new(|| {})),
            Err(SubmitError::Shutdown),
            "a shut-down pool must reject new tasks"
        );
    }

    #[test]
    fn panicking_tasks_do_not_kill_workers() {
        let pool = WorkerPool::new(1, 4);
        let done = Arc::new(AtomicUsize::new(0));
        pool.submit(Box::new(|| panic!("task boom"))).unwrap();
        let d = Arc::clone(&done);
        pool.submit(Box::new(move || {
            d.fetch_add(1, Ordering::SeqCst);
        }))
        .unwrap();
        pool.shutdown();
        assert_eq!(
            done.load(Ordering::SeqCst),
            1,
            "the single worker must survive the panic and run the next task"
        );
    }

    #[test]
    fn metrics_track_queue_depth_and_completions() {
        let registry = Registry::new();
        let pool = WorkerPool::with_metrics(1, 2, &registry);
        let (block_tx, block_rx) = crossbeam::channel::bounded::<()>(1);
        // Occupy the worker so queued tasks pile up measurably.
        pool.submit(Box::new(move || {
            let _ = block_rx.recv();
        }))
        .unwrap();
        pool.submit(Box::new(|| {})).unwrap();
        // A rejected try_submit must not leave a phantom queue entry.
        let mut rejected = 0;
        while pool.try_submit(Box::new(|| {})) == Err(SubmitError::Full) {
            rejected += 1;
            if rejected >= 1 {
                break;
            }
        }
        let depth = registry.gauge("job_queue_depth").get();
        assert!(
            (1..=2).contains(&depth),
            "blocked worker → 1-2 queued tasks, saw {depth}"
        );
        block_tx.send(()).unwrap();
        pool.shutdown();
        assert_eq!(pool.submit(Box::new(|| {})), Err(SubmitError::Shutdown));
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("job_queue_depth"), Some(0), "drained");
        let completed = snap.counter("pool_tasks_completed_total").unwrap();
        assert!(completed >= 2, "both real tasks completed");
        assert_eq!(
            snap.counter("pool_rejected_total"),
            Some(rejected as u64 + 1),
            "the Full rejections plus the post-shutdown probe"
        );
    }

    #[test]
    fn try_submit_reports_a_full_queue() {
        let pool = WorkerPool::new(1, 1);
        let (block_tx, block_rx) = crossbeam::channel::bounded::<()>(1);
        // Occupy the worker…
        pool.submit(Box::new(move || {
            let _ = block_rx.recv();
        }))
        .unwrap();
        // …then fill the queue; at some point try_submit must push back.
        let mut saw_full = false;
        for _ in 0..8 {
            if pool.try_submit(Box::new(|| {})) == Err(SubmitError::Full) {
                saw_full = true;
                break;
            }
        }
        block_tx.send(()).unwrap();
        assert!(saw_full, "a bounded queue must report Full under load");
        pool.shutdown();
    }
}
