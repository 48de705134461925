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

use crossbeam::channel::{bounded, Receiver, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use threatraptor_obs::{Gauge, Registry};
use threatraptor_sync::thread::JoinHandle;
use threatraptor_sync::{Arc, Mutex, PoisonError};

/// A unit of pool work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Why a submission did not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The pool has been shut down.
    Shutdown,
}

/// A fixed-size pool of detached worker threads behind a bounded queue.
#[derive(Debug)]
pub struct WorkerPool {
    /// `None` once shut down; dropping the sender disconnects the queue.
    tx: Mutex<Option<Sender<Task>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// `job_queue_depth`: tasks enqueued but not yet picked up, shared
    /// by every worker thread.
    queue_depth: Arc<Gauge>,
}

impl WorkerPool {
    /// Spawns `workers` detached threads (clamped to ≥ 1) sharing one
    /// queue of at most `queue_capacity` pending tasks (clamped to ≥ 1).
    /// Pool telemetry goes to `registry`: a `job_queue_depth` gauge,
    /// resolved here because the worker threads capture it at spawn
    /// time. Completions and rejections are the submitter's to count.
    pub fn new(workers: usize, queue_capacity: usize, registry: &Registry) -> WorkerPool {
        let queue_depth = registry.gauge("job_queue_depth");
        let workers = workers.max(1);
        let (tx, rx) = bounded::<Task>(queue_capacity.max(1));
        let handles = (0..workers)
            .map(|i| {
                let rx: Receiver<Task> = rx.clone();
                let queue_depth = Arc::clone(&queue_depth);
                threatraptor_sync::thread::Builder::new()
                    .name(format!("hunt-worker-{i}"))
                    .spawn(move || {
                        // recv drains buffered tasks even after the
                        // sender is dropped, then disconnects — exactly
                        // the graceful-shutdown order we want.
                        while let Ok(task) = rx.recv() {
                            queue_depth.dec();
                            // A panicking task must not kill the worker:
                            // the pool serves unrelated tenants.
                            let _ = catch_unwind(AssertUnwindSafe(task));
                        }
                    })
                    .expect("spawning a worker thread")
            })
            .collect();
        WorkerPool {
            tx: Mutex::new(Some(tx)),
            handles: Mutex::new(handles),
            queue_depth,
        }
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
        let Some(tx) = tx else {
            return Err(SubmitError::Shutdown);
        };
        // Count the task as queued before the (possibly blocking) send
        // so the gauge covers backpressured producers too; rolled back
        // on failure.
        self.queue_depth.inc();
        let sent = tx.send(task).map_err(|_| SubmitError::Shutdown);
        if sent.is_err() {
            self.queue_depth.dec();
        }
        sent
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
        let pool = WorkerPool::new(2, 4, &Registry::new());
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
        let pool = WorkerPool::new(1, 4, &Registry::new());
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
        let pool = WorkerPool::new(1, 2, &registry);
        let (block_tx, block_rx) = crossbeam::channel::bounded::<()>(1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        // Occupy the worker so queued tasks pile up measurably.
        pool.submit(Box::new(move || {
            let _ = block_rx.recv();
            d.fetch_add(1, Ordering::SeqCst);
        }))
        .unwrap();
        let d = Arc::clone(&done);
        pool.submit(Box::new(move || {
            d.fetch_add(1, Ordering::SeqCst);
        }))
        .unwrap();
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
        // Completions are the tasks' own to report; the pool counts none.
        assert_eq!(done.load(Ordering::SeqCst), 2, "both real tasks completed");
        assert!(
            snap.samples.iter().all(|s| !s.name.starts_with("pool_")),
            "the server counts completions and rejections"
        );
    }
}
