//! The ingest layer: a thread-safe front-end over a live
//! [`StreamingStore`], owned by the [`HuntServer`].
//!
//! Collectors push parsed [`LogChunk`]s in with
//! [`IngestService::append`]; hunts run *while ingestion is in flight*
//! against immutable [`IngestService::snapshot`]s, so appends never
//! block on hunts and hunts never observe a half-applied batch. This
//! type runs no hunts itself: ad-hoc and standing queries enter through
//! the [`HuntServer`], and a hand-driven [`crate::follow::FollowHunt`]
//! polls `hunt.poll(&service.snapshot())`.
//!
//! Locking discipline: appends and seals take the write lock for the
//! (incremental, open-window-bounded) reduction step only. Snapshots
//! hold the read lock just long enough to clone Arc handles of the
//! sealed shards and materialize the open window's event list; the
//! expensive part — indexing the open window into a queryable shard —
//! runs outside any lock. Lock poisoning is recovered from, never
//! propagated — the availability-over-purity tradeoff of a long-lived
//! server: a panic that poisons this lock can only come from the write
//! path itself (read guards do not poison a `RwLock`), i.e. from an
//! internal invariant violation inside append/seal. Recovering there
//! risks continuing on a partially applied batch; propagating would
//! instead panic every future request on every thread, forever. The
//! mitigations: append validates its input (the entity-id sequence
//! assert) *before* mutating anything, and the mutation itself is plain
//! buffer bookkeeping with no unwind paths in normal operation.
//!
//! Change notification: every append and seal bumps the stream's epoch
//! (a lock-free counter shared via
//! [`threatraptor_storage::StreamingStore::epoch_handle`]) and wakes
//! anything blocked in [`IngestService::wait_epoch_newer`] — the hook
//! the server's dispatcher hangs off so standing queries are driven by
//! ingest events instead of explicit polls.
//!
//! [`HuntServer`]: crate::server::HuntServer

use crate::cache::{CacheStats, PlanCache, DEFAULT_PLAN_CAPACITY};
use std::time::{Duration, Instant};
use threatraptor_audit::parser::LogChunk;
use threatraptor_obs::{Histogram, MetricsSnapshot, Registry};
use threatraptor_storage::cpr::ReductionStats;
use threatraptor_storage::{AppendOutcome, SealPolicy, ShardedStore, StreamingStore};
use threatraptor_sync::atomic::{AtomicU64, Ordering};
use threatraptor_sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

/// Construction parameters for an [`IngestService`]. The service
/// always applies Causality-Preserved Reduction at the ingest frontier.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// When to freeze the open window into an immutable shard.
    pub policy: SealPolicy,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig::with_policy(SealPolicy::events(4_096))
    }
}

impl IngestConfig {
    /// Default config with the given seal policy.
    pub fn with_policy(policy: SealPolicy) -> IngestConfig {
        IngestConfig { policy }
    }
}

/// The ingest path's stage timers, `serve_stage_ns{stage=…}`, resolved
/// once when the service is built.
#[derive(Debug)]
struct IngestObs {
    /// `ingest_append`: one whole append under the write lock.
    append: Arc<Histogram>,
    /// `entity_extend` / `compact`: an append's share spent extending
    /// the entity tables / compacting, recorded when it did either.
    entity_extend: Arc<Histogram>,
    compact: Arc<Histogram>,
    /// `seal`: one manual seal under the write lock.
    seal: Arc<Histogram>,
    /// `snapshot_build`: one snapshot, lock plus open-window indexing.
    snapshot_build: Arc<Histogram>,
}

impl IngestObs {
    fn new(registry: &Registry) -> IngestObs {
        let stage = |stage| registry.histogram_labeled("serve_stage_ns", &[("stage", stage)]);
        IngestObs {
            append: stage("ingest_append"),
            entity_extend: stage("entity_extend"),
            compact: stage("compact"),
            seal: stage("seal"),
            snapshot_build: stage("snapshot_build"),
        }
    }
}

/// A point-in-time description of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStatus {
    /// Sealed (immutable) shards so far.
    pub sealed_shards: usize,
    /// Events currently in the open window (after reduction).
    pub open_events: usize,
    /// Total stored events (sealed + open).
    pub total_events: usize,
    /// Entities registered so far.
    pub entities: usize,
    /// Stream-global reduction statistics.
    pub reduction: ReductionStats,
    /// Change counter (bumps on every append/seal).
    pub epoch: u64,
}

/// A live, continuously snapshottable store plus the plan cache its
/// server's jobs and standing queries share.
///
/// ```
/// use threatraptor_audit::LogFeed;
/// use threatraptor_audit::sim::scenario::ScenarioBuilder;
/// use threatraptor_engine::ShardedEngine;
/// use threatraptor_service::{IngestConfig, IngestService};
///
/// let scenario = ScenarioBuilder::new().seed(42).target_events(2_000).build();
/// let service = IngestService::new(IngestConfig::default());
/// for chunk in LogFeed::by_events(&scenario.raw, 500) {
///     service.append(&chunk.unwrap());
///     // Snapshots (and hunts over them) are allowed at any point mid-ingest.
///     let snapshot = service.snapshot();
///     let _ = ShardedEngine::new(&snapshot).hunt(threatraptor_tbql::parser::FIG2_TBQL);
/// }
/// assert_eq!(service.status().total_events, service.snapshot().event_count());
/// ```
#[derive(Debug)]
pub struct IngestService {
    stream: RwLock<StreamingStore>,
    cache: PlanCache,
    /// Lock-free mirror of the stream's epoch counter
    /// ([`StreamingStore::epoch_handle`]): change detection without the
    /// stream lock.
    epoch: Arc<AtomicU64>,
    /// Wakeup gate for epoch waiters. The condvar's mutex guards nothing
    /// — the epoch atomic is the actual state — but notifying under it
    /// closes the check-then-wait race in [`IngestService::wait_epoch_newer`].
    gate: Mutex<()>,
    gate_cond: Condvar,
    /// This service's metric registry: the stream, the plan cache, and
    /// the owning server's jobs and standing queries record here.
    /// Per-instance so co-hosted services — per-tenant deployments —
    /// keep separate telemetry.
    registry: Arc<Registry>,
    obs: IngestObs,
}

impl IngestService {
    /// An empty service with a fresh plan cache.
    pub fn new(config: IngestConfig) -> IngestService {
        let registry = Arc::new(Registry::new());
        let mut stream = StreamingStore::new(true, config.policy);
        stream.attach_metrics(&registry);
        let cache = PlanCache::with_capacity(DEFAULT_PLAN_CAPACITY, &registry);
        let epoch = stream.epoch_handle();
        IngestService {
            stream: RwLock::new(stream),
            cache,
            epoch,
            gate: Mutex::new(()),
            gate_cond: Condvar::new(),
            obs: IngestObs::new(&registry),
            registry,
        }
    }

    /// This service's metric registry. Attach additional components
    /// here (e.g. a server's worker pool) so one snapshot covers the
    /// whole instance.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A point-in-time snapshot of every metric recorded by this
    /// service: storage counters, cache counters, hunt/serve stage
    /// timings, follow-hunt totals.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Appends one parsed chunk, auto-sealing under the policy, and wakes
    /// epoch waiters.
    pub fn append(&self, chunk: &LogChunk) -> AppendOutcome {
        let start = Instant::now();
        let outcome = self
            .stream
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .append(chunk);
        self.obs.append.record_duration(start.elapsed());
        if outcome.new_entities > 0 {
            self.obs
                .entity_extend
                .record_duration(outcome.entity_extend);
        }
        if !outcome.compact.is_zero() {
            self.obs.compact.record_duration(outcome.compact);
        }
        self.notify();
        outcome
    }

    /// Manually freezes the open window's stable prefix into an immutable
    /// shard. Returns whether anything was sealed.
    pub fn seal(&self) -> bool {
        let start = Instant::now();
        let sealed = self
            .stream
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .seal()
            .is_some();
        self.obs.seal.record_duration(start.elapsed());
        if sealed {
            self.notify();
        }
        sealed
    }

    /// An immutable snapshot of everything appended so far (sealed shards
    /// shared by reference, open window materialized). The read lock is
    /// held only for the cheap parts extraction; indexing the open
    /// window happens after it is released.
    pub fn snapshot(&self) -> ShardedStore {
        let start = Instant::now();
        let parts = self
            .stream
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot_parts();
        let store = parts.build();
        self.obs.snapshot_build.record_duration(start.elapsed());
        store
    }

    /// Current stream epoch — one atomic load, no lock. Differs between
    /// two observations iff an append or seal happened in between.
    pub fn epoch(&self) -> u64 {
        // ordering: Acquire pairs with the stream's Release bumps — an
        // observed epoch guarantees its chunk is visible in snapshots.
        self.epoch.load(Ordering::Acquire)
    }

    /// Blocks until the stream epoch advances past `last`, `timeout`
    /// elapses, or [`IngestService::poke`] wakes the waiter; returns the
    /// epoch current at wakeup (callers loop — spurious wakeups return
    /// an unchanged epoch). This is the push half of event-driven
    /// standing queries: a dispatcher parks here instead of polling.
    pub fn wait_epoch_newer(&self, last: u64, timeout: Duration) -> u64 {
        // `None` (a timeout past the clock's range) means no deadline.
        let deadline = Instant::now().checked_add(timeout);
        let mut guard = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let current = self.epoch();
            if current != last {
                return current;
            }
            let now = Instant::now();
            if deadline.is_some_and(|deadline| now >= deadline) {
                return current;
            }
            let (g, _) = self
                .gate_cond
                .wait_timeout(
                    guard,
                    deadline.map_or(Duration::MAX, |deadline| deadline - now),
                )
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
            // Poked without an epoch change: report the (unchanged)
            // epoch so the caller can re-check its own exit conditions.
            if self.epoch() == last {
                return last;
            }
        }
    }

    /// Wakes every [`IngestService::wait_epoch_newer`] waiter without an
    /// epoch change — used on shutdown so dispatchers can re-check their
    /// exit flag instead of sleeping out their timeout.
    pub fn poke(&self) {
        let _guard = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        self.gate_cond.notify_all();
    }

    fn notify(&self) {
        // Lock-then-notify (empty critical section) so a waiter that just
        // re-checked the epoch cannot miss the wakeup.
        let _guard = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        self.gate_cond.notify_all();
    }

    /// Current stream state.
    pub fn status(&self) -> IngestStatus {
        let stream = self.stream.read().unwrap_or_else(PoisonError::into_inner);
        IngestStatus {
            sealed_shards: stream.sealed_count(),
            open_events: stream.open_len(),
            total_events: stream.event_count(),
            entities: stream.catalog().len(),
            reduction: stream.reduction(),
            epoch: stream.epoch(),
        }
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The shared plan cache (standing queries and ad-hoc jobs resolve
    /// through the same one).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::follow::FollowHunt;
    use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
    use threatraptor_audit::LogFeed;
    use threatraptor_engine::{ExecMode, ShardedEngine};
    use threatraptor_tbql::parser::FIG2_TBQL;

    fn scenario() -> threatraptor_audit::sim::scenario::Scenario {
        ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(4_000)
            .build()
    }

    #[test]
    fn replayed_feed_matches_batch_ingestion() {
        let sc = scenario();
        let service = IngestService::new(IngestConfig::with_policy(SealPolicy::events(500)));
        for chunk in LogFeed::by_events(&sc.raw, 300) {
            service.append(&chunk.unwrap());
        }
        // Every chunk of a fresh log brings entities: the append's entity
        // share is visible beside the whole append.
        let metrics = service.metrics();
        let appends = metrics
            .histogram("serve_stage_ns", &[("stage", "ingest_append")])
            .expect("append stage")
            .count;
        let extends = metrics
            .histogram("serve_stage_ns", &[("stage", "entity_extend")])
            .expect("entity_extend stage")
            .count;
        assert!(extends > 0 && extends <= appends);

        let snapshot = service.snapshot();
        let batch = ShardedStore::ingest(&sc.log, true, 1);
        assert_eq!(snapshot.event_count(), batch.event_count());
        assert_eq!(snapshot.reduction(), batch.reduction());

        let got = ShardedEngine::new(&snapshot).hunt(FIG2_TBQL).unwrap();
        let want = ShardedEngine::new(&batch).hunt(FIG2_TBQL).unwrap();
        assert_eq!(got.rows, want.rows);
    }

    #[test]
    fn hunts_mid_ingest_see_consistent_prefixes() {
        let sc = scenario();
        let service = IngestService::new(IngestConfig::with_policy(SealPolicy::events(400)));
        let mut counts = Vec::new();
        for chunk in LogFeed::by_events(&sc.raw, 800) {
            service.append(&chunk.unwrap());
            let r = ShardedEngine::new(&service.snapshot())
                .hunt(FIG2_TBQL)
                .unwrap();
            counts.push(r.matches.len());
        }
        // The attack eventually appears and stays found.
        assert!(*counts.last().unwrap() > 0);
        let status = service.status();
        assert!(status.sealed_shards > 0);
        assert_eq!(status.total_events, status.reduction.after,);
    }

    #[test]
    fn appends_proceed_while_a_snapshot_is_held() {
        let sc = scenario();
        let service = IngestService::new(IngestConfig::default());
        let mut feed = LogFeed::by_events(&sc.raw, 1_000);
        service.append(&feed.next().unwrap().unwrap());
        let held: ShardedStore = service.snapshot();
        let held_count = held.event_count();
        for chunk in feed {
            service.append(&chunk.unwrap());
        }
        // The held snapshot is unaffected; new snapshots see everything.
        assert_eq!(held.event_count(), held_count);
        assert!(service.snapshot().event_count() > held_count);
    }

    #[test]
    fn follow_hunt_fires_when_the_attack_streams_in() {
        let sc = scenario();
        let service = IngestService::new(IngestConfig::with_policy(SealPolicy::events(400)));
        let (plan, _) = service.cache().plan(FIG2_TBQL).unwrap();
        let mut hunt = FollowHunt::new(plan, ExecMode::Scheduled, 1);
        let initial = hunt.poll(&service.snapshot()).unwrap();
        assert!(initial.is_empty(), "nothing ingested yet");

        let mut fired = false;
        for chunk in LogFeed::by_events(&sc.raw, 700) {
            service.append(&chunk.unwrap());
            let delta = hunt.poll(&service.snapshot()).unwrap();
            fired |= !delta.is_empty();
        }
        assert!(fired, "the streamed attack must fire the standing query");
        // A poll with no new data is free.
        let idle = hunt.poll(&service.snapshot()).unwrap();
        assert!(idle.unchanged);
        // And the plan was compiled exactly once.
        assert_eq!(service.cache_stats().misses, 1);
    }

    #[test]
    fn epoch_waiters_wake_on_append_and_poke() {
        let sc = scenario();
        let service = IngestService::new(IngestConfig::default());
        let mut feed = LogFeed::by_events(&sc.raw, 500);
        let first = feed.next().unwrap().unwrap();

        // A waiter parked on the current epoch wakes when an append bumps
        // it — the no-explicit-poll signal path.
        let e0 = service.epoch();
        let woke = std::thread::scope(|scope| {
            let svc = &service;
            let waiter =
                scope.spawn(move || svc.wait_epoch_newer(e0, std::time::Duration::from_secs(30)));
            std::thread::sleep(std::time::Duration::from_millis(20));
            svc.append(&first);
            waiter.join().unwrap()
        });
        assert!(woke > e0, "append must wake the epoch waiter");
        assert_eq!(service.epoch(), service.status().epoch);

        // A poke wakes the waiter without an epoch change (the shutdown
        // path), returning the unchanged epoch well before the timeout.
        let e1 = service.epoch();
        let t0 = std::time::Instant::now();
        let woke = std::thread::scope(|scope| {
            let svc = &service;
            let waiter =
                scope.spawn(move || svc.wait_epoch_newer(e1, std::time::Duration::from_secs(30)));
            std::thread::sleep(std::time::Duration::from_millis(20));
            svc.poke();
            waiter.join().unwrap()
        });
        assert_eq!(woke, e1);
        assert!(t0.elapsed() < std::time::Duration::from_secs(10));
    }

    #[test]
    fn epoch_wait_without_deadline_wakes_on_append() {
        let sc = scenario();
        let service = IngestService::new(IngestConfig::default());
        let first = LogFeed::by_events(&sc.raw, 500).next().unwrap().unwrap();
        let e0 = service.epoch();
        let woke = std::thread::scope(|scope| {
            let svc = &service;
            let waiter = scope.spawn(move || svc.wait_epoch_newer(e0, Duration::MAX));
            std::thread::sleep(Duration::from_millis(20));
            svc.append(&first);
            waiter.join().unwrap()
        });
        assert!(woke > e0);
    }

    #[test]
    fn poisoned_stream_lock_is_recovered_not_propagated() {
        let sc = scenario();
        let service = IngestService::new(IngestConfig::default());
        let chunks: Vec<_> = LogFeed::by_events(&sc.raw, 1_000)
            .map(|c| c.unwrap())
            .collect();
        service.append(&chunks[0]);
        let before = service.status().total_events;

        // A worker panicking while holding the write lock poisons it.
        std::thread::scope(|scope| {
            let svc = &service;
            let doomed = scope.spawn(move || {
                let _guard = svc.stream.write().unwrap();
                panic!("simulated hunt-worker crash");
            });
            assert!(doomed.join().is_err(), "the worker must have panicked");
        });

        // The service keeps serving: appends, snapshots, and status all
        // recover the guard instead of propagating the poison.
        for chunk in &chunks[1..] {
            service.append(chunk);
        }
        assert!(service.status().total_events > before);
        assert!(!ShardedEngine::new(&service.snapshot())
            .hunt(FIG2_TBQL)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn concurrent_appends_and_hunts_are_safe() {
        let sc = scenario();
        let service = IngestService::new(IngestConfig::with_policy(SealPolicy::events(300)));
        let chunks: Vec<_> = LogFeed::by_events(&sc.raw, 250)
            .map(|c| c.unwrap())
            .collect();
        std::thread::scope(|scope| {
            let svc = &service;
            let writer = scope.spawn(move || {
                for chunk in &chunks {
                    svc.append(chunk);
                }
            });
            for _ in 0..8 {
                // Hunts interleave with appends; each must see a
                // consistent snapshot and never error.
                let snap = svc.snapshot();
                let r = ShardedEngine::new(&snap).hunt(FIG2_TBQL).unwrap();
                assert!(r.matches.len() <= snap.event_count().max(1));
            }
            writer.join().unwrap();
        });
        // After the dust settles, the full attack is found.
        assert!(!ShardedEngine::new(&service.snapshot())
            .hunt(FIG2_TBQL)
            .unwrap()
            .is_empty());
    }
}
