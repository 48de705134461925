//! The ingest service: a thread-safe front-end over a live
//! [`StreamingStore`].
//!
//! Collectors push parsed [`LogChunk`]s in with
//! [`IngestService::append`]; analysts hunt *while ingestion is in
//! flight* — every hunt runs against an immutable snapshot taken at hunt
//! start, so appends never block on hunts and hunts never observe a
//! half-applied batch. Standing queries attach with
//! [`IngestService::hunt_follow`] and are re-evaluated against new data
//! on each [`IngestService::poll`].
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
//! anything blocked in [`IngestService::wait_epoch_newer`] — the hook an
//! event-driven dispatcher ([`crate::server::HuntServer`]) hangs off so
//! standing queries are driven by ingest events instead of explicit
//! polls.

use crate::cache::{CacheStats, PlanCache};
use crate::follow::{FollowDelta, FollowHunt};
use crate::job::ServiceError;
use std::time::{Duration, Instant};
use threatraptor_audit::parser::LogChunk;
use threatraptor_engine::{ExecMode, HuntResult, ShardedEngine};
use threatraptor_obs::{MetricsSnapshot, Registry, TraceSink};
use threatraptor_storage::cpr::ReductionStats;
use threatraptor_storage::{AppendOutcome, SealPolicy, ShardedStore, StreamingStore};
use threatraptor_sync::atomic::{AtomicU64, Ordering};
use threatraptor_sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

/// Construction parameters for an [`IngestService`].
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Apply Causality-Preserved Reduction at the ingest frontier.
    pub cpr: bool,
    /// When to freeze the open window into an immutable shard.
    pub policy: SealPolicy,
    /// Execution strategy for hunts.
    pub mode: ExecMode,
    /// Per-hunt shard fan-out threads.
    pub shard_threads: usize,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            cpr: true,
            policy: SealPolicy::events(4_096),
            mode: ExecMode::Scheduled,
            shard_threads: 1,
        }
    }
}

impl IngestConfig {
    /// Default config with the given seal policy.
    pub fn with_policy(policy: SealPolicy) -> IngestConfig {
        IngestConfig {
            policy,
            ..IngestConfig::default()
        }
    }

    /// Disables CPR at the frontier.
    pub fn no_cpr(mut self) -> IngestConfig {
        self.cpr = false;
        self
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

/// A live, continuously queryable hunt service: appendable store plus the
/// shared plan cache.
///
/// ```
/// use threatraptor_audit::LogFeed;
/// use threatraptor_audit::sim::scenario::ScenarioBuilder;
/// use threatraptor_service::{IngestConfig, IngestService};
///
/// let scenario = ScenarioBuilder::new().seed(42).target_events(2_000).build();
/// let service = IngestService::new(IngestConfig::default());
/// for chunk in LogFeed::by_events(&scenario.raw, 500) {
///     service.append(&chunk.unwrap());
///     // Hunts are allowed at any point mid-ingest.
///     let _ = service.hunt(threatraptor_tbql::parser::FIG2_TBQL);
/// }
/// assert_eq!(service.status().total_events, service.snapshot().event_count());
/// ```
#[derive(Debug)]
pub struct IngestService {
    stream: RwLock<StreamingStore>,
    cache: Arc<PlanCache>,
    config: IngestConfig,
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
    /// every hunt/follow running through this service record here.
    /// Per-instance (not the process-global registry) so co-hosted
    /// services — per-tenant deployments — keep separate telemetry.
    registry: Arc<Registry>,
    /// `serve_stage_ns{stage=ingest_append|seal|snapshot_build}`, and
    /// inside an append `{stage=entity_extend|compact}` (recorded when
    /// the append brought entities / ran a compaction).
    serve_trace: TraceSink,
    /// `hunt_stage_ns{stage=scan|propagate|join|project|...}` — shared
    /// family with the cache's parse/analyze/compile/synthesize spans.
    hunt_trace: TraceSink,
}

impl IngestService {
    /// An empty service.
    pub fn new(config: IngestConfig) -> IngestService {
        Self::with_cache(config, Arc::new(PlanCache::new()))
    }

    /// An empty service sharing an existing plan cache (so a server's
    /// ad-hoc jobs and its standing queries compile each query once).
    pub fn with_cache(config: IngestConfig, cache: Arc<PlanCache>) -> IngestService {
        let registry = Arc::new(Registry::new());
        let mut stream = StreamingStore::new(config.cpr, config.policy);
        stream.attach_metrics(&registry);
        cache.attach_metrics(&registry);
        let epoch = stream.epoch_handle();
        IngestService {
            stream: RwLock::new(stream),
            cache,
            config,
            epoch,
            gate: Mutex::new(()),
            gate_cond: Condvar::new(),
            serve_trace: TraceSink::new(Arc::clone(&registry), "serve_stage_ns"),
            hunt_trace: TraceSink::new(Arc::clone(&registry), "hunt_stage_ns"),
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
        let span = self.serve_trace.span("ingest_append");
        let outcome = self
            .stream
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .append(chunk);
        drop(span);
        if outcome.new_entities > 0 {
            self.serve_trace
                .record("entity_extend", outcome.entity_extend);
        }
        if !outcome.compact.is_zero() {
            self.serve_trace.record("compact", outcome.compact);
        }
        self.notify();
        outcome
    }

    /// Manually freezes the open window's stable prefix into an immutable
    /// shard. Returns whether anything was sealed.
    pub fn seal(&self) -> bool {
        let span = self.serve_trace.span("seal");
        let sealed = self
            .stream
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .seal()
            .is_some();
        drop(span);
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
        let span = self.serve_trace.span("snapshot_build");
        let parts = self
            .stream
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot_parts();
        let store = parts.build();
        drop(span);
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
        let deadline = Instant::now() + timeout;
        let mut guard = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let current = self.epoch();
            if current != last {
                return current;
            }
            let now = Instant::now();
            if now >= deadline {
                return current;
            }
            let (g, _) = self
                .gate_cond
                .wait_timeout(guard, deadline - now)
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

    /// Hunts a TBQL query against a fresh snapshot, through the plan
    /// cache.
    pub fn hunt(&self, tbql: &str) -> Result<HuntResult, ServiceError> {
        let (plan, _) = self.cache.plan(tbql).map_err(ServiceError::from)?;
        let snapshot = self.snapshot();
        let result = ShardedEngine::with_threads(&snapshot, self.config.shard_threads)
            .execute(&plan.compiled, self.config.mode)
            .map_err(ServiceError::from)?;
        result.stats.record_stages(&self.hunt_trace);
        Ok(result)
    }

    /// Opens a follow-mode hunt: the query is compiled once (through the
    /// cache) and evaluated against everything ingested so far; each
    /// subsequent [`IngestService::poll`] re-evaluates it against a fresh
    /// snapshot and yields only the newly appeared matches.
    pub fn hunt_follow(&self, tbql: &str) -> Result<(FollowHunt, FollowDelta), ServiceError> {
        let (plan, _) = self.cache.plan(tbql).map_err(ServiceError::from)?;
        let mut hunt = FollowHunt::new(plan, self.config.mode, self.config.shard_threads);
        hunt.attach_metrics(&self.registry);
        let delta = hunt.poll(&self.snapshot())?;
        Ok((hunt, delta))
    }

    /// Polls a follow-mode hunt against the current stream state. Free
    /// when nothing was appended since the last poll.
    pub fn poll(&self, hunt: &mut FollowHunt) -> Result<FollowDelta, ServiceError> {
        hunt.poll(&self.snapshot())
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

    /// Plan/synthesis cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The shared plan cache (standing queries and ad-hoc jobs resolve
    /// through the same one).
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The service configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
    use threatraptor_audit::LogFeed;
    use threatraptor_storage::{AuditStore, ShardedStore};
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
            .expect("append spans")
            .count;
        let extends = metrics
            .histogram("serve_stage_ns", &[("stage", "entity_extend")])
            .expect("entity_extend spans")
            .count;
        assert!(extends > 0 && extends <= appends);

        let snapshot = service.snapshot();
        let batch = AuditStore::ingest(&sc.log, true);
        assert_eq!(snapshot.event_count(), batch.event_count());
        assert_eq!(snapshot.reduction(), batch.reduction);

        let got = service.hunt(FIG2_TBQL).unwrap();
        let want = threatraptor_engine::Engine::new(&batch)
            .hunt(FIG2_TBQL)
            .unwrap();
        assert_eq!(got.rows, want.rows);
    }

    #[test]
    fn hunts_mid_ingest_see_consistent_prefixes() {
        let sc = scenario();
        let service = IngestService::new(IngestConfig::with_policy(SealPolicy::events(400)));
        let mut counts = Vec::new();
        for chunk in LogFeed::by_events(&sc.raw, 800) {
            service.append(&chunk.unwrap());
            let r = service.hunt(FIG2_TBQL).unwrap();
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
        let (mut hunt, initial) = service.hunt_follow(FIG2_TBQL).unwrap();
        assert!(initial.is_empty(), "nothing ingested yet");

        let mut fired = false;
        for chunk in LogFeed::by_events(&sc.raw, 700) {
            service.append(&chunk.unwrap());
            let delta = service.poll(&mut hunt).unwrap();
            fired |= !delta.is_empty();
        }
        assert!(fired, "the streamed attack must fire the standing query");
        // A poll with no new data is free.
        let idle = service.poll(&mut hunt).unwrap();
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
        assert!(!service.hunt(FIG2_TBQL).unwrap().is_empty());
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
                let r = svc.hunt(FIG2_TBQL).unwrap();
                let snap = svc.snapshot();
                assert!(r.matches.len() <= snap.event_count().max(1));
            }
            writer.join().unwrap();
        });
        // After the dust settles, the full attack is found.
        assert!(!service.hunt(FIG2_TBQL).unwrap().is_empty());
    }
}
