//! Streaming ingest: a live, continuously queryable audit store.
//!
//! The batch [`ShardedStore`] is build-once: the full log must exist
//! before the first hunt can run. Production threat hunting works the
//! other way around — audit data is collected *continuously* and hunts
//! run while collection is in flight. This module turns the batch store
//! into a live one:
//!
//! * a [`StreamingStore`] holds a list of immutable **sealed** shards
//!   ([`EventShard`]s behind [`Arc`]), one mutable **open window** at the
//!   ingest frontier, and one append-only [`EntityCatalog`] for all of
//!   them: an append indexes the chunk's new entities into it and nothing
//!   else — shards carry no entity state, so nothing is copied or rebuilt
//!   when entities arrive;
//! * [`StreamingStore::append`] feeds event batches into an
//!   [`IncrementalReducer`], which applies Causality-Preserved Reduction
//!   incrementally — merging only against the open window while evolving
//!   exactly the state the batch reducer would, so the stored stream is
//!   byte-identical to batch ingestion of the same log. CPR off is the
//!   same reducer with merging disabled: the same staging, watermark and
//!   sealing rules, and the same event order;
//! * a [`SealPolicy`] (by open-window event count, or manual) decides
//!   when to freeze the open window. Sealing takes only the
//!   *stable prefix* — closed CPR outputs below the reducer's watermark —
//!   so a merge run is never split across a seal boundary;
//! * [`StreamingStore::snapshot`] assembles a regular [`ShardedStore`]
//!   from Arc-cloned sealed shards, a clone of the catalog's handle list
//!   and a freshly indexed open shard (its events plus their postings by
//!   operation, subject and object — a counting sort and two sorts of
//!   the open window, no per-event allocation) with
//!   [`ShardedStore::from_parts`], the constructor every store goes
//!   through. The snapshot is an immutable point-in-time view: hunts run
//!   against it with the unmodified sharded engine while appends
//!   continue, and further appends never mutate an already-taken
//!   snapshot — a later append builds new catalog generations beside the
//!   ones the snapshot holds.
//!
//! The store keeps no change counter and spawns no threads: whoever owns
//! it and serializes its appends (the service layer's ingest front-end)
//! counts the epochs and decides when a snapshot is stale.
//!
//! Global invariants are inherited from the batch path: entity ids are
//! assigned by the parser in first-appearance order and never change, and
//! global event positions are the concatenation of sealed shards plus the
//! open window — exactly the positions batch ingestion assigns.
//!
//! There is one event order, `(start, end, id)`: each seal and the open
//! window ascend by it, with CPR on or off. For start-ordered appends the
//! whole stream does; an out-of-order straggler sorts into the open
//! window, so order then holds within each seal, not across shards.

use crate::catalog::EntityCatalog;
use crate::cpr::{IncrementalReducer, ReductionStats};
use crate::sharded::{ShardedStore, StreamFrontier};
use crate::store::EventShard;
use std::time::{Duration, Instant};
use threatraptor_audit::entity::Entity;
use threatraptor_audit::event::Event;
use threatraptor_audit::parser::LogChunk;
use threatraptor_obs::{Counter, Gauge, Registry};
use threatraptor_sync::Arc;

/// When to freeze the open window into an immutable shard: after a
/// number of open events, or only when asked.
#[derive(Debug, Clone, Copy, Default)]
pub struct SealPolicy {
    /// Seal when the open window holds at least this many (reduced)
    /// events; `None` seals manually only.
    pub max_open_events: Option<usize>,
}

impl SealPolicy {
    /// Manual sealing only.
    pub fn manual() -> SealPolicy {
        SealPolicy::default()
    }

    /// Seal every `n` open events.
    pub fn events(n: usize) -> SealPolicy {
        SealPolicy {
            max_open_events: Some(n.max(1)),
        }
    }

    fn triggered(&self, open_len: usize) -> bool {
        self.max_open_events.is_some_and(|n| open_len >= n)
    }
}

/// When to merge adjacent sealed shards back together.
///
/// Small seal thresholds keep snapshot cost low (it is proportional to
/// the open window), but grow the sealed-shard list without bound — and
/// with it every hunt's per-shard scan fan-out. Compaction merges
/// adjacent sealed shards by pure concatenation: global event positions
/// are the concatenation of sealed shards plus the open window, so
/// merging neighbors changes *where* a position lives, never *what* it
/// holds — snapshots before and after compaction are byte-identical,
/// position for position.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactionPolicy {
    /// Merge the smallest adjacent sealed pair whenever the sealed shard
    /// count exceeds this. `None` disables compaction.
    pub max_sealed_shards: Option<usize>,
}

impl CompactionPolicy {
    /// Keep at most `n` sealed shards (clamped to ≥ 1).
    pub fn max_shards(n: usize) -> CompactionPolicy {
        CompactionPolicy {
            max_sealed_shards: Some(n.max(1)),
        }
    }

    fn triggered(&self, sealed_shards: usize) -> bool {
        self.max_sealed_shards.is_some_and(|n| sealed_shards > n)
    }
}

/// What one append did: how much arrived, whether it tripped a seal, and
/// where its time went beside the reduction itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Raw events appended by this call.
    pub appended: usize,
    /// New entities registered by this call.
    pub new_entities: usize,
    /// Shards sealed by this call (auto-sealing under the policy).
    pub sealed: usize,
    /// Time spent indexing the new entities into the catalog.
    pub entity_extend: Duration,
    /// Time spent compacting sealed shards (zero when none ran).
    pub compact: Duration,
}

/// Registry handles for stream-level telemetry; attached once via
/// [`StreamingStore::attach_metrics`] so the hot append path pays one
/// `Option` check plus a few relaxed atomics, never a registry lookup.
#[derive(Debug, Clone)]
struct StreamObs {
    /// `storage_appends_total`: append calls.
    appends: Arc<Counter>,
    /// `storage_raw_events_total`: raw events fed in, pre-CPR.
    raw_events: Arc<Counter>,
    /// `storage_seals_total`: shards frozen.
    seals: Arc<Counter>,
    /// `storage_compactions_total`: adjacent sealed-shard merges.
    compactions: Arc<Counter>,
    /// `storage_open_events`: current open-window size (reduced).
    open_events: Arc<Gauge>,
    /// `storage_sealed_shards`: current sealed shard count.
    sealed_shards: Arc<Gauge>,
    /// `storage_stored_events`: total stored events (post-CPR).
    stored_events: Arc<Gauge>,
    /// `storage_entities`: entities registered so far.
    entities: Arc<Gauge>,
    /// `storage_entity_rows_indexed_total`: entities indexed into catalog
    /// generations, generation merges included.
    entity_rows_indexed: Arc<Counter>,
    /// `storage_entity_generations`: current catalog generation count.
    entity_generations: Arc<Gauge>,
    /// `storage_event_bytes`: heap bytes of the sealed shards' events
    /// and postings ([`EventShard::heap_bytes`]).
    event_bytes: Arc<Gauge>,
    /// `storage_entity_bytes`: heap bytes of the catalog's generations
    /// ([`EntityCatalog::heap_bytes`]).
    entity_bytes: Arc<Gauge>,
}

/// The detached ingredients of a snapshot, extracted under any lock the
/// caller holds and assembled (indexed) afterwards with
/// [`SnapshotParts::build`]. See [`StreamingStore::snapshot_parts`].
#[derive(Debug, Clone)]
pub struct SnapshotParts {
    sealed: Vec<Arc<EventShard>>,
    catalog: EntityCatalog,
    open_events: Vec<Event>,
    raw_appended: usize,
    sealed_events: usize,
    watermark: u64,
}

impl SnapshotParts {
    /// Builds the snapshot: indexes the open window into a fresh shard
    /// and assembles the sharded view. The expensive half of
    /// [`StreamingStore::snapshot`]; needs no access to the live store.
    pub fn build(self) -> ShardedStore {
        let frontier = StreamFrontier {
            sealed_events: self.sealed_events,
            watermark: self.watermark,
            // The open window is sorted: its first event starts earliest.
            open_min_start: self.open_events.first().map(|e| e.start),
        };
        let open = Arc::new(EventShard::build(self.open_events));
        let total = self.sealed_events + open.event_count();
        let mut shards = self.sealed;
        shards.push(open);
        ShardedStore::from_parts(
            shards,
            self.catalog,
            ReductionStats {
                before: self.raw_appended,
                after: total,
            },
        )
        .with_frontier(frontier)
    }
}

/// An appendable audit store: immutable sealed shards plus one open
/// window with incremental CPR at the frontier.
#[derive(Debug)]
pub struct StreamingStore {
    policy: SealPolicy,
    compaction: CompactionPolicy,
    /// All entities seen so far, with their per-kind positions — the only
    /// entity state of the stream; snapshots clone its handle list.
    catalog: EntityCatalog,
    reducer: IncrementalReducer,
    sealed: Vec<Arc<EventShard>>,
    sealed_events: usize,
    /// Sum of the sealed shards' [`EventShard::heap_bytes`].
    sealed_bytes: usize,
    /// Telemetry handles, when attached.
    obs: Option<StreamObs>,
}

impl StreamingStore {
    /// An empty streaming store.
    pub fn new(use_cpr: bool, policy: SealPolicy) -> StreamingStore {
        StreamingStore {
            policy,
            compaction: CompactionPolicy::default(),
            catalog: EntityCatalog::new(),
            reducer: IncrementalReducer::new(use_cpr),
            sealed: Vec::new(),
            sealed_events: 0,
            sealed_bytes: 0,
            obs: None,
        }
    }

    /// Sets the sealed-shard compaction policy (disabled by default).
    pub fn with_compaction(mut self, compaction: CompactionPolicy) -> StreamingStore {
        self.compaction = compaction;
        self
    }

    /// Attaches stream telemetry to `registry`: `storage_*` counters
    /// and gauges updated on every append and seal. Gauges are synced
    /// to the store's current state immediately.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        let obs = StreamObs {
            appends: registry.counter("storage_appends_total"),
            raw_events: registry.counter("storage_raw_events_total"),
            seals: registry.counter("storage_seals_total"),
            compactions: registry.counter("storage_compactions_total"),
            open_events: registry.gauge("storage_open_events"),
            sealed_shards: registry.gauge("storage_sealed_shards"),
            stored_events: registry.gauge("storage_stored_events"),
            entities: registry.gauge("storage_entities"),
            entity_rows_indexed: registry.counter("storage_entity_rows_indexed_total"),
            entity_generations: registry.gauge("storage_entity_generations"),
            event_bytes: registry.gauge("storage_event_bytes"),
            entity_bytes: registry.gauge("storage_entity_bytes"),
        };
        self.obs = Some(obs);
        self.sync_gauges();
    }

    /// Updates the state gauges to match the store. Cheap (seven
    /// relaxed stores and a sum over the catalog's few generations);
    /// no-op when telemetry is not attached.
    fn sync_gauges(&self) {
        if let Some(obs) = &self.obs {
            obs.open_events.set(self.reducer.open_len() as i64);
            obs.sealed_shards.set(self.sealed.len() as i64);
            obs.stored_events.set(self.event_count() as i64);
            obs.entities.set(self.catalog.len() as i64);
            obs.entity_generations
                .set(self.catalog.generations().len() as i64);
            obs.event_bytes.set(self.sealed_bytes as i64);
            obs.entity_bytes.set(self.catalog.heap_bytes() as i64);
        }
    }

    /// Appends a parsed chunk (new entities + events), then auto-seals
    /// while the policy is triggered.
    ///
    /// `new_entities` must continue the global id sequence (the chunked
    /// parser feed guarantees this); events may reference any entity
    /// registered so far.
    pub fn append(&mut self, chunk: &LogChunk) -> AppendOutcome {
        self.append_batch(&chunk.new_entities, &chunk.events)
    }

    /// [`StreamingStore::append`] over bare slices.
    pub fn append_batch(&mut self, new_entities: &[Entity], events: &[Event]) -> AppendOutcome {
        let t_extend = Instant::now();
        // Validates the id sequence before mutating anything.
        let rows_indexed = self.catalog.extend(new_entities);
        let entity_extend = t_extend.elapsed();
        debug_assert!(events.iter().all(
            |e| e.subject.index() < self.catalog.len() && e.object.index() < self.catalog.len()
        ));
        self.reducer.append(events);

        let mut sealed = 0;
        let mut compact = Duration::ZERO;
        while self.policy.triggered(self.reducer.open_len()) {
            let Some((_, spent)) = self.seal_stable() else {
                // Nothing stable to seal (one giant open run): stop
                // rather than spin; the next append will retry.
                break;
            };
            compact += spent;
            sealed += 1;
        }
        if let Some(obs) = &self.obs {
            obs.appends.inc();
            obs.raw_events.add(events.len() as u64);
            obs.entity_rows_indexed.add(rows_indexed as u64);
        }
        self.sync_gauges();
        AppendOutcome {
            appended: events.len(),
            new_entities: new_entities.len(),
            sealed,
            entity_extend,
            compact,
        }
    }

    /// Freezes the stable prefix of the open window into an immutable
    /// shard. Returns `None` (and seals nothing) when no output is
    /// stable yet — open CPR runs stay open so a merge is never split
    /// across a seal boundary.
    pub fn seal(&mut self) -> Option<Arc<EventShard>> {
        self.seal_stable().map(|(shard, _)| shard)
    }

    /// [`StreamingStore::seal`], also returning the time spent compacting.
    fn seal_stable(&mut self) -> Option<(Arc<EventShard>, Duration)> {
        let stable = self.reducer.take_stable();
        if stable.is_empty() {
            return None;
        }
        let shard = Arc::new(EventShard::build(stable));
        self.sealed_events += shard.event_count();
        self.sealed_bytes += shard.heap_bytes();
        self.sealed.push(Arc::clone(&shard));
        let compact = self.maybe_compact();
        if let Some(obs) = &self.obs {
            obs.seals.inc();
        }
        self.sync_gauges();
        Some((shard, compact))
    }

    /// Merges the smallest adjacent sealed pair while the compaction
    /// policy is triggered. Concatenation only: the merged shard holds
    /// the same events at the same global positions, so every invariant
    /// a snapshot relies on — positions, sealed-prefix immutability, the
    /// sealed-event count — is preserved by construction. Returns the
    /// time spent (zero when nothing was merged).
    fn maybe_compact(&mut self) -> Duration {
        if !self.compaction.triggered(self.sealed.len()) {
            return Duration::ZERO;
        }
        let t0 = Instant::now();
        while self.compaction.triggered(self.sealed.len()) {
            let i = (0..self.sealed.len() - 1)
                .min_by_key(|&i| self.sealed[i].event_count() + self.sealed[i + 1].event_count())
                .expect("compaction triggers only above one shard");
            let (a, b) = (&self.sealed[i], &self.sealed[i + 1]);
            let mut events = Vec::with_capacity(a.event_count() + b.event_count());
            events.extend_from_slice(&a.events);
            events.extend_from_slice(&b.events);
            let merged = Arc::new(EventShard::build(events));
            self.sealed_bytes =
                self.sealed_bytes + merged.heap_bytes() - a.heap_bytes() - b.heap_bytes();
            self.sealed[i] = merged;
            self.sealed.remove(i + 1);
            if let Some(obs) = &self.obs {
                obs.compactions.inc();
            }
        }
        t0.elapsed()
    }

    /// An immutable view over everything appended so far: all
    /// sealed shards (shared, zero-copy) plus the open window built into
    /// a fresh indexed shard. Hunts run against the snapshot with the
    /// ordinary sharded engine; appends after this call never affect it.
    ///
    /// Cost is proportional to the open-window size (bounded by the seal
    /// policy), not to the total store size. Callers holding a lock
    /// around the store can split the cost with
    /// [`StreamingStore::snapshot_parts`]: the parts extraction is the
    /// cheap in-lock half, [`SnapshotParts::build`] the expensive
    /// out-of-lock half.
    pub fn snapshot(&self) -> ShardedStore {
        self.snapshot_parts().build()
    }

    /// Extracts everything a snapshot needs from the live store: Arc
    /// clones of the sealed shards and catalog generations, and the
    /// open window's event list (the incremental reducer's simulated
    /// completion — O(open window), no index builds). The returned parts
    /// are fully detached: [`SnapshotParts::build`] — which pays for
    /// indexing the open window — can run with no lock held while
    /// appends continue.
    pub fn snapshot_parts(&self) -> SnapshotParts {
        SnapshotParts {
            sealed: self.sealed.clone(),
            catalog: self.catalog.clone(),
            open_events: self.reducer.visible(),
            raw_appended: self.reducer.appended(),
            sealed_events: self.sealed_events,
            watermark: self.reducer.watermark(),
        }
    }

    /// Number of sealed (immutable) shards.
    pub fn sealed_count(&self) -> usize {
        self.sealed.len()
    }

    /// Events currently in the open window (after reduction).
    pub fn open_len(&self) -> usize {
        self.reducer.open_len()
    }

    /// Total stored events: sealed plus open window.
    pub fn event_count(&self) -> usize {
        self.sealed_events + self.reducer.open_len()
    }

    /// All entities registered so far, with their per-kind positions.
    pub fn catalog(&self) -> &EntityCatalog {
        &self.catalog
    }

    /// Stream-global reduction statistics (raw appended vs stored).
    pub fn reduction(&self) -> ReductionStats {
        ReductionStats {
            before: self.reducer.appended(),
            after: self.event_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpr;
    use proptest::prelude::*;
    use threatraptor_audit::entity::EntityId;
    use threatraptor_audit::event::{EventId, Operation};
    use threatraptor_audit::parser::ParsedLog;
    use threatraptor_audit::sim::scenario::ScenarioBuilder;

    fn scenario_log(events: usize) -> ParsedLog {
        ScenarioBuilder::new()
            .seed(42)
            .target_events(events)
            .build()
            .log
    }

    /// Replays a parsed log into a streaming store in `chunk`-sized event
    /// batches, registering all entities up front (ids are global either
    /// way; the chunked-feed tests cover incremental entity arrival).
    fn replay(log: &ParsedLog, store: &mut StreamingStore, chunk: usize) {
        store.append_batch(&log.entities, &[]);
        for batch in log.events.chunks(chunk.max(1)) {
            store.append_batch(&[], batch);
        }
    }

    fn assert_stream_parity(log: &ParsedLog, store: &StreamingStore, use_cpr: bool) {
        let snapshot = store.snapshot();
        let (expected, stats) = cpr::reduce(&log.events, use_cpr);
        assert_eq!(snapshot.event_count(), expected.len());
        assert_eq!(snapshot.reduction(), stats);
        assert_eq!(store.reduction(), stats);
        for (pos, want) in expected.iter().enumerate() {
            assert_eq!(snapshot.event_at(pos), want, "position {pos}");
        }
    }

    #[test]
    fn chunked_append_matches_batch_ingest() {
        let log = scenario_log(3_000);
        for use_cpr in [true, false] {
            for chunk in [1usize, 7, 256, 100_000] {
                let mut store = StreamingStore::new(use_cpr, SealPolicy::manual());
                replay(&log, &mut store, chunk);
                assert_stream_parity(&log, &store, use_cpr);
            }
        }
    }

    #[test]
    fn sealing_preserves_the_global_stream() {
        let log = scenario_log(3_000);
        let mut store = StreamingStore::new(true, SealPolicy::events(200));
        replay(&log, &mut store, 64);
        assert!(store.sealed_count() > 1, "policy must have sealed");
        assert_stream_parity(&log, &store, true);
    }

    #[test]
    fn seal_never_splits_a_merge_run() {
        // A quiet read burst interrupted by manual seals: batch CPR
        // merges it to one event, and so must chunked append + seal —
        // the seal may only take the stable prefix.
        let ev = |id: u32, start: u64| Event {
            id: EventId(id),
            subject: EntityId(0),
            op: Operation::Read,
            object: EntityId(1),
            start,
            end: start + 2,
            bytes: 10,
            merged: 1,
            tag: None,
        };
        let events: Vec<Event> = (0..6).map(|i| ev(i, u64::from(i) * 10)).collect();
        let entities = scenario_log(50).entities;

        let mut store = StreamingStore::new(true, SealPolicy::manual());
        store.append_batch(&entities, &events[..2]);
        assert!(store.seal().is_none(), "the open run must not seal");
        store.append_batch(&[], &events[2..4]);
        store.seal();
        store.append_batch(&[], &events[4..]);

        let snapshot = store.snapshot();
        let (expected, _) = cpr::reduce(&events, true);
        assert_eq!(expected.len(), 1);
        assert_eq!(snapshot.event_count(), 1);
        assert_eq!(snapshot.event_at(0), &expected[0]);
        assert_eq!(snapshot.event_at(0).merged, 6);
    }

    #[test]
    fn snapshots_are_immutable_epoch_views() {
        let log = scenario_log(2_000);
        let mut store = StreamingStore::new(true, SealPolicy::events(300));
        let half = log.events.len() / 2;
        store.append_batch(&log.entities, &log.events[..half]);
        let early = store.snapshot();
        let early_count = early.event_count();
        let early_first = early.event_at(0).clone();
        let early_sealed = store.event_count() - store.open_len();
        assert!(early_sealed > 0, "the policy must have sealed by midway");

        store.append_batch(&[], &log.events[half..]);
        let late = store.snapshot();

        // The early snapshot is untouched by later appends, and equals a
        // batch reduction of exactly the half-stream it observed.
        assert_eq!(early.event_count(), early_count);
        assert_eq!(early.event_at(0), &early_first);
        let (expected_half, _) = cpr::reduce(&log.events[..half], true);
        assert_eq!(early.event_count(), expected_half.len());
        assert!(late.event_count() > early.event_count());
        // The *sealed* region of the early snapshot is a stable prefix of
        // every later view. (The open window is provisional: a visible
        // open event may still absorb later constituents.)
        for pos in 0..early_sealed {
            assert_eq!(early.event_at(pos), late.event_at(pos), "position {pos}");
        }
    }

    #[test]
    fn auto_seal_bounds_the_open_window() {
        let log = scenario_log(3_000);
        let mut store = StreamingStore::new(true, SealPolicy::events(250));
        replay(&log, &mut store, 50);
        // The open window stays near the threshold: it can exceed it only
        // by what is still unstable (open runs + staged ties).
        assert!(store.sealed_count() >= 2);
        assert!(
            store.open_len() < 250 + 250,
            "open window {} should be bounded by the seal policy",
            store.open_len()
        );
        let counts: usize = store
            .snapshot()
            .shards()
            .iter()
            .map(|s| s.event_count())
            .sum();
        assert_eq!(counts, store.event_count());
    }

    #[test]
    fn sealed_shards_hold_no_entity_state() {
        let raw = ScenarioBuilder::new()
            .seed(42)
            .target_events(2_000)
            .build()
            .raw;
        let mut store = StreamingStore::new(true, SealPolicy::events(200));
        // Entities arrive chunk by chunk, interleaved with seals.
        for chunk in threatraptor_audit::LogFeed::by_events(&raw, 100) {
            store.append(&chunk.unwrap());
        }
        assert!(store.sealed_count() > 2);
        assert!(store.catalog().generations().len() > 1);
        // The store's catalog is the only holder of every generation:
        // no sealed shard pins an entity array.
        for generation in store.catalog().generations() {
            assert_eq!(Arc::strong_count(generation), 1);
        }
        // A snapshot adds one holder — its catalog — however many shards
        // it has, and resolves the newest entity (no stale prefix).
        let snapshot = store.snapshot();
        assert!(snapshot.shard_count() > 3);
        for generation in store.catalog().generations() {
            assert_eq!(Arc::strong_count(generation), 2);
        }
        let last = EntityId(store.catalog().len() as u32 - 1);
        assert_eq!(snapshot.entity(last).id(), last);
    }

    #[test]
    fn held_snapshots_do_not_add_entity_work() {
        let raw = ScenarioBuilder::new()
            .seed(7)
            .target_events(3_000)
            .build()
            .raw;
        let registry = Registry::new();
        let mut store = StreamingStore::new(true, SealPolicy::events(300));
        store.attach_metrics(&registry);
        // A snapshot held across every append: plain copy-on-write would
        // clone the entities once per chunk.
        let mut held = Vec::new();
        for chunk in threatraptor_audit::LogFeed::by_events(&raw, 50) {
            store.append(&chunk.unwrap());
            held.push((store.catalog().len(), store.snapshot()));
        }
        let n = store.catalog().len() as f64;
        let snap = registry.snapshot();
        let rows = snap.counter("storage_entity_rows_indexed_total").unwrap();
        assert!(
            held.len() as f64 > 2.0 * n.log2(),
            "many more appends than levels"
        );
        assert!(
            rows as f64 <= n * (2.0 + n.log2()),
            "{rows} rows for {n} entities"
        );
        let generations = snap.gauge("storage_entity_generations").unwrap();
        assert_eq!(generations as usize, store.catalog().generations().len());
        assert!(generations as f64 <= n.log2() + 1.0);
        // Every held snapshot still sees exactly the entities of its time.
        for (seen, snapshot) in &held {
            assert_eq!(snapshot.catalog().len(), *seen);
        }
    }

    #[test]
    fn attached_metrics_track_appends_and_seals() {
        let log = scenario_log(2_000);
        let registry = Registry::new();
        let mut store = StreamingStore::new(true, SealPolicy::events(200));
        store.attach_metrics(&registry);
        replay(&log, &mut store, 100);

        let snap = registry.snapshot();
        // One entity-registration append plus one per event chunk.
        let chunks = log.events.chunks(100).len() as u64;
        assert_eq!(snap.counter("storage_appends_total"), Some(1 + chunks));
        assert_eq!(
            snap.counter("storage_raw_events_total"),
            Some(log.events.len() as u64)
        );
        assert_eq!(
            snap.counter("storage_seals_total"),
            Some(store.sealed_count() as u64)
        );
        assert_eq!(
            snap.gauge("storage_open_events"),
            Some(store.open_len() as i64)
        );
        assert_eq!(
            snap.gauge("storage_sealed_shards"),
            Some(store.sealed_count() as i64)
        );
        assert_eq!(
            snap.gauge("storage_stored_events"),
            Some(store.event_count() as i64)
        );
        assert_eq!(
            snap.gauge("storage_entities"),
            Some(store.catalog().len() as i64)
        );
        // All entities arrived in one append: one generation, each row
        // indexed once.
        assert_eq!(
            snap.counter("storage_entity_rows_indexed_total"),
            Some(log.entities.len() as u64)
        );
        assert_eq!(snap.gauge("storage_entity_generations"), Some(1));
    }

    #[test]
    fn byte_gauges_equal_the_sum_over_a_snapshots_shards() {
        let log = scenario_log(3_000);
        for use_cpr in [false, true] {
            let registry = Registry::new();
            let mut store = StreamingStore::new(use_cpr, SealPolicy::events(200))
                .with_compaction(CompactionPolicy::max_shards(4));
            store.attach_metrics(&registry);
            replay(&log, &mut store, 64);
            // Without CPR no run is open: a manual seal leaves only the
            // events at the high-water start in the open window.
            store.seal();
            let snapshot = store.snapshot();
            let (open, sealed) = snapshot.shards().split_last().expect("an open shard");
            let sealed: usize = sealed.iter().map(|s| s.heap_bytes()).sum();
            let snap = registry.snapshot();
            assert_eq!(snap.gauge("storage_event_bytes"), Some(sealed as i64));
            if !use_cpr {
                let max_start = log.events.iter().map(|e| e.start).max();
                assert!(open.event_count() > 0);
                assert!(open.events.iter().all(|e| Some(e.start) == max_start));
            }
            let entity_bytes = snap.gauge("storage_entity_bytes").unwrap();
            assert_eq!(entity_bytes as usize, store.catalog().heap_bytes());
            let per_generation: usize = store
                .catalog()
                .generations()
                .iter()
                .map(|g| g.heap_bytes())
                .sum();
            assert_eq!(entity_bytes as usize, per_generation);
            assert!(entity_bytes > 0 && sealed > 0);
        }
    }

    #[test]
    fn compaction_preserves_snapshot_parity() {
        let log = scenario_log(3_000);
        let mut plain = StreamingStore::new(true, SealPolicy::events(100));
        let mut compacted = StreamingStore::new(true, SealPolicy::events(100))
            .with_compaction(CompactionPolicy::max_shards(3));
        replay(&log, &mut plain, 64);
        replay(&log, &mut compacted, 64);
        assert!(
            plain.sealed_count() > 3,
            "the seal policy must fragment the uncompacted store"
        );
        assert!(
            compacted.sealed_count() <= 3,
            "compaction must bound the sealed shard count"
        );
        // Byte-identical, position for position, to the uncompacted
        // stream and to batch reduction of the same log.
        assert_stream_parity(&log, &compacted, true);
        let (a, b) = (plain.snapshot(), compacted.snapshot());
        assert_eq!(a.event_count(), b.event_count());
        for pos in 0..a.event_count() {
            assert_eq!(a.event_at(pos), b.event_at(pos), "position {pos}");
        }
        // Compaction moves no boundary the frontier depends on.
        assert_eq!(a.frontier(), b.frontier());
    }

    #[test]
    fn append_outcome_splits_entity_and_compaction_time() {
        let log = scenario_log(3_000);
        let mut store = StreamingStore::new(true, SealPolicy::events(100))
            .with_compaction(CompactionPolicy::max_shards(2));
        let first = store.append_batch(&log.entities, &[]);
        assert!(!first.entity_extend.is_zero());
        assert!(first.compact.is_zero());
        let mut compacting_appends = 0;
        for batch in log.events.chunks(64) {
            let outcome = store.append_batch(&[], batch);
            // Compaction only ever runs inside a seal.
            assert!(outcome.compact.is_zero() || outcome.sealed > 0);
            compacting_appends += usize::from(!outcome.compact.is_zero());
        }
        assert!(compacting_appends > 0);
    }

    #[test]
    fn snapshots_carry_the_stream_frontier() {
        let log = scenario_log(1_000);
        let mut store = StreamingStore::new(true, SealPolicy::events(150));
        replay(&log, &mut store, 64);
        let snap = store.snapshot();
        let frontier = snap
            .frontier()
            .expect("streaming snapshots carry a frontier");
        assert_eq!(
            frontier.sealed_events,
            store.event_count() - store.open_len()
        );
        let open_min = (frontier.sealed_events..snap.event_count())
            .map(|p| snap.event_at(p).start)
            .min();
        assert_eq!(frontier.open_min_start, open_min);
        assert!(frontier.settled_before() <= frontier.watermark);
        // Batch-built stores carry no frontier.
        let batch = ShardedStore::ingest(&log, true, 4);
        assert!(batch.frontier().is_none());
    }

    /// A scenario log with its events reversed in blocks of five, so
    /// starts run backwards inside every block.
    fn out_of_order_log() -> ParsedLog {
        let mut log = scenario_log(600);
        for block in log.events.chunks_mut(5) {
            block.reverse();
        }
        log
    }

    #[test]
    fn cpr_off_stores_out_of_order_input_sorted() {
        let log = out_of_order_log();
        let mut want = log.events.clone();
        want.sort_by_key(|e| (e.start, e.end, e.id));
        assert_ne!(want, log.events, "the log must be out of order");
        let stored = |store: &ShardedStore| -> Vec<Event> {
            (0..store.event_count())
                .map(|pos| store.event_at(pos).clone())
                .collect()
        };
        for shards in [1, 3] {
            let batch = ShardedStore::ingest(&log, false, shards);
            assert_eq!(stored(&batch), want, "{shards} shard(s)");
        }
        for chunk in [1, 7, log.events.len()] {
            let mut store = StreamingStore::new(false, SealPolicy::manual());
            replay(&log, &mut store, chunk);
            assert_eq!(stored(&store.snapshot()), want, "chunk {chunk}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// For start-ordered appends every shard of every snapshot
        /// ascends by `(start, end, id)` — with CPR on or off, under any
        /// chunking, seal points and compaction — and the final snapshot
        /// is the batch reduction of the whole stream.
        #[test]
        fn snapshot_shards_ascend_by_sort_key(
            steps in prop::collection::vec(
                (
                    0u64..3, // start increment: ties are common
                    0u32..4, // subject
                    0u32..4, // object
                    prop::sample::select(vec![Operation::Read, Operation::Write, Operation::Fork]),
                ),
                1..120,
            ),
            chunk in 1usize..17,
            seals in prop::collection::vec(prop::bool::weighted(0.4), 1..9),
            use_cpr in any::<bool>(),
        ) {
            let mut start = 0;
            let events: Vec<Event> = steps
                .into_iter()
                .enumerate()
                .map(|(i, (step, s, o, op))| {
                    start += step;
                    Event {
                        id: EventId(i as u32),
                        subject: EntityId(s),
                        op,
                        object: EntityId((o + u32::from(s == o)) % 4),
                        start,
                        end: start + (i as u64 % 3),
                        bytes: 10,
                        merged: 1,
                        tag: None,
                    }
                })
                .collect();
            let mut store = StreamingStore::new(use_cpr, SealPolicy::manual())
                .with_compaction(CompactionPolicy::max_shards(2));
            store.append_batch(&scenario_log(50).entities, &[]);
            for (i, batch) in events.chunks(chunk).enumerate() {
                store.append_batch(&[], batch);
                if seals[i % seals.len()] {
                    store.seal();
                }
                for shard in store.snapshot().shards() {
                    prop_assert!(shard.events.is_sorted_by_key(|e| (e.start, e.end, e.id)));
                }
            }
            let (want, _) = cpr::reduce(&events, use_cpr);
            let snapshot = store.snapshot();
            prop_assert_eq!(snapshot.event_count(), want.len());
            for (pos, e) in want.iter().enumerate() {
                prop_assert_eq!(snapshot.event_at(pos), e);
            }
        }
    }

    #[test]
    #[should_panic(expected = "global id sequence")]
    fn entity_id_gaps_are_rejected() {
        let log = scenario_log(200);
        let mut store = StreamingStore::new(true, SealPolicy::manual());
        // Skipping the first entity breaks the id sequence.
        store.append_batch(&log.entities[1..], &[]);
    }
}
