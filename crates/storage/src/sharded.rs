//! The one readable store: a log as independent [`EventShard`]s under
//! one [`EntityCatalog`].
//!
//! The paper's deployment stores one monolithic log in PostgreSQL+Neo4j;
//! scaling that design to production volumes requires partitioning. A
//! [`ShardedStore`] is built two ways. [`ShardedStore::ingest`] reduces
//! a parsed log **once** (Causality-Preserved Reduction is applied
//! globally, so merge decisions never depend on where a shard boundary
//! falls) and then splits the time-ordered stream into `n` contiguous
//! slices of near-equal size — a time-window partition, since audit
//! streams arrive in time order — each indexed into an [`EventShard`]
//! (its events plus their postings by operation, subject and object).
//! A [`crate::stream::StreamingStore`] snapshot assembles one from its
//! sealed shards and open window ([`ShardedStore::from_parts`]).
//!
//! Entities are not partitioned: the store holds one [`EntityCatalog`],
//! entity ids are global, and shards carry event data only.
//! Event *positions* are global: shard `i` holds the contiguous position
//! range `[offset(i), offset(i) + shard(i).event_count())`, and a global
//! position maps back to `(shard, local)` with a binary search over the
//! offsets. Building with any shard count from the same `(log, cpr)`
//! input yields exactly the same events at exactly the same global
//! positions — the invariant the executor's parity guarantee rests on.

use crate::catalog::EntityCatalog;
use crate::cpr::{self, ReductionStats};
use crate::store::EventShard;
use std::sync::Arc;
use threatraptor_audit::entity::{Entity, EntityId};
use threatraptor_audit::event::Event;
use threatraptor_audit::parser::ParsedLog;

/// Runs `f(0..n)` across at most `workers` scoped threads, each worker
/// taking a contiguous chunk, and returns the results in index order —
/// the fan-out shape shared by shard ingestion here and the graph-only
/// baseline's edge scan. `workers <= 1` (or `n <= 1`) runs inline with
/// no thread spawns.
pub fn fan_out<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (lo, hi) = (w * chunk, ((w + 1) * chunk).min(n));
                let f = &f;
                scope.spawn(move || (lo..hi).map(f).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fan-out worker panicked"))
            .collect()
    })
}

/// Stream provenance of a snapshot, for incremental (delta) standing
/// queries: where the immutable sealed prefix ends and how far the CPR
/// watermark has advanced. Snapshots built from a batch log carry no
/// frontier ([`ShardedStore::frontier`] is `None`) — consumers must then
/// treat the whole store as provisional and scan it from position zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFrontier {
    /// Global positions `[0, sealed_events)` are sealed: byte-identical
    /// in every later snapshot of the same stream. Positions at or above
    /// it form the open window, which is provisional (an open CPR run
    /// may still absorb later constituents or be re-led).
    pub sealed_events: usize,
    /// The reducer's sealing watermark: every *future* non-final output
    /// of the stream starts at or after this time. With CPR off no run is
    /// open, so this is the high-water start: events at it stay in the
    /// open window until a later start arrives, exactly as with CPR on.
    /// Outputs ascend by `(start, end, id)` within each seal; a straggler
    /// below the watermark sorts into the open window.
    pub watermark: u64,
    /// Minimum start time over the open window's events (`None` when the
    /// open window is empty). Together with the watermark this bounds the
    /// start of any row that can still appear or change: rows older than
    /// `min(watermark, open_min_start)` are settled for good.
    pub open_min_start: Option<u64>,
}

impl StreamFrontier {
    /// The start time below which no row of this stream can ever again
    /// appear, change, or be re-scanned by a delta poll: the minimum of
    /// the watermark (bounds future outputs) and the open window's
    /// earliest start (bounds re-scanned provisional rows).
    pub fn settled_before(&self) -> u64 {
        self.open_min_start
            .map_or(self.watermark, |lo| lo.min(self.watermark))
    }
}

/// A log partitioned into independent [`EventShard`]s by time-window,
/// with globally reduced events and global entity ids.
///
/// Shards and catalog generations are held behind [`Arc`]: cloning a
/// `ShardedStore`, or assembling one from already-built shards (the
/// streaming snapshot path in [`crate::stream`]), costs reference
/// counts, not index rebuilds.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    shards: Vec<Arc<EventShard>>,
    /// `offsets[i]` is the global position of shard `i`'s first event;
    /// a trailing sentinel holds the total event count.
    offsets: Vec<usize>,
    reduction: ReductionStats,
    /// Every entity the shards' events reference.
    catalog: EntityCatalog,
    /// Stream provenance, when this store is a streaming snapshot.
    frontier: Option<StreamFrontier>,
}

impl ShardedStore {
    /// Ingests a parsed log into `shards` shards, optionally applying CPR
    /// (globally, before partitioning). Either way the stored events are
    /// in `(start, end, id)` order; with CPR off nothing merges. Several shards are indexed in
    /// parallel on scoped threads; one shard takes the reduced events
    /// without a copy. `shards` is clamped to at least 1.
    pub fn ingest(log: &ParsedLog, use_cpr: bool, shards: usize) -> ShardedStore {
        let (events, reduction) = cpr::reduce(&log.events, use_cpr);
        let catalog = EntityCatalog::from_entities(&log.entities);
        Self::build(catalog, events, reduction, shards)
    }

    /// Assembles a store from already-built shards (the streaming
    /// snapshot path): offsets are derived from the shards' event counts,
    /// `catalog` holds every entity their events reference, and
    /// `reduction` is the stream-global statistic.
    pub fn from_parts(
        shards: Vec<Arc<EventShard>>,
        catalog: EntityCatalog,
        reduction: ReductionStats,
    ) -> ShardedStore {
        assert!(
            !shards.is_empty(),
            "a sharded store needs at least one shard"
        );
        let mut offsets = Vec::with_capacity(shards.len() + 1);
        let mut pos = 0usize;
        for shard in &shards {
            offsets.push(pos);
            pos += shard.event_count();
        }
        offsets.push(pos);
        ShardedStore {
            shards,
            offsets,
            reduction,
            catalog,
            frontier: None,
        }
    }

    /// Attaches stream provenance (the streaming snapshot path; batch
    /// builds carry none).
    pub fn with_frontier(mut self, frontier: StreamFrontier) -> ShardedStore {
        self.frontier = Some(frontier);
        self
    }

    /// Stream provenance of this snapshot, when it was taken from a
    /// [`crate::stream::StreamingStore`]; `None` for batch-built stores.
    pub fn frontier(&self) -> Option<StreamFrontier> {
        self.frontier
    }

    fn build(
        catalog: EntityCatalog,
        events: Vec<Event>,
        reduction: ReductionStats,
        shards: usize,
    ) -> ShardedStore {
        let n = shards.max(1);
        // Contiguous near-equal slices: the first `rem` shards take one
        // extra event. Over a time-ordered stream this is a time-window
        // partition balanced by event count.
        let base = events.len() / n;
        let rem = events.len() % n;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut pos = 0usize;
        for i in 0..n {
            offsets.push(pos);
            pos += base + usize::from(i < rem);
        }
        offsets.push(pos);
        debug_assert_eq!(pos, events.len());

        let shards: Vec<Arc<EventShard>> = if n == 1 {
            vec![Arc::new(EventShard::build(events))]
        } else {
            // Shard counts are caller-controlled: bound the build pool by
            // the core count instead of one thread per shard.
            let workers = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1);
            fan_out(n, workers, |i| {
                let slice = &events[offsets[i]..offsets[i + 1]];
                Arc::new(EventShard::build(slice.to_vec()))
            })
        };

        ShardedStore {
            shards,
            offsets,
            reduction,
            catalog,
            frontier: None,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// All shards, in time order.
    pub fn shards(&self) -> &[Arc<EventShard>] {
        &self.shards
    }

    /// Shard `i`.
    pub fn shard(&self, i: usize) -> &EventShard {
        &self.shards[i]
    }

    /// Global position of shard `i`'s first event.
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Maps a global event position to `(shard index, local position)`.
    pub fn locate(&self, pos: usize) -> (usize, usize) {
        assert!(pos < self.event_count(), "event position out of range");
        // partition_point returns the first offset > pos; its predecessor
        // is the owning shard.
        let shard = self.offsets.partition_point(|&o| o <= pos) - 1;
        (shard, pos - self.offsets[shard])
    }

    /// Global CPR statistics of the ingest.
    pub fn reduction(&self) -> ReductionStats {
        self.reduction
    }

    /// Total number of stored events across all shards.
    pub fn event_count(&self) -> usize {
        *self.offsets.last().expect("offsets always has a sentinel")
    }

    /// Entity accessor (entity ids are global).
    pub fn entity(&self, id: EntityId) -> &Entity {
        self.catalog.entity(id)
    }

    /// The entity catalog: all entities and their per-kind positions, the
    /// one place entity filters are resolved.
    pub fn catalog(&self) -> &EntityCatalog {
        &self.catalog
    }

    /// Event at a global position.
    pub fn event_at(&self, pos: usize) -> &Event {
        let (shard, local) = self.locate(pos);
        self.shards[shard].event_at(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_audit::sim::scenario::ScenarioBuilder;

    fn scenario_log() -> ParsedLog {
        ScenarioBuilder::new()
            .seed(42)
            .target_events(3_000)
            .build()
            .log
    }

    #[test]
    fn sharding_preserves_the_global_event_stream() {
        let log = scenario_log();
        let single = ShardedStore::ingest(&log, true, 1);
        let sharded = ShardedStore::ingest(&log, true, 4);
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(sharded.event_count(), single.event_count());
        assert_eq!(sharded.reduction(), single.reduction());
        for pos in 0..single.event_count() {
            assert_eq!(
                sharded.event_at(pos),
                single.event_at(pos),
                "position {pos}"
            );
        }
    }

    #[test]
    fn shards_are_contiguous_time_windows() {
        let log = scenario_log();
        let sharded = ShardedStore::ingest(&log, true, 8);
        // Over a start-sorted stream, contiguous partitioning means every
        // event in shard i+1 starts no earlier than every event in shard
        // i (window *ends* may overlap when a long event in one shard
        // outlasts the start of the next: the cut is by position in the
        // sorted stream, not a half-open time interval).
        let mut prev_last_start = 0u64;
        for i in 0..sharded.shard_count() {
            let events = &sharded.shard(i).events;
            let first = events.first().expect("non-empty shard");
            assert!(
                first.start >= prev_last_start,
                "shard {i} starts before its predecessor's last event"
            );
            assert!(events.iter().all(|e| e.start >= first.start));
            prev_last_start = events.last().unwrap().start;
        }
    }

    #[test]
    fn entities_stored_once_and_ids_global() {
        let log = scenario_log();
        let sharded = ShardedStore::ingest(&log, false, 3);
        // Batch construction is the one-generation catalog, held once by
        // the store and by no shard.
        assert_eq!(sharded.catalog().generations().len(), 1);
        assert_eq!(Arc::strong_count(&sharded.catalog().generations()[0]), 1);
        assert_eq!(sharded.catalog().len(), log.entities.len());
        assert!(sharded.catalog().iter().eq(log.entities.iter()));
        let id = EntityId(log.entities.len() as u32 - 1);
        assert_eq!(sharded.entity(id), &log.entities[id.index()]);
    }

    #[test]
    fn locate_round_trips() {
        let log = scenario_log();
        let sharded = ShardedStore::ingest(&log, true, 5);
        for pos in [0, 1, sharded.event_count() / 2, sharded.event_count() - 1] {
            let (shard, local) = sharded.locate(pos);
            assert_eq!(sharded.offset(shard) + local, pos);
            assert!(local < sharded.shard(shard).event_count());
        }
    }

    #[test]
    fn more_shards_than_events_leaves_empty_shards() {
        let log = ScenarioBuilder::new()
            .seed(1)
            .no_attacks()
            .target_events(50)
            .build()
            .log;
        let n = log.events.len() + 10;
        let sharded = ShardedStore::ingest(&log, false, n);
        assert_eq!(sharded.shard_count(), n);
        assert_eq!(sharded.event_count(), log.events.len());
        assert!(sharded.shards().iter().any(|s| s.event_count() == 0));
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let log = scenario_log();
        let sharded = ShardedStore::ingest(&log, true, 0);
        assert_eq!(sharded.shard_count(), 1);
    }
}
