//! The entity catalog: every entity of a store, once, append-only and
//! shared by reference.
//!
//! Entity ids are dense positions assigned by the parser in
//! first-appearance order, and entities never change once registered. The
//! catalog exploits both: it is a short list of immutable
//! [`Generation`]s behind [`Arc`], each owning a contiguous id range, the
//! entities in it, and per entity kind the ascending positions of that
//! kind's entities — the paper's three entity tables (§II-B) as position
//! lists over one copy of the entities.
//!
//! * [`EntityCatalog::extend`] indexes only the new entities and folds
//!   them together with every trailing generation that is less than
//!   `MERGE_FACTOR` (2) times the size of what follows it. Generation sizes
//!   therefore at least halve from each to the next, so a catalog of `n`
//!   entities has at most `log₂ n + 1` generations, and a generation is
//!   only rebuilt into one at least half again its size — `n` entities
//!   cost at most `n · (1 + log₂ n)` indexed entities over any append
//!   schedule.
//! * Cloning a catalog clones the handle list. A snapshot keeps the
//!   generations it saw alive and never sees a later one; an append never
//!   copies or rebuilds what a held snapshot can see.
//! * A batch store is the one-generation case
//!   ([`EntityCatalog::from_entities`]): the same type, read exactly as
//!   one monolithic list would be.
//! * Every catalog carries a [`Lineage`] token, shared by its clones.
//!   Extending a clone that is shorter than the longest catalog of its
//!   lineage starts a new lineage, so two catalogs share a token only if
//!   they agree on every id both hold: a reader may keep what it derived
//!   from one and reuse it on any other of the same lineage.
//!
//! Readers resolve an entity filter by walking each generation's
//! positions of the filter's kind and taking the union, and an id by
//! locating its generation from the id range: the entity is at
//! `id − base`.

use std::mem::size_of;
use threatraptor_audit::entity::{Entity, EntityId, EntityKind};
use threatraptor_sync::atomic::{AtomicUsize, Ordering};
use threatraptor_sync::Arc;

/// A trailing generation is folded into an append while it holds fewer
/// than this many times the entities that follow it.
const MERGE_FACTOR: usize = 2;

/// One immutable slice of the catalog: the entities with ids in
/// `[base, end)` and, per kind, the positions of that kind's entities.
#[derive(Debug)]
pub struct Generation {
    base: usize,
    entities: Vec<Entity>,
    /// Ascending positions in `entities`, indexed by `EntityKind as usize`.
    positions: [Vec<u32>; 3],
    heap_bytes: usize,
}

impl Generation {
    fn build(base: usize, entities: Vec<Entity>) -> Generation {
        let mut positions: [Vec<u32>; 3] = Default::default();
        for (pos, entity) in entities.iter().enumerate() {
            positions[entity.kind() as usize].push(pos as u32);
        }
        for list in &mut positions {
            list.shrink_to_fit();
        }
        let heap_bytes = entities.capacity() * size_of::<Entity>()
            + entities.iter().map(entity_heap_bytes).sum::<usize>()
            + positions
                .iter()
                .map(|list| list.capacity() * size_of::<u32>())
                .sum::<usize>();
        Generation {
            base,
            entities,
            positions,
            heap_bytes,
        }
    }

    /// First entity id of this generation.
    pub fn base(&self) -> usize {
        self.base
    }

    /// One past the last entity id of this generation.
    pub fn end(&self) -> usize {
        self.base + self.entities.len()
    }

    /// The entities of this generation, in id order.
    pub fn entities(&self) -> &[Entity] {
        &self.entities
    }

    /// Heap bytes of this generation's entities and position lists,
    /// counted once at build (by capacity).
    pub fn heap_bytes(&self) -> usize {
        self.heap_bytes
    }

    /// The positions in [`Generation::entities`] of this generation's
    /// entities of `kind`, ascending (entity `base + pos` is at `pos`).
    #[inline]
    pub fn positions(&self, kind: EntityKind) -> &[u32] {
        &self.positions[kind as usize]
    }
}

/// The identity of one append history: the catalogs that hold it agree
/// on every id they both hold. Compare tokens by pointer
/// ([`Arc::ptr_eq`] on [`EntityCatalog::lineage`]).
#[derive(Debug, Default)]
pub struct Lineage {
    /// Length of the longest catalog of this lineage.
    longest: AtomicUsize,
}

/// All entities registered so far, as a list of shared generations in
/// ascending id order. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct EntityCatalog {
    generations: Vec<Arc<Generation>>,
    lineage: Arc<Lineage>,
}

impl EntityCatalog {
    /// An empty catalog.
    pub fn new() -> EntityCatalog {
        EntityCatalog::default()
    }

    /// A catalog holding `entities` in a single generation — the batch
    /// construction path.
    pub fn from_entities(entities: &[Entity]) -> EntityCatalog {
        let mut catalog = EntityCatalog::new();
        catalog.extend(entities);
        catalog
    }

    /// Registers `new` entities, which must continue the id sequence, and
    /// returns the number of entities this indexed (the new ones plus
    /// those of every generation folded in with them).
    pub fn extend(&mut self, new: &[Entity]) -> usize {
        let len = self.len();
        for (offset, entity) in new.iter().enumerate() {
            assert_eq!(
                entity.id().index(),
                len + offset,
                "appended entities must continue the global id sequence"
            );
        }
        if new.is_empty() {
            return 0;
        }
        // ordering: Relaxed — the exchange only decides which catalog of
        // the lineage may continue it; the entities are this catalog's own.
        let end = len + new.len();
        let longest = &self.lineage.longest;
        if longest
            .compare_exchange(len, end, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            // A longer catalog of this lineage exists, and its next ids
            // need not be these entities: fork.
            self.lineage = Arc::new(Lineage {
                longest: AtomicUsize::new(end),
            });
        }
        let mut first = self.generations.len();
        let mut size = new.len();
        while first > 0 && self.generations[first - 1].entities.len() < MERGE_FACTOR * size {
            first -= 1;
            size += self.generations[first].entities.len();
        }
        let mut entities = Vec::with_capacity(size);
        for folded in &self.generations[first..] {
            entities.extend_from_slice(&folded.entities);
        }
        entities.extend_from_slice(new);
        let base = self.generations.get(first).map_or(len, |g| g.base);
        // Build before the folded generations are freed: otherwise the
        // allocator hands their scattered string chunks straight to the
        // new entities, and every merge shuffles them further (measured
        // on `hunt-hot`: median hunt latency +10 %).
        let merged = Generation::build(base, entities);
        self.generations.truncate(first);
        self.generations.push(Arc::new(merged));
        size
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.generations.last().map_or(0, |g| g.end())
    }

    /// True when no entity is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entity by id. Panics on an id that is not registered.
    #[inline]
    pub fn entity(&self, id: EntityId) -> &Entity {
        // Oldest first: generation sizes halve, so most ids are in the
        // first one or two.
        let index = id.index();
        self.generations
            .iter()
            .find(|g| index < g.end())
            .map(|g| &g.entities[index - g.base])
            .unwrap_or_else(|| panic!("entity {index} is not in the catalog"))
    }

    /// All entities, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Entity> {
        self.generations.iter().flat_map(|g| g.entities.iter())
    }

    /// The generations, in ascending id order.
    pub fn generations(&self) -> &[Arc<Generation>] {
        &self.generations
    }

    /// This catalog's lineage token (see the module docs).
    pub fn lineage(&self) -> &Arc<Lineage> {
        &self.lineage
    }

    /// Heap bytes of every generation (see [`Generation::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.generations.iter().map(|g| g.heap_bytes).sum()
    }
}

/// Heap bytes an entity's strings own.
fn entity_heap_bytes(entity: &Entity) -> usize {
    match entity {
        Entity::Process(p) => p.exename.capacity() + p.cmdline.capacity() + p.owner.capacity(),
        Entity::File(f) => f.name.capacity(),
        Entity::Network(n) => n.src_ip.capacity() + n.dst_ip.capacity() + n.protocol.capacity(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use threatraptor_audit::entity::{FileEntity, NetworkEntity, ProcessEntity};

    /// A small attribute pool, so predicates hit several entities spread
    /// over several generations.
    fn entity(id: usize, kind: u8, attr: u8) -> Entity {
        let id = EntityId(id as u32);
        match kind % 3 {
            0 => Entity::Process(ProcessEntity {
                id,
                pid: 100 + u32::from(attr),
                exename: format!("/bin/tool{}", attr % 5),
                cmdline: format!("tool{} --flag", attr % 5),
                owner: ["root", "www"][usize::from(attr % 2)].into(),
                start_time: u64::from(attr),
            }),
            1 => Entity::File(FileEntity {
                id,
                name: format!("/data/dir{}/file{}", attr % 3, attr % 7),
            }),
            _ => Entity::Network(NetworkEntity {
                id,
                src_ip: "10.0.0.4".into(),
                src_port: 40_000 + u16::from(attr),
                dst_ip: format!("192.168.1.{}", attr % 4),
                dst_port: 443,
                protocol: "tcp".into(),
            }),
        }
    }

    fn entities(spec: &[(u8, u8)]) -> Vec<Entity> {
        spec.iter()
            .enumerate()
            .map(|(id, &(kind, attr))| entity(id, kind, attr))
            .collect()
    }

    /// Cuts `0..n` at the given (wrapped, deduplicated) boundaries.
    fn batches(n: usize, cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
        bounds.extend([0, n]);
        bounds.sort_unstable();
        bounds.dedup();
        bounds.windows(2).map(|w| w[0]..w[1]).collect()
    }

    /// An entity filter: a closure over an entity of its kind.
    type Filter = fn(&Entity) -> bool;

    fn corpus() -> Vec<(EntityKind, &'static str, Filter)> {
        use EntityKind::{File, Network, Process};
        vec![
            (Process, "TRUE", |_| true),
            (Process, "exename LIKE '%tool3%'", |e| {
                e.as_process().is_some_and(|p| p.exename.contains("tool3"))
            }),
            (Process, "owner = 'root'", |e| {
                e.as_process().is_some_and(|p| p.owner == "root")
            }),
            (File, "TRUE", |_| true),
            (File, "name LIKE '%/dir1/%'", |e| {
                e.as_file().is_some_and(|f| f.name.contains("/dir1/"))
            }),
            (File, "name = '/data/dir2/file5'", |e| {
                e.as_file().is_some_and(|f| f.name == "/data/dir2/file5")
            }),
            (Network, "TRUE", |_| true),
            (Network, "dstip = '192.168.1.2'", |e| {
                e.as_network().is_some_and(|n| n.dst_ip == "192.168.1.2")
            }),
            (Network, "dstip LIKE '%.1.3'", |e| {
                e.as_network().is_some_and(|n| n.dst_ip.ends_with(".1.3"))
            }),
        ]
    }

    /// Ids of `kind` that `filter` admits, in ascending order: each
    /// generation's positions of `kind` walked and unioned — what the
    /// engine's resolve step does.
    fn select(catalog: &EntityCatalog, kind: EntityKind, filter: Filter) -> Vec<usize> {
        let mut ids = Vec::new();
        for generation in catalog.generations() {
            let entities = generation.entities();
            ids.extend(
                generation
                    .positions(kind)
                    .iter()
                    .map(|&pos| &entities[pos as usize])
                    .filter(|e| filter(e))
                    .map(|e| e.id().index()),
            );
        }
        ids.sort_unstable();
        ids
    }

    /// Whether entity `id` is of `kind` and `filter` admits it, read at
    /// `id − base` in the generation owning its range — the bound-id
    /// lookup.
    fn lookup(catalog: &EntityCatalog, kind: EntityKind, filter: Filter, id: usize) -> bool {
        let generation = catalog
            .generations()
            .iter()
            .find(|g| id < g.end())
            .expect("id in range");
        assert!(id >= generation.base());
        let entity = &generation.entities()[id - generation.base()];
        entity.kind() == kind && filter(entity)
    }

    fn assert_generation_shape(catalog: &EntityCatalog) {
        let gens = catalog.generations();
        let mut next = 0;
        for g in gens {
            assert_eq!(g.base(), next, "generations tile the id range");
            assert!(g.end() > g.base(), "no empty generation");
            next = g.end();
        }
        for pair in gens.windows(2) {
            let (older, newer) = (pair[0].entities().len(), pair[1].entities().len());
            assert!(older >= MERGE_FACTOR * newer, "sizes at least halve");
        }
    }

    proptest! {
        /// (i) Every snapshot held at any point answers exactly as one
        /// monolithic build over the prefix it saw, and never sees a
        /// later entity; (ii) the work bound, with a snapshot held across
        /// every append.
        #[test]
        fn held_snapshots_answer_as_a_monolithic_build_within_the_work_bound(
            spec in prop::collection::vec((0u8..3, any::<u8>()), 1..160),
            cuts in prop::collection::vec(0usize..200, 0..24),
        ) {
            let all = entities(&spec);
            let mut catalog = EntityCatalog::new();
            let mut held: Vec<EntityCatalog> = Vec::new();
            let mut rows_indexed = 0usize;
            for range in batches(all.len(), &cuts) {
                let batch = &all[range.clone()];
                let indexed = catalog.extend(batch);
                prop_assert!(indexed >= batch.len());
                rows_indexed += indexed;
                prop_assert_eq!(catalog.len(), range.end);
                assert_generation_shape(&catalog);
                held.push(catalog.clone());
            }

            let n = all.len() as f64;
            prop_assert!(
                rows_indexed as f64 <= n * (2.0 + n.log2()),
                "{} rows indexed for {} entities", rows_indexed, all.len()
            );

            for snapshot in &held {
                let seen = snapshot.len();
                prop_assert!(snapshot.generations().len() as f64 <= (seen as f64).log2() + 1.0);
                prop_assert!(snapshot.iter().eq(all[..seen].iter()));
                let oracle = EntityCatalog::from_entities(&all[..seen]);
                prop_assert_eq!(oracle.generations().len(), 1);
                for (kind, text, filter) in corpus() {
                    let got = select(snapshot, kind, filter);
                    prop_assert_eq!(&got, &select(&oracle, kind, filter), "{:?} {}", kind, text);
                    prop_assert!(got.iter().all(|&id| id < seen));
                    for id in (0..seen).step_by(7) {
                        prop_assert_eq!(lookup(snapshot, kind, filter, id), got.contains(&id));
                        prop_assert_eq!(snapshot.entity(EntityId(id as u32)), &all[id]);
                    }
                }
            }
        }
    }

    #[test]
    fn unit_appends_follow_the_binary_counter() {
        let all = entities(&[(0, 0); 64]);
        let mut catalog = EntityCatalog::new();
        let mut rows = 0;
        for (i, e) in all.iter().enumerate() {
            rows += catalog.extend(std::slice::from_ref(e));
            // One generation per set bit of the count.
            assert_eq!(catalog.generations().len(), (i + 1).count_ones() as usize);
        }
        // Append k rebuilds as many rows as k's lowest set bit: summed
        // over 1..=n that is n · (log₂ n / 2 + 1).
        assert_eq!(rows, 64 * 4);
        assert_eq!(catalog.extend(&[]), 0);
    }

    /// A clone extended while a longer catalog of its lineage exists
    /// forks a new lineage; every held snapshot keeps its own, and the
    /// longest catalog keeps extending the original.
    #[test]
    fn forked_clones_start_a_new_lineage() {
        let ours = entities(&[(0, 0), (1, 1), (2, 2), (0, 3), (1, 4)]);
        let theirs = entities(&[(0, 0), (1, 1), (2, 2), (2, 9), (2, 8)]);
        let mut catalog = EntityCatalog::new();
        catalog.extend(&ours[..3]);
        let held = catalog.clone();
        let mut fork = catalog.clone();
        catalog.extend(&ours[3..4]);
        let longer = catalog.clone();
        assert!(Arc::ptr_eq(held.lineage(), catalog.lineage()));

        // `fork` is shorter than the lineage's longest catalog: it forks.
        fork.extend(&theirs[3..]);
        assert!(!Arc::ptr_eq(fork.lineage(), catalog.lineage()));
        assert!(Arc::ptr_eq(held.lineage(), catalog.lineage()));
        assert!(Arc::ptr_eq(longer.lineage(), catalog.lineage()));

        // The longest catalog continues the lineage; empty appends never
        // fork; separately built catalogs never share one.
        catalog.extend(&ours[4..]);
        catalog.extend(&[]);
        assert!(Arc::ptr_eq(held.lineage(), catalog.lineage()));
        let rebuilt = EntityCatalog::from_entities(&ours);
        assert!(!Arc::ptr_eq(rebuilt.lineage(), catalog.lineage()));
        // A snapshot of equal length extended after the original forks.
        let mut twin = longer.clone();
        twin.extend(&theirs[4..]);
        assert!(!Arc::ptr_eq(twin.lineage(), catalog.lineage()));
        assert!(!Arc::ptr_eq(twin.lineage(), fork.lineage()));
    }

    #[test]
    #[should_panic(expected = "global id sequence")]
    fn id_gaps_are_rejected() {
        let all = entities(&[(0, 0), (1, 1), (2, 2)]);
        EntityCatalog::new().extend(&all[1..]);
    }
}
