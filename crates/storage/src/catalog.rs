//! The entity catalog: every entity of a store, once, with its indexed
//! tables, append-only and shared by reference.
//!
//! Entity ids are dense positions assigned by the parser in
//! first-appearance order, and entities never change once registered. The
//! catalog exploits both: it is a short list of immutable
//! [`Generation`]s behind [`Arc`], each owning a contiguous id range, the
//! entities in it, and the three entity tables ("Indexes are created on
//! key attributes to speed up the search", §II-B) over exactly that
//! range.
//!
//! * [`EntityCatalog::extend`] indexes only the new entities and folds
//!   them together with every trailing generation that is less than
//!   `MERGE_FACTOR` (2) times the size of what follows it. Generation sizes
//!   therefore at least halve from each to the next, so a catalog of `n`
//!   entities has at most `log₂ n + 1` generations, and a generation is
//!   only rebuilt into one at least half again its size — `n` entities
//!   cost at most `n · (1 + log₂ n)` table rows over any append schedule.
//! * Cloning a catalog clones the handle list. A snapshot keeps the
//!   generations it saw alive and never sees a later one; an append never
//!   copies or rebuilds what a held snapshot can see.
//! * A batch store is the one-generation case
//!   ([`EntityCatalog::from_entities`]): the same type, probed exactly as
//!   one monolithic set of tables would be.
//!
//! Readers resolve an entity predicate by probing each generation's table
//! and taking the union, and an id by locating its generation from the id
//! range.

use crate::relational::{Column, Table, Value};
use crate::store::{TABLE_FILE, TABLE_NETWORK, TABLE_PROCESS};
use std::mem::size_of;
use threatraptor_audit::entity::{Entity, EntityId, EntityKind};
use threatraptor_sync::Arc;

/// A trailing generation is folded into an append while it holds fewer
/// than this many times the entities that follow it.
const MERGE_FACTOR: usize = 2;

/// One immutable slice of the catalog: the entities with ids in
/// `[base, end)` and the three entity tables over them.
#[derive(Debug)]
pub struct Generation {
    base: usize,
    entities: Vec<Entity>,
    process: Arc<Table>,
    file: Arc<Table>,
    network: Arc<Table>,
    heap_bytes: usize,
}

impl Generation {
    fn build(base: usize, entities: Vec<Entity>) -> Generation {
        let (process, file, network) = (
            build_process_table(&entities),
            build_file_table(&entities),
            build_network_table(&entities),
        );
        let heap_bytes = entities.capacity() * size_of::<Entity>()
            + entities.iter().map(entity_heap_bytes).sum::<usize>()
            + process.heap_bytes()
            + file.heap_bytes()
            + network.heap_bytes();
        Generation {
            base,
            process: Arc::new(process),
            file: Arc::new(file),
            network: Arc::new(network),
            entities,
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

    /// Heap bytes of this generation's entities and their three tables,
    /// counted once at build (by capacity).
    pub fn heap_bytes(&self) -> usize {
        self.heap_bytes
    }

    /// The table holding this generation's entities of `kind` (process:
    /// indexed on `id`; file: `id`, `name`; network: `id`, `dstip`), as
    /// the shared handle a [`crate::relational::Database`] registers.
    pub fn table(&self, kind: EntityKind) -> &Arc<Table> {
        match kind {
            EntityKind::Process => &self.process,
            EntityKind::File => &self.file,
            EntityKind::Network => &self.network,
        }
    }
}

/// All entities registered so far, as a list of shared generations in
/// ascending id order. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct EntityCatalog {
    generations: Vec<Arc<Generation>>,
}

impl EntityCatalog {
    /// An empty catalog.
    pub fn new() -> EntityCatalog {
        EntityCatalog::default()
    }

    /// A catalog holding `entities` in a single generation — the batch
    /// construction path.
    pub fn from_entities(entities: &[Entity]) -> EntityCatalog {
        // Starting from an empty generation (which the extend folds away)
        // leaves even an empty log with one generation: its three tables
        // exist, with no rows.
        let mut catalog = EntityCatalog {
            generations: vec![Arc::new(Generation::build(0, Vec::new()))],
        };
        catalog.extend(entities);
        catalog
    }

    /// Registers `new` entities, which must continue the id sequence, and
    /// returns the number of table rows this indexed (the new entities
    /// plus those of every generation folded in with them).
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
        // allocator hands their scattered row and string chunks straight
        // to the new rows, and every merge shuffles the tables further
        // (measured on `hunt-hot`: median hunt latency +10 %).
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

fn build_process_table(entities: &[Entity]) -> Table {
    let mut t = Table::new(
        TABLE_PROCESS,
        vec![
            Column::new("id"),
            Column::new("pid"),
            Column::new("exename"),
            Column::new("cmdline"),
            Column::new("owner"),
            Column::new("start_time"),
        ],
    );
    for e in entities {
        if let Entity::Process(p) = e {
            t.insert(vec![
                Value::from(p.id.0),
                Value::from(p.pid),
                Value::str(&p.exename),
                Value::str(&p.cmdline),
                Value::str(&p.owner),
                Value::from(p.start_time),
            ]);
        }
    }
    t.create_btree_index("id");
    t
}

fn build_file_table(entities: &[Entity]) -> Table {
    let mut t = Table::new(TABLE_FILE, vec![Column::new("id"), Column::new("name")]);
    for e in entities {
        if let Entity::File(f) = e {
            t.insert(vec![Value::from(f.id.0), Value::str(&f.name)]);
        }
    }
    t.create_btree_index("id");
    t.create_hash_index("name");
    t
}

fn build_network_table(entities: &[Entity]) -> Table {
    let mut t = Table::new(
        TABLE_NETWORK,
        vec![
            Column::new("id"),
            Column::new("srcip"),
            Column::new("srcport"),
            Column::new("dstip"),
            Column::new("dstport"),
            Column::new("protocol"),
        ],
    );
    for e in entities {
        if let Entity::Network(n) = e {
            t.insert(vec![
                Value::from(n.id.0),
                Value::str(&n.src_ip),
                Value::from(n.src_port),
                Value::str(&n.dst_ip),
                Value::from(n.dst_port),
                Value::str(&n.protocol),
            ]);
        }
    }
    t.create_btree_index("id");
    t.create_hash_index("dstip");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relational::Predicate;
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

    fn corpus() -> Vec<(EntityKind, Predicate)> {
        vec![
            (EntityKind::Process, Predicate::True),
            (EntityKind::Process, Predicate::like("exename", "%tool3%")),
            (EntityKind::Process, Predicate::eq("owner", "root")),
            (EntityKind::File, Predicate::True),
            (EntityKind::File, Predicate::like("name", "%/dir1/%")),
            (EntityKind::File, Predicate::eq("name", "/data/dir2/file5")),
            (EntityKind::Network, Predicate::True),
            (EntityKind::Network, Predicate::eq("dstip", "192.168.1.2")),
            (EntityKind::Network, Predicate::like("dstip", "%.1.3")),
        ]
    }

    /// Ids of `kind` matching `pred`, in ascending order: per-generation
    /// select, unioned — what the engine's resolve step does.
    fn select(catalog: &EntityCatalog, kind: EntityKind, pred: &Predicate) -> Vec<i64> {
        let mut ids = Vec::new();
        for generation in catalog.generations() {
            let table = generation.table(kind);
            let id_col = table.col("id");
            ids.extend(
                table
                    .select(pred)
                    .into_iter()
                    .map(|rid| table.row(rid)[id_col].as_int().unwrap()),
            );
        }
        ids.sort_unstable();
        ids
    }

    /// Whether entity `id` is of `kind` and matches `pred`, through the
    /// owning generation's `id` index — the bound-id lookup.
    fn lookup(catalog: &EntityCatalog, kind: EntityKind, pred: &Predicate, id: usize) -> bool {
        let generation = catalog
            .generations()
            .iter()
            .find(|g| id < g.end())
            .expect("id in range");
        assert!(id >= generation.base());
        let table = generation.table(kind);
        let pred = pred.bind(table);
        table
            .index("id")
            .unwrap()
            .get(&Value::from(id as u32))
            .iter()
            .any(|&rid| pred.eval(table.row(rid)))
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
                for (kind, pred) in corpus() {
                    let got = select(snapshot, kind, &pred);
                    prop_assert_eq!(&got, &select(&oracle, kind, &pred), "{:?} {:?}", kind, pred);
                    prop_assert!(got.iter().all(|&id| (id as usize) < seen));
                    for id in (0..seen).step_by(7) {
                        prop_assert_eq!(
                            lookup(snapshot, kind, &pred, id),
                            got.contains(&(id as i64))
                        );
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

    #[test]
    #[should_panic(expected = "global id sequence")]
    fn id_gaps_are_rejected() {
        let all = entities(&[(0, 0), (1, 1), (2, 2)]);
        EntityCatalog::new().extend(&all[1..]);
    }
}
