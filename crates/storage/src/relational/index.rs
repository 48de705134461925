//! Secondary indexes: hash (equality) and B-tree (equality + range).

use super::table::RowId;
use super::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::mem::size_of;

/// Common interface over the two index kinds.
pub trait Index {
    /// Adds a `(key, row)` pair.
    fn insert(&mut self, key: Value, row: RowId);
    /// Rows whose key equals `key` (empty slice when absent).
    fn get(&self, key: &Value) -> &[RowId];
    /// Number of distinct keys.
    fn distinct_keys(&self) -> usize;
}

/// Heap bytes of the keys' strings and the row lists of an index's
/// entries, plus `slots` entry-sized slots for the map itself.
fn entry_bytes<'a>(
    slots: usize,
    entries: impl Iterator<Item = (&'a Value, &'a Vec<RowId>)>,
) -> usize {
    slots * size_of::<(Value, Vec<RowId>)>()
        + entries
            .map(|(key, rows)| key.heap_bytes() + rows.capacity() * size_of::<RowId>())
            .sum::<usize>()
}

/// Hash index: O(1) equality lookups. Mirrors a PostgreSQL hash index on
/// low-cardinality key attributes (e.g. `event.op`).
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    map: HashMap<Value, Vec<RowId>>,
}

impl Index for HashIndex {
    fn insert(&mut self, key: Value, row: RowId) {
        self.map.entry(key).or_default().push(row);
    }

    fn get(&self, key: &Value) -> &[RowId] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

impl HashIndex {
    /// Heap bytes held: the map's slots, its keys' strings and row lists.
    pub fn heap_bytes(&self) -> usize {
        entry_bytes(self.map.capacity(), self.map.iter())
    }
}

/// B-tree index: ordered by key. Mirrors PostgreSQL's default btree
/// index (e.g. on entity-id columns).
#[derive(Debug, Clone, Default)]
pub struct BTreeIndex {
    map: BTreeMap<Value, Vec<RowId>>,
}

impl BTreeIndex {
    /// Heap bytes held: one slot per entry (not the tree's nodes), its
    /// keys' strings and row lists.
    pub fn heap_bytes(&self) -> usize {
        entry_bytes(self.map.len(), self.map.iter())
    }
}

impl Index for BTreeIndex {
    fn insert(&mut self, key: Value, row: RowId) {
        self.map.entry(key).or_default().push(row);
    }

    fn get(&self, key: &Value) -> &[RowId] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_index_basics() {
        let mut idx = HashIndex::default();
        idx.insert(Value::str("read"), 0);
        idx.insert(Value::str("read"), 2);
        idx.insert(Value::str("write"), 1);
        assert_eq!(idx.get(&Value::str("read")), &[0, 2]);
        assert_eq!(idx.get(&Value::str("connect")), &[] as &[RowId]);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn btree_equality_via_get() {
        let mut idx = BTreeIndex::default();
        idx.insert(Value::int(5), 7);
        idx.insert(Value::int(5), 9);
        assert_eq!(idx.get(&Value::int(5)), &[7, 9]);
        assert_eq!(idx.distinct_keys(), 1);
    }
}
