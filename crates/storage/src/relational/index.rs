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

/// B-tree index: ordered, supports range scans. Mirrors PostgreSQL's
/// default btree index (e.g. on `event.start` or entity-id columns).
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

    /// Rows whose key lies within `[lo, hi]` (inclusive), in key order.
    pub fn range(&self, lo: &Value, hi: &Value) -> Vec<RowId> {
        if lo > hi {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (_, rows) in self.map.range(lo.clone()..=hi.clone()) {
            out.extend_from_slice(rows);
        }
        out
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
    use proptest::prelude::*;

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
    fn btree_range_scan() {
        let mut idx = BTreeIndex::default();
        for i in 0..10i64 {
            idx.insert(Value::int(i * 10), i as RowId);
        }
        assert_eq!(idx.range(&Value::int(25), &Value::int(55)), vec![3, 4, 5]);
        assert_eq!(idx.range(&Value::int(90), &Value::int(90)), vec![9]);
        assert!(idx.range(&Value::int(91), &Value::int(100)).is_empty());
        assert!(idx.range(&Value::int(50), &Value::int(10)).is_empty());
    }

    #[test]
    fn btree_equality_via_get() {
        let mut idx = BTreeIndex::default();
        idx.insert(Value::int(5), 7);
        idx.insert(Value::int(5), 9);
        assert_eq!(idx.get(&Value::int(5)), &[7, 9]);
        assert_eq!(idx.distinct_keys(), 1);
    }

    proptest! {
        /// Range scans agree with a linear filter over the inserted keys.
        #[test]
        fn btree_range_matches_filter(
            keys in prop::collection::vec(0i64..100, 0..50),
            lo in 0i64..100,
            span in 0i64..40,
        ) {
            let hi = (lo + span).min(99);
            let mut idx = BTreeIndex::default();
            for (row, &k) in keys.iter().enumerate() {
                idx.insert(Value::int(k), row);
            }
            let mut expect: Vec<RowId> = keys
                .iter()
                .enumerate()
                .filter(|(_, &k)| k >= lo && k <= hi)
                .map(|(row, _)| row)
                .collect();
            let mut got = idx.range(&Value::int(lo), &Value::int(hi));
            expect.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }
}
