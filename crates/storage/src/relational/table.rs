//! Tables and rows.

use super::index::{BTreeIndex, HashIndex, Index};
use super::predicate::Predicate;
use super::value::Value;
use std::collections::HashMap;
use std::mem::size_of;

/// Row identifier within a table (dense, append-only).
pub type RowId = usize;

/// A row is one value per column, in schema order.
pub type Row = Vec<Value>;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
}

impl Column {
    /// Creates a column.
    pub fn new(name: impl Into<String>) -> Column {
        Column { name: name.into() }
    }
}

/// An append-only typed table with optional secondary indexes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    columns: Vec<Column>,
    col_pos: HashMap<String, usize>,
    rows: Vec<Row>,
    hash_indexes: HashMap<String, HashIndex>,
    btree_indexes: HashMap<String, BTreeIndex>,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Table {
        let col_pos = columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i))
            .collect();
        Table {
            name: name.into(),
            columns,
            col_pos,
            rows: Vec::new(),
            hash_indexes: HashMap::new(),
            btree_indexes: HashMap::new(),
        }
    }

    /// Resolves a column name to its position.
    ///
    /// Panics on unknown columns; the engine validates column names during
    /// compilation, so reaching this with a bad name is a logic bug.
    #[inline]
    pub fn col(&self, name: &str) -> usize {
        *self
            .col_pos
            .get(name)
            .unwrap_or_else(|| panic!("table `{}` has no column `{name}`", self.name))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Heap bytes of the rows (cells and their strings) and indexes, by
    /// capacity; a B-tree counts one slot per entry, not its nodes.
    pub fn heap_bytes(&self) -> usize {
        let rows: usize = self
            .rows
            .iter()
            .map(|row| {
                row.capacity() * size_of::<Value>()
                    + row.iter().map(Value::heap_bytes).sum::<usize>()
            })
            .sum();
        let indexes: usize = self
            .hash_indexes
            .values()
            .map(HashIndex::heap_bytes)
            .sum::<usize>()
            + self
                .btree_indexes
                .values()
                .map(BTreeIndex::heap_bytes)
                .sum::<usize>();
        self.rows.capacity() * size_of::<Row>() + rows + indexes
    }

    /// Appends a row, maintaining all indexes. Returns its [`RowId`].
    ///
    /// Panics if the arity does not match the schema.
    pub fn insert(&mut self, row: Row) -> RowId {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity mismatch on table `{}`",
            self.name
        );
        let id = self.rows.len();
        for (col, idx) in &mut self.hash_indexes {
            idx.insert(row[self.col_pos[col]].clone(), id);
        }
        for (col, idx) in &mut self.btree_indexes {
            idx.insert(row[self.col_pos[col]].clone(), id);
        }
        self.rows.push(row);
        id
    }

    /// Accesses a row by id.
    #[inline]
    pub fn row(&self, id: RowId) -> &Row {
        &self.rows[id]
    }

    /// Builds (or rebuilds) a hash index on `col`.
    pub fn create_hash_index(&mut self, col: &str) {
        let pos = self.col(col);
        let mut idx = HashIndex::default();
        for (rid, row) in self.rows.iter().enumerate() {
            idx.insert(row[pos].clone(), rid);
        }
        self.hash_indexes.insert(col.to_string(), idx);
    }

    /// Builds (or rebuilds) a B-tree index on `col`.
    pub fn create_btree_index(&mut self, col: &str) {
        let pos = self.col(col);
        let mut idx = BTreeIndex::default();
        for (rid, row) in self.rows.iter().enumerate() {
            idx.insert(row[pos].clone(), rid);
        }
        self.btree_indexes.insert(col.to_string(), idx);
    }

    /// The best available index on `col` (hash before B-tree), or `None`
    /// when the column has none. Probes through the handle borrow their
    /// buckets (`&[RowId]`) straight from the index — cost estimation
    /// needs only a bucket's length, and a scan can walk it in place.
    pub fn index(&self, col: &str) -> Option<&dyn Index> {
        if let Some(idx) = self.hash_indexes.get(col) {
            return Some(idx);
        }
        self.btree_indexes.get(col).map(|idx| idx as &dyn Index)
    }

    /// All rows, in insertion ([`RowId`]) order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Evaluates `pred` over the whole table (or an index-reduced subset)
    /// and returns matching row ids in ascending order.
    ///
    /// Index selection: if the predicate pins an indexed column to a
    /// concrete value, the scan walks that value's index bucket (row ids
    /// ascend, since rows are inserted in order) instead of the full
    /// table — the "indexes are created on key attributes to speed up the
    /// search" behavior of §II-B.
    pub fn select(&self, pred: &Predicate) -> Vec<RowId> {
        // Try every indexed column for a pin.
        let candidate = self
            .hash_indexes
            .keys()
            .chain(self.btree_indexes.keys())
            .find_map(|col| Some(self.index(col)?.get(pred.pinned_value(col)?)));
        // Column names resolve to positions once per call, not per row.
        let bound = pred.bind(self);
        match candidate {
            Some(rids) => rids
                .iter()
                .copied()
                .filter(|&rid| bound.eval(&self.rows[rid]))
                .collect(),
            None => self
                .rows
                .iter()
                .enumerate()
                .filter(|(_, row)| bound.eval(row))
                .map(|(rid, _)| rid)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_table(n: usize) -> Table {
        let mut t = Table::new(
            "event",
            vec![Column::new("id"), Column::new("op"), Column::new("start")],
        );
        let ops = ["read", "write", "connect"];
        for i in 0..n {
            t.insert(vec![
                Value::int(i as i64),
                Value::str(ops[i % 3]),
                Value::int((i * 10) as i64),
            ]);
        }
        t
    }

    #[test]
    fn insert_and_access() {
        let t = sample_table(5);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.row(2)[t.col("op")], Value::str("connect"));
        assert_eq!(t.col("start"), 2);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn unknown_column_panics() {
        sample_table(1).col("missing");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = sample_table(0);
        t.insert(vec![Value::int(1)]);
    }

    #[test]
    fn select_without_index_scans() {
        let t = sample_table(30);
        let rids = t.select(&Predicate::eq("op", "read"));
        assert_eq!(rids.len(), 10);
        for rid in rids {
            assert_eq!(t.row(rid)[t.col("op")], Value::str("read"));
        }
    }

    #[test]
    fn select_with_hash_index_matches_scan() {
        let mut t = sample_table(100);
        let scan = t.select(&Predicate::eq("op", "write"));
        t.create_hash_index("op");
        let indexed = t.select(&Predicate::eq("op", "write"));
        assert_eq!(scan, indexed);
    }

    #[test]
    fn index_maintained_across_inserts() {
        let mut t = sample_table(0);
        t.create_hash_index("op");
        t.insert(vec![Value::int(0), Value::str("read"), Value::int(0)]);
        t.insert(vec![Value::int(1), Value::str("read"), Value::int(5)]);
        let rids = t.index("op").unwrap().get(&Value::str("read"));
        assert_eq!(rids.len(), 2);
    }

    proptest! {
        /// Indexed selection must agree with a full scan for any mix of
        /// pinned and non-pinned predicates.
        #[test]
        fn indexed_select_equals_scan(
            n in 1usize..120,
            pin in prop::sample::select(vec!["read", "write", "connect"]),
            lo in 0i64..500,
        ) {
            let mut plain = sample_table(n);
            let pred = Predicate::And(vec![
                Predicate::eq("op", pin),
                Predicate::Cmp("start".into(), super::super::predicate::CmpOp::Ge, Value::int(lo)),
            ]);
            let scan = plain.select(&pred);
            plain.create_hash_index("op");
            plain.create_btree_index("start");
            let indexed = plain.select(&pred);
            prop_assert_eq!(scan, indexed);
        }
    }
}
