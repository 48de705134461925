//! Tables, rows, and the database catalog.

use super::index::{BTreeIndex, HashIndex, Index};
use super::predicate::Predicate;
use super::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

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

    /// The schema, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
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

    /// Whether the table has a column with this name.
    pub fn has_col(&self, name: &str) -> bool {
        self.col_pos.contains_key(name)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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

    /// Iterates `(RowId, &Row)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows.iter().enumerate()
    }

    /// Reads one cell.
    #[inline]
    pub fn cell(&self, id: RowId, col: &str) -> &Value {
        &self.rows[id][self.col(col)]
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

    /// Returns row ids whose `col` equals any of `values`, via the best
    /// available index; `None` when no index exists on `col`.
    pub fn index_lookup(&self, col: &str, values: &[Value]) -> Option<Vec<RowId>> {
        let idx = self.index(col)?;
        let mut out = Vec::new();
        for v in values {
            out.extend_from_slice(idx.get(v));
        }
        Some(out)
    }

    /// Returns row ids whose `col` lies in `[lo, hi]` via a B-tree index;
    /// `None` when no B-tree index exists on `col`.
    pub fn index_range(&self, col: &str, lo: &Value, hi: &Value) -> Option<Vec<RowId>> {
        self.btree_indexes.get(col).map(|idx| idx.range(lo, hi))
    }

    /// Evaluates `pred` over the whole table (or an index-reduced subset)
    /// and returns matching row ids in ascending order.
    ///
    /// Index selection: if the predicate pins an indexed column to
    /// concrete values, the scan starts from the index result instead of
    /// the full table — the "indexes are created on key attributes to
    /// speed up the search" behavior of §II-B.
    pub fn select(&self, pred: &Predicate) -> Vec<RowId> {
        // Try every indexed column for a pin.
        let candidate = self
            .hash_indexes
            .keys()
            .chain(self.btree_indexes.keys())
            .find_map(|col| {
                pred.pinned_values(col)
                    .and_then(|vals| self.index_lookup(col, &vals))
            });
        // Column names resolve to positions once per call, not per row.
        let bound = pred.bind(self);
        match candidate {
            Some(mut rids) => {
                rids.sort_unstable();
                rids.dedup();
                rids.retain(|&rid| bound.eval(&self.rows[rid]));
                rids
            }
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

/// A named collection of tables (the database catalog).
///
/// Tables are held behind [`Arc`] so immutable tables can be *shared*
/// with their owner: a store registers its catalog generation's entity
/// tables and its shard's event table here by handle, not by copy.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: HashMap<String, Arc<Table>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Adds (or replaces) a table.
    pub fn add_table(&mut self, table: Table) {
        self.add_shared_table(Arc::new(table));
    }

    /// Adds (or replaces) a table that may be shared with other catalogs.
    pub fn add_shared_table(&mut self, table: Arc<Table>) {
        self.tables.insert(table.name.clone(), table);
    }

    /// Looks up a table.
    ///
    /// Panics on unknown table names (validated during compilation).
    pub fn table(&self, name: &str) -> &Table {
        self.tables
            .get(name)
            .unwrap_or_else(|| panic!("no table named `{name}`"))
    }

    /// Mutable table lookup. Clones the table first if it is currently
    /// shared with another catalog (copy-on-write).
    pub fn table_mut(&mut self, name: &str) -> &mut Table {
        Arc::make_mut(
            self.tables
                .get_mut(name)
                .unwrap_or_else(|| panic!("no table named `{name}`")),
        )
    }

    /// Whether the database has a table with this name.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn event_table(n: usize) -> Table {
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
        let t = event_table(5);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.cell(2, "op"), &Value::str("connect"));
        assert_eq!(t.col("start"), 2);
        assert!(t.has_col("op") && !t.has_col("nope"));
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn unknown_column_panics() {
        event_table(1).col("missing");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = event_table(0);
        t.insert(vec![Value::int(1)]);
    }

    #[test]
    fn select_without_index_scans() {
        let t = event_table(30);
        let rids = t.select(&Predicate::eq("op", "read"));
        assert_eq!(rids.len(), 10);
        for rid in rids {
            assert_eq!(t.cell(rid, "op"), &Value::str("read"));
        }
    }

    #[test]
    fn select_with_hash_index_matches_scan() {
        let mut t = event_table(100);
        let scan = t.select(&Predicate::eq("op", "write"));
        t.create_hash_index("op");
        let indexed = t.select(&Predicate::eq("op", "write"));
        assert_eq!(scan, indexed);
    }

    #[test]
    fn btree_range_lookup() {
        let mut t = event_table(50);
        t.create_btree_index("start");
        let rids = t
            .index_range("start", &Value::int(100), &Value::int(150))
            .unwrap();
        assert_eq!(rids.len(), 6); // starts 100,110,...,150
        assert!(t
            .index_range("op", &Value::int(0), &Value::int(1))
            .is_none());
    }

    #[test]
    fn index_maintained_across_inserts() {
        let mut t = event_table(0);
        t.create_hash_index("op");
        t.insert(vec![Value::int(0), Value::str("read"), Value::int(0)]);
        t.insert(vec![Value::int(1), Value::str("read"), Value::int(5)]);
        let rids = t.index_lookup("op", &[Value::str("read")]).unwrap();
        assert_eq!(rids.len(), 2);
    }

    #[test]
    fn database_catalog() {
        let mut db = Database::new();
        db.add_table(event_table(3));
        assert!(db.has_table("event"));
        assert_eq!(db.table("event").len(), 3);
        assert_eq!(db.table_names(), vec!["event"]);
        db.table_mut("event")
            .insert(vec![Value::int(3), Value::str("read"), Value::int(30)]);
        assert_eq!(db.table("event").len(), 4);
    }

    #[test]
    #[should_panic(expected = "no table")]
    fn missing_table_panics() {
        Database::new().table("ghost");
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
            let mut plain = event_table(n);
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
