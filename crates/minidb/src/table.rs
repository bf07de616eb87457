//! Heap tables with secondary indexes.
//!
//! A [`Table`] is an append-only row vector with tombstone deletion and
//! any number of secondary [`Index`]es (B-tree ordered). An index keys
//! each row by one fixed-width word per key column (the words are
//! defined in [`crate::access`]) and is read only by walking it
//! ([`Index::walk`]: a key prefix plus an optional range on the next
//! key column), which is how [`crate::access`] reaches the rows a
//! filter selects. Index maintenance happens inside `insert`/`delete`,
//! so readers can always trust them. A row is never rewritten in place.

use crate::access;
use crate::error::{DbError, Result};
use crate::value::{DataType, Value};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A row is a vector of values, one per column.
pub type Row = Vec<Value>;

/// Stable identifier of a row within its table (slot index).
pub type RowId = usize;

/// One column declaration.
#[derive(Debug, Clone)]
pub struct Column {
    /// Column name (unique within the table).
    pub name: String,
    /// Declared type, checked on insert.
    pub dtype: DataType,
    /// Whether NULL is allowed.
    pub nullable: bool,
}

impl Column {
    /// Non-nullable column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Column {
        Column { name: name.into(), dtype, nullable: false }
    }

    /// Nullable column.
    pub fn nullable(name: impl Into<String>, dtype: DataType) -> Column {
        Column { name: name.into(), dtype, nullable: true }
    }
}

/// Ordered column list of a table or derived result.
#[derive(Debug, Clone, Default)]
pub struct TableSchema {
    /// Columns in declaration order.
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// Build from a column list.
    pub fn new(columns: Vec<Column>) -> TableSchema {
        TableSchema { columns }
    }

    /// Index of the column named `name`.
    pub fn col(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| DbError::NoSuchColumn(name.to_string()))
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Validate a row against declared types and nullability.
    pub fn check(&self, row: &Row) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(DbError::SchemaMismatch(format!(
                "expected {} values, got {}",
                self.columns.len(),
                row.len()
            )));
        }
        for (v, c) in row.iter().zip(&self.columns) {
            if v.is_null() {
                if !c.nullable {
                    return Err(DbError::SchemaMismatch(format!("column {} is NOT NULL", c.name)));
                }
            } else if !c.dtype.admits(v) {
                return Err(DbError::SchemaMismatch(format!(
                    "column {} ({}) cannot hold {v:?}",
                    c.name,
                    c.dtype.keyword()
                )));
            }
        }
        Ok(())
    }
}

/// The most key columns one index covers.
pub const MAX_INDEX_COLUMNS: usize = 3;

/// An index key: one word per key column, in key order; the words past
/// the index's last column are 0.
pub(crate) type IndexKey = [u64; MAX_INDEX_COLUMNS];

/// The rows holding one key, in insertion order. A key held by one row
/// keeps its id inline; a repeated key keeps one contiguous run.
#[derive(Debug, Clone)]
enum Postings {
    One(RowId),
    Many(Vec<RowId>),
}

impl Postings {
    fn as_slice(&self) -> &[RowId] {
        match self {
            Postings::One(rid) => std::slice::from_ref(rid),
            Postings::Many(rids) => rids,
        }
    }

    fn push(&mut self, rid: RowId) {
        match self {
            Postings::One(first) => *self = Postings::Many(vec![*first, rid]),
            Postings::Many(rids) => rids.push(rid),
        }
    }

    /// Drop `rid`; true when no row is left.
    fn remove(&mut self, rid: RowId) -> bool {
        match self {
            Postings::One(only) => *only == rid,
            Postings::Many(rids) => {
                rids.retain(|&r| r != rid);
                match rids[..] {
                    [] => true,
                    [only] => {
                        *self = Postings::One(only);
                        false
                    }
                    _ => false,
                }
            }
        }
    }
}

/// A secondary B-tree index over one to [`MAX_INDEX_COLUMNS`] columns.
///
/// Rows are keyed by one `u64` word per key column, monotone in
/// [`Value::total_cmp`] for the column's declared type except on text,
/// whose word is a hash ([`crate::access`] defines the words). Unequal
/// values may share a word, so the map narrows a search and the rows'
/// values decide: the unique check compares them, and every walk's
/// caller re-applies its filter.
#[derive(Debug, Clone)]
pub struct Index {
    /// Index name (unique within the table).
    pub name: String,
    /// Indexed column positions, in key order.
    pub columns: Vec<usize>,
    /// Reject duplicate keys when true.
    pub unique: bool,
    /// Declared type of each key column, which picks its words.
    types: Vec<DataType>,
    map: BTreeMap<IndexKey, Postings>,
}

impl Index {
    fn key_of(&self, row: &Row) -> IndexKey {
        let mut key = [0; MAX_INDEX_COLUMNS];
        for ((word, &c), &t) in key.iter_mut().zip(&self.columns).zip(&self.types) {
            *word = access::key_word(t, &row[c]);
        }
        key
    }

    /// Add `row` under `rid` in one descent of the tree. A unique index
    /// adds nothing and returns false when a row of `rows` under the same
    /// key words has the same values in every key column.
    fn add(&mut self, rows: &[Option<Row>], row: &Row, rid: RowId) -> bool {
        match self.map.entry(self.key_of(row)) {
            Entry::Vacant(e) => {
                e.insert(Postings::One(rid));
            }
            Entry::Occupied(mut e) => {
                let same = |&r: &RowId| {
                    rows[r].as_ref().is_some_and(|r| self.columns.iter().all(|&c| r[c] == row[c]))
                };
                if self.unique && e.get().as_slice().iter().any(same) {
                    return false;
                }
                e.get_mut().push(rid);
            }
        }
        true
    }

    /// Take `rid`, which holds `row`, out of the index.
    fn remove(&mut self, row: &Row, rid: RowId) {
        if let Entry::Occupied(mut e) = self.map.entry(self.key_of(row)) {
            if e.get_mut().remove(rid) {
                e.remove();
            }
        }
    }

    /// Row ids whose key begins with `prefix` and whose next column lies
    /// within `lo ..= hi` (each end open, inclusive or exclusive), in
    /// word order: numbers, booleans and NULL in value order, text in
    /// hash order, and the rows of one key in insertion order.
    ///
    /// The prefix and bounds are encoded as inclusive word ranges
    /// ([`crate::access`]), so the walk may also return rows whose words
    /// tie with a bound's or the prefix's (an exclusive bound's own value
    /// included), and rows past a cross-type literal it cannot encode
    /// exactly, whose range it widens. It never skips a row in range.
    /// The walk seeks once, to the first candidate key, and stops at the
    /// first key past the last, so a range whose words are empty visits
    /// nothing.
    pub fn walk<'a>(
        &'a self,
        prefix: &'a [Value],
        lo: Bound<&'a Value>,
        hi: Bound<&'a Value>,
    ) -> impl Iterator<Item = RowId> + 'a {
        access::key_range(&self.types, prefix, lo, hi)
            .into_iter()
            .flat_map(|(start, end)| self.map.range(start..).take_while(move |(k, _)| **k <= end))
            .flat_map(|(_, postings)| postings.as_slice().iter().copied())
    }
}

/// A heap table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Column declarations.
    pub schema: TableSchema,
    rows: Vec<Option<Row>>,
    live: usize,
    indexes: Vec<Index>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: TableSchema) -> Table {
        Table { name: name.into(), schema, rows: Vec::new(), live: 0, indexes: Vec::new() }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the table holds no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Add a secondary index named `name` over `columns`; existing rows
    /// are indexed immediately.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        columns: Vec<usize>,
        unique: bool,
    ) -> Result<()> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(DbError::TableExists(format!("index {name}")));
        }
        if columns.len() > MAX_INDEX_COLUMNS {
            return Err(DbError::Plan(format!(
                "index {name} has {} columns; at most {MAX_INDEX_COLUMNS} are supported",
                columns.len()
            )));
        }
        let mut types = Vec::with_capacity(columns.len());
        for &c in &columns {
            let col = self
                .schema
                .columns
                .get(c)
                .ok_or_else(|| DbError::Plan(format!("index column #{c} out of range")))?;
            types.push(col.dtype);
        }
        let mut idx = Index { name, columns, unique, types, map: BTreeMap::new() };
        for (rid, slot) in self.rows.iter().enumerate() {
            if let Some(row) = slot {
                if !idx.add(&self.rows, row, rid) {
                    return Err(DbError::Duplicate(format!("building unique index {}", idx.name)));
                }
            }
        }
        self.indexes.push(idx);
        Ok(())
    }

    /// Find an index by name.
    pub fn index(&self, name: &str) -> Result<&Index> {
        self.indexes
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| DbError::NoSuchIndex(name.to_string()))
    }

    /// All indexes.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Insert one row; returns its RowId.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        self.schema.check(&row)?;
        let rid = self.rows.len();
        for i in 0..self.indexes.len() {
            if !self.indexes[i].add(&self.rows, &row, rid) {
                // A unique index refused the row: take it back out of the
                // indexes before it, so the insert changes nothing.
                for idx in &mut self.indexes[..i] {
                    idx.remove(&row, rid);
                }
                return Err(DbError::Duplicate(format!(
                    "index {} on table {}",
                    self.indexes[i].name, self.name
                )));
            }
        }
        self.rows.push(Some(row));
        self.live += 1;
        Ok(rid)
    }

    /// Insert many rows; all-or-nothing per row (earlier rows stay).
    pub fn insert_many(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<usize> {
        let mut n = 0;
        for r in rows {
            self.insert(r)?;
            n += 1;
        }
        Ok(n)
    }

    /// Borrow a row by id (None for tombstones/out of range).
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.rows.get(rid).and_then(|s| s.as_ref())
    }

    /// Delete a row by id; returns true if it was live.
    pub fn delete(&mut self, rid: RowId) -> bool {
        let Some(slot) = self.rows.get_mut(rid) else {
            return false;
        };
        let Some(row) = slot.take() else {
            return false;
        };
        self.live -= 1;
        for idx in &mut self.indexes {
            idx.remove(&row, rid);
        }
        true
    }

    /// Iterate live rows as `(RowId, &Row)`.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows.iter().enumerate().filter_map(|(rid, s)| s.as_ref().map(|r| (rid, r)))
    }

    /// Rough memory footprint of the live rows in bytes, for storage
    /// accounting in the evaluation. Index storage is not counted.
    pub fn approx_bytes(&self) -> usize {
        let mut total = 0;
        for (_, row) in self.scan() {
            total += std::mem::size_of::<Value>() * row.len();
            for v in row {
                if let Value::Str(s) = v {
                    total += s.len();
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};

    fn people() -> Table {
        let mut t = Table::new(
            "people",
            TableSchema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::nullable("age", DataType::Int),
            ]),
        );
        t.insert(vec![1.into(), "ada".into(), 36.into()]).unwrap();
        t.insert(vec![2.into(), "bob".into(), Value::Null]).unwrap();
        t.insert(vec![3.into(), "cy".into(), 36.into()]).unwrap();
        t
    }

    #[test]
    fn insert_scan_len() {
        let t = people();
        assert_eq!(t.len(), 3);
        let names: Vec<_> = t.scan().map(|(_, r)| r[1].clone()).collect();
        assert_eq!(names, vec!["ada".into(), "bob".into(), "cy".into()] as Vec<Value>);
    }

    #[test]
    fn schema_enforced() {
        let mut t = people();
        assert!(matches!(
            t.insert(vec![4.into(), Value::Null, Value::Null]),
            Err(DbError::SchemaMismatch(_))
        ));
        assert!(matches!(t.insert(vec![4.into(), "d".into()]), Err(DbError::SchemaMismatch(_))));
        assert!(matches!(
            t.insert(vec!["x".into(), "d".into(), Value::Null]),
            Err(DbError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn delete_and_tombstones() {
        let mut t = people();
        assert!(t.delete(1));
        assert!(!t.delete(1));
        assert_eq!(t.len(), 2);
        assert!(t.get(1).is_none());
        assert!(t.get(0).is_some());
        let victims: Vec<RowId> =
            t.scan().filter(|(_, r)| r[2] == Value::Int(36)).map(|(rid, _)| rid).collect();
        assert_eq!(victims, vec![0, 2]);
        for rid in victims {
            assert!(t.delete(rid));
        }
        assert!(t.is_empty());
    }

    /// Row ids under `key` exactly: the walk of the whole key.
    fn point(idx: &Index, key: &[Value]) -> Vec<RowId> {
        idx.walk(key, Bound::Unbounded, Bound::Unbounded).collect()
    }

    #[test]
    fn index_point_and_range() {
        let mut t = people();
        t.create_index("by_age", vec![2], false).unwrap();
        let idx = t.index("by_age").unwrap();
        assert_eq!(point(idx, &[36.into()]), vec![0, 2]);
        assert_eq!(point(idx, &[99.into()]), Vec::<RowId>::new());
        assert_eq!(point(idx, &[Value::Null]), vec![1]);
        let (lo, hi) = (Value::Int(30), Value::Int(40));
        let r: Vec<_> = idx.walk(&[], Bound::Included(&lo), Bound::Included(&hi)).collect();
        // Key order, then insertion order within a key.
        assert_eq!(r, vec![0, 2]);
    }

    #[test]
    fn index_maintained_on_delete_and_insert() {
        let mut t = people();
        t.create_index("by_age", vec![2], false).unwrap();
        t.delete(0);
        assert_eq!(point(t.index("by_age").unwrap(), &[36.into()]), vec![2]);
        t.insert(vec![4.into(), "di".into(), 36.into()]).unwrap();
        assert_eq!(point(t.index("by_age").unwrap(), &[36.into()]), vec![2, 3]);
        // The last row of a key takes the key out of the index.
        t.delete(2);
        t.delete(3);
        assert_eq!(point(t.index("by_age").unwrap(), &[36.into()]), Vec::<RowId>::new());
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut t = people();
        t.create_index("by_age", vec![2], false).unwrap();
        t.create_index("pk", vec![0], true).unwrap();
        assert!(matches!(
            t.insert(vec![1.into(), "dup".into(), Value::Null]),
            Err(DbError::Duplicate(_))
        ));
        assert_eq!(t.len(), 3);
        // The index before the unique one does not keep the refused row.
        assert_eq!(point(t.index("by_age").unwrap(), &[Value::Null]), vec![1]);
        t.insert(vec![4.into(), "di".into(), Value::Null]).unwrap();
        assert_eq!(point(t.index("by_age").unwrap(), &[Value::Null]), vec![1, 3]);
        // and building one over duplicate data fails
        let mut t2 = people();
        assert!(t2.create_index("by_age_u", vec![2], true).is_err());
    }

    #[test]
    fn composite_index_prefix() {
        let mut t = Table::new(
            "t",
            TableSchema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
        );
        for a in 0..3i64 {
            for b in 0..4i64 {
                t.insert(vec![a.into(), b.into()]).unwrap();
            }
        }
        t.create_index("ab", vec![0, 1], false).unwrap();
        let idx = t.index("ab").unwrap();
        let one = [Value::Int(1)];
        assert_eq!(idx.walk(&one, Bound::Unbounded, Bound::Unbounded).count(), 4);
        assert_eq!(point(idx, &[1.into(), 2.into()]), vec![6]);
    }

    #[test]
    fn ints_whose_floats_tie_stay_two_keys() {
        // 2^53 + 1 rounds to 2^53 as an f64, so both Ints share a word
        // in a Float column, yet `total_cmp` tells them apart.
        let big = 1i64 << 53;
        let mut t = Table::new("t", TableSchema::new(vec![Column::new("x", DataType::Float)]));
        t.create_index("x_u", vec![0], true).unwrap();
        t.insert(vec![big.into()]).unwrap();
        t.insert(vec![(big + 1).into()]).unwrap();
        assert!(matches!(t.insert(vec![(big + 1).into()]), Err(DbError::Duplicate(_))));
        let scan = |filter: Expr| {
            let mut rows = Vec::new();
            let visited = crate::access::for_each_matching(&t, Some(&filter), |_, r| {
                rows.push(r[0].clone());
                Ok(())
            })
            .unwrap();
            (rows, visited)
        };
        for v in [big, big + 1] {
            // The walk returns both tied rows; the filter keeps one.
            assert_eq!(scan(Expr::col_eq(0, v)), (vec![Value::Int(v)], 2));
        }
        // An exclusive bound keeps the rows tied with its own word.
        let above = Expr::Cmp(CmpOp::Gt, Box::new(Expr::col(0)), Box::new(Expr::lit(big)));
        assert_eq!(scan(above), (vec![Value::Int(big + 1)], 2));
    }

    #[test]
    fn an_unheld_text_visits_nothing() {
        let mut t = people();
        t.create_index("by_name", vec![1], false).unwrap();
        let idx = t.index("by_name").unwrap();
        assert_eq!(point(idx, &["bob".into()]), vec![1]);
        assert_eq!(point(idx, &["zed".into()]), Vec::<RowId>::new());
        assert_eq!(point(idx, &[7.into()]), Vec::<RowId>::new());
    }

    #[test]
    fn an_index_over_four_columns_is_refused() {
        let cols = (0..4).map(|i| Column::new(format!("c{i}"), DataType::Int)).collect();
        let mut t = Table::new("t", TableSchema::new(cols));
        assert!(matches!(t.create_index("wide", vec![0, 1, 2, 3], false), Err(DbError::Plan(_))));
        t.create_index("three", vec![0, 1, 2], false).unwrap();
    }
}
