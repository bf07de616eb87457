//! Heap tables with secondary indexes.
//!
//! A [`Table`] is an append-only row vector with tombstone deletion and
//! any number of secondary [`Index`]es (B-tree ordered). An index is
//! read only by walking it ([`Index::walk`]: a key prefix plus an
//! optional range on the next key column), which is how
//! [`crate::access`] reaches the rows a filter selects. Index
//! maintenance happens inside `insert`/`delete`, so readers can always
//! trust them. A row is never rewritten in place.

use crate::error::{DbError, Result};
use crate::value::{DataType, Value};
use std::collections::BTreeMap;
use std::ops::Bound;

/// A row is a boxed slice of values, one per column.
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

/// A secondary B-tree index over one or more columns.
#[derive(Debug, Clone)]
pub struct Index {
    /// Index name (unique within the table).
    pub name: String,
    /// Indexed column positions, in key order.
    pub columns: Vec<usize>,
    /// Reject duplicate keys when true.
    pub unique: bool,
    map: BTreeMap<Vec<Value>, Vec<RowId>>,
}

impl Index {
    fn key_of(&self, row: &Row) -> Vec<Value> {
        self.columns.iter().map(|&c| row[c].clone()).collect()
    }

    /// Row ids with exactly this key (the unique-constraint check).
    fn get(&self, key: &[Value]) -> &[RowId] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Row ids whose key begins with `prefix` and whose next column lies
    /// within `lo ..= hi` (each end open, inclusive or exclusive), in
    /// key order. The walk seeks to the first candidate key and stops at
    /// the first key past the prefix or past `hi`, so an empty range
    /// (`lo` above `hi`) visits nothing.
    pub fn walk<'a>(
        &'a self,
        prefix: &'a [Value],
        lo: Bound<&'a Value>,
        hi: Bound<&'a Value>,
    ) -> impl Iterator<Item = RowId> + 'a {
        let p = prefix.len();
        let mut start = prefix.to_vec();
        if let Bound::Included(v) | Bound::Excluded(v) = lo {
            start.push(v.clone());
        }
        self.map
            .range(start..)
            .take_while(move |(k, _)| {
                k.starts_with(prefix)
                    && match (hi, k.get(p)) {
                        (Bound::Included(h), Some(v)) => v <= h,
                        (Bound::Excluded(h), Some(v)) => v < h,
                        _ => true,
                    }
            })
            .filter(
                move |(k, _)| !matches!((lo, k.get(p)), (Bound::Excluded(l), Some(v)) if v == l),
            )
            .flat_map(|(_, ids)| ids.iter().copied())
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
        for &c in &columns {
            if c >= self.schema.arity() {
                return Err(DbError::Plan(format!("index column #{c} out of range")));
            }
        }
        let mut idx = Index { name, columns, unique, map: BTreeMap::new() };
        for (rid, slot) in self.rows.iter().enumerate() {
            if let Some(row) = slot {
                let key = idx.key_of(row);
                let ids = idx.map.entry(key).or_default();
                if unique && !ids.is_empty() {
                    return Err(DbError::Duplicate(format!("building unique index {}", idx.name)));
                }
                ids.push(rid);
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
        // Check unique constraints before any mutation.
        for idx in &self.indexes {
            if idx.unique {
                let key = idx.key_of(&row);
                if !idx.get(&key).is_empty() {
                    return Err(DbError::Duplicate(format!(
                        "index {} on table {}",
                        idx.name, self.name
                    )));
                }
            }
        }
        for idx in &mut self.indexes {
            let key = idx.key_of(&row);
            idx.map.entry(key).or_default().push(rid);
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
            let key = idx.key_of(&row);
            if let Some(ids) = idx.map.get_mut(&key) {
                ids.retain(|&r| r != rid);
                if ids.is_empty() {
                    idx.map.remove(&key);
                }
            }
        }
        true
    }

    /// Iterate live rows as `(RowId, &Row)`.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows.iter().enumerate().filter_map(|(rid, s)| s.as_ref().map(|r| (rid, r)))
    }

    /// Rough memory footprint in bytes (rows only), for storage
    /// accounting in the evaluation.
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

    #[test]
    fn index_point_and_range() {
        let mut t = people();
        t.create_index("by_age", vec![2], false).unwrap();
        let idx = t.index("by_age").unwrap();
        assert_eq!(idx.get(&[36.into()]).len(), 2);
        assert_eq!(idx.get(&[99.into()]).len(), 0);
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
        assert_eq!(t.index("by_age").unwrap().get(&[36.into()]).len(), 1);
        t.insert(vec![4.into(), "di".into(), 36.into()]).unwrap();
        assert_eq!(t.index("by_age").unwrap().get(&[36.into()]).len(), 2);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut t = people();
        t.create_index("pk", vec![0], true).unwrap();
        assert!(matches!(
            t.insert(vec![1.into(), "dup".into(), Value::Null]),
            Err(DbError::Duplicate(_))
        ));
        assert_eq!(t.len(), 3);
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
        assert_eq!(idx.get(&[1.into(), 2.into()]).len(), 1);
    }
}
