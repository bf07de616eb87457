//! Integer keys: the representation the semi-join and `Distinct` run on.
//!
//! The catalog's match pipeline reduces every intermediate result to
//! `(object_id, seq)` pairs (paper §4, Fig 4), both `INT NOT NULL` in
//! the shredded schema. So the executor's set operators take one- or
//! two-column integer relations: scans feeding them project straight
//! into `(i64, i64)` keys instead of cloning whole [`Row`]s, and any
//! other input is run as rows and keyed ([`KeyedRows::from_result_set`]),
//! which fails on a row that does not fit. [`KeyedRows`] is that keyed
//! materialization; [`KeySet`] is the membership structure a semi-join
//! builds from its build side.
//!
//! [`Row`]: crate::table::Row

use crate::error::{DbError, Result};
use crate::exec::ResultSet;
use crate::value::Value;
use std::collections::HashSet;

/// Build-side key counts up to this size use a sorted vector with
/// binary-search membership (better cache behavior, no hashing); larger
/// sets switch to a hash set.
const SORTED_MODE_MAX: usize = 4096;

/// One- or two-column integer keys; the second component is `0` for a
/// one-column key.
pub type Key = (i64, i64);

/// Read the key component at column `c` of `row`: a non-NULL `Int`.
pub(crate) fn int_at(row: &[Value], c: usize) -> Result<i64> {
    match row.get(c) {
        Some(Value::Int(v)) => Ok(*v),
        other => {
            Err(DbError::Plan(format!("key column #{c} must hold a non-NULL INT, got {other:?}")))
        }
    }
}

/// The key at columns `cols` (one or two of them) of `row`.
pub(crate) fn row_key(row: &[Value], cols: &[usize]) -> Result<Key> {
    let a = int_at(row, cols[0])?;
    let b = if cols.len() == 2 { int_at(row, cols[1])? } else { 0 };
    Ok((a, b))
}

/// Rows reduced to integer keys, preserving input order and
/// multiplicity (deduplication is an explicit operation, matching the
/// `Distinct` operator).
#[derive(Debug, Clone, Default)]
pub struct KeyedRows {
    /// Names of the key columns (one or two).
    pub columns: Vec<String>,
    /// The keys, in producer order.
    pub keys: Vec<Key>,
}

impl KeyedRows {
    /// Key materialized rows: every row must be one or two non-NULL
    /// `Int`s.
    pub fn from_result_set(rs: ResultSet) -> Result<KeyedRows> {
        let cols: Vec<usize> = (0..rs.columns.len()).collect();
        if !(1..=2).contains(&cols.len()) {
            return Err(DbError::Plan(format!(
                "a semi-join or Distinct input needs 1 or 2 key columns, got {} ({})",
                cols.len(),
                rs.columns.join(", ")
            )));
        }
        let keys = rs.rows.iter().map(|r| row_key(r, &cols)).collect::<Result<_>>()?;
        Ok(KeyedRows { columns: rs.columns, keys })
    }

    /// Number of key columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Remove duplicates, keeping each key's first occurrence.
    pub fn dedup_first_occurrence(mut self) -> KeyedRows {
        let mut seen = HashSet::with_capacity(self.keys.len());
        self.keys.retain(|k| seen.insert(*k));
        self
    }

    /// Materialize back into rows under the key column names.
    pub fn into_result_set(self) -> ResultSet {
        let two = self.arity() == 2;
        let rows = self
            .keys
            .into_iter()
            .map(
                |(a, b)| if two { vec![Value::Int(a), Value::Int(b)] } else { vec![Value::Int(a)] },
            )
            .collect();
        ResultSet { columns: self.columns, rows }
    }
}

/// A set of integer keys with two internal modes: small sets stay a
/// sorted, deduplicated vector probed by binary search; large sets hash.
#[derive(Debug, Clone)]
pub enum KeySet {
    /// Sorted + deduplicated vector; membership via binary search.
    Sorted(Vec<Key>),
    /// Hash set for large build sides.
    Hashed(HashSet<Key>),
}

impl KeySet {
    /// Build a set from raw (possibly duplicated) keys.
    pub fn build(mut keys: Vec<Key>) -> KeySet {
        if keys.len() <= SORTED_MODE_MAX {
            keys.sort_unstable();
            keys.dedup();
            KeySet::Sorted(keys)
        } else {
            KeySet::Hashed(keys.into_iter().collect())
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        match self {
            KeySet::Sorted(v) => v.binary_search(&key).is_ok(),
            KeySet::Hashed(s) => s.contains(&key),
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        match self {
            KeySet::Sorted(v) => v.len(),
            KeySet::Hashed(s) => s.len(),
        }
    }

    /// True when the set holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_mode_membership() {
        let set = KeySet::build(vec![(3, 0), (1, 0), (2, 0), (1, 0)]);
        assert!(matches!(set, KeySet::Sorted(_)));
        assert_eq!(set.len(), 3);
        assert!(set.contains((1, 0)));
        assert!(set.contains((3, 0)));
        assert!(!set.contains((4, 0)));
        assert!(!set.contains((1, 1)));
    }

    #[test]
    fn hashed_mode_kicks_in_for_large_sets() {
        let keys: Vec<Key> = (0..(SORTED_MODE_MAX as i64 + 10)).map(|i| (i, i * 2)).collect();
        let set = KeySet::build(keys);
        assert!(matches!(set, KeySet::Hashed(_)));
        assert!(set.contains((7, 14)));
        assert!(!set.contains((7, 15)));
    }

    fn keyed(columns: &[&str], keys: Vec<Key>) -> KeyedRows {
        KeyedRows { columns: columns.iter().map(|c| c.to_string()).collect(), keys }
    }

    #[test]
    fn dedup_preserves_first_occurrence_order() {
        let k = keyed(&["a", "b"], vec![(5, 1), (2, 2), (5, 1), (9, 0), (2, 2)]);
        let d = k.dedup_first_occurrence();
        assert_eq!(d.keys, vec![(5, 1), (2, 2), (9, 0)]);
    }

    #[test]
    fn into_result_set_respects_arity() {
        let one = keyed(&["a"], vec![(4, 0)]).into_result_set();
        assert_eq!(one.rows, vec![vec![Value::Int(4)]]);
        let two = keyed(&["a", "b"], vec![(4, 7)]).into_result_set();
        assert_eq!(two.columns, ["a", "b"]);
        assert_eq!(two.rows, vec![vec![Value::Int(4), Value::Int(7)]]);
    }
}
