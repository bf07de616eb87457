//! Character Large Object heap.
//!
//! Relational rows store CLOBs as integer *locators* (column type
//! [`crate::value::DataType::Clob`]); the bytes themselves live in this
//! append-only heap as [`Bytes`] handles. Fetching a CLOB clones a
//! reference-counted handle, never the text — which is what makes the
//! hybrid catalog's response building cheap: query plans join over
//! locators and only the final response assembly touches bytes (the
//! paper's point that "the join can utilize the index without accessing
//! the CLOBs until needed in the final join").
//!
//! The heap has no lock of its own: it lives beside the tables inside
//! the database's visibility gate ([`crate::db`]), so a put is ordered
//! by the [`crate::db::Txn`] that makes it and a reader sees the heap
//! through its [`crate::db::ReadTxn`]. A fetched [`Bytes`] handle stays
//! valid after the gate is released.

use crate::error::{DbError, Result};
use bytes::Bytes;

/// Locator of a CLOB within a [`ClobStore`].
pub type ClobId = u64;

/// Append-only CLOB heap.
#[derive(Debug, Default)]
pub struct ClobStore {
    slots: Vec<Bytes>,
}

impl ClobStore {
    /// Empty heap.
    pub fn new() -> ClobStore {
        ClobStore::default()
    }

    /// Store `data`, returning its locator.
    pub fn put(&mut self, data: impl Into<Bytes>) -> ClobId {
        self.slots.push(data.into());
        (self.slots.len() - 1) as ClobId
    }

    /// Fetch by locator (cheap handle clone).
    pub fn get(&self, id: ClobId) -> Result<Bytes> {
        self.slots.get(id as usize).cloned().ok_or(DbError::NoSuchClob(id))
    }

    /// Number of stored CLOBs.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no CLOBs are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored bytes, for storage accounting.
    pub fn total_bytes(&self) -> usize {
        self.slots.iter().map(|b| b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut s = ClobStore::new();
        let a = s.put("hello".as_bytes().to_vec());
        let b = s.put(Bytes::from_static(b"<x/>"));
        assert_eq!(s.get(a).unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(s.get(b).unwrap(), Bytes::from_static(b"<x/>"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_bytes(), 9);
    }

    #[test]
    fn missing_locator() {
        let s = ClobStore::new();
        assert!(matches!(s.get(0), Err(DbError::NoSuchClob(0))));
    }

    #[test]
    fn handles_share_storage() {
        let mut s = ClobStore::new();
        let id = s.put(Bytes::from(vec![1u8; 1024]));
        let h1 = s.get(id).unwrap();
        let h2 = s.get(id).unwrap();
        assert_eq!(h1.as_ptr(), h2.as_ptr());
    }
}
