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
//! # Layout
//!
//! One put stores all its parts in one buffer, allocated at exactly
//! their total size, and gives them consecutive locators; each locator's
//! slot is a [`Bytes::slice`] of that buffer. A catalog puts a
//! document's CLOBs in one call, in the `(schema order, sibling
//! sequence)` order the response splices them in, so reconstructing a
//! document reads one buffer front to back instead of chasing one
//! allocation per fragment. A slice keeps its whole buffer alive, so a
//! handle fetched from the heap stays valid however long it is held.
//!
//! The layout survives a restart without changing either on-disk
//! format, which still carry one entry per slot. WAL replay hands each
//! committed transaction's run of consecutive `ClobPut` records to one
//! put, which rebuilds the buffer the logging put made. A snapshot
//! keeps no put boundaries, so `ClobStore::load` regroups its slots,
//! in slot order, into buffers of about 64 KiB: a
//! document's CLOBs stay adjacent, at most split across two buffers.
//!
//! The heap has no lock of its own: it lives beside the tables inside
//! the database's visibility gate ([`crate::db`]), so a put is ordered
//! by the [`crate::db::Txn`] that makes it and a reader sees the heap
//! through its [`crate::db::ReadTxn`]. A fetched [`Bytes`] handle stays
//! valid after the gate is released.

use crate::error::{DbError, Result};
use bytes::Bytes;
use std::ops::Range;

/// Locator of a CLOB within a [`ClobStore`].
pub type ClobId = u64;

/// Snapshot load closes a buffer once its slots reach this many bytes.
const LOAD_BUFFER_BYTES: usize = 64 * 1024;

/// Append-only CLOB heap.
#[derive(Debug, Default)]
pub struct ClobStore {
    slots: Vec<Bytes>,
    /// Buffers allocated, one per non-empty put.
    buffers: usize,
}

impl ClobStore {
    /// Empty heap.
    pub fn new() -> ClobStore {
        ClobStore::default()
    }

    /// Store `parts` in one exact-size buffer, returning their
    /// consecutive locators (an empty range, and no buffer, when there
    /// are no parts).
    pub(crate) fn put_clobs<P: AsRef<[u8]>>(&mut self, parts: &[P]) -> Range<ClobId> {
        let first = self.slots.len() as ClobId;
        if parts.is_empty() {
            return first..first;
        }
        let total = parts.iter().map(|p| p.as_ref().len()).sum();
        let mut joined = Vec::with_capacity(total);
        for p in parts {
            joined.extend_from_slice(p.as_ref());
        }
        let buf = Bytes::from(joined);
        let mut start = 0;
        for p in parts {
            let end = start + p.as_ref().len();
            self.slots.push(buf.slice(start..end));
            start = end;
        }
        self.buffers += 1;
        first..self.slots.len() as ClobId
    }

    /// Append a snapshot's slots, in slot order, grouping consecutive
    /// slots into buffers of about `LOAD_BUFFER_BYTES`.
    pub(crate) fn load(&mut self, slots: impl IntoIterator<Item = Result<Vec<u8>>>) -> Result<()> {
        let mut run = Vec::new();
        let mut run_bytes = 0;
        for data in slots {
            let data = data?;
            run_bytes += data.len();
            run.push(data);
            if run_bytes >= LOAD_BUFFER_BYTES {
                self.put_clobs(&run);
                run.clear();
                run_bytes = 0;
            }
        }
        self.put_clobs(&run);
        Ok(())
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

    /// Number of buffers the CLOBs live in: one per put that stored
    /// anything, plus the buffers a snapshot load made.
    pub fn buffers(&self) -> usize {
        self.buffers
    }

    /// Total stored bytes, for storage accounting: the sum of the slot
    /// lengths, which equals the sum of the exact-size buffers.
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
        let a = s.put_clobs(&["hello"]);
        let b = s.put_clobs(&[b"<x/>".to_vec()]);
        assert_eq!((a.clone(), b.clone()), (0..1, 1..2));
        assert_eq!(s.get(a.start).unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(s.get(b.start).unwrap(), Bytes::from_static(b"<x/>"));
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
        let id = s.put_clobs(&[vec![1u8; 1024]]).start;
        let h1 = s.get(id).unwrap();
        let h2 = s.get(id).unwrap();
        assert_eq!(h1.as_ptr(), h2.as_ptr());
    }

    #[test]
    fn one_put_is_one_buffer() {
        let mut s = ClobStore::new();
        let first = s.put_clobs(&["<a>1</a>"]);
        let parts = ["<b>two</b>", "", "<c>three</c>"];
        let locs = s.put_clobs(&parts);
        assert_eq!(locs, 1..4);
        assert_eq!(s.buffers(), 2);
        assert_eq!(s.total_bytes(), 8 + 10 + 12);
        // The parts sit back to back in one allocation.
        let b = s.get(1).unwrap();
        let c = s.get(3).unwrap();
        assert_eq!(b.as_ptr().wrapping_add(b.len()), c.as_ptr());
        for (loc, want) in locs.zip(parts) {
            assert_eq!(&s.get(loc).unwrap()[..], want.as_bytes());
        }
        assert_eq!(&s.get(first.start).unwrap()[..], b"<a>1</a>");
        // An empty put stores nothing and allocates nothing.
        assert_eq!(s.put_clobs::<&str>(&[]), 4..4);
        assert_eq!((s.len(), s.buffers()), (4, 2));
    }

    #[test]
    fn a_handle_outlives_the_heap() {
        let mut s = ClobStore::new();
        s.put_clobs(&["<a/>", "<b/>"]);
        let kept = s.get(1).unwrap();
        drop(s);
        assert_eq!(&kept[..], b"<b/>");
    }

    #[test]
    fn load_groups_slots_into_bounded_buffers() {
        let big = vec![b'x'; LOAD_BUFFER_BYTES / 2];
        let slots = [big.clone(), big.clone(), b"tail".to_vec(), big.clone(), big];
        let mut s = ClobStore::new();
        s.load(slots.iter().cloned().map(Ok)).unwrap();
        assert_eq!(s.len(), 5);
        // Slots 0–1 fill one buffer, 2–4 the next.
        assert_eq!(s.buffers(), 2);
        for (i, want) in slots.iter().enumerate() {
            assert_eq!(&s.get(i as ClobId).unwrap()[..], &want[..]);
        }
        let (a, b) = (s.get(2).unwrap(), s.get(3).unwrap());
        assert_eq!(a.as_ptr().wrapping_add(a.len()), b.as_ptr());
        // A load stops at the first bad slot.
        let mut s = ClobStore::new();
        let bad = [Ok(b"ok".to_vec()), Err(DbError::Corrupt("torn".into()))];
        assert!(s.load(bad).is_err());
    }
}
