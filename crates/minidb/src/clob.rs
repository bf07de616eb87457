//! Character Large Object heap.
//!
//! Relational rows store CLOBs as integer *locators* (column type
//! [`crate::value::DataType::Clob`]); the text itself lives in this
//! append-only heap. Fetching a CLOB borrows its text as a `&str`: no
//! copy, no reference-count bump and no UTF-8 check — which is what
//! makes the hybrid catalog's response building cheap: query plans join
//! over locators and only the final response assembly touches text (the
//! paper's point that "the join can utilize the index without accessing
//! the CLOBs until needed in the final join").
//!
//! # Text, checked once
//!
//! The heap holds text. UTF-8 is guaranteed by type where a put comes
//! from the program ([`crate::db::Txn::put_clobs`] takes `&str`-like
//! parts), and checked once where it comes from disk: replay, of the WAL
//! and of a snapshot alike, refuses a CLOB that is not UTF-8 with
//! [`DbError::Corrupt`], so the open fails instead of some later reply.
//! A reader therefore never re-checks what it fetches.
//!
//! # Layout
//!
//! One put stores all its parts in one buffer, allocated at exactly
//! their total size, and gives them consecutive locators; each locator's
//! slot is a byte range of that buffer. A catalog puts a document's
//! CLOBs in one call, in the `(schema order, sibling sequence)` order
//! the response splices them in, so reconstructing a document reads one
//! buffer front to back instead of chasing one allocation per fragment.
//!
//! The layout survives a restart by one rule: one put is one
//! `ClobPut` record, in the WAL and in a snapshot alike. A transaction
//! logs each of its puts as one record, and a checkpoint logs each
//! buffer (`ClobStore::puts`) as one record, so replay rebuilds every
//! buffer the original put made.
//!
//! The heap has no lock of its own: it lives beside the tables inside
//! the database's visibility gate ([`crate::db`]), so a put is ordered
//! by the [`crate::db::Txn`] that makes it and a reader borrows the
//! text through its [`crate::db::ReadTxn`], for as long as it holds the
//! gate.

use crate::error::{DbError, Result};
use std::ops::Range;
use std::sync::Arc;

/// Locator of a CLOB within a [`ClobStore`].
pub type ClobId = u64;

/// One CLOB: a byte range, on part boundaries, of its put's buffer.
#[derive(Debug)]
struct Slot {
    buf: Arc<String>,
    range: Range<usize>,
}

/// Append-only CLOB heap.
#[derive(Debug, Default)]
pub struct ClobStore {
    slots: Vec<Slot>,
    /// Buffers allocated, one per non-empty put.
    buffers: usize,
    /// Sum of the slot lengths.
    bytes: usize,
}

impl ClobStore {
    /// Empty heap.
    pub fn new() -> ClobStore {
        ClobStore::default()
    }

    /// Store `parts` in one exact-size buffer, returning their
    /// consecutive locators (an empty range, and no buffer, when there
    /// are no parts).
    pub(crate) fn put_clobs<P: AsRef<str>>(&mut self, parts: &[P]) -> Range<ClobId> {
        let first = self.slots.len() as ClobId;
        if parts.is_empty() {
            return first..first;
        }
        let total = parts.iter().map(|p| p.as_ref().len()).sum();
        let mut joined = String::with_capacity(total);
        for p in parts {
            joined.push_str(p.as_ref());
        }
        let buf = Arc::new(joined);
        let mut start = 0;
        for p in parts {
            let end = start + p.as_ref().len();
            self.slots.push(Slot { buf: Arc::clone(&buf), range: start..end });
            start = end;
        }
        self.buffers += 1;
        self.bytes += total;
        first..self.slots.len() as ClobId
    }

    /// The heap's puts in locator order, each as its parts' texts: what
    /// a checkpoint logs, one `ClobPut` per buffer.
    pub(crate) fn puts(&self) -> impl Iterator<Item = impl ExactSizeIterator<Item = &str>> {
        self.slots
            .chunk_by(|a, b| Arc::ptr_eq(&a.buf, &b.buf))
            .map(|put| put.iter().map(|slot| &slot.buf[slot.range.clone()]))
    }

    /// The text of the CLOB at `id`, borrowed from the heap.
    pub fn get(&self, id: ClobId) -> Result<&str> {
        let slot = self.slots.get(id as usize).ok_or(DbError::NoSuchClob(id))?;
        Ok(&slot.buf[slot.range.clone()])
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
    /// anything.
    pub fn buffers(&self) -> usize {
        self.buffers
    }

    /// Total stored bytes, for storage accounting: the sum of the slot
    /// lengths, which equals the sum of the exact-size buffers. Kept as
    /// a running count, so reading it walks no slot.
    pub fn total_bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte count the slots add up to, walked the slow way.
    fn slot_bytes(s: &ClobStore) -> usize {
        (0..s.len() as ClobId).map(|id| s.get(id).unwrap().len()).sum()
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = ClobStore::new();
        let a = s.put_clobs(&["hello"]);
        let b = s.put_clobs(&["<x/>".to_string()]);
        assert_eq!((a.clone(), b.clone()), (0..1, 1..2));
        assert_eq!(s.get(a.start).unwrap(), "hello");
        assert_eq!(s.get(b.start).unwrap(), "<x/>");
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_bytes(), 9);
    }

    #[test]
    fn missing_locator() {
        let s = ClobStore::new();
        assert!(matches!(s.get(0), Err(DbError::NoSuchClob(0))));
    }

    #[test]
    fn reads_borrow_the_stored_text() {
        let mut s = ClobStore::new();
        let id = s.put_clobs(&["x".repeat(1024)]).start;
        let (t1, t2) = (s.get(id).unwrap(), s.get(id).unwrap());
        assert_eq!(t1.as_ptr(), t2.as_ptr());
    }

    #[test]
    fn one_put_is_one_buffer() {
        let mut s = ClobStore::new();
        let first = s.put_clobs(&["<a>1</a>"]);
        let parts = ["<b>two</b>", "", "<c>thrée</c>"];
        let locs = s.put_clobs(&parts);
        assert_eq!(locs, 1..4);
        assert_eq!(s.buffers(), 2);
        assert_eq!(s.total_bytes(), 8 + 10 + 13);
        // The parts sit back to back in one allocation.
        let b = s.get(1).unwrap();
        let c = s.get(3).unwrap();
        assert_eq!(b.as_ptr().wrapping_add(b.len()), c.as_ptr());
        for (loc, want) in locs.zip(parts) {
            assert_eq!(s.get(loc).unwrap(), want);
        }
        assert_eq!(s.get(first.start).unwrap(), "<a>1</a>");
        // An empty put stores nothing and allocates nothing.
        assert_eq!(s.put_clobs::<&str>(&[]), 4..4);
        assert_eq!((s.len(), s.buffers()), (4, 2));
    }

    #[test]
    fn puts_are_the_buffers() {
        let mut s = ClobStore::new();
        s.put_clobs(&["<a>1</a>", "", "<b/>"]);
        s.put_clobs::<&str>(&[]);
        s.put_clobs(&[""]);
        s.put_clobs(&["<c/>"]);
        let puts: Vec<Vec<&str>> = s.puts().map(Iterator::collect).collect();
        assert_eq!(puts, [vec!["<a>1</a>", "", "<b/>"], vec![""], vec!["<c/>"]]);
        assert_eq!(puts.len(), s.buffers());
    }

    #[test]
    fn byte_count_tracks_puts() {
        let mut s = ClobStore::new();
        s.put_clobs(&["<a>1</a>", "", "<b>ü</b>"]);
        s.put_clobs::<&str>(&[]);
        s.put_clobs(&["<c/>"]);
        assert_eq!(s.total_bytes(), slot_bytes(&s));
        assert_eq!(s.total_bytes(), 8 + 9 + 4);
    }
}
