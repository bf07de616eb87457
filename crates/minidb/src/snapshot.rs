//! Database snapshots: the whole state written as one logged
//! transaction.
//!
//! The engine is in-memory; a durable database (see [`crate::wal`])
//! survives restarts by checkpointing its whole state to a snapshot and
//! replaying the WAL tail on top of it. A snapshot (`snapshot.mdb`) is
//! a file in the log's own format, holding exactly one committed
//! transaction stamped with the LSN `L` it covers:
//!
//! ```text
//! header (base_lsn = L)
//! per table, by name: CreateTable | Insert × ⌈rows / ROWS_PER_INSERT⌉ | CreateIndex × indexes
//! per CLOB heap buffer: ClobPut
//! Commit{L}
//! ```
//!
//! Indexes come after the rows, so a unique index validates them once;
//! each buffer is one `ClobPut`, so a reopened heap keeps one buffer per
//! put ([`crate::clob`]). [`Database::open_with`] replays the file with
//! the same `scan_wal` and `State::apply_txn` it runs on the WAL, so
//! there is one decoder and one replay path. Checkpoints install a
//! snapshot whole (tmp file + fsync + rename), so anything but one
//! complete transaction stamped `L` — a torn tail among it — is
//! [`DbError::Corrupt`]; every frame is checksummed, so any bit flip is
//! too.

use crate::db::{Database, ReadTxn, State};
use crate::error::{DbError, Result};
use crate::table::Row;
use crate::wal::{
    append_frame, encode_wal_header, in_file, scan_wal, write_clob_put, write_insert, WalRecord,
    SNAPSHOT_FILE,
};

/// Rows per `Insert` record, so no frame grows with its table.
const ROWS_PER_INSERT: usize = 1024;

impl ReadTxn<'_> {
    /// The state this batch reads, as a snapshot stamped with `lsn`.
    /// Rows and CLOB text are encoded from the state into the output
    /// buffer, never cloned.
    pub(crate) fn snapshot(&self, lsn: u64) -> Vec<u8> {
        let mut buf = encode_wal_header(lsn).to_vec();
        for name in self.table_names() {
            let t = self.table(&name).expect("a listed table exists");
            let create = WalRecord::CreateTable { name: name.clone(), schema: t.schema.clone() };
            append_frame(&mut buf, |enc| create.write(enc));
            let rows: Vec<&Row> = t.scan().map(|(_, row)| row).collect();
            for chunk in rows.chunks(ROWS_PER_INSERT) {
                append_frame(&mut buf, |enc| write_insert(enc, &name, chunk.iter().copied()));
            }
            for idx in t.indexes() {
                let index = WalRecord::CreateIndex {
                    table: name.clone(),
                    name: idx.name.clone(),
                    columns: idx.columns.clone(),
                    unique: idx.unique,
                };
                append_frame(&mut buf, |enc| index.write(enc));
            }
        }
        for put in self.clobs().puts() {
            append_frame(&mut buf, |enc| write_clob_put(enc, put));
        }
        append_frame(&mut buf, |enc| WalRecord::Commit { lsn }.write(enc));
        buf
    }
}

impl State {
    /// Replay snapshot `bytes` into this empty state; returns the LSN
    /// the snapshot covers.
    pub(crate) fn replay_snapshot(&mut self, bytes: &[u8]) -> Result<u64> {
        let corrupt = |m: String| DbError::Corrupt(format!("{SNAPSHOT_FILE}: {m}"));
        let scan = scan_wal(bytes).map_err(|e| in_file(SNAPSHOT_FILE, e))?;
        let whole = scan.valid_len == bytes.len() as u64;
        match <[_; 1]>::try_from(scan.txns) {
            Ok([(lsn, records)]) if whole && lsn == scan.base_lsn => {
                self.apply_txn(records).map_err(|e| corrupt(format!("replay failed: {e}")))?;
                Ok(lsn)
            }
            _ => Err(corrupt(format!(
                "not one complete transaction stamped with lsn {}",
                scan.base_lsn
            ))),
        }
    }
}

impl Database {
    /// The committed state as a snapshot stamped with `lsn`, read under
    /// a shared hold of the visibility gate (used by checkpoints and
    /// [`Database::state_image`]).
    pub(crate) fn snapshot_bytes(&self, lsn: u64) -> Vec<u8> {
        self.begin_read().snapshot(lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Plan;
    use crate::expr::Expr;
    use crate::table::{Column, TableSchema};
    use crate::value::{DataType, Value};
    use crate::vfs::MemVfs;
    use crate::wal::{WalOptions, WAL_FILE};
    use obs::names;
    use std::sync::Arc;

    /// Open a database from snapshot `bytes` alone.
    fn open_snapshot(bytes: Vec<u8>) -> Result<Database> {
        let vfs = MemVfs::new();
        vfs.overwrite(SNAPSHOT_FILE, bytes);
        Database::open_with(Arc::new(vfs), WalOptions::default())
    }

    /// Snapshot `db` and open the snapshot.
    fn roundtrip(db: &Database) -> Database {
        open_snapshot(db.snapshot_bytes(0)).unwrap()
    }

    fn populated() -> Database {
        let db = Database::new();
        let schema = TableSchema::new(vec![
            Column::new("id", DataType::Int),
            Column::nullable("name", DataType::Text),
            Column::nullable("w", DataType::Float),
            Column::nullable("ok", DataType::Bool),
            Column::nullable("doc", DataType::Clob),
        ]);
        db.create_table("t", schema).unwrap();
        db.create_index("t", "t_pk", &["id"], true).unwrap();
        db.create_index("t", "t_by_name", &["name", "w"], false).unwrap();
        let mut txn = db.txn();
        let loc = txn.put_clobs(&["<xml>hello</xml>"]).start;
        txn.commit().unwrap();
        db.insert(
            "t",
            vec![
                vec![1.into(), "ada".into(), 1.5.into(), true.into(), Value::Int(loc as i64)],
                vec![2.into(), Value::Null, Value::Null, false.into(), Value::Null],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = populated();
        // Delete a row so tombstones exercise the live-rows-only path.
        db.insert("t", vec![vec![3.into(), "temp".into(), 0.0.into(), false.into(), Value::Null]])
            .unwrap();
        db.delete_where("t", &Expr::col_eq(0, 3)).unwrap();

        let loaded = roundtrip(&db);

        assert_eq!(loaded.table_names(), db.table_names());
        assert_eq!(loaded.row_count("t").unwrap(), 2);
        let row = |id: i64| -> Row {
            let by_id = Plan::Scan { table: "t".into(), filter: Some(Expr::col_eq(0, id)) };
            let mut rows = loaded.execute(&by_id).unwrap().rows;
            assert_eq!(rows.len(), 1, "id {id}");
            rows.remove(0)
        };
        // Values survive with types.
        let one = row(1);
        assert_eq!(one[1], Value::Str("ada".into()));
        assert_eq!(one[2], Value::Float(1.5));
        assert_eq!(one[3], Value::Bool(true));
        // NULLs survive.
        assert!(row(2)[1].is_null());
        // CLOB heap survives and locators still resolve.
        let loc = one[4].as_i64().unwrap();
        assert_eq!(loaded.begin_read().clobs().get(loc as u64).unwrap(), "<xml>hello</xml>");
        // Indexes were rebuilt: unique constraint enforced, lookups work.
        let dup = vec![1.into(), "dup".into(), 0.0.into(), false.into(), Value::Null];
        assert!(loaded.insert("t", vec![dup]).is_err());
        let lookup = Plan::Scan {
            table: "t".into(),
            filter: Some(Expr::and(Expr::col_eq(1, "ada"), Expr::col_eq(2, 1.5))),
        };
        let rs = loaded.execute(&lookup).unwrap();
        assert_eq!(rs.rows.len(), 1);
        let explained = crate::explain::explain_analyze(&lookup, &loaded).unwrap();
        assert!(
            explained.contains("via index t_by_name key=[Str(\"ada\"), Float(1.5)]"),
            "{explained}"
        );
    }

    #[test]
    fn schema_nullability_restored() {
        let loaded = roundtrip(&populated());
        // id is NOT NULL: inserting NULL must fail.
        assert!(loaded
            .insert(
                "t",
                vec![vec![Value::Null, Value::Null, Value::Null, Value::Null, Value::Null]]
            )
            .is_err());
    }

    #[test]
    fn bad_files_rejected() {
        assert!(open_snapshot(b"NOPEgarbage".to_vec()).is_err());
        assert!(open_snapshot(b"MD".to_vec()).is_err());
        // On disk: a path that is a file, not a durable directory,
        // cannot be opened.
        let path = std::env::temp_dir().join(format!("minidb-snap-bad-{}", std::process::id()));
        std::fs::write(&path, b"NOPEgarbage").unwrap();
        assert!(Database::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_database_roundtrips() {
        let loaded = roundtrip(&Database::new());
        assert!(loaded.table_names().is_empty());
        assert_eq!(loaded.begin_read().clobs().len(), 0);
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = populated().snapshot_bytes(0);
        assert!(open_snapshot(bytes[..bytes.len() / 2].to_vec()).is_err());
    }

    /// The records of a snapshot's one transaction.
    fn records(bytes: &[u8]) -> Vec<WalRecord> {
        let mut scan = scan_wal(bytes).unwrap();
        assert_eq!(scan.txns.len(), 1);
        scan.txns.remove(0).1
    }

    #[test]
    fn rows_are_logged_in_bounded_chunks() {
        let db = Database::new();
        db.create_table("t", TableSchema::new(vec![Column::new("id", DataType::Int)]))
            .unwrap();
        db.create_index("t", "t_pk", &["id"], true).unwrap();
        let n = 2 * ROWS_PER_INSERT + 1;
        db.insert("t", (0..n as i64).map(|i| vec![Value::Int(i)])).unwrap();
        let recs = records(&db.snapshot_bytes(0));
        let chunks: Vec<usize> = recs
            .iter()
            .filter_map(|r| match r {
                WalRecord::Insert { rows, .. } => Some(rows.len()),
                _ => None,
            })
            .collect();
        assert_eq!(chunks, [ROWS_PER_INSERT, ROWS_PER_INSERT, 1]);
        // The index is created after every row.
        assert!(matches!(recs.last(), Some(WalRecord::CreateIndex { .. })));
        assert_eq!(roundtrip(&db).row_count("t").unwrap(), n);
    }

    #[test]
    fn a_snapshot_is_exactly_one_transaction_stamped_with_its_base() {
        let image = populated().snapshot_bytes(7);
        assert!(open_snapshot(image.clone()).is_ok());
        // A second committed transaction after the first.
        let mut two = image.clone();
        append_frame(&mut two, |enc| WalRecord::Commit { lsn: 8 }.write(enc));
        // No commit at all: the last frame dropped.
        let commit_frame = WalRecord::Commit { lsn: 7 }.encode().len() + 12;
        let uncommitted = image[..image.len() - commit_frame].to_vec();
        // A commit stamped with an LSN other than the header's.
        let mut restamped = image[..image.len() - commit_frame].to_vec();
        append_frame(&mut restamped, |enc| WalRecord::Commit { lsn: 9 }.write(enc));
        for bad in [two, uncommitted, restamped] {
            match open_snapshot(bad) {
                Err(DbError::Corrupt(m)) => assert!(m.contains(SNAPSHOT_FILE), "{m}"),
                Err(e) => panic!("expected Corrupt, got {e}"),
                Ok(_) => panic!("accepted"),
            }
        }
    }

    #[test]
    fn a_checkpoint_at_lsn_zero_with_no_tables_reopens() {
        let vfs = MemVfs::new();
        let open = || Database::open_with(Arc::new(vfs.clone()), WalOptions::default()).unwrap();
        assert_eq!(open().checkpoint().unwrap(), 0);
        let db = open();
        assert_eq!(db.last_lsn(), 0);
        assert!(db.table_names().is_empty());
    }

    /// `wal.recovered_records` counts WAL records only. No other test
    /// in this binary replays a non-empty log, so the count is exact.
    #[test]
    fn snapshot_replay_is_not_counted_as_recovered() {
        let vfs = MemVfs::new();
        let db = Database::open_with(Arc::new(vfs.clone()), WalOptions::default()).unwrap();
        db.create_table("t", TableSchema::new(vec![Column::new("id", DataType::Int)]))
            .unwrap();
        db.insert("t", (0..10).map(|i| vec![Value::Int(i)])).unwrap();
        db.checkpoint().unwrap();
        db.insert("t", vec![vec![Value::Int(10)]]).unwrap();
        drop(db);
        assert!(vfs.file(WAL_FILE).unwrap().len() > 20);
        let before = names::WAL_RECOVERED_RECORDS.get();
        let db = Database::open_with(Arc::new(vfs), WalOptions::default()).unwrap();
        assert_eq!(db.row_count("t").unwrap(), 11);
        assert_eq!(names::WAL_RECOVERED_RECORDS.get() - before, 1);
    }
}
