//! Database snapshots: the binary image checkpoints write and recovery
//! reads.
//!
//! The engine is in-memory; a durable database (see [`crate::wal`])
//! survives restarts by checkpointing its whole state to a compact
//! binary snapshot (tables with schemas and live rows, indexes as
//! definitions that are rebuilt on load, and the CLOB heap) and
//! replaying the WAL tail on top of it. [`Database::open_with`] is the
//! only reader of a snapshot on disk; checkpoints install it atomically
//! (tmp file + fsync + rename). The format is versioned and
//! length-prefixed throughout; loads validate every tag and bound, and
//! the whole image is covered by a trailing CRC32 so any bit flip
//! surfaces as a clean [`DbError`] rather than silently-wrong data.

use crate::clob::ClobStore;
use crate::db::{Database, ReadTxn};
use crate::error::{DbError, Result};
use crate::table::{Column, TableSchema};
use crate::value::{DataType, Value};
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"MDB1";

/// Snapshot format version. Version 2 added the u64 LSN stamp after
/// the version word (see [`crate::wal`]) — recovery replays only WAL
/// transactions newer than the snapshot's LSN — and the trailing
/// CRC32 over everything before it.
const VERSION: u32 = 2;

/// Streams writes through an incremental CRC32 so the snapshot can be
/// stamped with a trailer checksum without a second pass.
struct CrcWriter<W: Write> {
    inner: W,
    crc: u32,
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc = crate::wal::crc32_accum(self.crc, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Streams reads through an incremental CRC32 for trailer validation.
struct CrcReader<R: Read> {
    inner: R,
    crc: u32,
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc = crate::wal::crc32_accum(self.crc, &buf[..n]);
        Ok(n)
    }
}

/// Hard ceiling on any single length-prefixed payload. Loads of
/// corrupted files must fail with a clean error, never an OOM-sized
/// allocation.
const MAX_CHUNK: u64 = 1 << 30;

/// Clamp for `Vec::with_capacity` on decoded counts: trust the count
/// only after the elements actually decode.
fn cap(n: usize) -> usize {
    n.min(4096)
}

/// Writer half of the snapshot codec (shared with the WAL record
/// codec in [`crate::wal`]).
pub(crate) struct Enc<W: Write> {
    pub(crate) w: W,
}

impl<W: Write> Enc<W> {
    pub(crate) fn u8(&mut self, v: u8) -> Result<()> {
        self.w.write_all(&[v]).map_err(io_err)
    }
    pub(crate) fn u32(&mut self, v: u32) -> Result<()> {
        self.w.write_all(&v.to_le_bytes()).map_err(io_err)
    }
    pub(crate) fn u64(&mut self, v: u64) -> Result<()> {
        self.w.write_all(&v.to_le_bytes()).map_err(io_err)
    }
    pub(crate) fn i64(&mut self, v: i64) -> Result<()> {
        self.w.write_all(&v.to_le_bytes()).map_err(io_err)
    }
    pub(crate) fn f64(&mut self, v: f64) -> Result<()> {
        self.w.write_all(&v.to_le_bytes()).map_err(io_err)
    }
    pub(crate) fn bytes(&mut self, b: &[u8]) -> Result<()> {
        self.u64(b.len() as u64)?;
        self.w.write_all(b).map_err(io_err)
    }
    pub(crate) fn string(&mut self, s: &str) -> Result<()> {
        self.bytes(s.as_bytes())
    }
    pub(crate) fn value(&mut self, v: &Value) -> Result<()> {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(b) => {
                self.u8(1)?;
                self.u8(*b as u8)
            }
            Value::Int(i) => {
                self.u8(2)?;
                self.i64(*i)
            }
            Value::Float(f) => {
                self.u8(3)?;
                self.f64(*f)
            }
            Value::Str(s) => {
                self.u8(4)?;
                self.string(s)
            }
        }
    }
}

/// Reader half of the snapshot codec (shared with the WAL record
/// codec in [`crate::wal`]). All length-prefixed reads are bounded.
pub(crate) struct Dec<R: Read> {
    pub(crate) r: R,
}

impl<R: Read> Dec<R> {
    pub(crate) fn u8(&mut self) -> Result<u8> {
        let mut b = [0u8; 1];
        self.r.read_exact(&mut b).map_err(read_err)?;
        Ok(b[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.r.read_exact(&mut b).map_err(read_err)?;
        Ok(u32::from_le_bytes(b))
    }
    pub(crate) fn u64(&mut self) -> Result<u64> {
        let mut b = [0u8; 8];
        self.r.read_exact(&mut b).map_err(read_err)?;
        Ok(u64::from_le_bytes(b))
    }
    pub(crate) fn i64(&mut self) -> Result<i64> {
        let mut b = [0u8; 8];
        self.r.read_exact(&mut b).map_err(read_err)?;
        Ok(i64::from_le_bytes(b))
    }
    pub(crate) fn f64(&mut self) -> Result<f64> {
        let mut b = [0u8; 8];
        self.r.read_exact(&mut b).map_err(read_err)?;
        Ok(f64::from_le_bytes(b))
    }
    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.u64()?;
        if len > MAX_CHUNK {
            return Err(DbError::Corrupt(format!("implausible {len}-byte length prefix")));
        }
        // Grow incrementally via a bounded reader instead of trusting
        // the prefix with an up-front allocation: a corrupted length on
        // a short file fails cleanly at EOF.
        let mut buf = Vec::with_capacity(cap(len as usize));
        let read = self.r.by_ref().take(len).read_to_end(&mut buf).map_err(read_err)?;
        if (read as u64) < len {
            return Err(DbError::Corrupt(format!("truncated payload: {read} of {len} bytes")));
        }
        Ok(buf)
    }
    pub(crate) fn string(&mut self) -> Result<String> {
        String::from_utf8(self.bytes()?)
            .map_err(|e| DbError::Corrupt(format!("string is not UTF-8: {e}")))
    }
    pub(crate) fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.i64()?),
            3 => Value::Float(self.f64()?),
            4 => Value::Str(self.string()?),
            t => return Err(DbError::Corrupt(format!("snapshot: unknown value tag {t}"))),
        })
    }
}

/// A write to the encoder's sink failed.
pub(crate) fn io_err(e: std::io::Error) -> DbError {
    DbError::Io(format!("snapshot write: {e}"))
}

/// A read ran short: the image ends before its framing says it does.
fn read_err(e: std::io::Error) -> DbError {
    DbError::Corrupt(format!("snapshot read: {e}"))
}

pub(crate) fn dtype_code(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
        DataType::Clob => 4,
    }
}

pub(crate) fn dtype_from(code: u8) -> Result<DataType> {
    Ok(match code {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Bool,
        4 => DataType::Clob,
        t => return Err(DbError::Corrupt(format!("snapshot: unknown dtype {t}"))),
    })
}

impl Database {
    /// Serialize the snapshot (header stamped with `lsn`) to a byte
    /// buffer, reading one committed state under a shared hold of the
    /// visibility gate (used by checkpoints and [`Database::state_image`]).
    pub(crate) fn snapshot_bytes(&self, lsn: u64) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.begin_read().write_snapshot(&mut buf, lsn)?;
        Ok(buf)
    }
}

impl ReadTxn<'_> {
    /// Serialize the snapshot (header stamped with `lsn`) to any
    /// writer, appending a CRC32 trailer over everything before it.
    fn write_snapshot<W: Write>(&self, w: W, lsn: u64) -> Result<()> {
        let mut cw = CrcWriter { inner: w, crc: 0xFFFF_FFFF };
        self.write_snapshot_body(&mut cw, lsn)?;
        let digest = cw.crc ^ 0xFFFF_FFFF;
        cw.inner.write_all(&digest.to_le_bytes()).map_err(io_err)
    }

    fn write_snapshot_body<W: Write>(&self, w: W, lsn: u64) -> Result<()> {
        let mut enc = Enc { w };
        enc.w.write_all(MAGIC).map_err(io_err)?;
        enc.u32(VERSION)?;
        enc.u64(lsn)?;

        let names = self.table_names();
        enc.u32(names.len() as u32)?;
        for name in &names {
            let guard = self.table(name)?;
            enc.string(name)?;
            // Schema.
            enc.u32(guard.schema.columns.len() as u32)?;
            for c in &guard.schema.columns {
                enc.string(&c.name)?;
                enc.u8(dtype_code(c.dtype))?;
                enc.u8(c.nullable as u8)?;
            }
            // Index definitions (rebuilt on load).
            enc.u32(guard.indexes().len() as u32)?;
            for idx in guard.indexes() {
                enc.string(&idx.name)?;
                enc.u8(idx.unique as u8)?;
                enc.u32(idx.columns.len() as u32)?;
                for &c in &idx.columns {
                    enc.u32(c as u32)?;
                }
            }
            // Live rows.
            enc.u64(guard.len() as u64)?;
            for (_, row) in guard.scan() {
                for v in row {
                    enc.value(v)?;
                }
            }
        }
        // CLOB heap.
        save_clobs(self.clobs(), &mut enc)
    }
}

/// Parse snapshot bytes into a fresh (non-durable) database plus the
/// stamped LSN. Recovery attaches the WAL afterwards.
pub(crate) fn load_snapshot_bytes(bytes: &[u8]) -> Result<(Database, u64)> {
    read_snapshot(bytes)
}

fn read_snapshot<R: Read>(r: R) -> Result<(Database, u64)> {
    let mut cr = CrcReader { inner: r, crc: 0xFFFF_FFFF };
    let parsed = read_snapshot_body(&mut cr)?;
    let digest = cr.crc ^ 0xFFFF_FFFF;
    let mut trailer = [0u8; 4];
    cr.inner
        .read_exact(&mut trailer)
        .map_err(|_| DbError::Corrupt("snapshot: missing checksum trailer".into()))?;
    if u32::from_le_bytes(trailer) != digest {
        return Err(DbError::Corrupt("snapshot: checksum mismatch".into()));
    }
    Ok(parsed)
}

fn read_snapshot_body<R: Read>(r: R) -> Result<(Database, u64)> {
    let mut dec = Dec { r };
    let mut magic = [0u8; 4];
    dec.r.read_exact(&mut magic).map_err(read_err)?;
    if &magic != MAGIC {
        return Err(DbError::Corrupt("snapshot: bad magic".into()));
    }
    let version = dec.u32()?;
    if version != VERSION {
        return Err(DbError::Corrupt(format!("snapshot: unsupported version {version}")));
    }
    let lsn = dec.u64()?;
    // The database is still private to this function: fill its state
    // through `&mut`, without taking the gate.
    let mut db = Database::new();
    let state = db.state_mut();
    let n_tables = dec.u32()?;
    for _ in 0..n_tables {
        let name = dec.string()?;
        let n_cols = dec.u32()?;
        let mut cols = Vec::with_capacity(cap(n_cols as usize));
        for _ in 0..n_cols {
            let cname = dec.string()?;
            let dtype = dtype_from(dec.u8()?)?;
            let nullable = dec.u8()? != 0;
            cols.push(Column { name: cname, dtype, nullable });
        }
        let arity = cols.len();
        state.apply_create_table(&name, &TableSchema::new(cols))?;
        // Indexes: recorded now, created after rows are inserted so
        // unique indexes validate the loaded data once.
        let n_idx = dec.u32()?;
        let mut idx_defs = Vec::with_capacity(cap(n_idx as usize));
        for _ in 0..n_idx {
            let iname = dec.string()?;
            let unique = dec.u8()? != 0;
            let n_keys = dec.u32()?;
            let mut keys = Vec::with_capacity(cap(n_keys as usize));
            for _ in 0..n_keys {
                keys.push(dec.u32()? as usize);
            }
            idx_defs.push((iname, unique, keys));
        }
        let n_rows = dec.u64()?;
        let table = state.table_mut(&name)?;
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(dec.value()?);
            }
            table.insert(row)?;
        }
        for (iname, unique, keys) in idx_defs {
            table.create_index(iname, keys, unique)?;
        }
    }
    load_clobs(&mut state.clobs, &mut dec)?;
    Ok((db, lsn))
}

fn save_clobs<W: Write>(clobs: &ClobStore, enc: &mut Enc<W>) -> Result<()> {
    let n = clobs.len();
    enc.u64(n as u64)?;
    for id in 0..n as u64 {
        enc.string(clobs.get(id)?)?;
    }
    Ok(())
}

fn load_clobs<R: Read>(clobs: &mut ClobStore, dec: &mut Dec<R>) -> Result<()> {
    let n = dec.u64()?;
    clobs.load((0..n).map(|_| dec.string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Plan;
    use crate::expr::Expr;
    use crate::table::Row;

    /// Snapshot `db` to bytes and parse them back.
    fn roundtrip(db: &Database) -> Database {
        let bytes = db.snapshot_bytes(0).unwrap();
        load_snapshot_bytes(&bytes).unwrap().0
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
        assert!(load_snapshot_bytes(b"NOPEgarbage").is_err());
        assert!(load_snapshot_bytes(b"MD").is_err());
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
        let bytes = populated().snapshot_bytes(0).unwrap();
        assert!(load_snapshot_bytes(&bytes[..bytes.len() / 2]).is_err());
    }
}
