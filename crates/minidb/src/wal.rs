//! Write-ahead logging and checkpointing over the durable-file layer in
//! [`crate::vfs`].
//!
//! The engine stays in-memory; durability comes from logging every
//! mutation before acknowledging it (see [`crate::db::Txn`]) and
//! periodically checkpointing the whole database to a snapshot so a
//! fresh, empty log can replace the old one.
//!
//! # Log format
//!
//! The WAL (`wal.log`) and the snapshot (`snapshot.mdb`) share one
//! format: a 20-byte header followed by a sequence of frames.
//!
//! ```text
//! header: "MWL1" | u32 version (2) | u64 base_lsn | u32 crc32(first 16 bytes)
//! frame:  u32 len | u32 crc32(len) | u32 crc32(payload) | payload
//! ```
//!
//! Each payload is one `WalRecord`: `CreateTable`, `CreateIndex`,
//! `Insert`, `DeleteWhere`, `ClobPut` (one put's parts) or
//! `Commit{lsn}`. There is no update record: the engine never rewrites
//! a row in place. A transaction is a run of operation records
//! terminated by `Commit{lsn}`; recovery applies only complete committed
//! transactions, in LSN order. A snapshot is exactly one transaction,
//! the whole state ([`crate::snapshot`]). A version-1 log or an `MDB1`
//! snapshot, the formats before this one, is refused as corrupt.
//!
//! The double checksum makes torn tails and corruption distinguishable
//! under the prefix-tearing crash model (appends may be lost from the
//! end, never reordered):
//!
//! - fewer than 12 bytes left, or fewer than `len` payload bytes left:
//!   **torn tail** — the crash interrupted the final append; the tail
//!   is silently discarded (in the WAL; a snapshot is installed whole,
//!   so a torn one is corrupt).
//! - header checksum mismatch on a fully-present frame header, or
//!   payload checksum mismatch on a fully-present payload: **hard
//!   corruption** ([`DbError::Corrupt`]). The header checksum covers
//!   the length word, so a bit flip in `len` cannot masquerade as a
//!   plausible torn tail.
//!
//! # Checkpoint / recovery protocol
//!
//! A checkpoint (holding the WAL writer lock, so no commits interleave)
//! writes the snapshot stamped with the last committed LSN via
//! tmp-file + rename, then swaps in a fresh WAL whose header carries
//! `base_lsn = lsn + 1`. Recovery replays the snapshot, then replays
//! only WAL transactions with `lsn > snapshot lsn`, both through
//! `scan_wal` and `State::apply_txn`; it truncates the log back to
//! the end of the last committed transaction (dropping orphaned
//! uncommitted records so a later commit can never adopt them), and
//! reopens it for appending. Every crash window between those renames
//! recovers to a consistent committed prefix. A rename is durable when
//! it returns (`StdVfs` fsyncs the directory), so the snapshot swap
//! reaches the disk before the WAL swap. A log whose `base_lsn` is past
//! the snapshot's LSN + 1 would skip the commits in between, so
//! recovery refuses it as [`DbError::Corrupt`].
//!
//! A transaction seals each op's record as a frame (`append_frame`) into
//! one buffer as the op applies ([`crate::db::Txn`]); its commit seals a
//! `Commit{lsn}` frame onto that buffer and writes it in one append.
//!
//! **Failure rule.** After a failed append or fsync of `wal.log` its
//! contents are unknown: a short write may have landed part of a frame,
//! a failed fsync may or may not have reached the disk. Appending on
//! could ack commits behind a torn frame, or after one reported failed.
//! So any such failure stops the writer: it drops the log, keeps the
//! failure's text, and fails every later commit and checkpoint, naming
//! it, until a reopen truncates the log to its last whole commit. The
//! log swap counts too: a rename can land and still fail (the directory
//! fsync after it), and so can reopening the new log, and the old handle
//! would then write to an unlinked file. A failure while writing the
//! snapshot, or `wal.tmp` before its rename, leaves `wal.log` untouched
//! and the writer running. A stopped writer also keeps a checkpoint from
//! snapshotting a refused commit's ops, which stay in memory (a
//! transaction keeps no undo).

use crate::error::{DbError, Result};
use crate::expr::{CmpOp, Expr};
use crate::table::{Column, Row, TableSchema};
use crate::value::{DataType, Value};
use crate::vfs::DurableFile;
use obs::names;

/// Snapshot file name inside a durable directory.
pub const SNAPSHOT_FILE: &str = "snapshot.mdb";
/// WAL file name inside a durable directory.
pub const WAL_FILE: &str = "wal.log";
/// Scratch names for atomic tmp-then-rename replacement.
pub(crate) const SNAPSHOT_TMP: &str = "snapshot.tmp";
pub(crate) const WAL_TMP: &str = "wal.tmp";

const WAL_MAGIC: &[u8; 4] = b"MWL1";
/// Format version 2 made the snapshot a log and a `ClobPut` one put;
/// version 1 files (and `MDB1` snapshots) are refused.
const WAL_VERSION: u32 = 2;
/// Fixed size of the file header.
pub(crate) const WAL_HEADER_LEN: usize = 20;
/// Frame prefix: length word plus its checksum plus the payload checksum.
const FRAME_HEADER_LEN: usize = 12;
/// Largest payload the writer will ever produce; anything bigger in a
/// log whose length word checksummed correctly is corruption.
const MAX_RECORD: u32 = 1 << 30;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — implemented locally; the build is
// offline and must not pull a checksum crate. Every log byte passes
// through it: each op's frame as it applies under the gate, the whole
// state at a checkpoint, and every frame an open scans. So it is
// sliced (Kounavis and Berry, ISCC 2005): sixteen 256-entry tables let
// one step fold 16 input bytes with 16 independent lookups instead of
// 16 dependent ones. The output is the plain IEEE CRC32, bit for bit.

/// Bytes folded per step, one table each.
const CRC_SLICES: usize = 16;

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][b]` is the CRC
/// register after byte `b` is followed by `k` zero bytes.
const fn build_crc_tables() -> [[u32; 256]; CRC_SLICES] {
    let mut tables = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; CRC_SLICES] = build_crc_tables();

/// CRC32 of `data` (IEEE polynomial, as used by zip/png).
///
/// Slicing-by-16: each 16-byte block XORs the register into its first
/// four bytes, then byte `j` of the block is looked up in table
/// `15 - j` (which advances it past the `15 - j` bytes after it) and
/// the 16 lookups are XORed into the new register. The fewer than 16
/// bytes left over go through table 0 one at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFF_u32;
    let mut blocks = data.chunks_exact(CRC_SLICES);
    for b in &mut blocks {
        let r = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(r & 0xFF) as usize]
            ^ t[14][((r >> 8) & 0xFF) as usize]
            ^ t[13][((r >> 16) & 0xFF) as usize]
            ^ t[12][(r >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Records.

/// One logged mutation. Records are content-based — predicates and
/// values, never row ids — because a checkpoint logs only live rows, so
/// physical ids are not stable across recovery.
#[derive(Debug, Clone)]
pub(crate) enum WalRecord {
    /// DDL: create a table.
    CreateTable { name: String, schema: TableSchema },
    /// DDL: create an index over resolved column positions.
    CreateIndex { table: String, name: String, columns: Vec<usize>, unique: bool },
    /// Insert fully-shaped rows.
    Insert { table: String, rows: Vec<Row> },
    /// Delete every row matching the predicate.
    DeleteWhere { table: String, pred: Expr },
    /// One CLOB put: its parts, stored in one heap buffer. Replay
    /// re-assigns the same locators because log order equals apply order
    /// (the writer lock is held while applying). The parts are checked
    /// as UTF-8 when the record decodes, so a file holding a CLOB that is
    /// not text fails recovery.
    ClobPut { parts: Vec<String> },
    /// Transaction terminator; everything since the previous commit
    /// becomes atomic and durable.
    Commit { lsn: u64 },
}

/// Appends a record's fields, little-endian, to a buffer.
pub(crate) struct Enc<'a>(&'a mut Vec<u8>);

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn string(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.u8(*b as u8);
            }
            Value::Int(i) => {
                self.u8(2);
                self.0.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                self.u8(3);
                self.0.extend_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                self.u8(4);
                self.string(s);
            }
        }
    }
}

/// Reads a record's fields. Every read is bounded by the bytes left, so
/// a corrupt count or length fails cleanly instead of allocating for it.
struct Dec<'a>(&'a [u8]);

/// Clamp for `Vec::with_capacity` on decoded counts: trust a count only
/// as its elements decode.
fn cap(n: u32) -> usize {
    (n as usize).min(4096)
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: u64) -> Result<&'a [u8]> {
        let left = self.0.len() as u64;
        if n > left {
            return Err(DbError::Corrupt(format!("record needs {n} more bytes, has {left}")));
        }
        let (head, rest) = self.0.split_at(n as usize);
        self.0 = rest;
        Ok(head)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N as u64)?.try_into().expect("N bytes"))
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn string(&mut self) -> Result<String> {
        let len = self.u64()?;
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|e| DbError::Corrupt(format!("string is not UTF-8: {e}")))
    }
    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(i64::from_le_bytes(self.array()?)),
            3 => Value::Float(f64::from_le_bytes(self.array()?)),
            4 => Value::Str(self.string()?),
            t => return Err(DbError::Corrupt(format!("unknown value tag {t}"))),
        })
    }
}

fn dtype_code(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
        DataType::Clob => 4,
    }
}

fn dtype_from(code: u8) -> Result<DataType> {
    Ok(match code {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Bool,
        4 => DataType::Clob,
        t => return Err(DbError::Corrupt(format!("unknown dtype {t}"))),
    })
}

fn cmp_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_from(c: u8) -> Result<CmpOp> {
    Ok(match c {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(DbError::Corrupt(format!("unknown cmp op {t}"))),
    })
}

fn write_expr(enc: &mut Enc, e: &Expr) {
    match e {
        Expr::Col(i) => {
            enc.u8(0);
            enc.u64(*i as u64);
        }
        Expr::Lit(v) => {
            enc.u8(1);
            enc.value(v);
        }
        Expr::Cmp(op, a, b) => {
            enc.u8(2);
            enc.u8(cmp_code(*op));
            write_expr(enc, a);
            write_expr(enc, b);
        }
        Expr::And(a, b) => {
            enc.u8(3);
            write_expr(enc, a);
            write_expr(enc, b);
        }
        Expr::Or(a, b) => {
            enc.u8(4);
            write_expr(enc, a);
            write_expr(enc, b);
        }
        Expr::Not(a) => {
            enc.u8(5);
            write_expr(enc, a);
        }
        Expr::Like(a, pat) => {
            enc.u8(7);
            write_expr(enc, a);
            enc.string(pat);
        }
        Expr::IsNull(a) => {
            enc.u8(8);
            write_expr(enc, a);
        }
        Expr::Between(a, lo, hi) => {
            enc.u8(9);
            write_expr(enc, a);
            write_expr(enc, lo);
            write_expr(enc, hi);
        }
    }
}

fn read_expr(dec: &mut Dec) -> Result<Expr> {
    Ok(match dec.u8()? {
        0 => Expr::Col(dec.u64()? as usize),
        1 => Expr::Lit(dec.value()?),
        2 => {
            let op = cmp_from(dec.u8()?)?;
            Expr::Cmp(op, Box::new(read_expr(dec)?), Box::new(read_expr(dec)?))
        }
        3 => Expr::And(Box::new(read_expr(dec)?), Box::new(read_expr(dec)?)),
        4 => Expr::Or(Box::new(read_expr(dec)?), Box::new(read_expr(dec)?)),
        5 => Expr::Not(Box::new(read_expr(dec)?)),
        7 => Expr::Like(Box::new(read_expr(dec)?), dec.string()?),
        8 => Expr::IsNull(Box::new(read_expr(dec)?)),
        9 => Expr::Between(
            Box::new(read_expr(dec)?),
            Box::new(read_expr(dec)?),
            Box::new(read_expr(dec)?),
        ),
        t => return Err(DbError::Corrupt(format!("unknown expr tag {t}"))),
    })
}

/// Write a [`WalRecord::Insert`] of borrowed `rows`, so a transaction
/// can log rows before moving them into the table and a checkpoint can
/// log a table's rows without copying them.
pub(crate) fn write_insert<'r>(
    enc: &mut Enc,
    table: &str,
    rows: impl ExactSizeIterator<Item = &'r Row>,
) {
    enc.u8(4);
    enc.string(table);
    enc.u32(rows.len() as u32);
    for row in rows {
        enc.u32(row.len() as u32);
        for v in row {
            enc.value(v);
        }
    }
}

/// Write a [`WalRecord::ClobPut`] of borrowed `parts` (see
/// [`write_insert`]).
pub(crate) fn write_clob_put<'p>(enc: &mut Enc, parts: impl ExactSizeIterator<Item = &'p str>) {
    enc.u8(8);
    enc.u32(parts.len() as u32);
    for p in parts {
        enc.string(p);
    }
}

impl WalRecord {
    /// The record's payload in a fresh buffer (tests decode it back).
    #[cfg(test)]
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write(&mut Enc(&mut buf));
        buf
    }

    pub(crate) fn write(&self, enc: &mut Enc) {
        match self {
            WalRecord::CreateTable { name, schema } => {
                enc.u8(1);
                enc.string(name);
                enc.u32(schema.columns.len() as u32);
                for c in &schema.columns {
                    enc.string(&c.name);
                    enc.u8(dtype_code(c.dtype));
                    enc.u8(c.nullable as u8);
                }
            }
            WalRecord::CreateIndex { table, name, columns, unique } => {
                enc.u8(3);
                enc.string(table);
                enc.string(name);
                enc.u8(*unique as u8);
                enc.u32(columns.len() as u32);
                for &c in columns {
                    enc.u32(c as u32);
                }
            }
            WalRecord::Insert { table, rows } => write_insert(enc, table, rows.iter()),
            WalRecord::DeleteWhere { table, pred } => {
                enc.u8(5);
                enc.string(table);
                write_expr(enc, pred);
            }
            WalRecord::ClobPut { parts } => write_clob_put(enc, parts.iter().map(String::as_str)),
            WalRecord::Commit { lsn } => {
                enc.u8(9);
                enc.u64(*lsn);
            }
        }
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<WalRecord> {
        let mut dec = Dec(bytes);
        let rec = Self::read(&mut dec)?;
        if !dec.0.is_empty() {
            return Err(DbError::Corrupt(format!("{} trailing bytes after record", dec.0.len())));
        }
        Ok(rec)
    }

    fn read(dec: &mut Dec) -> Result<WalRecord> {
        Ok(match dec.u8()? {
            1 => {
                let name = dec.string()?;
                let n = dec.u32()?;
                let mut columns = Vec::with_capacity(cap(n));
                for _ in 0..n {
                    let cname = dec.string()?;
                    let dtype = dtype_from(dec.u8()?)?;
                    let nullable = dec.u8()? != 0;
                    columns.push(Column { name: cname, dtype, nullable });
                }
                WalRecord::CreateTable { name, schema: TableSchema { columns } }
            }
            3 => {
                let table = dec.string()?;
                let name = dec.string()?;
                let unique = dec.u8()? != 0;
                let n = dec.u32()?;
                let mut columns = Vec::with_capacity(cap(n));
                for _ in 0..n {
                    columns.push(dec.u32()? as usize);
                }
                WalRecord::CreateIndex { table, name, columns, unique }
            }
            4 => {
                let table = dec.string()?;
                let n = dec.u32()?;
                let mut rows = Vec::with_capacity(cap(n));
                for _ in 0..n {
                    let arity = dec.u32()?;
                    let mut row = Vec::with_capacity(cap(arity));
                    for _ in 0..arity {
                        row.push(dec.value()?);
                    }
                    rows.push(row);
                }
                WalRecord::Insert { table, rows }
            }
            5 => WalRecord::DeleteWhere { table: dec.string()?, pred: read_expr(dec)? },
            8 => {
                let n = dec.u32()?;
                let mut parts = Vec::with_capacity(cap(n));
                for _ in 0..n {
                    parts.push(dec.string()?);
                }
                WalRecord::ClobPut { parts }
            }
            9 => WalRecord::Commit { lsn: dec.u64()? },
            t => return Err(DbError::Corrupt(format!("unknown record tag {t}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// Framing.

/// Append one frame to `buf`, its payload written in place by `write`.
pub(crate) fn append_frame(buf: &mut Vec<u8>, write: impl FnOnce(&mut Enc)) {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    write(&mut Enc(buf));
    let body = start + FRAME_HEADER_LEN;
    let len = ((buf.len() - body) as u32).to_le_bytes();
    let pcrc = crc32(&buf[body..]);
    buf[start..start + 4].copy_from_slice(&len);
    buf[start + 4..start + 8].copy_from_slice(&crc32(&len).to_le_bytes());
    buf[start + 8..body].copy_from_slice(&pcrc.to_le_bytes());
}

/// Encode the 20-byte file header.
pub(crate) fn encode_wal_header(base_lsn: u64) -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[..4].copy_from_slice(WAL_MAGIC);
    h[4..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&base_lsn.to_le_bytes());
    let crc = crc32(&h[..16]);
    h[16..20].copy_from_slice(&crc.to_le_bytes());
    h
}

/// `e`, naming the file it was found in when it is corruption.
pub(crate) fn in_file(name: &str, e: DbError) -> DbError {
    match e {
        DbError::Corrupt(m) => DbError::Corrupt(format!("{name}: {m}")),
        e => e,
    }
}

/// Result of scanning a WAL file for recovery.
pub(crate) struct WalScan {
    /// Committed transactions in commit order: `(lsn, operations)`.
    pub txns: Vec<(u64, Vec<WalRecord>)>,
    /// Offset just past the last committed transaction (≥ header).
    /// Anything after this — a torn final record or a complete-but-
    /// uncommitted tail — must be truncated away before appending.
    pub valid_len: u64,
    /// LSN the next commit should carry.
    pub next_lsn: u64,
    /// `base_lsn` from the file header.
    pub base_lsn: u64,
}

/// Scan a whole log-format file (the WAL or a snapshot). Torn tails
/// are tolerated (the incomplete suffix is reported via `valid_len`, not
/// an error); anything that is provably wrong — checksum mismatch on
/// fully-present bytes, unknown tags, non-monotonic LSNs, another
/// format — is [`DbError::Corrupt`].
pub(crate) fn scan_wal(bytes: &[u8]) -> Result<WalScan> {
    if bytes.len() < WAL_HEADER_LEN {
        return Err(DbError::Corrupt(format!("truncated header ({} bytes)", bytes.len())));
    }
    if &bytes[..4] != WAL_MAGIC {
        return Err(DbError::Corrupt(format!(
            "unsupported format: magic {:?}, this build reads {:?} version {WAL_VERSION}",
            String::from_utf8_lossy(&bytes[..4]),
            String::from_utf8_lossy(WAL_MAGIC)
        )));
    }
    let stored = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if crc32(&bytes[..16]) != stored {
        return Err(DbError::Corrupt("header checksum mismatch".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(DbError::Corrupt(format!(
            "unsupported format: version {version}, this build reads version {WAL_VERSION}"
        )));
    }
    let base_lsn = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));

    let mut txns = Vec::new();
    let mut pending = Vec::new();
    let mut off = WAL_HEADER_LEN;
    let mut valid_len = WAL_HEADER_LEN as u64;
    let mut last_lsn: Option<u64> = None;
    loop {
        let rem = bytes.len() - off;
        if rem < FRAME_HEADER_LEN {
            break; // clean end (rem == 0) or torn frame header
        }
        let len_bytes: [u8; 4] = bytes[off..off + 4].try_into().expect("4 bytes");
        let hcrc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
        if crc32(&len_bytes) != hcrc {
            return Err(DbError::Corrupt(format!(
                "frame header checksum mismatch at offset {off}"
            )));
        }
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_RECORD {
            return Err(DbError::Corrupt(format!("implausible record length {len}")));
        }
        if rem - FRAME_HEADER_LEN < len as usize {
            break; // torn payload
        }
        let pcrc = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().expect("4 bytes"));
        let payload = &bytes[off + FRAME_HEADER_LEN..off + FRAME_HEADER_LEN + len as usize];
        if crc32(payload) != pcrc {
            return Err(DbError::Corrupt(format!("record checksum mismatch at offset {off}")));
        }
        let rec = WalRecord::decode(payload)?;
        off += FRAME_HEADER_LEN + len as usize;
        match rec {
            WalRecord::Commit { lsn } => {
                if let Some(prev) = last_lsn {
                    if lsn <= prev {
                        return Err(DbError::Corrupt(format!(
                            "non-monotonic commit lsn {lsn} after {prev}"
                        )));
                    }
                }
                if lsn < base_lsn {
                    return Err(DbError::Corrupt(format!(
                        "commit lsn {lsn} below base {base_lsn}"
                    )));
                }
                last_lsn = Some(lsn);
                txns.push((lsn, std::mem::take(&mut pending)));
                valid_len = off as u64;
            }
            other => pending.push(other),
        }
    }
    // `pending` (a complete-but-uncommitted tail) is dropped, exactly
    // like a torn final record: the transaction never committed.
    let next_lsn = last_lsn.map(|l| l + 1).unwrap_or(base_lsn);
    Ok(WalScan { txns, valid_len, next_lsn, base_lsn })
}

// ---------------------------------------------------------------------------
// Writer.

/// When commits reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every commit: an acknowledged commit is durable.
    EveryCommit,
    /// Group commit: `fsync` once per `n` commits. Acknowledged-but-
    /// unsynced commits can be lost in a crash, but what survives is
    /// always a committed prefix.
    Batched(u32),
}

/// Durable-mode knobs for [`crate::db::Database::open_with`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Commit durability policy.
    pub sync: SyncPolicy,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions { sync: SyncPolicy::EveryCommit }
    }
}

/// Serialized WAL appender. Held behind a mutex acquired *before* any
/// table or CLOB lock, so WAL order always equals apply order — which
/// is what makes CLOB locator assignment replay deterministically.
pub(crate) struct WalWriter {
    /// The log, or the error of the failed append, fsync or log swap
    /// that stopped the writer (see the module docs' failure rule).
    pub(crate) file: std::result::Result<Box<dyn DurableFile>, String>,
    /// LSN the next commit will carry.
    pub(crate) next_lsn: u64,
    pub(crate) policy: SyncPolicy,
    /// Commits appended since the last successful sync.
    pub(crate) unsynced: u32,
    /// True while the snapshot on disk is stamped with the last committed
    /// LSN and this log holds no transaction, so a checkpoint would
    /// rewrite the same snapshot (see [`crate::db::Database::checkpoint`]).
    pub(crate) snapshot_current: bool,
}

impl WalWriter {
    /// Seal a `Commit` frame onto `frames`, a transaction's `records`
    /// sealed frames, and append them as one write; sync per policy.
    /// Returns the transaction's LSN.
    pub(crate) fn commit(&mut self, mut frames: Vec<u8>, records: u64) -> Result<u64> {
        let lsn = self.next_lsn;
        append_frame(&mut frames, |enc| WalRecord::Commit { lsn }.write(enc));
        // Even a failed append (it stops the writer) leaves no checkpoint idle.
        self.snapshot_current = false;
        self.write(|log| {
            let _append = names::WAL_APPEND.span();
            log.append(&frames)
        })?;
        names::WAL_APPENDS.add(records + 1);
        names::WAL_BYTES.add(frames.len() as u64);
        self.next_lsn += 1;
        self.unsynced += 1;
        let every = match self.policy {
            SyncPolicy::EveryCommit => 1,
            SyncPolicy::Batched(n) => n.max(1),
        };
        if self.unsynced >= every {
            self.sync()?;
        }
        Ok(lsn)
    }

    /// Force a durability barrier (flushes batched commits); a failed
    /// fsync stops the writer, which then fails here with nothing to sync.
    pub(crate) fn sync(&mut self) -> Result<()> {
        let unsynced = std::mem::take(&mut self.unsynced);
        self.write(|log| {
            if unsynced > 0 {
                let _fsync = names::WAL_FSYNC.span();
                log.sync()?;
                names::WAL_FSYNCS.incr();
            }
            Ok(())
        })
    }

    /// Run `op` on the log; if it fails, [`WalWriter::stop`] the writer.
    /// A stopped writer refuses, naming what stopped it.
    fn write(&mut self, op: impl FnOnce(&mut dyn DurableFile) -> Result<()>) -> Result<()> {
        let log = self.file.as_mut().map_err(|cause| {
            DbError::Io(format!("wal: log writes stopped after `{cause}`; reopen the database"))
        })?;
        op(log.as_mut()).map_err(|e| self.stop(e))
    }

    /// Drop the log for good after `e`, a failed write of it, whose
    /// outcome on disk is unknown; returns `e`.
    pub(crate) fn stop(&mut self, e: DbError) -> DbError {
        names::WAL_WRITER_STOPS.incr();
        self.file = Err(if let DbError::Io(m) = &e { m.clone() } else { e.to_string() });
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The bytewise CRC32 the sliced one must equal: one table lookup
    /// per byte.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFF_u32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// `n` pseudo-random bytes (xorshift64), the same on every run.
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_one() {
        // Every start offset within a block and every length up to a
        // few blocks: each alignment, each remainder length.
        let buf = noise(16 + 300);
        for start in 0..16 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
        let big = noise(1 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn record_roundtrip() {
        let recs = vec![
            WalRecord::CreateTable {
                name: "t".into(),
                schema: TableSchema {
                    columns: vec![
                        Column::new("id", crate::value::DataType::Int),
                        Column::nullable("s", crate::value::DataType::Text),
                    ],
                },
            },
            WalRecord::CreateIndex {
                table: "t".into(),
                name: "t_pk".into(),
                columns: vec![0, 1],
                unique: true,
            },
            WalRecord::Insert {
                table: "t".into(),
                rows: vec![
                    vec![Value::Int(1), Value::Str("x".into())],
                    vec![Value::Int(2), Value::Null],
                ],
            },
            WalRecord::DeleteWhere {
                table: "t".into(),
                pred: Expr::all([
                    Expr::col_eq(0, 1),
                    Expr::Or(
                        Box::new(Expr::IsNull(Box::new(Expr::col(1)))),
                        Box::new(Expr::Between(
                            Box::new(Expr::col(0)),
                            Box::new(Expr::lit(0)),
                            Box::new(Expr::lit(10)),
                        )),
                    ),
                    Expr::Not(Box::new(Expr::Cmp(
                        CmpOp::Le,
                        Box::new(Expr::col(0)),
                        Box::new(Expr::lit(2.5)),
                    ))),
                    Expr::Like(Box::new(Expr::col(1)), "a%".into()),
                ]),
            },
            WalRecord::ClobPut { parts: vec!["<x/>".into(), String::new(), "<y>ü</y>".into()] },
            WalRecord::ClobPut { parts: vec![] },
            WalRecord::Commit { lsn: 42 },
        ];
        for rec in recs {
            let bytes = rec.encode();
            let back = WalRecord::decode(&bytes).unwrap();
            // Codec is canonical: decode(encode(r)) re-encodes identically.
            assert_eq!(back.encode(), bytes, "roundtrip drift for {rec:?}");
        }
    }

    #[test]
    fn retired_tags_are_unknown() {
        // Record tags 2, 6 and 7 were `DropTable`, `UpdateWhere` and
        // `Truncate`; expression tags 6 and 10 were arithmetic and an `IN`
        // list (here in a `DeleteWhere` on table "t").
        let delete_with = |tag: u8| [&[5u8][..], &1u64.to_le_bytes(), b"t", &[tag]].concat();
        for bytes in [vec![2u8], vec![6], vec![7], delete_with(6), delete_with(10)] {
            match WalRecord::decode(&bytes) {
                Err(DbError::Corrupt(m)) => assert!(m.contains("unknown"), "{m}"),
                other => panic!("{bytes:?} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = WalRecord::Commit { lsn: 1 }.encode();
        bytes.push(0);
        assert!(matches!(WalRecord::decode(&bytes), Err(DbError::Corrupt(_))));
    }

    fn sample_txn_log() -> Vec<u8> {
        let mut buf = encode_wal_header(1).to_vec();
        let mut w = |records: &[WalRecord]| {
            for r in records {
                append_frame(&mut buf, |enc| r.write(enc));
            }
        };
        w(&[
            WalRecord::Insert { table: "t".into(), rows: vec![vec![Value::Int(1)]] },
            WalRecord::Commit { lsn: 1 },
            WalRecord::ClobPut { parts: vec!["abc".into()] },
            WalRecord::Insert { table: "t".into(), rows: vec![vec![Value::Int(2)]] },
            WalRecord::Commit { lsn: 2 },
        ]);
        buf
    }

    #[test]
    fn scan_reads_committed_txns() {
        let log = sample_txn_log();
        let scan = scan_wal(&log).unwrap();
        assert_eq!(scan.txns.len(), 2);
        assert_eq!(scan.txns[0].0, 1);
        assert_eq!(scan.txns[0].1.len(), 1);
        assert_eq!(scan.txns[1].1.len(), 2);
        assert_eq!(scan.next_lsn, 3);
        assert_eq!(scan.valid_len, log.len() as u64);
    }

    #[test]
    fn torn_tail_discards_only_uncommitted_suffix() {
        let log = sample_txn_log();
        let full = scan_wal(&log).unwrap();
        let first_end = {
            // End of txn 1 = valid_len after truncating just past it.
            let mut probe = None;
            for cut in (WAL_HEADER_LEN..log.len()).rev() {
                if let Ok(s) = scan_wal(&log[..cut]) {
                    if s.txns.len() == 1 {
                        probe = Some(s.valid_len);
                        break;
                    }
                }
            }
            probe.expect("some prefix holds exactly one committed txn")
        };
        // Every truncation point yields a committed prefix, never an error.
        for cut in WAL_HEADER_LEN..log.len() {
            let s = scan_wal(&log[..cut]).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert!(s.txns.len() <= full.txns.len());
            assert!(s.valid_len <= cut as u64);
            if (cut as u64) < first_end {
                assert_eq!(s.txns.len(), 0, "cut {cut}");
            }
        }
    }

    #[test]
    fn bit_flip_in_body_is_corrupt() {
        let log = sample_txn_log();
        // Flip one bit in every byte of the first transaction's bytes;
        // each must be detected as hard corruption (never silently
        // accepted, never reported as a clean shorter log).
        let scan = scan_wal(&log).unwrap();
        let first_txn_end = {
            let mut end = 0;
            for cut in WAL_HEADER_LEN..log.len() {
                if let Ok(s) = scan_wal(&log[..cut]) {
                    if s.txns.len() == 1 {
                        end = s.valid_len as usize;
                        break;
                    }
                }
            }
            end
        };
        assert!(first_txn_end > WAL_HEADER_LEN);
        assert!(scan.txns.len() == 2);
        for pos in WAL_HEADER_LEN..first_txn_end {
            let mut bad = log.clone();
            bad[pos] ^= 0x01;
            match scan_wal(&bad) {
                Err(DbError::Corrupt(_)) => {}
                Ok(s) => {
                    panic!("bit flip at {pos} accepted: {} txns (expected Corrupt)", s.txns.len())
                }
                Err(e) => panic!("bit flip at {pos}: wrong error {e}"),
            }
        }
    }

    #[test]
    fn header_corruption_rejected() {
        let log = sample_txn_log();
        for pos in 0..WAL_HEADER_LEN {
            let mut bad = log.clone();
            bad[pos] ^= 0x80;
            assert!(
                matches!(scan_wal(&bad), Err(DbError::Corrupt(_))),
                "header flip at {pos} not rejected"
            );
        }
        assert!(matches!(scan_wal(&log[..10]), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn uncommitted_complete_tail_is_dropped() {
        let mut log = sample_txn_log();
        // Append a complete record with no commit after it.
        let tail = WalRecord::Insert { table: "t".into(), rows: vec![vec![Value::Int(9)]] };
        append_frame(&mut log, |enc| tail.write(enc));
        let s = scan_wal(&log).unwrap();
        assert_eq!(s.txns.len(), 2);
        assert!(s.valid_len < log.len() as u64);
    }
}
