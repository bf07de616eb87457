//! Write-ahead logging, checkpointing, and an injectable durable-file
//! layer with deterministic fault injection.
//!
//! The engine stays in-memory; durability comes from logging every
//! mutation before acknowledging it (see [`crate::db::Txn`]) and
//! periodically checkpointing the whole database to a snapshot so the
//! log can be truncated.
//!
//! # WAL format
//!
//! A WAL file is a 20-byte header followed by a sequence of frames:
//!
//! ```text
//! header: "MWL1" | u32 version | u64 base_lsn | u32 crc32(first 16 bytes)
//! frame:  u32 len | u32 crc32(len) | u32 crc32(payload) | payload
//! ```
//!
//! Each payload is one `WalRecord`. A transaction is a run of
//! operation records terminated by `Commit{lsn}`; recovery applies only
//! complete committed transactions, in LSN order.
//!
//! The double checksum makes torn tails and corruption distinguishable
//! under the prefix-tearing crash model (appends may be lost from the
//! end, never reordered):
//!
//! - fewer than 12 bytes left, or fewer than `len` payload bytes left:
//!   **torn tail** — the crash interrupted the final append; the tail
//!   is silently discarded.
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
//! `base_lsn = lsn + 1`. Recovery loads the snapshot, replays only WAL
//! transactions with `lsn > snapshot lsn`, truncates the log back to
//! the end of the last committed transaction (dropping orphaned
//! uncommitted records so a later commit can never adopt them), and
//! reopens it for appending. Every crash window between those renames
//! recovers to a consistent committed prefix.

use crate::error::{DbError, Result};
use crate::expr::{ArithOp, CmpOp, Expr};
use crate::snapshot::{dtype_code, dtype_from, Dec, Enc};
use crate::table::{Column, Row, TableSchema};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// Snapshot file name inside a durable directory.
pub const SNAPSHOT_FILE: &str = "snapshot.mdb";
/// WAL file name inside a durable directory.
pub const WAL_FILE: &str = "wal.log";
/// Scratch names for atomic tmp-then-rename replacement.
pub(crate) const SNAPSHOT_TMP: &str = "snapshot.tmp";
pub(crate) const WAL_TMP: &str = "wal.tmp";

const WAL_MAGIC: &[u8; 4] = b"MWL1";
const WAL_VERSION: u32 = 1;
/// Fixed size of the WAL file header.
pub(crate) const WAL_HEADER_LEN: usize = 20;
/// Frame prefix: length word plus its checksum plus the payload checksum.
const FRAME_HEADER_LEN: usize = 12;
/// Largest payload the writer will ever produce; anything bigger in a
/// log whose length word checksummed correctly is corruption.
const MAX_RECORD: u32 = 1 << 30;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — implemented locally; the build is
// offline and must not pull a checksum crate.

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC32 of `data` (IEEE polynomial, as used by zip/png).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_accum(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental CRC32 step over raw (pre-inversion) state, for
/// streaming checksums; seed with `0xFFFF_FFFF` and invert at the end.
pub(crate) fn crc32_accum(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

// ---------------------------------------------------------------------------
// Virtual file system: the injectable I/O boundary.

/// An append-only durable file handle. Appends buffer in the OS (or the
/// in-memory model); [`DurableFile::sync`] is the durability barrier.
pub trait DurableFile: Send {
    /// Append bytes at the end of the file.
    fn append(&mut self, data: &[u8]) -> Result<()>;
    /// Durability barrier (fsync). Data appended before a successful
    /// `sync` survives a crash; later data may not.
    fn sync(&mut self) -> Result<()>;
}

/// Minimal file-system surface the durability layer needs. Implemented
/// by [`StdVfs`] (a real directory), [`MemVfs`] (in-memory, models
/// crashes), and [`FaultyVfs`] (injects failures for tests).
pub trait Vfs: Send + Sync {
    /// Whole-file read; `Ok(None)` when the file does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>>;
    /// Create (truncating) and open for append.
    fn create(&self, name: &str) -> Result<Box<dyn DurableFile>>;
    /// Open an existing file for append.
    fn open_append(&self, name: &str) -> Result<Box<dyn DurableFile>>;
    /// Atomically replace `to` with `from`.
    fn rename(&self, from: &str, to: &str) -> Result<()>;
    /// Truncate a file to `len` bytes.
    fn set_len(&self, name: &str, len: u64) -> Result<()>;
    /// Does the file exist?
    fn exists(&self, name: &str) -> bool;
}

fn vfs_err(op: &str, name: &str, e: std::io::Error) -> DbError {
    DbError::Io(format!("{op} {name}: {e}"))
}

/// Lock file inside a durable directory; see [`StdVfs::new`].
pub const LOCK_FILE: &str = "LOCK";

/// Real-directory [`Vfs`] backed by `std::fs`.
pub struct StdVfs {
    dir: PathBuf,
    /// Exclusive lock on [`LOCK_FILE`], held for the life of the VFS.
    _lock: std::fs::File,
}

impl StdVfs {
    /// Open (creating if needed) `dir` as a durable directory and take
    /// its exclusive lock. Recovery truncates a torn WAL tail and the
    /// writer appends with its own LSNs, so two live openers would
    /// corrupt each other's log; a second open — from this process or
    /// another — fails with [`DbError::Locked`] until the first
    /// `StdVfs` is dropped. The OS releases the lock when the process
    /// dies, so a crash leaves no stale lock behind.
    pub fn new(dir: impl Into<PathBuf>) -> Result<StdVfs> {
        let dir = dir.into();
        let shown = dir.display().to_string();
        std::fs::create_dir_all(&dir).map_err(|e| vfs_err("create_dir_all", &shown, e))?;
        let lock = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(LOCK_FILE))
            .map_err(|e| vfs_err("open", LOCK_FILE, e))?;
        match lock.try_lock() {
            Ok(()) => Ok(StdVfs { dir, _lock: lock }),
            Err(std::fs::TryLockError::WouldBlock) => Err(DbError::Locked(shown)),
            Err(std::fs::TryLockError::Error(e)) => Err(vfs_err("lock", LOCK_FILE, e)),
        }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

struct StdFile(std::fs::File, String);

impl DurableFile for StdFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.0.write_all(data).map_err(|e| vfs_err("append", &self.1, e))
    }

    fn sync(&mut self) -> Result<()> {
        self.0.sync_data().map_err(|e| vfs_err("fsync", &self.1, e))
    }
}

impl Vfs for StdVfs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(vfs_err("read", name, e)),
        }
    }

    fn create(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        let f = std::fs::File::create(self.path(name)).map_err(|e| vfs_err("create", name, e))?;
        Ok(Box::new(StdFile(f, name.to_string())))
    }

    fn open_append(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        let f = std::fs::OpenOptions::new()
            .append(true)
            .open(self.path(name))
            .map_err(|e| vfs_err("open_append", name, e))?;
        Ok(Box::new(StdFile(f, name.to_string())))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        std::fs::rename(self.path(from), self.path(to)).map_err(|e| vfs_err("rename", from, e))
    }

    fn set_len(&self, name: &str, len: u64) -> Result<()> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .map_err(|e| vfs_err("open", name, e))?;
        f.set_len(len).map_err(|e| vfs_err("set_len", name, e))
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }
}

#[derive(Clone, Default)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes guaranteed durable: everything up to the last `sync`.
    synced_len: usize,
}

/// In-memory [`Vfs`] that models crash semantics: every file tracks how
/// much of it has been fsynced, and [`MemVfs::crashed_copy`] yields the
/// state a machine would see after power loss (unsynced tails gone).
#[derive(Clone, Default)]
pub struct MemVfs {
    files: Arc<Mutex<HashMap<String, MemFile>>>,
}

impl MemVfs {
    /// Empty in-memory file system.
    pub fn new() -> MemVfs {
        MemVfs::default()
    }

    /// The file system as it would look after a crash right now: each
    /// file truncated to its last synced length.
    pub fn crashed_copy(&self) -> MemVfs {
        let files = self.files.lock();
        let copied = files
            .iter()
            .map(|(k, v)| {
                let mut f = v.clone();
                f.data.truncate(f.synced_len);
                (k.clone(), f)
            })
            .collect();
        MemVfs { files: Arc::new(Mutex::new(copied)) }
    }

    /// Current full contents of `name` (including unsynced bytes).
    pub fn file(&self, name: &str) -> Option<Vec<u8>> {
        self.files.lock().get(name).map(|f| f.data.clone())
    }

    /// Replace `name` wholesale (marked fully synced). Test hook for
    /// injecting truncations and bit flips.
    pub fn overwrite(&self, name: &str, data: Vec<u8>) {
        let synced_len = data.len();
        self.files.lock().insert(name.to_string(), MemFile { data, synced_len });
    }
}

struct MemHandle {
    files: Arc<Mutex<HashMap<String, MemFile>>>,
    name: String,
}

impl DurableFile for MemHandle {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let mut files = self.files.lock();
        let f = files
            .get_mut(&self.name)
            .ok_or_else(|| DbError::Io(format!("append {}: file renamed away", self.name)))?;
        f.data.extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let mut files = self.files.lock();
        let f = files
            .get_mut(&self.name)
            .ok_or_else(|| DbError::Io(format!("fsync {}: file renamed away", self.name)))?;
        f.synced_len = f.data.len();
        Ok(())
    }
}

impl Vfs for MemVfs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.file(name))
    }

    fn create(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        self.files.lock().insert(name.to_string(), MemFile::default());
        Ok(Box::new(MemHandle { files: self.files.clone(), name: name.to_string() }))
    }

    fn open_append(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        if !self.exists(name) {
            return Err(DbError::Io(format!("open_append {name}: no such file")));
        }
        Ok(Box::new(MemHandle { files: self.files.clone(), name: name.to_string() }))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut files = self.files.lock();
        let f = files
            .remove(from)
            .ok_or_else(|| DbError::Io(format!("rename {from}: no such file")))?;
        files.insert(to.to_string(), f);
        Ok(())
    }

    fn set_len(&self, name: &str, len: u64) -> Result<()> {
        let mut files = self.files.lock();
        let f = files
            .get_mut(name)
            .ok_or_else(|| DbError::Io(format!("set_len {name}: no such file")))?;
        f.data.truncate(len as usize);
        f.synced_len = f.synced_len.min(f.data.len());
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.files.lock().contains_key(name)
    }
}

// ---------------------------------------------------------------------------
// Fault injection.

#[derive(Default)]
struct FaultState {
    /// Remaining bytes that may be appended before the injected crash.
    /// The append that exceeds the budget is a *short write*: only the
    /// budgeted prefix lands.
    byte_budget: Option<u64>,
    /// `sync` calls remaining until one fails (1 = the next one fails).
    syncs_until_fail: Option<u64>,
    /// Set once a fault fired; every later write or sync fails.
    crashed: bool,
}

/// [`Vfs`] wrapper that injects deterministic faults: a byte budget
/// after which an append is torn short, and/or an fsync that fails on
/// the Nth call. After the first fault the file system is "down" —
/// every subsequent write-side call errors, as a crashed machine would.
/// Reads pass through so tests can inspect and recover the state.
#[derive(Clone)]
pub struct FaultyVfs {
    inner: MemVfs,
    state: Arc<Mutex<FaultState>>,
}

impl FaultyVfs {
    /// Wrap `inner` with no faults armed.
    pub fn new(inner: MemVfs) -> FaultyVfs {
        FaultyVfs { inner, state: Arc::new(Mutex::new(FaultState::default())) }
    }

    /// Arm a crash after `n` more appended bytes (the write crossing
    /// the boundary is torn at it).
    pub fn crash_after_bytes(self, n: u64) -> FaultyVfs {
        self.state.lock().byte_budget = Some(n);
        self
    }

    /// Arm the `n`th subsequent `sync` (1-based) to fail.
    pub fn fail_sync_at(self, n: u64) -> FaultyVfs {
        assert!(n > 0, "fail_sync_at is 1-based");
        self.state.lock().syncs_until_fail = Some(n);
        self
    }

    /// Has an injected fault fired yet?
    pub fn is_crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// The wrapped in-memory file system (for `crashed_copy` etc.).
    pub fn inner(&self) -> &MemVfs {
        &self.inner
    }
}

/// A [`DurableFile`] that honors the shared [`FaultyVfs`] fault state.
pub struct FaultyFile {
    inner: Box<dyn DurableFile>,
    state: Arc<Mutex<FaultState>>,
}

impl DurableFile for FaultyFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let mut st = self.state.lock();
        if st.crashed {
            return Err(DbError::Io("injected: file system is down".into()));
        }
        if let Some(budget) = st.byte_budget {
            if (data.len() as u64) > budget {
                st.crashed = true;
                st.byte_budget = Some(0);
                drop(st);
                // Short write: the prefix that fit reaches the medium.
                self.inner.append(&data[..budget as usize])?;
                return Err(DbError::Io("injected: short write".into()));
            }
            st.byte_budget = Some(budget - data.len() as u64);
        }
        drop(st);
        self.inner.append(data)
    }

    fn sync(&mut self) -> Result<()> {
        let mut st = self.state.lock();
        if st.crashed {
            return Err(DbError::Io("injected: file system is down".into()));
        }
        if let Some(n) = st.syncs_until_fail {
            if n <= 1 {
                st.crashed = true;
                st.syncs_until_fail = None;
                return Err(DbError::Io("injected: fsync failure".into()));
            }
            st.syncs_until_fail = Some(n - 1);
        }
        drop(st);
        self.inner.sync()
    }
}

impl Vfs for FaultyVfs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn create(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        if self.state.lock().crashed {
            return Err(DbError::Io("injected: file system is down".into()));
        }
        let inner = self.inner.create(name)?;
        Ok(Box::new(FaultyFile { inner, state: self.state.clone() }))
    }

    fn open_append(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        if self.state.lock().crashed {
            return Err(DbError::Io("injected: file system is down".into()));
        }
        let inner = self.inner.open_append(name)?;
        Ok(Box::new(FaultyFile { inner, state: self.state.clone() }))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        if self.state.lock().crashed {
            return Err(DbError::Io("injected: file system is down".into()));
        }
        self.inner.rename(from, to)
    }

    fn set_len(&self, name: &str, len: u64) -> Result<()> {
        if self.state.lock().crashed {
            return Err(DbError::Io("injected: file system is down".into()));
        }
        self.inner.set_len(name, len)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
}

// ---------------------------------------------------------------------------
// Records.

/// One logged mutation. Records are content-based — predicates and
/// values, never row ids — because snapshot load compacts tombstoned
/// row ids, so physical ids are not stable across recovery.
#[derive(Debug, Clone)]
pub(crate) enum WalRecord {
    /// DDL: create a table.
    CreateTable { name: String, schema: TableSchema },
    /// DDL: drop a table.
    DropTable { name: String },
    /// DDL: create an index over resolved column positions.
    CreateIndex { table: String, name: String, columns: Vec<usize>, unique: bool },
    /// Insert fully-shaped rows.
    Insert { table: String, rows: Vec<Row> },
    /// Delete every row matching the predicate.
    DeleteWhere { table: String, pred: Expr },
    /// Update matching rows: `sets` are (column, value-expression).
    UpdateWhere { table: String, pred: Option<Expr>, sets: Vec<(usize, Expr)> },
    /// Remove all rows of a table.
    Truncate { table: String },
    /// Append a CLOB; replay re-assigns the same locator because WAL
    /// order equals apply order (the writer lock is held while applying).
    ClobPut { data: Vec<u8> },
    /// Transaction terminator; everything since the previous commit
    /// becomes atomic and durable.
    Commit { lsn: u64 },
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
        t => return Err(DbError::Corrupt(format!("wal: unknown cmp op {t}"))),
    })
}

fn arith_code(op: ArithOp) -> u8 {
    match op {
        ArithOp::Add => 0,
        ArithOp::Sub => 1,
        ArithOp::Mul => 2,
        ArithOp::Div => 3,
        ArithOp::Mod => 4,
    }
}

fn arith_from(c: u8) -> Result<ArithOp> {
    Ok(match c {
        0 => ArithOp::Add,
        1 => ArithOp::Sub,
        2 => ArithOp::Mul,
        3 => ArithOp::Div,
        4 => ArithOp::Mod,
        t => return Err(DbError::Corrupt(format!("wal: unknown arith op {t}"))),
    })
}

fn write_expr<W: Write>(enc: &mut Enc<W>, e: &Expr) -> Result<()> {
    match e {
        Expr::Col(i) => {
            enc.u8(0)?;
            enc.u64(*i as u64)
        }
        Expr::Lit(v) => {
            enc.u8(1)?;
            enc.value(v)
        }
        Expr::Cmp(op, a, b) => {
            enc.u8(2)?;
            enc.u8(cmp_code(*op))?;
            write_expr(enc, a)?;
            write_expr(enc, b)
        }
        Expr::And(a, b) => {
            enc.u8(3)?;
            write_expr(enc, a)?;
            write_expr(enc, b)
        }
        Expr::Or(a, b) => {
            enc.u8(4)?;
            write_expr(enc, a)?;
            write_expr(enc, b)
        }
        Expr::Not(a) => {
            enc.u8(5)?;
            write_expr(enc, a)
        }
        Expr::Arith(op, a, b) => {
            enc.u8(6)?;
            enc.u8(arith_code(*op))?;
            write_expr(enc, a)?;
            write_expr(enc, b)
        }
        Expr::Like(a, pat) => {
            enc.u8(7)?;
            write_expr(enc, a)?;
            enc.string(pat)
        }
        Expr::IsNull(a) => {
            enc.u8(8)?;
            write_expr(enc, a)
        }
        Expr::Between(a, lo, hi) => {
            enc.u8(9)?;
            write_expr(enc, a)?;
            write_expr(enc, lo)?;
            write_expr(enc, hi)
        }
        Expr::InList(a, vs) => {
            enc.u8(10)?;
            write_expr(enc, a)?;
            enc.u32(vs.len() as u32)?;
            for v in vs {
                enc.value(v)?;
            }
            Ok(())
        }
    }
}

fn read_expr<R: std::io::Read>(dec: &mut Dec<R>) -> Result<Expr> {
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
        6 => {
            let op = arith_from(dec.u8()?)?;
            Expr::Arith(op, Box::new(read_expr(dec)?), Box::new(read_expr(dec)?))
        }
        7 => Expr::Like(Box::new(read_expr(dec)?), dec.string()?),
        8 => Expr::IsNull(Box::new(read_expr(dec)?)),
        9 => Expr::Between(
            Box::new(read_expr(dec)?),
            Box::new(read_expr(dec)?),
            Box::new(read_expr(dec)?),
        ),
        10 => {
            let a = Box::new(read_expr(dec)?);
            let n = dec.u32()?;
            let mut vs = Vec::with_capacity((n as usize).min(4096));
            for _ in 0..n {
                vs.push(dec.value()?);
            }
            Expr::InList(a, vs)
        }
        t => return Err(DbError::Corrupt(format!("wal: unknown expr tag {t}"))),
    })
}

impl WalRecord {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut enc = Enc { w: Vec::new() };
        self.write(&mut enc).expect("encoding to Vec cannot fail");
        enc.w
    }

    fn write<W: Write>(&self, enc: &mut Enc<W>) -> Result<()> {
        match self {
            WalRecord::CreateTable { name, schema } => {
                enc.u8(1)?;
                enc.string(name)?;
                enc.u32(schema.columns.len() as u32)?;
                for c in &schema.columns {
                    enc.string(&c.name)?;
                    enc.u8(dtype_code(c.dtype))?;
                    enc.u8(c.nullable as u8)?;
                }
                Ok(())
            }
            WalRecord::DropTable { name } => {
                enc.u8(2)?;
                enc.string(name)
            }
            WalRecord::CreateIndex { table, name, columns, unique } => {
                enc.u8(3)?;
                enc.string(table)?;
                enc.string(name)?;
                enc.u8(*unique as u8)?;
                enc.u32(columns.len() as u32)?;
                for &c in columns {
                    enc.u32(c as u32)?;
                }
                Ok(())
            }
            WalRecord::Insert { table, rows } => {
                enc.u8(4)?;
                enc.string(table)?;
                enc.u32(rows.len() as u32)?;
                for row in rows {
                    enc.u32(row.len() as u32)?;
                    for v in row {
                        enc.value(v)?;
                    }
                }
                Ok(())
            }
            WalRecord::DeleteWhere { table, pred } => {
                enc.u8(5)?;
                enc.string(table)?;
                write_expr(enc, pred)
            }
            WalRecord::UpdateWhere { table, pred, sets } => {
                enc.u8(6)?;
                enc.string(table)?;
                match pred {
                    None => enc.u8(0)?,
                    Some(p) => {
                        enc.u8(1)?;
                        write_expr(enc, p)?;
                    }
                }
                enc.u32(sets.len() as u32)?;
                for (col, e) in sets {
                    enc.u32(*col as u32)?;
                    write_expr(enc, e)?;
                }
                Ok(())
            }
            WalRecord::Truncate { table } => {
                enc.u8(7)?;
                enc.string(table)
            }
            WalRecord::ClobPut { data } => {
                enc.u8(8)?;
                enc.bytes(data)
            }
            WalRecord::Commit { lsn } => {
                enc.u8(9)?;
                enc.u64(*lsn)
            }
        }
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<WalRecord> {
        let mut dec = Dec { r: bytes };
        let rec = Self::read(&mut dec)?;
        if !dec.r.is_empty() {
            return Err(DbError::Corrupt(format!(
                "wal: {} trailing bytes after record",
                dec.r.len()
            )));
        }
        Ok(rec)
    }

    fn read<R: std::io::Read>(dec: &mut Dec<R>) -> Result<WalRecord> {
        Ok(match dec.u8()? {
            1 => {
                let name = dec.string()?;
                let n = dec.u32()?;
                let mut columns = Vec::with_capacity((n as usize).min(4096));
                for _ in 0..n {
                    let cname = dec.string()?;
                    let dtype = dtype_from(dec.u8()?)?;
                    let nullable = dec.u8()? != 0;
                    columns.push(Column { name: cname, dtype, nullable });
                }
                WalRecord::CreateTable { name, schema: TableSchema { columns } }
            }
            2 => WalRecord::DropTable { name: dec.string()? },
            3 => {
                let table = dec.string()?;
                let name = dec.string()?;
                let unique = dec.u8()? != 0;
                let n = dec.u32()?;
                let mut columns = Vec::with_capacity((n as usize).min(4096));
                for _ in 0..n {
                    columns.push(dec.u32()? as usize);
                }
                WalRecord::CreateIndex { table, name, columns, unique }
            }
            4 => {
                let table = dec.string()?;
                let n = dec.u32()?;
                let mut rows = Vec::with_capacity((n as usize).min(4096));
                for _ in 0..n {
                    let arity = dec.u32()?;
                    let mut row = Vec::with_capacity((arity as usize).min(4096));
                    for _ in 0..arity {
                        row.push(dec.value()?);
                    }
                    rows.push(row);
                }
                WalRecord::Insert { table, rows }
            }
            5 => WalRecord::DeleteWhere { table: dec.string()?, pred: read_expr(dec)? },
            6 => {
                let table = dec.string()?;
                let pred = match dec.u8()? {
                    0 => None,
                    1 => Some(read_expr(dec)?),
                    t => return Err(DbError::Corrupt(format!("wal: bad pred flag {t}"))),
                };
                let n = dec.u32()?;
                let mut sets = Vec::with_capacity((n as usize).min(4096));
                for _ in 0..n {
                    let col = dec.u32()? as usize;
                    sets.push((col, read_expr(dec)?));
                }
                WalRecord::UpdateWhere { table, pred, sets }
            }
            7 => WalRecord::Truncate { table: dec.string()? },
            8 => WalRecord::ClobPut { data: dec.bytes()? },
            9 => WalRecord::Commit { lsn: dec.u64()? },
            t => return Err(DbError::Corrupt(format!("wal: unknown record tag {t}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// Framing.

/// Append one framed payload to `buf`.
pub(crate) fn write_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    let len = payload.len() as u32;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&crc32(&len.to_le_bytes()).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Encode the 20-byte WAL file header.
pub(crate) fn encode_wal_header(base_lsn: u64) -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[..4].copy_from_slice(WAL_MAGIC);
    h[4..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&base_lsn.to_le_bytes());
    let crc = crc32(&h[..16]);
    h[16..20].copy_from_slice(&crc.to_le_bytes());
    h
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
    #[allow(dead_code)]
    pub base_lsn: u64,
}

/// Scan a whole WAL file. Torn tails are tolerated (the incomplete
/// suffix is reported via `valid_len`, not an error); anything that is
/// provably wrong — checksum mismatch on fully-present bytes, unknown
/// tags, non-monotonic LSNs — is [`DbError::Corrupt`].
pub(crate) fn scan_wal(bytes: &[u8]) -> Result<WalScan> {
    if bytes.len() < WAL_HEADER_LEN {
        return Err(DbError::Corrupt(format!("wal: truncated header ({} bytes)", bytes.len())));
    }
    if &bytes[..4] != WAL_MAGIC {
        return Err(DbError::Corrupt("wal: bad magic".into()));
    }
    let stored = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if crc32(&bytes[..16]) != stored {
        return Err(DbError::Corrupt("wal: header checksum mismatch".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(DbError::Corrupt(format!("wal: unsupported version {version}")));
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
                "wal: frame header checksum mismatch at offset {off}"
            )));
        }
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_RECORD {
            return Err(DbError::Corrupt(format!("wal: implausible record length {len}")));
        }
        if rem - FRAME_HEADER_LEN < len as usize {
            break; // torn payload
        }
        let pcrc = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().expect("4 bytes"));
        let payload = &bytes[off + FRAME_HEADER_LEN..off + FRAME_HEADER_LEN + len as usize];
        if crc32(payload) != pcrc {
            return Err(DbError::Corrupt(format!("wal: record checksum mismatch at offset {off}")));
        }
        let rec = WalRecord::decode(payload)?;
        off += FRAME_HEADER_LEN + len as usize;
        match rec {
            WalRecord::Commit { lsn } => {
                if let Some(prev) = last_lsn {
                    if lsn <= prev {
                        return Err(DbError::Corrupt(format!(
                            "wal: non-monotonic commit lsn {lsn} after {prev}"
                        )));
                    }
                }
                if lsn < base_lsn {
                    return Err(DbError::Corrupt(format!(
                        "wal: commit lsn {lsn} below base {base_lsn}"
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
    pub(crate) file: Box<dyn DurableFile>,
    /// LSN the next commit will carry.
    pub(crate) next_lsn: u64,
    pub(crate) policy: SyncPolicy,
    /// Commits appended since the last successful sync.
    pub(crate) unsynced: u32,
}

impl WalWriter {
    /// Append `records` plus a commit frame as one transaction; sync
    /// per policy. Returns the transaction's LSN.
    pub(crate) fn commit(&mut self, records: &[WalRecord]) -> Result<u64> {
        let lsn = self.next_lsn;
        let mut buf = Vec::new();
        for r in records {
            write_frame(&mut buf, &r.encode());
        }
        write_frame(&mut buf, &WalRecord::Commit { lsn }.encode());
        self.file.append(&buf)?;
        let reg = obs::global();
        reg.counter("wal.appends").add(records.len() as u64 + 1);
        reg.counter("wal.bytes").add(buf.len() as u64);
        self.next_lsn += 1;
        self.unsynced += 1;
        match self.policy {
            SyncPolicy::EveryCommit => self.sync()?,
            SyncPolicy::Batched(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
        }
        Ok(lsn)
    }

    /// Force a durability barrier (flushes batched commits).
    pub(crate) fn sync(&mut self) -> Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.file.sync()?;
        obs::global().counter("wal.fsyncs").incr();
        self.unsynced = 0;
        Ok(())
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
            WalRecord::DropTable { name: "u".into() },
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
                pred: Expr::and(
                    Expr::col_eq(0, 1),
                    Expr::Or(
                        Box::new(Expr::IsNull(Box::new(Expr::col(1)))),
                        Box::new(Expr::Between(
                            Box::new(Expr::Arith(
                                ArithOp::Add,
                                Box::new(Expr::col(0)),
                                Box::new(Expr::lit(1)),
                            )),
                            Box::new(Expr::lit(0)),
                            Box::new(Expr::lit(10)),
                        )),
                    ),
                ),
            },
            WalRecord::UpdateWhere {
                table: "t".into(),
                pred: Some(Expr::InList(Box::new(Expr::col(0)), vec![1.into(), 2.into()])),
                sets: vec![(1, Expr::Like(Box::new(Expr::col(1)), "a%".into()))],
            },
            WalRecord::UpdateWhere { table: "t".into(), pred: None, sets: vec![] },
            WalRecord::Truncate { table: "t".into() },
            WalRecord::ClobPut { data: b"<x/>".to_vec() },
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
    fn decode_rejects_trailing_garbage() {
        let mut bytes = WalRecord::Commit { lsn: 1 }.encode();
        bytes.push(0);
        assert!(matches!(WalRecord::decode(&bytes), Err(DbError::Corrupt(_))));
    }

    fn sample_txn_log() -> Vec<u8> {
        let mut buf = encode_wal_header(1).to_vec();
        let mut w = |records: &[WalRecord]| {
            for r in records {
                write_frame(&mut buf, &r.encode());
            }
        };
        w(&[
            WalRecord::Insert { table: "t".into(), rows: vec![vec![Value::Int(1)]] },
            WalRecord::Commit { lsn: 1 },
            WalRecord::ClobPut { data: b"abc".to_vec() },
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
        write_frame(
            &mut log,
            &WalRecord::Insert { table: "t".into(), rows: vec![vec![Value::Int(9)]] }.encode(),
        );
        let s = scan_wal(&log).unwrap();
        assert_eq!(s.txns.len(), 2);
        assert!(s.valid_len < log.len() as u64);
    }

    #[test]
    fn mem_vfs_models_fsync_loss() {
        let vfs = MemVfs::new();
        let mut f = vfs.create("a").unwrap();
        f.append(b"one").unwrap();
        f.sync().unwrap();
        f.append(b"two").unwrap();
        let crashed = vfs.crashed_copy();
        assert_eq!(crashed.file("a").unwrap(), b"one");
        assert_eq!(vfs.file("a").unwrap(), b"onetwo");
    }

    #[test]
    fn faulty_vfs_short_write_and_sync_failure() {
        let vfs = FaultyVfs::new(MemVfs::new()).crash_after_bytes(5);
        let mut f = vfs.create("a").unwrap();
        f.append(b"abc").unwrap();
        assert!(f.append(b"defg").is_err());
        assert!(vfs.is_crashed());
        // The short write left the budgeted prefix on the medium.
        assert_eq!(vfs.inner().file("a").unwrap(), b"abcde");
        assert!(f.append(b"x").is_err());

        let vfs = FaultyVfs::new(MemVfs::new()).fail_sync_at(2);
        let mut f = vfs.create("b").unwrap();
        f.append(b"1").unwrap();
        f.sync().unwrap();
        f.append(b"2").unwrap();
        assert!(f.sync().is_err());
        // Failed sync: the bytes never became durable.
        assert_eq!(vfs.inner().crashed_copy().file("b").unwrap(), b"1");
    }
}
