//! Deterministic fault-injection tests for the WAL durability layer.
//!
//! The headline test runs a ≥200-operation workload against a durable
//! in-memory database, then simulates a crash at **every byte offset**
//! of the resulting WAL and asserts that recovery yields exactly the
//! committed prefix — checked against an uncrashed oracle database
//! that replayed only the committed operations. Companion tests cover
//! torn-tail discard vs. hard corruption (a CLOB that is not UTF-8, in
//! the log or in the snapshot, among it), group-commit loss windows,
//! injected fsync failures and short writes, checkpoint tail replay,
//! the CLOB layout across a restart, the refusal of directories in
//! the format before version 2, the log bytes of a fixed workload, and,
//! on a real directory, a checkpoint that fails after its log rename
//! landed and a short write or failed fsync of the log that the disk
//! recovers from: each stops the writer until a reopen.

use minidb::prelude::*;
use minidb::wal::{
    DurableFile, FaultyVfs, MemVfs, StdVfs, SyncPolicy, Vfs, WalOptions, SNAPSHOT_FILE, WAL_FILE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// One workload operation. Each op commits as one WAL transaction on
/// the durable database and replays identically on the oracle.
#[derive(Debug, Clone)]
enum Op {
    CreateTable(String),
    CreateIndex {
        table: String,
        name: String,
    },
    Insert {
        table: String,
        rows: Vec<Row>,
    },
    Delete {
        table: String,
        pred: Expr,
    },
    /// A multi-record transaction: put a CLOB and insert rows that
    /// reference its locator, atomically.
    IngestLike {
        table: String,
        doc: String,
        id: i64,
    },
}

fn table_schema() -> TableSchema {
    TableSchema::new(vec![
        Column::new("id", DataType::Int),
        Column::nullable("tag", DataType::Text),
        Column::nullable("doc", DataType::Clob),
    ])
}

impl Op {
    /// Apply through the public API. On a durable database each call
    /// is exactly one committed transaction; on the in-memory oracle
    /// the same calls are plain mutations.
    fn apply(&self, db: &Database) -> Result<()> {
        match self {
            Op::CreateTable(name) => db.create_table(name.clone(), table_schema()),
            Op::CreateIndex { table, name } => db.create_index(table, name, &["id"], false),
            Op::Insert { table, rows } => db.insert(table, rows.clone()).map(|_| ()),
            Op::Delete { table, pred } => db.delete_where(table, pred).map(|_| ()),
            Op::IngestLike { table, doc, id } => {
                let mut t = db.txn();
                let loc = t.put_clobs(&[doc]).start;
                t.insert(
                    table,
                    vec![
                        vec![Value::Int(*id), Value::Str("ingest".into()), Value::Int(loc as i64)],
                        vec![Value::Int(*id + 1), Value::Null, Value::Null],
                    ],
                )?;
                t.commit()
            }
        }
    }
}

/// Deterministic ≥200-op workload: a couple of tables, inserts,
/// deletes, occasional deletes of every row, index creation,
/// and multi-record ingest-like transactions.
fn workload(seed: u64, n_ops: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = vec![Op::CreateTable("alpha".into()), Op::CreateTable("beta".into())];
    let tables = ["alpha", "beta"];
    let mut next_id: i64 = 0;
    let mut n_idx = 0;
    while ops.len() < n_ops {
        let table = tables[rng.gen_range(0..tables.len())].to_string();
        let op = match rng.gen_range(0..100u32) {
            0..=44 => {
                let mut rows = Vec::new();
                for _ in 0..rng.gen_range(1..4u32) {
                    let tag = if rng.gen_range(0..4u32) == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("t{}", rng.gen_range(0..10u32)))
                    };
                    rows.push(vec![Value::Int(next_id), tag, Value::Null]);
                    next_id += 1;
                }
                Op::Insert { table, rows }
            }
            45..=64 => {
                next_id += 2;
                Op::IngestLike { table, doc: format!("<doc id='{next_id}'/>"), id: next_id - 2 }
            }
            65..=92 => {
                // Delete a pseudo-random id band (often matches nothing).
                let lo = rng.gen_range(0..next_id.max(1));
                Op::Delete {
                    table,
                    pred: Expr::Between(
                        Box::new(Expr::col(0)),
                        Box::new(Expr::lit(lo)),
                        Box::new(Expr::lit(lo + rng.gen_range(0..5i64))),
                    ),
                }
            }
            93..=95 => {
                n_idx += 1;
                Op::CreateIndex { table, name: format!("idx_{n_idx}") }
            }
            // Empty the table.
            _ => Op::Delete { table, pred: Expr::lit(true) },
        };
        ops.push(op);
    }
    ops
}

/// Full state digest via the snapshot image: table names, schemas,
/// index definitions, live rows, and the CLOB heap with its buffers.
fn digest(db: &Database) -> Vec<u8> {
    db.state_image().expect("state image")
}

/// The rows of `alpha` whose `id` is `id`.
fn alpha_where_id(id: i64) -> Plan {
    Plan::Scan { table: "alpha".into(), filter: Some(Expr::col_eq(0, id)) }
}

fn open_mem(vfs: MemVfs, sync: SyncPolicy) -> Database {
    Database::open_with(Arc::new(vfs), WalOptions { sync }).expect("open durable db")
}

#[test]
fn exhaustive_crash_points_recover_committed_prefix() {
    let seed = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    let ops = workload(seed, 200);
    assert!(ops.len() >= 200);

    // Uncrashed run: every op commits and fsyncs (EveryCommit).
    let base = MemVfs::new();
    {
        let db = open_mem(base.clone(), SyncPolicy::EveryCommit);
        for op in &ops {
            op.apply(&db).expect("workload op");
        }
        assert_eq!(db.last_lsn(), ops.len() as u64);
    }
    let wal = base.file(WAL_FILE).expect("wal exists");

    // Oracle advanced lazily: `oracle_digest[n]` = state after ops[..n].
    let oracle = Database::new();
    let mut oracle_applied = 0usize;
    let mut oracle_digest = digest(&oracle);

    // Crash at every byte offset of the log. Every recovery must
    // succeed (prefix truncation is a torn tail, never corruption) and
    // yield exactly the longest committed prefix that fits.
    let mut expect_n = 0u64;
    let mut boundary_checks = 0usize;
    for cut in 0..=wal.len() {
        let vfs = MemVfs::new();
        vfs.overwrite(WAL_FILE, wal[..cut].to_vec());
        if cut < 20 {
            // Inside the WAL header: provably not a log our writer
            // synced — recovery reports it rather than guessing.
            assert!(Database::open_with(Arc::new(vfs), WalOptions::default()).is_err());
            continue;
        }
        let db = Database::open_with(Arc::new(vfs), WalOptions::default())
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        let n = db.last_lsn();
        assert!(n >= expect_n, "cut {cut}: committed prefix shrank ({n} < {expect_n})");
        assert!(n <= ops.len() as u64, "cut {cut}: over-recovered");
        let boundary = n != expect_n;
        if boundary {
            // Crossed a commit boundary: advance the oracle to match.
            expect_n = n;
            while oracle_applied < n as usize {
                ops[oracle_applied].apply(&oracle).expect("oracle op");
                oracle_applied += 1;
            }
            oracle_digest = digest(&oracle);
            boundary_checks += 1;
        }
        // Prefix consistency: deep-compare at every commit boundary
        // and at a stride in between — intermediate cuts differ only
        // in torn-tail bytes, which the recovered LSN already proves
        // were discarded.
        if boundary || cut % 4 == 0 {
            assert_eq!(
                digest(&db),
                oracle_digest,
                "cut {cut}: recovered state diverges from oracle after {n} ops (seed {seed})"
            );
        }
    }
    assert_eq!(expect_n, ops.len() as u64, "full log must recover every op (seed {seed})");
    assert_eq!(boundary_checks, ops.len(), "every op must have a commit boundary");
}

#[test]
fn mid_log_bit_flips_are_hard_corruption() {
    let ops = workload(7, 60);
    let base = MemVfs::new();
    {
        let db = open_mem(base.clone(), SyncPolicy::EveryCommit);
        for op in &ops {
            op.apply(&db).expect("workload op");
        }
    }
    let wal = base.file(WAL_FILE).expect("wal exists");
    // Flip one bit at every offset (log is fully committed, so there
    // is no torn zone): every flip must surface as DbError::Corrupt —
    // never a clean open, never a panic.
    for pos in 0..wal.len() {
        let mut bad = wal.clone();
        bad[pos] ^= 1 << (pos % 8);
        let vfs = MemVfs::new();
        vfs.overwrite(WAL_FILE, bad);
        match Database::open_with(Arc::new(vfs), WalOptions::default()) {
            Err(DbError::Corrupt(_)) => {}
            Err(e) => panic!("flip at {pos}: wrong error kind: {e}"),
            Ok(db) => panic!("flip at {pos}: accepted, recovered lsn {}", db.last_lsn()),
        }
    }
}

#[test]
fn group_commit_crash_keeps_synced_prefix_only() {
    let ops = workload(11, 100);
    let vfs = MemVfs::new();
    let db = open_mem(vfs.clone(), SyncPolicy::Batched(8));
    for op in &ops {
        op.apply(&db).expect("workload op");
    }
    // Crash without the final flush: only whole groups of 8 commits
    // were fsynced (3 ops are bootstrap header syncs, not commits).
    let crashed = vfs.crashed_copy();
    std::mem::forget(db); // skip Drop's best-effort sync — this is the crash
    let recovered = Database::open_with(Arc::new(crashed), WalOptions::default()).unwrap();
    let n = recovered.last_lsn();
    let expected = (ops.len() as u64 / 8) * 8;
    assert_eq!(n, expected, "crash must land on the last group-commit boundary");

    // And the recovered state equals the oracle prefix.
    let oracle = Database::new();
    for op in &ops[..n as usize] {
        op.apply(&oracle).expect("oracle op");
    }
    assert_eq!(digest(&recovered), digest(&oracle));
}

#[test]
fn injected_fsync_failure_preserves_acked_prefix() {
    let ops = workload(13, 50);
    let inner = MemVfs::new();
    // Syncs 1..=2 are WAL-header creation; fail the 20th sync overall.
    let vfs = FaultyVfs::new(inner.clone()).fail_sync_at(20);
    let db =
        Database::open_with(Arc::new(vfs.clone()), WalOptions { sync: SyncPolicy::EveryCommit })
            .unwrap();
    let mut acked = Vec::new();
    let mut failed = false;
    for op in &ops {
        match op.apply(&db) {
            Ok(()) => acked.push(op.clone()),
            Err(_) => {
                failed = true;
                break;
            }
        }
    }
    assert!(failed, "the injected fsync failure must surface as an op error");
    assert!(vfs.is_crashed());
    std::mem::forget(db);

    let recovered =
        Database::open_with(Arc::new(inner.crashed_copy()), WalOptions::default()).unwrap();
    // Every acked op survives; the failed op is gone entirely.
    let oracle = Database::new();
    for op in &acked {
        op.apply(&oracle).expect("oracle op");
    }
    assert_eq!(recovered.last_lsn(), acked.len() as u64);
    assert_eq!(digest(&recovered), digest(&oracle));
}

#[test]
fn injected_short_write_tears_the_tail() {
    let ops = workload(17, 50);
    let inner = MemVfs::new();
    // Generous budget: the workload dies somewhere in the middle with
    // a torn final append.
    let vfs = FaultyVfs::new(inner.clone()).crash_after_bytes(2500);
    let db =
        Database::open_with(Arc::new(vfs.clone()), WalOptions { sync: SyncPolicy::EveryCommit })
            .unwrap();
    let mut acked = 0usize;
    for op in &ops {
        if op.apply(&db).is_err() {
            break;
        }
        acked += 1;
    }
    assert!(vfs.is_crashed(), "budget must be exhausted mid-workload");
    assert!(acked < ops.len());
    std::mem::forget(db);

    // The torn record is silently discarded; all acked ops survive.
    let recovered =
        Database::open_with(Arc::new(inner.crashed_copy()), WalOptions::default()).unwrap();
    assert_eq!(recovered.last_lsn(), acked as u64);
    let oracle = Database::new();
    for op in &ops[..acked] {
        op.apply(&oracle).expect("oracle op");
    }
    assert_eq!(digest(&recovered), digest(&oracle));
}

#[test]
fn recovery_truncates_torn_tail_before_new_appends() {
    // Crash with a torn final record, recover, write more, crash
    // fully-synced, recover again: if recovery failed to truncate the
    // torn bytes before appending, the second recovery would see
    // garbage mid-log and refuse. Publicly observable end-to-end.
    let ops = workload(19, 40);
    let base = MemVfs::new();
    {
        let db = open_mem(base.clone(), SyncPolicy::EveryCommit);
        for op in &ops {
            op.apply(&db).expect("op");
        }
    }
    let wal = base.file(WAL_FILE).unwrap();
    let vfs = MemVfs::new();
    vfs.overwrite(WAL_FILE, wal[..wal.len() - 7].to_vec()); // tear the last record

    let db = open_mem(vfs.clone(), SyncPolicy::EveryCommit);
    let n1 = db.last_lsn();
    assert_eq!(n1, ops.len() as u64 - 1);
    db.insert(
        "alpha",
        vec![vec![Value::Int(999_999), Value::Str("post-crash".into()), Value::Null]],
    )
    .expect("insert after recovery");
    drop(db);

    let db2 = open_mem(vfs, SyncPolicy::EveryCommit);
    assert_eq!(db2.last_lsn(), n1 + 1);
    let rs = db2.execute(&alpha_where_id(999_999)).unwrap();
    assert_eq!(rs.rows.len(), 1);
}

#[test]
fn checkpoint_truncates_log_and_tail_replays() {
    let ops = workload(23, 120);
    let vfs = MemVfs::new();
    let db = open_mem(vfs.clone(), SyncPolicy::EveryCommit);
    for op in &ops[..80] {
        op.apply(&db).expect("op");
    }
    let ck_lsn = db.checkpoint().expect("checkpoint");
    assert_eq!(ck_lsn, 80);
    assert!(vfs.file(SNAPSHOT_FILE).is_some());
    // Log was reset to just a header.
    assert_eq!(vfs.file(WAL_FILE).unwrap().len(), 20);
    for op in &ops[80..] {
        op.apply(&db).expect("op");
    }
    drop(db);

    let before = obs::names::WAL_RECOVERED_RECORDS.get();
    let recovered = open_mem(vfs.crashed_copy(), SyncPolicy::EveryCommit);
    let tail_records = obs::names::WAL_RECOVERED_RECORDS.get() - before;
    assert_eq!(recovered.last_lsn(), ops.len() as u64);
    // Only the 40 post-checkpoint transactions replayed (each carries
    // at least one record; other tests may add counts in parallel, so
    // bound from below only via the local delta of this recovery).
    assert!(tail_records >= 40, "tail replay must cover post-checkpoint txns");

    let oracle = Database::new();
    for op in &ops {
        op.apply(&oracle).expect("oracle op");
    }
    assert_eq!(digest(&recovered), digest(&oracle));
}

#[test]
fn crash_between_checkpoint_renames_recovers_everything() {
    let ops = workload(29, 60);
    let inner = MemVfs::new();
    let vfs = FaultyVfs::new(inner.clone());
    let db =
        Database::open_with(Arc::new(vfs.clone()), WalOptions { sync: SyncPolicy::EveryCommit })
            .unwrap();
    for op in &ops {
        op.apply(&db).expect("op");
    }
    // Arm a budget that dies during the checkpoint's fresh-WAL write,
    // after the snapshot was installed: snapshot bytes + header is
    // bigger than snapshot bytes + 3.
    let snap_size = {
        let probe = MemVfs::new();
        let d2 = open_mem(probe.clone(), SyncPolicy::EveryCommit);
        for op in &ops {
            op.apply(&d2).expect("op");
        }
        d2.checkpoint().unwrap();
        probe.file(SNAPSHOT_FILE).unwrap().len() as u64
    };
    let vfs2 = vfs.clone().crash_after_bytes(snap_size + 3);
    assert!(db.checkpoint().is_err(), "checkpoint must die mid-WAL-swap");
    assert!(vfs2.is_crashed());
    std::mem::forget(db);

    // New snapshot installed, old WAL still in place: recovery skips
    // the already-snapshotted transactions and loses nothing.
    let recovered =
        Database::open_with(Arc::new(inner.crashed_copy()), WalOptions::default()).unwrap();
    assert_eq!(recovered.last_lsn(), ops.len() as u64);
    let oracle = Database::new();
    for op in &ops {
        op.apply(&oracle).expect("oracle op");
    }
    assert_eq!(digest(&recovered), digest(&oracle));
}

/// A snapshot older than the log's start has lost the commits between
/// them, so opening must refuse rather than serve it without them.
#[test]
fn a_snapshot_older_than_the_log_is_refused() {
    let vfs = MemVfs::new();
    let db = open_mem(vfs.clone(), SyncPolicy::EveryCommit);
    db.create_table("t", TableSchema::new(vec![Column::new("id", DataType::Int)]))
        .unwrap();
    db.insert("t", vec![vec![Value::Int(1)]]).unwrap();
    db.checkpoint().unwrap();
    let older = vfs.file(SNAPSHOT_FILE).unwrap();
    for id in 2..=3 {
        db.insert("t", vec![vec![Value::Int(id)]]).unwrap();
    }
    db.checkpoint().unwrap();
    drop(db);
    assert_eq!(open_mem(vfs.crashed_copy(), SyncPolicy::EveryCommit).row_count("t").unwrap(), 3);

    vfs.overwrite(SNAPSHOT_FILE, older);
    match Database::open_with(Arc::new(vfs), WalOptions::default()) {
        Err(DbError::Corrupt(msg)) => assert!(msg.contains("lsn"), "{msg}"),
        Err(e) => panic!("expected Corrupt, got {e}"),
        Ok(db) => panic!("opened with {} of 3 acked rows", db.row_count("t").unwrap()),
    }
}

/// Where `needle` first occurs in `haystack`.
fn find(haystack: &[u8], needle: &[u8]) -> usize {
    haystack
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("marker present")
}

/// Swap the `@@` marker in a log-format file (the WAL or a snapshot)
/// for bytes that are not UTF-8 and re-seal the payload checksum of the
/// frame holding it, so only the text is wrong. Frames follow the
/// 20-byte header: u32 len | u32 crc32(len) | u32 crc32(payload) |
/// payload.
fn break_utf8(file: &mut [u8]) {
    let at = find(file, b"@@");
    file[at..at + 2].copy_from_slice(&[0xff, 0xfe]);
    let mut off = 20;
    loop {
        let len = u32::from_le_bytes(file[off..off + 4].try_into().unwrap()) as usize;
        let payload = off + 12..off + 12 + len;
        if payload.contains(&at) {
            let crc = minidb::wal::crc32(&file[payload]);
            file[off + 8..off + 12].copy_from_slice(&crc.to_le_bytes());
            return;
        }
        off = payload.end;
    }
}

/// Open `vfs` and require a `Corrupt` error mentioning `needle`.
fn assert_refused(vfs: MemVfs, needle: &str) {
    match Database::open_with(Arc::new(vfs), WalOptions::default()) {
        Err(DbError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
        Err(e) => panic!("expected Corrupt, got {e}"),
        Ok(db) => panic!("opened with {} CLOBs", db.begin_read().clobs().len()),
    }
}

/// A WAL whose `ClobPut` holds bytes that are not UTF-8 fails recovery,
/// instead of opening and failing whichever reply reaches that CLOB.
#[test]
fn a_wal_clob_that_is_not_utf8_is_refused() {
    let vfs = MemVfs::new();
    let db = open_mem(vfs.clone(), SyncPolicy::EveryCommit);
    let mut t = db.txn();
    t.put_clobs(&["<x>@@</x>"]);
    t.commit().unwrap();
    drop(db);
    let mut log = vfs.file(WAL_FILE).unwrap();
    break_utf8(&mut log);
    vfs.overwrite(WAL_FILE, log);
    assert_refused(vfs, "UTF-8");
}

/// A snapshot whose CLOB holds bytes that are not UTF-8 is refused on
/// open, like any other corrupt snapshot.
#[test]
fn a_snapshot_clob_that_is_not_utf8_is_refused() {
    let vfs = MemVfs::new();
    let db = open_mem(vfs.clone(), SyncPolicy::EveryCommit);
    let mut t = db.txn();
    t.put_clobs(&["<x>1</x>", "<x>@@</x>"]);
    t.commit().unwrap();
    db.checkpoint().unwrap();
    drop(db);
    let mut snap = vfs.file(SNAPSHOT_FILE).unwrap();
    break_utf8(&mut snap);
    vfs.overwrite(SNAPSHOT_FILE, snap);
    assert_refused(vfs, "UTF-8");
}

/// A directory in the format before version 2 (a version-1 log, an
/// `MDB1` snapshot) is refused, naming what was found, never replayed
/// as if it were the new format.
#[test]
fn a_directory_in_the_old_format_is_refused() {
    // A version-1 log header: "MWL1" | u32 1 | u64 base_lsn 1 | crc32.
    let mut v1 = [&b"MWL1"[..], &1u32.to_le_bytes(), &1u64.to_le_bytes()].concat();
    let crc = minidb::wal::crc32(&v1);
    v1.extend_from_slice(&crc.to_le_bytes());
    let vfs = MemVfs::new();
    vfs.overwrite(WAL_FILE, v1);
    assert_refused(vfs, "version 1");

    // An `MDB1` snapshot of an empty database: magic | u32 version 2 |
    // u64 lsn | u32 no tables | u64 no CLOBs | crc32 trailer, beside
    // a valid log.
    let mut mdb1 =
        [&b"MDB1"[..], &2u32.to_le_bytes(), &0u64.to_le_bytes(), &0u32.to_le_bytes(), &[0; 8]]
            .concat();
    let crc = minidb::wal::crc32(&mdb1);
    mdb1.extend_from_slice(&crc.to_le_bytes());
    let vfs = MemVfs::new();
    drop(open_mem(vfs.clone(), SyncPolicy::EveryCommit));
    vfs.overwrite(SNAPSHOT_FILE, mdb1);
    assert_refused(vfs, "MDB1");
}

#[test]
fn std_vfs_roundtrip_on_disk() {
    let dir = std::env::temp_dir().join(format!("minidb-waldir-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ops = workload(31, 40);
    {
        let db = Database::open(&dir).unwrap();
        for op in &ops {
            op.apply(&db).expect("op");
        }
        db.checkpoint().unwrap();
        db.insert("alpha", vec![vec![Value::Int(-7), Value::Null, Value::Null]])
            .unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.last_lsn(), ops.len() as u64 + 1);
        let rs = db.execute(&alpha_where_id(-7)).unwrap();
        assert_eq!(rs.rows.len(), 1);
        let oracle = Database::new();
        for op in &ops {
            op.apply(&oracle).expect("oracle op");
        }
        oracle
            .insert("alpha", vec![vec![Value::Int(-7), Value::Null, Value::Null]])
            .unwrap();
        assert_eq!(digest(&db), digest(&oracle));
    }
    // StdVfs implements the full trait surface used above.
    let std_vfs = StdVfs::new(&dir).unwrap();
    assert!(std_vfs.exists(WAL_FILE));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn second_open_of_a_live_directory_is_refused() {
    let dir = std::env::temp_dir().join(format!("minidb-waldir-lock-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = Database::open(&dir).unwrap();
    db.create_table("t", TableSchema::new(vec![Column::new("id", DataType::Int)]))
        .unwrap();
    // A second opener would truncate and append to the live WAL; it
    // must be refused, naming the directory, and leave the first intact.
    let err = Database::open(&dir).err().expect("second open of a live directory must fail");
    assert!(matches!(&err, DbError::Locked(d) if d.contains("minidb-waldir-lock")), "{err}");
    db.insert("t", vec![vec![Value::Int(1)]]).unwrap();
    drop(db);
    // Dropping the first handle releases the lock.
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.row_count("t").unwrap(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A [`StdVfs`] whose next rename over `wal.log`, once armed, lands and
/// then reports an error, as a failed directory fsync does. On a real
/// directory the old log handle then writes to an unlinked file;
/// [`MemVfs`] handles follow names, so they cannot show that.
struct LogSwapFails {
    inner: StdVfs,
    armed: AtomicBool,
}

impl Vfs for LogSwapFails {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn create(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        self.inner.create(name)
    }

    fn open_append(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        self.inner.open_append(name)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)?;
        if to == WAL_FILE && self.armed.swap(false, Ordering::SeqCst) {
            return Err(DbError::Io("injected: directory fsync failed".into()));
        }
        Ok(())
    }

    fn set_len(&self, name: &str, len: u64) -> Result<()> {
        self.inner.set_len(name, len)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
}

/// Open `dir` holding table `t` with row 1, then run a checkpoint whose
/// log swap lands but reports an error.
fn fail_a_log_swap(dir: &std::path::Path) -> Database {
    std::fs::remove_dir_all(dir).ok();
    let vfs = Arc::new(LogSwapFails { inner: StdVfs::new(dir).unwrap(), armed: false.into() });
    let db = Database::open_with(vfs.clone(), WalOptions::default()).unwrap();
    db.create_table("t", TableSchema::new(vec![Column::new("id", DataType::Int)]))
        .unwrap();
    db.insert("t", vec![vec![Value::Int(1)]]).unwrap();
    vfs.armed.store(true, Ordering::SeqCst);
    db.checkpoint().expect_err("the injected rename error surfaces");
    db
}

/// The ids in `t` of the database reopened from `dir`.
fn reopened_ids(dir: &std::path::Path) -> Vec<i64> {
    let db = Database::open(dir).unwrap();
    let rs = db.execute(&Plan::Scan { table: "t".into(), filter: None }).unwrap();
    let mut ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    ids.sort();
    ids
}

/// Every commit acked after a checkpoint failed between its log rename
/// and reopening the log is in the reopened database: none went to the
/// replaced, unlinked file.
#[test]
fn a_failed_log_swap_loses_no_acked_commit() {
    let dir = std::env::temp_dir().join(format!("minidb-waldir-swap-{}", std::process::id()));
    let db = fail_a_log_swap(&dir);
    let mut acked = vec![1];
    for id in 2..=4 {
        if db.insert("t", vec![vec![Value::Int(id)]]).is_ok() {
            acked.push(id);
        }
    }
    drop(db);
    assert_eq!(reopened_ids(&dir), acked);
    std::fs::remove_dir_all(&dir).ok();
}

/// After a failed log swap, commits and checkpoints are refused until
/// the database is reopened: a checkpoint would otherwise snapshot the
/// ops of a refused commit, which stay in memory (a `Txn` keeps no
/// undo), and make them durable.
#[test]
fn a_failed_log_swap_refuses_commits_and_checkpoints() {
    let dir = std::env::temp_dir().join(format!("minidb-waldir-refuse-{}", std::process::id()));
    let db = fail_a_log_swap(&dir);
    db.insert("t", vec![vec![Value::Int(2)]]).expect_err("no log to append to");
    db.checkpoint().expect_err("no log to swap");
    drop(db);
    assert_eq!(reopened_ids(&dir), [1]);
    std::fs::remove_dir_all(&dir).ok();
}

/// The one fault a [`FailOnce`] injects when armed.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    /// The next append lands the first half of its bytes, then errors.
    ShortWrite,
    /// The next fsync errors.
    Fsync,
}

/// A [`StdVfs`] whose next append or fsync, once armed, fails once;
/// every call after it works again, as a disk that recovers from a
/// transient error would. [`FaultyVfs`] stays down after its first
/// fault, so it cannot show a writer that goes on after one.
#[derive(Clone)]
struct FailOnce {
    inner: Arc<StdVfs>,
    armed: Arc<Mutex<Option<Fault>>>,
}

impl FailOnce {
    fn new(dir: &std::path::Path) -> FailOnce {
        FailOnce { inner: Arc::new(StdVfs::new(dir).unwrap()), armed: Default::default() }
    }

    fn arm(&self, fault: Fault) {
        *self.armed.lock().unwrap() = Some(fault);
    }

    fn wrap(&self, name: &str, file: Box<dyn DurableFile>) -> Box<dyn DurableFile> {
        Box::new(FailOnceFile { inner: file, name: name.into(), armed: self.armed.clone() })
    }
}

struct FailOnceFile {
    inner: Box<dyn DurableFile>,
    name: String,
    armed: Arc<Mutex<Option<Fault>>>,
}

impl FailOnceFile {
    /// Is `fault` armed? Disarms it if so.
    fn fires(&self, fault: Fault) -> bool {
        let mut armed = self.armed.lock().unwrap();
        let fires = *armed == Some(fault);
        if fires {
            *armed = None;
        }
        fires
    }
}

impl DurableFile for FailOnceFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        if self.fires(Fault::ShortWrite) {
            self.inner.append(&data[..data.len() / 2])?;
            return Err(DbError::Io(format!("append {}: injected short write", self.name)));
        }
        self.inner.append(data)
    }

    fn sync(&mut self) -> Result<()> {
        if self.fires(Fault::Fsync) {
            return Err(DbError::Io(format!("fsync {}: injected failure", self.name)));
        }
        self.inner.sync()
    }
}

impl Vfs for FailOnce {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn create(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        Ok(self.wrap(name, self.inner.create(name)?))
    }

    fn open_append(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        Ok(self.wrap(name, self.inner.open_append(name)?))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }

    fn set_len(&self, name: &str, len: u64) -> Result<()> {
        self.inner.set_len(name, len)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
}

/// Open `dir` holding table `t` with row 1 acked, arm `fault`, then
/// insert rows 2 to 4 and checkpoint. Asserts that the faulted insert,
/// both later ones and the checkpoint fail, the later refusals naming
/// the failed write of `wal.log` and asking for a reopen. Returns the
/// length of `wal.log` before the fault.
fn fail_a_log_write(dir: &std::path::Path, fault: Fault) -> u64 {
    std::fs::remove_dir_all(dir).ok();
    let vfs = FailOnce::new(dir);
    let db = Database::open_with(Arc::new(vfs.clone()), WalOptions::default()).unwrap();
    db.create_table("t", TableSchema::new(vec![Column::new("id", DataType::Int)]))
        .unwrap();
    db.insert("t", vec![vec![Value::Int(1)]]).unwrap();
    let logged = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    vfs.arm(fault);
    let acked: Vec<i64> = (2..=4)
        .filter(|&id| db.insert("t", vec![vec![Value::Int(id)]]).is_ok())
        .collect();
    assert!(acked.is_empty(), "{fault:?}: inserts {acked:?} acked after the failed log write");
    let cause = match fault {
        Fault::ShortWrite => "append wal.log: injected short write",
        Fault::Fsync => "fsync wal.log: injected failure",
    };
    let refusals = [
        db.insert("t", vec![vec![Value::Int(5)]]).map(|_| ()).unwrap_err(),
        db.checkpoint().map(|_| ()).unwrap_err(),
    ];
    for err in refusals {
        let msg = err.to_string();
        assert!(msg.contains(cause) && msg.contains("reopen"), "{fault:?}: {msg}");
    }
    drop(db);
    logged
}

/// A short write of `wal.log` stops the writer: no later commit or
/// checkpoint is acked, and the reopened database holds exactly the
/// acked commits, the torn frame truncated off the log.
#[test]
fn a_short_log_write_stops_the_writer() {
    let dir = std::env::temp_dir().join(format!("minidb-waldir-short-{}", std::process::id()));
    let logged = fail_a_log_write(&dir, Fault::ShortWrite);
    assert_eq!(reopened_ids(&dir), [1]);
    assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), logged);
    std::fs::remove_dir_all(&dir).ok();
}

/// A failed fsync of `wal.log` stops the writer: no later commit or
/// checkpoint is acked. The failed commit's bytes may have reached the
/// disk anyway, so the reopened database may hold it, but nothing after.
#[test]
fn a_failed_log_fsync_stops_the_writer() {
    let dir = std::env::temp_dir().join(format!("minidb-waldir-fsync-{}", std::process::id()));
    fail_a_log_write(&dir, Fault::Fsync);
    let ids = reopened_ids(&dir);
    assert!(ids == [1] || ids == [1, 2], "{ids:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The log format in bytes: a fixed run of transactions on a [`MemVfs`]
/// — DDL, a two-row insert, a two-part and an empty CLOB put beside an
/// insert the unique index refuses, a delete — writes a `wal.log` of a
/// pinned length and CRC32, so any change to the bytes a commit logs
/// (existing directories must keep opening) fails here.
#[test]
fn the_log_of_a_fixed_workload_is_byte_identical() {
    let vfs = MemVfs::new();
    let db = open_mem(vfs.clone(), SyncPolicy::EveryCommit);
    let mut t = db.txn();
    t.create_table("t", table_schema()).unwrap();
    t.create_index("t", "t_pk", &["id"], true).unwrap();
    t.commit().unwrap();
    let row = |id: i64, tag: Value, doc: Value| vec![Value::Int(id), tag, doc];
    db.insert("t", vec![row(1, "a".into(), Value::Null), row(2, Value::Null, Value::Null)])
        .unwrap();
    let mut t = db.txn();
    let locs = t.put_clobs(&["<a>1</a>", "<b>ü</b>"]);
    t.put_clobs::<&str>(&[]);
    let doc = Value::Int(locs.start as i64);
    t.insert("t", vec![row(1, "dup".into(), Value::Null)])
        .expect_err("id 1 is taken");
    t.insert("t", vec![row(3, "doc".into(), doc)]).unwrap();
    t.commit().unwrap();
    db.delete_where("t", &Expr::col_eq(0, 2)).unwrap();
    drop(db);
    let log = vfs.file(WAL_FILE).unwrap();
    assert_eq!((log.len(), minidb::wal::crc32(&log)), (429, 0xEE53_5658));
}

/// A delete whose predicate fails on the second row changes no row: in
/// memory, after a crash and recovery from the WAL, and after a
/// checkpoint and a reopen (a checkpoint snapshots memory, so a row
/// changed there would become durable although the delete reported
/// failure).
#[test]
fn delete_failing_on_a_later_row_changes_no_row() {
    let vfs = MemVfs::new();
    let db = open_mem(vfs.clone(), SyncPolicy::EveryCommit);
    let schema = TableSchema::new(vec![
        Column::new("id", DataType::Int),
        Column::nullable("name", DataType::Text),
        Column::nullable("n", DataType::Int),
    ]);
    db.create_table("t", schema).unwrap();
    db.insert(
        "t",
        vec![vec![1.into(), "a".into(), 5.into()], vec![2.into(), "x".into(), 5.into()]],
    )
    .unwrap();
    let rows = |db: &Database| {
        db.execute(&Plan::Scan { table: "t".into(), filter: None }).expect("scan").rows
    };
    let before = rows(&db);
    // `id = 1` decides the first row before the right-hand side runs;
    // on the second row the out-of-range column fails.
    let pred = Expr::Or(
        Box::new(Expr::col_eq(0, 1)),
        Box::new(Expr::Cmp(CmpOp::Eq, Box::new(Expr::col(99)), Box::new(Expr::lit(2)))),
    );
    let err = db.delete_where("t", &pred).expect_err("the delete fails on the second row");
    assert!(err.to_string().contains("out of range"), "{err}");
    assert_eq!(rows(&db), before, "in memory");
    assert_eq!(rows(&open_mem(vfs.crashed_copy(), SyncPolicy::EveryCommit)), before, "recovered");
    db.checkpoint().unwrap();
    drop(db);
    assert_eq!(rows(&open_mem(vfs, SyncPolicy::EveryCommit)), before, "after a checkpoint");
}

/// Seeded documents for the CLOB-layout tests: each is 1–6 parts, an
/// element with 0–`max_part` bytes of text, stored by one `put_clobs`.
fn clob_docs(seed: u64, n: usize, max_part: usize) -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|d| {
            (0..rng.gen_range(1..=6usize))
                .map(|p| {
                    let len = rng.gen_range(0..=max_part);
                    format!("<f d='{d}' p='{p}'>{}</f>", "x".repeat(len))
                })
                .collect()
        })
        .collect()
}

fn layout_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC10B)
}

/// Store each document as one transaction: one put of its parts and a
/// row locating the first. Returns each document's locators.
fn put_docs(db: &Database, docs: &[Vec<String>]) -> Vec<std::ops::Range<u64>> {
    if !db.has_table("docs") {
        db.create_table("docs", table_schema()).unwrap();
    }
    docs.iter()
        .map(|parts| {
            let mut t = db.txn();
            let locs = t.put_clobs(parts);
            let row =
                vec![Value::Int(locs.start as i64), Value::Null, Value::Int(locs.start as i64)];
            t.insert("docs", vec![row]).unwrap();
            t.commit().unwrap();
            locs
        })
        .collect()
}

/// Places where consecutive non-empty CLOBs among `locs` do not sit
/// back to back in memory (an empty CLOB owns no bytes and is skipped).
/// The CLOBs of one buffer always do; two buffers may happen to as
/// well, so this counts at most the buffer boundaries crossed.
fn breaks(db: &Database, locs: std::ops::Range<u64>) -> usize {
    let rt = db.begin_read();
    let handles: Vec<_> =
        locs.map(|l| rt.clobs().get(l).unwrap()).filter(|b| !b.is_empty()).collect();
    handles
        .windows(2)
        .filter(|w| w[0].as_ptr().wrapping_add(w[0].len()) != w[1].as_ptr())
        .count()
}

fn assert_contents(db: &Database, docs: &[Vec<String>], locs: &[std::ops::Range<u64>]) {
    let rt = db.begin_read();
    for (parts, locs) in docs.iter().zip(locs) {
        assert_eq!(locs.end - locs.start, parts.len() as u64);
        for (part, loc) in parts.iter().zip(locs.clone()) {
            assert_eq!(rt.clobs().get(loc).unwrap(), part, "locator {loc}");
        }
    }
}

#[test]
fn one_put_clobs_is_one_buffer() {
    let docs = clob_docs(layout_seed(), 30, 300);
    let db = Database::new();
    let locs = put_docs(&db, &docs);
    assert_contents(&db, &docs, &locs);
    assert_eq!(db.begin_read().clobs().buffers(), docs.len());
    for l in &locs {
        assert_eq!(breaks(&db, l.clone()), 0, "document at {l:?} spans buffers");
    }
}

#[test]
fn wal_replay_rebuilds_one_buffer_per_put() {
    let docs = clob_docs(layout_seed() ^ 1, 40, 300);
    let vfs = MemVfs::new();
    let db = open_mem(vfs.clone(), SyncPolicy::EveryCommit);
    let locs = put_docs(&db, &docs);
    // Two puts in one transaction, split by an insert, stay two
    // buffers on replay.
    let mut t = db.txn();
    let a = t.put_clobs(&["<a>1</a>", "<a>2</a>"]);
    t.insert("docs", vec![vec![Value::Int(-1), Value::Null, Value::Null]]).unwrap();
    t.put_clobs(&["<b>1</b>"]);
    t.commit().unwrap();
    let image = digest(&db);
    drop(db);

    let recovered = open_mem(vfs.crashed_copy(), SyncPolicy::EveryCommit);
    assert_eq!(digest(&recovered), image);
    assert_contents(&recovered, &docs, &locs);
    assert_eq!(recovered.begin_read().clobs().buffers(), docs.len() + 2);
    for l in locs.iter().chain([&a]) {
        assert_eq!(breaks(&recovered, l.clone()), 0, "document at {l:?} spans buffers");
    }
}

#[test]
fn checkpoint_reopen_keeps_each_documents_clobs_adjacent() {
    let docs = clob_docs(layout_seed() ^ 2, 120, 1200);
    let (snapped, tail) = docs.split_at(100);
    let vfs = MemVfs::new();
    let db = open_mem(vfs.clone(), SyncPolicy::EveryCommit);
    let mut locs = put_docs(&db, snapped);
    db.checkpoint().unwrap();
    locs.extend(put_docs(&db, tail));
    let image = digest(&db);
    drop(db);

    let reopened = open_mem(vfs.crashed_copy(), SyncPolicy::EveryCommit);
    assert_eq!(digest(&reopened), image);
    assert_contents(&reopened, &docs, &locs);
    // Snapshotted and WAL-replayed documents alike: one buffer each.
    assert_eq!(reopened.begin_read().clobs().buffers(), docs.len());
    for l in &locs {
        assert_eq!(breaks(&reopened, l.clone()), 0, "document at {l:?} spans buffers");
    }
}
