//! Deterministic fault-injection tests for the WAL durability layer.
//!
//! The headline test runs a ≥200-operation workload against a durable
//! in-memory database, then simulates a crash at **every byte offset**
//! of the resulting WAL and asserts that recovery yields exactly the
//! committed prefix — checked against an uncrashed oracle database
//! that replayed only the committed operations. Companion tests cover
//! torn-tail discard vs. hard corruption, group-commit loss windows,
//! injected fsync failures and short writes, and checkpoint tail
//! replay.

use minidb::prelude::*;
use minidb::wal::{
    FaultyVfs, MemVfs, StdVfs, SyncPolicy, Vfs, WalOptions, SNAPSHOT_FILE, WAL_FILE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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
    Update {
        table: String,
        pred: Expr,
        set_col: usize,
        set_to: String,
    },
    Truncate(String),
    /// A multi-record transaction: put a CLOB and insert rows that
    /// reference its locator, atomically.
    IngestLike {
        table: String,
        doc: Vec<u8>,
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
            Op::Update { table, pred, set_col, set_to } => db
                .update_where(table, Some(pred), &[(*set_col, Expr::lit(set_to.clone()))])
                .map(|_| ()),
            Op::Truncate(table) => db.truncate_table(table).map(|_| ()),
            Op::IngestLike { table, doc, id } => {
                let mut t = db.txn();
                let loc = t.put_clob(doc.clone());
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
/// deletes, updates, occasional truncates, index creation, and
/// multi-record ingest-like transactions.
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
                Op::IngestLike {
                    table,
                    doc: format!("<doc id='{next_id}'/>").into_bytes(),
                    id: next_id - 2,
                }
            }
            65..=79 => {
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
            80..=92 => Op::Update {
                table,
                pred: Expr::col_eq(1, format!("t{}", rng.gen_range(0..10u32))),
                set_col: 1,
                set_to: format!("u{}", rng.gen_range(0..5u32)),
            },
            93..=95 => {
                n_idx += 1;
                Op::CreateIndex { table, name: format!("idx_{n_idx}") }
            }
            _ => Op::Truncate(table),
        };
        ops.push(op);
    }
    ops
}

/// Full state digest via the snapshot codec: table names, schemas,
/// index definitions, live rows, and the CLOB heap.
fn digest(db: &Database) -> Vec<u8> {
    db.state_image().expect("state image")
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
    let rs = db2.execute_sql("SELECT tag FROM alpha WHERE id = 999999").unwrap();
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

    let before = obs::global().counter("wal.recovered_records").get();
    let recovered = open_mem(vfs.crashed_copy(), SyncPolicy::EveryCommit);
    let tail_records = obs::global().counter("wal.recovered_records").get() - before;
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
        let rs = db.execute_sql("SELECT id FROM alpha WHERE id = -7").unwrap();
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
