//! Deterministic fault-injection tests for the WAL durability layer.
//!
//! The headline test runs a ≥200-operation workload against a durable
//! in-memory database, then simulates a crash at **every byte offset**
//! of the resulting WAL and asserts that recovery yields exactly the
//! committed prefix — checked against an uncrashed oracle database
//! that replayed only the committed operations. A second sweep fails
//! every write-side call of a workload with checkpoints in turn, with
//! every [`Fault`] of a [`FaultyVfs`], once or for good, and checks the
//! log's failure rule and the state a reopen finds. Companion tests
//! cover torn-tail discard vs. hard corruption (a CLOB that is not
//! UTF-8, in the log or in the snapshot, among it), group-commit loss
//! windows, checkpoint tail replay, the CLOB layout across a restart,
//! the refusal of directories in the format before version 2, the log
//! bytes of a fixed workload, and, on a real directory, the `StdVfs`
//! round trip and its lock.

use minidb::prelude::*;
use minidb::vfs::{Call, Fault, FaultyVfs, Lasting, MemVfs, StdVfs, Vfs};
use minidb::wal::{SyncPolicy, WalOptions, SNAPSHOT_FILE, WAL_FILE};
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

/// `PROPTEST_SEED` from the environment, or `default`: CI runs these
/// suites under a fixed and a randomized seed.
fn env_seed(default: u64) -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn open_mem(vfs: MemVfs, sync: SyncPolicy) -> Database {
    Database::open_with(Arc::new(vfs), WalOptions { sync }).expect("open durable db")
}

#[test]
fn exhaustive_crash_points_recover_committed_prefix() {
    let seed = env_seed(0xC0FFEE);
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

/// One step of the fault sweep's workload.
enum Step {
    /// Commit one workload op.
    Commit(Op),
    Checkpoint,
}

impl Step {
    fn run(&self, db: &Database) -> Result<()> {
        match self {
            Step::Commit(op) => op.apply(db),
            Step::Checkpoint => db.checkpoint().map(|_| ()),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Step::Commit(_) => "commit",
            Step::Checkpoint => "checkpoint",
        }
    }
}

/// A directory the sweep opens, then runs `steps` on. `acked` of the
/// workload's ops are committed in it; the steps' ops follow them.
struct Start {
    name: &'static str,
    dir: MemVfs,
    acked: usize,
    steps: Vec<Step>,
}

/// `ops` as steps, with a checkpoint after every third.
fn with_checkpoints(ops: &[Op]) -> Vec<Step> {
    let mut steps = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        steps.push(Step::Commit(op.clone()));
        if i % 3 == 2 {
            steps.push(Step::Checkpoint);
        }
    }
    steps
}

/// The sweep's two starting directories over `ops`: an empty one, whose
/// open writes a fresh log, and one holding a snapshot of `ops[..2]`
/// and a log with `ops[2]` committed and `ops[3]` torn, whose open
/// truncates the log. Each runs ten ops with three checkpoints.
fn sweep_starts(ops: &[Op]) -> [Start; 2] {
    let torn = MemVfs::new();
    let db = open_mem(torn.clone(), SyncPolicy::EveryCommit);
    for (i, op) in ops[..4].iter().enumerate() {
        op.apply(&db).expect("op");
        if i == 1 {
            db.checkpoint().expect("checkpoint");
        }
    }
    drop(db);
    let wal = torn.file(WAL_FILE).unwrap();
    torn.overwrite(WAL_FILE, wal[..wal.len() - 7].to_vec());
    [
        Start { name: "empty", dir: MemVfs::new(), acked: 0, steps: with_checkpoints(&ops[..10]) },
        Start { name: "torn", dir: torn, acked: 3, steps: with_checkpoints(&ops[3..13]) },
    ]
}

/// The text of `e` as the writer keeps it when `e` stops it.
fn io_message(e: &DbError) -> String {
    match e {
        DbError::Io(m) => m.clone(),
        e => e.to_string(),
    }
}

/// Every call index × fault × {transient, fatal} over a fixed workload
/// with checkpoints, from an empty and from a torn directory, against
/// the failure rule:
///
/// - a fault on a `wal.log` append or fsync, or anywhere in a
///   checkpoint's log swap (rename to `wal.log` through reopening it),
///   fails its step and stops the writer: every later commit and
///   checkpoint is refused, naming the fault and asking for a reopen;
/// - a fault on `snapshot.tmp`, its rename, or `wal.tmp` before its
///   rename fails the checkpoint and leaves `wal.log` as it was; after
///   a transient one, every later step is acked;
/// - a fault inside `open_with` fails the open.
///
/// Then a reopen from a crash of the file system, and after a transient
/// fault also from the live one, finds exactly the acked ops, or those
/// and the one whose fsync failed; after a failed append, `wal.log` is
/// back at its length before it.
#[test]
fn every_call_fault_keeps_exactly_the_acked_state() {
    let seed = env_seed(0x5EED);
    let ops = workload(seed, 13);
    // `images[k]`: the state after the first `k` ops.
    let oracle = Database::new();
    let mut images = vec![digest(&oracle)];
    for op in &ops {
        op.apply(&oracle).expect("oracle op");
        images.push(digest(&oracle));
    }
    let mut cases = 0;
    for start in sweep_starts(&ops) {
        let clean = FaultyVfs::new(start.dir.crashed_copy());
        let db = Database::open_with(Arc::new(clean.clone()), WalOptions::default()).unwrap();
        for step in &start.steps {
            step.run(&db)
                .unwrap_or_else(|e| panic!("seed {seed}, {} start: {e}", start.name));
        }
        drop(db);
        for fault in Fault::ALL {
            for nth in 1..=clean.calls(fault.call()) {
                for lasting in [Lasting::Transient, Lasting::Fatal] {
                    sweep_case(seed, &start, &images, fault, nth, lasting);
                    cases += 1;
                }
            }
        }
    }
    assert!(cases > 250, "seed {seed}: only {cases} cases");
}

/// What a sweep step must do.
enum Expect {
    /// Succeed: no fault yet, or a transient one the writer outlived.
    Ack,
    /// Fail naming the cause that stopped the writer and asking for a
    /// reopen.
    Refused(String),
    /// Fail: a fatal fault left the file system down.
    Down,
}

/// One sweep case: run `start` with `fault` armed at call `nth` of its
/// kind, then check the failure rule (see the sweep's docs).
fn sweep_case(
    seed: u64,
    start: &Start,
    images: &[Vec<u8>],
    fault: Fault,
    nth: u64,
    lasting: Lasting,
) {
    let case = format!(
        "seed {seed}, {} start, {fault:?} at call {nth} of {:?}, {lasting:?}",
        start.name,
        fault.call()
    );
    let vfs = FaultyVfs::new(start.dir.crashed_copy()).fail(fault, nth, lasting);
    let db = match Database::open_with(Arc::new(vfs.clone()), WalOptions::default()) {
        Ok(db) => db,
        Err(e) => {
            assert!(vfs.fired().is_some(), "{case}: open failed with no fault: {e}");
            return check_reopens(&vfs, lasting, images, start.acked, false, None, &case);
        }
    };
    assert_eq!(vfs.fired(), None, "{case}: open succeeded through its fault");
    let mut acked = start.acked;
    let mut expect = Expect::Ack;
    let (mut unknown, mut cut_to) = (false, None);
    for (i, step) in start.steps.iter().enumerate() {
        let at = format!("{case}, step {i} ({})", step.label());
        let log_before = vfs.inner().file(WAL_FILE).expect("wal.log");
        let stops_before = obs::names::WAL_WRITER_STOPS.get();
        let fired_before = vfs.fired().is_some();
        let result = step.run(&db);
        if !fired_before && vfs.fired().is_some() {
            let err = result.expect_err(&format!("{at}: acked through its fault"));
            if vfs.fired().as_deref() == Some(WAL_FILE) {
                let stops = obs::names::WAL_WRITER_STOPS.get();
                assert!(stops > stops_before, "{at}: wal.writer_stops did not rise");
                unknown = fault == Fault::FailedSync && matches!(step, Step::Commit(_));
                if fault.call() == Call::Append {
                    cut_to = Some(log_before.len());
                }
                expect = Expect::Refused(io_message(&err));
            } else {
                assert!(matches!(step, Step::Checkpoint), "{at}: {err}");
                let log = vfs.inner().file(WAL_FILE);
                assert!(log == Some(log_before), "{at}: the failed checkpoint wrote wal.log");
                if lasting == Lasting::Fatal {
                    expect = Expect::Down;
                }
            }
            continue;
        }
        match &expect {
            Expect::Ack => {
                result.unwrap_or_else(|e| panic!("{at}: refused: {e}"));
                if let Step::Commit(_) = step {
                    acked += 1;
                }
            }
            Expect::Refused(cause) => {
                let msg =
                    result.expect_err(&format!("{at}: acked by a stopped writer")).to_string();
                assert!(msg.contains(cause.as_str()) && msg.contains("reopen"), "{at}: {msg}");
            }
            Expect::Down => assert!(result.is_err(), "{at}: acked on a file system that is down"),
        }
    }
    assert!(vfs.fired().is_some(), "{case}: the fault never fired");
    drop(db);
    check_reopens(&vfs, lasting, images, acked, unknown, cut_to, &case);
}

/// Reopen `vfs` after a crash and, after a `Transient` fault, as it is
/// live: each must hold the first `acked` ops (or one more when
/// `unknown`) at the LSN of its last op, since every op is one commit,
/// and `wal.log` must be `cut_to` bytes long when given. The LSN check
/// covers a checkpoint that failed after its snapshot rename, where the
/// new snapshot sits beside the old log: a reopen that resumed at an
/// LSN the snapshot already holds would hand it out again, and a later
/// replay would skip the commit that reused it.
fn check_reopens(
    vfs: &FaultyVfs,
    lasting: Lasting,
    images: &[Vec<u8>],
    acked: usize,
    unknown: bool,
    cut_to: Option<usize>,
    case: &str,
) {
    let crashed = vfs.inner().crashed_copy();
    let mut dirs: Vec<(&str, Arc<dyn Vfs>, &MemVfs)> =
        vec![("crashed", Arc::new(crashed.clone()), &crashed)];
    if lasting == Lasting::Transient {
        dirs.push(("live", Arc::new(vfs.clone()), vfs.inner()));
    }
    for (from, dir, files) in dirs {
        let db = Database::open_with(dir, WalOptions::default())
            .unwrap_or_else(|e| panic!("{case}: reopen from the {from} file system: {e}"));
        let image = digest(&db);
        let lsn = db.last_lsn();
        // An op can leave the state as it was (a delete that matches
        // nothing), so the image may fit both counts; the LSN must fit
        // one that the image fits.
        let fits = |n: usize| images[n] == image && lsn == n as u64;
        let first = images.iter().position(|i| *i == image);
        assert!(
            fits(acked) || (unknown && fits(acked + 1)),
            "{case}: reopen from the {from} file system holds {first:?} ops at LSN {lsn}, \
             not {acked}"
        );
        if let Some(len) = cut_to {
            let log = files.file(WAL_FILE).expect("wal.log").len();
            assert_eq!(log, len, "{case}: reopen from the {from} file system left wal.log uncut");
        }
    }
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
    assert!(std_vfs.read(WAL_FILE).unwrap().is_some());
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
    env_seed(0xC10B)
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
