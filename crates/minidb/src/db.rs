//! The database: a named-table catalog, CLOB heap, and plan executor.
//!
//! Concurrency model: one lock owns the database. The tables and the
//! CLOB heap live together in one `State` behind the *commit-visibility
//! gate*, an `RwLock<State>`; tables and the heap have no locks of
//! their own. Every [`Txn`] holds the gate exclusively from its start
//! to its commit and mutates through it; every plan execution, every
//! [`Database`]-level read and every [`Database::begin_read`] batch
//! holds it shared and reads `&Table` straight from it. A transaction
//! that touches several tables (or puts CLOBs and inserts the rows that
//! locate them) therefore becomes visible to readers *atomically at
//! commit* — a concurrent query can never observe a half-applied write.
//! That promise covers committed transactions only: a `Txn` applies each
//! op to the shared state as it goes and keeps no undo, so the ops before
//! one that fails, or before a failed WAL append or fsync in
//! [`Txn::commit`], stay visible although nothing was logged. A failed
//! append or fsync stops the WAL writer, so no later commit or
//! checkpoint can make those ops durable; reopening drops them. A delete
//! that fails on its predicate changes no row: it collects its victims
//! through the access path ([`crate::access`]) before the first change.
//! A transaction's ops are table and index creation, inserts, deletes
//! by predicate and CLOB puts; no op rewrites a row in place.
//! Committed transactions publish a monotonically increasing
//! *watermark* ([`Database::commit_watermark`]) that readers can use to
//! tell snapshots apart.
//!
//! Lock order is `WAL writer → gate` (a caller above the engine, such
//! as the catalog's definition registry, comes before both). The gate
//! is not re-entrant: a thread that holds a [`Txn`] or [`ReadTxn`] must
//! read through it, never through another `Database` method — a second
//! shared hold deadlocks as soon as a writer queues between the two,
//! because the gate prefers writers. Debug builds panic with "visibility
//! gate re-entered" instead of taking the gate twice.

use crate::access::for_each_matching;
use crate::clob::ClobStore;
use crate::error::{DbError, Result};
use crate::exec::{run_hash_join, Plan, ResultSet};
use crate::expr::Expr;
use crate::keyset::{row_key, Key, KeySet, KeyedRows};
use crate::limits::Deadline;
use crate::profile::{NodeStats, PlanProfile};
use crate::table::{Row, Table, TableSchema};
use crate::vfs::{StdVfs, Vfs};
use crate::wal::{
    append_frame, encode_wal_header, in_file, scan_wal, write_clob_put, write_insert, Enc,
    WalOptions, WalRecord, WalWriter, SNAPSHOT_FILE, SNAPSHOT_TMP, WAL_FILE, WAL_TMP,
};
use obs::names;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Instant;

/// Project a key through 1 or 2 key-column positions (0 = first
/// component, 1 = second).
#[inline]
fn key_proj(k: Key, idxs: &[usize]) -> Key {
    let at = |i: usize| if i == 0 { k.0 } else { k.1 };
    (at(idxs[0]), if idxs.len() == 2 { at(idxs[1]) } else { 0 })
}

/// Check that a semi-join's key positions pick one or two of the
/// `arity` columns of each keyed input, as many on each side.
fn check_semi_join_keys(
    probe_keys: &[usize],
    probe_arity: usize,
    build_keys: &[usize],
    build_arity: usize,
) -> Result<()> {
    let ok = |idxs: &[usize], arity: usize| {
        (1..=2).contains(&idxs.len()) && idxs.iter().all(|&k| k < arity)
    };
    if probe_keys.len() == build_keys.len()
        && ok(probe_keys, probe_arity)
        && ok(build_keys, build_arity)
    {
        Ok(())
    } else {
        Err(DbError::Plan(format!(
            "semi-join keys {probe_keys:?}={build_keys:?} do not fit key inputs of \
             {probe_arity} and {build_arity} columns"
        )))
    }
}

/// The column positions of a `Project` that only picks one or two
/// columns, the shape whose input can be read straight into keys.
fn key_columns(exprs: &[(Expr, String)]) -> Option<Vec<usize>> {
    if !(1..=2).contains(&exprs.len()) {
        return None;
    }
    exprs
        .iter()
        .map(|(e, _)| if let Expr::Col(i) = e { Some(*i) } else { None })
        .collect()
}

/// Count one executed semi-join. `minidb.semijoin.keyed` always equals
/// `.count` now that every semi-join runs on keys; it stays because the
/// benchmark's `match.keyed_ratio` reads it.
fn count_semi_join() {
    names::MINIDB_SEMIJOIN_COUNT.incr();
    names::MINIDB_SEMIJOIN_KEYED.incr();
}

/// Record stats for the operator at `path`: the rows it emitted and,
/// for a scan, the rows its access path visited.
fn record(
    prof: &mut Option<PlanProfile>,
    start: Option<Instant>,
    path: &[u16],
    rows: usize,
    visited: Option<usize>,
) {
    if let (Some(p), Some(s)) = (prof.as_mut(), start) {
        let nanos = s.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let visited = visited.map(|v| v as u64);
        p.record(path.to_vec(), NodeStats { rows_out: rows as u64, visited, nanos });
    }
}

fn nanos_between(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos().min(u64::MAX as u128) as u64
}

/// Stages of a written checkpoint, as indexes into [`CheckpointStages`].
const ENCODE: usize = 0;
const WRITE: usize = 1;
const SYNC: usize = 2;

/// A written checkpoint's wall time per stage (encode, write, sync). The
/// steps of one stage are not contiguous, so each step's time is added
/// to its stage as it ends, and [`CheckpointStages::finish`] records each
/// stage's sum once the checkpoint is written: the three histograms count
/// written checkpoints, not steps (a checkpoint that fails part-way
/// records none), and together cover `wal.checkpoint` except for the
/// writer-lock wait.
struct CheckpointStages {
    last: Instant,
    nanos: [u64; 3],
}

impl CheckpointStages {
    fn start() -> CheckpointStages {
        CheckpointStages { last: Instant::now(), nanos: [0; 3] }
    }

    /// Charge the time since the previous step ended to `stage`.
    fn end(&mut self, stage: usize) {
        let now = Instant::now();
        self.nanos[stage] += nanos_between(self.last, now);
        self.last = now;
    }

    /// Record each stage's sum: called once the checkpoint is written.
    fn finish(self) {
        let stages = [
            &names::WAL_CHECKPOINT_ENCODE,
            &names::WAL_CHECKPOINT_WRITE,
            &names::WAL_CHECKPOINT_SYNC,
        ];
        for (histogram, nanos) in stages.into_iter().zip(self.nanos) {
            histogram.record(nanos);
        }
    }
}

/// Durable-mode state: the VFS the database lives on plus the
/// serialized WAL appender. The writer mutex is always acquired before
/// the visibility gate, so WAL order equals apply order.
pub(crate) struct Durability {
    vfs: Arc<dyn Vfs>,
    writer: Mutex<WalWriter>,
}

/// Everything the visibility gate guards: the tables and the CLOB heap
/// (locators in `CLOB` columns point into it). The executor and the
/// `apply_*` mutators live here, so they run on whichever guard the
/// caller holds.
#[derive(Default)]
pub(crate) struct State {
    pub(crate) tables: HashMap<String, Table>,
    pub(crate) clobs: ClobStore,
}

/// An embedded, in-memory relational database, optionally backed by a
/// write-ahead log (see [`Database::open`] and [`crate::wal`]).
#[derive(Default)]
pub struct Database {
    /// The commit-visibility gate and the state it owns (see the module
    /// docs): held exclusively by each [`Txn`] for its whole life and
    /// shared by every reader, so writes become visible atomically at
    /// commit.
    state: RwLock<State>,
    /// `Some` when opened durably; `None` for plain in-memory use.
    dur: Option<Durability>,
    /// Count of committed transactions, published under the gate's
    /// exclusive hold — two reads observing the same watermark saw the
    /// same committed prefix of writes.
    watermark: AtomicU64,
}

/// Debug-build guard against taking one database's gate twice on one
/// thread (see the module docs): a thread-local list of the gates this
/// thread holds, keyed by gate address so a thread may hold the gates
/// of two different databases at once.
#[cfg(debug_assertions)]
mod reentry {
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    /// Marks one gate as held by this thread until dropped.
    pub(super) struct GateMark(usize);

    impl GateMark {
        /// Record `gate` as held; panics if this thread already holds it.
        pub(super) fn enter<T>(gate: &T) -> GateMark {
            let addr = gate as *const T as usize;
            HELD.with(|h| {
                let mut held = h.borrow_mut();
                assert!(
                    !held.contains(&addr),
                    "visibility gate re-entered: this thread already holds a Txn or \
                     ReadTxn on this database; read through it instead"
                );
                held.push(addr);
            });
            GateMark(addr)
        }
    }

    impl Drop for GateMark {
        fn drop(&mut self) {
            let _ = HELD.try_with(|h| h.borrow_mut().retain(|&g| g != self.0));
        }
    }
}

/// Release builds keep no re-entrancy bookkeeping.
#[cfg(not(debug_assertions))]
mod reentry {
    pub(super) struct GateMark;

    impl GateMark {
        #[inline]
        pub(super) fn enter<T>(_gate: &T) -> GateMark {
            GateMark
        }
    }
}

use reentry::GateMark;

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Open (or create) a durable database rooted at directory `dir`:
    /// replay the snapshot plus the committed WAL tail, then keep
    /// logging every mutation through the WAL (fsync on commit).
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Database::open_with(Arc::new(StdVfs::new(dir.as_ref())?), WalOptions::default())
    }

    /// [`Database::open`] over an explicit [`Vfs`] and WAL options —
    /// the entry point for in-memory crash testing ([`crate::vfs::MemVfs`])
    /// and fault injection ([`crate::vfs::FaultyVfs`]).
    pub fn open_with(vfs: Arc<dyn Vfs>, opts: WalOptions) -> Result<Database> {
        // 1. Snapshot, if any: one logged transaction, replayed like the
        //    WAL's. A checkpoint is idle while the snapshot on disk
        //    covers the last commit and the log holds no transaction.
        let mut db = Database::new();
        let snapshot = vfs.read(SNAPSHOT_FILE)?;
        let snapshotted = snapshot.is_some();
        let snap_lsn = match snapshot {
            Some(bytes) => db.state.get_mut().replay_snapshot(&bytes)?,
            None => 0,
        };
        // 2. WAL tail: replay committed transactions newer than the
        //    snapshot, then truncate away any torn / uncommitted
        //    suffix so later appends cannot resurrect it.
        let (next_lsn, snapshot_current) = if let Some(bytes) = vfs.read(WAL_FILE)? {
            let scan = scan_wal(&bytes).map_err(|e| in_file(WAL_FILE, e))?;
            // A log starting past the snapshot's next LSN lost the acked
            // commits in between (an older snapshot beside a newer log).
            if scan.base_lsn > snap_lsn + 1 {
                return Err(DbError::Corrupt(format!(
                    "wal starts at lsn {} but the snapshot ends at lsn {snap_lsn}",
                    scan.base_lsn
                )));
            }
            let mut recovered = 0u64;
            let valid_len = scan.valid_len;
            // Transactions at or below the snapshot's LSN (a crash
            // between the checkpoint's renames) still make the log busy.
            let logged = !scan.txns.is_empty();
            for (lsn, records) in scan.txns {
                if lsn <= snap_lsn {
                    continue;
                }
                recovered += records.len() as u64;
                db.state.get_mut().apply_txn(records).map_err(|e| {
                    DbError::Corrupt(format!("{WAL_FILE}: replay failed at lsn {lsn}: {e}"))
                })?;
            }
            names::WAL_RECOVERED_RECORDS.add(recovered);
            if (bytes.len() as u64) > valid_len {
                vfs.set_len(WAL_FILE, valid_len)?;
            }
            (scan.next_lsn.max(snap_lsn + 1), snapshotted && !logged)
        } else {
            // Fresh log, installed atomically (tmp + rename) so a
            // crash mid-creation never leaves a half-written header
            // under the real name.
            let base = snap_lsn + 1;
            let mut f = vfs.create(WAL_TMP)?;
            f.append(&encode_wal_header(base))?;
            f.sync()?;
            drop(f);
            vfs.rename(WAL_TMP, WAL_FILE)?;
            (base, snapshotted)
        };
        let file = Ok(vfs.open_append(WAL_FILE)?);
        let writer = WalWriter { file, next_lsn, policy: opts.sync, unsynced: 0, snapshot_current };
        db.dur = Some(Durability { vfs, writer: Mutex::new(writer) });
        Ok(db)
    }

    /// `true` when this database was opened durably.
    pub fn is_durable(&self) -> bool {
        self.dur.is_some()
    }

    /// LSN of the most recently committed transaction (0 if none, or
    /// if the database is not durable).
    pub fn last_lsn(&self) -> u64 {
        self.dur
            .as_ref()
            .map(|d| d.writer.lock().next_lsn.saturating_sub(1))
            .unwrap_or(0)
    }

    /// Serialize the full logical state — schemas, index definitions,
    /// live rows, the CLOB heap and its buffers — to an in-memory
    /// snapshot image (stamped with LSN 0). Two databases with identical
    /// logical contents produce identical images, which makes this a
    /// deep-equality probe for recovery tests and replica divergence
    /// checks.
    pub fn state_image(&self) -> Result<Vec<u8>> {
        Ok(self.snapshot_bytes(0))
    }

    /// Start a transaction: a batch of mutations made atomic and
    /// durable by [`Txn::commit`]. On a durable database this takes
    /// the WAL writer lock for the whole transaction (transactions are
    /// serialized); on an in-memory database the ops apply directly
    /// and commit only publishes visibility, so callers can use one
    /// code path. Every transaction — durable or not — holds the
    /// commit-visibility gate exclusively until it is committed or
    /// dropped, so concurrent readers never observe a partially
    /// applied batch.
    pub fn txn(&self) -> Txn<'_> {
        let mark = GateMark::enter(&self.state);
        let wal = self.dur.as_ref().map(|d| d.writer.lock());
        let waited = Instant::now();
        let state = self.state.write();
        let acquired = Instant::now();
        names::MINIDB_GATE_WRITE_WAIT.record(nanos_between(waited, acquired));
        Txn { db: self, wal, state, frames: Vec::new(), ops: 0, acquired, _mark: mark }
    }

    /// Begin a read batch: every plan executed through the returned
    /// [`ReadTxn`] sees the *same* committed state — no transaction can
    /// commit between the batch's executions. Use this when one logical
    /// read spans several plans (e.g. response reconstruction).
    pub fn begin_read(&self) -> ReadTxn<'_> {
        let mark = GateMark::enter(&self.state);
        let waited = Instant::now();
        let state = self.state.read();
        let acquired = Instant::now();
        names::MINIDB_GATE_READ_WAIT.record(nanos_between(waited, acquired));
        ReadTxn { db: self, state, acquired, _mark: mark }
    }

    /// Number of committed transactions. Monotonic; bumped under the
    /// visibility gate's exclusive hold, so two gated reads observing
    /// the same watermark saw identical committed state.
    pub fn commit_watermark(&self) -> u64 {
        self.watermark.load(AtomicOrdering::SeqCst)
    }

    /// Checkpoint a durable database: write a snapshot stamped with the
    /// last committed LSN (tmp + rename), then swap in a fresh WAL so
    /// the log stays short. Returns the stamped LSN. Commits are
    /// excluded for the duration (writer lock held); the state is read
    /// under a shared hold of the gate, so queries keep running.
    ///
    /// A checkpoint with nothing to write — the snapshot on disk is
    /// stamped with the last committed LSN and the log holds no
    /// transaction — returns that LSN without touching a file. One whose
    /// tail sync of the log fails, or that fails from renaming the fresh
    /// log into place until it is open, stops the WAL writer: the
    /// database refuses commits and checkpoints until it is reopened (see
    /// [`crate::wal`]'s failure rule). A failure before that rename
    /// leaves `wal.log` untouched and the writer running.
    pub fn checkpoint(&self) -> Result<u64> {
        let Some(dur) = &self.dur else {
            return Err(DbError::Io("checkpoint: database is not durable".into()));
        };
        let _span = names::WAL_CHECKPOINT.span();
        let mut w = dur.writer.lock();
        let lsn = w.next_lsn.saturating_sub(1);
        if w.snapshot_current {
            return Ok(lsn);
        }
        let mut stages = CheckpointStages::start();
        // Batched commits must be on disk before the snapshot claims
        // to cover them.
        w.sync()?;
        stages.end(SYNC);
        let snap = self.snapshot_bytes(lsn);
        stages.end(ENCODE);
        let mut f = dur.vfs.create(SNAPSHOT_TMP)?;
        f.append(&snap)?;
        stages.end(WRITE);
        f.sync()?;
        stages.end(SYNC);
        drop(f);
        dur.vfs.rename(SNAPSHOT_TMP, SNAPSHOT_FILE)?;
        let mut f = dur.vfs.create(WAL_TMP)?;
        f.append(&encode_wal_header(lsn + 1))?;
        stages.end(WRITE);
        f.sync()?;
        stages.end(SYNC);
        drop(f);
        // Once the rename lands the old handle writes to an unlinked
        // file, so a failure from here on stops the writer.
        let swapped =
            dur.vfs.rename(WAL_TMP, WAL_FILE).and_then(|()| dur.vfs.open_append(WAL_FILE));
        w.file = Ok(swapped.map_err(|e| w.stop(e))?);
        stages.end(WRITE);
        stages.finish();
        w.unsynced = 0;
        w.snapshot_current = true;
        names::WAL_CHECKPOINTS.incr();
        Ok(lsn)
    }

    /// Create a table; errors if the name is taken.
    pub fn create_table(&self, name: impl Into<String>, schema: TableSchema) -> Result<()> {
        let mut t = self.txn();
        t.create_table(name, schema)?;
        t.commit()
    }

    /// True when `name` exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.begin_read().table(name).is_ok()
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.begin_read().table_names()
    }

    /// Insert rows into a named table.
    pub fn insert(&self, table: &str, rows: impl IntoIterator<Item = Row>) -> Result<usize> {
        let mut t = self.txn();
        let n = t.insert(table, rows.into_iter().collect())?;
        t.commit()?;
        Ok(n)
    }

    /// Create an index on a named table.
    pub fn create_index(
        &self,
        table: &str,
        index: &str,
        columns: &[&str],
        unique: bool,
    ) -> Result<()> {
        let mut t = self.txn();
        t.create_index(table, index, columns, unique)?;
        t.commit()
    }

    /// Number of live rows in a table.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        self.begin_read().row_count(table)
    }

    /// Rough byte footprint: the row values of every table plus the
    /// CLOB text. Indexes are not counted.
    pub fn approx_bytes(&self) -> usize {
        let rt = self.begin_read();
        let rows: usize = rt.state.tables.values().map(Table::approx_bytes).sum();
        rows + rt.state.clobs.total_bytes()
    }

    /// Execute a physical plan to a materialized result, serially and
    /// without limits. The whole execution runs under the
    /// commit-visibility gate: the plan sees one committed state even
    /// when it reads several tables.
    pub fn execute(&self, plan: &Plan) -> Result<ResultSet> {
        self.execute_with(plan, Deadline::none())
    }

    /// [`Database::execute`] under a request deadline, checked
    /// cooperatively at loop and operator boundaries.
    pub fn execute_with(&self, plan: &Plan, deadline: Deadline) -> Result<ResultSet> {
        self.begin_read().execute_with(plan, deadline)
    }

    /// Execute a plan while collecting per-operator row counts and
    /// inclusive wall timings; operators are addressed by plan path
    /// (see [`PlanProfile`]). Powers `EXPLAIN ANALYZE`
    /// ([`crate::explain::explain_analyze`]).
    pub fn execute_profiled(&self, plan: &Plan) -> Result<(ResultSet, PlanProfile)> {
        let rt = self.begin_read();
        let mut prof = Some(PlanProfile::default());
        let rs = rt.state.run(plan, &mut prof, &Deadline::none())?;
        Ok((rs, prof.expect("profiler installed above")))
    }

    /// Delete rows matching `pred` from a table; returns the count.
    pub fn delete_where(&self, table: &str, pred: &Expr) -> Result<usize> {
        let mut t = self.txn();
        let n = t.delete_where(table, pred)?;
        t.commit()?;
        Ok(n)
    }
}

impl State {
    /// The table named `name`.
    pub(crate) fn table(&self, name: &str) -> Result<&Table> {
        self.tables.get(name).ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// The table named `name`, for a mutator.
    pub(crate) fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables.get_mut(name).ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    pub(crate) fn apply_create_table(&mut self, name: &str, schema: &TableSchema) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(DbError::TableExists(name.to_string()));
        }
        self.tables
            .insert(name.to_string(), Table::new(name.to_string(), schema.clone()));
        Ok(())
    }

    pub(crate) fn apply_create_index(
        &mut self,
        table: &str,
        index: &str,
        columns: &[usize],
        unique: bool,
    ) -> Result<()> {
        let t = self.table_mut(table)?;
        t.create_index(index, columns.to_vec(), unique)
    }

    pub(crate) fn apply_insert(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let t = self.table_mut(table)?;
        t.insert_many(rows)
    }

    /// Delete the rows matching `pred`; returns the count. The victims
    /// are collected through the access path before any row changes, so
    /// a predicate that fails on some row fails the op with the table
    /// untouched. Rows go in slot order.
    pub(crate) fn apply_delete_where(&mut self, table: &str, pred: &Expr) -> Result<usize> {
        let t = self.table_mut(table)?;
        let mut victims = Vec::new();
        for_each_matching(t, Some(pred), |rid, _| {
            victims.push(rid);
            Ok(())
        })?;
        victims.sort_unstable();
        for &rid in &victims {
            t.delete(rid);
        }
        Ok(victims.len())
    }

    /// Apply one recovered transaction's records to in-memory state (no
    /// logging): a WAL transaction, or a snapshot's one transaction.
    pub(crate) fn apply_txn(&mut self, records: Vec<WalRecord>) -> Result<()> {
        for rec in records {
            match rec {
                WalRecord::CreateTable { name, schema } => self.apply_create_table(&name, &schema),
                WalRecord::CreateIndex { table, name, columns, unique } => {
                    self.apply_create_index(&table, &name, &columns, unique)
                }
                WalRecord::Insert { table, rows } => self.apply_insert(&table, rows).map(|_| ()),
                WalRecord::DeleteWhere { table, pred } => {
                    self.apply_delete_where(&table, &pred).map(|_| ())
                }
                WalRecord::ClobPut { parts } => {
                    self.clobs.put_clobs(&parts);
                    Ok(())
                }
                WalRecord::Commit { .. } => Ok(()),
            }?;
        }
        Ok(())
    }

    /// The executor entry behind every public `execute*`; the caller
    /// holds the visibility gate (shared, or exclusively as a [`Txn`]).
    pub(crate) fn run(
        &self,
        plan: &Plan,
        prof: &mut Option<PlanProfile>,
        deadline: &Deadline,
    ) -> Result<ResultSet> {
        self.exec_node(plan, prof, &mut Vec::new(), deadline)
    }

    fn exec_child(
        &self,
        plan: &Plan,
        prof: &mut Option<PlanProfile>,
        path: &mut Vec<u16>,
        input_no: u16,
        deadline: &Deadline,
    ) -> Result<ResultSet> {
        path.push(input_no);
        let result = self.exec_node(plan, prof, path, deadline);
        path.pop();
        result
    }

    fn exec_node(
        &self,
        plan: &Plan,
        prof: &mut Option<PlanProfile>,
        path: &mut Vec<u16>,
        deadline: &Deadline,
    ) -> Result<ResultSet> {
        let start = prof.as_ref().map(|_| Instant::now());
        let mut visited = None;
        let result = match plan {
            Plan::Scan { table, filter } => {
                let t = self.table(table)?;
                let columns: Vec<String> =
                    t.schema.columns.iter().map(|c| c.name.clone()).collect();
                let mut rows = Vec::with_capacity(t.len());
                // `for_each_matching` walks the access path the filter
                // keys (`crate::access`) and re-applies the whole filter
                // to every row it visits, so partial coverage (and
                // residual LIKE terms) stay correct.
                let mut it = 0u32;
                visited = Some(for_each_matching(t, filter.as_ref(), |_, r| {
                    deadline.tick(&mut it)?;
                    rows.push(r.clone());
                    Ok(())
                })?);
                Ok(ResultSet { columns, rows })
            }
            Plan::Values { columns, rows } => {
                Ok(ResultSet { columns: columns.clone(), rows: rows.clone() })
            }
            // The set operators run on integer keys, and so does a
            // projection of key columns over a semi-join: a semi-join
            // probing a wide `Scan` fuses under it wherever it stands.
            Plan::HashSemiJoin { .. } | Plan::Distinct { .. } => {
                self.eval_keys(plan, prof, path, deadline).map(KeyedRows::into_result_set)
            }
            Plan::Project { input, exprs }
                if matches!(**input, Plan::HashSemiJoin { .. }) && key_columns(exprs).is_some() =>
            {
                self.eval_keys(plan, prof, path, deadline).map(KeyedRows::into_result_set)
            }
            Plan::Project { input, exprs } => {
                let rs = self.exec_child(input, prof, path, 0, deadline)?;
                let columns: Vec<String> = exprs.iter().map(|(_, n)| n.clone()).collect();
                let mut rows = Vec::with_capacity(rs.rows.len());
                for r in &rs.rows {
                    let mut out = Vec::with_capacity(exprs.len());
                    for (e, _) in exprs {
                        out.push(e.eval(r)?);
                    }
                    rows.push(out);
                }
                Ok(ResultSet { columns, rows })
            }
            Plan::HashJoin { left, right, left_keys, right_keys } => {
                let l = self.exec_child(left, prof, path, 0, deadline)?;
                let r = self.exec_child(right, prof, path, 1, deadline)?;
                run_hash_join(l, r, left_keys, right_keys, deadline)
            }
            Plan::Sort { input, keys } => {
                let mut rs = self.exec_child(input, prof, path, 0, deadline)?;
                rs.rows.sort_by(|a, b| {
                    for &(col, desc) in keys {
                        let ord = a[col].total_cmp(&b[col]);
                        let ord = if desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                Ok(rs)
            }
        };
        // Every operator boundary re-checks the deadline, so even
        // operators without inner-loop ticks are cancellation points.
        if result.is_ok() {
            deadline.check()?;
        }
        if let Ok(rs) = &result {
            record(prof, start, path, rs.rows.len(), visited);
        }
        result
    }

    /// Execute a semi-join or `Distinct` subtree over integer keys
    /// ([`crate::keyset`]), recording per-operator stats so `EXPLAIN
    /// ANALYZE` output stays fully annotated. A `Project` of one or two
    /// columns reads a `Scan`, or a semi-join probing a `Scan`, straight
    /// into keys in one pass; any other input runs as rows and is keyed,
    /// which fails unless its rows are one or two non-NULL `Int`s.
    fn eval_keys(
        &self,
        plan: &Plan,
        prof: &mut Option<PlanProfile>,
        path: &mut Vec<u16>,
        deadline: &Deadline,
    ) -> Result<KeyedRows> {
        let start = prof.as_ref().map(|_| Instant::now());
        match plan {
            Plan::Distinct { input } => {
                let k = self.keys_child(input, prof, path, 0, deadline)?.dedup_first_occurrence();
                deadline.check()?;
                record(prof, start, path, k.keys.len(), None);
                Ok(k)
            }
            Plan::HashSemiJoin { probe, build, probe_keys, build_keys, anti } => {
                let bk = self.keys_child(build, prof, path, 1, deadline)?;
                let mut pk = self.keys_child(probe, prof, path, 0, deadline)?;
                check_semi_join_keys(probe_keys, pk.arity(), build_keys, bk.arity())?;
                let set = KeySet::build(bk.keys.iter().map(|&k| key_proj(k, build_keys)).collect());
                pk.keys.retain(|&k| set.contains(key_proj(k, probe_keys)) != *anti);
                deadline.check()?;
                count_semi_join();
                record(prof, start, path, pk.keys.len(), None);
                Ok(pk)
            }
            Plan::Project { input, exprs } => {
                let columns = || exprs.iter().map(|(_, n)| n.clone()).collect();
                match (key_columns(exprs), &**input) {
                    (Some(cols), Plan::Scan { table, filter }) => {
                        let t = self.table(table)?;
                        let scan = scan_keys(t, filter.as_ref(), &cols, None, deadline)?;
                        let keys = scan.keys;
                        // One fused pass stands in for both operators.
                        path.push(0);
                        record(prof, start, path, keys.len(), Some(scan.visited));
                        path.pop();
                        record(prof, start, path, keys.len(), None);
                        Ok(KeyedRows { columns: columns(), keys })
                    }
                    // A semi-join probing a base table: membership is
                    // tested during the scan, before the projection.
                    (
                        Some(cols),
                        Plan::HashSemiJoin { probe, build, probe_keys, build_keys, anti },
                    ) if matches!(**probe, Plan::Scan { .. }) => {
                        let Plan::Scan { table, filter } = &**probe else {
                            unreachable!("guarded by the match arm");
                        };
                        path.push(0);
                        let bk = self.keys_child(build, prof, path, 1, deadline)?;
                        path.pop();
                        let t = self.table(table)?;
                        let width = t.schema.columns.len();
                        check_semi_join_keys(probe_keys, width, build_keys, bk.arity())?;
                        let set = KeySet::build(
                            bk.keys.iter().map(|&k| key_proj(k, build_keys)).collect(),
                        );
                        let scan_start = prof.as_ref().map(|_| Instant::now());
                        let member = Some((&set, &probe_keys[..], *anti));
                        let scan = scan_keys(t, filter.as_ref(), &cols, member, deadline)?;
                        let keys = scan.keys;
                        count_semi_join();
                        path.extend([0, 0]);
                        record(prof, scan_start, path, scan.matched, Some(scan.visited));
                        path.pop();
                        record(prof, start, path, keys.len(), None);
                        path.pop();
                        record(prof, start, path, keys.len(), None);
                        Ok(KeyedRows { columns: columns(), keys })
                    }
                    (Some(cols), Plan::Distinct { .. } | Plan::HashSemiJoin { .. }) => {
                        let k = self.keys_child(input, prof, path, 0, deadline)?;
                        if let Some(c) = cols.iter().find(|&&c| c >= k.arity()) {
                            return Err(DbError::Plan(format!(
                                "projection of column #{c} over {} key columns",
                                k.arity()
                            )));
                        }
                        let keys = k.keys.iter().map(|&key| key_proj(key, &cols)).collect();
                        let out = KeyedRows { columns: columns(), keys };
                        record(prof, start, path, out.keys.len(), None);
                        Ok(out)
                    }
                    _ => KeyedRows::from_result_set(self.exec_node(plan, prof, path, deadline)?),
                }
            }
            _ => KeyedRows::from_result_set(self.exec_node(plan, prof, path, deadline)?),
        }
    }

    /// [`State::eval_keys`] on input `input_no` of the operator at `path`.
    fn keys_child(
        &self,
        plan: &Plan,
        prof: &mut Option<PlanProfile>,
        path: &mut Vec<u16>,
        input_no: u16,
        deadline: &Deadline,
    ) -> Result<KeyedRows> {
        path.push(input_no);
        let result = self.eval_keys(plan, prof, path, deadline);
        path.pop();
        result
    }
}

/// What [`scan_keys`] read: rows visited by the access path, rows that
/// passed the filter, and the keys kept.
struct ScannedKeys {
    visited: usize,
    matched: usize,
    keys: Vec<Key>,
}

/// Read the rows of `t` that pass `filter` straight into keys at
/// columns `cols`. With `member = (set, keys, anti)`, keep only the rows
/// whose key at `keys` is in `set` (not in it, under `anti`).
fn scan_keys(
    t: &Table,
    filter: Option<&Expr>,
    cols: &[usize],
    member: Option<(&KeySet, &[usize], bool)>,
    deadline: &Deadline,
) -> Result<ScannedKeys> {
    let mut matched = 0usize;
    let mut keys = Vec::new();
    let mut it = 0u32;
    let visited = for_each_matching(t, filter, |_, r| {
        deadline.tick(&mut it)?;
        matched += 1;
        if let Some((set, probe_keys, anti)) = member {
            if set.contains(row_key(r, probe_keys)?) == anti {
                return Ok(());
            }
        }
        keys.push(row_key(r, cols)?);
        Ok(())
    })?;
    deadline.check()?;
    Ok(ScannedKeys { visited, matched, keys })
}

impl Drop for Database {
    fn drop(&mut self) {
        // Best-effort flush of batched commits; crash-consistency does
        // not depend on this (unsynced commits were never acked as
        // durable under `SyncPolicy::Batched`).
        if let Some(d) = &self.dur {
            let _ = d.writer.lock().sync();
        }
    }
}

/// A batch of mutations that commits atomically through the WAL.
///
/// Operations apply to in-memory state immediately (so later
/// operations in the same transaction see their effects — the catalog
/// inserts rows referencing CLOB locators it just allocated), and on a
/// durable database each one that succeeds leaves its WAL record sealed
/// as a frame in one buffer, in apply order. [`Txn::commit`] appends
/// that buffer plus a commit frame in one write and fsyncs per the
/// database's [`crate::wal::SyncPolicy`]; only then is the transaction
/// durable. If the transaction is dropped without committing, nothing
/// is logged, and an op that fails logs nothing: recovery after a crash
/// never exposes a partial transaction. A failed append or fsync stops
/// the WAL writer, so every later commit fails until the database is
/// reopened.
///
/// On a durable database the transaction holds the WAL writer lock
/// for its whole lifetime, serializing writers; this is what makes
/// log order equal apply order (and CLOB locator assignment replay
/// deterministically). Durable or not, the transaction also holds the
/// database's commit-visibility gate exclusively and mutates the tables
/// and CLOB heap through it, so readers are excluded from its start
/// until commit — they see either none of the batch or all of it,
/// never a torn middle. A `Txn` is the only way to write.
pub struct Txn<'a> {
    db: &'a Database,
    wal: Option<MutexGuard<'a, WalWriter>>,
    state: RwLockWriteGuard<'a, State>,
    /// The applied ops' WAL records, each sealed as a frame, in apply
    /// order; empty on an in-memory database.
    frames: Vec<u8>,
    /// Ops applied so far.
    ops: u64,
    /// When the gate was taken, for `minidb.gate.write_hold`.
    acquired: Instant,
    _mark: GateMark,
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        names::MINIDB_GATE_WRITE_HOLD.record(nanos_between(self.acquired, Instant::now()));
    }
}

impl Txn<'_> {
    /// Count an op and, on a durable database, seal the record `write`
    /// encodes as a frame onto the transaction's log.
    fn log(&mut self, write: impl FnOnce(&mut Enc)) {
        self.ops += 1;
        if self.wal.is_some() {
            append_frame(&mut self.frames, write);
        }
    }

    /// Execute a read plan *inside* the transaction: the result
    /// reflects the transaction's own uncommitted mutations. Because
    /// the transaction already owns the visibility gate exclusively,
    /// this is how read-modify-write sequences (look up current
    /// sequence numbers, then insert) stay atomic with respect to
    /// concurrent writers.
    pub fn execute(&self, plan: &Plan) -> Result<ResultSet> {
        self.state.run(plan, &mut None, &Deadline::none())
    }

    /// Create a table (see [`Database::create_table`]).
    pub fn create_table(&mut self, name: impl Into<String>, schema: TableSchema) -> Result<()> {
        let name = name.into();
        self.state.apply_create_table(&name, &schema)?;
        self.log(|enc| WalRecord::CreateTable { name, schema }.write(enc));
        Ok(())
    }

    /// Create an index, resolving column names against the schema.
    pub fn create_index(
        &mut self,
        table: &str,
        index: &str,
        columns: &[&str],
        unique: bool,
    ) -> Result<()> {
        let cols: Vec<usize> = {
            let schema = &self.state.table(table)?.schema;
            columns.iter().map(|c| schema.col(c)).collect::<Result<_>>()?
        };
        self.state.apply_create_index(table, index, &cols, unique)?;
        self.log(|enc| {
            let (table, name) = (table.to_string(), index.to_string());
            WalRecord::CreateIndex { table, name, columns: cols, unique }.write(enc)
        });
        Ok(())
    }

    /// Insert fully-shaped rows. The WAL record is sealed first and the
    /// rows are then moved into the table; an insert that fails takes
    /// its frame off again, so it logs nothing.
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let (sealed, ops) = (self.frames.len(), self.ops);
        self.log(|enc| write_insert(enc, table, rows.iter()));
        let applied = self.state.apply_insert(table, rows);
        if applied.is_err() {
            self.frames.truncate(sealed);
            self.ops = ops;
        }
        applied
    }

    /// Delete rows matching `pred`; returns the count.
    pub fn delete_where(&mut self, table: &str, pred: &Expr) -> Result<usize> {
        let n = self.state.apply_delete_where(table, pred)?;
        self.log(|enc| {
            WalRecord::DeleteWhere { table: table.to_string(), pred: pred.clone() }.write(enc)
        });
        Ok(n)
    }

    /// Store `parts` as consecutive CLOBs in one heap buffer, returning
    /// their locators (see [`crate::clob`] for the layout). The WAL gets
    /// one `ClobPut` record for the put, so replay rebuilds the buffer;
    /// a put of no parts stores and logs nothing.
    pub fn put_clobs<P: AsRef<str>>(&mut self, parts: &[P]) -> Range<u64> {
        if !parts.is_empty() {
            self.log(|enc| write_clob_put(enc, parts.iter().map(AsRef::as_ref)));
        }
        self.state.clobs.put_clobs(parts)
    }

    /// Make the batch durable and visible: append + fsync the sealed
    /// frames and a commit frame (durable databases), then publish the
    /// new commit watermark while still holding the visibility gate, so
    /// readers observe the whole batch and the bumped watermark together.
    pub fn commit(mut self) -> Result<()> {
        if self.ops == 0 {
            return Ok(());
        }
        if let Some(w) = self.wal.as_mut() {
            w.commit(std::mem::take(&mut self.frames), self.ops)?;
        }
        self.db.watermark.fetch_add(1, AtomicOrdering::SeqCst);
        names::MINIDB_TXN_COMMITS.incr();
        Ok(())
    }
}

/// A batch of reads sharing one committed snapshot (see
/// [`Database::begin_read`]). Holds the commit-visibility gate shared
/// for its whole life: transactions can neither start applying nor
/// commit while the batch is open, so every plan executed and every
/// table or CLOB read through it observes the same committed state.
/// While it is open, this thread must read through it, not through
/// other [`Database`] methods (see the module docs).
pub struct ReadTxn<'a> {
    db: &'a Database,
    state: RwLockReadGuard<'a, State>,
    /// When the gate was taken, for `minidb.gate.read_hold`.
    acquired: Instant,
    _mark: GateMark,
}

impl Drop for ReadTxn<'_> {
    fn drop(&mut self) {
        names::MINIDB_GATE_READ_HOLD.record(nanos_between(self.acquired, Instant::now()));
    }
}

impl ReadTxn<'_> {
    /// Execute a plan against the batch's snapshot.
    pub fn execute(&self, plan: &Plan) -> Result<ResultSet> {
        self.execute_with(plan, Deadline::none())
    }

    /// [`ReadTxn::execute`] under the request's deadline (see
    /// [`Database::execute_with`]).
    pub fn execute_with(&self, plan: &Plan, deadline: Deadline) -> Result<ResultSet> {
        self.state.run(plan, &mut None, &deadline)
    }

    /// Number of live rows in a table, as of the batch's snapshot.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.state.table(table)?.len())
    }

    /// The table named `name`, read-only, as of the batch's snapshot.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.state.table(name)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.state.tables.keys().cloned().collect();
        v.sort();
        v
    }

    /// The CLOB heap, read-only: [`ClobStore::get`] borrows a CLOB's
    /// text for as long as this read transaction holds the gate.
    pub fn clobs(&self) -> &ClobStore {
        &self.state.clobs
    }

    /// The commit watermark this batch reads at.
    pub fn watermark(&self) -> u64 {
        self.db.commit_watermark()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;
    use crate::value::{DataType, Value};

    fn db() -> Database {
        let db = Database::new();
        db.create_table(
            "emp",
            TableSchema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("dept", DataType::Text),
                Column::new("salary", DataType::Int),
            ]),
        )
        .unwrap();
        db.create_table(
            "dept",
            TableSchema::new(vec![
                Column::new("name", DataType::Text),
                Column::new("building", DataType::Text),
            ]),
        )
        .unwrap();
        db.insert(
            "emp",
            vec![
                vec![1.into(), "eng".into(), 100.into()],
                vec![2.into(), "eng".into(), 120.into()],
                vec![3.into(), "ops".into(), 90.into()],
                vec![4.into(), "hr".into(), 80.into()],
            ],
        )
        .unwrap();
        db.insert("dept", vec![vec!["eng".into(), "B1".into()], vec!["ops".into(), "B2".into()]])
            .unwrap();
        db
    }

    #[test]
    fn scan_with_filter() {
        let db = db();
        let rs = db
            .execute(&Plan::Scan { table: "emp".into(), filter: Some(Expr::col_eq(1, "eng")) })
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn scan_uses_covering_index() {
        let db = db();
        db.create_index("emp", "by_dept", &["dept"], false).unwrap();
        let rs = db
            .execute(&Plan::Scan { table: "emp".into(), filter: Some(Expr::col_eq(1, "eng")) })
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn index_lookup_and_range() {
        let db = db();
        db.create_index("emp", "by_salary", &["salary"], false).unwrap();
        let point = Plan::Scan { table: "emp".into(), filter: Some(Expr::col_eq(2, 100)) };
        let rs = db.execute(&point).unwrap();
        assert_eq!(rs.rows.len(), 1);
        let between = Expr::Between(
            Box::new(Expr::col(2)),
            Box::new(Expr::lit(90)),
            Box::new(Expr::lit(110)),
        );
        let range = Plan::Scan { table: "emp".into(), filter: Some(between) };
        let rng = db.execute(&range).unwrap();
        assert_eq!(rng.rows.len(), 2);
        // Both scans walk the index rather than every row.
        let explained = crate::explain::explain_analyze(&range, &db).unwrap();
        assert!(explained.contains("via index by_salary key=[] range=[Int(90), Int(110)]"));
        let explained = crate::explain::explain_analyze(&point, &db).unwrap();
        assert!(explained.contains("via index by_salary key=[Int(100)]"), "{explained}");
    }

    #[test]
    fn join_project_pipeline() {
        let db = db();
        // Each employee's building: emp.dept = dept.name, inner, so the
        // "hr" employee (no dept row) drops out.
        let plan = Plan::Scan { table: "emp".into(), filter: None }
            .hash_join(Plan::Scan { table: "dept".into(), filter: None }, vec![1], vec![0])
            .project(vec![(Expr::col(0), "id".into()), (Expr::col(4), "building".into())]);
        let rs = db.execute(&plan).unwrap();
        assert_eq!(rs.columns, vec!["id", "building"]);
        assert_eq!(
            rs.rows,
            vec![
                vec![1.into(), "B1".into()],
                vec![2.into(), "B1".into()],
                vec![3.into(), "B2".into()],
            ]
        );
    }

    #[test]
    fn sort_then_distinct() {
        let db = Database::new();
        // Employee id parity (1, 0, 1, 0), sorted descending.
        let parity = Plan::Values {
            columns: vec!["parity".into()],
            rows: (1..=4i64).map(|id| vec![(id % 2).into()]).collect(),
        };
        let plan = Plan::Sort { input: Box::new(parity), keys: vec![(0, true)] };
        let rs = db.execute(&Plan::Distinct { input: Box::new(plan) }).unwrap();
        assert_eq!(rs.columns, ["parity"]);
        assert_eq!(rs.rows, vec![vec![Value::Int(1)], vec![Value::Int(0)]]);
    }

    #[test]
    fn delete_where_removes_matching_rows() {
        let db = db();
        let n = db.delete_where("emp", &Expr::col_eq(1, "eng")).unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.row_count("emp").unwrap(), 2);
        assert!(emp_where(&db, Expr::col_eq(1, "eng")).is_empty());
    }

    fn emp_where(db: &Database, pred: Expr) -> Vec<Row> {
        db.execute(&Plan::Scan { table: "emp".into(), filter: Some(pred) })
            .unwrap()
            .rows
    }

    #[test]
    fn values_plan() {
        let db = Database::new();
        let rs = db
            .execute(&Plan::Values {
                columns: vec!["a".into()],
                rows: vec![vec![1.into()], vec![2.into()]],
            })
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    fn keyed_tables() -> Database {
        let db = Database::new();
        db.create_table(
            "p",
            TableSchema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
        )
        .unwrap();
        db.create_table(
            "q",
            TableSchema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
        )
        .unwrap();
        db.insert("p", (0..20i64).map(|i| vec![(i % 7).into(), i.into()])).unwrap();
        db.insert("q", (0..10i64).map(|i| vec![(i % 5).into(), 0.into()])).unwrap();
        db
    }

    #[test]
    fn set_operators_reject_what_is_not_an_int_key() {
        let db = db();
        let emp = || Plan::Scan { table: "emp".into(), filter: None };
        let ids = || emp().project(vec![(Expr::col(0), "id".into())]);
        let values = |rows: Vec<Row>| Plan::Values { columns: vec!["k".into()], rows };
        let distinct = |p: Plan| Plan::Distinct { input: Box::new(p) };
        let rejected = [
            // A Text key, read by the fused scan and by the row fallback.
            distinct(emp().project(vec![(Expr::col(1), "dept".into())])),
            ids().semi_join(emp().project(vec![(Expr::col(1), "dept".into())]), vec![0], vec![0]),
            emp().project(vec![(Expr::col(0), "id".into())]).semi_join(
                Plan::Sort { input: Box::new(emp()), keys: vec![] },
                vec![0],
                vec![1],
            ),
            // A NULL key on either side.
            distinct(values(vec![vec![1.into()], vec![Value::Null]])),
            ids().anti_join(values(vec![vec![Value::Null]]), vec![0], vec![0]),
            // Three columns under a Distinct, or as a probe.
            distinct(emp()),
            emp().semi_join(ids(), vec![0], vec![0]),
            // Key positions beyond the keyed input's columns.
            ids().semi_join(ids(), vec![1], vec![0]),
            distinct(ids().project(vec![(Expr::col(1), "x".into())])),
        ];
        for plan in &rejected {
            let err = db.execute(plan).unwrap_err();
            assert!(matches!(err, DbError::Plan(_)), "{plan:?}: {err}");
        }
    }

    #[test]
    fn semi_join_annotates_profile() {
        let db = keyed_tables();
        let plan = Plan::Distinct {
            input: Box::new(
                Plan::Scan { table: "p".into(), filter: None }
                    .project(vec![(Expr::col(0), "a".into())])
                    .semi_join(
                        Plan::Scan { table: "q".into(), filter: None }
                            .project(vec![(Expr::col(0), "a".into())]),
                        vec![0],
                        vec![0],
                    ),
            ),
        };
        let (rs, profile) = db.execute_profiled(&plan).unwrap();
        assert_eq!(profile.root().unwrap().rows_out, rs.rows.len() as u64);
        // Every operator is annotated: Distinct, semi-join, both
        // projects, both scans.
        assert_eq!(profile.len(), 6);
        // 15 of `p`'s 20 rows have an `a` (i % 7) among `q`'s 0..5.
        assert_eq!(profile.get(&[0]).unwrap().rows_out, 15);
        assert_eq!(profile.get(&[0, 1, 0]).unwrap().rows_out, 10);
    }

    /// Holding a read transaction and calling a `Database` read would
    /// take the gate twice on one thread — a deadlock once a writer
    /// queues between the two holds. Debug builds panic instead.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "visibility gate re-entered")]
    fn reentering_the_gate_panics() {
        let db = db();
        let _rt = db.begin_read();
        let _ = db.row_count("emp");
    }

    /// Every gate acquisition is timed: its wait when it is taken, its
    /// hold when the `ReadTxn` or `Txn` drops.
    #[test]
    fn gate_wait_and_hold_are_recorded() {
        let db = db();
        let counts = || {
            [
                names::MINIDB_GATE_READ_WAIT.count(),
                names::MINIDB_GATE_READ_HOLD.count(),
                names::MINIDB_GATE_WRITE_WAIT.count(),
                names::MINIDB_GATE_WRITE_HOLD.count(),
            ]
        };
        // Other tests share the process-global instruments and run in
        // parallel, so only lower bounds hold.
        let before = counts();
        let rt = db.begin_read();
        assert!(names::MINIDB_GATE_READ_WAIT.count() > before[0]);
        drop(rt);
        db.txn().commit().unwrap();
        let after = counts();
        for (b, a) in before.iter().zip(after) {
            assert!(a > *b, "before {before:?} after {after:?}");
        }
    }

    /// A written checkpoint records each of its stages once. Other
    /// tests checkpoint in parallel, so only lower bounds hold.
    #[test]
    fn a_checkpoint_records_its_stages() {
        let stages = [
            &names::WAL_CHECKPOINT_ENCODE,
            &names::WAL_CHECKPOINT_WRITE,
            &names::WAL_CHECKPOINT_SYNC,
        ];
        let before = stages.map(|h| h.count());
        let vfs = Arc::new(crate::vfs::MemVfs::new());
        let db = Database::open_with(vfs, crate::wal::WalOptions::default()).unwrap();
        db.create_table("t", TableSchema::new(vec![Column::new("id", DataType::Int)]))
            .unwrap();
        db.checkpoint().unwrap();
        for (h, b) in stages.iter().zip(before) {
            assert!(h.count() > b, "{} recorded nothing", h.name());
        }
    }

    /// The re-entrancy guard is per database: one thread may hold two
    /// databases' gates at once (recovery tests compare two databases),
    /// and a released gate can be taken again.
    #[test]
    fn gates_of_two_databases_are_independent() {
        let (a, b) = (db(), db());
        let ra = a.begin_read();
        let mut tb = b.txn();
        tb.insert("emp", vec![vec![5.into(), "ops".into(), 70.into()]]).unwrap();
        assert_eq!(ra.row_count("emp").unwrap(), 4);
        tb.commit().unwrap();
        drop(ra);
        assert_eq!(a.row_count("emp").unwrap(), 4);
        assert_eq!(b.row_count("emp").unwrap(), 5);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let db = std::sync::Arc::new(db());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let db = db.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        let rs =
                            db.execute(&Plan::Scan { table: "emp".into(), filter: None }).unwrap();
                        assert!(rs.rows.len() >= 4);
                    }
                });
            }
            let dbw = db.clone();
            s.spawn(move || {
                for i in 0..100 {
                    dbw.insert("emp", vec![vec![(100 + i).into(), "new".into(), 1.into()]])
                        .unwrap();
                }
            });
        });
        assert_eq!(db.row_count("emp").unwrap(), 104);
    }
}
