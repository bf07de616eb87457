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
//! [`Txn::commit`], stay visible although nothing was logged. A delete
//! or update that fails on its predicate or a `SET` value changes no
//! row: both collect their victims through the access path
//! ([`crate::access`]) and compute every new row before the first
//! change.
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
use crate::profile::PlanProfile;
use crate::table::{Row, RowId, Table, TableSchema};
use crate::wal::{
    encode_clob_put, encode_insert, encode_wal_header, scan_wal, StdVfs, Vfs, WalOptions,
    WalRecord, WalWriter, SNAPSHOT_FILE, SNAPSHOT_TMP, WAL_FILE, WAL_TMP,
};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};
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
    let reg = obs::global();
    reg.counter("minidb.semijoin.count").incr();
    reg.counter("minidb.semijoin.keyed").incr();
}

/// Record stats for the operator at `path`.
fn record(prof: &mut Option<PlanProfile>, start: Option<Instant>, path: &[u16], rows: usize) {
    if let (Some(p), Some(s)) = (prof.as_mut(), start) {
        let nanos = s.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        p.record(path.to_vec(), rows as u64, nanos);
    }
}

/// Wait and hold times of the visibility gate, per side: `*_wait` runs
/// from asking for the gate to getting it, `*_hold` from getting it to
/// releasing it (a [`Txn`] or [`ReadTxn`] dropping). The handles are
/// fetched from the registry once, so taking the gate does no map
/// lookup.
struct GateMetrics {
    read_wait: Arc<obs::Histogram>,
    read_hold: Arc<obs::Histogram>,
    write_wait: Arc<obs::Histogram>,
    write_hold: Arc<obs::Histogram>,
}

fn gate_metrics() -> &'static GateMetrics {
    static METRICS: OnceLock<GateMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global();
        GateMetrics {
            read_wait: reg.histogram("minidb.gate.read_wait"),
            read_hold: reg.histogram("minidb.gate.read_hold"),
            write_wait: reg.histogram("minidb.gate.write_wait"),
            write_hold: reg.histogram("minidb.gate.write_hold"),
        }
    })
}

fn nanos_between(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos().min(u64::MAX as u128) as u64
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
    /// recover the snapshot plus the committed WAL tail, then keep
    /// logging every mutation through the WAL (fsync on commit).
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Database::open_with(Arc::new(StdVfs::new(dir.as_ref())?), WalOptions::default())
    }

    /// [`Database::open`] over an explicit [`Vfs`] and WAL options —
    /// the entry point for in-memory crash testing ([`crate::wal::MemVfs`])
    /// and fault injection ([`crate::wal::FaultyVfs`]).
    pub fn open_with(vfs: Arc<dyn Vfs>, opts: WalOptions) -> Result<Database> {
        // 1. Snapshot, if any.
        let (mut db, snap_lsn) = match vfs.read(SNAPSHOT_FILE)? {
            Some(bytes) => crate::snapshot::load_snapshot_bytes(&bytes)?,
            None => (Database::new(), 0),
        };
        // 2. WAL tail: replay committed transactions newer than the
        //    snapshot, then truncate away any torn / uncommitted
        //    suffix so later appends cannot resurrect it.
        let writer = if let Some(bytes) = vfs.read(WAL_FILE)? {
            let scan = scan_wal(&bytes)?;
            let mut recovered = 0u64;
            let valid_len = scan.valid_len;
            for (lsn, records) in scan.txns {
                if lsn <= snap_lsn {
                    continue;
                }
                recovered += records.len() as u64;
                db.state.get_mut().apply_txn(records).map_err(|e| {
                    DbError::Corrupt(format!("wal replay failed at lsn {lsn}: {e}"))
                })?;
            }
            obs::global().counter("wal.recovered_records").add(recovered);
            if (bytes.len() as u64) > valid_len {
                vfs.set_len(WAL_FILE, valid_len)?;
            }
            WalWriter {
                file: vfs.open_append(WAL_FILE)?,
                next_lsn: scan.next_lsn.max(snap_lsn + 1),
                policy: opts.sync,
                unsynced: 0,
            }
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
            WalWriter {
                file: vfs.open_append(WAL_FILE)?,
                next_lsn: base,
                policy: opts.sync,
                unsynced: 0,
            }
        };
        db.dur = Some(Durability { vfs, writer: Mutex::new(writer) });
        Ok(db)
    }

    /// The state, through exclusive ownership of the database (no gate
    /// needed): how snapshot load fills a database nobody else sees yet.
    pub(crate) fn state_mut(&mut self) -> &mut State {
        self.state.get_mut()
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
    /// live rows, CLOB heap — to an in-memory snapshot image. Two
    /// databases with identical logical contents produce identical
    /// images, which makes this a deep-equality probe for recovery
    /// tests and replica divergence checks.
    pub fn state_image(&self) -> Result<Vec<u8>> {
        self.snapshot_bytes(0)
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
        gate_metrics().write_wait.record(nanos_between(waited, acquired));
        Txn { db: self, wal, state, pending: Vec::new(), dirty: false, acquired, _mark: mark }
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
        gate_metrics().read_wait.record(nanos_between(waited, acquired));
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
    pub fn checkpoint(&self) -> Result<u64> {
        let Some(dur) = &self.dur else {
            return Err(DbError::Io("checkpoint: database is not durable".into()));
        };
        let reg = obs::global();
        let _span = reg.span("wal.checkpoint");
        let mut w = dur.writer.lock();
        // Batched commits must be on disk before the snapshot claims
        // to cover them.
        w.sync()?;
        let lsn = w.next_lsn.saturating_sub(1);
        let snap = self.snapshot_bytes(lsn)?;
        let mut f = dur.vfs.create(SNAPSHOT_TMP)?;
        f.append(&snap)?;
        f.sync()?;
        drop(f);
        dur.vfs.rename(SNAPSHOT_TMP, SNAPSHOT_FILE)?;
        let mut f = dur.vfs.create(WAL_TMP)?;
        f.append(&encode_wal_header(lsn + 1))?;
        f.sync()?;
        drop(f);
        dur.vfs.rename(WAL_TMP, WAL_FILE)?;
        w.file = dur.vfs.open_append(WAL_FILE)?;
        w.unsynced = 0;
        reg.counter("wal.checkpoints").incr();
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

    /// Rough byte footprint of all tables plus the CLOB heap.
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

    /// Update rows matching `pred` (all rows when `None`): each
    /// `(column, expr)` in `sets` is evaluated against the old row.
    /// Returns the number of updated rows.
    pub fn update_where(
        &self,
        table: &str,
        pred: Option<&Expr>,
        sets: &[(usize, Expr)],
    ) -> Result<usize> {
        let mut t = self.txn();
        let n = t.update_where(table, pred, sets)?;
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

    pub(crate) fn apply_drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
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

    /// Update the rows matching `pred` (all rows when `None`); returns
    /// the count. Every victim's new row is computed from its old one
    /// and checked against the schema before any row changes, so a
    /// predicate or `SET` expression that fails on some row fails the op
    /// with the table untouched. Rows change in slot order; only a unique
    /// violation can still stop the op partway.
    pub(crate) fn apply_update_where(
        &mut self,
        table: &str,
        pred: Option<&Expr>,
        sets: &[(usize, Expr)],
    ) -> Result<usize> {
        let t = self.table_mut(table)?;
        let mut victims: Vec<(RowId, Row)> = Vec::new();
        for_each_matching(t, pred, |rid, row| {
            let mut new_row = row.clone();
            for (c, e) in sets {
                new_row[*c] = e.eval(row)?;
            }
            t.schema.check(&new_row)?;
            victims.push((rid, new_row));
            Ok(())
        })?;
        victims.sort_unstable_by_key(|&(rid, _)| rid);
        let n = victims.len();
        for (rid, new_row) in victims {
            t.update(rid, |row| *row = new_row)?;
        }
        Ok(n)
    }

    pub(crate) fn apply_truncate(&mut self, table: &str) -> Result<usize> {
        let t = self.table_mut(table)?;
        let n = t.len();
        t.truncate();
        Ok(n)
    }

    /// Apply one recovered transaction's WAL records to in-memory state
    /// (no logging). Each run of consecutive `ClobPut` records is one
    /// put, as the [`Txn::put_clobs`] that logged it was.
    pub(crate) fn apply_txn(&mut self, records: Vec<WalRecord>) -> Result<()> {
        let mut clob_run = Vec::new();
        for rec in records {
            if let WalRecord::ClobPut { data } = rec {
                clob_run.push(data);
                continue;
            }
            self.clobs.put_clobs(&clob_run);
            clob_run.clear();
            match rec {
                WalRecord::CreateTable { name, schema } => self.apply_create_table(&name, &schema),
                WalRecord::DropTable { name } => self.apply_drop_table(&name),
                WalRecord::CreateIndex { table, name, columns, unique } => {
                    self.apply_create_index(&table, &name, &columns, unique)
                }
                WalRecord::Insert { table, rows } => self.apply_insert(&table, rows).map(|_| ()),
                WalRecord::DeleteWhere { table, pred } => {
                    self.apply_delete_where(&table, &pred).map(|_| ())
                }
                WalRecord::UpdateWhere { table, pred, sets } => {
                    self.apply_update_where(&table, pred.as_ref(), &sets).map(|_| ())
                }
                WalRecord::Truncate { table } => self.apply_truncate(&table).map(|_| ()),
                // A `ClobPut` joined the run above.
                WalRecord::ClobPut { .. } | WalRecord::Commit { .. } => Ok(()),
            }?;
        }
        self.clobs.put_clobs(&clob_run);
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
                for_each_matching(t, filter.as_ref(), |_, r| {
                    deadline.tick(&mut it)?;
                    rows.push(r.clone());
                    Ok(())
                })?;
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
            Plan::Limit { input, n } => {
                let mut rs = self.exec_child(input, prof, path, 0, deadline)?;
                rs.rows.truncate(*n);
                Ok(rs)
            }
        };
        // Every operator boundary re-checks the deadline, so even
        // operators without inner-loop ticks are cancellation points.
        if result.is_ok() {
            deadline.check()?;
        }
        if let (Some(profile), Some(started), Ok(rs)) = (prof.as_mut(), start, &result) {
            let nanos = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            profile.record(path.clone(), rs.rows.len() as u64, nanos);
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
                record(prof, start, path, k.keys.len());
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
                record(prof, start, path, pk.keys.len());
                Ok(pk)
            }
            Plan::Project { input, exprs } => {
                let columns = || exprs.iter().map(|(_, n)| n.clone()).collect();
                match (key_columns(exprs), &**input) {
                    (Some(cols), Plan::Scan { table, filter }) => {
                        let t = self.table(table)?;
                        let (_, keys) = scan_keys(t, filter.as_ref(), &cols, None, deadline)?;
                        // One fused pass stands in for both operators.
                        path.push(0);
                        record(prof, start, path, keys.len());
                        path.pop();
                        record(prof, start, path, keys.len());
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
                        let (scanned, keys) =
                            scan_keys(t, filter.as_ref(), &cols, member, deadline)?;
                        count_semi_join();
                        path.extend([0, 0]);
                        record(prof, scan_start, path, scanned);
                        path.pop();
                        record(prof, start, path, keys.len());
                        path.pop();
                        record(prof, start, path, keys.len());
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
                        record(prof, start, path, out.keys.len());
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

/// Read the rows of `t` that pass `filter` straight into keys at
/// columns `cols`. With `member = (set, keys, anti)`, keep only the rows
/// whose key at `keys` is in `set` (not in it, under `anti`). Returns
/// the rows visited and the keys kept.
fn scan_keys(
    t: &Table,
    filter: Option<&Expr>,
    cols: &[usize],
    member: Option<(&KeySet, &[usize], bool)>,
    deadline: &Deadline,
) -> Result<(usize, Vec<Key>)> {
    let mut scanned = 0usize;
    let mut keys = Vec::new();
    let mut it = 0u32;
    for_each_matching(t, filter, |_, r| {
        deadline.tick(&mut it)?;
        scanned += 1;
        if let Some((set, probe_keys, anti)) = member {
            if set.contains(row_key(r, probe_keys)?) == anti {
                return Ok(());
            }
        }
        keys.push(row_key(r, cols)?);
        Ok(())
    })?;
    deadline.check()?;
    Ok((scanned, keys))
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
/// inserts rows referencing CLOB locators it just allocated) and are
/// buffered as WAL records. [`Txn::commit`] appends the batch plus a
/// commit frame and fsyncs per the database's [`crate::wal::SyncPolicy`]; only
/// then is the transaction durable. If the transaction is dropped
/// without committing — or a mid-batch operation fails — nothing is
/// logged, and recovery after a crash reflects none of it: crashes
/// never expose a partial transaction.
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
    /// Encoded WAL records of the applied ops, in apply order.
    pending: Vec<Vec<u8>>,
    dirty: bool,
    /// When the gate was taken, for `minidb.gate.write_hold`.
    acquired: Instant,
    _mark: GateMark,
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        gate_metrics().write_hold.record(nanos_between(self.acquired, Instant::now()));
    }
}

impl Txn<'_> {
    /// Record an op that applied: mark the transaction dirty and, on a
    /// durable database, queue its WAL record.
    fn log(&mut self, rec: impl FnOnce() -> WalRecord) {
        let encoded = self.wal.is_some().then(|| rec().encode());
        self.log_encoded(encoded);
    }

    /// [`Txn::log`] for a record encoded before its op applied (the op
    /// then moves its rows or bytes into the state instead of cloning
    /// them); `None` on an in-memory database.
    fn log_encoded(&mut self, encoded: Option<Vec<u8>>) {
        self.dirty = true;
        self.pending.extend(encoded);
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
        self.log(|| WalRecord::CreateTable { name, schema });
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
        self.log(|| WalRecord::CreateIndex {
            table: table.to_string(),
            name: index.to_string(),
            columns: cols,
            unique,
        });
        Ok(())
    }

    /// Create an index over already-resolved column positions.
    pub fn create_index_at(
        &mut self,
        table: &str,
        index: &str,
        columns: Vec<usize>,
        unique: bool,
    ) -> Result<()> {
        self.state.apply_create_index(table, index, &columns, unique)?;
        self.log(|| WalRecord::CreateIndex {
            table: table.to_string(),
            name: index.to_string(),
            columns,
            unique,
        });
        Ok(())
    }

    /// Insert fully-shaped rows. The WAL record is encoded first and
    /// the rows are then moved into the table; a failed insert logs
    /// nothing.
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let encoded = self.wal.is_some().then(|| encode_insert(table, &rows));
        let n = self.state.apply_insert(table, rows)?;
        self.log_encoded(encoded);
        Ok(n)
    }

    /// Delete rows matching `pred`; returns the count.
    pub fn delete_where(&mut self, table: &str, pred: &Expr) -> Result<usize> {
        let n = self.state.apply_delete_where(table, pred)?;
        self.log(|| WalRecord::DeleteWhere { table: table.to_string(), pred: pred.clone() });
        Ok(n)
    }

    /// Update rows matching `pred` (all when `None`); returns the count.
    pub fn update_where(
        &mut self,
        table: &str,
        pred: Option<&Expr>,
        sets: &[(usize, Expr)],
    ) -> Result<usize> {
        let n = self.state.apply_update_where(table, pred, sets)?;
        self.log(|| WalRecord::UpdateWhere {
            table: table.to_string(),
            pred: pred.cloned(),
            sets: sets.to_vec(),
        });
        Ok(n)
    }

    /// Remove all rows of a table; returns the count removed.
    pub fn truncate(&mut self, table: &str) -> Result<usize> {
        let n = self.state.apply_truncate(table)?;
        self.log(|| WalRecord::Truncate { table: table.to_string() });
        Ok(n)
    }

    /// Store `parts` as consecutive CLOBs in one heap buffer, returning
    /// their locators (see [`crate::clob`] for the layout). The WAL gets
    /// one `ClobPut` record per part, so the log is the same as for
    /// parts put one at a time.
    pub fn put_clobs<P: AsRef<[u8]>>(&mut self, parts: &[P]) -> Range<u64> {
        for p in parts {
            let encoded = self.wal.is_some().then(|| encode_clob_put(p.as_ref()));
            self.log_encoded(encoded);
        }
        self.state.clobs.put_clobs(parts)
    }

    /// Make the batch durable and visible: append + fsync the WAL
    /// records (durable databases), then publish the new commit
    /// watermark while still holding the visibility gate, so readers
    /// observe the whole batch and the bumped watermark together.
    pub fn commit(mut self) -> Result<()> {
        if let Some(w) = self.wal.as_mut() {
            if !self.pending.is_empty() {
                w.commit(&self.pending)?;
            }
        }
        if self.dirty {
            self.db.watermark.fetch_add(1, AtomicOrdering::SeqCst);
            obs::global().counter("minidb.txn.commits").incr();
        }
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
        gate_metrics().read_hold.record(nanos_between(self.acquired, Instant::now()));
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

    /// The CLOB heap, read-only. A [`ClobStore::get`] handle stays valid
    /// after the batch ends, so CLOB bytes can be resolved outside it.
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
    use crate::expr::ArithOp;
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
    fn sort_distinct_limit() {
        let db = db();
        // Employee id parity (1, 0, 1, 0), sorted descending.
        let parity = Expr::Arith(ArithOp::Mod, Box::new(Expr::col(0)), Box::new(Expr::lit(2)));
        let plan = Plan::Sort {
            input: Box::new(
                Plan::Scan { table: "emp".into(), filter: None }
                    .project(vec![(parity, "parity".into())]),
            ),
            keys: vec![(0, true)],
        };
        let rs = db.execute(&Plan::Distinct { input: Box::new(plan) }).unwrap();
        assert_eq!(rs.columns, ["parity"]);
        assert_eq!(rs.rows, vec![vec![Value::Int(1)], vec![Value::Int(0)]]);
        let limited = db
            .execute(&Plan::Limit {
                input: Box::new(Plan::Scan { table: "emp".into(), filter: None }),
                n: 2,
            })
            .unwrap();
        assert_eq!(limited.rows.len(), 2);
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
    fn update_keeps_indexes_current() {
        let db = db();
        db.create_index("emp", "by_dept", &["dept"], false).unwrap();
        let n = db.update_where("emp", Some(&Expr::col_eq(0, 1)), &[(1, Expr::lit("moved"))]);
        assert_eq!(n.unwrap(), 1);
        // Both keys are read through the index: the new one finds the
        // row, the old one no longer does.
        let moved = Plan::Scan { table: "emp".into(), filter: Some(Expr::col_eq(1, "moved")) };
        let explained = crate::explain::explain_analyze(&moved, &db).unwrap();
        assert!(explained.contains("via index by_dept"), "{explained}");
        assert_eq!(
            emp_where(&db, Expr::col_eq(1, "moved")),
            vec![vec![1.into(), "moved".into(), 100.into()]]
        );
        assert_eq!(
            emp_where(&db, Expr::col_eq(1, "eng")),
            vec![vec![2.into(), "eng".into(), 120.into()]]
        );
    }

    #[test]
    fn failed_update_leaves_the_row_as_it_was() {
        let db = db();
        let all = || db.execute(&Plan::Scan { table: "emp".into(), filter: None }).unwrap().rows;
        let before = all();
        // A SET whose value does not fit the column's type.
        let err = db.update_where("emp", None, &[(2, Expr::lit("nope"))]).unwrap_err();
        assert!(matches!(err, DbError::SchemaMismatch(_)), "{err}");
        assert_eq!(all(), before);
        // A SET that collides with a unique key.
        db.create_index("emp", "pk", &["id"], true).unwrap();
        let err = db
            .update_where("emp", Some(&Expr::col_eq(0, 2)), &[(0, Expr::lit(1))])
            .unwrap_err();
        assert!(matches!(err, DbError::Duplicate(_)), "{err}");
        assert_eq!(all(), before);
    }

    /// The API no longer writes `DropTable` or `Truncate` records, nor
    /// `IN` lists, but a log that holds them still replays.
    #[test]
    fn log_with_drop_truncate_and_in_list_replays() {
        use crate::wal::{write_frame, MemVfs};
        let int_table = || TableSchema::new(vec![Column::new("id", DataType::Int)]);
        let create = |name: &str| WalRecord::CreateTable { name: name.into(), schema: int_table() };
        let insert = |table: &str, ids: &[i64]| WalRecord::Insert {
            table: table.into(),
            rows: ids.iter().map(|&i| vec![Value::Int(i)]).collect(),
        };
        let mut log = encode_wal_header(1).to_vec();
        for rec in [
            create("t"),
            create("u"),
            create("v"),
            insert("t", &[1, 2, 3]),
            insert("u", &[9]),
            insert("v", &[5]),
            WalRecord::Commit { lsn: 1 },
            WalRecord::DeleteWhere {
                table: "t".into(),
                pred: Expr::InList(Box::new(Expr::col(0)), vec![1.into(), 4.into()]),
            },
            WalRecord::DropTable { name: "u".into() },
            WalRecord::Truncate { table: "v".into() },
            WalRecord::Commit { lsn: 2 },
        ] {
            write_frame(&mut log, &rec.encode());
        }
        let vfs = MemVfs::new();
        vfs.overwrite(WAL_FILE, log);
        let db = Database::open_with(Arc::new(vfs), WalOptions::default()).unwrap();
        let t = db.execute(&Plan::Scan { table: "t".into(), filter: None }).unwrap();
        assert_eq!(t.rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
        assert!(!db.has_table("u"));
        assert_eq!(db.row_count("v").unwrap(), 0);
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
        let m = gate_metrics();
        let counts = |m: &GateMetrics| {
            [m.read_wait.count(), m.read_hold.count(), m.write_wait.count(), m.write_hold.count()]
        };
        // Other tests share the process-global registry and run in
        // parallel, so only lower bounds hold.
        let before = counts(m);
        let rt = db.begin_read();
        assert!(m.read_wait.count() > before[0]);
        drop(rt);
        db.txn().commit().unwrap();
        let after = counts(m);
        for (b, a) in before.iter().zip(after) {
            assert!(a > *b, "before {before:?} after {after:?}");
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
