//! The database: a named-table catalog, CLOB heap, and plan executor.
//!
//! Concurrency model: the table map is guarded by one `RwLock`, and
//! each table by its own `RwLock` (`parking_lot`, per the project's
//! performance guidance). Readers executing plans take per-table read
//! locks only while materializing scans, so concurrent queries scale
//! and writers block only the tables they touch — this is what
//! experiment E8 measures.
//!
//! On top of the per-table locks sits a *commit-visibility gate*: every
//! [`Txn`] holds the gate exclusively from its first mutation to its
//! commit, and every plan execution (or [`Database::begin_read`]
//! batch) holds it shared. A transaction that touches several tables
//! therefore becomes visible to readers *atomically at commit* — a
//! concurrent query can never observe a half-applied multi-table write
//! (e.g. an object row whose attribute rows are still being inserted).
//! Committed transactions publish a monotonically increasing
//! *watermark* ([`Database::commit_watermark`]) that readers can use
//! to tell snapshots apart. Lock order is always
//! `WAL writer → visibility gate → table map → tables`, so the gate
//! adds no deadlock edge.

use crate::clob::ClobStore;
use crate::error::{DbError, Result};
use crate::exec::{run_aggregate, run_hash_join, run_semi_join, JoinKind, Plan, ResultSet};
use crate::expr::Expr;
use crate::keyset::{Key, KeySet, KeyedRows};
use crate::limits::Deadline;
use crate::profile::PlanProfile;
use crate::table::{Index, Row, RowId, Table, TableSchema};
use crate::value::{DataType, Value};
use crate::wal::{
    encode_wal_header, scan_wal, StdVfs, Vfs, WalOptions, WalRecord, WalWriter, SNAPSHOT_FILE,
    SNAPSHOT_TMP, WAL_FILE, WAL_TMP,
};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Instant;

/// Pick the index whose key covers the longest prefix of the
/// predicate's `col = lit` conjuncts; returns the index plus the lookup
/// key (shorter than the index key means prefix scan). The caller must
/// re-apply the full predicate to the narrowed row set.
fn select_index<'a>(guard: &'a Table, pred: &Expr) -> Option<(&'a Index, Vec<Value>)> {
    let pairs = pred.eq_conjunct_terms();
    if pairs.is_empty() {
        return None;
    }
    let mut best: Option<(&Index, usize)> = None;
    for idx in guard.indexes() {
        let mut p = 0;
        for &c in &idx.columns {
            if pairs.iter().any(|(pc, _)| *pc == c) {
                p += 1;
            } else {
                break;
            }
        }
        if p > 0 && best.map(|(_, bp)| p > bp).unwrap_or(true) {
            best = Some((idx, p));
        }
    }
    best.map(|(idx, p)| {
        let key: Vec<Value> = idx.columns[..p]
            .iter()
            .map(|c| {
                pairs
                    .iter()
                    .find(|(pc, _)| pc == c)
                    .map(|(_, v)| v.clone())
                    .expect("prefix columns come from pairs")
            })
            .collect();
        (idx, key)
    })
}

/// Visit every row of `guard` matching `filter` (routing through the
/// best covering index, as the generic scan does), in scan order.
fn for_each_matching(
    guard: &Table,
    filter: Option<&Expr>,
    mut f: impl FnMut(&Row) -> Result<()>,
) -> Result<()> {
    let Some(pred) = filter else {
        for (_, r) in guard.scan() {
            f(r)?;
        }
        return Ok(());
    };
    if let Some((idx, key)) = select_index(guard, pred) {
        if key.len() == idx.columns.len() {
            for &rid in idx.get(&key) {
                if let Some(r) = guard.get(rid) {
                    if pred.matches(r)? {
                        f(r)?;
                    }
                }
            }
        } else {
            for rid in idx.prefix_ids(&key) {
                if let Some(r) = guard.get(rid) {
                    if pred.matches(r)? {
                        f(r)?;
                    }
                }
            }
        }
    } else {
        for (_, r) in guard.scan() {
            if pred.matches(r)? {
                f(r)?;
            }
        }
    }
    Ok(())
}

/// Read the `i64` at column `c` (the keyed fast path shape-checks
/// columns as `INT NOT NULL` up front, so this is defensive).
fn int_at(r: &Row, c: usize) -> Result<i64> {
    match r.get(c) {
        Some(Value::Int(v)) => Ok(*v),
        other => Err(DbError::Plan(format!(
            "keyed fast path expected INT at column #{c}, got {other:?}"
        ))),
    }
}

/// Extract a 1- or 2-column key from a materialized row.
fn row_key(r: &Row, cols: &[usize]) -> Result<Key> {
    let a = int_at(r, cols[0])?;
    let b = if cols.len() == 2 { int_at(r, cols[1])? } else { 0 };
    Ok((a, b))
}

/// Project a key through 1 or 2 key-column positions (0 = first
/// component, 1 = second).
#[inline]
fn key_proj(k: Key, idxs: &[usize]) -> Key {
    let at = |i: usize| if i == 0 { k.0 } else { k.1 };
    (at(idxs[0]), if idxs.len() == 2 { at(idxs[1]) } else { 0 })
}

/// `true` when keys with `len` columns indexed by `idxs` are valid over
/// a keyed input of the given arity.
fn keys_ok(idxs: &[usize], arity: usize) -> bool {
    (1..=2).contains(&idxs.len()) && idxs.iter().all(|&k| k < arity)
}

/// Output column names of a keyable subtree (bottoms out at the
/// `Project` that names the key columns).
fn keyed_columns(plan: &Plan) -> Option<Vec<String>> {
    match plan {
        Plan::Distinct { input } => keyed_columns(input),
        Plan::HashSemiJoin { probe, .. } => keyed_columns(probe),
        Plan::Project { exprs, .. } => Some(exprs.iter().map(|(_, n)| n.clone()).collect()),
        _ => None,
    }
}

/// Record keyed-fast-path stats for the operator at `path`.
fn record_keyed(prof: &mut Option<PlanProfile>, start: Option<Instant>, path: &[u16], rows: usize) {
    if let (Some(p), Some(s)) = (prof.as_mut(), start) {
        let nanos = s.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        p.record_keyed(path.to_vec(), rows as u64, nanos);
    }
}

/// Durable-mode state: the VFS the database lives on plus the
/// serialized WAL appender. The writer mutex is always acquired before
/// any table or CLOB lock, so WAL order equals apply order.
pub(crate) struct Durability {
    vfs: Arc<dyn Vfs>,
    writer: Mutex<WalWriter>,
}

/// An embedded, in-memory relational database, optionally backed by a
/// write-ahead log (see [`Database::open`] and [`crate::wal`]).
#[derive(Default)]
pub struct Database {
    tables: RwLock<HashMap<String, Arc<RwLock<Table>>>>,
    /// CLOB heap shared by all tables (locators are `CLOB` columns).
    pub clobs: ClobStore,
    /// `Some` when opened durably; `None` for plain in-memory use.
    dur: Option<Durability>,
    /// Commit-visibility gate (see the module docs): held exclusively
    /// by each [`Txn`] for its whole life, shared by every reader, so
    /// multi-table writes become visible atomically at commit.
    vis: RwLock<()>,
    /// Count of committed transactions, published under the gate's
    /// exclusive hold — two reads observing the same watermark saw the
    /// same committed prefix of writes.
    watermark: AtomicU64,
}

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
            for (lsn, records) in &scan.txns {
                if *lsn <= snap_lsn {
                    continue;
                }
                for rec in records {
                    db.apply_record(rec).map_err(|e| {
                        DbError::Corrupt(format!("wal replay failed at lsn {lsn}: {e}"))
                    })?;
                    recovered += 1;
                }
            }
            obs::global().counter("wal.recovered_records").add(recovered);
            if (bytes.len() as u64) > scan.valid_len {
                vfs.set_len(WAL_FILE, scan.valid_len)?;
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
        let _gate = self.vis.read();
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
        let wal = self.dur.as_ref().map(|d| d.writer.lock());
        let vis = self.vis.write();
        Txn { db: self, wal, _vis: vis, pending: Vec::new(), dirty: false }
    }

    /// Begin a read batch: every plan executed through the returned
    /// [`ReadTxn`] sees the *same* committed state — no transaction can
    /// commit between the batch's executions. Use this when one logical
    /// read spans several plans (e.g. response reconstruction).
    pub fn begin_read(&self) -> ReadTxn<'_> {
        let gate = self.vis.read();
        ReadTxn { db: self, _gate: gate }
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
    /// excluded for the duration (writer lock held).
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

    /// Flush any batched (group-commit) WAL appends to disk.
    pub fn sync_wal(&self) -> Result<()> {
        match &self.dur {
            Some(d) => d.writer.lock().sync(),
            None => Ok(()),
        }
    }

    /// Create a table; errors if the name is taken.
    pub fn create_table(&self, name: impl Into<String>, schema: TableSchema) -> Result<()> {
        let mut t = self.txn();
        t.create_table(name, schema)?;
        t.commit()
    }

    /// Drop a table; errors if absent.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let mut t = self.txn();
        t.drop_table(name)?;
        t.commit()
    }

    fn apply_create_table(&self, name: &str, schema: &TableSchema) -> Result<()> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(DbError::TableExists(name.to_string()));
        }
        tables.insert(
            name.to_string(),
            Arc::new(RwLock::new(Table::new(name.to_string(), schema.clone()))),
        );
        Ok(())
    }

    fn apply_drop_table(&self, name: &str) -> Result<()> {
        self.tables
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    fn apply_create_index(
        &self,
        table: &str,
        index: &str,
        columns: &[usize],
        unique: bool,
    ) -> Result<()> {
        let t = self.table(table)?;
        let mut guard = t.write();
        guard.create_index(index, columns.to_vec(), unique)
    }

    fn apply_insert(&self, table: &str, rows: &[Row]) -> Result<usize> {
        let t = self.table(table)?;
        let mut guard = t.write();
        guard.insert_many(rows.iter().cloned())
    }

    fn apply_delete_where(&self, table: &str, pred: &Expr) -> Result<usize> {
        let t = self.table(table)?;
        let mut guard = t.write();
        let mut err = None;
        let n = guard.delete_where(|r| match pred.matches(r) {
            Ok(b) => b,
            Err(e) => {
                err = Some(e);
                false
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(n),
        }
    }

    fn apply_update_where(
        &self,
        table: &str,
        pred: Option<&Expr>,
        sets: &[(usize, Expr)],
    ) -> Result<usize> {
        let t = self.table(table)?;
        let mut guard = t.write();
        let victims: Vec<RowId> = guard
            .scan()
            .filter_map(|(rid, row)| match pred {
                None => Some(Ok(rid)),
                Some(p) => match p.matches(row) {
                    Ok(true) => Some(Ok(rid)),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                },
            })
            .collect::<Result<_>>()?;
        let mut n = 0;
        for rid in victims {
            let new_values: Vec<(usize, Value)> = {
                let row = guard.get(rid).expect("victim row is live").clone();
                sets.iter().map(|(c, e)| e.eval(&row).map(|v| (*c, v))).collect::<Result<_>>()?
            };
            guard.update(rid, |row| {
                for (c, v) in new_values {
                    row[c] = v;
                }
            })?;
            n += 1;
        }
        Ok(n)
    }

    fn apply_truncate(&self, table: &str) -> Result<usize> {
        let t = self.table(table)?;
        let mut guard = t.write();
        let n = guard.len();
        guard.truncate();
        Ok(n)
    }

    /// Apply one recovered WAL record to in-memory state (no logging).
    pub(crate) fn apply_record(&self, rec: &WalRecord) -> Result<()> {
        match rec {
            WalRecord::CreateTable { name, schema } => self.apply_create_table(name, schema),
            WalRecord::DropTable { name } => self.apply_drop_table(name),
            WalRecord::CreateIndex { table, name, columns, unique } => {
                self.apply_create_index(table, name, columns, *unique)
            }
            WalRecord::Insert { table, rows } => self.apply_insert(table, rows).map(|_| ()),
            WalRecord::DeleteWhere { table, pred } => {
                self.apply_delete_where(table, pred).map(|_| ())
            }
            WalRecord::UpdateWhere { table, pred, sets } => {
                self.apply_update_where(table, pred.as_ref(), sets).map(|_| ())
            }
            WalRecord::Truncate { table } => self.apply_truncate(table).map(|_| ()),
            WalRecord::ClobPut { data } => {
                self.clobs.put(data.clone());
                Ok(())
            }
            WalRecord::Commit { .. } => Ok(()),
        }
    }

    /// Handle to a table.
    pub fn table(&self, name: &str) -> Result<Arc<RwLock<Table>>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// True when `name` exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(name)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
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

    /// Store a CLOB, returning its locator. On a durable database the
    /// put is logged (its own transaction).
    pub fn put_clob(&self, data: Vec<u8>) -> Result<u64> {
        let mut t = self.txn();
        let loc = t.put_clob(data);
        t.commit()?;
        Ok(loc)
    }

    /// Number of live rows in a table.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.table(table)?.read().len())
    }

    /// Rough byte footprint of all tables plus the CLOB heap.
    pub fn approx_bytes(&self) -> usize {
        let tables = self.tables.read();
        let rows: usize = tables.values().map(|t| t.read().approx_bytes()).sum();
        rows + self.clobs.total_bytes()
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
        let _gate = self.vis.read();
        self.run(plan, &mut None, &deadline)
    }

    /// Execute a plan while collecting per-operator row counts and
    /// inclusive wall timings; operators are addressed by plan path
    /// (see [`PlanProfile`]). Powers `EXPLAIN ANALYZE`
    /// ([`crate::explain::explain_analyze`]).
    pub fn execute_profiled(&self, plan: &Plan) -> Result<(ResultSet, PlanProfile)> {
        let _gate = self.vis.read();
        let mut prof = Some(PlanProfile::default());
        let rs = self.run(plan, &mut prof, &Deadline::none())?;
        Ok((rs, prof.expect("profiler installed above")))
    }

    /// The executor entry behind every public `execute*`; the caller
    /// holds the visibility gate (shared, or exclusively as a [`Txn`]).
    fn run(
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
        // Set-oriented fast path: `Distinct` / semi-join subtrees whose
        // leaves project `INT NOT NULL` columns execute over compact
        // `(i64, i64)` keys, never cloning full rows. The early return
        // skips the generic stats recorder below — `eval_keys` records
        // its own per-operator stats flagged as keyed.
        if matches!(plan, Plan::Distinct { .. } | Plan::HashSemiJoin { .. })
            && self.keyed_arity(plan).is_some()
        {
            if let Some(columns) = keyed_columns(plan) {
                let keyed = self.eval_keys(plan, prof, path, deadline)?;
                return Ok(ResultSet { columns, rows: keyed.into_rows() });
            }
        }
        let start = prof.as_ref().map(|_| Instant::now());
        let result = match plan {
            Plan::Scan { table, filter } => {
                let t = self.table(table)?;
                let guard = t.read();
                let columns: Vec<String> =
                    guard.schema.columns.iter().map(|c| c.name.clone()).collect();
                let mut rows = Vec::with_capacity(guard.len());
                // `for_each_matching` routes through the index whose key
                // has the longest prefix of the predicate's `col = lit`
                // conjuncts; the full predicate is re-applied to the
                // narrowed row set, so partial coverage (and residual
                // range/LIKE terms) stay correct.
                let mut it = 0u32;
                for_each_matching(&guard, filter.as_ref(), |r| {
                    deadline.tick(&mut it)?;
                    rows.push(r.clone());
                    Ok(())
                })?;
                Ok(ResultSet { columns, rows })
            }
            Plan::IndexLookup { table, index, key, filter } => {
                let t = self.table(table)?;
                let guard = t.read();
                let columns: Vec<String> =
                    guard.schema.columns.iter().map(|c| c.name.clone()).collect();
                let idx = guard.index(index)?;
                let mut rows = Vec::new();
                let mut it = 0u32;
                let mut visit = |rid: usize| -> Result<()> {
                    deadline.tick(&mut it)?;
                    if let Some(r) = guard.get(rid) {
                        if match filter {
                            Some(p) => p.matches(r)?,
                            None => true,
                        } {
                            rows.push(r.clone());
                        }
                    }
                    Ok(())
                };
                if key.len() < idx.columns.len() {
                    for rid in idx.prefix_ids(key) {
                        visit(rid)?;
                    }
                } else {
                    for &rid in idx.get(key) {
                        visit(rid)?;
                    }
                }
                Ok(ResultSet { columns, rows })
            }
            Plan::IndexRange { table, index, lo, hi, filter } => {
                let t = self.table(table)?;
                let guard = t.read();
                let columns: Vec<String> =
                    guard.schema.columns.iter().map(|c| c.name.clone()).collect();
                let idx = guard.index(index)?;
                let mut rows = Vec::new();
                let mut it = 0u32;
                for rid in idx.range_ids(lo.as_deref(), hi.as_deref()) {
                    deadline.tick(&mut it)?;
                    if let Some(r) = guard.get(rid) {
                        if match filter {
                            Some(p) => p.matches(r)?,
                            None => true,
                        } {
                            rows.push(r.clone());
                        }
                    }
                }
                Ok(ResultSet { columns, rows })
            }
            Plan::Values { columns, rows } => {
                Ok(ResultSet { columns: columns.clone(), rows: rows.clone() })
            }
            Plan::Filter { input, pred } => {
                let mut rs = self.exec_child(input, prof, path, 0, deadline)?;
                let mut kept = Vec::with_capacity(rs.rows.len());
                for r in rs.rows.drain(..) {
                    if pred.matches(&r)? {
                        kept.push(r);
                    }
                }
                rs.rows = kept;
                Ok(rs)
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
            Plan::HashJoin { left, right, left_keys, right_keys, kind } => {
                let l = self.exec_child(left, prof, path, 0, deadline)?;
                let r = self.exec_child(right, prof, path, 1, deadline)?;
                run_hash_join(l, r, left_keys, right_keys, *kind, deadline)
            }
            Plan::HashSemiJoin { probe, build, probe_keys, build_keys, anti } => {
                // Generic (materializing) semi-join; keyable shapes were
                // already diverted to the fast path above.
                let p = self.exec_child(probe, prof, path, 0, deadline)?;
                let b = self.exec_child(build, prof, path, 1, deadline)?;
                obs::global().counter("minidb.semijoin.count").incr();
                run_semi_join(p, &b, probe_keys, build_keys, *anti)
            }
            Plan::NestedLoopJoin { left, right, pred, kind } => {
                let l = self.exec_child(left, prof, path, 0, deadline)?;
                let r = self.exec_child(right, prof, path, 1, deadline)?;
                let mut columns = l.columns.clone();
                columns.extend(r.columns.iter().cloned());
                let right_arity = r.columns.len();
                let mut rows = Vec::new();
                let mut it = 0u32;
                for lrow in &l.rows {
                    let mut matched = false;
                    for rrow in &r.rows {
                        // The one potentially quadratic operator: check
                        // per candidate pair so a runaway cross product
                        // hits the deadline while looping, not after
                        // materializing.
                        deadline.tick(&mut it)?;
                        let mut cand = lrow.clone();
                        cand.extend(rrow.iter().cloned());
                        let ok = match pred {
                            Some(p) => p.matches(&cand)?,
                            None => true,
                        };
                        if ok {
                            matched = true;
                            rows.push(cand);
                        }
                    }
                    if !matched && *kind == JoinKind::Left {
                        let mut out = lrow.clone();
                        out.extend(std::iter::repeat_n(Value::Null, right_arity));
                        rows.push(out);
                    }
                }
                Ok(ResultSet { columns, rows })
            }
            Plan::Aggregate { input, group_by, aggs } => {
                let rs = self.exec_child(input, prof, path, 0, deadline)?;
                run_aggregate(rs, group_by, aggs)
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
            Plan::Distinct { input } => {
                let mut rs = self.exec_child(input, prof, path, 0, deadline)?;
                let mut seen = std::collections::HashSet::new();
                rs.rows.retain(|r| seen.insert(r.clone()));
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

    /// `true` when every listed column of `table` is `INT NOT NULL` —
    /// the precondition for representing its rows as `(i64, i64)` keys.
    fn int_non_null_cols(&self, table: &str, cols: &[usize]) -> bool {
        let Ok(t) = self.table(table) else {
            return false;
        };
        let guard = t.read();
        cols.iter().all(|&c| {
            guard
                .schema
                .columns
                .get(c)
                .map(|col| matches!(col.dtype, DataType::Int) && !col.nullable)
                .unwrap_or(false)
        })
    }

    /// Shape check for the set-oriented fast path: returns the key
    /// arity (1 or 2) the subtree produces, or `None` when any part of
    /// it needs generic row-at-a-time execution. Pure — nothing is
    /// executed, so a `None` costs only the traversal.
    fn keyed_arity(&self, plan: &Plan) -> Option<usize> {
        match plan {
            Plan::Distinct { input } => self.keyed_arity(input),
            Plan::HashSemiJoin { probe, build, probe_keys, build_keys, .. } => {
                let pa = self.keyed_arity(probe)?;
                let ba = self.keyed_arity(build)?;
                (keys_ok(probe_keys, pa)
                    && keys_ok(build_keys, ba)
                    && probe_keys.len() == build_keys.len())
                .then_some(pa)
            }
            Plan::Project { input, exprs } => {
                if exprs.is_empty() || exprs.len() > 2 {
                    return None;
                }
                let mut cols = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    match e {
                        Expr::Col(i) => cols.push(*i),
                        _ => return None,
                    }
                }
                match &**input {
                    Plan::Scan { table, .. } => {
                        self.int_non_null_cols(table, &cols).then_some(cols.len())
                    }
                    // Fused shape: project straight out of a semi-join
                    // whose probe is a base-table scan (membership is
                    // tested during the scan, before any projection).
                    Plan::HashSemiJoin { probe, build, probe_keys, build_keys, .. }
                        if matches!(&**probe, Plan::Scan { .. }) =>
                    {
                        let Plan::Scan { table, .. } = &**probe else {
                            return None;
                        };
                        let ba = self.keyed_arity(build)?;
                        let mut need = cols.clone();
                        need.extend_from_slice(probe_keys);
                        (self.int_non_null_cols(table, &need)
                            && keys_ok(build_keys, ba)
                            && (1..=2).contains(&probe_keys.len())
                            && probe_keys.len() == build_keys.len())
                        .then_some(cols.len())
                    }
                    other => {
                        let a = self.keyed_arity(other)?;
                        cols.iter().all(|&c| c < a).then_some(cols.len())
                    }
                }
            }
            _ => None,
        }
    }

    /// Execute a keyable subtree (see [`Database::keyed_arity`]) over
    /// compact integer keys, recording keyed per-operator stats so
    /// `EXPLAIN ANALYZE` output stays fully annotated.
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
                path.push(0);
                let k = self.eval_keys(input, prof, path, deadline)?;
                path.pop();
                let k = k.dedup_first_occurrence();
                deadline.check()?;
                record_keyed(prof, start, path, k.keys.len());
                Ok(k)
            }
            Plan::HashSemiJoin { probe, build, probe_keys, build_keys, anti } => {
                path.push(1);
                let bk = self.eval_keys(build, prof, path, deadline)?;
                path.pop();
                path.push(0);
                let mut pk = self.eval_keys(probe, prof, path, deadline)?;
                path.pop();
                let set = KeySet::build(bk.keys.iter().map(|&k| key_proj(k, build_keys)).collect());
                pk.keys.retain(|&k| set.contains(key_proj(k, probe_keys)) != *anti);
                deadline.check()?;
                let reg = obs::global();
                reg.counter("minidb.semijoin.count").incr();
                reg.counter("minidb.semijoin.keyed").incr();
                record_keyed(prof, start, path, pk.keys.len());
                Ok(pk)
            }
            Plan::Project { input, exprs } => {
                let mut cols = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    match e {
                        Expr::Col(i) => cols.push(*i),
                        other => {
                            return Err(DbError::Plan(format!(
                                "keyed fast path hit non-column projection {other:?}"
                            )))
                        }
                    }
                }
                match &**input {
                    Plan::Scan { table, filter } => {
                        let t = self.table(table)?;
                        let guard = t.read();
                        let mut keys = Vec::new();
                        let mut it = 0u32;
                        for_each_matching(&guard, filter.as_ref(), |r| {
                            deadline.tick(&mut it)?;
                            keys.push(row_key(r, &cols)?);
                            Ok(())
                        })?;
                        deadline.check()?;
                        // One fused pass stands in for both operators.
                        path.push(0);
                        record_keyed(prof, start, path, keys.len());
                        path.pop();
                        record_keyed(prof, start, path, keys.len());
                        Ok(KeyedRows { arity: cols.len(), keys })
                    }
                    Plan::HashSemiJoin { probe, build, probe_keys, build_keys, anti }
                        if matches!(&**probe, Plan::Scan { .. }) =>
                    {
                        let Plan::Scan { table, filter } = &**probe else {
                            unreachable!("guarded by the match arm");
                        };
                        path.push(0);
                        path.push(1);
                        let bk = self.eval_keys(build, prof, path, deadline)?;
                        path.pop();
                        path.pop();
                        let set = KeySet::build(
                            bk.keys.iter().map(|&k| key_proj(k, build_keys)).collect(),
                        );
                        let scan_start = prof.as_ref().map(|_| Instant::now());
                        let t = self.table(table)?;
                        let guard = t.read();
                        let mut scanned = 0usize;
                        let mut keys = Vec::new();
                        let mut it = 0u32;
                        for_each_matching(&guard, filter.as_ref(), |r| {
                            deadline.tick(&mut it)?;
                            scanned += 1;
                            if set.contains(row_key(r, probe_keys)?) != *anti {
                                keys.push(row_key(r, &cols)?);
                            }
                            Ok(())
                        })?;
                        deadline.check()?;
                        let reg = obs::global();
                        reg.counter("minidb.semijoin.count").incr();
                        reg.counter("minidb.semijoin.keyed").incr();
                        path.push(0);
                        path.push(0);
                        record_keyed(prof, scan_start, path, scanned);
                        path.pop();
                        record_keyed(prof, start, path, keys.len());
                        path.pop();
                        record_keyed(prof, start, path, keys.len());
                        Ok(KeyedRows { arity: cols.len(), keys })
                    }
                    other => {
                        path.push(0);
                        let k = self.eval_keys(other, prof, path, deadline)?;
                        path.pop();
                        let keys = k.keys.iter().map(|&key| key_proj(key, &cols)).collect();
                        let out = KeyedRows { arity: cols.len(), keys };
                        record_keyed(prof, start, path, out.keys.len());
                        Ok(out)
                    }
                }
            }
            other => Err(DbError::Plan(format!(
                "keyed fast path reached non-keyable operator {other:?}"
            ))),
        }
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

    /// Remove all rows of a table; returns the count removed.
    pub fn truncate_table(&self, table: &str) -> Result<usize> {
        let mut t = self.txn();
        let n = t.truncate(table)?;
        t.commit()?;
        Ok(n)
    }
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
/// database's commit-visibility gate exclusively, so plan-executing
/// readers are excluded from its first mutation until commit — they
/// see either none of the batch or all of it, never a torn middle.
pub struct Txn<'a> {
    db: &'a Database,
    wal: Option<MutexGuard<'a, WalWriter>>,
    _vis: RwLockWriteGuard<'a, ()>,
    pending: Vec<WalRecord>,
    dirty: bool,
}

impl Txn<'_> {
    fn log(&mut self, rec: impl FnOnce() -> WalRecord) {
        self.dirty = true;
        if self.wal.is_some() {
            self.pending.push(rec());
        }
    }

    /// Execute a read plan *inside* the transaction: the result
    /// reflects the transaction's own uncommitted mutations. Because
    /// the transaction already owns the visibility gate exclusively,
    /// this is how read-modify-write sequences (look up current
    /// sequence numbers, then insert) stay atomic with respect to
    /// concurrent writers.
    pub fn execute(&self, plan: &Plan) -> Result<ResultSet> {
        self.db.run(plan, &mut None, &Deadline::none())
    }

    /// Create a table (see [`Database::create_table`]).
    pub fn create_table(&mut self, name: impl Into<String>, schema: TableSchema) -> Result<()> {
        let name = name.into();
        self.db.apply_create_table(&name, &schema)?;
        self.log(|| WalRecord::CreateTable { name, schema });
        Ok(())
    }

    /// Drop a table.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.db.apply_drop_table(name)?;
        self.log(|| WalRecord::DropTable { name: name.to_string() });
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
            let t = self.db.table(table)?;
            let guard = t.read();
            columns.iter().map(|c| guard.schema.col(c)).collect::<Result<_>>()?
        };
        self.db.apply_create_index(table, index, &cols, unique)?;
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
        self.db.apply_create_index(table, index, &columns, unique)?;
        self.log(|| WalRecord::CreateIndex {
            table: table.to_string(),
            name: index.to_string(),
            columns,
            unique,
        });
        Ok(())
    }

    /// Insert fully-shaped rows.
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let n = self.db.apply_insert(table, &rows)?;
        self.log(|| WalRecord::Insert { table: table.to_string(), rows });
        Ok(n)
    }

    /// Delete rows matching `pred`; returns the count.
    pub fn delete_where(&mut self, table: &str, pred: &Expr) -> Result<usize> {
        let n = self.db.apply_delete_where(table, pred)?;
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
        let n = self.db.apply_update_where(table, pred, sets)?;
        self.log(|| WalRecord::UpdateWhere {
            table: table.to_string(),
            pred: pred.cloned(),
            sets: sets.to_vec(),
        });
        Ok(n)
    }

    /// Remove all rows of a table; returns the count removed.
    pub fn truncate(&mut self, table: &str) -> Result<usize> {
        let n = self.db.apply_truncate(table)?;
        self.log(|| WalRecord::Truncate { table: table.to_string() });
        Ok(n)
    }

    /// Store a CLOB, returning its locator.
    pub fn put_clob(&mut self, data: Vec<u8>) -> u64 {
        self.dirty = true;
        if self.wal.is_some() {
            let loc = self.db.clobs.put(data.clone());
            self.pending.push(WalRecord::ClobPut { data });
            loc
        } else {
            self.db.clobs.put(data)
        }
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
/// commit while the batch is open, so every plan executed through it
/// observes the same committed state.
pub struct ReadTxn<'a> {
    db: &'a Database,
    _gate: RwLockReadGuard<'a, ()>,
}

impl ReadTxn<'_> {
    /// Execute a plan against the batch's snapshot.
    pub fn execute(&self, plan: &Plan) -> Result<ResultSet> {
        self.execute_with(plan, Deadline::none())
    }

    /// [`ReadTxn::execute`] under the request's deadline (see
    /// [`Database::execute_with`]).
    pub fn execute_with(&self, plan: &Plan, deadline: Deadline) -> Result<ResultSet> {
        self.db.run(plan, &mut None, &deadline)
    }

    /// Number of live rows in a table, as of the batch's snapshot.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.db.table(table)?.read().len())
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
    use crate::value::DataType;

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
        let rs = db
            .execute(&Plan::IndexLookup {
                table: "emp".into(),
                index: "by_salary".into(),
                key: vec![100.into()],
                filter: None,
            })
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        let rng = db
            .execute(&Plan::IndexRange {
                table: "emp".into(),
                index: "by_salary".into(),
                lo: Some(vec![90.into()]),
                hi: Some(vec![110.into()]),
                filter: None,
            })
            .unwrap();
        assert_eq!(rng.rows.len(), 2);
    }

    #[test]
    fn join_project_aggregate_pipeline() {
        let db = db();
        // SELECT dept.building, COUNT(*), SUM(salary) FROM emp JOIN dept
        // ON emp.dept = dept.name GROUP BY building
        let plan = Plan::Scan { table: "emp".into(), filter: None }
            .hash_join(Plan::Scan { table: "dept".into(), filter: None }, vec![1], vec![0])
            .aggregate(
                vec![4],
                vec![
                    crate::exec::AggCall::count_star("n"),
                    crate::exec::AggCall::of(crate::exec::AggFunc::Sum, Expr::col(2), "total"),
                ],
            );
        let rs = db.execute(&plan).unwrap();
        assert_eq!(rs.rows.len(), 2);
        let b1 = rs.rows.iter().find(|r| r[0] == Value::Str("B1".into())).unwrap();
        assert_eq!(b1[1], Value::Int(2));
        assert_eq!(b1[2], Value::Int(220));
    }

    #[test]
    fn left_join_pads_nulls() {
        let db = db();
        let plan = Plan::HashJoin {
            left: Box::new(Plan::Scan { table: "emp".into(), filter: None }),
            right: Box::new(Plan::Scan { table: "dept".into(), filter: None }),
            left_keys: vec![1],
            right_keys: vec![0],
            kind: JoinKind::Left,
        };
        let rs = db.execute(&plan).unwrap();
        assert_eq!(rs.rows.len(), 4);
        let hr = rs.rows.iter().find(|r| r[1] == Value::Str("hr".into())).unwrap();
        assert!(hr[3].is_null());
    }

    #[test]
    fn sort_distinct_limit() {
        let db = db();
        let plan = Plan::Sort {
            input: Box::new(
                Plan::Scan { table: "emp".into(), filter: None }
                    .project(vec![(Expr::col(1), "dept".into())]),
            ),
            keys: vec![(0, false)],
        };
        let rs = db.execute(&Plan::Distinct { input: Box::new(plan) }).unwrap();
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0][0], Value::Str("eng".into()));
        let limited = db
            .execute(&Plan::Limit {
                input: Box::new(Plan::Scan { table: "emp".into(), filter: None }),
                n: 2,
            })
            .unwrap();
        assert_eq!(limited.rows.len(), 2);
    }

    #[test]
    fn nested_loop_non_equi() {
        let db = db();
        // Pairs of employees where left salary < right salary.
        let plan = Plan::NestedLoopJoin {
            left: Box::new(Plan::Scan { table: "emp".into(), filter: None }),
            right: Box::new(Plan::Scan { table: "emp".into(), filter: None }),
            pred: Some(Expr::Cmp(
                crate::expr::CmpOp::Lt,
                Box::new(Expr::col(2)),
                Box::new(Expr::col(5)),
            )),
            kind: JoinKind::Inner,
        };
        let rs = db.execute(&plan).unwrap();
        assert_eq!(rs.rows.len(), 6);
    }

    #[test]
    fn delete_where_and_drop() {
        let db = db();
        let n = db.delete_where("emp", &Expr::col_eq(1, "eng")).unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.row_count("emp").unwrap(), 2);
        db.drop_table("emp").unwrap();
        assert!(db.execute(&Plan::Scan { table: "emp".into(), filter: None }).is_err());
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
    fn keyed_semi_join_agrees_with_generic() {
        let db = keyed_tables();
        let probe = Plan::Scan { table: "p".into(), filter: None }
            .project(vec![(Expr::col(0), "a".into()), (Expr::col(1), "b".into())]);
        let build = Plan::Scan { table: "q".into(), filter: None }
            .project(vec![(Expr::col(0), "a".into())]);
        let keyed = Plan::Distinct {
            input: Box::new(probe.clone().semi_join(build.clone(), vec![0], vec![0])),
        };
        // A Filter above the probe breaks the keyable shape, forcing
        // the generic materializing semi-join over the same data.
        let all_pass =
            Expr::Cmp(crate::expr::CmpOp::Ge, Box::new(Expr::col(1)), Box::new(Expr::lit(0)));
        let generic = Plan::Distinct {
            input: Box::new(probe.clone().filter(all_pass).semi_join(
                build.clone(),
                vec![0],
                vec![0],
            )),
        };
        let fast = db.execute(&keyed).unwrap();
        let slow = db.execute(&generic).unwrap();
        assert!(!fast.rows.is_empty());
        assert_eq!(fast.rows, slow.rows);
        // Anti variant: keyed and generic agree, and together they
        // partition the distinct probe rows.
        let keyed_anti = Plan::Distinct {
            input: Box::new(probe.clone().anti_join(build.clone(), vec![0], vec![0])),
        };
        let anti = db.execute(&keyed_anti).unwrap();
        let distinct_probe = db.execute(&Plan::Distinct { input: Box::new(probe) }).unwrap();
        assert_eq!(anti.rows.len() + fast.rows.len(), distinct_probe.rows.len());
    }

    #[test]
    fn keyed_fast_path_annotates_profile() {
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
        let root = profile.root().unwrap();
        assert!(root.keyed);
        assert_eq!(root.rows_out, rs.rows.len() as u64);
        // Every operator of the keyed subtree is annotated: Distinct,
        // semi-join, both projects, both scans.
        assert_eq!(profile.len(), 6);
        assert!(profile.get(&[0]).unwrap().keyed);
        assert!(profile.get(&[0, 1]).unwrap().keyed);
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
