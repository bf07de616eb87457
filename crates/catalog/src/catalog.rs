//! The catalog façade: ingest, query, and response building in one
//! object (what myLEAD's server exposes to the grid).

use crate::defs::{AttrId, DefLevel, DefsRegistry, DynamicAttrSpec};
use crate::engine::{execute_match_plan, run_flat_query, MatchStrategy};
use crate::error::{CatalogError, Result};
use crate::ordering::GlobalOrdering;
use crate::partition::Partition;
use crate::qparse::normalize_query;
use crate::query::ObjectQuery;
use crate::reqctx::RequestCtx;
use crate::response;
use crate::shred::{DynamicConvention, ShredOptions, ShreddedDoc, Shredder};
use crate::store;
use minidb::{Database, Expr, Plan, Value};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use xmlkit::dom::Document;

/// Maximum cached match plans; least-recently-used entries are evicted.
const PLAN_CACHE_CAP: usize = 128;

/// One cached plan, tagged with the defs epoch it was built under.
struct CacheEntry {
    epoch: u64,
    last_used: u64,
    plan: Arc<Plan>,
}

/// LRU cache of built match plans keyed by `(strategy, normalized
/// query)`. Entries built under an older definitions epoch are treated
/// as absent (new definitions can change how a query resolves).
#[derive(Default)]
struct PlanCache {
    map: HashMap<String, CacheEntry>,
    tick: u64,
}

impl PlanCache {
    fn get(&mut self, key: &str, epoch: u64) -> Option<Arc<Plan>> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(e) if e.epoch == epoch => {
                e.last_used = self.tick;
                Some(e.plan.clone())
            }
            Some(_) => {
                self.map.remove(key);
                None
            }
            None => None,
        }
    }

    fn put(&mut self, key: String, epoch: u64, plan: Arc<Plan>) {
        self.tick += 1;
        if self.map.len() >= PLAN_CACHE_CAP && !self.map.contains_key(&key) {
            if let Some(victim) =
                self.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            }
        }
        let last_used = self.tick;
        self.map.insert(key, CacheEntry { epoch, last_used, plan });
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Catalog configuration.
#[derive(Debug, Clone, Default)]
pub struct CatalogConfig {
    /// Dynamic-attribute naming convention (LEAD's by default).
    pub convention: DynamicConvention,
    /// Shredding strictness.
    pub shred: ShredOptions,
    /// Auto-register unknown dynamic attributes from their first
    /// occurrence instead of storing them CLOB-only.
    pub auto_register: bool,
    /// Query matching strategy.
    pub strategy: MatchStrategy,
}

/// Aggregate catalog statistics (storage accounting for E6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogStats {
    /// Cataloged objects.
    pub objects: usize,
    /// Attribute instance rows.
    pub attr_rows: usize,
    /// Element instance rows.
    pub elem_rows: usize,
    /// Inverted-list rows.
    pub ancestor_rows: usize,
    /// Stored CLOBs.
    pub clob_count: usize,
    /// Total CLOB bytes.
    pub clob_bytes: usize,
    /// Registered attribute definitions.
    pub attr_defs: usize,
    /// Registered element definitions.
    pub elem_defs: usize,
    /// Relational tables in the store (constant for the hybrid design —
    /// the E5 contrast with inlining's per-structure table growth).
    pub table_count: usize,
}

/// A hybrid XML-relational metadata catalog.
pub struct MetadataCatalog {
    db: Database,
    partition: Partition,
    ordering: GlobalOrdering,
    defs: RwLock<DefsRegistry>,
    config: CatalogConfig,
    next_object: AtomicI64,
    /// Bumped whenever attribute definitions change; cached plans from
    /// older epochs are invalid.
    defs_epoch: AtomicU64,
    plan_cache: Mutex<PlanCache>,
}

impl MetadataCatalog {
    /// Create a catalog over a partitioned schema.
    pub fn new(partition: Partition, config: CatalogConfig) -> Result<MetadataCatalog> {
        Self::bootstrap(Database::new(), partition, config)
    }

    /// Build a catalog into an empty database (freshly created, or a
    /// durable database whose directory held no prior state).
    pub(crate) fn bootstrap(
        db: Database,
        partition: Partition,
        config: CatalogConfig,
    ) -> Result<MetadataCatalog> {
        store::create_tables(&db)?;
        let ordering = GlobalOrdering::new(&partition);
        store::load_ordering(&db, &ordering)?;
        let defs = DefsRegistry::from_partition(&partition, &ordering);
        store::sync_defs(&db, &defs)?;
        Ok(MetadataCatalog {
            db,
            partition,
            ordering,
            defs: RwLock::new(defs),
            config,
            next_object: AtomicI64::new(1),
            defs_epoch: AtomicU64::new(0),
            plan_cache: Mutex::new(PlanCache::default()),
        })
    }

    /// Assemble a catalog from already-loaded parts (snapshot loading).
    pub(crate) fn from_parts(
        db: Database,
        partition: Partition,
        ordering: GlobalOrdering,
        defs: DefsRegistry,
        config: CatalogConfig,
        next_object: i64,
    ) -> Result<MetadataCatalog> {
        store::sync_defs(&db, &defs)?;
        Ok(MetadataCatalog {
            db,
            partition,
            ordering,
            defs: RwLock::new(defs),
            config,
            next_object: AtomicI64::new(next_object),
            defs_epoch: AtomicU64::new(0),
            plan_cache: Mutex::new(PlanCache::default()),
        })
    }

    /// The partition this catalog serves.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The global schema ordering.
    pub fn ordering(&self) -> &GlobalOrdering {
        &self.ordering
    }

    /// The underlying database, for SQL inspection of the store.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Register a dynamic attribute at the dynamic root addressed by
    /// `anchor_path` (e.g. `/LEADresource/data/geospatial/eainfo/detailed`).
    pub fn register_dynamic(
        &self,
        anchor_path: &str,
        spec: &DynamicAttrSpec,
        level: DefLevel,
    ) -> Result<AttrId> {
        let anchor =
            self.partition.schema().resolve_path(anchor_path).ok_or_else(|| {
                CatalogError::Definition(format!("no schema node at {anchor_path}"))
            })?;
        let mut defs = self.defs.write();
        let id = defs.register_dynamic(&self.partition, &self.ordering, anchor, spec, level)?;
        store::sync_defs(&self.db, &defs)?;
        self.defs_epoch.fetch_add(1, AtomicOrdering::SeqCst);
        Ok(id)
    }

    /// Parse and shred a document *without* storing it (the CPU-bound
    /// half of ingest; used by parallel ingest pipelines).
    pub fn shred_only(&self, xml: &str) -> Result<ShreddedDoc> {
        let reg = obs::global();
        let doc = {
            let _span = reg.span("catalog.parse");
            Document::parse(xml)?
        };
        let defs = self.defs.read();
        let shredder = Shredder::new(
            &self.partition,
            &self.ordering,
            &self.config.convention,
            self.config.shred.clone(),
        );
        let out = {
            let _span = reg.span("catalog.shred");
            shredder.shred(&doc, &defs)?
        };
        drop(defs);
        if self.config.auto_register && !out.inferred.is_empty() {
            // Register what the document taught us, then re-shred so its
            // rows land in the query tables too.
            {
                let mut defs = self.defs.write();
                for (anchor, spec) in &out.inferred {
                    // Races between ingest threads can register the same
                    // spec twice; the second registration fails benignly.
                    let _ = defs.register_dynamic(
                        &self.partition,
                        &self.ordering,
                        *anchor,
                        spec,
                        DefLevel::Admin,
                    );
                }
                store::sync_defs(&self.db, &defs)?;
                self.defs_epoch.fetch_add(1, AtomicOrdering::SeqCst);
            }
            let defs = self.defs.read();
            let shredder = Shredder::new(
                &self.partition,
                &self.ordering,
                &self.config.convention,
                self.config.shred.clone(),
            );
            let _span = reg.span("catalog.shred");
            return shredder.shred(&doc, &defs);
        }
        Ok(out)
    }

    /// Store a shredded document under a fresh object id. One
    /// transaction: on a durable catalog a crash either keeps the whole
    /// document (object row, instance rows, CLOBs) or none of it.
    pub fn apply(
        &self,
        shredded: &ShreddedDoc,
        owner: Option<&str>,
        name: Option<&str>,
    ) -> Result<i64> {
        let object_id = self.next_object.fetch_add(1, AtomicOrdering::Relaxed);
        let mut txn = self.db.txn();
        txn.insert(
            "objects",
            vec![vec![
                Value::Int(object_id),
                owner.map(|s| Value::Str(s.into())).unwrap_or(Value::Null),
                name.map(|s| Value::Str(s.into())).unwrap_or(Value::Null),
            ]],
        )?;
        Self::apply_rows(&mut txn, object_id, shredded)?;
        txn.commit()?;
        Ok(object_id)
    }

    /// Insert a shredded batch's rows under an existing object id, into
    /// an open transaction.
    fn apply_rows(txn: &mut minidb::Txn<'_>, object_id: i64, shredded: &ShreddedDoc) -> Result<()> {
        let reg = obs::global();
        let _span = reg.span("catalog.apply");
        reg.counter("catalog.shred.attr_rows").add(shredded.attrs.len() as u64);
        reg.counter("catalog.shred.elem_rows").add(shredded.elems.len() as u64);
        reg.counter("catalog.clob.bytes_written")
            .add(shredded.clobs.iter().map(|c| c.xml.len() as u64).sum());
        let clob_rows: Vec<Vec<Value>> = shredded
            .clobs
            .iter()
            .map(|c| {
                let locator = txn.put_clob(c.xml.clone().into_bytes());
                vec![
                    Value::Int(object_id),
                    Value::Int(c.attr_id),
                    Value::Int(c.order as i64),
                    Value::Int(c.clob_seq),
                    Value::Int(locator as i64),
                ]
            })
            .collect();
        txn.insert("clobs", clob_rows)?;
        txn.insert(
            "attrs",
            shredded
                .attrs
                .iter()
                .map(|a| {
                    vec![
                        Value::Int(object_id),
                        Value::Int(a.attr_id),
                        Value::Int(a.seq),
                        a.clob_seq.map(Value::Int).unwrap_or(Value::Null),
                    ]
                })
                .collect(),
        )?;
        txn.insert(
            "elems",
            shredded
                .elems
                .iter()
                .map(|e| {
                    vec![
                        Value::Int(object_id),
                        Value::Int(e.attr_id),
                        Value::Int(e.attr_seq),
                        Value::Int(e.elem_id),
                        Value::Int(e.elem_seq),
                        Value::Str(e.value.clone()),
                        e.num.map(Value::Float).unwrap_or(Value::Null),
                    ]
                })
                .collect(),
        )?;
        txn.insert(
            "attr_anc",
            shredded
                .ancestors
                .iter()
                .map(|a| {
                    vec![
                        Value::Int(object_id),
                        Value::Int(a.attr_id),
                        Value::Int(a.seq),
                        Value::Int(a.anc_attr_id),
                        Value::Int(a.anc_seq),
                        Value::Int(a.distance),
                    ]
                })
                .collect(),
        )?;
        Ok(())
    }

    /// Add one attribute instance to an existing object — the paper's
    /// incremental-metadata path (§3/§5: attributes "inserted later").
    /// `fragment_xml` is a single attribute subtree (e.g. a `<theme>`
    /// or `<detailed>` element). Only *new* rows are written: the
    /// schema-level global ordering means no per-document renumbering
    /// (the E7 ablation measures the alternative).
    pub fn add_attribute(&self, object_id: i64, fragment_xml: &str) -> Result<()> {
        // Parse and resolve the fragment before taking any write lock.
        let doc = Document::parse(fragment_xml)?;
        let tag = doc.node(doc.root()).name().unwrap_or("").to_string();
        let schema = self.partition.schema();
        let snode = self
            .partition
            .attr_roots()
            .iter()
            .copied()
            .find(|&n| schema.node(n).name == tag)
            .ok_or_else(|| {
                CatalogError::BadQuery(format!("{tag} is not a metadata attribute of this schema"))
            })?;
        // One transaction for the whole read-modify-write: the
        // existence check and sequence seeds are read through the
        // transaction (which owns the visibility gate), so two
        // concurrent ADDs to the same object cannot both read the same
        // seed and collide, and no reader sees the fragment half
        // applied. Lock order: defs before the transaction's WAL +
        // visibility locks — `register_dynamic` holds the defs write
        // lock while it syncs the definition mirror through its own
        // transaction, so acquiring defs after `txn()` would deadlock.
        let defs = self.defs.read();
        let mut txn = self.db.txn();
        let exists = !txn
            .execute(&Plan::Scan {
                table: "objects".into(),
                filter: Some(Expr::col_eq(0, object_id)),
            })?
            .rows
            .is_empty();
        if !exists {
            return Err(CatalogError::NoSuchObject(object_id));
        }
        // Seed same-sibling counters from the object's current rows so
        // the new instance continues the sequence.
        let mut seq_seed: std::collections::HashMap<crate::defs::AttrId, i64> =
            std::collections::HashMap::new();
        for row in txn
            .execute(&Plan::Scan {
                table: "attrs".into(),
                filter: Some(Expr::col_eq(0, object_id)),
            })?
            .rows
        {
            if let (Some(a), Some(sq)) = (row[1].as_i64(), row[2].as_i64()) {
                let e = seq_seed.entry(a).or_insert(0);
                *e = (*e).max(sq);
            }
        }
        let mut clob_seed: std::collections::HashMap<crate::ordering::OrderId, i64> =
            std::collections::HashMap::new();
        for row in txn
            .execute(&Plan::Scan {
                table: "clobs".into(),
                filter: Some(Expr::col_eq(0, object_id)),
            })?
            .rows
        {
            if let (Some(o), Some(cs)) = (row[2].as_i64(), row[3].as_i64()) {
                let e = clob_seed.entry(o as crate::ordering::OrderId).or_insert(0);
                *e = (*e).max(cs);
            }
        }
        let shredder = Shredder::new(
            &self.partition,
            &self.ordering,
            &self.config.convention,
            self.config.shred.clone(),
        );
        let shredded = shredder.shred_fragment(&doc, &defs, snode, seq_seed, clob_seed)?;
        drop(defs);
        Self::apply_rows(&mut txn, object_id, &shredded)?;
        txn.commit()?;
        Ok(())
    }

    /// Ingest one document: parse, shred, validate, store.
    pub fn ingest(&self, xml: &str) -> Result<i64> {
        let _span = obs::global().span("catalog.ingest");
        let shredded = self.shred_only(xml)?;
        let id = self.apply(&shredded, None, None)?;
        obs::global().counter("catalog.ingest.docs").incr();
        Ok(id)
    }

    /// Ingest with provenance metadata.
    pub fn ingest_as(&self, xml: &str, owner: &str, name: &str) -> Result<i64> {
        let _span = obs::global().span("catalog.ingest");
        let shredded = self.shred_only(xml)?;
        let id = self.apply(&shredded, Some(owner), Some(name))?;
        obs::global().counter("catalog.ingest.docs").incr();
        Ok(id)
    }

    /// Ingest many documents, shredding in parallel on `threads` worker
    /// threads (parse + shred run outside any table lock; only `apply`
    /// serializes on the store).
    pub fn ingest_batch(&self, docs: &[String], threads: usize) -> Result<Vec<i64>> {
        if threads <= 1 || docs.len() < 2 {
            return docs.iter().map(|d| self.ingest(d)).collect();
        }
        let chunk = docs.len().div_ceil(threads);
        let results: Vec<Result<Vec<ShreddedDoc>>> = crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for part in docs.chunks(chunk) {
                handles.push(scope.spawn(move |_| {
                    part.iter().map(|d| self.shred_only(d)).collect::<Result<Vec<_>>>()
                }));
            }
            handles.into_iter().map(|h| h.join().expect("shred worker panicked")).collect()
        })
        .expect("crossbeam scope");
        let mut ids = Vec::with_capacity(docs.len());
        for batch in results {
            for shredded in batch? {
                ids.push(self.apply(&shredded, None, None)?);
            }
        }
        Ok(ids)
    }

    /// Fetch the match plan for `(strategy, q)` from the LRU plan
    /// cache, building (and caching) it on a miss. Entries are tagged
    /// with the definitions epoch, so [`MetadataCatalog::register_dynamic`]
    /// implicitly invalidates every cached plan.
    fn cached_plan(&self, q: &ObjectQuery, strategy: MatchStrategy) -> Result<Arc<Plan>> {
        let reg = obs::global();
        let epoch = self.defs_epoch.load(AtomicOrdering::SeqCst);
        let key = format!("{strategy:?}|{}", normalize_query(q));
        if let Some(plan) = self.plan_cache.lock().get(&key, epoch) {
            reg.counter("catalog.plan_cache.hit").incr();
            return Ok(plan);
        }
        reg.counter("catalog.plan_cache.miss").incr();
        let plan = {
            let defs = self.defs.read();
            let _span = reg.span("catalog.query.plan_build");
            Arc::new(crate::engine::build_query_plan(&defs, q, strategy)?)
        };
        self.plan_cache.lock().put(key, epoch, plan.clone());
        Ok(plan)
    }

    /// Number of plans currently held by the plan cache.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.lock().len()
    }

    /// Run an attribute query; returns sorted matching object ids.
    pub fn query(&self, q: &ObjectQuery) -> Result<Vec<i64>> {
        self.query_ctx(q, &RequestCtx::unbounded())
    }

    /// [`MetadataCatalog::query`] under a request context: the match
    /// plan checks `ctx`'s deadline cooperatively and charges its
    /// row/byte budget. On cancellation the
    /// `catalog.cancelled.{deadline,budget}` counter is bumped and the
    /// offending query recorded in the slow-query ring.
    pub fn query_ctx(&self, q: &ObjectQuery, ctx: &RequestCtx) -> Result<Vec<i64>> {
        let plan = self.cached_plan(q, self.config.strategy)?;
        execute_match_plan(&self.db, &plan, ctx).map_err(|e| ctx.note_cancelled(e))
    }

    /// Run a query with an explicit strategy (Fig 4's counted matching
    /// beside the default exact one).
    pub fn query_with(&self, q: &ObjectQuery, strategy: MatchStrategy) -> Result<Vec<i64>> {
        let plan = self.cached_plan(q, strategy)?;
        execute_match_plan(&self.db, &plan, &RequestCtx::unbounded())
    }

    /// The §4 "significantly simplified" flat path (no sub-attributes).
    pub fn query_flat(&self, q: &ObjectQuery) -> Result<Vec<i64>> {
        let defs = self.defs.read();
        run_flat_query(&self.db, &defs, q)
    }

    /// Run the query's match plan under the profiler and render the
    /// operator tree annotated with actual row counts and timings —
    /// `EXPLAIN ANALYZE` for the catalog's query path. The analyzed
    /// plan is exactly the one [`MetadataCatalog::query`] executes.
    pub fn explain_analyze(&self, q: &ObjectQuery) -> Result<String> {
        let plan = self.cached_plan(q, self.config.strategy)?;
        Ok(minidb::explain_analyze(&plan, &self.db)?)
    }

    /// Reconstruct schema-ordered documents for `object_ids`.
    pub fn fetch_documents(&self, object_ids: &[i64]) -> Result<Vec<(i64, String)>> {
        let _span = obs::global().span("catalog.response_build");
        response::build_documents(&self.db, object_ids)
    }

    /// Reconstruct `object_ids` into one `<results>` envelope — the
    /// reply body of both `FETCH` and `SEARCH`. Document reconstruction,
    /// including CLOB byte resolution, respects `ctx`'s deadline and
    /// byte budget.
    pub fn fetch_envelope_ctx(&self, object_ids: &[i64], ctx: &RequestCtx) -> Result<String> {
        let _span = obs::global().span("catalog.response_build");
        response::build_response_envelope_ctx(&self.db, object_ids, ctx)
            .map_err(|e| ctx.note_cancelled(e))
    }

    /// Query then reconstruct: the full Fig-1 pipeline.
    pub fn search(&self, q: &ObjectQuery) -> Result<Vec<(i64, String)>> {
        self.fetch_documents(&self.query(q)?)
    }

    /// Query then wrap matches in a `<results>` envelope.
    pub fn search_envelope(&self, q: &ObjectQuery) -> Result<String> {
        self.search_envelope_ctx(q, &RequestCtx::unbounded())
    }

    /// [`MetadataCatalog::search_envelope`] under a request context:
    /// one budget and one deadline govern match *and* response
    /// assembly — the two halves cannot each spend the full allowance.
    pub fn search_envelope_ctx(&self, q: &ObjectQuery, ctx: &RequestCtx) -> Result<String> {
        self.fetch_envelope_ctx(&self.query_ctx(q, ctx)?, ctx)
    }

    /// Remove an object and all its stored metadata.
    pub fn delete_object(&self, object_id: i64) -> Result<()> {
        // Existence check inside the transaction: the check and the
        // deletes are one atomic unit, so concurrent deleters race on
        // the gate, not on a stale check.
        let mut txn = self.db.txn();
        let exists = !txn
            .execute(&Plan::Scan {
                table: "objects".into(),
                filter: Some(Expr::col_eq(0, object_id)),
            })?
            .rows
            .is_empty();
        if !exists {
            return Err(CatalogError::NoSuchObject(object_id));
        }
        for table in ["objects", "attrs", "elems", "attr_anc", "clobs"] {
            txn.delete_where(table, &Expr::col_eq(0, object_id))?;
        }
        txn.commit()?;
        Ok(())
    }

    /// Whether this catalog writes through a WAL (see
    /// [`MetadataCatalog::open`]).
    pub fn is_durable(&self) -> bool {
        self.db.is_durable()
    }

    /// Checkpoint a durable catalog: snapshot the whole store and
    /// truncate the WAL. Returns the checkpointed LSN. No-op error-free
    /// path does not exist for in-memory catalogs — those return the
    /// underlying engine error.
    pub fn checkpoint(&self) -> Result<u64> {
        self.db.checkpoint().map_err(Into::into)
    }

    /// Aggregate statistics. All row counts are taken under one read
    /// transaction, so they describe a single committed state — an
    /// in-flight ingest is either fully counted or not at all.
    pub fn stats(&self) -> CatalogStats {
        let defs = self.defs.read();
        let rt = self.db.begin_read();
        CatalogStats {
            objects: rt.row_count("objects").unwrap_or(0),
            attr_rows: rt.row_count("attrs").unwrap_or(0),
            elem_rows: rt.row_count("elems").unwrap_or(0),
            ancestor_rows: rt.row_count("attr_anc").unwrap_or(0),
            clob_count: rt.row_count("clobs").unwrap_or(0),
            clob_bytes: self.db.clobs.total_bytes(),
            attr_defs: defs.attrs().len(),
            elem_defs: defs.elems().len(),
            table_count: self.db.table_names().len(),
        }
    }

    /// Approximate total storage bytes (rows + CLOB heap).
    pub fn approx_bytes(&self) -> usize {
        self.db.approx_bytes()
    }
}
