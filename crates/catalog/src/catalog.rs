//! The catalog façade: ingest, query, and response building in one
//! object (what myLEAD's server exposes to the grid).

use crate::defs::{AttrId, DefLevel, DefsRegistry, DynamicAttrSpec};
use crate::engine::{execute_match_plan, MatchStrategy};
use crate::error::{CatalogError, Result};
use crate::ordering::GlobalOrdering;
use crate::partition::Partition;
use crate::query::ObjectQuery;
use crate::reqctx::RequestCtx;
use crate::response;
use crate::shred::{ShreddedDoc, Shredder};
use crate::store;
use minidb::{Database, Expr, Plan, Value};
use obs::names;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicI64, Ordering as AtomicOrdering};
use xmlkit::dom::Document;

/// Catalog configuration. Dynamic attributes are always read with the
/// FGDC tags (see [`crate::shred`]) and content no definition matches is
/// always kept CLOB-only; the one choice left is whether such content
/// registers new definitions.
#[derive(Debug, Clone, Default)]
pub struct CatalogConfig {
    /// Auto-register unknown dynamic attributes from their first
    /// occurrence instead of storing them CLOB-only.
    pub auto_register: bool,
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
    /// Heap buffers the CLOBs live in: one per ingest, since a document's
    /// CLOBs share one (see [`minidb::clob`]).
    pub clob_buffers: usize,
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
    pub(crate) defs: RwLock<DefsRegistry>,
    config: CatalogConfig,
    next_object: AtomicI64,
}

impl MetadataCatalog {
    /// Create a catalog over a partitioned schema.
    pub fn new(partition: Partition, config: CatalogConfig) -> Result<MetadataCatalog> {
        Self::bootstrap(Database::new(), partition, config)
    }

    /// Build a catalog into an empty database (freshly created, or a
    /// durable database whose directory held no prior state) as one
    /// transaction, so a crash leaves the directory empty or complete.
    pub(crate) fn bootstrap(
        db: Database,
        partition: Partition,
        config: CatalogConfig,
    ) -> Result<MetadataCatalog> {
        let ordering = GlobalOrdering::new(&partition);
        let defs = DefsRegistry::from_partition(&partition, &ordering);
        let mut txn = db.txn();
        store::create_tables(&mut txn)?;
        store::load_ordering(&mut txn, &ordering)?;
        store::append_defs(&mut txn, defs.attrs(), defs.elems())?;
        txn.commit()?;
        Ok(Self::from_parts(db, partition, ordering, defs, config, 1))
    }

    /// Assemble a catalog from parts whose definitions are already in
    /// the mirror tables (after bootstrap, or reread by a reopen), so
    /// assembling writes nothing: a read-only open leaves the log as it
    /// found it.
    pub(crate) fn from_parts(
        db: Database,
        partition: Partition,
        ordering: GlobalOrdering,
        defs: DefsRegistry,
        config: CatalogConfig,
        next_object: i64,
    ) -> MetadataCatalog {
        MetadataCatalog {
            db,
            partition,
            ordering,
            defs: RwLock::new(defs),
            config,
            next_object: AtomicI64::new(next_object),
        }
    }

    /// The partition this catalog serves.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The global schema ordering.
    pub fn ordering(&self) -> &GlobalOrdering {
        &self.ordering
    }

    /// The underlying database, for reading the store's tables with
    /// [`minidb::Plan`]s.
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
        self.register_with(|defs| {
            defs.register_dynamic(&self.partition, &self.ordering, anchor, spec, level)
        })
    }

    /// Register definitions all or nothing: `register` works on a copy
    /// of the registry, one transaction appends the definitions it added
    /// to the mirror tables, and the copy becomes the registry only once
    /// that commit succeeds. The `defs` write lock is held throughout.
    fn register_with<T>(&self, register: impl FnOnce(&mut DefsRegistry) -> Result<T>) -> Result<T> {
        let mut defs = self.defs.write();
        let mut next = defs.clone();
        let out = register(&mut next)?;
        let mut txn = self.db.txn();
        let (attrs, elems) = (defs.attrs().len(), defs.elems().len());
        store::append_defs(&mut txn, &next.attrs()[attrs..], &next.elems()[elems..])?;
        txn.commit()?;
        *defs = next;
        Ok(out)
    }

    /// Parse and shred a document *without* storing it (the CPU-bound
    /// half of ingest; used by parallel ingest pipelines).
    pub fn shred_only(&self, xml: &str) -> Result<ShreddedDoc> {
        let doc = {
            let _span = names::CATALOG_PARSE.span();
            Document::parse(xml)?
        };
        let defs = self.defs.read();
        let shredder = Shredder::new(&self.partition, &self.ordering);
        let out = {
            let _span = names::CATALOG_SHRED.span();
            shredder.shred(&doc, &defs)?
        };
        drop(defs);
        if self.config.auto_register && !out.inferred.is_empty() {
            // Register what the document taught us, then re-shred so its
            // rows land in the query tables too.
            self.register_with(|defs| {
                for (anchor, spec) in &out.inferred {
                    // Races between ingest threads can register the same
                    // spec twice; the second registration fails benignly
                    // and registers nothing.
                    let _ = defs.register_dynamic(
                        &self.partition,
                        &self.ordering,
                        *anchor,
                        spec,
                        DefLevel::Admin,
                    );
                }
                Ok(())
            })?;
            let defs = self.defs.read();
            let _span = names::CATALOG_SHRED.span();
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
        self.store(shredded.clone(), owner, name)
    }

    /// [`MetadataCatalog::apply`] for a shredded document the caller is
    /// done with: its CLOB text and element values move into the store
    /// instead of being copied while the transaction holds the gate.
    fn store(&self, shredded: ShreddedDoc, owner: Option<&str>, name: Option<&str>) -> Result<i64> {
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
    fn apply_rows(txn: &mut minidb::Txn<'_>, object_id: i64, shredded: ShreddedDoc) -> Result<()> {
        let _span = names::CATALOG_APPLY.span();
        names::CATALOG_SHRED_ATTR_ROWS.add(shredded.attrs.len() as u64);
        names::CATALOG_SHRED_ELEM_ROWS.add(shredded.elems.len() as u64);
        names::CATALOG_CLOB_BYTES_WRITTEN
            .add(shredded.clob_rows.iter().map(|c| c.xml.len() as u64).sum());
        // One put per document, so its CLOBs share one heap buffer.
        let parts: Vec<&str> = shredded.clob_rows.iter().map(|c| c.xml.as_str()).collect();
        let locators = txn.put_clobs(&parts);
        let clob_rows: Vec<Vec<Value>> = shredded
            .clob_rows
            .iter()
            .zip(locators)
            .map(|(c, locator)| {
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
                .into_iter()
                .map(|e| {
                    vec![
                        Value::Int(object_id),
                        Value::Int(e.attr_id),
                        Value::Int(e.attr_seq),
                        Value::Int(e.elem_id),
                        Value::Int(e.elem_seq),
                        Value::Str(e.value),
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
        // lock while it appends the definition mirror rows through its
        // own transaction, so acquiring defs after `txn()` would deadlock.
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
        let shredder = Shredder::new(&self.partition, &self.ordering);
        let shredded = shredder.shred_fragment(&doc, &defs, snode, seq_seed, clob_seed)?;
        drop(defs);
        Self::apply_rows(&mut txn, object_id, shredded)?;
        txn.commit()?;
        Ok(())
    }

    /// Ingest one document: parse, shred, store.
    pub fn ingest(&self, xml: &str) -> Result<i64> {
        self.ingest_one(|| self.shred_only(xml), None, None)
    }

    /// Ingest with provenance metadata.
    pub fn ingest_as(&self, xml: &str, owner: &str, name: &str) -> Result<i64> {
        self.ingest_one(|| self.shred_only(xml), Some(owner), Some(name))
    }

    /// The one path every ingested document is stored through, timed by
    /// `catalog.ingest` and counted by `catalog.ingest.docs`. `shred`
    /// runs inside the span: it parses and shreds the document, or, in a
    /// parallel [`MetadataCatalog::ingest_batch`], hands over what a
    /// worker already shredded.
    fn ingest_one(
        &self,
        shred: impl FnOnce() -> Result<ShreddedDoc>,
        owner: Option<&str>,
        name: Option<&str>,
    ) -> Result<i64> {
        let _span = names::CATALOG_INGEST.span();
        let id = self.store(shred()?, owner, name)?;
        names::CATALOG_INGEST_DOCS.incr();
        Ok(id)
    }

    /// Ingest many documents, shredding in parallel on `threads` worker
    /// threads (parse + shred run outside the database's lock; only
    /// `apply` serializes on the store). Documents are stored in corpus
    /// order up to the first that fails to parse, shred or store, whose
    /// error is returned; the documents before it stay stored, whatever
    /// `threads` is.
    pub fn ingest_batch(&self, docs: &[String], threads: usize) -> Result<Vec<i64>> {
        if threads <= 1 || docs.len() < 2 {
            return docs.iter().map(|d| self.ingest(d)).collect();
        }
        let chunk = docs.len().div_ceil(threads);
        // Each worker shreds its chunk up to and including its first
        // failure, one result per document: the documents after a
        // failure are never stored, so shredding them is wasted (and,
        // under `auto_register`, could register their definitions).
        let results: Vec<Vec<Result<ShreddedDoc>>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for part in docs.chunks(chunk) {
                handles.push(scope.spawn(move || {
                    let mut out = Vec::with_capacity(part.len());
                    for d in part {
                        let shredded = self.shred_only(d);
                        let failed = shredded.is_err();
                        out.push(shredded);
                        if failed {
                            break;
                        }
                    }
                    out
                }));
            }
            handles.into_iter().map(|h| h.join().expect("shred worker panicked")).collect()
        });
        let mut ids = Vec::with_capacity(docs.len());
        for shredded in results.into_iter().flatten() {
            ids.push(self.ingest_one(|| shredded, None, None)?);
        }
        Ok(ids)
    }

    /// Build the match plan for `(strategy, q)` against the current
    /// definitions registry. Planning runs on every request: it is a
    /// lookup over the registry plus a handful of plan nodes, and the
    /// registry's read lock orders it after any concurrent
    /// [`MetadataCatalog::register_dynamic`].
    fn plan(&self, q: &ObjectQuery, strategy: MatchStrategy) -> Result<Plan> {
        let defs = self.defs.read();
        let _span = names::CATALOG_QUERY_PLAN_BUILD.span();
        crate::engine::build_query_plan(&defs, q, strategy)
    }

    /// Run an attribute query; returns sorted matching object ids.
    pub fn query(&self, q: &ObjectQuery) -> Result<Vec<i64>> {
        self.query_ctx(q, &RequestCtx::unbounded())
    }

    /// [`MetadataCatalog::query`] under a request context: the match
    /// plan checks `ctx`'s deadline cooperatively. On cancellation the
    /// `catalog.cancelled.deadline` counter is bumped and the offending
    /// query recorded in the slow-query ring.
    pub fn query_ctx(&self, q: &ObjectQuery, ctx: &RequestCtx) -> Result<Vec<i64>> {
        let plan = self.plan(q, MatchStrategy::Exact)?;
        execute_match_plan(&self.db, &plan, ctx).map_err(|e| ctx.note_cancelled(e))
    }

    /// Run a query with an explicit strategy (Fig 4's counted matching
    /// beside the default exact one).
    pub fn query_with(&self, q: &ObjectQuery, strategy: MatchStrategy) -> Result<Vec<i64>> {
        let plan = self.plan(q, strategy)?;
        execute_match_plan(&self.db, &plan, &RequestCtx::unbounded())
    }

    /// Run the query's match plan under the profiler and render the
    /// operator tree annotated with actual row counts and timings —
    /// `EXPLAIN ANALYZE` for the catalog's query path. The analyzed
    /// plan is exactly the one [`MetadataCatalog::query`] executes.
    pub fn explain_analyze(&self, q: &ObjectQuery) -> Result<String> {
        let plan = self.plan(q, MatchStrategy::Exact)?;
        Ok(minidb::explain_analyze(&plan, &self.db)?)
    }

    /// Reconstruct schema-ordered documents for `object_ids`.
    pub fn fetch_documents(&self, object_ids: &[i64]) -> Result<Vec<(i64, String)>> {
        let _span = names::CATALOG_RESPONSE_BUILD.span();
        response::build_documents(&self.db, object_ids)
    }

    /// Reconstruct `object_ids` into one `<results>` envelope — the
    /// reply body of both `FETCH` and `SEARCH`. Document reconstruction,
    /// including CLOB byte resolution, respects `ctx`'s deadline.
    pub fn fetch_envelope_ctx(&self, object_ids: &[i64], ctx: &RequestCtx) -> Result<String> {
        let _span = names::CATALOG_RESPONSE_BUILD.span();
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
    /// one deadline governs match *and* response assembly — the two
    /// halves cannot each spend the full allowance.
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

    /// Checkpoint a durable catalog: write a snapshot of the whole store,
    /// then swap in a fresh, empty WAL. Returns the checkpointed LSN. An
    /// idle checkpoint (nothing committed since the last one) writes
    /// nothing and returns the same LSN. An in-memory catalog has no log
    /// to checkpoint and returns the engine's error.
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
            clob_bytes: rt.clobs().total_bytes(),
            clob_buffers: rt.clobs().buffers(),
            attr_defs: defs.attrs().len(),
            elem_defs: defs.elems().len(),
            // Through `rt`, never `self.db`: a second hold of the gate on
            // this thread deadlocks once a writer queues between the two.
            table_count: rt.table_names().len(),
        }
    }

    /// Approximate storage bytes: the row values of every table plus the
    /// CLOB text. Indexes are not counted.
    pub fn approx_bytes(&self) -> usize {
        self.db.approx_bytes()
    }
}
