//! Catalog persistence: a durable catalog lives in a directory.
//!
//! The whole store — including the `attr_defs`/`elem_defs` mirrors —
//! lives in `minidb` tables plus the CLOB heap, so the catalog persists
//! through the database's write-ahead log and checkpoint snapshots
//! ([`MetadataCatalog::open`] is the only way catalog state reaches
//! disk). A fresh directory is bootstrapped in one transaction, and each
//! registration appends its definitions' mirror rows in one more.
//! Reopening rebuilds the registry the way it was built: (a) re-derive
//! the structural definitions from the partition (ids are deterministic)
//! and cross-check their rows — the schema the catalog serves must not
//! silently drift; (b) rebuild each stored top-level dynamic
//! definition's spec from its rows and register it again through
//! [`DefsRegistry::register_dynamic`], in id order. The registry must
//! then equal the mirror row for row, ids included.

use crate::catalog::{CatalogConfig, MetadataCatalog};
use crate::defs::{DefLevel, DefsRegistry, DynamicAttrSpec};
use crate::error::{CatalogError, Result};
use crate::ordering::{GlobalOrdering, OrderId};
use crate::partition::Partition;
use crate::store;
use minidb::{Database, Plan, Value};
use std::collections::HashMap;
use std::path::Path;
use xmlkit::ValueType;

impl MetadataCatalog {
    /// Open a crash-safe catalog backed by `dir`: every ingest,
    /// deletion, and definition registration commits through a
    /// write-ahead log before it is acknowledged, and
    /// [`MetadataCatalog::checkpoint`] compacts the log into a
    /// snapshot. Reopening the same directory recovers the snapshot
    /// plus the committed WAL tail (a torn final record from a crash
    /// is discarded; mid-log corruption is a hard error).
    pub fn open(
        dir: impl AsRef<Path>,
        partition: Partition,
        config: CatalogConfig,
    ) -> Result<MetadataCatalog> {
        Self::open_with(
            std::sync::Arc::new(minidb::StdVfs::new(dir.as_ref())?),
            minidb::WalOptions::default(),
            partition,
            config,
        )
    }

    /// [`MetadataCatalog::open`] over an explicit VFS and WAL options —
    /// the injection point for group-commit policies and fault-testing
    /// file systems.
    pub fn open_with(
        vfs: std::sync::Arc<dyn minidb::Vfs>,
        opts: minidb::WalOptions,
        partition: Partition,
        config: CatalogConfig,
    ) -> Result<MetadataCatalog> {
        let db = Database::open_with(vfs, opts)?;
        if db.has_table("objects") {
            rebuild(db, partition, config)
        } else {
            MetadataCatalog::bootstrap(db, partition, config)
        }
    }
}

/// Mirror rows grouped under the definition they belong to.
type Children<'a> = HashMap<i64, Vec<&'a [Value]>>;

/// Reassemble a catalog around a recovered database: cross-check the
/// structural definition mirror against the supplied partition,
/// re-register each stored dynamic definition through
/// [`DefsRegistry::register_dynamic`], and continue the object-id
/// sequence.
fn rebuild(db: Database, partition: Partition, config: CatalogConfig) -> Result<MetadataCatalog> {
    let ordering = GlobalOrdering::new(&partition);
    let mut defs = DefsRegistry::from_partition(&partition, &ordering);
    let structural_attrs = defs.attrs().len() as i64;
    let attr_rows = sorted_rows(&db, "attr_defs")?;
    let elem_rows = sorted_rows(&db, "elem_defs")?;
    let mut subs = Children::new();
    for row in &attr_rows {
        if let Some(parent) = row[3].as_i64() {
            subs.entry(parent).or_default().push(row);
        }
    }
    let mut elems = Children::new();
    for row in &elem_rows {
        elems.entry(row[1].as_i64().unwrap_or_default()).or_default().push(row);
    }

    // Cross-check structural rows; re-register each top-level dynamic
    // definition, in id order, from the spec its rows store.
    for row in &attr_rows {
        let id = row[0].as_i64().ok_or_else(|| bad("attr_defs.attr_id"))?;
        let name = row[1].as_str().ok_or_else(|| bad("attr_defs.name"))?;
        let dynamic = matches!(row[5], Value::Bool(true));
        if id <= structural_attrs {
            let known = defs.attr(id).ok_or_else(|| {
                CatalogError::Definition(format!("snapshot attribute #{id} unknown"))
            })?;
            if known.name != name || known.dynamic != dynamic {
                return Err(CatalogError::Definition(format!(
                    "snapshot attribute #{id} ({name}) does not match the supplied schema \
                     partition (expected {})",
                    known.name
                )));
            }
            continue;
        }
        if !row[3].is_null() {
            continue; // a sub-attribute registers with its top-level definition
        }
        let order = row[4].as_i64().ok_or_else(|| {
            CatalogError::Definition(format!(
                "snapshot attribute #{id} has neither parent nor schema order"
            ))
        })?;
        let user = row[7].as_str().and_then(|l| l.strip_prefix("user:"));
        let level = user.map_or(DefLevel::Admin, |u| DefLevel::User(u.to_string()));
        let (anchor, spec) =
            (ordering.node(order as OrderId).node, stored_spec(row, &subs, &elems));
        defs.register_dynamic(&partition, &ordering, anchor, &spec, level)?;
    }
    // Ids follow from registration order, so the registry must now be
    // the mirror, row for row (a stored row no spec reaches, or one
    // that is not dynamic, makes it differ).
    let attrs_match = defs.attrs().iter().map(store::attr_row).eq(attr_rows.iter().cloned());
    let elems_match = defs.elems().iter().map(store::elem_row).eq(elem_rows.iter().cloned());
    if !(attrs_match && elems_match) {
        return Err(CatalogError::Definition(
            "re-registering the stored definitions did not reproduce their rows and ids".into(),
        ));
    }

    // Next object id continues after the largest stored one.
    let next_object = db
        .execute(&Plan::Scan { table: "objects".into(), filter: None })?
        .rows
        .iter()
        .filter_map(|r| r[0].as_i64())
        .max()
        .unwrap_or(0)
        + 1;

    Ok(MetadataCatalog::from_parts(db, partition, ordering, defs, config, next_object))
}

/// Every row of `table`, in ascending order of its first column (the
/// definition id).
fn sorted_rows(db: &Database, table: &str) -> Result<Vec<Vec<Value>>> {
    let scan = Plan::Scan { table: table.into(), filter: None };
    Ok(db.execute(&Plan::Sort { input: Box::new(scan), keys: vec![(0, false)] })?.rows)
}

/// The spec stored under the dynamic definition `row`: its elements
/// and sub-attributes, each in id order. A malformed row yields a spec
/// whose registration cannot reproduce it.
fn stored_spec(row: &[Value], subs: &Children, elems: &Children) -> DynamicAttrSpec {
    let text = |v: &Value| v.as_str().unwrap_or_default().to_string();
    let mut spec = DynamicAttrSpec::new(text(&row[1]), text(&row[2]));
    let id = row[0].as_i64().unwrap_or_default();
    for e in elems.get(&id).into_iter().flatten() {
        let dtype = ValueType::from_name(&text(&e[4])).unwrap_or_default();
        spec = spec.element(text(&e[2]), dtype);
    }
    for sub in subs.get(&id).into_iter().flatten() {
        spec = spec.sub(stored_spec(sub, subs, elems));
    }
    spec
}

fn bad(what: &str) -> CatalogError {
    CatalogError::Definition(format!("snapshot: malformed {what} row"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defs::DynamicAttrSpec;
    use crate::lead::{fig4_query, lead_partition, register_arps_defs, FIG3_DOCUMENT};
    use minidb::{Column, DataType, MemVfs, TableSchema, Value, WalOptions};
    use std::sync::Arc;

    fn open_mem(vfs: &MemVfs, partition: Partition) -> Result<MetadataCatalog> {
        MetadataCatalog::open_with(
            Arc::new(vfs.clone()),
            WalOptions::default(),
            partition,
            CatalogConfig::default(),
        )
    }

    /// A durable LEAD catalog on `vfs` with the ARPS definitions.
    fn lead_on(vfs: &MemVfs) -> MetadataCatalog {
        let cat = open_mem(vfs, lead_partition()).unwrap();
        register_arps_defs(&cat).unwrap();
        cat
    }

    /// A document carrying one `extra`/`WRF` dynamic attribute with
    /// `x` = 5.
    const EXTRA_DOC: &str = "<LEADresource><resourceID>x</resourceID><data>\
        <idinfo><keywords/></idinfo><geospatial><eainfo><detailed>\
        <enttyp><enttypl>extra</enttypl><enttypds>WRF</enttypds></enttyp>\
        <attr><attrlabl>x</attrlabl><attrdefs>WRF</attrdefs><attrv>5</attrv></attr>\
        </detailed></eainfo></geospatial></data></LEADresource>";

    /// Checkpoint `cat`, close it, and reopen its storage: the reopened
    /// catalog is rebuilt from the snapshot alone (the WAL is empty).
    fn checkpoint_reopen(cat: MetadataCatalog, vfs: &MemVfs) -> MetadataCatalog {
        cat.checkpoint().unwrap();
        drop(cat);
        open_mem(vfs, lead_partition()).unwrap()
    }

    #[test]
    fn checkpoint_reopen_roundtrip() {
        let vfs = MemVfs::new();
        let cat = lead_on(&vfs);
        let id = cat.ingest(FIG3_DOCUMENT).unwrap();
        cat.register_dynamic(
            crate::lead::DETAILED_PATH,
            &DynamicAttrSpec::new("extra", "WRF").element("x", ValueType::Float),
            DefLevel::User("keisha".into()),
        )
        .unwrap();
        let stats_a = cat.stats();

        let loaded = checkpoint_reopen(cat, &vfs);

        // Stored data still answers the Fig-4 query and reconstructs.
        assert_eq!(loaded.query(&fig4_query()).unwrap(), vec![id]);
        let doc = loaded.fetch_documents(&[id]).unwrap().remove(0).1;
        assert!(doc.contains("<LEADresource>"));
        // Dynamic definitions (incl. user-level) survived.
        let stats_b = loaded.stats();
        assert_eq!(stats_a.attr_defs, stats_b.attr_defs);
        assert_eq!(stats_a.elem_defs, stats_b.elem_defs);
        // New ingests continue the id sequence and remain queryable.
        let id2 = loaded.ingest(FIG3_DOCUMENT).unwrap();
        assert_eq!(id2, id + 1);
        assert_eq!(loaded.query(&fig4_query()).unwrap(), vec![id, id2]);
        // The replayed dynamic definition accepts new documents.
        let id3 = loaded.ingest(EXTRA_DOC).unwrap();
        let q = crate::qparse::parse_query("extra@WRF[x=5]").unwrap();
        assert_eq!(loaded.query(&q).unwrap(), vec![id3]);
    }

    /// Reopening a checkpointed directory only reads it: the log and
    /// the snapshot stay byte-identical, the store still answers Fig 4,
    /// and a definition registered after a reopen survives the next.
    #[test]
    fn reopening_writes_nothing() {
        use minidb::wal::{SNAPSHOT_FILE, WAL_FILE};
        let vfs = MemVfs::new();
        let cat = lead_on(&vfs);
        let id = cat.ingest(FIG3_DOCUMENT).unwrap();
        cat.checkpoint().unwrap();
        drop(cat);
        let files = || (vfs.file(WAL_FILE).unwrap(), vfs.file(SNAPSHOT_FILE).unwrap());
        let before = files();
        for _ in 0..2 {
            let cat = open_mem(&vfs, lead_partition()).unwrap();
            assert_eq!(cat.query(&fig4_query()).unwrap(), vec![id]);
            drop(cat);
            assert!(files() == before, "a read-only open wrote to the catalog directory");
        }
        let cat = open_mem(&vfs, lead_partition()).unwrap();
        let spec = DynamicAttrSpec::new("extra", "WRF").element("x", ValueType::Float);
        cat.register_dynamic(crate::lead::DETAILED_PATH, &spec, DefLevel::Admin)
            .unwrap();
        let stats = cat.stats();
        drop(cat);
        let cat = open_mem(&vfs, lead_partition()).unwrap();
        assert_eq!(
            (cat.stats().attr_defs, cat.stats().elem_defs),
            (stats.attr_defs, stats.elem_defs)
        );
        let q = crate::qparse::parse_query("extra@WRF[x=5]").unwrap();
        let extra = cat.ingest(EXTRA_DOC).unwrap();
        assert_eq!(cat.query(&q).unwrap(), vec![extra]);
        assert_eq!(cat.query(&fig4_query()).unwrap(), vec![id]);
    }

    /// A checkpoint with nothing to write touches no file: reopened over
    /// a [`minidb::FaultyVfs`], it makes no write-side call (create,
    /// `open_append`, append, fsync, rename or `set_len`) and returns the
    /// snapshot's LSN. One commit makes the next checkpoint write again.
    #[test]
    fn an_idle_checkpoint_writes_nothing() {
        use minidb::vfs::{Call, FaultyVfs};
        let vfs = MemVfs::new();
        let cat = lead_on(&vfs);
        cat.ingest(FIG3_DOCUMENT).unwrap();
        let lsn = cat.checkpoint().unwrap();
        drop(cat);

        let faulty = FaultyVfs::new(vfs.crashed_copy());
        let cat = MetadataCatalog::open_with(
            Arc::new(faulty.clone()),
            WalOptions::default(),
            lead_partition(),
            CatalogConfig::default(),
        )
        .unwrap();
        let calls = || Call::ALL.map(|c| faulty.calls(c));
        let opened = calls();
        assert_eq!(cat.checkpoint().unwrap(), lsn);
        assert_eq!(calls(), opened, "an idle checkpoint made a write-side call ({:?})", Call::ALL);
        cat.ingest(EXTRA_DOC).unwrap();
        let renames = faulty.calls(Call::Rename);
        assert_eq!(cat.checkpoint().unwrap(), lsn + 1);
        assert_eq!(
            faulty.calls(Call::Rename),
            renames + 2,
            "a checkpoint after a commit wrote no files"
        );
        let written = calls();
        assert_eq!(cat.checkpoint().unwrap(), lsn + 1);
        assert_eq!(calls(), written, "the checkpoint after it was not idle");
    }

    /// A reopen re-registers the stored definitions: the registry is
    /// the mirror row for row and still refuses a spec registered before.
    #[test]
    fn reopen_reregisters_the_mirror() {
        let vfs = MemVfs::new();
        let cat = lead_on(&vfs);
        let spec = DynamicAttrSpec::new("extra", "WRF")
            .element("x", ValueType::Float)
            .sub(DynamicAttrSpec::new("inner", "WRF").element("y", ValueType::Float));
        cat.register_dynamic(crate::lead::DETAILED_PATH, &spec, DefLevel::User("k".into()))
            .unwrap();
        let cat = checkpoint_reopen(cat, &vfs);
        let defs = cat.defs.read();
        let rows = |t: &str| sorted_rows(cat.db(), t).unwrap();
        assert!(defs.attrs().iter().map(store::attr_row).eq(rows("attr_defs")));
        assert!(defs.elems().iter().map(store::elem_row).eq(rows("elem_defs")));
        drop(defs);
        let again = cat.register_dynamic(crate::lead::DETAILED_PATH, &spec, DefLevel::Admin);
        assert!(matches!(again, Err(CatalogError::Definition(_))));
    }

    #[test]
    fn partition_mismatch_rejected() {
        let vfs = MemVfs::new();
        let cat = lead_on(&vfs);
        cat.ingest(FIG3_DOCUMENT).unwrap();
        cat.checkpoint().unwrap();
        drop(cat);
        // A different partition (auto-derived) does not match the stored
        // structural definitions.
        let other = crate::partition::Partition::auto(crate::lead::lead_schema()).unwrap();
        let err = match open_mem(&vfs, other) {
            Err(e) => e,
            Ok(_) => panic!("mismatched partition must be rejected"),
        };
        assert!(matches!(err, CatalogError::Definition(_)));
    }

    /// A directory written by a release that also created the
    /// `collections` / `collection_members` tables still opens: the
    /// rebuild reads only the tables it needs and ignores extra ones.
    #[test]
    fn directory_with_retired_collection_tables_still_opens() {
        let vfs = MemVfs::new();
        let cat = lead_on(&vfs);
        let db = cat.db();
        db.create_table(
            "collections",
            TableSchema::new(vec![
                Column::new("coll_id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::nullable("owner", DataType::Text),
            ]),
        )
        .unwrap();
        db.create_table(
            "collection_members",
            TableSchema::new(vec![
                Column::new("coll_id", DataType::Int),
                Column::new("kind", DataType::Int),
                Column::new("member_id", DataType::Int),
            ]),
        )
        .unwrap();
        let id = cat.ingest(FIG3_DOCUMENT).unwrap();
        db.insert("collections", vec![vec![Value::Int(1), Value::Str("exp".into()), Value::Null]])
            .unwrap();
        db.insert("collection_members", vec![vec![Value::Int(1), Value::Int(0), Value::Int(id)]])
            .unwrap();
        let loaded = checkpoint_reopen(cat, &vfs);
        assert!(loaded.db().has_table("collections"));
        assert_eq!(loaded.query(&fig4_query()).unwrap(), vec![id]);
    }
}
