//! Catalog persistence: a durable catalog lives in a directory.
//!
//! The whole store — including the `attr_defs`/`elem_defs` mirrors —
//! lives in `minidb` tables plus the CLOB heap, so the catalog persists
//! through the database's write-ahead log and checkpoint snapshots
//! ([`MetadataCatalog::open`] is the only way catalog state reaches
//! disk). Reopening rebuilds the in-memory definition registry by (a)
//! re-deriving structural definitions from the partition (ids are
//! deterministic) and (b) replaying the mirrored dynamic definitions in
//! id order; a mismatch between the stored structural definitions and
//! the supplied partition is an error (the schema the catalog serves
//! must not silently drift).

use crate::catalog::{CatalogConfig, MetadataCatalog};
use crate::defs::{DefLevel, DefsRegistry};
use crate::error::{CatalogError, Result};
use crate::ordering::{GlobalOrdering, OrderId};
use crate::partition::Partition;
use minidb::{Database, Plan};
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

/// Reassemble a catalog around a recovered database: cross-check the
/// structural definition mirror against the supplied partition, replay
/// dynamic definitions, and continue the object-id sequence.
fn rebuild(db: Database, partition: Partition, config: CatalogConfig) -> Result<MetadataCatalog> {
    let ordering = GlobalOrdering::new(&partition);
    let mut defs = DefsRegistry::from_partition(&partition, &ordering);
    let structural_attrs = defs.attrs().len() as i64;
    let structural_elems = defs.elems().len() as i64;

    // Cross-check structural mirror rows, then replay dynamic ones.
    let attr_rows = db.execute(&Plan::Sort {
        input: Box::new(Plan::Scan { table: "attr_defs".into(), filter: None }),
        keys: vec![(0, false)],
    })?;
    for row in &attr_rows.rows {
        let id = row[0].as_i64().ok_or_else(|| bad("attr_defs.attr_id"))?;
        let name = row[1].as_str().ok_or_else(|| bad("attr_defs.name"))?;
        let dynamic = matches!(row[5], minidb::Value::Bool(true));
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
        if !dynamic {
            return Err(CatalogError::Definition(format!(
                "snapshot attribute #{id} ({name}) is non-structural yet not dynamic"
            )));
        }
        let source = row[2].as_str().ok_or_else(|| bad("attr_defs.source"))?;
        let parent = row[3].as_i64();
        let schema_order = row[4].as_i64().map(|o| o as OrderId);
        let level = match row[7].as_str() {
            Some("admin") | None => DefLevel::Admin,
            Some(other) => match other.strip_prefix("user:") {
                Some(u) => DefLevel::User(u.to_string()),
                None => DefLevel::Admin,
            },
        };
        // Anchor: top-level defs sit at their schema_order's node;
        // sub-attributes share their parent's anchor.
        let anchor = match (parent, schema_order) {
            (Some(p), _) => {
                defs.attr(p)
                    .ok_or_else(|| {
                        CatalogError::Definition(format!(
                            "snapshot attribute #{id} references missing parent #{p}"
                        ))
                    })?
                    .anchor
            }
            (None, Some(order)) => ordering.node(order).node,
            (None, None) => {
                return Err(CatalogError::Definition(format!(
                    "snapshot attribute #{id} has neither parent nor schema order"
                )));
            }
        };
        defs.replay_dynamic_attr(id, name, source, parent, anchor, schema_order, level)?;
    }

    let elem_rows = db.execute(&Plan::Sort {
        input: Box::new(Plan::Scan { table: "elem_defs".into(), filter: None }),
        keys: vec![(0, false)],
    })?;
    for row in &elem_rows.rows {
        let id = row[0].as_i64().ok_or_else(|| bad("elem_defs.elem_id"))?;
        if id <= structural_elems {
            continue; // re-derived from the partition
        }
        let attr = row[1].as_i64().ok_or_else(|| bad("elem_defs.attr_id"))?;
        let name = row[2].as_str().ok_or_else(|| bad("elem_defs.name"))?;
        let source = row[3].as_str();
        let dtype = match row[4].as_str() {
            Some("int") => ValueType::Int,
            Some("float") => ValueType::Float,
            Some("bool") => ValueType::Bool,
            _ => ValueType::Str,
        };
        defs.replay_dynamic_elem(id, attr, name, source, dtype)?;
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
