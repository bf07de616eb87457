//! Relational layout of the hybrid catalog (§2, §3).
//!
//! | table | contents |
//! |---|---|
//! | `objects` | one row per cataloged object |
//! | `attrs` | attribute *instances*: (object, attr def, seq, clob seq) |
//! | `elems` | element instances with string + numeric value columns |
//! | `attr_anc` | instance-level inverted list: sub-attribute instance → every ancestor attribute instance with hierarchy distance (what lets nested queries avoid recursive self-joins) |
//! | `clobs` | CLOB locator per top-level attribute instance, keyed by (object, schema order, clob seq) |
//! | `schema_order` | the global ordering: order, tag, last-child order, depth |
//! | `order_anc` | schema-level inverted list: ordered node → ancestors (drives set-based response tagging) |
//! | `attr_defs`, `elem_defs` | definition mirrors for SQL inspection |

use crate::defs::DefsRegistry;
use crate::error::Result;
use crate::ordering::GlobalOrdering;
use minidb::{Column, DataType, Database, TableSchema, Value};

/// Create all catalog tables and indexes inside `db`.
pub fn create_tables(db: &Database) -> Result<()> {
    db.create_table(
        "objects",
        TableSchema::new(vec![
            Column::new("object_id", DataType::Int),
            Column::nullable("owner", DataType::Text),
            Column::nullable("name", DataType::Text),
        ]),
    )?;
    db.create_index("objects", "objects_pk", &["object_id"], true)?;

    db.create_table(
        "attrs",
        TableSchema::new(vec![
            Column::new("object_id", DataType::Int),
            Column::new("attr_id", DataType::Int),
            Column::new("seq", DataType::Int),
            Column::nullable("clob_seq", DataType::Int),
        ]),
    )?;
    db.create_index("attrs", "attrs_pk", &["object_id", "attr_id", "seq"], true)?;
    db.create_index("attrs", "attrs_by_def", &["attr_id"], false)?;

    db.create_table(
        "elems",
        TableSchema::new(vec![
            Column::new("object_id", DataType::Int),
            Column::new("attr_id", DataType::Int),
            Column::new("attr_seq", DataType::Int),
            Column::new("elem_id", DataType::Int),
            Column::new("elem_seq", DataType::Int),
            Column::nullable("value_str", DataType::Text),
            Column::nullable("value_num", DataType::Float),
        ]),
    )?;
    db.create_index("elems", "elems_by_def", &["elem_id", "value_num"], false)?;
    db.create_index("elems", "elems_by_obj", &["object_id", "attr_id", "attr_seq"], false)?;

    db.create_table(
        "attr_anc",
        TableSchema::new(vec![
            Column::new("object_id", DataType::Int),
            Column::new("attr_id", DataType::Int),
            Column::new("seq", DataType::Int),
            Column::new("anc_attr_id", DataType::Int),
            Column::new("anc_seq", DataType::Int),
            Column::new("distance", DataType::Int),
        ]),
    )?;
    db.create_index("attr_anc", "anc_by_child", &["attr_id", "object_id"], false)?;
    db.create_index("attr_anc", "anc_by_parent", &["anc_attr_id", "object_id"], false)?;

    db.create_table(
        "clobs",
        TableSchema::new(vec![
            Column::new("object_id", DataType::Int),
            Column::new("attr_id", DataType::Int),
            Column::new("schema_order", DataType::Int),
            Column::new("clob_seq", DataType::Int),
            Column::new("clob", DataType::Clob),
        ]),
    )?;
    db.create_index("clobs", "clobs_by_obj", &["object_id", "schema_order", "clob_seq"], false)?;

    db.create_table(
        "schema_order",
        TableSchema::new(vec![
            Column::new("order_id", DataType::Int),
            Column::new("tag", DataType::Text),
            Column::new("last_child", DataType::Int),
            Column::new("depth", DataType::Int),
            Column::new("is_attr", DataType::Bool),
        ]),
    )?;
    db.create_index("schema_order", "schema_order_pk", &["order_id"], true)?;

    db.create_table(
        "order_anc",
        TableSchema::new(vec![
            Column::new("order_id", DataType::Int),
            Column::new("anc_order", DataType::Int),
        ]),
    )?;
    db.create_index("order_anc", "order_anc_by_node", &["order_id"], false)?;

    db.create_table(
        "attr_defs",
        TableSchema::new(vec![
            Column::new("attr_id", DataType::Int),
            Column::new("name", DataType::Text),
            Column::nullable("source", DataType::Text),
            Column::nullable("parent", DataType::Int),
            Column::nullable("schema_order", DataType::Int),
            Column::new("dynamic", DataType::Bool),
            Column::new("queryable", DataType::Bool),
            Column::new("level", DataType::Text),
        ]),
    )?;
    db.create_index("attr_defs", "attr_defs_pk", &["attr_id"], true)?;

    db.create_table(
        "elem_defs",
        TableSchema::new(vec![
            Column::new("elem_id", DataType::Int),
            Column::new("attr_id", DataType::Int),
            Column::new("name", DataType::Text),
            Column::nullable("source", DataType::Text),
            Column::new("dtype", DataType::Text),
        ]),
    )?;
    db.create_index("elem_defs", "elem_defs_pk", &["elem_id"], true)?;
    Ok(())
}

/// Load the global ordering into `schema_order` and `order_anc`.
pub fn load_ordering(db: &Database, ordering: &GlobalOrdering) -> Result<()> {
    let rows: Vec<Vec<Value>> = ordering
        .nodes()
        .iter()
        .map(|n| {
            vec![
                Value::Int(n.order as i64),
                Value::Str(n.tag.clone()),
                Value::Int(n.last as i64),
                Value::Int(n.depth as i64),
                Value::Bool(n.is_attr_root),
            ]
        })
        .collect();
    db.insert("schema_order", rows)?;
    let anc_rows: Vec<Vec<Value>> = ordering
        .ancestor_pairs()
        .into_iter()
        .map(|(n, a)| vec![Value::Int(n as i64), Value::Int(a as i64)])
        .collect();
    db.insert("order_anc", anc_rows)?;
    Ok(())
}

/// Mirror (or re-mirror) the definitions into `attr_defs`/`elem_defs`.
/// Idempotent: replaces existing mirror rows. One transaction, so a
/// durable catalog never recovers a half-refreshed mirror.
pub fn sync_defs(db: &Database, defs: &DefsRegistry) -> Result<()> {
    let attr_rows: Vec<Vec<Value>> = defs
        .attrs()
        .iter()
        .map(|a| {
            vec![
                Value::Int(a.id),
                Value::Str(a.name.clone()),
                a.source.clone().map(Value::Str).unwrap_or(Value::Null),
                a.parent.map(Value::Int).unwrap_or(Value::Null),
                a.schema_order.map(|o| Value::Int(o as i64)).unwrap_or(Value::Null),
                Value::Bool(a.dynamic),
                Value::Bool(a.queryable),
                Value::Str(match &a.level {
                    crate::defs::DefLevel::Admin => "admin".to_string(),
                    crate::defs::DefLevel::User(u) => format!("user:{u}"),
                }),
            ]
        })
        .collect();
    let elem_rows: Vec<Vec<Value>> = defs
        .elems()
        .iter()
        .map(|e| {
            vec![
                Value::Int(e.id),
                Value::Int(e.attr),
                Value::Str(e.name.clone()),
                e.source.clone().map(Value::Str).unwrap_or(Value::Null),
                Value::Str(e.dtype.name().to_string()),
            ]
        })
        .collect();
    let mut txn = db.txn();
    txn.truncate("attr_defs")?;
    if !attr_rows.is_empty() {
        txn.insert("attr_defs", attr_rows)?;
    }
    txn.truncate("elem_defs")?;
    if !elem_rows.is_empty() {
        txn.insert("elem_defs", elem_rows)?;
    }
    txn.commit()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::GlobalOrdering;
    use crate::partition::{Partition, PartitionSpec};
    use std::sync::Arc;
    use xmlkit::schema::Schema;

    #[test]
    fn create_load_sync() {
        let db = Database::new();
        create_tables(&db).unwrap();
        assert!(db.has_table("attrs"));
        assert!(db.has_table("clobs"));

        let s = Arc::new(Schema::parse_dsl("r { a { x } }").unwrap());
        let p = Partition::new(s, &PartitionSpec::default().attr("/r/a")).unwrap();
        let o = GlobalOrdering::new(&p);
        load_ordering(&db, &o).unwrap();
        assert_eq!(db.row_count("schema_order").unwrap(), 2);
        assert_eq!(db.row_count("order_anc").unwrap(), 1);

        let defs = DefsRegistry::from_partition(&p, &o);
        sync_defs(&db, &defs).unwrap();
        assert_eq!(db.row_count("attr_defs").unwrap(), 1);
        assert_eq!(db.row_count("elem_defs").unwrap(), 1);
        // re-sync is idempotent
        sync_defs(&db, &defs).unwrap();
        assert_eq!(db.row_count("attr_defs").unwrap(), 1);
    }

    #[test]
    fn sql_inspection_works() {
        let db = Database::new();
        create_tables(&db).unwrap();
        let rs = db.execute_sql("SELECT COUNT(*) FROM attrs").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(0));
    }
}
