//! Relational layout of the hybrid catalog (§2, §3).
//!
//! | table | contents | indexes, and the reads they key |
//! |---|---|---|
//! | `objects` | one row per cataloged object | `objects_pk (object_id)`, unique: the existence check of `add_attribute` and `delete_object` |
//! | `attrs` | attribute *instances*: (object, attr def, seq, clob seq) | `attrs_pk (object_id, attr_id, seq)`, unique: one object's instances (`add_attribute`, `delete_object`); `attrs_by_def (attr_id)`: a query node without element conditions |
//! | `elems` | element instances with string + numeric value columns | `elems_by_def (elem_id, value_num, value_str)`: every element condition of a query |
//! | `attr_anc` | instance-level inverted list: sub-attribute instance → every ancestor attribute instance with hierarchy distance (what lets nested queries avoid recursive self-joins) | `anc_by_link (attr_id, anc_attr_id, distance)`: every nested-query link scan |
//! | `clobs` | CLOB locator per top-level attribute instance | `clobs_by_obj (object_id, schema_order, clob_seq)`: response assembly walks one object's CLOBs in document order |
//! | `schema_order` | the global ordering: order, tag, last-child order, depth | `schema_order_pk (order_id)`, unique |
//! | `order_anc` | schema-level inverted list: ordered node → ancestors (gives the response builder each CLOB's wrapper stack) | none: the response builder reads it whole |
//! | `attr_defs`, `elem_defs` | one row per attribute and element definition, appended by the transaction that registers it and never rewritten: reopening a durable catalog re-registers the stored dynamic definitions through `register_dynamic` (`persist.rs`) | `attr_defs_pk`, `elem_defs_pk`, unique |
//!
//! Every read and every delete reaches rows through minidb's access path,
//! which walks the index its filter keys furthest; no plan names an
//! index. An index earns its place only through a filter that keys it,
//! since each one costs every ingested row an insert. A catalog
//! directory keeps the indexes it was created with.

use crate::defs::{AttrDef, DefLevel, ElemDef};
use crate::error::Result;
use crate::ordering::GlobalOrdering;
use minidb::{Column, DataType, TableSchema, Txn, Value};

/// Create all catalog tables and indexes in `txn`.
pub fn create_tables(txn: &mut Txn<'_>) -> Result<()> {
    txn.create_table(
        "objects",
        TableSchema::new(vec![
            Column::new("object_id", DataType::Int),
            Column::nullable("owner", DataType::Text),
            Column::nullable("name", DataType::Text),
        ]),
    )?;
    txn.create_index("objects", "objects_pk", &["object_id"], true)?;

    txn.create_table(
        "attrs",
        TableSchema::new(vec![
            Column::new("object_id", DataType::Int),
            Column::new("attr_id", DataType::Int),
            Column::new("seq", DataType::Int),
            Column::nullable("clob_seq", DataType::Int),
        ]),
    )?;
    txn.create_index("attrs", "attrs_pk", &["object_id", "attr_id", "seq"], true)?;
    txn.create_index("attrs", "attrs_by_def", &["attr_id"], false)?;

    txn.create_table(
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
    // A numeric condition keys (elem_id, value_num) and bounds a range
    // on value_num; a string equality keys all three columns, because
    // the engine adds the value_num term the string implies (the parse
    // shred stores), so a theme keyword is one key, not a walk over
    // every string row of its element. It is the table's only index:
    // no read filters `elems` by object (`delete_object` scans), and
    // each index costs every ingested row an insert.
    txn.create_index("elems", "elems_by_def", &["elem_id", "value_num", "value_str"], false)?;

    txn.create_table(
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
    // Every read of the inverted list is `engine::link_scan`: one
    // (child definition, ancestor definition) pair, plus `distance = 1`
    // when the query asks for direct children, so one index keys all
    // three. No read filters `attr_anc` by object (`delete_object`
    // scans).
    txn.create_index("attr_anc", "anc_by_link", &["attr_id", "anc_attr_id", "distance"], false)?;

    txn.create_table(
        "clobs",
        TableSchema::new(vec![
            Column::new("object_id", DataType::Int),
            Column::new("attr_id", DataType::Int),
            Column::new("schema_order", DataType::Int),
            Column::new("clob_seq", DataType::Int),
            Column::new("clob", DataType::Clob),
        ]),
    )?;
    txn.create_index("clobs", "clobs_by_obj", &["object_id", "schema_order", "clob_seq"], false)?;

    txn.create_table(
        "schema_order",
        TableSchema::new(vec![
            Column::new("order_id", DataType::Int),
            Column::new("tag", DataType::Text),
            Column::new("last_child", DataType::Int),
            Column::new("depth", DataType::Int),
            Column::new("is_attr", DataType::Bool),
        ]),
    )?;
    txn.create_index("schema_order", "schema_order_pk", &["order_id"], true)?;

    txn.create_table(
        "order_anc",
        TableSchema::new(vec![
            Column::new("order_id", DataType::Int),
            Column::new("anc_order", DataType::Int),
        ]),
    )?;

    txn.create_table(
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
    txn.create_index("attr_defs", "attr_defs_pk", &["attr_id"], true)?;

    txn.create_table(
        "elem_defs",
        TableSchema::new(vec![
            Column::new("elem_id", DataType::Int),
            Column::new("attr_id", DataType::Int),
            Column::new("name", DataType::Text),
            Column::nullable("source", DataType::Text),
            Column::new("dtype", DataType::Text),
        ]),
    )?;
    txn.create_index("elem_defs", "elem_defs_pk", &["elem_id"], true)?;
    Ok(())
}

/// Load the global ordering into `schema_order` and `order_anc`.
pub fn load_ordering(txn: &mut Txn<'_>, ordering: &GlobalOrdering) -> Result<()> {
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
    txn.insert("schema_order", rows)?;
    let anc_rows: Vec<Vec<Value>> = ordering
        .ancestor_pairs()
        .into_iter()
        .map(|(n, a)| vec![Value::Int(n as i64), Value::Int(a as i64)])
        .collect();
    txn.insert("order_anc", anc_rows)?;
    Ok(())
}

/// Append the mirror rows of newly registered definitions to
/// `attr_defs` and `elem_defs`. Rows are never rewritten: a definition's
/// row is written once, in the transaction that registers it.
pub(crate) fn append_defs(txn: &mut Txn<'_>, attrs: &[AttrDef], elems: &[ElemDef]) -> Result<()> {
    if !attrs.is_empty() {
        txn.insert("attr_defs", attrs.iter().map(attr_row).collect())?;
    }
    if !elems.is_empty() {
        txn.insert("elem_defs", elems.iter().map(elem_row).collect())?;
    }
    Ok(())
}

/// The `attr_defs` row of an attribute definition.
pub(crate) fn attr_row(a: &AttrDef) -> Vec<Value> {
    vec![
        Value::Int(a.id),
        Value::Str(a.name.clone()),
        a.source.clone().map(Value::Str).unwrap_or(Value::Null),
        a.parent.map(Value::Int).unwrap_or(Value::Null),
        a.schema_order.map(|o| Value::Int(o as i64)).unwrap_or(Value::Null),
        Value::Bool(a.dynamic),
        Value::Bool(a.queryable),
        Value::Str(match &a.level {
            DefLevel::Admin => "admin".to_string(),
            DefLevel::User(u) => format!("user:{u}"),
        }),
    ]
}

/// The `elem_defs` row of an element definition.
pub(crate) fn elem_row(e: &ElemDef) -> Vec<Value> {
    vec![
        Value::Int(e.id),
        Value::Int(e.attr),
        Value::Str(e.name.clone()),
        e.source.clone().map(Value::Str).unwrap_or(Value::Null),
        Value::Str(e.dtype.name().to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defs::DefsRegistry;
    use crate::partition::{Partition, PartitionSpec};
    use minidb::Database;
    use std::sync::Arc;
    use xmlkit::schema::Schema;

    #[test]
    fn create_load_append() {
        let db = Database::new();
        let s = Arc::new(Schema::parse_dsl("r { a { x } }").unwrap());
        let p = Partition::new(s, &PartitionSpec::default().attr("/r/a")).unwrap();
        let o = GlobalOrdering::new(&p);
        let defs = DefsRegistry::from_partition(&p, &o);
        let mut txn = db.txn();
        create_tables(&mut txn).unwrap();
        load_ordering(&mut txn, &o).unwrap();
        append_defs(&mut txn, defs.attrs(), defs.elems()).unwrap();
        txn.commit().unwrap();
        assert!(db.has_table("attrs"));
        assert!(db.has_table("clobs"));
        assert_eq!(db.row_count("schema_order").unwrap(), 2);
        assert_eq!(db.row_count("order_anc").unwrap(), 1);
        assert_eq!(db.row_count("attr_defs").unwrap(), 1);
        assert_eq!(db.row_count("elem_defs").unwrap(), 1);
        let rs = db.execute(&minidb::Plan::Scan { table: "attrs".into(), filter: None }).unwrap();
        assert_eq!(rs.columns, ["object_id", "attr_id", "seq", "clob_seq"]);
        assert!(rs.rows.is_empty());
    }
}
