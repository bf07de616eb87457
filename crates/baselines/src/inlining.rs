//! Shared-inlining baseline (Shanmugasundaram et al. \[14\]).
//!
//! The schema is compiled into relational tables: a node gets its own
//! table when it is the document root, repeats (`maxOccurs > 1`), or is
//! a recursion target; every other node *inlines* into its nearest
//! tabled ancestor as columns named by the path. This minimizes joins
//! for single-cardinality paths — the technique's selling point — but:
//!
//! - dynamic metadata attributes live in the recursive `attr` table, so
//!   nested criteria cost one self-join per level (the paper's §6
//!   critique: the benefit "would be significantly diminished");
//! - the model is unordered: reconstruction re-emits *schema* order and
//!   drops empty optional wrappers (Rys et al.'s \[20\] criticism, which
//!   the hybrid design answers with the global ordering);
//! - every distinct leaf becomes a column and every repeating node a
//!   table, so the table count grows with the schema (E5 measures the
//!   contrast with the hybrid's constant table count).

use crate::CatalogBackend;
use catalog::error::{CatalogError, Result};
use catalog::partition::Partition;
use catalog::query::{AttrQuery, ElemCond, ObjectQuery};
use catalog::shred::{
    parse_num, stored_num, ATTR, ATTRDEFS, ATTRLABL, ATTRV, ENTTYP, ENTTYPDS, ENTTYPL,
};
use minidb::{Column, DataType, Database, Expr, Plan, ResultSet, TableSchema, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use xmlkit::dom::{Document, NodeId};
use xmlkit::schema::{ChildRef, Schema, SchemaNodeId};
use xmlkit::writer;

/// Where a schema node's data lives.
#[derive(Debug, Clone)]
enum Placement {
    /// Own table.
    Table(String),
    /// Column(s) of an ancestor's table: `(table, column prefix)`.
    Inlined { table: String, column: String },
}

/// The inlining backend.
pub struct InliningBackend {
    db: Database,
    schema: std::sync::Arc<Schema>,
    partition: Partition,
    placement: HashMap<SchemaNodeId, Placement>,
    /// Column positions per table: `(table, column name) -> index`.
    col_index: HashMap<(String, String), usize>,
    next_obj: AtomicI64,
    next_row: AtomicI64,
    table_names: Vec<String>,
}

// Common leading columns of every generated table:
// object_id=0, id=1, parent_id=2, ord=3, then data columns.

impl InliningBackend {
    /// Compile `partition`'s schema into inlined tables.
    pub fn new(partition: Partition) -> Result<InliningBackend> {
        let schema = partition.schema().clone();
        let db = Database::new();
        let mut placement = HashMap::new();
        let mut col_index = HashMap::new();
        let mut table_names = Vec::new();

        // Decide table ownership.
        fn table_name(schema: &Schema, id: SchemaNodeId) -> String {
            schema
                .ancestry(id)
                .iter()
                .map(|n| schema.node(*n).name.as_str())
                .collect::<Vec<_>>()
                .join("_")
        }
        fn needs_table(schema: &Schema, id: SchemaNodeId) -> bool {
            let n = schema.node(id);
            id == schema.root() || n.cardinality.repeating() || n.has_recursive_child()
        }

        // Walk top-down building table defs; collect inlined leaf columns.
        struct TableDef {
            name: String,
            columns: Vec<Column>,
        }
        let mut tables: Vec<TableDef> = Vec::new();
        fn walk(
            schema: &Schema,
            id: SchemaNodeId,
            current_table: usize,
            prefix: String,
            tables: &mut Vec<TableDef>,
            placement: &mut HashMap<SchemaNodeId, Placement>,
        ) {
            let make_table = needs_table(schema, id);
            let (tidx, prefix) = if make_table {
                let name = table_name(schema, id);
                tables.push(TableDef {
                    name: name.clone(),
                    columns: vec![
                        Column::new("object_id", DataType::Int),
                        Column::new("id", DataType::Int),
                        Column::nullable("parent_id", DataType::Int),
                        Column::new("ord", DataType::Int),
                    ],
                });
                placement.insert(id, Placement::Table(name));
                (tables.len() - 1, String::new())
            } else {
                let col = if prefix.is_empty() {
                    schema.node(id).name.clone()
                } else {
                    format!("{prefix}_{}", schema.node(id).name)
                };
                placement.insert(
                    id,
                    Placement::Inlined {
                        table: tables[current_table].name.clone(),
                        column: col.clone(),
                    },
                );
                (current_table, col)
            };
            let node = schema.node(id);
            if node.is_leaf() {
                // Leaf data columns (text + numeric shadow).
                let base = if make_table { "value".to_string() } else { prefix.clone() };
                tables[tidx].columns.push(Column::nullable(base.clone(), DataType::Text));
                tables[tidx]
                    .columns
                    .push(Column::nullable(format!("{base}__n"), DataType::Float));
                return;
            }
            for c in node.children.iter() {
                if let ChildRef::Node(child) = c {
                    walk(schema, *child, tidx, prefix.clone(), tables, placement);
                }
            }
        }
        walk(&schema, schema.root(), 0, String::new(), &mut tables, &mut placement);

        for t in &tables {
            for (i, c) in t.columns.iter().enumerate() {
                col_index.insert((t.name.clone(), c.name.clone()), i);
            }
            db.create_table(t.name.clone(), TableSchema::new(t.columns.clone()))?;
            db.create_index(&t.name, &format!("{}_by_obj", t.name), &["object_id"], false)?;
            // Composite (object, parent) index: reconstruction fetches
            // children of one row, and queries probe by object.
            db.create_index(
                &t.name,
                &format!("{}_by_parent", t.name),
                &["object_id", "parent_id"],
                false,
            )?;
            table_names.push(t.name.clone());
        }

        // Fairness indexes: the dynamic-attribute hot paths filter the
        // recursive node table by its label column and the anchor table
        // by its head-name column — index them the way any DBA would
        // (the hybrid's weakness claims are about join shape and table
        // growth, not about competing against an unindexed store).
        let backend = InliningBackend {
            db,
            schema: schema.clone(),
            partition,
            placement,
            col_index,
            next_obj: AtomicI64::new(1),
            next_row: AtomicI64::new(1),
            table_names,
        };
        if let Ok((anchor_table, rec_table, _)) = backend.dynamic_tables() {
            let mut txn = backend.db.txn();
            txn.create_index(&rec_table, &format!("{rec_table}_by_label"), &[ATTRLABL], false)?;
            let head_col = format!("{ENTTYP}_{ENTTYPL}");
            if backend.col_index.contains_key(&(anchor_table.clone(), head_col.clone())) {
                txn.create_index(
                    &anchor_table,
                    &format!("{anchor_table}_by_head"),
                    &[&head_col],
                    false,
                )?;
            }
            txn.commit()?;
        }
        Ok(backend)
    }

    fn table_of(&self, id: SchemaNodeId) -> (&str, Option<&str>) {
        match self.placement.get(&id) {
            Some(Placement::Table(t)) => (t.as_str(), None),
            Some(Placement::Inlined { table, column }) => (table.as_str(), Some(column.as_str())),
            None => unreachable!("every schema node is placed"),
        }
    }

    fn col(&self, table: &str, column: &str) -> usize {
        *self
            .col_index
            .get(&(table.to_string(), column.to_string()))
            .unwrap_or_else(|| panic!("column {column} of {table}"))
    }

    /// Rows under construction during ingest, grouped by table.
    #[allow(clippy::too_many_arguments)]
    fn ingest_node(
        &self,
        doc: &Document,
        dnode: NodeId,
        snode: SchemaNodeId,
        object: i64,
        parent_row: Option<i64>,
        ord: i64,
        pending: &mut HashMap<String, Vec<Vec<Value>>>,
    ) {
        let (table, col) = self.table_of(snode);
        match col {
            None => {
                // Own table: allocate a row, fill inlined descendants.
                let rid = self.next_row.fetch_add(1, Ordering::Relaxed);
                let arity = self.col_index.iter().filter(|((t, _), _)| t == table).count();
                let mut row = vec![Value::Null; arity];
                row[0] = Value::Int(object);
                row[1] = Value::Int(rid);
                row[2] = parent_row.map(Value::Int).unwrap_or(Value::Null);
                row[3] = Value::Int(ord);
                if self.schema.node(snode).is_leaf() {
                    let text = doc.direct_text(dnode);
                    let vi = self.col(table, "value");
                    row[vi + 1] = parse_num(&text).map(Value::Float).unwrap_or(Value::Null);
                    row[vi] = Value::Str(text);
                } else {
                    self.fill_row(doc, dnode, snode, object, rid, &mut row, pending);
                }
                pending.entry(table.to_string()).or_default().push(row);
            }
            Some(_) => unreachable!("ingest_node is called on tabled nodes only"),
        }
    }

    /// Fill inlined columns of `row` from the subtree; recurse into
    /// tabled children.
    #[allow(clippy::too_many_arguments)]
    fn fill_row(
        &self,
        doc: &Document,
        dnode: NodeId,
        snode: SchemaNodeId,
        object: i64,
        row_id: i64,
        row: &mut [Value],
        pending: &mut HashMap<String, Vec<Vec<Value>>>,
    ) {
        let mut child_ord: HashMap<SchemaNodeId, i64> = HashMap::new();
        let children: Vec<NodeId> = doc.child_elements(dnode).collect();
        for child in children {
            let tag = doc.node(child).name().unwrap_or("");
            let Some(schild) = self.schema.child_named(snode, tag) else {
                continue; // not in schema: inlining has nowhere to put it
            };
            let (table, col) = self.table_of(schild);
            match col {
                None => {
                    let ord = child_ord.entry(schild).or_insert(0);
                    *ord += 1;
                    self.ingest_node(doc, child, schild, object, Some(row_id), *ord, pending);
                }
                Some(col) => {
                    if self.schema.node(schild).is_leaf() {
                        let text = doc.direct_text(child);
                        let vi = self.col(table, col);
                        row[vi + 1] = parse_num(&text).map(Value::Float).unwrap_or(Value::Null);
                        row[vi] = Value::Str(text);
                    } else {
                        self.fill_row(doc, child, schild, object, row_id, row, pending);
                    }
                }
            }
        }
    }

    /// Resolve a structural attribute name to its attribute-root node.
    fn structural_node(&self, name: &str) -> Result<SchemaNodeId> {
        self.partition
            .attr_roots()
            .iter()
            .copied()
            .find(|&n| self.schema.node(n).name == name)
            .ok_or_else(|| CatalogError::BadQuery(format!("unknown structural attribute {name}")))
    }

    /// Instance rows `(object_id, home_row_id)` of a structural
    /// attribute satisfying its element conditions.
    fn structural_instances(&self, aq: &AttrQuery) -> Result<ResultSet> {
        let node = self.structural_node(&aq.name)?;
        let (home_table, home_col) = self.table_of(node);
        // Conditions bind to columns of the home table, or to repeating
        // leaf child tables.
        let mut preds: Vec<Expr> = Vec::new();
        let mut child_table_conds: Vec<(String, ElemCond)> = Vec::new();
        for cond in &aq.elems {
            let leaf = if cond.name == aq.name && self.schema.node(node).is_leaf() {
                node
            } else {
                self.schema.child_named(node, &cond.name).ok_or_else(|| {
                    CatalogError::BadQuery(format!("unknown element {} on {}", cond.name, aq.name))
                })?
            };
            let (ltab, lcol) = self.table_of(leaf);
            match lcol {
                Some(col) if ltab == home_table => {
                    let vi = self.col(home_table, col);
                    preds.push(value_pred(vi, cond));
                }
                _ => {
                    // Repeating leaf in its own table.
                    child_table_conds.push((ltab.to_string(), cond.clone()));
                }
            }
        }
        let _ = home_col;
        let scan = Plan::Scan {
            table: home_table.to_string(),
            filter: if preds.is_empty() { None } else { Some(Expr::all(preds)) },
        };
        let mut set = self.db.execute(
            &scan.project(vec![(Expr::col(0), "object_id".into()), (Expr::col(1), "id".into())]),
        )?;
        for (ctab, cond) in child_table_conds {
            if set.rows.is_empty() {
                break;
            }
            let vi = self.col(&ctab, "value");
            let child = Plan::Scan { table: ctab.clone(), filter: Some(value_pred(vi, &cond)) };
            // set(obj, id) ⋈ child on (obj, id = parent_id)
            let joined = self.db.execute(
                &Plan::Values { columns: set.columns.clone(), rows: set.rows.clone() }
                    .hash_join(child, vec![0, 1], vec![0, 2])
                    .project(vec![(Expr::col(0), "object_id".into()), (Expr::col(1), "id".into())]),
            )?;
            set = self.db.execute(&Plan::Distinct {
                input: Box::new(Plan::Values { columns: joined.columns, rows: joined.rows }),
            })?;
        }
        // Sub-attribute criteria on structural attributes: resolve
        // against child nodes (rare in LEAD; supported for generality).
        if !aq.subs.is_empty() {
            return Err(CatalogError::BadQuery(
                "inlining baseline supports sub-attribute criteria on dynamic attributes only"
                    .into(),
            ));
        }
        Ok(set)
    }

    /// The dynamic anchor's table (e.g. `..._detailed`) and the
    /// recursive node table (e.g. `..._attr`).
    fn dynamic_tables(&self) -> Result<(String, String, SchemaNodeId)> {
        let anchor = self
            .partition
            .attr_roots()
            .iter()
            .copied()
            .find(|&n| self.partition.is_dynamic_root(n))
            .ok_or_else(|| CatalogError::BadQuery("schema has no dynamic attribute root".into()))?;
        let (anchor_table, _) = self.table_of(anchor);
        let rec = self.schema.child_named(anchor, ATTR).ok_or_else(|| {
            CatalogError::BadQuery("dynamic root lacks the recursive node".into())
        })?;
        let (rec_table, _) = self.table_of(rec);
        Ok((anchor_table.to_string(), rec_table.to_string(), anchor))
    }

    /// Rows of the recursive `attr` table labeled (name, source-ish)
    /// that satisfy `cond` on their value column, as (object, id,
    /// parent_id).
    fn labeled_attr_rows(
        &self,
        rec_table: &str,
        name: &str,
        source: Option<&str>,
        value_cond: Option<&ElemCond>,
    ) -> Result<ResultSet> {
        let name_col = self.col(rec_table, ATTRLABL);
        let src_col = self.col(rec_table, ATTRDEFS);
        let val_col = self.col(rec_table, ATTRV);
        let mut preds = vec![Expr::col_eq(name_col, name)];
        if let Some(s) = source {
            // explicit source match OR inherited (NULL source column)
            preds.push(Expr::Or(
                Box::new(Expr::col_eq(src_col, s)),
                Box::new(Expr::IsNull(Box::new(Expr::col(src_col)))),
            ));
        }
        if let Some(c) = value_cond {
            preds.push(value_pred(val_col, c));
        }
        self.db
            .execute(
                &Plan::Scan { table: rec_table.to_string(), filter: Some(Expr::all(preds)) }
                    .project(vec![
                        (Expr::col(0), "object_id".into()),
                        (Expr::col(1), "id".into()),
                        (Expr::col(2), "parent_id".into()),
                    ]),
            )
            .map_err(Into::into)
    }

    /// Instance rows (object, row id) of a dynamic attribute query node
    /// (top: detailed rows; sub: attr rows), hierarchical semantics with
    /// one self-join per nesting level.
    fn dynamic_instances(&self, aq: &AttrQuery, is_top: bool) -> Result<ResultSet> {
        let (anchor_table, rec_table, anchor) = self.dynamic_tables()?;
        let source = aq.source.as_deref().unwrap_or("");
        let mut set: ResultSet = if is_top {
            // detailed rows whose inlined head names (name, source).
            let head_name_col = self.col(&anchor_table, &format!("{ENTTYP}_{ENTTYPL}"));
            let head_src_col = self.col(&anchor_table, &format!("{ENTTYP}_{ENTTYPDS}"));
            let _ = anchor;
            self.db.execute(
                &Plan::Scan {
                    table: anchor_table.clone(),
                    filter: Some(Expr::and(
                        Expr::col_eq(head_name_col, aq.name.clone()),
                        Expr::col_eq(head_src_col, source),
                    )),
                }
                .project(vec![(Expr::col(0), "object_id".into()), (Expr::col(1), "id".into())]),
            )?
        } else {
            let rows = self.labeled_attr_rows(&rec_table, &aq.name, aq.source.as_deref(), None)?;
            ResultSet {
                columns: vec!["object_id".into(), "id".into()],
                rows: rows.rows.into_iter().map(|r| vec![r[0].clone(), r[1].clone()]).collect(),
            }
        };

        // Element conditions: attr rows labeled cond.name with a value,
        // whose parent is the instance row — one join each.
        for cond in &aq.elems {
            if set.rows.is_empty() {
                return Ok(set);
            }
            let matches =
                self.labeled_attr_rows(&rec_table, &cond.name, aq.source.as_deref(), Some(cond))?;
            let keep: std::collections::HashSet<(i64, i64)> = matches
                .rows
                .iter()
                .filter_map(|r| Some((r[0].as_i64()?, r[2].as_i64()?)))
                .collect();
            set.rows.retain(|r| {
                matches!((r[0].as_i64(), r[1].as_i64()), (Some(o), Some(n)) if keep.contains(&(o, n)))
            });
        }

        // Sub-attribute criteria: satisfied sub rows must be descendants
        // of the instance row — walked one self-join per level through
        // the recursive table.
        for sub in &aq.subs {
            if set.rows.is_empty() {
                return Ok(set);
            }
            let sat = self.dynamic_instances(sub, false)?;
            let sat_set: std::collections::HashSet<(i64, i64)> =
                sat.rows.iter().filter_map(|r| Some((r[0].as_i64()?, r[1].as_i64()?))).collect();
            if sat_set.is_empty() {
                return Ok(ResultSet { columns: set.columns, rows: Vec::new() });
            }
            // Frontier descent from each candidate instance.
            let mut ok: std::collections::HashSet<(i64, i64)> = std::collections::HashSet::new();
            let mut frontier: Vec<Vec<Value>> = set
                .rows
                .iter()
                .map(|r| vec![r[0].clone(), r[1].clone(), r[1].clone()])
                .collect();
            loop {
                if frontier.is_empty() {
                    break;
                }
                // frontier(obj, root, node) ⋈ attr table on (obj, node=parent_id)
                let next = self.db.execute(
                    &Plan::Values {
                        columns: vec!["object_id".into(), "root".into(), "node".into()],
                        rows: frontier.clone(),
                    }
                    .hash_join(
                        Plan::Scan { table: rec_table.clone(), filter: None },
                        vec![0, 2],
                        vec![0, 2],
                    ),
                )?;
                frontier = next
                    .rows
                    .iter()
                    .map(|r| vec![r[0].clone(), r[1].clone(), r[4].clone()])
                    .collect();
                for r in &frontier {
                    if let (Some(o), Some(root), Some(n)) =
                        (r[0].as_i64(), r[1].as_i64(), r[2].as_i64())
                    {
                        if sat_set.contains(&(o, n)) {
                            ok.insert((o, root));
                        }
                    }
                }
                if aq.direct_subs {
                    break;
                }
            }
            set.rows.retain(|r| {
                matches!((r[0].as_i64(), r[1].as_i64()), (Some(o), Some(n)) if ok.contains(&(o, n)))
            });
        }
        Ok(set)
    }

    /// Reconstruct one object's document by walking the tables in
    /// schema order (inlining is unordered: schema order is the best it
    /// can do, per \[20\]).
    fn rebuild(&self, object: i64) -> Result<Option<String>> {
        let root = self.schema.root();
        let (root_table, _) = self.table_of(root);
        let rows = self.db.execute(&Plan::Scan {
            table: root_table.to_string(),
            filter: Some(Expr::col_eq(0, object)),
        })?;
        let Some(root_row) = rows.rows.first() else {
            return Ok(None);
        };
        let mut doc = Document::with_root(self.schema.node(root).name.clone());
        let root_id = doc.root();
        self.rebuild_children(object, root, root_row, root_id, &mut doc)?;
        Ok(Some(writer::to_string(&doc, doc.root())))
    }

    fn rebuild_children(
        &self,
        object: i64,
        snode: SchemaNodeId,
        row: &[Value],
        dom_parent: NodeId,
        doc: &mut Document,
    ) -> Result<()> {
        let (own_table, _) = self.table_of(snode);
        let row_id = row[1].as_i64().unwrap_or(0);
        let children: Vec<ChildRef> = self.schema.node(snode).children.clone();
        for c in children {
            let child = c.id();
            // Recursion edges re-enter the same node; instance recursion
            // is handled by the tabled fetch below, so skip the edge if
            // it's already covered by a Node ref with the same target.
            if matches!(c, ChildRef::Recurse(_))
                && matches!(self.placement.get(&child), Some(Placement::Table(_)))
            {
                // attr-in-attr instances are fetched as parent rows.
                self.rebuild_tabled(object, child, row_id, dom_parent, doc)?;
                continue;
            }
            match self.placement.get(&child).cloned() {
                Some(Placement::Table(_)) => {
                    self.rebuild_tabled(object, child, row_id, dom_parent, doc)?;
                }
                Some(Placement::Inlined { table, column }) if table == own_table => {
                    if self.schema.node(child).is_leaf() {
                        let vi = self.col(&table, &column);
                        if let Some(text) = row[vi].as_str() {
                            let el =
                                doc.add_element(dom_parent, self.schema.node(child).name.clone());
                            if !text.is_empty() {
                                doc.add_text(el, text);
                            }
                        }
                    } else {
                        // Interior inlined: emit wrapper only if any
                        // descendant carries data (presence is lossy).
                        if self.subtree_has_data(object, row_id, child, row)? {
                            let el =
                                doc.add_element(dom_parent, self.schema.node(child).name.clone());
                            self.rebuild_children(object, child, row, el, doc)?;
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn rebuild_tabled(
        &self,
        object: i64,
        snode: SchemaNodeId,
        parent_row: i64,
        dom_parent: NodeId,
        doc: &mut Document,
    ) -> Result<()> {
        let (table, _) = self.table_of(snode);
        let mut rows = self
            .db
            .execute(&Plan::Scan {
                table: table.to_string(),
                filter: Some(Expr::and(Expr::col_eq(0, object), Expr::col_eq(2, parent_row))),
            })?
            .rows;
        rows.sort_by_key(|r| r[3].as_i64().unwrap_or(0));
        for row in &rows {
            let el = doc.add_element(dom_parent, self.schema.node(snode).name.clone());
            if self.schema.node(snode).is_leaf() {
                let vi = self.col(table, "value");
                if let Some(text) = row[vi].as_str() {
                    if !text.is_empty() {
                        doc.add_text(el, text);
                    }
                }
            } else {
                self.rebuild_children(object, snode, row, el, doc)?;
            }
        }
        Ok(())
    }

    fn subtree_has_data(
        &self,
        object: i64,
        parent_row: i64,
        snode: SchemaNodeId,
        row: &[Value],
    ) -> Result<bool> {
        let node = self.schema.node(snode);
        if node.is_leaf() {
            if let Some(Placement::Inlined { table, column }) = self.placement.get(&snode) {
                let vi = self.col(table, column);
                return Ok(!row[vi].is_null());
            }
            return Ok(false);
        }
        for c in node.children.iter() {
            let present = match c {
                ChildRef::Node(n) => match self.placement.get(n).cloned() {
                    Some(Placement::Inlined { .. }) => {
                        self.subtree_has_data(object, parent_row, *n, row)?
                    }
                    Some(Placement::Table(table)) => !self
                        .db
                        .execute(&Plan::Scan {
                            table,
                            filter: Some(Expr::and(
                                Expr::col_eq(0, object),
                                Expr::col_eq(2, parent_row),
                            )),
                        })?
                        .rows
                        .is_empty(),
                    None => false,
                },
                ChildRef::Recurse(_) => false,
            };
            if present {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

fn value_pred(text_col: usize, cond: &ElemCond) -> Expr {
    use catalog::query::{QOp, QValue};
    let num_col = text_col + 1;
    match cond.op {
        QOp::Exists => Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::col(text_col))))),
        QOp::Like => match &cond.value {
            QValue::Str(p) => Expr::Like(Box::new(Expr::col(text_col)), p.clone()),
            QValue::Num(_) => Expr::lit(false),
        },
        QOp::Between => match (&cond.value, &cond.value2) {
            (QValue::Num(lo), Some(QValue::Num(hi))) => match (stored_num(*lo), stored_num(*hi)) {
                (Some(lo), Some(hi)) => Expr::Between(
                    Box::new(Expr::col(num_col)),
                    Box::new(Expr::lit(lo)),
                    Box::new(Expr::lit(hi)),
                ),
                // A NaN bound matches nothing.
                _ => Expr::lit(false),
            },
            _ => Expr::lit(false),
        },
        QOp::Eq | QOp::Ne | QOp::Lt | QOp::Le | QOp::Gt | QOp::Ge => {
            let op = match cond.op {
                QOp::Eq => minidb::CmpOp::Eq,
                QOp::Ne => minidb::CmpOp::Ne,
                QOp::Lt => minidb::CmpOp::Lt,
                QOp::Le => minidb::CmpOp::Le,
                QOp::Gt => minidb::CmpOp::Gt,
                QOp::Ge => minidb::CmpOp::Ge,
                _ => unreachable!(),
            };
            match &cond.value {
                QValue::Num(n) => match stored_num(*n) {
                    Some(n) => Expr::Cmp(op, Box::new(Expr::col(num_col)), Box::new(Expr::lit(n))),
                    // A NaN literal matches nothing.
                    None => Expr::lit(false),
                },
                QValue::Str(s) => {
                    Expr::Cmp(op, Box::new(Expr::col(text_col)), Box::new(Expr::lit(s.clone())))
                }
            }
        }
    }
}

impl CatalogBackend for InliningBackend {
    fn name(&self) -> &'static str {
        "inlining"
    }

    fn ingest(&self, xml: &str) -> Result<i64> {
        let doc = Document::parse(xml)?;
        let root_name = doc.node(doc.root()).name().unwrap_or("");
        if root_name != self.schema.node(self.schema.root()).name {
            return Err(CatalogError::UnknownElement { path: format!("/{root_name}") });
        }
        let object = self.next_obj.fetch_add(1, Ordering::Relaxed);
        let mut pending: HashMap<String, Vec<Vec<Value>>> = HashMap::new();
        self.ingest_node(&doc, doc.root(), self.schema.root(), object, None, 1, &mut pending);
        for (table, rows) in pending {
            self.db.insert(&table, rows)?;
        }
        Ok(object)
    }

    fn query(&self, q: &ObjectQuery) -> Result<Vec<i64>> {
        let mut result: Option<std::collections::BTreeSet<i64>> = None;
        for aq in &q.attrs {
            let set = if aq.source.is_some() {
                self.dynamic_instances(aq, true)?
            } else {
                self.structural_instances(aq)?
            };
            let objs: std::collections::BTreeSet<i64> =
                set.rows.iter().filter_map(|r| r[0].as_i64()).collect();
            result = Some(match result {
                None => objs,
                Some(acc) => acc.intersection(&objs).copied().collect(),
            });
        }
        Ok(result.unwrap_or_default().into_iter().collect())
    }

    fn reconstruct(&self, ids: &[i64]) -> Result<Vec<(i64, String)>> {
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            if let Some(xml) = self.rebuild(id)? {
                out.push((id, xml));
            }
        }
        Ok(out)
    }

    fn storage_bytes(&self) -> usize {
        self.db.approx_bytes()
    }

    fn table_count(&self) -> usize {
        self.table_names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::lead::{fig4_query, lead_partition, FIG3_DOCUMENT};
    use catalog::query::{AttrQuery, ElemCond, ObjectQuery};

    fn backend() -> InliningBackend {
        InliningBackend::new(lead_partition()).unwrap()
    }

    #[test]
    fn tables_derived_from_schema() {
        let b = backend();
        // Root + each repeating node + the recursive attr node.
        assert!(b.table_count() >= 8, "tables: {:?}", b.table_names);
        assert!(b.table_names.iter().any(|t| t.ends_with("_theme")));
        assert!(b.table_names.iter().any(|t| t.ends_with("_attr")));
        assert!(b.table_names.iter().any(|t| t.ends_with("_detailed")));
        // Non-repeating status is inlined, not tabled.
        assert!(!b.table_names.iter().any(|t| t.ends_with("_status")));
    }

    #[test]
    fn fig4_query_over_inlined() {
        let b = backend();
        let hit = b.ingest(FIG3_DOCUMENT).unwrap();
        let _miss = b.ingest("<LEADresource><resourceID>x</resourceID></LEADresource>").unwrap();
        assert_eq!(b.query(&fig4_query()).unwrap(), vec![hit]);
    }

    #[test]
    fn structural_queries_over_inlined() {
        let b = backend();
        let id = b.ingest(FIG3_DOCUMENT).unwrap();
        // theme is tabled (repeats); themekey is a repeating leaf table.
        let q = ObjectQuery::new().attr(
            AttrQuery::new("theme")
                .elem(ElemCond::eq_str("themekey", "air_pressure_at_cloud_base")),
        );
        assert_eq!(b.query(&q).unwrap(), vec![id]);
        // themekt is inlined into the theme table.
        let q2 = ObjectQuery::new()
            .attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekt", "CF NetCDF")));
        assert_eq!(b.query(&q2).unwrap(), vec![id]);
        let q3 = ObjectQuery::new()
            .attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekt", "GCMD")));
        assert!(b.query(&q3).unwrap().is_empty());
    }

    #[test]
    fn reconstruct_schema_order() {
        let b = backend();
        let id = b.ingest(FIG3_DOCUMENT).unwrap();
        let docs = b.reconstruct(&[id]).unwrap();
        let rebuilt = Document::parse(&docs[0].1).unwrap();
        let orig = Document::parse(FIG3_DOCUMENT).unwrap();
        // Fig 3 is already in schema order, so reconstruction matches.
        assert_eq!(
            writer::to_string(&orig, orig.root()),
            writer::to_string(&rebuilt, rebuilt.root())
        );
    }

    #[test]
    fn conjunction_and_misses() {
        let b = backend();
        let id = b.ingest(FIG3_DOCUMENT).unwrap();
        let q = ObjectQuery::new()
            .attr(AttrQuery::new("theme").elem(ElemCond::like("themekey", "%cloud%")))
            .attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::eq_num("dz", 500.0)));
        assert_eq!(b.query(&q).unwrap(), vec![id]);
        let q_miss = ObjectQuery::new()
            .attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::eq_num("dz", 1.0)));
        assert!(b.query(&q_miss).unwrap().is_empty());
    }

    #[test]
    fn leaf_structural_attribute() {
        let b = backend();
        let id = b.ingest(FIG3_DOCUMENT).unwrap();
        let q = ObjectQuery::new()
            .attr(AttrQuery::new("resourceID").elem(ElemCond::eq_str("resourceID", "arps-run-42")));
        assert_eq!(b.query(&q).unwrap(), vec![id]);
    }
}
