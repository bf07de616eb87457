//! Edge-table baseline (Florescu/Kossmann \[17\]).
//!
//! The document is a directed graph stored in **one** table:
//! `edges(object_id, node_id, parent_id, ord, tag, value_str,
//! value_num)`. Path navigation costs one self-join per step, and
//! descendant navigation (which the hybrid catalog answers with its
//! precomputed inverted list) costs one self-join **per level** —
//! executed here as iterated frontier joins. E3 measures exactly this.
//!
//! Limitations kept from the original design: XML attributes and mixed
//! content are out of scope (grid metadata uses neither).

use crate::dom_match::cond_matches;
use crate::CatalogBackend;
use catalog::error::Result;
use catalog::query::{AttrQuery, ElemCond, ObjectQuery};
use catalog::shred::{ATTR, ATTRDEFS, ATTRLABL, ATTRV, ENTTYP, ENTTYPDS, ENTTYPL};
use minidb::{Column, DataType, Database, Expr, Plan, ResultSet, TableSchema, Value};
use std::sync::atomic::{AtomicI64, Ordering};
use xmlkit::dom::{Document, NodeId, NodeKind};
use xmlkit::writer;

/// The edge-table backend.
pub struct EdgeBackend {
    db: Database,
    next_obj: AtomicI64,
    next_node: AtomicI64,
}

// edges columns: object_id=0 node_id=1 parent_id=2 ord=3 tag=4 value_str=5 value_num=6

impl EdgeBackend {
    /// New empty store.
    pub fn new() -> Result<EdgeBackend> {
        let db = Database::new();
        db.create_table(
            "edges",
            TableSchema::new(vec![
                Column::new("object_id", DataType::Int),
                Column::new("node_id", DataType::Int),
                Column::nullable("parent_id", DataType::Int),
                Column::new("ord", DataType::Int),
                Column::new("tag", DataType::Text),
                Column::nullable("value_str", DataType::Text),
                Column::nullable("value_num", DataType::Float),
            ]),
        )?;
        db.create_index("edges", "edges_by_tag", &["tag"], false)?;
        db.create_index("edges", "edges_by_obj", &["object_id"], false)?;
        db.create_index("edges", "edges_by_parent", &["object_id", "parent_id"], false)?;
        Ok(EdgeBackend { db, next_obj: AtomicI64::new(1), next_node: AtomicI64::new(1) })
    }

    /// Distinct `(object_id, node_id)` of elements with `tag`.
    fn nodes_with_tag(&self, tag: &str) -> Result<ResultSet> {
        self.db
            .execute(
                &Plan::Scan { table: "edges".into(), filter: Some(Expr::col_eq(4, tag)) }.project(
                    vec![(Expr::col(0), "object_id".into()), (Expr::col(1), "node_id".into())],
                ),
            )
            .map_err(Into::into)
    }

    /// Keep rows of `set` (object, node) that have a child with `tag`
    /// whose value satisfies `cond` (None = existence only).
    fn filter_by_child_value(
        &self,
        set: ResultSet,
        tag: &str,
        cond: Option<&ElemCond>,
    ) -> Result<ResultSet> {
        if set.rows.is_empty() {
            return Ok(set);
        }
        let children = Plan::Scan { table: "edges".into(), filter: Some(Expr::col_eq(4, tag)) };
        // set(obj=0,node=1) ⋈ children on (obj, node=parent_id)
        let joined = self.db.execute(
            &Plan::Values { columns: set.columns.clone(), rows: set.rows.clone() }.hash_join(
                children,
                vec![0, 1],
                vec![0, 2],
            ),
        )?;
        // joined: set(2) ++ edges(7) → value_str at 2+5=7
        let mut keep: std::collections::HashSet<(i64, i64)> = std::collections::HashSet::new();
        for row in &joined.rows {
            let ok = match cond {
                None => true,
                Some(c) => {
                    let text = row[7].as_str().unwrap_or("");
                    cond_matches(c, text)
                }
            };
            if ok {
                if let (Some(o), Some(n)) = (row[0].as_i64(), row[1].as_i64()) {
                    keep.insert((o, n));
                }
            }
        }
        Ok(ResultSet {
            columns: set.columns.clone(),
            rows: set
                .rows
                .into_iter()
                .filter(|r| {
                    matches!((r[0].as_i64(), r[1].as_i64()), (Some(o), Some(n)) if keep.contains(&(o, n)))
                })
                .collect(),
        })
    }

    /// `(object, root_node, descendant_node)` pairs: all descendants of
    /// each node in `set`, computed with one self-join per level (the
    /// edge-table recursion cost).
    fn descendant_pairs(&self, set: &ResultSet, direct_only: bool) -> Result<ResultSet> {
        let mut all = ResultSet {
            columns: vec!["object_id".into(), "root".into(), "node".into()],
            rows: Vec::new(),
        };
        // Frontier: (object, root, node) starting with (o, n, n).
        let mut frontier: Vec<Vec<Value>> = set
            .rows
            .iter()
            .map(|r| vec![r[0].clone(), r[1].clone(), r[1].clone()])
            .collect();
        loop {
            if frontier.is_empty() {
                break;
            }
            let next = self.db.execute(
                &Plan::Values { columns: all.columns.clone(), rows: frontier.clone() }.hash_join(
                    Plan::Scan { table: "edges".into(), filter: None },
                    vec![0, 2],
                    vec![0, 2], // join on (object, node = parent_id)
                ),
            )?;
            // next: frontier(3) ++ edges(7); child node_id at 3+1=4
            frontier = next
                .rows
                .iter()
                .map(|r| vec![r[0].clone(), r[1].clone(), r[4].clone()])
                .collect();
            all.rows.extend(frontier.iter().cloned());
            if direct_only {
                break;
            }
        }
        Ok(all)
    }

    /// Nodes satisfying an attribute criterion (whole subtree),
    /// hierarchical semantics.
    fn matching_nodes(
        &self,
        aq: &AttrQuery,
        is_top: bool,
        parent_source: Option<&str>,
    ) -> Result<ResultSet> {
        // Candidate nodes.
        let mut candidates = match (&aq.source, is_top) {
            (None, _) => self.nodes_with_tag(&aq.name)?,
            (Some(source), true) => {
                // Dynamic top: parents of the `enttyp` heads naming it.
                let heads = self.filter_by_child_value(
                    self.nodes_with_tag(ENTTYP)?,
                    ENTTYPL,
                    Some(&ElemCond::eq_str(ENTTYPL, aq.name.clone())),
                )?;
                let heads = self.filter_by_child_value(
                    heads,
                    ENTTYPDS,
                    Some(&ElemCond::eq_str(ENTTYPDS, source.clone())),
                )?;
                self.parents_of(&heads)?
            }
            (Some(source), false) => {
                // Dynamic sub: `attr` nodes labeled (name, source); a
                // missing source tag inherits the parent's source.
                let named = self.filter_by_child_value(
                    self.nodes_with_tag(ATTR)?,
                    ATTRLABL,
                    Some(&ElemCond::eq_str(ATTRLABL, aq.name.clone())),
                )?;
                self.filter_source(named, source, parent_source)?
            }
        };

        // Element conditions.
        for cond in &aq.elems {
            candidates = if aq.source.is_some() {
                // Dynamic: child attr node labeled cond.name carrying a value.
                let labeled = self.filter_by_child_value(
                    self.nodes_with_tag(ATTR)?,
                    ATTRLABL,
                    Some(&ElemCond::eq_str(ATTRLABL, cond.name.clone())),
                )?;
                let valued = self.filter_by_child_value(labeled, ATTRV, Some(cond))?;
                // candidates that have one of `valued` as a direct child.
                self.keep_with_child_in(candidates, &valued)?
            } else {
                // Structural: direct child with tag == cond.name, or the
                // node's own value for leaf attributes named like the cond.
                if cond.name == aq.name {
                    self.filter_by_own_value(candidates, cond)?
                } else {
                    self.filter_by_child_value(candidates, &cond.name, Some(cond))?
                }
            };
            if candidates.rows.is_empty() {
                return Ok(candidates);
            }
        }

        // Sub-attribute conditions (hierarchical).
        for sub in &aq.subs {
            let sat_subs = self.matching_nodes(sub, false, aq.source.as_deref())?;
            if sat_subs.rows.is_empty() {
                return Ok(ResultSet { columns: candidates.columns, rows: Vec::new() });
            }
            let pairs = self.descendant_pairs(&candidates, aq.direct_subs)?;
            // keep candidates whose (object, desc) ∈ sat_subs
            let keep: std::collections::HashSet<(i64, i64)> = sat_subs
                .rows
                .iter()
                .filter_map(|r| Some((r[0].as_i64()?, r[1].as_i64()?)))
                .collect();
            let mut ok_roots: std::collections::HashSet<(i64, i64)> =
                std::collections::HashSet::new();
            for r in &pairs.rows {
                if let (Some(o), Some(root), Some(n)) =
                    (r[0].as_i64(), r[1].as_i64(), r[2].as_i64())
                {
                    if keep.contains(&(o, n)) {
                        ok_roots.insert((o, root));
                    }
                }
            }
            candidates.rows.retain(|r| {
                matches!((r[0].as_i64(), r[1].as_i64()), (Some(o), Some(n)) if ok_roots.contains(&(o, n)))
            });
            if candidates.rows.is_empty() {
                return Ok(candidates);
            }
        }
        Ok(candidates)
    }

    fn parents_of(&self, set: &ResultSet) -> Result<ResultSet> {
        if set.rows.is_empty() {
            return Ok(set.clone());
        }
        // set(obj, node) ⋈ edges on (obj, node_id) → parent_id
        let joined = self.db.execute(
            &Plan::Values { columns: set.columns.clone(), rows: set.rows.clone() }
                .hash_join(
                    Plan::Scan { table: "edges".into(), filter: None },
                    vec![0, 1],
                    vec![0, 1],
                )
                .project(vec![
                    (Expr::col(0), "object_id".into()),
                    (Expr::col(4), "node_id".into()),
                ]),
        )?;
        Ok(ResultSet {
            columns: joined.columns,
            rows: joined.rows.into_iter().filter(|r| !r[1].is_null()).collect(),
        })
    }

    /// Keep nodes whose explicit source matches, or which have no
    /// source child and inherit a matching parent source.
    fn filter_source(
        &self,
        set: ResultSet,
        source: &str,
        parent_source: Option<&str>,
    ) -> Result<ResultSet> {
        if set.rows.is_empty() {
            return Ok(set);
        }
        let joined = self.db.execute(
            &Plan::Values { columns: set.columns.clone(), rows: set.rows.clone() }.hash_join(
                Plan::Scan { table: "edges".into(), filter: Some(Expr::col_eq(4, ATTRDEFS)) },
                vec![0, 1],
                vec![0, 2],
            ),
        )?;
        let mut explicit: std::collections::HashMap<(i64, i64), bool> =
            std::collections::HashMap::new();
        for r in &joined.rows {
            if let (Some(o), Some(n)) = (r[0].as_i64(), r[1].as_i64()) {
                let matches = r[7].as_str() == Some(source);
                explicit.entry((o, n)).and_modify(|m| *m = *m || matches).or_insert(matches);
            }
        }
        let inherit_ok = parent_source == Some(source);
        Ok(ResultSet {
            columns: set.columns.clone(),
            rows: set
                .rows
                .into_iter()
                .filter(|r| {
                    let key = match (r[0].as_i64(), r[1].as_i64()) {
                        (Some(o), Some(n)) => (o, n),
                        _ => return false,
                    };
                    match explicit.get(&key) {
                        Some(m) => *m,
                        None => inherit_ok,
                    }
                })
                .collect(),
        })
    }

    fn keep_with_child_in(&self, set: ResultSet, children: &ResultSet) -> Result<ResultSet> {
        if set.rows.is_empty() || children.rows.is_empty() {
            return Ok(ResultSet { columns: set.columns, rows: Vec::new() });
        }
        let child_parents = self.parents_of(children)?;
        let keep: std::collections::HashSet<(i64, i64)> = child_parents
            .rows
            .iter()
            .filter_map(|r| Some((r[0].as_i64()?, r[1].as_i64()?)))
            .collect();
        Ok(ResultSet {
            columns: set.columns.clone(),
            rows: set
                .rows
                .into_iter()
                .filter(|r| {
                    matches!((r[0].as_i64(), r[1].as_i64()), (Some(o), Some(n)) if keep.contains(&(o, n)))
                })
                .collect(),
        })
    }

    fn filter_by_own_value(&self, set: ResultSet, cond: &ElemCond) -> Result<ResultSet> {
        if set.rows.is_empty() {
            return Ok(set);
        }
        let joined = self.db.execute(
            &Plan::Values { columns: set.columns.clone(), rows: set.rows.clone() }.hash_join(
                Plan::Scan { table: "edges".into(), filter: None },
                vec![0, 1],
                vec![0, 1],
            ),
        )?;
        // value_str at 2+5=7
        Ok(ResultSet {
            columns: set.columns,
            rows: joined
                .rows
                .into_iter()
                .filter(|r| cond_matches(cond, r[7].as_str().unwrap_or("")))
                .map(|r| vec![r[0].clone(), r[1].clone()])
                .collect(),
        })
    }
}

impl CatalogBackend for EdgeBackend {
    fn name(&self) -> &'static str {
        "edge-table"
    }

    fn ingest(&self, xml: &str) -> Result<i64> {
        let doc = Document::parse(xml)?;
        let obj = self.next_obj.fetch_add(1, Ordering::Relaxed);
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(doc.len());
        // Pre-order walk assigning node ids.
        let mut stack: Vec<(NodeId, Option<i64>, i64)> = vec![(doc.root(), None, 1)];
        while let Some((node, parent, ord)) = stack.pop() {
            if let NodeKind::Element { name, .. } = &doc.node(node).kind {
                let nid = self.next_node.fetch_add(1, Ordering::Relaxed);
                let text = doc.direct_text(node);
                let num = text.trim().parse::<f64>().ok();
                rows.push(vec![
                    Value::Int(obj),
                    Value::Int(nid),
                    parent.map(Value::Int).unwrap_or(Value::Null),
                    Value::Int(ord),
                    Value::Str(name.clone()),
                    if text.is_empty() { Value::Null } else { Value::Str(text) },
                    num.map(Value::Float).unwrap_or(Value::Null),
                ]);
                for (i, c) in
                    doc.child_elements(node).enumerate().collect::<Vec<_>>().into_iter().rev()
                {
                    stack.push((c, Some(nid), (i + 1) as i64));
                }
            }
        }
        self.db.insert("edges", rows)?;
        Ok(obj)
    }

    fn query(&self, q: &ObjectQuery) -> Result<Vec<i64>> {
        let mut result: Option<std::collections::BTreeSet<i64>> = None;
        for aq in &q.attrs {
            let sat = self.matching_nodes(aq, true, None)?;
            let objs: std::collections::BTreeSet<i64> =
                sat.rows.iter().filter_map(|r| r[0].as_i64()).collect();
            result = Some(match result {
                None => objs,
                Some(acc) => acc.intersection(&objs).copied().collect(),
            });
            if result.as_ref().is_some_and(|s| s.is_empty()) {
                break;
            }
        }
        Ok(result.unwrap_or_default().into_iter().collect())
    }

    fn reconstruct(&self, ids: &[i64]) -> Result<Vec<(i64, String)>> {
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            let rs = self.db.execute(&Plan::Scan {
                table: "edges".into(),
                filter: Some(Expr::col_eq(0, id)),
            })?;
            // Rebuild the tree in application code — the "external
            // tagger" the hybrid design avoids.
            let mut doc: Option<Document> = None;
            let mut by_parent: std::collections::BTreeMap<i64, Vec<&Vec<Value>>> =
                std::collections::BTreeMap::new();
            let mut root_row: Option<&Vec<Value>> = None;
            for r in &rs.rows {
                match r[2].as_i64() {
                    Some(p) => by_parent.entry(p).or_default().push(r),
                    None => root_row = Some(r),
                }
            }
            if let Some(root) = root_row {
                let mut d = Document::with_root(root[4].as_str().unwrap_or("root"));
                let root_id = d.root();
                build_subtree(&mut d, root_id, root[1].as_i64().unwrap_or(0), root, &by_parent);
                doc = Some(d);
            }
            if let Some(d) = doc {
                out.push((id, writer::to_string(&d, d.root())));
            }
        }
        Ok(out)
    }

    fn storage_bytes(&self) -> usize {
        self.db.approx_bytes()
    }

    fn table_count(&self) -> usize {
        self.db.table_names().len()
    }
}

fn build_subtree(
    doc: &mut Document,
    dom_parent: NodeId,
    edge_id: i64,
    row: &[Value],
    by_parent: &std::collections::BTreeMap<i64, Vec<&Vec<Value>>>,
) {
    // Emit this node's text first (values precede element children in
    // reconstructed documents; metadata schemas do not mix them).
    if let Some(text) = row[5].as_str() {
        doc.add_text(dom_parent, text);
    }
    if let Some(children) = by_parent.get(&edge_id) {
        let mut sorted: Vec<&&Vec<Value>> = children.iter().collect();
        sorted.sort_by_key(|r| r[3].as_i64().unwrap_or(0));
        for child in sorted {
            let el = doc.add_element(dom_parent, child[4].as_str().unwrap_or(""));
            build_subtree(doc, el, child[1].as_i64().unwrap_or(0), child, by_parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::lead::{fig4_query, FIG3_DOCUMENT};
    use catalog::query::{AttrQuery, ElemCond, ObjectQuery};

    fn backend() -> EdgeBackend {
        EdgeBackend::new().unwrap()
    }

    #[test]
    fn fig4_query_over_edges() {
        let b = backend();
        let hit = b.ingest(FIG3_DOCUMENT).unwrap();
        let _miss = b.ingest("<LEADresource><resourceID>x</resourceID></LEADresource>").unwrap();
        assert_eq!(b.query(&fig4_query()).unwrap(), vec![hit]);
    }

    #[test]
    fn structural_query_over_edges() {
        let b = backend();
        let id = b.ingest(FIG3_DOCUMENT).unwrap();
        let q = ObjectQuery::new().attr(
            AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", "air_pressure_at_cloud_top")),
        );
        assert_eq!(b.query(&q).unwrap(), vec![id]);
        let q2 = ObjectQuery::new()
            .attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", "absent")));
        assert!(b.query(&q2).unwrap().is_empty());
    }

    #[test]
    fn reconstruct_roundtrip() {
        let b = backend();
        let id = b.ingest(FIG3_DOCUMENT).unwrap();
        let docs = b.reconstruct(&[id]).unwrap();
        let a = Document::parse(FIG3_DOCUMENT).unwrap();
        let c = Document::parse(&docs[0].1).unwrap();
        assert_eq!(writer::to_string(&a, a.root()), writer::to_string(&c, c.root()));
    }

    #[test]
    fn single_table() {
        let b = backend();
        b.ingest(FIG3_DOCUMENT).unwrap();
        assert_eq!(b.table_count(), 1);
    }

    #[test]
    fn deep_nesting_matches() {
        let b = backend();
        let doc = "<LEADresource><data><geospatial><eainfo><detailed>\
            <enttyp><enttypl>m</enttypl><enttypds>S</enttypds></enttyp>\
            <attr><attrlabl>l1</attrlabl><attrdefs>S</attrdefs>\
              <attr><attrlabl>l2</attrlabl><attrdefs>S</attrdefs>\
                <attr><attrlabl>v</attrlabl><attrdefs>S</attrdefs><attrv>42</attrv></attr>\
              </attr>\
            </attr>\
            </detailed></eainfo></geospatial></data></LEADresource>";
        let id = b.ingest(doc).unwrap();
        let q = ObjectQuery::new().attr(
            AttrQuery::new("m").source("S").sub(
                AttrQuery::new("l1")
                    .source("S")
                    .sub(AttrQuery::new("l2").source("S").elem(ElemCond::eq_num("v", 42.0))),
            ),
        );
        assert_eq!(b.query(&q).unwrap(), vec![id]);
        let q_wrong = ObjectQuery::new().attr(
            AttrQuery::new("m")
                .source("S")
                .sub(AttrQuery::new("l2").source("S").sub(AttrQuery::new("l1").source("S"))),
        );
        assert!(b.query(&q_wrong).unwrap().is_empty());
    }
}
