//! Query execution over the shredded store (§4, Fig 4).
//!
//! A query is first *shredded* like a document: each `AttrQuery` node
//! resolves to an attribute definition, each `ElemCond` to an element
//! definition, and the query tree's required counts are computed. The
//! match then runs as set-based relational plans over the `elems`,
//! `attrs` and `attr_anc` tables — the instance-level inverted list is
//! what keeps nested dynamic-attribute criteria join-depth-constant
//! instead of one self-join per nesting level (contrast the edge-table
//! baseline).
//!
//! Two strategies are provided:
//!
//! - [`MatchStrategy::Exact`] — hierarchical semi-joins bottom-up over
//!   the query tree; equivalent to the XQuery FLWOR the paper shows.
//! - [`MatchStrategy::Counted`] — Fig 4's flat formulation: every query
//!   node links *directly to the top attribute instance* through the
//!   inverted list and satisfaction is decided by counts. One join
//!   level cheaper; diverges from XQuery semantics only when a query
//!   nests sub-attributes two+ levels deep **and** partial matches are
//!   split across sibling instances (see `counted_vs_exact` test).

use crate::defs::{AttrId, DefsRegistry, ElemId};
use crate::error::{CatalogError, Result};
use crate::query::{AttrQuery, ElemCond, ObjectQuery, QOp, QValue};
use crate::reqctx::RequestCtx;
use crate::shred::{parse_num, stored_num};
use minidb::{CmpOp, Database, Expr, Plan, Value};

/// Matching strategy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchStrategy {
    /// Hierarchical semi-join; XQuery-equivalent semantics.
    Exact,
    /// Fig-4 count-based matching through top-instance links.
    Counted,
}

/// A query node resolved against the definition registry.
#[derive(Debug, Clone)]
struct ResolvedNode {
    attr_id: AttrId,
    elems: Vec<(ElemId, ElemCond)>,
    children: Vec<ResolvedNode>,
    direct_subs: bool,
}

/// Resolve the query tree to definition ids.
fn resolve(defs: &DefsRegistry, q: &AttrQuery, parent: Option<AttrId>) -> Result<ResolvedNode> {
    // Sub-attribute criteria may skip intervening definition levels
    // (the inverted list links instances across any distance).
    let def = match parent {
        None => defs.find_attr(&q.name, q.source.as_deref(), None),
        Some(p) => defs.find_attr_under(&q.name, q.source.as_deref(), p),
    }
    .ok_or_else(|| {
        CatalogError::BadQuery(format!(
            "unknown attribute ({}, {})",
            q.name,
            q.source.as_deref().unwrap_or("-")
        ))
    })?;
    if !def.queryable {
        return Err(CatalogError::BadQuery(format!("attribute {} is not queryable", q.name)));
    }
    let attr_id = def.id;
    let mut elems = Vec::with_capacity(q.elems.len());
    for c in &q.elems {
        let elem_id = defs.resolve_elem(attr_id, &c.name).ok_or_else(|| {
            CatalogError::BadQuery(format!("unknown element {} on attribute {}", c.name, q.name))
        })?;
        elems.push((elem_id, c.clone()));
    }
    let mut children = Vec::with_capacity(q.subs.len());
    for s in &q.subs {
        children.push(resolve(defs, s, Some(attr_id))?);
    }
    Ok(ResolvedNode { attr_id, elems, children, direct_subs: q.direct_subs })
}

// Column order of `elems`:   object_id=0 attr_id=1 attr_seq=2 elem_id=3 elem_seq=4 value_str=5 value_num=6
// Column order of `attrs`:   object_id=0 attr_id=1 seq=2 clob_seq=3
// Column order of `attr_anc`: object_id=0 attr_id=1 seq=2 anc_attr_id=3 anc_seq=4 distance=5

/// Predicate over the `elems` table for one element condition.
fn elem_pred(elem_id: ElemId, cond: &ElemCond) -> Expr {
    let id_eq = Expr::col_eq(3, elem_id);
    let value_pred = match cond.op {
        QOp::Exists => Expr::lit(true),
        QOp::Like => {
            let QValue::Str(p) = &cond.value else {
                return Expr::lit(false);
            };
            Expr::Like(Box::new(Expr::col(5)), p.clone())
        }
        QOp::Between => {
            let (QValue::Num(lo), Some(QValue::Num(hi))) = (&cond.value, &cond.value2) else {
                return Expr::lit(false);
            };
            match (stored_num(*lo), stored_num(*hi)) {
                (Some(lo), Some(hi)) => Expr::Between(
                    Box::new(Expr::col(6)),
                    Box::new(Expr::lit(lo)),
                    Box::new(Expr::lit(hi)),
                ),
                // A NaN bound matches nothing.
                _ => Expr::lit(false),
            }
        }
        QOp::Eq | QOp::Ne | QOp::Lt | QOp::Le | QOp::Gt | QOp::Ge => {
            let op = match cond.op {
                QOp::Eq => CmpOp::Eq,
                QOp::Ne => CmpOp::Ne,
                QOp::Lt => CmpOp::Lt,
                QOp::Le => CmpOp::Le,
                QOp::Gt => CmpOp::Gt,
                QOp::Ge => CmpOp::Ge,
                _ => unreachable!(),
            };
            match &cond.value {
                QValue::Num(n) => match stored_num(*n) {
                    Some(n) => Expr::Cmp(op, Box::new(Expr::col(6)), Box::new(Expr::lit(n))),
                    // A NaN literal matches nothing.
                    None => Expr::lit(false),
                },
                QValue::Str(s) => {
                    let str_cmp =
                        Expr::Cmp(op, Box::new(Expr::col(5)), Box::new(Expr::lit(s.clone())));
                    if op != CmpOp::Eq {
                        return Expr::and(id_eq, str_cmp);
                    }
                    // `value_str = s` implies the `value_num` shred stored
                    // for `s`: the same parse, or NULL when `s` is not a
                    // number. The implied term changes no result; it lets
                    // the leaf key `elems_by_def` on all three columns.
                    let num_eq = match parse_num(s) {
                        Some(n) => Expr::col_eq(6, n),
                        None => Expr::IsNull(Box::new(Expr::col(6))),
                    };
                    Expr::and(num_eq, str_cmp)
                }
            }
        }
    };
    Expr::and(id_eq, value_pred)
}

/// `(object_id, seq)` key pair over the `elems` / `attrs` tables.
fn key_cols() -> Vec<(Expr, String)> {
    vec![(Expr::col(0), "object_id".into()), (Expr::col(2), "seq".into())]
}

/// Plan yielding distinct `(object_id, seq)` of instances of
/// `node.attr_id` that satisfy all *direct* element conditions.
///
/// The first condition probes; every further condition becomes a
/// semi-join build side. The probe is filtered by key-set membership,
/// never widened, and one trailing `Distinct` covers the whole chain;
/// the executor runs all of it over `(object_id, seq)` integer keys.
fn direct_instances_plan(node: &ResolvedNode) -> Plan {
    let cond_scan = |(elem_id, cond): &(ElemId, ElemCond)| {
        Plan::Scan { table: "elems".into(), filter: Some(elem_pred(*elem_id, cond)) }
            .project(key_cols())
    };
    let mut conds = node.elems.iter();
    let plan = match conds.next() {
        // No element conditions: every instance of the definition.
        None => Plan::Scan { table: "attrs".into(), filter: Some(Expr::col_eq(1, node.attr_id)) }
            .project(key_cols()),
        Some(first) => conds
            .fold(cond_scan(first), |plan, c| plan.semi_join(cond_scan(c), vec![0, 1], vec![0, 1])),
    };
    Plan::Distinct { input: Box::new(plan) }
}

/// Inverted-list scan restricted to one (child, ancestor) definition
/// pair; `distance = 1` when the query demands direct children. The
/// filter keys `anc_by_link` on all of its terms (see `store`).
fn link_scan(child: AttrId, ancestor: AttrId, direct_only: bool) -> Plan {
    let mut link_pred = Expr::and(Expr::col_eq(1, child), Expr::col_eq(3, ancestor));
    if direct_only {
        link_pred = Expr::and(link_pred, Expr::col_eq(5, 1i64));
    }
    Plan::Scan { table: "attr_anc".into(), filter: Some(link_pred) }
}

/// Ancestor instances `(object_id, anc_seq)` reachable from satisfied
/// child instances through the inverted list. The link scan is filtered
/// by child-key membership *during the scan*, then the ancestor key is
/// projected — the executor fuses this shape into one pass over
/// `attr_anc`.
fn ancestors_of(child_sat: Plan, link: Plan) -> Plan {
    Plan::Distinct {
        input: Box::new(
            link.semi_join(child_sat, vec![0, 2], vec![0, 1])
                .project(vec![(Expr::col(0), "object_id".into()), (Expr::col(4), "seq".into())]),
        ),
    }
}

/// Intersect two `(object_id, seq)` instance sets.
fn intersect_instances(acc: Plan, other: Plan) -> Plan {
    acc.semi_join(other, vec![0, 1], vec![0, 1])
}

/// Exact strategy: bottom-up hierarchical semi-join.
///
/// Returns a plan yielding distinct `(object_id, seq)` for instances of
/// `node.attr_id` satisfying the node's whole subtree.
fn exact_plan(node: &ResolvedNode) -> Plan {
    let mut plan = direct_instances_plan(node);
    for child in &node.children {
        let child_sat = exact_plan(child);
        let link = link_scan(child.attr_id, node.attr_id, node.direct_subs);
        let parents = ancestors_of(child_sat, link);
        plan = intersect_instances(plan, parents);
    }
    plan
}

/// Counted strategy: every descendant query node links straight to the
/// top attribute instance (Fig 4's inverted-list shortcut).
fn counted_plan(top: &ResolvedNode) -> Plan {
    fn visit(top_attr: AttrId, node: &ResolvedNode, mut plan: Plan) -> Plan {
        for child in &node.children {
            let child_sat = direct_instances_plan(child);
            let link = link_scan(child.attr_id, top_attr, false);
            let tops = ancestors_of(child_sat, link);
            plan = intersect_instances(plan, tops);
            plan = visit(top_attr, child, plan);
        }
        plan
    }
    visit(top.attr_id, top, direct_instances_plan(top))
}

/// Intersect two distinct `object_id` sets.
fn intersect_objects(acc: Plan, other: Plan) -> Plan {
    acc.semi_join(other, vec![0], vec![0])
}

/// Build the full match plan for an [`ObjectQuery`] without executing
/// it. The catalog builds it afresh for every query, and its
/// `EXPLAIN ANALYZE` path profiles a plan built by this same function,
/// so the analyzed plan is exactly the executed plan.
pub fn build_query_plan(
    defs: &DefsRegistry,
    query: &ObjectQuery,
    strategy: MatchStrategy,
) -> Result<Plan> {
    if query.attrs.is_empty() {
        return Err(CatalogError::BadQuery("query has no attribute criteria".into()));
    }
    let mut obj_plan: Option<Plan> = None;
    for aq in &query.attrs {
        let node = resolve(defs, aq, None)?;
        let sat = match strategy {
            MatchStrategy::Exact => exact_plan(&node),
            MatchStrategy::Counted => counted_plan(&node),
        };
        let objs = Plan::Distinct {
            input: Box::new(sat.project(vec![(Expr::col(0), "object_id".into())])),
        };
        obj_plan = Some(match obj_plan {
            None => objs,
            Some(acc) => intersect_objects(acc, objs),
        });
    }
    Ok(Plan::Sort { input: Box::new(obj_plan.expect("non-empty query")), keys: vec![(0, false)] })
}

/// Extract the leading `object_id` column of a match result.
pub(crate) fn ids_from_rows(rs: minidb::ResultSet) -> Vec<i64> {
    rs.rows
        .into_iter()
        .filter_map(|r| match r.first() {
            Some(Value::Int(i)) => Some(*i),
            _ => None,
        })
        .collect()
}

/// Execute an already-built match plan under a request context; returns
/// sorted matching object ids. The executor checks `ctx`'s deadline
/// cooperatively.
pub fn execute_match_plan(db: &Database, plan: &Plan, ctx: &RequestCtx) -> Result<Vec<i64>> {
    let reg = obs::global();
    let rs = {
        let _span = reg.span("catalog.query.match");
        db.execute_with(plan, ctx.deadline)?
    };
    reg.counter("catalog.query.count").incr();
    Ok(ids_from_rows(rs))
}
