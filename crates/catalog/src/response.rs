//! Query-response construction (§5).
//!
//! The query result is a set of object ids; the response is each
//! object's metadata document, reconstructed in schema order:
//!
//! 1. join the id set with `clobs` — the per-attribute CLOB index —
//!    *without touching the CLOB bytes* (locators only);
//! 2. join with the `order_anc` inverted list to find the distinct
//!    wrapper nodes each object needs (optional attributes may be
//!    absent, so the required-ancestor set is data-dependent);
//! 3. join with `schema_order` to obtain each wrapper's tag and
//!    last-child order — which is what lets *closing* tags be placed
//!    with set operations instead of an external tagging pass
//!    (contrast Shanmugasundaram et al. \[24\]);
//! 4. merge-sort opening tags, CLOB fragments, and closing tags by
//!    `(order, kind, sibling sequence)` and concatenate, touching CLOB
//!    bytes only in this final pass.

use crate::error::Result;
use crate::reqctx::RequestCtx;
use minidb::{Database, Expr, Plan, Value};

/// Sort-merge fragment kinds; the numeric values define the ordering at
/// equal schema order: open(0) < clob(1) < close(2).
const K_OPEN: i64 = 0;
const K_CLOB: i64 = 1;
const K_CLOSE: i64 = 2;

/// Reconstruct schema-ordered XML documents for `object_ids`.
///
/// Returns one `(object_id, xml)` pair per distinct id, in ascending id
/// order; ids with no stored metadata yield an empty string.
pub fn build_documents(db: &Database, object_ids: &[i64]) -> Result<Vec<(i64, String)>> {
    build_documents_ctx(db, object_ids, &RequestCtx::unbounded())
}

/// [`build_documents`] under a request context: every plan runs under
/// the request's deadline, and the per-object lookup loop, fragment
/// sort-merge input, and final CLOB byte resolution all check it — so
/// reconstruction of a huge response stops cooperatively instead of
/// holding its worker past the deadline.
pub fn build_documents_ctx(
    db: &Database,
    object_ids: &[i64],
    ctx: &RequestCtx,
) -> Result<Vec<(i64, String)>> {
    if object_ids.is_empty() {
        return Ok(Vec::new());
    }
    // One document per distinct id: a repeated id must not look its
    // CLOB rows up twice (`Distinct` below dedups only wrapper tags).
    let mut ids = object_ids.to_vec();
    ids.sort_unstable();
    ids.dedup();
    let object_ids = ids.as_slice();
    // All plans (and the final CLOB byte resolution) run under one read
    // transaction: a concurrent ingest or delete commits either before
    // or after the whole reconstruction, never between its steps.
    let rt = db.begin_read();
    // Step 1: CLOB index rows for the result set (locators, not bytes),
    // fetched through the clobs_by_obj index one object at a time so a
    // small result set never scans the whole CLOB index.
    // clobs: object_id=0 attr_id=1 schema_order=2 clob_seq=3 clob=4
    let mut clob_index_rows: Vec<Vec<Value>> = Vec::new();
    for &id in object_ids {
        ctx.check()?;
        let rs = rt.execute_with(
            &Plan::IndexLookup {
                table: "clobs".into(),
                index: "clobs_by_obj".into(),
                key: vec![Value::Int(id)],
                filter: None,
            },
            ctx.deadline,
        )?;
        for mut row in rs.rows {
            // Prepend the id column the downstream joins expect in
            // position 0 (mirrors the former ids ⋈ clobs output shape).
            let mut full = Vec::with_capacity(6);
            full.push(Value::Int(id));
            full.append(&mut row);
            clob_index_rows.push(full);
        }
    }
    let clob_rows = Plan::Values {
        columns: vec![
            "rid".into(),
            "object_id".into(),
            "attr_id".into(),
            "schema_order".into(),
            "clob_seq".into(),
            "clob".into(),
        ],
        rows: clob_index_rows,
    };
    // → cols: rid=0, object_id=1, attr_id=2, schema_order=3, clob_seq=4, clob=5

    // Steps 2+3: distinct required ancestors joined with the global
    // ordering for tags and last-child orders.
    let required = Plan::Distinct {
        input: Box::new(
            clob_rows
                .clone()
                .hash_join(Plan::Scan { table: "order_anc".into(), filter: None }, vec![3], vec![0])
                // + order_anc: order_id=6, anc_order=7
                .project(vec![
                    (Expr::col(0), "object_id".into()),
                    (Expr::col(7), "anc_order".into()),
                ]),
        ),
    };
    // schema_order: order_id=0 tag=1 last_child=2 depth=3 is_attr=4
    let ancestors = required.hash_join(
        Plan::Scan { table: "schema_order".into(), filter: None },
        vec![1],
        vec![0],
    );
    // → object_id=0, anc_order=1, order_id=2, tag=3, last_child=4, depth=5, is_attr=6

    // Step 4a: opening-tag fragments (order, K_OPEN, 0) and closing-tag
    // fragments (last_child, K_CLOSE, -order) — the negative order makes
    // deeper wrappers close first when several close at the same point.
    let opens = ancestors.clone().project(vec![
        (Expr::col(0), "object_id".into()),
        (Expr::col(1), "major".into()),
        (Expr::lit(K_OPEN), "kind".into()),
        (Expr::lit(0i64), "minor".into()),
        (Expr::col(3), "tag".into()),
        (Expr::lit(Value::Null), "clob".into()),
    ]);
    let closes = ancestors.project(vec![
        (Expr::col(0), "object_id".into()),
        (Expr::col(4), "major".into()),
        (Expr::lit(K_CLOSE), "kind".into()),
        (
            Expr::Arith(minidb::ArithOp::Sub, Box::new(Expr::lit(0i64)), Box::new(Expr::col(1))),
            "minor".into(),
        ),
        (Expr::col(3), "tag".into()),
        (Expr::lit(Value::Null), "clob".into()),
    ]);
    // Step 4b: CLOB fragments (order, K_CLOB, clob_seq).
    let clob_frags = clob_rows.project(vec![
        (Expr::col(0), "object_id".into()),
        (Expr::col(3), "major".into()),
        (Expr::lit(K_CLOB), "kind".into()),
        (Expr::col(4), "minor".into()),
        (Expr::lit(Value::Null), "tag".into()),
        (Expr::col(5), "clob".into()),
    ]);

    // Union the three fragment relations and sort: the database returns
    // the response already tagged and ordered.
    let mut all = rt.execute_with(&opens, ctx.deadline)?;
    let more = rt.execute_with(&closes, ctx.deadline)?;
    all.rows.extend(more.rows);
    let clobs_rs = rt.execute_with(&clob_frags, ctx.deadline)?;
    all.rows.extend(clobs_rs.rows);
    ctx.check()?;
    all.rows.sort_by(|a, b| {
        // (object_id, major, kind, minor)
        for i in 0..4 {
            let ord = a[i].total_cmp(&b[i]);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });

    // Concatenate per object, resolving CLOB locators only now.
    let mut out: Vec<(i64, String)> = Vec::with_capacity(object_ids.len());
    let mut seen: std::collections::HashSet<i64> = std::collections::HashSet::new();
    for (i, row) in all.rows.iter().enumerate() {
        // CLOB byte resolution is the expensive tail of response
        // assembly; keep it cancellable too.
        if i % 256 == 0 {
            ctx.check()?;
        }
        let Some(obj) = row[0].as_i64() else { continue };
        if out.last().map(|(o, _)| *o != obj).unwrap_or(true) {
            out.push((obj, String::new()));
            seen.insert(obj);
        }
        let buf = &mut out.last_mut().expect("pushed above").1;
        match row[2].as_i64() {
            Some(K_OPEN) => {
                buf.push('<');
                buf.push_str(row[4].as_str().unwrap_or(""));
                buf.push('>');
            }
            Some(K_CLOSE) => {
                buf.push_str("</");
                buf.push_str(row[4].as_str().unwrap_or(""));
                buf.push('>');
            }
            Some(K_CLOB) => {
                // A locator that does not resolve is store corruption:
                // fail the request rather than return a document that
                // is silently missing a fragment.
                let loc = row[5].as_i64().ok_or_else(|| {
                    minidb::DbError::Corrupt(format!("object {obj}: CLOB row without a locator"))
                })?;
                let text = rt.clobs().get_str(loc as u64)?;
                buf.push_str(&text);
            }
            _ => {}
        }
    }
    // Objects with no stored CLOBs still appear (empty document).
    for &id in object_ids {
        if !seen.contains(&id) {
            out.push((id, String::new()));
        }
    }
    out.sort_by_key(|(id, _)| *id);
    Ok(out)
}

/// Convenience: wrap several reconstructed documents in a `<results>`
/// envelope (what a catalog service would return to a client).
pub fn build_response_envelope(db: &Database, object_ids: &[i64]) -> Result<String> {
    build_response_envelope_ctx(db, object_ids, &RequestCtx::unbounded())
}

/// [`build_response_envelope`] under a request context (see
/// [`build_documents_ctx`]).
pub fn build_response_envelope_ctx(
    db: &Database,
    object_ids: &[i64],
    ctx: &RequestCtx,
) -> Result<String> {
    let docs = build_documents_ctx(db, object_ids, ctx)?;
    let mut out = String::with_capacity(docs.iter().map(|(_, d)| d.len() + 32).sum());
    out.push_str("<results>");
    for (id, doc) in &docs {
        out.push_str(&format!("<object id=\"{id}\">"));
        out.push_str(doc);
        out.push_str("</object>");
    }
    out.push_str("</results>");
    Ok(out)
}
