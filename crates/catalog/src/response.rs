//! Query-response construction (§5).
//!
//! The query result is a set of object ids; the response is each
//! object's metadata document, reconstructed in schema order. Paper §5
//! makes the wrapper tags a function of the global ordering alone: a
//! wrapper is open exactly while the CLOBs of its subtree are written,
//! and closes before the next ordered node outside it (which is what
//! lets closing tags be placed without an external tagging pass —
//! contrast Shanmugasundaram et al. \[24\]). So one request:
//!
//! 1. reads the small `schema_order` (order → tag) and `order_anc`
//!    (order → ancestor orders) tables once;
//! 2. walks each object's `clobs_by_obj` index prefix, which yields its
//!    CLOB locators already in `(schema_order, clob_seq)` order;
//! 3. for each CLOB, closes the open wrappers that are not ancestors of
//!    its schema order and opens the ancestors not yet open — the
//!    difference between consecutive ancestor stacks, both found by
//!    indexing arrays with the order — then resolves its locator to the
//!    text the heap holds ([`minidb::clob`] stores CLOBs as text,
//!    checked as UTF-8 once, on the way in) and appends it, touching
//!    CLOB bytes only in this final step. An ingest stores its
//!    document's CLOBs back to back in one heap buffer, so these reads
//!    stay within one buffer and, for a document ingested in schema
//!    order, run through it front to back;
//! 4. closes whatever is still open after the object's last CLOB.
//!
//! Everything runs under one read transaction, so a concurrent ingest
//! or delete commits either before or after the whole reconstruction.

use crate::error::Result;
use crate::reqctx::RequestCtx;
use minidb::table::Index;
use minidb::{Database, DbError, ReadTxn, Table, Value};
use std::ops::Bound;

/// Reconstruct schema-ordered XML documents for `object_ids`.
///
/// Returns one `(object_id, xml)` pair per distinct id, in ascending id
/// order; ids with no stored metadata yield an empty string.
pub fn build_documents(db: &Database, object_ids: &[i64]) -> Result<Vec<(i64, String)>> {
    build_documents_ctx(db, object_ids, &RequestCtx::unbounded())
}

/// [`build_documents`] under a request context: the deadline is checked
/// before each object, so reconstruction of a huge response stops
/// cooperatively instead of holding its worker past the deadline.
pub fn build_documents_ctx(
    db: &Database,
    object_ids: &[i64],
    ctx: &RequestCtx,
) -> Result<Vec<(i64, String)>> {
    let ids = distinct_sorted(object_ids);
    if ids.is_empty() {
        return Ok(Vec::new());
    }
    let rt = db.begin_read();
    let asm = Assembler::new(&rt)?;
    let mut out = Vec::with_capacity(ids.len());
    for id in ids {
        ctx.check()?;
        let mut doc = String::new();
        asm.write_document(id, &mut doc)?;
        out.push((id, doc));
    }
    Ok(out)
}

/// Convenience: wrap several reconstructed documents in a `<results>`
/// envelope (what a catalog service would return to a client).
pub fn build_response_envelope(db: &Database, object_ids: &[i64]) -> Result<String> {
    build_response_envelope_ctx(db, object_ids, &RequestCtx::unbounded())
}

/// [`build_response_envelope`] under a request context (see
/// [`build_documents_ctx`]). Documents are written straight into the
/// envelope, one `<object id="..">` element per distinct id.
pub fn build_response_envelope_ctx(
    db: &Database,
    object_ids: &[i64],
    ctx: &RequestCtx,
) -> Result<String> {
    let ids = distinct_sorted(object_ids);
    let mut out = String::from("<results>");
    if !ids.is_empty() {
        let rt = db.begin_read();
        let asm = Assembler::new(&rt)?;
        for id in ids {
            ctx.check()?;
            out.push_str("<object id=\"");
            out.push_str(&id.to_string());
            out.push_str("\">");
            asm.write_document(id, &mut out)?;
            out.push_str("</object>");
        }
    }
    out.push_str("</results>");
    Ok(out)
}

/// One document per distinct id, in ascending id order.
fn distinct_sorted(object_ids: &[i64]) -> Vec<i64> {
    let mut ids = object_ids.to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The global ordering as read from `schema_order` and `order_anc`,
/// plus the `clobs` table and its per-object index, for one request's
/// read transaction. Orders are a dense pre-order numbering, so both
/// maps are arrays indexed by order.
struct Assembler<'r> {
    rt: &'r ReadTxn<'r>,
    clobs: &'r Table,
    by_obj: &'r Index,
    /// order → wrapper tag (`None` for an order without one).
    tags: Vec<Option<&'r str>>,
    /// order → ancestor orders that have a tag, root first.
    ancestors: Vec<Vec<usize>>,
}

impl<'r> Assembler<'r> {
    fn new(rt: &'r ReadTxn<'r>) -> Result<Assembler<'r>> {
        // schema_order: order_id=0 tag=1 last_child=2 depth=3 is_attr=4.
        // Orders number the rows 1..=n.
        let schema_order = rt.table("schema_order")?;
        let n = schema_order.len();
        let mut tags = vec![None; n + 1];
        for (_, row) in schema_order.scan() {
            if let (Some(order), Some(tag)) = (row[0].as_i64(), row[1].as_str()) {
                let Some(slot) = usize::try_from(order).ok().and_then(|o| tags.get_mut(o)) else {
                    return Err(
                        DbError::Corrupt(format!("schema order {order} outside 1..={n}")).into()
                    );
                };
                *slot = Some(tag);
            }
        }
        // order_anc: order_id=0 anc_order=1. Pre-order numbering puts
        // every ancestor before its descendants, so sorting by order
        // lists a node's ancestors root first.
        let mut ancestors = vec![Vec::new(); tags.len()];
        for (_, row) in rt.table("order_anc")?.scan() {
            if let (Some(order), Some(anc)) = (order_of(&row[0]), order_of(&row[1])) {
                if let (Some(list), Some(Some(_))) = (ancestors.get_mut(order), tags.get(anc)) {
                    list.push(anc);
                }
            }
        }
        for list in &mut ancestors {
            list.sort_unstable();
            list.dedup();
        }
        let clobs = rt.table("clobs")?;
        let by_obj = clobs.index("clobs_by_obj")?;
        Ok(Assembler { rt, clobs, by_obj, tags, ancestors })
    }

    /// Append object `id`'s document to `out` (nothing when it has no
    /// CLOBs). A locator that does not resolve is store corruption: the
    /// request fails rather than return a document silently missing a
    /// fragment.
    fn write_document(&self, id: i64, out: &mut String) -> Result<()> {
        let mut open: Vec<usize> = Vec::new();
        // clobs: object_id=0 attr_id=1 schema_order=2 clob_seq=3 clob=4
        let key = [Value::Int(id)];
        for rid in self.by_obj.walk(&key, Bound::Unbounded, Bound::Unbounded) {
            let Some(row) = self.clobs.get(rid) else { continue };
            let (Some(order), Some(loc)) = (order_of(&row[2]), row[4].as_i64()) else {
                return Err(DbError::Corrupt(format!(
                    "object {id}: CLOB row without a schema order or locator"
                ))
                .into());
            };
            let wanted = self.ancestors.get(order).map_or(&[][..], Vec::as_slice);
            let common = open.iter().zip(wanted).take_while(|(a, b)| a == b).count();
            while open.len() > common {
                let order = open.pop().expect("longer than the common prefix");
                self.tag(out, "</", order);
            }
            for &anc in &wanted[common..] {
                self.tag(out, "<", anc);
                open.push(anc);
            }
            out.push_str(self.rt.clobs().get(loc as u64)?);
        }
        while let Some(order) = open.pop() {
            self.tag(out, "</", order);
        }
        Ok(())
    }

    /// Write `<tag>` or `</tag>` for the wrapper at `order`, which is
    /// an ancestor list entry and so has a tag.
    fn tag(&self, out: &mut String, opener: &str, order: usize) {
        out.push_str(opener);
        out.push_str(self.tags[order].expect("ancestor orders have tags"));
        out.push('>');
    }
}

/// A schema order read from a row, as an array index.
fn order_of(v: &Value) -> Option<usize> {
    v.as_i64().and_then(|o| usize::try_from(o).ok())
}
