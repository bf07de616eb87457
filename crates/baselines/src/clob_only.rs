//! Single-CLOB baseline: the whole document stored as one CLOB
//! ("XML column" in DB2 \[21\]; Oracle 10g's default \[22\]).
//!
//! Ingest is trivially cheap (one CLOB write after parsing for
//! well-formedness); every query must fetch, re-parse, and scan every
//! stored document; reconstruction is a CLOB fetch.

use crate::dom_match::object_matches;
use crate::CatalogBackend;
use catalog::error::Result;
use catalog::query::ObjectQuery;
use catalog::shred::DynamicConvention;
use minidb::{Column, DataType, Database, DbError, Expr, Plan, TableSchema, Value};
use std::sync::atomic::{AtomicI64, Ordering};
use xmlkit::dom::Document;

/// The single-CLOB backend.
pub struct ClobOnlyBackend {
    db: Database,
    next_id: AtomicI64,
}

impl ClobOnlyBackend {
    /// New empty store.
    pub fn new() -> Result<ClobOnlyBackend> {
        let db = Database::new();
        db.create_table(
            "docs",
            TableSchema::new(vec![
                Column::new("object_id", DataType::Int),
                Column::new("clob", DataType::Clob),
            ]),
        )?;
        db.create_index("docs", "docs_pk", &["object_id"], true)?;
        Ok(ClobOnlyBackend { db, next_id: AtomicI64::new(1) })
    }
}

impl CatalogBackend for ClobOnlyBackend {
    fn name(&self) -> &'static str {
        "clob-only"
    }

    fn ingest(&self, xml: &str) -> Result<i64> {
        // Parse for well-formedness (every backend pays parse cost).
        let _ = Document::parse(xml)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // The CLOB and the row that locates it commit together.
        let mut txn = self.db.txn();
        let locator = txn.put_clob(xml.as_bytes().to_vec());
        txn.insert("docs", vec![vec![Value::Int(id), Value::Int(locator as i64)]])?;
        txn.commit()?;
        Ok(id)
    }

    fn query(&self, q: &ObjectQuery) -> Result<Vec<i64>> {
        let rt = self.db.begin_read();
        let rs = rt.execute(&Plan::Scan { table: "docs".into(), filter: None })?;
        let mut out = Vec::new();
        for row in &rs.rows {
            let (Some(id), Some(loc)) = (row[0].as_i64(), row[1].as_i64()) else { continue };
            let doc = Document::parse(clob_text(&rt.clobs().get(loc as u64)?, loc)?)?;
            if object_matches(&doc, q, &DynamicConvention {}) {
                out.push(id);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn reconstruct(&self, ids: &[i64]) -> Result<Vec<(i64, String)>> {
        let rt = self.db.begin_read();
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            let rs = rt
                .execute(&Plan::Scan { table: "docs".into(), filter: Some(Expr::col_eq(0, id)) })?;
            if let Some(row) = rs.rows.first() {
                if let Some(loc) = row[1].as_i64() {
                    out.push((id, clob_text(&rt.clobs().get(loc as u64)?, loc)?.to_owned()));
                }
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

/// A stored document's text; bytes that are not UTF-8 mean the locator
/// does not name a document.
fn clob_text(bytes: &[u8], loc: i64) -> Result<&str> {
    Ok(std::str::from_utf8(bytes).map_err(|_| DbError::NoSuchClob(loc as u64))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::lead::{fig4_query, FIG3_DOCUMENT};

    #[test]
    fn ingest_query_reconstruct() {
        let b = ClobOnlyBackend::new().unwrap();
        let id = b.ingest(FIG3_DOCUMENT).unwrap();
        assert_eq!(b.query(&fig4_query()).unwrap(), vec![id]);
        let docs = b.reconstruct(&[id]).unwrap();
        assert_eq!(docs[0].1, FIG3_DOCUMENT);
        assert_eq!(b.table_count(), 1);
        assert!(b.storage_bytes() >= FIG3_DOCUMENT.len());
    }

    #[test]
    fn malformed_rejected() {
        let b = ClobOnlyBackend::new().unwrap();
        assert!(b.ingest("<a><b></a>").is_err());
    }
}
