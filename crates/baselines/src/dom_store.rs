//! Native-XML document store (Xindice-like \[6\]): parsed DOM trees held
//! in a collection, queried by tree scans.
//!
//! Compared to [`crate::clob_only::ClobOnlyBackend`] it avoids
//! re-parsing at query time by paying DOM memory permanently — the
//! trade the paper's earlier benchmarking work \[7\] found "far inferior
//! to a relational database in terms of throughput" at grid load.

use crate::dom_match::object_matches;
use crate::CatalogBackend;
use catalog::error::Result;
use catalog::query::ObjectQuery;
use catalog::shred::DynamicConvention;
use parking_lot::RwLock;
use xmlkit::dom::Document;
use xmlkit::writer;

/// The DOM-collection backend.
#[derive(Default)]
pub struct DomStoreBackend {
    docs: RwLock<Vec<(i64, Document)>>,
}

impl DomStoreBackend {
    /// New empty collection.
    pub fn new() -> DomStoreBackend {
        DomStoreBackend::default()
    }
}

impl CatalogBackend for DomStoreBackend {
    fn name(&self) -> &'static str {
        "dom-store"
    }

    fn ingest(&self, xml: &str) -> Result<i64> {
        let doc = Document::parse(xml)?;
        let mut docs = self.docs.write();
        let id = (docs.len() + 1) as i64;
        docs.push((id, doc));
        Ok(id)
    }

    fn query(&self, q: &ObjectQuery) -> Result<Vec<i64>> {
        let docs = self.docs.read();
        Ok(docs
            .iter()
            .filter(|(_, d)| object_matches(d, q, &DynamicConvention {}))
            .map(|(id, _)| *id)
            .collect())
    }

    fn reconstruct(&self, ids: &[i64]) -> Result<Vec<(i64, String)>> {
        let docs = self.docs.read();
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            if let Some((_, d)) = docs.iter().find(|(i, _)| *i == id) {
                out.push((id, writer::to_string(d, d.root())));
            }
        }
        Ok(out)
    }

    fn storage_bytes(&self) -> usize {
        // DOM node overhead: count node structs + text/tag bytes.
        let docs = self.docs.read();
        docs.iter()
            .map(|(_, d)| {
                let mut bytes = 0;
                for i in 0..d.len() {
                    let node = d.node(xmlkit::NodeId(i as u32));
                    bytes += std::mem::size_of::<xmlkit::Node>();
                    match &node.kind {
                        xmlkit::NodeKind::Element { name, attrs } => {
                            bytes += name.len();
                            bytes += attrs.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>();
                        }
                        xmlkit::NodeKind::Text(t) => bytes += t.len(),
                    }
                    bytes += node.children.len() * std::mem::size_of::<xmlkit::NodeId>();
                }
                bytes
            })
            .sum()
    }

    fn table_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::lead::{fig4_query, FIG3_DOCUMENT};

    #[test]
    fn ingest_query_reconstruct() {
        let b = DomStoreBackend::new();
        let id = b.ingest(FIG3_DOCUMENT).unwrap();
        let miss = b.ingest("<LEADresource><resourceID>x</resourceID></LEADresource>").unwrap();
        assert_eq!(b.query(&fig4_query()).unwrap(), vec![id]);
        let docs = b.reconstruct(&[id, miss]).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].1, FIG3_DOCUMENT);
        assert!(b.storage_bytes() > FIG3_DOCUMENT.len());
    }
}
