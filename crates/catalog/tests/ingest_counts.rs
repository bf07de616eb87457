//! Every stored document is counted once, by `catalog.ingest` and
//! `catalog.ingest.docs`, whichever entry point stored it — a parallel
//! `ingest_batch` included. The only test in this binary, so the
//! process-wide instruments move by exactly the documents it ingests.

use catalog::lead::{lead_catalog, FIG3_DOCUMENT};
use catalog::prelude::*;
use obs::names;

#[test]
fn every_ingest_path_counts_each_document() {
    let cat = lead_catalog(CatalogConfig::default()).unwrap();
    let counts = || (names::CATALOG_INGEST_DOCS.get(), names::CATALOG_INGEST.count());
    let before = counts();
    let batch = vec![FIG3_DOCUMENT.to_string(); 6];
    assert_eq!(cat.ingest_batch(&batch, 2).unwrap().len(), 6);
    assert_eq!(counts(), (before.0 + 6, before.1 + 6), "parallel ingest_batch");
    cat.ingest_batch(&batch[..2], 1).unwrap();
    cat.ingest(FIG3_DOCUMENT).unwrap();
    cat.ingest_as(FIG3_DOCUMENT, "alice", "fig3").unwrap();
    assert_eq!(counts(), (before.0 + 10, before.1 + 10));
}
