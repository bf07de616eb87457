//! Quickstart: the paper's §4 example, end to end.
//!
//! Builds the LEAD catalog, ingests the Figure-3 metadata document,
//! runs the query from the paper (the Rust equivalent of both the
//! XQuery FLWOR and the Java `MyFile`/`MyAttr` listing), and prints the
//! schema-ordered response.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use mylead::catalog::lead::{fig4_query, lead_catalog, FIG3_DOCUMENT};
use mylead::catalog::prelude::*;
use mylead::xmlkit::{writer, Document};

fn main() -> Result<()> {
    // 1. A catalog over the Fig-2 LEAD schema, ARPS definitions
    //    registered (grid: dx/dy/dz, grid-stretching: dzmin/...).
    let cat = lead_catalog(CatalogConfig::default())?;

    // 2. Ingest: the document is shredded into per-attribute CLOBs and
    //    query rows in one pass.
    let id = cat.ingest(FIG3_DOCUMENT)?;
    println!("ingested Figure-3 document as object {id}");
    let stats = cat.stats();
    println!(
        "stored {} CLOBs, {} attribute rows, {} element rows, {} inverted-list rows\n",
        stats.clob_count, stats.attr_rows, stats.elem_rows, stats.ancestor_rows
    );

    // 3. Query — the paper's example: grid spacing dx = 1000 m with
    //    grid stretching dzmin = 100 m. Equivalent Java:
    //
    //    MyAttr gridAttr = new MyAttr("grid", "ARPS");
    //    gridAttr.addElement("dx", "ARPS", 1000, MYEQUAL);
    //    MyAttr stAttr = new MyAttr("grid-stretching", "ARPS");
    //    stAttr.addElement("dzmin", 100, MYEQUAL);
    //    gridAttr.addAttribute(stAttr);
    //    fileQry.addAttribute(gridAttr);
    let query = fig4_query();
    let hits = cat.query(&query)?;
    println!("query matched objects: {hits:?}");

    // A query that must not match (dx differs).
    let miss = ObjectQuery::new()
        .attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::eq_num("dx", 2000.0)));
    println!("dx=2000 matched objects: {:?}", cat.query(&miss)?);

    // 4. Response: the stored CLOBs are merged with wrapper tags
    //    computed from the global schema ordering.
    let docs = cat.fetch_documents(&hits)?;
    for (oid, xml) in &docs {
        let doc = Document::parse(xml).expect("response is well-formed");
        println!("\n--- reconstructed object {oid} (schema order) ---");
        println!("{}", writer::to_pretty_string(&doc, doc.root()));
    }
    Ok(())
}
