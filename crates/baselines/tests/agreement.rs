//! Cross-backend agreement: every storage architecture must return the
//! same answers (XQuery-equivalent semantics) on the same corpus — the
//! precondition for the performance comparison to be meaningful.

use baselines::{
    CatalogBackend, ClobOnlyBackend, DomStoreBackend, EdgeBackend, HybridBackend, InliningBackend,
};
use catalog::lead::{fig4_query, lead_catalog, lead_partition};
use catalog::prelude::*;
use xmlkit::Document;

fn backends() -> Vec<Box<dyn CatalogBackend>> {
    vec![
        Box::new(HybridBackend::from_catalog(lead_catalog(CatalogConfig::default()).unwrap())),
        Box::new(ClobOnlyBackend::new().unwrap()),
        Box::new(DomStoreBackend::new()),
        Box::new(EdgeBackend::new().unwrap()),
        Box::new(InliningBackend::new(lead_partition()).unwrap()),
    ]
}

/// Twelve regular documents, then three whose `dx` text is a signed
/// zero or NaN: the store orders floats with `total_cmp`, so every
/// backend must fold `-0` into `0` and treat NaN as no number.
fn corpus() -> Vec<String> {
    let mut docs = Vec::new();
    let special = ["-0", "-0.0", "NaN"];
    for i in 0..12 + special.len() {
        let dx = match i.checked_sub(12) {
            Some(k) => special[k].to_string(),
            None => (250.0 * ((i % 4) + 1) as f64).to_string(),
        };
        let dzmin = 50.0 * ((i % 3) + 1) as f64;
        let key = ["rain", "snow", "wind"][i % 3];
        docs.push(format!(
            "<LEADresource><resourceID>run-{i}</resourceID><data>\
             <idinfo>\
             <status><progress>complete</progress><update>daily</update></status>\
             <keywords><theme><themekt>CF</themekt><themekey>{key}</themekey>\
             <themekey>extra_{i}</themekey></theme></keywords>\
             </idinfo>\
             <geospatial><eainfo><detailed>\
             <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>\
             <attr><attrlabl>grid-stretching</attrlabl><attrdefs>ARPS</attrdefs>\
               <attr><attrlabl>dzmin</attrlabl><attrdefs>ARPS</attrdefs><attrv>{dzmin}</attrv></attr>\
             </attr>\
             <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>{dx}</attrv></attr>\
             </detailed></eainfo></geospatial></data></LEADresource>"
        ));
    }
    docs
}

fn queries() -> Vec<(&'static str, ObjectQuery)> {
    vec![
        ("fig4", fig4_query()),
        (
            "dx-eq",
            ObjectQuery::new()
                .attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::eq_num("dx", 500.0))),
        ),
        (
            "dx-range",
            ObjectQuery::new().attr(
                AttrQuery::new("grid")
                    .source("ARPS")
                    .elem(ElemCond::between("dx", 300.0, 800.0)),
            ),
        ),
        (
            "theme",
            ObjectQuery::new()
                .attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", "rain"))),
        ),
        (
            "theme-like",
            ObjectQuery::new()
                .attr(AttrQuery::new("theme").elem(ElemCond::like("themekey", "extra%"))),
        ),
        (
            "nested",
            ObjectQuery::new().attr(AttrQuery::new("grid").source("ARPS").sub(
                AttrQuery::new("grid-stretching").source("ARPS").elem(ElemCond::num(
                    "dzmin",
                    QOp::Ge,
                    100.0,
                )),
            )),
        ),
        (
            "conj",
            ObjectQuery::new()
                .attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", "snow")))
                .attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::num(
                    "dx",
                    QOp::Le,
                    500.0,
                ))),
        ),
        (
            "status",
            ObjectQuery::new()
                .attr(AttrQuery::new("status").elem(ElemCond::eq_str("progress", "complete"))),
        ),
        (
            "exists",
            ObjectQuery::new()
                .attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::exists("dx"))),
        ),
        (
            "miss",
            ObjectQuery::new()
                .attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::eq_num("dx", 99999.0))),
        ),
        ("dx-eq-neg-zero", dx_query(ElemCond::eq_num("dx", -0.0))),
        ("dx-eq-zero", dx_query(ElemCond::eq_num("dx", 0.0))),
        ("dx-ge-zero", dx_query(ElemCond::num("dx", QOp::Ge, 0.0))),
        ("dx-le-neg-zero", dx_query(ElemCond::num("dx", QOp::Le, -0.0))),
        ("dx-gt-5", dx_query(ElemCond::num("dx", QOp::Gt, 5.0))),
        ("dx-between-zeros", dx_query(ElemCond::between("dx", -0.0, 0.0))),
        ("dx-eq-nan", dx_query(ElemCond::eq_num("dx", f64::NAN))),
        ("dx-ge-nan", dx_query(ElemCond::num("dx", QOp::Ge, f64::NAN))),
        ("dx-between-nan", dx_query(ElemCond::between("dx", f64::NAN, 1000.0))),
    ]
}

fn dx_query(cond: ElemCond) -> ObjectQuery {
    ObjectQuery::new().attr(AttrQuery::new("grid").source("ARPS").elem(cond))
}

#[test]
fn all_backends_agree_on_all_queries() {
    let backends = backends();
    let docs = corpus();
    // Each backend ingests the same corpus; ids are 1..=N everywhere.
    for b in &backends {
        for d in &docs {
            b.ingest(d).unwrap();
        }
    }
    for (qname, q) in queries() {
        let reference = backends[0].query(&q).unwrap();
        for b in &backends[1..] {
            let got = b.query(&q).unwrap();
            assert_eq!(
                got,
                reference,
                "backend {} disagrees with hybrid on query {qname}",
                b.name()
            );
        }
    }
}

#[test]
fn all_backends_reconstruct_equivalent_documents() {
    let backends = backends();
    let docs = corpus();
    for b in &backends {
        for d in &docs {
            b.ingest(d).unwrap();
        }
    }
    // The corpus documents are written in schema order, so every
    // backend must reproduce them structurally.
    for b in &backends {
        let rebuilt = b.reconstruct(&[3]).unwrap();
        assert_eq!(rebuilt.len(), 1, "{}", b.name());
        let got = Document::parse(&rebuilt[0].1).unwrap();
        let want = Document::parse(&docs[2]).unwrap();
        assert_eq!(
            xmlkit::writer::to_string(&got, got.root()),
            xmlkit::writer::to_string(&want, want.root()),
            "backend {} reconstruction differs",
            b.name()
        );
    }
}

#[test]
fn storage_accounting_sane() {
    let backends = backends();
    let docs = corpus();
    for b in &backends {
        for d in &docs {
            b.ingest(d).unwrap();
        }
        assert!(b.storage_bytes() > 0, "{}", b.name());
    }
    // Hybrid duplicates data (CLOB + shred): it must cost more than the
    // single-CLOB store on the same corpus.
    let hybrid = backends.iter().find(|b| b.name() == "hybrid").unwrap();
    let clob = backends.iter().find(|b| b.name() == "clob-only").unwrap();
    assert!(hybrid.storage_bytes() > clob.storage_bytes());
    // Table-count contrast (E5 static view).
    let inl = backends.iter().find(|b| b.name() == "inlining").unwrap();
    assert!(inl.table_count() > hybrid.table_count() / 2);
    assert_eq!(clob.table_count(), 1);
}
