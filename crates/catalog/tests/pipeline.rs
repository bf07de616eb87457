//! End-to-end tests of the Fig-1 pipeline over the LEAD fixture:
//! ingest (shred) → query (Fig 4) → response (schema-ordered XML).

use catalog::lead::{
    fig4_query, lead_catalog, lead_partition, register_arps_defs, DETAILED_PATH, FIG3_DOCUMENT,
};
use catalog::prelude::*;
use minidb::{Expr, MemVfs, Plan, WalOptions};
use std::sync::Arc;
use xmlkit::{Document, ValueType};

fn cat() -> MetadataCatalog {
    lead_catalog(CatalogConfig::default()).unwrap()
}

/// A LEAD document with tweakable grid parameters.
fn doc_with(dx: f64, dzmin: Option<f64>, themekey: &str) -> String {
    let stretching = match dzmin {
        Some(v) => format!(
            "<attr><attrlabl>grid-stretching</attrlabl><attrdefs>ARPS</attrdefs>\
             <attr><attrlabl>dzmin</attrlabl><attrdefs>ARPS</attrdefs><attrv>{v}</attrv></attr>\
             </attr>"
        ),
        None => String::new(),
    };
    format!(
        "<LEADresource><resourceID>r</resourceID><data>\
         <idinfo><keywords><theme><themekt>CF</themekt><themekey>{themekey}</themekey></theme></keywords></idinfo>\
         <geospatial><eainfo><detailed>\
         <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>\
         {stretching}\
         <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>{dx}</attrv></attr>\
         </detailed></eainfo></geospatial>\
         </data></LEADresource>"
    )
}

#[test]
fn fig1_roundtrip_reconstructs_schema_ordered_document() {
    let cat = cat();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();
    let docs = cat.fetch_documents(&[id]).unwrap();
    assert_eq!(docs.len(), 1);
    let rebuilt = &docs[0].1;
    // The rebuilt document must be well-formed and structurally equal to
    // the original (the Fig-3 document is already in schema order).
    let a = Document::parse(FIG3_DOCUMENT).unwrap();
    let b = Document::parse(rebuilt).unwrap();
    assert_eq!(
        xmlkit::writer::to_string(&a, a.root()),
        xmlkit::writer::to_string(&b, b.root()),
        "rebuilt:\n{rebuilt}"
    );
}

#[test]
fn repeated_ids_fetch_each_document_once() {
    let cat = cat();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();
    let other = cat.ingest(&doc_with(500.0, None, "snow")).unwrap();
    assert_eq!(cat.fetch_documents(&[id, id]).unwrap(), cat.fetch_documents(&[id]).unwrap());
    assert_eq!(
        cat.fetch_documents(&[other, id, other, 999, 999]).unwrap(),
        cat.fetch_documents(&[id, other, 999]).unwrap()
    );
}

#[test]
fn response_restores_schema_order_even_if_ingest_order_differs() {
    // Shuffle sibling order: geospatial before idinfo in the input.
    let shuffled = "<LEADresource><resourceID>x</resourceID><data>\
        <geospatial><eainfo><detailed>\
        <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>\
        <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>1</attrv></attr>\
        </detailed></eainfo></geospatial>\
        <idinfo><keywords><theme><themekt>CF</themekt><themekey>k</themekey></theme></keywords></idinfo>\
        </data></LEADresource>";
    let cat = cat();
    let id = cat.ingest(shuffled).unwrap();
    let rebuilt = cat.fetch_documents(&[id]).unwrap().remove(0).1;
    // Schema order puts idinfo (order 4) before geospatial (order 16).
    let idinfo_pos = rebuilt.find("<idinfo>").unwrap();
    let geo_pos = rebuilt.find("<geospatial>").unwrap();
    assert!(idinfo_pos < geo_pos, "schema order not restored:\n{rebuilt}");
}

#[test]
fn fig4_query_selects_exactly_matching_objects() {
    let cat = cat();
    let hit1 = cat.ingest(FIG3_DOCUMENT).unwrap();
    let hit2 = cat.ingest(&doc_with(1000.0, Some(100.0), "k2")).unwrap();
    let _miss_dx = cat.ingest(&doc_with(2000.0, Some(100.0), "k3")).unwrap();
    let _miss_dzmin = cat.ingest(&doc_with(1000.0, Some(50.0), "k4")).unwrap();
    let _miss_nosub = cat.ingest(&doc_with(1000.0, None, "k5")).unwrap();
    let hits = cat.query(&fig4_query()).unwrap();
    assert_eq!(hits, vec![hit1, hit2]);
}

#[test]
fn strategies_agree_on_realistic_queries() {
    let cat = cat();
    for i in 0..20 {
        let dx = 500.0 + (i % 4) as f64 * 250.0;
        let dzmin = if i % 3 == 0 { Some(100.0) } else { Some(40.0) };
        cat.ingest(&doc_with(dx, dzmin, &format!("key{i}"))).unwrap();
    }
    let q = fig4_query();
    let exact = cat.query_with(&q, MatchStrategy::Exact).unwrap();
    let counted = cat.query_with(&q, MatchStrategy::Counted).unwrap();
    assert_eq!(exact, counted);
    assert!(!exact.is_empty());
}

#[test]
fn counted_vs_exact_divergence_on_split_partial_matches() {
    // Adversarial case: the query wants a `layer` that BOTH satisfies
    // its own condition AND contains a satisfying `inner`; the document
    // splits those across two sibling `layer` instances. Exact (XQuery
    // semantics, hierarchical semi-join) rejects; Counted (Fig 4's flat
    // top-instance links) accepts, because each criterion independently
    // links to the top attribute instance.
    let cat = cat();
    cat.register_dynamic(
        catalog::lead::DETAILED_PATH,
        &DynamicAttrSpec::new("model", "T").sub(
            DynamicAttrSpec::new("layer", "T")
                .element("a", xmlkit::ValueType::Float)
                .sub(DynamicAttrSpec::new("inner", "T").element("b", xmlkit::ValueType::Float)),
        ),
        DefLevel::Admin,
    )
    .unwrap();
    // layer#1 has a=1 but no inner; layer#2 has inner(b=2) but a=9.
    let doc = "<LEADresource><resourceID>x</resourceID><data>\
        <idinfo><keywords/></idinfo>\
        <geospatial><eainfo><detailed>\
        <enttyp><enttypl>model</enttypl><enttypds>T</enttypds></enttyp>\
        <attr><attrlabl>layer</attrlabl><attrdefs>T</attrdefs>\
          <attr><attrlabl>a</attrlabl><attrdefs>T</attrdefs><attrv>1</attrv></attr>\
        </attr>\
        <attr><attrlabl>layer</attrlabl><attrdefs>T</attrdefs>\
          <attr><attrlabl>a</attrlabl><attrdefs>T</attrdefs><attrv>9</attrv></attr>\
          <attr><attrlabl>inner</attrlabl><attrdefs>T</attrdefs>\
            <attr><attrlabl>b</attrlabl><attrdefs>T</attrdefs><attrv>2</attrv></attr>\
          </attr>\
        </attr>\
        </detailed></eainfo></geospatial></data></LEADresource>";
    let id = cat.ingest(doc).unwrap();
    let q = ObjectQuery::new().attr(
        AttrQuery::new("model").source("T").sub(
            AttrQuery::new("layer")
                .source("T")
                .elem(ElemCond::eq_num("a", 1.0))
                .sub(AttrQuery::new("inner").source("T").elem(ElemCond::eq_num("b", 2.0))),
        ),
    );
    let exact = cat.query_with(&q, MatchStrategy::Exact).unwrap();
    let counted = cat.query_with(&q, MatchStrategy::Counted).unwrap();
    assert!(exact.is_empty(), "XQuery semantics: no single layer satisfies both");
    assert_eq!(counted, vec![id], "Fig-4 counting accepts split matches");
}

#[test]
fn structural_attribute_queries() {
    let cat = cat();
    let id1 = cat.ingest(&doc_with(1.0, None, "convective_precipitation_amount")).unwrap();
    let _id2 = cat.ingest(&doc_with(1.0, None, "air_pressure")).unwrap();
    // Query on the structural theme attribute.
    let q = ObjectQuery::new().attr(
        AttrQuery::new("theme")
            .elem(ElemCond::eq_str("themekey", "convective_precipitation_amount")),
    );
    assert_eq!(cat.query(&q).unwrap(), vec![id1]);
    // LIKE over string values.
    let q = ObjectQuery::new()
        .attr(AttrQuery::new("theme").elem(ElemCond::like("themekey", "%pressure%")));
    assert_eq!(cat.query(&q).unwrap(), vec![_id2]);
}

#[test]
fn range_and_comparison_queries() {
    let cat = cat();
    let mut ids = Vec::new();
    for dx in [250.0, 500.0, 1000.0, 2000.0] {
        ids.push(cat.ingest(&doc_with(dx, None, "k")).unwrap());
    }
    let q = |cond| ObjectQuery::new().attr(AttrQuery::new("grid").source("ARPS").elem(cond));
    assert_eq!(cat.query(&q(ElemCond::num("dx", QOp::Lt, 600.0))).unwrap(), vec![ids[0], ids[1]]);
    assert_eq!(cat.query(&q(ElemCond::num("dx", QOp::Ge, 1000.0))).unwrap(), vec![ids[2], ids[3]]);
    assert_eq!(
        cat.query(&q(ElemCond::between("dx", 400.0, 1500.0))).unwrap(),
        vec![ids[1], ids[2]]
    );
    assert_eq!(cat.query(&q(ElemCond::exists("dx"))).unwrap(), ids);
}

#[test]
fn multi_attribute_conjunction() {
    let cat = cat();
    let both = cat.ingest(&doc_with(1000.0, None, "rain")).unwrap();
    let _only_theme = cat.ingest(&doc_with(2000.0, None, "rain")).unwrap();
    let _only_grid = cat.ingest(&doc_with(1000.0, None, "snow")).unwrap();
    let q = ObjectQuery::new()
        .attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", "rain")))
        .attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::eq_num("dx", 1000.0)));
    assert_eq!(cat.query(&q).unwrap(), vec![both]);
}

#[test]
fn unknown_attribute_or_element_is_bad_query() {
    let cat = cat();
    cat.ingest(FIG3_DOCUMENT).unwrap();
    let unknown_attr =
        ObjectQuery::new().attr(AttrQuery::new("nope").source("ARPS").elem(ElemCond::exists("dx")));
    assert!(matches!(cat.query(&unknown_attr), Err(CatalogError::BadQuery(_))));
    let unknown_elem = ObjectQuery::new()
        .attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::exists("nope")));
    assert!(matches!(cat.query(&unknown_elem), Err(CatalogError::BadQuery(_))));
    let empty = ObjectQuery::new();
    assert!(matches!(cat.query(&empty), Err(CatalogError::BadQuery(_))));
}

#[test]
fn auto_register_learns_new_dynamic_attributes() {
    let config = CatalogConfig { auto_register: true };
    let cat = MetadataCatalog::new(catalog::lead::lead_partition(), config).unwrap();
    register_arps_defs(&cat).unwrap();
    let doc = "<LEADresource><resourceID>x</resourceID><data>\
        <idinfo><keywords/></idinfo>\
        <geospatial><eainfo><detailed>\
        <enttyp><enttypl>microphysics</enttypl><enttypds>WRF</enttypds></enttyp>\
        <attr><attrlabl>scheme</attrlabl><attrdefs>WRF</attrdefs><attrv>thompson</attrv></attr>\
        </detailed></eainfo></geospatial></data></LEADresource>";
    let id = cat.ingest(doc).unwrap();
    // The new definition is immediately queryable.
    let q = ObjectQuery::new().attr(
        AttrQuery::new("microphysics")
            .source("WRF")
            .elem(ElemCond::eq_str("scheme", "thompson")),
    );
    assert_eq!(cat.query(&q).unwrap(), vec![id]);
}

/// A rejected spec registers nothing — no definition and no mirror row
/// — so the corrected spec registers afterwards.
#[test]
fn a_rejected_registration_leaves_nothing_behind() {
    let cat = cat();
    let counts = |cat: &MetadataCatalog| {
        let (s, db) = (cat.stats(), cat.db());
        let rows = |t| db.row_count(t).unwrap();
        (s.attr_defs, s.elem_defs, rows("attr_defs"), rows("elem_defs"))
    };
    let before = counts(&cat);
    let inner = DynamicAttrSpec::new("inner", "WRF").element("y", ValueType::Float);
    let spec = DynamicAttrSpec::new("extra", "WRF").element("x", ValueType::Float);
    let repeated_elem = spec.clone().sub(inner.clone().element("y", ValueType::Str));
    let repeated_sub = spec.clone().sub(inner.clone()).sub(inner.clone());
    for bad in [repeated_elem, repeated_sub] {
        let err = cat.register_dynamic(DETAILED_PATH, &bad, DefLevel::Admin);
        assert!(matches!(err, Err(CatalogError::Definition(_))), "{err:?}");
        assert_eq!(counts(&cat), before);
    }
    cat.register_dynamic(DETAILED_PATH, &spec.sub(inner), DefLevel::Admin).unwrap();
    assert_eq!(counts(&cat), (before.0 + 2, before.1 + 2, before.2 + 2, before.3 + 2));
}

/// A learned definition covers every instance in the document that
/// taught it: a repeated element and a sub-attribute after it.
#[test]
fn auto_register_learns_repeated_labels_once() {
    let config = CatalogConfig { auto_register: true };
    let cat = MetadataCatalog::new(catalog::lead::lead_partition(), config).unwrap();
    let attr_defs = cat.stats().attr_defs;
    let doc = "<LEADresource><resourceID>x</resourceID><data>\
        <idinfo><keywords/></idinfo>\
        <geospatial><eainfo><detailed>\
        <enttyp><enttypl>extra</enttypl><enttypds>WRF</enttypds></enttyp>\
        <attr><attrlabl>x</attrlabl><attrdefs>WRF</attrdefs><attrv>5</attrv></attr>\
        <attr><attrlabl>x</attrlabl><attrdefs>WRF</attrdefs><attrv>6</attrv></attr>\
        <attr><attrlabl>inner</attrlabl><attrdefs>WRF</attrdefs>\
        <attr><attrlabl>y</attrlabl><attrdefs>WRF</attrdefs><attrv>7</attrv></attr></attr>\
        </detailed></eainfo></geospatial></data></LEADresource>";
    let id = cat.ingest(doc).unwrap();
    for q in ["extra@WRF[x=6]", "extra@WRF{inner@WRF[y=7]}"] {
        assert_eq!(cat.query(&parse_query(q).unwrap()).unwrap(), vec![id], "{q}");
    }
    assert_eq!(cat.stats().attr_defs, attr_defs + 2);
}

#[test]
fn without_auto_register_unknown_is_clob_only_but_reconstructs() {
    let cat = cat();
    let doc = "<LEADresource><resourceID>x</resourceID><data>\
        <idinfo><keywords/></idinfo>\
        <geospatial><eainfo><detailed>\
        <enttyp><enttypl>mystery</enttypl><enttypds>NOPE</enttypds></enttyp>\
        <attr><attrlabl>v</attrlabl><attrdefs>NOPE</attrdefs><attrv>1</attrv></attr>\
        </detailed></eainfo></geospatial></data></LEADresource>";
    let id = cat.ingest(doc).unwrap();
    // Not queryable...
    let q = ObjectQuery::new()
        .attr(AttrQuery::new("mystery").source("NOPE").elem(ElemCond::exists("v")));
    assert!(cat.query(&q).is_err());
    // ...but fully reconstructable from the CLOB.
    let rebuilt = cat.fetch_documents(&[id]).unwrap().remove(0).1;
    assert!(rebuilt.contains("<enttypl>mystery</enttypl>"), "{rebuilt}");
}

#[test]
fn delete_object_removes_everything() {
    let cat = cat();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();
    let keep = cat.ingest(&doc_with(1000.0, Some(100.0), "k")).unwrap();
    cat.delete_object(id).unwrap();
    assert_eq!(cat.query(&fig4_query()).unwrap(), vec![keep]);
    let stats = cat.stats();
    assert_eq!(stats.objects, 1);
    assert!(matches!(cat.delete_object(id), Err(CatalogError::NoSuchObject(_))));
}

#[test]
fn parallel_ingest_matches_serial() {
    let docs: Vec<String> = (0..40)
        .map(|i| doc_with((i % 5) as f64 * 100.0, Some(100.0), &format!("k{i}")))
        .collect();
    let serial = cat();
    serial.ingest_batch(&docs, 1).unwrap();
    let parallel = cat();
    parallel.ingest_batch(&docs, 4).unwrap();
    let q = ObjectQuery::new()
        .attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::eq_num("dx", 200.0)));
    assert_eq!(serial.query(&q).unwrap().len(), parallel.query(&q).unwrap().len());
    assert_eq!(serial.stats().elem_rows, parallel.stats().elem_rows);
    assert_eq!(serial.stats().clob_count, parallel.stats().clob_count);
}

#[test]
fn a_failing_document_stops_the_batch_at_the_same_prefix_at_any_thread_count() {
    let good = || doc_with(1000.0, Some(100.0), "k");
    let docs = vec![good(), "<LEADresource><unclosed>".to_string(), good(), good()];
    let stored = |threads: usize| {
        let cat = cat();
        assert!(cat.ingest_batch(&docs, threads).is_err(), "threads = {threads}");
        cat.stats().objects
    };
    // Only the document before the bad one is stored.
    assert_eq!(stored(1), 1);
    assert_eq!(stored(2), 1);
    assert_eq!(stored(4), 1);
}

#[test]
fn concurrent_query_and_ingest() {
    let cat = std::sync::Arc::new(cat());
    cat.ingest(FIG3_DOCUMENT).unwrap();
    std::thread::scope(|s| {
        for _ in 0..3 {
            let cat = cat.clone();
            s.spawn(move || {
                for _ in 0..30 {
                    let hits = cat.query(&fig4_query()).unwrap();
                    assert!(!hits.is_empty());
                }
            });
        }
        let catw = cat.clone();
        s.spawn(move || {
            for i in 0..30 {
                catw.ingest(&doc_with(1000.0, Some(100.0), &format!("c{i}"))).unwrap();
            }
        });
    });
    assert_eq!(cat.stats().objects, 31);
    assert_eq!(cat.query(&fig4_query()).unwrap().len(), 31);
}

#[test]
fn stats_reflect_hybrid_duplication() {
    let cat = cat();
    cat.ingest(FIG3_DOCUMENT).unwrap();
    let s = cat.stats();
    assert_eq!(s.objects, 1);
    // Fig 3: 2 themes + resourceID + grid = 4 CLOBs
    assert_eq!(s.clob_count, 4);
    assert!(s.clob_bytes > 0);
    // grid + grid-stretching + 2 themes + resourceID instances
    assert_eq!(s.attr_rows, 5);
    // table count is fixed regardless of content
    assert_eq!(s.table_count, 9);
}

#[test]
fn clob_buffers_track_ingests_across_restarts() {
    let vfs = MemVfs::new();
    let open = || {
        MetadataCatalog::open_with(
            Arc::new(vfs.clone()),
            WalOptions::default(),
            lead_partition(),
            CatalogConfig::default(),
        )
        .unwrap()
    };
    let cat = open();
    register_arps_defs(&cat).unwrap();
    for i in 0..5 {
        cat.ingest(&doc_with(250.0 * i as f64, Some(100.0), "rain")).unwrap();
    }
    let live = cat.stats();
    // One buffer per ingest, however many CLOBs each document has.
    assert_eq!(live.clob_buffers, 5);
    assert!(live.clob_count > 5);
    drop(cat);
    // WAL replay puts each ingest's CLOBs back into one buffer.
    let replayed = open();
    assert_eq!(replayed.stats(), live);
    // A snapshot logs each buffer as one put, so its ingests come back
    // one buffer each too.
    replayed.checkpoint().unwrap();
    drop(replayed);
    assert_eq!(open().stats(), live);
}

#[test]
fn envelope_wraps_matches() {
    let cat = cat();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();
    let env = cat.search_envelope(&fig4_query()).unwrap();
    assert!(env.starts_with("<results>"));
    assert!(env.contains(&format!("<object id=\"{id}\">")));
    assert!(env.contains("<LEADresource>"));
    let parsed = Document::parse(&env).unwrap();
    assert_eq!(parsed.node(parsed.root()).name(), Some("results"));
}

#[test]
fn search_combines_query_and_fetch() {
    let cat = cat();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();
    let results = cat.search(&fig4_query()).unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].0, id);
    assert!(results[0].1.contains("<themekey>convective_precipitation_amount</themekey>"));
}

#[test]
fn dangling_clob_locator_fails_the_fetch() {
    let cat = cat();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();
    // Clone one of the object's CLOB index rows, pointing it past the
    // end of the CLOB heap: the fragment it names cannot be resolved.
    let rs = cat
        .db()
        .execute(&Plan::Scan { table: "clobs".into(), filter: Some(Expr::col_eq(0, id)) })
        .unwrap();
    let mut row = rs.rows[0].clone();
    let dangling = cat.db().begin_read().clobs().len() as u64 + 10;
    row[3] = minidb::Value::Int(row[3].as_i64().unwrap() + 100);
    row[4] = minidb::Value::Int(dangling as i64);
    cat.db().insert("clobs", vec![row]).unwrap();
    // The reply must be an error, never a document that is short a
    // fragment but otherwise looks valid.
    let err = cat.fetch_documents(&[id]).unwrap_err();
    assert_eq!(err, CatalogError::Db(minidb::DbError::NoSuchClob(dangling)));
    let err = cat.fetch_envelope_ctx(&[id], &RequestCtx::unbounded()).unwrap_err();
    assert_eq!(err, CatalogError::Db(minidb::DbError::NoSuchClob(dangling)));
}

/// The `attr_id` of the one attribute definition named `name`.
fn attr_id_named(cat: &MetadataCatalog, name: &str) -> i64 {
    let defs = Plan::Scan { table: "attr_defs".into(), filter: Some(Expr::col_eq(1, name)) };
    let rs = cat.db().execute(&defs).unwrap();
    assert_eq!(rs.rows.len(), 1, "definitions named {name}");
    rs.rows[0][0].as_i64().unwrap()
}

/// The `seq` of each instance of attribute `attr_id` on object `id`.
fn instance_seqs(cat: &MetadataCatalog, id: i64, attr_id: i64) -> Vec<i64> {
    let filter = Expr::and(Expr::col_eq(0, id), Expr::col_eq(1, attr_id));
    let rs = cat
        .db()
        .execute(&Plan::Scan { table: "attrs".into(), filter: Some(filter) })
        .unwrap();
    rs.rows.iter().map(|r| r[2].as_i64().unwrap()).collect()
}

#[test]
fn store_tables_hold_the_shredded_document() {
    let cat = cat();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();
    // One CLOB per top-level attribute instance, and both theme
    // instances as `attrs` rows of the theme definition.
    assert_eq!(cat.db().row_count("clobs").unwrap(), 4);
    assert_eq!(instance_seqs(&cat, id, attr_id_named(&cat, "theme")), vec![1, 2]);
}

#[test]
fn add_attribute_appends_without_renumbering() {
    let cat = cat();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();
    let before = cat.stats();
    // Append a third theme after the fact (the paper: attributes can be
    // "inserted later"); only new rows are written.
    cat.add_attribute(
        id,
        "<theme><themekt>CF NetCDF</themekt><themekey>late_addition</themekey></theme>",
    )
    .unwrap();
    let after = cat.stats();
    assert_eq!(after.clob_count, before.clob_count + 1);
    assert_eq!(after.attr_rows, before.attr_rows + 1);
    // Queryable immediately.
    let q = ObjectQuery::new()
        .attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", "late_addition")));
    assert_eq!(cat.query(&q).unwrap(), vec![id]);
    // Reconstruction places it third among the themes, in schema order.
    let doc = cat.fetch_documents(&[id]).unwrap().remove(0).1;
    let t1 = doc.find("convective_precipitation_amount").unwrap();
    let t2 = doc.find("air_pressure_at_cloud_base").unwrap();
    let t3 = doc.find("late_addition").unwrap();
    assert!(t1 < t2 && t2 < t3, "{doc}");
    assert!(xmlkit::Document::parse(&doc).is_ok());
}

#[test]
fn add_dynamic_attribute_to_existing_object() {
    let cat = cat();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();
    cat.add_attribute(
        id,
        "<detailed><enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>\
         <attr><attrlabl>dy</attrlabl><attrdefs>ARPS</attrdefs><attrv>750</attrv></attr></detailed>",
    )
    .unwrap();
    // The second grid instance has seq 2 and is queryable.
    let q = ObjectQuery::new()
        .attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::eq_num("dy", 750.0)));
    assert_eq!(cat.query(&q).unwrap(), vec![id]);
    assert_eq!(instance_seqs(&cat, id, attr_id_named(&cat, "grid")), vec![1, 2]);
    let doc = cat.fetch_documents(&[id]).unwrap().remove(0).1;
    assert!(doc.contains("dy"), "{doc}");
    assert!(xmlkit::Document::parse(&doc).is_ok());
}

#[test]
fn add_attribute_rejects_unknown_object_and_tag() {
    let cat = cat();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();
    assert!(matches!(cat.add_attribute(9999, "<theme/>"), Err(CatalogError::NoSuchObject(_))));
    assert!(matches!(
        cat.add_attribute(id, "<keywords/>"), // a wrapper, not an attribute
        Err(CatalogError::BadQuery(_))
    ));
}

#[test]
fn interleaved_repeating_attributes_normalize_by_order_and_keep_sibling_sequence() {
    // theme (order 10) and place (order 11) instances interleaved in
    // the input: the response groups by schema order, and same-sibling
    // sequence keeps each group's internal order.
    let cat = cat();
    let doc = "<LEADresource><resourceID>x</resourceID><data><idinfo><keywords>\
        <theme><themekt>CF</themekt><themekey>alpha</themekey></theme>\
        <place><placekt>GNIS</placekt><placekey>norman</placekey></place>\
        <theme><themekt>CF</themekt><themekey>beta</themekey></theme>\
        <place><placekt>GNIS</placekt><placekey>tulsa</placekey></place>\
        </keywords></idinfo></data></LEADresource>";
    let id = cat.ingest(doc).unwrap();
    let rebuilt = cat.fetch_documents(&[id]).unwrap().remove(0).1;
    // All themes precede all places (schema order)...
    let last_theme = rebuilt.rfind("</theme>").unwrap();
    let first_place = rebuilt.find("<place>").unwrap();
    assert!(last_theme < first_place, "{rebuilt}");
    // ...and within each group, input order is preserved.
    assert!(rebuilt.find("alpha").unwrap() < rebuilt.find("beta").unwrap());
    assert!(rebuilt.find("norman").unwrap() < rebuilt.find("tulsa").unwrap());
    // Queries see both attribute kinds.
    let q = ObjectQuery::new()
        .attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", "beta")))
        .attr(AttrQuery::new("place").elem(ElemCond::eq_str("placekey", "norman")));
    assert_eq!(cat.query(&q).unwrap(), vec![id]);
}

#[test]
fn leaf_attribute_reconstruction_and_query() {
    // useconst/accconst are leaf attributes (both attribute and element).
    let cat = cat();
    let doc = "<LEADresource><resourceID>x</resourceID><data><idinfo>\
        <keywords/>\
        <useconst>none</useconst><accconst>public</accconst>\
        </idinfo></data></LEADresource>";
    let id = cat.ingest(doc).unwrap();
    let q = ObjectQuery::new()
        .attr(AttrQuery::new("useconst").elem(ElemCond::eq_str("useconst", "none")));
    assert_eq!(cat.query(&q).unwrap(), vec![id]);
    let rebuilt = cat.fetch_documents(&[id]).unwrap().remove(0).1;
    assert!(rebuilt.contains("<useconst>none</useconst>"), "{rebuilt}");
    assert!(rebuilt.contains("<accconst>public</accconst>"), "{rebuilt}");
    // useconst (order 14) precedes accconst (order 15).
    assert!(rebuilt.find("<useconst>").unwrap() < rebuilt.find("<accconst>").unwrap());
}

#[test]
fn escaped_content_roundtrips_through_clobs() {
    let cat = cat();
    let doc = "<LEADresource><resourceID>a &amp; b &lt;c&gt;</resourceID><data>\
        <idinfo><keywords><theme><themekt>k&amp;t</themekt>\
        <themekey>x &lt; y</themekey></theme></keywords></idinfo></data></LEADresource>";
    let id = cat.ingest(doc).unwrap();
    let rebuilt = cat.fetch_documents(&[id]).unwrap().remove(0).1;
    let parsed = Document::parse(&rebuilt).unwrap();
    assert_eq!(parsed.deep_text(parsed.root()), "a & b <c>k&tx < y");
    // Queries compare the unescaped values.
    let q = ObjectQuery::new()
        .attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", "x < y")));
    assert_eq!(cat.query(&q).unwrap(), vec![id]);
}

#[test]
fn query_results_ignore_criteria_order_and_survive_register_dynamic() {
    let cat = cat();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();

    let q = fig4_query();
    assert_eq!(cat.query(&q).unwrap(), vec![id]);
    assert_eq!(cat.query(&q).unwrap(), vec![id], "a repeat query answers the same");

    // Semantically identical criteria written in a different order
    // return the same objects.
    let a =
        parse_query("theme[themekey='convective_precipitation_flux']; grid@ARPS[dx=1000]").unwrap();
    let b =
        parse_query("grid@ARPS[dx=1000]; theme[themekey='convective_precipitation_flux']").unwrap();
    let a_ids = cat.query(&a).unwrap();
    assert_eq!(a_ids, vec![id]);
    assert_eq!(cat.query(&b).unwrap(), a_ids, "reordered conjunction returns the same ids");

    // The counted strategy answers the same Fig-4 query.
    assert_eq!(cat.query_with(&q, MatchStrategy::Counted).unwrap(), vec![id]);

    // Registering a dynamic attribute changes the definitions every
    // later query is planned against; existing answers stay put.
    cat.register_dynamic(
        catalog::lead::DETAILED_PATH,
        &DynamicAttrSpec::new("model", "T").element("a", xmlkit::ValueType::Float),
        DefLevel::Admin,
    )
    .unwrap();
    assert_eq!(cat.query(&q).unwrap(), vec![id], "results unchanged after register_dynamic");
    assert_eq!(cat.query(&a).unwrap(), a_ids);
    assert_eq!(cat.query(&b).unwrap(), a_ids);
}

#[test]
fn request_deadline_governs_query_fetch_and_search() {
    let cat = cat();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();
    let q = fig4_query();
    let cancelled = || obs::names::CATALOG_CANCELLED_DEADLINE.get();

    // An already-expired deadline: every entry point is cancelled and
    // counted once, whatever the host's speed.
    let expired = RequestCtx::deadline_in(std::time::Duration::ZERO);
    std::thread::sleep(std::time::Duration::from_millis(1));
    let before = cancelled();
    let err = cat.query_ctx(&q, &expired).unwrap_err();
    assert!(matches!(err, CatalogError::DeadlineExceeded(_)), "query_ctx: {err}");
    assert_eq!(cancelled(), before + 1);
    let err = cat.fetch_envelope_ctx(&[id], &expired).unwrap_err();
    assert!(matches!(err, CatalogError::DeadlineExceeded(_)), "fetch_envelope_ctx: {err}");
    assert_eq!(cancelled(), before + 2);
    let err = cat.search_envelope_ctx(&q, &expired).unwrap_err();
    assert!(matches!(err, CatalogError::DeadlineExceeded(_)), "search_envelope_ctx: {err}");
    assert_eq!(cancelled(), before + 3);

    // A generous deadline changes nothing.
    let roomy = RequestCtx::deadline_in(std::time::Duration::from_secs(60));
    let unbounded = RequestCtx::unbounded();
    assert_eq!(cat.query_ctx(&q, &roomy).unwrap(), cat.query_ctx(&q, &unbounded).unwrap());
    assert_eq!(
        cat.fetch_envelope_ctx(&[id], &roomy).unwrap(),
        cat.fetch_envelope_ctx(&[id], &unbounded).unwrap()
    );
    assert_eq!(
        cat.search_envelope_ctx(&q, &roomy).unwrap(),
        cat.search_envelope_ctx(&q, &unbounded).unwrap()
    );
}
