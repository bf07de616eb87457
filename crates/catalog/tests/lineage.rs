//! Lineage ordering tests.
//!
//! §6: "In a metadata catalog this [unordered reconstruction] could be
//! problematic — such as in the LEAD schema where the lineage section
//! tracks the process steps used to create a product." These tests pin
//! the hybrid design's answer: repeating attribute instances keep their
//! *same-sibling order* through shred → store → reconstruct (the
//! workflow's step order is data), while the order of *different*
//! wrappers is normalized to schema order (which the catalog is allowed
//! to impose).

use catalog::prelude::*;
use minidb::{Expr, Plan};
use std::sync::Arc;
use xmlkit::schema::Schema;
use xmlkit::Document;

/// A schema with a lineage section: an ordered list of process steps.
fn lineage_partition() -> Partition {
    let schema = Arc::new(
        Schema::parse_dsl(
            "product {
                name
                lineage {
                    procstep* { procdesc procdate srcused? }
                }
                summary? { abstract purpose? }
             }",
        )
        .unwrap(),
    );
    Partition::new(
        schema,
        &PartitionSpec::default()
            .attr("/product/name")
            .attr("/product/lineage/procstep")
            .attr("/product/summary"),
    )
    .unwrap()
}

fn cat() -> MetadataCatalog {
    MetadataCatalog::new(lineage_partition(), CatalogConfig::default()).unwrap()
}

fn steps_doc(steps: &[(&str, &str)]) -> String {
    let mut s = String::from("<product><name>run-7</name><lineage>");
    for (desc, date) in steps {
        s.push_str(&format!(
            "<procstep><procdesc>{desc}</procdesc><procdate>{date}</procdate></procstep>"
        ));
    }
    s.push_str("</lineage><summary><abstract>forecast</abstract></summary></product>");
    s
}

#[test]
fn process_step_order_survives_roundtrip() {
    let cat = cat();
    let steps = [
        ("extract ADAS analysis", "2006-06-01T00:00"),
        ("run ARPS forecast", "2006-06-01T01:00"),
        ("post-process to NetCDF", "2006-06-01T07:00"),
        ("publish to catalog", "2006-06-01T07:05"),
    ];
    let id = cat.ingest(&steps_doc(&steps)).unwrap();
    let rebuilt = cat.fetch_documents(&[id]).unwrap().remove(0).1;
    // Steps appear in exactly the original order.
    let mut last = 0;
    for (desc, _) in &steps {
        let pos = rebuilt.find(desc).unwrap_or_else(|| panic!("{desc} missing:\n{rebuilt}"));
        assert!(pos > last, "step {desc} out of order:\n{rebuilt}");
        last = pos;
    }
    // And the whole document equals the input (already in schema order).
    let a = Document::parse(&steps_doc(&steps)).unwrap();
    let b = Document::parse(&rebuilt).unwrap();
    assert_eq!(xmlkit::writer::to_string(&a, a.root()), xmlkit::writer::to_string(&b, b.root()));
}

#[test]
fn appended_steps_extend_the_sequence() {
    let cat = cat();
    let id = cat.ingest(&steps_doc(&[("step-1", "d1")])).unwrap();
    cat.add_attribute(
        id,
        "<procstep><procdesc>step-2</procdesc><procdate>d2</procdate></procstep>",
    )
    .unwrap();
    cat.add_attribute(
        id,
        "<procstep><procdesc>step-3</procdesc><procdate>d3</procdate></procstep>",
    )
    .unwrap();
    let rebuilt = cat.fetch_documents(&[id]).unwrap().remove(0).1;
    let p1 = rebuilt.find("step-1").unwrap();
    let p2 = rebuilt.find("step-2").unwrap();
    let p3 = rebuilt.find("step-3").unwrap();
    assert!(p1 < p2 && p2 < p3, "{rebuilt}");
    // Appending never rewrites existing rows (E7's point): the lineage
    // attribute instances carry sequences 1, 2, 3.
    let procstep_defs =
        Plan::Scan { table: "attr_defs".into(), filter: Some(Expr::col_eq(1, "procstep")) };
    let seqs = Plan::Scan { table: "attrs".into(), filter: None }
        .hash_join(procstep_defs, vec![1], vec![0])
        .project(vec![(Expr::col(2), "seq".into())]);
    let rs = cat
        .db()
        .execute(&Plan::Sort { input: Box::new(seqs), keys: vec![(0, false)] })
        .unwrap();
    let seqs: Vec<i64> = rs.rows.iter().filter_map(|r| r[0].as_i64()).collect();
    assert_eq!(seqs, vec![1, 2, 3]);
}

#[test]
fn steps_are_queryable_as_attributes() {
    let cat = cat();
    let a = cat.ingest(&steps_doc(&[("assimilate radar", "d"), ("forecast", "d")])).unwrap();
    let _b = cat.ingest(&steps_doc(&[("forecast", "d")])).unwrap();
    let q = parse_query("procstep[procdesc~'%radar%']").unwrap();
    assert_eq!(cat.query(&q).unwrap(), vec![a]);
}

#[test]
fn wrapper_order_normalizes_but_sibling_order_is_preserved() {
    // summary before lineage in the input: wrappers normalize to schema
    // order, but the steps inside lineage keep their relative order.
    let cat = cat();
    let shuffled = "<product><name>x</name>\
        <summary><abstract>a</abstract></summary>\
        <lineage>\
        <procstep><procdesc>first</procdesc><procdate>1</procdate></procstep>\
        <procstep><procdesc>second</procdesc><procdate>2</procdate></procstep>\
        </lineage></product>";
    let id = cat.ingest(shuffled).unwrap();
    let rebuilt = cat.fetch_documents(&[id]).unwrap().remove(0).1;
    // Schema order: lineage before summary.
    assert!(rebuilt.find("<lineage>").unwrap() < rebuilt.find("<summary>").unwrap());
    // Sibling order within lineage preserved.
    assert!(rebuilt.find("first").unwrap() < rebuilt.find("second").unwrap());
}

#[test]
fn many_steps_scale_and_stay_ordered() {
    let cat = cat();
    let steps: Vec<(String, String)> =
        (0..200).map(|i| (format!("step-{i:03}"), format!("d{i}"))).collect();
    let steps_ref: Vec<(&str, &str)> =
        steps.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    let id = cat.ingest(&steps_doc(&steps_ref)).unwrap();
    let rebuilt = cat.fetch_documents(&[id]).unwrap().remove(0).1;
    let mut last = 0;
    for (desc, _) in &steps_ref {
        let pos = rebuilt.find(desc).unwrap();
        assert!(pos > last);
        last = pos;
    }
}
