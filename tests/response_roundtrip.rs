//! The response builder reproduces every stored document byte for byte:
//! each generated document comes back from `fetch_documents` and from a
//! `search_envelope` that matches the whole corpus equal to its compact
//! serialization, across seeds and sub-attribute nesting depths.

use mylead::catalog::prelude::*;
use mylead::workload::{DocGenerator, WorkloadConfig};
use mylead::xmlkit::{writer, Document};

fn compact(xml: &str) -> String {
    let doc = Document::parse(xml).unwrap();
    writer::to_string(&doc, doc.root())
}

#[test]
fn fetch_and_search_return_each_document_compactly_serialized() {
    for seed in [1u64, 7, 23] {
        for sub_depth in 0..=3 {
            let g = DocGenerator::new(WorkloadConfig { seed, sub_depth, ..Default::default() });
            let cat = g.catalog(CatalogConfig::default()).unwrap();
            let corpus = g.corpus(40);
            let ids: Vec<i64> = corpus.iter().map(|d| cat.ingest(d).unwrap()).collect();
            let want: Vec<(i64, String)> =
                ids.iter().zip(&corpus).map(|(&id, d)| (id, compact(d))).collect();

            // A repeated id yields one document; an unknown id an empty one.
            let missing = ids.iter().max().unwrap() + 1;
            let mut asked = ids.clone();
            asked.push(ids[0]);
            asked.push(missing);
            let mut got = cat.fetch_documents(&asked).unwrap();
            assert_eq!(got.pop(), Some((missing, String::new())), "seed {seed} depth {sub_depth}");
            assert_eq!(got, want, "fetch: seed {seed} depth {sub_depth}");

            // Every generated document has themes, so `%` matches all.
            let env = cat.search_envelope(&parse_query("theme[themekey~'%']").unwrap()).unwrap();
            let mut expected = String::from("<results>");
            for (id, doc) in &want {
                expected.push_str(&format!("<object id=\"{id}\">{doc}</object>"));
            }
            expected.push_str("</results>");
            assert_eq!(env, expected, "search: seed {seed} depth {sub_depth}");
        }
    }
}
