//! Property tests for the set-oriented match path: on random
//! document/query pairs the catalog's semi-join pipelines (which the
//! executor runs through its zero-clone keyed fast path) must agree
//! with the DOM oracles under *both* match strategies —
//! [`dom_match::object_matches`] for [`MatchStrategy::Exact`] (XQuery
//! semantics) and [`dom_match::object_matches_counted`] for
//! [`MatchStrategy::Counted`] (Fig 4). Includes split partial matches,
//! where Exact and Counted legitimately diverge.

use baselines::dom_match;
use catalog::lead::{lead_catalog, DETAILED_PATH};
use catalog::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;
use xmlkit::dom::Document;

/// Ids of the `docs` (object id, parsed document) that the DOM oracle
/// for `strategy` accepts, ascending.
fn dom_hits(docs: &[(i64, Document)], q: &ObjectQuery, strategy: MatchStrategy) -> Vec<i64> {
    let cv = DynamicConvention::default();
    docs.iter()
        .filter(|(_, d)| match strategy {
            MatchStrategy::Exact => dom_match::object_matches(d, q, &cv),
            MatchStrategy::Counted => dom_match::object_matches_counted(d, q, &cv),
        })
        .map(|(id, _)| *id)
        .collect()
}

/// Assert the catalog agrees with the DOM oracle under both strategies;
/// returns the (Exact, Counted) hits.
fn check_both_strategies(
    cat: &MetadataCatalog,
    docs: &[(i64, Document)],
    q: &ObjectQuery,
) -> (Vec<i64>, Vec<i64>) {
    let [exact, counted] = [MatchStrategy::Exact, MatchStrategy::Counted].map(|strategy| {
        let got = cat.query_with(q, strategy).unwrap();
        assert_eq!(got, dom_hits(docs, q, strategy), "{strategy:?}: catalog vs DOM on {q:?}");
        got
    });
    (exact, counted)
}

/// LEAD document parameterized like the bench corpus: `dx` grid
/// spacing, optional `dzmin` nested sub-attribute, one theme keyword.
fn doc(i: usize, dx: u8, dzmin: Option<u8>, key: u8) -> String {
    let dx = 250.0 * ((dx % 4) + 1) as f64;
    let key = ["rain", "snow", "wind"][key as usize % 3];
    let stretching = match dzmin {
        Some(v) => {
            let v = 50.0 * ((v % 3) + 1) as f64;
            format!(
                "<attr><attrlabl>grid-stretching</attrlabl><attrdefs>ARPS</attrdefs>\
                 <attr><attrlabl>dzmin</attrlabl><attrdefs>ARPS</attrdefs><attrv>{v}</attrv></attr>\
                 </attr>"
            )
        }
        None => String::new(),
    };
    format!(
        "<LEADresource><resourceID>run-{i}</resourceID><data>\
         <idinfo><keywords><theme><themekt>CF</themekt><themekey>{key}</themekey>\
         <themekey>extra_{i}</themekey></theme></keywords></idinfo>\
         <geospatial><eainfo><detailed>\
         <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>\
         {stretching}\
         <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>{dx}</attrv></attr>\
         </detailed></eainfo></geospatial></data></LEADresource>"
    )
}

/// Random single- or multi-criterion query over the same vocabulary.
fn query(kind: u8, a: u8, b: u8) -> ObjectQuery {
    let dx = 250.0 * ((a % 6) as f64); // sometimes misses every document
    let key = ["rain", "snow", "wind", "hail"][b as usize % 4];
    let grid = |cond| AttrQuery::new("grid").source("ARPS").elem(cond);
    match kind % 7 {
        0 => ObjectQuery::new().attr(grid(ElemCond::eq_num("dx", dx))),
        1 => {
            ObjectQuery::new().attr(grid(ElemCond::between("dx", dx, dx + 250.0 * (b % 4) as f64)))
        }
        2 => {
            ObjectQuery::new().attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", key)))
        }
        3 => ObjectQuery::new().attr(AttrQuery::new("grid").source("ARPS").sub(
            AttrQuery::new("grid-stretching").source("ARPS").elem(ElemCond::num(
                "dzmin",
                QOp::Ge,
                50.0 * ((b % 4) as f64),
            )),
        )),
        4 => ObjectQuery::new()
            .attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", key)))
            .attr(grid(ElemCond::num("dx", QOp::Le, dx))),
        5 => ObjectQuery::new().attr(grid(ElemCond::exists("dx"))),
        _ => ObjectQuery::new()
            .attr(AttrQuery::new("theme").elem(ElemCond::like("themekey", "extra%"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Catalog == DOM oracle under Exact and under Counted on random
    /// corpora and queries.
    #[test]
    fn strategies_agree_with_dom_oracles(
        docs in vec((0u8..8, proptest::option::of(0u8..6), 0u8..6), 1..8),
        queries in vec((0u8..7, 0u8..8, 0u8..8), 1..6),
    ) {
        let cat = lead_catalog(CatalogConfig::default()).unwrap();
        let mut parsed = Vec::new();
        for (i, (dx, dzmin, key)) in docs.iter().enumerate() {
            let d = doc(i, *dx, *dzmin, *key);
            let id = cat.ingest(&d).unwrap();
            parsed.push((id, Document::parse(&d).unwrap()));
        }
        for (kind, a, b) in queries {
            check_both_strategies(&cat, &parsed, &query(kind, a, b));
        }
    }

    /// Split partial matches: each `layer` carries a random subset of
    /// the queried condition and sub-attribute, so Exact and Counted
    /// legitimately diverge — each must still agree with its DOM
    /// oracle, and Exact hits are always a subset of Counted hits.
    #[test]
    fn strategies_agree_with_dom_oracles_on_split_partial_matches(
        docs in vec(vec((any::<bool>(), any::<bool>()), 0..4), 1..6),
    ) {
        let cat = lead_catalog(CatalogConfig::default()).unwrap();
        cat.register_dynamic(
            DETAILED_PATH,
            &DynamicAttrSpec::new("model", "T").sub(
                DynamicAttrSpec::new("layer", "T")
                    .element("a", xmlkit::ValueType::Float)
                    .sub(DynamicAttrSpec::new("inner", "T").element("b", xmlkit::ValueType::Float)),
            ),
            DefLevel::Admin,
        )
        .unwrap();
        let mut parsed = Vec::new();
        for (i, layers) in docs.iter().enumerate() {
            let mut body = String::new();
            for (has_a, has_inner) in layers {
                body.push_str("<attr><attrlabl>layer</attrlabl><attrdefs>T</attrdefs>");
                let a = if *has_a { 1 } else { 9 };
                body.push_str(&format!(
                    "<attr><attrlabl>a</attrlabl><attrdefs>T</attrdefs><attrv>{a}</attrv></attr>"
                ));
                if *has_inner {
                    body.push_str(
                        "<attr><attrlabl>inner</attrlabl><attrdefs>T</attrdefs>\
                         <attr><attrlabl>b</attrlabl><attrdefs>T</attrdefs><attrv>2</attrv></attr>\
                         </attr>",
                    );
                }
                body.push_str("</attr>");
            }
            let d = format!(
                "<LEADresource><resourceID>split-{i}</resourceID><data>\
                 <idinfo><keywords/></idinfo>\
                 <geospatial><eainfo><detailed>\
                 <enttyp><enttypl>model</enttypl><enttypds>T</enttypds></enttyp>\
                 {body}</detailed></eainfo></geospatial></data></LEADresource>"
            );
            let id = cat.ingest(&d).unwrap();
            parsed.push((id, Document::parse(&d).unwrap()));
        }
        let q = ObjectQuery::new().attr(
            AttrQuery::new("model").source("T").sub(
                AttrQuery::new("layer")
                    .source("T")
                    .elem(ElemCond::eq_num("a", 1.0))
                    .sub(AttrQuery::new("inner").source("T").elem(ElemCond::eq_num("b", 2.0))),
            ),
        );
        let (exact, counted) = check_both_strategies(&cat, &parsed, &q);
        // Fig-4 counting only ever over-accepts relative to XQuery
        // semantics: every exact hit is a counted hit.
        prop_assert!(exact.iter().all(|id| counted.contains(id)));
    }
}
