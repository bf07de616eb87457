//! Property tests over the catalog's core invariants, driven by
//! randomly generated workload configurations and corpora.

use mylead::baselines::{CatalogBackend, DomStoreBackend, HybridBackend};
use mylead::catalog::prelude::*;
use mylead::workload::{DocGenerator, QueryGenerator, QueryShape, WorkloadConfig};
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = WorkloadConfig> {
    (
        any::<u64>(),
        1usize..4,  // themes
        1usize..4,  // keys
        1usize..4,  // dynamics per doc
        1usize..5,  // elems per dynamic
        0usize..3,  // sub depth
        2usize..10, // distinct dynamics
        2u64..50,   // value cardinality
    )
        .prop_map(|(seed, themes, keys, dyns, elems, depth, pool, card)| WorkloadConfig {
            seed,
            themes_per_doc: themes,
            keys_per_theme: keys,
            vocab_size: 16,
            dynamics_per_doc: dyns,
            elems_per_dynamic: elems,
            sub_depth: depth,
            distinct_dynamics: pool,
            value_cardinality: card,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The hybrid catalog answers every generated query exactly like a
    /// scan over the parsed documents (the XQuery-semantics oracle).
    #[test]
    fn hybrid_matches_dom_oracle(cfg in config_strategy(), qseed in any::<u64>()) {
        let generator = DocGenerator::new(cfg);
        let hybrid = HybridBackend::from_catalog(
            generator.catalog(CatalogConfig::default()).unwrap(),
        );
        let dom = DomStoreBackend::new();
        for d in generator.corpus(10) {
            hybrid.ingest(&d).unwrap();
            dom.ingest(&d).unwrap();
        }
        let mut qg = QueryGenerator::new(&generator, qseed);
        let depth = generator.config().sub_depth;
        let mut shapes = vec![
            QueryShape::ThemeEq,
            QueryShape::DynamicEq,
            QueryShape::DynamicRange(25),
            QueryShape::Conjunctive(2),
        ];
        if depth > 0 {
            shapes.push(QueryShape::Nested(depth));
        }
        for shape in shapes {
            let q = qg.generate(shape);
            prop_assert_eq!(
                hybrid.query(&q).unwrap(),
                dom.query(&q).unwrap(),
                "shape {:?}", shape
            );
        }
    }

    /// Shred → store → reconstruct is the identity on generated
    /// documents (modulo serialization normalization).
    #[test]
    fn reconstruction_is_identity(cfg in config_strategy()) {
        let generator = DocGenerator::new(cfg);
        let cat = generator.catalog(CatalogConfig::default()).unwrap();
        for (i, d) in generator.corpus(5).iter().enumerate() {
            let id = cat.ingest(d).unwrap();
            let rebuilt = cat.fetch_documents(&[id]).unwrap().remove(0).1;
            let a = mylead::xmlkit::Document::parse(d).unwrap();
            let b = mylead::xmlkit::Document::parse(&rebuilt).unwrap();
            prop_assert_eq!(
                mylead::xmlkit::writer::to_string(&a, a.root()),
                mylead::xmlkit::writer::to_string(&b, b.root()),
                "doc {} failed", i
            );
        }
    }

    /// Monotonicity: widening a range predicate never loses matches.
    #[test]
    fn range_widening_is_monotone(cfg in config_strategy(), qseed in any::<u64>()) {
        let generator = DocGenerator::new(cfg);
        let cat = generator.catalog(CatalogConfig::default()).unwrap();
        for d in generator.corpus(12) {
            cat.ingest(&d).unwrap();
        }
        // Same seed → same attribute/element choice for both widths;
        // the only difference is the (deterministic) range width.
        let narrow = QueryGenerator::new(&generator, qseed).generate(QueryShape::DynamicRange(10));
        let wide = QueryGenerator::new(&generator, qseed).generate(QueryShape::DynamicRange(100));
        let n = cat.query(&narrow).unwrap();
        let w = cat.query(&wide).unwrap();
        for id in &n {
            prop_assert!(w.contains(id), "narrow hit {} missing from wide result", id);
        }
    }

    /// Query results are always sorted, duplicate-free subsets of the
    /// cataloged objects.
    #[test]
    fn results_are_canonical(cfg in config_strategy(), qseed in any::<u64>()) {
        let generator = DocGenerator::new(cfg);
        let cat = generator.catalog(CatalogConfig::default()).unwrap();
        let ids: Vec<i64> = generator.corpus(8).iter().map(|d| cat.ingest(d).unwrap()).collect();
        let mut qg = QueryGenerator::new(&generator, qseed);
        for shape in [QueryShape::DynamicEq, QueryShape::DynamicRange(50)] {
            let hits = cat.query(&qg.generate(shape)).unwrap();
            let mut sorted = hits.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(&hits, &sorted);
            prop_assert!(hits.iter().all(|h| ids.contains(h)));
        }
    }
}
