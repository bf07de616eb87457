//! E3 (Criterion): nested-query latency vs sub-attribute depth —
//! hybrid (inverted list, flat) vs edge table (self-join per level).

use baselines::{CatalogBackend, EdgeBackend};
use benchkit::{generator, hybrid_backend, load};
use criterion::{criterion_group, criterion_main, Criterion};
use workload::{QueryGenerator, QueryShape, WorkloadConfig};

fn bench_depth(c: &mut Criterion) {
    for depth in [1usize, 3, 5] {
        let cfg = WorkloadConfig { sub_depth: depth, dynamics_per_doc: 2, ..Default::default() };
        let generator = generator(cfg);
        let corpus = generator.corpus(200);
        let hybrid = hybrid_backend(&generator).unwrap();
        let edge = EdgeBackend::new().unwrap();
        load(&hybrid, &corpus).unwrap();
        load(&edge, &corpus).unwrap();
        let queries = QueryGenerator::new(&generator, 7).batch(QueryShape::Nested(depth), 6);

        let mut group = c.benchmark_group(format!("e3_depth_{depth}"));
        let mut i = 0usize;
        group.bench_function("hybrid", |b| {
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                hybrid.query(q).unwrap()
            })
        });
        let mut j = 0usize;
        group.bench_function("edge-table", |b| {
            b.iter(|| {
                let q = &queries[j % queries.len()];
                j += 1;
                edge.query(q).unwrap()
            })
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(800));
    targets = bench_depth
}
criterion_main!(benches);
