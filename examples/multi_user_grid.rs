//! Grid scenario: a shared catalog serving many users concurrently.
//!
//! Simulates the multi-user grid load the paper's motivation (and its
//! earlier CCGrid'04 benchmark work [7]) is about: several scientists
//! ingesting experiment metadata while others query, on one catalog.
//! Reports per-role throughput. Readers share the database's one
//! visibility gate and proceed in parallel; each ingest holds it
//! exclusively for its one transaction.
//!
//! ```sh
//! cargo run --release --example multi_user_grid
//! ```

use mylead::catalog::prelude::*;
use mylead::workload::{DocGenerator, QueryGenerator, QueryShape, WorkloadConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<()> {
    let generator = Arc::new(DocGenerator::new(WorkloadConfig::default()));
    let cat = Arc::new(generator.catalog(CatalogConfig::default())?);

    // Preload a base corpus.
    let base: Vec<String> = generator.corpus(300);
    cat.ingest_batch(&base, 4)?;
    println!("preloaded {} objects", cat.stats().objects);

    let writers = 2usize;
    let readers = 6usize;
    let duration = std::time::Duration::from_millis(1500);
    let ingested = AtomicUsize::new(0);
    let queried = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);

    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..writers {
            let cat = cat.clone();
            let generator = generator.clone();
            let ingested = &ingested;
            s.spawn(move || {
                let mut i = 1000 + w * 100_000;
                while start.elapsed() < duration {
                    cat.ingest(&generator.generate(i)).expect("ingest");
                    i += 1;
                    ingested.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for r in 0..readers {
            let cat = cat.clone();
            let generator = generator.clone();
            let queried = &queried;
            let hits = &hits;
            s.spawn(move || {
                let mut qg = QueryGenerator::new(&generator, 100 + r as u64);
                let shapes = [
                    QueryShape::ThemeEq,
                    QueryShape::DynamicEq,
                    QueryShape::DynamicRange(10),
                    QueryShape::Nested(1),
                    QueryShape::Conjunctive(2),
                ];
                let mut n = 0usize;
                while start.elapsed() < duration {
                    let q = qg.generate(shapes[n % shapes.len()]);
                    let found = cat.query(&q).expect("query");
                    hits.fetch_add(found.len(), Ordering::Relaxed);
                    queried.fetch_add(1, Ordering::Relaxed);
                    n += 1;
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();

    let ing = ingested.load(Ordering::Relaxed);
    let qry = queried.load(Ordering::Relaxed);
    println!("\n{writers} writers ingested {ing} docs  ({:.0} docs/s)", ing as f64 / secs);
    println!(
        "{readers} readers ran      {qry} queries ({:.0} queries/s, {} total hits)",
        qry as f64 / secs,
        hits.load(Ordering::Relaxed)
    );
    let stats = cat.stats();
    println!(
        "\nfinal catalog: {} objects, {} element rows, {} CLOBs ({} KiB)",
        stats.objects,
        stats.elem_rows,
        stats.clob_count,
        stats.clob_bytes / 1024
    );

    // Responses still reconstruct correctly under load.
    let sample =
        cat.query(&QueryGenerator::new(&generator, 999).generate(QueryShape::DynamicRange(50)))?;
    if let Some(&first) = sample.first() {
        let doc = cat.fetch_documents(&[first])?.remove(0).1;
        assert!(mylead::xmlkit::Document::parse(&doc).is_ok());
        println!("sample response for object {first}: {} bytes, well-formed", doc.len());
    }
    Ok(())
}
