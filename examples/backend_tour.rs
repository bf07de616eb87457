//! Backend tour: the same corpus and query on every storage
//! architecture the paper discusses.
//!
//! Ingests one corpus into the hybrid catalog and all four baselines,
//! runs the same attribute query everywhere, and prints agreement plus
//! the structural differences (tables needed, storage bytes) that the
//! benchmark suite (E1–E8) then quantifies in time.
//!
//! ```sh
//! cargo run --release --example backend_tour
//! ```

use mylead::baselines::{
    CatalogBackend, ClobOnlyBackend, DomStoreBackend, EdgeBackend, HybridBackend, InliningBackend,
};
use mylead::catalog::lead::lead_partition;
use mylead::catalog::prelude::*;
use mylead::workload::{DocGenerator, QueryGenerator, QueryShape, WorkloadConfig};
use std::time::Instant;

fn main() -> Result<()> {
    let generator = DocGenerator::new(WorkloadConfig::default());
    let corpus = generator.corpus(200);

    let backends: Vec<Box<dyn CatalogBackend>> = vec![
        Box::new(HybridBackend::from_catalog(generator.catalog(CatalogConfig::default())?)),
        Box::new(InliningBackend::new(lead_partition())?),
        Box::new(EdgeBackend::new()?),
        Box::new(ClobOnlyBackend::new()?),
        Box::new(DomStoreBackend::new()),
    ];

    let mut qg = QueryGenerator::new(&generator, 17);
    let queries = vec![
        ("theme equality", qg.generate(QueryShape::ThemeEq)),
        ("dynamic range 10%", qg.generate(QueryShape::DynamicRange(10))),
        ("nested sub-attribute", qg.generate(QueryShape::Nested(1))),
    ];

    println!(
        "{:<12} {:>10} {:>10} {:>8} {:>12}   per-query hits",
        "backend", "ingest ms", "query ms", "tables", "bytes"
    );
    let mut reference: Option<Vec<Vec<i64>>> = None;
    for b in &backends {
        let t0 = Instant::now();
        for d in &corpus {
            b.ingest(d)?;
        }
        let ingest_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let mut answers = Vec::new();
        for (_, q) in &queries {
            answers.push(b.query(q)?);
        }
        let query_ms = t1.elapsed().as_secs_f64() * 1e3;

        let hits: Vec<usize> = answers.iter().map(|a| a.len()).collect();
        println!(
            "{:<12} {:>10.1} {:>10.2} {:>8} {:>12}   {:?}",
            b.name(),
            ingest_ms,
            query_ms,
            b.table_count(),
            b.storage_bytes(),
            hits
        );
        match &reference {
            None => reference = Some(answers),
            Some(r) => assert_eq!(r, &answers, "backend {} disagrees", b.name()),
        }
    }
    println!("\nall backends returned identical answers ✓");
    println!("(absolute times are illustrative; the bench harness runs the calibrated suite)");
    Ok(())
}
