//! The catalog as a grid service: server + clients in one process.
//!
//! Opens a durable catalog directory, starts a `CatalogServer` on an
//! ephemeral port, drives it from several concurrent clients (one
//! ingesting scientist, two querying), stops the server (drain, then
//! checkpoint), and reopens the directory — the full service lifecycle
//! of a myLEAD-style deployment.
//!
//! ```sh
//! cargo run --example catalog_service
//! ```

use mylead::catalog::catalog::{CatalogConfig, MetadataCatalog};
use mylead::catalog::lead::lead_partition;
use mylead::workload::{DocGenerator, WorkloadConfig};
use service::{CatalogClient, CatalogServer};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let generator = Arc::new(DocGenerator::new(WorkloadConfig::default()));
    let dir = std::env::temp_dir().join(format!("mylead-service-demo-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let catalog = MetadataCatalog::open(&dir, lead_partition(), CatalogConfig::default())?;
    generator.register_defs(&catalog)?;
    let mut server = CatalogServer::start(Arc::new(catalog), "127.0.0.1:0")?;
    println!("catalog service listening on {}", server.addr());

    // One scientist ingests a forecast batch...
    let addr = server.addr();
    let gen_w = generator.clone();
    let writer =
        std::thread::spawn(move || -> Result<Vec<i64>, Box<service::client::ClientError>> {
            let mut c = CatalogClient::connect(addr).map_err(Box::new)?;
            let mut ids = Vec::new();
            for i in 0..40 {
                ids.push(c.ingest(&gen_w.generate(i)).map_err(Box::new)?);
            }
            c.quit().map_err(Box::new)?;
            Ok(ids)
        });

    // ...while two colleagues poll with attribute queries.
    let mut pollers = Vec::new();
    for who in ["amira", "ben"] {
        let addr = server.addr();
        pollers.push(std::thread::spawn(
            move || -> Result<usize, Box<service::client::ClientError>> {
                let mut c = CatalogClient::connect(addr).map_err(Box::new)?;
                let mut best = 0;
                for _ in 0..10 {
                    let hits = c.query("grid@ARPS[p0=0..100]").map_err(Box::new)?;
                    best = best.max(hits.len());
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                println!("{who} saw up to {best} matching runs while ingest was underway");
                c.quit().map_err(Box::new)?;
                Ok(best)
            },
        ));
    }

    let ids = writer.join().expect("writer thread")?;
    for p in pollers {
        p.join().expect("poller thread")?;
    }
    println!("ingested {} objects over the wire", ids.len());

    // Fetch one document over the wire and verify it parses.
    let mut c = CatalogClient::connect(server.addr())?;
    let body = c.fetch(&ids[..3])?;
    let doc = mylead::xmlkit::Document::parse(&body)?;
    println!(
        "fetched {} objects in one envelope ({} bytes, root <{}>)",
        3,
        body.len(),
        doc.node(doc.root()).name().unwrap_or("?")
    );
    for (k, v) in c.stats()? {
        print!("{k}={v}  ");
    }
    println!();

    c.quit()?;

    // Stop the server (drain, then checkpoint) and reopen the directory
    // — restart survival. Dropping the server releases the catalog and
    // its directory lock.
    server.stop();
    drop(server);
    let reopened = MetadataCatalog::open(&dir, lead_partition(), CatalogConfig::default())?;
    println!(
        "reopened {} with {} objects after a clean stop",
        dir.display(),
        reopened.stats().objects
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
