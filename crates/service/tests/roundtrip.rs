//! Server ↔ client integration tests over localhost.

use catalog::catalog::CatalogConfig;
use catalog::lead::{lead_catalog, FIG3_DOCUMENT};
use service::{CatalogClient, CatalogServer};
use std::sync::Arc;

fn start() -> (CatalogServer, CatalogClient) {
    let cat = Arc::new(lead_catalog(CatalogConfig::default()).unwrap());
    let server = CatalogServer::start(cat, "127.0.0.1:0").unwrap();
    let client = CatalogClient::connect(server.addr()).unwrap();
    (server, client)
}

#[test]
fn ping_ingest_query_fetch() {
    let cat = Arc::new(lead_catalog(CatalogConfig::default()).unwrap());
    let server = CatalogServer::start(cat.clone(), "127.0.0.1:0").unwrap();
    let mut c = CatalogClient::connect(server.addr()).unwrap();
    c.ping().unwrap();
    let id = c.ingest(FIG3_DOCUMENT).unwrap();
    assert_eq!(id, 1);
    let q = "grid@ARPS[dx=1000]{grid-stretching@ARPS[dzmin=100]}";
    let hits = c.query(q).unwrap();
    assert_eq!(hits, vec![id]);
    let body = c.fetch(&hits).unwrap();
    assert!(body.contains("<LEADresource>"));
    let parsed = xmlkit::Document::parse(&body).unwrap();
    assert_eq!(parsed.node(parsed.root()).name(), Some("results"));
    // FETCH and SEARCH reply with the one envelope the library builds.
    assert_eq!(body, catalog::response::build_response_envelope(cat.db(), &hits).unwrap());
    // A repeated id is one object in the reply, each fragment once.
    assert_eq!(c.fetch(&[id, id]).unwrap(), body);
    let requeried = c.query(q).unwrap();
    let fetched = c.fetch(&requeried).unwrap();
    assert_eq!(c.search(q).unwrap(), fetched);
    c.quit().unwrap();
}

#[test]
fn search_and_stats() {
    let (_server, mut c) = start();
    c.ingest(FIG3_DOCUMENT).unwrap();
    let env = c.search("theme[themekey~'%cloud%']").unwrap();
    assert!(env.contains("air_pressure_at_cloud_base"));
    let stats = c.stats().unwrap();
    let get = |k: &str| stats.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap();
    assert_eq!(get("objects"), 1);
    assert_eq!(get("clobs"), 4);
}

#[test]
fn add_attribute_over_the_wire() {
    let (_server, mut c) = start();
    let id = c.ingest(FIG3_DOCUMENT).unwrap();
    c.add_attribute(id, "<theme><themekt>CF</themekt><themekey>wired</themekey></theme>")
        .unwrap();
    assert_eq!(c.query("theme[themekey='wired']").unwrap(), vec![id]);
}

#[test]
fn errors_are_reported_not_fatal() {
    let (_server, mut c) = start();
    // Bad query DSL.
    let err = c.query("[[[").unwrap_err();
    assert!(matches!(err, service::client::ClientError::Server(_)));
    // Malformed document.
    let err = c.ingest("<a><b></a>").unwrap_err();
    assert!(matches!(err, service::client::ClientError::Server(_)));
    // Unknown object for ADD.
    let err = c.add_attribute(999, "<theme/>").unwrap_err();
    assert!(matches!(err, service::client::ClientError::Server(_)));
    // The connection is still usable afterwards.
    c.ping().unwrap();
    let id = c.ingest(FIG3_DOCUMENT).unwrap();
    assert!(id > 0);
}

#[test]
fn concurrent_clients_share_one_catalog() {
    let cat = Arc::new(lead_catalog(CatalogConfig::default()).unwrap());
    let server = CatalogServer::start(cat, "127.0.0.1:0").unwrap();
    let addr = server.addr();
    let mut handles = Vec::new();
    for _ in 0..4 {
        handles.push(std::thread::spawn(move || {
            let mut c = CatalogClient::connect(addr).unwrap();
            for _ in 0..5 {
                c.ingest(FIG3_DOCUMENT).unwrap();
            }
            c.query("grid@ARPS[dx=1000]").unwrap().len()
        }));
    }
    for h in handles {
        assert!(h.join().unwrap() >= 5);
    }
    let mut c = CatalogClient::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    let objects = stats.iter().find(|(n, _)| n == "objects").unwrap().1;
    assert_eq!(objects, 20);
}

#[test]
fn generated_workload_through_the_service() {
    use workload::{DocGenerator, WorkloadConfig};
    let generator = DocGenerator::new(WorkloadConfig::default());
    let cat = Arc::new(generator.catalog(CatalogConfig::default()).unwrap());
    let server = CatalogServer::start(cat, "127.0.0.1:0").unwrap();
    let mut c = CatalogClient::connect(server.addr()).unwrap();
    for d in generator.corpus(10) {
        c.ingest(&d).unwrap();
    }
    let hits = c.query("grid@ARPS[p0=0..1000]").unwrap();
    assert!(!hits.is_empty());
    let env = c.fetch(&hits[..1.min(hits.len())]).unwrap();
    assert!(xmlkit::Document::parse(&env).is_ok());
}
