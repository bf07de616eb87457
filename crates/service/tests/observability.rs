//! Regression tests for the service-layer observability: request and
//! error counters, the registry-backed `STATS` reply (WAL fsync and
//! permit queue-wait latencies among it), and the slow log.
//!
//! All assertions on `obs::global()` use deltas with `>=` bounds —
//! the registry is process-wide and other tests in this binary (or
//! parallel connections) may bump the same metrics.

use catalog::catalog::{CatalogConfig, MetadataCatalog};
use catalog::lead::{lead_catalog, lead_partition, register_arps_defs, FIG3_DOCUMENT};
use minidb::{MemVfs, WalOptions};
use service::{CatalogClient, CatalogServer, WORKERS};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

fn start() -> (CatalogServer, CatalogClient) {
    let cat = Arc::new(lead_catalog(CatalogConfig::default()).unwrap());
    let server = CatalogServer::start(cat, "127.0.0.1:0").unwrap();
    let client = CatalogClient::connect(server.addr()).unwrap();
    (server, client)
}

fn counter(name: &'static str) -> u64 {
    obs::global().counter(name).get()
}

/// Poll until `cond` holds or ~2s elapse; server-side counters are
/// updated on connection threads, slightly after the client sees a reply.
fn wait_for(cond: impl Fn() -> bool) -> bool {
    for _ in 0..200 {
        if cond() {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    cond()
}

#[test]
fn request_counters_track_operations() {
    let (_server, mut c) = start();
    let pings = counter("service.requests.ping");
    let queries = counter("service.requests.query");
    c.ping().unwrap();
    c.ingest(FIG3_DOCUMENT).unwrap();
    c.query("grid@ARPS[dx=1000]").unwrap();
    c.query("grid@ARPS[dx=1000]").unwrap();
    assert!(wait_for(|| counter("service.requests.ping") > pings));
    assert!(wait_for(|| counter("service.requests.query") >= queries + 2));
    // The latency histogram saw the same requests (the span records on
    // drop, just after the reply is flushed — hence the wait).
    assert!(wait_for(|| obs::global().histogram("service.request.query").count() >= 2));
}

#[test]
fn connection_errors_are_counted_not_dropped() {
    let (server, _c) = start();
    let before = counter("service.errors.connection");
    // Raw non-UTF-8 line: read_line fails with InvalidData, so
    // serve_connection returns Err — which must be accounted, not
    // swallowed.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"\xff\xfe\n").unwrap();
    drop(raw);
    assert!(
        wait_for(|| counter("service.errors.connection") > before),
        "serve_connection error was discarded instead of counted"
    );
}

#[test]
fn error_kinds_are_classified() {
    let (server, mut c) = start();
    let addr = server.addr();
    let malformed = counter("service.errors.malformed");
    let oversized = counter("service.errors.oversized");
    let unknown = counter("service.errors.unknown");
    let catalog_errs = counter("service.errors.catalog");

    // Catalog error: ADD to an object that does not exist.
    c.add_attribute(999, "<theme/>").unwrap_err();
    // Malformed: non-numeric object id on ADD.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"ADD notanumber 5\n").unwrap();
    drop(raw);
    // Oversized: INGEST length above the 16 MiB cap.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"INGEST 999999999999\n").unwrap();
    drop(raw);
    // Unknown command.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"FROBNICATE now\n").unwrap();
    drop(raw);

    assert!(wait_for(|| counter("service.errors.malformed") > malformed));
    assert!(wait_for(|| counter("service.errors.oversized") > oversized));
    assert!(wait_for(|| counter("service.errors.unknown") > unknown));
    assert!(wait_for(|| counter("service.errors.catalog") > catalog_errs));
}

#[test]
fn stats_returns_registry_snapshot_after_workload() {
    let (_server, mut c) = start();
    c.ingest(FIG3_DOCUMENT).unwrap();
    c.query("grid@ARPS[dx=1000]").unwrap();
    let stats = c.stats().unwrap();
    let get = |k: &str| stats.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    // Catalog-table stats still lead the line.
    assert_eq!(get("objects"), Some(1));
    // Registry pairs cover ingest, query, and service layers.
    assert!(get("catalog.ingest.docs").unwrap_or(0) >= 1, "stats: {stats:?}");
    assert!(get("catalog.query.count").unwrap_or(0) >= 1, "stats: {stats:?}");
    assert!(get("service.requests.ingest").unwrap_or(0) >= 1, "stats: {stats:?}");
    assert!(get("catalog.shred.attr_rows").unwrap_or(0) >= 1, "stats: {stats:?}");
    // Histograms are expanded into quantile keys.
    assert!(stats.iter().any(|(n, _)| n == "service.request.ingest.p50_us"), "stats: {stats:?}");
    // The visibility gate's wait and hold times, per side: the ingest
    // took it to write, the query (and STATS itself) to read.
    for side in ["read", "write"] {
        for phase in ["wait", "hold"] {
            let key = format!("minidb.gate.{side}_{phase}.count");
            assert!(get(&key).unwrap_or(0) >= 1, "{key} missing from stats: {stats:?}");
        }
    }
}

/// `STATS` reports how long WAL fsyncs take and how long requests wait
/// for a permit, not only how many there were.
#[test]
fn stats_reports_fsync_and_queue_wait_histograms() {
    let cat = MetadataCatalog::open_with(
        Arc::new(MemVfs::new()),
        WalOptions::default(),
        lead_partition(),
        CatalogConfig::default(),
    )
    .unwrap();
    register_arps_defs(&cat).unwrap();
    let cat = Arc::new(cat);
    let server = CatalogServer::start(cat.clone(), "127.0.0.1:0").unwrap();
    let mut c = CatalogClient::connect(server.addr()).unwrap();
    let count = |stats: &[(String, u64)], name: &str| {
        let key = format!("{name}.count");
        stats.iter().find(|(n, _)| *n == key).map_or(0, |(_, v)| *v)
    };

    // An ingest into a durable catalog commits, and every commit
    // fsyncs under the default policy.
    let fsyncs = obs::global().histogram("wal.fsync").count();
    c.ingest(FIG3_DOCUMENT).unwrap();
    let stats = c.stats().unwrap();
    assert!(count(&stats, "wal.fsync") > fsyncs, "stats: {stats:?}");

    // An open transaction holds the visibility gate, so each permitted
    // QUERY blocks with its permit held and one more must queue.
    let waits = obs::global().histogram("service.pool.queue_wait").count();
    let txn = cat.db().txn();
    let clients: Vec<_> = (0..=WORKERS)
        .map(|_| {
            let addr = server.addr();
            std::thread::spawn(move || {
                CatalogClient::connect(addr).unwrap().query("grid@ARPS[dx=1000]").unwrap()
            })
        })
        .collect();
    let depth = obs::global().gauge("service.pool.queue_depth");
    assert!(wait_for(|| depth.get() >= 1), "no request queued for a permit");
    drop(txn);
    for client in clients {
        assert_eq!(client.join().unwrap(), vec![1]);
    }
    let stats = c.stats().unwrap();
    assert!(count(&stats, "service.pool.queue_wait") > waits, "stats: {stats:?}");
}

#[test]
fn slowlog_threshold_captures_slow_queries() {
    let (_server, mut c) = start();
    c.ingest(FIG3_DOCUMENT).unwrap();
    // Threshold 0 disables; 1ms-threshold catches nothing guaranteed,
    // so drive the ring deterministically through the registry and
    // read it back over the wire.
    c.set_slow_threshold_ms(0).unwrap();
    {
        let reg = obs::global();
        reg.set_slow_threshold(std::time::Duration::from_nanos(1));
        let mut span = reg.span("service.request.query");
        span.set_detail("slowlog-wire-test");
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(span);
        reg.set_slow_threshold(std::time::Duration::from_secs(0));
    }
    let dump = c.slowlog().unwrap();
    assert!(
        dump.lines().any(|l| l.contains("detail=slowlog-wire-test")),
        "slow event missing from wire dump:\n{dump}"
    );
}
