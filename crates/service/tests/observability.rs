//! Regression tests for the service-layer observability: request
//! histograms and error counters, the `STATS` reply (WAL fsync and
//! permit queue-wait latencies among it), and the slow log.
//!
//! All assertions on the `obs::names` instruments use deltas with `>=`
//! bounds — the instruments are process-wide and other tests in this
//! binary (or parallel connections) may bump the same metrics.

use catalog::catalog::{CatalogConfig, MetadataCatalog};
use catalog::lead::{lead_catalog, lead_partition, register_arps_defs, FIG3_DOCUMENT};
use minidb::{MemVfs, WalOptions};
use obs::names;
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
    let pings = names::SERVICE_REQUEST_PING.count();
    let queries = names::SERVICE_REQUEST_QUERY.count();
    c.ping().unwrap();
    c.ingest(FIG3_DOCUMENT).unwrap();
    c.query("grid@ARPS[dx=1000]").unwrap();
    c.query("grid@ARPS[dx=1000]").unwrap();
    // The span records on drop, around when the reply is flushed —
    // hence the wait.
    assert!(wait_for(|| names::SERVICE_REQUEST_PING.count() > pings));
    assert!(wait_for(|| names::SERVICE_REQUEST_QUERY.count() >= queries + 2));
}

#[test]
fn connection_errors_are_counted_not_dropped() {
    let (server, _c) = start();
    let before = names::SERVICE_ERRORS_CONNECTION.get();
    // Raw non-UTF-8 line: read_line fails with InvalidData, so
    // serve_connection returns Err — which must be accounted, not
    // swallowed.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"\xff\xfe\n").unwrap();
    drop(raw);
    assert!(
        wait_for(|| names::SERVICE_ERRORS_CONNECTION.get() > before),
        "serve_connection error was discarded instead of counted"
    );
}

#[test]
fn error_kinds_are_classified() {
    let (server, mut c) = start();
    let addr = server.addr();
    let malformed = names::SERVICE_ERRORS_MALFORMED.get();
    let oversized = names::SERVICE_ERRORS_OVERSIZED.get();
    let unknown = names::SERVICE_ERRORS_UNKNOWN.get();
    let catalog_errs = names::SERVICE_ERRORS_CATALOG.get();

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

    assert!(wait_for(|| names::SERVICE_ERRORS_MALFORMED.get() > malformed));
    assert!(wait_for(|| names::SERVICE_ERRORS_OVERSIZED.get() > oversized));
    assert!(wait_for(|| names::SERVICE_ERRORS_UNKNOWN.get() > unknown));
    assert!(wait_for(|| names::SERVICE_ERRORS_CATALOG.get() > catalog_errs));
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
    assert!(get("service.request.ingest.count").unwrap_or(0) >= 1, "stats: {stats:?}");
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

/// `STATS` lists every instrument of the catalogue, touched or not,
/// and nothing outside it.
#[test]
fn stats_lists_the_whole_catalogue() {
    let (_server, mut c) = start();
    let stats = c.stats().unwrap();
    let keys: Vec<&str> = stats.iter().map(|(n, _)| n.as_str()).collect();
    for i in names::ALL {
        let key = match i {
            obs::names::Instrument::Histogram(h) => format!("{}.count", h.name()),
            other => other.name().to_string(),
        };
        assert!(keys.contains(&key.as_str()), "{key} missing from stats: {keys:?}");
    }
    let storage = ["objects", "attrs", "elems", "clobs", "clob_bytes", "clob_buffers", "defs"];
    let registry: Vec<(String, u64)> = obs::global().snapshot_kv();
    for key in keys.iter().filter(|k| !storage.contains(k)) {
        assert!(registry.iter().any(|(n, _)| n == key), "{key} is not a catalogue key");
    }
}

/// `STATS` reports how long WAL appends and fsyncs take and how long
/// requests wait for a permit, not only how many there were.
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

    // An ingest into a durable catalog commits: one log append, and
    // every commit fsyncs under the default policy.
    let appends = names::WAL_APPEND.count();
    let fsyncs = names::WAL_FSYNC.count();
    c.ingest(FIG3_DOCUMENT).unwrap();
    let stats = c.stats().unwrap();
    assert!(count(&stats, "wal.append") > appends, "stats: {stats:?}");
    assert!(count(&stats, "wal.fsync") > fsyncs, "stats: {stats:?}");

    // An open transaction holds the visibility gate, so each permitted
    // QUERY blocks with its permit held and one more must queue.
    let waits = names::SERVICE_POOL_QUEUE_WAIT.count();
    let txn = cat.db().txn();
    let clients: Vec<_> = (0..=WORKERS)
        .map(|_| {
            let addr = server.addr();
            std::thread::spawn(move || {
                CatalogClient::connect(addr).unwrap().query("grid@ARPS[dx=1000]").unwrap()
            })
        })
        .collect();
    let depth = &names::SERVICE_POOL_QUEUE_DEPTH;
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
        let mut span = names::SERVICE_REQUEST_QUERY.span();
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
