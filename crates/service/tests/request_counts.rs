//! Each request is counted once, by its `service.request.<op>` latency
//! histogram, on every exit path of the request loop: a reply, a
//! malformed request answered with `continue` (a malformed `DEADLINE`
//! prefix among them, counted under the command it wraps), an unknown
//! command and `QUIT`'s return. The only test in this binary, so the process-wide
//! histograms move by exactly the requests it sends.

use catalog::catalog::CatalogConfig;
use catalog::lead::lead_catalog;
use obs::names;
use service::CatalogServer;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// The request histograms, with the name of the op each counts.
const OPS: [(&str, &obs::Histogram); 11] = [
    ("ping", &names::SERVICE_REQUEST_PING),
    ("quit", &names::SERVICE_REQUEST_QUIT),
    ("ingest", &names::SERVICE_REQUEST_INGEST),
    ("add", &names::SERVICE_REQUEST_ADD),
    ("query", &names::SERVICE_REQUEST_QUERY),
    ("fetch", &names::SERVICE_REQUEST_FETCH),
    ("search", &names::SERVICE_REQUEST_SEARCH),
    ("stats", &names::SERVICE_REQUEST_STATS),
    ("slowlog", &names::SERVICE_REQUEST_SLOWLOG),
    ("checkpoint", &names::SERVICE_REQUEST_CHECKPOINT),
    ("unknown", &names::SERVICE_REQUEST_UNKNOWN),
];

fn counts() -> Vec<(&'static str, u64)> {
    OPS.iter().map(|(op, h)| (*op, h.count())).collect()
}

#[test]
fn each_request_counts_once_in_its_latency_histogram() {
    let cat = Arc::new(lead_catalog(CatalogConfig::default()).unwrap());
    let server = CatalogServer::start(cat, "127.0.0.1:0").unwrap();
    let before = counts();

    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| {
        (&stream).write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };
    assert_eq!(ask("PING"), "OK pong\n");
    assert!(ask("QUERY grid@ARPS[dx=1000]").starts_with("OK 0"));
    assert_eq!(ask("FETCH 1,two"), "ERR bad id list\n");
    assert!(ask("FROBNICATE now").starts_with("ERR unknown command"));
    assert_eq!(ask("DEADLINE soon QUERY grid@ARPS[dx=1000]"), "ERR bad deadline \"soon\"\n");
    assert_eq!(ask("DEADLINE 0"), "ERR bad deadline \"0\"\n");
    assert_eq!(ask("QUIT"), "OK bye\n");

    let sent = ["ping", "query", "fetch", "unknown", "query", "unknown", "quit"];
    let expected: Vec<(&str, u64)> = before
        .iter()
        .map(|&(op, n)| (op, n + sent.iter().filter(|&&s| s == op).count() as u64))
        .collect();
    // `QUIT` replies before its span ends, so its count may trail the
    // reply by a moment.
    for _ in 0..200 {
        if counts() == expected {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(counts(), expected);
}
